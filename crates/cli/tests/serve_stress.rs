//! Concurrency acceptance for the sharded memo daemon: multi-client
//! stress with SIGKILL/restart keeping per-shard stores byte-identical
//! to a serial single-client run, and in-flight dedup bounding N
//! identical concurrent cold queries to one enumeration.
//!
//! Queries here speak the wire protocol in-process (no `vpoc query`
//! subprocess per request) so the stress phases drive real concurrency
//! instead of process-spawn overhead.
//!
//! The `#[ignore]`d `perf_*` harnesses print the EXPERIMENTS.md
//! numbers: warm-query latency while a cold run occupies another
//! shard, and aggregate cold-campaign wall time by shard count. Run
//! them with `cargo test --release --test serve_stress -- --ignored
//! --nocapture`.

#![cfg(unix)]

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use phase_order::campaign::store::{shard_of, shard_path, ResultStore};
use phase_order::service::{Request, Response, Served};
use phase_order::wire::{read_frame, write_frame};

fn vpoc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vpoc"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpoc_stress_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_daemon(store: &Path, socket: &Path, extra: &[&str]) -> Child {
    let child = vpoc()
        .args([
            "serve",
            &format!("--store={}", store.display()),
            &format!("--socket={}", socket.display()),
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    wait_for_socket(socket);
    child
}

fn wait_for_socket(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if UnixStream::connect(socket).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("daemon did not open {} within 30s", socket.display());
}

/// One request over the wire, in-process: returns the progress frames
/// seen and the terminal response.
fn exchange(socket: &Path, req: &Request) -> (Vec<Response>, Response) {
    let mut stream = UnixStream::connect(socket).unwrap();
    write_frame(&mut stream, &req.to_bytes()).unwrap();
    let mut progress = Vec::new();
    loop {
        let payload = read_frame(&mut stream).unwrap();
        let resp = Response::from_bytes(&payload).unwrap();
        if resp.is_terminal() {
            return (progress, resp);
        }
        progress.push(resp);
    }
}

fn query(socket: &Path, function: &str, budget: Option<u64>) -> Response {
    exchange(socket, &Request::Query { function: function.into(), budget }).1
}

fn list_names(socket: &Path) -> Vec<String> {
    match exchange(socket, &Request::List).1 {
        Response::List { entries } => entries.into_iter().map(|e| e.name).collect(),
        other => panic!("--list returned {other:?}"),
    }
}

fn telemetry_json(socket: &Path) -> String {
    match exchange(socket, &Request::Telemetry).1 {
        Response::Telemetry { json } => json,
        other => panic!("--telemetry returned {other:?}"),
    }
}

/// A named counter out of the telemetry snapshot JSON.
fn counter(json: &str, name: &str) -> u64 {
    let needle = format!("\"name\": \"{name}\", \"kind\": \"counter\"");
    let line = json
        .lines()
        .find(|l| l.contains(&needle))
        .unwrap_or_else(|| panic!("no counter `{name}` in telemetry:\n{json}"));
    let v = line.split("\"value\": ").nth(1).unwrap();
    v.chars().take_while(|c| c.is_ascii_digit()).collect::<String>().parse().unwrap()
}

/// Whether a memo response is terminal for its function (no resumable
/// frontier left).
fn is_done(resp: &Response) -> bool {
    match resp {
        Response::Memo { record, .. } => !record.is_resumable(),
        other => panic!("query returned {other:?}"),
    }
}

/// N client threads hammer the daemon with mixed warm/cold queries
/// until every function is terminal. Each thread walks the name list
/// from its own offset, so at any instant different threads are cold
/// on different shards while re-hitting warm entries of others.
fn deplete_concurrently(socket: &Path, names: &[String], threads: usize) {
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut done = vec![false; names.len()];
                for round in 0.. {
                    if done.iter().all(|&d| d) {
                        return;
                    }
                    assert!(round < 500, "functions never depleted");
                    for k in 0..names.len() {
                        let i = (k + t * names.len() / threads.max(1)) % names.len();
                        if done[i] {
                            continue;
                        }
                        if is_done(&query(socket, &names[i], None)) {
                            done[i] = true;
                        }
                    }
                }
            });
        }
    });
}

const SERVE_ARGS: &[&str] =
    &["--bench=bitcount", "--max-nodes=400", "--budget=20", "--jobs=2", "--shards=4"];

#[test]
fn sharded_stress_stays_byte_identical_to_serial_and_survives_sigkill() {
    // Serial single-client reference: deplete every function one query
    // at a time, then snapshot the per-shard stores.
    let dir = tmp_dir("serial");
    let store = dir.join("ref.store");
    let socket = dir.join("ref.sock");
    let shard_files: Vec<PathBuf> = (0..4).map(|k| shard_path(&store, k, 4)).collect();
    for p in shard_files.iter().chain([&store, &socket]) {
        std::fs::remove_file(p).ok();
    }
    let mut daemon = spawn_daemon(&store, &socket, SERVE_ARGS);
    let names = list_names(&socket);
    assert!(names.len() >= 2, "need several functions to spread over shards: {names:?}");
    for name in &names {
        for round in 0..200 {
            if is_done(&query(&socket, name, None)) {
                break;
            }
            assert!(round < 199, "{name} never completed");
        }
    }
    let (_, bye) = exchange(&socket, &Request::Shutdown);
    assert!(matches!(bye, Response::ShuttingDown));
    assert!(daemon.wait().unwrap().success());
    let want: Vec<Vec<u8>> = shard_files.iter().map(|p| std::fs::read(p).unwrap()).collect();

    // The shard split is the deterministic name hash, with every record
    // homed to its own shard and none lost.
    let mut total = 0;
    for (k, bytes) in want.iter().enumerate() {
        let s = ResultStore::from_bytes(bytes).unwrap();
        for rec in &s.records {
            assert_eq!(shard_of(&rec.name, 4), k, "{} homed to the wrong shard", rec.name);
        }
        total += s.records.len();
    }
    assert_eq!(total, names.len(), "every function's record lands in exactly one shard");
    assert!(!store.exists(), "multi-shard layout must not write the base path");

    // Concurrent run on a fresh store: stress phase, SIGKILL mid-flight,
    // restart, deplete — the shard files must converge byte-identically.
    let dir = tmp_dir("concurrent");
    let store = dir.join("hot.store");
    let socket = dir.join("hot.sock");
    for k in 0..4 {
        std::fs::remove_file(shard_path(&store, k, 4)).ok();
    }
    std::fs::remove_file(&socket).ok();
    let mut daemon = spawn_daemon(&store, &socket, SERVE_ARGS);

    // Stress phase: partial progress from many clients at once.
    std::thread::scope(|s| {
        for t in 0..6 {
            let names = &names;
            let socket = &socket;
            s.spawn(move || {
                for k in 0..names.len() {
                    let name = &names[(k + t) % names.len()];
                    let _ = query(socket, name, Some(5));
                }
            });
        }
    });

    // SIGKILL mid-service: the shard stores must already be valid.
    daemon.kill().unwrap();
    daemon.wait().unwrap();
    for k in 0..4 {
        ResultStore::load(&shard_path(&store, k, 4)).expect("killed daemon leaves valid shards");
    }

    // Restart on the same stores and deplete under full concurrency.
    let mut daemon = spawn_daemon(&store, &socket, SERVE_ARGS);
    deplete_concurrently(&socket, &names, 6);
    let (_, bye) = exchange(&socket, &Request::Shutdown);
    assert!(matches!(bye, Response::ShuttingDown));
    assert!(daemon.wait().unwrap().success());

    for (k, want_bytes) in want.iter().enumerate() {
        let got = std::fs::read(shard_path(&store, k, 4)).unwrap();
        assert_eq!(
            &got, want_bytes,
            "shard {k} of the stressed run differs from the serial single-client reference"
        );
    }
}

#[test]
fn duplicate_concurrent_cold_queries_cost_one_enumeration() {
    let dir = tmp_dir("dedup");
    let store = dir.join("dedup.store");
    let socket = dir.join("dedup.sock");
    for k in 0..2 {
        std::fs::remove_file(shard_path(&store, k, 2)).ok();
    }
    std::fs::remove_file(&socket).ok();
    let mut daemon = spawn_daemon(
        &store,
        &socket,
        &["--bench=sha", "--max-nodes=400", "--jobs=2", "--shards=2"],
    );
    let names = list_names(&socket);
    let target = &names[0];

    // Three identical cold queries released simultaneously. Whatever
    // the interleaving, the inflight map admits exactly one runner:
    // the others either attach to it or hit the memo warm.
    let barrier = Barrier::new(3);
    let results: Vec<(usize, Response)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let (progress, resp) = exchange(
                        &socket,
                        &Request::Query { function: target.clone(), budget: None },
                    );
                    (progress.len(), resp)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // All three see the same terminal record.
    let records: Vec<_> = results
        .iter()
        .map(|(_, r)| match r {
            Response::Memo { record, .. } => record.clone(),
            other => panic!("expected a memo, got {other:?}"),
        })
        .collect();
    assert!(records.windows(2).all(|w| w[0] == w[1]), "clients disagree on the record");

    // Exactly one enumeration ran; its expansion count is the whole
    // cost. Attached/warm duplicates spent zero expansions.
    let json = telemetry_json(&socket);
    let cold_runs = counter(&json, "serve.cold_runs");
    let cold_expanded = counter(&json, "serve.cold_expanded");
    let attached = counter(&json, "serve.dedup_attached");
    let warm = counter(&json, "serve.warm_hits");
    assert_eq!(cold_runs, 1, "duplicate queries must share one enumeration\n{json}");
    assert_eq!(attached + warm, 2, "the other two clients attach or hit warm\n{json}");
    let served_expanded: Vec<u64> = results
        .iter()
        .filter_map(|(_, r)| match r {
            Response::Memo { served: Served::Cold { expanded }, .. } => Some(*expanded),
            _ => None,
        })
        .collect();
    for e in &served_expanded {
        assert_eq!(*e, cold_expanded, "every cold reply reports the one shared run's cost");
    }
    assert!(!served_expanded.is_empty(), "the runner's reply must be cold");

    // Only the runner's connection streams progress; attachers receive
    // just the terminal frame.
    let progress_streams = results.iter().filter(|(n, _)| *n > 0).count();
    assert!(progress_streams <= 1, "attached clients must not receive progress frames");
    assert_eq!(counter(&json, "serve.progress_frames") > 0, progress_streams == 1);

    let (_, bye) = exchange(&socket, &Request::Shutdown);
    assert!(matches!(bye, Response::ShuttingDown));
    assert!(daemon.wait().unwrap().success());
}

#[test]
fn single_shard_layout_remains_the_classic_store_file() {
    // `--shards 1` must read and write the exact pre-sharding layout:
    // one store file at the base path, loadable as-is.
    let dir = tmp_dir("single");
    let store = dir.join("classic.store");
    let socket = dir.join("classic.sock");
    for p in [&store, &socket] {
        std::fs::remove_file(p).ok();
    }
    let mut daemon = spawn_daemon(
        &store,
        &socket,
        &["--bench=bitcount", "--max-nodes=400", "--budget=50", "--jobs=2", "--shards=1"],
    );
    let names = list_names(&socket);
    assert!(is_done(&query(&socket, &names[0], Some(10_000))));
    let (_, bye) = exchange(&socket, &Request::Shutdown);
    assert!(matches!(bye, Response::ShuttingDown));
    assert!(daemon.wait().unwrap().success());
    let s = ResultStore::load(&store).expect("single-shard store lives at the base path");
    assert!(s.records.iter().any(|r| r.name == names[0]));
    assert!(!shard_path(&store, 0, 4).exists(), "no shard suffix under --shards 1");
}

/// EXPERIMENTS.md harness: warm-query p50 while a cold run is active on
/// another shard, vs an idle daemon.
#[test]
#[ignore]
fn perf_warm_latency_during_cold_run() {
    let dir = tmp_dir("warmlat");
    let store = dir.join("lat.store");
    let socket = dir.join("lat.sock");
    for k in 0..4 {
        std::fs::remove_file(shard_path(&store, k, 4)).ok();
    }
    std::fs::remove_file(&socket).ok();
    let mut daemon = spawn_daemon(
        &store,
        &socket,
        &["--all-benches", "--max-nodes=4000", "--jobs=2", "--shards=4", "--max-active=2"],
    );
    let names = list_names(&socket);

    // Pick a big cold target and a warm probe on a *different* shard.
    let cold_target = "sha::sha_transform".to_string();
    assert!(names.contains(&cold_target));
    let warm_probe = names
        .iter()
        .find(|n| shard_of(n, 4) != shard_of(&cold_target, 4))
        .expect("a probe on another shard")
        .clone();
    // Warm the probe up fully.
    for _ in 0..200 {
        if is_done(&query(&socket, &warm_probe, Some(10_000))) {
            break;
        }
    }

    let p50 = |n: usize| -> Duration {
        let mut samples: Vec<Duration> = (0..n)
            .map(|_| {
                let t = Instant::now();
                let r = query(&socket, &warm_probe, None);
                assert!(matches!(r, Response::Memo { served: Served::Warm, .. }));
                t.elapsed()
            })
            .collect();
        samples.sort();
        samples[n / 2]
    };

    let idle = p50(300);
    let cold_socket = socket.clone();
    let cold = std::thread::spawn(move || {
        // One long cold run: a large budget keeps the enumeration busy
        // while the probe hammers its own shard.
        query(&cold_socket, "sha::sha_transform", Some(1_000_000))
    });
    std::thread::sleep(Duration::from_millis(30)); // let the cold run start
    let busy = p50(300);
    let _ = cold.join().unwrap();

    println!("warm-query p50 idle:        {:>8.1?}", idle);
    println!("warm-query p50 during cold: {:>8.1?}", busy);

    let (_, bye) = exchange(&socket, &Request::Shutdown);
    assert!(matches!(bye, Response::ShuttingDown));
    assert!(daemon.wait().unwrap().success());
}

/// EXPERIMENTS.md harness: aggregate cold-campaign wall time over all
/// MiBench benches, single store vs 8 shards, 8 concurrent clients.
#[test]
#[ignore]
fn perf_shards_vs_single_store() {
    for shards in [1usize, 8] {
        let dir = tmp_dir(&format!("scale{shards}"));
        let store = dir.join("scale.store");
        let socket = dir.join("scale.sock");
        for k in 0..shards {
            std::fs::remove_file(shard_path(&store, k, shards)).ok();
        }
        for p in [&store, &socket] {
            std::fs::remove_file(p).ok();
        }
        let shards_arg = format!("--shards={shards}");
        let mut daemon = spawn_daemon(
            &store,
            &socket,
            &[
                "--all-benches",
                "--max-nodes=400",
                "--budget=100",
                "--jobs=2",
                "--max-active=8",
                "--max-queue=64",
                &shards_arg,
            ],
        );
        let names = list_names(&socket);
        let t = Instant::now();
        deplete_concurrently(&socket, &names, 8);
        println!(
            "cold campaign over {} functions, {shards} shard(s): {:.2?}",
            names.len(),
            t.elapsed()
        );
        let (_, bye) = exchange(&socket, &Request::Shutdown);
        assert!(matches!(bye, Response::ShuttingDown));
        assert!(daemon.wait().unwrap().success());
    }
}
