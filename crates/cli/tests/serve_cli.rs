//! End-to-end daemon acceptance, against the real binary: start `vpoc
//! serve`, drive a cold function to completion with small per-request
//! budgets, check the finished store is byte-identical to a direct
//! uncapped `vpoc campaign`, SIGKILL the daemon, restart it on the same
//! socket and store, and confirm warm answers survive the crash. Also:
//! SIGTERM drains, idle clients cannot pin the daemon past its read
//! deadline, a sharded daemon adopts a legacy single store, and stores
//! of other options or functions are refused.

#![cfg(unix)]

mod common;

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use common::Daemon;
use phase_order::campaign::store::{shard_path, FunctionRecord, ResultStore};
use phase_order::service::Response;
use phase_order::tmp_dir::TmpDir;
use phase_order::wire::read_frame;

const BENCH: &str = "bitcount";
const MAX_NODES: &str = "400";
/// How long the daemon waits for a request frame before answering the
/// connection with an error, and the slack the tests allow past it.
const READ_DEADLINE: Duration = Duration::from_secs(5);
const MARGIN: Duration = Duration::from_secs(5);

fn vpoc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vpoc"))
}

fn tmp_dir(tag: &str) -> TmpDir {
    TmpDir::new(&format!("vpoc_serve_{}_{tag}", std::process::id()))
}

fn spawn_daemon(store: &Path, socket: &Path, extra: &[&str]) -> Daemon {
    let child = vpoc()
        .args([
            "serve",
            "--bench",
            BENCH,
            &format!("--store={}", store.display()),
            &format!("--socket={}", socket.display()),
            &format!("--max-nodes={MAX_NODES}"),
            "--budget=20",
            "--jobs=2",
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let daemon = Daemon(child);
    wait_for_socket(socket);
    daemon
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

fn query(socket: &Path, extra: &[&str]) -> (bool, String) {
    let out = vpoc()
        .args(["query", &format!("--socket={}", socket.display())])
        .args(extra)
        .output()
        .unwrap();
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

/// Names of the served functions, via `query --list`.
fn list_names(socket: &Path) -> Vec<String> {
    let (ok, text) = query(socket, &["--list"]);
    assert!(ok, "--list failed:\n{text}");
    text.lines().filter_map(|l| l.split_whitespace().next()).map(str::to_owned).collect()
}

/// A counter or gauge out of `query --telemetry`'s snapshot JSON.
fn metric(json: &str, name: &str) -> u64 {
    let needle = format!("\"name\": \"{name}\", ");
    let line = json
        .lines()
        .find(|l| l.contains(&needle))
        .unwrap_or_else(|| panic!("no metric `{name}` in telemetry:\n{json}"));
    let v = line.split("\"value\": ").nth(1).unwrap();
    v.chars().take_while(|c| c.is_ascii_digit()).collect::<String>().parse().unwrap()
}

/// Re-queries every function until none reports a resumable frontier.
fn deplete(socket: &Path, names: &[String]) {
    for name in names {
        for round in 0..200 {
            let (ok, text) = query(socket, &[name]);
            assert!(ok, "query {name} failed:\n{text}");
            if !text.contains("suspended at level") {
                break;
            }
            assert!(round < 199, "{name} never completed under repeated queries");
        }
    }
}

#[test]
fn daemon_depletes_cold_queries_matches_campaign_and_survives_sigkill() {
    let dir = tmp_dir("smoke");
    let store = dir.join("daemon.store");
    let socket = dir.join("vpod.sock");
    let reference = dir.join("reference.store");
    for p in [&store, &socket, &reference] {
        std::fs::remove_file(p).ok();
    }

    // The ground truth: one uncapped campaign over the same tasks.
    let out = vpoc()
        .args([
            "campaign",
            "--bench",
            BENCH,
            &format!("--store={}", reference.display()),
            &format!("--max-nodes={MAX_NODES}"),
            "--jobs=2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "campaign failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let campaign_stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let want = std::fs::read(&reference).unwrap();

    let mut daemon = spawn_daemon(&store, &socket, &[]);
    let names = list_names(&socket);
    assert!(!names.is_empty(), "daemon serves no functions");
    assert!(names.iter().all(|n| n.starts_with("bitcount::")), "{names:?}");

    // A cold query under a tiny budget answers best-so-far + frontier.
    let (ok, first) = query(&socket, &[&names[0], "--budget=1"]);
    assert!(ok, "{first}");
    assert!(first.contains("cold:"), "first query must be cold:\n{first}");

    // Strictly deepen everything to terminal records.
    deplete(&socket, &names);
    assert_eq!(
        std::fs::read(&store).unwrap(),
        want,
        "depleted daemon store differs from the uncapped campaign's"
    );

    // Every shard flush counts in the campaign's store metrics: one
    // startup flush of the single shard, then one per cold run.
    let (ok, json) = query(&socket, &["--telemetry"]);
    assert!(ok, "{json}");
    let cold_runs = metric(&json, "serve.cold_runs");
    assert!(cold_runs > 1, "depletion takes several cold runs:\n{json}");
    assert_eq!(metric(&json, "campaign.store_flushes"), 1 + cold_runs, "{json}");
    assert_eq!(metric(&json, "campaign.store_bytes"), want.len() as u64, "{json}");

    // Warm re-query: answered from the memo, and the Table-3 row is the
    // same line the campaign report printed for that function.
    let (ok, warm) = query(&socket, &[&names[0]]);
    assert!(ok, "{warm}");
    assert!(warm.contains("warm:"), "re-query must be warm:\n{warm}");
    let row = warm
        .lines()
        .find(|l| l.starts_with(&names[0]))
        .expect("warm answer renders the Table-3 row");
    assert!(
        campaign_stdout.contains(row.trim_end()),
        "daemon row not in campaign report:\nrow: {row}\nreport:\n{campaign_stdout}"
    );

    // SIGKILL the daemon mid-service; the socket file is left behind.
    daemon.kill().unwrap();
    daemon.wait().unwrap();
    assert!(socket.exists(), "SIGKILL must leave the stale socket behind");

    // Restart on the same socket and store: warm answers survive, no
    // enumeration re-runs, and the store bytes are untouched.
    let mut daemon = spawn_daemon(&store, &socket, &[]);
    let (ok, revived) = query(&socket, &[&names[0]]);
    assert!(ok, "{revived}");
    assert!(revived.contains("warm:"), "restarted daemon must answer warm:\n{revived}");
    assert_eq!(std::fs::read(&store).unwrap(), want, "restart must not disturb the store");

    // Graceful shutdown via the protocol: exit code 0, socket removed.
    let (ok, bye) = query(&socket, &["--shutdown"]);
    assert!(ok, "{bye}");
    assert!(bye.contains("shutting down"), "{bye}");
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon must exit 0 on shutdown, got {status:?}");
    assert!(!socket.exists(), "graceful shutdown must remove the socket file");
}

#[test]
fn daemon_exits_cleanly_on_sigterm() {
    let dir = tmp_dir("sigterm");
    let store = dir.join("daemon.store");
    let socket = dir.join("vpod.sock");
    for p in [&store, &socket] {
        std::fs::remove_file(p).ok();
    }

    let mut daemon = spawn_daemon(&store, &socket, &[]);
    daemon.terminate();
    let status = daemon.exit_within(Duration::from_secs(30)).expect("daemon ignored SIGTERM");
    assert!(status.success(), "SIGTERM must exit 0, got {status:?}");
    assert!(!socket.exists(), "SIGTERM drain must remove the socket file");
    assert!(store.exists(), "the store must be flushed at startup");
}

#[test]
fn an_idle_connection_does_not_stall_the_sigterm_drain() {
    let dir = tmp_dir("idle_drain");
    let store = dir.join("daemon.store");
    let socket = dir.join("vpod.sock");
    for p in [&store, &socket] {
        std::fs::remove_file(p).ok();
    }

    let mut daemon = spawn_daemon(&store, &socket, &[]);
    // A client that connects and never sends its request frame.
    let mut idle = UnixStream::connect(&socket).unwrap();
    std::thread::sleep(Duration::from_millis(200)); // let a worker take it
    daemon.terminate();
    let status = daemon.exit_within(READ_DEADLINE + MARGIN);
    assert!(
        status.is_some_and(|s| s.success()),
        "an idle client must not hold the drain past the read deadline: {status:?}"
    );
    assert!(!socket.exists(), "SIGTERM drain must remove the socket file");
    // The timed-out read was answered like any other frame error.
    let reply = Response::from_bytes(&read_frame(&mut idle).unwrap()).unwrap();
    assert!(matches!(reply, Response::Error { .. }), "{reply:?}");
}

#[test]
fn idle_connections_on_every_worker_do_not_starve_warm_queries() {
    let dir = tmp_dir("idle_pool");
    let store = dir.join("daemon.store");
    let socket = dir.join("vpod.sock");
    for p in [&store, &socket] {
        std::fs::remove_file(p).ok();
    }

    // `(max_active + max_queue + 4).max(8)` = 8 workers.
    let mut daemon = spawn_daemon(&store, &socket, &["--max-active=1", "--max-queue=0"]);
    let names = list_names(&socket);
    let (ok, cold) = query(&socket, &[&names[0], "--budget=100000"]);
    assert!(ok && cold.contains("cold:") && !cold.contains("suspended at level"), "{cold}");

    // One idle connection per worker, then a warm query behind them.
    let idle: Vec<UnixStream> = (0..8).map(|_| UnixStream::connect(&socket).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(200)); // let the workers take them
    let limit = READ_DEADLINE + MARGIN;
    let started = Instant::now();
    let (ok, warm) = query(&socket, &[&names[0], &format!("--timeout={}", limit.as_millis())]);
    assert!(ok && warm.contains("warm:"), "warm query starved behind idle clients:\n{warm}");
    assert!(started.elapsed() < limit, "warm query took {:?}", started.elapsed());
    drop(idle);

    let (ok, bye) = query(&socket, &["--shutdown"]);
    assert!(ok, "{bye}");
    assert!(daemon.wait().unwrap().success());
}

#[test]
fn sharded_daemon_adopts_a_legacy_single_store() {
    let dir = tmp_dir("legacy");
    let store = dir.join("legacy.store");
    let socket = dir.join("vpod.sock");
    for k in 0..4 {
        std::fs::remove_file(shard_path(&store, k, 4)).ok();
    }
    std::fs::remove_file(&socket).ok();
    campaign_store(&store, &["--bench", BENCH]);

    // Every function is answered from the adopted records: no cold run.
    let mut daemon = spawn_daemon(&store, &socket, &["--shards=4"]);
    for name in list_names(&socket) {
        let (ok, text) = query(&socket, &[&name]);
        assert!(ok && text.contains("warm:"), "{name} must be warm:\n{text}");
    }
    let (ok, json) = query(&socket, &["--telemetry"]);
    assert!(ok, "{json}");
    assert_eq!(metric(&json, "serve.cold_runs"), 0, "{json}");
    let (ok, bye) = query(&socket, &["--shutdown"]);
    assert!(ok, "{bye}");
    assert!(daemon.wait().unwrap().success());

    // The startup flush re-homed every record to its shard.
    let by_name = |mut records: Vec<FunctionRecord>| {
        records.sort_by(|a, b| a.name.cmp(&b.name));
        records
    };
    let base = ResultStore::load(&store).unwrap().records;
    let sharded: Vec<_> = (0..4)
        .flat_map(|k| ResultStore::load(&shard_path(&store, k, 4)).unwrap().records)
        .collect();
    assert_eq!(by_name(sharded), by_name(base), "shard records differ from the legacy store's");
}

#[test]
fn query_without_a_daemon_is_a_clean_error() {
    let dir = tmp_dir("noserver");
    let socket = dir.join("absent.sock");
    std::fs::remove_file(&socket).ok();
    let (ok, text) = query(&socket, &["bitcount::main"]);
    assert!(!ok, "query against no daemon must fail");
    assert!(text.contains("is `vpoc serve` running?"), "{text}");
}

/// Writes a store with `vpoc campaign` over `args`, at `MAX_NODES`.
fn campaign_store(store: &Path, args: &[&str]) {
    std::fs::remove_file(store).ok();
    let out = vpoc()
        .arg("campaign")
        .args(args)
        .args([&format!("--store={}", store.display()), &format!("--max-nodes={MAX_NODES}")])
        .output()
        .unwrap();
    assert!(out.status.success(), "campaign failed:\n{}", String::from_utf8_lossy(&out.stderr));
}

/// Starts `vpoc serve` over `args` on `store`, which it must refuse at
/// startup: it exits nonzero, opens no socket and leaves the store's
/// bytes alone. Returns its stderr.
fn serve_refuses(store: &Path, socket: &Path, args: &[&str]) -> String {
    use std::io::Read as _;
    std::fs::remove_file(socket).ok();
    let before = std::fs::read(store).unwrap();
    let child = vpoc()
        .arg("serve")
        .args(args)
        .args([
            &format!("--store={}", store.display()),
            &format!("--socket={}", socket.display()),
            &format!("--max-nodes={MAX_NODES}"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut daemon = Daemon(child);
    let status = daemon
        .exit_within(Duration::from_secs(30))
        .expect("daemon did not refuse the store within 30s");
    let mut stderr = String::new();
    daemon.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(!status.success(), "serve must refuse the store:\n{stderr}");
    assert!(!socket.exists(), "a refused store must leave no socket:\n{stderr}");
    assert_eq!(std::fs::read(store).unwrap(), before, "a refused store must stay untouched");
    stderr
}

#[test]
fn daemon_refuses_a_store_of_another_merge_tier() {
    let dir = tmp_dir("tier");
    let (store, socket) = (dir.join("pruned.store"), dir.join("vpod.sock"));
    campaign_store(&store, &["--bench", BENCH, "--merge-tier", "semantic-pruned"]);
    let stderr = serve_refuses(&store, &socket, &["--bench", BENCH, "--merge-tier", "semantic"]);
    assert!(stderr.contains("store config mismatch"), "{stderr}");
}

#[test]
fn daemon_refuses_a_store_recording_foreign_functions() {
    let dir = tmp_dir("foreign");
    let (store, socket) = (dir.join("bitcount.store"), dir.join("vpod.sock"));
    campaign_store(&store, &["--bench", BENCH]);
    let stderr = serve_refuses(&store, &socket, &["--bench", "sha"]);
    assert!(stderr.contains("`bitcount::bit_count`"), "{stderr}");
    assert!(stderr.contains(&store.display().to_string()), "{stderr}");
}
