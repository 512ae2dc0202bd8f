//! End-to-end daemon acceptance, against the real binary: start `vpoc
//! serve`, drive a cold function to completion with small per-request
//! budgets, check the finished store is byte-identical to a direct
//! uncapped `vpoc campaign`, SIGKILL the daemon, restart it on the same
//! socket and store, and confirm warm answers survive the crash.

#![cfg(unix)]

mod common;

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use common::Daemon;
use phase_order::tmp_dir::TmpDir;

const BENCH: &str = "bitcount";
const MAX_NODES: &str = "400";

fn vpoc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vpoc"))
}

fn tmp_dir(tag: &str) -> TmpDir {
    TmpDir::new(&format!("vpoc_serve_{}_{tag}", std::process::id()))
}

fn spawn_daemon(store: &Path, socket: &Path) -> Daemon {
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

    let mut daemon = spawn_daemon(&store, &socket);
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
    let mut daemon = spawn_daemon(&store, &socket);
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

    let mut daemon = spawn_daemon(&store, &socket);
    let term = Command::new("kill").args(["-TERM", &daemon.id().to_string()]).status().unwrap();
    assert!(term.success());
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            assert!(status.success(), "SIGTERM must exit 0, got {status:?}");
            break;
        }
        assert!(Instant::now() < deadline, "daemon ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!socket.exists(), "SIGTERM drain must remove the socket file");
    assert!(store.exists(), "the store must be flushed at startup");
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
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon did not refuse the store within 30s");
        std::thread::sleep(Duration::from_millis(20));
    };
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
