//! `--merge-tier` and the simulation battery through the real binary:
//! `explore` reports both DAG sizes and the collapse factor, `verify`
//! re-validates semantic merge edges in paranoid mode, `dot` renders the
//! semantic edges dashed, `campaign` persists the semantic counters, a
//! bogus tier name is rejected with a usable message, and so are an
//! empty battery and the retired `--sim-engine` flag.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use phase_order::campaign::store::ResultStore;
use phase_order::tmp_dir::TmpDir;

fn vpoc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vpoc"))
}

/// A scratch directory for one test, removed when the guard drops.
fn tmp_dir(tag: &str) -> TmpDir {
    TmpDir::new(&format!("vpoc_cli_semantic_{}_{tag}", std::process::id()))
}

/// Writes the bitcount kernel source to a `.mc` file in `dir` —
/// `explore` and `dot` take files, not `--bench` names.
fn bitcount_mc(dir: &Path) -> PathBuf {
    let file = dir.join("bitcount.mc");
    std::fs::write(&file, mibench::find("bitcount").unwrap().source).unwrap();
    file
}

fn run_ok(args: &[&str]) -> Output {
    let out = vpoc().args(args).output().unwrap();
    assert!(
        out.status.success(),
        "vpoc {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn explore_reports_both_dag_sizes_under_the_semantic_tier() {
    let dir = tmp_dir("explore");
    let file = bitcount_mc(&dir);
    let path = file.to_str().unwrap();

    let fp = run_ok(&["explore", path, "bit_count"]);
    let fp_out = String::from_utf8_lossy(&fp.stdout).into_owned();
    assert!(!fp_out.contains("semantic:"), "fingerprint tier printed a quotient line:\n{fp_out}");

    let sem = run_ok(&["explore", path, "bit_count", "--merge-tier", "semantic"]);
    let sem_out = String::from_utf8_lossy(&sem.stdout).into_owned();
    let line = sem_out
        .lines()
        .find(|l| l.trim_start().starts_with("semantic:"))
        .unwrap_or_else(|| panic!("no quotient line under --merge-tier semantic:\n{sem_out}"));
    assert!(line.contains("distinct instances"), "{line}");
    assert!(line.contains("fingerprint"), "{line}");
    assert!(line.contains("collapse"), "{line}");
    assert!(line.contains("sem merges"), "{line}");
    // Both tiers print the identical Table-3 row — the semantic tier
    // annotates the same space.
    let row = |s: &str| {
        s.lines().find(|l| l.contains("bit_count")).map(str::to_owned).expect("Table-3 row")
    };
    assert_eq!(row(&fp_out), row(&sem_out), "tiers disagree on the fingerprint row");
}

/// Runs `vpoc args`, demanding a nonzero exit, and returns its stderr.
fn run_err(args: &[&str]) -> String {
    let out = vpoc().args(args).output().unwrap();
    assert!(!out.status.success(), "vpoc {args:?} unexpectedly succeeded");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn verify_revalidates_semantic_merges_paranoid() {
    let out = run_ok(&[
        "verify",
        "--bench",
        "bitcount",
        "bit_count",
        "--merge-tier",
        "semantic",
        "--paranoid",
        "--battery=2",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok"), "verification not clean:\n{stdout}");
    assert!(stdout.contains("semantic)"), "no semantic paths re-validated:\n{stdout}");
}

#[test]
fn dot_renders_semantic_edges_dashed() {
    let dir = tmp_dir("dot");
    let file = bitcount_mc(&dir);
    let path = file.to_str().unwrap();
    let fp = run_ok(&["dot", path, "bit_count"]);
    assert!(!String::from_utf8_lossy(&fp.stdout).contains("style=dashed"));
    let sem = run_ok(&["dot", path, "bit_count", "--merge-tier", "semantic"]);
    let dot = String::from_utf8_lossy(&sem.stdout);
    assert!(dot.contains("digraph"), "not a DOT document:\n{dot}");
    assert!(dot.contains("style=dashed"), "semantic edges missing from DOT:\n{dot}");
}

#[test]
fn campaign_persists_semantic_counters() {
    let dir = tmp_dir("campaign");
    let store = dir.join("semantic.store");
    std::fs::remove_file(&store).ok();
    run_ok(&[
        "campaign",
        "--bench",
        "bitcount",
        &format!("--store={}", store.display()),
        "--max-nodes=400",
        "--merge-tier",
        "semantic",
        "--paranoid",
    ]);
    let parsed = ResultStore::from_bytes(&std::fs::read(&store).unwrap()).unwrap();
    let merges: u64 = parsed.records.iter().map(|r| r.sem_merges).sum();
    assert!(merges > 0, "semantic campaign recorded no merges");
    assert!(parsed.records.iter().all(|r| r.sem_collisions == 0), "paranoid refuted a merge");
}

#[test]
fn unknown_merge_tier_is_rejected() {
    let dir = tmp_dir("tier");
    let file = bitcount_mc(&dir);
    let out = vpoc()
        .args(["explore", file.to_str().unwrap(), "--merge-tier", "syntactic"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "bogus tier accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fingerprint") && stderr.contains("semantic"),
        "error message does not name the valid tiers:\n{stderr}"
    );
}

/// An empty battery simulates nothing, so every check would pass
/// vacuously: `verify` and `audit-quotient` must refuse it at the
/// default (fingerprint) tier too, not only under `--merge-tier semantic`.
#[test]
fn empty_battery_is_rejected() {
    for cmd in ["verify", "audit-quotient"] {
        let stderr = run_err(&[cmd, "--bench", "bitcount", "bit_count", "--battery", "0"]);
        assert!(stderr.contains("battery"), "{cmd}: error does not name the battery:\n{stderr}");
    }
}

/// The simulator engine is not a user option: the reference
/// interpreter lives only in the test suite.
#[test]
fn sim_engine_flag_is_unknown() {
    let dir = tmp_dir("sim_engine");
    let file = bitcount_mc(&dir);
    let path = file.to_str().unwrap();
    for args in [
        vec!["verify", "--bench", "bitcount", "bit_count", "--sim-engine=both"],
        vec!["verify", "--bench", "bitcount", "bit_count", "--sim-engine", "interp"],
        vec!["run", path, "bit_count", "7", "--sim-engine=interp"],
    ] {
        let stderr = run_err(&args);
        assert!(stderr.contains("unknown flag `--sim-engine"), "{args:?}:\n{stderr}");
    }
}
