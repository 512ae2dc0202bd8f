//! The `vpoc campaign` acceptance criterion, against the real binary: a
//! campaign killed mid-run (actual SIGKILL, arbitrary timing) and re-run
//! with `--resume` produces a store byte-identical to an uninterrupted
//! run's, for both `--jobs 1` and `--jobs 4`.
//!
//! The store's atomic rewrite-per-checkpoint design makes this robust at
//! *any* kill point: partial writes only ever hit the temp sibling, so
//! whatever survives is a valid store holding a completed subset, and the
//! final bytes are independent of where the run stopped.

use std::path::{Path, PathBuf};
use std::process::Command;

use phase_order::tmp_dir::TmpDir;

const BENCH: &str = "bitcount";
const MAX_NODES: &str = "400";

fn vpoc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vpoc"))
}

fn campaign_args(store: &Path, jobs: usize) -> Vec<String> {
    vec![
        "campaign".into(),
        "--bench".into(),
        BENCH.into(),
        format!("--store={}", store.display()),
        format!("--jobs={jobs}"),
        format!("--max-nodes={MAX_NODES}"),
    ]
}

/// A scratch directory for one store, removed when the guard drops, and
/// the store path in it.
fn tmp(tag: &str) -> (TmpDir, PathBuf) {
    let dir = TmpDir::new(&format!("vpoc_cli_campaign_{}_{tag}", std::process::id()));
    let path = dir.join("campaign.store");
    (dir, path)
}

fn run_to_completion(store: &Path, jobs: usize) {
    std::fs::remove_file(store).ok();
    let out = vpoc().args(campaign_args(store, jobs)).output().unwrap();
    assert!(out.status.success(), "campaign failed:\n{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn killed_campaign_resumes_to_identical_store() {
    let (_dir, reference) = tmp("reference");
    run_to_completion(&reference, 2);
    let want = std::fs::read(&reference).unwrap();
    std::fs::remove_file(&reference).ok();

    for jobs in [1usize, 4] {
        let (_dir, store) = tmp(&format!("kill_j{jobs}"));
        std::fs::remove_file(&store).ok();

        // Kill the campaign at a few arbitrary points in its run. Some
        // attempts may land before the first checkpoint (no store yet) or
        // after the last (campaign already done) — both are fine; the
        // point is that *wherever* SIGKILL lands, resume converges.
        for attempt in 0..4u64 {
            let mut child = vpoc()
                .args(campaign_args(&store, jobs))
                .arg("--resume")
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .unwrap();
            std::thread::sleep(std::time::Duration::from_millis(20 + 60 * attempt));
            child.kill().ok(); // SIGKILL; a no-op if it already exited
            child.wait().unwrap();
        }

        // Whatever survived the kills, one resumed run finishes the job.
        let out = vpoc().args(campaign_args(&store, jobs)).arg("--resume").output().unwrap();
        assert!(
            out.status.success(),
            "resume failed (jobs={jobs}):\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            std::fs::read(&store).unwrap(),
            want,
            "jobs={jobs}: killed-and-resumed store differs from uninterrupted run"
        );
        std::fs::remove_file(&store).ok();
    }
}

#[test]
fn campaign_reports_an_aggregate_table() {
    let (_dir, store) = tmp("table");
    std::fs::remove_file(&store).ok();
    let out = vpoc().args(campaign_args(&store, 2)).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Function"), "missing Table-3 header:\n{stdout}");
    assert!(stdout.contains("bitcount::"), "missing qualified rows:\n{stdout}");
    assert!(stdout.contains("function(s) recorded"), "missing aggregate footer:\n{stdout}");
    std::fs::remove_file(&store).ok();
}
