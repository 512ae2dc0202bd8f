//! The semantic tiers under any job count: a campaign's store bytes and
//! every deterministic telemetry counter — `sim.batched_retires`, the
//! simulator work of signing, included — are the same at jobs 0, 2 and
//! 8. Signing runs on the worker pool, so a job-count-dependent number
//! of simulations (two workers both signing one identity, say) would
//! show here first. A node cap cuts a level's merge short; the sign
//! stage must stop exactly where that merge does.
//!
//! The telemetry registry is process-global, so this file holds a single
//! test: no other search runs between a reset and its snapshot.

use std::path::PathBuf;
use std::sync::Arc;

use phase_order::campaign::{run, CampaignConfig, FunctionTask, NullObserver};
use phase_order::tmp_dir::TmpDir;
use phase_order::{telemetry, Config, SemanticConfig};
use vpo_opt::Target;

/// `bitcount`'s nine counting loops, and `stringsearch`, whose searches
/// run long battery simulations over global tables.
const BENCHES: &[&str] = &["bitcount", "stringsearch"];

fn tasks(bench: &str) -> Vec<FunctionTask> {
    let program = Arc::new(mibench::find(bench).unwrap().compile().unwrap());
    program
        .functions
        .iter()
        .map(|f| FunctionTask {
            name: format!("{bench}::{}", f.name),
            func: f.clone(),
            program: Some(Arc::clone(&program)),
        })
        .collect()
}

/// A scratch directory for one store, removed when the guard drops, and
/// the (absent) store path in it.
fn tmp_store(tag: &str) -> (TmpDir, PathBuf) {
    let dir = TmpDir::new(&format!("vpoc_sign_stage_{}_{tag}", std::process::id()));
    let path = dir.join("campaign.store");
    std::fs::remove_file(&path).ok();
    (dir, path)
}

/// Runs one campaign from a zeroed registry; returns its store bytes
/// and every deterministic counter it left behind.
fn campaign(bench: &str, config: &CampaignConfig, tag: &str) -> (Vec<u8>, Vec<(String, u64)>) {
    let (_dir, path) = tmp_store(tag);
    let tm = telemetry::global();
    tm.reset();
    run(tasks(bench), &Target::default(), Some(&path), config, &NullObserver).unwrap();
    let counters = tm
        .snapshot()
        .deterministic_values()
        .into_iter()
        .map(|(name, v)| (name.to_owned(), v))
        .collect();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (bytes, counters)
}

/// Asserts that campaigns under `config` at jobs 2 and 8 leave the serial
/// run's store bytes and deterministic counters.
fn assert_job_count_invariant(bench: &str, what: &str, config: impl Fn(usize) -> CampaignConfig) {
    let (want_bytes, want_counters) = campaign(bench, &config(0), "serial");
    let retires = want_counters.iter().find(|(n, _)| n == "sim.batched_retires");
    assert!(retires.is_some_and(|&(_, v)| v > 0), "{bench} {what}: signing simulated");
    for jobs in [2usize, 8] {
        let (bytes, counters) = campaign(bench, &config(jobs), &format!("jobs{jobs}"));
        assert!(bytes == want_bytes, "{bench} {what} jobs {jobs}: store bytes differ");
        assert_eq!(counters.len(), want_counters.len());
        for ((name, want), (got_name, got)) in want_counters.iter().zip(&counters) {
            assert_eq!(name, got_name);
            assert_eq!(
                got, want,
                "{bench} {what} jobs {jobs}: deterministic counter `{name}` differs from the \
                 serial run"
            );
        }
    }
}

#[test]
fn semantic_campaigns_are_job_count_invariant_in_bytes_and_counters() {
    // Uncapped, and capped in the middle of a level of bitcount's larger
    // spaces.
    for max_nodes in [Config::default().max_nodes, 30] {
        for (tier, sem_pruned) in [("semantic", false), ("semantic-pruned", true)] {
            for bench in BENCHES {
                let config = |jobs| CampaignConfig {
                    enumerate: Config { max_nodes, ..Config::default() },
                    jobs,
                    semantic: Some(SemanticConfig::default()),
                    sem_pruned,
                    ..CampaignConfig::default()
                };
                assert_job_count_invariant(bench, &format!("{tier} max_nodes {max_nodes}"), config);
            }
        }
    }
}
