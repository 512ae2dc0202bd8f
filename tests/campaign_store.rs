//! Campaign persistence, end to end through the facade: the on-disk
//! result store round-trips losslessly, rejects damage, and an
//! interrupted-then-resumed campaign over a real MiBench program
//! converges on bytes identical to an uninterrupted run's.

use std::path::PathBuf;
use std::sync::Arc;

use exhaustive_phase_order as epo;

use epo::explore::campaign::store::{ResultStore, StoreError};
use epo::explore::campaign::{self, CampaignConfig, FunctionTask, NullObserver};
use epo::explore::semantic::SemanticConfig;
use epo::explore::tmp_dir::TmpDir;
use epo::explore::Config;
use epo::opt::Target;

/// Every function of the suite's smallest program, under a node cap that
/// keeps each space a sub-second search.
fn bitcount_tasks() -> Vec<FunctionTask> {
    let b = epo::benchmarks::find("bitcount").expect("bitcount is in the suite");
    b.compile()
        .unwrap()
        .functions
        .into_iter()
        .map(|f| FunctionTask { name: format!("bitcount::{}", f.name), func: f, program: None })
        .collect()
}

fn config() -> CampaignConfig {
    CampaignConfig {
        enumerate: Config { max_nodes: 400, ..Config::default() },
        jobs: 2,
        ..CampaignConfig::default()
    }
}

/// A scratch directory for one store, removed when the guard drops, and
/// the store path in it.
fn tmp(tag: &str) -> (TmpDir, PathBuf) {
    let dir = TmpDir::new(&format!("epo_campaign_{}_{tag}", std::process::id()));
    let path = dir.join("campaign.store");
    (dir, path)
}

#[test]
fn store_round_trips_through_disk() {
    let (_dir, path) = tmp("roundtrip");
    std::fs::remove_file(&path).ok();
    let summary =
        campaign::run(bitcount_tasks(), &Target::default(), Some(&path), &config(), &NullObserver)
            .unwrap();
    assert!(summary.records.len() >= 3, "bitcount should hold several functions");

    let bytes = std::fs::read(&path).unwrap();
    let store = ResultStore::from_bytes(&bytes).unwrap();
    assert_eq!(store.records, summary.records, "disk records match the summary");
    assert_eq!(store.to_bytes(), bytes, "re-encoding is byte-stable");
    std::fs::remove_file(&path).ok();
}

#[test]
fn damaged_stores_are_rejected() {
    let (_dir, path) = tmp("damage");
    std::fs::remove_file(&path).ok();
    campaign::run(bitcount_tasks(), &Target::default(), Some(&path), &config(), &NullObserver)
        .unwrap();
    let good = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Truncation at any point is caught.
    for cut in [0, 1, good.len() / 2, good.len() - 1] {
        assert!(
            matches!(ResultStore::from_bytes(&good[..cut]), Err(StoreError::Corrupt(_))),
            "truncation to {cut} bytes must be rejected"
        );
    }
    // A flipped payload bit fails the record CRC.
    let mut flipped = good.clone();
    let target = good.len() - 9;
    flipped[target] ^= 0x40;
    assert!(
        matches!(ResultStore::from_bytes(&flipped), Err(StoreError::Corrupt(_))),
        "bit flip at {target} must be rejected"
    );
}

/// Same tasks with the program attached, for semantic-tier campaigns.
fn bitcount_semantic_tasks() -> Vec<FunctionTask> {
    let program = Arc::new(
        epo::benchmarks::find("bitcount").expect("bitcount is in the suite").compile().unwrap(),
    );
    program
        .functions
        .iter()
        .map(|f| FunctionTask {
            name: format!("bitcount::{}", f.name),
            func: f.clone(),
            program: Some(Arc::clone(&program)),
        })
        .collect()
}

#[test]
fn interrupted_campaign_resumes_to_identical_bytes() {
    let target = Target::default();
    let tasks = bitcount_tasks();
    let total = tasks.len();

    let (_dir, reference) = tmp("reference");
    std::fs::remove_file(&reference).ok();
    campaign::run(tasks.clone(), &target, Some(&reference), &config(), &NullObserver).unwrap();
    let want = std::fs::read(&reference).unwrap();
    std::fs::remove_file(&reference).ok();

    // Kill after 1 function, after half, and one short of done — resuming
    // must always converge on the reference bytes, serial or parallel.
    for cut in [1, total / 2, total - 1] {
        for jobs in [1usize, 4] {
            let (_dir, path) = tmp(&format!("cut{cut}_j{jobs}"));
            std::fs::remove_file(&path).ok();
            let interrupted = CampaignConfig { jobs, stop_after: Some(cut), ..config() };
            let s1 =
                campaign::run(tasks.clone(), &target, Some(&path), &interrupted, &NullObserver)
                    .unwrap();
            assert!(s1.interrupted);
            assert_eq!(s1.explored, cut);

            let resume = CampaignConfig { jobs, resume: true, ..config() };
            let s2 =
                campaign::run(tasks.clone(), &target, Some(&path), &resume, &NullObserver).unwrap();
            assert_eq!(s2.resumed, cut);
            assert_eq!(s2.explored, total - cut);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                want,
                "cut={cut} jobs={jobs}: resumed store differs from uninterrupted reference"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

/// The semantic merge tier through the campaign driver: the store is
/// byte-identical for any worker count, the semantic counters survive
/// the disk round trip, and killing the campaign at every checkpoint
/// boundary then resuming converges on the uninterrupted bytes — the
/// `--merge-tier semantic` analogue of the fingerprint resume test.
#[test]
fn semantic_campaign_resumes_to_identical_bytes_across_job_counts() {
    let target = Target::default();
    let tasks = bitcount_semantic_tasks();
    let total = tasks.len();
    let sem_config = || CampaignConfig {
        semantic: Some(SemanticConfig { battery: 2, ..SemanticConfig::default() }),
        ..config()
    };

    let (_dir, reference) = tmp("sem_reference");
    std::fs::remove_file(&reference).ok();
    campaign::run(tasks.clone(), &target, Some(&reference), &sem_config(), &NullObserver).unwrap();
    let want = std::fs::read(&reference).unwrap();
    std::fs::remove_file(&reference).ok();

    // The tier actually merged something, and the counters round-trip.
    let store = ResultStore::from_bytes(&want).unwrap();
    let merges: u64 = store.records.iter().map(|r| r.sem_merges).sum();
    assert!(merges > 0, "semantic campaign recorded no merges");
    assert!(store.records.iter().all(|r| r.sem_collisions == 0));

    // Any worker count produces the same bytes.
    for jobs in [0usize, 2, 8] {
        let (_dir, path) = tmp(&format!("sem_j{jobs}"));
        std::fs::remove_file(&path).ok();
        let c = CampaignConfig { jobs, ..sem_config() };
        campaign::run(tasks.clone(), &target, Some(&path), &c, &NullObserver).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            want,
            "jobs={jobs}: semantic store differs across worker counts"
        );
        std::fs::remove_file(&path).ok();
    }

    // Kill at every checkpoint boundary, then resume.
    for cut in 1..total {
        let (_dir, path) = tmp(&format!("sem_cut{cut}"));
        std::fs::remove_file(&path).ok();
        let interrupted = CampaignConfig { stop_after: Some(cut), ..sem_config() };
        let s1 = campaign::run(tasks.clone(), &target, Some(&path), &interrupted, &NullObserver)
            .unwrap();
        assert!(s1.interrupted);

        let resume = CampaignConfig { resume: true, ..sem_config() };
        let s2 =
            campaign::run(tasks.clone(), &target, Some(&path), &resume, &NullObserver).unwrap();
        assert_eq!(s2.resumed, cut);
        assert_eq!(s2.explored, total - cut);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            want,
            "cut={cut}: resumed semantic store differs from uninterrupted reference"
        );
        std::fs::remove_file(&path).ok();
    }
}
