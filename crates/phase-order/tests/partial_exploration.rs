//! Partial-exploration acceptance: a budget-capped campaign plus N
//! resume sessions is byte-identical to a single uncapped run — for
//! serial and parallel pools, for both merge tiers — and the node
//! counters prove that no stored prefix is ever re-expanded (each
//! distinct instance is expanded exactly once over a function's
//! lifetime, however many sessions that spans).

use std::path::PathBuf;
use std::sync::Arc;

use phase_order::campaign::store::ResultStore;
use phase_order::campaign::{run, CampaignConfig, FunctionTask, NullObserver};
use phase_order::enumerate::Config;
use phase_order::tmp_dir::TmpDir;
use phase_order::SemanticConfig;
use vpo_opt::Target;

const SOURCE: &str = r#"
    int add(int a, int b) { return a + b + a; }
    int tri(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i; return s; }
    int pick(int a, int b) { if (a > b) return a - b; return b - a; }
"#;

/// The two loop-free functions only: big enough to outlast a small
/// budget, small enough for the paranoid semantic battery to stay fast.
const SMALL_SOURCE: &str = r#"
    int add(int a, int b) { return a + b + a; }
    int pick(int a, int b) { if (a > b) return a - b; return b - a; }
"#;

fn tasks_from(src: &str) -> Vec<FunctionTask> {
    let program = Arc::new(vpo_frontend::compile(src).unwrap());
    program
        .functions
        .iter()
        .map(|f| FunctionTask {
            name: f.name.clone(),
            func: f.clone(),
            program: Some(Arc::clone(&program)),
        })
        .collect()
}

fn tasks() -> Vec<FunctionTask> {
    tasks_from(SOURCE)
}

/// A scratch directory for one store, removed when the guard drops, and
/// the store path in it.
fn tmp_store(tag: &str) -> (TmpDir, PathBuf) {
    let dir = TmpDir::new(&format!("vpoc_partial_{}_{tag}", std::process::id()));
    let path = dir.join("campaign.store");
    (dir, path)
}

/// Runs budget-capped sessions (first fresh, then `--resume`) until the
/// store holds no resumable record, returning (bytes, total expanded,
/// sessions).
fn deplete(
    path: &PathBuf,
    base: &CampaignConfig,
    budget: u64,
    make: fn() -> Vec<FunctionTask>,
) -> (Vec<u8>, u64, usize) {
    std::fs::remove_file(path).ok();
    let target = Target::default();
    let total_tasks = make().len();
    let mut expanded = 0u64;
    let mut sessions = 0usize;
    loop {
        let config = CampaignConfig { budget: Some(budget), resume: path.exists(), ..base.clone() };
        let s = run(make(), &target, Some(path), &config, &NullObserver).unwrap();
        expanded += s.expanded;
        sessions += 1;
        assert!(sessions < 500, "budgeted sessions must converge");
        let done = s.records.len() == total_tasks && s.records.iter().all(|r| !r.is_resumable());
        if done {
            break;
        }
    }
    (std::fs::read(path).unwrap(), expanded, sessions)
}

#[test]
fn budgeted_sessions_match_uncapped_for_all_job_counts() {
    let target = Target::default();
    let (_dir, reference) = tmp_store("fp_reference");
    std::fs::remove_file(&reference).ok();
    let full = run(
        tasks(),
        &target,
        Some(&reference),
        &CampaignConfig { jobs: 2, ..CampaignConfig::default() },
        &NullObserver,
    )
    .unwrap();
    let want = std::fs::read(&reference).unwrap();
    std::fs::remove_file(&reference).ok();
    let total_nodes: u64 = full.records.iter().map(|r| r.fn_instances).sum();
    assert_eq!(full.expanded, total_nodes, "uncapped run expands each instance exactly once");

    for jobs in [0usize, 2, 8] {
        let (_dir, path) = tmp_store(&format!("fp_j{jobs}"));
        let base = CampaignConfig { jobs, ..CampaignConfig::default() };
        let (bytes, expanded, sessions) = deplete(&path, &base, 2, tasks);
        assert!(sessions > 1, "jobs={jobs}: a budget of 2 must force suspension");
        assert_eq!(
            expanded, total_nodes,
            "jobs={jobs}: sessions together must expand each instance exactly once \
             (more would mean a stored prefix was re-expanded)"
        );
        assert_eq!(bytes, want, "jobs={jobs}: depleted store differs from uncapped run");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn budgeted_sessions_match_uncapped_under_semantic_paranoid_tier() {
    let target = Target::default();
    let base = CampaignConfig {
        enumerate: Config { paranoid: true, ..Config::default() },
        semantic: Some(SemanticConfig { battery: 2, ..SemanticConfig::default() }),
        jobs: 2,
        ..CampaignConfig::default()
    };
    let small = || tasks_from(SMALL_SOURCE);
    let (_dir, reference) = tmp_store("sem_reference");
    std::fs::remove_file(&reference).ok();
    run(small(), &target, Some(&reference), &base, &NullObserver).unwrap();
    let want = std::fs::read(&reference).unwrap();
    std::fs::remove_file(&reference).ok();

    // One serial depletion suffices here: job-count invariance is pinned
    // by the fingerprint-tier test above, this one pins the semantic and
    // paranoid state rebuild across suspensions.
    let (_dir, path) = tmp_store("sem_budgeted");
    let (bytes, _, sessions) =
        deplete(&path, &CampaignConfig { jobs: 0, ..base.clone() }, 4, small);
    assert!(sessions > 1, "a budget of 4 must force suspension");
    assert_eq!(
        bytes, want,
        "semantic+paranoid restore must rebuild signatures and paranoid bytes exactly"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn explore_function_deepens_strictly_through_store_round_trips() {
    use phase_order::campaign::explore_function;

    let target = Target::default();
    let task = tasks().remove(1); // `tri`: a loop, so a multi-level space
    let config = CampaignConfig::default();
    let want = explore_function(task.clone(), &target, &config, None, &NullObserver)
        .unwrap()
        .record
        .expect("uncapped run yields a record");
    assert!(want.complete);

    // Drive the same function in budgeted requests, round-tripping the
    // record through store bytes between steps — exactly what a daemon
    // restart does between queries.
    let budgeted = CampaignConfig { budget: Some(2), ..CampaignConfig::default() };
    let mut prior = None;
    let mut expanded = 0u64;
    let mut last_level = 0u32;
    let mut steps = 0usize;
    loop {
        let outcome =
            explore_function(task.clone(), &target, &budgeted, prior, &NullObserver).unwrap();
        let record = outcome.record.expect("budgeted requests always checkpoint");
        steps += 1;
        assert!(steps < 200, "budgeted requests must converge");
        if record.is_resumable() {
            assert!(outcome.expanded > 0, "a cold request must make progress");
            let level = record.frontier.as_ref().unwrap().level;
            assert!(
                level > last_level || last_level == 0,
                "each request must deepen the frontier (was {last_level}, now {level})"
            );
            last_level = level;
        }
        expanded += outcome.expanded;

        // Store round trip: persist, reload, continue from the copy.
        let mut store = ResultStore::new(&budgeted);
        store.records = vec![record.clone()];
        let reloaded = ResultStore::from_bytes(&store.to_bytes()).unwrap();
        let copy = reloaded.find(&task.name).unwrap().clone();
        assert_eq!(copy, record, "records survive store bytes unchanged");

        if !record.is_resumable() {
            assert_eq!(record, want, "depleted record must equal the uncapped one");
            break;
        }
        prior = Some(copy);
    }
    assert!(steps > 1, "budget 2 must split the search across requests");
    assert_eq!(expanded, want.fn_instances, "requests together expand each instance exactly once");

    // Warm: a terminal prior answers with no expansion at all.
    let warm =
        explore_function(task, &target, &budgeted, Some(want.clone()), &NullObserver).unwrap();
    assert_eq!(warm.expanded, 0);
    assert_eq!(warm.record.unwrap(), want);
}
