//! Enumeration telemetry over budget-split sessions: a campaign that is
//! suspended at budget barriers and resumed to completion ticks every
//! deterministic `enumerate.*` counter exactly as often as one uncapped
//! run does. Restored nodes tick nothing and the root ticks once, so no
//! session re-counts the work an earlier session recorded.
//!
//! Signing by control flow is counted too (`semantic.cf_simulations`).
//! An uncapped annotation-tier run simulates one battery per distinct
//! control flow of its spaces. A resumed session re-signs the founders of
//! its partial space, so it may simulate each control flow once more, but
//! never more than that.
//!
//! The telemetry registry is process-global, so this file holds a single
//! test: no other search runs between its snapshots.

use std::path::PathBuf;
use std::sync::Arc;

use phase_order::campaign::{run, CampaignConfig, FunctionTask, NullObserver};
use phase_order::tmp_dir::TmpDir;
use phase_order::{telemetry, SemanticConfig};
use vpo_opt::Target;

const BUDGET: u64 = 25;

fn bitcount_tasks() -> Vec<FunctionTask> {
    let program = Arc::new(mibench::find("bitcount").unwrap().compile().unwrap());
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

const CF_SIMULATIONS: &str = "semantic.cf_simulations";

/// How much each deterministic `enumerate.*` counter grew while `work`
/// ran, and how much `semantic.cf_simulations` grew.
/// `enumerate.peak_frontier` is a high-water gauge, not a sum, so it is
/// left out.
fn enumerate_counters(work: impl FnOnce()) -> (Vec<(&'static str, u64)>, u64) {
    let before = telemetry::global().snapshot();
    work();
    let after = telemetry::global().snapshot();
    let simulations = after.value(CF_SIMULATIONS).unwrap() - before.value(CF_SIMULATIONS).unwrap();
    let counters = after
        .deterministic_values()
        .into_iter()
        .filter(|(name, _)| name.starts_with("enumerate.") && *name != "enumerate.peak_frontier")
        .map(|(name, v)| (name, v - before.value(name).unwrap()))
        .collect();
    (counters, simulations)
}

/// A scratch directory for one store, removed when the guard drops, and
/// the (absent) store path in it.
fn tmp_store(tag: &str) -> (TmpDir, PathBuf) {
    let dir = TmpDir::new(&format!("vpoc_split_telemetry_{}_{tag}", std::process::id()));
    let path = dir.join("campaign.store");
    std::fs::remove_file(&path).ok();
    (dir, path)
}

#[test]
fn enumeration_counters_add_up_over_budget_split_sessions() {
    let target = Target::default();
    let semantic = Some(SemanticConfig::default());
    let tiers = [
        ("fingerprint", None, false),
        ("annotation", semantic.clone(), false),
        ("pruned", semantic, true),
    ];
    for (tier, semantic, sem_pruned) in tiers {
        for jobs in [0usize, 2] {
            let base = CampaignConfig {
                jobs,
                semantic: semantic.clone(),
                sem_pruned,
                ..Default::default()
            };
            let (mut instances, mut flows) = (0, 0);
            let (uncapped, uncapped_simulations) = enumerate_counters(|| {
                let s = run(bitcount_tasks(), &target, None, &base, &NullObserver).unwrap();
                instances = s.records.iter().map(|r| r.fn_instances).sum();
                flows = s.records.iter().map(|r| r.control_flows).sum();
            });
            match tier {
                "fingerprint" => assert_eq!(uncapped_simulations, 0, "{tier} jobs {jobs}"),
                // Every node is signed; one battery per control flow.
                "annotation" => assert_eq!(uncapped_simulations, flows, "{tier} jobs {jobs}"),
                _ => {}
            }
            // Every node of every space, roots included, is inserted once.
            let inserted = uncapped.iter().find(|(n, _)| *n == "enumerate.nodes_inserted");
            assert_eq!(inserted.map(|&(_, v)| v), Some(instances), "{tier} jobs {jobs}");

            let (_dir, path) = tmp_store(&format!("{tier}_j{jobs}"));
            let mut split = vec![0u64; uncapped.len()];
            let mut split_simulations = 0;
            let mut sessions = 0;
            loop {
                let config =
                    CampaignConfig { budget: Some(BUDGET), resume: path.exists(), ..base.clone() };
                let mut done = false;
                let (delta, simulations) = enumerate_counters(|| {
                    let s = run(bitcount_tasks(), &target, Some(&path), &config, &NullObserver)
                        .unwrap();
                    done = s.records.iter().all(|r| !r.is_resumable());
                });
                for (sum, (_, v)) in split.iter_mut().zip(delta) {
                    *sum += v;
                }
                split_simulations += simulations;
                sessions += 1;
                assert!(sessions < 200, "{tier} jobs {jobs}: budgeted sessions must converge");
                if done {
                    break;
                }
            }
            assert!(sessions > 1, "{tier} jobs {jobs}: budget {BUDGET} must split the campaign");
            for ((name, want), got) in uncapped.iter().zip(&split) {
                assert_eq!(
                    got, want,
                    "{tier} jobs {jobs}: `{name}` summed over {sessions} sessions differs from \
                     one uncapped run"
                );
            }
            if tier == "annotation" {
                assert!(
                    split_simulations <= sessions as u64 * flows,
                    "{tier} jobs {jobs}: {sessions} sessions simulated {split_simulations} \
                     batteries over {flows} control flows"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }
}
