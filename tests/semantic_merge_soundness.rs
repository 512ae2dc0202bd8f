//! Soundness of the semantic-equivalence merge tier: over the nine
//! pinned kernels, the semantic DAG must be an exact *quotient* of the
//! fingerprint DAG — the node set and fingerprint edges are
//! bit-identical under both tiers, every fingerprint-merge class (node)
//! lands in exactly one semantic signature class, class representatives
//! carry pairwise-distinct signatures, and the answers the space exists
//! to produce (the dynamic-count-optimal leaf, the differential
//! oracle's verdict) are identical under both tiers. The whole battery
//! also runs under jobs 0, 2 and 8 — the semantic tier inherits the
//! bit-identical-for-any-job-count guarantee — and under paranoid
//! escalation, which must refute nothing on real spaces.

use std::collections::{HashMap, HashSet};

use epo::explore::enumerate::{enumerate, enumerate_tier, Config};
use epo::explore::oracle;
use epo::explore::request::MergeTier;
use epo::explore::rng::Rng;
use epo::explore::semantic::{SemanticConfig, SemanticContext, Signature};
use epo::explore::space::NodeId;
use epo::frontend::fuzz::{FuzzProgram, ENTRY};
use epo::opt::Target;
use epo::sim::Machine;
use exhaustive_phase_order as epo;

/// The nine pinned kernels spanning all six MiBench benchmarks (the same
/// list as `sim_engine_equivalence.rs`).
const KERNELS: &[(&str, &str)] = &[
    ("bitcount", "bit_count"),
    ("bitcount", "bit_shifter"),
    ("bitcount", "ntbl_bitcount"),
    ("dijkstra", "dequeue"),
    ("fft", "fix_mpy"),
    ("fft", "reverse_bits"),
    ("jpeg", "range_limit"),
    ("sha", "rotl"),
    ("stringsearch", "lower"),
];

fn enum_config() -> Config {
    Config { max_nodes: 5_000, ..Config::default() }
}

fn sem_config() -> SemanticConfig {
    SemanticConfig { battery: 3, ..SemanticConfig::default() }
}

/// Signatures of every node of a space, recomputed independently
/// through a fresh context (same battery the semantic enumeration
/// used) — the test's own evidence, not the enumeration's bookkeeping.
fn space_signatures(
    program: &epo::rtl::Program,
    f: &epo::rtl::Function,
    space: &epo::explore::space::SearchSpace,
    target: &Target,
) -> Vec<Signature> {
    let mut ctx = SemanticContext::new(program, f, &sem_config(), false);
    oracle::materialize_all(space, f, target).iter().map(|g| ctx.signature(g)).collect()
}

/// The quotient property, per kernel: the two tiers explore the same
/// space, and partitioning its nodes by independently recomputed
/// behavioral signature reproduces exactly the class structure the
/// semantic tier recorded.
#[test]
fn semantic_space_is_a_quotient_of_the_fingerprint_space() {
    let target = Target::default();
    for (bench_name, func) in KERNELS {
        let bench = epo::benchmarks::find(bench_name).unwrap();
        let program = bench.compile().unwrap();
        let f = program.function(func).unwrap();
        let e_fp = enumerate(f, &target, &enum_config());
        let e_sem = enumerate_tier(
            MergeTier::Semantic,
            Some(&program),
            f,
            &target,
            &enum_config(),
            &sem_config(),
        );
        assert!(e_fp.outcome.is_complete(), "{bench_name}::{func}: fingerprint search truncated");
        assert!(e_sem.outcome.is_complete(), "{bench_name}::{func}: semantic search truncated");

        // The fingerprint tier knows nothing of classes…
        assert_eq!(e_fp.stats.sem_merges, 0, "{bench_name}::{func}");
        assert_eq!(e_fp.space.sem_edge_count(), 0, "{bench_name}::{func}");
        assert_eq!(e_fp.space.sem_class_count(), e_fp.space.len(), "{bench_name}::{func}");

        // …and the semantic tier never changes the space it annotates:
        // same nodes, same fingerprint edges, same masks and weights.
        assert_eq!(e_fp.space.len(), e_sem.space.len(), "{bench_name}::{func}");
        assert_eq!(e_fp.stats.attempted_phases, e_sem.stats.attempted_phases);
        assert_eq!(e_fp.stats.active_attempts, e_sem.stats.active_attempts);
        for (id, n) in e_fp.space.iter() {
            let m = e_sem.space.node(id);
            assert_eq!(m.fp, n.fp, "{bench_name}::{func} node {id}");
            assert_eq!(m.active_mask, n.active_mask, "{bench_name}::{func} node {id}");
            assert_eq!(m.children, n.children, "{bench_name}::{func} node {id}");
            assert_eq!(m.weight, n.weight, "{bench_name}::{func} node {id}");
            assert_eq!(m.discovered_from, n.discovered_from, "{bench_name}::{func} node {id}");
        }

        // Recompute every node's signature from scratch and partition.
        let sigs = space_signatures(&program, f, &e_sem.space, &target);
        let mut classes: HashMap<&Signature, Vec<NodeId>> = HashMap::new();
        for (id, _) in e_sem.space.iter() {
            classes.entry(&sigs[id.0 as usize]).or_default().push(id);
        }

        // Every fingerprint-merge class (node) lands in exactly one
        // semantic class: its recorded representative is a founder
        // (rep of itself) with the identical signature, and all
        // signature-equal nodes agree on that representative.
        for (id, _) in e_sem.space.iter() {
            let rep = e_sem.space.sem_rep(id);
            assert_eq!(
                e_sem.space.sem_rep(rep),
                rep,
                "{bench_name}::{func}: representative {rep} of {id} is not a founder"
            );
            assert_eq!(
                sigs[id.0 as usize], sigs[rep.0 as usize],
                "{bench_name}::{func}: node {id} merged into a different behavior {rep}"
            );
        }
        for (sig, members) in &classes {
            let reps: HashSet<NodeId> = members.iter().map(|&id| e_sem.space.sem_rep(id)).collect();
            assert_eq!(
                reps.len(),
                1,
                "{bench_name}::{func}: one signature split across representatives \
                 {reps:?} ({sig:?})"
            );
        }

        // The class count the tier reports is exactly the number of
        // distinct signatures, and the merges account for the rest.
        let distinct = classes.len();
        assert_eq!(e_sem.space.sem_class_count(), distinct, "{bench_name}::{func}");
        assert_eq!(
            e_sem.space.len() - e_sem.stats.sem_merges as usize,
            distinct,
            "{bench_name}::{func}: merges do not account for the collapse"
        );
        assert_eq!(e_sem.space.sem_edge_count(), e_sem.stats.sem_merges as usize);
        // The quotient is a genuine collapse on every kernel.
        assert!(
            distinct < e_sem.space.len(),
            "{bench_name}::{func}: no behavioral redundancy found at all"
        );
    }
}

/// The oracle answers the same under both tiers: clean verdicts, and the
/// identical optimal leaf dynamic count.
#[test]
fn optimal_leaf_dynamics_are_tier_invariant() {
    let target = Target::default();
    for (bench_name, func) in KERNELS {
        let bench = epo::benchmarks::find(bench_name).unwrap();
        let program = bench.compile().unwrap();
        let f = program.function(func).unwrap();
        let e_fp = enumerate(f, &target, &enum_config());
        let e_sem = enumerate_tier(
            MergeTier::Semantic,
            Some(&program),
            f,
            &target,
            &enum_config(),
            &sem_config(),
        );
        let r_fp = oracle::verify(&program, f, &e_fp, &target, &sem_config(), 0);
        let r_sem = oracle::verify(&program, f, &e_sem, &target, &sem_config(), 0);
        assert!(
            r_fp.is_clean(),
            "{bench_name}::{func}: fingerprint findings: {:#?}",
            r_fp.findings
        );
        assert!(r_sem.is_clean(), "{bench_name}::{func}: semantic findings: {:#?}", r_sem.findings);
        let best_fp = r_fp.best_leaf().expect("fingerprint space has leaves");
        let best_sem = r_sem.best_leaf().expect("semantic space has leaves");
        assert_eq!(
            best_fp.dynamic, best_sem.dynamic,
            "{bench_name}::{func}: optimal leaf cost differs between tiers"
        );
        assert_eq!(best_fp.node, best_sem.node, "{bench_name}::{func}");
        // The semantic report re-validated every semantic merge edge.
        assert_eq!(r_sem.sem_paths, e_sem.space.sem_edge_count(), "{bench_name}::{func}");
        assert!(r_sem.sem_paths > 0, "{bench_name}::{func}: no merges were re-validated");
        assert_eq!(r_fp.sem_paths, 0, "{bench_name}::{func}");
    }
}

/// The semantic tier is bit-identical for any job count: jobs 0 (serial),
/// 2 and 8 must produce the same nodes, edges, classes and counters.
#[test]
fn semantic_enumeration_is_job_count_invariant() {
    let target = Target::default();
    for (bench_name, func) in KERNELS {
        let bench = epo::benchmarks::find(bench_name).unwrap();
        let program = bench.compile().unwrap();
        let f = program.function(func).unwrap();
        let serial = enumerate_tier(
            MergeTier::Semantic,
            Some(&program),
            f,
            &target,
            &enum_config(),
            &sem_config(),
        );
        for jobs in [2usize, 8] {
            let config = Config { jobs, ..enum_config() };
            let par = enumerate_tier(
                MergeTier::Semantic,
                Some(&program),
                f,
                &target,
                &config,
                &sem_config(),
            );
            assert_eq!(par.space.len(), serial.space.len(), "{bench_name}::{func} jobs={jobs}");
            assert_eq!(
                par.space.sem_class_count(),
                serial.space.sem_class_count(),
                "{bench_name}::{func} jobs={jobs}"
            );
            assert_eq!(par.stats.sem_merges, serial.stats.sem_merges, "{bench_name}::{func}");
            assert_eq!(par.stats.attempted_phases, serial.stats.attempted_phases);
            assert_eq!(par.stats.active_attempts, serial.stats.active_attempts);
            for (id, n) in serial.space.iter() {
                let m = par.space.node(id);
                assert_eq!(m.fp, n.fp, "{bench_name}::{func} jobs={jobs} node {id}");
                assert_eq!(m.active_mask, n.active_mask, "{bench_name}::{func} jobs={jobs}");
                assert_eq!(m.children, n.children, "{bench_name}::{func} jobs={jobs}");
                assert_eq!(m.sem_children, n.sem_children, "{bench_name}::{func} jobs={jobs}");
                assert_eq!(m.weight, n.weight, "{bench_name}::{func} jobs={jobs}");
            }
        }
    }
}

/// 200 randomly generated MiniC programs through the paranoid semantic
/// tier: every accepted merge is cross-validated against the fuzzer's
/// reference interpreter — each merged instance and its class
/// representative must compute exactly what the reference computes on
/// fresh inputs the signature battery never saw — and paranoid
/// escalation must refute nothing across the whole corpus.
#[test]
fn fuzz_corpus_semantic_merges_agree_with_reference_interpreter() {
    let target = Target::default();
    let sc = SemanticConfig { battery: 2, ..SemanticConfig::default() };
    let config = Config { max_nodes: 120, paranoid: true, ..Config::default() };
    let (mut total_merges, mut total_checked) = (0u64, 0u64);
    for seed in 0..200u64 {
        let mut rng = Rng::seed_from_u64(0x5EED_5E3A ^ seed);
        let fp = FuzzProgram::generate(&mut rng);
        let program = fp.compile().unwrap_or_else(|e| {
            panic!("seed {seed}: generated source failed to compile: {e}\n{}", fp.source)
        });
        let f = program.function(ENTRY).unwrap();
        let e = enumerate_tier(MergeTier::Semantic, Some(&program), f, &target, &config, &sc);
        assert_eq!(
            e.stats.sem_collisions, 0,
            "seed {seed}: paranoid escalation refuted a merge\n{}",
            fp.source
        );
        // A truncated search may escalate an attempt it then drops at
        // the node cap, so only ≥ holds here (equality is asserted on
        // the complete kernel spaces above).
        assert!(e.stats.sem_escalations >= e.stats.sem_merges, "seed {seed}");
        total_merges += e.stats.sem_merges;
        if e.stats.sem_merges == 0 {
            continue;
        }
        // The oracle re-validates each semantic merge edge on the
        // battery the merge was accepted on.
        let report = oracle::verify(&program, f, &e, &target, &sc, 0);
        assert!(report.is_clean(), "seed {seed}: findings {:#?}\n{}", report.findings, fp.source);
        // Cross-validation on inputs no battery saw: the reference
        // interpreter is the independent arbiter.
        let instances = oracle::materialize_all(&e.space, f, &target);
        let mut m = Machine::with_mem_size(&program, sc.mem_size);
        for (id, _) in e.space.iter() {
            let rep = e.space.sem_rep(id);
            if rep == id {
                continue;
            }
            let fresh: Vec<[i32; 3]> = (0..3).map(|_| FuzzProgram::gen_args(&mut rng)).collect();
            let args: Vec<Vec<i32>> = fresh.iter().map(|a| a.to_vec()).collect();
            let merged = m.run_battery(&instances[id.0 as usize], &args, sc.fuel);
            let rep_obs = m.run_battery(&instances[rep.0 as usize], &args, sc.fuel);
            for (i, a) in fresh.iter().enumerate() {
                let expected = fp.reference(*a);
                let (got, _) = &merged[i];
                let (rg, _) = &rep_obs[i];
                assert_eq!(
                    got.clone().map(|(v, _)| v),
                    Ok(expected),
                    "seed {seed} node {id} args {a:?}: merged instance disagrees with the \
                     reference\n{}",
                    fp.source
                );
                assert_eq!(
                    got, rg,
                    "seed {seed} node {id} args {a:?}: merged instance and representative \
                     {rep} diverge\n{}",
                    fp.source
                );
            }
            total_checked += 1;
        }
    }
    // The corpus must actually exercise the tier.
    assert!(total_merges >= 50, "corpus produced only {total_merges} semantic merges");
    assert_eq!(total_checked, total_merges, "every accepted merge was cross-validated");
}

/// Paranoid escalation re-executes every signature hit on the extended
/// battery; on real spaces — where merged instances are genuinely
/// equivalent — it must refute nothing, and the quotient must come out
/// exactly as without it.
#[test]
fn paranoid_escalation_refutes_nothing_on_real_spaces() {
    let target = Target::default();
    for (bench_name, func) in KERNELS {
        let bench = epo::benchmarks::find(bench_name).unwrap();
        let program = bench.compile().unwrap();
        let f = program.function(func).unwrap();
        let lax = enumerate_tier(
            MergeTier::Semantic,
            Some(&program),
            f,
            &target,
            &enum_config(),
            &sem_config(),
        );
        let config = Config { paranoid: true, ..enum_config() };
        let e =
            enumerate_tier(MergeTier::Semantic, Some(&program), f, &target, &config, &sem_config());
        assert_eq!(e.stats.sem_collisions, 0, "{bench_name}::{func}: escalation refuted a merge");
        assert_eq!(e.stats.collisions, 0, "{bench_name}::{func}: fingerprint collision");
        // Every semantic merge was escalated exactly once, and the
        // verdicts never changed the quotient.
        assert_eq!(e.stats.sem_escalations, e.stats.sem_merges, "{bench_name}::{func}");
        assert_eq!(e.space.len(), lax.space.len(), "{bench_name}::{func}");
        assert_eq!(e.stats.sem_merges, lax.stats.sem_merges, "{bench_name}::{func}");
        assert_eq!(e.space.sem_class_count(), lax.space.sem_class_count(), "{bench_name}::{func}");
    }
}
