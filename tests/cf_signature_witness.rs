//! Witness for signing by control flow: on every node of a space, the
//! signature enumeration infers from one counted battery per distinct
//! control flow ([`SemanticContext::flow_signature`]) must equal the
//! signature of simulating the node's whole base battery
//! ([`SemanticContext::signature`]). Each space is signed twice by
//! control flow — in node order, as enumeration meets its instances, and
//! in reverse — so a different instance fills each control flow's memo
//! entry; both must reproduce the simulated signatures exactly.
//!
//! The default cases cover every instance of the `bitcount` and `sha`
//! spaces and of 200 generated programs (spaces capped at 300 nodes).
//! The `#[ignore]`d case covers all 74 MiBench spaces (31 237
//! instances):
//!
//! ```text
//! cargo test --release --offline --test cf_signature_witness -- --ignored
//! ```

use std::collections::HashSet;

use epo::explore::enumerate::{enumerate, Config};
use epo::explore::oracle::materialize_all;
use epo::explore::rng::Rng;
use epo::explore::semantic::{SemanticConfig, SemanticContext};
use epo::frontend::fuzz::{FuzzProgram, ENTRY};
use epo::opt::Target;
use epo::rtl::cfg::control_flow_shape;
use epo::rtl::{Function, Program};
use exhaustive_phase_order as epo;

/// What one witnessed space contributed.
#[derive(Default)]
struct Tally {
    nodes: usize,
    /// Distinct control-flow shapes among the nodes.
    flows: usize,
}

/// Enumerates `f` under `config` and holds both control-flow signings of
/// every node to the simulated signature.
fn witness(label: &str, program: &Program, f: &Function, config: &Config, tally: &mut Tally) {
    let target = Target::default();
    let sc = SemanticConfig::default();
    let e = enumerate(f, &target, config);
    let instances = materialize_all(&e.space, f, &target);
    let mut simulated = SemanticContext::new(program, f, &sc, false);
    let want: Vec<_> = instances.iter().map(|g| simulated.signature(g)).collect();
    let mut forward = SemanticContext::new(program, f, &sc, false);
    for (id, g) in instances.iter().enumerate() {
        assert_eq!(forward.flow_signature(g), want[id], "{label} node {id} (node order)");
    }
    let mut backward = SemanticContext::new(program, f, &sc, false);
    for (id, g) in instances.iter().enumerate().rev() {
        assert_eq!(backward.flow_signature(g), want[id], "{label} node {id} (reverse order)");
    }
    tally.nodes += instances.len();
    tally.flows += instances.iter().map(control_flow_shape).collect::<HashSet<_>>().len();
}

fn witness_benchmark(name: &str, tally: &mut Tally) {
    let program = epo::benchmarks::find(name).expect("benchmark").compile().expect("compiles");
    for f in &program.functions {
        witness(&format!("{name}::{}", f.name), &program, f, &Config::default(), tally);
    }
}

/// The inference did the work: far fewer control flows than nodes.
fn assert_not_vacuous(tally: &Tally) {
    assert!(tally.nodes > 0);
    assert!(
        tally.flows * 4 < tally.nodes,
        "{} control flows over {} nodes: the inference barely ran",
        tally.flows,
        tally.nodes
    );
}

#[test]
fn inferred_signatures_match_simulation_on_bitcount_and_sha() {
    let mut tally = Tally::default();
    witness_benchmark("bitcount", &mut tally);
    witness_benchmark("sha", &mut tally);
    assert_not_vacuous(&tally);
}

/// Witnesses generated programs `seeds` at a 300-node cap.
fn witness_fuzz_seeds(seeds: std::ops::Range<u64>) {
    let config = Config { max_nodes: 300, ..Config::default() };
    let mut tally = Tally::default();
    for seed in seeds {
        let mut rng = Rng::seed_from_u64(0x5EED_CF10 ^ seed);
        let fp = FuzzProgram::generate(&mut rng);
        let program = fp.compile().unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", fp.source));
        let f = program.function(ENTRY).expect("entry function");
        witness(&format!("seed {seed}\n{}", fp.source), &program, f, &config, &mut tally);
    }
    assert_not_vacuous(&tally);
}

// The 200 generated programs run as two tests so the harness can overlap
// them.

#[test]
fn inferred_signatures_match_simulation_on_fuzz_programs_0_to_99() {
    witness_fuzz_seeds(0..100);
}

#[test]
fn inferred_signatures_match_simulation_on_fuzz_programs_100_to_199() {
    witness_fuzz_seeds(100..200);
}

#[test]
#[ignore = "all 74 MiBench spaces; about 20 s in release"]
fn inferred_signatures_match_simulation_on_every_mibench_instance() {
    let mut tally = Tally::default();
    let mut functions = 0;
    for b in epo::benchmarks::all() {
        let program = b.compile().expect("compiles");
        for f in &program.functions {
            witness(
                &format!("{}::{}", b.name, f.name),
                &program,
                f,
                &Config::default(),
                &mut tally,
            );
            functions += 1;
        }
    }
    assert_eq!((functions, tally.nodes), (74, 31_237), "Table 3 totals");
    assert_not_vacuous(&tally);
    eprintln!("{} instances over {} control flows", tally.nodes, tally.flows);
}
