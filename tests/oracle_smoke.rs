//! Smoke-level differential verification of enumerated phase-order
//! spaces: the oracle executes **every** distinct instance of real
//! MiBench kernels and checks the paper's two load-bearing assumptions —
//! all orderings preserve behaviour, and fingerprint-merged paths are
//! genuinely the same function (Sections 2 and 4.2.1).

mod common;

use common::quick_workloads;
use epo::explore::enumerate::Config;
use epo::explore::oracle;
use epo::explore::semantic::SemanticConfig;
use epo::opt::Target;
use exhaustive_phase_order as epo;

fn smoke_configs() -> (Config, SemanticConfig) {
    let enum_config = Config { max_nodes: 5_000, ..Config::default() };
    let battery = SemanticConfig { battery: 3, ..SemanticConfig::default() };
    (enum_config, battery)
}

/// The acceptance gate: at least four seed kernels, every distinct
/// instance executed, zero findings, and a dynamic-count-optimal leaf
/// reported per function.
#[test]
fn oracle_verifies_seed_kernels() {
    let kernels = [
        ("bitcount", "bit_count"),
        ("bitcount", "bit_shifter"),
        ("fft", "fix_mpy"),
        ("jpeg", "range_limit"),
        ("sha", "rotl"),
    ];
    let (enum_config, battery) = smoke_configs();
    let target = Target::default();
    for (bench_name, func) in kernels {
        let bench = epo::benchmarks::all().into_iter().find(|b| b.name == bench_name).unwrap();
        let program = bench.compile().unwrap();
        let f = program.function(func).unwrap();
        let e = epo::explore::enumerate(f, &target, &enum_config);
        let report = oracle::verify(&program, f, &e, &target, &battery, 0);
        assert!(e.outcome.is_complete(), "{bench_name}::{func}: budget too small for smoke");
        assert!(report.is_clean(), "{bench_name}::{func}: oracle findings: {:#?}", report.findings);
        // Every distinct instance of the space was executed.
        assert_eq!(report.instances, e.space.len());
        assert_eq!(report.leaves.len(), e.space.leaf_count());
        assert!(!report.inputs.is_empty(), "{bench_name}::{func}: empty battery");
        // The optimal ordering is reported, and optimizing never lost to
        // the naive baseline on the battery.
        let best = report.best_leaf().unwrap_or_else(|| panic!("{bench_name}::{func}: no leaves"));
        assert!(
            best.dynamic <= report.baseline_dynamic,
            "{bench_name}::{func}: best leaf {} dynamic {} worse than baseline {}",
            best.node,
            best.dynamic,
            report.baseline_dynamic
        );
    }
}

/// The oracle's verdict — findings, leaf dynamics, and best-leaf choice —
/// is bit-identical for any worker count (satellite of the PR 1 claim
/// that parallelism never changes results).
#[test]
fn oracle_parallel_matches_serial() {
    let (bench_name, func, _) = quick_workloads().swap_remove(0);
    let bench = epo::benchmarks::all().into_iter().find(|b| b.name == bench_name).unwrap();
    let program = bench.compile().unwrap();
    let f = program.function(func).unwrap();
    let target = Target::default();
    let (enum_config, battery) = smoke_configs();
    let e = epo::explore::enumerate(f, &target, &enum_config);

    let serial = oracle::verify(&program, f, &e, &target, &battery, 0);
    assert!(serial.is_clean(), "findings: {:#?}", serial.findings);
    for jobs in [1usize, 2, 3, epo::explore::jobs_per_cpu()] {
        let par = oracle::verify(&program, f, &e, &target, &battery, jobs);
        assert_eq!(serial, par, "oracle verdict diverged at jobs={jobs}");
    }
}
