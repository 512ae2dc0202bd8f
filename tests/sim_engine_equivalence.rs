//! The direct-threaded simulator engine must be bit-identical to the
//! tree-walking reference interpreter: same return values, same globals
//! digests, same dynamic instruction counts, same block-entry counts,
//! and the same error classification, on every input. These tests are
//! the contract that lets `SimEngine::Threaded` be the only engine the
//! oracle, the semantic tier and the CLI run, while `SimEngine::Interp`
//! remains a test-only witness (selected here through
//! `Machine::set_engine`) — the simulator twin of `engine_equivalence.rs`.

mod common;

use std::collections::HashSet;

use common::{apply_sequence, gen_seq};
use epo::explore::enumerate::{enumerate_tier, Config};
use epo::explore::oracle;
use epo::explore::request::MergeTier;
use epo::explore::rng::Rng;
use epo::explore::semantic::{SemanticConfig, SemanticContext};
use epo::explore::space::SearchSpace;
use epo::frontend::fuzz::{FuzzProgram, ENTRY};
use epo::opt::Target;
use epo::sim::{Machine, SimEngine, SimError};
use exhaustive_phase_order as epo;

/// Everything one simulation observes: outcome (value or error), globals
/// digest, dynamic instruction count, and per-block entry counts.
type Trace = (Result<i32, SimError>, u32, u64, Option<Vec<u64>>);

/// Runs `f` on `args` under `engine` in a fresh machine.
fn trace(
    program: &epo::rtl::Program,
    f: &epo::rtl::Function,
    args: &[i32],
    engine: SimEngine,
    counted: bool,
) -> Trace {
    let mut m = Machine::new(program);
    m.set_engine(engine);
    m.set_fuel(2_000_000);
    let (r, counts) = if counted {
        match m.call_instance_counted(f, args) {
            Ok((v, c)) => (Ok(v), Some(c)),
            Err(e) => (Err(e), None),
        }
    } else {
        (m.call_instance(f, args), None)
    };
    (r, m.globals_crc(), m.dynamic_insts(), counts)
}

/// Asserts both engines produce the same trace, returning it.
fn assert_trace_identical(
    name: &str,
    program: &epo::rtl::Program,
    f: &epo::rtl::Function,
    args: &[i32],
    counted: bool,
) -> Trace {
    let interp = trace(program, f, args, SimEngine::Interp, counted);
    let threaded = trace(program, f, args, SimEngine::Threaded, counted);
    assert_eq!(interp, threaded, "{name}: engines diverged on args {args:?}");
    threaded
}

/// The nine pinned kernels spanning all six MiBench benchmarks: every
/// simulation the oracle and the semantic tier run on them must come out
/// identically on both engines.
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

/// Every instance `oracle::verify` simulates for a space: each node's
/// rematerialization, then each fingerprint-merge (non-discovery) edge
/// and each semantic-merge edge rematerialized from its parent.
fn oracle_instances(
    space: &SearchSpace,
    root: &epo::rtl::Function,
    target: &Target,
) -> Vec<epo::rtl::Function> {
    let nodes = oracle::materialize_all(space, root, target);
    let mut out = nodes.clone();
    let mut edge = |parent: epo::explore::NodeId, phase| {
        let mut g = nodes[parent.0 as usize].clone();
        epo::opt::attempt(&mut g, phase, target);
        out.push(g);
    };
    for (id, node) in space.iter() {
        for &(phase, child) in &node.children {
            if space.node(child).discovered_from != Some((id, phase)) {
                edge(id, phase);
            }
        }
    }
    for (id, node) in space.iter() {
        for &(phase, _) in &node.sem_children {
            edge(id, phase);
        }
    }
    out
}

/// Runs `battery` on `f` under both engines and demands identical
/// `run_battery` output: observations, globals digests and dynamic counts.
fn assert_battery_identical(
    name: &str,
    machines: &mut (Machine<'_>, Machine<'_>),
    f: &epo::rtl::Function,
    battery: &[Vec<i32>],
    fuel: u64,
) {
    assert_eq!(
        machines.0.run_battery(f, battery, fuel),
        machines.1.run_battery(f, battery, fuel),
        "{name}: engines diverged on battery {battery:?}"
    );
}

/// Instruction budget for the extended battery in the witness below. Its
/// overflow-edge inputs drive `fft::reverse_bits` into loops of up to
/// 2³¹ trips, which the interpreter steps one instruction at a time
/// until the default 2M budget runs out: about a second per instance in
/// a release build and ten in a debug one. Both engines cut a loop at
/// the fuel limit by exact stepping, so a smaller budget exercises the
/// same paths; the witness checks on each root that it exhausts exactly
/// the inputs the default budget exhausts.
const EXT_FUEL: u64 = 2_000;

/// The oracle's and the semantic tier's simulations over the nine
/// kernels, with the default battery, on the interpreter and the threaded
/// engine: the root on every candidate input the oracle battery is drawn
/// from (traps included), then every distinct node, fingerprint-edge and
/// semantic-edge rematerialization of the fingerprint-tier and
/// semantic-tier spaces on the oracle battery and on the paranoid
/// extended battery. `run_battery` output must be identical on both
/// engines.
///
/// The semantic space is enumerated without `--paranoid`: escalation
/// refutes no merge on these kernels
/// (`semantic_merge_soundness::paranoid_escalation_refutes_nothing_on_real_spaces`),
/// so the paranoid space is this one, and escalation's extended-battery
/// runs are a subset of the ones below — while paranoid enumeration of
/// `fft::reverse_bits` alone takes half a minute in a release build.
#[test]
fn oracle_batteries_are_engine_invariant_on_the_kernel_suite() {
    let target = Target::default();
    let sc = SemanticConfig::default();
    let config = Config { max_nodes: 5_000, ..Config::default() };
    for (bench_name, func) in KERNELS {
        let program = epo::benchmarks::find(bench_name).unwrap().compile().unwrap();
        let f = program.function(func).unwrap();
        let name = format!("{bench_name}::{func}");
        let mut machines = (
            Machine::with_mem_size(&program, sc.mem_size),
            Machine::with_mem_size(&program, sc.mem_size),
        );
        machines.0.set_engine(SimEngine::Interp);

        let candidates = oracle::candidate_battery(f.params.len(), &sc);
        assert_battery_identical(&name, &mut machines, f, &candidates, sc.fuel);

        let ctx = SemanticContext::new(&program, f, &sc, false);
        let (base, ext) = (ctx.base_inputs(), ctx.ext_inputs());
        assert!(!base.is_empty(), "{name}: empty oracle battery");
        let mut exhausted = |fuel| -> Vec<bool> {
            let runs = machines.1.run_battery(f, ext, fuel);
            runs.iter().map(|(o, _)| *o == Err(SimError::OutOfFuel)).collect()
        };
        assert_eq!(exhausted(sc.fuel), exhausted(EXT_FUEL), "{name}: EXT_FUEL changes outcomes");

        let mut seen = HashSet::new();
        for tier in [MergeTier::Fingerprint, MergeTier::Semantic] {
            let e = enumerate_tier(tier, Some(&program), f, &target, &config, &sc);
            assert!(e.outcome.is_complete(), "{name}: {tier:?} search truncated");
            if tier == MergeTier::Semantic {
                assert!(e.space.sem_edge_count() > 0, "{name}: no semantic edges");
            }
            for g in oracle_instances(&e.space, f, &target) {
                // Identical instances simulate identically; run each once.
                if seen.insert(format!("{g:?}")) {
                    let name = format!("{name} ({tier:?} tier) instance\n{g}");
                    assert_battery_identical(&name, &mut machines, &g, base, sc.fuel);
                    assert_battery_identical(&name, &mut machines, &g, ext, EXT_FUEL);
                }
            }
        }
    }
}

/// ≥200 fuzz programs, each compiled, optimized under a random phase
/// order, and executed on both engines with identical traces — results,
/// CRCs, dynamic counts, and (every few cases) block-entry counts.
#[test]
fn fuzz_corpus_traces_are_engine_invariant() {
    let target = Target::default();
    for seed in 0..220u64 {
        let mut rng = Rng::seed_from_u64(0x51E_E9E ^ seed);
        let fp = FuzzProgram::generate(&mut rng);
        let program = fp.compile().unwrap_or_else(|e| {
            panic!("seed {seed}: generated source failed to compile: {e}\n{}", fp.source)
        });
        let seq = gen_seq(&mut rng, 0..8);
        let (optimized, _) = apply_sequence(program.function(ENTRY).unwrap(), &seq, &target);
        for naive in [true, false] {
            let f = if naive { program.function(ENTRY).unwrap() } else { &optimized };
            let args = FuzzProgram::gen_args(&mut rng);
            let counted = seed % 4 == 0;
            let (r, _, _, _) = assert_trace_identical(
                &format!("seed {seed} naive={naive}\n{}", fp.source),
                &program,
                f,
                &args,
                counted,
            );
            // Fuzz programs never trap on generated inputs; a trap here
            // means the case lost its teeth, not that the engines agree.
            let expected = fp.reference(args);
            assert_eq!(r, Ok(expected), "seed {seed}, args {args:?}:\n{}", fp.source);
        }
    }
}

/// Error classification is engine-invariant: out-of-fuel, stack
/// exhaustion (`OutOfStack`), deep recursion (`StackOverflow`),
/// `INT_MIN / -1`, division by zero, bad shifts, and out-of-bounds
/// loads/stores must be the *same* error with the *same* partial trace
/// on both engines.
#[test]
fn error_classification_is_engine_invariant() {
    let cases: &[(&str, &str, Vec<Vec<i32>>)] = &[
        (
            "div traps",
            "int f(int a, int b) { return a / b; }",
            vec![vec![7, 0], vec![i32::MIN, -1], vec![10, 3]],
        ),
        (
            "rem traps",
            "int f(int a, int b) { return a % b; }",
            vec![vec![7, 0], vec![i32::MIN, -1]],
        ),
        (
            "shift range",
            "int f(int a, int b) { return a << b; }",
            vec![vec![1, 40], vec![1, -1], vec![1, 31]],
        ),
        (
            "oob store",
            "int g[4]; int f(int i) { g[i] = 1; return g[0]; }",
            vec![vec![100000000], vec![-1], vec![3]],
        ),
        ("oob load", "int g[4]; int f(int i) { return g[i]; }", vec![vec![90000000], vec![2]]),
        (
            "unbounded loop hits fuel",
            "int f(int n) { int s; s = 0; while (n < 1) s += 1; return s; }",
            vec![vec![0], vec![1]],
        ),
        ("infinite recursion overflows depth", "int f(int n) { return f(n + 1); }", vec![vec![0]]),
    ];
    for (name, src, batteries) in cases {
        let program = epo::frontend::compile(src).unwrap();
        let f = program.function("f").unwrap();
        for args in batteries {
            let (r, _, _, _) = assert_trace_identical(name, &program, f, args, true);
            if name.contains("fuel") && args[0] < 1 {
                assert_eq!(r, Err(SimError::OutOfFuel), "{name}");
            }
        }
    }

    // OutOfStack needs a frame that cannot fit: a huge local array on a
    // tiny machine. Both engines must refuse identically before running
    // any code.
    let program =
        epo::frontend::compile("int f(int n) { int big[6000]; big[0] = n; return big[0]; }")
            .unwrap();
    let f = program.function("f").unwrap();
    let mut results = Vec::new();
    for engine in [SimEngine::Interp, SimEngine::Threaded] {
        let mut m = Machine::with_mem_size(&program, 1 << 14);
        m.set_engine(engine);
        results.push((m.call_instance(f, &[5]), m.dynamic_insts()));
    }
    assert_eq!(results[0], results[1], "OutOfStack diverged");
    assert_eq!(results[0].0, Err(SimError::OutOfStack));
}

/// Dynamic-count crediting is exact under batching: for every kernel
/// workload, `set_fuel(n)` with n = the exact dynamic count succeeds and
/// n−1 fails with `OutOfFuel`, identically on both engines.
#[test]
fn fuel_boundaries_are_exact_on_kernel_workloads() {
    for (bench_name, func, args) in common::quick_workloads() {
        let bench = epo::benchmarks::find(bench_name).unwrap();
        let program = bench.compile().unwrap();
        let f = program.function(func).unwrap();
        let mut m = Machine::new(&program);
        m.call_instance(f, &args).unwrap_or_else(|e| panic!("{bench_name}::{func}: {e}"));
        let n = m.dynamic_insts();
        for engine in [SimEngine::Interp, SimEngine::Threaded] {
            let mut m = Machine::new(&program);
            m.set_engine(engine);
            m.set_fuel(n);
            assert!(m.call_instance(f, &args).is_ok(), "{bench_name}::{func} fuel={n} {engine:?}");
            assert_eq!(m.dynamic_insts(), n, "{bench_name}::{func} {engine:?}");
            if n > 0 {
                m.reset();
                m.set_fuel(n - 1);
                let r = m.call_instance(f, &args);
                assert_eq!(r, Err(SimError::OutOfFuel), "{bench_name}::{func} {engine:?}");
                assert_eq!(m.dynamic_insts(), n - 1, "{bench_name}::{func} {engine:?}");
            }
        }
    }
}
