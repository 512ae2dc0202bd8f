//! Differential equivalence oracle over an enumerated phase-order space.
//!
//! The paper's whole methodology rests on two assumptions this module
//! turns into executable, testable invariants:
//!
//! 1. **Semantic equivalence** (Section 2): every node of the enumerated
//!    space is a function instance *semantically equivalent* to the
//!    unoptimized function — any phase ordering preserves behaviour.
//! 2. **Identity of fingerprint hits** (Section 4.2.1): when two phase
//!    orderings produce instances with equal canonical fingerprints, the
//!    enumeration merges them into one DAG node. If the CRC-based
//!    fingerprint ever confused two *different* functions, the space
//!    would silently undercount — the paper argues collisions are
//!    "extremely rare"; this oracle checks the stronger claim that the
//!    merged instances behave byte-identically.
//!
//! The oracle walks a [`SearchSpace`], rematerializes every distinct
//! instance by replaying its discovery edge from its parent, and executes
//! each one in [`vpo_sim::Machine`] on a deterministic, seeded input
//! battery (inputs on which the unoptimized baseline runs cleanly):
//!
//! * every instance's observations (return value, globals digest) must
//!   equal the baseline's — assumption 1;
//! * every *non-discovery* edge `u --p--> v` (a fingerprint hit during
//!   enumeration) is replayed too: `p` applied to `u`'s materialization
//!   must both serialize to `v`'s exact canonical bytes and observe
//!   byte-identically on the battery — assumption 2, end to end;
//! * every *semantic merge* edge (a signature hit under
//!   `--merge-tier semantic`) is replayed the same way, checking the
//!   tier's weaker claim: the rematerialization must match its class
//!   representative's structural key, per-input observations *and*
//!   per-input dynamic instruction counts — behavior and cost, which is
//!   exactly what the signature asserted at merge time;
//! * every leaf's total dynamic instruction count over the battery is
//!   recorded, so the dynamic-count-optimal ordering of Section 7 falls
//!   out of a verification run for free.
//!
//! The battery is the semantic tier's: [`verify`] takes the same
//! [`SemanticConfig`] the enumeration's signatures used, so a semantic
//! merge is re-validated on exactly the evidence it was accepted on.
//! Verification parallelizes over instances (`jobs` follows
//! [`crate::Config::jobs`]: `0` and `1` are serial); the verdict is
//! bit-identical for any job count because observations are
//! deterministic and findings are collected in node order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use vpo_opt::{attempt, PhaseId, Target};
use vpo_rtl::canon;
use vpo_rtl::rng::Rng;
use vpo_rtl::{Function, Program};
use vpo_sim::{BatteryOutcome, Machine, SimError};

use crate::enumerate::{sequence_letters, Enumeration};
use crate::semantic::SemanticConfig;
use crate::space::{NodeId, SearchSpace};

/// What one execution of one instance on one input looked like: the
/// returned value and a CRC-32 digest of the globals segment, or the
/// trap. Two instances are observationally identical on an input iff
/// these compare equal.
pub type Observation = Result<(i32, u32), SimError>;

/// A verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Finding {
    /// An instance disagreed with the unoptimized baseline on an input —
    /// some phase sequence miscompiled the function (assumption 1).
    BaselineMismatch {
        /// The offending instance.
        node: NodeId,
        /// Index into the battery.
        input: usize,
        /// What the unoptimized function observed.
        expected: Observation,
        /// What this instance observed.
        got: Observation,
    },
    /// A non-discovery edge rematerialization did not behave identically
    /// to the node it was merged with — the fingerprint equated two
    /// different functions (assumption 2).
    ClassMismatch {
        /// The node the enumeration merged into.
        node: NodeId,
        /// Parent of the non-discovery edge.
        parent: NodeId,
        /// Phase on the edge.
        phase: PhaseId,
        /// Index into the battery.
        input: usize,
        /// What the node's canonical materialization observed.
        expected: Observation,
        /// What the edge rematerialization observed.
        got: Observation,
    },
    /// A non-discovery edge rematerialization had the node's fingerprint
    /// but different canonical bytes — a genuine CRC collision. (The
    /// behavioural `ClassMismatch` check may still pass; a collision is
    /// reported regardless, mirroring the paranoid enumeration mode.)
    FingerprintCollision {
        /// The node the enumeration merged into.
        node: NodeId,
        /// Parent of the colliding edge.
        parent: NodeId,
        /// Phase on the edge.
        phase: PhaseId,
    },
    /// Replaying a node's discovery edge produced a function whose
    /// fingerprint differs from the recorded one — phase application is
    /// not deterministic (an internal invariant, checked for free).
    MaterializationDrift {
        /// The node that failed to rematerialize.
        node: NodeId,
    },
    /// A semantic merge edge rematerialization disagreed with its class
    /// representative — the behavioral signature equated two instances
    /// that differ in behavior or cost on this battery (the semantic
    /// tier's analogue of [`Finding::ClassMismatch`]).
    SemanticMergeMismatch {
        /// The representative node the enumeration merged into.
        node: NodeId,
        /// Parent of the semantic edge.
        parent: NodeId,
        /// Phase on the edge.
        phase: PhaseId,
        /// Index into the battery, or `None` when the structural keys
        /// themselves disagree.
        input: Option<usize>,
    },
}

/// Dynamic behaviour of one leaf instance (a completed phase ordering).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeafDynamics {
    /// The leaf.
    pub node: NodeId,
    /// Static instruction count of the instance.
    pub inst_count: u32,
    /// Total dynamic instructions over the whole battery.
    pub dynamic: u64,
    /// The discovery sequence, in the paper's letter notation.
    pub sequence: String,
}

/// The oracle's verdict over one function's enumerated space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleReport {
    /// Name of the verified function.
    pub function: String,
    /// Distinct instances executed (every node of the space).
    pub instances: usize,
    /// Non-discovery edges rematerialized and checked (the fingerprint
    /// hits of Section 4.2 — each one a merge the oracle re-derives).
    pub merged_paths: usize,
    /// Semantic merge edges rematerialized and checked (zero under the
    /// fingerprint tier).
    pub sem_paths: usize,
    /// Battery inputs used (baseline executes cleanly on each).
    pub inputs: Vec<Vec<i32>>,
    /// Dynamic instructions of the unoptimized baseline over the battery.
    pub baseline_dynamic: u64,
    /// All failures, in node order (empty = the space is verified).
    pub findings: Vec<Finding>,
    /// Per-leaf dynamic counts, in node order.
    pub leaves: Vec<LeafDynamics>,
    /// Total simulations performed.
    pub simulations: u64,
}

impl OracleReport {
    /// Whether every check passed.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The dynamic-instruction-count-optimal leaf (ties broken by lowest
    /// node id — the first ordering discovered). `None` only for an empty
    /// battery or a space with no leaves.
    pub fn best_leaf(&self) -> Option<&LeafDynamics> {
        self.leaves.iter().min_by_key(|l| (l.dynamic, l.node))
    }

    /// One-line human summary (the `vpoc verify` output row).
    pub fn summary(&self) -> String {
        let verdict = if self.is_clean() {
            "ok".to_owned()
        } else {
            format!("{} FINDINGS", self.findings.len())
        };
        let best = match self.best_leaf() {
            Some(b) => format!(
                "best leaf {} seq \"{}\" dynamic {} (baseline {})",
                b.node, b.sequence, b.dynamic, self.baseline_dynamic
            ),
            None => "no leaves".to_owned(),
        };
        let sem = if self.sem_paths > 0 {
            format!(" ({} semantic)", self.sem_paths)
        } else {
            String::new()
        };
        format!(
            "{}: {} instances, {} merged paths{sem}, {} inputs, {} sims: {verdict}; {best}",
            self.function,
            self.instances,
            self.merged_paths,
            self.inputs.len(),
            self.simulations,
        )
    }
}

/// Rematerializes every instance of the space in node-id order by
/// replaying discovery edges from the root function. Discovery parents
/// always precede their children in id order, so one pass suffices; the
/// returned vector is indexed by `NodeId`.
pub fn materialize_all(space: &SearchSpace, root: &Function, target: &Target) -> Vec<Function> {
    let mut out: Vec<Function> = Vec::with_capacity(space.len());
    for (_, node) in space.iter() {
        let f = match node.discovered_from {
            None => root.clone(),
            Some((parent, phase)) => {
                let mut g = out[parent.0 as usize].clone();
                attempt(&mut g, phase, target);
                g
            }
        };
        out.push(f);
    }
    out
}

/// The candidate inputs [`build_battery`] draws from for a function of
/// `arity` parameters: deterministic edge-case tuples first, then
/// `8 * config.battery` seeded draws (mostly small, a quarter in
/// ±2M). Functions of no parameters get the single empty input.
pub fn candidate_battery(arity: usize, config: &SemanticConfig) -> Vec<Vec<i32>> {
    if arity == 0 {
        return vec![Vec::new()];
    }
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut candidates: Vec<Vec<i32>> = vec![
        vec![0; arity],
        vec![1; arity],
        (0..arity).map(|i| [7, -3, 25, 4, -11, 2][i % 6]).collect(),
    ];
    for _ in 0..config.battery * 8 {
        candidates.push(
            (0..arity)
                .map(|_| {
                    if rng.gen_ratio(1, 4) {
                        rng.gen_range_i32(-2_000_000..2_000_000)
                    } else {
                        rng.gen_range_i32(-100..100)
                    }
                })
                .collect(),
        );
    }
    candidates
}

/// Builds the input battery: the first `config.battery` candidates
/// ([`candidate_battery`]) on which the *baseline* function executes
/// cleanly (optimization must preserve traps too, but trapping runs stop
/// at the trap and observe less — clean inputs give every check full
/// coverage). A zero-arity function keeps its single empty input even
/// when the baseline traps: the trap itself is the behaviour every
/// instance must match.
pub(crate) fn build_battery(
    program: &Program,
    f: &Function,
    config: &SemanticConfig,
) -> (Vec<Vec<i32>>, Vec<Observation>, u64) {
    let arity = f.params.len();
    let mut m = Machine::with_mem_size(program, config.mem_size);
    let mut inputs = Vec::new();
    let mut baseline = Vec::new();
    let mut dynamic = 0;
    for args in candidate_battery(arity, config) {
        if inputs.len() >= config.battery {
            break;
        }
        let (obs, d) = m
            .run_battery(f, std::slice::from_ref(&args), config.fuel)
            .pop()
            .expect("one outcome per input");
        if obs.is_ok() || arity == 0 {
            inputs.push(args);
            baseline.push(obs);
            dynamic += d;
        }
    }
    (inputs, baseline, dynamic)
}

/// One unit of verification work: a node, a non-discovery (fingerprint
/// merge) edge, or a semantic merge edge.
enum Item {
    Node(NodeId),
    Edge { parent: NodeId, phase: PhaseId, child: NodeId },
    SemEdge { parent: NodeId, phase: PhaseId, rep: NodeId },
}

/// Per-item verification outcome, merged in item order.
struct ItemResult {
    /// Per-input observation and dynamic count (the count is what the
    /// semantic signature asserts beyond behavior: cost).
    runs: Vec<BatteryOutcome>,
    /// `Some` for fingerprint edges: whether the rematerialization's
    /// canonical bytes equal the merged node's.
    bytes_match: Option<bool>,
    /// For nodes: whether the materialization's fingerprint matches.
    fp_match: bool,
    /// `Some` for semantic edges: whether the rematerialization's
    /// structural key equals the representative's.
    structure_match: Option<bool>,
}

/// Verifies an enumerated space against the unoptimized function.
///
/// `program` provides callees (functions called by `f` resolve to their
/// *unoptimized* versions, exactly as during enumeration) and the globals
/// layout. `f` must be the same unoptimized function `enumeration` was
/// produced from. `config` shapes the battery ([`build_battery`]);
/// `jobs` sizes the worker pool like [`crate::Config::jobs`] (`0` and
/// `1` verify on the calling thread).
pub fn verify(
    program: &Program,
    f: &Function,
    enumeration: &Enumeration,
    target: &Target,
    config: &SemanticConfig,
    jobs: usize,
) -> OracleReport {
    let space = &enumeration.space;
    let (inputs, baseline_obs, baseline_dynamic) = build_battery(program, f, config);

    let funcs = materialize_all(space, f, target);

    // Work list: every node, then every non-discovery edge, then every
    // semantic merge edge, in deterministic node order.
    let mut items: Vec<Item> = space.iter().map(|(id, _)| Item::Node(id)).collect();
    for (id, node) in space.iter() {
        for &(phase, child) in &node.children {
            if space.node(child).discovered_from != Some((id, phase)) {
                items.push(Item::Edge { parent: id, phase, child });
            }
        }
    }
    let merged_paths = items.len() - space.len();
    for (id, node) in space.iter() {
        for &(phase, rep) in &node.sem_children {
            items.push(Item::SemEdge { parent: id, phase, rep });
        }
    }
    let sem_paths = items.len() - space.len() - merged_paths;

    let run_item = |m: &mut Machine<'_>, item: &Item| -> ItemResult {
        match item {
            Item::Node(id) => {
                let func = &funcs[id.0 as usize];
                ItemResult {
                    runs: m.run_battery(func, &inputs, config.fuel),
                    bytes_match: None,
                    fp_match: canon::fingerprint(func) == space.node(*id).fp,
                    structure_match: None,
                }
            }
            Item::Edge { parent, phase, child } => {
                let mut g = funcs[parent.0 as usize].clone();
                attempt(&mut g, *phase, target);
                let bytes_match =
                    canon::canonical_bytes(&g) == canon::canonical_bytes(&funcs[child.0 as usize]);
                ItemResult {
                    runs: m.run_battery(&g, &inputs, config.fuel),
                    bytes_match: Some(bytes_match),
                    fp_match: true,
                    structure_match: None,
                }
            }
            Item::SemEdge { parent, phase, rep } => {
                let mut g = funcs[parent.0 as usize].clone();
                attempt(&mut g, *phase, target);
                let structure_match = crate::semantic::StructuralKey::of(&g)
                    == crate::semantic::StructuralKey::of(&funcs[rep.0 as usize]);
                ItemResult {
                    runs: m.run_battery(&g, &inputs, config.fuel),
                    bytes_match: None,
                    fp_match: true,
                    structure_match: Some(structure_match),
                }
            }
        }
    };

    let results: Vec<ItemResult> = if jobs > 1 && items.len() > 1 {
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<ItemResult>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(items.len()) {
                scope.spawn(|| {
                    let mut m = Machine::with_mem_size(program, config.mem_size);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        *slots[i].lock().unwrap() = Some(run_item(&mut m, item));
                    }
                });
            }
        });
        slots.into_iter().map(|s| s.into_inner().unwrap().expect("worker filled slot")).collect()
    } else {
        let mut m = Machine::with_mem_size(program, config.mem_size);
        items.iter().map(|item| run_item(&mut m, item)).collect()
    };

    // Merge: compare in item order, which is node order — verdicts are
    // identical for any job count.
    let mut findings = Vec::new();
    let mut leaves = Vec::new();
    let mut simulations = 0u64;
    let mut node_runs: Vec<Option<&[BatteryOutcome]>> = vec![None; space.len()];
    for (item, res) in items.iter().zip(&results) {
        simulations += inputs.len() as u64;
        match item {
            Item::Node(id) => {
                if !res.fp_match {
                    findings.push(Finding::MaterializationDrift { node: *id });
                }
                for (input, ((got, _), expected)) in res.runs.iter().zip(&baseline_obs).enumerate()
                {
                    if got != expected {
                        findings.push(Finding::BaselineMismatch {
                            node: *id,
                            input,
                            expected: expected.clone(),
                            got: got.clone(),
                        });
                    }
                }
                node_runs[id.0 as usize] = Some(&res.runs);
                let node = space.node(*id);
                if node.is_leaf() {
                    leaves.push(LeafDynamics {
                        node: *id,
                        inst_count: node.inst_count,
                        dynamic: res.runs.iter().map(|(_, d)| d).sum(),
                        sequence: sequence_letters(&space.discovery_sequence(*id)),
                    });
                }
            }
            Item::Edge { parent, phase, child } => {
                if res.bytes_match == Some(false) {
                    findings.push(Finding::FingerprintCollision {
                        node: *child,
                        parent: *parent,
                        phase: *phase,
                    });
                }
                let expected =
                    node_runs[child.0 as usize].expect("nodes precede edges in the work list");
                for (input, ((got, _), (exp, _))) in res.runs.iter().zip(expected).enumerate() {
                    if got != exp {
                        findings.push(Finding::ClassMismatch {
                            node: *child,
                            parent: *parent,
                            phase: *phase,
                            input,
                            expected: exp.clone(),
                            got: got.clone(),
                        });
                    }
                }
            }
            Item::SemEdge { parent, phase, rep } => {
                if res.structure_match == Some(false) {
                    findings.push(Finding::SemanticMergeMismatch {
                        node: *rep,
                        parent: *parent,
                        phase: *phase,
                        input: None,
                    });
                }
                let expected =
                    node_runs[rep.0 as usize].expect("nodes precede edges in the work list");
                for (input, (got, exp)) in res.runs.iter().zip(expected).enumerate() {
                    if got != exp {
                        findings.push(Finding::SemanticMergeMismatch {
                            node: *rep,
                            parent: *parent,
                            phase: *phase,
                            input: Some(input),
                        });
                    }
                }
            }
        }
    }
    let tm = crate::telemetry::global();
    tm.oracle_instances.add(space.len() as u64);
    tm.oracle_merged_paths.add((merged_paths + sem_paths) as u64);
    tm.oracle_simulations.add(simulations);
    tm.oracle_battery_inputs.add(inputs.len() as u64);
    tm.oracle_findings.add(findings.len() as u64);

    OracleReport {
        function: f.name.clone(),
        instances: space.len(),
        merged_paths,
        sem_paths,
        inputs,
        baseline_dynamic,
        findings,
        leaves,
        simulations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;

    fn compile(src: &str) -> Program {
        vpo_frontend::compile(src).unwrap()
    }

    /// Enumerates `p`'s first function and verifies it on the default
    /// battery, serially.
    fn enumerate_and_verify(p: &Program) -> (Enumeration, OracleReport) {
        let target = Target::default();
        let e = crate::enumerate(&p.functions[0], &target, &Config::default());
        let report = verify(p, &p.functions[0], &e, &target, &SemanticConfig::default(), 0);
        (e, report)
    }

    #[test]
    fn small_function_verifies_clean() {
        let p = compile("int f(int a, int b) { if (a > b) return a - b; return b - a; }");
        let (e, report) = enumerate_and_verify(&p);
        assert!(e.outcome.is_complete());
        assert!(report.is_clean(), "findings: {:?}", report.findings);
        assert_eq!(report.instances, e.space.len());
        assert!(report.best_leaf().is_some());
        assert!(report.simulations >= (e.space.len() * report.inputs.len()) as u64);
        assert!(!report.summary().is_empty());
    }

    #[test]
    fn loops_and_globals_verify_clean() {
        let p = compile(
            r#"
            int acc = 3;
            int f(int n) {
                int i;
                for (i = 0; i < n; i++) acc += i * i;
                return acc;
            }
            "#,
        );
        let (e, report) = enumerate_and_verify(&p);
        assert!(e.outcome.is_complete());
        assert!(report.is_clean(), "findings: {:?}", report.findings);
        assert!(report.merged_paths > 0, "expected fingerprint merges in a loop space");
        // The best leaf should beat (or match) the unoptimized baseline.
        let best = report.best_leaf().unwrap();
        assert!(best.dynamic <= report.baseline_dynamic);
        assert!(!best.sequence.is_empty());
    }

    #[test]
    fn zero_arity_functions_keep_their_trapping_baseline() {
        let p = compile("int f() { int z; z = 0; return 5 / z; }");
        let (inputs, baseline, _) = build_battery(&p, &p.functions[0], &SemanticConfig::default());
        assert_eq!(inputs, vec![Vec::<i32>::new()]);
        assert!(baseline[0].is_err(), "division by zero must trap: {baseline:?}");
        let (_, report) = enumerate_and_verify(&p);
        assert!(report.is_clean(), "findings: {:?}", report.findings);
    }

    #[test]
    fn oracle_catches_a_planted_miscompile() {
        // Corrupt one materialized instance's behaviour by verifying a
        // space enumerated from a *different* function: the oracle must
        // report baseline mismatches.
        let p1 = compile("int f(int a) { return a * 2; }");
        let p2 = compile("int f(int a) { return a * 3; }");
        let target = Target::default();
        let config = SemanticConfig::default();
        let e_wrong = crate::enumerate(&p2.functions[0], &target, &Config::default());
        // Battery comes from p1's baseline; instances come from p2's root.
        let report = verify(&p1, &p2.functions[0], &e_wrong, &target, &config, 0);
        assert!(report.is_clean(), "same-root space must be clean");
        // Now cross the streams: p1's function with p2's space — the
        // materialized root is p1's, whose fingerprint and behaviour
        // disagree with the recorded space.
        let report = verify(&p1, &p1.functions[0], &e_wrong, &target, &config, 0);
        assert!(
            !report.is_clean(),
            "oracle failed to flag a space that does not belong to the function"
        );
    }

    #[test]
    fn parallel_and_serial_reports_agree() {
        let p = compile(
            "int f(int a, int n) { int s = 0; int i; for (i = 0; i < n; i++) s += a * i; return s; }",
        );
        let (e, serial) = enumerate_and_verify(&p);
        let target = Target::default();
        for jobs in [1usize, 2, 4] {
            let par = verify(&p, &p.functions[0], &e, &target, &SemanticConfig::default(), jobs);
            assert_eq!(serial, par, "jobs={jobs}");
        }
        assert!(serial.is_clean());
    }
}
