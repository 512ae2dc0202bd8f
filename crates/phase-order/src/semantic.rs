//! Semantic-equivalence merge tier for enumeration.
//!
//! The paper's space collapse (§4.2.1) is purely *syntactic*: two
//! instances merge only when their canonical fingerprints are
//! byte-identical. Wang et al.'s "Beyond the Phase Ordering Problem"
//! observes that the interesting quotient is *semantic* — instances that
//! behave identically are interchangeable for every downstream question
//! the space answers, so collapsing on behavior shrinks the DAG further
//! and upgrades "optimal ordering found" to "optimal code w.r.t.
//! phases".
//!
//! This module implements the behavioral signature behind the second
//! merge tier:
//!
//! * a **structural key** — function flags, block count, instruction
//!   count and distinct-register footprint — that is free to compute and
//!   bounds the collision probability of the behavioral part (two
//!   instances must agree on all four before their batteries are even
//!   compared);
//! * a **battery signature** — the oracle's seeded input battery
//!   executed on the simulator, recording per entry the observation
//!   (return value + globals CRC, or the trap) *and the dynamic
//!   instruction count*. The dynamic count is essential: every instance
//!   in a space is semantically equivalent to the baseline by
//!   construction, so observations alone discriminate nothing — what
//!   distinguishes members of one space is how much they *cost*, and the
//!   per-entry dynamic count captures exactly that (it is also what
//!   keeps the optimal-leaf report identical under either tier).
//!
//! Under the *annotation* tier (`--merge-tier semantic`) a signature hit
//! does **not** stop exploration: the merged instance is still inserted
//! and expanded, because signature equality is *not* a congruence under
//! phase application — two behaviorally identical instances are
//! different code, and phases can take them to different classes, so
//! pruning the subtree would silently lose instances (and potentially
//! the optimal leaf). The tier is instead an exact *quotient annotation*
//! over the fingerprint space: the node set and `children` edges are
//! bit-identical under either tier, merged nodes carry a `sem_children`
//! edge to their class representative, and the "distinct instances" a
//! semantic Table 3 reports is the class count.
//!
//! The *pruned* tier (`--merge-tier semantic-pruned`, selected by the
//! run's [`crate::campaign::CampaignConfig::sem_pruned`], which the merge
//! reads directly) strengthens the merge criterion
//! enough to skip expansion: a signature hit is pruned only when the
//! candidate's **realized active-phase set** is subsumed by its
//! already-expanded representative's — every phase that actually fires
//! on the candidate must have a child at the representative landing in
//! the same behavioral class as the candidate's own result for that
//! phase ([`SemanticContext::subsumes`], a one-step lookahead). The
//! level barrier makes the representative's edge list exact: merges run
//! serially after every earlier-level node has been expanded, so a
//! same-level representative has no children yet and never subsumes;
//! likewise a candidate with no active phase is a genuine leaf and is
//! kept visible rather than pruned. A candidate that passes is recorded
//! as a pruned node (inserted, never expanded) and its subtree is
//! charged to the representative's; where only the signature matches,
//! the candidate falls back to annotation-tier expansion and is counted
//! as a mask fallback. `vpoc audit-quotient` measures the exact class
//! loss of this criterion against the annotation tier as ground truth.
//!
//! Merging instances whose signatures match is sound for every report
//! the quotient produces *if* equal signatures imply equal behavior and
//! cost. That implication is probabilistic (the battery is finite), so:
//!
//! * **paranoid mode** escalates every signature hit to a full
//!   differential re-execution over an *extended* battery — overflow
//!   edges (`i32::MAX`, `i32::MIN`, ±2³⁰) and full-range seeded draws
//!   that the deliberately-small base battery never reaches — and
//!   rejects the merge (the candidate stays a fresh node) unless every
//!   *observation* matches some established representative of the class
//!   (cost at extreme inputs is not compared: input-dependent trip
//!   counts legitimately diverge there, and the cost half of the claim
//!   is settled by the base battery);
//! * the differential oracle ([`crate::oracle`]) re-validates every
//!   accepted semantic merge after the fact, exactly as it re-derives
//!   fingerprint merges.
//!
//! Enumeration signs **by control flow**, the paper's §7 observation:
//! instances sharing a control flow enter their corresponding blocks
//! equally often on equal inputs, and every instance of a space is
//! observationally equal to the baseline by construction. So each
//! search keeps a memo keyed by the exact control-flow shape
//! ([`vpo_rtl::cfg::control_flow_shape`]). The first instance of a new
//! shape runs the base battery once, counting block entries
//! ([`FlowRun::measure`]); that run is its signature, and it fills the
//! memo with, per input, the observation, the dynamic count spent in
//! callees and the per-block entry counts. Every later instance of the
//! shape is signed without simulation: its structural key plus, per
//! input, that observation and `callees + Σ entries(block) × |block|`.
//! A shape whose first run trapped, or an inferred count past the fuel,
//! falls back to simulating the instance in full. The shape includes
//! each branch's condition: branch reversal and block reordering can
//! lay the same two arms out behind equal successor indices in opposite
//! orders, and only the condition tells those apart. The merge signs
//! serially in frontier order, so which instance fills each memo entry,
//! and hence the simulator work, is the same for any job count. The
//! simulated reference, [`SemanticContext::signature`], stays public: the
//! `cf_signature_witness` suite holds every inferred signature to it,
//! and paranoid escalation and `vpoc verify` still simulate every
//! instance they check, so a miscompile the inference cannot see still
//! surfaces there. The `semantic.cf_simulations` and
//! `semantic.cf_inferred` counters show the split.

use std::collections::HashMap;
use std::sync::Arc;

use vpo_opt::facts::Facts;
use vpo_opt::{attempt, PhaseId, Target};
use vpo_rtl::cfg::control_flow_shape;
use vpo_rtl::rng::Rng;
use vpo_rtl::{Expr, FuncFlags, Function, Program, Reg};
use vpo_sim::{BatteryOutcome, LoweredInstance, Machine, SimError};

use crate::oracle::{self, Observation};
use crate::space::{NodeId, SearchSpace};

/// The simulation battery shared by the semantic merge tier and the
/// differential oracle ([`crate::oracle::verify`]).
///
/// One config shapes both so that the signature battery and the
/// oracle's verification battery are the *same inputs* — a semantic
/// merge accepted during enumeration is then re-validated by `vpoc
/// verify` on exactly the evidence it was accepted on (plus the
/// extended battery in paranoid mode).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SemanticConfig {
    /// Number of base-battery inputs (inputs whose baseline execution
    /// traps are discarded and re-drawn).
    pub battery: usize,
    /// Seed for battery generation.
    pub seed: u64,
    /// Dynamic-instruction budget per simulation.
    pub fuel: u64,
    /// Memory-image size per simulation (the whole image is zeroed
    /// between runs, so smaller is faster; must fit globals and stack).
    pub mem_size: usize,
}

impl Default for SemanticConfig {
    fn default() -> Self {
        SemanticConfig { battery: 4, seed: 0x04AC1E, fuel: 2_000_000, mem_size: 1 << 18 }
    }
}

/// The cheap structural component of a signature. Two instances whose
/// structural keys differ are never battery-compared at all, which both
/// bounds the collision probability of the CRC-bearing behavioral part
/// and keeps classes honest: a semantic class only ever contains
/// instances of identical size, shape and register footprint, so the
/// class representative's static properties (code size, Table 3 rows)
/// speak for every member.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StructuralKey {
    /// Phase-ordering flags — instances with different milestone flags
    /// have different legal futures and must never merge.
    pub flags: FuncFlags,
    /// Basic-block count.
    pub blocks: u32,
    /// Instruction count.
    pub insts: u32,
    /// Number of distinct registers read or written.
    pub regs: u32,
}

impl StructuralKey {
    /// Computes the key with a single pass over the function.
    pub fn of(f: &Function) -> StructuralKey {
        let mut regs: Vec<Reg> = Vec::new();
        let mut insts = 0u32;
        for b in &f.blocks {
            for i in &b.insts {
                insts += 1;
                if let Some(d) = i.def() {
                    regs.push(d);
                }
                i.visit_exprs(&mut |e| {
                    e.visit(&mut |e| {
                        if let Expr::Reg(r) = e {
                            regs.push(*r);
                        }
                    });
                });
            }
        }
        regs.sort_unstable();
        regs.dedup();
        StructuralKey {
            flags: f.flags,
            blocks: f.blocks.len() as u32,
            insts,
            regs: regs.len() as u32,
        }
    }
}

/// The behavioral signature: structural key plus the full base-battery
/// outcome vector. Kept as the complete tuple (not a lossy hash) so the
/// only way two different behaviors collide is a CRC collision in the
/// globals digest itself — the same exposure the fingerprint tier
/// already accepts, and the one paranoid mode exists to catch.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Structural component.
    pub structure: StructuralKey,
    /// Per-battery-entry observations and dynamic counts.
    pub battery: Vec<BatteryOutcome>,
}

/// One run of an instance on one input with its block entries counted:
/// the measurement behind the paper's §7 inference. Any instance with the
/// same control-flow shape enters its blocks as often on that input, so
/// its own dynamic count is [`FlowRun::own`] of its body.
#[derive(Clone, Debug)]
pub struct FlowRun {
    /// Return value and globals CRC.
    pub observation: (i32, u32),
    /// Dynamic instructions executed, callees included.
    pub dynamic: u64,
    /// How often each block of the instance was entered, by position.
    pub entries: Vec<u64>,
}

impl FlowRun {
    /// Runs the lowered instance `li` on `args` from a reset `machine`,
    /// counting block entries. The outcome and count are exactly what
    /// [`Machine::run_battery`] records for that input; on a trap the
    /// count at the trap stays readable through
    /// [`Machine::dynamic_insts`].
    ///
    /// # Errors
    ///
    /// The simulator error, if the run trapped.
    pub fn measure(
        machine: &mut Machine<'_>,
        li: &LoweredInstance,
        args: &[i32],
    ) -> Result<FlowRun, SimError> {
        machine.reset();
        let (value, entries) = machine.call_lowered_counted(li, args)?;
        let observation = (value, machine.globals_crc());
        Ok(FlowRun { observation, dynamic: machine.dynamic_insts(), entries })
    }

    /// The dynamic instructions an instance `f` with the measured control
    /// flow executes in its own blocks: `Σ entries(block) × |block|`.
    pub fn own(&self, f: &Function) -> u64 {
        f.blocks.iter().zip(&self.entries).map(|(b, &n)| b.insts.len() as u64 * n).sum()
    }
}

/// A control flow's counted base battery, per input: the run and the
/// dynamic count it spent in callees. `None` when the first instance
/// trapped on some input (or its blocks over-account its count), so no
/// instance of the flow is inferred.
type FlowEntry = Option<Vec<(FlowRun, u64)>>;

/// Outcome of presenting a fingerprint-fresh instance to the semantic
/// tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Signature matched an established class (and survived escalation,
    /// in paranoid mode): merge into this representative node.
    Merge(NodeId),
    /// No acceptable class: the instance becomes a fresh node.
    /// `collided` is set when a signature hit was *rejected* by paranoid
    /// escalation — the battery collided on genuinely different code.
    Fresh {
        /// Paranoid escalation refuted a signature hit.
        collided: bool,
    },
}

/// An established class representative.
struct ClassRep {
    /// The space node all signature-equal instances merge into.
    node: NodeId,
    /// The representative's function — retained only in paranoid mode,
    /// where escalation re-executes it on the extended battery.
    func: Option<Arc<Function>>,
    /// Lazily computed extended-battery observations (paranoid mode) —
    /// observation only: escalation re-litigates the *behavioral* half
    /// of a signature hit; the cost profile is definitional on the base
    /// battery (it is what the signature probes), so two variants with
    /// equal base-battery cost and equal extended-battery behavior stay
    /// merged in either mode, which keeps the quotient paranoid-invariant
    /// on sound spaces.
    ext: Option<Vec<Observation>>,
}

/// Per-function semantic merge state: the merge's simulator (its lowered
/// block cache stays warm across every battery and escalation in the
/// space), the two batteries, the class table and the control-flow memo.
pub struct SemanticContext<'p> {
    machine: Machine<'p>,
    fuel: u64,
    paranoid: bool,
    /// Base battery: the oracle's baseline-clean seeded inputs.
    base: Vec<Vec<i32>>,
    /// Extended battery for paranoid escalation: overflow edges and
    /// full-range draws, *not* filtered for baseline cleanliness (the
    /// comparison is candidate-vs-representative, so traps count too).
    ext: Vec<Vec<i32>>,
    classes: HashMap<Signature, Vec<ClassRep>>,
    /// Counted base batteries by exact control-flow shape, one per
    /// distinct control flow signed in this search.
    flows: HashMap<Vec<u8>, FlowEntry>,
}

impl<'p> SemanticContext<'p> {
    /// Builds the context for enumerating `f` within `program`.
    /// `paranoid` enables escalation (and representative retention).
    pub fn new(
        program: &'p Program,
        f: &Function,
        config: &SemanticConfig,
        paranoid: bool,
    ) -> SemanticContext<'p> {
        let (base, _baseline, _dyn) = oracle::build_battery(program, f, config);
        SemanticContext {
            machine: Machine::with_mem_size(program, config.mem_size),
            fuel: config.fuel,
            paranoid,
            base,
            ext: extended_battery(f.params.len(), config),
            classes: HashMap::new(),
            flows: HashMap::new(),
        }
    }

    /// The base battery inputs (the signature's behavioral evidence).
    pub fn base_inputs(&self) -> &[Vec<i32>] {
        &self.base
    }

    /// The extended battery inputs used by paranoid escalation.
    pub fn ext_inputs(&self) -> &[Vec<i32>] {
        &self.ext
    }

    /// Computes the behavioral signature of a function instance by
    /// simulating the whole base battery: the reference that signing by
    /// control flow ([`crate::semantic`]) is held to.
    pub fn signature(&mut self, f: &Function) -> Signature {
        let battery = self.machine.run_battery(f, &self.base, self.fuel);
        Signature { structure: StructuralKey::of(f), battery }
    }

    /// Signs a function instance by control flow, as enumeration does:
    /// inferred from this context's memo entry for its control-flow
    /// shape, or — for the first instance of a shape — one counted
    /// battery that also fills the entry. Equal to
    /// [`SemanticContext::signature`] on semantics-preserving spaces.
    pub fn flow_signature(&mut self, f: &Function) -> Signature {
        let tm = crate::telemetry::global();
        let structure = StructuralKey::of(f);
        let shape = control_flow_shape(f);
        if let Some(entry) = self.flows.get(&shape) {
            if let Some(runs) = entry {
                let battery: Vec<BatteryOutcome> = runs
                    .iter()
                    .map(|(run, callees)| (Ok(run.observation), callees + run.own(f)))
                    .collect();
                if battery.iter().all(|&(_, n)| n <= self.fuel) {
                    tm.sem_cf_inferred.inc();
                    return Signature { structure, battery };
                }
            }
            tm.sem_cf_simulations.inc();
            let battery = self.machine.run_battery(f, &self.base, self.fuel);
            return Signature { structure, battery };
        }
        tm.sem_cf_simulations.inc();
        self.machine.set_fuel(self.fuel);
        let li = self.machine.lower_instance(f);
        let mut battery = Vec::with_capacity(self.base.len());
        let mut runs = Some(Vec::with_capacity(self.base.len()));
        for args in &self.base {
            match FlowRun::measure(&mut self.machine, &li, args) {
                Ok(run) => {
                    battery.push((Ok(run.observation), run.dynamic));
                    let callees = run.dynamic.checked_sub(run.own(f));
                    match (runs.as_mut(), callees) {
                        (Some(runs), Some(callees)) => runs.push((run, callees)),
                        _ => runs = None,
                    }
                }
                Err(e) => {
                    battery.push((Err(e), self.machine.dynamic_insts()));
                    runs = None;
                }
            }
        }
        self.flows.insert(shape, runs);
        Signature { structure, battery }
    }

    /// Resolves a fingerprint-fresh instance against the class table.
    /// Returns the outcome plus the number of escalations performed
    /// (0 or 1 — one `resolve` escalates at most once, comparing the
    /// candidate's extended battery against every representative).
    pub fn resolve(&mut self, sig: &Signature, f: &Function) -> (Resolution, u64) {
        let Some(reps) = self.classes.get(sig) else {
            return (Resolution::Fresh { collided: false }, 0);
        };
        if !self.paranoid {
            // Single-tier acceptance: outside paranoid mode a class has
            // exactly one representative.
            return (Resolution::Merge(reps[0].node), 0);
        }
        let cand_ext = self.run_extended(f);
        // Borrow dance: compute any missing representative extended
        // batteries first, then compare.
        let missing: Vec<usize> = self
            .classes
            .get(sig)
            .unwrap()
            .iter()
            .enumerate()
            .filter(|(_, r)| r.ext.is_none())
            .map(|(i, _)| i)
            .collect();
        for i in missing {
            let rf = self.classes.get(sig).unwrap()[i]
                .func
                .clone()
                .expect("paranoid class representatives retain their function");
            let obs = self.run_extended(&rf);
            self.classes.get_mut(sig).unwrap()[i].ext = Some(obs);
        }
        for rep in self.classes.get(sig).unwrap() {
            let rep_ext = rep.ext.as_ref().expect("extended battery computed above");
            if *rep_ext == cand_ext {
                return (Resolution::Merge(rep.node), 1);
            }
        }
        (Resolution::Fresh { collided: true }, 1)
    }

    /// Registers a freshly inserted node as a representative of its
    /// signature class. `func` is retained only in paranoid mode.
    pub fn register(&mut self, sig: Signature, node: NodeId, func: &Arc<Function>) {
        let func = self.paranoid.then(|| Arc::clone(func));
        self.classes.entry(sig).or_default().push(ClassRep { node, func, ext: None });
    }

    /// The pruned tier's subsumption check, run at the merge site once a
    /// candidate's signature has matched a representative's: a *one-step
    /// lookahead* over the candidate's realized successors. Every phase
    /// that actually fires on the candidate must have a child at the
    /// representative `rep` (its exact expanded edge list in `space`)
    /// that lands in the **same behavioral class** as the candidate's own
    /// result for that phase. A child's class is read off the space
    /// ([`SearchSpace::sem_rep`]): the representative has children only
    /// once its own merge has finished, so every child's discovering
    /// parent has already written its merge edges. Signature equality is
    /// not a congruence under phase application — a phase both instances
    /// fire can take them to different classes — so a static mask
    /// comparison is not enough; the lookahead checks where the
    /// successors really land.
    ///
    /// A representative with no children (same level and not yet
    /// expanded, or itself final) never subsumes, and a candidate with
    /// no active phase is a genuine leaf, kept visible rather than
    /// pruned (skipping it saves no work). The check runs serially at
    /// the level-barrier merge, so it inherits the bit-identical-for-
    /// any-job-count guarantee; its cost is one phase application per
    /// potentially-active phase plus, per *active* one, a signature by
    /// control flow — a memo lookup and a sum, or one counted battery
    /// for a control flow the search has not signed yet — traded for
    /// skipping the candidate's entire subtree.
    pub fn subsumes(
        &mut self,
        cand: &Function,
        space: &SearchSpace,
        rep: NodeId,
        target: &Target,
    ) -> bool {
        let rep_children = &space.node(rep).children;
        if rep_children.is_empty() {
            return false;
        }
        let facts = Facts::of(cand);
        let mut any_active = false;
        for phase in PhaseId::ALL {
            if !phase.can_be_active(&facts) {
                continue;
            }
            let mut step = cand.clone();
            if !attempt(&mut step, phase, target).active {
                continue;
            }
            any_active = true;
            // The representative never fired this phase: its expansion
            // has no successor to stand in for the candidate's.
            let Some(&(_, child)) = rep_children.iter().find(|&&(p, _)| p == phase) else {
                return false;
            };
            let rep_of_child = space.sem_rep(child);
            let sig = self.flow_signature(&step);
            let Some(reps) = self.classes.get(&sig) else {
                return false;
            };
            if !reps.iter().any(|r| r.node == rep_of_child) {
                return false;
            }
        }
        any_active
    }

    /// Number of established classes (distinct signatures; paranoid
    /// collisions add representatives, not classes).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Differential comparison of two function instances' observations
    /// over the extended battery — the escalation predicate, exposed
    /// for the adversarial test batteries. Compares behavior only:
    /// dynamic counts at extreme inputs can diverge
    /// between genuinely equivalent variants (input-dependent trip
    /// counts), and the cost half of the merge claim is already settled
    /// by the base-battery signature.
    pub fn differential(&mut self, a: &Function, b: &Function) -> bool {
        self.run_extended(a) == self.run_extended(b)
    }

    /// Runs the extended battery, keeping observations only.
    fn run_extended(&mut self, f: &Function) -> Vec<Observation> {
        self.machine.run_battery(f, &self.ext, self.fuel).into_iter().map(|(o, _)| o).collect()
    }
}

/// Builds the paranoid-escalation battery: deterministic overflow edges
/// the base battery's bounded draws (±2M) can never produce, then
/// full-range seeded draws. Inputs are *not* filtered against the
/// baseline — a trap is as good an observation as a value when the
/// question is "do these two instances agree?".
fn extended_battery(arity: usize, config: &SemanticConfig) -> Vec<Vec<i32>> {
    if arity == 0 {
        return vec![Vec::new()];
    }
    let mut inputs: Vec<Vec<i32>> = vec![
        vec![i32::MAX; arity],
        vec![i32::MIN; arity],
        (0..arity).map(|i| if i % 2 == 0 { i32::MAX } else { i32::MIN }).collect(),
        vec![1 << 30; arity],
        vec![-(1 << 30); arity],
        (0..arity).map(|i| [i32::MAX - 1, 1 << 20, -(1 << 28), 3][i % 4]).collect(),
    ];
    let mut rng = Rng::seed_from_u64(config.seed ^ 0x5E3A_0EC7);
    for _ in 0..config.battery.max(1) * 4 {
        inputs.push((0..arity).map(|_| rng.gen_range_i32(i32::MIN..i32::MAX)).collect());
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adversarial sources: each holds a pair `f`/`g` hand-built to agree
    /// on the base battery — same observations, same dynamic counts, same
    /// structural key — while diverging on the extended battery. These
    /// are exactly the collisions the paranoid escalation ladder exists
    /// to reject.
    const ADVERSARIAL_PAIRS: &[(&str, &str)] = &[
        // Seed-dependent branch: the bounded base draws (±2M) never take
        // the big-input arm, where the two functions return differently.
        (
            "seed-dependent branch",
            "int f(int a) { if (a > 3000000) return a + 7; return a + 1; }
             int g(int a) { if (a > 3000000) return a + 9; return a + 1; }",
        ),
        // Overflow edge: a/2 and a/4 land on the same side of the guard
        // for every base-range input, but i32::MAX separates them.
        (
            "overflow-edge divide",
            "int f(int a) { if (a / 2 < 600000000) return 1; return 0; }
             int g(int a) { if (a / 4 < 600000000) return 1; return 0; }",
        ),
        // Global-aliasing writes: the cold arm stores different values to
        // a global, visible only through the globals CRC on big inputs.
        (
            "global-aliasing writes",
            "int g0;
             int f(int a) { if (a > 3000000) { g0 = 1; } else { g0 = 2; } return a; }
             int g(int a) { if (a > 3000000) { g0 = 3; } else { g0 = 2; } return a; }",
        ),
    ];

    fn pair(src: &str) -> (Program, Function, Function) {
        let program = vpo_frontend::compile(src).unwrap();
        let f = program.function("f").unwrap().clone();
        let g = program.function("g").unwrap().clone();
        (program, f, g)
    }

    #[test]
    fn structural_key_counts_shape() {
        let program =
            vpo_frontend::compile("int f(int a, int b) { if (a > b) return a - b; return b - a; }")
                .unwrap();
        let f = program.function("f").unwrap();
        let k = StructuralKey::of(f);
        assert!(k.blocks >= 3, "branchy function has several blocks: {k:?}");
        assert!(k.insts > 0 && k.regs > 0);
        assert_eq!(k, StructuralKey::of(f));
    }

    #[test]
    fn signature_is_deterministic_across_contexts() {
        let program = vpo_frontend::compile("int f(int a) { return a * 3 + 1; }").unwrap();
        let f = program.function("f").unwrap();
        let config = SemanticConfig::default();
        let s1 = SemanticContext::new(&program, f, &config, false).signature(f);
        let s2 = SemanticContext::new(&program, f, &config, false).signature(f);
        assert_eq!(s1, s2);
    }

    #[test]
    fn signature_distinguishes_cost_not_just_behavior() {
        // Same input/output behavior, different code: the structural key
        // (and the per-entry dynamic counts) must keep them apart.
        let program = vpo_frontend::compile(
            "int f(int a) { return a + a; }
             int g(int a) { int t; t = a + a; return t + 0; }",
        )
        .unwrap();
        let f = program.function("f").unwrap();
        let g = program.function("g").unwrap();
        let mut ctx = SemanticContext::new(&program, f, &SemanticConfig::default(), false);
        assert_ne!(ctx.signature(f), ctx.signature(g));
    }

    #[test]
    fn flow_signatures_fall_back_to_simulation_where_inference_cannot_hold() {
        // One shape, three bodies: `t` traps on every input, so the first
        // run of the shape leaves nothing to infer from; `f` and `g` then
        // share the shape, and `g`'s loop body is one instruction longer,
        // which a tight fuel lets `f` fit and `g` not.
        let program = vpo_frontend::compile(
            "int t(int a) { int i; int s = 0; for (i = 0; i < 100; i++) s += a / (i - i); return s; }
             int f(int a) { int i; int s = 0; for (i = 0; i < 100; i++) s += a; return s; }
             int g(int a) { int i; int s = 0; for (i = 0; i < 100; i++) s += a ^ i; return s; }",
        )
        .unwrap();
        let [t, f, g] = ["t", "f", "g"].map(|n| program.function(n).unwrap());
        assert_eq!(control_flow_shape(f), control_flow_shape(g));
        assert_eq!(control_flow_shape(f), control_flow_shape(t));
        let mut ctx = SemanticContext::new(&program, f, &SemanticConfig::default(), false);
        let trapped = ctx.flow_signature(t);
        assert!(trapped.battery.iter().all(|(o, _)| o.is_err()));
        assert_eq!(trapped, ctx.signature(t));
        assert_eq!(ctx.flow_signature(f), ctx.signature(f), "trapped flow: simulated");

        let fuel = ctx.signature(f).battery[0].1 + 50;
        let config = SemanticConfig { fuel, ..SemanticConfig::default() };
        let mut ctx = SemanticContext::new(&program, f, &config, false);
        let sig_f = ctx.flow_signature(f);
        assert!(sig_f.battery.iter().all(|(o, _)| o.is_ok()));
        let sig_g = ctx.flow_signature(g);
        assert_eq!(sig_g.battery[0].0, Err(SimError::OutOfFuel), "inferred past the fuel");
        assert_eq!(sig_g, ctx.signature(g));
    }

    #[test]
    fn branch_sense_separates_control_flows_with_swapped_arms() {
        // Branch reversal and block reordering both lay the two arms of
        // the `if` out behind one conditional branch, in opposite
        // orders: the successor indices agree, but the block after the
        // branch is entered on opposite inputs. The arms differ in
        // length, so one memo entry for both would infer a wrong dynamic
        // count for whichever is signed second.
        let program = vpo_frontend::compile(
            "int h(int a) { int x = 0; if (a > 0) { x = 1; } else { return a * 3 + 7; } return 5; }",
        )
        .unwrap();
        let target = Target::default();
        let mut base = program.function("h").unwrap().clone();
        for phase in [PhaseId::InsnSelect, PhaseId::RegAlloc, PhaseId::DeadAssign] {
            assert!(attempt(&mut base, phase, &target).active, "{phase:?}");
        }
        let mut reversed = base.clone();
        assert!(attempt(&mut reversed, PhaseId::ReverseBranch, &target).active);
        let mut reordered = base.clone();
        assert!(attempt(&mut reordered, PhaseId::BlockReorder, &target).active);
        assert_eq!(
            vpo_rtl::cfg::control_flow_signature(&reversed),
            vpo_rtl::cfg::control_flow_signature(&reordered),
            "one control flow for the paper's CF statistic"
        );
        assert_ne!(control_flow_shape(&reversed), control_flow_shape(&reordered));
        for (first, second) in [(&reversed, &reordered), (&reordered, &reversed)] {
            let mut ctx = SemanticContext::new(&program, &base, &SemanticConfig::default(), false);
            assert_eq!(ctx.flow_signature(first), ctx.signature(first));
            assert_eq!(ctx.flow_signature(second), ctx.signature(second));
        }
    }

    #[test]
    fn extended_battery_reaches_overflow_edges() {
        let config = SemanticConfig::default();
        let ext = extended_battery(2, &config);
        assert!(ext.contains(&vec![i32::MAX, i32::MAX]));
        assert!(ext.contains(&vec![i32::MIN, i32::MIN]));
        assert_eq!(ext.len(), 6 + config.battery.max(1) * 4);
        // Zero-arity functions still get one (empty) entry.
        assert_eq!(extended_battery(0, &config), vec![Vec::<i32>::new()]);
    }

    #[test]
    fn adversarial_pairs_collide_on_base_battery_and_diverge_extended() {
        for (name, src) in ADVERSARIAL_PAIRS {
            let (program, f, g) = pair(src);
            let mut ctx = SemanticContext::new(&program, &f, &SemanticConfig::default(), true);
            // The pair is a genuine base-battery collision…
            assert_eq!(ctx.signature(&f), ctx.signature(&g), "{name}: base batteries differ");
            // …and the extended battery separates it.
            assert!(!ctx.differential(&f, &g), "{name}: extended battery failed to separate");
        }
    }

    #[test]
    fn paranoid_escalation_rejects_adversarial_merges() {
        for (name, src) in ADVERSARIAL_PAIRS {
            let (program, f, g) = pair(src);
            let config = SemanticConfig::default();
            // Without escalation the collision silently merges — this is
            // the unsoundness paranoid mode exists to reject.
            let mut lax = SemanticContext::new(&program, &f, &config, false);
            let sig_f = lax.signature(&f);
            lax.register(sig_f, NodeId(0), &Arc::new(f.clone()));
            let sig_g = lax.signature(&g);
            assert_eq!(lax.resolve(&sig_g, &g), (Resolution::Merge(NodeId(0)), 0), "{name}");
            // With escalation the hit is re-executed on the extended
            // battery and refused.
            let mut ctx = SemanticContext::new(&program, &f, &config, true);
            let sig_f = ctx.signature(&f);
            ctx.register(sig_f, NodeId(0), &Arc::new(f.clone()));
            let sig_g = ctx.signature(&g);
            assert_eq!(
                ctx.resolve(&sig_g, &g),
                (Resolution::Fresh { collided: true }, 1),
                "{name}: escalation accepted a collision"
            );
            // The refuted candidate founds a second representative of the
            // same signature class; an exact copy of it now merges into
            // that representative, not the first.
            ctx.register(sig_g.clone(), NodeId(1), &Arc::new(g.clone()));
            assert_eq!(
                ctx.resolve(&sig_g, &g),
                (Resolution::Merge(NodeId(1)), 1),
                "{name}: second representative not matched"
            );
            assert_eq!(ctx.class_count(), 1, "{name}: collision must not add a class");
        }
    }
}
