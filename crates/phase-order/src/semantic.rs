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
//! Signatures are computed in a **sign stage** at each level barrier,
//! between expansion and merge. Once a level's last expansion lands, the
//! campaign driver ([`crate::campaign`]) scans the level's attempt
//! records in frontier order and collects every fingerprint-fresh
//! identity — exactly the candidates the serial merge would sign — with
//! the frontier-first body that carries it. Workers sign those bodies in
//! parallel, each on its own simulator, outside the scheduler
//! lock; the merge then runs serially in frontier order on the
//! precomputed signatures. Class lookup, paranoid escalation and the
//! pruned tier's lookahead all stay in that serial merge, so the
//! semantic tier inherits the bit-identical-for-any-job-count guarantee
//! of the fingerprint tier unchanged, and the set of signed identities —
//! hence the simulator work — does not depend on the job count either.
//! A pruned-tier search never signs one identity twice: every signature
//! its sign stage or lookahead computes is memoized by canonical
//! identity, on the premise that a signature depends only on the
//! canonical instance. A level the
//! `max_level_width` bound truncates may sign candidates the serial
//! merge never reaches (their parents are cut off mid-level); that count
//! is still the same for any job count.

use std::collections::HashMap;
use std::sync::Arc;

use vpo_opt::facts::Facts;
use vpo_opt::{attempt, PhaseId, Target};
use vpo_rtl::canon::{Canonicalizer, Fingerprint};
use vpo_rtl::rng::Rng;
use vpo_rtl::{Expr, FuncFlags, Function, Program, Reg};
use vpo_sim::{BatteryOutcome, Machine};

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

/// Computes the behavioral signature of `f`: its structural key plus the
/// outcome of running the base battery `inputs` on `machine` under
/// `fuel`. The one signing routine: [`SemanticContext::signature`] runs
/// it on the context's own simulator, the campaign's sign stage on each
/// worker's.
pub(crate) fn sign(
    machine: &mut Machine<'_>,
    f: &Function,
    inputs: &[Vec<i32>],
    fuel: u64,
) -> Signature {
    let battery = machine.run_battery(f, inputs, fuel);
    Signature { structure: StructuralKey::of(f), battery }
}

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
/// block cache stays warm across every lookahead and escalation in the
/// space), the two batteries, the class table and the signature memo.
pub struct SemanticContext<'p> {
    machine: Machine<'p>,
    fuel: u64,
    paranoid: bool,
    /// Base battery: the oracle's baseline-clean seeded inputs. Shared
    /// with the sign stage's workers.
    base: Arc<[Vec<i32>]>,
    /// Extended battery for paranoid escalation: overflow edges and
    /// full-range draws, *not* filtered for baseline cleanliness (the
    /// comparison is candidate-vs-representative, so traps count too).
    ext: Vec<Vec<i32>>,
    classes: HashMap<Signature, Vec<ClassRep>>,
    /// Signatures by canonical identity, filled by the pruned tier: every
    /// lookahead successor's and every sign-stage candidate's, so no
    /// identity is simulated twice.
    memo: HashMap<(Fingerprint, FuncFlags), Signature>,
    /// Fingerprints the lookahead's successors.
    canon: Canonicalizer,
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
            base: base.into(),
            ext: extended_battery(f.params.len(), config),
            classes: HashMap::new(),
            memo: HashMap::new(),
            canon: Canonicalizer::new(),
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

    /// The base battery, shared: the sign stage's workers run it on
    /// their own simulators.
    pub(crate) fn shared_inputs(&self) -> Arc<[Vec<i32>]> {
        Arc::clone(&self.base)
    }

    /// The dynamic-instruction budget of each battery run.
    pub(crate) fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Computes the behavioral signature of a function instance.
    pub fn signature(&mut self, f: &Function) -> Signature {
        sign(&mut self.machine, f, &self.base, self.fuel)
    }

    /// The signature already computed for the canonical identity
    /// `(fp, flags)` in this search, if any.
    pub(crate) fn memoized(&self, fp: Fingerprint, flags: FuncFlags) -> Option<&Signature> {
        self.memo.get(&(fp, flags))
    }

    /// Records the signature computed for the canonical identity
    /// `(fp, flags)`.
    pub(crate) fn memoize(&mut self, fp: Fingerprint, flags: FuncFlags, sig: Signature) {
        self.memo.insert((fp, flags), sig);
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
    /// potentially-active phase plus, per *active* one, a fingerprint and
    /// a battery run unless the successor's identity was already signed
    /// in this search — the same work expanding the candidate would have
    /// spent, traded for skipping the candidate's entire subtree. Each
    /// new successor signature is memoized, so the sign stage never
    /// simulates it again when expansion reaches that identity.
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
            let fp = self.canon.fingerprint_into(&step);
            let (machine, base, fuel) = (&mut self.machine, &self.base, self.fuel);
            let sig = self
                .memo
                .entry((fp, step.flags))
                .or_insert_with(|| sign(machine, &step, base, fuel));
            let Some(reps) = self.classes.get(sig) else {
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
