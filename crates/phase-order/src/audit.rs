//! Quotient-loss audit (`vpoc audit-quotient`): runs the annotation and
//! pruned semantic tiers side by side on a function whose full DAG is
//! enumerable, quantifying exactly what subsumption pruning trades away
//! — signature classes reachable only through pruned subtrees, node and
//! wall savings — and what it must never trade away: the optimal leaf.
//!
//! Class loss is *expected*: behavioral signatures include dynamic
//! profiles, so a pruned subtree can contain classes found nowhere else,
//! and skipping it makes them unreachable. That loss is a reported
//! quantity, not a defect. The soundness property the audit gates on is
//! optimum preservation — the pruned tier's best discovered instance
//! ([`BestInstance`]) must match the annotation tier's in static code
//! size *and* in dynamic instruction count over a shared input battery
//! (DESIGN §4.2.2). Any drift is an unsound prune and fails the audit.

use std::time::Duration;

use vpo_opt::Target;
use vpo_rtl::{Function, Program};
use vpo_sim::Machine;

use crate::enumerate::{enumerate_tier, rematerialize, sequence_letters, Config, Enumeration};
use crate::oracle;
use crate::request::MergeTier;
use crate::semantic::SemanticConfig;

/// One tier's code-size optimum: the minimum-static-size instance over
/// *all* discovered instances (stopping early is a valid ordering, and
/// the smallest instance frequently sits at an interior node where a
/// code-growing phase is still active), ties broken by the smallest
/// dynamic instruction count over the shared audit battery. The pruned
/// search explores a sub-DAG of the annotation search, so its optimum
/// can only drift upward — and zero drift means the optimal instance
/// was discovered despite the pruning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BestInstance {
    /// Active phase sequence reaching the instance, in paper letters.
    pub sequence: String,
    /// Static instruction count of the instance.
    pub inst_count: u32,
    /// Dynamic instructions summed over the audit battery inputs.
    pub dynamic: u64,
}

/// Side-by-side comparison of the pruned tier against the annotation
/// tier on one function, produced by [`audit_function`].
#[derive(Debug, Clone)]
pub struct QuotientAudit {
    /// Function name.
    pub name: String,
    /// Whether the annotation-tier search completed within bounds.
    pub ann_complete: bool,
    /// Whether the pruned-tier search completed within bounds.
    pub pruned_complete: bool,
    /// Nodes in the annotation-tier space (equals the fingerprint
    /// tier's node count — annotation never drops nodes).
    pub ann_nodes: usize,
    /// Nodes in the pruned-tier space (pruned placeholders included).
    pub pruned_nodes: usize,
    /// Signature classes in the annotation-tier space.
    pub ann_classes: usize,
    /// Signature classes in the pruned-tier space.
    pub pruned_classes: usize,
    /// Subtrees skipped by subsumption ([`crate::enumerate::SearchStats::sem_prunes`]).
    pub prunes: u64,
    /// Signature-matched candidates expanded anyway because their mask
    /// was not subsumed ([`crate::enumerate::SearchStats::sem_mask_fallbacks`]).
    pub mask_fallbacks: u64,
    /// Wall-clock of the annotation-tier search.
    pub ann_wall: Duration,
    /// Wall-clock of the pruned-tier search.
    pub pruned_wall: Duration,
    /// Annotation-tier optimum over all discovered instances (`None`
    /// only for an empty space, which cannot happen: the root is always
    /// discovered).
    pub ann_best: Option<BestInstance>,
    /// Pruned-tier optimum over all discovered instances.
    pub pruned_best: Option<BestInstance>,
}

impl QuotientAudit {
    /// Signature classes reachable only through pruned subtrees.
    pub fn classes_lost(&self) -> usize {
        self.ann_classes.saturating_sub(self.pruned_classes)
    }

    /// Nodes the pruned tier never materialized.
    pub fn node_savings(&self) -> usize {
        self.ann_nodes.saturating_sub(self.pruned_nodes)
    }

    /// Static code-size drift of the pruned optimum relative to the
    /// annotation optimum (positive = pruning lost the optimum).
    pub fn static_drift(&self) -> i64 {
        match (&self.pruned_best, &self.ann_best) {
            (Some(p), Some(a)) => i64::from(p.inst_count) - i64::from(a.inst_count),
            _ => 0,
        }
    }

    /// Dynamic instruction-count drift of the pruned optimum over the
    /// shared battery.
    pub fn dynamic_drift(&self) -> i64 {
        match (&self.pruned_best, &self.ann_best) {
            (Some(p), Some(a)) => p.dynamic as i64 - a.dynamic as i64,
            _ => 0,
        }
    }

    /// Whether the optima are comparable: both searches completed. A
    /// truncated annotation tier has no ground truth to audit against
    /// (the pruned tier completing where annotation truncates is the
    /// *point* of the mode, not a violation).
    pub fn comparable(&self) -> bool {
        self.ann_complete && self.pruned_complete
    }

    /// An unsound prune: the searches are comparable and the pruned
    /// optimum drifted from the annotation optimum, statically or
    /// dynamically — some skipped subtree held a strictly better leaf.
    pub fn unsound(&self) -> bool {
        self.comparable()
            && (self.static_drift() != 0
                || self.dynamic_drift() != 0
                || self.pruned_best.is_some() != self.ann_best.is_some())
    }
}

fn best_instance(
    e: &Enumeration,
    program: &Program,
    root: &Function,
    target: &Target,
    inputs: &[Vec<i32>],
    config: &SemanticConfig,
) -> Option<BestInstance> {
    let min = e.space.iter().map(|(_, n)| n.inst_count).min()?;
    let mut m = Machine::with_mem_size(program, config.mem_size);
    // Every static-min instance is executed, so the dynamic tie-break
    // is independent of node numbering — which differs between the two
    // spaces even where the instances coincide.
    let mut best: Option<BestInstance> = None;
    for (id, n) in e.space.iter().filter(|(_, n)| n.inst_count == min) {
        let f = rematerialize(root, target, &e.space, id);
        let dynamic = m.run_battery(&f, inputs, config.fuel).iter().map(|(_, d)| d).sum();
        if best.as_ref().is_none_or(|b| dynamic < b.dynamic) {
            best = Some(BestInstance {
                sequence: sequence_letters(&e.space.discovery_sequence(id)),
                inst_count: n.inst_count,
                dynamic,
            });
        }
    }
    best
}

/// Enumerates `f` under the annotation ([`MergeTier::Semantic`]) and
/// pruned ([`MergeTier::SemanticPruned`]) tiers and compares them. The
/// dynamic counts of both optima are measured on the *same* battery —
/// built once from the unoptimized baseline with the signature tier's
/// parameters — so a nonzero
/// [`QuotientAudit::dynamic_drift`] can only come from the leaves
/// differing, never from input skew. Ticks the `audit.functions` and
/// `audit.unsound_prunes` telemetry counters.
pub fn audit_function(
    program: &Program,
    f: &Function,
    target: &Target,
    config: &Config,
    sem_config: &SemanticConfig,
) -> QuotientAudit {
    let (inputs, _, _) = oracle::build_battery(program, f, sem_config);
    let run = |tier| enumerate_tier(tier, Some(program), f, target, config, sem_config);
    let ann = run(MergeTier::Semantic);
    let pruned = run(MergeTier::SemanticPruned);

    let audit = QuotientAudit {
        name: f.name.clone(),
        ann_complete: ann.outcome.is_complete(),
        pruned_complete: pruned.outcome.is_complete(),
        ann_nodes: ann.space.len(),
        pruned_nodes: pruned.space.len(),
        ann_classes: ann.space.sem_class_count(),
        pruned_classes: pruned.space.sem_class_count(),
        prunes: pruned.stats.sem_prunes,
        mask_fallbacks: pruned.stats.sem_mask_fallbacks,
        ann_wall: ann.stats.elapsed,
        pruned_wall: pruned.stats.elapsed,
        ann_best: best_instance(&ann, program, f, target, &inputs, sem_config),
        pruned_best: best_instance(&pruned, program, f, target, &inputs, sem_config),
    };
    let t = crate::telemetry::global();
    t.audit_functions.inc();
    if audit.unsound() {
        t.audit_unsound_prunes.inc();
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_is_sound_and_reports_savings_on_a_loop_kernel() {
        let program = mibench::find("bitcount").unwrap().compile().unwrap();
        let f = program.function("bit_count").unwrap().clone();
        let a = audit_function(
            &program,
            &f,
            &Target::default(),
            &Config::default(),
            &SemanticConfig::default(),
        );
        assert!(a.comparable());
        assert!(!a.unsound(), "subsumption pruning lost the optimum: {a:?}");
        assert_eq!(a.static_drift(), 0);
        assert_eq!(a.dynamic_drift(), 0);
        assert!(a.prunes > 0, "a loop kernel must exercise the prune path");
        assert!(a.pruned_nodes < a.ann_nodes, "pruning must shrink the space");
        // Classes may be lost (dynamic profiles live in pruned subtrees)
        // but never gained.
        assert!(a.pruned_classes <= a.ann_classes);
    }

    #[test]
    fn drift_signs_follow_the_pruned_minus_annotation_convention() {
        let base = BestInstance { sequence: "s".into(), inst_count: 10, dynamic: 100 };
        let worse = BestInstance { sequence: "c".into(), inst_count: 12, dynamic: 140 };
        let a = QuotientAudit {
            name: "t".into(),
            ann_complete: true,
            pruned_complete: true,
            ann_nodes: 10,
            pruned_nodes: 8,
            ann_classes: 6,
            pruned_classes: 5,
            prunes: 2,
            mask_fallbacks: 1,
            ann_wall: Duration::ZERO,
            pruned_wall: Duration::ZERO,
            ann_best: Some(base.clone()),
            pruned_best: Some(worse),
        };
        assert_eq!(a.static_drift(), 2);
        assert_eq!(a.dynamic_drift(), 40);
        assert!(a.unsound());
        assert_eq!(a.classes_lost(), 1);
        assert_eq!(a.node_savings(), 2);

        // Identical optima: sound.
        let sound = QuotientAudit { pruned_best: Some(base.clone()), ..a.clone() };
        assert!(!sound.unsound());

        // Truncated annotation tier: not comparable, hence never unsound.
        let truncated = QuotientAudit { ann_complete: false, ..a };
        assert!(!truncated.comparable());
        assert!(!truncated.unsound());
    }
}
