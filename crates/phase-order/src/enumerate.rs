//! The exhaustive enumeration algorithm of Section 4.
//!
//! The space of *attempted* phase sequences is astronomically large (15^n
//! for sequences of length n), but the space of *distinct function
//! instances* is tiny by comparison. The algorithm explores level by level
//! (level n holds the instances whose shortest active sequence has length
//! n), pruning with:
//!
//! 1. **Dormant phase detection** (Section 4.1) — attempts that do not
//!    change the representation create no new sequence prefix; a phase
//!    that was just active is not re-attempted (no phase in this compiler
//!    can be successfully applied twice in a row — each runs to its own
//!    fixpoint).
//! 2. **Identical instance detection** (Section 4.2) — every produced
//!    instance is canonicalized (registers and labels renumbered in
//!    first-encounter order) and fingerprinted with (instruction count,
//!    byte sum, CRC-32); known instances merge the tree into a DAG.
//!
//! Candidates are evaluated by **prefix sharing** (Section 4.3), the only
//! evaluation strategy: each frontier instance stays materialized, so a
//! child costs exactly one phase application. Figure 6's naive baseline,
//! which replays the whole active sequence from the unoptimized function
//! for every attempt, is measured over a finished space by `figures fig6`.
//!
//! # Parallel enumeration
//!
//! Every entry point runs the search as a single task on the campaign
//! driver's worker pool ([`crate::campaign`]), with [`Config::jobs`]
//! workers (`0` and `1` both expand on the calling thread). Workers
//! expand parents independently (phase application, canonicalization,
//! fingerprinting — all the expensive work); at the level barrier the
//! worker that deposits the level's last parent **merges** the
//! per-parent attempt records in frontier order, phase order, so node
//! ids, `active_mask`s, edges, weights and [`SearchStats`] counters are
//! bit-identical for any job count. On a semantic merge tier the merge
//! also signs each fingerprint-fresh candidate by control flow
//! ([`crate::semantic`]). The same driver runs multi-function
//! campaigns, stealing parent expansions across functions; one
//! expand/merge core serves both.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use vpo_opt::facts::Facts;
use vpo_opt::{attempt, PhaseId, Target};
use vpo_rtl::canon::{Canonicalizer, Fingerprint};
use vpo_rtl::cfg::control_flow_signature;
use vpo_rtl::{FuncFlags, Function, Program};

use crate::campaign::{enumerate_all, CampaignConfig, FunctionTask};
use crate::request::MergeTier;
use crate::semantic::{Resolution, SemanticConfig, SemanticContext, Signature};
use crate::space::{Node, NodeId, SearchSpace};

/// Enumeration limits and options.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Config {
    /// Abort when the number of instances awaiting expansion at one level
    /// exceeds this bound (the paper used one million).
    pub max_level_width: usize,
    /// Hard cap on the number of distinct instances: the enumeration
    /// aborts *before* an insertion would exceed it, so `space.len()`
    /// never exceeds this value.
    pub max_nodes: usize,
    /// Verify fingerprint hits by full canonical-byte comparison and
    /// record any collision (none have ever been observed, matching the
    /// paper). In this mode the canonical bytes of *every* node are
    /// retained; a fingerprint hit against a node with no recorded bytes
    /// is an internal invariant violation and panics.
    pub paranoid: bool,
    /// Do not re-attempt the phase that produced an instance (the paper's
    /// Figure 2 shortcut). VPO guarantees a phase is never successful twice
    /// in a row; in this compiler the implicit block normalization can
    /// occasionally re-enable the very phase that just ran, so the shortcut
    /// is off by default and exists for fidelity experiments.
    pub skip_just_applied: bool,
    /// Worker threads for [`enumerate`]: `0` (the default) and `1`
    /// expand on the calling thread, `N` on a pool of `N` workers. The
    /// result is identical for any value; only wall-clock time differs.
    pub jobs: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_level_width: 1_000_000,
            max_nodes: 4_000_000,
            paranoid: false,
            skip_just_applied: false,
            jobs: 0,
        }
    }
}

/// Whether the enumeration ran to completion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SearchOutcome {
    /// Every reachable instance was expanded.
    Complete,
    /// The space exceeded a configured bound at the given level.
    TooBig {
        /// Level at which the bound was hit.
        level: u32,
    },
}

impl SearchOutcome {
    /// Whether the search completed.
    pub fn is_complete(&self) -> bool {
        matches!(self, SearchOutcome::Complete)
    }
}

/// Search totals.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Optimization phases attempted, including dormant ones (`Attempt
    /// Phases` in Table 3).
    pub attempted_phases: u64,
    /// Attempts that were active.
    pub active_attempts: u64,
    /// Wall-clock duration of the search.
    pub elapsed: Duration,
    /// Fingerprint collisions detected in paranoid mode (expected 0).
    pub collisions: u64,
    /// Fingerprint-fresh instances merged by the semantic tier (always 0
    /// under the fingerprint tier).
    pub sem_merges: u64,
    /// Signature hits *rejected* by paranoid escalation: the battery
    /// collided on behaviorally different code (expected 0).
    pub sem_collisions: u64,
    /// Signature hits escalated to extended-battery differential
    /// re-execution (paranoid mode only).
    pub sem_escalations: u64,
    /// Merged instances whose expansion was *skipped* by the pruned tier
    /// (signature matched and the one-step lookahead confirmed every
    /// phase firing on the candidate lands in the same class as the
    /// representative's corresponding child; always 0 outside
    /// `--merge-tier semantic-pruned`). Every prune is also counted in
    /// [`SearchStats::sem_merges`].
    pub sem_prunes: u64,
    /// Merged instances the pruned tier expanded anyway: the
    /// representative was not yet expanded (same level) or had no child
    /// for a phase the candidate fires, a successor landed in a
    /// different class, or the candidate had no active phase at all — a
    /// genuine leaf, kept visible rather than pruned (always 0 outside
    /// `--merge-tier semantic-pruned`). Under the pruned tier,
    /// `sem_merges == sem_prunes + sem_mask_fallbacks`.
    pub sem_mask_fallbacks: u64,
}

/// The result of enumerating one function's phase-order space.
#[derive(Clone, Debug)]
pub struct Enumeration {
    /// The weighted DAG of distinct instances.
    pub space: SearchSpace,
    /// Whether the search completed.
    pub outcome: SearchOutcome,
    /// Cost counters.
    pub stats: SearchStats,
}

/// One instance awaiting expansion: its node and its materialized
/// function. The function is shared, not owned: expansion only reads it,
/// and the campaign driver hands entries to workers without deep-copying
/// under its scheduler lock.
#[derive(Clone)]
pub(crate) struct FrontierEntry {
    pub(crate) id: NodeId,
    pub(crate) func: Arc<Function>,
}

/// The outcome of one phase attempt on one parent, recorded by the
/// expansion step and consumed by the merge step.
pub(crate) enum AttemptRecord {
    /// The phase did not change the representation.
    Dormant {
        /// The attempt was proven dormant by a [`Facts`] prefilter — the
        /// phase never ran and nothing was cloned. Counted by the
        /// deterministic `enumerate.prefilter_dormant` telemetry counter
        /// at merge time.
        prefiltered: bool,
    },
    /// The phase was active and produced a candidate instance.
    Active {
        phase: PhaseId,
        fp: Fingerprint,
        flags: FuncFlags,
        inst_count: u32,
        cf_sig: u64,
        /// The candidate function — carried only when the identity is
        /// neither in the space nor already carried by the producing
        /// worker in this level, a superset of the occurrences the merge
        /// step actually inserts.
        func: Option<Arc<Function>>,
        /// Canonical serialization, present iff `Config::paranoid`.
        bytes: Option<Vec<u8>>,
    },
}

/// Per-worker reusable expansion state: the scratch `Function` that every
/// candidate is materialized into, and the canonicalization workspace.
///
/// Steady-state expansion performs no heap allocation per attempt: the
/// scratch function is restored from the parent with
/// [`Function::copy_from`] (reusing block/instruction/operand
/// allocations), and fingerprints reuse the canonicalizer's maps and byte
/// buffer. The only unavoidable allocation is promoting a *newly
/// discovered* instance out of the scratch buffer into the frontier
/// (`mem::take`), which happens once per distinct instance, not once per
/// attempt.
pub(crate) struct ExpandScratch {
    func: Function,
    canon: Canonicalizer,
    /// `func` holds a previous attempt's buffers (a warm restore).
    warm: bool,
    /// `canon` has serialized at least once (its buffers are warm).
    canon_warm: bool,
}

impl ExpandScratch {
    pub(crate) fn new() -> Self {
        ExpandScratch {
            func: Function::default(),
            canon: Canonicalizer::new(),
            warm: false,
            canon_warm: false,
        }
    }
}

/// Expands one parent: attempts every (non-skipped) phase and records the
/// outcomes in phase order. `known` reports whether an identity is
/// already catalogued; when it is, the candidate function is dropped
/// instead of carried (pure memory optimization — the merge step decides
/// insertion independently). `scratch` is the calling worker's reusable
/// expansion state.
pub(crate) fn expand_parent(
    target: &Target,
    config: &Config,
    parent_fn: &Function,
    skip: Option<PhaseId>,
    mut known: impl FnMut(Fingerprint, FuncFlags) -> bool,
    scratch: &mut ExpandScratch,
) -> Vec<AttemptRecord> {
    // One fact summary covers all 15 attempts of this parent.
    let facts = Facts::of(parent_fn);
    let (mut reuse_hits, mut bytes_reused) = (0u64, 0u64);
    let ExpandScratch { func: buf, canon, warm, canon_warm } = scratch;
    let mut records = Vec::with_capacity(PhaseId::COUNT);
    for phase in PhaseId::ALL {
        // Optional Figure 2 shortcut: the phase that just produced this
        // instance is not re-attempted.
        if Some(phase) == skip {
            continue;
        }
        // Sound prefilter: a provably-dormant phase is recorded dormant
        // without materializing a candidate or running anything.
        if !phase.can_be_active(&facts) {
            records.push(AttemptRecord::Dormant { prefiltered: true });
            continue;
        }
        if *warm {
            reuse_hits += 1;
        }
        buf.copy_from(parent_fn);
        *warm = true;
        if !attempt(buf, phase, target).active {
            records.push(AttemptRecord::Dormant { prefiltered: false });
            continue;
        }
        let fp = canon.fingerprint_into(buf);
        if *canon_warm {
            bytes_reused += canon.bytes().len() as u64;
        }
        *canon_warm = true;
        let bytes = config.paranoid.then(|| canon.bytes().to_vec());
        let flags = buf.flags;
        let inst_count = buf.inst_count() as u32;
        let cf_sig = control_flow_signature(buf);
        let func = if known(fp, flags) {
            None
        } else {
            // First sighting of this identity in this worker's stream:
            // the candidate must outlive the attempt, so the scratch
            // buffer is stolen (the next restore starts cold).
            *warm = false;
            Some(Arc::new(std::mem::take(buf)))
        };
        records.push(AttemptRecord::Active { phase, fp, flags, inst_count, cf_sig, func, bytes });
    }
    if reuse_hits > 0 || bytes_reused > 0 {
        let tm = crate::telemetry::global();
        tm.scratch_reuse_hits.add(reuse_hits);
        tm.canon_bytes_reused.add(bytes_reused);
    }
    records
}

/// How one active attempt resolves against the space — computed up front
/// (it drives the `max_nodes` cap check) and consumed when the record is
/// folded in. Every outcome but a hit inserts a node.
enum Disposition {
    /// Fingerprint hit on a node of the space: a `children` edge.
    Hit(NodeId),
    /// A new node under the fingerprint tier.
    Fresh,
    /// A new node whose signature founded a new class: register the node
    /// under it.
    Founder(Signature),
    /// A new node whose signature matched an established class
    /// (surviving escalation in paranoid mode). Under the annotation tier
    /// (`pruned: false`) the node is expanded exactly as under the
    /// fingerprint tier — signature equality is not a congruence under
    /// phase application, so blind pruning would lose classes — and
    /// annotated via a `sem_children` edge on the parent. Under the
    /// pruned tier, when the one-step lookahead also subsumes the
    /// candidate's realized successors (`pruned: true`), the node's
    /// expansion is skipped: the edge goes to the parent's
    /// `pruned_children` instead, and the node never reaches the next
    /// frontier.
    Merged { rep: NodeId, pruned: bool },
}

/// Folds one parent's attempt records into the space, in phase order —
/// the single code path that assigns node ids and counts statistics,
/// and (when `sem` is given) the only place the semantic merge tier
/// decides, pruning subsumed merges when the run's
/// [`CampaignConfig::sem_pruned`] is set: merge happens serially in
/// frontier order even under parallel enumeration, so signing, class
/// lookups, paranoid escalation and the pruned tier's lookahead inherit
/// the bit-identical-for-any-job-count guarantee without any extra
/// synchronization. Each fingerprint-fresh candidate is signed here by
/// control flow: a memo lookup and a sum, or one counted battery for the
/// first instance of a control flow ([`crate::semantic`]). The annotation tier never changes which nodes
/// exist or how they connect — the space is bit-identical to the
/// fingerprint tier's — it only *annotates* the quotient (sem edges,
/// class counts) on top.
///
/// Returns `false` if the `max_nodes` cap was hit: the search is
/// truncated just *before* the offending attempt (its phase is neither
/// counted nor recorded in the parent's mask), so `space.len()` never
/// exceeds the cap — at the identical truncation point under either
/// merge tier.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_parent(
    space: &mut SearchSpace,
    stats: &mut SearchStats,
    paranoid_bytes: &mut HashMap<(Fingerprint, FuncFlags), Vec<u8>>,
    config: &CampaignConfig,
    target: &Target,
    level: u32,
    parent: &FrontierEntry,
    records: Vec<AttemptRecord>,
    next: &mut Vec<FrontierEntry>,
    mut sem: Option<&mut SemanticContext<'_>>,
) -> bool {
    let tm = crate::telemetry::global();
    let mut active_mask = 0u16;
    let mut children = Vec::new();
    let mut sem_edges = Vec::new();
    let mut pruned_edges = Vec::new();
    let mut complete = true;
    // Telemetry is batched into locals and flushed once per parent so the
    // merge loop touches no shared cache line per record.
    let (mut tm_attempted, mut tm_active, mut tm_hits, mut tm_inserted, mut tm_prefiltered) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut tm_sem_hits, mut tm_sem_collisions, mut tm_sem_escalations) = (0u64, 0u64, 0u64);
    let (mut tm_sem_prunes, mut tm_sem_fallbacks) = (0u64, 0u64);
    for mut record in records {
        // Resolve the identity once per active record: the same
        // resolution drives the cap check here and the edge recording
        // below. The semantic tier runs only on fingerprint misses — a
        // fingerprint-fresh candidate's signature either matches an
        // established class (merge: no insertion, a dashed edge, an
        // alias) or founds a new one.
        let disposition = match &mut record {
            AttemptRecord::Active { fp, flags, func, .. } => {
                let d = match space.find(*fp, *flags) {
                    Some(id) => Disposition::Hit(id),
                    None => match sem.as_deref_mut() {
                        Some(sem) => {
                            let cand = func
                                .as_ref()
                                .expect("first discovery of an instance carries its function");
                            let sig = sem.flow_signature(cand);
                            let (res, escalated) = sem.resolve(&sig, cand);
                            stats.sem_escalations += escalated;
                            tm_sem_escalations += escalated;
                            match res {
                                Resolution::Merge(rep) => {
                                    // Pruned tier: skip expansion only when
                                    // the candidate's realized active-phase
                                    // set is subsumed by the (already
                                    // expanded) representative's — every
                                    // phase that actually fires on the
                                    // candidate has a child at the
                                    // representative landing in the *same
                                    // behavioral class* as the candidate's
                                    // own result for that phase
                                    // ([`SemanticContext::subsumes`]). The
                                    // level barrier is what makes the
                                    // representative's edge list exact here:
                                    // merges run serially after every
                                    // earlier-level node was expanded, so a
                                    // same-level representative has no
                                    // children yet and never subsumes.
                                    let pruned =
                                        config.sem_pruned && sem.subsumes(cand, space, rep, target);
                                    Disposition::Merged { rep, pruned }
                                }
                                Resolution::Fresh { collided } => {
                                    if collided {
                                        stats.sem_collisions += 1;
                                        tm_sem_collisions += 1;
                                    }
                                    Disposition::Founder(sig)
                                }
                            }
                        }
                        None => Disposition::Fresh,
                    },
                };
                if !matches!(d, Disposition::Hit(_)) && space.len() >= config.enumerate.max_nodes {
                    complete = false;
                    break;
                }
                Some(d)
            }
            AttemptRecord::Dormant { .. } => None,
        };
        stats.attempted_phases += 1;
        tm_attempted += 1;
        let (phase, fp, flags, inst_count, cf_sig, func, mut bytes) = match record {
            AttemptRecord::Dormant { prefiltered } => {
                if prefiltered {
                    tm_prefiltered += 1;
                }
                continue;
            }
            AttemptRecord::Active { phase, fp, flags, inst_count, cf_sig, func, bytes, .. } => {
                (phase, fp, flags, inst_count, cf_sig, func, bytes)
            }
        };
        stats.active_attempts += 1;
        tm_active += 1;
        active_mask |= 1 << phase.index();
        // Paranoid byte comparison is keyed by *identity*, not node: an
        // identity the semantic tier merged away still has its canonical
        // bytes on record, so CRC-collision checking stays complete
        // under both tiers.
        let check_bytes = |paranoid_bytes: &mut HashMap<(Fingerprint, FuncFlags), Vec<u8>>,
                           bytes: &mut Option<Vec<u8>>,
                           stats: &mut SearchStats| {
            if config.enumerate.paranoid {
                let recorded = paranoid_bytes.get(&(fp, flags)).unwrap_or_else(|| {
                    panic!("paranoid mode: no canonical bytes recorded for fingerprint hit")
                });
                if *recorded != bytes.take().expect("paranoid attempt carries bytes") {
                    stats.collisions += 1;
                }
            }
        };
        match disposition.expect("active record resolved above") {
            Disposition::Hit(existing) => {
                tm_hits += 1;
                check_bytes(paranoid_bytes, &mut bytes, stats);
                children.push((phase, existing));
            }
            res => {
                tm_inserted += 1;
                let skip_expansion = matches!(res, Disposition::Merged { pruned: true, .. });
                let id = space.insert(Node {
                    fp,
                    flags,
                    level,
                    inst_count,
                    cf_sig,
                    active_mask: 0,
                    children: Vec::new(),
                    sem_children: Vec::new(),
                    pruned_children: Vec::new(),
                    pruned: skip_expansion,
                    discovered_from: Some((parent.id, phase)),
                    weight: 0,
                });
                if config.enumerate.paranoid {
                    paranoid_bytes
                        .insert((fp, flags), bytes.take().expect("paranoid attempt carries bytes"));
                }
                let func = func.expect("first discovery of an instance carries its function");
                match res {
                    // A fingerprint-tier node joins no class; hits took
                    // the arm above.
                    Disposition::Hit(_) | Disposition::Fresh => {}
                    Disposition::Founder(sig) => {
                        sem.as_deref_mut()
                            .expect("signature implies the semantic tier is on")
                            .register(sig, id, &func);
                    }
                    Disposition::Merged { rep, pruned } => {
                        stats.sem_merges += 1;
                        tm_sem_hits += 1;
                        if pruned {
                            // Subsumed: record the dotted edge and keep
                            // the node off the next frontier.
                            pruned_edges.push((phase, rep));
                            stats.sem_prunes += 1;
                            tm_sem_prunes += 1;
                        } else {
                            // The node is behaviorally redundant:
                            // annotate the quotient but keep exploring
                            // through it.
                            sem_edges.push((phase, rep));
                            if config.sem_pruned {
                                stats.sem_mask_fallbacks += 1;
                                tm_sem_fallbacks += 1;
                            }
                        }
                    }
                }
                if !skip_expansion {
                    next.push(FrontierEntry { id, func });
                }
                children.push((phase, id));
            }
        }
    }
    let n = space.node_mut(parent.id);
    n.active_mask = active_mask;
    n.children = children;
    n.sem_children = sem_edges;
    n.pruned_children = pruned_edges;
    tm.parents_expanded.inc();
    tm.phases_attempted.add(tm_attempted);
    tm.active_attempts.add(tm_active);
    tm.dormant_prunes.add(tm_attempted - tm_active);
    tm.prefilter_dormant.add(tm_prefiltered);
    tm.fingerprint_hits.add(tm_hits);
    tm.nodes_inserted.add(tm_inserted);
    tm.sem_merge_hits.add(tm_sem_hits);
    tm.sem_sig_collisions.add(tm_sem_collisions);
    tm.sem_escalations.add(tm_sem_escalations);
    tm.sem_subsumption_prunes.add(tm_sem_prunes);
    tm.sem_mask_fallbacks.add(tm_sem_fallbacks);
    complete
}

/// Rebuilds the function instance of a node by replaying its discovery
/// sequence from the unoptimized `root`.
/// Spaces keep only topology, so this recovers any instance: frontier
/// resume, the audit and dynamic-count inference all use it.
pub fn rematerialize(
    root: &Function,
    target: &Target,
    space: &SearchSpace,
    id: NodeId,
) -> Function {
    let mut f = root.clone();
    for p in space.discovery_sequence(id) {
        attempt(&mut f, p, target);
    }
    f
}

/// Exhaustively enumerates the phase-order space of `f`.
///
/// `f` is the *unoptimized* function as produced by the front end; the
/// root instance is `f` itself. On [`SearchOutcome::TooBig`] the returned
/// space holds the levels enumerated so far (weights are still computed
/// over the partial DAG).
///
/// [`Config::jobs`] sizes the worker pool: `0` (the default) and `1`
/// expand on the calling thread, `N` expands each level over `N` worker
/// threads. The result — node ids and count, leaf count, `active_mask`s,
/// edges, weights, and every [`SearchStats`] counter except the
/// wall-clock `elapsed` — is identical for any job count: each level is
/// expanded in parallel but merged deterministically in frontier order
/// at the level barrier.
pub fn enumerate(f: &Function, target: &Target, config: &Config) -> Enumeration {
    enumerate_tier(MergeTier::Fingerprint, None, f, target, config, &SemanticConfig::default())
}

/// [`enumerate_tier`] under the *pruned* merge tier (`--merge-tier
/// semantic-pruned`): a behaviorally merged instance is inserted but
/// **not expanded** ([`SearchStats::sem_prunes`]) when its realized
/// active-phase set is subsumed by its already-expanded class
/// representative's — the one-step lookahead
/// [`SemanticContext::subsumes`] confirms that every phase actually
/// firing on the candidate has a child at the representative landing in
/// the same behavioral class as the candidate's own result for that
/// phase. Signature equality alone is not a congruence under phase
/// application, so the check inspects where the successors really land
/// rather than a static mask. Where the criterion fails — unexpanded
/// representative, missing or class-divergent successor, or a candidate
/// with no active phase (a genuine leaf, kept visible) — the tier falls
/// back to full expansion and counts a
/// [`SearchStats::sem_mask_fallbacks`] candidate. The resulting space
/// is a sub-DAG of the annotation tier's; `vpoc audit-quotient`
/// measures the exact class loss and checks optimum preservation (see
/// DESIGN §4.2.2). Determinism is inherited unchanged: signing and
/// prune decisions happen at merge time, serially in frontier order, for
/// any job count. Candidates and lookahead successors alike are signed by
/// control flow, so a successor whose control flow the search has already
/// signed costs a memo lookup, not a battery.
pub fn enumerate_semantic_pruned(
    program: &Program,
    f: &Function,
    target: &Target,
    config: &Config,
    sem_config: &SemanticConfig,
) -> Enumeration {
    enumerate_tier(MergeTier::SemanticPruned, Some(program), f, target, config, sem_config)
}

/// Enumerates the phase-order space of `f` under merge tier `tier` — the
/// one entry point behind [`enumerate`] and [`enumerate_semantic_pruned`].
///
/// The search runs on the campaign driver ([`crate::campaign`]) as a
/// one-task [`enumerate_all`] with no store and no budget, over
/// [`Config::jobs`] workers. `program` supplies callees and the globals
/// layout for signature execution; the fingerprint tier ignores it.
///
/// Under [`MergeTier::Semantic`] (`--merge-tier semantic`),
/// fingerprint-fresh instances are additionally keyed by their
/// behavioral signature ([`crate::semantic`]) and merged into the first
/// instance observed with that signature, recording the edge in
/// [`crate::space::Node::sem_children`]. The node set, `children`
/// edges, masks, weights and fingerprint-tier counters are bit-identical
/// to [`enumerate`]'s — merged nodes are still inserted and expanded
/// (signature equality is not a congruence under phase application, so
/// pruning would lose classes) — which makes the semantic space an exact
/// quotient annotation: the number of behaviorally distinct instances is
/// [`SearchSpace::sem_class_count`] `=` [`SearchSpace::len`] `-`
/// [`SearchStats::sem_merges`]. With [`Config::paranoid`], every
/// signature hit is escalated to a full differential re-execution over
/// an extended input battery before the merge is accepted
/// ([`SearchStats::sem_escalations`]); rejected hits stay distinct nodes
/// and count [`SearchStats::sem_collisions`]. Like the fingerprint tier,
/// the result is bit-identical for any [`Config::jobs`] value: the merge
/// that signs each level's fingerprint-fresh identities by control flow
/// ([`crate::semantic`]) is serial and in frontier order for any job
/// count, so the simulator work — one counted battery per distinct
/// control flow, plus the instances that cannot be inferred — is
/// job-count invariant too.
///
/// # Panics
///
/// If `tier` is semantic and `program` is `None`.
pub fn enumerate_tier(
    tier: MergeTier,
    program: Option<&Program>,
    f: &Function,
    target: &Target,
    config: &Config,
    sem_config: &SemanticConfig,
) -> Enumeration {
    let tm = crate::telemetry::global();
    tm.searches.inc();
    let campaign = CampaignConfig::for_tier(tier, config, sem_config);
    let task = FunctionTask {
        name: f.name.clone(),
        func: f.clone(),
        program: program.filter(|_| tier.is_semantic()).map(|p| Arc::new(p.clone())),
    };
    let e = enumerate_all(&[task], target, &campaign).remove(0);
    if !e.outcome.is_complete() {
        tm.searches_truncated.inc();
    }
    e
}

/// One worker thread per available CPU — the historical meaning of
/// `jobs: 0` in the parallel entry point, now the explicit opt-in.
pub fn jobs_per_cpu() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Convenience: renders an active phase sequence as its letter string
/// (e.g. `"scks"`), the notation used throughout the paper.
// Inlined into each caller: one shared out-of-line copy, called from the
// store and the oracle, changed how the crate's hot enumeration code was
// split across codegen units and slowed single-function enumeration by
// 7–10% in release builds.
#[inline]
pub fn sequence_letters(seq: &[PhaseId]) -> String {
    seq.iter().map(|p| p.letter()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::store::FrontierState;
    use vpo_rtl::canon;

    fn compile_fn(src: &str) -> Function {
        vpo_frontend::compile(src).unwrap().functions.remove(0)
    }

    #[test]
    fn trivial_function_space() {
        let f = compile_fn("int one() { return 1; }");
        let e = enumerate(&f, &Target::default(), &Config::default());
        assert!(e.outcome.is_complete());
        // `return 1` emits t0=1; RET t0 — instruction selection folds it,
        // and a couple of phases interact; the space stays tiny.
        assert!(e.space.len() >= 2);
        assert!(e.space.len() < 20, "space unexpectedly large: {}", e.space.len());
        assert!(e.space.leaf_count() >= 1);
    }

    #[test]
    fn space_is_deterministic() {
        let f = compile_fn("int f(int a, int b) { return a * b + a; }");
        let t = Target::default();
        let e1 = enumerate(&f, &t, &Config::default());
        let e2 = enumerate(&f, &t, &Config::default());
        assert_eq!(e1.space.len(), e2.space.len());
        assert_eq!(e1.stats.attempted_phases, e2.stats.attempted_phases);
        assert_eq!(e1.space.leaf_count(), e2.space.leaf_count());
    }

    #[test]
    fn attempted_far_exceeds_instances() {
        let f = compile_fn(
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i; return s; }",
        );
        let e = enumerate(&f, &Target::default(), &Config::default());
        assert!(e.outcome.is_complete());
        // The central observation of the paper: attempts dwarf instances.
        assert!(e.stats.attempted_phases as usize > 3 * e.space.len());
        assert!(e.space.leaf_count() >= 1);
        assert!(e.space.max_active_sequence_length() >= 3);
    }

    #[test]
    fn paranoid_mode_sees_no_collisions() {
        let f = compile_fn("int f(int a, int b) { if (a > b) return a - b; return b - a; }");
        let e = enumerate(&f, &Target::default(), &Config { paranoid: true, ..Config::default() });
        assert_eq!(e.stats.collisions, 0);
    }

    #[test]
    fn level_cap_reports_too_big() {
        let f = compile_fn(
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i * i; return s; }",
        );
        let e =
            enumerate(&f, &Target::default(), &Config { max_level_width: 1, ..Config::default() });
        assert!(matches!(e.outcome, SearchOutcome::TooBig { .. }));
    }

    #[test]
    fn max_nodes_cap_is_never_exceeded() {
        let f = compile_fn(
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i * i; return s; }",
        );
        for cap in [1usize, 3, 10] {
            let config = Config { max_nodes: cap, ..Config::default() };
            let e = enumerate(&f, &Target::default(), &config);
            assert!(matches!(e.outcome, SearchOutcome::TooBig { .. }), "cap {cap}");
            assert!(e.space.len() <= cap, "cap {cap} overshot: space has {} nodes", e.space.len());
            // The truncation point is deterministic, so a parallel run
            // must land on the very same partial space.
            let p = enumerate(&f, &Target::default(), &Config { jobs: 4, ..config });
            assert_eq!(p.space.len(), e.space.len(), "cap {cap}");
            assert_eq!(p.stats.attempted_phases, e.stats.attempted_phases, "cap {cap}");
        }
    }

    #[test]
    fn parallel_matches_serial_on_all_counters() {
        let f = compile_fn(
            "int f(int a, int n) { int s = 0; int i; for (i = 0; i < n; i++) s += a * i; return s; }",
        );
        let t = Target::default();
        let serial = enumerate(&f, &t, &Config::default());
        for jobs in [1usize, 2, 3, 8] {
            let par = enumerate(&f, &t, &Config { jobs, ..Config::default() });
            assert_eq!(par.space.len(), serial.space.len(), "jobs={jobs}");
            assert_eq!(par.space.leaf_count(), serial.space.leaf_count(), "jobs={jobs}");
            assert_eq!(par.stats.attempted_phases, serial.stats.attempted_phases);
            assert_eq!(par.stats.active_attempts, serial.stats.active_attempts);
            for (id, n) in serial.space.iter() {
                let m = par.space.node(id);
                assert_eq!(m.fp, n.fp, "jobs={jobs} node {id}");
                assert_eq!(m.active_mask, n.active_mask, "jobs={jobs} node {id}");
                assert_eq!(m.children, n.children, "jobs={jobs} node {id}");
                assert_eq!(m.weight, n.weight, "jobs={jobs} node {id}");
                assert_eq!(m.level, n.level, "jobs={jobs} node {id}");
            }
        }
    }

    #[test]
    fn parallel_paranoid_sees_no_collisions() {
        let f = compile_fn("int f(int a, int b) { if (a > b) return a - b; return b - a; }");
        let e = enumerate(
            &f,
            &Target::default(),
            &Config { paranoid: true, jobs: 4, ..Config::default() },
        );
        assert_eq!(e.stats.collisions, 0);
    }

    #[test]
    fn jobs_per_cpu_reports_at_least_one_worker() {
        assert!(jobs_per_cpu() >= 1);
    }

    #[test]
    fn telemetry_counters_track_the_search() {
        // The global registry accumulates across concurrent tests, so
        // assert on deltas of monotone counters only.
        let tm = crate::telemetry::global();
        let before = (tm.searches.get(), tm.nodes_inserted.get(), tm.phases_attempted.get());
        let f = compile_fn("int f(int a) { return a * 4 + 2; }");
        let e = enumerate(&f, &Target::default(), &Config::default());
        assert!(tm.searches.get() > before.0);
        assert!(tm.nodes_inserted.get() >= before.1 + e.space.len() as u64);
        assert!(tm.phases_attempted.get() >= before.2 + e.stats.attempted_phases);
        assert!(tm.peak_frontier.get() >= 1);
    }

    #[test]
    fn root_weight_counts_distinct_sequences() {
        let f = compile_fn("int f(int a) { return a + 0 + a; }");
        let e = enumerate(&f, &Target::default(), &Config::default());
        let root_w = e.space.node(e.space.root()).weight;
        assert!(root_w >= 1);
        // Weight of the root cannot be smaller than the number of leaves.
        assert!(root_w >= e.space.leaf_count() as u64);
    }

    /// The adversarial base-battery collision driven through the *real*
    /// merge path: a fingerprint-fresh candidate whose signature matches
    /// an established class but whose extended-battery behavior differs.
    /// Paranoid escalation must keep it a distinct node and tick both
    /// `SearchStats::sem_collisions` and the `sem_sig_collisions`
    /// telemetry counter; without escalation the same records merge.
    #[test]
    fn merge_path_escalation_rejects_adversarial_collision() {
        let program = vpo_frontend::compile(
            "int f(int a) { if (a > 3000000) return a + 7; return a + 1; }
             int g(int a) { if (a > 3000000) return a + 9; return a + 1; }",
        )
        .unwrap();
        let f = program.function("f").unwrap();
        let g = program.function("g").unwrap();
        let sem_config = SemanticConfig::default();
        for paranoid in [true, false] {
            let bounds = Config { paranoid, ..Config::default() };
            let config = CampaignConfig::for_tier(MergeTier::Semantic, &bounds, &sem_config);
            let mut space = SearchSpace::new();
            let mut stats = SearchStats::default();
            let mut paranoid_bytes = HashMap::new();
            let root = space.insert(FrontierState::root(f).nodes.remove(0));
            if paranoid {
                paranoid_bytes.insert((canon::fingerprint(f), f.flags), canon::canonical_bytes(f));
            }
            let root_func = Arc::new(f.clone());
            let mut sem = SemanticContext::new(&program, f, &sem_config, paranoid);
            let sig = sem.signature(f);
            sem.register(sig, root, &root_func);
            // Fabricate the attempt record a worker would have produced
            // had some phase transformed `f` into `g`.
            let record = AttemptRecord::Active {
                phase: PhaseId::Cse,
                fp: canon::fingerprint(g),
                flags: g.flags,
                inst_count: g.inst_count() as u32,
                cf_sig: control_flow_signature(g),
                func: Some(Arc::new(g.clone())),
                bytes: paranoid.then(|| canon::canonical_bytes(g)),
            };
            let parent = FrontierEntry { id: root, func: root_func };
            let mut next = Vec::new();
            let tm = crate::telemetry::global();
            let collisions_before = tm.sem_sig_collisions.get();
            assert!(merge_parent(
                &mut space,
                &mut stats,
                &mut paranoid_bytes,
                &config,
                &Target::default(),
                1,
                &parent,
                vec![record],
                &mut next,
                Some(&mut sem),
            ));
            // Either way the candidate is inserted and would be expanded
            // — the tiers never disagree on the space itself.
            assert_eq!(space.len(), 2);
            assert_eq!(next.len(), 1);
            let inserted = NodeId(1);
            if paranoid {
                // Escalated, refuted: the collision founds its own class.
                assert_eq!(stats.sem_collisions, 1);
                assert_eq!(stats.sem_escalations, 1);
                assert_eq!(stats.sem_merges, 0);
                assert_eq!(space.sem_edge_count(), 0);
                assert_eq!(space.sem_rep(inserted), inserted);
                assert_eq!(space.sem_class_count(), 2);
                assert!(tm.sem_sig_collisions.get() > collisions_before);
            } else {
                // The very merge paranoid mode just rejected: annotated
                // as behaviorally equal to the root.
                assert_eq!(stats.sem_collisions, 0);
                assert_eq!(stats.sem_merges, 1);
                assert_eq!(space.sem_edge_count(), 1);
                assert_eq!(space.sem_rep(inserted), root);
                assert_eq!(space.sem_class_count(), 1);
            }
        }
    }

    /// The pruned tier against the annotation tier on a real function:
    /// the space can only shrink, every prune is book-kept consistently,
    /// and — the soundness claim the audit checks — the code-size
    /// optimum is never lost, even though whole signature classes
    /// reachable only through pruned subtrees legitimately disappear
    /// (that loss is what `vpoc audit-quotient` quantifies).
    #[test]
    fn pruned_tier_shrinks_the_space_without_losing_the_optimum() {
        let program = vpo_frontend::compile(
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i * 2; return s; }",
        )
        .unwrap();
        let f = program.function("f").unwrap();
        let t = Target::default();
        let config = Config::default();
        let sem_config = SemanticConfig::default();
        let ann = enumerate_tier(MergeTier::Semantic, Some(&program), f, &t, &config, &sem_config);
        let pruned = enumerate_semantic_pruned(&program, f, &t, &config, &sem_config);
        assert!(ann.outcome.is_complete() && pruned.outcome.is_complete());
        assert!(pruned.space.len() <= ann.space.len());
        assert_eq!(pruned.space.pruned_count() as u64, pruned.stats.sem_prunes);
        assert_eq!(
            pruned.stats.sem_merges,
            pruned.stats.sem_prunes + pruned.stats.sem_mask_fallbacks
        );
        assert_eq!(ann.stats.sem_prunes, 0, "annotation tier never prunes");
        assert_eq!(ann.stats.sem_mask_fallbacks, 0);
        assert!(pruned.stats.sem_prunes > 0, "this kernel must actually prune");
        // The pruned run explores a subset of the same deterministic
        // search, so it can only see a subset of the signature classes.
        assert!(pruned.space.sem_class_count() <= ann.space.sem_class_count());
        // The soundness property: the code-size optimum over all
        // discovered instances survives (stopping early is a valid
        // ordering, so the optimum ranges over every node; the pruned
        // search explores a sub-DAG, so its minimum can only drift up).
        let ab = ann.space.code_size_range().map(|(lo, _)| lo);
        let pb = pruned.space.code_size_range().map(|(lo, _)| lo);
        assert_eq!(ab, pb, "pruning must not lose the code-size optimum");
    }

    #[test]
    fn pruned_tier_is_deterministic_across_job_counts() {
        let program = vpo_frontend::compile(
            "int f(int a, int n) { int s = 0; int i; for (i = 0; i < n; i++) s += a * i; return s; }",
        )
        .unwrap();
        let f = program.function("f").unwrap();
        let t = Target::default();
        let sem_config = SemanticConfig::default();
        let serial = enumerate_semantic_pruned(&program, f, &t, &Config::default(), &sem_config);
        for jobs in [2usize, 8] {
            let par = enumerate_semantic_pruned(
                &program,
                f,
                &t,
                &Config { jobs, ..Config::default() },
                &sem_config,
            );
            assert_eq!(par.space.len(), serial.space.len(), "jobs={jobs}");
            assert_eq!(par.stats.sem_prunes, serial.stats.sem_prunes, "jobs={jobs}");
            assert_eq!(par.stats.sem_mask_fallbacks, serial.stats.sem_mask_fallbacks);
            assert_eq!(par.space.sem_class_count(), serial.space.sem_class_count());
            for (id, n) in serial.space.iter() {
                let m = par.space.node(id);
                assert_eq!(m.fp, n.fp, "jobs={jobs} node {id}");
                assert_eq!(m.pruned, n.pruned, "jobs={jobs} node {id}");
                assert_eq!(m.children, n.children, "jobs={jobs} node {id}");
                assert_eq!(m.pruned_children, n.pruned_children, "jobs={jobs} node {id}");
            }
        }
    }

    #[test]
    fn sequence_letters_renders() {
        assert_eq!(
            sequence_letters(&[PhaseId::InsnSelect, PhaseId::RegAlloc, PhaseId::Cse]),
            "skc"
        );
    }
}
