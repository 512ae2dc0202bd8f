//! The on-disk campaign result store.
//!
//! A store is a single binary file holding one record per explored
//! function. The format is in-tree (no serde) and versioned:
//!
//! ```text
//! header:  magic "VPOC" | version u32 | config echo | record count u32
//! record:  payload length u32 | payload | CRC-32(payload) u32
//! payload: name | outcome | Table-3 statistics | search counters |
//!          pruned-tier counters (v4) | per-phase activity counts |
//!          optimal (code-size) sequence |
//!          optional frontier checkpoint (v3)
//! ```
//!
//! All integers are little-endian ([`crate::wire`] holds the shared
//! helpers). The *config echo* ([`ConfigEcho::of`]) freezes every
//! [`CampaignConfig`] option that influences results — the enumeration
//! bounds (`max_nodes`, `max_level_width`, the Figure 2 shortcut,
//! paranoid mode), the merge tier and its battery options, but not
//! `jobs`, which never changes results: a resumed campaign refuses a
//! store written under different options, because its records would not
//! be byte-identical to an uninterrupted run under the new ones. The echo's third byte once
//! selected naive replay; it is always `0` now, and a store that sets it
//! is refused.
//!
//! Writers never append: [`ResultStore::save`] rewrites the whole file
//! through a temporary sibling and an atomic rename, with records in
//! campaign task order. A campaign checkpoints after every completed
//! (or suspended) function, so the file on disk is always a valid store
//! whose record set is exactly the checkpointed subset — interrupting a
//! campaign at any point (including `SIGKILL`) and resuming it
//! therefore converges on a store byte-identical to an uninterrupted
//! run's.

use std::fmt;
use std::io::Write as _;
use std::path::Path;

use vpo_opt::PhaseId;
use vpo_rtl::canon::{self, Fingerprint};
use vpo_rtl::cfg::control_flow_signature;
use vpo_rtl::crc;
use vpo_rtl::{FuncFlags, Function};

use super::CampaignConfig;
use crate::enumerate::{sequence_letters, Enumeration, SearchStats};
use crate::space::{Node, NodeId};
use crate::wire::{self, Reader, WireError};

/// File magic: the first four bytes of every store.
pub const MAGIC: [u8; 4] = *b"VPOC";

/// Current format version.
///
/// * Version 2 added the semantic merge tier: the config echo grew the
///   tier flag and its battery parameters, and records grew the
///   `sem_merges` / `sem_collisions` / `sem_escalations` counters.
/// * Version 3 added *frontier persistence* for partial exploration: a
///   record may end with a checkpoint of an incomplete enumeration's
///   level frontier ([`FrontierState`]), from which a later run resumes
///   expansion exactly where it stopped.
/// * Version 4 added the subsumption-pruned semantic tier
///   (`--merge-tier semantic-pruned`): the config echo grew the
///   `sem_pruned` flag (pruned-tier stores are distinct memo keys from
///   annotation-tier ones), records grew the `sem_prunes` /
///   `sem_mask_fallbacks` counters, and persisted nodes grew the
///   `pruned` flag and the `pruned_children` edge list.
///
/// Older stores still load ([`ResultStore::from_bytes`] reads
/// `1..=VERSION`) — missing fields default to the values every older
/// store was in fact produced under (semantic tier off, counters zero,
/// no frontier, no pruning).
pub const VERSION: u32 = 4;

/// Why a store could not be read or written.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file is not a store, is truncated, or fails a CRC check.
    Corrupt(String),
    /// The store was written under different enumeration bounds than the
    /// campaign now runs with.
    ConfigMismatch(String),
}

impl StoreError {
    /// Attaches the filesystem operation and offending path, so the
    /// error a CLI user finally sees names the file that failed.
    fn context(self, op: &str, path: &Path) -> StoreError {
        let at = format!("{op} {}", path.display());
        match self {
            StoreError::Io(e) => {
                let kind = e.kind();
                StoreError::Io(std::io::Error::new(kind, format!("{at}: {e}")))
            }
            StoreError::Corrupt(msg) => StoreError::Corrupt(format!("{at}: {msg}")),
            StoreError::ConfigMismatch(msg) => StoreError::ConfigMismatch(format!("{at}: {msg}")),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StoreError::ConfigMismatch(msg) => write!(f, "store config mismatch: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Corrupt(e.to_string())
    }
}

/// The result-affecting subset of a run's [`CampaignConfig`], echoed in
/// the store header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConfigEcho {
    /// [`crate::Config::max_nodes`].
    pub max_nodes: u64,
    /// [`crate::Config::max_level_width`].
    pub max_level_width: u64,
    /// [`crate::Config::skip_just_applied`].
    pub skip_just_applied: bool,
    /// [`crate::Config::paranoid`].
    pub paranoid: bool,
    /// Whether the semantic merge tier was on (`--merge-tier semantic`
    /// or `semantic-pruned`).
    pub semantic: bool,
    /// [`crate::SemanticConfig::battery`] (`0` when the tier is off).
    pub sem_battery: u32,
    /// [`crate::SemanticConfig::seed`] (`0` when the tier is off).
    pub sem_seed: u64,
    /// [`crate::SemanticConfig::fuel`] (`0` when the tier is off).
    pub sem_fuel: u64,
    /// Whether subsumption pruning was on (`--merge-tier
    /// semantic-pruned`). Pruned-tier spaces are genuinely smaller than
    /// annotation-tier ones, so the two tiers must never share a store
    /// (or a memo answer); echoing the flag makes them distinct keys.
    pub sem_pruned: bool,
}

impl ConfigEcho {
    /// Projects a run's options onto their echoed subset: the
    /// enumeration bounds, and the merge tier with its battery options.
    /// [`CampaignConfig::sem_pruned`] must be `false` when
    /// [`CampaignConfig::semantic`] is `None`.
    pub fn of(config: &CampaignConfig) -> ConfigEcho {
        let (e, semantic) = (&config.enumerate, config.semantic.as_ref());
        debug_assert!(
            semantic.is_some() || !config.sem_pruned,
            "pruning requires the semantic tier"
        );
        ConfigEcho {
            max_nodes: e.max_nodes as u64,
            max_level_width: e.max_level_width as u64,
            skip_just_applied: e.skip_just_applied,
            paranoid: e.paranoid,
            semantic: semantic.is_some(),
            sem_battery: semantic.map_or(0, |s| s.battery as u32),
            sem_seed: semantic.map_or(0, |s| s.seed),
            sem_fuel: semantic.map_or(0, |s| s.fuel),
            sem_pruned: config.sem_pruned,
        }
    }
}

/// Persists one node of a checkpointed partial search space, without its
/// `weight`: weights are only computed once an enumeration completes,
/// so mid-search every weight is zero and persisting it would be noise.
/// Re-inserting decoded nodes in id order rebuilds the space
/// bit-identically (ids are assigned sequentially by
/// [`crate::space::SearchSpace::insert`]).
fn encode_node(n: &Node, out: &mut Vec<u8>) {
    wire::put_u32(out, n.fp.inst_count);
    wire::put_u64(out, n.fp.byte_sum);
    wire::put_u32(out, n.fp.crc);
    out.push(n.flags.regs_assigned as u8 | (n.flags.reg_allocated as u8) << 1);
    wire::put_u32(out, n.level);
    wire::put_u32(out, n.inst_count);
    wire::put_u64(out, n.cf_sig);
    wire::put_u16(out, n.active_mask);
    for edges in [&n.children, &n.sem_children, &n.pruned_children] {
        out.push(edges.len() as u8);
        for &(p, c) in edges {
            out.push(p.index() as u8);
            wire::put_u32(out, c.0);
        }
    }
    match n.discovered_from {
        Some((parent, phase)) => {
            out.push(1);
            wire::put_u32(out, parent.0);
            out.push(phase.index() as u8);
        }
        None => out.push(0),
    }
    out.push(n.pruned as u8);
}

/// Reads a node written by [`encode_node`] (or by a pre-v4 build), with
/// weight zero, as mid-search.
fn decode_node(r: &mut Reader<'_>, version: u32) -> Result<Node, StoreError> {
    fn phase(b: u8) -> Result<PhaseId, StoreError> {
        if (b as usize) < PhaseId::COUNT {
            Ok(PhaseId::from_index(b as usize))
        } else {
            Err(StoreError::Corrupt(format!("phase index {b} out of range")))
        }
    }
    let fp = Fingerprint { inst_count: r.u32()?, byte_sum: r.u64()?, crc: r.u32()? };
    let flag_bits = r.u8()?;
    if flag_bits > 3 {
        return Err(StoreError::Corrupt(format!("invalid flag bits {flag_bits:#04x}")));
    }
    let flags = FuncFlags { regs_assigned: flag_bits & 1 != 0, reg_allocated: flag_bits & 2 != 0 };
    let level = r.u32()?;
    let inst_count = r.u32()?;
    let cf_sig = r.u64()?;
    let active_mask = r.u16()?;
    // Pre-v4 nodes carry two edge lists; v4 added pruned edges.
    let lists = if version >= 4 { 3 } else { 2 };
    let mut edge_lists = [Vec::new(), Vec::new(), Vec::new()];
    for edges in edge_lists.iter_mut().take(lists) {
        let n = r.u8()? as usize;
        for _ in 0..n {
            let p = phase(r.u8()?)?;
            edges.push((p, NodeId(r.u32()?)));
        }
    }
    let [children, sem_children, pruned_children] = edge_lists;
    let discovered_from = match r.bool()? {
        true => {
            let parent = NodeId(r.u32()?);
            Some((parent, phase(r.u8()?)?))
        }
        false => None,
    };
    // No pre-v4 build pruned, so `false` is the faithful default.
    let pruned = if version >= 4 { r.bool()? } else { false };
    Ok(Node {
        fp,
        flags,
        level,
        inst_count,
        cf_sig,
        active_mask,
        children,
        sem_children,
        pruned_children,
        pruned,
        discovered_from,
        weight: 0,
    })
}

/// Checkpoint of an incomplete enumeration, taken at a level boundary.
///
/// The deterministic level-order search only merges new instances at
/// level barriers, so a space snapshotted *between* barriers, together
/// with the ids of the instances awaiting expansion, is exactly the
/// state an uninterrupted run would pass through. Resuming from a
/// frontier therefore re-expands nothing and converges on a record
/// byte-identical to an uncapped run's. Function bodies are not
/// persisted: each frontier instance is rematerialized by replaying its
/// discovery sequence from the root.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FrontierState {
    /// Levels fully merged so far; the frontier instances sit at this
    /// level and their expansions will merge at `level + 1`.
    pub level: u32,
    /// Every node of the partial space, in id order (weights zero).
    pub nodes: Vec<Node>,
    /// Ids of the instances awaiting expansion.
    pub frontier: Vec<u32>,
}

impl FrontierState {
    /// The level-0 checkpoint of a search of `f` that has not started:
    /// the unoptimized root as the only node and the only frontier entry.
    /// Every search opens by restoring a checkpoint, this one included.
    pub(crate) fn root(f: &Function) -> FrontierState {
        let root = Node {
            fp: canon::fingerprint(f),
            flags: f.flags,
            level: 0,
            inst_count: f.inst_count() as u32,
            cf_sig: control_flow_signature(f),
            active_mask: 0,
            children: Vec::new(),
            sem_children: Vec::new(),
            pruned_children: Vec::new(),
            pruned: false,
            discovered_from: None,
            weight: 0,
        };
        FrontierState { level: 0, nodes: vec![root], frontier: vec![0] }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_u32(out, self.level);
        wire::put_u32(out, self.nodes.len() as u32);
        for n in &self.nodes {
            encode_node(n, out);
        }
        wire::put_u32(out, self.frontier.len() as u32);
        for &id in &self.frontier {
            wire::put_u32(out, id);
        }
    }

    fn decode(r: &mut Reader<'_>, version: u32) -> Result<FrontierState, StoreError> {
        let level = r.u32()?;
        let count = r.u32()? as usize;
        let mut nodes = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            nodes.push(decode_node(r, version)?);
        }
        let flen = r.u32()? as usize;
        let mut frontier = Vec::with_capacity(flen.min(1024));
        for _ in 0..flen {
            let id = r.u32()?;
            if id as usize >= count {
                return Err(StoreError::Corrupt(format!(
                    "frontier id {id} out of range (space has {count} nodes)"
                )));
            }
            frontier.push(id);
        }
        if frontier.is_empty() {
            return Err(StoreError::Corrupt("frontier checkpoint with no frontier".into()));
        }
        Ok(FrontierState { level, nodes, frontier })
    }
}

/// One explored function: everything `vpoc campaign` needs to render
/// its Table-3 row again without re-enumerating, plus the raw per-phase
/// activity counts and the code-size-optimal sequence.
///
/// Statistics fields hold the values measured over the (possibly
/// partial) space; [`FunctionRecord::table3_row`] maps them to the
/// paper's `N/A` convention when `complete` is false. An incomplete record
/// either carries a [`FrontierState`] (suspended under a budget —
/// resumable) or does not (truncated by `max_nodes`/`max_level_width` —
/// permanent under these bounds).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FunctionRecord {
    /// Campaign-qualified function name (e.g. `sha::sha_transform`).
    pub name: String,
    /// Whether the enumeration ran to completion.
    pub complete: bool,
    /// Level at which a bound truncated the search or a budget suspended
    /// it (`0` when complete).
    pub truncated_level: u32,
    /// Instructions in the unoptimized function.
    pub insts: u32,
    /// Basic blocks in the unoptimized function.
    pub blocks: u32,
    /// Transfers of control in the unoptimized function.
    pub branches: u32,
    /// Natural loops in the unoptimized function.
    pub loops: u32,
    /// Distinct function instances.
    pub fn_instances: u64,
    /// Leaf instances.
    pub leaves: u64,
    /// Distinct control flows.
    pub control_flows: u64,
    /// Largest active phase sequence length.
    pub max_seq_len: u32,
    /// Smallest leaf instruction count (`0` when there are no leaves).
    pub code_min: u32,
    /// Largest leaf instruction count (`0` when there are no leaves).
    pub code_max: u32,
    /// Phases attempted, including dormant ones.
    pub attempted_phases: u64,
    /// Attempts that were active.
    pub active_attempts: u64,
    /// Fingerprint collisions (paranoid mode; expected 0).
    pub collisions: u64,
    /// Fingerprint-fresh instances merged by the semantic tier (0 under
    /// the fingerprint tier and in version-1 stores).
    pub sem_merges: u64,
    /// Signature hits rejected by paranoid escalation (expected 0).
    pub sem_collisions: u64,
    /// Signature hits escalated to the extended battery.
    pub sem_escalations: u64,
    /// Behavioral merges whose subtree the pruned tier skipped entirely
    /// (0 under other tiers and in pre-v4 stores).
    pub sem_prunes: u64,
    /// Behavioral merges the pruned tier still expanded because the
    /// candidate's active-phase mask was not subsumed (0 under other
    /// tiers and in pre-v4 stores).
    pub sem_mask_fallbacks: u64,
    /// `active_counts[p]` = instances `PhaseId::from_index(p)` is active
    /// on.
    pub active_counts: [u64; PhaseId::COUNT],
    /// Discovery sequence of the code-size-optimal leaf, in letter
    /// notation (empty when the space has no leaves).
    pub best_sequence: String,
    /// Instruction count of that optimal leaf (`0` when none).
    pub best_insts: u32,
    /// Suspended-search checkpoint (`None` when complete or permanently
    /// truncated; absent in pre-v3 stores).
    pub frontier: Option<FrontierState>,
}

impl FunctionRecord {
    /// Builds a record from a completed (or truncated) enumeration.
    pub fn from_enumeration(name: impl Into<String>, f: &Function, e: &Enumeration) -> Self {
        use crate::enumerate::SearchOutcome;
        let cfg = vpo_rtl::cfg::Cfg::build(f);
        let (code_min, code_max) = e.space.leaf_code_size_range().unwrap_or((0, 0));
        let (best_sequence, best_insts) = match e.space.best_leaf() {
            Some(leaf) => {
                (sequence_letters(&e.space.discovery_sequence(leaf)), e.space.node(leaf).inst_count)
            }
            None => (String::new(), 0),
        };
        FunctionRecord {
            name: name.into(),
            complete: e.outcome.is_complete(),
            truncated_level: match e.outcome {
                SearchOutcome::Complete => 0,
                SearchOutcome::TooBig { level } => level,
            },
            insts: f.inst_count() as u32,
            blocks: f.blocks.len() as u32,
            branches: f.branch_count() as u32,
            loops: vpo_rtl::loops::loop_count(&cfg) as u32,
            fn_instances: e.space.len() as u64,
            leaves: e.space.leaf_count() as u64,
            control_flows: e.space.distinct_control_flows() as u64,
            max_seq_len: e.space.max_active_sequence_length(),
            code_min,
            code_max,
            attempted_phases: e.stats.attempted_phases,
            active_attempts: e.stats.active_attempts,
            collisions: e.stats.collisions,
            sem_merges: e.stats.sem_merges,
            sem_collisions: e.stats.sem_collisions,
            sem_escalations: e.stats.sem_escalations,
            sem_prunes: e.stats.sem_prunes,
            sem_mask_fallbacks: e.stats.sem_mask_fallbacks,
            active_counts: e.space.phase_active_counts(),
            best_sequence,
            best_insts,
            frontier: None,
        }
    }

    /// The search counters a suspended search resumes from — the inverse
    /// of the copy [`FunctionRecord::from_enumeration`] makes. Wall time
    /// is not persisted (it never reaches store bytes).
    pub(crate) fn search_stats(&self) -> SearchStats {
        SearchStats {
            attempted_phases: self.attempted_phases,
            active_attempts: self.active_attempts,
            elapsed: std::time::Duration::ZERO,
            collisions: self.collisions,
            sem_merges: self.sem_merges,
            sem_collisions: self.sem_collisions,
            sem_escalations: self.sem_escalations,
            sem_prunes: self.sem_prunes,
            sem_mask_fallbacks: self.sem_mask_fallbacks,
        }
    }

    /// The header of the paper's Table 3, matching
    /// [`FunctionRecord::table3_row`].
    pub fn table3_header() -> String {
        table3_line([
            "Function",
            "Insts",
            "Blk",
            "Brch",
            "Loop",
            "FnInst",
            "AttemptPh",
            "Len",
            "CF",
            "Leaf",
            "Max",
            "Min",
            "%Diff",
        ])
    }

    /// Renders the record as a row of the paper's Table 3. An incomplete
    /// search shows `N/A` for every space statistic, as the paper does
    /// for spaces too big to enumerate; the code-size columns are also
    /// `N/A` when the space has no leaves.
    pub fn table3_row(&self) -> String {
        fn na(shown: bool, v: impl fmt::Display) -> String {
            if shown {
                v.to_string()
            } else {
                "N/A".into()
            }
        }
        let (c, sized) = (self.complete, self.complete && self.leaves > 0);
        table3_line([
            &self.name,
            &self.insts.to_string(),
            &self.blocks.to_string(),
            &self.branches.to_string(),
            &self.loops.to_string(),
            &na(c, self.fn_instances),
            &na(c, self.attempted_phases),
            &na(c, self.max_seq_len),
            &na(c, self.control_flows),
            &na(c, self.leaves),
            &na(sized, self.code_max),
            &na(sized, self.code_min),
            &self.code_diff_percent().map_or_else(|| "N/A".into(), |d| format!("{d:.1}")),
        ])
    }

    /// Percentage code-size difference between the worst and best leaf
    /// (Table 3's `% Diff`: "the maximum difference in code size that is
    /// possible due to different phase orderings"); `None` where the row
    /// shows `N/A`.
    pub fn code_diff_percent(&self) -> Option<f64> {
        (self.complete && self.leaves > 0 && self.code_min > 0)
            .then(|| (self.code_max - self.code_min) as f64 * 100.0 / self.code_min as f64)
    }

    /// Whether the record is complete, permanently truncated, or
    /// suspended at a persisted frontier.
    pub fn completeness(&self) -> Completeness {
        match &self.frontier {
            _ if self.complete => Completeness::Complete,
            Some(fs) => Completeness::Frontier { level: fs.level },
            None => Completeness::Truncated { level: self.truncated_level },
        }
    }

    /// Whether a later run can deepen this record from its persisted
    /// frontier (as opposed to a terminal record: complete, or
    /// permanently truncated by a bound).
    pub fn is_resumable(&self) -> bool {
        matches!(self.completeness(), Completeness::Frontier { .. })
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        wire::put_str(out, &self.name);
        out.push(self.complete as u8);
        wire::put_u32(out, self.truncated_level);
        for v in [self.insts, self.blocks, self.branches, self.loops] {
            wire::put_u32(out, v);
        }
        for v in [self.fn_instances, self.leaves, self.control_flows] {
            wire::put_u64(out, v);
        }
        wire::put_u32(out, self.max_seq_len);
        wire::put_u32(out, self.code_min);
        wire::put_u32(out, self.code_max);
        // The layout keeps a third counter slot (naive replay's phase
        // applications); prefix sharing always stored `attempted_phases`
        // there, so writing it keeps every store byte-identical.
        for v in
            [self.attempted_phases, self.active_attempts, self.attempted_phases, self.collisions]
        {
            wire::put_u64(out, v);
        }
        for v in [self.sem_merges, self.sem_collisions, self.sem_escalations] {
            wire::put_u64(out, v);
        }
        for v in [self.sem_prunes, self.sem_mask_fallbacks] {
            wire::put_u64(out, v);
        }
        out.push(PhaseId::COUNT as u8);
        for &c in &self.active_counts {
            wire::put_u64(out, c);
        }
        wire::put_str(out, &self.best_sequence);
        wire::put_u32(out, self.best_insts);
        match &self.frontier {
            Some(fs) => {
                out.push(1);
                fs.encode(out);
            }
            None => out.push(0),
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>, version: u32) -> Result<FunctionRecord, StoreError> {
        let name = r.str()?;
        let complete = r.u8()? != 0;
        let truncated_level = r.u32()?;
        let [insts, blocks, branches, loops] = [r.u32()?, r.u32()?, r.u32()?, r.u32()?];
        let [fn_instances, leaves, control_flows] = [r.u64()?, r.u64()?, r.u64()?];
        let max_seq_len = r.u32()?;
        let code_min = r.u32()?;
        let code_max = r.u32()?;
        let [attempted_phases, active_attempts, _, collisions] =
            [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        // Version-1 records predate the semantic tier; they were all
        // produced with it off, so zero is the faithful value.
        let [sem_merges, sem_collisions, sem_escalations] =
            if version >= 2 { [r.u64()?, r.u64()?, r.u64()?] } else { [0, 0, 0] };
        // Pre-v4 records predate the subsumption-pruned tier; zero is
        // the faithful value for both of its counters.
        let [sem_prunes, sem_mask_fallbacks] =
            if version >= 4 { [r.u64()?, r.u64()?] } else { [0, 0] };
        let n = r.u8()? as usize;
        if n != PhaseId::COUNT {
            return Err(StoreError::Corrupt(format!(
                "record `{name}` carries {n} phase counts, compiler has {}",
                PhaseId::COUNT
            )));
        }
        let mut active_counts = [0u64; PhaseId::COUNT];
        for c in &mut active_counts {
            *c = r.u64()?;
        }
        let best_sequence = r.str()?;
        let best_insts = r.u32()?;
        // Pre-v3 records predate frontier persistence: every incomplete
        // record was a permanent truncation, i.e. no checkpoint.
        let frontier =
            if version >= 3 && r.bool()? { Some(FrontierState::decode(r, version)?) } else { None };
        if complete && frontier.is_some() {
            return Err(StoreError::Corrupt(format!(
                "record `{name}` is complete but carries a frontier checkpoint"
            )));
        }
        Ok(FunctionRecord {
            name,
            complete,
            truncated_level,
            insts,
            blocks,
            branches,
            loops,
            fn_instances,
            leaves,
            control_flows,
            max_seq_len,
            code_min,
            code_max,
            attempted_phases,
            active_attempts,
            collisions,
            sem_merges,
            sem_collisions,
            sem_escalations,
            sem_prunes,
            sem_mask_fallbacks,
            active_counts,
            best_sequence,
            best_insts,
            frontier,
        })
    }
}

/// Column widths of Table 3; the function name is left-aligned, every
/// other column right-aligned.
const TABLE3_WIDTHS: [usize; 13] = [22, 6, 4, 4, 4, 9, 11, 4, 5, 6, 6, 6, 7];

fn table3_line(cells: [&str; 13]) -> String {
    let mut line = format!("{:<w$}", cells[0], w = TABLE3_WIDTHS[0]);
    for (cell, w) in cells[1..].iter().zip(&TABLE3_WIDTHS[1..]) {
        line.push_str(&format!(" {cell:>w$}"));
    }
    line
}

/// How much of a function's phase-order space a memo record covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Completeness {
    /// The space was exhaustively enumerated.
    Complete,
    /// A bound (`max_nodes` / `max_level_width`) truncated the search at
    /// this level; under the same bounds re-running cannot get further.
    Truncated {
        /// Level the bound fired at.
        level: u32,
    },
    /// The search was suspended at this level with its frontier
    /// persisted; the next request deepens it from saved state.
    Frontier {
        /// Levels fully merged so far.
        level: u32,
    },
}

impl fmt::Display for Completeness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Completeness::Complete => write!(f, "complete"),
            Completeness::Truncated { level } => write!(f, "truncated at level {level}"),
            Completeness::Frontier { level } => write!(f, "frontier at level {level}"),
        }
    }
}

/// An in-memory store: the config echo plus records in campaign task
/// order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ResultStore {
    /// Enumeration bounds the records were produced under.
    pub config: ConfigEcho,
    /// Per-function records, in campaign task order.
    pub records: Vec<FunctionRecord>,
}

impl ResultStore {
    /// An empty store for a run under `config`.
    pub fn new(config: &CampaignConfig) -> ResultStore {
        ResultStore { config: ConfigEcho::of(config), records: Vec::new() }
    }

    /// Serializes the store. The encoding is a pure function of the
    /// contents: equal stores produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        wire::put_u32(&mut out, VERSION);
        wire::put_u64(&mut out, self.config.max_nodes);
        wire::put_u64(&mut out, self.config.max_level_width);
        // The replay-mode byte: always prefix sharing, the only mode this
        // build runs (`from_bytes` refuses any other value).
        out.push(0);
        out.push(self.config.skip_just_applied as u8);
        out.push(self.config.paranoid as u8);
        out.push(self.config.semantic as u8);
        wire::put_u32(&mut out, self.config.sem_battery);
        wire::put_u64(&mut out, self.config.sem_seed);
        wire::put_u64(&mut out, self.config.sem_fuel);
        out.push(self.config.sem_pruned as u8);
        wire::put_u32(&mut out, self.records.len() as u32);
        for rec in &self.records {
            let mut payload = Vec::new();
            rec.encode(&mut payload);
            wire::put_u32(&mut out, payload.len() as u32);
            out.extend_from_slice(&payload);
            wire::put_u32(&mut out, crc::crc32(&payload));
        }
        out
    }

    /// Parses a store, validating magic, version, per-record lengths and
    /// CRCs, and that no bytes trail the last record.
    pub fn from_bytes(bytes: &[u8]) -> Result<ResultStore, StoreError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(StoreError::Corrupt("bad magic (not a campaign store)".into()));
        }
        let version = r.u32()?;
        if !(1..=VERSION).contains(&version) {
            return Err(StoreError::Corrupt(format!(
                "format version {version}, this build reads 1..={VERSION}"
            )));
        }
        let (max_nodes, max_level_width) = (r.u64()?, r.u64()?);
        if r.u8()? != 0 {
            return Err(StoreError::ConfigMismatch(
                "store was written under naive replay, which this build no longer runs".into(),
            ));
        }
        let mut config = ConfigEcho {
            max_nodes,
            max_level_width,
            skip_just_applied: r.u8()? != 0,
            paranoid: r.u8()? != 0,
            // Version-1 stores predate the semantic tier; it was off.
            semantic: false,
            sem_battery: 0,
            sem_seed: 0,
            sem_fuel: 0,
            // Pre-v4 stores predate subsumption pruning; it was off.
            sem_pruned: false,
        };
        if version >= 2 {
            config.semantic = r.u8()? != 0;
            config.sem_battery = r.u32()?;
            config.sem_seed = r.u64()?;
            config.sem_fuel = r.u64()?;
        }
        if version >= 4 {
            config.sem_pruned = r.u8()? != 0;
        }
        let count = r.u32()? as usize;
        let mut records = Vec::with_capacity(count.min(1024));
        for i in 0..count {
            let len = r.u32()? as usize;
            let payload = r.take(len)?;
            let crc_stored = r.u32()?;
            if crc::crc32(payload) != crc_stored {
                return Err(StoreError::Corrupt(format!("record {i}: CRC mismatch")));
            }
            let mut pr = Reader::new(payload);
            let rec = FunctionRecord::decode(&mut pr, version)?;
            if pr.pos() != payload.len() {
                return Err(StoreError::Corrupt(format!(
                    "record {i} (`{}`): {} unparsed payload bytes",
                    rec.name,
                    payload.len() - pr.pos()
                )));
            }
            records.push(rec);
        }
        if r.pos() != bytes.len() {
            return Err(StoreError::Corrupt(format!(
                "{} bytes trail the last record",
                bytes.len() - r.pos()
            )));
        }
        Ok(ResultStore { config, records })
    }

    /// Reads a store from disk. Errors name the path and operation.
    pub fn load(path: &Path) -> Result<ResultStore, StoreError> {
        let parse = || ResultStore::from_bytes(&std::fs::read(path)?);
        parse().map_err(|e| e.context("reading store", path))
    }

    /// Writes the store atomically: the bytes go to a `.tmp` sibling
    /// first, then an atomic rename replaces the store, so a reader (or
    /// a resumed campaign) never observes a half-written file. Errors
    /// name the path and operation.
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        let write = || {
            let tmp = match path.file_name() {
                Some(name) => {
                    let mut n = name.to_os_string();
                    n.push(".tmp");
                    path.with_file_name(n)
                }
                None => {
                    return Err(StoreError::Io(std::io::Error::other(
                        "store path has no file name",
                    )))
                }
            };
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
            drop(f);
            std::fs::rename(&tmp, path)?;
            Ok(())
        };
        write().map_err(|e| e.context("writing store", path))
    }

    /// Checks that a run under `config` — its bounds and its merge tier,
    /// subsumption pruning included — matches what this store was
    /// written under (resume safety).
    pub fn check_config(&self, config: &CampaignConfig) -> Result<(), StoreError> {
        let now = ConfigEcho::of(config);
        if self.config != now {
            return Err(StoreError::ConfigMismatch(format!(
                "store written under {:?}, campaign running with {:?}; \
                 re-run with matching bounds or remove the store",
                self.config, now
            )));
        }
        Ok(())
    }

    /// Looks up a record by its campaign-qualified name.
    pub fn find(&self, name: &str) -> Option<&FunctionRecord> {
        self.records.iter().find(|r| r.name == name)
    }
}

/// Deterministic function→shard assignment for a sharded memo service:
/// CRC-32 of the campaign-qualified name, reduced modulo the shard
/// count. Stable across runs, platforms, and job counts — the shard a
/// function's record lives in is a pure function of its name and the
/// shard count, so any daemon restart maps every function back to the
/// same store file.
pub fn shard_of(name: &str, shards: usize) -> usize {
    crc::crc32(name.as_bytes()) as usize % shards.max(1)
}

/// The on-disk path of shard `shard` of `shards` for a store based at
/// `base`. With a single shard this is `base` itself — a one-shard
/// daemon reads and writes the exact files the pre-sharding daemon
/// did — otherwise `base` gains a `.shard{k}of{n}` suffix so shard
/// sets with different counts never alias each other's files.
pub fn shard_path(base: &Path, shard: usize, shards: usize) -> std::path::PathBuf {
    if shards <= 1 {
        return base.to_path_buf();
    }
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".shard{shard}of{shards}"));
    std::path::PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::Config;
    use crate::request::MergeTier;
    use crate::semantic::SemanticConfig;
    use crate::tmp_dir::TmpDir;

    fn sample_record(name: &str, seed: u64) -> FunctionRecord {
        let mut active_counts = [0u64; PhaseId::COUNT];
        for (i, c) in active_counts.iter_mut().enumerate() {
            *c = seed.wrapping_mul(i as u64 + 1) % 97;
        }
        FunctionRecord {
            name: name.to_owned(),
            complete: seed.is_multiple_of(2),
            truncated_level: if seed.is_multiple_of(2) { 0 } else { seed as u32 % 9 + 1 },
            insts: 40 + seed as u32,
            blocks: 7,
            branches: 5,
            loops: 1,
            fn_instances: 1000 + seed,
            leaves: 12,
            control_flows: 3,
            max_seq_len: 14,
            code_min: 21,
            code_max: 35,
            attempted_phases: 123_456 + seed,
            active_attempts: 4_321,
            collisions: 0,
            sem_merges: seed * 3,
            sem_collisions: 0,
            sem_escalations: seed * 3,
            sem_prunes: seed * 2,
            sem_mask_fallbacks: seed,
            active_counts,
            best_sequence: "skcshu".to_owned(),
            best_insts: 21,
            frontier: None,
        }
    }

    fn sample_frontier() -> FrontierState {
        let node = |byte_sum, crc, level, discovered_from, pruned| Node {
            fp: Fingerprint { inst_count: 33, byte_sum, crc },
            flags: FuncFlags { regs_assigned: true, reg_allocated: false },
            level,
            inst_count: 33,
            cf_sig: 9,
            active_mask: 0,
            children: vec![],
            sem_children: vec![],
            pruned_children: vec![],
            pruned,
            discovered_from,
            weight: 0,
        };
        let root = Node {
            fp: Fingerprint { inst_count: 40, byte_sum: 777, crc: 0xABCD },
            flags: FuncFlags::default(),
            inst_count: 40,
            active_mask: 0b101,
            children: vec![(PhaseId::Cse, NodeId(1)), (PhaseId::LoopUnroll, NodeId(2))],
            sem_children: vec![(PhaseId::DeadAssign, NodeId(0))],
            pruned_children: vec![(PhaseId::LoopUnroll, NodeId(1))],
            ..node(0, 0, 0, None, false)
        };
        let child = node(555, 0x1234, 1, Some((NodeId(0), PhaseId::Cse)), false);
        let pruned = node(601, 0x5678, 1, Some((NodeId(0), PhaseId::LoopUnroll)), true);
        FrontierState { level: 1, nodes: vec![root, child, pruned], frontier: vec![1] }
    }

    fn sample_store() -> ResultStore {
        let mut s = ResultStore::new(&CampaignConfig::default());
        s.records.push(sample_record("bitcount::bit_count", 2));
        s.records.push(sample_record("sha::sha_transform", 5));
        s
    }

    fn store_with_frontier() -> ResultStore {
        let mut s = sample_store();
        let mut partial = sample_record("qsort::partition", 7);
        assert!(!partial.complete);
        partial.frontier = Some(sample_frontier());
        s.records.push(partial);
        s
    }

    #[test]
    fn roundtrip_is_lossless_and_stable() {
        let s = sample_store();
        let bytes = s.to_bytes();
        assert_eq!(bytes, s.to_bytes(), "encoding must be deterministic");
        let back = ResultStore::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_bytes(), bytes, "re-encoding must be byte-identical");
        assert!(back.find("sha::sha_transform").is_some());
        assert!(back.find("nope").is_none());
    }

    #[test]
    fn frontier_checkpoints_roundtrip() {
        let s = store_with_frontier();
        let bytes = s.to_bytes();
        let back = ResultStore::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_bytes(), bytes);
        let fs = back.find("qsort::partition").unwrap().frontier.as_ref().unwrap();
        assert_eq!(fs.frontier, vec![1]);
        assert!(fs.nodes.iter().all(|n| n.weight == 0), "weights are not persisted");
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = store_with_frontier().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                matches!(ResultStore::from_bytes(&bytes[..cut]), Err(StoreError::Corrupt(_))),
                "prefix of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_crc() {
        let good = sample_store().to_bytes();
        // Flip one byte inside each record's payload region.
        let header = 4 + 4 + 8 + 8 + 3 + 1 + 4 + 8 + 8 + 1 + 4;
        for offset in [header + 4 + 2, good.len() - 8] {
            let mut bad = good.clone();
            bad[offset] ^= 0x40;
            match ResultStore::from_bytes(&bad) {
                Err(StoreError::Corrupt(msg)) => {
                    assert!(msg.contains("CRC"), "offset {offset}: {msg}")
                }
                other => panic!("offset {offset}: corruption not caught: {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_store().to_bytes();
        bytes.push(0);
        assert!(matches!(ResultStore::from_bytes(&bytes), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let mut bytes = sample_store().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(ResultStore::from_bytes(&bytes), Err(StoreError::Corrupt(_))));
        let mut bytes = sample_store().to_bytes();
        bytes[4] = 99;
        let err = ResultStore::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn config_echo_gates_resume() {
        let tier = |t| CampaignConfig::for_tier(t, &Config::default(), &SemanticConfig::default());
        let s = sample_store();
        s.check_config(&CampaignConfig::default()).unwrap();
        let other = CampaignConfig {
            enumerate: Config { max_nodes: 7, ..Config::default() },
            ..CampaignConfig::default()
        };
        assert!(matches!(s.check_config(&other), Err(StoreError::ConfigMismatch(_))));
        // Switching merge tiers between runs also refuses to resume.
        assert!(matches!(
            s.check_config(&tier(MergeTier::Semantic)),
            Err(StoreError::ConfigMismatch(_))
        ));
        // The pruned and annotation variants of the semantic tier are
        // distinct memo keys: a pruned-tier store refuses an
        // annotation-tier resume and vice versa.
        let pruned = ResultStore::new(&tier(MergeTier::SemanticPruned));
        pruned.check_config(&tier(MergeTier::SemanticPruned)).unwrap();
        assert!(matches!(
            pruned.check_config(&tier(MergeTier::Semantic)),
            Err(StoreError::ConfigMismatch(_))
        ));
        let annotated = ResultStore::new(&tier(MergeTier::Semantic));
        assert!(matches!(
            annotated.check_config(&tier(MergeTier::SemanticPruned)),
            Err(StoreError::ConfigMismatch(_))
        ));
    }

    #[test]
    fn version_1_stores_still_load() {
        // A store produced by the pre-semantic-tier build (format
        // version 1), checked in as a fixture. The new fields must
        // default to the fingerprint tier's values: tier off, all
        // semantic counters zero.
        let bytes: &[u8] = include_bytes!("../../../../tests/fixtures/campaign_store_v1.bin");
        let s = ResultStore::from_bytes(bytes).expect("v1 store must load");
        assert!(!s.config.semantic);
        assert!(!s.config.sem_pruned);
        assert_eq!((s.config.sem_battery, s.config.sem_seed, s.config.sem_fuel), (0, 0, 0));
        assert_eq!(s.records.len(), 9, "bitcount campaign explores 9 functions");
        for rec in &s.records {
            assert_eq!(
                (rec.sem_merges, rec.sem_collisions, rec.sem_escalations),
                (0, 0, 0),
                "record `{}` predates the semantic tier",
                rec.name
            );
            assert_eq!(
                (rec.sem_prunes, rec.sem_mask_fallbacks),
                (0, 0),
                "record `{}` predates the pruned tier",
                rec.name
            );
            assert!(rec.frontier.is_none(), "record `{}` predates frontier persistence", rec.name);
        }
        // A v1 store resumes under the matching current config
        // (fingerprint tier), since the echoed subset is identical.
        s.check_config(&CampaignConfig::default()).unwrap();
    }

    /// Encodes a node exactly as the v2/v3 builds did: two edge lists,
    /// no pruned flag. Callers must pass pre-v4-shaped nodes.
    fn encode_node_v3(n: &Node, out: &mut Vec<u8>) {
        assert!(!n.pruned && n.pruned_children.is_empty(), "node carries v4 state");
        wire::put_u32(out, n.fp.inst_count);
        wire::put_u64(out, n.fp.byte_sum);
        wire::put_u32(out, n.fp.crc);
        out.push(n.flags.regs_assigned as u8 | (n.flags.reg_allocated as u8) << 1);
        wire::put_u32(out, n.level);
        wire::put_u32(out, n.inst_count);
        wire::put_u64(out, n.cf_sig);
        wire::put_u16(out, n.active_mask);
        for edges in [&n.children, &n.sem_children] {
            out.push(edges.len() as u8);
            for &(p, c) in edges {
                out.push(p.index() as u8);
                wire::put_u32(out, c.0);
            }
        }
        match n.discovered_from {
            Some((parent, phase)) => {
                out.push(1);
                wire::put_u32(out, parent.0);
                out.push(phase.index() as u8);
            }
            None => out.push(0),
        }
    }

    /// Encodes a store exactly as an older build (format `version` 2 or
    /// 3) would have written it, for load-regression tests. Drops every
    /// v4 field, so the store must carry none: `sem_pruned` off, pruned
    /// counters zero on every record, no pruned nodes in any frontier —
    /// which is every store those builds could write. A v3 frontier is
    /// rejected at `version` 2 (no v2 build persisted frontiers).
    fn encode_as_version(s: &ResultStore, version: u32) -> Vec<u8> {
        assert!((2..=3).contains(&version));
        assert!(!s.config.sem_pruned);
        let mut out = MAGIC.to_vec();
        wire::put_u32(&mut out, version);
        wire::put_u64(&mut out, s.config.max_nodes);
        wire::put_u64(&mut out, s.config.max_level_width);
        out.push(0);
        out.push(s.config.skip_just_applied as u8);
        out.push(s.config.paranoid as u8);
        out.push(s.config.semantic as u8);
        wire::put_u32(&mut out, s.config.sem_battery);
        wire::put_u64(&mut out, s.config.sem_seed);
        wire::put_u64(&mut out, s.config.sem_fuel);
        wire::put_u32(&mut out, s.records.len() as u32);
        for rec in &s.records {
            assert_eq!((rec.sem_prunes, rec.sem_mask_fallbacks), (0, 0));
            let mut p = Vec::new();
            wire::put_str(&mut p, &rec.name);
            p.push(rec.complete as u8);
            wire::put_u32(&mut p, rec.truncated_level);
            for v in [rec.insts, rec.blocks, rec.branches, rec.loops] {
                wire::put_u32(&mut p, v);
            }
            for v in [rec.fn_instances, rec.leaves, rec.control_flows] {
                wire::put_u64(&mut p, v);
            }
            wire::put_u32(&mut p, rec.max_seq_len);
            wire::put_u32(&mut p, rec.code_min);
            wire::put_u32(&mut p, rec.code_max);
            for v in [
                rec.attempted_phases,
                rec.active_attempts,
                rec.attempted_phases,
                rec.collisions,
                rec.sem_merges,
                rec.sem_collisions,
                rec.sem_escalations,
            ] {
                wire::put_u64(&mut p, v);
            }
            p.push(PhaseId::COUNT as u8);
            for &c in &rec.active_counts {
                wire::put_u64(&mut p, c);
            }
            wire::put_str(&mut p, &rec.best_sequence);
            wire::put_u32(&mut p, rec.best_insts);
            match &rec.frontier {
                Some(fs) => {
                    assert!(version >= 3, "no v2 build persisted frontiers");
                    p.push(1);
                    wire::put_u32(&mut p, fs.level);
                    wire::put_u32(&mut p, fs.nodes.len() as u32);
                    for n in &fs.nodes {
                        encode_node_v3(n, &mut p);
                    }
                    wire::put_u32(&mut p, fs.frontier.len() as u32);
                    for &id in &fs.frontier {
                        wire::put_u32(&mut p, id);
                    }
                }
                None if version >= 3 => p.push(0),
                None => {}
            }
            wire::put_u32(&mut out, p.len() as u32);
            out.extend_from_slice(&p);
            wire::put_u32(&mut out, crc::crc32(&p));
        }
        out
    }

    /// Strips the v4-only state from a store built by the current test
    /// helpers, leaving what an older build would have recorded.
    fn without_v4_state(s: &ResultStore) -> ResultStore {
        let mut old = s.clone();
        for rec in &mut old.records {
            rec.sem_prunes = 0;
            rec.sem_mask_fallbacks = 0;
            if let Some(fs) = &mut rec.frontier {
                for n in &mut fs.nodes {
                    n.pruned = false;
                    n.pruned_children.clear();
                }
            }
        }
        old
    }

    #[test]
    fn version_2_stores_still_load() {
        let s = without_v4_state(&sample_store());
        let v2 = encode_as_version(&s, 2);
        let back = ResultStore::from_bytes(&v2).expect("v2 store must load");
        // Loading a v2 store loses nothing: the later additions (the
        // frontier checkpoint, the pruned tier) are things no v2 build
        // could have produced.
        assert_eq!(back, s);
        back.check_config(&CampaignConfig::default()).unwrap();
    }

    #[test]
    fn version_3_stores_still_load() {
        // A frontier-carrying v3 store: checkpointed nodes predate the
        // pruned flag and the third edge list, and must load with both
        // defaulted off.
        let s = without_v4_state(&store_with_frontier());
        let v3 = encode_as_version(&s, 3);
        let back = ResultStore::from_bytes(&v3).expect("v3 store must load");
        assert_eq!(back, s);
        assert!(!back.config.sem_pruned);
        let fs = back.find("qsort::partition").unwrap().frontier.as_ref().unwrap();
        assert!(fs.nodes.iter().all(|n| !n.pruned && n.pruned_children.is_empty()));
        back.check_config(&CampaignConfig::default()).unwrap();
    }

    #[test]
    fn save_is_atomic_and_loads_back() {
        let dir = TmpDir::new(&format!("vpoc_store_{}", std::process::id()));
        let path = dir.join("campaign.store");
        let s = store_with_frontier();
        s.save(&path).unwrap();
        assert!(!path.with_file_name("campaign.store.tmp").exists(), "tmp file left behind");
        assert_eq!(ResultStore::load(&path).unwrap(), s);
    }

    #[test]
    fn load_and_save_errors_name_the_path() {
        let dir = TmpDir::new(&format!("vpoc_store_err_{}", std::process::id()));
        let missing = dir.join("no_such.store");
        let err = ResultStore::load(&missing).unwrap_err().to_string();
        assert!(err.contains("reading store"), "{err}");
        assert!(err.contains("no_such.store"), "{err}");
        let garbage = dir.join("garbage.store");
        std::fs::write(&garbage, b"not a store").unwrap();
        let err = ResultStore::load(&garbage).unwrap_err().to_string();
        assert!(err.contains("reading store"), "{err}");
        assert!(err.contains("garbage.store"), "{err}");
        assert!(err.contains("magic"), "{err}");
        // Saving into a directory that does not exist names the target.
        let bad_target = dir.join("absent_dir").join("x.store");
        let err = sample_store().save(&bad_target).unwrap_err().to_string();
        assert!(err.contains("writing store"), "{err}");
        assert!(err.contains("x.store"), "{err}");
    }

    #[test]
    fn table3_row_respects_na_convention() {
        let mut rec = sample_record("f", 2);
        assert!(rec.complete);
        assert!(!rec.table3_row().contains("N/A"));
        assert!(rec.code_diff_percent().is_some());
        rec.complete = false;
        assert!(rec.table3_row().contains("N/A"));
        assert_eq!(rec.code_diff_percent(), None);
    }

    #[test]
    fn records_classify_their_completeness() {
        // Complete record.
        let complete = sample_record("f", 2);
        assert_eq!(complete.completeness(), Completeness::Complete);
        assert!(!complete.is_resumable());
        // Permanently truncated: incomplete, no frontier.
        let truncated = sample_record("g", 5);
        let level = truncated.truncated_level;
        assert_eq!(truncated.completeness(), Completeness::Truncated { level });
        assert!(!truncated.is_resumable());
        // Suspended at a frontier: incomplete, checkpoint attached.
        let mut partial = sample_record("h", 7);
        partial.frontier = Some(sample_frontier());
        assert_eq!(partial.completeness(), Completeness::Frontier { level: 1 });
        assert!(partial.is_resumable());
        assert_eq!(format!("{}", partial.completeness()), "frontier at level 1");
        let s = store_with_frontier();
        assert!(s.find("qsort::partition").unwrap().is_resumable());
    }

    fn record_of(src: &str, config: &Config) -> FunctionRecord {
        let p = vpo_frontend::compile(src).unwrap();
        let f = &p.functions[0];
        let e = crate::enumerate(f, &vpo_opt::Target::default(), config);
        FunctionRecord::from_enumeration("f(t)", f, &e)
    }

    #[test]
    fn row_from_small_function() {
        let rec = record_of(
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i; return s; }",
            &Config::default(),
        );
        assert!(rec.complete);
        assert_eq!(rec.loops, 1);
        assert!(rec.fn_instances > 5);
        assert!(rec.attempted_phases > rec.fn_instances);
        assert!(rec.code_max >= rec.code_min);
        assert!(rec.code_diff_percent().unwrap() >= 0.0);
        let line = rec.table3_row();
        assert!(line.contains("f(t)"));
        assert!(!line.contains("N/A"));
        assert_eq!(
            FunctionRecord::table3_header().split_whitespace().count(),
            line.split_whitespace().count()
        );
    }

    #[test]
    fn incomplete_searches_render_na() {
        let rec = record_of(
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i * i; return s; }",
            &Config { max_level_width: 1, ..Config::default() },
        );
        assert!(!rec.complete);
        assert!(rec.table3_row().contains("N/A"));
    }

    /// Stores written by `vpoc campaign` at format version 4, checked in
    /// so that an encoder and a decoder changing together cannot go
    /// unnoticed (in-process round trips would still agree):
    ///
    /// * `campaign_store_v4_fingerprint.bin`: `--bench bitcount
    ///   bitcount_parallel`, fingerprint tier, complete.
    /// * `campaign_store_v4_pruned_suspended.bin`: `--bench bitcount
    ///   ntbl_bitcount --merge-tier semantic-pruned --budget 30`,
    ///   suspended with a frontier that carries semantic-merge and
    ///   subsumption-pruned edges.
    const V4_FINGERPRINT: &[u8] =
        include_bytes!("../../../../tests/fixtures/campaign_store_v4_fingerprint.bin");
    const V4_PRUNED_SUSPENDED: &[u8] =
        include_bytes!("../../../../tests/fixtures/campaign_store_v4_pruned_suspended.bin");

    #[test]
    fn version_4_fixtures_decode_and_reencode_identically() {
        let s = ResultStore::from_bytes(V4_FINGERPRINT).expect("v4 fingerprint store loads");
        assert!(!s.config.semantic && !s.config.sem_pruned);
        assert_eq!((s.config.max_nodes, s.config.max_level_width), (4_000_000, 1_000_000));
        let [rec] = &s.records[..] else { panic!("one record expected") };
        assert_eq!(rec.name, "bitcount::bitcount_parallel");
        assert!(rec.complete);
        assert_eq!((rec.insts, rec.blocks, rec.branches, rec.loops), (92, 1, 0, 0));
        assert_eq!((rec.fn_instances, rec.leaves, rec.control_flows), (11, 3, 1));
        assert_eq!((rec.max_seq_len, rec.code_min, rec.code_max), (4, 49, 71));
        assert_eq!((rec.attempted_phases, rec.active_attempts), (165, 11));
        assert_eq!(rec.active_counts, [0, 3, 0, 0, 3, 0, 0, 1, 0, 0, 0, 0, 0, 4, 0]);
        assert_eq!((rec.best_sequence.as_str(), rec.best_insts), ("sksc", 49));
        assert!(rec.frontier.is_none());
        assert_eq!(s.to_bytes(), V4_FINGERPRINT, "re-encoding must be byte-identical");

        let s = ResultStore::from_bytes(V4_PRUNED_SUSPENDED).expect("v4 pruned store loads");
        assert!(s.config.semantic && s.config.sem_pruned);
        assert_eq!(
            (s.config.sem_battery, s.config.sem_seed, s.config.sem_fuel),
            (4, 306_206, 2_000_000)
        );
        let [rec] = &s.records[..] else { panic!("one record expected") };
        assert_eq!(rec.name, "bitcount::ntbl_bitcount");
        assert!(!rec.complete);
        assert_eq!(rec.truncated_level, 5);
        assert_eq!((rec.fn_instances, rec.leaves, rec.attempted_phases), (47, 8, 570));
        assert_eq!((rec.sem_merges, rec.sem_prunes, rec.sem_mask_fallbacks), (21, 2, 19));
        assert_eq!((rec.best_sequence.as_str(), rec.best_insts), ("qhsks", 48));
        let fs = rec.frontier.as_ref().expect("suspended record carries its frontier");
        assert_eq!((fs.level, fs.nodes.len()), (5, 47));
        assert_eq!(fs.frontier, vec![39, 40, 41, 42, 43, 45, 46]);
        let edges = |list: fn(&_) -> usize| fs.nodes.iter().map(list).sum::<usize>();
        assert_eq!(edges(|n| n.children.len()), 76, "one child edge per active attempt");
        assert_eq!(edges(|n| n.sem_children.len()), 19);
        assert_eq!(edges(|n| n.pruned_children.len()), 2);
        let pruned: Vec<usize> =
            fs.nodes.iter().enumerate().filter(|(_, n)| n.pruned).map(|(i, _)| i).collect();
        assert_eq!(pruned.len(), 2);
        assert!(
            pruned.iter().all(|&i| !fs.frontier.contains(&(i as u32))),
            "pruned nodes never expand"
        );
        assert_eq!(s.to_bytes(), V4_PRUNED_SUSPENDED, "re-encoding must be byte-identical");
    }

    #[test]
    fn naive_replay_stores_are_refused() {
        // The echo's third byte follows magic, version and the two bounds.
        let at = MAGIC.len() + 4 + 8 + 8;
        assert_eq!(V4_FINGERPRINT[at], 0, "prefix-sharing stores carry 0");
        let mut bytes = V4_FINGERPRINT.to_vec();
        bytes[at] = 1;
        match ResultStore::from_bytes(&bytes) {
            Err(StoreError::ConfigMismatch(msg)) => assert!(msg.contains("naive replay"), "{msg}"),
            other => panic!("a naive-replay store must be refused, got {other:?}"),
        }
    }

    #[test]
    fn table3_rendering_is_pinned() {
        let complete = &ResultStore::from_bytes(V4_FINGERPRINT).unwrap().records[0];
        let suspended = &ResultStore::from_bytes(V4_PRUNED_SUSPENDED).unwrap().records[0];
        let no_leaves = FunctionRecord { leaves: 0, ..complete.clone() };
        assert_eq!(
            FunctionRecord::table3_header(),
            "Function                Insts  Blk Brch Loop    FnInst   AttemptPh  Len    CF   \
             Leaf    Max    Min   %Diff"
        );
        assert_eq!(
            complete.table3_row(),
            "bitcount::bitcount_parallel     92    1    0    0        11         165    4     1      \
             3     71     49    44.9"
        );
        assert_eq!(
            suspended.table3_row(),
            "bitcount::ntbl_bitcount    104    1    0    0       N/A         N/A  N/A   N/A    \
             N/A    N/A    N/A     N/A"
        );
        assert_eq!(
            no_leaves.table3_row(),
            "bitcount::bitcount_parallel     92    1    0    0        11         165    4     1      \
             0    N/A    N/A     N/A"
        );
    }

    #[test]
    fn complete_record_with_frontier_is_rejected() {
        let mut s = sample_store();
        s.records[0].frontier = Some(sample_frontier());
        assert!(s.records[0].complete);
        let bytes = s.to_bytes();
        let err = ResultStore::from_bytes(&bytes).unwrap_err().to_string();
        assert!(err.contains("complete but carries a frontier"), "{err}");
    }

    #[test]
    fn shard_assignment_is_deterministic_and_bounded() {
        let names = [
            "bitcount::bit_count",
            "bitcount::bit_shifter",
            "sha::sha_transform",
            "qsort::partition",
            "dijkstra::enqueue",
            "dijkstra::dequeue",
            "stringsearch::init_search",
            "crc32::crc32_byte",
            "fft::reverse_bits",
        ];
        for shards in [1usize, 2, 4, 8, 256] {
            for name in names {
                let k = shard_of(name, shards);
                assert!(k < shards, "{name} → {k} out of range for {shards} shards");
                assert_eq!(k, shard_of(name, shards), "assignment must be stable");
            }
        }
        // Degenerate count never divides by zero.
        assert_eq!(shard_of("anything", 0), 0);
        // With a few shards over MiBench-style names, no shard is
        // starved entirely (the hash actually spreads).
        let shards = 4;
        let mut hit = vec![false; shards];
        for name in names {
            hit[shard_of(name, shards)] = true;
        }
        assert!(hit.iter().all(|&h| h), "4-way split leaves a shard empty: {hit:?}");
    }

    #[test]
    fn shard_paths_are_distinct_and_backward_compatible() {
        let base = Path::new("/tmp/campaign.store");
        // One shard: exactly the unsharded path (old daemons' files).
        assert_eq!(shard_path(base, 0, 1), base);
        assert_eq!(shard_path(base, 0, 0), base);
        // Multi-shard: suffixed, distinct per shard, and distinct
        // across shard counts.
        let p0 = shard_path(base, 0, 4);
        let p3 = shard_path(base, 3, 4);
        assert_eq!(p0, Path::new("/tmp/campaign.store.shard0of4"));
        assert_eq!(p3, Path::new("/tmp/campaign.store.shard3of4"));
        assert_ne!(p0, p3);
        assert_ne!(shard_path(base, 0, 4), shard_path(base, 0, 8));
    }
}
