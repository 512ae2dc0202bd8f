//! Resumable multi-function exploration campaigns.
//!
//! The paper's headline tables aggregate over *every* function of the
//! benchmark suite. This module runs the level-order search — for a
//! single [`crate::enumerate()`] call as well — and turns it into a
//! long-running, checkpointed **campaign**:
//!
//! * **One shared worker pool.** Workers steal work at the granularity
//!   of a *parent expansion* (one frontier instance × all fifteen
//!   phases), not a whole function: while a giant function grinds
//!   through a wide level, idle lanes pick up the next functions in the
//!   task list. Per function, expansions race freely but every level is
//!   merged in frontier order at its barrier, so each function's result
//!   is bit-identical to a serial enumeration, for any job count.
//!   [`crate::enumerate()`] is this driver on a one-task list with no
//!   store and no budget.
//! * **Signing by control flow.** On a semantic merge tier, the serial
//!   merge signs the level's fingerprint-fresh candidates by control
//!   flow, simulating only the first instance of each control flow
//!   ([`crate::semantic`]).
//! * **Checkpointing.** Each completed function becomes a
//!   [`store::FunctionRecord`]; the whole store is rewritten atomically
//!   (temp file + rename) after every completion, with records in task
//!   order. A campaign killed at *any* point leaves a valid store
//!   holding exactly the completed subset; resuming with
//!   [`CampaignConfig::resume`] skips those functions and converges on a
//!   store **byte-identical** to an uninterrupted run's.
//! * **Partial exploration.** Under a [`CampaignConfig::budget`] a
//!   function's search is *suspended* at the level boundary where the
//!   budget ran out: its record checkpoints the partial space and the
//!   unexpanded frontier ([`store::FrontierState`]), and a later run
//!   (or the next memo-service request — see [`explore_function`])
//!   restores the search and keeps deepening it from exactly that
//!   state. Because the level-order search only mutates its space at
//!   level barriers, the restored state is precisely what an
//!   uninterrupted run passes through: no persisted prefix is ever
//!   re-expanded, and once the search finally completes its record —
//!   and the store — is byte-identical to an uncapped run's.
//!   [`CampaignConfig::cancel`] suspends every in-flight search the
//!   same way (how the daemon turns SIGTERM into flushed checkpoints).
//!   A fresh search restores the level-0 root checkpoint the same way.
//! * **Observability.** Progress streams through the [`Observer`] trait
//!   (function started / level completed / function done / store
//!   flushed); the CLI renders it as a live progress line, and later
//!   metrics work can tap the same events.
//!
//! Observer callbacks run under the campaign's internal scheduler lock:
//! they see a consistent, ordered event stream, and must be quick.

pub mod store;

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use vpo_opt::Target;
use vpo_rtl::canon::{self, Fingerprint};
use vpo_rtl::{FuncFlags, Function, Program};

use crate::enumerate::{
    expand_parent, merge_parent, rematerialize, AttemptRecord, Config, Enumeration, ExpandScratch,
    FrontierEntry, SearchOutcome, SearchStats,
};
use crate::request::MergeTier;
use crate::semantic::{SemanticConfig, SemanticContext};
use crate::space::{NodeId, SearchSpace};
use store::{FrontierState, FunctionRecord, ResultStore, StoreError};

/// One unit of the campaign's task list: a function to explore, under a
/// campaign-unique qualified name (e.g. `sha::sha_transform`) that also
/// keys its record in the store.
#[derive(Clone, Debug)]
pub struct FunctionTask {
    /// Qualified name; must be unique within the campaign.
    pub name: String,
    /// The unoptimized function.
    pub func: Function,
    /// The program the function belongs to, for simulator execution.
    /// Required when the campaign runs the semantic merge tier
    /// ([`CampaignConfig::semantic`]); ignored otherwise.
    pub program: Option<Arc<Program>>,
}

/// Campaign options.
#[derive(Clone, Debug, Default)]
pub struct CampaignConfig {
    /// Per-function enumeration bounds. `enumerate.jobs` is ignored —
    /// the campaign pool is sized by [`CampaignConfig::jobs`].
    pub enumerate: Config,
    /// Worker pool size: `0` or `1` = run on the calling thread, `N` =
    /// `N` workers. The store contents are identical for any value.
    pub jobs: usize,
    /// Skip functions that already have a record in the store.
    pub resume: bool,
    /// Abandon the campaign after this many *fresh* checkpoints — the
    /// deterministic stand-in for killing the process mid-run (the store
    /// is left exactly as a kill at a checkpoint boundary would).
    pub stop_after: Option<usize>,
    /// Run the semantic merge tier (`--merge-tier semantic`) with these
    /// battery options. `None` (the default) keeps the fingerprint tier.
    /// Every task must then carry its [`FunctionTask::program`].
    pub semantic: Option<SemanticConfig>,
    /// Subsumption-prune behaviorally merged subtrees (`--merge-tier
    /// semantic-pruned`). Requires [`CampaignConfig::semantic`]. The
    /// pruned tier produces a genuinely smaller space, so its stores are
    /// distinct memo keys from annotation-tier ones ([`store::ConfigEcho`]).
    pub sem_pruned: bool,
    /// Per-function expansion budget for this run: once a search has
    /// merged this many parent expansions *in this session*, it is
    /// suspended at the next level boundary with its frontier persisted
    /// in its record, instead of running to completion. `None` (the
    /// default) explores without suspending. The budget is checked at
    /// level barriers, where merging is deterministic, so the suspended
    /// record — and the eventual completed one — is identical for any
    /// job count.
    pub budget: Option<u64>,
    /// Cooperative cancellation: when this flag flips to `true`, every
    /// in-flight search is suspended at its last merged level (frontier
    /// persisted, store flushed) and the campaign returns with
    /// [`CampaignSummary::interrupted`] set. The daemon's SIGTERM
    /// handler sets it; `None` never cancels.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl CampaignConfig {
    /// The options of a run under merge tier `tier` — the one place a
    /// tier becomes [`CampaignConfig::semantic`] and
    /// [`CampaignConfig::sem_pruned`], which every later reader (the
    /// store's config echo, the merge) takes from here. `config.jobs`
    /// sizes the pool; `semantic` is kept only on a semantic tier.
    pub fn for_tier(tier: MergeTier, config: &Config, semantic: &SemanticConfig) -> CampaignConfig {
        CampaignConfig {
            enumerate: Config { jobs: 0, ..config.clone() },
            jobs: config.jobs,
            semantic: tier.is_semantic().then(|| semantic.clone()),
            sem_pruned: tier == MergeTier::SemanticPruned,
            ..CampaignConfig::default()
        }
    }
}

/// Why a campaign could not run (store trouble or a malformed task
/// list). Individual functions never fail: a function whose space
/// exceeds the bounds is recorded as truncated, like Table 3's `N/A`
/// rows.
#[derive(Debug)]
pub enum CampaignError {
    /// Reading or writing the result store failed.
    Store(StoreError),
    /// Two tasks share a qualified name.
    DuplicateName(String),
    /// The store exists but `resume` was not requested.
    StoreExists(PathBuf),
    /// The store holds a record for a function not in the task list.
    UnknownRecord(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Store(e) => write!(f, "{e}"),
            CampaignError::DuplicateName(n) => {
                write!(f, "duplicate task name `{n}` (task names key the store)")
            }
            CampaignError::StoreExists(p) => write!(
                f,
                "store {} already exists; pass --resume to continue it or remove it",
                p.display()
            ),
            CampaignError::UnknownRecord(n) => write!(
                f,
                "store holds a record for `{n}`, which is not in this campaign's task list"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<StoreError> for CampaignError {
    fn from(e: StoreError) -> Self {
        CampaignError::Store(e)
    }
}

/// Campaign progress events. All methods default to no-ops; implement
/// the ones you care about. Callbacks are invoked under the scheduler
/// lock — they are totally ordered and must not block.
#[allow(unused_variables)]
pub trait Observer: Sync {
    /// A function was taken off the pending list and its root seeded.
    fn function_started(&self, index: usize, total: usize, name: &str) {}
    /// One level of a function's space was merged.
    fn level_completed(&self, name: &str, level: u32, frontier: usize, nodes: usize) {}
    /// Session-budget accounting at a level barrier: `session_expanded`
    /// merged parents have been expanded by *this run* (not the
    /// function's lifetime total). Fired right after
    /// [`Observer::level_completed`] — the memo daemon streams these as
    /// `Progress` liveness frames to waiting clients.
    fn session_progress(&self, name: &str, level: u32, session_expanded: u64) {}
    /// A function's space is fully explored (or truncated) and recorded.
    fn function_done(&self, index: usize, total: usize, record: &FunctionRecord) {}
    /// A function's search was suspended at a level boundary with its
    /// frontier persisted (budget exhausted or campaign cancelled).
    fn function_suspended(&self, index: usize, total: usize, record: &FunctionRecord) {}
    /// The store was rewritten on disk with `completed` of `total`
    /// records.
    fn store_flushed(&self, completed: usize, total: usize) {}
}

/// The do-nothing observer.
pub struct NullObserver;

impl Observer for NullObserver {}

/// What a finished (or interrupted) campaign produced.
#[derive(Clone, Debug)]
pub struct CampaignSummary {
    /// Records of all recorded functions in task order — resumed and
    /// suspended ones included, so this is exactly the store contents.
    pub records: Vec<FunctionRecord>,
    /// Functions skipped because the store already held their terminal
    /// (complete or permanently truncated) record.
    pub resumed: usize,
    /// Functions this run carried to a terminal record.
    pub explored: usize,
    /// Functions suspended at a persisted frontier by the budget or a
    /// cancellation.
    pub suspended: usize,
    /// Functions restored from a persisted frontier and deepened.
    pub deepened: usize,
    /// Parent expansions merged by this run, across all functions — the
    /// node counter that proves resumed runs never re-expand a stored
    /// prefix (each distinct instance is expanded exactly once over a
    /// function's lifetime, however many sessions that spans).
    pub expanded: u64,
    /// Whether [`CampaignConfig::stop_after`] or
    /// [`CampaignConfig::cancel`] cut the run short.
    pub interrupted: bool,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// One in-flight function search: the per-function state of the
/// level-order search, opened up so the shared pool can claim
/// individual parent expansions.
struct Search<'a> {
    task: usize,
    /// The function's space. It only changes at level barriers, so every
    /// expansion claimed from the current level shares it to look its
    /// candidates up; the merge takes it back with [`Arc::get_mut`] once
    /// the level's last expansion is deposited.
    space: Arc<SearchSpace>,
    stats: SearchStats,
    paranoid_bytes: HashMap<(Fingerprint, FuncFlags), Vec<u8>>,
    /// Semantic-tier state (signature classes, control-flow memo and the
    /// merge's simulator), when the search runs a semantic merge tier.
    /// Only touched at merge time, which is serial per function and runs
    /// under the scheduler lock.
    sem: Option<SemanticContext<'a>>,
    start: Instant,
    /// When the current level's first parent was claimed.
    level_start: Instant,
    /// Levels merged so far (children of the current frontier land on
    /// `level + 1`).
    level: u32,
    frontier: Vec<FrontierEntry>,
    /// One slot per frontier entry, filled by whichever worker expanded
    /// it.
    slots: Vec<Option<Vec<AttemptRecord>>>,
    /// Frontier entries handed out to workers.
    claimed: usize,
    /// Slots deposited back.
    filled: usize,
    /// Parent expansions merged *this session* — the quantity
    /// [`CampaignConfig::budget`] caps. Restored searches start from
    /// zero again: the budget is per request, not per lifetime.
    session_expanded: u64,
}

/// A claimed run of consecutive parent expansions of one level.
struct Expansion {
    task: usize,
    level: u32,
    /// Frontier index of the first claimed parent.
    first: usize,
    /// The claimed parents in frontier order. Their discovery edges
    /// (the phase not to re-attempt) are read off `space`.
    parents: Vec<FrontierEntry>,
    space: Arc<SearchSpace>,
}

struct DriverState<'a> {
    next_pending: usize,
    active: Vec<Search<'a>>,
    /// One slot per task; a `Some` holds either a terminal record or a
    /// suspended checkpoint awaiting restoration.
    completed: Vec<Option<FunctionRecord>>,
    /// In an [`enumerate_all`] run, one slot per task for its finished
    /// search, which is handed back instead of recorded; empty otherwise.
    enumerations: Vec<Option<Enumeration>>,
    fresh: usize,
    suspended: usize,
    deepened: usize,
    expanded: u64,
    halt: bool,
    failure: Option<CampaignError>,
}

struct Ctx<'a> {
    tasks: &'a [FunctionTask],
    target: &'a Target,
    config: &'a CampaignConfig,
    store_path: Option<&'a Path>,
    observer: &'a dyn Observer,
    state: Mutex<DriverState<'a>>,
    cv: Condvar,
}

/// Runs a campaign over `tasks`, checkpointing to `store_path` (no
/// persistence when `None`).
///
/// Returns the summary, or an error before any work starts if the task
/// list or store is unusable. The records in the summary — and the
/// bytes in the store — are identical for any
/// [`CampaignConfig::jobs`], and an interrupted-then-resumed campaign
/// converges on the same bytes as an uninterrupted one.
pub fn run(
    tasks: Vec<FunctionTask>,
    target: &Target,
    store_path: Option<&Path>,
    config: &CampaignConfig,
    observer: &dyn Observer,
) -> Result<CampaignSummary, CampaignError> {
    let start = Instant::now();
    let mut seen = HashSet::new();
    for t in &tasks {
        if !seen.insert(t.name.as_str()) {
            return Err(CampaignError::DuplicateName(t.name.clone()));
        }
    }

    let mut completed: Vec<Option<FunctionRecord>> = vec![None; tasks.len()];
    if let Some(path) = store_path.filter(|p| p.exists()) {
        if !config.resume {
            return Err(CampaignError::StoreExists(path.to_owned()));
        }
        adopt_store(path, &tasks, config, &mut completed)?;
    }
    // A suspended checkpoint is not a finished function: it stays in
    // `completed` as the restore source, but the task will be activated
    // (and deepened) again.
    let resumed = completed.iter().flatten().filter(|r| !r.is_resumable()).count();
    drive(&tasks, target, store_path, config, observer, completed, resumed, start)
}

/// Adopts the store at `path` into a run over `tasks`: loads it, checks
/// its config echo against `config`, and puts each record into its
/// task's slot in `slots`, over whatever an earlier adoption left there.
/// A record whose task is missing is a [`CampaignError::UnknownRecord`].
/// A resumed [`run`] adopts its one store; the memo daemon adopts a
/// legacy base file and then each shard file, so later files win.
pub fn adopt_store(
    path: &Path,
    tasks: &[FunctionTask],
    config: &CampaignConfig,
    slots: &mut [Option<FunctionRecord>],
) -> Result<(), CampaignError> {
    let prior = ResultStore::load(path)?;
    prior.check_config(config)?;
    for rec in prior.records {
        let Some(i) = tasks.iter().position(|t| t.name == rec.name) else {
            return Err(CampaignError::UnknownRecord(rec.name));
        };
        slots[i] = Some(rec);
    }
    Ok(())
}

/// What one memo-service request produced: the function's record after
/// this request's work, plus how much expansion the request paid for.
#[derive(Clone, Debug)]
pub struct RequestOutcome {
    /// The record — terminal, or suspended with a fresh frontier
    /// checkpoint. `None` only when the request was cancelled before
    /// its search produced a single checkpoint (and no prior existed).
    pub record: Option<FunctionRecord>,
    /// Parent expansions merged by this request; `0` for a warm answer.
    pub expanded: u64,
}

/// Serves one function — the daemon's per-query entry point.
///
/// A *warm* query (the prior record is terminal) returns it immediately
/// without spawning any enumeration worker. A *cold* or *partial* query
/// runs the campaign driver on just this task — restoring the persisted
/// frontier if the prior record carries one — under
/// [`CampaignConfig::budget`], and returns the resulting record:
/// complete if the budget sufficed, suspended with a new frontier
/// checkpoint otherwise. The caller owns persistence (the daemon flushes
/// the affected shard, in task order, after every request that ran).
/// `observer` sees the usual campaign events — the daemon hooks
/// [`Observer::session_progress`] to stream liveness frames.
pub fn explore_function(
    task: FunctionTask,
    target: &Target,
    config: &CampaignConfig,
    prior: Option<FunctionRecord>,
    observer: &dyn Observer,
) -> Result<RequestOutcome, CampaignError> {
    if let Some(rec) = &prior {
        if rec.name != task.name {
            return Err(CampaignError::UnknownRecord(rec.name.clone()));
        }
        if !rec.is_resumable() {
            return Ok(RequestOutcome { record: prior, expanded: 0 });
        }
    }
    let start = Instant::now();
    let summary = drive(&[task], target, None, config, observer, vec![prior], 0, start)?;
    Ok(RequestOutcome { record: summary.records.into_iter().next(), expanded: summary.expanded })
}

/// The scheduler core of [`run`] and [`explore_function`]: drives
/// `tasks` on the worker pool, with `completed` pre-seeded from whatever
/// prior records the caller resumed.
#[allow(clippy::too_many_arguments)]
fn drive(
    tasks: &[FunctionTask],
    target: &Target,
    store_path: Option<&Path>,
    config: &CampaignConfig,
    observer: &dyn Observer,
    completed: Vec<Option<FunctionRecord>>,
    resumed: usize,
    start: Instant,
) -> Result<CampaignSummary, CampaignError> {
    let st = pool(tasks, target, store_path, config, observer, completed, Vec::new());
    if let Some(err) = st.failure {
        return Err(err);
    }
    Ok(CampaignSummary {
        records: st.completed.into_iter().flatten().collect(),
        resumed,
        explored: st.fresh,
        suspended: st.suspended,
        deepened: st.deepened,
        expanded: st.expanded,
        interrupted: st.halt,
        elapsed: start.elapsed(),
    })
}

/// Enumerates every task on one worker pool with no store, stealing
/// parent expansions across functions as [`run`] does, and returns one
/// [`Enumeration`] per task in task order, each identical to a serial
/// [`crate::enumerate()`] of that task — which is this function on a
/// one-task list. Panics if the config sets a budget, cancel flag or
/// `stop_after`: every search runs to its end.
pub fn enumerate_all(
    tasks: &[FunctionTask],
    target: &Target,
    config: &CampaignConfig,
) -> Vec<Enumeration> {
    assert!(
        config.budget.is_none() && config.cancel.is_none() && config.stop_after.is_none(),
        "enumeration runs every search to its end: no budget, cancel or stop_after"
    );
    let slots = tasks.iter().map(|_| None).collect();
    let st = pool(tasks, target, None, config, &NullObserver, vec![None; tasks.len()], slots);
    st.enumerations
        .into_iter()
        .map(|e| e.expect("a search with no budget, cancel or store runs to its end"))
        .collect()
}

/// Runs [`CampaignConfig::jobs`] workers — the calling thread plus
/// `jobs - 1` scoped threads — until every task is recorded, suspended
/// or abandoned, and returns the final scheduler state.
fn pool<'a>(
    tasks: &'a [FunctionTask],
    target: &'a Target,
    store_path: Option<&'a Path>,
    config: &'a CampaignConfig,
    observer: &'a dyn Observer,
    completed: Vec<Option<FunctionRecord>>,
    enumerations: Vec<Option<Enumeration>>,
) -> DriverState<'a> {
    let ctx = Ctx {
        tasks,
        target,
        config,
        store_path,
        observer,
        state: Mutex::new(DriverState {
            next_pending: 0,
            active: Vec::new(),
            completed,
            enumerations,
            fresh: 0,
            suspended: 0,
            deepened: 0,
            expanded: 0,
            halt: false,
            failure: None,
        }),
        cv: Condvar::new(),
    };
    std::thread::scope(|scope| {
        for _ in 1..config.jobs.max(1) {
            scope.spawn(|| worker(&ctx));
        }
        worker(&ctx);
    });
    ctx.state.into_inner().unwrap()
}

/// The worker loop: claim a run of parent expansions from any in-flight
/// search (activating the next pending function when every frontier is
/// fully claimed), expand them without holding the lock, deposit the
/// records, and merge/checkpoint when a level or function completes.
fn worker<'a>(ctx: &Ctx<'a>) {
    // Scratch buffers persist across every job this worker ever runs, so
    // steady-state expansions reuse the same heap blocks regardless of
    // which function the claimed parent belongs to.
    let mut scratch = ExpandScratch::new();
    // Identities this worker has already carried a body for in the
    // (task, level) it last expanded. Its claims within one level come
    // in frontier order, so a repeat is merged after the first sighting
    // and never needs the body.
    let mut seen: HashSet<(Fingerprint, FuncFlags)> = HashSet::new();
    let mut seen_level = None;
    loop {
        let job = {
            let mut st = ctx.state.lock().unwrap();
            loop {
                if st.halt || st.failure.is_some() {
                    return;
                }
                if ctx.config.cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed)) {
                    suspend_all(ctx, &mut st);
                    st.halt = true;
                    ctx.cv.notify_all();
                    return;
                }
                if let Some(job) = claim(ctx, &mut st) {
                    break job;
                }
                // Skip tasks the store already answers; a suspended
                // checkpoint is *not* an answer — it gets restored.
                while st.next_pending < ctx.tasks.len()
                    && st.completed[st.next_pending].as_ref().is_some_and(|r| !r.is_resumable())
                {
                    st.next_pending += 1;
                }
                if st.next_pending < ctx.tasks.len() {
                    activate(ctx, &mut st);
                    continue;
                }
                if st.active.is_empty() {
                    return;
                }
                // Every frontier entry is claimed but some worker is
                // still expanding; its deposit will wake us.
                st = ctx.cv.wait(st).unwrap();
            }
        };
        if seen_level != Some((job.task, job.level)) {
            seen.clear();
            seen_level = Some((job.task, job.level));
        }
        let config = &ctx.config.enumerate;
        let records = job
            .parents
            .iter()
            .map(|parent| {
                let skip = if config.skip_just_applied {
                    job.space.node(parent.id).discovered_from.map(|(_, p)| p)
                } else {
                    None
                };
                expand_parent(
                    ctx.target,
                    config,
                    &parent.func,
                    skip,
                    // The merge decides insertion against the real space;
                    // this only decides whether the candidate's body is
                    // carried.
                    |fp, flags| job.space.find(fp, flags).is_some() || !seen.insert((fp, flags)),
                    &mut scratch,
                )
            })
            .collect();
        let (task, first) = (job.task, job.first);
        // Release the shared space first: the level's last deposit
        // merges into it.
        drop(job);
        let mut st = ctx.state.lock().unwrap();
        let retired = deposit(ctx, &mut st, task, first, records);
        ctx.cv.notify_all();
        // Free a merged level's parent instances outside the lock: that
        // is most of a fingerprint-tier merge's cost.
        drop(st);
        drop(retired);
    }
}

/// Hands out the next unclaimed frontier entries, preferring the earliest
/// activated search — later functions only soak up lanes the earlier ones
/// cannot fill.
///
/// A claim takes a run of consecutive parents, about a quarter of each
/// worker's share of the level (at most 32): neighbouring parents share
/// most of their children, so one worker's seen-set catches the repeats
/// and only one body per new instance travels to the barrier, while
/// several claims per worker still balance uneven parents.
fn claim(ctx: &Ctx<'_>, st: &mut DriverState<'_>) -> Option<Expansion> {
    let tm = crate::telemetry::global();
    let workers = ctx.config.jobs.max(1);
    for (rank, s) in st.active.iter_mut().enumerate() {
        let len = s.frontier.len();
        if s.claimed < len {
            let first = s.claimed;
            if first == 0 {
                s.level_start = Instant::now();
            }
            let n = (len / (workers * 4)).clamp(1, 32).min(len - first);
            s.claimed += n;
            tm.campaign_claims.add(n as u64);
            if rank > 0 {
                // Lanes the earliest in-flight function could not fill,
                // soaked up by a later one — cross-function steals.
                tm.campaign_steals.add(n as u64);
            }
            return Some(Expansion {
                task: s.task,
                level: s.level,
                first,
                parents: s.frontier[first..first + n].to_vec(),
                space: Arc::clone(&s.space),
            });
        }
    }
    None
}

/// Puts the next pending function in flight, restoring its search from
/// a checkpoint: the suspended record's frontier, or — for a function
/// never searched — the root checkpoint ([`FrontierState::root`]).
fn activate<'a>(ctx: &Ctx<'a>, st: &mut DriverState<'a>) {
    let task = st.next_pending;
    st.next_pending += 1;
    let tm = crate::telemetry::global();
    let search = match st.completed[task].as_ref().filter(|r| r.is_resumable()) {
        Some(rec) => {
            st.deepened += 1;
            tm.campaign_functions_deepened.inc();
            let fs = rec.frontier.as_ref().expect("a resumable record carries its checkpoint");
            restore_search(ctx, task, rec.search_stats(), fs)
        }
        None => {
            // The root is the search's first inserted node; restored
            // nodes were counted by the session that inserted them.
            tm.nodes_inserted.inc();
            let root = FrontierState::root(&ctx.tasks[task].func);
            restore_search(ctx, task, SearchStats::default(), &root)
        }
    };
    st.active.push(search);
    tm.campaign_functions_started.inc();
    ctx.observer.function_started(task, ctx.tasks.len(), &ctx.tasks[task].name);
}

/// Rebuilds a search from a checkpoint so expansion continues exactly
/// where it left off — the only way a search opens.
///
/// The checkpoint persists only the space topology; everything derived
/// from function *bodies* is regrown by replaying discovery sequences
/// from the unoptimized root ([`rematerialize`]): the frontier
/// instances themselves, the canonical byte table in paranoid mode, and
/// — under the semantic tier — the signature classes, re-registered for
/// every founder in id order (discovery order), reproducing the exact
/// class table the original run had at this barrier. Founders are signed
/// by control flow, so the walk simulates one counted battery per
/// distinct control flow among them and infers the rest. `stats` carries the
/// search counters from the checkpoint's record, so the completed
/// record's statistics equal an uncapped run's.
fn restore_search<'a>(
    ctx: &Ctx<'a>,
    task: usize,
    stats: SearchStats,
    fs: &FrontierState,
) -> Search<'a> {
    let FunctionTask { func: root, program, .. } = &ctx.tasks[task];
    let mut space = SearchSpace::new();
    for node in &fs.nodes {
        space.insert(node.clone());
    }
    let remat = |id: NodeId| rematerialize(root, ctx.target, &space, id);
    let mut paranoid_bytes = HashMap::new();
    if ctx.config.enumerate.paranoid {
        for (id, node) in space.iter() {
            paranoid_bytes.insert((node.fp, node.flags), canon::canonical_bytes(&remat(id)));
        }
    }
    let sem = ctx.config.semantic.as_ref().map(|sc| {
        let program = program.as_deref().expect("semantic campaign tasks must carry their program");
        let mut sem = SemanticContext::new(program, root, sc, ctx.config.enumerate.paranoid);
        // Pruned nodes are never founders (their `sem_rep` resolves
        // through the parent's pruned edge), so the founder walk below
        // re-registers only representatives — rebuilding the exact class
        // table the original run had at this barrier; the root founds
        // the first class. Class membership of merged nodes lives in the
        // space's own merge edges.
        for id in space.iter().map(|(id, _)| id).filter(|&id| space.sem_rep(id) == id) {
            let func = Arc::new(remat(id));
            let sig = sem.flow_signature(&func);
            sem.register(sig, id, &func);
        }
        sem
    });
    let frontier: Vec<FrontierEntry> = fs
        .frontier
        .iter()
        .map(|&id| FrontierEntry { id: NodeId(id), func: Arc::new(remat(NodeId(id))) })
        .collect();
    Search {
        task,
        space: Arc::new(space),
        stats,
        paranoid_bytes,
        sem,
        start: Instant::now(),
        level_start: Instant::now(),
        level: fs.level,
        slots: frontier.iter().map(|_| None).collect(),
        frontier,
        claimed: 0,
        filled: 0,
        session_expanded: 0,
    }
}

/// Where a finished claim of `task` lands: the position of its search in
/// `st.active`, or `None` once the campaign has halted. A checkpoint that
/// reached `stop_after` halts the campaign the moment it lands; work
/// still in flight on other workers is discarded so the store stays
/// exactly at the cut boundary instead of racing in one more record.
fn landing(st: &DriverState<'_>, task: usize) -> Option<usize> {
    if st.halt || st.failure.is_some() {
        return None;
    }
    let pos = st.active.iter().position(|s| s.task == task);
    Some(pos.expect("a claim landed for a search no longer in flight"))
}

/// Parks the attempt records of the claimed parents starting at
/// frontier index `first`. When the level's last expansion lands, merges
/// the level ([`merge_level`]). Returns the merged level's frontier, if
/// it merged, so the caller frees its instances after releasing the
/// scheduler lock.
fn deposit(
    ctx: &Ctx<'_>,
    st: &mut DriverState<'_>,
    task: usize,
    first: usize,
    records: Vec<Vec<AttemptRecord>>,
) -> Vec<FrontierEntry> {
    let Some(pos) = landing(st, task) else { return Vec::new() };
    let s = &mut st.active[pos];
    s.filled += records.len();
    for (slot, r) in s.slots[first..].iter_mut().zip(records) {
        debug_assert!(slot.is_none(), "parent expanded twice");
        *slot = Some(r);
    }
    if s.filled < s.frontier.len() {
        return Vec::new();
    }
    merge_level(ctx, st, pos)
}

/// Level barrier reached: merges every parent of the search at `pos` in
/// frontier order (restoring the serial discovery order), signing the
/// fingerprint-fresh candidates on a semantic tier, and either refills
/// the frontier or finalizes and checkpoints the function. Returns the
/// merged level's frontier.
fn merge_level(ctx: &Ctx<'_>, st: &mut DriverState<'_>, pos: usize) -> Vec<FrontierEntry> {
    let merge_start = Instant::now();
    let s = &mut st.active[pos];
    let task = s.task;
    let tm = crate::telemetry::global();
    let config = ctx.config;
    s.level += 1;
    tm.peak_frontier.set_max(s.frontier.len() as u64);
    let merged = s.frontier.len() as u64;
    s.session_expanded += merged;
    let frontier = std::mem::take(&mut s.frontier);
    let slots = std::mem::take(&mut s.slots);
    let space =
        Arc::get_mut(&mut s.space).expect("every expansion of the level released the space");
    let mut next = Vec::new();
    let mut truncated = false;
    for (entry, slot) in frontier.iter().zip(slots) {
        let records = slot.expect("barrier reached with an unfilled slot");
        if !merge_parent(
            space,
            &mut s.stats,
            &mut s.paranoid_bytes,
            config,
            ctx.target,
            s.level,
            entry,
            records,
            &mut next,
            s.sem.as_mut(),
        ) {
            truncated = true;
            break;
        }
        if next.len() > config.enumerate.max_level_width {
            truncated = true;
            break;
        }
    }
    tm.merge_wall_ns.observe(merge_start.elapsed());
    tm.levels.inc();
    tm.level_wall_ns.observe(s.level_start.elapsed());
    let name = &ctx.tasks[task].name;
    ctx.observer.level_completed(name, s.level, next.len(), s.space.len());
    ctx.observer.session_progress(name, s.level, s.session_expanded);
    let over_budget = ctx.config.budget.is_some_and(|b| s.session_expanded >= b);
    st.expanded += merged;

    if !truncated && !next.is_empty() {
        if over_budget {
            // Budget exhausted with work left: checkpoint the frontier
            // the next session will expand.
            let ids = next.iter().map(|e| e.id.0).collect();
            suspend(ctx, st, pos, ids);
        } else {
            s.slots = next.iter().map(|_| None).collect();
            s.frontier = next;
            s.claimed = 0;
            s.filled = 0;
        }
        return frontier;
    }

    // Function complete (or truncated): build its result.
    let s = st.active.remove(pos);
    let mut space = Arc::unwrap_or_clone(s.space);
    space.compute_weights().expect("phase-order space must be acyclic");
    let stats = SearchStats { elapsed: s.start.elapsed(), ..s.stats };
    let outcome =
        if truncated { SearchOutcome::TooBig { level: s.level } } else { SearchOutcome::Complete };
    tm.campaign_functions_completed.inc();
    if truncated {
        tm.campaign_functions_truncated.inc();
    }
    let e = Enumeration { space, outcome, stats };
    if !st.enumerations.is_empty() {
        st.enumerations[task] = Some(e);
        return frontier;
    }
    let record = FunctionRecord::from_enumeration(name.clone(), &ctx.tasks[task].func, &e);
    st.completed[task] = Some(record.clone());
    st.fresh += 1;
    if flush_store(ctx, st) {
        ctx.observer.function_done(task, ctx.tasks.len(), &record);
        if ctx.config.stop_after == Some(st.fresh) {
            st.halt = true;
        }
    }
    frontier
}

/// Suspends the in-flight search at `pos` in `st.active`: its partial
/// space and the given frontier ids become a [`FrontierState`]
/// checkpoint inside an incomplete record, flushed like any other
/// checkpoint. Used at a budget barrier (with the *next* level's
/// frontier) and on cancellation (with the current, unmerged frontier —
/// in-flight expansions are discarded, which is sound because the space
/// only mutates at barriers).
fn suspend(ctx: &Ctx<'_>, st: &mut DriverState<'_>, pos: usize, frontier_ids: Vec<u32>) {
    let s = st.active.remove(pos);
    let task = s.task;
    let fs = FrontierState {
        level: s.level,
        nodes: s.space.iter().map(|(_, n)| n.clone()).collect(),
        frontier: frontier_ids,
    };
    // Weights stay uncomputed: they are only defined on a finished
    // space, and the record's statistics don't read them. Cancellation
    // can land while claimed expansions still share the space.
    let e = Enumeration {
        space: Arc::unwrap_or_clone(s.space),
        outcome: SearchOutcome::TooBig { level: s.level },
        stats: SearchStats { elapsed: s.start.elapsed(), ..s.stats },
    };
    let t = &ctx.tasks[task];
    let mut record = FunctionRecord::from_enumeration(t.name.clone(), &t.func, &e);
    record.frontier = Some(fs);
    st.completed[task] = Some(record.clone());
    st.suspended += 1;
    crate::telemetry::global().campaign_functions_suspended.inc();
    if flush_store(ctx, st) {
        ctx.observer.function_suspended(task, ctx.tasks.len(), &record);
    }
}

/// Suspends every in-flight search (cancellation path). Each search is
/// checkpointed at its last merged level; claimed-but-unmerged
/// expansions are dropped.
fn suspend_all(ctx: &Ctx<'_>, st: &mut DriverState<'_>) {
    while let Some(s) = st.active.first() {
        let ids = s.frontier.iter().map(|e| e.id.0).collect();
        suspend(ctx, st, 0, ids);
        if st.failure.is_some() {
            return;
        }
    }
}

/// Rewrites the store with the current record set (no-op without a
/// store path). Returns `false` — with `st.failure` set — if the write
/// failed.
fn flush_store(ctx: &Ctx<'_>, st: &mut DriverState<'_>) -> bool {
    let Some(path) = ctx.store_path else { return true };
    let snapshot = ResultStore {
        config: store::ConfigEcho::of(ctx.config),
        records: st.completed.iter().flatten().cloned().collect(),
    };
    match save_store(&snapshot, path) {
        Ok(()) => {
            ctx.observer.store_flushed(snapshot.records.len(), ctx.tasks.len());
            true
        }
        Err(err) => {
            st.failure = Some(CampaignError::Store(err));
            false
        }
    }
}

/// Writes `store` to `path` ([`ResultStore::save`]) and counts the flush
/// in the `campaign.store_*` metrics. Campaign checkpoints and the memo
/// daemon's shard flushes both persist through it.
pub fn save_store(store: &ResultStore, path: &Path) -> Result<(), StoreError> {
    let start = Instant::now();
    store.save(path)?;
    let tm = crate::telemetry::global();
    tm.store_flush_wall_ns.observe(start.elapsed());
    tm.store_flushes.inc();
    tm.store_bytes.set(std::fs::metadata(path).map(|m| m.len()).unwrap_or(0));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmp_dir::TmpDir;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tasks_from(src: &str) -> Vec<FunctionTask> {
        vpo_frontend::compile(src)
            .unwrap()
            .functions
            .into_iter()
            .map(|f| FunctionTask { name: f.name.clone(), func: f, program: None })
            .collect()
    }

    fn three_functions() -> Vec<FunctionTask> {
        tasks_from(
            r#"
            int add(int a, int b) { return a + b + a; }
            int tri(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i; return s; }
            int pick(int a, int b) { if (a > b) return a - b; return b - a; }
            "#,
        )
    }

    /// A scratch directory for one test, removed when the guard drops,
    /// and the store path in it.
    fn tmp_store(tag: &str) -> (TmpDir, PathBuf) {
        let dir = TmpDir::new(&format!("vpoc_campaign_{}_{tag}", std::process::id()));
        let path = dir.join("campaign.store");
        (dir, path)
    }

    #[test]
    fn records_match_direct_enumeration() {
        let tasks = three_functions();
        let target = Target::default();
        let summary =
            run(tasks.clone(), &target, None, &CampaignConfig::default(), &NullObserver).unwrap();
        assert_eq!(summary.records.len(), 3);
        assert_eq!(summary.explored, 3);
        assert_eq!(summary.resumed, 0);
        assert!(!summary.interrupted);
        for (task, rec) in tasks.iter().zip(&summary.records) {
            let e = crate::enumerate(&task.func, &target, &Config::default());
            let direct = FunctionRecord::from_enumeration(task.name.clone(), &task.func, &e);
            assert_eq!(*rec, direct, "{}", task.name);
        }
    }

    #[test]
    fn enumerate_all_matches_per_task_enumeration() {
        let tasks = three_functions();
        let target = Target::default();
        for jobs in [0usize, 2, 5] {
            let config = CampaignConfig { jobs, ..CampaignConfig::default() };
            let all = enumerate_all(&tasks, &target, &config);
            assert_eq!(all.len(), tasks.len());
            for (task, e) in tasks.iter().zip(&all) {
                let direct = crate::enumerate(&task.func, &target, &Config::default());
                assert_eq!(e.space.to_dot(), direct.space.to_dot(), "{} at jobs {jobs}", task.name);
                assert_eq!(
                    FunctionRecord::from_enumeration(task.name.clone(), &task.func, e),
                    FunctionRecord::from_enumeration(task.name.clone(), &task.func, &direct),
                    "{} at jobs {jobs}",
                    task.name
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "no budget, cancel or stop_after")]
    fn enumerate_all_rejects_a_budget() {
        let config = CampaignConfig { budget: Some(1), ..CampaignConfig::default() };
        enumerate_all(&three_functions(), &Target::default(), &config);
    }

    #[test]
    fn store_bytes_identical_for_any_job_count() {
        let target = Target::default();
        let mut stores = Vec::new();
        for jobs in [0usize, 1, 4, 8] {
            let (_dir, path) = tmp_store(&format!("jobs{jobs}"));
            std::fs::remove_file(&path).ok();
            let config = CampaignConfig { jobs, ..CampaignConfig::default() };
            run(three_functions(), &target, Some(&path), &config, &NullObserver).unwrap();
            stores.push(std::fs::read(&path).unwrap());
            std::fs::remove_file(&path).ok();
        }
        for s in &stores[1..] {
            assert_eq!(*s, stores[0], "store bytes differ across job counts");
        }
    }

    #[test]
    fn interrupt_and_resume_converge_for_every_cut_point() {
        let target = Target::default();
        let (_dir, uninterrupted) = tmp_store("full");
        std::fs::remove_file(&uninterrupted).ok();
        run(
            three_functions(),
            &target,
            Some(&uninterrupted),
            &CampaignConfig { jobs: 4, ..CampaignConfig::default() },
            &NullObserver,
        )
        .unwrap();
        let want = std::fs::read(&uninterrupted).unwrap();
        for cut in 1..=2usize {
            for jobs in [1usize, 4] {
                let (_dir, path) = tmp_store(&format!("cut{cut}_j{jobs}"));
                std::fs::remove_file(&path).ok();
                let stopped =
                    CampaignConfig { jobs, stop_after: Some(cut), ..CampaignConfig::default() };
                let s1 =
                    run(three_functions(), &target, Some(&path), &stopped, &NullObserver).unwrap();
                assert!(s1.interrupted, "cut {cut} jobs {jobs}");
                assert_eq!(s1.explored, cut);
                let resume = CampaignConfig { jobs, resume: true, ..CampaignConfig::default() };
                let s2 =
                    run(three_functions(), &target, Some(&path), &resume, &NullObserver).unwrap();
                assert!(!s2.interrupted);
                assert_eq!(s2.resumed, cut);
                assert_eq!(s2.explored, 3 - cut);
                assert_eq!(
                    std::fs::read(&path).unwrap(),
                    want,
                    "cut {cut} jobs {jobs}: resumed store differs from uninterrupted"
                );
                std::fs::remove_file(&path).ok();
            }
        }
        std::fs::remove_file(&uninterrupted).ok();
    }

    #[test]
    fn truncated_functions_are_recorded_not_fatal() {
        let target = Target::default();
        let config = CampaignConfig {
            enumerate: Config { max_nodes: 5, ..Config::default() },
            ..CampaignConfig::default()
        };
        let summary = run(three_functions(), &target, None, &config, &NullObserver).unwrap();
        assert_eq!(summary.records.len(), 3);
        assert!(summary.records.iter().any(|r| !r.complete), "a 5-node cap must truncate");
        for r in &summary.records {
            if !r.complete {
                assert!(r.truncated_level > 0);
                assert!(r.fn_instances <= 5);
            }
        }
    }

    #[test]
    fn observer_sees_the_whole_lifecycle() {
        struct Counting {
            started: AtomicUsize,
            levels: AtomicUsize,
            done: AtomicUsize,
            flushed: AtomicUsize,
        }
        impl Observer for Counting {
            fn function_started(&self, _i: usize, _t: usize, _n: &str) {
                self.started.fetch_add(1, Ordering::Relaxed);
            }
            fn level_completed(&self, _n: &str, _l: u32, _f: usize, _s: usize) {
                self.levels.fetch_add(1, Ordering::Relaxed);
            }
            fn function_done(&self, _i: usize, _t: usize, _r: &FunctionRecord) {
                self.done.fetch_add(1, Ordering::Relaxed);
            }
            fn store_flushed(&self, _c: usize, _t: usize) {
                self.flushed.fetch_add(1, Ordering::Relaxed);
            }
        }
        let obs = Counting {
            started: AtomicUsize::new(0),
            levels: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            flushed: AtomicUsize::new(0),
        };
        let (_dir, path) = tmp_store("observer");
        std::fs::remove_file(&path).ok();
        let target = Target::default();
        run(
            three_functions(),
            &target,
            Some(&path),
            &CampaignConfig { jobs: 2, ..CampaignConfig::default() },
            &obs,
        )
        .unwrap();
        assert_eq!(obs.started.load(Ordering::Relaxed), 3);
        assert_eq!(obs.done.load(Ordering::Relaxed), 3);
        assert_eq!(obs.flushed.load(Ordering::Relaxed), 3);
        assert!(obs.levels.load(Ordering::Relaxed) >= 3, "each function has at least one level");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn task_list_and_store_misuse_are_rejected() {
        let target = Target::default();
        let mut tasks = three_functions();
        tasks[1].name = tasks[0].name.clone();
        assert!(matches!(
            run(tasks, &target, None, &CampaignConfig::default(), &NullObserver),
            Err(CampaignError::DuplicateName(_))
        ));

        // Existing store without --resume.
        let (_dir, path) = tmp_store("misuse");
        std::fs::remove_file(&path).ok();
        run(three_functions(), &target, Some(&path), &CampaignConfig::default(), &NullObserver)
            .unwrap();
        assert!(matches!(
            run(three_functions(), &target, Some(&path), &CampaignConfig::default(), &NullObserver),
            Err(CampaignError::StoreExists(_))
        ));

        // Resume under different bounds.
        let other = CampaignConfig {
            enumerate: Config { max_nodes: 9, ..Config::default() },
            resume: true,
            ..CampaignConfig::default()
        };
        assert!(matches!(
            run(three_functions(), &target, Some(&path), &other, &NullObserver),
            Err(CampaignError::Store(StoreError::ConfigMismatch(_)))
        ));

        // Resume against a store whose records are not in the task list.
        let fewer = vec![three_functions().swap_remove(0)];
        let resume = CampaignConfig { resume: true, ..CampaignConfig::default() };
        assert!(matches!(
            run(fewer, &target, Some(&path), &resume, &NullObserver),
            Err(CampaignError::UnknownRecord(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_capped_sessions_converge_on_uncapped_bytes() {
        let target = Target::default();
        let (_dir, uncapped) = tmp_store("uncapped");
        std::fs::remove_file(&uncapped).ok();
        let full = run(
            three_functions(),
            &target,
            Some(&uncapped),
            &CampaignConfig::default(),
            &NullObserver,
        )
        .unwrap();
        let want = std::fs::read(&uncapped).unwrap();
        let total_nodes: u64 = full.records.iter().map(|r| r.fn_instances).sum();
        assert_eq!(full.expanded, total_nodes, "each instance is expanded exactly once");

        let (_dir, path) = tmp_store("budget");
        std::fs::remove_file(&path).ok();
        let mut expanded = 0u64;
        let mut sessions = 0usize;
        let mut deepened = 0usize;
        loop {
            let config = CampaignConfig {
                budget: Some(1),
                resume: path.exists(),
                ..CampaignConfig::default()
            };
            let s = run(three_functions(), &target, Some(&path), &config, &NullObserver).unwrap();
            expanded += s.expanded;
            deepened += s.deepened;
            sessions += 1;
            assert!(sessions < 200, "budgeted sessions must converge");
            if s.records.iter().all(|r| !r.is_resumable()) {
                break;
            }
            assert!(s.suspended > 0, "an unfinished budgeted session suspends something");
        }
        assert!(sessions > 1, "budget 1 cannot finish these spaces in one session");
        assert!(deepened > 0, "later sessions restore persisted frontiers");
        assert_eq!(expanded, total_nodes, "budgeted sessions must never re-expand a stored prefix");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            want,
            "finished budgeted store differs from the uncapped store"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&uncapped).ok();
    }

    #[test]
    fn cancellation_suspends_and_resume_converges() {
        struct CancelAfterLevels(Arc<AtomicBool>, AtomicUsize);
        impl Observer for CancelAfterLevels {
            fn level_completed(&self, _n: &str, _l: u32, _f: usize, _s: usize) {
                if self.1.fetch_add(1, Ordering::Relaxed) + 1 >= 2 {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
        }
        let target = Target::default();
        let (_dir, uncapped) = tmp_store("cancel_full");
        std::fs::remove_file(&uncapped).ok();
        run(three_functions(), &target, Some(&uncapped), &CampaignConfig::default(), &NullObserver)
            .unwrap();
        let want = std::fs::read(&uncapped).unwrap();

        let (_dir, path) = tmp_store("cancel");
        std::fs::remove_file(&path).ok();
        let flag = Arc::new(AtomicBool::new(false));
        let obs = CancelAfterLevels(Arc::clone(&flag), AtomicUsize::new(0));
        let config =
            CampaignConfig { cancel: Some(Arc::clone(&flag)), ..CampaignConfig::default() };
        let s = run(three_functions(), &target, Some(&path), &config, &obs).unwrap();
        assert!(s.interrupted, "cancellation must interrupt the campaign");
        assert!(s.suspended > 0, "the in-flight search is checkpointed");

        let resume = CampaignConfig { resume: true, ..CampaignConfig::default() };
        let s = run(three_functions(), &target, Some(&path), &resume, &NullObserver).unwrap();
        assert!(!s.interrupted);
        assert!(s.deepened > 0, "the cancelled search resumes from its frontier");
        assert_eq!(std::fs::read(&path).unwrap(), want);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&uncapped).ok();
    }

    #[test]
    fn explore_function_serves_cold_partial_and_warm() {
        let target = Target::default();
        let tasks = three_functions();
        let task = tasks[1].clone(); // `tri` has the deepest space here
        let direct = crate::enumerate(&task.func, &target, &Config::default());
        let want = FunctionRecord::from_enumeration(task.name.clone(), &task.func, &direct);

        // Cold query under a tiny budget: best-so-far plus a frontier.
        let config = CampaignConfig { budget: Some(1), ..CampaignConfig::default() };
        let out = explore_function(task.clone(), &target, &config, None, &NullObserver).unwrap();
        let first = out.record.clone().unwrap();
        assert!(out.expanded > 0);
        assert!(first.is_resumable(), "budget 1 cannot finish this space");
        assert!(first.fn_instances < want.fn_instances);

        // Repeated queries strictly deepen until the record completes.
        let mut rec = first;
        let mut total = out.expanded;
        let mut rounds = 0;
        while rec.is_resumable() {
            let out =
                explore_function(task.clone(), &target, &config, Some(rec), &NullObserver).unwrap();
            assert!(out.expanded > 0, "a partial query must make progress");
            rec = out.record.unwrap();
            total += out.expanded;
            rounds += 1;
            assert!(rounds < 100, "partial queries must converge");
        }
        assert_eq!(rec, want, "converged record must equal direct enumeration");
        assert_eq!(total, want.fn_instances, "no prefix may be re-expanded across queries");

        // Warm query: answered from the memo, no expansion at all.
        let out =
            explore_function(task.clone(), &target, &config, Some(rec.clone()), &NullObserver)
                .unwrap();
        assert_eq!(out.expanded, 0);
        assert_eq!(out.record.unwrap(), rec);

        // A prior under the wrong name is rejected.
        let mut wrong = rec;
        wrong.name = "other::fn".into();
        assert!(matches!(
            explore_function(task, &target, &config, Some(wrong), &NullObserver),
            Err(CampaignError::UnknownRecord(_))
        ));
    }

    #[test]
    fn suspended_records_flow_through_the_observer() {
        struct Suspends(AtomicUsize);
        impl Observer for Suspends {
            fn function_suspended(&self, _i: usize, _t: usize, r: &FunctionRecord) {
                assert!(r.frontier.is_some());
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let obs = Suspends(AtomicUsize::new(0));
        let target = Target::default();
        let config = CampaignConfig { budget: Some(1), ..CampaignConfig::default() };
        let s = run(three_functions(), &target, None, &config, &obs).unwrap();
        assert_eq!(s.suspended, obs.0.load(Ordering::Relaxed));
        assert!(s.suspended > 0);
        // Without a store, the summary still carries the checkpoints.
        assert!(s.records.iter().any(|r| r.is_resumable()));
    }

    fn semantic_tasks() -> Vec<FunctionTask> {
        let program = Arc::new(
            vpo_frontend::compile(
                r#"
                int add(int a, int b) { return a + b + a; }
                int tri(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i; return s; }
                int dbl(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i * 2; return s; }
                "#,
            )
            .unwrap(),
        );
        program
            .functions
            .iter()
            .map(|f| FunctionTask {
                name: f.name.clone(),
                func: f.clone(),
                program: Some(Arc::clone(&program)),
            })
            .collect()
    }

    #[test]
    fn pruned_tier_store_bytes_identical_across_jobs_and_resume() {
        let target = Target::default();
        let pruned = |jobs: usize| CampaignConfig {
            jobs,
            semantic: Some(SemanticConfig::default()),
            sem_pruned: true,
            ..CampaignConfig::default()
        };

        // Jobs sweep: expansion order races, merge order does not.
        let mut stores = Vec::new();
        for jobs in [0usize, 2, 8] {
            let (_dir, path) = tmp_store(&format!("pruned_jobs{jobs}"));
            std::fs::remove_file(&path).ok();
            run(semantic_tasks(), &target, Some(&path), &pruned(jobs), &NullObserver).unwrap();
            stores.push(std::fs::read(&path).unwrap());
            std::fs::remove_file(&path).ok();
        }
        for s in &stores[1..] {
            assert_eq!(*s, stores[0], "pruned-tier store bytes differ across job counts");
        }
        let full = ResultStore::from_bytes(&stores[0]).unwrap();
        assert!(full.config.sem_pruned);
        let (merges, prunes, fallbacks) = full.records.iter().fold((0, 0, 0), |a, r| {
            (a.0 + r.sem_merges, a.1 + r.sem_prunes, a.2 + r.sem_mask_fallbacks)
        });
        assert_eq!(merges, prunes + fallbacks, "every behavioral merge is pruned or falls back");

        // Budgeted sessions (frontiers persisting pruned nodes) converge
        // on the uncapped bytes, at every job count.
        for jobs in [0usize, 2, 8] {
            let (_dir, path) = tmp_store(&format!("pruned_budget_j{jobs}"));
            std::fs::remove_file(&path).ok();
            let mut sessions = 0;
            loop {
                let config =
                    CampaignConfig { budget: Some(1), resume: path.exists(), ..pruned(jobs) };
                let s =
                    run(semantic_tasks(), &target, Some(&path), &config, &NullObserver).unwrap();
                sessions += 1;
                assert!(sessions < 200, "budgeted pruned sessions must converge");
                if s.records.iter().all(|r| !r.is_resumable()) {
                    break;
                }
            }
            assert!(sessions > 1, "budget 1 cannot finish these spaces in one session");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                stores[0],
                "jobs {jobs}: resumed pruned store differs from uninterrupted"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn pruned_and_annotation_stores_never_interchange() {
        let target = Target::default();
        let (_dir, path) = tmp_store("tier_mismatch");
        std::fs::remove_file(&path).ok();
        let pruned = CampaignConfig {
            semantic: Some(SemanticConfig::default()),
            sem_pruned: true,
            ..CampaignConfig::default()
        };
        run(semantic_tasks(), &target, Some(&path), &pruned, &NullObserver).unwrap();
        // Resuming the pruned store under the annotation tier refuses.
        let annotation = CampaignConfig {
            semantic: Some(SemanticConfig::default()),
            resume: true,
            ..CampaignConfig::default()
        };
        assert!(matches!(
            run(semantic_tasks(), &target, Some(&path), &annotation, &NullObserver),
            Err(CampaignError::Store(StoreError::ConfigMismatch(_)))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_on_complete_store_is_a_noop() {
        let target = Target::default();
        let (_dir, path) = tmp_store("noop");
        std::fs::remove_file(&path).ok();
        run(three_functions(), &target, Some(&path), &CampaignConfig::default(), &NullObserver)
            .unwrap();
        let before = std::fs::read(&path).unwrap();
        let resume = CampaignConfig { resume: true, ..CampaignConfig::default() };
        let summary = run(three_functions(), &target, Some(&path), &resume, &NullObserver).unwrap();
        assert_eq!(summary.resumed, 3);
        assert_eq!(summary.explored, 0);
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_file(&path).ok();
    }
}
