//! `vpoc serve` — the persistent phase-order memo daemon (vpod).
//!
//! The daemon fronts a set of **shard stores** and answers [`Request`]
//! frames over a Unix domain socket. Functions hash deterministically
//! across `--shards` store files ([`store::shard_of`]), each shard its
//! own CRC-framed [`ResultStore`] in the v4 on-disk format with the
//! byte-identical resume guarantee — one shard's flush never blocks
//! another shard's cold run. A read-mostly in-memory memo index (one
//! `RwLock` slot per function) answers *warm* queries — terminal
//! records — without touching any lock a cold run holds.
//!
//! A *cold* or *partially-explored* query runs the campaign driver on
//! that one function under a per-request expansion budget, streaming
//! [`Response::Progress`] liveness frames at every level barrier, and
//! terminates with either a complete record or a suspended one whose
//! frontier checkpoint is persisted in its shard. Identical concurrent
//! queries are deduplicated in flight: the first becomes the *runner*,
//! later ones *attach* and receive the runner's terminal response, so
//! N clients asking for the same cold function cost one enumeration.
//!
//! Connections are accepted by a dedicated blocking listener thread
//! feeding a bounded work queue drained by a fixed worker pool — no
//! sleep-polling on the accept path (`serve.accept_wait_ns` measures
//! time spent queued). Admission control caps concurrent enumerations
//! (`--max-active`) and cold requests waiting for a slot
//! (`--max-queue`); requests beyond both get [`Response::Overloaded`]
//! with a retry-after hint. Warm queries, `--list` and `--telemetry`
//! bypass admission entirely.
//!
//! SIGTERM/SIGINT (or a [`Request::Shutdown`] frame) drain the daemon
//! gracefully: the campaign cancel flag flips, every in-flight search
//! suspends at its last merged level and checkpoints its frontier, the
//! shards are flushed, the socket file removed, and the process exits 0.

use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use phase_order::campaign::store::{self, FunctionRecord, ResultStore};
use phase_order::campaign::{self, CampaignConfig, FunctionTask, Observer};
use phase_order::service::{ListEntry, Request, Response, Served};
use phase_order::telemetry;
use phase_order::wire::{read_frame, write_frame, FrameError};
use vpo_opt::Target;

use crate::args;

/// Default per-request expansion budget for cold queries that do not
/// carry their own (`vpoc serve --budget` overrides it daemon-wide).
const DEFAULT_BUDGET: u64 = 10_000;
/// Default cap on concurrently running enumerations.
const DEFAULT_MAX_ACTIVE: usize = 2;
/// Default cap on cold requests waiting for an enumeration slot.
const DEFAULT_MAX_QUEUE: usize = 16;
/// Shutdown-poll interval for waits that must notice the signal flag
/// (admission and the main drain loop — never the accept path).
const POLL: Duration = Duration::from_millis(25);

/// Process-wide shutdown request, set by the signal handler or a
/// [`Request::Shutdown`] frame.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Installs SIGTERM/SIGINT handlers that flip [`SHUTDOWN`]. Raw
/// `signal(2)` through the libc std already links — storing to a static
/// atomic is async-signal-safe.
fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Admission state: how many enumerations run right now and how many
/// cold requests wait for a slot. Waiters block on [`Daemon::adm_cv`].
#[derive(Default)]
struct Admission {
    running: usize,
    queued: usize,
}

/// One shard of the memo: the tasks that hash to it (global indices, in
/// task order), its store file, and a flush lock serializing writers of
/// *this* shard only.
struct Shard {
    tasks: Vec<usize>,
    path: PathBuf,
    flush: Mutex<()>,
}

/// One in-flight cold exploration, shared between its runner and any
/// attached duplicate queries. The runner publishes its terminal
/// response into `done` (after depositing the record and flushing the
/// shard) and notifies; attachers wait and clone it.
struct Inflight {
    done: Mutex<Option<Response>>,
    cv: Condvar,
}

/// Shared daemon state, one instance per `serve` invocation.
struct Daemon {
    tasks: Vec<FunctionTask>,
    /// Read-mostly memo index: best-known record per task, in task
    /// order (`None` = unexplored). One lock per slot — a warm query
    /// takes only its own slot's read lock, which a cold run of a
    /// *different* function never holds.
    records: Vec<RwLock<Option<Arc<FunctionRecord>>>>,
    /// Shard layout: `shard_of_task[i]` is the shard task `i`'s record
    /// persists in.
    shards: Vec<Shard>,
    shard_of_task: Vec<usize>,
    /// In-flight cold queries by task index, for cross-client dedup.
    inflight: Mutex<HashMap<usize, Arc<Inflight>>>,
    admission: Mutex<Admission>,
    adm_cv: Condvar,
    max_active: usize,
    max_queue: usize,
    /// Campaign options every request runs under; `budget` is replaced
    /// per request, `cancel` is wired to [`Daemon::cancel`].
    config: CampaignConfig,
    default_budget: u64,
    target: Target,
    /// Cooperative cancel flag handed to every enumeration.
    cancel: Arc<AtomicBool>,
}

impl Daemon {
    /// Task index for a query name (qualified exactly, or a unique bare
    /// function name).
    fn find_task(&self, name: &str) -> Option<usize> {
        self.tasks.iter().position(|t| t.name == name).or_else(|| {
            let mut hits = self
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.name.rsplit("::").next() == Some(name));
            let first = hits.next()?;
            hits.next().is_none().then_some(first.0)
        })
    }

    /// The memo slot's current record, if any (read lock only).
    fn record(&self, i: usize) -> Option<Arc<FunctionRecord>> {
        self.records[i].read().unwrap().clone()
    }

    /// Writes one shard's store (its records in task order) — the same
    /// bytes an uncapped serial run over these tasks converges on.
    /// Writers of other shards proceed in parallel.
    fn flush_shard(&self, shard: usize) -> Result<(), String> {
        let s = &self.shards[shard];
        let _guard = s.flush.lock().unwrap();
        let mut out = ResultStore::new(
            &self.config.enumerate,
            self.config.semantic.as_ref(),
            self.config.sem_pruned,
        );
        for &t in &s.tasks {
            if let Some(rec) = self.record(t) {
                out.records.push((*rec).clone());
            }
        }
        out.save(&s.path).map_err(|e| e.to_string())
    }

    /// The daemon's backoff hint for an [`Response::Overloaded`]: scale
    /// with the depth of the admission queue, clamped to [50ms, 2s].
    fn retry_after_ms(&self, queued: usize) -> u64 {
        (50 * (queued as u64 + 1)).clamp(50, 2000)
    }
}

/// Streams [`Response::Progress`] frames to the querying client at
/// every level barrier of its cold run. Only the runner's own
/// connection thread writes to the stream, so frames never interleave;
/// write failures (client gone) are ignored — the enumeration finishes
/// and the memo is persisted regardless.
struct ProgressSink<'a> {
    stream: &'a UnixStream,
    budget: u64,
}

impl Observer for ProgressSink<'_> {
    fn session_progress(&self, name: &str, level: u32, session_expanded: u64) {
        let frame = Response::Progress {
            function: name.to_owned(),
            level,
            expanded: session_expanded,
            remaining: self.budget.saturating_sub(session_expanded),
        };
        let mut w = self.stream;
        if write_frame(&mut w, &frame.to_bytes()).is_ok() {
            telemetry::global().serve_progress_frames.inc();
        }
    }
}

pub fn serve_cmd(argv: &[String]) -> Result<(), String> {
    let mut rest = argv.to_vec();
    let store_base =
        args::string(&mut rest, "--store")?.ok_or("serve: --store PATH is required")?;
    let socket = args::string(&mut rest, "--socket")?.ok_or("serve: --socket PATH is required")?;
    let max_active =
        args::value::<usize>(&mut rest, "--max-active")?.unwrap_or(DEFAULT_MAX_ACTIVE).max(1);
    let max_queue = args::value::<usize>(&mut rest, "--max-queue")?.unwrap_or(DEFAULT_MAX_QUEUE);
    let request = args::explore_request(&mut rest, "serve")?;
    let tasks = crate::resolve_tasks(&request, "serve")?;
    let nshards = request.shards;

    let cancel = Arc::new(AtomicBool::new(false));
    let mut config = crate::campaign_config(&request);
    config.cancel = Some(Arc::clone(&cancel));
    let store_base = PathBuf::from(store_base);

    // Shard layout: every task hashes to its shard once, up front.
    let shard_of_task: Vec<usize> =
        tasks.iter().map(|t| store::shard_of(&t.name, nshards)).collect();
    let shards: Vec<Shard> = (0..nshards)
        .map(|k| Shard {
            tasks: (0..tasks.len()).filter(|&i| shard_of_task[i] == k).collect(),
            path: store::shard_path(&store_base, k, nshards),
            flush: Mutex::new(()),
        })
        .collect();

    // Adopt existing stores: their records seed the warm memo, their
    // config echoes must match ours (a store explored under different
    // bounds would not be comparable). A legacy single-store file at
    // the base path seeds a multi-shard daemon too (records are
    // re-homed to their shards on the eager flush below); shard files
    // are adopted after it and take precedence.
    let mut seed: Vec<Option<FunctionRecord>> = vec![None; tasks.len()];
    let mut adopt = |path: &Path| -> Result<(), String> {
        if !path.exists() {
            return Ok(());
        }
        let prior = ResultStore::load(path).map_err(|e| format!("serve: {e}"))?;
        prior
            .check_config(&config.enumerate, config.semantic.as_ref(), config.sem_pruned)
            .map_err(|e| format!("serve: {e}"))?;
        for rec in prior.records {
            match tasks.iter().position(|t| t.name == rec.name) {
                Some(i) => seed[i] = Some(rec),
                None => {
                    return Err(format!(
                        "serve: {} records `{}`, which none of the served tasks produce",
                        path.display(),
                        rec.name
                    ))
                }
            }
        }
        Ok(())
    };
    if nshards > 1 {
        adopt(&store_base)?;
    }
    for k in 0..nshards {
        adopt(&store::shard_path(&store_base, k, nshards))?;
    }

    let daemon = Arc::new(Daemon {
        records: seed.into_iter().map(|r| RwLock::new(r.map(Arc::new))).collect(),
        tasks,
        shards,
        shard_of_task,
        inflight: Mutex::new(HashMap::new()),
        admission: Mutex::new(Admission::default()),
        adm_cv: Condvar::new(),
        max_active,
        max_queue,
        config,
        default_budget: request.budget.unwrap_or(DEFAULT_BUDGET),
        target: Target::default(),
        cancel,
    });
    // Flush every shard eagerly so the stores exist (with their config
    // echoes) before the first query, and a bad path fails at startup,
    // not mid-serve.
    for k in 0..nshards {
        daemon.flush_shard(k).map_err(|e| format!("serve: {e}"))?;
    }

    let sock = Path::new(&socket);
    if sock.exists() {
        if UnixStream::connect(sock).is_ok() {
            return Err(format!("serve: {socket} is already served by a live daemon"));
        }
        // Stale socket from a killed daemon; reclaim it.
        std::fs::remove_file(sock).map_err(|e| format!("serve: removing {socket}: {e}"))?;
    }
    let listener = UnixListener::bind(sock).map_err(|e| format!("serve: {socket}: {e}"))?;
    SHUTDOWN.store(false, Ordering::SeqCst);
    install_signal_handlers();
    eprintln!(
        "vpod: serving {} function(s) on {socket} ({} shard(s) at {}, budget {}, {} active / {} queued max)",
        daemon.tasks.len(),
        nshards,
        store_base.display(),
        daemon.default_budget,
        daemon.max_active,
        daemon.max_queue,
    );

    // Blocking listener thread → bounded work queue → worker pool. The
    // accept path never sleeps: connections land in the queue the
    // moment they arrive and a free worker picks them up immediately
    // (`serve.accept_wait_ns` records the handoff latency).
    type WorkQueue = (Mutex<VecDeque<(UnixStream, Instant)>>, Condvar);
    let workers = (max_active + max_queue + 4).max(8);
    let queue_cap = workers * 2;
    let work: Arc<WorkQueue> = Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));

    let listener_work = Arc::clone(&work);
    let listener_daemon = Arc::clone(&daemon);
    let listener_thread = std::thread::spawn(move || loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if SHUTDOWN.load(Ordering::SeqCst) {
                    return;
                }
                let (q, cv) = &*listener_work;
                let mut q = q.lock().unwrap();
                if q.len() >= queue_cap {
                    // Work queue saturated: refuse at the door rather
                    // than building an unbounded backlog.
                    drop(q);
                    telemetry::global().serve_rejected.inc();
                    let hint = listener_daemon.retry_after_ms(queue_cap);
                    let mut s = &stream;
                    let _ = write_frame(
                        &mut s,
                        &Response::Overloaded { retry_after_ms: hint }.to_bytes(),
                    );
                    continue;
                }
                q.push_back((stream, Instant::now()));
                cv.notify_one();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {
                if SHUTDOWN.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => {
                // A dead listener leaves the daemon unreachable; take
                // the whole process down the graceful way.
                SHUTDOWN.store(true, Ordering::SeqCst);
                return;
            }
        }
    });

    let worker_threads: Vec<_> = (0..workers)
        .map(|_| {
            let work = Arc::clone(&work);
            let d = Arc::clone(&daemon);
            std::thread::spawn(move || loop {
                let (q, cv) = &*work;
                let job = {
                    let mut q = q.lock().unwrap();
                    loop {
                        if let Some(job) = q.pop_front() {
                            break Some(job);
                        }
                        if SHUTDOWN.load(Ordering::SeqCst) {
                            break None;
                        }
                        q = cv.wait_timeout(q, POLL).unwrap().0;
                    }
                };
                let Some((stream, enqueued)) = job else { return };
                telemetry::global().serve_accept_wait_ns.observe(enqueued.elapsed());
                handle(stream, &d);
            })
        })
        .collect();

    // The signal handler can only flip an atomic, so the main thread
    // watches the flag and orchestrates the drain: wake the blocking
    // accept with a self-connection, then join everything.
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(POLL);
    }
    daemon.cancel.store(true, Ordering::SeqCst);
    let _ = UnixStream::connect(sock); // unblock accept() so the listener sees SHUTDOWN
    let _ = listener_thread.join();
    work.1.notify_all();
    daemon.adm_cv.notify_all();
    for h in worker_threads {
        let _ = h.join();
    }
    std::fs::remove_file(sock).ok();
    eprintln!("vpod: checkpointed and shut down");
    Ok(())
}

/// Serves one connection: read a request frame, answer (streaming
/// progress frames for cold queries), close. All failure modes — short
/// frames, CRC damage, unknown versions — become a clean error response
/// (or a silent close when nothing arrived).
fn handle(mut stream: UnixStream, d: &Daemon) {
    let response = match read_frame(&mut stream) {
        Ok(payload) => match Request::from_bytes(&payload) {
            Ok(req) => respond(d, req, &stream),
            Err(e) => Response::Error { message: e.to_string() },
        },
        Err(FrameError::Closed) => return,
        Err(e) => Response::Error { message: e.to_string() },
    };
    let _ = write_frame(&mut stream, &response.to_bytes());
}

fn respond(d: &Daemon, req: Request, stream: &UnixStream) -> Response {
    let tm = telemetry::global();
    tm.serve_requests.inc();
    match req {
        Request::Query { function, budget } => query(d, &function, budget, stream),
        Request::List => Response::List {
            entries: d
                .tasks
                .iter()
                .enumerate()
                .map(|(i, t)| ListEntry {
                    name: t.name.clone(),
                    state: d.record(i).map(|r| r.completeness()),
                })
                .collect(),
        },
        Request::Telemetry => Response::Telemetry { json: tm.snapshot().to_json() },
        Request::Shutdown => {
            SHUTDOWN.store(true, Ordering::SeqCst);
            Response::ShuttingDown
        }
    }
}

fn query(d: &Daemon, function: &str, budget: Option<u64>, stream: &UnixStream) -> Response {
    let tm = telemetry::global();
    let Some(i) = d.find_task(function) else {
        let names: Vec<&str> = d.tasks.iter().map(|t| t.name.as_str()).collect();
        return Response::Error {
            message: format!("no function `{function}` (available: {})", names.join(", ")),
        };
    };

    // Warm path: a terminal record answers from the memo index
    // immediately — one read lock on this function's own slot, which
    // no cold run of another function ever holds.
    if let Some(rec) = d.record(i) {
        if !rec.is_resumable() {
            tm.serve_warm_hits.inc();
            return Response::Memo { record: Box::new((*rec).clone()), served: Served::Warm };
        }
    }

    // Dedup: one runner per task. Whoever inserts the inflight entry
    // runs the enumeration; everyone else attaches and receives the
    // runner's terminal response — N identical concurrent cold queries
    // cost one enumeration.
    let flight = {
        let mut inflight = d.inflight.lock().unwrap();
        match inflight.get(&i) {
            Some(f) => {
                let f = Arc::clone(f);
                drop(inflight);
                tm.serve_dedup_attached.inc();
                let mut done = f.done.lock().unwrap();
                while done.is_none() {
                    done = f.cv.wait_timeout(done, POLL).unwrap().0;
                }
                return done.clone().unwrap();
            }
            None => {
                let f = Arc::new(Inflight { done: Mutex::new(None), cv: Condvar::new() });
                inflight.insert(i, Arc::clone(&f));
                f
            }
        }
    };

    // Runner: every exit path below must publish, or attachers hang.
    let response = run_admitted(d, i, budget, stream);
    *flight.done.lock().unwrap() = Some(response.clone());
    flight.cv.notify_all();
    d.inflight.lock().unwrap().remove(&i);
    response
}

/// Claims an enumeration slot (or queues for one, or gets refused),
/// then runs the cold query. Called only by the inflight runner.
fn run_admitted(d: &Daemon, i: usize, budget: Option<u64>, stream: &UnixStream) -> Response {
    let tm = telemetry::global();
    let mut queued = false;
    let mut adm = d.admission.lock().unwrap();
    loop {
        if d.cancel.load(Ordering::SeqCst) || SHUTDOWN.load(Ordering::SeqCst) {
            if queued {
                adm.queued -= 1;
            }
            return Response::ShuttingDown;
        }
        if adm.running < d.max_active {
            if queued {
                adm.queued -= 1;
            }
            adm.running += 1;
            break;
        }
        if !queued {
            if adm.queued >= d.max_queue {
                tm.serve_rejected.inc();
                let hint = d.retry_after_ms(adm.queued);
                return Response::Overloaded { retry_after_ms: hint };
            }
            adm.queued += 1;
            queued = true;
        }
        adm = d.adm_cv.wait_timeout(adm, POLL).unwrap().0;
    }
    drop(adm);

    let response = run_cold(d, i, budget, stream);
    d.admission.lock().unwrap().running -= 1;
    d.adm_cv.notify_all();
    response
}

/// Runs (or deepens) one function's enumeration under the request's
/// budget, persists the outcome in its shard, and renders the memo
/// response. The caller holds the admission slot and the inflight
/// entry for task `i`.
fn run_cold(d: &Daemon, i: usize, budget: Option<u64>, stream: &UnixStream) -> Response {
    let tm = telemetry::global();
    // Re-check warmth under the slot: a duplicate that queued behind
    // the completed runner may find the answer already terminal.
    let prior = d.record(i);
    if let Some(rec) = &prior {
        if !rec.is_resumable() {
            tm.serve_warm_hits.inc();
            return Response::Memo { record: Box::new((**rec).clone()), served: Served::Warm };
        }
    }

    tm.serve_cold_runs.inc();
    let mut config = d.config.clone();
    let session_budget = budget.unwrap_or(d.default_budget);
    config.budget = Some(session_budget);
    let sink = ProgressSink { stream, budget: session_budget };
    let outcome = campaign::explore_function(
        d.tasks[i].clone(),
        &d.target,
        &config,
        prior.map(|r| (*r).clone()),
        &sink,
    );
    match outcome {
        Ok(outcome) => match outcome.record {
            Some(record) => {
                tm.serve_cold_expanded.add(outcome.expanded);
                let record = Arc::new(record);
                *d.records[i].write().unwrap() = Some(Arc::clone(&record));
                if let Err(e) = d.flush_shard(d.shard_of_task[i]) {
                    return Response::Error { message: e };
                }
                Response::Memo {
                    record: Box::new((*record).clone()),
                    served: Served::Cold { expanded: outcome.expanded },
                }
            }
            // Cancelled before the first checkpoint with no prior state.
            None => Response::ShuttingDown,
        },
        Err(e) => Response::Error { message: e.to_string() },
    }
}
