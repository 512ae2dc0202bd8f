//! `perfsuite` — the pinned perf-baseline harness and CI regression gate
//! (DESIGN.md §9).
//!
//! ```text
//! perfsuite [--label L] [--trials N] [--metrics-dir DIR]
//!           [--check] [--threshold PCT] [--baseline PATH]
//!           [--summary PATH]
//! ```
//!
//! Runs the pinned workload set — three MiBench kernels enumerated
//! serially and with `--jobs 2`, a campaign over `bitcount`, and an
//! oracle verification — `N` times each (default 5), recording per-trial
//! wall times and the deterministic telemetry counters of each run, and
//! writes `BENCH_<label>.json` at the repo root. Within one invocation
//! the deterministic counters must be identical across trials; any
//! in-process drift aborts the suite (that is the determinism
//! self-check of the acceptance criteria).
//!
//! `--check` then compares the fresh report against `bench/baseline.json`
//! (or `--baseline PATH`): deterministic counters must match the
//! baseline exactly, wall medians may regress at most `--threshold`
//! percent (default 25) after scaling by the calibration ratio of the
//! two machines. Any violation prints and exits nonzero — the CI gate.
//!
//! `--metrics-dir DIR` additionally writes each workload's final
//! telemetry snapshot (`phase-order-telemetry-v1` JSON) into `DIR`.
//! `--summary PATH` appends the baseline-vs-current delta as a markdown
//! table to `PATH` — pass `$GITHUB_STEP_SUMMARY` in CI to surface the
//! comparison on the run page.
//!
//! Whenever the baseline file exists — even without `--check` — the
//! suite additionally verifies that the semantic counters
//! (`enumerate.phases_attempted` and `enumerate.dormant_prunes`) of
//! every workload match the baseline exactly. That guard catches a dormant-phase prefilter silently
//! changing what the search explores, including while re-pinning a
//! baseline.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use bench::perf::{compare, delta_table, PerfReport, WorkloadReport};
use phase_order::campaign::{self, CampaignConfig, FunctionTask, NullObserver};
use phase_order::enumerate::{enumerate, enumerate_semantic_pruned, enumerate_tier, Config};
use phase_order::oracle;
use phase_order::request::MergeTier;
use phase_order::semantic::SemanticConfig;
use phase_order::telemetry;
use vpo_opt::batch::batch_compile;
use vpo_opt::Target;
use vpo_sim::Machine;

/// The pinned kernels with their inner repetition counts: small enough
/// that the full suite stays in seconds, spread over three benchmarks
/// (per EXPERIMENTS.md their spaces hold 146 / 149 / 565 distinct
/// instances). Each timed trial runs the enumeration `reps` times so
/// that the tiny kernels still spend >100ms per trial — below that,
/// scheduler noise on a loaded CI box swamps a 25% threshold.
const KERNELS: &[(&str, &str, usize)] =
    &[("bitcount", "bit_count", 8), ("fft", "reverse_bits", 6), ("sha", "sha_transform", 1)];

struct Options {
    label: String,
    trials: usize,
    check: bool,
    threshold: f64,
    baseline: Option<PathBuf>,
    metrics_dir: Option<PathBuf>,
    summary: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        label: "local".into(),
        trials: 5,
        check: false,
        threshold: 25.0,
        baseline: None,
        metrics_dir: None,
        summary: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            if let Some(v) = a.strip_prefix(name).and_then(|t| t.strip_prefix('=')) {
                return Ok(v.to_owned());
            }
            args.next().ok_or(format!("{name} needs a value"))
        };
        if a == "--check" {
            opts.check = true;
        } else if a.starts_with("--label") {
            opts.label = value("--label")?;
        } else if a.starts_with("--trials") {
            let v = value("--trials")?;
            opts.trials = v.parse().map_err(|_| format!("bad --trials value `{v}`"))?;
            if opts.trials == 0 {
                return Err("--trials must be at least 1".into());
            }
        } else if a.starts_with("--threshold") {
            let v = value("--threshold")?;
            opts.threshold = v.parse().map_err(|_| format!("bad --threshold value `{v}`"))?;
        } else if a.starts_with("--baseline") {
            opts.baseline = Some(PathBuf::from(value("--baseline")?));
        } else if a.starts_with("--metrics-dir") {
            opts.metrics_dir = Some(PathBuf::from(value("--metrics-dir")?));
        } else if a.starts_with("--summary") {
            opts.summary = Some(PathBuf::from(value("--summary")?));
        } else {
            return Err(format!("unknown argument `{a}`"));
        }
    }
    Ok(opts)
}

/// The repo root, resolved from this crate's manifest at compile time —
/// `BENCH_<label>.json` and the default baseline live there.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Median wall time of a fixed xorshift busy-loop: the machine-speed
/// yardstick stored as `calibration_ns` (see `bench::perf::compare`).
fn calibrate() -> u64 {
    let mut samples = [0u64; 5];
    for s in samples.iter_mut() {
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut acc = 0u64;
        for _ in 0..2_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x);
        }
        std::hint::black_box(acc);
        *s = start.elapsed().as_nanos() as u64;
    }
    samples.sort_unstable();
    samples[2]
}

/// Runs one workload `trials` times: reset the registry, time the body,
/// capture the deterministic counters, and insist they never change
/// between trials. Writes the final telemetry snapshot into
/// `metrics_dir` when given.
fn run_workload(
    name: &str,
    trials: usize,
    reps: usize,
    metrics_dir: Option<&Path>,
    mut body: impl FnMut(),
) -> Result<WorkloadReport, String> {
    let tm = telemetry::global();
    let mut trials_ns = Vec::with_capacity(trials);
    let mut counters: Option<Vec<(String, u64)>> = None;
    for trial in 0..trials {
        tm.reset();
        let start = Instant::now();
        for _ in 0..reps {
            body();
        }
        trials_ns.push(start.elapsed().as_nanos() as u64);
        let got: Vec<(String, u64)> = tm
            .snapshot()
            .deterministic_values()
            .into_iter()
            .map(|(n, v)| (n.to_owned(), v))
            .collect();
        match &counters {
            None => counters = Some(got),
            Some(first) if *first != got => {
                return Err(format!(
                    "{name}: deterministic counters drifted between trial 1 and \
                     trial {}: {:?} vs {got:?}",
                    trial + 1,
                    first
                ))
            }
            Some(_) => {}
        }
    }
    if let Some(dir) = metrics_dir {
        let file: String =
            name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
        tm.snapshot()
            .write(&dir.join(format!("{file}.json")))
            .map_err(|e| format!("{name}: writing metrics snapshot: {e}"))?;
    }
    let report =
        WorkloadReport { name: name.to_owned(), trials_ns, counters: counters.unwrap_or_default() };
    eprintln!(
        "  {name}: median {:.2}ms, IQR {:.2}ms over {trials} trial(s)",
        report.median_ns() as f64 / 1e6,
        report.iqr_ns() as f64 / 1e6
    );
    Ok(report)
}

fn run_suite(opts: &Options) -> Result<PerfReport, String> {
    if let Some(dir) = &opts.metrics_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("--metrics-dir {}: {e}", dir.display()))?;
    }
    let target = Target::default();
    eprintln!("perfsuite: calibrating...");
    let calibration_ns = calibrate();
    eprintln!("  calibration median {:.2}ms", calibration_ns as f64 / 1e6);

    let mut workloads = Vec::new();
    let metrics_dir = opts.metrics_dir.as_deref();

    // Enumeration: each pinned kernel, serial and with two workers.
    for (bench_name, func, reps) in KERNELS {
        let program = mibench::find(bench_name)
            .ok_or(format!("no benchmark `{bench_name}`"))?
            .compile()
            .map_err(|e| format!("{bench_name}: {e}"))?;
        let f = program.function(func).ok_or(format!("{bench_name}: no function `{func}`"))?;
        for (mode, jobs) in [("serial", 0usize), ("jobs2", 2)] {
            let config = Config { jobs, ..Config::default() };
            let name = format!("enumerate/{bench_name}::{func}/{mode}");
            workloads.push(run_workload(&name, opts.trials, *reps, metrics_dir, || {
                std::hint::black_box(enumerate(f, &target, &config));
            })?);
        }
    }

    // Semantic merge tier: the same kernel annotated by behavioral
    // signatures. Two jobs for this row: it prices the quotient against
    // the fingerprint rows above, and it pins the `enumerate.sem_*`
    // counters — nonzero here, *exactly zero* on every other workload,
    // which is the counter-exact proof that the fingerprint-default
    // path never pays a cycle of signature cost.
    {
        let program = mibench::find("bitcount")
            .ok_or("no benchmark `bitcount`")?
            .compile()
            .map_err(|e| format!("bitcount: {e}"))?;
        let f = program.function("bit_count").ok_or("bitcount: no function `bit_count`")?;
        let config = Config::default();
        let sem = SemanticConfig::default();
        workloads.push(run_workload(
            "semantic/bitcount::bit_count/serial",
            opts.trials,
            4,
            metrics_dir,
            || {
                std::hint::black_box(enumerate_tier(
                    MergeTier::Semantic,
                    Some(&program),
                    f,
                    &target,
                    &config,
                    &sem,
                ));
            },
        )?);
        // Pruned tier on the same kernel: prices the subsumption
        // lookahead against the annotation row above and pins the
        // `enumerate.sem_subsumption_prunes` / `sem_mask_fallbacks`
        // counters — nonzero here, zero everywhere else. With two jobs
        // every counter, `sim.batched_retires` included, equals the
        // serial row's: signing runs in the serial merge.
        for (mode, jobs) in [("serial", 0usize), ("jobs2", 2)] {
            let config = Config { jobs, ..Config::default() };
            workloads.push(run_workload(
                &format!("semantic-pruned/bitcount::bit_count/{mode}"),
                opts.trials,
                4,
                metrics_dir,
                || {
                    std::hint::black_box(enumerate_semantic_pruned(
                        &program, f, &target, &config, &sem,
                    ));
                },
            )?);
        }
    }

    // Campaign: every function of bitcount over a two-worker pool,
    // checkpointing to a throwaway store (flush latency included).
    {
        let program = mibench::find("bitcount")
            .ok_or("no benchmark `bitcount`")?
            .compile()
            .map_err(|e| format!("bitcount: {e}"))?;
        let tasks: Vec<FunctionTask> = program
            .functions
            .iter()
            .map(|f| FunctionTask {
                name: format!("bitcount::{}", f.name),
                func: f.clone(),
                program: None,
            })
            .collect();
        let config = CampaignConfig { jobs: 2, ..CampaignConfig::default() };
        let store = std::env::temp_dir().join("perfsuite.store");
        workloads.push(run_workload(
            "campaign/bitcount/jobs2",
            opts.trials,
            1,
            metrics_dir,
            || {
                std::fs::remove_file(&store).ok();
                campaign::run(tasks.clone(), &target, Some(&store), &config, &NullObserver)
                    .expect("perfsuite campaign runs");
            },
        )?);
        std::fs::remove_file(&store).ok();
    }

    // Oracle: differential verification of the bitcount kernel.
    {
        let program = mibench::find("bitcount")
            .ok_or("no benchmark `bitcount`")?
            .compile()
            .map_err(|e| format!("bitcount: {e}"))?;
        let f = program.function("bit_count").ok_or("bitcount: no function `bit_count`")?;
        let config = Config::default();
        let sem = SemanticConfig::default();
        workloads.push(run_workload(
            "oracle/bitcount::bit_count",
            opts.trials,
            4,
            metrics_dir,
            || {
                let e = enumerate(f, &target, &config);
                let report = oracle::verify(&program, f, &e, &target, &sem, config.jobs);
                assert!(report.is_clean(), "perfsuite oracle found miscompilations");
            },
        )?);
    }

    // Pure simulation: an oracle-battery-shaped workload with no
    // enumeration in the loop — the direct measure of simulator
    // throughput. Naive and batch-optimized instances of two loop
    // kernels (one doing real work per iteration, one a bare counting
    // loop) run over fixed batteries on one reused machine, mirroring
    // `Machine::run_battery`'s cycle exactly: each instance is lowered
    // once and reused for every input. The counting loop gets a large-trip
    // battery — the million-simulation-battery shape the threaded
    // engine exists for.
    {
        let program = vpo_frontend::compile(
            "int mix(int n) {\n\
                 int i; int j; int s;\n\
                 s = 0;\n\
                 for (i = 0; i < n; i++) {\n\
                     for (j = 0; j < 64; j++) s += (i ^ j) + (s >> 3);\n\
                 }\n\
                 return s;\n\
             }\n\
             int spin(int n) { int i; for (i = 0; i < n; i++) ; return i; }",
        )
        .map_err(|e| format!("sim battery kernel: {e}"))?;
        // Each function contributes its naive form plus optimized
        // variants, mirroring an oracle battery's composition: an
        // enumerated space holds exactly one unoptimized instance among
        // hundreds of (partially) optimized ones.
        let mut instances = Vec::new();
        for f in &program.functions {
            instances.push(f.clone());
            for seq in ["sk", "skc", "sksh"] {
                let mut g = f.clone();
                for letter in seq.chars() {
                    let p = vpo_opt::PhaseId::from_letter(letter)
                        .ok_or(format!("bad phase letter `{letter}`"))?;
                    vpo_opt::attempt(&mut g, p, &target);
                }
                instances.push(g);
            }
            let mut batch = f.clone();
            batch_compile(&mut batch, &target);
            instances.push(batch);
        }
        let mix_battery: &[i32] = &[0, 1, 100, 400, 1000];
        let spin_battery: &[i32] = &[0, 1, 1000, 300_000, 1_000_000];
        workloads.push(run_workload("sim/battery/mix+spin", opts.trials, 3, metrics_dir, || {
            let mut m = Machine::with_mem_size(&program, 1 << 16);
            let mut dynamic = 0u64;
            for f in &instances {
                let battery = if f.name == "spin" { spin_battery } else { mix_battery };
                let lowered = m.lower_instance(f);
                for &n in battery {
                    m.reset();
                    m.set_fuel(50_000_000);
                    let r = m.call_lowered(&lowered, &[n]);
                    assert!(r.is_ok(), "sim battery trapped: {r:?}");
                    dynamic += m.dynamic_insts();
                }
            }
            std::hint::black_box(dynamic);
        })?);
    }

    // Memo service: warm-query latency over the Unix socket against a
    // live sharded daemon — the serving-layer number the memo service
    // gates. The daemon is the real `vpoc` binary (built alongside this
    // harness); one function is depleted up front so every timed query
    // is a pure memo hit through the full accept → worker → memo-index
    // path.
    #[cfg(unix)]
    {
        use std::os::unix::net::UnixStream;
        use std::process::{Child, Command, Stdio};
        use std::time::Duration;

        use phase_order::campaign::store::shard_path;
        use phase_order::service::{Request, Response};
        use phase_order::wire::{read_frame, write_frame};

        let vpoc = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("vpoc")))
            .filter(|p| p.exists());
        match vpoc {
            None => {
                eprintln!("  serve/warm-query: skipped (vpoc binary not built next to perfsuite)")
            }
            Some(vpoc) => {
                let dir = std::env::temp_dir();
                let pid = std::process::id();
                let store = dir.join(format!("perfsuite_serve_{pid}.store"));
                let socket = dir.join(format!("perfsuite_serve_{pid}.sock"));
                let mut files: Vec<PathBuf> = (0..4).map(|k| shard_path(&store, k, 4)).collect();
                files.push(socket.clone());
                for f in &files {
                    std::fs::remove_file(f).ok();
                }
                /// The spawned daemon and the files it writes: killed,
                /// reaped and removed when dropped, so an early return or
                /// a failed assertion below leaves neither the daemon nor
                /// its socket and shard stores behind. After the clean
                /// shutdown at the end the kill and wait are no-ops.
                struct Reaped(Child, Vec<PathBuf>);
                impl Drop for Reaped {
                    fn drop(&mut self) {
                        let _ = self.0.kill();
                        let _ = self.0.wait();
                        for f in &self.1 {
                            std::fs::remove_file(f).ok();
                        }
                    }
                }
                let mut daemon = Command::new(&vpoc)
                    .args([
                        "serve",
                        "--bench=bitcount",
                        "--shards=4",
                        "--jobs=2",
                        &format!("--store={}", store.display()),
                        &format!("--socket={}", socket.display()),
                    ])
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .map(|child| Reaped(child, files))
                    .map_err(|e| format!("serve/warm-query: spawning vpoc serve: {e}"))?;
                let deadline = Instant::now() + Duration::from_secs(30);
                while UnixStream::connect(&socket).is_err() {
                    if Instant::now() >= deadline {
                        return Err("serve/warm-query: daemon did not come up in 30s".into());
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                let exchange = |req: &Request| -> Response {
                    let mut s = UnixStream::connect(&socket).expect("daemon socket");
                    write_frame(&mut s, &req.to_bytes()).expect("request frame");
                    loop {
                        let payload = read_frame(&mut s).expect("response frame");
                        let resp = Response::from_bytes(&payload).expect("response payload");
                        if resp.is_terminal() {
                            return resp;
                        }
                    }
                };
                let func = "bitcount::bit_count";
                let warmed = exchange(&Request::Query { function: func.into(), budget: None });
                assert!(
                    matches!(warmed, Response::Memo { .. }),
                    "serve/warm-query warm-up failed: {warmed:?}"
                );
                workloads.push(run_workload(
                    "serve/warm-query",
                    opts.trials,
                    1,
                    metrics_dir,
                    || {
                        for _ in 0..600 {
                            let r =
                                exchange(&Request::Query { function: func.into(), budget: None });
                            std::hint::black_box(&r);
                        }
                    },
                )?);
                let _ = exchange(&Request::Shutdown);
                let _ = daemon.0.wait();
            }
        }
    }

    Ok(PerfReport { label: opts.label.clone(), calibration_ns, workloads })
}

/// The *semantic* counters: what the search explored, not how fast.
/// These must match the baseline for any re-pin — a mismatch means the
/// dormant-phase prefilters (or the search itself) changed semantics,
/// which no perf PR is allowed to do.
const SEMANTIC_COUNTERS: &[&str] = &["enumerate.phases_attempted", "enumerate.dormant_prunes"];

/// Compares the semantic counters of every workload shared between the
/// baseline and the fresh report, returning one message per mismatch.
fn semantic_failures(baseline: &PerfReport, current: &PerfReport) -> Vec<String> {
    let mut failures = Vec::new();
    for w in &current.workloads {
        let Some(b) = baseline.workloads.iter().find(|b| b.name == w.name) else {
            continue;
        };
        for name in SEMANTIC_COUNTERS {
            let was = b.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let now = w.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            if let (Some(was), Some(now)) = (was, now) {
                if was != now {
                    failures.push(format!(
                        "{}: semantic counter {name} changed: baseline {was}, current {now}",
                        w.name
                    ));
                }
            }
        }
    }
    failures
}

fn main() -> ExitCode {
    match try_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfsuite: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn try_main() -> Result<(), String> {
    let opts = parse_args()?;
    let report = run_suite(&opts)?;

    let out = repo_root().join(format!("BENCH_{}.json", opts.label));
    std::fs::write(&out, report.to_json()).map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("perfsuite: wrote {}", out.canonicalize().unwrap_or(out).display());

    let path = opts.baseline.clone().unwrap_or_else(|| repo_root().join("bench/baseline.json"));
    if path.exists() {
        // The semantic self-check runs whenever a baseline is available,
        // with or without --check: the search must have explored exactly
        // what the pinned baseline explored.
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let baseline = PerfReport::parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(summary) = &opts.summary {
            // Appended, not written: a step summary accumulates across
            // steps, and a second perfsuite invocation must not clobber
            // the first's table.
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(summary)
                .map_err(|e| format!("--summary {}: {e}", summary.display()))?;
            f.write_all(delta_table(&baseline, &report).as_bytes())
                .map_err(|e| format!("--summary {}: {e}", summary.display()))?;
            eprintln!("perfsuite: appended delta table to {}", summary.display());
        }
        let failures = semantic_failures(&baseline, &report);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("perfsuite: FAIL {f}");
            }
            return Err(format!(
                "{} semantic counter mismatch(es) against {}",
                failures.len(),
                path.display()
            ));
        }
        eprintln!("perfsuite: semantic counters match {}", path.display());
    }

    if opts.check {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let baseline = PerfReport::parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        let failures = compare(&baseline, &report, opts.threshold);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("perfsuite: FAIL {f}");
            }
            return Err(format!(
                "{} regression(s) against {} at threshold {}%",
                failures.len(),
                path.display(),
                opts.threshold
            ));
        }
        eprintln!(
            "perfsuite: check passed against {} (threshold {}%)",
            path.display(),
            opts.threshold
        );
    }
    Ok(())
}
