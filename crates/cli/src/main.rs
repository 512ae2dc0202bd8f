//! `vpoc` — command-line driver for the VPO-style compiler and the
//! phase-order exploration engine.
//!
//! ```text
//! vpoc compile  <file.mc> [--seq LETTERS | --batch | --naive] [--finalize | --emit-asm]
//! vpoc run      <file.mc> <function> [args...]        # compile (batch) and execute
//! vpoc explore  <file.mc>|--bench NAME|--all-benches [function]   # enumerate
//! vpoc verify   <file.mc>|--bench NAME|--all-benches [function]   # oracle
//! vpoc campaign <file.mc>|--bench NAME|--all-benches  # resumable multi-function run
//! vpoc audit-quotient <file.mc>|--bench NAME|--all-benches   # pruning loss audit
//! vpoc dot      <file.mc>|--bench NAME [function]     # one space as Graphviz
//! vpoc phases                                         # list the 15 phases
//! ```
//!
//! `--seq LETTERS` applies an explicit phase ordering, e.g. `--seq skcshu`
//! (the letter designations of Table 1). `--jobs N` enumerates each
//! function's space with N worker threads (`--jobs 0` = one per CPU;
//! the default is serial) — the resulting space is identical to a
//! serial run's for any job count.
//!
//! `verify` enumerates each function's space and runs the differential
//! equivalence oracle over it: every distinct instance is rematerialized
//! and executed on a seeded input battery, checking that all orderings
//! preserve behaviour and that fingerprint-merged paths are genuinely
//! identical. `--bench NAME` verifies a built-in MiBench kernel set
//! instead of a file; `--max-nodes N` bounds the enumeration,
//! `--battery N` and `--seed S` shape the input battery.
//!
//! The simulating subcommands (`run`, `verify`, `audit-quotient`) run
//! the direct-threaded simulator; the tree-walking reference
//! interpreter is a test-only witness (`tests/sim_engine_equivalence.rs`).
//!
//! `campaign` explores **every** function of a file, benchmark, or the
//! whole suite over one shared worker pool, checkpointing each completed
//! function to `--store PATH`. A killed campaign re-run with `--resume`
//! skips the stored functions and converges on a store byte-identical to
//! an uninterrupted run's; `--max-functions N` stops after N fresh
//! functions (a deterministic stand-in for an interruption). The final
//! report is the aggregate Table-3 summary over all stored records.
//!
//! `explore`, `verify` and `campaign` all accept `--metrics PATH`: the
//! global [`phase_order::telemetry`] registry is reset before the work
//! and its snapshot written to `PATH` as deterministic-schema JSON
//! afterwards (see DESIGN.md §9).

mod args;
#[cfg(unix)]
mod client;
#[cfg(unix)]
mod serve;

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use phase_order::audit;
use phase_order::campaign::store::{Completeness, FunctionRecord};
use phase_order::campaign::{self, CampaignConfig, FunctionTask};
use phase_order::enumerate::{enumerate_tier, Config};
use phase_order::oracle;
use phase_order::request::{ExploreRequest, MergeTier, Selector};
use vpo_opt::batch::batch_compile;
use vpo_opt::{attempt, PhaseId, Target};
use vpo_sim::Machine;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("vpoc: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  vpoc compile  <file.mc> [--seq LETTERS | --batch]");
            eprintln!("  vpoc run      <file.mc> <function> [int args...]");
            eprintln!("  vpoc explore  <file.mc>|--bench NAME|--all-benches [function]");
            eprintln!("                [--jobs N] [--max-nodes N]");
            eprintln!("                [--merge-tier T] [--paranoid] [--metrics PATH]");
            eprintln!("  vpoc verify   <file.mc>|--bench NAME|--all-benches [function]");
            eprintln!("                [--jobs N] [--max-nodes N] [--battery N] [--seed S]");
            eprintln!("                [--metrics PATH] [--merge-tier T] [--paranoid]");
            eprintln!("  vpoc campaign <file.mc>|--bench NAME|--all-benches [function]");
            eprintln!("                [--store PATH] [--resume] [--jobs N] [--max-nodes N]");
            eprintln!("                [--max-functions N] [--budget N] [--merge-tier T]");
            eprintln!("                [--paranoid] [--metrics PATH]");
            eprintln!("  vpoc serve    <file.mc>|--bench NAME|--all-benches --store PATH");
            eprintln!("                --socket PATH [--shards N] [--budget N] [--jobs N]");
            eprintln!("                [--max-active N] [--max-queue N] [--merge-tier T]");
            eprintln!("                [--paranoid]");
            eprintln!("  vpoc query    --socket PATH <function> [--budget N] [--timeout MS]");
            eprintln!("  vpoc query    --socket PATH --list|--telemetry|--shutdown");
            eprintln!("  vpoc audit-quotient <file.mc>|--bench NAME|--all-benches [function]");
            eprintln!("                [--jobs N] [--max-nodes N] [--battery N] [--seed S]");
            eprintln!("                [--metrics PATH]");
            eprintln!("  vpoc dot      <file.mc>|--bench NAME [function] [--jobs N]");
            eprintln!("                [--merge-tier T]");
            eprintln!("  vpoc phases");
            eprintln!();
            eprintln!("  --jobs N       enumerate/verify with N worker threads (0 = one per");
            eprintln!("                 CPU); results are identical for any job count");
            eprintln!("  --merge-tier T merge instances by `fingerprint` (default; §4.2.1's");
            eprintln!("                 canonical-form identity), by `semantic` (behavioral");
            eprintln!("                 signature: seeded battery + dynamic counts + structure),");
            eprintln!("                 or by `semantic-pruned` (skip expanding signature hits");
            eprintln!("                 whose one-step successors are subsumed by their class");
            eprintln!("                 representative's; audit the loss with audit-quotient)");
            eprintln!("  --paranoid     double-check every merge: byte-compare fingerprint");
            eprintln!("                 hits, escalate signature hits to an extended battery");
            eprintln!("  --metrics PATH write a telemetry snapshot of the run as JSON");
            eprintln!("  --budget N     (campaign, serve) suspend each function's search after N");
            eprintln!("                 merged parent expansions (checkpointing its frontier for");
            eprintln!("                 resume); for `query`, the per-request exploration budget");
            eprintln!("  --shards N     (serve) hash functions across N store files; cold");
            eprintln!("                 runs on different shards enumerate and flush in");
            eprintln!("                 parallel (1 = the classic single-store layout)");
            eprintln!("  --timeout MS   (query) bound the whole exchange; overloaded replies");
            eprintln!("                 are retried with the daemon's backoff hint until the");
            eprintln!("                 deadline (without it: a few bounded retries)");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let cmd = argv.first().map(String::as_str).ok_or("missing command")?;
    match cmd {
        "phases" => {
            for p in PhaseId::ALL {
                println!("{}  {}", p.letter(), p.name());
            }
            Ok(())
        }
        "compile" => compile_cmd(&argv[1..]),
        "run" => run_cmd(&argv[1..]),
        "explore" => explore_cmd(&argv[1..]),
        "verify" => verify_cmd(&argv[1..]),
        "campaign" => campaign_cmd(&argv[1..]),
        "audit-quotient" => audit_quotient_cmd(&argv[1..]),
        #[cfg(unix)]
        "serve" => serve::serve_cmd(&argv[1..]),
        #[cfg(unix)]
        "query" => client::query_cmd(&argv[1..]),
        #[cfg(not(unix))]
        "serve" | "query" => Err(format!("{cmd}: only available on unix platforms")),
        "dot" => dot_cmd(&argv[1..]),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn load(path: &str) -> Result<vpo_rtl::Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    vpo_frontend::compile(&src).map_err(|e| format!("{path}: {e}"))
}

fn load_bench(name: &str) -> Result<vpo_rtl::Program, String> {
    let b = mibench::find(name).ok_or_else(|| {
        let names: Vec<&str> = mibench::all().iter().map(|b| b.name).collect();
        format!("no benchmark `{name}` (try {})", names.join(", "))
    })?;
    b.compile().map_err(|e| format!("{name}: {e}"))
}

/// Resolves a request's selector to the task list every exploring
/// subcommand iterates: the whole suite, one benchmark, or every
/// function of a file. Suite and benchmark tasks get benchmark-qualified
/// names so a store can span programs without clashes; every task
/// carries its program so the simulating tiers and commands can run
/// instances. A `[function]` filter matches a qualified name exactly or
/// any task's bare function name; matching nothing is an error, since a
/// silently empty report would read as success.
fn resolve_tasks(request: &ExploreRequest, cmd: &str) -> Result<Vec<FunctionTask>, String> {
    let program_tasks = |p: vpo_rtl::Program, qualify: Option<&str>| -> Vec<FunctionTask> {
        let p = Arc::new(p);
        p.functions
            .iter()
            .map(|f| FunctionTask {
                name: match qualify {
                    Some(q) => format!("{q}::{}", f.name),
                    None => f.name.clone(),
                },
                func: f.clone(),
                program: Some(Arc::clone(&p)),
            })
            .collect()
    };
    let mut tasks = match &request.selector {
        Selector::AllBenches => {
            let mut tasks = Vec::new();
            for b in mibench::all() {
                let p = b.compile().map_err(|e| format!("{}: {e}", b.name))?;
                tasks.extend(program_tasks(p, Some(b.name)));
            }
            tasks
        }
        Selector::Bench(name) => program_tasks(load_bench(name)?, Some(name)),
        Selector::File(path) => program_tasks(load(&path.to_string_lossy())?, None),
    };
    if let Some(name) = &request.function {
        let matches =
            |t: &FunctionTask| t.name == *name || t.name.rsplit("::").next() == Some(name.as_str());
        if !tasks.iter().any(matches) {
            let names: Vec<&str> = tasks.iter().map(|t| t.name.as_str()).collect();
            return Err(format!("{cmd}: no function `{name}` (available: {})", names.join(", ")));
        }
        tasks.retain(matches);
    }
    Ok(tasks)
}

/// Rejects the flags a non-daemon subcommand would silently ignore:
/// `--shards` (only `serve` fronts a sharded store layout) and, outside
/// `campaign`, `--budget` (only `campaign` and `serve` suspend searches).
fn reject_unused_flags(request: &ExploreRequest, cmd: &str) -> Result<(), String> {
    if request.shards != 1 {
        return Err(format!("{cmd}: --shards only applies to serve"));
    }
    if request.budget.is_some() && cmd != "campaign" {
        return Err(format!("{cmd}: --budget only applies to campaign and serve"));
    }
    Ok(())
}

/// The program a task resolved by [`resolve_tasks`] belongs to.
fn program_of(task: &FunctionTask) -> &vpo_rtl::Program {
    task.program.as_deref().expect("resolve_tasks attaches every task's program")
}

/// Maps a request onto the campaign driver's options (shared by
/// `campaign` and the daemon; `resume`/`stop_after`/`cancel` stay at
/// their defaults for the caller to fill in).
fn campaign_config(request: &ExploreRequest) -> CampaignConfig {
    CampaignConfig {
        enumerate: Config { jobs: 0, ..request.config.clone() },
        jobs: request.config.jobs,
        semantic: request.semantic_config(),
        sem_pruned: request.tier == MergeTier::SemanticPruned,
        budget: request.budget,
        ..CampaignConfig::default()
    }
}

/// Handles `--metrics PATH` for the exploring subcommands: resets the
/// global telemetry registry when the flag is present (so the snapshot
/// covers exactly this invocation's work) and returns the path.
fn metrics_begin(rest: &mut Vec<String>) -> Result<Option<String>, String> {
    let path = args::string(rest, "--metrics")?;
    if path.is_some() {
        phase_order::telemetry::global().reset();
    }
    Ok(path)
}

/// Writes the telemetry snapshot to `path` (no-op without `--metrics`).
fn metrics_end(path: Option<&str>) -> Result<(), String> {
    if let Some(path) = path {
        phase_order::telemetry::global()
            .snapshot()
            .write(Path::new(path))
            .map_err(|e| format!("--metrics {path}: {e}"))?;
    }
    Ok(())
}

fn parse_seq(letters: &str) -> Result<Vec<PhaseId>, String> {
    letters
        .chars()
        .map(|c| PhaseId::from_letter(c).ok_or(format!("unknown phase letter `{c}`")))
        .collect()
}

fn compile_cmd(argv: &[String]) -> Result<(), String> {
    let path = argv.first().ok_or("compile: missing file")?;
    let mut program = load(path)?;
    let target = Target::default();
    let finalize = argv.iter().any(|a| a == "--finalize");
    let emit_asm = argv.iter().any(|a| a == "--emit-asm");
    let mode = argv
        .get(1)
        .map(String::as_str)
        .filter(|m| *m != "--finalize" && *m != "--emit-asm")
        .unwrap_or("--batch");
    for f in &mut program.functions {
        match mode {
            "--batch" => {
                let stats = batch_compile(f, &target);
                eprintln!(
                    "; {}: {} attempted, {} active: {}",
                    f.name,
                    stats.attempted,
                    stats.active,
                    stats.sequence.iter().map(|p| p.letter()).collect::<String>()
                );
            }
            "--naive" => {}
            "--seq" => {
                let letters = argv.get(2).ok_or("compile: --seq needs letters")?;
                for p in parse_seq(letters)? {
                    attempt(f, p, &target);
                }
            }
            other => return Err(format!("compile: unknown mode `{other}`")),
        }
        if !emit_asm {
            if finalize {
                println!("{}", vpo_opt::finalize::fix_entry_exit(f, &target));
            } else {
                println!("{f}");
            }
        }
    }
    if emit_asm {
        let asm = vpo_opt::emit::emit_program(&program, &target).map_err(|e| e.to_string())?;
        println!("{asm}");
    }
    Ok(())
}

fn run_cmd(argv: &[String]) -> Result<(), String> {
    // Negative integer arguments look like short flags; only `--` ones
    // are rejected.
    if let Some(flag) = argv.iter().find(|a| a.starts_with("--")) {
        return Err(format!("run: unknown flag `{flag}`"));
    }
    let path = argv.first().ok_or("run: missing file")?;
    let func = argv.get(1).ok_or("run: missing function name")?;
    let call_args: Vec<i32> = argv[2..]
        .iter()
        .map(|a| a.parse().map_err(|_| format!("bad integer argument `{a}`")))
        .collect::<Result<_, _>>()?;
    let program = load(path)?;
    let target = Target::default();
    let mut optimized = program.function(func).ok_or(format!("no function `{func}`"))?.clone();
    batch_compile(&mut optimized, &target);

    let mut naive = Machine::new(&program);
    let expected = naive.call(func, &call_args).map_err(|e| e.to_string())?;
    let mut opt = Machine::new(&program);
    let got = opt.call_instance(&optimized, &call_args).map_err(|e| e.to_string())?;
    if expected != got {
        return Err(format!("MISCOMPILATION: naive={expected}, optimized={got}"));
    }
    println!("{func}({call_args:?}) = {got}");
    println!(
        "dynamic instructions: naive {} -> optimized {}",
        naive.dynamic_insts(),
        opt.dynamic_insts()
    );
    Ok(())
}

fn explore_cmd(argv: &[String]) -> Result<(), String> {
    let mut rest = argv.to_vec();
    let metrics = metrics_begin(&mut rest)?;
    let request = args::explore_request(&mut rest, "explore")?;
    reject_unused_flags(&request, "explore")?;
    let tasks = resolve_tasks(&request, "explore")?;
    let target = Target::default();
    let config = &request.config;
    println!("{}", FunctionRecord::table3_header());
    for task in &tasks {
        let f = &task.func;
        // The fingerprint-tier Table-3 row is always reported. Under
        // `--merge-tier semantic` one enumeration produces both views —
        // the semantic tier annotates the identical space — and the
        // quotient line follows with both DAG sizes and the collapse
        // factor.
        let program = Some(program_of(task));
        let e = enumerate_tier(request.tier, program, f, &target, config, &request.semantic);
        println!("{}", FunctionRecord::from_enumeration(f.name.clone(), f, &e).table3_row());
        if request.tier.is_semantic() {
            let (fp_n, sem_n) = (e.space.len(), e.space.sem_class_count());
            let collapse = fp_n as f64 / sem_n.max(1) as f64;
            println!(
                "  semantic: {sem_n} distinct instances (fingerprint {fp_n}, \
                 collapse {collapse:.2}x, {} sem merges, {} collisions, {} escalations)",
                e.stats.sem_merges, e.stats.sem_collisions, e.stats.sem_escalations,
            );
        }
        if request.tier == MergeTier::SemanticPruned {
            println!(
                "  pruned: {} subtrees skipped by subsumption, {} mask fallbacks \
                 (audit the loss with `vpoc audit-quotient`)",
                e.stats.sem_prunes, e.stats.sem_mask_fallbacks,
            );
        }
    }
    metrics_end(metrics.as_deref())
}

fn verify_cmd(argv: &[String]) -> Result<(), String> {
    let mut rest = argv.to_vec();
    let metrics = metrics_begin(&mut rest)?;
    let request = args::explore_request(&mut rest, "verify")?;
    reject_unused_flags(&request, "verify")?;
    let tasks = resolve_tasks(&request, "verify")?;

    let target = Target::default();
    let mut findings = 0usize;
    for task in &tasks {
        let (program, f) = (program_of(task), &task.func);
        let e = enumerate_tier(
            request.tier,
            Some(program),
            f,
            &target,
            &request.config,
            &request.semantic,
        );
        // The signature battery is the verification battery, so a
        // semantic merge is re-validated on the evidence it was
        // accepted on.
        let report =
            oracle::verify(program, f, &e, &target, &request.semantic, request.config.jobs);
        let tag = if e.outcome.is_complete() { "" } else { " [space truncated]" };
        println!("{}{tag}", report.summary());
        for finding in &report.findings {
            println!("  !! {finding:?}");
        }
        findings += report.findings.len();
    }
    metrics_end(metrics.as_deref())?;
    if findings > 0 {
        return Err(format!("verification FAILED with {findings} finding(s)"));
    }
    Ok(())
}

/// Streams campaign progress to stderr: a live status line on terminals,
/// and a completion line per function always.
struct Progress {
    live: bool,
}

impl Progress {
    fn from_env() -> Progress {
        use std::io::IsTerminal;
        Progress { live: std::io::stderr().is_terminal() }
    }

    fn status(&self, line: &str) {
        if self.live {
            use std::io::Write;
            eprint!("\r{line:<78}");
            let _ = std::io::stderr().flush();
        }
    }
}

impl campaign::Observer for Progress {
    fn function_started(&self, index: usize, total: usize, name: &str) {
        self.status(&format!("[{}/{total}] exploring {name}...", index + 1));
    }

    fn level_completed(&self, name: &str, level: u32, frontier: usize, nodes: usize) {
        self.status(&format!("  {name}: level {level}, frontier {frontier}, {nodes} instances"));
    }

    fn function_done(&self, index: usize, total: usize, record: &FunctionRecord) {
        self.report(index, total, record);
    }

    fn function_suspended(&self, index: usize, total: usize, record: &FunctionRecord) {
        self.report(index, total, record);
    }
}

impl Progress {
    /// Completion/suspension line, rendered from the record's
    /// [`Completeness`] so the CLI and the daemon describe records
    /// identically.
    fn report(&self, index: usize, total: usize, record: &FunctionRecord) {
        if self.live {
            eprint!("\r{:<78}\r", "");
        }
        let status = match record.completeness() {
            Completeness::Complete => {
                format!("{} instances, {} leaves", record.fn_instances, record.leaves)
            }
            state => state.to_string(),
        };
        eprintln!("[{}/{total}] {}: {status}", index + 1, record.name);
    }
}

fn campaign_cmd(argv: &[String]) -> Result<(), String> {
    let mut rest = argv.to_vec();
    let max_functions = args::value::<usize>(&mut rest, "--max-functions")?;
    let store = args::string(&mut rest, "--store")?;
    let resume = args::switch(&mut rest, "--resume");
    let metrics = metrics_begin(&mut rest)?;
    let request = args::explore_request(&mut rest, "campaign")?;
    reject_unused_flags(&request, "campaign")?;
    let tasks = resolve_tasks(&request, "campaign")?;

    let mut config = campaign_config(&request);
    config.resume = resume;
    config.stop_after = max_functions;
    let total = tasks.len();
    let target = Target::default();
    let progress = Progress::from_env();
    let summary =
        campaign::run(tasks, &target, store.as_deref().map(Path::new), &config, &progress)
            .map_err(|e| format!("campaign: {e}"))?;

    // The aggregate Table-3 report over everything in the store.
    println!("{}", FunctionRecord::table3_header());
    let mut complete = 0usize;
    let mut instances = 0u64;
    let mut attempted = 0u64;
    let mut diffs: Vec<f64> = Vec::new();
    for rec in &summary.records {
        println!("{}", rec.table3_row());
        if rec.complete {
            complete += 1;
            instances += rec.fn_instances;
            attempted += rec.attempted_phases;
        }
        if let Some(d) = rec.code_diff_percent() {
            diffs.push(d);
        }
    }
    println!(
        "{} of {total} function(s) recorded ({} resumed, {} explored this run), \
         {complete} complete, {} truncated",
        summary.records.len(),
        summary.resumed,
        summary.explored,
        summary.records.len() - complete,
    );
    if summary.suspended > 0 || summary.deepened > 0 {
        println!(
            "{} suspended at a budget frontier, {} deepened from one \
             ({} parent expansions this run); re-run with --resume to continue",
            summary.suspended, summary.deepened, summary.expanded,
        );
    }
    println!(
        "totals over complete functions: {instances} distinct instances, \
         {attempted} attempted phases"
    );
    if !diffs.is_empty() {
        println!(
            "average leaf code-size spread: {:.1}%",
            diffs.iter().sum::<f64>() / diffs.len() as f64
        );
    }
    if summary.interrupted {
        println!(
            "campaign interrupted after {} function(s); re-run with --resume to continue",
            summary.explored
        );
    }
    metrics_end(metrics.as_deref())
}

fn dot_cmd(argv: &[String]) -> Result<(), String> {
    let mut rest = argv.to_vec();
    let request = args::explore_request(&mut rest, "dot")?;
    reject_unused_flags(&request, "dot")?;
    let tasks = resolve_tasks(&request, "dot")?;
    let [task] = &tasks[..] else {
        let names: Vec<&str> = tasks.iter().map(|t| t.name.as_str()).collect();
        return Err(format!("dot: name one function (matching: {})", names.join(", ")));
    };
    let target = Target::default();
    let e = enumerate_tier(
        request.tier,
        Some(program_of(task)),
        &task.func,
        &target,
        &request.config,
        &request.semantic,
    );
    println!("{}", e.space.to_dot());
    Ok(())
}

fn audit_quotient_cmd(argv: &[String]) -> Result<(), String> {
    let mut rest = argv.to_vec();
    let metrics = metrics_begin(&mut rest)?;
    let request = args::explore_request(&mut rest, "audit-quotient")?;
    reject_unused_flags(&request, "audit-quotient")?;
    let tasks = resolve_tasks(&request, "audit-quotient")?;
    let target = Target::default();

    println!(
        "{:<16} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>5} {:>6} {:>6}  verdict",
        "function",
        "ann_n",
        "prun_n",
        "saved",
        "ann_c",
        "lost",
        "prune",
        "fall",
        "s_drft",
        "d_drft",
    );
    let mut unsound = 0usize;
    for task in &tasks {
        let (program, f) = (program_of(task), &task.func);
        let a = audit::audit_function(program, f, &target, &request.config, &request.semantic);
        // An annotation tier truncated by --max-nodes where the pruned
        // tier completes is the mode paying off, not a soundness signal;
        // the row says so instead of faking drift numbers.
        let verdict = if !a.comparable() {
            match (a.ann_complete, a.pruned_complete) {
                (false, true) => "incomparable (annotation truncated; pruned completed)",
                (true, false) => "incomparable (pruned truncated)",
                _ => "incomparable (both truncated)",
            }
        } else if a.unsound() {
            unsound += 1;
            "UNSOUND"
        } else {
            "sound"
        };
        println!(
            "{:<16} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>5} {:>6} {:>6}  {verdict}",
            a.name,
            a.ann_nodes,
            a.pruned_nodes,
            a.node_savings(),
            a.ann_classes,
            a.classes_lost(),
            a.prunes,
            a.mask_fallbacks,
            if a.comparable() { a.static_drift().to_string() } else { "-".into() },
            if a.comparable() { a.dynamic_drift().to_string() } else { "-".into() },
        );
    }
    if tasks.is_empty() {
        return Err("audit-quotient: no functions to audit".into());
    }
    metrics_end(metrics.as_deref())?;
    if unsound > 0 {
        return Err(format!(
            "audit-quotient: {unsound} function(s) with unsound prunes — a skipped \
             subtree held a strictly better leaf"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_seq_round_trips() {
        let seq = parse_seq("skch").unwrap();
        assert_eq!(
            seq,
            vec![PhaseId::InsnSelect, PhaseId::RegAlloc, PhaseId::Cse, PhaseId::DeadAssign]
        );
        assert!(parse_seq("xyz").is_err());
    }

    #[test]
    fn end_to_end_commands() {
        let dir = std::env::temp_dir().join("vpoc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("t.mc");
        std::fs::write(&file, "int triple(int x) { return x * 3; }").unwrap();
        let path = file.to_str().unwrap().to_owned();
        run(&["compile".into(), path.clone()]).unwrap();
        run(&["compile".into(), path.clone(), "--batch".into(), "--finalize".into()]).unwrap();
        run(&["compile".into(), path.clone(), "--batch".into(), "--emit-asm".into()]).unwrap();
        run(&["compile".into(), path.clone(), "--seq".into(), "sqk".into()]).unwrap();
        run(&["run".into(), path.clone(), "triple".into(), "14".into()]).unwrap();
        run(&["explore".into(), path.clone()]).unwrap();
        run(&["explore".into(), path.clone(), "--jobs".into(), "2".into()]).unwrap();
        run(&["explore".into(), path.clone(), "--jobs=0".into()]).unwrap();
        run(&["explore".into(), path.clone(), "triple".into()]).unwrap();
        run(&["explore".into(), path.clone(), "--merge-tier".into(), "semantic-pruned".into()])
            .unwrap();
        run(&["verify".into(), path.clone(), "--merge-tier=semantic-pruned".into()]).unwrap();
        run(&["audit-quotient".into(), path.clone()]).unwrap();
        run(&["dot".into(), path.clone(), "triple".into(), "--merge-tier=semantic-pruned".into()])
            .unwrap();
        assert!(run(&["audit-quotient".into(), path.clone(), "nonesuch".into()]).is_err());
        run(&["verify".into(), path.clone()]).unwrap();
        run(&["verify".into(), path.clone(), "--jobs".into(), "2".into()]).unwrap();
        run(&[
            "verify".into(),
            path.clone(),
            "triple".into(),
            "--battery=2".into(),
            "--seed=7".into(),
            "--max-nodes=500".into(),
        ])
        .unwrap();
        run(&["run".into(), path.clone(), "triple".into(), "-14".into()]).unwrap();
        run(&["dot".into(), path.clone(), "triple".into()]).unwrap();
        run(&["dot".into(), path.clone(), "triple".into(), "-j".into(), "4".into()]).unwrap();
        run(&["phases".into()]).unwrap();
        assert!(run(&["bogus".into()]).is_err());
        assert!(run(&["verify".into(), path.clone(), "--battery=0".into()]).is_err());
        assert!(run(&["explore".into(), path.clone(), "--jobs".into()]).is_err());
        assert!(run(&["explore".into(), path.clone(), "--bogus".into()]).is_err());
        assert!(run(&["verify".into(), path.clone(), "--battery".into()]).is_err());
        assert!(run(&["verify".into(), path.clone(), "--seed=pi".into()]).is_err());
        assert!(run(&["verify".into(), "--bench".into(), "nope".into()]).is_err());
        assert!(run(&["explore".into(), path, "--jobs".into(), "x".into()]).is_err());
    }

    #[test]
    fn unknown_function_filters_are_errors() {
        let dir = std::env::temp_dir().join("vpoc_test_filter");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("t.mc");
        std::fs::write(&file, "int triple(int x) { return x * 3; }").unwrap();
        let path = file.to_str().unwrap().to_owned();
        for cmd in ["explore", "verify", "campaign", "dot", "audit-quotient"] {
            let err = run(&[cmd.into(), path.clone(), "nonesuch".into()]).unwrap_err();
            assert!(err.contains("no function `nonesuch`"), "{cmd}: {err}");
            assert!(err.contains("triple"), "{cmd} must list available functions: {err}");
        }
    }

    #[test]
    fn budget_only_applies_to_campaign_and_serve() {
        let dir = std::env::temp_dir().join("vpoc_test_budget");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("t.mc");
        std::fs::write(&file, "int triple(int x) { return x * 3; }").unwrap();
        let path = file.to_str().unwrap().to_owned();
        for cmd in ["explore", "verify", "dot", "audit-quotient"] {
            let err =
                run(&[cmd.into(), path.clone(), "triple".into(), "--budget".into(), "1".into()])
                    .unwrap_err();
            assert!(err.contains("--budget only applies to campaign and serve"), "{cmd}: {err}");
        }
        run(&["campaign".into(), path, "--budget=1".into()]).unwrap();
    }

    #[test]
    fn dot_needs_exactly_one_function() {
        let dir = std::env::temp_dir().join("vpoc_test_dot");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("two.mc");
        std::fs::write(&file, "int one(int x) { return x; }\nint two(int x) { return x + x; }")
            .unwrap();
        let path = file.to_str().unwrap().to_owned();
        let err = run(&["dot".into(), path.clone()]).unwrap_err();
        assert!(err.contains("one, two"), "{err}");
        run(&["dot".into(), path, "two".into()]).unwrap();
    }

    #[test]
    fn metrics_flag_writes_a_snapshot() {
        let dir = std::env::temp_dir().join("vpoc_test_metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("m.mc");
        std::fs::write(&file, "int quad(int x) { return x * 4; }").unwrap();
        let path = file.to_str().unwrap().to_owned();
        let out = dir.join("metrics.json");
        std::fs::remove_file(&out).ok();
        run(&["explore".into(), path, format!("--metrics={}", out.display())]).unwrap();
        // Concurrent tests share the global registry, so assert only the
        // schema and metric inventory here — exact determinism of the
        // counters is pinned by perfsuite and the phase-order tests.
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"schema\": \"phase-order-telemetry-v1\""), "{json}");
        assert!(json.contains("\"enumerate.nodes_inserted\""), "{json}");
        assert!(json.contains("\"enumerate.level_wall_ns\""), "{json}");
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn verify_bench_kernel() {
        // A single small MiBench function end to end through the oracle.
        run(&[
            "verify".into(),
            "--bench".into(),
            "bitcount".into(),
            "bit_count".into(),
            "--max-nodes=2000".into(),
            "--battery=2".into(),
        ])
        .unwrap();
    }

    #[test]
    fn campaign_end_to_end_with_resume() {
        let dir = std::env::temp_dir().join("vpoc_test_campaign");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("two.mc");
        std::fs::write(
            &file,
            "int twice(int x) { return x + x; }\nint diff(int a, int b) { return a - b; }",
        )
        .unwrap();
        let path = file.to_str().unwrap().to_owned();
        let store = dir.join("two.store");
        std::fs::remove_file(&store).ok();
        let store_arg = format!("--store={}", store.display());

        // Interrupt after one function, then resume to completion.
        run(&["campaign".into(), path.clone(), store_arg.clone(), "--max-functions=1".into()])
            .unwrap();
        run(&["campaign".into(), path.clone(), store_arg.clone(), "--resume".into()]).unwrap();
        let resumed = std::fs::read(&store).unwrap();

        // The uninterrupted run must produce the same bytes.
        let full = dir.join("full.store");
        std::fs::remove_file(&full).ok();
        run(&[
            "campaign".into(),
            path.clone(),
            format!("--store={}", full.display()),
            "--jobs".into(),
            "2".into(),
        ])
        .unwrap();
        assert_eq!(std::fs::read(&full).unwrap(), resumed);

        // Re-running without --resume on an existing store is an error.
        assert!(run(&["campaign".into(), path.clone(), store_arg]).is_err());
        // A campaign needs no store at all.
        run(&["campaign".into(), path, "--max-nodes=500".into()]).unwrap();
        std::fs::remove_file(&store).ok();
        std::fs::remove_file(&full).ok();
    }
}
