//! Shared code for the table/figure regeneration binaries and the perf
//! suite.
//!
//! See `DESIGN.md` (experiment index) for which binary regenerates which
//! table or figure of the paper, and DESIGN.md §9 for the perf suite
//! built on [`json`] and [`perf`].

pub mod json;
pub mod perf;

use std::time::Duration;

use phase_order::campaign::store::FunctionRecord;
use phase_order::campaign::{self, CampaignConfig, FunctionTask};
use phase_order::enumerate::{jobs_per_cpu, Config, Enumeration};
use phase_order::interaction::InteractionAnalysis;
use phase_order::prob::{probabilistic_compile, ProbTables};
use vpo_opt::batch::{batch_compile, BatchStats};
use vpo_opt::Target;
use vpo_rtl::Function;
use vpo_sim::Machine;

/// One function of the suite, tagged as in the paper (`name(tag)`).
pub struct SuiteFunction {
    /// `function_name(b)`-style display name.
    pub display: String,
    /// The unoptimized function.
    pub function: Function,
    /// The whole program (for simulation).
    pub program: vpo_rtl::Program,
    /// Simulator workloads that drive this function.
    pub workloads: Vec<mibench::Workload>,
}

/// Compiles the whole MiBench suite into per-function records.
pub fn suite_functions() -> Vec<SuiteFunction> {
    let mut out = Vec::new();
    for b in mibench::all() {
        let program = b.compile().expect("suite compiles");
        for f in &program.functions {
            out.push(SuiteFunction {
                display: format!("{}({})", f.name, b.tag),
                function: f.clone(),
                program: program.clone(),
                workloads: b.workloads_for(&f.name).into_iter().cloned().collect(),
            });
        }
    }
    out
}

/// Enumerates every suite function on one campaign pool of
/// `config.jobs` workers ([`campaign::enumerate_all`]), which steals
/// parent expansions across functions; results come back in suite order
/// and are identical for any job count.
pub fn enumerate_suite(config: &CampaignConfig) -> Vec<(SuiteFunction, Enumeration)> {
    let funcs = suite_functions();
    let tasks: Vec<FunctionTask> = funcs
        .iter()
        .map(|s| FunctionTask { name: s.display.clone(), func: s.function.clone(), program: None })
        .collect();
    let spaces = campaign::enumerate_all(&tasks, &Target::default(), config);
    funcs.into_iter().zip(spaces).collect()
}

/// The table and figure binaries' command line: `[SELECTOR] [--jobs N]`.
#[derive(Debug, PartialEq, Eq)]
pub struct Args {
    /// Campaign pool size from `--jobs N` (also `-j N`, `--jobs=N`; the
    /// last occurrence wins). Absent or `0` means one worker per CPU.
    pub jobs: usize,
    /// The first non-flag argument: which table or figure to print.
    pub selector: Option<String>,
}

impl Args {
    /// Parses `args` (without the program name). A selector must be one
    /// of `known`; unknown flags, unparsable job counts and extra
    /// arguments are errors.
    pub fn parse(args: impl IntoIterator<Item = String>, known: &[&str]) -> Result<Args, String> {
        let mut jobs = 0;
        let mut selector = None;
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let value = match a.as_str() {
                "--jobs" | "-j" => Some(args.next().ok_or("--jobs needs a value")?),
                _ => a.strip_prefix("--jobs=").map(str::to_owned),
            };
            if let Some(v) = value {
                jobs = v.parse().map_err(|_| format!("--jobs: `{v}` is not a worker count"))?;
            } else if a.starts_with('-') {
                return Err(format!("unknown flag `{a}`"));
            } else if selector.is_some() {
                return Err(format!("unexpected argument `{a}`"));
            } else if !known.contains(&a.as_str()) {
                return Err(format!("unknown selector `{a}`"));
            } else {
                selector = Some(a);
            }
        }
        Ok(Args { jobs: if jobs == 0 { jobs_per_cpu() } else { jobs }, selector })
    }

    /// Parses the process arguments of binary `bin`; on an error, prints
    /// it with a usage line and exits with status 2.
    pub fn from_env(bin: &str, known: &[&str]) -> Args {
        Args::parse(std::env::args().skip(1), known).unwrap_or_else(|e| {
            let sel =
                if known.is_empty() { String::new() } else { format!(" [{}]", known.join("|")) };
            eprintln!("error: {e}\nusage: {bin}{sel} [--jobs N]");
            std::process::exit(2)
        })
    }
}

/// The table binaries' suite enumeration on a pool of `jobs` workers,
/// with a budget generous enough for almost every suite function while
/// keeping the heavyweights (the fft butterfly nest) reported as "too
/// big", as in the paper. `PHASE_ORDER_MAX_NODES` overrides the
/// per-function instance cap.
pub fn harness_config(jobs: usize) -> CampaignConfig {
    let max_nodes =
        std::env::var("PHASE_ORDER_MAX_NODES").ok().and_then(|v| v.parse().ok()).unwrap_or(400_000);
    let enumerate = Config { max_nodes, max_level_width: 200_000, ..Config::default() };
    CampaignConfig { enumerate, jobs, ..CampaignConfig::default() }
}

/// Builds the Table-3 record of every suite function, in suite order.
pub fn table3_rows(config: &CampaignConfig) -> Vec<FunctionRecord> {
    enumerate_suite(config)
        .into_iter()
        .map(|(sf, e)| FunctionRecord::from_enumeration(sf.display, &sf.function, &e))
        .collect()
}

/// Accumulates the interaction analysis over every completed space.
pub fn suite_interaction(config: &CampaignConfig) -> InteractionAnalysis {
    let mut ia = InteractionAnalysis::new();
    for (_, e) in enumerate_suite(config).iter().filter(|(_, e)| e.outcome.is_complete()) {
        ia.add_space(&e.space);
    }
    ia
}

/// Result of comparing batch vs probabilistic compilation on one function
/// (one row of Table 7).
pub struct Table7Row {
    /// `name(tag)` display name.
    pub display: String,
    /// Conventional batch statistics.
    pub old: BatchStats,
    /// Batch wall time.
    pub old_time: Duration,
    /// Probabilistic statistics.
    pub prob: BatchStats,
    /// Probabilistic wall time.
    pub prob_time: Duration,
    /// Code size ratio prob/old.
    pub size_ratio: f64,
    /// Dynamic instruction count ratio prob/old, if a workload exists.
    pub speed_ratio: Option<f64>,
}

/// Runs the Table 7 comparison over the whole suite with the given
/// probability tables.
pub fn table7_rows(tables: &ProbTables) -> Vec<Table7Row> {
    let target = Target::default();
    let mut rows = Vec::new();
    for sf in suite_functions() {
        let mut f_old = sf.function.clone();
        let t0 = std::time::Instant::now();
        let old = batch_compile(&mut f_old, &target);
        let old_time = t0.elapsed();

        let mut f_prob = sf.function.clone();
        let t1 = std::time::Instant::now();
        let prob = probabilistic_compile(&mut f_prob, &target, tables);
        let prob_time = t1.elapsed();

        let size_ratio = f_prob.inst_count() as f64 / f_old.inst_count() as f64;
        let speed_ratio = dynamic_ratio(&sf, &f_old, &f_prob);
        rows.push(Table7Row {
            display: sf.display,
            old,
            old_time,
            prob,
            prob_time,
            size_ratio,
            speed_ratio,
        });
    }
    rows
}

/// Dynamic-count ratio prob/old over the function's workloads, verifying
/// that both versions produce identical results.
fn dynamic_ratio(sf: &SuiteFunction, f_old: &Function, f_prob: &Function) -> Option<f64> {
    if sf.workloads.is_empty() {
        return None;
    }
    let mut old_count = 0u64;
    let mut prob_count = 0u64;
    for w in &sf.workloads {
        let mut m1 = Machine::new(&sf.program);
        let r1 = m1.call_instance(f_old, &w.args).ok()?;
        let c1 = m1.dynamic_insts();
        let mut m2 = Machine::new(&sf.program);
        let r2 = m2.call_instance(f_prob, &w.args).ok()?;
        let c2 = m2.dynamic_insts();
        assert_eq!(r1, r2, "{}: batch and probabilistic compilations disagree", sf.display);
        old_count += c1;
        prob_count += c2;
    }
    if old_count == 0 {
        return None;
    }
    Some(prob_count as f64 / old_count as f64)
}

/// Formats a probability like the paper's tables: blank under 0.005,
/// otherwise two decimals.
pub fn fmt_prob(p: Option<f64>, blank_under: f64) -> String {
    match p {
        Some(v) if v >= blank_under => format!("{v:.2}"),
        _ => "    ".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], selectors: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| a.to_string()), selectors)
    }

    #[test]
    fn jobs_and_selector_parse_in_any_order() {
        for args in [
            &["--jobs", "3", "enable"][..],
            &["enable", "-j", "3"],
            &["--jobs=3", "enable"],
            &["--jobs", "1", "enable", "--jobs=3"],
        ] {
            let want = Args { jobs: 3, selector: Some("enable".into()) };
            assert_eq!(parse(args, &["enable"]), Ok(want), "{args:?}");
        }
    }

    #[test]
    fn absent_or_zero_jobs_mean_one_per_cpu() {
        let per_cpu = Args { jobs: jobs_per_cpu(), selector: None };
        assert_eq!(parse(&[], &[]), Ok(per_cpu));
        assert_eq!(parse(&["--jobs", "0"], &[]).unwrap().jobs, jobs_per_cpu());
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        for args in [
            &["--jobs", "abc"][..],
            &["--jobs=-1"],
            &["--jobs"],
            &["--verbose"],
            &["bogus"],
            &["enable", "disable"],
        ] {
            assert!(parse(args, &["enable", "disable"]).is_err(), "{args:?} accepted");
        }
    }
}
