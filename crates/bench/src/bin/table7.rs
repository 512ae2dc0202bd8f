//! Regenerates **Table 7** of the paper: the conventional batch compiler
//! versus the probabilistic batch compiler (Figure 8), per function —
//! attempted/active phases, compilation time, and the probabilistic/old
//! ratios for time, code size, and dynamic instruction count.
//!
//! ```text
//! cargo run --release -p bench --bin table7 [-- --jobs N]
//! ```
//!
//! The probability tables are mined from the suite's own exhaustive
//! enumerations first, exactly as in the paper, on one campaign pool of
//! `--jobs` workers (default: one per CPU).

use phase_order::prob::ProbTables;

fn main() {
    let config = bench::harness_config(bench::Args::from_env("table7", &[]).jobs);
    eprintln!("mining enabling/disabling probabilities from exhaustive enumerations...");
    let ia = bench::suite_interaction(&config);
    let tables = ProbTables::from_analysis(&ia);

    eprintln!("compiling the suite twice (batch, probabilistic)...");
    let rows = bench::table7_rows(&tables);

    println!("Table 7: Old Batch vs Probabilistic Compilation");
    println!(
        "{:<22} {:>7} {:>6} {:>9} | {:>7} {:>6} {:>9} | {:>6} {:>6} {:>6}",
        "Function",
        "OldAtt",
        "OldAct",
        "OldTime",
        "PrAtt",
        "PrAct",
        "PrTime",
        "T-rat",
        "Size",
        "Speed"
    );
    let mut sums = (0u64, 0u64, 0.0f64, 0u64, 0u64, 0.0f64);
    let mut size_sum = 0.0;
    let mut speed_sum = 0.0;
    let mut speed_n = 0usize;
    for r in &rows {
        let t_ratio = r.prob_time.as_secs_f64() / r.old_time.as_secs_f64().max(1e-9);
        println!(
            "{:<22} {:>7} {:>6} {:>8.2}µ | {:>7} {:>6} {:>8.2}µ | {:>6.3} {:>6.3} {:>6}",
            r.display,
            r.old.attempted,
            r.old.active,
            r.old_time.as_secs_f64() * 1e6,
            r.prob.attempted,
            r.prob.active,
            r.prob_time.as_secs_f64() * 1e6,
            t_ratio,
            r.size_ratio,
            r.speed_ratio.map(|s| format!("{s:.3}")).unwrap_or_else(|| "N/A".into()),
        );
        sums.0 += r.old.attempted as u64;
        sums.1 += r.old.active as u64;
        sums.2 += r.old_time.as_secs_f64();
        sums.3 += r.prob.attempted as u64;
        sums.4 += r.prob.active as u64;
        sums.5 += r.prob_time.as_secs_f64();
        size_sum += r.size_ratio;
        if let Some(s) = r.speed_ratio {
            speed_sum += s;
            speed_n += 1;
        }
    }
    let n = rows.len() as f64;
    println!();
    println!(
        "averages: old attempted {:.1}, old active {:.1}; prob attempted {:.1}, prob active {:.1}",
        sums.0 as f64 / n,
        sums.1 as f64 / n,
        sums.3 as f64 / n,
        sums.4 as f64 / n
    );
    println!(
        "time ratio prob/old: {:.3} (paper: 0.297); size ratio: {:.3} (paper: 1.015); speed ratio: {} (paper: 1.005)",
        sums.5 / sums.2.max(1e-12),
        size_sum / n,
        if speed_n > 0 { format!("{:.3}", speed_sum / speed_n as f64) } else { "N/A".into() },
    );
}
