//! Regenerates **Table 3** of the paper: per-function search-space
//! statistics for the MiBench suite.
//!
//! ```text
//! cargo run --release -p bench --bin table3 [-- --jobs N]
//! ```
//!
//! The suite runs on one campaign pool of `--jobs` workers (default: one
//! per CPU).
//!
//! Environment: `PHASE_ORDER_MAX_NODES` caps the per-function instance
//! count (default 400,000); functions exceeding it print `N/A`, matching
//! the paper's treatment of `fft_float` and `main(f)`.

use phase_order::stats::FunctionRow;

fn main() {
    let config = bench::harness_config(bench::Args::from_env("table3", &[]).jobs);
    eprintln!(
        "enumerating phase-order spaces (cap: {} instances per function)...",
        config.enumerate.max_nodes
    );
    let mut rows = bench::table3_rows(&config);
    // The paper sorts by unoptimized instruction count, descending.
    rows.sort_by_key(|row| std::cmp::Reverse(row.insts));

    println!("Table 3: Function-Level Search Space Statistics");
    println!("{}", FunctionRow::header());
    let mut complete = 0usize;
    let mut sum_diff = 0.0;
    let mut diffs = 0usize;
    let mut sums = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64); // insts, fninst, attempt, len, cf, leaf
    for row in &rows {
        println!("{}", row.render());
        if let Some(instances) = row.fn_instances {
            complete += 1;
            sums.0 += row.insts as u64;
            sums.1 += instances as u64;
            sums.2 += row.attempted_phases.unwrap_or(0);
            sums.3 += row.max_seq_len.unwrap_or(0) as u64;
            sums.4 += row.control_flows.unwrap_or(0) as u64;
            sums.5 += row.leaves.unwrap_or(0) as u64;
        }
        if let Some(d) = row.code_diff_percent() {
            sum_diff += d;
            diffs += 1;
        }
    }
    if complete > 0 {
        let n = complete as f64;
        println!(
            "{:<22} {:>6.1} {:>4} {:>4} {:>4} {:>9.1} {:>11.1} {:>4.1} {:>5.1} {:>6.1}",
            "average",
            sums.0 as f64 / n,
            "",
            "",
            "",
            sums.1 as f64 / n,
            sums.2 as f64 / n,
            sums.3 as f64 / n,
            sums.4 as f64 / n,
            sums.5 as f64 / n,
        );
    }
    println!();
    println!(
        "exhaustively enumerated {complete} of {} functions ({:.1}%)",
        rows.len(),
        complete as f64 * 100.0 / rows.len() as f64
    );
    if diffs > 0 {
        println!("average leaf code-size spread: {:.1}% (paper: 37.8%)", sum_diff / diffs as f64);
    }
}
