//! The table and figure binaries' command lines, against the real
//! binaries: a `--jobs` flag is never mistaken for a selector, and an
//! unknown selector or job count exits nonzero before any enumeration.
//! `figures fig6` and `figures ablation` print what the paper and
//! DESIGN §2 claim.
//!
//! Suite enumeration is capped at 300 instances per function
//! (`PHASE_ORDER_MAX_NODES`), which keeps each suite run to seconds; the
//! figures enumerate small spaces uncapped.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).env("PHASE_ORDER_MAX_NODES", "300").output().unwrap()
}

fn stdout(out: &Output) -> String {
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout.clone()).unwrap()
}

#[test]
fn tables456_takes_jobs_and_a_selector_in_any_order() {
    let tables = env!("CARGO_BIN_EXE_tables456");
    let two = stdout(&run(tables, &["--jobs", "2"]));
    for title in ["Table 4:", "Table 5:", "Table 6:"] {
        assert!(two.contains(title), "`tables456 --jobs 2` printed no {title}\n{two}");
    }
    let one = stdout(&run(tables, &["disable", "-j", "2"]));
    assert!(one.contains("Table 5:") && !one.contains("Table 4:") && !one.contains("Table 6:"));
}

#[test]
fn unknown_selectors_and_job_counts_exit_nonzero() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_tables456"), &["bogus"][..]),
        (env!("CARGO_BIN_EXE_figures"), &["bogus"]),
        (env!("CARGO_BIN_EXE_table3"), &["--jobs", "abc"]),
        (env!("CARGO_BIN_EXE_table7"), &["table7"]),
    ] {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed a table");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{bin} {args:?}");
    }
}

/// The whitespace-separated columns of the row for suite function `name`
/// (its display name without the benchmark tag).
fn row<'a>(text: &'a str, name: &str) -> Vec<&'a str> {
    let prefix = format!("{name}(");
    let line = text.lines().find(|l| l.starts_with(&prefix));
    line.unwrap_or_else(|| panic!("no row for {name}:\n{text}")).split_whitespace().collect()
}

/// Parses a column, ignoring a trailing `x` or `%`.
fn num(col: &str) -> f64 {
    col.trim_end_matches(['x', '%']).parse().unwrap_or_else(|_| panic!("`{col}` is no number"))
}

#[test]
fn fig6_counts_applications_and_times_both_strategies() {
    let text = stdout(&run(env!("CARGO_BIN_EXE_figures"), &["fig6"]));
    for (name, naive, shared) in [
        ("bit_count", 13755, 2190),
        ("bit_shifter", 1920, 420),
        ("btbl_bitcount", 3255, 735),
        ("bit_parity", 1290, 315),
        ("count_leading_zeros", 28155, 3495),
        ("bit_count_rec", 2820, 585),
        ("qinit", 45, 30),
        ("enqueue", 2325, 570),
    ] {
        let cols = row(&text, name);
        assert_eq!(cols[1..3], [naive.to_string(), shared.to_string()], "{name}:\n{text}");
        let (naive_ms, shared_ms) = (num(cols[4]), num(cols[5]));
        assert!(naive_ms > shared_ms, "{name}: naive replay was not slower:\n{text}");
    }
}

#[test]
fn ablation_shows_robust_allocation_and_the_shortcut_paying_off() {
    let text = stdout(&run(env!("CARGO_BIN_EXE_figures"), &["ablation"]));
    let aggregate = text
        .lines()
        .find_map(|l| l.strip_prefix("leaf code-size spread: direct-only "))
        .unwrap_or_else(|| panic!("no aggregate spread:\n{text}"));
    let spreads: Vec<f64> = aggregate.split(" vs robust ").map(num).collect();
    assert!(spreads[1] < spreads[0], "robust allocation did not shrink the spread:\n{text}");
    let rows: Vec<Vec<&str>> =
        text.lines().filter(|l| l.contains("(")).map(|l| l.split_whitespace().collect()).collect();
    assert_eq!(rows.len(), 6, "six ablation targets expected:\n{text}");
    for cols in rows {
        assert!(num(cols[4]) < num(cols[3]), "{}: the shortcut saved no attempts", cols[0]);
    }
}
