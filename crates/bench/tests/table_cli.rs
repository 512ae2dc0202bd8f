//! The table and figure binaries' command lines, against the real
//! binaries: a `--jobs` flag is never mistaken for a selector, and an
//! unknown selector or job count exits nonzero before any enumeration.
//!
//! Enumeration is capped at 300 instances per function
//! (`PHASE_ORDER_MAX_NODES`), which keeps each suite run to seconds.

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
