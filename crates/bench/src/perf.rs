//! The perf-suite report model and baseline comparator (DESIGN.md §9).
//!
//! `perfsuite` runs a pinned workload set and captures, per workload,
//! the wall time of every trial plus the deterministic telemetry
//! counters of the run. This module owns the on-disk shape of that
//! report (`phase-order-perfsuite-v1` JSON, written as `BENCH_<label>.json`
//! and checked in as `bench/baseline.json`) and the comparison that
//! turns it into a CI gate:
//!
//! * **Counters** are logical event counts (nodes inserted, phases
//!   attempted, fingerprint hits…) that must be *bit-identical* run to
//!   run — any drift against the baseline fails, whatever the
//!   threshold.
//! * **Wall medians** are allowed to regress up to `threshold` percent.
//!   Machines differ, so each report carries a `calibration_ns` figure
//!   (the median wall time of a fixed busy-loop); the comparator scales
//!   the baseline's medians by `current.calibration / baseline.calibration`
//!   before applying the threshold, which keeps a baseline recorded on
//!   one machine meaningful on another.

use crate::json::Value;

/// Schema tag emitted in (and required of) every perf report.
pub const SCHEMA: &str = "phase-order-perfsuite-v1";

/// One pinned workload's measurements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadReport {
    /// Stable workload name, e.g. `enumerate/bitcount::bit_count/serial`.
    pub name: String,
    /// Wall time of each trial, nanoseconds, in run order.
    pub trials_ns: Vec<u64>,
    /// Deterministic telemetry counters after a trial (identical for
    /// every trial by construction — perfsuite verifies that).
    pub counters: Vec<(String, u64)>,
}

impl WorkloadReport {
    /// Median trial wall time (mean of the middle two for even counts).
    pub fn median_ns(&self) -> u64 {
        let mut v = self.trials_ns.clone();
        v.sort_unstable();
        match v.len() {
            0 => 0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2,
        }
    }

    /// Interquartile range of the trial wall times (nearest-rank
    /// quartiles) — the noise figure printed next to each median.
    pub fn iqr_ns(&self) -> u64 {
        let mut v = self.trials_ns.clone();
        v.sort_unstable();
        if v.len() < 2 {
            return 0;
        }
        let q1 = v[v.len() / 4];
        let q3 = v[(3 * v.len()) / 4];
        q3.saturating_sub(q1)
    }
}

/// A full perf-suite report: what `BENCH_<label>.json` holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PerfReport {
    /// Report label (the `<label>` of `BENCH_<label>.json`).
    pub label: String,
    /// Median wall time of the fixed calibration busy-loop on the
    /// machine that produced this report, nanoseconds.
    pub calibration_ns: u64,
    /// Per-workload measurements, in suite order.
    pub workloads: Vec<WorkloadReport>,
}

impl PerfReport {
    /// Renders the report as deterministic-schema JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"label\": \"{}\",\n", self.label));
        out.push_str(&format!("  \"calibration_ns\": {},\n", self.calibration_ns));
        out.push_str("  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", w.name));
            out.push_str(&format!("      \"median_ns\": {},\n", w.median_ns()));
            out.push_str(&format!("      \"iqr_ns\": {},\n", w.iqr_ns()));
            let trials: Vec<String> = w.trials_ns.iter().map(u64::to_string).collect();
            out.push_str(&format!("      \"trials_ns\": [{}],\n", trials.join(", ")));
            out.push_str("      \"counters\": [\n");
            for (j, (name, value)) in w.counters.iter().enumerate() {
                out.push_str(&format!("        [\"{name}\", {value}]"));
                if j + 1 < w.counters.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str("      ]\n    }");
            if i + 1 < self.workloads.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report emitted by [`PerfReport::to_json`].
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON, a missing or unknown `schema` tag, and
    /// structurally wrong documents.
    pub fn parse(src: &str) -> Result<PerfReport, String> {
        let doc = Value::parse(src)?;
        let schema = doc.get("schema").and_then(Value::as_str).ok_or("missing schema tag")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema `{schema}` (expected `{SCHEMA}`)"));
        }
        let label = doc.get("label").and_then(Value::as_str).ok_or("missing label")?.to_owned();
        let calibration_ns =
            doc.get("calibration_ns").and_then(Value::as_u64).ok_or("missing calibration_ns")?;
        let mut workloads = Vec::new();
        for w in doc.get("workloads").and_then(Value::as_arr).ok_or("missing workloads")? {
            let name = w.get("name").and_then(Value::as_str).ok_or("workload missing name")?;
            let trials_ns = w
                .get("trials_ns")
                .and_then(Value::as_arr)
                .ok_or("workload missing trials_ns")?
                .iter()
                .map(|t| t.as_u64().ok_or("bad trial value"))
                .collect::<Result<Vec<_>, _>>()?;
            let mut counters = Vec::new();
            for pair in
                w.get("counters").and_then(Value::as_arr).ok_or("workload missing counters")?
            {
                let pair = pair.as_arr().ok_or("counter entry is not a pair")?;
                match pair {
                    [k, v] => counters.push((
                        k.as_str().ok_or("bad counter name")?.to_owned(),
                        v.as_u64().ok_or("bad counter value")?,
                    )),
                    _ => return Err("counter entry is not a pair".into()),
                }
            }
            workloads.push(WorkloadReport { name: name.to_owned(), trials_ns, counters });
        }
        Ok(PerfReport { label, calibration_ns, workloads })
    }
}

/// Compares a fresh report against the pinned baseline; returns one
/// human-readable failure per violation (empty = gate passes).
///
/// Counter drift of any size fails. Wall-median regressions beyond
/// `threshold_percent` fail, after scaling the baseline by the two
/// reports' calibration ratio; improvements never fail. Workloads
/// missing from the current report fail; *extra* current workloads are
/// ignored (adding coverage must not break the gate until the baseline
/// is re-pinned).
pub fn compare(baseline: &PerfReport, current: &PerfReport, threshold_percent: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let scale = current.calibration_ns as f64 / baseline.calibration_ns.max(1) as f64;
    for b in &baseline.workloads {
        let Some(c) = current.workloads.iter().find(|w| w.name == b.name) else {
            failures.push(format!("{}: workload missing from current report", b.name));
            continue;
        };
        for (name, bv) in &b.counters {
            match c.counters.iter().find(|(n, _)| n == name) {
                Some((_, cv)) if cv == bv => {}
                Some((_, cv)) => failures.push(format!(
                    "{}: deterministic counter {name} drifted: baseline {bv}, current {cv}",
                    b.name
                )),
                None => failures.push(format!("{}: deterministic counter {name} missing", b.name)),
            }
        }
        for (name, _) in &c.counters {
            if !b.counters.iter().any(|(n, _)| n == name) {
                failures.push(format!(
                    "{}: counter {name} absent from baseline (re-pin bench/baseline.json)",
                    b.name
                ));
            }
        }
        let allowed = b.median_ns() as f64 * scale * (1.0 + threshold_percent / 100.0);
        let got = c.median_ns() as f64;
        if got > allowed {
            failures.push(format!(
                "{}: wall median {:.2}ms exceeds {:.2}ms \
                 (baseline {:.2}ms × {:.2} calibration × {}% threshold)",
                b.name,
                got / 1e6,
                allowed / 1e6,
                b.median_ns() as f64 / 1e6,
                scale,
                threshold_percent
            ));
        }
    }
    failures
}

/// Renders a baseline-vs-current delta as a GitHub-flavored markdown
/// table — what the perf-gate job appends to its step summary, so a
/// regression (or a healthy margin) is readable in the run page without
/// downloading `BENCH_*.json`. One row per current workload: current
/// median, calibration-scaled baseline median, the wall delta against
/// that scaled figure, and whether the deterministic counters match.
/// Workloads absent from the baseline render a `new` row (the gate
/// ignores them until the baseline is re-pinned).
pub fn delta_table(baseline: &PerfReport, current: &PerfReport) -> String {
    let scale = current.calibration_ns as f64 / baseline.calibration_ns.max(1) as f64;
    let mut out = String::with_capacity(2048);
    out.push_str("### Perf gate: baseline vs current\n\n");
    out.push_str(&format!(
        "Baseline `{}` scaled by calibration ratio {scale:.2} \
         ({} ns → {} ns busy-loop median).\n\n",
        baseline.label, baseline.calibration_ns, current.calibration_ns
    ));
    out.push_str("| workload | baseline (scaled) | current | Δ wall | counters |\n");
    out.push_str("|---|---:|---:|---:|---|\n");
    for c in &current.workloads {
        let Some(b) = baseline.workloads.iter().find(|b| b.name == c.name) else {
            out.push_str(&format!(
                "| `{}` | — | {:.2}ms | new | — |\n",
                c.name,
                c.median_ns() as f64 / 1e6
            ));
            continue;
        };
        let scaled = b.median_ns() as f64 * scale;
        let got = c.median_ns() as f64;
        let delta = (got - scaled) / scaled.max(1.0) * 100.0;
        let drifted = b.counters != c.counters;
        out.push_str(&format!(
            "| `{}` | {:.2}ms | {:.2}ms | {delta:+.1}% | {} |\n",
            c.name,
            scaled / 1e6,
            got / 1e6,
            if drifted { "**DRIFTED**" } else { "match" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(label: &str, cal: u64, trials: &[u64], counters: &[(&str, u64)]) -> PerfReport {
        PerfReport {
            label: label.into(),
            calibration_ns: cal,
            workloads: vec![WorkloadReport {
                name: "w".into(),
                trials_ns: trials.to_vec(),
                counters: counters.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            }],
        }
    }

    #[test]
    fn median_and_iqr() {
        let w = WorkloadReport {
            name: "w".into(),
            trials_ns: vec![50, 10, 30, 20, 40],
            counters: vec![],
        };
        assert_eq!(w.median_ns(), 30);
        assert_eq!(w.iqr_ns(), 40 - 20);
        let even = WorkloadReport { name: "w".into(), trials_ns: vec![10, 20], counters: vec![] };
        assert_eq!(even.median_ns(), 15);
    }

    #[test]
    fn json_round_trips() {
        let r = report("t", 1000, &[5, 7, 6], &[("a.b", 42), ("c.d", 0)]);
        let parsed = PerfReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        assert!(PerfReport::parse("{}").is_err());
        assert!(PerfReport::parse(r#"{"schema": "bogus"}"#).is_err());
    }

    #[test]
    fn identical_reports_pass() {
        let r = report("t", 1000, &[100], &[("n", 5)]);
        assert!(compare(&r, &r, 25.0).is_empty());
    }

    #[test]
    fn counter_drift_fails_regardless_of_threshold() {
        let base = report("b", 1000, &[100], &[("n", 5)]);
        let cur = report("c", 1000, &[100], &[("n", 6)]);
        let failures = compare(&base, &cur, 1000.0);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("drifted"), "{failures:?}");
    }

    #[test]
    fn wall_regression_beyond_threshold_fails() {
        let base = report("b", 1000, &[100], &[]);
        assert!(compare(&base, &report("c", 1000, &[124], &[]), 25.0).is_empty());
        let failures = compare(&base, &report("c", 1000, &[126], &[]), 25.0);
        assert_eq!(failures.len(), 1, "{failures:?}");
        // Getting faster is never a failure.
        assert!(compare(&base, &report("c", 1000, &[10], &[]), 25.0).is_empty());
    }

    #[test]
    fn calibration_ratio_rescales_the_wall_threshold() {
        // Current machine is 2× slower (calibration 2000 vs 1000): a 2×
        // wall time is within budget, 3× is not.
        let base = report("b", 1000, &[100], &[]);
        assert!(compare(&base, &report("c", 2000, &[240], &[]), 25.0).is_empty());
        assert_eq!(compare(&base, &report("c", 2000, &[300], &[]), 25.0).len(), 1);
    }

    #[test]
    fn delta_table_scales_flags_drift_and_marks_new_workloads() {
        // Current machine 2× slower: a 2× wall median is a 0% delta.
        let base = report("pinned", 1000, &[100], &[("n", 5)]);
        let mut cur = report("ci", 2000, &[200], &[("n", 6)]);
        cur.workloads.push(WorkloadReport {
            name: "extra".into(),
            trials_ns: vec![50],
            counters: vec![],
        });
        let t = delta_table(&base, &cur);
        assert!(t.contains("| `w` |"), "{t}");
        assert!(t.contains("+0.0%"), "{t}");
        assert!(t.contains("**DRIFTED**"), "{t}");
        assert!(t.contains("| `extra` | — |"), "{t}");
        cur.workloads[0].counters = vec![("n".into(), 5)];
        assert!(delta_table(&base, &cur).contains("| match |"));
    }

    #[test]
    fn missing_workloads_fail_extra_ones_do_not() {
        let base = report("b", 1000, &[100], &[]);
        let mut cur = report("c", 1000, &[100], &[]);
        cur.workloads[0].name = "other".into();
        let failures = compare(&base, &cur, 25.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"));
        // Extra workload in current only: fine.
        let mut wide = base.clone();
        wide.workloads.push(WorkloadReport {
            name: "new".into(),
            trials_ns: vec![1],
            counters: vec![],
        });
        assert!(compare(&base, &wide, 25.0).is_empty());
    }
}
