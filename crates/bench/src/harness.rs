//! Minimal in-tree micro-benchmark harness.
//!
//! The workspace's hermetic build policy (see `DESIGN.md`) forbids
//! registry crates, so the `[[bench]]` targets use this tiny
//! criterion-shaped harness instead of `criterion` itself: named groups,
//! a substring filter taken from the command line (the argument `cargo
//! bench -- <filter>` forwards), one warmup run, and a fixed number of
//! timed samples reported as min / median / mean.
//!
//! The numbers are honest wall-clock measurements but carry none of
//! criterion's statistical machinery — good enough for the order-of-
//! magnitude comparisons the paper's experiments need (prefix sharing vs
//! naive replay, the register-allocator and skip-shortcut ablations).

use std::time::{Duration, Instant};

/// Top-level harness: parses the filter and hosts benchmark groups.
pub struct Harness {
    filter: Option<String>,
}

impl Harness {
    /// Builds a harness from the process arguments. Flags (anything
    /// starting with `-`, e.g. the `--bench` cargo passes) are ignored;
    /// the first positional argument is a substring filter on the full
    /// `group/benchmark` name.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Harness { filter }
    }

    /// Opens a named benchmark group.
    pub fn group(&self, name: impl Into<String>) -> Group<'_> {
        Group { harness: self, name: name.into(), sample_size: 20 }
    }
}

/// A named group of benchmarks sharing a sample size.
pub struct Group<'h> {
    harness: &'h Harness,
    name: String,
    sample_size: usize,
}

impl Group<'_> {
    /// Sets the number of timed samples per benchmark (default 20).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark and reports it, returning the median sample
    /// (`None` when the filter excluded it). The closure receives a
    /// [`Bencher`] and must call [`Bencher::iter`] exactly once.
    pub fn bench_function(
        &mut self,
        id: impl AsRef<str>,
        mut f: impl FnMut(&mut Bencher),
    ) -> Option<Duration> {
        let full = if self.name.is_empty() {
            id.as_ref().to_owned()
        } else {
            format!("{}/{}", self.name, id.as_ref())
        };
        if let Some(filter) = &self.harness.filter {
            if !full.contains(filter.as_str()) {
                return None;
            }
        }
        let mut b = Bencher { samples: Vec::new(), sample_size: self.sample_size };
        f(&mut b);
        Some(report(&full, &b.samples))
    }

    /// Ends the group (kept for criterion-API familiarity; reporting is
    /// incremental, so this is a no-op).
    pub fn finish(self) {}
}

/// Timing driver handed to each benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `f`: one untimed warmup call, then `sample_size` timed
    /// calls. The result of every call is passed through
    /// [`std::hint::black_box`] so the computation cannot be elided.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        std::hint::black_box(f());
        self.samples.clear();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            std::hint::black_box(f());
            self.samples.push(t.elapsed());
        }
    }
}

fn report(name: &str, samples: &[Duration]) -> Duration {
    if samples.is_empty() {
        println!("{name:<48} (no samples — closure never called iter)");
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
    println!(
        "{name:<48} min {:>10}   med {:>10}   mean {:>10}   ({} samples)",
        fmt_duration(sorted[0]),
        fmt_duration(median),
        fmt_duration(mean),
        sorted.len()
    );
    median
}

/// Renders a duration with an adaptive unit (ns / µs / ms / s).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_samples_is_reported() {
        let h = Harness { filter: None };
        let mut g = h.group("t");
        g.sample_size(5);
        let med = g.bench_function("noop", |b| b.iter(|| 1 + 1)).unwrap();
        assert!(med < Duration::from_millis(50));
    }

    #[test]
    fn filter_excludes_benchmarks() {
        let h = Harness { filter: Some("match_me".into()) };
        let mut g = h.group("t");
        assert!(g.bench_function("other", |b| b.iter(|| ())).is_none());
        assert!(g.bench_function("match_me_too", |b| b.iter(|| ())).is_some());
    }

    #[test]
    fn duration_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5ns");
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5.00µs");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(5)), "5.00s");
    }
}
