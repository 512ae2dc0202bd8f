//! Run-wide telemetry: a lock-free registry of atomic counters, gauges
//! and fixed-bucket histograms wired through the enumeration core, the
//! campaign driver and the oracle.
//!
//! The ROADMAP's north star is an engine that runs "as fast as the
//! hardware allows" — which is unfalsifiable without numbers. This
//! module provides the numbers, under two hard constraints:
//!
//! * **Negligible overhead.** Every metric is a plain `AtomicU64`
//!   updated with `Relaxed` ordering; the hot instrumentation points sit
//!   at *merge* granularity (one parent expansion ≈ fifteen phase
//!   applications, each a function clone plus a fixpoint run), so the
//!   registry adds a handful of uncontended atomic adds per ~10⁵ ns of
//!   real work. No locks, no allocation, no branching on a "metrics
//!   enabled" flag — the registry is always on.
//! * **Deterministic schema, flagged determinism.** A snapshot always
//!   contains the same metrics in the same order with the same JSON
//!   shape. Each metric is additionally marked `deterministic`: counters
//!   of *logical* events (nodes inserted, phases attempted, fingerprint
//!   hits…) are bit-identical for any job count and machine and are
//!   gated exactly by the perf baseline harness; wall-clock histograms
//!   and scheduling artifacts (steal counts) are not, and are reported
//!   for observability only.
//!
//! The registry is a process-wide singleton ([`global`]) so the
//! enumeration core needs no API change to be instrumented; harnesses
//! that measure several workloads in one process ([`Telemetry::reset`])
//! zero it between runs. Snapshots serialize to a versioned JSON
//! document ([`Snapshot::to_json`], schema `phase-order-telemetry-v1`)
//! that `vpoc --metrics <path>` writes and the `perfsuite` comparator
//! consumes.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Histogram bucket upper bounds in nanoseconds: powers of four from
/// 1 µs (2¹⁰ ns) to ~4.3 s (2³² ns), plus an implicit overflow bucket.
/// One fixed latency scale for every histogram keeps the schema
/// deterministic and snapshots trivially comparable.
pub const HIST_BOUNDS_NS: [u64; 12] = [
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
    1 << 32,
];

/// Bucket count: one per bound plus the overflow bucket.
pub const HIST_BUCKETS: usize = HIST_BOUNDS_NS.len() + 1;

/// A monotonically increasing event count.
pub struct Counter {
    name: &'static str,
    deterministic: bool,
    value: AtomicU64,
}

impl Counter {
    const fn new(name: &'static str, deterministic: bool) -> Counter {
        Counter { name, deterministic, value: AtomicU64::new(0) }
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time value: set to the latest observation, or raised to a
/// running maximum (peak tracking).
pub struct Gauge {
    name: &'static str,
    deterministic: bool,
    value: AtomicU64,
}

impl Gauge {
    const fn new(name: &'static str, deterministic: bool) -> Gauge {
        Gauge { name, deterministic, value: AtomicU64::new(0) }
    }

    /// Overwrites the gauge with `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if larger (peak tracking).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket latency histogram over [`HIST_BOUNDS_NS`]. Histograms
/// record wall time, so they are never deterministic.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation of `ns` nanoseconds.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        let i = HIST_BOUNDS_NS.iter().position(|&b| ns <= b).unwrap_or(HIST_BOUNDS_NS.len());
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one observed duration.
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.observe_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// The full metric inventory. Fields group by subsystem; names carry the
/// same `subsystem.metric` prefix in snapshots.
pub struct Telemetry {
    // -- enumeration core (shared by `enumerate` and the campaign) --
    /// Enumerations started via [`crate::enumerate()`].
    pub searches: Counter,
    /// Enumerations that hit a `max_nodes`/`max_level_width` bound.
    pub searches_truncated: Counter,
    /// Levels merged.
    pub levels: Counter,
    /// Parent expansions merged (one per frontier instance per level).
    pub parents_expanded: Counter,
    /// Optimization phases attempted, dormant ones included.
    pub phases_attempted: Counter,
    /// Attempts that changed the representation.
    pub active_attempts: Counter,
    /// Attempts pruned as dormant (Section 4.1).
    pub dormant_prunes: Counter,
    /// Active attempts merged into an existing node — the identical-
    /// instance prunes of Section 4.2 (fingerprint-cache hits).
    pub fingerprint_hits: Counter,
    /// Attempts proven dormant by a `Facts` prefilter before running the
    /// phase — a subset of `dormant_prunes` that cost neither a clone nor
    /// a phase execution. Counted at merge time, so it is deterministic
    /// for any job count (even under truncation).
    pub prefilter_dormant: Counter,
    /// Distinct instances inserted (fingerprint-cache misses).
    pub nodes_inserted: Counter,
    /// Warm scratch-buffer restores: attempts whose candidate was
    /// materialized into an already-populated per-worker scratch
    /// `Function` (no fresh clone). Scheduling-dependent: worker counts
    /// and discovery stealing change how often buffers start cold.
    pub scratch_reuse_hits: Counter,
    /// Canonical bytes serialized into an already-warm canonicalizer
    /// buffer (allocation-free fingerprints). Scheduling-dependent for
    /// the same reason as `scratch_reuse_hits`.
    pub canon_bytes_reused: Counter,
    /// Fingerprint-fresh instances merged by the semantic tier
    /// (`--merge-tier semantic`): their signature matched an established
    /// class. Counted at merge time, deterministic for any job count.
    pub sem_merge_hits: Counter,
    /// Signature hits rejected by paranoid escalation — the battery
    /// collided on behaviorally different code (expected 0).
    pub sem_sig_collisions: Counter,
    /// Signature hits escalated to extended-battery differential
    /// re-execution (paranoid mode only).
    pub sem_escalations: Counter,
    /// Merged instances whose expansion the pruned tier skipped
    /// (signature matched *and* active-phase mask subsumed by the
    /// representative's; always 0 outside `--merge-tier
    /// semantic-pruned`). Counted at merge time, deterministic for any
    /// job count.
    pub sem_subsumption_prunes: Counter,
    /// Merged instances the pruned tier expanded anyway because the
    /// mask was not subsumed — the recorded `sem_pruned_unsound_skip`
    /// candidates. Deterministic for any job count.
    pub sem_mask_fallbacks: Counter,
    /// Signatures the semantic tiers computed by simulating the base
    /// battery: the first instance of each control flow a search signs
    /// (one counted battery), plus every instance of a flow that cannot
    /// be inferred (its first run trapped, or the inferred count passes
    /// the fuel). Counted at merge time, deterministic for any job count.
    pub sem_cf_simulations: Counter,
    /// Signatures inferred from a control flow's counted battery without
    /// simulating. Deterministic for any job count.
    pub sem_cf_inferred: Counter,
    /// Peak frontier width seen by any level of any search.
    pub peak_frontier: Gauge,
    /// Wall time per merged level, from the level's first claimed parent
    /// to the end of its merge, for every search the driver runs
    /// (`enumerate` calls and campaign functions alike).
    pub level_wall_ns: Histogram,

    // -- campaign driver --
    /// Functions taken off a campaign task list.
    pub campaign_functions_started: Counter,
    /// Functions fully explored (or truncated) and recorded.
    pub campaign_functions_completed: Counter,
    /// Recorded functions whose search was truncated by a bound.
    pub campaign_functions_truncated: Counter,
    /// Searches suspended at a level boundary with their frontier
    /// persisted (budget exhausted or campaign cancelled) — how many
    /// depends on the per-request budget, so not gated.
    pub campaign_functions_suspended: Counter,
    /// Searches restored from a persisted frontier and deepened.
    pub campaign_functions_deepened: Counter,
    /// Parent expansions claimed from the shared pool.
    pub campaign_claims: Counter,
    /// Claims served from a function other than the earliest in-flight
    /// one — lanes stolen by later functions (scheduling-dependent).
    pub campaign_steals: Counter,
    /// Wall time each level barrier holds the scheduler lock to merge the
    /// level's records into its space (signing the fingerprint-fresh
    /// candidates, on a semantic tier).
    pub merge_wall_ns: Histogram,
    /// Checkpoint rewrites of the result store.
    pub store_flushes: Counter,
    /// Size of the last flushed store, in bytes; for a sharded memo
    /// daemon, the summed size of all its shard files.
    pub store_bytes: Gauge,
    /// Wall time per store flush (serialize + write + rename).
    pub store_flush_wall_ns: Histogram,

    // -- memo service (`vpoc serve`) --
    /// Requests accepted off the socket (any type).
    pub serve_requests: Counter,
    /// Queries answered from the memo without spawning workers.
    pub serve_warm_hits: Counter,
    /// Queries that ran (or deepened) an enumeration.
    pub serve_cold_runs: Counter,
    /// Queries rejected by admission control (queue full).
    pub serve_rejected: Counter,
    /// Duplicate in-flight queries that attached to an already-running
    /// enumeration instead of starting their own.
    pub serve_dedup_attached: Counter,
    /// Total merged parent expansions the daemon paid for across all
    /// cold runs — with in-flight dedup, N identical concurrent queries
    /// raise this by one enumeration's worth, not N.
    pub serve_cold_expanded: Counter,
    /// Streamed `Progress` frames written to cold-query clients.
    pub serve_progress_frames: Counter,

    // -- differential oracle --
    /// Distinct instances executed on the battery.
    pub oracle_instances: Counter,
    /// Fingerprint-merged paths rematerialized and re-checked.
    pub oracle_merged_paths: Counter,
    /// Total simulator executions.
    pub oracle_simulations: Counter,
    /// Battery inputs accepted (baseline runs cleanly).
    pub oracle_battery_inputs: Counter,
    /// Verification failures reported.
    pub oracle_findings: Counter,

    // -- quotient loss audit (`vpoc audit-quotient`) --
    /// Functions audited (pruned and annotation tiers run side by side).
    pub audit_functions: Counter,
    /// Behavioral classes reachable only through pruned subtrees —
    /// unsound prunes (expected 0).
    pub audit_unsound_prunes: Counter,
}

/// A borrowed reference to any metric, for uniform iteration.
pub enum MetricRef<'a> {
    /// A [`Counter`].
    Counter(&'a Counter),
    /// A [`Gauge`].
    Gauge(&'a Gauge),
    /// A [`Histogram`].
    Histogram(&'a Histogram),
}

impl Telemetry {
    const fn new() -> Telemetry {
        Telemetry {
            searches: Counter::new("enumerate.searches", true),
            searches_truncated: Counter::new("enumerate.searches_truncated", true),
            levels: Counter::new("enumerate.levels", true),
            parents_expanded: Counter::new("enumerate.parents_expanded", true),
            phases_attempted: Counter::new("enumerate.phases_attempted", true),
            active_attempts: Counter::new("enumerate.active_attempts", true),
            dormant_prunes: Counter::new("enumerate.dormant_prunes", true),
            fingerprint_hits: Counter::new("enumerate.fingerprint_hits", true),
            prefilter_dormant: Counter::new("enumerate.prefilter_dormant", true),
            nodes_inserted: Counter::new("enumerate.nodes_inserted", true),
            scratch_reuse_hits: Counter::new("enumerate.scratch_reuse_hits", false),
            canon_bytes_reused: Counter::new("enumerate.canon_bytes_reused", false),
            sem_merge_hits: Counter::new("enumerate.sem_merge_hits", true),
            sem_sig_collisions: Counter::new("enumerate.sem_sig_collisions", true),
            sem_escalations: Counter::new("enumerate.sem_escalations", true),
            sem_subsumption_prunes: Counter::new("enumerate.sem_subsumption_prunes", true),
            sem_mask_fallbacks: Counter::new("enumerate.sem_mask_fallbacks", true),
            sem_cf_simulations: Counter::new("semantic.cf_simulations", true),
            sem_cf_inferred: Counter::new("semantic.cf_inferred", true),
            peak_frontier: Gauge::new("enumerate.peak_frontier", true),
            level_wall_ns: Histogram::new("enumerate.level_wall_ns"),
            campaign_functions_started: Counter::new("campaign.functions_started", true),
            campaign_functions_completed: Counter::new("campaign.functions_completed", true),
            campaign_functions_truncated: Counter::new("campaign.functions_truncated", true),
            campaign_functions_suspended: Counter::new("campaign.functions_suspended", false),
            campaign_functions_deepened: Counter::new("campaign.functions_deepened", false),
            campaign_claims: Counter::new("campaign.claims", true),
            campaign_steals: Counter::new("campaign.steals", false),
            merge_wall_ns: Histogram::new("campaign.merge_wall_ns"),
            store_flushes: Counter::new("campaign.store_flushes", true),
            store_bytes: Gauge::new("campaign.store_bytes", true),
            store_flush_wall_ns: Histogram::new("campaign.store_flush_wall_ns"),
            serve_requests: Counter::new("serve.requests", false),
            serve_warm_hits: Counter::new("serve.warm_hits", false),
            serve_cold_runs: Counter::new("serve.cold_runs", false),
            serve_rejected: Counter::new("serve.rejected", false),
            serve_dedup_attached: Counter::new("serve.dedup_attached", false),
            serve_cold_expanded: Counter::new("serve.cold_expanded", false),
            serve_progress_frames: Counter::new("serve.progress_frames", false),
            oracle_instances: Counter::new("oracle.instances", true),
            oracle_merged_paths: Counter::new("oracle.merged_paths", true),
            oracle_simulations: Counter::new("oracle.simulations", true),
            oracle_battery_inputs: Counter::new("oracle.battery_inputs", true),
            oracle_findings: Counter::new("oracle.findings", true),
            audit_functions: Counter::new("audit.functions", true),
            audit_unsound_prunes: Counter::new("audit.unsound_prunes", true),
        }
    }

    /// Every metric, in the fixed snapshot order.
    pub fn metrics(&self) -> Vec<MetricRef<'_>> {
        use MetricRef::{Counter as C, Gauge as G, Histogram as H};
        vec![
            C(&self.searches),
            C(&self.searches_truncated),
            C(&self.levels),
            C(&self.parents_expanded),
            C(&self.phases_attempted),
            C(&self.active_attempts),
            C(&self.dormant_prunes),
            C(&self.fingerprint_hits),
            C(&self.prefilter_dormant),
            C(&self.nodes_inserted),
            C(&self.scratch_reuse_hits),
            C(&self.canon_bytes_reused),
            C(&self.sem_merge_hits),
            C(&self.sem_sig_collisions),
            C(&self.sem_escalations),
            C(&self.sem_subsumption_prunes),
            C(&self.sem_mask_fallbacks),
            C(&self.sem_cf_simulations),
            C(&self.sem_cf_inferred),
            G(&self.peak_frontier),
            H(&self.level_wall_ns),
            C(&self.campaign_functions_started),
            C(&self.campaign_functions_completed),
            C(&self.campaign_functions_truncated),
            C(&self.campaign_functions_suspended),
            C(&self.campaign_functions_deepened),
            C(&self.campaign_claims),
            C(&self.campaign_steals),
            H(&self.merge_wall_ns),
            C(&self.store_flushes),
            G(&self.store_bytes),
            H(&self.store_flush_wall_ns),
            C(&self.serve_requests),
            C(&self.serve_warm_hits),
            C(&self.serve_cold_runs),
            C(&self.serve_rejected),
            C(&self.serve_dedup_attached),
            C(&self.serve_cold_expanded),
            C(&self.serve_progress_frames),
            C(&self.oracle_instances),
            C(&self.oracle_merged_paths),
            C(&self.oracle_simulations),
            C(&self.oracle_battery_inputs),
            C(&self.oracle_findings),
            C(&self.audit_functions),
            C(&self.audit_unsound_prunes),
        ]
    }

    /// Whether this is the process-wide registry ([`global`]), the only
    /// one the process-global [`vpo_sim::stats`] counters belong to.
    fn is_global(&self) -> bool {
        std::ptr::eq(self, global())
    }

    /// Zeroes every metric, including — on the [`global`] registry — the
    /// `vpo-sim` engine counters it folds into its snapshots. Intended
    /// for harnesses measuring several workloads in one process;
    /// concurrent updates during the reset land in whichever side of it
    /// they land, so reset only between runs.
    pub fn reset(&self) {
        for m in self.metrics() {
            match m {
                MetricRef::Counter(c) => c.reset(),
                MetricRef::Gauge(g) => g.reset(),
                MetricRef::Histogram(h) => h.reset(),
            }
        }
        if self.is_global() {
            vpo_sim::stats::reset();
        }
    }

    /// Captures the current value of every metric, appending the
    /// simulator-engine counters maintained by [`vpo_sim::stats`]:
    /// `sim.blocks_lowered` and `sim.lower_cache_hits` depend on how the
    /// oracle split work across machines (non-deterministic), while
    /// `sim.batched_retires` is a pure function of the simulated
    /// instruction streams (deterministic). Those counters are
    /// process-global, so only the [`global`] registry reports them; any
    /// other registry reports them as zero, keeping the schema fixed.
    pub fn snapshot(&self) -> Snapshot {
        let mut metrics: Vec<MetricSnapshot> = self
            .metrics()
            .into_iter()
            .map(|m| match m {
                MetricRef::Counter(c) => MetricSnapshot {
                    name: c.name,
                    deterministic: c.deterministic,
                    value: MetricValue::Counter(c.get()),
                },
                MetricRef::Gauge(g) => MetricSnapshot {
                    name: g.name,
                    deterministic: g.deterministic,
                    value: MetricValue::Gauge(g.get()),
                },
                MetricRef::Histogram(h) => MetricSnapshot {
                    name: h.name,
                    deterministic: false,
                    value: MetricValue::Histogram {
                        count: h.count(),
                        sum_ns: h.sum_ns(),
                        buckets: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                    },
                },
            })
            .collect();
        let sim = if self.is_global() { vpo_sim::stats::snapshot() } else { Default::default() };
        metrics.push(MetricSnapshot {
            name: "sim.blocks_lowered",
            deterministic: false,
            value: MetricValue::Counter(sim.blocks_lowered),
        });
        metrics.push(MetricSnapshot {
            name: "sim.lower_cache_hits",
            deterministic: false,
            value: MetricValue::Counter(sim.lower_cache_hits),
        });
        metrics.push(MetricSnapshot {
            name: "sim.batched_retires",
            deterministic: true,
            value: MetricValue::Counter(sim.batched_retires),
        });
        Snapshot { metrics }
    }
}

/// The process-wide registry.
static GLOBAL: Telemetry = Telemetry::new();

/// The process-wide registry instance the subsystems report into.
pub fn global() -> &'static Telemetry {
    &GLOBAL
}

/// One metric's captured value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram contents; `buckets` aligns with [`HIST_BOUNDS_NS`] plus
    /// the overflow bucket.
    Histogram {
        /// Total observations.
        count: u64,
        /// Sum of observed nanoseconds.
        sum_ns: u64,
        /// Per-bucket observation counts.
        buckets: Vec<u64>,
    },
}

/// One metric in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// Registry name (`subsystem.metric`).
    pub name: &'static str,
    /// Whether the value is bit-identical for any job count and machine.
    pub deterministic: bool,
    /// Captured value.
    pub value: MetricValue,
}

/// A point-in-time capture of the whole registry, in fixed order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// All metrics, in registry order.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// Looks up a counter or gauge value by name.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find(|m| m.name == name).and_then(|m| match m.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(v),
            MetricValue::Histogram { .. } => None,
        })
    }

    /// All deterministic scalar metrics as `(name, value)` pairs — the
    /// exact set the perf-regression gate compares against its baseline.
    pub fn deterministic_values(&self) -> Vec<(&'static str, u64)> {
        self.metrics
            .iter()
            .filter(|m| m.deterministic)
            .filter_map(|m| match m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => Some((m.name, v)),
                MetricValue::Histogram { .. } => None,
            })
            .collect()
    }

    /// Renders the snapshot as the versioned JSON document
    /// (`phase-order-telemetry-v1`). The schema is deterministic: same
    /// metrics, same order, same keys on every run.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"phase-order-telemetry-v1\",\n  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let det = if m.deterministic { "true" } else { "false" };
            out.push_str("    {\"name\": \"");
            out.push_str(m.name);
            out.push_str("\", ");
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(
                        "\"kind\": \"counter\", \"deterministic\": {det}, \"value\": {v}"
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "\"kind\": \"gauge\", \"deterministic\": {det}, \"value\": {v}"
                    ));
                }
                MetricValue::Histogram { count, sum_ns, buckets } => {
                    out.push_str(&format!(
                        "\"kind\": \"histogram\", \"deterministic\": {det}, \"count\": {count}, \"sum_ns\": {sum_ns}, \"bounds_ns\": ["
                    ));
                    for (j, b) in HIST_BOUNDS_NS.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&b.to_string());
                    }
                    out.push_str("], \"buckets\": [");
                    for (j, b) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&b.to_string());
                    }
                    out.push(']');
                }
            }
            out.push('}');
            if i + 1 < self.metrics.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global registry is process-wide and tests run concurrently, so
    // unit tests operate on private fresh registries instead.
    fn fresh() -> Telemetry {
        Telemetry::new()
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let t = fresh();
        t.nodes_inserted.inc();
        t.nodes_inserted.add(4);
        assert_eq!(t.nodes_inserted.get(), 5);
        t.peak_frontier.set_max(7);
        t.peak_frontier.set_max(3);
        assert_eq!(t.peak_frontier.get(), 7);
        t.store_bytes.set(100);
        t.store_bytes.set(60);
        assert_eq!(t.store_bytes.get(), 60);
        t.reset();
        assert_eq!(t.nodes_inserted.get(), 0);
        assert_eq!(t.peak_frontier.get(), 0);
    }

    #[test]
    fn histogram_buckets_by_latency() {
        let t = fresh();
        t.level_wall_ns.observe_ns(500); // <= 1µs bucket
        t.level_wall_ns.observe_ns(1 << 11); // <= 4µs bucket
        t.level_wall_ns.observe_ns(u64::MAX); // overflow bucket
        t.level_wall_ns.observe(Duration::from_micros(2)); // <= 4µs bucket
        assert_eq!(t.level_wall_ns.count(), 4);
        let snap = t.snapshot();
        let m = snap.metrics.iter().find(|m| m.name == "enumerate.level_wall_ns").unwrap();
        let MetricValue::Histogram { count, buckets, .. } = &m.value else {
            panic!("level_wall_ns must snapshot as a histogram")
        };
        assert_eq!(*count, 4);
        assert_eq!(buckets.len(), HIST_BUCKETS);
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 2);
        assert_eq!(buckets[HIST_BUCKETS - 1], 1);
    }

    #[test]
    fn snapshot_schema_is_fixed() {
        let a = fresh().snapshot();
        let b = fresh().snapshot();
        assert_eq!(a.metrics.len(), b.metrics.len());
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.deterministic, y.deterministic);
        }
        // Names are unique and dot-qualified.
        let mut names: Vec<_> = a.metrics.iter().map(|m| m.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric names");
        assert!(a.metrics.iter().all(|m| m.name.contains('.')));
    }

    #[test]
    fn json_shape_is_stable_and_parseable_by_eye() {
        let t = fresh();
        t.searches.inc();
        t.level_wall_ns.observe_ns(2000);
        let json = t.snapshot().to_json();
        assert!(json.contains("\"schema\": \"phase-order-telemetry-v1\""));
        assert!(json.contains("{\"name\": \"enumerate.searches\", \"kind\": \"counter\", \"deterministic\": true, \"value\": 1}"));
        assert!(json.contains("\"kind\": \"histogram\""));
        assert!(json.contains("\"bounds_ns\": [1024,"));
        // Two snapshots of the same state render byte-identically.
        assert_eq!(json, t.snapshot().to_json());
    }

    #[test]
    fn deterministic_values_exclude_wall_and_steals() {
        let t = fresh();
        t.campaign_steals.add(9);
        t.level_wall_ns.observe_ns(5);
        t.nodes_inserted.add(2);
        t.prefilter_dormant.add(3);
        t.scratch_reuse_hits.add(11);
        t.canon_bytes_reused.add(1024);
        let det = t.snapshot().deterministic_values();
        assert!(det.iter().any(|(n, v)| *n == "enumerate.nodes_inserted" && *v == 2));
        assert!(det.iter().any(|(n, v)| *n == "enumerate.prefilter_dormant" && *v == 3));
        assert!(det.iter().all(|(n, _)| *n != "campaign.steals"));
        // Scratch/canon reuse depends on worker scheduling — never gated.
        assert!(det.iter().all(|(n, _)| *n != "enumerate.scratch_reuse_hits"));
        assert!(det.iter().all(|(n, _)| *n != "enumerate.canon_bytes_reused"));
        assert!(det.iter().all(|(n, _)| !n.ends_with("_ns")));
    }

    #[test]
    fn snapshot_value_lookup() {
        let t = fresh();
        t.oracle_simulations.add(42);
        let s = t.snapshot();
        assert_eq!(s.value("oracle.simulations"), Some(42));
        assert_eq!(s.value("enumerate.level_wall_ns"), None, "histograms have no scalar value");
        assert_eq!(s.value("nope"), None);
    }
}
