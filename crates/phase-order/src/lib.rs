//! Exhaustive optimization phase order space exploration.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Exhaustive Optimization Phase Order Space Exploration*, Kulkarni,
//! Whalley, Tyson, Davidson — CGO 2006): it enumerates **all function
//! instances** a compiler can produce by reordering its optimization
//! phases, then mines the resulting space.
//!
//! * [`mod@enumerate`] — the level-order search of Section 4, with the two
//!   pruning techniques that make it tractable: *dormant phase detection*
//!   (Section 4.1) and *identical function instance detection* via
//!   canonical fingerprints (Section 4.2), plus the prefix-sharing
//!   evaluation enhancements of Section 4.3 (Figure 6).
//! * [`space`] — the resulting weighted DAG of distinct function instances
//!   (Figure 7), with node weights counting the distinct active sequences
//!   through each node.
//! * [`interaction`] — the enabling / disabling / independence probability
//!   analyses of Tables 4, 5 and 6 (Section 5).
//! * [`prob`] — the probabilistic batch compiler of Section 6 (Figure 8),
//!   which uses those probabilities to dynamically choose the next phase
//!   and cuts compilation time to roughly a third of the conventional
//!   batch loop at comparable code quality (Table 7).
//! * [`oracle`] — the differential equivalence oracle: every distinct
//!   instance in an enumerated space is executed on a seeded input battery
//!   and checked against the unoptimized baseline, every fingerprint-merged
//!   duplicate is rematerialized and checked for byte-identical behaviour,
//!   and per-leaf dynamic instruction counts locate the best ordering
//!   (Section 7's measure).
//! * [`semantic`] — the second, *behavioral* merge tier
//!   (`--merge-tier semantic`): fingerprint-fresh instances are keyed by
//!   a behavioral signature (the oracle's seeded battery executed on the
//!   threaded simulator — observation plus dynamic count per entry —
//!   combined with a cheap structural key) and merged when signatures
//!   match, with paranoid mode escalating every hit to a differential
//!   re-execution over an extended battery before accepting it.
//! * [`search`] — the non-exhaustive searches of the surrounding
//!   literature (random, hill climbing, genetic), with the fingerprint
//!   redundancy detection of the authors' companion work, evaluated here
//!   against exhaustive ground truth.
//! * [`campaign`] — the resumable multi-function campaign driver: one
//!   work-stealing worker pool explores every function of a program (or
//!   a whole benchmark suite), checkpointing each completed function to
//!   an on-disk result store ([`campaign::store`]) so an interrupted
//!   campaign resumes exactly where it stopped; each function's result
//!   is one [`campaign::store::FunctionRecord`], which also renders its
//!   Table-3 row. Progress streams
//!   through the [`campaign::Observer`] trait.
//! * [`telemetry`] — the lock-free metrics registry wired through all of
//!   the above: nodes expanded, fingerprint-cache hits, prunes, steal
//!   counts, level wall times, store flush latency…, snapshotted to a
//!   deterministic-schema JSON document (`vpoc … --metrics <path>`) and
//!   gated against a pinned baseline by the `perfsuite` harness.
//!
//! # Example
//!
//! Exhaustively enumerate a small function's phase-order space:
//!
//! ```
//! use phase_order::enumerate::{enumerate, Config};
//! use vpo_opt::Target;
//!
//! let program = vpo_frontend::compile(
//!     "int square(int x) { return x * x; }",
//! ).unwrap();
//! let e = enumerate(&program.functions[0], &Target::default(), &Config::default());
//! assert!(e.outcome.is_complete());
//! // Several distinct function instances exist, far fewer than the 15^n
//! // attempted orderings.
//! assert!(e.space.len() > 1);
//! ```

pub mod audit;
pub mod campaign;
pub mod enumerate;
pub mod interaction;
pub mod oracle;
pub mod prob;
pub mod request;
pub mod search;
pub mod semantic;
pub mod service;
pub mod space;
pub mod telemetry;
#[doc(hidden)]
pub mod tmp_dir;
pub mod wire;

pub use enumerate::{
    enumerate, enumerate_semantic_pruned, enumerate_tier, jobs_per_cpu, Config, Enumeration,
    SearchOutcome,
};
pub use semantic::{SemanticConfig, SemanticContext, Signature, StructuralKey};
pub use space::{NodeId, SearchSpace};

/// Seedable pseudo-random number generation (re-exported from `vpo-rtl`,
/// its home since the front-end fuzzer also needs seeding; the historical
/// `phase_order::rng` path keeps working).
pub use vpo_rtl::rng;
