//! The unified typed exploration request.
//!
//! Every way of asking this crate to explore phase-order spaces — the
//! `vpoc explore` / `verify` / `campaign` subcommands, and the memo
//! daemon's wire protocol — used to carry its own ad-hoc flag plumbing.
//! [`ExploreRequest`] collapses those parallel paths into one struct:
//! *what* to explore (a [`Selector`] plus an optional function filter)
//! and *how* (the enumeration [`Config`], the [`MergeTier`], the
//! semantic-tier battery options, and an optional per-request expansion
//! budget). Construction goes through the builder methods, validation
//! through [`ExploreRequest::validate`], and the whole request
//! serializes through the store's byte helpers ([`crate::wire`]) so the
//! daemon can echo exactly what it is serving.

use std::fmt;
use std::path::PathBuf;

use crate::enumerate::{Config, ReplayMode};
use crate::semantic::SemanticConfig;
use crate::wire::{self, Reader, WireError};

/// What program(s) a request explores.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Selector {
    /// A source file on disk.
    File(PathBuf),
    /// A built-in MiBench kernel set, by name.
    Bench(String),
    /// Every built-in benchmark (campaign/serve only).
    AllBenches,
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Selector::File(p) => write!(f, "file {}", p.display()),
            Selector::Bench(b) => write!(f, "bench {b}"),
            Selector::AllBenches => write!(f, "all benches"),
        }
    }
}

/// How instances are merged into the space: by canonical fingerprint
/// (§4.2.1's syntactic identity) or by behavioral signature.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MergeTier {
    /// Canonical-form identity (the paper's tier, the default).
    #[default]
    Fingerprint,
    /// Behavioral-signature quotient (`--merge-tier semantic`): merged
    /// instances are annotated but still expanded.
    Semantic,
    /// Behavioral-signature quotient with subsumption pruning
    /// (`--merge-tier semantic-pruned`): merged instances whose
    /// active-phase mask is subsumed by their representative's are not
    /// expanded.
    SemanticPruned,
}

impl MergeTier {
    /// The CLI/wire name of the tier.
    pub fn name(self) -> &'static str {
        match self {
            MergeTier::Fingerprint => "fingerprint",
            MergeTier::Semantic => "semantic",
            MergeTier::SemanticPruned => "semantic-pruned",
        }
    }

    /// Whether the tier runs the behavioral-signature machinery.
    pub fn is_semantic(self) -> bool {
        matches!(self, MergeTier::Semantic | MergeTier::SemanticPruned)
    }

    /// Parses a CLI/wire tier name.
    pub fn parse(s: &str) -> Result<MergeTier, String> {
        match s {
            "fingerprint" => Ok(MergeTier::Fingerprint),
            "semantic" => Ok(MergeTier::Semantic),
            "semantic-pruned" => Ok(MergeTier::SemanticPruned),
            other => Err(format!(
                "unknown merge tier `{other}` (expected fingerprint, semantic, or semantic-pruned)"
            )),
        }
    }
}

/// One fully-specified exploration request.
#[derive(Clone, PartialEq, Debug)]
pub struct ExploreRequest {
    /// What to explore.
    pub selector: Selector,
    /// Restrict to one function (`None` = every function the selector
    /// yields).
    pub function: Option<String>,
    /// Enumeration bounds and job count.
    pub config: Config,
    /// Instance-merging tier.
    pub tier: MergeTier,
    /// Battery options for the semantic tier (ignored under
    /// [`MergeTier::Fingerprint`], but always carried so a request
    /// round-trips losslessly).
    pub semantic: SemanticConfig,
    /// Per-request expansion budget: suspend each function's search
    /// after this many merged parent expansions (see
    /// [`crate::campaign::CampaignConfig::budget`]). `None` = run to
    /// completion.
    pub budget: Option<u64>,
    /// Memo-store shard count (serve only): functions hash across this
    /// many store files (see [`crate::campaign::store::shard_of`]).
    /// `1` = the classic single-store layout.
    pub shards: usize,
}

impl ExploreRequest {
    /// A request to explore a source file, under default options.
    pub fn file(path: impl Into<PathBuf>) -> ExploreRequest {
        ExploreRequest::new(Selector::File(path.into()))
    }

    /// A request to explore a built-in benchmark, under default options.
    pub fn bench(name: impl Into<String>) -> ExploreRequest {
        ExploreRequest::new(Selector::Bench(name.into()))
    }

    /// A request to explore the whole built-in suite.
    pub fn all_benches() -> ExploreRequest {
        ExploreRequest::new(Selector::AllBenches)
    }

    /// A request with default options for an arbitrary selector.
    pub fn new(selector: Selector) -> ExploreRequest {
        ExploreRequest {
            selector,
            function: None,
            config: Config::default(),
            tier: MergeTier::default(),
            semantic: SemanticConfig::default(),
            budget: None,
            shards: 1,
        }
    }

    /// Restricts the request to one function.
    pub fn function(mut self, name: impl Into<String>) -> ExploreRequest {
        self.function = Some(name.into());
        self
    }

    /// Replaces the enumeration config wholesale.
    pub fn config(mut self, config: Config) -> ExploreRequest {
        self.config = config;
        self
    }

    /// Sets the worker count ([`Config::jobs`] convention: `0` serial).
    pub fn jobs(mut self, jobs: usize) -> ExploreRequest {
        self.config.jobs = jobs;
        self
    }

    /// Sets the node cap ([`Config::max_nodes`]).
    pub fn max_nodes(mut self, max_nodes: usize) -> ExploreRequest {
        self.config.max_nodes = max_nodes;
        self
    }

    /// Enables paranoid merge checking ([`Config::paranoid`]).
    pub fn paranoid(mut self, paranoid: bool) -> ExploreRequest {
        self.config.paranoid = paranoid;
        self
    }

    /// Selects the merge tier.
    pub fn tier(mut self, tier: MergeTier) -> ExploreRequest {
        self.tier = tier;
        self
    }

    /// Sets the semantic-tier battery options.
    pub fn semantic(mut self, semantic: SemanticConfig) -> ExploreRequest {
        self.semantic = semantic;
        self
    }

    /// Sets the per-request expansion budget.
    pub fn budget(mut self, budget: u64) -> ExploreRequest {
        self.budget = Some(budget);
        self
    }

    /// Sets the memo-store shard count (serve only).
    pub fn shards(mut self, shards: usize) -> ExploreRequest {
        self.shards = shards;
        self
    }

    /// The semantic options a campaign should run with: `Some` exactly
    /// when the semantic tier is selected.
    pub fn semantic_config(&self) -> Option<SemanticConfig> {
        match self.tier {
            MergeTier::Fingerprint => None,
            MergeTier::Semantic | MergeTier::SemanticPruned => Some(self.semantic.clone()),
        }
    }

    /// Rejects requests no backend could honour. Selector/function
    /// existence is checked later, at resolution time — validation here
    /// is about the request's own shape.
    pub fn validate(&self) -> Result<(), String> {
        if self.budget == Some(0) {
            return Err("budget must be at least 1 expansion".into());
        }
        if self.config.max_nodes == 0 {
            return Err("max-nodes must be at least 1".into());
        }
        if self.config.max_level_width == 0 {
            return Err("max-level-width must be at least 1".into());
        }
        if self.semantic.battery == 0 {
            return Err("battery must be at least 1 input".into());
        }
        if let Selector::Bench(name) = &self.selector {
            if name.is_empty() {
                return Err("bench selector needs a name".into());
            }
        }
        if !(1..=256).contains(&self.shards) {
            return Err(format!("shards must be in 1..=256, got {}", self.shards));
        }
        Ok(())
    }

    /// Serializes the request (leading format version byte, then the
    /// store's little-endian byte helpers).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(WIRE_VERSION);
        match &self.selector {
            Selector::File(p) => {
                out.push(0);
                wire::put_str(&mut out, &p.to_string_lossy());
            }
            Selector::Bench(b) => {
                out.push(1);
                wire::put_str(&mut out, b);
            }
            Selector::AllBenches => out.push(2),
        }
        match &self.function {
            Some(f) => {
                out.push(1);
                wire::put_str(&mut out, f);
            }
            None => out.push(0),
        }
        wire::put_u64(&mut out, self.config.max_level_width as u64);
        wire::put_u64(&mut out, self.config.max_nodes as u64);
        out.push(match self.config.replay {
            ReplayMode::PrefixSharing => 0,
            ReplayMode::NaiveReplay => 1,
        });
        out.push(self.config.paranoid as u8);
        out.push(self.config.skip_just_applied as u8);
        wire::put_u64(&mut out, self.config.jobs as u64);
        out.push(match self.tier {
            MergeTier::Fingerprint => 0,
            MergeTier::Semantic => 1,
            MergeTier::SemanticPruned => 2,
        });
        wire::put_u32(&mut out, self.semantic.battery as u32);
        wire::put_u64(&mut out, self.semantic.seed);
        wire::put_u64(&mut out, self.semantic.fuel);
        wire::put_u64(&mut out, self.semantic.mem_size as u64);
        match self.budget {
            Some(b) => {
                out.push(1);
                wire::put_u64(&mut out, b);
            }
            None => out.push(0),
        }
        wire::put_u64(&mut out, self.shards as u64);
        out
    }

    /// Parses a serialized request, rejecting truncation, unknown
    /// versions and invalid discriminants.
    pub fn from_bytes(bytes: &[u8]) -> Result<ExploreRequest, WireError> {
        let mut r = Reader::new(bytes);
        let version = r.u8()?;
        if !(1..=WIRE_VERSION).contains(&version) {
            return Err(WireError::Malformed(format!(
                "request format version {version}, this build reads 1..={WIRE_VERSION}"
            )));
        }
        let selector = match r.u8()? {
            0 => Selector::File(PathBuf::from(r.str()?)),
            1 => Selector::Bench(r.str()?),
            2 => Selector::AllBenches,
            d => return Err(WireError::Malformed(format!("invalid selector discriminant {d}"))),
        };
        let function = if r.bool()? { Some(r.str()?) } else { None };
        let max_level_width = r.u64()? as usize;
        let max_nodes = r.u64()? as usize;
        let replay = match r.u8()? {
            0 => ReplayMode::PrefixSharing,
            1 => ReplayMode::NaiveReplay,
            d => return Err(WireError::Malformed(format!("invalid replay discriminant {d}"))),
        };
        let paranoid = r.bool()?;
        let skip_just_applied = r.bool()?;
        let jobs = r.u64()? as usize;
        // Versions 1 and 2 carried an expansion-engine byte. It never
        // changed results, so it is validated and ignored.
        if version < 3 {
            let d = r.u8()?;
            if d > 1 {
                return Err(WireError::Malformed(format!("invalid engine discriminant {d}")));
            }
        }
        let tier = match r.u8()? {
            0 => MergeTier::Fingerprint,
            1 => MergeTier::Semantic,
            2 => MergeTier::SemanticPruned,
            d => return Err(WireError::Malformed(format!("invalid tier discriminant {d}"))),
        };
        let semantic = SemanticConfig {
            battery: r.u32()? as usize,
            seed: r.u64()?,
            fuel: r.u64()?,
            mem_size: r.u64()? as usize,
        };
        let budget = if r.bool()? { Some(r.u64()?) } else { None };
        // Version-1 requests predate sharding; the daemon ran one store.
        let shards = if version >= 2 { r.u64()? as usize } else { 1 };
        if r.remaining() != 0 {
            return Err(WireError::Malformed(format!("{} bytes trail the request", r.remaining())));
        }
        Ok(ExploreRequest {
            selector,
            function,
            config: Config {
                max_level_width,
                max_nodes,
                replay,
                paranoid,
                skip_just_applied,
                jobs,
            },
            tier,
            semantic,
            budget,
            shards,
        })
    }
}

/// Serialization format version of [`ExploreRequest::to_bytes`].
/// Version 2 appended the shard count; version 3 dropped the
/// expansion-engine byte after the job count. Version-1 and version-2
/// bytes still decode (version 1 with `shards = 1`).
pub const WIRE_VERSION: u8 = 3;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExploreRequest {
        ExploreRequest::bench("sha")
            .function("sha_transform")
            .jobs(4)
            .max_nodes(50_000)
            .paranoid(true)
            .tier(MergeTier::Semantic)
            .semantic(SemanticConfig { battery: 3, seed: 11, ..SemanticConfig::default() })
            .budget(250)
    }

    #[test]
    fn builder_composes_and_validates() {
        let r = sample();
        assert_eq!(r.selector, Selector::Bench("sha".into()));
        assert_eq!(r.function.as_deref(), Some("sha_transform"));
        assert_eq!(r.config.jobs, 4);
        assert_eq!(r.config.max_nodes, 50_000);
        assert!(r.config.paranoid);
        assert_eq!(r.tier, MergeTier::Semantic);
        assert_eq!(r.budget, Some(250));
        r.validate().unwrap();
        assert!(r.semantic_config().is_some());

        let fp = ExploreRequest::file("a.mc");
        assert!(fp.semantic_config().is_none());
        fp.validate().unwrap();
    }

    #[test]
    fn validation_rejects_unserviceable_shapes() {
        assert!(ExploreRequest::file("a.mc").budget(0).validate().is_err());
        assert!(ExploreRequest::file("a.mc").max_nodes(0).validate().is_err());
        assert!(ExploreRequest::bench("").validate().is_err());
        // A zero battery is rejected at every tier: the oracle and the
        // audit simulate on it too, and an empty one passes vacuously.
        for tier in [MergeTier::Fingerprint, MergeTier::Semantic, MergeTier::SemanticPruned] {
            let mut r = ExploreRequest::file("a.mc").tier(tier);
            r.semantic.battery = 0;
            assert!(r.validate().is_err(), "{tier:?}");
        }
        let mut r = ExploreRequest::file("a.mc");
        r.config.max_level_width = 0;
        assert!(r.validate().is_err());
        assert!(ExploreRequest::bench("sha").shards(0).validate().is_err());
        assert!(ExploreRequest::bench("sha").shards(257).validate().is_err());
        ExploreRequest::bench("sha").shards(256).validate().unwrap();
    }

    #[test]
    fn tier_names_round_trip() {
        for tier in [MergeTier::Fingerprint, MergeTier::Semantic, MergeTier::SemanticPruned] {
            assert_eq!(MergeTier::parse(tier.name()).unwrap(), tier);
            assert_eq!(tier.is_semantic(), tier != MergeTier::Fingerprint);
        }
        assert!(MergeTier::parse("quantum").is_err());
    }

    #[test]
    fn requests_round_trip_through_bytes() {
        for r in [
            sample(),
            ExploreRequest::file("/tmp/x.mc"),
            ExploreRequest::all_benches().budget(1),
            ExploreRequest::bench("fft").jobs(0),
            ExploreRequest::bench("bitcount").tier(MergeTier::SemanticPruned),
            ExploreRequest::all_benches().shards(8),
        ] {
            let bytes = r.to_bytes();
            assert_eq!(bytes, r.to_bytes(), "encoding must be deterministic");
            let back = ExploreRequest::from_bytes(&bytes).unwrap();
            assert_eq!(back, r);
            assert_eq!(back.to_bytes(), bytes);
        }
    }

    #[test]
    fn corrupt_requests_are_rejected_cleanly() {
        let good = sample().to_bytes();
        for cut in 0..good.len() {
            assert!(
                ExploreRequest::from_bytes(&good[..cut]).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
        let mut versioned = good.clone();
        versioned[0] = 99;
        let err = ExploreRequest::from_bytes(&versioned).unwrap_err();
        assert!(err.to_string().contains("version"));
        let mut trailing = good.clone();
        trailing.push(7);
        assert!(ExploreRequest::from_bytes(&trailing).is_err());
        let mut bad_disc = good;
        bad_disc[1] = 9;
        assert!(ExploreRequest::from_bytes(&bad_disc).is_err());
    }

    /// The version-2 encoding of `r`: the current one with the version
    /// byte set to 2 and an engine byte (`engine`) after the job count,
    /// which the tier, battery options, budget and shard count follow.
    fn v2_bytes(r: &ExploreRequest, engine: u8) -> Vec<u8> {
        let mut v2 = r.to_bytes();
        v2[0] = 2;
        let tail = 1 + 4 + 3 * 8 + if r.budget.is_some() { 9 } else { 1 } + 8;
        v2.insert(v2.len() - tail, engine);
        v2
    }

    #[test]
    fn version_one_requests_still_decode() {
        // A v1 encoding is the v2 encoding minus the trailing shard
        // count, with the version byte set to 1.
        let r = sample();
        let mut v1 = v2_bytes(&r, 0);
        v1[0] = 1;
        v1.truncate(v1.len() - 8);
        let back = ExploreRequest::from_bytes(&v1).unwrap();
        assert_eq!(back.shards, 1, "pre-sharding clients imply one store");
        assert_eq!(back, ExploreRequest { shards: 1, ..r });
    }

    #[test]
    fn version_two_requests_still_decode() {
        // Either engine byte decodes to the same request; any other
        // value is rejected.
        let r = sample().shards(8);
        for engine in [0, 1] {
            assert_eq!(ExploreRequest::from_bytes(&v2_bytes(&r, engine)).unwrap(), r);
        }
        let err = ExploreRequest::from_bytes(&v2_bytes(&r, 2)).unwrap_err();
        assert!(err.to_string().contains("engine"));
    }
}
