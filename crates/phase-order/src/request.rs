//! The unified typed exploration request.
//!
//! Every exploring `vpoc` subcommand (`explore`, `verify`, `campaign`,
//! `dot`, `audit-quotient`, `serve`) parses its command line into one
//! [`ExploreRequest`] through one shared parser (`cli::args::
//! explore_request`): *what* to explore (a [`Selector`] plus an optional
//! function filter) and *how* (the enumeration [`Config`], the
//! [`MergeTier`], the semantic-tier battery options, and an optional
//! per-request expansion budget). Validation goes through
//! [`ExploreRequest::validate`]. The request is never serialized: the
//! memo daemon's protocol carries only a function name and a budget
//! ([`crate::service::Request`]).

use std::fmt;
use std::path::PathBuf;

use crate::enumerate::Config;
use crate::semantic::SemanticConfig;

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
    /// The CLI name of the tier.
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

    /// Parses a CLI tier name.
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
    /// Battery options for the semantic tier, which `verify` and
    /// `audit-quotient` also simulate on (unused by a fingerprint-tier
    /// enumeration).
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_and_validates() {
        let r = ExploreRequest {
            function: Some("sha_transform".into()),
            config: Config { jobs: 4, max_nodes: 50_000, paranoid: true, ..Config::default() },
            tier: MergeTier::Semantic,
            semantic: SemanticConfig { battery: 3, seed: 11, ..SemanticConfig::default() },
            budget: Some(250),
            ..ExploreRequest::new(Selector::Bench("sha".into()))
        };
        assert_eq!(r.selector, Selector::Bench("sha".into()));
        assert_eq!(r.shards, 1, "one store unless serve asks for shards");
        r.validate().unwrap();
        assert!(r.semantic_config().is_some());

        let fp = ExploreRequest::new(Selector::File("a.mc".into()));
        assert!(fp.semantic_config().is_none());
        fp.validate().unwrap();
    }

    #[test]
    fn validation_rejects_unserviceable_shapes() {
        let file = || ExploreRequest::new(Selector::File("a.mc".into()));
        let sha = || ExploreRequest::new(Selector::Bench("sha".into()));
        assert!(ExploreRequest { budget: Some(0), ..file() }.validate().is_err());
        let r = file();
        assert!(ExploreRequest { config: Config { max_nodes: 0, ..r.config.clone() }, ..r }
            .validate()
            .is_err());
        assert!(ExploreRequest::new(Selector::Bench(String::new())).validate().is_err());
        // A zero battery is rejected at every tier: the oracle and the
        // audit simulate on it too, and an empty one passes vacuously.
        for tier in [MergeTier::Fingerprint, MergeTier::Semantic, MergeTier::SemanticPruned] {
            let semantic = SemanticConfig { battery: 0, ..SemanticConfig::default() };
            let r = ExploreRequest { tier, semantic, ..file() };
            assert!(r.validate().is_err(), "{tier:?}");
        }
        let r = file();
        assert!(ExploreRequest { config: Config { max_level_width: 0, ..r.config.clone() }, ..r }
            .validate()
            .is_err());
        assert!(ExploreRequest { shards: 0, ..sha() }.validate().is_err());
        assert!(ExploreRequest { shards: 257, ..sha() }.validate().is_err());
        ExploreRequest { shards: 256, ..sha() }.validate().unwrap();
    }

    #[test]
    fn tier_names_round_trip() {
        for tier in [MergeTier::Fingerprint, MergeTier::Semantic, MergeTier::SemanticPruned] {
            assert_eq!(MergeTier::parse(tier.name()).unwrap(), tier);
            assert_eq!(tier.is_semantic(), tier != MergeTier::Fingerprint);
        }
        assert!(MergeTier::parse("quantum").is_err());
    }
}
