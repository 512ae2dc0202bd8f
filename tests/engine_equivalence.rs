//! The level-order driver behind `enumerate` must be bit-identical to an
//! independent serial reference enumerator: same nodes, same edges, same
//! counters, for every job count. The reference below is written against
//! the public `SearchSpace` API alone and shares no code with the driver:
//! a fresh deep clone and a fresh fingerprint per attempt, every phase
//! attempted (no dormancy prefilter), and each parent merged the moment
//! it is expanded rather than at a level barrier. Spaces keep only
//! topology, so the file also checks that replaying a node's discovery
//! sequence from the root rebuilds the instance the search produced.

use std::collections::HashMap;

use exhaustive_phase_order as epo;

use epo::explore::enumerate::{
    enumerate, enumerate_tier, rematerialize, Config, Enumeration, SearchOutcome, SearchStats,
};
use epo::explore::request::MergeTier;
use epo::explore::space::{Node, NodeId, SearchSpace};
use epo::explore::SemanticConfig;
use epo::opt::facts::Facts;
use epo::opt::{attempt, PhaseId, Target};
use epo::rtl::canon;
use epo::rtl::cfg::control_flow_signature;
use epo::rtl::Function;

/// A fresh, unexpanded node for instance `g`.
fn node_of(g: &Function, level: u32, discovered_from: Option<(NodeId, PhaseId)>) -> Node {
    Node {
        fp: canon::fingerprint(g),
        flags: g.flags,
        level,
        inst_count: g.inst_count() as u32,
        cf_sig: control_flow_signature(g),
        active_mask: 0,
        children: Vec::new(),
        sem_children: Vec::new(),
        pruned_children: Vec::new(),
        pruned: false,
        discovered_from,
        weight: 0,
    }
}

/// The serial reference search of Section 4: level by level, each
/// parent's fifteen attempts merged into the space in phase order as
/// soon as the parent is expanded. A `max_nodes` cap truncates just
/// before the attempt that would exceed it; a level wider than
/// `max_level_width` truncates after the parent that widened it.
fn reference(f: &Function, target: &Target, config: &Config) -> Enumeration {
    let mut space = SearchSpace::new();
    let mut stats = SearchStats::default();
    let mut bytes = HashMap::new();
    let root = space.insert(node_of(f, 0, None));
    if config.paranoid {
        bytes.insert((space.node(root).fp, f.flags), canon::canonical_bytes(f));
    }
    let mut frontier = vec![(root, f.clone())];
    let mut outcome = SearchOutcome::Complete;
    let mut level = 0;
    'search: while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for (id, parent) in &frontier {
            let skip = config
                .skip_just_applied
                .then(|| space.node(*id).discovered_from.map(|(_, p)| p))
                .flatten();
            let (mut mask, mut children) = (0u16, Vec::new());
            for phase in PhaseId::ALL.into_iter().filter(|&p| Some(p) != skip) {
                let mut g = parent.clone();
                let active = attempt(&mut g, phase, target).active;
                let key = active.then(|| (canon::fingerprint(&g), g.flags));
                let found = key.map(|(fp, flags)| space.find(fp, flags));
                if found == Some(None) && space.len() >= config.max_nodes {
                    outcome = SearchOutcome::TooBig { level };
                    break;
                }
                stats.attempted_phases += 1;
                let (Some(key), Some(found)) = (key, found) else { continue };
                stats.active_attempts += 1;
                mask |= 1 << phase.index();
                let child = match found {
                    Some(hit) => {
                        if config.paranoid && bytes[&key] != canon::canonical_bytes(&g) {
                            stats.collisions += 1;
                        }
                        hit
                    }
                    None => {
                        let child = space.insert(node_of(&g, level, Some((*id, phase))));
                        if config.paranoid {
                            bytes.insert(key, canon::canonical_bytes(&g));
                        }
                        next.push((child, g));
                        child
                    }
                };
                children.push((phase, child));
            }
            let n = space.node_mut(*id);
            n.active_mask = mask;
            n.children = children;
            if !outcome.is_complete() || next.len() > config.max_level_width {
                outcome = SearchOutcome::TooBig { level };
                break 'search;
            }
        }
        frontier = next;
    }
    space.compute_weights().expect("phase-order space must be acyclic");
    Enumeration { space, outcome, stats }
}

/// Small-but-interesting functions from across the suite.
fn sample_functions(max_insts: usize) -> Vec<(String, epo::rtl::Function)> {
    let mut out = Vec::new();
    for b in epo::benchmarks::all() {
        let p = b.compile().unwrap();
        for f in p.functions {
            if f.inst_count() <= max_insts {
                out.push((format!("{}::{}", b.name, f.name), f));
            }
        }
    }
    out
}

/// Every observable except wall-clock must match between two runs.
fn assert_identical(name: &str, a: &Enumeration, b: &Enumeration) {
    assert_eq!(a.outcome, b.outcome, "{name}: outcome");
    assert_eq!(a.stats.attempted_phases, b.stats.attempted_phases, "{name}: attempted");
    assert_eq!(a.stats.active_attempts, b.stats.active_attempts, "{name}: active");
    assert_eq!(a.stats.collisions, b.stats.collisions, "{name}: collisions");
    assert_eq!(a.space.len(), b.space.len(), "{name}: node count");
    assert_eq!(a.space.leaf_count(), b.space.leaf_count(), "{name}: leaf count");
    for (id, na) in a.space.iter() {
        let nb = b.space.node(id);
        assert_eq!(na.fp, nb.fp, "{name}: node {id} fp");
        assert_eq!(na.flags, nb.flags, "{name}: node {id} flags");
        assert_eq!(na.level, nb.level, "{name}: node {id} level");
        assert_eq!(na.inst_count, nb.inst_count, "{name}: node {id} inst_count");
        assert_eq!(na.cf_sig, nb.cf_sig, "{name}: node {id} cf_sig");
        assert_eq!(na.active_mask, nb.active_mask, "{name}: node {id} mask");
        assert_eq!(na.children, nb.children, "{name}: node {id} children");
        assert_eq!(na.discovered_from, nb.discovered_from, "{name}: node {id} provenance");
        assert_eq!(na.weight, nb.weight, "{name}: node {id} weight");
    }
}

#[test]
fn driver_matches_serial_reference_for_every_job_count() {
    let target = Target::default();
    let funcs = sample_functions(45);
    assert!(funcs.len() >= 3, "need at least three kernels for the suite");
    for (name, f) in funcs {
        let want = reference(&f, &target, &Config::default());
        for jobs in [0usize, 2, 8] {
            let got = enumerate(&f, &target, &Config { jobs, ..Config::default() });
            assert_identical(&format!("{name} jobs={jobs}"), &want, &got);
        }
    }
}

#[test]
fn driver_matches_reference_in_every_mode_and_under_bounds() {
    // Paranoid mode feeds the byte check from the driver's reusable
    // canonicalizer. The bounds are part of the contract too: a
    // `max_nodes` cap lands on the same attempt, and a level-width cap on
    // the same parent.
    let target = Target::default();
    let paranoid = Config { paranoid: true, ..Config::default() };
    let configs = [
        paranoid,
        Config { max_nodes: 7, ..Config::default() },
        Config { max_level_width: 3, ..Config::default() },
    ];
    for (name, f) in sample_functions(35) {
        for config in &configs {
            let want = reference(&f, &target, config);
            assert_eq!(want.stats.collisions, 0, "{name}");
            for jobs in [0usize, 2, 8] {
                let got = enumerate(&f, &target, &Config { jobs, ..config.clone() });
                assert_identical(&format!("{name} {config:?} jobs={jobs}"), &want, &got);
            }
        }
    }
}

#[test]
fn rematerialize_reproduces_every_node() {
    // Resume, the audit and dynamic-count inference rebuild instances
    // with `rematerialize`; it must land on the very instance prefix
    // sharing produced, under both tiers that expand different sub-DAGs.
    let target = Target::default();
    let sem = SemanticConfig::default();
    let mut checked = 0;
    for b in epo::benchmarks::all() {
        let program = b.compile().unwrap();
        for f in program.functions.iter().filter(|f| f.inst_count() <= 35) {
            for tier in [MergeTier::Fingerprint, MergeTier::SemanticPruned] {
                let e = enumerate_tier(tier, Some(&program), f, &target, &Config::default(), &sem);
                for (id, n) in e.space.iter() {
                    let g = rematerialize(f, &target, &e.space, id);
                    let at = format!("{}::{} {tier:?} node {id}", b.name, f.name);
                    assert_eq!(canon::fingerprint(&g), n.fp, "{at}: fingerprint");
                    assert_eq!(g.flags, n.flags, "{at}: flags");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0, "no node was rematerialized");
}

/// Checks, on every instance of `f`'s space, that each phase the
/// prefilter rules out is in fact dormant when attempted for real, and
/// counts the ruled-out attempts per phase into `ruled_out`. Returns the
/// number of instances, or `None` if the space is truncated. Each
/// instance is rebuilt from its discovering parent's, so a replayed edge
/// must be active.
fn check_prefilters(
    name: &str,
    f: &Function,
    target: &Target,
    ruled_out: &mut [u64; PhaseId::COUNT],
) -> Option<usize> {
    let e = enumerate(f, target, &Config::default());
    if !e.outcome.is_complete() {
        return None;
    }
    let mut instances: Vec<Option<Function>> = vec![None; e.space.len()];
    for (id, node) in e.space.iter() {
        let g = match node.discovered_from {
            None => f.clone(),
            Some((parent, phase)) => {
                let mut g = instances[parent.0 as usize].clone().expect("parent before child");
                assert!(attempt(&mut g, phase, target).active, "{name}: node {id}: dormant edge");
                g
            }
        };
        let facts = Facts::of(&g);
        for phase in PhaseId::ALL {
            if phase.can_be_active(&facts) {
                continue;
            }
            let outcome = attempt(&mut g.clone(), phase, target);
            assert!(
                !outcome.active,
                "{name}: node {id}: prefilter ruled out {phase:?} but it was active"
            );
            ruled_out[phase.index()] += 1;
        }
        instances[id.0 as usize] = Some(g);
    }
    Some(e.space.len())
}

#[test]
fn prefilters_are_sound_on_every_enumerated_instance() {
    // For every instance the search ever visits, a phase the prefilter
    // rules out must in fact be dormant when attempted for real. This is
    // the empirical half of the soundness argument in `vpo_opt::facts`;
    // the analytical half lives in that module's docs.
    let target = Target::default();
    let mut ruled_out = [0; PhaseId::COUNT];
    for (name, f) in sample_functions(40) {
        check_prefilters(&name, &f, &target, &mut ruled_out);
    }
    assert!(ruled_out.iter().sum::<u64>() > 0, "prefilters never fired; the test is vacuous");
}

#[test]
#[ignore = "all 74 MiBench spaces; about a minute in release"]
fn prefilters_are_sound_on_every_mibench_instance() {
    let target = Target::default();
    let mut ruled_out = [0; PhaseId::COUNT];
    let (mut functions, mut instances) = (0, 0);
    for (name, f) in sample_functions(usize::MAX) {
        instances += check_prefilters(&name, &f, &target, &mut ruled_out)
            .unwrap_or_else(|| panic!("{name}: space truncated"));
        functions += 1;
    }
    assert_eq!((functions, instances), (74, 31_237), "Table 3 totals");
    for (phase, n) in PhaseId::ALL.into_iter().zip(ruled_out) {
        eprintln!("{phase}: {n} attempts ruled out");
    }
    // Every candidate-scan rule fires somewhere, so none is checked
    // vacuously.
    for phase in [PhaseId::RegAlloc, PhaseId::LoopXform] {
        assert!(ruled_out[phase.index()] > 0, "{phase} was never ruled out");
    }
}
