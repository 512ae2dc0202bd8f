//! Structural invariants of the exhaustive enumeration engine, checked
//! over real benchmark functions.

use exhaustive_phase_order as epo;

use epo::explore::enumerate::{enumerate, Config};
use epo::explore::NodeId;
use epo::opt::{attempt, PhaseId, Target};

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

#[test]
fn enumeration_is_deterministic() {
    let target = Target::default();
    for (name, f) in sample_functions(45) {
        let a = enumerate(&f, &target, &Config::default());
        let b = enumerate(&f, &target, &Config::default());
        assert_eq!(a.space.len(), b.space.len(), "{name}");
        assert_eq!(a.stats.attempted_phases, b.stats.attempted_phases, "{name}");
        assert_eq!(a.space.leaf_count(), b.space.leaf_count(), "{name}");
        // Node-by-node identity.
        for (id, na) in a.space.iter() {
            let nb = b.space.node(id);
            assert_eq!(na.fp, nb.fp, "{name}: node {id}");
            assert_eq!(na.active_mask, nb.active_mask, "{name}: node {id}");
        }
    }
}

#[test]
fn paranoid_mode_finds_no_fingerprint_collisions() {
    // The paper: "we have never encountered an instance" of distinct
    // function instances detected as identical. Neither have we.
    let target = Target::default();
    let config = Config { paranoid: true, ..Config::default() };
    for (name, f) in sample_functions(60) {
        let e = enumerate(&f, &target, &config);
        assert_eq!(e.stats.collisions, 0, "{name} had fingerprint collisions");
    }
}

#[test]
fn weights_and_leaves_are_consistent() {
    let target = Target::default();
    for (name, f) in sample_functions(50) {
        let e = enumerate(&f, &target, &Config::default());
        if !e.outcome.is_complete() {
            continue;
        }
        let space = &e.space;
        // Every leaf weighs exactly 1; interior nodes weigh the sum of
        // their children; the root weight bounds the leaf count.
        for (id, n) in space.iter() {
            if n.is_leaf() {
                assert_eq!(n.weight, 1, "{name}: leaf {id}");
            } else {
                let sum: u64 = n.children.iter().map(|&(_, c)| space.node(c).weight).sum();
                assert_eq!(n.weight, sum, "{name}: node {id}");
            }
        }
        assert!(space.node(space.root()).weight >= space.leaf_count() as u64, "{name}");
    }
}

#[test]
fn edges_mirror_active_masks() {
    let target = Target::default();
    for (name, f) in sample_functions(45) {
        let e = enumerate(&f, &target, &Config::default());
        for (id, n) in e.space.iter() {
            let from_mask: usize =
                (0..PhaseId::COUNT).filter(|i| n.active_mask >> i & 1 == 1).count();
            assert_eq!(from_mask, n.children.len(), "{name}: node {id} mask/edge mismatch");
            for (p, c) in &n.children {
                assert!(n.is_active(*p), "{name}: edge without active bit");
                assert!(c.0 < e.space.len() as u32, "{name}: dangling edge");
            }
        }
    }
}

#[test]
fn every_instance_is_reachable_and_legal() {
    // Rematerialize every instance by replaying its discovery sequence and
    // check (a) the fingerprint matches and (b) the code is legal.
    let target = Target::default();
    for (name, f) in sample_functions(40) {
        let e = enumerate(&f, &target, &Config::default());
        if !e.outcome.is_complete() {
            continue;
        }
        for (id, node) in e.space.iter() {
            let mut seq = Vec::new();
            let mut cur: NodeId = id;
            while let Some((parent, phase)) = e.space.node(cur).discovered_from {
                seq.push(phase);
                cur = parent;
            }
            seq.reverse();
            let mut g = f.clone();
            for &p in &seq {
                let outcome = attempt(&mut g, p, &target);
                assert!(outcome.active, "{name}: discovery edge {p:?} dormant on replay");
            }
            assert_eq!(
                epo::rtl::canon::fingerprint(&g),
                node.fp,
                "{name}: node {id} replay mismatch"
            );
            target.check_function(&g).unwrap_or_else(|err| panic!("{name}: {err}"));
        }
    }
}

#[test]
fn too_big_outcome_is_honest() {
    let target = Target::default();
    let b = epo::benchmarks::all().into_iter().find(|b| b.name == "dijkstra").unwrap();
    let p = b.compile().unwrap();
    let f = p.function("dijkstra").unwrap();
    // With a tiny node budget the search must report TooBig...
    let small = enumerate(&f.clone(), &target, &Config { max_nodes: 50, ..Config::default() });
    assert!(!small.outcome.is_complete());
    // ...and with the default budget it completes.
    let full = enumerate(f, &target, &Config::default());
    assert!(full.outcome.is_complete());
    assert!(full.space.len() > 50);
}
