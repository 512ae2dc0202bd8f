//! The contract of `enumerate` under `Config::jobs`: for any job count,
//! the space it returns is **identical** to the serial engine's — node
//! ids and count, leaf count, weights, per-node `active_mask`s, edges,
//! and every statistics counter except wall-clock time. Verified here on
//! real MiBench kernels (the enumeration workload of Table 3), not just
//! on toy sources.

use phase_order::enumerate::{enumerate, Config};
use phase_order::Enumeration;
use vpo_opt::Target;

/// Three medium-size suite kernels: big enough for multi-hundred-node
/// spaces with wide levels, small enough to enumerate repeatedly.
fn kernels() -> Vec<(String, vpo_rtl::Function)> {
    let mut out = Vec::new();
    for b in mibench::all() {
        let p = b.compile().unwrap();
        for f in p.functions {
            if (25..=60).contains(&f.inst_count()) {
                out.push((format!("{}::{}", b.name, f.name), f));
            }
        }
    }
    out.truncate(3);
    assert_eq!(out.len(), 3, "suite no longer has three medium kernels");
    out
}

fn assert_identical(name: &str, jobs: usize, serial: &Enumeration, par: &Enumeration) {
    assert_eq!(par.outcome, serial.outcome, "{name} jobs={jobs}: outcome");
    assert_eq!(par.space.len(), serial.space.len(), "{name} jobs={jobs}: node count");
    assert_eq!(par.space.leaf_count(), serial.space.leaf_count(), "{name} jobs={jobs}: leaf count");
    assert_eq!(
        par.stats.attempted_phases, serial.stats.attempted_phases,
        "{name} jobs={jobs}: attempted phases"
    );
    assert_eq!(
        par.stats.active_attempts, serial.stats.active_attempts,
        "{name} jobs={jobs}: active attempts"
    );
    assert_eq!(par.stats.collisions, serial.stats.collisions, "{name} jobs={jobs}: collisions");
    for (id, n) in serial.space.iter() {
        let m = par.space.node(id);
        assert_eq!(m.fp, n.fp, "{name} jobs={jobs}: fingerprint of {id}");
        assert_eq!(m.flags, n.flags, "{name} jobs={jobs}: flags of {id}");
        assert_eq!(m.level, n.level, "{name} jobs={jobs}: level of {id}");
        assert_eq!(m.active_mask, n.active_mask, "{name} jobs={jobs}: active mask of {id}");
        assert_eq!(m.children, n.children, "{name} jobs={jobs}: edges of {id}");
        assert_eq!(m.weight, n.weight, "{name} jobs={jobs}: weight of {id}");
        assert_eq!(
            m.discovered_from, n.discovered_from,
            "{name} jobs={jobs}: discovery edge of {id}"
        );
    }
}

#[test]
fn parallel_enumeration_is_bit_identical_to_serial() {
    let target = Target::default();
    let config = Config { max_nodes: 100_000, max_level_width: 50_000, ..Config::default() };
    for (name, f) in kernels() {
        let serial = enumerate(&f, &target, &config);
        assert!(serial.space.len() > 10, "{name}: kernel space too small to be interesting");
        for jobs in [1usize, 2, 8] {
            let par = enumerate(&f, &target, &Config { jobs, ..config.clone() });
            assert_identical(&name, jobs, &serial, &par);
        }
    }
}

#[test]
fn parallel_enumeration_matches_under_truncation() {
    // The deterministic merge must reproduce the serial engine's exact
    // truncation point when a bound aborts the search mid-level.
    let target = Target::default();
    let (name, f) = kernels().swap_remove(0);
    let config = Config { max_nodes: 40, ..Config::default() };
    let serial = enumerate(&f, &target, &config);
    assert!(!serial.outcome.is_complete(), "{name}: cap of 40 nodes should truncate");
    assert!(serial.space.len() <= 40, "{name}: cap overshot");
    for jobs in [2usize, 8] {
        let par = enumerate(&f, &target, &Config { jobs, ..config.clone() });
        assert_identical(&name, jobs, &serial, &par);
    }
}
