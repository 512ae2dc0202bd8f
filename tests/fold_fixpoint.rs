//! `vpo_opt::phases::fold::fold_in_place` reaches its fixpoint in one
//! call: after it, `would_fold` is false. Instruction selection folds
//! every instruction once up front and each merged instruction once
//! before its legality check, and runs no folding pass after a commit;
//! a pass that could still fold something would make that unsound.
//!
//! The check folds every expression and subexpression of every
//! instruction of each instance. The default case covers 200 fuzz
//! programs at every prefix of their batch sequence; the `#[ignore]`d
//! case covers all 74 MiBench spaces (31 237 instances):
//!
//! ```text
//! cargo test --release --offline --test fold_fixpoint -- --ignored
//! ```

use epo::explore::enumerate::{enumerate, Config};
use epo::explore::rng::Rng;
use epo::frontend::fuzz::{FuzzProgram, ENTRY};
use epo::opt::batch::batch_compile;
use epo::opt::phases::fold::{fold_in_place, would_fold};
use epo::opt::{attempt, Target};
use epo::rtl::Function;
use exhaustive_phase_order as epo;

/// Folds every expression of `f` once and asserts that nothing folds
/// further. Returns how many expressions the first call changed.
fn check(label: &str, f: &Function) -> u64 {
    let mut changed = 0;
    for (bi, ii, inst) in f.iter_insts() {
        inst.visit_exprs(&mut |e| {
            e.visit(&mut |sub| {
                let mut folded = sub.clone();
                changed += u64::from(fold_in_place(&mut folded));
                assert!(
                    !would_fold(&folded),
                    "{label}: block {bi} inst {ii}: {sub:?} folds to {folded:?}, which folds again"
                );
            })
        });
    }
    changed
}

#[test]
fn fold_reaches_its_fixpoint_on_fuzz_programs() {
    let target = Target::default();
    let (mut instances, mut changed) = (0u64, 0u64);
    for seed in 0..200u64 {
        let mut rng = Rng::seed_from_u64(0x5EED_0005 ^ seed);
        let fp = FuzzProgram::generate(&mut rng);
        let program = fp.compile().unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", fp.source));
        let root = program.function(ENTRY).expect("entry function");
        let sequence = batch_compile(&mut root.clone(), &target).sequence;
        let mut g = root.clone();
        changed += check(&format!("seed {seed} prefix 0"), &g);
        for (k, &phase) in sequence.iter().enumerate() {
            assert!(attempt(&mut g, phase, &target).active, "seed {seed}: batch replay diverged");
            changed += check(&format!("seed {seed} prefix {}", k + 1), &g);
        }
        instances += 1 + sequence.len() as u64;
    }
    // Not vacuous: naive code generation leaves constants to fold.
    assert!(changed > 0, "nothing folded in {instances} instances");
}

#[test]
#[ignore = "all 74 MiBench spaces; about half a minute in release"]
fn fold_reaches_its_fixpoint_on_every_mibench_instance() {
    let target = Target::default();
    let (mut functions, mut instances) = (0, 0);
    for b in epo::benchmarks::all() {
        for f in b.compile().expect("compiles").functions {
            let label = format!("{}::{}", b.name, f.name);
            let e = enumerate(&f, &target, &Config::default());
            assert!(e.outcome.is_complete(), "{label}: space truncated");
            let mut bodies: Vec<Option<Function>> = vec![None; e.space.len()];
            for (id, node) in e.space.iter() {
                let g = match node.discovered_from {
                    None => f.clone(),
                    Some((parent, phase)) => {
                        let mut g = bodies[parent.0 as usize].clone().expect("parent first");
                        assert!(attempt(&mut g, phase, &target).active, "{label}: dormant edge");
                        g
                    }
                };
                check(&format!("{label} node {id}"), &g);
                bodies[id.0 as usize] = Some(g);
            }
            functions += 1;
            instances += e.space.len();
        }
    }
    assert_eq!((functions, instances), (74, 31_237), "Table 3 totals");
}
