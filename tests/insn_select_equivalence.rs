//! Instruction selection (`s`) keeps its CFG and liveness across commits
//! and resumes at the committing block. This suite pins it to the
//! restart-from-top combiner it replaced — fresh liveness and a rescan
//! from block 0 after every commit — kept here as a test-only oracle.
//!
//! Every case runs register assignment first (as `attempt` does before
//! `s`), then compares the two combiners byte for byte: the resulting
//! `Function` and the active flag. It also checks the liveness budget:
//! at most one CFG/liveness build per call, plus one per commit that
//! invalidates the analysis, which is a fold that dropped a register
//! read. The oracle still runs a folding pass after every commit and
//! would count one that changed something too; the combiner runs none,
//! because such a pass never changes anything (`tests/fold_fixpoint.rs`).
//!
//! The default cases cover every instance of three MiBench spaces and
//! 200 fuzz programs at every prefix of their batch sequence; the
//! `#[ignore]`d case covers all 74 MiBench spaces (31 237 instances):
//!
//! ```text
//! cargo test --release --offline --test insn_select_equivalence -- --ignored
//! ```

use epo::explore::enumerate::{enumerate, Config};
use epo::explore::rng::Rng;
use epo::frontend::fuzz::{FuzzProgram, ENTRY};
use epo::opt::assign::assign_registers;
use epo::opt::batch::batch_compile;
use epo::opt::phases::{fold, insn_select};
use epo::opt::{attempt, Target};
use epo::rtl::cfg::Cfg;
use epo::rtl::liveness::{Item, Liveness};
use epo::rtl::{Function, Inst};
use exhaustive_phase_order as epo;

// ---------------------------------------------------------------------
// The oracle: the restart-from-top combiner.
// ---------------------------------------------------------------------

/// What one oracle call did.
#[derive(Default)]
struct OracleRun {
    changed: bool,
    commits: u64,
    /// Commits that would invalidate a kept liveness.
    invalidations: u64,
    liveness_builds: u64,
}

/// Runs the restart-from-top combiner.
fn oracle_run(f: &mut Function, target: &Target) -> OracleRun {
    let mut run = OracleRun { changed: oracle_fold_pass(f, target), ..OracleRun::default() };
    while let Some(reads_kept) = combine_once(f, target, &mut run.liveness_builds) {
        run.changed = true;
        run.commits += 1;
        let folded = oracle_fold_pass(f, target);
        if folded || !reads_kept {
            run.invalidations += 1;
        }
    }
    run
}

fn oracle_fold_pass(f: &mut Function, target: &Target) -> bool {
    let mut changed = false;
    for b in &mut f.blocks {
        for inst in &mut b.insts {
            let mut any = false;
            inst.visit_exprs(&mut |e| any |= fold::would_fold(e));
            if !any {
                continue;
            }
            let mut candidate = inst.clone();
            candidate.visit_exprs_mut(&mut |e| {
                fold::fold_in_place(e);
            });
            if target.legal_inst(&candidate) {
                *inst = candidate;
                changed = true;
            }
        }
    }
    changed
}

fn reg_reads(inst: &Inst) -> usize {
    let mut regs = Vec::new();
    inst.collect_uses(&mut regs);
    regs.len()
}

/// Attempts one combine anywhere in the function, scanning from block 0
/// under freshly computed liveness (built on first need; nothing changes
/// before a commit). Returns `None` if nothing combined, else whether the
/// merged instruction kept every register read.
fn combine_once(f: &mut Function, target: &Target, builds: &mut u64) -> Option<bool> {
    let mut lv: Option<Liveness> = None;
    for bi in 0..f.blocks.len() {
        let n = f.blocks[bi].insts.len();
        'def: for ii in 0..n {
            let insts = &f.blocks[bi].insts;
            let Inst::Assign { dst: t, src: e } = &insts[ii] else {
                continue;
            };
            let t = *t;
            let mut use_site: Option<usize> = None;
            let mut occurrences = 0usize;
            let mut redefined = false;
            for (jj, inst) in insts.iter().enumerate().skip(ii + 1) {
                let occ_here = inst.count_reg_uses(t);
                if occ_here > 0 {
                    occurrences += occ_here;
                    if use_site.is_none() {
                        use_site = Some(jj);
                    } else if use_site != Some(jj) {
                        continue 'def;
                    }
                }
                if inst.def() == Some(t) {
                    redefined = true;
                    break;
                }
            }
            let Some(jj) = use_site else { continue };
            if occurrences != 1 {
                continue;
            }
            if !redefined {
                let lv = lv.get_or_insert_with(|| {
                    *builds += 1;
                    Liveness::compute(f, &Cfg::build(f))
                });
                if let Some(x) = lv.index_of(Item::Reg(t)) {
                    if lv.live_out[bi].contains(x) {
                        continue;
                    }
                }
            }
            let mut e_regs = Vec::new();
            e.collect_regs(&mut e_regs);
            let e_reads_mem = e.reads_memory();
            for inst in &insts[ii + 1..jj] {
                if inst.def().is_some_and(|d| e_regs.contains(&d)) {
                    continue 'def;
                }
                if e_reads_mem && inst.writes_memory() {
                    continue 'def;
                }
            }
            let mut merged = insts[jj].clone();
            assert_eq!(merged.substitute_reg_uses(t, e), 1);
            let unfolded_reads = reg_reads(&merged);
            merged.visit_exprs_mut(&mut |x| {
                fold::fold_in_place(x);
            });
            if target.legal_inst(&merged) {
                let reads_kept = reg_reads(&merged) == unfolded_reads;
                f.blocks[bi].insts[jj] = merged;
                f.blocks[bi].insts.remove(ii);
                return Some(reads_kept);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Comparison harness.
// ---------------------------------------------------------------------

#[derive(Default)]
struct Tally {
    cases: u64,
    active: u64,
    commits: u64,
    invalidations: u64,
    builds: u64,
    oracle_builds: u64,
}

/// Assigns registers, then runs both combiners on copies of `f` and
/// asserts identical output and the liveness budget.
fn check(label: &str, f: &Function, target: &Target, tally: &mut Tally) {
    let mut base = f.clone();
    assign_registers(&mut base, target);
    let mut got = base.clone();
    let before = insn_select::liveness_builds();
    let active = insn_select::run(&mut got, target);
    let builds = insn_select::liveness_builds() - before;
    let mut want = base;
    let oracle = oracle_run(&mut want, target);
    assert_eq!(active, oracle.changed, "{label}: active flag");
    assert!(got == want, "{label}: combiners disagree\n got: {got:?}\nwant: {want:?}");
    assert!(
        builds <= 1 + oracle.invalidations,
        "{label}: {builds} liveness builds for {} invalidating commits",
        oracle.invalidations
    );
    tally.cases += 1;
    tally.active += u64::from(active);
    tally.commits += oracle.commits;
    tally.invalidations += oracle.invalidations;
    tally.builds += builds;
    tally.oracle_builds += oracle.liveness_builds;
}

/// Enumerates one function's space and checks every instance, each
/// rematerialized from its discovery parent. Returns the instance count.
fn check_space(label: &str, f: &Function, target: &Target, tally: &mut Tally) -> usize {
    let e = enumerate(f, target, &Config::default());
    assert!(e.outcome.is_complete(), "{label}: space truncated");
    let mut instances: Vec<Option<Function>> = vec![None; e.space.len()];
    for (id, node) in e.space.iter() {
        let g = match node.discovered_from {
            None => f.clone(),
            Some((parent, phase)) => {
                let mut g = instances[parent.0 as usize].clone().expect("parent before child");
                assert!(attempt(&mut g, phase, target).active, "{label}: dormant discovery edge");
                g
            }
        };
        check(&format!("{label} node {id}"), &g, target, tally);
        instances[id.0 as usize] = Some(g);
    }
    e.space.len()
}

fn mibench_function(bench: &str, name: &str) -> Function {
    let program = epo::benchmarks::find(bench).expect("benchmark").compile().expect("compiles");
    program.function(name).expect("function").clone()
}

#[test]
fn matches_oracle_on_three_mibench_spaces() {
    let target = Target::default();
    let mut tally = Tally::default();
    for (bench, name) in [("bitcount", "bit_count"), ("sha", "rotl"), ("fft", "reverse_bits")] {
        let f = mibench_function(bench, name);
        check_space(&format!("{bench}::{name}"), &f, &target, &mut tally);
    }
    // Not vacuous: many instances combine, and far fewer liveness builds
    // happen than the oracle's.
    assert!(tally.active > 100, "{} of {} active", tally.active, tally.cases);
    assert!(tally.builds * 2 < tally.oracle_builds, "{} vs {}", tally.builds, tally.oracle_builds);
}

/// Checks fuzz programs `seeds` at every prefix of their batch sequence.
fn check_fuzz_seeds(seeds: std::ops::Range<u64>) -> Tally {
    let target = Target::default();
    let mut tally = Tally::default();
    for seed in seeds {
        let mut rng = Rng::seed_from_u64(0x5EED_0005 ^ seed);
        let fp = FuzzProgram::generate(&mut rng);
        let program = fp.compile().unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", fp.source));
        let root = program.function(ENTRY).expect("entry function");
        let sequence = batch_compile(&mut root.clone(), &target).sequence;
        let mut g = root.clone();
        check(&format!("seed {seed} prefix 0"), &g, &target, &mut tally);
        for (k, &phase) in sequence.iter().enumerate() {
            assert!(attempt(&mut g, phase, &target).active, "seed {seed}: batch replay diverged");
            check(&format!("seed {seed} prefix {}", k + 1), &g, &target, &mut tally);
        }
    }
    tally
}

// The 200 fuzz programs run as two tests so the harness can overlap them;
// the oracle's liveness rebuild per commit dominates their time.

#[test]
fn matches_oracle_on_fuzz_programs_0_to_99() {
    let tally = check_fuzz_seeds(0..100);
    assert!(tally.active > 0 && tally.invalidations > 0, "no restart exercised");
}

#[test]
fn matches_oracle_on_fuzz_programs_100_to_199() {
    let tally = check_fuzz_seeds(100..200);
    assert!(tally.active > 0 && tally.invalidations > 0, "no restart exercised");
}

#[test]
#[ignore = "all 74 MiBench spaces; about 40 s in release"]
fn matches_oracle_on_every_mibench_instance() {
    let target = Target::default();
    let mut tally = Tally::default();
    let mut functions = 0;
    let mut instances = 0;
    for b in epo::benchmarks::all() {
        for f in b.compile().expect("compiles").functions {
            instances += check_space(&format!("{}::{}", b.name, f.name), &f, &target, &mut tally);
            functions += 1;
        }
    }
    assert_eq!((functions, instances), (74, 31_237), "Table 3 totals");
    eprintln!(
        "{} instances, {} active, {} commits ({} invalidating), liveness builds: {} (oracle {})",
        tally.cases,
        tally.active,
        tally.commits,
        tally.invalidations,
        tally.builds,
        tally.oracle_builds
    );
}
