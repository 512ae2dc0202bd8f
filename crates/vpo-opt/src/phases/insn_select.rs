//! Phase `s` — instruction selection.
//!
//! "Combines pairs or triples of instructions together where the
//! instructions are linked by set/use dependencies. After combining the
//! effects of the instructions, it also performs constant folding and
//! checks if the resulting effect is a legal instruction before committing
//! to the transformation."
//!
//! The combiner works within basic blocks: a definition `t = e` whose value
//! is consumed exactly once later in the same block (with `t` dead
//! afterwards and no interfering definitions or memory writes in between)
//! is symbolically substituted into its consumer; the merged RTL is
//! constant-folded and committed only if the target accepts it as one
//! machine instruction. Triples and longer chains fall out of running the
//! pair rule to a fixpoint.
//!
//! This phase is always active on unoptimized code (naive code generation
//! emits maximally simple RTLs), and it is re-enabled by register
//! allocation, which turns loads and stores into collapsible
//! register-to-register moves — both observations from the paper.
//!
//! # Incremental scanning
//!
//! The combiner produces the same sequence of commits as a scan that
//! restarts at block 0 with fresh liveness after every commit, but it
//! builds the CFG and liveness lazily, at most once per call, and keeps
//! them across commits. It stays on the block where it last committed
//! until that block has nothing left to combine, then moves on. That is
//! exact because a commit leaves register liveness unchanged:
//!
//! * every block keeps its register live-in and live-out sets: `e`'s
//!   operands are read at the consumer instead of at the definition, and
//!   nothing redefines them in between; `t`'s definition and its only use
//!   disappear together; no register is introduced;
//! * so every block before the committing one keeps its instructions and
//!   its live-out set, and every candidate it rejected stays rejected.
//!
//! One commit can change liveness: folding the merged instruction dropped
//! a register read (`t0 = 0; t1 = t0 * r2` → `t1 = 0`, detected by the
//! merged instruction reading fewer than `reads(consumer) − 1 + reads(e)`
//! registers). It falls back to a restart at block 0 with the liveness
//! dropped.
//!
//! # Work a commit cannot change
//!
//! * **Illegal pairs are remembered.** The merged instruction is a
//!   function of the definition and the consumer alone, so a pair whose
//!   merge was illegal stays illegal until a commit changes or removes
//!   one of the two. The combiner remembers such pairs by position and
//!   re-indexes them when a commit removes an instruction; a restart
//!   keeps them, since it changes no instruction.
//! * **No folding pass after a commit.** The phase folds every
//!   instruction once up front. After that, a commit changes only the
//!   merged instruction, which is folded before its legality check, and
//!   a legal instruction that came out of [`fold::fold_in_place`] folds
//!   no further: `fold_in_place` leaves a foldable expression only by
//!   building a negation of a negation (`x * -1` or `0 - x` over a
//!   negated `x`), and no legal instruction negates anything but a
//!   register. Every other instruction is as the last pass left it, so
//!   a second pass would change nothing.

use std::cell::Cell;

use vpo_rtl::cfg::Cfg;
use vpo_rtl::liveness::{Item, Liveness};
use vpo_rtl::{Expr, Function, Inst, Reg};

use super::fold;
use crate::target::Target;

thread_local! {
    static LIVENESS_BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// How many times this thread has built CFG plus liveness inside [`run`].
/// Tests use it to check that a call builds at most once, plus once per
/// commit that invalidates the analysis.
#[doc(hidden)]
pub fn liveness_builds() -> u64 {
    LIVENESS_BUILDS.with(Cell::get)
}

/// Runs instruction selection; returns whether anything changed.
pub fn run(f: &mut Function, target: &Target) -> bool {
    // Standalone constant folding first (part of this phase in VPO).
    let mut changed = fold_pass(f, target);
    let mut lv: Option<Liveness> = None;
    let mut illegal = IllegalPairs::default();
    let mut e_regs: Vec<Reg> = Vec::new();
    let mut bi = 0;
    while bi < f.blocks.len() {
        match combine_in_block(f, bi, target, &mut lv, &mut illegal, &mut e_regs) {
            Step::Exhausted => bi += 1,
            Step::Committed { reads_kept } => {
                changed = true;
                if !reads_kept {
                    lv = None;
                    bi = 0;
                }
            }
        }
    }
    changed
}

/// Constant-folds every instruction whose folded form is still legal.
fn fold_pass(f: &mut Function, target: &Target) -> bool {
    let mut changed = false;
    for b in &mut f.blocks {
        for inst in &mut b.insts {
            // Detect before cloning: most instructions fold nothing, and
            // the detector is a pure traversal.
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

/// What one scan of a block found.
enum Step {
    /// No definition in the block can be combined.
    Exhausted,
    /// One pair was combined. `reads_kept` is false when folding the
    /// merged instruction dropped a register read, which may change
    /// liveness.
    Committed { reads_kept: bool },
}

/// Definition→consumer pairs whose merged instruction was illegal:
/// `consumer[bi][ii]` is one past the index of the consumer that the
/// definition at `ii` of block `bi` failed to merge into, or 0.
#[derive(Default)]
struct IllegalPairs {
    consumer: Vec<Vec<u32>>,
}

impl IllegalPairs {
    fn contains(&self, bi: usize, ii: usize, jj: usize) -> bool {
        self.consumer.get(bi).and_then(|b| b.get(ii)) == Some(&(jj as u32 + 1))
    }

    fn insert(&mut self, f: &Function, bi: usize, ii: usize, jj: usize) {
        if self.consumer.is_empty() {
            self.consumer.resize_with(f.blocks.len(), Vec::new);
        }
        let b = &mut self.consumer[bi];
        if b.is_empty() {
            b.resize(f.blocks[bi].insts.len(), 0);
        }
        b[ii] = jj as u32 + 1;
    }

    /// Re-indexes block `bi` after the definition at `ii` merged into the
    /// consumer at `jj`: the pairs naming either instruction are gone, and
    /// every later instruction moved up by one.
    fn committed(&mut self, bi: usize, ii: usize, jj: usize) {
        let Some(b) = self.consumer.get_mut(bi).filter(|b| !b.is_empty()) else {
            return;
        };
        let (gone, merged) = (ii as u32 + 1, jj as u32 + 1);
        b[jj] = 0;
        b.remove(ii);
        for c in b.iter_mut() {
            if *c == gone || *c == merged {
                *c = 0;
            } else if *c > gone {
                *c -= 1;
            }
        }
    }
}

/// Attempts one combine in block `bi`, scanning its definitions in order.
///
/// Liveness is only consulted when a candidate survives every cheaper
/// test, so it is built lazily into `lv`; the caller keeps it across
/// commits that leave register liveness unchanged. A pair in `illegal` is
/// skipped before any of the tests that follow the consumer search, and
/// a pair whose merge turns out illegal joins it. The operand buffer
/// `e_regs` is reused across candidates.
fn combine_in_block(
    f: &mut Function,
    bi: usize,
    target: &Target,
    lv: &mut Option<Liveness>,
    illegal: &mut IllegalPairs,
    e_regs: &mut Vec<Reg>,
) -> Step {
    let n = f.blocks[bi].insts.len();
    'def: for ii in 0..n {
        let insts = &f.blocks[bi].insts;
        let Inst::Assign { dst: t, .. } = &insts[ii] else {
            continue;
        };
        let t = *t;
        // Find the consumers of t after ii, stopping at a redefinition.
        let mut use_site: Option<usize> = None;
        let mut occurrences = 0usize;
        let mut redefined_at: Option<usize> = None;
        for (jj, inst) in insts.iter().enumerate().take(n).skip(ii + 1) {
            let occ_here = inst.count_reg_uses(t);
            if occ_here > 0 {
                occurrences += occ_here;
                if use_site.is_none() {
                    use_site = Some(jj);
                } else if use_site != Some(jj) {
                    continue 'def; // multiple consumer instructions
                }
            }
            if inst.def() == Some(t) {
                redefined_at = Some(jj);
                break;
            }
        }
        let Some(jj) = use_site else { continue };
        if occurrences != 1 || illegal.contains(bi, ii, jj) {
            continue;
        }
        // t must be dead after the consumer.
        let dead_after = match redefined_at {
            Some(_) => true, // no further uses before the redefinition
            None => {
                let lv = lv.get_or_insert_with(|| {
                    LIVENESS_BUILDS.with(|c| c.set(c.get() + 1));
                    let cfg = Cfg::build(f);
                    Liveness::compute(f, &cfg)
                });
                let ti = lv.index_of(Item::Reg(t));
                ti.map(|x| !lv.live_out[bi].contains(x)).unwrap_or(true)
            }
        };
        if !dead_after {
            continue;
        }
        // Interference between def and use: nothing may redefine e's
        // operands, and if e reads memory nothing may write memory.
        let insts = &f.blocks[bi].insts;
        let e = match &insts[ii] {
            Inst::Assign { src, .. } => src,
            _ => unreachable!("candidate shape checked above"),
        };
        e_regs.clear();
        e.collect_regs(e_regs);
        let e_reads_mem = e.reads_memory();
        for inst in &insts[ii + 1..jj] {
            if let Some(d) = inst.def() {
                if e_regs.contains(&d) {
                    continue 'def;
                }
            }
            if e_reads_mem && inst.writes_memory() {
                continue 'def;
            }
        }
        // The consumer itself may also not redefine e's operands before
        // using them... RTL semantics evaluate the RHS before the
        // write-back, so a consumer like `x = t + x` is fine even when
        // x ∈ e_regs.
        // Build and legality-check the merged instruction.
        let mut merged = insts[jj].clone();
        let replaced = merged.substitute_reg_uses(t, e);
        debug_assert_eq!(replaced, 1);
        merged.visit_exprs_mut(&mut |x| {
            fold::fold_in_place(x);
        });
        if !target.legal_inst(&merged) {
            illegal.insert(f, bi, ii, jj);
            continue;
        }
        debug_assert!(
            {
                let mut any = false;
                merged.visit_exprs(&mut |x| any |= fold::would_fold(x));
                !any
            },
            "a legal folded instruction folds no further: {merged}"
        );
        // Substitution traded the one read of t for e's reads; folding can
        // only remove reads from there.
        let reads_kept = reg_reads(&merged) == reg_reads(&insts[jj]) - 1 + e_regs.len();
        f.blocks[bi].insts[jj] = merged;
        f.blocks[bi].insts.remove(ii);
        illegal.committed(bi, ii, jj);
        return Step::Committed { reads_kept };
    }
    Step::Exhausted
}

/// Number of register reads in `inst`, counting repeats.
fn reg_reads(inst: &Inst) -> usize {
    let mut n = 0;
    inst.visit_exprs(&mut |e| {
        e.visit(&mut |x| {
            if matches!(x, Expr::Reg(_)) {
                n += 1;
            }
        })
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpo_rtl::builder::FunctionBuilder;
    use vpo_rtl::{BinOp, Cond, Expr, Reg, Width};

    fn t() -> Target {
        Target::default()
    }

    #[test]
    fn paper_figure3_merge() {
        // r[2]=1; r[3]=r[4]+r[2]  =>  r[3]=r[4]+1
        let mut b = FunctionBuilder::new("f");
        let r2 = b.reg();
        let r3 = b.reg();
        let r4 = b.param();
        b.assign(r2, Expr::Const(1));
        b.assign(r3, Expr::bin(BinOp::Add, Expr::Reg(r4), Expr::Reg(r2)));
        b.ret(Some(Expr::Reg(r3)));
        let mut f = b.finish();
        assert!(run(&mut f, &t()));
        // r[3]=r[4]+1; RET r[3] — merging r3 into RET would produce an
        // illegal return operand, so exactly the Figure 3 pair merges.
        assert_eq!(f.inst_count(), 2);
        assert!(matches!(
            &f.blocks[0].insts[0],
            Inst::Assign { src: Expr::Bin(BinOp::Add, a, c), .. }
                if matches!(&**a, Expr::Reg(x) if *x == r4)
                    && matches!(&**c, Expr::Const(1))
        ));
    }

    #[test]
    fn address_formation_for_locals() {
        // t0=&loc; t1=M[t0]  =>  t1=M[&loc]   (enables register allocation)
        let mut b = FunctionBuilder::new("f");
        let v = b.local("v", 4);
        let t0 = b.reg();
        let t1 = b.reg();
        b.assign(t0, Expr::LocalAddr(v));
        b.assign(t1, Expr::load(Width::Word, Expr::Reg(t0)));
        b.ret(Some(Expr::Reg(t1)));
        let mut f = b.finish();
        assert!(run(&mut f, &t()));
        assert!(matches!(
            &f.blocks[0].insts[0],
            Inst::Assign { src: Expr::Load(_, a), .. } if matches!(&**a, Expr::LocalAddr(_))
        ));
    }

    #[test]
    fn collapses_register_moves() {
        // t0 = x; t1 = t0 + 1  =>  t1 = x + 1
        let mut b = FunctionBuilder::new("f");
        let x = b.param();
        let t0 = b.reg();
        let t1 = b.reg();
        b.assign(t0, Expr::Reg(x));
        b.assign(t1, Expr::bin(BinOp::Add, Expr::Reg(t0), Expr::Const(1)));
        b.ret(Some(Expr::Reg(t1)));
        let mut f = b.finish();
        assert!(run(&mut f, &t()));
        assert_eq!(f.inst_count(), 2);
    }

    #[test]
    fn refuses_illegal_merges() {
        // t0=M[a]; t1=t0+r — merging would nest a load inside an add.
        let mut b = FunctionBuilder::new("f");
        let a = b.param();
        let r = b.param();
        let t0 = b.reg();
        let t1 = b.reg();
        b.assign(t0, Expr::load(Width::Word, Expr::Reg(a)));
        b.assign(t1, Expr::bin(BinOp::Add, Expr::Reg(t0), Expr::Reg(r)));
        b.ret(Some(Expr::Reg(t1)));
        let mut f = b.finish();
        assert!(!run(&mut f, &t()));
        assert_eq!(f.inst_count(), 3);
    }

    #[test]
    fn respects_memory_interference() {
        // t0=M[a]; M[a]=z; t1=t0+1 — the load must not move past the store.
        let mut b = FunctionBuilder::new("f");
        let a = b.param();
        let z = b.param();
        let t0 = b.reg();
        let t1 = b.reg();
        b.assign(t0, Expr::load(Width::Word, Expr::Reg(a)));
        b.store(Width::Word, Expr::Reg(a), Expr::Reg(z));
        b.assign(t1, Expr::bin(BinOp::Add, Expr::Reg(t0), Expr::Const(1)));
        b.ret(Some(Expr::Reg(t1)));
        let mut f = b.finish();
        assert!(!run(&mut f, &t()));
    }

    #[test]
    fn respects_operand_redefinition() {
        // t0=x+1; x=y+1; IC=t0?5 — merging t0 into the compare would move
        // the read of x past its redefinition.
        let mut b = FunctionBuilder::new("f");
        let x = b.param();
        let y = b.param();
        let t0 = b.reg();
        b.assign(t0, Expr::bin(BinOp::Add, Expr::Reg(x), Expr::Const(1)));
        b.assign(x, Expr::bin(BinOp::Add, Expr::Reg(y), Expr::Const(1)));
        b.compare(Expr::Reg(t0), Expr::Const(5));
        let l = b.new_label();
        b.cond_branch(Cond::Lt, l);
        b.ret(Some(Expr::Reg(x)));
        b.start_block(l);
        b.ret(Some(Expr::Const(0)));
        let mut f = b.finish();
        assert!(!run(&mut f, &t()));
    }

    #[test]
    fn combines_into_compare() {
        // t0 = x + 4; IC = t0 ? 0  =>  illegal (compare lhs must be reg)...
        // but t0 = x; IC = t0 ? 4000 => IC = x ? 4000 is legal.
        let mut b = FunctionBuilder::new("f");
        let x = b.param();
        let t0 = b.reg();
        let l = b.new_label();
        b.assign(t0, Expr::Reg(x));
        b.compare(Expr::Reg(t0), Expr::Const(4000));
        b.cond_branch(Cond::Lt, l);
        b.ret(Some(Expr::Const(0)));
        b.start_block(l);
        b.ret(Some(Expr::Const(1)));
        let mut f = b.finish();
        assert!(run(&mut f, &t()));
        assert!(matches!(
            &f.blocks[0].insts[0],
            Inst::Compare { lhs: Expr::Reg(r), .. } if *r == x
        ));
    }

    #[test]
    fn triple_chain_collapses() {
        // t0=1; t1=t0+2; t2=t1+3; ret t2  =>  t2=6 (two merges + folds)
        let mut b = FunctionBuilder::new("f");
        let t0 = b.reg();
        let t1 = b.reg();
        let t2 = b.reg();
        b.assign(t0, Expr::Const(1));
        b.assign(t1, Expr::bin(BinOp::Add, Expr::Reg(t0), Expr::Const(2)));
        b.assign(t2, Expr::bin(BinOp::Add, Expr::Reg(t1), Expr::Const(3)));
        b.ret(Some(Expr::Reg(t2)));
        let mut f = b.finish();
        assert!(run(&mut f, &t()));
        // The whole chain folds into `RET 6` (a legal immediate return).
        assert_eq!(f.inst_count(), 1);
        assert!(matches!(&f.blocks[0].insts[0], Inst::Return { value: Some(Expr::Const(6)) }));
        assert!(!run(&mut f, &t()));
    }

    #[test]
    fn hard_registers_combine_after_assignment() {
        // Mirrors the post-regalloc situation: r1 = r2; r3 = r1 + 1.
        let mut f = vpo_rtl::Function::new("f");
        f.flags.regs_assigned = true;
        let r1 = Reg::hard(1);
        let r2 = Reg::hard(2);
        let r3 = Reg::hard(3);
        f.params.push(r2);
        f.blocks[0].insts = vec![
            Inst::Assign { dst: r1, src: Expr::Reg(r2) },
            Inst::Assign { dst: r3, src: Expr::bin(BinOp::Add, Expr::Reg(r1), Expr::Const(1)) },
            Inst::Return { value: Some(Expr::Reg(r3)) },
        ];
        assert!(run(&mut f, &t()));
        assert_eq!(f.inst_count(), 2);
    }

    /// The restart-from-top combiner: after every commit, fresh liveness
    /// and a rescan from block 0.
    fn restart_from_top(f: &mut Function, target: &Target) -> bool {
        let mut changed = fold_pass(f, target);
        let mut e_regs = Vec::new();
        'scan: loop {
            let mut lv = None;
            for bi in 0..f.blocks.len() {
                let mut illegal = IllegalPairs::default();
                if let Step::Committed { .. } =
                    combine_in_block(f, bi, target, &mut lv, &mut illegal, &mut e_regs)
                {
                    changed = true;
                    fold_pass(f, target);
                    continue 'scan;
                }
            }
            return changed;
        }
    }

    #[test]
    fn illegal_pairs_follow_commits() {
        let mut f = Function::new("f");
        f.blocks[0].insts = vec![Inst::Return { value: None }; 6];
        let mut illegal = IllegalPairs::default();
        for (ii, jj) in [(0, 1), (1, 3), (2, 4), (4, 5)] {
            illegal.insert(&f, 0, ii, jj);
        }
        // The definition at 1 merges into the consumer at 3.
        f.blocks[0].insts.remove(1);
        illegal.committed(0, 1, 3);
        // 0→1 named the removed definition; 2→4 and 4→5 moved up by one,
        // and the merged instruction (now at 2) holds no entry.
        assert!(!illegal.contains(0, 0, 0) && !illegal.contains(0, 0, 1));
        assert!(illegal.contains(0, 1, 3));
        assert!(!illegal.contains(0, 2, 3) && !illegal.contains(0, 2, 4));
        assert!(illegal.contains(0, 3, 4));
        assert!(!illegal.contains(0, 4, 5), "entries past the end are gone");
    }

    #[test]
    fn dropped_read_in_a_later_block_reopens_an_earlier_one() {
        // Block 0: r2 = p; q = r2 + 3 — rejected while block 1 reads r2.
        // Block 1: t0 = 0; t1 = t0 * r2 folds to t1 = 0, dropping the last
        // read of r2, so block 0 must be rescanned under fresh liveness.
        let mut b = FunctionBuilder::new("f");
        let p = b.param();
        let r2 = b.reg();
        let q = b.reg();
        let t0 = b.reg();
        let t1 = b.reg();
        let t2 = b.reg();
        b.assign(r2, Expr::Reg(p));
        b.assign(q, Expr::bin(BinOp::Add, Expr::Reg(r2), Expr::Const(3)));
        let next = b.new_label();
        b.start_block(next);
        b.assign(t0, Expr::Const(0));
        b.assign(t1, Expr::bin(BinOp::Mul, Expr::Reg(t0), Expr::Reg(r2)));
        b.assign(t2, Expr::bin(BinOp::Add, Expr::Reg(t1), Expr::Reg(q)));
        b.ret(Some(Expr::Reg(t2)));
        let f0 = b.finish();

        let mut f = f0.clone();
        let before = liveness_builds();
        assert!(run(&mut f, &t()));
        // One build for the first scan, one after the invalidating commit.
        assert_eq!(liveness_builds() - before, 2);
        assert_eq!(
            f.blocks[0].insts,
            vec![Inst::Assign { dst: q, src: Expr::bin(BinOp::Add, Expr::Reg(p), Expr::Const(3)) }]
        );
        let mut oracle = f0;
        assert!(restart_from_top(&mut oracle, &t()));
        assert_eq!(f, oracle);
    }

    #[test]
    fn later_commits_leave_earlier_rejections_standing() {
        // Block 0 defines a and b, both read again in block 2, so neither
        // combines there. Blocks 1 and 2 each hold a chain whose commits
        // keep every register read; the kept liveness must reproduce the
        // restart-from-top result with a single build.
        let mut b = FunctionBuilder::new("f");
        let x = b.param();
        let y = b.param();
        let a = b.reg();
        let bb = b.reg();
        let c = b.reg();
        let u0 = b.reg();
        let u1 = b.reg();
        let v0 = b.reg();
        let v1 = b.reg();
        let v2 = b.reg();
        b.assign(a, Expr::bin(BinOp::Add, Expr::Reg(x), Expr::Const(1)));
        b.assign(bb, Expr::bin(BinOp::Add, Expr::Reg(a), Expr::Reg(y)));
        b.assign(c, Expr::bin(BinOp::Sub, Expr::Reg(bb), Expr::Reg(a)));
        let l1 = b.new_label();
        let l2 = b.new_label();
        b.compare(Expr::Reg(c), Expr::Const(0));
        b.cond_branch(Cond::Lt, l2);
        b.start_block(l1);
        b.assign(u0, Expr::Reg(y));
        b.assign(u1, Expr::bin(BinOp::Add, Expr::Reg(u0), Expr::Const(7)));
        b.store(Width::Word, Expr::Reg(x), Expr::Reg(u1));
        b.start_block(l2);
        b.assign(v0, Expr::Reg(a));
        b.assign(v1, Expr::bin(BinOp::Add, Expr::Reg(v0), Expr::Reg(bb)));
        b.assign(v2, Expr::bin(BinOp::Shl, Expr::Reg(v1), Expr::Const(2)));
        b.ret(Some(Expr::Reg(v2)));
        let f0 = b.finish();

        let mut f = f0.clone();
        let before = liveness_builds();
        assert!(run(&mut f, &t()));
        assert_eq!(liveness_builds() - before, 1);
        // Block 0 kept its three definitions.
        assert_eq!(f.blocks[0].insts[..3], f0.blocks[0].insts[..3]);
        assert!(f.inst_count() < f0.inst_count());
        let mut oracle = f0;
        assert!(restart_from_top(&mut oracle, &t()));
        assert_eq!(f, oracle);
    }
}
