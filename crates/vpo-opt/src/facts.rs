//! Cheap per-instance fact summaries backing the enumerator's sound
//! dormant-phase prefilters.
//!
//! [`Facts::of`] distills a function instance into a handful of booleans
//! and counts in one pass over the instructions plus one CFG/loop
//! analysis. [`PhaseId::can_be_active`](crate::PhaseId::can_be_active)
//! consults the summary to rule a phase *provably dormant* without cloning
//! the function or running the phase at all.
//!
//! # Soundness
//!
//! Every rule must be conservative: `can_be_active(phase, &facts) == false`
//! is a *proof* that [`attempt`](crate::attempt) on this exact instance
//! would report the phase dormant. A false `true` merely costs a wasted
//! attempt; a false `false` would silently change the enumerated space, so
//! every rule is justified against the phase implementation it filters
//! (and covered by the cross-engine equivalence and prefilter-soundness
//! tests in the `phase-order` crate).
//!
//! One subtlety: phases with [`requires_registers`] trigger implicit
//! register *assignment* before running, and assignment may **spill**,
//! which introduces new scalar locals and new load/store instructions. The
//! facts are computed on the pre-assignment parent, so any fact consumed
//! by the rule of a register-requiring phase must be *invariant under
//! assignment and spilling*. Control flow qualifies (assignment inserts no
//! control transfers and no blocks, so jumps, conditional branches, loops
//! and reachability are untouched); multiply operators qualify (spill code
//! is loads and stores; coloring only renames registers). The addresses
//! of scalar locals and the loop-transformation candidates do **not**
//! qualify — spilling creates slots and their loads and stores — which is
//! why the two rules that read them only fire once `regs_assigned` is
//! already true, when no assignment runs and the facts describe exactly
//! the function the phase sees.
//!
//! # The two candidate scans
//!
//! * **Register allocation (`k`).** The phase promotes only locals that
//!   pass its eligibility test, and an eligible local must be *accessed*:
//!   a load or store whose address is the slot's address, written
//!   directly (`M[&v]`) or held by a register that some `r = &v` set. Both
//!   need an [`Expr::LocalAddr`] of a scalar slot somewhere in the
//!   function (non-scalar slots are never eligible). Without one the phase
//!   is dormant: [`Facts::has_scalar_local_addr`].
//! * **Loop transformations (`l`).** The phase applies loop-invariant code
//!   motion and loop strength reduction to a fixpoint, trying every
//!   natural loop in turn and returning at the first change. On the
//!   unmodified function, code motion can commit only an instruction that
//!   passes its pure candidate tests (a non-trivial computation, the
//!   loop's only definition of its destination, over registers the loop
//!   does not define, reading no memory the loop may write, and unable to
//!   trap); liveness and preheader creation can only reject it further.
//!   Strength reduction rewrites only `t = i << c` or a multiply of `i`,
//!   where `i` is a basic induction variable (its only in-loop definition
//!   is `i = i ± c`). If no loop holds either, the first round changes
//!   nothing and the phase is dormant: [`Facts::has_loop_xform_candidate`].
//!   The scan uses the loops this summary already finds and ignores the
//!   target, so it over-approximates the phase's own tests.
//!
//! [`requires_registers`]: crate::PhaseId::requires_registers

use vpo_rtl::cfg::Cfg;
use vpo_rtl::expr::BinOp;
use vpo_rtl::{loops, Expr, FuncFlags, Function, Inst};

use crate::phases::loop_xform;

/// A conservative summary of one function instance, computed once per
/// frontier entry and consulted for all 15 phase attempts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Facts {
    /// The instance's milestone flags (legality inputs).
    pub flags: FuncFlags,
    /// Number of basic blocks.
    pub block_count: u32,
    /// Number of natural loops in the CFG.
    pub loop_count: u32,
    /// Some instruction is an unconditional [`Inst::Jump`].
    pub has_jump: bool,
    /// Some instruction is a conditional branch.
    pub has_cond_branch: bool,
    /// Some expression contains a [`BinOp::Mul`].
    pub has_mul: bool,
    /// Some block is unreachable from the entry block.
    pub has_unreachable: bool,
    /// Some non-last block's final instruction is a jump or conditional
    /// branch targeting the label of the next *positional* block — exactly
    /// the shape the useless-jump phase removes or converts on its first
    /// pass.
    pub has_jump_to_next: bool,
    /// Some expression takes the address of a scalar-sized local slot (a
    /// prerequisite for the register-allocation phase). Scanned only once
    /// registers are assigned; false otherwise.
    pub has_scalar_local_addr: bool,
    /// Some natural loop holds an instruction that the loop
    /// transformations could move or strength-reduce (see the module
    /// docs). Scanned only when they are legal and registers are
    /// assigned; false otherwise.
    pub has_loop_xform_candidate: bool,
}

impl Facts {
    /// Computes the summary: one scan over all instructions and operand
    /// expressions, one CFG construction with reachability, one loop
    /// search, and once `l` is legal one scan of each loop's body.
    /// The two candidate scans run only once registers are assigned.
    pub fn of(f: &Function) -> Facts {
        let mut has_jump = false;
        let mut has_cond_branch = false;
        let mut has_mul = false;
        // `k`'s rule reads the address scan only once registers are
        // assigned (see the module docs).
        let scan_addrs = f.flags.regs_assigned && f.locals.iter().any(|s| s.is_scalar());
        let mut has_scalar_local_addr = false;
        for b in &f.blocks {
            for i in &b.insts {
                match i {
                    Inst::Jump { .. } => has_jump = true,
                    Inst::CondBranch { .. } => has_cond_branch = true,
                    _ => {}
                }
                if !has_mul || scan_addrs && !has_scalar_local_addr {
                    i.visit_exprs(&mut |e| {
                        e.visit(&mut |sub| match sub {
                            Expr::Bin(BinOp::Mul, ..) => has_mul = true,
                            Expr::LocalAddr(v)
                                if scan_addrs && f.locals[v.0 as usize].is_scalar() =>
                            {
                                has_scalar_local_addr = true
                            }
                            _ => {}
                        });
                    });
                }
            }
        }
        let mut has_jump_to_next = false;
        for w in f.blocks.windows(2) {
            if let Some(Inst::Jump { target } | Inst::CondBranch { target, .. }) = w[0].insts.last()
            {
                if *target == w[1].label {
                    has_jump_to_next = true;
                    break;
                }
            }
        }
        let cfg = Cfg::build(f);
        let has_unreachable = cfg.reachable().iter().any(|r| !*r);
        let loops = loops::find_loops(&cfg);
        let has_loop_xform_candidate = f.flags.reg_allocated
            && f.flags.regs_assigned
            && loops.iter().any(|l| loop_xform::may_act(f, l));
        Facts {
            flags: f.flags,
            block_count: f.blocks.len() as u32,
            loop_count: loops.len() as u32,
            has_jump,
            has_cond_branch,
            has_mul,
            has_unreachable,
            has_jump_to_next,
            has_scalar_local_addr,
            has_loop_xform_candidate,
        }
    }

    /// The potential-active-phase mask: bit `i` set iff
    /// [`can_be_active`](crate::PhaseId::can_be_active) cannot rule
    /// phase `PhaseId::from_index(i)` dormant on an instance with these
    /// facts. Because every `can_be_active` rule is conservative, the
    /// mask *over*-approximates the instance's true active set: a clear
    /// bit is a proof of dormancy, a set bit only a possibility. Only
    /// this module's tests call it: the semantic-pruned merge tier does
    /// not compare masks, since a phase that both instances may fire can
    /// take them to different classes; its lookahead
    /// (`SemanticContext::subsumes` in `phase-order`) applies the phases
    /// and checks where the successors land.
    pub fn active_phase_mask(&self) -> u16 {
        let mut mask = 0u16;
        for p in crate::PhaseId::ALL {
            if p.can_be_active(self) {
                mask |= 1 << p.index();
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhaseId;
    use vpo_rtl::builder::FunctionBuilder;
    use vpo_rtl::expr::Cond;
    use vpo_rtl::{Reg, Width};

    #[test]
    fn straight_line_code_has_no_control_facts() {
        let mut b = FunctionBuilder::new("s");
        let r = b.reg();
        b.assign(r, Expr::Const(1));
        b.ret(Some(Expr::Reg(r)));
        let facts = Facts::of(&b.finish());
        assert!(!facts.has_jump);
        assert!(!facts.has_cond_branch);
        assert!(!facts.has_mul);
        assert!(!facts.has_unreachable);
        assert!(!facts.has_jump_to_next);
        assert_eq!(facts.loop_count, 0);
        assert_eq!(facts.block_count, 1);
    }

    #[test]
    fn loop_and_mul_facts() {
        // while (i < n) { acc = acc * 2; i = i + 1 }  as a bottom-test loop.
        let mut b = FunctionBuilder::new("l");
        let (i, n, acc) = (b.reg(), b.reg(), b.reg());
        let head = b.new_label();
        b.start_block(head);
        b.assign(acc, Expr::bin(BinOp::Mul, Expr::Reg(acc), Expr::Const(2)));
        b.assign(i, Expr::bin(BinOp::Add, Expr::Reg(i), Expr::Const(1)));
        b.compare(Expr::Reg(i), Expr::Reg(n));
        b.cond_branch(Cond::Lt, head);
        b.ret(Some(Expr::Reg(acc)));
        let facts = Facts::of(&b.finish());
        assert!(facts.has_mul);
        assert!(facts.has_cond_branch);
        assert_eq!(facts.loop_count, 1);
    }

    #[test]
    fn phase_mask_mirrors_can_be_active() {
        let mut b = FunctionBuilder::new("m");
        let r = b.reg();
        b.assign(r, Expr::bin(BinOp::Mul, Expr::Reg(r), Expr::Const(3)));
        b.ret(Some(Expr::Reg(r)));
        let facts = Facts::of(&b.finish());
        let mask = facts.active_phase_mask();
        for p in crate::PhaseId::ALL {
            assert_eq!(
                mask >> p.index() & 1 == 1,
                p.can_be_active(&facts),
                "mask bit disagrees with can_be_active for {p:?}"
            );
        }
        // Straight-line multiply-bearing code: strength reduction stays
        // possible, loop phases are provably dormant.
        assert!(mask >> crate::PhaseId::StrengthReduce.index() & 1 == 1);
        assert!(mask >> crate::PhaseId::LoopUnroll.index() & 1 == 0);
    }

    #[test]
    fn register_allocation_needs_a_scalar_address_once_assigned() {
        let build = |with_access: bool| {
            let mut b = FunctionBuilder::new("k");
            let v = b.local("v", 4);
            let buf = b.local("buf", 16);
            let r = b.reg();
            b.assign(r, Expr::LocalAddr(buf));
            if with_access {
                b.store(Width::Word, Expr::LocalAddr(v), Expr::Reg(r));
            }
            b.ret(Some(Expr::Reg(r)));
            b.finish()
        };
        // Only the array's address occurs: no local can be promoted.
        let mut f = build(false);
        assert!(!Facts::of(&f).has_scalar_local_addr);
        assert!(PhaseId::RegAlloc.can_be_active(&Facts::of(&f)), "spilling may add locals");
        f.flags.regs_assigned = true;
        assert!(!PhaseId::RegAlloc.can_be_active(&Facts::of(&f)));
        let mut f = build(true);
        f.flags.regs_assigned = true;
        assert!(Facts::of(&f).has_scalar_local_addr);
        assert!(PhaseId::RegAlloc.can_be_active(&Facts::of(&f)));
    }

    #[test]
    fn loop_transformations_need_a_candidate_once_allocated() {
        // do { body; i = i + 1 } while (i < n), with `body` varying; the
        // body gets the registers [i, t, a].
        let build = |body: &dyn Fn(&mut FunctionBuilder, [Reg; 3])| {
            let mut b = FunctionBuilder::new("l");
            let (i, n, a, t) = (b.param(), b.param(), b.param(), b.reg());
            let head = b.new_label();
            b.start_block(head);
            body(&mut b, [i, t, a]);
            b.assign(i, Expr::bin(BinOp::Add, Expr::Reg(i), Expr::Const(1)));
            b.compare(Expr::Reg(i), Expr::Reg(n));
            b.cond_branch(Cond::Lt, head);
            b.ret(Some(Expr::Reg(i)));
            let mut f = b.finish();
            f.flags.regs_assigned = true;
            f.flags.reg_allocated = true;
            f
        };
        // The loop only steps its induction variable: nothing to move or
        // reduce, and the phase is dormant.
        let f = build(&|_, _| {});
        let facts = Facts::of(&f);
        assert!(facts.loop_count == 1 && !facts.has_loop_xform_candidate);
        assert!(!PhaseId::LoopXform.can_be_active(&facts));
        assert!(!crate::attempt(&mut f.clone(), PhaseId::LoopXform, &Default::default()).active);
        // `t = t + a` varies in the loop: still nothing to move.
        let f =
            build(&|b, [_, t, a]| b.assign(t, Expr::bin(BinOp::Add, Expr::Reg(t), Expr::Reg(a))));
        assert!(!Facts::of(&f).has_loop_xform_candidate);
        // `t = a * a` is invariant: a code-motion candidate.
        let f =
            build(&|b, [_, t, a]| b.assign(t, Expr::bin(BinOp::Mul, Expr::Reg(a), Expr::Reg(a))));
        assert!(PhaseId::LoopXform.can_be_active(&Facts::of(&f)));
        // `t = i << 2` and `t = i * a` are strength-reduction candidates,
        // and the phase does reduce them.
        let mul =
            build(&|b, [i, t, a]| b.assign(t, Expr::bin(BinOp::Mul, Expr::Reg(i), Expr::Reg(a))));
        let mut f =
            build(&|b, [i, t, _]| b.assign(t, Expr::bin(BinOp::Shl, Expr::Reg(i), Expr::Const(2))));
        for g in [&mul, &f] {
            assert!(PhaseId::LoopXform.can_be_active(&Facts::of(g)));
            assert!(crate::attempt(&mut g.clone(), PhaseId::LoopXform, &Default::default()).active);
        }
        // Before register assignment the scan does not run, and the rule
        // falls back to the loop count.
        f.flags.regs_assigned = false;
        let facts = Facts::of(&f);
        assert!(!facts.has_loop_xform_candidate && PhaseId::LoopXform.can_be_active(&facts));
    }

    #[test]
    fn jump_to_next_is_positional() {
        let mut b = FunctionBuilder::new("j");
        let l = b.new_label();
        b.jump(l);
        b.start_block(l);
        b.ret(None);
        let f = b.finish();
        let facts = Facts::of(&f);
        assert!(facts.has_jump);
        assert!(facts.has_jump_to_next);

        // Same instructions, but the jump crosses an intervening block:
        // no longer a *useless* (next-positional) jump.
        let mut b = FunctionBuilder::new("j2");
        let mid = b.new_label();
        let l = b.new_label();
        b.jump(l);
        b.start_block(mid);
        b.ret(None);
        b.start_block(l);
        b.ret(None);
        let facts = Facts::of(&b.finish());
        assert!(facts.has_jump);
        assert!(!facts.has_jump_to_next);
        assert!(facts.has_unreachable, "the skipped block is unreachable");
    }
}
