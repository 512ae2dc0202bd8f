//! The fifteen VPO optimization phases of Kulkarni et al. (CGO 2006),
//! plus the compulsory phases and the StrongARM-like target model.
//!
//! Table 1 of the paper lists the candidate code-improving phases and the
//! single-letter designations used throughout; this crate mirrors them
//! exactly:
//!
//! | Id | Phase | Module |
//! |----|-------|--------|
//! | `b` | branch chaining | [`phases::branch_chain`] |
//! | `c` | common subexpression elimination | [`phases::cse`] |
//! | `d` | remove unreachable code | [`phases::unreachable`] |
//! | `g` | loop unrolling | [`phases::loop_unroll`] |
//! | `h` | dead assignment elimination | [`phases::dead_assign`] |
//! | `i` | block reordering | [`phases::block_reorder`] |
//! | `j` | minimize loop jumps | [`phases::loop_jumps`] |
//! | `k` | register allocation | [`phases::regalloc`] |
//! | `l` | loop transformations | [`phases::loop_xform`] |
//! | `n` | code abstraction | [`phases::code_abstract`] |
//! | `o` | evaluation order determination | [`phases::eval_order`] |
//! | `q` | strength reduction | [`phases::strength_reduce`] |
//! | `r` | reverse branches | [`phases::reverse_branch`] |
//! | `s` | instruction selection | [`phases::insn_select`] |
//! | `u` | remove useless jumps | [`phases::useless_jump`] |
//!
//! Phase-ordering restrictions (Section 3 of the paper):
//!
//! * *evaluation order determination* (`o`) can only be performed before
//!   register assignment;
//! * *loop unrolling* (`g`) and the *loop transformations* (`l`), which
//!   analyze values in registers, can only be performed after register
//!   allocation (`k`) has been applied;
//! * *register allocation* (`k`) can only be useful after instruction
//!   selection (`s`), because only then do candidate loads and stores
//!   contain the addresses of local scalars — in this implementation that
//!   dependence is *behavioural* (k is simply dormant until `s` creates the
//!   direct-address patterns), which reproduces the paper's observed
//!   `s → k` enabling relation.
//!
//! Two further compulsory transformations mirror VPO:
//!
//! * **register assignment** ([`assign`]) maps pseudo registers to hard
//!   registers and is performed implicitly before the first phase in a
//!   sequence that requires registers;
//! * **merge basic blocks / eliminate empty blocks** ([`normalize`]) are
//!   performed implicitly after any transformation that could enable them;
//!   they only change the control-flow representation seen by the compiler
//!   and never add or remove real instructions;
//! * **fix entry exit** ([`finalize`]) inserts the activation-record
//!   management at emission time, after the last code-improving phase.
//!
//! # Example
//!
//! ```
//! use vpo_opt::{attempt, PhaseId, Target};
//! use vpo_rtl::builder::FunctionBuilder;
//! use vpo_rtl::{BinOp, Expr};
//!
//! let mut b = FunctionBuilder::new("f");
//! let t0 = b.reg();
//! let t1 = b.reg();
//! b.assign(t0, Expr::Const(1));
//! b.assign(t1, Expr::bin(BinOp::Add, Expr::Reg(t0), Expr::Const(2)));
//! b.ret(Some(Expr::Reg(t1)));
//! let mut f = b.finish();
//!
//! let target = Target::default();
//! // Instruction selection folds the chain of constants.
//! let outcome = attempt(&mut f, PhaseId::InsnSelect, &target);
//! assert!(outcome.active);
//! ```

pub mod assign;
pub mod batch;
pub mod emit;
pub mod facts;
pub mod finalize;
pub mod normalize;
pub mod phases;
pub mod target;

pub use target::Target;

use vpo_rtl::Function;

/// The fifteen candidate optimization phases, with the paper's
/// single-letter designations.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PhaseId {
    /// `b` — branch chaining.
    BranchChain,
    /// `c` — common subexpression elimination (includes global constant and
    /// copy propagation).
    Cse,
    /// `d` — remove unreachable code.
    Unreachable,
    /// `g` — loop unrolling (fixed factor of two, as in the paper).
    LoopUnroll,
    /// `h` — dead assignment elimination.
    DeadAssign,
    /// `i` — block reordering.
    BlockReorder,
    /// `j` — minimize loop jumps.
    LoopJumps,
    /// `k` — register allocation (coloring of local scalars).
    RegAlloc,
    /// `l` — loop transformations (invariant code motion, loop strength
    /// reduction).
    LoopXform,
    /// `n` — code abstraction (cross-jumping and code hoisting).
    CodeAbstract,
    /// `o` — evaluation order determination.
    EvalOrder,
    /// `q` — strength reduction (multiply by constant into shifts/adds).
    StrengthReduce,
    /// `r` — reverse branches.
    ReverseBranch,
    /// `s` — instruction selection.
    InsnSelect,
    /// `u` — remove useless jumps.
    UselessJump,
}

impl PhaseId {
    /// All phases, in the paper's table order (b c d g h i j k l n o q r s u).
    pub const ALL: [PhaseId; 15] = [
        PhaseId::BranchChain,
        PhaseId::Cse,
        PhaseId::Unreachable,
        PhaseId::LoopUnroll,
        PhaseId::DeadAssign,
        PhaseId::BlockReorder,
        PhaseId::LoopJumps,
        PhaseId::RegAlloc,
        PhaseId::LoopXform,
        PhaseId::CodeAbstract,
        PhaseId::EvalOrder,
        PhaseId::StrengthReduce,
        PhaseId::ReverseBranch,
        PhaseId::InsnSelect,
        PhaseId::UselessJump,
    ];

    /// Number of phases (15).
    pub const COUNT: usize = 15;

    /// Dense index of the phase in [`PhaseId::ALL`]: the discriminant, since
    /// `ALL` lists the variants in declaration order (checked at compile
    /// time below).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Builds a phase from its dense index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= PhaseId::COUNT`.
    pub fn from_index(i: usize) -> PhaseId {
        PhaseId::ALL[i]
    }

    /// The paper's single-letter designation.
    pub fn letter(self) -> char {
        match self {
            PhaseId::BranchChain => 'b',
            PhaseId::Cse => 'c',
            PhaseId::Unreachable => 'd',
            PhaseId::LoopUnroll => 'g',
            PhaseId::DeadAssign => 'h',
            PhaseId::BlockReorder => 'i',
            PhaseId::LoopJumps => 'j',
            PhaseId::RegAlloc => 'k',
            PhaseId::LoopXform => 'l',
            PhaseId::CodeAbstract => 'n',
            PhaseId::EvalOrder => 'o',
            PhaseId::StrengthReduce => 'q',
            PhaseId::ReverseBranch => 'r',
            PhaseId::InsnSelect => 's',
            PhaseId::UselessJump => 'u',
        }
    }

    /// Parses a single-letter designation.
    pub fn from_letter(c: char) -> Option<PhaseId> {
        PhaseId::ALL.iter().copied().find(|p| p.letter() == c)
    }

    /// The full phase name as used in Table 1 of the paper.
    pub fn name(self) -> &'static str {
        match self {
            PhaseId::BranchChain => "branch chaining",
            PhaseId::Cse => "common subexpression elimination",
            PhaseId::Unreachable => "remove unreachable code",
            PhaseId::LoopUnroll => "loop unrolling",
            PhaseId::DeadAssign => "dead assignment elimination",
            PhaseId::BlockReorder => "block reordering",
            PhaseId::LoopJumps => "minimize loop jumps",
            PhaseId::RegAlloc => "register allocation",
            PhaseId::LoopXform => "loop transformations",
            PhaseId::CodeAbstract => "code abstraction",
            PhaseId::EvalOrder => "evaluation order determination",
            PhaseId::StrengthReduce => "strength reduction",
            PhaseId::ReverseBranch => "reverse branches",
            PhaseId::InsnSelect => "instruction selection",
            PhaseId::UselessJump => "remove useless jumps",
        }
    }

    /// Whether the phase analyzes or transforms register contents and thus
    /// triggers implicit register assignment when attempted.
    pub fn requires_registers(self) -> bool {
        match self {
            PhaseId::Cse
            | PhaseId::LoopUnroll
            | PhaseId::DeadAssign
            | PhaseId::RegAlloc
            | PhaseId::LoopXform
            | PhaseId::CodeAbstract
            | PhaseId::StrengthReduce
            | PhaseId::InsnSelect => true,
            PhaseId::BranchChain
            | PhaseId::Unreachable
            | PhaseId::BlockReorder
            | PhaseId::LoopJumps
            | PhaseId::EvalOrder
            | PhaseId::ReverseBranch
            | PhaseId::UselessJump => false,
        }
    }

    /// Whether the phase is legal given the function's milestone flags
    /// (Section 3 ordering restrictions). Illegal phases are treated as
    /// dormant by the enumeration, matching the paper's statistics.
    pub fn is_legal(self, flags: vpo_rtl::FuncFlags) -> bool {
        match self {
            PhaseId::EvalOrder => !flags.regs_assigned,
            PhaseId::LoopUnroll | PhaseId::LoopXform => flags.reg_allocated,
            _ => true,
        }
    }

    /// Whether [`attempt`] could possibly report this phase active on an
    /// instance summarized by `facts`. A `false` answer is a *proof of
    /// dormancy*: the enumerator records the attempt dormant without
    /// cloning the function or running the phase.
    ///
    /// Every rule is conservative against the phase implementation it
    /// filters, and — for phases with [`requires_registers`] — uses only
    /// facts invariant under implicit register assignment and spilling
    /// (see the [`facts`] module docs for the full soundness argument):
    ///
    /// * branch chaining only changes a target by following a
    ///   trivial-jump block, so some [`Inst::Jump`](vpo_rtl::Inst::Jump)
    ///   must exist;
    /// * unreachable-code removal is active iff some block is
    ///   unreachable (exact);
    /// * the three loop phases (`g`, `j`, `l`) all iterate the natural
    ///   loops of the CFG and are dormant without one;
    /// * the loop transformations (`l`) also need, in some loop, an
    ///   instruction that passes code motion's pure candidate tests or a
    ///   shift or multiply of a basic induction variable — but spilling
    ///   can add loads to a loop, so the rule only fires once
    ///   `regs_assigned` is already true;
    /// * block reordering moves a block only to replace a terminating
    ///   jump, so some jump must exist;
    /// * register allocation needs an eligible local, and an eligible
    ///   local is a scalar slot whose address occurs somewhere — but
    ///   spilling during the implicit assignment can *create* scalar
    ///   locals and their addresses, so the rule only fires once
    ///   `regs_assigned` is already true;
    /// * code abstraction's cross-jump form needs predecessors ending in
    ///   explicit jumps and its hoist form needs a two-way (conditional)
    ///   branch;
    /// * strength reduction only rewrites multiplies;
    /// * reverse branches needs a conditional branch in either of its
    ///   shapes;
    /// * useless-jump removal is active iff some non-last block ends by
    ///   transferring to the next positional block (exact);
    /// * CSE, dead-assignment elimination, evaluation-order
    ///   determination, and instruction selection have no cheap sound
    ///   dormancy proof and are always attempted.
    ///
    /// [`requires_registers`]: PhaseId::requires_registers
    pub fn can_be_active(self, facts: &facts::Facts) -> bool {
        if !self.is_legal(facts.flags) {
            return false;
        }
        match self {
            PhaseId::BranchChain | PhaseId::BlockReorder => facts.has_jump,
            PhaseId::Unreachable => facts.has_unreachable,
            PhaseId::LoopUnroll | PhaseId::LoopJumps => facts.loop_count > 0,
            PhaseId::LoopXform => {
                facts.loop_count > 0
                    && (!facts.flags.regs_assigned || facts.has_loop_xform_candidate)
            }
            PhaseId::RegAlloc => !facts.flags.regs_assigned || facts.has_scalar_local_addr,
            PhaseId::CodeAbstract => facts.has_jump || facts.has_cond_branch,
            PhaseId::StrengthReduce => facts.has_mul,
            PhaseId::ReverseBranch => facts.has_cond_branch,
            PhaseId::UselessJump => facts.has_jump_to_next,
            PhaseId::Cse | PhaseId::DeadAssign | PhaseId::EvalOrder | PhaseId::InsnSelect => true,
        }
    }
}

const _: () = {
    let mut i = 0;
    while i < PhaseId::COUNT {
        assert!(PhaseId::ALL[i] as usize == i, "PhaseId::ALL must list variants in order");
        i += 1;
    }
};

impl std::fmt::Display for PhaseId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// Result of attempting a phase on a function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Outcome {
    /// The phase itself changed the program representation (the paper's
    /// *active*; otherwise the attempt was *dormant*).
    pub active: bool,
    /// Implicit register assignment ran before the phase (the function was
    /// mutated even if the phase was dormant).
    pub assignment_ran: bool,
}

/// Attempts a single optimization phase on `f`, running implicit register
/// assignment first if the phase requires registers, and implicit basic
/// block normalization afterwards if the phase was active.
///
/// Returns the attempt [`Outcome`]. An illegal phase (per
/// [`PhaseId::is_legal`]) is reported dormant without touching `f`.
pub fn attempt(f: &mut Function, phase: PhaseId, target: &Target) -> Outcome {
    if !phase.is_legal(f.flags) {
        return Outcome { active: false, assignment_ran: false };
    }
    let mut assignment_ran = false;
    if phase.requires_registers() && !f.flags.regs_assigned {
        assign::assign_registers(f, target);
        assignment_ran = true;
    }
    let active = phases::run(phase, f, target);
    if active {
        if phase == PhaseId::RegAlloc {
            f.flags.reg_allocated = true;
        }
        normalize::normalize(f);
    }
    Outcome { active, assignment_ran }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters_match_the_paper() {
        let letters: String = PhaseId::ALL.iter().map(|p| p.letter()).collect();
        assert_eq!(letters, "bcdghijklnoqrsu");
    }

    #[test]
    fn letter_round_trip() {
        for p in PhaseId::ALL {
            assert_eq!(PhaseId::from_letter(p.letter()), Some(p));
            assert_eq!(PhaseId::from_index(p.index()), p);
        }
        assert_eq!(PhaseId::from_letter('z'), None);
    }

    #[test]
    fn legality_restrictions() {
        use vpo_rtl::FuncFlags;
        let start = FuncFlags::default();
        let assigned = FuncFlags { regs_assigned: true, reg_allocated: false };
        let allocated = FuncFlags { regs_assigned: true, reg_allocated: true };
        assert!(PhaseId::EvalOrder.is_legal(start));
        assert!(!PhaseId::EvalOrder.is_legal(assigned));
        assert!(!PhaseId::LoopUnroll.is_legal(start));
        assert!(!PhaseId::LoopXform.is_legal(assigned));
        assert!(PhaseId::LoopUnroll.is_legal(allocated));
        assert!(PhaseId::Cse.is_legal(start) && PhaseId::Cse.is_legal(allocated));
    }

    #[test]
    fn prefilters_respect_legality_and_never_filter_the_open_phases() {
        use vpo_rtl::builder::FunctionBuilder;
        use vpo_rtl::Expr;
        let mut b = FunctionBuilder::new("t");
        let r = b.reg();
        b.assign(r, Expr::Const(1));
        b.ret(Some(Expr::Reg(r)));
        let mut f = b.finish();
        f.flags.regs_assigned = true;
        let facts = facts::Facts::of(&f);
        for p in PhaseId::ALL {
            // Illegal implies provably dormant.
            if !p.is_legal(f.flags) {
                assert!(!p.can_be_active(&facts), "{p}");
            }
        }
        // Phases with no cheap dormancy proof are always attempted.
        for p in [PhaseId::Cse, PhaseId::DeadAssign, PhaseId::InsnSelect] {
            assert!(p.can_be_active(&facts), "{p}");
        }
        // Straight-line code proves all control-flow phases dormant.
        for p in [
            PhaseId::BranchChain,
            PhaseId::Unreachable,
            PhaseId::BlockReorder,
            PhaseId::LoopJumps,
            PhaseId::CodeAbstract,
            PhaseId::StrengthReduce,
            PhaseId::ReverseBranch,
            PhaseId::UselessJump,
        ] {
            assert!(!p.can_be_active(&facts), "{p}");
        }
    }
}
