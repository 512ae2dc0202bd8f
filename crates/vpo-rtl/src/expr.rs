//! Expression trees — the right-hand sides (and address operands) of RTLs.
//!
//! Unoptimized code produced by the front end only ever contains *atomic*
//! expressions (a single operator applied to leaves). The instruction
//! selection phase (`s`) symbolically merges instructions, producing deeper
//! trees, but only when the merged RTL is still a legal target instruction.

use crate::function::LocalId;
use crate::Reg;

/// Identifies a global symbol in a [`Program`](crate::Program).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SymId(pub u32);

impl std::fmt::Display for SymId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Memory access width.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Width {
    /// A single byte, zero-extended on load.
    Byte,
    /// A 32-bit word.
    Word,
}

impl Width {
    /// Size of the access in bytes.
    pub fn bytes(self) -> i64 {
        match self {
            Width::Byte => 1,
            Width::Word => 4,
        }
    }
}

/// Binary operators available in RTL expressions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BinOp {
    /// Two's complement addition.
    Add,
    /// Two's complement subtraction.
    Sub,
    /// Two's complement multiplication.
    Mul,
    /// Signed division (traps on division by zero in the simulator).
    Div,
    /// Signed remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left.
    Shl,
    /// Arithmetic (sign-propagating) shift right.
    AShr,
    /// Logical (zero-filling) shift right.
    LShr,
}

impl BinOp {
    /// Returns `true` for operators where `a op b == b op a`.
    pub fn is_commutative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor)
    }

    /// Constant-folds `a op b` using 32-bit wrapping semantics.
    ///
    /// Returns `None` for division or remainder by zero and for shift
    /// amounts outside `0..32` (those would be undefined on the target, so
    /// the optimizer must not fold them away).
    pub fn eval(self, a: i32, b: i32) -> Option<i32> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 || (a == i32::MIN && b == -1) {
                    return None;
                }
                a.wrapping_div(b)
            }
            BinOp::Rem => {
                if b == 0 || (a == i32::MIN && b == -1) {
                    return None;
                }
                a.wrapping_rem(b)
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => {
                if !(0..32).contains(&b) {
                    return None;
                }
                a.wrapping_shl(b as u32)
            }
            BinOp::AShr => {
                if !(0..32).contains(&b) {
                    return None;
                }
                a.wrapping_shr(b as u32)
            }
            BinOp::LShr => {
                if !(0..32).contains(&b) {
                    return None;
                }
                ((a as u32).wrapping_shr(b as u32)) as i32
            }
        })
    }
}

impl std::fmt::Display for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::AShr => ">>",
            BinOp::LShr => ">>>",
        };
        f.write_str(s)
    }
}

/// Unary operators available in RTL expressions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum UnOp {
    /// Two's complement negation.
    Neg,
    /// Bitwise complement.
    Not,
}

impl UnOp {
    /// Constant-folds `op a` with 32-bit wrapping semantics.
    pub fn eval(self, a: i32) -> i32 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => !a,
        }
    }
}

impl std::fmt::Display for UnOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::Not => "~",
        })
    }
}

/// Condition codes tested by conditional branches (`PC = IC <cond> 0, L`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less than.
    Lt,
    /// Signed less than or equal.
    Le,
    /// Signed greater than.
    Gt,
    /// Signed greater than or equal.
    Ge,
}

impl Cond {
    /// The condition that is true exactly when `self` is false; used by the
    /// *reverse branches* phase.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }

    /// Evaluates the condition over the signed comparison `a ? b`.
    pub fn eval(self, a: i32, b: i32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }
}

impl std::fmt::Display for Cond {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Cond::Eq => "==",
            Cond::Ne => "!=",
            Cond::Lt => "<",
            Cond::Le => "<=",
            Cond::Gt => ">",
            Cond::Ge => ">=",
        })
    }
}

/// An RTL expression tree.
///
/// Unoptimized code contains only *atomic* shapes (one operator over
/// leaves); the instruction-selection phase produces deeper trees subject to
/// the target legality model of the `vpo-opt` crate.
#[derive(PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Expr {
    /// The value held in a register.
    Reg(Reg),
    /// A 32-bit integer constant (stored widened for convenience).
    Const(i64),
    /// The high part of a global symbol's address (`HI[sym]`).
    Hi(SymId),
    /// The low part of a global symbol's address (`LO[sym]`), only
    /// meaningful as the right operand of an addition.
    Lo(SymId),
    /// The address of a local stack slot.
    LocalAddr(LocalId),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// A unary operation.
    Un(UnOp, Box<Expr>),
    /// A load from memory (`M[addr]`).
    Load(Width, Box<Expr>),
}

/// Hand-written so that `clone_from` can reuse the destination's `Box`
/// allocations when source and destination have matching shapes — the hot
/// path of the enumerator's scratch-buffer `Function::copy_from`, where the
/// destination usually holds the previous attempt over the same parent.
/// `Vec::clone_from` propagates this element-wise through blocks and
/// instruction operands.
impl Clone for Expr {
    fn clone(&self) -> Expr {
        match self {
            Expr::Reg(r) => Expr::Reg(*r),
            Expr::Const(c) => Expr::Const(*c),
            Expr::Hi(s) => Expr::Hi(*s),
            Expr::Lo(s) => Expr::Lo(*s),
            Expr::LocalAddr(l) => Expr::LocalAddr(*l),
            Expr::Bin(op, a, b) => Expr::Bin(*op, a.clone(), b.clone()),
            Expr::Un(op, a) => Expr::Un(*op, a.clone()),
            Expr::Load(w, a) => Expr::Load(*w, a.clone()),
        }
    }

    fn clone_from(&mut self, source: &Expr) {
        match (&mut *self, source) {
            (Expr::Bin(op, a, b), Expr::Bin(sop, sa, sb)) => {
                *op = *sop;
                a.as_mut().clone_from(sa);
                b.as_mut().clone_from(sb);
            }
            (Expr::Un(op, a), Expr::Un(sop, sa)) => {
                *op = *sop;
                a.as_mut().clone_from(sa);
            }
            (Expr::Load(w, a), Expr::Load(sw, sa)) => {
                *w = *sw;
                a.as_mut().clone_from(sa);
            }
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl Expr {
    /// Convenience constructor for a binary operation.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Convenience constructor for a unary operation.
    pub fn un(op: UnOp, a: Expr) -> Expr {
        Expr::Un(op, Box::new(a))
    }

    /// Convenience constructor for a memory load.
    pub fn load(width: Width, addr: Expr) -> Expr {
        Expr::Load(width, Box::new(addr))
    }

    /// Returns the constant value if the expression is a constant leaf.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Expr::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// Returns `true` if the expression contains a memory load anywhere.
    pub fn reads_memory(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, Expr::Load(..)) {
                found = true;
            }
        });
        found
    }

    /// Calls `f` on this expression and every sub-expression, pre-order.
    pub fn visit<F: FnMut(&Expr)>(&self, f: &mut F) {
        f(self);
        match self {
            Expr::Bin(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Un(_, a) => a.visit(f),
            Expr::Load(_, a) => a.visit(f),
            _ => {}
        }
    }

    /// Calls `f` on this expression and every sub-expression, allowing
    /// mutation; traversal is pre-order, and `f` sees each node *before* its
    /// (possibly replaced) children are visited.
    pub fn visit_mut<F: FnMut(&mut Expr)>(&mut self, f: &mut F) {
        f(self);
        match self {
            Expr::Bin(_, a, b) => {
                a.visit_mut(f);
                b.visit_mut(f);
            }
            Expr::Un(_, a) => a.visit_mut(f),
            Expr::Load(_, a) => a.visit_mut(f),
            _ => {}
        }
    }

    /// Collects every register used by the expression into `out`.
    pub fn collect_regs(&self, out: &mut Vec<Reg>) {
        self.visit(&mut |e| {
            if let Expr::Reg(r) = e {
                out.push(*r);
            }
        });
    }

    /// Counts the occurrences of register `r` in this expression — the
    /// number of times [`collect_regs`](Expr::collect_regs) would push it,
    /// without allocating.
    pub fn count_reg(&self, r: Reg) -> usize {
        let mut n = 0;
        self.visit(&mut |e| {
            if matches!(e, Expr::Reg(x) if *x == r) {
                n += 1;
            }
        });
        n
    }

    /// Returns `true` if the expression uses register `r`.
    pub fn uses_reg(&self, r: Reg) -> bool {
        let mut used = false;
        self.visit(&mut |e| {
            if matches!(e, Expr::Reg(x) if *x == r) {
                used = true;
            }
        });
        used
    }

    /// Replaces every use of register `from` with the expression `to`.
    ///
    /// Returns the number of replacements performed. Used by constant/copy
    /// propagation and instruction selection.
    pub fn substitute_reg(&mut self, from: Reg, to: &Expr) -> usize {
        let mut n = 0;
        self.substitute_inner(from, to, &mut n);
        n
    }

    fn substitute_inner(&mut self, from: Reg, to: &Expr, n: &mut usize) {
        match self {
            Expr::Reg(r) if *r == from => {
                *self = to.clone();
                *n += 1;
            }
            Expr::Bin(_, a, b) => {
                a.substitute_inner(from, to, n);
                b.substitute_inner(from, to, n);
            }
            Expr::Un(_, a) => a.substitute_inner(from, to, n),
            Expr::Load(_, a) => a.substitute_inner(from, to, n),
            _ => {}
        }
    }

    /// Number of nodes in the expression tree.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Returns `true` if evaluating the expression has no side effects and
    /// does not depend on memory (registers only). Such expressions can be
    /// freely duplicated, reordered, or removed when their result is dead.
    pub fn is_pure_of_memory(&self) -> bool {
        !self.reads_memory()
    }
}

impl From<Reg> for Expr {
    fn from(r: Reg) -> Expr {
        Expr::Reg(r)
    }
}

impl From<i32> for Expr {
    fn from(c: i32) -> Expr {
        Expr::Const(c as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutativity_matches_arithmetic() {
        for op in [BinOp::Add, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::Xor] {
            assert!(op.is_commutative());
            assert_eq!(op.eval(12, -5), op.eval(-5, 12));
        }
        for op in [BinOp::Sub, BinOp::Div, BinOp::Rem, BinOp::Shl, BinOp::AShr, BinOp::LShr] {
            assert!(!op.is_commutative());
        }
    }

    #[test]
    fn eval_guards_undefined_cases() {
        assert_eq!(BinOp::Div.eval(1, 0), None);
        assert_eq!(BinOp::Rem.eval(1, 0), None);
        assert_eq!(BinOp::Div.eval(i32::MIN, -1), None);
        assert_eq!(BinOp::Shl.eval(1, 32), None);
        assert_eq!(BinOp::Shl.eval(1, -1), None);
        assert_eq!(BinOp::AShr.eval(-8, 2), Some(-2));
        assert_eq!(BinOp::LShr.eval(-8, 2), Some(0x3FFF_FFFE));
    }

    #[test]
    fn cond_negation_is_involutive_and_complementary() {
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            assert_eq!(c.negate().negate(), c);
            for (a, b) in [(0, 0), (1, 2), (2, 1), (-5, 5), (i32::MIN, i32::MAX)] {
                assert_eq!(c.eval(a, b), !c.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn substitute_replaces_all_uses() {
        let r0 = Reg::pseudo(0);
        let r1 = Reg::pseudo(1);
        let mut e = Expr::bin(
            BinOp::Add,
            Expr::Reg(r0),
            Expr::bin(BinOp::Mul, Expr::Reg(r0), Expr::Reg(r1)),
        );
        let n = e.substitute_reg(r0, &Expr::Const(7));
        assert_eq!(n, 2);
        assert!(!e.uses_reg(r0));
        assert!(e.uses_reg(r1));
    }

    #[test]
    fn reads_memory_detects_nested_loads() {
        let addr = Expr::bin(BinOp::Add, Expr::Reg(Reg::hard(1)), Expr::Const(4));
        let e = Expr::bin(BinOp::Add, Expr::Const(1), Expr::load(Width::Word, addr));
        assert!(e.reads_memory());
        assert!(!Expr::Const(3).reads_memory());
    }

    #[test]
    fn size_counts_nodes() {
        let e = Expr::bin(BinOp::Add, Expr::Const(1), Expr::un(UnOp::Neg, Expr::Const(2)));
        assert_eq!(e.size(), 4);
    }
}
