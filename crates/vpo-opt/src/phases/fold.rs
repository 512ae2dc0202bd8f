//! Constant folding and algebraic simplification over RTL expressions,
//! used by instruction selection.

use vpo_rtl::{BinOp, Expr, UnOp};

/// Folds constants and applies simple algebraic identities bottom-up.
/// Returns the (possibly unchanged) expression and whether it changed.
///
/// Folding never introduces operations: it only evaluates constant
/// subtrees (`1+2` → `3`), removes identities (`x+0` → `x`, `x*1` → `x`,
/// `x&-1` → `x`, `x^0` → `x`, `x<<0` → `x`), and collapses annihilators
/// (`x*0` → `0` only when `x` is a pure register expression, so no memory
/// read is discarded).
pub fn fold_expr(e: &Expr) -> (Expr, bool) {
    let mut out = e.clone();
    let changed = fold_in_place(&mut out);
    (out, changed)
}

/// In-place version of [`fold_expr`].
///
/// One call reaches the fixpoint ([`would_fold`] is false afterwards)
/// except where an identity builds a negation of a negation (`x * -1` or
/// `0 - x` over a negated `x`). Instruction selection relies on that:
/// no legal instruction negates anything but a register.
pub fn fold_in_place(e: &mut Expr) -> bool {
    let mut changed = false;
    if let Expr::Bin(op, a, b) = e {
        changed |= fold_in_place(a);
        changed |= fold_in_place(b);
        let op = *op;
        match (a.as_const(), b.as_const()) {
            (Some(ca), Some(cb)) => {
                if let Some(v) = op.eval(ca as i32, cb as i32) {
                    *e = Expr::Const(v as i64);
                    return true;
                }
            }
            (_, Some(cb)) => {
                if let Some(simpl) = identity_right(op, a, cb) {
                    *e = simpl;
                    return true;
                }
            }
            (Some(ca), _) => {
                if let Some(simpl) = identity_left(op, ca, b) {
                    *e = simpl;
                    return true;
                }
            }
            _ => {}
        }
        return changed;
    }
    match e {
        Expr::Un(op, a) => {
            changed |= fold_in_place(a);
            if let Some(c) = a.as_const() {
                *e = Expr::Const(op.eval(c as i32) as i64);
                return true;
            }
            // --x → x, ~~x → x
            if let Expr::Un(inner_op, inner) = &**a {
                if *inner_op == *op {
                    *e = (**inner).clone();
                    return true;
                }
            }
            changed
        }
        Expr::Load(_, a) => fold_in_place(a) || changed,
        _ => changed,
    }
}

/// Pure detector: returns exactly what [`fold_in_place`] would return,
/// without cloning or mutating anything. The hot paths call this first and
/// only clone an instruction when a fold will actually happen.
///
/// The mirror argument: `fold_in_place` folds children first and then
/// consults `as_const` on the *folded* children. If any child would fold,
/// the whole expression changes and the answer is `true` regardless of the
/// top-level rule; if no child would fold, the children are already in
/// their final shape, so consulting `as_const`/the identity tables on the
/// original children is exact.
pub fn would_fold(e: &Expr) -> bool {
    match e {
        Expr::Bin(op, a, b) => {
            if would_fold(a) || would_fold(b) {
                return true;
            }
            match (a.as_const(), b.as_const()) {
                (Some(ca), Some(cb)) => op.eval(ca as i32, cb as i32).is_some(),
                (_, Some(cb)) => identity_right_applies(*op, a, cb),
                (Some(ca), _) => identity_left_applies(*op, ca, b),
                _ => false,
            }
        }
        Expr::Un(op, a) => {
            if would_fold(a) {
                return true;
            }
            if a.as_const().is_some() {
                return true;
            }
            matches!(&**a, Expr::Un(inner_op, _) if inner_op == op)
        }
        Expr::Load(_, a) => would_fold(a),
        _ => false,
    }
}

fn identity_right_applies(op: BinOp, a: &Expr, cb: i64) -> bool {
    match (op, cb) {
        (BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor, 0) => true,
        (BinOp::Shl | BinOp::AShr | BinOp::LShr, 0) => true,
        (BinOp::Mul | BinOp::Div, 1) => true,
        (BinOp::And, -1) => true,
        (BinOp::Mul, 0) if a.is_pure_of_memory() => true,
        (BinOp::And, 0) if a.is_pure_of_memory() => true,
        (BinOp::Mul, -1) => true,
        _ => false,
    }
}

fn identity_left_applies(op: BinOp, ca: i64, b: &Expr) -> bool {
    match (op, ca) {
        (BinOp::Add | BinOp::Or | BinOp::Xor, 0) => true,
        (BinOp::Mul, 1) => true,
        (BinOp::Mul, 0) if b.is_pure_of_memory() => true,
        (BinOp::Sub, 0) => true,
        _ => false,
    }
}

fn identity_right(op: BinOp, a: &Expr, cb: i64) -> Option<Expr> {
    match (op, cb) {
        (BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor, 0) => Some(a.clone()),
        (BinOp::Shl | BinOp::AShr | BinOp::LShr, 0) => Some(a.clone()),
        (BinOp::Mul | BinOp::Div, 1) => Some(a.clone()),
        (BinOp::And, -1) => Some(a.clone()),
        (BinOp::Mul, 0) if a.is_pure_of_memory() => Some(Expr::Const(0)),
        (BinOp::And, 0) if a.is_pure_of_memory() => Some(Expr::Const(0)),
        (BinOp::Mul, -1) => Some(Expr::un(UnOp::Neg, a.clone())),
        _ => None,
    }
}

fn identity_left(op: BinOp, ca: i64, b: &Expr) -> Option<Expr> {
    match (op, ca) {
        (BinOp::Add | BinOp::Or | BinOp::Xor, 0) => Some(b.clone()),
        (BinOp::Mul, 1) => Some(b.clone()),
        (BinOp::Mul, 0) if b.is_pure_of_memory() => Some(Expr::Const(0)),
        (BinOp::Sub, 0) => Some(Expr::un(UnOp::Neg, b.clone())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpo_rtl::{Reg, Width};

    fn r() -> Expr {
        Expr::Reg(Reg::pseudo(0))
    }

    #[test]
    fn folds_constant_trees() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::Const(1),
            Expr::bin(BinOp::Mul, Expr::Const(3), Expr::Const(4)),
        );
        let (out, changed) = fold_expr(&e);
        assert!(changed);
        assert_eq!(out, Expr::Const(13));
    }

    #[test]
    fn identities() {
        assert_eq!(fold_expr(&Expr::bin(BinOp::Add, r(), Expr::Const(0))).0, r());
        assert_eq!(fold_expr(&Expr::bin(BinOp::Mul, r(), Expr::Const(1))).0, r());
        assert_eq!(fold_expr(&Expr::bin(BinOp::Mul, r(), Expr::Const(0))).0, Expr::Const(0));
        assert_eq!(fold_expr(&Expr::bin(BinOp::Add, Expr::Const(0), r())).0, r());
        assert_eq!(
            fold_expr(&Expr::bin(BinOp::Sub, Expr::Const(0), r())).0,
            Expr::un(UnOp::Neg, r())
        );
    }

    #[test]
    fn does_not_discard_memory_reads() {
        let load = Expr::load(Width::Word, r());
        let e = Expr::bin(BinOp::Mul, load.clone(), Expr::Const(0));
        let (out, _) = fold_expr(&e);
        assert_eq!(out, e, "x*0 with memory read must not fold");
    }

    #[test]
    fn preserves_undefined_operations() {
        let e = Expr::bin(BinOp::Div, Expr::Const(1), Expr::Const(0));
        let (out, changed) = fold_expr(&e);
        assert!(!changed);
        assert_eq!(out, e);
    }

    #[test]
    fn double_negation() {
        let e = Expr::un(UnOp::Neg, Expr::un(UnOp::Neg, r()));
        assert_eq!(fold_expr(&e).0, r());
    }

    #[test]
    fn would_fold_agrees_with_fold_in_place() {
        use BinOp::*;
        // Leaves chosen to exercise every identity/annihilator row, the
        // undefined-operation guards (div by 0, shift by 33), and the
        // memory-purity guard on `x*0`/`x&0`.
        let leaves = [
            Expr::Const(-1),
            Expr::Const(0),
            Expr::Const(1),
            Expr::Const(2),
            Expr::Const(33),
            r(),
            Expr::load(Width::Word, r()),
        ];
        let ops = [Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, AShr, LShr];
        let mut depth1: Vec<Expr> = leaves.to_vec();
        for op in ops {
            for a in &leaves {
                for b in &leaves {
                    depth1.push(Expr::bin(op, a.clone(), b.clone()));
                }
            }
        }
        for a in &leaves {
            depth1.push(Expr::un(UnOp::Neg, a.clone()));
            depth1.push(Expr::un(UnOp::Not, a.clone()));
            depth1.push(Expr::load(Width::Word, a.clone()));
        }
        let mut all = depth1.clone();
        // Depth-2 sample: every op over (depth-1 expr, leaf) and the unary
        // wrappers, which covers child-folds-first and double negation.
        for op in [Add, Mul, Div, Shl] {
            for a in &depth1 {
                for b in &leaves {
                    all.push(Expr::bin(op, a.clone(), b.clone()));
                }
            }
        }
        for a in &depth1 {
            all.push(Expr::un(UnOp::Neg, a.clone()));
            all.push(Expr::un(UnOp::Not, a.clone()));
        }
        let mut folded = 0usize;
        for e in &all {
            let mut m = e.clone();
            let changed = fold_in_place(&mut m);
            assert_eq!(would_fold(e), changed, "would_fold disagrees with fold_in_place on {e:?}");
            folded += usize::from(changed);
        }
        assert!(folded > 100, "expected many folding cases, got {folded}");
        assert!(all.len() - folded > 100, "expected many non-folding cases");
    }

    #[test]
    fn fold_is_idempotent() {
        let e = Expr::bin(BinOp::Add, Expr::bin(BinOp::Mul, r(), Expr::Const(1)), Expr::Const(0));
        let (once, _) = fold_expr(&e);
        let (twice, changed) = fold_expr(&once);
        assert!(!changed);
        assert_eq!(once, twice);
    }
}
