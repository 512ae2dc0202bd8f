//! Phase `l` — loop transformations.
//!
//! "Performs loop-invariant code motion, recurrence elimination, loop
//! strength reduction, and induction variable elimination on each loop
//! ordered by loop nesting level." Legal only after register allocation
//! (`k`), because the analyses reason about values held in registers.
//!
//! Implemented transformations, applied innermost-first:
//!
//! * **Loop-invariant code motion** — a single-definition register
//!   assignment whose operands are unchanged in the loop (and which cannot
//!   alias a loop store) moves to the preheader, provided the value is
//!   consumed only inside the loop (so hoisting past a zero-trip loop is
//!   harmless). A dedicated preheader block is created on demand.
//! * **Loop strength reduction** — `t = i * m` / `t = i << k` with basic
//!   induction variable `i` (single in-loop step `i = i ± c`) is replaced
//!   by an addition of a precomputed step, with the initial value hoisted
//!   to the preheader. This trades the in-loop multiply for an add, the
//!   classic recurrence form.
//!
//! Induction-variable *elimination* is subsumed in this compiler by the
//! combination of strength reduction, CSE and dead assignment elimination
//! (a fully reduced IV's remaining uses disappear through `c` and `h`).

use std::collections::HashSet;

use vpo_rtl::cfg::Cfg;
use vpo_rtl::liveness::{Item, Liveness};
use vpo_rtl::loops::{find_loops, NaturalLoop};
use vpo_rtl::{BinOp, Block, Expr, Function, Inst, Reg};

use crate::target::Target;

/// Runs loop transformations; returns whether anything changed.
pub fn run(f: &mut Function, target: &Target) -> bool {
    let mut changed = false;
    // Each motion invalidates block indices, so re-discover loops after
    // every successful step; terminate at a fixpoint.
    loop {
        if !step(f, target) {
            break;
        }
        changed = true;
    }
    changed
}

fn step(f: &mut Function, target: &Target) -> bool {
    let cfg = Cfg::build(f);
    let loops = find_loops(&cfg); // innermost (deepest) first
    for l in &loops {
        if licm_once(f, &cfg, l) {
            return true;
        }
        if strength_reduce_once(f, &cfg, l, target) {
            return true;
        }
    }
    false
}

/// Per-register definition counts inside a loop: one scan serves the
/// invariance tests (`get(r) > 0`) and the single-definition tests
/// (`get(r) == 1`). The loop phases run on assigned code, where only a
/// handful of hard registers occur, so a list searched linearly beats a
/// hash map.
struct DefCounts(Vec<(Reg, usize)>);

impl DefCounts {
    fn of(f: &Function, l: &NaturalLoop) -> DefCounts {
        let mut defs: Vec<(Reg, usize)> = Vec::new();
        for &bi in &l.body {
            for inst in &f.blocks[bi].insts {
                if let Some(d) = inst.def() {
                    match defs.iter_mut().find(|(r, _)| *r == d) {
                        Some((_, n)) => *n += 1,
                        None => defs.push((d, 1)),
                    }
                }
            }
        }
        DefCounts(defs)
    }

    /// How many times the loop defines `r`.
    fn get(&self, r: Reg) -> usize {
        self.0.iter().find(|(x, _)| *x == r).map_or(0, |&(_, n)| n)
    }
}

/// Whether any instruction in the loop may write memory.
fn loop_writes_memory(f: &Function, l: &NaturalLoop) -> bool {
    l.body.iter().any(|&bi| f.blocks[bi].insts.iter().any(|i| i.writes_memory()))
}

/// Finds or creates the loop preheader: the unique block through which the
/// loop is entered. Returns its block index, or `None` if creating one is
/// impossible (header is the function entry with no outside predecessor).
fn ensure_preheader(f: &mut Function, l: &NaturalLoop) -> Option<usize> {
    let cfg = Cfg::build(f);
    let h = l.header;
    let outside: Vec<usize> = cfg.preds[h].iter().copied().filter(|p| !l.contains(*p)).collect();
    if outside.is_empty() {
        return None;
    }
    if let [p] = outside.as_slice() {
        // A dedicated preheader must have the header as its only successor.
        if cfg.succs[*p].len() == 1 && cfg.succs[*p][0] == h {
            return Some(*p);
        }
    }
    // Create one directly before the header: fall-through preds reach it
    // naturally; branch preds from outside the loop are retargeted.
    if h == 0 {
        return None;
    }
    let header_label = f.blocks[h].label;
    let pre_label = f.new_label();
    // Retarget: outside branches to the header go to the preheader; the
    // loop's own back edges keep targeting the header.
    let body_labels: HashSet<_> = l.body.iter().map(|&b| f.blocks[b].label).collect();
    for b in &mut f.blocks {
        let from_inside = body_labels.contains(&b.label);
        if from_inside {
            continue;
        }
        for inst in &mut b.insts {
            inst.retarget(|t| if t == header_label { pre_label } else { t });
        }
    }
    f.blocks.insert(h, Block::new(pre_label));
    Some(h)
}

/// Appends an instruction to a preheader, before its trailing jump if any.
fn append_to_preheader(blk: &mut Block, inst: Inst) {
    match blk.insts.last() {
        Some(Inst::Jump { .. }) => {
            let at = blk.insts.len() - 1;
            blk.insts.insert(at, inst);
        }
        _ => blk.insts.push(inst),
    }
}

/// Registers live at the loop boundary: live-in of every outside
/// successor of a loop block (conservative exit liveness), plus live-in
/// of the header from outside (use-before-def in loop).
fn loop_boundary_live(f: &Function, cfg: &Cfg, l: &NaturalLoop) -> HashSet<Reg> {
    let lv = Liveness::compute(f, cfg);
    let mut live: HashSet<Reg> = HashSet::new();
    for &bi in &l.body {
        for &s in &cfg.succs[bi] {
            if !l.contains(s) {
                for idx in lv.live_in[s].iter() {
                    if let Item::Reg(r) = lv.universe[idx] {
                        live.insert(r);
                    }
                }
            }
        }
    }
    for idx in lv.live_in[l.header].iter() {
        if let Item::Reg(r) = lv.universe[idx] {
            live.insert(r);
        }
    }
    live
}

/// Attempts one invariant code motion in loop `l`.
fn licm_once(f: &mut Function, cfg: &Cfg, l: &NaturalLoop) -> bool {
    let defs = DefCounts::of(f, l);
    let mem_written = loop_writes_memory(f, l);
    // The liveness consultation is the expensive test, so it is deferred
    // until a candidate survives everything cheaper; `f` is not mutated
    // before a commit, so the deferred analysis is exact. The candidate
    // tests are pure, independent predicates — reordering them cheapest
    // first changes which one rejects a non-candidate, never the first
    // candidate accepted.
    let mut boundary_live: Option<HashSet<Reg>> = None;
    let mut operands = Vec::new();

    for &bi in &l.body {
        for ii in 0..f.blocks[bi].insts.len() {
            let Inst::Assign { dst, src } = &f.blocks[bi].insts[ii] else { continue };
            let dst = *dst;
            if !licm_candidate(dst, src, &defs, mem_written, &mut operands) {
                continue;
            }
            let live = boundary_live.get_or_insert_with(|| loop_boundary_live(f, cfg, l));
            if live.contains(&dst) {
                continue;
            }
            // Move it.
            let inst = f.blocks[bi].insts.remove(ii);
            let Some(pre) = ensure_preheader(f, l) else {
                // No preheader possible: put the instruction back.
                f.blocks[bi].insts.insert(ii, inst);
                return false;
            };
            append_to_preheader(&mut f.blocks[pre], inst);
            return true;
        }
    }
    false
}

/// The candidate tests [`licm_once`] applies before liveness: `dst = src`
/// is the loop's only definition of `dst`, computes something (not a
/// plain copy or constant), reads no memory the loop may write, reads no
/// register the loop defines, and cannot trap. The tests are pure and
/// independent of the target.
fn licm_candidate(
    dst: Reg,
    src: &Expr,
    defs: &DefCounts,
    mem_written: bool,
    operands: &mut Vec<Reg>,
) -> bool {
    if matches!(src, Expr::Reg(_) | Expr::Const(_)) {
        return false; // moving trivial copies is not profitable
    }
    // Single definition of dst in the loop.
    if defs.get(dst) != 1 {
        return false;
    }
    if mem_written && src.reads_memory() {
        return false;
    }
    operands.clear();
    src.collect_regs(operands);
    if operands.iter().any(|&r| defs.get(r) > 0) {
        return false; // operands vary within the loop
    }
    // A division may trap; executing it when the loop would not have run
    // at all would change behaviour.
    let mut may_trap = false;
    src.visit(&mut |e| {
        if matches!(e, Expr::Bin(BinOp::Div | BinOp::Rem, ..)) {
            may_trap = true;
        }
    });
    !may_trap
}

/// Whether [`run`] could act on loop `l` of `f` as it stands: some
/// instruction passes the [`licm_candidate`] tests, or some basic
/// induction variable is shifted or multiplied in the loop, the only
/// shapes [`strength_reduce_once`] rewrites. `false` proves both dormant
/// on `l`. Like the tests it mirrors, it ignores the target.
pub(crate) fn may_act(f: &Function, l: &NaturalLoop) -> bool {
    let defs = DefCounts::of(f, l);
    let mem_written = loop_writes_memory(f, l);
    let mut operands = Vec::new();
    let assigns = || {
        l.body.iter().flat_map(|&bi| &f.blocks[bi].insts).filter_map(|i| match i {
            Inst::Assign { dst, src } => Some((*dst, src)),
            _ => None,
        })
    };
    if assigns().any(|(dst, src)| licm_candidate(dst, src, &defs, mem_written, &mut operands)) {
        return true;
    }
    let ivs = basic_ivs(f, l, &defs);
    !ivs.is_empty()
        && assigns().any(|(dst, src)| match src {
            Expr::Bin(BinOp::Shl | BinOp::Mul, a, b) => ivs.iter().any(|&(iv, ..)| {
                dst != iv && [a, b].iter().any(|x| matches!(***x, Expr::Reg(r) if r == iv))
            }),
            _ => false,
        })
}

/// A basic induction variable: its single in-loop definition is
/// `i = i + c` (or `i = i - c`). Returns `(block, index, step)`.
fn basic_ivs(
    f: &Function,
    l: &NaturalLoop,
    def_counts: &DefCounts,
) -> Vec<(Reg, usize, usize, i64)> {
    let mut candidates = Vec::new();
    for &bi in &l.body {
        for (ii, inst) in f.blocks[bi].insts.iter().enumerate() {
            let Inst::Assign { dst, src } = inst else { continue };
            if def_counts.get(*dst) != 1 {
                continue;
            }
            let step = match src {
                Expr::Bin(BinOp::Add, a, b) => match (&**a, &**b) {
                    (Expr::Reg(r), Expr::Const(c)) if r == dst => Some(*c),
                    (Expr::Const(c), Expr::Reg(r)) if r == dst => Some(*c),
                    _ => None,
                },
                Expr::Bin(BinOp::Sub, a, b) => match (&**a, &**b) {
                    (Expr::Reg(r), Expr::Const(c)) if r == dst => Some(-*c),
                    _ => None,
                },
                _ => None,
            };
            if let Some(c) = step {
                candidates.push((*dst, bi, ii, c));
            }
        }
    }
    candidates
}

/// Attempts one strength reduction of `t = i * m` or `t = i << k` in loop
/// `l`, where `i` is a basic IV whose step instruction follows the
/// definition of `t` in the same block.
fn strength_reduce_once(f: &mut Function, cfg: &Cfg, l: &NaturalLoop, target: &Target) -> bool {
    let defs = DefCounts::of(f, l);
    let ivs = basic_ivs(f, l, &defs);
    if ivs.is_empty() {
        return false;
    }
    // Deferred like in `licm_once`: most candidate scans reject before
    // ever consulting liveness.
    let mut live_outside: Option<HashSet<Reg>> = None;

    for &(iv, iv_bi, iv_ii, step) in &ivs {
        for &bi in &l.body {
            for ii in 0..f.blocks[bi].insts.len() {
                let Inst::Assign { dst, src } = &f.blocks[bi].insts[ii] else { continue };
                let dst = *dst;
                if dst == iv {
                    continue;
                }
                // Recognize t = i * m (m an invariant register) and
                // t = i << k (constant k): step' = step*m or step<<k.
                let (derived_src, step_expr) = match src {
                    Expr::Bin(BinOp::Shl, a, b) => match (&**a, &**b) {
                        (Expr::Reg(r), Expr::Const(k)) if *r == iv && (0..31).contains(k) => {
                            let s = step << k;
                            if !target.legal_imm(s) {
                                continue;
                            }
                            (src.clone(), Expr::Const(s))
                        }
                        _ => continue,
                    },
                    Expr::Bin(BinOp::Mul, a, b) => match (&**a, &**b) {
                        (Expr::Reg(r), Expr::Reg(m)) | (Expr::Reg(m), Expr::Reg(r))
                            if *r == iv && defs.get(*m) == 0 && *m != iv =>
                        {
                            // step' = m * step needs a register; only the
                            // power-of-two steps stay single-instruction.
                            if step.abs() != 1 {
                                continue;
                            }
                            let se = if step == 1 {
                                Expr::Reg(*m)
                            } else {
                                Expr::un(vpo_rtl::UnOp::Neg, Expr::Reg(*m))
                            };
                            (src.clone(), se)
                        }
                        _ => continue,
                    },
                    _ => continue,
                };
                // t single def in loop, dead outside, and the IV step must
                // come after t's definition in the same block (so inserting
                // the recurrence update right after the step keeps
                // t == f(i) at t's use point).
                if defs.get(dst) != 1 {
                    continue;
                }
                let live = live_outside.get_or_insert_with(|| loop_boundary_live(f, cfg, l));
                if live.contains(&dst) {
                    continue;
                }
                if !(bi == iv_bi && ii < iv_ii) {
                    continue;
                }
                // The update uses `dst = dst + step_expr`; if step_expr is
                // a negation we need Sub instead.
                let update = match &step_expr {
                    Expr::Un(vpo_rtl::UnOp::Neg, inner) => Inst::Assign {
                        dst,
                        src: Expr::bin(BinOp::Sub, Expr::Reg(dst), (**inner).clone()),
                    },
                    other => Inst::Assign {
                        dst,
                        src: Expr::bin(BinOp::Add, Expr::Reg(dst), other.clone()),
                    },
                };
                if !target.legal_inst(&update) {
                    continue;
                }
                // Commit: replace the in-loop computation with the
                // recurrence, hoist the initial computation.
                let init = Inst::Assign { dst, src: derived_src };
                f.blocks[bi].insts.remove(ii);
                // Indices shift: the IV step was after ii in the same block.
                let iv_ii = iv_ii - 1;
                f.blocks[bi].insts.insert(iv_ii + 1, update);
                let Some(pre) = ensure_preheader(f, l) else { return false };
                append_to_preheader(&mut f.blocks[pre], init);
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    use vpo_rtl::{Cond, Width};

    fn t() -> Target {
        Target::default()
    }

    /// `while (i < n) { t = a + b; s += t; i += 1 }` with hard registers
    /// (post-assignment form), invariant `a+b`.
    fn licm_candidate() -> Function {
        let mut f = Function::new("f");
        f.flags.regs_assigned = true;
        f.flags.reg_allocated = true;
        let [i, n, a, b, tt, s] = [0, 1, 2, 3, 4, 5].map(Reg::hard);
        f.params = vec![i, n, a, b];
        let header = f.new_label();
        let body = f.new_label();
        let exit = f.new_label();
        f.blocks[0].insts = vec![Inst::Assign { dst: s, src: Expr::Const(0) }];
        f.blocks.push(Block::new(header));
        f.blocks[1].insts = vec![
            Inst::Compare { lhs: Expr::Reg(i), rhs: Expr::Reg(n) },
            Inst::CondBranch { cond: Cond::Ge, target: exit },
        ];
        f.blocks.push(Block::new(body));
        f.blocks[2].insts = vec![
            Inst::Assign { dst: tt, src: Expr::bin(BinOp::Add, Expr::Reg(a), Expr::Reg(b)) },
            Inst::Assign { dst: s, src: Expr::bin(BinOp::Add, Expr::Reg(s), Expr::Reg(tt)) },
            Inst::Assign { dst: i, src: Expr::bin(BinOp::Add, Expr::Reg(i), Expr::Const(1)) },
            Inst::Jump { target: header },
        ];
        f.blocks.push(Block::new(exit));
        f.blocks[3].insts = vec![Inst::Return { value: Some(Expr::Reg(s)) }];
        f
    }

    #[test]
    fn hoists_invariant_computation() {
        let mut f = licm_candidate();
        assert!(run(&mut f, &t()));
        // The a+b computation now sits outside the loop (entry block, which
        // is the natural preheader).
        assert!(f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Assign { src: Expr::Bin(BinOp::Add, ..), .. })));
        // Loop body shrank.
        let body = &f.blocks[2].insts;
        assert_eq!(body.len(), 3);
        assert!(!run(&mut f, &t()), "dormant after fixpoint");
    }

    #[test]
    fn does_not_hoist_varying_computation() {
        let mut f = licm_candidate();
        // Make `a` vary inside the loop.
        f.blocks[2].insts.insert(
            2,
            Inst::Assign {
                dst: Reg::hard(2),
                src: Expr::bin(BinOp::Add, Expr::Reg(Reg::hard(2)), Expr::Const(1)),
            },
        );
        assert!(!run(&mut f, &t()));
    }

    #[test]
    fn does_not_hoist_loads_past_stores() {
        let mut f = licm_candidate();
        // Replace the invariant add with a load, and add a store to the loop.
        f.blocks[2].insts[0] = Inst::Assign {
            dst: Reg::hard(4),
            src: Expr::load(Width::Word, Expr::Reg(Reg::hard(3))),
        };
        f.blocks[2].insts.insert(
            1,
            Inst::Store {
                width: Width::Word,
                addr: Expr::Reg(Reg::hard(3)),
                src: Expr::Reg(Reg::hard(4)),
            },
        );
        assert!(!run(&mut f, &t()));
    }

    #[test]
    fn strength_reduces_shifted_iv() {
        // t = i << 2 inside a loop stepping i by 1 becomes t += 4.
        let mut f = Function::new("f");
        f.flags.regs_assigned = true;
        f.flags.reg_allocated = true;
        let [i, n, tt, s] = [0, 1, 2, 3].map(Reg::hard);
        f.params = vec![n];
        let body = f.new_label();
        let exit = f.new_label();
        f.blocks[0].insts = vec![
            Inst::Assign { dst: i, src: Expr::Const(0) },
            Inst::Assign { dst: s, src: Expr::Const(0) },
        ];
        f.blocks.push(Block::new(body));
        f.blocks[1].insts = vec![
            Inst::Assign { dst: tt, src: Expr::bin(BinOp::Shl, Expr::Reg(i), Expr::Const(2)) },
            Inst::Assign { dst: s, src: Expr::bin(BinOp::Add, Expr::Reg(s), Expr::Reg(tt)) },
            Inst::Assign { dst: i, src: Expr::bin(BinOp::Add, Expr::Reg(i), Expr::Const(1)) },
            Inst::Compare { lhs: Expr::Reg(i), rhs: Expr::Reg(n) },
            Inst::CondBranch { cond: Cond::Lt, target: body },
        ];
        f.blocks.push(Block::new(exit));
        f.blocks[2].insts = vec![Inst::Return { value: Some(Expr::Reg(s)) }];
        let mut f2 = f.clone();
        assert!(run(&mut f2, &t()));
        // The shift left the loop; an addition by 4 appears after the step.
        let body_insts = &f2.blocks[f2.block_index(body).unwrap()].insts;
        assert!(body_insts
            .iter()
            .all(|i| !matches!(i, Inst::Assign { src: Expr::Bin(BinOp::Shl, ..), .. })));
        assert!(body_insts.iter().any(|inst| matches!(
            inst,
            Inst::Assign { dst, src: Expr::Bin(BinOp::Add, a, c) }
                if *dst == tt
                    && matches!(&**a, Expr::Reg(r) if *r == tt)
                    && matches!(&**c, Expr::Const(4))
        )));
    }
}
