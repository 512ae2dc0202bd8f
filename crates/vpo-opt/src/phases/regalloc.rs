//! Phase `k` — register allocation.
//!
//! "Uses graph coloring to replace references to a variable within a live
//! range with a register." Local scalar variables live in the activation
//! record until this phase promotes them: loads become register-to-register
//! moves and stores become moves the other way — exactly the moves that
//! instruction selection (`s`) subsequently collapses, which is why `k`
//! enables `s` in the paper's Table 4.
//!
//! Accesses come in two shapes, both handled:
//!
//! * **direct** — `dst = M[&v]` / `M[&v] = r`, the form instruction
//!   selection produces (hence the paper's `s → k` enabling relation);
//! * **indirect** — `r = &v; ...; dst = M[r]`, the front end's naive
//!   two-step form. A forward dataflow tracks which registers provably
//!   hold which slot address so such accesses can be promoted as well;
//!   the now-dead address computations are left for dead-assignment
//!   elimination (`k` enables `h`).
//!
//! A variable is promoted only when every occurrence of its address is a
//! whole-word load/store (directly or through an unambiguous
//! address-holding register) and a hard register is free for it. Each
//! promoted variable receives its own register (no live-range splitting),
//! a simplification documented in `DESIGN.md`.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use vpo_rtl::cfg::Cfg;
use vpo_rtl::{Expr, Function, Inst, LocalId, Reg, RegClass, Width};

use crate::target::Target;

/// Runs register allocation; returns whether anything changed.
pub fn run(f: &mut Function, target: &Target) -> bool {
    // Free hard registers: not used anywhere in the function.
    let mut used = vec![false; target.usable_regs as usize];
    f.visit_regs(|r| {
        if r.class == RegClass::Hard {
            if let Some(u) = used.get_mut(r.index as usize) {
                *u = true;
            }
        }
    });
    let mut pool: Vec<u16> = (0..target.usable_regs).filter(|&i| !used[i as usize]).collect();
    if pool.is_empty() {
        return false;
    }

    let facts = SlotFacts::compute(f);
    let eligible = eligible_locals(f, &facts, target.regalloc_requires_direct);
    if eligible.is_empty() {
        return false;
    }

    // Assign each eligible local its own free register, in slot order.
    let mut coloring: HashMap<LocalId, Reg> = HashMap::new();
    for v in eligible {
        let Some(c) = pool.first().copied() else { break };
        pool.remove(0);
        coloring.insert(v, Reg::hard(c));
    }
    if coloring.is_empty() {
        return false;
    }

    // Rewrite accesses, consulting the per-instruction facts for the
    // indirect forms.
    for (bi, b) in f.blocks.iter_mut().enumerate() {
        let mut state = facts.entry_state(bi);
        for inst in &mut b.insts {
            let pre = state.clone();
            SlotFacts::transfer(&mut state, inst);
            let replacement = match inst {
                Inst::Store { width: Width::Word, addr, src } => {
                    let slot = match addr {
                        Expr::LocalAddr(v) => Some(*v),
                        Expr::Reg(r) => pre.get(r).copied(),
                        _ => None,
                    };
                    slot.and_then(|v| coloring.get(&v))
                        .map(|&rv| Inst::Assign { dst: rv, src: src.clone() })
                }
                Inst::Assign { dst, src: Expr::Load(Width::Word, a) } => {
                    let slot = match &**a {
                        Expr::LocalAddr(v) => Some(*v),
                        Expr::Reg(r) => pre.get(r).copied(),
                        _ => None,
                    };
                    slot.and_then(|v| coloring.get(&v))
                        .map(|&rv| Inst::Assign { dst: *dst, src: Expr::Reg(rv) })
                }
                _ => None,
            };
            if let Some(r) = replacement {
                *inst = r;
            }
        }
    }
    true
}

/// Forward must-dataflow: which register holds which slot address.
struct SlotFacts {
    entry: Vec<BTreeMap<Reg, LocalId>>,
}

impl SlotFacts {
    fn compute(f: &Function) -> SlotFacts {
        let cfg = Cfg::build(f);
        let nb = f.blocks.len();
        let mut out: Vec<Option<BTreeMap<Reg, LocalId>>> = vec![None; nb];
        let rpo = cfg.reverse_postorder();
        loop {
            let mut stable = true;
            for &bi in &rpo {
                let mut state = Self::meet(&cfg, &out, bi);
                for inst in &f.blocks[bi].insts {
                    Self::transfer(&mut state, inst);
                }
                if out[bi].as_ref() != Some(&state) {
                    out[bi] = Some(state);
                    stable = false;
                }
            }
            if stable {
                break;
            }
        }
        let entry = (0..nb).map(|bi| Self::meet(&cfg, &out, bi)).collect();
        SlotFacts { entry }
    }

    fn meet(
        cfg: &Cfg,
        out: &[Option<BTreeMap<Reg, LocalId>>],
        bi: usize,
    ) -> BTreeMap<Reg, LocalId> {
        let mut acc: Option<BTreeMap<Reg, LocalId>> = None;
        for &p in &cfg.preds[bi] {
            if let Some(s) = &out[p] {
                acc = Some(match acc {
                    None => s.clone(),
                    Some(a) => a.into_iter().filter(|(k, v)| s.get(k) == Some(v)).collect(),
                });
            }
        }
        acc.unwrap_or_default()
    }

    fn transfer(state: &mut BTreeMap<Reg, LocalId>, inst: &Inst) {
        match inst {
            Inst::Assign { dst, src } => match src {
                Expr::LocalAddr(v) => {
                    state.insert(*dst, *v);
                }
                _ => {
                    state.remove(dst);
                }
            },
            Inst::Call { dst: Some(d), .. } => {
                state.remove(d);
            }
            _ => {}
        }
    }

    fn entry_state(&self, bi: usize) -> BTreeMap<Reg, LocalId> {
        self.entry[bi].clone()
    }
}

/// Locals whose every address occurrence is a promotable whole-word access.
/// With `direct_only` (VPO's documented behaviour), an access through an
/// address-holding register disqualifies the slot even when the dataflow
/// could prove it safe.
fn eligible_locals(f: &Function, facts: &SlotFacts, direct_only: bool) -> Vec<LocalId> {
    let mut ineligible: BTreeSet<LocalId> = BTreeSet::new();
    // Non-scalars are out immediately.
    for (i, slot) in f.locals.iter().enumerate() {
        if !slot.is_scalar() {
            ineligible.insert(LocalId(i as u32));
        }
    }
    // May-analysis: which slots could a register's value refer to. Used to
    // catch ambiguous or escaping address flow; simple union over the
    // whole function (flow-insensitive, conservative).
    // Flow-sensitive may-analysis: which slots *can* a register's value
    // refer to at each point (union at joins, killed on redefinition).
    // Loads contribute nothing: a loaded value can only be a slot address
    // if that address was first stored to memory, which the escape scan
    // below forbids.
    let may = MaySlots::compute(f);

    // Scan every instruction for occurrences of slot addresses, tracking
    // the must- and may-facts side by side.
    for (bi, b) in f.blocks.iter().enumerate() {
        let mut state = facts.entry_state(bi);
        let mut may_state = may.entry_state(bi);
        for inst in &b.insts {
            let pre = state.clone();
            let may_pre = may_state.clone();
            SlotFacts::transfer(&mut state, inst);
            MaySlots::transfer(&mut may_state, inst);
            // Classify this instruction's use of addresses.
            let mark_expr_value = |e: &Expr, ineligible: &mut BTreeSet<LocalId>| {
                let mut sources = BTreeSet::new();
                value_sources(e, &may_pre, &mut sources);
                ineligible.extend(sources);
            };
            // The slots a register might address beyond what the must-
            // analysis proves are unsafe to promote.
            let mark_ambiguous =
                |r: &Reg, proven: Option<LocalId>, ineligible: &mut BTreeSet<LocalId>| {
                    if let Some(set) = may_pre.get(r) {
                        for &v in set {
                            if proven != Some(v) {
                                ineligible.insert(v);
                            }
                        }
                    }
                };
            match inst {
                // The address-defining move itself is fine: `r = &v`.
                Inst::Assign { src: Expr::LocalAddr(_), .. } => {}
                // A whole-word load: direct, or via an unambiguous fact.
                Inst::Assign { src: Expr::Load(w, a), .. } => match (&**a, w) {
                    (Expr::LocalAddr(v), Width::Word) => {
                        let _ = v; // direct: fine
                    }
                    (Expr::LocalAddr(v), _) => {
                        ineligible.insert(*v);
                    }
                    (Expr::Reg(r), Width::Word) => {
                        let proven = if direct_only { None } else { pre.get(r).copied() };
                        mark_ambiguous(r, proven, &mut ineligible);
                    }
                    (other, _) => mark_expr_value(other, &mut ineligible),
                },
                Inst::Store { width, addr, src } => {
                    match (addr, width) {
                        (Expr::LocalAddr(_), Width::Word) => {}
                        (Expr::LocalAddr(v), _) => {
                            ineligible.insert(*v);
                        }
                        (Expr::Reg(r), Width::Word) => {
                            let proven = if direct_only { None } else { pre.get(r).copied() };
                            mark_ambiguous(r, proven, &mut ineligible);
                        }
                        (other, _) => mark_expr_value(other, &mut ineligible),
                    }
                    mark_expr_value(src, &mut ineligible);
                }
                // Every other use of an address (arithmetic, call argument,
                // comparison, return) escapes it.
                other => other.visit_exprs(&mut |e| mark_expr_value(e, &mut ineligible)),
            }
        }
    }
    (0..f.locals.len() as u32)
        .map(LocalId)
        .filter(|v| !ineligible.contains(v))
        .filter(|v| is_accessed(f, facts, *v))
        .collect()
}

/// The slot must actually be accessed (through a direct address or a
/// proven fact) for promotion to change anything.
fn is_accessed(f: &Function, facts: &SlotFacts, v: LocalId) -> bool {
    for (bi, b) in f.blocks.iter().enumerate() {
        let mut state = facts.entry_state(bi);
        for inst in &b.insts {
            let pre = state.clone();
            SlotFacts::transfer(&mut state, inst);
            match inst {
                Inst::Store { addr: Expr::LocalAddr(x), .. } if *x == v => return true,
                Inst::Store { addr: Expr::Reg(r), .. } if pre.get(r) == Some(&v) => return true,
                Inst::Assign { src: Expr::Load(_, a), .. } => match &**a {
                    Expr::LocalAddr(x) if *x == v => return true,
                    Expr::Reg(r) if pre.get(r) == Some(&v) => return true,
                    _ => {}
                },
                _ => {}
            }
        }
    }
    false
}

/// Which slots an expression's *value* may refer to, under the given
/// may-facts. Loads contribute nothing (see the escape discussion above).
fn value_sources(
    e: &Expr,
    may: &BTreeMap<Reg, BTreeSet<LocalId>>,
    incoming: &mut BTreeSet<LocalId>,
) {
    match e {
        Expr::LocalAddr(v) => {
            incoming.insert(*v);
        }
        Expr::Reg(r) => {
            if let Some(s) = may.get(r) {
                incoming.extend(s.iter().copied());
            }
        }
        Expr::Bin(_, a, b) => {
            value_sources(a, may, incoming);
            value_sources(b, may, incoming);
        }
        Expr::Un(_, a) => value_sources(a, may, incoming),
        Expr::Load(..) | Expr::Const(_) | Expr::Hi(_) | Expr::Lo(_) => {}
    }
}

/// Forward may-dataflow: which slots could each register address.
struct MaySlots {
    entry: Vec<BTreeMap<Reg, BTreeSet<LocalId>>>,
}

impl MaySlots {
    fn compute(f: &Function) -> MaySlots {
        let cfg = Cfg::build(f);
        let nb = f.blocks.len();
        let mut out: Vec<Option<BTreeMap<Reg, BTreeSet<LocalId>>>> = vec![None; nb];
        let rpo = cfg.reverse_postorder();
        loop {
            let mut stable = true;
            for &bi in &rpo {
                let mut state = Self::meet(&cfg, &out, bi);
                for inst in &f.blocks[bi].insts {
                    Self::transfer(&mut state, inst);
                }
                if out[bi].as_ref() != Some(&state) {
                    out[bi] = Some(state);
                    stable = false;
                }
            }
            if stable {
                break;
            }
        }
        let entry = (0..nb).map(|bi| Self::meet(&cfg, &out, bi)).collect();
        MaySlots { entry }
    }

    fn meet(
        cfg: &Cfg,
        out: &[Option<BTreeMap<Reg, BTreeSet<LocalId>>>],
        bi: usize,
    ) -> BTreeMap<Reg, BTreeSet<LocalId>> {
        let mut acc: BTreeMap<Reg, BTreeSet<LocalId>> = BTreeMap::new();
        for &p in &cfg.preds[bi] {
            if let Some(s) = &out[p] {
                for (k, v) in s {
                    acc.entry(*k).or_default().extend(v.iter().copied());
                }
            }
        }
        acc
    }

    fn transfer(state: &mut BTreeMap<Reg, BTreeSet<LocalId>>, inst: &Inst) {
        match inst {
            Inst::Assign { dst, src } => {
                let mut incoming = BTreeSet::new();
                value_sources(src, state, &mut incoming);
                if incoming.is_empty() {
                    state.remove(dst);
                } else {
                    state.insert(*dst, incoming);
                }
            }
            Inst::Call { dst: Some(d), .. } => {
                state.remove(d);
            }
            _ => {}
        }
    }

    fn entry_state(&self, bi: usize) -> BTreeMap<Reg, BTreeSet<LocalId>> {
        self.entry[bi].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpo_rtl::BinOp;

    fn t() -> Target {
        Target::default()
    }

    /// Builds `v = p; return v + v` in direct-address (post-`s`) form,
    /// with hard registers (post-assignment).
    fn direct_form() -> Function {
        let mut f = Function::new("f");
        f.flags.regs_assigned = true;
        let p = Reg::hard(0);
        let t0 = Reg::hard(1);
        let out = Reg::hard(2);
        f.params.push(p);
        let v = f.new_local("v", 4);
        f.blocks[0].insts = vec![
            Inst::Store { width: Width::Word, addr: Expr::LocalAddr(v), src: Expr::Reg(p) },
            Inst::Assign { dst: t0, src: Expr::load(Width::Word, Expr::LocalAddr(v)) },
            Inst::Assign { dst: out, src: Expr::bin(BinOp::Add, Expr::Reg(t0), Expr::Reg(t0)) },
            Inst::Return { value: Some(Expr::Reg(out)) },
        ];
        f
    }

    /// The naive two-step form: `addr = &v; M[addr] = p; t = M[addr]`.
    fn indirect_form() -> Function {
        let mut f = Function::new("f");
        f.flags.regs_assigned = true;
        let p = Reg::hard(0);
        let addr = Reg::hard(1);
        let t0 = Reg::hard(2);
        f.params.push(p);
        let v = f.new_local("v", 4);
        f.blocks[0].insts = vec![
            Inst::Assign { dst: addr, src: Expr::LocalAddr(v) },
            Inst::Store { width: Width::Word, addr: Expr::Reg(addr), src: Expr::Reg(p) },
            Inst::Assign { dst: t0, src: Expr::load(Width::Word, Expr::Reg(addr)) },
            Inst::Return { value: Some(Expr::Reg(t0)) },
        ];
        f
    }

    #[test]
    fn promotes_direct_scalar_to_register() {
        let mut f = direct_form();
        assert!(run(&mut f, &t()));
        assert!(matches!(f.blocks[0].insts[0], Inst::Assign { .. }));
        assert!(matches!(&f.blocks[0].insts[1], Inst::Assign { src: Expr::Reg(_), .. }));
        assert!(!run(&mut f, &t()), "second application dormant");
    }

    /// The robust-allocator ablation (not VPO's default behaviour).
    fn robust() -> Target {
        Target { regalloc_requires_direct: false, ..Target::default() }
    }

    #[test]
    fn direct_only_default_skips_indirect_form() {
        // VPO's documented dependence: k is dormant until instruction
        // selection forms direct addresses.
        let mut f = indirect_form();
        assert!(!run(&mut f, &t()));
    }

    #[test]
    fn promotes_indirect_scalar_to_register() {
        let mut f = indirect_form();
        assert!(run(&mut f, &robust()));
        // The store and load through `addr` became register moves; the
        // address computation survives as dead code for phase h.
        assert!(matches!(
            &f.blocks[0].insts[1],
            Inst::Assign { src: Expr::Reg(r), .. } if *r == Reg::hard(0)
        ));
        assert!(matches!(&f.blocks[0].insts[2], Inst::Assign { src: Expr::Reg(_), .. }));
        assert!(!run(&mut f, &robust()));
    }

    #[test]
    fn escaping_address_blocks_promotion() {
        let mut f = indirect_form();
        // Pass the address register to a call: the slot escapes, even for
        // the robust allocator.
        f.blocks[0].insts.insert(
            3,
            Inst::Call { callee: "ext".into(), args: vec![Expr::Reg(Reg::hard(1))], dst: None },
        );
        assert!(!run(&mut f, &robust()));
    }

    #[test]
    fn ambiguous_address_blocks_promotion() {
        // The same register holds &v or &w depending on the path.
        let mut f = Function::new("f");
        f.flags.regs_assigned = true;
        let p = Reg::hard(0);
        let addr = Reg::hard(1);
        let t0 = Reg::hard(2);
        f.params.push(p);
        let v = f.new_local("v", 4);
        let w = f.new_local("w", 4);
        let join = f.new_label();
        let other = f.new_label();
        f.blocks[0].insts = vec![
            Inst::Assign { dst: addr, src: Expr::LocalAddr(v) },
            Inst::Store { width: Width::Word, addr: Expr::Reg(addr), src: Expr::Reg(p) },
            Inst::Compare { lhs: Expr::Reg(p), rhs: Expr::Const(0) },
            Inst::CondBranch { cond: vpo_rtl::Cond::Lt, target: other },
        ];
        f.blocks.push(vpo_rtl::Block::new(join));
        f.blocks[1].insts = vec![
            Inst::Assign { dst: t0, src: Expr::load(Width::Word, Expr::Reg(addr)) },
            Inst::Return { value: Some(Expr::Reg(t0)) },
        ];
        f.blocks.push(vpo_rtl::Block::new(other));
        f.blocks[2].insts = vec![
            Inst::Assign { dst: addr, src: Expr::LocalAddr(w) },
            Inst::Store { width: Width::Word, addr: Expr::Reg(addr), src: Expr::Reg(p) },
            Inst::Jump { target: join },
        ];
        // v is read through `addr` at the join where the fact is ambiguous;
        // neither v nor w may be promoted.
        assert!(!run(&mut f, &robust()));
    }

    #[test]
    fn dormant_when_no_free_registers() {
        let mut f = direct_form();
        let target = Target { usable_regs: 3, ..Target::default() }; // r0..r2 all used
        assert!(!run(&mut f, &target));
    }

    #[test]
    fn arrays_are_not_promoted() {
        let mut f = Function::new("f");
        f.flags.regs_assigned = true;
        let t0 = Reg::hard(0);
        let a = f.new_local("a", 40);
        f.blocks[0].insts = vec![
            Inst::Assign {
                dst: t0,
                src: Expr::load(
                    Width::Word,
                    Expr::bin(BinOp::Add, Expr::LocalAddr(a), Expr::Const(8)),
                ),
            },
            Inst::Return { value: Some(Expr::Reg(t0)) },
        ];
        assert!(!run(&mut f, &t()));
    }

    #[test]
    fn byte_accesses_block_promotion() {
        let mut f = direct_form();
        if let Inst::Assign { src, .. } = &mut f.blocks[0].insts[1] {
            *src = Expr::load(Width::Byte, Expr::LocalAddr(LocalId(0)));
        }
        assert!(!run(&mut f, &t()));
    }
}
