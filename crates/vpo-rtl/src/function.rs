//! Functions, basic blocks, local slots, and whole programs.

use crate::expr::{Expr, SymId, Width};
use crate::inst::Inst;
use crate::Reg;

/// A basic-block label. Labels are unique within a function and are
/// remapped during canonicalization, so their numeric values carry no
/// meaning across function instances.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Label(pub u32);

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Identifies a local stack slot within a [`Function`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LocalId(pub u32);

impl std::fmt::Display for LocalId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "loc{}", self.0)
    }
}

/// A local variable allocated in the activation record.
///
/// Scalar locals (`size == 4`) whose address is never *taken* (used outside
/// a direct load or store) are candidates for the register-allocation phase
/// `k`, which replaces their memory references with a register.
#[derive(PartialEq, Eq, Hash, Debug)]
pub struct LocalSlot {
    /// Source-level name (for diagnostics and pretty printing).
    pub name: String,
    /// Slot size in bytes; 4 for scalars, larger for arrays.
    pub size: u32,
    /// Whether the address escapes (passed to a call, stored, or used in
    /// non-trivial arithmetic). Escaping slots are never register-allocated.
    pub addr_taken: bool,
}

/// Hand-written so `clone_from` reuses the name `String`'s allocation —
/// part of the allocation-free [`Function::copy_from`] path.
impl Clone for LocalSlot {
    fn clone(&self) -> LocalSlot {
        LocalSlot { name: self.name.clone(), size: self.size, addr_taken: self.addr_taken }
    }

    fn clone_from(&mut self, source: &LocalSlot) {
        self.name.clone_from(&source.name);
        self.size = source.size;
        self.addr_taken = source.addr_taken;
    }
}

impl LocalSlot {
    /// Whether the slot is a scalar word.
    pub fn is_scalar(&self) -> bool {
        self.size == 4
    }
}

/// A basic block: a label plus a straight-line instruction list.
///
/// Control transfers are *explicit instructions* (they occupy space and are
/// counted in code size, exactly as in the paper). A block whose last
/// instruction is not a barrier falls through to the next positional block.
#[derive(PartialEq, Eq, Hash, Debug)]
pub struct Block {
    /// The block's label.
    pub label: Label,
    /// The instructions of the block.
    pub insts: Vec<Inst>,
}

/// Hand-written so `clone_from` clones element-wise into the existing
/// instruction `Vec`, letting [`Inst`]'s own `clone_from` reuse operand
/// allocations — part of the allocation-free [`Function::copy_from`] path.
impl Clone for Block {
    fn clone(&self) -> Block {
        Block { label: self.label, insts: self.insts.clone() }
    }

    fn clone_from(&mut self, source: &Block) {
        self.label = source.label;
        self.insts.clone_from(&source.insts);
    }
}

impl Block {
    /// Creates an empty block with the given label.
    pub fn new(label: Label) -> Self {
        Block { label, insts: Vec::new() }
    }

    /// Whether execution can fall through past the end of this block.
    pub fn falls_through(&self) -> bool {
        match self.insts.last() {
            Some(i) => !i.is_barrier(),
            None => true,
        }
    }

    /// The block's sole instruction if it consists of exactly one
    /// unconditional jump — the shape consumed by branch chaining.
    pub fn as_trivial_jump(&self) -> Option<Label> {
        match self.insts.as_slice() {
            [Inst::Jump { target }] => Some(*target),
            _ => None,
        }
    }
}

/// Per-function phase-ordering flags.
///
/// These record which compulsory/one-way milestones have happened, which
/// the legality rules of Section 3 of the paper depend on:
///
/// * *evaluation order determination* (`o`) is legal only while
///   `regs_assigned` is false;
/// * *loop unrolling* (`g`) and *loop transformations* (`l`) are legal only
///   once `reg_allocated` is true.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct FuncFlags {
    /// The compulsory register-assignment phase has run (pseudo registers
    /// were mapped to hard registers).
    pub regs_assigned: bool,
    /// The register-allocation phase `k` has been active at least once.
    pub reg_allocated: bool,
}

/// A function in RTL form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Function {
    /// Function name (unique within a [`Program`]).
    pub name: String,
    /// Registers holding the incoming arguments, in order. Updated by
    /// register assignment when pseudos are renamed.
    pub params: Vec<Reg>,
    /// Basic blocks in layout order; `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
    /// Local stack slots.
    pub locals: Vec<LocalSlot>,
    /// Phase-ordering flags (see [`FuncFlags`]).
    pub flags: FuncFlags,
    next_pseudo: u16,
    next_label: u32,
}

/// A placeholder with *no* blocks — not a valid function (every real
/// function has an entry block). It exists so buffers of `Function` can be
/// `std::mem::take`n or pre-created without allocating; fill it with
/// [`Function::copy_from`] before use.
impl Default for Function {
    fn default() -> Function {
        Function {
            name: String::new(),
            params: Vec::new(),
            blocks: Vec::new(),
            locals: Vec::new(),
            flags: FuncFlags::default(),
            next_pseudo: 0,
            next_label: 0,
        }
    }
}

impl Function {
    /// Creates an empty function with a single empty entry block.
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: name.into(),
            params: Vec::new(),
            blocks: vec![Block::new(Label(0))],
            locals: Vec::new(),
            flags: FuncFlags::default(),
            next_pseudo: 0,
            next_label: 1,
        }
    }

    /// Allocates a fresh pseudo register.
    ///
    /// # Panics
    ///
    /// Panics if called after register assignment; new temporaries at that
    /// point must be hard registers chosen by the phase that needs them.
    pub fn new_pseudo(&mut self) -> Reg {
        assert!(
            !self.flags.regs_assigned,
            "cannot create pseudo registers after register assignment"
        );
        let r = Reg::pseudo(self.next_pseudo);
        self.next_pseudo += 1;
        r
    }

    /// Allocates a fresh label (does not create a block).
    pub fn new_label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Allocates a fresh local slot and returns its id.
    pub fn new_local(&mut self, name: impl Into<String>, size: u32) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(LocalSlot { name: name.into(), size, addr_taken: false });
        id
    }

    /// Makes `self` an exact copy of `src` while reusing `self`'s existing
    /// heap allocations (block/instruction/local vectors, strings, operand
    /// boxes) wherever the shapes line up.
    ///
    /// Semantically identical to `*self = src.clone()`; the point is the
    /// allocation profile: when `self` already holds a similar function —
    /// the enumerator's scratch buffer restoring a parent between phase
    /// attempts — the steady state performs no heap allocation at all.
    pub fn copy_from(&mut self, src: &Function) {
        self.name.clone_from(&src.name);
        self.params.clear();
        self.params.extend_from_slice(&src.params);
        self.blocks.clone_from(&src.blocks);
        self.locals.clone_from(&src.locals);
        self.flags = src.flags;
        self.next_pseudo = src.next_pseudo;
        self.next_label = src.next_label;
    }

    /// Total number of instructions (the paper's static code-size measure).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Number of conditional and unconditional transfers of control
    /// (the paper's `Brch` column).
    pub fn branch_count(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter(|i| matches!(i, Inst::CondBranch { .. } | Inst::Jump { .. }))
            .count()
    }

    /// Index of the block with the given label.
    pub fn block_index(&self, label: Label) -> Option<usize> {
        self.blocks.iter().position(|b| b.label == label)
    }

    /// Borrow the block with the given label.
    ///
    /// # Panics
    ///
    /// Panics if no block carries `label`.
    pub fn block(&self, label: Label) -> &Block {
        &self.blocks[self.block_index(label).expect("unknown label")]
    }

    /// Iterate over `(block_index, inst_index, inst)` for all instructions.
    pub fn iter_insts(&self) -> impl Iterator<Item = (usize, usize, &Inst)> {
        self.blocks
            .iter()
            .enumerate()
            .flat_map(|(bi, b)| b.insts.iter().enumerate().map(move |(ii, i)| (bi, ii, i)))
    }

    /// Calls `cb` on every register occurrence in the function, block by
    /// block and instruction by instruction: an instruction's destination
    /// first, then its reads in [`Inst::collect_uses`] order. Repeated
    /// occurrences are reported repeatedly. Allocation-free.
    pub fn visit_regs(&self, mut cb: impl FnMut(Reg)) {
        for b in &self.blocks {
            for i in &b.insts {
                if let Some(d) = i.def() {
                    cb(d);
                }
                i.visit_exprs(&mut |e| {
                    e.visit(&mut |sub| {
                        if let Expr::Reg(r) = sub {
                            cb(*r);
                        }
                    })
                });
            }
        }
    }

    /// Returns every register mentioned anywhere in the function
    /// (definitions and uses), deduplicated, in encounter order.
    pub fn all_regs(&self) -> Vec<Reg> {
        // One seen-bitmap per register class, grown on demand.
        let mut seen: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        let mut out = Vec::new();
        self.visit_regs(|r| {
            let bits = &mut seen[r.class as usize];
            let (w, b) = (r.index as usize / 64, r.index % 64);
            if bits.len() <= w {
                bits.resize(w + 1, 0);
            }
            if bits[w] & (1 << b) == 0 {
                bits[w] |= 1 << b;
                out.push(r);
            }
        });
        out
    }

    /// Recomputes the `addr_taken` flag of every local by scanning all uses
    /// of [`Expr::LocalAddr`]: an address is *taken* whenever it appears
    /// anywhere other than as the complete address operand (possibly plus a
    /// constant, for arrays) of a load or store.
    pub fn recompute_addr_taken(&mut self) {
        let mut taken = vec![false; self.locals.len()];
        // An address is "direct" if the full address expression is
        // LocalAddr(id) or LocalAddr(id) + const. Any LocalAddr occurring in
        // other positions marks the slot as escaping.
        fn scan_value(e: &Expr, taken: &mut [bool]) {
            match e {
                Expr::LocalAddr(id) => taken[id.0 as usize] = true,
                Expr::Bin(_, a, b) => {
                    scan_value(a, taken);
                    scan_value(b, taken);
                }
                Expr::Un(_, a) => scan_value(a, taken),
                Expr::Load(_, a) => scan_addr(a, taken),
                _ => {}
            }
        }
        fn scan_addr(e: &Expr, taken: &mut [bool]) {
            match e {
                Expr::LocalAddr(_) => {}
                Expr::Bin(crate::expr::BinOp::Add, a, b) => match (&**a, &**b) {
                    (Expr::LocalAddr(_), Expr::Const(_)) => {}
                    (Expr::LocalAddr(id), other) => {
                        taken[id.0 as usize] = true;
                        scan_value(other, taken);
                    }
                    _ => {
                        scan_value(a, taken);
                        scan_value(b, taken);
                    }
                },
                other => scan_value(other, taken),
            }
        }
        for b in &self.blocks {
            for i in &b.insts {
                match i {
                    Inst::Store { addr, src, .. } => {
                        scan_addr(addr, &mut taken);
                        scan_value(src, &mut taken);
                    }
                    _ => i.visit_exprs(&mut |e| scan_value(e, &mut taken)),
                }
            }
        }
        for (slot, t) in self.locals.iter_mut().zip(taken) {
            slot.addr_taken = t;
        }
    }

    /// Locals eligible for register allocation: scalar, address not taken,
    /// and *every* access is a direct whole-word load or store of the bare
    /// slot address.
    pub fn allocatable_locals(&self) -> Vec<LocalId> {
        let mut direct_ok = vec![true; self.locals.len()];
        for b in &self.blocks {
            for i in &b.insts {
                i.visit_exprs(&mut |e| {
                    e.visit(&mut |sub| {
                        if let Expr::Load(w, a) = sub {
                            if let Expr::LocalAddr(id) = &**a {
                                if *w != Width::Word {
                                    direct_ok[id.0 as usize] = false;
                                }
                            }
                        }
                    });
                });

                if let Inst::Store { width, addr: Expr::LocalAddr(id), .. } = i {
                    if *width != Width::Word {
                        direct_ok[id.0 as usize] = false;
                    }
                }
            }
        }
        self.locals
            .iter()
            .enumerate()
            .filter(|(i, s)| s.is_scalar() && !s.addr_taken && direct_ok[*i])
            .map(|(i, _)| LocalId(i as u32))
            .collect()
    }
}

/// A global variable definition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GlobalDef {
    /// Symbol name.
    pub name: String,
    /// Size in bytes.
    pub size: u32,
    /// Initial words (zero-padded to `size`).
    pub init: Vec<i32>,
    /// Initial bytes override; when non-empty, takes precedence over
    /// `init` (used for string data).
    pub init_bytes: Vec<u8>,
}

/// A whole translation unit: globals plus functions.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// Global variables, indexed by [`SymId`].
    pub globals: Vec<GlobalDef>,
    /// Functions in definition order.
    pub functions: Vec<Function>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a global and returns its symbol id.
    pub fn add_global(&mut self, def: GlobalDef) -> SymId {
        let id = SymId(self.globals.len() as u32);
        self.globals.push(def);
        id
    }

    /// Finds a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<SymId> {
        self.globals.iter().position(|g| g.name == name).map(|i| SymId(i as u32))
    }

    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    #[test]
    fn fresh_ids_are_distinct() {
        let mut f = Function::new("t");
        let a = f.new_pseudo();
        let b = f.new_pseudo();
        assert_ne!(a, b);
        let l1 = f.new_label();
        let l2 = f.new_label();
        assert_ne!(l1, l2);
        assert_ne!(l1, f.blocks[0].label);
    }

    #[test]
    #[should_panic(expected = "register assignment")]
    fn no_pseudos_after_assignment() {
        let mut f = Function::new("t");
        f.flags.regs_assigned = true;
        let _ = f.new_pseudo();
    }

    #[test]
    fn addr_taken_analysis() {
        let mut f = Function::new("t");
        let scalar = f.new_local("x", 4);
        let array = f.new_local("a", 40);
        let escaping = f.new_local("y", 4);
        let r0 = f.new_pseudo();
        let idx = f.new_pseudo();
        f.blocks[0].insts = vec![
            // x used directly: not taken.
            Inst::Store { width: Width::Word, addr: Expr::LocalAddr(scalar), src: Expr::Const(1) },
            Inst::Assign { dst: r0, src: Expr::load(Width::Word, Expr::LocalAddr(scalar)) },
            // a indexed by a register: taken (address arithmetic escapes).
            Inst::Assign {
                dst: r0,
                src: Expr::load(
                    Width::Word,
                    Expr::bin(BinOp::Add, Expr::LocalAddr(array), Expr::Reg(idx)),
                ),
            },
            // y's address passed to a call: taken.
            Inst::Call { callee: "ext".into(), args: vec![Expr::LocalAddr(escaping)], dst: None },
            Inst::Return { value: None },
        ];
        f.recompute_addr_taken();
        assert!(!f.locals[scalar.0 as usize].addr_taken);
        assert!(f.locals[array.0 as usize].addr_taken);
        assert!(f.locals[escaping.0 as usize].addr_taken);
        assert_eq!(f.allocatable_locals(), vec![scalar]);
    }

    #[test]
    fn addr_plus_const_is_direct() {
        let mut f = Function::new("t");
        let arr = f.new_local("a", 8);
        let r0 = f.new_pseudo();
        f.blocks[0].insts = vec![
            Inst::Assign {
                dst: r0,
                src: Expr::load(
                    Width::Word,
                    Expr::bin(BinOp::Add, Expr::LocalAddr(arr), Expr::Const(4)),
                ),
            },
            Inst::Return { value: Some(Expr::Reg(r0)) },
        ];
        f.recompute_addr_taken();
        assert!(!f.locals[arr.0 as usize].addr_taken);
        // But it is not allocatable because it is not scalar-sized.
        assert!(f.allocatable_locals().is_empty());
    }

    fn sample_function() -> Function {
        let mut f = Function::new("sample");
        let x = f.new_local("x", 4);
        let r0 = f.new_pseudo();
        let r1 = f.new_pseudo();
        f.params.push(r0);
        let l = f.new_label();
        f.blocks[0].insts = vec![
            Inst::Store { width: Width::Word, addr: Expr::LocalAddr(x), src: Expr::Reg(r0) },
            Inst::Assign {
                dst: r1,
                src: Expr::bin(BinOp::Mul, Expr::load(Width::Word, Expr::LocalAddr(x)), 3.into()),
            },
            Inst::Compare { lhs: Expr::Reg(r1), rhs: Expr::Const(0) },
            Inst::CondBranch { cond: crate::expr::Cond::Le, target: l },
        ];
        f.blocks.push(Block::new(l));
        f.blocks[1].insts =
            vec![Inst::Call { callee: "ext".into(), args: vec![Expr::Reg(r1)], dst: None }, {
                Inst::Return { value: Some(Expr::Reg(r1)) }
            }];
        f.recompute_addr_taken();
        f
    }

    #[test]
    fn copy_from_is_exact_for_any_prior_content() {
        let src = sample_function();
        // Cold destination (the Default placeholder).
        let mut dst = Function::default();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        // Same fresh-id counters, observable through new_label.
        let (mut a, mut b) = (dst.clone(), src.clone());
        assert_eq!(a.new_label(), b.new_label());

        // Warm destination holding a *different* function: still exact.
        let mut warm = Function::new("other");
        warm.flags.regs_assigned = true;
        warm.blocks[0].insts = vec![Inst::Return { value: Some(Expr::Const(9)) }];
        warm.copy_from(&src);
        assert_eq!(warm, src);

        // Warm destination holding the same function: idempotent.
        warm.copy_from(&src);
        assert_eq!(warm, src);
    }

    #[test]
    fn copy_from_shrinks_larger_destinations() {
        let src = sample_function();
        let mut big = sample_function();
        big.blocks.push(Block::new(Label(99)));
        big.blocks[0].insts.push(Inst::Jump { target: Label(99) });
        big.locals.push(LocalSlot { name: "extra".into(), size: 8, addr_taken: true });
        big.params.push(Reg::hard(3));
        big.copy_from(&src);
        assert_eq!(big, src);
    }

    #[test]
    fn counting() {
        let mut f = Function::new("t");
        let l = f.new_label();
        f.blocks[0].insts = vec![
            Inst::Compare { lhs: Expr::Const(0), rhs: Expr::Const(1) },
            Inst::CondBranch { cond: crate::expr::Cond::Lt, target: l },
            Inst::Jump { target: l },
        ];
        f.blocks.push(Block::new(l));
        f.blocks[1].insts.push(Inst::Return { value: None });
        assert_eq!(f.inst_count(), 4);
        assert_eq!(f.branch_count(), 2);
        assert!(!f.blocks[0].falls_through());
    }
}
