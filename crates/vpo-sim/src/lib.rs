//! RTL interpreter with dynamic instruction counting.
//!
//! The paper's eventual measure of execution efficiency is the *dynamic
//! instruction count* ("Dynamic instruction counts, unlike cycle counts,
//! are a crude approximation of execution efficiency", Section 7) — this
//! crate provides exactly that substrate: a deterministic interpreter for
//! RTL [`Program`]s that executes function instances produced by **any**
//! phase ordering and counts every executed instruction.
//!
//! Two modelling choices are worth knowing:
//!
//! * **Per-activation register state.** Each call frame has its own
//!   register file, so a call defines only its result register in the
//!   caller. This matches how the optimizer models calls and sidesteps
//!   caller-/callee-save conventions without weakening any phase
//!   interaction (calls still clobber memory).
//! * **Flat little-endian memory.** Globals are laid out from a fixed
//!   base; each frame's locals are carved from a downward-growing stack.
//!   `HI[sym]`/`LO[sym]` split the global's address exactly like the
//!   ARM idiom the paper shows in Figure 5.
//!
//! The machine has two execution engines selected by [`SimEngine`]: the
//! original tree-walking interpreter ([`SimEngine::Interp`], the
//! reference semantics) and a pre-lowered direct-threaded engine
//! ([`SimEngine::Threaded`], the default) that is bit-identical to the
//! interpreter but much faster — see the [`threaded`](self) module docs
//! and `DESIGN.md`. Every shipped caller runs the threaded default; only
//! `tests/sim_engine_equivalence.rs` at the workspace root selects the
//! interpreter, as the differential gate holding the two engines
//! together.
//!
//! # Example
//!
//! ```
//! let program = vpo_frontend::compile(
//!     "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }",
//! ).unwrap();
//! let mut m = vpo_sim::Machine::new(&program);
//! assert_eq!(m.call("fact", &[5]).unwrap(), 120);
//! assert!(m.dynamic_insts() > 0);
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use vpo_rtl::crc::crc32;
use vpo_rtl::{BinOp, Expr, Function, Inst, Program, Reg, SymId, Width};

pub mod stats;
mod threaded;

pub use threaded::LoweredInstance;

/// Simulator errors.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SimError {
    /// Integer division or remainder by zero (or `INT_MIN / -1`).
    DivideByZero {
        /// Function in which the trap occurred.
        function: String,
    },
    /// A memory access outside the allocated address space.
    BadAddress {
        /// The offending address.
        addr: u32,
        /// Function in which the access occurred.
        function: String,
    },
    /// Shift amount outside `0..32` (undefined on the modelled target).
    BadShift {
        /// The offending shift amount.
        amount: i32,
    },
    /// Call to a function not present in the program.
    UnknownFunction(String),
    /// The configured instruction budget was exhausted (runaway loop).
    OutOfFuel,
    /// Call stack exceeded the configured depth.
    StackOverflow,
    /// The stack region was exhausted by local allocations.
    OutOfStack,
    /// A function fell off its last block without returning.
    MissingReturn(String),
    /// A host-side global accessor named a global not present in the
    /// program.
    UnknownGlobal(String),
    /// A host-side global accessor read or wrote outside the named
    /// global's storage.
    GlobalOutOfRange {
        /// The global's name.
        name: String,
        /// The offending element/byte index (the data length, for bulk
        /// writes).
        index: usize,
    },
}

/// One [`Machine::run_battery`] entry: the observation — `(return
/// value, globals CRC)` or the trap — plus the run's dynamic
/// instruction count.
pub type BatteryOutcome = (Result<(i32, u32), SimError>, u64);

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::DivideByZero { function } => {
                write!(f, "division by zero in `{function}`")
            }
            SimError::BadAddress { addr, function } => {
                write!(f, "bad memory access at {addr:#x} in `{function}`")
            }
            SimError::BadShift { amount } => write!(f, "shift by {amount} is undefined"),
            SimError::UnknownFunction(n) => write!(f, "call to unknown function `{n}`"),
            SimError::OutOfFuel => write!(f, "instruction budget exhausted"),
            SimError::StackOverflow => write!(f, "call stack overflow"),
            SimError::OutOfStack => write!(f, "stack region exhausted"),
            SimError::MissingReturn(n) => write!(f, "function `{n}` fell off the end"),
            SimError::UnknownGlobal(n) => write!(f, "access to unknown global `{n}`"),
            SimError::GlobalOutOfRange { name, index } => {
                write!(f, "access at index {index} is outside global `{name}`")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Address where the globals segment starts.
const GLOBAL_BASE: u32 = 0x1000;
/// Default memory size (globals + heap-less stack).
const DEFAULT_MEM: usize = 1 << 20;
/// Default dynamic-instruction budget.
const DEFAULT_FUEL: u64 = 200_000_000;
/// Default maximum call depth.
const MAX_DEPTH: usize = 256;

/// Which execution engine a [`Machine`] uses.
///
/// Both engines are observationally identical — same return values,
/// memory effects, dynamic instruction counts, block-entry counts, and
/// error classification. The interpreter is the reference semantics; the
/// threaded engine is the fast default, held to the reference by the
/// `sim_engine_equivalence` differential suite.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimEngine {
    /// The tree-walking reference interpreter.
    Interp,
    /// The pre-lowered direct-threaded engine (default).
    #[default]
    Threaded,
}

/// An RTL machine: memory, globals layout, and instruction counters.
#[derive(Clone)]
pub struct Machine<'p> {
    program: &'p Program,
    mem: Vec<u8>,
    global_addr: Vec<u32>,
    stack_top: u32,
    dynamic: u64,
    fuel: u64,
    engine: SimEngine,
    functions: HashMap<&'p str, &'p Function>,
    /// Per-block entry counters for the *outermost* frame of
    /// [`Machine::call_instance_counted`], if one is active.
    block_counts: Option<Vec<u64>>,
    /// Program-function index by name, mirroring `functions` (same
    /// last-definition-wins behavior for duplicate names).
    fn_index: HashMap<&'p str, u32>,
    /// Lazily lowered program functions (threaded engine callees).
    lowered_fns: Vec<Option<Arc<threaded::LoweredFunction>>>,
    /// Block-level lowering cache; holds pure code, so it survives
    /// [`Machine::reset`] and is shared across instances.
    lower_cache: threaded::LowerCache,
    /// Scratch pools for threaded frames (register files, local-address
    /// tables) and postfix evaluation; purely an allocation-reuse detail.
    regfile_pool: Vec<Vec<i32>>,
    local_pool: Vec<Vec<u32>>,
    eval_stack: Vec<i32>,
    /// Batched-retirement count awaiting a flush to [`stats`].
    pending_retires: u64,
}

impl<'p> Machine<'p> {
    /// Creates a machine for `program` with default memory and fuel, and
    /// initializes global storage.
    pub fn new(program: &'p Program) -> Self {
        Machine::with_mem_size(program, DEFAULT_MEM)
    }

    /// Creates a machine with a custom memory image size. Smaller images
    /// make [`Machine::reset`] (which zeroes the whole image) much cheaper
    /// — the differential oracle runs tens of thousands of short
    /// simulations and resets between every one.
    ///
    /// # Panics
    ///
    /// Panics if the program's globals do not fit in half of `mem_size`.
    pub fn with_mem_size(program: &'p Program, mem_size: usize) -> Self {
        let mut m = Machine {
            program,
            mem: vec![0; mem_size],
            global_addr: Vec::new(),
            stack_top: mem_size as u32,
            dynamic: 0,
            fuel: DEFAULT_FUEL,
            engine: SimEngine::default(),
            functions: program.functions.iter().map(|f| (f.name.as_str(), f)).collect(),
            block_counts: None,
            fn_index: program
                .functions
                .iter()
                .enumerate()
                .map(|(i, f)| (f.name.as_str(), i as u32))
                .collect(),
            lowered_fns: vec![None; program.functions.len()],
            lower_cache: threaded::LowerCache::default(),
            regfile_pool: Vec::new(),
            local_pool: Vec::new(),
            eval_stack: Vec::new(),
            pending_retires: 0,
        };
        m.layout_globals();
        m
    }

    /// Selects the execution engine (default [`SimEngine::Threaded`]).
    /// Production callers keep the default; the interpreter is the
    /// reference the engine-equivalence tests hold the threaded engine to.
    pub fn set_engine(&mut self, engine: SimEngine) {
        self.engine = engine;
    }

    /// Replaces the instruction budget (default 200M).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Dynamic instructions executed so far.
    pub fn dynamic_insts(&self) -> u64 {
        self.dynamic
    }

    /// Restores the machine to its initial observable state: memory is
    /// zeroed and globals re-initialized, the dynamic counter returns to
    /// zero (which also restores the full fuel budget — the fuel *cap*
    /// set by [`Machine::set_fuel`] is configuration, not run state), and
    /// any in-progress block-count accumulator is dropped.
    ///
    /// Deliberately *not* reset: the configured fuel cap, and the
    /// threaded engine's lowering caches — those hold pure code, and
    /// keeping them warm across a battery of resets is the point of the
    /// block cache. `stack_top` needs no restore here because every
    /// public call path saves and restores it, and condition codes and
    /// registers are per-frame state that cannot outlive a call.
    pub fn reset(&mut self) {
        self.mem.iter_mut().for_each(|b| *b = 0);
        self.layout_globals();
        self.dynamic = 0;
        self.block_counts = None;
    }

    fn layout_globals(&mut self) {
        self.global_addr.clear();
        let mut addr = GLOBAL_BASE;
        for g in &self.program.globals {
            // Word-align each global.
            addr = (addr + 3) & !3;
            self.global_addr.push(addr);
            let base = addr as usize;
            if !g.init_bytes.is_empty() {
                self.mem[base..base + g.init_bytes.len()].copy_from_slice(&g.init_bytes);
            } else {
                for (i, w) in g.init.iter().enumerate() {
                    self.mem[base + 4 * i..base + 4 * i + 4].copy_from_slice(&w.to_le_bytes());
                }
            }
            addr += g.size.max(1);
        }
        assert!((addr as usize) < self.mem.len() / 2, "globals overflow the memory image");
    }

    /// Address of a global by symbol id.
    pub fn global_address(&self, sym: SymId) -> u32 {
        self.global_addr[sym.0 as usize]
    }

    /// CRC-32 digest of the whole globals segment — a summary of every
    /// memory effect execution has left behind. Two runs whose return
    /// values and globals digests both match are observationally
    /// identical to this machine's memory model (per-activation registers
    /// and the stack do not outlive a call).
    pub fn globals_crc(&self) -> u32 {
        let end = self
            .program
            .globals
            .iter()
            .zip(&self.global_addr)
            .map(|(g, &a)| a + g.size.max(1))
            .max()
            .unwrap_or(GLOBAL_BASE);
        crc32(&self.mem[GLOBAL_BASE as usize..end as usize])
    }

    /// Base address and size (in bytes) of the named global, range-checked
    /// by the host-side accessors below. These report errors the same way
    /// the simulated OOB store path does, rather than panicking: a bad
    /// workload index in an oracle battery is data, not a crash.
    fn global_span(&self, name: &str) -> Result<(usize, usize), SimError> {
        let sym = self
            .program
            .global_by_name(name)
            .ok_or_else(|| SimError::UnknownGlobal(name.to_owned()))?;
        let g = &self.program.globals[sym.0 as usize];
        Ok((self.global_addr[sym.0 as usize] as usize, g.size.max(1) as usize))
    }

    /// Reads word `index` of the named global.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownGlobal`] if no such global exists,
    /// [`SimError::GlobalOutOfRange`] if the word lies outside it.
    pub fn read_global_word(&self, name: &str, index: usize) -> Result<i32, SimError> {
        let (base, size) = self.global_span(name)?;
        let off = 4 * index;
        if off + 4 > size {
            return Err(SimError::GlobalOutOfRange { name: name.to_owned(), index });
        }
        let a = base + off;
        Ok(i32::from_le_bytes(self.mem[a..a + 4].try_into().unwrap()))
    }

    /// Writes word `index` of the named global.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::read_global_word`].
    pub fn write_global_word(
        &mut self,
        name: &str,
        index: usize,
        value: i32,
    ) -> Result<(), SimError> {
        let (base, size) = self.global_span(name)?;
        let off = 4 * index;
        if off + 4 > size {
            return Err(SimError::GlobalOutOfRange { name: name.to_owned(), index });
        }
        let a = base + off;
        self.mem[a..a + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads byte `index` of the named global (for `char` arrays).
    ///
    /// # Errors
    ///
    /// Same as [`Machine::read_global_word`].
    pub fn read_global_byte(&self, name: &str, index: usize) -> Result<u8, SimError> {
        let (base, size) = self.global_span(name)?;
        if index >= size {
            return Err(SimError::GlobalOutOfRange { name: name.to_owned(), index });
        }
        Ok(self.mem[base + index])
    }

    /// Writes raw bytes into the named global.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownGlobal`] if no such global exists,
    /// [`SimError::GlobalOutOfRange`] if `data` does not fit (the
    /// reported index is `data.len()`).
    pub fn write_global_bytes(&mut self, name: &str, data: &[u8]) -> Result<(), SimError> {
        let (base, size) = self.global_span(name)?;
        if data.len() > size {
            return Err(SimError::GlobalOutOfRange { name: name.to_owned(), index: data.len() });
        }
        self.mem[base..base + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Calls function `name` with `args`, returning its value (functions
    /// without an explicit value return 0).
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised during execution; memory contents at that
    /// point are left as they were (useful for debugging).
    pub fn call(&mut self, name: &str, args: &[i32]) -> Result<i32, SimError> {
        let stack_top = self.stack_top;
        let r = match self.engine {
            SimEngine::Interp => self.call_inner(name, args, 0),
            SimEngine::Threaded => self.call_threaded(name, args, 0),
        };
        self.stack_top = stack_top;
        self.flush_sim_stats();
        r
    }

    /// Calls a specific function *instance* (e.g. one produced by a custom
    /// phase ordering) instead of the program's own copy. Other functions
    /// called by `f` still resolve through the program.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::call`].
    pub fn call_instance(&mut self, f: &Function, args: &[i32]) -> Result<i32, SimError> {
        match self.engine {
            SimEngine::Interp => {
                let stack_top = self.stack_top;
                let r = self.exec(f, args, 0);
                self.stack_top = stack_top;
                r
            }
            SimEngine::Threaded => {
                let li = self.lower_instance(f);
                self.call_lowered(&li, args)
            }
        }
    }

    /// Pre-lowers a function instance for the threaded engine. Lowering
    /// goes through the machine's block cache, so near-identical
    /// instances share almost all of their lowered blocks; the returned
    /// handle amortizes even the per-block cache probes across a battery
    /// of [`Machine::call_lowered`] runs.
    pub fn lower_instance(&mut self, f: &Function) -> LoweredInstance {
        let lf = threaded::lower_function(f, &self.fn_index, &mut self.lower_cache);
        self.flush_sim_stats();
        LoweredInstance(lf)
    }

    /// Calls a pre-lowered instance on the threaded engine (regardless of
    /// the machine's configured default engine).
    ///
    /// # Errors
    ///
    /// Same as [`Machine::call`].
    pub fn call_lowered(&mut self, li: &LoweredInstance, args: &[i32]) -> Result<i32, SimError> {
        let stack_top = self.stack_top;
        let r = self.exec_threaded(&li.0, args, 0);
        self.stack_top = stack_top;
        self.flush_sim_stats();
        r
    }

    /// Runs a function instance over a whole battery of argument
    /// vectors, returning for each entry the observation — `(return
    /// value, globals CRC)` or the trap — plus that run's dynamic
    /// instruction count. The machine is [`Machine::reset`] before each
    /// entry and `fuel` caps every run independently. Under the
    /// threaded engine the instance is lowered exactly once through the
    /// shared block cache, so batteries over near-identical instances
    /// (the enumeration signature workload) pay the lowering cost only
    /// for blocks never seen before.
    pub fn run_battery(
        &mut self,
        f: &Function,
        inputs: &[Vec<i32>],
        fuel: u64,
    ) -> Vec<BatteryOutcome> {
        self.set_fuel(fuel);
        let lowered = match self.engine {
            SimEngine::Threaded => Some(self.lower_instance(f)),
            SimEngine::Interp => None,
        };
        let mut out = Vec::with_capacity(inputs.len());
        for args in inputs {
            self.reset();
            let r = match &lowered {
                Some(li) => self.call_lowered(li, args),
                None => self.call_instance(f, args),
            };
            out.push((r.map(|v| (v, self.globals_crc())), self.dynamic_insts()));
        }
        out
    }

    /// [`Machine::call_instance_counted`] for a pre-lowered instance.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::call`].
    pub fn call_lowered_counted(
        &mut self,
        li: &LoweredInstance,
        args: &[i32],
    ) -> Result<(i32, Vec<u64>), SimError> {
        let stack_top = self.stack_top;
        self.block_counts = Some(vec![0u64; li.0.blocks.len()]);
        let r = self.exec_threaded(&li.0, args, 0);
        let counts = self.block_counts.take().unwrap_or_default();
        self.stack_top = stack_top;
        self.flush_sim_stats();
        Ok((r?, counts))
    }

    fn flush_sim_stats(&mut self) {
        stats::flush(
            std::mem::take(&mut self.lower_cache.pending_lowered),
            std::mem::take(&mut self.lower_cache.pending_hits),
            std::mem::take(&mut self.pending_retires),
        );
    }

    /// Like [`Machine::call_instance`], but additionally returns how many
    /// times each basic block of `f` was *entered* (indexed by block
    /// position). This is the measurement behind the paper's Section 7
    /// idea: instances sharing a control flow execute their corresponding
    /// blocks the same number of times, so one execution per distinct
    /// control flow suffices to infer every instance's dynamic count as
    /// `Σ entries(block) × len(block)`.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::call`].
    pub fn call_instance_counted(
        &mut self,
        f: &Function,
        args: &[i32],
    ) -> Result<(i32, Vec<u64>), SimError> {
        match self.engine {
            SimEngine::Interp => {
                let stack_top = self.stack_top;
                self.block_counts = Some(vec![0u64; f.blocks.len()]);
                let r = self.exec(f, args, 0);
                let counts = self.block_counts.take().unwrap_or_default();
                self.stack_top = stack_top;
                Ok((r?, counts))
            }
            SimEngine::Threaded => {
                let li = self.lower_instance(f);
                self.call_lowered_counted(&li, args)
            }
        }
    }

    fn call_inner(&mut self, name: &str, args: &[i32], depth: usize) -> Result<i32, SimError> {
        let Some(&f) = self.functions.get(name) else {
            return Err(SimError::UnknownFunction(name.to_owned()));
        };
        self.exec(f, args, depth)
    }

    fn exec(&mut self, f: &Function, args: &[i32], depth: usize) -> Result<i32, SimError> {
        if depth > MAX_DEPTH {
            return Err(SimError::StackOverflow);
        }
        // Frame layout: locals carved from the stack.
        let frame_size: u32 = f.locals.iter().map(|l| (l.size + 3) & !3).sum();
        if frame_size + 64 > self.stack_top {
            return Err(SimError::OutOfStack);
        }
        let frame_base = self.stack_top - frame_size;
        let saved_top = self.stack_top;
        self.stack_top = frame_base;
        let mut local_addr = Vec::with_capacity(f.locals.len());
        {
            let mut a = frame_base;
            for l in &f.locals {
                local_addr.push(a);
                a += (l.size + 3) & !3;
            }
        }

        let mut frame = Frame { regs: HashMap::new(), cc: (0, 0), local_addr };
        // The stack pointer convention for *finalized* code (the fix
        // entry/exit phase): register 13 starts at the frame's upper bound,
        // so `r13 - frame_size` addresses exactly the region this
        // interpreter reserved for the locals. Unfinalized code never
        // touches r13 (it is outside the allocatable range).
        frame.regs.insert(Reg::hard(13), saved_top as i32);
        for (i, &p) in f.params.iter().enumerate() {
            frame.regs.insert(p, args.get(i).copied().unwrap_or(0));
        }

        let mut bi = 0usize;
        let mut ii = 0usize;
        let counting = depth == 0 && self.block_counts.is_some();
        if counting {
            if let Some(c) = self.block_counts.as_mut() {
                if let Some(slot) = c.get_mut(0) {
                    *slot += 1;
                }
            }
        }
        let result = loop {
            let Some(block) = f.blocks.get(bi) else {
                break Err(SimError::MissingReturn(f.name.clone()));
            };
            let Some(inst) = block.insts.get(ii) else {
                // Fall through to the next positional block.
                bi += 1;
                ii = 0;
                if counting {
                    if let Some(c) = self.block_counts.as_mut() {
                        if let Some(slot) = c.get_mut(bi) {
                            *slot += 1;
                        }
                    }
                }
                continue;
            };
            if self.dynamic >= self.fuel {
                break Err(SimError::OutOfFuel);
            }
            self.dynamic += 1;
            ii += 1;
            match inst {
                Inst::Assign { dst, src } => {
                    let v = self.eval(src, &frame, f)?;
                    frame.regs.insert(*dst, v);
                }
                Inst::Store { width, addr, src } => {
                    let a = self.eval(addr, &frame, f)? as u32;
                    let v = self.eval(src, &frame, f)?;
                    self.write(a, v, *width, &f.name)?;
                }
                Inst::Compare { lhs, rhs } => {
                    let a = self.eval(lhs, &frame, f)?;
                    let b = self.eval(rhs, &frame, f)?;
                    frame.cc = (a, b);
                }
                Inst::CondBranch { cond, target } => {
                    if cond.eval(frame.cc.0, frame.cc.1) {
                        bi = f.block_index(*target).expect("dangling branch target");
                        ii = 0;
                        if counting {
                            if let Some(c) = self.block_counts.as_mut() {
                                c[bi] += 1;
                            }
                        }
                    }
                }
                Inst::Jump { target } => {
                    bi = f.block_index(*target).expect("dangling jump target");
                    ii = 0;
                    if counting {
                        if let Some(c) = self.block_counts.as_mut() {
                            c[bi] += 1;
                        }
                    }
                }
                Inst::Call { callee, args: call_args, dst } => {
                    let mut vals = Vec::with_capacity(call_args.len());
                    for a in call_args {
                        vals.push(self.eval(a, &frame, f)?);
                    }
                    let r = self.call_inner(callee, &vals, depth + 1)?;
                    if let Some(d) = dst {
                        frame.regs.insert(*d, r);
                    }
                }
                Inst::Return { value } => {
                    let v = match value {
                        Some(e) => self.eval(e, &frame, f)?,
                        None => 0,
                    };
                    break Ok(v);
                }
            }
        };
        self.stack_top = saved_top;
        result
    }

    fn eval(&self, e: &Expr, frame: &Frame, f: &Function) -> Result<i32, SimError> {
        Ok(match e {
            Expr::Reg(r) => frame.regs.get(r).copied().unwrap_or(0),
            Expr::Const(c) => *c as i32,
            Expr::Hi(sym) => (self.global_addr[sym.0 as usize] & !0xFFF) as i32,
            Expr::Lo(sym) => (self.global_addr[sym.0 as usize] & 0xFFF) as i32,
            Expr::LocalAddr(l) => frame.local_addr[l.0 as usize] as i32,
            Expr::Un(op, a) => op.eval(self.eval(a, frame, f)?),
            Expr::Bin(op, a, b) => {
                let x = self.eval(a, frame, f)?;
                let y = self.eval(b, frame, f)?;
                match op.eval(x, y) {
                    Some(v) => v,
                    None => {
                        return Err(match op {
                            BinOp::Div | BinOp::Rem => {
                                SimError::DivideByZero { function: f.name.clone() }
                            }
                            _ => SimError::BadShift { amount: y },
                        })
                    }
                }
            }
            Expr::Load(width, a) => {
                let addr = self.eval(a, frame, f)? as u32;
                self.read(addr, *width, &f.name)?
            }
        })
    }

    fn read(&self, addr: u32, width: Width, fname: &str) -> Result<i32, SimError> {
        let a = addr as usize;
        match width {
            Width::Byte => self
                .mem
                .get(a)
                .map(|&b| b as i32)
                .ok_or_else(|| SimError::BadAddress { addr, function: fname.to_owned() }),
            Width::Word => {
                if a + 4 <= self.mem.len() {
                    Ok(i32::from_le_bytes(self.mem[a..a + 4].try_into().unwrap()))
                } else {
                    Err(SimError::BadAddress { addr, function: fname.to_owned() })
                }
            }
        }
    }

    fn write(&mut self, addr: u32, v: i32, width: Width, fname: &str) -> Result<(), SimError> {
        let a = addr as usize;
        match width {
            Width::Byte => match self.mem.get_mut(a) {
                Some(b) => {
                    *b = v as u8;
                    Ok(())
                }
                None => Err(SimError::BadAddress { addr, function: fname.to_owned() }),
            },
            Width::Word => {
                if a + 4 <= self.mem.len() {
                    self.mem[a..a + 4].copy_from_slice(&v.to_le_bytes());
                    Ok(())
                } else {
                    Err(SimError::BadAddress { addr, function: fname.to_owned() })
                }
            }
        }
    }
}

struct Frame {
    regs: HashMap<Reg, i32>,
    cc: (i32, i32),
    local_addr: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpo_frontend::compile;

    fn run(src: &str, func: &str, args: &[i32]) -> i32 {
        let p = compile(src).unwrap();
        let mut m = Machine::new(&p);
        m.call(func, args).unwrap()
    }

    #[test]
    fn arithmetic_and_calls() {
        let src = r#"
            int add(int a, int b) { return a + b; }
            int twice(int x) { return add(x, x); }
        "#;
        assert_eq!(run(src, "twice", &[21]), 42);
    }

    #[test]
    fn loops_and_arrays() {
        let src = r#"
            int data[5] = { 3, 1, 4, 1, 5 };
            int sum() {
                int s = 0;
                int i;
                for (i = 0; i < 5; i++) s += data[i];
                return s;
            }
        "#;
        assert_eq!(run(src, "sum", &[]), 14);
    }

    #[test]
    fn char_arrays_and_strings() {
        let src = r#"
            char text[] = "hello";
            int length() {
                int n = 0;
                while (text[n] != 0) n++;
                return n;
            }
        "#;
        assert_eq!(run(src, "length", &[]), 5);
    }

    #[test]
    fn local_arrays_and_pointers() {
        let src = r#"
            int fill(int a[], int n) {
                int i;
                for (i = 0; i < n; i++) a[i] = i * i;
                return a[n - 1];
            }
            int driver() {
                int buf[8];
                return fill(buf, 8);
            }
        "#;
        assert_eq!(run(src, "driver", &[]), 49);
    }

    #[test]
    fn recursion_uses_fresh_frames() {
        let src = "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }";
        assert_eq!(run(src, "fib", &[10]), 55);
    }

    #[test]
    fn division_by_zero_traps() {
        let p = compile("int f(int a) { return 10 / a; }").unwrap();
        let mut m = Machine::new(&p);
        assert!(matches!(m.call("f", &[0]), Err(SimError::DivideByZero { .. })));
        assert_eq!(m.call("f", &[2]).unwrap(), 5);
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let p = compile("int f() { while (1) ; return 0; }").unwrap();
        let mut m = Machine::new(&p);
        m.set_fuel(10_000);
        assert_eq!(m.call("f", &[]), Err(SimError::OutOfFuel));
    }

    #[test]
    fn dynamic_counts_scale_with_work() {
        let p =
            compile("int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i; return s; }")
                .unwrap();
        let mut m = Machine::new(&p);
        m.call("f", &[10]).unwrap();
        let c10 = m.dynamic_insts();
        m.reset();
        m.call("f", &[100]).unwrap();
        let c100 = m.dynamic_insts();
        assert!(c100 > 5 * c10);
    }

    #[test]
    fn globals_persist_between_calls() {
        let src = r#"
            int counter = 0;
            int bump() { counter = counter + 1; return counter; }
        "#;
        let p = compile(src).unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(m.call("bump", &[]).unwrap(), 1);
        assert_eq!(m.call("bump", &[]).unwrap(), 2);
        assert_eq!(m.read_global_word("counter", 0).unwrap(), 2);
        m.reset();
        assert_eq!(m.call("bump", &[]).unwrap(), 1);
    }

    #[test]
    fn hi_lo_reconstruct_addresses() {
        let src = r#"
            int x = 77;
            int get() { return x; }
        "#;
        let p = compile(src).unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(m.call("get", &[]).unwrap(), 77);
    }

    #[test]
    fn unknown_function_errors() {
        let p = compile("int f() { return g(); }").unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(m.call("f", &[]), Err(SimError::UnknownFunction("g".to_owned())));
    }

    #[test]
    fn finalized_code_executes_identically() {
        let src = r#"
            int f(int n) {
                int acc = 0;
                int i;
                int tmp[4];
                for (i = 0; i < 4; i++) tmp[i] = n * (i + 1);
                for (i = 0; i < 4; i++) acc += tmp[i];
                return acc;
            }
        "#;
        let p = compile(src).unwrap();
        let target = vpo_opt::Target::default();
        for stage in 0..2 {
            let mut f = p.functions[0].clone();
            if stage == 1 {
                vpo_opt::batch::batch_compile(&mut f, &target);
            }
            let finalized = vpo_opt::finalize::fix_entry_exit(&f, &target);
            let mut m1 = Machine::new(&p);
            let a = m1.call_instance(&f, &[7]).unwrap();
            let mut m2 = Machine::new(&p);
            let b = m2.call_instance(&finalized, &[7]).unwrap();
            assert_eq!(a, b, "stage {stage}");
            assert_eq!(a, 7 * (1 + 2 + 3 + 4));
        }
    }

    #[test]
    fn deep_recursion_overflows_cleanly() {
        let p = compile("int f(int n) { return f(n + 1); }").unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(m.call("f", &[0]), Err(SimError::StackOverflow));
    }

    #[test]
    fn bad_address_is_reported() {
        // Index far outside the array: the flat memory model catches the
        // wild address (negative index on the first global).
        let p = compile("int a[4]; int f(int i) { return a[i]; }").unwrap();
        let mut m = Machine::new(&p);
        assert!(matches!(m.call("f", &[-100_000_000]), Err(SimError::BadAddress { .. })));
        assert_eq!(m.call("f", &[2]).unwrap(), 0);
    }

    #[test]
    fn bad_shift_traps() {
        let p = compile("int f(int a, int n) { return a << n; }").unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(m.call("f", &[1, 40]), Err(SimError::BadShift { amount: 40 }));
        assert_eq!(m.call("f", &[1, 4]).unwrap(), 16);
    }

    #[test]
    fn block_counts_reflect_loop_trips() {
        let p =
            compile("int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i; return s; }")
                .unwrap();
        let mut m = Machine::new(&p);
        let (r, counts) = m.call_instance_counted(&p.functions[0], &[5]).unwrap();
        assert_eq!(r, 10);
        // Entry executes once; some block executes once per iteration.
        assert_eq!(counts[0], 1);
        assert!(counts.contains(&5), "no block ran 5 times: {counts:?}");
        // Total dynamic = sum over blocks of entries * size.
        let total: u64 =
            p.functions[0].blocks.iter().zip(&counts).map(|(b, &n)| b.insts.len() as u64 * n).sum();
        assert_eq!(total, m.dynamic_insts());
    }

    #[test]
    fn int_min_div_minus_one_traps() {
        // `INT_MIN / -1` overflows i32; the modelled target traps exactly
        // like division by zero (same for the remainder).
        let p = compile("int f(int a, int b) { return a / b; }").unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(
            m.call("f", &[i32::MIN, -1]),
            Err(SimError::DivideByZero { function: "f".to_owned() })
        );
        let p = compile("int g(int a, int b) { return a % b; }").unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(
            m.call("g", &[i32::MIN, -1]),
            Err(SimError::DivideByZero { function: "g".to_owned() })
        );
        assert_eq!(m.call("g", &[i32::MIN, -2]).unwrap(), i32::MIN % -2);
    }

    #[test]
    fn remainder_by_zero_traps() {
        let p = compile("int f(int a) { return 7 % a; }").unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(m.call("f", &[0]), Err(SimError::DivideByZero { function: "f".to_owned() }));
    }

    #[test]
    fn out_of_bounds_store_is_reported() {
        // A wild *write* (not just a read) must trap with the offending
        // address; the address reported is the one the store computed.
        let p = compile("int a[4]; int f(int i) { a[i] = 1; return 0; }").unwrap();
        let mut m = Machine::new(&p);
        match m.call("f", &[500_000_000]) {
            Err(SimError::BadAddress { function, .. }) => assert_eq!(function, "f"),
            other => panic!("expected BadAddress, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_recursion_hits_step_limit_before_memory() {
        // Tail-recursive spinning with a tiny fuel budget: the step limit
        // fires (OutOfFuel), not the depth or stack guards.
        let p = compile("int f(int n) { return f(n + 1); }").unwrap();
        let mut m = Machine::new(&p);
        m.set_fuel(100);
        assert_eq!(m.call("f", &[0]), Err(SimError::OutOfFuel));
        // With ample fuel the same program exhausts the call depth.
        let mut m = Machine::new(&p);
        assert_eq!(m.call("f", &[0]), Err(SimError::StackOverflow));
    }

    #[test]
    fn big_frames_exhaust_the_stack_region() {
        // Each activation carves a 4000-word array from the stack; a small
        // memory image runs out of stack region before the depth limit.
        let p = compile(
            "int f(int n) { int buf[4000]; buf[0] = n; if (n == 0) return buf[0]; return f(n - 1) + buf[0]; }",
        )
        .unwrap();
        let mut m = Machine::with_mem_size(&p, 1 << 16);
        assert_eq!(m.call("f", &[64]), Err(SimError::OutOfStack));
        // The same program completes in the default-size machine.
        let mut m = Machine::new(&p);
        assert_eq!(m.call("f", &[64]).unwrap(), (1..=64).sum::<i32>());
    }

    #[test]
    fn globals_crc_tracks_memory_effects() {
        let src = r#"
            int log[4];
            int put(int i, int v) { log[i & 3] = v; return v; }
        "#;
        let p = compile(src).unwrap();
        let mut m = Machine::new(&p);
        let clean = m.globals_crc();
        m.call("put", &[1, 42]).unwrap();
        let dirty = m.globals_crc();
        assert_ne!(clean, dirty, "a store must change the globals digest");
        m.reset();
        assert_eq!(m.globals_crc(), clean, "reset must restore the initial digest");
        // Different machine sizes agree on the digest (it covers only the
        // globals segment, not the stack).
        let mut small = Machine::with_mem_size(&p, 1 << 16);
        assert_eq!(small.globals_crc(), clean);
        small.call("put", &[1, 42]).unwrap();
        assert_eq!(small.globals_crc(), dirty);
    }

    #[test]
    fn error_messages_render() {
        for e in [
            SimError::DivideByZero { function: "f".into() },
            SimError::BadAddress { addr: 0xFF, function: "g".into() },
            SimError::BadShift { amount: 99 },
            SimError::UnknownFunction("h".into()),
            SimError::OutOfFuel,
            SimError::StackOverflow,
            SimError::OutOfStack,
            SimError::MissingReturn("k".into()),
            SimError::UnknownGlobal("m".into()),
            SimError::GlobalOutOfRange { name: "n".into(), index: 7 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    /// Everything a run can observe from one call, for differential
    /// engine comparison.
    fn observe(m: &mut Machine, f: &Function, args: &[i32]) -> (Result<i32, SimError>, u64, u32) {
        m.reset();
        m.set_fuel(2_000_000);
        let r = m.call_instance(f, args);
        (r, m.dynamic_insts(), m.globals_crc())
    }

    fn assert_engines_agree(p: &vpo_rtl::Program, f: &Function, args: &[i32]) {
        let mut mi = Machine::new(p);
        mi.set_engine(SimEngine::Interp);
        let mut mt = Machine::new(p);
        mt.set_engine(SimEngine::Threaded);
        assert_eq!(observe(&mut mi, f, args), observe(&mut mt, f, args), "{}({args:?})", f.name);
    }

    #[test]
    fn engines_agree_on_a_mixed_corpus() {
        let srcs = [
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i; return s; }",
            "int f(int n) { int i; int s = 0; for (i = n; i > 0; i--) s = s * 2 + i; return s; }",
            "int g(int a, int b) { if (b == 0) return a; return g(b, a % b); } int f(int a, int b) { return g(a, b); }",
            "int a[8]; int f(int i) { a[i & 7] = i; return a[(i + 1) & 7]; }",
            "int f(int a, int n) { return a << n; }",
            "int f(int a, int b) { return a / b; }",
            "int f(int n) { while (1) { n = n + 1; if (n > 1000) return n; } return 0; }",
        ];
        for src in srcs {
            let p = compile(src).unwrap();
            for args in [[0, 0], [5, 3], [100, -1], [i32::MIN, -1], [40, 1]] {
                assert_engines_agree(&p, p.function("f").unwrap(), &args);
            }
        }
    }

    #[test]
    fn engines_agree_on_block_counts() {
        let p =
            compile("int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i; return s; }")
                .unwrap();
        let f = &p.functions[0];
        for n in [0, 1, 5, 1000] {
            let mut mi = Machine::new(&p);
            mi.set_engine(SimEngine::Interp);
            let mut mt = Machine::new(&p);
            mt.set_engine(SimEngine::Threaded);
            let a = mi.call_instance_counted(f, &[n]).unwrap();
            let b = mt.call_instance_counted(f, &[n]).unwrap();
            assert_eq!(a, b, "n={n}");
            assert_eq!(mi.dynamic_insts(), mt.dynamic_insts(), "n={n}");
        }
    }

    #[test]
    fn fresh_and_reset_machines_are_indistinguishable() {
        // The satellite regression for the `reset` audit: a battery that
        // resets between runs must observe exactly what a battery of
        // fresh machines would — same dynamic counts, same globals CRC —
        // including after trapping calls, counted calls, and fuel-starved
        // calls, on both engines.
        let src = r#"
            int log[4];
            int f(int i, int v) { log[i & 3] = log[i & 3] + v; return log[i & 3] / (v - 1); }
        "#;
        let p = compile(src).unwrap();
        let batteries: [&[i32]; 4] = [&[0, 5], &[1, 1], &[2, -7], &[3, 2]];
        for engine in [SimEngine::Interp, SimEngine::Threaded] {
            let mut reused = Machine::new(&p);
            reused.set_engine(engine);
            // Perturb the reused machine first: a counted call and a
            // fuel-starved call, then restore the default fuel.
            reused.set_fuel(3);
            assert_eq!(reused.call_instance(&p.functions[0], &[0, 2]), Err(SimError::OutOfFuel));
            reused.set_fuel(200_000_000);
            let _ = reused.call_instance_counted(&p.functions[0], &[1, 3]).unwrap();
            for args in batteries {
                reused.reset();
                let got = (reused.call("f", args), reused.dynamic_insts(), reused.globals_crc());
                let mut fresh = Machine::new(&p);
                fresh.set_engine(engine);
                let want = (fresh.call("f", args), fresh.dynamic_insts(), fresh.globals_crc());
                assert_eq!(got, want, "{engine:?} {args:?}");
            }
        }
    }

    #[test]
    fn global_accessors_error_at_the_boundary() {
        let p = compile("int a[4]; char s[6]; int f() { return a[0]; }").unwrap();
        let mut m = Machine::new(&p);
        // Words: indices 0..4 are valid for a 16-byte global.
        m.write_global_word("a", 3, 7).unwrap();
        assert_eq!(m.read_global_word("a", 3).unwrap(), 7);
        assert_eq!(
            m.read_global_word("a", 4),
            Err(SimError::GlobalOutOfRange { name: "a".into(), index: 4 })
        );
        assert_eq!(
            m.write_global_word("a", 4, 1),
            Err(SimError::GlobalOutOfRange { name: "a".into(), index: 4 })
        );
        // Bytes: the last in-range byte works, one past errors.
        assert_eq!(m.read_global_byte("s", 5).unwrap(), 0);
        assert_eq!(
            m.read_global_byte("s", 6),
            Err(SimError::GlobalOutOfRange { name: "s".into(), index: 6 })
        );
        // Bulk writes: exact fit works, one byte over errors.
        m.write_global_bytes("s", b"abcdef").unwrap();
        assert_eq!(m.read_global_byte("s", 0).unwrap(), b'a');
        assert_eq!(
            m.write_global_bytes("s", b"abcdefg"),
            Err(SimError::GlobalOutOfRange { name: "s".into(), index: 7 })
        );
        // Unknown globals are their own error, for every accessor.
        assert_eq!(m.read_global_word("nope", 0), Err(SimError::UnknownGlobal("nope".into())));
        assert_eq!(m.write_global_word("nope", 0, 1), Err(SimError::UnknownGlobal("nope".into())));
        assert_eq!(m.read_global_byte("nope", 0), Err(SimError::UnknownGlobal("nope".into())));
        assert_eq!(m.write_global_bytes("nope", b"x"), Err(SimError::UnknownGlobal("nope".into())));
    }

    #[test]
    fn fuel_boundary_is_exact_on_both_engines() {
        // The satellite off-by-one gate: with fuel set to the exact
        // dynamic count the call succeeds; one unit less must be
        // OutOfFuel, at the same partial dynamic count, on both engines.
        let srcs = [
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i; return s; }",
            "int g(int n) { return n * 2; } int f(int n) { return g(n) + g(n + 1); }",
            "int f(int n) { return n + 1; }",
        ];
        for src in srcs {
            let p = compile(src).unwrap();
            let f = p.function("f").unwrap();
            let mut exact = Machine::new(&p);
            exact.call_instance(f, &[13]).unwrap();
            let n = exact.dynamic_insts();
            assert!(n > 0);
            for engine in [SimEngine::Interp, SimEngine::Threaded] {
                let mut m = Machine::new(&p);
                m.set_engine(engine);
                m.set_fuel(n);
                assert!(m.call_instance(f, &[13]).is_ok(), "{engine:?}: exact fuel must pass");
                assert_eq!(m.dynamic_insts(), n, "{engine:?}");
                m.reset();
                m.set_fuel(n - 1);
                assert_eq!(
                    m.call_instance(f, &[13]),
                    Err(SimError::OutOfFuel),
                    "{engine:?}: n-1 fuel must exhaust"
                );
                assert_eq!(m.dynamic_insts(), n - 1, "{engine:?}: all budgeted insts executed");
            }
        }
    }

    #[test]
    fn rep_fast_path_is_exact() {
        // Counting loops that hit the closed-form rep path must match the
        // interpreter on result, dynamic count, and block counts — also
        // for descending loops, empty trips, and bounds near i32 limits
        // (where the fast path falls back rather than mis-wrap).
        let cases = [
            (
                "int f(int n) { int i; int s = 0; for (i = 0; i < n; i++) s += 1; return s + i; }",
                vec![0, 1, 7, 100000],
            ),
            (
                "int f(int n) { int i; int s = 0; for (i = n; i > 0; i--) s += 1; return s - i; }",
                vec![0, 1, 9, 50000],
            ),
            (
                "int f(int n) { int i; for (i = 0; i <= n; i += 3) ; return i; }",
                vec![0, 1, 2, 3, 1000],
            ),
            (
                "int f(int n) { int i; for (i = n; i >= 10; i -= 7) ; return i; }",
                vec![9, 10, 11, 80000],
            ),
            (
                "int f(int n) { int i; for (i = 2147483600; i < 2147483640; i += n) ; return i; }",
                vec![1, 3, 7, 39],
            ),
        ];
        for (src, args) in cases {
            let p = compile(src).unwrap();
            let f = p.function("f").unwrap();
            for a in args {
                let mut mi = Machine::new(&p);
                mi.set_engine(SimEngine::Interp);
                let mut mt = Machine::new(&p);
                mt.set_engine(SimEngine::Threaded);
                let ri = mi.call_instance_counted(f, &[a]);
                let rt = mt.call_instance_counted(f, &[a]);
                assert_eq!(ri, rt, "{src} n={a}");
                assert_eq!(mi.dynamic_insts(), mt.dynamic_insts(), "{src} n={a}");
            }
        }
    }

    #[test]
    fn rep_fast_path_falls_back_when_the_loop_wraps() {
        // Stepping past i32::MAX wraps; the closed-form path must detect
        // the wrap and fall back to the generic (wrapping, fuel-gated)
        // execution so both engines observe the identical spin.
        let p = compile(
            "int f(int n) { int i; for (i = 2147483600; i < 2147483640; i += n) ; return i; }",
        )
        .unwrap();
        let f = p.function("f").unwrap();
        let mut mi = Machine::new(&p);
        mi.set_engine(SimEngine::Interp);
        mi.set_fuel(10_000);
        let mut mt = Machine::new(&p);
        mt.set_engine(SimEngine::Threaded);
        mt.set_fuel(10_000);
        // Step 50 overshoots into wraparound: an effectively endless spin.
        assert_eq!(mi.call_instance(f, &[50]), mt.call_instance(f, &[50]));
        assert_eq!(mi.dynamic_insts(), mt.dynamic_insts());
        assert_eq!(mi.call_instance(f, &[50]), Err(SimError::OutOfFuel));
    }

    #[test]
    fn rep_fast_path_respects_fuel_mid_loop() {
        // Exhausting fuel in the middle of a rep-eligible loop must fall
        // back to exact per-instruction accounting.
        let p = compile("int f(int n) { int i; for (i = 0; i < n; i++) ; return i; }").unwrap();
        let f = p.function("f").unwrap();
        let mut exact = Machine::new(&p);
        exact.call_instance(f, &[1000]).unwrap();
        let n = exact.dynamic_insts();
        for cut in [n / 2, n - 2, n - 1] {
            for engine in [SimEngine::Interp, SimEngine::Threaded] {
                let mut m = Machine::new(&p);
                m.set_engine(engine);
                m.set_fuel(cut);
                assert_eq!(m.call_instance(f, &[1000]), Err(SimError::OutOfFuel), "{engine:?}");
                assert_eq!(m.dynamic_insts(), cut, "{engine:?} cut={cut}");
            }
        }
    }

    #[test]
    fn handbuilt_rep_loops_match_the_interpreter() {
        // Build the exact three-instruction self-loop the rep detector
        // recognizes — `r += step; IC = r ? bound; PC = IC cond, self` —
        // directly, covering every monotone (cond, step) pairing plus the
        // non-monotone shapes the detector must skip.
        use vpo_rtl::builder::FunctionBuilder;
        use vpo_rtl::Cond;
        let build = |start: i64, step: i64, bound: i64, cond: Cond| {
            let mut b = FunctionBuilder::new("f");
            let r = b.reg();
            b.assign(r, Expr::Const(start));
            let l = b.new_label();
            b.start_block(l);
            b.assign(r, Expr::bin(BinOp::Add, Expr::Reg(r), Expr::Const(step)));
            b.compare(Expr::Reg(r), Expr::Const(bound));
            b.cond_branch(cond, l);
            let done = b.new_label();
            b.start_block(done);
            b.ret(Some(Expr::Reg(r)));
            b.finish()
        };
        let p = vpo_rtl::Program::default();
        for (start, step, bound, cond) in [
            (0, 1, 10, Cond::Lt),
            (0, 3, 10, Cond::Le),
            (0, 3, 0, Cond::Lt),
            (100, -7, 3, Cond::Gt),
            (50, -1, -20, Cond::Ge),
            (2147483600, 7, 2147483646, Cond::Lt),
            (-5, 1, 5, Cond::Ne),
            (0, 0, 10, Cond::Lt),
            (0, -1, 10, Cond::Lt),
        ] {
            let f = build(start, step, bound, cond);
            let mut mi = Machine::new(&p);
            mi.set_engine(SimEngine::Interp);
            mi.set_fuel(1_000_000);
            let mut mt = Machine::new(&p);
            mt.set_engine(SimEngine::Threaded);
            mt.set_fuel(1_000_000);
            let a = mi.call_instance_counted(&f, &[]);
            let b = mt.call_instance_counted(&f, &[]);
            assert_eq!(a, b, "start={start} step={step} bound={bound} {cond:?}");
            assert_eq!(mi.dynamic_insts(), mt.dynamic_insts(), "{cond:?}");
        }
        // A trip count far beyond what per-instruction execution could
        // cover in test time: only the closed form reaches the exact
        // count instantly.
        let f = build(0, 1, 50_000_000, Cond::Lt);
        let mut m = Machine::new(&p);
        m.set_fuel(u64::MAX);
        assert_eq!(m.call_instance(&f, &[]).unwrap(), 50_000_000);
        assert_eq!(m.dynamic_insts(), 2 + 3 * 50_000_000);

        // The register-bound form — the shape `for (i = 0; i < n; i++)`
        // optimizes into, where the bound lives in a loop-invariant
        // register rather than a literal.
        let build_reg = |start: i64, step: i64, cond: Cond| {
            let mut b = FunctionBuilder::new("f");
            let n = b.param();
            let r = b.reg();
            b.assign(r, Expr::Const(start));
            let l = b.new_label();
            b.start_block(l);
            b.assign(r, Expr::bin(BinOp::Add, Expr::Reg(r), Expr::Const(step)));
            b.compare(Expr::Reg(r), Expr::Reg(n));
            b.cond_branch(cond, l);
            let done = b.new_label();
            b.start_block(done);
            b.ret(Some(Expr::Reg(r)));
            b.finish()
        };
        for (start, step, cond, bound) in [
            (0, 1, Cond::Lt, 10),
            (0, 3, Cond::Le, 10),
            (0, 3, Cond::Lt, 0),
            (100, -7, Cond::Gt, 3),
            (50, -1, Cond::Ge, -20),
            (-5, 1, Cond::Ne, 5),
        ] {
            let f = build_reg(start, step, cond);
            let mut mi = Machine::new(&p);
            mi.set_engine(SimEngine::Interp);
            mi.set_fuel(1_000_000);
            let mut mt = Machine::new(&p);
            mt.set_engine(SimEngine::Threaded);
            mt.set_fuel(1_000_000);
            let a = mi.call_instance_counted(&f, &[bound]);
            let b = mt.call_instance_counted(&f, &[bound]);
            assert_eq!(a, b, "start={start} step={step} bound={bound} {cond:?}");
            assert_eq!(mi.dynamic_insts(), mt.dynamic_insts(), "{cond:?}");
        }
        let f = build_reg(0, 1, Cond::Lt);
        let mut m = Machine::new(&p);
        m.set_fuel(u64::MAX);
        assert_eq!(m.call_instance(&f, &[50_000_000]).unwrap(), 50_000_000);
        assert_eq!(m.dynamic_insts(), 2 + 3 * 50_000_000);
    }

    #[test]
    fn handbuilt_rotated_pair_loops_match_the_interpreter() {
        // The rotated / unrolled-by-two shape the batch compiler emits:
        // two consecutive blocks each doing `r += step; IC = r ? n;
        // branch`, the first exiting the cycle and the second looping
        // back. Odd trip counts leave via the first half's branch, even
        // ones fall through the second — both must match the
        // interpreter's path, flags, and block counts exactly.
        use vpo_rtl::builder::FunctionBuilder;
        use vpo_rtl::Cond;
        let build = |start: i64, step: i64, exit: Cond, cont: Cond| {
            let mut b = FunctionBuilder::new("f");
            let n = b.param();
            let r = b.reg();
            b.assign(r, Expr::Const(start));
            let head = b.new_label();
            let done = b.new_label();
            b.start_block(head);
            b.assign(r, Expr::bin(BinOp::Add, Expr::Reg(r), Expr::Const(step)));
            b.compare(Expr::Reg(r), Expr::Reg(n));
            b.cond_branch(exit, done);
            let half = b.new_label();
            b.start_block(half);
            b.assign(r, Expr::bin(BinOp::Add, Expr::Reg(r), Expr::Const(step)));
            b.compare(Expr::Reg(r), Expr::Reg(n));
            b.cond_branch(cont, head);
            b.start_block(done);
            b.ret(Some(Expr::Reg(r)));
            b.finish()
        };
        let p = vpo_rtl::Program::default();
        for (start, step, exit, cont, bound) in [
            (0, 1, Cond::Ge, Cond::Lt, 10), // even trips: fall-through exit
            (0, 1, Cond::Ge, Cond::Lt, 11), // odd trips: branch exit
            (0, 1, Cond::Ge, Cond::Lt, 0),  // t = 1 regardless of bound
            (0, 2, Cond::Gt, Cond::Le, 10), // continues on equality
            (100, -3, Cond::Le, Cond::Gt, 5),
            (50, -1, Cond::Lt, Cond::Ge, -20),
            (0, 1, Cond::Ge, Cond::Le, 10), // mismatched pair: no fast path
        ] {
            let f = build(start, step, exit, cont);
            let mut mi = Machine::new(&p);
            mi.set_engine(SimEngine::Interp);
            mi.set_fuel(1_000_000);
            let mut mt = Machine::new(&p);
            mt.set_engine(SimEngine::Threaded);
            mt.set_fuel(1_000_000);
            let a = mi.call_instance_counted(&f, &[bound]);
            let b = mt.call_instance_counted(&f, &[bound]);
            assert_eq!(a, b, "start={start} step={step} bound={bound} {exit:?}/{cont:?}");
            assert_eq!(mi.dynamic_insts(), mt.dynamic_insts(), "{exit:?}/{cont:?}");
        }
        // Closed-form proof: a trip count per-instruction execution
        // could not cover in test time, at both parities.
        for bound in [50_000_000, 50_000_001] {
            let f = build(0, 1, Cond::Ge, Cond::Lt);
            let mut m = Machine::new(&p);
            m.set_fuel(u64::MAX);
            assert_eq!(m.call_instance(&f, &[bound]).unwrap(), bound);
            assert_eq!(m.dynamic_insts(), 2 + 3 * bound as u64);
        }
    }

    #[test]
    fn handbuilt_while_loops_match_the_interpreter() {
        // The header/latch while-loop shape mid-sequence instances
        // carry: `IC = r ? n; PC = IC exit, done` falling into
        // `r += step; PC = header`. The exit test runs before each
        // increment, so zero trips are possible.
        use vpo_rtl::builder::FunctionBuilder;
        use vpo_rtl::Cond;
        let build = |start: i64, step: i64, exit: Cond| {
            let mut b = FunctionBuilder::new("f");
            let n = b.param();
            let r = b.reg();
            b.assign(r, Expr::Const(start));
            let head = b.new_label();
            let done = b.new_label();
            b.start_block(head);
            b.compare(Expr::Reg(r), Expr::Reg(n));
            b.cond_branch(exit, done);
            let latch = b.new_label();
            b.start_block(latch);
            b.assign(r, Expr::bin(BinOp::Add, Expr::Reg(r), Expr::Const(step)));
            b.jump(head);
            b.start_block(done);
            b.ret(Some(Expr::Reg(r)));
            b.finish()
        };
        let p = vpo_rtl::Program::default();
        for (start, step, exit, bound) in [
            (0, 1, Cond::Ge, 10),
            (0, 1, Cond::Ge, 0),  // zero trips: exit before any increment
            (0, 1, Cond::Ge, -5), // zero trips, already past the bound
            (0, 3, Cond::Gt, 9),  // keeps looping on equality
            (100, -7, Cond::Le, 5),
            (50, -1, Cond::Lt, -20),
            (0, 1, Cond::Eq, 10), // non-monotone exit: no fast path
        ] {
            let f = build(start, step, exit);
            let mut mi = Machine::new(&p);
            mi.set_engine(SimEngine::Interp);
            mi.set_fuel(1_000_000);
            let mut mt = Machine::new(&p);
            mt.set_engine(SimEngine::Threaded);
            mt.set_fuel(1_000_000);
            let a = mi.call_instance_counted(&f, &[bound]);
            let b = mt.call_instance_counted(&f, &[bound]);
            assert_eq!(a, b, "start={start} step={step} bound={bound} {exit:?}");
            assert_eq!(mi.dynamic_insts(), mt.dynamic_insts(), "{exit:?}");
        }
        let f = build(0, 1, Cond::Ge);
        let mut m = Machine::new(&p);
        m.set_fuel(u64::MAX);
        assert_eq!(m.call_instance(&f, &[50_000_000]).unwrap(), 50_000_000);
        assert_eq!(m.dynamic_insts(), 2 + 4 * 50_000_000 + 2);
    }

    #[test]
    fn handbuilt_copy_laden_while_loops_match_the_interpreter() {
        // The copy-laden while shapes mid-sequence instances carry:
        // headers that copy the counter and bound into temporaries
        // before comparing, latches that increment through a temporary,
        // secondary linear counters, and constant rewrites. The
        // symbolic detector folds the copies; every temporary's final
        // must match the interpreter bit for bit, including at zero
        // trips. The returned sum folds all of them in.
        use vpo_rtl::builder::FunctionBuilder;
        use vpo_rtl::Cond;
        let build = |start: i64| {
            let mut b = FunctionBuilder::new("f");
            let n = b.param();
            let i = b.reg();
            let t1 = b.reg();
            let t2 = b.reg();
            let t3 = b.reg();
            let s = b.reg();
            let h = b.reg();
            let k = b.reg();
            b.assign(i, Expr::Const(start));
            b.assign(t1, Expr::Const(-1));
            b.assign(t2, Expr::Const(-2));
            b.assign(t3, Expr::Const(-3));
            b.assign(s, Expr::Const(7));
            b.assign(h, Expr::Const(-4));
            b.assign(k, Expr::Const(-5));
            let head = b.new_label();
            let done = b.new_label();
            b.start_block(head);
            // `sk`-style header: copies feed the compare (the bound is
            // `n + 2`, exercising a folded bound offset); `h` shadows
            // `i + 3` and must take its exit-pass value.
            b.assign(t1, Expr::Reg(i));
            b.assign(t2, Expr::bin(BinOp::Add, Expr::Reg(n), Expr::Const(2)));
            b.assign(h, Expr::bin(BinOp::Add, Expr::Reg(t1), Expr::Const(3)));
            b.compare(Expr::Reg(t1), Expr::Reg(t2));
            b.cond_branch(Cond::Ge, done);
            let latch = b.new_label();
            b.start_block(latch);
            // `skc`-style latch: increment through a temporary, plus a
            // secondary counter stepped by 5 and a constant rewrite.
            b.assign(t3, Expr::bin(BinOp::Add, Expr::Reg(i), Expr::Const(1)));
            b.assign(i, Expr::Reg(t3));
            b.assign(s, Expr::bin(BinOp::Add, Expr::Reg(s), Expr::Const(5)));
            b.assign(k, Expr::Const(42));
            b.jump(head);
            b.start_block(done);
            let mul = |r, c| Expr::bin(BinOp::Mul, Expr::Reg(r), Expr::Const(c));
            let sum = Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Add, Expr::Reg(t1), mul(t2, 3)),
                Expr::bin(
                    BinOp::Add,
                    Expr::bin(BinOp::Add, mul(t3, 5), mul(s, 7)),
                    Expr::bin(BinOp::Add, mul(h, 11), mul(k, 13)),
                ),
            );
            b.ret(Some(sum));
            b.finish()
        };
        let p = vpo_rtl::Program::default();
        for (start, n) in [(0, 10), (0, 0), (0, -2), (5, -30), (-3, 4), (7, 5)] {
            let f = build(start);
            let mut mi = Machine::new(&p);
            mi.set_engine(SimEngine::Interp);
            mi.set_fuel(1_000_000);
            let mut mt = Machine::new(&p);
            mt.set_engine(SimEngine::Threaded);
            mt.set_fuel(1_000_000);
            let a = mi.call_instance_counted(&f, &[n]);
            let b = mt.call_instance_counted(&f, &[n]);
            assert_eq!(a, b, "start={start} n={n}");
            assert_eq!(mi.dynamic_insts(), mt.dynamic_insts(), "start={start} n={n}");
        }
        // Closed-form proof at a scale the generic path cannot reach in
        // these counts cheaply: entry 7, trip 10 (header 5 + latch 5),
        // exit pass 5, return 1.
        let f = build(0);
        let mut m = Machine::new(&p);
        m.set_fuel(u64::MAX);
        m.call_instance(&f, &[50_000_000]).unwrap();
        let t = 50_000_002u64;
        assert_eq!(m.dynamic_insts(), 7 + 10 * t + 5 + 1);

        // A latch that reads a register the cycle writes *later* sees
        // last trip's value — outside the linear model, so the fast
        // path must decline and the generic path must still agree.
        let build_stale = |start: i64| {
            let mut b = FunctionBuilder::new("g");
            let n = b.param();
            let i = b.reg();
            let a = b.reg();
            let v = b.reg();
            b.assign(i, Expr::Const(start));
            b.assign(a, Expr::Const(100));
            b.assign(v, Expr::Const(200));
            let head = b.new_label();
            let done = b.new_label();
            b.start_block(head);
            b.compare(Expr::Reg(i), Expr::Reg(n));
            b.cond_branch(Cond::Ge, done);
            let latch = b.new_label();
            b.start_block(latch);
            b.assign(a, Expr::bin(BinOp::Add, Expr::Reg(v), Expr::Const(1)));
            b.assign(v, Expr::bin(BinOp::Add, Expr::Reg(a), Expr::Const(1)));
            b.assign(i, Expr::bin(BinOp::Add, Expr::Reg(i), Expr::Const(1)));
            b.jump(head);
            b.start_block(done);
            b.ret(Some(Expr::bin(BinOp::Add, Expr::Reg(a), Expr::Reg(v))));
            b.finish()
        };
        for n in [0, 1, 3, 17] {
            let f = build_stale(0);
            let mut mi = Machine::new(&p);
            mi.set_engine(SimEngine::Interp);
            mi.set_fuel(1_000_000);
            let mut mt = Machine::new(&p);
            mt.set_engine(SimEngine::Threaded);
            mt.set_fuel(1_000_000);
            assert_eq!(mi.call_instance_counted(&f, &[n]), mt.call_instance_counted(&f, &[n]));
            assert_eq!(mi.dynamic_insts(), mt.dynamic_insts(), "n={n}");
        }
    }

    #[test]
    fn lowering_cache_is_shared_across_instances() {
        let p =
            compile("int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i; return s; }")
                .unwrap();
        let before = stats::snapshot();
        let mut m = Machine::new(&p);
        let f = &p.functions[0];
        m.call_instance(f, &[5]).unwrap();
        // A near-identical instance (a clone here) must hit the cache for
        // every block.
        let g = f.clone();
        m.call_instance(&g, &[5]).unwrap();
        let after = stats::snapshot();
        assert!(
            after.blocks_lowered >= before.blocks_lowered + f.blocks.len() as u64,
            "first lowering misses"
        );
        assert!(
            after.lower_cache_hits >= before.lower_cache_hits + f.blocks.len() as u64,
            "second lowering must hit for every block"
        );
        assert!(after.batched_retires > before.batched_retires, "batched crediting never fired");
    }

    #[test]
    fn threaded_engine_handles_deep_and_error_paths() {
        // StackOverflow, OutOfStack, and unknown-callee behavior must
        // classify identically on both engines.
        let p = compile("int f(int n) { return f(n + 1); }").unwrap();
        assert_engines_agree(&p, p.function("f").unwrap(), &[0]);

        let p = compile(
            "int f(int n) { int buf[4000]; buf[0] = n; if (n == 0) return buf[0]; return f(n - 1) + buf[0]; }",
        )
        .unwrap();
        for engine in [SimEngine::Interp, SimEngine::Threaded] {
            let mut m = Machine::with_mem_size(&p, 1 << 16);
            m.set_engine(engine);
            assert_eq!(m.call("f", &[64]), Err(SimError::OutOfStack), "{engine:?}");
        }

        let p = compile("int f() { return g(); }").unwrap();
        assert_engines_agree(&p, p.function("f").unwrap(), &[]);
    }

    #[test]
    fn semantics_preserved_under_batch_optimization() {
        let src = r#"
            int data[8] = { 9, 2, 7, 4, 5, 6, 3, 8 };
            int max() {
                int best = data[0];
                int i;
                for (i = 1; i < 8; i++) {
                    if (data[i] > best) best = data[i];
                }
                return best;
            }
        "#;
        let p = compile(src).unwrap();
        let mut m = Machine::new(&p);
        let naive = m.call("max", &[]).unwrap();
        let naive_count = m.dynamic_insts();

        let mut opt = p.functions[0].clone();
        let target = vpo_opt::Target::default();
        vpo_opt::batch::batch_compile(&mut opt, &target);
        let mut m2 = Machine::new(&p);
        let fast = m2.call_instance(&opt, &[]).unwrap();
        assert_eq!(naive, fast);
        assert!(
            m2.dynamic_insts() < naive_count / 2,
            "optimized code should execute far fewer instructions: {} vs {naive_count}",
            m2.dynamic_insts()
        );
    }
}
