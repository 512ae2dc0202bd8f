//! RTL (Register Transfer List) intermediate representation for a VPO-style
//! compiler back end.
//!
//! This crate implements the program representation used by the reproduction
//! of *"Exhaustive Optimization Phase Order Space Exploration"* (Kulkarni,
//! Whalley, Tyson, Davidson — CGO 2006). VPO, the Very Portable Optimizer,
//! performs **all** of its optimizations on a single low-level representation
//! called RTLs; because there is only one representation, most phases can be
//! applied repeatedly and in an arbitrary order, which is exactly the
//! property that makes exhaustive phase-order enumeration meaningful.
//!
//! The crate provides:
//!
//! * the IR itself: [`Reg`], [`Expr`], [`Inst`], [`Block`], [`Function`],
//!   [`Program`];
//! * a convenient [`FunctionBuilder`](builder::FunctionBuilder) for
//!   constructing functions programmatically (used heavily in tests);
//! * control-flow utilities: [`mod@cfg`], [`dom`] (dominators), [`loops`]
//!   (natural-loop detection);
//! * dataflow analyses: [`liveness`] (registers, the condition code, and
//!   register-allocatable locals);
//! * the canonical-form machinery of Section 4.2.1 of the paper:
//!   register/label remapping and CRC-based fingerprinting ([`canon`],
//!   [`crc`]).
//!
//! # Example
//!
//! Build the loop of Figure 5 of the paper and fingerprint it:
//!
//! ```
//! use vpo_rtl::builder::FunctionBuilder;
//! use vpo_rtl::{BinOp, Cond, Expr, Width};
//!
//! let mut b = FunctionBuilder::new("sum");
//! let a = b.global("a");
//! let sum = b.reg();
//! b.assign(sum, Expr::Const(0));
//! let base = b.reg();
//! b.assign(base, Expr::Hi(a));
//! b.assign(base, Expr::bin(BinOp::Add, Expr::Reg(base), Expr::Lo(a)));
//! let body = b.new_label();
//! b.start_block(body);
//! let v = b.reg();
//! b.assign(v, Expr::load(Width::Word, Expr::Reg(base)));
//! b.assign(sum, Expr::bin(BinOp::Add, Expr::Reg(sum), Expr::Reg(v)));
//! b.assign(base, Expr::bin(BinOp::Add, Expr::Reg(base), Expr::Const(4)));
//! b.compare(Expr::Reg(base), Expr::Const(4000));
//! b.cond_branch(Cond::Lt, body);
//! b.ret(Some(Expr::Reg(sum)));
//! let f = b.finish();
//!
//! let fp = vpo_rtl::canon::fingerprint(&f);
//! assert_eq!(fp.inst_count, f.inst_count() as u32);
//! ```

pub mod builder;
pub mod canon;
pub mod cfg;
pub mod crc;
pub mod display;
pub mod dom;
pub mod expr;
pub mod function;
pub mod inst;
pub mod liveness;
pub mod loops;
pub mod rng;

pub use expr::{BinOp, Cond, Expr, SymId, UnOp, Width};
pub use function::{Block, FuncFlags, Function, GlobalDef, Label, LocalId, LocalSlot, Program};
pub use inst::Inst;

/// A machine register, either a *pseudo* (temporary produced by naive code
/// generation, existing before the compulsory register-assignment phase) or a
/// *hard* register of the target (StrongARM-like, 16 integer registers).
///
/// The register class is part of every canonical fingerprint, so code before
/// and after register assignment can never be confused for the same function
/// instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Reg {
    /// The register class (pseudo or hard).
    pub class: RegClass,
    /// The register number within its class.
    pub index: u16,
}

impl Reg {
    /// Creates a pseudo register (a compiler temporary).
    pub fn pseudo(index: u16) -> Self {
        Reg { class: RegClass::Pseudo, index }
    }

    /// Creates a hard (target) register.
    pub fn hard(index: u16) -> Self {
        Reg { class: RegClass::Hard, index }
    }

    /// Returns `true` if this is a hard register.
    pub fn is_hard(&self) -> bool {
        self.class == RegClass::Hard
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.class {
            RegClass::Pseudo => write!(f, "t[{}]", self.index),
            RegClass::Hard => write!(f, "r[{}]", self.index),
        }
    }
}

/// The class of a [`Reg`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RegClass {
    /// A compiler temporary; exists only before register assignment.
    Pseudo,
    /// A target hardware register.
    Hard,
}
