//! Control-flow graph utilities.
//!
//! The CFG is derived on demand from a [`Function`]'s block layout: a block
//! ending in a conditional branch has the branch target and the next
//! positional block as successors; a jump has its target; a return has none;
//! anything else falls through.

use std::collections::HashMap;

use crate::function::{Function, Label};
use crate::inst::Inst;

/// A snapshot of a function's control-flow graph, indexed by block position.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// `succs[i]` — successor block indices of block `i`, branch targets
    /// before fallthroughs.
    pub succs: Vec<Vec<usize>>,
    /// `preds[i]` — predecessor block indices of block `i`.
    pub preds: Vec<Vec<usize>>,
    /// Map from label to block index.
    pub index_of: HashMap<Label, usize>,
}

impl Cfg {
    /// Computes the CFG of `f`.
    ///
    /// # Panics
    ///
    /// Panics if a branch targets a label with no corresponding block.
    pub fn build(f: &Function) -> Cfg {
        let n = f.blocks.len();
        let mut index_of = HashMap::with_capacity(n);
        for (i, b) in f.blocks.iter().enumerate() {
            index_of.insert(b.label, i);
        }
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (i, b) in f.blocks.iter().enumerate() {
            let mut out: Vec<usize> = Vec::new();
            let mut falls = true;
            // Scan instructions: a block may internally contain a
            // conditional branch only as (part of) its terminator sequence,
            // but we tolerate compare/branch pairs anywhere by collecting
            // every branch target that is reachable before a barrier.
            for inst in &b.insts {
                match inst {
                    Inst::CondBranch { target, .. } => {
                        let t = *index_of
                            .get(target)
                            .unwrap_or_else(|| panic!("dangling label {target} in {}", f.name));
                        if !out.contains(&t) {
                            out.push(t);
                        }
                    }
                    Inst::Jump { target } => {
                        let t = *index_of
                            .get(target)
                            .unwrap_or_else(|| panic!("dangling label {target} in {}", f.name));
                        if !out.contains(&t) {
                            out.push(t);
                        }
                        falls = false;
                        break;
                    }
                    Inst::Return { .. } => {
                        falls = false;
                        break;
                    }
                    _ => {}
                }
            }
            if falls && i + 1 < n && !out.contains(&(i + 1)) {
                out.push(i + 1);
            }
            for &s in &out {
                preds[s].push(i);
            }
            succs[i] = out;
        }
        Cfg { succs, preds, index_of }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the CFG has no blocks.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Blocks reachable from the entry (block 0), as a boolean vector.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        if self.is_empty() {
            return seen;
        }
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(b) = stack.pop() {
            for &s in &self.succs[b] {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Reverse postorder over reachable blocks starting at the entry.
    pub fn reverse_postorder(&self) -> Vec<usize> {
        let mut state = vec![0u8; self.len()]; // 0 unvisited, 1 on stack, 2 done
        let mut post = Vec::with_capacity(self.len());
        if self.is_empty() {
            return post;
        }
        // Iterative DFS computing postorder.
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        state[0] = 1;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if *next < self.succs[b].len() {
                let s = self.succs[b][*next];
                *next += 1;
                if state[s] == 0 {
                    state[s] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b] = 2;
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }
}

/// The exact control-flow *shape* of `f` with its branch senses: its
/// block count, then per block the kind of its last instruction
/// (fallthrough, jump, conditional branch or return), the conditions
/// its conditional branches test, and its successor block indices. Two
/// instances with equal shapes enter corresponding blocks equally often
/// on equal inputs (the paper's §7), which is what lets one counted run
/// per shape stand in for every instance that has it. The condition is
/// what keeps that true across branch reversal: reversing a branch and
/// reordering its arms can produce the same successor indices with the
/// arms swapped, and only the negated condition tells them apart. No
/// phase swaps a compare's operands, so a branch's sense changes only
/// with its condition.
pub fn control_flow_shape(f: &Function) -> Vec<u8> {
    shape_bytes(f, true)
}

/// A compact fingerprint of the function's control-flow shape only:
/// block count plus, per block, the pattern of conditional/unconditional
/// exits and their target block indices, without the branch conditions.
/// Used for the paper's `CF` (distinct control flows) statistic.
pub fn control_flow_signature(f: &Function) -> u64 {
    let crc = crate::crc::crc32(&shape_bytes(f, false));
    ((f.blocks.len() as u64) << 32) | crc as u64
}

fn shape_bytes(f: &Function, senses: bool) -> Vec<u8> {
    let cfg = Cfg::build(f);
    let mut bytes = Vec::with_capacity(f.blocks.len() * 4 + 4);
    bytes.extend_from_slice(&(f.blocks.len() as u32).to_le_bytes());
    for (i, b) in f.blocks.iter().enumerate() {
        bytes.push(match b.insts.last() {
            Some(Inst::Jump { .. }) => 1,
            Some(Inst::CondBranch { .. }) => 2,
            Some(Inst::Return { .. }) => 3,
            _ => 0,
        });
        if senses {
            // Length-prefixed conditions and successors, so equal bytes
            // mean equal shapes whatever the block count.
            let conds: Vec<u8> = b
                .insts
                .iter()
                .filter_map(|inst| match inst {
                    Inst::CondBranch { cond, .. } => Some(*cond as u8),
                    _ => None,
                })
                .collect();
            bytes.extend_from_slice(&(conds.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&conds);
            bytes.extend_from_slice(&(cfg.succs[i].len() as u32).to_le_bytes());
        }
        for &s in &cfg.succs[i] {
            bytes.extend_from_slice(&(s as u32).to_le_bytes());
        }
        bytes.push(0xFF);
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::expr::{Cond, Expr};

    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d");
        let x = b.param();
        let t = b.new_label();
        let j = b.new_label();
        b.compare(Expr::Reg(x), Expr::Const(0));
        b.cond_branch(Cond::Lt, t);
        b.assign(x, Expr::Const(1));
        b.jump(j);
        b.start_block(t);
        b.assign(x, Expr::Const(2));
        b.start_block(j);
        b.ret(Some(Expr::Reg(x)));
        b.finish()
    }

    #[test]
    fn diamond_cfg() {
        let f = diamond();
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.len(), 3);
        let mut s0 = cfg.succs[0].clone();
        s0.sort_unstable();
        assert_eq!(s0, vec![1, 2]);
        assert_eq!(cfg.succs[1], vec![2]);
        assert!(cfg.succs[2].is_empty());
        let mut p2 = cfg.preds[2].clone();
        p2.sort_unstable();
        assert_eq!(p2, vec![0, 1]);
    }

    #[test]
    fn rpo_starts_at_entry_and_visits_all() {
        let f = diamond();
        let cfg = Cfg::build(&f);
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], 0);
        assert_eq!(rpo.len(), 3);
    }

    #[test]
    fn reachability_flags_dead_blocks() {
        let mut b = FunctionBuilder::new("u");
        let dead = b.new_label();
        b.ret(None);
        b.start_block(dead);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.reachable(), vec![true, false]);
    }

    #[test]
    fn cf_signature_distinguishes_shapes() {
        let f1 = diamond();
        let mut b = FunctionBuilder::new("s");
        b.ret(None);
        let f2 = b.finish();
        assert_ne!(control_flow_signature(&f1), control_flow_signature(&f2));
        assert_eq!(control_flow_signature(&f1), control_flow_signature(&diamond()));
    }
}
