//! Control-flow-based dynamic-count inference (the paper's Section 7).
//!
//! "The small number of distinct control flows of functions (see column
//! CF in Table 7) can be used to infer the dynamic instruction count of
//! one execution from another." Two function instances with the same
//! control-flow shape execute their corresponding basic blocks the same
//! number of times on the same input, so measuring **one instance per
//! distinct control flow** yields every instance's dynamic count as
//!
//! ```text
//! dynamic(instance) = Σ_blocks entries(block) × |block|
//! ```
//!
//! With hundreds of thousands of instances but only tens of control
//! flows, this turns an infeasible simulation campaign into a handful of
//! runs — the prerequisite for the paper's "eventual goal" of finding the
//! best-performing instance. The measurement and the sum are
//! [`phase_order::semantic::FlowRun`], the machinery the semantic merge
//! tiers sign by; control flows are keyed by their exact shape
//! ([`vpo_rtl::cfg::control_flow_shape`]).

use std::collections::HashMap;

use phase_order::enumerate::rematerialize;
use phase_order::semantic::FlowRun;
use phase_order::{Enumeration, NodeId};
use vpo_opt::Target;
use vpo_rtl::cfg::control_flow_shape;
use vpo_rtl::{Function, Program};
use vpo_sim::{Machine, SimError};

/// The dynamic instruction count of one leaf instance, and whether it was
/// measured directly or inferred from a control-flow sibling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeafCount {
    /// The instance.
    pub node: NodeId,
    /// Static size (instructions).
    pub static_size: u32,
    /// Dynamic instructions executed in the function itself (callees not
    /// included — they are identical across instances anyway).
    pub dynamic: u64,
    /// `true` if this row was simulated; `false` if inferred from another
    /// instance with the same control flow.
    pub measured: bool,
}

/// Result of [`leaf_dynamic_counts`].
#[derive(Clone, Debug)]
pub struct CfInference {
    /// One entry per leaf instance, in node order.
    pub leaves: Vec<LeafCount>,
    /// Number of simulator executions performed.
    pub executions: usize,
}

impl CfInference {
    /// The leaf with the smallest dynamic count (the best-performing
    /// instance the paper's eventual goal asks for).
    pub fn fastest(&self) -> Option<&LeafCount> {
        self.leaves.iter().min_by_key(|l| l.dynamic)
    }

    /// The leaf with the largest dynamic count.
    pub fn slowest(&self) -> Option<&LeafCount> {
        self.leaves.iter().max_by_key(|l| l.dynamic)
    }
}

/// Computes the dynamic instruction count of **every leaf instance** of an
/// enumerated space on the given workload, executing only one instance per
/// distinct control flow and inferring the rest.
///
/// # Errors
///
/// Propagates the first simulator error (the workload must execute
/// successfully on every distinct control flow).
pub fn leaf_dynamic_counts(
    program: &Program,
    base: &Function,
    e: &Enumeration,
    args: &[i32],
    target: &Target,
) -> Result<CfInference, SimError> {
    // One counted run per exact control-flow shape.
    let mut measured: HashMap<Vec<u8>, FlowRun> = HashMap::new();
    let mut machine = Machine::new(program);
    let mut leaves = Vec::new();
    let mut executions = 0;
    for (id, node) in e.space.iter() {
        if !node.is_leaf() {
            continue;
        }
        let f = rematerialize(base, target, &e.space, id);
        debug_assert_eq!(vpo_rtl::canon::fingerprint(&f), node.fp);
        let shape = control_flow_shape(&f);
        let was_measured = !measured.contains_key(&shape);
        if was_measured {
            let li = machine.lower_instance(&f);
            let run = FlowRun::measure(&mut machine, &li, args)?;
            executions += 1;
            measured.insert(shape.clone(), run);
        }
        let dynamic = measured[&shape].own(&f);
        leaves.push(LeafCount {
            node: id,
            static_size: node.inst_count,
            dynamic,
            measured: was_measured,
        });
    }
    Ok(CfInference { leaves, executions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phase_order::enumerate::{enumerate, Config};

    fn setup(src: &str) -> (Program, Enumeration) {
        let p = vpo_frontend::compile(src).unwrap();
        let e = enumerate(&p.functions[0], &Target::default(), &Config::default());
        assert!(e.outcome.is_complete());
        (p, e)
    }

    #[test]
    fn inference_matches_direct_measurement() {
        let (p, e) = setup(
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i * 3; return s; }",
        );
        let target = Target::default();
        let inf = leaf_dynamic_counts(&p, &p.functions[0], &e, &[17], &target).unwrap();
        assert!(!inf.leaves.is_empty());
        assert!(inf.executions <= e.space.distinct_control_flows());
        // Cross-check every inferred leaf against a direct counted run.
        for leaf in &inf.leaves {
            let f = rematerialize(&p.functions[0], &target, &e.space, leaf.node);
            let mut m = Machine::new(&p);
            let (_, counts) = m.call_instance_counted(&f, &[17]).unwrap();
            let direct: u64 =
                f.blocks.iter().zip(&counts).map(|(b, &n)| b.insts.len() as u64 * n).sum();
            assert_eq!(leaf.dynamic, direct, "inference mismatch on leaf {:?}", leaf.node);
        }
    }

    #[test]
    fn execution_savings_are_real() {
        let (p, e) = setup(
            "int g(int n) { int s = 0; int i; for (i = 0; i < n; i++) { if (i & 1) s += i; } return s; }",
        );
        let inf = leaf_dynamic_counts(&p, &p.functions[0], &e, &[30], &Target::default()).unwrap();
        let leaves = inf.leaves.len();
        assert!(inf.executions <= leaves, "never more executions than leaves");
        // All leaves got a count; at least one was inferred whenever two
        // leaves share a control flow.
        if leaves > inf.executions {
            assert!(inf.leaves.iter().any(|l| !l.measured));
        }
        assert!(inf.fastest().unwrap().dynamic <= inf.slowest().unwrap().dynamic);
    }

    #[test]
    fn all_instances_compute_the_same_result() {
        // Sanity for the whole pipeline: the fastest and slowest leaves
        // agree on the answer.
        let (p, e) =
            setup("int h(int n) { int s = 1; while (n > 1) { s *= n & 7; n--; } return s; }");
        let target = Target::default();
        let inf = leaf_dynamic_counts(&p, &p.functions[0], &e, &[9], &target).unwrap();
        let fast = rematerialize(&p.functions[0], &target, &e.space, inf.fastest().unwrap().node);
        let slow = rematerialize(&p.functions[0], &target, &e.space, inf.slowest().unwrap().node);
        let mut m1 = Machine::new(&p);
        let mut m2 = Machine::new(&p);
        assert_eq!(m1.call_instance(&fast, &[9]).unwrap(), m2.call_instance(&slow, &[9]).unwrap());
    }
}
