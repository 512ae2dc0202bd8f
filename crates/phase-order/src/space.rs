//! The enumerated search space: a weighted DAG of distinct function
//! instances (Figure 7 of the paper).
//!
//! Nodes are distinct function instances (identified by canonical
//! fingerprint plus phase-legality flags); an edge `u --p--> v` records
//! that phase `p` was *active* on `u` and produced `v`. Dormant attempts
//! leave no edge — they are recorded in the node's masks instead, which is
//! what the interaction analyses consume.
//!
//! Under the semantic merge tier (`--merge-tier semantic`) a second edge
//! kind appears: `u ··p··> v` in [`Node::sem_children`] records that the
//! fingerprint-fresh instance phase `p` produced from `u` was
//! *behaviorally* merged into `v` (its signature matched an established
//! class). The produced instance is still inserted and expanded — the
//! node set, `children` edges, masks and weights are bit-identical to
//! the fingerprint tier — so the semantic tier is an exact *quotient
//! annotation* over the fingerprint space: merged nodes point at their
//! class representative ([`SearchSpace::sem_rep`]), and the number of
//! behaviorally distinct instances is [`SearchSpace::sem_class_count`].
//! Semantic edges are kept apart from fingerprint edges deliberately:
//! signature equality says nothing about the *futures* of the two
//! instances being equal (it is not a congruence under phase
//! application), so a semantic edge may point at an ancestor — a cycle
//! through `children` would break [`SearchSpace::compute_weights`] —
//! and Table-3-style reports must be producible under either quotient.
//!
//! The *pruned* tier (`--merge-tier semantic-pruned`) adds a third edge
//! kind: `u ┄p┄> v` in [`Node::pruned_children`] records that the
//! instance phase `p` produced from `u` was merged into `v` *and its
//! expansion skipped* — its signature matched `v`'s class and its phase
//! mask was subsumed by `v`'s. The produced node is still inserted
//! (marked [`Node::pruned`]) and keeps its `children` discovery edge
//! from `u`, but it has no subtree of its own: leaf statistics skip it
//! ([`Node::is_leaf`]), its weight is a placeholder 1, and DOT renders
//! the merge edge dotted. Unlike the annotation tier, the pruned space
//! is *smaller* than the fingerprint space — everything reachable only
//! through pruned subtrees is charged to the representative, a loss
//! `vpoc audit-quotient` measures exactly.

use std::collections::HashMap;

use vpo_opt::PhaseId;
use vpo_rtl::canon::Fingerprint;
use vpo_rtl::FuncFlags;

/// Index of a node in a [`SearchSpace`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One distinct function instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Node {
    /// Canonical fingerprint of the instance.
    pub fp: Fingerprint,
    /// Phase-legality milestone flags of the instance.
    pub flags: FuncFlags,
    /// Level = length of the shortest active phase sequence producing it.
    pub level: u32,
    /// Static instruction count (the code-size measure of Table 3).
    pub inst_count: u32,
    /// Control-flow shape signature (for the `CF` statistic).
    pub cf_sig: u64,
    /// Bit `i` set iff `PhaseId::from_index(i)` is active on this instance.
    pub active_mask: u16,
    /// Outgoing edges: `(phase, child)` for each active phase.
    pub children: Vec<(PhaseId, NodeId)>,
    /// Semantic-merge edges: `(phase, representative)` for each active
    /// phase whose fingerprint-fresh product was behaviorally merged
    /// into an established class (always empty under the fingerprint
    /// tier). The produced node itself is still recorded in `children`
    /// under the same phase; the representative may be *any* node of
    /// the space, including an ancestor.
    pub sem_children: Vec<(PhaseId, NodeId)>,
    /// Subsumption-prune edges: `(phase, representative)` for each
    /// active phase whose fingerprint-fresh product was behaviorally
    /// merged into an established class **and not expanded** because
    /// its active-phase mask was subsumed by the representative's
    /// (always empty outside the `semantic-pruned` tier). The produced
    /// node is still recorded in `children` under the same phase, but
    /// it is marked [`Node::pruned`] and has no subtree.
    pub pruned_children: Vec<(PhaseId, NodeId)>,
    /// Whether this node's expansion was skipped by the pruned tier:
    /// its signature and mask were subsumed by its class
    /// representative's at discovery time. Pruned nodes have
    /// `active_mask == 0` (never attempted) but are *not* leaves.
    pub pruned: bool,
    /// Discovery edge: the parent and phase that first produced this node
    /// (`None` for the root). Used to rematerialize instances on demand.
    pub discovered_from: Option<(NodeId, PhaseId)>,
    /// Number of distinct active sequences continuing through this node
    /// (leaf = 1, interior = sum of children); filled by
    /// [`SearchSpace::compute_weights`].
    pub weight: u64,
}

impl Node {
    /// Whether the node is a leaf: no phase is active on it. A pruned
    /// node also has an empty mask (its attempts were skipped), but it
    /// is *not* a leaf — its true frontier lives in the representative's
    /// subtree — so [`SearchSpace::leaf_count`] excludes it.
    /// [`SearchSpace::best_leaf`] and
    /// [`SearchSpace::leaf_code_size_range`] treat it as a *terminal*
    /// instead: see [`Node::is_terminal`].
    pub fn is_leaf(&self) -> bool {
        self.active_mask == 0 && !self.pruned
    }

    /// Whether the node is a terminal of the exploration: a leaf, or a
    /// pruned placeholder. A placeholder is a real discovered instance
    /// reached by a real phase sequence — its expansion was skipped, not
    /// its existence — so code-size optima and spreads must range over
    /// it: the best instance a pruned search discovers is often merged
    /// (and hence pruned) into an interior representative before its
    /// leafhood could be proven by expansion. Identical to
    /// [`Node::is_leaf`] outside `--merge-tier semantic-pruned`, where
    /// no node is ever pruned.
    pub fn is_terminal(&self) -> bool {
        self.active_mask == 0
    }

    /// Whether `phase` is active on this instance.
    pub fn is_active(&self, phase: PhaseId) -> bool {
        self.active_mask >> phase.index() & 1 == 1
    }

    /// The child produced by `phase`, if that phase is active here.
    pub fn child(&self, phase: PhaseId) -> Option<NodeId> {
        self.children.iter().find(|(p, _)| *p == phase).map(|&(_, c)| c)
    }
}

/// The weighted DAG of distinct function instances.
#[derive(Clone, Debug, Default)]
pub struct SearchSpace {
    nodes: Vec<Node>,
    index: HashMap<(Fingerprint, FuncFlags), NodeId>,
}

impl SearchSpace {
    /// Creates an empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct function instances.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the space is empty (no root inserted yet).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node id (the unoptimized instance).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Borrows a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Mutably borrows a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// Iterates over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Looks up an instance by identity.
    pub fn find(&self, fp: Fingerprint, flags: FuncFlags) -> Option<NodeId> {
        self.index.get(&(fp, flags)).copied()
    }

    /// Total number of semantic-merge edges across the space — one per
    /// node whose first discovery was behaviorally merged (0 under the
    /// fingerprint tier).
    pub fn sem_edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.sem_children.len()).sum()
    }

    /// Number of pruned nodes: instances whose expansion the pruned
    /// tier skipped (0 outside `semantic-pruned`).
    pub fn pruned_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.pruned).count()
    }

    /// The semantic class representative of `id`: the node its first
    /// discovery was behaviorally merged into, or `id` itself when it
    /// founded its own signature class (always `id` under the
    /// fingerprint tier). Representatives are always founders, so this
    /// never chains.
    pub fn sem_rep(&self, id: NodeId) -> NodeId {
        match self.node(id).discovered_from {
            Some((parent, phase)) => {
                let parent = self.node(parent);
                parent
                    .sem_children
                    .iter()
                    .chain(&parent.pruned_children)
                    .find(|&&(p, _)| p == phase)
                    .map_or(id, |&(_, rep)| rep)
            }
            None => id,
        }
    }

    /// Number of behaviorally distinct instances: nodes that founded
    /// their own signature class (equals [`SearchSpace::len`] under the
    /// fingerprint tier).
    pub fn sem_class_count(&self) -> usize {
        self.iter().filter(|&(id, _)| self.sem_rep(id) == id).count()
    }

    /// Inserts a new node, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if an instance with the same identity already exists.
    pub fn insert(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let prev = self.index.insert((node.fp, node.flags), id);
        assert!(prev.is_none(), "duplicate instance insertion");
        self.nodes.push(node);
        id
    }

    /// Number of leaf instances (no further phase active — the `Leaf`
    /// column of Table 3).
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Minimum and maximum instruction counts over terminal instances —
    /// leaves plus, under the pruned tier, pruned placeholders
    /// ([`Node::is_terminal`]) — the code-size spread of Table 3.
    /// Returns `None` if there are no terminals.
    pub fn leaf_code_size_range(&self) -> Option<(u32, u32)> {
        let mut it = self.nodes.iter().filter(|n| n.is_terminal()).map(|n| n.inst_count);
        let first = it.next()?;
        let (mut lo, mut hi) = (first, first);
        for v in it {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }

    /// Minimum and maximum instruction counts over **all** instances.
    /// Note the minimum can sit at an interior node: code-growing phases
    /// (loop unrolling, loop rotation) may still be active on the smallest
    /// instance, so the best *leaf* is not necessarily the best instance.
    pub fn code_size_range(&self) -> Option<(u32, u32)> {
        let mut it = self.nodes.iter().map(|n| n.inst_count);
        let first = it.next()?;
        let (mut lo, mut hi) = (first, first);
        for v in it {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }

    /// Number of distinct control flows among all instances (the `CF`
    /// column of Table 3).
    pub fn distinct_control_flows(&self) -> usize {
        let mut sigs: Vec<u64> = self.nodes.iter().map(|n| n.cf_sig).collect();
        sigs.sort_unstable();
        sigs.dedup();
        sigs.len()
    }

    /// The maximum level of any node — the largest active phase sequence
    /// length (`Len` in Table 3).
    pub fn max_active_sequence_length(&self) -> u32 {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0)
    }

    /// The discovery sequence of a node: the phases along its discovery
    /// edges back to the root, in application order. The root's sequence
    /// is empty.
    pub fn discovery_sequence(&self, id: NodeId) -> Vec<PhaseId> {
        let mut seq = Vec::new();
        let mut cur = id;
        while let Some((parent, phase)) = self.node(cur).discovered_from {
            seq.push(phase);
            cur = parent;
        }
        seq.reverse();
        seq
    }

    /// Per-phase activity over the space: `counts[p.index()]` is the
    /// number of instances phase `p` is active on (the raw occurrence
    /// counts behind the Section 5 interaction probabilities).
    pub fn phase_active_counts(&self) -> [u64; PhaseId::COUNT] {
        let mut counts = [0u64; PhaseId::COUNT];
        for n in &self.nodes {
            for p in PhaseId::ALL {
                if n.is_active(p) {
                    counts[p.index()] += 1;
                }
            }
        }
        counts
    }

    /// The terminal ([`Node::is_terminal`]) with the smallest
    /// instruction count (ties broken by lowest node id — the first
    /// ordering discovered): the code-size optimal phase ordering of
    /// Table 3. Under the pruned tier this ranges over pruned
    /// placeholders too — the optimal instance is frequently merged
    /// into an interior representative and pruned before expansion
    /// would prove it a leaf, yet it was discovered and its ordering is
    /// real; `vpoc audit-quotient` checks exactly this optimum against
    /// the annotation tier's. `None` for a space with no terminals
    /// (only possible under truncation).
    pub fn best_leaf(&self) -> Option<NodeId> {
        self.iter()
            .filter(|(_, n)| n.is_terminal())
            .min_by_key(|&(id, n)| (n.inst_count, id))
            .map(|(id, _)| id)
    }

    /// Computes node weights: leaves weigh 1, interior nodes the sum of
    /// their children (Figure 7).
    ///
    /// # Errors
    ///
    /// Returns the id of a node on a cycle if the space is not acyclic
    /// (which the paper — and this compiler — rule out: no phase undoes
    /// the effect of another).
    pub fn compute_weights(&mut self) -> Result<(), NodeId> {
        let n = self.nodes.len();
        let mut state = vec![0u8; n]; // 0 new, 1 in progress, 2 done
        let mut order: Vec<u32> = Vec::with_capacity(n);
        // Iterative DFS from every node (the DAG may have several
        // components only in theory; the root reaches everything).
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            let mut stack: Vec<(u32, usize)> = vec![(start as u32, 0)];
            state[start] = 1;
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                let children = &self.nodes[v as usize].children;
                if *next < children.len() {
                    let (_, c) = children[*next];
                    *next += 1;
                    match state[c.0 as usize] {
                        0 => {
                            state[c.0 as usize] = 1;
                            stack.push((c.0, 0));
                        }
                        1 => return Err(c),
                        _ => {}
                    }
                } else {
                    state[v as usize] = 2;
                    order.push(v);
                    stack.pop();
                }
            }
        }
        // `order` is a postorder: children come before parents.
        for &v in &order {
            let node = &self.nodes[v as usize];
            let w = if node.children.is_empty() {
                1
            } else {
                node.children.iter().map(|&(_, c)| self.nodes[c.0 as usize].weight).sum()
            };
            self.nodes[v as usize].weight = w;
        }
        Ok(())
    }

    /// Renders the space in Graphviz `dot` syntax (nodes annotated with
    /// weight and size; edges with phase letters). Useful for inspecting
    /// small spaces like the paper's Figure 7.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph phase_order_space {\n  rankdir=TB;\n");
        for (id, n) in self.iter() {
            out.push_str(&format!(
                "  {id} [label=\"{id}\\nw={} insts={}\"{}];\n",
                n.weight,
                n.inst_count,
                if n.is_leaf() { " shape=doublecircle" } else { "" }
            ));
        }
        for (id, n) in self.iter() {
            for (p, c) in &n.children {
                out.push_str(&format!("  {id} -> {c} [label=\"{}\"];\n", p.letter()));
            }
            for (p, c) in &n.sem_children {
                out.push_str(&format!(
                    "  {id} -> {c} [label=\"{}\" style=dashed color=gray50];\n",
                    p.letter()
                ));
            }
            for (p, c) in &n.pruned_children {
                out.push_str(&format!(
                    "  {id} -> {c} [label=\"{}\" style=dotted color=gray30];\n",
                    p.letter()
                ));
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_node(fp_seed: u32) -> Node {
        Node {
            fp: Fingerprint { inst_count: fp_seed, byte_sum: fp_seed as u64, crc: fp_seed },
            flags: FuncFlags::default(),
            level: 0,
            inst_count: fp_seed,
            cf_sig: 0,
            active_mask: 0,
            children: Vec::new(),
            sem_children: Vec::new(),
            pruned_children: Vec::new(),
            pruned: false,
            discovered_from: None,
            weight: 0,
        }
    }

    #[test]
    fn figure7_weights() {
        // Reconstruct the weighted DAG of Figure 7:
        // root(5) -> a:2, b:2, c:1 ... simplified shape:
        //   root --a--> A(2), root --b--> B(2), root --c--> C(1)
        //   A --b--> AB(1), A --c--> AC(1)  (leaves)
        //   B --a--> AB, B --c--> BC(1)
        //   wait: keep it simple — a diamond plus a leaf.
        let mut s = SearchSpace::new();
        let root = s.insert(mk_node(0));
        let a = s.insert(mk_node(1));
        let b = s.insert(mk_node(2));
        let join = s.insert(mk_node(3));
        let leaf = s.insert(mk_node(4));
        s.node_mut(root).children = vec![(PhaseId::Cse, a), (PhaseId::DeadAssign, b)];
        s.node_mut(root).active_mask = 0b11;
        s.node_mut(a).children = vec![(PhaseId::DeadAssign, join)];
        s.node_mut(a).active_mask = 1;
        s.node_mut(b).children = vec![(PhaseId::Cse, join)];
        s.node_mut(b).active_mask = 1;
        s.node_mut(join).children = vec![(PhaseId::InsnSelect, leaf)];
        s.node_mut(join).active_mask = 1;
        s.compute_weights().unwrap();
        assert_eq!(s.node(leaf).weight, 1);
        assert_eq!(s.node(join).weight, 1);
        assert_eq!(s.node(a).weight, 1);
        assert_eq!(s.node(b).weight, 1);
        assert_eq!(s.node(root).weight, 2); // two distinct sequences
        assert_eq!(s.leaf_count(), 1);
    }

    #[test]
    fn cycle_detection() {
        let mut s = SearchSpace::new();
        let a = s.insert(mk_node(0));
        let b = s.insert(mk_node(1));
        s.node_mut(a).children = vec![(PhaseId::Cse, b)];
        s.node_mut(b).children = vec![(PhaseId::DeadAssign, a)];
        assert!(s.compute_weights().is_err());
    }

    #[test]
    fn lookup_by_identity() {
        let mut s = SearchSpace::new();
        let n = mk_node(7);
        let fp = n.fp;
        let id = s.insert(n);
        assert_eq!(s.find(fp, FuncFlags::default()), Some(id));
        let assigned = FuncFlags { regs_assigned: true, reg_allocated: false };
        assert_eq!(s.find(fp, assigned), None);
    }

    #[test]
    fn discovery_sequence_and_best_leaf() {
        let mut s = SearchSpace::new();
        let root = s.insert(mk_node(0));
        let mut a = mk_node(9);
        a.discovered_from = Some((root, PhaseId::InsnSelect));
        let a = s.insert(a);
        let mut b = mk_node(4);
        b.discovered_from = Some((a, PhaseId::Cse));
        let b = s.insert(b);
        s.node_mut(root).children = vec![(PhaseId::InsnSelect, a)];
        s.node_mut(root).active_mask = 1 << PhaseId::InsnSelect.index();
        s.node_mut(a).children = vec![(PhaseId::Cse, b)];
        s.node_mut(a).active_mask = 1 << PhaseId::Cse.index();
        assert_eq!(s.discovery_sequence(root), vec![]);
        assert_eq!(s.discovery_sequence(b), vec![PhaseId::InsnSelect, PhaseId::Cse]);
        // `b` (4 insts) is the only leaf; it wins over the interior nodes.
        assert_eq!(s.best_leaf(), Some(b));
        let counts = s.phase_active_counts();
        assert_eq!(counts[PhaseId::InsnSelect.index()], 1);
        assert_eq!(counts[PhaseId::Cse.index()], 1);
        assert_eq!(counts.iter().sum::<u64>(), 2);
    }

    #[test]
    fn semantic_classes_resolve_and_render_dashed() {
        // root --Cse--> rep (founder), root --DeadAssign--> merged,
        // where `merged`'s first discovery was behaviorally merged into
        // `rep`: root carries the dashed sem edge under the same phase.
        let mut s = SearchSpace::new();
        let root = s.insert(mk_node(0));
        let rep = s.insert(mk_node(1));
        let mut m = mk_node(2);
        m.discovered_from = Some((root, PhaseId::DeadAssign));
        let merged = s.insert(m);
        s.node_mut(root).children = vec![(PhaseId::Cse, rep), (PhaseId::DeadAssign, merged)];
        s.node_mut(root).active_mask = 0b11;
        s.node_mut(root).sem_children = vec![(PhaseId::DeadAssign, rep)];
        // A semantic edge pointing *backwards* (merged ··> root) must
        // not trip the cycle detector: weights walk `children` only.
        s.node_mut(merged).sem_children = vec![(PhaseId::Cse, root)];
        assert_eq!(s.sem_edge_count(), 2);
        assert_eq!(s.sem_rep(merged), rep);
        assert_eq!(s.sem_rep(rep), rep);
        assert_eq!(s.sem_rep(root), root);
        assert_eq!(s.sem_class_count(), 2);
        s.compute_weights().unwrap();
        let dot = s.to_dot();
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn pruned_nodes_resolve_to_their_rep_and_are_not_leaves() {
        // root --Cse--> rep (founder, a leaf), root --DeadAssign--> pruned,
        // where `pruned`'s expansion was skipped: root carries the dotted
        // prune edge under the same phase.
        let mut s = SearchSpace::new();
        let root = s.insert(mk_node(0));
        let rep = s.insert(mk_node(1));
        let mut p = mk_node(2);
        p.discovered_from = Some((root, PhaseId::DeadAssign));
        p.pruned = true;
        let pruned = s.insert(p);
        s.node_mut(root).children = vec![(PhaseId::Cse, rep), (PhaseId::DeadAssign, pruned)];
        s.node_mut(root).active_mask = 0b11;
        s.node_mut(root).pruned_children = vec![(PhaseId::DeadAssign, rep)];
        assert_eq!(s.pruned_count(), 1);
        assert_eq!(s.sem_rep(pruned), rep);
        assert_eq!(s.sem_rep(rep), rep);
        assert_eq!(s.sem_class_count(), 2);
        // The pruned node's empty mask does not make it a leaf, but it
        // *is* a terminal: leaf_count excludes it, while best_leaf
        // ranges over it (rep wins here on size, 1 < 2).
        assert_eq!(s.leaf_count(), 1);
        assert!(!s.node(pruned).is_leaf() && s.node(pruned).is_terminal());
        assert_eq!(s.best_leaf(), Some(rep));
        assert_eq!(s.leaf_code_size_range(), Some((1, 2)));
        s.compute_weights().unwrap();
        assert_eq!(s.node(pruned).weight, 1, "pruned nodes keep placeholder weight 1");
        assert_eq!(s.node(root).weight, 2);
        assert!(s.to_dot().contains("style=dotted"));
    }

    #[test]
    fn dot_rendering_mentions_every_node() {
        let mut s = SearchSpace::new();
        let root = s.insert(mk_node(0));
        let child = s.insert(mk_node(1));
        s.node_mut(root).children = vec![(PhaseId::InsnSelect, child)];
        s.compute_weights().unwrap();
        let dot = s.to_dot();
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("label=\"s\""));
    }
}
