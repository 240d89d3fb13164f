//! Edge plans: CSR-style groupings of a batch's edge-endpoint arrays,
//! precomputed once per subgraph and shared across every op that walks
//! the same adjacency.
//!
//! The Interaction GNN's hottest kernels all traverse the same two index
//! arrays (`src`, `dst`) — eight layers times two endpoints per training
//! step. An [`EdgePlan`] inverts one index array into *edges grouped by
//! node*: a permutation of edge ids ordered by target node (ascending
//! edge id within each node's group) plus per-node offsets. With that
//! grouping in hand, scatter-add becomes a reduction that is parallel
//! over **output nodes** — each node sums its incident edge rows in a
//! fixed order, so the result is bit-identical to the serial kernel at
//! any thread count, with no atomics and no locks. Determinism is
//! load-bearing here: the golden-curve tests and DDP lockstep both
//! assume a training step is a pure function of its inputs.
//!
//! [`EdgePlans`] bundles the two per-endpoint plans with the index
//! arrays themselves so one `Arc` can be threaded through a whole
//! forward pass (and built once per batch when the batch is sampled,
//! counted as sampling time rather than as the forward pass's).

use std::sync::Arc;

/// CSR-style inversion of one edge-endpoint array: for each node, the
/// (ascending) list of edge ids pointing at it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgePlan {
    nodes: usize,
    /// `nodes + 1` offsets into `order`: node `r`'s incident edges are
    /// `order[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<u32>,
    /// Edge ids grouped by node, ascending within each group (the stable
    /// order that makes the planned reduction match the serial kernel
    /// bit for bit).
    order: Vec<u32>,
}

impl EdgePlan {
    /// Build the plan for `idx` (one endpoint per edge) over `nodes`
    /// nodes. Counting sort: `O(edges + nodes)`. Indices are validated
    /// here — this is the op boundary where data-derived indices enter
    /// the kernels, so the check is a real `assert!`, and the kernels'
    /// inner loops stay check-free.
    pub fn new(idx: &[u32], nodes: usize) -> Self {
        if let Some(&max) = idx.iter().max() {
            assert!(
                (max as usize) < nodes,
                "edge endpoint {max} out of range for {nodes} nodes"
            );
        }
        assert!(
            idx.len() <= u32::MAX as usize && nodes < u32::MAX as usize,
            "edge plan limited to u32-indexable graphs"
        );
        let mut offsets = vec![0u32; nodes + 1];
        for &r in idx {
            offsets[r as usize + 1] += 1;
        }
        for i in 0..nodes {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..nodes.max(1) - (nodes == 0) as usize].to_vec();
        // (For nodes == 0 the cursor is empty and the loop below never runs.)
        let mut order = vec![0u32; idx.len()];
        for (e, &r) in idx.iter().enumerate() {
            let c = &mut cursor[r as usize];
            order[*c as usize] = e as u32;
            *c += 1;
        }
        Self {
            nodes,
            offsets,
            order,
        }
    }

    /// Number of nodes the plan scatters into / gathers from.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of edges the plan covers.
    pub fn num_edges(&self) -> usize {
        self.order.len()
    }

    /// Edge ids incident to `node`, ascending.
    #[inline]
    pub fn incident(&self, node: usize) -> &[u32] {
        let lo = self.offsets[node] as usize;
        let hi = self.offsets[node + 1] as usize;
        &self.order[lo..hi]
    }

    /// Edge ids incident to nodes `lo..hi`, node by node, each node's
    /// ascending: their [`EdgePlan::incident`] lists end to end.
    #[inline]
    pub(crate) fn incident_to_range(&self, lo: usize, hi: usize) -> &[u32] {
        &self.order[self.offsets[lo] as usize..self.offsets[hi] as usize]
    }

    /// Degree of `node` under this plan's endpoint.
    pub fn degree(&self, node: usize) -> usize {
        (self.offsets[node + 1] - self.offsets[node]) as usize
    }
}

/// Both endpoints' plans for one batch's edge list, plus the index
/// arrays themselves — everything the fused message-passing ops need,
/// behind one `Arc`.
#[derive(Debug, Clone)]
pub struct EdgePlans {
    pub src: Arc<Vec<u32>>,
    pub dst: Arc<Vec<u32>>,
    pub src_plan: Arc<EdgePlan>,
    pub dst_plan: Arc<EdgePlan>,
}

impl EdgePlans {
    /// Build both per-endpoint plans for a graph with `nodes` nodes.
    pub fn new(src: Arc<Vec<u32>>, dst: Arc<Vec<u32>>, nodes: usize) -> Self {
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        let src_plan = Arc::new(EdgePlan::new(&src, nodes));
        let dst_plan = Arc::new(EdgePlan::new(&dst, nodes));
        Self {
            src,
            dst,
            src_plan,
            dst_plan,
        }
    }

    pub fn nodes(&self) -> usize {
        self.src_plan.nodes()
    }

    pub fn num_edges(&self) -> usize {
        self.src.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_edges_by_node_in_ascending_order() {
        // Edges:      0  1  2  3  4
        let idx = vec![2, 0, 2, 1, 2];
        let plan = EdgePlan::new(&idx, 4);
        assert_eq!(plan.nodes(), 4);
        assert_eq!(plan.num_edges(), 5);
        assert_eq!(plan.incident(0), &[1]);
        assert_eq!(plan.incident(1), &[3]);
        assert_eq!(plan.incident(2), &[0, 2, 4]); // ascending edge ids
        assert_eq!(plan.incident(3), &[] as &[u32]); // isolated node
        assert_eq!(plan.degree(2), 3);
    }

    #[test]
    fn empty_graph_and_empty_edges() {
        let plan = EdgePlan::new(&[], 0);
        assert_eq!(plan.nodes(), 0);
        assert_eq!(plan.num_edges(), 0);
        let plan = EdgePlan::new(&[], 5);
        for n in 0..5 {
            assert!(plan.incident(n).is_empty());
        }
    }

    #[test]
    fn duplicate_edges_all_present() {
        let idx = vec![1, 1, 1, 1];
        let plan = EdgePlan::new(&idx, 2);
        assert_eq!(plan.incident(1), &[0, 1, 2, 3]);
        assert!(plan.incident(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let _ = EdgePlan::new(&[3], 3);
    }

    #[test]
    fn edge_plans_bundle_both_endpoints() {
        let src = Arc::new(vec![0u32, 0, 1]);
        let dst = Arc::new(vec![1u32, 2, 2]);
        let plans = EdgePlans::new(src, dst, 3);
        assert_eq!(plans.nodes(), 3);
        assert_eq!(plans.num_edges(), 3);
        assert_eq!(plans.src_plan.incident(0), &[0, 1]);
        assert_eq!(plans.dst_plan.incident(2), &[1, 2]);
    }
}
