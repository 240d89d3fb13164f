//! Sampled-subgraph representation shared by all samplers.
//!
//! A ShaDow minibatch of `b` vertices yields one disconnected graph with
//! `b` components (Algorithm 2's `APPEND_COMPONENT`); every sampled edge
//! carries its *original* edge id so the training step can gather edge
//! features and truth labels from the parent event graph.

use std::sync::Arc;
use trkx_sparse::{CacheCounters, RowStore, RowStoreExt};

/// Graph wrapper holding both orientations of an event graph's candidate
/// edges, with values = original edge ids:
/// * `directed` — the original inner→outer doublets, used for induced
///   subgraph extraction (each original edge appears exactly once);
/// * `undirected` — symmetrised, used by random walks (PyG's ShaDow walks
///   ignore direction).
///
/// Both orientations are held behind the [`RowStore`] trait, so a
/// `SamplerGraph` is either fully in-core (`Csr<u32>`, the
/// [`SamplerGraph::new`] path) or file-backed with an LRU shard cache
/// (`ShardedCsr<u32>` via [`SamplerGraph::from_stores`]) — the samplers
/// cannot tell the difference, and produce bit-identical subgraphs
/// either way.
#[derive(Debug, Clone)]
pub struct SamplerGraph {
    pub num_nodes: usize,
    pub directed: Arc<dyn RowStore<u32>>,
    pub undirected: Arc<dyn RowStore<u32>>,
}

impl SamplerGraph {
    /// Build from a directed edge list; edge `i` gets id `i` in both
    /// orientations.
    pub fn new(num_nodes: usize, src: &[u32], dst: &[u32]) -> Self {
        assert_eq!(src.len(), dst.len(), "edge list length mismatch");
        let directed = trkx_sparse::adjacency_with_edge_ids(num_nodes, src, dst);
        let mut both_src = Vec::with_capacity(src.len() * 2);
        let mut both_dst = Vec::with_capacity(src.len() * 2);
        let mut ids = Vec::with_capacity(src.len() * 2);
        for (i, (&s, &d)) in src.iter().zip(dst).enumerate() {
            both_src.push(s);
            both_dst.push(d);
            ids.push(i as u32);
            both_src.push(d);
            both_dst.push(s);
            ids.push(i as u32);
        }
        let undirected =
            trkx_sparse::Coo::new(num_nodes, num_nodes, both_src, both_dst, ids).to_csr();
        Self {
            num_nodes,
            directed: Arc::new(directed),
            undirected: Arc::new(undirected),
        }
    }

    /// Build from pre-constructed row stores (e.g. sharded, file-backed
    /// adjacencies spilled by the detector). Both stores must be `n x n`
    /// with values = original edge ids, the undirected one symmetrised
    /// with duplicated ids exactly as [`SamplerGraph::new`] builds it.
    pub fn from_stores(
        num_nodes: usize,
        directed: Arc<dyn RowStore<u32>>,
        undirected: Arc<dyn RowStore<u32>>,
    ) -> Self {
        assert_eq!(directed.nrows(), num_nodes, "directed store row mismatch");
        assert_eq!(
            undirected.nrows(),
            num_nodes,
            "undirected store row mismatch"
        );
        Self {
            num_nodes,
            directed,
            undirected,
        }
    }

    pub fn num_edges(&self) -> usize {
        self.directed.nnz()
    }

    /// Aggregated shard-cache counters over both orientations, `None`
    /// when the graph is fully in-core.
    pub fn cache_counters(&self) -> Option<CacheCounters> {
        match (self.directed.counters(), self.undirected.counters()) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or_default().merged(b.unwrap_or_default())),
        }
    }

    /// Endpoint pair `(src, dst)` of every original edge, indexed by edge
    /// id — the inverse of the CSR's `(src, dst) → id` lookup. Used by
    /// round-trip validation.
    pub fn edge_endpoints(&self) -> Vec<(u32, u32)> {
        let mut out = vec![(0u32, 0u32); self.num_edges()];
        for r in 0..self.num_nodes {
            self.directed.row_scope(r, |cols, ids| {
                for (&c, &id) in cols.iter().zip(ids) {
                    out[id as usize] = (r as u32, c);
                }
            });
        }
        out
    }
}

/// One sampled minibatch subgraph: a block-diagonal union of per-batch-
/// vertex induced subgraphs, in a fresh `0..num_nodes()` vertex numbering.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledSubgraph {
    /// Original vertex id of each subgraph vertex.
    pub node_map: Vec<u32>,
    /// Component index (= position of the owning batch vertex) per node.
    pub component_of_node: Vec<u32>,
    /// Edges in subgraph numbering.
    pub sub_src: Vec<u32>,
    pub sub_dst: Vec<u32>,
    /// Original edge id of each subgraph edge.
    pub orig_edge_ids: Vec<u32>,
    /// Subgraph-numbering index of each batch vertex (one per component).
    pub batch_nodes: Vec<u32>,
}

impl SampledSubgraph {
    pub fn num_nodes(&self) -> usize {
        self.node_map.len()
    }

    pub fn num_edges(&self) -> usize {
        self.sub_src.len()
    }

    /// Number of disjoint components (= batch size).
    pub fn num_components(&self) -> usize {
        self.batch_nodes.len()
    }

    /// Append one per-batch-vertex component (Algorithm 2's
    /// `APPEND_COMPONENT`): `nodes` are original vertex ids (must contain
    /// `batch_vertex`), `edges` are `(local_src, local_dst, orig_edge_id)`
    /// in `nodes`-relative numbering.
    pub fn append_component(
        &mut self,
        batch_vertex: u32,
        nodes: &[u32],
        edges: impl Iterator<Item = (u32, u32, u32)>,
    ) {
        let offset = self.node_map.len() as u32;
        let comp = self.batch_nodes.len() as u32;
        let batch_pos = nodes
            .iter()
            .position(|&v| v == batch_vertex)
            .expect("batch vertex must be in its own component") as u32;
        self.node_map.extend_from_slice(nodes);
        self.component_of_node
            .extend(std::iter::repeat_n(comp, nodes.len()));
        for (s, d, id) in edges {
            self.sub_src.push(offset + s);
            self.sub_dst.push(offset + d);
            self.orig_edge_ids.push(id);
        }
        self.batch_nodes.push(offset + batch_pos);
    }

    /// Empty subgraph to append components into.
    pub fn empty() -> Self {
        Self {
            node_map: Vec::new(),
            component_of_node: Vec::new(),
            sub_src: Vec::new(),
            sub_dst: Vec::new(),
            orig_edge_ids: Vec::new(),
            batch_nodes: Vec::new(),
        }
    }

    /// Merge several per-vertex subgraphs into one (block-diagonal union).
    pub fn merge(parts: Vec<SampledSubgraph>) -> SampledSubgraph {
        let mut out = SampledSubgraph::empty();
        for p in parts {
            let node_off = out.node_map.len() as u32;
            let comp_off = out.batch_nodes.len() as u32;
            out.node_map.extend_from_slice(&p.node_map);
            out.component_of_node
                .extend(p.component_of_node.iter().map(|&c| c + comp_off));
            out.sub_src.extend(p.sub_src.iter().map(|&s| s + node_off));
            out.sub_dst.extend(p.sub_dst.iter().map(|&d| d + node_off));
            out.orig_edge_ids.extend_from_slice(&p.orig_edge_ids);
            out.batch_nodes
                .extend(p.batch_nodes.iter().map(|&b| b + node_off));
        }
        out
    }

    /// Structural sanity checks; panics with a message on violation.
    /// Used by tests, `trkx sample` and the `sampling_explorer` example.
    pub fn validate(&self, parent: &SamplerGraph) {
        let n = self.num_nodes() as u32;
        assert_eq!(self.component_of_node.len(), self.num_nodes());
        assert!(self.sub_src.iter().all(|&v| v < n), "src out of range");
        assert!(self.sub_dst.iter().all(|&v| v < n), "dst out of range");
        assert!(
            self.batch_nodes.iter().all(|&v| v < n),
            "batch node out of range"
        );
        // One component per batch vertex: component `c` holds batch
        // vertex `c`, and components are laid out contiguously in
        // ascending order.
        for (c, &b) in self.batch_nodes.iter().enumerate() {
            assert_eq!(
                self.component_of_node[b as usize], c as u32,
                "batch vertex {c} is not in component {c}"
            );
        }
        let k = self.num_components() as u32;
        assert!(
            self.component_of_node.iter().all(|&c| c < k)
                && self.component_of_node.windows(2).all(|w| w[0] <= w[1]),
            "component ids are not contiguous and ascending"
        );
        for ((&s, &d), &id) in self
            .sub_src
            .iter()
            .zip(&self.sub_dst)
            .zip(&self.orig_edge_ids)
        {
            // Edges never cross components.
            assert_eq!(
                self.component_of_node[s as usize], self.component_of_node[d as usize],
                "edge crosses components"
            );
            // Each edge maps to a parent edge with matching endpoints.
            let (os, od) = (self.node_map[s as usize], self.node_map[d as usize]);
            let found = parent.directed.get(os as usize, od).map(|eid| eid == id);
            assert_eq!(
                found,
                Some(true),
                "edge ({os},{od}) id {id} not in parent graph"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> SamplerGraph {
        // 0→1, 1→2, 2→3, 0→2
        SamplerGraph::new(4, &[0, 1, 2, 0], &[1, 2, 3, 2])
    }

    #[test]
    fn sampler_graph_has_both_orientations() {
        let g = graph();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.directed.get(0, 1), Some(0));
        assert_eq!(g.directed.get(1, 0), None);
        assert_eq!(g.undirected.get(1, 0), Some(0));
        assert_eq!(g.undirected.get(0, 1), Some(0));
        assert_eq!(g.undirected.get(2, 0), Some(3));
    }

    #[test]
    fn edge_endpoints_invert_the_csr_lookup() {
        let g = graph();
        let endpoints = g.edge_endpoints();
        assert_eq!(endpoints, vec![(0, 1), (1, 2), (2, 3), (0, 2)]);
        for (id, &(s, d)) in endpoints.iter().enumerate() {
            assert_eq!(g.directed.get(s as usize, d), Some(id as u32));
        }
    }

    #[test]
    fn append_component_offsets() {
        let g = graph();
        let mut sg = SampledSubgraph::empty();
        // Component for batch vertex 1 containing {0, 1, 2}.
        sg.append_component(
            1,
            &[0, 1, 2],
            vec![(0, 1, 0), (1, 2, 1), (0, 2, 3)].into_iter(),
        );
        // Component for batch vertex 3 containing {2, 3}.
        sg.append_component(3, &[2, 3], vec![(0, 1, 2)].into_iter());
        assert_eq!(sg.num_nodes(), 5);
        assert_eq!(sg.num_edges(), 4);
        assert_eq!(sg.num_components(), 2);
        assert_eq!(sg.batch_nodes, vec![1, 4]);
        assert_eq!(sg.component_of_node, vec![0, 0, 0, 1, 1]);
        sg.validate(&g);
    }

    #[test]
    fn merge_is_block_diagonal() {
        let g = graph();
        let mut a = SampledSubgraph::empty();
        a.append_component(0, &[0, 1], vec![(0, 1, 0)].into_iter());
        let mut b = SampledSubgraph::empty();
        b.append_component(2, &[2, 3], vec![(0, 1, 2)].into_iter());
        let m = SampledSubgraph::merge(vec![a, b]);
        assert_eq!(m.num_components(), 2);
        assert_eq!(m.sub_src, vec![0, 2]);
        assert_eq!(m.sub_dst, vec![1, 3]);
        m.validate(&g);
    }

    #[test]
    #[should_panic(expected = "edge crosses components")]
    fn validate_rejects_cross_component_edges() {
        let g = graph();
        let mut sg = SampledSubgraph::empty();
        sg.append_component(0, &[0], std::iter::empty());
        sg.append_component(1, &[1], std::iter::empty());
        sg.sub_src.push(0);
        sg.sub_dst.push(1);
        sg.orig_edge_ids.push(0);
        sg.validate(&g);
    }

    #[test]
    #[should_panic(expected = "not in parent graph")]
    fn validate_rejects_fabricated_edges() {
        let g = graph();
        let mut sg = SampledSubgraph::empty();
        // Claim an edge 1→0 which exists only in reverse.
        sg.append_component(0, &[1, 0], vec![(0, 1, 0)].into_iter());
        sg.validate(&g);
    }

    #[test]
    #[should_panic(expected = "batch vertex 0 is not in component 0")]
    fn validate_rejects_batch_vertices_out_of_component_order() {
        let g = graph();
        let mut sg = SampledSubgraph::empty();
        sg.append_component(0, &[0], std::iter::empty());
        sg.append_component(1, &[1], std::iter::empty());
        sg.batch_nodes.swap(0, 1);
        sg.validate(&g);
    }

    #[test]
    #[should_panic(expected = "not contiguous and ascending")]
    fn validate_rejects_interleaved_components() {
        let g = graph();
        let mut sg = SampledSubgraph::empty();
        sg.append_component(0, &[0, 2], std::iter::empty());
        sg.append_component(1, &[1], std::iter::empty());
        sg.component_of_node.swap(1, 2);
        sg.node_map.swap(1, 2);
        sg.batch_nodes[1] = 1;
        sg.validate(&g);
    }
}
