//! Reusable induced-subgraph extractor with generation-stamped dense
//! scratch — the bulk-sampling fast path.
//!
//! [`crate::extract_induced_direct`] builds a fresh hash map per call,
//! which is fine for one-off extractions (and mirrors what a per-batch
//! sampler pays per call). Bulk sampling extracts `k x b` induced
//! subgraphs back-to-back over the *same* parent graph; this extractor
//! amortises that with two `n`-sized arrays reused across calls: a
//! position table and a generation stamp that invalidates the table in
//! O(1) between selections. This is the CPU analogue of batching many
//! small GPU kernels into one large one.
//!
//! Rows come from a [`RowView`]: the caller gathers every row its
//! selections will read in one [`crate::RowStore::gather`], then runs
//! any number of extractions against the view — from several threads at
//! once if it likes, since a view is read without a lock. Over a sharded
//! store that faults each shard once per pass instead of once per row
//! that misses the cache.

use crate::store::RowView;

/// Scratch state for repeated `A[sel, sel]` extractions over graphs with
/// up to `n` vertices.
#[derive(Debug, Clone)]
pub struct InducedExtractor {
    /// Position of each original vertex in the current selection.
    pos: Vec<u32>,
    /// Generation stamp guarding `pos` entries.
    stamp: Vec<u32>,
    generation: u32,
}

impl InducedExtractor {
    /// Scratch for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            pos: vec![0; n],
            stamp: vec![0; n],
            generation: 0,
        }
    }

    /// Extract `a[sel, sel]` (vertices renumbered to `0..sel.len()`),
    /// streaming the edges `(local_src, local_dst, value)` into `out`.
    /// `sel` must be duplicate-free, and every vertex of it must have
    /// been gathered into `a`. Returns the number of edges.
    pub fn extract_into(
        &mut self,
        a: &RowView<'_, u32>,
        sel: &[u32],
        out: &mut Vec<(u32, u32, u32)>,
    ) -> usize {
        // O(1) reset: bump the generation.
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Extremely rare wraparound: hard reset.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.generation = 1;
        }
        for (i, &v) in sel.iter().enumerate() {
            debug_assert_ne!(
                self.stamp[v as usize], self.generation,
                "duplicate vertex {v} in selection"
            );
            self.pos[v as usize] = i as u32;
            self.stamp[v as usize] = self.generation;
        }
        let before = out.len();
        for (i, &v) in sel.iter().enumerate() {
            let (cols, vals) = a.row(v as usize);
            for (&c, &val) in cols.iter().zip(vals) {
                if self.stamp[c as usize] == self.generation {
                    out.push((i as u32, self.pos[c as usize], val));
                }
            }
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{adjacency_with_edge_ids, Csr};
    use crate::spgemm::extract_induced_direct;

    fn sample_graph() -> Csr<u32> {
        adjacency_with_edge_ids(6, &[0, 0, 1, 2, 3, 4, 5, 5], &[1, 2, 3, 4, 5, 0, 1, 2])
    }

    #[test]
    fn matches_hashmap_extractor() {
        let a = sample_graph();
        let view = RowView::from(&a);
        let mut ex = InducedExtractor::new(6);
        for sel in [
            vec![0u32, 1, 2],
            vec![3u32, 4, 5],
            vec![0u32, 5],
            vec![2u32],
        ] {
            let mut edges = Vec::new();
            ex.extract_into(&view, &sel, &mut edges);
            let reference = extract_induced_direct(&view, &sel);
            let mut want = Vec::new();
            for r in 0..reference.nrows() {
                let (cols, ids) = reference.row(r);
                for (&c, &id) in cols.iter().zip(ids) {
                    want.push((r as u32, c, id));
                }
            }
            edges.sort_unstable();
            want.sort_unstable();
            assert_eq!(edges, want, "selection {sel:?}");
        }
    }

    #[test]
    fn reuse_across_many_calls_is_clean() {
        let a = sample_graph();
        let view = RowView::from(&a);
        let mut ex = InducedExtractor::new(6);
        let mut edges = Vec::new();
        // Overlapping selections must not leak state between calls.
        for _ in 0..1000 {
            edges.clear();
            let n1 = ex.extract_into(&view, &[0, 1], &mut edges);
            let n2 = ex.extract_into(&view, &[1, 3], &mut edges);
            assert_eq!(n1, 1); // edge 0->1
            assert_eq!(n2, 1); // edge 1->3
            assert_eq!(edges, vec![(0, 1, 0), (0, 1, 2)]);
        }
    }

    #[test]
    fn empty_selection() {
        let a = sample_graph();
        let view = RowView::from(&a);
        let mut ex = InducedExtractor::new(6);
        let mut edges = Vec::new();
        assert_eq!(ex.extract_into(&view, &[], &mut edges), 0);
        assert!(edges.is_empty());
    }
}
