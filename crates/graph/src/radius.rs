//! Fixed-radius graph construction — stage 2 of the Exa.TrkX pipeline
//! builds the candidate-edge graph by connecting hits that land near
//! each other in the learned embedding space.
//!
//! # Deterministic-order contract
//!
//! [`radius_graph`] returns edges in strictly ascending `(src, dst)`
//! order with `src < dst`, **bit-identical to the brute-force oracle
//! [`radius_graph_brute`] at every thread count**: the grid only routes
//! candidates to the exact distance predicate, and the engine's
//! two-pass count-then-fill build emits each point's neighbour run into
//! a precomputed offset range instead of sorting a globally collected
//! tuple list. Pinned by `tests/proptests.rs` (run under
//! `RAYON_NUM_THREADS` 1 and 4 in ci.sh).
//!
//! NaN coordinates never produce edges (a NaN distance fails every
//! radius predicate), so degenerate embeddings yield isolated points
//! rather than panics.

use crate::index::GraphIndex;

/// Build the fixed-radius nearest-neighbour graph: one directed edge
/// `(i, j)` per ordered pair `i != j` with `||p_i - p_j|| <= r`, `i < j`
/// (callers symmetrise if needed), in ascending `(src, dst)` order.
/// Parallel over query points; hold a [`GraphIndex`] directly to pool
/// buffers across events.
pub fn radius_graph(points: &[f32], dim: usize, r: f32) -> Vec<(u32, u32)> {
    let mut index = GraphIndex::default();
    index.rebuild(points, dim, r);
    let mut edges = Vec::new();
    index.radius_edges_into(r, &mut edges);
    edges
}

/// Brute-force O(n²) reference for [`radius_graph`].
pub fn radius_graph_brute(points: &[f32], dim: usize, r: f32) -> Vec<(u32, u32)> {
    let n = points.len() / dim;
    let r2 = r * r;
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let d2: f32 = (0..dim)
                .map(|k| {
                    let d = points[i * dim + k] - points[j * dim + k];
                    d * d
                })
                .sum();
            if d2 <= r2 {
                edges.push((i as u32, j as u32));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn radius_graph_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(3);
        for dim in [2usize, 6] {
            let points: Vec<f32> = (0..120 * dim)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect();
            let fast = radius_graph(&points, dim, 0.4);
            let brute = radius_graph_brute(&points, dim, 0.4);
            assert_eq!(fast, brute, "dim {dim}");
        }
    }

    #[test]
    fn radius_zero_only_duplicates() {
        let points = vec![0.0f32, 0.0, 1.0, 1.0, 0.0, 0.0];
        let edges = radius_graph(&points, 2, 0.0);
        assert_eq!(edges, vec![(0, 2)]);
    }

    #[test]
    fn clustered_points_form_cliques() {
        // Two tight clusters far apart: radius graph = two cliques.
        let mut points = Vec::new();
        for i in 0..4 {
            points.extend_from_slice(&[0.0 + i as f32 * 0.01, 0.0]);
        }
        for i in 0..3 {
            points.extend_from_slice(&[5.0 + i as f32 * 0.01, 5.0]);
        }
        let edges = radius_graph(&points, 2, 0.5);
        assert_eq!(edges.len(), 6 + 3); // C(4,2) + C(3,2)
        assert!(edges.iter().all(|&(a, b)| (a < 4) == (b < 4)));
    }
}
