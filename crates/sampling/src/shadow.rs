//! Baseline ShaDow sampler — a faithful implementation of the paper's
//! Algorithm 2, mirroring how PyG's `ShaDowKHopSampler` processes one
//! batch at a time with a sequential per-vertex loop:
//!
//! ```text
//! procedure SHADOW(A, b):
//!   A_S ← ∅
//!   for b ∈ batch:
//!     f ← [b]; s ← []
//!     for i = 0..d:
//!       f' ← s distinct neighbours of each vertex in f
//!       s ← s + f'; f ← f'
//!     A'_S ← SUBGRAPH(A, s)
//!     A_S ← APPEND_COMPONENT(A_S, A'_S)
//!   return A_S
//! ```

use crate::subgraph::{SampledSubgraph, SamplerGraph};
use rand::seq::SliceRandom;
use rand::Rng;
use trkx_sparse::extract_induced_direct;

/// ShaDow hyperparameters: random-walk `depth` (`d`) and per-vertex
/// `fanout` (`s`). The paper trains with `d = 3`, `s = 6`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShadowConfig {
    pub depth: usize,
    pub fanout: usize,
}

impl Default for ShadowConfig {
    fn default() -> Self {
        Self {
            depth: 3,
            fanout: 6,
        }
    }
}

/// Sample up to `fanout` *distinct* entries of one vertex's `neighbors`
/// row (all of them when the degree is at most `fanout`) — partial
/// Fisher–Yates, O(fanout).
pub fn sample_distinct_neighbors(neighbors: &[u32], fanout: usize, rng: &mut impl Rng) -> Vec<u32> {
    let mut pool = neighbors.to_vec();
    if pool.len() <= fanout {
        return pool;
    }
    let (sampled, _) = pool.partial_shuffle(rng, fanout);
    sampled.to_vec()
}

/// Collect the vertex set touched by one batch vertex's random walk:
/// the batch vertex itself plus every frontier level, deduplicated and
/// sorted (sorted order = stable local numbering for extraction). Each
/// level gathers its frontier once and then samples the rows in frontier
/// order, so the RNG draws are the row-at-a-time walk's, call for call.
pub fn walk_touched_set(
    graph: &SamplerGraph,
    batch_vertex: u32,
    config: ShadowConfig,
    rng: &mut impl Rng,
) -> Vec<u32> {
    let mut touched: Vec<u32> = vec![batch_vertex];
    let mut frontier = vec![batch_vertex];
    for _ in 0..config.depth {
        let mut next = Vec::with_capacity(frontier.len() * config.fanout);
        let rows = graph.gather_undirected(&frontier);
        for &v in &frontier {
            let (neighbors, _) = rows.row(v as usize);
            next.extend(sample_distinct_neighbors(neighbors, config.fanout, rng));
        }
        touched.extend_from_slice(&next);
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    touched.sort_unstable();
    touched.dedup();
    touched
}

/// The per-batch sequential ShaDow sampler (the PyG-style baseline of
/// Figure 3).
#[derive(Debug, Clone)]
pub struct ShadowSampler {
    pub config: ShadowConfig,
}

impl ShadowSampler {
    pub fn new(config: ShadowConfig) -> Self {
        Self { config }
    }

    /// Sample one minibatch: one induced-subgraph component per batch
    /// vertex, appended in order (Algorithm 2).
    pub fn sample_batch(
        &self,
        graph: &SamplerGraph,
        batch: &[u32],
        rng: &mut impl Rng,
    ) -> SampledSubgraph {
        let mut out = SampledSubgraph::empty();
        for &b in batch {
            let nodes = walk_touched_set(graph, b, self.config, rng);
            let sub = extract_induced_direct(&graph.gather_directed(&nodes), &nodes);
            let edges = (0..sub.nrows()).flat_map(|r| {
                let (cols, ids) = sub.row(r);
                cols.iter()
                    .zip(ids)
                    .map(move |(&c, &id)| (r as u32, c, id))
                    .collect::<Vec<_>>()
            });
            out.append_component(b, &nodes, edges);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// A path graph 0-1-2-...-9 plus a hub vertex 10 connected to all.
    fn test_graph() -> SamplerGraph {
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for i in 0..9u32 {
            src.push(i);
            dst.push(i + 1);
        }
        for i in 0..10u32 {
            src.push(10);
            dst.push(i);
        }
        SamplerGraph::new(11, &src, &dst)
    }

    #[test]
    fn distinct_neighbors_bounded_by_fanout() {
        let g = test_graph();
        let rows = g.gather_undirected(&[0, 10]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let s = sample_distinct_neighbors(rows.row(10).0, 4, &mut rng);
            assert_eq!(s.len(), 4);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), 4, "duplicates in {s:?}");
        }
        // Low-degree vertex returns all neighbours.
        let s = sample_distinct_neighbors(rows.row(0).0, 4, &mut rng);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 10]);
    }

    #[test]
    fn touched_set_contains_batch_vertex_and_respects_depth() {
        let g = test_graph();
        let mut rng = StdRng::seed_from_u64(2);
        // depth 1 from vertex 0: only 0 and its direct neighbours.
        let t = walk_touched_set(
            &g,
            0,
            ShadowConfig {
                depth: 1,
                fanout: 10,
            },
            &mut rng,
        );
        assert_eq!(t, vec![0, 1, 10]);
        // depth 2 fans out further.
        let t2 = walk_touched_set(
            &g,
            0,
            ShadowConfig {
                depth: 2,
                fanout: 10,
            },
            &mut rng,
        );
        assert!(t2.len() > t.len());
        assert!(t2.contains(&0));
    }

    #[test]
    fn batch_yields_one_component_per_vertex() {
        let g = test_graph();
        let sampler = ShadowSampler::new(ShadowConfig {
            depth: 2,
            fanout: 3,
        });
        let mut rng = StdRng::seed_from_u64(3);
        let batch = [0u32, 5, 9];
        let sg = sampler.sample_batch(&g, &batch, &mut rng);
        assert_eq!(sg.num_components(), 3);
        sg.validate(&g);
        // Batch vertices map back to themselves.
        for (i, &bn) in sg.batch_nodes.iter().enumerate() {
            assert_eq!(sg.node_map[bn as usize], batch[i]);
        }
    }

    #[test]
    fn isolated_vertex_yields_singleton_component() {
        let g = SamplerGraph::new(3, &[0], &[1]);
        let sampler = ShadowSampler::new(ShadowConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let sg = sampler.sample_batch(&g, &[2], &mut rng);
        assert_eq!(sg.num_nodes(), 1);
        assert_eq!(sg.num_edges(), 0);
        assert_eq!(sg.node_map, vec![2]);
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let g = test_graph();
        let sampler = ShadowSampler::new(ShadowConfig::default());
        let a = sampler.sample_batch(&g, &[0, 10], &mut StdRng::seed_from_u64(7));
        let b = sampler.sample_batch(&g, &[0, 10], &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn higher_fanout_touches_no_fewer_vertices() {
        let g = test_graph();
        let mut small_total = 0;
        let mut large_total = 0;
        for seed in 0..10 {
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            small_total += walk_touched_set(
                &g,
                10,
                ShadowConfig {
                    depth: 2,
                    fanout: 2,
                },
                &mut r1,
            )
            .len();
            large_total += walk_touched_set(
                &g,
                10,
                ShadowConfig {
                    depth: 2,
                    fanout: 8,
                },
                &mut r2,
            )
            .len();
        }
        assert!(large_total > small_total);
    }
}
