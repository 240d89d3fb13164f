//! Matrix-based *bulk* ShaDow sampling (paper §III-C, Figure 2, Eq. 1).
//!
//! The baseline samples each minibatch with a sequential per-vertex loop,
//! paying per-batch setup (RNG streams, per-subgraph hash maps) every
//! time. Matrix-based sampling reformulates one walk step as
//! `Q^{l-1} ← Q^l A` with a frontier matrix `Q` (one nonzero per row),
//! row-normalises the product into a uniform distribution, samples `s`
//! entries per row, and tracks touched vertices per batch vertex in a
//! stacked `F` matrix. To sample *k minibatches in bulk*, the per-batch
//! `Q`/`F` matrices are vertically stacked (Eq. 1) so one pass processes
//! every batch at once. On a GPU this turns many small kernels into one
//! large one; the CPU analogue implemented here amortises all per-call
//! state across the stacked work — one splitmix-seeded inline PRNG per
//! row (no generator construction), one generation-stamped
//! [`InducedExtractor`] reused for every induced-subgraph extraction, and
//! Rayon parallelism across the stacked rows when hardware threads exist.
//!
//! Because each `Q` row has exactly one nonzero, the nonzero pattern of
//! row `i` of `Q·A` *is* the neighbour list of the frontier vertex in row
//! `i`; the implementation exploits this to skip materialising the
//! product while remaining step-for-step equivalent to the matrix
//! formulation ([`frontier_matrix`]/[`neighborhood_distribution`] provide
//! the explicit form, and tests assert the equivalence).
//!
//! The stacked form also means every row a step reads is known before
//! any is read: the step's frontier *is* the row selection. Each walk
//! step therefore makes one [`RowStore::gather`] of its frontier and
//! the extraction pass one gather of every walk's touched set; sampling
//! then reads rows from the returned view in frontier order, so each
//! walk's PRNG stream is consumed exactly as a row-at-a-time walk would
//! consume it. Over a sharded graph this faults each shard at most once
//! per step (plus once for extraction) instead of once per row that
//! misses the LRU. A view lives for one step or one extraction pass.

use crate::shadow::ShadowConfig;
use crate::subgraph::{SampledSubgraph, SamplerGraph};
use rayon::prelude::*;
use trkx_sparse::{Csr, InducedExtractor, RowStore, RowView};

/// Build the explicit frontier matrix `Q` (`rows x n`, one `1.0` per row
/// at each frontier vertex's column) — the paper's representation of a
/// walk frontier.
pub fn frontier_matrix(frontier: &[u32], n: usize) -> Csr<f32> {
    trkx_sparse::selection_matrix(frontier, n)
}

/// One explicit matrix sampling step: `(Q·A)` row-normalised into the
/// per-row uniform neighbour distribution (paper Fig. 2, step 1).
pub fn neighborhood_distribution(q: &Csr<f32>, a: &Csr<f32>) -> Csr<f32> {
    q.spgemm(a).row_normalize()
}

/// splitmix64 — cheap per-row stream derivation.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// xorshift64* inline PRNG: no allocation, no buffer, deterministic from
/// its seed. Quality is ample for neighbour selection.
#[derive(Clone, Copy)]
struct RowRng(u64);

impl RowRng {
    #[inline]
    fn new(seed: u64, step: u64, row: u64) -> Self {
        // Decorrelate the three coordinates, avoid the all-zero state.
        let s = splitmix64(seed ^ splitmix64(step ^ splitmix64(row)));
        Self(s | 1)
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform draw in `0..bound` (bound > 0).
    #[inline]
    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Sample up to `fanout` distinct entries of `neighbors` into `out` using
/// Floyd's algorithm (O(fanout²) distinctness scans; fanout is small).
#[inline]
fn floyd_sample(neighbors: &[u32], fanout: usize, rng: &mut RowRng, out: &mut Vec<u32>) {
    let deg = neighbors.len();
    if deg <= fanout {
        out.extend_from_slice(neighbors);
        return;
    }
    let start = out.len();
    for j in (deg - fanout)..deg {
        let t = rng.below(j + 1);
        let candidate = neighbors[t];
        if out[start..].contains(&candidate) {
            out.push(neighbors[j]);
        } else {
            out.push(candidate);
        }
    }
}

/// [`RowStore::gather`] for a sampler that cannot report failure yet: a
/// shard that fails to load ends the process, as a failed point lookup
/// through `with_row` does.
fn gather<'a>(store: &'a dyn RowStore<u32>, rows: &[u32]) -> RowView<'a, u32> {
    store
        .gather(rows)
        .unwrap_or_else(|e| panic!("shard fault failed: {e}"))
}

/// One extracted walk component: sorted touched vertices plus local
/// `(src, dst, orig_edge_id)` edges.
type WalkComponent = (Vec<u32>, Vec<(u32, u32, u32)>);

/// Bulk ShaDow sampler: samples `k` minibatches in one stacked pass.
#[derive(Debug, Clone)]
pub struct BulkShadowSampler {
    pub config: ShadowConfig,
}

impl BulkShadowSampler {
    pub fn new(config: ShadowConfig) -> Self {
        Self { config }
    }

    /// Sample `batches.len()` minibatches in bulk. Deterministic in
    /// `seed`; per-row PRNG streams are derived from `(seed, step, walk)`
    /// so execution order (sequential or parallel) cannot change results.
    pub fn sample_batches(
        &self,
        graph: &SamplerGraph,
        batches: &[Vec<u32>],
        seed: u64,
    ) -> Vec<SampledSubgraph> {
        // Stack all batch vertices (Eq. 1): walk index = global row.
        let flat_batch: Vec<u32> = batches.iter().flatten().copied().collect();
        let total = flat_batch.len();
        // F: touched set per walk (batch vertex included from the start).
        let mut touched: Vec<Vec<u32>> = flat_batch.iter().map(|&v| vec![v]).collect();
        // Q^d: (owner walk, frontier vertex) rows.
        let mut frontier_owner: Vec<u32> = (0..total as u32).collect();
        let mut frontier_vertex: Vec<u32> = flat_batch.clone();

        for step in 0..self.config.depth {
            // Bulk step over the whole stacked frontier: conceptually
            // Q^{l-1} ← sample_s(row_normalize(Q^l · A)). One pass, one
            // PRNG stream per walk.
            let mut next_owner = Vec::with_capacity(frontier_owner.len() * self.config.fanout);
            let mut next_vertex = Vec::with_capacity(frontier_owner.len() * self.config.fanout);
            let mut picks: Vec<u32> = Vec::with_capacity(self.config.fanout);
            // Per-walk RNGs persist across the rows of one step so that
            // two rows of the same walk draw from one stream.
            let mut rngs: Vec<RowRng> = (0..total)
                .map(|w| RowRng::new(seed, step as u64, w as u64))
                .collect();
            // Rows are read in frontier order, not shard order: reordering
            // would reorder each walk's draws.
            let rows = gather(&*graph.undirected, &frontier_vertex);
            for (&owner, &vertex) in frontier_owner.iter().zip(&frontier_vertex) {
                let (neighbors, _) = rows.row(vertex as usize);
                if neighbors.is_empty() {
                    continue;
                }
                picks.clear();
                floyd_sample(
                    neighbors,
                    self.config.fanout,
                    &mut rngs[owner as usize],
                    &mut picks,
                );
                touched[owner as usize].extend_from_slice(&picks);
                for &v in &picks {
                    next_owner.push(owner);
                    next_vertex.push(v);
                }
            }
            frontier_owner = next_owner;
            frontier_vertex = next_vertex;
            if frontier_owner.is_empty() {
                break;
            }
        }

        // Bulk extraction: one induced subgraph per walk (the row/column
        // selection SpGEMM of Fig. 2), with the generation-stamped
        // extractor amortised across all k·b extractions, every row read
        // from one view over the union of the touched sets. Parallel
        // across walks when hardware threads exist.
        let rows = gather(&*graph.directed, &touched.concat());
        let components: Vec<WalkComponent> = if rayon::current_num_threads() > 1 && total > 8 {
            touched
                .into_par_iter()
                .map_init(
                    || InducedExtractor::new(graph.num_nodes),
                    |extractor, mut nodes| {
                        nodes.sort_unstable();
                        nodes.dedup();
                        let mut edges = Vec::new();
                        extractor.extract_into(&rows, &nodes, &mut edges);
                        (nodes, edges)
                    },
                )
                .collect()
        } else {
            let mut extractor = InducedExtractor::new(graph.num_nodes);
            touched
                .into_iter()
                .map(|mut nodes| {
                    nodes.sort_unstable();
                    nodes.dedup();
                    let mut edges = Vec::new();
                    extractor.extract_into(&rows, &nodes, &mut edges);
                    (nodes, edges)
                })
                .collect()
        };

        // Release the view's shards before the output is assembled.
        drop(rows);

        // Reassemble per minibatch, preserving batch order.
        let mut out = Vec::with_capacity(batches.len());
        let mut cursor = 0usize;
        for batch in batches {
            let mut sg = SampledSubgraph::empty();
            for &b in batch {
                let (nodes, edges) = &components[cursor];
                cursor += 1;
                sg.append_component(b, nodes, edges.iter().copied());
            }
            out.push(sg);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trkx_sparse::{adjacency_binary, RowStoreExt};

    fn ladder_graph(n: usize) -> SamplerGraph {
        // Two rails 0..n and n..2n with rungs: rich connectivity.
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for i in 0..n as u32 - 1 {
            src.push(i);
            dst.push(i + 1);
            src.push(n as u32 + i);
            dst.push(n as u32 + i + 1);
        }
        for i in 0..n as u32 {
            src.push(i);
            dst.push(n as u32 + i);
        }
        SamplerGraph::new(2 * n, &src, &dst)
    }

    #[test]
    fn bulk_sampling_structure_is_valid() {
        let g = ladder_graph(12);
        let sampler = BulkShadowSampler::new(ShadowConfig {
            depth: 2,
            fanout: 3,
        });
        let batches = vec![vec![0u32, 5, 11], vec![12u32, 20], vec![3u32]];
        let subs = sampler.sample_batches(&g, &batches, 99);
        assert_eq!(subs.len(), 3);
        for (sub, batch) in subs.iter().zip(&batches) {
            assert_eq!(sub.num_components(), batch.len());
            sub.validate(&g);
            for (i, &bn) in sub.batch_nodes.iter().enumerate() {
                assert_eq!(sub.node_map[bn as usize], batch[i]);
            }
        }
    }

    #[test]
    fn bulk_is_deterministic_in_seed() {
        let g = ladder_graph(10);
        // Fanout 1 on a degree-3 graph forces a random choice per step.
        let sampler = BulkShadowSampler::new(ShadowConfig {
            depth: 3,
            fanout: 1,
        });
        let batches = vec![vec![0u32, 7], vec![15u32, 3]];
        let a = sampler.sample_batches(&g, &batches, 5);
        let b = sampler.sample_batches(&g, &batches, 5);
        assert_eq!(a, b);
        // Some nearby seed must differ (randomness actually used).
        let differs = (6u64..16).any(|s| sampler.sample_batches(&g, &batches, s) != a);
        assert!(differs);
    }

    #[test]
    fn floyd_sample_is_distinct_and_uniformish() {
        let neighbors: Vec<u32> = (0..20).collect();
        let mut counts = [0usize; 20];
        for trial in 0..3000 {
            let mut rng = RowRng::new(42, 0, trial);
            let mut out = Vec::new();
            floyd_sample(&neighbors, 5, &mut rng, &mut out);
            assert_eq!(out.len(), 5);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "duplicates in {out:?}");
            for v in out {
                counts[v as usize] += 1;
            }
        }
        // Each element expected 3000*5/20 = 750 times; allow wide slack.
        for (i, &c) in counts.iter().enumerate() {
            assert!((450..1050).contains(&c), "element {i} drawn {c} times");
        }
    }

    #[test]
    fn floyd_sample_small_degree_takes_all() {
        let mut rng = RowRng::new(1, 2, 3);
        let mut out = Vec::new();
        floyd_sample(&[7, 8], 5, &mut rng, &mut out);
        assert_eq!(out, vec![7, 8]);
    }

    #[test]
    fn matrix_form_matches_direct_neighbor_lookup() {
        // The explicit Q·A formulation and the row-lookup shortcut must
        // expose identical neighbour distributions.
        let g = ladder_graph(6);
        let n = g.num_nodes;
        // Binary adjacency matching the undirected walk graph.
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for r in 0..n {
            g.undirected.row_scope(r, |cols, _| {
                for &c in cols {
                    src.push(r as u32);
                    dst.push(c);
                }
            });
        }
        let a = adjacency_binary(n, &src, &dst);
        let frontier = vec![0u32, 3, 7, 7];
        let q = frontier_matrix(&frontier, n);
        let dist = neighborhood_distribution(&q, &a);
        for (i, &v) in frontier.iter().enumerate() {
            let want_cols = g.undirected.row_scope(v as usize, |c, _| c.to_vec());
            let (got_cols, got_vals) = dist.row(i);
            assert_eq!(got_cols, &want_cols[..], "row {i}");
            let deg = want_cols.len() as f32;
            for &p in got_vals {
                assert!((p - 1.0 / deg).abs() < 1e-6, "non-uniform prob {p}");
            }
        }
    }

    #[test]
    fn bulk_and_baseline_agree_statistically() {
        // Same config, many seeds: mean subgraph sizes must be close
        // (same distribution, different RNG streams).
        use crate::shadow::ShadowSampler;
        use rand::SeedableRng;
        let g = ladder_graph(16);
        let cfg = ShadowConfig {
            depth: 2,
            fanout: 2,
        };
        let batch: Vec<u32> = (0..8u32).collect();
        let mut base_nodes = 0usize;
        let mut bulk_nodes = 0usize;
        for seed in 0..30u64 {
            let base = ShadowSampler::new(cfg).sample_batch(
                &g,
                &batch,
                &mut rand::rngs::StdRng::seed_from_u64(seed),
            );
            let bulk = BulkShadowSampler::new(cfg)
                .sample_batches(&g, std::slice::from_ref(&batch), seed)
                .remove(0);
            base_nodes += base.num_nodes();
            bulk_nodes += bulk.num_nodes();
        }
        let ratio = base_nodes as f64 / bulk_nodes as f64;
        assert!((0.9..1.1).contains(&ratio), "node-count ratio {ratio}");
    }

    #[test]
    fn stacked_batches_match_individual_sampling() {
        // Bulk sampling k batches together must equal sampling each batch
        // alone with the same global row indexing — stacking must not
        // change which subgraph a batch receives beyond RNG stream
        // assignment. We verify per-batch component counts and validity.
        let g = ladder_graph(10);
        let sampler = BulkShadowSampler::new(ShadowConfig {
            depth: 3,
            fanout: 2,
        });
        let batches = vec![vec![1u32, 2], vec![3u32, 4], vec![5u32]];
        let stacked = sampler.sample_batches(&g, &batches, 42);
        assert_eq!(stacked.len(), 3);
        let total: usize = stacked.iter().map(|s| s.num_components()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn isolated_batch_vertex_is_singleton() {
        let g = SamplerGraph::new(4, &[0], &[1]);
        let sampler = BulkShadowSampler::new(ShadowConfig::default());
        let subs = sampler.sample_batches(&g, &[vec![3u32]], 1);
        assert_eq!(subs[0].num_nodes(), 1);
        assert_eq!(subs[0].num_edges(), 0);
    }
}
