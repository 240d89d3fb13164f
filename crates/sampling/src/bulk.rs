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
//! walk and step (no generator construction), and per minibatch one
//! generation-stamped [`InducedExtractor`] and one node and edge buffer
//! reused for every walk's extraction. Nothing is allocated per walk.
//!
//! `F` is kept as one CSR per walk level over a shared vertex buffer:
//! level 0 holds the roots, level `l + 1` every walk's picks at step `l`,
//! in walk order, with `walks + 1` offsets marking each walk's slice.
//! Level `l` is also step `l`'s frontier `Q`, so a step samples each
//! walk's slice of one level straight into the next. A walk's touched
//! set is the union of its slices: an `n`-sized generation stamp keeps
//! each vertex the first time it is seen, and only those survivors are
//! sorted before extraction appends the walk's induced subgraph straight
//! into its minibatch. With more than one pool thread the minibatches
//! are extracted in parallel, one task per batch with its own scratch;
//! the walk steps run serially, walk by walk.
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
//! step therefore makes one [`trkx_sparse::RowStore::gather`] of its
//! frontier level and the extraction pass one gather of every level;
//! sampling then reads rows from the returned view in frontier
//! order, so each walk's PRNG stream is consumed exactly as a
//! row-at-a-time walk would consume it. Over a sharded graph this faults
//! each shard at most once per step (plus once for extraction) instead
//! of once per row that misses the LRU. A view lives for one step or one
//! extraction pass.
//! Reads go through the [`SamplerGraph`]'s fault slot: after a store
//! fault every row reads empty, so a faulted pass still returns one
//! (degenerate) subgraph per batch and the caller reads the slot.

use crate::shadow::ShadowConfig;
use crate::subgraph::{SampledSubgraph, SamplerGraph};
use rayon::prelude::*;
use trkx_sparse::{Csr, InducedExtractor};

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

/// The stacked touched-set matrix `F`, kept as one CSR per walk level:
/// level 0 holds the roots, level `l + 1` every walk's picks at step `l`,
/// in walk order. All levels share one vertex buffer, so the extraction
/// pass gathers it whole, and a level's slice is the next step's frontier.
struct Levels {
    /// Every level's vertices, level after level.
    verts: Vec<u32>,
    /// Per level, `walks + 1` offsets into `verts`: walk `w`'s slice of
    /// level `l` is `verts[offsets[l][w]..offsets[l][w + 1]]`.
    offsets: Vec<Vec<usize>>,
}

impl Levels {
    /// Walk `w`'s touched vertices, sorted and duplicate-free, into
    /// `scratch.nodes`: each vertex is kept the first time the stamp sees
    /// it, so only the survivors are sorted.
    fn walk_nodes(&self, w: usize, scratch: &mut Scratch) {
        scratch.generation = scratch.generation.wrapping_add(1);
        if scratch.generation == 0 {
            // Extremely rare wraparound: hard reset.
            scratch.seen.fill(0);
            scratch.generation = 1;
        }
        scratch.nodes.clear();
        for level in &self.offsets {
            for &v in &self.verts[level[w]..level[w + 1]] {
                let seen = &mut scratch.seen[v as usize];
                if *seen != scratch.generation {
                    *seen = scratch.generation;
                    scratch.nodes.push(v);
                }
            }
        }
        scratch.nodes.sort_unstable();
    }
}

/// Per-batch extraction state, reused across the batch's walks (and, on
/// the serial path, across batches).
struct Scratch {
    /// `seen[v] == generation` iff `v` is already in `nodes`.
    seen: Vec<u32>,
    generation: u32,
    nodes: Vec<u32>,
    edges: Vec<(u32, u32, u32)>,
    extractor: InducedExtractor,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Self {
            seen: vec![0; n],
            generation: 0,
            nodes: Vec::new(),
            edges: Vec::new(),
            extractor: InducedExtractor::new(n),
        }
    }
}

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
    /// `seed`; per-walk PRNG streams are derived from `(seed, step, walk)`
    /// so execution order (sequential or parallel) cannot change results.
    pub fn sample_batches(
        &self,
        graph: &SamplerGraph,
        batches: &[Vec<u32>],
        seed: u64,
    ) -> Vec<SampledSubgraph> {
        // Stack all batch vertices (Eq. 1): walk index = global row.
        let levels = self.walk(graph, batches.iter().flatten().copied().collect(), seed);

        // Bulk extraction: one induced subgraph per walk (the row/column
        // selection SpGEMM of Fig. 2), every row read from one view over
        // all levels, each walk's component appended straight into its
        // minibatch. Parallel across batches when hardware threads exist.
        let rows = graph.gather_directed(&levels.verts);
        let mut spans = Vec::with_capacity(batches.len());
        let mut start = 0;
        for batch in batches {
            spans.push(start..start + batch.len());
            start += batch.len();
        }
        let extract = |scratch: &mut Scratch, walks: std::ops::Range<usize>| {
            let mut sg = SampledSubgraph::empty();
            for w in walks {
                levels.walk_nodes(w, scratch);
                scratch.edges.clear();
                scratch
                    .extractor
                    .extract_into(&rows, &scratch.nodes, &mut scratch.edges);
                sg.append_component(
                    levels.verts[w],
                    &scratch.nodes,
                    scratch.edges.iter().copied(),
                );
            }
            sg
        };
        if rayon::current_num_threads() > 1 && batches.len() > 1 {
            spans
                .into_par_iter()
                .map_init(|| Scratch::new(graph.num_nodes), extract)
                .collect()
        } else {
            let mut scratch = Scratch::new(graph.num_nodes);
            spans
                .into_iter()
                .map(|s| extract(&mut scratch, s))
                .collect()
        }
    }

    /// The random walks: `depth` bulk steps over the stacked frontier,
    /// conceptually `Q^{l-1} ← sample_s(row_normalize(Q^l · A))`, each
    /// sampling one level of `F` straight into the next.
    fn walk(&self, graph: &SamplerGraph, roots: Vec<u32>, seed: u64) -> Levels {
        // Level 0: walk `w` starts at `roots[w]`.
        let walks = roots.len();
        let mut levels = Levels {
            offsets: vec![(0..=walks).collect()],
            verts: roots,
        };
        for step in 0..self.config.depth {
            let prev = levels.offsets.last().expect("level 0 exists");
            let (lo, hi) = (prev[0], prev[walks]);
            // Rows are read in frontier order, not shard order: reordering
            // would reorder each walk's draws.
            let rows = graph.gather_undirected(&levels.verts[lo..hi]);
            let mut next = Vec::with_capacity(walks + 1);
            next.push(hi);
            for w in 0..walks {
                // One PRNG stream per walk and step, shared by the rows of
                // the walk's frontier slice.
                let mut rng = RowRng::new(seed, step as u64, w as u64);
                for i in prev[w]..prev[w + 1] {
                    let (neighbors, _) = rows.row(levels.verts[i] as usize);
                    floyd_sample(neighbors, self.config.fanout, &mut rng, &mut levels.verts);
                }
                next.push(levels.verts.len());
            }
            let exhausted = next[walks] == hi;
            levels.offsets.push(next);
            if exhausted {
                break;
            }
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trkx_sparse::adjacency_binary;

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
        let rows = g.gather_undirected(&(0..n as u32).collect::<Vec<_>>());
        for r in 0..n {
            for &c in rows.row(r).0 {
                src.push(r as u32);
                dst.push(c);
            }
        }
        let a = adjacency_binary(n, &src, &dst);
        let frontier = vec![0u32, 3, 7, 7];
        let q = frontier_matrix(&frontier, n);
        let dist = neighborhood_distribution(&q, &a);
        for (i, &v) in frontier.iter().enumerate() {
            let want_cols = rows.row(v as usize).0;
            let (got_cols, got_vals) = dist.row(i);
            assert_eq!(got_cols, want_cols, "row {i}");
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
