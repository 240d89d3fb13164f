//! Batch sources: the data layer between the samplers and the train
//! loop.
//!
//! The paper's Fig. 3 splits epoch time into *sampling* + *train*, paid
//! back to back: a trainer pulls [`SampledBatch`]es from a
//! [`BatchSource`] on its own thread and never calls a sampler directly,
//! and the source counts the seconds its sampling took:
//!
//! * [`SampledBatchSource`] — samples chunk by chunk on the calling
//!   thread;
//! * [`FullGraphSource`] — yields each prepared event graph as one batch
//!   (the full-graph trainer's "schedule");
//! * [`ShardChunks`] — DDP sharding as a *decorator* over the chunk
//!   stream: each rank keeps its [`shard_batch`] slice of every global
//!   batch and folds its rank id into the sampling seed;
//! * [`RoundRobin`] — several ranks' streams interleaved in lockstep, for
//!   a thread that runs more than one rank (the DDP simulator).
//!
//! Determinism: a chunk's subgraphs depend only on `(graph, batches,
//! seed)` — never on which thread ran the sampling — so threaded and
//! simulated ranks see bit-identical batches, in the same order. The
//! golden-curve tests pin this.

use crate::gnn_stage::PreparedGraph;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;
use trkx_sampling::{shard_batch, SampledSubgraph, Sampler};
use trkx_tensor::{EdgePlans, Matrix};

/// How a trainer obtains its batches. Every trainer samples inline, on
/// its own thread, and then trains (there is no background `Prefetch`
/// loader), so `Sync` is the one variant; the type stays as an adapter
/// because the frozen benchmark passes `BatchingMode::Sync` to
/// [`crate::train_minibatch_opts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchingMode {
    /// Sample inline on the training thread.
    Sync,
}

/// One unit of sampling work: `batches` over graph `graph`, sampled in a
/// single (possibly bulk-stacked) call seeded with `seed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleChunk {
    pub graph: usize,
    pub batches: Vec<Vec<u32>>,
    pub seed: u64,
}

/// Group a per-epoch `(graph, global batch)` schedule into chunks of up
/// to `chunk_size` consecutive same-graph batches. The chunk starting at
/// schedule index `i` is seeded `base_seed ^ epoch << 48 ^ i << 16`,
/// preserving the pre-refactor trainers' per-chunk seed expression so
/// sync-mode curves stay bit-identical (DDP ranks later fold their rank
/// id in via [`ShardChunks`]).
pub fn plan_chunks(
    schedule: &[(usize, Vec<u32>)],
    chunk_size: usize,
    base_seed: u64,
    epoch: usize,
) -> Vec<SampleChunk> {
    let chunk_size = chunk_size.max(1);
    let mut chunks = Vec::new();
    let mut i = 0usize;
    while i < schedule.len() {
        let gi = schedule[i].0;
        let mut j = i;
        while j < schedule.len() && schedule[j].0 == gi && j - i < chunk_size {
            j += 1;
        }
        chunks.push(SampleChunk {
            graph: gi,
            batches: schedule[i..j].iter().map(|(_, b)| b.clone()).collect(),
            seed: base_seed ^ (epoch as u64) << 48 ^ (i as u64) << 16,
        });
        i = j;
    }
    chunks
}

/// DDP sharding as a decorator over a chunk stream: rank `rank` of `p`
/// replaces every global batch with its deterministic [`shard_batch`]
/// slice and folds its rank into the sampling seed (`seed ^ rank`), which
/// reproduces the pre-refactor per-rank RNG streams. Rank 0 of `p = 1` is
/// the identity.
pub struct ShardChunks<I> {
    inner: I,
    rank: usize,
    p: usize,
}

impl<I: Iterator<Item = SampleChunk>> ShardChunks<I> {
    pub fn new(inner: I, rank: usize, p: usize) -> Self {
        assert!(rank < p, "rank {rank} out of range for {p} workers");
        Self { inner, rank, p }
    }
}

impl<I: Iterator<Item = SampleChunk>> Iterator for ShardChunks<I> {
    type Item = SampleChunk;

    fn next(&mut self) -> Option<SampleChunk> {
        self.inner.next().map(|c| SampleChunk {
            graph: c.graph,
            batches: c
                .batches
                .iter()
                .map(|b| shard_batch(b, self.p)[self.rank].clone())
                .collect(),
            seed: c.seed ^ self.rank as u64,
        })
    }
}

/// One training-ready batch: the sampled subgraph (if any) plus the
/// gathered feature/label views from the parent graph. Everything the
/// forward pass needs, with no references back into the sampler.
pub struct SampledBatch {
    /// Index of the parent graph in the trainer's `train` slice.
    pub graph: usize,
    /// `None` for full-graph batches (the "subgraph" is the whole graph).
    pub subgraph: Option<SampledSubgraph>,
    pub x: Matrix,
    pub y: Matrix,
    pub labels: Vec<f32>,
    pub src: Arc<Vec<u32>>,
    pub dst: Arc<Vec<u32>>,
    /// Precomputed edge plans for this batch's `src`/`dst`, built with
    /// the batch (counted as sampling time).
    pub plans: Arc<EdgePlans>,
}

/// A pull-based stream of training batches. `next_batch` returning `None`
/// ends the epoch.
pub trait BatchSource {
    fn next_batch(&mut self) -> Option<SampledBatch>;

    /// Seconds of sampling/materialisation work performed so far (the
    /// Fig. 3 "sampling time" bar).
    fn sample_busy_s(&self) -> f64;
}

/// Synchronous sampling source: pulls chunks from the plan, samples each
/// with one `sample_bulk` call on the *calling* thread, and hands out the
/// resulting batches one at a time. A chunk whose graph has recorded a
/// store fault ([`trkx_sampling::SamplerGraph::fault`]) yields empty
/// batches.
pub struct SampledBatchSource<'a, I> {
    graphs: &'a [PreparedGraph],
    sampler: &'a dyn Sampler,
    chunks: I,
    ready: VecDeque<SampledBatch>,
    busy_s: f64,
}

impl<'a, I: Iterator<Item = SampleChunk>> SampledBatchSource<'a, I> {
    pub fn new(graphs: &'a [PreparedGraph], sampler: &'a dyn Sampler, chunks: I) -> Self {
        Self {
            graphs,
            sampler,
            chunks,
            ready: VecDeque::new(),
            busy_s: 0.0,
        }
    }
}

impl<I: Iterator<Item = SampleChunk>> BatchSource for SampledBatchSource<'_, I> {
    fn next_batch(&mut self) -> Option<SampledBatch> {
        while self.ready.is_empty() {
            let chunk = self.chunks.next()?;
            let t = Instant::now();
            let g = &self.graphs[chunk.graph];
            let mut subgraphs = self
                .sampler
                .sample_bulk(&g.sampler, &chunk.batches, chunk.seed);
            // A chunk sampled on or after a store fault is poisoned: its
            // batches go out empty (no labels, so no loss), but they go
            // out, one per schedule entry, so every DDP rank makes the
            // same collective calls and the trainer reads the fault at
            // the epoch's end.
            if g.sampler.fault().is_some() {
                subgraphs.fill(SampledSubgraph::empty());
            }
            let batches = subgraphs.into_iter().map(|sg| {
                let (x, y, labels) = g.subgraph_matrices(&sg);
                let src = Arc::new(sg.sub_src.clone());
                let dst = Arc::new(sg.sub_dst.clone());
                let plans = Arc::new(EdgePlans::new(src.clone(), dst.clone(), x.rows()));
                SampledBatch {
                    graph: chunk.graph,
                    x,
                    y,
                    labels,
                    src,
                    dst,
                    plans,
                    subgraph: Some(sg),
                }
            });
            self.ready.extend(batches);
            self.busy_s += t.elapsed().as_secs_f64();
        }
        self.ready.pop_front()
    }

    fn sample_busy_s(&self) -> f64 {
        self.busy_s
    }
}

/// Full-graph "source": each usable prepared graph is one batch. The
/// feature matrices are copied out of the parent (a per-epoch cost that
/// is negligible next to a full-graph forward pass); edge index arrays
/// are shared `Arc`s.
pub struct FullGraphSource<'a> {
    items: Vec<(usize, &'a PreparedGraph)>,
    next: usize,
    busy_s: f64,
}

impl<'a> FullGraphSource<'a> {
    pub fn new(items: Vec<(usize, &'a PreparedGraph)>) -> Self {
        Self {
            items,
            next: 0,
            busy_s: 0.0,
        }
    }
}

impl BatchSource for FullGraphSource<'_> {
    fn next_batch(&mut self) -> Option<SampledBatch> {
        let &(gi, g) = self.items.get(self.next)?;
        self.next += 1;
        let t = Instant::now();
        let batch = SampledBatch {
            graph: gi,
            subgraph: None,
            x: g.x.clone(),
            y: g.y.clone(),
            labels: g.labels.clone(),
            src: g.src.clone(),
            dst: g.dst.clone(),
            plans: g.plans.clone(),
        };
        self.busy_s += t.elapsed().as_secs_f64();
        Some(batch)
    }

    fn sample_busy_s(&self) -> f64 {
        self.busy_s
    }
}

/// Lockstep interleave of per-rank batch streams for a thread that runs
/// several ranks: one batch from each source in turn, so consecutive
/// `sources.len()` batches make up one optimizer step. The streams are
/// equal-length by construction (one batch per schedule entry, empty
/// shards included).
pub struct RoundRobin<S> {
    sources: Vec<S>,
    turn: usize,
}

impl<S: BatchSource> RoundRobin<S> {
    pub fn new(sources: Vec<S>) -> Self {
        assert!(!sources.is_empty(), "need at least one batch stream");
        Self { sources, turn: 0 }
    }
}

impl<S: BatchSource> BatchSource for RoundRobin<S> {
    fn next_batch(&mut self) -> Option<SampledBatch> {
        let batch = self.sources[self.turn].next_batch();
        self.turn = (self.turn + 1) % self.sources.len();
        batch
    }

    /// Real ranks sample concurrently: the slowest one's time.
    fn sample_busy_s(&self) -> f64 {
        self.sources
            .iter()
            .map(|s| s.sample_busy_s())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trkx_detector::DatasetConfig;
    use trkx_sampling::{ShadowConfig, ShadowSampler};

    fn prepared() -> Vec<PreparedGraph> {
        let cfg = DatasetConfig::ex3_like(0.01);
        crate::gnn_stage::prepare_graphs(&cfg.generate(2, 5))
    }

    fn schedule_for(graphs: &[PreparedGraph]) -> Vec<(usize, Vec<u32>)> {
        use rand::{rngs::StdRng, SeedableRng};
        let mut schedule = Vec::new();
        for (gi, g) in graphs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(gi as u64);
            for b in trkx_sampling::vertex_batches(g.num_nodes, 32, &mut rng) {
                schedule.push((gi, b));
            }
        }
        schedule
    }

    #[test]
    fn plan_chunks_groups_consecutive_same_graph_batches() {
        let schedule = vec![
            (0usize, vec![1u32]),
            (0, vec![2]),
            (0, vec![3]),
            (1, vec![4]),
            (1, vec![5]),
        ];
        let chunks = plan_chunks(&schedule, 2, 7, 0);
        let shapes: Vec<(usize, usize)> =
            chunks.iter().map(|c| (c.graph, c.batches.len())).collect();
        assert_eq!(shapes, vec![(0, 2), (0, 1), (1, 2)]);
        // Seed formula pins the pre-refactor expression exactly.
        let chunks_e2 = plan_chunks(&schedule, 2, 7, 2);
        for (c, start) in chunks_e2.iter().zip([0usize, 2, 3]) {
            assert_eq!(c.seed, 7u64 ^ 2u64 << 48 ^ (start as u64) << 16);
        }
        // Chunk size 1 = one chunk per schedule entry (the baseline arm).
        assert_eq!(plan_chunks(&schedule, 1, 7, 0).len(), 5);
    }

    #[test]
    fn shard_chunks_is_identity_for_single_worker() {
        let chunks = vec![SampleChunk {
            graph: 0,
            batches: vec![vec![3, 1, 2]],
            seed: 99,
        }];
        let out: Vec<_> = ShardChunks::new(chunks.clone().into_iter(), 0, 1).collect();
        assert_eq!(out, chunks);
    }

    #[test]
    fn shard_chunks_slices_batches_and_folds_rank_into_seed() {
        let chunks = vec![SampleChunk {
            graph: 0,
            batches: vec![vec![0, 1, 2, 3, 4]],
            seed: 8,
        }];
        let r0: Vec<_> = ShardChunks::new(chunks.clone().into_iter(), 0, 2).collect();
        let r1: Vec<_> = ShardChunks::new(chunks.into_iter(), 1, 2).collect();
        assert_eq!(r0[0].batches[0], vec![0, 1, 2]);
        assert_eq!(r1[0].batches[0], vec![3, 4]);
        assert_eq!(r0[0].seed, 8); // rank 0: seed ^ 0 is the seed itself
        assert_eq!(r1[0].seed, 8 ^ 1);
    }

    #[test]
    fn sync_source_yields_one_batch_per_schedule_entry() {
        let graphs = prepared();
        let schedule = schedule_for(&graphs);
        let sampler = ShadowSampler::new(ShadowConfig {
            depth: 2,
            fanout: 3,
        });
        let chunks = plan_chunks(&schedule, 1, 3, 0);
        let mut src = SampledBatchSource::new(&graphs, &sampler, chunks.into_iter());
        let mut n = 0;
        while let Some(batch) = src.next_batch() {
            assert!(batch.subgraph.is_some());
            assert_eq!(batch.src.len(), batch.dst.len());
            assert_eq!(batch.labels.len(), batch.src.len());
            n += 1;
        }
        assert_eq!(n, schedule.len());
        assert!(src.sample_busy_s() > 0.0);
    }

    #[test]
    fn full_graph_source_yields_each_graph_once() {
        let graphs = prepared();
        let items: Vec<(usize, &PreparedGraph)> = graphs.iter().enumerate().collect();
        let mut src = FullGraphSource::new(items);
        let mut seen = Vec::new();
        while let Some(b) = src.next_batch() {
            assert!(b.subgraph.is_none());
            assert_eq!(b.labels.len(), graphs[b.graph].labels.len());
            seen.push(b.graph);
        }
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn empty_shard_still_yields_an_aligned_batch() {
        // p larger than the batch: the trailing rank's shard is empty but
        // must still produce a batch (the DDP collective needs every rank
        // to take the same number of steps).
        let graphs = prepared();
        let sampler = ShadowSampler::new(ShadowConfig {
            depth: 2,
            fanout: 3,
        });
        let chunks = vec![SampleChunk {
            graph: 0,
            batches: vec![vec![0u32]],
            seed: 1,
        }];
        let sharded = ShardChunks::new(chunks.into_iter(), 3, 4);
        let mut src = SampledBatchSource::new(&graphs, &sampler, sharded);
        let batch = src.next_batch().expect("one batch");
        assert!(batch.labels.is_empty());
        assert_eq!(batch.x.rows(), 0);
        assert!(src.next_batch().is_none());
    }
}
