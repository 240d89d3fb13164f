//! Batch sources: the pipelined data layer between the samplers and the
//! train loop.
//!
//! The paper's Fig. 3 splits epoch time into *sampling* + *train*; this
//! module makes the two stages independent so they can be overlapped
//! (Serafini & Guan's "scalable GNN training" argument). A trainer pulls
//! [`SampledBatch`]es from a [`BatchSource`] and never calls a sampler
//! directly:
//!
//! * [`SampledBatchSource`] — samples on the calling thread, chunk by
//!   chunk (today's synchronous behaviour, the golden-parity baseline);
//! * [`FullGraphSource`] — yields each prepared event graph as one batch
//!   (the full-graph trainer's "schedule");
//! * [`PrefetchBatchSource`] — the consumer side of a bounded channel fed
//!   by a background sampling thread, so step *t+1*'s sampling overlaps
//!   step *t*'s forward/backward ([`with_batch_source`] wires it up);
//! * [`ShardChunks`] — DDP sharding as a *decorator* over the chunk
//!   stream: each rank keeps its [`shard_batch`] slice of every global
//!   batch and folds its rank id into the sampling seed;
//! * [`RoundRobin`] — several ranks' streams interleaved in lockstep, for
//!   a thread that runs more than one rank (the DDP simulator).
//!
//! Determinism: a chunk's subgraphs depend only on `(graph, batches,
//! seed)` — never on which thread ran the sampling or when — so the
//! prefetching source produces bit-identical batches to the synchronous
//! one, in the same order. The golden-curve tests pin this.

use crate::gnn_stage::PreparedGraph;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;
use trkx_sampling::{shard_batch, SampledSubgraph, Sampler};
use trkx_tensor::{EdgePlans, Matrix};

/// How a trainer obtains its batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BatchingMode {
    /// Sample inline on the training thread (golden-parity baseline).
    Sync,
    /// Sample on a background thread into a bounded queue holding up to
    /// `depth` ready batches, overlapping sampling with compute.
    Prefetch { depth: usize },
}

impl BatchingMode {
    /// Default prefetch: double-buffered (one batch in flight while one
    /// is being consumed).
    pub fn prefetch() -> Self {
        BatchingMode::Prefetch { depth: 2 }
    }

    pub fn is_prefetch(&self) -> bool {
        matches!(self, BatchingMode::Prefetch { .. })
    }
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
/// forward pass needs, with no references back into the sampler — so a
/// batch can cross the prefetch-thread boundary.
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
    /// Precomputed edge plans for this batch's `src`/`dst`, built where
    /// the batch was materialized — on the prefetch thread when
    /// prefetching, i.e. off the training thread's critical path.
    pub plans: Arc<EdgePlans>,
    /// Seconds of sampling + gathering attributed to this batch.
    pub sample_s: f64,
}

/// A pull-based stream of training batches. `next_batch` returning `None`
/// ends the epoch.
pub trait BatchSource {
    fn next_batch(&mut self) -> Option<SampledBatch>;

    /// Seconds of sampling/materialisation work performed so far (the
    /// Fig. 3 "sampling time" bar, wherever that work actually ran).
    fn sample_busy_s(&self) -> f64;
}

/// Synchronous sampling source: pulls chunks from the plan, samples each
/// with one `sample_bulk` call on the *calling* thread, and hands out the
/// resulting batches one at a time.
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
            let subgraphs = self
                .sampler
                .sample_bulk(&g.sampler, &chunk.batches, chunk.seed);
            let mut batches: Vec<SampledBatch> = subgraphs
                .into_iter()
                .map(|sg| {
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
                        sample_s: 0.0,
                    }
                })
                .collect();
            let dt = t.elapsed().as_secs_f64();
            self.busy_s += dt;
            let per_batch = dt / batches.len().max(1) as f64;
            for b in &mut batches {
                b.sample_s = per_batch;
            }
            self.ready.extend(batches);
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
            sample_s: 0.0,
        };
        let dt = t.elapsed().as_secs_f64();
        self.busy_s += dt;
        let mut batch = batch;
        batch.sample_s = dt;
        Some(batch)
    }

    fn sample_busy_s(&self) -> f64 {
        self.busy_s
    }
}

/// Consumer side of the prefetch pipeline: receives ready batches from
/// the background sampling thread.
pub struct PrefetchBatchSource {
    rx: mpsc::Receiver<SampledBatch>,
    busy_s: f64,
}

impl BatchSource for PrefetchBatchSource {
    fn next_batch(&mut self) -> Option<SampledBatch> {
        let batch = self.rx.recv().ok();
        if let Some(b) = &batch {
            self.busy_s += b.sample_s;
        }
        batch
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

/// Run `consume` against `source`, optionally decorated with a prefetch
/// pipeline. `Sync` calls `consume` directly on the caller's thread;
/// `Prefetch { depth }` spawns a scoped producer thread that drains
/// `source` into a bounded channel (capacity `depth`, so at most `depth`
/// sampled batches wait in memory) and hands `consume` the receiving
/// [`PrefetchBatchSource`]. Batch order and contents are identical in
/// both modes; only *where* the sampling runs changes.
pub fn with_batch_source<S, R, F>(mode: BatchingMode, source: S, consume: F) -> R
where
    S: BatchSource + Send,
    F: FnOnce(&mut dyn BatchSource) -> R,
{
    match mode {
        BatchingMode::Sync => {
            let mut source = source;
            consume(&mut source)
        }
        BatchingMode::Prefetch { depth } => std::thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel(depth.max(1));
            let mut producer = source;
            let handle = scope.spawn(move || {
                while let Some(batch) = producer.next_batch() {
                    // The consumer dropping its receiver ends the epoch
                    // early (e.g. on an error path); just stop sampling.
                    if tx.send(batch).is_err() {
                        break;
                    }
                }
            });
            let mut prefetch = PrefetchBatchSource { rx, busy_s: 0.0 };
            let out = consume(&mut prefetch);
            drop(prefetch); // unblock a producer waiting on a full queue
            handle.join().expect("prefetch sampling thread panicked");
            out
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trkx_detector::DatasetConfig;
    use trkx_sampling::{BulkShadowSampler, ShadowConfig, ShadowSampler};

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
    fn prefetch_source_yields_identical_batches_in_order() {
        let graphs = prepared();
        let schedule = schedule_for(&graphs);
        let sampler = BulkShadowSampler::new(ShadowConfig {
            depth: 2,
            fanout: 3,
        });
        let collect = |mode: BatchingMode| -> Vec<(usize, SampledSubgraph, Vec<f32>)> {
            let chunks = plan_chunks(&schedule, 4, 3, 0);
            let source = SampledBatchSource::new(&graphs, &sampler, chunks.into_iter());
            with_batch_source(mode, source, |src| {
                let mut out = Vec::new();
                while let Some(b) = src.next_batch() {
                    out.push((b.graph, b.subgraph.unwrap(), b.labels));
                }
                out
            })
        };
        let sync = collect(BatchingMode::Sync);
        let prefetch = collect(BatchingMode::prefetch());
        assert_eq!(sync.len(), prefetch.len());
        for (a, b) in sync.iter().zip(&prefetch) {
            assert_eq!(a, b);
        }
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
