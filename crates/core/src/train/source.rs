//! The epoch's sampling plan: which minibatches each optimizer step
//! trains on, grouped into the chunks one sampler call draws.
//!
//! The paper's Fig. 3 splits epoch time into *sampling* + *train*, paid
//! back to back. The GNN trainer (`RankStep` in [`crate::gnn_stage`])
//! goes chunk → sample → step directly: [`plan_chunks`] groups the
//! epoch's `(graph, global batch)` schedule into [`SampleChunk`]s,
//! [`ShardChunks`] gives each DDP rank its [`shard_batch`] slice of every
//! global batch with its rank id folded into the sampling seed, and each
//! rank samples its slice of a chunk with one `sample_bulk` call and then
//! trains on the chunk's batches.
//!
//! Determinism: a chunk's subgraphs depend only on `(graph, batches,
//! seed)` — never on which thread ran the sampling — so threaded and
//! simulated ranks see bit-identical batches, in the same order. The
//! golden-curve tests pin this.

use trkx_sampling::shard_batch;

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
/// the golden loss curves stay bit-identical (DDP ranks later fold their
/// rank id in via [`ShardChunks`]).
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
