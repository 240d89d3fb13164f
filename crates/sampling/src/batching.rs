//! Minibatch formation: shuffled vertex batches over an event graph and
//! deterministic DDP sharding of each batch.

use rand::seq::SliceRandom;
use rand::Rng;

/// Shuffle `0..n` and split into batches of `batch_size` (the last batch
/// may be smaller, but is never empty — `n = 0` yields no batches at
/// all). `batch_size = 256` in the paper.
pub fn vertex_batches(n: usize, batch_size: usize, rng: &mut impl Rng) -> Vec<Vec<u32>> {
    assert!(batch_size > 0, "batch size must be positive");
    if n == 0 {
        return Vec::new();
    }
    let mut ids: Vec<u32> = (0..n as u32).collect();
    ids.shuffle(rng);
    ids.chunks(batch_size).map(|c| c.to_vec()).collect()
}

/// Split one global batch across `p` DDP workers (paper: local batch
/// 256/P).
///
/// The split is explicitly deterministic: worker `w` always receives the
/// contiguous slice starting at `w·⌊len/p⌋ + min(w, len mod p)`, with the
/// first `len mod p` workers taking one extra vertex. Concatenating the
/// shards in rank order reproduces `batch` exactly, so every rank can
/// recompute any rank's shard from the global batch alone — the property
/// the GNN trainer's per-rank chunk slicing (`ShardChunks` in
/// `trkx-core`) relies on. When `p > batch.len()` the
/// trailing workers receive empty shards (they still participate in the
/// gradient collective with zero local edges).
pub fn shard_batch(batch: &[u32], p: usize) -> Vec<Vec<u32>> {
    assert!(p > 0, "worker count must be positive");
    let base = batch.len() / p;
    let extra = batch.len() % p;
    let mut out = Vec::with_capacity(p);
    let mut off = 0;
    for w in 0..p {
        let len = base + usize::from(w < extra);
        out.push(batch[off..off + len].to_vec());
        off += len;
    }
    debug_assert_eq!(off, batch.len(), "shards must cover the batch");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn batches_cover_all_vertices_once() {
        let mut rng = StdRng::seed_from_u64(1);
        let batches = vertex_batches(100, 32, &mut rng);
        assert_eq!(batches.len(), 4);
        assert_eq!(batches[3].len(), 4);
        let mut all: Vec<u32> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn batches_are_shuffled() {
        let mut rng = StdRng::seed_from_u64(2);
        let batches = vertex_batches(1000, 1000, &mut rng);
        assert_ne!(batches[0], (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn zero_vertices_yield_no_batches() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(vertex_batches(0, 32, &mut rng).is_empty());
    }

    #[test]
    fn no_batch_is_ever_empty() {
        let mut rng = StdRng::seed_from_u64(4);
        // Exercise exact-multiple and remainder splits: an exact multiple
        // must not append a trailing empty batch.
        for (n, bs) in [(64, 32), (65, 32), (31, 32), (1, 1), (7, 3)] {
            let batches = vertex_batches(n, bs, &mut rng);
            assert!(
                batches.iter().all(|b| !b.is_empty()),
                "empty batch for n={n} bs={bs}"
            );
            assert_eq!(batches.iter().map(Vec::len).sum::<usize>(), n);
            assert_eq!(batches.len(), n.div_ceil(bs));
        }
    }

    #[test]
    fn batch_size_larger_than_n_gives_single_batch() {
        let mut rng = StdRng::seed_from_u64(5);
        let batches = vertex_batches(5, 100, &mut rng);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 5);
    }

    #[test]
    fn shard_batch_balances() {
        let batch: Vec<u32> = (0..10).collect();
        let shards = shard_batch(&batch, 4);
        assert_eq!(
            shards.iter().map(|s| s.len()).collect::<Vec<_>>(),
            vec![3, 3, 2, 2]
        );
        let all: Vec<u32> = shards.into_iter().flatten().collect();
        assert_eq!(all, batch);
    }

    #[test]
    fn shard_more_workers_than_items() {
        let shards = shard_batch(&[1, 2], 4);
        assert_eq!(shards.len(), 4);
        assert_eq!(shards[0], vec![1]);
        assert_eq!(shards[1], vec![2]);
        assert!(shards[2].is_empty() && shards[3].is_empty());
    }

    #[test]
    fn shard_empty_batch_gives_p_empty_shards() {
        let shards = shard_batch(&[], 3);
        assert_eq!(shards.len(), 3);
        assert!(shards.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn shard_ordering_is_deterministic_and_contiguous() {
        let batch: Vec<u32> = (0..23).rev().collect();
        for p in 1..=8 {
            let a = shard_batch(&batch, p);
            let b = shard_batch(&batch, p);
            assert_eq!(a, b, "p={p} not deterministic");
            // Rank-order concatenation reproduces the batch exactly.
            let concat: Vec<u32> = a.iter().flatten().copied().collect();
            assert_eq!(concat, batch, "p={p} not contiguous in rank order");
            // Documented offsets: rank w starts at w*base + min(w, extra).
            let (base, extra) = (batch.len() / p, batch.len() % p);
            let mut off = 0;
            for (w, shard) in a.iter().enumerate() {
                assert_eq!(off, w * base + w.min(extra));
                off += shard.len();
            }
        }
    }
}
