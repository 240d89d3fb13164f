//! `sample_incore` and `sample_oocore`: one operation is one sampling
//! epoch — `BulkShadowSampler::sample_batches` over the whole batch plan
//! — against the in-core CSR or the file-backed sharded store.

use super::{closed_loop, timed, Measured, Workload};
use crate::inputs::{mix, EX3_FULL};
use crate::trace::{Layer, Tracer};
use rand::{rngs::StdRng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use trkx_detector::{spill_adjacency, EventGraph};
use trkx_sampling::{
    vertex_batches, BulkShadowSampler, SampledSubgraph, SamplerGraph, ShadowConfig,
};
use trkx_sparse::ShardedCsr;

/// Roots per minibatch (the paper's batch size).
pub const BATCH_SIZE: usize = 256;
/// Minibatches per epoch: the first 12 of the shuffled plan, ~3.1 k of
/// the graph's ~13 k vertices, so that one out-of-core epoch takes
/// ~0.4 s and a 10 s window holds 25 of them.
pub const BATCHES_PER_EPOCH: usize = 12;
/// The paper's ShaDow setting: depth 3, fanout 6.
pub const SHADOW: ShadowConfig = ShadowConfig {
    depth: 3,
    fanout: 6,
};
/// Rows per shard of the spilled adjacency (~102 shards).
pub const SHARD_NODES: usize = 128;
/// The LRU holds this share of each orientation's shards.
pub const CACHE_SHARE: f64 = 0.25;

pub struct SampleWorkload {
    pub graph: SamplerGraph,
    pub batches: Vec<Vec<u32>>,
    pub sampler: BulkShadowSampler,
    pub sample_seed: u64,
    /// Hash of the epoch's subgraphs sampled from the in-core graph;
    /// every epoch of either store must reproduce it.
    pub reference_hash: u64,
    warmup_ops: usize,
    /// Spill directory, removed on drop.
    dir: Option<PathBuf>,
}

/// The epoch's batch plan: a seeded shuffle of the vertices cut into
/// batches, truncated to the epoch length.
pub fn batch_plan(num_nodes: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xBA7C));
    let mut batches = vertex_batches(num_nodes, BATCH_SIZE, &mut rng);
    batches.truncate(BATCHES_PER_EPOCH);
    batches
}

/// Spill `g`'s adjacency under `dir` and open both orientations with an
/// LRU of `CACHE_SHARE` of the shards.
pub fn open_sharded(g: &EventGraph, dir: &Path) -> SamplerGraph {
    let spec = spill_adjacency(g.num_nodes, &g.src, &g.dst, dir, "event", SHARD_NODES)
        .expect("spill adjacency into the benchmark's scratch directory");
    let num_shards = g.num_nodes.div_ceil(SHARD_NODES);
    let cache = ((num_shards as f64 * CACHE_SHARE) as usize).max(1);
    let open = |p: &Path| {
        Arc::new(ShardedCsr::<u32>::open(p, cache).expect("open the store just written"))
    };
    SamplerGraph::from_stores(spec.num_nodes, open(&spec.directed), open(&spec.undirected))
}

/// Word-wise FNV-1a over every subgraph's nodes, edges and original edge ids.
pub fn hash_subgraphs(subs: &[SampledSubgraph]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |words: &[u32]| {
        for &w in words {
            h ^= u64::from(w);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Length separator: [1,2],[3] must differ from [1],[2,3].
        h ^= words.len() as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for s in subs {
        eat(&s.node_map);
        eat(&s.sub_src);
        eat(&s.sub_dst);
        eat(&s.orig_edge_ids);
    }
    h
}

impl SampleWorkload {
    pub fn new(out_of_core: bool, seed: u64, scratch: &Path) -> Self {
        let g = &EX3_FULL.graphs(1, seed)[0];
        let batches = batch_plan(g.num_nodes, seed);
        let sampler = BulkShadowSampler::new(SHADOW);
        let sample_seed = mix(seed, 0x5A3F);
        let incore = SamplerGraph::new(g.num_nodes, &g.src, &g.dst);
        let reference_hash =
            hash_subgraphs(&sampler.sample_batches(&incore, &batches, sample_seed));
        let (graph, dir, warmup_ops) = if out_of_core {
            let dir = scratch.join(format!("shards-{}-{seed}", std::process::id()));
            (open_sharded(g, &dir), Some(dir), 2)
        } else {
            (incore, None, 5)
        };
        Self {
            graph,
            batches,
            sampler,
            sample_seed,
            reference_hash,
            warmup_ops,
            dir,
        }
    }

    /// One epoch: its time, and whether its subgraphs hash to the
    /// in-core reference.
    pub fn epoch(&self) -> (f64, bool) {
        let (subs, ms) = timed(|| {
            self.sampler
                .sample_batches(&self.graph, &self.batches, self.sample_seed)
        });
        (ms, hash_subgraphs(&subs) == self.reference_hash)
    }
}

impl Drop for SampleWorkload {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            // Best effort: a leftover directory is inside the
            // benchmark's own scratch space and ignored by git.
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Workload for SampleWorkload {
    fn measure(&mut self, seconds: f64) -> Measured {
        closed_loop(seconds, self.warmup_ops, || self.epoch())
    }

    fn measure_traced(&mut self, seconds: f64, tracer: &mut Tracer) -> Measured {
        let mut op_id = 0u64;
        closed_loop(seconds, 0, || {
            op_id += 1;
            tracer.set_op(op_id);
            let (subs, ms) = timed(|| {
                tracer.span("sample_batches", Layer::Sampling, || {
                    self.sampler
                        .sample_batches(&self.graph, &self.batches, self.sample_seed)
                })
            });
            let ok = tracer.span("check_hash", Layer::Bench, || {
                hash_subgraphs(&subs) == self.reference_hash
            });
            (ms, ok)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_separates_field_boundaries() {
        let a = SampledSubgraph {
            node_map: vec![1, 2],
            sub_src: vec![3],
            ..SampledSubgraph::empty()
        };
        let b = SampledSubgraph {
            node_map: vec![1],
            sub_src: vec![2, 3],
            ..SampledSubgraph::empty()
        };
        let (a, b) = ([a], [b]);
        assert_ne!(hash_subgraphs(&a), hash_subgraphs(&b));
        assert_eq!(hash_subgraphs(&a), hash_subgraphs(&a.clone()));
    }
}
