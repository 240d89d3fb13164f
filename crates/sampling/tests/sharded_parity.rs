//! Sharded-store parity: both ShaDow samplers must produce bit-identical
//! subgraphs whether the `SamplerGraph` reads an in-core `Csr<u32>` or a
//! file-backed `ShardedCsr<u32>` — across shard sizes down to one row
//! per shard and LRU caches down to one shard. The sampled edge ids must
//! also round-trip per-edge feature/label gathers identically, which is
//! what the training step relies on.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use trkx_sampling::{BulkShadowSampler, Sampler, SamplerGraph, ShadowConfig, ShadowSampler};
use trkx_sparse::{adjacency_with_edge_ids, write_csr_sharded, Coo, Csr, RowStore, ShardedCsr};

/// Random simple digraph as raw edge lists (we need them to build both
/// store flavours).
fn edges_strategy() -> impl Strategy<Value = (usize, Vec<u32>, Vec<u32>)> {
    (4usize..24).prop_flat_map(|n| {
        proptest::collection::btree_set((0u32..n as u32, 0u32..n as u32), 1..n * 3).prop_map(
            move |edges| {
                let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
                let src: Vec<u32> = edges.iter().map(|e| e.0).collect();
                let dst: Vec<u32> = edges.iter().map(|e| e.1).collect();
                (n, src, dst)
            },
        )
    })
}

fn all_samplers() -> Vec<Box<dyn Sampler>> {
    let shadow = ShadowConfig {
        depth: 2,
        fanout: 3,
    };
    vec![
        Box::new(ShadowSampler::new(shadow)),
        Box::new(BulkShadowSampler::new(shadow)),
    ]
}

fn tmp_dir() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "trkx-sharded-parity-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The two in-core orientation CSRs `SamplerGraph::new` builds.
fn orientation_csrs(n: usize, src: &[u32], dst: &[u32]) -> (Csr<u32>, Csr<u32>) {
    let directed = adjacency_with_edge_ids(n, src, dst);
    let mut bs = Vec::new();
    let mut bd = Vec::new();
    let mut ids = Vec::new();
    for (i, (&s, &d)) in src.iter().zip(dst).enumerate() {
        bs.push(s);
        bd.push(d);
        ids.push(i as u32);
        bs.push(d);
        bd.push(s);
        ids.push(i as u32);
    }
    (directed, Coo::new(n, n, bs, bd, ids).to_csr())
}

/// A `SamplerGraph` over sharded stores written from the in-core CSRs.
fn sharded_graph(
    n: usize,
    src: &[u32],
    dst: &[u32],
    shard_nodes: usize,
    cache: usize,
) -> SamplerGraph {
    let (dcsr, ucsr) = orientation_csrs(n, src, dst);
    let dir = tmp_dir();
    let dp = dir.join("dir.shard");
    let up = dir.join("und.shard");
    write_csr_sharded(&dcsr, &dp, shard_nodes).unwrap();
    write_csr_sharded(&ucsr, &up, shard_nodes).unwrap();
    SamplerGraph::from_stores(
        n,
        Arc::new(ShardedCsr::<u32>::open(&dp, cache).unwrap()),
        Arc::new(ShardedCsr::<u32>::open(&up, cache).unwrap()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Both samplers x shard size {1, 7, 64, whole-graph} x cache
    // capacity {1, 2, unbounded}: subgraphs are valid, equal the in-core
    // result bit for bit, and per-edge feature/label gathers through
    // `orig_edge_ids` round-trip identically.
    #[test]
    fn both_samplers_bit_identical_across_stores((n, src, dst) in edges_strategy(),
                                                seed in 0u64..50) {
        let incore = SamplerGraph::new(n, &src, &dst);
        let batches: Vec<Vec<u32>> = vec![
            (0..n.min(3) as u32).collect(),
            (n.min(3) as u32..n.min(6) as u32).collect(),
        ];
        // Stand-in per-edge labels and per-node features, keyed by
        // original ids exactly as `PreparedGraph::subgraph_matrices`
        // gathers them.
        let labels: Vec<f32> = (0..src.len()).map(|i| i as f32 * 0.5).collect();
        let feats: Vec<f32> = (0..n).map(|v| v as f32 * 1.25).collect();
        for sampler in all_samplers() {
            let want = sampler.sample_bulk(&incore, &batches, seed);
            for sg in &want {
                sg.validate(&incore);
            }
            for shard_nodes in [1usize, 7, 64, n] {
                for cache in [1usize, 2, usize::MAX] {
                    let sharded = sharded_graph(n, &src, &dst, shard_nodes, cache);
                    let got = sampler.sample_bulk(&sharded, &batches, seed);
                    prop_assert_eq!(
                        &got, &want,
                        "{} diverged at shard_nodes {} cache {}",
                        sampler.name(), shard_nodes, cache
                    );
                    for (sg_in, sg_sh) in want.iter().zip(&got) {
                        let gather = |sg: &trkx_sampling::SampledSubgraph| -> (Vec<f32>, Vec<f32>) {
                            (
                                sg.orig_edge_ids.iter().map(|&id| labels[id as usize]).collect(),
                                sg.node_map.iter().map(|&v| feats[v as usize]).collect(),
                            )
                        };
                        prop_assert_eq!(gather(sg_in), gather(sg_sh));
                    }
                    let c = sharded.cache_counters().expect("sharded graphs expose counters");
                    prop_assert!(c.hits + c.misses > 0 || want.iter().all(|s| s.num_edges() == 0));
                }
            }
        }
    }
}

#[test]
fn cache_capacity_one_still_matches_whole_graph_cache() {
    // Deterministic spot check with forced thrashing: capacity 1 on
    // 1-node shards faults on nearly every row touch yet must agree with
    // an unbounded cache.
    let (n, src, dst) = (
        12usize,
        vec![0u32, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        vec![1u32, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
    );
    let batches: Vec<Vec<u32>> = vec![(0..6u32).collect()];
    let thrash = sharded_graph(n, &src, &dst, 1, 1);
    let roomy = sharded_graph(n, &src, &dst, 1, usize::MAX);
    for sampler in all_samplers() {
        let a = sampler.sample_bulk(&thrash, &batches, 33);
        let b = sampler.sample_bulk(&roomy, &batches, 33);
        assert_eq!(a, b, "{} diverged under cache thrashing", sampler.name());
    }
    let c = thrash.cache_counters().unwrap();
    assert!(c.evictions > 0, "capacity-1 cache never evicted: {c:?}");
    let r = roomy.cache_counters().unwrap();
    assert_eq!(r.evictions, 0, "unbounded cache evicted: {r:?}");
}

/// A sparse pseudo-random digraph whose edges jump across the whole
/// vertex range, so every walk step lands on many shards.
fn scattered_edges(n: usize, out_degree: usize) -> (Vec<u32>, Vec<u32>) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let (mut src, mut dst, mut outs) = (Vec::new(), Vec::new(), Vec::new());
    for v in 0..n as u32 {
        outs.clear();
        for _ in 0..out_degree {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let w = ((state >> 33) % n as u64) as u32;
            if w != v && !outs.contains(&w) {
                outs.push(w);
                src.push(v);
                dst.push(w);
            }
        }
    }
    (src, dst)
}

#[test]
fn bulk_extraction_over_sharded_views_matches_in_core_with_three_batches() {
    // k = 3 batches: bulk extraction runs one task per batch under a
    // multi-thread pool, so several threads read one sharded view at once.
    let n = 40;
    let (src, dst) = scattered_edges(n, 2);
    let incore = SamplerGraph::new(n, &src, &dst);
    let batches: Vec<Vec<u32>> = vec![
        vec![0, 5, 9, 13],
        vec![17, 21, 26, 30],
        vec![33, 36, 38, 39],
    ];
    let sampler = BulkShadowSampler::new(ShadowConfig {
        depth: 2,
        fanout: 3,
    });
    for seed in [1u64, 7, 42] {
        let want = sampler.sample_batches(&incore, &batches, seed);
        for shard_nodes in [1usize, 7, 64, n] {
            for cache in [1usize, 2, usize::MAX] {
                let sharded = sharded_graph(n, &src, &dst, shard_nodes, cache);
                let got = sampler.sample_batches(&sharded, &batches, seed);
                assert_eq!(
                    got, want,
                    "seed {seed} shard_nodes {shard_nodes} cache {cache}"
                );
            }
        }
    }
}

#[test]
fn bulk_faults_each_shard_at_most_once_per_walk_step() {
    // With a one-shard cache, reading rows in frontier order would fault
    // on nearly every row (thousands of misses here); gathering each
    // step's frontier faults each undirected shard at most once per step,
    // and extraction each directed shard at most once.
    let (n, shard_nodes) = (4096usize, 256usize);
    let (src, dst) = scattered_edges(n, 3);
    let (dcsr, ucsr) = orientation_csrs(n, &src, &dst);
    let dir = tmp_dir();
    let (dp, up) = (dir.join("dir.shard"), dir.join("und.shard"));
    write_csr_sharded(&dcsr, &dp, shard_nodes).unwrap();
    write_csr_sharded(&ucsr, &up, shard_nodes).unwrap();
    let directed = Arc::new(ShardedCsr::<u32>::open(&dp, 1).unwrap());
    let undirected = Arc::new(ShardedCsr::<u32>::open(&up, 1).unwrap());
    let sharded = SamplerGraph::from_stores(n, directed.clone(), undirected.clone());

    let depth = 3;
    let sampler = BulkShadowSampler::new(ShadowConfig { depth, fanout: 4 });
    let batches: Vec<Vec<u32>> = (0..4u32)
        .map(|b| (0..64u32).map(|i| (i * 61 + b * 1031) % n as u32).collect())
        .collect();
    let got = sampler.sample_batches(&sharded, &batches, 11);
    let want = sampler.sample_batches(&SamplerGraph::new(n, &src, &dst), &batches, 11);
    assert_eq!(got, want);

    let und = undirected.counters().unwrap();
    let dirc = directed.counters().unwrap();
    let (und_shards, dir_shards) = (undirected.num_shards(), directed.num_shards());
    assert!(
        und.misses <= (depth * und_shards) as u64,
        "undirected: {und:?} over {depth} steps x {und_shards} shards"
    );
    assert!(
        dirc.misses <= dir_shards as u64,
        "directed: {dirc:?} over {dir_shards} shards"
    );
    std::fs::remove_dir_all(dir).ok();
}
