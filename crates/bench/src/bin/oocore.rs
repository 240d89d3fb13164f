//! Out-of-core sharded graph store benchmark: sampled-batch latency of
//! the in-core `SamplerGraph` vs the file-backed `ShardedCsr` store
//! across an LRU cache-capacity sweep, with the store's own hit / miss /
//! eviction counters, plus a short training run asserting the loss curve
//! is bit-identical to in-core. Writes `BENCH_oocore.json`.
//!
//! Usage: `oocore [--tiny] [--scale S] [--shard-nodes N] [--repeat R]
//! [--out PATH]`
//!
//! Gates (exit non-zero on failure; CI runs `--tiny`):
//! * every sharded configuration reproduces the in-core subgraphs
//!   bit-for-bit;
//! * the smallest cache evicts (nonzero evictions — the sweep actually
//!   exercised out-of-core behaviour);
//! * at the smallest cache the on-disk payload exceeds the cache budget
//!   (capacity x max shard bytes) by at least 10x;
//! * the 2-epoch sharded training run's loss bits equal in-core's.

use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use trkx_bench::{arg_flag, arg_value};
use trkx_core::{
    prepare_graphs, prepare_graphs_sharded, train, GnnTrainConfig, SamplerKind, TrainSpec,
};
use trkx_ddp::DdpConfig;
use trkx_detector::{spill_adjacency, DatasetConfig};
use trkx_sampling::{vertex_batches, BulkShadowSampler, SamplerGraph, ShadowConfig};
use trkx_sparse::ShardedCsr;

fn open_sharded(spec: &trkx_detector::SpilledAdjacency, cache: usize) -> SamplerGraph {
    let open = |p: &std::path::Path| {
        Arc::new(ShardedCsr::<u32>::open(p, cache).expect("open sharded store"))
    };
    SamplerGraph::from_stores(spec.num_nodes, open(&spec.directed), open(&spec.undirected))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tiny = arg_flag(&args, "--tiny");
    let scale: f64 = arg_value(&args, "--scale", if tiny { 0.02 } else { 0.2 });
    let shard_nodes: usize = arg_value(&args, "--shard-nodes", if tiny { 8 } else { 128 });
    let repeat: usize = arg_value(&args, "--repeat", 3).max(1);
    let out: String = arg_value(&args, "--out", "BENCH_oocore.json".to_string());

    let dcfg = DatasetConfig::ex3_like(scale);
    let g = &dcfg.generate(1, 17)[0];
    let dir = std::env::temp_dir().join(format!("trkx-oocore-{}", std::process::id()));
    let spec = spill_adjacency(g.num_nodes, &g.src, &g.dst, &dir, "event", shard_nodes)
        .expect("spill sharded adjacency");
    let probe = ShardedCsr::<u32>::open(&spec.directed, 1).expect("open spilled store");
    let num_shards = probe.num_shards();
    let payload_bytes = probe.payload_bytes();
    let max_shard_bytes = probe.max_shard_bytes().max(1);
    drop(probe);

    let sampler = BulkShadowSampler::new(ShadowConfig {
        depth: 3,
        fanout: 6,
    });
    let mut rng = StdRng::seed_from_u64(5);
    let batches = vertex_batches(g.num_nodes, 256, &mut rng);

    // In-core baseline: latency + reference subgraphs.
    let incore = SamplerGraph::new(g.num_nodes, &g.src, &g.dst);
    let mut best_incore = f64::INFINITY;
    let mut reference = Vec::new();
    for _ in 0..repeat {
        let t = Instant::now();
        reference = sampler.sample_batches(&incore, &batches, 9);
        best_incore = best_incore.min(t.elapsed().as_secs_f64());
    }

    // Cache sweep: smallest first so the eviction gate binds hardest.
    let caps: Vec<usize> = [1usize, 2, 4, 16, num_shards.max(1)]
        .into_iter()
        .filter(|&c| c <= num_shards.max(1))
        .collect();
    println!(
        "oocore: {} nodes, {} edges, {num_shards} shards of {shard_nodes} nodes \
         ({payload_bytes} payload bytes); in-core {:.2} ms/epoch",
        g.num_nodes,
        g.num_edges(),
        best_incore * 1e3
    );
    let mut sweep = Vec::new();
    let mut evictions_at_smallest = 0u64;
    let mut parity_failures = 0usize;
    for (ci, &cache) in caps.iter().enumerate() {
        let graph = open_sharded(&spec, cache);
        let mut best = f64::INFINITY;
        let mut subs = Vec::new();
        for _ in 0..repeat {
            let t = Instant::now();
            subs = sampler.sample_batches(&graph, &batches, 9);
            best = best.min(t.elapsed().as_secs_f64());
        }
        if subs != reference {
            eprintln!("FAIL: cache {cache} produced subgraphs differing from in-core");
            parity_failures += 1;
        }
        let c = graph.cache_counters().expect("sharded counters");
        if ci == 0 {
            evictions_at_smallest = c.evictions;
        }
        println!(
            "cache {cache:>5}: {:.2} ms/epoch ({:.2}x in-core), {} hits / {} misses / \
             {} evictions (hit rate {:.3})",
            best * 1e3,
            best / best_incore,
            c.hits,
            c.misses,
            c.evictions,
            c.hit_rate()
        );
        sweep.push(serde_json::json!({
            "cache_shards": cache,
            "best_s": best,
            "slowdown_vs_incore": best / best_incore,
            "hits": c.hits,
            "misses": c.misses,
            "evictions": c.evictions,
            "hit_rate": c.hit_rate(),
        }));
    }

    // Loss-parity gate: a short sharded training run must reproduce the
    // in-core loss curve bit for bit (3 tiny events, 2 epochs).
    let train_graphs = DatasetConfig::ex3_like((scale * 0.5).min(0.02)).generate(3, 21);
    let tcfg = GnnTrainConfig {
        hidden: 16,
        gnn_layers: 2,
        mlp_depth: 2,
        epochs: 2,
        batch_size: 32,
        shadow: ShadowConfig {
            depth: 2,
            fanout: 4,
        },
        seed: 3,
        ..Default::default()
    };
    let pin = prepare_graphs(&train_graphs);
    let psh = prepare_graphs_sharded(&train_graphs, &dir.join("train"), shard_nodes, 2)
        .expect("prepare sharded training graphs");
    let spec = TrainSpec::ddp(&tcfg, SamplerKind::Bulk { k: 2 }, DdpConfig::single());
    let a = train(&spec, &pin[..2], &pin[2..]);
    let b = train(&spec, &psh[..2], &psh[2..]);
    let loss_bits_identical = a
        .epochs
        .iter()
        .zip(&b.epochs)
        .all(|(x, y)| x.train_loss.to_bits() == y.train_loss.to_bits());
    println!(
        "train parity: in-core losses {:?} vs sharded {:?} -> {}",
        a.epochs.iter().map(|e| e.train_loss).collect::<Vec<_>>(),
        b.epochs.iter().map(|e| e.train_loss).collect::<Vec<_>>(),
        if loss_bits_identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    let smallest_budget = caps[0] as u64 * max_shard_bytes;
    let disk_over_budget = payload_bytes as f64 / smallest_budget.max(1) as f64;
    let report = serde_json::json!({
        "bench": "oocore",
        "tiny": tiny,
        "scale": scale,
        "nodes": g.num_nodes,
        "edges": g.num_edges(),
        "shard_nodes": shard_nodes,
        "num_shards": num_shards,
        "payload_bytes": payload_bytes,
        "max_shard_bytes": max_shard_bytes,
        "incore_best_s": best_incore,
        "sweep": sweep,
        "disk_over_smallest_cache_budget": disk_over_budget,
        "train_loss_bits_identical": loss_bits_identical,
    });
    std::fs::write(&out, format!("{report}\n")).expect("write bench report");
    println!(
        "disk/budget ratio at cache {}: {disk_over_budget:.1}x -> {out}",
        caps[0]
    );
    std::fs::remove_dir_all(&dir).ok();

    let mut failed = false;
    if parity_failures > 0 {
        eprintln!("FAIL: {parity_failures} cache configurations broke subgraph parity");
        failed = true;
    }
    if evictions_at_smallest == 0 {
        eprintln!("FAIL: smallest cache (capacity {}) never evicted", caps[0]);
        failed = true;
    }
    if disk_over_budget < 10.0 {
        eprintln!(
            "FAIL: on-disk payload only {disk_over_budget:.1}x the smallest cache budget (< 10x)"
        );
        failed = true;
    }
    if !loss_bits_identical {
        eprintln!("FAIL: sharded training loss diverged from in-core");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
