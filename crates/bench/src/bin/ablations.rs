//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. all-reduce strategy: per-tensor vs coalesced latency across P and
//!    parameter-tensor count (the §III-D argument in isolation);
//! 2. bulk factor `k` sweep: sampling time per minibatch as more batches
//!    are stacked per call;
//! 3. induced-subgraph extraction: per-call hash-map extractor vs the
//!    amortised generation-stamped extractor vs SpGEMM selection.
//!
//! ```text
//! cargo run -p trkx-bench --bin ablations --release
//! ```

use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;
use trkx_bench::Table;
use trkx_ddp::CommCostModel;
use trkx_detector::DatasetConfig;
use trkx_ignn::IgnnConfig;
use trkx_sampling::{vertex_batches, BulkShadowSampler, SamplerGraph, ShadowConfig, ShadowSampler};
use trkx_sparse::{extract_induced_direct, extract_induced_spgemm, InducedExtractor};

fn allreduce_ablation() {
    println!("## 1. All-reduce strategy (alpha-beta model, NVLink-3 constants)\n");
    let model = CommCostModel::nvlink3();
    // The paper's IGNN: hidden 64, 8 layers -> count the real tensors.
    let icfg = IgnnConfig::new(14, 8)
        .with_hidden(64)
        .with_gnn_layers(8)
        .with_mlp_depth(3);
    let mut rng = StdRng::seed_from_u64(0);
    let net = trkx_ignn::InteractionGnn::new(icfg, &mut rng);
    let sizes: Vec<usize> = net.params().iter().map(|p| p.numel() * 4).collect();
    println!(
        "IGNN: {} parameter tensors, {:.2} MiB total\n",
        sizes.len(),
        sizes.iter().sum::<usize>() as f64 / (1 << 20) as f64
    );
    let mut t = Table::new(&["P", "per-tensor (us)", "coalesced (us)", "ratio"]);
    for p in [2usize, 4, 8, 16] {
        let per = model.per_tensor_time(&sizes, p) * 1e6;
        let coal = model.coalesced_time(&sizes, p) * 1e6;
        t.row(vec![
            p.to_string(),
            format!("{per:.1}"),
            format!("{coal:.1}"),
            format!("{:.1}x", per / coal),
        ]);
    }
    t.print();
}

fn bulk_k_ablation() {
    println!("## 2. Bulk factor k sweep (sampling time per minibatch)\n");
    let g = &DatasetConfig::ex3_like(0.1).generate(1, 3)[0];
    let graph = SamplerGraph::new(g.num_nodes, &g.src, &g.dst);
    let mut rng = StdRng::seed_from_u64(1);
    let batches = vertex_batches(g.num_nodes, 256, &mut rng);
    let cfg = ShadowConfig {
        depth: 3,
        fanout: 6,
    };
    let mut t = Table::new(&["k", "calls", "time/minibatch (ms)"]);
    // Baseline: k = 1 via the sequential sampler.
    let reps = 3;
    let t0 = Instant::now();
    for _ in 0..reps {
        for b in &batches {
            let _ = ShadowSampler::new(cfg).sample_batch(&graph, b, &mut rng);
        }
    }
    let per_batch = t0.elapsed().as_secs_f64() * 1e3 / (reps * batches.len()) as f64;
    t.row(vec![
        "1 (baseline)".into(),
        batches.len().to_string(),
        format!("{per_batch:.2}"),
    ]);
    for k in [1usize, 2, 4, 8] {
        let k = k.min(batches.len());
        let t0 = Instant::now();
        for _ in 0..reps {
            for chunk in batches.chunks(k) {
                let _ = BulkShadowSampler::new(cfg).sample_batches(&graph, chunk, 7);
            }
        }
        let per_batch = t0.elapsed().as_secs_f64() * 1e3 / (reps * batches.len()) as f64;
        t.row(vec![
            format!("{k} (bulk)"),
            batches.chunks(k).count().to_string(),
            format!("{per_batch:.2}"),
        ]);
    }
    t.print();
}

fn extraction_ablation() {
    println!("## 3. Induced-subgraph extraction paths\n");
    let g = &DatasetConfig::ex3_like(0.1).generate(1, 5)[0];
    let graph = SamplerGraph::new(g.num_nodes, &g.src, &g.dst);
    // Representative ShaDow-sized selections.
    let mut rng = StdRng::seed_from_u64(2);
    let selections: Vec<Vec<u32>> = (0..512)
        .map(|i| {
            let mut rng2 = StdRng::seed_from_u64(i);
            trkx_sampling::walk_touched_set(
                &graph,
                (i as u32 * 7) % g.num_nodes as u32,
                ShadowConfig {
                    depth: 3,
                    fanout: 6,
                },
                &mut rng2,
            )
        })
        .collect();
    let _ = &mut rng;
    let a_ids = trkx_sparse::adjacency_with_edge_ids(g.num_nodes, &g.src, &g.dst);
    let a_f = a_ids.map_vals(|id| (id + 1) as f32);

    let mut t = Table::new(&["extractor", "time for 512 subgraphs (ms)"]);
    let t0 = Instant::now();
    for sel in &selections {
        let _ = extract_induced_direct(&graph.gather_directed(sel), sel);
    }
    t.row(vec![
        "hash-map per call (baseline)".into(),
        format!("{:.2}", t0.elapsed().as_secs_f64() * 1e3),
    ]);

    let t0 = Instant::now();
    let mut ex = InducedExtractor::new(g.num_nodes);
    let mut edges = Vec::new();
    let rows = graph.gather_directed(&selections.concat());
    for sel in &selections {
        edges.clear();
        let _ = ex.extract_into(&rows, sel, &mut edges);
    }
    t.row(vec![
        "generation-stamped scratch (bulk)".into(),
        format!("{:.2}", t0.elapsed().as_secs_f64() * 1e3),
    ]);

    let t0 = Instant::now();
    for sel in selections.iter().take(64) {
        let _ = extract_induced_spgemm(&a_f, sel);
    }
    t.row(vec![
        "selection SpGEMM (64 subgraphs, x8)".into(),
        format!("{:.2}", t0.elapsed().as_secs_f64() * 1e3 * 8.0),
    ]);
    t.print();
}

fn main() {
    println!("# Ablations\n");
    allreduce_ablation();
    bulk_k_ablation();
    extraction_ablation();
}
