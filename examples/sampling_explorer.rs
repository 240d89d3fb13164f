//! Compare the two ShaDow samplers — behind the one [`Sampler`] trait — on
//! a synthetic event graph: subgraph sizes, wall time per epoch of
//! minibatches, and the baseline-vs-bulk speedup.
//!
//! ```text
//! cargo run --example sampling_explorer --release
//! ```

use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;
use trkx::detector::DatasetConfig;
use trkx::sampling::{
    vertex_batches, BulkShadowSampler, Sampler, SamplerGraph, ShadowConfig, ShadowSampler,
};

fn main() {
    let dataset = DatasetConfig::ex3_like(0.1); // ~1.3K hits, ~4.8K edges
    let g = &dataset.generate(1, 5)[0];
    let graph = SamplerGraph::new(g.num_nodes, &g.src, &g.dst);
    println!(
        "event graph: {} vertices, {} edges ({}), avg degree {:.1}\n",
        g.num_nodes,
        g.num_edges(),
        dataset.name,
        2.0 * g.num_edges() as f64 / g.num_nodes as f64
    );

    let mut rng = StdRng::seed_from_u64(1);
    let batches = vertex_batches(g.num_nodes, 256, &mut rng);
    println!(
        "{} minibatches of 256 vertices (paper batch size)\n",
        batches.len()
    );

    let shadow_cfg = ShadowConfig {
        depth: 3,
        fanout: 6,
    }; // paper values

    // Both samplers behind the one trait; each samples the same epoch of
    // minibatches via `sample_bulk`. They differ only in *how* they
    // process the batches — sequentially vs matrix-stacked.
    let samplers: Vec<Box<dyn Sampler>> = vec![
        Box::new(ShadowSampler::new(shadow_cfg)),
        Box::new(BulkShadowSampler::new(shadow_cfg)),
    ];

    // The sequential baseline runs first and is the speedup's base.
    let mut shadow_time = None;
    for sampler in &samplers {
        // Best of three runs (first run pays allocator warm-up).
        let mut dt = f64::INFINITY;
        let mut subs = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            subs = sampler.sample_bulk(&graph, &batches, 7);
            dt = dt.min(t.elapsed().as_secs_f64());
        }
        for sg in &subs {
            sg.validate(&graph);
        }
        let nodes: usize = subs.iter().map(|s| s.num_nodes()).sum();
        let edges: usize = subs.iter().map(|s| s.num_edges()).sum();
        let note = match shadow_time {
            None => {
                shadow_time = Some(dt);
                String::new()
            }
            Some(base) => format!("  ({:.2}x vs baseline ShaDow)", base / dt),
        };
        println!(
            "{:<12}: {:>8.1} ms, {:>7} nodes, {:>7} edges sampled{note}",
            sampler.name(),
            dt * 1e3,
            nodes,
            edges
        );
    }

    println!("\nShaDow subgraphs have one component per batch vertex.");
}
