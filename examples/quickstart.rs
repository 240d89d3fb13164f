//! Quickstart: train the Interaction GNN with minibatch ShaDow sampling
//! on a small synthetic Ex3-like dataset and report edge-classification
//! quality.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use trkx::ddp::DdpConfig;
use trkx::detector::{dataset_stats, split_80_10_10, DatasetConfig};
use trkx::pipeline::{
    prepare_graphs, train, EarlyStoppingHook, GnnTrainConfig, Hook, Monitor, SamplerKind,
    TelemetryHook, TrainSpec,
};
use trkx::sampling::ShadowConfig;

fn main() {
    // 10 event graphs at 5% of Ex3's scale (~650 hits, ~2.4K edges each).
    let dataset = DatasetConfig::ex3_like(0.05);
    let graphs = dataset.generate(10, 42);
    let stats = dataset_stats(&graphs);
    println!("dataset: {}", dataset.name);
    println!(
        "  {} graphs, avg {:.0} vertices, avg {:.0} edges, {:.1}% true edges",
        stats.graphs,
        stats.avg_vertices,
        stats.avg_edges,
        100.0 * stats.avg_positive_fraction
    );

    let (train_idx, val_idx, test_idx) = split_80_10_10(graphs.len());
    let prepared = prepare_graphs(&graphs);
    let train_set = &prepared[train_idx];
    let val = &prepared[val_idx];
    let test = &prepared[test_idx];

    // Paper hyperparameters scaled down for a quick local run: the paper
    // uses batch 256, hidden 64, 8 GNN layers, 30 epochs, d=3, s=6.
    let cfg = GnnTrainConfig {
        hidden: 32,
        gnn_layers: 4,
        mlp_depth: 2,
        epochs: 6,
        batch_size: 128,
        learning_rate: 2e-3,
        shadow: ShadowConfig {
            depth: 2,
            fanout: 4,
        },
        ..Default::default()
    };

    println!("\ntraining: bulk ShaDow (k=4), single worker");
    // Hooks ride along on the shared training engine: a TelemetryHook
    // narrates each epoch as it finishes, and an EarlyStoppingHook halts
    // the run once validation F1 stops improving.
    let patience = 2;
    let make_hooks = move |_rank: usize| -> Vec<Box<dyn Hook>> {
        vec![
            Box::new(TelemetryHook::new(|e| {
                println!(
                    "  epoch {:>2}  loss {:.4}  val P {:.3}  val R {:.3}  (sample {:.2}s train {:.2}s)",
                    e.epoch,
                    e.train_loss,
                    e.val_precision,
                    e.val_recall,
                    e.timing.sampling_s,
                    e.timing.train_s
                );
            })),
            Box::new(EarlyStoppingHook::new(Monitor::ValF1, patience, 0.0)),
        ]
    };
    let spec = TrainSpec::ddp(&cfg, SamplerKind::Bulk { k: 4 }, DdpConfig::single())
        .with_hooks(&make_hooks);
    let result = train(&spec, train_set, val);
    if result.epochs.len() < cfg.epochs {
        println!(
            "  early stop after {} epochs (patience {patience})",
            result.epochs.len()
        );
    }

    let test_stats = trkx::pipeline::evaluate(&result.model, test, 0.5);
    println!(
        "\ntest: precision {:.3} recall {:.3} f1 {:.3}",
        test_stats.precision(),
        test_stats.recall(),
        test_stats.f1()
    );
}
