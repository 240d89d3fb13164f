//! Regenerates **Figure 4** — precision/recall convergence on Ex3 for
//! (a) full-graph training (original Exa.TrkX, with its OOM skip),
//! (b) ShaDow minibatch training with the PyG-style baseline sampler,
//! (c) ShaDow minibatch training with our bulk implementation.
//!
//! ```text
//! cargo run -p trkx-bench --bin fig4_convergence --release \
//!   [-- --scale 0.05 --graphs 20 --epochs 15 --batch 256]
//! ```
//!
//! Paper shapes to reproduce: minibatch converges to higher precision
//! and recall than full-graph; (b) and (c) track each other (no
//! degradation from the bulk implementation).

use trkx_bench::{append_jsonl, arg_value, Table};
use trkx_core::{prepare_graphs, train, GnnTrainConfig, SamplerKind, TrainResult, TrainSpec};
use trkx_ddp::DdpConfig;
use trkx_detector::{split_80_10_10, DatasetConfig};
use trkx_sampling::ShadowConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = arg_value(&args, "--scale", 0.05f64);
    let n_graphs = arg_value(&args, "--graphs", 12usize);
    let epochs = arg_value(&args, "--epochs", 10usize);
    let batch = arg_value(&args, "--batch", 256usize);
    let hidden = arg_value(&args, "--hidden", 24usize);
    let layers = arg_value(&args, "--layers", 3usize);

    let dataset = DatasetConfig::ex3_like(scale);
    let graphs = dataset.generate(n_graphs, 404);
    let (tr, va, _te) = split_80_10_10(graphs.len());
    let prepared = prepare_graphs(&graphs);
    let train_set = &prepared[tr];
    let val = &prepared[va];
    println!(
        "# Figure 4: convergence on {} ({} train / {} val graphs, {} epochs)\n",
        dataset.name,
        train_set.len(),
        val.len(),
        epochs
    );

    let cfg = GnnTrainConfig {
        hidden,
        gnn_layers: layers,
        mlp_depth: dataset.mlp_layers,
        epochs,
        batch_size: batch,
        learning_rate: 2e-3,
        shadow: ShadowConfig {
            depth: 3,
            fanout: 6,
        },
        seed: 17,
        ..Default::default()
    };

    // Full-graph arm: activation budget set to the median graph footprint
    // so that (as on a memory-limited GPU) the largest events are skipped.
    let icfg = cfg.ignn_config(dataset.num_vertex_features, dataset.num_edge_features);
    let mut footprints: Vec<usize> = train_set
        .iter()
        .map(|g| icfg.estimate_activation_floats(g.num_nodes, g.num_edges()))
        .collect();
    footprints.sort_unstable();
    let budget = footprints[footprints.len() / 2];

    println!("training full-graph arm (budget {budget} activation floats)...");
    let full = train(&TrainSpec::full_graph(&cfg, Some(budget)), train_set, val);
    println!(
        "  skipped {} / {} graphs\n",
        full.skipped_graphs,
        train_set.len()
    );
    let minibatch = |sampler| {
        train(
            &TrainSpec::ddp(&cfg, sampler, DdpConfig::single()),
            train_set,
            val,
        )
    };
    println!("training ShaDow PyG-style baseline arm...");
    let pyg = minibatch(SamplerKind::Baseline);
    println!("training ShaDow bulk (ours) arm...\n");
    let ours = minibatch(SamplerKind::Bulk { k: 4 });

    let mut table = Table::new(&[
        "epoch", "full P", "full R", "PyG P", "PyG R", "ours P", "ours R",
    ]);
    for e in 0..epochs {
        table.row(vec![
            e.to_string(),
            format!("{:.3}", full.epochs[e].val_precision),
            format!("{:.3}", full.epochs[e].val_recall),
            format!("{:.3}", pyg.epochs[e].val_precision),
            format!("{:.3}", pyg.epochs[e].val_recall),
            format!("{:.3}", ours.epochs[e].val_precision),
            format!("{:.3}", ours.epochs[e].val_recall),
        ]);
        append_jsonl(
            "fig4",
            &serde_json::json!({
                "epoch": e,
                "full": {"p": full.epochs[e].val_precision, "r": full.epochs[e].val_recall},
                "pyg": {"p": pyg.epochs[e].val_precision, "r": pyg.epochs[e].val_recall},
                "ours": {"p": ours.epochs[e].val_precision, "r": ours.epochs[e].val_recall},
            }),
        );
    }
    table.print();

    let last = |r: &TrainResult| {
        let e = r.epochs.last().unwrap();
        (e.val_precision, e.val_recall)
    };
    let (fp, fr) = last(&full);
    let (pp, pr) = last(&pyg);
    let (op, or) = last(&ours);
    println!("## Paper-shape checks");
    println!(
        "- minibatch (ours) vs full-graph: P {:.3} vs {:.3} ({}), R {:.3} vs {:.3} ({})",
        op,
        fp,
        if op > fp {
            "minibatch higher, as in paper"
        } else {
            "UNEXPECTED"
        },
        or,
        fr,
        if or > fr {
            "minibatch higher, as in paper"
        } else {
            "UNEXPECTED"
        },
    );
    println!(
        "- ours vs PyG-style: |dP| {:.3}, |dR| {:.3} ({})",
        (op - pp).abs(),
        (or - pr).abs(),
        if (op - pp).abs() < 0.1 && (or - pr).abs() < 0.1 {
            "no degradation, as in paper"
        } else {
            "gap larger than expected"
        }
    );
}
