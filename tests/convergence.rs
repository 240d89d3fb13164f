//! Convergence-shape integration tests (Figure 4's qualitative claims,
//! at smoke-test scale): minibatch ShaDow training works, our bulk
//! implementation does not degrade quality versus the baseline sampler,
//! and the OOM-skip behaviour of full-graph training hurts it.

use trkx::ddp::DdpConfig;
use trkx::detector::DatasetConfig;
use trkx::pipeline::{prepare_graphs, train, GnnTrainConfig, SamplerKind, TrainSpec};
use trkx::sampling::ShadowConfig;

fn cfg(epochs: usize) -> GnnTrainConfig {
    GnnTrainConfig {
        hidden: 24,
        gnn_layers: 3,
        mlp_depth: 2,
        epochs,
        batch_size: 64,
        learning_rate: 2e-3,
        shadow: ShadowConfig {
            depth: 2,
            fanout: 4,
        },
        seed: 99,
        ..Default::default()
    }
}

#[test]
fn minibatch_beats_memory_limited_full_graph() {
    // The paper's motivation: when full-graph training must skip events
    // that exceed the activation budget, it sees less data and converges
    // worse. Pick a budget that passes only the smallest graphs.
    let data = DatasetConfig::ex3_like(0.015).generate(6, 77);
    let prepared = prepare_graphs(&data);
    let (train_set, val) = prepared.split_at(5);

    let c = cfg(5);
    let icfg = c.ignn_config(6, 2);
    // Budget below the median graph's footprint: most graphs skipped.
    let mut footprints: Vec<usize> = train_set
        .iter()
        .map(|g| icfg.estimate_activation_floats(g.num_nodes, g.num_edges()))
        .collect();
    footprints.sort_unstable();
    let budget = footprints[0]; // only the smallest graph trains

    let full = train(&TrainSpec::full_graph(&c, Some(budget)), train_set, val).unwrap();
    assert!(
        full.skipped_graphs >= train_set.len() - 1,
        "budget skipped {} graphs",
        full.skipped_graphs
    );

    let single = DdpConfig::single();
    let mini = train(
        &TrainSpec::ddp(&c, SamplerKind::Bulk { k: 4 }, single),
        train_set,
        val,
    )
    .unwrap();

    let f1 = |p: f64, r: f64| {
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    };
    let full_last = full.epochs.last().unwrap();
    let mini_last = mini.epochs.last().unwrap();
    let full_f1 = f1(full_last.val_precision, full_last.val_recall);
    let mini_f1 = f1(mini_last.val_precision, mini_last.val_recall);
    assert!(
        mini_f1 > full_f1,
        "minibatch F1 {mini_f1:.3} should beat memory-limited full-graph F1 {full_f1:.3}"
    );
}

#[test]
fn bulk_implementation_matches_baseline_quality() {
    // Figure 4's "our implementation does not suffer precision or recall
    // degradation" claim: same sampler distribution, different code path.
    let data = DatasetConfig::ex3_like(0.015).generate(5, 55);
    let prepared = prepare_graphs(&data);
    let (train_set, val) = prepared.split_at(4);
    let c = cfg(4);
    let run = |sampler| {
        train(
            &TrainSpec::ddp(&c, sampler, DdpConfig::single()),
            train_set,
            val,
        )
        .unwrap()
    };
    let base = run(SamplerKind::Baseline);
    let bulk = run(SamplerKind::Bulk { k: 4 });
    let b = base.epochs.last().unwrap();
    let k = bulk.epochs.last().unwrap();
    assert!(
        (b.val_precision - k.val_precision).abs() < 0.25,
        "precision gap too large: baseline {:.3} vs bulk {:.3}",
        b.val_precision,
        k.val_precision
    );
    assert!(
        (b.val_recall - k.val_recall).abs() < 0.25,
        "recall gap too large: baseline {:.3} vs bulk {:.3}",
        b.val_recall,
        k.val_recall
    );
}

#[test]
fn training_loss_decreases_across_epochs() {
    let data = DatasetConfig::ex3_like(0.015).generate(3, 33);
    let prepared = prepare_graphs(&data);
    let (train_set, val) = prepared.split_at(2);
    let c = cfg(5);
    let spec = TrainSpec::ddp(&c, SamplerKind::Bulk { k: 2 }, DdpConfig::single());
    let r = train(&spec, train_set, val).unwrap();
    let losses: Vec<f32> = r.epochs.iter().map(|e| e.train_loss).collect();
    assert!(
        losses.last().unwrap() < &losses[0],
        "loss not decreasing: {losses:?}"
    );
    // Recall should end up meaningfully above zero.
    assert!(r.epochs.last().unwrap().val_recall > 0.4);
}
