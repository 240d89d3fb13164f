//! DDP integration tests: the two all-reduce strategies are bit-identical
//! (only their modeled cost differs), the modeled cost is the α–β
//! formula per step, and multi-worker training remains stable.

use trkx::ddp::{AllReduceStrategy, CommCostModel, DdpConfig};
use trkx::detector::DatasetConfig;
use trkx::pipeline::{
    prepare_graphs, train, GnnTrainConfig, PreparedGraph, SamplerKind, TrainResult, TrainSpec,
};
use trkx::sampling::ShadowConfig;

fn cfg() -> GnnTrainConfig {
    GnnTrainConfig {
        hidden: 16,
        gnn_layers: 2,
        mlp_depth: 2,
        epochs: 2,
        batch_size: 32,
        learning_rate: 2e-3,
        shadow: ShadowConfig {
            depth: 2,
            fanout: 3,
        },
        seed: 7,
        ..Default::default()
    }
}

/// One training run per strategy under `spec(strategy)`.
fn run_both<'a>(
    spec: impl Fn(AllReduceStrategy) -> TrainSpec<'a>,
    train_set: &[PreparedGraph],
    val: &[PreparedGraph],
) -> [TrainResult; 2] {
    [AllReduceStrategy::PerTensor, AllReduceStrategy::Coalesced]
        .map(|strategy| train(&spec(strategy), train_set, val).unwrap())
}

#[test]
fn per_tensor_and_coalesced_training_are_numerically_identical() {
    // Same seeds, same sampler streams, same worker count: the only
    // difference is how gradients are packed for the all-reduce, so the
    // loss curves, validation metrics and final parameters agree bit for
    // bit — on the threaded trainer (a real all-reduce per rank) and on
    // the single-thread simulator.
    let data = DatasetConfig::ex3_like(0.015).generate(3, 44);
    let prepared = prepare_graphs(&data);
    let (train_set, val) = prepared.split_at(2);
    let c = cfg();
    let sampler = SamplerKind::Bulk { k: 2 };
    let mut arms = Vec::new();
    for p in [2usize, 3] {
        let ddp = |strategy| TrainSpec::ddp(&c, sampler, DdpConfig::new(p, strategy));
        arms.push((format!("threaded p={p}"), run_both(ddp, train_set, val)));
    }
    let simulated = |strategy| TrainSpec::simulated_ddp(&c, sampler, DdpConfig::new(4, strategy));
    arms.push(("simulated p=4".into(), run_both(simulated, train_set, val)));
    for (arm, [per, coal]) in &arms {
        assert_golden_parity(per, coal);
        // But the modeled communication differs: coalesced is cheaper.
        let t_per: f64 = per.epochs.iter().map(|e| e.timing.comm_virtual_s).sum();
        let t_coal: f64 = coal.epochs.iter().map(|e| e.timing.comm_virtual_s).sum();
        assert!(
            t_coal < t_per,
            "{arm}: coalesced {t_coal} !< per-tensor {t_per}"
        );
    }
}

#[test]
fn comm_account_is_steps_times_the_cost_formula() {
    // Every step runs its collectives after backward, so an epoch's
    // modeled communication is its step count times the α–β price of one
    // step's all-reduces under the strategy.
    let data = DatasetConfig::ex3_like(0.015).generate(3, 44);
    let prepared = prepare_graphs(&data);
    let (train_set, val) = prepared.split_at(2);
    let c = cfg();
    let sampler = SamplerKind::Bulk { k: 2 };
    let cost = CommCostModel::nvlink3();
    for (p, threaded) in [(2usize, true), (4, false)] {
        let spec = |strategy| {
            let ddp = DdpConfig::new(p, strategy);
            if threaded {
                TrainSpec::ddp(&c, sampler, ddp)
            } else {
                TrainSpec::simulated_ddp(&c, sampler, ddp)
            }
        };
        for (strategy, r) in [AllReduceStrategy::PerTensor, AllReduceStrategy::Coalesced]
            .into_iter()
            .zip(run_both(spec, train_set, val))
        {
            let tensor_bytes: Vec<usize> = r.model.params().iter().map(|t| t.numel() * 4).collect();
            let per_step = match strategy {
                AllReduceStrategy::PerTensor => cost.per_tensor_time(&tensor_bytes, p),
                AllReduceStrategy::Coalesced => cost.coalesced_time(&tensor_bytes, p),
            };
            for e in &r.epochs {
                assert!(
                    e.steps > 0,
                    "p={p} {strategy:?}: epoch {} ran no steps",
                    e.epoch
                );
                let expect = e.steps as f64 * per_step;
                assert!(
                    (e.timing.comm_virtual_s - expect).abs() < 1e-12,
                    "p={p} threaded={threaded} {strategy:?} epoch {}: {} vs {expect}",
                    e.epoch,
                    e.timing.comm_virtual_s
                );
            }
        }
    }
}

#[test]
fn worker_counts_all_train_stably() {
    let data = DatasetConfig::ex3_like(0.015).generate(3, 66);
    let prepared = prepare_graphs(&data);
    let (train_set, val) = prepared.split_at(2);
    let c = cfg();
    for p in [1usize, 2, 4] {
        let ddp = DdpConfig::new(p, AllReduceStrategy::Coalesced);
        let spec = TrainSpec::ddp(&c, SamplerKind::Bulk { k: 2 * p }, ddp);
        let r = train(&spec, train_set, val).unwrap();
        assert_eq!(r.epochs.len(), c.epochs, "p={p}");
        for e in &r.epochs {
            assert!(
                e.train_loss.is_finite(),
                "p={p} epoch {} loss {}",
                e.epoch,
                e.train_loss
            );
        }
        if p == 1 {
            assert_eq!(r.epochs[0].timing.comm_virtual_s, 0.0);
        } else {
            assert!(
                r.epochs[0].timing.comm_virtual_s > 0.0,
                "p={p} no comm modeled"
            );
        }
    }
}

/// Loss-curve parity must be bit-for-bit: compare f32 bit patterns, not
/// tolerances.
fn assert_golden_parity(a: &TrainResult, b: &TrainResult) {
    assert_eq!(a.epochs.len(), b.epochs.len());
    for (x, y) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(
            x.train_loss.to_bits(),
            y.train_loss.to_bits(),
            "epoch {}: loss {} vs {} (not bit-identical)",
            x.epoch,
            x.train_loss,
            y.train_loss
        );
        assert_eq!(x.val_precision.to_bits(), y.val_precision.to_bits());
        assert_eq!(x.val_recall.to_bits(), y.val_recall.to_bits());
    }
    for (p, q) in a.model.params().iter().zip(b.model.params().iter()) {
        let pb: Vec<u32> = p.value.data().iter().map(|v| v.to_bits()).collect();
        let qb: Vec<u32> = q.value.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(pb, qb, "param {} diverged", p.name());
    }
}
