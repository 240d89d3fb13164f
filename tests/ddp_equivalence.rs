//! DDP integration tests: the two all-reduce strategies are numerically
//! identical (only their modeled cost differs), and multi-worker training
//! remains stable.

use trkx::ddp::{AllReduceStrategy, DdpConfig};
use trkx::detector::DatasetConfig;
use trkx::pipeline::{prepare_graphs, train, GnnTrainConfig, SamplerKind, TrainSpec};
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

#[test]
fn per_tensor_and_coalesced_training_are_numerically_identical() {
    // Same seeds, same sampler streams, same worker count: the only
    // difference is how gradients are packed for the all-reduce. The
    // resulting loss trajectories must match almost exactly.
    let data = DatasetConfig::ex3_like(0.015).generate(3, 44);
    let prepared = prepare_graphs(&data);
    let (train_set, val) = prepared.split_at(2);
    let c = cfg();
    let run = |strategy| {
        let spec = TrainSpec::ddp(&c, SamplerKind::Bulk { k: 2 }, DdpConfig::new(2, strategy));
        train(&spec, train_set, val)
    };
    let per = run(AllReduceStrategy::PerTensor);
    let coal = run(AllReduceStrategy::Coalesced);
    for (a, b) in per.epochs.iter().zip(&coal.epochs) {
        assert!(
            (a.train_loss - b.train_loss).abs() < 1e-4,
            "epoch {}: per-tensor loss {} vs coalesced loss {}",
            a.epoch,
            a.train_loss,
            b.train_loss
        );
        assert!((a.val_precision - b.val_precision).abs() < 1e-6);
        assert!((a.val_recall - b.val_recall).abs() < 1e-6);
    }
    // But the modeled communication differs: coalesced is cheaper.
    let t_per: f64 = per.epochs.iter().map(|e| e.timing.comm_virtual_s).sum();
    let t_coal: f64 = coal.epochs.iter().map(|e| e.timing.comm_virtual_s).sum();
    assert!(t_coal < t_per, "coalesced {t_coal} !< per-tensor {t_per}");
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
        let r = train(&spec, train_set, val);
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
fn assert_golden_parity(a: &trkx::pipeline::TrainResult, b: &trkx::pipeline::TrainResult) {
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

#[test]
fn overlapped_comm_is_bit_identical_to_post_hoc_threaded() {
    // The overlapped path fires bucket all-reduces mid-backward through
    // the grad-ready bridge; the post-hoc path runs one sync_gradients
    // after harvest. Same strategy, same worker count: gradients — and
    // therefore the whole trajectory — must agree bit for bit.
    let data = DatasetConfig::ex3_like(0.015).generate(3, 44);
    let prepared = prepare_graphs(&data);
    let (train_set, val) = prepared.split_at(2);
    let c = cfg();
    for p in [1usize, 2, 3] {
        let ddp = DdpConfig::new(p, AllReduceStrategy::Bucketed { bucket_bytes: 4096 });
        let run = |ddp| {
            train(
                &TrainSpec::ddp(&c, SamplerKind::Bulk { k: 2 }, ddp),
                train_set,
                val,
            )
        };
        let post = run(ddp);
        let over = run(ddp.with_overlap(true));
        assert_golden_parity(&post, &over);
        assert!(over.epochs[0].timing.comm_overlap);
        if p > 1 {
            let e = &over.epochs[0].timing;
            assert!(
                e.comm_exposed_s <= e.comm_virtual_s,
                "p={p}: exposed {} > serial {}",
                e.comm_exposed_s,
                e.comm_virtual_s
            );
        }
    }
}

#[test]
fn overlapped_comm_is_bit_identical_to_post_hoc_simulated() {
    let data = DatasetConfig::ex3_like(0.015).generate(3, 44);
    let prepared = prepare_graphs(&data);
    let (train_set, val) = prepared.split_at(2);
    let c = cfg();
    let run = |ddp| {
        let spec = TrainSpec::simulated_ddp(&c, SamplerKind::Bulk { k: 2 }, ddp);
        train(&spec, train_set, val)
    };
    for p in [1usize, 2, 4] {
        // Several buckets per step at every worker count; at P = 4 also
        // the whole ladder from one all-reduce per tensor to one per step.
        let mut strategies = vec![AllReduceStrategy::Bucketed { bucket_bytes: 4096 }];
        if p == 4 {
            strategies.extend([
                AllReduceStrategy::PerTensor,
                AllReduceStrategy::Bucketed {
                    bucket_bytes: 256 * 1024,
                },
                AllReduceStrategy::Bucketed {
                    bucket_bytes: 1024 * 1024,
                },
                AllReduceStrategy::Coalesced,
            ]);
        }
        let mut final_loss_bits = Vec::new();
        for strategy in strategies {
            let ddp = DdpConfig::new(p, strategy);
            let post = run(ddp);
            let over = run(ddp.with_overlap(true));
            assert_golden_parity(&post, &over);
            for arm in [&post, &over] {
                final_loss_bits.push(arm.epochs.last().unwrap().train_loss.to_bits());
            }
            if p > 1 {
                // The scheduler's serial account reproduces the strategy
                // formula the post-hoc path charges.
                for (x, y) in post.epochs.iter().zip(&over.epochs) {
                    assert!(
                        (x.timing.comm_virtual_s - y.timing.comm_virtual_s).abs() < 1e-12,
                        "{strategy:?} epoch {}: serial accounts disagree: {} vs {}",
                        x.epoch,
                        x.timing.comm_virtual_s,
                        y.timing.comm_virtual_s
                    );
                    assert!(y.timing.comm_exposed_s <= y.timing.comm_virtual_s);
                }
                // Real backward compute runs between bucket fires, so some
                // communication must hide: strictly less exposed than serial.
                let serial: f64 = over.epochs.iter().map(|e| e.timing.comm_virtual_s).sum();
                let exposed: f64 = over.epochs.iter().map(|e| e.timing.comm_exposed_s).sum();
                assert!(
                    exposed < serial,
                    "p={p} {strategy:?}: nothing overlapped (exposed {exposed} == serial {serial})"
                );
            }
        }
        // Bucketing and overlap change the comm schedule, never the math.
        assert!(
            final_loss_bits.windows(2).all(|w| w[0] == w[1]),
            "p={p}: final loss differs across strategy x overlap arms: {final_loss_bits:x?}"
        );
    }
}
