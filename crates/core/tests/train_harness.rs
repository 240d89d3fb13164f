//! Unified-training-harness tests: golden-seed determinism (the ported
//! trainers must reproduce the pre-harness per-epoch loss curves
//! bit-for-bit), the GNN epoch loop's step count per schedule, hook
//! dispatch order, early stopping, and store faults.

use std::cell::RefCell;
use std::convert::Infallible;
use std::rc::Rc;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use rand::{rngs::StdRng, SeedableRng};
use trkx_core::train::{
    EarlyStoppingHook, Engine, EpochReport, EpochStats, Hook, Monitor, TelemetryHook, TrainError,
    TrainLoop, TrainStep, ValMetrics,
};
use trkx_core::{
    prepare_graphs, train, train_minibatch_opts, BatchingMode, EmbeddingConfig, EmbeddingStage,
    FilterConfig, FilterStage, GnnTrainConfig, PreparedGraph, SamplerKind, TrainResult, TrainSpec,
};
use trkx_ddp::{AllReduceStrategy, DdpConfig};
use trkx_detector::{simulate_event, vertex_features, DatasetConfig, DetectorGeometry, GunConfig};
use trkx_nn::{Adam, Param};
use trkx_sampling::ShadowConfig;
use trkx_sparse::StoreError;
use trkx_tensor::Matrix;

#[path = "../../sampling/tests/support/faulty_store.rs"]
mod faulty_store;
use faulty_store::{faulty_graph, mark_this_thread, Fault, FaultyStore, STORE_NAME};

// ---------------------------------------------------------------------
// Golden-seed determinism: curves captured from the pre-harness trainers
// (hand-rolled epoch loops) on 2026-08-06; the `TrainLoop` ports must
// reproduce them exactly.
// ---------------------------------------------------------------------

#[test]
fn embedding_curve_matches_pre_harness_golden() {
    let mut rng = StdRng::seed_from_u64(3);
    let ev = simulate_event(
        &DetectorGeometry::default(),
        &GunConfig::default(),
        25,
        0.1,
        &mut rng,
    );
    let x = Matrix::from_vec(ev.num_hits(), 6, vertex_features(&ev, 6));
    let cfg = EmbeddingConfig {
        epochs: 4,
        seed: 5,
        ..Default::default()
    };
    let mut stage = EmbeddingStage::new(6, cfg);
    let reports = stage.train(&[(&ev, &x)]);
    let losses: Vec<f32> = reports.iter().map(|r| r.train_loss).collect();
    assert_eq!(losses, [0.071708046, 0.053873174, 0.054308865, 0.04587508]);
    // No validation pass: val fields are NaN, steps were taken.
    assert!(reports.iter().all(|r| !r.has_val()));
    assert!(reports.iter().all(|r| r.steps == 1));
}

#[test]
fn filter_curve_matches_pre_harness_golden() {
    let graphs = prepare_graphs(&DatasetConfig::ex3_like(0.02).generate(2, 31));
    let cfg = FilterConfig {
        epochs: 4,
        ..Default::default()
    };
    let mut stage = FilterStage::new(6, 2, cfg);
    let reports = stage.train(&graphs);
    let losses: Vec<f32> = reports.iter().map(|r| r.train_loss).collect();
    assert_eq!(losses, [1.2431761, 1.1880053, 1.1489801, 1.116729]);
}

fn tiny_dataset() -> (Vec<PreparedGraph>, Vec<PreparedGraph>) {
    let prepared = prepare_graphs(&DatasetConfig::ex3_like(0.01).generate(3, 21));
    let mut it = prepared.into_iter();
    let train = vec![it.next().unwrap(), it.next().unwrap()];
    let val = vec![it.next().unwrap()];
    (train, val)
}

fn quick_cfg() -> GnnTrainConfig {
    GnnTrainConfig {
        hidden: 16,
        gnn_layers: 2,
        mlp_depth: 2,
        epochs: 3,
        batch_size: 32,
        learning_rate: 2e-3,
        shadow: ShadowConfig {
            depth: 2,
            fanout: 4,
        },
        threshold: 0.5,
        pos_weight: None,
        seed: 3,
    }
}

const FULL_GRAPH_GOLDEN_LOSS: [f32; 4] = [2.3289871, 1.4372379, 1.1029276, 0.9608987];
const FULL_GRAPH_GOLDEN_VAL: [(f64, f64); 4] = [
    (0.2138157894736842, 0.6132075471698113),
    (0.2483221476510067, 0.6981132075471698),
    (0.3352601156069364, 0.5471698113207547),
    (0.46153846153846156, 0.4528301886792453),
];

// The threaded and the simulated DDP trainers share one curve.
const DDP_GOLDEN_LOSS: [f32; 3] = [0.95322967, 0.57031566, 0.3207678];
const DDP_GOLDEN_VAL: [(f64, f64); 3] = [
    (0.4947916666666667, 0.8962264150943396),
    (0.6134969325153374, 0.9433962264150944),
    (0.7482014388489209, 0.9811320754716981),
];

const BASELINE_GOLDEN_LOSS: [f32; 3] = [1.162513, 0.8109751, 0.61612874];

fn curves(r: &TrainResult) -> (Vec<f32>, Vec<(f64, f64)>) {
    let losses = r.epochs.iter().map(|e| e.train_loss).collect();
    let vals = r
        .epochs
        .iter()
        .map(|e| (e.val_precision, e.val_recall))
        .collect();
    (losses, vals)
}

fn param_bits(r: &TrainResult) -> Vec<Vec<u32>> {
    let bits = |p: &&Param| p.value.data().iter().map(|v| v.to_bits()).collect();
    r.model.params().iter().map(bits).collect()
}

/// Losses, validation metrics and final parameters, bit for bit.
fn assert_same_run(a: &TrainResult, b: &TrainResult, what: &str) {
    let bits = |r: &TrainResult| -> Vec<(u32, u64, u64)> {
        let epoch = |e: &EpochReport| {
            (
                e.train_loss.to_bits(),
                e.val_precision.to_bits(),
                e.val_recall.to_bits(),
            )
        };
        r.epochs.iter().map(epoch).collect()
    };
    assert_eq!(bits(a), bits(b), "{what}: curves differ");
    assert_eq!(param_bits(a), param_bits(b), "{what}: parameters differ");
}

#[test]
fn every_mode_reproduces_its_golden() {
    let (train_set, val) = tiny_dataset();
    let mut full_cfg = quick_cfg();
    full_cfg.epochs = 4;
    let mut ddp_cfg = quick_cfg();
    ddp_cfg.batch_size = 16;
    let base_cfg = quick_cfg();
    let bulk = SamplerKind::Bulk { k: 2 };
    let ddp2 = DdpConfig::new(2, AllReduceStrategy::Coalesced);

    // (name, spec, golden losses, golden validation metrics).
    type Case<'a> = (&'a str, TrainSpec<'a>, &'a [f32], Option<&'a [(f64, f64)]>);
    let cases: [Case; 4] = [
        (
            "full-graph",
            TrainSpec::full_graph(&full_cfg, None),
            &FULL_GRAPH_GOLDEN_LOSS,
            Some(&FULL_GRAPH_GOLDEN_VAL),
        ),
        (
            "threaded ddp",
            TrainSpec::ddp(&ddp_cfg, bulk, ddp2),
            &DDP_GOLDEN_LOSS,
            Some(&DDP_GOLDEN_VAL),
        ),
        (
            "simulated ddp",
            TrainSpec::simulated_ddp(&ddp_cfg, bulk, ddp2),
            &DDP_GOLDEN_LOSS,
            Some(&DDP_GOLDEN_VAL),
        ),
        (
            "baseline sampler",
            TrainSpec::ddp(&base_cfg, SamplerKind::Baseline, DdpConfig::single()),
            &BASELINE_GOLDEN_LOSS,
            None,
        ),
    ];
    for (name, spec, golden_loss, golden_val) in cases {
        let run = train(&spec, &train_set, &val).unwrap();
        let (losses, vals) = curves(&run);
        assert_eq!(losses, golden_loss, "{name}");
        if let Some(golden_val) = golden_val {
            assert_eq!(vals, golden_val, "{name}");
        }
        assert_eq!(run.skipped_graphs, 0, "{name}");
        for e in &run.epochs {
            let t = &e.timing;
            assert!(t.train_s > 0.0, "{name}");
            assert!(t.sampling_s > 0.0, "{name}");
            // An epoch samples, trains and communicates back to back.
            let serial = t.sampling_s + t.train_s + t.comm_virtual_s;
            assert!((t.total_s() - serial).abs() < 1e-12, "{name}");
        }
    }
}

#[test]
fn train_minibatch_opts_adapter_is_train_of_a_ddp_spec() {
    let (train_set, val) = tiny_dataset();
    let mut cfg = quick_cfg();
    cfg.batch_size = 16;
    let bulk = SamplerKind::Bulk { k: 2 };
    let ddp = DdpConfig::new(2, AllReduceStrategy::Coalesced);
    let adapter = train_minibatch_opts(&cfg, bulk, BatchingMode::Sync, ddp, &train_set, &val, None);
    let direct = train(&TrainSpec::ddp(&cfg, bulk, ddp), &train_set, &val).unwrap();
    assert_same_run(&adapter, &direct, "adapter");
    assert_eq!(curves(&adapter).0, DDP_GOLDEN_LOSS);
}

#[test]
fn threaded_ddp_early_stops_in_lockstep() {
    // A huge min_delta makes epoch 1 count as stale -> stop after epoch 1.
    // Every rank runs the same hook, so the collectives stay aligned and
    // the truncated run matches the full run's prefix exactly.
    let (train_set, val) = tiny_dataset();
    let mut cfg = quick_cfg();
    cfg.batch_size = 16;
    let ddp = DdpConfig::new(2, AllReduceStrategy::Coalesced);
    let hooks = |_rank: usize| -> Vec<Box<dyn Hook>> {
        vec![Box::new(EarlyStoppingHook::new(
            Monitor::ValPrecision,
            1,
            10.0,
        ))]
    };
    let spec = TrainSpec::ddp(&cfg, SamplerKind::Bulk { k: 2 }, ddp).with_hooks(&hooks);
    let r = train(&spec, &train_set, &val).unwrap();
    assert_eq!(r.epochs.len(), 2);
    let (losses, vals) = curves(&r);
    assert_eq!(losses, DDP_GOLDEN_LOSS[..2]);
    assert_eq!(vals, DDP_GOLDEN_VAL[..2]);
}

#[test]
fn every_schedule_entry_is_one_step_on_every_rank_below_the_world_size() {
    // Batch 2 at p = 3: rank 2's shard of every global batch is empty,
    // and it must still train an (empty) batch per schedule entry, or the
    // threaded ranks' collectives fall out of step. The simulator runs
    // the same three ranks on one thread and must train the same run.
    let (threaded, simulated, full, budgeted, nodes) = within_watchdog("batch 2 at p = 3", || {
        let (train_set, val) = tiny_dataset();
        let mut cfg = quick_cfg();
        cfg.batch_size = 2;
        cfg.epochs = 2;
        let bulk = SamplerKind::Bulk { k: 2 };
        let ddp3 = DdpConfig::new(3, AllReduceStrategy::Coalesced);
        let run = |spec: TrainSpec| train(&spec, &train_set, &val).unwrap();
        let threaded = run(TrainSpec::ddp(&cfg, bulk, ddp3));
        let simulated = run(TrainSpec::simulated_ddp(&cfg, bulk, ddp3));
        // Full-graph: every graph, then only the graphs within the
        // smallest one's activation footprint.
        let icfg = cfg.ignn_config(train_set[0].x.cols(), train_set[0].y.cols());
        let footprint =
            |g: &PreparedGraph| icfg.estimate_activation_floats(g.num_nodes, g.num_edges());
        let smallest = train_set.iter().map(footprint).min();
        let full = run(TrainSpec::full_graph(&cfg, None));
        let budgeted = run(TrainSpec::full_graph(&cfg, smallest));
        let nodes: Vec<usize> = train_set.iter().map(|g| g.num_nodes).collect();
        (threaded, simulated, full, budgeted, nodes)
    });
    assert_same_run(&threaded, &simulated, "threaded vs simulated at p = 3");

    // One optimizer step per global batch: Σ_g ⌈n_g / batch⌉.
    let schedule_len: usize = nodes.iter().map(|n| n.div_ceil(2)).sum();
    for run in [&threaded, &simulated] {
        assert_eq!(run.epochs.len(), 2);
        for e in &run.epochs {
            assert_eq!(e.steps, schedule_len, "epoch {}", e.epoch);
        }
    }
    // Full-graph: one step per usable graph.
    assert_eq!(full.skipped_graphs, 0);
    assert!(budgeted.skipped_graphs < nodes.len());
    for run in [&full, &budgeted] {
        let usable = nodes.len() - run.skipped_graphs;
        assert!(run.epochs.iter().all(|e| e.steps == usable));
    }
}

// ---------------------------------------------------------------------
// Hook mechanics on a scripted TrainStep (no real model needed).
// ---------------------------------------------------------------------

/// Two empty optimizer steps per epoch, with a scripted validation curve.
struct ScriptedStep {
    vals: Vec<f64>,
}

impl TrainStep for ScriptedStep {
    type Error = Infallible;

    fn train_epoch(
        &mut self,
        _epoch: usize,
        engine: &mut Engine,
    ) -> Result<EpochStats, Infallible> {
        let mut steps = 0;
        for _ in 0..2 {
            let mut no_params: Vec<&mut Param> = Vec::new();
            engine.update(&mut no_params);
            steps += 1;
        }
        Ok(EpochStats {
            loss_sum: 1.0,
            loss_denom: 1,
            steps,
            timing: Default::default(),
            cache: None,
        })
    }

    fn validate(&mut self, epoch: usize, _engine: &mut Engine) -> Option<ValMetrics> {
        let v = self.vals[epoch];
        Some(ValMetrics {
            precision: v,
            recall: v,
        })
    }
}

#[test]
fn hooks_fire_in_order() {
    // Early stopping first, a recording telemetry hook after it: the
    // epoch on which early stopping says stop (epoch 2, the first stale
    // one at patience 1) still reaches the telemetry hook, which the
    // CLI's JSONL record depends on.
    let seen = Rc::new(RefCell::new(Vec::new()));
    let log = Rc::clone(&seen);
    let mut step = ScriptedStep {
        vals: vec![0.5, 0.9, 0.4, 0.3, 0.2],
    };
    let Ok(reports) = TrainLoop::new(Adam::new(1e-3), 5)
        .with_hook(EarlyStoppingHook::new(Monitor::ValPrecision, 1, 0.0))
        .with_hook(TelemetryHook::new(move |r| {
            log.borrow_mut().push((r.epoch, r.steps))
        }))
        .run(&mut step);
    assert_eq!(reports.len(), 3);
    assert_eq!(*seen.borrow(), [(0, 2), (1, 2), (2, 2)]);
}

#[test]
fn early_stopping_ends_the_run_after_patience_stale_epochs() {
    // Metric peaks at epoch 1, then goes stale; patience 1 stops the run
    // after epoch 2.
    let mut step = ScriptedStep {
        vals: vec![0.5, 0.9, 0.4, 0.3, 0.2],
    };
    let Ok(reports) = TrainLoop::new(Adam::new(1e-3), 5)
        .with_hook(EarlyStoppingHook::new(Monitor::ValPrecision, 1, 0.0))
        .run(&mut step);
    assert_eq!(
        reports.len(),
        3,
        "patience 1 stops after the first stale epoch"
    );
}

// ---------------------------------------------------------------------
// Store faults: a graph store that fails mid-epoch ends `train` with
// `TrainError::Store` on every rank, never a panic and never a hang. Each
// run gets a watchdog: `train` runs on a thread of its own and a run that
// does not finish in time fails the test instead of hanging CI.
// ---------------------------------------------------------------------

const WATCHDOG: Duration = Duration::from_secs(60);

fn within_watchdog<R: Send + 'static>(what: &str, run: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(run());
    });
    rx.recv_timeout(WATCHDOG)
        .unwrap_or_else(|e| panic!("{what}: no result within {WATCHDOG:?} ({e})"))
}

/// `graphs` with every sampler's undirected store behind a `FaultyStore`:
/// graph 0's fails its `fail_on`-th gather (counting only marked threads'
/// calls if `marked_only`), the others never fail.
fn with_faulty_stores(
    graphs: &[PreparedGraph],
    fault: Fault,
    fail_on: usize,
    marked_only: bool,
) -> (Vec<PreparedGraph>, Arc<FaultyStore>) {
    let mut first = None;
    let wrapped = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let at = if i == 0 { fail_on } else { usize::MAX };
            let (sampler, store) = faulty_graph(&g.sampler, fault, at, marked_only);
            first.get_or_insert(store);
            let (x, y, labels) = (g.x.clone(), g.y.clone(), g.labels.clone());
            PreparedGraph::new(
                g.num_nodes,
                x,
                y,
                g.src.clone(),
                g.dst.clone(),
                labels,
                sampler,
            )
        })
        .collect();
    (wrapped, first.expect("at least one graph"))
}

fn assert_store_fault(r: Result<TrainResult, TrainError>, fault: Fault, what: &str) {
    let Err(TrainError::Store(e)) = r else {
        panic!("{what}: training went through a store fault");
    };
    match (fault, &*e) {
        (Fault::Eio, StoreError::Io(_)) | (Fault::ShortRead, StoreError::Corrupt(_)) => {}
        _ => panic!("{what}: {fault:?} surfaced as {e:?}"),
    }
    let line = TrainError::Store(e).to_string();
    assert!(
        line.contains(STORE_NAME) && !line.contains('\n'),
        "{what}: {line}"
    );
}

#[test]
fn store_fault_ends_single_rank_training_with_err() {
    for fault in [Fault::Eio, Fault::ShortRead] {
        let what = format!("single rank {fault:?}");
        let r = within_watchdog(&what, move || {
            let (train_set, val) = tiny_dataset();
            // Walk depth 2, two batches a chunk: the third gather is the
            // second chunk's first walk step, in epoch 0.
            let (train_set, _) = with_faulty_stores(&train_set, fault, 3, false);
            let cfg = quick_cfg();
            let spec = TrainSpec::ddp(&cfg, SamplerKind::Bulk { k: 2 }, DdpConfig::single());
            train(&spec, &train_set, &val)
        });
        assert_store_fault(r, fault, &what);
    }
}

#[test]
fn store_fault_on_rank_1_ends_threaded_ddp_with_err() {
    // The fault is on rank 1's reads only: rank 0 never sees a failing
    // gather, yet must not wait for rank 1 in a collective forever.
    let (r, rank1_calls) = within_watchdog("threaded p = 2", || {
        let (train_set, val) = tiny_dataset();
        let (train_set, store) = with_faulty_stores(&train_set, Fault::Eio, 2, true);
        let mut cfg = quick_cfg();
        cfg.batch_size = 16;
        let ddp = DdpConfig::new(2, AllReduceStrategy::Coalesced);
        // The trainer builds each rank's hooks on that rank's thread.
        let mark_rank_1 = |rank: usize| -> Vec<Box<dyn Hook>> {
            if rank == 1 {
                mark_this_thread();
            }
            Vec::new()
        };
        let spec = TrainSpec::ddp(&cfg, SamplerKind::Bulk { k: 2 }, ddp).with_hooks(&mark_rank_1);
        let r = train(&spec, &train_set, &val);
        (r, store.calls())
    });
    assert_store_fault(r, Fault::Eio, "threaded p = 2");
    // Rank 1 read nothing after its failing gather.
    assert_eq!(rank1_calls, 2);
}

#[test]
fn store_fault_ends_simulated_ddp_at_p4_with_err() {
    for fault in [Fault::Eio, Fault::ShortRead] {
        let what = format!("simulated p = 4 {fault:?}");
        let r = within_watchdog(&what, move || {
            let (train_set, val) = tiny_dataset();
            let (train_set, _) = with_faulty_stores(&train_set, fault, 3, false);
            let mut cfg = quick_cfg();
            cfg.batch_size = 16;
            let ddp = DdpConfig::new(4, AllReduceStrategy::Coalesced);
            train(
                &TrainSpec::simulated_ddp(&cfg, SamplerKind::Bulk { k: 2 }, ddp),
                &train_set,
                &val,
            )
        });
        assert_store_fault(r, fault, &what);
    }
}

#[test]
fn store_fault_free_faulty_store_trains_bit_identically_to_the_in_core_golden() {
    let (train_set, val) = tiny_dataset();
    let (wrapped, _) = with_faulty_stores(&train_set, Fault::Eio, usize::MAX, false);
    let mut ddp_cfg = quick_cfg();
    ddp_cfg.batch_size = 16;
    let ddp2 = DdpConfig::new(2, AllReduceStrategy::Coalesced);
    let base_cfg = quick_cfg();
    let cases = [
        (
            "threaded ddp",
            TrainSpec::ddp(&ddp_cfg, SamplerKind::Bulk { k: 2 }, ddp2),
            &DDP_GOLDEN_LOSS[..],
        ),
        (
            "baseline sampler",
            TrainSpec::ddp(&base_cfg, SamplerKind::Baseline, DdpConfig::single()),
            &BASELINE_GOLDEN_LOSS[..],
        ),
    ];
    for (name, spec, golden) in cases {
        let incore = train(&spec, &train_set, &val).unwrap();
        let faultless = train(&spec, &wrapped, &val).unwrap();
        assert_same_run(&incore, &faultless, name);
        assert_eq!(curves(&faultless).0, golden, "{name}");
    }
}
