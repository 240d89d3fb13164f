//! `train_dense` and `train_ddp2`: one operation is one complete
//! `train_minibatch_opts` call (model init → epochs of sample / forward /
//! backward / sync / update → validation), the unit a user of the trainer
//! waits for.

use super::{closed_loop, timed, Measured, Workload};
use crate::inputs::{mix, Draw, CTD_SMALL, EX3_TENTH};
use crate::trace::{Layer, Tracer};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use trkx_core::{
    evaluate, plan_chunks, prepare_graphs, train_minibatch_opts, BatchingMode, Engine, EpochReport,
    GnnTrainConfig, PreparedGraph, SamplerKind, ShardChunks,
};
use trkx_ddp::{run_workers, AllReduceStrategy, AllReducer, DdpConfig};
use trkx_ignn::InteractionGnn;
use trkx_nn::{bce_with_logits, Adam};
use trkx_sampling::{vertex_batches, ShadowConfig};
use trkx_tensor::EdgePlans;

/// Frozen parameters of one training workload.
#[derive(Debug, Clone, Copy)]
pub struct TrainParams {
    pub draw: Draw,
    pub train_graphs: usize,
    pub hidden: usize,
    pub gnn_layers: usize,
    pub mlp_depth: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub workers: usize,
    pub warmup_ops: usize,
}

/// Few large steps: one CTD-like graph in 4 steps of 128 roots, each a
/// ~2.5 k-vertex / ~30 k-edge ShaDow subgraph through 4 IGNN layers,
/// plus full-graph validation.
pub const DENSE: TrainParams = TrainParams {
    draw: CTD_SMALL,
    train_graphs: 1,
    hidden: 32,
    gnn_layers: 4,
    mlp_depth: 3,
    epochs: 1,
    batch_size: 128,
    workers: 1,
    warmup_ops: 1,
};

/// Many small steps on two rank threads: two Ex3-like graphs, ~40 steps
/// per rank of 32 roots each, a 2-layer hidden-16 model — per-step
/// overhead, bucket pack/unpack and barriers dominate.
pub const DDP2: TrainParams = TrainParams {
    draw: EX3_TENTH,
    train_graphs: 2,
    hidden: 16,
    gnn_layers: 2,
    mlp_depth: 2,
    epochs: 1,
    batch_size: 64,
    workers: 2,
    warmup_ops: 1,
};

pub const SAMPLER: SamplerKind = SamplerKind::Bulk { k: 4 };

pub struct TrainWorkload {
    pub params: TrainParams,
    pub cfg: GnnTrainConfig,
    pub ddp: DdpConfig,
    pub train: Vec<PreparedGraph>,
    pub val: Vec<PreparedGraph>,
    /// Per-epoch `train_loss` bits of the first call; every later call
    /// must reproduce them exactly.
    reference: Option<Vec<u32>>,
    traced_reference: Option<Vec<u32>>,
    /// Reports of the most recent call (the ladder reads its timings).
    pub last: Vec<EpochReport>,
}

impl TrainParams {
    pub fn config(&self, seed: u64) -> GnnTrainConfig {
        GnnTrainConfig {
            hidden: self.hidden,
            gnn_layers: self.gnn_layers,
            mlp_depth: self.mlp_depth,
            epochs: self.epochs,
            batch_size: self.batch_size,
            shadow: ShadowConfig {
                depth: 2,
                fanout: 4,
            },
            seed: mix(seed, 0x5EED),
            ..Default::default()
        }
    }

    pub fn ddp(&self) -> DdpConfig {
        if self.workers == 1 {
            DdpConfig::single()
        } else {
            DdpConfig::new(self.workers, AllReduceStrategy::Coalesced)
        }
    }
}

impl TrainWorkload {
    pub fn new(params: TrainParams, seed: u64) -> Self {
        let graphs = params.draw.graphs(params.train_graphs + 1, seed);
        let mut train = prepare_graphs(&graphs);
        let val = train.split_off(params.train_graphs);
        Self {
            params,
            cfg: params.config(seed),
            ddp: params.ddp(),
            train,
            val,
            reference: None,
            traced_reference: None,
            last: Vec::new(),
        }
    }

    /// One untraced operation through the product's own entry point:
    /// its time, and whether its losses passed the check.
    pub fn call(&mut self) -> (f64, bool) {
        let (result, ms) = timed(|| {
            train_minibatch_opts(
                &self.cfg,
                SAMPLER,
                BatchingMode::Sync,
                self.ddp,
                &self.train,
                &self.val,
                None,
            )
        });
        self.last = result.epochs;
        let losses: Vec<f32> = self.last.iter().map(|e| e.train_loss).collect();
        (ms, self.check(&losses))
    }

    /// The output check: finite losses, one per epoch, bit-identical to
    /// the first call of this run.
    fn check(&mut self, losses: &[f32]) -> bool {
        let bits: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
        let ok = losses.len() == self.cfg.epochs && losses.iter().all(|l| l.is_finite());
        match &self.reference {
            Some(reference) => ok && *reference == bits,
            None => {
                self.reference = Some(bits);
                ok
            }
        }
    }

    /// The traced loop re-implements the trainer's schedule, so it is
    /// held to its own repeatability check; whether it also reproduces
    /// the untraced call's losses is reported by the ladder
    /// (`bench.traced_loss_match`), not enforced — a later change to the
    /// trainer's internals must not be able to fail the benchmark by
    /// leaving this copy behind.
    fn check_traced(&mut self, losses: &[f32]) -> bool {
        let bits: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
        let ok = losses.len() == self.cfg.epochs && losses.iter().all(|l| l.is_finite());
        match &self.traced_reference {
            Some(reference) => ok && *reference == bits,
            None => {
                self.traced_reference = Some(bits);
                ok
            }
        }
    }

    pub fn final_train_loss(&self) -> f64 {
        self.last
            .last()
            .map_or(f64::NAN, |e| f64::from(e.train_loss))
    }

    /// One traced operation: the same schedule, seeds and arithmetic as
    /// `train_minibatch_opts`, driven step by step through public calls
    /// so each layer's share can be timed from outside. Returns the
    /// per-epoch losses and the number of all-reduce calls made.
    pub fn call_traced(&mut self, tracer: &mut Tracer) -> (Vec<f32>, usize, usize) {
        let op = tracer.begin("train_call", Layer::Core);
        let cfg = &self.cfg;
        let (train, val) = (&self.train, &self.val);
        let p = self.ddp.workers;

        let init = tracer.begin("model_init", Layer::Ignn);
        let (nf, ef) = (train[0].x.cols(), train[0].y.cols());
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let init_model = InteractionGnn::new(cfg.ignn_config(nf, ef), &mut rng);
        tracer.end(init);

        let plan = tracer.begin("schedule", Layer::Sampling);
        let pos_weight = derive_pos_weight(train);
        let schedules: Vec<Vec<(usize, Vec<u32>)>> = (0..cfg.epochs)
            .map(|e| build_schedule(train, cfg.batch_size, cfg.seed, e))
            .collect();
        let sampler = SAMPLER.build(cfg.shadow);
        tracer.end(plan);

        let reducer = AllReducer::new(p, self.ddp.cost_model);
        let strategy = self.ddp.strategy;
        let ranks = tracer.begin("ranks", Layer::Bench);
        let parent: &Tracer = tracer;
        let mut results = run_workers(p, |rank| {
            // Rank 0 stands for the caller's own thread (it *is* that
            // thread at one worker, and the caller is blocked in the join
            // otherwise), so its spans nest on the caller's track; the
            // other ranks run beside it on tracks of their own.
            let mut tr = parent.fork(rank as u32);
            let mut model = init_model.clone();
            let mut engine = Engine::new(Adam::new(cfg.learning_rate));
            let mut losses = Vec::with_capacity(cfg.epochs);
            let mut steps_total = 0usize;
            for (epoch, schedule) in schedules.iter().enumerate() {
                let ep = tr.begin("epoch", Layer::Core);
                let chunks = plan_chunks(schedule, SAMPLER.chunk_size(), cfg.seed, epoch);
                let (mut loss_sum, mut steps) = (0.0f32, 0usize);
                for chunk in ShardChunks::new(chunks.into_iter(), rank, p) {
                    let g = &train[chunk.graph];
                    let subgraphs = tr.span("sample_bulk", Layer::Sampling, || {
                        sampler.sample_bulk(&g.sampler, &chunk.batches, chunk.seed)
                    });
                    for sg in subgraphs {
                        let (x, y, labels) = tr.span("subgraph_matrices", Layer::Core, || {
                            g.subgraph_matrices(&sg)
                        });
                        let plans = tr.span("plan_build", Layer::Tensor, || {
                            Arc::new(EdgePlans::new(
                                Arc::new(sg.sub_src.clone()),
                                Arc::new(sg.sub_dst.clone()),
                                x.rows(),
                            ))
                        });
                        // forward_backward runs the closure (forward +
                        // loss) and then backpropagates; the closure's
                        // end marks the boundary between the two.
                        let fb = tr.begin("forward_backward", Layer::Tensor);
                        let fwd_start = tr.now_ns();
                        let mut fwd_end = fwd_start;
                        let clock = &tr;
                        let loss = engine.forward_backward(|tape, bind| {
                            if labels.is_empty() {
                                return None;
                            }
                            let logits = model.forward_planned(tape, bind, &x, &y, &plans);
                            let loss = bce_with_logits(tape, logits, &labels, pos_weight);
                            fwd_end = clock.now_ns();
                            Some(loss)
                        });
                        tr.record("forward", Layer::Ignn, fwd_start, fwd_end);
                        tr.end(fb);
                        loss_sum += loss;

                        // update_with harvests, runs the collective, then
                        // steps the optimizer and zeroes the grads.
                        let up = tr.begin("update", Layer::Nn);
                        let (mut sync_start, mut sync_end) = (0, 0);
                        let clock = &tr;
                        engine.update_with(&mut model.params_mut(), |params| {
                            sync_start = clock.now_ns();
                            reducer.sync_gradients(rank, params, strategy);
                            sync_end = clock.now_ns();
                        });
                        tr.record("sync_gradients", Layer::Ddp, sync_start, sync_end);
                        tr.end(up);
                        steps += 1;
                    }
                }
                losses.push(loss_sum / steps.max(1) as f32);
                steps_total += steps;
                if rank == 0 {
                    tr.span("validate", Layer::Core, || {
                        std::hint::black_box(evaluate(&model, val, cfg.threshold))
                    });
                }
                tr.end(ep);
            }
            (tr, losses, steps_total)
        });
        let (rank0, losses, steps) = results.remove(0);
        tracer.absorb(rank0, Some(ranks));
        for (tr, _, _) in results {
            tracer.absorb(tr, Some(ranks));
        }
        tracer.end(ranks);
        tracer.end(op);
        (losses, steps, reducer.num_calls())
    }
}

/// `GnnTrainConfig::derive_pos_weight` (private to the crate) for
/// `pos_weight: None`.
fn derive_pos_weight(graphs: &[PreparedGraph]) -> f32 {
    let pos: f64 = graphs
        .iter()
        .map(|g| g.labels.iter().filter(|&&l| l > 0.5).count() as f64)
        .sum();
    let total: f64 = graphs.iter().map(|g| g.labels.len() as f64).sum();
    let neg = (total - pos).max(1.0);
    ((neg / pos.max(1.0)) as f32).clamp(1.0, 20.0)
}

/// The trainer's per-epoch `(graph, global batch)` schedule (private to
/// the crate), seed expression included.
fn build_schedule(
    train: &[PreparedGraph],
    batch_size: usize,
    seed: u64,
    epoch: usize,
) -> Vec<(usize, Vec<u32>)> {
    let mut schedule = Vec::new();
    for (gi, g) in train.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(
            seed ^ (epoch as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) ^ (gi as u64) << 32,
        );
        for batch in vertex_batches(g.num_nodes, batch_size, &mut rng) {
            schedule.push((gi, batch));
        }
    }
    schedule
}

impl Workload for TrainWorkload {
    fn measure(&mut self, seconds: f64) -> Measured {
        let warmup = self.params.warmup_ops;
        closed_loop(seconds, warmup, || self.call())
    }

    fn measure_traced(&mut self, seconds: f64, tracer: &mut Tracer) -> Measured {
        let mut op_id = 0u64;
        closed_loop(seconds, 0, || {
            op_id += 1;
            tracer.set_op(op_id);
            let ((losses, _, _), ms) = timed(|| self.call_traced(tracer));
            (ms, self.check_traced(&losses))
        })
    }
}
