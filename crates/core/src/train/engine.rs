//! The epoch-loop engine: one [`TrainLoop`] drives every trainable stage
//! of the pipeline through a [`TrainStep`] (per-stage forward + loss),
//! centralising the tape/bindings reuse, gradient harvesting, optional
//! DDP gradient synchronisation, the Adam step, and grad zeroing that the
//! five trainers used to hand-roll.
//!
//! The split of responsibilities follows the "sampling is a policy inside
//! a fixed training loop" framing (Serafini & Guan): the engine owns the
//! *mechanics* of a step, the [`TrainStep`] owns the *schedule* — which
//! batches exist in an epoch and what forward pass each one runs.

use crate::train::hooks::{Control, Hook};
use std::sync::Arc;
use trkx_ddp::EpochTiming;
use trkx_nn::{Adam, Bindings, Param};
use trkx_tensor::{Tape, Var};

/// Pooled step mechanics: owns the reusable [`Tape`]/[`Bindings`] pair
/// and the [`Adam`] optimizer. One `Engine` serves one model replica (DDP
/// ranks each own one).
pub struct Engine {
    tape: Tape,
    bind: Bindings,
    opt: Adam,
}

impl Engine {
    pub fn new(opt: Adam) -> Self {
        Self {
            tape: Tape::new(),
            bind: Bindings::new(),
            opt,
        }
    }

    /// Reset the pooled tape/bindings and run `forward`; when it yields a
    /// loss, read its value and backpropagate. Returns the loss value
    /// (0.0 when `forward` declines to produce one, e.g. an empty batch).
    pub fn forward_backward<F>(&mut self, forward: F) -> f32
    where
        F: FnOnce(&mut Tape, &mut Bindings) -> Option<Var>,
    {
        self.tape.reset();
        self.bind.reset();
        match forward(&mut self.tape, &mut self.bind) {
            Some(loss) => {
                let value = self.tape.value(loss).as_scalar();
                self.tape.backward(loss);
                value
            }
            None => 0.0,
        }
    }

    /// Reset the pooled tape/bindings and run `forward` alone, returning
    /// its loss node without backpropagating. Kept because the frozen
    /// `benchmark/` package times a forward pass on its own with it.
    pub fn forward_only<F>(&mut self, forward: F) -> Option<Var>
    where
        F: FnOnce(&mut Tape, &mut Bindings) -> Option<Var>,
    {
        self.tape.reset();
        self.bind.reset();
        forward(&mut self.tape, &mut self.bind)
    }

    /// Accumulate the tape's gradients into `params` (no-op if the last
    /// `forward` bound nothing). Split out from [`Engine::apply_with`] for
    /// gradient-accumulation schedules (the simulated-DDP trainer harvests
    /// once per rank, then applies one averaged update).
    pub fn harvest(&mut self, params: &mut [&mut Param]) {
        self.bind.harvest(&self.tape, params);
    }

    /// Finish a step without harvesting: run `sync` (DDP collective or any
    /// gradient transform), step the optimizer, zero the grads.
    /// `sync` runs unconditionally so that every DDP rank makes the same
    /// number of collective calls even when its shard was empty.
    pub fn apply_with<S>(&mut self, params: &mut [&mut Param], sync: S)
    where
        S: FnOnce(&mut [&mut Param]),
    {
        sync(params);
        self.opt.step(params);
        for p in params.iter_mut() {
            p.zero_grad();
        }
    }

    /// The canonical step tail: harvest + [`Engine::apply_with`].
    pub fn update_with<S>(&mut self, params: &mut [&mut Param], sync: S)
    where
        S: FnOnce(&mut [&mut Param]),
    {
        self.harvest(params);
        self.apply_with(params, sync);
    }

    pub fn update(&mut self, params: &mut [&mut Param]) {
        self.update_with(params, |_| {});
    }
}

/// Shard-cache traffic for one epoch report: cumulative hit / miss /
/// eviction totals aggregated over every sharded graph store the stage
/// trains on (counters are monotone since store open, so deltas between
/// consecutive epochs give per-epoch traffic). `None` — and absent from
/// the telemetry JSONL — when every graph is in-core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct ShardCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl From<trkx_sparse::CacheCounters> for ShardCacheStats {
    fn from(c: trkx_sparse::CacheCounters) -> Self {
        Self {
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
        }
    }
}

/// What a stage's epoch reports back to the engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochStats {
    /// Sum of per-step losses (the step decides what counts).
    pub loss_sum: f32,
    /// Divisor for the mean loss — stage-specific (events for the
    /// embedding, graphs for the filter, optimizer steps for minibatch
    /// training), preserved exactly from the pre-harness trainers.
    pub loss_denom: usize,
    /// Optimizer steps taken this epoch.
    pub steps: usize,
    /// Sampling / train / modeled-communication breakdown.
    pub timing: EpochTiming,
    /// Shard-cache counters when training over sharded graph stores.
    pub cache: Option<ShardCacheStats>,
}

/// Epoch-end validation metrics.
#[derive(Debug, Clone, Copy)]
pub struct ValMetrics {
    pub precision: f64,
    pub recall: f64,
}

/// One epoch's structured telemetry record: what the bench bins, the CLI,
/// and the hooks consume.
#[derive(Debug, Clone, serde::Serialize)]
pub struct EpochReport {
    pub epoch: usize,
    pub train_loss: f32,
    /// NaN when the stage ran no validation pass this epoch.
    pub val_precision: f64,
    /// NaN when the stage ran no validation pass this epoch.
    pub val_recall: f64,
    /// Optimizer steps taken.
    pub steps: usize,
    /// The optimizer's (fixed) learning rate.
    pub lr: f32,
    pub timing: EpochTiming,
    /// Shard-cache counters (cumulative since store open); omitted from
    /// serialized telemetry when the graphs are fully in-core.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub shard_cache: Option<ShardCacheStats>,
}

impl EpochReport {
    /// Validation F1 (NaN without validation).
    pub fn val_f1(&self) -> f64 {
        let (p, r) = (self.val_precision, self.val_recall);
        if p + r > 0.0 {
            2.0 * p * r / (p + r)
        } else {
            0.0
        }
    }

    /// Whether a validation pass ran this epoch.
    pub fn has_val(&self) -> bool {
        !self.val_precision.is_nan()
    }
}

/// Why a training run ended without a model.
#[derive(Debug)]
pub enum TrainError {
    /// A sampler could not read a training graph's row store. The
    /// sampler recorded the fault and read empty rows from then on; the
    /// epoch finished on empty batches so every DDP rank made the same
    /// collective calls, and then every rank ended the run alike.
    Store(Arc<trkx_sparse::StoreError>),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Store(e) => write!(f, "graph store fault: {e}"),
        }
    }
}

// The store error is part of the message, so it is not also a source.
impl std::error::Error for TrainError {}

/// Per-stage training logic plugged into the [`TrainLoop`]: the schedule
/// of steps within an epoch and the epoch-end validation pass. All step
/// *mechanics* go through the [`EpochCtx`].
pub trait TrainStep {
    /// What ends a run early: [`TrainError`] for a stage that samples
    /// from a graph store, [`std::convert::Infallible`] for one that
    /// cannot fail.
    type Error;

    /// Run one epoch of optimizer steps through `ctx`. An `Err` ends the
    /// run before the epoch's validation pass and hooks.
    fn train_epoch(&mut self, epoch: usize, ctx: &mut EpochCtx) -> Result<EpochStats, Self::Error>;

    /// Epoch-end validation; `None` when the stage has no validation pass.
    fn validate(&mut self, _epoch: usize) -> Option<ValMetrics> {
        None
    }
}

/// Handle given to [`TrainStep::train_epoch`]: forwards the [`Engine`]
/// mechanics and counts the epoch's optimizer steps.
pub struct EpochCtx<'a> {
    engine: &'a mut Engine,
    steps: usize,
}

impl EpochCtx<'_> {
    /// See [`Engine::forward_backward`].
    pub fn forward_backward<F>(&mut self, forward: F) -> f32
    where
        F: FnOnce(&mut Tape, &mut Bindings) -> Option<Var>,
    {
        self.engine.forward_backward(forward)
    }

    /// See [`Engine::harvest`].
    pub fn harvest(&mut self, params: &mut [&mut Param]) {
        self.engine.harvest(params);
    }

    /// See [`Engine::apply_with`]. Counts as one optimizer step.
    pub fn apply_with<S>(&mut self, params: &mut [&mut Param], sync: S)
    where
        S: FnOnce(&mut [&mut Param]),
    {
        self.engine.apply_with(params, sync);
        self.steps += 1;
    }

    /// See [`Engine::update`]. Counts as one optimizer step.
    pub fn update(&mut self, params: &mut [&mut Param]) {
        self.engine.update(params);
        self.steps += 1;
    }

    /// Optimizer steps taken so far this epoch.
    pub fn steps(&self) -> usize {
        self.steps
    }
}

/// The unified epoch loop: owns the [`Engine`] and a hook stack, drives a
/// [`TrainStep`] for up to `epochs` epochs, and returns the per-epoch
/// telemetry. Every hook sees every epoch's report, in stack order; any
/// of them can end training after that epoch ([`Control::Stop`]).
pub struct TrainLoop {
    engine: Engine,
    hooks: Vec<Box<dyn Hook>>,
    epochs: usize,
}

impl TrainLoop {
    pub fn new(opt: Adam, epochs: usize) -> Self {
        Self {
            engine: Engine::new(opt),
            hooks: Vec::new(),
            epochs,
        }
    }

    pub fn with_hook(mut self, hook: impl Hook + 'static) -> Self {
        self.hooks.push(Box::new(hook));
        self
    }

    pub fn with_hooks(mut self, hooks: Vec<Box<dyn Hook>>) -> Self {
        self.hooks.extend(hooks);
        self
    }

    /// Run the loop to completion (or early stop). Returns one
    /// [`EpochReport`] per epoch actually trained, or the first epoch's
    /// error.
    pub fn run<S: TrainStep + ?Sized>(
        &mut self,
        step: &mut S,
    ) -> Result<Vec<EpochReport>, S::Error> {
        let mut reports = Vec::with_capacity(self.epochs);
        for epoch in 0..self.epochs {
            let stats = step.train_epoch(
                epoch,
                &mut EpochCtx {
                    engine: &mut self.engine,
                    steps: 0,
                },
            )?;
            let val = step.validate(epoch);
            let report = EpochReport {
                epoch,
                train_loss: stats.loss_sum / stats.loss_denom.max(1) as f32,
                val_precision: val.map_or(f64::NAN, |v| v.precision),
                val_recall: val.map_or(f64::NAN, |v| v.recall),
                steps: stats.steps,
                lr: self.engine.opt.lr,
                timing: stats.timing,
                shard_cache: stats.cache,
            };
            // Every hook sees the report, including the ones after a hook
            // that asks to stop.
            let mut control = Control::Continue;
            for h in self.hooks.iter_mut() {
                if h.on_epoch_end(&report) == Control::Stop {
                    control = Control::Stop;
                }
            }
            reports.push(report);
            if control == Control::Stop {
                break;
            }
        }
        Ok(reports)
    }
}
