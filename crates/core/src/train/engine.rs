//! The epoch-loop engine: one [`TrainLoop`] drives every trainable stage
//! of the pipeline through a [`TrainStep`] (per-stage forward + loss),
//! centralising the tape/bindings reuse, gradient harvesting, optional
//! DDP gradient synchronisation, gradient clipping, optimizer stepping,
//! and grad zeroing that the five trainers used to hand-roll.
//!
//! The split of responsibilities follows the "sampling is a policy inside
//! a fixed training loop" framing (Serafini & Guan): the engine owns the
//! *mechanics* of a step, the [`TrainStep`] owns the *schedule* — which
//! batches exist in an epoch and what forward pass each one runs.

use crate::train::hooks::{Control, Hook, HookCtx};
use trkx_ddp::{BucketScheduler, CommLink, EpochTiming};
use trkx_nn::{clip_grad_norm, Bindings, Optimizer, Param};
use trkx_tensor::{GradObserver, GradReader, Tape, Var};

/// Pooled step mechanics: owns the reusable [`Tape`]/[`Bindings`] pair,
/// the optimizer, and the gradient-clipping policy. One `Engine` serves
/// one model replica (DDP ranks each own one).
pub struct Engine {
    tape: Tape,
    bind: Bindings,
    opt: Box<dyn Optimizer>,
    clip: Option<f32>,
    /// Persistent scratch for [`Engine::backward_comm`]: per-param
    /// outstanding-binding countdown and per-binding param slot. Kept on
    /// the engine so steady-state overlapped steps allocate nothing.
    countdown: Vec<usize>,
    pair_slot: Vec<usize>,
}

impl Engine {
    pub fn new(opt: impl Optimizer + 'static) -> Self {
        Self {
            tape: Tape::new(),
            bind: Bindings::new(),
            opt: Box::new(opt),
            clip: None,
            countdown: Vec::new(),
            pair_slot: Vec::new(),
        }
    }

    /// Clip the global gradient L2 norm to `max_norm` before each
    /// optimizer step.
    pub fn with_clip(mut self, max_norm: f32) -> Self {
        self.clip = Some(max_norm);
        self
    }

    pub fn opt(&self) -> &dyn Optimizer {
        &*self.opt
    }

    pub fn opt_mut(&mut self) -> &mut dyn Optimizer {
        &mut *self.opt
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

    /// First half of an overlapped-communication step: reset the pooled
    /// tape/bindings and run `forward`, returning its loss node. Split
    /// from [`Engine::backward_comm`] so the model borrow inside
    /// `forward` is released before the caller collects `&mut Param`
    /// references for the backward half.
    pub fn forward_only<F>(&mut self, forward: F) -> Option<Var>
    where
        F: FnOnce(&mut Tape, &mut Bindings) -> Option<Var>,
    {
        self.tape.reset();
        self.bind.reset();
        forward(&mut self.tape, &mut self.bind)
    }

    /// Second half of an overlapped-communication step: backward runs
    /// with a [`GradObserver`] bridge that accumulates each parameter's
    /// gradient the moment its last-bound leaf finalizes (in binding
    /// order — bit-identical to a post-backward [`Bindings::harvest`])
    /// and reports it to the [`BucketScheduler`], which fires bucket
    /// all-reduces over `link` while backward is still running. After
    /// this returns, `params` hold fully synchronised gradients: finish
    /// the step with [`Engine::apply_with`] (NOT `update_with` — the
    /// bridge already harvested).
    ///
    /// When `loss` is `None` (empty shard), every bucket still flushes at
    /// [`BucketScheduler::finish`], so all ranks issue the same
    /// collective sequence.
    pub fn backward_comm(
        &mut self,
        loss: Option<Var>,
        params: &mut [&mut Param],
        sched: &mut BucketScheduler,
        link: &CommLink,
    ) -> f32 {
        sched.begin_step();
        let value = match loss {
            Some(loss) => {
                let value = self.tape.value(loss).as_scalar();
                let pairs = self.bind.pairs();
                self.countdown.clear();
                self.countdown.resize(params.len(), 0);
                self.pair_slot.clear();
                for &(id, _) in pairs {
                    // Linear scan, not a HashMap: param counts are tens,
                    // and this keeps the steady-state step alloc-free.
                    let slot = params
                        .iter()
                        .position(|p| p.id() == id)
                        .unwrap_or(usize::MAX);
                    self.pair_slot.push(slot);
                    if slot != usize::MAX {
                        self.countdown[slot] += 1;
                    }
                }
                let mut bridge = CommBridge {
                    pairs,
                    pair_slot: &self.pair_slot,
                    countdown: &mut self.countdown,
                    params,
                    sched,
                    link,
                };
                self.tape.backward_with_observer(loss, &mut bridge);
                value
            }
            None => 0.0,
        };
        sched.finish(params, link);
        value
    }

    /// Accumulate the tape's gradients into `params` (no-op if the last
    /// `forward` bound nothing). Split out from [`Engine::apply_with`] for
    /// gradient-accumulation schedules (the simulated-DDP trainer harvests
    /// once per rank, then applies one averaged update).
    pub fn harvest(&mut self, params: &mut [&mut Param]) {
        self.bind.harvest(&self.tape, params);
    }

    /// Finish a step without harvesting: run `sync` (DDP collective or any
    /// gradient transform), clip, step the optimizer, zero the grads.
    /// `sync` runs unconditionally so that every DDP rank makes the same
    /// number of collective calls even when its shard was empty.
    pub fn apply_with<S>(&mut self, params: &mut [&mut Param], sync: S)
    where
        S: FnOnce(&mut [&mut Param]),
    {
        sync(params);
        if let Some(max_norm) = self.clip {
            clip_grad_norm(params, max_norm);
        }
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

/// Backward-pass observer wiring the tape's grad-readiness events to the
/// DDP bucket scheduler. When a leaf finalizes, the bridge decrements its
/// parameter's outstanding-binding countdown; on the last binding it
/// accumulates every binding's tape gradient into `Param::grad` in
/// binding order (exactly what [`Bindings::harvest`] would do) and tells
/// the scheduler that parameter is ready.
struct CommBridge<'s, 'p, 'r> {
    /// `(param id, leaf)` pairs in binding order; leaf indices strictly
    /// increasing, so lookups binary-search by leaf.
    pairs: &'s [(u64, Var)],
    /// Param slot for each pair (`usize::MAX` = leaf not in `params`).
    pair_slot: &'s [usize],
    /// Outstanding bindings per param slot.
    countdown: &'s mut [usize],
    params: &'s mut [&'p mut Param],
    sched: &'s mut BucketScheduler,
    link: &'s CommLink<'r>,
}

impl GradObserver for CommBridge<'_, '_, '_> {
    fn on_grad_final(&mut self, leaf: Var, grads: &GradReader<'_>) {
        let Ok(pi) = self.pairs.binary_search_by_key(&leaf.0, |&(_, v)| v.0) else {
            return; // a leaf that isn't a bound parameter (e.g. features)
        };
        let slot = self.pair_slot[pi];
        if slot == usize::MAX {
            return;
        }
        debug_assert!(self.countdown[slot] > 0, "leaf finalized twice");
        self.countdown[slot] -= 1;
        if self.countdown[slot] == 0 {
            for (k, &(_, v)) in self.pairs.iter().enumerate() {
                if self.pair_slot[k] == slot {
                    if let Some(g) = grads.grad(v) {
                        self.params[slot].grad.add_assign(g);
                    }
                }
            }
            self.sched.param_final(slot, self.params, self.link);
        }
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
    /// Learning rate in effect during the epoch.
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

/// Per-stage training logic plugged into the [`TrainLoop`]: the schedule
/// of steps within an epoch and the epoch-end validation pass. All step
/// *mechanics* go through the [`EpochCtx`].
pub trait TrainStep {
    /// Run one epoch of optimizer steps through `ctx`.
    fn train_epoch(&mut self, epoch: usize, ctx: &mut EpochCtx) -> EpochStats;

    /// Epoch-end validation; `None` when the stage has no validation pass.
    fn validate(&mut self, _epoch: usize) -> Option<ValMetrics> {
        None
    }

    /// The trainable parameters (checkpoint/restore hooks operate on these).
    fn params_mut(&mut self) -> Vec<&mut Param>;
}

/// Handle given to [`TrainStep::train_epoch`]: forwards the [`Engine`]
/// mechanics and fires `on_step_end` hooks after every optimizer step.
pub struct EpochCtx<'a> {
    engine: &'a mut Engine,
    hooks: &'a mut [Box<dyn Hook>],
    epoch: usize,
    steps: usize,
    pending_loss: f32,
    pending_n: usize,
}

impl EpochCtx<'_> {
    /// See [`Engine::forward_backward`].
    pub fn forward_backward<F>(&mut self, forward: F) -> f32
    where
        F: FnOnce(&mut Tape, &mut Bindings) -> Option<Var>,
    {
        let loss = self.engine.forward_backward(forward);
        self.pending_loss += loss;
        self.pending_n += 1;
        loss
    }

    /// See [`Engine::forward_only`]. Pair with
    /// [`EpochCtx::backward_comm`]; no loss is recorded until then.
    pub fn forward_only<F>(&mut self, forward: F) -> Option<Var>
    where
        F: FnOnce(&mut Tape, &mut Bindings) -> Option<Var>,
    {
        self.engine.forward_only(forward)
    }

    /// See [`Engine::backward_comm`]. Follow with
    /// [`EpochCtx::apply_with`] (gradients are already harvested and
    /// synchronised when this returns).
    pub fn backward_comm(
        &mut self,
        loss: Option<Var>,
        params: &mut [&mut Param],
        sched: &mut BucketScheduler,
        link: &CommLink,
    ) -> f32 {
        let loss = self.engine.backward_comm(loss, params, sched, link);
        self.pending_loss += loss;
        self.pending_n += 1;
        loss
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
        self.step_end();
    }

    /// See [`Engine::update`]. Counts as one optimizer step.
    pub fn update(&mut self, params: &mut [&mut Param]) {
        self.engine.update(params);
        self.step_end();
    }

    /// Optimizer steps taken so far this epoch.
    pub fn steps(&self) -> usize {
        self.steps
    }

    fn step_end(&mut self) {
        if !self.hooks.is_empty() {
            // Mean of the forward/backward losses folded into this step
            // (several under gradient accumulation, one normally).
            let loss = self.pending_loss / self.pending_n.max(1) as f32;
            for h in self.hooks.iter_mut() {
                h.on_step_end(self.epoch, self.steps, loss);
            }
        }
        self.steps += 1;
        self.pending_loss = 0.0;
        self.pending_n = 0;
    }
}

/// The unified epoch loop: owns the [`Engine`] and a hook stack, drives a
/// [`TrainStep`] for up to `epochs` epochs, and returns the per-epoch
/// telemetry. Hooks observe every step and epoch and can stop training
/// early ([`Control::Stop`]).
pub struct TrainLoop {
    engine: Engine,
    hooks: Vec<Box<dyn Hook>>,
    epochs: usize,
}

impl TrainLoop {
    pub fn new(opt: impl Optimizer + 'static, epochs: usize) -> Self {
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

    pub fn with_clip(mut self, max_norm: f32) -> Self {
        self.engine = self.engine.with_clip(max_norm);
        self
    }

    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Run the loop to completion (or early stop). Returns one
    /// [`EpochReport`] per epoch actually trained.
    pub fn run(&mut self, step: &mut dyn TrainStep) -> Vec<EpochReport> {
        let mut reports = Vec::with_capacity(self.epochs);
        for epoch in 0..self.epochs {
            if !self.hooks.is_empty() {
                let mut params = step.params_mut();
                let mut ctx = HookCtx {
                    opt: self.engine.opt_mut(),
                    params: &mut params,
                };
                for h in self.hooks.iter_mut() {
                    h.on_epoch_start(epoch, &mut ctx);
                }
            }
            let stats = {
                let mut ctx = EpochCtx {
                    engine: &mut self.engine,
                    hooks: &mut self.hooks,
                    epoch,
                    steps: 0,
                    pending_loss: 0.0,
                    pending_n: 0,
                };
                step.train_epoch(epoch, &mut ctx)
            };
            let val = step.validate(epoch);
            let report = EpochReport {
                epoch,
                train_loss: stats.loss_sum / stats.loss_denom.max(1) as f32,
                val_precision: val.map_or(f64::NAN, |v| v.precision),
                val_recall: val.map_or(f64::NAN, |v| v.recall),
                steps: stats.steps,
                lr: self.engine.opt().learning_rate(),
                timing: stats.timing,
                shard_cache: stats.cache,
            };
            let mut control = Control::Continue;
            if !self.hooks.is_empty() {
                let mut params = step.params_mut();
                let mut ctx = HookCtx {
                    opt: self.engine.opt_mut(),
                    params: &mut params,
                };
                for h in self.hooks.iter_mut() {
                    if h.on_epoch_end(&report, &mut ctx) == Control::Stop {
                        control = Control::Stop;
                    }
                }
            }
            reports.push(report);
            if control == Control::Stop {
                break;
            }
        }
        if !self.hooks.is_empty() {
            let mut params = step.params_mut();
            let mut ctx = HookCtx {
                opt: self.engine.opt_mut(),
                params: &mut params,
            };
            for h in self.hooks.iter_mut() {
                h.on_train_end(&reports, &mut ctx);
            }
        }
        reports
    }
}
