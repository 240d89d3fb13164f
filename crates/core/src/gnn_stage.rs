//! Stage 4: Interaction-GNN edge classification. One trainer, [`train`],
//! runs every schedule the paper compares — full-graph training (the
//! original Exa.TrkX approach, with OOM-skip emulation), minibatch ShaDow
//! training with the PyG-style baseline sampler or matrix-based bulk
//! sampling, and synchronous DDP with per-tensor or coalesced all-reduce
//! (threaded or simulated) — as a [`TrainSpec`] over a single
//! rank step. Produces the per-epoch convergence curves of Figure 4 and
//! the epoch-time breakdowns of Figure 3.
//!
//! Training records each forward on a tape, whose every per-layer
//! activation stays alive for backward. Inference ([`infer_logits_with`],
//! [`evaluate`], epoch-end validation) runs the same forward on the eager
//! executor instead, which frees each buffer after its last read: the
//! memory a full event needs at evaluation is about one layer's, not all
//! of them, and the logits are the same bits.

use crate::train::{
    plan_chunks, BatchingMode, Engine, EpochReport, EpochStats, Hook, SampleChunk, ShardChunks,
    TrainError, TrainLoop, TrainStep, ValMetrics,
};
use rand::{rngs::StdRng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use trkx_ddp::{run_workers, AllReduceStrategy, AllReducer, DdpConfig, EpochTiming};
use trkx_detector::EventGraph;
use trkx_ignn::{IgnnConfig, InteractionGnn};
use trkx_nn::{bce_with_logits, Adam, BinaryStats, Bindings, Eager, Exec};
use trkx_sampling::{
    vertex_batches, BulkShadowSampler, SampledSubgraph, Sampler, SamplerGraph, ShadowConfig,
    ShadowSampler,
};
use trkx_tensor::{EdgePlans, Matrix, Tape, Var};

/// An event graph converted to training-ready matrices plus the sampler
/// view of its adjacency. Built once, reused every epoch.
pub struct PreparedGraph {
    pub num_nodes: usize,
    pub x: Matrix,
    pub y: Matrix,
    pub src: Arc<Vec<u32>>,
    pub dst: Arc<Vec<u32>>,
    pub labels: Vec<f32>,
    pub sampler: SamplerGraph,
    /// Edge plans for the full graph's adjacency, built once here and
    /// reused by every full-graph forward pass (training and inference).
    pub plans: Arc<EdgePlans>,
}

impl PreparedGraph {
    /// Assemble from already-built matrices and index arrays; the edge
    /// plans are derived here so every constructor path caches them.
    pub fn new(
        num_nodes: usize,
        x: Matrix,
        y: Matrix,
        src: Arc<Vec<u32>>,
        dst: Arc<Vec<u32>>,
        labels: Vec<f32>,
        sampler: SamplerGraph,
    ) -> Self {
        let plans = Arc::new(EdgePlans::new(src.clone(), dst.clone(), num_nodes));
        Self {
            num_nodes,
            x,
            y,
            src,
            dst,
            labels,
            sampler,
            plans,
        }
    }

    pub fn from_event_graph(g: &EventGraph) -> Self {
        let sampler = SamplerGraph::new(g.num_nodes, &g.src, &g.dst);
        Self::from_event_graph_with_sampler(g, sampler)
    }

    /// Assemble with a caller-built sampler view — the out-of-core path:
    /// node/edge feature matrices stay in RAM (they are streamed row-wise
    /// by batch gather), while `sampler` reads its adjacency through
    /// whatever [`trkx_sparse::RowStore`]s it was constructed over, e.g.
    /// a pair of on-disk [`trkx_sparse::ShardedCsr`] stores.
    pub fn from_event_graph_with_sampler(g: &EventGraph, sampler: SamplerGraph) -> Self {
        assert_eq!(sampler.num_nodes, g.num_nodes, "sampler/event node count");
        let x = Matrix::from_vec(g.num_nodes, g.num_vertex_features, g.x.clone());
        let y = Matrix::from_vec(g.num_edges(), g.num_edge_features, g.y.clone());
        Self::new(
            g.num_nodes,
            x,
            y,
            Arc::new(g.src.clone()),
            Arc::new(g.dst.clone()),
            g.labels.clone(),
            sampler,
        )
    }

    pub fn num_edges(&self) -> usize {
        self.labels.len()
    }

    /// Gather the sub-matrices a sampled subgraph trains on.
    pub fn subgraph_matrices(&self, sg: &SampledSubgraph) -> (Matrix, Matrix, Vec<f32>) {
        let x_sub = self.x.gather_rows(&sg.node_map);
        let y_sub = self.y.gather_rows(&sg.orig_edge_ids);
        let labels: Vec<f32> = sg
            .orig_edge_ids
            .iter()
            .map(|&id| self.labels[id as usize])
            .collect();
        (x_sub, y_sub, labels)
    }
}

/// Convert a dataset slice.
pub fn prepare_graphs(graphs: &[EventGraph]) -> Vec<PreparedGraph> {
    graphs.iter().map(PreparedGraph::from_event_graph).collect()
}

/// Out-of-core variant of [`prepare_graphs`]: each event's two adjacency
/// orientations are spilled to sharded files under `dir` (never built in
/// core) and read back through per-store LRU caches holding
/// `cache_shards` shards each. Sampling reads fault shards on demand (a
/// cost the epoch's sampling time includes), and the sampled subgraphs,
/// hence the loss curves, are bit-identical to the in-core path.
pub fn prepare_graphs_sharded(
    graphs: &[EventGraph],
    dir: &std::path::Path,
    shard_nodes: usize,
    cache_shards: usize,
) -> std::io::Result<Vec<PreparedGraph>> {
    graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let spec =
                trkx_detector::spill_event_adjacency(g, dir, &format!("event{i}"), shard_nodes)?;
            let open = |p: &std::path::Path| {
                trkx_sparse::ShardedCsr::<u32>::open(p, cache_shards).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })
            };
            let sampler = SamplerGraph::from_stores(
                g.num_nodes,
                Arc::new(open(&spec.directed)?),
                Arc::new(open(&spec.undirected)?),
            );
            Ok(PreparedGraph::from_event_graph_with_sampler(g, sampler))
        })
        .collect()
}

/// Aggregate shard-cache counters across the training graphs' sampler
/// views. `None` when every adjacency is in-core (no counters exist), so
/// telemetry only grows a `shard_cache` field on sharded runs; counters
/// are cumulative since each store was opened.
fn shard_cache_stats(train: &[PreparedGraph]) -> Option<crate::train::ShardCacheStats> {
    let mut total: Option<trkx_sparse::CacheCounters> = None;
    for g in train {
        if let Some(c) = g.sampler.cache_counters() {
            let t = total.get_or_insert_with(trkx_sparse::CacheCounters::default);
            *t = t.merged(c);
        }
    }
    total.map(Into::into)
}

/// Which minibatch sampler implementation to use (Fig. 3/4 compare them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SamplerKind {
    /// Per-batch sequential ShaDow (the PyG-implementation baseline).
    Baseline,
    /// Matrix-based bulk ShaDow, sampling `k` minibatches per call.
    Bulk { k: usize },
}

impl SamplerKind {
    /// Number of schedule batches sampled per `sample_bulk` call.
    pub fn chunk_size(&self) -> usize {
        match self {
            SamplerKind::Baseline => 1,
            SamplerKind::Bulk { k } => (*k).max(1),
        }
    }

    /// Build the sampler implementation behind the unified trait.
    pub fn build(&self, shadow: ShadowConfig) -> Box<dyn Sampler> {
        match self {
            SamplerKind::Baseline => Box::new(ShadowSampler::new(shadow)),
            SamplerKind::Bulk { .. } => Box::new(BulkShadowSampler::new(shadow)),
        }
    }
}

/// GNN-stage hyperparameters (paper §IV-A: batch 256, hidden 64, 30
/// epochs, d = 3, s = 6, 8 GNN layers).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GnnTrainConfig {
    pub hidden: usize,
    pub gnn_layers: usize,
    pub mlp_depth: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    pub shadow: ShadowConfig,
    /// Classification threshold for validation metrics.
    pub threshold: f32,
    /// Positive-class weight; `None` = derive from label balance.
    pub pos_weight: Option<f32>,
    pub seed: u64,
}

impl Default for GnnTrainConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            gnn_layers: 8,
            mlp_depth: 2,
            epochs: 30,
            batch_size: 256,
            learning_rate: 1e-3,
            shadow: ShadowConfig {
                depth: 3,
                fanout: 6,
            },
            threshold: 0.5,
            pos_weight: None,
            seed: 0,
        }
    }
}

impl GnnTrainConfig {
    pub fn ignn_config(&self, node_features: usize, edge_features: usize) -> IgnnConfig {
        IgnnConfig::new(node_features, edge_features)
            .with_hidden(self.hidden)
            .with_gnn_layers(self.gnn_layers)
            .with_mlp_depth(self.mlp_depth)
    }

    fn derive_pos_weight(&self, graphs: &[PreparedGraph]) -> f32 {
        if let Some(w) = self.pos_weight {
            return w;
        }
        let pos: f64 = graphs
            .iter()
            .map(|g| g.labels.iter().filter(|&&l| l > 0.5).count() as f64)
            .sum();
        let total: f64 = graphs.iter().map(|g| g.labels.len() as f64).sum();
        let neg = (total - pos).max(1.0);
        ((neg / pos.max(1.0)) as f32).clamp(1.0, 20.0)
    }
}

/// Outcome of a training run.
pub struct TrainResult {
    pub model: InteractionGnn,
    pub epochs: Vec<EpochReport>,
    /// Full-graph training only: events skipped by the activation-memory
    /// budget (the paper's skip-too-large-graphs behaviour).
    pub skipped_graphs: usize,
}

/// Run full-graph inference, returning per-edge logits. The forward runs
/// on the eager executor over `tape`'s pool: nothing is recorded and
/// each buffer goes back to the pool after its last use, so the working
/// set is about one layer's, and repeated inference recycles the same
/// buffers. `bind` is only cleared (the eager executor binds nothing).
pub fn infer_logits_with(
    tape: &mut Tape,
    bind: &mut Bindings,
    model: &InteractionGnn,
    g: &PreparedGraph,
) -> Vec<f32> {
    bind.reset();
    let mut ex = Eager::new(tape);
    let logits = model.run(&mut ex, &g.x, &g.y, &g.plans);
    ex.value(logits).data().to_vec()
}

/// Edge-classification metrics of `model` over `graphs`.
pub fn evaluate(model: &InteractionGnn, graphs: &[PreparedGraph], threshold: f32) -> BinaryStats {
    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    evaluate_with(&mut tape, &mut bind, model, graphs, threshold)
}

/// [`evaluate`] against a caller-pooled tape/bindings pair (one tape's
/// pool serves all graphs; epoch-end validation reuses the same buffers).
/// Each graph runs through [`infer_logits_with`].
pub fn evaluate_with(
    tape: &mut Tape,
    bind: &mut Bindings,
    model: &InteractionGnn,
    graphs: &[PreparedGraph],
    threshold: f32,
) -> BinaryStats {
    let mut stats = BinaryStats::default();
    for g in graphs {
        let logits = infer_logits_with(tape, bind, model, g);
        stats.merge(&BinaryStats::from_logits(&logits, &g.labels, threshold));
    }
    stats
}

/// Per-rank hook factory: called once per rank thread, on that thread,
/// with the thread's first rank (the single-threaded modes call it once,
/// with 0) to build its hook stack. Hooks must be deterministic functions
/// of the reports they observe — every DDP rank sees identical metrics
/// (replicas stay synchronised), so identical hook stacks make identical
/// stop decisions and the collectives stay aligned.
pub type HookFactory = dyn Fn(usize) -> Vec<Box<dyn Hook>> + Sync;

/// How a run's ranks execute and what joins their gradients.
#[derive(Debug, Clone, Copy)]
pub enum TrainMode {
    /// The original Exa.TrkX baseline: each step feeds one entire event
    /// graph; graphs whose estimated activation footprint exceeds the
    /// budget are skipped, shrinking the effective training set exactly
    /// as on a memory-limited GPU.
    FullGraph {
        activation_budget_floats: Option<usize>,
    },
    /// Minibatch ShaDow training with synchronous data parallelism: one
    /// thread per rank and a real shared-memory all-reduce. `sampler`
    /// picks the Fig. 3 comparison arm; the all-reduce strategy
    /// (per-tensor or coalesced, run after backward) comes from `ddp`.
    Ddp {
        sampler: SamplerKind,
        ddp: DdpConfig,
    },
    /// The same synchronous run with every rank executed in turn on the
    /// calling thread, so wall-clock measurements attribute each rank's
    /// sampling and compute time exactly (with fewer cores than ranks,
    /// threads timeshare and wall time stops meaning per-worker time).
    /// The math is identical to [`TrainMode::Ddp`] bit for bit; the epoch
    /// time reported is the slowest rank's compute plus the α–β model's
    /// all-reduce time, which is what a real P-GPU system observes.
    /// Figure 3 uses it.
    SimulatedDdp {
        sampler: SamplerKind,
        ddp: DdpConfig,
    },
}

/// Everything that describes a GNN training run; [`train`] executes it.
#[derive(Clone, Copy)]
pub struct TrainSpec<'a> {
    pub cfg: &'a GnnTrainConfig,
    pub mode: TrainMode,
    /// `None` attaches no hooks — Figure 4's convergence curves need
    /// every epoch, so early stopping is strictly opt-in. With hooks,
    /// every rank thread runs the validation pass (not just the first),
    /// so metric-driven hooks decide alike on every replica.
    pub hooks: Option<&'a HookFactory>,
}

impl<'a> TrainSpec<'a> {
    fn new(cfg: &'a GnnTrainConfig, mode: TrainMode) -> Self {
        Self {
            cfg,
            mode,
            hooks: None,
        }
    }

    pub fn full_graph(cfg: &'a GnnTrainConfig, activation_budget_floats: Option<usize>) -> Self {
        Self::new(
            cfg,
            TrainMode::FullGraph {
                activation_budget_floats,
            },
        )
    }

    pub fn ddp(cfg: &'a GnnTrainConfig, sampler: SamplerKind, ddp: DdpConfig) -> Self {
        Self::new(cfg, TrainMode::Ddp { sampler, ddp })
    }

    pub fn simulated_ddp(cfg: &'a GnnTrainConfig, sampler: SamplerKind, ddp: DdpConfig) -> Self {
        Self::new(cfg, TrainMode::SimulatedDdp { sampler, ddp })
    }

    pub fn with_hooks(mut self, hooks: &'a HookFactory) -> Self {
        self.hooks = Some(hooks);
        self
    }
}

/// Where an epoch's batches come from.
enum Batches<'a> {
    /// One batch per budget-surviving event graph.
    Full(Vec<&'a PreparedGraph>),
    /// ShaDow minibatches, `chunk_size` schedule entries per sampler
    /// call. One sampler serves every rank thread: `Sampler` is `Sync`
    /// and holds no mutable state.
    Sampled {
        sampler: Box<dyn Sampler>,
        chunk_size: usize,
    },
}

/// What joins the ranks' gradients at the end of a step.
enum Link {
    /// Rank threads meet in a real shared-memory all-reduce.
    Reduce(AllReducer),
    /// Every rank runs on one thread and accumulates into one model
    /// (replicas stay identical under synchronous DDP, so one suffices);
    /// the α–β model charges what a real ring would take.
    Model,
}

/// Train the Interaction GNN as `spec` describes, validating on `val`
/// after every epoch. A graph store that fails while sampling ends the
/// run with [`TrainError::Store`] at the end of that epoch, on every rank
/// alike: the chunks sampled on or after the fault train as empty batches
/// until then, so the ranks' collectives stay aligned.
pub fn train(
    spec: &TrainSpec,
    train: &[PreparedGraph],
    val: &[PreparedGraph],
) -> Result<TrainResult, TrainError> {
    assert!(!train.is_empty(), "need training events");
    let cfg = spec.cfg;
    let icfg = cfg.ignn_config(train[0].x.cols(), train[0].y.cols());
    let init_model = InteractionGnn::new(icfg.clone(), &mut StdRng::seed_from_u64(cfg.seed));
    let pos_weight = cfg.derive_pos_weight(train);
    let sampled = |kind: SamplerKind| Batches::Sampled {
        sampler: kind.build(cfg.shadow),
        chunk_size: kind.chunk_size(),
    };

    // A mode is a batch supply, a world size `p`, a thread count (one rank
    // per thread, or every rank on one), the lockstep collectives'
    // configuration (a single worker's where there are none) and a link.
    let single = DdpConfig::single();
    let (batches, p, threads, ddp, link) = match spec.mode {
        TrainMode::FullGraph {
            activation_budget_floats: budget,
        } => {
            let footprint =
                |g: &PreparedGraph| icfg.estimate_activation_floats(g.num_nodes, g.num_edges());
            let fits = |g: &&PreparedGraph| budget.is_none_or(|b| footprint(g) <= b);
            let usable = train.iter().filter(fits).collect();
            (Batches::Full(usable), 1, 1, single, Link::Model)
        }
        TrainMode::Ddp { sampler, ddp } => {
            let reducer = AllReducer::new(ddp.workers, ddp.cost_model);
            let p = ddp.workers;
            (sampled(sampler), p, p, ddp, Link::Reduce(reducer))
        }
        TrainMode::SimulatedDdp { sampler, ddp } => {
            (sampled(sampler), ddp.workers, 1, ddp, Link::Model)
        }
    };
    // The α–β price of one step's collectives (zero at one worker).
    let tensor_bytes: Vec<usize> = init_model.params().iter().map(|t| t.numel() * 4).collect();
    let step_comm_s = match ddp.strategy {
        AllReduceStrategy::PerTensor => ddp.cost_model.per_tensor_time(&tensor_bytes, ddp.workers),
        AllReduceStrategy::Coalesced => ddp.cost_model.coalesced_time(&tensor_bytes, ddp.workers),
    };

    let results = run_workers(threads, |thread| {
        let local = p / threads;
        let mut step = RankStep {
            spec,
            ranks: thread * local..(thread + 1) * local,
            p,
            model: init_model.clone(),
            batches: &batches,
            link: &link,
            strategy: ddp.strategy,
            step_comm_s,
            train,
            val,
            pos_weight,
            run_validation: thread == 0 || spec.hooks.is_some(),
        };
        let hooks = spec.hooks.map_or_else(Vec::new, |factory| factory(thread));
        let reports = TrainLoop::new(Adam::new(cfg.learning_rate), cfg.epochs)
            .with_hooks(hooks)
            .run(&mut step)?;
        Ok((step.model, reports))
    });
    let mut results = results.into_iter().collect::<Result<Vec<_>, _>>()?;

    // The first thread's model and metrics; timings are the max across
    // threads (a synchronous step advances at the slowest worker's pace).
    // Deterministic hooks stop every rank at the same epoch.
    let (model, mut epochs) = results.remove(0);
    for (_, reports) in &results {
        for (report, other) in epochs.iter_mut().zip(reports) {
            report.timing.max_merge(&other.timing);
        }
    }
    Ok(TrainResult {
        model,
        epochs,
        skipped_graphs: match &batches {
            Batches::Full(usable) => train.len() - usable.len(),
            Batches::Sampled { .. } => 0,
        },
    })
}

/// [`train`] of [`TrainSpec::ddp`] under its pre-`TrainSpec` signature,
/// kept because the frozen `benchmark/` package calls it. `mode` is an
/// adapter too: [`BatchingMode::Sync`] is the only way to feed a batch.
/// Panics where [`train`] returns a [`TrainError`].
pub fn train_minibatch_opts(
    cfg: &GnnTrainConfig,
    sampler: SamplerKind,
    mode: BatchingMode,
    ddp: DdpConfig,
    train: &[PreparedGraph],
    val: &[PreparedGraph],
    hook_factory: Option<&HookFactory>,
) -> TrainResult {
    let BatchingMode::Sync = mode;
    let mut spec = TrainSpec::ddp(cfg, sampler, ddp);
    spec.hooks = hook_factory;
    self::train(&spec, train, val).unwrap_or_else(|e| panic!("{e}"))
}

/// One training-ready batch: a sampled subgraph's gathered features,
/// labels and edge plans, or a copy of a whole event graph's.
struct Batch {
    x: Matrix,
    y: Matrix,
    labels: Vec<f32>,
    plans: Arc<EdgePlans>,
}

impl Batch {
    /// A whole event graph as one batch. The feature matrices are copied
    /// out of the parent (a per-epoch cost that is negligible next to a
    /// full-graph forward pass); the edge plans are shared.
    fn whole(g: &PreparedGraph) -> Self {
        Self {
            x: g.x.clone(),
            y: g.y.clone(),
            labels: g.labels.clone(),
            plans: g.plans.clone(),
        }
    }

    /// One rank's slice of a chunk: one `sample_bulk` call, then each
    /// subgraph's gathers and edge plans. One batch per schedule entry,
    /// an empty shard's included, so every rank takes the same steps.
    fn sample(train: &[PreparedGraph], sampler: &dyn Sampler, chunk: &SampleChunk) -> Vec<Self> {
        let g = &train[chunk.graph];
        let mut subgraphs = sampler.sample_bulk(&g.sampler, &chunk.batches, chunk.seed);
        // A chunk sampled on or after a store fault is poisoned: its
        // batches go out empty (no labels, so no loss), but they go out,
        // so every DDP rank makes the same collective calls and the
        // trainer reads the fault at the epoch's end.
        if g.sampler.fault().is_some() {
            subgraphs.fill(SampledSubgraph::empty());
        }
        subgraphs
            .into_iter()
            .map(|sg| {
                let (x, y, labels) = g.subgraph_matrices(&sg);
                let (src, dst) = (Arc::new(sg.sub_src), Arc::new(sg.sub_dst));
                let plans = Arc::new(EdgePlans::new(src, dst, x.rows()));
                Self {
                    x,
                    y,
                    labels,
                    plans,
                }
            })
            .collect()
    }

    /// The batch's forward pass and loss; an empty batch (an empty shard
    /// or a poisoned chunk) declines to produce one.
    fn loss<'b>(
        &'b self,
        model: &'b InteractionGnn,
        pos_weight: f32,
    ) -> impl FnOnce(&mut Tape, &mut Bindings) -> Option<Var> + 'b {
        move |tape, bind| {
            if self.labels.is_empty() {
                return None;
            }
            let logits = model.forward_planned(tape, bind, &self.x, &self.y, &self.plans);
            Some(bce_with_logits(tape, logits, &self.labels, pos_weight))
        }
    }
}

/// Run `f`, adding the seconds it took to `busy_s`.
fn timed<T>(busy_s: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *busy_s += t.elapsed().as_secs_f64();
    out
}

/// The per-epoch step schedule: `(graph index, global batch)` pairs, the
/// same on every rank (synchronous DDP).
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

/// The one GNN training step: the ranks one thread runs, the epoch's
/// chunks, and the link that joins their gradients. Each chunk is
/// prepared (sampled, or a whole graph copied out) for every local rank,
/// then stepped through in lockstep: per optimizer step, each local
/// rank's batch goes through forward/backward and is harvested into the
/// thread's model (gradient accumulation when there are several), then
/// the link finishes the step.
struct RankStep<'a> {
    spec: &'a TrainSpec<'a>,
    /// One rank under threaded DDP; all `p` in the simulator.
    ranks: Range<usize>,
    p: usize,
    model: InteractionGnn,
    batches: &'a Batches<'a>,
    link: &'a Link,
    strategy: AllReduceStrategy,
    /// α–β cost of one step's collectives.
    step_comm_s: f64,
    train: &'a [PreparedGraph],
    val: &'a [PreparedGraph],
    pos_weight: f32,
    run_validation: bool,
}

impl TrainStep for RankStep<'_> {
    type Error = TrainError;

    fn train_epoch(&mut self, epoch: usize, engine: &mut Engine) -> Result<EpochStats, TrainError> {
        let (cfg, train, p, local) = (self.spec.cfg, self.train, self.p, self.ranks.len());
        // Each local rank's seconds preparing its batches (the Fig. 3
        // sampling bar).
        let mut sampling_s = vec![0.0f64; local];
        // The epoch's chunks, each prepared just before it is trained: one
        // batch list per local rank.
        let chunks: Box<dyn Iterator<Item = Vec<Vec<Batch>>> + '_> = match self.batches {
            // A full graph is a one-batch chunk; its copy-out counts as
            // its sampling.
            Batches::Full(usable) => {
                let busy_s = &mut sampling_s[0];
                Box::new(
                    usable
                        .iter()
                        .map(move |&g| vec![timed(&mut *busy_s, || vec![Batch::whole(g)])]),
                )
            }
            Batches::Sampled {
                sampler,
                chunk_size,
            } => {
                let schedule = build_schedule(train, cfg.batch_size, cfg.seed, epoch);
                let plan = plan_chunks(&schedule, *chunk_size, cfg.seed, epoch);
                // Each local rank's slice of the global chunk plan.
                let shards: Vec<Vec<SampleChunk>> = self
                    .ranks
                    .clone()
                    .map(|rank| ShardChunks::new(plan.iter().cloned(), rank, p).collect())
                    .collect();
                let busy_s = &mut sampling_s;
                Box::new((0..plan.len()).map(move |c| {
                    (shards.iter().zip(busy_s.iter_mut()))
                        .map(|(shard, s)| timed(s, || Batch::sample(train, &**sampler, &shard[c])))
                        .collect()
                }))
            }
        };

        let (link, strategy) = (self.link, self.strategy);
        let mut rank_s = vec![0.0f64; local];
        let (mut tail_s, mut comm_s, mut loss_sum, mut steps) = (0.0f64, 0.0f64, 0.0f32, 0usize);
        for chunk in chunks {
            for b in 0..chunk[0].len() {
                for (k, batches) in chunk.iter().enumerate() {
                    let t = Instant::now();
                    let loss =
                        engine.forward_backward(batches[b].loss(&self.model, self.pos_weight));
                    engine.harvest(&mut self.model.params_mut());
                    if k == 0 {
                        loss_sum += loss;
                    }
                    rank_s[k] += t.elapsed().as_secs_f64();
                }

                let t = Instant::now();
                engine.apply_with(&mut self.model.params_mut(), |params| match link {
                    // The thread's one rank. Runs even when its shard
                    // sampled no edges, so every rank makes the same
                    // number of calls.
                    Link::Reduce(reducer) => {
                        reducer.sync_gradients(self.ranks.start, params, strategy)
                    }
                    Link::Model if p > 1 => {
                        let inv = 1.0 / p as f32;
                        for prm in params.iter_mut() {
                            prm.grad.apply(|v| v * inv);
                        }
                    }
                    // One rank has nothing to average.
                    Link::Model => {}
                });
                steps += 1;
                comm_s += self.step_comm_s;
                tail_s += t.elapsed().as_secs_f64();
            }
        }

        // After the epoch's last collective every rank has sampled all it
        // will, so every rank reads the same (shared) fault slots here and
        // ends the run alike, before validation and hooks.
        if let Some(e) = train.iter().find_map(|g| g.sampler.fault()) {
            return Err(TrainError::Store(e));
        }
        Ok(EpochStats {
            loss_sum,
            loss_denom: steps,
            steps,
            timing: EpochTiming {
                // Real ranks sample concurrently: the slowest one's time.
                sampling_s: sampling_s.iter().copied().fold(0.0, f64::max),
                // The slowest rank's forward/backward plus the step tail
                // every rank runs.
                train_s: rank_s.iter().copied().fold(0.0, f64::max) + tail_s,
                comm_virtual_s: comm_s,
            },
            cache: shard_cache_stats(train),
        })
    }

    /// Validation runs on the thread's step tape, whose pool holds what
    /// the last step parked: it allocates no working set of its own.
    fn validate(&mut self, _epoch: usize, engine: &mut Engine) -> Option<ValMetrics> {
        if !self.run_validation {
            return None;
        }
        let (tape, bind) = engine.pools();
        let stats = evaluate_with(tape, bind, &self.model, self.val, self.spec.cfg.threshold);
        Some(ValMetrics {
            precision: stats.precision(),
            recall: stats.recall(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trkx_ddp::AllReduceStrategy;
    use trkx_detector::DatasetConfig;

    fn tiny_dataset() -> (Vec<PreparedGraph>, Vec<PreparedGraph>) {
        let cfg = DatasetConfig::ex3_like(0.01); // ~130 hits
        let graphs = cfg.generate(3, 21);
        let prepared = prepare_graphs(&graphs);
        let mut it = prepared.into_iter();
        let train: Vec<_> = vec![it.next().unwrap(), it.next().unwrap()];
        let val: Vec<_> = vec![it.next().unwrap()];
        (train, val)
    }

    fn quick_cfg() -> GnnTrainConfig {
        GnnTrainConfig {
            hidden: 16,
            gnn_layers: 2,
            mlp_depth: 2,
            epochs: 2,
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

    #[test]
    fn activation_budget_skips_graphs() {
        let (train_set, val) = tiny_dataset();
        let cfg = quick_cfg();
        let r = train(&TrainSpec::full_graph(&cfg, Some(1)), &train_set, &val).unwrap();
        assert_eq!(r.skipped_graphs, train_set.len());
        // With every graph skipped, the loss is exactly zero.
        assert_eq!(r.epochs[0].train_loss, 0.0);
    }

    #[test]
    #[should_panic(expected = "need training events")]
    fn empty_training_set_is_rejected() {
        let (_, val) = tiny_dataset();
        let cfg = quick_cfg();
        let _ = train(&TrainSpec::full_graph(&cfg, None), &[], &val);
    }

    #[test]
    fn simulated_ddp_scales_training_time_down() {
        // Per-rank compute drops as work is sharded: max-over-ranks train
        // time at P=4 should be well below P=1 for the same schedule.
        let (train_set, val) = tiny_dataset();
        let mut cfg = quick_cfg();
        cfg.epochs = 1;
        cfg.batch_size = 64;
        let train_s = |p: usize| {
            let ddp = DdpConfig::new(p, AllReduceStrategy::Coalesced);
            let spec = TrainSpec::simulated_ddp(&cfg, SamplerKind::Bulk { k: 2 }, ddp);
            train(&spec, &train_set, &val).unwrap().epochs[0]
                .timing
                .train_s
        };
        let (s1, s4) = (train_s(1), train_s(4));
        assert!(
            s4 < s1,
            "train time did not shrink: P=1 {s1:.3}s vs P=4 {s4:.3}s"
        );
    }

    #[test]
    fn sharded_store_training_is_bit_identical_to_in_core() {
        let dcfg = DatasetConfig::ex3_like(0.01);
        let graphs = dcfg.generate(3, 21);
        let incore = prepare_graphs(&graphs);
        let dir = std::env::temp_dir().join(format!("trkx-gnn-sharded-{}", std::process::id()));
        // Small shards + a 2-shard cache force faults and evictions.
        let sharded = prepare_graphs_sharded(&graphs, &dir, 16, 2).unwrap();
        let cfg = quick_cfg();
        let spec = TrainSpec::ddp(&cfg, SamplerKind::Bulk { k: 2 }, DdpConfig::single());
        let a = train(&spec, &incore[..2], &incore[2..]).unwrap();
        let b = train(&spec, &sharded[..2], &sharded[2..]).unwrap();
        for (x, y) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(
                x.train_loss.to_bits(),
                y.train_loss.to_bits(),
                "epoch {} loss diverged: {} vs {}",
                x.epoch,
                x.train_loss,
                y.train_loss
            );
            assert_eq!(x.val_precision.to_bits(), y.val_precision.to_bits());
            assert_eq!(x.val_recall.to_bits(), y.val_recall.to_bits());
        }
        // Telemetry: in-core runs report no cache; sharded runs report
        // real traffic (cold stores guarantee at least one miss).
        assert!(a.epochs.last().unwrap().shard_cache.is_none());
        let cache = b.epochs.last().unwrap().shard_cache.expect("cache stats");
        assert!(cache.misses > 0, "{cache:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inference_logit_count_matches_edges() {
        let (train, _) = tiny_dataset();
        let cfg = quick_cfg();
        let mut rng = StdRng::seed_from_u64(1);
        let model = InteractionGnn::new(cfg.ignn_config(6, 2), &mut rng);
        let logits = infer_logits_with(&mut Tape::new(), &mut Bindings::new(), &model, &train[0]);
        assert_eq!(logits.len(), train[0].num_edges());
    }
}
