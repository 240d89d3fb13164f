//! End-to-end orchestration of the five-stage Exa.TrkX pipeline
//! (paper Fig. 1): embedding → graph construction → filter → GNN →
//! connected-components track building.

use crate::embedding::{EmbeddingConfig, EmbeddingStage};
use crate::filter::{FilterConfig, FilterStage};
use crate::gnn_stage::{
    infer_logits_with, prepare_graphs, train, GnnTrainConfig, PreparedGraph, SamplerKind, TrainSpec,
};
use crate::graph_construction::{ConstructionMethod, GraphConstructor};
use crate::metrics::TrackMetrics;
use crate::tracks::{build_tracks, build_tracks_over, TrackBuildResult};
use trkx_ddp::DdpConfig;
use trkx_detector::{edge_features, vertex_features, Event, EventGraph};
use trkx_ignn::InteractionGnn;
use trkx_nn::{Bindings, Eager, Exec};
use trkx_tensor::{Matrix, Tape};

/// Full-pipeline configuration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PipelineConfig {
    pub vertex_features: usize,
    pub edge_features: usize,
    pub embedding: EmbeddingConfig,
    /// Truth-edge efficiency the radius graph must reach.
    pub target_construction_efficiency: f64,
    pub max_radius: f32,
    pub filter: FilterConfig,
    pub gnn: GnnTrainConfig,
    pub gnn_sampler: SamplerKind,
    pub ddp: DdpConfig,
    /// Edge-score threshold for track building.
    pub track_threshold: f32,
    /// Minimum hits per matched track.
    pub min_hits: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            vertex_features: 6,
            edge_features: 2,
            embedding: EmbeddingConfig::default(),
            target_construction_efficiency: 0.96,
            max_radius: 3.0,
            filter: FilterConfig::default(),
            gnn: GnnTrainConfig::default(),
            gnn_sampler: SamplerKind::Bulk { k: 4 },
            ddp: DdpConfig::single(),
            track_threshold: 0.5,
            min_hits: 3,
        }
    }
}

/// A fully trained pipeline, ready for inference on new events.
pub struct TrainedPipeline {
    pub config: PipelineConfig,
    pub embedding: EmbeddingStage,
    pub radius: f32,
    pub filter: FilterStage,
    pub gnn: InteractionGnn,
}

/// Quality summary reported after training.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    pub embedding_loss: f32,
    pub construction_efficiency: f64,
    pub construction_purity: f64,
    pub filter_precision: f64,
    pub filter_recall: f64,
    pub gnn_val_precision: f64,
    pub gnn_val_recall: f64,
    pub val_track_metrics: TrackMetrics,
}

fn features_of(event: &Event, nf: usize) -> Matrix {
    Matrix::from_vec(event.num_hits(), nf, vertex_features(event, nf))
}

/// Build an [`EventGraph`] from a constructed (or pruned) edge set.
fn event_graph_from_edges(
    event: &Event,
    src: Vec<u32>,
    dst: Vec<u32>,
    labels: Vec<f32>,
    nf: usize,
    ef: usize,
) -> EventGraph {
    let x = vertex_features(event, nf);
    let y = edge_features(event, &src, &dst, ef);
    EventGraph {
        num_nodes: event.num_hits(),
        src,
        dst,
        labels,
        x,
        num_vertex_features: nf,
        y,
        num_edge_features: ef,
        event: event.clone(),
    }
}

/// Train all five stages on `train_events`, validating on `val_events`.
pub fn train_pipeline(
    config: PipelineConfig,
    train_events: &[Event],
    val_events: &[Event],
) -> (TrainedPipeline, PipelineReport) {
    assert!(!train_events.is_empty(), "need training events");
    assert!(!val_events.is_empty(), "need validation events");
    let (nf, ef) = (config.vertex_features, config.edge_features);

    // Stage 1: metric-learning embedding.
    let feats: Vec<Matrix> = train_events.iter().map(|e| features_of(e, nf)).collect();
    let mut embedding = EmbeddingStage::new(nf, config.embedding.clone());
    let pairs: Vec<(&Event, &Matrix)> = train_events.iter().zip(feats.iter()).collect();
    let embedding_loss = embedding.train(&pairs).last().map_or(0.0, |r| r.train_loss);

    // One pooled tape/bindings pair serves every inference call below
    // (per-event embeds, filter pruning, track-building logits).
    let mut tape = Tape::new();
    let mut bind = Bindings::new();

    // Stage 2: radius tuned on the first training event, then one pooled
    // constructor builds every training/validation graph (index and
    // scratch buffers are rebuilt per event, not reallocated).
    let mut ctor = GraphConstructor::default();
    let radius = ctor.tune_radius(
        &train_events[0],
        &embedding.embed_with(&mut tape, &mut bind, &feats[0]),
        config.target_construction_efficiency,
        config.max_radius,
    );
    let method = ConstructionMethod::FixedRadius { radius };
    let mut construction_eff = 0.0;
    let mut construction_pur = 0.0;
    let mut train_graphs = Vec::with_capacity(train_events.len());
    for (event, f) in train_events.iter().zip(&feats) {
        let emb = embedding.embed_with(&mut tape, &mut bind, f);
        let g = ctor.construct(event, &emb, method);
        construction_eff += g.edge_efficiency;
        construction_pur += g.edge_purity;
        train_graphs.push(event_graph_from_edges(
            event, g.src, g.dst, g.labels, nf, ef,
        ));
    }
    construction_eff /= train_events.len() as f64;
    construction_pur /= train_events.len() as f64;
    let val_graphs: Vec<EventGraph> = val_events
        .iter()
        .map(|event| {
            let emb = embedding.embed_with(&mut tape, &mut bind, &features_of(event, nf));
            let g = ctor.construct(event, &emb, method);
            event_graph_from_edges(event, g.src, g.dst, g.labels, nf, ef)
        })
        .collect();

    // Stage 3: filter MLP, trained on the constructed graphs.
    let prepared_train = prepare_graphs(&train_graphs);
    let prepared_val = prepare_graphs(&val_graphs);
    let mut filter = FilterStage::new(nf, ef, config.filter.clone());
    filter.train(&prepared_train);
    let filter_stats = filter.evaluate(&prepared_val);

    // Prune graphs with the filter before the GNN.
    let mut prune = |graphs: &[EventGraph], prepared: &[PreparedGraph]| -> Vec<EventGraph> {
        graphs
            .iter()
            .zip(prepared)
            .map(|(g, pg)| {
                let kept = filter.kept_edges_with(&mut tape, &mut bind, pg);
                let src: Vec<u32> = kept.iter().map(|&i| g.src[i]).collect();
                let dst: Vec<u32> = kept.iter().map(|&i| g.dst[i]).collect();
                let labels: Vec<f32> = kept.iter().map(|&i| g.labels[i]).collect();
                event_graph_from_edges(&g.event, src, dst, labels, nf, ef)
            })
            .collect()
    };
    let pruned_train = prune(&train_graphs, &prepared_train);
    let pruned_val = prune(&val_graphs, &prepared_val);

    // Stage 4: the Interaction GNN with minibatch ShaDow training.
    let prepared_pruned_train = prepare_graphs(&pruned_train);
    let prepared_pruned_val = prepare_graphs(&pruned_val);
    let gnn_result = train(
        &TrainSpec::ddp(&config.gnn, config.gnn_sampler, config.ddp),
        &prepared_pruned_train,
        &prepared_pruned_val,
    )
    .expect("in-core graphs have no store to fault");
    let last = gnn_result.epochs.last().expect("at least one epoch");

    // Stage 5: track building on validation events.
    let mut val_track_metrics = TrackMetrics {
        num_true_tracks: 0,
        num_reco_tracks: 0,
        num_matched: 0,
    };
    for (g, pg) in pruned_val.iter().zip(&prepared_pruned_val) {
        let logits = infer_logits_with(&mut tape, &mut bind, &gnn_result.model, pg);
        let r = build_tracks(g, &logits, config.track_threshold, config.min_hits);
        val_track_metrics.merge(&r.metrics);
    }

    let report = PipelineReport {
        embedding_loss,
        construction_efficiency: construction_eff,
        construction_purity: construction_pur,
        filter_precision: filter_stats.precision(),
        filter_recall: filter_stats.recall(),
        gnn_val_precision: last.val_precision,
        gnn_val_recall: last.val_recall,
        val_track_metrics,
    };
    let pipeline = TrainedPipeline {
        config,
        embedding,
        radius,
        filter,
        gnn: gnn_result.model,
    };
    (pipeline, report)
}

/// Serialised form of a trained pipeline: configuration plus one
/// state-dict per learned stage.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct PipelineBundle {
    pub config: PipelineConfig,
    pub radius: f32,
    pub embedding: crate::checkpoint::Checkpoint,
    pub filter: crate::checkpoint::Checkpoint,
    pub gnn: crate::checkpoint::Checkpoint,
}

impl PipelineBundle {
    /// Check the construction radius and every stage checkpoint's
    /// metadata header against the bundle's own configuration — a cheap
    /// pre-flight that rejects shape-mismatched or truncated artifacts
    /// with a clear error before any model is constructed. Headerless
    /// (legacy) checkpoints pass; they are still shape-checked
    /// tensor-by-tensor at apply time.
    pub fn validate(&self) -> Result<(), crate::checkpoint::CheckpointError> {
        // A negative radius would not fail loudly: the grid sweep sees
        // inverted cell ranges while `r * r` stays positive, so stage 2
        // would keep an arbitrary subset of the edges.
        if !(self.radius.is_finite() && self.radius > 0.0) {
            return Err(crate::checkpoint::CheckpointError::Meta(format!(
                "radius {} is not a finite positive number",
                self.radius
            )));
        }
        let (nf, ef) = (self.config.vertex_features, self.config.edge_features);
        self.embedding
            .validate_meta("embedding", nf, 0, self.config.embedding.dim)?;
        self.filter.validate_meta("filter", nf, ef, 1)?;
        self.gnn.validate_meta("gnn", nf, ef, 1)?;
        Ok(())
    }
}

impl TrainedPipeline {
    /// Save every learned stage plus the configuration to one JSON file.
    pub fn save_json(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        use crate::checkpoint::{Checkpoint, CheckpointError};
        let (nf, ef) = (self.config.vertex_features, self.config.edge_features);
        let bundle = PipelineBundle {
            config: self.config.clone(),
            radius: self.radius,
            embedding: Checkpoint::from_params(&self.embedding.mlp.params()).with_meta(
                "embedding",
                nf,
                0,
                self.config.embedding.dim,
            ),
            filter: Checkpoint::from_params(&self.filter.mlp.params())
                .with_meta("filter", nf, ef, 1),
            gnn: Checkpoint::from_params(&self.gnn.params()).with_meta("gnn", nf, ef, 1),
        };
        let json =
            serde_json::to_string(&bundle).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        std::fs::write(path, json).map_err(|e| CheckpointError::Io(e.to_string()))
    }

    /// Restore a pipeline from [`TrainedPipeline::save_json`] output.
    pub fn load_json(
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        use rand::{rngs::StdRng, SeedableRng};
        let json = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let bundle: PipelineBundle =
            serde_json::from_str(&json).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        bundle.validate()?;
        let (nf, ef) = (bundle.config.vertex_features, bundle.config.edge_features);
        let mut embedding = EmbeddingStage::new(nf, bundle.config.embedding.clone());
        bundle.embedding.apply_to(&mut embedding.mlp.params_mut())?;
        let mut filter = FilterStage::new(nf, ef, bundle.config.filter.clone());
        bundle.filter.apply_to(&mut filter.mlp.params_mut())?;
        let mut rng = StdRng::seed_from_u64(bundle.config.gnn.seed);
        let mut gnn = InteractionGnn::new(bundle.config.gnn.ignn_config(nf, ef), &mut rng);
        bundle.gnn.apply_to(&mut gnn.params_mut())?;
        Ok(Self {
            config: bundle.config,
            embedding,
            radius: bundle.radius,
            filter,
            gnn,
        })
    }

    /// Run the full inference pipeline on a new event with fresh pools.
    /// Repeated inference (the serving hot path, or reconstruction over
    /// many events) should hold its own pools and call
    /// [`TrainedPipeline::reconstruct_pooled`].
    pub fn reconstruct(&self, event: &Event) -> TrackBuildResult {
        let (result, _) = self.reconstruct_pooled(
            &mut Tape::new(),
            &mut Bindings::new(),
            &mut self.new_constructor(),
            event,
        );
        result
    }

    /// A fresh stage-2 constructor (`GraphConstructor::default()`; a
    /// method only because the frozen `benchmark/` package calls it).
    /// Long-lived callers (serve workers, reconstruction loops) hold one
    /// and pass it to [`TrainedPipeline::reconstruct_pooled`] so the
    /// spatial index and edge scratch persist across events.
    pub fn new_constructor(&self) -> GraphConstructor {
        GraphConstructor::default()
    }

    /// Inference on one event against caller-pooled tape, bindings and
    /// [`GraphConstructor`] (all three recycle their buffers): embed →
    /// construct → filter → GNN → tracks. The three learned stages run on
    /// the eager executor over the tape's pool (nothing is recorded, and
    /// each buffer is freed after its last use). This is the one inference path;
    /// [`TrainedPipeline::reconstruct`] calls it with fresh pools, and the
    /// output does not depend on what the pools served before
    /// (`crates/serve/tests/batch_parity.rs`).
    pub fn reconstruct_pooled(
        &self,
        tape: &mut Tape,
        bind: &mut Bindings,
        ctor: &mut GraphConstructor,
        event: &Event,
    ) -> (TrackBuildResult, StageTimings) {
        use std::sync::Arc;
        use std::time::Instant;
        let (nf, ef) = (self.config.vertex_features, self.config.edge_features);
        let mut timings = StageTimings::default();

        // Nothing is recorded, so nothing is bound.
        bind.reset();

        // Stage 1: the metric-learning embedding.
        let t0 = Instant::now();
        let x = features_of(event, nf);
        let mut ex = Eager::new(tape);
        let emb = (x.rows() > 0).then(|| self.embedding.forward(&mut ex, &x));
        timings.embed_s = t0.elapsed().as_secs_f64();

        // Stage 2: the fixed-radius graph in embedding space, read from
        // the embedding stage's output buffer.
        let t0 = Instant::now();
        let method = ConstructionMethod::FixedRadius {
            radius: self.radius,
        };
        let no_hits = Matrix::zeros(0, self.config.embedding.dim);
        let cand = ctor.construct(event, emb.map_or(&no_hits, |v| ex.value(v)), method);
        drop(ex);
        let y = Matrix::from_vec(
            cand.num_edges(),
            ef,
            edge_features(event, &cand.src, &cand.dst, ef),
        );
        timings.construct_s = t0.elapsed().as_secs_f64();
        timings.construct_edges = cand.num_edges();

        // Stage 3: the filter MLP over the candidate edges, thresholded
        // straight from its output buffer.
        let t0 = Instant::now();
        let (src, dst) = (Arc::new(cand.src), Arc::new(cand.dst));
        let kept: Vec<u32> = if src.is_empty() {
            Vec::new()
        } else {
            let mut ex = Eager::new(tape);
            let logits = self
                .filter
                .forward(&mut ex, &x, &y, Arc::clone(&src), Arc::clone(&dst));
            let cut = self.filter.logit_cut();
            (ex.value(logits).data().iter().enumerate())
                .filter(|(_, &l)| l > cut)
                .map(|(i, _)| i as u32)
                .collect()
        };
        timings.filter_s = t0.elapsed().as_secs_f64();

        // Stage 4: the GNN over the pruned graph, on the eager executor
        // over the tape's pool (each layer's buffers are freed as the next
        // layer is built). The edge plans are built once here and reused
        // by every GNN layer's gathers and scatters.
        let t0 = Instant::now();
        let pick = |v: &[u32]| -> Arc<Vec<u32>> {
            Arc::new(kept.iter().map(|&i| v[i as usize]).collect())
        };
        let (src, dst) = (pick(&src), pick(&dst));
        let y = y.gather_rows(&kept);
        let mut ex = Eager::new(tape);
        let logits = (!src.is_empty()).then(|| {
            let plans = Arc::new(trkx_tensor::EdgePlans::new(
                Arc::clone(&src),
                Arc::clone(&dst),
                event.num_hits(),
            ));
            self.gnn.run(&mut ex, &x, &y, &plans)
        });
        let logits = logits.map_or(&[][..], |v| ex.value(v).data());
        timings.gnn_s = t0.elapsed().as_secs_f64();

        // Stage 5: connected components over the edges the GNN keeps,
        // read straight from the pruned edge lists and the event's hits.
        let t0 = Instant::now();
        let result = build_tracks_over(
            &event.hits,
            &src,
            &dst,
            logits,
            self.config.track_threshold,
            self.config.min_hits,
        );
        timings.tracks_s = t0.elapsed().as_secs_f64();
        (result, timings)
    }

    /// [`TrainedPipeline::reconstruct_pooled`] over each event in turn,
    /// with the stage timings summed over the events. After the call the
    /// tape records nothing; its pool keeps the buffers for the next call.
    pub fn reconstruct_batch_pooled(
        &self,
        tape: &mut Tape,
        bind: &mut Bindings,
        ctor: &mut GraphConstructor,
        events: &[&Event],
    ) -> (Vec<TrackBuildResult>, StageTimings) {
        let mut total = StageTimings::default();
        let results = events
            .iter()
            .map(|event| {
                let (result, t) = self.reconstruct_pooled(tape, bind, ctor, event);
                total.add(&t);
                result
            })
            .collect();
        (results, total)
    }
}

/// Wall-clock seconds spent in each pipeline stage, for one event (or
/// summed over the events of one [`TrainedPipeline::reconstruct_batch_pooled`]
/// call).
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct StageTimings {
    pub embed_s: f64,
    pub construct_s: f64,
    pub filter_s: f64,
    pub gnn_s: f64,
    pub tracks_s: f64,
    /// Candidate edges built in stage 2 (for edges/sec reporting; absent
    /// in timings serialised before this field existed).
    #[serde(default)]
    pub construct_edges: usize,
}

impl StageTimings {
    /// Add `other`'s stage times and edge count to these.
    fn add(&mut self, other: &StageTimings) {
        self.embed_s += other.embed_s;
        self.construct_s += other.construct_s;
        self.filter_s += other.filter_s;
        self.gnn_s += other.gnn_s;
        self.tracks_s += other.tracks_s;
        self.construct_edges += other.construct_edges;
    }

    /// Sum over all stages.
    pub fn total_s(&self) -> f64 {
        self.embed_s + self.construct_s + self.filter_s + self.gnn_s + self.tracks_s
    }
}
