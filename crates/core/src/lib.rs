//! # trkx-core
//!
//! The Exa.TrkX particle-track-reconstruction pipeline (paper Fig. 1) and
//! the paper's augmentations, assembled from the substrate crates:
//!
//! 1. **Embedding** ([`embedding`]) — metric-learning MLP pulling
//!    same-particle hits together;
//! 2. **Graph construction** ([`graph_construction`]) — fixed-radius
//!    nearest-neighbour graph in embedding space;
//! 3. **Filter** ([`filter`]) — cheap per-edge MLP pruning confident fakes;
//! 4. **GNN** ([`gnn_stage`]) — Interaction-GNN edge classification: one
//!    trainer ([`train()`] over a [`TrainSpec`]) covering full-graph
//!    training (original pipeline, OOM-skip emulation), PyG-style ShaDow
//!    minibatch training, and the paper's matrix-based bulk ShaDow +
//!    coalesced all-reduce training;
//! 5. **Track building** ([`tracks`]) — connected components over kept
//!    edges, double-majority matching against truth.
//!
//! [`pipeline`] wires all five stages end-to-end.

pub mod checkpoint;
pub mod curves;
pub mod early_stopping;
pub mod embedding;
pub mod filter;
pub mod gnn_stage;
pub mod graph_construction;
pub mod metrics;
pub mod pipeline;
pub mod tracks;
pub mod train;

pub use checkpoint::{
    Checkpoint, CheckpointError, CheckpointMeta, TensorEntry, CHECKPOINT_META_VERSION,
};
pub use curves::{best_f1_threshold, efficiency_vs_pt, roc_auc, threshold_sweep, SweepPoint};
pub use early_stopping::EarlyStopping;
pub use embedding::{EmbeddingConfig, EmbeddingStage};
pub use filter::{FilterConfig, FilterStage};
pub use gnn_stage::{
    evaluate, evaluate_with, infer_logits_with, prepare_graphs, prepare_graphs_sharded, train,
    train_minibatch_opts, GnnTrainConfig, HookFactory, PreparedGraph, SamplerKind, TrainMode,
    TrainResult, TrainSpec,
};
pub use graph_construction::{ConstructedGraph, ConstructionMethod, GraphConstructor};
pub use metrics::{match_tracks, TrackMetrics};
pub use pipeline::{
    train_pipeline, PipelineBundle, PipelineConfig, PipelineReport, StageTimings, TrainedPipeline,
};
pub use tracks::{build_tracks, build_tracks_oracle, TrackBuildResult};
pub use train::{
    plan_chunks, BatchingMode, Control, EarlyStoppingHook, Engine, EpochReport, EpochStats, Hook,
    Monitor, SampleChunk, ShardChunks, TelemetryHook, TrainError, TrainLoop, TrainStep, ValMetrics,
};
