//! Unified training harness: the [`TrainLoop`] epoch-loop engine, the
//! per-stage [`TrainStep`] trait, the [`Hook`] stack (early stopping,
//! telemetry) and the GNN trainer's sampling plan ([`plan_chunks`],
//! [`ShardChunks`]). Every trainable stage of the pipeline — embedding,
//! filter, and the GNN trainer in each of its modes — runs through this
//! one loop; DDP gradient synchronisation plugs in as a per-step `sync`
//! strategy, not a fork of the loop.

pub mod engine;
pub mod hooks;
pub mod source;

pub use engine::{
    Engine, EpochReport, EpochStats, ShardCacheStats, TrainError, TrainLoop, TrainStep, ValMetrics,
};
pub use hooks::{Control, EarlyStoppingHook, Hook, Monitor, TelemetryHook};
pub use source::{plan_chunks, BatchingMode, SampleChunk, ShardChunks};
