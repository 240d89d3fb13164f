//! # trkx-serve
//!
//! Production inference service for the trained five-stage pipeline —
//! the "millions of users" leg of the ROADMAP north star, following the
//! throughput-oriented serving design of *Accelerating the Inference of
//! the Exa.TrkX Pipeline* (PAPERS.md):
//!
//! - **Model registry** ([`registry`]): versioned, validated
//!   [`trkx_core::PipelineBundle`] artifacts, hot-swappable at runtime
//!   via a `reload` command. Artifacts with mismatched checkpoint
//!   metadata headers are rejected *before* the swap, so a bad reload
//!   never takes down a serving process.
//! - **Request queue** ([`queue`]): bounded, admission-controlled.
//!   Events larger than the configured hit budget are shed immediately
//!   (mirroring the trainer's OOM-skip emulation), and a full queue
//!   sheds instead of growing without bound — every shed is an explicit
//!   response, never a silent drop.
//! - **Micro-batching workers** ([`worker`]): N threads, each owning a
//!   warm [`trkx_tensor::Tape`]/[`trkx_nn::Bindings`] pool, drain the
//!   queue in micro-batches and run
//!   [`TrainedPipeline::reconstruct_batch_pooled`]
//!   (one embedding/filter GEMM per batch, one `EdgePlans` build per
//!   batch reused across all GNN layers). Batched outputs are
//!   bit-identical to per-event [`TrainedPipeline::reconstruct`] at any
//!   batch size and worker count (`tests/batch_parity.rs`).
//! - **Front-ends** ([`server`]): line-delimited JSON over stdin/stdout
//!   or a TCP listener; [`stats`] tracks p50/p95/p99 latency and
//!   events/sec.
//!
//! [`TrainedPipeline::reconstruct`]: trkx_core::TrainedPipeline::reconstruct
//! [`TrainedPipeline::reconstruct_batch_pooled`]: trkx_core::TrainedPipeline::reconstruct_batch_pooled

pub mod proto;
pub mod queue;
pub mod registry;
pub mod server;
pub mod stats;
pub mod worker;

pub use proto::{parse_request, tracks_from_components, Request, Response, TimingsUs};
pub use queue::{Job, RequestQueue, ShedReason};
pub use registry::{LoadedModel, ModelRegistry};
pub use server::{serve_stdio, serve_tcp};
pub use stats::{ServeStats, StatsSnapshot};
pub use worker::{ServeConfig, ServerCore};
