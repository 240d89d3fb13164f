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
//! - **Workers** ([`worker`]): N threads, each owning a warm
//!   [`trkx_tensor::Tape`]/[`trkx_nn::Bindings`] pool. A worker takes up
//!   to [`MAX_JOBS_PER_WAKE`] waiting requests per wake-up and runs them
//!   one event at a time through [`TrainedPipeline::reconstruct_pooled`],
//!   answering each as soon as it is done. Served outputs are
//!   bit-identical to [`TrainedPipeline::reconstruct`] at any worker
//!   count (`tests/batch_parity.rs`), and a panic inside one request is
//!   answered as that request's error.
//! - **Front-ends** ([`server`]): line-delimited JSON over stdin/stdout
//!   or a TCP listener; [`stats`] tracks p50/p95/p99 latency and
//!   events/sec.
//!
//! [`TrainedPipeline::reconstruct`]: trkx_core::TrainedPipeline::reconstruct
//! [`TrainedPipeline::reconstruct_pooled`]: trkx_core::TrainedPipeline::reconstruct_pooled

pub mod proto;
pub mod queue;
pub mod registry;
pub mod server;
pub mod stats;
pub mod worker;

pub use proto::{parse_request, tracks_from_components, Request, Response, TimingsUs};
pub use queue::{Job, RequestQueue, ShedReason, MAX_JOBS_PER_WAKE};
pub use registry::{LoadedModel, ModelRegistry};
pub use server::{serve_stdio, serve_tcp};
pub use stats::{ServeStats, StatsSnapshot};
pub use worker::{ServeConfig, ServerCore};
