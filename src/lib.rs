//! # trkx
//!
//! A Rust reproduction of *Scaling Graph Neural Networks for Particle
//! Track Reconstruction* (IPPS 2025): the Exa.TrkX five-stage tracking
//! pipeline, augmented with minibatch ShaDow subgraph training,
//! matrix-based bulk sampling, and coalesced all-reduce data parallelism
//! — plus every substrate it needs (tensor/autograd engine, sparse
//! matrix kernels, graph algorithms, a synthetic HEP detector simulator,
//! and a simulated multi-GPU interconnect).
//!
//! This umbrella crate re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`tensor`] | `trkx-tensor` | dense matrices + autograd tape |
//! | [`sparse`] | `trkx-sparse` | COO/CSR, SpGEMM, stacking |
//! | [`nn`] | `trkx-nn` | MLPs, optimizers, losses |
//! | [`graph`] | `trkx-graph` | union-find, grid radius graphs |
//! | [`detector`] | `trkx-detector` | synthetic HEP events + datasets |
//! | [`sampling`] | `trkx-sampling` | sequential and bulk ShaDow |
//! | [`ignn`] | `trkx-ignn` | the Interaction GNN (Algorithm 1) |
//! | [`ddp`] | `trkx-ddp` | simulated DDP + all-reduce cost model |
//! | [`pipeline`] | `trkx-core` | the five-stage pipeline + trainers |
//! | [`serve`] | `trkx-serve` | inference service |
//!
//! ## Quickstart
//!
//! ```
//! use trkx::detector::DatasetConfig;
//! use trkx::pipeline::{prepare_graphs, train, GnnTrainConfig, SamplerKind, TrainSpec};
//! use trkx::ddp::DdpConfig;
//! use trkx::sampling::ShadowConfig;
//!
//! // A small Ex3-like synthetic dataset (Table I shape at 1% scale).
//! let data = DatasetConfig::ex3_like(0.01).generate(3, 42);
//! let graphs = prepare_graphs(&data);
//! let cfg = GnnTrainConfig {
//!     hidden: 16, gnn_layers: 2, epochs: 1, batch_size: 32,
//!     shadow: ShadowConfig { depth: 2, fanout: 4 },
//!     ..Default::default()
//! };
//! // One description, one entry point: `TrainSpec::{full_graph, ddp,
//! // simulated_ddp}` pick the mode.
//! let spec = TrainSpec::ddp(&cfg, SamplerKind::Bulk { k: 4 }, DdpConfig::single());
//! let result = train(&spec, &graphs[..2], &graphs[2..]).unwrap();
//! assert!(result.epochs[0].train_loss.is_finite());
//! ```

pub use trkx_core as pipeline;
pub use trkx_ddp as ddp;
pub use trkx_detector as detector;
pub use trkx_graph as graph;
pub use trkx_ignn as ignn;
pub use trkx_nn as nn;
pub use trkx_sampling as sampling;
pub use trkx_serve as serve;
pub use trkx_sparse as sparse;
pub use trkx_tensor as tensor;
