//! # trkx-ddp
//!
//! Simulated distributed data parallelism: worker threads stand in for
//! GPUs, a real shared-memory all-reduce performs the gradient math, and
//! an α–β interconnect model (NVLink-3-like constants) accumulates the
//! communication time a real ring all-reduce would cost on a virtual
//! clock. The paper's coalesced-all-reduce optimisation (§III-D) is the
//! [`AllReduceStrategy::Coalesced`] path: identical gradients to
//! [`AllReduceStrategy::PerTensor`], one collective call instead of one
//! per parameter tensor.

pub mod allreduce;
pub mod comm;
pub mod trainer;

pub use allreduce::{run_workers, AllReduceStrategy, AllReducer};
pub use comm::CommCostModel;
pub use trainer::{DdpConfig, EpochTiming};
