//! # trkx-sampling
//!
//! GNN minibatch sampling for the augmented Exa.TrkX pipeline:
//!
//! * [`ShadowSampler`] — the paper's Algorithm 2, a faithful per-batch
//!   sequential ShaDow implementation (the PyG-style baseline of Fig. 3);
//! * [`BulkShadowSampler`] — matrix-based *bulk* ShaDow (§III-C, Fig. 2,
//!   Eq. 1): k minibatches stacked into one `Q` matrix and processed in a
//!   single parallel sweep, with SpGEMM-style induced-subgraph extraction;
//! * batching utilities (shuffled vertex batches, DDP shards).
//!
//! Both samplers implement the unified [`Sampler`] trait, so the training
//! stack treats the choice of sampler as configuration and can drive
//! either from a background prefetch thread. Every sampled edge carries
//! its original edge id so trainers can gather edge features and truth
//! labels from the parent event graph.

pub mod batching;
pub mod bulk;
pub mod sampler;
pub mod shadow;
pub mod subgraph;

pub use batching::{shard_batch, vertex_batches};
pub use bulk::{frontier_matrix, neighborhood_distribution, BulkShadowSampler};
pub use sampler::Sampler;
pub use shadow::{sample_distinct_neighbors, walk_touched_set, ShadowConfig, ShadowSampler};
pub use subgraph::{SampledSubgraph, SamplerGraph};
