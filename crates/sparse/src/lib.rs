//! # trkx-sparse
//!
//! Sparse-matrix substrate for matrix-based GNN sampling: COO/CSR storage,
//! hash-based SpGEMM, selection-matrix products, induced-subgraph
//! extraction, and the stacking operations (`vstack`, `block_diag`) that
//! bulk ShaDow sampling is defined in terms of (paper §III-C, Eq. 1).
//!
//! Values are generic: `Csr<f32>` for numeric work, `Csr<u32>` for
//! adjacencies whose entries are *original edge ids*, which is how sampled
//! subgraphs stay connected to their edge features and truth labels.

pub mod coo;
pub mod csr;
pub mod extractor;
pub mod sharded;
pub mod spgemm;
pub mod stack;
pub mod store;

pub use coo::Coo;
pub use csr::{adjacency_binary, adjacency_with_edge_ids, Csr, CsrError};
pub use extractor::InducedExtractor;
pub use sharded::{write_csr_sharded, ShardValue, ShardedCsr, ShardedCsrWriter, StoreError};
pub use spgemm::{extract_induced_direct, extract_induced_spgemm, selection_matrix};
pub use stack::{block_diag, vstack};
pub use store::{CacheCounters, RowStore, RowStoreExt, RowView};
