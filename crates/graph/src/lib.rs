//! # trkx-graph
//!
//! Graph algorithms for the tracking pipeline: union-find connected
//! components (stage 5: track building) and the stage-2
//! graph-construction engine — a [`GraphIndex`] over a cell-grid FRNN
//! index, emitting the fixed-radius edge list over the learned
//! embedding space directly in deterministic `(src, dst)` order at any
//! thread count (see [`radius`] for the ordering contract), with the
//! brute-force [`radius_graph_brute`] as its oracle.

pub mod components;
pub mod grid;
pub mod index;
pub mod radius;
pub mod union_find;

pub use components::{connected_components, connected_components_bfs};
pub use grid::GridIndex;
pub use index::GraphIndex;
pub use radius::{radius_graph, radius_graph_brute};
pub use union_find::UnionFind;
