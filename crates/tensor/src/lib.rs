//! # trkx-tensor
//!
//! Dense `f32` matrix kernels and a reverse-mode autograd tape — the
//! compute substrate standing in for PyTorch in this reproduction of
//! *Scaling Graph Neural Networks for Particle Track Reconstruction*
//! (IPPS 2025).
//!
//! The design intentionally mirrors what the paper's memory argument
//! depends on: a [`Tape`] retains every intermediate activation until
//! dropped, so an L-layer Interaction GNN on an `m`-edge graph holds
//! `O(L·m·f)` floats ([`Tape::activation_floats`]), which is what forces
//! the original Exa.TrkX pipeline to skip large events.
//!
//! ```
//! use trkx_tensor::{Matrix, Tape};
//!
//! let mut tape = Tape::new();
//! let w = tape.leaf(Matrix::from_vec(2, 1, vec![0.5, -0.25]));
//! let x = tape.constant(Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
//! let y = tape.matmul(x, w);
//! let loss = tape.mean_all(y);
//! tape.backward(loss);
//! assert_eq!(tape.grad(w).unwrap().shape(), (2, 1));
//! ```

pub mod gradcheck;
pub mod matrix;
pub mod ops;
pub mod plan;
pub mod pool;
pub mod tape;

pub use gradcheck::{gradcheck, GradCheckReport};
#[doc(hidden)]
pub use matrix::force_parallel_kernels;
pub use matrix::{gemm_kernel, Matrix};
pub use ops::{sigmoid, Op};
pub use plan::{EdgePlan, EdgePlans};
pub use pool::BufferPool;
// The one thread budget: a thread doing top-level work (a serve worker
// inside a request, a DDP rank) holds its core with `occupy`, and the
// kernels split over `current_num_threads` = the pool less the cores
// other threads hold. Results never depend on the split.
pub use rayon::{current_num_threads, occupy};
pub use tape::{Tape, Var};
