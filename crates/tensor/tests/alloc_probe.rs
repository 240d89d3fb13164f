//! Steady-state allocation regression test for the GEMM kernels and
//! the tanh kernel.
//!
//! Packing and parked-accumulator scratch comes from per-thread pooled
//! buffers (`with_scratch`), so after warmup every matmul variant (and
//! tanh, which needs no scratch) performs zero heap allocations into
//! caller-provided outputs — at any thread count and even when the
//! parallel path is forced on. Pins the invariant with a counting
//! global allocator (hence its own test binary).

use rand::SeedableRng;
use trkx_tensor::Matrix;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::steady_state_allocs;

#[global_allocator]
static A: counting_alloc::Counting = counting_alloc::Counting;

#[test]
fn matmul_kernels_allocate_nothing_after_warmup() {
    // IGNN backward shapes: edge count x fan-in/out widths.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let a = Matrix::randn(4096, 66, 1.0, &mut rng);
    let b = Matrix::randn(66, 32, 1.0, &mut rng);
    let g = Matrix::randn(4096, 32, 1.0, &mut rng);
    let mut out = Matrix::zeros(4096, 32);
    let mut wgrad = Matrix::zeros(66, 32);
    let mut xgrad = Matrix::zeros(4096, 66);
    steady_state_allocs("matmul_into", || a.matmul_into(&b, &mut out));
    steady_state_allocs("matmul_acc", || a.matmul_acc(&b, &mut out));
    steady_state_allocs("matmul_tn_acc", || a.matmul_tn_acc(&g, &mut wgrad));
    steady_state_allocs("matmul_nt_acc", || g.matmul_nt_acc(&b, &mut xgrad));
    steady_state_allocs("matmul_nt_into", || g.matmul_nt_into(&b, &mut xgrad));
    let mut h = Matrix::zeros(4096, 32);
    steady_state_allocs("tanh_into", || out.tanh_into(&mut h));
    // A TN reduction of 600 rows, two full KC = 256 blocks and a ragged
    // third: its tiles park their accumulators in pooled scratch between
    // blocks.
    let x = Matrix::randn(600, 96, 1.0, &mut rng);
    let dy = Matrix::randn(600, 16, 1.0, &mut rng);
    let mut wgrad_small = Matrix::zeros(96, 16);
    steady_state_allocs("matmul_tn_acc, 600 deep", || {
        x.matmul_tn_acc(&dy, &mut wgrad_small)
    });
}
