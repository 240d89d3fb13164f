//! Property tests pinning the blocked GEMM kernels to their reference
//! summation orders, bit for bit.
//!
//! Every test forces the parallel dispatch path with
//! `trkx_tensor::force_parallel_kernels()` (a process-wide switch, so
//! this binary must never be linked into the unit-test harness). The
//! references are naive triple
//! loops that spell out each kernel's pinned per-element order:
//!
//! * `matmul` / `matmul_tn`: one sequential accumulator over ascending
//!   reduction index;
//! * `matmul_nt`: the `dot8` lane structure (8 lanes filled
//!   chunk-ascending, lanes summed in order, sequential tail).
//!
//! Because the references are scalar and thread-independent, bitwise
//! equality at any pool size also proves thread-count invariance;
//! `ci.sh` runs this binary under `RAYON_NUM_THREADS=1` and `=4`. The
//! kernels run whichever micro-kernel arm the CPU selects
//! (`trkx_tensor::gemm_kernel()`), so on an AVX-512 host these pin the
//! AVX-512 arm; the arm-vs-arm unit tests in `matrix.rs` pin every arm
//! the CPU can run directly.
//!
//! Outputs start dirty: the overwriting `matmul_into` and
//! `matmul_nt_into` get a NaN-filled buffer (they must never read
//! `out`), and every accumulating variant a random non-zero one, which
//! must receive each product in exactly one add after its accumulation.
//! Shapes sweep every alignment class around the NR=16 panel width and
//! MR=8 tile height: below, at, and one past each boundary. Row counts
//! also leave every remainder of a group of 8 NT rows over several
//! groups, and reduction depths also cross the GEMM's KC = 256 blocks,
//! where a tile parks its accumulator and resumes it.

use proptest::prelude::*;
use trkx_tensor::{force_parallel_kernels, Matrix};

/// Dimension sweep: ragged/aligned around the MR=8, NR=16 and dot8
/// boundaries, plus the degenerate width 1.
const DIMS: [usize; 8] = [1, 7, 15, 16, 17, 63, 64, 65];

/// Row counts (m): [`DIMS`] plus 8-row groups with remainders 2 to 6.
const ROWS: [usize; 13] = [1, 7, 15, 16, 17, 63, 64, 65, 18, 27, 36, 45, 54];

/// Reduction depths (k): [`DIMS`] plus both sides of one and two
/// KC = 256 blocks and a deep reduction of twelve blocks, the last
/// ragged.
const DEPTHS: [usize; 13] = [1, 7, 15, 16, 17, 63, 64, 65, 255, 256, 257, 515, 3001];

fn pick(dims: &'static [usize]) -> impl Strategy<Value = usize> {
    (0usize..dims.len()).prop_map(move |i| dims[i])
}

fn buf(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, len)
}

/// `a (m x k) * b (k x n)`, one sequential accumulator per element over
/// ascending `kk` — the pinned order of `matmul` and (reading its
/// operand transposed) `matmul_tn`.
fn naive_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for r in 0..m {
        for c in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[r * k + kk] * b[kk * n + c];
            }
            out[r * n + c] = acc;
        }
    }
    out
}

/// The `dot8` lane structure, restated independently: 8 partial lanes
/// filled chunk-ascending, summed left to right, plus a sequential tail.
fn ref_dot8(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let chunks = a.len() / 8;
    for c in 0..chunks {
        for t in 0..8 {
            lanes[t] += a[c * 8 + t] * b[c * 8 + t];
        }
    }
    let mut tail = 0.0f32;
    for t in chunks * 8..a.len() {
        tail += a[t] * b[t];
    }
    lanes.iter().sum::<f32>() + tail
}

fn case() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>, Vec<f32>)> {
    (pick(&ROWS), pick(&DEPTHS), pick(&DIMS)).prop_flat_map(|(m, k, n)| {
        (
            Just(m),
            Just(k),
            Just(n),
            buf(m * k),
            buf(k * n),
            buf(m * n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // `matmul`, `matmul_into`, `matmul_acc` are all bit-identical to
    // the naive ascending-k reference (acc: one final add onto the
    // pre-existing output value).
    #[test]
    fn nn_variants_match_naive((m, k, n, av, bv, pre) in case()) {
        force_parallel_kernels();
        let a = Matrix::from_vec(m, k, av.clone());
        let b = Matrix::from_vec(k, n, bv.clone());
        let naive = naive_nn(&av, &bv, m, k, n);

        let fresh = a.matmul(&b);
        prop_assert_eq!(fresh.data(), &naive[..]);

        let mut into = Matrix::from_vec(m, n, pre.clone());
        a.matmul_into(&b, &mut into);
        prop_assert_eq!(into.data(), &naive[..]);

        // The inputs are finite, so one NaN read from `out` would show.
        let mut nan = Matrix::full(m, n, f32::NAN);
        a.matmul_into(&b, &mut nan);
        prop_assert_eq!(nan.data(), fresh.data());

        let mut acc = Matrix::from_vec(m, n, pre.clone());
        a.matmul_acc(&b, &mut acc);
        let expect: Vec<f32> = pre.iter().zip(&naive).map(|(p, v)| p + v).collect();
        prop_assert_eq!(acc.data(), &expect[..]);
    }

    // `matmul_tn` / `matmul_tn_acc` (self is `k x m`, result `selfᵀ*b`)
    // match the same ascending-k reference on the transposed operand.
    #[test]
    fn tn_variants_match_naive((m, k, n, av, bv, pre) in case()) {
        force_parallel_kernels();
        // Self is k x m; the reference wants the m x k row-major view.
        let at = Matrix::from_vec(k, m, av.clone());
        let b = Matrix::from_vec(k, n, bv.clone());
        let mut a_rows = vec![0.0f32; m * k];
        for kk in 0..k {
            for r in 0..m {
                a_rows[r * k + kk] = av[kk * m + r];
            }
        }
        let naive = naive_nn(&a_rows, &bv, m, k, n);

        let fresh = at.matmul_tn(&b);
        prop_assert_eq!(fresh.data(), &naive[..]);

        let mut acc = Matrix::from_vec(m, n, pre.clone());
        at.matmul_tn_acc(&b, &mut acc);
        let expect: Vec<f32> = pre.iter().zip(&naive).map(|(p, v)| p + v).collect();
        prop_assert_eq!(acc.data(), &expect[..]);
    }

    // `matmul_nt` / `matmul_nt_into` / `matmul_nt_acc` (`self * bᵀ`, b
    // is `n x k`) match the dot8 lane-structure reference for every
    // output element.
    #[test]
    fn nt_variants_match_dot8_reference((m, k, n, av, bv, pre) in case()) {
        force_parallel_kernels();
        let a = Matrix::from_vec(m, k, av.clone());
        let bt = Matrix::from_vec(n, k, bv.clone());
        let mut naive = vec![0.0f32; m * n];
        for r in 0..m {
            for c in 0..n {
                naive[r * n + c] = ref_dot8(&av[r * k..(r + 1) * k], &bv[c * k..(c + 1) * k]);
            }
        }

        let fresh = a.matmul_nt(&bt);
        prop_assert_eq!(fresh.data(), &naive[..]);

        // The overwriting NT never reads `out`: a NaN-filled one comes
        // back as the product, bit for bit.
        let mut into = Matrix::full(m, n, f32::NAN);
        a.matmul_nt_into(&bt, &mut into);
        prop_assert_eq!(into.data(), &naive[..]);

        let mut acc = Matrix::from_vec(m, n, pre.clone());
        a.matmul_nt_acc(&bt, &mut acc);
        let expect: Vec<f32> = pre.iter().zip(&naive).map(|(p, v)| p + v).collect();
        prop_assert_eq!(acc.data(), &expect[..]);
    }
}
