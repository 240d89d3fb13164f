//! Dense, row-major `f32` matrix with Rayon-parallel kernels.
//!
//! This is the storage type behind the autograd tape ([`crate::Tape`]) and
//! everything the Interaction GNN computes on. Kernels switch to parallel
//! execution above a size threshold so that small per-subgraph matrices do
//! not pay thread-pool overhead; the matmul family is a packed, blocked
//! GEMM with MR×NR register-tile micro-kernels (see the *Blocked GEMM*
//! section below) whose per-element summation order is fixed regardless
//! of blocking or thread count, because the golden-curve and
//! fused/unfused-parity tests pin results bit-for-bit.
//!
//! Every dense kernel has an accumulate-into (`*_acc`) variant writing
//! `out += result` into a caller-provided buffer — the autograd backward
//! pass uses these to accumulate gradients in place with no per-op
//! allocation (buffers come from [`crate::BufferPool`]).

use crate::plan::EdgePlan;
use rand::Rng;
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Element count above which elementwise kernels use Rayon.
const PAR_THRESHOLD: usize = 1 << 14;
/// Output element count above which matmul uses Rayon.
const PAR_MATMUL_THRESHOLD: usize = 1 << 10;

/// Set by [`force_parallel_kernels`]; never cleared. Every size-gated
/// kernel reads it, so it has a cache line to itself: sharing one with a
/// static that other cores write (an allocation counter, say) would make
/// each read a miss on a multi-threaded run.
#[repr(align(128))]
struct ForceParallel(AtomicBool);
static FORCE_PARALLEL: ForceParallel = ForceParallel(AtomicBool::new(false));

/// Send every size-gated kernel in this process down its parallel path,
/// both thresholds becoming 1. For the tests that pin the parallel
/// kernels to serial references; results are the same either way.
#[doc(hidden)]
pub fn force_parallel_kernels() {
    FORCE_PARALLEL.0.store(true, Ordering::Relaxed);
}

fn gate(threshold: usize) -> usize {
    if FORCE_PARALLEL.0.load(Ordering::Relaxed) {
        1
    } else {
        threshold
    }
}

/// Element count above which elementwise kernels use Rayon.
pub fn par_threshold() -> usize {
    gate(PAR_THRESHOLD)
}

/// Output element count above which matmul kernels use Rayon.
pub fn par_matmul_threshold() -> usize {
    gate(PAR_MATMUL_THRESHOLD)
}

// ---------------------------------------------------------------------
// Blocked GEMM.
//
// `matmul` and `matmul_tn` funnel into one packed, cache-blocked core:
// B is packed once per call into NR-wide column panels, then row blocks
// of A (MC rows, full reduction depth) are packed into per-thread
// scratch and swept with an MR×NR register-tile micro-kernel. The
// parallel split is over row blocks of the output's m axis — every
// output element is produced by exactly one block with a single
// sequential accumulator over the reduction index, so results are
// bit-identical at any thread count or block size. `matmul_nt` keeps
// its own kernel, one `dot8` per output element, whose fixed lane
// structure is its ordering contract.
//
// Each micro-kernel (`gemm_tile`, `nt_row`) has a portable Rust body —
// the fallback on every target and the oracle the tests pin the other
// arm to — and an explicit AVX2 arm (`mod avx2`) that x86-64 CPUs with
// AVX2 run instead. `Kernel::detect` picks the arm once per GEMM call
// from the CPU; nothing is configured. The AVX2 arm is the portable
// arithmetic eight lanes to a register: each lane is one accumulator
// doing a multiply, rounded, then an add, rounded, in the same
// ascending-`kk` order, so both arms produce the same bits.
//
// Mul+add, never FMA: a fused multiply-add rounds `a*b + c` once, which
// is a different number than rounding the product and the sum apart,
// and would move every golden curve. An FMA kernel is a different
// numeric contract, not a faster build of this one. Rust never fuses a
// separate multiply and add on its own, and no arm here enables the
// `fma` target feature or calls an FMA intrinsic.

/// Micro-kernel tile width: each packed-B panel is NR columns, and the
/// accumulator tile holds NR partial sums per row — two 256-bit YMM
/// registers in the AVX2 arm, four 128-bit ones in the portable arm's
/// baseline x86-64 codegen.
const NR: usize = 16;

/// Micro-kernel tile height: rows of packed A per tile. All MR rows
/// share each NR-wide panel load, so the kernel performs MR×NR useful
/// multiply-adds per B load instead of 1×NR.
const MR: usize = 8;

/// Largest row-block size: rows of A packed per scratch block, a whole
/// number of MR tiles. 128 rows at the model's reduction depths keeps a
/// block's packed panel in L2 while the B panels stay L1-resident.
const MC: usize = 128;
const _: () = assert!(MC.is_multiple_of(MR));

/// Row-block size for an `m`-row product: at most [`MC`], shrunk when
/// `m` is small so the pool still sees several blocks (the `matmul_tn`
/// backward has m = hidden width, not edge count). Block geometry never
/// affects results, only the parallel split.
fn mc_for(m: usize) -> usize {
    let target = m.div_ceil(4 * rayon::current_num_threads().max(1));
    target.next_multiple_of(MR).clamp(MR, MC)
}

/// The micro-kernel arm this CPU runs. Private, so `Kernel::Avx2` exists
/// only once `detect` has seen AVX2 — the precondition of every call
/// into `avx2`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kernel {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// The one decision: AVX2 when the CPU has it, portable otherwise.
    /// The standard library caches the CPUID probe, so this is a load
    /// and a branch; it runs once per GEMM call.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Portable
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => "avx2",
        }
    }

    /// One MR×NR tile: [`gemm_tile`] on this arm.
    #[inline]
    fn tile(self, ap: &[f32], bp: &[f32], k: usize) -> [[f32; NR]; MR] {
        match self {
            Kernel::Portable => gemm_tile(ap, bp, k),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kernel::Avx2` is only built by `detect`, after
            // `is_x86_feature_detected!("avx2")` returned true.
            Kernel::Avx2 => unsafe { avx2::gemm_tile(ap, bp, k) },
        }
    }

    /// Whether this arm's NT row reads Bᵀ (`k x n`) rather than B
    /// (`n x k`): the AVX2 arm vectorises over outputs, so it wants the
    /// output index contiguous.
    #[inline]
    fn nt_reads_bt(self) -> bool {
        self != Kernel::Portable
    }

    /// One NT output row, `out[j] += dot8(a, b_j)`: [`nt_row`] over B on
    /// the portable arm, `avx2::nt_row_t` over Bᵀ on the AVX2 arm (see
    /// [`Kernel::nt_reads_bt`]).
    #[inline]
    fn nt_row(self, a: &[f32], b_or_bt: &[f32], out: &mut [f32]) {
        match self {
            Kernel::Portable => nt_row(a, b_or_bt, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `tile` — `Kernel::Avx2` implies AVX2.
            Kernel::Avx2 => unsafe { avx2::nt_row_t(a, b_or_bt, out) },
        }
    }
}

/// Which GEMM micro-kernel this process runs: `"avx2"` on an x86-64 CPU
/// with AVX2, `"portable"` anywhere else. Chosen at run time from the
/// CPU, not configured; both give bit-identical results.
pub fn gemm_kernel() -> &'static str {
    Kernel::detect().name()
}

thread_local! {
    /// Packed-B column panels for the current GEMM call (caller thread).
    static PACK_B: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    /// Packed-A row-block scratch (one per pool thread).
    static PACK_A: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Borrow a thread-local scratch buffer for the duration of `f`.
///
/// Each slot is a small stack of buffers: `f` pops one (or starts fresh)
/// and pushes it back after. Re-entrant use — a thread help-draining the
/// pool runs another GEMM's block while its own call has a buffer checked
/// out — simply pops a second buffer, so nesting depth d parks at most d
/// buffers per thread and the steady-state training loop performs no
/// scratch allocation at any thread count.
fn with_scratch<R>(
    cell: &'static std::thread::LocalKey<RefCell<Vec<Vec<f32>>>>,
    f: impl FnOnce(&mut Vec<f32>) -> R,
) -> R {
    let mut buf = cell.with(|c| c.borrow_mut().pop().unwrap_or_default());
    let r = f(&mut buf);
    cell.with(|c| c.borrow_mut().push(buf));
    r
}

/// Grow `buf` to at least `len` elements (never shrinks, keeps capacity).
fn ensure_len(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Pack `b` (`k x n` row-major) into NR-wide column panels: panel `p`
/// holds columns `p*NR..`, laid out reduction-major —
/// `bp[p*k*NR + kk*NR + t] = b[kk, p*NR + t]` — zero-padded to NR on the
/// ragged right edge so the micro-kernel never branches on width.
fn pack_b(b: &[f32], k: usize, n: usize, bp: &mut Vec<f32>) {
    let panels = n.div_ceil(NR);
    ensure_len(bp, panels * k * NR);
    for p in 0..panels {
        let j0 = p * NR;
        let w = (n - j0).min(NR);
        let panel = &mut bp[p * k * NR..(p + 1) * k * NR];
        for kk in 0..k {
            let dst = &mut panel[kk * NR..(kk + 1) * NR];
            dst[..w].copy_from_slice(&b[kk * n + j0..kk * n + j0 + w]);
            dst[w..].fill(0.0);
        }
    }
}

/// Pack `rows` rows of `a` (`.. x k` row-major) starting at `r0` into
/// MR-row tiles: `ap[t*k*MR + kk*MR + r] = a[r0 + t*MR + r, kk]`,
/// zero-padded on the ragged bottom edge.
fn pack_a_block(a: &[f32], k: usize, r0: usize, rows: usize, ap: &mut Vec<f32>) {
    let tiles = rows.div_ceil(MR);
    ensure_len(ap, tiles * k * MR);
    for t in 0..tiles {
        let tile = &mut ap[t * k * MR..(t + 1) * k * MR];
        let tr = (rows - t * MR).min(MR);
        if tr < MR {
            tile.fill(0.0);
        }
        for r in 0..tr {
            let row = &a[(r0 + t * MR + r) * k..(r0 + t * MR + r + 1) * k];
            for (kk, &v) in row.iter().enumerate() {
                tile[kk * MR + r] = v;
            }
        }
    }
}

/// Pack columns `c0..c0+cols` of `a` (`k x m` row-major) into MR-row
/// tiles of `aᵀ`: produces exactly the layout [`pack_a_block`] would on
/// the materialised transpose — `ap[t*k*MR + kk*MR + r] = a[kk, c0 +
/// t*MR + r]` — but reads each of `a`'s rows once, contiguously, instead
/// of paying a strided transpose pass first.
fn pack_a_block_tn(a: &[f32], k: usize, m: usize, c0: usize, cols: usize, ap: &mut Vec<f32>) {
    let tiles = cols.div_ceil(MR);
    ensure_len(ap, tiles * k * MR);
    if !cols.is_multiple_of(MR) {
        // Zero the ragged last tile's pad lanes once up front.
        ap[(tiles - 1) * k * MR..tiles * k * MR].fill(0.0);
    }
    for kk in 0..k {
        let src = &a[kk * m + c0..kk * m + c0 + cols];
        for t in 0..tiles {
            let w = (cols - t * MR).min(MR);
            let dst = &mut ap[t * k * MR + kk * MR..t * k * MR + kk * MR + w];
            dst.copy_from_slice(&src[t * MR..t * MR + w]);
        }
    }
}

/// Which operand layout a GEMM row block packs its A tiles from.
#[derive(Clone, Copy)]
enum ASource<'a> {
    /// `a` is `m x k` row-major; blocks cover row ranges.
    Rows(&'a [f32]),
    /// `a` is `k x m` row-major (the TN operand); blocks cover column
    /// ranges, packed transposed on the fly.
    TnCols(&'a [f32], usize),
}

/// One MR×NR accumulator tile over the full reduction depth. Per output
/// element this is a single sequential accumulator over `kk` ascending —
/// the summation order every variant pins, independent of blocking.
/// Portable arm and the oracle of `avx2::gemm_tile`.
#[inline]
fn gemm_tile(ap: &[f32], bp: &[f32], k: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (av, bv) in ap[..k * MR]
        .chunks_exact(MR)
        .zip(bp[..k * NR].chunks_exact(NR))
    {
        for r in 0..MR {
            let a_rk = av[r];
            let row = &mut acc[r];
            for t in 0..NR {
                row[t] += a_rk * bv[t];
            }
        }
    }
    acc
}

/// One packed row block of the GEMM: pack the `out_block.len() / n` rows
/// of `a` from `r0` on into this thread's scratch, then sweep packed-B
/// panels × MR-row tiles on `kernel`'s arm.
/// `OVERWRITE` selects `out = A·B` (skips the caller's zero pass) versus
/// `out += A·B`; both add the identical accumulator to the same start
/// value, so they are bit-compatible.
fn gemm_block<const OVERWRITE: bool>(
    kernel: Kernel,
    a: ASource<'_>,
    k: usize,
    r0: usize,
    bp: &[f32],
    n: usize,
    out_block: &mut [f32],
) {
    let rows = out_block.len() / n;
    with_scratch(&PACK_A, |apack| {
        match a {
            ASource::Rows(a) => pack_a_block(a, k, r0, rows, apack),
            ASource::TnCols(a, m) => pack_a_block_tn(a, k, m, r0, rows, apack),
        }
        let tiles = rows.div_ceil(MR);
        let panels = n.div_ceil(NR);
        for p in 0..panels {
            let j0 = p * NR;
            let w = (n - j0).min(NR);
            let bpanel = &bp[p * k * NR..(p + 1) * k * NR];
            for t in 0..tiles {
                let acc = kernel.tile(&apack[t * k * MR..(t + 1) * k * MR], bpanel, k);
                let tr = (rows - t * MR).min(MR);
                for (r, acc_row) in acc.iter().enumerate().take(tr) {
                    let o0 = (t * MR + r) * n + j0;
                    let dst = &mut out_block[o0..o0 + w];
                    for (o, &v) in dst.iter_mut().zip(&acc_row[..w]) {
                        if OVERWRITE {
                            *o = v;
                        } else {
                            *o += v;
                        }
                    }
                }
            }
        }
    });
}

/// Blocked-GEMM driver shared by `matmul` and `matmul_tn`:
/// `out (+)= a · b` with `a` `m x k` row-major. Packs B once, then
/// parallelises over MC-row blocks of the m axis.
fn gemm_dispatch<const OVERWRITE: bool>(
    a: ASource<'_>,
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    with_scratch(&PACK_B, |bp| {
        pack_b(b, k, n, bp);
        let bp = &bp[..n.div_ceil(NR) * k * NR];
        let mc = mc_for(m);
        let kernel = Kernel::detect();
        let body = |(ci, chunk): (usize, &mut [f32])| {
            gemm_block::<OVERWRITE>(kernel, a, k, ci * mc, bp, n, chunk);
        };
        if m * n >= par_matmul_threshold() && m > 1 {
            out.par_chunks_mut(mc * n).enumerate().for_each(body);
        } else {
            out.chunks_mut(mc * n).enumerate().for_each(body);
        }
    });
}

/// Eight-lane dot product: breaks the float add dependency chain so LLVM
/// vectorizes the reduction (a plain `zip().sum()` must stay scalar).
/// This lane structure is the pinned summation order of `matmul_nt`.
#[inline]
fn dot8(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    let chunks = a.len() / 8;
    for c in 0..chunks {
        let ac = &a[c * 8..c * 8 + 8];
        let bc = &b[c * 8..c * 8 + 8];
        for t in 0..8 {
            lanes[t] += ac[t] * bc[t];
        }
    }
    dot8_finish(&lanes, &a[chunks * 8..], &b[chunks * 8..])
}

/// `dot8`'s pinned epilogue: the lanes summed left to right (from
/// `Iterator::sum`'s `-0.0`), plus the sequential dot of the sub-8 tails.
#[inline]
fn dot8_finish(lanes: &[f32; 8], a_tail: &[f32], b_tail: &[f32]) -> f32 {
    let mut tail = 0.0f32;
    for (x, y) in a_tail.iter().zip(b_tail) {
        tail += x * y;
    }
    lanes.iter().sum::<f32>() + tail
}

/// One row of `out += a · bᵀ`: `out[j] += dot8(a, b_j)` for the `out.len()`
/// rows `b_j = b[j*k..(j+1)*k]` of `b`, `k = a.len()`. Portable arm and
/// the oracle of `avx2::nt_row`.
fn nt_row(a: &[f32], b: &[f32], out: &mut [f32]) {
    let k = a.len();
    for (j, o) in out.iter_mut().enumerate() {
        *o += dot8(a, &b[j * k..(j + 1) * k]);
    }
}

/// The AVX2 arms of the micro-kernels: the portable bodies' arithmetic,
/// eight `f32` lanes per YMM register, separate multiply and add.
///
/// The functions are safe to call only on a CPU with AVX2 — calling a
/// `#[target_feature]` function from code without the feature is
/// `unsafe`, and [`Kernel`] is the one caller. Operand bounds are checked
/// once per tile or row before the loads that rely on them.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{MR, NR};
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// [`super::gemm_tile`] at YMM width, bit-identical to it. The full
    /// 8×16 tile would need 16 accumulators plus operands in 16
    /// registers, so it runs as two 4×16 halves over the same packed
    /// panel: per `kk`, 8 accumulators, two B loads and one broadcast, all
    /// resident for the whole reduction.
    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_tile(ap: &[f32], bp: &[f32], k: usize) -> [[f32; NR]; MR] {
        let (ap, bp) = (&ap[..k * MR], &bp[..k * NR]);
        let mut out = [[0.0f32; NR]; MR];
        for (half, rows) in out.chunks_exact_mut(MR / 2).enumerate() {
            let r0 = half * (MR / 2);
            let mut acc = [[_mm256_setzero_ps(); 2]; MR / 2];
            for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
                // SAFETY: `bv` is one NR = 16-float row of the panel, so
                // both 8-float loads are in bounds.
                let (b0, b1) = unsafe {
                    (
                        _mm256_loadu_ps(bv.as_ptr()),
                        _mm256_loadu_ps(bv.as_ptr().add(8)),
                    )
                };
                for (r, acc) in acc.iter_mut().enumerate() {
                    let a = _mm256_set1_ps(av[r0 + r]);
                    acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(a, b0));
                    acc[1] = _mm256_add_ps(acc[1], _mm256_mul_ps(a, b1));
                }
            }
            for (row, acc) in rows.iter_mut().zip(acc) {
                // SAFETY: `row` holds NR = 16 floats: two 8-float stores.
                unsafe {
                    _mm256_storeu_ps(row.as_mut_ptr(), acc[0]);
                    _mm256_storeu_ps(row.as_mut_ptr().add(8), acc[1]);
                }
            }
        }
        out
    }

    /// [`super::nt_row`] over Bᵀ, bit-identical to it, vectorised over
    /// outputs rather than over one dot's lanes: `bt` is `k x n`
    /// row-major with `bt[i * n + j] = b_j[i]`, `n = out.len()`. For NR
    /// outputs at a time, each `dot8` lane `t` is one register pair that
    /// starts at `0.0` and adds `a[8c + t] · bᵀ[8c + t, j..j + NR]` for `c`
    /// ascending; a sum pair starting at `-0.0` adds the eight lanes in `t`
    /// order, then the tail pair (the products past the last full chunk),
    /// and the result is added into `out`. That is exactly the additions
    /// of `dot8` + `dot8_finish` per output, with no shuffle and no
    /// horizontal add. The `n % NR` outputs left over run the same
    /// sequence in scalar code.
    #[target_feature(enable = "avx2")]
    pub(super) fn nt_row_t(a: &[f32], bt: &[f32], out: &mut [f32]) {
        let (k, n) = (a.len(), out.len());
        assert_eq!(bt.len(), k * n, "nt operands");
        let body = k - k % 8;
        let full = n - n % NR;
        for j in (0..full).step_by(NR) {
            let col = |i: usize| bt.as_ptr().wrapping_add(i * n + j);
            let mut sum = [_mm256_set1_ps(-0.0); 2];
            // Two lanes per sweep of the chunks, for two independent add
            // chains; they join the sum in `t` order all the same.
            for t in (0..8).step_by(2) {
                let mut lanes = [[_mm256_setzero_ps(); 2]; 2];
                let mut p = col(t);
                for ac in a[..body].chunks_exact(8) {
                    // SAFETY: `p` is row `8c + t` of `bt` at column `j`
                    // for this chunk `c`. Rows `8c + t + 1 < body <= k`
                    // and `j + NR <= n`, so both NR-float reads end within
                    // `k * n = bt.len()`.
                    unsafe {
                        madd(&mut lanes[0], ac[t], p);
                        madd(&mut lanes[1], ac[t + 1], p.wrapping_add(n));
                    }
                    p = p.wrapping_add(8 * n);
                }
                for lane in lanes {
                    sum = [
                        _mm256_add_ps(sum[0], lane[0]),
                        _mm256_add_ps(sum[1], lane[1]),
                    ];
                }
            }
            let mut tail = [_mm256_setzero_ps(); 2];
            for (i, &x) in a.iter().enumerate().skip(body) {
                // SAFETY: `i < k` and `j + NR <= n`: within `bt`.
                unsafe { madd(&mut tail, x, col(i)) };
            }
            // SAFETY: `j + NR <= n = out.len()`: two 8-float loads and
            // stores in bounds.
            unsafe {
                let o = out.as_mut_ptr().add(j);
                let dot = [
                    _mm256_add_ps(sum[0], tail[0]),
                    _mm256_add_ps(sum[1], tail[1]),
                ];
                _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), dot[0]));
                _mm256_storeu_ps(o.add(8), _mm256_add_ps(_mm256_loadu_ps(o.add(8)), dot[1]));
            }
        }
        for (j, o) in out.iter_mut().enumerate().skip(full) {
            let mut sum = -0.0f32;
            for t in 0..8 {
                let mut lane = 0.0f32;
                for i in (t..body).step_by(8) {
                    lane += a[i] * bt[i * n + j];
                }
                sum += lane;
            }
            let mut tail = 0.0f32;
            for (i, &x) in a.iter().enumerate().skip(body) {
                tail += x * bt[i * n + j];
            }
            *o += sum + tail;
        }
    }

    /// `acc += x · p[0..NR]`: a multiply, rounded, then an add, rounded.
    ///
    /// # Safety
    /// `p` must point at NR = 16 readable floats.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn madd(acc: &mut [__m256; 2], x: f32, p: *const f32) {
        let x = _mm256_set1_ps(x);
        // SAFETY: the caller guarantees 16 readable floats at `p`.
        let (b0, b1) = unsafe { (_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8))) };
        acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(x, b0));
        acc[1] = _mm256_add_ps(acc[1], _mm256_mul_ps(x, b1));
    }
}

/// Blocked transpose of `src` (`rows x cols`) into `dst` (`cols x rows`),
/// overwriting. Parallel over blocks of output rows; tiled so the
/// strided source reads stay cache-resident.
fn transpose_buf(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    // Tile edge: 32x32 f32 tiles = two 4 KiB pages of source touched
    // per tile, well inside L1.
    const TB: usize = 32;
    if rows == 0 || cols == 0 {
        return;
    }
    debug_assert!(src.len() == rows * cols && dst.len() == rows * cols);
    // Each chunk covers up to TB output rows (= TB source columns).
    let body = |(chunk_idx, out_chunk): (usize, &mut [f32])| {
        let c0 = chunk_idx * TB;
        let cw = out_chunk.len() / rows;
        for r0 in (0..rows).step_by(TB) {
            let rw = (rows - r0).min(TB);
            for dc in 0..cw {
                let out_seg = &mut out_chunk[dc * rows + r0..dc * rows + r0 + rw];
                let c = c0 + dc;
                for (dr, o) in out_seg.iter_mut().enumerate() {
                    *o = src[(r0 + dr) * cols + c];
                }
            }
        }
    };
    if rows * cols >= par_threshold() && cols > 1 {
        dst.par_chunks_mut(TB * rows).enumerate().for_each(body);
    } else {
        dst.chunks_mut(TB * rows).enumerate().for_each(body);
    }
}

/// A dense row-major `f32` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows x cols` matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// A `rows x cols` matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from a row-major buffer. Panics if the length does not match.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Build from a per-element function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Standard-normal entries scaled by `std` (Box-Muller via `rand`).
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        // Box-Muller; generates pairs, drops the spare on odd counts.
        let n = rows * cols;
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Self { rows, cols, data }
    }

    /// Uniform entries in `[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
        Self { rows, cols, data }
    }

    /// A 1x1 matrix holding `v` (scalar results such as losses).
    pub fn scalar(v: f32) -> Self {
        Self::from_vec(1, 1, vec![v])
    }

    /// The single element of a 1x1 matrix. Panics otherwise.
    pub fn as_scalar(&self) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (1, 1),
            "as_scalar on {}x{}",
            self.rows,
            self.cols
        );
        self.data[0]
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Overwrite every element with `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Dense matrix product `self * b`. Parallel over row blocks of the
    /// output.
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, b.cols);
        self.matmul_into(b, &mut out);
        out
    }

    /// `out = self * b`, overwriting a caller-provided buffer.
    ///
    /// Bit-identical to zeroing `out` and calling [`Matrix::matmul_acc`]
    /// (the register accumulators start from zero either way), but skips
    /// the zero-fill pass, so pooled buffers need no clearing first.
    pub fn matmul_into(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, b.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, b.rows, b.cols
        );
        let (m, k, n) = (self.rows, self.cols, b.cols);
        assert_eq!(out.shape(), (m, n), "matmul output shape mismatch");
        gemm_dispatch::<true>(ASource::Rows(&self.data), m, k, &b.data, n, &mut out.data);
    }

    /// `out += self * b`, accumulating into a caller-provided buffer.
    pub fn matmul_acc(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, b.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, b.rows, b.cols
        );
        let (m, k, n) = (self.rows, self.cols, b.cols);
        assert_eq!(out.shape(), (m, n), "matmul output shape mismatch");
        gemm_dispatch::<false>(ASource::Rows(&self.data), m, k, &b.data, n, &mut out.data);
    }

    /// `selfᵀ * b` without materialising the transpose in the caller.
    pub fn matmul_tn(&self, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, b.cols);
        self.matmul_tn_acc(b, &mut out);
        out
    }

    /// `out += selfᵀ * b` without materialising the transpose.
    ///
    /// Runs the same blocked GEMM core as [`Matrix::matmul_acc`], with A
    /// tiles packed transposed on the fly (`pack_a_block_tn`): per
    /// element the same products are added by one accumulator in the same
    /// ascending-reduction order as the historical strided column walk,
    /// so results are bit-identical — but every stream is contiguous, and
    /// the parallel split is over output row blocks (the m axis) instead
    /// of fighting the reduction layout.
    pub fn matmul_tn_acc(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, b.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, b.rows, b.cols
        );
        let (m, k, n) = (self.cols, self.rows, b.cols);
        assert_eq!(out.shape(), (m, n), "matmul_tn output shape mismatch");
        gemm_dispatch::<false>(
            ASource::TnCols(&self.data, m),
            m,
            k,
            &b.data,
            n,
            &mut out.data,
        );
    }

    /// `self * bᵀ` without materialising the transpose.
    pub fn matmul_nt(&self, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, b.rows);
        self.matmul_nt_acc(b, &mut out);
        out
    }

    /// `out += self * bᵀ`: each output element is one `dot8` of `self`'s
    /// row against a B row. The portable arm reads B as it is (both
    /// operands are contiguous along the reduction axis) and does one dot
    /// at a time. The AVX2 arm transposes B once per call into this
    /// thread's `PACK_B` scratch (B is the weight, a few thousand floats)
    /// and runs NR dots per pass, one register pair per `dot8` lane.
    pub fn matmul_nt_acc(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, b.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, b.rows, b.cols
        );
        let (m, k, n) = (self.rows, self.cols, b.rows);
        assert_eq!(out.shape(), (m, n), "matmul_nt output shape mismatch");
        if m == 0 || n == 0 {
            return;
        }
        let a = &self.data;
        let kernel = Kernel::detect();
        let rows = |bop: &[f32], out: &mut [f32]| {
            let body = |(r, out_row): (usize, &mut [f32])| {
                kernel.nt_row(&a[r * k..(r + 1) * k], bop, out_row);
            };
            if m * n >= par_matmul_threshold() && m > 1 {
                out.par_chunks_mut(n).enumerate().for_each(body);
            } else {
                out.chunks_mut(n).enumerate().for_each(body);
            }
        };
        if kernel.nt_reads_bt() {
            with_scratch(&PACK_B, |bt| {
                ensure_len(bt, k * n);
                transpose_buf(&b.data, n, k, &mut bt[..k * n]);
                rows(&bt[..k * n], &mut out.data);
            });
        } else {
            rows(&b.data, &mut out.data);
        }
    }

    /// Materialised transpose. Parallel over blocks of output rows, with
    /// tiled traversal so the strided source reads stay cache-resident.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        transpose_buf(&self.data, self.rows, self.cols, &mut out.data);
        out
    }

    fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32 + Sync) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "elementwise shape mismatch");
        let mut out = self.clone();
        if out.data.len() >= par_threshold() {
            out.data
                .par_iter_mut()
                .zip(other.data.par_iter())
                .for_each(|(a, &b)| *a = f(*a, b));
        } else {
            for (a, &b) in out.data.iter_mut().zip(&other.data) {
                *a = f(*a, b);
            }
        }
        out
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        if self.data.len() >= par_threshold() {
            self.data
                .par_iter_mut()
                .zip(other.data.par_iter())
                .for_each(|(a, &b)| *a += b);
        } else {
            for (a, &b) in self.data.iter_mut().zip(&other.data) {
                *a += b;
            }
        }
    }

    /// In-place `self ⊙= other`.
    pub fn mul_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "mul_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// In-place fused multiply-accumulate `self += a ⊙ b`.
    pub fn hadamard_acc(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape(), "hadamard_acc operand mismatch");
        assert_eq!(self.shape(), a.shape(), "hadamard_acc shape mismatch");
        for ((o, &av), &bv) in self.data.iter_mut().zip(&a.data).zip(&b.data) {
            *o += av * bv;
        }
    }

    /// In-place `self += k * other` (axpy).
    pub fn axpy(&mut self, k: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, k: f32) -> Matrix {
        self.map(|v| v * k)
    }

    /// Apply `f` to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = self.clone();
        out.apply(f);
        out
    }

    /// Apply `f` to every element in place.
    pub fn apply(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        if self.data.len() >= par_threshold() {
            self.data.par_iter_mut().for_each(|v| *v = f(*v));
        } else {
            self.data.iter_mut().for_each(|v| *v = f(*v));
        }
    }

    /// Horizontal concatenation of matrices with equal row counts.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        Self::concat_cols_into(parts, &mut out);
        out
    }

    /// Horizontal concatenation into a caller-provided buffer (overwrites).
    pub fn concat_cols_into(parts: &[&Matrix], out: &mut Matrix) {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = parts[0].rows;
        for p in parts {
            assert_eq!(p.rows, rows, "concat_cols row mismatch");
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        assert_eq!(
            out.shape(),
            (rows, cols),
            "concat_cols output shape mismatch"
        );
        if cols == 0 {
            return;
        }
        let body = |(r, dst): (usize, &mut [f32])| {
            let mut off = 0;
            for p in parts {
                dst[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        };
        if rows * cols >= par_threshold() {
            out.data.par_chunks_mut(cols).enumerate().for_each(body);
        } else {
            out.data.chunks_mut(cols).enumerate().for_each(body);
        }
    }

    /// Copy the column range `[start, end)` into a new matrix.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols, "slice_cols out of range");
        let w = end - start;
        let mut out = Matrix::zeros(self.rows, w);
        if w == 0 {
            return out;
        }
        let body = |(r, dst): (usize, &mut [f32])| {
            dst.copy_from_slice(&self.row(r)[start..end]);
        };
        if self.rows * w >= par_threshold() {
            out.data.par_chunks_mut(w).enumerate().for_each(body);
        } else {
            out.data.chunks_mut(w).enumerate().for_each(body);
        }
        out
    }

    /// `out[i, :] = self[idx[i], :]` — row gather.
    pub fn gather_rows(&self, idx: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        self.gather_rows_into(idx, &mut out);
        out
    }

    /// One-shot validation that every index addresses a row below
    /// `bound`. Indices come from event data, not internal invariants, so
    /// the kernels check them with a real `assert!` — but only once, at
    /// the kernel boundary, never inside the (possibly parallel) inner
    /// loop.
    #[inline]
    fn assert_row_indices(idx: &[u32], bound: usize, what: &str) {
        if let Some(&max) = idx.iter().max() {
            assert!(
                (max as usize) < bound,
                "{what} index {max} out of range for {bound} rows"
            );
        }
    }

    /// Row gather into a caller-provided buffer (overwrites).
    pub fn gather_rows_into(&self, idx: &[u32], out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (idx.len(), self.cols),
            "gather output shape mismatch"
        );
        Self::assert_row_indices(idx, self.rows, "gather_rows");
        let cols = self.cols;
        let src = &self.data;
        let body = |(i, dst): (usize, &mut [f32])| {
            let r = idx[i] as usize;
            dst.copy_from_slice(&src[r * cols..(r + 1) * cols]);
        };
        if idx.len() * cols >= par_threshold() {
            out.data.par_chunks_mut(cols).enumerate().for_each(body);
        } else {
            out.data.chunks_mut(cols).enumerate().for_each(body);
        }
    }

    /// `out[i, :] += self[idx[i], :]` — accumulating row gather (the
    /// adjoint of scatter-add, used by its backward pass). Parallel over
    /// output rows: each is written by exactly one task, so the result is
    /// thread-count independent.
    pub fn gather_rows_acc(&self, idx: &[u32], out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (idx.len(), self.cols),
            "gather output shape mismatch"
        );
        Self::assert_row_indices(idx, self.rows, "gather_rows");
        let cols = self.cols;
        let src = &self.data;
        let body = |(i, dst): (usize, &mut [f32])| {
            let r = idx[i] as usize;
            for (d, &s) in dst.iter_mut().zip(&src[r * cols..(r + 1) * cols]) {
                *d += s;
            }
        };
        if cols == 0 {
            return;
        }
        if idx.len() * cols >= par_threshold() {
            out.data.par_chunks_mut(cols).enumerate().for_each(body);
        } else {
            out.data.chunks_mut(cols).enumerate().for_each(body);
        }
    }

    /// `out[idx[i], :] += self[i, :]` into a fresh `out_rows x cols` matrix —
    /// the row scatter-add used by GNN message aggregation.
    pub fn scatter_add_rows(&self, idx: &[u32], out_rows: usize) -> Matrix {
        let mut out = Matrix::zeros(out_rows, self.cols);
        self.scatter_rows_acc(idx, &mut out);
        out
    }

    /// `out[idx[i], :] += self[i, :]`, accumulating into an existing
    /// buffer. Serial reference kernel: output rows collide by
    /// construction, and each receives its contributions in ascending
    /// edge order. [`Matrix::scatter_rows_planned_acc`] is the parallel
    /// version; it reproduces this kernel's per-row accumulation order
    /// exactly.
    pub fn scatter_rows_acc(&self, idx: &[u32], out: &mut Matrix) {
        assert_eq!(
            idx.len(),
            self.rows,
            "scatter_add_rows index length mismatch"
        );
        assert_eq!(out.cols, self.cols, "scatter_add_rows col mismatch");
        Self::assert_row_indices(idx, out.rows, "scatter_rows");
        for (i, &r) in idx.iter().enumerate() {
            let r = r as usize;
            let src = self.row(i);
            let dst = out.row_mut(r);
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }

    /// Plan-driven deterministic parallel scatter-add:
    /// `out[r, :] += Σ self[e, :]` over the plan's edges incident to `r`,
    /// summed in ascending edge order. Parallel over **output** rows —
    /// each row is reduced by exactly one task in a fixed order, so the
    /// result is bit-identical to [`Matrix::scatter_rows_acc`] at any
    /// thread count, with no atomics. Indices were validated when the
    /// plan was built; the inner loop is check-free.
    pub fn scatter_rows_planned_acc(&self, plan: &EdgePlan, out: &mut Matrix) {
        assert_eq!(
            plan.num_edges(),
            self.rows,
            "scatter plan edge count mismatch"
        );
        assert_eq!(out.cols, self.cols, "scatter_add_rows col mismatch");
        assert_eq!(out.rows, plan.nodes(), "scatter plan node count mismatch");
        let cols = self.cols;
        if cols == 0 || out.rows == 0 {
            return;
        }
        let src = &self.data;
        let body = |(r, dst): (usize, &mut [f32])| {
            for &e in plan.incident(r) {
                let e = e as usize;
                for (d, &s) in dst.iter_mut().zip(&src[e * cols..(e + 1) * cols]) {
                    *d += s;
                }
            }
        };
        if self.rows * cols >= par_threshold() {
            out.data.par_chunks_mut(cols).enumerate().for_each(body);
        } else {
            out.data.chunks_mut(cols).enumerate().for_each(body);
        }
    }

    /// Column sums as a `1 x cols` matrix.
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.col_sums_acc(&mut out);
        out
    }

    /// `out += column sums` into an existing `1 x cols` buffer.
    pub fn col_sums_acc(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (1, self.cols),
            "col_sums output shape mismatch"
        );
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Row sums as a `rows x 1` matrix. Parallel over rows above the
    /// size threshold; each row reduces serially left-to-right, so the
    /// result is thread-count independent.
    pub fn row_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        self.row_sums_into(&mut out);
        out
    }

    /// Row sums into an existing `rows x 1` buffer (overwrites).
    pub fn row_sums_into(&self, out: &mut Matrix) {
        assert_eq!(out.shape(), (self.rows, 1), "row_sums shape mismatch");
        let data = &self.data;
        let cols = self.cols;
        let body = |(r, o): (usize, &mut f32)| {
            *o = data[r * cols..(r + 1) * cols].iter().sum();
        };
        if self.rows * cols >= par_threshold() {
            out.data.par_iter_mut().enumerate().for_each(body);
        } else {
            out.data.iter_mut().enumerate().for_each(body);
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        if self.data.len() >= par_threshold() {
            self.data.par_iter().sum()
        } else {
            self.data.iter().sum()
        }
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute elementwise difference to `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Approximate equality within `tol` on every element.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        let mut m2 = m.clone();
        m2.set(0, 0, 9.0);
        assert_eq!(m2.get(0, 0), 9.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::randn(5, 5, 1.0, &mut rng);
        let i = Matrix::from_fn(5, 5, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!(a.matmul(&i).approx_eq(&a, 1e-6));
        assert!(i.matmul(&a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_variants_agree() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::randn(7, 4, 1.0, &mut rng);
        let b = Matrix::randn(4, 6, 1.0, &mut rng);
        let c = a.matmul(&b);
        assert!(a.transpose().matmul_tn(&b).approx_eq(&c, 1e-4));
        assert!(a.matmul_nt(&b.transpose()).approx_eq(&c, 1e-4));
    }

    #[test]
    fn matmul_wide_shapes_match_naive() {
        // Wide enough to exercise full NR tiles plus a ragged remainder.
        let mut rng = StdRng::seed_from_u64(9);
        for (m, k, n) in [(5usize, 7usize, 37usize), (3, 33, 16), (4, 16, 48)] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let c = a.matmul(&b);
            let mut naive = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        acc += a.get(i, kk) * b.get(kk, j);
                    }
                    naive.set(i, j, acc);
                }
            }
            assert!(c.approx_eq(&naive, 1e-3), "matmul {m}x{k}x{n}");
            assert!(
                a.transpose().matmul_tn(&b).approx_eq(&naive, 1e-3),
                "tn {m}x{k}x{n}"
            );
            assert!(
                a.matmul_nt(&b.transpose()).approx_eq(&naive, 1e-3),
                "nt {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn matmul_acc_accumulates() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = Matrix::randn(3, 5, 1.0, &mut rng);
        let b = Matrix::randn(5, 4, 1.0, &mut rng);
        let base = Matrix::randn(3, 4, 1.0, &mut rng);
        let mut out = base.clone();
        a.matmul_acc(&b, &mut out);
        let expect = base.add(&a.matmul(&b));
        assert!(out.approx_eq(&expect, 1e-5));
        // tn / nt accumulate variants.
        let mut out_tn = base.clone();
        a.transpose().matmul_tn_acc(&b, &mut out_tn);
        assert!(out_tn.approx_eq(&expect, 1e-4));
        let mut out_nt = base.clone();
        a.matmul_nt_acc(&b.transpose(), &mut out_nt);
        assert!(out_nt.approx_eq(&expect, 1e-4));
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        // Large enough to cross the parallel matmul threshold.
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::randn(64, 32, 1.0, &mut rng);
        let b = Matrix::randn(32, 48, 1.0, &mut rng);
        let c = a.matmul(&b);
        // Naive reference.
        let mut r = Matrix::zeros(64, 48);
        for i in 0..64 {
            for j in 0..48 {
                let mut acc = 0.0;
                for k in 0..32 {
                    acc += a.get(i, k) * b.get(k, j);
                }
                r.set(i, j, acc);
            }
        }
        assert!(c.approx_eq(&r, 1e-3));
    }

    /// Every micro-kernel arm this CPU can run, portable first. Says
    /// which ran, so a log shows when only one arm was checked.
    fn gemm_arms() -> Vec<Kernel> {
        let host = Kernel::detect();
        if host == Kernel::Portable {
            println!("gemm arms: only the portable arm ran (this CPU has no AVX2)");
            vec![Kernel::Portable]
        } else {
            println!("gemm arms: checked portable and {}", host.name());
            vec![Kernel::Portable, host]
        }
    }

    /// Bitwise equality, except that any NaN equals any NaN (payloads may
    /// differ with the operand order an add was emitted in).
    fn same_bits(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// Reduction depths around the 8-lane and MR/NR boundaries.
    const PARITY_K: [usize; 12] = [0, 1, 2, 7, 8, 9, 31, 32, 33, 64, 65, 96];

    /// Uniform values with, when `special_every > 0`, about one in
    /// `special_every` replaced by ±0, a subnormal, a factor whose
    /// products are subnormal, ±inf, NaN, or a magnitude whose products
    /// overflow.
    fn parity_values(len: usize, special_every: u32, rng: &mut StdRng) -> Vec<f32> {
        const SPECIAL: [f32; 11] = [
            0.0,
            -0.0,
            1e-40,
            -3e-39,
            1e-20,
            -2e-21,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            3e38,
            -1e30,
        ];
        (0..len)
            .map(|_| {
                if special_every > 0 && rng.gen_range(0..special_every) == 0 {
                    SPECIAL[rng.gen_range(0..SPECIAL.len())]
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect()
    }

    /// `x*y + c` rounds differently fused and unfused: `x*y` is a tie
    /// that rounds to `-c`, so mul+add gives 0 and FMA gives 2⁻²⁴.
    const FMA_TRIPWIRE: (f32, f32, f32) =
        (1.0 + 1.0 / 4096.0, 1.0 + 1.0 / 4096.0, -1.0 - 1.0 / 2048.0);

    /// The fills every arm is checked on.
    const PARITY_FILLS: [&str; 3] = ["uniform", "specials", "fma tripwire"];

    /// `len` parity values for `fill`; the tripwire fill starts all zero.
    fn fill_values(fill: &str, len: usize, rng: &mut StdRng) -> Vec<f32> {
        match fill {
            "uniform" => parity_values(len, 0, rng),
            "specials" => parity_values(len, 8, rng),
            _ => vec![0.0; len],
        }
    }

    #[test]
    fn gemm_arms_match_references_bit_for_bit() {
        let (x, y, c) = FMA_TRIPWIRE;
        assert_ne!(
            x.mul_add(y, c),
            x * y + c,
            "the tripwire must tell FMA from mul+add"
        );
        let arms = gemm_arms();
        let mut rng = StdRng::seed_from_u64(19);
        for k in PARITY_K {
            for fill in PARITY_FILLS {
                let mut ap = fill_values(fill, k * MR, &mut rng);
                let mut bp = fill_values(fill, k * NR, &mut rng);
                if fill == "fma tripwire" && k >= 2 {
                    // Two steps of element (0, 0)'s accumulator, at kk = 0
                    // and 1: `c * 1`, then `x * y`.
                    (ap[0], bp[0], ap[MR], bp[NR]) = (c, 1.0, x, y);
                }
                // Tile: one accumulator per element over ascending kk.
                let mut expect = [[0.0f32; NR]; MR];
                for (r, row) in expect.iter_mut().enumerate() {
                    for (t, e) in row.iter_mut().enumerate() {
                        for kk in 0..k {
                            *e += ap[kk * MR + r] * bp[kk * NR + t];
                        }
                    }
                }
                for &arm in &arms {
                    let what = format!("{} k={k} {fill}", arm.name());
                    let got = arm.tile(&ap, &bp, k);
                    for r in 0..MR {
                        for t in 0..NR {
                            let (g, e) = (got[r][t], expect[r][t]);
                            assert!(same_bits(g, e), "tile {what} ({r},{t}): {g:e} vs {e:e}");
                        }
                    }
                }
            }
        }
        check_nt_arms(&arms);
    }

    /// The NT row on every arm (the AVX2 one fed Bᵀ) against `dot8`'s
    /// sequence of additions, onto a non-zero `out`.
    fn check_nt_arms(arms: &[Kernel]) {
        let (x, y, c) = FMA_TRIPWIRE;
        let mut rng = StdRng::seed_from_u64(23);
        // Below, at and around one and two NR-output passes, with the
        // scalar leftover of each.
        for n in [1, 8, 15, 16, 17, 19, 32, 35] {
            for k in PARITY_K {
                for fill in PARITY_FILLS {
                    let mut a = fill_values(fill, k, &mut rng);
                    let mut b = fill_values(fill, n * k, &mut rng);
                    if fill == "fma tripwire" {
                        // Two steps of one accumulator of every output:
                        // `c * 1`, then `x * y`, in lane 0 (i = 0, 8) or
                        // in the tail (its first two elements).
                        let steps = match k {
                            16.. => Some((0, 8)),
                            _ if k % 8 >= 2 => Some((k / 8 * 8, k / 8 * 8 + 1)),
                            _ => None,
                        };
                        if let Some((s0, s1)) = steps {
                            (a[s0], a[s1]) = (c, x);
                            for bj in b.chunks_exact_mut(k) {
                                (bj[s0], bj[s1]) = (1.0, y);
                            }
                        }
                    }
                    // Onto a non-zero start: dot8's lane order, one add.
                    let out0 = parity_values(n, 0, &mut rng);
                    let nt_expect: Vec<f32> = (0..n)
                        .map(|j| {
                            let bj = &b[j * k..(j + 1) * k];
                            let mut lanes = [0.0f32; 8];
                            for i in 0..k / 8 * 8 {
                                lanes[i % 8] += a[i] * bj[i];
                            }
                            let mut tail = 0.0f32;
                            for i in k / 8 * 8..k {
                                tail += a[i] * bj[i];
                            }
                            out0[j] + (lanes.iter().sum::<f32>() + tail)
                        })
                        .collect();
                    let bt = Matrix::from_vec(n, k, b.clone()).transpose();
                    for &arm in arms {
                        let what = format!("{} n={n} k={k} {fill}", arm.name());
                        let operand = if arm.nt_reads_bt() { bt.data() } else { &b[..] };
                        let mut out = out0.clone();
                        arm.nt_row(&a, operand, &mut out);
                        for (j, (&g, &e)) in out.iter().zip(&nt_expect).enumerate() {
                            assert!(same_bits(g, e), "nt {what} output {j}: {g:e} vs {e:e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Matrix::randn(3, 8, 1.0, &mut rng);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn transpose_blocked_matches_pointwise() {
        // Larger than one 32x32 tile in both directions, ragged edges.
        let mut rng = StdRng::seed_from_u64(5);
        let a = Matrix::randn(70, 45, 1.0, &mut rng);
        let t = a.transpose();
        assert_eq!(t.shape(), (45, 70));
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                assert_eq!(t.get(c, r), a.get(r, c));
            }
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]);
        assert_eq!(a.add(&b).data(), &[6., 8., 10., 12.]);
        assert_eq!(b.sub(&a).data(), &[4., 4., 4., 4.]);
        assert_eq!(a.hadamard(&b).data(), &[5., 12., 21., 32.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6., 8.]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[6., 8., 10., 12.]);
        let mut d = a.clone();
        d.axpy(0.5, &b);
        assert_eq!(d.data(), &[3.5, 5., 6.5, 8.]);
        let mut e = a.clone();
        e.mul_assign(&b);
        assert_eq!(e.data(), &[5., 12., 21., 32.]);
        let mut f = a.clone();
        f.hadamard_acc(&a, &b);
        assert_eq!(f.data(), &[6., 14., 24., 36.]);
    }

    #[test]
    fn concat_and_slice() {
        let a = Matrix::from_vec(2, 1, vec![1., 2.]);
        let b = Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1., 3., 4.]);
        assert_eq!(c.row(1), &[2., 5., 6.]);
        assert!(c.slice_cols(1, 3).approx_eq(&b, 0.0));
        assert!(c.slice_cols(0, 1).approx_eq(&a, 0.0));
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let a = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let idx = vec![3u32, 0, 3];
        let g = a.gather_rows(&idx);
        assert_eq!(g.row(0), a.row(3));
        assert_eq!(g.row(1), a.row(0));
        // Scatter the gathered rows back: row 3 got contributions from i=0 and i=2.
        let s = g.scatter_add_rows(&idx, 4);
        assert_eq!(s.row(0), a.row(0));
        assert_eq!(s.row(1), &[0., 0.]);
        assert_eq!(s.row(3), &[12., 14.]); // 2 * row 3

        // Accumulating gather matches gather-then-add.
        let mut acc = Matrix::ones(3, 2);
        a.gather_rows_acc(&idx, &mut acc);
        let expect = g.map(|v| v + 1.0);
        assert!(acc.approx_eq(&expect, 0.0));
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.sum(), 21.0);
        assert!((a.mean() - 3.5).abs() < 1e-6);
        assert_eq!(a.col_sums().data(), &[5., 7., 9.]);
        assert_eq!(a.row_sums().data(), &[6., 15.]);
        assert!((a.frobenius_norm() - 91.0f32.sqrt()).abs() < 1e-5);
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Matrix::randn(200, 200, 2.0, &mut rng);
        let mean = m.mean();
        let var = m
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / (m.len() as f32 - 1.0);
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn scalar_roundtrip() {
        assert_eq!(Matrix::scalar(3.5).as_scalar(), 3.5);
    }

    #[test]
    fn thresholds_have_sane_defaults() {
        // Env overrides are read once per process; absent overrides the
        // defaults apply (dedicated override test lives in tests/ where it
        // can own the process environment).
        assert!(par_threshold() > 0);
        assert!(par_matmul_threshold() > 0);
    }
}
