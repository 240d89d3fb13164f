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

use crate::plan::{EdgePlan, EdgePlans};
use crate::tanh::tanh_lane;
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
// `matmul` and `matmul_tn` funnel into one blocked core: B is packed
// once per call into NR-wide column panels, and the output's m axis is
// cut into row blocks (MC rows) swept with an MR×NR register-tile
// micro-kernel. A is read where it lies, the NN operand at step 1 along
// the reduction and the TN operand (whose rows are the reduction axis)
// at step m. The reduction is walked in KC-deep blocks: between blocks
// each tile parks its f32 accumulator in per-thread scratch and resumes
// from it, so every output element is still one sequential accumulator
// over the ascending reduction index. The parallel split is over row
// blocks — every output element is produced by exactly one block — so
// results are bit-identical at any thread count or block size.
// `matmul_nt` keeps its own kernel, one `dot8` per output element,
// whose fixed lane structure is its ordering contract; the wide arms
// run it over a group of output rows per pass.
//
// Each micro-kernel (`gemm_tile`, `nt_rows`) has a portable Rust body —
// the fallback on every target and the oracle the tests pin the other
// arms to — and two explicit x86-64 arms written once (`wide_arm!`):
// `avx512` (one 16-lane ZMM register per tile row) on CPUs with
// AVX-512F, `avx2` (a pair of 8-lane YMM registers) on CPUs with AVX2.
// `Kernel::detect` picks the widest arm the CPU runs, once per GEMM
// call; nothing is configured. Each wide arm is the portable arithmetic
// many lanes to a register: each lane is one accumulator doing a
// multiply, rounded, then an add, rounded, in the same ascending-`kk`
// order, so all three arms produce the same bits.
//
// Mul+add, never FMA: a fused multiply-add rounds `a*b + c` once, which
// is a different number than rounding the product and the sum apart,
// and would move every golden curve. An FMA kernel is a different
// numeric contract, not a faster build of this one. No arm calls an FMA
// intrinsic or enables the `fma` target feature by name. `avx512f`
// implies `fma` in codegen, but Rust never fuses a separate multiply
// and add on its own; the FMA tripwire in the arm tests would catch it.

/// Micro-kernel tile width: each packed-B panel is NR columns, and the
/// accumulator tile holds NR partial sums per row — one 512-bit ZMM
/// register in the AVX-512 arm, two 256-bit YMM registers in the AVX2
/// arm, four 128-bit ones in the portable arm's baseline x86-64 codegen.
const NR: usize = 16;

/// Micro-kernel tile height: rows of A per tile. All MR rows share each
/// NR-wide panel load, so the kernel performs MR×NR useful
/// multiply-adds per B load instead of 1×NR.
const MR: usize = 8;

/// Largest row-block size: output rows per parallel task, a whole
/// number of MR tiles. 128 rows at the model's reduction depths keeps a
/// block's rows of A in L2 while the B panels stay L1-resident.
const MC: usize = 128;
const _: () = assert!(MC.is_multiple_of(MR));

/// Reduction block: rows of the reduction a tile walks before it parks
/// its accumulator and the sweep moves to the next tile. 256 keeps a TN
/// block's slice of A (KC rows × its columns) in L2 and a B panel's
/// slice (KC × NR floats, 16 KB) in L1 while every tile of the block
/// reuses them. Blocking never affects results: a parked f32 resumes
/// exactly where it stopped.
const KC: usize = 256;

/// One tile's MR×NR accumulators.
type Tile = [[f32; NR]; MR];

/// Row-block size for an `m`-row product of reduction depth `k`: at most
/// [`MC`], shrunk when `m` is small so the pool still sees several
/// blocks. A reduction deeper than one [`KC`] block (the `matmul_tn`
/// backward: m = hidden width, k = edge count) instead gets one block
/// per thread, because every row block streams all of B. Block geometry
/// never affects results, only the parallel split.
fn mc_for(m: usize, k: usize) -> usize {
    let threads = rayon::current_num_threads().max(1);
    if k > KC {
        return m.div_ceil(threads).next_multiple_of(MR);
    }
    m.div_ceil(4 * threads).next_multiple_of(MR).clamp(MR, MC)
}

/// A micro-kernel arm. A wide arm may be called only on a CPU that has
/// its feature: every `Kernel` this module calls an arm on was checked
/// by [`Kernel::runs_here`] (through [`Kernel::detect`], or the tests'
/// filter over [`Kernel::WIDEST_FIRST`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kernel {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// Every arm, widest first; the portable one runs anywhere.
    const WIDEST_FIRST: &[Kernel] = &[
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512,
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2,
        Kernel::Portable,
    ];

    /// Whether this CPU has the arm's target feature. The standard
    /// library caches the CPUID probe, so this is a load and a branch.
    fn runs_here(self) -> bool {
        match self {
            Kernel::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        }
    }

    /// The one decision: the widest arm this CPU runs. Once per GEMM
    /// call.
    fn detect() -> Self {
        Self::WIDEST_FIRST
            .iter()
            .copied()
            .find(|k| k.runs_here())
            .unwrap_or(Kernel::Portable)
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => "avx512",
        }
    }

    /// One MR×NR tile, `start + A·B` over `k` reduction steps:
    /// [`gemm_tile`] on this arm. Always inlined: an outlined dispatch
    /// costs a call and a copy of the returned tile per tile, which is
    /// several per cent of a shallow product.
    #[inline(always)]
    fn tile(self, at: ATile<'_>, bp: &[f32], k: usize, start: Option<&Tile>) -> Tile {
        match self {
            Kernel::Portable => gemm_tile(at, bp, k, start),
            // SAFETY: a `Kernel` is only called on after `runs_here`
            // saw the arm's feature (see the type's doc).
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { avx2::gemm_tile(at, bp, k, start) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => unsafe { avx512::gemm_tile(at, bp, k, start) },
        }
    }

    /// Whether this arm's NT rows read Bᵀ (`k x n`) rather than B
    /// (`n x k`): the wide arms vectorise over outputs, so they want the
    /// output index contiguous.
    #[inline]
    fn nt_reads_bt(self) -> bool {
        self != Kernel::Portable
    }

    /// Output rows one NT pass of this arm covers: the wide arm's
    /// `NT_ROWS`, 1 on the portable arm. The NT driver splits the output
    /// into groups of this many rows.
    #[inline]
    fn nt_group(self) -> usize {
        match self {
            Kernel::Portable => 1,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => avx2::NT_ROWS,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => avx512::NT_ROWS,
        }
    }

    /// NT output rows, `out[r, j] (+)= dot8(a_r, b_j)` for every `n`-wide
    /// row `r` of `out`: [`nt_rows`] over B on the portable arm, the wide
    /// arms' `nt_rows` over Bᵀ (see [`Kernel::nt_reads_bt`]).
    #[inline]
    fn nt_rows<const OVERWRITE: bool>(self, a: &[f32], b_or_bt: &[f32], n: usize, out: &mut [f32]) {
        match self {
            Kernel::Portable => nt_rows::<OVERWRITE>(a, b_or_bt, n, out),
            // SAFETY: as in `tile`.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { avx2::nt_rows::<OVERWRITE>(a, b_or_bt, n, out) },
            // SAFETY: as in `tile`.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => unsafe { avx512::nt_rows::<OVERWRITE>(a, b_or_bt, n, out) },
        }
    }

    /// `out[i] = tanh(src[i])`: [`tanh_slice`] on this arm.
    #[inline]
    fn tanh(self, src: &[f32], out: &mut [f32]) {
        match self {
            Kernel::Portable => tanh_slice(src, out),
            // SAFETY: as in `tile`.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { avx2::tanh_slice(src, out) },
            // SAFETY: as in `tile`.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => unsafe { avx512::tanh_slice(src, out) },
        }
    }
}

/// Which GEMM micro-kernel this process runs: `"avx512"` on an x86-64
/// CPU with AVX-512F, `"avx2"` on one with AVX2, `"portable"` anywhere
/// else. Chosen at run time from the CPU, not configured; all give
/// bit-identical results.
pub fn gemm_kernel() -> &'static str {
    Kernel::detect().name()
}

// ---------------------------------------------------------------------
// Elementwise tanh.
//
// `tanh_lane` (`crate::tanh`) is glibc 2.36's `tanhf` as one branch-free
// body, so a loop over a slice vectorises. It runs on the GEMM's arms:
// the portable loop, and the same loop compiled inside each wide arm's
// `#[target_feature]`, where the compiler vectorises it at that width.
// Every lane does the scalar body's IEEE operations in its order (mul
// then add, never FMA), so all arms give the same bits.

/// Elements per parallel task of [`Matrix::tanh_into`].
const TANH_CHUNK: usize = 1024;

/// The portable tanh loop; inlined into each wide arm's `tanh_slice`.
#[inline(always)]
fn tanh_slice(src: &[f32], out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(src) {
        *o = tanh_lane(x);
    }
}

thread_local! {
    /// Packed-B column panels for the current GEMM call (caller thread).
    static PACK_B: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    /// Parked tile accumulators of a row block whose reduction spans
    /// more than one KC block (one per pool thread).
    static PARK: RefCell<Vec<Vec<Tile>>> = const { RefCell::new(Vec::new()) };
    /// Copies of A a sweep reads: one KC block of a gathered TN part's
    /// rows, or one packed tile over parts (one per pool thread).
    static COPY_A: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Borrow a thread-local scratch buffer for the duration of `f`.
///
/// Each slot is a small stack of buffers: `f` pops one (or starts fresh)
/// and pushes it back after. Re-entrant use — a thread help-draining the
/// pool runs another GEMM's block while its own call has a buffer checked
/// out — simply pops a second buffer, so nesting depth d parks at most d
/// buffers per thread and the steady-state training loop performs no
/// scratch allocation at any thread count.
fn with_scratch<T: 'static, R>(
    cell: &'static std::thread::LocalKey<RefCell<Vec<Vec<T>>>>,
    f: impl FnOnce(&mut Vec<T>) -> R,
) -> R {
    let mut buf = cell.with(|c| c.borrow_mut().pop().unwrap_or_default());
    let r = f(&mut buf);
    cell.with(|c| c.borrow_mut().push(buf));
    r
}

/// Grow `buf` to at least `len` elements (never shrinks, keeps capacity).
fn ensure_len<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::default());
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

/// One part of a GEMM's left operand made of parts laid side by side
/// along the reduction ([`Matrix::matmul_parts_into`],
/// [`Matrix::matmul_parts_tn_acc`]): `m` read in place, or with `idx`
/// its rows `idx` (the part's row `i` is `m`'s row `idx[i]`). Either
/// way nothing is copied into a concatenated or gathered buffer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct APart<'a> {
    pub(crate) m: &'a Matrix,
    pub(crate) idx: Option<&'a [u32]>,
}

impl APart<'_> {
    /// The part's row count: `idx`'s length, or `m`'s.
    pub(crate) fn rows(&self) -> usize {
        self.idx.map_or(self.m.rows, <[u32]>::len)
    }

    /// The row of `m` that is the part's row `i`.
    #[inline(always)]
    fn row(&self, i: usize) -> usize {
        self.idx.map_or(i, |idx| idx[i] as usize)
    }
}

/// Where a GEMM's A operand (logically `m x k`) lies. A strided operand
/// is read in place; the sweep copies parts one tile at a time, and a
/// gathered TN part, whose reduction steps are scattered rows, one KC
/// block at a time ([`ASource::block`]), into per-thread scratch.
#[derive(Clone, Copy)]
enum ASource<'a> {
    /// Element `(i, kk)` is `a[i * row_step + kk * k_step]`.
    Strided {
        a: &'a [f32],
        row_step: usize,
        k_step: usize,
    },
    /// NN over parts side by side along the reduction, from output row
    /// `r0` on: element `(i, kk)` is the part holding column `kk` at its
    /// row `r0 + i`.
    Parts { parts: &'a [APart<'a>], r0: usize },
    /// TN over `m`'s rows `idx`, from output row `r0` on: element
    /// `(i, kk)` is `m[idx[kk], r0 + i]`.
    TnGathered {
        m: &'a Matrix,
        idx: &'a [u32],
        r0: usize,
    },
}

impl<'a> ASource<'a> {
    /// `a` is `m x k` row-major (NN): a tile's rows are eight streams
    /// along the reduction.
    fn rows(a: &'a [f32], k: usize) -> Self {
        ASource::Strided {
            a,
            row_step: k,
            k_step: 1,
        }
    }

    /// `a` is `k x m` row-major (the TN operand, read transposed): each
    /// reduction step of a tile reads MR neighbouring floats of one row
    /// of `a`, and KC blocking keeps the rows a block revisits in cache.
    fn tn_cols(a: &'a [f32], m: usize) -> Self {
        ASource::Strided {
            a,
            row_step: 1,
            k_step: m,
        }
    }

    /// The operand from row `r0` on: its row `i` is this one's `r0 + i`.
    /// An operand with no reduction steps (`k = 0`) is never read and
    /// stays empty.
    fn skip_rows(self, r0: usize) -> Self {
        match self {
            ASource::Strided {
                a,
                row_step,
                k_step,
            } => ASource::Strided {
                a: a.get(r0 * row_step..).unwrap_or_default(),
                row_step,
                k_step,
            },
            ASource::Parts { parts, r0: s } => ASource::Parts { parts, r0: s + r0 },
            ASource::TnGathered { m, idx, r0: s } => ASource::TnGathered { m, idx, r0: s + r0 },
        }
    }

    /// What the tiles of reduction block `[k0, k0 + kc)` of a `rows`-row
    /// block read, and the step that block starts at in it: this source
    /// from `k0`, or for a gathered TN part the block's `kc` rows of
    /// `m`, columns `r0..r0 + rows`, copied into `scratch` (`kc x rows`,
    /// the [`ASource::tn_cols`] layout) from step 0. The copy holds the
    /// same floats, so it changes no product.
    fn block<'s>(
        self,
        k0: usize,
        kc: usize,
        rows: usize,
        scratch: &'s mut Vec<f32>,
    ) -> (ASource<'s>, usize)
    where
        'a: 's,
    {
        let ASource::TnGathered { m, idx, r0 } = self else {
            return (self, k0);
        };
        ensure_len(scratch, kc * rows);
        let block = &mut scratch[..kc * rows];
        for (dst, &e) in block.chunks_exact_mut(rows).zip(&idx[k0..k0 + kc]) {
            dst.copy_from_slice(&m.row(e as usize)[r0..r0 + rows]);
        }
        (ASource::tn_cols(block, rows), 0)
    }

    /// The tile of output rows `rows` from reduction step `k0` on. Parts
    /// and a gathered TN part are copied first ([`sweep`],
    /// [`ASource::block`]), so only a strided source is read here.
    fn tile(self, rows: [usize; MR], k0: usize) -> ATile<'a> {
        let ASource::Strided {
            a,
            row_step,
            k_step,
        } = self
        else {
            unreachable!("the sweep reads a copy of parts and of gathered rows");
        };
        ATile {
            a,
            row: rows.map(|i| i * row_step + k0 * k_step),
            step: k_step,
        }
    }
}

/// Where one tile's MR rows of A are: element `kk` of row `r` is
/// `a[row[r] + kk * step]`.
#[derive(Clone, Copy)]
struct ATile<'a> {
    a: &'a [f32],
    row: [usize; MR],
    step: usize,
}

/// One MR×NR tile over `k` reduction steps. Per output element this is
/// one sequential accumulator over `kk` ascending, from `+0.0` or
/// resumed from a parked `start` — the summation order every variant
/// pins, independent of blocking. Portable arm and the oracle of the
/// wide arms' `gemm_tile`.
#[inline]
fn gemm_tile(at: ATile<'_>, bp: &[f32], k: usize, start: Option<&Tile>) -> Tile {
    let mut acc = start.copied().unwrap_or([[0.0; NR]; MR]);
    for (kk, bv) in bp[..k * NR].chunks_exact(NR).enumerate() {
        for (r, row) in acc.iter_mut().enumerate() {
            let a_rk = at.a[at.row[r] + kk * at.step];
            for t in 0..NR {
                row[t] += a_rk * bv[t];
            }
        }
    }
    acc
}

/// One row block of the GEMM: the `out_block.len() / n` output rows of
/// `a` (which starts at the block's first row), read from A in place
/// and swept as packed-B panels × MR-row tiles on `kernel`'s arm, one
/// KC-deep reduction block at a time. Each tile starts from `+0.0`,
/// parks its accumulator in this thread's `PARK` scratch between blocks,
/// and after the last block is stored. A ragged last tile repeats the
/// block's last row in its missing lanes, so the kernel reads only real
/// rows and nothing is copied or padded; those lanes are not stored.
/// `OVERWRITE` selects `out = A·B` (skips the caller's zero pass) versus
/// `out += A·B`; both add the identical accumulator to the same start
/// value, so they are bit-compatible.
fn sweep_block<const OVERWRITE: bool>(
    kernel: Kernel,
    a: ASource<'_>,
    bp: &[f32],
    k: usize,
    n: usize,
    out_block: &mut [f32],
) {
    // A reduction of one block never parks, and a strided operand is
    // never copied, so neither borrows scratch it does not use.
    let mut run = |park: &mut Vec<Tile>| {
        if matches!(a, ASource::Strided { .. }) {
            sweep::<OVERWRITE>(kernel, a, bp, k, n, out_block, park, &mut Vec::new())
        } else {
            with_scratch(&COPY_A, |copy| {
                sweep::<OVERWRITE>(kernel, a, bp, k, n, out_block, park, copy)
            })
        }
    };
    if k <= KC {
        run(&mut Vec::new());
    } else {
        with_scratch(&PARK, run);
    }
}

/// The body of [`sweep_block`], with `park` the parked accumulators and
/// `copy` the scratch for copies of A.
#[allow(clippy::too_many_arguments)]
fn sweep<const OVERWRITE: bool>(
    kernel: Kernel,
    a: ASource<'_>,
    bp: &[f32],
    k: usize,
    n: usize,
    out_block: &mut [f32],
    park: &mut Vec<Tile>,
    copy: &mut Vec<f32>,
) {
    let rows = out_block.len() / n;
    let (panels, tiles) = (n.div_ceil(NR), rows.div_ceil(MR));
    let blocks = k.div_ceil(KC).max(1);
    ensure_len(park, if blocks > 1 { panels * tiles } else { 0 });
    // Park a tile's accumulator before the last block, store it after.
    let mut finish = |p: usize, t: usize, acc: Tile, park: &mut Vec<Tile>, last: bool| {
        if !last {
            park[p * tiles + t] = acc;
            return;
        }
        let (j0, tr) = (p * NR, (rows - t * MR).min(MR));
        let w = (n - j0).min(NR);
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
    };
    for kb in 0..blocks {
        let k0 = kb * KC;
        let kc = (k - k0).min(KC);
        let last = kb + 1 == blocks;
        let bblock = |p: usize| &bp[(p * k + k0) * NR..(p * k + k0 + kc) * NR];
        if let ASource::Parts { parts, r0 } = a {
            // Over parts, each tile's rows are copied once into `pack`
            // (MR x kc: the same floats in the same order), tiles outer,
            // and every panel's kernel call reads them there: one call
            // per tile and panel, on rows that stay in L1, whatever the
            // part widths.
            ensure_len(copy, MR * kc);
            let pack = &mut copy[..MR * kc];
            for t in 0..tiles {
                let rows_of: [usize; MR] = std::array::from_fn(|r| (t * MR + r).min(rows - 1));
                pack_tile(parts, r0, rows_of, k0, kc, pack);
                let at = ATile {
                    a: pack,
                    row: std::array::from_fn(|r| r * kc),
                    step: 1,
                };
                for p in 0..panels {
                    let start = (kb > 0).then(|| &park[p * tiles + t]);
                    let acc = kernel.tile(at, bblock(p), kc, start);
                    finish(p, t, acc, park, last);
                }
            }
            continue;
        }
        let (src, s0) = a.block(k0, kc, rows, copy);
        for p in 0..panels {
            for t in 0..tiles {
                let rows_of = std::array::from_fn(|r| (t * MR + r).min(rows - 1));
                let start = (kb > 0).then(|| &park[p * tiles + t]);
                let acc = kernel.tile(src.tile(rows_of, s0), bblock(p), kc, start);
                finish(p, t, acc, park, last);
            }
        }
    }
}

/// Copy reduction steps `[k0, k0 + kc)` of the tile rows `rows` (of
/// the operand from output row `r0` on) out of `parts` into `pack`,
/// `MR x kc` row-major.
fn pack_tile(
    parts: &[APart<'_>],
    r0: usize,
    rows: [usize; MR],
    k0: usize,
    kc: usize,
    pack: &mut [f32],
) {
    if kc == 0 {
        return;
    }
    for (r, dst) in rows.iter().zip(pack.chunks_exact_mut(kc)) {
        let mut p0 = 0;
        for part in parts {
            let w = part.m.cols;
            let (lo, hi) = (k0.max(p0), (k0 + kc).min(p0 + w));
            if lo < hi {
                let row = part.m.row(part.row(r0 + r));
                dst[lo - k0..hi - k0].copy_from_slice(&row[lo - p0..hi - p0]);
            }
            p0 += w;
        }
    }
}

/// Blocked-GEMM driver shared by `matmul` and `matmul_tn`:
/// `out (+)= a · b` with `a` `m x k`, on `kernel`'s arm. Packs B once,
/// then parallelises over MC-row blocks of the m axis.
fn gemm_dispatch<const OVERWRITE: bool>(
    kernel: Kernel,
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
        let mc = mc_for(m, k);
        let body = |(ci, chunk): (usize, &mut [f32])| {
            sweep_block::<OVERWRITE>(kernel, a.skip_rows(ci * mc), bp, k, n, chunk);
        };
        if m * n >= par_matmul_threshold() && m > 1 {
            out.par_chunks_mut(mc * n).enumerate().for_each(body);
        } else {
            out.chunks_mut(mc * n).enumerate().for_each(body);
        }
    });
}

/// Check that `parts` are a `rows x k` operand, and return `k`: every
/// part has `rows` rows, and every index addresses a row of its matrix.
fn parts_shape(parts: &[APart<'_>], rows: usize) -> usize {
    for part in parts {
        assert_eq!(part.rows(), rows, "GEMM part row count mismatch");
        if let Some(idx) = part.idx {
            Matrix::assert_row_indices(idx, part.m.rows, "GEMM part");
        }
    }
    parts.iter().map(|p| p.m.cols).sum()
}

/// [`Matrix::matmul_parts_into`] on `kernel`'s arm.
fn parts_nn(kernel: Kernel, parts: &[APart<'_>], r0: usize, b: &Matrix, out: &mut Matrix) {
    let k = parts_shape(parts, parts.first().map_or(0, APart::rows));
    assert!(
        parts.is_empty() || r0 + out.rows <= parts[0].rows(),
        "matmul_parts row window past the parts' last row"
    );
    assert_eq!(
        k, b.rows,
        "matmul_parts shape mismatch: {k} columns x {} rows",
        b.rows
    );
    assert_eq!(out.cols, b.cols, "matmul_parts output shape mismatch");
    let a = ASource::Parts { parts, r0 };
    gemm_dispatch::<true>(kernel, a, out.rows, k, &b.data, b.cols, &mut out.data);
}

/// [`Matrix::matmul_parts_tn_acc`] on `kernel`'s arm. Each part's
/// columns are its own rows of `out`, a TN product over the part read
/// in place, or through its index ([`ASource::TnGathered`]). B is packed
/// once, and the output rows of all parts are split into the row blocks
/// of one `m = Σ widths` product, so the parallel split is the
/// concatenated operand's; a block that spans parts sweeps each part's
/// rows of it in turn. Every output row is still one sweep over the
/// whole reduction.
fn parts_tn(kernel: Kernel, parts: &[APart<'_>], g: &Matrix, out: &mut Matrix) {
    let (k, n) = g.shape();
    let m = parts_shape(parts, k);
    assert_eq!(out.shape(), (m, n), "matmul_parts_tn output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    with_scratch(&PACK_B, |bp| {
        pack_b(&g.data, k, n, bp);
        let bp = &bp[..n.div_ceil(NR) * k * NR];
        let mc = mc_for(m, k);
        let body = |(ci, chunk): (usize, &mut [f32])| {
            let (r_lo, r_hi) = (ci * mc, ci * mc + chunk.len() / n);
            let (mut rest, mut p0) = (chunk, 0);
            for part in parts {
                let w = part.m.cols;
                let (lo, hi) = (r_lo.max(p0), r_hi.min(p0 + w));
                if lo < hi {
                    let a = match part.idx {
                        None => ASource::tn_cols(&part.m.data, w),
                        Some(idx) => ASource::TnGathered {
                            m: part.m,
                            idx,
                            r0: 0,
                        },
                    };
                    let (rows, tail) = std::mem::take(&mut rest).split_at_mut((hi - lo) * n);
                    sweep_block::<false>(kernel, a.skip_rows(lo - p0), bp, k, n, rows);
                    rest = tail;
                }
                p0 += w;
            }
        };
        if m * n >= par_matmul_threshold() && m > 1 {
            out.data.par_chunks_mut(mc * n).enumerate().for_each(body);
        } else {
            out.data.chunks_mut(mc * n).enumerate().for_each(body);
        }
    });
}

/// NT driver: `out (+)= a · bᵀ` with `a` `m x k` and `b` `n x k`, on
/// `kernel`'s arm, parallel over groups of [`Kernel::nt_group`] output
/// rows. A wide arm reads Bᵀ, transposed once per call into this
/// thread's `PACK_B` scratch. `OVERWRITE` as in [`sweep_block`]: every
/// output is a `dot8` result, which is never `-0.0` (see
/// [`Matrix::matmul_nt_into`]), so `0.0 + x` would be `x`.
fn nt_dispatch<const OVERWRITE: bool>(
    kernel: Kernel,
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    let group = kernel.nt_group();
    let rows = |bop: &[f32], out: &mut [f32]| {
        let body = |(g, out_group): (usize, &mut [f32])| {
            let r0 = g * group;
            let a_group = &a[r0 * k..(r0 + out_group.len() / n) * k];
            kernel.nt_rows::<OVERWRITE>(a_group, bop, n, out_group);
        };
        if m * n >= par_matmul_threshold() && m > 1 {
            out.par_chunks_mut(group * n).enumerate().for_each(body);
        } else {
            kernel.nt_rows::<OVERWRITE>(a, bop, n, out);
        }
    };
    if kernel.nt_reads_bt() {
        with_scratch(&PACK_B, |bt| {
            ensure_len(bt, k * n);
            transpose_buf(b, n, k, &mut bt[..k * n]);
            rows(&bt[..k * n], out);
        });
    } else {
        rows(b, out);
    }
}

/// NT rows of B's row block `k0..k0 + w` (`b` is `n_b x k`), read as
/// [`Kernel::nt_rows`] wants them: the block itself on the portable
/// arm, its transpose (into this thread's `PACK_B` scratch) on a wide
/// one. `f` gets the operand and `w`.
fn with_nt_block<R>(
    kernel: Kernel,
    b: &Matrix,
    k0: usize,
    w: usize,
    f: impl FnOnce(&[f32]) -> R,
) -> R {
    let k = b.cols;
    assert!(k0 + w <= b.rows, "NT block past B's last row");
    let block = &b.data[k0 * k..(k0 + w) * k];
    if kernel.nt_reads_bt() {
        with_scratch(&PACK_B, |bt| {
            ensure_len(bt, k * w);
            transpose_buf(block, w, k, &mut bt[..k * w]);
            f(&bt[..k * w])
        })
    } else {
        f(block)
    }
}

/// [`Matrix::matmul_nt_block`] on `kernel`'s arm.
fn nt_block(kernel: Kernel, g: &Matrix, b: &Matrix, k0: usize, out: &mut Matrix, overwrite: bool) {
    let (m, k, w) = (g.rows, g.cols, out.cols);
    assert_eq!(b.cols, k, "matmul_nt_block shape mismatch");
    assert_eq!(out.rows, m, "matmul_nt_block output shape mismatch");
    assert!(k0 + w <= b.rows, "matmul_nt_block past B's last row");
    let block = &b.data[k0 * k..(k0 + w) * k];
    if overwrite {
        nt_dispatch::<true>(kernel, &g.data, m, k, block, w, &mut out.data);
    } else {
        nt_dispatch::<false>(kernel, &g.data, m, k, block, w, &mut out.data);
    }
}

/// [`Matrix::matmul_nt_scatter_acc`] on `kernel`'s arm.
fn nt_scatter(kernel: Kernel, g: &Matrix, b: &Matrix, k0: usize, idx: &[u32], out: &mut Matrix) {
    let (k, w) = (g.cols, out.cols);
    assert_eq!(b.cols, k, "matmul_nt_scatter shape mismatch");
    assert_eq!(idx.len(), g.rows, "matmul_nt_scatter index length mismatch");
    Matrix::assert_row_indices(idx, out.rows, "matmul_nt_scatter");
    if w == 0 {
        return;
    }
    with_nt_block(kernel, b, k0, w, |bop| {
        for (i, &r) in idx.iter().enumerate() {
            let r = r as usize;
            let row = &mut out.data[r * w..(r + 1) * w];
            kernel.nt_rows::<false>(g.row(i), bop, w, row);
        }
    });
}

/// [`Matrix::matmul_nt_edges_acc`] on `kernel`'s arm.
fn nt_edges(
    kernel: Kernel,
    g: &Matrix,
    b: &Matrix,
    (k_src, k_dst): (usize, usize),
    plans: &EdgePlans,
    out: &mut Matrix,
) {
    let (k, w) = (g.cols, out.cols);
    assert_eq!(b.cols, k, "matmul_nt_edges shape mismatch");
    assert_eq!(
        g.rows,
        plans.num_edges(),
        "matmul_nt_edges edge count mismatch"
    );
    assert_eq!(
        out.rows,
        plans.nodes(),
        "matmul_nt_edges node count mismatch"
    );
    if w == 0 || out.rows == 0 {
        return;
    }
    let group = kernel.nt_group();
    with_nt_block(kernel, b, k_src, w, |b_src| {
        with_nt_block(kernel, b, k_dst, w, |b_dst| {
            // A block of nodes' rows: every dst edge's product added to
            // its node's row, then every src edge's, each plan's edges
            // walked node by node and ascending within a node, so each
            // row adds its dst shares, then its src shares, in edge
            // order. The walk runs `group` edge rows at a time through
            // the kernel (copied side by side, products overwriting
            // scratch: the same `dot8` values), whichever nodes they
            // belong to.
            let body = |(blk, rows): (usize, &mut [f32])| {
                let lo = blk * NODE_BLOCK;
                let hi = lo + rows.len() / w;
                with_scratch(&COPY_A, |copy| {
                    ensure_len(copy, group * (k + w));
                    let (a, prod) = copy.split_at_mut(group * k);
                    for (plan, idx, bop) in [
                        (&plans.dst_plan, &plans.dst, b_dst),
                        (&plans.src_plan, &plans.src, b_src),
                    ] {
                        for edges in plan.incident_to_range(lo, hi).chunks(group) {
                            for (i, &e) in edges.iter().enumerate() {
                                a[i * k..(i + 1) * k].copy_from_slice(g.row(e as usize));
                            }
                            let n = edges.len();
                            kernel.nt_rows::<true>(&a[..n * k], bop, w, &mut prod[..n * w]);
                            for (&e, p) in edges.iter().zip(prod.chunks_exact(w)) {
                                let r = idx[e as usize] as usize - lo;
                                for (o, &v) in rows[r * w..(r + 1) * w].iter_mut().zip(p) {
                                    *o += v;
                                }
                            }
                        }
                    }
                });
            };
            let block = NODE_BLOCK * w;
            if g.rows * w >= par_matmul_threshold() && out.rows > NODE_BLOCK {
                out.data.par_chunks_mut(block).enumerate().for_each(body);
            } else {
                out.data.chunks_mut(block).enumerate().for_each(body);
            }
        })
    });
}

/// Nodes per task of [`Matrix::matmul_nt_edges_acc`].
const NODE_BLOCK: usize = 64;

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

/// NT output rows, one at a time: `out[r, j] (+)= dot8(a_r, b_j)` for
/// every `n`-wide row `r` of `out`, with `a_r` row `r` of `a` and `b_j`
/// row `j` of `b` (`n x k`). Portable arm and the oracle of the wide
/// arms' `nt_rows`.
fn nt_rows<const OVERWRITE: bool>(a: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    let k = b.len() / n;
    for (r, out_row) in out.chunks_exact_mut(n).enumerate() {
        let a_r = &a[r * k..(r + 1) * k];
        for (j, o) in out_row.iter_mut().enumerate() {
            let v = dot8(a_r, &b[j * k..(j + 1) * k]);
            *o = if OVERWRITE { v } else { *o + v };
        }
    }
}

/// The wide micro-kernel arms, written once. Expanded inside an arm's
/// module, which names its register type `Reg`, that register's
/// unaligned load / store, set-to-zero, broadcast, add and multiply
/// intrinsics (`reg_load`, …, `reg_mul`), how many registers make one
/// NR-float vector (`REGS`), how many tile rows one sweep keeps in
/// accumulators (`ROWS`) and how many NT output rows one pass covers
/// (`NT_ROWS`). Each lane operation is one IEEE operation per lane,
/// rounded, so every arm computes the portable body's numbers.
///
/// The functions are safe to call only on a CPU with the feature —
/// calling a `#[target_feature]` function from code without it is
/// `unsafe`, and [`Kernel`] is the one caller. Operand bounds are
/// checked once per tile or row before the reads that rely on them.
#[cfg(target_arch = "x86_64")]
macro_rules! wide_arm {
    ($feature:literal) => {
        use super::{ATile, Tile, MR, NR};

        /// One NR-float vector: `REGS` registers of `LANES` floats.
        type V = [Reg; REGS];
        const LANES: usize = NR / REGS;
        // `load` / `store` move exactly NR floats, and the sweeps of
        // `gemm_tile` cover every tile row.
        const _: () = assert!(REGS * std::mem::size_of::<Reg>() == NR * 4);
        const _: () = assert!(MR % ROWS == 0);

        #[target_feature(enable = $feature)]
        #[inline]
        fn zero() -> V {
            [reg_zero(); REGS]
        }

        #[target_feature(enable = $feature)]
        #[inline]
        fn splat(x: f32) -> V {
            [reg_splat(x); REGS]
        }

        #[target_feature(enable = $feature)]
        #[inline]
        fn add(mut x: V, y: V) -> V {
            for (x, y) in x.iter_mut().zip(y) {
                *x = reg_add(*x, y);
            }
            x
        }

        #[target_feature(enable = $feature)]
        #[inline]
        fn mul(mut x: V, y: V) -> V {
            for (x, y) in x.iter_mut().zip(y) {
                *x = reg_mul(*x, y);
            }
            x
        }

        /// # Safety
        /// `p` must point at NR readable floats.
        #[target_feature(enable = $feature)]
        #[inline]
        unsafe fn load(p: *const f32) -> V {
            let mut v = zero();
            for (i, r) in v.iter_mut().enumerate() {
                // SAFETY: register `i` reads floats `i * LANES..(i + 1)
                // * LANES` of the NR at `p` the caller guarantees.
                *r = unsafe { reg_load(p.add(i * LANES)) };
            }
            v
        }

        /// # Safety
        /// `p` must point at NR writable floats.
        #[target_feature(enable = $feature)]
        #[inline]
        unsafe fn store(p: *mut f32, v: V) {
            for (i, r) in v.into_iter().enumerate() {
                // SAFETY: register `i` writes floats `i * LANES..(i + 1)
                // * LANES` of the NR at `p` the caller guarantees.
                unsafe { reg_store(p.add(i * LANES), r) };
            }
        }

        /// [`super::gemm_tile`] at this arm's width, bit-identical to
        /// it. The tile runs as `MR / ROWS` sweeps of `ROWS` rows over
        /// the same B panel: per sweep, `ROWS` accumulators start at
        /// zero or are loaded from `start`, then per `kk` take one B
        /// load and one broadcast of A per row, all resident for the
        /// whole reduction.
        #[target_feature(enable = $feature)]
        pub(super) fn gemm_tile(at: ATile<'_>, bp: &[f32], k: usize, start: Option<&Tile>) -> Tile {
            let bp = &bp[..k * NR];
            let span = k.saturating_sub(1).saturating_mul(at.step);
            let in_bounds = |r: usize| r < at.a.len() && at.a.len() - r > span;
            assert!(
                k == 0 || at.row.iter().all(|&r| in_bounds(r)),
                "A tile out of bounds"
            );
            let mut out = [[0.0f32; NR]; MR];
            for (sweep, rows) in out.chunks_exact_mut(ROWS).enumerate() {
                let base: [*const f32; ROWS] =
                    std::array::from_fn(|r| at.a.as_ptr().wrapping_add(at.row[sweep * ROWS + r]));
                let mut regs = [zero(); ROWS];
                if let Some(start) = start {
                    for (reg, row) in regs.iter_mut().zip(&start[sweep * ROWS..]) {
                        // SAFETY: `row` holds NR floats.
                        *reg = unsafe { load(row.as_ptr()) };
                    }
                }
                for (kk, bv) in bp.chunks_exact(NR).enumerate() {
                    // SAFETY: `bv` is one NR-float row of the panel.
                    let b = unsafe { load(bv.as_ptr()) };
                    let off = kk * at.step;
                    for (reg, &p) in regs.iter_mut().zip(&base) {
                        // SAFETY: `p` is `a` at `row[r]`, and `kk < k`
                        // (so `k > 0`), so `row[r] + off <= row[r] +
                        // span < a.len()` by the assert above.
                        let x = unsafe { *p.add(off) };
                        *reg = add(*reg, mul(splat(x), b));
                    }
                }
                for (row, reg) in rows.iter_mut().zip(regs) {
                    // SAFETY: `row` holds NR floats.
                    unsafe { store(row.as_mut_ptr(), reg) };
                }
            }
            out
        }

        /// [`super::nt_rows`] over Bᵀ, bit-identical to it: `bt` is `k x
        /// n` row-major with `bt[i * n + j] = b_j[i]`, and each `n`-wide
        /// row of `out` is one row of `a`. Full groups of `NT_ROWS` rows
        /// run as one pass of [`nt_pass`], the rows left over one at a
        /// time.
        #[target_feature(enable = $feature)]
        pub(super) fn nt_rows<const OVERWRITE: bool>(
            a: &[f32],
            bt: &[f32],
            n: usize,
            out: &mut [f32],
        ) {
            let (m, k) = (out.len() / n, bt.len() / n);
            assert_eq!(a.len(), m * k, "nt operands");
            let full = m - m % NT_ROWS;
            for r0 in (0..full).step_by(NT_ROWS) {
                let (a_g, out_g) = (
                    &a[r0 * k..(r0 + NT_ROWS) * k],
                    &mut out[r0 * n..(r0 + NT_ROWS) * n],
                );
                nt_pass::<NT_ROWS, OVERWRITE>(a_g, bt, out_g);
            }
            for r in full..m {
                nt_pass::<1, OVERWRITE>(&a[r * k..(r + 1) * k], bt, &mut out[r * n..(r + 1) * n]);
            }
        }

        /// `R` rows of [`super::nt_rows`] over Bᵀ, vectorised over
        /// outputs rather than over one dot's lanes. For NR outputs at a
        /// time and each `dot8` lane `t`, row `r`'s lane is one vector
        /// that starts at `0.0` and adds `a_r[8c + t] · bᵀ[8c + t, j..j +
        /// NR]` for `c` ascending; the one Bᵀ load per `c` feeds all `R`
        /// rows, whose `R` lane vectors are independent add chains. Row
        /// `r`'s sum vector starts at `-0.0` and adds its eight lanes in
        /// `t` order, then its tail vector (the products past the last
        /// full chunk), and the result is added into (or, `OVERWRITE`,
        /// stored to) `out`. That is exactly the additions of `dot8` +
        /// `dot8_finish` per output, with no shuffle and no horizontal
        /// add. The `n % NR` outputs left over run the same sequence in
        /// scalar code.
        #[target_feature(enable = $feature)]
        #[inline]
        fn nt_pass<const R: usize, const OVERWRITE: bool>(a: &[f32], bt: &[f32], out: &mut [f32]) {
            let (k, n) = (a.len() / R, out.len() / R);
            assert_eq!(
                (a.len(), out.len(), bt.len()),
                (R * k, R * n, k * n),
                "nt operands"
            );
            let body = k - k % 8;
            let full = n - n % NR;
            let rows: [*const f32; R] = std::array::from_fn(|r| a.as_ptr().wrapping_add(r * k));
            for j in (0..full).step_by(NR) {
                let col = |i: usize| bt.as_ptr().wrapping_add(i * n + j);
                let mut sum = [splat(-0.0); R];
                for t in 0..8 {
                    let mut lanes = [zero(); R];
                    for i in (t..body).step_by(8) {
                        // SAFETY: `i < body <= k` and `j + NR <= n`, so
                        // the NR-float read at row `i`, column `j` of
                        // `bt` ends within `k * n = bt.len()`.
                        let b = unsafe { load(col(i)) };
                        for (lane, &p) in lanes.iter_mut().zip(&rows) {
                            // SAFETY: `p` is row `r` of `a` (`k` floats
                            // from `r * k`, within `R * k = a.len()`) and
                            // `i < k`.
                            let x = unsafe { *p.add(i) };
                            *lane = add(*lane, mul(splat(x), b));
                        }
                    }
                    for (s, lane) in sum.iter_mut().zip(lanes) {
                        *s = add(*s, lane);
                    }
                }
                let mut tail = [zero(); R];
                for i in body..k {
                    // SAFETY: `i < k` and `j + NR <= n`: within `bt`.
                    let b = unsafe { load(col(i)) };
                    for (tl, &p) in tail.iter_mut().zip(&rows) {
                        // SAFETY: as for the lanes above.
                        let x = unsafe { *p.add(i) };
                        *tl = add(*tl, mul(splat(x), b));
                    }
                }
                for (r, (s, tl)) in sum.into_iter().zip(tail).enumerate() {
                    let v = add(s, tl);
                    // SAFETY: `r * n + j + NR <= (r + 1) * n <= R * n =
                    // out.len()`: an NR-float load and store in bounds.
                    unsafe {
                        let o = out.as_mut_ptr().add(r * n + j);
                        store(o, if OVERWRITE { v } else { add(load(o), v) });
                    }
                }
            }
            for r in 0..R {
                let (a_r, out_r) = (&a[r * k..(r + 1) * k], &mut out[r * n..(r + 1) * n]);
                for (j, o) in out_r.iter_mut().enumerate().skip(full) {
                    let mut sum = -0.0f32;
                    for t in 0..8 {
                        let mut lane = 0.0f32;
                        for i in (t..body).step_by(8) {
                            lane += a_r[i] * bt[i * n + j];
                        }
                        sum += lane;
                    }
                    let mut tail = 0.0f32;
                    for (i, &x) in a_r.iter().enumerate().skip(body) {
                        tail += x * bt[i * n + j];
                    }
                    let v = sum + tail;
                    *o = if OVERWRITE { v } else { *o + v };
                }
            }
        }

        /// [`super::tanh_slice`] compiled for this arm's feature, which
        /// vectorises the lane body at its width, bit-identical to it.
        #[target_feature(enable = $feature)]
        pub(super) fn tanh_slice(src: &[f32], out: &mut [f32]) {
            super::tanh_slice(src, out)
        }
    };
}

/// The AVX-512F arm: one 16-lane ZMM register per NR-float vector, so
/// the whole 8-row tile is one sweep of 8 accumulators (of 32
/// registers), each `kk` one B load and a broadcast operand per row.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::{
        __m512 as Reg, _mm512_add_ps as reg_add, _mm512_loadu_ps as reg_load,
        _mm512_mul_ps as reg_mul, _mm512_set1_ps as reg_splat, _mm512_setzero_ps as reg_zero,
        _mm512_storeu_ps as reg_store,
    };
    const REGS: usize = 1;
    const ROWS: usize = 8;
    /// NT: 8 lane and 8 sum registers, one B load.
    pub(super) const NT_ROWS: usize = 8;
    wide_arm!("avx512f");
}

/// The AVX2 arm: a pair of 8-lane YMM registers per NR-float vector. A
/// whole 8×16 tile would need 16 accumulators plus operands in the 16
/// registers, so it runs as two 4-row sweeps of 8 accumulators.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256 as Reg, _mm256_add_ps as reg_add, _mm256_loadu_ps as reg_load,
        _mm256_mul_ps as reg_mul, _mm256_set1_ps as reg_splat, _mm256_setzero_ps as reg_zero,
        _mm256_storeu_ps as reg_store,
    };
    const REGS: usize = 2;
    const ROWS: usize = 4;
    /// NT: three rows' lane pairs, sum pairs and a B pair are 14 of the
    /// 16 YMM registers.
    pub(super) const NT_ROWS: usize = 3;
    wide_arm!("avx2");
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

    /// A `rows x cols` shape with no elements: what a tape keeps of a
    /// released value, whose backward readers read only its shape, and
    /// the value of a view (`Tape::view`).
    pub const fn shape_only(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: Vec::new(),
        }
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
        gemm_dispatch::<true>(
            Kernel::detect(),
            ASource::rows(&self.data, k),
            m,
            k,
            &b.data,
            n,
            &mut out.data,
        );
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
        gemm_dispatch::<false>(
            Kernel::detect(),
            ASource::rows(&self.data, k),
            m,
            k,
            &b.data,
            n,
            &mut out.data,
        );
    }

    /// `selfᵀ * b` without materialising the transpose in the caller.
    pub fn matmul_tn(&self, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, b.cols);
        self.matmul_tn_acc(b, &mut out);
        out
    }

    /// `out += selfᵀ * b` without materialising the transpose.
    ///
    /// Runs the same blocked GEMM core as [`Matrix::matmul_acc`], reading
    /// `self` in place at step m along the reduction (each tile step reads
    /// MR neighbouring floats of one row of `self`): per element the same
    /// products are added by one accumulator in the same
    /// ascending-reduction order as the historical strided column walk,
    /// so results are bit-identical, and the parallel split is over
    /// output row blocks (the m axis) instead of the reduction.
    pub fn matmul_tn_acc(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, b.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, b.rows, b.cols
        );
        let (m, k, n) = (self.cols, self.rows, b.cols);
        assert_eq!(out.shape(), (m, n), "matmul_tn output shape mismatch");
        gemm_dispatch::<false>(
            Kernel::detect(),
            ASource::tn_cols(&self.data, m),
            m,
            k,
            &b.data,
            n,
            &mut out.data,
        );
    }

    /// `out = [parts] · b`, overwriting: the left operand is `parts`
    /// laid side by side along the reduction (each one `out.rows()`
    /// rows), read where they lie, gathered parts through their row
    /// index. Bit-identical to [`Matrix::matmul_into`] on the
    /// concatenated, gathered operand: each tile resumes its accumulator
    /// across a part boundary as it does across a KC block, so every
    /// output element is still one sequential accumulator over the
    /// ascending reduction index.
    pub(crate) fn matmul_parts_into(parts: &[APart<'_>], r0: usize, b: &Matrix, out: &mut Matrix) {
        parts_nn(Kernel::detect(), parts, r0, b, out);
    }

    /// `out += [parts]ᵀ · g`, the weight gradient of
    /// [`Matrix::matmul_parts_into`]: each part's columns are its own
    /// rows of `out`, a TN product over the part read in place, or for a
    /// gathered part over each KC block of its rows copied into
    /// per-thread scratch. Bit-identical to [`Matrix::matmul_tn_acc`] on
    /// the concatenated, gathered operand.
    pub(crate) fn matmul_parts_tn_acc(parts: &[APart<'_>], g: &Matrix, out: &mut Matrix) {
        parts_tn(Kernel::detect(), parts, g, out);
    }

    /// `out (+)= self · b[k0..k0 + w]ᵀ`, `w` being `out`'s width: the
    /// columns `k0..k0 + w` of `self · bᵀ`, the share of a GEMM's left
    /// operand gradient that belongs to the part at those columns.
    /// `overwrite` as [`Matrix::matmul_nt_into`], else as
    /// [`Matrix::matmul_nt_acc`]; each element is the same `dot8` as
    /// theirs.
    pub(crate) fn matmul_nt_block(&self, b: &Matrix, k0: usize, out: &mut Matrix, overwrite: bool) {
        nt_block(Kernel::detect(), self, b, k0, out, overwrite);
    }

    /// The gradient a `GatherConcat`'s `x` takes from the GEMM that reads
    /// it, without building the operand's: for every row `r` of `out`
    /// (`x`'s gradient, `w` wide), `out[r] += self[e] · b[k_dst..k_dst +
    /// w]ᵀ` for each edge `e` with `dst[e] = r`, then `out[r] += self[e] ·
    /// b[k_src..k_src + w]ᵀ` for each with `src[e] = r`, `e` ascending.
    /// Bit-identical to building `self · bᵀ` and running the
    /// `GatherConcat` rule on it. Parallel over rows, one writer each.
    pub(crate) fn matmul_nt_edges_acc(
        &self,
        b: &Matrix,
        k_src: usize,
        k_dst: usize,
        plans: &EdgePlans,
        out: &mut Matrix,
    ) {
        nt_edges(Kernel::detect(), self, b, (k_src, k_dst), plans, out);
    }

    /// The gradient a gather's source takes from the GEMM that reads
    /// the gather: `out[idx[i]] += self[i] · b[k0..k0 + w]ᵀ` for `i`
    /// ascending, `w` being `out`'s width. Bit-identical to building
    /// `self · bᵀ` and scattering its columns `k0..k0 + w`. Serial.
    pub(crate) fn matmul_nt_scatter_acc(
        &self,
        b: &Matrix,
        k0: usize,
        idx: &[u32],
        out: &mut Matrix,
    ) {
        nt_scatter(Kernel::detect(), self, b, k0, idx, out);
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
    /// at a time. A wide arm transposes B once per call into this
    /// thread's `PACK_B` scratch (B is the weight, a few thousand floats)
    /// and runs NR dots of each of a group of output rows per pass, one
    /// NR-lane vector per row and `dot8` lane.
    pub fn matmul_nt_acc(&self, b: &Matrix, out: &mut Matrix) {
        let (m, k, n) = self.nt_shape(b, out);
        nt_dispatch::<false>(
            Kernel::detect(),
            &self.data,
            m,
            k,
            &b.data,
            n,
            &mut out.data,
        );
    }

    /// `out = self * bᵀ`, overwriting a caller-provided buffer of any
    /// contents.
    ///
    /// Bit-identical to zeroing `out` and calling
    /// [`Matrix::matmul_nt_acc`]: a `dot8` result is never `-0.0` (its
    /// lanes and tail start at `+0.0` and only add, and a round-to-nearest
    /// sum is `-0.0` only when both addends are), so `0.0 + x` is `x`.
    pub fn matmul_nt_into(&self, b: &Matrix, out: &mut Matrix) {
        let (m, k, n) = self.nt_shape(b, out);
        nt_dispatch::<true>(
            Kernel::detect(),
            &self.data,
            m,
            k,
            &b.data,
            n,
            &mut out.data,
        );
    }

    /// `(m, k, n)` of `self * bᵀ` into `out`, checked.
    fn nt_shape(&self, b: &Matrix, out: &Matrix) -> (usize, usize, usize) {
        assert_eq!(
            self.cols, b.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, b.rows, b.cols
        );
        let (m, k, n) = (self.rows, self.cols, b.rows);
        assert_eq!(out.shape(), (m, n), "matmul_nt output shape mismatch");
        (m, k, n)
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

    /// Elementwise `tanh` into `out` (overwrites): glibc 2.36's `tanhf`
    /// bit for bit on every host, at the widest arm the CPU runs,
    /// parallel over fixed chunks above [`par_threshold`]. Each element
    /// has one writer, so the split never changes a bit.
    pub fn tanh_into(&self, out: &mut Matrix) {
        assert_eq!(self.shape(), out.shape(), "tanh shape mismatch");
        let (kernel, src) = (Kernel::detect(), &self.data);
        if src.len() >= par_threshold() {
            out.data
                .par_chunks_mut(TANH_CHUNK)
                .enumerate()
                .for_each(|(c, o)| kernel.tanh(&src[c * TANH_CHUNK..][..o.len()], o));
        } else {
            kernel.tanh(src, &mut out.data);
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
    use std::sync::Arc;

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

    /// Every micro-kernel arm this CPU can run, widest first (the
    /// portable arm last). Says which ran, so a log shows which arms
    /// were checked on this host.
    fn gemm_arms() -> Vec<Kernel> {
        let arms: Vec<Kernel> = Kernel::WIDEST_FIRST
            .iter()
            .copied()
            .filter(|k| k.runs_here())
            .collect();
        let names: Vec<&str> = arms.iter().map(|k| k.name()).collect();
        println!("gemm arms: checked {}", names.join(", "));
        arms
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
                // The tile resumes a parked accumulator (zero for the
                // tripwire): one accumulator per element over ascending kk.
                let start = fill_values(fill, MR * NR, &mut rng);
                let acc0: Tile =
                    std::array::from_fn(|r| std::array::from_fn(|t| start[r * NR + t]));
                let mut expect = acc0;
                for (r, row) in expect.iter_mut().enumerate() {
                    for (t, e) in row.iter_mut().enumerate() {
                        for kk in 0..k {
                            *e += ap[kk * MR + r] * bp[kk * NR + t];
                        }
                    }
                }
                for &arm in &arms {
                    let what = format!("{} k={k} {fill}", arm.name());
                    let packed = ATile {
                        a: &ap,
                        row: std::array::from_fn(|r| r),
                        step: MR,
                    };
                    let got = arm.tile(packed, &bp, k, Some(&acc0));
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

    /// `dot8`'s sequence of additions, restated: 8 lanes filled
    /// chunk-ascending, summed in order, plus a sequential tail.
    fn ref_dot8(a: &[f32], b: &[f32]) -> f32 {
        let k = a.len();
        let mut lanes = [0.0f32; 8];
        for i in 0..k / 8 * 8 {
            lanes[i % 8] += a[i] * b[i];
        }
        let mut tail = 0.0f32;
        for i in k / 8 * 8..k {
            tail += a[i] * b[i];
        }
        lanes.iter().sum::<f32>() + tail
    }

    /// The NT rows on every arm (the wide ones fed Bᵀ) against `dot8`'s
    /// sequence of additions, accumulating onto a non-zero `out` and
    /// overwriting a NaN-filled one. One row runs the one-row pass; 11
    /// rows run full groups of every wide arm's `NT_ROWS` and a ragged
    /// rest.
    fn check_nt_arms(arms: &[Kernel]) {
        let (x, y, c) = FMA_TRIPWIRE;
        let mut rng = StdRng::seed_from_u64(23);
        // Below, at and around one and two NR-output passes, with the
        // scalar leftover of each.
        for n in [1, 8, 15, 16, 17, 19, 32, 35] {
            for m in [1, 11] {
                for k in PARITY_K {
                    for fill in PARITY_FILLS {
                        let mut a = fill_values(fill, m * k, &mut rng);
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
                                for a_r in a.chunks_exact_mut(k) {
                                    (a_r[s0], a_r[s1]) = (c, x);
                                }
                                for bj in b.chunks_exact_mut(k) {
                                    (bj[s0], bj[s1]) = (1.0, y);
                                }
                            }
                        }
                        let dots: Vec<f32> = (0..m * n)
                            .map(|i| {
                                let (r, j) = (i / n, i % n);
                                ref_dot8(&a[r * k..(r + 1) * k], &b[j * k..(j + 1) * k])
                            })
                            .collect();
                        // Onto a non-zero start: one add after the dot.
                        let out0 = parity_values(m * n, 0, &mut rng);
                        let acc_expect: Vec<f32> =
                            out0.iter().zip(&dots).map(|(o, d)| o + d).collect();
                        let bt = Matrix::from_vec(n, k, b.clone()).transpose();
                        for &arm in arms {
                            let what = format!("{} m={m} n={n} k={k} {fill}", arm.name());
                            let operand = if arm.nt_reads_bt() { bt.data() } else { &b[..] };
                            let mut acc = out0.clone();
                            arm.nt_rows::<false>(&a, operand, n, &mut acc);
                            let mut into = vec![f32::NAN; m * n];
                            arm.nt_rows::<true>(&a, operand, n, &mut into);
                            for (op, got, want) in
                                [("acc", &acc, &acc_expect), ("into", &into, &dots)]
                            {
                                for (i, (&g, &e)) in got.iter().zip(want).enumerate() {
                                    assert!(
                                        same_bits(g, e),
                                        "nt {op} {what} output {i}: {g:e} vs {e:e}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// `a (m x k) · b (k x n)` with element `(i, kk)` of A at `a[i *
    /// row_step + kk * k_step]`: one sequential accumulator per element
    /// over ascending `kk`, the NN / TN order.
    fn naive_gemm(a: ASource<'_>, m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let ASource::Strided {
            a,
            row_step,
            k_step,
        } = a
        else {
            unreachable!("the reference reads a strided operand");
        };
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    out[i * n + j] += a[i * row_step + kk * k_step] * b[kk * n + j];
                }
            }
        }
        out
    }

    /// Reduction depths for the drivers: [`PARITY_K`] plus both sides of
    /// one and two KC blocks (a parked accumulator resumed once and
    /// twice, a last block of 1 and of 3 rows) and a deep reduction of
    /// twelve blocks with a ragged last one.
    const DRIVER_K: [usize; 17] = {
        let mut ks = [0; 17];
        let mut i = 0;
        while i < PARITY_K.len() {
            ks[i] = PARITY_K[i];
            i += 1;
        }
        (ks[12], ks[13], ks[14], ks[15], ks[16]) = (KC - 1, KC, KC + 1, 2 * KC + 3, 11 * KC + 185);
        ks
    };

    /// The five GEMM entry points through their drivers, on every arm
    /// against naive references spelling out the pinned orders, bit for
    /// bit: `matmul_into` and `matmul_nt_into` onto a NaN-filled `out`,
    /// `matmul_acc`, `matmul_tn_acc` and `matmul_nt_acc` onto a dirty
    /// one. The m values put ragged last tiles (a tile's missing rows
    /// read the block's last row) in single- and multi-tile blocks, leave
    /// every remainder 1..7 of a group of 8 NT rows over one to three
    /// full groups, and m = 130 with n >= 16 runs the parallel split;
    /// the depths cross KC blocks.
    #[test]
    fn gemm_drivers_match_portable_on_every_arm() {
        let arms = gemm_arms();
        let mut rng = StdRng::seed_from_u64(29);
        for m in [1, 7, 8, 9, 15, 17, 26, 27, 28, 29, 30, 130] {
            for k in DRIVER_K {
                for n in [1, 15, 16, 17, 32, 33] {
                    for fill in ["uniform", "specials"] {
                        let a = fill_values(fill, m * k, &mut rng);
                        let a_t = fill_values(fill, k * m, &mut rng);
                        let b = fill_values(fill, k * n, &mut rng);
                        let b_nt = fill_values(fill, n * k, &mut rng);
                        let dirty = parity_values(m * n, 0, &mut rng);
                        let (nn, tn) = (ASource::rows(&a, k), ASource::tn_cols(&a_t, m));
                        let run = |arm: Kernel| {
                            let mut into = vec![f32::NAN; m * n];
                            gemm_dispatch::<true>(arm, nn, m, k, &b, n, &mut into);
                            let mut acc = dirty.clone();
                            gemm_dispatch::<false>(arm, nn, m, k, &b, n, &mut acc);
                            let mut tn_acc = dirty.clone();
                            gemm_dispatch::<false>(arm, tn, m, k, &b, n, &mut tn_acc);
                            let mut nt_acc = dirty.clone();
                            nt_dispatch::<false>(arm, &a, m, k, &b_nt, n, &mut nt_acc);
                            let mut nt_into = vec![f32::NAN; m * n];
                            nt_dispatch::<true>(arm, &a, m, k, &b_nt, n, &mut nt_into);
                            [
                                ("matmul_into", into),
                                ("matmul_acc", acc),
                                ("matmul_tn_acc", tn_acc),
                                ("matmul_nt_acc", nt_acc),
                                ("matmul_nt_into", nt_into),
                            ]
                        };
                        let plus_dirty = |v: Vec<f32>| -> Vec<f32> {
                            dirty.iter().zip(v).map(|(d, v)| d + v).collect()
                        };
                        let nn_ref = naive_gemm(nn, m, k, &b, n);
                        let nt_ref: Vec<f32> = (0..m * n)
                            .map(|i| {
                                let (r, j) = (i / n, i % n);
                                ref_dot8(&a[r * k..(r + 1) * k], &b_nt[j * k..(j + 1) * k])
                            })
                            .collect();
                        let expect = [
                            nn_ref.clone(),
                            plus_dirty(nn_ref),
                            plus_dirty(naive_gemm(tn, m, k, &b, n)),
                            plus_dirty(nt_ref.clone()),
                            nt_ref,
                        ];
                        let portable = run(Kernel::Portable);
                        for &arm in &arms {
                            let got = if arm == Kernel::Portable {
                                portable.clone()
                            } else {
                                run(arm)
                            };
                            for (((op, got), want), (_, port)) in
                                got.iter().zip(&expect).zip(&portable)
                            {
                                let what = format!("{op} {} m={m} k={k} n={n} {fill}", arm.name());
                                for (i, ((&g, &e), &p)) in
                                    got.iter().zip(want).zip(port).enumerate()
                                {
                                    assert!(
                                        same_bits(g, e),
                                        "{what} [{i}]: {g:e} vs reference {e:e}"
                                    );
                                    assert!(
                                        same_bits(g, p),
                                        "{what} [{i}]: {g:e} vs portable {p:e}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The GEMM over parts against the materialised operand, on every
    /// arm and against the portable arm, bit for bit: NN over parts
    /// (`matmul_parts_into`, onto a NaN-filled `out`) against
    /// `matmul_into` on the concatenated, gathered operand, and TN over
    /// them (`matmul_parts_tn_acc`, onto a dirty `out`) against
    /// `matmul_tn_acc` on it. Part widths are not multiples of 8 or 16,
    /// one part is empty, one crosses KC, eleven are one to nine wide,
    /// and the layouts include the Interaction GNN's six-part message
    /// input. Row counts are not multiples of MR, cross one and two KC
    /// blocks of the TN reduction, and run the parallel split; indices
    /// repeat rows and address fewer rows than the part has. n = 1, 17
    /// and 33 read one, two and three panels of each copied tile.
    #[test]
    fn nt_into_parts_matches_the_built_gradient_on_every_arm() {
        // The three ways a GEMM over a view writes its input gradient
        // straight into the parts' (a column block, a GatherConcat's
        // gathered node, a gather's source) against building the whole
        // `g · bᵀ` on the portable arm and running the view rules' adds
        // on it, bit for bit, on every arm this CPU runs. Accumulators
        // start from values with -0.0 and specials in them; node counts
        // cross the parallel node blocks, degrees are ragged (some
        // nodes have no edge), and widths and depths are not multiples
        // of the kernels' lane counts.
        let arms = gemm_arms();
        let mut rng = StdRng::seed_from_u64(43);
        for (nodes, edges) in [(1, 0), (3, 5), (9, 40), (200, 700)] {
            let idx = |rng: &mut StdRng| -> Vec<u32> {
                (0..edges).map(|_| rng.gen_range(0..nodes as u32)).collect()
            };
            let (src, dst) = (Arc::new(idx(&mut rng)), Arc::new(idx(&mut rng)));
            let plans = EdgePlans::new(src.clone(), dst.clone(), nodes);
            for (k, w) in [(1, 1), (17, 5), (32, 16), (40, 33)] {
                for fill in ["uniform", "specials"] {
                    let total = 3 * w + 2;
                    let g = Matrix::from_vec(edges, k, fill_values(fill, edges * k, &mut rng));
                    let b = Matrix::from_vec(total, k, fill_values(fill, total * k, &mut rng));
                    let mut full = vec![0.0; edges * total];
                    nt_dispatch::<true>(
                        Kernel::Portable,
                        &g.data,
                        edges,
                        k,
                        &b.data,
                        total,
                        &mut full,
                    );
                    let col = |e: usize, c: usize| full[e * total + c];
                    let mut start =
                        |rows| Matrix::from_vec(rows, w, fill_values(fill, rows * w, &mut rng));
                    let (k_src, k_dst, k0) = (2, 2 + w, 1);
                    let (acc_n, acc_e) = (start(nodes), start(edges));
                    let mut want_edges = acc_n.clone();
                    for r in 0..nodes {
                        for (plan, kb) in [(&plans.dst_plan, k_dst), (&plans.src_plan, k_src)] {
                            for &e in plan.incident(r) {
                                for j in 0..w {
                                    let v = want_edges.get(r, j) + col(e as usize, kb + j);
                                    want_edges.set(r, j, v);
                                }
                            }
                        }
                    }
                    let mut want_scatter = acc_n.clone();
                    for (i, &r) in src.iter().enumerate() {
                        for j in 0..w {
                            let v = want_scatter.get(r as usize, j) + col(i, k0 + j);
                            want_scatter.set(r as usize, j, v);
                        }
                    }
                    let mut want_block = acc_e.clone();
                    let mut want_fresh = acc_e.clone();
                    for e in 0..edges {
                        for j in 0..w {
                            want_block.set(e, j, want_block.get(e, j) + col(e, k0 + j));
                            want_fresh.set(e, j, col(e, k0 + j));
                        }
                    }
                    for &arm in &arms {
                        let what = format!(
                            "{} nodes={nodes} edges={edges} k={k} w={w} {fill}",
                            arm.name()
                        );
                        let check = |name: &str, got: &Matrix, want: &Matrix| {
                            for (i, (&x, &y)) in got.data.iter().zip(&want.data).enumerate() {
                                assert!(
                                    same_bits(x, y),
                                    "{name} {what} at {i}: {x:e} vs built {y:e}"
                                );
                            }
                        };
                        let mut got = acc_n.clone();
                        nt_edges(arm, &g, &b, (k_src, k_dst), &plans, &mut got);
                        check("edges", &got, &want_edges);
                        let mut got = acc_n.clone();
                        nt_scatter(arm, &g, &b, k0, &src, &mut got);
                        check("scatter", &got, &want_scatter);
                        let mut got = acc_e.clone();
                        nt_block(arm, &g, &b, k0, &mut got, false);
                        check("block", &got, &want_block);
                        let mut got = Matrix::full(edges, w, f32::NAN);
                        nt_block(arm, &g, &b, k0, &mut got, true);
                        check("fresh block", &got, &want_fresh);
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_parts_match_the_materialised_operand_on_every_arm() {
        // (width, gathered) per part; a gathered part reads `idx_a` or
        // `idx_b`, both repeating rows.
        let layouts: [&[(usize, Option<bool>)]; 6] = [
            &[
                (3, None),
                (5, Some(false)),
                (1, None),
                (2, Some(true)),
                (4, None),
                (6, Some(false)),
                (7, None),
                (1, Some(true)),
                (2, None),
                (9, Some(false)),
                (3, None),
            ],
            &[
                (13, Some(false)),
                (0, None),
                (300, None),
                (5, Some(true)),
                (37, Some(false)),
            ],
            &[
                (21, None),
                (21, None),
                (21, Some(false)),
                (21, Some(false)),
                (21, Some(true)),
                (21, Some(true)),
            ],
            &[(259, Some(true))],
            &[(3, None), (0, Some(false)), (7, None)],
            &[(0, None)],
        ];
        let arms = gemm_arms();
        let mut rng = StdRng::seed_from_u64(31);
        for layout in layouts {
            for rows in [1, 7, 9, 130, 521] {
                let src_rows = rows / 3 + 2;
                let index = |rng: &mut StdRng| -> Vec<u32> {
                    (0..rows)
                        .map(|_| rng.gen_range(0..src_rows as u32))
                        .collect()
                };
                let idx = [index(&mut rng), index(&mut rng)];
                for n in [1, 17, 33] {
                    for fill in ["uniform", "specials"] {
                        let mats: Vec<Matrix> = (layout.iter())
                            .map(|&(w, gathered)| {
                                let r = if gathered.is_some() { src_rows } else { rows };
                                Matrix::from_vec(r, w, fill_values(fill, r * w, &mut rng))
                            })
                            .collect();
                        let parts: Vec<APart<'_>> = (layout.iter().zip(&mats))
                            .map(|(&(_, gathered), m)| APart {
                                m,
                                idx: gathered.map(|b| &idx[b as usize][..]),
                            })
                            .collect();
                        let k: usize = layout.iter().map(|&(w, _)| w).sum();
                        let whole = Matrix::from_fn(rows, k, |i, c| {
                            let mut c = c;
                            let part = parts
                                .iter()
                                .find(|p| {
                                    let inside = c < p.m.cols;
                                    if !inside {
                                        c -= p.m.cols;
                                    }
                                    inside
                                })
                                .unwrap();
                            part.m.get(part.row(i), c)
                        });
                        let b = Matrix::from_vec(k, n, fill_values(fill, k * n, &mut rng));
                        let g = Matrix::from_vec(rows, n, fill_values(fill, rows * n, &mut rng));
                        let dirty = Matrix::from_vec(k, n, parity_values(k * n, 0, &mut rng));
                        let run = |arm: Kernel| {
                            let mut nn = Matrix::full(rows, n, f32::NAN);
                            parts_nn(arm, &parts, 0, &b, &mut nn);
                            let mut tn = dirty.clone();
                            parts_tn(arm, &parts, &g, &mut tn);
                            let mut nn_ref = Matrix::full(rows, n, f32::NAN);
                            let a = ASource::rows(&whole.data, k);
                            gemm_dispatch::<true>(arm, a, rows, k, &b.data, n, &mut nn_ref.data);
                            let mut tn_ref = dirty.clone();
                            let a = ASource::tn_cols(&whole.data, k);
                            gemm_dispatch::<false>(arm, a, k, rows, &g.data, n, &mut tn_ref.data);
                            [("nn", nn, nn_ref), ("tn", tn, tn_ref)]
                        };
                        let portable = run(Kernel::Portable);
                        for &arm in &arms {
                            for ((op, got, want), (_, port, _)) in run(arm).iter().zip(&portable) {
                                let what = format!(
                                    "{op} {} {layout:?} rows={rows} n={n} {fill}",
                                    arm.name()
                                );
                                for (i, ((&gv, &w), &p)) in
                                    (got.data.iter().zip(&want.data).zip(&port.data)).enumerate()
                                {
                                    assert!(
                                        same_bits(gv, w),
                                        "{what} [{i}]: {gv:e} vs materialised {w:e}"
                                    );
                                    assert!(
                                        same_bits(gv, p),
                                        "{what} [{i}]: {gv:e} vs portable {p:e}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        println!(
            "gemm parts checked on: {}",
            arms.iter().map(|a| a.name()).collect::<Vec<_>>().join(", ")
        );
    }

    /// `got` against the portable arm's `want`, bit for bit, NaN equal
    /// to NaN.
    fn assert_tanh_agrees(arm: Kernel, xs: &[f32], got: &[f32], want: &[f32]) {
        for ((&x, &g), &w) in xs.iter().zip(got).zip(want) {
            assert!(
                same_bits(g, w),
                "tanh {} at {:#010x}: {:#010x} vs portable {:#010x}",
                arm.name(),
                x.to_bits(),
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// The wide arms this CPU runs: the tanh tests' portable loop is
    /// their reference.
    fn wide_arms() -> Vec<Kernel> {
        gemm_arms()
            .into_iter()
            .filter(|&k| k != Kernel::Portable)
            .collect()
    }

    /// The tanh slice on every wide arm this CPU runs against the
    /// portable arm, bit for bit: every 251st bit pattern (both signs,
    /// every exponent, NaNs and infinities), both signs of every input
    /// the pinned glibc table holds (`crate::tanh`), and slices of every
    /// length up to 33 at an unaligned start, so each vector arm's
    /// ragged tail runs too.
    #[test]
    fn tanh_matches_portable_on_every_arm() {
        let mut xs: Vec<f32> = (0..=u32::MAX).step_by(251).map(f32::from_bits).collect();
        for &(x, _, _) in crate::tanh::tests::PINNED {
            xs.extend([f32::from_bits(x), f32::from_bits(x ^ 0x8000_0000)]);
        }
        let mut want = vec![0.0; xs.len()];
        tanh_slice(&xs, &mut want);
        for arm in wide_arms() {
            let mut got = vec![f32::NAN; xs.len()];
            arm.tanh(&xs, &mut got);
            assert_tanh_agrees(arm, &xs, &got, &want);
            let start = xs.len() - 37;
            for len in 0..=33 {
                let src = &xs[start..start + len];
                let mut got = vec![f32::NAN; len];
                arm.tanh(src, &mut got);
                assert_tanh_agrees(arm, src, &got, &want[start..]);
            }
        }
    }

    /// Every `f32` bit pattern on every wide arm against the portable
    /// one. `ci.sh` runs it once.
    #[test]
    #[ignore = "all 2^32 inputs on every arm; run with --ignored"]
    fn tanh_matches_portable_on_every_arm_exhaustively() {
        const BLOCK: usize = 1 << 16;
        let arms = wide_arms();
        (0..(1usize << 32) / BLOCK).into_par_iter().for_each(|b| {
            let xs: Vec<f32> = (0..BLOCK)
                .map(|i| f32::from_bits((b * BLOCK + i) as u32))
                .collect();
            let mut want = vec![0.0; BLOCK];
            tanh_slice(&xs, &mut want);
            let mut got = vec![0.0; BLOCK];
            for &arm in &arms {
                arm.tanh(&xs, &mut got);
                assert_tanh_agrees(arm, &xs, &got, &want);
            }
        });
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
