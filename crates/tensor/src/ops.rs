//! Autograd operations: each variant records what a tape node computed and
//! knows how to push a gradient back to its parents.
//!
//! Keeping the rules in one explicit `enum` (rather than closures) makes
//! every backward rule unit-testable against finite differences
//! (see [`mod@crate::gradcheck`]) and keeps the tape `Send`.
//!
//! Both passes are zero-copy over tape storage: [`forward`] reads operand
//! values from the tape's value slice by reference and draws its output
//! buffer from the [`BufferPool`]; [`backward_into`] accumulates `+=` into
//! per-parent gradient buffers held by a [`GradStore`], so evaluating an op
//! or accumulating a gradient never clones an operand and (once the pool is
//! warm) never allocates.

use crate::matrix::{par_threshold, Matrix};
use crate::plan::{EdgePlan, EdgePlans};
use crate::pool::BufferPool;
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::Arc;

/// Fixed chunk width for parallel loss reductions. Chunk partials are
/// combined in chunk order on one thread, so the result depends only on
/// the chunk width — never on how many threads happened to run.
const REDUCE_CHUNK: usize = 8192;

thread_local! {
    /// Chunk partials for the parallel BCE reduction: reused call to call
    /// so the hot loss path stays allocation-free at any pool size.
    static BCE_PARTIALS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Operation recorded on a tape node.
#[derive(Clone)]
pub enum Op {
    /// Gradient-tracked input (parameters, features entering the tape).
    Leaf,
    /// Input that never receives a gradient (targets, masks, constants).
    Constant,
    /// `C = A * B`.
    MatMul { a: usize, b: usize },
    /// `C = A + B`, equal shapes.
    Add { a: usize, b: usize },
    /// `C = A - B`, equal shapes.
    Sub { a: usize, b: usize },
    /// `C = A ⊙ B`, equal shapes.
    Hadamard { a: usize, b: usize },
    /// `C = A + bias` with `bias` a `1 x cols` row broadcast over rows.
    AddBias { a: usize, bias: usize },
    /// Fused `C = relu(A + bias)` — one pass instead of an AddBias node
    /// plus a Relu node (saves a full activation buffer per MLP layer).
    AddBiasRelu { a: usize, bias: usize },
    /// `C = k * A`.
    Scale { a: usize, k: f32 },
    /// `C = A + k` elementwise.
    AddScalar { a: usize, k: f32 },
    /// Horizontal concatenation of equal-row-count parents.
    ConcatCols {
        parts: Vec<usize>,
        widths: Vec<usize>,
    },
    /// `C = max(A, 0)`.
    Relu { a: usize },
    /// Hyperbolic tangent.
    Tanh { a: usize },
    /// `C[i, :] = A[idx[i], :]`.
    Gather { a: usize, idx: Arc<Vec<u32>> },
    /// `C[idx[i], :] += A[i, :]` into `out_rows` rows. With a plan, the
    /// forward runs the deterministic parallel segment-reduce.
    ScatterAdd {
        a: usize,
        idx: Arc<Vec<u32>>,
        plan: Option<Arc<EdgePlan>>,
        out_rows: usize,
    },
    /// Fused message-input assembly: `C = [Y  X[src]  X[dst]]` built in
    /// one pass, with no materialized `X[src]`/`X[dst]` intermediates.
    /// The backward scatters the three column slices back through the
    /// bundled plans.
    GatherConcat {
        y: usize,
        x: usize,
        plans: Arc<EdgePlans>,
    },
    /// Row sums: `rows x cols -> rows x 1`.
    RowSum { a: usize },
    /// Scalar sum of all elements.
    SumAll { a: usize },
    /// Scalar mean of all elements.
    MeanAll { a: usize },
    /// Numerically stable binary cross-entropy with logits, mean-reduced.
    /// `targets` has one entry per logit element (row-major).
    BceWithLogits {
        logits: usize,
        targets: Arc<Vec<f32>>,
        pos_weight: f32,
    },
    /// Per-row LayerNorm with learned gain/offset (`1 x cols` each).
    LayerNorm {
        a: usize,
        gamma: usize,
        beta: usize,
        eps: f32,
    },
    /// Elementwise multiply by a fixed mask (label weighting).
    MulMask { a: usize, mask: Arc<Matrix> },
}

/// Compute the forward value of `op`. `values[i]` is node `i`'s value
/// (borrowed — no operand is cloned); the output buffer comes from `pool`.
pub fn forward(op: &Op, values: &[Matrix], pool: &mut BufferPool) -> Matrix {
    match op {
        Op::Leaf | Op::Constant => unreachable!("leaves carry their own value"),
        Op::MatMul { a, b } => {
            let (a, b) = (&values[*a], &values[*b]);
            // Overwriting product: bit-identical to zeroing + `matmul_acc`
            // but skips clearing the recycled buffer.
            let mut out = pool.uninit(a.rows(), b.cols());
            a.matmul_into(b, &mut out);
            out
        }
        Op::Add { a, b } => {
            let mut out = pool.copy_of(&values[*a]);
            out.add_assign(&values[*b]);
            out
        }
        Op::Sub { a, b } => {
            let mut out = pool.copy_of(&values[*a]);
            out.axpy(-1.0, &values[*b]);
            out
        }
        Op::Hadamard { a, b } => {
            let mut out = pool.copy_of(&values[*a]);
            out.mul_assign(&values[*b]);
            out
        }
        Op::AddBias { a, bias } => {
            let (a, bias) = (&values[*a], &values[*bias]);
            assert_eq!(bias.rows(), 1, "bias must be a row vector");
            assert_eq!(bias.cols(), a.cols(), "bias width mismatch");
            let mut out = pool.copy_of(a);
            for r in 0..out.rows() {
                for (o, &b) in out.row_mut(r).iter_mut().zip(bias.data()) {
                    *o += b;
                }
            }
            out
        }
        Op::AddBiasRelu { a, bias } => {
            let (a, bias) = (&values[*a], &values[*bias]);
            assert_eq!(bias.rows(), 1, "bias must be a row vector");
            assert_eq!(bias.cols(), a.cols(), "bias width mismatch");
            let mut out = pool.copy_of(a);
            for r in 0..out.rows() {
                for (o, &b) in out.row_mut(r).iter_mut().zip(bias.data()) {
                    *o = (*o + b).max(0.0);
                }
            }
            out
        }
        Op::Scale { a, k } => {
            let k = *k;
            let mut out = pool.copy_of(&values[*a]);
            out.apply(|v| v * k);
            out
        }
        Op::AddScalar { a, k } => {
            let k = *k;
            let mut out = pool.copy_of(&values[*a]);
            out.apply(|v| v + k);
            out
        }
        Op::ConcatCols { parts, .. } => {
            let refs: Vec<&Matrix> = parts.iter().map(|&p| &values[p]).collect();
            let cols: usize = refs.iter().map(|p| p.cols()).sum();
            let mut out = pool.zeros(refs[0].rows(), cols);
            Matrix::concat_cols_into(&refs, &mut out);
            out
        }
        Op::Relu { a } => {
            let mut out = pool.copy_of(&values[*a]);
            out.apply(|v| v.max(0.0));
            out
        }
        Op::Tanh { a } => {
            let mut out = pool.copy_of(&values[*a]);
            out.apply(f32::tanh);
            out
        }
        Op::Gather { a, idx } => {
            let a = &values[*a];
            let mut out = pool.zeros(idx.len(), a.cols());
            a.gather_rows_into(idx, &mut out);
            out
        }
        Op::ScatterAdd {
            a,
            idx,
            plan,
            out_rows,
        } => {
            let a = &values[*a];
            let mut out = pool.zeros(*out_rows, a.cols());
            match plan {
                Some(p) => a.scatter_rows_planned_acc(p, &mut out),
                None => a.scatter_rows_acc(idx, &mut out),
            }
            out
        }
        Op::GatherConcat { y, x, plans } => {
            let (yv, xv) = (&values[*y], &values[*x]);
            let m = plans.num_edges();
            assert_eq!(yv.rows(), m, "gather_concat edge count mismatch");
            assert_eq!(
                xv.rows(),
                plans.nodes(),
                "gather_concat node count mismatch"
            );
            let (wy, wx) = (yv.cols(), xv.cols());
            let cols = wy + 2 * wx;
            let mut out = pool.zeros(m, cols);
            if cols == 0 {
                return out;
            }
            let (src, dst) = (&plans.src, &plans.dst);
            let body = |(e, row): (usize, &mut [f32])| {
                row[..wy].copy_from_slice(yv.row(e));
                row[wy..wy + wx].copy_from_slice(xv.row(src[e] as usize));
                row[wy + wx..].copy_from_slice(xv.row(dst[e] as usize));
            };
            if m * cols >= par_threshold() {
                out.data_mut()
                    .par_chunks_mut(cols)
                    .enumerate()
                    .for_each(body);
            } else {
                out.data_mut().chunks_mut(cols).enumerate().for_each(body);
            }
            out
        }
        Op::RowSum { a } => {
            let a = &values[*a];
            let mut out = pool.zeros(a.rows(), 1);
            a.row_sums_into(&mut out);
            out
        }
        Op::SumAll { a } => scalar_from(pool, values[*a].sum()),
        Op::MeanAll { a } => scalar_from(pool, values[*a].mean()),
        Op::BceWithLogits {
            logits,
            targets,
            pos_weight,
        } => {
            let x = &values[*logits];
            assert_eq!(x.len(), targets.len(), "bce target length mismatch");
            // Stable: max(x,0) - x*t + ln(1 + e^{-|x|}), positive term
            // weighted by pos_weight.
            let pw = *pos_weight;
            let chunk_sum = |xs: &[f32], ts: &[f32]| -> f64 {
                let mut acc = 0.0f64;
                for (&xi, &ti) in xs.iter().zip(ts) {
                    let w = if ti > 0.5 { pw } else { 1.0 };
                    let loss = xi.max(0.0) - xi * ti + (1.0 + (-xi.abs()).exp()).ln();
                    acc += (w * loss) as f64;
                }
                acc
            };
            let acc: f64 = if x.len() > REDUCE_CHUNK && x.len() >= par_threshold() {
                // Fixed-width chunks with partials combined in chunk
                // order: the grouping (and thus the f64 sum) depends only
                // on REDUCE_CHUNK, never on the thread count. Partials
                // live in a per-thread buffer so the steady-state loss
                // evaluation allocates nothing.
                let xd = x.data();
                let n_chunks = x.len().div_ceil(REDUCE_CHUNK);
                BCE_PARTIALS.with_borrow_mut(|partials| {
                    partials.clear();
                    partials.resize(n_chunks, 0.0);
                    partials.par_iter_mut().enumerate().for_each(|(c, slot)| {
                        let lo = c * REDUCE_CHUNK;
                        let hi = (lo + REDUCE_CHUNK).min(xd.len());
                        *slot = chunk_sum(&xd[lo..hi], &targets[lo..hi]);
                    });
                    partials.iter().sum()
                })
            } else {
                chunk_sum(x.data(), targets)
            };
            scalar_from(pool, (acc / x.len().max(1) as f64) as f32)
        }
        Op::LayerNorm {
            a,
            gamma,
            beta,
            eps,
        } => {
            let (x, g, b) = (&values[*a], &values[*gamma], &values[*beta]);
            assert_eq!(g.shape(), (1, x.cols()), "layernorm gamma shape");
            assert_eq!(b.shape(), (1, x.cols()), "layernorm beta shape");
            let n = x.cols() as f32;
            let mut out = pool.copy_of(x);
            for r in 0..out.rows() {
                let row = out.row_mut(r);
                let (mean, inv_std) = row_stats(row, n, *eps);
                for (v, (&gv, &bv)) in row.iter_mut().zip(g.data().iter().zip(b.data())) {
                    *v = (*v - mean) * inv_std * gv + bv;
                }
            }
            out
        }
        Op::MulMask { a, mask } => {
            let mut out = pool.copy_of(&values[*a]);
            out.mul_assign(mask);
            out
        }
    }
}

fn scalar_from(pool: &mut BufferPool, v: f32) -> Matrix {
    let mut out = pool.zeros(1, 1);
    out.set(0, 0, v);
    out
}

/// Per-row LayerNorm statistics: `(mean, 1/sqrt(var + eps))`.
#[inline]
fn row_stats(row: &[f32], n: f32, eps: f32) -> (f32, f32) {
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    (mean, 1.0 / (var + eps).sqrt())
}

#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Write access to the gradient slots of every node before the one being
/// differentiated. Gradient buffers are created lazily (zeroed, pooled) on
/// first touch; constants get no buffer at all.
pub struct GradStore<'a> {
    pub(crate) ops: &'a [Op],
    pub(crate) grads: &'a mut [Option<Matrix>],
    pub(crate) pool: &'a mut BufferPool,
}

impl GradStore<'_> {
    /// The `rows x cols` gradient accumulator of node `parent`, or `None`
    /// if the parent is a constant (gradient flow stops there).
    pub fn acc(&mut self, parent: usize, rows: usize, cols: usize) -> Option<&mut Matrix> {
        if matches!(self.ops[parent], Op::Constant) {
            return None;
        }
        let slot = &mut self.grads[parent];
        if slot.is_none() {
            *slot = Some(self.pool.zeros(rows, cols));
        }
        let g = slot.as_mut().unwrap();
        debug_assert_eq!(g.shape(), (rows, cols), "gradient shape mismatch");
        Some(g)
    }
}

/// Backward pass for one op, accumulating `+=` into the parents' gradient
/// buffers in `store`. `grad_out` is dL/d(output); `values[i]` is the value
/// of node `i`; `out_value` is this node's own forward output.
pub fn backward_into(
    op: &Op,
    grad_out: &Matrix,
    values: &[Matrix],
    out_value: &Matrix,
    store: &mut GradStore<'_>,
) {
    match op {
        Op::Leaf | Op::Constant => {}
        Op::MatMul { a, b } => {
            let (av, bv) = (&values[*a], &values[*b]);
            if let Some(ga) = store.acc(*a, av.rows(), av.cols()) {
                grad_out.matmul_nt_acc(bv, ga);
            }
            if let Some(gb) = store.acc(*b, bv.rows(), bv.cols()) {
                av.matmul_tn_acc(grad_out, gb);
            }
        }
        Op::Add { a, b } => {
            let (rows, cols) = grad_out.shape();
            if let Some(ga) = store.acc(*a, rows, cols) {
                ga.add_assign(grad_out);
            }
            if let Some(gb) = store.acc(*b, rows, cols) {
                gb.add_assign(grad_out);
            }
        }
        Op::Sub { a, b } => {
            let (rows, cols) = grad_out.shape();
            if let Some(ga) = store.acc(*a, rows, cols) {
                ga.add_assign(grad_out);
            }
            if let Some(gb) = store.acc(*b, rows, cols) {
                gb.axpy(-1.0, grad_out);
            }
        }
        Op::Hadamard { a, b } => {
            let (av, bv) = (&values[*a], &values[*b]);
            if let Some(ga) = store.acc(*a, av.rows(), av.cols()) {
                ga.hadamard_acc(grad_out, bv);
            }
            if let Some(gb) = store.acc(*b, bv.rows(), bv.cols()) {
                gb.hadamard_acc(grad_out, av);
            }
        }
        Op::AddBias { a, bias } => {
            let (rows, cols) = grad_out.shape();
            if let Some(ga) = store.acc(*a, rows, cols) {
                ga.add_assign(grad_out);
            }
            if let Some(gb) = store.acc(*bias, 1, cols) {
                grad_out.col_sums_acc(gb);
            }
        }
        Op::AddBiasRelu { a, bias } => {
            // relu gate from the stored output: y > 0 ⟺ x + b > 0. A
            // closed gate adds `-0.0`, which leaves every value (±0 and
            // NaN included) bit for bit as it was — the same result as
            // skipping the add, with no branch, so both loops vectorise.
            let gate = |go: f32, y: f32| if y > 0.0 { go } else { -0.0 };
            let (rows, cols) = grad_out.shape();
            if let Some(ga) = store.acc(*a, rows, cols) {
                for ((g, &go), &y) in ga
                    .data_mut()
                    .iter_mut()
                    .zip(grad_out.data())
                    .zip(out_value.data())
                {
                    *g += gate(go, y);
                }
            }
            if let Some(gb) = store.acc(*bias, 1, cols) {
                let gbd = gb.data_mut();
                for r in 0..rows {
                    for ((o, &go), &y) in gbd.iter_mut().zip(grad_out.row(r)).zip(out_value.row(r))
                    {
                        *o += gate(go, y);
                    }
                }
            }
        }
        Op::Scale { a, k } => {
            let (rows, cols) = grad_out.shape();
            if let Some(ga) = store.acc(*a, rows, cols) {
                ga.axpy(*k, grad_out);
            }
        }
        Op::AddScalar { a, .. } => {
            let (rows, cols) = grad_out.shape();
            if let Some(ga) = store.acc(*a, rows, cols) {
                ga.add_assign(grad_out);
            }
        }
        Op::ConcatCols { parts, widths } => {
            let rows = grad_out.rows();
            let mut off = 0;
            for (&p, &w) in parts.iter().zip(widths) {
                if w == 0 {
                    continue;
                }
                if let Some(gp) = store.acc(p, rows, w) {
                    let body = |(r, grow): (usize, &mut [f32])| {
                        for (g, &s) in grow.iter_mut().zip(&grad_out.row(r)[off..off + w]) {
                            *g += s;
                        }
                    };
                    if rows * w >= par_threshold() {
                        gp.data_mut().par_chunks_mut(w).enumerate().for_each(body);
                    } else {
                        gp.data_mut().chunks_mut(w).enumerate().for_each(body);
                    }
                }
                off += w;
            }
        }
        Op::Relu { a } => {
            let av = &values[*a];
            if let Some(ga) = store.acc(*a, av.rows(), av.cols()) {
                for ((g, &go), &x) in ga.data_mut().iter_mut().zip(grad_out.data()).zip(av.data()) {
                    if x > 0.0 {
                        *g += go;
                    }
                }
            }
        }
        Op::Tanh { a } => {
            let (rows, cols) = grad_out.shape();
            if let Some(ga) = store.acc(*a, rows, cols) {
                for ((g, &go), &y) in ga
                    .data_mut()
                    .iter_mut()
                    .zip(grad_out.data())
                    .zip(out_value.data())
                {
                    *g += go * (1.0 - y * y);
                }
            }
        }
        Op::Gather { a, idx } => {
            let av = &values[*a];
            if let Some(ga) = store.acc(*a, av.rows(), av.cols()) {
                grad_out.scatter_rows_acc(idx, ga);
            }
        }
        Op::ScatterAdd { a, idx, .. } => {
            let av = &values[*a];
            if let Some(ga) = store.acc(*a, av.rows(), av.cols()) {
                grad_out.gather_rows_acc(idx, ga);
            }
        }
        Op::GatherConcat { y, x, plans } => {
            let (yv, xv) = (&values[*y], &values[*x]);
            let (wy, wx) = (yv.cols(), xv.cols());
            let m = plans.num_edges();
            if wy > 0 {
                if let Some(gy) = store.acc(*y, m, wy) {
                    let body = |(e, grow): (usize, &mut [f32])| {
                        for (g, &s) in grow.iter_mut().zip(&grad_out.row(e)[..wy]) {
                            *g += s;
                        }
                    };
                    if m * wy >= par_threshold() {
                        gy.data_mut().par_chunks_mut(wy).enumerate().for_each(body);
                    } else {
                        gy.data_mut().chunks_mut(wy).enumerate().for_each(body);
                    }
                }
            }
            if wx > 0 {
                if let Some(gx) = store.acc(*x, plans.nodes(), wx) {
                    // Per output node: dst-slice contributions first, then
                    // src-slice, each in ascending edge order — the exact
                    // accumulation order of the unfused path, where the
                    // `X[dst]` gather sits later on the tape than `X[src]`
                    // and is therefore differentiated first. Parallel over
                    // nodes: one writer per row, no atomics, bit-identical
                    // at any thread count.
                    let (src_plan, dst_plan) = (&plans.src_plan, &plans.dst_plan);
                    let body = |(r, grow): (usize, &mut [f32])| {
                        for &e in dst_plan.incident(r) {
                            let go = &grad_out.row(e as usize)[wy + wx..wy + 2 * wx];
                            for (g, &s) in grow.iter_mut().zip(go) {
                                *g += s;
                            }
                        }
                        for &e in src_plan.incident(r) {
                            let go = &grad_out.row(e as usize)[wy..wy + wx];
                            for (g, &s) in grow.iter_mut().zip(go) {
                                *g += s;
                            }
                        }
                    };
                    if m * wx >= par_threshold() {
                        gx.data_mut().par_chunks_mut(wx).enumerate().for_each(body);
                    } else {
                        gx.data_mut().chunks_mut(wx).enumerate().for_each(body);
                    }
                }
            }
        }
        Op::RowSum { a } => {
            let av = &values[*a];
            let (rows, cols) = (av.rows(), av.cols());
            if cols == 0 {
                return;
            }
            if let Some(ga) = store.acc(*a, rows, cols) {
                let body = |(r, grow): (usize, &mut [f32])| {
                    let go = grad_out.get(r, 0);
                    for g in grow {
                        *g += go;
                    }
                };
                if rows * cols >= par_threshold() {
                    ga.data_mut()
                        .par_chunks_mut(cols)
                        .enumerate()
                        .for_each(body);
                } else {
                    ga.data_mut().chunks_mut(cols).enumerate().for_each(body);
                }
            }
        }
        Op::SumAll { a } => {
            let av = &values[*a];
            let k = grad_out.as_scalar();
            if let Some(ga) = store.acc(*a, av.rows(), av.cols()) {
                for g in ga.data_mut() {
                    *g += k;
                }
            }
        }
        Op::MeanAll { a } => {
            let av = &values[*a];
            let k = grad_out.as_scalar() / av.len().max(1) as f32;
            if let Some(ga) = store.acc(*a, av.rows(), av.cols()) {
                for g in ga.data_mut() {
                    *g += k;
                }
            }
        }
        Op::BceWithLogits {
            logits,
            targets,
            pos_weight,
        } => {
            let x = &values[*logits];
            let go = grad_out.as_scalar() / x.len().max(1) as f32;
            if let Some(ga) = store.acc(*logits, x.rows(), x.cols()) {
                let pw = *pos_weight;
                let xd = x.data();
                // Elementwise — each slot has exactly one writer, so the
                // parallel split cannot change any result bit.
                let body = |(c, gs): (usize, &mut [f32])| {
                    let lo = c * REDUCE_CHUNK;
                    for ((g, &xi), &ti) in gs.iter_mut().zip(&xd[lo..]).zip(&targets[lo..]) {
                        let w = if ti > 0.5 { pw } else { 1.0 };
                        *g += go * w * (sigmoid(xi) - ti);
                    }
                };
                if x.len() >= par_threshold() {
                    ga.data_mut()
                        .par_chunks_mut(REDUCE_CHUNK)
                        .enumerate()
                        .for_each(body);
                } else {
                    ga.data_mut()
                        .chunks_mut(REDUCE_CHUNK)
                        .enumerate()
                        .for_each(body);
                }
            }
        }
        Op::LayerNorm {
            a,
            gamma,
            beta,
            eps,
        } => {
            // Three sequential accumulation phases (dbeta, dgamma, dx) so
            // only one gradient buffer is borrowed at a time; per-row stats
            // are recomputed in-register instead of stored in side vectors.
            let (x, g) = (&values[*a], &values[*gamma]);
            let (rows, cols) = x.shape();
            let n = cols as f32;
            if let Some(dbeta) = store.acc(*beta, 1, cols) {
                grad_out.col_sums_acc(dbeta);
            }
            if let Some(dgamma) = store.acc(*gamma, 1, cols) {
                let dgd = dgamma.data_mut();
                for r in 0..rows {
                    let xr = x.row(r);
                    let (mean, inv_std) = row_stats(xr, n, *eps);
                    for ((o, &go), &xv) in dgd.iter_mut().zip(grad_out.row(r)).zip(xr) {
                        *o += go * (xv - mean) * inv_std;
                    }
                }
            }
            if let Some(dx) = store.acc(*a, rows, cols) {
                let gd = g.data();
                for r in 0..rows {
                    let xr = x.row(r);
                    let gor = grad_out.row(r);
                    let (mean, inv_std) = row_stats(xr, n, *eps);
                    // xhat_i = (x_i - mean) * inv_std ; dxhat_i = go_i * gamma_i
                    // dx_i += inv_std/n * (n*dxhat_i - sum(dxhat) - xhat_i * sum(dxhat*xhat))
                    let mut sum_dxhat = 0.0f32;
                    let mut sum_dxhat_xhat = 0.0f32;
                    for j in 0..cols {
                        let xhat = (xr[j] - mean) * inv_std;
                        let d = gor[j] * gd[j];
                        sum_dxhat += d;
                        sum_dxhat_xhat += d * xhat;
                    }
                    let dxr = dx.row_mut(r);
                    for j in 0..cols {
                        let xhat = (xr[j] - mean) * inv_std;
                        let d = gor[j] * gd[j];
                        dxr[j] += inv_std / n * (n * d - sum_dxhat - xhat * sum_dxhat_xhat);
                    }
                }
            }
        }
        Op::MulMask { a, mask } => {
            let (rows, cols) = grad_out.shape();
            if let Some(ga) = store.acc(*a, rows, cols) {
                ga.hadamard_acc(grad_out, mask);
            }
        }
    }
}
