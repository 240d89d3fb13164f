//! Reverse-mode autograd tape.
//!
//! A [`Tape`] records a DAG of [`Op`] nodes built by its builder methods.
//! [`Tape::backward`] seeds the root with gradient `1` (the root must be a
//! scalar, i.e. a loss) and walks the tape in reverse, accumulating
//! gradients into every node's parents. Parameter (leaf) gradients are
//! read back with [`Tape::grad`]; an interior node's gradient lives only
//! from its first accumulation until its own backward rule has run, then
//! its buffer goes straight back to the pool for the next gradient of
//! that size class to reuse while it is still cache-hot.
//!
//! Storage is struct-of-arrays (`ops` / `values` / `grads`) so the forward
//! pass can borrow operand values while writing a new one, and the backward
//! pass can accumulate into parent gradients while borrowing the current
//! node's — no per-op clones in either direction. All value and gradient
//! buffers come from an internal [`BufferPool`]; [`Tape::reset`] returns
//! them to the pool. The pool matches by size class, not exact shape, so
//! a tape reused across steps whose graphs all differ (sampled
//! minibatches, served micro-batches) still stops allocating once it has
//! seen the range of sizes. Dropping a tape resets it, and its pool hands
//! the buffers to a process-wide reservoir, so the next tape built (the
//! next training call's, a serve worker's) starts from them instead of
//! from the allocator.
//!
//! The tape retains every intermediate value until it is reset — exactly
//! the per-layer activation retention (`X^l`, `Y^l`, `M_src`, `M_dst`) that
//! makes full-graph Interaction-GNN training memory-prohibitive in the
//! paper (§III-B): an L-layer IGNN on a graph with `m` edges keeps `O(L·m·f)`
//! floats alive. [`Tape::activation_floats`] exposes that footprint so the
//! pipeline can emulate the paper's skip-too-large-graphs behaviour.

use crate::matrix::Matrix;
use crate::ops::{self, GradStore, Op};
use crate::plan::{EdgePlan, EdgePlans};
use crate::pool::BufferPool;
use std::sync::Arc;

/// Handle to a tape node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub usize);

/// Reverse-mode autograd tape. Create once and [`Tape::reset`] between
/// training steps to recycle its buffers.
#[derive(Default)]
pub struct Tape {
    ops: Vec<Op>,
    values: Vec<Matrix>,
    grads: Vec<Option<Matrix>>,
    pool: BufferPool,
}

impl Tape {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Clear all recorded nodes, returning their value and gradient
    /// buffers to the internal pool for the next step to reuse.
    pub fn reset(&mut self) {
        self.ops.clear();
        for v in self.values.drain(..) {
            self.pool.recycle(v);
        }
        for g in self.grads.drain(..).flatten() {
            self.pool.recycle(g);
        }
    }

    /// Total `f32` elements held alive by the tape (values only) — the
    /// activation-memory footprint used for the paper's OOM-skip emulation.
    pub fn activation_floats(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.ops.push(op);
        self.values.push(value);
        self.grads.push(None);
        Var(self.ops.len() - 1)
    }

    fn eval(&mut self, op: Op) -> Var {
        let value = ops::forward(&op, &self.values, &mut self.pool);
        self.push(op, value)
    }

    /// Gradient-tracked input (takes ownership of an existing matrix).
    pub fn leaf(&mut self, m: Matrix) -> Var {
        self.push(Op::Leaf, m)
    }

    /// Gradient-tracked input copied into pooled storage — the caller keeps
    /// ownership and the tape allocates nothing once its pool is warm.
    pub fn leaf_copied(&mut self, m: &Matrix) -> Var {
        let value = self.pool.copy_of(m);
        self.push(Op::Leaf, value)
    }

    /// Input excluded from gradient computation (targets, fixed features).
    pub fn constant(&mut self, m: Matrix) -> Var {
        self.push(Op::Constant, m)
    }

    /// Constant copied into pooled storage (see [`Tape::leaf_copied`]).
    pub fn constant_copied(&mut self, m: &Matrix) -> Var {
        let value = self.pool.copy_of(m);
        self.push(Op::Constant, value)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.values[v.0]
    }

    /// Accumulated gradient of a leaf (after [`Tape::backward`]); kept
    /// until [`Tape::reset`] or the next backward. `None` for a leaf no
    /// gradient reached, for constants, and for every interior node:
    /// backward releases an interior gradient as soon as it has been
    /// propagated to the node's parents.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.grads[v.0].as_ref()
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.eval(Op::MatMul { a: a.0, b: b.0 })
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.eval(Op::Add { a: a.0, b: b.0 })
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.eval(Op::Sub { a: a.0, b: b.0 })
    }

    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        self.eval(Op::Hadamard { a: a.0, b: b.0 })
    }

    /// Add a `1 x cols` bias row to every row of `a`.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        self.eval(Op::AddBias {
            a: a.0,
            bias: bias.0,
        })
    }

    /// Fused `relu(a + bias)` — one node and one buffer instead of two.
    pub fn add_bias_relu(&mut self, a: Var, bias: Var) -> Var {
        self.eval(Op::AddBiasRelu {
            a: a.0,
            bias: bias.0,
        })
    }

    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        self.eval(Op::Scale { a: a.0, k })
    }

    pub fn add_scalar(&mut self, a: Var, k: f32) -> Var {
        self.eval(Op::AddScalar { a: a.0, k })
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let widths = parts.iter().map(|p| self.values[p.0].cols()).collect();
        self.eval(Op::ConcatCols {
            parts: parts.iter().map(|p| p.0).collect(),
            widths,
        })
    }

    pub fn relu(&mut self, a: Var) -> Var {
        self.eval(Op::Relu { a: a.0 })
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        self.eval(Op::Tanh { a: a.0 })
    }

    /// `out[i, :] = a[idx[i], :]`.
    pub fn gather(&mut self, a: Var, idx: Arc<Vec<u32>>) -> Var {
        self.eval(Op::Gather { a: a.0, idx })
    }

    /// `out[idx[i], :] += a[i, :]` into a fresh `out_rows x cols` matrix.
    pub fn scatter_add(&mut self, a: Var, idx: Arc<Vec<u32>>, out_rows: usize) -> Var {
        self.eval(Op::ScatterAdd {
            a: a.0,
            idx,
            plan: None,
            out_rows,
        })
    }

    /// [`Tape::scatter_add`] with a precomputed plan for `idx`: the
    /// forward reduction runs the deterministic parallel segment-reduce.
    /// The output row count is the plan's node count.
    pub fn scatter_add_planned(&mut self, a: Var, idx: Arc<Vec<u32>>, plan: Arc<EdgePlan>) -> Var {
        debug_assert_eq!(plan.num_edges(), idx.len(), "plan/idx length mismatch");
        let out_rows = plan.nodes();
        self.eval(Op::ScatterAdd {
            a: a.0,
            idx,
            plan: Some(plan),
            out_rows,
        })
    }

    /// Fused `[y  x[src]  x[dst]]` message-input assembly — one node and
    /// one buffer instead of two gathers plus a three-way concat.
    pub fn gather_concat(&mut self, y: Var, x: Var, plans: Arc<EdgePlans>) -> Var {
        self.eval(Op::GatherConcat {
            y: y.0,
            x: x.0,
            plans,
        })
    }

    pub fn row_sum(&mut self, a: Var) -> Var {
        self.eval(Op::RowSum { a: a.0 })
    }

    pub fn sum_all(&mut self, a: Var) -> Var {
        self.eval(Op::SumAll { a: a.0 })
    }

    pub fn mean_all(&mut self, a: Var) -> Var {
        self.eval(Op::MeanAll { a: a.0 })
    }

    /// Mean binary cross-entropy with logits; `targets` row-major, one per
    /// logit element. `pos_weight` scales the loss of positive examples
    /// (class-imbalance handling for sparse true edges).
    pub fn bce_with_logits(&mut self, logits: Var, targets: Arc<Vec<f32>>, pos_weight: f32) -> Var {
        self.eval(Op::BceWithLogits {
            logits: logits.0,
            targets,
            pos_weight,
        })
    }

    /// Per-row LayerNorm with learned `gamma`/`beta` (`1 x cols` leaves).
    pub fn layer_norm(&mut self, a: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        self.eval(Op::LayerNorm {
            a: a.0,
            gamma: gamma.0,
            beta: beta.0,
            eps,
        })
    }

    /// Elementwise multiply by a fixed mask (label weighting).
    pub fn mul_mask(&mut self, a: Var, mask: Arc<Matrix>) -> Var {
        self.eval(Op::MulMask { a: a.0, mask })
    }

    /// Run reverse-mode accumulation from scalar `root`. Gradients of all
    /// ancestor leaves become available through [`Tape::grad`]. All
    /// accumulation is in place (`+=` into pooled buffers) — no
    /// per-contribution allocation.
    pub fn backward(&mut self, root: Var) {
        assert_eq!(
            self.values[root.0].shape(),
            (1, 1),
            "backward root must be a scalar loss"
        );
        for g in &mut self.grads {
            if let Some(m) = g.take() {
                self.pool.recycle(m);
            }
        }
        let mut seed = self.pool.zeros(1, 1);
        seed.set(0, 0, 1.0);
        self.grads[root.0] = Some(seed);
        for i in (0..=root.0).rev() {
            if !matches!(self.ops[i], Op::Leaf | Op::Constant) {
                // Take node i's gradient out of the slot so the store can
                // hand out disjoint borrows of the earlier slots (parents
                // of node i always have smaller indices).
                if let Some(grad_out) = self.grads[i].take() {
                    let (earlier, _) = self.grads.split_at_mut(i);
                    let mut store = GradStore {
                        ops: &self.ops,
                        grads: earlier,
                        pool: &mut self.pool,
                    };
                    ops::backward_into(
                        &self.ops[i],
                        &grad_out,
                        &self.values,
                        &self.values[i],
                        &mut store,
                    );
                    // Propagated, so dead: nobody reads an interior
                    // gradient, and the next one of its class reuses it.
                    self.pool.recycle(grad_out);
                }
            }
        }
    }
}

impl Drop for Tape {
    /// Park every value and gradient in the pool, whose own drop hands
    /// them to the process-wide reservoir for the next tape.
    fn drop(&mut self) {
        self.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_backward_fans_out() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = t.leaf(Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let c = t.add(a, b);
        let loss = t.sum_all(c);
        t.backward(loss);
        assert_eq!(t.grad(a).unwrap().data(), &[1.0, 1.0]);
        assert_eq!(t.grad(b).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn matmul_backward_known() {
        // loss = sum(A*B); dA = 1 * Bᵀ replicated, dB = Aᵀ * 1.
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = t.leaf(Matrix::from_vec(2, 1, vec![5., 6.]));
        let c = t.matmul(a, b);
        let loss = t.sum_all(c);
        t.backward(loss);
        assert_eq!(t.grad(a).unwrap().data(), &[5., 6., 5., 6.]);
        assert_eq!(t.grad(b).unwrap().data(), &[4., 6.]); // col sums of A
    }

    #[test]
    fn reused_node_accumulates_gradient() {
        // loss = sum(a ⊙ a) => d/da = 2a.
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 3, vec![1., -2., 3.]));
        let sq = t.hadamard(a, a);
        let loss = t.sum_all(sq);
        t.backward(loss);
        assert_eq!(t.grad(a).unwrap().data(), &[2., -4., 6.]);
    }

    #[test]
    fn constant_receives_no_gradient() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::scalar(2.0));
        let c = t.constant(Matrix::scalar(3.0));
        let p = t.hadamard(a, c);
        let loss = t.sum_all(p);
        t.backward(loss);
        assert_eq!(t.grad(a).unwrap().as_scalar(), 3.0);
        assert!(t.grad(c).is_none());
    }

    #[test]
    fn gather_scatter_are_adjoint() {
        // loss = sum(gather(a, idx)) puts counts into a's gradient rows.
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_fn(3, 2, |r, _| r as f32));
        let idx = Arc::new(vec![2u32, 0, 2]);
        let g = t.gather(a, idx);
        let loss = t.sum_all(g);
        t.backward(loss);
        let grad = t.grad(a).unwrap();
        assert_eq!(grad.row(0), &[1., 1.]);
        assert_eq!(grad.row(1), &[0., 0.]);
        assert_eq!(grad.row(2), &[2., 2.]);
        assert!(t.grad(g).is_none(), "interior gradient outlived backward");
    }

    #[test]
    fn backward_requires_scalar_root() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(2, 2));
        let r = t.relu(a);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut t2 = Tape::new();
            let a2 = t2.leaf(Matrix::zeros(2, 2));
            let r2 = t2.relu(a2);
            t2.backward(r2);
        }));
        assert!(result.is_err());
        let _ = r; // silence unused
    }

    #[test]
    fn activation_floats_counts_all_nodes() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(4, 4)); // 16
        let b = t.relu(a); // 16
        let _ = t.sum_all(b); // 1
        assert_eq!(t.activation_floats(), 33);
    }

    #[test]
    fn bce_matches_manual() {
        // Single logit x=0, target 1: loss = ln 2.
        let mut t = Tape::new();
        let x = t.leaf(Matrix::scalar(0.0));
        let loss = t.bce_with_logits(x, Arc::new(vec![1.0]), 1.0);
        assert!((t.value(loss).as_scalar() - std::f32::consts::LN_2).abs() < 1e-6);
        t.backward(loss);
        // d/dx = sigmoid(0) - 1 = -0.5
        assert!((t.grad(x).unwrap().as_scalar() + 0.5).abs() < 1e-6);
    }

    #[test]
    fn fused_add_bias_relu_matches_unfused() {
        // Same inputs through relu(add_bias(x, b)) and add_bias_relu(x, b):
        // identical forward values and gradients (both analytic, <= 1e-6).
        let x = Matrix::from_fn(3, 4, |r, c| (r as f32 - 1.0) * 0.7 + c as f32 * 0.3 - 0.8);
        let bias = Matrix::from_vec(1, 4, vec![0.5, -0.4, 0.1, -0.2]);

        let mut t1 = Tape::new();
        let x1 = t1.leaf_copied(&x);
        let b1 = t1.leaf_copied(&bias);
        let ab = t1.add_bias(x1, b1);
        let y1 = t1.relu(ab);
        let l1 = t1.mean_all(y1);
        t1.backward(l1);

        let mut t2 = Tape::new();
        let x2 = t2.leaf_copied(&x);
        let b2 = t2.leaf_copied(&bias);
        let y2 = t2.add_bias_relu(x2, b2);
        let l2 = t2.mean_all(y2);
        t2.backward(l2);

        assert!(t1.value(y1).approx_eq(t2.value(y2), 1e-6));
        assert!(t1.grad(x1).unwrap().approx_eq(t2.grad(x2).unwrap(), 1e-6));
        assert!(t1.grad(b1).unwrap().approx_eq(t2.grad(b2).unwrap(), 1e-6));
    }

    #[test]
    fn add_bias_relu_gate_is_the_branchy_rule_bit_for_bit() {
        // The backward's branch-free gate against the scalar rule
        // `if y > 0 { g += go }`, bit for bit. Rows reach y > 0, y = 0
        // (x + b = ±0 and x + b < 0, NaN and -inf) and y = inf; `go`
        // holds -0.0, NaN and ±inf against every kind of row; and one
        // node is differentiated twice into accumulators that already
        // hold -0.0 (and NaN, ±inf), which a `+0.0` select would turn
        // into +0.0.
        const SPECIAL: [f32; 8] = [
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            1.5,
            -2.25,
            3e38,
        ];
        let cols = 8;
        let bias = Matrix::from_vec(1, cols, vec![0.5, -0.5, 0.0, -0.0, 1.0, -1.0, 2.0, 0.25]);
        let x = Matrix::from_fn(6, cols, |r, c| match r {
            0 => 1.0 + c as f32,
            1 => -bias.get(0, c),
            2 => -3.0 - c as f32,
            3 if c % 2 == 0 => 0.75,
            3 => -0.75,
            4 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0][c % 4],
            _ => (c as f32 - 3.5) * 0.4,
        });
        let mut t = Tape::new();
        let (xv, bv) = (t.leaf_copied(&x), t.leaf_copied(&bias));
        let y = t.add_bias_relu(xv, bv);
        let yv = t.value(y).clone();
        let go = |shift: usize| Matrix::from_fn(6, cols, |r, c| SPECIAL[(r + c + shift) % 8]);
        let (go1, go2) = (go(0), go(3));

        let ga0 = Matrix::from_fn(6, cols, |r, c| [-0.0, -0.0, f32::NAN, 1.0][(r + c) % 4]);
        let gb0 = Matrix::from_vec(
            1,
            cols,
            vec![-0.0, -0.0, f32::INFINITY, -0.0, 0.0, -0.0, -1.0, -0.0],
        );
        let mut grads = vec![Some(ga0.clone()), Some(gb0.clone())];
        let mut store = GradStore {
            ops: &t.ops,
            grads: &mut grads,
            pool: &mut t.pool,
        };
        for g in [&go1, &go2] {
            ops::backward_into(&t.ops[y.0], g, &t.values, &yv, &mut store);
        }

        let (mut ga, mut gb) = (ga0, gb0);
        for g in [&go1, &go2] {
            for r in 0..6 {
                for c in 0..cols {
                    if yv.get(r, c) > 0.0 {
                        ga.set(r, c, ga.get(r, c) + g.get(r, c));
                        gb.set(0, c, gb.get(0, c) + g.get(r, c));
                    }
                }
            }
        }
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let [got_a, got_b] = [0, 1].map(|i| grads[i].take().unwrap());
        assert_eq!(bits(&got_a), bits(&ga), "x gradient");
        assert_eq!(bits(&got_b), bits(&gb), "bias gradient");
        assert!(ga.data().iter().any(|v| v.to_bits() == (-0.0f32).to_bits()));
    }

    #[test]
    fn in_place_accumulation_matches_manual_fanout() {
        // y = a*w1 + a*w2 + a ⊙ a: three gradient contributions accumulate
        // into `a` in place; compare against the hand-derived total.
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![0.5, -1.5]));
        let w1 = t.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let w2 = t.leaf(Matrix::from_vec(2, 2, vec![-1., 0.5, 2., -2.]));
        let p1 = t.matmul(a, w1);
        let p2 = t.matmul(a, w2);
        let sq = t.hadamard(a, a);
        let s1 = t.add(p1, p2);
        let s2 = t.add(s1, sq);
        let loss = t.sum_all(s2);
        t.backward(loss);
        // d/da = (w1 + w2) row sums + 2a.
        let expect = Matrix::from_vec(
            1,
            2,
            vec![1. + 2. - 1. + 0.5 + 2. * 0.5, 3. + 4. + 2. - 2. + 2. * -1.5],
        );
        assert!(t.grad(a).unwrap().approx_eq(&expect, 1e-6));
        for interior in [p1, p2, sq, s1, s2, loss] {
            assert!(t.grad(interior).is_none());
        }
    }

    #[test]
    fn reset_recycles_buffers_across_steps() {
        // The second identical step after reset() must draw every value
        // and gradient buffer from the first step's storage: the number of
        // buffers the tape owns (live + parked) does not grow.
        let x = Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f32 * 0.01 - 0.3);
        let mut t = Tape::new();

        let step = |t: &mut Tape| -> usize {
            let a = t.leaf_copied(&x);
            let h = t.relu(a);
            let s = t.matmul(h, a);
            let loss = t.mean_all(s);
            t.backward(loss);
            assert!(t.grad(a).is_some());
            t.values.len() + t.grads.iter().flatten().count() + t.pool.parked()
        };

        let owned1 = step(&mut t);
        t.reset();
        assert_eq!(t.len(), 0);
        assert_eq!(t.pool.parked(), owned1, "reset parks every buffer");
        let owned2 = step(&mut t);
        assert_eq!(owned2, owned1, "step 2 allocated a fresh buffer");
    }

    #[test]
    fn interior_gradients_are_released_during_backward() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_fn(16, 16, |r, c| (r + c) as f32 * 0.1));
        let h = t.relu(a);
        let s = t.matmul(h, a);
        let loss = t.mean_all(s);
        t.backward(loss);
        for interior in [h, s, loss] {
            assert!(t.grad(interior).is_none());
        }
        assert_eq!(t.grad(a).unwrap().shape(), (16, 16));
        // The seed and the gradients of s and h are already back.
        assert_eq!(t.pool.parked(), 3);
    }

    #[test]
    fn tape_reuse_after_reset_gives_identical_results() {
        let x = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.25 - 0.5);
        let mut t = Tape::new();
        let run = |t: &mut Tape| -> (f32, Matrix) {
            let a = t.leaf_copied(&x);
            let h = t.tanh(a);
            let loss = t.mean_all(h);
            t.backward(loss);
            (t.value(loss).as_scalar(), t.grad(a).unwrap().clone())
        };
        let (l1, g1) = run(&mut t);
        t.reset();
        let (l2, g2) = run(&mut t);
        assert_eq!(l1, l2);
        assert!(g1.approx_eq(&g2, 0.0));
    }
}
