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
//! A training step's tape keeps a value only while something will read
//! it. Each op's backward rule reads few of its operands' elements
//! (`ops::backward_reads`): a GEMM reads both factors, a fused
//! bias + ReLU and a tanh their own output, a concatenation, gather or
//! scatter none. Recording an op pins the values its rule reads, and
//! [`Tape::release`] hands any other computed value back to the pool
//! once the forward says nothing reads it any more, keeping only its
//! shape. What stays is still the per-layer retention (each MLP's inputs
//! and hidden activations, `O(L·m·f)`) that makes full-graph
//! Interaction-GNN *training* memory-prohibitive in the paper (§III-B).
//! Backward gives it back as it goes: each value returns to the pool
//! right after the rule of its last reader, and a GEMM over a view
//! writes its input's gradient straight into the parts' gradients, so
//! no gradient of a concatenated, gathered MLP input is built.
//! [`Tape::activation_floats`] exposes that footprint. Inference records
//! nothing: the eager executor (`trkx_nn::Eager`) borrows the tape's pool
//! ([`Tape::lend`]), runs the same kernels and hands each buffer back
//! after its last use, so its working set is about one layer's rather
//! than the whole forward's.

use crate::matrix::Matrix;
use crate::ops::{self, Concat, GradStore, NodeValues, Op, Parts};
use crate::plan::EdgePlans;
use crate::pool::BufferPool;
use std::ops::Index;
use std::sync::Arc;

/// Handle to a tape node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub usize);

/// Whether a node's value is still held.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Hold {
    /// Held until [`Tape::release`] or the reset.
    Free,
    /// A recorded backward rule reads it: held until the reset.
    Pinned,
    /// Handed back to the pool; only its shape is left.
    Released,
    /// Recorded by [`Tape::view`]: a shape, never a value. Counts the
    /// ops that read it.
    View(u32),
}

/// Reverse-mode autograd tape. Create once and [`Tape::reset`] between
/// training steps to recycle its buffers.
#[derive(Default)]
pub struct Tape {
    ops: Vec<Op>,
    values: Vec<Matrix>,
    hold: Vec<Hold>,
    grads: Vec<Option<Matrix>>,
    /// `(op, node)`: `op` was the first to pin the computed value of
    /// `node`, so it is the last backward rule that reads it. Ascending
    /// in `op`, as recorded.
    frees: Vec<(usize, usize)>,
    /// Whether backward has run (and freed what it read) since the reset.
    differentiated: bool,
    pool: BufferPool,
}

/// The tape's nodes as the ops read them. In the forward (`strict`),
/// reading a released value panics with its index, as on the eager
/// executor, and so does reading a view's as a value; backward reads
/// their shapes.
struct Held<'a> {
    ops: &'a [Op],
    values: &'a [Matrix],
    hold: &'a [Hold],
    strict: bool,
}

impl<'a> Held<'a> {
    fn get(&self, i: usize) -> &'a Matrix {
        if self.strict {
            assert!(
                self.hold[i] != Hold::Released,
                "tape node {i} read after its release"
            );
            assert!(
                !matches!(self.hold[i], Hold::View(_)),
                "tape node {i} is a view: only a GEMM reads it"
            );
        }
        &self.values[i]
    }
}

impl Index<usize> for Held<'_> {
    type Output = Matrix;

    fn index(&self, i: usize) -> &Matrix {
        self.get(i)
    }
}

impl NodeValues for Held<'_> {
    fn view(&self, i: usize) -> Option<&Op> {
        matches!(self.hold[i], Hold::View(_)).then(|| &self.ops[i])
    }

    fn single_reader(&self, i: usize) -> bool {
        self.hold[i] == Hold::View(1)
    }
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
        self.hold.clear();
        self.frees.clear();
        self.differentiated = false;
        for v in self.values.drain(..) {
            self.pool.recycle(v);
        }
        for g in self.grads.drain(..).flatten() {
            self.pool.recycle(g);
        }
    }

    /// Total `f32` elements the tape holds in values (released ones hold
    /// none): the activation-memory footprint of what was recorded.
    pub fn activation_floats(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.ops.push(op);
        self.values.push(value);
        self.hold.push(Hold::Free);
        self.grads.push(None);
        Var(self.ops.len() - 1)
    }

    /// The nodes whose values the backward rule of `op` (recorded as
    /// node `at`) reads: its operands' that [`ops::backward_reads`]
    /// lists (a view operand's parts in the view's place), and `at`
    /// itself if the rule reads its own output.
    fn backward_read_nodes(&self, op: &Op, at: usize) -> ([usize; ops::MAX_PARTS + 2], usize) {
        let (mut nodes, mut n) = ([0; ops::MAX_PARTS + 2], 0);
        let (operands, output) = ops::backward_reads(op);
        for p in operands.into_iter().flatten() {
            if !matches!(self.hold[p], Hold::View(_)) {
                nodes[n] = p;
                n += 1;
                continue;
            }
            let (parts, len) = Parts::of(&self.held(), p).node_array();
            nodes[n..n + len].copy_from_slice(&parts[..len]);
            n += len;
        }
        if output {
            nodes[n] = at;
            n += 1;
        }
        (nodes, n)
    }

    /// Count `op` as a reader of each view among its operands: a GEMM's
    /// left operand or another view's (any other op reading a view
    /// panics in its forward).
    fn count_view_readers(&mut self, op: &Op) {
        let mut count = |p: usize| {
            if let Hold::View(readers) = &mut self.hold[p] {
                *readers += 1;
            }
        };
        match op {
            Op::MatMul { a, .. } | Op::Gather { a, .. } => count(*a),
            Op::ConcatCols(c) => c.parts().iter().for_each(|&p| count(p)),
            Op::GatherConcat { y, x, .. } => {
                count(*y);
                count(*x);
            }
            _ => {}
        }
    }

    /// Record `op`: evaluate it, and pin the values its backward rule
    /// reads (its own output among them, for some ops; a view operand's
    /// parts in the view's place). The first op to pin a computed value
    /// is the last to read it in backward, which frees it after that
    /// op's rule.
    pub fn eval(&mut self, op: Op) -> Var {
        let held = Held {
            ops: &self.ops,
            values: &self.values,
            hold: &self.hold,
            strict: true,
        };
        let value = ops::forward(&op, &held, &mut self.pool);
        let at = self.ops.len();
        self.count_view_readers(&op);
        let (nodes, n) = self.backward_read_nodes(&op, at);
        let v = self.push(op, value);
        for &q in &nodes[..n] {
            if self.hold[q] == Hold::Free && !matches!(self.ops[q], Op::Leaf | Op::Constant) {
                self.frees.push((at, q));
            }
            self.hold[q] = Hold::Pinned;
        }
        v
    }

    /// Record `op` — a concatenation, a gather or a `GatherConcat` — as
    /// a view: a node with its shape but no value, whose only readers
    /// are a GEMM's left operand ([`Tape::matmul`], which reads its
    /// operands where they lie and pins them) and other views. Nothing
    /// is copied. In backward the GEMM writes each operand's share of
    /// the gradient straight into that operand's, in the grouping and
    /// order the view's rule would have added it; a view read more than
    /// once gets a gradient of its own and its rule runs as if it had
    /// been evaluated. A row window ([`Op::Rows`]) is the eager
    /// executor's alone: it has no backward.
    pub fn view(&mut self, op: Op) -> Var {
        assert!(
            !matches!(op, Op::Rows { .. }),
            "a row window is a view on the eager executor only"
        );
        let (rows, cols) = ops::view_shape(&op, |i| self.values[i].shape());
        self.count_view_readers(&op);
        let v = self.push(op, Matrix::shape_only(rows, cols));
        self.hold[v.0] = Hold::View(0);
        v
    }

    /// `v` has no later forward reader. Unless a recorded backward rule
    /// reads it (it is pinned), it is a leaf or constant, or it is a
    /// view (which holds nothing), its buffer goes back to the pool now
    /// and only its shape stays for backward; a later op or
    /// [`Tape::value`] reading it panics.
    pub fn release(&mut self, v: Var) {
        if self.hold[v.0] != Hold::Free || matches!(self.ops[v.0], Op::Leaf | Op::Constant) {
            return;
        }
        self.free(v.0);
    }

    /// Hand node `i`'s buffer back to the pool, keeping its shape.
    fn free(&mut self, i: usize) {
        self.hold[i] = Hold::Released;
        let (rows, cols) = self.values[i].shape();
        let value = std::mem::replace(&mut self.values[i], Matrix::shape_only(rows, cols));
        self.pool.recycle(value);
    }

    /// The tape's buffer pool, for its counters.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Empty the tape and lend its storage to an executor that evaluates
    /// without recording (`trkx_nn::Eager`): the buffer pool, so inference
    /// draws on and leaves its buffers here, and the emptied op list, where
    /// that executor keeps the views it records, so one forward after
    /// another grows no list of its own. The borrower empties the list
    /// again before the tape records anything.
    pub fn lend(&mut self) -> (&mut BufferPool, &mut Vec<Op>) {
        self.reset();
        (&mut self.pool, &mut self.ops)
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

    fn held(&self) -> Held<'_> {
        Held {
            ops: &self.ops,
            values: &self.values,
            hold: &self.hold,
            strict: true,
        }
    }

    /// Value of a node. Panics if it was released or is a view.
    pub fn value(&self, v: Var) -> &Matrix {
        self.held().get(v.0)
    }

    /// `(rows, cols)` of a node, whether it holds a value, was released
    /// or is a view.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.values[v.0].shape()
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
        let concat = Concat::new(parts.iter().map(|p| (p.0, self.values[p.0].cols())));
        self.eval(Op::ConcatCols(concat))
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
    ///
    /// Each computed value goes back to the pool right after the rule of
    /// its last reader (the first op that pinned it) has run, so once
    /// backward ends the tape holds only leaves, constants and the
    /// values no rule read (the loss among them); [`Tape::value`] of a
    /// freed node panics. So backward runs once per recording.
    pub fn backward(&mut self, root: Var) {
        assert_eq!(
            self.values[root.0].shape(),
            (1, 1),
            "backward root must be a scalar loss"
        );
        assert!(
            !self.differentiated,
            "backward runs once per recording: it frees what it read"
        );
        self.differentiated = true;
        for g in &mut self.grads {
            if let Some(m) = g.take() {
                self.pool.recycle(m);
            }
        }
        let mut seed = self.pool.zeros(1, 1);
        seed.set(0, 0, 1.0);
        self.grads[root.0] = Some(seed);
        let mut frees = std::mem::take(&mut self.frees);
        for i in (0..=root.0).rev() {
            // Op i + 1's rule has run (at the root: ops past it never
            // run theirs): free the values it was the last to read.
            while let Some(&(_, q)) = frees.last().filter(|&&(op, _)| op > i) {
                self.free(q);
                frees.pop();
            }
            if !matches!(self.ops[i], Op::Leaf | Op::Constant) {
                // Take node i's gradient out of the slot so the store can
                // hand out disjoint borrows of the earlier slots (parents
                // of node i always have smaller indices).
                if let Some(grad_out) = self.grads[i].take() {
                    let (reads, n) = self.backward_read_nodes(&self.ops[i], i);
                    for &q in &reads[..n] {
                        assert!(
                            self.hold[q] != Hold::Released,
                            "tape node {q} read after its release"
                        );
                    }
                    let (earlier, _) = self.grads.split_at_mut(i);
                    let mut store = GradStore {
                        ops: &self.ops,
                        grads: earlier,
                        pool: &mut self.pool,
                    };
                    let nodes = Held {
                        ops: &self.ops,
                        values: &self.values,
                        hold: &self.hold,
                        strict: false,
                    };
                    ops::backward_into(
                        &self.ops[i],
                        &grad_out,
                        &nodes,
                        &self.values[i],
                        &mut store,
                    );
                    // Propagated, so dead: nobody reads an interior
                    // gradient, and the next one of its class reuses it.
                    self.pool.recycle(grad_out);
                }
            }
        }
        while let Some((_, q)) = frees.pop() {
            self.free(q);
        }
        self.frees = frees;
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

    /// Index of `op`'s variant. A new variant does not compile here until
    /// `backward_reads_only_what_the_table_lists` covers it.
    fn variant(op: &Op) -> usize {
        match op {
            Op::Leaf => 0,
            Op::Constant => 1,
            Op::MatMul { .. } => 2,
            Op::Add { .. } => 3,
            Op::Sub { .. } => 4,
            Op::Hadamard { .. } => 5,
            Op::AddBias { .. } => 6,
            Op::AddBiasRelu { .. } => 7,
            Op::Scale { .. } => 8,
            Op::AddScalar { .. } => 9,
            Op::ConcatCols { .. } => 10,
            Op::Relu { .. } => 11,
            Op::Tanh { .. } => 12,
            Op::Gather { .. } => 13,
            Op::ScatterAdd { .. } => 14,
            Op::GatherConcat { .. } => 15,
            Op::RowSum { .. } => 16,
            Op::SumAll { .. } => 17,
            Op::MeanAll { .. } => 18,
            Op::BceWithLogits { .. } => 19,
            Op::LayerNorm { .. } => 20,
            Op::MulMask { .. } => 21,
            Op::Rows { .. } => 22,
        }
    }

    #[test]
    fn backward_reads_only_what_the_table_lists() {
        // One node of every differentiable variant over leaves whose
        // values straddle zero. Each rule runs twice on one upstream
        // gradient: over the real values, then with every value the
        // table does not list for it (other operands, its own output,
        // every other node) replaced by the shape-only placeholder a
        // release leaves. Reading a placeholder's elements panics or
        // loses terms, so the gradients differ.
        let val = |rows, cols, seed: usize| {
            Matrix::from_fn(rows, cols, |r, c| {
                ((r * 7 + c * 3 + seed) % 13) as f32 * 0.37 - 2.2
            })
        };
        let mut t = Tape::new();
        let (a, b) = (t.leaf(val(6, 5, 1)), t.leaf(val(6, 5, 2)));
        let w = t.leaf(val(5, 4, 3));
        let (gamma, beta) = (t.leaf(val(1, 5, 4)), t.leaf(val(1, 5, 5)));
        let x = t.leaf(val(4, 5, 6));
        let c = t.constant(val(6, 5, 7));
        let idx = Arc::new(vec![2u32, 0, 3, 3, 1, 0]);
        let plans = Arc::new(EdgePlans::new(
            Arc::new(vec![0, 1, 2, 3, 3, 0]),
            Arc::new(vec![1, 2, 3, 0, 2, 1]),
            4,
        ));
        let first = t.len();
        t.matmul(a, w);
        t.add(a, b);
        t.sub(a, b);
        t.hadamard(a, b);
        t.add_bias(a, gamma);
        t.add_bias_relu(a, gamma);
        t.scale(a, -1.5);
        t.add_scalar(a, 0.25);
        t.concat_cols(&[a, c, b]);
        t.relu(a);
        t.tanh(a);
        t.gather(x, idx.clone());
        t.scatter_add(a, idx.clone(), 4);
        t.eval(Op::ScatterAdd {
            a: a.0,
            idx: plans.src.clone(),
            plan: Some(plans.src_plan.clone()),
            out_rows: 4,
        });
        t.gather_concat(a, x, plans);
        t.row_sum(a);
        t.sum_all(a);
        t.mean_all(a);
        let targets = (0..30).map(|i| (i % 3 == 0) as u8 as f32).collect();
        t.bce_with_logits(a, Arc::new(targets), 2.0);
        t.layer_norm(a, gamma, beta, 1e-5);
        t.mul_mask(a, Arc::new(val(6, 5, 8)));

        let bits = |m: &Option<Matrix>| {
            m.as_ref()
                .map(|m| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        let mut covered = [false; 23];
        for n in first..t.len() {
            let op = &t.ops[n];
            covered[variant(op)] = true;
            let (rows, cols) = t.values[n].shape();
            let go = val(rows, cols, 9 + n);
            let run = |values: &[Matrix]| {
                let (mut grads, mut pool) = (vec![None; n], BufferPool::new());
                let mut store = GradStore {
                    ops: &t.ops,
                    grads: &mut grads,
                    pool: &mut pool,
                };
                ops::backward_into(op, &go, values, &values[n], &mut store);
                grads.iter().map(bits).collect::<Vec<_>>()
            };
            let (operands, output) = ops::backward_reads(op);
            let listed = |i: usize| operands.contains(&Some(i)) || (output && i == n);
            let placeheld: Vec<Matrix> = (t.values.iter().enumerate())
                .map(|(i, v)| match listed(i) {
                    true => v.clone(),
                    false => Matrix::shape_only(v.rows(), v.cols()),
                })
                .collect();
            let want = run(&t.values[..]);
            assert!(want.iter().any(Option::is_some), "node {n}: no gradient");
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&placeheld)));
            assert!(
                got.as_ref().is_ok_and(|got| *got == want),
                "node {n}: the rule of variant {} reads a value its table entry does not list",
                variant(op)
            );
        }
        // A row window (22) is only ever an eager view: it has no rule.
        assert!(covered[2..22].iter().all(|&c| c), "a variant has no case");
    }

    #[test]
    fn release_frees_what_backward_does_not_read_with_the_same_gradients() {
        // relu(a·w) + 2·a: the product is the relu's input, which the
        // relu's rule reads; the relu's output and 2·a no rule reads.
        let step = |release: bool| {
            let mut t = Tape::new();
            let a = t.leaf(Matrix::from_fn(8, 8, |r, c| {
                (r * 8 + c) as f32 * 0.05 - 1.5
            }));
            let w = t.leaf(Matrix::from_fn(8, 8, |r, c| {
                ((r + 2 * c) % 5) as f32 * 0.3 - 0.6
            }));
            let p = t.matmul(a, w);
            let h = t.relu(p);
            let s = t.scale(a, 2.0);
            let y = t.add(h, s);
            let live_before = t.pool.live_floats();
            if release {
                for v in [a, w, p, s, h] {
                    t.release(v);
                }
                // `a` and `w` are leaves and `p` is pinned: only `s`
                // and `h` go back.
                assert_eq!(t.pool.live_floats(), live_before - 2 * 64);
                assert_eq!(t.activation_floats(), 4 * 64);
            }
            let loss = t.mean_all(y);
            t.backward(loss);
            [a, w].map(|v| t.grad(v).unwrap().clone())
        };
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (kept, freed) in step(false).iter().zip(&step(true)) {
            assert_eq!(bits(kept), bits(freed));
        }
    }

    #[test]
    fn a_view_gives_the_built_operand_s_values_and_gradients_bit_for_bit() {
        // [y  gather(z)] and [y  x[src]  x[dst]] as a GEMM's left operand,
        // built on one tape and as views on another: the same product
        // and the same gradient bits for every leaf, while the views hold
        // no floats and pin what the GEMM reads in their place.
        let val = |rows, cols, seed: usize| {
            Matrix::from_fn(rows, cols, |r, c| {
                ((r * 7 + c * 3 + seed) % 13) as f32 * 0.37 - 2.2
            })
        };
        let plans = Arc::new(EdgePlans::new(
            Arc::new(vec![0, 1, 2, 3, 3, 0]),
            Arc::new(vec![1, 2, 3, 0, 2, 1]),
            4,
        ));
        let idx = Arc::new(vec![2u32, 0, 3, 3, 1, 0]);
        let run = |view: bool| {
            let mut t = Tape::new();
            let (y, x, z) = (
                t.leaf(val(6, 3, 1)),
                t.leaf(val(4, 2, 2)),
                t.leaf(val(4, 5, 3)),
            );
            let (w1, w2) = (t.leaf(val(8, 4, 4)), t.leaf(val(7, 4, 5)));
            let (a1, a2) = if view {
                let g = t.view(Op::Gather {
                    a: z.0,
                    idx: idx.clone(),
                });
                let c = t.view(Op::ConcatCols(Concat::new([(y.0, 3), (g.0, 5)])));
                let gc = t.view(Op::GatherConcat {
                    y: y.0,
                    x: x.0,
                    plans: plans.clone(),
                });
                (c, gc)
            } else {
                let g = t.gather(z, idx.clone());
                (t.concat_cols(&[y, g]), t.gather_concat(y, x, plans.clone()))
            };
            let (p1, p2) = (t.matmul(a1, w1), t.matmul(a2, w2));
            let s = t.add(p1, p2);
            let floats = t.activation_floats();
            let loss = t.mean_all(s);
            let value = t.value(s).clone();
            t.backward(loss);
            let grads = [y, x, z, w1, w2].map(|v| t.grad(v).unwrap().clone());
            (value, grads, floats)
        };
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (built, viewed) = (run(false), run(true));
        assert_eq!(bits(&viewed.0), bits(&built.0), "product");
        for (g, (v, b)) in viewed.1.iter().zip(&built.1).enumerate() {
            assert_eq!(bits(v), bits(b), "gradient of leaf {g}");
        }
        // The built tape also holds gather(z), [y gather(z)] and
        // [y x[src] x[dst]].
        assert_eq!(built.2 - viewed.2, 6 * 5 + 6 * 8 + 6 * 7);
    }

    #[test]
    fn views_read_more_than_once_give_the_built_gradients_bit_for_bit() {
        // One Interaction-GNN layer's views, and a view two GEMMs read,
        // on one tape built and on another as views. [x1 x0] is read by
        // the edge GEMM's GatherConcat and by the node GEMM's
        // concatenation, so its gradient sums two shares before its rule
        // splits it; [y1 y0] and the two GEMM operands have one reader
        // each, so the GEMMs write straight into y1, y0, m and x's
        // gradient. Every leaf's gradient must keep the built tape's bits.
        let val = |rows, cols, seed: usize| {
            Matrix::from_fn(rows, cols, |r, c| {
                ((r * 7 + c * 3 + seed) % 13) as f32 * 0.37 - 2.2
            })
        };
        let plans = Arc::new(EdgePlans::new(
            Arc::new(vec![0, 1, 2, 3, 3, 0, 4, 1]),
            Arc::new(vec![1, 2, 3, 0, 2, 1, 1, 4]),
            5,
        ));
        let run = |view: bool| {
            let mut t = Tape::new();
            let (x1, x0) = (t.leaf(val(5, 3, 1)), t.leaf(val(5, 2, 2)));
            let (y1, y0) = (t.leaf(val(8, 4, 3)), t.leaf(val(8, 1, 4)));
            let m = t.leaf(val(5, 6, 5));
            let (we, wn) = (t.leaf(val(15, 4, 6)), t.leaf(val(11, 3, 7)));
            let (wa, wb) = (t.leaf(val(11, 2, 8)), t.leaf(val(11, 5, 9)));
            let mut record = |op: Op| if view { t.view(op) } else { t.eval(op) };
            let xc = record(Op::ConcatCols(Concat::new([(x1.0, 3), (x0.0, 2)])));
            let yc = record(Op::ConcatCols(Concat::new([(y1.0, 4), (y0.0, 1)])));
            let msg = record(Op::GatherConcat {
                y: yc.0,
                x: xc.0,
                plans: plans.clone(),
            });
            let node = record(Op::ConcatCols(Concat::new([(m.0, 6), (xc.0, 5)])));
            let twice = record(Op::ConcatCols(Concat::new([
                (m.0, 6),
                (x0.0, 2),
                (x1.0, 3),
            ])));
            let pe = t.matmul(msg, we);
            let pn = t.matmul(node, wn);
            let (pa, pb) = (t.matmul(twice, wa), t.matmul(twice, wb));
            let s = [pe, pn, pa, pb].map(|p| t.mean_all(p));
            let s01 = t.add(s[0], s[1]);
            let s23 = t.add(s[2], s[3]);
            let loss = t.add(s01, s23);
            t.backward(loss);
            [x1, x0, y1, y0, m, we, wn, wa, wb].map(|v| t.grad(v).unwrap().clone())
        };
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (g, (v, b)) in run(true).iter().zip(&run(false)).enumerate() {
            assert_eq!(bits(v), bits(b), "gradient of leaf {g}");
        }
    }

    #[test]
    #[should_panic(expected = "read after its release")]
    fn a_value_backward_freed_cannot_be_read() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.25 - 0.5));
        let w = t.leaf(Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.1));
        let h = t.tanh(a);
        let p = t.matmul(h, w);
        let loss = t.mean_all(p);
        t.backward(loss);
        assert!(t.grad(w).is_some());
        // The GEMM's rule was the last to read `h`.
        t.value(h);
    }

    #[test]
    fn a_value_read_twice_is_freed_after_its_lower_indexed_reader() {
        // `v` is read by two GEMMs. Backward runs the later one's rule
        // first, so `v` must stay until the earlier one's has run; each
        // gradient is the kernels' own arithmetic in that order.
        let a = Matrix::from_fn(6, 5, |r, c| ((r * 5 + c) % 7) as f32 * 0.3 - 0.9);
        let w1 = Matrix::from_fn(5, 4, |r, c| ((r + 3 * c) % 5) as f32 * 0.25 - 0.5);
        let w2 = Matrix::from_fn(5, 4, |r, c| ((2 * r + c) % 6) as f32 * 0.2 - 0.55);
        let mut t = Tape::new();
        let (av, w1v, w2v) = (t.leaf_copied(&a), t.leaf_copied(&w1), t.leaf_copied(&w2));
        let v = t.scale(av, 2.0);
        let p1 = t.matmul(v, w1v);
        let p2 = t.matmul(v, w2v);
        let s = t.add(p1, p2);
        let loss = t.mean_all(s);
        let held = t.activation_floats();
        t.backward(loss);
        // What the rules read is back in the pool: the leaves stay, and
        // so do the two products and the loss, which no rule reads (a
        // model's forward would have released the products).
        assert!(t.hold[v.0] == Hold::Released && t.hold[s.0] == Hold::Released);
        assert_eq!(t.activation_floats(), 6 * 5 + 2 * 5 * 4 + 2 * 6 * 4 + 1);
        assert_eq!(held - t.activation_floats(), 6 * 5 + 6 * 4);

        let vm = a.scale(2.0);
        let go = Matrix::full(6, 4, 1.0 / 24.0);
        let mut gv = go.matmul_nt(&w2);
        go.matmul_nt_acc(&w1, &mut gv);
        let mut ga = Matrix::zeros(6, 5);
        ga.axpy(2.0, &gv);
        let (mut gw1, mut gw2) = (Matrix::zeros(5, 4), Matrix::zeros(5, 4));
        vm.matmul_tn_acc(&go, &mut gw1);
        vm.matmul_tn_acc(&go, &mut gw2);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (what, node, want) in [("a", av, ga), ("w1", w1v, gw1), ("w2", w2v, gw2)] {
            assert_eq!(bits(t.grad(node).unwrap()), bits(&want), "{what} gradient");
        }
    }

    #[test]
    #[should_panic(expected = "tape node 3 is a view: only a GEMM reads it")]
    fn only_a_gemm_reads_a_view() {
        let mut t = Tape::new();
        let (a, b) = (t.leaf(Matrix::zeros(2, 2)), t.leaf(Matrix::zeros(2, 3)));
        let c = t.leaf(Matrix::zeros(2, 1));
        let v = t.view(Op::ConcatCols(Concat::new([(a.0, 2), (b.0, 3), (c.0, 1)])));
        t.relu(v);
    }

    #[test]
    #[should_panic(expected = "tape node 2 is a view: only a GEMM reads it")]
    fn a_view_has_a_shape_and_no_value() {
        let mut t = Tape::new();
        let (a, b) = (t.leaf(Matrix::zeros(2, 2)), t.leaf(Matrix::zeros(2, 3)));
        let v = t.view(Op::ConcatCols(Concat::new([(a.0, 2), (b.0, 3)])));
        assert_eq!(t.shape(v), (2, 5));
        t.value(v);
    }

    #[test]
    fn a_gemm_pins_the_parts_of_its_view() {
        let mut t = Tape::new();
        let w = t.leaf(Matrix::zeros(4, 1));
        let x = t.leaf(Matrix::zeros(3, 2));
        let (a, b) = (t.scale(x, 2.0), t.scale(x, 3.0));
        let v = t.view(Op::ConcatCols(Concat::new([(a.0, 2), (b.0, 2)])));
        t.matmul(v, w);
        for node in [a, b, v] {
            t.release(node);
        }
        assert_eq!(t.activation_floats(), 4 + 6 + 6 + 6 + 3);
    }

    #[test]
    #[should_panic(expected = "tape node 1 read after its release")]
    fn a_later_op_cannot_read_a_released_node() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(2, 2));
        let s = t.scale(a, 2.0);
        t.release(s);
        t.relu(s);
    }

    #[test]
    #[should_panic(expected = "tape node 1 read after its release")]
    fn a_released_node_has_no_value() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(2, 2));
        let s = t.scale(a, 2.0);
        t.release(s);
        t.value(s);
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
        let v1 = t1.value(y1).clone();
        t1.backward(l1);

        let mut t2 = Tape::new();
        let x2 = t2.leaf_copied(&x);
        let b2 = t2.leaf_copied(&bias);
        let y2 = t2.add_bias_relu(x2, b2);
        let l2 = t2.mean_all(y2);
        let v2 = t2.value(y2).clone();
        t2.backward(l2);

        assert!(v1.approx_eq(&v2, 1e-6));
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
            ops::backward_into(&t.ops[y.0], g, &t.values[..], &yv, &mut store);
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
    fn fresh_gemm_gradient_slots_match_the_zero_fill_path_bit_for_bit() {
        // `x` is only a GEMM's `a`, so its slot's first touch runs the
        // overwriting NT. `z` takes a GEMM's gradient first and an add's
        // after, `u` an add's first and a GEMM's after. Upstream rows hold
        // all -0.0, a NaN, +inf and -inf, and the pool's spare buffers
        // are NaN-filled, so an element the overwrite missed would show.
        // Every gradient must equal zero-filling each slot and adding.
        let (m, k, n) = (11, 19, 21);
        let val = |rows, cols, seed: usize| {
            Matrix::from_fn(rows, cols, |r, c| {
                ((r * 7 + c * 3 + seed) % 13) as f32 * 0.37 - 2.0
            })
        };
        let up = |rows, cols, shift: usize| {
            Matrix::from_fn(rows, cols, |r, c| match r {
                0 => -0.0,
                1..=3 if c == (shift + r) % cols => {
                    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][r - 1]
                }
                _ => ((r * 5 + c * 11 + shift) % 17) as f32 * 0.25 - 2.0,
            })
        };
        let mut t = Tape::new();
        let (x, z, u) = (
            t.leaf(val(m, k, 1)),
            t.leaf(val(m, k, 2)),
            t.leaf(val(m, k, 3)),
        );
        let w = t.leaf(val(k, n, 4));
        let (cz, cu) = (
            t.constant(Matrix::zeros(m, k)),
            t.constant(Matrix::zeros(m, k)),
        );
        // Backward visits these last to first.
        let s = t.matmul(u, w);
        let add_z = t.add(z, cz);
        let p = t.matmul(x, w);
        let q = t.matmul(z, w);
        let add_u = t.add(u, cu);
        let go = [
            (add_u, up(m, k, 0)),
            (q, up(m, n, 1)),
            (p, up(m, n, 2)),
            (add_z, up(m, k, 3)),
            (s, up(m, n, 4)),
        ];
        for _ in 0..4 {
            t.pool.recycle(Matrix::full(m, k, f32::NAN));
        }
        let mut grads = vec![None; t.len()];
        let mut store = GradStore {
            ops: &t.ops,
            grads: &mut grads,
            pool: &mut t.pool,
        };
        for (node, g) in &go {
            ops::backward_into(
                &t.ops[node.0],
                g,
                &t.values[..],
                &t.values[node.0],
                &mut store,
            );
        }

        let value = |v: Var| &t.values[v.0];
        let [go_add_u, go_q, go_p, go_add_z, go_s] = go.map(|(_, g)| g);
        let nt = |g: &Matrix, acc: &mut Matrix| g.matmul_nt_acc(value(w), acc);
        let mut gx = Matrix::zeros(m, k);
        nt(&go_p, &mut gx);
        let mut gz = Matrix::zeros(m, k);
        nt(&go_q, &mut gz);
        gz.add_assign(&go_add_z);
        let mut gu = Matrix::zeros(m, k);
        gu.add_assign(&go_add_u);
        nt(&go_s, &mut gu);
        let mut gw = Matrix::zeros(k, n);
        value(z).matmul_tn_acc(&go_q, &mut gw);
        value(x).matmul_tn_acc(&go_p, &mut gw);
        value(u).matmul_tn_acc(&go_s, &mut gw);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (what, v, expect) in [("x", x, gx), ("z", z, gz), ("u", u, gu), ("w", w, gw)] {
            let got = grads[v.0].as_ref().unwrap();
            assert_eq!(bits(got), bits(&expect), "{what} gradient");
        }
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
            let held = t.hold.iter().filter(|&&h| h != Hold::Released).count();
            held + t.grads.iter().flatten().count() + t.pool.parked()
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
        // The seed and the gradients of s and h are already back, and so
        // is h's value; s's value, back after the mean's rule, was the
        // buffer h's gradient reused.
        assert_eq!(t.pool.parked(), 4);
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
