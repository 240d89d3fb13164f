//! Where a forward pass runs. Every model's forward is written once, over
//! [`Exec`], and runs on one of two executors:
//!
//! - [`Recorder`]: a [`Tape`] plus its [`Bindings`]. It records every
//!   node for backward, binds each parameter as a gradient-tracked leaf
//!   and copies fixed inputs in; [`Exec::release`] frees a value unless
//!   a recorded backward rule reads it ([`Tape::release`]). This is
//!   training.
//! - [`Eager`]: no record. It reads parameters and inputs where they lie,
//!   hands each buffer back to the tape's pool as soon as the forward
//!   says nothing reads it any more, and adds an affine layer's bias (and
//!   applies its ReLU) in place on the GEMM output. This is inference.
//!
//! Both evaluate the same [`Op`]s with the same [`ops::forward`] kernels
//! in the same order, and the in-place bias runs the very per-element
//! code the tape runs on a copy ([`ops::add_bias_in_place`]), so an eager
//! forward's values are a recorded forward's bit for bit.
//!
//! On both, a concatenation or gather that only feeds an affine layer
//! is a view ([`Exec::view`]): it is never built, and the layer's GEMM
//! reads its parts where they lie. A forward keeps each part until that
//! GEMM has run.
//!
//! A row-local MLP (each output row reads only its own input row) runs
//! through [`Exec::map_rows`]: a tape records it once over every row,
//! and the eager executor runs it on windows of [`CHUNK_ROWS`] rows, so
//! its hidden layers are a window's size rather than the graph's. Every
//! output row is the same arithmetic either way.

use crate::param::{Bindings, Param};
use std::ops::Index;
use trkx_tensor::{ops, BufferPool, Concat, Matrix, NodeValues, Op, Tape, Var};

/// Rows per window of the eager executor's [`Exec::map_rows`]: a
/// constant, so a window's hidden layers stay a fixed size however
/// large the graph, and wide enough to keep every GEMM's row split busy.
pub const CHUNK_ROWS: usize = 4096;

/// The operations a model's forward is written against (see the module
/// docs). A forward calls [`Exec::release`] on each node after its last
/// read; every other op is an [`Op`] handed to [`Exec::eval`].
pub trait Exec<'p> {
    /// A fixed input (features): never differentiated.
    fn input(&mut self, m: &'p Matrix) -> Var;
    /// A trainable parameter.
    fn param(&mut self, p: &'p Param) -> Var;
    /// Evaluate one op.
    fn eval(&mut self, op: Op) -> Var;
    /// Record `op` — a concatenation, a gather or a `GatherConcat` — as
    /// a view, with a shape and no value: only an affine layer's GEMM
    /// (which reads its parts where they lie) or another view may read
    /// it, and its operands must stay unreleased until that GEMM has run.
    fn view(&mut self, op: Op) -> Var;
    /// `x · w + bias`, then ReLU when `relu`.
    fn affine(&mut self, x: Var, w: Var, bias: Var, relu: bool) -> Var;
    /// Value of a live node that is not a view.
    fn value(&self, v: Var) -> &Matrix;
    /// `(rows, cols)` of a live node or a view.
    fn shape(&self, v: Var) -> (usize, usize);
    /// `v` has no later reader.
    fn release(&mut self, v: Var);

    /// The row-local `f` (an MLP: it reads each row of its input only
    /// for that row of its output, and releases its input) over `x`,
    /// which it consumes. A tape records `f(x)` once. The eager executor
    /// runs `f` on [`Op::Rows`] windows of [`CHUNK_ROWS`] rows and
    /// copies each window's output into the result as it goes: into
    /// `into`'s buffer when given (a node of the result's shape that a
    /// window of `x` reads at its own rows only, so each window can
    /// overwrite the rows it has read), else into a fresh one. `into` is
    /// released either way.
    fn map_rows<F>(&mut self, x: Var, into: Option<Var>, f: F) -> Var
    where
        F: FnMut(&mut Self, Var) -> Var,
        Self: Sized;

    /// Horizontal concatenation, as a view (see [`Exec::view`]).
    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let concat = Concat::new(parts.iter().map(|&p| (p.0, self.shape(p).1)));
        self.view(Op::ConcatCols(concat))
    }
}

/// The training executor: records on a tape and binds parameters.
pub struct Recorder<'a> {
    tape: &'a mut Tape,
    bind: &'a mut Bindings,
}

impl<'a> Recorder<'a> {
    pub fn new(tape: &'a mut Tape, bind: &'a mut Bindings) -> Self {
        Self { tape, bind }
    }
}

impl<'p> Exec<'p> for Recorder<'_> {
    fn input(&mut self, m: &'p Matrix) -> Var {
        self.tape.constant_copied(m)
    }

    fn param(&mut self, p: &'p Param) -> Var {
        self.bind.bind(self.tape, p)
    }

    fn eval(&mut self, op: Op) -> Var {
        self.tape.eval(op)
    }

    fn view(&mut self, op: Op) -> Var {
        self.tape.view(op)
    }

    /// Two nodes, `MatMul` then `AddBias` / `AddBiasRelu` (fused: one
    /// buffer and one pass instead of a separate ReLU node). The product
    /// is freed once the bias node has read it: neither backward rule
    /// reads it.
    fn affine(&mut self, x: Var, w: Var, bias: Var, relu: bool) -> Var {
        let xw = self.tape.matmul(x, w);
        let y = if relu {
            self.tape.add_bias_relu(xw, bias)
        } else {
            self.tape.add_bias(xw, bias)
        };
        self.tape.release(xw);
        y
    }

    fn value(&self, v: Var) -> &Matrix {
        self.tape.value(v)
    }

    fn shape(&self, v: Var) -> (usize, usize) {
        self.tape.shape(v)
    }

    /// Frees `v` unless backward reads it (see [`Tape::release`]).
    fn release(&mut self, v: Var) {
        self.tape.release(v);
    }

    /// `f(x)`, recorded once over every row.
    fn map_rows<F>(&mut self, x: Var, into: Option<Var>, mut f: F) -> Var
    where
        F: FnMut(&mut Self, Var) -> Var,
    {
        let out = f(self, x);
        if let Some(v) = into {
            self.release(v);
        }
        out
    }
}

/// Where an eager node's value lives.
enum Slot<'p> {
    /// Computed here, in pooled storage.
    Owned(Matrix),
    /// An input or parameter read in place.
    Borrowed(&'p Matrix),
    /// A view: its index in [`Slots`]' views.
    View(usize),
    /// Handed back: no later node reads it.
    Released,
}

/// The eager node values, indexed like a tape's (what [`ops::forward`]
/// reads its operands from). A view's op is kept apart from the slots,
/// in the lending tape's op list ([`Tape::lend`]), so a slot stays the
/// size of a matrix and no forward grows a list of its own for them.
struct Slots<'t, 'p> {
    slots: Vec<Slot<'p>>,
    views: &'t mut Vec<Op>,
}

impl Slots<'_, '_> {
    /// Node `i`'s `(rows, cols)`; a view's from its operands'.
    fn shape(&self, i: usize) -> (usize, usize) {
        match &self.slots[i] {
            Slot::View(v) => ops::view_shape(&self.views[*v], |j| self.shape(j)),
            _ => self[i].shape(),
        }
    }
}

impl Index<usize> for Slots<'_, '_> {
    type Output = Matrix;

    fn index(&self, i: usize) -> &Matrix {
        match &self.slots[i] {
            Slot::Owned(m) => m,
            Slot::Borrowed(m) => m,
            Slot::View(_) => panic!("eager node {i} is a view: only a GEMM reads it"),
            Slot::Released => panic!("eager node {i} read after its release"),
        }
    }
}

impl NodeValues for Slots<'_, '_> {
    fn view(&self, i: usize) -> Option<&Op> {
        match self.slots[i] {
            Slot::View(v) => Some(&self.views[v]),
            _ => None,
        }
    }
}

/// The inference executor (see the module docs). It borrows a tape's
/// pool, so inference reuses the storage the caller's tape holds and
/// leaves its own there for the next call; dropping it puts back every
/// buffer it still holds.
pub struct Eager<'t, 'p> {
    pool: &'t mut BufferPool,
    slots: Slots<'t, 'p>,
}

impl<'t> Eager<'t, '_> {
    /// Reset `tape` (its recorded values go back to its pool) and evaluate
    /// over its storage.
    pub fn new(tape: &'t mut Tape) -> Self {
        let (pool, views) = tape.lend();
        Self {
            pool,
            slots: Slots {
                slots: Vec::new(),
                views,
            },
        }
    }
}

impl<'p> Eager<'_, 'p> {
    fn push(&mut self, slot: Slot<'p>) -> Var {
        self.slots.slots.push(slot);
        Var(self.slots.slots.len() - 1)
    }
}

impl<'p> Exec<'p> for Eager<'_, 'p> {
    fn input(&mut self, m: &'p Matrix) -> Var {
        self.push(Slot::Borrowed(m))
    }

    fn param(&mut self, p: &'p Param) -> Var {
        self.push(Slot::Borrowed(&p.value))
    }

    fn eval(&mut self, op: Op) -> Var {
        let value = ops::forward(&op, &self.slots, self.pool);
        self.push(Slot::Owned(value))
    }

    fn view(&mut self, op: Op) -> Var {
        ops::view_shape(&op, |i| self.slots.shape(i));
        self.slots.views.push(op);
        self.push(Slot::View(self.slots.views.len() - 1))
    }

    /// The tape's `MatMul`, then its `AddBias` / `AddBiasRelu` arithmetic
    /// applied in place on the product instead of on a copy of it.
    fn affine(&mut self, x: Var, w: Var, bias: Var, relu: bool) -> Var {
        let op = Op::MatMul { a: x.0, b: w.0 };
        let mut out = ops::forward(&op, &self.slots, self.pool);
        ops::add_bias_in_place(&mut out, &self.slots[bias.0], relu);
        self.push(Slot::Owned(out))
    }

    fn value(&self, v: Var) -> &Matrix {
        &self.slots[v.0]
    }

    fn shape(&self, v: Var) -> (usize, usize) {
        self.slots.shape(v.0)
    }

    /// Windows of [`CHUNK_ROWS`] rows when `x` has more, each window's
    /// output copied into the result's rows before the next runs.
    fn map_rows<F>(&mut self, x: Var, into: Option<Var>, mut f: F) -> Var
    where
        F: FnMut(&mut Self, Var) -> Var,
    {
        let rows = self.shape(x).0;
        if rows <= CHUNK_ROWS {
            let out = f(self, x);
            if let Some(v) = into {
                self.release(v);
            }
            return out;
        }
        let mut fresh = None;
        for start in (0..rows).step_by(CHUNK_ROWS) {
            let n = CHUNK_ROWS.min(rows - start);
            let window = self.view(Op::Rows {
                a: x.0,
                start,
                rows: n,
            });
            let y = f(self, window);
            let Slot::Owned(part) = std::mem::replace(&mut self.slots.slots[y.0], Slot::Released)
            else {
                panic!("eager node {} is no computed value", y.0);
            };
            let cols = part.cols();
            let out = match into {
                Some(v) => match &mut self.slots.slots[v.0] {
                    Slot::Owned(m) => m,
                    _ => panic!("eager node {} is no computed value to write into", v.0),
                },
                None => fresh.get_or_insert_with(|| self.pool.uninit(rows, cols)),
            };
            assert_eq!(out.shape(), (rows, cols), "map_rows output shape mismatch");
            out.data_mut()[start * cols..(start + n) * cols].copy_from_slice(part.data());
            self.pool.recycle(part);
        }
        self.release(x);
        let out = match into {
            Some(v) => match std::mem::replace(&mut self.slots.slots[v.0], Slot::Released) {
                Slot::Owned(m) => m,
                _ => unreachable!("checked for every window"),
            },
            None => fresh.expect("more than one window"),
        };
        self.push(Slot::Owned(out))
    }

    /// A computed value's buffer goes back to the pool now. Reading or
    /// releasing the node again panics. A view holds no buffer and stays
    /// readable by later views.
    fn release(&mut self, v: Var) {
        if matches!(self.slots.slots[v.0], Slot::View(_)) {
            return;
        }
        match std::mem::replace(&mut self.slots.slots[v.0], Slot::Released) {
            Slot::Owned(m) => self.pool.recycle(m),
            Slot::Borrowed(_) | Slot::View(_) => {}
            Slot::Released => panic!("eager node {} released twice", v.0),
        }
    }
}

impl Drop for Eager<'_, '_> {
    fn drop(&mut self) {
        for slot in self.slots.slots.drain(..) {
            if let Slot::Owned(m) = slot {
                self.pool.recycle(m);
            }
        }
        self.slots.views.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn eager_affine_matches_the_tape_bit_for_bit() {
        // Values straddling zero, so the in-place ReLU clamps some and
        // keeps others, and a bias with -0.0 in it.
        let x = Matrix::from_fn(9, 5, |r, c| (r as f32 - 4.0) * 0.37 + c as f32 * 0.11);
        let w = Matrix::from_fn(5, 7, |r, c| ((r * 7 + c) % 5) as f32 * 0.3 - 0.6);
        let b = Matrix::from_vec(1, 7, vec![0.5, -0.0, -0.25, 0.0, 1.0, -1.5, 0.125]);
        for relu in [false, true] {
            let (mut tape, mut bind) = (Tape::new(), Bindings::new());
            let mut rec = Recorder::new(&mut tape, &mut bind);
            let (xv, wv, bv) = (rec.input(&x), rec.input(&w), rec.input(&b));
            let y = rec.affine(xv, wv, bv, relu);
            let want = bits(rec.value(y));

            let mut tape = Tape::new();
            let mut ex = Eager::new(&mut tape);
            let (xv, wv, bv) = (ex.input(&x), ex.input(&w), ex.input(&b));
            let y = ex.affine(xv, wv, bv, relu);
            assert_eq!(bits(ex.value(y)), want, "relu = {relu}");
        }
    }

    #[test]
    fn released_buffers_serve_the_next_node() {
        let x = Matrix::from_fn(16, 16, |r, c| (r + c) as f32 * 0.1 - 1.0);
        let mut tape = Tape::new();
        {
            let mut ex = Eager::new(&mut tape);
            let a = ex.input(&x);
            let h = ex.eval(Op::Relu { a: a.0 });
            let t = ex.eval(Op::Tanh { a: h.0 });
            ex.release(h);
            let s = ex.eval(Op::Scale { a: t.0, k: 2.0 });
            ex.release(t);
            let want = x.get(15, 15).max(0.0).tanh() * 2.0;
            assert_eq!(ex.value(s).get(15, 15).to_bits(), want.to_bits());
        }
        // Two buffers out at most, and every one back after the drop.
        assert_eq!(tape.pool().peak_live_floats(), 2 * 256);
        assert_eq!(tape.pool().live_floats(), 0);
        assert_eq!(tape.pool().parked(), 2);
    }

    #[test]
    fn an_eager_view_keeps_its_op_in_the_tape_and_hands_it_back() {
        let (x, y) = (Matrix::ones(3, 2), Matrix::ones(3, 1));
        let (w, b) = (Matrix::ones(3, 4), Matrix::zeros(1, 4));
        let mut tape = Tape::new();
        for _ in 0..2 {
            let mut ex = Eager::new(&mut tape);
            let (xv, yv) = (ex.input(&x), ex.input(&y));
            let v = ex.concat_cols(&[xv, yv]);
            assert_eq!(ex.shape(v), (3, 3));
            let (wv, bv) = (ex.input(&w), ex.input(&b));
            let out = ex.affine(v, wv, bv, false);
            assert_eq!(ex.value(out).data(), &[3.0; 12]);
        }
        // The view's op was kept in the tape's op list and taken out again.
        assert!(tape.is_empty());
        let a = tape.leaf(Matrix::ones(1, 1));
        assert_eq!(a.0, 0);
    }

    #[test]
    #[should_panic(expected = "eager node 2 is a view: only a GEMM reads it")]
    fn an_eager_view_has_no_value() {
        let (x, y) = (Matrix::zeros(2, 2), Matrix::zeros(2, 1));
        let mut tape = Tape::new();
        let mut ex = Eager::new(&mut tape);
        let (xv, yv) = (ex.input(&x), ex.input(&y));
        let v = ex.concat_cols(&[xv, yv]);
        ex.value(v);
    }

    #[test]
    #[should_panic(expected = "read after its release")]
    fn a_released_eager_node_cannot_be_read() {
        let x = Matrix::zeros(2, 2);
        let mut tape = Tape::new();
        let mut ex = Eager::new(&mut tape);
        let a = ex.input(&x);
        let r = ex.eval(Op::Relu { a: a.0 });
        ex.release(r);
        ex.eval(Op::Relu { a: r.0 });
    }
}
