//! Trainable parameters and their binding onto autograd tapes.
//!
//! A [`Param`] owns its value and an accumulated gradient. Each training
//! step creates a fresh [`trkx_tensor::Tape`]; modules *bind* their params
//! as tape leaves through a [`Bindings`] recorder, and after `backward`
//! the recorded `(param, leaf)` pairs pull gradients back out of the tape
//! into `Param::grad` (see [`Bindings::harvest`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use trkx_tensor::{Matrix, Tape, Var};

static NEXT_PARAM_ID: AtomicU64 = AtomicU64::new(0);

/// A uniquely identified trainable tensor.
#[derive(Debug, Clone)]
pub struct Param {
    id: u64,
    name: String,
    pub value: Matrix,
    pub grad: Matrix,
}

impl Param {
    /// Create a parameter; a fresh unique id is assigned (clones keep the
    /// original id so DDP replicas line up parameter-for-parameter).
    pub fn new(name: impl Into<String>, value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Self {
            id: NEXT_PARAM_ID.fetch_add(1, Ordering::Relaxed),
            name: name.into(),
            value,
            grad,
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of scalar elements.
    pub fn numel(&self) -> usize {
        self.value.len()
    }

    /// Reset the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        for g in self.grad.data_mut() {
            *g = 0.0;
        }
    }
}

/// Records which tape leaf each parameter was bound to during a forward
/// pass, so gradients can be harvested after `backward`.
#[derive(Default)]
pub struct Bindings {
    pairs: Vec<(u64, Var)>,
}

impl Bindings {
    pub fn new() -> Self {
        Self::default()
    }

    /// Enter `p.value` as a gradient-tracked leaf and remember the pairing.
    /// The value is copied into the tape's pooled storage, so repeated
    /// binds across reused tapes allocate nothing.
    pub fn bind(&mut self, tape: &mut Tape, p: &Param) -> Var {
        let v = tape.leaf_copied(&p.value);
        self.pairs.push((p.id, v));
        v
    }

    /// Forget all recorded pairings (keeps capacity). Call together with
    /// [`Tape::reset`] when reusing tape and bindings across steps.
    pub fn reset(&mut self) {
        self.pairs.clear();
    }

    /// Number of recorded bindings.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Accumulate tape gradients into the matching params' `grad` fields.
    /// Params bound multiple times accumulate each binding's gradient.
    pub fn harvest(&self, tape: &Tape, params: &mut [&mut Param]) {
        let mut by_id: HashMap<u64, usize> = HashMap::with_capacity(params.len());
        for (i, p) in params.iter().enumerate() {
            by_id.insert(p.id, i);
        }
        for &(id, var) in &self.pairs {
            if let (Some(&i), Some(g)) = (by_id.get(&id), tape.grad(var)) {
                params[i].grad.add_assign(g);
            }
        }
    }
}

/// Flatten all gradients into one contiguous buffer (coalesced all-reduce
/// operates on this). Order follows the slice order.
pub fn flatten_grads(params: &[&Param]) -> Vec<f32> {
    let total: usize = params.iter().map(|p| p.numel()).sum();
    let mut out = Vec::with_capacity(total);
    for p in params {
        out.extend_from_slice(p.grad.data());
    }
    out
}

/// Scatter a flat buffer back into the params' gradients (inverse of
/// [`flatten_grads`]). Panics if sizes disagree.
pub fn unflatten_grads(flat: &[f32], params: &mut [&mut Param]) {
    let mut off = 0;
    for p in params.iter_mut() {
        let n = p.numel();
        p.grad.data_mut().copy_from_slice(&flat[off..off + n]);
        off += n;
    }
    assert_eq!(off, flat.len(), "flat gradient buffer size mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_but_survive_clone() {
        let a = Param::new("a", Matrix::zeros(1, 1));
        let b = Param::new("b", Matrix::zeros(1, 1));
        assert_ne!(a.id(), b.id());
        assert_eq!(a.clone().id(), a.id());
    }

    #[test]
    fn bind_and_harvest() {
        let mut p = Param::new("w", Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let mut tape = Tape::new();
        let mut b = Bindings::new();
        let w = b.bind(&mut tape, &p);
        let sq = tape.hadamard(w, w);
        let loss = tape.sum_all(sq);
        tape.backward(loss);
        b.harvest(&tape, &mut [&mut p]);
        assert_eq!(p.grad.data(), &[4.0, 6.0]);
        // Harvest accumulates on top of existing grads.
        b.harvest(&tape, &mut [&mut p]);
        assert_eq!(p.grad.data(), &[8.0, 12.0]);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }

    #[test]
    fn double_binding_accumulates() {
        // Same param used twice in one graph: grads from both uses sum.
        let mut p = Param::new("w", Matrix::from_vec(1, 1, vec![3.0]));
        let mut tape = Tape::new();
        let mut b = Bindings::new();
        let w1 = b.bind(&mut tape, &p);
        let w2 = b.bind(&mut tape, &p);
        let prod = tape.hadamard(w1, w2); // w^2 as two leaves
        let loss = tape.sum_all(prod);
        tape.backward(loss);
        b.harvest(&tape, &mut [&mut p]);
        assert_eq!(p.grad.as_scalar(), 6.0); // 3 + 3
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let mut a = Param::new("a", Matrix::zeros(2, 2));
        let mut b = Param::new("b", Matrix::zeros(1, 3));
        a.grad = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        b.grad = Matrix::from_vec(1, 3, vec![5., 6., 7.]);
        let flat = flatten_grads(&[&a, &b]);
        assert_eq!(flat, vec![1., 2., 3., 4., 5., 6., 7.]);
        let halved: Vec<f32> = flat.iter().map(|v| v / 2.0).collect();
        unflatten_grads(&halved, &mut [&mut a, &mut b]);
        assert_eq!(a.grad.data(), &[0.5, 1.0, 1.5, 2.0]);
        assert_eq!(b.grad.data(), &[2.5, 3.0, 3.5]);
    }
}
