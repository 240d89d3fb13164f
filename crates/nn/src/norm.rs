//! Normalisation layers.

use crate::exec::Exec;
use crate::param::Param;
use trkx_tensor::{Matrix, Op, Var};

/// Per-row LayerNorm with learned gain/offset, as used between the MLP
/// layers of the acorn Interaction GNN.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    pub gamma: Param,
    pub beta: Param,
    pub eps: f32,
}

impl LayerNorm {
    pub fn new(dim: usize, name: &str) -> Self {
        Self {
            gamma: Param::new(format!("{name}.gamma"), Matrix::ones(1, dim)),
            beta: Param::new(format!("{name}.beta"), Matrix::zeros(1, dim)),
            eps: 1e-5,
        }
    }

    pub fn forward<'p, E: Exec<'p>>(&'p self, ex: &mut E, x: Var) -> Var {
        let g = ex.param(&self.gamma);
        let b = ex.param(&self.beta);
        ex.eval(Op::LayerNorm {
            a: x.0,
            gamma: g.0,
            beta: b.0,
            eps: self.eps,
        })
    }

    pub fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bindings, Recorder};
    use trkx_tensor::Tape;

    #[test]
    fn normalises_rows() {
        let ln = LayerNorm::new(4, "ln");
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let x = tape.constant(Matrix::from_vec(
            2,
            4,
            vec![1., 2., 3., 4., 10., 10., 10., 10.],
        ));
        let y = ln.forward(&mut Recorder::new(&mut tape, &mut bind), x);
        let v = tape.value(y);
        // Row 0: mean 2.5, normalised values symmetric around 0.
        let r0: f32 = v.row(0).iter().sum();
        assert!(r0.abs() < 1e-4);
        // Constant row maps to ~0 (variance ~ eps).
        assert!(v.row(1).iter().all(|&a| a.abs() < 1e-2));
    }

    #[test]
    fn identity_gamma_beta_gradients_flow() {
        let mut ln = LayerNorm::new(3, "ln");
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let x = tape.constant(Matrix::from_vec(2, 3, vec![1., 5., 2., 0., -1., 3.]));
        let y = ln.forward(&mut Recorder::new(&mut tape, &mut bind), x);
        let sq = tape.hadamard(y, y);
        let loss = tape.mean_all(sq);
        tape.backward(loss);
        let mut params = ln.params_mut();
        bind.harvest(&tape, &mut params);
        assert!(ln.gamma.grad.frobenius_norm() > 0.0);
    }
}
