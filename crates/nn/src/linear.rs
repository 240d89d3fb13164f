//! Fully connected layers.

use crate::exec::Exec;
use crate::init;
use crate::param::Param;
use rand::Rng;
use trkx_tensor::{Matrix, Var};

/// Affine layer `y = x W + b` with `W: in x out`, `b: 1 x out`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub weight: Param,
    pub bias: Param,
}

impl Linear {
    /// Kaiming-uniform initialised layer.
    pub fn new(in_dim: usize, out_dim: usize, name: &str, rng: &mut impl Rng) -> Self {
        Self {
            weight: Param::new(
                format!("{name}.weight"),
                init::kaiming_uniform(in_dim, out_dim, rng),
            ),
            bias: Param::new(format!("{name}.bias"), Matrix::zeros(1, out_dim)),
        }
    }

    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// The affine transform `x W + b`, with ReLU fused in when `relu`.
    pub fn forward<'p, E: Exec<'p>>(&'p self, ex: &mut E, x: Var, relu: bool) -> Var {
        let w = ex.param(&self.weight);
        let b = ex.param(&self.bias);
        ex.affine(x, w, b, relu)
    }

    pub fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bindings, Recorder};
    use rand::{rngs::StdRng, SeedableRng};
    use trkx_tensor::Tape;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(3, 2, "l", &mut rng);
        // Force known weights.
        l.weight.value = Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]);
        l.bias.value = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let x = tape.constant(Matrix::from_vec(1, 3, vec![1., 2., 3.]));
        let y = l.forward(&mut Recorder::new(&mut tape, &mut bind), x, false);
        assert_eq!(tape.value(y).data(), &[4.5, 4.5]);
        assert_eq!(bind.len(), 2);
    }

    #[test]
    fn gradient_flows_to_both_params() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(2, 2, "l", &mut rng);
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let x = tape.constant(Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]));
        let y = l.forward(&mut Recorder::new(&mut tape, &mut bind), x, false);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        let mut params = l.params_mut();
        bind.harvest(&tape, &mut params);
        assert_eq!(l.bias.grad.data(), &[3.0, 3.0]); // 3 rows
        assert_eq!(l.weight.grad.data(), &[2., 2., 2., 2.]); // col sums of x
    }
}
