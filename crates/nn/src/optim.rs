//! The Adam optimizer, operating on [`Param`] collections.

use crate::param::Param;
use std::collections::HashMap;
use trkx_tensor::Matrix;

const BETA1: f32 = 0.9;
const BETA2: f32 = 0.999;
const EPS: f32 = 1e-8;

/// Adam (Kingma & Ba) with bias correction, at a fixed learning rate.
pub struct Adam {
    pub lr: f32,
    t: u64,
    m: HashMap<u64, Matrix>,
    v: HashMap<u64, Matrix>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one update from the accumulated gradients (callers
    /// `zero_grad` afterwards).
    pub fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        let b1t = 1.0 - BETA1.powi(self.t as i32);
        let b2t = 1.0 - BETA2.powi(self.t as i32);
        for p in params.iter_mut() {
            let (r, c) = p.grad.shape();
            let m = self.m.entry(p.id()).or_insert_with(|| Matrix::zeros(r, c));
            let v = self.v.entry(p.id()).or_insert_with(|| Matrix::zeros(r, c));
            for i in 0..p.grad.len() {
                let g = p.grad.data()[i];
                let mi = BETA1 * m.data()[i] + (1.0 - BETA1) * g;
                let vi = BETA2 * v.data()[i] + (1.0 - BETA2) * g * g;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let mhat = mi / b1t;
                let vhat = vi / b2t;
                p.value.data_mut()[i] -= self.lr * mhat / (vhat.sqrt() + EPS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &mut Param) {
        // loss = (x - 3)^2 per element; grad = 2(x - 3)
        p.grad = p.value.map(|x| 2.0 * (x - 3.0));
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Param::new("x", Matrix::from_vec(2, 1, vec![-5.0, 20.0]));
        let mut opt = Adam::new(0.3);
        for _ in 0..300 {
            quadratic_grad(&mut p);
            opt.step(&mut [&mut p]);
        }
        assert!(
            p.value.data().iter().all(|v| (v - 3.0).abs() < 1e-2),
            "{:?}",
            p.value.data()
        );
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn adam_handles_sparse_like_gradients() {
        // One coordinate gets gradient only occasionally; Adam's second
        // moment keeps its effective step bounded.
        let mut p = Param::new("x", Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        let mut opt = Adam::new(0.1);
        for t in 0..200 {
            p.grad = Matrix::from_vec(
                1,
                2,
                vec![
                    2.0 * (p.value.get(0, 0) - 1.0),
                    if t % 10 == 0 {
                        2.0 * (p.value.get(0, 1) - 1.0)
                    } else {
                        0.0
                    },
                ],
            );
            opt.step(&mut [&mut p]);
        }
        assert!((p.value.get(0, 0) - 1.0).abs() < 0.05);
    }
}
