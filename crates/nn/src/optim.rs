//! The Adam optimizer, operating on [`Param`] collections.

use crate::param::Param;

const BETA1: f32 = 0.9;
const BETA2: f32 = 0.999;
const EPS: f32 = 1e-8;

/// Adam (Kingma & Ba) with bias correction, at a fixed learning rate.
pub struct Adam {
    pub lr: f32,
    t: u64,
    /// First and second moments of every parameter, stored end to end in
    /// the order `step` receives the parameters; built on the first step.
    m: Vec<f32>,
    v: Vec<f32>,
    /// Element count of each parameter at the first step.
    sizes: Vec<usize>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
            sizes: Vec::new(),
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one update from the accumulated gradients (callers
    /// `zero_grad` afterwards). Every step must pass the same parameters,
    /// in the same order, as the first; a different count or size panics.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.t == 0 {
            self.sizes = params.iter().map(|p| p.grad.len()).collect();
            let total = self.sizes.iter().sum();
            self.m = vec![0.0; total];
            self.v = vec![0.0; total];
        } else {
            assert!(
                params.len() == self.sizes.len()
                    && params
                        .iter()
                        .zip(&self.sizes)
                        .all(|(p, &n)| p.grad.len() == n),
                "Adam::step: {} parameters here, but the first step had {} of sizes {:?}",
                params.len(),
                self.sizes.len(),
                self.sizes
            );
        }
        self.t += 1;
        let b1t = 1.0 - BETA1.powi(self.t as i32);
        let b2t = 1.0 - BETA2.powi(self.t as i32);
        let mut off = 0;
        for p in params.iter_mut() {
            let n = p.grad.len();
            let moments = self.m[off..off + n]
                .iter_mut()
                .zip(&mut self.v[off..off + n]);
            off += n;
            let weights = p.value.data_mut().iter_mut().zip(p.grad.data());
            for ((w, &g), (m, v)) in weights.zip(moments) {
                *m = BETA1 * *m + (1.0 - BETA1) * g;
                *v = BETA2 * *v + (1.0 - BETA2) * g * g;
                let mhat = *m / b1t;
                let vhat = *v / b2t;
                *w -= self.lr * mhat / (vhat.sqrt() + EPS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trkx_tensor::Matrix;

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

    #[test]
    #[should_panic(expected = "first step had 1 of sizes [2]")]
    fn a_step_over_other_parameters_panics() {
        let mut a = Param::new("a", Matrix::from_vec(2, 1, vec![1.0, 2.0]));
        let mut b = Param::new("b", Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]));
        let mut opt = Adam::new(0.1);
        opt.step(&mut [&mut a]);
        opt.step(&mut [&mut b]);
    }
}
