//! First-order optimizers operating on [`Param`] collections.

use crate::param::Param;
use std::collections::HashMap;
use trkx_tensor::Matrix;

/// Common optimizer interface: apply one update from accumulated gradients
/// (callers `zero_grad` afterwards).
pub trait Optimizer {
    fn step(&mut self, params: &mut [&mut Param]);
    fn learning_rate(&self) -> f32;
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam (Kingma & Ba) with bias correction, and optional decoupled
/// weight decay (AdamW) via [`Adam::with_weight_decay`].
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// Decoupled weight decay coefficient (AdamW); 0 disables.
    pub weight_decay: f32,
    t: u64,
    m: HashMap<u64, Matrix>,
    v: HashMap<u64, Matrix>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }

    /// AdamW: decay applied to the weights directly, not the gradient.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for p in params.iter_mut() {
            let (r, c) = p.grad.shape();
            let m = self.m.entry(p.id()).or_insert_with(|| Matrix::zeros(r, c));
            let v = self.v.entry(p.id()).or_insert_with(|| Matrix::zeros(r, c));
            for i in 0..p.grad.len() {
                let g = p.grad.data()[i];
                let mi = self.beta1 * m.data()[i] + (1.0 - self.beta1) * g;
                let vi = self.beta2 * v.data()[i] + (1.0 - self.beta2) * g * g;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let mhat = mi / b1t;
                let vhat = vi / b2t;
                let decay = self.lr * self.weight_decay * p.value.data()[i];
                p.value.data_mut()[i] -= self.lr * mhat / (vhat.sqrt() + self.eps) + decay;
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Clip the global gradient L2 norm of `params` to `max_norm`. Returns
/// the pre-clip norm. Standard stabiliser for deep message-passing
/// networks with summed aggregation (message magnitudes grow with degree).
pub fn clip_grad_norm(params: &mut [&mut Param], max_norm: f32) -> f32 {
    let total_sq: f32 = params
        .iter()
        .map(|p| p.grad.data().iter().map(|g| g * g).sum::<f32>())
        .sum();
    let norm = total_sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params.iter_mut() {
            for g in p.grad.data_mut() {
                *g *= scale;
            }
        }
    }
    norm
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

    #[test]
    fn adamw_decays_unused_weights() {
        // A weight with zero gradient shrinks under AdamW, stays put
        // under plain Adam.
        let run = |wd: f32| {
            let mut p = Param::new("x", Matrix::scalar(1.0));
            let mut opt = Adam::new(0.1).with_weight_decay(wd);
            for _ in 0..50 {
                p.zero_grad();
                opt.step(&mut [&mut p]);
            }
            p.value.as_scalar()
        };
        assert_eq!(run(0.0), 1.0);
        assert!(run(0.1) < 0.7, "weight did not decay: {}", run(0.1));
    }

    #[test]
    fn clip_grad_norm_scales_down_only() {
        let mut a = Param::new("a", Matrix::zeros(1, 2));
        let mut b = Param::new("b", Matrix::zeros(1, 1));
        a.grad = Matrix::from_vec(1, 2, vec![3.0, 0.0]);
        b.grad = Matrix::from_vec(1, 1, vec![4.0]);
        // Global norm = 5.
        let norm = clip_grad_norm(&mut [&mut a, &mut b], 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        assert!((a.grad.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((b.grad.get(0, 0) - 0.8).abs() < 1e-6);
        // Under the cap: untouched.
        let norm2 = clip_grad_norm(&mut [&mut a, &mut b], 10.0);
        assert!((norm2 - 1.0).abs() < 1e-6);
        assert!((a.grad.get(0, 0) - 0.6).abs() < 1e-6);
    }

    #[test]
    fn learning_rate_mutation() {
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
