//! Finite-difference gradient checking.
//!
//! Every autograd op (and every composite model built on the tape) is
//! validated by perturbing each input element and comparing the numerical
//! directional derivative against the analytic gradient from
//! [`crate::Tape::backward`].

use crate::matrix::Matrix;
use crate::tape::{Tape, Var};

/// Result of a gradient check: worst absolute and relative error observed.
#[derive(Debug, Clone, Copy)]
pub struct GradCheckReport {
    pub max_abs_err: f32,
    pub max_rel_err: f32,
}

impl GradCheckReport {
    /// True when errors are within `tol` (relative, with absolute fallback
    /// for near-zero gradients).
    pub fn passes(&self, tol: f32) -> bool {
        self.max_rel_err <= tol || self.max_abs_err <= tol
    }
}

/// Check the gradient of `f` with respect to every element of every input.
///
/// `f` receives a fresh tape plus leaf vars for each input and must return a
/// scalar var (the loss). Uses central differences with step `eps`.
pub fn gradcheck(
    inputs: &[Matrix],
    eps: f32,
    f: impl Fn(&mut Tape, &[Var]) -> Var,
) -> GradCheckReport {
    // Analytic gradients.
    let mut tape = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|m| tape.leaf(m.clone())).collect();
    let loss = f(&mut tape, &vars);
    tape.backward(loss);
    let analytic: Vec<Matrix> = vars
        .iter()
        .zip(inputs)
        .map(|(&v, m)| {
            tape.grad(v)
                .cloned()
                .unwrap_or_else(|| Matrix::zeros(m.rows(), m.cols()))
        })
        .collect();

    let eval = |perturbed: &[Matrix]| -> f32 {
        let mut t = Tape::new();
        let vs: Vec<Var> = perturbed.iter().map(|m| t.leaf(m.clone())).collect();
        let l = f(&mut t, &vs);
        t.value(l).as_scalar()
    };

    let mut report = GradCheckReport {
        max_abs_err: 0.0,
        max_rel_err: 0.0,
    };
    let mut work: Vec<Matrix> = inputs.to_vec();
    for (i, input) in inputs.iter().enumerate() {
        for e in 0..input.len() {
            let orig = input.data()[e];
            work[i].data_mut()[e] = orig + eps;
            let plus = eval(&work);
            work[i].data_mut()[e] = orig - eps;
            let minus = eval(&work);
            work[i].data_mut()[e] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let exact = analytic[i].data()[e];
            let abs = (numeric - exact).abs();
            let rel = abs / numeric.abs().max(exact.abs()).max(1e-4);
            report.max_abs_err = report.max_abs_err.max(abs);
            report.max_rel_err = report.max_rel_err.max(rel);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::Arc;

    fn rand_m(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::randn(r, c, 0.5, &mut rng)
    }

    const TOL: f32 = 2e-2;
    const EPS: f32 = 1e-2;

    #[test]
    fn gc_matmul() {
        let a = rand_m(3, 4, 1);
        let b = rand_m(4, 2, 2);
        let r = gradcheck(&[a, b], EPS, |t, v| {
            let c = t.matmul(v[0], v[1]);
            t.sum_all(c)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gc_add_sub_hadamard() {
        let a = rand_m(3, 3, 3);
        let b = rand_m(3, 3, 4);
        let r = gradcheck(&[a, b], EPS, |t, v| {
            let s = t.add(v[0], v[1]);
            let d = t.sub(s, v[1]);
            let h = t.hadamard(d, v[1]);
            t.mean_all(h)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gc_bias_scale() {
        let a = rand_m(4, 3, 5);
        let bias = rand_m(1, 3, 6);
        let r = gradcheck(&[a, bias], EPS, |t, v| {
            let b = t.add_bias(v[0], v[1]);
            let s = t.scale(b, 1.7);
            let s = t.add_scalar(s, 0.3);
            t.sum_all(s)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gc_activations() {
        let a = rand_m(4, 4, 7);
        for act in 0..2 {
            let r = gradcheck(std::slice::from_ref(&a), EPS, |t, v| {
                let y = match act {
                    0 => t.relu(v[0]),
                    _ => t.tanh(v[0]),
                };
                // Square so the sum gradient is nonuniform.
                let y2 = t.hadamard(y, y);
                t.sum_all(y2)
            });
            assert!(r.passes(TOL), "act {act}: {r:?}");
        }
    }

    #[test]
    fn gc_concat() {
        let a = rand_m(3, 2, 8);
        let b = rand_m(3, 3, 9);
        let r = gradcheck(&[a, b], EPS, |t, v| {
            let c = t.concat_cols(&[v[0], v[1], v[0]]);
            let h = t.hadamard(c, c);
            t.mean_all(h)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gc_gather_scatter() {
        let a = rand_m(5, 3, 10);
        let idx = Arc::new(vec![4u32, 1, 1, 0]);
        let sidx = Arc::new(vec![0u32, 2, 2, 1]);
        let r = gradcheck(std::slice::from_ref(&a), EPS, move |t, v| {
            let g = t.gather(v[0], idx.clone());
            let s = t.scatter_add(g, sidx.clone(), 3);
            let h = t.hadamard(s, s);
            t.sum_all(h)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gc_row_sum() {
        let a = rand_m(4, 3, 11);
        let r = gradcheck(std::slice::from_ref(&a), EPS, |t, v| {
            let rs = t.row_sum(v[0]);
            let h = t.hadamard(rs, rs);
            t.sum_all(h)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gc_bce() {
        let logits = rand_m(4, 1, 12);
        let targets = Arc::new(vec![1.0, 0.0, 1.0, 0.0]);
        let r = gradcheck(std::slice::from_ref(&logits), EPS, move |t, v| {
            t.bce_with_logits(v[0], targets.clone(), 2.5)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gc_layer_norm() {
        let a = rand_m(4, 6, 15);
        let gamma = rand_m(1, 6, 16);
        let beta = rand_m(1, 6, 17);
        let r = gradcheck(&[a, gamma, beta], EPS, |t, v| {
            let y = t.layer_norm(v[0], v[1], v[2], 1e-5);
            let h = t.hadamard(y, y);
            t.mean_all(h)
        });
        assert!(r.passes(5e-2), "{r:?}");
    }

    #[test]
    fn gc_mul_mask() {
        let a = rand_m(3, 3, 18);
        let mask = Arc::new(Matrix::from_fn(3, 3, |r, c| ((r + c) % 2) as f32));
        let r = gradcheck(std::slice::from_ref(&a), EPS, move |t, v| {
            let m = t.mul_mask(v[0], mask.clone());
            let h = t.hadamard(m, m);
            t.sum_all(h)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gc_composite_two_layer_mlp() {
        // Full small MLP: x -> W1 -> +b1 -> relu -> W2 -> +b2 -> bce.
        let x = rand_m(6, 4, 19);
        let w1 = rand_m(4, 8, 20);
        let b1 = rand_m(1, 8, 21);
        let w2 = rand_m(8, 1, 22);
        let b2 = rand_m(1, 1, 23);
        let targets = Arc::new(vec![1., 0., 1., 1., 0., 0.]);
        let r = gradcheck(&[x, w1, b1, w2, b2], EPS, move |t, v| {
            let h = t.matmul(v[0], v[1]);
            let h = t.add_bias(h, v[2]);
            let h = t.relu(h);
            let o = t.matmul(h, v[3]);
            let o = t.add_bias(o, v[4]);
            t.bce_with_logits(o, targets.clone(), 1.0)
        });
        assert!(r.passes(TOL), "{r:?}");
    }
}
