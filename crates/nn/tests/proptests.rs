//! Property tests for optimizers, schedules, and gradient plumbing.

use proptest::prelude::*;
use trkx_nn::{
    clip_grad_norm, flatten_grads, unflatten_grads, Adam, CosineAnnealing, LrSchedule, Optimizer,
    Param, StepDecay, Warmup,
};
use trkx_tensor::Matrix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flatten_unflatten_roundtrip(shapes in proptest::collection::vec((1usize..5, 1usize..5), 1..6),
                                   seed in 0u64..100) {
        use rand::{rngs::StdRng, SeedableRng, Rng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params: Vec<Param> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(r, c))| {
                let mut p = Param::new(format!("p{i}"), Matrix::zeros(r, c));
                p.grad = Matrix::from_fn(r, c, |_, _| rng.gen_range(-5.0f32..5.0));
                p
            })
            .collect();
        let before: Vec<Vec<f32>> = params.iter().map(|p| p.grad.data().to_vec()).collect();
        let flat = flatten_grads(&params.iter().collect::<Vec<_>>());
        prop_assert_eq!(flat.len(), shapes.iter().map(|&(r, c)| r * c).sum::<usize>());
        let mut refs: Vec<&mut Param> = params.iter_mut().collect();
        unflatten_grads(&flat, &mut refs);
        for (p, b) in params.iter().zip(&before) {
            prop_assert_eq!(p.grad.data(), &b[..]);
        }
    }

    #[test]
    fn clip_never_increases_norm(grads in proptest::collection::vec(-10.0f32..10.0, 1..20),
                                 max_norm in 0.1f32..20.0) {
        let mut p = Param::new("g", Matrix::zeros(1, grads.len()));
        p.grad = Matrix::from_vec(1, grads.len(), grads);
        let before = p.grad.frobenius_norm();
        clip_grad_norm(&mut [&mut p], max_norm);
        let after = p.grad.frobenius_norm();
        prop_assert!(after <= before + 1e-5);
        prop_assert!(after <= max_norm + 1e-4, "after {} > cap {}", after, max_norm);
    }

    #[test]
    fn schedules_stay_in_unit_range(step in 0usize..1000,
                                    period in 1usize..50,
                                    total in 1usize..500) {
        let sd = StepDecay { period, gamma: 0.5 };
        // Extreme step/period ratios may underflow f32 to exactly 0.
        prop_assert!(sd.factor(step) <= 1.0 && sd.factor(step) >= 0.0);
        let ca = CosineAnnealing { total, min_factor: 0.05 };
        let f = ca.factor(step);
        prop_assert!((0.05..=1.0).contains(&f), "cosine factor {}", f);
        let w = Warmup { warmup: 10, inner: ca };
        let wf = w.factor(step);
        prop_assert!((0.0..=1.0).contains(&wf));
    }

    #[test]
    fn cosine_is_monotone_decreasing(total in 10usize..200) {
        let ca = CosineAnnealing { total, min_factor: 0.1 };
        for s in 1..total {
            prop_assert!(ca.factor(s) <= ca.factor(s - 1) + 1e-6);
        }
    }

    #[test]
    fn optimizers_reduce_quadratic_loss(start in -10.0f32..10.0) {
        let mut p = Param::new("x", Matrix::scalar(start));
        let opt: &mut dyn Optimizer = &mut Adam::new(0.2);
        let loss = |x: f32| (x - 1.0) * (x - 1.0);
        let before = loss(p.value.as_scalar());
        for _ in 0..50 {
            let x = p.value.as_scalar();
            p.grad = Matrix::scalar(2.0 * (x - 1.0));
            opt.step(&mut [&mut p]);
        }
        let after = loss(p.value.as_scalar());
        prop_assert!(after <= before + 1e-6, "loss went {} -> {}", before, after);
    }
}
