//! Property tests for the optimizer and gradient plumbing.

use proptest::prelude::*;
use trkx_nn::{flatten_grads, unflatten_grads, Adam, Param};
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
    fn optimizers_reduce_quadratic_loss(start in -10.0f32..10.0) {
        let mut p = Param::new("x", Matrix::scalar(start));
        let mut opt = Adam::new(0.2);
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
