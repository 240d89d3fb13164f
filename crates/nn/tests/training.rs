//! End-to-end training tests: small MLPs must actually learn.

use rand::{rngs::StdRng, Rng, SeedableRng};
use trkx_nn::{
    bce_with_logits, contrastive_hinge_loss, Activation, Adam, BinaryStats, Bindings, Mlp,
    MlpConfig, Recorder,
};
use trkx_tensor::{Matrix, Tape};

/// Train `mlp` on (x, targets) with BCE for `steps`, return final loss.
fn train_bce(mlp: &mut Mlp, opt: &mut Adam, x: &Matrix, targets: &[f32], steps: usize) -> f32 {
    let mut last = f32::INFINITY;
    for _ in 0..steps {
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let xv = tape.constant(x.clone());
        let logits = mlp.forward(&mut Recorder::new(&mut tape, &mut bind), xv);
        let loss = bce_with_logits(&mut tape, logits, targets, 1.0);
        last = tape.value(loss).as_scalar();
        tape.backward(loss);
        let mut params = mlp.params_mut();
        bind.harvest(&tape, &mut params);
        opt.step(&mut params);
        for p in params {
            p.zero_grad();
        }
    }
    last
}

#[test]
fn mlp_learns_xor() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut mlp = Mlp::new(
        MlpConfig::new(&[2, 16, 1]).with_activation(Activation::Tanh),
        "xor",
        &mut rng,
    );
    let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
    let t = [0.0f32, 1.0, 1.0, 0.0];
    let mut opt = Adam::new(5e-2);
    let loss = train_bce(&mut mlp, &mut opt, &x, &t, 400);
    assert!(loss < 0.05, "XOR loss did not converge: {loss}");

    // Verify predictions.
    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    let xv = tape.constant(x);
    let logits = mlp.forward(&mut Recorder::new(&mut tape, &mut bind), xv);
    let stats = BinaryStats::from_logits(tape.value(logits).data(), &t, 0.5);
    assert_eq!(stats.accuracy(), 1.0);
}

#[test]
fn mlp_learns_linearly_separable_blob() {
    let mut rng = StdRng::seed_from_u64(7);
    let n = 200;
    let mut xs = Vec::with_capacity(n * 2);
    let mut ts = Vec::with_capacity(n);
    for _ in 0..n {
        let label = rng.gen_bool(0.5);
        let cx = if label { 2.0 } else { -2.0 };
        xs.push(cx + rng.gen_range(-1.0f32..1.0));
        xs.push(rng.gen_range(-1.0f32..1.0));
        ts.push(if label { 1.0 } else { 0.0 });
    }
    let x = Matrix::from_vec(n, 2, xs);
    let mut mlp = Mlp::new(MlpConfig::new(&[2, 8, 1]), "sep", &mut rng);
    let mut opt = Adam::new(5e-2);
    let loss = train_bce(&mut mlp, &mut opt, &x, &ts, 150);
    assert!(loss < 0.1, "separable loss did not converge: {loss}");
}

#[test]
fn layer_norm_mlp_trains() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut mlp = Mlp::new(
        MlpConfig::new(&[2, 16, 16, 1]).with_layer_norm(true),
        "ln",
        &mut rng,
    );
    let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
    let t = [0.0f32, 1.0, 1.0, 0.0];
    let mut opt = Adam::new(2e-2);
    let loss = train_bce(&mut mlp, &mut opt, &x, &t, 500);
    assert!(loss < 0.1, "LayerNorm MLP did not converge: {loss}");
}

#[test]
fn metric_learning_embedding_separates_clusters() {
    // Four points, two "particles" (0,1) and (2,3). Train an embedding MLP
    // with the contrastive hinge loss and check distance structure.
    let mut rng = StdRng::seed_from_u64(13);
    let mut mlp = Mlp::new(
        MlpConfig::new(&[3, 16, 2]).with_activation(Activation::Tanh),
        "emb",
        &mut rng,
    );
    let x = Matrix::from_vec(
        4,
        3,
        vec![
            1.0, 0.2, 0.0, // particle A hit 1
            0.9, 0.3, 0.1, // particle A hit 2
            -0.8, 0.5, 0.2, // particle B hit 1
            -0.9, 0.4, 0.3, // particle B hit 2
        ],
    );
    let pairs_i = [0u32, 2, 0, 1];
    let pairs_j = [1u32, 3, 2, 3];
    let labels = [1.0f32, 1.0, 0.0, 0.0];
    let mut opt = Adam::new(2e-2);
    for _ in 0..300 {
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let xv = tape.constant(x.clone());
        let emb = mlp.forward(&mut Recorder::new(&mut tape, &mut bind), xv);
        let loss = contrastive_hinge_loss(&mut tape, emb, &pairs_i, &pairs_j, &labels, 1.0);
        tape.backward(loss);
        let mut params = mlp.params_mut();
        bind.harvest(&tape, &mut params);
        opt.step(&mut params);
        for p in params {
            p.zero_grad();
        }
    }
    // Evaluate: same-particle distance must be well below cross-particle.
    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    let xv = tape.constant(x);
    let emb_var = mlp.forward(&mut Recorder::new(&mut tape, &mut bind), xv);
    let emb = tape.value(emb_var);
    let d2 = |a: usize, b: usize| -> f32 {
        emb.row(a)
            .iter()
            .zip(emb.row(b))
            .map(|(x, y)| (x - y) * (x - y))
            .sum()
    };
    assert!(d2(0, 1) < 0.1, "same-particle A distance {}", d2(0, 1));
    assert!(d2(2, 3) < 0.1, "same-particle B distance {}", d2(2, 3));
    assert!(d2(0, 2) > 0.9, "cross-particle distance {}", d2(0, 2));
    assert!(d2(1, 3) > 0.9, "cross-particle distance {}", d2(1, 3));
}

#[test]
fn deeper_mlp_gradcheck_via_harvested_grads() {
    // Harvested parameter gradients must match finite differences of the
    // whole training loss (validates Bindings::harvest end-to-end).
    let mut rng = StdRng::seed_from_u64(17);
    let mut mlp = Mlp::new(MlpConfig::new(&[2, 4, 1]), "gc", &mut rng);
    let x = Matrix::from_vec(3, 2, vec![0.5, -1.0, 1.5, 0.3, -0.7, 0.9]);
    let t = [1.0f32, 0.0, 1.0];

    let loss_at = |mlp: &Mlp| -> f32 {
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let xv = tape.constant(x.clone());
        let logits = mlp.forward(&mut Recorder::new(&mut tape, &mut bind), xv);
        let loss = bce_with_logits(&mut tape, logits, &t, 1.0);
        tape.value(loss).as_scalar()
    };

    // Analytic.
    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    let xv = tape.constant(x.clone());
    let logits = mlp.forward(&mut Recorder::new(&mut tape, &mut bind), xv);
    let loss = bce_with_logits(&mut tape, logits, &t, 1.0);
    tape.backward(loss);
    {
        let mut params = mlp.params_mut();
        bind.harvest(&tape, &mut params);
    }
    let analytic: Vec<Matrix> = mlp.params().iter().map(|p| p.grad.clone()).collect();

    // Numeric, perturbing each param element.
    let eps = 1e-2f32;
    for (pi, grad) in analytic.iter().enumerate() {
        for e in 0..grad.len() {
            let orig = mlp.params()[pi].value.data()[e];
            mlp.params_mut()[pi].value.data_mut()[e] = orig + eps;
            let plus = loss_at(&mlp);
            mlp.params_mut()[pi].value.data_mut()[e] = orig - eps;
            let minus = loss_at(&mlp);
            mlp.params_mut()[pi].value.data_mut()[e] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let exact = grad.data()[e];
            assert!(
                (numeric - exact).abs() < 2e-2 + 0.05 * exact.abs(),
                "param {pi} elem {e}: numeric {numeric} vs analytic {exact}"
            );
        }
    }
}
