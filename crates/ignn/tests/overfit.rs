//! The IGNN must be able to overfit a tiny labelled graph — the standard
//! "can this model learn at all" check.

use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use trkx_ignn::{IgnnConfig, InteractionGnn};
use trkx_nn::{bce_with_logits, Adam, BinaryStats, Bindings};
use trkx_tensor::{Matrix, Tape};

#[test]
fn ignn_overfits_tiny_graph() {
    let mut rng = StdRng::seed_from_u64(123);
    let cfg = IgnnConfig::new(3, 2)
        .with_hidden(16)
        .with_gnn_layers(3)
        .with_mlp_depth(2);
    let mut model = InteractionGnn::new(cfg, &mut rng);

    // 6 nodes in two "tracks" (0-1-2 and 3-4-5) plus crossing fake edges.
    let x = Matrix::from_fn(6, 3, |r, c| ((r * 3 + c) as f32 * 0.37).sin());
    let src: Arc<Vec<u32>> = Arc::new(vec![0, 1, 3, 4, 0, 2, 1]);
    let dst: Arc<Vec<u32>> = Arc::new(vec![1, 2, 4, 5, 4, 3, 5]);
    let labels = [1.0f32, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0];
    let y = Matrix::from_fn(7, 2, |r, c| ((r * 2 + c) as f32 * 0.61).cos());

    let mut opt = Adam::new(5e-3);
    let mut final_loss = f32::INFINITY;
    for _ in 0..150 {
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let logits = model.forward(&mut tape, &mut bind, &x, &y, src.clone(), dst.clone());
        let loss = bce_with_logits(&mut tape, logits, &labels, 1.0);
        final_loss = tape.value(loss).as_scalar();
        tape.backward(loss);
        let mut params = model.params_mut();
        bind.harvest(&tape, &mut params);
        opt.step(&mut params);
        for p in params {
            p.zero_grad();
        }
    }
    assert!(
        final_loss < 0.05,
        "IGNN failed to overfit: loss {final_loss}"
    );

    // Perfect classification of the training edges.
    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    let logits = model.forward(&mut tape, &mut bind, &x, &y, src, dst);
    let stats = BinaryStats::from_logits(tape.value(logits).data(), &labels, 0.5);
    assert_eq!(stats.accuracy(), 1.0, "{stats:?}");
}

#[test]
fn deeper_network_propagates_information_farther() {
    // A path graph where only the far end's features identify the label:
    // a 1-layer IGNN cannot see it, a 4-layer one can. We check the
    // mechanism (receptive field) rather than training: perturbing a
    // distant node's features must only affect the logit when depth
    // suffices.
    let mut rng = StdRng::seed_from_u64(7);
    let path_edges: (Vec<u32>, Vec<u32>) = ((0..5).collect(), (1..6).collect());
    let x = Matrix::from_fn(6, 2, |r, c| (r + c) as f32 * 0.1);
    let y = Matrix::from_fn(5, 1, |r, _| r as f32 * 0.1);

    for (layers, expect_effect) in [(1usize, false), (4usize, true)] {
        let cfg = IgnnConfig::new(2, 1)
            .with_hidden(8)
            .with_gnn_layers(layers)
            .with_mlp_depth(2);
        let model = InteractionGnn::new(cfg, &mut rng);
        let run = |x: &Matrix| {
            let mut tape = Tape::new();
            let mut bind = Bindings::new();
            let v = model.forward(
                &mut tape,
                &mut bind,
                x,
                &y,
                Arc::new(path_edges.0.clone()),
                Arc::new(path_edges.1.clone()),
            );
            // Logit of edge (0, 1) — the far end from node 5.
            tape.value(v).get(0, 0)
        };
        let base = run(&x);
        // Node 4 is 3 hops from node 1; node states propagate L-1 hops
        // (the final layer runs no node update), so L=4 sees it, L=1 not.
        let mut x2 = x.clone();
        x2.set(4, 0, 100.0);
        let perturbed = run(&x2);
        let moved = (base - perturbed).abs() > 1e-6;
        assert_eq!(
            moved, expect_effect,
            "layers={layers}: effect={moved}, expected {expect_effect}"
        );
    }
}
