//! Steady-state allocation budgets of the two pooled hot paths above the
//! kernels: one full Interaction-GNN train step through the training
//! [`Engine`], and one stage-2 graph construction.
//!
//! The test first forces the size-gated parallel kernels on (as
//! `trkx-tensor`'s `determinism.rs` does), and `ci.sh` runs the binary at
//! `RAYON_NUM_THREADS=1` and `4`: the same bound holding at both pool
//! sizes is the "allocations do not grow with the pool" check. Counting
//! allocator, hence its own test binary.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use trkx_core::train::Engine;
use trkx_core::{ConstructionMethod, GraphConstructor};
use trkx_detector::{DetectorGeometry, Event, Hit};
use trkx_ignn::{IgnnConfig, InteractionGnn};
use trkx_nn::{bce_with_logits, Adam};
use trkx_tensor::{EdgePlans, Matrix};

#[path = "../../tensor/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::steady_state_allocs_at_most;

#[global_allocator]
static A: counting_alloc::Counting = counting_alloc::Counting;

fn train_step_stays_within_its_allocation_budget() {
    // A random graph with the shape of a prepared event; the edge plans
    // are built once, as the data layer does for real batches.
    let (nodes, edges) = (1024usize, 4096usize);
    let mut rng = StdRng::seed_from_u64(7);
    let x = Matrix::randn(nodes, 3, 1.0, &mut rng);
    let y = Matrix::randn(edges, 2, 1.0, &mut rng);
    let mut endpoints = || -> Arc<Vec<u32>> {
        Arc::new((0..edges).map(|_| rng.gen_range(0..nodes as u32)).collect())
    };
    let (src, dst) = (endpoints(), endpoints());
    let labels: Vec<f32> = (0..edges).map(|_| f32::from(rng.gen_bool(0.3))).collect();
    let plans = Arc::new(EdgePlans::new(src, dst, nodes));

    let cfg = IgnnConfig::new(x.cols(), y.cols())
        .with_hidden(32)
        .with_gnn_layers(4)
        .with_mlp_depth(2);
    let mut model = InteractionGnn::new(cfg, &mut StdRng::seed_from_u64(11));
    let mut engine = Engine::new(Adam::new(1e-3));

    // 70 per step as recorded (harvest / optimizer bookkeeping, not
    // tensor storage); ROADMAP 5(d) is to name and remove them.
    steady_state_allocs_at_most("IGNN train step", 3, 5, 72, || {
        let m = &model;
        engine.forward_backward(|tape, bind| {
            let logits = m.forward_planned(tape, bind, &x, &y, &plans);
            Some(bce_with_logits(tape, logits, &labels, 1.0))
        });
        engine.update(&mut model.params_mut());
    });
}

fn graph_construction_stays_within_its_allocation_budget() {
    // Embedding-space event at funnel scale: 44 clusters of eight hits,
    // one per layer, jittered around a uniform centre — the shape a
    // trained embedding produces. The hits carry no truth particle:
    // `Event::truth_edges` builds a map per call, which is the
    // detector's cost and not the pooled engine's.
    let (n, dim, radius) = (352usize, 8usize, 0.25f32);
    let mut rng = StdRng::seed_from_u64(31);
    let mut center = vec![0.0f32; dim];
    let embeddings = Matrix::from_fn(n, dim, |row, col| {
        if row % 8 == 0 && col == 0 {
            center.fill_with(|| rng.gen_range(-1.0f32..1.0));
        }
        center[col] + rng.gen_range(-0.05f32..0.05)
    });
    let event = Event {
        hits: (0..n)
            .map(|i| Hit {
                x: 0.0,
                y: 0.0,
                z: 0.0,
                layer: (i % 8) as u32,
                particle: None,
                t: 0.0,
            })
            .collect(),
        num_particles: 0,
        geometry: DetectorGeometry::default(),
    };
    let method = ConstructionMethod::FixedRadius { radius };
    let mut constructor = GraphConstructor::default();
    let mut edges = 0;
    // Two warm-up events bring the index and scratch buffers to
    // capacity; what remains is the three output vectors.
    steady_state_allocs_at_most("construct", 2, 4, 8, || {
        edges = constructor
            .construct(&event, &embeddings, method)
            .num_edges();
    });
    assert!(edges > 0, "no candidate edges, nothing measured");
}

/// One `#[test]` for the whole binary: see `counting_alloc.rs`.
#[test]
fn pooled_hot_paths_stay_within_their_allocation_budgets() {
    // Before any kernel runs: the thresholds are read once per process.
    std::env::set_var("TRKX_PAR_THRESHOLD", "1");
    std::env::set_var("TRKX_PAR_MATMUL_THRESHOLD", "1");
    train_step_stays_within_its_allocation_budget();
    graph_construction_stays_within_its_allocation_budget();
}
