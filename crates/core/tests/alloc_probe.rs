//! Steady-state allocation budgets of the pooled hot paths above the
//! kernels: one full Interaction-GNN train step through the training
//! [`Engine`] and one stage-2 graph construction (allocations per call on
//! a repeated shape), then the same train step when every call brings a
//! shape the pool has not seen (bytes against the tape's activation
//! footprint), and served events in an order the pool has not seen (no
//! fresh pool buffer, and a byte budget).
//!
//! The test first forces the size-gated parallel kernels on (as
//! `trkx-tensor`'s `determinism.rs` does), and `ci.sh` runs the binary at
//! `RAYON_NUM_THREADS=1` and `4`: the same bound holding at both pool
//! sizes is the "allocations do not grow with the pool" check. Counting
//! allocator, hence its own test binary.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use trkx_core::train::Engine;
use trkx_core::{
    train_pipeline, ConstructionMethod, EmbeddingConfig, GnnTrainConfig, GraphConstructor,
    PipelineConfig, SamplerKind,
};
use trkx_detector::{simulate_event, DetectorGeometry, Event, GunConfig, Hit};
use trkx_ignn::{IgnnConfig, InteractionGnn};
use trkx_nn::{bce_with_logits, Adam, Bindings};
use trkx_sampling::ShadowConfig;
use trkx_tensor::{EdgePlans, Matrix, Tape};

#[path = "../../tensor/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{count_alloc_bytes, steady_state_allocs_at_most};

#[global_allocator]
static A: counting_alloc::Counting = counting_alloc::Counting;

/// A random graph with the shape of a prepared event; the edge plans are
/// built once, as the trainer does when it samples a real batch.
struct Batch {
    x: Matrix,
    y: Matrix,
    labels: Vec<f32>,
    plans: Arc<EdgePlans>,
}

impl Batch {
    fn new(nodes: usize, edges: usize, rng: &mut StdRng) -> Self {
        let x = Matrix::randn(nodes, 3, 1.0, rng);
        let y = Matrix::randn(edges, 2, 1.0, rng);
        let mut endpoints = || -> Arc<Vec<u32>> {
            Arc::new((0..edges).map(|_| rng.gen_range(0..nodes as u32)).collect())
        };
        let (src, dst) = (endpoints(), endpoints());
        let labels = (0..edges).map(|_| f32::from(rng.gen_bool(0.3))).collect();
        let plans = Arc::new(EdgePlans::new(src, dst, nodes));
        Self {
            x,
            y,
            labels,
            plans,
        }
    }
}

/// One optimizer step on `b`; returns the tape's activation footprint.
fn train_step(engine: &mut Engine, model: &mut InteractionGnn, b: &Batch) -> usize {
    let mut floats = 0;
    let m = &*model;
    engine.forward_backward(|tape, bind| {
        let logits = m.forward_planned(tape, bind, &b.x, &b.y, &b.plans);
        let loss = bce_with_logits(tape, logits, &b.labels, 1.0);
        floats = tape.activation_floats();
        Some(loss)
    });
    engine.update(&mut model.params_mut());
    floats
}

/// Of a window's `bytes` allocated against the `floats` its tapes held
/// or their pools handed out: at most `max_pct` percent of that storage
/// may have come from the allocator.
fn assert_mostly_recycled(label: &str, bytes: usize, floats: usize, max_pct: usize) {
    let storage_bytes = floats * std::mem::size_of::<f32>();
    assert!(
        bytes * 100 <= storage_bytes * max_pct,
        "{label}: {bytes} bytes allocated against {storage_bytes} bytes of pool storage"
    );
}

fn train_step_stays_within_its_allocation_budgets() {
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = IgnnConfig::new(3, 2)
        .with_hidden(32)
        .with_gnn_layers(4)
        .with_mlp_depth(2);
    let mut model = InteractionGnn::new(cfg, &mut StdRng::seed_from_u64(11));
    let mut engine = Engine::new(Adam::new(1e-3));

    // 36 per step as measured, none of them tensor storage: 34 nested
    // `Vec`s of `params_mut` and two in `bce_with_logits`. A view records
    // its parts and widths inline (`Concat`), builds no list of operand
    // references, and its GEMM reads the parts from a stack array; two
    // small vectors per `concat_cols` view (22 per step) would go over.
    let batch = Batch::new(1024, 4096, &mut rng);
    steady_state_allocs_at_most("IGNN train step", 3, 5, 36, || {
        train_step(&mut engine, &mut model, &batch);
    });

    // Sampled minibatches: no two have the same vertex and edge count.
    // Four of them span the range and warm the pool; the next eight are
    // each a first-time shape inside it.
    for (nodes, edges) in [(820, 3300), (1230, 4900), (960, 3840), (1100, 4400)] {
        train_step(&mut engine, &mut model, &Batch::new(nodes, edges, &mut rng));
    }
    let fresh: Vec<Batch> = (0..8)
        .map(|_| {
            let (nodes, edges) = (rng.gen_range(820..1230), rng.gen_range(3300..4900));
            Batch::new(nodes, edges, &mut rng)
        })
        .collect();
    let mut floats = 0;
    let bytes = count_alloc_bytes(|| {
        for b in &fresh {
            floats += train_step(&mut engine, &mut model, b);
        }
    });
    assert_mostly_recycled("fresh-shape train steps", bytes, floats, 20);
}

fn served_events_recycle_across_event_shapes() {
    let geometry = DetectorGeometry::default();
    let gun = GunConfig::default();
    let mut rng = StdRng::seed_from_u64(42);
    let mut events = |n: usize, particles: fn(usize) -> usize| -> Vec<Event> {
        (0..n)
            .map(|i| simulate_event(&geometry, &gun, particles(i), 0.1, &mut rng))
            .collect()
    };
    let training = events(5, |_| 15);
    let config = PipelineConfig {
        embedding: EmbeddingConfig {
            epochs: 6,
            ..Default::default()
        },
        gnn: GnnTrainConfig {
            hidden: 16,
            gnn_layers: 2,
            epochs: 2,
            batch_size: 64,
            shadow: ShadowConfig {
                depth: 2,
                fanout: 4,
            },
            ..Default::default()
        },
        gnn_sampler: SamplerKind::Bulk { k: 4 },
        ..Default::default()
    };
    let (pipeline, _) = train_pipeline(config, &training[..4], &training[4..]);

    // 36 requests of 8..=25 particles, served one event at a time, then
    // again in a shuffled order, so each event's buffers are requested
    // from a pool that the previous (differently sized) event left
    // behind. The second pass takes no buffer from the allocator: the
    // pool parks exactly the buffers it parked before. What it still
    // allocates is the pipeline's own per-request vectors (features,
    // candidate and pruned edge lists, kept ids, the truth edges and the
    // track-matching maps), 1,776,878 bytes at both pool sizes, bounded
    // at the 1,780,910 bytes the same requests allocated while each
    // stage built its MLPs' inputs. (That was 4.43 % of the pool storage
    // handed out, and bounded at 5 % of it; the stages now ask for 40 %
    // less, so a share of it would measure the views' saving, not the
    // recycling.)
    let requests = events(36, |i| 8 + i * 7 % 18);
    let (mut tape, mut bind) = (Tape::new(), Bindings::new());
    let mut ctor = pipeline.new_constructor();
    // The floats the pool handed out, and the buffers it parks after.
    let mut serve = |order: &[usize]| -> (usize, usize) {
        let before = tape.pool().handed_out_floats();
        for &i in order {
            pipeline.reconstruct_pooled(&mut tape, &mut bind, &mut ctor, &requests[i]);
        }
        let pool = tape.pool();
        (pool.handed_out_floats() - before, pool.parked())
    };
    let in_order: Vec<usize> = (0..36).collect();
    let shuffled: Vec<usize> = (0..36).map(|i| (i * 5 + 3) % 36).collect();
    let (_, parked) = serve(&in_order);
    let (mut floats, mut parked_after) = (0, 0);
    let bytes = count_alloc_bytes(|| (floats, parked_after) = serve(&shuffled));
    eprintln!(
        "re-ordered served events: {bytes} bytes allocated, {} bytes handed out by the pool",
        floats * std::mem::size_of::<f32>()
    );
    assert_eq!(
        parked_after, parked,
        "re-ordered served events took fresh buffers into the pool"
    );
    assert!(
        bytes <= 1_780_910,
        "re-ordered served events: {bytes} bytes allocated"
    );
}

fn graph_construction_stays_within_its_allocation_budget() {
    // Embedding-space event at funnel scale: 44 clusters of eight hits,
    // one per layer, jittered around a uniform centre — the shape a
    // trained embedding produces. The hits carry no truth particle: the
    // truth edges `Event::truth_edges` sorts out per call are the
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
    trkx_tensor::force_parallel_kernels();
    train_step_stays_within_its_allocation_budgets();
    graph_construction_stays_within_its_allocation_budget();
    served_events_recycle_across_event_shapes();
}
