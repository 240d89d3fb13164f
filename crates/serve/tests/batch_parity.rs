//! The serving contract: [`TrainedPipeline::reconstruct`]'s output is
//! pinned across commits by a golden hash, pooled inference is
//! **bit-identical** to it whatever the pools served before, and the
//! served responses are independent of worker count and of how the
//! queue happened to group waiting requests per wake-up.
//!
//! This holds because every kernel in the substrate is bit-identical at
//! any tile/block/thread geometry (DESIGN.md §4d/§4e) and the tape's
//! pool only recycles storage, never values.

use rand::{rngs::StdRng, SeedableRng};
use std::sync::mpsc::channel;
use std::sync::Arc;
use trkx_core::{
    build_tracks, train_pipeline, ConstructionMethod, EmbeddingConfig, GnnTrainConfig,
    GraphConstructor, PipelineConfig, SamplerKind, TrackBuildResult, TrainedPipeline,
};
use trkx_detector::{
    edge_features, simulate_event, vertex_features, DetectorGeometry, Event, EventGraph, GunConfig,
};
use trkx_nn::{Bindings, Eager, Exec};
use trkx_sampling::ShadowConfig;
use trkx_serve::{
    tracks_from_components, ModelRegistry, Response, ServeConfig, ServerCore, MAX_JOBS_PER_WAKE,
};
use trkx_tensor::{EdgePlans, Matrix, Tape};

fn tiny_pipeline() -> (TrainedPipeline, Vec<Event>) {
    let geometry = DetectorGeometry::default();
    let gun = GunConfig::default();
    let mut rng = StdRng::seed_from_u64(42);
    let events: Vec<_> = (0..5)
        .map(|_| simulate_event(&geometry, &gun, 15, 0.1, &mut rng))
        .collect();
    let (train, val) = events.split_at(4);
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
    let (pipeline, _) = train_pipeline(config, train, val);
    // Fresh request events, disjoint from training.
    let requests: Vec<Event> = (0..6)
        .map(|_| simulate_event(&geometry, &gun, 15, 0.1, &mut rng))
        .collect();
    (pipeline, requests)
}

/// An FNV-1a hash, fed bytes in order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Each float's bit pattern, little-endian: a change in any bit of
    /// any value changes the hash.
    fn feed_floats(&mut self, xs: &[f32]) {
        for x in xs {
            self.feed(&x.to_bits().to_le_bytes());
        }
    }
}

/// FNV-1a over each result's `edges_kept` (as a little-endian `u64`)
/// followed by its `component_of_hit` (little-endian `u32`s).
fn fnv1a(results: &[TrackBuildResult]) -> u64 {
    let mut h = Fnv::new();
    for r in results {
        h.feed(&(r.edges_kept as u64).to_le_bytes());
        for &c in &r.component_of_hit {
            h.feed(&c.to_le_bytes());
        }
    }
    h.0
}

/// Hashes of the learned stages' float outputs over a run of events:
/// the embedding rows, the filter logits and the GNN logits.
struct StageHashes {
    embedding: Fnv,
    filter: Fnv,
    gnn: Fnv,
}

impl StageHashes {
    fn new() -> Self {
        Self {
            embedding: Fnv::new(),
            filter: Fnv::new(),
            gnn: Fnv::new(),
        }
    }

    fn values(&self) -> [u64; 3] {
        [self.embedding.0, self.filter.0, self.gnn.0]
    }
}

/// `TrainedPipeline::reconstruct_pooled`'s five stages, step for step
/// through the public stage APIs on the eager executor over `tape`'s
/// pool, feeding each learned stage's output floats to `hashes`.
/// Returns the tracks, which the caller checks against the library
/// path's: a replay that drifted from it would fail there.
fn replay(
    p: &TrainedPipeline,
    tape: &mut Tape,
    ctor: &mut GraphConstructor,
    event: &Event,
    hashes: &mut StageHashes,
) -> TrackBuildResult {
    let (nf, ef) = (p.config.vertex_features, p.config.edge_features);
    let x = Matrix::from_vec(event.num_hits(), nf, vertex_features(event, nf));
    let mut ex = Eager::new(tape);
    let emb = p.embedding.forward(&mut ex, &x);
    hashes.embedding.feed_floats(ex.value(emb).data());
    let method = ConstructionMethod::FixedRadius { radius: p.radius };
    let cand = ctor.construct(event, ex.value(emb), method);
    drop(ex);
    let y = Matrix::from_vec(
        cand.num_edges(),
        ef,
        edge_features(event, &cand.src, &cand.dst, ef),
    );
    let (src, dst) = (Arc::new(cand.src), Arc::new(cand.dst));
    let mut ex = Eager::new(tape);
    let logits = p
        .filter
        .forward(&mut ex, &x, &y, Arc::clone(&src), Arc::clone(&dst));
    let logits = ex.value(logits).data();
    hashes.filter.feed_floats(logits);
    let cut = p.filter.logit_cut();
    let kept: Vec<u32> = (0..logits.len() as u32)
        .filter(|&i| logits[i as usize] > cut)
        .collect();
    drop(ex);
    let pick = |v: &[u32]| -> Vec<u32> { kept.iter().map(|&i| v[i as usize]).collect() };
    let (src, dst) = (Arc::new(pick(&src)), Arc::new(pick(&dst)));
    let y = y.gather_rows(&kept);
    let plans = Arc::new(EdgePlans::new(
        Arc::clone(&src),
        Arc::clone(&dst),
        event.num_hits(),
    ));
    let mut ex = Eager::new(tape);
    let logits = p.gnn.run(&mut ex, &x, &y, &plans);
    let logits = ex.value(logits).data().to_vec();
    drop(ex);
    hashes.gnn.feed_floats(&logits);
    let graph = EventGraph {
        num_nodes: event.num_hits(),
        src: src.to_vec(),
        dst: dst.to_vec(),
        labels: Vec::new(),
        x: Vec::new(),
        num_vertex_features: nf,
        y: Vec::new(),
        num_edge_features: ef,
        event: event.clone(),
    };
    build_tracks(&graph, &logits, p.config.track_threshold, p.config.min_hits)
}

#[test]
fn reconstruct_output_matches_its_golden_hash() {
    // Pins these tracks across commits: a change to any stage's
    // arithmetic, to training or to the event generator shows up here,
    // and only a deliberate one may update the constant.
    let (pipeline, requests) = tiny_pipeline();
    let results: Vec<_> = requests.iter().map(|e| pipeline.reconstruct(e)).collect();
    assert!(results.iter().all(|r| r.edges_kept > 0), "nothing kept");
    assert_eq!(fnv1a(&results), 0x41f2_7516_c95c_09e6);

    // The floats under those tracks, bit for bit: the track hash sees a
    // float only where it moves an edge across a threshold. Once with
    // fresh pools per event (the single-event path), once with one set
    // of pools across all of them (the batch path), each replay's tracks
    // checked against the library path's.
    const STAGES: [u64; 3] = [
        0x9ad8_7bbd_cdf6_12b1,
        0x6762_af2b_5fda_e2fd,
        0xe102_773b_ee2d_081b,
    ];
    let mut single = StageHashes::new();
    for (e, want) in requests.iter().zip(&results) {
        let (mut tape, mut ctor) = (Tape::new(), GraphConstructor::default());
        let got = replay(&pipeline, &mut tape, &mut ctor, e, &mut single);
        assert_eq!(got.component_of_hit, want.component_of_hit);
        assert_eq!(got.edges_kept, want.edges_kept);
    }
    let (mut tape, mut bind, mut ctor) =
        (Tape::new(), Bindings::new(), GraphConstructor::default());
    let all: Vec<&Event> = requests.iter().collect();
    let (batch, _) = pipeline.reconstruct_batch_pooled(&mut tape, &mut bind, &mut ctor, &all);
    let mut pooled = StageHashes::new();
    let replayed: Vec<_> = requests
        .iter()
        .map(|e| replay(&pipeline, &mut tape, &mut ctor, e, &mut pooled))
        .collect();
    assert_eq!(fnv1a(&replayed), fnv1a(&batch));
    println!("stage hashes: {:#018x?}", single.values());
    assert_eq!(single.values(), STAGES, "single-event path");
    assert_eq!(pooled.values(), STAGES, "batch path");
}

#[test]
fn pooled_reconstruct_matches_fresh_pools() {
    let (pipeline, requests) = tiny_pipeline();
    let fresh: Vec<_> = requests.iter().map(|e| pipeline.reconstruct(e)).collect();
    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    let mut ctor = pipeline.new_constructor();
    // Same pools reused across every event: results must not drift.
    for (e, fresh) in requests.iter().zip(&fresh) {
        let (pooled, _) = pipeline.reconstruct_pooled(&mut tape, &mut bind, &mut ctor, e);
        assert_eq!(pooled.component_of_hit, fresh.component_of_hit);
        assert_eq!(pooled.edges_kept, fresh.edges_kept);
    }
    let all: Vec<&Event> = requests.iter().collect();
    let (looped, _) = pipeline.reconstruct_batch_pooled(&mut tape, &mut bind, &mut ctor, &all);
    assert_eq!(fnv1a(&looped), fnv1a(&fresh));
}

/// Collect one served response per request, in request-id order.
fn serve_burst(core: &ServerCore, requests: &[Event]) -> Vec<Response> {
    let (tx, rx) = channel();
    for (i, e) in requests.iter().enumerate() {
        core.submit_event(i as u64, e.clone(), tx.clone());
    }
    let mut responses: Vec<Response> = (0..requests.len())
        .map(|_| rx.recv().expect("response"))
        .collect();
    responses.sort_by_key(|r| r.id);
    responses
}

#[test]
fn responses_are_identical_at_any_worker_count() {
    let (pipeline, requests) = tiny_pipeline();
    // Reference payloads straight from the library path.
    let min_hits = pipeline.config.min_hits;
    let expected: Vec<_> = requests
        .iter()
        .map(|e| {
            let r = pipeline.reconstruct(e);
            (
                r.edges_kept,
                tracks_from_components(&r.component_of_hit, min_hits),
            )
        })
        .collect();

    let registry = Arc::new(ModelRegistry::from_pipeline(pipeline));
    for workers in [1usize, 2, 4] {
        let core = ServerCore::start(
            ServeConfig {
                workers,
                max_queue: 64,
                max_event_hits: 1_000_000,
            },
            Arc::clone(&registry),
        );
        let responses = serve_burst(&core, &requests);
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.status, "ok", "workers={workers}");
            assert_eq!(resp.id, Some(i as u64));
            assert_eq!(resp.version, Some(1));
            assert_eq!(resp.num_hits, Some(requests[i].num_hits()));
            assert_eq!(
                resp.edges_kept,
                Some(expected[i].0),
                "edges diverged: workers={workers} event={i}"
            );
            assert_eq!(
                resp.tracks.as_ref(),
                Some(&expected[i].1),
                "tracks diverged: workers={workers} event={i}"
            );
            let t = resp.timings_us.expect("ok responses carry timings");
            assert!((1..=MAX_JOBS_PER_WAKE).contains(&t.batch_events));
            // The request's own stages fit between leaving the queue and
            // its response.
            let stages = t.embed_us + t.construct_us + t.filter_us + t.gnn_us + t.tracks_us;
            assert!(t.queue_us + stages <= t.total_us, "{t:?}");
        }
        core.shutdown();
    }
}

#[test]
fn oversized_and_overflow_requests_shed_explicitly() {
    let (pipeline, requests) = tiny_pipeline();
    let registry = Arc::new(ModelRegistry::from_pipeline(pipeline));
    let hits = requests[0].num_hits();
    let core = ServerCore::start(
        ServeConfig {
            workers: 1,
            max_queue: 2,
            // Budget below every request: everything sheds as too-large.
            max_event_hits: hits.saturating_sub(1),
        },
        Arc::clone(&registry),
    );
    let (tx, rx) = channel();
    core.submit_event(7, requests[0].clone(), tx.clone());
    let resp = rx.recv().unwrap();
    assert_eq!(resp.status, "shed");
    assert_eq!(resp.id, Some(7));
    assert_eq!(resp.num_hits, Some(hits));
    let reason = resp.reason.expect("shed responses carry a reason");
    assert!(reason.contains("event_too_large"), "{reason}");
    assert!(resp.tracks.is_none());
    let snap = core.stats.snapshot();
    assert_eq!(snap.shed_too_large, 1);
    assert_eq!(snap.completed, 0);
    core.shutdown();
}
