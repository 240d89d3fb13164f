//! The serving contract: micro-batched inference is **bit-identical** to
//! per-event [`TrainedPipeline::reconstruct`], at any batch size, and the
//! served responses are independent of worker count and of how the queue
//! happened to group requests into batches.
//!
//! This holds because every kernel in the substrate is row/node-local
//! and bit-identical at any tile/block/thread geometry (DESIGN.md
//! §4d/§4e): the disjoint-union forward runs the exact same op sequence
//! per event as the per-event path.

use rand::{rngs::StdRng, SeedableRng};
use std::sync::mpsc::channel;
use std::sync::Arc;
use trkx_core::{
    train_pipeline, EmbeddingConfig, GnnTrainConfig, PipelineConfig, SamplerKind, TrainedPipeline,
};
use trkx_detector::{simulate_event, DetectorGeometry, Event, GunConfig};
use trkx_nn::Bindings;
use trkx_sampling::ShadowConfig;
use trkx_serve::{tracks_from_components, ModelRegistry, Response, ServeConfig, ServerCore};
use trkx_tensor::Tape;

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

#[test]
fn batched_reconstruction_is_bit_identical_to_per_event() {
    let (pipeline, requests) = tiny_pipeline();
    let singles: Vec<_> = requests.iter().map(|e| pipeline.reconstruct(e)).collect();

    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    let mut ctor = pipeline.new_constructor();
    for batch_size in [1usize, 2, 3, 5, 6] {
        for chunk in requests.chunks(batch_size) {
            let refs: Vec<&Event> = chunk.iter().collect();
            let base = requests
                .iter()
                .position(|e| std::ptr::eq(e, chunk.first().unwrap()))
                .unwrap();
            let (batched, _) =
                pipeline.reconstruct_batch_pooled(&mut tape, &mut bind, &mut ctor, &refs);
            assert_eq!(batched.len(), chunk.len());
            for (i, b) in batched.iter().enumerate() {
                let s = &singles[base + i];
                // Bitwise contract: identical components, edge counts,
                // and track metrics — not merely close.
                assert_eq!(
                    b.component_of_hit,
                    s.component_of_hit,
                    "components diverged at batch size {batch_size}, event {}",
                    base + i
                );
                assert_eq!(b.edges_kept, s.edges_kept);
                assert_eq!(b.metrics.num_true_tracks, s.metrics.num_true_tracks);
                assert_eq!(b.metrics.num_reco_tracks, s.metrics.num_reco_tracks);
                assert_eq!(b.metrics.num_matched, s.metrics.num_matched);
            }
        }
    }
}

#[test]
fn pooled_reconstruct_matches_fresh_pools() {
    let (pipeline, requests) = tiny_pipeline();
    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    let mut ctor = pipeline.new_constructor();
    // Same pools reused across every event: results must not drift.
    for e in &requests {
        let fresh = pipeline.reconstruct(e);
        let (mut pooled, _) =
            pipeline.reconstruct_batch_pooled(&mut tape, &mut bind, &mut ctor, &[e]);
        let pooled = pooled.pop().expect("one result per event");
        assert_eq!(pooled.component_of_hit, fresh.component_of_hit);
        assert_eq!(pooled.edges_kept, fresh.edges_kept);
    }
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
fn responses_are_identical_at_any_worker_count_and_batch_budget() {
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
    for (workers, max_batch_events) in [(1usize, 1usize), (1, 4), (2, 2), (4, 8)] {
        let core = ServerCore::start(
            ServeConfig {
                workers,
                max_queue: 64,
                max_event_hits: 1_000_000,
                max_batch_events,
                max_batch_hits: 1_000_000,
            },
            Arc::clone(&registry),
        );
        let responses = serve_burst(&core, &requests);
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(
                resp.status, "ok",
                "workers={workers} batch={max_batch_events}"
            );
            assert_eq!(resp.id, Some(i as u64));
            assert_eq!(resp.version, Some(1));
            assert_eq!(resp.num_hits, Some(requests[i].num_hits()));
            assert_eq!(
                resp.edges_kept,
                Some(expected[i].0),
                "edges diverged: workers={workers} batch={max_batch_events} event={i}"
            );
            assert_eq!(
                resp.tracks.as_ref(),
                Some(&expected[i].1),
                "tracks diverged: workers={workers} batch={max_batch_events} event={i}"
            );
            let t = resp.timings_us.expect("ok responses carry timings");
            assert!(t.batch_events >= 1 && t.batch_events <= max_batch_events);
            assert!(t.total_us >= t.queue_us);
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
            max_batch_events: 4,
            max_batch_hits: 1_000_000,
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
