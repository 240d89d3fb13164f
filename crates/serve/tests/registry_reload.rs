//! Registry lifecycle: load a saved artifact, hot-swap to a new version,
//! and reject corrupted or shape-mismatched artifacts *without*
//! disturbing the version that is already serving; a model that panics
//! on every request is answered per request and replaced by a reload.

use rand::{rngs::StdRng, SeedableRng};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;
use trkx_core::{
    train_pipeline, EmbeddingConfig, GnnTrainConfig, PipelineConfig, SamplerKind, TrainedPipeline,
};
use trkx_detector::{simulate_event, DetectorGeometry, Event, GunConfig};
use trkx_sampling::ShadowConfig;
use trkx_serve::{ModelRegistry, ServeConfig, ServerCore};

fn tiny_pipeline() -> (TrainedPipeline, Event) {
    let geometry = DetectorGeometry::default();
    let gun = GunConfig::default();
    let mut rng = StdRng::seed_from_u64(9);
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
    let probe = simulate_event(&geometry, &gun, 15, 0.1, &mut rng);
    (pipeline, probe)
}

#[test]
fn reload_swaps_versions_and_failures_leave_the_old_model_serving() {
    let dir = std::env::temp_dir().join(format!("trkx_registry_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (pipeline, probe) = tiny_pipeline();
    let v1_path = dir.join("v1.json");
    pipeline.save_json(&v1_path).unwrap();

    let registry = ModelRegistry::load(&v1_path).expect("initial load");
    assert_eq!(registry.version(), 1);
    let baseline = registry.active().pipeline.reconstruct(&probe);

    // A v2 artifact with a perturbed radius: loads, validates, swaps in.
    let mut v2 = TrainedPipeline::load_json(&v1_path).unwrap();
    v2.radius *= 1.05;
    let v2_path = dir.join("v2.json");
    v2.save_json(&v2_path).unwrap();
    let version = registry.reload(&v2_path).expect("valid reload");
    assert_eq!(version, 2);
    assert_eq!(registry.version(), 2);
    assert!((registry.active().pipeline.radius - v2.radius).abs() < 1e-9);

    // A corrupt artifact must be rejected and leave v2 serving.
    let bad_path = dir.join("bad.json");
    std::fs::write(&bad_path, "{not json").unwrap();
    assert!(registry.reload(&bad_path).is_err());
    assert_eq!(registry.version(), 2, "failed reload must not swap");

    // A metadata-mismatched artifact: claim a different embedding output
    // dim than the checkpoint header records. The pre-flight validation
    // must reject it before any model is constructed.
    let json = std::fs::read_to_string(&v1_path).unwrap();
    let wrong_dim = format!("\"dim\":{}", v2.config.embedding.dim + 3);
    let tampered = json.replacen(
        &format!("\"dim\":{}", v2.config.embedding.dim),
        &wrong_dim,
        1,
    );
    assert_ne!(json, tampered, "tamper target not found in artifact");
    let mismatch_path = dir.join("mismatch.json");
    std::fs::write(&mismatch_path, tampered).unwrap();
    let err = registry.reload(&mismatch_path).expect_err("must reject");
    let msg = err.to_string();
    assert!(
        msg.contains("metadata mismatch") || msg.contains("shape"),
        "unhelpful error: {msg}"
    );
    assert_eq!(registry.version(), 2);

    // Still serving: same answers as before the failed reloads (v2 only
    // changed the graph radius, the learned stages are identical).
    let after = registry.active().pipeline.reconstruct(&probe);
    assert_eq!(
        after.component_of_hit.len(),
        baseline.component_of_hit.len()
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn legacy_headerless_artifacts_still_load() {
    let dir = std::env::temp_dir().join(format!("trkx_legacy_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (pipeline, probe) = tiny_pipeline();
    let path = dir.join("model.json");
    pipeline.save_json(&path).unwrap();

    // Strip the metadata headers, as a pre-header artifact would look.
    let json = std::fs::read_to_string(&path).unwrap();
    let headerless: String = {
        // `"meta":{...},` fields are flat objects — remove each one.
        let mut out = json;
        while let Some(start) = out.find("\"meta\":{") {
            let rest = &out[start..];
            let end = rest.find('}').expect("meta object closes") + 1;
            let trailing_comma = rest[end..].starts_with(',');
            out.replace_range(start..start + end + usize::from(trailing_comma), "");
        }
        out
    };
    assert!(!headerless.contains("\"meta\""));
    std::fs::write(&path, headerless).unwrap();

    let registry = ModelRegistry::load(&path).expect("legacy artifact loads");
    let r = registry.active().pipeline.reconstruct(&probe);
    assert_eq!(r.component_of_hit.len(), probe.num_hits());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_panicking_request_is_answered_and_the_worker_serves_on() {
    let dir = std::env::temp_dir().join(format!("trkx_panic_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (mut pipeline, probe) = tiny_pipeline();
    let good_path = dir.join("good.json");
    pipeline.save_json(&good_path).unwrap();
    // One more feature column than the trained embedding takes: every
    // request trips a shape assert inside the first stage.
    pipeline.config.vertex_features += 1;
    let registry = Arc::new(ModelRegistry::from_pipeline(pipeline));
    let core = ServerCore::start(
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
        Arc::clone(&registry),
    );
    let (tx, rx) = channel();
    let answer = || rx.recv_timeout(Duration::from_secs(60)).expect("answered");
    for id in 0..3 {
        core.submit_event(id, probe.clone(), tx.clone());
        let resp = answer();
        assert_eq!((resp.id, resp.status.as_str()), (Some(id), "error"));
        let error = resp.error.expect("error responses carry a message");
        assert!(error.contains("panicked"), "{error}");
    }
    assert_eq!(core.stats.snapshot().errors, 3);

    registry.reload(&good_path).expect("valid reload");
    core.submit_event(3, probe.clone(), tx.clone());
    let resp = answer();
    assert_eq!((resp.id, resp.status.as_str()), (Some(3), "ok"), "{resp:?}");
    assert_eq!(resp.version, Some(2));
    let fresh = registry.active().pipeline.reconstruct(&probe);
    assert_eq!(resp.edges_kept, Some(fresh.edges_kept));
    assert_eq!(core.stats.snapshot().completed, 1);
    core.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
