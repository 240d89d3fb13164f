//! Integration tests for persistence: model checkpoints survive a full
//! save/load cycle across crate boundaries, and dataset caching returns
//! identical graphs.

use rand::{rngs::StdRng, SeedableRng};
use trkx::detector::{generate_cached, DatasetConfig};
use trkx::ignn::InteractionGnn;
use trkx::pipeline::{
    infer_logits, prepare_graphs, train, Checkpoint, GnnTrainConfig, SamplerKind, TrainSpec,
};

#[test]
fn trained_model_checkpoint_roundtrip_through_disk() {
    let graphs = prepare_graphs(&DatasetConfig::ex3_like(0.01).generate(2, 77));
    let cfg = GnnTrainConfig {
        hidden: 12,
        gnn_layers: 2,
        epochs: 2,
        batch_size: 32,
        ..Default::default()
    };

    // Train briefly so weights are non-initial.
    let spec = TrainSpec::ddp(
        &cfg,
        SamplerKind::Bulk { k: 2 },
        trkx::ddp::DdpConfig::single(),
    );
    let result = train(&spec, &graphs[..1], &graphs[1..]).unwrap();
    let reference = infer_logits(&result.model, &graphs[0]);

    let path = std::env::temp_dir().join(format!("trkx_it_ckpt_{}.json", std::process::id()));
    Checkpoint::from_params(&result.model.params())
        .save_json(&path)
        .unwrap();

    // Fresh model, different seed: restore and compare predictions.
    let mut rng = StdRng::seed_from_u64(999);
    let mut restored = InteractionGnn::new(cfg.ignn_config(6, 2), &mut rng);
    let loaded = Checkpoint::load_json(&path).unwrap();
    let mut params = restored.params_mut();
    loaded.apply_to(&mut params).unwrap();
    assert_eq!(infer_logits(&restored, &graphs[0]), reference);
    let _ = std::fs::remove_file(path);
}

#[test]
fn dataset_cache_returns_identical_graphs() {
    let cfg = DatasetConfig::ex3_like(0.01);
    let path = std::env::temp_dir().join(format!("trkx_it_ds_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let generated = generate_cached(&path, &cfg, 2, 11).unwrap();
    let cached = generate_cached(&path, &cfg, 2, 11).unwrap();
    assert_eq!(generated.len(), cached.len());
    for (a, b) in generated.iter().zip(&cached) {
        assert_eq!(a.num_nodes, b.num_nodes);
        assert_eq!(a.src, b.src);
        assert_eq!(a.dst, b.dst);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.x, b.x);
        assert_eq!(a.y, b.y);
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn trained_pipeline_bundle_roundtrip() {
    use trkx::detector::{simulate_event, DetectorGeometry, GunConfig};
    use trkx::pipeline::{train_pipeline, EmbeddingConfig, PipelineConfig, TrainedPipeline};
    use trkx::sampling::ShadowConfig;

    let geometry = DetectorGeometry::default();
    let gun = GunConfig::default();
    let mut rng = StdRng::seed_from_u64(55);
    let events: Vec<_> = (0..4)
        .map(|_| simulate_event(&geometry, &gun, 15, 0.1, &mut rng))
        .collect();
    let config = PipelineConfig {
        embedding: EmbeddingConfig {
            epochs: 4,
            ..Default::default()
        },
        gnn: GnnTrainConfig {
            hidden: 12,
            gnn_layers: 2,
            epochs: 2,
            batch_size: 32,
            shadow: ShadowConfig {
                depth: 2,
                fanout: 3,
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let (pipeline, _) = train_pipeline(config, &events[..3], &events[3..]);

    let test_event = simulate_event(&geometry, &gun, 15, 0.1, &mut rng);
    let before = pipeline.reconstruct(&test_event);

    let path = std::env::temp_dir().join(format!("trkx_it_pipe_{}.json", std::process::id()));
    pipeline.save_json(&path).unwrap();
    let restored = TrainedPipeline::load_json(&path).unwrap();
    let after = restored.reconstruct(&test_event);
    assert_eq!(before.component_of_hit, after.component_of_hit);
    assert_eq!(before.edges_kept, after.edges_kept);
    assert_eq!(before.metrics, after.metrics);
    assert_eq!(restored.radius, pipeline.radius);

    // A bundle written before PR 14 carries the construction-backend
    // field that no longer exists: it must load and reconstruct alike.
    let json = std::fs::read_to_string(&path).unwrap();
    let reload = |json: String| {
        std::fs::write(&path, json).unwrap();
        TrainedPipeline::load_json(&path)
    };
    let old = json.replacen(
        "\"config\":{",
        "\"config\":{\"construct_backend\":\"Kd\",",
        1,
    );
    assert_ne!(old, json, "splice point not found");
    let from_old = reload(old).unwrap().reconstruct(&test_event);
    assert_eq!(from_old.component_of_hit, after.component_of_hit);
    assert_eq!(from_old.edges_kept, after.edges_kept);
    assert_eq!(from_old.metrics, after.metrics);

    // Every bundle written before the backward-overlapped all-reduce was
    // removed carries `"comm_overlap": false` in its DDP config: the key
    // is ignored. One naming the removed `Bucketed` strategy is an error.
    let ddp_key = "\"ddp\":{";
    let old = json.replacen(ddp_key, "\"ddp\":{\"comm_overlap\":false,", 1);
    assert_ne!(old, json, "splice point not found");
    let from_old = reload(old).unwrap().reconstruct(&test_event);
    assert_eq!(from_old.component_of_hit, after.component_of_hit);
    assert_eq!(from_old.edges_kept, after.edges_kept);
    assert_eq!(from_old.metrics, after.metrics);
    let bucketed = json.replacen(
        "\"strategy\":\"Coalesced\"",
        "\"strategy\":{\"Bucketed\":{\"bucket_bytes\":4096}}",
        1,
    );
    assert_ne!(bucketed, json, "splice point not found");
    assert!(reload(bucketed).is_err(), "a Bucketed strategy loaded");

    // A radius that is not finite and positive is rejected at load (a
    // negative one would otherwise serve a wrong subset of the edges).
    let key = "},\"radius\":";
    let value = json.find(key).expect("splice point not found") + key.len();
    let end = value + json[value..].find(',').unwrap();
    for bad in ["-0.5", "0", "1e999", "null"] {
        let loaded = reload(format!("{}{bad}{}", &json[..value], &json[end..]));
        assert!(loaded.is_err(), "radius {bad} loaded");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn checkpoint_rejects_mismatched_architecture() {
    let cfg_small = GnnTrainConfig {
        hidden: 8,
        gnn_layers: 2,
        ..Default::default()
    };
    let cfg_large = GnnTrainConfig {
        hidden: 16,
        gnn_layers: 2,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(1);
    let small = InteractionGnn::new(cfg_small.ignn_config(6, 2), &mut rng);
    let mut large = InteractionGnn::new(cfg_large.ignn_config(6, 2), &mut rng);
    let ckpt = Checkpoint::from_params(&small.params());
    let mut params = large.params_mut();
    assert!(ckpt.apply_to(&mut params).is_err());
}
