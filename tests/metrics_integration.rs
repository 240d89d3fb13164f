//! Metrics integration: a trained GNN's scores must carry real signal
//! (AUC well above chance), threshold sweeps must trace the
//! precision/recall trade-off, and track-level pT efficiency must favour
//! high-pT particles (they cross more layers).

use trkx::ddp::DdpConfig;
use trkx::detector::DatasetConfig;
use trkx::nn::Bindings;
use trkx::pipeline::{
    best_f1_threshold, build_tracks, infer_logits_with, prepare_graphs, roc_auc, threshold_sweep,
    train, GnnTrainConfig, SamplerKind, TrainSpec,
};
use trkx::sampling::ShadowConfig;
use trkx::tensor::Tape;

#[test]
fn trained_gnn_scores_have_high_auc() {
    let data = DatasetConfig::ex3_like(0.02).generate(4, 88);
    let prepared = prepare_graphs(&data);
    let (train_set, val) = prepared.split_at(3);
    let cfg = GnnTrainConfig {
        hidden: 24,
        gnn_layers: 3,
        epochs: 7,
        batch_size: 64,
        shadow: ShadowConfig {
            depth: 2,
            fanout: 4,
        },
        seed: 5,
        ..Default::default()
    };
    let spec = TrainSpec::ddp(&cfg, SamplerKind::Bulk { k: 4 }, DdpConfig::single());
    let r = train(&spec, train_set, val).unwrap();
    let logits = infer_logits_with(&mut Tape::new(), &mut Bindings::new(), &r.model, &val[0]);
    let auc = roc_auc(&logits, &val[0].labels);
    assert!(auc > 0.75, "trained AUC only {auc}");

    // Untrained model: near chance.
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(123);
    let fresh = trkx::ignn::InteractionGnn::new(cfg.ignn_config(6, 2), &mut rng);
    let fresh_logits = infer_logits_with(&mut Tape::new(), &mut Bindings::new(), &fresh, &val[0]);
    let fresh_auc = roc_auc(&fresh_logits, &val[0].labels);
    assert!(
        (0.2..0.8).contains(&fresh_auc),
        "untrained AUC suspiciously good/bad: {fresh_auc}"
    );
    assert!(auc > fresh_auc, "training did not improve ranking");

    // The sweep's best threshold beats the default 0.5 on F1 (or ties).
    let best = best_f1_threshold(&logits, &val[0].labels, 19);
    let sweep = threshold_sweep(&logits, &val[0].labels, 19);
    let mid = &sweep[9]; // threshold 0.5
    assert!(best.f1 >= mid.f1 - 1e-9);

    // Tracks built at the best threshold do at least as well on
    // efficiency*purity as an extreme threshold.
    let tracks_best = build_tracks(&data[3], &logits, best.threshold, 3);
    let tracks_tight = build_tracks(&data[3], &logits, 0.99, 3);
    let score = |m: &trkx::pipeline::TrackMetrics| m.efficiency() * m.purity();
    assert!(
        score(&tracks_best.metrics) >= score(&tracks_tight.metrics) * 0.8,
        "best-threshold tracks much worse than tight-threshold tracks"
    );
}

#[test]
fn pt_binned_efficiency_reflects_track_length() {
    // Oracle track building (perfect edge labels): low-pT particles curl
    // up before crossing 3 layers and cannot be reconstructed, so the
    // lowest pT bin must have lower efficiency than the highest.
    use trkx::pipeline::efficiency_vs_pt;
    let data = DatasetConfig::ex3_like(0.04).generate(1, 17);
    let g = &data[0];
    let r = trkx::pipeline::build_tracks_oracle(g, 3);

    // Per-particle matched flags via double-majority against components.
    let particle_of_hit: Vec<Option<u32>> = g.event.hits.iter().map(|h| h.particle).collect();
    use std::collections::HashMap;
    let mut particle_hits: HashMap<u32, usize> = HashMap::new();
    for p in particle_of_hit.iter().flatten() {
        *particle_hits.entry(*p).or_insert(0) += 1;
    }
    let mut comp_hits: HashMap<u32, usize> = HashMap::new();
    let mut overlap: HashMap<(u32, u32), usize> = HashMap::new();
    for (c, p) in r.component_of_hit.iter().zip(&particle_of_hit) {
        *comp_hits.entry(*c).or_insert(0) += 1;
        if let Some(p) = p {
            *overlap.entry((*c, *p)).or_insert(0) += 1;
        }
    }
    let matched_set: std::collections::HashSet<u32> = overlap
        .iter()
        .filter(|(&(c, p), &o)| {
            comp_hits[&c] >= 3
                && particle_hits[&p] >= 3
                && 2 * o > comp_hits[&c]
                && 2 * o > particle_hits[&p]
        })
        .map(|(&(_, p), _)| p)
        .collect();

    // pT per particle is not stored on hits; reconstruct a proxy from
    // track reach: max radius crossed correlates with pT. Use hit count
    // as the proxy's stand-in: bin by number of recorded hits instead.
    let mut pts = Vec::new();
    let mut matched = Vec::new();
    for (&p, &nh) in &particle_hits {
        pts.push(nh as f32); // "pT proxy": layers reached
        matched.push(matched_set.contains(&p));
    }
    let bins = efficiency_vs_pt(&pts, &matched, &[0.0, 3.0, 6.0, 11.0]);
    // Bin 0: fewer than 3 hits -> cannot match (efficiency 0).
    assert_eq!(bins[0].2, 0.0, "short tracks cannot be matched: {bins:?}");
    // Longest tracks should reconstruct at high efficiency with oracle
    // labels.
    assert!(bins[2].2 > 0.8, "long-track efficiency {bins:?}");
}
