//! Stage 5: track building. Remove edges the GNN classified as fake and
//! label each connected component of the survivors as one candidate
//! particle track (paper §II-A).

use crate::metrics::{match_tracks, TrackMetrics};
use trkx_detector::{EventGraph, Hit};
use trkx_graph::connected_components;

/// Result of track building on one event graph.
#[derive(Debug, Clone)]
pub struct TrackBuildResult {
    /// Component label per hit.
    pub component_of_hit: Vec<u32>,
    /// Number of edges kept after thresholding.
    pub edges_kept: usize,
    /// Track matching metrics against the event's truth.
    pub metrics: TrackMetrics,
}

/// Threshold edge logits, keep passing edges, run connected components,
/// and match against truth particles.
///
/// `threshold` is in probability space (0.5 keeps `sigmoid(logit) > 0.5`);
/// `min_hits` is the minimum track length for matching (3 typical).
pub fn build_tracks(
    graph: &EventGraph,
    edge_logits: &[f32],
    threshold: f32,
    min_hits: usize,
) -> TrackBuildResult {
    assert_eq!(graph.num_nodes, graph.event.num_hits(), "one node per hit");
    build_tracks_over(
        &graph.event.hits,
        &graph.src,
        &graph.dst,
        edge_logits,
        threshold,
        min_hits,
    )
}

/// [`build_tracks`] over an event's hits and an edge list directly (one
/// node per hit), for callers that hold no [`EventGraph`] — the serving
/// path reads the pruned edges and the request's hits where they lie.
pub(crate) fn build_tracks_over(
    hits: &[Hit],
    src: &[u32],
    dst: &[u32],
    edge_logits: &[f32],
    threshold: f32,
    min_hits: usize,
) -> TrackBuildResult {
    assert_eq!(edge_logits.len(), src.len(), "one logit per edge required");
    assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
    let logit_cut = {
        let p = threshold.clamp(1e-6, 1.0 - 1e-6);
        (p / (1.0 - p)).ln()
    };
    let kept: Vec<(u32, u32)> = src
        .iter()
        .zip(dst)
        .zip(edge_logits)
        .filter(|(_, &logit)| logit > logit_cut)
        .map(|((&s, &d), _)| (s, d))
        .collect();
    let component_of_hit = connected_components(hits.len(), &kept);
    let particle_of_hit: Vec<Option<u32>> = hits.iter().map(|h| h.particle).collect();
    let metrics = match_tracks(&component_of_hit, &particle_of_hit, min_hits);
    TrackBuildResult {
        component_of_hit,
        edges_kept: kept.len(),
        metrics,
    }
}

/// Track building with oracle labels instead of logits — the upper bound
/// the GNN is chasing, useful for calibrating expectations in tests and
/// the experiment harnesses.
pub fn build_tracks_oracle(graph: &EventGraph, min_hits: usize) -> TrackBuildResult {
    // Labels are 0/1; map to ±10 logits.
    let logits: Vec<f32> = graph
        .labels
        .iter()
        .map(|&l| if l > 0.5 { 10.0 } else { -10.0 })
        .collect();
    build_tracks(graph, &logits, 0.5, min_hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trkx_detector::DatasetConfig;

    #[test]
    fn oracle_labels_give_high_efficiency() {
        let cfg = DatasetConfig::ex3_like(0.03);
        let graphs = cfg.generate(2, 11);
        for g in &graphs {
            let r = build_tracks_oracle(g, 3);
            assert!(
                r.metrics.efficiency() > 0.7,
                "oracle efficiency {} too low (true {} reco {} matched {})",
                r.metrics.efficiency(),
                r.metrics.num_true_tracks,
                r.metrics.num_reco_tracks,
                r.metrics.num_matched
            );
        }
    }

    #[test]
    fn keeping_nothing_reconstructs_nothing() {
        let cfg = DatasetConfig::ex3_like(0.02);
        let g = &cfg.generate(1, 12)[0];
        let logits = vec![-10.0f32; g.num_edges()];
        let r = build_tracks(g, &logits, 0.5, 3);
        assert_eq!(r.edges_kept, 0);
        assert_eq!(r.metrics.num_reco_tracks, 0);
    }

    #[test]
    fn keeping_everything_merges_tracks() {
        // With every candidate edge kept, crossing fake edges merge
        // components, so purity drops well below the oracle's.
        let cfg = DatasetConfig::ex3_like(0.03);
        let g = &cfg.generate(1, 13)[0];
        let all = vec![10.0f32; g.num_edges()];
        let r_all = build_tracks(g, &all, 0.5, 3);
        let r_oracle = build_tracks_oracle(g, 3);
        assert!(r_all.metrics.efficiency() <= r_oracle.metrics.efficiency() + 1e-9);
        assert!(r_all.metrics.num_reco_tracks < r_oracle.metrics.num_reco_tracks);
    }

    #[test]
    #[should_panic(expected = "one logit per edge")]
    fn logit_length_must_match() {
        let cfg = DatasetConfig::ex3_like(0.02);
        let g = &cfg.generate(1, 14)[0];
        let _ = build_tracks(g, &[0.0], 0.5, 3);
    }
}
