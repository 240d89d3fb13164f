//! Cross-stage invariants: what each pipeline stage hands the next must
//! stay consistent with the event's truth.

use rand::{rngs::StdRng, SeedableRng};
use trkx_core::{
    prepare_graphs, ConstructionMethod, EmbeddingConfig, EmbeddingStage, FilterConfig, FilterStage,
    GraphConstructor, PreparedGraph,
};
use trkx_detector::{
    edge_features, simulate_event, vertex_features, DetectorGeometry, EventGraph, GunConfig,
};
use trkx_nn::Bindings;
use trkx_tensor::{Matrix, Tape};

fn event_graph_from(
    ev: &trkx_detector::Event,
    src: Vec<u32>,
    dst: Vec<u32>,
    labels: Vec<f32>,
) -> EventGraph {
    EventGraph {
        num_nodes: ev.num_hits(),
        y: edge_features(ev, &src, &dst, 2),
        src,
        dst,
        labels,
        x: vertex_features(ev, 6),
        num_vertex_features: 6,
        num_edge_features: 2,
        event: ev.clone(),
    }
}

#[test]
fn embedding_to_construction_preserves_truth_subset() {
    let mut rng = StdRng::seed_from_u64(3);
    let ev = simulate_event(
        &DetectorGeometry::default(),
        &GunConfig::default(),
        20,
        0.1,
        &mut rng,
    );
    let x = Matrix::from_vec(ev.num_hits(), 6, vertex_features(&ev, 6));
    let mut stage = EmbeddingStage::new(
        6,
        EmbeddingConfig {
            epochs: 10,
            ..Default::default()
        },
    );
    stage.train(&[(&ev, &x)]);
    let emb = stage.embed_with(&mut Tape::new(), &mut Bindings::new(), &x);
    let g = GraphConstructor::default().construct(
        &ev,
        &emb,
        ConstructionMethod::FixedRadius { radius: 1.5 },
    );
    // Every labelled-true candidate is a real truth edge.
    let truth: std::collections::HashSet<(u32, u32)> = ev.truth_edges().into_iter().collect();
    for ((&s, &d), &l) in g.src.iter().zip(&g.dst).zip(&g.labels) {
        if l > 0.5 {
            assert!(truth.contains(&(s, d)), "mislabelled candidate ({s},{d})");
        }
    }
}

#[test]
fn filter_pruning_preserves_label_alignment() {
    let mut rng = StdRng::seed_from_u64(4);
    let ev = simulate_event(
        &DetectorGeometry::default(),
        &GunConfig::default(),
        25,
        0.1,
        &mut rng,
    );
    let g0 = trkx_detector::candidate_graph(&ev, 0.25, 0.4);
    let graph = event_graph_from(&ev, g0.src, g0.dst, g0.labels);
    let prepared = prepare_graphs(std::slice::from_ref(&graph));
    let mut filter = FilterStage::new(
        6,
        2,
        FilterConfig {
            epochs: 10,
            ..Default::default()
        },
    );
    filter.train(&prepared);
    let kept = filter.kept_edges_with(&mut Tape::new(), &mut Bindings::new(), &prepared[0]);
    // Build the pruned graph and re-check that labels still match
    // particle identity edge by edge.
    for &i in &kept {
        let (s, d) = (graph.src[i], graph.dst[i]);
        let same = match (ev.hits[s as usize].particle, ev.hits[d as usize].particle) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        };
        assert_eq!(
            graph.labels[i] > 0.5,
            same,
            "label misaligned after pruning at {i}"
        );
    }
}

#[test]
fn prepared_graph_matrices_match_raw_arrays() {
    let mut rng = StdRng::seed_from_u64(5);
    let ev = simulate_event(
        &DetectorGeometry::default(),
        &GunConfig::default(),
        15,
        0.1,
        &mut rng,
    );
    let g0 = trkx_detector::candidate_graph(&ev, 0.3, 0.4);
    let graph = event_graph_from(&ev, g0.src, g0.dst, g0.labels);
    let p = PreparedGraph::from_event_graph(&graph);
    assert_eq!(p.x.shape(), (graph.num_nodes, 6));
    assert_eq!(p.y.shape(), (graph.num_edges(), 2));
    // Spot-check row contents against the flat arrays.
    for r in [0usize, graph.num_nodes / 2, graph.num_nodes - 1] {
        assert_eq!(p.x.row(r), &graph.x[r * 6..(r + 1) * 6]);
    }
    // Sampler graph agrees on edge count and endpoints.
    assert_eq!(p.sampler.num_edges(), graph.num_edges());
    let rows = p.sampler.gather_directed(&graph.src);
    for (i, (&s, &d)) in graph.src.iter().zip(&graph.dst).enumerate() {
        assert_eq!(rows.get(s as usize, d), Some(i as u32));
    }
}
