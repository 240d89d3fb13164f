//! Pipeline "funnel" harness (the system of the paper's Figure 1): runs
//! the five trained stages on validation events and reports how the
//! candidate-edge set and the truth signal evolve through each stage —
//! construction → filter → GNN → tracks.
//!
//! ```text
//! cargo run -p trkx-bench --bin pipeline_funnel --release [-- --particles 40 --events 8]
//! ```

use rand::{rngs::StdRng, SeedableRng};
use trkx_bench::{arg_value, Table};
use trkx_core::{
    build_tracks, infer_logits_with, prepare_graphs, roc_auc, train_pipeline, EmbeddingConfig,
    GnnTrainConfig, PipelineConfig, PreparedGraph, SamplerKind,
};
use trkx_detector::{simulate_event, DetectorGeometry, GunConfig};
use trkx_nn::Bindings;
use trkx_sampling::ShadowConfig;
use trkx_tensor::Tape;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let particles = arg_value(&args, "--particles", 40usize);
    let n_events = arg_value(&args, "--events", 8usize);
    let epochs = arg_value(&args, "--epochs", 8usize);

    let geometry = DetectorGeometry::default();
    let gun = GunConfig::default();
    let mut rng = StdRng::seed_from_u64(31);
    let events: Vec<_> = (0..n_events + 2)
        .map(|_| simulate_event(&geometry, &gun, particles, 0.1, &mut rng))
        .collect();
    let (train, rest) = events.split_at(n_events);
    let (val, _) = rest.split_at(1);

    let config = PipelineConfig {
        embedding: EmbeddingConfig {
            epochs: 15,
            ..Default::default()
        },
        gnn: GnnTrainConfig {
            hidden: 32,
            gnn_layers: 4,
            epochs,
            batch_size: 128,
            shadow: ShadowConfig {
                depth: 2,
                fanout: 4,
            },
            ..Default::default()
        },
        gnn_sampler: SamplerKind::Bulk { k: 4 },
        ..Default::default()
    };
    println!(
        "# Pipeline funnel ({} train events, {} particles each)\n",
        n_events, particles
    );
    let (pipeline, report) = train_pipeline(config, train, val);

    // Walk a validation event through the funnel, reporting at each cut.
    let event = &val[0];
    let nf = pipeline.config.vertex_features;
    let ef = pipeline.config.edge_features;
    let feats = trkx_tensor::Matrix::from_vec(
        event.num_hits(),
        nf,
        trkx_detector::vertex_features(event, nf),
    );
    let emb = pipeline
        .embedding
        .embed_with(&mut Tape::new(), &mut Bindings::new(), &feats);
    // Warm the pooled constructor once, then time a steady-state build
    // (the serving-relevant number: index + scratch buffers recycled).
    let mut ctor = pipeline.new_constructor();
    let method = trkx_core::ConstructionMethod::FixedRadius {
        radius: pipeline.radius,
    };
    ctor.construct(event, &emb, method);
    let t0 = std::time::Instant::now();
    let constructed = ctor.construct(event, &emb, method);
    let construct_s = t0.elapsed().as_secs_f64();
    let truth_total = event.truth_edges().len();

    let stage_ms = |s: f64| format!("{:.2}", s * 1e3);
    let edges_per_s = |edges: usize, s: f64| {
        if s > 0.0 {
            format!("{:.0}", edges as f64 / s)
        } else {
            "-".into()
        }
    };

    let mut table = Table::new(&[
        "stage",
        "edges",
        "true edges kept",
        "purity",
        "AUC",
        "ms",
        "edges/s",
    ]);
    let true_in: usize = constructed.labels.iter().filter(|&&l| l > 0.5).count();
    table.row(vec![
        "2. graph construction".into(),
        constructed.num_edges().to_string(),
        format!("{true_in}/{truth_total}"),
        format!("{:.3}", constructed.edge_purity),
        "-".into(),
        stage_ms(construct_s),
        edges_per_s(constructed.num_edges(), construct_s),
    ]);

    // Filter stage.
    let graph = {
        let y = trkx_detector::edge_features(event, &constructed.src, &constructed.dst, ef);
        trkx_detector::EventGraph {
            num_nodes: event.num_hits(),
            src: constructed.src.clone(),
            dst: constructed.dst.clone(),
            labels: constructed.labels.clone(),
            x: trkx_detector::vertex_features(event, nf),
            num_vertex_features: nf,
            y,
            num_edge_features: ef,
            event: event.clone(),
        }
    };
    let prepared = PreparedGraph::from_event_graph(&graph);
    let t0 = std::time::Instant::now();
    let filter_logits =
        pipeline
            .filter
            .logits_with(&mut Tape::new(), &mut Bindings::new(), &prepared);
    let kept = pipeline
        .filter
        .kept_edges_with(&mut Tape::new(), &mut Bindings::new(), &prepared);
    let filter_s = t0.elapsed().as_secs_f64();
    let kept_true = kept.iter().filter(|&&i| graph.labels[i] > 0.5).count();
    table.row(vec![
        "3. filter MLP".into(),
        kept.len().to_string(),
        format!("{kept_true}/{truth_total}"),
        format!("{:.3}", kept_true as f64 / kept.len().max(1) as f64),
        format!("{:.3}", roc_auc(&filter_logits, &graph.labels)),
        stage_ms(filter_s),
        edges_per_s(constructed.num_edges(), filter_s),
    ]);

    // GNN stage on the pruned graph.
    let pruned = {
        let src: Vec<u32> = kept.iter().map(|&i| graph.src[i]).collect();
        let dst: Vec<u32> = kept.iter().map(|&i| graph.dst[i]).collect();
        let labels: Vec<f32> = kept.iter().map(|&i| graph.labels[i]).collect();
        let y = trkx_detector::edge_features(event, &src, &dst, ef);
        trkx_detector::EventGraph {
            num_nodes: event.num_hits(),
            src,
            dst,
            labels,
            x: trkx_detector::vertex_features(event, nf),
            num_vertex_features: nf,
            y,
            num_edge_features: ef,
            event: event.clone(),
        }
    };
    let prepared_pruned = prepare_graphs(std::slice::from_ref(&pruned));
    let t0 = std::time::Instant::now();
    let gnn_logits = infer_logits_with(
        &mut Tape::new(),
        &mut Bindings::new(),
        &pipeline.gnn,
        &prepared_pruned[0],
    );
    let gnn_s = t0.elapsed().as_secs_f64();
    let gnn_kept: Vec<usize> = gnn_logits
        .iter()
        .enumerate()
        .filter(|(_, &l)| l > 0.0)
        .map(|(i, _)| i)
        .collect();
    let gnn_true = gnn_kept.iter().filter(|&&i| pruned.labels[i] > 0.5).count();
    table.row(vec![
        "4. IGNN".into(),
        gnn_kept.len().to_string(),
        format!("{gnn_true}/{truth_total}"),
        format!("{:.3}", gnn_true as f64 / gnn_kept.len().max(1) as f64),
        format!("{:.3}", roc_auc(&gnn_logits, &pruned.labels)),
        stage_ms(gnn_s),
        edges_per_s(pruned.src.len(), gnn_s),
    ]);

    let t0 = std::time::Instant::now();
    let tracks = build_tracks(&pruned, &gnn_logits, 0.5, 3);
    let tracks_s = t0.elapsed().as_secs_f64();
    table.row(vec![
        "5. tracks (CC)".into(),
        tracks.edges_kept.to_string(),
        format!(
            "eff {:.3} / pur {:.3}",
            tracks.metrics.efficiency(),
            tracks.metrics.purity()
        ),
        "-".into(),
        "-".into(),
        stage_ms(tracks_s),
        edges_per_s(tracks.edges_kept, tracks_s),
    ]);
    table.print();

    println!(
        "training summary: construction eff {:.3}, filter R {:.3}, GNN val P {:.3} R {:.3}",
        report.construction_efficiency,
        report.filter_recall,
        report.gnn_val_precision,
        report.gnn_val_recall
    );
}
