//! Inference runs on the eager executor: the same forward as training,
//! evaluated node by node with each buffer freed after its last read.
//!
//! Two checks. The eager logits of the Interaction GNN, the filter and the
//! embedding equal the ones a recorded tape computes, bit for bit, on three
//! fixed events (`ci.sh` runs this at `RAYON_NUM_THREADS=1` and `4`, with
//! the parallel kernels forced on); their edge counts span several eager
//! windows, so the windowed edge MLPs, decoder and filter are checked
//! against the tape's one pass over all rows. And one GNN inference's
//! working set, the most floats its pool had out at once, stays two
//! edge-by-hidden matrices and two window-by-hidden ones, independent of
//! the layer count: a forward that runs an edge MLP over all edges at
//! once, builds an MLP's input, or keeps every layer alive, needs more
//! than the bound.

use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use trkx_core::{
    infer_logits_with, prepare_graphs, EmbeddingConfig, EmbeddingStage, FilterConfig, FilterStage,
    PreparedGraph,
};
use trkx_detector::DatasetConfig;
use trkx_ignn::{IgnnConfig, InteractionGnn};
use trkx_nn::{Bindings, Recorder, CHUNK_ROWS};
use trkx_tensor::{Matrix, Tape};

fn bits(m: &[f32]) -> Vec<u32> {
    m.iter().map(|v| v.to_bits()).collect()
}

/// Three CTD-like events of a few hundred hits and ~10K edges each.
fn events() -> (DatasetConfig, Vec<PreparedGraph>) {
    let cfg = DatasetConfig::ctd_like(0.002);
    let graphs = prepare_graphs(&cfg.generate(3, 17));
    (cfg, graphs)
}

#[test]
fn eager_logits_equal_tape_logits_bit_for_bit() {
    trkx_tensor::force_parallel_kernels();
    let (cfg, graphs) = events();
    let (nf, ef) = (cfg.num_vertex_features, cfg.num_edge_features);
    let rng = &mut StdRng::seed_from_u64(5);
    let gnns = [
        InteractionGnn::new(
            IgnnConfig::new(nf, ef)
                .with_hidden(16)
                .with_gnn_layers(3)
                .with_mlp_depth(3),
            rng,
        ),
        InteractionGnn::new(
            IgnnConfig {
                layer_norm: true,
                ..IgnnConfig::new(nf, ef)
                    .with_hidden(8)
                    .with_gnn_layers(2)
                    .with_mlp_depth(2)
            },
            rng,
        ),
    ];
    let filter = FilterStage::new(
        nf,
        ef,
        FilterConfig {
            hidden: 16,
            ..Default::default()
        },
    );
    let embedding = EmbeddingStage::new(
        nf,
        EmbeddingConfig {
            hidden: 16,
            ..Default::default()
        },
    );

    // One pool serves every eager call, so each reads buffers that the
    // previous (differently shaped) call left dirty.
    let (mut tape, mut bind) = (Tape::new(), Bindings::new());
    for (e, g) in graphs.iter().enumerate() {
        for (k, gnn) in gnns.iter().enumerate() {
            let want = {
                let (mut t, mut b) = (Tape::new(), Bindings::new());
                let v = gnn.forward_planned(&mut t, &mut b, &g.x, &g.y, &g.plans);
                bits(t.value(v).data())
            };
            let got = infer_logits_with(&mut tape, &mut bind, gnn, g);
            assert_eq!(bits(&got), want, "event {e}: GNN {k} logits");
        }

        let want = {
            let (mut t, mut b) = (Tape::new(), Bindings::new());
            let (src, dst) = (Arc::clone(&g.src), Arc::clone(&g.dst));
            let v = filter.forward(&mut Recorder::new(&mut t, &mut b), &g.x, &g.y, src, dst);
            bits(t.value(v).data())
        };
        let got = filter.logits_with(&mut tape, &mut bind, g);
        assert_eq!(bits(&got), want, "event {e}: filter logits");

        let want: Matrix = {
            let (mut t, mut b) = (Tape::new(), Bindings::new());
            let v = embedding.forward(&mut Recorder::new(&mut t, &mut b), &g.x);
            t.value(v).clone()
        };
        let got = embedding.embed_with(&mut tape, &mut bind, &g.x);
        assert_eq!(got.shape(), want.shape());
        assert_eq!(bits(got.data()), bits(want.data()), "event {e}: embedding");
    }
    assert_eq!(tape.pool().live_floats(), 0, "an eager buffer was kept");
}

#[test]
fn eager_inference_peak_live_floats_is_bounded() {
    let (cfg, graphs) = events();
    let g = &graphs[0];
    let (n, m, h) = (g.num_nodes, g.num_edges(), 16);
    let model = InteractionGnn::new(
        IgnnConfig::new(cfg.num_vertex_features, cfg.num_edge_features)
            .with_hidden(h)
            .with_gnn_layers(8)
            .with_mlp_depth(3),
        &mut StdRng::seed_from_u64(3),
    );
    let mut tape = Tape::new();
    infer_logits_with(&mut tape, &mut Bindings::new(), &model, g);
    // No MLP input is built: each MLP's first GEMM reads its parts where
    // they lie. And each edge MLP (and the decoder) runs a window of
    // `CHUNK_ROWS` edges at a time, each window's output overwriting the
    // `Yˡ` rows it read. So while an edge MLP runs, two `m x h` matrices
    // are out (`Y⁰` and `Yˡ`, or at layer 0 `Y⁰` and the new `Y¹`) beside
    // a window's two (a hidden layer and the next one, or the output)
    // and `X⁰`, `Xˡ` (the edge encoder, also run in windows, has `Y⁰` and
    // a window's two out beside `X⁰`); and while the node MLP runs, `Y⁰`
    // and `Yˡ⁺¹` are out
    // beside six `n x h` (`M_src`, `M_dst`, `X⁰`, `Xˡ` and two hidden
    // layers). Size classes round each up by at most 1/4. An edge MLP run
    // whole adds its two hidden layers, 2h·m; building the
    // `[Y' X'src X'dst]` input alone would add 6h·m; a recorded forward
    // keeps every layer's ~(8 + depth)·h·m floats.
    let window = CHUNK_ROWS.min(m);
    let bound = (2 * m + 2 * window + 2 * n).max(2 * m + 6 * n) * h * 5 / 4;
    let peak = tape.pool().peak_live_floats();
    println!("eager GNN inference on {n} vertices / {m} edges at hidden {h}: pool peak {peak}");
    assert!(
        peak <= bound,
        "{peak} floats out at once on {n} vertices / {m} edges at hidden {h}, bound {bound}"
    );
    assert_eq!(tape.pool().live_floats(), 0, "an eager buffer was kept");
}
