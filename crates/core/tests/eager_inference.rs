//! Inference runs on the eager executor: the same forward as training,
//! evaluated node by node with each buffer freed after its last read.
//!
//! Two checks. The eager logits of the Interaction GNN, the filter and the
//! embedding equal the ones a recorded tape computes, bit for bit, on three
//! fixed events (`ci.sh` runs this at `RAYON_NUM_THREADS=1` and `4`, with
//! the parallel kernels forced on). And one GNN inference's working set,
//! the most floats its pool had out at once, stays four edge-by-hidden
//! matrices, independent of the layer count: a forward that builds an
//! MLP's input, or keeps every layer alive, needs more than the bound.

use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use trkx_core::{
    infer_logits_with, prepare_graphs, EmbeddingConfig, EmbeddingStage, FilterConfig, FilterStage,
    PreparedGraph,
};
use trkx_detector::DatasetConfig;
use trkx_ignn::{IgnnConfig, InteractionGnn};
use trkx_nn::{Bindings, Recorder};
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
    // they lie. So at most four `m x h` matrices are out at once, while
    // the edge MLP runs (`Y⁰`, `Yˡ` and its two hidden layers), beside
    // `X⁰` and `Xˡ`; and while the node MLP runs, `Y⁰` and `Yˡ⁺¹` beside
    // six `n x h` ones (`M_src`, `M_dst`, `X⁰`, `Xˡ` and two hidden
    // layers). Size classes round each up by at most 1/4. Building the
    // `[Y' X'src X'dst]` input alone would add 6h·m; a recorded forward
    // keeps every layer's ~(8 + depth)·h·m floats.
    let bound = (4 * m + 2 * n).max(2 * m + 6 * n) * h * 5 / 4;
    let peak = tape.pool().peak_live_floats();
    println!("eager GNN inference on {n} vertices / {m} edges at hidden {h}: pool peak {peak}");
    assert!(
        peak <= bound,
        "{peak} floats out at once on {n} vertices / {m} edges at hidden {h}, bound {bound}"
    );
    assert_eq!(tape.pool().live_floats(), 0, "an eager buffer was kept");
}
