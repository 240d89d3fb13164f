//! A training step's tape holds what backward reads, and no more.
//!
//! Recording an op pins the operand values its backward rule reads, and
//! the forwards release every other matrix after its last forward read.
//! An MLP's concatenated, gathered input is a view, never built: its
//! first GEMM reads (and pins) the pieces. So after one forward the tape
//! holds, besides the parameters and the inputs, the pieces of each
//! MLP's input, its hidden activations (the left factors of its other
//! GEMMs, and the tanh outputs the tanh rule reads) and the output:
//! exact formulas, checked here for the Interaction GNN at the shape of
//! the benchmark's `train_dense` (hidden 32, 4 layers, MLP depth 3), the
//! filter and the embedding. A tape that builds the MLP inputs holds
//! their `6h·m` and `4h·n` per layer and the filter's `(2f + f_e)·m`, and
//! one that keeps every value also the GEMM products, the aggregates'
//! copies, the layer outputs and the pre-tanh values; each fails its
//! formula. The step's pool peak (forward and backward) is bounded too,
//! with no room for a gradient of a view, and once backward ends the
//! tape holds no activation.
//! `ci.sh` runs this at `RAYON_NUM_THREADS=1` and `4`.

use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use trkx_core::{
    prepare_graphs, EmbeddingConfig, EmbeddingStage, FilterConfig, FilterStage, PreparedGraph,
};
use trkx_detector::DatasetConfig;
use trkx_ignn::{IgnnConfig, InteractionGnn};
use trkx_nn::{bce_with_logits, Bindings, Recorder};
use trkx_tensor::Tape;

/// One CTD-like event of a few hundred hits and ~10K edges.
fn event() -> (DatasetConfig, PreparedGraph) {
    let cfg = DatasetConfig::ctd_like(0.002);
    let graph = prepare_graphs(&cfg.generate(1, 17)).remove(0);
    (cfg, graph)
}

#[test]
fn a_training_tape_holds_what_backward_reads() {
    let (cfg, g) = event();
    let (nf, ef) = (cfg.num_vertex_features, cfg.num_edge_features);
    let (n, m) = (g.num_nodes, g.num_edges());
    let (h, l, d) = (32, 4, 3);
    let model = InteractionGnn::new(
        IgnnConfig::new(nf, ef)
            .with_hidden(h)
            .with_gnn_layers(l)
            .with_mlp_depth(d),
        &mut StdRng::seed_from_u64(3),
    );
    let (mut tape, mut bind) = (Tape::new(), Bindings::new());
    let logits = model.forward_planned(&mut tape, &mut bind, &g.x, &g.y, &g.plans);
    let hidden = (d - 1) * h;
    // Parameters and inputs; the encoders' hidden layers; per layer the
    // edge MLP's hidden layers and the Yˡ and Xˡ its first GEMM reads
    // (Y⁰ and X⁰ at layer 0), and but for the last the node MLP's M_src,
    // M_dst (2h) and hidden layers; Y^L, the decoder's hidden layers and
    // the logits. The inputs [Y' X'src X'dst] (6h·m) and [M_src M_dst X']
    // (4h·n) are never built.
    let held = model.num_parameters()
        + n * nf
        + m * ef
        + hidden * (n + m)
        + l * h * (n + m)
        + l * m * hidden
        + (l - 1) * n * (2 * h + hidden)
        + m * (h + hidden + 1);
    let floats = tape.activation_floats();
    let loss = bce_with_logits(&mut tape, logits, &g.labels, 1.0);
    tape.backward(loss);
    let peak = tape.pool().peak_live_floats();
    println!("IGNN on {n} vertices / {m} edges: {floats} floats held, pool peak {peak}");
    assert_eq!(floats, held, "IGNN tape after the forward");
    // Backward builds no view's gradient: each MLP's first GEMM writes
    // its input's gradient straight into the parts'. So beside what the
    // forward held (which backward frees as it goes) and the parameters'
    // gradients, at most three m-row gradients are out at once (a GEMM's
    // upstream gradient and the Yˡ and Y⁰ ones it writes) and six n-row
    // ones (X⁰'s, Xˡ's, M_src's, M_dst's, a node GEMM's upstream one, and
    // [Xˡ X⁰]'s, 2h wide, which sums the edge and node GEMMs' shares). A
    // fresh buffer's size class rounds it up by at most 1/4; one reused
    // from a class above may round up more, but not in this step. A
    // backward that builds each message input's gradient (6h·m) goes over.
    let grads = model.num_parameters() + 3 * h * m + 6 * h * n;
    let bound = (held + grads) * 5 / 4;
    assert!(peak <= bound, "IGNN step: pool peak {peak} over {bound}");
    // Once backward ends, only the parameters, the inputs and the loss
    // are held: every activation went back to the pool after the rule
    // that read it last.
    assert_eq!(
        tape.activation_floats(),
        model.num_parameters() + n * nf + m * ef + 1,
        "IGNN tape after the backward"
    );

    let filter = FilterStage::new(
        nf,
        ef,
        FilterConfig {
            hidden: 16,
            ..Default::default()
        },
    );
    let (mut tape, mut bind) = (Tape::new(), Bindings::new());
    let (src, dst) = (Arc::clone(&g.src), Arc::clone(&g.dst));
    filter.forward(
        &mut Recorder::new(&mut tape, &mut bind),
        &g.x,
        &g.y,
        src,
        dst,
    );
    let params = filter.mlp.params().iter().map(|p| p.numel()).sum::<usize>();
    let hidden = (filter.config.depth - 1) * filter.config.hidden;
    let floats = tape.activation_floats();
    // Parameters, inputs, hidden layers and logits: [X[src] X[dst] Y] is
    // never built, its GEMM reads X and Y where they lie.
    assert_eq!(floats, params + n * nf + m * ef + m * (hidden + 1));

    let embedding = EmbeddingStage::new(
        nf,
        EmbeddingConfig {
            hidden: 16,
            ..Default::default()
        },
    );
    let (mut tape, mut bind) = (Tape::new(), Bindings::new());
    embedding.forward(&mut Recorder::new(&mut tape, &mut bind), &g.x);
    let params = embedding
        .mlp
        .params()
        .iter()
        .map(|p| p.numel())
        .sum::<usize>();
    let (hidden, dim) = (
        (embedding.config.depth - 1) * embedding.config.hidden,
        embedding.config.dim,
    );
    // Parameters, input, tanh outputs and embeddings.
    assert_eq!(tape.activation_floats(), params + n * (nf + hidden + dim));
}
