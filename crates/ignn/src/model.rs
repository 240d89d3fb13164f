//! Interaction GNN (Battaglia et al., paper ref 3) for edge classification, per
//! the paper's Algorithm 1:
//!
//! ```text
//! X⁰ ← φ(X); Y⁰ ← φ(Y)
//! for l = 0..L:
//!   X' ← [Xˡ X⁰]; Y' ← [Yˡ Y⁰]                  (skip-connections to input encodings)
//!   Yˡ⁺¹ ← φ([Y' X'[A.rows] X'[A.cols]])         (MSG: per-edge MLP)
//!   M_src ← reduce(Yˡ⁺¹, A.rows, +)              (AGG)
//!   M_dst ← reduce(Yˡ⁺¹, A.cols, +)              (AGG)
//!   Xˡ⁺¹ ← φ([M_src M_dst X'])                   (per-node MLP)
//! return φ(Y^L)                                   (edge logits)
//! ```
//!
//! Every `φ` is a distinct MLP. The forward is written once, over an
//! executor ([`Exec`]), and releases each matrix after the step that
//! last reads it. The concatenated, gathered MLP inputs `[Y' X'[src]
//! X'[dst]]` and `[M_src M_dst X']` are views ([`Exec::view`]): never
//! built, their MLP's first GEMM reads `Yˡ`, `Y⁰`, `Xˡ`, `X⁰`, `M_src`
//! and `M_dst` where they lie, so each of those is released only after
//! the MLP that reads it. Training records the forward on a tape, which
//! frees a released matrix unless backward reads it: those parts and
//! each MLP's hidden activations stay for backprop — the `O(L·m·f)`
//! activation footprint that drives the paper's memory argument — while
//! the views keep their backward rules, so every gradient is summed as
//! if the inputs had been built. Inference runs it on the eager executor
//! ([`trkx_nn::Eager`]), which frees every released matrix and runs
//! the edge encoder, each edge MLP and the decoder a window of rows at a
//! time
//! ([`Exec::map_rows`]), so about `Y⁰`, `Yˡ` and the `X`s are alive at a
//! time beside one window's hidden layers, and the logits are the tape's
//! bit for bit.

use rand::Rng;
use std::sync::Arc;
use trkx_nn::{Activation, Bindings, Exec, Mlp, MlpConfig, Param, Recorder};
use trkx_tensor::{EdgePlan, EdgePlans, Matrix, Op, Tape, Var};

/// Interaction-GNN hyperparameters.
#[derive(Debug, Clone)]
pub struct IgnnConfig {
    /// Input vertex feature dimension.
    pub node_features: usize,
    /// Input edge feature dimension.
    pub edge_features: usize,
    /// Hidden width (64 in the paper).
    pub hidden: usize,
    /// Message-passing iterations (8 in the paper).
    pub gnn_layers: usize,
    /// Depth of each φ MLP (Table I: 3 for CTD, 2 for Ex3).
    pub mlp_depth: usize,
    /// LayerNorm inside the MLPs (acorn uses it; off by default here).
    pub layer_norm: bool,
}

impl IgnnConfig {
    pub fn new(node_features: usize, edge_features: usize) -> Self {
        Self {
            node_features,
            edge_features,
            hidden: 64,
            gnn_layers: 8,
            mlp_depth: 2,
            layer_norm: false,
        }
    }

    pub fn with_hidden(mut self, h: usize) -> Self {
        self.hidden = h;
        self
    }

    pub fn with_gnn_layers(mut self, l: usize) -> Self {
        self.gnn_layers = l;
        self
    }

    pub fn with_mlp_depth(mut self, d: usize) -> Self {
        self.mlp_depth = d;
        self
    }

    fn mlp_sizes(&self, input: usize, output: usize) -> Vec<usize> {
        let mut sizes = vec![input];
        sizes.extend(std::iter::repeat_n(
            self.hidden,
            self.mlp_depth.saturating_sub(1),
        ));
        sizes.push(output);
        sizes
    }

    /// Analytic estimate of the autograd-tape activation footprint (in
    /// f32 elements) of one forward pass over a graph with `n` nodes and
    /// `m` edges — used for the OOM-skip emulation *before* building the
    /// tape. Per layer the tape retains the concatenations, MLP hidden
    /// activations, messages, and aggregates. Tracks the fused
    /// (`GatherConcat`) path, which assembles the edge-MLP input directly
    /// — there are no materialized `X'[src]`/`X'[dst]` intermediates
    /// (the `4h·m` per layer the unfused path would additionally retain).
    /// It still counts the MLP inputs and concatenations a recorded
    /// tape never builds and the aggregates and layer outputs it frees,
    /// and is kept as it was so the
    /// full-graph arm skips the same graphs: the measured tape is below
    /// it.
    pub fn estimate_activation_floats(&self, n: usize, m: usize) -> usize {
        let h = self.hidden;
        let d = self.mlp_depth;
        // Per layer: Y'(2h·m) + fused msg_in (6h·m) + edge MLP activations
        // (~d·h·m) + M_src/M_dst (2·h·n) + X'(2h·n) + node concat (4h·n)
        // + node MLP activations (~d·h·n).
        let per_layer = m * h * (2 + 6 + d) + n * h * (2 + 2 + 4 + d);
        let encoders = n * h * d + m * h * d;
        let decoder = m * (h * (d - 1).max(1) + 1);
        self.gnn_layers * per_layer + encoders + decoder
    }
}

/// The Interaction GNN: encoders, `L` distinct message-passing layers,
/// and an edge-logit decoder.
#[derive(Debug, Clone)]
pub struct InteractionGnn {
    pub config: IgnnConfig,
    node_encoder: Mlp,
    edge_encoder: Mlp,
    edge_mlps: Vec<Mlp>,
    node_mlps: Vec<Mlp>,
    decoder: Mlp,
}

impl InteractionGnn {
    pub fn new(config: IgnnConfig, rng: &mut impl Rng) -> Self {
        let h = config.hidden;
        fn mk<R: Rng>(config: &IgnnConfig, sizes: &[usize], name: &str, rng: &mut R) -> Mlp {
            Mlp::new(
                MlpConfig::new(sizes)
                    .with_layer_norm(config.layer_norm)
                    .with_activation(Activation::Relu),
                name,
                rng,
            )
        }
        let node_encoder = mk(
            &config,
            &config.mlp_sizes(config.node_features, h),
            "node_enc",
            rng,
        );
        let edge_encoder = mk(
            &config,
            &config.mlp_sizes(config.edge_features, h),
            "edge_enc",
            rng,
        );
        let mut edge_mlps = Vec::with_capacity(config.gnn_layers);
        let mut node_mlps = Vec::with_capacity(config.gnn_layers.saturating_sub(1));
        for l in 0..config.gnn_layers {
            // Edge MLP input: [Y'(2h) X'src(2h) X'dst(2h)].
            edge_mlps.push(mk(
                &config,
                &config.mlp_sizes(6 * h, h),
                &format!("edge_mlp.{l}"),
                rng,
            ));
            // Node MLP input: [M_src(h) M_dst(h) X'(2h)]. The final layer
            // has no node update: the decoder reads only Y^L (the paper
            // returns φ(Y^{L-1})), so a last node MLP would never receive
            // gradient.
            if l + 1 < config.gnn_layers {
                node_mlps.push(mk(
                    &config,
                    &config.mlp_sizes(4 * h, h),
                    &format!("node_mlp.{l}"),
                    rng,
                ));
            }
        }
        let decoder = mk(&config, &config.mlp_sizes(h, 1), "decoder", rng);
        Self {
            config,
            node_encoder,
            edge_encoder,
            edge_mlps,
            node_mlps,
            decoder,
        }
    }

    /// Forward pass: returns per-edge logits (`m x 1`).
    ///
    /// `x`: `n x node_features` vertex features; `y`: `m x edge_features`
    /// edge features; `src`/`dst`: edge endpoints (COO rows/cols of A).
    ///
    /// Builds the [`EdgePlans`] for this edge list and runs the fused
    /// path ([`InteractionGnn::forward_planned`]). Callers that reuse one
    /// subgraph across steps should build the plans once and call
    /// `forward_planned` directly — plan construction is `O(n + m)` but
    /// pointless to repeat.
    pub fn forward(
        &self,
        tape: &mut Tape,
        bind: &mut Bindings,
        x: &Matrix,
        y: &Matrix,
        src: Arc<Vec<u32>>,
        dst: Arc<Vec<u32>>,
    ) -> Var {
        let plans = Arc::new(EdgePlans::new(src, dst, x.rows()));
        self.forward_planned(tape, bind, x, y, &plans)
    }

    /// [`InteractionGnn::run`] recorded on `tape`, its parameters bound
    /// through `bind`: the training forward.
    pub fn forward_planned(
        &self,
        tape: &mut Tape,
        bind: &mut Bindings,
        x: &Matrix,
        y: &Matrix,
        plans: &Arc<EdgePlans>,
    ) -> Var {
        self.run(&mut Recorder::new(tape, bind), x, y, plans)
    }

    /// Fused forward pass over a precomputed edge plan, on any executor:
    /// each layer's edge-MLP input is a `GatherConcat` view of the skip
    /// concatenations (themselves views), which the MLP's first GEMM
    /// reads in place (no `X'[src]`/`X'[dst]` and no concatenation is
    /// built), and the AGG scatters run the deterministic parallel
    /// segment-reduce. Bit-identical to the test-only unfused reference
    /// (`forward_unfused`) in both values and gradients, at any thread
    /// count. Each node is released after its last read, which frees it
    /// on the eager executor, and on a tape unless backward reads it.
    pub fn run<'p, E: Exec<'p>>(
        &'p self,
        ex: &mut E,
        x: &'p Matrix,
        y: &'p Matrix,
        plans: &Arc<EdgePlans>,
    ) -> Var {
        self.check_inputs(x, y, plans.num_edges());
        assert_eq!(plans.nodes(), x.rows(), "plan node count mismatch");

        let xin = ex.input(x);
        let yin = ex.input(y);
        let x0 = self.node_encoder.forward(ex, xin);
        let y0 = ex.map_rows(yin, None, |ex, rows| self.edge_encoder.forward(ex, rows));
        let last = self.config.gnn_layers.checked_sub(1);
        let mut xl = x0;
        let mut yl = y0;
        for l in 0..self.config.gnn_layers {
            // Skip-connections to the input encodings, and MSG: the
            // [Y' X'[src] X'[dst]] assembly, all views read by the
            // per-edge MLP's first GEMM.
            let x_cat = ex.concat_cols(&[xl, x0]);
            let y_cat = ex.concat_cols(&[yl, y0]);
            let msg_in = ex.view(Op::GatherConcat {
                y: y_cat.0,
                x: x_cat.0,
                plans: plans.clone(),
            });
            // Edge-local, so the eager executor runs it a window of
            // rows at a time, each window's Yˡ⁺¹ rows overwriting the Yˡ
            // rows it read (Y⁰ stays: every layer reads it).
            let edge_mlp = &self.edge_mlps[l];
            yl = ex.map_rows(msg_in, (l > 0).then_some(yl), |ex, rows| {
                edge_mlp.forward(ex, rows)
            });
            if Some(l) == last {
                ex.release(y0);
                if l > 0 {
                    ex.release(xl);
                }
                ex.release(x0);
            } else {
                // AGG: sum messages into both endpoints (plan-driven).
                let scatter = |idx: &Arc<Vec<u32>>, plan: &Arc<EdgePlan>| Op::ScatterAdd {
                    a: yl.0,
                    idx: idx.clone(),
                    plan: Some(plan.clone()),
                    out_rows: plan.nodes(),
                };
                let m_src = ex.eval(scatter(&plans.src, &plans.src_plan));
                let m_dst = ex.eval(scatter(&plans.dst, &plans.dst_plan));
                let node_in = ex.concat_cols(&[m_src, m_dst, x_cat]);
                let x_next = self.node_mlps[l].forward(ex, node_in);
                for v in [m_src, m_dst] {
                    ex.release(v);
                }
                if l > 0 {
                    ex.release(xl);
                }
                xl = x_next;
            }
        }
        if last.is_none() {
            // No layers: the decoder reads Y⁰, and X⁰ has no reader.
            ex.release(x0);
        }
        ex.map_rows(yl, None, |ex, rows| self.decoder.forward(ex, rows))
    }

    /// Unfused reference forward pass: explicit per-endpoint gathers and
    /// a three-way concat, serial scatter on the backward. Kept as the
    /// ground truth the fused path is parity-tested against.
    #[cfg(test)]
    fn forward_unfused(
        &self,
        tape: &mut Tape,
        bind: &mut Bindings,
        x: &Matrix,
        y: &Matrix,
        src: Arc<Vec<u32>>,
        dst: Arc<Vec<u32>>,
    ) -> Var {
        let n = x.rows();
        self.check_inputs(x, y, src.len());
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");

        let xin = tape.constant_copied(x);
        let yin = tape.constant_copied(y);
        let x0 = self
            .node_encoder
            .forward(&mut Recorder::new(tape, bind), xin);
        let y0 = self
            .edge_encoder
            .forward(&mut Recorder::new(tape, bind), yin);
        let mut xl = x0;
        let mut yl = y0;
        for l in 0..self.config.gnn_layers {
            // Skip-connections to the input encodings.
            let x_cat = tape.concat_cols(&[xl, x0]);
            let y_cat = tape.concat_cols(&[yl, y0]);
            // MSG: gather endpoint features per edge, concat with the edge
            // state, and run the per-edge MLP.
            let x_src = tape.gather(x_cat, src.clone());
            let x_dst = tape.gather(x_cat, dst.clone());
            let msg_in = tape.concat_cols(&[y_cat, x_src, x_dst]);
            let y_next = self.edge_mlps[l].forward(&mut Recorder::new(tape, bind), msg_in);
            yl = y_next;
            if l + 1 < self.config.gnn_layers {
                // AGG: sum messages into both endpoints.
                let m_src = tape.scatter_add(y_next, src.clone(), n);
                let m_dst = tape.scatter_add(y_next, dst.clone(), n);
                let node_in = tape.concat_cols(&[m_src, m_dst, x_cat]);
                xl = self.node_mlps[l].forward(&mut Recorder::new(tape, bind), node_in);
            }
        }
        self.decoder.forward(&mut Recorder::new(tape, bind), yl)
    }

    fn check_inputs(&self, x: &Matrix, y: &Matrix, num_edges: usize) {
        assert_eq!(
            x.cols(),
            self.config.node_features,
            "node feature dim mismatch"
        );
        assert_eq!(
            y.cols(),
            self.config.edge_features,
            "edge feature dim mismatch"
        );
        assert_eq!(num_edges, y.rows(), "edge count mismatch");
    }

    pub fn params(&self) -> Vec<&Param> {
        let mut p = self.node_encoder.params();
        p.extend(self.edge_encoder.params());
        for m in &self.edge_mlps {
            p.extend(m.params());
        }
        for m in &self.node_mlps {
            p.extend(m.params());
        }
        p.extend(self.decoder.params());
        p
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.node_encoder.params_mut();
        p.extend(self.edge_encoder.params_mut());
        for m in &mut self.edge_mlps {
            p.extend(m.params_mut());
        }
        for m in &mut self.node_mlps {
            p.extend(m.params_mut());
        }
        p.extend(self.decoder.params_mut());
        p
    }

    /// Total trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Number of distinct parameter matrices (the all-reduce message
    /// count of the *naive* DDP path; the paper coalesces these).
    pub fn num_parameter_tensors(&self) -> usize {
        self.params().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny_config() -> IgnnConfig {
        IgnnConfig::new(3, 2)
            .with_hidden(8)
            .with_gnn_layers(2)
            .with_mlp_depth(2)
    }

    fn tiny_graph() -> (Matrix, Matrix, Vec<u32>, Vec<u32>) {
        // 4 nodes, 5 edges.
        let mut rng = StdRng::seed_from_u64(1);
        let x = Matrix::randn(4, 3, 1.0, &mut rng);
        let y = Matrix::randn(5, 2, 1.0, &mut rng);
        (x, y, vec![0, 0, 1, 2, 3], vec![1, 2, 2, 3, 0])
    }

    #[test]
    fn forward_shape_is_edges_by_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = InteractionGnn::new(tiny_config(), &mut rng);
        let (x, y, src, dst) = tiny_graph();
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let logits = model.forward(&mut tape, &mut bind, &x, &y, Arc::new(src), Arc::new(dst));
        assert_eq!(tape.value(logits).shape(), (5, 1));
        assert!(tape.value(logits).data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn parameter_census() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = InteractionGnn::new(tiny_config(), &mut rng);
        // encoders: 2 MLPs x depth 2 x (W + b) = 8 tensors; 2 edge MLPs x
        // 4 = 8; 1 node MLP (final layer has none) x 4 = 4; decoder 4.
        assert_eq!(model.num_parameter_tensors(), 24);
        assert!(model.num_parameters() > 0);
        // Distinct MLPs per layer: changing one layer's weight changes
        // only that tensor count... sanity: hidden=8 edge MLP first layer
        // weight is 48x8.
        let p = model.params();
        assert!(p.iter().any(|p| p.value.shape() == (48, 8)));
        assert!(p.iter().any(|p| p.value.shape() == (32, 8)));
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = InteractionGnn::new(tiny_config(), &mut rng);
        let (x, y, src, dst) = tiny_graph();
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let logits = model.forward(&mut tape, &mut bind, &x, &y, Arc::new(src), Arc::new(dst));
        let loss = trkx_nn::bce_with_logits(&mut tape, logits, &[1., 0., 1., 0., 1.], 1.0);
        tape.backward(loss);
        let mut params = model.params_mut();
        bind.harvest(&tape, &mut params);
        for p in model.params() {
            assert!(
                p.grad.frobenius_norm() > 0.0,
                "parameter {} received no gradient",
                p.name()
            );
        }
    }

    #[test]
    fn message_passing_respects_graph_structure() {
        // Changing a node's features must change logits of edges within
        // gnn_layers hops, and node order must not matter beyond identity.
        let mut rng = StdRng::seed_from_u64(5);
        let model = InteractionGnn::new(tiny_config(), &mut rng);
        let (x, y, src, dst) = tiny_graph();
        let run = |x: &Matrix| {
            let mut tape = Tape::new();
            let mut bind = Bindings::new();
            let v = model.forward(
                &mut tape,
                &mut bind,
                x,
                &y,
                Arc::new(src.clone()),
                Arc::new(dst.clone()),
            );
            tape.value(v).clone()
        };
        let base = run(&x);
        let mut x2 = x.clone();
        x2.set(0, 0, x2.get(0, 0) + 1.0);
        let perturbed = run(&x2);
        assert!(
            base.max_abs_diff(&perturbed) > 1e-5,
            "perturbation had no effect"
        );
    }

    #[test]
    fn edge_permutation_equivariance() {
        // Permuting the edge list permutes the logits identically.
        let mut rng = StdRng::seed_from_u64(6);
        let model = InteractionGnn::new(tiny_config(), &mut rng);
        let (x, y, src, dst) = tiny_graph();
        let perm = [4usize, 2, 0, 3, 1];
        let y_p = Matrix::from_fn(5, 2, |r, c| y.get(perm[r], c));
        let src_p: Vec<u32> = perm.iter().map(|&i| src[i]).collect();
        let dst_p: Vec<u32> = perm.iter().map(|&i| dst[i]).collect();
        let run = |y: &Matrix, s: Vec<u32>, d: Vec<u32>| {
            let mut tape = Tape::new();
            let mut bind = Bindings::new();
            let v = model.forward(&mut tape, &mut bind, &x, y, Arc::new(s), Arc::new(d));
            tape.value(v).clone()
        };
        let base = run(&y, src, dst);
        let permuted = run(&y_p, src_p, dst_p);
        for (i, &p) in perm.iter().enumerate() {
            assert!(
                (base.get(p, 0) - permuted.get(i, 0)).abs() < 1e-4,
                "edge {i} logit not equivariant"
            );
        }
    }

    #[test]
    fn fused_forward_matches_unfused_bitwise() {
        // The fused GatherConcat/planned-scatter path must reproduce the
        // unfused reference exactly — same logits, same gradients, to the
        // last bit — or the golden training curves would drift.
        let mut rng = StdRng::seed_from_u64(9);
        let mut model = InteractionGnn::new(tiny_config(), &mut rng);
        let (x, y, src, dst) = tiny_graph();
        let targets = [1.0f32, 0.0, 1.0, 0.0, 1.0];

        let mut run = |fused: bool| -> (Matrix, Vec<Matrix>) {
            let mut tape = Tape::new();
            let mut bind = Bindings::new();
            let (src, dst) = (Arc::new(src.clone()), Arc::new(dst.clone()));
            let logits = if fused {
                model.forward(&mut tape, &mut bind, &x, &y, src, dst)
            } else {
                model.forward_unfused(&mut tape, &mut bind, &x, &y, src, dst)
            };
            let loss = trkx_nn::bce_with_logits(&mut tape, logits, &targets, 1.0);
            // Backward frees the logits with every value it reads.
            let out = tape.value(logits).clone();
            tape.backward(loss);
            let mut params = model.params_mut();
            for p in params.iter_mut() {
                p.zero_grad();
            }
            bind.harvest(&tape, &mut params);
            let grads = model.params().iter().map(|p| p.grad.clone()).collect();
            (out, grads)
        };

        let (logits_f, grads_f) = run(true);
        let (logits_u, grads_u) = run(false);
        assert_eq!(logits_f.data(), logits_u.data(), "fused logits differ");
        for (gf, gu) in grads_f.iter().zip(&grads_u) {
            assert_eq!(gf.data(), gu.data(), "fused gradients differ");
        }
    }

    #[test]
    fn fused_tape_drops_gather_intermediates() {
        // After the forward, the fused tape holds the parameters, the two
        // inputs and what backward reads: the pieces of each MLP's input
        // (Yˡ, Y⁰, Xˡ, X⁰, M_src, M_dst, read by its first GEMM where they
        // lie), each MLP's hidden activations, Y^L as the decoder's input
        // and the logits. The unfused reference releases nothing it
        // records itself, so it also holds every input it builds: per
        // layer [Xˡ X⁰] (2h·n), [Yˡ Y⁰] (2h·m), the two endpoint gathers
        // (4h·m) and [Y' X'src X'dst] (6h·m), and but for the last layer
        // [M_src M_dst X'] (4h·n).
        let mut rng = StdRng::seed_from_u64(10);
        let cfg = tiny_config();
        let model = InteractionGnn::new(cfg.clone(), &mut rng);
        let (x, y, src, dst) = tiny_graph();
        let measure = |fused: bool| {
            let mut tape = Tape::new();
            let mut bind = Bindings::new();
            let (src, dst) = (Arc::new(src.clone()), Arc::new(dst.clone()));
            let _ = if fused {
                model.forward(&mut tape, &mut bind, &x, &y, src, dst)
            } else {
                model.forward_unfused(&mut tape, &mut bind, &x, &y, src, dst)
            };
            tape.activation_floats()
        };
        let fused = measure(true);
        let unfused = measure(false);
        let (n, m, h, l) = (x.rows(), y.rows(), cfg.hidden, cfg.gnn_layers);
        let hidden = (cfg.mlp_depth - 1) * h;
        let held = model.num_parameters()
            + x.len()
            + y.len()
            + hidden * (n + m)
            + l * h * (n + m)
            + l * m * hidden
            + (l - 1) * n * (2 * h + hidden)
            + m * (h + hidden + 1);
        assert_eq!(fused, held);
        assert_eq!(
            unfused - fused,
            l * h * (2 * n + 12 * m) + (l - 1) * 4 * h * n
        );
    }

    #[test]
    fn activation_estimate_tracks_measurement() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = tiny_config();
        let model = InteractionGnn::new(cfg.clone(), &mut rng);
        let (x, y, src, dst) = tiny_graph();
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let _ = model.forward(&mut tape, &mut bind, &x, &y, Arc::new(src), Arc::new(dst));
        let measured = tape.activation_floats();
        let estimated = cfg.estimate_activation_floats(4, 5);
        let ratio = estimated as f64 / measured as f64;
        assert!(
            (0.3..3.0).contains(&ratio),
            "estimate {estimated} vs measured {measured}"
        );
    }

    #[test]
    fn gradcheck_tiny_ignn() {
        // Finite-difference check of a handful of parameter elements of a
        // minimal IGNN against the full pipeline loss.
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = IgnnConfig::new(2, 1)
            .with_hidden(4)
            .with_gnn_layers(1)
            .with_mlp_depth(2);
        let mut model = InteractionGnn::new(cfg, &mut rng);
        let x = Matrix::randn(3, 2, 0.5, &mut rng);
        let y = Matrix::randn(3, 1, 0.5, &mut rng);
        let src = vec![0u32, 1, 2];
        let dst = vec![1u32, 2, 0];
        let targets = [1.0f32, 0.0, 1.0];

        let loss_value = |model: &InteractionGnn| {
            let mut tape = Tape::new();
            let mut bind = Bindings::new();
            let logits = model.forward(
                &mut tape,
                &mut bind,
                &x,
                &y,
                Arc::new(src.clone()),
                Arc::new(dst.clone()),
            );
            let loss = trkx_nn::bce_with_logits(&mut tape, logits, &targets, 1.0);
            tape.value(loss).as_scalar()
        };

        // Analytic.
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let logits = model.forward(
            &mut tape,
            &mut bind,
            &x,
            &y,
            Arc::new(src.clone()),
            Arc::new(dst.clone()),
        );
        let loss = trkx_nn::bce_with_logits(&mut tape, logits, &targets, 1.0);
        tape.backward(loss);
        {
            let mut params = model.params_mut();
            bind.harvest(&tape, &mut params);
        }
        let grads: Vec<Matrix> = model.params().iter().map(|p| p.grad.clone()).collect();

        let eps = 1e-2f32;
        for (pi, g) in grads.iter().enumerate() {
            // Check the first element of every tensor.
            let orig = model.params()[pi].value.data()[0];
            model.params_mut()[pi].value.data_mut()[0] = orig + eps;
            let plus = loss_value(&model);
            model.params_mut()[pi].value.data_mut()[0] = orig - eps;
            let minus = loss_value(&model);
            model.params_mut()[pi].value.data_mut()[0] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let exact = g.data()[0];
            assert!(
                (numeric - exact).abs() < 2e-2 + 0.1 * exact.abs(),
                "param {pi}: numeric {numeric} vs analytic {exact}"
            );
        }
    }
}
