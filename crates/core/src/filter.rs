//! Stage 3: the edge-filter MLP. Before the memory-intensive GNN, a
//! cheap MLP classifies each candidate edge from its endpoint and edge
//! features and removes confident fakes, shrinking the graph the GNN
//! must hold in memory (paper §II-A).

use crate::gnn_stage::PreparedGraph;
use crate::train::{Engine, EpochReport, EpochStats, TrainLoop, TrainStep};
use rand::{rngs::StdRng, SeedableRng};
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;
use trkx_ddp::EpochTiming;
use trkx_nn::{
    bce_with_logits, Activation, Adam, BinaryStats, Bindings, Eager, Exec, Mlp, MlpConfig, Recorder,
};
use trkx_tensor::{Matrix, Op, Tape, Var};

/// Filter-stage hyperparameters.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FilterConfig {
    pub hidden: usize,
    pub depth: usize,
    pub learning_rate: f32,
    pub epochs: usize,
    /// Keep edges with `sigmoid(logit) > threshold`. Low thresholds keep
    /// recall high — losing a true edge here is unrecoverable.
    pub threshold: f32,
    pub pos_weight: f32,
    pub seed: u64,
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            depth: 3,
            learning_rate: 2e-3,
            epochs: 15,
            threshold: 0.1,
            pos_weight: 4.0,
            seed: 0,
        }
    }
}

/// The trained filter stage.
pub struct FilterStage {
    pub mlp: Mlp,
    pub config: FilterConfig,
}

impl FilterStage {
    pub fn new(node_features: usize, edge_features: usize, config: FilterConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let input = 2 * node_features + edge_features;
        let mut sizes = vec![input];
        sizes.extend(std::iter::repeat_n(
            config.hidden,
            config.depth.saturating_sub(1),
        ));
        sizes.push(1);
        let mlp = Mlp::new(
            MlpConfig::new(&sizes).with_activation(Activation::Relu),
            "filter",
            &mut rng,
        );
        Self { mlp, config }
    }

    /// Forward pass over raw matrices and edge arrays, on any executor.
    /// Training and [`FilterStage::logits_with`] pass a
    /// [`PreparedGraph`]'s; the serving path passes an event's candidate
    /// graph, which never materialises one (no sampler view, no edge plans
    /// needed here). The MLP's input `[X[src] X[dst] Y]` is a view: its
    /// first GEMM reads the endpoint rows of `X` through `src` and `dst`
    /// and `Y` where they lie. Inference runs the MLP a window of edges
    /// at a time ([`Exec::map_rows`]).
    pub fn forward<'p, E: Exec<'p>>(
        &'p self,
        ex: &mut E,
        x: &'p Matrix,
        y: &'p Matrix,
        src: Arc<Vec<u32>>,
        dst: Arc<Vec<u32>>,
    ) -> Var {
        let x = ex.input(x);
        let y = ex.input(y);
        let xs = ex.view(Op::Gather { a: x.0, idx: src });
        let xd = ex.view(Op::Gather { a: x.0, idx: dst });
        let input = ex.concat_cols(&[xs, xd, y]);
        let logits = ex.map_rows(input, None, |ex, rows| self.mlp.forward(ex, rows));
        for v in [x, y] {
            ex.release(v);
        }
        logits
    }

    /// Train over the given graphs through the unified [`TrainLoop`];
    /// returns the per-epoch reports.
    pub fn train(&mut self, graphs: &[PreparedGraph]) -> Vec<EpochReport> {
        let lr = self.config.learning_rate;
        let epochs = self.config.epochs;
        let mut step = FilterTrainStep {
            stage: self,
            graphs,
        };
        let Ok(reports) = TrainLoop::new(Adam::new(lr), epochs).run(&mut step);
        reports
    }

    /// Per-edge logits (inference) on the eager executor over `tape`'s
    /// pool (repeated inference recycles buffers; see
    /// [`crate::infer_logits_with`]).
    pub fn logits_with(&self, tape: &mut Tape, bind: &mut Bindings, g: &PreparedGraph) -> Vec<f32> {
        bind.reset();
        let mut ex = Eager::new(tape);
        let (src, dst) = (Arc::clone(&g.src), Arc::clone(&g.dst));
        let logits = self.forward(&mut ex, &g.x, &g.y, src, dst);
        ex.value(logits).data().to_vec()
    }

    /// Logit threshold corresponding to the configured probability cut.
    pub fn logit_cut(&self) -> f32 {
        let p = self.config.threshold.clamp(1e-6, 1.0 - 1e-6);
        (p / (1.0 - p)).ln()
    }

    /// Indices of edges passing the threshold, against a caller-pooled
    /// tape/bindings pair.
    pub fn kept_edges_with(
        &self,
        tape: &mut Tape,
        bind: &mut Bindings,
        g: &PreparedGraph,
    ) -> Vec<usize> {
        let cut = self.logit_cut();
        self.logits_with(tape, bind, g)
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > cut)
            .map(|(i, _)| i)
            .collect()
    }

    /// Validation metrics at the configured threshold.
    pub fn evaluate(&self, graphs: &[PreparedGraph]) -> BinaryStats {
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let mut stats = BinaryStats::default();
        for g in graphs {
            stats.merge(&BinaryStats::from_logits(
                &self.logits_with(&mut tape, &mut bind, g),
                &g.labels,
                self.config.threshold,
            ));
        }
        stats
    }
}

/// The filter stage's schedule: one optimizer step per prepared graph.
struct FilterTrainStep<'a> {
    stage: &'a mut FilterStage,
    graphs: &'a [PreparedGraph],
}

impl TrainStep for FilterTrainStep<'_> {
    type Error = Infallible;

    fn train_epoch(
        &mut self,
        _epoch: usize,
        engine: &mut Engine,
    ) -> Result<EpochStats, Infallible> {
        let t0 = Instant::now();
        let (mut loss_sum, mut steps) = (0.0, 0);
        for g in self.graphs {
            if g.labels.is_empty() {
                continue;
            }
            let stage = &*self.stage;
            loss_sum += engine.forward_backward(|tape, bind| {
                let (src, dst) = (Arc::clone(&g.src), Arc::clone(&g.dst));
                let logits = stage.forward(&mut Recorder::new(tape, bind), &g.x, &g.y, src, dst);
                Some(bce_with_logits(
                    tape,
                    logits,
                    &g.labels,
                    stage.config.pos_weight,
                ))
            });
            engine.update(&mut self.stage.mlp.params_mut());
            steps += 1;
        }
        Ok(EpochStats {
            loss_sum,
            loss_denom: self.graphs.len(),
            steps,
            timing: EpochTiming {
                train_s: t0.elapsed().as_secs_f64(),
                ..Default::default()
            },
            cache: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnn_stage::prepare_graphs;
    use trkx_detector::DatasetConfig;

    fn small_graphs() -> Vec<PreparedGraph> {
        let cfg = DatasetConfig::ex3_like(0.02);
        prepare_graphs(&cfg.generate(2, 31))
    }

    #[test]
    fn filter_learns_to_separate() {
        let graphs = small_graphs();
        let cfg = FilterConfig {
            epochs: 25,
            ..Default::default()
        };
        let mut stage = FilterStage::new(6, 2, cfg);
        let loss = stage.train(&graphs).last().unwrap().train_loss;
        assert!(loss.is_finite());
        let stats = stage.evaluate(&graphs);
        // Must beat the trivial keep-everything policy on precision while
        // keeping high recall at the low threshold.
        let base_rate = graphs
            .iter()
            .flat_map(|g| g.labels.iter())
            .filter(|&&l| l > 0.5)
            .count() as f64
            / graphs.iter().map(|g| g.labels.len()).sum::<usize>() as f64;
        assert!(stats.recall() > 0.9, "recall {}", stats.recall());
        assert!(
            stats.precision() > base_rate,
            "precision {} <= base rate {base_rate}",
            stats.precision()
        );
    }

    #[test]
    fn kept_edges_shrink_graph_but_keep_truth() {
        let graphs = small_graphs();
        let cfg = FilterConfig {
            epochs: 25,
            ..Default::default()
        };
        let mut stage = FilterStage::new(6, 2, cfg);
        stage.train(&graphs);
        for g in &graphs {
            let kept = stage.kept_edges_with(&mut Tape::new(), &mut Bindings::new(), g);
            assert!(kept.len() < g.num_edges(), "filter removed nothing");
            // Most truth edges survive.
            let kept_set: std::collections::HashSet<usize> = kept.iter().copied().collect();
            let truth_total = g.labels.iter().filter(|&&l| l > 0.5).count();
            let truth_kept = g
                .labels
                .iter()
                .enumerate()
                .filter(|(i, &l)| l > 0.5 && kept_set.contains(i))
                .count();
            assert!(
                truth_kept as f64 >= 0.85 * truth_total as f64,
                "only {truth_kept}/{truth_total} truth edges kept"
            );
        }
    }

    #[test]
    fn logit_count_matches_edges() {
        let graphs = small_graphs();
        let stage = FilterStage::new(6, 2, FilterConfig::default());
        let logits = stage.logits_with(&mut Tape::new(), &mut Bindings::new(), &graphs[0]);
        assert_eq!(logits.len(), graphs[0].num_edges());
    }
}
