//! Stage 1: metric-learning embedding. An MLP maps each hit's features
//! into a low-dimensional space where hits of the same particle land
//! close together (paper §II-A), trained with a contrastive hinge loss on
//! truth pairs.

use crate::train::{EpochCtx, EpochReport, EpochStats, TrainLoop, TrainStep};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::convert::Infallible;
use std::time::Instant;
use trkx_ddp::EpochTiming;
use trkx_detector::Event;
use trkx_nn::{contrastive_hinge_loss, Activation, Adam, Bindings, Mlp, MlpConfig};
use trkx_tensor::{Matrix, Tape};

/// Embedding-stage hyperparameters.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EmbeddingConfig {
    /// Embedding dimension (the space the radius graph is built in).
    pub dim: usize,
    pub hidden: usize,
    pub depth: usize,
    /// Hinge margin on squared distance.
    pub margin: f32,
    pub learning_rate: f32,
    pub epochs: usize,
    /// Negative pairs drawn per positive pair.
    pub negatives_per_positive: usize,
    pub seed: u64,
}

impl Default for EmbeddingConfig {
    fn default() -> Self {
        Self {
            dim: 8,
            hidden: 64,
            depth: 3,
            margin: 1.0,
            learning_rate: 2e-3,
            epochs: 20,
            negatives_per_positive: 2,
            seed: 0,
        }
    }
}

/// Training pairs for one event: truth edges as positives, random
/// cross-particle pairs as negatives.
pub fn build_pairs(
    event: &Event,
    negatives_per_positive: usize,
    rng: &mut impl Rng,
) -> (Vec<u32>, Vec<u32>, Vec<f32>) {
    let truth = event.truth_edges();
    let n = event.num_hits() as u32;
    let mut pi = Vec::new();
    let mut pj = Vec::new();
    let mut labels = Vec::new();
    for &(a, b) in &truth {
        pi.push(a);
        pj.push(b);
        labels.push(1.0);
        for _ in 0..negatives_per_positive {
            // Rejection-sample a pair from different particles.
            for _ in 0..8 {
                let c = rng.gen_range(0..n);
                let d = rng.gen_range(0..n);
                if c == d {
                    continue;
                }
                let same = match (
                    event.hits[c as usize].particle,
                    event.hits[d as usize].particle,
                ) {
                    (Some(x), Some(y)) => x == y,
                    _ => false,
                };
                if !same {
                    pi.push(c);
                    pj.push(d);
                    labels.push(0.0);
                    break;
                }
            }
        }
    }
    (pi, pj, labels)
}

/// The trained embedding stage.
pub struct EmbeddingStage {
    pub mlp: Mlp,
    pub config: EmbeddingConfig,
}

impl EmbeddingStage {
    pub fn new(node_features: usize, config: EmbeddingConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut sizes = vec![node_features];
        sizes.extend(std::iter::repeat_n(
            config.hidden,
            config.depth.saturating_sub(1),
        ));
        sizes.push(config.dim);
        let mlp = Mlp::new(
            MlpConfig::new(&sizes).with_activation(Activation::Tanh),
            "embedding",
            &mut rng,
        );
        Self { mlp, config }
    }

    /// Train on `(event, vertex-feature matrix)` pairs through the unified
    /// [`TrainLoop`]; returns the per-epoch reports.
    pub fn train(&mut self, events: &[(&Event, &Matrix)]) -> Vec<EpochReport> {
        let mut step = EmbeddingTrainStep {
            mlp: &mut self.mlp,
            events,
            rng: StdRng::seed_from_u64(self.config.seed ^ 0xABCD),
            negatives_per_positive: self.config.negatives_per_positive,
            margin: self.config.margin,
        };
        let Ok(reports) =
            TrainLoop::new(Adam::new(self.config.learning_rate), self.config.epochs).run(&mut step);
        reports
    }

    /// Embed a feature matrix (inference).
    pub fn embed(&self, x: &Matrix) -> Matrix {
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        self.embed_with(&mut tape, &mut bind, x)
    }

    /// [`EmbeddingStage::embed`] against a caller-pooled tape/bindings
    /// pair, so repeated inference recycles buffers instead of allocating
    /// fresh ones per call.
    pub fn embed_with(&self, tape: &mut Tape, bind: &mut Bindings, x: &Matrix) -> Matrix {
        tape.reset();
        bind.reset();
        let xv = tape.constant_copied(x);
        let emb = self.mlp.forward(tape, bind, xv);
        tape.value(emb).clone()
    }
}

/// The embedding stage's schedule: one optimizer step per event, with
/// fresh contrastive pairs drawn every epoch.
struct EmbeddingTrainStep<'a> {
    mlp: &'a mut Mlp,
    events: &'a [(&'a Event, &'a Matrix)],
    rng: StdRng,
    negatives_per_positive: usize,
    margin: f32,
}

impl TrainStep for EmbeddingTrainStep<'_> {
    type Error = Infallible;

    fn train_epoch(&mut self, _epoch: usize, ctx: &mut EpochCtx) -> Result<EpochStats, Infallible> {
        let t0 = Instant::now();
        let mut loss_sum = 0.0;
        for (event, x) in self.events {
            let (pi, pj, labels) = build_pairs(event, self.negatives_per_positive, &mut self.rng);
            if pi.is_empty() {
                continue;
            }
            let mlp = &*self.mlp;
            let margin = self.margin;
            loss_sum += ctx.forward_backward(|tape, bind| {
                let xv = tape.constant_copied(x);
                let emb = mlp.forward(tape, bind, xv);
                Some(contrastive_hinge_loss(tape, emb, &pi, &pj, &labels, margin))
            });
            ctx.update(&mut self.mlp.params_mut());
        }
        Ok(EpochStats {
            loss_sum,
            loss_denom: self.events.len(),
            steps: ctx.steps(),
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
    use trkx_detector::{simulate_event, vertex_features, DetectorGeometry, GunConfig};

    fn event_and_features(seed: u64, nf: usize) -> (Event, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ev = simulate_event(
            &DetectorGeometry::default(),
            &GunConfig::default(),
            25,
            0.1,
            &mut rng,
        );
        let x = Matrix::from_vec(ev.num_hits(), nf, vertex_features(&ev, nf));
        (ev, x)
    }

    #[test]
    fn pairs_are_labelled_correctly() {
        let (ev, _) = event_and_features(1, 6);
        let mut rng = StdRng::seed_from_u64(2);
        let (pi, pj, labels) = build_pairs(&ev, 2, &mut rng);
        assert_eq!(pi.len(), pj.len());
        assert_eq!(pi.len(), labels.len());
        for ((&a, &b), &l) in pi.iter().zip(&pj).zip(&labels) {
            let same = match (ev.hits[a as usize].particle, ev.hits[b as usize].particle) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            };
            assert_eq!(l > 0.5, same);
        }
        // Both classes present.
        assert!(labels.iter().any(|&l| l > 0.5));
        assert!(labels.iter().any(|&l| l < 0.5));
    }

    #[test]
    fn training_reduces_loss_and_separates() {
        let (ev, x) = event_and_features(3, 6);
        let mut cfg = EmbeddingConfig {
            epochs: 1,
            seed: 5,
            ..Default::default()
        };
        let mut stage = EmbeddingStage::new(6, cfg.clone());
        let first = stage.train(&[(&ev, &x)]).last().unwrap().train_loss;
        cfg.epochs = 30;
        let mut stage = EmbeddingStage::new(6, cfg);
        let last = stage.train(&[(&ev, &x)]).last().unwrap().train_loss;
        assert!(last < first, "loss did not drop: {first} -> {last}");

        // Same-particle pairs end up closer than random pairs on average.
        let emb = stage.embed(&x);
        let truth = ev.truth_edges();
        let d2 = |a: u32, b: u32| -> f32 {
            emb.row(a as usize)
                .iter()
                .zip(emb.row(b as usize))
                .map(|(p, q)| (p - q) * (p - q))
                .sum()
        };
        let pos_mean: f32 = truth.iter().map(|&(a, b)| d2(a, b)).sum::<f32>() / truth.len() as f32;
        let mut rng = StdRng::seed_from_u64(7);
        let n = ev.num_hits() as u32;
        let neg_mean: f32 = (0..200)
            .map(|_| d2(rng.gen_range(0..n), rng.gen_range(0..n)))
            .sum::<f32>()
            / 200.0;
        assert!(
            pos_mean < neg_mean * 0.6,
            "positive mean {pos_mean} not well below negative mean {neg_mean}"
        );
    }

    #[test]
    fn embed_shape() {
        let (_, x) = event_and_features(9, 6);
        let stage = EmbeddingStage::new(6, EmbeddingConfig::default());
        let emb = stage.embed(&x);
        assert_eq!(emb.shape(), (x.rows(), 8));
    }
}
