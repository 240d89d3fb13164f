//! Seeded inputs. Everything a workload feeds the system is derived from
//! `--seed` here; the system under test only ever sees the generated
//! values.
//!
//! Event sizes are frozen, not redrawn per seed: `DatasetConfig::generate`
//! jitters the multiplicity by ±10 % per event and re-tunes the φ window
//! on one calibration event per seed, which moved edge counts (and every
//! timing that scales with them) by ~20 % from seed to seed — wider than
//! any regression bound. The draws below keep the family's geometry, gun,
//! noise and feature code and fix the two numbers `generate` would have
//! calibrated (`particles`, `phi_window`, averaged over 40 calibration
//! events), so seeds change *which* particles fly, not how many. What
//! variation is left (edge counts still move ±3 % with where the
//! particles land) is cut by a stratified draw: four candidates are
//! simulated per graph wanted and the ones whose edge count is nearest
//! the family's target are kept.

use rand::{rngs::StdRng, Rng, SeedableRng};
use trkx_core::{
    train_pipeline, EmbeddingConfig, FilterConfig, GnnTrainConfig, PipelineConfig, SamplerKind,
    TrainedPipeline,
};
use trkx_detector::{
    simulate_event, DatasetConfig, DetectorGeometry, Event, EventGraph, GunConfig,
};
use trkx_sampling::ShadowConfig;

/// A dataset family at a frozen size.
#[derive(Debug, Clone, Copy)]
pub struct Draw {
    pub family: Family,
    pub scale: f64,
    /// Particles per event (what `calibrate_particles` would estimate).
    pub particles: usize,
    /// φ window of the candidate graph (what `tune_phi_window` would find).
    pub phi_window: f32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Ctd,
    Ex3,
}

/// CTD-like at scale 0.0015: ~500 vertices, ~10.3 k edges (20.9 per
/// vertex, the family's ratio), 14 + 8 features.
pub const CTD_SMALL: Draw = Draw {
    family: Family::Ctd,
    scale: 0.0015,
    particles: 44,
    phi_window: 1.945_832_8,
};

/// Ex3-like at scale 0.1: ~1.3 k vertices, ~4.8 k edges, 6 + 2 features.
pub const EX3_TENTH: Draw = Draw {
    family: Family::Ex3,
    scale: 0.1,
    particles: 121,
    phi_window: 0.120_297_46,
};

/// Ex3-like at full scale: ~13.0 k vertices, ~47.8 k edges.
pub const EX3_FULL: Draw = Draw {
    family: Family::Ex3,
    scale: 1.0,
    particles: 1207,
    phi_window: 0.014_585_995,
};

/// Candidates simulated per graph kept by [`Draw::graphs`].
const CANDIDATES_PER_GRAPH: usize = 4;

impl Draw {
    pub fn config(&self) -> DatasetConfig {
        match self.family {
            Family::Ctd => DatasetConfig::ctd_like(self.scale),
            Family::Ex3 => DatasetConfig::ex3_like(self.scale),
        }
    }

    /// `n` event graphs, a pure function of the seed: of `4 n` simulated
    /// candidates, the `n` whose edge count is nearest the family's
    /// target, in candidate order.
    pub fn graphs(&self, n: usize, seed: u64) -> Vec<EventGraph> {
        let cfg = self.config();
        let mut candidates: Vec<(usize, EventGraph)> = (0..n * CANDIDATES_PER_GRAPH)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(mix(seed, i as u64));
                let event = simulate_event(
                    &cfg.geometry,
                    &cfg.gun,
                    self.particles,
                    cfg.noise_fraction,
                    &mut rng,
                );
                (i, cfg.graph_of(event, self.phi_window))
            })
            .collect();
        candidates.sort_by_key(|(i, g)| (g.num_edges().abs_diff(cfg.target_edges), *i));
        candidates.truncate(n);
        candidates.sort_by_key(|(i, _)| *i);
        candidates.into_iter().map(|(_, g)| g).collect()
    }
}

/// Independent stream `i` of `seed` (splitmix64 finaliser).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` raw detector events of `particles` particles each (the serving
/// tier's request payloads and the bundle's training set).
pub fn events(n: usize, particles: usize, seed: u64) -> Vec<Event> {
    let geometry = DetectorGeometry::default();
    let gun = GunConfig::default();
    (0..n)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(mix(seed, i as u64));
            simulate_event(&geometry, &gun, particles, 0.1, &mut rng)
        })
        .collect()
}

/// Open-loop arrival schedule: due times in seconds for a Poisson process
/// of `rate_per_s` over `[0, horizon_s)`, conditioned on its count being
/// the expected one — given the count, Poisson arrival times are
/// independent uniform draws, so these are exactly that, sorted. Fixing
/// the count keeps the offered load identical across seeds (a free count
/// moves it by ±3 % at 1000 requests); the bursts and gaps that make an
/// open loop what it is stay. A pure function of the seed.
pub fn arrival_schedule(rate_per_s: f64, horizon_s: f64, seed: u64) -> Vec<f64> {
    let n = (rate_per_s * horizon_s).round() as usize;
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xA441));
    let mut due: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * horizon_s).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// Particles per served event (≈ 270 hits).
pub const SERVE_PARTICLES: usize = 25;
/// Events the serving bundle is trained on, plus one for validation.
pub const SERVE_TRAIN_EVENTS: usize = 6;

/// Seed of the served model: its training events, initial weights and
/// batch order. The model is part of the serving workload's
/// configuration, like its layer count; `--seed` draws the traffic (which
/// events arrive, and when). A model retrained per seed prunes a
/// different share of edges each time, and latency then moves ±30 %
/// between seeds for reasons that are not the server's.
pub const SERVE_MODEL_SEED: u64 = 1234;

/// The served model's configuration: the paper's five stages at a size
/// that trains in about a second (set-up is repeated three times a run)
/// and still reconstructs ~70 % of tracks, IGNN the largest stage.
pub fn serve_pipeline_config() -> PipelineConfig {
    let seed = SERVE_MODEL_SEED;
    PipelineConfig {
        embedding: EmbeddingConfig {
            epochs: 15,
            seed,
            ..Default::default()
        },
        filter: FilterConfig {
            epochs: 15,
            seed,
            ..Default::default()
        },
        gnn: GnnTrainConfig {
            hidden: 16,
            gnn_layers: 3,
            epochs: 4,
            batch_size: 128,
            shadow: ShadowConfig {
                depth: 2,
                fanout: 4,
            },
            seed,
            ..Default::default()
        },
        gnn_sampler: SamplerKind::Bulk { k: 4 },
        ..Default::default()
    }
}

/// Train the served pipeline.
pub fn train_serve_pipeline() -> TrainedPipeline {
    let all = events(
        SERVE_TRAIN_EVENTS + 1,
        SERVE_PARTICLES,
        mix(SERVE_MODEL_SEED, 0x7EA1),
    );
    let (train, val) = all.split_at(SERVE_TRAIN_EVENTS);
    train_pipeline(serve_pipeline_config(), train, val).0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Where the frozen `particles` / `phi_window` numbers come from:
    /// `cargo test --release calibrate -- --ignored --nocapture` prints
    /// what `DatasetConfig::generate` would calibrate, averaged over 40
    /// events instead of taken from one.
    #[test]
    #[ignore = "prints calibration constants; run by hand when a Draw is added"]
    fn calibrate_draws() {
        for draw in [CTD_SMALL, EX3_TENTH, EX3_FULL] {
            let (cfg, family, scale) = (draw.config(), draw.family, draw.scale);
            let rounds = 40u64;
            let mut hits_per_particle = 0.0;
            for s in 0..rounds {
                let mut rng = StdRng::seed_from_u64(1000 + s);
                let e = simulate_event(&cfg.geometry, &cfg.gun, 256, cfg.noise_fraction, &mut rng);
                hits_per_particle += e.num_hits() as f64 / 256.0 / rounds as f64;
            }
            let particles = (cfg.target_vertices as f64 / hits_per_particle).round() as usize;
            let mut window = 0.0;
            for s in 0..rounds {
                let mut rng = StdRng::seed_from_u64(2000 + s);
                let e = simulate_event(
                    &cfg.geometry,
                    &cfg.gun,
                    particles,
                    cfg.noise_fraction,
                    &mut rng,
                );
                window += f64::from(trkx_detector::tune_phi_window(
                    &e,
                    cfg.z_window,
                    cfg.edge_ratio(),
                )) / rounds as f64;
            }
            println!("{family:?} x{scale}: particles {particles} phi_window {window}");
        }
    }

    #[test]
    fn arrival_schedule_is_seeded_with_a_fixed_count_and_poisson_gaps() {
        let a = arrival_schedule(50.0, 80.0, 3);
        assert_eq!(a, arrival_schedule(50.0, 80.0, 3));
        assert_ne!(a, arrival_schedule(50.0, 80.0, 4));
        assert_eq!(
            a.len(),
            4000,
            "the count is the expected one, for every seed"
        );
        assert_eq!(arrival_schedule(50.0, 80.0, 4).len(), 4000);
        assert!(a.windows(2).all(|w| w[1] >= w[0]), "due times ascend");
        assert!(a[0] >= 0.0 && *a.last().unwrap() < 80.0);
        // Exponential gaps: the share below the mean gap is 1 - 1/e.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let below = gaps.iter().filter(|&&g| g < 1.0 / 50.0).count() as f64 / gaps.len() as f64;
        assert!((below - 0.632).abs() < 0.03, "share below mean {below}");
    }

    #[test]
    fn draws_repeat_per_seed_and_hold_their_size() {
        let a = EX3_TENTH.graphs(2, 5);
        let b = EX3_TENTH.graphs(2, 5);
        assert_eq!(a[1].src, b[1].src);
        assert_eq!(a[0].x, b[0].x);
        let c = EX3_TENTH.graphs(1, 6);
        assert_ne!(a[0].src, c[0].src);
        for g in a.iter().chain(&c) {
            assert_eq!(g.event.num_particles, EX3_TENTH.particles);
            let target = EX3_TENTH.config().target_vertices as f64;
            assert!((g.num_nodes as f64 / target - 1.0).abs() < 0.1);
        }
    }
}
