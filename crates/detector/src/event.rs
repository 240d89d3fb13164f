//! Event simulation: particles propagated through a cylindrical barrel
//! detector, Gaussian hit smearing, noise hits, truth edges, and the
//! doublet candidate-graph builder that produces the GNN input graphs.

use crate::helix::Helix;
use crate::particle::{GunConfig, Particle};
use rand::Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// An endcap disk: a plane at `z` instrumented over an annulus.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Disk {
    pub z: f32,
    pub r_min: f32,
    pub r_max: f32,
}

/// Cylindrical barrel detector description, optionally with endcap disks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectorGeometry {
    /// Barrel layer radii in metres, strictly increasing.
    pub layer_radii: Vec<f32>,
    /// Half-length of the barrel along z (acceptance window).
    pub half_length: f32,
    /// Solenoid field in Tesla.
    pub b_field: f32,
    /// Gaussian σ of hit position smearing (metres), applied in φ and z.
    pub hit_sigma: f32,
    /// Probability that a layer crossing produces a recorded hit
    /// (detector inefficiency; 1.0 = perfect).
    pub hit_efficiency: f32,
    /// Endcap disks (empty by default; layer ids continue after the
    /// barrel, ordered as given — keep them sorted by |z|).
    pub disks: Vec<Disk>,
}

impl Default for DetectorGeometry {
    fn default() -> Self {
        Self {
            layer_radii: vec![0.032, 0.072, 0.116, 0.172, 0.26, 0.36, 0.5, 0.66, 0.82, 1.0],
            half_length: 1.2,
            b_field: 2.0,
            hit_sigma: 5e-4,
            hit_efficiency: 1.0,
            disks: Vec::new(),
        }
    }
}

impl DetectorGeometry {
    /// Total number of instrumented layers (barrel + disks).
    pub fn num_layers(&self) -> usize {
        self.layer_radii.len() + self.disks.len()
    }
}

/// A recorded detector hit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hit {
    pub x: f32,
    pub y: f32,
    pub z: f32,
    /// Layer index: `0..B` for barrel layers, `B..B+D` for endcap disks.
    pub layer: u32,
    /// Generating particle, `None` for noise hits.
    pub particle: Option<u32>,
    /// Transverse arc length along the generating track (ordering key
    /// for truth edges; 0 for noise hits).
    pub t: f32,
}

impl Hit {
    /// Transverse radius.
    pub fn r(&self) -> f32 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Azimuth in `(-π, π]`.
    pub fn phi(&self) -> f32 {
        self.y.atan2(self.x)
    }

    /// Pseudorapidity of the hit position.
    pub fn eta(&self) -> f32 {
        let r = self.r();
        if r == 0.0 {
            0.0
        } else {
            (self.z / r).asinh()
        }
    }
}

/// One collision event: hits plus generation metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Event {
    pub hits: Vec<Hit>,
    pub num_particles: usize,
    pub geometry: DetectorGeometry,
}

impl Event {
    pub fn num_hits(&self) -> usize {
        self.hits.len()
    }

    /// Signal hit indices in one stable sort by (particle, `t`): each
    /// particle's hits form one run, ordered along the track, with equal
    /// (or NaN) times in hit order.
    fn hits_along_tracks(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.hits.len() as u32)
            .filter(|&i| self.hits[i as usize].particle.is_some())
            .collect();
        order.sort_by(|&a, &b| {
            let (ha, hb) = (&self.hits[a as usize], &self.hits[b as usize]);
            ha.particle.cmp(&hb.particle).then(ha.t.total_cmp(&hb.t))
        });
        order
    }

    fn same_particle(&self, a: u32, b: u32) -> bool {
        self.hits[a as usize].particle == self.hits[b as usize].particle
    }

    /// Ground-truth track edges: consecutive-layer hit pairs of the same
    /// particle, directed inner → outer.
    pub fn truth_edges(&self) -> Vec<(u32, u32)> {
        let mut edges: Vec<(u32, u32)> = self
            .hits_along_tracks()
            .windows(2)
            .filter(|w| self.same_particle(w[0], w[1]))
            .map(|w| (w[0], w[1]))
            .collect();
        edges.sort_unstable();
        edges
    }

    /// Hit indices of each particle's track, sorted by layer.
    pub fn truth_tracks(&self) -> Vec<Vec<u32>> {
        let mut tracks: Vec<Vec<u32>> = self
            .hits_along_tracks()
            .chunk_by(|&a, &b| self.same_particle(a, b))
            .map(<[u32]>::to_vec)
            .collect();
        tracks.sort();
        tracks
    }
}

/// Simulate one event: `n_particles` from `gun`, plus
/// `noise_fraction · signal_hits` uniform noise hits.
pub fn simulate_event(
    geometry: &DetectorGeometry,
    gun: &GunConfig,
    n_particles: usize,
    noise_fraction: f32,
    rng: &mut impl Rng,
) -> Event {
    let smear = Normal::new(0.0f32, geometry.hit_sigma).expect("valid sigma");
    let mut hits = Vec::new();
    let n_barrel = geometry.layer_radii.len() as u32;
    for pid in 0..n_particles {
        let particle: Particle = gun.sample(rng);
        let helix = Helix::from_particle(&particle, geometry.b_field);
        // Barrel crossings (inside the acceptance window) plus endcap
        // crossings (inside the disk annulus), ordered along the track.
        let mut crossings: Vec<(u32, f32, f32, f32, f32)> = Vec::new();
        for (layer, &r) in geometry.layer_radii.iter().enumerate() {
            let Some((x, y, z, arc)) = helix.at_radius(r) else {
                break;
            };
            if z.abs() > geometry.half_length {
                break;
            }
            crossings.push((layer as u32, x, y, z, arc));
        }
        for (d, disk) in geometry.disks.iter().enumerate() {
            if let Some((x, y, z, arc)) = helix.at_z(disk.z) {
                let r = (x * x + y * y).sqrt();
                if r >= disk.r_min && r <= disk.r_max {
                    crossings.push((n_barrel + d as u32, x, y, z, arc));
                }
            }
        }
        crossings.sort_by(|a, b| a.4.partial_cmp(&b.4).unwrap());
        for (layer, x, y, z, arc) in crossings {
            // Detector inefficiency: the particle crossed, but no hit was
            // recorded (the track continues regardless).
            if geometry.hit_efficiency < 1.0 && !rng.gen_bool(geometry.hit_efficiency as f64) {
                continue;
            }
            // Smear along the sensitive surface: rotate slightly in φ,
            // shift z (barrel) — a shared approximation for disks too.
            let r = (x * x + y * y).sqrt().max(1e-6);
            let dphi = smear.sample(rng) / r;
            let phi = y.atan2(x) + dphi;
            hits.push(Hit {
                x: r * phi.cos(),
                y: r * phi.sin(),
                z: z + smear.sample(rng),
                layer,
                particle: Some(pid as u32),
                t: arc,
            });
        }
    }
    let n_noise = (hits.len() as f32 * noise_fraction).round() as usize;
    for _ in 0..n_noise {
        let layer = rng.gen_range(0..geometry.num_layers());
        let phi = rng.gen_range(-std::f32::consts::PI..std::f32::consts::PI);
        let (r, z) = if layer < geometry.layer_radii.len() {
            (
                geometry.layer_radii[layer],
                rng.gen_range(-geometry.half_length..geometry.half_length),
            )
        } else {
            let disk = &geometry.disks[layer - geometry.layer_radii.len()];
            (rng.gen_range(disk.r_min..disk.r_max), disk.z)
        };
        hits.push(Hit {
            x: r * phi.cos(),
            y: r * phi.sin(),
            z,
            layer: layer as u32,
            particle: None,
            t: 0.0,
        });
    }
    Event {
        hits,
        num_particles: n_particles,
        geometry: geometry.clone(),
    }
}

/// A candidate doublet graph over an event's hits: directed edges from
/// inner-layer to adjacent outer-layer hits within an azimuthal window,
/// labelled 1.0 when both hits belong to the same particle.
#[derive(Debug, Clone)]
pub struct CandidateGraph {
    pub src: Vec<u32>,
    pub dst: Vec<u32>,
    /// 1.0 = true track edge, 0.0 = fake.
    pub labels: Vec<f32>,
}

impl CandidateGraph {
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }

    /// Fraction of true edges.
    pub fn positive_fraction(&self) -> f32 {
        if self.labels.is_empty() {
            0.0
        } else {
            self.labels.iter().sum::<f32>() / self.labels.len() as f32
        }
    }

    /// Edge list as pairs.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        self.src
            .iter()
            .copied()
            .zip(self.dst.iter().copied())
            .collect()
    }
}

/// Wrapped azimuthal difference in `(-π, π]`.
pub fn wrap_phi(dphi: f32) -> f32 {
    let mut d = dphi;
    while d > std::f32::consts::PI {
        d -= 2.0 * std::f32::consts::PI;
    }
    while d <= -std::f32::consts::PI {
        d += 2.0 * std::f32::consts::PI;
    }
    d
}

/// Hit indices bucketed by layer, each bucket sorted by φ for windowed
/// scanning.
fn layer_buckets(event: &Event) -> Vec<Vec<(f32, u32)>> {
    let mut by_layer: Vec<Vec<(f32, u32)>> = vec![Vec::new(); event.geometry.num_layers()];
    for (i, h) in event.hits.iter().enumerate() {
        by_layer[h.layer as usize].push((h.phi(), i as u32));
    }
    for bucket in &mut by_layer {
        bucket.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    }
    by_layer
}

/// Call `edge(i, j)` for every doublet of [`candidate_graph`], in its
/// order: each hit `i` on layer `l` against the hits `j` on layer `l+1`
/// with `|Δφ| <= phi_window` (wrapping at ±π) and `|Δz| <= z_window`.
fn scan_candidates(
    event: &Event,
    by_layer: &[Vec<(f32, u32)>],
    phi_window: f32,
    z_window: f32,
    mut edge: impl FnMut(u32, u32),
) {
    use std::f32::consts::PI;
    for pair in by_layer.windows(2) {
        let (inner, outer) = (&pair[0], &pair[1]);
        if outer.is_empty() {
            continue;
        }
        for &(phi_i, i) in inner {
            let zi = event.hits[i as usize].z;
            let mut push = |j: u32| {
                // Written as the rejection so that a NaN Δz keeps the edge.
                if (event.hits[j as usize].z - zi).abs() > z_window {
                    return;
                }
                edge(i, j);
            };
            // Binary search the φ-sorted outer bucket, then scan the
            // window in both directions with wraparound.
            let start = outer.partition_point(|&(p, _)| p < phi_i - phi_window);
            for &(phi_j, j) in &outer[start..] {
                if phi_j > phi_i + phi_window {
                    break;
                }
                push(j);
            }
            // Wraparound near ±π.
            if phi_i + phi_window > PI {
                let lim = phi_i + phi_window - 2.0 * PI;
                for &(phi_j, j) in outer.iter() {
                    if phi_j > lim {
                        break;
                    }
                    push(j);
                }
            }
            if phi_i - phi_window < -PI {
                let lim = phi_i - phi_window + 2.0 * PI;
                for &(phi_j, j) in outer.iter().rev() {
                    if phi_j < lim {
                        break;
                    }
                    push(j);
                }
            }
        }
    }
}

/// Build the doublet candidate graph: connect each hit on layer `l` to
/// hits on layer `l+1` with `|Δφ| <= phi_window` and `|Δz| <= z_window`.
pub fn candidate_graph(event: &Event, phi_window: f32, z_window: f32) -> CandidateGraph {
    let mut g = CandidateGraph {
        src: Vec::new(),
        dst: Vec::new(),
        labels: Vec::new(),
    };
    let by_layer = layer_buckets(event);
    scan_candidates(event, &by_layer, phi_window, z_window, |i, j| {
        let label = match (
            event.hits[i as usize].particle,
            event.hits[j as usize].particle,
        ) {
            (Some(a), Some(b)) if a == b => 1.0,
            _ => 0.0,
        };
        g.src.push(i);
        g.dst.push(j);
        g.labels.push(label);
    });
    g
}

/// Find the φ window that makes `candidate_graph` produce approximately
/// `target_ratio` edges per vertex (bisection; z window fixed). The hits
/// are bucketed once, and each probe counts its edges with the same scan
/// `candidate_graph` runs, building none of them: the first probe's
/// window is π/2, hundreds of edges per vertex on a dense event.
pub fn tune_phi_window(event: &Event, z_window: f32, target_ratio: f32) -> f32 {
    let n = event.num_hits().max(1) as f32;
    let by_layer = layer_buckets(event);
    let (mut lo, mut hi) = (1e-4f32, std::f32::consts::PI);
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        let mut edges = 0usize;
        scan_candidates(event, &by_layer, mid, z_window, |_, _| edges += 1);
        let ratio = edges as f32 / n;
        if ratio < target_ratio {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Barrel plus two symmetric endcap stations per side, just beyond
    /// the barrel half-length (forward tracks keep producing hits after
    /// leaving the barrel acceptance).
    fn endcap_geometry() -> DetectorGeometry {
        let mut g = DetectorGeometry::default();
        let (r_min, r_max) = (0.05, 0.95);
        for z in [1.3f32, 1.6, -1.3, -1.6] {
            g.disks.push(Disk { z, r_min, r_max });
        }
        g
    }

    fn small_event(seed: u64) -> Event {
        let geom = DetectorGeometry::default();
        let gun = GunConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        simulate_event(&geom, &gun, 50, 0.1, &mut rng)
    }

    #[test]
    fn hits_lie_on_layers() {
        let ev = small_event(1);
        for h in &ev.hits {
            let r = h.r();
            let nearest = ev
                .geometry
                .layer_radii
                .iter()
                .map(|&lr| (lr - r).abs())
                .fold(f32::INFINITY, f32::min);
            assert!(nearest < 1e-3, "hit at r {r} not on any layer");
            assert!(h.z.abs() <= ev.geometry.half_length + 0.01);
        }
    }

    #[test]
    fn truth_edges_connect_consecutive_layers_of_same_particle() {
        let ev = small_event(2);
        let edges = ev.truth_edges();
        assert!(!edges.is_empty());
        for &(a, b) in &edges {
            let (ha, hb) = (&ev.hits[a as usize], &ev.hits[b as usize]);
            assert_eq!(ha.particle, hb.particle);
            assert!(ha.particle.is_some());
            assert!(hb.layer > ha.layer);
        }
    }

    #[test]
    fn truth_tracks_cover_all_signal_hits() {
        let ev = small_event(3);
        let tracks = ev.truth_tracks();
        let covered: usize = tracks.iter().map(|t| t.len()).sum();
        let signal = ev.hits.iter().filter(|h| h.particle.is_some()).count();
        assert_eq!(covered, signal);
        // Layers strictly increase along each track.
        for t in &tracks {
            for w in t.windows(2) {
                assert!(ev.hits[w[1] as usize].layer > ev.hits[w[0] as usize].layer);
            }
        }
    }

    #[test]
    fn nan_hit_times_sort_last_instead_of_panicking() {
        // A served event whose JSON carries `"t": null` parses to NaN.
        let hit = |t: f32| Hit {
            x: 0.1,
            y: 0.0,
            z: 0.0,
            layer: 0,
            particle: Some(0),
            t,
        };
        let ev = Event {
            hits: vec![hit(f32::NAN), hit(0.5), hit(f32::NAN), hit(0.2)],
            num_particles: 1,
            geometry: DetectorGeometry::default(),
        };
        assert_eq!(ev.truth_tracks(), vec![vec![3, 1, 0, 2]]);
        assert_eq!(ev.truth_edges(), vec![(0, 2), (1, 0), (3, 1)]);
    }

    #[test]
    fn candidate_graph_contains_most_truth_edges() {
        let ev = small_event(4);
        let g = candidate_graph(&ev, 0.3, 0.3);
        let candidates: std::collections::HashSet<(u32, u32)> = g.edges().into_iter().collect();
        let truth = ev.truth_edges();
        // Adjacent-layer truth edges should almost all be candidates
        // (only multi-layer skips are excluded by construction).
        let adjacent: Vec<_> = truth
            .iter()
            .filter(|&&(a, b)| ev.hits[b as usize].layer == ev.hits[a as usize].layer + 1)
            .collect();
        let found = adjacent
            .iter()
            .filter(|&&&e| candidates.contains(&e))
            .count();
        assert!(
            found as f32 >= 0.95 * adjacent.len() as f32,
            "only {found}/{} adjacent truth edges are candidates",
            adjacent.len()
        );
    }

    #[test]
    fn labels_match_particle_identity() {
        let ev = small_event(5);
        let g = candidate_graph(&ev, 0.2, 0.2);
        for ((&s, &d), &l) in g.src.iter().zip(&g.dst).zip(&g.labels) {
            let same = match (ev.hits[s as usize].particle, ev.hits[d as usize].particle) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            };
            assert_eq!(l > 0.5, same);
        }
    }

    #[test]
    fn wider_window_more_edges() {
        let ev = small_event(6);
        let narrow = candidate_graph(&ev, 0.05, 0.5).num_edges();
        let wide = candidate_graph(&ev, 0.5, 0.5).num_edges();
        assert!(wide > narrow);
    }

    #[test]
    fn tune_phi_window_hits_target() {
        let ev = small_event(7);
        let target = 4.0;
        let w = tune_phi_window(&ev, 0.5, target);
        let ratio = candidate_graph(&ev, w, 0.5).num_edges() as f32 / ev.num_hits() as f32;
        assert!(
            (ratio - target).abs() / target < 0.25,
            "ratio {ratio} for target {target}"
        );
    }

    #[test]
    fn tune_phi_window_is_pinned_on_three_events() {
        // Windows the tuner returned when it still built each probe's
        // graph, as f32 bits: counting the same scan must not move them.
        use crate::DatasetConfig;
        for (cfg, particles, seed, bits) in [
            (DatasetConfig::ctd_like(0.002), 60, 1, 0x3fb0_3adc),
            (DatasetConfig::ctd_like(0.01), 300, 2, 0x3e8b_21e5),
            (DatasetConfig::ex3_like(0.1), 120, 3, 0x3dec_66f1),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let ev = simulate_event(
                &cfg.geometry,
                &cfg.gun,
                particles,
                cfg.noise_fraction,
                &mut rng,
            );
            let w = tune_phi_window(&ev, cfg.z_window, cfg.edge_ratio());
            assert_eq!(w.to_bits(), bits, "{}: window {w}", cfg.name);
        }
    }

    /// Each particle's hits found by a scan over every hit and ordered by
    /// an insertion sort on `t` (stable: ties keep hit order).
    fn brute_force_truth(ev: &Event) -> (Vec<(u32, u32)>, Vec<Vec<u32>>) {
        let (mut edges, mut tracks) = (Vec::new(), Vec::new());
        let max = ev.hits.iter().filter_map(|h| h.particle).max();
        for p in max.map_or(0..0, |m| 0..m + 1) {
            let mut hits: Vec<u32> = (0..ev.hits.len() as u32)
                .filter(|&i| ev.hits[i as usize].particle == Some(p))
                .collect();
            let t = |i: u32| ev.hits[i as usize].t;
            for i in 1..hits.len() {
                let mut j = i;
                while j > 0 && t(hits[j - 1]).total_cmp(&t(hits[j])).is_gt() {
                    hits.swap(j - 1, j);
                    j -= 1;
                }
            }
            if !hits.is_empty() {
                edges.extend(hits.windows(2).map(|w| (w[0], w[1])));
                tracks.push(hits);
            }
        }
        edges.sort();
        tracks.sort();
        (edges, tracks)
    }

    #[test]
    fn truth_edges_and_tracks_match_a_brute_force_reference() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let geometry = if seed % 3 == 0 {
                endcap_geometry()
            } else {
                DetectorGeometry::default()
            };
            let particles = 5 + (seed as usize * 7) % 40;
            let mut ev = simulate_event(&geometry, &GunConfig::default(), particles, 0.3, &mut rng);
            // Shuffle the hits so hit order is not particle order, round
            // `t` coarsely on every other event so that one particle's
            // hits tie, and make a few times NaN.
            for i in (1..ev.hits.len()).rev() {
                ev.hits.swap(i, rng.gen_range(0..=i));
            }
            for (k, h) in ev.hits.iter_mut().enumerate() {
                if seed % 2 == 1 {
                    h.t = (h.t * 2.0).round() / 2.0;
                }
                if k % 17 == 5 {
                    h.t = f32::NAN;
                }
            }
            let ties = ev.hits.iter().enumerate().any(|(i, a)| {
                ev.hits[i + 1..]
                    .iter()
                    .any(|b| a.particle.is_some() && a.particle == b.particle && a.t == b.t)
            });
            assert_eq!(ties, seed % 2 == 1, "seed {seed}: ties in t");
            assert!(ev.hits.iter().any(|h| h.particle.is_none()), "no noise");
            let (edges, tracks) = brute_force_truth(&ev);
            assert_eq!(ev.truth_edges(), edges, "seed {seed}: truth edges");
            assert_eq!(ev.truth_tracks(), tracks, "seed {seed}: truth tracks");
        }
    }

    #[test]
    fn wrap_phi_stays_in_range() {
        for d in [-7.0f32, -3.2, -0.1, 0.0, 3.2, 9.9] {
            let w = wrap_phi(d);
            assert!(w > -std::f32::consts::PI - 1e-6 && w <= std::f32::consts::PI + 1e-6);
            // Same angle modulo 2π.
            assert!(((d - w) / (2.0 * std::f32::consts::PI)).fract().abs() < 1e-5);
        }
    }

    #[test]
    fn hit_inefficiency_drops_hits() {
        let gun = GunConfig::default();
        let mut geom = DetectorGeometry::default();
        let mut rng = StdRng::seed_from_u64(21);
        let full = simulate_event(&geom, &gun, 200, 0.0, &mut rng);
        geom.hit_efficiency = 0.8;
        let mut rng = StdRng::seed_from_u64(21);
        let lossy = simulate_event(&geom, &gun, 200, 0.0, &mut rng);
        let ratio = lossy.num_hits() as f64 / full.num_hits() as f64;
        assert!((0.74..0.86).contains(&ratio), "hit survival ratio {ratio}");
        // Tracks with gaps still have valid truth: consecutive recorded
        // hits of one particle, layers strictly increasing.
        for t in lossy.truth_tracks() {
            for w in t.windows(2) {
                assert!(lossy.hits[w[1] as usize].layer > lossy.hits[w[0] as usize].layer);
            }
        }
    }

    #[test]
    fn endcap_disks_record_forward_hits() {
        let geom = endcap_geometry();
        let n_barrel = geom.layer_radii.len() as u32;
        // Forward-going gun: high |eta| so tracks exit through the endcaps.
        let gun = GunConfig {
            eta_max: 1.2,
            pt_min: 1.0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(31);
        let ev = simulate_event(&geom, &gun, 300, 0.0, &mut rng);
        let disk_hits: Vec<&Hit> = ev.hits.iter().filter(|h| h.layer >= n_barrel).collect();
        assert!(!disk_hits.is_empty(), "no endcap hits recorded");
        for h in &disk_hits {
            let disk = &geom.disks[(h.layer - n_barrel) as usize];
            assert!((h.z - disk.z).abs() < 5e-3, "disk hit off-plane: z {}", h.z);
            let r = h.r();
            assert!(
                r >= disk.r_min - 0.01 && r <= disk.r_max + 0.01,
                "r {r} outside annulus"
            );
        }
    }

    #[test]
    fn truth_order_follows_arc_length_with_endcaps() {
        let geom = endcap_geometry();
        let gun = GunConfig {
            eta_max: 1.2,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(32);
        let ev = simulate_event(&geom, &gun, 100, 0.0, &mut rng);
        for track in ev.truth_tracks() {
            for w in track.windows(2) {
                assert!(
                    ev.hits[w[1] as usize].t >= ev.hits[w[0] as usize].t,
                    "track not ordered by arc length"
                );
            }
        }
    }

    #[test]
    fn barrel_only_geometry_is_unchanged_by_endcap_support() {
        // Barrel-only simulation still produces only barrel layer ids and
        // truth edges identical in structure (monotone layers).
        let geom = DetectorGeometry::default();
        assert!(geom.disks.is_empty());
        assert_eq!(geom.num_layers(), geom.layer_radii.len());
        let mut rng = StdRng::seed_from_u64(33);
        let ev = simulate_event(&geom, &GunConfig::default(), 40, 0.1, &mut rng);
        assert!(ev
            .hits
            .iter()
            .all(|h| (h.layer as usize) < geom.layer_radii.len()));
        for &(a, b) in &ev.truth_edges() {
            assert!(ev.hits[b as usize].layer > ev.hits[a as usize].layer);
        }
    }

    #[test]
    fn noise_fraction_controls_noise_hits() {
        let geom = DetectorGeometry::default();
        let gun = GunConfig::default();
        let mut rng = StdRng::seed_from_u64(8);
        let ev = simulate_event(&geom, &gun, 100, 0.2, &mut rng);
        let noise = ev.hits.iter().filter(|h| h.particle.is_none()).count();
        let signal = ev.num_hits() - noise;
        let frac = noise as f32 / signal as f32;
        assert!((frac - 0.2).abs() < 0.02, "noise fraction {frac}");
    }
}
