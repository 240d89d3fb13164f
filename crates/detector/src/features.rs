//! Vertex and edge feature construction matching the paper's dataset
//! dimensions (Table I: CTD = 14 vertex / 8 edge features, Ex3 = 6 / 2).
//!
//! The first features are the physical coordinates used by the real
//! acorn datasets (cylindrical r, φ, z and derived quantities); the
//! remaining CTD-like channels emulate calorimetric/cluster information
//! with deterministic pseudo-measurements so feature dimensionality and
//! scale match without storing extra state.

use crate::event::{wrap_phi, Event, Hit};

/// Deterministic per-hit pseudo-measurement in `[0, 1)` (splitmix64-style
/// hash of the hit index and a channel tag) — stands in for cell/cluster
/// channels the real detector would provide.
fn pseudo_channel(hit_idx: usize, channel: u64) -> f32 {
    let mut x = (hit_idx as u64).wrapping_mul(0x9E3779B97F4A7C15)
        ^ channel.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 31;
    (x >> 40) as f32 / (1u64 << 24) as f32
}

/// Vertex features per hit (CTD width).
const VERTEX_FEATURES: usize = 14;
/// Edge features per edge (CTD width).
const EDGE_FEATURES: usize = 8;

/// Append hit `idx`'s first `n` features to `out`.
fn hit_features(h: &Hit, idx: usize, geometry_max_r: f32, n: usize, out: &mut Vec<f32>) {
    let r = h.r();
    let phi = h.phi();
    let eta = h.eta();
    // Ordered by information content; truncated to n.
    let all: [f32; VERTEX_FEATURES] = [
        r / geometry_max_r,
        phi / std::f32::consts::PI,
        h.z,
        h.x,
        h.y,
        eta,
        phi.cos(),
        phi.sin(),
        (h.layer as f32 + 1.0) / 10.0,
        if r > 0.0 {
            (h.z / r).clamp(-5.0, 5.0)
        } else {
            0.0
        },
        pseudo_channel(idx, 1), // cluster charge
        pseudo_channel(idx, 2), // cluster width φ
        pseudo_channel(idx, 3), // cluster width z
        pseudo_channel(idx, 4), // timing
    ];
    out.extend_from_slice(&all[..n]);
}

/// Row-major `num_hits x n` vertex feature matrix.
pub fn vertex_features(event: &Event, n: usize) -> Vec<f32> {
    assert!(
        n <= VERTEX_FEATURES,
        "at most {VERTEX_FEATURES} vertex features supported"
    );
    let max_r = event.geometry.layer_radii.last().copied().unwrap_or(1.0);
    let mut out = Vec::with_capacity(event.num_hits() * n);
    for (i, h) in event.hits.iter().enumerate() {
        hit_features(h, i, max_r, n, &mut out);
    }
    out
}

/// Append the first `n` features of the edge `hi → hj` to `out`. The
/// Ex3 width (2) stops before the radial and η differences.
fn pair_features(hi: &Hit, hj: &Hit, n: usize, out: &mut Vec<f32>) {
    let dphi = wrap_phi(hj.phi() - hi.phi());
    let dz = hj.z - hi.z;
    if n <= 2 {
        out.extend_from_slice(&[dphi, dz][..n]);
        return;
    }
    let dr = hj.r() - hi.r();
    let deta = hj.eta() - hi.eta();
    let d_rphi = (deta * deta + dphi * dphi).sqrt();
    let all: [f32; EDGE_FEATURES] = [
        dphi,
        dz,
        dr,
        d_rphi,
        hj.x - hi.x,
        hj.y - hi.y,
        deta,
        // Curvature proxy: φ change per unit radial step.
        if dr.abs() > 1e-6 { dphi / dr } else { 0.0 },
    ];
    out.extend_from_slice(&all[..n]);
}

/// Row-major `num_edges x n` edge feature matrix for directed edges
/// `(src[i], dst[i])`.
pub fn edge_features(event: &Event, src: &[u32], dst: &[u32], n: usize) -> Vec<f32> {
    assert_eq!(src.len(), dst.len(), "edge arrays length mismatch");
    assert!(
        n <= EDGE_FEATURES,
        "at most {EDGE_FEATURES} edge features supported"
    );
    let mut out = Vec::with_capacity(src.len() * n);
    for (&s, &d) in src.iter().zip(dst) {
        pair_features(
            &event.hits[s as usize],
            &event.hits[d as usize],
            n,
            &mut out,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{simulate_event, DetectorGeometry};
    use crate::particle::GunConfig;
    use rand::{rngs::StdRng, SeedableRng};

    fn event() -> Event {
        let mut rng = StdRng::seed_from_u64(1);
        simulate_event(
            &DetectorGeometry::default(),
            &GunConfig::default(),
            20,
            0.1,
            &mut rng,
        )
    }

    #[test]
    fn vertex_feature_shapes() {
        let ev = event();
        for n in [3usize, 6, 14] {
            let f = vertex_features(&ev, n);
            assert_eq!(f.len(), ev.num_hits() * n);
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_vertex_features_panics() {
        let ev = event();
        let _ = vertex_features(&ev, 15);
    }

    #[test]
    fn edge_feature_shapes_and_antisymmetry() {
        let ev = event();
        let g = crate::event::candidate_graph(&ev, 0.2, 0.3);
        for n in [2usize, 8] {
            let f = edge_features(&ev, &g.src, &g.dst, n);
            assert_eq!(f.len(), g.num_edges() * n);
        }
        // dphi and dz flip sign when the edge is reversed.
        if g.num_edges() > 0 {
            let fwd = edge_features(&ev, &g.src[..1], &g.dst[..1], 2);
            let rev = edge_features(&ev, &g.dst[..1], &g.src[..1], 2);
            assert!((fwd[0] + rev[0]).abs() < 1e-5);
            assert!((fwd[1] + rev[1]).abs() < 1e-5);
        }
    }

    #[test]
    fn every_width_is_the_prefix_of_the_full_rows() {
        let ev = event();
        let g = crate::event::candidate_graph(&ev, 0.2, 0.3);
        assert!(g.num_edges() > 0);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let full = vertex_features(&ev, VERTEX_FEATURES);
        for n in 0..=VERTEX_FEATURES {
            let f = vertex_features(&ev, n);
            for (row, whole) in f.chunks(n.max(1)).zip(full.chunks(VERTEX_FEATURES)) {
                assert_eq!(bits(row), bits(&whole[..n]), "vertex n={n}");
            }
            assert_eq!(f.len(), ev.num_hits() * n);
        }
        let full = edge_features(&ev, &g.src, &g.dst, EDGE_FEATURES);
        for n in 0..=EDGE_FEATURES {
            let f = edge_features(&ev, &g.src, &g.dst, n);
            for (row, whole) in f.chunks(n.max(1)).zip(full.chunks(EDGE_FEATURES)) {
                assert_eq!(bits(row), bits(&whole[..n]), "edge n={n}");
            }
            assert_eq!(f.len(), g.num_edges() * n);
        }
    }

    #[test]
    fn pseudo_channels_are_deterministic_and_uniform() {
        let a = pseudo_channel(42, 1);
        assert_eq!(a, pseudo_channel(42, 1));
        assert_ne!(a, pseudo_channel(43, 1));
        assert_ne!(a, pseudo_channel(42, 2));
        let mean: f32 = (0..1000).map(|i| pseudo_channel(i, 1)).sum::<f32>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn features_are_order_one_scale() {
        let ev = event();
        let f = vertex_features(&ev, 14);
        let max = f.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(max < 10.0, "feature magnitude {max}");
    }
}
