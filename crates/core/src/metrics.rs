//! Track-level evaluation metrics: efficiency/purity for the end-to-end
//! pipeline (edge-level precision/recall, Figure 4's y-axes, is
//! [`trkx_nn::BinaryStats`]).

/// Track-level reconstruction quality under double-majority matching: a
/// reconstructed component matches a truth particle when (a) more than
/// half the component's hits come from that particle and (b) the
/// component contains more than half of the particle's hits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackMetrics {
    /// Truth particles with ≥ `min_hits` hits.
    pub num_true_tracks: usize,
    /// Reconstructed components with ≥ `min_hits` hits.
    pub num_reco_tracks: usize,
    /// Matched (double-majority) pairs.
    pub num_matched: usize,
}

impl TrackMetrics {
    /// Fraction of truth tracks reconstructed.
    pub fn efficiency(&self) -> f64 {
        if self.num_true_tracks == 0 {
            1.0
        } else {
            self.num_matched as f64 / self.num_true_tracks as f64
        }
    }

    /// Fraction of reconstructed tracks that match a truth particle.
    pub fn purity(&self) -> f64 {
        if self.num_reco_tracks == 0 {
            1.0
        } else {
            self.num_matched as f64 / self.num_reco_tracks as f64
        }
    }

    pub fn merge(&mut self, other: &TrackMetrics) {
        self.num_true_tracks += other.num_true_tracks;
        self.num_reco_tracks += other.num_reco_tracks;
        self.num_matched += other.num_matched;
    }
}

/// Match reconstructed components against truth particles.
///
/// `component_of_hit[i]`: reco component label of hit `i`;
/// `particle_of_hit[i]`: truth particle of hit `i` (`None` = noise);
/// `min_hits`: minimum track length counted on both sides (3 is typical).
pub fn match_tracks(
    component_of_hit: &[u32],
    particle_of_hit: &[Option<u32>],
    min_hits: usize,
) -> TrackMetrics {
    assert_eq!(component_of_hit.len(), particle_of_hit.len());
    use std::collections::HashMap;
    let mut particle_hits: HashMap<u32, usize> = HashMap::new();
    for p in particle_of_hit.iter().flatten() {
        *particle_hits.entry(*p).or_insert(0) += 1;
    }
    let mut component_hits: HashMap<u32, usize> = HashMap::new();
    let mut overlap: HashMap<(u32, u32), usize> = HashMap::new();
    for (&c, p) in component_of_hit.iter().zip(particle_of_hit) {
        *component_hits.entry(c).or_insert(0) += 1;
        if let Some(p) = p {
            *overlap.entry((c, *p)).or_insert(0) += 1;
        }
    }
    let num_true_tracks = particle_hits.values().filter(|&&n| n >= min_hits).count();
    let num_reco_tracks = component_hits.values().filter(|&&n| n >= min_hits).count();
    let mut matched_particles = std::collections::HashSet::new();
    for (&(c, p), &o) in &overlap {
        let ch = component_hits[&c];
        let ph = particle_hits[&p];
        if ch >= min_hits && ph >= min_hits && 2 * o > ch && 2 * o > ph {
            matched_particles.insert(p);
        }
    }
    TrackMetrics {
        num_true_tracks,
        num_reco_tracks,
        num_matched: matched_particles.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_reconstruction() {
        // Two particles, three hits each, components equal particles.
        let comp = [0u32, 0, 0, 1, 1, 1];
        let part = [Some(7u32), Some(7), Some(7), Some(9), Some(9), Some(9)];
        let m = match_tracks(&comp, &part, 3);
        assert_eq!(
            m,
            TrackMetrics {
                num_true_tracks: 2,
                num_reco_tracks: 2,
                num_matched: 2
            }
        );
        assert_eq!(m.efficiency(), 1.0);
        assert_eq!(m.purity(), 1.0);
    }

    #[test]
    fn merged_tracks_fail_double_majority() {
        // One component swallowing two particles: neither particle holds
        // a majority of the merged component.
        let comp = [0u32; 6];
        let part = [Some(1u32), Some(1), Some(1), Some(2), Some(2), Some(2)];
        let m = match_tracks(&comp, &part, 3);
        assert_eq!(m.num_matched, 0);
        assert_eq!(m.efficiency(), 0.0);
    }

    #[test]
    fn split_track_fails_containment() {
        // Particle split across two components of 2 hits each (below
        // min_hits) plus one of 2: no reco track long enough.
        let comp = [0u32, 0, 1, 1];
        let part: Vec<Option<u32>> = vec![Some(5); 4];
        let m = match_tracks(&comp, &part, 3);
        assert_eq!(m.num_true_tracks, 1);
        assert_eq!(m.num_reco_tracks, 0);
        assert_eq!(m.num_matched, 0);
    }

    #[test]
    fn noise_does_not_create_true_tracks() {
        let comp = [0u32, 0, 0, 0];
        let part = [Some(1u32), Some(1), Some(1), None];
        let m = match_tracks(&comp, &part, 3);
        // Component has 4 hits, 3 from particle 1: 2*3 > 4 and 2*3 > 3.
        assert_eq!(m.num_matched, 1);
        assert_eq!(m.num_true_tracks, 1);
    }

    #[test]
    fn degenerate_metrics() {
        let m = TrackMetrics {
            num_true_tracks: 0,
            num_reco_tracks: 0,
            num_matched: 0,
        };
        assert_eq!(m.efficiency(), 1.0);
        assert_eq!(m.purity(), 1.0);
    }
}
