//! Stage 2: fixed-radius nearest-neighbour graph construction in the
//! learned embedding space (paper §II-A). Also reports how much of the
//! truth survives construction — edges the radius graph misses can never
//! be recovered downstream.
//!
//! [`GraphConstructor`] is the one way to build a graph: it holds a
//! reusable [`trkx_graph::GraphIndex`] (the cell-grid FRNN engine, pinned
//! bit for bit to the brute-force oracle, see `trkx_graph::radius`) plus
//! the edge/key scratch buffers, so per-event construction in a serving
//! loop allocates nothing once warm. Truth labelling is a sorted-merge
//! join over packed `(src << 32) | dst` keys instead of per-edge hash
//! probes.

use trkx_detector::Event;
use trkx_graph::GraphIndex;
use trkx_tensor::Matrix;

/// How stage 2 connects hits in embedding space: fixed-radius, the
/// paper's description.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ConstructionMethod {
    /// Connect pairs within `radius`.
    FixedRadius { radius: f32 },
}

/// A constructed candidate-edge graph with truth labels and construction
/// quality metrics.
#[derive(Debug, Clone)]
pub struct ConstructedGraph {
    /// Directed edges, inner layer → outer layer.
    pub src: Vec<u32>,
    pub dst: Vec<u32>,
    /// 1.0 where the pair is a truth track edge.
    pub labels: Vec<f32>,
    /// Fraction of truth edges present among the candidates.
    pub edge_efficiency: f64,
    /// Fraction of candidates that are truth edges.
    pub edge_purity: f64,
}

impl ConstructedGraph {
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }
}

#[inline]
fn pack(s: u32, d: u32) -> u64 {
    (u64::from(s) << 32) | u64::from(d)
}

/// Pooled stage-2 engine: one spatial index plus edge/key scratch,
/// rebuilt per event with retained capacity. Hold one per worker and
/// call [`GraphConstructor::construct`] per event; steady-state
/// construction allocates only the output `ConstructedGraph` vectors.
#[derive(Debug, Default)]
pub struct GraphConstructor {
    index: GraphIndex,
    /// Raw undirected `(i, j)` pairs from the index, `i < j`.
    edges: Vec<(u32, u32)>,
    /// Packed oriented edge keys + candidate indices for the merge join.
    keys: Vec<(u64, u32)>,
    /// Sorted, deduplicated packed truth-edge keys.
    truth_keys: Vec<u64>,
}

impl GraphConstructor {
    /// Stage 2 for one event: candidate edges (oriented inner→outer by
    /// layer, same-layer pairs dropped — a particle crosses each barrel
    /// layer once) with merge-joined truth labels.
    pub fn construct(
        &mut self,
        event: &Event,
        embeddings: &Matrix,
        method: ConstructionMethod,
    ) -> ConstructedGraph {
        assert_eq!(embeddings.rows(), event.num_hits(), "one embedding per hit");
        let dim = embeddings.cols();
        let ConstructionMethod::FixedRadius { radius } = method;
        self.index.rebuild(embeddings.data(), dim, radius);
        self.index.radius_edges_into(radius, &mut self.edges);
        self.load_truth(event);

        // Orient candidates by layer.
        let mut src = Vec::with_capacity(self.edges.len());
        let mut dst = Vec::with_capacity(self.edges.len());
        for &(a, b) in &self.edges {
            let (la, lb) = (event.hits[a as usize].layer, event.hits[b as usize].layer);
            let (s, d) = match la.cmp(&lb) {
                std::cmp::Ordering::Less => (a, b),
                std::cmp::Ordering::Greater => (b, a),
                std::cmp::Ordering::Equal => continue,
            };
            src.push(s);
            dst.push(d);
        }

        // Label by sorted-merge join of packed keys against the truth.
        let mut labels = vec![0.0f32; src.len()];
        self.keys.clear();
        self.keys.extend(
            src.iter()
                .zip(&dst)
                .enumerate()
                .map(|(i, (&s, &d))| (pack(s, d), i as u32)),
        );
        self.keys.sort_unstable();
        let mut found = 0usize;
        let mut t = 0usize;
        for &(key, idx) in &self.keys {
            while t < self.truth_keys.len() && self.truth_keys[t] < key {
                t += 1;
            }
            if t < self.truth_keys.len() && self.truth_keys[t] == key {
                labels[idx as usize] = 1.0;
                found += 1;
            }
        }
        let edge_efficiency = if self.truth_keys.is_empty() {
            1.0
        } else {
            found as f64 / self.truth_keys.len() as f64
        };
        let edge_purity = if labels.is_empty() {
            1.0
        } else {
            found as f64 / labels.len() as f64
        };
        ConstructedGraph {
            src,
            dst,
            labels,
            edge_efficiency,
            edge_purity,
        }
    }

    /// Choose the smallest radius achieving at least `target_efficiency`
    /// (bisection). The index is built **once** and queried at every
    /// bisection midpoint — binning only routes candidates, so queries
    /// at any radius are exact — and each probe runs the count-only
    /// merge join, allocating nothing.
    pub fn tune_radius(
        &mut self,
        event: &Event,
        embeddings: &Matrix,
        target_efficiency: f64,
        max_radius: f32,
    ) -> f32 {
        assert_eq!(embeddings.rows(), event.num_hits(), "one embedding per hit");
        let dim = embeddings.cols();
        // Cell hint at half the search midpoint keeps grid sweeps tight
        // for the radii the bisection actually probes.
        self.index
            .rebuild(embeddings.data(), dim, 0.25 * max_radius);
        self.load_truth(event);
        let (mut lo, mut hi) = (1e-4f32, max_radius);
        for _ in 0..20 {
            let mid = 0.5 * (lo + hi);
            self.index.radius_edges_into(mid, &mut self.edges);
            let eff = self.efficiency_of_edges(event);
            if eff < target_efficiency {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Sorted, deduplicated truth keys for the current event.
    fn load_truth(&mut self, event: &Event) {
        self.truth_keys.clear();
        self.truth_keys
            .extend(event.truth_edges().into_iter().map(|(s, d)| pack(s, d)));
        self.truth_keys.sort_unstable();
        self.truth_keys.dedup();
    }

    /// Count-only efficiency of `self.edges` against the loaded truth
    /// (orientation + merge join, no label vector).
    fn efficiency_of_edges(&mut self, event: &Event) -> f64 {
        if self.truth_keys.is_empty() {
            return 1.0;
        }
        self.keys.clear();
        for &(a, b) in &self.edges {
            let (la, lb) = (event.hits[a as usize].layer, event.hits[b as usize].layer);
            let key = match la.cmp(&lb) {
                std::cmp::Ordering::Less => pack(a, b),
                std::cmp::Ordering::Greater => pack(b, a),
                std::cmp::Ordering::Equal => continue,
            };
            self.keys.push((key, 0));
        }
        self.keys.sort_unstable();
        let mut found = 0usize;
        let mut t = 0usize;
        for &(key, _) in &self.keys {
            while t < self.truth_keys.len() && self.truth_keys[t] < key {
                t += 1;
            }
            if t < self.truth_keys.len() && self.truth_keys[t] == key {
                found += 1;
            }
        }
        found as f64 / self.truth_keys.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trkx_detector::{simulate_event, DetectorGeometry, GunConfig};
    use trkx_graph::radius_graph_brute;

    /// One event through a throwaway constructor.
    fn build(event: &Event, embeddings: &Matrix, radius: f32) -> ConstructedGraph {
        let method = ConstructionMethod::FixedRadius { radius };
        GraphConstructor::default().construct(event, embeddings, method)
    }

    /// Hit coordinates as a 3-d embedding.
    fn xyz_embedding(ev: &Event) -> Matrix {
        Matrix::from_fn(ev.num_hits(), 3, |r, c| {
            let h = &ev.hits[r];
            [h.x, h.y, h.z][c]
        })
    }

    fn event(seed: u64) -> Event {
        let mut rng = StdRng::seed_from_u64(seed);
        simulate_event(
            &DetectorGeometry::default(),
            &GunConfig::default(),
            20,
            0.1,
            &mut rng,
        )
    }

    /// An oracle embedding: each particle at its own location, noise far
    /// away — radius graph recovers exactly the truth tracks as cliques.
    fn oracle_embedding(ev: &Event) -> Matrix {
        Matrix::from_fn(ev.num_hits(), 2, |r, c| match ev.hits[r].particle {
            Some(p) => {
                let angle = p as f32 * 2.399; // golden-angle spread
                if c == 0 {
                    10.0 * angle.cos()
                } else {
                    10.0 * angle.sin()
                }
            }
            None => 1000.0 + r as f32 * 50.0,
        })
    }

    #[test]
    fn oracle_embedding_gives_full_efficiency() {
        let ev = event(1);
        let emb = oracle_embedding(&ev);
        let g = build(&ev, &emb, 0.5);
        assert_eq!(g.edge_efficiency, 1.0, "missed truth edges");
        // Candidates are only intra-particle pairs; purity below 1 solely
        // from non-consecutive layer pairs within a particle clique.
        assert!(g.edge_purity > 0.2);
        for ((&s, &d), &l) in g.src.iter().zip(&g.dst).zip(&g.labels) {
            assert!(ev.hits[s as usize].layer < ev.hits[d as usize].layer);
            let same = ev.hits[s as usize].particle == ev.hits[d as usize].particle;
            assert!(same, "cross-particle candidate from oracle embedding");
            let _ = l;
        }
    }

    #[test]
    fn zero_radius_finds_nothing() {
        // All-distinct embedding points: a tiny radius links nothing.
        let ev = event(2);
        let emb = Matrix::from_fn(ev.num_hits(), 2, |r, c| (r * 2 + c) as f32);
        let g = build(&ev, &emb, 1e-6);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edge_efficiency, 0.0);
    }

    #[test]
    fn radius_monotonically_increases_efficiency() {
        let ev = event(3);
        let emb = xyz_embedding(&ev);
        let e_small = build(&ev, &emb, 0.05).edge_efficiency;
        let e_large = build(&ev, &emb, 0.5).edge_efficiency;
        assert!(e_large >= e_small);
    }

    #[test]
    fn tune_radius_hits_target() {
        let ev = event(4);
        let emb = xyz_embedding(&ev);
        let r = GraphConstructor::default().tune_radius(&ev, &emb, 0.9, 2.0);
        let g = build(&ev, &emb, r);
        assert!(
            g.edge_efficiency >= 0.88,
            "efficiency {} at r {r}",
            g.edge_efficiency
        );
    }

    #[test]
    fn constructed_graph_matches_brute_oracle() {
        let ev = event(7);
        let emb = xyz_embedding(&ev);
        let got = build(&ev, &emb, 0.3);
        let truth: std::collections::HashSet<_> = ev.truth_edges().into_iter().collect();
        let (mut src, mut dst, mut labels) = (Vec::new(), Vec::new(), Vec::new());
        for (a, b) in radius_graph_brute(emb.data(), 3, 0.3) {
            let (la, lb) = (ev.hits[a as usize].layer, ev.hits[b as usize].layer);
            if la == lb {
                continue;
            }
            let (s, d) = if la < lb { (a, b) } else { (b, a) };
            src.push(s);
            dst.push(d);
            labels.push(if truth.contains(&(s, d)) { 1.0 } else { 0.0 });
        }
        assert!(!src.is_empty());
        assert_eq!(got.src, src);
        assert_eq!(got.dst, dst);
        assert_eq!(got.labels, labels);
    }

    #[test]
    fn pooled_constructor_matches_throwaway_across_events() {
        let mut pooled = GraphConstructor::default();
        for seed in 10..14 {
            let ev = event(seed);
            let emb = xyz_embedding(&ev);
            let a = pooled.construct(&ev, &emb, ConstructionMethod::FixedRadius { radius: 0.25 });
            let b = build(&ev, &emb, 0.25);
            assert_eq!(a.src, b.src, "seed {seed}");
            assert_eq!(a.dst, b.dst, "seed {seed}");
            assert_eq!(a.labels, b.labels, "seed {seed}");
        }
    }

    #[test]
    fn pooled_tune_radius_matches_throwaway() {
        let ev = event(4);
        let emb = xyz_embedding(&ev);
        let fresh = GraphConstructor::default().tune_radius(&ev, &emb, 0.9, 2.0);
        // A constructor warm from another event and radius.
        let other = event(5);
        let mut pooled = GraphConstructor::default();
        pooled.construct(
            &other,
            &xyz_embedding(&other),
            ConstructionMethod::FixedRadius { radius: 0.7 },
        );
        assert_eq!(pooled.tune_radius(&ev, &emb, 0.9, 2.0), fresh);
    }
}
