//! The unified [`Sampler`] abstraction.
//!
//! Both ShaDow samplers in this crate — sequential and bulk — implement
//! one object-safe trait, so the training stack treats "which sampler" as
//! configuration, and one sampler serves every DDP rank thread
//! (`Sampler: Send + Sync`).
//!
//! Determinism contract: both entry points are pure functions of their
//! arguments. [`Sampler::sample`] draws only from the caller-seeded
//! `StdRng`; [`Sampler::sample_bulk`] derives one independent stream per
//! stacked batch from the `u64` seed. Any schedule of calls therefore
//! reproduces bit-identically regardless of which thread runs the
//! sampling — the property the golden-curve parity tests pin.
//!
//! Both entry points are infallible: a store fault does not surface
//! here. The sampler reads empty rows from the fault onward, and the
//! caller reads [`SamplerGraph::fault`] after the pass.

use crate::bulk::BulkShadowSampler;
use crate::shadow::ShadowSampler;
use crate::subgraph::{SampledSubgraph, SamplerGraph};
use rand::{rngs::StdRng, RngCore, SeedableRng};

/// Object-safe minibatch sampler interface.
pub trait Sampler: Send + Sync {
    /// Short stable identifier (`"shadow"`, `"bulk-shadow"`, ...).
    fn name(&self) -> &'static str;

    /// Sample one minibatch rooted at `seeds`. Every implementation must
    /// return an empty subgraph for an empty `seeds` slice so DDP shards
    /// shorter than the worker count still produce an (empty) aligned
    /// batch.
    fn sample(&self, graph: &SamplerGraph, seeds: &[u32], rng: &mut StdRng) -> SampledSubgraph;

    /// Sample `batches.len()` minibatches in one call (Eq. 1's k-batch
    /// stacking). The default derives an independent RNG stream per batch
    /// — batch `i` uses `seed.wrapping_add(i)`, so batch 0 reproduces a
    /// single [`Sampler::sample`] call seeded with `seed` — and bulk
    /// implementations override it with a genuinely stacked pass.
    fn sample_bulk(
        &self,
        graph: &SamplerGraph,
        batches: &[Vec<u32>],
        seed: u64,
    ) -> Vec<SampledSubgraph> {
        batches
            .iter()
            .enumerate()
            .map(|(bi, batch)| {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(bi as u64));
                self.sample(graph, batch, &mut rng)
            })
            .collect()
    }
}

impl Sampler for ShadowSampler {
    fn name(&self) -> &'static str {
        "shadow"
    }

    fn sample(&self, graph: &SamplerGraph, seeds: &[u32], rng: &mut StdRng) -> SampledSubgraph {
        self.sample_batch(graph, seeds, rng)
    }
}

impl Sampler for BulkShadowSampler {
    fn name(&self) -> &'static str {
        "bulk-shadow"
    }

    /// A single batch is the `k = 1` case of the stacked pass; the bulk
    /// seed is drawn from the caller's RNG stream.
    fn sample(&self, graph: &SamplerGraph, seeds: &[u32], rng: &mut StdRng) -> SampledSubgraph {
        self.sample_batches(graph, &[seeds.to_vec()], rng.next_u64())
            .pop()
            .expect("one batch in, one subgraph out")
    }

    /// The real matrix-based bulk pass (Eq. 1), not the per-batch default.
    fn sample_bulk(
        &self,
        graph: &SamplerGraph,
        batches: &[Vec<u32>],
        seed: u64,
    ) -> Vec<SampledSubgraph> {
        self.sample_batches(graph, batches, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::ShadowConfig;

    fn grid_graph() -> SamplerGraph {
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for r in 0..4u32 {
            for c in 0..4u32 {
                let v = r * 4 + c;
                if c + 1 < 4 {
                    src.push(v);
                    dst.push(v + 1);
                }
                if r + 1 < 4 {
                    src.push(v);
                    dst.push(v + 4);
                }
            }
        }
        SamplerGraph::new(16, &src, &dst)
    }

    fn all_samplers() -> Vec<Box<dyn Sampler>> {
        vec![
            Box::new(ShadowSampler::new(ShadowConfig {
                depth: 2,
                fanout: 3,
            })),
            Box::new(BulkShadowSampler::new(ShadowConfig {
                depth: 2,
                fanout: 3,
            })),
        ]
    }

    #[test]
    fn every_sampler_is_seed_deterministic_via_trait() {
        let g = grid_graph();
        for s in all_samplers() {
            let a = s.sample(&g, &[0, 5, 10], &mut StdRng::seed_from_u64(11));
            let b = s.sample(&g, &[0, 5, 10], &mut StdRng::seed_from_u64(11));
            assert_eq!(a, b, "{} not deterministic", s.name());
            a.validate(&g);
        }
    }

    #[test]
    fn empty_seed_slice_yields_empty_subgraph() {
        let g = grid_graph();
        for s in all_samplers() {
            let sg = s.sample(&g, &[], &mut StdRng::seed_from_u64(1));
            assert_eq!(sg.num_nodes(), 0, "{}", s.name());
            assert_eq!(sg.num_edges(), 0, "{}", s.name());
        }
    }

    #[test]
    fn default_bulk_matches_per_batch_sampling() {
        let g = grid_graph();
        let s = ShadowSampler::new(ShadowConfig {
            depth: 2,
            fanout: 3,
        });
        let batches = vec![vec![0u32, 5], vec![10u32, 15]];
        let bulk = Sampler::sample_bulk(&s, &g, &batches, 99);
        assert_eq!(bulk.len(), 2);
        for (bi, batch) in batches.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(99u64.wrapping_add(bi as u64));
            let single = Sampler::sample(&s, &g, batch, &mut rng);
            assert_eq!(bulk[bi], single);
        }
    }

    #[test]
    fn bulk_shadow_overrides_bulk_with_stacked_pass() {
        let g = grid_graph();
        let s = BulkShadowSampler::new(ShadowConfig {
            depth: 2,
            fanout: 3,
        });
        let batches = vec![vec![0u32, 5], vec![10u32, 15]];
        let via_trait = Sampler::sample_bulk(&s, &g, &batches, 7);
        let direct = s.sample_batches(&g, &batches, 7);
        assert_eq!(via_trait, direct);
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = all_samplers().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }
}
