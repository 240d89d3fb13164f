//! Property tests for the unified [`Sampler`] trait: both ShaDow
//! samplers, driven through the same interface over random seeded graphs,
//! must (a) produce subgraphs that pass structural validation against the
//! parent — one component per batch vertex, in batch order — and (b)
//! carry edge ids that round-trip to the original `(src, dst)` endpoint
//! pair; `sample_bulk` must be a pure function of `(graph, batches, seed)`.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use trkx_sampling::{
    BulkShadowSampler, SampledSubgraph, Sampler, SamplerGraph, ShadowConfig, ShadowSampler,
};
use trkx_sparse::StoreError;

#[path = "support/faulty_store.rs"]
mod faulty_store;
use faulty_store::{faulty_graph, Fault, STORE_NAME};

/// Random simple digraph: n vertices, unique non-loop edges.
fn graph_strategy() -> impl Strategy<Value = SamplerGraph> {
    (4usize..24).prop_flat_map(|n| {
        proptest::collection::btree_set((0u32..n as u32, 0u32..n as u32), 1..n * 3).prop_map(
            move |edges| {
                let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
                let src: Vec<u32> = edges.iter().map(|e| e.0).collect();
                let dst: Vec<u32> = edges.iter().map(|e| e.1).collect();
                SamplerGraph::new(n, &src, &dst)
            },
        )
    })
}

/// Both samplers, behind the trait.
fn all_samplers() -> Vec<Box<dyn Sampler>> {
    let shadow = ShadowConfig {
        depth: 2,
        fanout: 3,
    };
    vec![
        Box::new(ShadowSampler::new(shadow)),
        Box::new(BulkShadowSampler::new(shadow)),
    ]
}

/// Every sampled edge's id must name the parent edge with exactly the
/// endpoints the subgraph claims (in original vertex numbering).
fn assert_edge_ids_round_trip(sg: &SampledSubgraph, endpoints: &[(u32, u32)]) {
    for ((&s, &d), &id) in sg.sub_src.iter().zip(&sg.sub_dst).zip(&sg.orig_edge_ids) {
        let (os, od) = (sg.node_map[s as usize], sg.node_map[d as usize]);
        assert_eq!(
            endpoints[id as usize],
            (os, od),
            "edge id {id} maps to {:?}, subgraph claims ({os},{od})",
            endpoints[id as usize]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_sampler_validates_and_round_trips(g in graph_strategy(), seed in 0u64..100) {
        let endpoints = g.edge_endpoints();
        let batch: Vec<u32> = (0..g.num_nodes.min(4) as u32).collect();
        for sampler in all_samplers() {
            let sg = sampler.sample(&g, &batch, &mut StdRng::seed_from_u64(seed));
            sg.validate(&g);
            assert_edge_ids_round_trip(&sg, &endpoints);
        }
    }

    #[test]
    fn every_sampler_bulk_is_deterministic(g in graph_strategy(), seed in 0u64..100) {
        let n = g.num_nodes as u32;
        let batches: Vec<Vec<u32>> = vec![
            (0..n.min(3)).collect(),
            (n.min(3)..n.min(6)).collect(),
        ];
        let batches: Vec<Vec<u32>> =
            batches.into_iter().filter(|b| !b.is_empty()).collect();
        for sampler in all_samplers() {
            let a = sampler.sample_bulk(&g, &batches, seed);
            let b = sampler.sample_bulk(&g, &batches, seed);
            prop_assert_eq!(a.len(), batches.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x, y);
                x.validate(&g);
            }
        }
    }

    #[test]
    fn empty_seed_lists_yield_empty_subgraphs(g in graph_strategy(), seed in 0u64..20) {
        // DDP shards can be empty; every sampler must return an empty
        // subgraph rather than panic so ranks stay step-aligned.
        for sampler in all_samplers() {
            let sg = sampler.sample(&g, &[], &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(sg.num_nodes(), 0);
            prop_assert_eq!(sg.num_edges(), 0);
            sg.validate(&g);
        }
    }
}

#[test]
fn a_store_fault_is_recorded_once_and_every_later_row_reads_empty() {
    // A ring with chords: every walk step has rows with neighbours.
    let n = 12u32;
    let src: Vec<u32> = (0..n).chain(0..n / 2).collect();
    let dst: Vec<u32> = (0..n)
        .map(|v| (v + 1) % n)
        .chain((0..n / 2).map(|v| v + n / 2))
        .collect();
    let g = SamplerGraph::new(n as usize, &src, &dst);
    let batches = vec![vec![0u32, 3, 6], vec![9, 11]];
    for sampler in all_samplers() {
        let name = sampler.name();
        // A store that never fails reads exactly what it wraps.
        let (clean, _) = faulty_graph(&g, Fault::Eio, usize::MAX, false);
        assert_eq!(
            sampler.sample_bulk(&clean, &batches, 5),
            sampler.sample_bulk(&g, &batches, 5),
            "{name}"
        );
        assert!(clean.fault().is_none(), "{name}");

        for fault in [Fault::Eio, Fault::ShortRead] {
            // The second walk-step read fails.
            let (faulty, store) = faulty_graph(&g, fault, 2, false);
            let got = sampler.sample_bulk(&faulty, &batches, 5);
            // Still one subgraph per batch and one component per batch
            // vertex, so a caller's batch count does not change ...
            assert_eq!(got.len(), batches.len(), "{name}");
            for (sg, batch) in got.iter().zip(&batches) {
                assert_eq!(sg.num_components(), batch.len(), "{name}");
                // ... but extraction ran after the fault: no edges.
                assert_eq!(sg.num_edges(), 0, "{name} {fault:?}");
            }
            // The fault is recorded once, visible through every clone
            // of the graph, typed and naming the store.
            let e = faulty.clone().fault().expect("fault recorded");
            assert!(e.to_string().contains(STORE_NAME), "{e}");
            match (fault, &*e) {
                (Fault::Eio, StoreError::Io(_)) | (Fault::ShortRead, StoreError::Corrupt(_)) => {}
                _ => panic!("{name}: {fault:?} recorded as {e:?}"),
            }
            // From the fault on nothing reads the store: the failing call
            // was the last, in this pass and in the next.
            assert_eq!(store.calls(), 2, "{name}");
            sampler.sample_bulk(&faulty, &batches, 6);
            assert_eq!(store.calls(), 2, "{name}");
        }
    }
}
