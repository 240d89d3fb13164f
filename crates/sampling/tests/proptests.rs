//! Property tests for the samplers: structural invariants on random
//! graphs, baseline/bulk equivalence, and depth bounds.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use trkx_sampling::{vertex_batches, BulkShadowSampler, SamplerGraph, ShadowConfig, ShadowSampler};

/// Random connected-ish graph: n vertices, edges from a btree set.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn shadow_components_equal_batch_size(g in graph_strategy(),
                                          seed in 0u64..100,
                                          depth in 1usize..4,
                                          fanout in 1usize..5) {
        let batch: Vec<u32> = (0..g.num_nodes.min(5) as u32).collect();
        let sampler = ShadowSampler::new(ShadowConfig { depth, fanout });
        let sg = sampler.sample_batch(&g, &batch, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(sg.num_components(), batch.len());
        sg.validate(&g);
    }

    #[test]
    fn shadow_nodes_within_depth_of_batch_vertex(g in graph_strategy(),
                                                 seed in 0u64..100,
                                                 depth in 1usize..4) {
        // Every sampled node must be reachable from its component's batch
        // vertex within `depth` undirected hops.
        let batch = vec![0u32];
        let sampler = ShadowSampler::new(ShadowConfig { depth, fanout: 3 });
        let sg = sampler.sample_batch(&g, &batch, &mut StdRng::seed_from_u64(seed));
        // BFS distances from vertex 0 in the undirected graph.
        let mut dist = vec![usize::MAX; g.num_nodes];
        dist[0] = 0;
        let mut queue = std::collections::VecDeque::from([0u32]);
        while let Some(v) = queue.pop_front() {
            let cols = g.gather_undirected(&[v]).row(v as usize).0.to_vec();
            for &c in &cols {
                if dist[c as usize] == usize::MAX {
                    dist[c as usize] = dist[v as usize] + 1;
                    queue.push_back(c);
                }
            }
        }
        for &orig in &sg.node_map {
            prop_assert!(dist[orig as usize] <= depth,
                "vertex {} at distance {} > depth {}", orig, dist[orig as usize], depth);
        }
    }

    #[test]
    fn bulk_matches_baseline_invariants(g in graph_strategy(), seed in 0u64..100) {
        let cfg = ShadowConfig { depth: 2, fanout: 2 };
        let n = g.num_nodes as u32;
        let batches: Vec<Vec<u32>> = vec![
            (0..n.min(3)).collect(),
            (n.min(3)..n.min(6)).collect(),
        ];
        let batches: Vec<Vec<u32>> = batches.into_iter().filter(|b| !b.is_empty()).collect();
        let subs = BulkShadowSampler::new(cfg).sample_batches(&g, &batches, seed);
        prop_assert_eq!(subs.len(), batches.len());
        for (sg, batch) in subs.iter().zip(&batches) {
            prop_assert_eq!(sg.num_components(), batch.len());
            sg.validate(&g);
            // Every component contains its batch vertex.
            for (i, &bn) in sg.batch_nodes.iter().enumerate() {
                prop_assert_eq!(sg.node_map[bn as usize], batch[i]);
            }
        }
    }

    #[test]
    fn sampled_edge_ids_are_unique_within_component(g in graph_strategy(), seed in 0u64..50) {
        let sampler = ShadowSampler::new(ShadowConfig { depth: 3, fanout: 4 });
        let batch = vec![0u32, (g.num_nodes as u32 - 1).min(3)];
        let sg = sampler.sample_batch(&g, &batch, &mut StdRng::seed_from_u64(seed));
        // Within one component each original edge appears at most once.
        let mut seen = std::collections::HashSet::new();
        for (i, &id) in sg.orig_edge_ids.iter().enumerate() {
            let comp = sg.component_of_node[sg.sub_src[i] as usize];
            prop_assert!(seen.insert((comp, id)), "edge id {} twice in component {}", id, comp);
        }
    }

    #[test]
    fn vertex_batches_partition(n in 1usize..200, bs in 1usize..50, seed in 0u64..20) {
        let batches = vertex_batches(n, bs, &mut StdRng::seed_from_u64(seed));
        let mut all: Vec<u32> = batches.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n as u32).collect::<Vec<_>>());
        for b in &batches[..batches.len() - 1] {
            prop_assert_eq!(b.len(), bs);
        }
    }
}
