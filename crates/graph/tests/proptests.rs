//! Property tests: union-find equals BFS on random graphs, and the
//! parity suite pinning the deterministic-order contract of the stage-2
//! construction engine — the grid engine must produce edge lists
//! **bit-identical** to the brute-force oracle for any point cloud
//! (including duplicate, colinear, and NaN degeneracies) at any thread
//! count. ci.sh runs this file under `RAYON_NUM_THREADS` 1 and 4.

use proptest::prelude::*;
use trkx_graph::{
    connected_components, connected_components_bfs, radius_graph, radius_graph_brute, GraphIndex,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn union_find_matches_bfs(n in 1usize..30,
                              edges in proptest::collection::vec((0u32..30, 0u32..30), 0..60)) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let a = connected_components(n, &edges);
        let b = connected_components_bfs(n, &edges);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(a[i] == a[j], b[i] == b[j], "pair {} {}", i, j);
            }
        }
    }

    #[test]
    fn component_count_decreases_with_edges(n in 2usize..20,
                                            edges in proptest::collection::vec((0u32..20, 0u32..20), 1..40)) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        for k in 1..edges.len() {
            let fewer = connected_components(n, &edges[..k]);
            let more = connected_components(n, &edges[..k + 1]);
            let count = |labels: &[u32]| labels.iter().max().map(|&m| m as usize + 1).unwrap_or(0);
            prop_assert!(count(&more) <= count(&fewer));
        }
    }

    #[test]
    fn radius_graph_is_symmetric_under_reflection(points in proptest::collection::vec(-1.0f32..1.0, 8..60)) {
        let dim = 2;
        let n = points.len() / dim;
        let pts = &points[..n * dim];
        let edges = radius_graph(pts, dim, 0.5);
        prop_assert_eq!(edges.clone(), radius_graph_brute(pts, dim, 0.5));
        // Negating all coordinates preserves pairwise distances.
        let neg: Vec<f32> = pts.iter().map(|v| -v).collect();
        prop_assert_eq!(edges, radius_graph(&neg, dim, 0.5));
    }

    #[test]
    fn engine_matches_brute_on_random_clouds(points in proptest::collection::vec(-1.0f32..1.0, 16..400),
                                            dim_sel in 0usize..3,
                                            r in 0.05f32..0.9) {
        let dim = [2usize, 3, 8][dim_sel];
        let n = points.len() / dim;
        let pts = &points[..n * dim];
        prop_assert_eq!(radius_graph(pts, dim, r), radius_graph_brute(pts, dim, r), "dim {}", dim);
    }

    #[test]
    fn engine_matches_brute_on_duplicate_point_clouds(base in proptest::collection::vec(-0.5f32..0.5, 6..40),
                                                copies in 2usize..5,
                                                r in 0.0f32..0.6) {
        // Every point repeated `copies` times: zero-distance ties galore.
        let dim = 2;
        let n = base.len() / dim;
        let mut pts = Vec::new();
        for _ in 0..copies {
            pts.extend_from_slice(&base[..n * dim]);
        }
        prop_assert_eq!(radius_graph(&pts, dim, r), radius_graph_brute(&pts, dim, r));
    }

    #[test]
    fn engine_matches_brute_on_colinear_clouds(ts in proptest::collection::vec(-1.0f32..1.0, 4..80),
                                         r in 0.05f32..0.8) {
        // All points on one line in 3-d: degenerate for grid binning
        // (two axes collapse to one cell).
        let pts: Vec<f32> = ts.iter().flat_map(|&t| [t, 2.0 * t, -t]).collect();
        prop_assert_eq!(radius_graph(&pts, 3, r), radius_graph_brute(&pts, 3, r));
    }

    #[test]
    fn nan_rows_never_produce_edges(points in proptest::collection::vec(-1.0f32..1.0, 12..120),
                                    nan_at in proptest::collection::vec(0usize..60, 1..6),
                                    r in 0.1f32..0.8) {
        let dim = 3;
        let n = points.len() / dim;
        let mut pts = points[..n * dim].to_vec();
        for &i in &nan_at {
            pts[(i % n) * dim] = f32::NAN;
        }
        let got = radius_graph(&pts, dim, r);
        prop_assert_eq!(&got, &radius_graph_brute(&pts, dim, r));
        for &(s, d) in &got {
            for &i in &nan_at {
                prop_assert!(s != (i % n) as u32 && d != (i % n) as u32);
            }
        }
    }

    #[test]
    fn pooled_engine_reuse_is_stateless(a in proptest::collection::vec(-1.0f32..1.0, 24..160),
                                        b in proptest::collection::vec(-1.0f32..1.0, 24..160),
                                        r in 0.1f32..0.7) {
        // Rebuilding one pooled index over event B after event A must
        // give exactly the fresh-build result for B (no stale state).
        let dim = 3;
        let (na, nb) = (a.len() / dim, b.len() / dim);
        let mut idx = GraphIndex::default();
        let mut edges = Vec::new();
        idx.rebuild(&a[..na * dim], dim, r);
        idx.radius_edges_into(r, &mut edges);
        idx.rebuild(&b[..nb * dim], dim, r);
        idx.radius_edges_into(r, &mut edges);
        prop_assert_eq!(edges, radius_graph_brute(&b[..nb * dim], dim, r));
    }
}
