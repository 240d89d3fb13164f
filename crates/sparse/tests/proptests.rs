//! Property-based tests: sparse kernels against dense references, format
//! round-trips, and edge-id preservation through extraction.

use proptest::prelude::*;
use trkx_sparse::{
    adjacency_with_edge_ids, block_diag, extract_induced_direct, extract_induced_spgemm,
    selection_matrix, vstack, Coo, Csr,
};

/// Random sparse matrix as (nrows, ncols, triplets with unique coords).
fn sparse_strategy(max_dim: usize) -> impl Strategy<Value = (usize, usize, Vec<(u32, u32, f32)>)> {
    (1..max_dim, 1..max_dim).prop_flat_map(|(r, c)| {
        let coords =
            proptest::collection::btree_set((0..r as u32, 0..c as u32), 0..(r * c).min(24))
                .prop_map(|set| set.into_iter().collect::<Vec<_>>());
        (Just(r), Just(c), coords).prop_flat_map(|(r, c, coords)| {
            let n = coords.len();
            (
                Just(r),
                Just(c),
                proptest::collection::vec(-4.0f32..4.0, n).prop_map(move |vals| {
                    coords
                        .iter()
                        .zip(&vals)
                        .map(|(&(rr, cc), &v)| (rr, cc, v))
                        .collect::<Vec<_>>()
                }),
            )
        })
    })
}

fn build(r: usize, c: usize, t: &[(u32, u32, f32)]) -> Csr<f32> {
    let rows = t.iter().map(|x| x.0).collect();
    let cols = t.iter().map(|x| x.1).collect();
    let vals = t.iter().map(|x| x.2).collect();
    Coo::new(r, c, rows, cols, vals).to_csr()
}

fn dense_of(m: &Csr<f32>) -> Vec<Vec<f32>> {
    m.to_dense()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coo_csr_roundtrip((r, c, t) in sparse_strategy(10)) {
        let m = build(r, c, &t);
        prop_assert_eq!(m.to_coo().to_csr(), m);
    }

    #[test]
    fn transpose_involution((r, c, t) in sparse_strategy(10)) {
        let m = build(r, c, &t);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_flips_dense((r, c, t) in sparse_strategy(8)) {
        let m = build(r, c, &t);
        let d = dense_of(&m);
        let dt = dense_of(&m.transpose());
        for i in 0..r {
            for j in 0..c {
                prop_assert_eq!(d[i][j], dt[j][i]);
            }
        }
    }

    #[test]
    fn spgemm_matches_dense((r, k, ta) in sparse_strategy(8),
                            (_, c, tb) in sparse_strategy(8)) {
        let a = build(r, k, &ta);
        // Reshape b to have k rows by clamping its row indices.
        let tb: Vec<(u32, u32, f32)> = tb.iter()
            .map(|&(rr, cc, v)| (rr % k as u32, cc, v))
            .collect();
        // Dedup coords after clamping.
        let mut seen = std::collections::BTreeMap::new();
        for &(rr, cc, v) in &tb { seen.insert((rr, cc), v); }
        let tb: Vec<(u32, u32, f32)> = seen.into_iter().map(|((rr, cc), v)| (rr, cc, v)).collect();
        let b = build(k, c, &tb);
        let p = a.spgemm(&b);
        let (da, db, dp) = (dense_of(&a), dense_of(&b), dense_of(&p));
        for i in 0..r {
            for j in 0..c {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += da[i][kk] * db[kk][j];
                }
                prop_assert!((dp[i][j] - acc).abs() < 1e-3,
                    "({i},{j}): {} vs {}", dp[i][j], acc);
            }
        }
    }

    #[test]
    fn row_normalize_rows_sum_to_one((r, c, t) in sparse_strategy(10)) {
        // Use absolute values so row sums cannot cancel to ~0.
        let t: Vec<(u32, u32, f32)> = t.iter().map(|&(a, b, v)| (a, b, v.abs() + 0.1)).collect();
        let m = build(r, c, &t).row_normalize();
        for row in 0..r {
            let (_, vals) = m.row(row);
            if !vals.is_empty() {
                let s: f32 = vals.iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-4, "row {row} sums to {s}");
            }
        }
    }

    #[test]
    fn vstack_preserves_rows((r1, c, t1) in sparse_strategy(8), t2 in proptest::collection::vec((0u32..8, 0u32..8, -1.0f32..1.0), 0..10)) {
        let a = build(r1, c, &t1);
        let t2: Vec<(u32, u32, f32)> = {
            let mut seen = std::collections::BTreeMap::new();
            for &(rr, cc, v) in &t2 { seen.insert((rr % 4, cc % c as u32), v); }
            seen.into_iter().map(|((rr, cc), v)| (rr, cc, v)).collect()
        };
        let b = build(4, c, &t2);
        let s = vstack(&[&a, &b]);
        prop_assert_eq!(s.nrows(), a.nrows() + 4);
        for r in 0..a.nrows() {
            prop_assert_eq!(s.row(r), a.row(r));
        }
        for r in 0..4 {
            prop_assert_eq!(s.row(a.nrows() + r), b.row(r));
        }
    }

    #[test]
    fn block_diag_keeps_blocks_disjoint((r1, c1, t1) in sparse_strategy(6),
                                        (r2, c2, t2) in sparse_strategy(6)) {
        let a = build(r1, c1, &t1);
        let b = build(r2, c2, &t2);
        let d = block_diag(&[&a, &b]);
        prop_assert_eq!(d.nnz(), a.nnz() + b.nnz());
        // Entries from a stay in the top-left block.
        for row in 0..r1 {
            let (cols, _) = d.row(row);
            for &cc in cols {
                prop_assert!((cc as usize) < c1);
            }
        }
        for row in 0..r2 {
            let (cols, _) = d.row(r1 + row);
            for &cc in cols {
                prop_assert!((cc as usize) >= c1 && (cc as usize) < c1 + c2);
            }
        }
    }

    #[test]
    fn induced_extraction_edge_ids_exact(edges in proptest::collection::btree_set((0u32..12, 0u32..12), 1..40),
                                         sel in proptest::collection::btree_set(0u32..12, 1..8)) {
        let edges: Vec<(u32, u32)> = edges.into_iter().collect();
        let src: Vec<u32> = edges.iter().map(|e| e.0).collect();
        let dst: Vec<u32> = edges.iter().map(|e| e.1).collect();
        let sel: Vec<u32> = sel.into_iter().collect();
        let a = adjacency_with_edge_ids(12, &src, &dst);
        let sub = extract_induced_direct(&(&a).into(), &sel);
        // Every extracted entry maps back to an original edge with matching
        // endpoints.
        for r in 0..sub.nrows() {
            let (cols, ids) = sub.row(r);
            for (&c, &id) in cols.iter().zip(ids) {
                let (os, od) = edges[id as usize];
                prop_assert_eq!(os, sel[r]);
                prop_assert_eq!(od, sel[c as usize]);
            }
        }
        // Count matches the number of edges with both endpoints selected.
        let selset: std::collections::BTreeSet<u32> = sel.iter().copied().collect();
        let expect = edges.iter().filter(|(s, d)| selset.contains(s) && selset.contains(d)).count();
        prop_assert_eq!(sub.nnz(), expect);
    }

    #[test]
    fn spgemm_and_direct_extraction_agree(edges in proptest::collection::btree_set((0u32..10, 0u32..10), 1..30),
                                          sel in proptest::collection::btree_set(0u32..10, 1..6)) {
        let edges: Vec<(u32, u32)> = edges.into_iter().collect();
        let src: Vec<u32> = edges.iter().map(|e| e.0).collect();
        let dst: Vec<u32> = edges.iter().map(|e| e.1).collect();
        let sel: Vec<u32> = sel.into_iter().collect();
        let a_ids = adjacency_with_edge_ids(10, &src, &dst);
        let a_f = a_ids.map_vals(|id| (id + 1) as f32);
        let d = extract_induced_direct(&(&a_ids).into(), &sel);
        let s = extract_induced_spgemm(&a_f, &sel);
        prop_assert_eq!(d.nnz(), s.nnz());
        for r in 0..d.nrows() {
            let (dc, dv) = d.row(r);
            let (sc, sv) = s.row(r);
            prop_assert_eq!(dc, sc);
            for (&id, &f) in dv.iter().zip(sv) {
                prop_assert_eq!((id + 1) as f32, f);
            }
        }
    }

    #[test]
    fn selection_matrix_is_permutation_like(sel in proptest::collection::vec(0u32..9, 1..9)) {
        let s = selection_matrix(&sel, 9);
        prop_assert_eq!(s.nnz(), sel.len());
        for (r, &v) in sel.iter().enumerate() {
            let (cols, vals) = s.row(r);
            prop_assert_eq!(cols, &[v][..]);
            prop_assert_eq!(vals, &[1.0f32][..]);
        }
    }
}
