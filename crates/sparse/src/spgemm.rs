//! Sparse x sparse products (SpGEMM), row-parallel with per-row hash
//! accumulators — the primitive matrix-based bulk sampling is built on
//! (`Q^{d-1} <- Q^d A`, and the row/column-selection extraction of induced
//! subgraphs, paper §III-C).

use crate::csr::Csr;
use crate::store::RowView;
use rayon::prelude::*;
use std::collections::HashMap;

/// Minimum left-hand rows before going parallel.
const PAR_THRESHOLD: usize = 64;

impl Csr<f32> {
    /// General SpGEMM: `self (n x m) * other (m x k) -> n x k`, duplicate
    /// contributions summed, rows sorted by column index.
    pub fn spgemm(&self, other: &Csr<f32>) -> Csr<f32> {
        assert_eq!(
            self.ncols(),
            other.nrows(),
            "spgemm shape mismatch: {}x{} * {}x{}",
            self.nrows(),
            self.ncols(),
            other.nrows(),
            other.ncols()
        );
        let compute_row = |r: usize| -> (Vec<u32>, Vec<f32>) {
            let (cols, vals) = self.row(r);
            let mut acc: HashMap<u32, f32> = HashMap::with_capacity(cols.len() * 4);
            for (&c, &v) in cols.iter().zip(vals) {
                let (bcols, bvals) = other.row(c as usize);
                for (&bc, &bv) in bcols.iter().zip(bvals) {
                    *acc.entry(bc).or_insert(0.0) += v * bv;
                }
            }
            let mut entries: Vec<(u32, f32)> = acc.into_iter().collect();
            entries.sort_unstable_by_key(|&(c, _)| c);
            entries.into_iter().unzip()
        };
        let rows: Vec<(Vec<u32>, Vec<f32>)> = if self.nrows() >= PAR_THRESHOLD {
            (0..self.nrows()).into_par_iter().map(compute_row).collect()
        } else {
            (0..self.nrows()).map(compute_row).collect()
        };
        assemble(self.nrows(), other.ncols(), rows)
    }
}

fn assemble<T: Copy + Default>(
    nrows: usize,
    ncols: usize,
    rows: Vec<(Vec<u32>, Vec<T>)>,
) -> Csr<T> {
    let mut indptr = Vec::with_capacity(nrows + 1);
    indptr.push(0usize);
    let nnz: usize = rows.iter().map(|(c, _)| c.len()).sum();
    let mut indices = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    for (c, v) in rows {
        indices.extend_from_slice(&c);
        vals.extend_from_slice(&v);
        indptr.push(indices.len());
    }
    Csr::from_raw(nrows, ncols, indptr, indices, vals)
}

/// Build the `k x n` row-selection matrix `S` with `S[i, sel[i]] = 1`.
/// `S * A` selects (and reorders) rows of `A`; `A * Sᵀ` selects columns.
pub fn selection_matrix(sel: &[u32], n: usize) -> Csr<f32> {
    let indptr = (0..=sel.len()).collect();
    Csr::from_raw(sel.len(), n, indptr, sel.to_vec(), vec![1.0; sel.len()])
}

/// Extract the induced submatrix `A[sel, sel]` via two selection SpGEMMs —
/// the paper's formulation of ShaDow subgraph extraction. Because each row
/// and column of a selection matrix has at most one nonzero, no duplicate
/// summation occurs and stored values pass through untouched, which is what
/// lets `A`'s values carry original edge ids (encoded as `id + 1` in f32;
/// exact for ids < 2^24).
pub fn extract_induced_spgemm(a: &Csr<f32>, sel: &[u32]) -> Csr<f32> {
    let s = selection_matrix(sel, a.nrows());
    let st = s.transpose();
    s.spgemm(a).spgemm(&st)
}

/// Direct induced-subgraph extraction `A[sel, sel]` with exact `u32` edge
/// ids, renumbering vertices to `0..sel.len()`. Equivalent to
/// [`extract_induced_spgemm`] on an id-valued matrix but without the f32
/// detour; used by the per-vertex baseline sampler. Reads `a`'s rows from
/// a view — the caller gathers `sel` once, from an in-core or a sharded
/// store alike (`RowView::from(&csr)` for an in-core matrix).
pub fn extract_induced_direct(a: &RowView<'_, u32>, sel: &[u32]) -> Csr<u32> {
    let lookup: HashMap<u32, u32> = sel
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let mut indptr = Vec::with_capacity(sel.len() + 1);
    indptr.push(0usize);
    let mut indices = Vec::new();
    let mut vals = Vec::new();
    for &v in sel {
        let (cols, evals) = a.row(v as usize);
        let mut row_entries: Vec<(u32, u32)> = cols
            .iter()
            .zip(evals)
            .filter_map(|(&c, &id)| lookup.get(&c).map(|&nc| (nc, id)))
            .collect();
        row_entries.sort_unstable_by_key(|&(c, _)| c);
        for (c, id) in row_entries {
            indices.push(c);
            vals.push(id);
        }
        indptr.push(indices.len());
    }
    Csr::from_raw(sel.len(), sel.len(), indptr, indices, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::csr::adjacency_with_edge_ids;

    fn dense_mul(a: &[Vec<f32>], b: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let (m, k, n) = (a.len(), b.len(), b[0].len());
        let mut out = vec![vec![0.0; n]; m];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    out[i][j] += a[i][kk] * b[kk][j];
                }
            }
        }
        out
    }

    #[test]
    fn spgemm_matches_dense() {
        let a = Coo::new(
            3,
            4,
            vec![0, 0, 1, 2],
            vec![1, 3, 2, 0],
            vec![1., 2., 3., 4.],
        )
        .to_csr();
        let b = Coo::new(
            4,
            2,
            vec![0, 1, 2, 3, 3],
            vec![0, 1, 0, 0, 1],
            vec![5., 6., 7., 8., 9.],
        )
        .to_csr();
        let c = a.spgemm(&b);
        assert_eq!(c.to_dense(), dense_mul(&a.to_dense(), &b.to_dense()));
    }

    #[test]
    fn spgemm_sums_duplicates() {
        // a row touching two b-rows that share a column.
        let a = Coo::new(1, 2, vec![0, 0], vec![0, 1], vec![1.0f32, 1.0]).to_csr();
        let b = Coo::new(2, 1, vec![0, 1], vec![0, 0], vec![2.0f32, 3.0]).to_csr();
        let c = a.spgemm(&b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), Some(5.0));
    }

    #[test]
    fn selection_matrix_selects_rows() {
        let a = Coo::new(3, 3, vec![0, 1, 2], vec![1, 2, 0], vec![1.0f32, 2.0, 3.0]).to_csr();
        let s = selection_matrix(&[2, 0], 3);
        let r = s.spgemm(&a);
        assert_eq!(r.to_dense(), vec![vec![3.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]);
    }

    #[test]
    fn induced_extraction_paths_agree() {
        // Graph on 5 vertices with 7 edges; extract {0, 2, 4}.
        let src = [0u32, 0, 1, 2, 2, 4, 4];
        let dst = [2u32, 4, 3, 4, 0, 0, 2];
        let a_ids = adjacency_with_edge_ids(5, &src, &dst);
        let a_f = a_ids.map_vals(|id| (id + 1) as f32);
        let sel = [0u32, 2, 4];

        let direct = extract_induced_direct(&(&a_ids).into(), &sel);
        let via_spgemm = extract_induced_spgemm(&a_f, &sel);

        assert_eq!(direct.nnz(), via_spgemm.nnz());
        for r in 0..3 {
            let (dc, dv) = direct.row(r);
            let (sc, sv) = via_spgemm.row(r);
            assert_eq!(dc, sc, "row {r} columns differ");
            for (&id, &fid) in dv.iter().zip(sv) {
                assert_eq!((id + 1) as f32, fid, "row {r} edge id mismatch");
            }
        }
        // Edge (1, 3) must be gone; edge (2,4)=id 3 must map to (1, 2).
        assert_eq!(direct.get(1, 2), Some(3));
        assert_eq!(direct.nnz(), 6);
    }

    #[test]
    fn extraction_of_empty_selection() {
        let a = adjacency_with_edge_ids(3, &[0], &[1]);
        let e = extract_induced_direct(&(&a).into(), &[]);
        assert_eq!(e.nrows(), 0);
        assert_eq!(e.nnz(), 0);
    }
}
