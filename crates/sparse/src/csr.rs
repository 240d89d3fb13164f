//! Compressed sparse row matrices — the compute format for adjacency
//! matrices throughout sampling and message passing.

use crate::coo::Coo;

/// Structural-validation failure from [`Csr::try_from_raw`].
///
/// Produced at deserialization boundaries (shards read from disk can be
/// truncated or corrupt); the message names the violated invariant so a
/// bad file is rejected up front instead of panicking deep in row gather.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrError(pub String);

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid CSR: {}", self.0)
    }
}

impl std::error::Error for CsrError {}

/// Sparse matrix in CSR format with generic stored values.
///
/// `vals` carry `f32` weights for numeric work, or `u32` original-edge
/// identifiers when a matrix is used as an *edge-labelled* adjacency (the
/// sampler's induced-subgraph extraction must know which original edge each
/// sampled entry came from to fetch features and truth labels).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<T = f32> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    /// Build from raw CSR arrays. Panics if the arrays are inconsistent.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        vals: Vec<T>,
    ) -> Self {
        assert_eq!(indptr.len(), nrows + 1, "indptr length must be nrows+1");
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert_eq!(
            *indptr.last().unwrap(),
            indices.len(),
            "indptr end must equal nnz"
        );
        assert_eq!(indices.len(), vals.len(), "indices/vals length mismatch");
        debug_assert!(
            indptr.windows(2).all(|w| w[0] <= w[1]),
            "indptr must be nondecreasing"
        );
        debug_assert!(
            indices.iter().all(|&c| (c as usize) < ncols),
            "col index out of range"
        );
        Self {
            nrows,
            ncols,
            indptr,
            indices,
            vals,
        }
    }

    /// Build from raw CSR arrays with *always-on* structural validation —
    /// the deserialization-boundary counterpart of [`Csr::from_raw`]
    /// (whose nondecreasing-`indptr` and column-range scans are
    /// debug-only). Untrusted bytes (shard files, checkpoints) must come
    /// through here so corruption surfaces as a [`CsrError`] instead of
    /// an out-of-bounds panic during row gather.
    pub fn try_from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        vals: Vec<T>,
    ) -> Result<Self, CsrError> {
        if indptr.len() != nrows + 1 {
            return Err(CsrError(format!(
                "indptr length {} != nrows+1 = {}",
                indptr.len(),
                nrows + 1
            )));
        }
        if indptr[0] != 0 {
            return Err(CsrError(format!(
                "indptr must start at 0, got {}",
                indptr[0]
            )));
        }
        if *indptr.last().unwrap() != indices.len() {
            return Err(CsrError(format!(
                "indptr end {} != nnz {}",
                indptr.last().unwrap(),
                indices.len()
            )));
        }
        if indices.len() != vals.len() {
            return Err(CsrError(format!(
                "indices/vals length mismatch: {} vs {}",
                indices.len(),
                vals.len()
            )));
        }
        if let Some(r) = indptr.windows(2).position(|w| w[0] > w[1]) {
            return Err(CsrError(format!(
                "indptr decreases at row {r}: {} > {}",
                indptr[r],
                indptr[r + 1]
            )));
        }
        if let Some(i) = indices.iter().position(|&c| (c as usize) >= ncols) {
            return Err(CsrError(format!(
                "column index {} at entry {i} out of range (ncols {ncols})",
                indices[i]
            )));
        }
        Ok(Self {
            nrows,
            ncols,
            indptr,
            indices,
            vals,
        })
    }

    /// An empty matrix with no stored entries.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            vals: Vec::new(),
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[T]) {
        let (s, e) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[s..e], &self.vals[s..e])
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Out-degree of every row.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.nrows).map(|r| self.row_nnz(r)).collect()
    }

    /// Sort column indices (and values) within each row.
    pub fn sort_row_indices(&mut self) {
        for r in 0..self.nrows {
            let (s, e) = (self.indptr[r], self.indptr[r + 1]);
            let mut perm: Vec<usize> = (s..e).collect();
            perm.sort_unstable_by_key(|&i| self.indices[i]);
            let cols: Vec<u32> = perm.iter().map(|&i| self.indices[i]).collect();
            let vals: Vec<T> = perm.iter().map(|&i| self.vals[i]).collect();
            self.indices[s..e].copy_from_slice(&cols);
            self.vals[s..e].copy_from_slice(&vals);
        }
    }

    /// Convert to COO triplets.
    pub fn to_coo(&self) -> Coo<T> {
        let mut rows = Vec::with_capacity(self.nnz());
        for r in 0..self.nrows {
            rows.extend(std::iter::repeat_n(r as u32, self.row_nnz(r)));
        }
        Coo::new(
            self.nrows,
            self.ncols,
            rows,
            self.indices.clone(),
            self.vals.clone(),
        )
    }

    /// Transpose (CSR -> CSR of the transpose) via counting sort on columns.
    pub fn transpose(&self) -> Csr<T> {
        let nnz = self.nnz();
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; nnz];
        let mut vals = vec![T::default(); nnz];
        let mut cursor = counts;
        for r in 0..self.nrows {
            let (cols, rvals) = self.row(r);
            for (&c, &v) in cols.iter().zip(rvals) {
                let p = cursor[c as usize];
                indices[p] = r as u32;
                vals[p] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr::from_raw(self.ncols, self.nrows, indptr, indices, vals)
    }

    /// Entry lookup (binary search within the row — rows must be sorted).
    pub fn get(&self, r: usize, c: u32) -> Option<T> {
        let (cols, vals) = self.row(r);
        cols.binary_search(&c).ok().map(|i| vals[i])
    }

    /// Map stored values to a new type.
    pub fn map_vals<U: Copy + Default>(&self, f: impl Fn(T) -> U) -> Csr<U> {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            vals: self.vals.iter().map(|&v| f(v)).collect(),
        }
    }
}

impl Csr<f32> {
    /// Dense representation (tests / tiny matrices only).
    pub fn to_dense(&self) -> Vec<Vec<f32>> {
        self.to_coo().to_dense()
    }

    /// Scale each row so its stored values sum to one (rows with zero sum
    /// are left untouched) — the uniform-sampling distribution step of
    /// matrix-based sampling (paper §III-C).
    pub fn row_normalize(&self) -> Csr<f32> {
        let mut out = self.clone();
        for r in 0..out.nrows {
            let (s, e) = (out.indptr[r], out.indptr[r + 1]);
            let sum: f32 = out.vals[s..e].iter().sum();
            if sum != 0.0 {
                for v in &mut out.vals[s..e] {
                    *v /= sum;
                }
            }
        }
        out
    }
}

/// Build an *edge-labelled* adjacency matrix from an edge list: entry
/// `(src[i], dst[i])` stores value `i` (the original edge id).
pub fn adjacency_with_edge_ids(n: usize, src: &[u32], dst: &[u32]) -> Csr<u32> {
    assert_eq!(src.len(), dst.len(), "edge list length mismatch");
    let ids: Vec<u32> = (0..src.len() as u32).collect();
    Coo::new(n, n, src.to_vec(), dst.to_vec(), ids).to_csr()
}

/// Build a 0/1 adjacency matrix (f32) from an edge list.
pub fn adjacency_binary(n: usize, src: &[u32], dst: &[u32]) -> Csr<f32> {
    assert_eq!(src.len(), dst.len(), "edge list length mismatch");
    Coo::new(n, n, src.to_vec(), dst.to_vec(), vec![1.0f32; src.len()]).to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Csr<f32> {
        // 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0
        Coo::new(
            3,
            3,
            vec![0, 0, 1, 2],
            vec![1, 2, 2, 0],
            vec![1., 2., 3., 4.],
        )
        .to_csr()
    }

    #[test]
    fn row_access() {
        let m = example();
        assert_eq!(m.row(0), (&[1u32, 2][..], &[1.0f32, 2.0][..]));
        assert_eq!(m.row_nnz(1), 1);
        assert_eq!(m.degrees(), vec![2, 1, 1]);
        assert_eq!(m.get(0, 2), Some(2.0));
        assert_eq!(m.get(1, 0), None);
    }

    #[test]
    fn transpose_known() {
        let m = example();
        let t = m.transpose();
        assert_eq!(t.row(2), (&[0u32, 1][..], &[2.0f32, 3.0][..]));
        assert_eq!(t.row(0), (&[2u32][..], &[4.0f32][..]));
        // Involution.
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn coo_roundtrip() {
        let m = example();
        assert_eq!(m.to_coo().to_csr(), m);
    }

    #[test]
    fn row_normalize_sums_to_one() {
        let m = example().row_normalize();
        let (_, v0) = m.row(0);
        assert!((v0.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((v0[0] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn adjacency_edge_ids() {
        let a = adjacency_with_edge_ids(4, &[0, 1, 3], &[1, 3, 0]);
        assert_eq!(a.get(0, 1), Some(0));
        assert_eq!(a.get(1, 3), Some(1));
        assert_eq!(a.get(3, 0), Some(2));
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn empty_matrix() {
        let m: Csr<f32> = Csr::empty(5, 5);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row(4), (&[][..], &[][..]));
        assert_eq!(m.transpose().nrows(), 5);
    }

    #[test]
    #[should_panic(expected = "indptr length")]
    fn bad_indptr_panics() {
        let _ = Csr::<f32>::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]);
    }

    #[test]
    fn try_from_raw_accepts_valid() {
        let m = Csr::<u32>::try_from_raw(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![5, 6, 7])
            .expect("valid CSR");
        assert_eq!(m.row(0), (&[0u32, 2][..], &[5u32, 6][..]));
    }

    #[test]
    fn try_from_raw_rejects_corruption_always() {
        // Each violation yields an Err naming the invariant — including
        // the two checks that are debug-only in `from_raw`.
        let cases: Vec<(Result<Csr<u32>, CsrError>, &str)> = vec![
            (
                Csr::try_from_raw(2, 2, vec![0, 1], vec![0], vec![1]),
                "indptr length",
            ),
            (
                Csr::try_from_raw(1, 2, vec![1, 1], vec![0], vec![1]),
                "start at 0",
            ),
            (
                Csr::try_from_raw(1, 2, vec![0, 2], vec![0], vec![1]),
                "indptr end",
            ),
            (
                Csr::try_from_raw(1, 2, vec![0, 1], vec![0], vec![1, 2]),
                "length mismatch",
            ),
            (
                Csr::try_from_raw(2, 4, vec![0, 2, 1], vec![0], vec![1]),
                "decreases at row 1",
            ),
            (
                Csr::try_from_raw(3, 4, vec![0, 2, 1, 3], vec![0, 1, 2], vec![1, 2, 3]),
                "decreases at row 1",
            ),
            (
                Csr::try_from_raw(1, 2, vec![0, 1], vec![5], vec![1]),
                "out of range",
            ),
        ];
        for (res, needle) in cases {
            let err = res.expect_err("corrupt CSR must be rejected");
            assert!(
                err.to_string().contains(needle),
                "error {err} should mention {needle:?}"
            );
        }
    }
}
