//! Coordinate-format sparse matrices.
//!
//! COO is the construction format: event graphs arrive as edge lists
//! `(src, dst, value)` and are converted to [`crate::Csr`] for compute.
//! The value type is generic so the same machinery carries numeric weights
//! (`f32`) or original edge identifiers (`u32`) through sampling — the
//! edge-id-preserving trick described in DESIGN.md §4.

use crate::csr::Csr;

/// Sparse matrix in coordinate (triplet) format.
#[derive(Debug, Clone, PartialEq)]
pub struct Coo<T = f32> {
    nrows: usize,
    ncols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Copy> Coo<T> {
    /// Build from parallel triplet arrays. Panics on length mismatch or
    /// out-of-range indices.
    pub fn new(nrows: usize, ncols: usize, rows: Vec<u32>, cols: Vec<u32>, vals: Vec<T>) -> Self {
        assert_eq!(rows.len(), cols.len(), "COO triplet length mismatch");
        assert_eq!(rows.len(), vals.len(), "COO triplet length mismatch");
        debug_assert!(
            rows.iter().all(|&r| (r as usize) < nrows),
            "row index out of range"
        );
        debug_assert!(
            cols.iter().all(|&c| (c as usize) < ncols),
            "col index out of range"
        );
        Self {
            nrows,
            ncols,
            rows,
            cols,
            vals,
        }
    }

    /// An empty `nrows x ncols` matrix.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    pub fn cols(&self) -> &[u32] {
        &self.cols
    }

    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    /// Append one entry.
    pub fn push(&mut self, r: u32, c: u32, v: T) {
        debug_assert!((r as usize) < self.nrows && (c as usize) < self.ncols);
        self.rows.push(r);
        self.cols.push(c);
        self.vals.push(v);
    }

    /// Iterate `(row, col, value)` triplets.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, T)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Convert to CSR via counting sort on rows (stable in column order of
    /// insertion; duplicates are kept, not summed — callers that need
    /// summation should deduplicate first).
    pub fn to_csr(&self) -> Csr<T>
    where
        T: Default,
    {
        let nnz = self.nnz();
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            counts[r as usize + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; nnz];
        let mut vals = vec![T::default(); nnz];
        let mut cursor = counts;
        for i in 0..nnz {
            let r = self.rows[i] as usize;
            let p = cursor[r];
            indices[p] = self.cols[i];
            vals[p] = self.vals[i];
            cursor[r] += 1;
        }
        let mut csr = Csr::from_raw(self.nrows, self.ncols, indptr, indices, vals);
        csr.sort_row_indices();
        csr
    }
}

impl Coo<f32> {
    /// Dense representation (tests / tiny matrices only).
    pub fn to_dense(&self) -> Vec<Vec<f32>> {
        let mut d = vec![vec![0.0; self.ncols]; self.nrows];
        for (r, c, v) in self.iter() {
            d[r as usize][c as usize] += v;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_construction() {
        let m = Coo::new(3, 4, vec![0, 2, 1], vec![1, 3, 0], vec![1.0f32, 2.0, 3.0]);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 3);
        let triplets: Vec<_> = m.iter().collect();
        assert_eq!(triplets[1], (2, 3, 2.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = Coo::new(2, 2, vec![0], vec![0, 1], vec![1.0f32]);
    }

    #[test]
    fn to_csr_counting_sort() {
        // Rows out of order, with an empty row.
        let m = Coo::new(
            4,
            4,
            vec![3, 0, 3, 0],
            vec![2, 1, 0, 3],
            vec![1.0f32, 2.0, 3.0, 4.0],
        );
        let c = m.to_csr();
        assert_eq!(c.indptr(), &[0, 2, 2, 2, 4]);
        let (cols0, vals0) = c.row(0);
        assert_eq!(cols0, &[1, 3]);
        assert_eq!(vals0, &[2.0, 4.0]);
        let (cols3, vals3) = c.row(3);
        assert_eq!(cols3, &[0, 2]);
        assert_eq!(vals3, &[3.0, 1.0]);
    }

    #[test]
    fn u32_values_survive_roundtrip() {
        let m: Coo<u32> = Coo::new(2, 3, vec![1, 0], vec![2, 1], vec![7, 9]);
        let c = m.to_csr();
        assert_eq!(c.row(0), (&[1u32][..], &[9u32][..]));
        assert_eq!(c.row(1), (&[2u32][..], &[7u32][..]));
    }
}
