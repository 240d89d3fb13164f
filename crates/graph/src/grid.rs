//! Fixed-radius-near-neighbor (FRNN) cell grid, the structure the
//! Exa.TrkX inference-acceleration work uses in place of a kd-tree for
//! the graph-construction stage: points are binned into a uniform grid
//! on the first 2–3 coordinates of the (low-dimensional) embedding
//! space with a counting-sort bucket layout, and a radius query sweeps
//! the cell ranges covered by the query ball, filtering candidates by
//! exact full-dimension distance.
//!
//! Binning is a pure routing structure — it only decides *which* points
//! get distance-tested, never the test itself — so grid query results
//! are exactly the brute-force results (the distance predicate is
//! `sq_dist`, in the oracle's operation order). NaN coordinates bin to
//! cell 0 and never pass the distance test, so degenerate embeddings
//! cannot panic or connect.

/// Squared Euclidean distance, accumulated in ascending coordinate
/// order — the operation order of
/// [`radius_graph_brute`](crate::radius::radius_graph_brute), so the
/// engine's edge predicate agrees with the oracle's bit for bit.
#[inline]
fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Per-axis resolution cap (cells per binned axis). With 3 binned axes
/// the worst case is `cap³` offset slots, so 64 tops out at ~1 MiB of
/// offsets.
const MAX_CELLS_PER_AXIS: usize = 64;

/// How many leading coordinates to bin on (the embedding's first
/// "principal" axes); full-dimension distances are always exact.
const MAX_BIN_AXES: usize = 3;

/// Uniform cell grid over `n` points of dimension `dim`, bucketed by a
/// counting sort so each cell's points sit contiguously in ascending
/// original-id order.
#[derive(Debug, Clone, Default)]
pub struct GridIndex {
    dim: usize,
    /// Number of binned axes, `min(dim, 3)`.
    gdim: usize,
    mins: [f32; MAX_BIN_AXES],
    inv_cell: [f32; MAX_BIN_AXES],
    ncells: [usize; MAX_BIN_AXES],
    /// Cell start offsets, `total_cells + 1` entries.
    offsets: Vec<u32>,
    /// Point ids in cell-major order, ascending id within each cell.
    slots: Vec<u32>,
    /// Point rows gathered into slot order for scan locality.
    points: Vec<f32>,
    /// Counting-sort cursor scratch, reused across rebuilds.
    cursor: Vec<u32>,
}

impl GridIndex {
    /// Build a grid sized so cells are at least `cell` wide on each
    /// binned axis (at most 64 cells per axis).
    pub fn build(points: &[f32], dim: usize, cell: f32) -> Self {
        let mut g = Self::default();
        g.rebuild(points, dim, cell);
        g
    }

    /// Rebuild in place over new points, retaining buffer capacity so
    /// repeated per-event rebuilds allocate nothing once warm.
    pub fn rebuild(&mut self, points: &[f32], dim: usize, cell: f32) {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(points.len() % dim, 0, "points buffer not a multiple of dim");
        let n = points.len() / dim;
        self.dim = dim;
        self.gdim = dim.min(MAX_BIN_AXES);
        // Finite bounds per binned axis (NaN/inf rows are excluded from
        // the bounds; they clamp into edge cells and fail every exact
        // distance test anyway).
        let mut mins = [f32::INFINITY; MAX_BIN_AXES];
        let mut maxs = [f32::NEG_INFINITY; MAX_BIN_AXES];
        for row in 0..n {
            for a in 0..self.gdim {
                let v = points[row * dim + a];
                if v.is_finite() {
                    mins[a] = mins[a].min(v);
                    maxs[a] = maxs[a].max(v);
                }
            }
        }
        let cell = if cell.is_finite() && cell > 0.0 {
            cell
        } else {
            0.0 // degenerate hint: fall back to the per-axis cap
        };
        let mut total = 1usize;
        for a in 0..self.gdim {
            let extent = if mins[a].is_finite() && maxs[a] > mins[a] {
                maxs[a] - mins[a]
            } else {
                0.0
            };
            self.mins[a] = if mins[a].is_finite() { mins[a] } else { 0.0 };
            let cells = if extent > 0.0 {
                if cell > 0.0 {
                    ((extent / cell).ceil() as usize).clamp(1, MAX_CELLS_PER_AXIS)
                } else {
                    MAX_CELLS_PER_AXIS
                }
            } else {
                1
            };
            self.ncells[a] = cells;
            self.inv_cell[a] = if extent > 0.0 {
                cells as f32 / extent
            } else {
                0.0
            };
            total *= cells;
        }
        for a in self.gdim..MAX_BIN_AXES {
            self.ncells[a] = 1;
            self.mins[a] = 0.0;
            self.inv_cell[a] = 0.0;
        }

        // Counting sort into cell buckets: count, exclusive prefix sum,
        // then a stable id-order fill so each bucket is ascending by id.
        self.offsets.clear();
        self.offsets.resize(total + 1, 0);
        for row in 0..n {
            let c = self.cell_of(&points[row * dim..row * dim + dim]);
            self.offsets[c + 1] += 1;
        }
        for c in 0..total {
            self.offsets[c + 1] += self.offsets[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.offsets[..total]);
        self.slots.clear();
        self.slots.resize(n, 0);
        for row in 0..n {
            let c = self.cell_of(&points[row * dim..row * dim + dim]);
            let at = self.cursor[c] as usize;
            self.slots[at] = row as u32;
            self.cursor[c] += 1;
        }
        self.points.clear();
        self.points.reserve(points.len());
        for &id in &self.slots {
            let row = id as usize * dim;
            self.points.extend_from_slice(&points[row..row + dim]);
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Per-axis cell index for one coordinate (clamped; NaN routes to 0
    /// via the saturating float→int cast).
    #[inline]
    fn axis_cell(&self, a: usize, v: f32) -> usize {
        (((v - self.mins[a]) * self.inv_cell[a]) as usize).min(self.ncells[a] - 1)
    }

    /// Flat cell id of a point row.
    #[inline]
    fn cell_of(&self, p: &[f32]) -> usize {
        let mut c = 0usize;
        for a in (0..self.gdim).rev() {
            c = c * self.ncells[a] + self.axis_cell(a, p[a]);
        }
        c
    }

    /// Visit every point within distance `r` of `query` (inclusive), in
    /// arbitrary order. Sweeps the cell ranges covered by the query ball
    /// on each binned axis; candidates are filtered by exact
    /// full-dimension distance, so any `r` works regardless of the cell
    /// size the grid was built with.
    pub fn for_each_in_radius(&self, query: &[f32], r: f32, mut f: impl FnMut(u32)) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if self.is_empty() {
            return;
        }
        let r2 = r * r;
        let mut lo = [0usize; MAX_BIN_AXES];
        let mut hi = [0usize; MAX_BIN_AXES];
        for a in 0..self.gdim {
            lo[a] = self.axis_cell(a, query[a] - r);
            hi[a] = self.axis_cell(a, query[a] + r);
        }
        for c2 in lo[2]..=hi[2] {
            for c1 in lo[1]..=hi[1] {
                let base = (c2 * self.ncells[1] + c1) * self.ncells[0];
                // The innermost axis range is contiguous in the flat
                // cell layout: scan it as one slot run.
                let start = self.offsets[base + lo[0]] as usize;
                let end = self.offsets[base + hi[0] + 1] as usize;
                for slot in start..end {
                    let p = &self.points[slot * self.dim..(slot + 1) * self.dim];
                    if sq_dist(p, query) <= r2 {
                        f(self.slots[slot]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn brute(points: &[f32], dim: usize, q: &[f32], r: f32) -> Vec<u32> {
        (0..points.len() / dim)
            .filter(|&i| sq_dist(&points[i * dim..(i + 1) * dim], q) <= r * r)
            .map(|i| i as u32)
            .collect()
    }

    #[test]
    fn radius_matches_brute_across_dims_and_cells() {
        let mut rng = StdRng::seed_from_u64(9);
        for dim in [1usize, 2, 3, 8] {
            let n = 180;
            let points: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            for cell in [0.05f32, 0.3, 2.0] {
                let grid = GridIndex::build(&points, dim, cell);
                for _ in 0..15 {
                    let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.2f32..1.2)).collect();
                    let r = rng.gen_range(0.05f32..0.9);
                    let mut got = Vec::new();
                    grid.for_each_in_radius(&q, r, |id| got.push(id));
                    got.sort_unstable();
                    let mut want = brute(&points, dim, &q, r);
                    want.sort_unstable();
                    assert_eq!(got, want, "dim {dim} cell {cell} r {r}");
                }
            }
        }
    }

    #[test]
    fn identical_points_single_cell() {
        let points = vec![0.5f32; 4 * 3];
        let grid = GridIndex::build(&points, 3, 0.1);
        let mut got = Vec::new();
        grid.for_each_in_radius(&[0.5, 0.5, 0.5], 0.0, |id| got.push(id));
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn nan_points_bin_safely_and_never_match() {
        let points = vec![0.0f32, 0.0, f32::NAN, 0.5, 1.0, f32::NAN, 0.1, 0.1];
        let grid = GridIndex::build(&points, 2, 0.5);
        let mut got = Vec::new();
        grid.for_each_in_radius(&[0.0, 0.0], 0.5, |id| got.push(id));
        got.sort_unstable();
        assert_eq!(got, vec![0, 3]);
        let mut none = Vec::new();
        grid.for_each_in_radius(&[f32::NAN, 0.0], 5.0, |id| none.push(id));
        assert!(none.is_empty());
    }

    #[test]
    fn rebuild_matches_fresh_build() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut grid = GridIndex::default();
        for n in [64usize, 200, 32] {
            let points: Vec<f32> = (0..n * 3).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            grid.rebuild(&points, 3, 0.4);
            let fresh = GridIndex::build(&points, 3, 0.4);
            let q = [0.3f32, -0.7, 1.1];
            let (mut a, mut b) = (Vec::new(), Vec::new());
            grid.for_each_in_radius(&q, 0.8, |id| a.push(id));
            fresh.for_each_in_radius(&q, 0.8, |id| b.push(id));
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }
}
