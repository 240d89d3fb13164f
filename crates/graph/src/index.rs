//! The stage-2 graph-construction engine: the cell-grid FRNN index
//! ([`GridIndex`]) plus pooled count/offset buffers, producing the
//! fixed-radius edge list **directly in deterministic `(src, dst)`
//! order at any thread count**.
//!
//! Edge production is a two-pass count-then-fill parallel fan-out:
//! pass 1 counts each point's forward neighbours (`j > i`), a serial
//! prefix sum turns counts into per-point output offsets, and pass 2
//! re-runs the queries writing each point's ascending-sorted neighbour
//! run into its reserved slice. Every per-thread query runs over pooled
//! scratch (pop/push thread-local stacks, the PR 5 `with_scratch`
//! idiom), so steady-state edge builds allocate nothing — no per-query
//! result `Vec`s and no global `par_sort` over tuple pairs.

use crate::grid::GridIndex;
use rayon::prelude::*;
use std::cell::RefCell;

/// Points per parallel work unit in the count/fill fan-outs.
const POINT_CHUNK: usize = 64;

/// Below this many points the count/fill passes run serially — pool
/// dispatch costs more than the queries at funnel-event scale. The
/// output is identical either way (the two-pass build is
/// order-independent by construction).
const SERIAL_CUTOFF: usize = 1024;

thread_local! {
    /// Per-thread pool of the neighbour-id buffers a point's hits are
    /// sorted in before the ordered write-back (a stack, so
    /// nested/re-entrant use pops a second buffer instead of aliasing).
    static SCRATCH: RefCell<Vec<Vec<u32>>> = const { RefCell::new(Vec::new()) };
}

/// Borrow a pooled thread-local id buffer for the duration of `f`.
fn with_id_scratch<R>(f: impl FnOnce(&mut Vec<u32>) -> R) -> R {
    let mut s = SCRATCH.with(|c| c.borrow_mut().pop().unwrap_or_default());
    let r = f(&mut s);
    SCRATCH.with(|c| c.borrow_mut().push(s));
    r
}

/// Pointer wrapper so disjoint-range writers can cross thread
/// boundaries (each point's output slice `offsets[i]..offsets[i+1]` is
/// written by exactly one task).
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// A rebuildable spatial index over one event's embedding points with
/// pooled storage: [`GraphIndex::rebuild`] refills the grid in place
/// (retaining capacity), and [`GraphIndex::radius_edges_into`] emits
/// the edge list into a caller-pooled buffer.
#[derive(Debug, Default)]
pub struct GraphIndex {
    dim: usize,
    n: usize,
    /// The caller's points, kept so queries can address row `i` without
    /// re-borrowing caller storage.
    points: Vec<f32>,
    grid: GridIndex,
    /// Pass-1 neighbour counts (one per point).
    counts: Vec<u32>,
    /// Exclusive prefix sums of `counts`, `n + 1` entries.
    offsets: Vec<usize>,
}

impl GraphIndex {
    /// (Re)build the index over row-major `points`. `cell_hint` sizes
    /// the grid cells (typically the query radius). All buffers retain
    /// capacity across rebuilds, so a pooled index rebuilt per event
    /// allocates nothing once warm.
    pub fn rebuild(&mut self, points: &[f32], dim: usize, cell_hint: f32) {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(points.len() % dim, 0, "points buffer not a multiple of dim");
        self.dim = dim;
        self.n = points.len() / dim;
        self.points.clear();
        self.points.extend_from_slice(points);
        self.grid.rebuild(points, dim, cell_hint);
    }

    #[inline]
    fn point(&self, i: usize) -> &[f32] {
        &self.points[i * self.dim..(i + 1) * self.dim]
    }

    /// Fixed-radius graph into a caller-pooled buffer: one edge `(i, j)`
    /// per unordered pair `i < j` with `||p_i − p_j|| <= r`, emitted in
    /// ascending `(src, dst)` order. The order is a structural
    /// invariant of the two-pass build — identical at every thread
    /// count, with no global sort.
    pub fn radius_edges_into(&mut self, r: f32, out: &mut Vec<(u32, u32)>) {
        let n = self.n;
        out.clear();
        if n == 0 {
            return;
        }
        // Pass 1: forward-neighbour counts, parallel over point chunks.
        let serial = n <= SERIAL_CUTOFF;
        let mut counts = std::mem::take(&mut self.counts);
        counts.clear();
        counts.resize(n, 0);
        {
            let this = &*self;
            let count_chunk = |c: usize, chunk: &mut [u32]| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    let i = c * POINT_CHUNK + k;
                    let mut cnt = 0u32;
                    // The grid visits `i` itself and lower ids too.
                    this.grid.for_each_in_radius(this.point(i), r, |j| {
                        cnt += u32::from(j as usize > i);
                    });
                    *slot = cnt;
                }
            };
            if serial {
                for (c, chunk) in counts.chunks_mut(POINT_CHUNK).enumerate() {
                    count_chunk(c, chunk);
                }
            } else {
                counts
                    .par_chunks_mut(POINT_CHUNK)
                    .enumerate()
                    .for_each(|(c, chunk)| count_chunk(c, chunk));
            }
        }
        // Serial prefix sum: per-point output offsets.
        let mut offsets = std::mem::take(&mut self.offsets);
        offsets.clear();
        offsets.reserve(n + 1);
        offsets.push(0);
        let mut acc = 0usize;
        for &c in counts.iter() {
            acc += c as usize;
            offsets.push(acc);
        }
        // Pass 2: re-run each query, sort its hits ascending, and write
        // the run into the point's reserved output slice.
        out.resize(acc, (0, 0));
        let base = SendPtr(out.as_mut_ptr());
        let chunks = n.div_ceil(POINT_CHUNK);
        {
            let this = &*self;
            let offsets = &offsets;
            let fill_chunk = |c: usize| {
                // Capture the whole `SendPtr` (2021 disjoint capture would
                // otherwise grab the raw pointer field, which isn't Sync).
                #[allow(clippy::redundant_locals)]
                let base = base;
                with_id_scratch(|ids| {
                    let end = ((c + 1) * POINT_CHUNK).min(n);
                    for i in c * POINT_CHUNK..end {
                        ids.clear();
                        this.grid.for_each_in_radius(this.point(i), r, |j| {
                            if j as usize > i {
                                ids.push(j);
                            }
                        });
                        ids.sort_unstable();
                        debug_assert_eq!(ids.len(), offsets[i + 1] - offsets[i]);
                        for (k, &j) in ids.iter().enumerate() {
                            // SAFETY: offsets strictly partition `out`;
                            // slice `offsets[i]..offsets[i+1]` is written
                            // only by this task.
                            unsafe { base.0.add(offsets[i] + k).write((i as u32, j)) };
                        }
                    }
                });
            };
            if serial {
                (0..chunks).for_each(fill_chunk);
            } else {
                (0..chunks).into_par_iter().for_each(fill_chunk);
            }
        }
        self.counts = counts;
        self.offsets = offsets;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radius::radius_graph_brute;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn cloud(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn engine_agrees_with_brute_reference() {
        for dim in [2usize, 3, 8] {
            let pts = cloud(150, dim, 21);
            let mut idx = GraphIndex::default();
            idx.rebuild(&pts, dim, 0.45);
            let mut got = Vec::new();
            idx.radius_edges_into(0.45, &mut got);
            assert_eq!(got, radius_graph_brute(&pts, dim, 0.45), "dim {dim}");
        }
    }

    #[test]
    fn edges_are_emitted_in_sorted_order_without_sorting() {
        let pts = cloud(200, 3, 22);
        let mut idx = GraphIndex::default();
        idx.rebuild(&pts, 3, 0.5);
        let mut edges = Vec::new();
        idx.radius_edges_into(0.5, &mut edges);
        assert!(edges.windows(2).all(|w| w[0] < w[1]), "order violated");
    }

    #[test]
    fn pooled_rebuilds_match_fresh_builds() {
        let mut idx = GraphIndex::default();
        let mut edges = Vec::new();
        for seed in 30..34 {
            let pts = cloud(120, 8, seed);
            idx.rebuild(&pts, 8, 0.6);
            idx.radius_edges_into(0.6, &mut edges);
            assert_eq!(edges, radius_graph_brute(&pts, 8, 0.6), "seed {seed}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let mut idx = GraphIndex::default();
        idx.rebuild(&[], 3, 0.5);
        let mut edges = vec![(9, 9)];
        idx.radius_edges_into(0.5, &mut edges);
        assert!(edges.is_empty());
        idx.rebuild(&[1.0, 2.0, 3.0], 3, 0.5);
        idx.radius_edges_into(0.5, &mut edges);
        assert!(edges.is_empty());
    }
}
