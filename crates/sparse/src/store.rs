//! Row-oriented storage abstraction over CSR matrices.
//!
//! Sampling only ever touches a graph through row reads: neighbor walks
//! read the rows of a frontier, induced-subgraph extraction reads the
//! rows of a selection, and the SpGEMM formulation is row selection in
//! matrix clothing. [`RowStore`] captures exactly that access pattern, so
//! the samplers can run against either the in-core [`Csr`]
//! (borrowed slices, zero overhead) or the file-backed
//! [`crate::ShardedCsr`] (rows faulted in shard-at-a-time through an LRU
//! cache) without knowing which they have.
//!
//! Rows are read one way: [`RowStore::gather`] is told every row a pass
//! is about to read and returns a [`RowView`] over them. A sharded store
//! looks up each shard those rows touch once, in ascending order, however
//! the rows are ordered; the view then answers [`RowView::row`] and
//! [`RowView::get`] with no lock and no dynamic dispatch. An in-core
//! store returns a borrowed view of itself in O(1). Both samplers know a
//! walk step's frontier (and an extraction's selection) before they read
//! any of it, so every read goes through a view.
//!
//! **Faults.** `gather` is the only read that touches the backing store,
//! so a shard that cannot be read is a [`StoreError`] from `gather` and
//! nothing else: no read panics on a fault. Callers that cannot return
//! the error themselves record it (see `SamplerGraph` in
//! `trkx-sampling`) and read [`RowView::empty`] from then on.
//! [`RowStoreExt::row_scope`] is the one exception: a one-row gather
//! kept for the frozen benchmark, which panics on a fault.

use std::sync::Arc;

use crate::csr::Csr;
use crate::sharded::StoreError;

/// Shard-cache traffic counters, aggregated from a [`RowStore`].
///
/// In-core stores report `None` from [`RowStore::counters`]; sharded
/// stores report cumulative (monotone) totals since open. One shard
/// lookup is one shard a [`RowStore::gather`] touches, however many of
/// the gathered rows land in it; reads through a [`RowView`] are not
/// counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Shard lookups served by a resident shard.
    pub hits: u64,
    /// Shard lookups that faulted a shard in from disk.
    pub misses: u64,
    /// Shards dropped to make room for a faulted one.
    pub evictions: u64,
}

impl CacheCounters {
    /// Component-wise sum — for aggregating over several stores.
    pub fn merged(self, other: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }

    /// Fraction of lookups served without a disk fault (1.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Read-only row access to a CSR-shaped matrix, object-safe: the
/// shape, one fallible read ([`RowStore::gather`]) and the cache
/// counters.
///
/// Implementations must be safe to share across sampling threads
/// (`Send + Sync`); the sharded store serializes shard faults
/// internally. Rows are sorted by column (both stores keep them sorted),
/// which [`RowView::get`] relies on.
pub trait RowStore<T: Copy + Default>: Send + Sync + std::fmt::Debug {
    fn nrows(&self) -> usize;
    fn ncols(&self) -> usize;
    fn nnz(&self) -> usize;

    /// Make `rows` readable through one [`RowView`]: the plan-ahead read
    /// for a pass that knows every row it will touch. `rows` may hold
    /// duplicates in any order; each must be `< nrows()`. The view
    /// answers [`RowView::row`] for every row in `rows` (and may answer
    /// others). A store with a cache reads each backing unit at most
    /// once per call and keeps it alive for the view's lifetime — see
    /// [`crate::ShardedCsr::open`] for what that costs in memory. A
    /// backing unit that cannot be read is an `Err`; a row `>= nrows()`
    /// is a caller bug and may panic.
    fn gather(&self, rows: &[u32]) -> Result<RowView<'_, T>, StoreError>;

    /// Cache traffic counters, if this store has a cache.
    fn counters(&self) -> Option<CacheCounters> {
        None
    }
}

/// Rows made readable by one [`RowStore::gather`].
///
/// [`RowView::row`] takes no lock and makes no dynamic call. A view
/// holds what it covers — a borrow of an in-core matrix, or one `Arc` per
/// shard the gathered rows touch — so a sharded view keeps its shards
/// resident even after the store's LRU evicts them. Hold a view for one
/// pass over its rows and drop it before gathering the next.
#[derive(Debug)]
pub struct RowView<'a, T> {
    rows: ViewRows<'a, T>,
}

#[derive(Debug)]
enum ViewRows<'a, T> {
    /// A whole in-core matrix.
    Borrowed(&'a Csr<T>),
    /// Shard `s` holds rows `s * shard_nodes ..`, renumbered from 0;
    /// `None` for a shard the gather did not touch.
    Shards {
        shard_nodes: usize,
        shards: Vec<Option<Arc<Csr<T>>>>,
    },
    /// Every row reads as empty.
    Empty,
}

impl<'a, T: Copy + Default> RowView<'a, T> {
    /// A view over fixed node-range shards of `shard_nodes` rows each.
    pub(crate) fn from_shards(shard_nodes: usize, shards: Vec<Option<Arc<Csr<T>>>>) -> Self {
        Self {
            rows: ViewRows::Shards {
                shard_nodes,
                shards,
            },
        }
    }

    /// A view in which every row is empty: what a reader that has
    /// recorded a store fault reads from then on.
    pub fn empty() -> Self {
        Self {
            rows: ViewRows::Empty,
        }
    }

    /// Column indices and values of row `r`. Panics if `r` is out of
    /// range or was not gathered into this view; an empty view answers
    /// every row.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[T]) {
        match &self.rows {
            ViewRows::Empty => (&[], &[]),
            ViewRows::Borrowed(csr) => csr.row(r),
            ViewRows::Shards {
                shard_nodes,
                shards,
            } => {
                let shard = shards
                    .get(r / shard_nodes)
                    .and_then(Option::as_deref)
                    .unwrap_or_else(|| panic!("row {r} was not gathered into this view"));
                shard.row(r % shard_nodes)
            }
        }
    }

    /// Entry `(r, c)`, by binary search on the sorted row (as
    /// [`Csr::get`]). Panics as [`RowView::row`] does.
    pub fn get(&self, r: usize, c: u32) -> Option<T> {
        let (cols, vals) = self.row(r);
        cols.binary_search(&c).ok().map(|i| vals[i])
    }
}

/// The whole matrix as a view, without copying.
impl<'a, T> From<&'a Csr<T>> for RowView<'a, T> {
    fn from(csr: &'a Csr<T>) -> Self {
        Self {
            rows: ViewRows::Borrowed(csr),
        }
    }
}

/// One row read through a one-row [`RowStore::gather`], kept because the
/// frozen benchmark's row-access probe calls it.
pub trait RowStoreExt<T: Copy + Default> {
    /// Run `f` on row `r`'s columns and values. Panics if the store
    /// cannot read the row: a caller that must survive a fault gathers.
    fn row_scope<R>(&self, r: usize, f: impl FnOnce(&[u32], &[T]) -> R) -> R;
}

impl<T: Copy + Default, S: RowStore<T> + ?Sized> RowStoreExt<T> for S {
    fn row_scope<R>(&self, r: usize, f: impl FnOnce(&[u32], &[T]) -> R) -> R {
        let view = self
            .gather(&[r as u32])
            .unwrap_or_else(|e| panic!("row {r}: {e}"));
        let (cols, vals) = view.row(r);
        f(cols, vals)
    }
}

impl<T: Copy + Default + Send + Sync + std::fmt::Debug> RowStore<T> for Csr<T> {
    fn nrows(&self) -> usize {
        Csr::nrows(self)
    }

    fn ncols(&self) -> usize {
        Csr::ncols(self)
    }

    fn nnz(&self) -> usize {
        Csr::nnz(self)
    }

    /// O(1): the view borrows the whole matrix and `rows` is never read.
    fn gather(&self, _rows: &[u32]) -> Result<RowView<'_, T>, StoreError> {
        Ok(RowView::from(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::adjacency_with_edge_ids;

    #[test]
    fn csr_row_store_matches_direct_access() {
        let a = adjacency_with_edge_ids(4, &[0, 0, 1, 3], &[1, 2, 3, 0]);
        let s: &dyn RowStore<u32> = &a;
        assert_eq!(s.nrows(), 4);
        assert_eq!(s.nnz(), 4);
        assert!(s.counters().is_none());
        let view = s.gather(&[3, 0, 1]).unwrap();
        assert_eq!(view.row(0).0.len(), 2);
        assert_eq!(view.get(1, 3), Some(2));
        assert_eq!(view.get(1, 2), None);
        assert_eq!(view.row(0), (&[1u32, 2][..], &[0u32, 1][..]));
        assert_eq!(view.row(3), (&[0u32][..], &[3u32][..]));
        let (cols, ids) = s.row_scope(0, |c, v| (c.to_vec(), v.to_vec()));
        assert_eq!(cols, vec![1, 2]);
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn csr_gather_borrows_without_reading_rows() {
        let a = adjacency_with_edge_ids(4, &[0, 0, 1, 3], &[1, 2, 3, 0]);
        // Rows that do not exist are never looked at: the in-core view
        // is the matrix itself, and every row reads through it.
        let view = RowStore::gather(&a, &[u32::MAX, 7]).unwrap();
        for r in 0..a.nrows() {
            assert_eq!(view.row(r), a.row(r));
            assert!(
                std::ptr::eq(view.row(r).0, a.row(r).0),
                "row {r} was copied"
            );
        }
    }

    #[test]
    fn empty_view_reads_every_row_as_empty() {
        let view = RowView::<u32>::empty();
        for r in [0, 7, usize::MAX] {
            assert_eq!(view.row(r), (&[][..], &[][..]));
            assert_eq!(view.get(r, 0), None);
        }
    }

    #[test]
    fn counters_merge_and_hit_rate() {
        let a = CacheCounters {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        let b = CacheCounters {
            hits: 1,
            misses: 3,
            evictions: 2,
        };
        let m = a.merged(b);
        assert_eq!(m.hits, 4);
        assert_eq!(m.misses, 4);
        assert_eq!(m.evictions, 2);
        assert!((m.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheCounters::default().hit_rate(), 1.0);
    }
}
