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
//! Rows are read two ways:
//!
//! - **Planned:** [`RowStore::gather`] is told every row a pass is about
//!   to read and returns a [`RowView`] over them. A sharded store looks
//!   up each shard those rows touch once, in ascending order, however
//!   the rows are ordered; the view then answers [`RowView::row`] with no
//!   lock and no dynamic dispatch. An in-core store returns a borrowed
//!   view of itself in O(1). Bulk sampling knows a whole walk step's
//!   frontier (and a whole chunk's extraction set) before it reads any
//!   of it, so it reads through views.
//! - **Point lookups:** [`RowStore::with_row`] reads one row through the
//!   cache. The trait is object-safe — `SamplerGraph` holds `Arc<dyn
//!   RowStore<u32>>` — which is why this is a callback rather than a
//!   borrowing `row()` (a trait object cannot return slices tied to a
//!   lock-guarded cache entry). [`RowStoreExt::row_scope`] layers the
//!   ergonomic closure-with-return form on top.

use std::sync::Arc;

use crate::csr::Csr;
use crate::sharded::StoreError;

/// Shard-cache traffic counters, aggregated from a [`RowStore`].
///
/// In-core stores report `None` from [`RowStore::counters`]; sharded
/// stores report cumulative (monotone) totals since open. One shard
/// lookup is one point read ([`RowStore::with_row`], `row_nnz`, `get`)
/// or one shard a [`RowStore::gather`] touches; reads through a
/// [`RowView`] are not counted.
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

/// Read-only row access to a CSR-shaped matrix, object-safe.
///
/// Implementations must be safe to share across sampling threads
/// (`Send + Sync`); the sharded store serializes shard faults
/// internally.
pub trait RowStore<T: Copy + Default>: Send + Sync + std::fmt::Debug {
    fn nrows(&self) -> usize;
    fn ncols(&self) -> usize;
    fn nnz(&self) -> usize;

    /// Visit row `r`'s column indices and values. The callback is
    /// invoked exactly once; the slices are only valid for its duration
    /// (a sharded store may evict the backing shard afterwards).
    fn with_row(&self, r: usize, f: &mut dyn FnMut(&[u32], &[T]));

    /// Number of stored entries in row `r`.
    fn row_nnz(&self, r: usize) -> usize;

    /// Entry lookup; rows must be sorted by column (both stores keep
    /// them sorted).
    fn get(&self, r: usize, c: u32) -> Option<T>;

    /// Make `rows` readable through one [`RowView`]: the plan-ahead read
    /// for a pass that knows every row it will touch. `rows` may hold
    /// duplicates in any order; each must be `< nrows()`. The view
    /// answers [`RowView::row`] for every row in `rows` (and may answer
    /// others). A store with a cache reads each backing unit at most
    /// once per call and keeps it alive for the view's lifetime — see
    /// [`crate::ShardedCsr::open`] for what that costs in memory.
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

    /// Column indices and values of row `r`. Panics if `r` is out of
    /// range or was not gathered into this view.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[T]) {
        match &self.rows {
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
}

/// The whole matrix as a view, without copying.
impl<'a, T> From<&'a Csr<T>> for RowView<'a, T> {
    fn from(csr: &'a Csr<T>) -> Self {
        Self {
            rows: ViewRows::Borrowed(csr),
        }
    }
}

/// Ergonomic extension over [`RowStore::with_row`]: run a closure on a
/// row and return its value.
pub trait RowStoreExt<T: Copy + Default> {
    fn row_scope<R>(&self, r: usize, f: impl FnOnce(&[u32], &[T]) -> R) -> R;
}

impl<T: Copy + Default, S: RowStore<T> + ?Sized> RowStoreExt<T> for S {
    fn row_scope<R>(&self, r: usize, f: impl FnOnce(&[u32], &[T]) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.with_row(r, &mut |cols, vals| {
            if let Some(f) = f.take() {
                out = Some(f(cols, vals));
            }
        });
        out.expect("with_row must invoke its callback exactly once")
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

    fn with_row(&self, r: usize, f: &mut dyn FnMut(&[u32], &[T])) {
        let (cols, vals) = self.row(r);
        f(cols, vals);
    }

    fn row_nnz(&self, r: usize) -> usize {
        Csr::row_nnz(self, r)
    }

    fn get(&self, r: usize, c: u32) -> Option<T> {
        Csr::get(self, r, c)
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
        assert_eq!(s.row_nnz(0), 2);
        assert_eq!(s.get(1, 3), Some(2));
        assert_eq!(s.get(1, 2), None);
        let (cols, ids) = s.row_scope(0, |c, v| (c.to_vec(), v.to_vec()));
        assert_eq!(cols, vec![1, 2]);
        assert_eq!(ids, vec![0, 1]);
        assert!(s.counters().is_none());
        let view = s.gather(&[3, 0]).unwrap();
        assert_eq!(view.row(3), (&[0u32][..], &[3u32][..]));
        assert_eq!(view.row(0), a.row(0));
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
