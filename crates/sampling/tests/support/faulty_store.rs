//! A fault-injecting [`RowStore`] for tests: it wraps another store
//! (in-core in every test) and fails its `k`-th `gather` with
//! `StoreError::Io` (an injected EIO) or `StoreError::Corrupt` (a short
//! read); every other call reads the wrapped store. Test binaries include
//! this file with `#[path]`.
//!
//! A store built with `marked_only` counts only the calls made on
//! threads that called [`mark_this_thread`], which is how a test puts the
//! fault on one DDP rank: the trainer calls the hook factory on each
//! rank's own thread, with its rank.

#![allow(dead_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use trkx_sampling::SamplerGraph;
use trkx_sparse::{RowStore, RowView, StoreError};

/// The name every injected error carries.
pub const STORE_NAME: &str = "faulty.shard";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `StoreError::Io`, as a failing disk read reports it.
    Eio,
    /// `StoreError::Corrupt`, as a shard blob cut short reports it.
    ShortRead,
}

thread_local! {
    static MARKED: Cell<bool> = const { Cell::new(false) };
}

/// Make this thread's calls count for a `marked_only` store.
pub fn mark_this_thread() {
    MARKED.with(|m| m.set(true));
}

#[derive(Debug)]
pub struct FaultyStore {
    inner: Arc<dyn RowStore<u32>>,
    fault: Fault,
    /// 1-based index of the failing call; `usize::MAX` never fails.
    fail_on: usize,
    marked_only: bool,
    calls: AtomicUsize,
}

impl FaultyStore {
    /// Calls counted so far.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }
}

impl RowStore<u32> for FaultyStore {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    fn gather(&self, rows: &[u32]) -> Result<RowView<'_, u32>, StoreError> {
        if self.marked_only && !MARKED.with(Cell::get) {
            return self.inner.gather(rows);
        }
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if call != self.fail_on {
            return self.inner.gather(rows);
        }
        Err(match self.fault {
            Fault::Eio => StoreError::Io(std::io::Error::other(format!(
                "{STORE_NAME}: injected EIO on gather {call}"
            ))),
            Fault::ShortRead => StoreError::Corrupt(format!(
                "{STORE_NAME}: truncated blob (short read on gather {call})"
            )),
        })
    }
}

/// `g` with its undirected store (the one every walk step reads) behind
/// a [`FaultyStore`] that fails its `fail_on`-th gather (counting only
/// marked threads' calls if `marked_only`); the directed store is shared
/// as is.
pub fn faulty_graph(
    g: &SamplerGraph,
    fault: Fault,
    fail_on: usize,
    marked_only: bool,
) -> (SamplerGraph, Arc<FaultyStore>) {
    let store = Arc::new(FaultyStore {
        inner: g.undirected.clone(),
        fault,
        fail_on,
        marked_only,
        calls: AtomicUsize::new(0),
    });
    let graph = SamplerGraph::from_stores(g.num_nodes, g.directed.clone(), store.clone());
    (graph, store)
}
