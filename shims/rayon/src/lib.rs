//! Offline shim for `rayon`: the data-parallel subset the workspace uses,
//! executed on a persistent thread pool (`pool.rs`).
//!
//! Provided: `par_iter` / `par_iter_mut` (+ `zip`, `for_each`, `sum`),
//! `par_chunks_mut().enumerate().for_each`, `par_sort_unstable`,
//! `into_par_iter` on ranges and `Vec` (+ `map`, `map_init`, `collect`),
//! and `current_num_threads`.
//! Adapters are eager executors, not lazy combinator graphs — each
//! terminal call fans blocks out over the pool via `pool::join_n`.
//!
//! Beyond rayon: [`occupy`] holds the calling thread's core, and
//! `current_num_threads` is the pool less the cores other threads hold
//! (the one thread budget, see `pool.rs`).

mod pool;

use std::mem::MaybeUninit;

pub use pool::{current_num_threads, occupy, Occupied};

/// Smallest per-block workload worth shipping to another thread.
const MIN_BLOCK: usize = 1024;

/// Pointer wrapper so disjoint-range writers can cross thread boundaries.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SendPtr<T> {}
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// True when a block split of `len` would produce a single block: the
/// caller can run inline without a queue round-trip.
fn single_block(len: usize, min_block: usize) -> bool {
    len / min_block.max(1) <= 1 || pool::current_num_threads() == 1
}

/// Run `f` over each index block of `0..len` in parallel. Block
/// boundaries are arithmetic ([`pool::BlockSplit`]) and jobs are queued
/// as plain-old-data units, so dispatch performs no allocation on any
/// path or thread count.
fn for_each_block(len: usize, min_block: usize, f: impl Fn(std::ops::Range<usize>) + Sync) {
    if len == 0 {
        return;
    }
    if single_block(len, min_block) {
        return f(0..len);
    }
    let split = pool::BlockSplit::new(len, min_block);
    pool::join_n(split.count(), &|b| f(split.range(b)));
}

/// Parallel-map `0..len` into a fresh `Vec` via per-index `f`.
fn collect_indexed<U: Send>(len: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    let mut out: Vec<MaybeUninit<U>> = Vec::with_capacity(len);
    // SAFETY: MaybeUninit needs no initialisation; every slot is written
    // exactly once below before the transmute.
    unsafe { out.set_len(len) };
    let base = SendPtr(out.as_mut_ptr());
    for_each_block(len, 1, |range| {
        let base = base;
        for i in range {
            // SAFETY: blocks are disjoint, so each index is written once.
            unsafe { base.0.add(i).write(MaybeUninit::new(f(i))) };
        }
    });
    // SAFETY: all `len` slots initialised; MaybeUninit<U> and U are
    // layout-identical.
    unsafe { std::mem::transmute::<Vec<MaybeUninit<U>>, Vec<U>>(out) }
}

// ---------------------------------------------------------------------
// Shared-slice iterator.

pub struct ParIter<'a, T>(&'a [T]);

impl<'a, T: Sync> ParIter<'a, T> {
    pub fn for_each(self, f: impl Fn(&'a T) + Sync) {
        let data = self.0;
        for_each_block(data.len(), MIN_BLOCK, |r| {
            for item in &data[r] {
                f(item);
            }
        });
    }

    pub fn zip<U: Sync>(self, other: ParIter<'a, U>) -> ParZip<'a, T, U> {
        ParZip {
            a: self.0,
            b: other.0,
        }
    }

    pub fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<&'a T> + std::iter::Sum<S>,
    {
        let data = self.0;
        let partials = collect_indexed_blocks(data.len(), MIN_BLOCK, |r| data[r].iter().sum::<S>());
        partials.into_iter().sum()
    }

    pub fn map<U: Send>(self, f: impl Fn(&'a T) -> U + Sync) -> ParMapped<U> {
        let data = self.0;
        ParMapped(collect_indexed(data.len(), |i| f(&data[i])))
    }
}

/// Parallel-map each index block of `0..len` to one value.
fn collect_indexed_blocks<U: Send>(
    len: usize,
    min_block: usize,
    f: impl Fn(std::ops::Range<usize>) -> U + Sync,
) -> Vec<U> {
    let split = pool::BlockSplit::new(len, min_block);
    collect_indexed(split.count(), |b| f(split.range(b)))
}

pub struct ParZip<'a, T, U> {
    a: &'a [T],
    b: &'a [U],
}

impl<'a, T: Sync, U: Sync> ParZip<'a, T, U> {
    pub fn for_each(self, f: impl Fn((&'a T, &'a U)) + Sync) {
        let (a, b) = (self.a, self.b);
        let len = a.len().min(b.len());
        for_each_block(len, MIN_BLOCK, |r| {
            for i in r {
                f((&a[i], &b[i]));
            }
        });
    }
}

// ---------------------------------------------------------------------
// Mutable-slice iterator.

pub struct ParIterMut<'a, T>(&'a mut [T]);

impl<'a, T: Send> ParIterMut<'a, T> {
    pub fn for_each(self, f: impl Fn(&mut T) + Sync) {
        let len = self.0.len();
        let base = SendPtr(self.0.as_mut_ptr());
        for_each_block(len, MIN_BLOCK, |r| {
            let base = base;
            for i in r {
                // SAFETY: blocks are disjoint ⇒ exclusive access per index.
                f(unsafe { &mut *base.0.add(i) });
            }
        });
    }

    pub fn enumerate(self) -> ParIterMutEnum<'a, T> {
        ParIterMutEnum(self.0)
    }

    pub fn zip<U: Sync>(self, other: ParIter<'a, U>) -> ParZipMut<'a, T, U> {
        ParZipMut {
            a: self.0,
            b: other.0,
        }
    }
}

pub struct ParIterMutEnum<'a, T>(&'a mut [T]);

impl<'a, T: Send> ParIterMutEnum<'a, T> {
    pub fn for_each(self, f: impl Fn((usize, &mut T)) + Sync) {
        let len = self.0.len();
        let base = SendPtr(self.0.as_mut_ptr());
        for_each_block(len, MIN_BLOCK, |r| {
            let base = base;
            for i in r {
                // SAFETY: disjoint blocks.
                f((i, unsafe { &mut *base.0.add(i) }));
            }
        });
    }
}

pub struct ParZipMut<'a, T, U> {
    a: &'a mut [T],
    b: &'a [U],
}

impl<'a, T: Send, U: Sync> ParZipMut<'a, T, U> {
    pub fn for_each(self, f: impl Fn((&mut T, &'a U)) + Sync) {
        let len = self.a.len().min(self.b.len());
        let base = SendPtr(self.a.as_mut_ptr());
        let b = self.b;
        for_each_block(len, MIN_BLOCK, |r| {
            let base = base;
            for i in r {
                // SAFETY: disjoint blocks.
                f((unsafe { &mut *base.0.add(i) }, &b[i]));
            }
        });
    }
}

// ---------------------------------------------------------------------
// Mutable chunks.

pub struct ParChunksMut<'a, T> {
    data: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    pub fn enumerate(self) -> ParChunksMutEnum<'a, T> {
        ParChunksMutEnum {
            data: self.data,
            size: self.size,
        }
    }

    pub fn for_each(self, f: impl Fn(&mut [T]) + Sync) {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

pub struct ParChunksMutEnum<'a, T> {
    data: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMutEnum<'a, T> {
    pub fn for_each(self, f: impl Fn((usize, &mut [T])) + Sync) {
        assert!(self.size > 0, "chunk size must be non-zero");
        let len = self.data.len();
        let n_chunks = len.div_ceil(self.size);
        let size = self.size;
        // One pool block per group of chunks, ≥1 chunk each.
        let chunks_per_block = (MIN_BLOCK / size.max(1)).max(1);
        if single_block(n_chunks, chunks_per_block) {
            // Zero-allocation fast path (see `for_each_block`).
            for (c, chunk) in self.data.chunks_mut(size).enumerate() {
                f((c, chunk));
            }
            return;
        }
        let base = SendPtr(self.data.as_mut_ptr());
        let split = pool::BlockSplit::new(n_chunks, chunks_per_block);
        pool::join_n(split.count(), &|b| {
            let base = base;
            for c in split.range(b) {
                let start = c * size;
                let end = (start + size).min(len);
                // SAFETY: chunk ranges are disjoint sub-slices.
                let chunk =
                    unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
                f((c, chunk));
            }
        });
    }
}

// ---------------------------------------------------------------------
// Slice entry points.

pub trait ParallelSlice<T> {
    fn par_iter(&self) -> ParIter<'_, T>;
}

pub trait ParallelSliceMut<T> {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
    fn par_sort_unstable(&mut self)
    where
        T: Ord + Send;
}

impl<T> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter(self)
    }
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut(self)
    }

    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        ParChunksMut { data: self, size }
    }

    fn par_sort_unstable(&mut self)
    where
        T: Ord + Send,
    {
        // Parallel merge sort would add little here; the workspace sorts
        // edge lists that are far from the hot path.
        self.sort_unstable();
    }
}

// ---------------------------------------------------------------------
// IntoParallelIterator for ranges and vectors.

pub trait IntoParallelIterator {
    type Iter;
    fn into_par_iter(self) -> Self::Iter;
}

pub struct ParRange(std::ops::Range<usize>);

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange(self)
    }
}

impl ParRange {
    pub fn map<U: Send>(self, f: impl Fn(usize) -> U + Sync) -> ParMapped<U> {
        let start = self.0.start;
        ParMapped(collect_indexed(self.0.len(), |i| f(start + i)))
    }

    pub fn for_each(self, f: impl Fn(usize) + Sync) {
        let start = self.0.start;
        for_each_block(self.0.len(), 1, |r| {
            for i in r {
                f(start + i);
            }
        });
    }
}

pub struct ParVec<T>(Vec<T>);

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = ParVec<T>;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec(self)
    }
}

impl<T: Send> ParVec<T> {
    pub fn map<U: Send>(self, f: impl Fn(T) -> U + Sync) -> ParMapped<U> {
        let items = self.0;
        // Move items out via raw reads; the source Vec is forgotten after.
        let mut items = std::mem::ManuallyDrop::new(items);
        let len = items.len();
        let src = SendPtr(items.as_mut_ptr());
        let out = collect_indexed(len, |i| {
            let src = src;
            // SAFETY: each index read exactly once, source forgotten below.
            f(unsafe { src.0.add(i).read() })
        });
        // SAFETY: elements moved out above; free only the allocation.
        unsafe { items.set_len(0) };
        let _ = std::mem::ManuallyDrop::into_inner(items);
        ParMapped(out)
    }

    pub fn map_init<S, U: Send>(
        self,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, T) -> U + Sync,
    ) -> ParMapped<U> {
        let mut items = std::mem::ManuallyDrop::new(self.0);
        let len = items.len();
        let src = SendPtr(items.as_mut_ptr());
        let mut out: Vec<MaybeUninit<U>> = Vec::with_capacity(len);
        // SAFETY: see collect_indexed.
        unsafe { out.set_len(len) };
        let dst = SendPtr(out.as_mut_ptr());
        for_each_block(len, 1, |r| {
            let (src, dst) = (src, dst);
            let mut state = init();
            for i in r {
                // SAFETY: disjoint blocks; each index read/written once.
                unsafe {
                    let item = src.0.add(i).read();
                    dst.0.add(i).write(MaybeUninit::new(f(&mut state, item)));
                }
            }
        });
        // SAFETY: elements moved out; free only the allocation.
        unsafe { items.set_len(0) };
        let _ = std::mem::ManuallyDrop::into_inner(items);
        // SAFETY: all slots written.
        ParMapped(unsafe { std::mem::transmute::<Vec<MaybeUninit<U>>, Vec<U>>(out) })
    }
}

/// Result of a parallel map, ready to collect.
pub struct ParMapped<U>(Vec<U>);

impl<U> ParMapped<U> {
    pub fn collect<C: FromParallelOutput<U>>(self) -> C {
        C::from_vec(self.0)
    }
}

pub trait FromParallelOutput<U> {
    fn from_vec(v: Vec<U>) -> Self;
}

impl<U> FromParallelOutput<U> for Vec<U> {
    fn from_vec(v: Vec<U>) -> Self {
        v
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..10_000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn chunks_mut_touches_every_chunk_once() {
        let mut data = vec![0u32; 10_000];
        data.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
            for x in chunk {
                *x = i as u32;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, (i / 7) as u32);
        }
    }

    #[test]
    fn par_sum_matches_serial() {
        let data: Vec<f32> = (0..50_000).map(|i| (i % 13) as f32).collect();
        let par: f32 = crate::ParallelSlice::par_iter(&data[..]).sum();
        let ser: f32 = data.iter().sum();
        assert!((par - ser).abs() < 1.0, "{par} vs {ser}");
    }

    #[test]
    fn zip_mut_adds_elementwise() {
        let mut a = vec![1.0f32; 5000];
        let b = vec![2.0f32; 5000];
        a.par_iter_mut()
            .zip(b.par_iter())
            .for_each(|(x, &y)| *x += y);
        assert!(a.iter().all(|&v| v == 3.0));
    }

    #[test]
    fn map_init_runs_init_per_block() {
        let items: Vec<u32> = (0..10_000).collect();
        let out: Vec<u64> = items
            .into_par_iter()
            .map_init(
                || 1u64,
                |s, x| {
                    *s += 1;
                    x as u64
                },
            )
            .collect();
        assert_eq!(out.len(), 10_000);
        assert!(out.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn panics_propagate_to_caller() {
        let result = std::panic::catch_unwind(|| {
            (0..10_000usize).into_par_iter().for_each(|i| {
                if i == 7777 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
        // The pool must stay usable afterwards.
        let v: Vec<usize> = (0..100).into_par_iter().map(|i| i).collect();
        assert_eq!(v.len(), 100);
    }
}
