//! Size-class recycling pool for `f32` buffers.
//!
//! The autograd tape allocates one value buffer per op and one gradient
//! buffer per differentiable node, every step. [`crate::Tape::reset`]
//! drains them here and the next step's ops draw them back out, instead
//! of ~10^2 buffers (hundreds of MB) going through the system allocator.
//!
//! A sampled subgraph or a served micro-batch never has the same vertex
//! and edge count twice, so buffers are matched by **size class**, not
//! exact length: four classes per octave (capacities `{4, 5, 6, 7} · 2^k`
//! elements; the smallest, 64, also serves every tinier request). A
//! request is rounded up to its class and handed out with `len` set
//! exactly, so `Matrix::len` never sees the slack. A returned buffer is
//! filed under the largest class its *capacity* covers (a matrix given to
//! `Tape::leaf` recycles like one made here), so any buffer in a bucket
//! fits any request of that class or below: one index, no search. A
//! request its own class cannot serve takes the smallest parked buffer of
//! the next four classes up (one octave: at most twice its capacity)
//! before it goes to the reservoir or the allocator: a step whose sizes
//! drift from the last one's reuses the last one's buffers instead of
//! adding a class's worth of fresh ones. A fresh buffer is allocated at
//! class capacity, at most 25 % over its request above the smallest
//! class.
//!
//! Buffers outlive the tape that used them. Dropping a [`crate::Tape`]
//! parks its values and gradients in its pool, and dropping a pool moves
//! every buffer whose capacity is exactly its class capacity into one
//! process-wide reservoir (foreign-capacity buffers are freed). A pool
//! that misses in its own bucket takes from the reservoir's bucket of the
//! same class before it allocates. So a training call that builds fresh
//! tapes reuses the previous call's storage instead of faulting in new
//! pages, and a serve worker reuses what setup's training left. Nothing is
//! trimmed, here or in the reservoir: a class holds at most as many
//! buffers as were live in it at once.
//!
//! A pool counts in floats of capacity, with plain counters on `take`
//! and `put`: what it handed out over its life
//! ([`BufferPool::handed_out_floats`]), what is out now
//! ([`BufferPool::live_floats`]) and the most that was out at once
//! ([`BufferPool::peak_live_floats`]). The peak is the working set of
//! what ran on the pool, read without the allocator or RSS: a training
//! step's tape keeps the activations backward reads live until reset,
//! while inference on the eager executor (`trkx_nn::Eager`) puts each
//! buffer back after its last use.

use crate::Matrix;
use std::sync::{Mutex, MutexGuard};

/// log2 of the classes per octave: consecutive capacities differ by at
/// most `1 + 1/4`.
const SUB_BITS: usize = 2;
const PER_OCTAVE: usize = 1 << SUB_BITS;
/// log2 of the smallest class's capacity (64 elements).
const MIN_SHIFT: usize = 6;
/// How many classes above its own a request may take a parked buffer
/// from: one octave.
const SPAN: usize = PER_OCTAVE;

/// The largest class whose capacity is ≤ `cap`, for `cap ≥ 2^MIN_SHIFT`.
fn class_below(cap: usize) -> usize {
    let octave = cap.ilog2() as usize;
    // The bits under the leading one say which quarter of the octave.
    let quarter = (cap >> (octave - SUB_BITS)) - PER_OCTAVE;
    PER_OCTAVE * (octave - MIN_SHIFT) + quarter
}

/// The smallest class whose capacity is ≥ `len`.
fn class_above(len: usize) -> usize {
    if len <= 1 << MIN_SHIFT {
        0
    } else {
        class_below(len - 1) + 1
    }
}

/// Capacity in elements of class `class`.
fn class_capacity(class: usize) -> usize {
    (PER_OCTAVE + class % PER_OCTAVE) << (class / PER_OCTAVE + MIN_SHIFT - SUB_BITS)
}

/// The process-wide reservoir: `[c]` holds buffers of capacity exactly
/// class `c`'s, left by dropped pools (see the module docs).
static RESERVOIR: Mutex<Vec<Vec<Vec<f32>>>> = Mutex::new(Vec::new());

/// The reservoir, locked. Every update under the lock is one whole `Vec`
/// push, pop, resize or append, so even a poisoned lock guards a
/// consistent reservoir and is taken over as it is.
fn reservoir() -> MutexGuard<'static, Vec<Vec<Vec<f32>>>> {
    RESERVOIR.lock().unwrap_or_else(|e| e.into_inner())
}

/// Recycles `Vec<f32>` storage between training steps, bucketed by size
/// class (see the module docs).
#[derive(Default)]
pub struct BufferPool {
    /// `buckets[c]` parks buffers whose capacity is at least class `c`'s.
    buckets: Vec<Vec<Vec<f32>>>,
    /// Capacity in floats of every buffer handed out so far.
    handed_out: usize,
    /// Capacity of the buffers handed out and not yet put back.
    live: usize,
    /// The most `live` has been.
    peak_live: usize,
}

impl BufferPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer with room for `len` elements, its length and contents
    /// unspecified: a parked one of `len`'s class or of the smallest
    /// class up to [`SPAN`] above it, else one from the reservoir, else a
    /// fresh one at class capacity (allocated after the reservoir's lock
    /// is released).
    fn take(&mut self, len: usize) -> Vec<f32> {
        let class = class_above(len);
        let mut parked = self.buckets.iter_mut().skip(class).take(SPAN + 1);
        let buf = match parked.find_map(Vec::pop) {
            Some(buf) => buf,
            None => {
                let spare = reservoir().get_mut(class).and_then(Vec::pop);
                spare.unwrap_or_else(|| Vec::with_capacity(class_capacity(class)))
            }
        };
        self.handed_out += buf.capacity();
        self.live += buf.capacity();
        self.peak_live = self.peak_live.max(self.live);
        buf
    }

    /// Take a buffer of exactly `len` elements, zero-filled.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Take a buffer holding a copy of `src` (no zero-fill pass — the copy
    /// overwrites the whole buffer).
    pub fn take_copy(&mut self, src: &[f32]) -> Vec<f32> {
        let mut buf = self.take(src.len());
        buf.clear();
        buf.extend_from_slice(src);
        buf
    }

    /// Take a buffer of exactly `len` elements with unspecified contents
    /// (recycled buffers keep their stale values). For kernels that
    /// overwrite every element, e.g. [`Matrix::matmul_into`] — skips the
    /// zero-fill pass `take_zeroed` pays.
    pub fn take_raw(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.resize(len, 0.0);
        buf
    }

    /// A zeroed `rows x cols` matrix backed by pooled storage.
    pub fn zeros(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take_zeroed(rows * cols))
    }

    /// A `rows x cols` matrix of unspecified contents backed by pooled
    /// storage; the caller must overwrite every element.
    pub fn uninit(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take_raw(rows * cols))
    }

    /// A pooled copy of `m`.
    pub fn copy_of(&mut self, m: &Matrix) -> Matrix {
        Matrix::from_vec(m.rows(), m.cols(), self.take_copy(m.data()))
    }

    /// Park a buffer under the largest class its capacity covers. Buffers
    /// below the smallest class are dropped.
    pub fn put(&mut self, buf: Vec<f32>) {
        // A buffer this pool never handed out (a matrix given to
        // `Tape::leaf`) cannot take `live` below zero.
        self.live = self.live.saturating_sub(buf.capacity());
        if buf.capacity() < 1 << MIN_SHIFT {
            return;
        }
        let class = class_below(buf.capacity());
        if self.buckets.len() <= class {
            self.buckets.resize_with(class + 1, Vec::new);
        }
        self.buckets[class].push(buf);
    }

    /// Recycle a matrix's backing storage.
    pub fn recycle(&mut self, m: Matrix) {
        self.put(m.into_vec());
    }

    /// Number of buffers currently parked in the pool (for tests/metrics).
    pub fn parked(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Floats of capacity handed out over the pool's life, hits and
    /// misses alike: the storage its callers asked for.
    pub fn handed_out_floats(&self) -> usize {
        self.handed_out
    }

    /// Floats of capacity handed out and not yet put back.
    pub fn live_floats(&self) -> usize {
        self.live
    }

    /// The most floats that were live at once over the pool's life: the
    /// working set of whatever ran on it.
    pub fn peak_live_floats(&self) -> usize {
        self.peak_live
    }
}

impl Drop for BufferPool {
    /// Hand the parked buffers of exact class capacity to the reservoir;
    /// foreign-capacity ones (a matrix given to `Tape::leaf`) are freed
    /// first, outside the lock.
    fn drop(&mut self) {
        for (class, bucket) in self.buckets.iter_mut().enumerate() {
            bucket.retain(|b| b.capacity() == class_capacity(class));
        }
        if self.parked() == 0 {
            return;
        }
        let mut reservoir = reservoir();
        if reservoir.len() < self.buckets.len() {
            reservoir.resize_with(self.buckets.len(), Vec::new);
        }
        for (spares, bucket) in reservoir.iter_mut().zip(&mut self.buckets) {
            spares.append(bucket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_monotone_and_bracket_every_length() {
        for class in 0..80 {
            let cap = class_capacity(class);
            assert_eq!(class_below(cap), class);
            assert_eq!(class_above(cap), class);
            assert_eq!(class_above(cap + 1), class + 1);
            assert_eq!(class_below(class_capacity(class + 1) - 1), class);
            assert!(class_capacity(class + 1) * 4 <= cap * 5, "step > 5/4");
        }
        assert_eq!(class_above(0), 0);
        assert_eq!(class_capacity(0), 1 << MIN_SHIFT);
    }

    #[test]
    fn reuses_exact_size_buffers() {
        let mut pool = BufferPool::new();
        let a = pool.zeros(4, 8);
        let ptr = a.data().as_ptr();
        pool.recycle(a);
        assert_eq!(pool.parked(), 1);
        let b = pool.zeros(4, 8);
        assert_eq!(b.data().as_ptr(), ptr, "expected the same backing buffer");
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn sizes_in_one_class_share_a_bucket_and_other_classes_do_not() {
        let mut pool = BufferPool::new();
        // 130 and 160 both round up to the 160 class; 161 to the 192 one.
        let a = pool.zeros(13, 10);
        let ptr = a.data().as_ptr();
        pool.recycle(a);
        let c = pool.zeros(7, 23);
        assert_eq!(c.len(), 161);
        assert_ne!(c.data().as_ptr(), ptr);
        assert_eq!(pool.parked(), 1, "the 160-class buffer stays parked");
        let b = pool.zeros(16, 10);
        assert_eq!(b.len(), 160);
        assert_eq!(b.data().as_ptr(), ptr, "same class, same backing buffer");
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn len_is_exact_and_over_allocation_is_bounded() {
        let mut pool = BufferPool::new();
        for len in (0..3000).chain([4097, 65_537, 1_000_003]) {
            let buf = pool.take_raw(len);
            assert_eq!(buf.len(), len);
            assert!(buf.capacity() >= len);
            if len > 1 << MIN_SHIFT {
                assert!(buf.capacity() * 4 <= len * 5, "{len}: {}", buf.capacity());
            } else {
                assert_eq!(buf.capacity(), 1 << MIN_SHIFT);
            }
        }
    }

    #[test]
    fn dirty_larger_buffer_of_the_class_comes_back_clean() {
        let mut pool = BufferPool::new();
        let mut big = pool.zeros(1, 160);
        big.fill(7.0);
        let ptr = big.data().as_ptr();
        pool.recycle(big);
        let z = pool.zeros(1, 131);
        assert_eq!(z.data().as_ptr(), ptr);
        assert_eq!(z.data(), &[0.0; 131]);
        pool.recycle(z);
        let mut big = pool.uninit(1, 160);
        big.fill(7.0);
        pool.recycle(big);
        let src = Matrix::from_fn(3, 50, |r, c| (r * 50 + c) as f32);
        let copy = pool.copy_of(&src);
        assert_eq!(copy.data().as_ptr(), ptr);
        assert!(copy.approx_eq(&src, 0.0));
    }

    #[test]
    fn counters_follow_take_and_put() {
        let mut pool = BufferPool::new();
        let a = pool.zeros(10, 10); // class 112
        let a_ptr = a.data().as_ptr();
        let b = pool.uninit(1, 64); // class 64
        assert_eq!(pool.handed_out_floats(), 176);
        assert_eq!(pool.live_floats(), 176);
        pool.recycle(a);
        assert_eq!(pool.live_floats(), 64);
        // Class 64 has nothing parked, so the copy takes `a`'s buffer,
        // three classes up, and counts its whole capacity.
        let c = pool.copy_of(&b);
        assert_eq!(c.data().as_ptr(), a_ptr);
        assert_eq!(pool.live_floats(), 176);
        assert_eq!(pool.peak_live_floats(), 176);
        assert_eq!(pool.handed_out_floats(), 288);
        pool.recycle(b);
        pool.recycle(c);
        // A buffer the pool never handed out does not drive `live` negative.
        pool.put(vec![0.0; 500]);
        assert_eq!(pool.live_floats(), 0);
        assert_eq!(pool.peak_live_floats(), 176);
    }

    #[test]
    fn a_miss_takes_the_smallest_parked_class_within_one_octave() {
        // A 128-float request (class 128) may take classes 128 to 256.
        let mut pool = BufferPool::new();
        let [big, mid] = [256, 192].map(|len| pool.take_raw(len));
        let (big_ptr, mid_ptr) = (big.as_ptr(), mid.as_ptr());
        pool.put(big);
        pool.put(mid);
        let first = pool.take_zeroed(128);
        assert_eq!(first.as_ptr(), mid_ptr, "the smallest class up comes first");
        assert_eq!(first, vec![0.0; 128]);
        let second = pool.take_raw(120);
        assert_eq!(second.as_ptr(), big_ptr, "one octave up is still in reach");
        assert_eq!(second.len(), 120);
        assert_eq!(pool.live_floats(), 448);
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn a_buffer_more_than_an_octave_up_stays_parked() {
        // Class 320 is five classes above 128: out of a 128 request's
        // reach, which goes to the reservoir or the allocator instead.
        let mut pool = BufferPool::new();
        let far = pool.take_raw(320);
        let far_ptr = far.as_ptr();
        pool.put(far);
        let near = pool.take_raw(128);
        assert_ne!(near.as_ptr(), far_ptr);
        assert_eq!(near.capacity(), 128);
        assert_eq!(pool.parked(), 1);
        let own = pool.take_raw(257);
        assert_eq!(own.as_ptr(), far_ptr, "class 320's own request takes it");
    }

    #[test]
    fn copy_of_matches_source() {
        let mut pool = BufferPool::new();
        let src = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let a = pool.copy_of(&src);
        assert!(a.approx_eq(&src, 0.0));
        pool.recycle(a);
        let b = pool.copy_of(&src);
        assert!(b.approx_eq(&src, 0.0));
    }

    #[test]
    fn foreign_buffer_serves_only_requests_its_capacity_covers() {
        // Capacity 100 lies between the 96 and 112 classes: it is filed
        // under 96 and must not answer a request for 97..=100.
        let mut pool = BufferPool::new();
        let foreign = vec![3.0f32; 100];
        assert_eq!(foreign.capacity(), 100);
        let ptr = foreign.as_ptr();
        pool.put(foreign);
        let b = pool.take_zeroed(100);
        assert_ne!(b.as_ptr(), ptr);
        assert_eq!(pool.parked(), 1);
        let a = pool.take_zeroed(96);
        assert_eq!(a.as_ptr(), ptr);
        assert_eq!(a, vec![0.0; 96]);
        // Below the smallest class there is nothing to file it under.
        pool.put(vec![1.0; 63]);
        assert_eq!(pool.parked(), 0);
    }
}
