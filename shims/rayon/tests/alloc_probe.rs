//! Steady-state allocation regression test for the pool executor.
//!
//! The multi-block dispatch path queues POD `Unit`s into a
//! capacity-retained deque and computes block ranges arithmetically, so
//! after warmup a parallel `for_each` performs zero heap allocations at
//! any thread count. Holding a core (`occupy`) is an atomic and a
//! thread-local flag, so a dispatch under a guard, as a serve worker
//! makes, allocates nothing either. This test pins both with a counting
//! global allocator (which is why it lives in its own integration-test
//! binary).

use rayon::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;
static COUNT: AtomicUsize = AtomicUsize::new(0);
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}
#[global_allocator]
static A: Counting = Counting;

#[test]
fn parallel_dispatch_allocates_nothing_after_warmup() {
    let mut data = vec![1.0f32; 1 << 20];
    // Take the guard, dispatch, release: the serve worker's cycle.
    let mut dispatch = move || {
        let _core = rayon::occupy();
        data.par_iter_mut().for_each(|x| *x += 1.0);
    };
    let mut measure = move || {
        for _ in 0..10 {
            dispatch();
        }
        let before = COUNT.load(Ordering::Relaxed);
        for _ in 0..100 {
            dispatch();
        }
        COUNT.load(Ordering::Relaxed) - before
    };
    // On an oversubscribed host the submitting thread can help-drain every
    // warmup unit before a sleeping worker is ever scheduled, pushing that
    // worker's one-time lazy init into the measured window. One re-measure
    // absorbs such one-off init; a genuine per-call allocation fails both.
    let mut allocs = measure();
    if allocs != 0 {
        allocs = measure();
    }
    assert_eq!(
        allocs,
        0,
        "multi-block dispatch allocated {} times over 100 calls at {} threads",
        allocs,
        rayon::current_num_threads()
    );
}
