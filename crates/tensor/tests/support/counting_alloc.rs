//! The workspace's one counting allocator, shared by every allocation
//! probe (`alloc_probe.rs` in tensor, ddp and core) through
//! `#[path] mod counting_alloc;`. A `#[global_allocator]` must be
//! declared by the binary that uses it, so each probe keeps only
//!
//! ```ignore
//! #[global_allocator]
//! static A: counting_alloc::Counting = counting_alloc::Counting;
//! ```
//!
//! The counter is process-global: whatever any thread allocates while a
//! window is open lands in it, and libtest's own main thread allocates
//! too: a burst of bookkeeping after it spawns a test and again when one
//! finishes, on its own schedule. A probe binary therefore has exactly
//! one `#[test]`, which runs its checks one after the other (with two,
//! each would also count the other's set-up, and a lock around them
//! still leaves the bursts between tests), and every window is measured
//! a second time when the first is not clean.
//!
//! `TRKX_TRACE_ALLOCS=1 cargo test --release -p <crate> --test alloc_probe
//! -- --nocapture` prints a backtrace for each allocation inside a
//! measured window (first 600), which names the call sites a non-zero
//! count comes from.

#![allow(dead_code)] // each probe binary uses its own subset

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// System allocator that counts every allocation and its bytes, and the
/// bytes freed.
pub struct Counting;

static COUNT: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static FREED: AtomicUsize = AtomicUsize::new(0);
static TRACE: AtomicBool = AtomicBool::new(false);
static TRACE_LEFT: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    /// Set while this thread prints a backtrace, which itself allocates.
    static IN_TRACE: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every request is forwarded unchanged to `System`; the counter
// and the tracer never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(l.size(), Ordering::Relaxed);
        if TRACE.load(Ordering::Relaxed)
            && !IN_TRACE.with(Cell::get)
            && TRACE_LEFT
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
        {
            IN_TRACE.with(|c| c.set(true));
            eprintln!(
                "--- alloc {} bytes ---\n{}",
                l.size(),
                std::backtrace::Backtrace::force_capture()
            );
            IN_TRACE.with(|c| c.set(false));
        }
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        FREED.fetch_add(l.size(), Ordering::Relaxed);
        unsafe { System.dealloc(p, l) }
    }
}

/// Allocations made by any thread while `f` runs.
pub fn count_allocs(f: impl FnOnce()) -> usize {
    if std::env::var_os("TRKX_TRACE_ALLOCS").is_some() {
        TRACE_LEFT.store(600, Ordering::Relaxed);
        TRACE.store(true, Ordering::Relaxed);
    }
    let before = COUNT.load(Ordering::Relaxed);
    f();
    let allocs = COUNT.load(Ordering::Relaxed) - before;
    TRACE.store(false, Ordering::Relaxed);
    allocs
}

/// Bytes requested by any thread while `f` runs (a `realloc` counts as a
/// new allocation of the new size).
pub fn count_alloc_bytes(f: impl FnOnce()) -> usize {
    let before = BYTES.load(Ordering::Relaxed);
    f();
    BYTES.load(Ordering::Relaxed) - before
}

/// Bytes requested by any thread while `f` runs, and how many of them
/// are still held when it returns: the bytes requested less the bytes
/// freed meanwhile (older storage freed in the window counts against it).
pub fn count_alloc_and_kept_bytes(f: impl FnOnce()) -> (usize, isize) {
    let (bytes, freed) = (BYTES.load(Ordering::Relaxed), FREED.load(Ordering::Relaxed));
    f();
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    let freed = FREED.load(Ordering::Relaxed) - freed;
    (bytes, bytes as isize - freed as isize)
}

/// Assert that `f` allocates at most `max_per_call` times per call, as a
/// mean over `calls` calls after `warmup` discarded ones.
///
/// One re-measure absorbs one-time events: libtest's bookkeeping after
/// it spawned this test, or — on an oversubscribed host, where the
/// submitting thread can help-drain every warm-up block before a sleeping
/// pool worker is ever scheduled — that worker's first scratch
/// allocation or a late parker. A genuine per-call allocation fails both.
pub fn steady_state_allocs_at_most(
    label: &str,
    warmup: usize,
    calls: usize,
    max_per_call: usize,
    mut f: impl FnMut(),
) {
    let mut measure = || {
        for _ in 0..warmup {
            f();
        }
        count_allocs(|| {
            for _ in 0..calls {
                f();
            }
        })
    };
    let mut allocs = measure();
    if allocs > max_per_call * calls {
        allocs = measure();
    }
    assert!(
        allocs <= max_per_call * calls,
        "{label}: {allocs} allocations over {calls} calls (limit {max_per_call} per call)"
    );
}

/// Zero allocations per call over 100 calls after 10 warm-up calls.
pub fn steady_state_allocs(label: &str, f: impl FnMut()) {
    steady_state_allocs_at_most(label, 10, 100, 0, f);
}
