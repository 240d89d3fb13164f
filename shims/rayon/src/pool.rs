//! A small persistent thread pool with a shared FIFO queue.
//!
//! Callers submit a batch of `n` block jobs via [`join_n`] and block until
//! all complete. While waiting, the submitting thread *helps*: it pops and
//! runs queued jobs (its own or other callers'), which both speeds small
//! batches up and makes concurrent callers (e.g. DDP worker threads all
//! hitting the matmul kernels) deadlock-free by construction.
//!
//! Queued jobs are plain-old-data [`Unit`]s (body pointer + latch pointer
//! + block index) rather than boxed closures, so the steady-state training
//! loop never allocates per parallel call: the `VecDeque` grows to its
//! high-water mark once and its capacity is retained for the life of the
//! process.
//!
//! One thread budget: a thread doing top-level work (a serve worker inside
//! a request, a DDP rank) holds an [`Occupied`] guard for the core it runs
//! on, and a kernel splits over [`current_num_threads`] = the pool less
//! the cores *other* threads hold, never below 1. A lone busy thread
//! spreads over the whole pool; as many busy holders as cores each run
//! serially on their own. The width decides only which thread runs which
//! block, so no result depends on it.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// One queued block invocation: run `(*body)(index)`, then tick `latch`.
///
/// The pointers are lifetime-erased borrows of stack data in the
/// submitting `join_n` frame, which blocks until the latch clears — so
/// every `Unit` is consumed while its pointees are alive.
#[derive(Clone, Copy)]
struct Unit {
    body: *const (dyn Fn(usize) + Sync),
    latch: *const Latch,
    index: usize,
}

// SAFETY: the pointees are `Sync` (body) / internally synchronised
// (latch), and `join_n` keeps both alive until every queued unit has run.
unsafe impl Send for Unit {}

struct Queue {
    units: Mutex<VecDeque<Unit>>,
    available: Condvar,
}

static QUEUE: OnceLock<&'static Queue> = OnceLock::new();

fn queue() -> &'static Queue {
    QUEUE.get_or_init(|| {
        let q: &'static Queue = Box::leak(Box::new(Queue {
            units: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        }));
        for i in 0..num_threads().saturating_sub(1) {
            std::thread::Builder::new()
                .name(format!("shim-rayon-{i}"))
                .spawn(move || worker_loop(q))
                .expect("failed to spawn pool worker");
        }
        q
    })
}

/// Run one unit: invoke its body, record any panic, tick the latch.
fn run_unit(u: Unit) {
    // SAFETY: see `Unit` — the submitting frame outlives the unit.
    let (body, latch) = unsafe { (&*u.body, &*u.latch) };
    let result = catch_unwind(AssertUnwindSafe(|| body(u.index)));
    if let Err(payload) = result {
        let mut slot = latch.panic.lock().unwrap_or_else(|e| e.into_inner());
        slot.get_or_insert(payload);
    }
    let mut remaining = latch.remaining.lock().unwrap_or_else(|e| e.into_inner());
    *remaining -= 1;
    if *remaining == 0 {
        latch.done.notify_all();
    }
}

fn worker_loop(q: &'static Queue) {
    loop {
        let unit = {
            let mut units = q.units.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(unit) = units.pop_front() {
                    break unit;
                }
                units = q.available.wait(units).unwrap_or_else(|e| e.into_inner());
            }
        };
        run_unit(unit);
    }
}

/// Worker count: `RAYON_NUM_THREADS` override, else available parallelism.
pub fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Cores held by live [`Occupied`] guards, process-wide. Relaxed: the
/// count publishes no other data, and a stale read only changes how many
/// blocks a kernel splits into, never its result. Every kernel reads it,
/// so it has a cache line to itself: sharing one with a static that
/// other cores write (an allocation counter, say) would make each read a
/// miss.
#[repr(align(128))]
struct Held(AtomicUsize);
static HELD: Held = Held(AtomicUsize::new(0));

thread_local! {
    /// Whether this thread's core is among [`HELD`].
    static HOLDS: Cell<bool> = const { Cell::new(false) };
}

/// Split width for a kernel started on this thread: the pool less the
/// cores other threads hold, at least 1. A pool of 1 never reads the
/// counter.
pub fn current_num_threads() -> usize {
    let n = num_threads();
    if n == 1 {
        return 1;
    }
    let others = HELD
        .0
        .load(Ordering::Relaxed)
        .saturating_sub(usize::from(HOLDS.get()));
    n.saturating_sub(others).max(1)
}

/// Hold this thread's core until the guard drops (unwinding included):
/// kernels started on other threads split one block narrower meanwhile.
/// A second guard on a thread that already holds, or any guard at pool
/// size 1, is a no-op.
#[must_use = "the core is released as soon as the guard drops"]
pub fn occupy() -> Occupied {
    let held = num_threads() > 1 && !HOLDS.get();
    if held {
        HOLDS.set(true);
        HELD.0.fetch_add(1, Ordering::Relaxed);
    }
    Occupied {
        held,
        _thread_bound: PhantomData,
    }
}

/// A held core; see [`occupy`]. Not `Send`: it releases the thread-local
/// flag of the thread that took it.
pub struct Occupied {
    held: bool,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for Occupied {
    fn drop(&mut self) {
        if self.held {
            HELD.0.fetch_sub(1, Ordering::Relaxed);
            HOLDS.set(false);
        }
    }
}

struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

/// Run `body(0), …, body(n-1)`, possibly in parallel, returning only when
/// all invocations have finished. Panics in any invocation are re-raised
/// here. `body` must tolerate concurrent invocation with distinct indices.
pub fn join_n(n: usize, body: &(dyn Fn(usize) + Sync)) {
    match n {
        0 => return,
        1 => return body(0),
        _ => {}
    }
    let latch = Latch {
        remaining: Mutex::new(n - 1),
        done: Condvar::new(),
        panic: Mutex::new(None),
    };

    {
        let q = queue();
        let mut units = q.units.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: pure lifetime erasure — join_n blocks until `remaining`
        // hits zero, so `body` and `latch` outlive every unit queued
        // below; the 'static lifetime is never a true promise.
        let body_static: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(body) };
        let unit = Unit {
            body: body_static as *const (dyn Fn(usize) + Sync),
            latch: &latch as *const Latch,
            index: 0,
        };
        for i in 1..n {
            units.push_back(Unit { index: i, ..unit });
        }
        q.available.notify_all();
    }

    // Run our own share inline.
    let own = catch_unwind(AssertUnwindSafe(|| body(0)));

    // Help drain the queue while waiting for our blocks to finish.
    let q = queue();
    loop {
        let unit = {
            let mut units = q.units.lock().unwrap_or_else(|e| e.into_inner());
            units.pop_front()
        };
        match unit {
            Some(unit) => run_unit(unit),
            None => break,
        }
    }
    {
        let mut remaining = latch.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *remaining > 0 {
            remaining = latch
                .done
                .wait(remaining)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    if let Err(payload) = own {
        std::panic::resume_unwind(payload);
    }
    let stored = latch.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(payload) = stored {
        std::panic::resume_unwind(payload);
    }
}

/// Arithmetic split of `len` items into at most [`current_num_threads`]
/// contiguous blocks of at least `min_block` items. Replaces the old per-call
/// `Vec<Range>`: block boundaries are computed on demand, so a parallel
/// dispatch allocates nothing.
#[derive(Clone, Copy)]
pub struct BlockSplit {
    blocks: usize,
    base: usize,
    extra: usize,
}

impl BlockSplit {
    pub fn new(len: usize, min_block: usize) -> Self {
        if len == 0 {
            return Self {
                blocks: 0,
                base: 0,
                extra: 0,
            };
        }
        let max_blocks = current_num_threads();
        let blocks = (len / min_block.max(1)).clamp(1, max_blocks);
        Self {
            blocks,
            base: len / blocks,
            extra: len % blocks,
        }
    }

    /// Number of blocks (0 only for an empty split).
    pub fn count(&self) -> usize {
        self.blocks
    }

    /// Half-open item range of block `b`; the first `len % blocks` blocks
    /// carry one extra item.
    pub fn range(&self, b: usize) -> std::ops::Range<usize> {
        debug_assert!(b < self.blocks);
        let start = b * self.base + b.min(self.extra);
        start..start + self.base + usize::from(b < self.extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// The budget is process-wide, so its tests take turns (the other
    /// tests in this binary run kernels but never hold a core).
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// What the pool leaves a thread when `others` other threads hold.
    fn expected(others: usize) -> usize {
        num_threads().saturating_sub(others).max(1)
    }

    /// Run `check` on this thread while `holders` other threads each hold
    /// a core; returns what it returned.
    fn while_held<R>(holders: usize, check: impl FnOnce() -> R) -> R {
        let taken = Barrier::new(holders + 1);
        let release = Barrier::new(holders + 1);
        std::thread::scope(|s| {
            for _ in 0..holders {
                s.spawn(|| {
                    let _core = occupy();
                    taken.wait();
                    release.wait();
                });
            }
            taken.wait();
            let r = check();
            release.wait();
            r
        })
    }

    /// `current_num_threads` as a thread holding nothing sees it.
    fn seen_elsewhere() -> usize {
        std::thread::scope(|s| s.spawn(current_num_threads).join().unwrap())
    }

    #[test]
    fn another_threads_guard_narrows_the_split_by_one() {
        let _s = serial();
        let (width, blocks) = while_held(1, || {
            (current_num_threads(), BlockSplit::new(1 << 20, 1).count())
        });
        assert_eq!(width, expected(1));
        assert_eq!(blocks, expected(1));
        assert_eq!(current_num_threads(), num_threads(), "not released");
    }

    #[test]
    fn a_threads_own_guard_leaves_its_split_alone() {
        let _s = serial();
        let _core = occupy();
        let _again = occupy();
        assert_eq!(current_num_threads(), num_threads());
        assert_eq!(seen_elsewhere(), expected(1), "nested guard counted twice");
    }

    #[test]
    fn the_split_never_drops_below_one() {
        let _s = serial();
        let holders = num_threads() + 2;
        assert_eq!(while_held(holders, current_num_threads), 1);
        // Each holder also sees at least 1, whatever the others hold.
        let taken = Barrier::new(holders);
        let seen: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..holders)
                .map(|_| {
                    s.spawn(|| {
                        let _core = occupy();
                        taken.wait();
                        let w = current_num_threads();
                        taken.wait();
                        w
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(seen.iter().all(|&w| w == 1), "{seen:?}");
    }

    #[test]
    fn a_panic_inside_catch_unwind_releases_the_guard() {
        let _s = serial();
        let caught = catch_unwind(|| {
            let _core = occupy();
            panic!("request failed");
        });
        assert!(caught.is_err());
        assert_eq!(seen_elsewhere(), num_threads(), "core still held");
        // The thread-local flag cleared too: the next guard counts again.
        let _core = occupy();
        assert_eq!(seen_elsewhere(), expected(1));
    }

    #[test]
    fn a_pool_of_one_is_one_with_any_number_of_holders() {
        let _s = serial();
        if num_threads() != 1 {
            return; // RAYON_NUM_THREADS=1 runs this case (ci.sh).
        }
        let (width, held) = while_held(3, || {
            (current_num_threads(), HELD.0.load(Ordering::Relaxed))
        });
        assert_eq!(width, 1);
        assert_eq!(held, 0, "a pool of one touched the counter");
    }
}
