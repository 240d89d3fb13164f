//! The process-wide buffer reservoir behind `BufferPool`: a dropped
//! pool's buffers serve the next pool's misses, class by class, and a
//! buffer of foreign capacity never comes back.
//!
//! A pool hands out either a buffer some pool parked or a fresh
//! allocation, and a buffer in the reservoir is never freed, so a taken
//! buffer whose address is not one the dropped pool held was freshly
//! allocated. The reservoir is process-wide, so each case below uses a
//! size class of its own, and this binary has one `#[test]`.

use std::collections::HashSet;
use trkx_tensor::BufferPool;

#[test]
fn dropped_pools_feed_later_misses_and_free_foreign_buffers() {
    // (buffers parked in the dropped pool, takes by the new pool, length):
    // each length is the capacity of a class no other case touches.
    for (parked, takes, len) in [(3, 5, 1024), (4, 4, 2048), (5, 2, 3072), (0, 3, 5120)] {
        let mut old = BufferPool::new();
        let held: Vec<Vec<f32>> = (0..parked).map(|_| old.take_zeroed(len)).collect();
        let addrs: HashSet<*const f32> = held.iter().map(|b| b.as_ptr()).collect();
        for b in held {
            old.put(b);
        }
        drop(old);

        let mut new = BufferPool::new();
        let got: Vec<Vec<f32>> = (0..takes).map(|_| new.take_raw(len)).collect();
        let reused = got.iter().filter(|b| addrs.contains(&b.as_ptr())).count();
        // Every other take allocated: max(0, takes - parked) buffers.
        assert_eq!(reused, takes.min(parked), "{parked} parked, {takes} taken");
        assert!(got.iter().all(|b| b.len() == len && b.capacity() == len));
    }

    // Capacity 100 lies between the 96 and 112 classes. Its own pool
    // files it under 96 and hands it out for 96; once that pool is
    // dropped, only the exact-capacity buffer beside it lives on.
    let mut old = BufferPool::new();
    let exact = old.take_zeroed(96);
    let exact_addr = exact.as_ptr();
    old.put(exact);
    old.put(vec![3.0f32; 100]);
    assert_eq!(old.parked(), 2);
    drop(old);

    let mut new = BufferPool::new();
    let got: Vec<Vec<f32>> = (0..4).map(|_| new.take_raw(96)).collect();
    assert_eq!(got[0].as_ptr(), exact_addr, "the exact buffer is reused");
    for b in &got {
        assert_eq!(b.capacity(), 96, "a foreign-capacity buffer came back");
    }
}
