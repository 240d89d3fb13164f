//! Serving telemetry: latency percentiles, throughput, shed, error and
//! wake-up accounting. One [`ServeStats`] is shared by the front-end (which
//! records sheds) and the workers (which record completions).
//!
//! Latencies go into a fixed log-linear histogram — 16 buckets per octave
//! of microseconds, every value up to 16 µs its own bucket — so a server
//! that has answered a billion requests holds the same few kilobytes as
//! one that has answered none, and a completion costs one increment under
//! the mutex.

use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use std::time::Instant;

/// Shared, mutex-guarded serving counters.
pub struct ServeStats {
    inner: Mutex<Inner>,
    started: Instant,
}

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// One bucket per value in `1..=SUB`, then `SUB` per remaining octave.
const BUCKETS: usize = (SUB as usize) * (u64::BITS - SUB_BITS + 1) as usize;

/// Bucket `b` holds the latencies in `(upper_edge(b - 1), upper_edge(b)]`.
fn bucket_of(us: u64) -> usize {
    let w = us.saturating_sub(1);
    if w < SUB {
        return w as usize;
    }
    let shift = w.ilog2() - SUB_BITS;
    (u64::from(shift + 1) * SUB + (w >> shift) - SUB) as usize
}

/// Largest latency bucket `b` holds.
fn upper_edge(bucket: usize) -> u64 {
    let (octave, sub) = (bucket as u64 / SUB, bucket as u64 % SUB);
    match octave.checked_sub(1) {
        None => sub + 1,
        // Only the top bucket's edge, 2^64, does not fit.
        Some(shift) => (SUB + sub + 1).saturating_mul(1 << shift),
    }
}

struct Inner {
    /// Completed-request latencies (enqueue → response) in microseconds,
    /// counted per [`bucket_of`].
    latency_buckets: [u64; BUCKETS],
    completed: u64,
    max_us: u64,
    shed_too_large: u64,
    shed_overloaded: u64,
    errors: u64,
    batches: u64,
    batch_events: u64,
}

impl Inner {
    /// Nearest-rank percentile read off the histogram: the upper edge of
    /// the bucket holding the rank-th smallest latency, capped at the
    /// exact maximum (0 if nothing completed).
    fn percentile(&self, q: f64) -> u64 {
        let rank = ((q * self.completed as f64).ceil() as u64).clamp(1, self.completed.max(1));
        let mut seen = 0;
        for (bucket, &count) in self.latency_buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return upper_edge(bucket).min(self.max_us);
            }
        }
        0
    }
}

/// Point-in-time summary, also the payload of a `stats` response.
///
/// `completed` and `max_us` are exact. `p50_us` / `p95_us` / `p99_us` are
/// nearest-rank percentiles rounded up to a histogram bucket's edge: never
/// below the exact value and at most 1/16 above it.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize, PartialEq)]
pub struct StatsSnapshot {
    pub completed: u64,
    pub shed_too_large: u64,
    pub shed_overloaded: u64,
    pub errors: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    /// Completed events per wall-clock second since startup.
    pub events_per_sec: f64,
    /// Mean requests a worker took per wake-up.
    pub mean_batch_events: f64,
    pub uptime_s: f64,
}

impl Default for ServeStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeStats {
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                latency_buckets: [0; BUCKETS],
                completed: 0,
                max_us: 0,
                shed_too_large: 0,
                shed_overloaded: 0,
                errors: 0,
                batches: 0,
                batch_events: 0,
            }),
            started: Instant::now(),
        }
    }

    /// Record one completed request with its enqueue→response latency.
    pub fn record_completed(&self, latency_us: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.latency_buckets[bucket_of(latency_us)] += 1;
        inner.completed += 1;
        inner.max_us = inner.max_us.max(latency_us);
    }

    /// Record one worker wake-up that took `events` requests.
    pub fn record_batch(&self, events: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.batches += 1;
        inner.batch_events += events as u64;
    }

    pub fn record_shed_too_large(&self) {
        self.inner.lock().unwrap().shed_too_large += 1;
    }

    pub fn record_shed_overloaded(&self) {
        self.inner.lock().unwrap().shed_overloaded += 1;
    }

    pub fn record_error(&self) {
        self.inner.lock().unwrap().errors += 1;
    }

    /// Summarise everything recorded so far.
    pub fn snapshot(&self) -> StatsSnapshot {
        let inner = self.inner.lock().unwrap();
        let uptime_s = self.started.elapsed().as_secs_f64();
        StatsSnapshot {
            completed: inner.completed,
            shed_too_large: inner.shed_too_large,
            shed_overloaded: inner.shed_overloaded,
            errors: inner.errors,
            p50_us: inner.percentile(0.50),
            p95_us: inner.percentile(0.95),
            p99_us: inner.percentile(0.99),
            max_us: inner.max_us,
            events_per_sec: inner.completed as f64 / uptime_s.max(1e-9),
            mean_batch_events: inner.batch_events as f64 / (inner.batches.max(1)) as f64,
            uptime_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank percentile over an ascending-sorted slice (0 if
    /// empty): what the histogram approximates.
    fn percentile(sorted_us: &[u64], q: f64) -> u64 {
        if sorted_us.is_empty() {
            return 0;
        }
        let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
        sorted_us[rank - 1]
    }

    #[test]
    fn buckets_tile_the_whole_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for b in 0..BUCKETS - 1 {
            let edge = upper_edge(b);
            assert_eq!(bucket_of(edge), b);
            assert_eq!(bucket_of(edge + 1), b + 1);
        }
    }

    #[test]
    fn percentiles_are_within_a_sixteenth_above_nearest_rank() {
        // Seeded latencies spread over 1 us .. ~17 s (an LCG picks the
        // octave and the position inside it).
        let stats = ServeStats::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut sample: Vec<u64> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let octave = (state >> 59) % 25;
                (1 << octave) + ((state >> 20) & ((1 << octave) - 1))
            })
            .collect();
        for &us in &sample {
            stats.record_completed(us);
        }
        sample.sort_unstable();
        let snap = stats.snapshot();
        assert_eq!(snap.completed, 10_000);
        assert_eq!(snap.max_us, *sample.last().unwrap());
        for (q, got) in [
            (0.50, snap.p50_us),
            (0.95, snap.p95_us),
            (0.99, snap.p99_us),
        ] {
            let exact = percentile(&sample, q);
            assert!(
                exact <= got && got <= exact + exact / 16,
                "p{q}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn a_million_completions_leave_the_size_unchanged() {
        // The counters are all there is: no field of `Inner` owns heap
        // memory, so nothing can grow with the number of requests.
        assert_eq!(
            std::mem::size_of::<Inner>(),
            (BUCKETS + 7) * std::mem::size_of::<u64>()
        );
        let stats = ServeStats::new();
        for i in 0..1_000_000u64 {
            stats.record_completed(i * 7919 % 250_000);
        }
        let inner = stats.inner.lock().unwrap();
        assert_eq!(inner.completed, 1_000_000);
        assert_eq!(inner.latency_buckets.iter().sum::<u64>(), 1_000_000);
    }

    #[test]
    fn snapshot_counts_everything() {
        let stats = ServeStats::new();
        for us in [100, 200, 300, 400] {
            stats.record_completed(us);
        }
        stats.record_batch(2);
        stats.record_batch(2);
        stats.record_shed_too_large();
        stats.record_shed_overloaded();
        let snap = stats.snapshot();
        assert_eq!(snap.completed, 4);
        assert_eq!(snap.shed_too_large, 1);
        assert_eq!(snap.shed_overloaded, 1);
        assert_eq!(snap.p50_us, 200);
        assert_eq!(snap.max_us, 400);
        assert!((snap.mean_batch_events - 2.0).abs() < 1e-12);
        assert!(snap.events_per_sec > 0.0);
    }
}
