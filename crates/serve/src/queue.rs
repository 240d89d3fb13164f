//! Admission-controlled request queue.
//!
//! Two explicit shed paths keep the service degrading gracefully under
//! load instead of queueing without bound:
//!
//! - **Too large**: events above the per-event hit budget are rejected
//!   at admission — the serving twin of the full-graph trainer's
//!   OOM-skip emulation (an event whose activation footprint would blow
//!   the budget is skipped, not attempted).
//! - **Overloaded**: the queue is bounded; once `max_queue` requests are
//!   pending, new arrivals are shed immediately with an explicit
//!   response rather than silently growing the backlog.
//!
//! A worker that wakes takes every waiting job up to
//! [`MAX_JOBS_PER_WAKE`] in one lock round, then serves them one event
//! at a time: a busy queue costs one wake-up per group rather than per
//! request, while an idle queue still hands over single events at
//! minimum latency.

use crate::proto::Response;
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex};
use std::time::Instant;
use trkx_detector::Event;

/// Most jobs a worker takes from the queue per wake-up.
pub const MAX_JOBS_PER_WAKE: usize = 8;

/// One admitted request: the event, its response channel, and the
/// enqueue timestamp (for queue/total latency accounting).
pub struct Job {
    pub id: u64,
    pub event: Event,
    pub enqueued: Instant,
    /// Where the worker sends this request's response.
    pub out: Sender<Response>,
}

/// Why a request was shed at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// `num_hits` exceeds the per-event budget.
    TooLarge { hits: usize, budget: usize },
    /// The bounded queue is full.
    Overloaded { depth: usize, max_queue: usize },
}

impl ShedReason {
    /// Human-readable reason string for the shed response.
    pub fn message(&self) -> String {
        match self {
            ShedReason::TooLarge { hits, budget } => {
                format!("event_too_large: {hits} hits > budget {budget}")
            }
            ShedReason::Overloaded { depth, max_queue } => {
                format!("overloaded: queue depth {depth} at limit {max_queue}")
            }
        }
    }
}

struct QueueInner {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Bounded request queue. Both limits come from
/// [`ServeConfig`](crate::worker::ServeConfig).
pub struct RequestQueue {
    inner: Mutex<QueueInner>,
    available: Condvar,
    max_queue: usize,
    max_event_hits: usize,
}

impl RequestQueue {
    pub fn new(max_queue: usize, max_event_hits: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            max_queue: max_queue.max(1),
            max_event_hits,
        }
    }

    /// Admit or shed. On shed the job is handed back so the caller can
    /// answer it; admission never blocks.
    // The Err variant intentionally carries the whole Job back to the
    // caller (who owns answering it); sheds are the cold path.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, job: Job) -> Result<(), (Job, ShedReason)> {
        let hits = job.event.num_hits();
        if hits > self.max_event_hits {
            return Err((
                job,
                ShedReason::TooLarge {
                    hits,
                    budget: self.max_event_hits,
                },
            ));
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.jobs.len() >= self.max_queue {
            let depth = inner.jobs.len();
            drop(inner);
            return Err((
                job,
                ShedReason::Overloaded {
                    depth,
                    max_queue: self.max_queue,
                },
            ));
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Block until jobs are waiting, then take up to
    /// [`MAX_JOBS_PER_WAKE`] of them in arrival order. Returns `None` once
    /// the queue is shut down *and* drained — pending jobs are always
    /// served first, so shutdown is clean, not lossy.
    pub fn next_jobs(&self) -> Option<Vec<Job>> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if !inner.jobs.is_empty() {
                let n = inner.jobs.len().min(MAX_JOBS_PER_WAKE);
                return Some(inner.jobs.drain(..n).collect());
            }
            if inner.shutdown {
                return None;
            }
            inner = self.available.wait(inner).unwrap();
        }
    }

    /// Stop accepting the blocking wait: workers drain what is queued,
    /// then exit their loop.
    pub fn shutdown(&self) {
        self.inner.lock().unwrap().shutdown = true;
        self.available.notify_all();
    }

    /// Current queue depth (pending, not yet dequeued).
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }
}
