//! The serving core: N worker threads, each owning a warm
//! [`Tape`]/[`Bindings`] pool and stage-2 constructor, draining the
//! request queue.
//!
//! A worker's steady state is: take the waiting jobs (up to
//! [`MAX_JOBS_PER_WAKE`](crate::queue::MAX_JOBS_PER_WAKE)), then for each
//! one grab the active model version, run [`reconstruct_pooled`] on its
//! event against the worker's pools and answer it, repeat. Each request
//! is answered as soon as its own event is done, and its `timings_us`
//! are its own stages. The tape's pool matches buffers by size class
//! rather than exact shape, so a worker's memory plateaus once it has
//! seen the range of event sizes. Because the kernels are bit-identical
//! at any thread count, *which* worker serves a request never changes
//! the response payload (`tests/batch_parity.rs`).
//!
//! While it reconstructs, a worker holds its core
//! ([`trkx_tensor::occupy`]), so the kernels of the other busy workers
//! split over only the cores nobody holds.
//!
//! A panic inside one request's reconstruction answers that request with
//! `status:"error"`, counts it in [`ServeStats`]' errors and replaces the
//! worker's pools; the worker goes on to its next request.
//!
//! [`reconstruct_pooled`]: trkx_core::TrainedPipeline::reconstruct_pooled

use crate::proto::{tracks_from_components, Response, TimingsUs};
use crate::queue::{Job, RequestQueue, ShedReason};
use crate::registry::ModelRegistry;
use crate::stats::ServeStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use trkx_core::GraphConstructor;
use trkx_nn::Bindings;
use trkx_tensor::Tape;

/// Serving knobs: pool size, queue bound, and shed budget.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServeConfig {
    /// Worker threads, each with its own warm tape/bindings pool.
    pub workers: usize,
    /// Bounded queue depth; arrivals beyond this are shed.
    pub max_queue: usize,
    /// Per-event hit budget; larger events are shed at admission.
    pub max_event_hits: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_queue: 128,
            max_event_hits: 50_000,
        }
    }
}

/// Registry + queue + stats + running worker pool.
pub struct ServerCore {
    pub config: ServeConfig,
    pub registry: Arc<ModelRegistry>,
    pub queue: Arc<RequestQueue>,
    pub stats: Arc<ServeStats>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerCore {
    /// Spawn the worker pool over a registry.
    pub fn start(config: ServeConfig, registry: Arc<ModelRegistry>) -> Self {
        let queue = Arc::new(RequestQueue::new(config.max_queue, config.max_event_hits));
        let stats = Arc::new(ServeStats::new());
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let registry = Arc::clone(&registry);
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || worker_loop(&queue, &registry, &stats))
            })
            .collect();
        Self {
            config,
            registry,
            queue,
            stats,
            workers,
        }
    }

    /// Admit one event request; on shed, answers `out` directly with an
    /// explicit shed response and records it.
    pub fn submit_event(&self, id: u64, event: trkx_detector::Event, out: Sender<Response>) {
        let job = Job {
            id,
            event,
            enqueued: Instant::now(),
            out,
        };
        if let Err((job, reason)) = self.queue.submit(job) {
            match reason {
                ShedReason::TooLarge { .. } => self.stats.record_shed_too_large(),
                ShedReason::Overloaded { .. } => self.stats.record_shed_overloaded(),
            }
            let mut resp = Response::shed(job.id, reason.message());
            resp.num_hits = Some(job.event.num_hits());
            let _ = job.out.send(resp);
        }
    }

    /// Drain the queue (pending jobs are still answered), then join the
    /// workers.
    pub fn shutdown(self) {
        self.queue.shutdown();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// The text of a caught panic's payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    match payload.downcast_ref::<&str>() {
        Some(s) => s,
        None => payload.downcast_ref::<String>().map_or("", String::as_str),
    }
}

fn worker_loop(queue: &RequestQueue, registry: &ModelRegistry, stats: &ServeStats) {
    // Warm state: one tape/bindings pool per worker plus one pooled
    // stage-2 constructor (spatial index + edge scratch), recycled
    // across every event this thread serves.
    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    let mut ctor = GraphConstructor::default();
    while let Some(jobs) = queue.next_jobs() {
        let batch_events = jobs.len();
        stats.record_batch(batch_events);
        for job in jobs {
            let model = registry.active();
            let queue_us = job.enqueued.elapsed().as_micros() as u64;
            // The pools are the only state the closure mutates, and they
            // are replaced below if it unwinds. The core is held only while
            // computing, never while waiting for jobs, so that an idle
            // worker leaves its core to a busy one's kernels.
            let run = catch_unwind(AssertUnwindSafe(|| {
                let _core = trkx_tensor::occupy();
                model
                    .pipeline
                    .reconstruct_pooled(&mut tape, &mut bind, &mut ctor, &job.event)
            }));
            let total_us = job.enqueued.elapsed().as_micros() as u64;
            let resp = match run {
                Ok((result, timings)) => {
                    let mut resp = Response::ok(job.id);
                    resp.version = Some(model.version);
                    resp.num_hits = Some(job.event.num_hits());
                    resp.edges_kept = Some(result.edges_kept);
                    resp.tracks = Some(tracks_from_components(
                        &result.component_of_hit,
                        model.pipeline.config.min_hits,
                    ));
                    resp.timings_us = Some(TimingsUs {
                        queue_us,
                        embed_us: (timings.embed_s * 1e6) as u64,
                        construct_us: (timings.construct_s * 1e6) as u64,
                        filter_us: (timings.filter_s * 1e6) as u64,
                        gnn_us: (timings.gnn_s * 1e6) as u64,
                        tracks_us: (timings.tracks_s * 1e6) as u64,
                        total_us,
                        batch_events,
                        construct_edges: timings.construct_edges,
                    });
                    stats.record_completed(total_us);
                    resp
                }
                Err(payload) => {
                    (tape, bind, ctor) =
                        (Tape::new(), Bindings::new(), GraphConstructor::default());
                    stats.record_error();
                    let mut resp = Response::error(
                        Some(job.id),
                        format!("reconstruction panicked: {}", panic_message(&*payload)),
                    );
                    resp.version = Some(model.version);
                    resp.num_hits = Some(job.event.num_hits());
                    resp
                }
            };
            let _ = job.out.send(resp);
        }
    }
}
