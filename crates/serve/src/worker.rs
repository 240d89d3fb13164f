//! The serving core: N worker threads, each owning a warm
//! [`Tape`]/[`Bindings`] pool, draining the micro-batching queue.
//!
//! A worker's steady state is: pop a micro-batch, grab the active model
//! version, run [`reconstruct_batch_pooled`] against its own pooled
//! tape, answer every request in the batch, repeat. No two micro-batches
//! have the same union graph; the tape's pool matches buffers by size
//! class rather than exact shape, so a worker's memory plateaus once it
//! has seen the range of batch sizes instead of growing with every new
//! one. Because the kernels are bit-identical at any thread count and
//! the batch union is row/node-local, *which* worker serves a request
//! and *what batch* it rides in never changes the response payload
//! (`tests/batch_parity.rs`).
//!
//! [`reconstruct_batch_pooled`]: trkx_core::TrainedPipeline::reconstruct_batch_pooled

use crate::proto::{tracks_from_components, Response, TimingsUs};
use crate::queue::{Job, RequestQueue, ShedReason};
use crate::registry::ModelRegistry;
use crate::stats::ServeStats;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use trkx_nn::Bindings;
use trkx_tensor::Tape;

/// Serving knobs: pool size, queue bounds, and shed budgets.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServeConfig {
    /// Worker threads, each with its own warm tape/bindings pool.
    pub workers: usize,
    /// Bounded queue depth; arrivals beyond this are shed.
    pub max_queue: usize,
    /// Per-event hit budget; larger events are shed at admission.
    pub max_event_hits: usize,
    /// Micro-batch budget: at most this many events per dequeue...
    pub max_batch_events: usize,
    /// ...and at most this many total hits per dequeue.
    pub max_batch_hits: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_queue: 128,
            max_event_hits: 50_000,
            max_batch_events: 8,
            max_batch_hits: 100_000,
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
        let queue = Arc::new(RequestQueue::new(
            config.max_queue,
            config.max_event_hits,
            config.max_batch_events,
            config.max_batch_hits,
        ));
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

fn worker_loop(queue: &RequestQueue, registry: &ModelRegistry, stats: &ServeStats) {
    // Warm state: one tape/bindings pool per worker plus one pooled
    // stage-2 constructor (spatial index + edge scratch), recycled
    // across every micro-batch this thread ever serves.
    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    let mut ctor = trkx_core::GraphConstructor::default();
    while let Some(batch) = queue.next_batch() {
        stats.record_batch(batch.len());
        let model = registry.active();
        let t0 = Instant::now();
        let events: Vec<&trkx_detector::Event> = batch.iter().map(|job| &job.event).collect();
        let batch_events = events.len();
        let (results, timings) = model
            .pipeline
            .reconstruct_batch_pooled(&mut tape, &mut bind, &mut ctor, &events);
        let min_hits = model.pipeline.config.min_hits;
        for (job, result) in batch.into_iter().zip(results) {
            let total_us = job.enqueued.elapsed().as_micros() as u64;
            let queue_us = total_us.saturating_sub(t0.elapsed().as_micros() as u64);
            let mut resp = Response::ok(job.id);
            resp.version = Some(model.version);
            resp.num_hits = Some(job.event.num_hits());
            resp.edges_kept = Some(result.edges_kept);
            resp.tracks = Some(tracks_from_components(&result.component_of_hit, min_hits));
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
            let _ = job.out.send(resp);
        }
    }
}
