//! `serve_open` and `serve_closed`: one operation is one event request
//! through `ServerCore` (admission → queue → micro-batch → five-stage
//! pipeline → response), against a bundle trained, saved and loaded in
//! set-up.

use super::{Measured, Workload};
use crate::inputs::{arrival_schedule, events, mix, train_serve_pipeline, SERVE_PARTICLES};
use crate::sys::{cpu_seconds, ProcSnapshot};
use crate::trace::{Layer, SpanId, Tracer, REQUEST_TRACK_BASE};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trkx_core::TrackMetrics;
use trkx_detector::Event;
use trkx_serve::{
    tracks_from_components, ModelRegistry, Response, ServeConfig, ServerCore, TimingsUs,
};

/// Distinct request payloads, cycled.
pub const DISTINCT_EVENTS: usize = 32;
/// Open loop: mean arrival rate, well below what the closed loop
/// sustains on the reference host, so queues stay short.
pub const OPEN_RATE_PER_S: f64 = 100.0;
/// Open loop: requests due in the first second warm the workers up and
/// are not measured.
pub const OPEN_WARMUP_S: f64 = 1.0;
/// Closed loop: requests kept in flight by the one generator.
pub const CLOSED_IN_FLIGHT: usize = 8;
/// Closed loop: leading requests that are not measured.
pub const CLOSED_WARMUP_REQUESTS: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    Open,
    Closed,
}

/// Everything known about one answered request.
#[derive(Debug, Clone)]
pub struct Record {
    /// When latency starts: the due time (open loop) or the submit time
    /// (closed loop), in nanoseconds since the run's origin.
    pub start_ns: u64,
    pub submit_ns: u64,
    pub recv_ns: u64,
    pub timings: Option<TimingsUs>,
    pub ok: bool,
    pub measured: bool,
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        self.recv_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// One loop's outcome: per-request records plus what only the generator
/// can know.
pub struct ServeRun {
    pub records: Vec<Record>,
    pub measured: Measured,
    /// Open loop: the most any request was submitted after its due time.
    pub gen_late_max_ms: f64,
    /// Resident set after warm-up and at the end of the window.
    pub rss_after_warmup_mb: f64,
    pub rss_end_mb: f64,
}

pub struct ServeWorkload {
    kind: Loop,
    seed: u64,
    core: Option<ServerCore>,
    pub events: Vec<Event>,
    /// Tracks `TrainedPipeline::reconstruct` returns for each distinct
    /// event; every response must equal them.
    reference: Vec<Vec<Vec<u32>>>,
    /// Mean double-majority efficiency of the reference tracks.
    pub track_efficiency: f64,
    pub bundle_path: PathBuf,
}

impl ServeWorkload {
    pub fn new(kind: Loop, seed: u64, scratch: &Path) -> Self {
        let pipeline = train_serve_pipeline();
        let bundle_path = scratch.join(format!("bundle-{}-{seed}.json", std::process::id()));
        pipeline
            .save_json(&bundle_path)
            .expect("save the bundle into the benchmark's scratch directory");
        let registry =
            Arc::new(ModelRegistry::load(&bundle_path).expect("load the bundle just saved"));
        Self::from_registry(kind, seed, registry, bundle_path)
    }

    /// Start a server over an already loaded bundle (the ladder reuses
    /// one bundle for several short loops).
    pub fn from_registry(
        kind: Loop,
        seed: u64,
        registry: Arc<ModelRegistry>,
        bundle_path: PathBuf,
    ) -> Self {
        let events = events(DISTINCT_EVENTS, SERVE_PARTICLES, mix(seed, 0xE7E7));
        let model = registry.active();
        let min_hits = model.pipeline.config.min_hits;
        let mut metrics = TrackMetrics {
            num_true_tracks: 0,
            num_reco_tracks: 0,
            num_matched: 0,
        };
        let reference = events
            .iter()
            .map(|e| {
                let r = model.pipeline.reconstruct(e);
                metrics.merge(&r.metrics);
                tracks_from_components(&r.component_of_hit, min_hits)
            })
            .collect();
        let core = ServerCore::start(ServeConfig::default(), registry);
        Self {
            kind,
            seed,
            core: Some(core),
            events,
            reference,
            track_efficiency: metrics.efficiency(),
            bundle_path,
        }
    }

    fn core(&self) -> &ServerCore {
        self.core.as_ref().expect("server runs until drop")
    }

    fn check(&self, id: u64, resp: &Response) -> bool {
        resp.status == "ok"
            && resp.tracks.as_ref() == Some(&self.reference[id as usize % DISTINCT_EVENTS])
    }

    /// Open loop: requests are submitted at their scheduled due times no
    /// matter how the server is doing, and each is timed from its due
    /// time, so a stall is charged to every request it delays.
    pub fn run_open(
        &self,
        seconds: f64,
        warmup_s: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> ServeRun {
        let due = arrival_schedule(OPEN_RATE_PER_S, warmup_s + seconds, self.seed);
        let (tx, rx) = channel::<Response>();
        let origin = Instant::now();
        let mut submit_ns = vec![0u64; due.len()];
        let mut late_max = 0.0f64;
        let (mut cpu0, mut rss0) = (cpu_seconds(), 0.0);
        let mut window_open = false;
        let received = std::thread::scope(|scope| {
            let collector = scope.spawn(move || collect(rx, origin));
            for (i, &t_due) in due.iter().enumerate() {
                if !window_open && t_due >= warmup_s {
                    window_open = true;
                    cpu0 = cpu_seconds();
                    rss0 = ProcSnapshot::read().rss_mb;
                }
                let wait = open(&mut tracer, "gen_wait", Layer::Bench);
                let due_at = origin + Duration::from_secs_f64(t_due);
                std::thread::sleep(due_at.saturating_duration_since(Instant::now()));
                close(&mut tracer, wait);
                let submit = open(&mut tracer, "submit", Layer::Serve);
                let now = Instant::now();
                late_max = late_max.max(now.saturating_duration_since(due_at).as_secs_f64() * 1e3);
                submit_ns[i] = now.duration_since(origin).as_nanos() as u64;
                let event = self.events[i % DISTINCT_EVENTS].clone();
                self.core().submit_event(i as u64, event, tx.clone());
                close(&mut tracer, submit);
            }
            drop(tx);
            let drain = open(&mut tracer, "drain", Layer::Bench);
            let received = collector.join().expect("collector thread");
            close(&mut tracer, drain);
            received
        });
        let cpu_s = cpu_seconds() - cpu0;
        let rss_end = ProcSnapshot::read().rss_mb;

        let mut records: Vec<Option<Record>> = vec![None; due.len()];
        for (recv_ns, resp) in received {
            let Some(id) = resp.id.filter(|&id| (id as usize) < due.len()) else {
                continue;
            };
            let i = id as usize;
            records[i] = Some(Record {
                start_ns: (due[i] * 1e9) as u64,
                submit_ns: submit_ns[i],
                recv_ns,
                timings: resp.timings_us,
                ok: self.check(id, &resp),
                measured: due[i] >= warmup_s,
            });
        }
        self.finish(records, seconds, cpu_s, late_max, rss0, rss_end)
    }

    /// Closed loop: one generator keeps `CLOSED_IN_FLIGHT` requests
    /// outstanding and sends the next only when a reply arrives, so a
    /// slower server receives less load.
    pub fn run_closed(
        &self,
        seconds: f64,
        warmup_requests: usize,
        mut tracer: Option<&mut Tracer>,
    ) -> ServeRun {
        let (tx, rx) = channel::<Response>();
        let origin = Instant::now();
        let mut records: Vec<Option<Record>> = Vec::new();
        let (mut sent, mut got) = (0usize, 0usize);
        let (mut cpu0, mut rss0) = (cpu_seconds(), 0.0);
        let mut window: Option<Instant> = None;
        loop {
            let accepting = window.is_none_or(|w| w.elapsed().as_secs_f64() < seconds);
            while accepting && sent - got < CLOSED_IN_FLIGHT {
                if sent == warmup_requests {
                    window = Some(Instant::now());
                    cpu0 = cpu_seconds();
                    rss0 = ProcSnapshot::read().rss_mb;
                }
                let span = open(&mut tracer, "submit", Layer::Serve);
                let now = origin.elapsed().as_nanos() as u64;
                records.push(Some(Record {
                    start_ns: now,
                    submit_ns: now,
                    recv_ns: now,
                    timings: None,
                    ok: false,
                    measured: sent >= warmup_requests,
                }));
                let event = self.events[sent % DISTINCT_EVENTS].clone();
                self.core().submit_event(sent as u64, event, tx.clone());
                sent += 1;
                close(&mut tracer, span);
            }
            if got == sent {
                break;
            }
            let span = open(&mut tracer, "recv_wait", Layer::Bench);
            let resp = rx.recv().expect("every submitted request is answered");
            let recv_ns = origin.elapsed().as_nanos() as u64;
            close(&mut tracer, span);
            got += 1;
            if let Some(id) = resp.id.filter(|&id| (id as usize) < records.len()) {
                let ok = self.check(id, &resp);
                let rec = records[id as usize].as_mut().expect("pushed at submit");
                rec.recv_ns = recv_ns;
                rec.timings = resp.timings_us;
                rec.ok = ok;
            }
        }
        let cpu_s = cpu_seconds() - cpu0;
        let rss_end = ProcSnapshot::read().rss_mb;
        self.finish(records, seconds, cpu_s, 0.0, rss0, rss_end)
    }

    /// Fold per-request records into the window's totals. A request that
    /// never got a response, was shed, errored, or returned other tracks
    /// than the reference counts as failed.
    fn finish(
        &self,
        records: Vec<Option<Record>>,
        seconds: f64,
        cpu_s: f64,
        gen_late_max_ms: f64,
        rss_after_warmup_mb: f64,
        rss_end_mb: f64,
    ) -> ServeRun {
        let mut m = Measured {
            cpu_s,
            ..Default::default()
        };
        let (mut first, mut last) = (u64::MAX, 0u64);
        let mut kept = Vec::with_capacity(records.len());
        for rec in records {
            m.attempted += 1;
            match rec {
                Some(r) if r.ok => {
                    if r.measured {
                        m.op_ms.push(r.latency_ms());
                        first = first.min(r.start_ns);
                        last = last.max(r.recv_ns);
                    }
                    kept.push(r);
                }
                Some(r) => {
                    m.failed += 1;
                    kept.push(r);
                }
                None => m.failed += 1,
            }
        }
        // The window runs from the first measured request's start to the
        // last measured response, and is never shorter than asked.
        m.wall_s = (last.saturating_sub(first) as f64 / 1e9).max(seconds);
        ServeRun {
            records: kept,
            measured: m,
            gen_late_max_ms,
            rss_after_warmup_mb,
            rss_end_mb,
        }
    }

    pub fn run(&self, seconds: f64, tracer: Option<&mut Tracer>) -> ServeRun {
        match self.kind {
            Loop::Open => self.run_open(seconds, OPEN_WARMUP_S, tracer),
            Loop::Closed => self.run_closed(seconds, CLOSED_WARMUP_REQUESTS, tracer),
        }
    }
}

/// Open a span when tracing is on.
fn open(tracer: &mut Option<&mut Tracer>, name: &'static str, layer: Layer) -> Option<SpanId> {
    tracer.as_mut().map(|t| t.begin(name, layer))
}

/// Close what [`open`] opened.
fn close(tracer: &mut Option<&mut Tracer>, span: Option<SpanId>) {
    if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
        t.end(id);
    }
}

/// Receive until every sender is gone, stamping each response on arrival.
fn collect(rx: Receiver<Response>, origin: Instant) -> Vec<(u64, Response)> {
    let mut out = Vec::new();
    while let Ok(resp) = rx.recv() {
        out.push((origin.elapsed().as_nanos() as u64, resp));
    }
    out
}

/// Rebuild each request's span tree from what its response reports: the
/// request is the root (on a lane of its own, since requests overlap),
/// the generator's lateness, the queue wait and the five stages are its
/// children, and whatever is left — admission, channel hops, waiting for
/// the rest of a micro-batch to be answered — is the serve layer's own.
pub fn record_request_spans(tracer: &mut Tracer, records: &[Record]) {
    for (i, r) in records.iter().enumerate() {
        let Some(t) = r.timings else { continue };
        let lane = REQUEST_TRACK_BASE + i as u32;
        let root = tracer.record_root(
            lane,
            i as u64,
            "request",
            Layer::Serve,
            r.start_ns,
            r.recv_ns,
        );
        if r.submit_ns > r.start_ns {
            tracer.record_under(root, "gen_late", Layer::Bench, r.start_ns, r.submit_ns);
        }
        let mut at = r.submit_ns;
        for (name, layer, us) in [
            ("queue_wait", Layer::Serve, t.queue_us),
            ("embed", Layer::Core, t.embed_us),
            ("construct", Layer::Graph, t.construct_us),
            ("filter", Layer::Core, t.filter_us),
            ("gnn", Layer::Ignn, t.gnn_us),
            ("tracks", Layer::Graph, t.tracks_us),
        ] {
            let end = at + us * 1000;
            tracer.record_under(root, name, layer, at, end);
            at = end;
        }
    }
}

impl Drop for ServeWorkload {
    fn drop(&mut self) {
        if let Some(core) = self.core.take() {
            core.shutdown();
        }
        // Best effort: the file is inside the benchmark's scratch space.
        let _ = std::fs::remove_file(&self.bundle_path);
    }
}

impl Workload for ServeWorkload {
    fn measure(&mut self, seconds: f64) -> Measured {
        self.run(seconds, None).measured
    }

    fn measure_traced(&mut self, seconds: f64, tracer: &mut Tracer) -> Measured {
        let run = self.run(seconds, Some(tracer));
        record_request_spans(tracer, &run.records);
        run.measured
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_timed_from_the_due_time() {
        // Due at 10 ms, submitted 3 ms late, answered at 25 ms: the
        // request waited 15 ms as far as its user is concerned.
        let r = Record {
            start_ns: 10_000_000,
            submit_ns: 13_000_000,
            recv_ns: 25_000_000,
            timings: None,
            ok: true,
            measured: true,
        };
        assert_eq!(r.latency_ms(), 15.0);
    }

    #[test]
    fn request_spans_split_latency_into_layers() {
        let r = Record {
            start_ns: 1_000_000,
            submit_ns: 1_200_000,
            recv_ns: 9_000_000,
            timings: Some(TimingsUs {
                queue_us: 300,
                embed_us: 1000,
                construct_us: 500,
                filter_us: 700,
                gnn_us: 4000,
                tracks_us: 200,
                total_us: 6800,
                batch_events: 1,
                construct_edges: 0,
            }),
            ok: true,
            measured: true,
        };
        let mut tracer = Tracer::new();
        record_request_spans(&mut tracer, &[r]);
        let by_layer = crate::trace::self_time_by_layer_ns(tracer.spans());
        let of = |l: Layer| by_layer[l as usize];
        assert_eq!(of(Layer::Bench), 200_000);
        assert_eq!(of(Layer::Core), 1_700_000);
        assert_eq!(of(Layer::Graph), 700_000);
        assert_eq!(of(Layer::Ignn), 4_000_000);
        // Queue wait plus the unexplained remainder of the 8 ms.
        assert_eq!(
            of(Layer::Serve),
            300_000 + (8_000_000 - 200_000 - 6_700_000)
        );
        assert_eq!(by_layer.iter().sum::<u64>(), 8_000_000);
    }
}
