//! The six workloads. Each one builds its inputs from the seed
//! (set-up), then performs operations for a fixed wall-clock window and
//! checks every operation's output.

pub mod sample;
pub mod serve;
pub mod train;

use crate::sys::cpu_seconds;
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;

/// Which rayon pool size a workload's process runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// `RAYON_NUM_THREADS=1`.
    One,
    /// `RAYON_NUM_THREADS` unset: one pool thread per core.
    Default,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub pool: Pool,
}

/// The frozen workload list; `BENCHMARK.json` repeats names and reasons.
pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "train_dense",
        why: "Few large training steps: GEMM, message-passing kernels, tape and optimizer do ~99% of the work, so a kernel, allocator or pool-retention change must show here.",
        pool: Pool::One,
    },
    Spec {
        name: "train_ddp2",
        why: "Many small steps on two DDP rank threads: per-step overhead, bucket pack/unpack, all-reduce and barriers dominate, so a big-GEMM win that taxes small calls shows here.",
        pool: Pool::One,
    },
    Spec {
        name: "sample_incore",
        why: "Bulk ShaDow sampling over an in-core CSR: the paper's own contribution in isolation, sampling and sparse do all the work; guard for sample_oocore.",
        pool: Pool::One,
    },
    Spec {
        name: "sample_oocore",
        why: "The same sampler and batch plan read through the file-backed ShardedCsr with a 25% LRU: shard faults dominate, so a store or cache change shows here and not on sample_incore.",
        pool: Pool::One,
    },
    Spec {
        name: "serve_open",
        why: "Open loop of independent users below saturation (Poisson arrivals, latency from due time): batches stay near 1, so latency is the five pipeline stages and a stage-kernel win shows here.",
        pool: Pool::Default,
    },
    Spec {
        name: "serve_closed",
        why: "Closed loop with 8 requests in flight: queueing, micro-batch formation, union-graph inference and worker/pool contention decide throughput; serve_open guards the unbatched path.",
        pool: Pool::Default,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one measured window produced.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Time of each completed, measured operation in milliseconds (for
    /// the open loop: from the request's due time to its response).
    pub op_ms: Vec<f64>,
    /// Wall-clock length of the measured window.
    pub wall_s: f64,
    /// Process CPU time (user + system, all threads) spent in the window.
    pub cpu_s: f64,
    pub attempted: u64,
    /// Operations that errored, were refused, or failed the output check.
    pub failed: u64,
}

pub trait Workload {
    /// Warm up, then run untraced for `seconds`.
    fn measure(&mut self, seconds: f64) -> Measured;
    /// Run for `seconds`, recording spans into `tracer`.
    fn measure_traced(&mut self, seconds: f64, tracer: &mut Tracer) -> Measured;
}

/// Build a workload's inputs and state from the seed. `scratch` is a
/// directory of the benchmark's own for files the workload needs
/// (spilled shards, the saved bundle).
pub fn setup(name: &str, seed: u64, scratch: &Path) -> Box<dyn Workload> {
    match name {
        "train_dense" => Box::new(train::TrainWorkload::new(train::DENSE, seed)),
        "train_ddp2" => Box::new(train::TrainWorkload::new(train::DDP2, seed)),
        "sample_incore" => Box::new(sample::SampleWorkload::new(false, seed, scratch)),
        "sample_oocore" => Box::new(sample::SampleWorkload::new(true, seed, scratch)),
        "serve_open" => Box::new(serve::ServeWorkload::new(serve::Loop::Open, seed, scratch)),
        "serve_closed" => Box::new(serve::ServeWorkload::new(
            serve::Loop::Closed,
            seed,
            scratch,
        )),
        other => panic!("unknown workload {other:?}"),
    }
}

/// Run `work` and return its result with the time it took in
/// milliseconds.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = work();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// One caller issuing operations back to back: `warmup` discarded
/// operations, then as many as start within `seconds`. `op` returns the
/// operation's time in milliseconds — its own measurement, so that the
/// output check it performs afterwards is not billed to the system — and
/// whether the output passed.
pub fn closed_loop(seconds: f64, warmup: usize, mut op: impl FnMut() -> (f64, bool)) -> Measured {
    let mut m = Measured::default();
    for _ in 0..warmup {
        m.attempted += 1;
        if !op().1 {
            m.failed += 1;
        }
    }
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    loop {
        let (ms, ok) = op();
        m.op_ms.push(ms);
        m.attempted += 1;
        if !ok {
            m.failed += 1;
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    m.wall_s = start.elapsed().as_secs_f64();
    m.cpu_s = cpu_seconds() - cpu0;
    m
}
