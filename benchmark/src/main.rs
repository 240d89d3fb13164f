//! End-to-end benchmark of the trkx workspace, timed from outside.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! benchmark [--trace] [--quick] [--seed N] [--reps R] [--out FILE]     every workload
//! benchmark compare <a.json> <b.json>                                  two result files
//! ```
//!
//! One run builds its inputs from the seed (set-up, repeated and timed),
//! performs operations for `--seconds`, checks every output, prints each
//! metric by name and unit, and ends with one JSON line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` re-runs the workload with
//! spans recorded around the calls into each crate, climbs the per-layer
//! ladder, and reports the per-layer metrics. See `README.md`.

mod inputs;
mod ladder;
mod report;
mod stats;
mod suite;
mod sys;
mod trace;
mod workloads;

use report::{Metrics, RunResult};
use std::path::{Path, PathBuf};
use std::time::Instant;
use sys::ProcSnapshot;
use trace::{Layer, Tracer, MAIN_TRACK};
use workloads::{Pool, Spec};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Set-up is repeated so that `setup_s` is a median, not one draw.
const SETUP_REPS: usize = 3;
/// Cheap set-ups (tens of milliseconds) are repeated further, up to this
/// many times or this many seconds, to steady their median. All of them
/// run before the window, in the state a fresh process would be in: a
/// second round after the window sees another heap and made the median
/// straddle two modes.
const SETUP_MAX_REPS: usize = 25;
const SETUP_EXTRA_BUDGET_S: f64 = 1.0;
/// Shares of `--seconds` a traced run spends on its untraced baseline
/// and on the traced window; the ladder takes the rest.
const TRACE_BASELINE_SHARE: f64 = 0.2;
const TRACE_WINDOW_SHARE: f64 = 0.3;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// Value of `--flag <value>` in `args`.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage(problem: &str) -> ! {
    eprintln!("benchmark: {problem}");
    eprintln!(
        "usage: benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         benchmark [--trace] [--quick] [--seed N] [--reps R] [--out FILE]\n       \
         benchmark compare <a.json> <b.json>",
        workloads::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

/// The benchmark's own scratch space: `out/` beside its manifest, inside
/// the checkout it was built in and ignored by git.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's out/ directory");
    dir
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => std::process::exit(suite::compare(Path::new(a), Path::new(b))),
            _ => usage("compare needs two result files"),
        },
        Some("probe-step") => {
            let seed = flag_value(&args, "--seed")
                .and_then(|s| s.parse().ok())
                .unwrap_or(1);
            println!("{}", ladder::probe_step_ms(seed));
        }
        Some("benchmark-json") => println!("{}", suite::benchmark_json()),
        _ if args.iter().any(|a| a == "--workload") => single(&args),
        _ => std::process::exit(suite::all(&args)),
    }
}

fn single(args: &[String]) {
    fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
        match flag_value(args, flag) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag} needs a number, got {v:?}"))),
            None => default,
        }
    }
    let run = RunArgs {
        workload: flag_value(args, "--workload")
            .unwrap_or_default()
            .to_string(),
        seed: parse(args, "--seed", 1u64),
        seconds: parse(args, "--seconds", 10.0f64),
        trace: parse(args, "--trace", 0u8) != 0,
        quick: args.iter().any(|a| a == "--quick"),
    };
    let Some(spec) = workloads::spec(&run.workload) else {
        usage(&format!("unknown workload {:?}", run.workload));
    };
    if !(run.seconds > 0.0 && run.seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    enter_pool(spec);
    let result = if run.trace {
        run_traced(spec, &run)
    } else {
        run_untraced(spec, &run)
    };
    println!("{}", result.to_json().to_json_string());
    if !result.correct {
        std::process::exit(1);
    }
}

/// The rayon shim reads `RAYON_NUM_THREADS` once per process, so a
/// workload that needs another pool size than this process was started
/// with replaces the process with one that has it.
fn enter_pool(spec: &Spec) {
    use std::os::unix::process::CommandExt;
    let current = std::env::var("RAYON_NUM_THREADS").ok();
    let wanted = match spec.pool {
        Pool::One => Some("1".to_string()),
        Pool::Default => None,
    };
    if current == wanted {
        return;
    }
    let exe = std::env::current_exe().expect("path of this executable");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(std::env::args_os().skip(1));
    match wanted {
        Some(n) => cmd.env("RAYON_NUM_THREADS", n),
        None => cmd.env_remove("RAYON_NUM_THREADS"),
    };
    // exec only returns on failure.
    let err = cmd.exec();
    eprintln!("benchmark: cannot re-exec with the workload's pool size: {err}");
    std::process::exit(2);
}

/// Build the workload from scratch `SETUP_REPS` times or more (cheap
/// set-ups up to `SETUP_MAX_REPS` times within the extra budget), keeping
/// the last build; returns it with the median set-up time. Every other
/// build is torn down before the next one starts, as a fresh process
/// would find things.
fn timed_setups(spec: &Spec, run: &RunArgs) -> (Box<dyn workloads::Workload>, f64) {
    let scratch = out_dir();
    let started = Instant::now();
    let (min_reps, max_reps) = if run.quick {
        (1, 1)
    } else {
        (SETUP_REPS, SETUP_MAX_REPS)
    };
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let w = workloads::setup(spec.name, run.seed, &scratch);
        times.push(t.elapsed().as_secs_f64());
        let in_budget = started.elapsed().as_secs_f64() < SETUP_EXTRA_BUDGET_S;
        if times.len() >= min_reps && (times.len() >= max_reps || !in_budget) {
            return (w, stats::median(&times));
        }
        drop(w);
    }
}

fn run_untraced(spec: &Spec, run: &RunArgs) -> RunResult {
    let (mut w, setup_s) = timed_setups(spec, run);
    let m = w.measure(run.seconds);
    drop(w);
    let peak = ProcSnapshot::read().peak_rss_mb;
    let result = RunResult {
        correct: m.failed == 0 && !m.op_ms.is_empty(),
        attempted: m.attempted,
        failed: m.failed,
        metrics: report::end_to_end_metrics(&m, setup_s, peak),
    };
    let sorted = stats::sorted(&m.op_ms);
    let tail = stats::supported_tail(&sorted).map_or_else(
        || "fewer than 20 operations: only the median has ten samples beyond it".to_string(),
        |(q, v)| {
            format!(
                "highest percentile with ten samples beyond it: p{:.1} = {v:.3} ms",
                q * 100.0
            )
        },
    );
    let note = format!(
        "seed {} pool {} nproc {}; {} measured operations in {:.2} s; {tail}",
        run.seed,
        sys::pool_threads(),
        sys::nproc(),
        m.op_ms.len(),
        m.wall_s
    );
    report::print_metrics(spec.name, &result, &note);
    let quantiles: Vec<String> = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        .iter()
        .map(|&q| format!("p{:.0} {:.3}", q * 100.0, stats::percentile(&sorted, q)))
        .collect();
    println!("# operation time quantiles (ms): {}", quantiles.join("  "));
    result
}

fn run_traced(spec: &Spec, run: &RunArgs) -> RunResult {
    let scratch = out_dir();
    let mut w = workloads::setup(spec.name, run.seed, &scratch);
    let proc0 = ProcSnapshot::read();

    // The same workload twice: untraced for the baseline, then with
    // spans; the difference between their medians is what tracing costs.
    let base = w.measure(run.seconds * TRACE_BASELINE_SHARE);
    let mut tracer = Tracer::new();
    let root = tracer.begin("traced_run", Layer::Bench);
    let traced = w.measure_traced(run.seconds * TRACE_WINDOW_SHARE, &mut tracer);
    tracer.end(root);
    let proc1 = ProcSnapshot::read();
    drop(w);

    let mut m = Metrics::default();
    let ops = traced.op_ms.len().max(1) as f64;
    let by_layer = trace::self_time_by_layer_ns(tracer.spans());
    for (layer, ns) in Layer::ALL.iter().zip(by_layer) {
        m.set(
            &format!("span.{}_ms_per_op", layer.name()),
            ns as f64 / 1e6 / ops,
        );
    }
    // Time on the driving thread that no span below the root claims.
    let self_ns = trace::self_times_ns(tracer.spans());
    let spans = tracer.spans();
    debug_assert_eq!(spans[0].track, MAIN_TRACK);
    let unattributed = 100.0 * self_ns[0] as f64 / spans[0].duration_ns().max(1) as f64;
    m.set("bench.trace_unattributed_pct", unattributed);
    let (p50_base, p50_traced) = (stats::median(&base.op_ms), stats::median(&traced.op_ms));
    m.set(
        "bench.trace_overhead_pct",
        100.0 * (p50_traced / p50_base.max(1e-12) - 1.0),
    );
    m.set("bench.untraced_op_p50_ms", p50_base);
    m.set(
        "bench.untraced_op_p90_ms",
        stats::percentile(&stats::sorted(&base.op_ms), 0.9),
    );
    m.set("bench.traced_op_p50_ms", p50_traced);
    m.set("bench.untraced_ops", base.op_ms.len() as f64);
    m.set("bench.traced_ops", traced.op_ms.len() as f64);
    m.set("proc.cpu_user_s", proc1.cpu_user_s - proc0.cpu_user_s);
    m.set("proc.cpu_sys_s", proc1.cpu_sys_s - proc0.cpu_sys_s);
    m.set(
        "proc.minor_faults",
        (proc1.minor_faults - proc0.minor_faults) as f64,
    );
    m.set(
        "proc.vol_ctx_switches",
        proc1
            .vol_ctx_switches
            .saturating_sub(proc0.vol_ctx_switches) as f64,
    );
    m.set("proc.setup_peak_rss_mb", proc0.peak_rss_mb);

    let trace_path = scratch.join(format!("trace_{}.json", spec.name));
    std::fs::write(&trace_path, tracer.to_json(spec.name).to_json_string())
        .expect("write the trace into the benchmark's out/ directory");

    let effort = if run.quick {
        ladder::Effort::QUICK
    } else {
        ladder::Effort::FULL
    };
    let exe = std::env::current_exe().expect("path of this executable");
    let ladder = ladder::climb(run.seed, &scratch, &exe, effort);
    for (name, value) in ladder.0 {
        m.set(&name, value);
    }
    let failed = base.failed + traced.failed + m.get("serve.failed").unwrap_or(0.0) as u64;
    let result = RunResult {
        // Spans must account for the traced wall to within 5 %.
        correct: failed == 0 && !traced.op_ms.is_empty() && unattributed <= 5.0,
        attempted: base.attempted + traced.attempted,
        failed,
        metrics: report::per_layer_metrics(&m),
    };
    let note = format!(
        "traced; seed {} pool {} nproc {}; {} untraced + {} traced operations; spans in {}",
        run.seed,
        sys::pool_threads(),
        sys::nproc(),
        base.op_ms.len(),
        traced.op_ms.len(),
        trace_path.display()
    );
    report::print_metrics(spec.name, &result, &note);
    result
}
