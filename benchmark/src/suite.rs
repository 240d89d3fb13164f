//! The suite: run every workload and record the numbers, compare two
//! such records under the per-metric bounds, and emit `BENCHMARK.json`
//! from the registry.

use crate::report::{Better, RunResult, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use crate::{flag_value, out_dir, stats, sys};
use serde_json::{json, Value};
use std::path::Path;

/// How long one run measures; `BENCHMARK.json` says the same.
pub const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`, generated so that it cannot drift from the registry
/// (a unit test compares the committed file with this).
pub fn benchmark_json() -> String {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({ "name": w.name, "why": w.why }))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|e| json!({ "name": e.name, "unit": e.unit, "better": e.better.name(), "bound": e.bound }))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|p| json!({ "name": p.name, "unit": p.unit, "better": p.better.name() }))
        .collect();
    let doc = json!({
        "command": ["bash", "benchmark/run.sh"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": Value::Seq(workloads),
        "end_to_end": Value::Seq(end_to_end),
        "per_layer": Value::Seq(per_layer),
    });
    pretty(&doc, 0)
}

/// Indented JSON, one array element or object entry per line, leaves of
/// small objects kept on one line.
fn pretty(v: &Value, depth: usize) -> String {
    let flat = v.to_json_string();
    let is_leafy = |v: &Value| match v {
        Value::Map(m) => m
            .iter()
            .all(|(_, x)| !matches!(x, Value::Map(_) | Value::Seq(_))),
        Value::Seq(s) => s
            .iter()
            .all(|x| !matches!(x, Value::Map(_) | Value::Seq(_))),
        _ => true,
    };
    if is_leafy(v) && depth > 0 {
        return flat;
    }
    let pad = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    match v {
        Value::Map(m) => {
            let rows: Vec<String> = m
                .iter()
                .map(|(k, x)| {
                    format!(
                        "{pad}{}: {}",
                        Value::Str(k.clone()).to_json_string(),
                        pretty(x, depth + 1)
                    )
                })
                .collect();
            format!("{{\n{}\n{close}}}", rows.join(",\n"))
        }
        Value::Seq(s) => {
            let rows: Vec<String> = s
                .iter()
                .map(|x| format!("{pad}{}", pretty(x, depth + 1)))
                .collect();
            format!("[\n{}\n{close}]", rows.join(",\n"))
        }
        _ => flat,
    }
}

/// Run one workload in a child process (so that its pool size and its
/// peak RSS are its own) and parse the result line it ends with.
fn run_child(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<RunResult, String> {
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or_else(|| {
        format!(
            "{workload} printed nothing ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    for l in lines {
        println!("{l}");
    }
    let value =
        serde_json::parse_value(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let result = RunResult::from_json(&value)?;
    if !out.status.success() || !result.correct {
        return Err(format!(
            "{workload} failed its checks ({} of {} operations)",
            result.failed, result.attempted
        ));
    }
    Ok(result)
}

/// Run every workload untraced (and traced with `--trace`), `--reps`
/// times each, and write the record `compare` reads. Returns the exit
/// code.
pub fn all(args: &[String]) -> i32 {
    let quick = args.iter().any(|a| a == "--quick");
    let trace = args.iter().any(|a| a == "--trace");
    let seed: u64 = flag_value(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let reps: usize = flag_value(args, "--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let seconds = if quick { 1.0 } else { RUN_SECONDS as f64 };
    let out_path = flag_value(args, "--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| out_dir().join("results.json"));
    let exe = std::env::current_exe().expect("path of this executable");
    let env = sys::environment();
    println!("# environment: {}", env.to_json_string());

    let mut runs = Vec::new();
    let mut failures = 0;
    let mut record = |workload: &str, rep: usize, traced: bool| match run_child(
        &exe, workload, seed, seconds, traced, quick,
    ) {
        Ok(result) => runs.push(json!({
            "workload": workload,
            "trace": traced,
            "rep": rep as u64,
            "result": result.to_json(),
        })),
        Err(e) => {
            eprintln!("benchmark: {e}");
            failures += 1;
        }
    };
    for w in &WORKLOADS {
        for rep in 0..reps {
            record(w.name, rep, false);
        }
        if trace {
            record(w.name, 0, true);
        }
    }
    let pools: Vec<(String, Value)> = WORKLOADS
        .iter()
        .map(|w| {
            let pool = match w.pool {
                crate::workloads::Pool::One => 1,
                crate::workloads::Pool::Default => sys::nproc(),
            };
            (w.name.to_string(), json!(pool as u64))
        })
        .collect();
    let doc = json!({
        "environment": env,
        "pool_threads": Value::Map(pools),
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "runs": Value::Seq(runs),
    });
    std::fs::write(&out_path, pretty(&doc, 0) + "\n").expect("write the results file");
    println!("# wrote {}", out_path.display());
    i32::from(failures > 0)
}

/// `(workload, metric)` → values over the repetitions in a results file.
fn collect(doc: &Value, trace: bool) -> Vec<((String, String), Vec<f64>, String)> {
    let mut out: Vec<((String, String), Vec<f64>, String)> = Vec::new();
    for run in doc.get("runs").and_then(Value::as_seq).unwrap_or(&[]) {
        if run.get("trace").and_then(Value::as_bool) != Some(trace) {
            continue;
        }
        let workload = run.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(Ok(result)) = run.get("result").map(RunResult::from_json) else {
            continue;
        };
        for (name, value, unit) in result.metrics {
            let key = (workload.to_string(), name);
            match out.iter_mut().find(|(k, _, _)| *k == key) {
                Some((_, values, _)) => values.push(value),
                None => out.push((key, vec![value], unit)),
            }
        }
    }
    out
}

/// Verdict for one `(metric, workload)` pair: `worse` when the change's
/// median is worse than the base's by more than the bound, `unresolved`
/// when either side's run-to-run spread is wider than the bound (so the
/// comparison cannot tell), else `ok`.
pub fn verdict(base: &[f64], change: &[f64], better: Better, bound: f64) -> &'static str {
    let wide = |v: &[f64]| stats::spread(v).is_some_and(|s| s > bound);
    if wide(base) || wide(change) {
        return "unresolved";
    }
    let (a, b) = (stats::median(base), stats::median(change));
    let worse = match better {
        Better::Lower => b > a * (1.0 + bound),
        Better::Higher => b < a * (1.0 - bound),
    };
    if worse {
        "worse"
    } else {
        "ok"
    }
}

/// Compare two results files: every end-to-end `(metric, workload)` pair
/// under its bound, one row per pair, every ratio with its base; then
/// the per-layer metrics side by side, exact counts marked when they
/// differ. Exit code 1 if any pair is `worse` or `unresolved`.
pub fn compare(a: &Path, b: &Path) -> i32 {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (da, db) = match (load(a), load(b)) {
        (Ok(da), Ok(db)) => (da, db),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return 2;
        }
    };
    println!("# base {}  change {}", a.display(), b.display());
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "base median",
        "change median",
        "ratio",
        "spread a",
        "spread b",
        "bound"
    );
    let (base, change) = (collect(&da, false), collect(&db, false));
    let mut bad = 0;
    for ((workload, metric), va, unit) in &base {
        let Some(e) = END_TO_END.iter().find(|e| e.name == metric) else {
            continue;
        };
        let Some((_, vb, _)) = change
            .iter()
            .find(|(k, _, _)| k.0 == *workload && k.1 == *metric)
        else {
            println!("{workload:<14} {metric:<16} missing from change");
            bad += 1;
            continue;
        };
        let (ma, mb) = (stats::median(va), stats::median(vb));
        let v = verdict(va, vb, e.better, e.bound);
        if v != "ok" {
            bad += 1;
        }
        let pct = |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0));
        println!(
            "{workload:<14} {metric:<16} {ma:>11.4} {unit:<2} {mb:>11.4} {unit:<2} {:>8.3} {:>9} {:>9} {:>5.0}%  {v}",
            mb / ma,
            pct(stats::spread(va)),
            pct(stats::spread(vb)),
            e.bound * 100.0
        );
    }
    let (base, change) = (collect(&da, true), collect(&db, true));
    if !base.is_empty() {
        println!("# per-layer (traced runs): no bounds; counts are expected to repeat exactly");
    }
    for ((workload, metric), va, unit) in &base {
        let Some((_, vb, _)) = change
            .iter()
            .find(|(k, _, _)| k.0 == *workload && k.1 == *metric)
        else {
            continue;
        };
        let (ma, mb) = (stats::median(va), stats::median(vb));
        let mark = if unit == "count" && ma != mb {
            "  differs"
        } else {
            ""
        };
        // A layer the workload never enters reports 0 on both sides.
        let ratio = if ma == 0.0 && mb == 0.0 { 1.0 } else { mb / ma };
        println!("{workload:<14} {metric:<34} {ma:>14.4} {mb:>14.4} {unit:<6} {ratio:>8.3}{mark}");
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 100.0];
        let slower = [112.0, 113.0, 111.0, 112.5, 112.0];
        let noisy = [80.0, 125.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&steady, &steady, Better::Lower, 0.10), "ok");
        assert_eq!(verdict(&steady, &slower, Better::Lower, 0.10), "worse");
        // Lower is better: getting smaller is never worse.
        assert_eq!(verdict(&slower, &steady, Better::Lower, 0.10), "ok");
        assert_eq!(verdict(&slower, &steady, Better::Higher, 0.10), "worse");
        assert_eq!(verdict(&steady, &slower, Better::Lower, 0.15), "ok");
        assert_eq!(verdict(&steady, &noisy, Better::Lower, 0.10), "unresolved");
        // A single run per side has no spread to object to.
        assert_eq!(verdict(&[100.0], &[105.0], Better::Lower, 0.10), "ok");
        assert_eq!(verdict(&[100.0], &[111.0], Better::Lower, 0.10), "worse");
    }

    #[test]
    fn benchmark_json_is_valid_and_small() {
        let text = benchmark_json();
        assert!(text.len() < 64 * 1024);
        let v = serde_json::parse_value(&text).unwrap();
        assert_eq!(
            v.get("run_seconds").and_then(Value::as_u64),
            Some(RUN_SECONDS)
        );
        assert_eq!(v.get("workloads").and_then(Value::as_seq).unwrap().len(), 6);
    }
}
