//! The metric registry (names, units, directions, bounds) and the result
//! schema: what a run prints as its last line, and what `compare` reads.

use crate::stats;
use crate::workloads::Measured;
use serde_json::{json, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system sees. `bound` is
/// the share of the baseline's median by which it may get worse before a
/// change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these, untraced. An operation is
/// the workload's unit of work: one training call, one sampling epoch,
/// one served request.
///
/// The bounds are the widest the contract allows. On the shared
/// 2-vCPU reference host identical work drifts by ±30 % for ten seconds
/// at a time as neighbours come and go (a fixed reference kernel and the
/// sampling epoch slow down together), so a tighter bound would reject
/// changes for the host's behaviour. Memory follows: under a stall the
/// server forms other batches, whose new shapes grow the buffer pools
/// (`serve_open` peaked at 840 MB in a slow phase, 550 MB in a calm one).
/// Tails (p90, p99) drift further still and are per-layer only.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric from the traced run: no bound, it explains.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every traced run reports every one of these. `span.*` and `proc.*`
/// describe the traced workload itself; the rest is the fixed ladder of
/// probes, the same in every traced run, so that any two traced runs can
/// be compared layer by layer.
pub const PER_LAYER: [PerLayer; 97] = [
    // Where the traced workload's time went, per operation.
    lower("span.detector_ms_per_op", "ms"),
    lower("span.graph_ms_per_op", "ms"),
    lower("span.sparse_ms_per_op", "ms"),
    lower("span.tensor_ms_per_op", "ms"),
    lower("span.nn_ms_per_op", "ms"),
    lower("span.ignn_ms_per_op", "ms"),
    lower("span.sampling_ms_per_op", "ms"),
    lower("span.ddp_ms_per_op", "ms"),
    lower("span.core_ms_per_op", "ms"),
    lower("span.serve_ms_per_op", "ms"),
    lower("span.bench_ms_per_op", "ms"),
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.trace_unattributed_pct", "%"),
    higher("bench.traced_loss_match", "count"),
    lower("proc.cpu_user_s", "s"),
    lower("proc.cpu_sys_s", "s"),
    lower("proc.minor_faults", "count"),
    lower("proc.vol_ctx_switches", "count"),
    lower("proc.setup_peak_rss_mb", "MB"),
    // tensor
    higher("tensor.gemm_gflops", "GF/s"),
    lower("tensor.gemm_small_us", "us"),
    lower("tensor.gather_concat_ms", "ms"),
    lower("tensor.scatter_planned_ms", "ms"),
    lower("tensor.backward_ms", "ms"),
    lower("tensor.plan_build_us", "us"),
    lower("tensor.step_allocs", "count"),
    lower("tensor.step_alloc_mb", "MB"),
    higher("tensor.pool_scaling_x", "x"),
    // ignn, nn
    lower("ignn.forward_ms", "ms"),
    lower("ignn.infer_ms", "ms"),
    lower("nn.optimizer_ms", "ms"),
    lower("nn.bucket_pack_us", "us"),
    // sampling
    lower("sampling.bulk_chunk_ms", "ms"),
    lower("sampling.baseline_batch_ms", "ms"),
    higher("sampling.bulk_speedup_x", "x"),
    lower("sampling.subgraph_nodes", "count"),
    lower("sampling.subgraph_edges", "count"),
    lower("sampling.share_of_epoch", "ratio"),
    // sparse
    higher("sparse.shard_hits", "count"),
    lower("sparse.shard_misses", "count"),
    lower("sparse.shard_evictions", "count"),
    higher("sparse.shard_hit_rate", "ratio"),
    lower("sparse.shard_fault_us", "us"),
    lower("sparse.row_hit_ns", "ns"),
    lower("sparse.row_incore_ns", "ns"),
    lower("sparse.spgemm_ms", "ms"),
    lower("sparse.spill_s", "s"),
    // detector
    lower("detector.generate_graph_ms", "ms"),
    lower("detector.simulate_event_ms", "ms"),
    // ddp
    lower("ddp.allreduce_calls_per_step", "count"),
    lower("ddp.comm_virtual_ms_per_step", "ms"),
    higher("ddp.pertensor_over_coalesced_x", "x"),
    lower("ddp.sync_wall_us", "us"),
    higher("ddp.scaling_x", "x"),
    // core
    lower("core.bundle_save_ms", "ms"),
    lower("core.bundle_load_ms", "ms"),
    lower("core.subgraph_matrices_ms", "ms"),
    lower("core.validate_ms", "ms"),
    lower("core.final_train_loss", "loss"),
    higher("core.track_efficiency", "ratio"),
    lower("core.embed_ms_b1", "ms"),
    lower("core.construct_ms_b1", "ms"),
    lower("core.filter_ms_b1", "ms"),
    lower("core.gnn_ms_b1", "ms"),
    lower("core.tracks_ms_b1", "ms"),
    lower("core.reconstruct_ms_b1", "ms"),
    lower("core.embed_ms_b8", "ms"),
    lower("core.construct_ms_b8", "ms"),
    lower("core.filter_ms_b8", "ms"),
    lower("core.gnn_ms_b8", "ms"),
    lower("core.tracks_ms_b8", "ms"),
    lower("core.reconstruct_ms_b8", "ms"),
    // graph
    lower("graph.construct_ms", "ms"),
    higher("graph.construct_edges_per_s", "1/s"),
    lower("graph.components_us", "us"),
    // serve
    lower("serve.queue_wait_p50_ms", "ms"),
    lower("serve.queue_wait_p90_ms", "ms"),
    lower("serve.service_p50_ms", "ms"),
    lower("serve.overhead_ms", "ms"),
    lower("serve.latency_p50_ms", "ms"),
    lower("serve.latency_p99_ms", "ms"),
    lower("serve.gen_late_max_ms", "ms"),
    lower("serve.batch_events_mean", "count"),
    higher("serve.closed_events_per_s", "1/s"),
    lower("serve.rss_growth_mb", "MB"),
    lower("serve.failed", "count"),
    // train calls as the ladder sees them
    lower("core.train_dense_call_ms", "ms"),
    lower("core.train_ddp2_call_ms", "ms"),
    lower("sampling.epoch_incore_ms", "ms"),
    lower("sampling.epoch_oocore_ms", "ms"),
    // what the ladder itself cost
    lower("bench.ladder_s", "s"),
    lower("bench.ladder_bundle_train_s", "s"),
    lower("bench.traced_ops", "count"),
    lower("bench.untraced_ops", "count"),
    lower("bench.traced_op_p50_ms", "ms"),
    lower("bench.untraced_op_p50_ms", "ms"),
    lower("bench.untraced_op_p90_ms", "ms"),
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Named values collected during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// What one run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn to_json(&self) -> Value {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a probe that could not
                // run reports 0, which no live probe can produce.
                let v = if value.is_finite() { *value } else { 0.0 };
                (name.clone(), json!({ "value": v, "unit": unit.as_str() }))
            })
            .collect();
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Map(metrics),
        })
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("result lacks {k:?}"));
        let metrics = field("metrics")?
            .as_map()
            .ok_or("metrics is not an object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                    _ => Err(format!("metric {name:?} lacks value or unit")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("attempted is not a count")?,
            failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
            metrics,
        })
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }
}

/// The end-to-end metrics of one untraced run, in registry order.
pub fn end_to_end_metrics(
    m: &Measured,
    setup_s: f64,
    peak_rss_mb: f64,
) -> Vec<(String, f64, String)> {
    let ok = m.op_ms.len().max(1) as f64;
    let sorted = stats::sorted(&m.op_ms);
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "op_p50_ms" => stats::percentile(&sorted, 0.50),
        "ops_per_s" => m.op_ms.len() as f64 / m.wall_s.max(1e-9),
        "peak_rss_mb" => peak_rss_mb,
        "cpu_ms_per_op" => m.cpu_s * 1e3 / ok,
        other => unreachable!("unregistered end-to-end metric {other}"),
    };
    END_TO_END
        .iter()
        .map(|e| (e.name.to_string(), value(e.name), e.unit.to_string()))
        .collect()
}

/// The per-layer metrics of one traced run, in registry order; a metric
/// the run did not produce is reported as 0 and named on stderr.
pub fn per_layer_metrics(collected: &Metrics) -> Vec<(String, f64, String)> {
    for (name, _) in &collected.0 {
        assert!(
            per_layer(name).is_some(),
            "unregistered per-layer metric {name}"
        );
    }
    PER_LAYER
        .iter()
        .map(|p| {
            let value = collected.get(p.name).unwrap_or_else(|| {
                eprintln!("benchmark: per-layer metric {} was not produced", p.name);
                0.0
            });
            (p.name.to_string(), value, p.unit.to_string())
        })
        .collect()
}

/// Human-readable listing: every metric by name with its unit.
pub fn print_metrics(workload: &str, result: &RunResult, note: &str) {
    println!("# {workload}: {note}");
    for (name, value, unit) in &result.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    println!(
        "# attempted {} failed {} correct {}",
        result.attempted, result.failed, result.correct
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_round_trips_through_its_json_line() {
        let r = RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                ("op_p50_ms".into(), 1.203_4, "ms".into()),
                ("setup_s".into(), 0.812_7, "s".into()),
                ("ops_per_s".into(), 60.0, "1/s".into()),
            ],
        };
        let line = r.to_json().to_json_string();
        assert!(!line.contains('\n'));
        let back = RunResult::from_json(&serde_json::parse_value(&line).unwrap()).unwrap();
        assert_eq!(back, r);
        let parsed = serde_json::parse_value(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn non_finite_values_do_not_break_the_line() {
        let r = RunResult {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: vec![("x".into(), f64::NAN, "ms".into())],
        };
        let back = RunResult::from_json(&r.to_json()).unwrap();
        assert_eq!(back.metric("x"), Some(0.0));
    }

    #[test]
    fn registry_names_are_unique_and_within_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        names.extend(PER_LAYER.iter().map(|p| p.name));
        names.extend(crate::workloads::WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(ok_name(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|e| e.unit)
            .chain(PER_LAYER.iter().map(|p| p.unit))
        {
            assert!(ok_unit(u), "bad unit {u}");
        }
        assert!(END_TO_END.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        for w in &crate::workloads::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    /// `BENCHMARK.json` at the repository root is the contract the driver
    /// reads; it must say what this registry says.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = serde_json::parse_value(&text).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Value::as_seq)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let expect: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), expect);
        for (w, spec) in v
            .get("workloads")
            .unwrap()
            .as_seq()
            .unwrap()
            .iter()
            .zip(&crate::workloads::WORKLOADS)
        {
            assert_eq!(w.get("why").and_then(Value::as_str), Some(spec.why));
        }
        let e2e = v.get("end_to_end").and_then(Value::as_seq).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, e) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(m.get("name").and_then(Value::as_str), Some(e.name));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(e.unit));
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(e.better.name())
            );
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(e.bound));
        }
        let layers = v.get("per_layer").and_then(Value::as_seq).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, p) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(m.get("name").and_then(Value::as_str), Some(p.name));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(p.unit));
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(p.better.name())
            );
        }
    }
}
