//! `trkx` command-line interface: simulate datasets, train the GNN
//! stage, evaluate checkpoints, and run end-to-end track reconstruction.
//!
//! ```text
//! trkx simulate  [--dataset ex3|ctd] [--scale 0.05] [--events 10] [--seed 42]
//! trkx train     [--dataset ex3|ctd] [--scale 0.05] [--events 10] [--seed 42]
//!                MODEL [--sampler bulk|baseline] [--bulk-k 4] [--workers 1]
//!                [--graph-store incore|sharded] [--shard-nodes N]
//!                [--shard-cache M] [--shard-dir DIR]
//!                [--out model.json] [--patience N] [--telemetry epochs.jsonl]
//! trkx evaluate  [--model model.json] [--dataset ex3|ctd] [--scale 0.05]
//!                [--events 10] [--seed 42] MODEL
//! trkx reconstruct [--particles 40] [--events 8] [--seed 7] [--epochs 8]
//!                [--hidden 32] [--layers 4] [--embed-epochs 15]
//!                [--out pipeline.json]
//! trkx serve     --model pipeline.json [--tcp 127.0.0.1:9090]
//!                [--workers 2] [--max-queue 128] [--max-event-hits 50000]
//! trkx sample    [--sampler shadow|bulk-shadow|all]
//!                [--dataset ex3|ctd] [--scale 0.1]
//!                [--batch 256] [--repeat 3] [--seed 1]
//!                [--shadow-depth 3] [--shadow-fanout 6]
//!                [--graph-store incore|sharded] [--shard-nodes N]
//!                [--shard-cache M]
//!
//! MODEL = [--hidden 32] [--layers 4] [--epochs 6] [--batch 128] [--lr 2e-3]
//!         [--shadow-depth 2] [--shadow-fanout 4]
//! ```
//!
//! Every subcommand rejects an unknown or repeated flag, a flag without
//! its value, a value that does not parse, a zero `--workers` / `--batch`
//! / `--hidden` / `--bulk-k` and an unknown `--sampler` / `--dataset` / `--graph-store` name with
//! one line on stderr and exit code 2; nothing is accepted and ignored.
//! A failure after the flags are read is one line on stderr and exit
//! code 1; that includes a graph store that fails while `train` or
//! `sample` reads it, which names the store. Either way, the shard
//! directory a sharded run creates under `$TMPDIR` when no `--shard-dir`
//! is given is removed before exit.
//!
//! `serve` speaks line-delimited JSON: requests in (`{"id":1,"event":{...}}`,
//! `{"cmd":"reload","path":"new.json"}`, `{"cmd":"stats"}`,
//! `{"cmd":"shutdown"}`), one JSON response per line out. By default it
//! reads stdin and writes stdout; `--tcp addr` listens on a socket
//! instead.

use rand::{rngs::StdRng, SeedableRng};
use std::path::{Path, PathBuf};
use trkx::ddp::{AllReduceStrategy, DdpConfig};
use trkx::detector::{
    dataset_stats, simulate_event, split_80_10_10, DatasetConfig, DetectorGeometry, GunConfig,
};
use trkx::nn::Bindings;
use trkx::pipeline::{
    best_f1_threshold, evaluate, infer_logits_with, prepare_graphs, prepare_graphs_sharded,
    roc_auc, train, train_pipeline, Checkpoint, EarlyStoppingHook, EmbeddingConfig, GnnTrainConfig,
    Hook, Monitor, PipelineConfig, PreparedGraph, SamplerKind, TelemetryHook, TrainResult,
    TrainSpec,
};
use trkx::sampling::{
    vertex_batches, BulkShadowSampler, Sampler, SamplerGraph, ShadowConfig, ShadowSampler,
};
use trkx::serve::{serve_stdio, serve_tcp, ModelRegistry, ServeConfig, ServerCore};
use trkx::tensor::Tape;

/// One subcommand's command line, consumed flag by flag: each accessor
/// removes what it reads and [`Args::finish`] rejects whatever is left,
/// so a misspelt flag can never be accepted and ignored. Every
/// rejection is one line on stderr and exit code 2.
struct Args {
    cmd: &'static str,
    rest: Vec<String>,
}

impl Args {
    fn die(&self, msg: impl std::fmt::Display) -> ! {
        eprintln!("trkx {}: {msg}", self.cmd);
        std::process::exit(2)
    }

    /// Consume `key VALUE`, if given.
    fn take(&mut self, key: &str) -> Option<String> {
        let i = self.rest.iter().position(|a| a == key)?;
        if self.rest.get(i + 1).is_none_or(|v| v.starts_with("--")) {
            self.die(format_args!("{key} needs a value"));
        }
        self.rest.remove(i);
        Some(self.rest.remove(i))
    }

    fn value<T: std::str::FromStr>(&mut self, key: &str, default: T) -> T {
        match self.take(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| self.die(format_args!("{key}: cannot parse {v:?}"))),
        }
    }

    /// [`Args::value`] for a count that must be at least 1.
    fn positive(&mut self, key: &str, default: usize) -> usize {
        let v = self.value(key, default);
        if v == 0 {
            self.die(format_args!("{key} must be at least 1"));
        }
        v
    }

    /// Consume `key NAME` where NAME is one of `options`; the first
    /// option is the default.
    fn choice<T: Clone>(&mut self, key: &str, options: &[(&str, T)]) -> T {
        let Some(v) = self.take(key) else {
            return options[0].1.clone();
        };
        match options.iter().find(|(name, _)| *name == v) {
            Some((_, t)) => t.clone(),
            None => {
                let names: Vec<&str> = options.iter().map(|(name, _)| *name).collect();
                self.die(format_args!(
                    "{key}: unknown value {v:?} (expected {})",
                    names.join(", ")
                ))
            }
        }
    }

    /// Call once every flag has been read.
    fn finish(self) {
        if let Some(a) = self.rest.first() {
            self.die(format_args!("unknown or repeated argument {a:?}"));
        }
    }
}

fn dataset_config(args: &mut Args) -> DatasetConfig {
    type Make = fn(f64) -> DatasetConfig;
    let (make, default_scale) = args.choice(
        "--dataset",
        &[
            ("ex3", (DatasetConfig::ex3_like as Make, 0.05)),
            ("ctd", (DatasetConfig::ctd_like as Make, 0.003)),
        ],
    );
    make(args.value("--scale", default_scale))
}

/// The MODEL flags plus `--seed`, which also seeds event generation.
fn gnn_config(args: &mut Args, dataset: &DatasetConfig) -> GnnTrainConfig {
    GnnTrainConfig {
        hidden: args.positive("--hidden", 32),
        gnn_layers: args.value("--layers", 4),
        mlp_depth: dataset.mlp_layers,
        epochs: args.value("--epochs", 6),
        batch_size: args.positive("--batch", 128),
        learning_rate: args.value("--lr", 2e-3),
        shadow: ShadowConfig {
            depth: args.value("--shadow-depth", 2),
            fanout: args.value("--shadow-fanout", 4),
        },
        seed: args.value("--seed", 42),
        ..Default::default()
    }
}

/// `--graph-store sharded` with its `--shard-nodes` rows per shard and
/// `--shard-cache` LRU shards per store; `None` is the in-core default.
fn graph_store(args: &mut Args, nodes: usize, cache: usize) -> Option<(usize, usize)> {
    let sharded = args.choice("--graph-store", &[("incore", false), ("sharded", true)]);
    let nodes = args.value("--shard-nodes", nodes).max(1);
    let cache = args.value("--shard-cache", cache).max(1);
    sharded.then_some((nodes, cache))
}

/// A directory this process owns under `$TMPDIR`, removed with its
/// contents when dropped. Commands return their failures to `main`
/// instead of exiting, so the removal runs on failed runs too.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(prefix: &str) -> Self {
        Self(std::env::temp_dir().join(format!("{prefix}-{}", std::process::id())))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Build training graphs either fully in-core or through the out-of-core
/// sharded store (`--graph-store sharded`): adjacency spilled to
/// `--shard-dir` at `--shard-nodes` rows per shard, read back through an
/// LRU cache of `--shard-cache` shards per store. Sampled batches — and
/// loss curves — are bit-identical across the two stores. Without a
/// `--shard-dir` the shards go to a [`ScratchDir`], returned so that it
/// lives as long as the graphs that read it; a `--shard-dir` is the
/// user's and is kept.
fn prepare_for_store(
    store: Option<(usize, usize)>,
    shard_dir: String,
    graphs: &[trkx::detector::EventGraph],
) -> Result<(Vec<PreparedGraph>, Option<ScratchDir>), String> {
    let Some((shard_nodes, cache)) = store else {
        return Ok((prepare_graphs(graphs), None));
    };
    let scratch = shard_dir.is_empty().then(|| ScratchDir::new("trkx-shards"));
    let dir = scratch
        .as_ref()
        .map_or_else(|| PathBuf::from(shard_dir), |s| s.0.clone());
    let prepared = prepare_graphs_sharded(graphs, &dir, shard_nodes, cache)
        .map_err(|e| format!("failed to build sharded graph store: {e}"))?;
    println!(
        "sharded graph store under {} ({shard_nodes} nodes/shard, \
         cache {cache} shards/store)",
        dir.display()
    );
    Ok((prepared, scratch))
}

/// [`train`], with a graph store fault as the one line `main` prints
/// before exit 1 (every DDP rank ends alike, so `--workers N` exits too).
fn train_gnn(
    spec: &TrainSpec,
    train_set: &[PreparedGraph],
    val: &[PreparedGraph],
) -> Result<TrainResult, String> {
    train(spec, train_set, val).map_err(|e| format!("training stopped: {e}"))
}

/// The one line `main` prints before exit 1 if a read of `graph`'s
/// stores failed (the samplers record the fault and read on empty rows).
fn sampling_fault(graph: &SamplerGraph) -> Result<(), String> {
    match graph.fault() {
        Some(e) => Err(format!("sampling stopped: graph store fault: {e}")),
        None => Ok(()),
    }
}

/// Print shard-cache traffic when any graph reads through a sharded store.
fn report_shard_cache(graphs: &[PreparedGraph]) {
    let mut total: Option<trkx::sparse::CacheCounters> = None;
    for g in graphs {
        if let Some(c) = g.sampler.cache_counters() {
            total = Some(total.unwrap_or_default().merged(c));
        }
    }
    if let Some(c) = total {
        println!(
            "shard cache : {} hits / {} misses / {} evictions (hit rate {:.3})",
            c.hits,
            c.misses,
            c.evictions,
            c.hit_rate()
        );
    }
}

fn cmd_simulate(mut args: Args) -> Result<(), String> {
    let cfg = dataset_config(&mut args);
    let events = args.value("--events", 10usize);
    let seed = args.value("--seed", 42u64);
    args.finish();
    let graphs = cfg.generate(events, seed);
    let stats = dataset_stats(&graphs);
    println!("dataset           : {}", cfg.name);
    println!("graphs            : {}", stats.graphs);
    println!("avg vertices      : {:.1}", stats.avg_vertices);
    println!("avg edges         : {:.1}", stats.avg_edges);
    println!(
        "edge/vertex ratio : {:.2}",
        stats.avg_edges / stats.avg_vertices
    );
    println!("true-edge fraction: {:.3}", stats.avg_positive_fraction);
    println!("vertex features   : {}", cfg.num_vertex_features);
    println!("edge features     : {}", cfg.num_edge_features);
    Ok(())
}

fn cmd_train(mut args: Args) -> Result<(), String> {
    let cfg = dataset_config(&mut args);
    let events = args.value("--events", 10usize);
    let (tr, va, _) = split_80_10_10(events);
    if tr.is_empty() {
        args.die(format_args!(
            "--events {events} leaves no training events after the 80/10/10 split"
        ));
    }
    let out = args.value("--out", "model.json".to_string());
    let store = graph_store(&mut args, 2048, 8);
    let shard_dir = args.value("--shard-dir", String::new());
    let gnn_cfg = gnn_config(&mut args, &cfg);
    let bulk = SamplerKind::Bulk {
        k: args.positive("--bulk-k", 4),
    };
    let sampler = args.choice(
        "--sampler",
        &[("bulk", bulk), ("baseline", SamplerKind::Baseline)],
    );
    let workers = args.positive("--workers", 1);
    let ddp = DdpConfig::new(workers, AllReduceStrategy::Coalesced);
    let patience = args.value("--patience", 0usize); // 0 = train all epochs
    let telemetry = args.value("--telemetry", String::new());
    args.finish();
    // Opened once, before any work: a path that cannot be opened fails
    // the run instead of losing every record.
    let telemetry_file = if telemetry.is_empty() {
        None
    } else {
        let file = std::fs::File::options()
            .create(true)
            .append(true)
            .open(&telemetry)
            .map_err(|e| format!("cannot open telemetry file {telemetry}: {e}"))?;
        Some(std::sync::Arc::new(file))
    };
    eprintln!("gemm kernel: {}", trkx::tensor::gemm_kernel());
    let graphs = cfg.generate(events, gnn_cfg.seed);
    let (prepared, _scratch) = prepare_for_store(store, shard_dir, &graphs)?;
    println!(
        "training on {} ({} train / {} val graphs)...",
        cfg.name,
        tr.len(),
        va.len()
    );
    // Per-rank hook stacks: rank 0 narrates (and optionally records JSONL
    // telemetry); every rank runs the same early-stopping policy so the
    // replicas stop on the same epoch.
    let make_hooks = move |rank: usize| -> Vec<Box<dyn Hook>> {
        let mut hooks: Vec<Box<dyn Hook>> = Vec::new();
        if rank == 0 {
            hooks.push(Box::new(TelemetryHook::new(|r| {
                println!(
                    "epoch {:>2}: loss {:.4}  val P {:.3} R {:.3}  ({:.1}s)",
                    r.epoch,
                    r.train_loss,
                    r.val_precision,
                    r.val_recall,
                    r.timing.total_s()
                );
            })));
            if let Some(file) = &telemetry_file {
                let hook = TelemetryHook::jsonl(std::sync::Arc::clone(file), telemetry.clone());
                hooks.push(Box::new(hook));
            }
        }
        if patience > 0 {
            hooks.push(Box::new(EarlyStoppingHook::new(
                Monitor::ValF1,
                patience,
                0.0,
            )));
        }
        hooks
    };
    let spec = TrainSpec::ddp(&gnn_cfg, sampler, ddp).with_hooks(&make_hooks);
    let result = train_gnn(&spec, &prepared[tr], &prepared[va])?;
    if patience > 0 && result.epochs.len() < gnn_cfg.epochs {
        println!(
            "early stop after {} epochs (patience {patience})",
            result.epochs.len()
        );
    }
    report_shard_cache(&prepared);
    let ckpt = Checkpoint::from_params(&result.model.params()).with_meta(
        "gnn",
        cfg.num_vertex_features,
        cfg.num_edge_features,
        1,
    );
    ckpt.save_json(&out)
        .map_err(|e| format!("failed to save checkpoint: {e}"))?;
    println!("saved checkpoint ({} scalars) to {out}", ckpt.numel());
    Ok(())
}

fn cmd_evaluate(mut args: Args) -> Result<(), String> {
    let model_path = args.value("--model", "model.json".to_string());
    let cfg = dataset_config(&mut args);
    let events = args.value("--events", 10usize);
    let gnn_cfg = gnn_config(&mut args, &cfg);
    args.finish();
    let graphs = cfg.generate(events, gnn_cfg.seed);
    let (_, _, te) = split_80_10_10(graphs.len());
    let prepared = prepare_graphs(&graphs);
    let test = &prepared[te];

    let mut rng = StdRng::seed_from_u64(gnn_cfg.seed);
    let mut model = trkx::ignn::InteractionGnn::new(
        gnn_cfg.ignn_config(cfg.num_vertex_features, cfg.num_edge_features),
        &mut rng,
    );
    let ckpt = Checkpoint::load_json(&model_path)
        .map_err(|e| format!("failed to load {model_path}: {e}"))?;
    ckpt.apply_to(&mut model.params_mut())
        .map_err(|e| format!("checkpoint does not match the configured model: {e}"))?;

    let stats = evaluate(&model, test, 0.5);
    println!("test graphs : {}", test.len());
    println!("precision   : {:.4}", stats.precision());
    println!("recall      : {:.4}", stats.recall());
    println!("f1          : {:.4}", stats.f1());
    // Score-based metrics over the pooled test edges.
    let mut logits = Vec::new();
    let mut labels = Vec::new();
    let (mut tape, mut bind) = (Tape::new(), Bindings::new());
    for g in test {
        logits.extend(infer_logits_with(&mut tape, &mut bind, &model, g));
        labels.extend_from_slice(&g.labels);
    }
    println!("roc auc     : {:.4}", roc_auc(&logits, &labels));
    let best = best_f1_threshold(&logits, &labels, 19);
    println!(
        "best f1     : {:.4} at threshold {:.2} (P {:.3} R {:.3})",
        best.f1, best.threshold, best.precision, best.recall
    );
    Ok(())
}

fn cmd_reconstruct(mut args: Args) -> Result<(), String> {
    let particles = args.value("--particles", 40usize);
    let events = args.value("--events", 8usize);
    let seed = args.value("--seed", 7u64);
    let config = PipelineConfig {
        embedding: EmbeddingConfig {
            epochs: args.value("--embed-epochs", 15),
            ..Default::default()
        },
        gnn: GnnTrainConfig {
            hidden: args.positive("--hidden", 32),
            gnn_layers: args.value("--layers", 4),
            epochs: args.value("--epochs", 8),
            batch_size: 128,
            shadow: ShadowConfig {
                depth: 2,
                fanout: 4,
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let out = args.value("--out", String::new());
    args.finish();
    let geometry = DetectorGeometry::default();
    let gun = GunConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let all: Vec<_> = (0..events + 2)
        .map(|_| simulate_event(&geometry, &gun, particles, 0.1, &mut rng))
        .collect();
    let (train, rest) = all.split_at(events);
    let (val, test) = rest.split_at(1);

    println!("training the five-stage pipeline on {events} events...");
    let (pipeline, report) = train_pipeline(config, train, val);
    println!(
        "construction eff {:.3} / filter R {:.3} / GNN P {:.3} R {:.3}",
        report.construction_efficiency,
        report.filter_recall,
        report.gnn_val_precision,
        report.gnn_val_recall
    );
    let result = pipeline.reconstruct(&test[0]);
    println!(
        "test event: {} hits, kept {} edges, track efficiency {:.3}, purity {:.3}",
        test[0].num_hits(),
        result.edges_kept,
        result.metrics.efficiency(),
        result.metrics.purity()
    );
    if !out.is_empty() {
        pipeline
            .save_json(&out)
            .map_err(|e| format!("failed to save pipeline bundle: {e}"))?;
        println!("saved pipeline bundle to {out}");
    }
    Ok(())
}

/// Serve a trained pipeline bundle over line-delimited JSON (stdin by
/// default, a TCP listener with `--tcp addr`).
fn cmd_serve(mut args: Args) -> Result<(), String> {
    let Some(model_path) = args.take("--model") else {
        args.die("--model <pipeline.json> is required (from `trkx reconstruct --out`)");
    };
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: args.positive("--workers", defaults.workers),
        max_queue: args.positive("--max-queue", defaults.max_queue),
        max_event_hits: args.value("--max-event-hits", defaults.max_event_hits),
    };
    let tcp = args.value("--tcp", String::new());
    args.finish();
    let registry = ModelRegistry::load(&model_path)
        .map_err(|e| format!("failed to load {model_path}: {e}"))?;
    // Startup banner on stderr so stdout stays pure response lines.
    eprintln!("gemm kernel: {}", trkx::tensor::gemm_kernel());
    eprintln!(
        "serving {model_path} (version {}) with {} workers, one event at a time, \
         shedding events > {} hits and queue depth > {}",
        registry.version(),
        config.workers,
        config.max_event_hits,
        config.max_queue
    );
    let core = ServerCore::start(config, std::sync::Arc::new(registry));
    if tcp.is_empty() {
        serve_stdio(core)
    } else {
        serve_tcp(core, tcp.as_str())
    }
    .map_err(|e| format!("serve failed: {e}"))
}

/// Time either sampler (by name, via the unified `Sampler` trait) over
/// one generated event's minibatch schedule.
fn cmd_sample(mut args: Args) -> Result<(), String> {
    let cfg = dataset_config(&mut args);
    let seed = args.value("--seed", 1u64);
    let batch_size = args.positive("--batch", 256);
    let repeat = args.value("--repeat", 3usize).max(1);
    let store = graph_store(&mut args, 1024, 4);
    // Both samplers behind the unified trait, chosen by `Sampler::name`.
    let shadow = ShadowConfig {
        depth: args.value("--shadow-depth", 3),
        fanout: args.value("--shadow-fanout", 6),
    };
    let all: [Box<dyn Sampler>; 2] = [
        Box::new(ShadowSampler::new(shadow)),
        Box::new(BulkShadowSampler::new(shadow)),
    ];
    let mut options = vec![("all", None)];
    options.extend(all.iter().enumerate().map(|(i, s)| (s.name(), Some(i))));
    let which = args.choice("--sampler", &options);
    args.finish();

    let g = &cfg.generate(1, seed)[0];
    // Declared before `graph`, so the shards outlive the stores reading them.
    let scratch;
    let graph = match store {
        Some((shard_nodes, cache)) => {
            scratch = ScratchDir::new("trkx-sample");
            let spec = trkx::detector::spill_adjacency(
                g.num_nodes,
                &g.src,
                &g.dst,
                &scratch.0,
                "event",
                shard_nodes,
            )
            .map_err(|e| format!("failed to spill sharded adjacency: {e}"))?;
            let open = |p: &Path| {
                trkx::sparse::ShardedCsr::<u32>::open(p, cache)
                    .map(std::sync::Arc::new)
                    .map_err(|e| format!("failed to open sharded store: {e}"))
            };
            SamplerGraph::from_stores(g.num_nodes, open(&spec.directed)?, open(&spec.undirected)?)
        }
        None => SamplerGraph::new(g.num_nodes, &g.src, &g.dst),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let batches = vertex_batches(g.num_nodes, batch_size, &mut rng);
    println!(
        "{}: {} vertices, {} edges; {} batches of {batch_size}\n",
        cfg.name,
        g.num_nodes,
        g.num_edges(),
        batches.len()
    );

    let samplers = match which {
        Some(i) => &all[i..=i],
        None => &all[..],
    };
    println!(
        "{:<12} {:>10} {:>9} {:>9}  (best of {repeat})",
        "sampler", "ms/epoch", "nodes", "edges"
    );
    for sampler in samplers {
        let mut best = f64::INFINITY;
        let mut subgraphs = Vec::new();
        for _ in 0..repeat {
            let t = std::time::Instant::now();
            subgraphs = sampler.sample_bulk(&graph, &batches, seed);
            best = best.min(t.elapsed().as_secs_f64());
        }
        sampling_fault(&graph)?;
        for sg in &subgraphs {
            sg.validate(&graph);
        }
        let nodes: usize = subgraphs.iter().map(|s| s.num_nodes()).sum();
        let edges: usize = subgraphs.iter().map(|s| s.num_edges()).sum();
        println!(
            "{:<12} {:>10.2} {:>9} {:>9}",
            sampler.name(),
            best * 1e3,
            nodes,
            edges
        );
    }
    if let Some(c) = graph.cache_counters() {
        println!(
            "\nshard cache: {} hits / {} misses / {} evictions (hit rate {:.3})",
            c.hits,
            c.misses,
            c.evictions,
            c.hit_rate()
        );
    }
    Ok(())
}

fn main() {
    let mut raw = std::env::args().skip(1);
    type Run = fn(Args) -> Result<(), String>;
    let (cmd, run): (&'static str, Run) = match raw.next().as_deref() {
        Some("simulate") => ("simulate", cmd_simulate),
        Some("train") => ("train", cmd_train),
        Some("evaluate") => ("evaluate", cmd_evaluate),
        Some("reconstruct") => ("reconstruct", cmd_reconstruct),
        Some("serve") => ("serve", cmd_serve),
        Some("sample") => ("sample", cmd_sample),
        _ => {
            eprintln!(
                "usage: trkx <simulate|train|evaluate|reconstruct|serve|sample> [options]\n\
                 see the module docs at the top of src/bin/trkx.rs"
            );
            std::process::exit(2);
        }
    };
    let args = Args {
        cmd,
        rest: raw.collect(),
    };
    if let Err(e) = run(args) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
#[path = "../../crates/sampling/tests/support/faulty_store.rs"]
mod faulty_store;

#[cfg(test)]
mod tests {
    //! A CLI run cannot truncate its own spilled shards mid-run, so these
    //! tests inject the fault into the functions `cmd_train` and
    //! `cmd_sample` call, and check the line `main` would print.

    use super::faulty_store::{faulty_graph, Fault, STORE_NAME};
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn assert_one_line_naming_the_store(line: &str) {
        assert!(line.contains(STORE_NAME), "{line}");
        assert!(line.contains("graph store fault"), "{line}");
        assert!(!line.contains('\n'), "{line}");
    }

    #[test]
    fn a_store_fault_in_train_is_one_line_even_at_two_workers() {
        let graphs = DatasetConfig::ex3_like(0.01).generate(3, 21);
        let mut prepared = prepare_graphs(&graphs);
        let (sampler, _) = faulty_graph(&prepared[0].sampler, Fault::Eio, 2, false);
        prepared[0].sampler = sampler;
        let cfg = GnnTrainConfig {
            hidden: 8,
            gnn_layers: 1,
            epochs: 2,
            batch_size: 16,
            ..GnnTrainConfig::default()
        };
        // A watchdog, so a hang at `--workers 2` fails the test instead
        // of stalling the suite.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let ddp = DdpConfig::new(2, AllReduceStrategy::Coalesced);
            let spec = TrainSpec::ddp(&cfg, SamplerKind::Bulk { k: 2 }, ddp);
            let _ = tx.send(train_gnn(&spec, &prepared[..2], &prepared[2..]).err());
        });
        let line = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("train returned within the watchdog")
            .expect("a store fault is an error");
        assert!(line.starts_with("training stopped: "), "{line}");
        assert_one_line_naming_the_store(&line);
    }

    #[test]
    fn a_store_fault_in_sample_is_one_line() {
        let g = &DatasetConfig::ex3_like(0.01).generate(1, 3)[0];
        let incore = SamplerGraph::new(g.num_nodes, &g.src, &g.dst);
        let batches = vertex_batches(g.num_nodes, 32, &mut StdRng::seed_from_u64(1));
        for fault in [Fault::Eio, Fault::ShortRead] {
            let (graph, _) = faulty_graph(&incore, fault, 2, false);
            assert_eq!(sampling_fault(&graph), Ok(()));
            BulkShadowSampler::new(ShadowConfig::default()).sample_bulk(&graph, &batches, 1);
            let line = sampling_fault(&graph).expect_err("a store fault is an error");
            assert!(line.starts_with("sampling stopped: "), "{line}");
            assert_one_line_naming_the_store(&line);
        }
    }
}
