//! `trkx` command-line interface: simulate datasets, train the GNN
//! stage, evaluate checkpoints, and run end-to-end track reconstruction.
//!
//! ```text
//! trkx simulate  [--dataset ex3|ctd] [--scale 0.05] [--events 10] [--seed 42]
//! trkx train     [--dataset ex3|ctd] [--scale 0.05] [--events 10] [--epochs 6]
//!                [--sampler bulk|baseline] [--workers 1] [--prefetch 0]
//!                [--bucket-bytes N] [--comm-overlap] [--hogwild]
//!                [--graph-store incore|sharded] [--shard-nodes N]
//!                [--shard-cache M] [--shard-dir DIR]
//!                [--out model.json] [--patience N] [--telemetry epochs.jsonl]
//! trkx evaluate  --model model.json [--dataset ex3|ctd] [--scale 0.05] [--events 10]
//! trkx reconstruct [--particles 40] [--events 8] [--seed 7]
//!                [--hidden 32] [--layers 4] [--embed-epochs 15]
//!                [--construct-backend grid|kd|brute]
//!                [--out pipeline.json]
//! trkx serve     --model pipeline.json [--tcp 127.0.0.1:9090]
//!                [--workers 2] [--max-queue 128] [--max-event-hits 50000]
//!                [--max-batch-events 8] [--max-batch-hits 100000]
//! trkx sample    [--sampler shadow|bulk-shadow|nodewise|layerwise|
//!                 saint-walk|saint-edge|all] [--dataset ex3|ctd] [--scale 0.1]
//!                [--batch 256] [--repeat 3] [--seed 1]
//!                [--graph-store incore|sharded] [--shard-nodes N]
//!                [--shard-cache M]
//! ```
//!
//! `train --hogwild` has no lockstep collectives, so it rejects
//! `--patience`, `--bucket-bytes` and `--comm-overlap`; every other
//! `train` flag applies to it too.
//!
//! `serve` speaks line-delimited JSON: requests in (`{"id":1,"event":{...}}`,
//! `{"cmd":"reload","path":"new.json"}`, `{"cmd":"stats"}`,
//! `{"cmd":"shutdown"}`), one JSON response per line out. By default it
//! reads stdin and writes stdout; `--tcp addr` listens on a socket
//! instead.

use rand::{rngs::StdRng, SeedableRng};
use trkx::ddp::{AllReduceStrategy, DdpConfig};
use trkx::detector::{
    dataset_stats, simulate_event, split_80_10_10, DatasetConfig, DetectorGeometry, GunConfig,
};
use trkx::pipeline::{
    best_f1_threshold, evaluate, infer_logits, prepare_graphs, prepare_graphs_sharded, roc_auc,
    train, train_pipeline, BatchingMode, Checkpoint, EarlyStoppingHook, EmbeddingConfig,
    GnnTrainConfig, Hook, Monitor, PipelineConfig, PreparedGraph, SamplerKind, TelemetryHook,
    TrainSpec,
};
use trkx::sampling::{
    vertex_batches, BulkShadowSampler, LayerWiseConfig, LayerWiseSampler, NodeWiseConfig,
    NodeWiseSampler, SaintEdgeSampler, SaintWalkSampler, Sampler, SamplerGraph, ShadowConfig,
    ShadowSampler,
};
use trkx::serve::{serve_stdio, serve_tcp, ModelRegistry, ServeConfig, ServerCore};

fn arg<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn arg_str(args: &[String], key: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

fn has_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

fn dataset_config(args: &[String]) -> DatasetConfig {
    let name = arg_str(args, "--dataset", "ex3");
    let default_scale = if name == "ctd" { 0.003 } else { 0.05 };
    let scale = arg(args, "--scale", default_scale);
    match name.as_str() {
        "ctd" => DatasetConfig::ctd_like(scale),
        "ex3" => DatasetConfig::ex3_like(scale),
        other => {
            eprintln!("unknown dataset {other:?} (expected ex3 or ctd)");
            std::process::exit(2);
        }
    }
}

fn gnn_config(args: &[String], dataset: &DatasetConfig) -> GnnTrainConfig {
    GnnTrainConfig {
        hidden: arg(args, "--hidden", 32),
        gnn_layers: arg(args, "--layers", 4),
        mlp_depth: dataset.mlp_layers,
        epochs: arg(args, "--epochs", 6),
        batch_size: arg(args, "--batch", 128),
        learning_rate: arg(args, "--lr", 2e-3),
        shadow: ShadowConfig {
            depth: arg(args, "--shadow-depth", 2),
            fanout: arg(args, "--shadow-fanout", 4),
        },
        seed: arg(args, "--seed", 42),
        ..Default::default()
    }
}

/// Build training graphs either fully in-core or through the out-of-core
/// sharded store (`--graph-store sharded`): adjacency spilled to
/// `--shard-dir` (a per-process temp dir by default) at `--shard-nodes`
/// rows per shard, read back through an LRU cache of `--shard-cache`
/// shards per store. Sampled batches — and loss curves — are
/// bit-identical across the two stores.
fn prepare_for_args(args: &[String], graphs: &[trkx::detector::EventGraph]) -> Vec<PreparedGraph> {
    match arg_str(args, "--graph-store", "incore").as_str() {
        "incore" => prepare_graphs(graphs),
        "sharded" => {
            let shard_nodes = arg(args, "--shard-nodes", 2048usize).max(1);
            let cache = arg(args, "--shard-cache", 8usize).max(1);
            let dir_s = arg_str(args, "--shard-dir", "");
            let dir = if dir_s.is_empty() {
                std::env::temp_dir().join(format!("trkx-shards-{}", std::process::id()))
            } else {
                dir_s.into()
            };
            match prepare_graphs_sharded(graphs, &dir, shard_nodes, cache) {
                Ok(p) => {
                    println!(
                        "sharded graph store under {} ({shard_nodes} nodes/shard, \
                         cache {cache} shards/store)",
                        dir.display()
                    );
                    p
                }
                Err(e) => {
                    eprintln!("failed to build sharded graph store: {e}");
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!("unknown --graph-store {other:?} (expected incore or sharded)");
            std::process::exit(2);
        }
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

fn cmd_simulate(args: &[String]) {
    let cfg = dataset_config(args);
    let events = arg(args, "--events", 10usize);
    let seed = arg(args, "--seed", 42u64);
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
}

fn cmd_train(args: &[String]) {
    let cfg = dataset_config(args);
    let events = arg(args, "--events", 10usize);
    let (tr, va, _) = split_80_10_10(events);
    if tr.is_empty() {
        eprintln!("--events {events} leaves no training events after the 80/10/10 split");
        std::process::exit(2);
    }
    // Hogwild has no lockstep collectives: there is nothing to bucket or
    // overlap, and no epoch at which every worker could agree to stop.
    let hogwild = has_flag(args, "--hogwild");
    if hogwild {
        for flag in ["--patience", "--bucket-bytes", "--comm-overlap"] {
            if has_flag(args, flag) {
                eprintln!(
                    "{flag} needs synchronous training; it cannot be combined with --hogwild"
                );
                std::process::exit(2);
            }
        }
    }
    let seed = arg(args, "--seed", 42u64);
    let out = arg_str(args, "--out", "model.json");
    let graphs = cfg.generate(events, seed);
    let prepared = prepare_for_args(args, &graphs);
    let gnn_cfg = gnn_config(args, &cfg);
    let sampler = match arg_str(args, "--sampler", "bulk").as_str() {
        "baseline" => SamplerKind::Baseline,
        _ => SamplerKind::Bulk {
            k: arg(args, "--bulk-k", 4),
        },
    };
    let workers = arg(args, "--workers", 1usize);
    // --bucket-bytes N buckets the gradient all-reduce at an N-byte
    // budget (default: one coalesced collective); --comm-overlap fires
    // each bucket mid-backward as its last gradient finalizes.
    let strategy = match arg(args, "--bucket-bytes", 0usize) {
        0 => AllReduceStrategy::Coalesced,
        bucket_bytes => AllReduceStrategy::Bucketed { bucket_bytes },
    };
    let ddp = DdpConfig::new(workers, strategy).with_overlap(has_flag(args, "--comm-overlap"));
    // --prefetch N > 0 samples on a background thread per rank, keeping up
    // to N batches queued; the loss curves are identical to sync mode.
    let batching = match arg(args, "--prefetch", 0usize) {
        0 => BatchingMode::Sync,
        depth => BatchingMode::Prefetch { depth },
    };
    let patience = arg(args, "--patience", 0usize); // 0 = train all epochs
    let telemetry = arg_str(args, "--telemetry", "");
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
            if !telemetry.is_empty() {
                hooks.push(Box::new(TelemetryHook::jsonl(telemetry.clone())));
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
    let spec = if hogwild {
        // Lock-free asynchronous SGD: no collectives, no replica
        // lockstep; noisier convergence, zero communication cost.
        TrainSpec::hogwild(&gnn_cfg, sampler, workers)
    } else {
        TrainSpec::ddp(&gnn_cfg, sampler, ddp)
    };
    let result = train(
        &spec.with_batching(batching).with_hooks(&make_hooks),
        &prepared[tr],
        &prepared[va],
    );
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
    match ckpt.save_json(&out) {
        Ok(()) => println!("saved checkpoint ({} scalars) to {out}", ckpt.numel()),
        Err(e) => {
            eprintln!("failed to save checkpoint: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_evaluate(args: &[String]) {
    let model_path = arg_str(args, "--model", "model.json");
    let cfg = dataset_config(args);
    let events = arg(args, "--events", 10usize);
    let seed = arg(args, "--seed", 42u64);
    let graphs = cfg.generate(events, seed);
    let (_, _, te) = split_80_10_10(graphs.len());
    let prepared = prepare_graphs(&graphs);
    let test = &prepared[te];

    let gnn_cfg = gnn_config(args, &cfg);
    let mut rng = StdRng::seed_from_u64(gnn_cfg.seed);
    let mut model = trkx::ignn::InteractionGnn::new(
        gnn_cfg.ignn_config(cfg.num_vertex_features, cfg.num_edge_features),
        &mut rng,
    );
    let ckpt = match Checkpoint::load_json(&model_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to load {model_path}: {e}");
            std::process::exit(1);
        }
    };
    let mut params = model.params_mut();
    if let Err(e) = ckpt.apply_to(&mut params) {
        eprintln!("checkpoint does not match the configured model: {e}");
        std::process::exit(1);
    }

    let stats = evaluate(&model, test, 0.5);
    println!("test graphs : {}", test.len());
    println!("precision   : {:.4}", stats.precision());
    println!("recall      : {:.4}", stats.recall());
    println!("f1          : {:.4}", stats.f1());
    // Score-based metrics over the pooled test edges.
    let mut logits = Vec::new();
    let mut labels = Vec::new();
    for g in test {
        logits.extend(infer_logits(&model, g));
        labels.extend_from_slice(&g.labels);
    }
    println!("roc auc     : {:.4}", roc_auc(&logits, &labels));
    let best = best_f1_threshold(&logits, &labels, 19);
    println!(
        "best f1     : {:.4} at threshold {:.2} (P {:.3} R {:.3})",
        best.f1, best.threshold, best.precision, best.recall
    );
}

fn cmd_reconstruct(args: &[String]) {
    // Stage-2 spatial index: grid (default), kd, or brute. All three
    // emit bit-identical edge lists; this only picks the fastest.
    let construct_backend = arg_str(args, "--construct-backend", "grid")
        .parse::<trkx::pipeline::ConstructionBackend>()
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    let particles = arg(args, "--particles", 40usize);
    let events = arg(args, "--events", 8usize);
    let seed = arg(args, "--seed", 7u64);
    let geometry = DetectorGeometry::default();
    let gun = GunConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let all: Vec<_> = (0..events + 2)
        .map(|_| simulate_event(&geometry, &gun, particles, 0.1, &mut rng))
        .collect();
    let (train, rest) = all.split_at(events);
    let (val, test) = rest.split_at(1);

    let config = PipelineConfig {
        embedding: EmbeddingConfig {
            epochs: arg(args, "--embed-epochs", 15),
            ..Default::default()
        },
        gnn: GnnTrainConfig {
            hidden: arg(args, "--hidden", 32),
            gnn_layers: arg(args, "--layers", 4),
            epochs: arg(args, "--epochs", 8),
            batch_size: 128,
            shadow: ShadowConfig {
                depth: 2,
                fanout: 4,
            },
            ..Default::default()
        },
        construct_backend,
        ..Default::default()
    };
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
    let out = arg_str(args, "--out", "");
    if !out.is_empty() {
        match pipeline.save_json(&out) {
            Ok(()) => println!("saved pipeline bundle to {out}"),
            Err(e) => {
                eprintln!("failed to save pipeline bundle: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Serve a trained pipeline bundle over line-delimited JSON (stdin by
/// default, a TCP listener with `--tcp addr`).
fn cmd_serve(args: &[String]) {
    let model_path = arg_str(args, "--model", "");
    if model_path.is_empty() {
        eprintln!("serve requires --model <pipeline.json> (from `trkx reconstruct --out`)");
        std::process::exit(2);
    }
    let config = ServeConfig {
        workers: arg(args, "--workers", ServeConfig::default().workers),
        max_queue: arg(args, "--max-queue", ServeConfig::default().max_queue),
        max_event_hits: arg(
            args,
            "--max-event-hits",
            ServeConfig::default().max_event_hits,
        ),
        max_batch_events: arg(
            args,
            "--max-batch-events",
            ServeConfig::default().max_batch_events,
        ),
        max_batch_hits: arg(
            args,
            "--max-batch-hits",
            ServeConfig::default().max_batch_hits,
        ),
    };
    let registry = match ModelRegistry::load(&model_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("failed to load {model_path}: {e}");
            std::process::exit(1);
        }
    };
    // Startup banner on stderr so stdout stays pure response lines.
    eprintln!(
        "serving {model_path} (version {}) with {} workers, batch \u{2264} {} events / {} hits, \
         shedding events > {} hits and queue depth > {}",
        registry.version(),
        config.workers,
        config.max_batch_events,
        config.max_batch_hits,
        config.max_event_hits,
        config.max_queue
    );
    let core = ServerCore::start(config, std::sync::Arc::new(registry));
    let tcp = arg_str(args, "--tcp", "");
    let served = if tcp.is_empty() {
        serve_stdio(core)
    } else {
        serve_tcp(core, tcp.as_str())
    };
    if let Err(e) = served {
        eprintln!("serve failed: {e}");
        std::process::exit(1);
    }
}

/// Build any sampler family behind the unified trait, by CLI name.
fn build_sampler(name: &str, args: &[String]) -> Box<dyn Sampler> {
    let shadow = ShadowConfig {
        depth: arg(args, "--shadow-depth", 3),
        fanout: arg(args, "--shadow-fanout", 6),
    };
    match name {
        "shadow" => Box::new(ShadowSampler::new(shadow)),
        "bulk-shadow" => Box::new(BulkShadowSampler::new(shadow)),
        "nodewise" => Box::new(NodeWiseSampler::new(NodeWiseConfig {
            fanouts: vec![arg(args, "--fanout", 6usize); arg(args, "--hops", 3usize)],
        })),
        "layerwise" => Box::new(LayerWiseSampler::new(LayerWiseConfig {
            layer_sizes: vec![arg(args, "--layer-size", 512usize); arg(args, "--hops", 3usize)],
        })),
        "saint-walk" => Box::new(SaintWalkSampler {
            num_roots: arg(args, "--roots", 64usize),
            walk_length: arg(args, "--walk-length", 4usize),
        }),
        "saint-edge" => Box::new(SaintEdgeSampler {
            num_edges: arg(args, "--edges", 512usize),
        }),
        other => {
            eprintln!(
                "unknown sampler {other:?} (expected shadow, bulk-shadow, nodewise, \
                 layerwise, saint-walk, or saint-edge)"
            );
            std::process::exit(2);
        }
    }
}

/// Time any sampler (by name, via the unified `Sampler` trait) over one
/// generated event's minibatch schedule.
fn cmd_sample(args: &[String]) {
    let cfg = dataset_config(args);
    let seed = arg(args, "--seed", 1u64);
    let batch_size = arg(args, "--batch", 256usize);
    let repeat = arg(args, "--repeat", 3usize).max(1);
    let which = arg_str(args, "--sampler", "all");

    let g = &cfg.generate(1, seed)[0];
    let graph = match arg_str(args, "--graph-store", "incore").as_str() {
        "sharded" => {
            let shard_nodes = arg(args, "--shard-nodes", 1024usize).max(1);
            let cache = arg(args, "--shard-cache", 4usize).max(1);
            let dir = std::env::temp_dir().join(format!("trkx-sample-{}", std::process::id()));
            let spec = trkx::detector::spill_adjacency(
                g.num_nodes,
                &g.src,
                &g.dst,
                &dir,
                "event",
                shard_nodes,
            )
            .unwrap_or_else(|e| {
                eprintln!("failed to spill sharded adjacency: {e}");
                std::process::exit(1);
            });
            let open = |p: &std::path::Path| {
                std::sync::Arc::new(
                    trkx::sparse::ShardedCsr::<u32>::open(p, cache).unwrap_or_else(|e| {
                        eprintln!("failed to open sharded store: {e}");
                        std::process::exit(1);
                    }),
                )
            };
            SamplerGraph::from_stores(g.num_nodes, open(&spec.directed), open(&spec.undirected))
        }
        _ => SamplerGraph::new(g.num_nodes, &g.src, &g.dst),
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

    let names: Vec<&str> = if which == "all" {
        vec![
            "shadow",
            "bulk-shadow",
            "nodewise",
            "layerwise",
            "saint-walk",
            "saint-edge",
        ]
    } else {
        vec![which.as_str()]
    };
    println!(
        "{:<12} {:>10} {:>9} {:>9}  (best of {repeat})",
        "sampler", "ms/epoch", "nodes", "edges"
    );
    for name in names {
        let sampler = build_sampler(name, args);
        let mut best = f64::INFINITY;
        let mut subgraphs = Vec::new();
        for _ in 0..repeat {
            let t = std::time::Instant::now();
            subgraphs = sampler.sample_bulk(&graph, &batches, seed);
            best = best.min(t.elapsed().as_secs_f64());
        }
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
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("evaluate") => cmd_evaluate(&args[1..]),
        Some("reconstruct") => cmd_reconstruct(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("sample") => cmd_sample(&args[1..]),
        _ => {
            eprintln!(
                "usage: trkx <simulate|train|evaluate|reconstruct|serve|sample> [options]\n\
                 see the module docs at the top of src/bin/trkx.rs"
            );
            std::process::exit(2);
        }
    }
}
