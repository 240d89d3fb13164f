//! The per-layer ladder: a fixed sequence of probes, each timing one
//! crate's public functions at the shapes the workloads actually use.
//! Every traced run climbs the same ladder whatever its workload, so two
//! traced runs of any commits can be compared rung by rung. Nothing
//! inside the crates is instrumented: a probe either times a public call
//! or reads what the public API already returns.

use crate::inputs::{events, mix, train_serve_pipeline, CTD_SMALL, EX3_FULL, SERVE_PARTICLES};
use crate::report::Metrics;
use crate::stats::{median, percentile, sorted};
use crate::sys::{alloc_counters, nproc};
use crate::trace::Tracer;
use crate::workloads::sample::{
    batch_plan, hash_subgraphs, open_sharded, BATCH_SIZE, SHADOW, SHARD_NODES,
};
use crate::workloads::serve::{Loop, ServeWorkload};
use crate::workloads::timed;
use crate::workloads::train::{TrainParams, TrainWorkload, DDP2, DENSE, SAMPLER};
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use trkx_core::{
    evaluate, infer_logits_with, ConstructionMethod, Engine, PreparedGraph, TrainedPipeline,
};
use trkx_ddp::{run_workers, AllReduceStrategy, AllReducer, CommCostModel};
use trkx_detector::{edge_features, spill_adjacency, vertex_features, EventGraph};
use trkx_graph::connected_components;
use trkx_ignn::InteractionGnn;
use trkx_nn::{bce_with_logits, Adam, Bindings, BucketLayout};
use trkx_sampling::{frontier_matrix, BulkShadowSampler, Sampler, SamplerGraph, ShadowSampler};
use trkx_serve::ModelRegistry;
use trkx_sparse::{adjacency_binary, adjacency_with_edge_ids, RowStore, RowStoreExt, ShardedCsr};
use trkx_tensor::{EdgePlans, Matrix, Tape};

/// How hard to climb: repetitions per probe and seconds per serving loop.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Divides every repetition count (1 = full, 5 = `--quick`).
    pub divide: usize,
    pub open_loop_s: f64,
    pub closed_loop_s: f64,
}

impl Effort {
    pub const FULL: Effort = Effort {
        divide: 1,
        open_loop_s: 1.2,
        closed_loop_s: 0.8,
    };
    pub const QUICK: Effort = Effort {
        divide: 5,
        open_loop_s: 0.3,
        closed_loop_s: 0.2,
    };

    fn reps(&self, full: usize) -> usize {
        (full / self.divide).max(2)
    }
}

/// Median time of `reps` runs of `work` in milliseconds, after one
/// discarded run.
fn median_ms<T>(reps: usize, mut work: impl FnMut() -> T) -> f64 {
    black_box(work());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, ms) = timed(&mut work);
            black_box(out);
            ms
        })
        .collect();
    median(&samples)
}

/// One sampled training batch, materialised the way the trainer does.
struct Batch {
    x: Matrix,
    y: Matrix,
    labels: Vec<f32>,
    plans: Arc<EdgePlans>,
}

/// The batches of the first `sample_bulk` chunk of a training workload's
/// first epoch.
fn first_chunk(w: &TrainWorkload) -> Vec<Batch> {
    let g = &w.train[0];
    let mut rng = StdRng::seed_from_u64(w.cfg.seed);
    let roots = trkx_sampling::vertex_batches(g.num_nodes, w.cfg.batch_size, &mut rng);
    let chunk: Vec<Vec<u32>> = roots.into_iter().take(SAMPLER.chunk_size()).collect();
    SAMPLER
        .build(w.cfg.shadow)
        .sample_bulk(&g.sampler, &chunk, w.cfg.seed)
        .into_iter()
        .map(|sg| {
            let (x, y, labels) = g.subgraph_matrices(&sg);
            let plans = Arc::new(EdgePlans::new(
                Arc::new(sg.sub_src),
                Arc::new(sg.sub_dst),
                x.rows(),
            ));
            Batch {
                x,
                y,
                labels,
                plans,
            }
        })
        .collect()
}

fn fresh_model(w: &TrainWorkload) -> InteractionGnn {
    let mut rng = StdRng::seed_from_u64(w.cfg.seed);
    let (nf, ef) = (w.train[0].x.cols(), w.train[0].y.cols());
    InteractionGnn::new(w.cfg.ignn_config(nf, ef), &mut rng)
}

/// One forward + backward through the engine, as the trainer's step does.
fn forward_backward(engine: &mut Engine, model: &InteractionGnn, b: &Batch) -> f32 {
    engine.forward_backward(|tape, bind| {
        let logits = model.forward_planned(tape, bind, &b.x, &b.y, &b.plans);
        Some(bce_with_logits(tape, logits, &b.labels, 1.0))
    })
}

/// Median forward+backward step time on the dense workload's first
/// batch: the probe `tensor.pool_scaling_x` runs in child processes of
/// different pool sizes (`RAYON_NUM_THREADS` is read once per process).
pub fn probe_step_ms(seed: u64) -> f64 {
    let w = TrainWorkload::new(DENSE, seed);
    let batches = first_chunk(&w);
    let model = fresh_model(&w);
    let mut engine = Engine::new(Adam::new(w.cfg.learning_rate));
    median_ms(3, || forward_backward(&mut engine, &model, &batches[0]))
}

/// Run `probe-step` in a child with the given pool size and read the
/// number it prints.
fn child_step_ms(exe: &Path, seed: u64, threads: usize) -> Option<f64> {
    let out = std::process::Command::new(exe)
        .args(["probe-step", "--seed", &seed.to_string()])
        .env("RAYON_NUM_THREADS", threads.to_string())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().parse().ok())?
}

/// Climb the whole ladder. `exe` is this binary (for the pool-size
/// children), `scratch` a directory for spilled shards and the bundle.
pub fn climb(seed: u64, scratch: &Path, exe: &Path, effort: Effort) -> Metrics {
    let started = Instant::now();
    let mut m = Metrics::default();
    tensor_and_train(&mut m, seed, exe, effort);
    ddp(&mut m, seed, effort);
    sampling_and_sparse(&mut m, seed, scratch, effort);
    pipeline_and_serve(&mut m, seed, scratch, effort);
    m.set("bench.ladder_s", started.elapsed().as_secs_f64());
    m
}

/// tensor, ignn, nn and the trainer's data path, at `train_dense`'s
/// shapes (large) and `train_ddp2`'s (small).
fn tensor_and_train(m: &mut Metrics, seed: u64, exe: &Path, effort: Effort) {
    let draw_ms = median_ms(effort.reps(5), || CTD_SMALL.graphs(1, seed));
    m.set("detector.generate_graph_ms", draw_ms);
    let event_ms = median_ms(effort.reps(20), || events(1, SERVE_PARTICLES, seed));
    m.set("detector.simulate_event_ms", event_ms);

    let mut dense = TrainWorkload::new(DENSE, seed);
    let batches = first_chunk(&dense);
    let b = &batches[0];
    let (edges, nodes, h) = (b.y.rows(), b.x.rows(), DENSE.hidden);

    // The edge MLP's first layer is the largest GEMM of a step: every
    // edge's [Y' X'[src] X'[dst]] row (3 x 2h wide) times a 6h x h weight.
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::randn(edges, 6 * h, 1.0, &mut rng);
    let wgt = Matrix::randn(6 * h, h, 1.0, &mut rng);
    let gemm_ms = median_ms(effort.reps(10), || a.matmul(&wgt));
    let flops = 2.0 * edges as f64 * (6 * h) as f64 * h as f64;
    m.set("tensor.gemm_gflops", flops / (gemm_ms * 1e-3) / 1e9);

    // Message assembly and aggregation at the same shape.
    let ycat = Matrix::randn(edges, 2 * h, 1.0, &mut rng);
    let xcat = Matrix::randn(nodes, 2 * h, 1.0, &mut rng);
    let mut tape = Tape::new();
    let reps = effort.reps(10);
    let mut gather = Vec::with_capacity(reps);
    for _ in 0..=reps {
        tape.reset();
        let (yv, xv) = (tape.constant_copied(&ycat), tape.constant_copied(&xcat));
        let (out, ms) = timed(|| tape.gather_concat(yv, xv, b.plans.clone()));
        black_box(out);
        gather.push(ms);
    }
    m.set("tensor.gather_concat_ms", median(&gather[1..]));
    let msg = Matrix::randn(edges, h, 1.0, &mut rng);
    let mut agg = Matrix::zeros(nodes, h);
    let scatter_ms = median_ms(effort.reps(10), || {
        msg.scatter_rows_planned_acc(&b.plans.dst_plan, &mut agg)
    });
    m.set("tensor.scatter_planned_ms", scatter_ms);

    // The step split: forward alone, forward + backward, optimizer.
    let mut model = fresh_model(&dense);
    let mut engine = Engine::new(Adam::new(dense.cfg.learning_rate));
    let fwd_ms = median_ms(effort.reps(3), || {
        engine.forward_only(|tape, bind| {
            let logits = model.forward_planned(tape, bind, &b.x, &b.y, &b.plans);
            Some(bce_with_logits(tape, logits, &b.labels, 1.0))
        })
    });
    let fb_ms = median_ms(effort.reps(3), || forward_backward(&mut engine, &model, b));
    m.set("ignn.forward_ms", fwd_ms);
    m.set("tensor.backward_ms", (fb_ms - fwd_ms).max(0.0));
    let mut update = Vec::new();
    for _ in 0..effort.reps(3) {
        forward_backward(&mut engine, &model, b);
        let ((), ms) = timed(|| engine.update(&mut model.params_mut()));
        update.push(ms);
    }
    m.set("nn.optimizer_ms", median(&update));

    // Allocation per step when every step brings a new shape, as sampled
    // batches do: the pool was warmed on batch 0 and by the loops above;
    // batches 1.. are each seen for the first time. Repeats for a
    // workload and seed (thread-local scratch left behind by the traced
    // workload shifts it by a few allocations between workloads).
    let (allocs0, bytes0) = alloc_counters();
    let fresh = &batches[1..];
    for batch in fresh {
        forward_backward(&mut engine, &model, batch);
        engine.update(&mut model.params_mut());
    }
    let (allocs1, bytes1) = alloc_counters();
    let steps = fresh.len().max(1) as f64;
    m.set("tensor.step_allocs", (allocs1 - allocs0) as f64 / steps);
    m.set(
        "tensor.step_alloc_mb",
        (bytes1 - bytes0) as f64 / steps / 1e6,
    );

    let g = &dense.train[0];
    let sg = SAMPLER
        .build(dense.cfg.shadow)
        .sample_bulk(&g.sampler, &[(0..DENSE.batch_size as u32).collect()], seed)
        .remove(0);
    let gather_ms = median_ms(effort.reps(10), || g.subgraph_matrices(&sg));
    m.set("core.subgraph_matrices_ms", gather_ms);
    let val_ms = median_ms(effort.reps(5), || evaluate(&model, &dense.val, 0.5));
    m.set("core.validate_ms", val_ms);
    m.set("core.train_dense_call_ms", dense.call().0);

    // Small shapes: what a `train_ddp2` step multiplies and plans.
    let small = TrainWorkload::new(DDP2, seed);
    let sb = &first_chunk(&small)[0];
    let (se, sh) = (sb.y.rows(), DDP2.hidden);
    let a = Matrix::randn(se, 6 * sh, 1.0, &mut rng);
    let wgt = Matrix::randn(6 * sh, sh, 1.0, &mut rng);
    let small_ms = median_ms(effort.reps(200), || a.matmul(&wgt));
    m.set("tensor.gemm_small_us", small_ms * 1e3);
    let (src, dst) = (sb.plans.src.clone(), sb.plans.dst.clone());
    let plan_ms = median_ms(effort.reps(200), || {
        EdgePlans::new(src.clone(), dst.clone(), sb.x.rows())
    });
    m.set("tensor.plan_build_us", plan_ms * 1e3);

    // One training step at pool 1 over the same step with a thread per
    // core. With fewer than two cores there is no second arm to run.
    let scaling = (nproc() >= 2)
        .then(|| {
            let one = child_step_ms(exe, seed, 1)?;
            let all = child_step_ms(exe, seed, nproc())?;
            Some(one / all)
        })
        .flatten();
    m.set("tensor.pool_scaling_x", scaling.unwrap_or(0.0));
}

/// ddp, and the epoch split of the many-small-steps workload.
fn ddp(m: &mut Metrics, seed: u64, effort: Effort) {
    let mut two = TrainWorkload::new(DDP2, seed);
    let mut one = TrainWorkload::new(TrainParams { workers: 1, ..DDP2 }, seed);
    let (mut t2, mut t1) = (Vec::new(), Vec::new());
    // Alternate the arms; the first call of each warms it up.
    for rep in 0..3 {
        let (a, b) = (two.call().0, one.call().0);
        if rep > 0 {
            t2.push(a);
            t1.push(b);
        }
    }
    m.set("core.train_ddp2_call_ms", median(&t2));
    // Speed-up of two ranks over the single-worker baseline on the same
    // data; needs a core per rank to mean anything.
    let scaling = if nproc() >= 2 {
        median(&t1) / median(&t2)
    } else {
        0.0
    };
    m.set("ddp.scaling_x", scaling);
    m.set("core.final_train_loss", two.final_train_loss());

    let steps: usize = two.last.iter().map(|e| e.steps).sum();
    let comm: f64 = two.last.iter().map(|e| e.timing.comm_virtual_s).sum();
    let sample: f64 = two.last.iter().map(|e| e.timing.sampling_s).sum();
    let train: f64 = two.last.iter().map(|e| e.timing.train_s).sum();
    m.set(
        "ddp.comm_virtual_ms_per_step",
        comm * 1e3 / steps.max(1) as f64,
    );
    m.set(
        "sampling.share_of_epoch",
        sample / (sample + train).max(1e-12),
    );

    // Collective calls per step, counted by a reducer of the benchmark's
    // own in the step-by-step loop (the trainer keeps its reducer private).
    let (losses, traced_steps, calls) = two.call_traced(&mut Tracer::new());
    m.set(
        "ddp.allreduce_calls_per_step",
        calls as f64 / traced_steps.max(1) as f64,
    );
    // Does the step-by-step loop still do the trainer's arithmetic?
    let same = losses.len() == two.last.len()
        && losses
            .iter()
            .zip(&two.last)
            .all(|(l, e)| l.to_bits() == e.train_loss.to_bits());
    m.set("bench.traced_loss_match", f64::from(u8::from(same)));

    // The modelled cost of per-tensor over coalesced all-reduce for this
    // model's tensors, and the real wall time of one coalesced sync.
    let mut model = fresh_model(&two);
    let bytes: Vec<usize> = model.params().iter().map(|p| p.numel() * 4).collect();
    let cost = CommCostModel::nvlink3();
    m.set(
        "ddp.pertensor_over_coalesced_x",
        cost.per_tensor_time(&bytes, 2) / cost.coalesced_time(&bytes, 2),
    );
    let sizes: Vec<usize> = model.params().iter().map(|p| p.numel()).collect();
    let mut layout = BucketLayout::from_sizes(&sizes, usize::MAX);
    let pack_ms = median_ms(effort.reps(200), || {
        let mut params = model.params_mut();
        for bucket in 0..layout.num_buckets() {
            layout.pack(bucket, &params);
            layout.unpack(bucket, &mut params);
        }
    });
    m.set("nn.bucket_pack_us", pack_ms * 1e3);
    let reducer = AllReducer::new(2, cost);
    let rounds = effort.reps(200);
    let per_sync = run_workers(2, |rank| {
        let mut replica = model.clone();
        let t = Instant::now();
        for _ in 0..rounds {
            reducer.sync_gradients(
                rank,
                &mut replica.params_mut(),
                AllReduceStrategy::Coalesced,
            );
        }
        t.elapsed().as_secs_f64() / rounds as f64
    });
    m.set("ddp.sync_wall_us", per_sync[0] * 1e6);
}

/// sampling and sparse, on the sampling workloads' graph and batch plan.
fn sampling_and_sparse(m: &mut Metrics, seed: u64, scratch: &Path, effort: Effort) {
    let g = &EX3_FULL.graphs(1, seed)[0];
    let plan = batch_plan(g.num_nodes, seed);
    let graph = SamplerGraph::new(g.num_nodes, &g.src, &g.dst);
    let bulk = BulkShadowSampler::new(SHADOW);
    let chunk = &plan[..SAMPLER.chunk_size()];
    let sample_seed = mix(seed, 0x5A3F);

    let chunk_ms = median_ms(effort.reps(10), || {
        bulk.sample_bulk(&graph, chunk, sample_seed)
    });
    let baseline = ShadowSampler::new(SHADOW);
    let batch_ms = median_ms(effort.reps(8), || {
        baseline.sample(&graph, &chunk[0], &mut StdRng::seed_from_u64(sample_seed))
    });
    m.set("sampling.bulk_chunk_ms", chunk_ms);
    m.set("sampling.baseline_batch_ms", batch_ms);
    // Fig. 3's ratio: k sequential per-batch calls over one bulk call.
    m.set(
        "sampling.bulk_speedup_x",
        batch_ms * chunk.len() as f64 / chunk_ms,
    );
    let (epoch, incore_ms) = timed(|| bulk.sample_batches(&graph, &plan, sample_seed));
    m.set("sampling.epoch_incore_ms", incore_ms);
    m.set(
        "sampling.subgraph_nodes",
        epoch.iter().map(|s| s.num_nodes()).sum::<usize>() as f64,
    );
    m.set(
        "sampling.subgraph_edges",
        epoch.iter().map(|s| s.num_edges()).sum::<usize>() as f64,
    );
    let reference = hash_subgraphs(&epoch);

    // Row access: in-core slice, resident shard, evicted shard.
    let csr = adjacency_with_edge_ids(g.num_nodes, &g.src, &g.dst);
    let n = g.num_nodes;
    let walk = |store: &dyn RowStore<u32>, accesses: usize, stride: usize| {
        let t = Instant::now();
        let mut acc = 0usize;
        for i in 0..accesses {
            acc += store.row_scope((i * stride) % n, |cols, _| cols.len());
        }
        black_box(acc);
        t.elapsed().as_secs_f64() / accesses as f64
    };
    // Stride 7919 (prime) scatters accesses over the whole matrix.
    let accesses = 200_000 / effort.divide;
    walk(&csr, accesses, 7919);
    m.set("sparse.row_incore_ns", walk(&csr, accesses, 7919) * 1e9);

    let dir = scratch.join(format!("ladder-shards-{}", std::process::id()));
    let spill_ms = median_ms(effort.reps(3), || {
        spill_adjacency(g.num_nodes, &g.src, &g.dst, &dir, "probe", SHARD_NODES)
            .expect("spill into the benchmark's scratch directory")
    });
    m.set("sparse.spill_s", spill_ms / 1e3);
    let num_shards = g.num_nodes.div_ceil(SHARD_NODES);
    let path = dir.join("probe.dir.shard");
    let resident = ShardedCsr::<u32>::open(&path, num_shards).expect("open spilled store");
    walk(&resident, accesses, 7919);
    m.set("sparse.row_hit_ns", walk(&resident, accesses, 7919) * 1e9);
    // A one-shard cache and a stride of one shard: every access lands on
    // a shard that was just evicted.
    let thrash = ShardedCsr::<u32>::open(&path, 1).expect("open spilled store");
    let faults = 4000 / effort.divide;
    m.set(
        "sparse.shard_fault_us",
        walk(&thrash, faults, SHARD_NODES) * 1e6,
    );

    // One out-of-core epoch from a cold cache: the store's own counters.
    let sharded = open_sharded(g, &dir);
    let (oo_epoch, oocore_ms) = timed(|| bulk.sample_batches(&sharded, &plan, sample_seed));
    m.set("sampling.epoch_oocore_ms", oocore_ms);
    assert_eq!(
        hash_subgraphs(&oo_epoch),
        reference,
        "sharded epoch differs from in-core"
    );
    let c = sharded.cache_counters().unwrap_or_default();
    m.set("sparse.shard_hits", c.hits as f64);
    m.set("sparse.shard_misses", c.misses as f64);
    m.set("sparse.shard_evictions", c.evictions as f64);
    m.set("sparse.shard_hit_rate", c.hit_rate());
    drop((sharded, resident, thrash));
    let _ = std::fs::remove_dir_all(&dir);

    // The matrix form of one frontier step: Q (one root per row) times A.
    let a = adjacency_binary(g.num_nodes, &g.src, &g.dst);
    let q = frontier_matrix(&plan[0][..BATCH_SIZE.min(plan[0].len())], g.num_nodes);
    m.set(
        "sparse.spgemm_ms",
        median_ms(effort.reps(20), || q.spgemm(&a)),
    );
}

/// The pruned GNN input graph `reconstruct` builds for `event`, rebuilt
/// through the stages' public calls.
fn pruned_graph(p: &TrainedPipeline, event: &trkx_detector::Event) -> (EventGraph, PreparedGraph) {
    let (nf, ef) = (p.config.vertex_features, p.config.edge_features);
    let (mut tape, mut bind) = (Tape::new(), Bindings::new());
    let x = Matrix::from_vec(event.num_hits(), nf, vertex_features(event, nf));
    let emb = p.embedding.embed_with(&mut tape, &mut bind, &x);
    let method = ConstructionMethod::FixedRadius { radius: p.radius };
    let built = p.new_constructor().construct(event, &emb, method);
    let graph_of = |src: Vec<u32>, dst: Vec<u32>, labels: Vec<f32>| EventGraph {
        num_nodes: event.num_hits(),
        x: vertex_features(event, nf),
        num_vertex_features: nf,
        y: edge_features(event, &src, &dst, ef),
        num_edge_features: ef,
        src,
        dst,
        labels,
        event: event.clone(),
    };
    let full = graph_of(built.src, built.dst, built.labels);
    let kept = p.filter.kept_edges_with(
        &mut tape,
        &mut bind,
        &PreparedGraph::from_event_graph(&full),
    );
    let pick = |v: &[u32]| kept.iter().map(|&i| v[i]).collect::<Vec<u32>>();
    let labels = kept.iter().map(|&i| full.labels[i]).collect();
    let pruned = graph_of(pick(&full.src), pick(&full.dst), labels);
    let prepared = PreparedGraph::from_event_graph(&pruned);
    (pruned, prepared)
}

/// core's five stages, graph, and the serving tier, on a bundle trained
/// the way the serving workloads train theirs.
fn pipeline_and_serve(m: &mut Metrics, seed: u64, scratch: &Path, effort: Effort) {
    let (pipeline, train_ms) = timed(train_serve_pipeline);
    m.set("bench.ladder_bundle_train_s", train_ms / 1e3);
    let path = scratch.join(format!("ladder-bundle-{}.json", std::process::id()));
    let save_ms = median_ms(effort.reps(3), || {
        pipeline.save_json(&path).expect("save bundle")
    });
    let load_ms = median_ms(effort.reps(3), || {
        ModelRegistry::load(&path).expect("load bundle")
    });
    m.set("core.bundle_save_ms", save_ms);
    m.set("core.bundle_load_ms", load_ms);
    let registry = Arc::new(ModelRegistry::load(&path).expect("load bundle"));
    let server = ServeWorkload::from_registry(Loop::Open, seed, registry.clone(), path);
    m.set("core.track_efficiency", server.track_efficiency);
    let model = registry.active();
    let p = &model.pipeline;

    // Stage timings as the pipeline reports them, one event at a time
    // and per event in a micro-batch of eight.
    let (mut tape, mut bind, mut ctor) = (Tape::new(), Bindings::new(), p.new_constructor());
    for (suffix, batch) in [("b1", 1usize), ("b8", 8)] {
        let mut stage: [Vec<f64>; 6] = Default::default();
        let calls = effort.reps(if batch == 1 { 16 } else { 6 });
        for call in 0..=calls {
            let evs: Vec<&trkx_detector::Event> = (0..batch)
                .map(|i| &server.events[(call * batch + i) % server.events.len()])
                .collect();
            let ((results, t), ms) =
                timed(|| p.reconstruct_batch_pooled(&mut tape, &mut bind, &mut ctor, &evs));
            black_box(results);
            if call == 0 {
                continue;
            }
            let per_event = 1e3 / batch as f64;
            for (slot, s) in [t.embed_s, t.construct_s, t.filter_s, t.gnn_s, t.tracks_s]
                .into_iter()
                .enumerate()
            {
                stage[slot].push(s * per_event);
            }
            stage[5].push(ms / batch as f64);
        }
        for (slot, name) in [
            "embed",
            "construct",
            "filter",
            "gnn",
            "tracks",
            "reconstruct",
        ]
        .into_iter()
        .enumerate()
        {
            m.set(&format!("core.{name}_ms_{suffix}"), median(&stage[slot]));
        }
    }

    // graph and ignn on one served event's own matrices.
    let event = &server.events[0];
    let (nf, _) = (p.config.vertex_features, p.config.edge_features);
    let x = Matrix::from_vec(event.num_hits(), nf, vertex_features(event, nf));
    let emb = p.embedding.embed_with(&mut tape, &mut bind, &x);
    let method = ConstructionMethod::FixedRadius { radius: p.radius };
    let mut edges = 0usize;
    let construct_ms = median_ms(effort.reps(20), || {
        edges = ctor.construct(event, &emb, method).num_edges();
    });
    m.set("graph.construct_ms", construct_ms);
    m.set(
        "graph.construct_edges_per_s",
        edges as f64 / (construct_ms * 1e-3),
    );
    let (pruned, prepared) = pruned_graph(p, event);
    let infer_ms = median_ms(effort.reps(10), || {
        infer_logits_with(&mut tape, &mut bind, &p.gnn, &prepared)
    });
    m.set("ignn.infer_ms", infer_ms);
    let kept: Vec<(u32, u32)> = pruned
        .src
        .iter()
        .copied()
        .zip(pruned.dst.iter().copied())
        .collect();
    let cc_ms = median_ms(effort.reps(50), || {
        connected_components(pruned.num_nodes, &kept)
    });
    m.set("graph.components_us", cc_ms * 1e3);

    // Two short loops through the real server.
    let open = server.run_open(effort.open_loop_s, 0.3, None);
    let measured: Vec<_> = open.records.iter().filter(|r| r.measured && r.ok).collect();
    let column = |f: &dyn Fn(&crate::workloads::serve::Record) -> f64| {
        sorted(&measured.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let queue = column(&|r| r.timings.map_or(0.0, |t| t.queue_us as f64 / 1e3));
    let service = column(&|r| {
        r.timings
            .map_or(0.0, |t| t.total_us.saturating_sub(t.queue_us) as f64 / 1e3)
    });
    // What neither the queue nor the pipeline explains: generator
    // lateness, admission, and the response's way back.
    let overhead = column(&|r| r.latency_ms() - r.timings.map_or(0.0, |t| t.total_us as f64 / 1e3));
    let latency = column(&|r| r.latency_ms());
    m.set("serve.queue_wait_p50_ms", percentile(&queue, 0.5));
    m.set("serve.queue_wait_p90_ms", percentile(&queue, 0.9));
    m.set("serve.service_p50_ms", percentile(&service, 0.5));
    m.set("serve.overhead_ms", percentile(&overhead, 0.5));
    m.set("serve.latency_p50_ms", percentile(&latency, 0.5));
    m.set("serve.latency_p99_ms", percentile(&latency, 0.99));
    m.set("serve.gen_late_max_ms", open.gen_late_max_ms);

    let closed = server.run_closed(effort.closed_loop_s, 16, None);
    let batches: Vec<f64> = closed
        .records
        .iter()
        .filter(|r| r.measured)
        .filter_map(|r| r.timings.map(|t| t.batch_events as f64))
        .collect();
    m.set(
        "serve.batch_events_mean",
        batches.iter().sum::<f64>() / batches.len().max(1) as f64,
    );
    let done = closed.measured.op_ms.len() as f64;
    m.set(
        "serve.closed_events_per_s",
        done / closed.measured.wall_s.max(1e-9),
    );
    m.set(
        "serve.rss_growth_mb",
        closed.rss_end_mb - closed.rss_after_warmup_mb,
    );
    m.set(
        "serve.failed",
        (open.measured.failed + closed.measured.failed) as f64,
    );
}
