//! Regenerates **Figure 3** — epoch time versus simulated GPU count for
//! the PyG-style pipeline (sequential ShaDow + per-tensor all-reduce)
//! and ours (matrix-based bulk ShaDow + coalesced all-reduce), broken
//! into sampling time and training time, on CTD-like and Ex3-like data.
//!
//! ```text
//! cargo run -p trkx-bench --bin fig3_epoch_time --release \
//!   [-- --ctd-scale 0.004 --ex3-scale 0.05 --graphs 4 --epochs 1 \
//!       --overlap --comm-overlap]
//! ```
//!
//! `--overlap` additionally accounts each epoch under the overlapped
//! (prefetching-loader) virtual clock — `max(sampling, train) + comm`
//! instead of their sum. `--comm-overlap` fires each gradient bucket's
//! all-reduce during backward instead of as one post-backward sync and
//! adds the exposed-communication column. That neither overlapped
//! account can exceed its serial one is held by tests, not by this bin:
//! `every_mode_reproduces_its_golden_under_sync_and_prefetch`
//! (`crates/core/tests/train_harness.rs`) and
//! `overlapped_comm_is_bit_identical_to_post_hoc_simulated`
//! (`tests/ddp_equivalence.rs`).
//!
//! As in the paper, the bulk factor `k` grows with the process count
//! (more aggregate memory ⇒ more minibatches sampled per bulk call).
//! Per-rank compute is measured with the single-thread DDP simulator
//! (`TrainSpec::simulated_ddp`) so that worker timings are exact even on
//! machines with fewer cores than simulated GPUs; communication comes
//! from the NVLink-3 α–β ring model. Paper shapes to reproduce: ours is
//! ~1.3–2x faster per epoch than PyG-style across P; training time
//! scales with P; bulk sampling scales superlinearly with P because k
//! grows with P.

use trkx_bench::{append_jsonl, arg_value, Table};
use trkx_core::{prepare_graphs, train, BatchingMode, GnnTrainConfig, SamplerKind, TrainSpec};
use trkx_ddp::{AllReduceStrategy, DdpConfig};
use trkx_detector::{DatasetConfig, EventGraph};
use trkx_sampling::ShadowConfig;

struct Arm {
    name: &'static str,
    sampler_is_bulk: bool,
    strategy: AllReduceStrategy,
}

#[allow(clippy::too_many_arguments)]
fn run_dataset(
    dataset: &DatasetConfig,
    graphs: &[EventGraph],
    process_counts: &[usize],
    epochs: usize,
    hidden: usize,
    layers: usize,
    overlap: bool,
    comm_overlap: bool,
) {
    let prepared = prepare_graphs(graphs);
    let n_train = (graphs.len() * 4 / 5).max(1);
    let (train_set, val) = prepared.split_at(n_train);
    println!(
        "\n## {}: {} train graphs, avg {:.0} vertices / {:.0} edges\n",
        dataset.name,
        train_set.len(),
        train_set.iter().map(|g| g.num_nodes as f64).sum::<f64>() / train_set.len() as f64,
        train_set.iter().map(|g| g.num_edges() as f64).sum::<f64>() / train_set.len() as f64,
    );

    let arms = [
        Arm {
            name: "PyG-style",
            sampler_is_bulk: false,
            strategy: AllReduceStrategy::PerTensor,
        },
        Arm {
            name: "ours",
            sampler_is_bulk: true,
            strategy: AllReduceStrategy::Coalesced,
        },
    ];

    let mut headers = vec![
        "P",
        "impl",
        "k",
        "sample(s)",
        "train(s)",
        "comm(s)",
        "epoch(s)",
    ];
    if overlap {
        headers.push("overlap(s)");
        headers.push("hidden");
    }
    if comm_overlap {
        headers.push("exposed(s)");
    }
    headers.extend(["sample speedup", "comm speedup", "total speedup"]);
    let mut table = Table::new(&headers);
    for &p in process_counts {
        let mut baseline: Option<(f64, f64, f64)> = None;
        for arm in &arms {
            let k = if arm.sampler_is_bulk { 2 * p } else { 1 };
            let cfg = GnnTrainConfig {
                hidden,
                gnn_layers: layers,
                mlp_depth: dataset.mlp_layers,
                epochs,
                batch_size: 256,
                learning_rate: 2e-3,
                shadow: ShadowConfig {
                    depth: 3,
                    fanout: 6,
                },
                seed: 5,
                ..Default::default()
            };
            let sampler = if arm.sampler_is_bulk {
                SamplerKind::Bulk { k }
            } else {
                SamplerKind::Baseline
            };
            let ddp = DdpConfig::new(p, arm.strategy).with_overlap(comm_overlap);
            // The simulator models prefetching in the virtual clock only.
            let batching = if overlap {
                BatchingMode::prefetch()
            } else {
                BatchingMode::Sync
            };
            let spec = TrainSpec::simulated_ddp(&cfg, sampler, ddp).with_batching(batching);
            let r = train(&spec, train_set, val);
            // Average over measured epochs.
            let n = r.epochs.len() as f64;
            let sample_s = r.epochs.iter().map(|e| e.timing.sampling_s).sum::<f64>() / n;
            let train_s = r.epochs.iter().map(|e| e.timing.train_s).sum::<f64>() / n;
            let comm_s = r
                .epochs
                .iter()
                .map(|e| e.timing.comm_virtual_s)
                .sum::<f64>()
                / n;
            // Serial schedule: sampling then compute, back to back.
            let total = sample_s + train_s + comm_s;
            // Overlapped schedule (the virtual clock's accounting when the
            // loader prefetches): sampling hides behind compute.
            let overlapped = r.epochs.iter().map(|e| e.timing.total_s()).sum::<f64>() / n;
            let exposed_s = r
                .epochs
                .iter()
                .map(|e| e.timing.comm_exposed_s)
                .sum::<f64>()
                / n;
            let (su_sample, su_comm, su_total) = match baseline {
                None => {
                    baseline = Some((sample_s, comm_s, total));
                    (
                        "1.00x".to_string(),
                        "1.00x".to_string(),
                        "1.00x".to_string(),
                    )
                }
                Some((bs, bc, bt)) => (
                    format!("{:.2}x", bs / sample_s.max(1e-12)),
                    if p == 1 {
                        "-".to_string()
                    } else {
                        format!("{:.1}x", bc / comm_s.max(1e-12))
                    },
                    format!("{:.2}x", bt / total),
                ),
            };
            let mut row = vec![
                p.to_string(),
                arm.name.into(),
                k.to_string(),
                format!("{sample_s:.3}"),
                format!("{train_s:.3}"),
                format!("{comm_s:.4}"),
                format!("{total:.3}"),
            ];
            if overlap {
                row.push(format!("{overlapped:.3}"));
                row.push(format!(
                    "{:.0}%",
                    100.0 * (total - overlapped) / total.max(1e-12)
                ));
            }
            if comm_overlap {
                row.push(format!("{exposed_s:.4}"));
            }
            row.extend([su_sample, su_comm, su_total]);
            table.row(row);
            append_jsonl(
                "fig3",
                &serde_json::json!({
                    "dataset": dataset.name,
                    "p": p,
                    "impl": arm.name,
                    "k": k,
                    "sample_s": sample_s,
                    "train_s": train_s,
                    "comm_s": comm_s,
                    "total_s": total,
                    "overlapped_s": overlapped,
                    "comm_overlap": comm_overlap,
                    "exposed_s": exposed_s,
                }),
            );
        }
    }
    table.print();
    println!(
        "Note: on CPU the IGNN arithmetic dominates the epoch and is identical\n\
         between implementations, so the end-to-end ratio compresses toward 1x;\n\
         the paper's gains live in the sampling and comm columns (on the A100\n\
         testbed sampling was ~50% of epoch time). See EXPERIMENTS.md."
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |key: &str| args.iter().any(|a| a == key);
    let overlap = flag("--overlap");
    let comm_overlap = flag("--comm-overlap");
    let ctd_scale = arg_value(&args, "--ctd-scale", 0.002f64);
    let ex3_scale = arg_value(&args, "--ex3-scale", 0.03f64);
    let n_graphs = arg_value(&args, "--graphs", 3usize);
    let epochs = arg_value(&args, "--epochs", 1usize);
    let hidden = arg_value(&args, "--hidden", 16usize);
    let layers = arg_value(&args, "--layers", 3usize);

    println!("# Figure 3: epoch time across simulated GPU counts");
    // Paper: CTD measured at P in {1, 2, 4} (PyG timed out at 4); Ex3 at
    // P in {1, 2, 4, 8}.
    let ctd = DatasetConfig::ctd_like(ctd_scale);
    run_dataset(
        &ctd,
        &ctd.generate(n_graphs, 99),
        &[1, 2, 4],
        epochs,
        hidden,
        layers,
        overlap,
        comm_overlap,
    );
    let ex3 = DatasetConfig::ex3_like(ex3_scale);
    run_dataset(
        &ex3,
        &ex3.generate(n_graphs, 99),
        &[1, 2, 4, 8],
        epochs,
        hidden,
        layers,
        overlap,
        comm_overlap,
    );
}
