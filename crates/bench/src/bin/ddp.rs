//! DDP communication benchmark: bucket-size sweep × backward-overlap
//! on/off, plus a Hogwild-vs-synchronous convergence/throughput study.
//! Results go to `BENCH_ddp.json`.
//!
//! ```text
//! cargo run -p trkx-bench --bin ddp --release [-- --tiny --out BENCH_ddp.json]
//! ```
//!
//! The sweep runs the single-thread DDP simulator (exact per-rank
//! timings regardless of host core count) over the bucket ladder
//! per-tensor → 256 KB → 1 MB → coalesced, with the bucket all-reduces
//! either fired post-backward (serial) or during backward as each
//! bucket's last gradient finalizes (overlapped). Every arm must land
//! on the same final loss bits — bucketing and overlap change only the
//! comm schedule, never the math — and the record carries the serial
//! comm account, the exposed remainder, and the hidden difference.
//!
//! The Hogwild study trains the same model with the lock-free
//! asynchronous trainer (racy shared-parameter SGD, zero comm, no
//! barriers) against the synchronous coalesced baseline, recording both
//! loss curves and the comm seconds the sync run pays.

use trkx_bench::{arg_flag, arg_value, Table};
use trkx_core::{prepare_graphs, train, GnnTrainConfig, SamplerKind, TrainSpec};
use trkx_ddp::{AllReduceStrategy, DdpConfig};
use trkx_sampling::ShadowConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tiny = arg_flag(&args, "--tiny");
    let out = arg_value(&args, "--out", "BENCH_ddp.json".to_string());
    let scale = arg_value(&args, "--scale", if tiny { 0.01f64 } else { 0.03 });
    let n_graphs = arg_value(&args, "--graphs", if tiny { 2usize } else { 3 });
    let epochs = arg_value(&args, "--epochs", if tiny { 2usize } else { 3 });
    let workers = arg_value(&args, "--workers", if tiny { 2usize } else { 4 });
    let hidden = arg_value(&args, "--hidden", if tiny { 8usize } else { 16 });
    let layers = arg_value(&args, "--layers", if tiny { 2usize } else { 3 });

    let dataset = trkx_detector::DatasetConfig::ex3_like(scale);
    let graphs = dataset.generate(n_graphs, 99);
    let prepared = prepare_graphs(&graphs);
    let n_train = (graphs.len() * 4 / 5).max(1);
    let (train_set, val) = prepared.split_at(n_train);
    let sampler = SamplerKind::Bulk { k: 2 * workers };

    let cfg = GnnTrainConfig {
        hidden,
        gnn_layers: layers,
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

    println!("# DDP comm bench: bucket sweep x overlap, P={workers}");
    let ladder: [(&str, AllReduceStrategy); 4] = [
        ("per-tensor", AllReduceStrategy::PerTensor),
        (
            "bucketed-256KB",
            AllReduceStrategy::Bucketed {
                bucket_bytes: 256 * 1024,
            },
        ),
        (
            "bucketed-1MB",
            AllReduceStrategy::Bucketed {
                bucket_bytes: 1024 * 1024,
            },
        ),
        ("coalesced", AllReduceStrategy::Coalesced),
    ];

    let mut table = Table::new(&[
        "strategy",
        "overlap",
        "comm(s)",
        "exposed(s)",
        "hidden(s)",
        "train(s)",
        "loss",
    ]);
    let mut sweep = Vec::new();
    let mut loss_bits = Vec::new();
    for (name, strategy) in ladder {
        for overlap in [false, true] {
            let ddp = DdpConfig::new(workers, strategy).with_overlap(overlap);
            let r = train(
                &TrainSpec::simulated_ddp(&cfg, sampler, ddp),
                train_set,
                val,
            );
            let comm_s: f64 = r.epochs.iter().map(|e| e.timing.comm_virtual_s).sum();
            let exposed_s: f64 = r.epochs.iter().map(|e| e.timing.comm_exposed_s).sum();
            let train_s: f64 = r.epochs.iter().map(|e| e.timing.train_s).sum();
            let final_loss = r.epochs.last().map_or(f32::NAN, |e| e.train_loss);
            loss_bits.push(final_loss.to_bits());
            table.row(vec![
                name.into(),
                if overlap { "on" } else { "off" }.into(),
                format!("{comm_s:.4}"),
                if overlap {
                    format!("{exposed_s:.4}")
                } else {
                    "-".into()
                },
                if overlap {
                    format!("{:.4}", comm_s - exposed_s)
                } else {
                    "-".into()
                },
                format!("{train_s:.3}"),
                format!("{final_loss:.6}"),
            ]);
            sweep.push(serde_json::json!({
                "strategy": name,
                "comm_overlap": overlap,
                "comm_virtual_s": comm_s,
                "comm_exposed_s": exposed_s,
                "comm_hidden_s": if overlap { comm_s - exposed_s } else { 0.0 },
                "train_s": train_s,
                "final_loss": f64::from(final_loss),
                "loss_bits": final_loss.to_bits(),
            }));
        }
    }
    table.print();
    let parity = loss_bits.windows(2).all(|w| w[0] == w[1]);
    println!(
        "final-loss bit parity across {} arms: {}",
        loss_bits.len(),
        if parity { "IDENTICAL" } else { "DIVERGED" }
    );

    println!("\n# Hogwild vs synchronous DDP, P={workers}");
    let coalesced = DdpConfig::new(workers, AllReduceStrategy::Coalesced);
    let sync = train(
        &TrainSpec::simulated_ddp(&cfg, sampler, coalesced),
        train_set,
        val,
    );
    let hog = train(&TrainSpec::hogwild(&cfg, sampler, workers), train_set, val);
    let mut curve = Table::new(&["epoch", "sync loss", "hogwild loss", "sync comm(s)"]);
    for (s, h) in sync.epochs.iter().zip(&hog.epochs) {
        curve.row(vec![
            s.epoch.to_string(),
            format!("{:.6}", s.train_loss),
            format!("{:.6}", h.train_loss),
            format!("{:.4}", s.timing.comm_virtual_s),
        ]);
    }
    curve.print();
    let sync_comm: f64 = sync.epochs.iter().map(|e| e.timing.comm_virtual_s).sum();
    let hog_comm: f64 = hog.epochs.iter().map(|e| e.timing.comm_virtual_s).sum();
    println!("sync pays {sync_comm:.4}s modeled comm; hogwild pays {hog_comm:.4}s (lock-free, no barriers)");

    let record = serde_json::json!({
        "bench": "ddp",
        "workers": workers,
        "epochs": epochs,
        "graphs": n_graphs,
        "hidden": hidden,
        "layers": layers,
        "host_cores": std::thread::available_parallelism().map_or(1, usize::from),
        "loss_bit_parity": parity,
        "sweep": serde_json::Value::Seq(sweep),
        "hogwild": {
            "sync_losses": sync.epochs.iter().map(|e| f64::from(e.train_loss)).collect::<Vec<_>>(),
            "hogwild_losses": hog.epochs.iter().map(|e| f64::from(e.train_loss)).collect::<Vec<_>>(),
            "sync_comm_s": sync_comm,
            "hogwild_comm_s": hog_comm,
        },
    });
    std::fs::write(&out, format!("{record}")).expect("write bench record");
    println!("wrote {out}");
}
