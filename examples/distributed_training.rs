//! Distributed data parallelism demo: scale the GNN stage across
//! simulated GPUs and compare the naive per-tensor all-reduce against the
//! paper's coalesced all-reduce (§III-D), with bulk sampling growing with
//! the worker count (§IV-C).
//!
//! ```text
//! cargo run --example distributed_training --release
//! ```

use trkx::ddp::{AllReduceStrategy, DdpConfig};
use trkx::detector::DatasetConfig;
use trkx::pipeline::{prepare_graphs, train, GnnTrainConfig, SamplerKind, TrainSpec};
use trkx::sampling::ShadowConfig;

fn main() {
    let dataset = DatasetConfig::ex3_like(0.04);
    let graphs = dataset.generate(5, 11);
    let prepared = prepare_graphs(&graphs);
    let (train_set, val) = prepared.split_at(4);

    let cfg = GnnTrainConfig {
        hidden: 32,
        gnn_layers: 4,
        epochs: 2,
        batch_size: 128,
        shadow: ShadowConfig {
            depth: 2,
            fanout: 4,
        },
        ..Default::default()
    };

    println!(
        "GNN stage over {} training graphs ({} epochs each run)\n",
        train_set.len(),
        cfg.epochs
    );
    println!(
        "{:>3} {:>12} {:>6} {:>11} {:>11} {:>11} {:>11}",
        "P", "all-reduce", "k", "sample(s)", "train(s)", "comm(ms)", "total(s)"
    );
    for &p in &[1usize, 2, 4] {
        for strategy in [AllReduceStrategy::PerTensor, AllReduceStrategy::Coalesced] {
            // Bulk factor grows with aggregate memory, as in the paper.
            let k = 2 * p;
            let spec = TrainSpec::ddp(&cfg, SamplerKind::Bulk { k }, DdpConfig::new(p, strategy));
            let r = train(&spec, train_set, val).expect("in-core graphs cannot fault");
            let last = r.epochs.last().unwrap();
            println!(
                "{:>3} {:>12} {:>6} {:>11.3} {:>11.3} {:>11.3} {:>11.3}",
                p,
                match strategy {
                    AllReduceStrategy::PerTensor => "per-tensor",
                    AllReduceStrategy::Coalesced => "coalesced",
                },
                k,
                last.timing.sampling_s,
                last.timing.train_s,
                last.timing.comm_virtual_s * 1e3,
                last.timing.total_s()
            );
        }
    }
    println!(
        "\nNote: comm(ms) is the virtual-clock ring-all-reduce time from the\n\
         NVLink-3 alpha-beta model; coalescing removes the per-tensor latency\n\
         term, which grows with P and with the IGNN's parameter-tensor count."
    );
}
