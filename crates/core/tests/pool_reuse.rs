//! Buffers outlive the call: every `train_minibatch_opts` call builds
//! fresh tapes (the engine's, one per DDP rank, and validation's), and
//! when they drop, their value and gradient buffers go to the tensor
//! crate's process-wide reservoir. A second identical call therefore
//! draws its storage from the first call's instead of from the allocator,
//! with the same loss bits.
//!
//! The reservoir is process-wide and the test counts every allocation,
//! hence a binary of its own with one `#[test]`.

use trkx_core::{prepare_graphs, train_minibatch_opts, BatchingMode, GnnTrainConfig, SamplerKind};
use trkx_ddp::{AllReduceStrategy, DdpConfig};
use trkx_detector::DatasetConfig;
use trkx_sampling::ShadowConfig;

#[path = "../../tensor/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::count_alloc_bytes;

#[global_allocator]
static A: counting_alloc::Counting = counting_alloc::Counting;

#[test]
fn a_second_identical_call_allocates_a_tenth_of_the_first() {
    let mut graphs = prepare_graphs(&DatasetConfig::ctd_like(0.002).generate(2, 11));
    let val = graphs.split_off(1);
    let cfg = GnnTrainConfig {
        hidden: 32,
        gnn_layers: 4,
        mlp_depth: 3,
        epochs: 1,
        batch_size: 128,
        shadow: ShadowConfig {
            depth: 2,
            fanout: 4,
        },
        seed: 5,
        ..Default::default()
    };
    // p = 2 first, so that its first call is the process's cold one. The
    // single-rank run after it finds part of what its first call needs in
    // the reservoir already; its second call must draw almost everything.
    let configs = [
        ("p = 2", DdpConfig::new(2, AllReduceStrategy::Coalesced)),
        ("single", DdpConfig::single()),
    ];
    for (name, ddp) in configs {
        let mut losses = Vec::new();
        let bytes = [(); 2].map(|()| {
            count_alloc_bytes(|| {
                let sampler = SamplerKind::Bulk { k: 4 };
                let run = train_minibatch_opts(
                    &cfg,
                    sampler,
                    BatchingMode::Sync,
                    ddp,
                    &graphs,
                    &val,
                    None,
                );
                let bits: Vec<u32> = run.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
                losses.push(bits);
            })
        });
        println!(
            "{name}: first call {} B, second call {} B",
            bytes[0], bytes[1]
        );
        assert_eq!(losses[0], losses[1], "{name}: the calls' losses differ");
        assert!(
            bytes[1] * 10 <= bytes[0],
            "{name}: the second call allocated {} B, over a tenth of the first's {} B",
            bytes[1],
            bytes[0]
        );
    }
}
