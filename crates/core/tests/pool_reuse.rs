//! Buffers outlive the call: every `train_minibatch_opts` call builds
//! fresh tapes (the engine's, one per DDP rank, and validation's), and
//! when they drop, their value and gradient buffers go to the tensor
//! crate's process-wide reservoir. A second identical call therefore
//! draws its storage from the first call's instead of from the allocator,
//! with the same loss bits.
//!
//! What a call keeps when it returns is that storage: the reservoir never
//! frees a buffer, and the call's other allocations (sampled subgraphs,
//! edge plans, reports) are freed before it returns, in every call alike.
//! So the second call may allocate those again, and at most a tenth of
//! what the first kept besides; and it keeps at most a tenth as much. A
//! pool that skipped the reservoir would allocate and keep its storage
//! anew on every call.
//!
//! The reservoir is process-wide and the test counts every allocation,
//! hence a binary of its own with one `#[test]`.

use trkx_core::{prepare_graphs, train_minibatch_opts, BatchingMode, GnnTrainConfig, SamplerKind};
use trkx_ddp::{AllReduceStrategy, DdpConfig};
use trkx_detector::DatasetConfig;
use trkx_sampling::ShadowConfig;

#[path = "../../tensor/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::count_alloc_and_kept_bytes;

#[global_allocator]
static A: counting_alloc::Counting = counting_alloc::Counting;

#[test]
fn a_second_identical_call_allocates_a_tenth_of_what_the_first_kept() {
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
        let [(bytes0, kept0), (bytes1, kept1)] = [(); 2].map(|()| {
            count_alloc_and_kept_bytes(|| {
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
            "{name}: first call {bytes0} B ({kept0} B kept), second call {bytes1} B ({kept1} B kept)"
        );
        assert_eq!(losses[0], losses[1], "{name}: the calls' losses differ");
        let kept0 = kept0.max(0) as usize;
        let freed0 = bytes0 - kept0;
        assert!(
            bytes1 <= freed0 + kept0 / 10,
            "{name}: the second call allocated {bytes1} B, over the {freed0} B the first \
             freed plus a tenth of the {kept0} B it kept"
        );
        assert!(
            kept1 * 10 <= kept0 as isize,
            "{name}: the second call kept {kept1} B, over a tenth of the first's {kept0} B"
        );
    }
}
