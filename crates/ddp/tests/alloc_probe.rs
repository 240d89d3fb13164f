//! Steady-state allocation regression test for the DDP gradient-sync
//! path. Both strategies route through one persistent `BucketLayout`
//! cached per rank, and the reducer's deposit/sum scratch keeps its
//! capacity across collectives — so after the first step, a DDP
//! gradient sync performs **zero** heap allocations: per-tensor and
//! coalesced alike, single-rank and multi-rank. Pinned with a counting
//! global allocator (hence its own test binary).

use std::sync::Barrier;
use trkx_ddp::{AllReduceStrategy, AllReducer, CommCostModel};
use trkx_nn::Param;
use trkx_tensor::Matrix;

#[path = "../../tensor/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{count_allocs, steady_state_allocs};

#[global_allocator]
static A: counting_alloc::Counting = counting_alloc::Counting;

fn mk_params(sizes: &[usize]) -> Vec<Param> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut p = Param::new(format!("p{i}"), Matrix::zeros(1, n));
            p.grad = Matrix::from_fn(1, n, |_, c| (i * 31 + c) as f32 * 0.5 - 3.0);
            p
        })
        .collect()
}

const SIZES: &[usize] = &[64, 7, 128, 33, 16, 250];

fn single_rank_sync_is_alloc_free_for_every_strategy() {
    let reducer = AllReducer::new(1, CommCostModel::nvlink3());
    for strategy in [AllReduceStrategy::PerTensor, AllReduceStrategy::Coalesced] {
        let mut params = mk_params(SIZES);
        let mut refs: Vec<&mut Param> = params.iter_mut().collect();
        steady_state_allocs(&format!("{strategy:?}"), || {
            reducer.sync_gradients(0, &mut refs, strategy);
        });
    }
}

fn multi_rank_sync_is_alloc_free_for_every_strategy() {
    const P: usize = 2;
    const WINDOWS: usize = 2;
    for strategy in [AllReduceStrategy::PerTensor, AllReduceStrategy::Coalesced] {
        let reducer = AllReducer::new(P, CommCostModel::nvlink3());
        let start = Barrier::new(P + 1);
        let done = Barrier::new(P + 1);
        std::thread::scope(|s| {
            for rank in 0..P {
                let (reducer, start, done) = (&reducer, &start, &done);
                s.spawn(move || {
                    let mut params = mk_params(SIZES);
                    let mut refs: Vec<&mut Param> = params.iter_mut().collect();
                    for _ in 0..WINDOWS {
                        // Warmup builds the layout cache and any lazy parker
                        // state before the measured window opens.
                        for _ in 0..10 {
                            reducer.sync_gradients(rank, &mut refs, strategy);
                        }
                        start.wait();
                        for _ in 0..100 {
                            reducer.sync_gradients(rank, &mut refs, strategy);
                        }
                        done.wait();
                    }
                });
            }
            // The quieter of two windows, for the reason
            // `steady_state_allocs` re-measures once.
            let allocs = (0..WINDOWS)
                .map(|_| {
                    start.wait();
                    count_allocs(|| {
                        done.wait();
                    })
                })
                .min();
            assert_eq!(
                allocs,
                Some(0),
                "{strategy:?} x{P} ranks: steady-state allocations"
            );
        });
    }
}

/// One `#[test]` for the whole binary: see `counting_alloc.rs`.
#[test]
fn ddp_gradient_sync_is_alloc_free() {
    single_rank_sync_is_alloc_free_for_every_strategy();
    multi_rank_sync_is_alloc_free_for_every_strategy();
}
