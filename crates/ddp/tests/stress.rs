//! Stress and consistency tests for the shared-memory all-reduce under
//! repeated collectives, varying sizes, and all strategies.

use rand::{rngs::StdRng, Rng, SeedableRng};
use trkx_ddp::{run_workers, AllReduceStrategy, AllReducer, CommCostModel};
use trkx_nn::Param;
use trkx_tensor::Matrix;

#[test]
fn many_rounds_with_varying_buffer_sizes() {
    let p = 4;
    let reducer = AllReducer::new(p, CommCostModel::nvlink3());
    let sizes = [1usize, 7, 64, 3, 128, 1, 33];
    let results = run_workers(p, |rank| {
        let mut sums = Vec::new();
        for (round, &n) in sizes.iter().enumerate() {
            let mut buf: Vec<f32> = (0..n)
                .map(|i| (rank * 1000 + round * 10 + i) as f32)
                .collect();
            reducer.allreduce(rank, &mut buf);
            sums.push(buf.iter().sum::<f32>());
        }
        sums
    });
    // Every rank must observe identical reduced values.
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
    assert_eq!(reducer.num_calls(), sizes.len());
}

#[test]
fn all_strategies_agree_on_random_gradients() {
    let p = 3;
    let shapes: Vec<(usize, usize)> = vec![(3, 5), (1, 1), (8, 2), (4, 4), (2, 9)];
    let make = |rank: usize| -> Vec<Param> {
        let mut rng = StdRng::seed_from_u64(rank as u64 + 10);
        shapes
            .iter()
            .enumerate()
            .map(|(i, &(r, c))| {
                let mut prm = Param::new(format!("t{i}"), Matrix::zeros(r, c));
                prm.grad = Matrix::from_fn(r, c, |_, _| rng.gen_range(-3.0f32..3.0));
                prm
            })
            .collect()
    };
    let run = |strategy: AllReduceStrategy| -> Vec<Vec<f32>> {
        let reducer = AllReducer::new(p, CommCostModel::nvlink3());
        let results = run_workers(p, |rank| {
            let mut params = make(rank);
            let mut refs: Vec<&mut Param> = params.iter_mut().collect();
            reducer.sync_gradients(rank, &mut refs, strategy);
            params
                .iter()
                .map(|p| p.grad.data().to_vec())
                .collect::<Vec<_>>()
        });
        results.into_iter().next().unwrap()
    };
    let a = run(AllReduceStrategy::PerTensor);
    let b = run(AllReduceStrategy::Coalesced);
    // Exact equality: the arithmetic is leader-reduces-in-rank-order in
    // both strategies.
    assert_eq!(a, b);
    // And it is the true average.
    let expect: Vec<Vec<f32>> = {
        let all: Vec<Vec<Param>> = (0..p).map(make).collect();
        (0..shapes.len())
            .map(|t| {
                let n = all[0][t].grad.len();
                (0..n)
                    .map(|i| all.iter().map(|ps| ps[t].grad.data()[i]).sum::<f32>() / p as f32)
                    .collect()
            })
            .collect()
    };
    for (got, want) in a.iter().zip(&expect) {
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-5, "{g} vs {w}");
        }
    }
}

#[test]
fn comm_cost_ordering_across_strategies() {
    // per-tensor > coalesced on the virtual clock, for the same gradient
    // payload.
    let p = 4;
    let run = |strategy: AllReduceStrategy| -> f64 {
        let reducer = AllReducer::new(p, CommCostModel::nvlink3());
        run_workers(p, |rank| {
            let mut params: Vec<Param> = (0..30)
                .map(|i| {
                    let mut prm = Param::new(format!("t{i}"), Matrix::zeros(16, 16));
                    prm.grad = Matrix::full(16, 16, rank as f32);
                    prm
                })
                .collect();
            let mut refs: Vec<&mut Param> = params.iter_mut().collect();
            reducer.sync_gradients(rank, &mut refs, strategy);
        });
        reducer.virtual_comm_seconds()
    };
    let per = run(AllReduceStrategy::PerTensor);
    let coalesced = run(AllReduceStrategy::Coalesced);
    assert!(per > coalesced, "{per} !> {coalesced}");
}

#[test]
fn worker_results_isolated_per_rank() {
    // run_workers must not leak state between ranks.
    let out = run_workers(8, |rank| {
        let mut acc = 0u64;
        for i in 0..1000u64 {
            acc = acc.wrapping_add(i.wrapping_mul(rank as u64 + 1));
        }
        acc
    });
    for (rank, &v) in out.iter().enumerate() {
        let expect: u64 = (0..1000u64).map(|i| i.wrapping_mul(rank as u64 + 1)).sum();
        assert_eq!(v, expect);
    }
}
