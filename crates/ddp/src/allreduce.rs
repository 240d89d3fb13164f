//! A real shared-memory ring-style all-reduce across worker threads, with
//! virtual-clock cost accounting from the α–β model.
//!
//! The reduction arithmetic is performed for real (deposit → leader
//! reduces → broadcast), so the per-tensor and coalesced strategies are
//! bit-identical in their numerical result and differ only in call count —
//! exactly the paper's claim. The *time* a real NVLink ring would take is
//! accumulated on a virtual clock per call.

use crate::comm::CommCostModel;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use trkx_nn::{BucketLayout, Param};

/// Gradient-synchronisation strategy (paper §III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AllReduceStrategy {
    /// One all-reduce call per parameter tensor (the PyTorch-default-like
    /// baseline; high latency cost for the IGNN's many small matrices).
    PerTensor,
    /// Stack all parameter gradients into one buffer and reduce once
    /// (the paper's optimisation).
    Coalesced,
}

impl AllReduceStrategy {
    /// The [`BucketLayout`] budget that packs this strategy's collectives:
    /// zero puts every tensor in its own bucket, an unbounded budget puts
    /// them all in one.
    pub(crate) fn bucket_bytes(&self) -> usize {
        match self {
            AllReduceStrategy::PerTensor => 0,
            AllReduceStrategy::Coalesced => usize::MAX,
        }
    }
}

/// Shared all-reduce context for `p` worker threads.
pub struct AllReducer {
    p: usize,
    cost: CommCostModel,
    slots: Vec<Mutex<Vec<f32>>>,
    sum: Mutex<Vec<f32>>,
    barrier: Barrier,
    virtual_seconds: Mutex<f64>,
    calls: AtomicUsize,
    /// Per-rank cached [`BucketLayout`]s for [`AllReducer::sync_gradients`]:
    /// the flat pack/reduce/unpack buffers persist across steps, so the
    /// post-hoc sync path performs zero steady-state heap allocations
    /// (each rank only touches its own slot — the mutex is uncontended).
    layouts: Vec<Mutex<Option<BucketLayout>>>,
}

impl AllReducer {
    pub fn new(p: usize, cost: CommCostModel) -> Self {
        Self {
            p,
            cost,
            slots: (0..p).map(|_| Mutex::new(Vec::new())).collect(),
            sum: Mutex::new(Vec::new()),
            barrier: Barrier::new(p),
            virtual_seconds: Mutex::new(0.0),
            calls: AtomicUsize::new(0),
            layouts: (0..p).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// The α–β interconnect model this reducer charges per call.
    pub fn cost_model(&self) -> CommCostModel {
        self.cost
    }

    /// Average `buf` across all ranks in place. Every rank must call this
    /// the same number of times with equal buffer lengths (collective
    /// semantics, like NCCL).
    pub fn allreduce(&self, rank: usize, buf: &mut [f32]) {
        assert!(rank < self.p, "rank out of range");
        if self.p == 1 {
            // Single rank: nothing to synchronise, no comm cost.
            return;
        }
        // Deposit.
        {
            let mut slot = self.slots[rank].lock();
            slot.clear();
            slot.extend_from_slice(buf);
        }
        let leader = self.barrier.wait().is_leader();
        if leader {
            let mut sum = self.sum.lock();
            sum.clear();
            sum.resize(buf.len(), 0.0);
            for slot in &self.slots {
                let s = slot.lock();
                assert_eq!(s.len(), buf.len(), "mismatched all-reduce buffer lengths");
                for (acc, &v) in sum.iter_mut().zip(s.iter()) {
                    *acc += v;
                }
            }
            let inv = 1.0 / self.p as f32;
            for v in sum.iter_mut() {
                *v *= inv;
            }
            // Cost accounting once per collective call.
            *self.virtual_seconds.lock() += self.cost.ring_allreduce_time(buf.len() * 4, self.p);
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
        self.barrier.wait();
        // Broadcast.
        buf.copy_from_slice(&self.sum.lock());
        // All ranks must finish reading before the next call overwrites.
        self.barrier.wait();
    }

    /// Synchronise parameter gradients with the chosen strategy. Both
    /// strategies produce identical gradients; only the number of
    /// collective calls (and hence modeled latency) differs. Each is a
    /// [`BucketLayout`] (one bucket per tensor, or one for all), cached
    /// per rank so the per-step pack → reduce → unpack cycle reuses
    /// persistent flat buffers instead of allocating per step.
    pub fn sync_gradients(
        &self,
        rank: usize,
        params: &mut [&mut Param],
        strategy: AllReduceStrategy,
    ) {
        let bucket_bytes = strategy.bucket_bytes();
        let mut cache = self.layouts[rank].lock();
        let layout = match cache.as_mut() {
            Some(l) if l.matches(params, bucket_bytes) => l,
            _ => {
                let sizes: Vec<usize> = params.iter().map(|p| p.numel()).collect();
                cache.insert(BucketLayout::from_sizes(&sizes, bucket_bytes))
            }
        };
        for b in 0..layout.num_buckets() {
            layout.pack(b, params);
            self.allreduce(rank, layout.buf_mut(b));
            layout.unpack(b, params);
        }
    }

    /// Accumulated virtual communication time (seconds) — the per-rank
    /// wait a real interconnect would impose (all ranks in a synchronous
    /// collective wait the same time).
    pub fn virtual_comm_seconds(&self) -> f64 {
        *self.virtual_seconds.lock()
    }

    /// Number of collective calls performed.
    pub fn num_calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Run `p` ranked workers on scoped threads and collect their results in
/// rank order. For `p ≥ 2` each rank holds its core for its whole life
/// ([`trkx_tensor::occupy`]), so a rank's kernels split over only the
/// cores the other ranks leave free.
pub fn run_workers<R: Send>(p: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    assert!(p > 0, "need at least one worker");
    if p == 1 {
        return vec![f(0)];
    }
    let mut out: Vec<Option<R>> = (0..p).map(|_| None).collect();
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|rank| {
                let f = &f;
                s.spawn(move |_| {
                    let _core = trkx_tensor::occupy();
                    f(rank)
                })
            })
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            out[rank] = Some(h.join().expect("worker panicked"));
        }
    })
    .expect("worker scope failed");
    out.into_iter()
        .map(|r| r.expect("missing worker result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trkx_tensor::Matrix;

    #[test]
    fn allreduce_averages_across_ranks() {
        let p = 4;
        let reducer = AllReducer::new(p, CommCostModel::nvlink3());
        let results = run_workers(p, |rank| {
            let mut buf = vec![rank as f32; 8];
            reducer.allreduce(rank, &mut buf);
            buf
        });
        // mean(0,1,2,3) = 1.5 everywhere.
        for r in results {
            assert!(r.iter().all(|&v| (v - 1.5).abs() < 1e-6), "{r:?}");
        }
        assert_eq!(reducer.num_calls(), 1);
        assert!(reducer.virtual_comm_seconds() > 0.0);
    }

    #[test]
    fn repeated_collectives_stay_consistent() {
        let p = 3;
        let reducer = AllReducer::new(p, CommCostModel::nvlink3());
        let results = run_workers(p, |rank| {
            let mut acc = Vec::new();
            for round in 0..5 {
                let mut buf = vec![(rank + round) as f32; 4];
                reducer.allreduce(rank, &mut buf);
                acc.push(buf[0]);
            }
            acc
        });
        for r in &results {
            for (round, &v) in r.iter().enumerate() {
                let expect = (0..p).map(|k| (k + round) as f32).sum::<f32>() / p as f32;
                assert!((v - expect).abs() < 1e-6);
            }
        }
        assert_eq!(reducer.num_calls(), 5);
    }

    #[test]
    fn strategies_produce_identical_gradients() {
        let p = 2;
        let make_params = |rank: usize| -> Vec<Param> {
            (0..3)
                .map(|i| {
                    let mut prm = Param::new(format!("p{i}"), Matrix::zeros(2, 2));
                    prm.grad = Matrix::from_fn(2, 2, |r, c| (rank * 10 + i * 4 + r * 2 + c) as f32);
                    prm
                })
                .collect()
        };
        let run = |strategy: AllReduceStrategy| -> Vec<Vec<f32>> {
            let reducer = AllReducer::new(p, CommCostModel::nvlink3());
            let results = run_workers(p, |rank| {
                let mut params = make_params(rank);
                let mut refs: Vec<&mut Param> = params.iter_mut().collect();
                reducer.sync_gradients(rank, &mut refs, strategy);
                params
                    .iter()
                    .map(|p| p.grad.data().to_vec())
                    .collect::<Vec<_>>()
            });
            results.into_iter().next().unwrap()
        };
        assert_eq!(
            run(AllReduceStrategy::PerTensor),
            run(AllReduceStrategy::Coalesced)
        );
    }

    #[test]
    fn coalesced_is_cheaper_on_the_virtual_clock() {
        let p = 4;
        let n_tensors = 20;
        let run = |strategy: AllReduceStrategy| -> (f64, usize) {
            let reducer = AllReducer::new(p, CommCostModel::nvlink3());
            run_workers(p, |rank| {
                let mut params: Vec<Param> = (0..n_tensors)
                    .map(|i| {
                        let mut prm = Param::new(format!("p{i}"), Matrix::zeros(8, 8));
                        prm.grad = Matrix::full(8, 8, rank as f32);
                        prm
                    })
                    .collect();
                let mut refs: Vec<&mut Param> = params.iter_mut().collect();
                reducer.sync_gradients(rank, &mut refs, strategy);
            });
            (reducer.virtual_comm_seconds(), reducer.num_calls())
        };
        let (t_per, c_per) = run(AllReduceStrategy::PerTensor);
        let (t_coal, c_coal) = run(AllReduceStrategy::Coalesced);
        assert_eq!(c_per, n_tensors);
        assert_eq!(c_coal, 1);
        assert!(t_coal < t_per, "coalesced {t_coal} !< per-tensor {t_per}");
    }

    #[test]
    fn single_worker_is_a_noop() {
        let reducer = AllReducer::new(1, CommCostModel::nvlink3());
        let mut buf = vec![3.0f32; 4];
        reducer.allreduce(0, &mut buf);
        assert_eq!(buf, vec![3.0; 4]);
        assert_eq!(reducer.num_calls(), 0);
        assert_eq!(reducer.virtual_comm_seconds(), 0.0);
    }

    #[test]
    fn run_workers_preserves_rank_order() {
        let out = run_workers(6, |rank| rank * rank);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25]);
    }
}
