//! DDP configuration and timing types shared by the pipeline trainers.

use crate::allreduce::AllReduceStrategy;
use crate::comm::CommCostModel;
use serde::{Deserialize, Serialize};

/// Distributed-data-parallel run configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DdpConfig {
    /// Number of simulated GPUs (worker threads).
    pub workers: usize,
    /// Gradient synchronisation strategy.
    pub strategy: AllReduceStrategy,
    /// Interconnect model for the virtual clock.
    pub cost_model: CommCostModel,
}

impl DdpConfig {
    /// Single-worker baseline (no communication).
    pub fn single() -> Self {
        Self {
            workers: 1,
            strategy: AllReduceStrategy::Coalesced,
            cost_model: CommCostModel::nvlink3(),
        }
    }

    pub fn new(workers: usize, strategy: AllReduceStrategy) -> Self {
        Self {
            workers,
            strategy,
            cost_model: CommCostModel::nvlink3(),
        }
    }
}

/// Wall-clock and virtual-clock breakdown of one epoch (Figure 3's bars:
/// sampling time vs training time, plus modeled communication).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EpochTiming {
    /// Seconds spent sampling minibatches (measured).
    pub sampling_s: f64,
    /// Seconds spent in forward/backward/optimizer (measured).
    pub train_s: f64,
    /// Modeled interconnect seconds from the all-reduce cost model: every
    /// step's collectives, run after backward, on the critical path.
    pub comm_virtual_s: f64,
}

impl EpochTiming {
    /// Total epoch time as reported in Figure 3: a rank samples, then
    /// trains, then waits on its collectives, back to back.
    pub fn total_s(&self) -> f64 {
        self.sampling_s + self.train_s + self.comm_virtual_s
    }

    /// Merge a per-worker maximum: synchronous DDP advances at the pace
    /// of the slowest worker.
    pub fn max_merge(&mut self, other: &EpochTiming) {
        self.sampling_s = self.sampling_s.max(other.sampling_s);
        self.train_s = self.train_s.max(other.train_s);
        self.comm_virtual_s = self.comm_virtual_s.max(other.comm_virtual_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_components() {
        let t = EpochTiming {
            sampling_s: 1.0,
            train_s: 2.0,
            comm_virtual_s: 0.5,
        };
        assert_eq!(t.total_s(), 3.5);
    }

    #[test]
    fn max_merge_takes_slowest() {
        let mut a = EpochTiming {
            sampling_s: 1.0,
            train_s: 5.0,
            comm_virtual_s: 0.1,
        };
        let b = EpochTiming {
            sampling_s: 2.0,
            train_s: 4.0,
            comm_virtual_s: 0.2,
        };
        a.max_merge(&b);
        assert_eq!(
            a,
            EpochTiming {
                sampling_s: 2.0,
                train_s: 5.0,
                comm_virtual_s: 0.2,
            }
        );
    }

    #[test]
    fn config_constructors() {
        let c = DdpConfig::single();
        assert_eq!(c.workers, 1);
        let c = DdpConfig::new(4, AllReduceStrategy::PerTensor);
        assert_eq!(c.workers, 4);
        assert_eq!(c.strategy, AllReduceStrategy::PerTensor);
    }
}
