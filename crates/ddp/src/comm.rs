//! Communication cost model for the simulated multi-GPU interconnect.
//!
//! The paper's all-reduce optimisation is a latency argument: an IGNN
//! holds many separate `f x f` parameter matrices (distinct MLPs per
//! layer), and reducing each in its own NCCL call pays the per-call
//! latency `α` every time, while one call over the stacked buffer pays it
//! once. The standard α–β model for a ring all-reduce of `B` bytes over
//! `p` ranks is
//!
//! `T = 2(p-1)·α + 2·(p-1)/p · B/β`
//!
//! (2(p-1) ring steps of latency; reduce-scatter + all-gather each move
//! `(p-1)/p · B` bytes per rank at bandwidth β). The arithmetic of every
//! reduction is performed for real by [`crate::AllReducer`]; this model
//! only supplies the *virtual clock* time a real interconnect would take.

/// α–β interconnect model.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CommCostModel {
    /// Per-message latency α in seconds.
    pub latency_s: f64,
    /// Link bandwidth β in bytes/second.
    pub bandwidth_bytes_per_s: f64,
}

impl CommCostModel {
    /// NVLink 3.0-like constants: 100 GB/s unidirectional per pair
    /// (paper §IV-A), ~10 µs effective per-call launch+sync latency
    /// (typical measured NCCL small-message latency).
    pub fn nvlink3() -> Self {
        Self {
            latency_s: 10e-6,
            bandwidth_bytes_per_s: 100e9,
        }
    }

    /// Ring all-reduce time for one message of `bytes` over `p` ranks.
    pub fn ring_allreduce_time(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let steps = 2.0 * (p as f64 - 1.0);
        steps * self.latency_s + steps / p as f64 * bytes as f64 / self.bandwidth_bytes_per_s
    }

    /// Total time for `tensors` separate all-reduce calls of the given
    /// sizes (the naive per-tensor path).
    pub fn per_tensor_time(&self, tensor_bytes: &[usize], p: usize) -> f64 {
        tensor_bytes
            .iter()
            .map(|&b| self.ring_allreduce_time(b, p))
            .sum()
    }

    /// Time for one coalesced call over the stacked buffer.
    pub fn coalesced_time(&self, tensor_bytes: &[usize], p: usize) -> f64 {
        self.ring_allreduce_time(tensor_bytes.iter().sum(), p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_is_free() {
        let m = CommCostModel::nvlink3();
        assert_eq!(m.ring_allreduce_time(1 << 20, 1), 0.0);
    }

    #[test]
    fn latency_dominates_small_messages() {
        let m = CommCostModel::nvlink3();
        let t_small = m.ring_allreduce_time(64, 4);
        // 6 ring steps of 10 µs ≈ 60 µs; payload term is negligible.
        assert!((t_small - 60e-6).abs() / 60e-6 < 0.01, "{t_small}");
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let m = CommCostModel::nvlink3();
        let bytes = 1usize << 30;
        let t = m.ring_allreduce_time(bytes, 4);
        let payload = 2.0 * 3.0 / 4.0 * bytes as f64 / 100e9;
        assert!((t - payload).abs() / payload < 0.01, "{t} vs {payload}");
    }

    #[test]
    fn coalescing_saves_latency_not_bandwidth() {
        let m = CommCostModel::nvlink3();
        // 50 tensors of 64x64 f32 = 16 KiB each (the IGNN's parameter
        // shape census).
        let sizes = vec![64 * 64 * 4; 50];
        let per_tensor = m.per_tensor_time(&sizes, 4);
        let coalesced = m.coalesced_time(&sizes, 4);
        assert!(coalesced < per_tensor);
        // The saving is exactly 49 messages' worth of latency.
        let saving = per_tensor - coalesced;
        let expected = 49.0 * 6.0 * m.latency_s;
        assert!(
            (saving - expected).abs() / expected < 1e-6,
            "{saving} vs {expected}"
        );
    }

    #[test]
    fn cost_grows_with_ranks() {
        let m = CommCostModel::nvlink3();
        let t2 = m.ring_allreduce_time(1 << 20, 2);
        let t4 = m.ring_allreduce_time(1 << 20, 4);
        let t8 = m.ring_allreduce_time(1 << 20, 8);
        assert!(t2 < t4 && t4 < t8);
    }
}
