//! Gradient bucket layout for DDP communication.
//!
//! A [`BucketLayout`] greedily packs parameter tensors — in parameter
//! order, so every rank packs identically — into buckets of at most
//! `bucket_bytes` bytes, and owns one persistent flat `f32` buffer per
//! bucket. Packing a bucket copies the member gradients into its buffer
//! and unpacking copies the reduced values back; both are plain
//! `copy_from_slice` loops over preallocated storage, so a training step
//! that routes its all-reduces through a cached layout performs zero
//! steady-state heap allocations (the old per-step `flatten_grads` path
//! allocated a fresh `Vec` per bucket per step).
//!
//! The two all-reduce strategies are the two ends of the budget:
//! `bucket_bytes = 0` gives one tensor per bucket (per-tensor) and
//! `bucket_bytes = usize::MAX` a single bucket (coalesced).

use crate::param::Param;
use std::ops::Range;

/// One bucket: the contiguous range of parameter indices it covers and
/// its total element count.
#[derive(Debug, Clone)]
struct Bucket {
    params: Range<usize>,
    elems: usize,
}

/// Persistent bucket assignment + flat buffers for a fixed parameter
/// shape census. Build once (per trainer / per rank) and reuse every
/// step.
pub struct BucketLayout {
    buckets: Vec<Bucket>,
    /// One persistent flat buffer per bucket, sized once at construction.
    bufs: Vec<Vec<f32>>,
    /// Per-parameter element counts (validates reuse across steps).
    sizes: Vec<usize>,
    bucket_bytes: usize,
}

impl BucketLayout {
    /// Greedily pack parameters (by element count, in order) into buckets
    /// of at most `bucket_bytes` bytes. A tensor larger than the budget
    /// still gets a bucket (alone), matching the all-reduce strategy arms.
    pub fn from_sizes(sizes: &[usize], bucket_bytes: usize) -> Self {
        let mut buckets = Vec::new();
        let mut start = 0usize;
        while start < sizes.len() {
            let mut end = start;
            let mut bytes = 0usize;
            let mut elems = 0usize;
            while end < sizes.len() {
                let sz = sizes[end] * 4;
                if end > start && bytes.saturating_add(sz) > bucket_bytes {
                    break;
                }
                bytes += sz;
                elems += sizes[end];
                end += 1;
            }
            buckets.push(Bucket {
                params: start..end,
                elems,
            });
            start = end;
        }
        let bufs = buckets.iter().map(|b| vec![0.0f32; b.elems]).collect();
        Self {
            buckets,
            bufs,
            sizes: sizes.to_vec(),
            bucket_bytes,
        }
    }

    /// Whether this layout was built for exactly these parameter sizes
    /// and bucket budget (cached-layout validation).
    pub fn matches(&self, params: &[&mut Param], bucket_bytes: usize) -> bool {
        self.bucket_bytes == bucket_bytes
            && self.sizes.len() == params.len()
            && self
                .sizes
                .iter()
                .zip(params.iter())
                .all(|(&s, p)| s == p.numel())
    }

    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Copy the member parameters' gradients into bucket `b`'s flat
    /// buffer, in parameter order (the same order `flatten_grads` used).
    pub fn pack(&mut self, b: usize, params: &[&mut Param]) {
        let range = self.buckets[b].params.clone();
        let buf = &mut self.bufs[b];
        let mut off = 0usize;
        for p in &params[range] {
            let g = p.grad.data();
            buf[off..off + g.len()].copy_from_slice(g);
            off += g.len();
        }
        debug_assert_eq!(off, buf.len(), "bucket buffer size mismatch");
    }

    /// Mutable access to bucket `b`'s flat buffer (the all-reduce target).
    pub fn buf_mut(&mut self, b: usize) -> &mut [f32] {
        &mut self.bufs[b]
    }

    /// Copy bucket `b`'s (reduced) buffer back into the member
    /// parameters' gradients.
    pub fn unpack(&self, b: usize, params: &mut [&mut Param]) {
        let range = self.buckets[b].params.clone();
        let buf = &self.bufs[b];
        let mut off = 0usize;
        for p in &mut params[range] {
            let g = p.grad.data_mut();
            g.copy_from_slice(&buf[off..off + g.len()]);
            off += g.len();
        }
        debug_assert_eq!(off, buf.len(), "bucket buffer size mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trkx_tensor::Matrix;

    fn params(sizes: &[(usize, usize)]) -> Vec<Param> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &(r, c))| {
                let mut p = Param::new(format!("p{i}"), Matrix::zeros(r, c));
                p.grad = Matrix::from_fn(r, c, |a, b| (i * 100 + a * c + b) as f32);
                p
            })
            .collect()
    }

    #[test]
    fn degenerate_budgets_match_per_tensor_and_coalesced() {
        let sizes = [4usize, 4, 4];
        let per = BucketLayout::from_sizes(&sizes, 0);
        assert_eq!(per.num_buckets(), 3);
        let mut coal = BucketLayout::from_sizes(&sizes, usize::MAX);
        assert_eq!(coal.num_buckets(), 1);
        assert_eq!(coal.buf_mut(0).len(), 12);
    }

    #[test]
    fn pack_unpack_roundtrip_preserves_flatten_order() {
        let mut ps = params(&[(2, 2), (1, 3), (2, 1)]);
        let mut refs: Vec<&mut Param> = ps.iter_mut().collect();
        let sizes: Vec<usize> = refs.iter().map(|p| p.numel()).collect();
        let mut l = BucketLayout::from_sizes(&sizes, usize::MAX);
        l.pack(0, &refs);
        let legacy = crate::param::flatten_grads(&refs.iter().map(|p| &**p).collect::<Vec<_>>());
        assert_eq!(l.buf_mut(0), &legacy[..]);
        for v in l.buf_mut(0) {
            *v *= 0.5;
        }
        let expect: Vec<f32> = legacy.iter().map(|v| v * 0.5).collect();
        l.unpack(0, &mut refs);
        let again = crate::param::flatten_grads(&refs.iter().map(|p| &**p).collect::<Vec<_>>());
        assert_eq!(again, expect);
    }

    #[test]
    fn matches_validates_shape_census() {
        let mut ps = params(&[(2, 2), (3, 1)]);
        let refs: Vec<&mut Param> = ps.iter_mut().collect();
        let l = BucketLayout::from_sizes(&[4, 3], 64);
        assert!(l.matches(&refs, 64));
        assert!(!l.matches(&refs, 128));
        let l2 = BucketLayout::from_sizes(&[4, 4], 64);
        assert!(!l2.matches(&refs, 64));
    }
}
