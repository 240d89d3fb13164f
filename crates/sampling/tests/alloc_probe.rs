//! Allocations of a warm bulk ShaDow call do not grow with the number of
//! walks. Three stacked minibatches are sampled at 256 and at 1,024 roots
//! per batch over the same graph; four times the walks may cost only the
//! extra doublings of the vectors that grow with the output (each batch's
//! six `SampledSubgraph` vectors, the stacked levels and the per-batch
//! scratch), never an allocation per walk.
//!
//! `ci.sh` runs the binary at `RAYON_NUM_THREADS=1` and `4` (at 4 the
//! batches are sampled in parallel, each block with its own scratch).
//! Counting allocator, hence its own test binary with one `#[test]`.

use trkx_sampling::{BulkShadowSampler, SamplerGraph, ShadowConfig};

#[path = "../../tensor/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::count_allocs;

#[global_allocator]
static A: counting_alloc::Counting = counting_alloc::Counting;

/// Stacked minibatches per call.
const K: usize = 3;

/// `n` vertices, each with `out_degree` edges to scattered targets.
fn scattered_graph(n: u32, out_degree: u32) -> SamplerGraph {
    let (mut src, mut dst) = (Vec::new(), Vec::new());
    for v in 0..n {
        for j in 1..=out_degree {
            src.push(v);
            dst.push((v.wrapping_mul(2_654_435_761) >> 7).wrapping_add(j * 977) % n);
        }
    }
    SamplerGraph::new(n as usize, &src, &dst)
}

/// Mean allocations of one warm call with `roots` roots per batch.
fn allocs_per_call(g: &SamplerGraph, sampler: &BulkShadowSampler, roots: u32) -> usize {
    let n = g.num_nodes as u32;
    let batches: Vec<Vec<u32>> = (0..K as u32)
        .map(|b| (0..roots).map(|i| (i * 7 + b * 4099) % n).collect())
        .collect();
    let calls = 4;
    let run = || {
        for _ in 0..2 {
            std::hint::black_box(sampler.sample_batches(g, &batches, 3));
        }
        count_allocs(|| {
            for seed in 0..calls {
                std::hint::black_box(sampler.sample_batches(g, &batches, seed));
            }
        }) / calls as usize
    };
    // One re-measure absorbs a one-time event (see `counting_alloc`).
    run().min(run())
}

#[test]
fn bulk_sampling_allocations_do_not_grow_with_the_walks() {
    let g = scattered_graph(16_384, 4);
    let sampler = BulkShadowSampler::new(ShadowConfig {
        depth: 3,
        fanout: 6,
    });
    let small = allocs_per_call(&g, &sampler, 256);
    let large = allocs_per_call(&g, &sampler, 1024);
    // Four times the walks: two more doublings of every vector that grows
    // with the output — six per batch, plus the stacked levels and a
    // batch's node and edge scratch.
    let growth = 2 * (6 * K + 1 + 2 * K);
    assert!(
        large <= small + growth,
        "{large} allocations per call at 1,024 roots per batch vs {small} at 256 \
         (allowed growth {growth})"
    );
}
