//! Bulk ShaDow's output, pinned. The benchmark checks each epoch against a
//! reference hash computed by the same code at set-up, so it cannot see a
//! change in *which* subgraphs are drawn; this test can. It hashes every
//! field of `sample_batches`' output on three fixed graphs — a ladder, a
//! hub, and one fixed-seed `ex3_like` event — over four `(depth, fanout)`
//! settings and k ∈ {1, 3} stacked minibatches, and compares each hash
//! with a constant recorded from the sampler as first written. A rewrite
//! of the sampler must reproduce every constant bit for bit, at any pool
//! size (`ci.sh` runs it at `RAYON_NUM_THREADS` 1 and 4).

use rand::{rngs::StdRng, SeedableRng};
use trkx_detector::DatasetConfig;
use trkx_sampling::{
    vertex_batches, BulkShadowSampler, SampledSubgraph, SamplerGraph, ShadowConfig,
};

/// Two rails of `n` vertices joined by a rung at every position.
fn ladder(n: u32) -> SamplerGraph {
    let (mut src, mut dst) = (Vec::new(), Vec::new());
    for i in 0..n - 1 {
        src.extend([i, n + i]);
        dst.extend([i + 1, n + i + 1]);
    }
    for i in 0..n {
        src.push(i);
        dst.push(n + i);
    }
    SamplerGraph::new(2 * n as usize, &src, &dst)
}

/// Vertex 0 joined to every other vertex, vertex 1 to every third, and a
/// ring through the rest: a few rows far wider than the fanout.
fn hub(n: u32) -> SamplerGraph {
    let (mut src, mut dst) = (Vec::new(), Vec::new());
    for v in 1..n {
        src.push(0);
        dst.push(v);
        if v > 1 && v % 3 == 0 {
            src.push(1);
            dst.push(v);
        }
        if v + 1 < n {
            src.push(v);
            dst.push(v + 1);
        }
    }
    SamplerGraph::new(n as usize, &src, &dst)
}

/// One event of the Ex3-like family at 5 % scale (~650 hits).
fn ex3_event() -> SamplerGraph {
    let g = &DatasetConfig::ex3_like(0.05).generate(1, 2024)[0];
    assert!(
        g.num_nodes > 500 && g.src.len() > 1500,
        "a degenerate event"
    );
    SamplerGraph::new(g.num_nodes, &g.src, &g.dst)
}

/// Word-wise FNV-1a over every output field, each followed by its length.
fn hash(subs: &[SampledSubgraph]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |words: &[u32]| {
        for &w in words.iter().chain(&[words.len() as u32]) {
            h ^= u64::from(w);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for s in subs {
        eat(&s.node_map);
        eat(&s.sub_src);
        eat(&s.sub_dst);
        eat(&s.orig_edge_ids);
        eat(&s.batch_nodes);
    }
    h
}

/// `(graph, depth, fanout, k, hash)`, recorded from the sampler as first written.
const PINNED: [(&str, usize, usize, usize, u64); 24] = [
    ("ladder", 1, 1, 1, 0xd2a3358d16321544),
    ("ladder", 1, 1, 3, 0x27be982c650e559f),
    ("ladder", 2, 3, 1, 0x8500d4f2017186e6),
    ("ladder", 2, 3, 3, 0x5ac1c2c3cb13734b),
    ("ladder", 3, 6, 1, 0x946deb5a4aa02a3c),
    ("ladder", 3, 6, 3, 0xeffec0a0be349827),
    ("ladder", 4, 2, 1, 0x0b22cc551d3b83e0),
    ("ladder", 4, 2, 3, 0x59a5e39117d420be),
    ("hub", 1, 1, 1, 0xe171c40fdb857964),
    ("hub", 1, 1, 3, 0xe9f047fa25d2d65e),
    ("hub", 2, 3, 1, 0xd0852589af17f1bb),
    ("hub", 2, 3, 3, 0x4a5abb9e04b52319),
    ("hub", 3, 6, 1, 0xc6790cdd9188ff3e),
    ("hub", 3, 6, 3, 0x4f48884074766da2),
    ("hub", 4, 2, 1, 0x026b7a20ae4f94e6),
    ("hub", 4, 2, 3, 0x4f65c1b1076cf771),
    ("ex3", 1, 1, 1, 0x14682e65067042f1),
    ("ex3", 1, 1, 3, 0x4677b7ca001294d0),
    ("ex3", 2, 3, 1, 0xa5c648ec5b42cff6),
    ("ex3", 2, 3, 3, 0x27ba64e58bfaec8a),
    ("ex3", 3, 6, 1, 0x6260dd7be290bd95),
    ("ex3", 3, 6, 3, 0x7c944fa313f88874),
    ("ex3", 4, 2, 1, 0xe908885d3ccb5b5b),
    ("ex3", 4, 2, 3, 0xb59a7073a90dba99),
];

#[test]
fn bulk_output_matches_the_pinned_hashes() {
    let graphs = [
        ("ladder", ladder(40)),
        ("hub", hub(64)),
        ("ex3", ex3_event()),
    ];
    let mut wrong = Vec::new();
    for &(name, depth, fanout, k, want) in &PINNED {
        let g = &graphs.iter().find(|(n, _)| *n == name).unwrap().1;
        let mut rng = StdRng::seed_from_u64(depth as u64 * 31 + fanout as u64);
        let mut batches = vertex_batches(g.num_nodes, 24, &mut rng);
        batches.truncate(k);
        let sampler = BulkShadowSampler::new(ShadowConfig { depth, fanout });
        let subs = sampler.sample_batches(g, &batches, 0x5EED ^ k as u64);
        for (sub, batch) in subs.iter().zip(&batches) {
            assert_eq!(sub.num_components(), batch.len());
            sub.validate(g);
        }
        let got = hash(&subs);
        if got != want {
            wrong.push(format!("(\"{name}\", {depth}, {fanout}, {k}, {got:#018x})"));
        }
    }
    assert!(wrong.is_empty(), "hashes differ:\n{}", wrong.join(",\n"));
}
