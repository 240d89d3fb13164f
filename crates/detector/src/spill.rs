//! Out-of-core event spilling: write the sampler's two adjacency
//! orientations straight to sharded CSR files without ever holding
//! either orientation's full CSR in memory.
//!
//! The in-core path ([`SamplerGraph::new`]) builds two `n x n` CSRs with
//! values = original edge ids: the directed doublet graph, and the
//! symmetrised orientation where edge `i` contributes `(s, d, i)` then
//! `(d, s, i)`. For events whose adjacency exceeds RAM, [`spill_adjacency`]
//! produces byte-for-byte the same rows, one shard group at a time: each
//! pass scans the edge list, keeps only the triplets landing in the
//! current row window, converts that window with the *same*
//! `Coo::to_csr` the in-core path uses (counting sort is
//! row-decomposable, so per-window conversion yields identical rows),
//! and appends the rows to a [`ShardedCsrWriter`]. Peak memory is one
//! row window's triplets, regardless of event size.
//!
//! [`SamplerGraph::new`]: ../../trkx_sampling/struct.SamplerGraph.html#method.new

use crate::datasets::EventGraph;
use std::path::{Path, PathBuf};
use trkx_sparse::{Coo, ShardedCsrWriter};

/// How many shards each spill pass materialises at once. More shards per
/// pass = fewer scans over the edge list but a larger row window in
/// memory; 64 keeps a full pass comfortably small while bounding the
/// number of scans to `ceil(num_shards / 64)`.
pub const DEFAULT_SHARDS_PER_PASS: usize = 64;

/// Paths of a spilled adjacency pair, ready for
/// `ShardedCsr::open` + `SamplerGraph::from_stores`.
#[derive(Debug, Clone)]
pub struct SpilledAdjacency {
    pub directed: PathBuf,
    pub undirected: PathBuf,
    pub num_nodes: usize,
    pub shard_nodes: usize,
}

/// Spill both adjacency orientations of a directed edge list to
/// `<dir>/<stem>.dir.shard` and `<dir>/<stem>.und.shard`, `shard_nodes`
/// rows per shard, without materialising either full CSR.
pub fn spill_adjacency(
    num_nodes: usize,
    src: &[u32],
    dst: &[u32],
    dir: &Path,
    stem: &str,
    shard_nodes: usize,
) -> std::io::Result<SpilledAdjacency> {
    spill_adjacency_opts(
        num_nodes,
        src,
        dst,
        dir,
        stem,
        shard_nodes,
        DEFAULT_SHARDS_PER_PASS,
    )
}

/// [`spill_adjacency`] with an explicit pass width (shards materialised
/// per edge-list scan).
pub fn spill_adjacency_opts(
    num_nodes: usize,
    src: &[u32],
    dst: &[u32],
    dir: &Path,
    stem: &str,
    shard_nodes: usize,
    shards_per_pass: usize,
) -> std::io::Result<SpilledAdjacency> {
    assert_eq!(src.len(), dst.len(), "edge list length mismatch");
    std::fs::create_dir_all(dir)?;
    let directed = dir.join(format!("{stem}.dir.shard"));
    let undirected = dir.join(format!("{stem}.und.shard"));
    spill_orientation(
        num_nodes,
        src,
        dst,
        &directed,
        shard_nodes,
        shards_per_pass,
        false,
    )?;
    spill_orientation(
        num_nodes,
        src,
        dst,
        &undirected,
        shard_nodes,
        shards_per_pass,
        true,
    )?;
    Ok(SpilledAdjacency {
        directed,
        undirected,
        num_nodes,
        shard_nodes,
    })
}

/// Spill an already-generated event graph's adjacency (features and
/// labels stay wherever the caller keeps them — only the two adjacency
/// CSRs go out of core).
pub fn spill_event_adjacency(
    g: &EventGraph,
    dir: &Path,
    stem: &str,
    shard_nodes: usize,
) -> std::io::Result<SpilledAdjacency> {
    spill_adjacency(g.num_nodes, &g.src, &g.dst, dir, stem, shard_nodes)
}

/// One orientation, written in row-window passes. `symmetrise = true`
/// replicates the undirected construction order exactly: per edge `i`,
/// the `(s, d, i)` triplet is considered before `(d, s, i)`, so each
/// row's pre-sort entry sequence matches the in-core build and
/// `Coo::to_csr` produces bit-identical rows.
fn spill_orientation(
    num_nodes: usize,
    src: &[u32],
    dst: &[u32],
    path: &Path,
    shard_nodes: usize,
    shards_per_pass: usize,
    symmetrise: bool,
) -> std::io::Result<()> {
    let mut w = ShardedCsrWriter::<u32>::create(path, num_nodes, num_nodes, shard_nodes)?;
    let rows_per_pass = shard_nodes.saturating_mul(shards_per_pass.max(1)).max(1);
    let mut lo = 0usize;
    while lo < num_nodes {
        let hi = (lo + rows_per_pass).min(num_nodes);
        let window = lo..hi;
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for (i, (&s, &d)) in src.iter().zip(dst).enumerate() {
            if window.contains(&(s as usize)) {
                rows.push(s - lo as u32);
                cols.push(d);
                vals.push(i as u32);
            }
            if symmetrise && window.contains(&(d as usize)) {
                rows.push(d - lo as u32);
                cols.push(s);
                vals.push(i as u32);
            }
        }
        let local = Coo::new(hi - lo, num_nodes, rows, cols, vals).to_csr();
        for r in 0..hi - lo {
            let (c, v) = local.row(r);
            w.push_row(c, v)?;
        }
        lo = hi;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use trkx_sparse::{Coo, RowStore, ShardedCsr};

    fn tmp_dir() -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let d = std::env::temp_dir().join(format!(
            "trkx-spill-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn in_core_pair(
        n: usize,
        src: &[u32],
        dst: &[u32],
    ) -> (trkx_sparse::Csr<u32>, trkx_sparse::Csr<u32>) {
        let directed = trkx_sparse::adjacency_with_edge_ids(n, src, dst);
        let mut bs = Vec::new();
        let mut bd = Vec::new();
        let mut ids = Vec::new();
        for (i, (&s, &d)) in src.iter().zip(dst).enumerate() {
            bs.push(s);
            bd.push(d);
            ids.push(i as u32);
            bs.push(d);
            bd.push(s);
            ids.push(i as u32);
        }
        (directed, Coo::new(n, n, bs, bd, ids).to_csr())
    }

    fn assert_rows_identical(store: &ShardedCsr<u32>, csr: &trkx_sparse::Csr<u32>) {
        assert_eq!(store.nrows(), csr.nrows());
        assert_eq!(store.nnz(), csr.nnz());
        let rows: Vec<u32> = (0..csr.nrows() as u32).collect();
        let view = store.gather(&rows).unwrap();
        for r in 0..csr.nrows() {
            let (want_c, want_v) = csr.row(r);
            let (c, v) = view.row(r);
            assert_eq!(c, want_c, "cols differ at row {r}");
            assert_eq!(v, want_v, "vals differ at row {r}");
        }
    }

    #[test]
    fn spill_matches_in_core_across_shard_and_pass_sizes() {
        let cfg = DatasetConfig::ex3_like(0.02);
        let g = &cfg.generate(1, 11)[0];
        let (dir_csr, und_csr) = in_core_pair(g.num_nodes, &g.src, &g.dst);
        for (shard_nodes, per_pass) in [(1, 1), (7, 2), (64, 1), (g.num_nodes.max(1), 3)] {
            let d = tmp_dir();
            let spec =
                spill_adjacency_opts(g.num_nodes, &g.src, &g.dst, &d, "ev", shard_nodes, per_pass)
                    .unwrap();
            let ds = ShardedCsr::<u32>::open(&spec.directed, 4).unwrap();
            let us = ShardedCsr::<u32>::open(&spec.undirected, 4).unwrap();
            assert_rows_identical(&ds, &dir_csr);
            assert_rows_identical(&us, &und_csr);
            std::fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn spill_handles_empty_edge_list_and_empty_graph() {
        let d = tmp_dir();
        let spec = spill_adjacency(5, &[], &[], &d, "noedges", 2).unwrap();
        let s = ShardedCsr::<u32>::open(&spec.directed, 1).unwrap();
        assert_eq!((s.nrows(), s.nnz()), (5, 0));
        let spec0 = spill_adjacency(0, &[], &[], &d, "empty", 2).unwrap();
        let s0 = ShardedCsr::<u32>::open(&spec0.directed, 1).unwrap();
        assert_eq!((s0.nrows(), s0.nnz()), (0, 0));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn spill_event_helper_names_files_by_stem() {
        let cfg = DatasetConfig::ex3_like(0.01);
        let g = &cfg.generate(1, 3)[0];
        let d = tmp_dir();
        let spec = spill_event_adjacency(g, &d, "event0", 16).unwrap();
        assert!(spec.directed.ends_with("event0.dir.shard"));
        assert!(spec.undirected.ends_with("event0.und.shard"));
        assert!(spec.directed.exists() && spec.undirected.exists());
        std::fs::remove_dir_all(&d).unwrap();
    }
}
