//! Out-of-core sharded CSR store: fixed node-range shards on disk, an
//! LRU shard cache in memory.
//!
//! A [`ShardedCsr`] splits a CSR matrix into shards of `shard_nodes`
//! consecutive rows; each shard is a self-contained CSR slice
//! (`indptr`/`indices`/`vals`) so a row read touches exactly one shard.
//! Shards live in a single file behind a header and per-shard offset
//! directory, are faulted in on demand, validated with
//! [`Csr::try_from_raw`] (disk bytes are untrusted), and retained in an
//! LRU cache with hit/miss/eviction counters. Row access goes through
//! the [`RowStore`] trait, so samplers cannot tell a sharded graph from
//! an in-core one — except through the counters.
//!
//! A pass that knows its rows up front reads them through
//! [`RowStore::gather`]: the store marks the shards those rows touch,
//! looks each one up once in ascending shard order, and hands back a
//! [`RowView`] holding an `Arc` per touched shard. `gather` is the only
//! read: reading rows one at a time in frontier order would walk the
//! LRU at random and fault a shard on nearly every miss; through a view
//! a pass faults each shard at most once, whatever the cache capacity.
//! A shard that fails to load is that gather's [`StoreError`], naming
//! the file; no read panics on a fault.
//!
//! `open` checks the header's shard count and every directory entry
//! against the file's length, so a corrupt file fails with
//! [`StoreError`] before anything is allocated from a declared length.
//!
//! ## On-disk format (v1, little-endian)
//!
//! ```text
//! magic   8 B   "TRKXSHRD"
//! version u32   1
//! type    u32   0 = u32 values, 1 = f32 values
//! nrows, ncols, nnz, shard_nodes, num_shards   5 x u64
//! directory     num_shards x (offset u64, byte_len u64)
//! shard blob *  indptr (rows+1 x u64) | indices (nnz x u32) | vals (nnz x 4 B)
//! ```
//!
//! Shard `s` covers rows `[s * shard_nodes, min((s+1) * shard_nodes,
//! nrows))` with shard-local `indptr`. Rows keep the exact contents and
//! ordering of the source CSR (columns sorted, as `Coo::to_csr`
//! produces), so subgraphs sampled through a sharded store are
//! bit-identical to in-core sampling.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::csr::{Csr, CsrError};
use crate::store::{CacheCounters, RowStore, RowView};

const MAGIC: &[u8; 8] = b"TRKXSHRD";
const VERSION: u32 = 1;
/// Fixed header size: magic + version + type tag + five u64 fields.
const HEADER_BYTES: u64 = 8 + 4 + 4 + 5 * 8;

/// Value types storable in a shard file (4-byte payloads).
pub trait ShardValue: Copy + Default + Send + Sync + std::fmt::Debug + 'static {
    /// Type tag recorded in the header so a file can't be reopened at
    /// the wrong type.
    const TYPE_TAG: u32;
    fn to_le(self) -> [u8; 4];
    fn from_le(b: [u8; 4]) -> Self;
}

impl ShardValue for u32 {
    const TYPE_TAG: u32 = 0;
    fn to_le(self) -> [u8; 4] {
        self.to_le_bytes()
    }
    fn from_le(b: [u8; 4]) -> Self {
        u32::from_le_bytes(b)
    }
}

impl ShardValue for f32 {
    const TYPE_TAG: u32 = 1;
    fn to_le(self) -> [u8; 4] {
        self.to_le_bytes()
    }
    fn from_le(b: [u8; 4]) -> Self {
        f32::from_le_bytes(b)
    }
}

/// Failure opening or reading a shard file.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    /// Structural corruption: bad magic/version/type, truncated blobs,
    /// or CSR invariants violated inside a shard.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "shard store I/O error: {e}"),
            StoreError::Corrupt(m) => write!(f, "shard store corrupt: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CsrError> for StoreError {
    fn from(e: CsrError) -> Self {
        StoreError::Corrupt(e.to_string())
    }
}

/// Streaming writer: feed rows in order, shards are flushed to disk as
/// their node range completes — the full matrix is never resident.
pub struct ShardedCsrWriter<T: ShardValue> {
    file: BufWriter<File>,
    path: PathBuf,
    nrows: usize,
    ncols: usize,
    shard_nodes: usize,
    num_shards: usize,
    directory: Vec<(u64, u64)>,
    next_row: usize,
    nnz: u64,
    cursor: u64,
    cur_indptr: Vec<u64>,
    cur_cols: Vec<u32>,
    cur_vals: Vec<T>,
}

impl<T: ShardValue> ShardedCsrWriter<T> {
    /// Create `path`, reserving space for the header and directory
    /// (patched with real offsets by [`Self::finish`]).
    pub fn create(
        path: impl AsRef<Path>,
        nrows: usize,
        ncols: usize,
        shard_nodes: usize,
    ) -> std::io::Result<Self> {
        assert!(shard_nodes >= 1, "shard_nodes must be at least 1");
        let num_shards = nrows.div_ceil(shard_nodes);
        let mut file = BufWriter::new(File::create(path.as_ref())?);
        let dir_bytes = num_shards as u64 * 16;
        // Placeholder header + directory; finish() seeks back over them.
        file.write_all(&vec![0u8; (HEADER_BYTES + dir_bytes) as usize])?;
        Ok(Self {
            file,
            path: path.as_ref().to_path_buf(),
            nrows,
            ncols,
            shard_nodes,
            num_shards,
            directory: Vec::with_capacity(num_shards),
            next_row: 0,
            nnz: 0,
            cursor: HEADER_BYTES + dir_bytes,
            cur_indptr: vec![0],
            cur_cols: Vec::new(),
            cur_vals: Vec::new(),
        })
    }

    /// Append the next row (rows must arrive in order, exactly `nrows`
    /// of them). Flushes the current shard when its range completes.
    pub fn push_row(&mut self, cols: &[u32], vals: &[T]) -> std::io::Result<()> {
        assert!(self.next_row < self.nrows, "more rows than declared");
        assert_eq!(cols.len(), vals.len(), "cols/vals length mismatch");
        debug_assert!(
            cols.iter().all(|&c| (c as usize) < self.ncols),
            "column out of range"
        );
        self.cur_cols.extend_from_slice(cols);
        self.cur_vals.extend_from_slice(vals);
        self.cur_indptr.push(self.cur_cols.len() as u64);
        self.nnz += cols.len() as u64;
        self.next_row += 1;
        if self.next_row.is_multiple_of(self.shard_nodes) || self.next_row == self.nrows {
            self.flush_shard()?;
        }
        Ok(())
    }

    fn flush_shard(&mut self) -> std::io::Result<()> {
        let blob_len = self.cur_indptr.len() as u64 * 8
            + self.cur_cols.len() as u64 * 4
            + self.cur_vals.len() as u64 * 4;
        self.directory.push((self.cursor, blob_len));
        for &p in &self.cur_indptr {
            self.file.write_all(&p.to_le_bytes())?;
        }
        for &c in &self.cur_cols {
            self.file.write_all(&c.to_le_bytes())?;
        }
        for &v in &self.cur_vals {
            self.file.write_all(&v.to_le())?;
        }
        self.cursor += blob_len;
        self.cur_indptr.clear();
        self.cur_indptr.push(0);
        self.cur_cols.clear();
        self.cur_vals.clear();
        Ok(())
    }

    /// Finalize: all rows must have been pushed. Patches the header and
    /// shard directory at the front of the file.
    pub fn finish(self) -> std::io::Result<()> {
        assert_eq!(
            self.next_row, self.nrows,
            "finish() before all rows were pushed"
        );
        debug_assert_eq!(self.directory.len(), self.num_shards);
        let mut file = self.file.into_inner()?;
        file.seek(SeekFrom::Start(0))?;
        let mut head = Vec::with_capacity((HEADER_BYTES + self.num_shards as u64 * 16) as usize);
        head.extend_from_slice(MAGIC);
        head.extend_from_slice(&VERSION.to_le_bytes());
        head.extend_from_slice(&T::TYPE_TAG.to_le_bytes());
        for v in [
            self.nrows as u64,
            self.ncols as u64,
            self.nnz,
            self.shard_nodes as u64,
            self.num_shards as u64,
        ] {
            head.extend_from_slice(&v.to_le_bytes());
        }
        for &(off, len) in &self.directory {
            head.extend_from_slice(&off.to_le_bytes());
            head.extend_from_slice(&len.to_le_bytes());
        }
        file.write_all(&head)?;
        file.sync_all()?;
        let _ = &self.path;
        Ok(())
    }
}

/// Write an in-core CSR out as a shard file (row order preserved).
pub fn write_csr_sharded<T: ShardValue>(
    csr: &Csr<T>,
    path: impl AsRef<Path>,
    shard_nodes: usize,
) -> std::io::Result<()> {
    let mut w = ShardedCsrWriter::create(path, csr.nrows(), csr.ncols(), shard_nodes)?;
    for r in 0..csr.nrows() {
        let (cols, vals) = csr.row(r);
        w.push_row(cols, vals)?;
    }
    w.finish()
}

/// LRU state behind one mutex: the file handle (shard faults are
/// serialized, and the sampling thread that takes one pays for it in its
/// epoch's sampling time) and the resident shard map with recency ticks.
struct CacheState<T> {
    file: File,
    shards: HashMap<usize, (u64, Arc<Csr<T>>)>,
    tick: u64,
}

/// File-backed sharded CSR with an LRU shard cache. See the module docs
/// for the format; access rows through [`RowStore`].
pub struct ShardedCsr<T: ShardValue> {
    path: PathBuf,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    shard_nodes: usize,
    directory: Vec<(u64, u64)>,
    capacity: usize,
    state: Mutex<CacheState<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<T: ShardValue> std::fmt::Debug for ShardedCsr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCsr")
            .field("path", &self.path)
            .field("nrows", &self.nrows)
            .field("ncols", &self.ncols)
            .field("nnz", &self.nnz)
            .field("shard_nodes", &self.shard_nodes)
            .field("num_shards", &self.directory.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

impl<T: ShardValue> ShardedCsr<T> {
    /// Open a shard file, validating the header and directory against
    /// the file's length (nothing is allocated from a declared length
    /// before that check).
    ///
    /// `cache_shards` is the LRU capacity in shards (use `usize::MAX`
    /// for effectively unbounded); it is clamped to at least 1 since
    /// the shard being read must be resident. It bounds the shards the
    /// *cache* retains, not the shards resident: a [`RowView`] from
    /// [`RowStore::gather`] holds every shard its rows touch until it is
    /// dropped, even beyond this capacity. Callers hold a view for one
    /// pass (a walk step, an extraction pass), so the extra memory is at
    /// most the shards that pass touches.
    pub fn open(path: impl AsRef<Path>, cache_shards: usize) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let mut head = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut head).map_err(|e| {
            StoreError::Corrupt(format!("{}: truncated header ({e})", path.display()))
        })?;
        if &head[0..8] != MAGIC {
            return Err(StoreError::Corrupt(format!(
                "{}: bad magic {:?}",
                path.display(),
                &head[0..8]
            )));
        }
        let version = u32::from_le_bytes(head[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(StoreError::Corrupt(format!(
                "{}: unsupported version {version} (expected {VERSION})",
                path.display()
            )));
        }
        let tag = u32::from_le_bytes(head[12..16].try_into().unwrap());
        if tag != T::TYPE_TAG {
            return Err(StoreError::Corrupt(format!(
                "{}: value type tag {tag} does not match requested type (tag {})",
                path.display(),
                T::TYPE_TAG
            )));
        }
        let nrows = read_u64(&head, 16) as usize;
        let ncols = read_u64(&head, 24) as usize;
        let nnz = read_u64(&head, 32) as usize;
        let shard_nodes = read_u64(&head, 40) as usize;
        let num_shards = read_u64(&head, 48) as usize;
        // The writer never writes 0, even for an empty matrix.
        if shard_nodes == 0 {
            return Err(StoreError::Corrupt(format!(
                "{}: shard_nodes is 0",
                path.display()
            )));
        }
        if num_shards != nrows.div_ceil(shard_nodes) {
            return Err(StoreError::Corrupt(format!(
                "{}: num_shards {num_shards} inconsistent with {nrows} rows / {shard_nodes} per shard",
                path.display()
            )));
        }
        // The directory must fit in the file before it is allocated: a
        // header may declare any shard count.
        let dir_len = num_shards
            .checked_mul(16)
            .filter(|&n| {
                HEADER_BYTES
                    .checked_add(n as u64)
                    .is_some_and(|end| end <= file_len)
            })
            .ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "{}: truncated directory ({num_shards} shards do not fit in {file_len} bytes)",
                    path.display()
                ))
            })?;
        let mut dir_bytes = vec![0u8; dir_len];
        file.read_exact(&mut dir_bytes).map_err(|e| {
            StoreError::Corrupt(format!("{}: truncated directory ({e})", path.display()))
        })?;
        let directory: Vec<(u64, u64)> = (0..num_shards)
            .map(|s| {
                (
                    read_u64(&dir_bytes, s * 16),
                    read_u64(&dir_bytes, s * 16 + 8),
                )
            })
            .collect();
        // Every blob must lie inside the file, so a fault never
        // allocates more than the file holds.
        if let Some((s, &(off, len))) = directory
            .iter()
            .enumerate()
            .find(|&(_, &(off, len))| off.checked_add(len).is_none_or(|end| end > file_len))
        {
            return Err(StoreError::Corrupt(format!(
                "{}: shard {s}: truncated blob ({len} bytes at offset {off} in a {file_len}-byte file)",
                path.display()
            )));
        }
        Ok(Self {
            path,
            nrows,
            ncols,
            nnz,
            shard_nodes,
            directory,
            capacity: cache_shards.max(1),
            state: Mutex::new(CacheState {
                file,
                shards: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn num_shards(&self) -> usize {
        self.directory.len()
    }

    pub fn shard_nodes(&self) -> usize {
        self.shard_nodes
    }

    /// Rows covered by shard `sid`.
    fn shard_rows(&self, sid: usize) -> usize {
        let start = sid * self.shard_nodes;
        self.shard_nodes.min(self.nrows - start)
    }

    fn load_shard(&self, file: &mut File, sid: usize) -> Result<Csr<T>, StoreError> {
        let (off, len) = self.directory[sid];
        let rows = self.shard_rows(sid);
        let corrupt =
            |m: String| StoreError::Corrupt(format!("{} shard {sid}: {m}", self.path.display()));
        // `rows` comes from the header: a huge declared row count must
        // fail here, not wrap.
        let indptr_bytes = (rows as u64).saturating_add(1).saturating_mul(8);
        if len < indptr_bytes {
            return Err(corrupt(format!(
                "blob too short for indptr ({len} < {indptr_bytes} bytes)"
            )));
        }
        // `open` checked `off + len` against the file length.
        let mut blob = vec![0u8; len as usize];
        file.seek(SeekFrom::Start(off)).map_err(|e| {
            let at = format!("{} shard {sid}: {e}", self.path.display());
            StoreError::Io(std::io::Error::new(e.kind(), at))
        })?;
        file.read_exact(&mut blob)
            .map_err(|e| corrupt(format!("truncated blob ({e})")))?;
        let indptr: Vec<usize> = (0..=rows)
            .map(|i| read_u64(&blob, i * 8) as usize)
            .collect();
        let snnz = *indptr.last().unwrap();
        let expect = (snnz as u64)
            .checked_mul(8)
            .and_then(|b| b.checked_add(indptr_bytes));
        if expect != Some(len) {
            return Err(corrupt(format!(
                "blob length {len} does not hold {snnz} entries after the indptr"
            )));
        }
        let cols_at = indptr_bytes as usize;
        let vals_at = cols_at + snnz * 4;
        let indices: Vec<u32> = (0..snnz)
            .map(|i| {
                u32::from_le_bytes(
                    blob[cols_at + i * 4..cols_at + i * 4 + 4]
                        .try_into()
                        .unwrap(),
                )
            })
            .collect();
        let vals: Vec<T> = (0..snnz)
            .map(|i| {
                T::from_le(
                    blob[vals_at + i * 4..vals_at + i * 4 + 4]
                        .try_into()
                        .unwrap(),
                )
            })
            .collect();
        // Always-on CSR validation: disk bytes are untrusted.
        Csr::try_from_raw(rows, self.ncols, indptr, indices, vals)
            .map_err(|e| corrupt(e.to_string()))
    }

    /// Fault in (or fetch from cache) shard `sid`: the one lookup
    /// [`RowStore::gather`] makes per touched shard, public for callers
    /// that want a single shard. A `sid` past the last shard is an
    /// error, not a panic.
    pub fn shard(&self, sid: usize) -> Result<Arc<Csr<T>>, StoreError> {
        if sid >= self.num_shards() {
            return Err(StoreError::Corrupt(format!(
                "{}: shard {sid} out of range ({} shards)",
                self.path.display(),
                self.num_shards()
            )));
        }
        let mut st = self.state.lock().unwrap();
        st.tick += 1;
        let tick = st.tick;
        if let Some((t, arc)) = st.shards.get_mut(&sid) {
            *t = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(arc.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let csr = self.load_shard(&mut st.file, sid)?;
        let arc = Arc::new(csr);
        st.shards.insert(sid, (tick, arc.clone()));
        if st.shards.len() > self.capacity {
            // Evict the least-recently-used shard other than the one
            // just faulted in.
            if let Some(victim) = st
                .shards
                .iter()
                .filter(|&(&k, _)| k != sid)
                .min_by_key(|&(_, &(t, _))| t)
                .map(|(&k, _)| k)
            {
                st.shards.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(arc)
    }

    fn shard_of_row(&self, r: usize) -> usize {
        assert!(r < self.nrows, "row {r} out of range ({} rows)", self.nrows);
        r / self.shard_nodes
    }

    fn cache_counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl<T: ShardValue> RowStore<T> for ShardedCsr<T> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    /// Marks the shards `rows` touch in a `num_shards`-sized bitmap, then
    /// looks each marked shard up once, in ascending order, through
    /// [`ShardedCsr::shard`] — so the LRU and its counters see one lookup
    /// per touched shard, however many rows land in it.
    fn gather(&self, rows: &[u32]) -> Result<RowView<'_, T>, StoreError> {
        let mut touched = vec![false; self.num_shards()];
        let mut unmarked = touched.len();
        for &r in rows {
            // Once every shard is marked the remaining rows cannot add
            // one; `RowView::row` still range-checks whatever is read.
            if unmarked == 0 {
                break;
            }
            let sid = self.shard_of_row(r as usize);
            if !touched[sid] {
                touched[sid] = true;
                unmarked -= 1;
            }
        }
        let shards = touched
            .iter()
            .enumerate()
            .map(|(sid, &t)| t.then(|| self.shard(sid)).transpose())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RowView::from_shards(self.shard_nodes, shards))
    }

    fn counters(&self) -> Option<CacheCounters> {
        Some(self.cache_counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::adjacency_with_edge_ids;
    use crate::store::RowStoreExt;
    use std::sync::atomic::AtomicUsize;

    fn all_rows(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    static TEMP_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_path(tag: &str) -> PathBuf {
        let n = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("trkx-sharded-{}-{tag}-{n}.bin", std::process::id()))
    }

    fn sample_csr() -> Csr<u32> {
        // 10 vertices, a mix of degrees including empty rows.
        adjacency_with_edge_ids(
            10,
            &[0, 0, 0, 1, 2, 4, 4, 7, 9, 9],
            &[1, 2, 9, 3, 4, 5, 0, 8, 0, 4],
        )
    }

    fn roundtrip(shard_nodes: usize, cache: usize) -> (ShardedCsr<u32>, Csr<u32>, PathBuf) {
        let a = sample_csr();
        let path = temp_path("rt");
        write_csr_sharded(&a, &path, shard_nodes).unwrap();
        let s = ShardedCsr::<u32>::open(&path, cache).unwrap();
        (s, a, path)
    }

    #[test]
    fn roundtrip_rows_bit_identical() {
        for shard_nodes in [1, 3, 7, 10, 64] {
            let (s, a, path) = roundtrip(shard_nodes, usize::MAX);
            assert_eq!(s.nrows(), a.nrows());
            assert_eq!(s.nnz(), a.nnz());
            let view = s.gather(&all_rows(a.nrows())).unwrap();
            for r in 0..a.nrows() {
                let (cols, vals) = a.row(r);
                assert_eq!(
                    view.row(r),
                    (cols, vals),
                    "shard_nodes {shard_nodes} row {r}"
                );
                assert_eq!(view.row(r).0.len(), a.row_nnz(r));
                // The benchmark's one-row adapter reads the same row.
                let (scols, svals) = s.row_scope(r, |c, v| (c.to_vec(), v.to_vec()));
                assert_eq!((&scols[..], &svals[..]), (cols, vals));
            }
            for (r, c, want) in [(0usize, 9u32, Some(2u32)), (1, 3, Some(3)), (3, 3, None)] {
                assert_eq!(view.get(r, c), want);
            }
            drop(view);
            let sel = [9u32, 0, 5, 0];
            let view = s.gather(&sel).unwrap();
            for &r in &sel {
                assert_eq!(view.row(r as usize), a.row(r as usize));
            }
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn gather_faults_each_touched_shard_once() {
        // Shuffled, duplicated rows over a cold store: one miss per
        // distinct shard touched, no hits, at every cache capacity —
        // including capacities smaller than the shards touched.
        let plans: [&[u32]; 3] = [
            &[9, 0, 8, 1, 9, 4, 0, 5, 8],
            &[3, 3, 3],
            &[9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 9],
        ];
        for shard_nodes in [1usize, 2, 3] {
            for cache in [1usize, 2, usize::MAX] {
                for rows in plans {
                    let (s, a, path) = roundtrip(shard_nodes, cache);
                    let mut distinct: Vec<usize> =
                        rows.iter().map(|&r| r as usize / shard_nodes).collect();
                    distinct.sort_unstable();
                    distinct.dedup();
                    let view = s.gather(rows).unwrap();
                    let c = s.counters().unwrap();
                    let at = format!("shard_nodes {shard_nodes} cache {cache} rows {rows:?}");
                    assert_eq!(c.misses, distinct.len() as u64, "{at}");
                    assert_eq!(c.hits, 0, "{at}");
                    for &r in rows {
                        assert_eq!(view.row(r as usize), a.row(r as usize), "{at}");
                    }
                    // Reading through the view is not a lookup.
                    assert_eq!(s.counters().unwrap(), c, "{at}");
                    std::fs::remove_file(path).ok();
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not gathered")]
    fn view_rejects_a_row_it_did_not_gather() {
        let (s, _a, path) = roundtrip(2, usize::MAX);
        let view = s.gather(&[0]).unwrap();
        std::fs::remove_file(path).ok();
        view.row(9);
    }

    #[test]
    fn lru_cache_counts_and_evicts() {
        // shard_nodes=2 over 10 rows -> 5 shards; capacity 2.
        let (s, _a, path) = roundtrip(2, 2);
        // One-row gathers, one lookup each. Touch shards 0,1 (miss,
        // miss), re-touch 0 (hit), then 2 evicts 1.
        let read = |r: u32| drop(s.gather(&[r]).unwrap());
        read(0);
        read(2);
        read(1);
        read(4);
        let c = s.counters().unwrap();
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 3);
        assert_eq!(c.evictions, 1);
        // Shard 2 (rows 4-5) stayed resident; shard 1 was the LRU victim.
        read(5);
        assert_eq!(s.counters().unwrap().hits, 2);
        read(2);
        assert_eq!(s.counters().unwrap().misses, 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn capacity_one_thrashes_but_stays_correct() {
        let (s, a, path) = roundtrip(1, 1);
        for r in 0..a.nrows() {
            let view = s.gather(&[r as u32]).unwrap();
            assert_eq!(view.row(r), a.row(r));
        }
        let c = s.counters().unwrap();
        assert_eq!(c.misses, 10);
        assert_eq!(c.evictions, 9);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_matrix_and_empty_shards() {
        let a: Csr<u32> = Csr::empty(6, 6);
        let path = temp_path("empty");
        write_csr_sharded(&a, &path, 2).unwrap();
        let s = ShardedCsr::<u32>::open(&path, 1).unwrap();
        assert_eq!(s.nrows(), 6);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.num_shards(), 3);
        let view = s.gather(&all_rows(6)).unwrap();
        for r in 0..6 {
            let (c, v) = view.row(r);
            assert!(c.is_empty() && v.is_empty());
        }
        drop(view);
        std::fs::remove_file(&path).ok();

        let z: Csr<u32> = Csr::empty(0, 0);
        let pz = temp_path("zero");
        write_csr_sharded(&z, &pz, 4).unwrap();
        let sz = ShardedCsr::<u32>::open(&pz, 1).unwrap();
        assert_eq!(sz.nrows(), 0);
        assert_eq!(sz.num_shards(), 0);
        std::fs::remove_file(pz).ok();
    }

    #[test]
    fn f32_values_roundtrip() {
        let a = crate::csr::adjacency_binary(4, &[0, 1, 3], &[1, 2, 0]);
        let path = temp_path("f32");
        write_csr_sharded(&a, &path, 2).unwrap();
        let s = ShardedCsr::<f32>::open(&path, usize::MAX).unwrap();
        let view = s.gather(&all_rows(4)).unwrap();
        for r in 0..4 {
            assert_eq!(view.row(r), a.row(r));
        }
        drop(view);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn wrong_type_tag_rejected() {
        let a = sample_csr();
        let path = temp_path("tag");
        write_csr_sharded(&a, &path, 4).unwrap();
        let err = ShardedCsr::<f32>::open(&path, 1).expect_err("u32 file opened as f32");
        assert!(err.to_string().contains("type tag"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_magic_and_truncation_rejected() {
        let a = sample_csr();
        let path = temp_path("magic");
        write_csr_sharded(&a, &path, 4).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        let mut flipped = bytes.clone();
        flipped[0] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        let err = ShardedCsr::<u32>::open(&path, 1).expect_err("bad magic");
        assert!(err.to_string().contains("bad magic"), "{err}");

        // Truncated mid-header.
        std::fs::write(&path, &bytes[..10]).unwrap();
        let err = ShardedCsr::<u32>::open(&path, 1).expect_err("short header");
        assert!(err.to_string().contains("truncated header"), "{err}");

        // Truncated mid-directory.
        std::fs::write(&path, &bytes[..HEADER_BYTES as usize + 5]).unwrap();
        let err = ShardedCsr::<u32>::open(&path, 1).expect_err("short directory");
        assert!(err.to_string().contains("truncated directory"), "{err}");

        // Truncated mid-blob: header + directory intact, last shard cut.
        // The directory entry no longer fits the file, so open says so.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = ShardedCsr::<u32>::open(&path, 1).expect_err("truncated shard blob");
        assert!(err.to_string().contains("truncated blob"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn declared_lengths_beyond_the_file_are_errors_not_aborts() {
        let a = sample_csr();
        let path = temp_path("huge");
        write_csr_sharded(&a, &path, 4).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let patched = |edits: &[(usize, u64)]| {
            let mut b = bytes.clone();
            for &(at, v) in edits {
                b[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
            std::fs::write(&path, &b).unwrap();
            ShardedCsr::<u32>::open(&path, 1)
        };
        // Header fields: nrows at 16, shard_nodes at 40, num_shards at 48.
        // 2^40 one-row shards: a 16 TiB directory, consistent with nrows.
        let err = patched(&[(16, 1 << 40), (40, 1), (48, 1 << 40)]).expect_err("2^40 rows");
        assert!(err.to_string().contains("truncated directory"), "{err}");
        // 2^60 shards: `num_shards * 16` overflows.
        let err = patched(&[(16, 1 << 60), (40, 1), (48, 1 << 60)]).expect_err("2^60 shards");
        assert!(err.to_string().contains("truncated directory"), "{err}");
        // Empty matrix declaring shards anyway.
        let err = patched(&[(16, 0), (48, 1 << 40)]).expect_err("shards of nothing");
        assert!(err.to_string().contains("inconsistent"), "{err}");
        // One shard whose indptr alone would be 8 TiB: its (real) blob
        // is too short, and the fault says so before allocating.
        let s = patched(&[(16, 1 << 40), (40, 1 << 40), (48, 1)]).unwrap();
        let err = s.shard(0).expect_err("8 TiB indptr");
        assert!(err.to_string().contains("too short"), "{err}");
        // A directory entry claiming u64::MAX / 2 bytes.
        let dir_len_at = HEADER_BYTES as usize + 8;
        let err = patched(&[(dir_len_at, u64::MAX / 2)]).expect_err("huge blob length");
        assert!(err.to_string().contains("truncated blob"), "{err}");
        // Offset + length wrapping past u64::MAX.
        let err = patched(&[(dir_len_at - 8, u64::MAX), (dir_len_at, 16)]).expect_err("wrap");
        assert!(err.to_string().contains("truncated blob"), "{err}");

        std::fs::write(&path, &bytes).unwrap();
        let s = ShardedCsr::<u32>::open(&path, 1).unwrap();
        let err = s.shard(s.num_shards()).expect_err("shard past the end");
        assert!(err.to_string().contains("out of range"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn point_lookup_past_the_last_row_panics() {
        // Row 11 of 10 lands in the last (partial) shard's range; the
        // lookup names the row instead of failing on a shard slice.
        let (s, _a, path) = roundtrip(4, usize::MAX);
        std::fs::remove_file(path).ok();
        let _ = s.gather(&[11]);
    }

    #[test]
    fn corrupt_shard_indptr_rejected() {
        let a = sample_csr();
        let path = temp_path("indptr");
        write_csr_sharded(&a, &path, 10).unwrap(); // one shard, rows 0..10
        let mut bytes = std::fs::read(&path).unwrap();
        // Shard blob starts right after header + 1-entry directory;
        // overwrite indptr[1] with a value exceeding indptr[2] so the
        // nondecreasing check trips.
        let blob_at = (HEADER_BYTES + 16) as usize;
        bytes[blob_at + 8..blob_at + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let s = ShardedCsr::<u32>::open(&path, 1).unwrap();
        let err = s.shard(0).expect_err("corrupt indptr");
        assert!(err.to_string().contains("invalid CSR"), "{err}");
        // A read is a gather, and a gather reports the fault, naming the
        // file, instead of panicking.
        let err = s.gather(&[3]).expect_err("gather over a corrupt shard");
        assert!(err.to_string().contains(&*path.to_string_lossy()), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_column_index_rejected() {
        let a = sample_csr();
        let path = temp_path("col");
        write_csr_sharded(&a, &path, 10).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // First column entry lives right after the 11-entry indptr.
        let col_at = (HEADER_BYTES + 16) as usize + 11 * 8;
        bytes[col_at..col_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let s = ShardedCsr::<u32>::open(&path, 1).unwrap();
        let err = s.shard(0).expect_err("column out of range");
        assert!(err.to_string().contains("out of range"), "{err}");
        std::fs::remove_file(path).ok();
    }
}
