//! The mount point: `/mnt/aggregatenvm` as seen by one compute node.
//!
//! Implements the paper's §III-D data path:
//!
//! * **reads** resolve to chunk fetches; a miss pulls the whole 256 KiB
//!   chunk from its benefactor into the node's LRU cache, so subsequent
//!   byte accesses in the chunk are hits (this *is* the read-ahead effect
//!   Table III credits NVMalloc with); sequential streams additionally
//!   prefetch ahead asynchronously;
//! * **writes** fetch the target chunk on a miss (read-modify-write),
//!   update it in cache and mark 4 KiB pages dirty;
//! * **eviction** (LRU) ships only the dirty pages to the owning
//!   benefactor — the write optimization of Table VII — or the whole
//!   chunk when `dirty_page_writeback` is disabled for the ablation.
//!
//! Requests reaching this layer are counted at OS-page granularity, the
//! same units the paper's Table IV/VII report for "requests to FUSE":
//! mmap faults and page-cache write-backs arrive page-sized.

use crate::cache::{CacheEntry, ChunkCache, ChunkKey};
use chunkstore::{
    AggregateStore, BatchWrite, FileId, LocationCache, PlacementPolicy, Result, StoreError,
    StripeSpec,
};
use obs::{Layer, TraceRecorder};
use parking_lot::Mutex;
use simcore::{Counter, StatsRegistry, VTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Push-updated gauge cells for the metrics sampler (DESIGN.md §14.3).
///
/// Sampler probes must not take the mount's state lock — mount operations
/// hold it across store calls, and store calls are exactly where sampling
/// fires. Instead the mount *pushes* fresh values into these shared
/// atomics at the end of every data-path operation, and cluster-wide
/// probes aggregate the cells lock-free.
#[derive(Clone, Debug, Default)]
pub struct MountGauges {
    /// Dirty cached chunks, in permille of cache capacity.
    pub dirty_permille: Arc<AtomicU64>,
    /// Chunks in the segmented cache's protected segment (0 when the
    /// plain LRU is in use).
    pub protected_chunks: Arc<AtomicU64>,
}

/// Mount configuration (per compute node).
#[derive(Clone, Copy, Debug)]
pub struct FuseConfig {
    /// Client cache size in bytes; the paper's evaluation uses 64 MiB.
    pub cache_bytes: u64,
    /// Chunks to prefetch ahead of a detected sequential read stream.
    pub read_ahead_chunks: usize,
    /// Ship only dirty pages at eviction (true = the paper's optimization;
    /// false = whole-chunk write-back, the Table VII baseline).
    pub dirty_page_writeback: bool,
    /// User/kernel crossing cost charged per FUSE operation.
    pub op_overhead: VTime,
    /// Overlapped data path (DESIGN.md §8): multi-chunk spans fetch and
    /// flush through the store's batched APIs (one manager RPC per batch,
    /// per-benefactor chains overlapped, chunk-location cache), dirty
    /// eviction becomes asynchronous, and read-ahead depth ramps
    /// 1→`read_ahead_chunks` on a sustained stream. Off by default so the
    /// paper-fidelity benches keep the serial §III-D data path.
    pub pipelined_io: bool,
    /// Write-back daemon (DESIGN.md §10): when the dirty-chunk ratio of
    /// the cache exceeds this, a background flusher batch starts cleaning
    /// the oldest dirty chunks without charging the foreground clock.
    /// `1.0` (the default) disables the daemon — dirty chunks are only
    /// written back at eviction, today's demand path.
    pub dirty_background_ratio: f64,
    /// When the dirty-chunk ratio would exceed this, foreground writers
    /// stall behind the flusher until it drains (the Linux
    /// `balance_dirty_pages` analogue). `1.0` (the default) never
    /// throttles. Must be >= `dirty_background_ratio`.
    pub dirty_hard_ratio: f64,
    /// Segmented (probation/protected) scan-resistant cache with
    /// clean-first victim selection (DESIGN.md §10). Off by default: the
    /// plain LRU keeps the paper-fidelity expectations bit-identical.
    pub seg_cache: bool,
}

impl Default for FuseConfig {
    fn default() -> Self {
        FuseConfig {
            cache_bytes: 64 * 1024 * 1024,
            read_ahead_chunks: 1,
            dirty_page_writeback: true,
            op_overhead: VTime::from_micros(4),
            pipelined_io: false,
            dirty_background_ratio: 1.0,
            dirty_hard_ratio: 1.0,
            seg_cache: false,
        }
    }
}

impl FuseConfig {
    /// Enable the write-back daemon: background flushing past
    /// `background` dirty ratio, writer throttling past `hard`.
    pub fn with_writeback(mut self, background: f64, hard: f64) -> Self {
        self.dirty_background_ratio = background;
        self.dirty_hard_ratio = hard;
        self
    }

    /// Enable the segmented scan-resistant cache.
    pub fn with_seg_cache(mut self) -> Self {
        self.seg_cache = true;
        self
    }
}

/// How many concurrent sequential streams per file the read-ahead
/// detector tracks (one mmap'd file is commonly streamed by every process
/// on the node at different offsets).
const SEQ_CURSORS: usize = 16;

struct MountState {
    cache: ChunkCache,
    /// Per-file `(expected next offset, streak length)` of detected
    /// streams (read-ahead detector); newest cursor last. The streak
    /// counts consecutive continuations and drives the adaptive
    /// read-ahead ramp in pipelined mode.
    seq: HashMap<FileId, Vec<(u64, u32)>>,
    /// When the background flusher's in-flight batch completes; the
    /// daemon is idle (can take a new batch) at any `t >=` this.
    flusher_busy_until: VTime,
}

impl MountState {
    /// Record a read `[offset, end)`; returns the stream's streak length:
    /// 0 for a fresh cursor, `n ≥ 1` after `n` consecutive continuations.
    fn note_read(&mut self, file: FileId, offset: u64, end: u64) -> u32 {
        let cursors = self.seq.entry(file).or_default();
        if let Some(pos) = cursors.iter().position(|&(c, _)| c == offset) {
            let (_, streak) = cursors.remove(pos);
            let streak = streak.saturating_add(1);
            cursors.push((end, streak));
            streak
        } else {
            if cursors.len() >= SEQ_CURSORS {
                cursors.remove(0);
            }
            cursors.push((end, 0));
            0
        }
    }
}

/// One chunk-aligned piece of a byte span: where it sits in the chunk and
/// where it sits in the caller's buffer.
#[derive(Clone, Copy, Debug)]
struct Seg {
    idx: usize,
    within: usize,
    pos: usize,
    take: usize,
}

/// Split `[offset, offset+len)` into chunk-aligned segments, with caller
/// buffer positions starting at `pos_base`.
fn segments_of(offset: u64, len: u64, cs: u64, pos_base: usize) -> impl Iterator<Item = Seg> {
    let mut pos = 0u64;
    std::iter::from_fn(move || {
        if pos >= len {
            return None;
        }
        let abs = offset + pos;
        let take = (cs - abs % cs).min(len - pos);
        let seg = Seg {
            idx: (abs / cs) as usize,
            within: (abs % cs) as usize,
            pos: pos_base + pos as usize,
            take: take as usize,
        };
        pos += take;
        Some(seg)
    })
}

/// Direction of a span: fill the caller's buffer from cache, or apply the
/// caller's data to cache (marking dirty pages).
enum SpanIo<'a> {
    Read(&'a mut [u8]),
    Write(&'a [u8]),
}

/// One batched-write entry per chunk key, borrowing its write-back runs.
fn batch_writes<'a>(
    keys: impl Iterator<Item = ChunkKey>,
    updates: &'a [Vec<(u64, &'a [u8])>],
) -> Vec<BatchWrite<'a>> {
    keys.zip(updates)
        .map(|((file, idx), u)| BatchWrite {
            file,
            idx,
            updates: u,
        })
        .collect()
}

/// Payload bytes in one chunk's write-back runs.
fn run_bytes(runs: &[(u64, &[u8])]) -> u64 {
    runs.iter().map(|(_, d)| d.len() as u64).sum()
}

/// A node's view of the aggregate store. Shared by all processes on the
/// node — that sharing is what makes the paper's "shared mmap file"
/// optimization effective.
#[derive(Clone)]
pub struct Mount {
    store: AggregateStore,
    node: usize,
    cfg: FuseConfig,
    state: Arc<Mutex<MountState>>,
    /// Client-side chunk-location cache feeding the batched fetch path
    /// (only consulted when `pipelined_io` is on).
    loc_cache: LocationCache,
    trace: TraceRecorder,
    read_req_bytes: Counter,
    write_req_bytes: Counter,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    writeback_bytes: Counter,
    readahead_fetches: Counter,
    async_writebacks: Counter,
    bg_flushes: Counter,
    bg_writeback_bytes: Counter,
    throttled_writes: Counter,
    clean_evictions: Counter,
    scan_protected_hits: Counter,
    gauges: Option<MountGauges>,
}

impl Mount {
    pub fn new(store: AggregateStore, node: usize, cfg: FuseConfig, stats: &StatsRegistry) -> Self {
        let chunk = store.config().chunk_size;
        let page = store.config().page_size;
        let capacity = (cfg.cache_bytes / chunk).max(1) as usize;
        assert!(
            cfg.dirty_background_ratio > 0.0 && cfg.dirty_background_ratio <= 1.0,
            "dirty_background_ratio out of (0, 1]"
        );
        assert!(
            cfg.dirty_hard_ratio >= cfg.dirty_background_ratio && cfg.dirty_hard_ratio <= 1.0,
            "dirty_hard_ratio must be within [dirty_background_ratio, 1]"
        );
        let pages = (chunk / page) as usize;
        let cache = if cfg.seg_cache {
            ChunkCache::new_segmented(capacity, pages)
        } else {
            ChunkCache::new(capacity, pages)
        };
        Mount {
            store,
            node,
            cfg,
            state: Arc::new(Mutex::new(MountState {
                cache,
                seq: HashMap::new(),
                flusher_busy_until: VTime::ZERO,
            })),
            loc_cache: LocationCache::new(stats),
            trace: TraceRecorder::disabled(),
            read_req_bytes: stats.counter("fuse.read_req_bytes"),
            write_req_bytes: stats.counter("fuse.write_req_bytes"),
            hits: stats.counter("fuse.hits"),
            misses: stats.counter("fuse.misses"),
            evictions: stats.counter("fuse.evictions"),
            writeback_bytes: stats.counter("fuse.writeback_bytes"),
            readahead_fetches: stats.counter("fuse.readahead_fetches"),
            async_writebacks: stats.counter("fuse.async_writebacks"),
            bg_flushes: stats.counter("fuse.bg_flushes"),
            bg_writeback_bytes: stats.counter("fuse.bg_writeback_bytes"),
            throttled_writes: stats.counter("fuse.throttled_writes"),
            clean_evictions: stats.counter("fuse.clean_evictions"),
            scan_protected_hits: stats.counter("fuse.scan_protected_hits"),
            gauges: None,
        }
    }

    /// Attach a trace recorder (builder style; clones share it). FUSE-layer
    /// operations become `fuse.*` spans with store/net/device children.
    pub fn with_tracer(mut self, trace: TraceRecorder) -> Self {
        self.trace = trace;
        self
    }

    /// The mount's trace recorder (disabled unless attached); `nvmalloc`
    /// borrows it so client-layer spans parent the FUSE spans.
    pub fn tracer(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Attach gauge cells (builder style); the mount pushes dirty-ratio
    /// and protected-segment occupancy into them after every data-path
    /// operation, for the cluster's metrics sampler to read lock-free.
    pub fn with_gauges(mut self, gauges: MountGauges) -> Self {
        self.gauges = Some(gauges);
        self
    }

    /// Refresh the push-gauge cells from current cache state (no-op when
    /// no gauges are attached).
    fn push_gauges(&self) {
        let Some(g) = &self.gauges else { return };
        let st = self.state.lock();
        let cap = st.cache.capacity().max(1) as u64;
        g.dirty_permille.store(
            st.cache.dirty_chunks() as u64 * 1000 / cap,
            Ordering::Relaxed,
        );
        g.protected_chunks
            .store(st.cache.protected_len() as u64, Ordering::Relaxed);
    }

    pub fn node(&self) -> usize {
        self.node
    }

    pub fn store(&self) -> &AggregateStore {
        &self.store
    }

    pub fn config(&self) -> &FuseConfig {
        &self.cfg
    }

    fn chunk_size(&self) -> u64 {
        self.store.config().chunk_size
    }

    fn page_size(&self) -> u64 {
        self.store.config().page_size
    }

    /// Bytes rounded to whole OS pages (how requests arrive at FUSE).
    fn page_rounded(&self, offset: u64, len: u64) -> u64 {
        let ps = self.page_size();
        let first = offset / ps;
        let last = (offset + len - 1) / ps;
        (last - first + 1) * ps
    }

    // ----- namespace operations ---------------------------------------------

    /// Create + fallocate a file (the backing object of an `ssdmalloc`).
    pub fn create(
        &self,
        t: VTime,
        name: &str,
        size: u64,
        stripe: StripeSpec,
        placement: PlacementPolicy,
    ) -> Result<(VTime, FileId)> {
        let (t, id) = self.store.create_file(t, self.node, name)?;
        let t = self
            .store
            .fallocate(t, self.node, id, size, stripe, placement)?;
        Ok((t, id))
    }

    /// Open an existing file by name (O_RDWR semantics: writes through any
    /// mount are immediately visible to reads through any other). The
    /// lookup is a namespace RPC — routed through the placement ring's
    /// root shard when the sharded manager is on — so it can fail with
    /// [`chunkstore::StoreError::ShardDown`] like any other metadata op.
    pub fn open(&self, t: VTime, name: &str) -> Result<(VTime, Option<FileId>)> {
        self.store.open(t, self.node, name)
    }

    /// Drop a file: discard cached chunks (no write-back — the file is
    /// going away) and delete it from the store.
    pub fn delete(&self, t: VTime, file: FileId) -> Result<VTime> {
        {
            let mut st = self.state.lock();
            for key in st.cache.keys_of_file(file) {
                st.cache.remove(&key);
            }
            st.seq.remove(&file);
        }
        self.store.delete(t, self.node, file)
    }

    pub fn file_size(&self, file: FileId) -> Result<u64> {
        self.store.file_size(file)
    }

    // ----- data path ---------------------------------------------------------

    /// Byte-granular read: `buf` is filled from `file[offset..]`.
    pub fn read(&self, mut t: VTime, file: FileId, offset: u64, buf: &mut [u8]) -> Result<VTime> {
        if buf.is_empty() {
            return Ok(t);
        }
        self.bounds_check(file, offset, buf.len() as u64)?;
        self.read_req_bytes
            .add(self.page_rounded(offset, buf.len() as u64));
        let sp = self.trace.span(Layer::Fuse, "fuse.read", t);
        sp.arg("file", file.0).arg("bytes", buf.len() as u64);
        t += self.cfg.op_overhead;

        // Foreground reads give the flusher a chance to clean concurrently
        // (the daemon is driven from mount operations, like fault polling).
        if self.writeback_daemon_on() {
            let mut st = self.state.lock();
            self.kick_bg_flush(&mut st, t);
        }

        let segs = segments_of(offset, buf.len() as u64, self.chunk_size(), 0);
        t = self.span(t, file, segs, SpanIo::Read(buf))?;

        // Sequential stream detection → asynchronous read-ahead. In
        // pipelined mode the depth ramps with the streak (a one-off
        // continuation prefetches one chunk; a sustained stream earns the
        // full configured depth); the serial path keeps the fixed depth.
        let streak = {
            let mut st = self.state.lock();
            st.note_read(file, offset, offset + buf.len() as u64)
        };
        if streak > 0 && self.cfg.read_ahead_chunks > 0 {
            let depth = if self.cfg.pipelined_io {
                (streak as usize).min(self.cfg.read_ahead_chunks)
            } else {
                self.cfg.read_ahead_chunks
            };
            self.read_ahead(t, file, offset + buf.len() as u64, depth)?;
        }
        self.push_gauges();
        sp.finish(t);
        Ok(t)
    }

    /// Strided read: `count` runs of `run_len` bytes, the i-th starting at
    /// `offset + i*stride`, concatenated into `out`.
    ///
    /// This is how a column-major traversal of a row-major matrix reaches
    /// the mmap layer: many short runs at a large stride. One call charges
    /// the whole burst (each run costs page-rounded request traffic and a
    /// chunk fetch on a miss) without per-run scheduler overhead.
    #[allow(clippy::too_many_arguments)]
    pub fn read_strided(
        &self,
        mut t: VTime,
        file: FileId,
        offset: u64,
        run_len: u64,
        stride: u64,
        count: u64,
        out: &mut [u8],
    ) -> Result<VTime> {
        assert!(run_len > 0 && count > 0, "empty strided read");
        assert!(stride >= run_len, "overlapping strided runs");
        assert_eq!(out.len() as u64, run_len * count, "output size mismatch");
        let last_end = offset + (count - 1) * stride + run_len;
        self.bounds_check(file, offset, last_end - offset)?;
        let sp = self.trace.span(Layer::Fuse, "fuse.read_strided", t);
        sp.arg("file", file.0)
            .arg("runs", count)
            .arg("bytes", run_len * count);
        t += self.cfg.op_overhead;

        for r in 0..count {
            self.read_req_bytes
                .add(self.page_rounded(offset + r * stride, run_len));
        }
        let cs = self.chunk_size();
        let segs = (0..count)
            .flat_map(|r| segments_of(offset + r * stride, run_len, cs, (r * run_len) as usize));
        t = self.span(t, file, segs, SpanIo::Read(out))?;
        // A strided burst is not a sequential stream — but it must only
        // disturb streams it actually collided with: drop the cursors whose
        // expected next offset falls inside the strided range, and leave
        // unrelated streams (other regions of the file) intact.
        {
            let mut st = self.state.lock();
            if let Some(cursors) = st.seq.get_mut(&file) {
                cursors.retain(|&(c, _)| c < offset || c >= last_end);
                if cursors.is_empty() {
                    st.seq.remove(&file);
                }
            }
        }
        self.push_gauges();
        sp.finish(t);
        Ok(t)
    }

    /// Byte-granular write from `data` into `file[offset..]`.
    pub fn write(&self, mut t: VTime, file: FileId, offset: u64, data: &[u8]) -> Result<VTime> {
        if data.is_empty() {
            return Ok(t);
        }
        self.bounds_check(file, offset, data.len() as u64)?;
        self.write_req_bytes
            .add(self.page_rounded(offset, data.len() as u64));
        let sp = self.trace.span(Layer::Fuse, "fuse.write", t);
        sp.arg("file", file.0).arg("bytes", data.len() as u64);
        t += self.cfg.op_overhead;

        // Read-modify-write: a miss pulls the chunk first (§III-D).
        let segs = segments_of(offset, data.len() as u64, self.chunk_size(), 0);
        t = self.span(t, file, segs, SpanIo::Write(data))?;
        self.push_gauges();
        sp.finish(t);
        Ok(t)
    }

    /// Write back every dirty page of `file`, keeping chunks cached clean.
    /// Used by `ssdcheckpoint()` before chunk linking and by close paths.
    pub fn flush_file(&self, mut t: VTime, file: FileId) -> Result<VTime> {
        let keys = { self.state.lock().cache.keys_of_file(file) };
        let sp = self.trace.span(Layer::Fuse, "fuse.flush", t);
        sp.arg("file", file.0).arg("chunks", keys.len() as u64);
        t = self.flush_keys(t, &keys)?;
        self.push_gauges();
        sp.finish(t);
        Ok(t)
    }

    /// The dirty cached chunk indices of `file` (for callers that flush
    /// incrementally, yielding to a scheduler between chunks).
    pub fn dirty_chunks_of(&self, file: FileId) -> Vec<usize> {
        let st = self.state.lock();
        st.cache
            .keys_of_file(file)
            .into_iter()
            .filter(|k| st.cache.peek(k).map(|e| e.dirty.any()).unwrap_or(false))
            .map(|(_, idx)| idx)
            .collect()
    }

    /// Write back one chunk's dirty pages.
    pub fn flush_chunk(&self, t: VTime, file: FileId, idx: usize) -> Result<VTime> {
        self.flush_entry(t, (file, idx))
    }

    /// Write back every dirty chunk of every file on this mount.
    pub fn flush_all(&self, mut t: VTime) -> Result<VTime> {
        let keys = { self.state.lock().cache.dirty_keys() };
        let sp = self.trace.span(Layer::Fuse, "fuse.flush", t);
        sp.arg("chunks", keys.len() as u64);
        t = self.flush_keys(t, &keys)?;
        self.push_gauges();
        sp.finish(t);
        Ok(t)
    }

    /// Write back the dirty pages of `keys`: one store write per chunk on
    /// the serial path, one batched write in pipelined mode.
    fn flush_keys(&self, mut t: VTime, keys: &[ChunkKey]) -> Result<VTime> {
        if self.cfg.pipelined_io {
            return self.flush_keys_batched(t, keys);
        }
        for &key in keys {
            t = self.flush_entry(t, key)?;
        }
        Ok(t)
    }

    /// Write back one chunk's dirty pages, shipping slices borrowed from
    /// the cache entry under the state lock — no intermediate copy. The
    /// dirty bits are cleared only after the store accepts the write, so a
    /// failed flush leaves the pages dirty for a retry.
    fn flush_entry(&self, t: VTime, key: ChunkKey) -> Result<VTime> {
        let mut st = self.state.lock();
        let Some(entry) = st.cache.peek(&key) else {
            return Ok(t);
        };
        if !entry.dirty.any() {
            return Ok(t);
        }
        let updates = self.writeback_runs(entry, false);
        let bytes = run_bytes(&updates);
        self.writeback_bytes.add(bytes);
        let sp = self.trace.span(Layer::Fuse, "fuse.writeback", t);
        sp.arg("bytes", bytes);
        let end = self
            .store
            .write_pages(t, self.node, key.0, key.1, &updates)?;
        sp.finish(end);
        drop(updates);
        st.cache.clear_dirty(&key);
        drop(st);
        self.push_gauges();
        Ok(end)
    }

    /// Batched flush (pipelined mode): one manager RPC for the whole set,
    /// per-benefactor write chains overlapped across benefactors. Slices
    /// are borrowed from the cache entries under the state lock; dirty
    /// bits clear only after the store accepts the batch. Returns the
    /// latest per-entry completion (the flush barrier).
    fn flush_keys_batched(&self, t: VTime, keys: &[ChunkKey]) -> Result<VTime> {
        let mut st = self.state.lock();
        let dirty: Vec<ChunkKey> = keys
            .iter()
            .copied()
            .filter(|key| st.cache.peek(key).is_some_and(|e| e.dirty.any()))
            .collect();
        if dirty.is_empty() {
            return Ok(t);
        }
        let updates: Vec<Vec<(u64, &[u8])>> = dirty
            .iter()
            .map(|key| self.writeback_runs(st.cache.peek(key).expect("collected above"), false))
            .collect();
        let entries = batch_writes(dirty.iter().copied(), &updates);
        let bytes: u64 = updates.iter().map(|u| run_bytes(u)).sum();
        self.writeback_bytes.add(bytes);
        let sp = self.trace.span(Layer::Fuse, "fuse.writeback", t);
        sp.arg("bytes", bytes).arg("chunks", dirty.len() as u64);
        let times = self.store.write_pages_batch(t, self.node, &entries)?;
        drop(entries);
        drop(updates);
        for key in &dirty {
            st.cache.clear_dirty(key);
        }
        let end = times.into_iter().fold(t, VTime::max);
        sp.finish(end);
        Ok(end)
    }

    /// The `(chunk offset, bytes)` runs a cached chunk writes back,
    /// borrowed from the entry: its dirty page runs or — `whole`, the
    /// Table VII baseline — the entire chunk.
    fn writeback_runs<'e>(&self, entry: &'e CacheEntry, whole: bool) -> Vec<(u64, &'e [u8])> {
        if whole {
            return vec![(0, &entry.data[..])];
        }
        entry
            .dirty
            .runs(self.page_size())
            .into_iter()
            .map(|(off, len)| (off, &entry.data[off as usize..(off + len) as usize]))
            .collect()
    }

    // ----- write-back daemon (DESIGN.md §10) ---------------------------------

    fn writeback_daemon_on(&self) -> bool {
        self.cfg.dirty_background_ratio < 1.0
    }

    /// Dirty chunks strictly above this wake the background flusher; the
    /// flusher drains back down to it (the low watermark).
    fn bg_threshold(&self, capacity: usize) -> usize {
        (capacity as f64 * self.cfg.dirty_background_ratio) as usize
    }

    /// The most dirty chunks a writer may ever create; `>= 1` so a writer
    /// can always make progress.
    fn hard_limit(&self, capacity: usize) -> usize {
        ((capacity as f64 * self.cfg.dirty_hard_ratio) as usize).max(1)
    }

    /// Observed high-water dirty ratio (dirty chunks / capacity) — the
    /// throttle-invariant probe: with the daemon on this never exceeds
    /// `dirty_hard_ratio` at any virtual instant.
    pub fn max_dirty_ratio(&self) -> f64 {
        let st = self.state.lock();
        st.cache.max_dirty_chunks() as f64 / st.cache.capacity() as f64
    }

    /// Dirty chunks currently cached (all files).
    pub fn dirty_chunk_count(&self) -> usize {
        self.state.lock().cache.dirty_chunks()
    }

    /// Run `f` over the cached bytes of `(file, idx)` without touching
    /// LRU order or the buffer's refcount (test probe).
    #[cfg(test)]
    pub(crate) fn with_cached<R>(
        &self,
        file: FileId,
        idx: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Option<R> {
        self.state
            .lock()
            .cache
            .peek(&(file, idx))
            .map(|e| f(&e.data))
    }

    /// One background flusher batch, issued at `start`: take the oldest
    /// dirty chunks (enough to drain back to the background threshold, at
    /// least one), coalesce them into a single batched store write — one
    /// manager RPC, per-benefactor chains overlapped — and mark them
    /// clean. The batch's virtual time is paced by `flusher_busy_until`,
    /// never by the foreground clock. Dirty bits clear only after the
    /// store accepts the batch, so a failed flush (benefactor down) leaves
    /// the pages dirty for a later retry.
    fn bg_flush_batch(&self, st: &mut MountState, start: VTime) -> Result<VTime> {
        let cap = st.cache.capacity();
        let low = self.bg_threshold(cap).min(self.hard_limit(cap) - 1);
        let dirty = st.cache.dirty_keys();
        if dirty.is_empty() {
            return Ok(start);
        }
        let take = dirty.len().saturating_sub(low).max(1).min(dirty.len());
        let batch = &dirty[..take];
        // A dirty chunk may itself still be in flight (prefetched, then
        // written): the flush can only start once its data has arrived.
        let mut start = start;
        for key in batch {
            start = start.max(st.cache.peek(key).expect("dirty key cached").ready_at);
        }
        let whole = !self.cfg.dirty_page_writeback;
        let updates: Vec<Vec<(u64, &[u8])>> = batch
            .iter()
            .map(|key| self.writeback_runs(st.cache.peek(key).expect("dirty key cached"), whole))
            .collect();
        let entries = batch_writes(batch.iter().copied(), &updates);
        let bytes: u64 = updates.iter().map(|u| run_bytes(u)).sum();
        let sp = self.trace.span(Layer::Fuse, "fuse.bg_flush", start);
        sp.arg("chunks", batch.len() as u64).arg("bytes", bytes);
        let times = self.store.write_pages_batch(start, self.node, &entries)?;
        drop(entries);
        drop(updates);
        for key in batch {
            st.cache.clear_dirty(key);
        }
        self.bg_flushes.inc();
        self.bg_writeback_bytes.add(bytes);
        self.writeback_bytes.add(bytes);
        let end = times.into_iter().fold(start, VTime::max);
        sp.finish(end);
        Ok(end)
    }

    /// Wake the background flusher if it is idle at `t` and the dirty
    /// ratio is past the background threshold. The foreground clock is
    /// untouched; a flush failure leaves the dirty bits set (the next
    /// wake retries).
    fn kick_bg_flush(&self, st: &mut MountState, t: VTime) {
        if !self.writeback_daemon_on() || t < st.flusher_busy_until {
            return;
        }
        let cap = st.cache.capacity();
        if st.cache.dirty_chunks() <= self.bg_threshold(cap) {
            return;
        }
        if let Ok(end) = self.bg_flush_batch(st, t) {
            st.flusher_busy_until = end;
        }
    }

    /// The per-write dirty bookkeeping shared by the serial and pipelined
    /// write paths: throttle the writer while one more dirty chunk would
    /// break the hard limit (each stall runs a flusher batch and advances
    /// the writer's clock to its completion — `balance_dirty_pages`), then
    /// mark the pages dirty, then wake the background flusher. Returns the
    /// possibly-throttled clock.
    fn note_write(
        &self,
        st: &mut MountState,
        mut t: VTime,
        key: ChunkKey,
        start: u64,
        end: u64,
    ) -> Result<VTime> {
        let ps = self.page_size();
        if !self.writeback_daemon_on() && self.cfg.dirty_hard_ratio >= 1.0 {
            st.cache.mark_dirty_range(&key, start, end, ps);
            return Ok(t);
        }
        let transitions = st.cache.peek(&key).map(|e| !e.dirty.any()).unwrap_or(false);
        if transitions && self.cfg.dirty_hard_ratio < 1.0 {
            let hard = self.hard_limit(st.cache.capacity());
            while st.cache.dirty_chunks() + 1 > hard && st.cache.dirty_chunks() > 0 {
                let at = t.max(st.flusher_busy_until);
                let done = self.bg_flush_batch(st, at)?;
                st.flusher_busy_until = done;
                t = t.max(done);
                self.throttled_writes.inc();
            }
        }
        st.cache.mark_dirty_range(&key, start, end, ps);
        self.kick_bg_flush(st, t);
        Ok(t)
    }

    // ----- internals ----------------------------------------------------------

    fn bounds_check(&self, file: FileId, offset: u64, len: u64) -> Result<()> {
        let size = self.store.file_size(file)?;
        if offset + len > size {
            return Err(StoreError::OutOfBounds {
                file,
                offset,
                len,
                size,
            });
        }
        Ok(())
    }

    /// Make `(file, idx)` resident; returns the time the data is usable.
    fn ensure_chunk(&self, mut t: VTime, file: FileId, idx: usize) -> Result<VTime> {
        {
            let mut st = self.state.lock();
            if st.cache.is_protected(&(file, idx)) {
                self.scan_protected_hits.inc();
            }
            if let Some(entry) = st.cache.get_mut(&(file, idx)) {
                self.hits.inc();
                // Prefetched data may still be in flight.
                return Ok(t.max(entry.ready_at));
            }
        }
        self.misses.inc();
        let sp = self.trace.span(Layer::Fuse, "fuse.miss_fill", t);
        sp.arg("file", file.0).arg("chunks", 1);
        t = self.make_room(t)?;
        let (t2, payload) = self.store.fetch_chunk(t, self.node, file, idx)?;
        sp.finish(t2);
        let data = payload.into_buf(self.chunk_size());
        let mut st = self.state.lock();
        st.cache.insert((file, idx), data, t2);
        Ok(t2)
    }

    /// The eviction victim under the configured policy: plain LRU, or —
    /// with the segmented cache — the coldest *clean* entry first, so
    /// eviction almost never pays a synchronous write-back.
    fn pick_victim(
        &self,
        cache: &mut ChunkCache,
        exclude: impl FnMut(&ChunkKey) -> bool,
    ) -> Option<ChunkKey> {
        if self.cfg.seg_cache {
            cache.victim_clean_first(exclude)
        } else {
            cache.lru_key_excluding(exclude)
        }
    }

    /// Evict until one slot is free, writing back dirty pages (or whole
    /// chunks when the optimization is off).
    fn make_room(&self, mut t: VTime) -> Result<VTime> {
        loop {
            let victim = {
                let mut st = self.state.lock();
                if !st.cache.is_full() {
                    return Ok(t);
                }
                self.pick_victim(&mut st.cache, |_| false)
                    .expect("full cache has a victim")
            };
            t = self.evict(t, victim)?;
        }
    }

    fn evict(&self, t: VTime, key: ChunkKey) -> Result<VTime> {
        let entry = {
            let mut st = self.state.lock();
            match st.cache.remove(&key) {
                Some(e) => e,
                None => return Ok(t),
            }
        };
        self.evictions.inc();
        if !entry.dirty.any() {
            self.clean_evictions.inc();
            return Ok(t);
        }
        let updates = self.writeback_runs(&entry, !self.cfg.dirty_page_writeback);
        let bytes = run_bytes(&updates);
        self.writeback_bytes.add(bytes);
        let sp = self.trace.span(Layer::Fuse, "fuse.evict", t);
        sp.arg("bytes", bytes);
        let end = self
            .store
            .write_pages(t, self.node, key.0, key.1, &updates)?;
        sp.finish(end);
        Ok(end)
    }

    /// Asynchronous prefetch of up to `depth` chunks following
    /// `from_offset`. Charges the store-side resources but not the
    /// caller's clock; a later hit waits on `ready_at` if the data has not
    /// "arrived" yet. In pipelined mode the whole prefetch window goes
    /// through the batched fetch path (one manager RPC, overlapped
    /// chains) and dirty victims are written back asynchronously; the
    /// serial path keeps the conservative never-evict-dirty rule.
    fn read_ahead(&self, t: VTime, file: FileId, from_offset: u64, depth: usize) -> Result<()> {
        let cs = self.chunk_size();
        let n_chunks = self.store.chunk_count(file)?;
        let first = (from_offset / cs) as usize + usize::from(!from_offset.is_multiple_of(cs));
        let last = (first + depth).min(n_chunks);
        if first >= last {
            return Ok(());
        }
        if self.cfg.pipelined_io {
            let (missing, cap) = {
                let st = self.state.lock();
                let missing: Vec<usize> = (first..last)
                    .filter(|&i| !st.cache.contains(&(file, i)))
                    .collect();
                (missing, st.cache.capacity())
            };
            if missing.is_empty() {
                return Ok(());
            }
            let missing = &missing[..missing.len().min(cap)];
            let sp = self.trace.span(Layer::Fuse, "fuse.read_ahead", t);
            sp.arg("file", file.0).arg("chunks", missing.len() as u64);
            let t0 = self.make_room_n(t, file, missing, missing.len())?;
            debug_assert_eq!(t0, t); // async write-back: caller clock untouched
            let targets: Vec<(FileId, usize)> = missing.iter().map(|&i| (file, i)).collect();
            let results = self
                .store
                .fetch_chunks(t, self.node, &targets, Some(&self.loc_cache))?;
            self.readahead_fetches.add(missing.len() as u64);
            let mut done = t;
            let mut st = self.state.lock();
            for ((ready, payload), &idx) in results.into_iter().zip(missing) {
                done = done.max(ready);
                st.cache.insert((file, idx), payload.into_buf(cs), ready);
            }
            drop(st);
            sp.finish(done);
            return Ok(());
        }
        for idx in first..last {
            {
                let mut st = self.state.lock();
                if st.cache.contains(&(file, idx)) {
                    continue;
                }
                // Only prefetch into free-or-clean space: prefetching must
                // never force synchronous dirty write-back.
                if st.cache.is_full() {
                    let victim = self.pick_victim(&mut st.cache, |_| false).expect("full");
                    let dirty = st
                        .cache
                        .peek(&victim)
                        .map(|e| e.dirty.any())
                        .unwrap_or(false);
                    if dirty {
                        return Ok(());
                    }
                }
            }
            let t0 = self.make_room(t)?; // clean eviction: t unchanged
            debug_assert_eq!(t0, t);
            let sp = self.trace.span(Layer::Fuse, "fuse.read_ahead", t);
            sp.arg("file", file.0).arg("chunks", 1);
            let (ready, payload) = self.store.fetch_chunk(t, self.node, file, idx)?;
            sp.finish(ready);
            self.readahead_fetches.inc();
            let mut st = self.state.lock();
            st.cache.insert((file, idx), payload.into_buf(cs), ready);
        }
        Ok(())
    }

    // ----- chunk spans, serial and pipelined (DESIGN.md §8) ------------------

    /// Run a chunk-segmented span (read or write) through the data path;
    /// returns the time the last segment is done. Serial (the paper's
    /// §III-D path): each segment makes its chunk resident on its own —
    /// a miss is one store fetch — then applies. Pipelined (DESIGN.md §8):
    /// windows of segments sized by cache capacity, so arbitrarily large
    /// spans still fit, each made resident with one batched fetch and
    /// then applied under a single lock.
    fn span(
        &self,
        mut t: VTime,
        file: FileId,
        segs: impl Iterator<Item = Seg>,
        mut io: SpanIo<'_>,
    ) -> Result<VTime> {
        if !self.cfg.pipelined_io {
            for s in segs {
                t = self.ensure_chunk(t, file, s.idx)?;
                t = self.apply_segs(t, file, &[s], &mut io)?;
            }
            return Ok(t);
        }
        let segs: Vec<Seg> = segs.collect();
        let cap = { self.state.lock().cache.capacity() };
        let mut start = 0usize;
        while start < segs.len() {
            // Grow the window while its unique chunk count fits the cache.
            // Segment chunk indices are non-decreasing (byte positions only
            // move forward), so consecutive dedup counts unique chunks.
            let mut end = start;
            let mut idxs: Vec<usize> = Vec::new();
            while end < segs.len() {
                let idx = segs[end].idx;
                if idxs.last() != Some(&idx) {
                    if idxs.len() == cap {
                        break;
                    }
                    idxs.push(idx);
                }
                end += 1;
            }
            t = self.ensure_chunks_list(t, file, &idxs)?;
            t = self.apply_segs(t, file, &segs[start..end], &mut io)?;
            start = end;
        }
        Ok(t)
    }

    /// Apply resident segments under one lock: copy out into the caller's
    /// buffer, or copy in and mark the pages dirty. The first write to a
    /// fetched chunk copies it away from the benefactor's bytes; later
    /// writes land in place.
    fn apply_segs(
        &self,
        mut t: VTime,
        file: FileId,
        segs: &[Seg],
        io: &mut SpanIo<'_>,
    ) -> Result<VTime> {
        let mut st = self.state.lock();
        for s in segs {
            let entry = st.cache.peek_mut(&(file, s.idx)).expect("just ensured");
            match io {
                SpanIo::Read(buf) => {
                    buf[s.pos..s.pos + s.take]
                        .copy_from_slice(&entry.data[s.within..s.within + s.take]);
                }
                SpanIo::Write(data) => {
                    entry.data.make_mut()[s.within..s.within + s.take]
                        .copy_from_slice(&data[s.pos..s.pos + s.take]);
                    t = self.note_write(
                        &mut st,
                        t,
                        (file, s.idx),
                        s.within as u64,
                        (s.within + s.take) as u64,
                    )?;
                }
            }
        }
        Ok(t)
    }

    /// Make every chunk in `idxs` resident with ONE batched store fetch
    /// for the misses; returns the time all of them are usable. Hits that
    /// are still in flight contribute their `ready_at`; the working set
    /// (`idxs`) is protected from eviction while room is made.
    fn ensure_chunks_list(&self, t: VTime, file: FileId, idxs: &[usize]) -> Result<VTime> {
        let mut ready = t;
        let mut missing: Vec<usize> = Vec::new();
        {
            let mut st = self.state.lock();
            for &idx in idxs {
                if st.cache.is_protected(&(file, idx)) {
                    self.scan_protected_hits.inc();
                }
                if let Some(entry) = st.cache.get_mut(&(file, idx)) {
                    self.hits.inc();
                    ready = ready.max(entry.ready_at);
                } else {
                    missing.push(idx);
                }
            }
        }
        if missing.is_empty() {
            return Ok(ready);
        }
        self.misses.add(missing.len() as u64);
        let sp = self.trace.span(Layer::Fuse, "fuse.miss_fill", t);
        sp.arg("file", file.0).arg("chunks", missing.len() as u64);
        let t = self.make_room_n(t, file, idxs, missing.len())?;
        let targets: Vec<(FileId, usize)> = missing.iter().map(|&i| (file, i)).collect();
        let results = self
            .store
            .fetch_chunks(t, self.node, &targets, Some(&self.loc_cache))?;
        let mut st = self.state.lock();
        for ((ready_at, payload), &idx) in results.into_iter().zip(&missing) {
            st.cache
                .insert((file, idx), payload.into_buf(self.chunk_size()), ready_at);
            ready = ready.max(ready_at);
        }
        drop(st);
        sp.finish(ready);
        Ok(ready)
    }

    /// Evict until `need` slots are free, never touching the protected
    /// working set of `file`. Dirty victims are written back with ONE
    /// batched store write charged at the time the victims' data is
    /// available — but the caller's clock is NOT advanced: the write-back
    /// proceeds in the background while the incoming fetch (whose own
    /// completion time covers any queueing behind the write on shared
    /// resources) overlaps it. The reader never blocks on eviction.
    fn make_room_n(&self, t: VTime, file: FileId, protect: &[usize], need: usize) -> Result<VTime> {
        let mut dirty_victims: Vec<(ChunkKey, CacheEntry)> = Vec::new();
        {
            let mut st = self.state.lock();
            while st.cache.capacity() - st.cache.len() < need {
                let victim = self
                    .pick_victim(&mut st.cache, |k| k.0 == file && protect.contains(&k.1))
                    .expect("window sized within cache capacity");
                let entry = st.cache.remove(&victim).expect("victim is cached");
                self.evictions.inc();
                if entry.dirty.any() {
                    dirty_victims.push((victim, entry));
                } else {
                    self.clean_evictions.inc();
                }
            }
        }
        if dirty_victims.is_empty() {
            return Ok(t);
        }
        // The write-back can only start once the victims' own data has
        // arrived (a dirty chunk may itself still be in flight).
        let mut start = t;
        for (_, e) in &dirty_victims {
            start = start.max(e.ready_at);
        }
        let whole = !self.cfg.dirty_page_writeback;
        let updates: Vec<Vec<(u64, &[u8])>> = dirty_victims
            .iter()
            .map(|(_, e)| self.writeback_runs(e, whole))
            .collect();
        let entries = batch_writes(dirty_victims.iter().map(|(key, _)| *key), &updates);
        let bytes: u64 = updates.iter().map(|u| run_bytes(u)).sum();
        self.writeback_bytes.add(bytes);
        self.async_writebacks.add(dirty_victims.len() as u64);
        let sp = self.trace.span(Layer::Fuse, "fuse.async_writeback", start);
        sp.arg("bytes", bytes)
            .arg("chunks", dirty_victims.len() as u64);
        // Completion times intentionally dropped (asynchronous write-back);
        // the span still records when the background writes land.
        let times = self.store.write_pages_batch(start, self.node, &entries)?;
        sp.finish(times.into_iter().fold(start, VTime::max));
        Ok(t)
    }
}
