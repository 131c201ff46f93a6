//! The timed facade over the manager + benefactor fleet: every operation
//! takes the client's node and current virtual time, charges manager-RPC,
//! network and SSD costs, and returns the completion time.
//!
//! This is the interface the FUSE-like client layer (`fusemm`) talks to —
//! the simulated equivalent of the RPC protocol between a compute node and
//! the aggregate store.

use crate::benefactor::Benefactor;
use crate::buf::ChunkBuf;
use crate::crc::{self, crc64};
use crate::error::{Result, StoreError};
use crate::ids::{BenefactorId, ChunkId, FileId};
use crate::loc_cache::{CachedLoc, LocationCache};
use crate::manager::{GroupRef, Manager, PlacementPolicy, Slot, StripeSpec};
use crate::rs::RsCode;
use crate::shardmgr::{HashRing, LeaseCounters, ShardSet, DEFAULT_RING_SEED, DEFAULT_VNODES};
use devices::WearReport;
use faults::{FaultEvent, FaultPlan, FaultTarget};
use netsim::{LinkFault, Network};
use obs::{Layer, MetricsSampler, TraceRecorder, SHARD_LANE_BASE};
use parking_lot::{Mutex, MutexGuard};
use simcore::rng::child_seed;
use simcore::{Counter, StatsRegistry, VTime};
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Aggregate store configuration.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Striping unit; the paper uses 256 KiB.
    pub chunk_size: u64,
    /// Dirty-tracking granularity; the paper uses the 4 KiB OS page.
    pub page_size: u64,
    /// Cluster node hosting the manager process.
    pub manager_node: usize,
    /// Size of a manager-RPC request/response message.
    pub rpc_bytes: u64,
    /// Manager CPU time per metadata operation.
    pub mgr_cpu: VTime,
    /// Failover attempts per chunk read after every listed replica looks
    /// dead: each retry waits `retry_backoff` of virtual time, re-polls
    /// the fault plan (a scheduled recovery may land in between) and
    /// rescans the replica list.
    pub fetch_retries: u32,
    /// Virtual-time backoff between failover retries.
    pub retry_backoff: VTime,
    /// Verify every fetched chunk against its manager-recorded CRC64 and
    /// fail over / repair on mismatch (DESIGN.md §11). Off by default:
    /// with this unset, read timing and counters are bit-identical to a
    /// build without the integrity subsystem.
    pub verify_reads: bool,
    /// Number of placement-manager shard ranks (DESIGN.md §12). `0` (the
    /// default) keeps the serial single-manager path untouched; cluster
    /// builds consume this knob and call
    /// [`AggregateStore::install_shards`] with one rank per shard.
    pub manager_shards: usize,
    /// TTL of a client's placement-delegation lease in shard mode.
    pub lease_ttl: VTime,
    /// Manager high availability (DESIGN.md §16): journal every metadata
    /// mutation to the rank's crash-consistent log and keep a standby
    /// rank per shard that replays the journal and takes over on
    /// [`faults::FaultEvent::ManagerCrash`]. Off by default: with this
    /// unset nothing is journaled, no HA counters register, and every
    /// run is bit-identical to a build without the subsystem.
    pub ha_standby: bool,
    /// Crash-detection window: how long after a manager crash the
    /// standby waits before starting takeover (models failure detection
    /// plus fencing of the dead rank).
    pub failover_timeout: VTime,
    /// CPU charged per journal record replayed during takeover, so
    /// time-to-failover scales with the metadata mutation history.
    pub replay_record_cpu: VTime,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            chunk_size: 256 * 1024,
            page_size: 4096,
            manager_node: 0,
            rpc_bytes: 256,
            mgr_cpu: VTime::from_micros(10),
            fetch_retries: 2,
            retry_backoff: VTime::from_millis(5),
            verify_reads: false,
            manager_shards: 0,
            lease_ttl: VTime::from_secs(5),
            ha_standby: false,
            failover_timeout: VTime::from_millis(25),
            replay_record_cpu: VTime::from_micros(1),
        }
    }
}

/// Background scrub daemon configuration (DESIGN.md §11). The daemon only
/// runs once [`AggregateStore::attach_scrub`] installs it; like PR 4's
/// write-back flusher it is paced in virtual time off the foreground
/// clock — a pass is kicked by the first fault poll at or after `next_at`
/// and charges only benefactor-side SSD time plus repair traffic.
#[derive(Clone, Copy, Debug)]
pub struct ScrubConfig {
    /// Virtual time between scrub passes.
    pub interval: VTime,
    /// Chunk ids verified per pass; the walk cursor persists across
    /// passes and wraps, so every chunk is eventually visited.
    pub chunks_per_pass: usize,
    /// Quarantine a benefactor once its observed corruption rate
    /// (bad copies / copies scrubbed there) exceeds this fraction…
    pub quarantine_rate: f64,
    /// …with at least this many copies scrubbed as evidence.
    pub quarantine_min_samples: u64,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            interval: VTime::from_millis(50),
            // ~8 SSD chunk reads per pass (~10 ms): a low duty cycle, so
            // scrubbing steals little bandwidth from foreground I/O.
            chunks_per_pass: 8,
            quarantine_rate: 0.5,
            quarantine_min_samples: 8,
        }
    }
}

/// Scrub daemon runtime state (see [`ScrubConfig`]).
#[derive(Debug)]
struct ScrubState {
    cfg: ScrubConfig,
    /// Earliest virtual time the next pass may start.
    next_at: VTime,
    /// When the in-flight pass finishes; a poll before this is a no-op so
    /// passes never overlap.
    busy_until: VTime,
    /// Chunk-id walk cursor: the next pass resumes at the first chunk id
    /// ≥ this value (wrapping).
    cursor: u64,
    /// Per-benefactor copies verified, for the quarantine rate.
    scrubbed: Vec<u64>,
    /// Per-benefactor CRC mismatches found.
    bad: Vec<u64>,
}

/// One chunk's worth of dirty-page runs in a batched write-back (see
/// [`AggregateStore::write_pages_batch`]).
#[derive(Clone, Copy, Debug)]
pub struct BatchWrite<'a> {
    pub file: FileId,
    pub idx: usize,
    /// `(offset_within_chunk, bytes)` runs, same contract as
    /// [`AggregateStore::write_pages`].
    pub updates: &'a [(u64, &'a [u8])],
}

/// What a chunk fetch returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChunkPayload {
    /// The chunk was never written: the client materializes zeros locally
    /// (a file-hole read — no data crosses the network).
    Zeros,
    /// Chunk bytes shipped from its benefactor — shared with the stored
    /// copy, so a clean fetch moves no host bytes (DESIGN.md §17).
    Data(ChunkBuf),
}

impl ChunkPayload {
    /// The chunk's bytes, zero-filling a hole to `chunk_size`.
    pub fn into_buf(self, chunk_size: u64) -> ChunkBuf {
        match self {
            ChunkPayload::Zeros => ChunkBuf::from(vec![0u8; chunk_size as usize]),
            ChunkPayload::Data(d) => d,
        }
    }
}

/// What `fetch_verified` hands back: the verified bytes plus the copy
/// they came from, for span labelling and degraded accounting.
struct FetchOutcome {
    end: VTime,
    data: ChunkBuf,
    home: BenefactorId,
    node: usize,
    degraded: bool,
}

/// One usable reconstruction source for a parity-group member
/// (DESIGN.md §15): either a free implicit-zero member (unmaterialized —
/// no bytes move) or a live, CRC-clean stored copy.
enum Survivor {
    Zeros(usize),
    Copy {
        member: usize,
        chunk: ChunkId,
        home: BenefactorId,
    },
}

/// Deferred parity work for one `write_pages_batch` call: per touched
/// (file, group), the XOR-merged parity deltas of every contributing
/// entry. Linearity of RS over GF(2^8) makes the merge exact — parity
/// for the whole group ships once per batch instead of once per member,
/// which is where RS(4, 2)'s 1.5× wire cost (vs 2× for `replicas = 2`)
/// comes from.
#[derive(Default)]
struct ParityBatch {
    groups: BTreeMap<(FileId, usize), GroupDeltas>,
}

/// Dirty runs `(chunk offset, delta bytes)` for one parity member,
/// produced by one write's incremental encode.
type DeltaRuns = Vec<(u64, Box<[u8]>)>;

/// Merged parity deltas for one (file, group) within a batch.
struct GroupDeltas {
    /// One full-chunk accumulation buffer per parity member.
    bufs: Vec<Box<[u8]>>,
    /// Raw dirty intervals `[start, end)` as contributed (merged at
    /// flush time).
    spans: Vec<(u64, u64)>,
    /// Batch-entry indices that contributed: their reported completion
    /// folds in the parity ship (a write is durable when its redundancy
    /// is).
    contributors: Vec<usize>,
}

impl ParityBatch {
    /// XOR entry `i`'s per-parity delta runs into the group accumulator.
    fn absorb(
        &mut self,
        file: FileId,
        group: usize,
        m: usize,
        chunk_len: u64,
        i: usize,
        deltas: &[DeltaRuns],
    ) {
        let gd = self
            .groups
            .entry((file, group))
            .or_insert_with(|| GroupDeltas {
                bufs: (0..m)
                    .map(|_| vec![0u8; chunk_len as usize].into_boxed_slice())
                    .collect(),
                spans: Vec::new(),
                contributors: Vec::new(),
            });
        for (p, runs) in deltas.iter().enumerate() {
            for (off, d) in runs {
                let at = *off as usize;
                for (dst, src) in gd.bufs[p][at..at + d.len()].iter_mut().zip(d.iter()) {
                    *dst ^= *src;
                }
            }
        }
        for (off, d) in &deltas[0] {
            gd.spans.push((*off, off + d.len() as u64));
        }
        gd.contributors.push(i);
    }
}

/// Every benefactor currently holding (or reserving) a member of parity
/// group `gidx` — the exclusion set for re-homing, preserving the
/// placement invariant that no benefactor holds two members of a group.
fn group_homes(mgr: &Manager, f: FileId, gidx: usize) -> Vec<BenefactorId> {
    let Ok(meta) = mgr.file(f) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut add_slot = |slot: Slot, reserve: BenefactorId| match slot {
        Slot::Chunk(c) => {
            if let Some(homes) = mgr.chunk_homes(c) {
                out.extend(homes.iter().copied());
            }
        }
        Slot::Unmaterialized => out.push(reserve),
        Slot::Hole => {}
    };
    for idx in meta.group_data_slots(gidx) {
        add_slot(meta.slots[idx], meta.home_of_slot(idx));
    }
    for p in 0..meta.parity {
        add_slot(meta.parity_slot(gidx, p), meta.parity_home(gidx, p));
    }
    out
}

/// Sort + coalesce raw `[start, end)` intervals into disjoint runs.
fn merge_spans(mut spans: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    spans.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for (s, e) in spans {
        match out.last_mut() {
            Some((_, last_e)) if s <= *last_e => *last_e = (*last_e).max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Outcome of one repair sweep (see `repair_under_replicated`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Chunks whose replica degree was restored.
    pub chunks_repaired: u64,
    /// Bytes copied between benefactors to do it.
    pub bytes_copied: u64,
    /// Chunks still below target (no live donor or no space anywhere).
    pub chunks_unrepairable: u64,
}

/// Reusable per-benefactor chain-grouping scratch for
/// [`AggregateStore::run_chains`], the one fetch/write drain. Flat Vecs
/// keyed by benefactor index, recycled across calls (taken from and
/// returned to the store state), so steady-state batch planning
/// allocates nothing.
#[derive(Debug, Default)]
struct ChainScratch {
    /// Per-benefactor chain cursor (completion of its last entry).
    cursor: Vec<VTime>,
    /// Per-benefactor queued entry indices, in input order.
    queue: Vec<Vec<usize>>,
    /// Per-benefactor drain position into `queue` (O(1) pop-front).
    head: Vec<usize>,
    /// Benefactor indexes holding any queued entries this batch.
    active: Vec<usize>,
}

impl ChainScratch {
    /// Reset for a batch over a fleet of `n` benefactors.
    fn begin(&mut self, n: usize) {
        for &b in &self.active {
            self.queue[b].clear();
            self.head[b] = 0;
        }
        self.active.clear();
        if self.cursor.len() < n {
            self.cursor.resize(n, VTime::ZERO);
            self.queue.resize_with(n, Vec::new);
            self.head.resize(n, 0);
        }
    }

    fn push(&mut self, home: BenefactorId, i: usize) {
        let b = home.0;
        if self.queue[b].is_empty() {
            self.cursor[b] = VTime::ZERO;
            self.active.push(b);
        }
        self.queue[b].push(i);
    }

    /// Pop the entry whose chain start `max(cursor, ready[front])` is
    /// minimal, benefactor id breaking ties. Returns the entry's
    /// benefactor, index and chain start time.
    fn pop_min(&mut self, ready: &[VTime]) -> Option<(BenefactorId, usize, VTime)> {
        let mut best: Option<(VTime, usize)> = None;
        for &b in &self.active {
            if self.head[b] == self.queue[b].len() {
                continue;
            }
            let start = self.cursor[b].max(ready[self.queue[b][self.head[b]]]);
            if best.is_none_or(|k| (start, b) < k) {
                best = Some((start, b));
            }
        }
        let (start, b) = best?;
        let i = self.queue[b][self.head[b]];
        self.head[b] += 1;
        Some((BenefactorId(b), i, start))
    }

    /// Record that `home`'s chain now extends to `end`.
    fn set_cursor(&mut self, home: BenefactorId, end: VTime) {
        self.cursor[home.0] = end;
    }
}

/// A crashed manager rank awaiting standby takeover or reboot.
#[derive(Clone, Copy, Debug)]
struct RankDown {
    /// When the rank crashed, for the time-to-failover counter.
    crashed_at: VTime,
    /// Earliest virtual time the standby may complete takeover: crash
    /// time + `failover_timeout` + journal-replay cost. `None` when the
    /// rank crashed without HA (waiting for a scheduled `ManagerRecover`).
    takeover_at: Option<VTime>,
}

/// Manager-HA runtime state (DESIGN.md §16): one entry per manager rank
/// (a single rank with the serial manager), `Some` while the rank is
/// down. Lazily sized on the first manager fault, so fault-free runs
/// never touch it.
#[derive(Debug, Default)]
struct MgrHa {
    ranks: Vec<Option<RankDown>>,
}

impl MgrHa {
    fn ensure(&mut self, ranks: usize) {
        if self.ranks.len() < ranks {
            self.ranks.resize(ranks, None);
        }
    }

    fn down(&self, rank: usize) -> Option<RankDown> {
        self.ranks.get(rank).copied().flatten()
    }
}

/// Everything the store's manager process owns (PAPER.md §1): metadata,
/// placement and benefactor status, plus the opt-in subsystems' runtime
/// state. One lock guards all of it (DESIGN.md §16).
struct StoreState {
    mgr: Manager,
    /// The sharded placement manager (DESIGN.md §12); `None` until
    /// [`AggregateStore::install_shards`] runs, and with no shard set
    /// every path uses the serial manager RPC.
    shards: Option<ShardSet>,
    /// Manager-HA rank table; empty until a `ManagerCrash` fires.
    ha: MgrHa,
    scrub: Option<ScrubState>,
    faults: Option<FaultPlan>,
    /// Recycled grouping scratch for `run_chains`.
    chains: ChainScratch,
}

impl StoreState {
    /// Installed placement shards (`0` = serial manager).
    fn shard_count(&self) -> usize {
        self.shards.as_ref().map_or(0, ShardSet::len)
    }

    /// Ring owner of each slot in shard mode; empty with the serial
    /// manager. Pure local computation — routing costs no RPC.
    fn slot_owners(&self, slots: impl Iterator<Item = (FileId, usize)>) -> Vec<usize> {
        self.shards.as_ref().map_or_else(Vec::new, |ss| {
            slots.map(|(f, i)| ss.ring().owner_of_slot(f, i)).collect()
        })
    }

    /// Cold restart of manager rank (or shard) `rank`'s delegations:
    /// revoke every lease it granted when a shard set exists, bump the
    /// placement epoch and journal the revocation (a no-op unless HA
    /// journaling is on) so a replayed rank knows the epoch its lease
    /// table died at. The bump is what makes revoked clients stop
    /// trusting their `LocationCache`, so no stale hit survives (the
    /// `shardmgr_model` proptest pins this).
    fn revoke_rank(&mut self, rank: usize) {
        if let Some(ss) = &mut self.shards {
            ss.revoke_shard(rank);
        }
        self.mgr.bump_placement_epoch();
        self.mgr.journal_revoke(rank);
    }
}

/// [`AggregateStore::manager`]'s handle: derefs to the [`Manager`] and
/// holds the store's lock until dropped.
pub struct ManagerGuard<'a>(MutexGuard<'a, StoreState>);

impl Deref for ManagerGuard<'_> {
    type Target = Manager;
    fn deref(&self) -> &Manager {
        &self.0.mgr
    }
}

impl DerefMut for ManagerGuard<'_> {
    fn deref_mut(&mut self) -> &mut Manager {
        &mut self.0.mgr
    }
}

/// The aggregate NVM store, shared by every client on the cluster.
#[derive(Clone)]
pub struct AggregateStore {
    /// The one lock. Never held across `poll_faults` (and so the
    /// sampler poll), a `run_chains` callback or any call back into
    /// the store; gauge probes only `try_lock` it.
    state: Arc<Mutex<StoreState>>,
    net: Network,
    cfg: StoreConfig,
    mgr_rpcs: Counter,
    mgr_rpc_fetch: Counter,
    mgr_rpc_write: Counter,
    mgr_rpc_place: Counter,
    chunk_fetches: Counter,
    zero_fills: Counter,
    bytes_to_clients: Counter,
    bytes_from_clients: Counter,
    cow_clones: Counter,
    failovers: Counter,
    degraded_reads: Counter,
    repairs_chunks: Counter,
    repairs_bytes: Counter,
    benefactor_crashes: Counter,
    benefactor_recoveries: Counter,
    batched_fetches: Counter,
    batched_writes: Counter,
    /// Integrity counters (`store.crc_mismatches` etc.) are registered
    /// through here only once verification or scrubbing is switched on,
    /// so knobs-off stat snapshots stay byte-identical.
    stats: StatsRegistry,
    trace: TraceRecorder,
    /// Virtual-time gauge sampler (DESIGN.md §14.3), polled at the top of
    /// every timed store operation. Disabled (a single branch) unless the
    /// cluster attaches an enabled one.
    sampler: MetricsSampler,
}

/// The three metadata-RPC flavours, split out so bench footers can show
/// *what* the manager is being asked, not just how often.
#[derive(Clone, Copy, Debug)]
enum MgrOp {
    /// Chunk-location resolution for reads.
    Fetch,
    /// Write-back resolution / placement mutation.
    Write,
    /// Namespace + allocation control plane (create/fallocate/open/
    /// delete/link).
    Place,
}

/// The netsim endpoint name shard `k` registers at install time.
fn shard_endpoint(k: usize) -> String {
    format!("shardmgr/{k}")
}

impl AggregateStore {
    pub fn new(cfg: StoreConfig, net: Network, stats: &StatsRegistry) -> Self {
        let store = AggregateStore {
            state: Arc::new(Mutex::new(StoreState {
                mgr: Manager::new(cfg.chunk_size),
                shards: None,
                ha: MgrHa::default(),
                scrub: None,
                faults: None,
                chains: ChainScratch::default(),
            })),
            net,
            cfg,
            mgr_rpcs: stats.counter("store.mgr_rpcs"),
            mgr_rpc_fetch: stats.counter("store.mgr_rpc_fetch"),
            mgr_rpc_write: stats.counter("store.mgr_rpc_write"),
            mgr_rpc_place: stats.counter("store.mgr_rpc_place"),
            chunk_fetches: stats.counter("store.chunk_fetches"),
            zero_fills: stats.counter("store.zero_fills"),
            bytes_to_clients: stats.counter("store.bytes_to_clients"),
            bytes_from_clients: stats.counter("store.bytes_from_clients"),
            cow_clones: stats.counter("store.cow_clones"),
            failovers: stats.counter("store.failovers"),
            degraded_reads: stats.counter("store.degraded_reads"),
            repairs_chunks: stats.counter("store.repairs_chunks"),
            repairs_bytes: stats.counter("store.repairs_bytes"),
            benefactor_crashes: stats.counter("store.benefactor_crashes"),
            benefactor_recoveries: stats.counter("store.benefactor_recoveries"),
            batched_fetches: stats.counter("store.batched_fetches"),
            batched_writes: stats.counter("store.batched_writes"),
            stats: stats.clone(),
            trace: TraceRecorder::disabled(),
            sampler: MetricsSampler::disabled(),
        };
        if store.cfg.verify_reads {
            store.register_integrity_counters();
        }
        if store.cfg.ha_standby {
            store.register_ha_counters();
            store.manager().enable_journal(
                store.cfg.manager_shards.max(1),
                DEFAULT_VNODES,
                DEFAULT_RING_SEED,
                store.stats.counter("store.journal_records"),
            );
        }
        store
    }

    /// Register the integrity counter set. Deferred until verification or
    /// scrubbing actually activates: registered counters appear in every
    /// stats snapshot (even at zero), and committed knobs-off bench
    /// expectations must not grow keys.
    fn register_integrity_counters(&self) {
        self.stats.counter("store.crc_mismatches");
        self.stats.counter("store.scrub_passes");
        self.stats.counter("store.scrub_repairs");
        self.stats.counter("store.quarantined");
    }

    /// Register the erasure-coding counter set (DESIGN.md §15). Deferred
    /// until the first `fallocate` with `parity > 0` for the same reason
    /// as [`Self::register_integrity_counters`]: a store that never
    /// creates an encoded file must keep its stats snapshot — and every
    /// committed knobs-off bench expectation — byte-identical.
    fn register_parity_counters(&self) {
        self.stats.counter("store.parity_encodes");
        self.stats.counter("store.parity_bytes");
        self.stats.counter("store.degraded_reconstructs");
        self.stats.counter("store.parity_repairs");
    }

    /// Register the manager-HA counter set (DESIGN.md §16). Only runs
    /// when `ha_standby` is on, for the same reason as
    /// [`Self::register_integrity_counters`]: registered counters appear
    /// in every snapshot, and committed knobs-off bench expectations
    /// must not grow keys.
    fn register_ha_counters(&self) {
        self.stats.counter("store.journal_records");
        self.stats.counter("store.journal_replays");
        self.stats.counter("store.mgr_failovers");
        self.stats.counter("store.mgr_failover_us");
    }

    /// Attach a trace recorder (builder style; clones share it). Manager
    /// RPCs, chunk fetches, write-backs and repair sweeps become spans;
    /// applied fault events become instants.
    pub fn with_tracer(mut self, trace: TraceRecorder) -> Self {
        self.trace = trace;
        self
    }

    /// Attach a metrics sampler (builder style; clones share it) and
    /// register the store-side gauges on it: benefactor free slots, lease
    /// hit ratio, per-shard CPU backlog. The sampler is then polled at
    /// the top of every timed store operation.
    pub fn with_sampler(mut self, sampler: MetricsSampler) -> Self {
        self.sampler = sampler;
        self.register_gauges();
        self
    }

    fn register_gauges(&self) {
        if !self.sampler.is_enabled() {
            return;
        }
        // Benefactor free space, in chunk slots. The sampler is polled
        // only while the state lock is free, so try_lock succeeds; a miss
        // would re-report the last value rather than deadlock the probe.
        let state = Arc::clone(&self.state);
        let chunk = self.cfg.chunk_size.max(1);
        self.sampler.register(
            "store.free_slots",
            Box::new(move |_| state.try_lock().map(|st| st.mgr.space().1 / chunk)),
        );
        // Location-cache (lease-delegated placement) hit ratio, permille.
        // No sample until the first lookup happens.
        let stats = self.stats.clone();
        self.sampler.register(
            "store.lease_hit_permille",
            Box::new(move |_| {
                let hits = stats.get("store.loc_cache_hits");
                let total = hits + stats.get("store.loc_cache_misses");
                (total > 0).then(|| hits * 1000 / total)
            }),
        );
    }

    /// Register per-shard queue-depth gauges (`store.shard_queue.s{k}` —
    /// CPU backlog at sample time, in pending mgr-CPU service units).
    /// Split from [`AggregateStore::register_gauges`] because shards are
    /// installed after construction.
    fn register_shard_gauges(&self, nshards: usize) {
        if !self.sampler.is_enabled() {
            return;
        }
        for k in 0..nshards {
            let state = Arc::clone(&self.state);
            let mgr_cpu = self.cfg.mgr_cpu.as_nanos().max(1);
            self.sampler.register(
                &format!("store.shard_queue.s{k}"),
                Box::new(move |now| {
                    let st = state.try_lock()?;
                    let ss = st.shards.as_ref()?;
                    let backlog = ss.cpu_next_free(k).saturating_sub(now).as_nanos();
                    Some(backlog.div_ceil(mgr_cpu))
                }),
            );
        }
    }

    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Direct manager access for registration, administration and tests.
    /// Holds the store's lock until the guard drops.
    pub fn manager(&self) -> ManagerGuard<'_> {
        ManagerGuard(self.state.lock())
    }

    /// Register a benefactor contributing `capacity` bytes of `node`'s SSD.
    pub fn add_benefactor(&self, b: Benefactor) -> BenefactorId {
        self.manager().register_benefactor(b)
    }

    // ----- fault injection --------------------------------------------------

    /// Install a fault plan. Due events are applied at the top of every
    /// timed store operation, so the fleet's state tracks the virtual
    /// clock without a separate driver process. A plan naming a
    /// benefactor, node, shard or manager rank the store does not have
    /// is rejected with [`StoreError::NoSuchFaultTarget`] and nothing is
    /// installed.
    pub fn attach_faults(&self, plan: FaultPlan) -> Result<()> {
        let mut st = self.state.lock();
        for fault in plan.events() {
            let target = fault.event.target();
            let have = match target {
                FaultTarget::Benefactor(_) => st.mgr.benefactor_count(),
                FaultTarget::Node(_) => self.net.nodes(),
                FaultTarget::Shard(_) => st.shard_count(),
                FaultTarget::ManagerRank(_) => st.shard_count().max(1),
            };
            if target.index() >= have {
                return Err(StoreError::NoSuchFaultTarget { target, have });
            }
        }
        st.faults = Some(plan);
        Ok(())
    }

    /// Apply every scheduled fault due at or before `t`, then give the
    /// scrub daemon (when attached) a chance to run a due pass — faults
    /// first, so a pass at `t` sees the world as of `t`.
    pub fn poll_faults(&self, t: VTime) {
        // Sampler first, before any fault/scrub mutation and with the
        // state lock free: a sample at the boundary sees the world as it
        // was when the clock crossed it.
        self.sampler.poll(t);
        let mut st = self.state.lock();
        let due = st.faults.as_mut().map_or_else(Vec::new, |plan| plan.due(t));
        if !due.is_empty() {
            drop(st);
            for fault in due {
                self.trace
                    .instant(Layer::Fault, fault.event.describe(), fault.at);
                self.apply_fault(fault.event, fault.at);
            }
            st = self.state.lock();
        }
        self.poll_scrub(&mut st, t);
    }

    fn apply_fault(&self, event: FaultEvent, at: VTime) {
        match event {
            FaultEvent::BenefactorCrash { benefactor } => {
                self.set_benefactor_alive(BenefactorId(benefactor), false);
            }
            FaultEvent::BenefactorRecover { benefactor } => {
                self.set_benefactor_alive(BenefactorId(benefactor), true);
            }
            FaultEvent::LinkDegrade {
                node,
                bw_divisor,
                extra_latency,
            } => {
                let partitioned = self.net.link_fault(node).partitioned;
                self.net.set_link_fault(
                    node,
                    LinkFault {
                        bw_divisor,
                        extra_latency,
                        partitioned,
                    },
                );
            }
            FaultEvent::LinkRestore { node } => {
                let partitioned = self.net.link_fault(node).partitioned;
                self.net.set_link_fault(
                    node,
                    LinkFault {
                        partitioned,
                        ..LinkFault::default()
                    },
                );
            }
            FaultEvent::Partition { node } => {
                let mut fault = self.net.link_fault(node);
                fault.partitioned = true;
                self.net.set_link_fault(node, fault);
            }
            FaultEvent::Heal { node } => {
                let mut fault = self.net.link_fault(node);
                fault.partitioned = false;
                self.net.set_link_fault(node, fault);
            }
            FaultEvent::SsdSlowdown { node, factor } => self.set_node_ssd_slowdown(node, factor),
            FaultEvent::SsdRestore { node } => self.set_node_ssd_slowdown(node, 1.0),
            FaultEvent::BitRot {
                benefactor,
                rate_bp,
                seed,
            } => self.apply_bit_rot(BenefactorId(benefactor), rate_bp, seed),
            FaultEvent::TornWrite { benefactor } => {
                self.manager()
                    .benefactor_mut(BenefactorId(benefactor))
                    .arm_torn_write();
            }
            FaultEvent::CorruptionRate {
                benefactor,
                rate_bp,
                seed,
            } => {
                self.manager()
                    .benefactor_mut(BenefactorId(benefactor))
                    .set_corruption_rate(rate_bp, seed);
            }
            FaultEvent::ShardCrash { shard } => self.set_shard_alive(shard, false),
            FaultEvent::ShardRecover { shard } => self.set_shard_alive(shard, true),
            FaultEvent::ManagerCrash { shard } => self.set_manager_alive(shard, false, at),
            FaultEvent::ManagerRecover { shard } => self.set_manager_alive(shard, true, at),
        }
    }

    /// Silent bit-rot: each chunk stored on `b` is corrupted with
    /// probability `rate_bp` basis points, scaled up by the SSD's consumed
    /// life — a worn device rots faster (PAPER.md Table I wear counters).
    /// Seed-stable per chunk id, so identical runs rot identical bytes.
    /// Data-only: no virtual time is charged.
    fn apply_bit_rot(&self, b: BenefactorId, rate_bp: u32, seed: u64) {
        let mut mgr = self.manager();
        let life = mgr.benefactor(b).ssd().wear().life_consumed;
        let effective_bp = (rate_bp as f64 * (1.0 + life)) as u64;
        for c in mgr.benefactor(b).chunk_ids() {
            let draw = child_seed(seed, c.0);
            if draw % 10_000 < effective_bp {
                let off = child_seed(draw, 1);
                mgr.benefactor_mut(b).corrupt_chunk(c, off);
            }
        }
    }

    fn set_node_ssd_slowdown(&self, node: usize, factor: f64) {
        let mgr = self.manager();
        for i in 0..mgr.benefactor_count() {
            let b = mgr.benefactor(BenefactorId(i));
            if b.node == node {
                b.ssd().set_slowdown(factor);
            }
        }
    }

    // ----- scrub daemon -----------------------------------------------------

    /// Install the background scrub daemon; the first pass may start at
    /// `start_at`. Like fault plans, the daemon is driven by the fault
    /// polls at the top of every timed store operation.
    pub fn attach_scrub(&self, cfg: ScrubConfig, start_at: VTime) {
        assert!(cfg.chunks_per_pass > 0, "scrub pass must cover chunks");
        self.register_integrity_counters();
        let mut st = self.state.lock();
        let n = st.mgr.benefactor_count();
        st.scrub = Some(ScrubState {
            cfg,
            next_at: start_at,
            busy_until: VTime::ZERO,
            cursor: 0,
            scrubbed: vec![0; n],
            bad: vec![0; n],
        });
    }

    /// Run one scrub pass if the daemon is attached and due. The pass is
    /// kicked at the poll time `t` (the flusher pattern from PR 4): it
    /// charges benefactor SSD reads and repair traffic in virtual time,
    /// but never the foreground clock — `poll_faults` returns `()` and the
    /// caller's `t` is unchanged.
    fn poll_scrub(&self, state: &mut StoreState, t: VTime) {
        let StoreState { mgr, scrub, .. } = state;
        let Some(st) = scrub.as_mut() else { return };
        if t < st.next_at || t < st.busy_until {
            return;
        }
        let sp = self.trace.span(Layer::Store, "store.scrub", t);
        let mut now = t;
        let mut verified = 0u64;
        let mut repaired = 0u64;
        let ids = mgr.chunk_ids_sorted();
        if !ids.is_empty() {
            let start = ids.partition_point(|c| c.0 < st.cursor);
            let n = st.cfg.chunks_per_pass.min(ids.len());
            for k in 0..n {
                let c = ids[(start + k) % ids.len()];
                now = self.scrub_chunk(mgr, st, c, now, &mut verified, &mut repaired);
            }
            let last = ids[(start + n - 1) % ids.len()];
            st.cursor = last.0 + 1;
        }
        // Rebuild parity groups as part of the pass: dead-homed members
        // and stale parity are re-encoded from survivors (DESIGN.md §15).
        // A no-op — one metadata scan — when no file is erasure-coded.
        let (pt, preport) = self.repair_parity_groups_locked(mgr, now);
        now = pt;
        repaired += preport.chunks_repaired;
        // Quarantine benefactors whose observed corruption rate crossed
        // the threshold: placement stops choosing them (alive, but no new
        // bytes land there).
        for i in 0..mgr.benefactor_count() {
            let b = BenefactorId(i);
            if mgr.benefactor(b).is_quarantined() || st.scrubbed[i] < st.cfg.quarantine_min_samples
            {
                continue;
            }
            if st.bad[i] as f64 > st.cfg.quarantine_rate * st.scrubbed[i] as f64 {
                mgr.set_quarantined(b, true);
                mgr.bump_placement_epoch();
                self.stats.counter("store.quarantined").inc();
                self.trace
                    .instant(Layer::Store, format!("store.quarantine b={i}"), now);
            }
        }
        self.stats.counter("store.scrub_passes").inc();
        st.busy_until = now;
        // Idle a full interval after the pass *finishes* — scheduling from
        // the kick time would let passes longer than the interval run
        // back-to-back and saturate the SSDs the foreground needs.
        st.next_at = now + st.cfg.interval;
        sp.arg("verified", verified).arg("repaired", repaired);
        sp.finish(now);
    }

    /// Scrub one chunk: verify every live copy benefactor-side (local SSD
    /// read, no network), quarantine mismatching copies, then restore the
    /// replica degree from a surviving copy. Returns the advanced pass
    /// clock.
    fn scrub_chunk(
        &self,
        mgr: &mut Manager,
        st: &mut ScrubState,
        c: ChunkId,
        mut now: VTime,
        verified: &mut u64,
        repaired: &mut u64,
    ) -> VTime {
        let Some(expected) = mgr.chunk_crc(c) else {
            return now; // deleted since the id list was taken
        };
        let homes: Vec<BenefactorId> = mgr.chunk_homes(c).expect("chunk without home").to_vec();
        let mut sole_bad = false;
        for h in homes {
            if !mgr.benefactor(h).is_alive() {
                continue;
            }
            let (g, data) = mgr.benefactor(h).read_chunk(now, c);
            now = g.end;
            st.scrubbed[h.0] += 1;
            *verified += 1;
            if crc64(&data) != expected {
                st.bad[h.0] += 1;
                self.stats.counter("store.crc_mismatches").inc();
                self.trace.instant(
                    Layer::Store,
                    format!("store.scrub_mismatch c={} b={}", c.0, h.0),
                    now,
                );
                // Drop the rotten copy while a replica remains; a sole
                // bad copy must stay listed (reads report ChunkCorrupt,
                // never serve it silently).
                if mgr.chunk_homes(c).expect("chunk listed").len() > 1 {
                    mgr.remove_chunk_home(c, h);
                    mgr.benefactor_mut(h).drop_chunk(c);
                } else {
                    sole_bad = true;
                }
            }
        }
        // A corrupt sole copy of a parity-group member is rebuilt in
        // place from the group's survivors (DESIGN.md §15): k peer reads
        // and transfers, a decode, one full-chunk rewrite — where a
        // replica-less plain chunk would stay ChunkCorrupt forever.
        if sole_bad {
            if let Some(gref) = mgr.group_of_chunk(c) {
                let home = mgr.chunk_home(c).expect("chunk listed");
                let dest_node = mgr.benefactor(home).node;
                if let Ok((t2, content, _)) = self.rebuild_content(mgr, now, gref, dest_node) {
                    if crc64(&content) == expected {
                        let upd = [(0u64, &content[..])];
                        let g = mgr.benefactor_mut(home).update_chunk(t2, c, &upd);
                        now = g.end;
                        *repaired += 1;
                        self.stats.counter("store.scrub_repairs").inc();
                        self.stats.counter("store.parity_repairs").inc();
                    }
                }
            }
        }
        // Re-replicate from a surviving copy up to the target degree.
        loop {
            let target = mgr.chunk_target(c).expect("chunk has a target");
            let homes: Vec<BenefactorId> = mgr.chunk_homes(c).expect("chunk listed").to_vec();
            let live: Vec<BenefactorId> = homes
                .iter()
                .copied()
                .filter(|&h| mgr.benefactor(h).is_alive())
                .collect();
            if live.is_empty() || live.len() >= target {
                break;
            }
            let donor = live[0];
            let dest = (0..mgr.benefactor_count()).map(BenefactorId).find(|&b| {
                !homes.contains(&b)
                    && mgr.benefactor(b).is_placeable()
                    && mgr.benefactor(b).can_allocate_chunk(false)
            });
            let Some(dest) = dest else { break };
            let donor_node = mgr.benefactor(donor).node;
            let dest_node = mgr.benefactor(dest).node;
            let (g, data) = mgr.benefactor(donor).read_chunk(now, c);
            let xfer = self
                .net
                .transfer_at(g.end, donor_node, dest_node, self.cfg.chunk_size);
            let g2 = mgr.benefactor_mut(dest).store_chunk(
                xfer.arrived,
                c,
                data,
                self.cfg.chunk_size,
                false,
            );
            mgr.add_chunk_home(c, dest);
            now = g2.end;
            *repaired += 1;
            self.stats.counter("store.scrub_repairs").inc();
        }
        now
    }

    /// Untimed admin sweep: how many stored chunk copies currently
    /// disagree with their recorded CRC (bench/test instrumentation —
    /// time-to-repair is "first poll at which this reaches zero").
    pub fn count_corrupt_copies(&self) -> usize {
        let mgr = self.manager();
        let mut n = 0;
        for c in mgr.chunk_ids_sorted() {
            let expected = mgr.chunk_crc(c).expect("chunk without crc");
            for &h in mgr.chunk_homes(c).expect("chunk listed") {
                if let Some(data) = mgr.benefactor(h).peek_chunk(c) {
                    if crc64(data) != expected {
                        n += 1;
                    }
                }
            }
        }
        n
    }

    /// Bump the aggregate RPC counter plus the per-op split (ISSUE 6
    /// satellite: `store_health` footers show fetch/write/place shares).
    fn count_mgr_rpc(&self, op: MgrOp) {
        self.mgr_rpcs.inc();
        match op {
            MgrOp::Fetch => self.mgr_rpc_fetch.inc(),
            MgrOp::Write => self.mgr_rpc_write.inc(),
            MgrOp::Place => self.mgr_rpc_place.inc(),
        }
    }

    /// Charge one metadata round-trip to the serial manager. A crashed
    /// manager is retried on the same backoff schedule as benefactor and
    /// shard failover — a standby takeover or scheduled reboot may land
    /// in between — before the op fails with [`StoreError::ManagerDown`].
    /// The fault-free path is unchanged: one rank-table len-check.
    fn mgr_rpc(&self, t: VTime, client_node: usize, op: MgrOp) -> Result<VTime> {
        let mut t = t;
        let mut attempts = 0;
        loop {
            if !self.manager_rank_ready(&mut self.state.lock(), 0, t) {
                if attempts >= self.cfg.fetch_retries {
                    return Err(StoreError::ManagerDown(0));
                }
                attempts += 1;
                t += self.cfg.retry_backoff;
                self.poll_faults(t);
                continue;
            }
            self.count_mgr_rpc(op);
            let sp = self.trace.span(Layer::Store, "store.mgr_rpc", t);
            sp.arg("client", client_node as u64);
            let req =
                self.net
                    .transfer_at(t, client_node, self.cfg.manager_node, self.cfg.rpc_bytes);
            let done = req.arrived + self.cfg.mgr_cpu;
            let resp =
                self.net
                    .transfer_at(done, self.cfg.manager_node, client_node, self.cfg.rpc_bytes);
            sp.finish(resp.arrived);
            return Ok(resp.arrived);
        }
    }

    // ----- sharded placement manager (DESIGN.md §12) ------------------------

    /// Install the sharded placement manager: shard `k` runs on
    /// `nodes[k]` and owns the keyspace the ring assigns it. Registers
    /// each shard's RPC endpoint with the network fabric and the
    /// shard/lease counters — lazily, like the integrity set, so
    /// knobs-off stat snapshots do not grow keys. `seed` fixes the ring
    /// layout; cluster builds pass [`crate::shardmgr::DEFAULT_RING_SEED`].
    pub fn install_shards(&self, nodes: &[usize], seed: u64) {
        assert!(!nodes.is_empty(), "a shard set needs at least one rank");
        let counters = LeaseCounters {
            grants: self.stats.counter("store.lease_grants"),
            renewals: self.stats.counter("store.lease_renewals"),
            revokes: self.stats.counter("store.lease_revokes"),
            expiries: self.stats.counter("store.lease_expiries"),
        };
        let per_shard = (0..nodes.len())
            .map(|k| self.stats.counter(&format!("store.shard_rpcs.s{k}")))
            .collect();
        for (k, &node) in nodes.iter().enumerate() {
            self.net.register_endpoint(&shard_endpoint(k), node);
        }
        let ring = HashRing::new(nodes.len(), DEFAULT_VNODES, seed);
        self.state.lock().shards = Some(ShardSet::new(
            ring,
            nodes,
            self.cfg.lease_ttl,
            seed,
            counters,
            per_shard,
        ));
        self.register_shard_gauges(nodes.len());
    }

    /// Number of installed placement shards (`0` = serial manager).
    pub fn shards_installed(&self) -> usize {
        self.state.lock().shard_count()
    }

    /// Ring owner of a slot key, when shards are installed. Pure local
    /// computation — routing costs no RPC.
    pub fn shard_of_slot(&self, file: FileId, idx: usize) -> Option<usize> {
        self.state
            .lock()
            .shards
            .as_ref()
            .map(|s| s.ring().owner_of_slot(file, idx))
    }

    /// Is shard `k` currently alive? (Trivially true with no shard set.)
    pub fn shard_alive(&self, shard: usize) -> bool {
        self.state
            .lock()
            .shards
            .as_ref()
            .is_none_or(|s| s.is_alive(shard))
    }

    /// Live leases currently granted by `shard` (tests/benches).
    pub fn shard_leases(&self, shard: usize) -> usize {
        self.state
            .lock()
            .shards
            .as_ref()
            .map_or(0, |s| s.leases_held(shard))
    }

    /// Per-shard CPU queue accounting: `(total queued time, RPCs served)`
    /// for each installed shard, in shard order. Empty with no shard set.
    /// Bench footers divide the pair into a mean queue delay.
    pub fn shard_cpu_stats(&self) -> Vec<(VTime, u64)> {
        let st = self.state.lock();
        st.shards.as_ref().map_or_else(Vec::new, |ss| {
            (0..ss.len()).map(|k| ss.cpu_queue_stats(k)).collect()
        })
    }

    /// Charge one metadata round-trip to placement shard `shard`. The
    /// request and response are control-sized messages to the shard's
    /// registered endpoint; the operation occupies the shard's FIFO
    /// metadata CPU — which is where client fan-in queues, and what extra
    /// shards relieve. The response piggybacks a lease grant/renewal for
    /// the calling client. A dead shard is retried on the same backoff
    /// schedule as benefactor failover (a scheduled recovery may land in
    /// between) before the op fails with [`StoreError::ShardDown`].
    fn shard_rpc(&self, t: VTime, client_node: usize, shard: usize, op: MgrOp) -> Result<VTime> {
        let mut t = t;
        let mut attempts = 0;
        loop {
            let mut guard = self.state.lock();
            let st = &mut *guard;
            let alive = st
                .shards
                .as_ref()
                .expect("shard RPC without an installed shard set")
                .is_alive(shard);
            // The shard process may be up while the manager rank hosting
            // it has crashed (DESIGN.md §16) — probe both; the probe also
            // performs a due standby takeover.
            let rank_ready = self.manager_rank_ready(st, shard, t);
            if !alive || !rank_ready {
                drop(guard);
                if attempts >= self.cfg.fetch_retries {
                    return Err(if alive {
                        StoreError::ManagerDown(shard)
                    } else {
                        StoreError::ShardDown(shard)
                    });
                }
                attempts += 1;
                t += self.cfg.retry_backoff;
                self.poll_faults(t);
                continue;
            }
            let ss = st.shards.as_mut().expect("shard set installed");
            let node = ss.node(shard);
            self.count_mgr_rpc(op);
            let sp = self.trace.span(Layer::Store, "store.mgr_rpc", t);
            sp.arg("client", client_node as u64)
                .arg("shard", shard as u64);
            let req = self
                .net
                .transfer_at(t, client_node, node, self.cfg.rpc_bytes);
            ss.count_rpc(shard);
            let grant = ss.cpu_grant(shard, req.arrived, self.cfg.mgr_cpu);
            // Causal mode: the shard's CPU occupancy (queue wait +
            // service) is *remote* work — record it detached on the
            // shard's lane, linked back to this RPC span, so the trace
            // DAG and critical path attribute it to the manager tier.
            if self.trace.causal_enabled() {
                let cpu_sp = self.trace.causal_span(
                    Layer::Store,
                    "shardmgr.cpu",
                    req.arrived,
                    SHARD_LANE_BASE + shard as u32,
                    self.trace.ctx(),
                );
                cpu_sp
                    .arg("shard", shard as u64)
                    .arg("queue_ns", grant.queued(req.arrived).as_nanos());
                cpu_sp.finish(grant.end);
            }
            let resp = self
                .net
                .transfer_at(grant.end, node, client_node, self.cfg.rpc_bytes);
            ss.grant_lease(shard, client_node, resp.arrived);
            sp.finish(resp.arrived);
            return Ok(resp.arrived);
        }
    }

    /// Metadata round-trip for a namespace (control-plane) operation. The
    /// namespace has no per-chunk key to hash, so in shard mode it lives
    /// on shard 0 — the *root shard*; with no shard set this is the
    /// serial manager RPC.
    fn namespace_rpc(&self, t: VTime, client_node: usize) -> Result<VTime> {
        if self.shards_installed() > 0 {
            self.shard_rpc(t, client_node, 0, MgrOp::Place)
        } else {
            self.mgr_rpc(t, client_node, MgrOp::Place)
        }
    }

    /// The resolution round trip(s) for a set of slot entries, issued at
    /// `t`. `need` says, per entry, whether it must consult the manager;
    /// `owners` is [`StoreState::slot_owners`] of the entries. The serial
    /// manager takes one RPC when any entry needs it. In shard mode each
    /// owning shard of a needy entry takes one, all issued concurrently
    /// from `t` (they queue on *different* shard CPUs, which is the whole
    /// point). Returns when each entry may proceed: the reply of its
    /// manager or shard, or `t` when that was never consulted.
    fn resolve_rpcs(
        &self,
        t: VTime,
        client_node: usize,
        owners: &[usize],
        mut need: impl ExactSizeIterator<Item = bool>,
        op: MgrOp,
    ) -> Result<Vec<VTime>> {
        if owners.is_empty() {
            let n = need.len();
            let t0 = if need.any(|needed| needed) {
                self.mgr_rpc(t, client_node, op)?
            } else {
                t
            };
            return Ok(vec![t0; n]);
        }
        let mut contacted: BTreeMap<usize, VTime> = BTreeMap::new();
        for (&owner, needed) in owners.iter().zip(need) {
            if needed {
                contacted.insert(owner, t);
            }
        }
        for (&shard, end) in contacted.iter_mut() {
            *end = self.shard_rpc(t, client_node, shard, op)?;
        }
        Ok(owners
            .iter()
            .map(|o| contacted.get(o).copied().unwrap_or(t))
            .collect())
    }

    /// Drain entries as per-benefactor chains (DESIGN.md §8). `times[i]`
    /// comes in as entry `i`'s ready time and leaves as its completion.
    /// Entries keyed to the same benefactor run serially in input order,
    /// each starting at `max(previous end, ready)`; chains on distinct
    /// benefactors start independently and are drained min-cursor first
    /// (ties to the lowest benefactor id), so shared FIFO resources see
    /// non-decreasing request times. Unkeyed entries run afterwards in
    /// input order, each from its own ready time. `run(i, start)` performs
    /// entry `i` and returns its completion.
    fn run_chains(
        &self,
        key: impl Fn(usize) -> Option<BenefactorId>,
        times: &mut [VTime],
        fleet: usize,
        mut run: impl FnMut(usize, VTime) -> Result<VTime>,
    ) -> Result<()> {
        let mut scratch = std::mem::take(&mut self.state.lock().chains);
        scratch.begin(fleet);
        for i in 0..times.len() {
            if let Some(home) = key(i) {
                scratch.push(home, i);
            }
        }
        // The drain reads an entry's ready time only while it is queued,
        // so overwriting it with the completion once popped is safe.
        while let Some((home, i, start)) = scratch.pop_min(times) {
            let end = run(i, start)?;
            scratch.set_cursor(home, end);
            times[i] = end;
        }
        self.state.lock().chains = scratch;
        for (i, at) in times.iter_mut().enumerate() {
            if key(i).is_none() {
                *at = run(i, *at)?;
            }
        }
        Ok(())
    }

    // ----- control plane ---------------------------------------------------

    pub fn create_file(&self, t: VTime, client_node: usize, name: &str) -> Result<(VTime, FileId)> {
        self.poll_faults(t);
        let t = self.namespace_rpc(t, client_node)?;
        let id = self.manager().create_file(name)?;
        Ok((t, id))
    }

    pub fn fallocate(
        &self,
        t: VTime,
        client_node: usize,
        file: FileId,
        size: u64,
        spec: StripeSpec,
        placement: PlacementPolicy,
    ) -> Result<VTime> {
        self.poll_faults(t);
        if spec.parity > 0 {
            // First erasure-coded file switches the parity counter set on.
            self.register_parity_counters();
        }
        let t = self.namespace_rpc(t, client_node)?;
        self.manager().fallocate(file, size, spec, placement)?;
        Ok(t)
    }

    pub fn open(
        &self,
        t: VTime,
        client_node: usize,
        name: &str,
    ) -> Result<(VTime, Option<FileId>)> {
        self.poll_faults(t);
        let t = self.namespace_rpc(t, client_node)?;
        Ok((t, self.manager().lookup(name)))
    }

    pub fn delete(&self, t: VTime, client_node: usize, file: FileId) -> Result<VTime> {
        self.poll_faults(t);
        let t = self.namespace_rpc(t, client_node)?;
        self.manager().delete_file(file)?;
        Ok(t)
    }

    /// Zero-copy checkpoint linking: append `src`'s chunks to `dst`.
    pub fn link_file(
        &self,
        t: VTime,
        client_node: usize,
        dst: FileId,
        src: FileId,
    ) -> Result<VTime> {
        self.poll_faults(t);
        let t = self.namespace_rpc(t, client_node)?;
        self.manager().link_file(dst, src)?;
        Ok(t)
    }

    /// Untimed metadata peek (clients cache sizes at open/malloc time).
    pub fn file_size(&self, file: FileId) -> Result<u64> {
        Ok(self.manager().file(file)?.size)
    }

    pub fn chunk_count(&self, file: FileId) -> Result<usize> {
        Ok(self.manager().file(file)?.slots.len())
    }

    // ----- data plane ------------------------------------------------------

    /// Fetch chunk `idx` of `file` to `client_node`.
    ///
    /// Cost model (paper §III-D): a manager RPC resolves the chunk to a
    /// benefactor, then the client pulls the chunk directly from that
    /// benefactor — request message, SSD read, data transfer back.
    ///
    /// This is a one-target [`Self::fetch_chunks`] without a location
    /// cache and without the batch counter and span: one code path
    /// resolves, fails over and retries for both. With replication, the
    /// replica list is scanned in order and the read fails over to the
    /// first copy that is alive and reachable (counted in
    /// `store.failovers` / `store.degraded_reads`). When no copy is
    /// serviceable the read backs off `retry_backoff` of virtual time,
    /// re-polls the fault plan (a scheduled recovery may land in between)
    /// and retries up to `fetch_retries` times before failing with
    /// [`StoreError::BenefactorDown`] for the primary copy.
    pub fn fetch_chunk(
        &self,
        t: VTime,
        client_node: usize,
        file: FileId,
        idx: usize,
    ) -> Result<(VTime, ChunkPayload)> {
        self.poll_faults(t);
        let mut out = self.fetch_targets(t, client_node, &[(file, idx)], None)?;
        Ok(out.pop().expect("one result per target"))
    }

    /// The replica-scan / failover / backoff retry loop every chunk fetch
    /// runs. `t` is when the caller is ready to issue the first
    /// benefactor request (post-resolution).
    ///
    /// Every attempt rescans the replica list: writes may have re-homed
    /// the chunk and recoveries may have revived a copy. With
    /// `verify_reads` set, arrived bytes are checked against the
    /// manager's CRC64; a mismatching copy is counted, quarantined (its
    /// bytes reclaimed while a replica remains — re-replication restores
    /// the degree) and the scan continues from the moment the bad bytes
    /// arrived. When no serviceable copy is left the read backs off
    /// `retry_backoff`, re-polls the fault plan and retries up to
    /// `fetch_retries` times; the final error is
    /// [`StoreError::ChunkCorrupt`] if any copy failed verification,
    /// [`StoreError::BenefactorDown`] otherwise. With verification off,
    /// timing and counters are identical to the pre-integrity retry loop.
    ///
    /// `degraded` marks a read the caller already knows is degraded (a
    /// planned non-primary pick) so `store.failovers` /
    /// `store.degraded_reads` count it even at rank 0.
    fn fetch_verified(
        &self,
        mut t: VTime,
        client_node: usize,
        c: ChunkId,
        degraded: bool,
    ) -> Result<FetchOutcome> {
        let mut attempts = 0;
        let mut known_bad: Vec<BenefactorId> = Vec::new();
        loop {
            let mgr = self.manager();
            let homes = mgr.chunk_homes(c).expect("chunk without home");
            let serviceable = homes.iter().enumerate().find(|(_, &h)| {
                !known_bad.contains(&h)
                    && mgr.benefactor(h).is_alive()
                    && self.net.reachable(mgr.benefactor(h).node, client_node)
            });
            let Some((rank, &home)) = serviceable else {
                // An erasure-coded member with no serviceable copy is
                // reconstructed from its group's survivors right here in
                // the retry loop — reconstruction *is* the failover
                // (DESIGN.md §15). Only if too few members survive does
                // the read fall back to backing off (a scheduled recovery
                // may revive a survivor) and finally report
                // `InsufficientSurvivors`.
                let primary = homes[0];
                let gref = mgr.group_of_chunk(c);
                drop(mgr);
                if let Some(gref) = gref {
                    match self.reconstruct_member(t, client_node, gref, c) {
                        Ok(out) => return Ok(out),
                        Err(e) => {
                            if attempts >= self.cfg.fetch_retries {
                                return Err(e);
                            }
                        }
                    }
                } else if attempts >= self.cfg.fetch_retries {
                    return Err(match known_bad.last() {
                        Some(&b) => StoreError::ChunkCorrupt {
                            chunk: c,
                            benefactor: b,
                        },
                        None => StoreError::BenefactorDown(primary),
                    });
                }
                attempts += 1;
                t += self.cfg.retry_backoff;
                self.poll_faults(t);
                continue;
            };
            let home_node = mgr.benefactor(home).node;
            // Request message to the benefactor…
            let req = self
                .net
                .transfer_at(t, client_node, home_node, self.cfg.rpc_bytes);
            // …SSD read at the benefactor…
            let (grant, data) = mgr.benefactor(home).read_chunk(req.arrived, c);
            let expected = self
                .cfg
                .verify_reads
                .then(|| mgr.chunk_crc(c).expect("chunk without crc"));
            drop(mgr);
            // …chunk shipped back.
            let resp = self
                .net
                .transfer_at(grant.end, home_node, client_node, self.cfg.chunk_size);
            self.bytes_to_clients.add(self.cfg.chunk_size);
            if expected.is_some_and(|crc| crc64(&data) != crc) {
                self.stats.counter("store.crc_mismatches").inc();
                self.trace.instant(
                    Layer::Store,
                    format!("store.crc_mismatch c={} b={}", c.0, home.0),
                    resp.arrived,
                );
                self.quarantine_copy(c, home);
                known_bad.push(home);
                t = resp.arrived;
                continue;
            }
            let was_degraded = degraded || rank > 0 || attempts > 0 || !known_bad.is_empty();
            if was_degraded {
                self.failovers.inc();
                self.degraded_reads.inc();
            }
            return Ok(FetchOutcome {
                end: resp.arrived,
                data,
                home,
                node: home_node,
                degraded: was_degraded,
            });
        }
    }

    /// Drop a CRC-mismatching copy: while a replica remains, the bad copy
    /// leaves the home list and its bytes are reclaimed (the chunk shows
    /// up under-replicated, so repair and scrub re-replicate the good
    /// copy). A sole copy stays listed — the metadata invariant keeps at
    /// least one home — but callers track it as known-bad and report
    /// [`StoreError::ChunkCorrupt`] rather than serve it.
    fn quarantine_copy(&self, c: ChunkId, home: BenefactorId) {
        let mut mgr = self.manager();
        if mgr.chunk_homes(c).expect("chunk listed").len() > 1 {
            mgr.remove_chunk_home(c, home);
            mgr.benefactor_mut(home).drop_chunk(c);
        }
    }

    // ----- erasure-coded reconstruction (DESIGN.md §15) ---------------------

    /// Pick `k` reconstruction sources for group `gref.group` of its
    /// file, excluding member `gref.member` (the one being rebuilt).
    /// Scanned in ascending member order so the pick — and therefore
    /// every reconstruction's cost and outcome — is deterministic. A
    /// member qualifies if it is implicit zeros (unmaterialized data, or
    /// never-touched parity — the parity of an all-zero group *is*
    /// zeros), or a live stored copy whose bytes still match the
    /// manager's CRC. Stale parity never qualifies: its content stopped
    /// reflecting the data members when a delta could not land.
    fn survivors_for(
        &self,
        mgr: &Manager,
        gref: GroupRef,
    ) -> Result<(usize, usize, Vec<Survivor>)> {
        let meta = mgr.file(gref.file)?;
        let (k, m) = (meta.group_data, meta.parity);
        let clean_copy = |c: ChunkId| -> Option<BenefactorId> {
            let expected = mgr.chunk_crc(c)?;
            mgr.chunk_homes(c)?.iter().copied().find(|&h| {
                mgr.benefactor(h).is_alive()
                    && mgr
                        .benefactor(h)
                        .peek_chunk(c)
                        .is_some_and(|b| crc64(b) == expected)
            })
        };
        let mut picks = Vec::with_capacity(k);
        for member in 0..k + m {
            if member == gref.member {
                continue;
            }
            let survivor = if member < k {
                let idx = gref.group * k + member;
                match meta.slots.get(idx) {
                    // Partial last group: absent members are zeros.
                    None | Some(Slot::Unmaterialized) | Some(Slot::Hole) => {
                        Some(Survivor::Zeros(member))
                    }
                    Some(Slot::Chunk(c)) => clean_copy(*c).map(|home| Survivor::Copy {
                        member,
                        chunk: *c,
                        home,
                    }),
                }
            } else {
                let p = member - k;
                if meta.parity_is_stale(gref.group, p) {
                    None
                } else {
                    match meta.parity_slot(gref.group, p) {
                        Slot::Unmaterialized => Some(Survivor::Zeros(member)),
                        Slot::Hole => unreachable!("parity slots are never holes"),
                        Slot::Chunk(c) => clean_copy(c).map(|home| Survivor::Copy {
                            member,
                            chunk: c,
                            home,
                        }),
                    }
                }
            };
            if let Some(s) = survivor {
                picks.push(s);
            }
        }
        if picks.len() < k {
            return Err(StoreError::InsufficientSurvivors {
                file: gref.file,
                group: gref.group,
                have: picks.len(),
                need: k,
            });
        }
        picks.truncate(k);
        Ok((k, m, picks))
    }

    /// Serve a read of group member `gref.member` (chunk `lost`) by
    /// pulling any `k` surviving members to the client and decoding.
    /// The `k` survivor reads run concurrently — the group invariant
    /// puts every member on a distinct benefactor — so degraded-read
    /// latency is one chunk fetch plus the client's fan-in, not `k`
    /// serial fetches. The decoded bytes are verified against the lost
    /// chunk's recorded CRC before they are served.
    fn reconstruct_member(
        &self,
        t: VTime,
        client_node: usize,
        gref: GroupRef,
        lost: ChunkId,
    ) -> Result<FetchOutcome> {
        let chunk_size = self.cfg.chunk_size;
        let mgr = self.manager();
        let (k, m, picks) = self.survivors_for(&mgr, gref)?;
        let primary = mgr.chunk_home(lost).expect("chunk without home");
        let primary_node = mgr.benefactor(primary).node;
        let expected = mgr.chunk_crc(lost).expect("chunk without crc");
        let mut end = t;
        let mut reads: Vec<(usize, ChunkBuf)> = Vec::with_capacity(k);
        let mut zero_members: Vec<usize> = Vec::new();
        for s in &picks {
            match *s {
                Survivor::Zeros(member) => zero_members.push(member),
                Survivor::Copy {
                    member,
                    chunk,
                    home,
                } => {
                    let node = mgr.benefactor(home).node;
                    let req = self
                        .net
                        .transfer_at(t, client_node, node, self.cfg.rpc_bytes);
                    let (grant, data) = mgr.benefactor(home).read_chunk(req.arrived, chunk);
                    let resp = self
                        .net
                        .transfer_at(grant.end, node, client_node, chunk_size);
                    self.bytes_to_clients.add(chunk_size);
                    end = end.max(resp.arrived);
                    reads.push((member, data));
                }
            }
        }
        drop(mgr);

        let zeros = vec![0u8; chunk_size as usize];
        let mut present: Vec<(usize, &[u8])> = Vec::with_capacity(k);
        for &member in &zero_members {
            present.push((member, &zeros));
        }
        for (member, data) in &reads {
            present.push((*member, data));
        }
        present.sort_unstable_by_key(|(member, _)| *member);
        let code = RsCode::new(k, m);
        let data = ChunkBuf::from(
            code.reconstruct(&present, &[gref.member])
                .pop()
                .expect("one wanted member"),
        );
        // The decode must land exactly on the recorded digest; anything
        // else means a survivor lied and the store refuses to serve it.
        if crc64(&data) != expected {
            return Err(StoreError::ChunkCorrupt {
                chunk: lost,
                benefactor: primary,
            });
        }

        self.stats.counter("store.degraded_reconstructs").inc();
        self.failovers.inc();
        self.degraded_reads.inc();
        self.trace.instant(
            Layer::Store,
            format!("store.reconstruct c={} g={}", lost.0, gref.group),
            end,
        );
        Ok(FetchOutcome {
            end,
            data,
            home: primary,
            node: primary_node,
            degraded: true,
        })
    }

    /// Batched multi-benefactor fetch: resolve *all* targets with one
    /// manager RPC (or none, when a [`LocationCache`] still holds valid
    /// resolutions), then pull the chunks with per-benefactor pipelining.
    ///
    /// Cost model (DESIGN.md §8): each benefactor's chain — request →
    /// SSD read → transfer back — runs *serially* on that benefactor
    /// (chunk `i+1`'s request leaves when chunk `i`'s response arrives),
    /// but chains on distinct benefactors proceed concurrently from the
    /// shared resolution time. Shared resources (the client's NIC, each
    /// benefactor's SSD/NIC) still queue correctly because chains are
    /// issued in non-decreasing virtual-time order against the FIFO
    /// `Resource` registers. Per-chunk completion is its own response
    /// arrival, returned in input order.
    ///
    /// Fault semantics are per entry: every entry runs the
    /// failover/verify/backoff retry loop (`fetch_verified`). A degraded
    /// pick counts a failover; a target with *no* serviceable copy at
    /// batch time runs the loop unchained from the shared resolution
    /// time, independently of its batch-mates, and completes at exactly
    /// the time [`Self::fetch_chunk`] would.
    pub fn fetch_chunks(
        &self,
        t: VTime,
        client_node: usize,
        targets: &[(FileId, usize)],
        cache: Option<&LocationCache>,
    ) -> Result<Vec<(VTime, ChunkPayload)>> {
        if targets.is_empty() {
            return Ok(Vec::new());
        }
        self.poll_faults(t);
        self.batched_fetches.inc();
        let sp = self.trace.span(Layer::Store, "store.fetch_batch", t);
        sp.arg("targets", targets.len() as u64)
            .arg("client", client_node as u64);
        let out = self.fetch_targets(t, client_node, targets, cache)?;
        // The batch completes when its slowest entry does.
        sp.finish(out.iter().map(|&(end, _)| end).max().unwrap_or(t));
        Ok(out)
    }

    /// The body of [`Self::fetch_chunks`] and [`Self::fetch_chunk`]:
    /// resolve `targets` (non-empty) at `t`, then drain them as
    /// per-benefactor chains.
    fn fetch_targets(
        &self,
        t: VTime,
        client_node: usize,
        targets: &[(FileId, usize)],
        cache: Option<&LocationCache>,
    ) -> Result<Vec<(VTime, ChunkPayload)>> {
        /// One target's resolution and plan: where the chunk lives (a hole
        /// resolves to zeros) and the first serviceable copy to chain on —
        /// none for a hole, or when no listed copy is serviceable right
        /// now, so the retry loop runs unchained.
        struct Entry {
            loc: Option<CachedLoc>,
            home: Option<BenefactorId>,
            degraded: bool,
        }
        let entry = |loc| Entry {
            loc,
            home: None,
            degraded: false,
        };

        // Resolve from the location cache where the epoch allows. In
        // shard mode a cached entry may only be used while the client
        // holds a live lease from the shard owning that target
        // (DESIGN.md §12) — an unleased target is forced to the shard
        // even when cached. With one shard and a held lease the gate
        // never fires, so counters stay identical to the serial manager.
        let (owners, mut entries) = {
            let mut guard = self.state.lock();
            let st = &mut *guard;
            let owners = st.slot_owners(targets.iter().copied());
            let epoch = st.mgr.placement_epoch();
            let entries: Vec<Entry> = match (cache, st.shards.as_mut()) {
                (None, _) => targets.iter().map(|_| entry(None)).collect(),
                (Some(cache), None) => targets
                    .iter()
                    .map(|&key| entry(cache.lookup(epoch, key)))
                    .collect(),
                (Some(cache), Some(ss)) => targets
                    .iter()
                    .zip(&owners)
                    .map(|(&key, &owner)| {
                        if ss.check_lease(owner, client_node, t) {
                            entry(cache.lookup(epoch, key))
                        } else {
                            cache.note_unleased_miss(epoch, key);
                            entry(None)
                        }
                    })
                    .collect(),
            };
            (owners, entries)
        };

        // One shared RPC covers every unresolved target (one per owning
        // shard in shard mode); a fully cached batch skips every manager
        // round trip. Entry `i` may start its benefactor chain at
        // `times[i]`.
        let need = entries.iter().map(|e| e.loc.is_none());
        let mut times = self.resolve_rpcs(t, client_node, &owners, need, MgrOp::Fetch)?;

        // Resolve the rest against the manager (refreshing the cache) and
        // plan every entry.
        let fleet = {
            let mgr = self.manager();
            let epoch = mgr.placement_epoch();
            for (&(file, idx), e) in targets.iter().zip(&mut entries) {
                if e.loc.is_none() {
                    let meta = mgr.file(file)?;
                    if idx >= meta.slots.len() {
                        return Err(StoreError::OutOfBounds {
                            file,
                            offset: idx as u64 * self.cfg.chunk_size,
                            len: self.cfg.chunk_size,
                            size: meta.size,
                        });
                    }
                    let loc = match meta.slots[idx] {
                        Slot::Unmaterialized | Slot::Hole => CachedLoc::Zeros,
                        Slot::Chunk(c) => CachedLoc::Chunk {
                            chunk: c,
                            homes: mgr
                                .chunk_homes(c)
                                .expect("chunk without home")
                                .iter()
                                .map(|&h| (h, mgr.benefactor(h).node))
                                .collect(),
                        },
                    };
                    if let Some(cache) = cache {
                        cache.insert(epoch, (file, idx), loc.clone());
                    }
                    e.loc = Some(loc);
                }
                if let Some(CachedLoc::Chunk { homes, .. }) = &e.loc {
                    let rank = homes.iter().position(|&(h, node)| {
                        mgr.benefactor(h).is_alive() && self.net.reachable(node, client_node)
                    });
                    e.home = rank.map(|r| homes[r].0);
                    e.degraded = rank.is_some_and(|r| r > 0);
                }
            }
            mgr.benefactor_count()
        };

        let mut out = vec![(VTime::ZERO, ChunkPayload::Zeros); targets.len()];
        self.run_chains(
            |i| entries[i].home,
            &mut times,
            fleet,
            |i, start| {
                self.chunk_fetches.inc();
                let e = &entries[i];
                let Some(CachedLoc::Chunk { chunk, .. }) = e.loc else {
                    // Hole: the manager's reply says "no data"; zeros are
                    // materialized client-side for free.
                    self.zero_fills.inc();
                    return Ok(start);
                };
                let (file, idx) = targets[i];
                let csp = self.trace.span(Layer::Store, "store.chunk_fetch", start);
                csp.arg("file", file.0).arg("idx", idx as u64);
                // The retry loop re-picks from the live home list (the same
                // scan that planned this entry) and, under `verify_reads`,
                // fails over to a replica when the arrived bytes don't match
                // the recorded CRC.
                let res = self.fetch_verified(start, client_node, chunk, e.degraded)?;
                csp.arg("benefactor", res.home.0 as u64)
                    .arg("node", res.node as u64);
                if res.degraded {
                    csp.arg("degraded", 1);
                }
                csp.finish(res.end);
                out[i].1 = ChunkPayload::Data(res.data);
                Ok(res.end)
            },
        )?;
        for (o, end) in out.iter_mut().zip(times) {
            o.0 = end;
        }
        Ok(out)
    }

    /// Write back dirty pages of chunk `idx` (the FUSE eviction path).
    ///
    /// `updates` are `(offset_within_chunk, bytes)` runs. Handles all
    /// three slot states:
    ///
    /// * unmaterialized → materialize a fresh chunk (zeros + updates);
    /// * exclusive chunk → in-place page update;
    /// * shared chunk (checkpoint-linked) → copy-on-write: the benefactor
    ///   clones the chunk locally, the updates land on the clone, and the
    ///   file's slot is switched while the checkpoint keeps the original.
    ///
    /// Replication: the dirty bytes ship to **every** live copy (each
    /// transfer and SSD write is charged; completion is the slowest
    /// replica). A copy whose benefactor is dead is dropped from the
    /// chunk's home list — its on-disk bytes are stale from now on and
    /// are reclaimed when the benefactor reconciles on recovery. The
    /// write only fails if *no* copy is on a live benefactor.
    ///
    /// Resolution and the per-entry body are [`Self::write_pages_batch`]'s;
    /// the one difference is deliberate: with no batch to merge into, an
    /// erasure-coded write ships its parity deltas inline, concurrently
    /// with the data, instead of after it.
    pub fn write_pages(
        &self,
        t: VTime,
        client_node: usize,
        file: FileId,
        idx: usize,
        updates: &[(u64, &[u8])],
    ) -> Result<VTime> {
        self.validate_updates(updates);
        self.poll_faults(t);
        let sp = self.trace.span(Layer::Store, "store.write_pages", t);
        sp.arg("file", file.0).arg("idx", idx as u64);
        let owners = self.state.lock().slot_owners(std::iter::once((file, idx)));
        let need = std::iter::once(true);
        let t = self.resolve_rpcs(t, client_node, &owners, need, MgrOp::Write)?[0];
        let end = self.write_pages_inner(t, client_node, file, idx, updates, None)?;
        sp.finish(end);
        Ok(end)
    }

    /// Batched write-back: one manager RPC covers every entry, then the
    /// entries run as per-benefactor chains exactly like
    /// [`Self::fetch_chunks`] — entries bound for the same primary home
    /// chain serially (entry `i+1` ships when entry `i`'s replicas have
    /// all acknowledged), chains on distinct benefactors proceed
    /// concurrently from the shared resolution time, so a background
    /// flush scales with stripe width. Returns per-entry completion times
    /// in input order (a flush's completion is their max). Replication
    /// semantics per entry are identical to [`Self::write_pages`]: each
    /// entry independently ships to every live home and drops dead ones;
    /// an entry with no live home runs unchained from the resolution time
    /// and surfaces the same error the serial path would.
    pub fn write_pages_batch(
        &self,
        t: VTime,
        client_node: usize,
        entries: &[BatchWrite<'_>],
    ) -> Result<Vec<VTime>> {
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        for e in entries {
            self.validate_updates(e.updates);
        }
        self.poll_faults(t);
        self.batched_writes.inc();
        let sp = self.trace.span(Layer::Store, "store.write_batch", t);
        sp.arg("entries", entries.len() as u64);

        // Writes are placement mutations: every entry reaches the
        // authoritative manager or shard — no lease shortcut.
        let owners = self
            .state
            .lock()
            .slot_owners(entries.iter().map(|e| (e.file, e.idx)));
        let need = entries.iter().map(|_| true);
        let mut ends = self.resolve_rpcs(t, client_node, &owners, need, MgrOp::Write)?;

        // Chain entries by the benefactor their bytes land on first (the
        // primary live home). This is advisory — it only shapes chains;
        // `write_pages_inner` re-resolves authoritatively per entry.
        // Entries with no live home at batch time (they error, or — for
        // holes — allocate wherever space remains) run unchained.
        let (keys, fleet): (Vec<Option<BenefactorId>>, usize) = {
            let mgr = self.manager();
            let keys = entries
                .iter()
                .map(|e| Self::primary_live_home(&mgr, e.file, e.idx))
                .collect();
            (keys, mgr.benefactor_count())
        };
        let mut pbatch = ParityBatch::default();
        self.run_chains(
            |i| keys[i],
            &mut ends,
            fleet,
            |i, start| {
                let e = &entries[i];
                let esp = self.trace.span(Layer::Store, "store.write_pages", start);
                esp.arg("file", e.file.0).arg("idx", e.idx as u64);
                let end = self.write_pages_inner(
                    start,
                    client_node,
                    e.file,
                    e.idx,
                    e.updates,
                    Some((i, &mut pbatch)),
                )?;
                esp.finish(end);
                Ok(end)
            },
        )?;
        // Ship each touched group's XOR-merged parity once, after every
        // contributing data write has landed: one delta per parity member
        // per batch, not per entry. A full-group RS(4, 2) batch therefore
        // puts k + m = 6 chunk transfers on the wire where replicas = 2
        // puts 2k = 8.
        if !pbatch.groups.is_empty() {
            let flush_at = ends.iter().copied().max().unwrap_or(t);
            let mut mgr = self.manager();
            for ((file, group), gd) in std::mem::take(&mut pbatch.groups) {
                let spans = merge_spans(gd.spans);
                let deltas: Vec<Vec<(u64, &[u8])>> = gd
                    .bufs
                    .iter()
                    .map(|buf| {
                        spans
                            .iter()
                            .map(|&(s, e)| (s, &buf[s as usize..e as usize]))
                            .collect()
                    })
                    .collect();
                let pend =
                    self.ship_parity_deltas(&mut mgr, flush_at, client_node, file, group, &deltas)?;
                for &i in &gd.contributors {
                    ends[i] = ends[i].max(pend);
                }
            }
        }
        sp.finish(ends.iter().copied().max().unwrap_or(t));
        Ok(ends)
    }

    /// The benefactor a write to `(file, idx)` primarily lands on — the
    /// chain-grouping key for [`Self::write_pages_batch`]. `None` when no
    /// listed home is alive or the slot does not resolve; such entries
    /// run unchained and reproduce the serial path's outcome.
    fn primary_live_home(mgr: &Manager, file: FileId, idx: usize) -> Option<BenefactorId> {
        let meta = mgr.file(file).ok()?;
        let slot = *meta.slots.get(idx)?;
        match slot {
            Slot::Unmaterialized => meta
                .homes_of_slot(idx)
                .into_iter()
                .find(|&h| mgr.benefactor(h).is_alive()),
            Slot::Hole => mgr
                .placeable_benefactors()
                .iter()
                .copied()
                .find(|&b| mgr.benefactor(b).can_allocate_chunk(false)),
            Slot::Chunk(c) => mgr
                .chunk_homes(c)?
                .iter()
                .copied()
                .find(|&h| mgr.benefactor(h).is_alive()),
        }
    }

    fn validate_updates(&self, updates: &[(u64, &[u8])]) {
        let dirty_bytes: u64 = updates.iter().map(|(_, d)| d.len() as u64).sum();
        assert!(dirty_bytes > 0, "write_pages with no updates");
        for (off, data) in updates {
            assert!(
                off + data.len() as u64 <= self.cfg.chunk_size,
                "update outside chunk"
            );
        }
    }

    /// The post-RPC body of a page write-back, run at `t` when the
    /// resolution reply is in hand. `defer` is the parity sink: the
    /// batched path passes `Some((entry_index, batch))` so an
    /// erasure-coded write contributes its parity deltas to the batch's
    /// per-group accumulator; `None` ships them inline.
    fn write_pages_inner(
        &self,
        t: VTime,
        client_node: usize,
        file: FileId,
        idx: usize,
        updates: &[(u64, &[u8])],
        defer: Option<(usize, &mut ParityBatch)>,
    ) -> Result<VTime> {
        let dirty_bytes: u64 = updates.iter().map(|(_, d)| d.len() as u64).sum();
        let mut mgr = self.manager();
        let meta = mgr.file(file)?;
        if idx >= meta.slots.len() {
            return Err(StoreError::OutOfBounds {
                file,
                offset: idx as u64 * self.cfg.chunk_size,
                len: self.cfg.chunk_size,
                size: meta.size,
            });
        }
        let slot = meta.slots[idx];
        let replicas = meta.replicas.max(1);
        // (k, m, group) when this slot belongs to a parity group. Note
        // this keys off the *owning* file: a checkpoint file holding a
        // linked reference to an encoded chunk has `parity = 0` and its
        // COW write produces a plain chunk, leaving the source group
        // untouched.
        let parity_cfg = (meta.parity > 0).then(|| {
            (
                meta.group_data,
                meta.parity,
                meta.group_of_slot(idx),
                idx % meta.group_data,
            )
        });

        // Resolve the live home set for this write.
        let (live_homes, target) = match slot {
            Slot::Unmaterialized => {
                let homes = meta.homes_of_slot(idx);
                let (live, dead): (Vec<BenefactorId>, Vec<BenefactorId>) =
                    homes.iter().partition(|&&h| mgr.benefactor(h).is_alive());
                if live.is_empty() {
                    return Err(StoreError::BenefactorDown(homes[0]));
                }
                // The dead homes' reservations move off their books: the
                // chunk materializes on the live subset only, and repair
                // re-replicates it elsewhere later.
                for h in dead {
                    mgr.benefactor_mut(h).release_slots(1);
                }
                (live, replicas)
            }
            Slot::Hole => {
                // Holes (zero regions inside linked checkpoint files)
                // carry no reservation and may sit in a file with no
                // stripe of its own; writing one allocates fresh space
                // wherever it fits — up to `replicas` distinct placeable
                // (non-quarantined) hosts.
                let mut picked = Vec::new();
                for &b in mgr.placeable_benefactors() {
                    if picked.len() == replicas {
                        break;
                    }
                    if mgr.benefactor(b).can_allocate_chunk(false) {
                        picked.push(b);
                    }
                }
                if picked.is_empty() {
                    return Err(StoreError::OutOfSpace {
                        requested: self.cfg.chunk_size,
                        available: 0,
                    });
                }
                (picked, replicas)
            }
            // A materialized chunk's authoritative homes are the chunk
            // map (a linked slot's position in *this* file says nothing
            // about where the shared chunk actually lives).
            Slot::Chunk(c) => {
                let homes: Vec<BenefactorId> =
                    mgr.chunk_homes(c).expect("chunk has a home").to_vec();
                let (live, dead): (Vec<BenefactorId>, Vec<BenefactorId>) =
                    homes.iter().partition(|&&h| mgr.benefactor(h).is_alive());
                if live.is_empty() {
                    return Err(StoreError::BenefactorDown(homes[0]));
                }
                for h in dead {
                    mgr.remove_chunk_home(c, h);
                }
                let target = mgr.chunk_target(c).expect("chunk has a target");
                (live, target)
            }
        };

        // COW space check happens before any time is charged.
        if let Slot::Chunk(c) = slot {
            if mgr.chunk_refcount(c) > 1 {
                for &h in &live_homes {
                    if !mgr.benefactor(h).can_allocate_chunk(false) {
                        return Err(StoreError::OutOfSpace {
                            requested: self.cfg.chunk_size,
                            available: mgr.benefactor(h).free(),
                        });
                    }
                }
            }
        }

        let chunk_len = self.cfg.chunk_size;
        let compose = |updates: &[(u64, &[u8])]| {
            let mut data = vec![0u8; chunk_len as usize];
            for (off, d) in updates {
                data[*off as usize..*off as usize + d.len()].copy_from_slice(d);
            }
            ChunkBuf::from(data)
        };

        // Digest of a zero chunk with `updates` applied, without scanning
        // the composed buffer: start from the all-zeros digest and splice
        // each dirty run in — O(dirty bytes), not O(chunk). Dirty runs
        // never overlap (they come from a page bitmap), which the splice
        // algebra relies on.
        let compose_crc = |updates: &[(u64, &[u8])]| {
            let mut crc = crc::crc64_zeros(chunk_len);
            for (off, d) in updates {
                crc = crc::crc64_splice_fresh(crc, chunk_len, *off, d);
            }
            crc
        };

        // Digest of the *intended* post-write content of chunk `c`,
        // recorded in metadata before any benefactor write lands — a torn
        // write or silent corruption on the media then disagrees with it.
        //
        // The recorded digest is the digest of the intended *current*
        // content, so the new digest is an incremental splice of each
        // dirty run into it (O(dirty bytes + log chunk), no full-chunk
        // copy or rescan). With verification on, the old bytes under each
        // run are read from a copy that still matches the recorded CRC,
        // so existing rot on one replica is not laundered into the new
        // digest; if no copy verifies, fall back to a full recompute over
        // the best available bytes (prior behavior).
        let updated_crc = |mgr: &Manager, c: ChunkId, homes: &[BenefactorId]| -> u64 {
            let recorded = mgr.chunk_crc(c).expect("chunk without crc");
            let splice_all = |base: &[u8]| -> u64 {
                let mut crc = recorded;
                for (off, d) in updates {
                    let at = *off as usize;
                    crc = crc::crc64_splice(crc, chunk_len, *off, &base[at..at + d.len()], d);
                }
                crc
            };
            if self.cfg.verify_reads {
                if let Some(base) = homes.iter().find_map(|&h| {
                    mgr.benefactor(h)
                        .peek_chunk(c)
                        .filter(|b| crc64(b) == recorded)
                }) {
                    return splice_all(base);
                }
                let base = homes
                    .iter()
                    .find_map(|&h| mgr.benefactor(h).peek_chunk(c))
                    .expect("live copy present");
                let mut scratch: Box<[u8]> = base.into();
                for (off, d) in updates {
                    scratch[*off as usize..*off as usize + d.len()].copy_from_slice(d);
                }
                return crc64(&scratch);
            }
            let base = homes
                .iter()
                .find_map(|&h| mgr.benefactor(h).peek_chunk(c))
                .expect("live copy present");
            splice_all(base)
        };

        // Parity deltas need the intended *current* bytes under each
        // dirty run, captured before the write lands anywhere. Base
        // selection mirrors `updated_crc` (prefer a CRC-clean copy under
        // verification) so replica rot is not laundered into the parity.
        let old_runs: Vec<Box<[u8]>> = match (parity_cfg.is_some(), slot) {
            (false, _) => Vec::new(),
            (true, Slot::Unmaterialized | Slot::Hole) => updates
                .iter()
                .map(|(_, d)| vec![0u8; d.len()].into_boxed_slice())
                .collect(),
            (true, Slot::Chunk(c)) => {
                let recorded = mgr.chunk_crc(c).expect("chunk without crc");
                let verified_base = self.cfg.verify_reads.then(|| {
                    live_homes.iter().find_map(|&h| {
                        mgr.benefactor(h)
                            .peek_chunk(c)
                            .filter(|b| crc64(b) == recorded)
                    })
                });
                let base = verified_base
                    .flatten()
                    .or_else(|| {
                        live_homes
                            .iter()
                            .find_map(|&h| mgr.benefactor(h).peek_chunk(c))
                    })
                    .expect("live copy present");
                updates
                    .iter()
                    .map(|(off, d)| {
                        let at = *off as usize;
                        base[at..at + d.len()].to_vec().into_boxed_slice()
                    })
                    .collect()
            }
        };

        let mut end = VTime::ZERO;
        match slot {
            Slot::Unmaterialized | Slot::Hole => {
                // First write: compose zeros + updates once; every live
                // copy shares the composed bytes until one is written.
                // Unmaterialized slots consume their fallocate reservation;
                // hole writes allocate unreserved space (checked above).
                let consumes_reservation = matches!(slot, Slot::Unmaterialized);
                let data = compose(updates);
                let crc = compose_crc(updates);
                let c = mgr.new_chunk_id(live_homes.clone(), target, crc);
                for &home in &live_homes {
                    let home_node = mgr.benefactor(home).node;
                    let xfer = self.net.transfer_at(t, client_node, home_node, dirty_bytes);
                    self.bytes_from_clients.add(dirty_bytes);
                    let g = mgr.benefactor_mut(home).store_chunk(
                        xfer.arrived,
                        c,
                        data.clone(),
                        dirty_bytes,
                        consumes_reservation,
                    );
                    end = end.max(g.end);
                }
                mgr.set_slot(file, idx, Slot::Chunk(c));
            }
            Slot::Chunk(c) => {
                let new_crc = updated_crc(&mgr, c, &live_homes);
                if mgr.chunk_refcount(c) > 1 {
                    // COW: clone on each live copy's benefactor, then
                    // land the updates on the clones.
                    self.cow_clones.inc();
                    let c_new = mgr.new_chunk_id(live_homes.clone(), target, new_crc);
                    for &home in &live_homes {
                        let home_node = mgr.benefactor(home).node;
                        let xfer = self.net.transfer_at(t, client_node, home_node, dirty_bytes);
                        self.bytes_from_clients.add(dirty_bytes);
                        let g = mgr.benefactor_mut(home).clone_chunk(xfer.arrived, c, c_new);
                        let g2 = mgr.benefactor_mut(home).update_chunk(g.end, c_new, updates);
                        end = end.max(g2.end);
                    }
                    mgr.set_slot(file, idx, Slot::Chunk(c_new));
                    mgr.decref_chunk(c);
                } else {
                    mgr.set_chunk_crc(c, new_crc);
                    for &home in &live_homes {
                        let home_node = mgr.benefactor(home).node;
                        let xfer = self.net.transfer_at(t, client_node, home_node, dirty_bytes);
                        self.bytes_from_clients.add(dirty_bytes);
                        let g = mgr
                            .benefactor_mut(home)
                            .update_chunk(xfer.arrived, c, updates);
                        end = end.max(g.end);
                    }
                }
            }
        }

        // Erasure-coded write: every parity member of this slot's group
        // absorbs coef(p, member) · (old ⊕ new) over exactly the dirty
        // runs — O(dirty) parity work per write, never a group re-encode
        // (DESIGN.md §15). `write_pages` ships the deltas now; a batch
        // defers them to a per-group, per-batch merge.
        if let Some((k, m, group, member)) = parity_cfg {
            let code = RsCode::new(k, m);
            let deltas: Vec<Vec<(u64, Box<[u8]>)>> = (0..m)
                .map(|p| {
                    updates
                        .iter()
                        .zip(&old_runs)
                        .map(|((off, new), old)| {
                            let mut out = vec![0u8; new.len()].into_boxed_slice();
                            code.parity_delta(p, member, old, new, &mut out);
                            (*off, out)
                        })
                        .collect()
                })
                .collect();
            match defer {
                Some((i, batch)) => batch.absorb(file, group, m, chunk_len, i, &deltas),
                None => {
                    let runs: Vec<Vec<(u64, &[u8])>> = deltas
                        .iter()
                        .map(|rs| rs.iter().map(|(o, d)| (*o, &d[..])).collect())
                        .collect();
                    let pend =
                        self.ship_parity_deltas(&mut mgr, t, client_node, file, group, &runs)?;
                    end = end.max(pend);
                }
            }
        }
        Ok(end)
    }

    /// Apply per-parity-member delta runs to group `group` of `file`:
    /// ship each member's delta to its parity benefactor and XOR it into
    /// the stored content (read-modify-write at the benefactor), splicing
    /// the recorded CRC with the GF(2) machinery so the digest update is
    /// O(dirty) too. An unmaterialized parity slot materializes here —
    /// its old content is implicitly zeros, so the delta *is* the new
    /// content. A parity member whose home is dead is flagged stale and
    /// skipped: its content no longer reflects the data, and the repair
    /// sweep re-encodes it rather than trust it ever again.
    fn ship_parity_deltas(
        &self,
        mgr: &mut Manager,
        t: VTime,
        client_node: usize,
        file: FileId,
        group: usize,
        deltas: &[Vec<(u64, &[u8])>],
    ) -> Result<VTime> {
        let chunk_len = self.cfg.chunk_size;
        let mut end = t;
        let tasks: Vec<(usize, Slot, bool, BenefactorId)> = {
            let meta = mgr.file(file)?;
            (0..meta.parity)
                .map(|p| {
                    (
                        p,
                        meta.parity_slot(group, p),
                        meta.parity_is_stale(group, p),
                        meta.parity_home(group, p),
                    )
                })
                .collect()
        };
        for (p, slot, stale, home) in tasks {
            if stale {
                // Already invalid; applying more deltas cannot fix it.
                continue;
            }
            let runs = &deltas[p];
            let dirty: u64 = runs.iter().map(|(_, d)| d.len() as u64).sum();
            match slot {
                Slot::Unmaterialized => {
                    if !mgr.benefactor(home).is_alive() {
                        mgr.set_parity_stale(file, group, p, true);
                        continue;
                    }
                    // First delta materializes the member: old content is
                    // zeros, so the delta is the content.
                    let mut data = vec![0u8; chunk_len as usize];
                    let mut crc = crc::crc64_zeros(chunk_len);
                    for (off, d) in runs {
                        let at = *off as usize;
                        data[at..at + d.len()].copy_from_slice(d);
                        crc = crc::crc64_splice_fresh(crc, chunk_len, *off, d);
                    }
                    let c = mgr.new_chunk_id(vec![home], 1, crc);
                    let home_node = mgr.benefactor(home).node;
                    let xfer = self.net.transfer_at(t, client_node, home_node, dirty);
                    self.bytes_from_clients.add(dirty);
                    let g =
                        mgr.benefactor_mut(home)
                            .store_chunk(xfer.arrived, c, data, dirty, true);
                    mgr.set_parity_slot(file, group, p, Slot::Chunk(c));
                    end = end.max(g.end);
                }
                Slot::Chunk(pc) => {
                    let live = mgr
                        .chunk_homes(pc)
                        .expect("parity chunk listed")
                        .iter()
                        .copied()
                        .find(|&h| mgr.benefactor(h).is_alive());
                    let Some(home) = live else {
                        mgr.set_parity_stale(file, group, p, true);
                        continue;
                    };
                    let recorded = mgr.chunk_crc(pc).expect("chunk without crc");
                    let (new_runs, crc) = {
                        let base = mgr.benefactor(home).peek_chunk(pc).expect("live copy");
                        let mut crc = recorded;
                        let mut new_runs: Vec<(u64, Box<[u8]>)> = Vec::with_capacity(runs.len());
                        for (off, d) in runs {
                            let at = *off as usize;
                            let old = &base[at..at + d.len()];
                            let mut nb = vec![0u8; d.len()].into_boxed_slice();
                            for ((n, o), x) in nb.iter_mut().zip(old).zip(d.iter()) {
                                *n = o ^ x;
                            }
                            crc = crc::crc64_splice(crc, chunk_len, *off, old, &nb);
                            new_runs.push((*off, nb));
                        }
                        (new_runs, crc)
                    };
                    mgr.set_chunk_crc(pc, crc);
                    let home_node = mgr.benefactor(home).node;
                    let xfer = self.net.transfer_at(t, client_node, home_node, dirty);
                    self.bytes_from_clients.add(dirty);
                    let upd: Vec<(u64, &[u8])> =
                        new_runs.iter().map(|(o, d)| (*o, &d[..])).collect();
                    let g = mgr
                        .benefactor_mut(home)
                        .update_chunk(xfer.arrived, pc, &upd);
                    end = end.max(g.end);
                }
                Slot::Hole => unreachable!("parity slots are never holes"),
            }
            self.stats.counter("store.parity_encodes").inc();
            self.stats.counter("store.parity_bytes").add(dirty);
        }
        Ok(end)
    }

    /// Bulk sequential write (checkpoint DRAM dumps, workload loads):
    /// splits `data` into per-chunk updates.
    pub fn write_span(
        &self,
        mut t: VTime,
        client_node: usize,
        file: FileId,
        offset: u64,
        data: &[u8],
    ) -> Result<VTime> {
        let size = self.file_size(file)?;
        if offset + data.len() as u64 > size {
            return Err(StoreError::OutOfBounds {
                file,
                offset,
                len: data.len() as u64,
                size,
            });
        }
        let cs = self.cfg.chunk_size;
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let idx = (abs / cs) as usize;
            let within = abs % cs;
            let take = ((cs - within) as usize).min(data.len() - pos);
            t = self.write_pages(
                t,
                client_node,
                file,
                idx,
                &[(within, &data[pos..pos + take])],
            )?;
            pos += take;
        }
        Ok(t)
    }

    /// Bulk sequential read into `buf` (restart path).
    pub fn read_span(
        &self,
        mut t: VTime,
        client_node: usize,
        file: FileId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<VTime> {
        let size = self.file_size(file)?;
        if offset + buf.len() as u64 > size {
            return Err(StoreError::OutOfBounds {
                file,
                offset,
                len: buf.len() as u64,
                size,
            });
        }
        let cs = self.cfg.chunk_size;
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = offset + pos as u64;
            let idx = (abs / cs) as usize;
            let within = (abs % cs) as usize;
            let take = (cs as usize - within).min(buf.len() - pos);
            let (t2, payload) = self.fetch_chunk(t, client_node, file, idx)?;
            t = t2;
            match payload {
                ChunkPayload::Zeros => buf[pos..pos + take].fill(0),
                ChunkPayload::Data(chunk) => {
                    buf[pos..pos + take].copy_from_slice(&chunk[within..within + take])
                }
            }
            pos += take;
        }
        Ok(t)
    }

    // ----- administration ---------------------------------------------------

    /// Simulate a benefactor failure (or decommission/recovery). Revival
    /// reconciles the benefactor's disk against the metadata: chunks that
    /// were re-homed while it was down are stale there and get dropped.
    pub fn set_benefactor_alive(&self, id: BenefactorId, alive: bool) {
        let mut mgr = self.manager();
        if mgr.benefactor(id).is_alive() == alive {
            return;
        }
        mgr.set_alive(id, alive);
        // Liveness changes serviceability: invalidate location caches.
        mgr.bump_placement_epoch();
        if alive {
            mgr.reconcile_recovered(id);
            self.benefactor_recoveries.inc();
        } else {
            self.benefactor_crashes.inc();
        }
    }

    /// Simulate a placement-shard failure or recovery (DESIGN.md §12).
    /// A crash quarantines only the dead shard's keyspace: leases it
    /// granted stay valid, so leased clients keep answering placement
    /// locally, and every other shard is untouched. Recovery restarts
    /// the shard with a cold lease table — every delegation it granted
    /// before the crash is revoked and the placement epoch bumps, so no
    /// client can keep serving resolutions the reborn shard no longer
    /// vouches for. A no-op without an installed shard set.
    pub fn set_shard_alive(&self, shard: usize, alive: bool) {
        let mut st = self.state.lock();
        let Some(ss) = st.shards.as_mut() else { return };
        if ss.is_alive(shard) == alive {
            return;
        }
        ss.set_alive(shard, alive);
        if alive {
            st.revoke_rank(shard);
        }
    }

    /// Simulate a manager-rank crash or reboot (DESIGN.md §16). `rank`
    /// is the placement shard whose hosting process dies (rank 0 with
    /// the serial manager). A crash stops that rank answering metadata
    /// RPCs; clients sit in the retry/backoff loop. With `ha_standby`
    /// the rank's standby schedules a takeover at crash time +
    /// `failover_timeout` + journal-replay cost; without it the rank
    /// stays down until a scheduled `ManagerRecover` reboots it cold —
    /// which revokes every lease it granted and bumps the placement
    /// epoch, exactly like a shard cold restart. A reboot after the
    /// standby already took over just rejoins as the new standby.
    pub fn set_manager_alive(&self, rank: usize, alive: bool, at: VTime) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        st.ha.ensure(st.shard_count().max(1).max(rank + 1));
        let slot = &mut st.ha.ranks[rank];
        if alive {
            // A rank the standby already took over is up: the rebooted
            // ex-primary rejoins as the new standby (promote_standby
            // parked its node there) and nothing else happens. Otherwise
            // this is a cold restart: no pre-crash delegation survives.
            if slot.take().is_some() {
                st.revoke_rank(rank);
            }
        } else if slot.is_none() {
            let takeover_at = self.cfg.ha_standby.then(|| {
                let records = st
                    .mgr
                    .journal()
                    .map_or(0, |j| j.lane(rank.min(j.lanes() - 1)).records());
                let replay = VTime::from_nanos(self.cfg.replay_record_cpu.as_nanos() * records);
                at + self.cfg.failover_timeout + replay
            });
            *slot = Some(RankDown {
                crashed_at: at,
                takeover_at,
            });
        }
    }

    /// Is manager rank `rank` down right now? (Tests/benches.)
    pub fn manager_rank_down(&self, rank: usize) -> bool {
        self.state.lock().ha.down(rank).is_some()
    }

    /// Is manager rank `rank` serving at `t`? Drives standby takeover:
    /// the first readiness probe at or past the takeover deadline
    /// performs the failover (journal replay + promotion + lease
    /// revocation) and reports the rank back up. Trivially true when no
    /// manager fault ever fired — the rank table stays empty.
    fn manager_rank_ready(&self, st: &mut StoreState, rank: usize, t: VTime) -> bool {
        let Some(down) = st.ha.down(rank) else {
            return true;
        };
        match down.takeover_at {
            Some(due) if t >= due => {
                st.ha.ranks[rank] = None;
                self.failover_manager(st, rank, down.crashed_at, due);
                true
            }
            _ => false,
        }
    }

    /// Standby takeover at `at` of manager rank `rank`, down since
    /// `crashed` (DESIGN.md §16): unload the rank's journal lane as a
    /// superblock + log image, scan-and-repair and replay it (rebuilding
    /// slot bitmaps through `BitAlloc::from_leaf`), verify the replayed
    /// metadata against the live fleet, promote the standby to serving
    /// rank, and revoke every pre-crash lease with a placement-epoch bump
    /// so the `LocationCache` cannot serve a stale placement.
    fn failover_manager(&self, st: &mut StoreState, rank: usize, crashed: VTime, at: VTime) {
        // The real recovery path, not a shortcut: serialize the lane,
        // decode it back through scan-and-repair, replay, and verify the
        // replayed metadata one-sided against the live fleet.
        let image = st
            .mgr
            .unload_journal(rank)
            .expect("HA standby requires journaling");
        let (sb, meta, repair) =
            crate::journal::load_image(&image).expect("self-written image decodes");
        assert!(!repair.torn, "a just-unloaded image has no torn tail");
        assert_eq!(sb.records, repair.records, "superblock counts its log");
        st.mgr.verify_replayed(&meta);
        self.stats.counter("store.journal_replays").inc();
        self.stats.counter("store.mgr_failovers").inc();
        self.stats
            .counter("store.mgr_failover_us")
            .add((at - crashed).as_nanos() / 1_000);
        // Sharded mode: the standby's node takes over the rank's RPC
        // endpoint. Serial mode models the standby at the manager node.
        if let Some(node) = st.shards.as_mut().and_then(|ss| ss.promote_standby(rank)) {
            self.net.register_endpoint(&shard_endpoint(rank), node);
        }
        // No pre-crash delegation survives the takeover: the standby's
        // lease table is cold.
        st.revoke_rank(rank);
        self.trace
            .instant(Layer::Fault, format!("store.mgr_failover m={rank}"), at);
    }

    /// Install a standby manager rank per shard: `nodes[k]` is shard
    /// `k`'s standby. Call after [`Self::install_shards`]; cluster
    /// builds wire this when `ha_standby` is set.
    pub fn set_standby_nodes(&self, nodes: &[usize]) {
        let mut st = self.state.lock();
        let ss = st
            .shards
            .as_mut()
            .expect("standbys require an installed shard set");
        assert_eq!(nodes.len(), ss.len(), "one standby per shard");
        for (k, &n) in nodes.iter().enumerate() {
            ss.set_standby(k, n);
        }
    }

    /// One pass of the manager-side re-replication scanner: copy every
    /// under-replicated chunk from a surviving copy to a live benefactor
    /// that doesn't already hold one, restoring the replica degree after
    /// a crash. The sweep is sequential (donor SSD read → network copy →
    /// destination SSD write per chunk) so the returned completion time
    /// *is* the time-to-repair. Deterministic: chunks are visited in id
    /// order and the destination is the lowest-id eligible benefactor.
    pub fn repair_under_replicated(&self, t: VTime) -> (VTime, RepairReport) {
        self.poll_faults(t);
        let sp = self.trace.span(Layer::Store, "store.repair", t);
        let mut t = t;
        let mut report = RepairReport::default();
        let work = self.manager().under_replicated();
        for (c, _, missing) in work {
            for _ in 0..missing {
                let mut mgr = self.manager();
                // Re-read the home list: earlier copies in this sweep (or
                // a racing write) may have changed it.
                let homes: Vec<BenefactorId> = match mgr.chunk_homes(c) {
                    Some(h) => h.to_vec(),
                    None => break, // chunk deleted mid-sweep
                };
                // Donor: the first live copy — under `verify_reads`, the
                // first live copy whose bytes still match the recorded
                // digest, so a rotten donor never propagates its
                // corruption into a fresh replica. Mismatching candidates
                // are counted and quarantined like a failed read.
                let donor = {
                    let live: Vec<BenefactorId> = homes
                        .iter()
                        .copied()
                        .filter(|&h| mgr.benefactor(h).is_alive())
                        .collect();
                    if self.cfg.verify_reads {
                        let want = mgr.chunk_crc(c).expect("chunk without crc");
                        let mut pick = None;
                        for h in live {
                            let ok = mgr
                                .benefactor(h)
                                .peek_chunk(c)
                                .is_some_and(|b| crc64(b) == want);
                            if ok {
                                pick = Some(h);
                                break;
                            }
                            self.stats.counter("store.crc_mismatches").inc();
                            if mgr.chunk_homes(c).expect("chunk listed").len() > 1 {
                                mgr.remove_chunk_home(c, h);
                                mgr.benefactor_mut(h).drop_chunk(c);
                            }
                        }
                        pick
                    } else {
                        live.first().copied()
                    }
                };
                let Some(donor) = donor else {
                    report.chunks_unrepairable += 1;
                    break;
                };
                // Re-read again: donor vetting may have dropped copies.
                let homes: Vec<BenefactorId> = mgr.chunk_homes(c).expect("chunk listed").to_vec();
                let dest = (0..mgr.benefactor_count()).map(BenefactorId).find(|b| {
                    !homes.contains(b)
                        && mgr.benefactor(*b).is_placeable()
                        && mgr.benefactor(*b).can_allocate_chunk(false)
                });
                let dest = match dest {
                    Some(d) => d,
                    None => {
                        report.chunks_unrepairable += 1;
                        break;
                    }
                };
                let donor_node = mgr.benefactor(donor).node;
                let dest_node = mgr.benefactor(dest).node;
                let (g, data) = mgr.benefactor(donor).read_chunk(t, c);
                let xfer = self
                    .net
                    .transfer_at(g.end, donor_node, dest_node, self.cfg.chunk_size);
                let g2 = mgr.benefactor_mut(dest).store_chunk(
                    xfer.arrived,
                    c,
                    data,
                    self.cfg.chunk_size,
                    false,
                );
                mgr.add_chunk_home(c, dest);
                t = g2.end;
                report.chunks_repaired += 1;
                report.bytes_copied += self.cfg.chunk_size;
                self.repairs_chunks.inc();
                self.repairs_bytes.add(self.cfg.chunk_size);
            }
        }
        sp.arg("repaired", report.chunks_repaired)
            .arg("unrepairable", report.chunks_unrepairable);
        sp.finish(t);
        (t, report)
    }

    /// Rebuild the content of group member `gref.member` at `dest_node`:
    /// pull any `k` surviving members there and decode. Repair traffic is
    /// benefactor-to-benefactor — the client is not in the path — and the
    /// survivor reads run sequentially, so the returned completion time
    /// is the full rebuild cost. Also returns the bytes moved over the
    /// network, for the repair report.
    fn rebuild_content(
        &self,
        mgr: &Manager,
        t: VTime,
        gref: GroupRef,
        dest_node: usize,
    ) -> Result<(VTime, ChunkBuf, u64)> {
        let chunk_size = self.cfg.chunk_size;
        let (k, m, picks) = self.survivors_for(mgr, gref)?;
        let mut now = t;
        let mut bytes = 0u64;
        let mut reads: Vec<(usize, ChunkBuf)> = Vec::with_capacity(k);
        let mut zero_members: Vec<usize> = Vec::new();
        for s in &picks {
            match *s {
                Survivor::Zeros(member) => zero_members.push(member),
                Survivor::Copy {
                    member,
                    chunk,
                    home,
                } => {
                    let (g, data) = mgr.benefactor(home).read_chunk(now, chunk);
                    let xfer = self.net.transfer_at(
                        g.end,
                        mgr.benefactor(home).node,
                        dest_node,
                        chunk_size,
                    );
                    now = xfer.arrived;
                    bytes += chunk_size;
                    reads.push((member, data));
                }
            }
        }
        let zeros = vec![0u8; chunk_size as usize];
        let mut present: Vec<(usize, &[u8])> = Vec::with_capacity(k);
        for &member in &zero_members {
            present.push((member, &zeros));
        }
        for (member, data) in &reads {
            present.push((*member, data));
        }
        present.sort_unstable_by_key(|(member, _)| *member);
        let content = RsCode::new(k, m)
            .reconstruct(&present, &[gref.member])
            .pop()
            .expect("one wanted member");
        Ok((now, content.into(), bytes))
    }

    /// Sweep every erasure-coded file and rebuild group members the store
    /// can no longer read: chunks whose every home is dead are decoded
    /// from `k` survivors onto a fresh benefactor, and stale parity (a
    /// delta that could not land because the parity home was dead) is
    /// re-encoded in place or re-homed. The parity analogue of
    /// [`repair_under_replicated`](Self::repair_under_replicated), with
    /// the same determinism: files, groups and members are visited in
    /// ascending order and the destination is the lowest-id placeable
    /// benefactor holding no member of the group.
    pub fn repair_parity_groups(&self, t: VTime) -> (VTime, RepairReport) {
        self.poll_faults(t);
        let sp = self.trace.span(Layer::Store, "store.parity_repair", t);
        let mut mgr = self.manager();
        let (end, report) = self.repair_parity_groups_locked(&mut mgr, t);
        drop(mgr);
        sp.arg("repaired", report.chunks_repaired)
            .arg("unrepairable", report.chunks_unrepairable);
        sp.finish(end);
        (end, report)
    }

    /// The sweep body, callable from inside the scrub pass (which already
    /// holds the store state).
    fn repair_parity_groups_locked(&self, mgr: &mut Manager, t: VTime) -> (VTime, RepairReport) {
        let mut now = t;
        let mut report = RepairReport::default();
        for f in mgr.parity_files_sorted() {
            let (k, m, n_groups) = match mgr.file(f) {
                Ok(meta) => (meta.group_data, meta.parity, meta.parity_groups()),
                Err(_) => continue,
            };
            for gidx in 0..n_groups {
                for member in 0..k + m {
                    let gref = GroupRef {
                        file: f,
                        group: gidx,
                        member,
                    };
                    now = self.repair_group_member(mgr, now, gref, k, &mut report);
                }
            }
        }
        (now, report)
    }

    /// Examine one group member; if it is unreadable (dead-homed) or
    /// stale, rebuild it.
    fn repair_group_member(
        &self,
        mgr: &mut Manager,
        mut now: VTime,
        gref: GroupRef,
        k: usize,
        report: &mut RepairReport,
    ) -> VTime {
        enum Fix {
            /// A chunk whose every home is dead: decode onto a fresh
            /// benefactor. `stale` parity additionally needs its digest
            /// recomputed (the stored copy missed deltas).
            Rehome { chunk: ChunkId, stale: bool },
            /// Stale parity with a live home: re-encode in place.
            Rewrite { chunk: ChunkId, home: BenefactorId },
            /// Stale never-materialized parity: the reservation's
            /// benefactor died before the first delta could land.
            Materialize { p: usize, reserve: BenefactorId },
        }
        let all_dead = |mgr: &Manager, c: ChunkId| {
            mgr.chunk_homes(c)
                .expect("chunk listed")
                .iter()
                .all(|&h| !mgr.benefactor(h).is_alive())
        };
        let fix = {
            let Ok(meta) = mgr.file(gref.file) else {
                return now;
            };
            if gref.member < k {
                match meta.slots.get(gref.group * k + gref.member) {
                    Some(&Slot::Chunk(c)) if all_dead(mgr, c) => Some(Fix::Rehome {
                        chunk: c,
                        stale: false,
                    }),
                    _ => None,
                }
            } else {
                let p = gref.member - k;
                let stale = meta.parity_is_stale(gref.group, p);
                match meta.parity_slot(gref.group, p) {
                    Slot::Unmaterialized if stale => Some(Fix::Materialize {
                        p,
                        reserve: meta.parity_home(gref.group, p),
                    }),
                    Slot::Chunk(c) => {
                        let live = mgr
                            .chunk_homes(c)
                            .expect("chunk listed")
                            .iter()
                            .copied()
                            .find(|&h| mgr.benefactor(h).is_alive());
                        match (stale, live) {
                            (true, Some(home)) => Some(Fix::Rewrite { chunk: c, home }),
                            (_, None) => Some(Fix::Rehome { chunk: c, stale }),
                            (false, Some(_)) => None,
                        }
                    }
                    _ => None,
                }
            }
        };
        let Some(fix) = fix else { return now };
        let chunk_size = self.cfg.chunk_size;
        match fix {
            Fix::Rewrite { chunk, home } => {
                let dest_node = mgr.benefactor(home).node;
                match self.rebuild_content(mgr, now, gref, dest_node) {
                    Ok((t2, content, bytes)) => {
                        let upd = [(0u64, &content[..])];
                        let g = mgr.benefactor_mut(home).update_chunk(t2, chunk, &upd);
                        mgr.set_chunk_crc(chunk, crc64(&content));
                        mgr.set_parity_stale(gref.file, gref.group, gref.member - k, false);
                        now = g.end;
                        report.chunks_repaired += 1;
                        report.bytes_copied += bytes + chunk_size;
                        self.stats.counter("store.parity_repairs").inc();
                    }
                    Err(_) => report.chunks_unrepairable += 1,
                }
            }
            Fix::Rehome { chunk, stale } => {
                let occupied = group_homes(mgr, gref.file, gref.group);
                let dest = (0..mgr.benefactor_count()).map(BenefactorId).find(|b| {
                    !occupied.contains(b)
                        && mgr.benefactor(*b).is_placeable()
                        && mgr.benefactor(*b).can_allocate_chunk(false)
                });
                let Some(dest) = dest else {
                    report.chunks_unrepairable += 1;
                    return now;
                };
                let dest_node = mgr.benefactor(dest).node;
                match self.rebuild_content(mgr, now, gref, dest_node) {
                    Ok((t2, content, bytes)) => {
                        let crc = crc64(&content);
                        if stale {
                            // The stored copy missed deltas; the decode
                            // *is* the truth now.
                            mgr.set_chunk_crc(chunk, crc);
                            mgr.set_parity_stale(gref.file, gref.group, gref.member - k, false);
                        } else if crc != mgr.chunk_crc(chunk).expect("chunk without crc") {
                            // A survivor lied; refuse to install garbage.
                            report.chunks_unrepairable += 1;
                            return now;
                        }
                        let dead: Vec<BenefactorId> =
                            mgr.chunk_homes(chunk).expect("chunk listed").to_vec();
                        let g = mgr
                            .benefactor_mut(dest)
                            .store_chunk(t2, chunk, content, chunk_size, false);
                        mgr.add_chunk_home(chunk, dest);
                        for h in dead {
                            mgr.remove_chunk_home(chunk, h);
                            mgr.benefactor_mut(h).drop_chunk(chunk);
                        }
                        now = g.end;
                        report.chunks_repaired += 1;
                        report.bytes_copied += bytes + chunk_size;
                        self.stats.counter("store.parity_repairs").inc();
                    }
                    Err(_) => report.chunks_unrepairable += 1,
                }
            }
            Fix::Materialize { p, reserve } => {
                let (dest, consumes) = if mgr.benefactor(reserve).is_alive()
                    && mgr.benefactor(reserve).is_placeable()
                {
                    (Some(reserve), true)
                } else {
                    let occupied = group_homes(mgr, gref.file, gref.group);
                    let dest = (0..mgr.benefactor_count()).map(BenefactorId).find(|b| {
                        !occupied.contains(b)
                            && mgr.benefactor(*b).is_placeable()
                            && mgr.benefactor(*b).can_allocate_chunk(false)
                    });
                    (dest, false)
                };
                let Some(dest) = dest else {
                    report.chunks_unrepairable += 1;
                    return now;
                };
                let dest_node = mgr.benefactor(dest).node;
                match self.rebuild_content(mgr, now, gref, dest_node) {
                    Ok((t2, content, bytes)) => {
                        if !consumes {
                            // The original reservation is parked on a
                            // dead/quarantined benefactor; give it back.
                            mgr.benefactor_mut(reserve).release_slots(1);
                        }
                        let crc = crc64(&content);
                        let c = mgr.new_chunk_id(vec![dest], 1, crc);
                        let g = mgr
                            .benefactor_mut(dest)
                            .store_chunk(t2, c, content, chunk_size, consumes);
                        mgr.set_parity_slot(gref.file, gref.group, p, Slot::Chunk(c));
                        now = g.end;
                        report.chunks_repaired += 1;
                        report.bytes_copied += bytes + chunk_size;
                        self.stats.counter("store.parity_repairs").inc();
                    }
                    Err(_) => report.chunks_unrepairable += 1,
                }
            }
        }
        now
    }

    /// Per-benefactor SSD wear, for the lifetime-optimization analyses.
    pub fn wear_reports(&self) -> Vec<(usize, WearReport)> {
        let mgr = self.manager();
        (0..mgr.benefactor_count())
            .map(|i| {
                let b = mgr.benefactor(BenefactorId(i));
                (b.node, b.ssd().wear())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devices::{Ssd, INTEL_X25E};
    use netsim::NetConfig;
    use simcore::time::bytes::mib;

    const CHUNK: u64 = 256 * 1024;

    /// A 4-node store: manager on node 0, benefactors on nodes 1 and 2,
    /// client drives from node 3.
    fn store() -> (AggregateStore, StatsRegistry) {
        let stats = StatsRegistry::new();
        let net = Network::new(4, NetConfig::default(), &stats);
        let store = AggregateStore::new(StoreConfig::default(), net, &stats);
        for (i, node) in [1usize, 2].iter().enumerate() {
            let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
            store.add_benefactor(Benefactor::new(*node, ssd, mib(64), CHUNK));
        }
        (store, stats)
    }

    fn make_file(store: &AggregateStore, name: &str, size: u64) -> FileId {
        let (t, f) = store.create_file(VTime::ZERO, 3, name).unwrap();
        store
            .fallocate(
                t,
                3,
                f,
                size,
                StripeSpec::all(),
                PlacementPolicy::RoundRobin,
            )
            .unwrap();
        f
    }

    #[test]
    fn hole_read_is_zeros_without_data_traffic() {
        let (store, stats) = store();
        let f = make_file(&store, "/m", 2 * CHUNK);
        let before = stats.get("net.bytes");
        let (_, payload) = store.fetch_chunk(VTime::ZERO, 3, f, 0).unwrap();
        assert_eq!(payload, ChunkPayload::Zeros);
        // Only RPC bytes moved (2 × 256).
        assert_eq!(stats.get("net.bytes") - before, 512);
        assert_eq!(stats.get("store.zero_fills"), 1);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (store, _) = store();
        let f = make_file(&store, "/m", 2 * CHUNK);
        let page = vec![7u8; 4096];
        let t = store
            .write_pages(VTime::ZERO, 3, f, 0, &[(8192, &page)])
            .unwrap();
        let (_, payload) = store.fetch_chunk(t, 3, f, 0).unwrap();
        match payload {
            ChunkPayload::Data(data) => {
                assert_eq!(data[8192], 7);
                assert_eq!(data[8192 + 4095], 7);
                assert_eq!(data[0], 0);
            }
            _ => panic!("expected data"),
        }
    }

    #[test]
    fn remote_fetch_costs_network_plus_ssd() {
        let (store, _) = store();
        let f = make_file(&store, "/m", CHUNK);
        let page = vec![1u8; 4096];
        let t0 = store
            .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
            .unwrap();
        let (t1, _) = store.fetch_chunk(t0, 3, f, 0).unwrap();
        let elapsed = t1 - t0;
        // Lower bound: SSD latency + chunk/ssd_read_bw + chunk/net_bw.
        let ssd = VTime::from_micros(75) + simcore::Bandwidth::mb_per_sec(250.0).time_for(CHUNK);
        let net = simcore::Bandwidth::gbit_per_sec(2.0).time_for(CHUNK);
        assert!(elapsed >= ssd + net, "elapsed {elapsed}");
        // And not wildly more (RPCs and latencies only).
        assert!(
            elapsed < ssd + net + VTime::from_millis(2),
            "elapsed {elapsed}"
        );
    }

    #[test]
    fn write_span_and_read_span_roundtrip() {
        let (store, _) = store();
        let f = make_file(&store, "/m", 3 * CHUNK);
        // Unaligned span crossing chunk boundaries.
        let data: Vec<u8> = (0..(CHUNK as usize + 9000))
            .map(|i| (i % 251) as u8)
            .collect();
        let t = store.write_span(VTime::ZERO, 3, f, 5000, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        store.read_span(t, 3, f, 5000, &mut out).unwrap();
        assert_eq!(out, data);
        // Outside the written span everything is still zero.
        let mut head = vec![0xAAu8; 5000];
        store.read_span(t, 3, f, 0, &mut head).unwrap();
        assert!(head.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (store, _) = store();
        let f = make_file(&store, "/m", CHUNK);
        let err = store.fetch_chunk(VTime::ZERO, 3, f, 1).unwrap_err();
        assert!(matches!(err, StoreError::OutOfBounds { .. }));
        let err = store
            .write_span(VTime::ZERO, 3, f, CHUNK - 1, &[0, 0])
            .unwrap_err();
        assert!(matches!(err, StoreError::OutOfBounds { .. }));
    }

    #[test]
    fn cow_preserves_checkpoint_content() {
        let (store, stats) = store();
        let f = make_file(&store, "/var", CHUNK);
        let page_a = vec![0xAu8; 4096];
        let mut t = store
            .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page_a)])
            .unwrap();

        // Checkpoint: link the variable's chunks into /ckpt.
        let (t2, ckpt) = store.create_file(t, 3, "/ckpt").unwrap();
        t = store.link_file(t2, 3, ckpt, f).unwrap();

        // Modify the variable after the checkpoint.
        let page_b = vec![0xBu8; 4096];
        t = store.write_pages(t, 3, f, 0, &[(0, &page_b)]).unwrap();
        assert_eq!(stats.get("store.cow_clones"), 1);

        // Variable sees new data; checkpoint still has the old bytes.
        let (_, var_data) = store.fetch_chunk(t, 3, f, 0).unwrap();
        let (_, ckpt_data) = store.fetch_chunk(t, 3, ckpt, 0).unwrap();
        match (var_data, ckpt_data) {
            (ChunkPayload::Data(v), ChunkPayload::Data(c)) => {
                assert_eq!(v[0], 0xB);
                assert_eq!(c[0], 0xA);
            }
            _ => panic!("expected data"),
        }
    }

    #[test]
    fn second_write_after_cow_is_in_place() {
        let (store, stats) = store();
        let f = make_file(&store, "/var", CHUNK);
        let page = vec![1u8; 4096];
        let mut t = store
            .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
            .unwrap();
        let (t2, ckpt) = store.create_file(t, 3, "/ckpt").unwrap();
        t = store.link_file(t2, 3, ckpt, f).unwrap();
        t = store.write_pages(t, 3, f, 0, &[(0, &page)]).unwrap();
        assert_eq!(stats.get("store.cow_clones"), 1);
        // Refcount is back to 1: next write must not clone again.
        store.write_pages(t, 3, f, 0, &[(4096, &page)]).unwrap();
        assert_eq!(stats.get("store.cow_clones"), 1);
    }

    #[test]
    fn dead_benefactor_fails_fetch() {
        let (store, _) = store();
        let f = make_file(&store, "/m", 2 * CHUNK);
        let page = vec![1u8; 4096];
        let t = store
            .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
            .unwrap();
        store.set_benefactor_alive(BenefactorId(0), false);
        let err = store.fetch_chunk(t, 3, f, 0).unwrap_err();
        assert_eq!(err, StoreError::BenefactorDown(BenefactorId(0)));
    }

    #[test]
    fn dirty_page_traffic_is_page_sized_not_chunk_sized() {
        let (store, stats) = store();
        let f = make_file(&store, "/m", CHUNK);
        let page = vec![1u8; 4096];
        store
            .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
            .unwrap();
        assert_eq!(stats.get("store.bytes_from_clients"), 4096);
    }

    /// `n` benefactors on nodes `1..=n`; the client drives from node `n+1`.
    fn store_n(n: usize) -> (AggregateStore, StatsRegistry) {
        let stats = StatsRegistry::new();
        let net = Network::new(n + 2, NetConfig::default(), &stats);
        let store = AggregateStore::new(StoreConfig::default(), net, &stats);
        for i in 0..n {
            let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
            store.add_benefactor(Benefactor::new(i + 1, ssd, mib(64), CHUNK));
        }
        (store, stats)
    }

    fn make_file_replicated(
        store: &AggregateStore,
        node: usize,
        name: &str,
        size: u64,
        k: usize,
    ) -> FileId {
        let (t, f) = store.create_file(VTime::ZERO, node, name).unwrap();
        store
            .fallocate(
                t,
                node,
                f,
                size,
                StripeSpec::all().with_replicas(k),
                PlacementPolicy::RoundRobin,
            )
            .unwrap();
        f
    }

    #[test]
    fn replicated_write_lands_on_every_replica() {
        let (store, stats) = store_n(3);
        let client = 4;
        let f = make_file_replicated(&store, client, "/m", CHUNK, 2);
        let page = vec![9u8; 4096];
        store
            .write_pages(VTime::ZERO, client, f, 0, &[(0, &page)])
            .unwrap();
        // Dirty bytes shipped once per replica.
        assert_eq!(stats.get("store.bytes_from_clients"), 2 * 4096);
        let mgr = store.manager();
        let meta = mgr.file(f).unwrap();
        let c = match meta.slots[0] {
            Slot::Chunk(c) => c,
            _ => panic!("chunk not materialized"),
        };
        let homes = mgr.chunk_homes(c).unwrap().to_vec();
        assert_eq!(homes.len(), 2);
        assert_ne!(homes[0], homes[1], "replicas on distinct benefactors");
        for h in homes {
            assert!(mgr.benefactor(h).has_chunk(c));
        }
    }

    #[test]
    fn replication_needs_enough_benefactors() {
        let (store, _) = store_n(2);
        let (t, f) = store.create_file(VTime::ZERO, 3, "/m").unwrap();
        let err = store
            .fallocate(
                t,
                3,
                f,
                CHUNK,
                StripeSpec::all().with_replicas(3),
                PlacementPolicy::RoundRobin,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            StoreError::NotEnoughBenefactors {
                requested: 3,
                alive: 2
            }
        ));
    }

    #[test]
    fn read_fails_over_to_surviving_replica() {
        let (store, stats) = store_n(2);
        let client = 3;
        let f = make_file_replicated(&store, client, "/m", CHUNK, 2);
        let page = vec![7u8; 4096];
        let t = store
            .write_pages(VTime::ZERO, client, f, 0, &[(0, &page)])
            .unwrap();
        store.set_benefactor_alive(BenefactorId(0), false);
        let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
        match payload {
            ChunkPayload::Data(data) => assert_eq!(data[0], 7),
            _ => panic!("expected data"),
        }
        assert_eq!(stats.get("store.failovers"), 1);
        assert_eq!(stats.get("store.degraded_reads"), 1);
    }

    #[test]
    fn write_during_outage_drops_dead_copy_and_recovery_reconciles() {
        let (store, _) = store_n(2);
        let client = 3;
        let f = make_file_replicated(&store, client, "/m", CHUNK, 2);
        let page_a = vec![0xAu8; 4096];
        let mut t = store
            .write_pages(VTime::ZERO, client, f, 0, &[(0, &page_a)])
            .unwrap();
        let c = match store.manager().file(f).unwrap().slots[0] {
            Slot::Chunk(c) => c,
            _ => unreachable!(),
        };
        // Primary dies; the next write lands only on the survivor and the
        // dead copy is dropped from the home list (it is stale now).
        store.set_benefactor_alive(BenefactorId(0), false);
        let page_b = vec![0xBu8; 4096];
        t = store.write_pages(t, client, f, 0, &[(0, &page_b)]).unwrap();
        assert_eq!(
            store.manager().chunk_homes(c).unwrap(),
            &[BenefactorId(1)],
            "dead copy dropped"
        );
        // Recovery reconciles: the stale physical copy is deleted, so no
        // read can ever observe the pre-outage bytes.
        store.set_benefactor_alive(BenefactorId(0), true);
        assert!(!store.manager().benefactor(BenefactorId(0)).has_chunk(c));
        let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
        match payload {
            ChunkPayload::Data(data) => assert_eq!(data[0], 0xB),
            _ => panic!("expected data"),
        }
    }

    #[test]
    fn repair_restores_replica_degree() {
        let (store, stats) = store_n(3);
        let client = 4;
        let f = make_file_replicated(&store, client, "/m", 2 * CHUNK, 2);
        let page = vec![5u8; 4096];
        let mut t = VTime::ZERO;
        for idx in 0..2 {
            t = store.write_pages(t, client, f, idx, &[(0, &page)]).unwrap();
        }
        // b1 hosts one copy of both chunks (slot 0 → {b0,b1}, slot 1 →
        // {b1,b2}); killing it degrades both.
        store.set_benefactor_alive(BenefactorId(1), false);
        // Touch the chunks so the dead copies are dropped from metadata.
        for idx in 0..2 {
            t = store.write_pages(t, client, f, idx, &[(0, &page)]).unwrap();
        }
        assert_eq!(store.manager().under_replicated().len(), 2);

        let (t_done, report) = store.repair_under_replicated(t);
        assert_eq!(report.chunks_repaired, 2);
        assert_eq!(report.bytes_copied, 2 * CHUNK);
        assert_eq!(report.chunks_unrepairable, 0);
        assert!(t_done > t, "repair consumes virtual time");
        assert!(store.manager().under_replicated().is_empty());
        assert_eq!(stats.get("store.repairs_bytes"), 2 * CHUNK);
        // Every chunk is back on two live benefactors.
        let mgr = store.manager();
        for idx in 0..2 {
            let c = match mgr.file(f).unwrap().slots[idx] {
                Slot::Chunk(c) => c,
                _ => unreachable!(),
            };
            let homes = mgr.chunk_homes(c).unwrap();
            assert_eq!(homes.len(), 2);
            assert!(homes.iter().all(|&h| mgr.benefactor(h).is_alive()));
        }
    }

    #[test]
    fn fault_plan_crash_is_survived_with_replicas() {
        let (store, stats) = store_n(2);
        let client = 3;
        let f = make_file_replicated(&store, client, "/m", CHUNK, 2);
        let page = vec![3u8; 4096];
        let t = store
            .write_pages(VTime::ZERO, client, f, 0, &[(0, &page)])
            .unwrap();
        store
            .attach_faults(
                faults::FaultPlanBuilder::new(42)
                    .crash(t + VTime::from_millis(1), 0)
                    .build(),
            )
            .unwrap();
        // Before the scheduled crash: clean read from the primary.
        let (_, p1) = store.fetch_chunk(t, client, f, 0).unwrap();
        assert_eq!(stats.get("store.failovers"), 0);
        // After it: the poll applies the crash and the read fails over.
        let (_, p2) = store
            .fetch_chunk(t + VTime::from_millis(2), client, f, 0)
            .unwrap();
        assert_eq!(p1, p2, "failover returns identical bytes");
        assert_eq!(stats.get("store.benefactor_crashes"), 1);
        assert!(stats.get("store.failovers") > 0);
    }

    #[test]
    fn fetch_retry_waits_out_a_scheduled_recovery() {
        let (store, stats) = store_n(1);
        let client = 2;
        let f = make_file_replicated(&store, client, "/m", CHUNK, 1);
        let page = vec![1u8; 4096];
        let t = store
            .write_pages(VTime::ZERO, client, f, 0, &[(0, &page)])
            .unwrap();
        store.set_benefactor_alive(BenefactorId(0), false);
        // A recovery lands within the retry window (default 2 × 5 ms).
        store
            .attach_faults(
                faults::FaultPlanBuilder::new(7)
                    .recover(t + VTime::from_millis(8), 0)
                    .build(),
            )
            .unwrap();
        let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
        assert!(matches!(payload, ChunkPayload::Data(_)));
        assert_eq!(stats.get("store.benefactor_recoveries"), 1);
        assert!(stats.get("store.degraded_reads") > 0);
    }

    /// Like `store_n` but with read verification switched on.
    fn store_verify(n: usize) -> (AggregateStore, StatsRegistry) {
        let stats = StatsRegistry::new();
        let net = Network::new(n + 2, NetConfig::default(), &stats);
        let cfg = StoreConfig {
            verify_reads: true,
            ..StoreConfig::default()
        };
        let store = AggregateStore::new(cfg, net, &stats);
        for i in 0..n {
            let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
            store.add_benefactor(Benefactor::new(i + 1, ssd, mib(64), CHUNK));
        }
        (store, stats)
    }

    fn chunk_of(store: &AggregateStore, f: FileId, idx: usize) -> ChunkId {
        match store.manager().file(f).unwrap().slots[idx] {
            Slot::Chunk(c) => c,
            _ => panic!("slot {idx} not materialized"),
        }
    }

    #[test]
    fn verified_read_fails_over_on_corrupt_replica_and_repairs() {
        let (store, stats) = store_verify(3);
        let client = 4;
        let f = make_file_replicated(&store, client, "/m", CHUNK, 2);
        let page = vec![7u8; 4096];
        let t = store
            .write_pages(VTime::ZERO, client, f, 0, &[(0, &page)])
            .unwrap();
        let c = chunk_of(&store, f, 0);
        let primary = store.manager().chunk_homes(c).unwrap()[0];
        store.manager().benefactor_mut(primary).corrupt_chunk(c, 5);
        assert_eq!(store.count_corrupt_copies(), 1);

        // The read detects the rot, fails over to the replica and returns
        // the right bytes — never the corrupt ones.
        let (t2, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
        match payload {
            ChunkPayload::Data(data) => {
                assert_eq!(data[0], 7);
                assert_eq!(data[5], 7, "served bytes are the intact copy's");
            }
            _ => panic!("expected data"),
        }
        assert_eq!(stats.get("store.crc_mismatches"), 1);
        assert_eq!(stats.get("store.degraded_reads"), 1);
        // The bad copy was quarantined: dropped from the home list and
        // reclaimed, leaving the chunk under-replicated for repair.
        let homes = store.manager().chunk_homes(c).unwrap().to_vec();
        assert_eq!(homes.len(), 1);
        assert!(!homes.contains(&primary));
        assert!(!store.manager().benefactor(primary).has_chunk(c));
        assert_eq!(store.manager().under_replicated().len(), 1);
        let (_, report) = store.repair_under_replicated(t2);
        assert_eq!(report.chunks_repaired, 1);
        assert_eq!(store.count_corrupt_copies(), 0);
        assert_eq!(store.manager().chunk_homes(c).unwrap().len(), 2);
    }

    #[test]
    fn corrupt_sole_copy_is_a_deterministic_error_not_wrong_data() {
        let (store, stats) = store_verify(1);
        let client = 2;
        let f = make_file_replicated(&store, client, "/m", CHUNK, 1);
        let page = vec![9u8; 4096];
        let t = store
            .write_pages(VTime::ZERO, client, f, 0, &[(0, &page)])
            .unwrap();
        let c = chunk_of(&store, f, 0);
        store
            .manager()
            .benefactor_mut(BenefactorId(0))
            .corrupt_chunk(c, 100);
        let err = store.fetch_chunk(t, client, f, 0).unwrap_err();
        assert_eq!(
            err,
            StoreError::ChunkCorrupt {
                chunk: c,
                benefactor: BenefactorId(0)
            }
        );
        // The bad copy is read (and counted) exactly once; retries skip it.
        assert_eq!(stats.get("store.crc_mismatches"), 1);
        // The sole copy stays listed: the metadata invariant holds and a
        // later restore-from-elsewhere can still find the slot.
        assert_eq!(store.manager().chunk_homes(c).unwrap(), &[BenefactorId(0)]);
        // Identical on retry: deterministic, never silent.
        let err2 = store.fetch_chunk(t, client, f, 0).unwrap_err();
        assert!(matches!(err2, StoreError::ChunkCorrupt { .. }));
    }

    #[test]
    fn torn_write_is_detected_by_verified_read() {
        let (store, _) = store_verify(1);
        let client = 2;
        let f = make_file_replicated(&store, client, "/m", CHUNK, 1);
        store
            .attach_faults(
                faults::FaultPlanBuilder::new(11)
                    .torn_write(VTime::from_micros(1), 0)
                    .build(),
            )
            .unwrap();
        // The write happens after the tear is armed: only the first half
        // of the chunk lands, but the manager recorded the intended CRC.
        let data = vec![3u8; CHUNK as usize];
        let t = store
            .write_span(VTime::from_micros(2), client, f, 0, &data)
            .unwrap();
        assert_eq!(store.count_corrupt_copies(), 1);
        let err = store.fetch_chunk(t, client, f, 0).unwrap_err();
        assert!(matches!(err, StoreError::ChunkCorrupt { .. }));
    }

    fn data_of(payload: ChunkPayload) -> ChunkBuf {
        match payload {
            ChunkPayload::Data(d) => d,
            ChunkPayload::Zeros => panic!("expected data"),
        }
    }

    #[test]
    fn clean_fetch_shares_the_stored_copy() {
        // The zero-copy pin: a clean fetch hands out the benefactor's own
        // bytes, on the serial and the batched path alike. A per-fetch
        // clone breaks this test.
        let (store, _) = store();
        let f = make_file(&store, "/m", 2 * CHUNK);
        let page = vec![7u8; 4096];
        let t = store
            .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
            .unwrap();
        let c = chunk_of(&store, f, 0);
        let home = store.manager().chunk_home(c).unwrap();
        let stored = store
            .manager()
            .benefactor(home)
            .peek_chunk(c)
            .unwrap()
            .as_ptr();
        let (t, p) = store.fetch_chunk(t, 3, f, 0).unwrap();
        let a = data_of(p);
        assert_eq!(a.as_ptr(), stored);
        let mut batch = store.fetch_chunks(t, 3, &[(f, 0)], None).unwrap();
        let b = data_of(batch.pop().unwrap().1);
        assert!(ChunkBuf::ptr_eq(&a, &b));

        // A later write copies away from the shared bytes: the earlier
        // fetch keeps its snapshot, the next fetch sees the new bytes.
        let page2 = vec![8u8; 4096];
        let t = store.write_pages(t, 3, f, 0, &[(0, &page2)]).unwrap();
        assert_eq!(a[0], 7, "fetched bytes are a stable snapshot");
        let (_, p) = store.fetch_chunk(t, 3, f, 0).unwrap();
        let fresh = data_of(p);
        assert_eq!(fresh[0], 8);
        assert!(!ChunkBuf::ptr_eq(&a, &fresh));
    }

    #[test]
    fn rot_on_a_shared_copy_never_leaks_to_replicas_readers_or_repairs() {
        let (store, stats) = store_verify(3);
        let client = 4;
        let f = make_file_replicated(&store, client, "/m", CHUNK, 2);
        let page = vec![6u8; 4096];
        let t = store
            .write_pages(VTime::ZERO, client, f, 0, &[(0, &page)])
            .unwrap();
        let c = chunk_of(&store, f, 0);
        let homes = store.manager().chunk_homes(c).unwrap().to_vec();
        let ptr = |h: BenefactorId| {
            store
                .manager()
                .benefactor(h)
                .peek_chunk(c)
                .unwrap()
                .as_ptr()
        };
        assert_eq!(ptr(homes[0]), ptr(homes[1]), "replicas share one buffer");
        let (t, p) = store.fetch_chunk(t, client, f, 0).unwrap();
        let reader = data_of(p);

        // Seeded bit rot on the primary's benefactor.
        store
            .attach_faults(
                faults::FaultPlanBuilder::new(3)
                    .bit_rot(t + VTime::from_micros(1), homes[0].0, 10_000)
                    .build(),
            )
            .unwrap();
        store.poll_faults(t + VTime::from_micros(2));
        assert_eq!(store.count_corrupt_copies(), 1, "only the primary rotted");
        assert!(reader[..4096].iter().all(|&x| x == 6));
        assert!(reader[4096..].iter().all(|&x| x == 0));

        // Verified read: exactly one mismatch, then the replica's bytes.
        let (t, p) = store
            .fetch_chunk(t + VTime::from_micros(2), client, f, 0)
            .unwrap();
        assert_eq!(data_of(p)[..], reader[..]);
        assert_eq!(stats.get("store.crc_mismatches"), 1);

        // The repair copy shares the donor's bytes; rotting it leaves
        // the donor intact.
        let (_, report) = store.repair_under_replicated(t);
        assert_eq!(report.chunks_repaired, 1);
        let homes = store.manager().chunk_homes(c).unwrap().to_vec();
        assert_eq!(homes.len(), 2);
        assert_eq!(ptr(homes[0]), ptr(homes[1]), "repair shares, not copies");
        store.manager().benefactor_mut(homes[1]).corrupt_chunk(c, 9);
        assert_eq!(store.count_corrupt_copies(), 1);
        let donor = store.manager().benefactor(homes[0]).peek_chunk(c).unwrap()[9];
        assert_eq!(donor, 6);
    }

    #[test]
    fn scrub_daemon_finds_and_repairs_bit_rot() {
        let (store, stats) = store_verify(3);
        let client = 4;
        let f = make_file_replicated(&store, client, "/m", 4 * CHUNK, 2);
        let page = vec![5u8; 4096];
        let mut t = VTime::ZERO;
        for idx in 0..4 {
            t = store.write_pages(t, client, f, idx, &[(0, &page)]).unwrap();
        }
        // Rot every copy on benefactor 0 (rate 10000 bp = certain).
        store
            .attach_faults(
                faults::FaultPlanBuilder::new(21)
                    .bit_rot(t + VTime::from_micros(1), 0, 10_000)
                    .build(),
            )
            .unwrap();
        store.attach_scrub(
            ScrubConfig {
                interval: VTime::from_millis(1),
                chunks_per_pass: 16,
                ..ScrubConfig::default()
            },
            t + VTime::from_micros(2),
        );
        store.poll_faults(t + VTime::from_millis(1));
        assert!(stats.get("store.crc_mismatches") > 0, "rot detected");
        assert!(stats.get("store.scrub_repairs") > 0, "replicas restored");
        assert_eq!(stats.get("store.scrub_passes"), 1);
        assert_eq!(store.count_corrupt_copies(), 0, "no rot left behind");
        // Every chunk is back at full degree on intact copies.
        let mgr = store.manager();
        for idx in 0..4 {
            let c = match mgr.file(f).unwrap().slots[idx] {
                Slot::Chunk(c) => c,
                _ => unreachable!(),
            };
            assert_eq!(mgr.chunk_homes(c).unwrap().len(), 2);
        }
    }

    #[test]
    fn scrub_quarantines_rotten_benefactor_and_placement_avoids_it() {
        let (store, stats) = store_verify(3);
        let client = 4;
        // Benefactor 0's media corrupts every write it takes.
        store
            .attach_faults(
                faults::FaultPlanBuilder::new(31)
                    .corruption_rate(VTime::from_micros(1), 0, 10_000)
                    .build(),
            )
            .unwrap();
        let f = make_file_replicated(&store, client, "/m", 4 * CHUNK, 2);
        let page = vec![1u8; 4096];
        let mut t = VTime::from_micros(2);
        for idx in 0..4 {
            t = store.write_pages(t, client, f, idx, &[(0, &page)]).unwrap();
        }
        store.attach_scrub(
            ScrubConfig {
                interval: VTime::from_millis(1),
                chunks_per_pass: 16,
                quarantine_rate: 0.5,
                quarantine_min_samples: 2,
            },
            t,
        );
        store.poll_faults(t + VTime::from_millis(1));
        assert!(
            store.manager().benefactor(BenefactorId(0)).is_quarantined(),
            "persistent corrupter crosses the quarantine threshold"
        );
        assert_eq!(stats.get("store.quarantined"), 1);
        assert!(store.manager().benefactor(BenefactorId(0)).is_alive());
        // New placements avoid it.
        let g = make_file_replicated(&store, client, "/n", 2 * CHUNK, 2);
        assert!(
            !store
                .manager()
                .file(g)
                .unwrap()
                .stripe
                .contains(&BenefactorId(0)),
            "quarantined benefactor excluded from new stripes"
        );
    }

    #[test]
    fn integrity_knobs_off_changes_nothing() {
        // Same workload, verification on vs off, no corruption anywhere:
        // identical virtual times, and the knobs-off run registers none
        // of the integrity counters (committed bench expectations must
        // not grow keys).
        let run = |verify: bool| -> (VTime, bool) {
            let stats = StatsRegistry::new();
            let net = Network::new(4, NetConfig::default(), &stats);
            let cfg = StoreConfig {
                verify_reads: verify,
                ..StoreConfig::default()
            };
            let store = AggregateStore::new(cfg, net, &stats);
            for (i, node) in [1usize, 2].iter().enumerate() {
                let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
                store.add_benefactor(Benefactor::new(*node, ssd, mib(64), CHUNK));
            }
            let f = make_file(&store, "/m", 4 * CHUNK);
            let data: Vec<u8> = (0..2 * CHUNK as usize + 777)
                .map(|i| (i % 249) as u8)
                .collect();
            let mut t = store.write_span(VTime::ZERO, 3, f, 100, &data).unwrap();
            let mut buf = vec![0u8; data.len()];
            t = store.read_span(t, 3, f, 100, &mut buf).unwrap();
            assert_eq!(buf, data);
            t = store.write_span(t, 3, f, 0, &data[..4096]).unwrap();
            let has_keys = stats.snapshot().values.contains_key("store.crc_mismatches");
            (t, has_keys)
        };
        let (t_off, keys_off) = run(false);
        let (t_on, keys_on) = run(true);
        assert_eq!(t_off, t_on, "verification is timing-neutral when clean");
        assert!(!keys_off, "knobs off: no integrity counters registered");
        assert!(keys_on, "verify on: integrity counters present");
    }

    // ----- sharded placement manager (DESIGN.md §12) ------------------------

    /// `n` benefactors on nodes `1..=n` with `shards` placement-shard
    /// ranks round-robin on those same nodes; client drives from `n+1`.
    fn store_sharded(n: usize, shards: usize) -> (AggregateStore, StatsRegistry) {
        let (store, stats) = store_n(n);
        let nodes: Vec<usize> = (0..shards).map(|k| (k % n) + 1).collect();
        store.install_shards(&nodes, 77);
        (store, stats)
    }

    #[test]
    fn per_op_rpc_counters_split_the_aggregate() {
        let (store, stats) = store();
        let f = make_file(&store, "/m", 2 * CHUNK); // create + fallocate
        let page = vec![8u8; 4096];
        let t = store
            .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
            .unwrap();
        let (t, _) = store.fetch_chunk(t, 3, f, 0).unwrap();
        let (_, found) = store.open(t, 3, "/m").unwrap();
        assert_eq!(found, Some(f));
        assert_eq!(stats.get("store.mgr_rpc_place"), 3);
        assert_eq!(stats.get("store.mgr_rpc_write"), 1);
        assert_eq!(stats.get("store.mgr_rpc_fetch"), 1);
        assert_eq!(
            stats.get("store.mgr_rpc_fetch")
                + stats.get("store.mgr_rpc_write")
                + stats.get("store.mgr_rpc_place"),
            stats.get("store.mgr_rpcs"),
            "the per-op split always totals the aggregate"
        );
    }

    /// ISSUE 6 acceptance: with one shard co-located with the serial
    /// manager's node, a mixed workload (batched writes, batched + serial
    /// fetches through a `LocationCache`, namespace ops) is bit-identical
    /// to the serial manager — same per-op virtual times, same shared
    /// counters — and the lease counters only exist in shard mode.
    #[test]
    fn single_shard_matches_serial_manager_exactly() {
        const SHARED: &[&str] = &[
            "store.mgr_rpcs",
            "store.mgr_rpc_fetch",
            "store.mgr_rpc_write",
            "store.mgr_rpc_place",
            "store.loc_cache_hits",
            "store.loc_cache_misses",
            "store.loc_cache_invalidations",
            "store.chunk_fetches",
            "store.batched_fetches",
            "store.batched_writes",
            "store.zero_fills",
            "net.bytes",
            "net.messages",
        ];
        let run = |sharded: bool| -> (Vec<VTime>, Vec<u64>, bool) {
            let stats = StatsRegistry::new();
            let net = Network::new(4, NetConfig::default(), &stats);
            let store = AggregateStore::new(StoreConfig::default(), net, &stats);
            for (i, node) in [1usize, 2].iter().enumerate() {
                let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
                store.add_benefactor(Benefactor::new(*node, ssd, mib(64), CHUNK));
            }
            if sharded {
                store.install_shards(&[0], 77);
            }
            let cache = LocationCache::new(&stats);
            let (t, f) = store.create_file(VTime::ZERO, 3, "/m").unwrap();
            let t = store
                .fallocate(
                    t,
                    3,
                    f,
                    4 * CHUNK,
                    StripeSpec::all(),
                    PlacementPolicy::RoundRobin,
                )
                .unwrap();
            let page = vec![5u8; 4096];
            let upd = [(0u64, page.as_slice())];
            let batch = [
                BatchWrite {
                    file: f,
                    idx: 0,
                    updates: &upd,
                },
                BatchWrite {
                    file: f,
                    idx: 1,
                    updates: &upd,
                },
                BatchWrite {
                    file: f,
                    idx: 2,
                    updates: &upd,
                },
            ];
            let mut times = Vec::new();
            let ends = store.write_pages_batch(t, 3, &batch).unwrap();
            let mut t = ends.iter().copied().max().unwrap();
            times.extend(ends);
            // Cold cache: one resolution RPC, then benefactor chains.
            let r = store
                .fetch_chunks(t, 3, &[(f, 0), (f, 1), (f, 2), (f, 3)], Some(&cache))
                .unwrap();
            t = r.iter().map(|&(e, _)| e).max().unwrap();
            times.extend(r.iter().map(|&(e, _)| e));
            // Warm cache (and, in shard mode, a held lease): no RPC.
            let rpcs_before = stats.get("store.mgr_rpcs");
            let r = store
                .fetch_chunks(t, 3, &[(f, 0), (f, 2)], Some(&cache))
                .unwrap();
            assert_eq!(
                stats.get("store.mgr_rpcs"),
                rpcs_before,
                "hot path skips the manager"
            );
            t = r.iter().map(|&(e, _)| e).max().unwrap();
            times.extend(r.iter().map(|&(e, _)| e));
            // Serial data + control plane for good measure.
            let (t2, _) = store.fetch_chunk(t, 3, f, 1).unwrap();
            let t3 = store.write_pages(t2, 3, f, 3, &[(0, &page)]).unwrap();
            let (t4, found) = store.open(t3, 3, "/m").unwrap();
            assert!(found.is_some());
            times.extend([t2, t3, t4]);
            let snap = stats.snapshot().values;
            let shared: Vec<u64> = SHARED
                .iter()
                .map(|k| snap.get(*k).copied().unwrap_or(0))
                .collect();
            (times, shared, snap.contains_key("store.lease_grants"))
        };
        let (t_serial, c_serial, keys_serial) = run(false);
        let (t_sharded, c_sharded, keys_sharded) = run(true);
        assert_eq!(t_serial, t_sharded, "shards=1 is bit-identical");
        assert_eq!(c_serial, c_sharded, "shared counters agree");
        assert!(!keys_serial, "serial run registers no lease counters");
        assert!(keys_sharded, "shard run exposes the lease counters");
    }

    #[test]
    fn shard_rpcs_route_by_slot_owner_and_count_per_shard() {
        let (store, stats) = store_sharded(2, 2);
        let client = 3;
        let (t, f) = store.create_file(VTime::ZERO, client, "/m").unwrap();
        let mut t = store
            .fallocate(
                t,
                client,
                f,
                8 * CHUNK,
                StripeSpec::all(),
                PlacementPolicy::RoundRobin,
            )
            .unwrap();
        // Namespace ops went to the root shard.
        assert_eq!(stats.get("store.shard_rpcs.s0"), 2);
        assert_eq!(stats.get("store.mgr_rpc_place"), 2);
        let before = [
            stats.get("store.shard_rpcs.s0"),
            stats.get("store.shard_rpcs.s1"),
        ];
        let mut expect = [0u64, 0u64];
        let page = vec![9u8; 4096];
        for idx in 0..8 {
            expect[store.shard_of_slot(f, idx).unwrap()] += 2; // write + fetch
            t = store.write_pages(t, client, f, idx, &[(0, &page)]).unwrap();
            let (t2, _) = store.fetch_chunk(t, client, f, idx).unwrap();
            t = t2;
        }
        assert!(
            expect[0] > 0 && expect[1] > 0,
            "both shards own some of the keyspace"
        );
        assert_eq!(stats.get("store.shard_rpcs.s0") - before[0], expect[0]);
        assert_eq!(stats.get("store.shard_rpcs.s1") - before[1], expect[1]);
        assert_eq!(stats.get("store.mgr_rpc_fetch"), 8);
        assert_eq!(stats.get("store.mgr_rpc_write"), 8);
        assert_eq!(stats.get("store.mgr_rpcs"), 2 + 16);
    }

    #[test]
    fn shard_crash_quarantines_only_its_keyspace() {
        let (store, stats) = store_sharded(2, 2);
        let client = 3;
        let (t, f) = store.create_file(VTime::ZERO, client, "/m").unwrap();
        let mut t = store
            .fallocate(
                t,
                client,
                f,
                16 * CHUNK,
                StripeSpec::all(),
                PlacementPolicy::RoundRobin,
            )
            .unwrap();
        let page = vec![2u8; 4096];
        for idx in 0..16 {
            t = store.write_pages(t, client, f, idx, &[(0, &page)]).unwrap();
        }
        let owned_by = |s: usize| {
            (0..16)
                .find(|&i| store.shard_of_slot(f, i) == Some(s))
                .expect("shard owns a slot")
        };
        let dead_slot = owned_by(1);
        let live_slot = owned_by(0);
        store.set_shard_alive(1, false);
        // The dead shard's keyspace errors once the retry window runs out…
        let err = store.fetch_chunk(t, client, f, dead_slot).unwrap_err();
        assert_eq!(err, StoreError::ShardDown(1));
        let err = store
            .write_pages(t, client, f, dead_slot, &[(0, &page)])
            .unwrap_err();
        assert_eq!(err, StoreError::ShardDown(1));
        // …while the other shard and the namespace keep serving.
        let (t2, _) = store.fetch_chunk(t, client, f, live_slot).unwrap();
        let (t3, found) = store.open(t2, client, "/m").unwrap();
        assert_eq!(found, Some(f));
        // The crash alone revokes nothing: delegations ride through.
        assert_eq!(stats.get("store.lease_revokes"), 0);
        // Recovery restores service and revokes the shard's delegations.
        store.set_shard_alive(1, true);
        assert!(stats.get("store.lease_revokes") > 0);
        store.fetch_chunk(t3, client, f, dead_slot).unwrap();
    }

    #[test]
    fn leased_clients_ride_through_a_shard_crash() {
        let (store, stats) = store_sharded(2, 2);
        let client = 3;
        let (t, f) = store.create_file(VTime::ZERO, client, "/m").unwrap();
        let t = store
            .fallocate(
                t,
                client,
                f,
                8 * CHUNK,
                StripeSpec::all(),
                PlacementPolicy::RoundRobin,
            )
            .unwrap();
        let cache = LocationCache::new(&stats);
        let page = vec![4u8; 4096];
        let upd = [(0u64, page.as_slice())];
        let batch: Vec<BatchWrite> = (0..8)
            .map(|idx| BatchWrite {
                file: f,
                idx,
                updates: &upd,
            })
            .collect();
        let ends = store.write_pages_batch(t, client, &batch).unwrap();
        let t = ends.iter().copied().max().unwrap();
        let targets: Vec<(FileId, usize)> = (0..8).map(|i| (f, i)).collect();
        let r = store
            .fetch_chunks(t, client, &targets, Some(&cache))
            .unwrap();
        let t = r.iter().map(|&(e, _)| e).max().unwrap();
        // Both shards have delegated to this client.
        assert_eq!(store.shard_leases(0), 1);
        assert_eq!(store.shard_leases(1), 1);
        // Kill a shard. The leased client keeps resolving placement
        // locally: the same batch re-fetches without a single manager
        // round-trip, dead shard or not.
        store.set_shard_alive(1, false);
        let rpcs = stats.get("store.mgr_rpcs");
        let hits = stats.get("store.loc_cache_hits");
        let r = store
            .fetch_chunks(t, client, &targets, Some(&cache))
            .unwrap();
        let t = r.iter().map(|&(e, _)| e).max().unwrap();
        assert_eq!(
            stats.get("store.mgr_rpcs"),
            rpcs,
            "no RPC on the leased hot path"
        );
        assert_eq!(stats.get("store.loc_cache_hits"), hits + 8);
        // Recovery revokes: the epoch bump drops the cache, and the
        // re-resolution goes back to the (now live) shards.
        store.set_shard_alive(1, true);
        assert!(stats.get("store.lease_revokes") > 0);
        let inv = stats.get("store.loc_cache_invalidations");
        let r = store
            .fetch_chunks(t, client, &targets, Some(&cache))
            .unwrap();
        assert!(r.iter().all(|(_, p)| matches!(p, ChunkPayload::Data(_))));
        assert_eq!(stats.get("store.loc_cache_invalidations"), inv + 1);
        assert!(
            stats.get("store.mgr_rpcs") > rpcs,
            "revocation forces re-resolution"
        );
    }

    #[test]
    fn shard_down_retry_waits_out_a_scheduled_recovery() {
        let (store, stats) = store_sharded(2, 2);
        let client = 3;
        let (t, f) = store.create_file(VTime::ZERO, client, "/m").unwrap();
        let mut t = store
            .fallocate(
                t,
                client,
                f,
                8 * CHUNK,
                StripeSpec::all(),
                PlacementPolicy::RoundRobin,
            )
            .unwrap();
        let page = vec![6u8; 4096];
        for idx in 0..8 {
            t = store.write_pages(t, client, f, idx, &[(0, &page)]).unwrap();
        }
        let slot = (0..8)
            .find(|&i| store.shard_of_slot(f, i) == Some(1))
            .expect("shard 1 owns a slot");
        store.set_shard_alive(1, false);
        store
            .attach_faults(
                faults::FaultPlanBuilder::new(7)
                    .shard_recover(t + store.config().retry_backoff, 1)
                    .build(),
            )
            .unwrap();
        let (t2, payload) = store.fetch_chunk(t, client, f, slot).unwrap();
        assert!(matches!(payload, ChunkPayload::Data(_)));
        assert!(
            t2 >= t + store.config().retry_backoff,
            "the read waited out the outage"
        );
        assert!(store.shard_alive(1));
        assert_eq!(
            stats.get("store.lease_revokes"),
            1,
            "recovery revoked the stale delegation"
        );
    }

    #[test]
    fn wear_reports_cover_benefactors() {
        let (store, _) = store();
        let f = make_file(&store, "/m", CHUNK);
        let page = vec![1u8; 4096];
        store
            .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
            .unwrap();
        let wear = store.wear_reports();
        assert_eq!(wear.len(), 2);
        let total: u64 = wear.iter().map(|(_, w)| w.bytes_written).sum();
        assert_eq!(total, 4096);
    }

    // ----- erasure-coded redundancy tier (DESIGN.md §15) --------------------

    fn make_file_parity(
        store: &AggregateStore,
        node: usize,
        name: &str,
        size: u64,
        k: usize,
        m: usize,
    ) -> FileId {
        let (t, f) = store.create_file(VTime::ZERO, node, name).unwrap();
        store
            .fallocate(
                t,
                node,
                f,
                size,
                StripeSpec::all().with_parity(k, m),
                PlacementPolicy::RoundRobin,
            )
            .unwrap();
        f
    }

    fn pattern(tag: u8) -> Vec<u8> {
        (0..CHUNK as usize)
            .map(|i| (i as u8).wrapping_mul(31) ^ tag)
            .collect()
    }

    #[test]
    fn parity_write_materializes_parity_and_reads_back() {
        let (store, stats) = store_n(3);
        let client = 4;
        let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
        let (a, b) = (pattern(0x11), pattern(0x22));
        let mut t = store
            .write_pages(VTime::ZERO, client, f, 0, &[(0, &a)])
            .unwrap();
        t = store.write_pages(t, client, f, 1, &[(0, &b)]).unwrap();
        // Both data members plus the parity member are materialized, on
        // three distinct benefactors.
        let (c0, c1) = (chunk_of(&store, f, 0), chunk_of(&store, f, 1));
        let mgr = store.manager();
        let pc = match mgr.file(f).unwrap().parity_slot(0, 0) {
            Slot::Chunk(c) => c,
            _ => panic!("parity not materialized"),
        };
        let mut homes = vec![
            mgr.chunk_home(c0).unwrap(),
            mgr.chunk_home(c1).unwrap(),
            mgr.chunk_home(pc).unwrap(),
        ];
        homes.sort();
        homes.dedup();
        assert_eq!(homes.len(), 3, "group members on distinct benefactors");
        // Stored parity is the RS encode of the data members.
        let code = RsCode::new(2, 1);
        let mut want = vec![0u8; CHUNK as usize];
        code.encode_parity(0, &[&a, &b], &mut want);
        let home = mgr.chunk_home(pc).unwrap();
        assert_eq!(mgr.benefactor(home).peek_chunk(pc).unwrap(), &want[..]);
        drop(mgr);
        assert_eq!(stats.get("store.parity_encodes"), 2);
        assert_eq!(stats.get("store.parity_bytes"), 2 * CHUNK);
        // Reads are undegraded and roundtrip.
        let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
        assert_eq!(payload, ChunkPayload::Data(a.clone().into()));
    }

    #[test]
    fn parity_updates_are_o_dirty_not_full_group() {
        let (store, stats) = store_n(3);
        let client = 4;
        let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
        let (a, b) = (pattern(0x31), pattern(0x42));
        let mut t = store
            .write_pages(VTime::ZERO, client, f, 0, &[(0, &a)])
            .unwrap();
        t = store.write_pages(t, client, f, 1, &[(0, &b)]).unwrap();
        let before = stats.get("store.parity_bytes");
        // One 4 KiB page: the parity member absorbs a 4 KiB delta, not a
        // full-chunk re-encode.
        let page = vec![0x5Au8; 4096];
        t = store
            .write_pages(t, client, f, 0, &[(8192, &page)])
            .unwrap();
        assert_eq!(stats.get("store.parity_bytes") - before, 4096);
        // And the parity still decodes: read member 0 degraded.
        store.set_benefactor_alive(BenefactorId(0), false);
        let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
        let mut want = a;
        want[8192..8192 + 4096].copy_from_slice(&page);
        assert_eq!(payload, ChunkPayload::Data(want.into()));
        assert_eq!(stats.get("store.degraded_reconstructs"), 1);
    }

    #[test]
    fn degraded_read_reconstructs_after_crash_with_zero_wrong_bytes() {
        let (store, stats) = store_n(3);
        let client = 4;
        let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
        let (a, b) = (pattern(0x07), pattern(0x70));
        let mut t = store
            .write_pages(VTime::ZERO, client, f, 0, &[(0, &a)])
            .unwrap();
        t = store.write_pages(t, client, f, 1, &[(0, &b)]).unwrap();
        store.set_benefactor_alive(BenefactorId(0), false);
        let (_, payload) = store.fetch_chunk(t, client, f, 0).unwrap();
        assert_eq!(
            payload,
            ChunkPayload::Data(a.into()),
            "reconstructed bytes are exactly the lost member"
        );
        assert_eq!(stats.get("store.degraded_reconstructs"), 1);
        assert_eq!(stats.get("store.failovers"), 1);
        assert_eq!(stats.get("store.degraded_reads"), 1);
    }

    #[test]
    fn losing_more_than_m_members_is_a_deterministic_error() {
        let (store, _) = store_n(3);
        let client = 4;
        let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
        let (a, b) = (pattern(0x01), pattern(0x02));
        let mut t = store
            .write_pages(VTime::ZERO, client, f, 0, &[(0, &a)])
            .unwrap();
        t = store.write_pages(t, client, f, 1, &[(0, &b)]).unwrap();
        // RS(2,1) tolerates one loss; kill two members' homes.
        store.set_benefactor_alive(BenefactorId(0), false);
        store.set_benefactor_alive(BenefactorId(1), false);
        let err = store.fetch_chunk(t, client, f, 0).unwrap_err();
        assert_eq!(
            err,
            StoreError::InsufficientSurvivors {
                file: f,
                group: 0,
                have: 1,
                need: 2
            }
        );
        // Identical on retry: deterministic, never silent.
        assert_eq!(store.fetch_chunk(t, client, f, 0).unwrap_err(), err);
    }

    #[test]
    fn batched_parity_group_write_ships_fewer_bytes_than_replicas() {
        let full = |spec: StripeSpec| -> u64 {
            let (store, stats) = store_n(6);
            let client = 7;
            let (t, f) = store.create_file(VTime::ZERO, client, "/m").unwrap();
            let t = store
                .fallocate(t, client, f, 4 * CHUNK, spec, PlacementPolicy::RoundRobin)
                .unwrap();
            let data = pattern(0x55);
            let updates: Vec<(u64, &[u8])> = vec![(0, &data)];
            let batch: Vec<BatchWrite<'_>> = (0..4)
                .map(|idx| BatchWrite {
                    file: f,
                    idx,
                    updates: &updates,
                })
                .collect();
            store.write_pages_batch(t, client, &batch).unwrap();
            stats.get("store.bytes_from_clients")
        };
        let rs = full(StripeSpec::all().with_parity(4, 2));
        let rep = full(StripeSpec::all().with_replicas(2));
        // One full RS(4,2) group: 4 data + 2 parity chunks on the wire
        // versus 2 × 4 replica copies — same one-loss-and-more tolerance,
        // 25% fewer bytes.
        assert_eq!(rs, 6 * CHUNK);
        assert_eq!(rep, 8 * CHUNK);
    }

    #[test]
    fn serial_write_ships_parity_inline_a_batch_defers_it() {
        // Twin stores, same RS(2, 1) history; the last one-page write goes
        // through `write_pages` on one and a one-entry `write_pages_batch`
        // on the other. The serial write ships its parity delta alongside
        // the data; the batch merges parity and ships it once the data
        // has landed. Same bytes and digests either way — the serial
        // write just completes strictly earlier.
        let run = |batched: bool| {
            let (store, _) = store_n(3);
            let client = 4;
            let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
            let a = pattern(0x21);
            let t = store
                .write_pages(VTime::ZERO, client, f, 0, &[(0, &a)])
                .unwrap();
            let page = vec![0x3Cu8; 4096];
            let updates: [(u64, &[u8]); 1] = [(4096, &page)];
            let end = if batched {
                let entry = BatchWrite {
                    file: f,
                    idx: 0,
                    updates: &updates,
                };
                store.write_pages_batch(t, client, &[entry]).unwrap()[0]
            } else {
                store.write_pages(t, client, f, 0, &updates).unwrap()
            };
            let c0 = chunk_of(&store, f, 0);
            let mgr = store.manager();
            let Slot::Chunk(pc) = mgr.file(f).unwrap().parity_slot(0, 0) else {
                panic!("parity not materialized");
            };
            let crcs: Vec<(u64, u64)> = [c0, pc]
                .into_iter()
                .map(|c| {
                    let home = mgr.chunk_home(c).unwrap();
                    let bytes = mgr.benefactor(home).peek_chunk(c).unwrap();
                    (mgr.chunk_crc(c).unwrap(), crc64(bytes))
                })
                .collect();
            (end, crcs)
        };
        let (serial_end, serial_crcs) = run(false);
        let (batch_end, batch_crcs) = run(true);
        assert!(
            serial_end < batch_end,
            "serial parity ships inline: {serial_end:?} vs {batch_end:?}"
        );
        assert_eq!(serial_crcs, batch_crcs);
        for (recorded, stored) in serial_crcs {
            assert_eq!(recorded, stored);
        }
    }

    #[test]
    fn parity_knobs_off_is_bit_identical_to_plain_striping() {
        // The same workload through `with_parity(4, 0)` and through the
        // default spec must produce identical virtual times and register
        // no parity counters: m = 0 *is* plain striping.
        let run = |spec: StripeSpec| -> (VTime, bool) {
            let (store, stats) = store_n(4);
            let client = 5;
            let (t, f) = store.create_file(VTime::ZERO, client, "/m").unwrap();
            let mut t = store
                .fallocate(t, client, f, 6 * CHUNK, spec, PlacementPolicy::RoundRobin)
                .unwrap();
            let data: Vec<u8> = (0..3 * CHUNK as usize + 999)
                .map(|i| (i % 253) as u8)
                .collect();
            t = store.write_span(t, client, f, 512, &data).unwrap();
            let mut buf = vec![0u8; data.len()];
            t = store.read_span(t, client, f, 512, &mut buf).unwrap();
            assert_eq!(buf, data);
            let keys = stats.snapshot().values.contains_key("store.parity_encodes");
            (t, keys)
        };
        let (t_plain, keys_plain) = run(StripeSpec::all());
        let (t_m0, keys_m0) = run(StripeSpec::all().with_parity(4, 0));
        assert_eq!(t_plain, t_m0, "m = 0 is timing-identical");
        assert!(!keys_plain && !keys_m0, "no parity counters registered");
    }

    #[test]
    fn scrub_rebuilds_corrupt_sole_copy_group_member_in_place() {
        let (store, stats) = store_verify(3);
        let client = 4;
        let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
        let (a, b) = (pattern(0x0F), pattern(0xF0));
        let mut t = store
            .write_pages(VTime::ZERO, client, f, 0, &[(0, &a)])
            .unwrap();
        t = store.write_pages(t, client, f, 1, &[(0, &b)]).unwrap();
        // Rot the sole copy of data member 0 (benefactor 0 holds it).
        store
            .attach_faults(
                faults::FaultPlanBuilder::new(21)
                    .bit_rot(t + VTime::from_micros(1), 0, 10_000)
                    .build(),
            )
            .unwrap();
        store.attach_scrub(
            ScrubConfig {
                interval: VTime::from_millis(1),
                chunks_per_pass: 16,
                ..ScrubConfig::default()
            },
            t + VTime::from_micros(2),
        );
        store.poll_faults(t + VTime::from_millis(1));
        assert!(stats.get("store.parity_repairs") > 0, "group rebuild ran");
        assert_eq!(store.count_corrupt_copies(), 0, "no rot left behind");
        let (_, payload) = store
            .fetch_chunk(t + VTime::from_millis(2), client, f, 0)
            .unwrap();
        assert_eq!(payload, ChunkPayload::Data(a.into()));
    }

    #[test]
    fn repair_parity_groups_rehomes_dead_members() {
        let (store, stats) = store_n(4);
        let client = 5;
        let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
        let (a, b) = (pattern(0x21), pattern(0x12));
        let mut t = store
            .write_pages(VTime::ZERO, client, f, 0, &[(0, &a)])
            .unwrap();
        t = store.write_pages(t, client, f, 1, &[(0, &b)]).unwrap();
        let c0 = chunk_of(&store, f, 0);
        assert_eq!(store.manager().chunk_homes(c0).unwrap(), &[BenefactorId(0)]);
        store.set_benefactor_alive(BenefactorId(0), false);
        let (t2, report) = store.repair_parity_groups(t);
        assert_eq!(report.chunks_repaired, 1);
        assert_eq!(report.chunks_unrepairable, 0);
        assert!(t2 > t, "repair took simulated time");
        // The lost member now lives on the only benefactor outside the
        // group (b3) — the placement invariant still holds.
        assert_eq!(store.manager().chunk_homes(c0).unwrap(), &[BenefactorId(3)]);
        assert_eq!(stats.get("store.parity_repairs"), 1);
        // And it reads back cleanly (no degraded path) with b0 still dead.
        let before = stats.get("store.degraded_reads");
        let (_, payload) = store.fetch_chunk(t2, client, f, 0).unwrap();
        assert_eq!(payload, ChunkPayload::Data(a.into()));
        assert_eq!(stats.get("store.degraded_reads"), before);
    }

    #[test]
    fn stale_parity_is_flagged_and_reencoded_by_repair() {
        let (store, stats) = store_n(4);
        let client = 5;
        let f = make_file_parity(&store, client, "/m", 2 * CHUNK, 2, 1);
        let (a, b) = (pattern(0x61), pattern(0x16));
        let mut t = store
            .write_pages(VTime::ZERO, client, f, 0, &[(0, &a)])
            .unwrap();
        t = store.write_pages(t, client, f, 1, &[(0, &b)]).unwrap();
        // Kill the parity home; the next data write can't ship its delta,
        // so the parity member goes stale rather than silently rotting.
        let pc = match store.manager().file(f).unwrap().parity_slot(0, 0) {
            Slot::Chunk(c) => c,
            _ => panic!("parity not materialized"),
        };
        let phome = store.manager().chunk_home(pc).unwrap();
        store.set_benefactor_alive(phome, false);
        let page = vec![0x77u8; 4096];
        t = store.write_pages(t, client, f, 0, &[(0, &page)]).unwrap();
        assert!(store.manager().file(f).unwrap().parity_is_stale(0, 0));
        // Stale parity is not a survivor: lose a data member too and the
        // group is short.
        store.set_benefactor_alive(BenefactorId(0), false);
        let err = store.fetch_chunk(t, client, f, 0).unwrap_err();
        assert!(matches!(err, StoreError::InsufficientSurvivors { .. }));
        store.set_benefactor_alive(BenefactorId(0), true);
        // The repair sweep re-homes and re-encodes the parity member from
        // the (live) data members, clearing the stale flag.
        let (t3, report) = store.repair_parity_groups(t);
        assert_eq!(report.chunks_repaired, 1);
        let mgr = store.manager();
        let meta = mgr.file(f).unwrap();
        assert!(!meta.parity_is_stale(0, 0));
        let pc2 = match meta.parity_slot(0, 0) {
            Slot::Chunk(c) => c,
            _ => panic!("parity gone"),
        };
        let home = mgr.chunk_home(pc2).unwrap();
        assert!(mgr.benefactor(home).is_alive());
        let mut want_a = a.clone();
        want_a[..4096].copy_from_slice(&page);
        let code = RsCode::new(2, 1);
        let mut want = vec![0u8; CHUNK as usize];
        code.encode_parity(0, &[&want_a, &b], &mut want);
        assert_eq!(
            mgr.benefactor(home).peek_chunk(pc2).unwrap(),
            &want[..],
            "re-encoded parity reflects the post-outage data"
        );
        drop(mgr);
        assert_eq!(stats.get("store.parity_repairs"), 1);
        // With parity healthy again the degraded read works once more.
        store.set_benefactor_alive(BenefactorId(0), false);
        let (_, payload) = store.fetch_chunk(t3, client, f, 0).unwrap();
        assert_eq!(payload, ChunkPayload::Data(want_a.into()));
    }

    // ----- manager HA (DESIGN.md §16) ----------------------------------------

    /// Like `store()` but with HA knobs: a fatter retry window (the
    /// default 2 × 5 ms cannot outlast the 25 ms failover timeout) and
    /// `ha_standby` as given.
    fn store_ha(standby: bool) -> (AggregateStore, StatsRegistry) {
        let stats = StatsRegistry::new();
        let net = Network::new(4, NetConfig::default(), &stats);
        let cfg = StoreConfig {
            ha_standby: standby,
            fetch_retries: 12,
            ..StoreConfig::default()
        };
        let store = AggregateStore::new(cfg, net, &stats);
        for (i, node) in [1usize, 2].iter().enumerate() {
            let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
            store.add_benefactor(Benefactor::new(*node, ssd, mib(64), CHUNK));
        }
        (store, stats)
    }

    #[test]
    fn ha_knobs_off_changes_nothing() {
        // Same workload, journaling + standby on vs off, no faults:
        // identical virtual times, and the knobs-off run registers none
        // of the HA counters (committed bench expectations must not grow
        // keys). Mirrors `integrity_knobs_off_changes_nothing`.
        let run = |ha: bool| -> (VTime, bool) {
            let stats = StatsRegistry::new();
            let net = Network::new(4, NetConfig::default(), &stats);
            let cfg = StoreConfig {
                ha_standby: ha,
                ..StoreConfig::default()
            };
            let store = AggregateStore::new(cfg, net, &stats);
            for (i, node) in [1usize, 2].iter().enumerate() {
                let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
                store.add_benefactor(Benefactor::new(*node, ssd, mib(64), CHUNK));
            }
            let f = make_file(&store, "/m", 4 * CHUNK);
            let data: Vec<u8> = (0..2 * CHUNK as usize + 777)
                .map(|i| (i % 251) as u8)
                .collect();
            let mut t = store.write_span(VTime::ZERO, 3, f, 100, &data).unwrap();
            let mut buf = vec![0u8; data.len()];
            t = store.read_span(t, 3, f, 100, &mut buf).unwrap();
            assert_eq!(buf, data);
            t = store.delete(t, 3, f).unwrap();
            let has_keys = stats
                .snapshot()
                .values
                .contains_key("store.journal_records");
            (t, has_keys)
        };
        let (t_off, keys_off) = run(false);
        let (t_on, keys_on) = run(true);
        assert_eq!(t_off, t_on, "journaling is timing-neutral");
        assert!(!keys_off, "knobs off: no HA counters registered");
        assert!(keys_on, "HA on: journal/failover counters present");
    }

    #[test]
    fn manager_crash_without_standby_waits_for_reboot() {
        let (store, _) = store_ha(false);
        let f = make_file(&store, "/m", 2 * CHUNK);
        let page = vec![9u8; 4096];
        let t = store
            .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
            .unwrap();
        let crash = t + VTime::from_micros(1);
        let reboot = crash + VTime::from_millis(20);
        store
            .attach_faults(
                faults::FaultPlanBuilder::new(7)
                    .mgr_crash(crash, 0)
                    .mgr_recover(reboot, 0)
                    .build(),
            )
            .unwrap();
        let epoch_before = store.manager().placement_epoch();
        // The fetch lands mid-outage: it sits in the retry/backoff loop
        // until the scheduled reboot, then completes.
        let (t2, payload) = store.fetch_chunk(crash, 3, f, 0).unwrap();
        assert!(t2 >= reboot, "served only after the reboot");
        match payload {
            ChunkPayload::Data(d) => assert_eq!(d[0], 9),
            _ => panic!("expected data"),
        }
        assert!(!store.manager_rank_down(0));
        // A cold reboot is a placement-epoch event: caches must re-fetch.
        assert!(store.manager().placement_epoch() > epoch_before);
        // A second crash with no recovery scheduled exhausts the window.
        let t3 = t2 + VTime::from_secs(1);
        store
            .attach_faults(faults::FaultPlanBuilder::new(8).mgr_crash(t3, 0).build())
            .unwrap();
        let err = store.fetch_chunk(t3, 3, f, 0).unwrap_err();
        assert_eq!(err, StoreError::ManagerDown(0));
    }

    #[test]
    fn standby_takeover_replays_journal_and_loses_nothing() {
        let (store, stats) = store_ha(true);
        let f = make_file(&store, "/m", 2 * CHUNK);
        let data = pattern(0x5A);
        let mut t = store
            .write_pages(VTime::ZERO, 3, f, 0, &[(0, &data)])
            .unwrap();
        t = store.write_pages(t, 3, f, 1, &[(0, &data)]).unwrap();
        assert!(stats.get("store.journal_records") > 0, "mutations journal");
        let crash = t + VTime::from_micros(1);
        store
            .attach_faults(faults::FaultPlanBuilder::new(9).mgr_crash(crash, 0).build())
            .unwrap();
        let epoch_before = store.manager().placement_epoch();
        // No reboot is scheduled: only the standby takeover can serve
        // this — journal replay, verification, epoch bump.
        let (t2, payload) = store.fetch_chunk(crash, 3, f, 0).unwrap();
        assert!(
            t2 >= crash + store.cfg.failover_timeout,
            "takeover waits out the crash-detection window"
        );
        assert_eq!(payload, ChunkPayload::Data(data.clone().into()));
        assert_eq!(stats.get("store.mgr_failovers"), 1);
        assert_eq!(stats.get("store.journal_replays"), 1);
        assert!(
            stats.get("store.mgr_failover_us") >= 25_000,
            "time-to-failover includes the detection window"
        );
        assert!(store.manager().placement_epoch() > epoch_before);
        // Acked writes survived: both chunks read back post-takeover.
        let (_, p1) = store.fetch_chunk(t2, 3, f, 1).unwrap();
        assert_eq!(p1, ChunkPayload::Data(data.into()));
    }

    #[test]
    fn sharded_standby_promotion_repoints_endpoint_and_revokes_leases() {
        let stats = StatsRegistry::new();
        let net = Network::new(4, NetConfig::default(), &stats);
        let cfg = StoreConfig {
            ha_standby: true,
            manager_shards: 2,
            fetch_retries: 12,
            ..StoreConfig::default()
        };
        let store = AggregateStore::new(cfg, net.clone(), &stats);
        for (i, node) in [1usize, 2].iter().enumerate() {
            let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
            store.add_benefactor(Benefactor::new(*node, ssd, mib(64), CHUNK));
        }
        store.install_shards(&[1, 2], 77);
        store.set_standby_nodes(&[2, 1]);
        let f = make_file(&store, "/m", 4 * CHUNK);
        let data = pattern(0x3C);
        let mut t = VTime::ZERO;
        for idx in 0..4 {
            t = store.write_pages(t, 3, f, idx, &[(0, &data)]).unwrap();
        }
        let granted = stats.get("store.lease_grants");
        assert!(granted > 0, "shard RPCs granted leases");
        assert_eq!(net.endpoint_node("shardmgr/0"), Some(1));
        let crash = t + VTime::from_micros(1);
        store
            .attach_faults(
                faults::FaultPlanBuilder::new(11)
                    .mgr_crash(crash, 0)
                    .build(),
            )
            .unwrap();
        let revokes_before = stats.get("store.lease_revokes");
        // Every acked write reads back across the outage…
        for idx in 0..4 {
            let (_, p) = store.fetch_chunk(crash, 3, f, idx).unwrap();
            assert_eq!(p, ChunkPayload::Data(data.clone().into()));
        }
        // …and a namespace op (always rank 0, the root shard) guarantees
        // the crashed rank was probed even if slot hashing dodged it.
        let (_, found) = store.open(crash, 3, "/m").unwrap();
        assert_eq!(found, Some(f));
        assert_eq!(stats.get("store.mgr_failovers"), 1);
        // The standby's node now answers rank 0's endpoint, and the
        // node shard RPCs are sent to agrees with it…
        assert_eq!(net.endpoint_node("shardmgr/0"), Some(2));
        assert_eq!(serving_node(&store, 0), 2);
        assert_eq!(
            net.endpoint_node("shardmgr/1"),
            Some(serving_node(&store, 1))
        );
        // …and every pre-crash delegation from rank 0 was revoked.
        assert!(stats.get("store.lease_revokes") > revokes_before);
    }

    /// The node shard `k`'s RPCs are sent to.
    fn serving_node(store: &AggregateStore, k: usize) -> usize {
        store.state.lock().shards.as_ref().unwrap().node(k)
    }

    /// `store_ha(true)` with `shards` placement shards installed (none for
    /// the serial manager), each with a standby on the other benefactor.
    fn store_ha_sharded(shards: usize) -> (AggregateStore, StatsRegistry) {
        let stats = StatsRegistry::new();
        let net = Network::new(4, NetConfig::default(), &stats);
        let cfg = StoreConfig {
            ha_standby: true,
            manager_shards: shards,
            fetch_retries: 12,
            ..StoreConfig::default()
        };
        let store = AggregateStore::new(cfg, net, &stats);
        for (i, node) in [1usize, 2].iter().enumerate() {
            let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
            store.add_benefactor(Benefactor::new(*node, ssd, mib(64), CHUNK));
        }
        if shards > 0 {
            let nodes: Vec<usize> = (0..shards).map(|k| 1 + k % 2).collect();
            let standbys: Vec<usize> = nodes.iter().map(|n| 3 - n).collect();
            store.install_shards(&nodes, 77);
            store.set_standby_nodes(&standbys);
        }
        (store, stats)
    }

    /// `(placement epoch, RevokeLeases records in journal lane 0)`.
    fn epoch_and_lane0_revokes(store: &AggregateStore) -> (u64, usize) {
        let mgr = store.manager();
        let revokes = mgr
            .journal()
            .expect("HA journals")
            .lane(0)
            .iter()
            .filter(|r| matches!(r, crate::journal::Record::RevokeLeases { .. }))
            .count();
        (mgr.placement_epoch(), revokes)
    }

    #[test]
    fn takeover_and_cold_recover_each_revoke_once() {
        for shards in [0, 2] {
            let (store, stats) = store_ha_sharded(shards);
            let f = make_file(&store, "/m", 2 * CHUNK);
            let page = vec![4u8; 4096];
            let t = store
                .write_pages(VTime::ZERO, 3, f, 0, &[(0, &page)])
                .unwrap();

            // Standby takeover: the first probe past the deadline (a
            // namespace op, so rank 0 answers it) promotes the standby.
            let crash = t + VTime::from_micros(1);
            store
                .attach_faults(faults::FaultPlanBuilder::new(1).mgr_crash(crash, 0).build())
                .unwrap();
            let (epoch, revokes) = epoch_and_lane0_revokes(&store);
            let late = crash + VTime::from_secs(1);
            store.open(late, 3, "/m").unwrap();
            assert_eq!(stats.get("store.mgr_failovers"), 1, "shards={shards}");
            assert_eq!(
                epoch_and_lane0_revokes(&store),
                (epoch + 1, revokes + 1),
                "takeover, shards={shards}"
            );

            // Cold recover: the reboot lands before any probe could take
            // over, so the rank restarts with a cold lease table.
            let crash = late + VTime::from_millis(1);
            store
                .attach_faults(
                    faults::FaultPlanBuilder::new(2)
                        .mgr_crash(crash, 0)
                        .mgr_recover(crash + VTime::from_millis(1), 0)
                        .build(),
                )
                .unwrap();
            let (epoch, revokes) = epoch_and_lane0_revokes(&store);
            store.poll_faults(crash + VTime::from_millis(2));
            assert!(!store.manager_rank_down(0));
            assert_eq!(stats.get("store.mgr_failovers"), 1, "no second takeover");
            assert_eq!(
                epoch_and_lane0_revokes(&store),
                (epoch + 1, revokes + 1),
                "cold recover, shards={shards}"
            );
        }
    }

    // ----- fault-plan validation ------------------------------------------------

    #[test]
    fn fault_plan_naming_a_missing_benefactor_is_rejected() {
        let (store, _) = store();
        let t = VTime::from_millis(1);
        let err = store
            .attach_faults(faults::FaultPlanBuilder::new(1).crash(t, 9).build())
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::NoSuchFaultTarget {
                target: FaultTarget::Benefactor(9),
                have: 2,
            }
        );
        // Nothing was installed: polling past the event time is harmless.
        store.poll_faults(t);
        assert!(store.manager().benefactor(BenefactorId(1)).is_alive());
        let plan = faults::FaultPlanBuilder::new(1).crash(t, 1).build();
        assert_eq!(store.attach_faults(plan), Ok(()));
    }

    #[test]
    fn fault_plan_naming_a_missing_node_is_rejected() {
        let (store, _) = store();
        let t = VTime::from_millis(1);
        let plans = [
            faults::FaultPlanBuilder::new(1).partition(t, 4),
            faults::FaultPlanBuilder::new(1).degrade_link(t, 7, 2.0, VTime::ZERO),
            faults::FaultPlanBuilder::new(1).slow_ssd(t, 4, 3.0),
        ];
        for plan in plans {
            let err = store.attach_faults(plan.build()).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::NoSuchFaultTarget {
                        target: FaultTarget::Node(4 | 7),
                        have: 4,
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn fault_plan_naming_a_missing_shard_is_rejected() {
        let (sharded, _) = store_sharded(2, 2);
        let t = VTime::from_millis(1);
        let err = sharded
            .attach_faults(faults::FaultPlanBuilder::new(1).shard_crash(t, 5).build())
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::NoSuchFaultTarget {
                target: FaultTarget::Shard(5),
                have: 2,
            }
        );
        sharded.poll_faults(t);
        assert!(sharded.shard_alive(0) && sharded.shard_alive(1));
        // The serial manager has no shards at all.
        let (serial, _) = store();
        let plan = faults::FaultPlanBuilder::new(1).shard_crash(t, 0).build();
        assert!(serial.attach_faults(plan).is_err());
    }

    #[test]
    fn fault_plan_naming_a_missing_manager_rank_is_rejected() {
        let t = VTime::from_millis(1);
        let plan = || {
            faults::FaultPlanBuilder::new(1)
                .mgr_crash(t, 5)
                .mgr_recover(t + VTime::from_millis(1), 5)
                .build()
        };
        let (sharded, _) = store_sharded(2, 2);
        assert_eq!(
            sharded.attach_faults(plan()),
            Err(StoreError::NoSuchFaultTarget {
                target: FaultTarget::ManagerRank(5),
                have: 2,
            })
        );
        // The serial manager is one rank: rank 0.
        let (serial, _) = store();
        assert_eq!(
            serial.attach_faults(plan()),
            Err(StoreError::NoSuchFaultTarget {
                target: FaultTarget::ManagerRank(5),
                have: 1,
            })
        );
        serial.poll_faults(t + VTime::from_millis(2));
        assert!(!serial.manager_rank_down(5));
    }

    // ----- store state and gauge probes ----------------------------------------

    #[test]
    fn gauge_probes_never_find_the_state_lock_held() {
        let stats = StatsRegistry::new();
        let net = Network::new(4, NetConfig::default(), &stats);
        let interval = VTime::from_millis(10);
        let sampler = MetricsSampler::enabled(interval);
        let store =
            AggregateStore::new(StoreConfig::default(), net, &stats).with_sampler(sampler.clone());
        for (i, node) in [1usize, 2].iter().enumerate() {
            let ssd = Ssd::new(&format!("b{i}.ssd"), INTEL_X25E, &stats);
            store.add_benefactor(Benefactor::new(*node, ssd, mib(64), CHUNK));
        }
        store.install_shards(&[1, 2], 77);
        store.attach_scrub(
            ScrubConfig {
                interval: VTime::from_millis(5),
                ..ScrubConfig::default()
            },
            VTime::ZERO,
        );
        // One fresh file per sampler interval: each fallocate takes slots,
        // each write lands a page and kicks the scrub daemon.
        let page = vec![6u8; 4096];
        let mut t = VTime::ZERO;
        for step in 1..=6u64 {
            t = t.max(interval * step);
            let (t2, f) = store.create_file(t, 3, &format!("/f{step}")).unwrap();
            t = store
                .fallocate(
                    t2,
                    3,
                    f,
                    2 * CHUNK,
                    StripeSpec::all(),
                    PlacementPolicy::RoundRobin,
                )
                .unwrap();
            for idx in 0..2 {
                t = store.write_pages(t, 3, f, idx, &[(0, &page)]).unwrap();
            }
        }
        assert!(stats.get("store.scrub_passes") > 0, "scrub ran");
        sampler.sample_now(t);
        let series = sampler.series();
        let points = |name: &str| {
            series
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.points.iter().map(|&(_, v)| v).collect::<Vec<u64>>())
                .unwrap_or_default()
        };
        let free = points("store.free_slots");
        assert!(free.len() >= 5, "a point per crossed boundary: {free:?}");
        assert!(free.windows(2).all(|w| w[1] <= w[0]), "{free:?}");
        let mut distinct = free.clone();
        distinct.dedup();
        assert!(distinct.len() >= 2, "probes saw the fleet fill: {free:?}");
        assert_eq!(
            free.last().copied(),
            Some(store.manager().space().1 / CHUNK)
        );
        for k in 0..2 {
            let q = points(&format!("store.shard_queue.s{k}"));
            assert!(!q.is_empty(), "shard {k} queue gauge sampled");
        }
    }
}
