//! Unit tests for the mount data path.

use crate::mount::{FuseConfig, Mount};
use chunkstore::{
    AggregateStore, Benefactor, BenefactorId, ChunkId, FileId, PlacementPolicy, Slot, StoreConfig,
    StoreError, StripeSpec,
};
use devices::{Ssd, INTEL_X25E};
use netsim::{NetConfig, Network};
use simcore::time::bytes::mib;
use simcore::{StatsRegistry, VTime};

const CHUNK: u64 = 256 * 1024;

/// 3-node world: manager+benefactor on node 0, benefactor on node 1,
/// client mount on node 2.
fn world(cfg: FuseConfig) -> (Mount, StatsRegistry) {
    let stats = StatsRegistry::new();
    let net = Network::new(3, NetConfig::default(), &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    for node in [0usize, 1] {
        let ssd = Ssd::new(&format!("b{node}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(node, ssd, mib(256), CHUNK));
    }
    (Mount::new(store, 2, cfg, &stats), stats)
}

fn small_cache() -> FuseConfig {
    FuseConfig {
        cache_bytes: 2 * CHUNK, // two entries
        read_ahead_chunks: 0,
        ..FuseConfig::default()
    }
}

fn mk_file(m: &Mount, name: &str, size: u64) -> FileId {
    m.create(
        VTime::ZERO,
        name,
        size,
        StripeSpec::all(),
        PlacementPolicy::RoundRobin,
    )
    .unwrap()
    .1
}

#[test]
fn write_read_roundtrip_through_cache() {
    let (m, _) = world(small_cache());
    let f = mk_file(&m, "/v", 4 * CHUNK);
    let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
    let t = m.write(VTime::ZERO, f, 123_456, &data).unwrap();
    let mut out = vec![0u8; data.len()];
    m.read(t, f, 123_456, &mut out).unwrap();
    assert_eq!(out, data);
}

#[test]
fn reads_of_unwritten_space_are_zero() {
    let (m, _) = world(small_cache());
    let f = mk_file(&m, "/v", 2 * CHUNK);
    let mut out = vec![0xFFu8; 100];
    m.read(VTime::ZERO, f, CHUNK - 50, &mut out).unwrap();
    assert!(out.iter().all(|&b| b == 0));
}

#[test]
fn cache_hit_avoids_store_traffic() {
    let (m, stats) = world(small_cache());
    let f = mk_file(&m, "/v", 2 * CHUNK);
    let mut buf = [0u8; 64];
    let t = m.read(VTime::ZERO, f, 0, &mut buf).unwrap();
    let fetches = stats.get("store.chunk_fetches");
    let t2 = m.read(t, f, 64, &mut buf).unwrap();
    assert_eq!(stats.get("store.chunk_fetches"), fetches, "hit: no fetch");
    assert_eq!(stats.get("fuse.hits"), 1);
    // A hit costs only the FUSE op overhead.
    assert_eq!(t2 - t, FuseConfig::default().op_overhead);
}

#[test]
fn eviction_writes_back_only_dirty_pages() {
    let (m, stats) = world(small_cache());
    let f = mk_file(&m, "/v", 8 * CHUNK);
    // Dirty one page of chunk 0.
    let page = vec![1u8; 4096];
    let mut t = m.write(VTime::ZERO, f, 0, &page).unwrap();
    // Touch chunks 1, 2 → evicts chunk 0 (capacity 2).
    let mut buf = [0u8; 8];
    t = m.read(t, f, CHUNK, &mut buf).unwrap();
    t = m.read(t, f, 2 * CHUNK, &mut buf).unwrap();
    let _ = t;
    assert_eq!(stats.get("fuse.writeback_bytes"), 4096);
    assert_eq!(stats.get("store.bytes_from_clients"), 4096);
    assert!(stats.get("fuse.evictions") >= 1);
}

#[test]
fn pipelined_eviction_counts_async_writebacks() {
    let cfg = FuseConfig {
        cache_bytes: 2 * CHUNK,
        read_ahead_chunks: 0,
        pipelined_io: true,
        ..FuseConfig::default()
    };
    let (m, stats) = world(cfg);
    let f = mk_file(&m, "/v", 8 * CHUNK);
    // Dirty one page of chunk 0, then stream chunks 1 and 2 through the
    // 2-entry cache: the second miss must evict dirty chunk 0 through the
    // asynchronous batched write-back (make_room_n), not a synchronous
    // flush.
    let page = vec![1u8; 4096];
    let t = m.write(VTime::ZERO, f, 0, &page).unwrap();
    assert_eq!(stats.get("fuse.async_writebacks"), 0);
    let mut buf = [0u8; 8];
    let t = m.read(t, f, CHUNK, &mut buf).unwrap();
    let t = m.read(t, f, 2 * CHUNK, &mut buf).unwrap();
    assert_eq!(stats.get("fuse.async_writebacks"), 1);
    assert_eq!(stats.get("fuse.writeback_bytes"), 4096);
    assert_eq!(stats.get("store.bytes_from_clients"), 4096);
    // The background write still landed: chunk 0 re-reads with the data.
    let mut back = vec![0u8; 4096];
    m.read(t, f, 0, &mut back).unwrap();
    assert_eq!(back, page);
}

#[test]
fn whole_chunk_writeback_without_optimization() {
    let cfg = FuseConfig {
        dirty_page_writeback: false,
        ..small_cache()
    };
    let (m, stats) = world(cfg);
    let f = mk_file(&m, "/v", 8 * CHUNK);
    let page = vec![1u8; 4096];
    let mut t = m.write(VTime::ZERO, f, 0, &page).unwrap();
    let mut buf = [0u8; 8];
    t = m.read(t, f, CHUNK, &mut buf).unwrap();
    t = m.read(t, f, 2 * CHUNK, &mut buf).unwrap();
    let _ = t;
    assert_eq!(stats.get("fuse.writeback_bytes"), CHUNK);
}

#[test]
fn evicted_dirty_data_survives() {
    let (m, _) = world(small_cache());
    let f = mk_file(&m, "/v", 8 * CHUNK);
    let data = vec![0x5Au8; 5000];
    let mut t = m.write(VTime::ZERO, f, 100, &data).unwrap();
    // Force eviction of chunk 0 by touching three other chunks.
    let mut buf = [0u8; 8];
    for i in 1..=3 {
        t = m.read(t, f, i * CHUNK, &mut buf).unwrap();
    }
    let mut out = vec![0u8; data.len()];
    m.read(t, f, 100, &mut out).unwrap();
    assert_eq!(out, data);
}

#[test]
fn o_rdwr_visibility_across_mounts() {
    // Two mounts on different nodes; a write through one is immediately
    // readable through the other once flushed (shared backing store) —
    // and *within* one node, immediately even without a flush.
    let stats = StatsRegistry::new();
    let net = Network::new(3, NetConfig::default(), &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    let ssd = Ssd::new("b0.ssd", INTEL_X25E, &stats);
    store.add_benefactor(Benefactor::new(0, ssd, mib(256), CHUNK));
    let m1 = Mount::new(store.clone(), 1, FuseConfig::default(), &stats);
    let m2 = Mount::new(store.clone(), 2, FuseConfig::default(), &stats);

    let f = mk_file(&m1, "/shared", CHUNK);
    let data = vec![9u8; 1000];
    let mut t = m1.write(VTime::ZERO, f, 0, &data).unwrap();
    t = m1.flush_file(t, f).unwrap();

    let (t2, found) = m2.open(t, "/shared").unwrap();
    assert_eq!(found, Some(f));
    let mut out = vec![0u8; 1000];
    m2.read(t2, f, 0, &mut out).unwrap();
    assert_eq!(out, data);
}

#[test]
fn flush_clears_dirty_but_keeps_cached() {
    let (m, stats) = world(small_cache());
    let f = mk_file(&m, "/v", 2 * CHUNK);
    let data = vec![3u8; 100];
    let t = m.write(VTime::ZERO, f, 0, &data).unwrap();
    let t = m.flush_file(t, f).unwrap();
    assert_eq!(stats.get("fuse.writeback_bytes"), 4096);
    // Second flush: nothing dirty.
    m.flush_all(t).unwrap();
    assert_eq!(stats.get("fuse.writeback_bytes"), 4096);
    // Still a cache hit afterwards.
    let hits = stats.get("fuse.hits");
    let mut out = vec![0u8; 100];
    m.read(t, f, 0, &mut out).unwrap();
    assert_eq!(stats.get("fuse.hits"), hits + 1);
    assert_eq!(out, data);
}

#[test]
fn sequential_read_triggers_readahead() {
    let cfg = FuseConfig {
        cache_bytes: 8 * CHUNK,
        read_ahead_chunks: 1,
        ..FuseConfig::default()
    };
    let (m, stats) = world(cfg);
    let f = mk_file(&m, "/v", 8 * CHUNK);
    // Materialize all chunks so prefetch has real data to pull.
    let big = vec![1u8; (8 * CHUNK) as usize];
    let t = m.write(VTime::ZERO, f, 0, &big).unwrap();
    let t = m.flush_file(t, f).unwrap();

    // Fresh mount (cold cache) on the same node type.
    let (m2, stats2) = (m.clone(), stats.clone());
    {
        // Invalidate by deleting… instead, just use a new mount instance.
    }
    let m3 = Mount::new(m2.store().clone(), 2, cfg, &stats2);
    let mut buf = vec![0u8; CHUNK as usize];
    let t1 = m3.read(t, f, 0, &mut buf).unwrap(); // miss, not sequential yet
    assert_eq!(stats2.get("fuse.readahead_fetches"), 0);
    let t2 = m3.read(t1, f, CHUNK, &mut buf).unwrap(); // sequential → prefetch
    assert!(stats2.get("fuse.readahead_fetches") >= 1);
    // Third chunk is already resident: hit.
    let misses = stats2.get("fuse.misses");
    m3.read(t2, f, 2 * CHUNK, &mut buf).unwrap();
    assert_eq!(
        stats2.get("fuse.misses"),
        misses,
        "prefetched chunk is a hit"
    );
}

#[test]
fn random_reads_do_not_prefetch() {
    let cfg = FuseConfig {
        cache_bytes: 8 * CHUNK,
        read_ahead_chunks: 2,
        ..FuseConfig::default()
    };
    let (m, stats) = world(cfg);
    let f = mk_file(&m, "/v", 8 * CHUNK);
    let mut buf = [0u8; 64];
    let mut t = m.read(VTime::ZERO, f, 5 * CHUNK, &mut buf).unwrap();
    t = m.read(t, f, 2 * CHUNK, &mut buf).unwrap();
    m.read(t, f, 7 * CHUNK, &mut buf).unwrap();
    assert_eq!(stats.get("fuse.readahead_fetches"), 0);
}

#[test]
fn out_of_bounds_rejected() {
    let (m, _) = world(small_cache());
    let f = mk_file(&m, "/v", CHUNK);
    let mut buf = [0u8; 2];
    let err = m.read(VTime::ZERO, f, CHUNK - 1, &mut buf).unwrap_err();
    assert!(matches!(err, StoreError::OutOfBounds { .. }));
    let err = m.write(VTime::ZERO, f, CHUNK, &[1]).unwrap_err();
    assert!(matches!(err, StoreError::OutOfBounds { .. }));
}

#[test]
fn delete_discards_cache_and_file() {
    let (m, _) = world(small_cache());
    let f = mk_file(&m, "/v", CHUNK);
    let t = m.write(VTime::ZERO, f, 0, &[1, 2, 3]).unwrap();
    let t = m.delete(t, f).unwrap();
    let mut buf = [0u8; 1];
    let err = m.read(t, f, 0, &mut buf).unwrap_err();
    assert_eq!(err, StoreError::NoSuchFile);
    // Name can be reused.
    mk_file(&m, "/v", CHUNK);
}

#[test]
fn request_bytes_counted_at_page_granularity() {
    let (m, stats) = world(small_cache());
    let f = mk_file(&m, "/v", CHUNK);
    // A single-byte write arrives at FUSE as one 4 KiB page.
    m.write(VTime::ZERO, f, 10, &[7]).unwrap();
    assert_eq!(stats.get("fuse.write_req_bytes"), 4096);
    let mut b = [0u8; 1];
    m.read(VTime::ZERO, f, 4095, &mut b).unwrap();
    assert_eq!(stats.get("fuse.read_req_bytes"), 4096);
    // A straddling 2-byte read touches two pages.
    let mut b2 = [0u8; 2];
    m.read(VTime::ZERO, f, 4095, &mut b2).unwrap();
    assert_eq!(stats.get("fuse.read_req_bytes"), 4096 + 8192);
}

#[test]
fn failover_is_transparent_to_the_mount() {
    // A replicated file keeps serving reads through the FUSE layer after
    // its primary benefactor dies — no error surfaces, only the
    // store-level failover counters move.
    let (m, stats) = world(small_cache());
    let f = m
        .create(
            VTime::ZERO,
            "/v",
            4 * CHUNK,
            StripeSpec::all().with_replicas(2),
            PlacementPolicy::RoundRobin,
        )
        .unwrap()
        .1;
    let data: Vec<u8> = (0..(2 * CHUNK as usize)).map(|i| (i % 251) as u8).collect();
    let t = m.write(VTime::ZERO, f, 0, &data).unwrap();
    let t = m.flush_file(t, f).unwrap();

    m.store()
        .set_benefactor_alive(chunkstore::BenefactorId(0), false);
    // A cold mount forces every read through the (degraded) store.
    let m2 = Mount::new(m.store().clone(), 2, small_cache(), &stats);
    let mut out = vec![0u8; data.len()];
    m2.read(t, f, 0, &mut out).unwrap();
    assert_eq!(out, data);
    assert!(stats.get("store.failovers") > 0);
    assert!(stats.get("store.degraded_reads") > 0);
}

#[test]
fn local_benefactor_faster_than_remote() {
    // Mount on node 0 (co-located with benefactor 0) vs mount on node 2.
    let stats = StatsRegistry::new();
    let net = Network::new(3, NetConfig::default(), &stats);
    let store = AggregateStore::new(StoreConfig::default(), net, &stats);
    let ssd = Ssd::new("b0.ssd", INTEL_X25E, &stats);
    store.add_benefactor(Benefactor::new(0, ssd, mib(256), CHUNK));

    let cfg = FuseConfig {
        read_ahead_chunks: 0,
        ..FuseConfig::default()
    };
    let local = Mount::new(store.clone(), 0, cfg, &stats);
    let remote = Mount::new(store.clone(), 2, cfg, &stats);

    let f = mk_file(&local, "/v", 4 * CHUNK);
    let big = vec![1u8; (4 * CHUNK) as usize];
    let t0 = local.write(VTime::ZERO, f, 0, &big).unwrap();
    let t0 = local.flush_file(t0, f).unwrap();

    let mut buf = vec![0u8; CHUNK as usize];
    let t_local = local.read(t0, f, 2 * CHUNK, &mut buf).unwrap() - t0;

    let t_remote = remote.read(t0, f, 3 * CHUNK, &mut buf).unwrap() - t0;
    assert!(
        t_remote > t_local,
        "remote {t_remote} should exceed local {t_local}"
    );
}

/// Chunk `idx` of `f` as stored: its chunk id and primary home.
fn stored_chunk(m: &Mount, f: FileId, idx: usize) -> (ChunkId, BenefactorId) {
    let mgr = m.store().manager();
    let Slot::Chunk(c) = mgr.file(f).unwrap().slots[idx] else {
        panic!("slot {idx} not materialized");
    };
    (c, mgr.chunk_home(c).unwrap())
}

/// The benefactor's stored bytes of `c` on `home`: address and content.
fn benefactor_bytes(m: &Mount, c: ChunkId, home: BenefactorId) -> (*const u8, Vec<u8>) {
    let mgr = m.store().manager();
    let bytes = mgr.benefactor(home).peek_chunk(c).unwrap();
    (bytes.as_ptr(), bytes.to_vec())
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

#[test]
fn clean_read_shares_benefactor_bytes_until_the_first_write() {
    for pipelined_io in [false, true] {
        let (m, _) = world(FuseConfig {
            pipelined_io,
            ..small_cache()
        });
        let f = mk_file(&m, "/v", 2 * CHUNK);
        let data = pattern(CHUNK as usize);
        // Store the chunk behind the cache's back so the read misses.
        let t = m.store().write_span(VTime::ZERO, 2, f, 0, &data).unwrap();
        let mut out = vec![0u8; 64];
        let t = m.read(t, f, 0, &mut out).unwrap();
        let (c, home) = stored_chunk(&m, f, 0);
        let (stored_ptr, _) = benefactor_bytes(&m, c, home);
        assert_eq!(
            m.with_cached(f, 0, |d| d.as_ptr()),
            Some(stored_ptr),
            "a clean fetch shares the benefactor's bytes (pipelined={pipelined_io})"
        );

        // A write lands in the cache's own copy; the benefactor keeps the
        // old bytes until the flush ships the dirty page.
        let t = m.write(t, f, 100, &[0xAB]).unwrap();
        let (ptr, before_flush) = benefactor_bytes(&m, c, home);
        assert_eq!(before_flush, data, "benefactor unchanged until flush");
        assert_ne!(m.with_cached(f, 0, |d| d.as_ptr()), Some(ptr));
        assert_eq!(m.with_cached(f, 0, |d| d[100]), Some(0xAB));
        m.flush_file(t, f).unwrap();
        let (_, after_flush) = benefactor_bytes(&m, c, home);
        assert_eq!(Some(after_flush), m.with_cached(f, 0, |d| d.to_vec()));
    }
}

/// `world` with read verification on.
fn world_verified(cfg: FuseConfig) -> (Mount, StatsRegistry) {
    let stats = StatsRegistry::new();
    let net = Network::new(3, NetConfig::default(), &stats);
    let scfg = StoreConfig {
        verify_reads: true,
        ..StoreConfig::default()
    };
    let store = AggregateStore::new(scfg, net, &stats);
    for node in [0usize, 1] {
        let ssd = Ssd::new(&format!("b{node}.ssd"), INTEL_X25E, &stats);
        store.add_benefactor(Benefactor::new(node, ssd, mib(256), CHUNK));
    }
    (Mount::new(store, 2, cfg, &stats), stats)
}

#[test]
fn benefactor_rot_and_torn_writes_never_reach_a_cached_share() {
    for torn in [false, true] {
        let (m, stats) = world_verified(small_cache());
        let f = mk_file(&m, "/v", 2 * CHUNK);
        let data = pattern(CHUNK as usize);
        let t = m.store().write_span(VTime::ZERO, 2, f, 0, &data).unwrap();
        let mut out = vec![0u8; 64];
        let t = m.read(t, f, 0, &mut out).unwrap();
        let (c, home) = stored_chunk(&m, f, 0);
        assert_eq!(
            m.with_cached(f, 0, |d| d.as_ptr()),
            Some(benefactor_bytes(&m, c, home).0)
        );

        // Damage the benefactor's copy while the cache shares it: seeded
        // bit rot, or a torn write from another client.
        let at = t + VTime::from_micros(1);
        let plan = faults::FaultPlanBuilder::new(17);
        let plan = if torn {
            plan.torn_write(at, home.0)
        } else {
            plan.bit_rot(at, home.0, 10_000)
        };
        m.store().attach_faults(plan.build()).unwrap();
        let t = at + VTime::from_micros(1);
        let t = if torn {
            let run = vec![0xEEu8; 8192];
            m.store().write_pages(t, 2, f, 0, &[(0, &run)]).unwrap()
        } else {
            m.store().poll_faults(t);
            t
        };
        assert_eq!(m.store().count_corrupt_copies(), 1);

        // The cached share still holds the bytes it fetched, and a hit
        // serves them without re-verifying.
        assert_eq!(m.with_cached(f, 0, |d| d.to_vec()), Some(data.clone()));
        let mut hit = vec![0u8; CHUNK as usize];
        let t = m.read(t, f, 0, &mut hit).unwrap();
        assert_eq!(hit, data);
        assert_eq!(stats.get("store.crc_mismatches"), 0);

        // A cold mount meets the damaged sole copy: a typed error, one
        // mismatch, never wrong bytes.
        let cold = Mount::new(m.store().clone(), 2, small_cache(), &stats);
        let err = cold.read(t, f, 0, &mut hit).unwrap_err();
        assert_eq!(
            err,
            StoreError::ChunkCorrupt {
                chunk: c,
                benefactor: home
            }
        );
        assert_eq!(stats.get("store.crc_mismatches"), 1);
    }
}
