//! Crash and recover: a job on a replicated store loses a benefactor
//! mid-run and doesn't notice.
//!
//! Chunks are allocated with two replicas on distinct benefactors
//! (`JobConfig::with_replicas(2)`). A seeded fault plan kills benefactor
//! 0 half a virtual second in; reads fail over to the surviving copy,
//! the job finishes with the exact bytes a fault-free run produces, and
//! a repair sweep afterwards restores every chunk to full replica
//! degree. Run it twice: the virtual-time numbers are identical, because
//! faults are schedule + seed, not chaos.
//!
//! ```text
//! cargo run --example crash_and_recover
//! ```

use cluster::{run_job, Calibration, Cluster, ClusterSpec, JobConfig};
use faults::FaultPlanBuilder;
use simcore::VTime;

// Two chunks' worth of u64s: alternating reads across both chunks defeat
// the one-chunk cache below, so degraded reads really hit the store.
const ELEMS: usize = 1 << 16;
const HALF: usize = ELEMS / 2;

fn main() {
    // L-SSD(2:3:3) with every chunk on two of the three benefactors.
    let cfg = JobConfig::local(2, 3, 3).with_replicas(2);
    // A one-chunk cache so the degraded-phase reads actually reach the
    // store instead of being absorbed by the node-local FUSE cache.
    let fuse = fusemm::FuseConfig {
        cache_bytes: 256 * 1024,
        read_ahead_chunks: 0,
        ..fusemm::FuseConfig::default()
    };
    let cluster = Cluster::with_fuse(
        ClusterSpec::hal().scaled(256),
        &cfg.benefactor_nodes(),
        fuse,
    );

    // The fault plan: benefactor 0 dies at t = 500 ms. Seed 7 makes any
    // randomized events (none here) reproducible too.
    cluster
        .attach_faults(
            FaultPlanBuilder::new(7)
                .crash(VTime::from_millis(500), 0)
                .build(),
        )
        .expect("the plan names existing benefactors");

    let result = run_job(&cluster, &cfg, Calibration::default(), |ctx, env| {
        let field = env
            .client
            .ssdmalloc_shared::<u64>(ctx, "field", ELEMS)
            .unwrap();
        if env.rank == 0 {
            for i in 0..128 {
                field.set(ctx, i, 3 * i as u64 + 1).unwrap();
                field.set(ctx, HALF + i, 5 * i as u64 + 2).unwrap();
            }
            field.flush(ctx).unwrap();
        }
        env.comm.barrier(ctx, env.rank);

        // Phase 1 runs before the crash...
        let mut sum = 0u64;
        for i in 0..128 {
            sum += field.get(ctx, i).unwrap() + field.get(ctx, HALF + i).unwrap();
        }
        // ...then ~1 virtual second of compute carries us past t = 500 ms.
        env.compute(ctx, 2.4e9);
        // Phase 2 reads the same bytes from the degraded store: every
        // access to a chunk homed on the dead benefactor fails over.
        for i in 0..128 {
            sum += field.get(ctx, i).unwrap() + field.get(ctx, HALF + i).unwrap();
        }
        sum
    });

    let expected: u64 = 2 * (0..128).map(|i| (3 * i + 1) + (5 * i + 2)).sum::<u64>();
    for (rank, sum) in result.outputs.iter().enumerate() {
        assert_eq!(*sum, expected, "rank {rank} saw wrong bytes");
    }
    println!(
        "job finished at {} with correct results on all {} ranks",
        result.makespan(),
        result.outputs.len()
    );
    println!(
        "crashes={} failovers={} degraded_reads={}",
        cluster.stats.get("store.benefactor_crashes"),
        cluster.stats.get("store.failovers"),
        cluster.stats.get("store.degraded_reads"),
    );

    // Close the degraded window while the node is still down: every
    // chunk the dead benefactor held gets a fresh copy on the third,
    // so-far-unused benefactor.
    let t0 = result.makespan();
    let (t1, report) = cluster.store.repair_under_replicated(t0);
    println!(
        "repair: {} chunks ({} bytes) in {} of virtual time; under-replicated now: {}",
        report.chunks_repaired,
        report.bytes_copied,
        t1 - t0,
        cluster.store.manager().under_replicated().len(),
    );
    assert!(report.chunks_repaired > 0);
    assert!(cluster.store.manager().under_replicated().is_empty());

    // When the node eventually returns, its copies are surplus (repair
    // already replaced them) and are trimmed on reconciliation — readers
    // can never observe the stale bytes it crashed with.
    cluster
        .store
        .set_benefactor_alive(chunkstore::BenefactorId(0), true);
    assert!(cluster.store.manager().under_replicated().is_empty());
    println!("store back at full replica degree — crash absorbed, recovery complete");
}
