//! # perfbench — the repository's benchmark
//!
//! Runs the paper's three kinds of load on the default (paper) stack with
//! every opt-in knob off, from one process, through the layers' public
//! APIs, and reports end-to-end metrics (host and virtual clocks) and,
//! in a traced run, per-layer metrics. See `README.md` beside this crate
//! for every metric, its unit and direction, and the predictions each
//! layer metric makes.

pub mod metrics;
pub mod run;
pub mod sys;
pub mod trace;

use rand::Rng;
use simcore::rng::stream_rng;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 2 STREAM TRIAD: 8 ranks read B and C from one remote
    /// benefactor through the FUSE chunk cache, A stays in DRAM.
    StreamRead,
    /// Table VII synthetic: one rank, single-byte writes at random
    /// addresses, dirty-page write-back on a local benefactor.
    RandWrite,
    /// Table VI hybrid sort: 8 ranks on 8 nodes, half the list in NVM on
    /// 8 local striped benefactors.
    SortHybrid,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StreamRead,
        Workload::RandWrite,
        Workload::SortHybrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamRead => "stream_read",
            Workload::RandWrite => "randwrite",
            Workload::SortHybrid => "sort_hybrid",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem sizes. [`Sizes::paper`] is what the benchmark measures;
/// [`Sizes::small`] keeps the determinism tests quick.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// STREAM elements (f64) per rank.
    pub stream_rank_elems: usize,
    /// Full passes over each rank's whole slice, as Fig. 2 makes them.
    pub stream_iters: usize,
    /// After the full passes, each rank reads `1..=` this many more blocks
    /// from the head of its slice, as the seed decides.
    pub stream_max_tail_blocks: usize,
    /// Elements per read request (32 KiB, as in the repository's STREAM).
    pub stream_block_elems: usize,
    pub stream_cache_bytes: u64,
    pub randwrite_region_bytes: u64,
    pub randwrite_writes: usize,
    pub randwrite_cache_bytes: u64,
    pub sort_rank_elems: usize,
}

const MIB: u64 = 1 << 20;

impl Sizes {
    /// Two 32 MiB NVM arrays against an 8 MiB cache, 40 passes; 128 Ki
    /// byte writes in 32 MiB against 1 MiB; 1 Mi elements per sort rank.
    pub fn paper() -> Self {
        Sizes {
            stream_rank_elems: 512 * 1024,
            stream_iters: 40,
            stream_max_tail_blocks: 16,
            stream_block_elems: 4096,
            stream_cache_bytes: 8 * MIB,
            randwrite_region_bytes: 32 * MIB,
            randwrite_writes: 131_072,
            randwrite_cache_bytes: MIB,
            sort_rank_elems: 1 << 20,
        }
    }

    /// The same shapes, scaled down so a debug build runs them in seconds.
    pub fn small() -> Self {
        Sizes {
            stream_rank_elems: 32 * 1024,
            stream_iters: 2,
            stream_max_tail_blocks: 4,
            stream_block_elems: 4096,
            stream_cache_bytes: MIB,
            randwrite_region_bytes: 4 * MIB,
            randwrite_writes: 2048,
            randwrite_cache_bytes: MIB,
            sort_rank_elems: 16 * 1024,
        }
    }
}

/// A workload's inputs, generated from the seed alone. The program sees
/// only these (for the sort, the seed of its list generator).
#[derive(Clone, Debug, PartialEq)]
pub enum Inputs {
    Stream {
        /// Blocks each rank reads after its full passes.
        tail_blocks: usize,
        b: Vec<f64>,
        c: Vec<f64>,
    },
    RandWrite {
        /// `(address, value)` in the order they are made; values are never
        /// zero, so an unwritten byte cannot pass for a written one.
        writes: Vec<(u32, u8)>,
        /// The region's expected contents afterwards, for the check.
        image: Vec<u8>,
    },
    Sort {
        list_seed: u64,
    },
}

/// Ranks of the multi-rank workloads.
pub const RANKS: usize = 8;

impl Inputs {
    pub fn generate(w: Workload, sizes: &Sizes, seed: u64) -> Inputs {
        let mut rng = stream_rng(seed, w as u64);
        match w {
            Workload::StreamRead => {
                let tail_blocks = rng.gen_range(1..sizes.stream_max_tail_blocks + 1);
                let n = RANKS * sizes.stream_rank_elems;
                let b = (0..n).map(|_| rng.gen_range(-1.0e3..1.0e3)).collect();
                let c = (0..n).map(|_| rng.gen_range(-1.0e3..1.0e3)).collect();
                Inputs::Stream { tail_blocks, b, c }
            }
            Workload::RandWrite => {
                let region = u32::try_from(sizes.randwrite_region_bytes)
                    .expect("randwrite region fits 32-bit addresses");
                let writes: Vec<(u32, u8)> = (0..sizes.randwrite_writes)
                    .map(|_| (rng.gen_range(0..region), rng.gen_range(1..255u8)))
                    .collect();
                let mut image = vec![0u8; region as usize];
                for &(addr, value) in &writes {
                    image[addr as usize] = value;
                }
                Inputs::RandWrite { writes, image }
            }
            Workload::SortHybrid => Inputs::Sort {
                list_seed: rng.gen(),
            },
        }
    }
}
