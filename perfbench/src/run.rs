//! One repetition of a workload: build the cluster, initialise, run the
//! measured phase, check the output, and collect what the layers report.
//!
//! The measured phase runs from the barrier after initialisation to the
//! barrier after the kernel (for the sort: the `run_sort_hybrid` call).
//! The first rank through each barrier takes the mark; the engine runs
//! one rank at a time, so no other rank has moved past it yet.

use crate::sys::process_cpu_ns;
use crate::trace::{Layer, Span, Tracer};
use crate::{Inputs, Sizes, Workload, RANKS};
use chunkstore::StoreConfig;
use cluster::{run_job, Calibration, Cluster, ClusterSpec, JobConfig, JobResult};
use fusemm::FuseConfig;
use simcore::{ProcCtx, Snapshot, VTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use workloads::qsort::{run_sort_hybrid, SortConfig};

/// Capacity divisor of the HAL preset for STREAM and the random writes,
/// as the repository's figure reproductions use.
const SCALE: u64 = 64;
/// Capacity divisor for the sort, as Table VI uses.
const SORT_SCALE: u64 = 1024;
/// Read-back piece of the random-write check.
const CHECK_PIECE: usize = 1 << 20;

/// State at one end of the measured phase.
#[derive(Clone, Debug, Default)]
struct Mark {
    host_ns: u64,
    cpu_ns: u64,
    vt: VTime,
    counters: Snapshot,
}

/// A job of one repetition: where it runs, the span its calls hang
/// from, and the two ends of its measured phase.
struct Job<'a> {
    cluster: &'a Cluster,
    cfg: &'a JobConfig,
    tr: &'a Tracer,
    span: u32,
    start: OnceLock<Mark>,
    end: OnceLock<Mark>,
}

impl Job<'_> {
    /// Take a mark unless a rank already did.
    fn mark(&self, slot: &OnceLock<Mark>, vt: VTime) {
        slot.get_or_init(|| Mark {
            host_ns: self.tr.host_ns(),
            cpu_ns: process_cpu_ns(),
            vt,
            counters: self.cluster.stats.snapshot(),
        });
    }

    fn try_call<T, E>(
        &self,
        ctx: &mut ProcCtx,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut ProcCtx) -> Result<T, E>,
    ) -> Option<T> {
        self.tr.try_call(ctx, self.span, layer, name, f)
    }

    fn call<T>(
        &self,
        ctx: &mut ProcCtx,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut ProcCtx) -> T,
    ) -> T {
        self.tr.call(ctx, self.span, layer, name, f)
    }

    fn barrier(&self, ctx: &mut ProcCtx, env: &cluster::JobEnv) {
        self.call(ctx, Layer::Cluster, "cluster.barrier", |ctx| {
            env.comm.barrier(ctx, env.rank)
        });
    }
}

/// What one repetition measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub traced: bool,
    /// The output matched the inputs and the phase marks were taken.
    pub correct: bool,
    /// Calls the benchmark made into the layers, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    pub build_s: f64,
    pub host_s: f64,
    pub cpu_s: f64,
    /// Host seconds of the whole `run_job` (or `run_sort_hybrid`) call.
    pub job_host_s: f64,
    pub virtual_ns: u64,
    /// SSD bytes written over the whole repetition (modelled wear).
    pub ssd_written_bytes: u64,
    /// Counter deltas over the measured phase.
    pub counters: Snapshot,
    /// Engine baton hand-offs over the whole job; `None` for the sort,
    /// whose kernel does not return its engine report.
    pub handoffs: Option<u64>,
    /// Measured phase in the tracer's host clock, ns.
    pub window_host_ns: (u64, u64),
    /// Traced runs: the benchmark's spans, and the program's own
    /// virtual-time self time per layer inside the measured phase.
    pub spans: Vec<Span>,
    pub vt_self_ns: Vec<(obs::Layer, u64)>,
    pub obs_spans: u64,
    pub obs_dropped: u64,
}

impl Rep {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name)
    }

    /// Sum of every counter whose name ends with `suffix`.
    pub fn counter_suffix_sum(&self, suffix: &str) -> u64 {
        self.counters
            .values
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| *v)
            .sum()
    }

    pub fn vt_self_s(&self, layer: obs::Layer) -> f64 {
        self.vt_self_ns
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, ns)| *ns as f64 / 1e9)
    }
}

fn build(spec: ClusterSpec, nodes: &[usize], fuse: FuseConfig, traced: bool) -> Cluster {
    let store = StoreConfig::default();
    if traced {
        Cluster::with_obs(spec, nodes, fuse, store)
    } else {
        Cluster::with_configs(spec, nodes, fuse, store)
    }
}

/// Run one repetition of `w` on `inputs`.
pub fn run_rep(w: Workload, sizes: &Sizes, inputs: &Inputs, traced: bool) -> Rep {
    let tr = Tracer::new(traced);
    let root = tr.open(None);
    let cfg = match w {
        Workload::StreamRead => JobConfig::remote(RANKS, 1, 1),
        Workload::RandWrite => JobConfig::local(1, 1, 1),
        Workload::SortHybrid => JobConfig::local(1, RANKS, RANKS),
    };
    let (spec, cache_bytes) = match w {
        Workload::StreamRead => (ClusterSpec::hal().scaled(SCALE), sizes.stream_cache_bytes),
        Workload::RandWrite => (
            ClusterSpec::hal().scaled(SCALE),
            sizes.randwrite_cache_bytes,
        ),
        // The repository's scaled cache: 64 MiB / 1024, floored at 512 KiB.
        Workload::SortHybrid => (ClusterSpec::hal().scaled(SORT_SCALE), 512 << 10),
    };
    let fuse = FuseConfig {
        cache_bytes,
        ..FuseConfig::default()
    };
    let b = tr.open(Some(root.id()));
    let build_start = tr.host_ns();
    let cluster = build(spec, &cfg.benefactor_nodes(), fuse, traced);
    let build_ns = tr.host_ns() - build_start;
    tr.close(b, Layer::Cluster, "cluster.build", true);
    tr.count(true);

    let mut rep = Rep {
        traced,
        build_s: build_ns as f64 / 1e9,
        ..Rep::default()
    };
    let open = tr.open(Some(root.id()));
    let job = Job {
        cluster: &cluster,
        cfg: &cfg,
        tr: &tr,
        span: open.id(),
        start: OnceLock::new(),
        end: OnceLock::new(),
    };
    let job_start = tr.host_ns();
    let (ran, ok, job_name, job_layer) = match inputs {
        Inputs::Stream { tail_blocks, b, c } => {
            let r = guard(|| stream_read(&job, sizes, *tail_blocks, b, c));
            rep.handoffs = r.as_ref().map(|r| r.report.context_switches);
            let ok = r.as_ref().is_some_and(|r| r.outputs.iter().all(|&ok| ok));
            (r.is_some(), ok, "cluster.run_job", Layer::Cluster)
        }
        Inputs::RandWrite { writes, image } => {
            let r = guard(|| randwrite(&job, writes, image));
            rep.handoffs = r.as_ref().map(|r| r.report.context_switches);
            let ok = r.as_ref().is_some_and(|r| r.outputs[0]);
            (r.is_some(), ok, "cluster.run_job", Layer::Cluster)
        }
        Inputs::Sort { list_seed } => {
            let scfg = SortConfig {
                seed: *list_seed,
                verify: true,
                ..SortConfig::new(RANKS * sizes.sort_rank_elems)
            };
            job.mark(&job.start, VTime::ZERO);
            let r = guard(|| run_sort_hybrid(&cluster, &cfg, &scfg));
            job.mark(&job.end, r.as_ref().map_or(VTime::ZERO, |r| r.time));
            let ok = r.as_ref().is_some_and(|r| r.verified && r.passes == 1);
            let name = "workloads.run_sort_hybrid";
            (r.is_some(), ok, name, Layer::Workloads)
        }
    };
    rep.job_host_s = (tr.host_ns() - job_start) as f64 / 1e9;
    tr.close(open, job_layer, job_name, ran);
    tr.count(ran);

    rep.correct = ok && job.start.get().is_some() && job.end.get().is_some();
    let start = job.start.into_inner().unwrap_or_default();
    let end = job.end.into_inner().unwrap_or_default();
    rep.setup_s = start.host_ns as f64 / 1e9;
    rep.host_s = end.host_ns.saturating_sub(start.host_ns) as f64 / 1e9;
    rep.cpu_s = end.cpu_ns.saturating_sub(start.cpu_ns) as f64 / 1e9;
    rep.virtual_ns = end.vt.saturating_sub(start.vt).as_nanos();
    rep.counters = end.counters.delta_since(&start.counters);
    rep.window_host_ns = (start.host_ns, end.host_ns);
    rep.ssd_written_bytes = cluster.total_ssd_bytes_written();
    if traced {
        let window = match w {
            Workload::SortHybrid => (VTime::ZERO, VTime::MAX),
            _ => (start.vt, end.vt),
        };
        let spans = cluster.trace.spans();
        rep.obs_spans = spans.len() as u64;
        rep.obs_dropped = cluster.trace.dropped();
        rep.vt_self_ns = vt_self_by_layer(&spans, window);
    }
    tr.close(root, Layer::Bench, "perfbench.rep", rep.correct);
    rep.attempted = tr.attempted();
    rep.failed = tr.failed();
    rep.spans = tr.take_spans();
    rep
}

/// Run a job, turning a panic inside the program into a failed call.
fn guard<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Virtual self time per program layer, over spans that start inside
/// `window`: each span's duration minus its direct children's.
fn vt_self_by_layer(spans: &[obs::SpanRecord], window: (VTime, VTime)) -> Vec<(obs::Layer, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur().as_nanos();
        }
    }
    obs::Layer::ALL
        .iter()
        .map(|&layer| {
            let ns = spans
                .iter()
                .filter(|s| s.layer == layer && s.start >= window.0 && s.start < window.1)
                .map(|s| s.dur().as_nanos().saturating_sub(child_ns[s.id as usize]))
                .sum();
            (layer, ns)
        })
        .collect()
}

/// Fig. 2 TRIAD `A = B + 3·C`: B and C are shared NVM arrays, each rank
/// owns a contiguous, chunk-aligned slice and makes `stream_iters` passes
/// over the whole of it, as the repository's Fig. 2 kernel does; then,
/// after a barrier, it reads `tail_blocks` more blocks from the head of the
/// slice. A is a DRAM array per rank.
fn stream_read(
    job: &Job,
    sizes: &Sizes,
    tail_blocks: usize,
    b_in: &[f64],
    c_in: &[f64],
) -> JobResult<bool> {
    let n = b_in.len();
    let my = n / RANKS;
    let blk = sizes.stream_block_elems;
    let passes: Vec<usize> = (0..sizes.stream_iters)
        .map(|_| my)
        .chain([(tail_blocks * blk).min(my)])
        .collect();
    let (nvm, cl) = (Layer::Nvmalloc, Layer::Cluster);
    run_job(job.cluster, job.cfg, Calibration::default(), |ctx, env| {
        let base = env.rank * my;
        let dram = job
            .try_call(ctx, cl, "cluster.reserve_dram", |_| {
                env.reserve_dram(8 * my as u64)
            })
            .is_some();
        let mut a = vec![0f64; my];
        let mut arrays = Vec::with_capacity(2);
        for (key, src) in [("stream.B", b_in), ("stream.C", c_in)] {
            let v = job.try_call(ctx, nvm, "nvmalloc.ssdmalloc_shared", |ctx| {
                env.client.ssdmalloc_shared::<f64>(ctx, key, n)
            });
            if let Some(v) = &v {
                job.try_call(ctx, nvm, "nvmalloc.write_slice", |ctx| {
                    v.write_slice(ctx, base, &src[base..base + my])
                });
                job.try_call(ctx, nvm, "nvmalloc.flush", |ctx| v.flush(ctx));
            }
            arrays.push(v);
        }
        job.barrier(ctx, env);
        job.mark(&job.start, ctx.now());

        let (mut a_blk, mut b_blk, mut c_blk) = (vec![0f64; blk], vec![0f64; blk], vec![0f64; blk]);
        for (i, &pass) in passes.iter().enumerate() {
            if i == sizes.stream_iters {
                // The tail starts together, so it cannot change how the
                // full passes interleave.
                job.barrier(ctx, env);
            }
            let mut off = 0;
            while off < pass {
                let len = blk.min(pass - off);
                for (v, out) in arrays.iter().zip([&mut b_blk, &mut c_blk]) {
                    if let Some(v) = v {
                        job.try_call(ctx, nvm, "nvmalloc.read_slice", |ctx| {
                            v.read_slice(ctx, base + off, &mut out[..len])
                        });
                    }
                }
                job.call(ctx, cl, "cluster.compute", |ctx| {
                    env.compute(ctx, 2.0 * len as f64)
                });
                for i in 0..len {
                    a_blk[i] = b_blk[i] + 3.0 * c_blk[i];
                }
                job.call(ctx, cl, "cluster.dram_io", |ctx| {
                    env.dram_io(ctx, 8 * len as u64)
                });
                a[off..off + len].copy_from_slice(&a_blk[..len]);
                off += len;
            }
        }
        job.barrier(ctx, env);
        job.mark(&job.end, ctx.now());

        for v in arrays.into_iter().flatten() {
            job.try_call(ctx, nvm, "nvmalloc.ssdfree", |ctx| {
                env.client.ssdfree(ctx, v)
            });
        }
        job.barrier(ctx, env);
        if env.rank == 0 {
            for key in ["stream.B", "stream.C"] {
                job.try_call(ctx, nvm, "nvmalloc.unlink_shared", |ctx| {
                    env.client.unlink_shared(ctx, key)
                });
            }
        }
        if dram {
            env.release_dram(8 * my as u64);
        }
        check_triad(&a, &b_in[base..base + my], &c_in[base..base + my])
    })
}

/// Every element of A equals B + 3·C, bit for bit.
fn check_triad(a: &[f64], b: &[f64], c: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter().zip(c))
            .all(|(&a, (&b, &c))| a.to_bits() == (b + 3.0 * c).to_bits())
}

/// Table VII synthetic: single-byte writes at the generated addresses,
/// then a final flush; the whole region is read back and compared with
/// `image`, one cache-sized piece at a time.
fn randwrite(job: &Job, writes: &[(u32, u8)], image: &[u8]) -> JobResult<bool> {
    let nvm = Layer::Nvmalloc;
    run_job(job.cluster, job.cfg, Calibration::default(), |ctx, env| {
        let v = job.try_call(ctx, nvm, "nvmalloc.ssdmalloc", |ctx| {
            env.client.ssdmalloc::<u8>(ctx, image.len())
        });
        job.barrier(ctx, env);
        job.mark(&job.start, ctx.now());
        let Some(v) = v else {
            job.mark(&job.end, ctx.now());
            return false;
        };
        for &(addr, value) in writes {
            job.try_call(ctx, nvm, "nvmalloc.set", |ctx| {
                v.set(ctx, addr as usize, value)
            });
        }
        job.try_call(ctx, nvm, "nvmalloc.flush", |ctx| v.flush(ctx));
        job.barrier(ctx, env);
        job.mark(&job.end, ctx.now());

        let mut ok = true;
        let mut back = vec![0u8; CHECK_PIECE];
        for (i, want) in image.chunks(CHECK_PIECE).enumerate() {
            let got = &mut back[..want.len()];
            ok &= job
                .try_call(ctx, nvm, "nvmalloc.read_slice", |ctx| {
                    v.read_slice(ctx, i * CHECK_PIECE, got)
                })
                .is_some()
                && got == want;
        }
        job.try_call(ctx, nvm, "nvmalloc.ssdfree", |ctx| {
            env.client.ssdfree(ctx, v)
        });
        ok
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_triad_output_fails_the_check() {
        let (b, c) = (vec![1.0, 2.0, 3.0, 4.0], vec![0.5; 4]);
        let good = vec![2.5, 3.5, 4.5, 5.5];
        assert!(check_triad(&good, &b, &c));
        let mut bad = good.clone();
        bad[2] = 4.4;
        assert!(!check_triad(&bad, &b, &c));
        assert!(!check_triad(&good[..3], &b, &c), "a short output");
    }

    #[test]
    fn the_expected_image_keeps_the_last_write() {
        let inputs = Inputs::generate(Workload::RandWrite, &Sizes::small(), 3);
        let Inputs::RandWrite { writes, image } = inputs else {
            unreachable!()
        };
        let mut last = std::collections::HashMap::new();
        for &(addr, value) in &writes {
            last.insert(addr, value);
        }
        assert!(last.iter().all(|(&a, &v)| image[a as usize] == v && v != 0));
        let written = image.iter().filter(|&&b| b != 0).count();
        assert_eq!(written, last.len(), "unwritten bytes stay zero");
    }
}
