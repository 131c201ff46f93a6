//! Turning repetitions into the named metrics and the result line.

use crate::run::Rep;
use crate::trace::{Layer, Span};

const MIB: f64 = (1u64 << 20) as f64;

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `xs`, `q` in [0, 1].
fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

fn med(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(reps.iter().map(|r| f(r)).collect())
}

/// Simulated store traffic of the measured phase, bytes.
fn store_bytes(r: &Rep) -> u64 {
    r.counter("store.bytes_to_clients") + r.counter("store.bytes_from_clients")
}

/// The end-to-end metrics, from untraced repetitions.
pub fn end_to_end(reps: &[&Rep], peak_rss_bytes: u64) -> Vec<Metric> {
    let first = reps[0];
    vec![
        m("host_s", med(reps, |r| r.host_s), "s"),
        m("setup_s", med(reps, |r| r.setup_s), "s"),
        m("cpu_s", med(reps, |r| r.cpu_s), "s"),
        m("peak_rss_mib", peak_rss_bytes as f64 / MIB, "MiB"),
        m(
            "sim_mib_per_host_s",
            med(reps, |r| store_bytes(r) as f64 / MIB / r.host_s),
            "MiB/s",
        ),
        m("virtual_s", first.virtual_ns as f64 / 1e9, "s"),
        m("ssd_write_mib", first.ssd_written_bytes as f64 / MIB, "MiB"),
    ]
}

/// Rank-level calls (those with a virtual clock) inside the measured
/// phase.
fn window_calls(r: &Rep) -> impl Iterator<Item = &Span> {
    let (start, end) = r.window_host_ns;
    r.spans
        .iter()
        .filter(move |s| s.vt.is_some() && s.host_start_ns >= start && s.host_end_ns <= end)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-call figures of the `nvmalloc` layer in one traced repetition.
struct NvmCalls {
    calls: u64,
    errors: u64,
    cpu_s: f64,
    wait_s: f64,
    cpu_us: Vec<f64>,
    vt_us: Vec<f64>,
}

fn nvm_calls(r: &Rep) -> NvmCalls {
    let spans: Vec<&Span> = window_calls(r)
        .filter(|s| s.layer == Layer::Nvmalloc)
        .collect();
    NvmCalls {
        calls: spans.len() as u64,
        errors: spans.iter().filter(|s| !s.ok).count() as u64,
        cpu_s: spans.iter().map(|s| s.cpu_ns).sum::<u64>() as f64 / 1e9,
        wait_s: spans
            .iter()
            .map(|s| s.host_ns().saturating_sub(s.cpu_ns))
            .sum::<u64>() as f64
            / 1e9,
        cpu_us: spans.iter().map(|s| s.cpu_ns as f64 / 1e3).collect(),
        vt_us: spans
            .iter()
            .filter_map(|s| s.vt.map(|(a, b)| (b - a).as_nanos() as f64 / 1e3))
            .collect(),
    }
}

/// The per-layer metrics, from traced repetitions; `untraced` gives the
/// baseline for the tracing overhead. Host-clock figures are medians over
/// the traced repetitions; counts are identical in every repetition and
/// come from the last one.
pub fn per_layer(traced: &[&Rep], untraced: &[&Rep]) -> Vec<Metric> {
    let last = traced[traced.len() - 1];
    let c = |name: &str| last.counter(name) as f64;
    let handoffs = last.handoffs.unwrap_or(0);
    let nvm = nvm_calls(last);
    let (mut cpu_us, mut vt_us) = (nvm.cpu_us, nvm.vt_us);
    let dram_io = |r: &Rep| -> (u64, u64) {
        window_calls(r)
            .filter(|s| s.name == "cluster.dram_io")
            .fold((0, 0), |(n, cpu), s| (n + 1, cpu + s.cpu_ns))
    };
    let call_cpu_s = |r: &Rep| window_calls(r).map(|s| s.cpu_ns).sum::<u64>() as f64 / 1e9;
    let hits = last.counter("fuse.hits");
    let misses = last.counter("fuse.misses");
    let evictions = last.counter("fuse.evictions");
    let dirty_evictions = evictions.saturating_sub(last.counter("fuse.clean_evictions"));
    let traced_host = med(traced, |r| r.host_s);
    let untraced_host = med(untraced, |r| r.host_s);
    vec![
        m("simcore.handoffs", handoffs as f64, "count"),
        m(
            "simcore.handoffs_per_host_s",
            med(traced, |r| r.handoffs.unwrap_or(0) as f64 / r.job_host_s),
            "1/s",
        ),
        m("cluster.build_s", med(traced, |r| r.build_s), "s"),
        m("cluster.dram_io_calls", dram_io(last).0 as f64, "count"),
        m(
            "cluster.dram_io_cpu_s",
            med(traced, |r| dram_io(r).1 as f64 / 1e9),
            "s",
        ),
        m("nvmalloc.calls", nvm.calls as f64, "count"),
        m("nvmalloc.cpu_s", med(traced, |r| nvm_calls(r).cpu_s), "s"),
        m("nvmalloc.wait_s", med(traced, |r| nvm_calls(r).wait_s), "s"),
        m("nvmalloc.cpu_us_p50", percentile(&mut cpu_us, 0.50), "us"),
        m("nvmalloc.cpu_us_p99", percentile(&mut cpu_us, 0.99), "us"),
        m("nvmalloc.vt_us_p50", percentile(&mut vt_us, 0.50), "us"),
        m("nvmalloc.vt_us_p99", percentile(&mut vt_us, 0.99), "us"),
        m("nvmalloc.errors", nvm.errors as f64, "count"),
        m("fusemm.hit_ratio", ratio(hits, hits + misses), "ratio"),
        m("fusemm.misses", misses as f64, "count"),
        m("fusemm.evictions", evictions as f64, "count"),
        m(
            "fusemm.dirty_eviction_ratio",
            ratio(dirty_evictions, evictions),
            "ratio",
        ),
        m(
            "fusemm.readahead_fetches",
            c("fuse.readahead_fetches"),
            "count",
        ),
        m("fusemm.writeback_bytes", c("fuse.writeback_bytes"), "B"),
        m("fusemm.vt_self_s", last.vt_self_s(obs::Layer::Fuse), "s"),
        m("chunkstore.mgr_rpcs", c("store.mgr_rpcs"), "count"),
        m(
            "chunkstore.chunk_fetches",
            c("store.chunk_fetches"),
            "count",
        ),
        m(
            "chunkstore.bytes_to_clients",
            c("store.bytes_to_clients"),
            "B",
        ),
        m(
            "chunkstore.bytes_from_clients",
            c("store.bytes_from_clients"),
            "B",
        ),
        m("chunkstore.failovers", c("store.failovers"), "count"),
        m(
            "chunkstore.vt_self_s",
            last.vt_self_s(obs::Layer::Store),
            "s",
        ),
        m("netsim.bytes", c("net.bytes"), "B"),
        m("netsim.messages", c("net.messages"), "count"),
        m("netsim.vt_self_s", last.vt_self_s(obs::Layer::Net), "s"),
        m(
            "devices.ssd_read_bytes",
            last.counter_suffix_sum(".ssd.read_bytes") as f64,
            "B",
        ),
        m(
            "devices.ssd_written_bytes",
            last.counter_suffix_sum(".ssd.written_bytes") as f64,
            "B",
        ),
        m(
            "devices.ssd_ops",
            (last.counter_suffix_sum(".ssd.reads") + last.counter_suffix_sum(".ssd.writes")) as f64,
            "count",
        ),
        m(
            "devices.dram_bytes",
            last.counter_suffix_sum(".dram.bytes") as f64,
            "B",
        ),
        m(
            "devices.pfs_bytes",
            c("pfs.read_bytes") + c("pfs.written_bytes"),
            "B",
        ),
        m("devices.vt_self_s", last.vt_self_s(obs::Layer::Dev), "s"),
        m(
            "workloads.self_cpu_s",
            med(traced, |r| r.cpu_s - call_cpu_s(r)),
            "s",
        ),
        m("obs.spans", last.obs_spans as f64, "count"),
        m(
            "obs.trace_overhead_pct",
            100.0 * (traced_host / untraced_host - 1.0),
            "%",
        ),
        m(
            "op_fail_frac",
            ratio(
                traced.iter().map(|r| r.failed).sum(),
                traced.iter().map(|r| r.attempted).sum(),
            ),
            "ratio",
        ),
    ]
}

/// The deterministic part of a repetition: virtual time, wear, engine
/// hand-offs and every counter delta. Equal in every repetition of one
/// workload and seed, traced or not.
pub fn fingerprint(r: &Rep) -> (u64, u64, Option<u64>, &simcore::Snapshot) {
    (r.virtual_ns, r.ssd_written_bytes, r.handoffs, &r.counters)
}

/// The result line: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

/// A finite number in JSON syntax, every digit kept.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric is not a finite number: {v}");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.5), 50.0);
        assert_eq!(percentile(&mut xs, 0.99), 99.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(true, 3, 0, &[m("host_s", 1.5, "s"), m("n", 2.0, "count")]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"host_s": {"value": 1.5, "unit": "s"}, "n": {"value": 2.0, "unit": "count"}}}"#
        );
    }
}
