//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats one workload for about `--seconds` seconds and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero
//! when any output is wrong or the virtual results differ between
//! repetitions.

use perfbench::metrics::{self, Metric};
use perfbench::run::{run_rep, Rep};
use perfbench::sys::peak_rss_bytes;
use perfbench::trace::write_spans;
use perfbench::{Inputs, Sizes, Workload};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <stream_read|randwrite|sort_hybrid> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::StreamRead,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Where a traced run writes its spans.
fn trace_path(w: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", w.name()))
}

fn write_trace(args: &Args, reps: &[Rep]) -> std::io::Result<PathBuf> {
    let path = trace_path(args.workload);
    std::fs::create_dir_all(path.parent().expect("trace path has a directory"))?;
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    let (run, last) = reps
        .iter()
        .enumerate()
        .rev()
        .find(|(_, r)| r.traced)
        .expect("a traced repetition");
    writeln!(
        out,
        r#"{{"workload":"{}","seed":{},"run":{run},"measured_host_ns":[{},{}],"spans":{}}}"#,
        args.workload.name(),
        args.seed,
        last.window_host_ns.0,
        last.window_host_ns.1,
        last.spans.len()
    )?;
    write_spans(&mut out, run as u32, &last.spans)?;
    out.flush()?;
    Ok(path)
}

fn print_table(metrics: &[Metric]) {
    for x in metrics {
        println!("  {:<32} {:>18.6} {}", x.name, x.value, x.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sizes = Sizes::paper();
    let inputs = Inputs::generate(args.workload, &sizes, args.seed);
    // Untraced runs repeat the workload; traced runs alternate untraced
    // and traced repetitions, so the overhead compares like with like.
    let min_reps = if args.trace { 4 } else { 3 };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reps: Vec<Rep> = Vec::new();
    // The high-water through the first repetition: inputs plus one full
    // set-up, measured phase and check. Later repetitions only add the
    // allocator's fragmentation, which varies from run to run.
    let mut peak_rss = 0;
    while reps.len() < min_reps || Instant::now() < deadline {
        let traced = args.trace && reps.len() % 2 == 1;
        let r = run_rep(args.workload, &sizes, &inputs, traced);
        eprintln!(
            "rep {:>2}{}: setup {:.3}s host {:.3}s cpu {:.3}s virtual {:.6}s correct {}",
            reps.len(),
            if traced { " traced" } else { "" },
            r.setup_s,
            r.host_s,
            r.cpu_s,
            r.virtual_ns as f64 / 1e9,
            r.correct
        );
        reps.push(r);
        if reps.len() == 1 {
            peak_rss = peak_rss_bytes();
        }
    }

    let mut correct = reps.iter().all(|r| r.correct);
    let fp = metrics::fingerprint(&reps[0]);
    if reps.iter().any(|r| metrics::fingerprint(r) != fp) {
        eprintln!("virtual results differ between repetitions of one seed");
        correct = false;
    }
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let (traced, untraced): (Vec<&Rep>, Vec<&Rep>) = reps.iter().partition(|r| r.traced);
    let metrics = if args.trace {
        if traced.iter().any(|r| r.obs_dropped > 0) {
            eprintln!("the program's recorder dropped spans: the *.vt_self_s figures are short");
        }
        match write_trace(&args, &reps) {
            Ok(path) => eprintln!("spans of the last traced repetition: {}", path.display()),
            Err(e) => eprintln!("could not write the trace: {e}"),
        }
        metrics::per_layer(&traced, &untraced)
    } else {
        metrics::end_to_end(&untraced, peak_rss)
    };
    println!(
        "{} seed {}: {} repetitions ({} traced)",
        args.workload.name(),
        args.seed,
        reps.len(),
        traced.len()
    );
    print_table(&metrics);
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
