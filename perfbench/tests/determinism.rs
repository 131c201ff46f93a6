//! Determinism self-check of the benchmark, on the small sizes: repeated
//! runs, and traced against untraced runs, give identical virtual time,
//! SSD wear, engine hand-offs and counter deltas, and identical
//! per-layer counts.

use perfbench::metrics::{fingerprint, per_layer, Metric};
use perfbench::run::{run_rep, Rep};
use perfbench::{Inputs, Sizes, Workload};

/// Per-layer metrics that do not depend on the host clock.
fn deterministic_part(traced: &Rep, untraced: &Rep) -> Vec<Metric> {
    per_layer(&[traced], &[untraced])
        .into_iter()
        .filter(|m| matches!(m.unit, "count" | "B" | "ratio") || m.name.contains(".vt_"))
        .collect()
}

#[test]
fn repeated_and_traced_runs_agree() {
    let sizes = Sizes::small();
    for w in Workload::ALL {
        let inputs = Inputs::generate(w, &sizes, 7);
        let a = run_rep(w, &sizes, &inputs, false);
        let b = run_rep(w, &sizes, &inputs, false);
        let t1 = run_rep(w, &sizes, &inputs, true);
        let t2 = run_rep(w, &sizes, &inputs, true);
        for r in [&a, &b, &t1, &t2] {
            assert!(r.correct, "{}: wrong output", w.name());
            assert_eq!(r.failed, 0, "{}: failed calls", w.name());
        }
        assert!(a.virtual_ns > 0 && a.ssd_written_bytes > 0, "{}", w.name());
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{}: reruns differ",
            w.name()
        );
        assert_eq!(
            fingerprint(&a),
            fingerprint(&t1),
            "{}: tracing changed the virtual results",
            w.name()
        );
        assert!(a.spans.is_empty() && !t1.spans.is_empty());
        assert!(t1.obs_spans > 0 && t1.obs_dropped == 0);
        assert_eq!(
            deterministic_part(&t1, &a),
            deterministic_part(&t2, &b),
            "{}: per-layer counts differ",
            w.name()
        );
    }
}

#[test]
fn the_seed_alone_decides_the_inputs() {
    let sizes = Sizes::small();
    for w in Workload::ALL {
        let a = Inputs::generate(w, &sizes, 1);
        assert!(a == Inputs::generate(w, &sizes, 1));
        assert!(a != Inputs::generate(w, &sizes, 2));
    }
}

#[test]
fn the_stream_seed_moves_virtual_time() {
    // Every seed makes the same full passes; the seed decides only the
    // values and the length of the tail read after them, so the modelled
    // time differs between seeds with different tails: a timing that read
    // the same for every seed would be indistinguishable from a constant.
    let sizes = Sizes::small();
    let w = Workload::StreamRead;
    let tail = |s: u64| match Inputs::generate(w, &sizes, s) {
        Inputs::Stream { tail_blocks, .. } => tail_blocks,
        _ => unreachable!(),
    };
    let other = (2..100)
        .find(|&s| tail(s) != tail(1))
        .expect("a seed with another tail");
    let vt: Vec<u64> = [1, other]
        .iter()
        .map(|&s| run_rep(w, &sizes, &Inputs::generate(w, &sizes, s), false).virtual_ns)
        .collect();
    assert_ne!(vt[0], vt[1]);
}
