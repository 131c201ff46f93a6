#!/usr/bin/env bash
# Pre-PR gate: run this before pushing. Offline-friendly — everything it
# needs (including the vendored shims/ crates) lives in the workspace, so
# no network access is required.
#
#   scripts/check.sh          # fmt + clippy + full workspace test suite
#   scripts/check.sh --quick  # skip clippy (fmt + tests only)
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[ "${1:-}" = "--quick" ] && quick=1

# Every BENCH_*.json carries a "host" wall-clock block (host_seconds and
# friends) that varies run to run; expectation diffs compare everything
# *except* it. Brace-depth aware so nested blocks (micro's "detail")
# strip cleanly too.
strip_host() {
    awk '
        /^  "host": \{$/ { depth = 1; next }
        depth > 0 {
            if (/\{$/) depth++
            else if (/^[[:space:]]*\},?$/) depth--
            next
        }
        { print }
    ' "$1"
}

echo "==> cargo fmt --check"
cargo fmt --all --check

if [ "$quick" -eq 0 ]; then
    echo "==> cargo clippy (warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> cargo test (workspace)"
cargo test -q --workspace

echo "==> cargo build --benches"
cargo build --benches -q --workspace

echo "==> pipeline_overlap smoke (serial baseline must match committed expectations)"
smoke_dir="$(pwd)/target/bench-json-smoke"
rm -rf "$smoke_dir"
BENCH_JSON_DIR="$smoke_dir" cargo bench -q -p bench --bench pipeline_overlap -- --smoke \
    --trace "$smoke_dir/trace_smoke.json"
diff -u crates/bench/expected/BENCH_pipeline_overlap_serial.json \
    <(strip_host "$smoke_dir/BENCH_pipeline_overlap_serial.json")

echo "==> pipeline_overlap host footer must count the simulated bytes it moved"
overlap_bytes="$(awk -F': ' '/"sim_bytes"/ { gsub(/,/, "", $2); print $2; exit }' \
    "$smoke_dir/BENCH_pipeline_overlap.json")"
if [ -z "$overlap_bytes" ] || [ "$overlap_bytes" -eq 0 ]; then
    echo "FAIL: BENCH_pipeline_overlap.json host footer reports sim_bytes ${overlap_bytes:-?}"
    exit 1
fi

echo "==> exported trace must satisfy the Chrome trace-event schema (with causal flows + counter tracks)"
cargo run -q --release --example validate_trace -- --require-flows --require-counters \
    "$smoke_dir/trace_smoke.json"

echo "==> offline critical-path report must parse the exported trace"
cargo run -q --release --example trace_report -- "$smoke_dir/trace_smoke.json"

echo "==> causal critical-path attribution must match the committed expectation"
diff -u crates/bench/expected/BENCH_pipeline_overlap_critpath.json \
    <(strip_host "$smoke_dir/BENCH_pipeline_overlap_critpath.json")

echo "==> writeback_daemon smoke (defaults-off must match committed expectations)"
BENCH_JSON_DIR="$smoke_dir" cargo bench -q -p bench --bench writeback_daemon -- --smoke
diff -u crates/bench/expected/BENCH_writeback_daemon_serial.json \
    <(strip_host "$smoke_dir/BENCH_writeback_daemon_serial.json")

echo "==> write-back daemon counters must appear in the obs footer"
for c in fuse.bg_flushes fuse.bg_writeback_bytes fuse.throttled_writes \
         fuse.clean_evictions fuse.scan_protected_hits; do
    grep -q "\"$c\"" "$smoke_dir/BENCH_writeback_daemon.json" \
        || { echo "FAIL: counter $c missing from the obs footer"; exit 1; }
done
grep -q '"daemon: background flusher and clean-first eviction were exercised": true' \
    "$smoke_dir/BENCH_writeback_daemon.json" \
    || { echo "FAIL: daemon shape check did not pass"; exit 1; }

echo "==> scrub smoke (knobs-off baseline must match committed expectations)"
BENCH_JSON_DIR="$smoke_dir" cargo bench -q -p bench --bench scrub -- --smoke
diff -u crates/bench/expected/BENCH_scrub_serial.json \
    <(strip_host "$smoke_dir/BENCH_scrub_serial.json")

echo "==> injected bit rot must be detected, repaired and never served"
for c in rotted_crc_mismatches rotted_scrub_repairs scrub_repairs; do
    if ! grep -Eq "\"$c\": [1-9]" "$smoke_dir/BENCH_scrub.json"; then
        echo "FAIL: counter $c is zero or missing from BENCH_scrub.json"
        exit 1
    fi
done
for shape in \
    "zero wrong reads: rotted k=2 STREAM completes and verifies" \
    "scrub daemon repairs every rotted copy from replicas" \
    "k=1 rot surfaces as ChunkCorrupt naming the bad copy"; do
    grep -q "\"$shape\": true" "$smoke_dir/BENCH_scrub.json" \
        || { echo "FAIL: integrity shape check did not pass: $shape"; exit 1; }
done

echo "==> integrity counters must appear in the obs footer"
for c in store.crc_mismatches store.scrub_passes store.scrub_repairs; do
    grep -q "\"$c\"" "$smoke_dir/BENCH_scrub.json" \
        || { echo "FAIL: counter $c missing from the obs footer"; exit 1; }
done

echo "==> fan_in smoke (shards=1 must be bit-identical to the serial manager)"
BENCH_JSON_DIR="$smoke_dir" cargo bench -q -p bench --bench fan_in -- --smoke
diff -u crates/bench/expected/BENCH_fan_in_serial.json \
    <(strip_host "$smoke_dir/BENCH_fan_in_serial.json")
grep -q '"shards=1 bit-identical to the serial manager": true' \
    "$smoke_dir/BENCH_fan_in_serial.json" \
    || { echo "FAIL: sharded manager diverged from the serial baseline"; exit 1; }
if ! grep -Eq '"store.loc_cache_hits": [1-9]' "$smoke_dir/BENCH_fan_in_serial.json"; then
    echo "FAIL: leased hot path never hit the location cache"
    exit 1
fi

echo "==> degraded_mode smoke (knobs-off baseline must match committed expectations)"
BENCH_JSON_DIR="$smoke_dir" cargo bench -q -p bench --bench degraded_mode -- --smoke
diff -u crates/bench/expected/BENCH_degraded_mode_serial.json \
    <(strip_host "$smoke_dir/BENCH_degraded_mode_serial.json")

echo "==> degraded_mode full output (replica and RS virtual times) must match committed expectations"
diff -u crates/bench/expected/BENCH_degraded_mode.json \
    <(strip_host "$smoke_dir/BENCH_degraded_mode.json")

echo "==> erasure coding must encode, reconstruct and repair (never serve wrong bytes)"
for c in ec_parity_encodes ec_parity_bytes ec_degraded_reconstructs ec_parity_repairs \
         rs_sweep_reconstructs; do
    if ! grep -Eq "\"$c\": [1-9]" "$smoke_dir/BENCH_degraded_mode.json"; then
        echo "FAIL: counter $c is zero or missing from BENCH_degraded_mode.json"
        exit 1
    fi
done
for shape in \
    "parity groups place every member on a distinct benefactor" \
    "RS(4,2) stores at most 1.55x the logical bytes" \
    "RS(4,2) ships strictly fewer write bytes than replicas=2" \
    "mid-sweep crash over RS(4,2) yields zero wrong bytes" \
    "repair closes the degraded window for both redundancy schemes"; do
    grep -q "\"$shape\": true" "$smoke_dir/BENCH_degraded_mode.json" \
        || { echo "FAIL: erasure-coding shape check did not pass: $shape"; exit 1; }
done
grep -q '"m=0 is bit-identical to plain striping": true' \
    "$smoke_dir/BENCH_degraded_mode_serial.json" \
    || { echo "FAIL: m=0 diverged from plain striping"; exit 1; }

echo "==> mgr_failover smoke (knobs-off baseline must match committed expectations)"
BENCH_JSON_DIR="$smoke_dir" cargo bench -q -p bench --bench mgr_failover -- --smoke
diff -u crates/bench/expected/BENCH_mgr_failover_serial.json \
    <(strip_host "$smoke_dir/BENCH_mgr_failover_serial.json")

echo "==> manager failover must lose zero acked writes and report its takeover"
for shape in \
    "journaling is timing-neutral: ha-on run is bit-identical to knobs-off" \
    "seeded mid-run manager crash loses zero acknowledged writes" \
    "takeover replayed the journal exactly once" \
    "time-to-failover covers the 25 ms detection timeout" \
    "same seed reproduces the identical failover" \
    "promotion re-points shardmgr/0 at the standby node" \
    "takeover revokes the crashed shard's leases"; do
    grep -q "\"$shape\": true" "$smoke_dir/BENCH_mgr_failover.json" \
        || { echo "FAIL: manager-failover shape check did not pass: $shape"; exit 1; }
done
for c in mgr_failovers journal_replays time_to_failover_us idle_journal_records; do
    if ! grep -Eq "\"$c\": [1-9]" "$smoke_dir/BENCH_mgr_failover.json"; then
        echo "FAIL: counter $c is zero or missing from BENCH_mgr_failover.json"
        exit 1
    fi
done

echo "==> every emitted bench JSON must carry a host wall-clock footer"
for f in "$smoke_dir"/BENCH_*.json; do
    grep -q '"host": {' "$f" \
        || { echo "FAIL: $(basename "$f") is missing its host footer"; exit 1; }
done

echo "==> micro host-speed floor (simulated bytes per host second)"
# Committed floor: 140 MB of simulated traffic per host second — 2x the
# pre-bitalloc baseline (70.9 MB/hs, EXPERIMENTS.md) and ~8x below the
# rate measured after the allocator/CRC-splice work, so the gate catches
# an O(n)-per-event regression without tripping on machine variance.
micro_floor=140000000
BENCH_JSON_DIR="$smoke_dir" cargo bench -q -p bench --bench micro -- --host-speed
micro_rate="$(awk -F': ' '/"bytes_per_host_second"/ { gsub(/,/, "", $2); print $2; exit }' \
    "$smoke_dir/BENCH_micro.json")"
if [ -z "$micro_rate" ] || [ "$micro_rate" -lt "$micro_floor" ]; then
    echo "FAIL: micro host speed ${micro_rate:-?} B/hs is below the ${micro_floor} floor"
    exit 1
fi
echo "    micro: ${micro_rate} simulated bytes/host-second (floor ${micro_floor})"

echo "All checks passed."
