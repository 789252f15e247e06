#!/usr/bin/env bash
# Tier-1 verification plus lint, in one command, fully offline.
#
#   ./ci.sh          # build + test (workspace and perfbench) + clippy
#   ./ci.sh bench    # additionally run the 3 `cargo bench` suites and the 7
#                    # bench bins, with their --check modes (fast knobs)
#
# The workspace has zero external dependencies by design (see README.md), so
# everything runs with --offline; if any step needs the network, that is a
# regression.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

# The benchmark is a package of its own (perfbench/), outside the workspace;
# its tests run with tier-1 so a change to the program cannot break them
# unnoticed.
echo "==> cargo test --release --offline --manifest-path perfbench/Cargo.toml"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --all-targets --offline -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

# Telemetry smoke: a tiny full-telemetry grid run writes a JSONL event
# stream, and `mbfi-monitor --headless` replays it — its verify() step
# exits non-zero unless the accumulated per-cell totals exactly equal the
# authoritative cell_finished / sweep_finished tallies (i.e. the monitor
# agrees with the SweepReport).
echo "==> telemetry smoke: fig1 (MBFI_TELEMETRY=full) | mbfi-monitor --headless"
TELEM_DIR="$(mktemp -d)"
trap 'rm -rf "$TELEM_DIR"' EXIT
MBFI_TELEMETRY=full MBFI_TELEMETRY_OUT="$TELEM_DIR/events.jsonl" \
    MBFI_EXPERIMENTS=10 MBFI_WORKLOADS=qsort cargo run --release --offline -q \
    -p mbfi-bench --bin fig1 -- --out-dir "$TELEM_DIR"
cargo run --release --offline -q -p mbfi-bench --bin mbfi-monitor -- \
    --headless "$TELEM_DIR/events.jsonl" | tee "$TELEM_DIR/monitor.txt"
grep -q "verify: ok" "$TELEM_DIR/monitor.txt"
grep -q "20 experiments" "$TELEM_DIR/monitor.txt"

# Campaign-service smoke: start the daemon on an ephemeral port, submit a
# tiny grid with --compare (exits non-zero unless the served report is
# byte-identical to the in-process Sweep::run of the same cells), then the
# shutdown verb must drain in-flight work and let the daemon exit cleanly.
echo "==> serve smoke: mbfi-serve daemon / submit --compare / shutdown"
SERVE_DIR="$(mktemp -d)"
trap 'rm -rf "$TELEM_DIR" "$SERVE_DIR"' EXIT
MBFI_SERVE_PORT=0 cargo run --release --offline -q -p mbfi-serve \
    --bin mbfi-serve -- daemon --addr-file "$SERVE_DIR/addr" \
    > "$SERVE_DIR/daemon.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 100); do [[ -s "$SERVE_DIR/addr" ]] && break; sleep 0.1; done
[[ -s "$SERVE_DIR/addr" ]] || { echo "daemon never wrote its address"; exit 1; }
SERVE_ADDR="$(cat "$SERVE_DIR/addr")"
MBFI_EXPERIMENTS=10 cargo run --release --offline -q -p mbfi-serve \
    --bin mbfi-serve -- submit --connect "$SERVE_ADDR" \
    --workloads qsort,CRC32 --experiments 10 --compare --quiet \
    | tee "$SERVE_DIR/submit.txt"
grep -q "byte-identical" "$SERVE_DIR/submit.txt"
cargo run --release --offline -q -p mbfi-serve \
    --bin mbfi-serve -- shutdown --connect "$SERVE_ADDR"
wait "$SERVE_PID"
grep -q "drained and stopped" "$SERVE_DIR/daemon.log"

if [[ "${1:-}" == "bench" ]]; then
    # Smoke-run the plain-Rust bench harnesses; each writes BENCH_<suite>.json.
    export MBFI_BENCH_SAMPLES="${MBFI_BENCH_SAMPLES:-3}"
    export MBFI_BENCH_ITERS="${MBFI_BENCH_ITERS:-1}"
    export MBFI_BENCH_OUT="${MBFI_BENCH_OUT:-.}"
    for suite in campaigns injector workloads; do
        echo "==> cargo bench -p mbfi-bench --bench $suite"
        cargo bench --offline -p mbfi-bench --bench "$suite"
    done

    # Snapshot & replay engine: first the self-verifying mode (exits non-zero
    # if any replayed experiment differs from full re-execution), then a tiny
    # timing run that writes BENCH_replay.json.
    echo "==> cargo run --release -p mbfi-bench --bin replay_bench -- --check"
    MBFI_EXPERIMENTS=8 cargo run --release --offline -q -p mbfi-bench \
        --bin replay_bench -- --check --out-dir "$MBFI_BENCH_OUT"
    echo "==> cargo run --release -p mbfi-bench --bin replay_bench"
    MBFI_EXPERIMENTS=16 MBFI_BENCH_SAMPLES=3 cargo run --release --offline -q \
        -p mbfi-bench --bin replay_bench -- --out-dir "$MBFI_BENCH_OUT"

    # Compiled pipeline vs legacy walker: golden-run MIPS and campaign
    # experiments/sec on both paths, written to BENCH_exec.json (the run also
    # cross-checks that both paths produce identical results).
    echo "==> cargo run --release -p mbfi-bench --bin exec_bench"
    MBFI_EXPERIMENTS=16 MBFI_BENCH_SAMPLES=3 cargo run --release --offline -q \
        -p mbfi-bench --bin exec_bench -- --out-dir "$MBFI_BENCH_OUT"

    # Whole-grid sweep engine: first the self-verifying mode (every sweep
    # cell compared byte-for-byte against the serial per-campaign runner on a
    # 2-workload sub-grid, at sweep thread counts 1 and 4), then a small
    # timing run that writes BENCH_sweep.json.
    echo "==> cargo run --release -p mbfi-bench --bin sweep_bench -- --check"
    cargo run --release --offline -q -p mbfi-bench \
        --bin sweep_bench -- --check
    echo "==> cargo run --release -p mbfi-bench --bin sweep_bench"
    MBFI_EXPERIMENTS=10 MBFI_WORKLOADS=qsort,histo,CRC32 cargo run --release \
        --offline -q -p mbfi-bench --bin sweep_bench -- --out-dir "$MBFI_BENCH_OUT"

    # Adaptive precision-targeted sampling: first the self-verifying mode
    # (adaptive grid byte-identical at sweep thread counts 1, 4 and 8, and
    # every stopped cell meets the half-width target or spent its whole
    # budget), then a small timing run that writes BENCH_adaptive.json with
    # the experiments-saved and wall-clock ratios vs fixed-n at equal
    # realized precision.
    echo "==> cargo run --release -p mbfi-bench --bin adaptive_bench -- --check"
    cargo run --release --offline -q -p mbfi-bench \
        --bin adaptive_bench -- --check
    echo "==> cargo run --release -p mbfi-bench --bin adaptive_bench"
    MBFI_PRECISION=5,40 MBFI_WORKLOADS=qsort,sad cargo run --release \
        --offline -q -p mbfi-bench --bin adaptive_bench -- --out-dir "$MBFI_BENCH_OUT"

    # Copy-on-write snapshot forking: first the self-verifying mode (the
    # dirty-chunk accounting of the CoW memory cross-checked against its
    # deep-copy reference; campaign-level byte equivalence is
    # tests/snapshot_equivalence.rs), then a small timing run that writes
    # BENCH_snapshot.json with the uniform-grid CoW + replay vs
    # re-execution exp/s ratio.
    echo "==> cargo run --release -p mbfi-bench --bin snapshot_bench -- --check"
    cargo run --release --offline -q -p mbfi-bench \
        --bin snapshot_bench -- --check
    echo "==> cargo run --release -p mbfi-bench --bin snapshot_bench"
    MBFI_EXPERIMENTS=16 cargo run --release --offline -q -p mbfi-bench \
        --bin snapshot_bench -- --out-dir "$MBFI_BENCH_OUT"

    # Telemetry plane: first the self-verifying mode (telemetered sweeps
    # byte-identical to telemetry-off at thread counts 1, 4 and 8; hub
    # snapshot and replayed JSONL monitor totals equal to the SweepReport),
    # then a small timing run that writes BENCH_telemetry.json with the
    # off/counters/full overhead comparison.
    echo "==> cargo run --release -p mbfi-bench --bin telemetry_bench -- --check"
    cargo run --release --offline -q -p mbfi-bench \
        --bin telemetry_bench -- --check
    echo "==> cargo run --release -p mbfi-bench --bin telemetry_bench"
    cargo run --release --offline -q -p mbfi-bench \
        --bin telemetry_bench -- --out-dir "$MBFI_BENCH_OUT"

    # Campaign service: first the self-verifying mode (two concurrent
    # overlapping clients at engine thread counts 1, 4 and 8: served
    # reports byte-identical to in-process Sweep::run, shared cells
    # deduplicated onto exactly one execution, and equal-priority tenants
    # finish within a bounded latency spread), then a small timing run
    # that writes BENCH_serve.json with the N-concurrent-clients vs
    # N-serial-grids and all-cells-shared dedupe comparisons.
    echo "==> cargo run --release -p mbfi-bench --bin serve_bench -- --check"
    cargo run --release --offline -q -p mbfi-bench \
        --bin serve_bench -- --check
    echo "==> cargo run --release -p mbfi-bench --bin serve_bench"
    MBFI_EXPERIMENTS=16 MBFI_WORKLOADS=qsort,histo,CRC32,sha cargo run \
        --release --offline -q -p mbfi-bench --bin serve_bench -- \
        --out-dir "$MBFI_BENCH_OUT"
fi

echo "==> OK"
