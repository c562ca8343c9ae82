#!/usr/bin/env bash
# Full local gate: release build, tests, and lint with warnings denied.
#
# This is a superset of the CI tier-1 gate (`cargo build --release &&
# cargo test -q`); run it before pushing. `needless_range_loop` is allowed
# workspace-wide: the kernels index multiple parallel slices by design.
#
# Pass `--chaos` to also run the seeded fault-injection suite
# (tests/chaos.rs) with the `faults` feature armed. The seed set is fixed
# in the test itself, so a `--chaos` run is fully reproducible.
#
# Pass `--delta-gate` to also run the incremental-maintenance gate: a 1%
# row delta must re-discover in <= 25% of the cold wall with a
# byte-identical FD set (bench_smoke --delta-gate).
#
# Pass `--server-gate` to also run the serving-layer gate: the concurrent
# smoke suite (tests/server_smoke.rs) under the telemetry feature, the CLI
# argument-contract tests, and an end-to-end `fdtool serve` round trip over
# stdin/stdout.
#
# Pass `--obs-gate` to also run the live observability gate: the
# feature-off "telemetry disabled" pins under --no-default-features, and
# the OBS_GATE live-server round trip (tests/observability.rs spawns a real
# `fdtool serve` on a Unix socket with a 100 ms sampler and checks metrics
# rates, subscribe window sums vs stats, trace root fidelity, the
# Prometheus file, and `fdtool top`).
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_CHAOS=0
RUN_DELTA_GATE=0
RUN_SERVER_GATE=0
RUN_OBS_GATE=0
for arg in "$@"; do
    case "$arg" in
        --chaos) RUN_CHAOS=1 ;;
        --delta-gate) RUN_DELTA_GATE=1 ;;
        --server-gate) RUN_SERVER_GATE=1 ;;
        --obs-gate) RUN_OBS_GATE=1 ;;
        *) echo "unknown option: $arg (supported: --chaos, --delta-gate, --server-gate, --obs-gate)" >&2; exit 2 ;;
    esac
done

cargo build --release
cargo test -q
# Tier-1 only runs the umbrella package; the member crates' unit and
# integration tests (fd-core, fd-relation, eulerfd, fd-server, ...) run here.
cargo test -q --workspace
# Property-based equivalence suite (CSR vs nested-vec partitions, PLI-cache
# transparency, algorithm invariance). Runs as part of `cargo test` too; the
# explicit invocation keeps it visible and fails fast with its own name.
cargo test -q -p fd-relation --test proptests
# Kernel-equivalence gate: the bit-packed agree-set kernel must match the
# scalar reference for arbitrary rows across the 64/128-attribute lane
# boundaries, and work-stealing folds must match the sequential scan.
cargo test -q -p fd-relation --test proptests packed_kernel_matches_scalar_reference
cargo test -q -p fd-relation --test proptests novel_agree_sets_fold_matches_sequential_novelty_scan
# CSV ingest must match a naive reference tokenizer: relation, report,
# and errors with their row numbers.
cargo test -q -p fd-relation --test csv_equivalence
# The bucketed LHS tree must match the linear-scan store at the scale where
# leaves split and merge, and batch inversion must make the decisions of
# the literal per-candidate Algorithm 3 loop at 1, 2 and 3 threads.
cargo test -q -p fd-core --test proptests lhs_tree_matches_naive_oracle_at_split_scale
cargo test -q -p fd-core --test proptests invert_batch_matches_literal_algorithm_3
cargo test -q -p fd-core --lib parallel::
cargo clippy --workspace --all-targets -- -D warnings -A clippy::needless_range_loop

# Multi-core scaling gate: packed-kernel speedup tripwire, byte-identical
# discovery output across worker counts, and (only when the host has >= 2
# cores; auto-skipped on 1-core containers) two 2-worker floors, each the
# median of 9 alternating 1-/2-worker pairs: batch sampling throughput
# 1.2x, and the end-to-end discovery sample phase 1.15x.
cargo run --release -p fd-bench --bin bench_smoke -- \
    --scaling-gate --rows 30000 --repeat 1

# Delta-maintenance gate (opt-in): incremental re-discovery after a 1% row
# delta must cost <= 25% of a cold run and produce the byte-identical FD
# set; 0.1% and 5% points are measured alongside for the curve.
if [ "$RUN_DELTA_GATE" -eq 1 ]; then
    cargo run --release -p fd-bench --bin bench_smoke -- \
        --delta-gate --rows 8000 --repeat 1
fi

# Telemetry schema gate: build the telemetry-on binary, export a real
# metrics file from a real discovery run on the bundled paper example, and
# assert the fd-telemetry/v1 wire format (tests/metrics_schema.rs reads
# METRICS_JSON; no jq dependency).
cargo build --release --features telemetry
METRICS_TMP="$(mktemp /tmp/fdtool-metrics.XXXXXX.json)"
trap 'rm -f "$METRICS_TMP"' EXIT
./target/release/fdtool discover data/patient.csv --metrics-out "$METRICS_TMP" > /dev/null
METRICS_JSON="$METRICS_TMP" cargo test -q --features telemetry --test metrics_schema

# Server gate (opt-in): concurrent Session/Catalog smoke suite with the
# server telemetry counters armed, the CLI exit-code contract, and a live
# `fdtool serve` line-protocol round trip (register via --load, discover,
# delta, stats) driven through a shell pipe like a real client would.
if [ "$RUN_SERVER_GATE" -eq 1 ]; then
    cargo test -q --features telemetry --test server_smoke
    cargo test -q --test cli_args
    SERVE_OUT="$(printf 'discover patient\nstats\nquit\n' | \
        ./target/release/fdtool serve --load patient=data/patient.csv 2>/dev/null)"
    echo "$SERVE_OUT" | head -n1 | grep -q '"ok":true' \
        || { echo "server gate: discover over stdio failed: $SERVE_OUT" >&2; exit 1; }
    echo "$SERVE_OUT" | sed -n '2p' | grep -q '"jobs_completed":1' \
        || { echo "server gate: stats line wrong: $SERVE_OUT" >&2; exit 1; }
    echo "server gate: line protocol round trip OK"
fi

# Observability gate (opt-in): feature-off builds must compile the metrics
# plane away and answer clean "telemetry disabled" errors; then the live
# round trip — a real `fdtool serve` child with a 100 ms sampler, driven
# over its Unix socket — checks the acceptance criteria end to end.
if [ "$RUN_OBS_GATE" -eq 1 ]; then
    cargo test -q --no-default-features --test observability
    OBS_GATE=1 cargo test -q --features telemetry --test observability
    echo "observability gate: live metrics/subscribe/trace round trip OK"
fi

# Chaos gate (opt-in): 200 seeded fault schedules across EulerFD + Tane,
# plus the targeted degradation tests. `faults,telemetry` together so every
# fired fault is also checked against its `faults.fired.<site>` counter.
if [ "$RUN_CHAOS" -eq 1 ]; then
    cargo test -q --features faults,telemetry --test chaos
fi
