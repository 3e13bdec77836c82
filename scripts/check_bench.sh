#!/usr/bin/env bash
# Bench regression gate: regenerates BENCH_ringbft.json into a scratch
# file and compares it against the committed snapshot with bench_check,
# which fails when any protocol loses more than BENCH_TOLERANCE of its
# throughput, grows its p99 by more than BENCH_P99_TOLERANCE, or loses
# (or drops) any `*_ok` flag the committed file holds true — safety and
# liveness of every fault scenario, delta recovery, tracing, pipeline
# scaling and thread budgets, durable restart, serialize-once egress,
# the open-loop knee, and the per-phase timers.
#
# Used by CI; runnable locally:
#   cargo build --release && scripts/check_bench.sh
#
# Environment:
#   BENCH_BASELINE   committed snapshot (default BENCH_ringbft.json)
#   BENCH_OUT        where to write the regenerated snapshot
#                    (default target/bench/BENCH_ringbft.json)
#   BENCH_TOLERANCE  allowed relative throughput loss (default 0.20)
#   BENCH_P99_TOLERANCE  allowed relative p99 latency growth (default 0.50)

set -euo pipefail

BASELINE="${BENCH_BASELINE:-BENCH_ringbft.json}"
OUT="${BENCH_OUT:-target/bench/BENCH_ringbft.json}"

mkdir -p "$(dirname "$OUT")"
cargo run --release -p ringbft-bench --bin bench_json -- "$OUT"
cargo run --release -p ringbft-bench --bin bench_check -- "$BASELINE" "$OUT" \
    --tolerance "${BENCH_TOLERANCE:-0.20}" --p99-tolerance "${BENCH_P99_TOLERANCE:-0.50}"
