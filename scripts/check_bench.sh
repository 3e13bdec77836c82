#!/usr/bin/env bash
# Bench regression gate: regenerates BENCH_ringbft.json into a scratch
# file and compares it against the committed snapshot with bench_check,
# which fails when any protocol loses more than 20 % of its simulated
# throughput, grows its p99 by more than 50 %, or loses (or drops) any
# `*_ok` flag the committed file holds true — safety and liveness of
# every fault scenario, delta recovery, tracing, modeled pipeline
# scaling, durable restart, the open-loop knee, and the per-phase
# timers. Every value is simulated; the runtime's own invariants are
# asserted by crates/net/tests.
#
# Used by CI; runnable locally:
#   cargo build --release && scripts/check_bench.sh
#
# Environment:
#   BENCH_BASELINE   committed snapshot (default BENCH_ringbft.json)
#   BENCH_OUT        where to write the regenerated snapshot
#                    (default target/bench/BENCH_ringbft.json)

set -euo pipefail

BASELINE="${BENCH_BASELINE:-BENCH_ringbft.json}"
OUT="${BENCH_OUT:-target/bench/BENCH_ringbft.json}"

mkdir -p "$(dirname "$OUT")"
cargo run --release -p ringbft-bench --bin bench_json -- "$OUT"
cargo run --release -p ringbft-bench --bin bench_check -- "$BASELINE" "$OUT"
