#!/usr/bin/env bash
# Behaviour fingerprint of the fault matrix: runs
# crates/sim/tests/fault_matrix.rs on the five CI legs
# (seed / pipeline workers / adaptive batching) and prints every
# `report-digest <test> <seed> <sha256>` line, sorted. Each digest
# hashes one scenario's full report (client latencies, phase
# histograms, per-replica trace rings) minus wall-clock worker times,
# so a refactor that holds behaviour fixed prints identical output:
#
#   scripts/report_digests.sh > after.txt
#   (cd <parent checkout> && scripts/report_digests.sh) > before.txt
#   diff before.txt after.txt

set -euo pipefail

cd "$(dirname "$0")/.."

cargo test -q -p ringbft-sim --test fault_matrix --no-run

for leg in 7/0/0 13/2/0 19/4/0 31/0/0 17/2/1; do
    IFS=/ read -r seed workers adaptive <<<"$leg"
    RINGBFT_FAULT_SEED="$seed" RINGBFT_PIPELINE_WORKERS="$workers" \
        RINGBFT_ADAPTIVE_BATCHING="$adaptive" \
        cargo test -q -p ringbft-sim --test fault_matrix -- --nocapture |
        grep -o 'report-digest .*'
done | sort
