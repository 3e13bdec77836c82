#!/usr/bin/env bash
# Behaviour fingerprint of the fault matrix: runs
# crates/sim/tests/fault_matrix.rs on the five CI legs
# (seed / adaptive batching) and prints every
# `report-digest <test> <seed> <sha256>` line, sorted. Each digest
# hashes one scenario's full report (client latencies, phase
# histograms, per-replica trace rings), so a change that holds
# behaviour fixed prints the committed golden file exactly:
#
#   scripts/report_digests.sh | diff tests/golden/report_digests.txt -
#
# A change that alters behaviour regenerates the file with
# `scripts/report_digests.sh > tests/golden/report_digests.txt` and
# explains each changed line. CI's fault-matrix legs diff their own
# seed's slice of the file.

set -euo pipefail

cd "$(dirname "$0")/.."

cargo test -q -p ringbft-sim --test fault_matrix --no-run

for leg in 7/0 13/0 19/0 31/0 17/1; do
    IFS=/ read -r seed adaptive <<<"$leg"
    RINGBFT_FAULT_SEED="$seed" RINGBFT_ADAPTIVE_BATCHING="$adaptive" \
        cargo test -q -p ringbft-sim --test fault_matrix -- --nocapture |
        grep -o 'report-digest .*'
done | LC_ALL=C sort
