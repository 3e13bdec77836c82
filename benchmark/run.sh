#!/bin/sh
# Runs the wall-clock benchmark from any directory; arguments are passed
# through (--workload NAME, --seed N, --seconds S, --repeat N, --trace 0|1).
set -eu
cd "$(dirname "$0")"
exec cargo run --release --offline --quiet -- "$@"
