#!/usr/bin/env bash
# Non-test lines of code per crate: for every `src/**/*.rs` file of each
# crate under crates/, the lines before the file's first `#[cfg(test)]`
# (the whole file when it has none). Integration tests, benches and
# examples live outside `src/` and are not counted. This is the measure
# a refactor reports before and after. Prints every crate, then the total.

set -euo pipefail

cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=$(find "$dir/src" -name '*.rs' -print0 | LC_ALL=C sort -z |
        xargs -0 awk '
            FNR == 1 { counting = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
