#!/usr/bin/env bash
# Counts the lines of Rust in the tree, split into non-test and test.
#
# Non-test: files under src/, crates/*/src/, crates/*/benches/, examples/
# and crates/*/examples/, each up to (not including) its first
# `#[cfg(test)]` line, leaving out the exhaustive enumerations
# (*/exhaustive.rs).
# Test: every other line of `find crates src tests examples -name '*.rs'`.
#
# Usage: scripts/loc.sh        (from anywhere inside the repository)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

total=$(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)
nontest=$(
    find src crates/*/src crates/*/benches examples crates/*/examples -name '*.rs' ! -name exhaustive.rs -print0 |
        xargs -0 awk '
            FNR == 1 { in_test = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
            !in_test { n++ }
            END { print n + 0 }'
)
echo "non-test $nontest"
echo "test     $((total - nontest))"
