#!/bin/sh
# Non-test lines of Rust under crates/: every crates/**/*.rs, cut at its
# first `#[cfg(test)]` line (unit-test modules sit at the end of a file).
# Prints "<lines> <file>" per file and a total; `-q` prints the total only.
# The line count simplicity PRs report in CHANGES.md comes from here.
set -eu
cd "$(dirname "$0")/.."
find crates -name '*.rs' | LC_ALL=C sort | while read -r file; do
    printf '%s %s\n' "$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")" "$file"
done | awk -v quiet="${1:-}" '
    quiet != "-q" { printf "%7d %s\n", $1, $2 }
    { total += $1 }
    END { if (quiet == "-q") print total; else printf "%7d total\n", total }'
