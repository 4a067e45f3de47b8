#!/bin/sh
# Non-test lines of Rust under crates/: every crates/**/*.rs, cut at the
# first column-0 `#[cfg(test)]` whose next line opens a `mod` (unit-test
# modules sit at the end of a file). Any other `#[cfg(test)]` item, indented
# or not, counts as non-test: gating a helper on tests is not a cut.
# Prints "<lines> <file>" per file and a total; `-q` prints the total only.
# The line count simplicity PRs report in CHANGES.md comes from here.
set -eu
cd "$(dirname "$0")/.."
find crates -name '*.rs' | LC_ALL=C sort | while read -r file; do
    printf '%s %s\n' "$(awk '
        held { held = 0; if ($0 ~ /^(pub(\([a-z]+\))? )?mod /) exit; n++ }
        /^#\[cfg\(test\)\]/ { held = 1; next }
        { n++ }
        END { print n + held }' "$file")" "$file"
done | awk -v quiet="${1:-}" '
    quiet != "-q" { printf "%7d %s\n", $1, $2 }
    { total += $1 }
    END { if (quiet == "-q") print total; else printf "%7d total\n", total }'
