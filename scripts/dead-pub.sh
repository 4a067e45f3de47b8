#!/bin/sh
# Dead public API: every `pub fn` in the non-test code of crates/*/src whose
# name is never used in call syntax in the non-test code of crates/, src/,
# examples/ or benchmark/src. Non-test code is each file cut at its first
# column-0 `#[cfg(test)]` whose next line opens a `mod` (the rule of
# nontest-loc.sh), with `//` comments (doc comments and their doctests
# included) stripped.
#
# A use is the name followed by `(` or `::<` (`.name(`, `name(`, a
# turbofish) or preceded by `::` (`Type::name`, also as a function value),
# never the `fn name` of a definition. Fields, modules and locals of the same
# name therefore do not count. The scan still matches by NAME, not by path:
# a live function of the same name anywhere keeps a dead one off the list,
# and a call written inside a string or macro counts as a use. A function
# passed by its bare name (`.map(name)`) is not seen: allow-list it.
#
# Prints "<file> <name>" per hit. Exits non-zero if a hit is not listed in
# scripts/dead-pub.allow ("<file> <name>  # reason" per line) or if an
# allowlist line names no current hit.
set -eu
cd "$(dirname "$0")/.."
allow=scripts/dead-pub.allow
files=$(find crates src examples benchmark/src -name '*.rs' -not -path '*/tests/*' | LC_ALL=C sort)
# shellcheck disable=SC2086
hits=$(awk '
    FNR == 1 { cut = 0; held = 0 }
    cut { next }
    held {
        held = 0
        if ($0 ~ /^(pub(\([a-z]+\))? )?mod /) { cut = 1; next }
    }
    /^#\[cfg\(test\)\]/ { held = 1; next }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        if (FILENAME ~ /^crates\/[^\/]+\/src\// &&
            match(line, /^[ \t]*pub (const |unsafe |async )*fn [A-Za-z_][A-Za-z0-9_]*/)) {
            def = substr(line, RSTART, RLENGTH)
            sub(/.* fn /, "", def)
            defs[FILENAME " " def] = def
        }
        prev = ""
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            gap = substr(line, 1, RSTART - 1)
            name = substr(line, RSTART, RLENGTH)
            after = substr(line, RSTART + RLENGTH, 3)
            if (!(prev == "fn" && gap ~ /^[ \t]+$/) && (gap ~ /::$/ || after ~ /^(\(|::<)/))
                seen[name]++
            prev = name
            line = substr(line, RSTART + RLENGTH)
        }
    }
    END { for (d in defs) if (!(defs[d] in seen)) print d }
' $files | LC_ALL=C sort)
printf '%s\n' "$hits" | awk -v allow="$allow" '
    BEGIN {
        while ((getline entry < allow) > 0) {
            sub(/#.*/, "", entry)
            if (split(entry, f, " ") >= 2) listed[f[1] " " f[2]] = 1
        }
    }
    NF {
        print
        hit[$0] = 1
        if (!($0 in listed)) new = new "\n  " $0
    }
    END {
        for (k in listed) if (!(k in hit)) stale = stale "\n  " k
        if (new != "") printf "dead public fn not in %s:%s\n", allow, new > "/dev/stderr"
        if (stale != "") printf "stale %s entry (no longer a hit):%s\n", allow, stale > "/dev/stderr"
        exit (new != "" || stale != "")
    }'
