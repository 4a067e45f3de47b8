#!/bin/sh
# Alternating parent/change pairs of the repo benchmark driver: the
# procedure behind a wall-clock claim in a BENCH_*.json record.
#
#   scripts/bench-pairs.sh <parent-driver> <change-driver> <workload> <metric> \
#       <pairs> <first-seed> [--smoke] [--out <dir>]
#
# A driver is the binary `cargo build --release --offline --manifest-path
# benchmark/Cargo.toml` leaves at benchmark/target/release/scanshare-benchmark,
# built once in each tree. Pair i runs both drivers at seed first-seed + i - 1,
# one process per run, `--seconds 18 --trace 0`; the parent runs first on odd
# pairs and the change first on even ones. <metric> is an end-to-end metric of
# BENCHMARK.json, whose `better` field decides which side won a pair.
#
# Prints each pair's two values (and whether their model_* numbers are
# identical), each side's median and inclusive quartiles, the pairs the change
# won and the gap between the medians. Then, from the same runs, every other
# end-to-end metric the workload reports (not the placeholder 1 of a metric
# that does not apply): each side's median and the pairs the change won, so
# the no-regression check rests on the runs of the claim. A metric whose change
# median is worse than the parent's by more than its BENCHMARK.json `bound`
# (a fraction of the parent median) is marked BEYOND BOUND. Exits non-zero if a
# run fails, reports "correct": false or reports a failed operation.
# `--smoke` passes `--smoke` to both drivers and runs them for 1 s, which
# keeps this script exercised in CI. `--out <dir>` keeps each run's result
# line as <dir>/<side>-<seed>.json.
set -eu

usage() {
    echo "usage: $0 <parent-driver> <change-driver> <workload> <metric> <pairs> <first-seed> [--smoke] [--out <dir>]" >&2
    exit 2
}
[ $# -ge 6 ] || usage
parent=$1 change=$2 workload=$3 metric=$4 pairs=$5 first_seed=$6
shift 6
smoke= seconds=18 out=
while [ $# -gt 0 ]; do
    case $1 in
        --smoke) smoke=--smoke seconds=1 ;;
        --out) [ $# -ge 2 ] || usage; out=$2; shift ;;
        *) usage ;;
    esac
    shift
done

# The end-to-end metrics of BENCHMARK.json, one "<name> <better> <bound>" per
# line.
end_to_end=$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && match($0, /"name": "[a-z0-9_]+"/) {
        name = substr($0, RSTART + 9, RLENGTH - 10)
        if (!match($0, /"better": "[a-z]+"/)) next
        better = substr($0, RSTART + 11, RLENGTH - 12)
        if (match($0, /"bound": *[0-9.]+/)) print name, better, substr($0, RSTART + 8) + 0
    }' "$(dirname "$0")/../BENCHMARK.json")
better=$(echo "$end_to_end" | awk -v metric="$metric" '$1 == metric { print $2 }')
[ -n "$better" ] || { echo "$metric is not an end-to-end metric of BENCHMARK.json" >&2; exit 2; }
names=$(echo "$end_to_end" | awk '{ printf "%s ", $1 }')

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
if [ -n "$out" ]; then mkdir -p "$out"; else out=$tmp; fi

# run <side> <driver> <seed>: one driver process; its result line lands in
# $out/<side>-<seed>.json and the metric's value is printed.
run() {
    result=$out/$1-$3.json
    if ! "$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 $smoke \
        >"$tmp/stdout" 2>"$tmp/stderr"; then
        cat "$tmp/stderr" >&2
        echo "$1 driver failed at seed $3" >&2
        return 1
    fi
    tail -n 1 "$tmp/stdout" >"$result"
    awk -v metric="$metric" -v side="$1" -v seed="$3" '
        /"correct": *false/ { print side " run at seed " seed " is not correct" > "/dev/stderr"; bad = 1 }
        match($0, /"failed": *[0-9]+/) && substr($0, RSTART + 9) + 0 > 0 {
            print side " run at seed " seed " failed operations" > "/dev/stderr"; bad = 1
        }
        match($0, "\"" metric "\": *\\{\"value\": *[-+0-9.eE]+") {
            value = substr($0, RSTART, RLENGTH); sub(/.*: */, "", value)
        }
        END {
            if (value == "") { print side " run at seed " seed " reports no " metric > "/dev/stderr"; bad = 1 }
            if (bad) exit 1
            print value
        }' "$result"
}

# The model_* entries of a result line, one per line.
models() {
    tr ',' '\n' <"$1" | grep '"model_' || true
}

# "<name> <value>" for each end-to-end metric the result line $1 reports.
values() {
    awk -v names="$names" '{
        n = split(names, name)
        for (i = 1; i <= n; i++)
            if (match($0, "\"" name[i] "\": *\\{\"value\": *[-+0-9.eE]+")) {
                v = substr($0, RSTART, RLENGTH); sub(/.*: */, "", v); print name[i], v
            }
    }' "$1"
}

i=1
while [ "$i" -le "$pairs" ]; do
    seed=$((first_seed + i - 1))
    if [ $((i % 2)) -eq 1 ]; then
        p=$(run parent "$parent" "$seed") && c=$(run change "$change" "$seed") || exit 1
        first=parent
    else
        c=$(run change "$change" "$seed") && p=$(run parent "$parent" "$seed") || exit 1
        first=change
    fi
    if [ "$(models "$out/parent-$seed.json")" = "$(models "$out/change-$seed.json")" ]; then
        same=identical
    else
        same=DIFFERENT
    fi
    echo "pair $i seed $seed ($first first): parent $p change $c; model_* $same"
    values "$out/parent-$seed.json" >"$tmp/parent"
    values "$out/change-$seed.json" >"$tmp/change"
    awk 'NR == FNR { p[$1] = $2; next } $1 in p { print $1, p[$1], $2 }' \
        "$tmp/parent" "$tmp/change" >>"$tmp/pairs"
    i=$((i + 1))
done

echo "$end_to_end" | awk -v metric="$metric" '
    # Inclusive quartile q (0.25, 0.5, 0.75) of the sorted v[1..n].
    function quantile(v, n, q,   h, lo) {
        h = (n - 1) * q + 1; lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function sort(v, n,   i, j, x) {
        for (i = 2; i <= n; i++) {
            x = v[i]
            for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
            v[j + 1] = x
        }
    }
    function summary(side, v, n) {
        printf "%s: median %.6g, q1 %.6g, q3 %.6g\n", side,
            quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75)
    }
    # " BEYOND BOUND" when the change median cm is worse than the parent
    # median pm by more than the bound of metric m.
    function breach(m, pm, cm) {
        if (better[m] == "higher" ? cm < pm * (1 - bound[m]) : cm > pm * (1 + bound[m]))
            return " BEYOND BOUND"
        return ""
    }
    # The pairs of metric m in p[1..n] and c[1..n], sorted, and the wins.
    function load(m,   k) {
        n = pairs[m]; wins = 0; placeholder = 1
        for (k = 1; k <= n; k++) {
            p[k] = pv[m, k]; c[k] = cv[m, k]
            if ((better[m] == "higher" && c[k] > p[k]) || (better[m] == "lower" && c[k] < p[k])) wins++
            if (p[k] != 1 || c[k] != 1) placeholder = 0
        }
        sort(p, n); sort(c, n)
    }
    NR == FNR { better[$1] = $2; bound[$1] = $3; order[++metrics] = $1; next }
    { k = ++pairs[$1]; pv[$1, k] = $2; cv[$1, k] = $3 }
    END {
        load(metric)
        summary("parent", p, n); summary("change", c, n)
        pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
        iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
        printf "%s (%s is better): change won %d of %d pairs; median gap %.6g (x%.4g), parent IQR %.6g%s\n",
            metric, better[metric], wins, n, cm - pm, pm == 0 ? 0 : cm / pm, iqr, breach(metric, pm, cm)
        for (i = 1; i <= metrics; i++) {
            m = order[i]
            if (m == metric || !(m in pairs)) continue
            load(m)
            if (placeholder) continue
            pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
            printf "  %s (%s is better): parent median %.6g, change median %.6g (x%.4g); change won %d of %d pairs%s\n",
                m, better[m], pm, cm, pm == 0 ? 0 : cm / pm, wins, n, breach(m, pm, cm)
        }
    }' - "$tmp/pairs"
