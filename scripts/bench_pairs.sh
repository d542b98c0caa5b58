#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload — the protocol
# a claimed gain is measured by (ROADMAP "Process facts"; the table in a
# perf PR's CHANGES.md entry is this script's output).
#
#   scripts/bench_pairs.sh <parent-binary> <change-binary> <workload> [pairs=10] [seed=7]
#
# The two binaries are `swan_benchmark` built from the parent commit and
# from the change, each with its own target directory:
#
#   CARGO_TARGET_DIR=<dir> cargo build --release --offline \
#       --manifest-path examples/swan_benchmark/Cargo.toml
#
# Each pair runs both at `--seconds 15 --trace 0`, one after the other;
# which side goes first alternates from pair to pair. This drives the one
# harness and parses its `<workload> <metric> <value> <unit>` lines — it
# measures nothing itself. Printed per end-to-end metric: each side's
# median and quartiles, how many pairs each side won (ties count for
# neither; which direction wins is read from BENCHMARK.json), and whether
# the medians are further apart than the parent's inter-quartile spread.
# Everything that is not a time or a size must repeat exactly across all
# runs of both sides.
#
# Exits non-zero when a run fails one of the benchmark's own checks or a
# count differs. The benchmark leaves `.bench_tmp/` in the working
# directory while it runs.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=${4:-10} seed=${5:-7}
manifest="$(dirname "$0")/../BENCHMARK.json"
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

failed=0
run_side() { # <side> <binary> <pair>
    local out
    if ! out=$("$2" --workload "$workload" --seed "$seed" --seconds 15 --trace 0); then
        echo "# pair $3: the $1 run failed a check" >&2
        printf '%s\n' "$out" | grep 'FAILED CHECK' >&2 || true
        failed=1
    fi
    printf '%s\n' "$out" | awk -v side="$1" -v pair="$3" -v w="$workload" \
        '$1 == w && NF == 4 { print side, pair, $2, $3, $4 }' >>"$runs"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "$parent" "$pair"
        run_side change "$change" "$pair"
    else
        run_side change "$change" "$pair"
        run_side parent "$parent" "$pair"
    fi
    echo "# pair $pair of $pairs done" >&2
done

echo "# $workload, $pairs alternating pairs, seed $seed, --seconds 15 --trace 0"
echo "# metric unit | parent q1 median q3 | change q1 median q3 | change/parent | change-wins parent-wins | medians apart by more than the parent's IQR"
awk -v manifest="$manifest" '
function quantile(v, n, q,    pos, lo, frac) {
    pos = (n - 1) * q; lo = int(pos); frac = pos - lo
    return lo + 1 < n ? v[lo + 1] + frac * (v[lo + 2] - v[lo + 1]) : v[n]
}
function sorted(metric, side, out,    n, i, j, t) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((side, i, metric) in value) out[++n] = value[side, i, metric]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && out[j - 1] > out[j]; j--) {
        t = out[j]; out[j] = out[j - 1]; out[j - 1] = t
    }
    return n
}
BEGIN {
    # Which direction is better, from the end_to_end block of BENCHMARK.json.
    while ((getline line < manifest) > 0) {
        if (line ~ /"end_to_end"/) on = 1
        else if (on && line ~ /^ *\]/) on = 0
        else if (on && match(line, /"name": "[^"]+"/)) {
            name = substr(line, RSTART + 9, RLENGTH - 10)
            higher[name] = line ~ /"better": "higher"/
        }
    }
}
{
    value[$1, $2, $3] = $4; unit[$3] = $5
    if ($2 > pairs) pairs = $2
    if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 }
}
END {
    bad = 0
    for (m = 1; m <= metrics; m++) {
        name = order[m]; u = unit[name]
        if (u != "s" && u != "ms" && u != "MiB") {
            first = ""; same = 1
            for (key in value) {
                split(key, k, SUBSEP)
                if (k[3] != name) continue
                if (first == "") first = value[key]
                else if (value[key] != first) same = 0
            }
            printf "%s %s | %s\n", name, u, same ? "repeats exactly: " first : "DIFFERS between runs"
            bad += !same
            continue
        }
        np = sorted(name, "parent", p); nc = sorted(name, "change", c)
        if (np == 0 || nc == 0) { printf "%s %s | missing from a side\n", name, u; bad++; continue }
        cw = pw = 0
        for (i = 1; i <= pairs; i++) {
            if (!(("parent", i, name) in value) || !(("change", i, name) in value)) continue
            d = value["change", i, name] - value["parent", i, name]
            if (higher[name]) d = -d
            if (d < 0) cw++; else if (d > 0) pw++
        }
        pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
        iqr = quantile(p, np, 0.75) - quantile(p, np, 0.25)
        gap = cm - pm; if (gap < 0) gap = -gap
        printf "%s %s | %.4g %.4g %.4g | %.4g %.4g %.4g | %.3f | %d %d | %s\n", name, u,
            quantile(p, np, 0.25), pm, quantile(p, np, 0.75),
            quantile(c, nc, 0.25), cm, quantile(c, nc, 0.75),
            (pm != 0 ? cm / pm : 0), cw, pw, (gap > iqr ? "yes" : "no")
    }
    exit bad > 0
}' "$runs" || failed=1

if [ "$failed" -ne 0 ]; then
    echo "# FAILED: a run failed a check or a count differed" >&2
    exit 1
fi
