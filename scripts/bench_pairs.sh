#!/usr/bin/env bash
# Alternating parent/change pairs of benchmark workloads — the protocol
# a claimed gain is measured by (ROADMAP "Process facts").
#
#   scripts/bench_pairs.sh <parent-binary> <change-binary> <workloads> [pairs=10] [seed=7]
#       [--json <file> --parent-rev <rev> --change-rev <rev>]
#
# <workloads> is one workload, a comma-separated list of them, or `all`
# (every workload BENCHMARK.json declares, in its order). Each workload
# gets its own pairs and its own table, one after the other.
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
# `--json <file>` also records the invocation as one entry of the
# `runs` list in <file> (created if absent, appended to otherwise): the
# two revisions (`--parent-rev` / `--change-rev`: a commit id, or words
# for a change not yet committed), the seed, the run length (`--seconds`)
# and the pair count, and per workload each side's `# host` line and, per metric, the
# unit, both sides' raw values in pair order, quartiles, wins each way and
# the "apart" verdict — or, for a count, its one value. A PR's
# CHANGES.md entry cites that file instead of pasting the tables.
#
# With `--json`, a `--parent-rev` equal to `--change-rev` makes the
# invocation an A/A control: the two binaries must be two builds of that
# one source (two target directories, so two separate builds — not one
# file twice), and whatever separates them is the run-to-run and
# build-to-build spread a claim must beat. The tables say so, and the
# run is marked `"control": true`.
#
# Exits non-zero when a run fails one of the benchmark's own checks or a
# count differs, on any workload. The benchmark leaves `.bench_tmp/` in
# the working directory while it runs.
set -euo pipefail

seconds=15 json="" parent_rev="" change_rev=""
args=()
while [ $# -gt 0 ]; do
    case $1 in
        --json) json=${2:?--json needs a file}; shift 2 ;;
        --parent-rev) parent_rev=${2:?--parent-rev needs a revision}; shift 2 ;;
        --change-rev) change_rev=${2:?--change-rev needs a revision}; shift 2 ;;
        *) args+=("$1"); shift ;;
    esac
done
if [ ${#args[@]} -lt 3 ] || { [ -n "$json" ] && { [ -z "$parent_rev" ] || [ -z "$change_rev" ]; }; }; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
fi
parent=${args[0]} change=${args[1]} workloads=${args[2]} pairs=${args[3]:-10} seed=${args[4]:-7}
control=false
if [ -n "$json" ] && [ "$parent_rev" = "$change_rev" ]; then
    control=true
fi
if $control && [ "$parent" -ef "$change" ]; then
    echo "an A/A control pairs two builds of one source: $parent and $change are one file" >&2
    exit 2
fi
manifest="$(dirname "$0")/../BENCHMARK.json"
if [ "$workloads" = all ]; then
    workloads=$(awk '
        /"workloads"/ { on = 1; next }
        on && /^ *\]/ { exit }
        on && match($0, /"name": "[^"]+"/) { print substr($0, RSTART + 9, RLENGTH - 10) }
    ' "$manifest" | paste -sd, -)
fi
runs=$(mktemp) hosts=$(mktemp) parts=$(mktemp)
trap 'rm -f "$runs" "$hosts" "$parts"' EXIT

failed=0
run_side() { # <side> <binary> <pair> <workload>
    local out
    if ! out=$("$2" --workload "$4" --seed "$seed" --seconds "$seconds" --trace 0); then
        echo "# pair $3: the $1 run failed a check" >&2
        printf '%s\n' "$out" | grep 'FAILED CHECK' >&2 || true
        failed=1
    fi
    printf '%s\n' "$out" | awk -v side="$1" -v pair="$3" -v w="$4" \
        '$1 == w && NF == 4 { print side, pair, $2, $3, $4 }' >>"$runs"
    if [ "$3" -eq 1 ]; then
        printf '%s\n' "$out" | sed -n "s/^# host /$1 /p" >>"$hosts"
    fi
}

table() { # <workload>
    local workload=$1
    : >"$runs"
    : >"$hosts"
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then
            run_side parent "$parent" "$pair" "$workload"
            run_side change "$change" "$pair" "$workload"
        else
            run_side change "$change" "$pair" "$workload"
            run_side parent "$parent" "$pair" "$workload"
        fi
        echo "# pair $pair of $pairs done" >&2
    done

    echo "# $workload, $pairs alternating pairs, seed $seed, --seconds $seconds --trace 0"
    if $control; then
        echo "# A/A control: parent and change are two builds of one source"
    fi
    echo "# metric unit | parent q1 median q3 | change q1 median q3 | change/parent | change-wins parent-wins | medians apart by more than the parent's IQR"
    local sep=""
    [ -s "$parts" ] && sep=","
    awk -v manifest="$manifest" -v hosts="$hosts" -v workload="$workload" \
        -v part="$parts" -v json="$json" -v sep="$sep" '
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
function raw(metric, side,    i, s) { # the side values in pair order, as a JSON list
    s = ""
    for (i = 1; i <= pairs; i++)
        s = s (s == "" ? "" : ", ") (((side, i, metric) in value) ? value[side, i, metric] : "null")
    return "[" s "]"
}
function entry(s) { entries = entries (entries == "" ? "" : ",\n") "        " s }
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
    while ((getline line < hosts) > 0) {
        side = substr(line, 1, index(line, " ") - 1)
        host[side] = substr(line, index(line, " ") + 1)
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
            entry(sprintf("\"%s\": {\"unit\": \"%s\", \"repeats\": %s, %s}", name, u,
                same ? "true" : "false",
                same ? "\"value\": " first : "\"parent\": " raw(name, "parent") ", \"change\": " raw(name, "change")))
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
        pq1 = quantile(p, np, 0.25); pm = quantile(p, np, 0.5); pq3 = quantile(p, np, 0.75)
        cq1 = quantile(c, nc, 0.25); cm = quantile(c, nc, 0.5); cq3 = quantile(c, nc, 0.75)
        gap = cm - pm; if (gap < 0) gap = -gap
        apart = gap > pq3 - pq1 ? "yes" : "no"
        ratio = pm != 0 ? cm / pm : 0
        printf "%s %s | %.4g %.4g %.4g | %.4g %.4g %.4g | %.3f | %d %d | %s\n", name, u,
            pq1, pm, pq3, cq1, cm, cq3, ratio, cw, pw, apart
        entry(sprintf("\"%s\": {\"unit\": \"%s\", \"better\": \"%s\", \"parent\": %s, \"change\": %s, " \
            "\"parent_quartiles\": [%.6g, %.6g, %.6g], \"change_quartiles\": [%.6g, %.6g, %.6g], " \
            "\"change_over_parent\": %.4f, \"change_wins\": %d, \"parent_wins\": %d, \"apart\": %s}",
            name, u, higher[name] ? "higher" : "lower", raw(name, "parent"), raw(name, "change"),
            pq1, pm, pq3, cq1, cm, cq3, ratio, cw, pw, apart == "yes" ? "true" : "false"))
    }
    if (json != "") {
        printf "%s    \"%s\": {\n      \"host\": {\"parent\": %s, \"change\": %s},\n      \"metrics\": {\n%s\n      }\n    }",
            sep == "" ? "" : ",\n", workload,
            "parent" in host ? host["parent"] : "null", "change" in host ? host["change"] : "null",
            entries >>part
    }
    exit bad > 0
}' "$runs" || failed=1
}

first=1
IFS=, read -r -a names <<<"$workloads"
for workload in "${names[@]}"; do
    [ "$first" -eq 1 ] || echo
    first=0
    table "$workload"
done

if [ -n "$json" ]; then
    run=$(printf '  {\n    "parent": "%s",\n    "change": "%s",\n    "control": %s,\n    "seed": %s,\n    "seconds": %s,\n    "pairs": %s,\n    "workloads": {\n%s\n    }\n  }' \
        "$parent_rev" "$change_rev" "$control" "$seed" "$seconds" "$pairs" "$(cat "$parts")")
    if [ -s "$json" ]; then
        # Append to the `runs` list: drop the closing `]}` and add this run.
        { sed '$d' "$json" | sed '$d'; printf '  },\n%s\n]}\n' "$run"; } >"$json.tmp"
    else
        printf '{"runs": [\n%s\n]}\n' "$run" >"$json.tmp"
    fi
    mv "$json.tmp" "$json"
fi

if [ "$failed" -ne 0 ]; then
    echo "# FAILED: a run failed a check or a count differed" >&2
    exit 1
fi
