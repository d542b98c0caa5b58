#!/usr/bin/env bash
# Perf smoke test: run the engine microbenchmarks, the join-scaling sweep
# (quick mode, ~10x shorter measurement windows), and the fallback-path
# UDF batching bench, so a regression in the zero-copy execution core or
# in batched expensive-UDF execution is one command to spot:
#
#   scripts/bench_smoke.sh            # all benches, quick
#   scripts/bench_smoke.sh hash_join  # only criterion benchmarks matching a filter
#
# These are micro suites for spotting that a fast path stopped engaging
# (their in-bench asserts and printed ratios), not the repo's ruler: a
# before/after comparison is alternating parent/change runs of the
# benchmark in examples/swan_benchmark (BENCHMARK.json), whose
# durable_mixed workload covers the commit/WAL/pager path end to end:
#
#   cargo run --release --quiet --offline \
#       --manifest-path examples/swan_benchmark/Cargo.toml -- --workload all --seconds 15
#
# The udf_fallback table prints model-call
# counts: "per-row fallback" at N heroes and "engine invoke_batch" at
# ceil(N/5) — if the batched row's call count climbs back toward the
# per-row row's, engine batching has regressed.
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER="${1:-}"

run() {
    local bench="$1"
    echo "== $bench (quick) =="
    if [ -n "$FILTER" ]; then
        CRITERION_QUICK=1 cargo bench -p swan-bench --bench "$bench" -- --quick "$FILTER"
    else
        CRITERION_QUICK=1 cargo bench -p swan-bench --bench "$bench" -- --quick
    fi
    echo
}

run engine_micro
run join_scaling

# Columnar vs row execution pairs (filter+project, SUM/GROUP BY, the sf1
# hash join, filtered top-k): each workload prints a _columnar and a _row
# variant; the pairwise ratio is the columnar speedup. Reference ratios
# live in crates/sqlengine/PERF.md ("Columnar execution") — if a
# _columnar row stops beating its _row twin, the kernels have regressed
# or stopped engaging.
run columnar_scan

# Primary-key serving on 1M rows: the point probe prints an _index and a
# _scan variant; the pairwise ratio is the index-scan speedup. The bench
# itself asserts the >=10x point-probe floor and the O(k)-pages
# incremental-checkpoint bound, so a disengaged planner rewrite fails the
# run outright.
# Reference ratios live in crates/sqlengine/PERF.md ("Paged storage").
# Zero-regression floors for the pre-pager engine: the hash_join_sf1
# pair in columnar_scan, the wal_commit batch/checkpoint rows and the
# columnar_scan pairs must hold their PERF.md numbers — the paged store
# must cost the in-memory serving path nothing.
run point_lookup

# WAL durability: commit latency vs transaction batch size (the fsync +
# record framing amortize over the batch), auto-commit baseline,
# checkpoint cost, 10k-row recovery, and the contended group-commit case
# (8 concurrent committers, fsync on — the printed commits-per-fsync
# ratio must stay well above 1.00, one fsync per commit; if it falls
# toward 1.0, the group-commit queue has stopped batching).
# Reference numbers live in crates/sqlengine/PERF.md ("Durability"); if
# the per-row cost of batch_1000 creeps toward batch_1's, commit
# batching has regressed.
run wal_commit

# Row-level conflict detection under contention: 8 committers run
# transactions against ONE table. The disjoint_rows row must print
# **0 conflict aborts** (the false-conflict fix — it also asserts this);
# the same_row control keeps printing a large abort count. Both report
# commits-per-fsync.
run hot_row_contention

# Model-call-count bench (plain table output, no criterion harness): the
# filter argument does not apply here.
echo "== udf_fallback =="
cargo bench -p swan-bench --bench udf_fallback
echo

# Resilience-layer overhead on the no-fault path (plain table output):
# the same fallback workload through a raw model vs a ResilientModel
# wrapper (direct transport, default policies). The printed overhead must
# stay under the 5% envelope recorded in crates/sqlengine/PERF.md; if it
# climbs, resilience bookkeeping has leaked onto the per-call hot path.
echo "== resilience_overhead =="
cargo bench -p swan-bench --bench resilience_overhead
echo
