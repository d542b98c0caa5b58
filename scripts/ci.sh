#!/usr/bin/env bash
# CI gate: tier-1 verification plus a lock-order-validated release pass
# of the whole workspace suite.
#
#   scripts/ci.sh            # full gate
#   SWAN_SEED=12345 scripts/ci.sh   # replay a failing property stream
#
# Stages:
#   0. swan-analyze: the workspace seam lints (ANALYSIS.md) — raw
#      std::fs/clock/thread use outside the Vfs/Clock/pool seams,
#      panic-family calls on commit/recovery paths, undocumented
#      `unsafe`, unranked locks, the log handle or commit framing
#      named outside wal.rs/txn.rs/shared.rs (a second durable handle
#      growing back), and the pool's fan-out entry points or a thread
#      count resolution named anywhere in the engine (an operator loop
#      leaving the statement thread, or a gate for one growing back).
#      Any finding fails the gate before a single test runs. Then the
#      ROADMAP item-8 running figure:
#      the non-test line count of crates/sqlengine/src (the lines above
#      each file's `#[cfg(test)]`), printed, not gated;
#   1. tier-1: release build + workspace test suite (ROADMAP contract),
#      then a compile of every swan-bench bench (`harness = false`
#      targets that `cargo test` skips) and the frozen benchmark's smoke
#      run (examples/swan_benchmark is a package of its own that tier-1
#      does not compile): a public-API deletion that breaks either must
#      fail here, not in the bench pipeline. The workspace suite is every
#      harness there is — shared_db_stress, row_conflicts, wal_recovery,
#      crash_sim, slt, prop_codec, write_path, config_diff,
#      morsel_dispatch, concurrency, llm_fault_sim, the udf / hqdl
#      transcripts — and a debug build runs the lock-order validator by
#      default, so no stage below names one of them again: a stage exists
#      only for an environment this one does not cover;
#   2. one release-build workspace test pass with SWAN_LOCKDEP=1: the
#      runtime lock-order validator (rank inversions + order cycles,
#      normally debug-only) active under the optimized build's real
#      interleavings — concurrent sessions, group commit, the in-place
#      write path's copy-on-write under the table-writer lock, and
#      `udf_store`, taken from every session's statement thread.
#
# Not a stage: scripts/bench_pairs.sh <parent-binary> <change-binary>
# <workload> — the alternating parent/change pairs a claimed gain is
# measured by. It needs the benchmark built from two commits, so it runs
# by hand, and its output is the table in the PR's CHANGES.md entry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== swan-analyze: workspace seam lints =="
cargo run -q -p swan-analyze -- --workspace

echo "== crates/sqlengine/src: non-test lines (ROADMAP item 8) =="
for f in crates/sqlengine/src/*.rs; do
    printf '%6d %s\n' "$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")" "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: workspace tests =="
cargo test --workspace -q

echo "== tier-1: every swan-bench bench compiles =="
cargo bench -p swan-bench --no-run

echo "== benchmark smoke: examples/swan_benchmark builds and runs =="
# The benchmark refuses to run under any SWAN_* variable (e.g. a replayed
# SWAN_SEED): they change the engine defaults it measures.
env -u SWAN_SEED cargo run --release --quiet --offline \
    --manifest-path examples/swan_benchmark/Cargo.toml -- --workload all --quick

echo "== workspace tests @ SWAN_LOCKDEP=1 (release, lock-order validated) =="
SWAN_LOCKDEP=1 cargo test --workspace -q --release

echo "CI gate passed."
