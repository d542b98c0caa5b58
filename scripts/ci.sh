#!/usr/bin/env bash
# CI gate: tier-1 verification plus the whole workspace suite across the
# thread matrix.
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
#      count resolution (`swan_pool::configured_threads`,
#      `effective_threads`) named in the engine outside exec_parallel.rs
#      (an operator growing its own fan-out, or the optimizer or an
#      operator growing its own fan-out gate). Any finding fails the gate
#      before a single test runs. Then the ROADMAP item-8 running figure:
#      the non-test line count of crates/sqlengine/src (the lines above
#      each file's `#[cfg(test)]`), printed, not gated;
#   1. tier-1: release build + workspace test suite (ROADMAP contract),
#      then a compile of every swan-bench bench (`harness = false`
#      targets that `cargo test` skips) and the frozen benchmark's smoke
#      run (examples/swan_benchmark is a package of its own that tier-1
#      does not compile): a public-API deletion that breaks either must
#      fail here, not in the bench pipeline. The workspace suite is every
#      harness there is — shared_db_stress, row_conflicts, wal_recovery,
#      crash_sim, slt, prop_codec, write_path, parallel_diff,
#      morsel_dispatch, concurrency, llm_fault_sim, the udf / hqdl
#      transcripts — and a debug build runs the lock-order validator by
#      default, so no stage below names one of them again: a stage exists
#      only for an environment this one does not cover;
#   2. the workspace suite again with SWAN_THREADS=1, 2 and 8 — there is
#      one executor, and the env var drives every default-config
#      statement's operator loops — the *same* loops — through inline,
#      2-way and 8-way dispatch, so a test that assumes a plan shape
#      cannot hide behind the host's core count (this includes the
#      parallel_diff differential harness at both ends of the matrix,
#      on top of its own per-test thread configs);
#   3. one release-build workspace test pass with SWAN_LOCKDEP=1: the
#      runtime lock-order validator (rank inversions + order cycles,
#      normally debug-only) active under the optimized build's real
#      interleavings — the subquery single-flight cells filled on morsel
#      workers, the in-place write path's copy-on-write under the
#      table-writer lock, and `udf_store`, taken from pool workers during
#      fan-out as well as from statement threads.
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

for t in 1 2 8; do
    echo "== workspace tests @ SWAN_THREADS=$t =="
    SWAN_THREADS=$t cargo test --workspace -q
done

echo "== workspace tests @ SWAN_LOCKDEP=1 (release, lock-order validated) =="
SWAN_LOCKDEP=1 cargo test --workspace -q --release

echo "CI gate passed."
