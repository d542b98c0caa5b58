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
#      fail here, not in the bench pipeline;
#   2. the workspace suite again with SWAN_THREADS=1, 2 and 8 — there is
#      one executor, and the env var drives every default-config
#      statement's operator loops — the *same* loops — through inline,
#      2-way and 8-way dispatch, so a test that assumes a plan shape
#      cannot hide behind the host's core count (this includes the
#      parallel_diff differential harness at both ends of the matrix,
#      on top of its own per-test thread configs);
#   3. the SharedDb concurrency stress suite (multi-statement
#      transaction conflict/retry, torn-commit visibility, MVCC
#      history GC) and the row-level conflict regression suite
#      (disjoint-PK transactions must not abort), both under
#      SWAN_LOCKDEP=1, plus the cross-session llm_map single-flight test
#      (tests/concurrency.rs: eight sessions share one `llm_map`, whose
#      answers and in-flight fetches sit in one map behind one ranked
#      lock, `udf_store` — a batch reserves its keys under it, waiters
#      park on the batch's one flight outside it).
#      The write path these drive is the in-place patch: every UPDATE /
#      DELETE, every rebase and every replayed row patch replaces or
#      removes rows at their slots and carries the table's PK index,
#      ordered permutation and column vectors into the next version;
#   4. the WAL crash-recovery harness, all of it on SharedDb — the only
#      handle that opens a log (torn-tail truncation sweep at every byte
#      offset of the final commit record group, durable Session
#      transactions and script spans, auto-checkpoint compaction, and
#      the fixture written by the removed Database::open handle). Replay
#      patches the recovering catalog's own tables through the same
#      `apply_row_patch` the commit path installed them with, so the
#      recovered table must still be byte-identical, row order included;
#   5. the crash-simulation harness (crates/sqlengine/tests/crash_sim.rs):
#      a fault — transient error or crash with a configurable torn write —
#      injected at EVERY SimFs operation index of the commit, checkpoint,
#      concurrent group-commit and recovery schedules (plus the two-fault
#      dir-sync-fails-then-crash schedule), asserting recovery is always
#      a clean prefix of acknowledged commits. The serial schedules run
#      through the group-commit leader too (batches of one): there is no
#      other commit path to sweep;
#   6. the golden SQL suite (tests/slt/*.slt), each file executed on the
#      serial and the 8-thread engine, with primary-key index scans and
#      with the scan-only planner, on the columnar kernels and on the
#      bit-for-bit row fallback, with byte-identical output. index_scan
#      on/off also crosses the build-once subquery path (a correlated
#      scalar aggregate grouped once and hash-probed) with the per-row
#      path, so the hand-written goldens pin build-once == per-row;
#   7. the LLM fault-sweep harness (tests/llm_fault_sim.rs): every
#      ModelFault kind injected at every call index of a fixed workload,
#      serial and 8-thread-parallel and concurrent-session single-flight,
#      on a virtual clock — no hangs, failed calls never cached, retries
#      respect the statement deadline, breaker transitions match the
#      fault script, and an absorbed fault leaves `UdfStats` (keys
#      fetched, store hits, fallback calls) exactly where a clean run
#      leaves them;
#   8. one release-build workspace test pass with SWAN_LOCKDEP=1: the
#      runtime lock-order validator (rank inversions + order cycles,
#      normally debug-only) active under the optimized build's real
#      interleavings. Before it, by name, the subquery single-flight /
#      work-count test and the nested-subquery regression at 1, 2 and 8
#      threads: the keyed build runs inside a OnceLock cell on a morsel
#      worker and may itself fan out, and the validator must see that.
#      Likewise the subquery-in-ON LEFT JOIN regression (a subquery
#      evaluated on a pool worker dispatches its own SELECT inline,
#      nested inside that cell) and the cancel-cadence test (the token
#      fires inside a worker's morsel while its siblings hold theirs).
#      And the write path's two: the snapshot-isolation / sharing test
#      (a column vector is copied-on-write under the table-writer lock
#      while readers hold the previous `Arc`s) and the zero-row-commit
#      regression (a statement that matched nothing takes the table lock
#      and must release it having touched neither catalog nor log).
#      And the UDF pathway's three: `udf_store` is its only lock and is
#      taken from pool workers during fan-out as well as from statement
#      threads, so the validator watches the panic-strand regression (a
#      reservation's drop guard takes it while unwinding), the pinned
#      transcript (every pass of a batch) and tests/concurrency.rs (eight
#      sessions reserving, waiting and retiring at once).
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

echo "== SharedDb concurrency + transaction stress (lock-order validated) =="
SWAN_LOCKDEP=1 cargo test -q -p swan-sqlengine --test shared_db_stress

echo "== row-level conflict regression suite (lock-order validated) =="
SWAN_LOCKDEP=1 cargo test -q -p swan-sqlengine --test row_conflicts

echo "== WAL crash-recovery harness =="
cargo test -q -p swan-sqlengine --test wal_recovery

echo "== crash-simulation harness (SimFs fault sweep) =="
cargo test -q -p swan-sqlengine --test crash_sim

echo "== golden SQL suite @ 1 and 8 threads, index scans + build-once subqueries and columnar on and off =="
cargo test -q -p swan-sqlengine --test slt

echo "== binary row codec round-trip properties =="
cargo test -q -p swan-sqlengine --test prop_codec

echo "== cross-session llm_map single-flight =="
cargo test -q --test concurrency

echo "== LLM fault-sweep harness (deterministic, virtual clock) =="
cargo test -q --test llm_fault_sim

echo "== subquery single flight + nested-subquery state @ SWAN_LOCKDEP=1 (release, 1/2/8 threads) =="
SWAN_LOCKDEP=1 cargo test -q --release -p swan-sqlengine --test parallel_diff \
    uncorrelated_subquery_executes_once_at_every_thread_count
SWAN_LOCKDEP=1 cargo test -q --release -p swan-sqlengine --test sql_e2e \
    subqueries_nested_in_a_correlated_subquery_keep_their_own_state

echo "== cancel cadence + subquery-in-ON join: inline dispatch on a pool worker @ SWAN_LOCKDEP=1 (release) =="
SWAN_LOCKDEP=1 cargo test -q --release -p swan-sqlengine --test morsel_dispatch \
    every_operator_observes_a_fired_token_within_one_morsel_per_worker
SWAN_LOCKDEP=1 cargo test -q --release -p swan-sqlengine --test parallel_diff \
    left_join_on_subquery_reads_any_combined_row_column

echo "== in-place write path: snapshot isolation + zero-row commits @ SWAN_LOCKDEP=1 (release) =="
SWAN_LOCKDEP=1 cargo test -q --release -p swan-sqlengine --test write_path \
    snapshots_never_observe_a_patch
SWAN_LOCKDEP=1 cargo test -q --release -p swan-sqlengine --lib \
    zero_row_statements_commit_nothing

echo "== UDF store: panic-strand regression, pinned transcript, cross-session single flight @ SWAN_LOCKDEP=1 (release) =="
SWAN_LOCKDEP=1 cargo test -q --release -p swan-core --lib a_panicking_model_call
SWAN_LOCKDEP=1 cargo test -q --release --test udf_transcript
SWAN_LOCKDEP=1 cargo test -q --release --test concurrency

echo "== workspace tests @ SWAN_LOCKDEP=1 (release, lock-order validated) =="
SWAN_LOCKDEP=1 cargo test --workspace -q --release

echo "CI gate passed."
