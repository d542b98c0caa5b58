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
#      Any finding fails the gate before a single test runs, as does any
#      clippy warning in the first-party packages (every target: libs,
#      binaries, tests, benches and examples; vendored crates are not
#      linted). Then the ROADMAP item-14 running figure:
#      the non-test line count of crates/sqlengine/src (the lines above
#      each file's `#[cfg(test)]`), with the same totals for
#      crates/llm/src, crates/core/src and crates/data/src beside it
#      (the crates that could quietly absorb what the engine sheds),
#      printed, not gated;
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
#      `udf_store`, taken from every session's statement thread;
#   3. nine properties at PROPTEST_CASES=2000 in a release build —
#      tier-1 runs them at the vendored proptest's default of 64 cases:
#      the B-tree differential property (the in-place tree writers against
#      the decoding reference kept in btree.rs's tests: same page images,
#      same page calls, tree and heap scans equal to a model), the chunked
#      copy-on-write vector behind the row store and the text
#      dictionaries against a `Vec` model (chunked.rs: contents, chunk
#      slices, no write visible through another clone, every untouched
#      chunk still shared), the hash join against the nested loop
#      (prop_sql.rs: one and two key columns, inner / LEFT / residual,
#      Integer / Real / Text / NULL / NaN keys, columnar on and off, the
#      same rows as a multiset, emitted in probe order), every other
#      operator on the keyed index against a pairwise reference
#      (prop_sql.rs: GROUP BY with COUNT(*), DISTINCT, COUNT(DISTINCT),
#      UNION / EXCEPT / INTERSECT and IN / NOT IN (SELECT …), uncorrelated
#      and correlated, over the same key pools, columnar on and off,
#      before and after in-place key updates; `sort_cmp` for grouping and
#      `sql_eq` for membership, no hashing), batched expensive-UDF
#      execution against per-row `invoke` (prop_sql.rs, two properties
#      under one filter: projection, WHERE, JOIN ON, HAVING, a GROUP BY
#      key repeated in the output and a nested-loop ON over the same key
#      pools, columnar on and off — the same rows, no more tuples
#      evaluated, and `invoke_batch` handed each distinct tuple once per
#      statement under exact `UdfArgs` identity, in first-seen order; and
#      the SWAN domain shapes over a join with NULL and dangling foreign
#      keys, plus a correlated EXISTS and a UDF argument holding a
#      subquery over the same UDF), and the one-word
#      `ThinStr` behind every text cell against `Arc<str>` (thinstr.rs:
#      empty, multibyte, NUL and up-to-4-KiB strings; `==`, `cmp`, both
#      hashers, `Debug`, `Display` and `HashSet::get(&str)`; its count
#      after every clone and drop) beside its 8-thread clone/drop stress —
#      its `unsafe` has no Miri run, so these are the check — and two of
#      the batched `llm_map` key's cold path: the tokenizer's ASCII byte
#      loop against the `char` definition it shortcuts (tokenizer.rs: NUL,
#      all six ASCII White_Space bytes, `\u{85}`, `\u{A0}`, `é`, `漢`), and
#      the UDF runner's in-place read of a completion against
#      `parse_udf_response` and `infer_value` (udf.rs: quoted lines with
#      `''` escapes, unterminated quotes, a bare `?`, commas, edge spaces).
#
# Not a stage: scripts/bench_pairs.sh <parent-binary> <change-binary>
# <workload> — the alternating parent/change pairs a claimed gain is
# measured by. It needs the benchmark built from two commits, so it runs
# by hand, and its output is the table in the PR's CHANGES.md entry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== swan-analyze: workspace seam lints =="
cargo run -q -p swan-analyze -- --workspace

echo "== clippy: first-party packages, warnings denied =="
cargo clippy -q --all-targets --offline -p swan -p swan-analyze -p swan-pool -p swan-sqlengine \
    -p swan-llm -p swan-data -p swan-core -p swan-bench -- -D warnings

non_test_lines() { # <dir>: each file's lines above its first #[cfg(test)], and their total
    for f in "$1"/*.rs; do
        printf '%6d %s\n' "$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")" "$f"
    done | awk -v dir="$1" '{ print; total += $1 } END { printf "%6d total %s\n", total, dir }'
}
echo "== crates/sqlengine/src: non-test lines (ROADMAP item 14) =="
non_test_lines crates/sqlengine/src
echo "== beside it: crates/llm/src, crates/core/src and crates/data/src (printed, not gated) =="
non_test_lines crates/llm/src | tail -n 1
non_test_lines crates/core/src | tail -n 1
non_test_lines crates/data/src | tail -n 1

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

echo "== B-tree differential property @ PROPTEST_CASES=2000 (release) =="
PROPTEST_CASES=2000 cargo test -q --release -p swan-sqlengine --lib \
    btree::tests::in_place_writers_match_the_decoding_reference

echo "== chunked copy-on-write vector property @ PROPTEST_CASES=2000 (release) =="
PROPTEST_CASES=2000 cargo test -q --release -p swan-sqlengine --lib \
    chunked::tests::chunked_vec_matches_a_vec_model_and_shares_untouched_chunks

echo "== hash join against the nested loop @ PROPTEST_CASES=2000 (release) =="
PROPTEST_CASES=2000 cargo test -q --release -p swan-sqlengine --test prop_sql \
    hash_join_matches_the_nested_loop

echo "== keyed operators against a pairwise reference @ PROPTEST_CASES=2000 (release) =="
PROPTEST_CASES=2000 cargo test -q --release -p swan-sqlengine --test prop_sql \
    keyed_operators_match_a_pairwise_reference

echo "== batched expensive-UDF execution against per-row invoke @ PROPTEST_CASES=2000 (release) =="
PROPTEST_CASES=2000 cargo test -q --release -p swan-sqlengine --test prop_sql \
    batched_udf_execution_matches_per_row

echo "== ThinStr against Arc<str>, and its 8-thread clone/drop stress @ PROPTEST_CASES=2000 (release) =="
PROPTEST_CASES=2000 cargo test -q --release -p swan-sqlengine --lib thinstr::tests

echo "== tokenizer byte path against the char definition @ PROPTEST_CASES=2000 (release) =="
PROPTEST_CASES=2000 cargo test -q --release -p swan-llm --lib \
    tokenizer::tests::the_byte_path_counts_as_the_char_definition

echo "== llm_map answers read in place against parse_udf_response @ PROPTEST_CASES=2000 (release) =="
PROPTEST_CASES=2000 cargo test -q --release -p swan-core --lib \
    udf::tests::in_place_answers_match_the_parsed_response

echo "CI gate passed."
