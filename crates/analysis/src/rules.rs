//! The nine seam rules, an allowlist engine, and `#[cfg(test)]` region
//! skipping — all operating on the token stream from [`crate::lexer`].
//!
//! | rule            | what it enforces                                              |
//! |-----------------|---------------------------------------------------------------|
//! | `fs-seam`       | no `std::fs` / `File::*` outside `vfs.rs` — disk I/O goes through `Vfs` |
//! | `clock-seam`    | no `Instant::now` / `SystemTime::now` / `thread::sleep` outside `swan_pool::time` |
//! | `thread-seam`   | no `thread::spawn` outside `swan_pool`                        |
//! | `no-panic-paths`| no `.unwrap()` / `.expect()` / `panic!`-family on commit/recovery files |
//! | `safety-comment`| every `unsafe` carries a `// SAFETY:` comment within 5 lines  |
//! | `lock-rank`     | shim `Mutex::new` / `RwLock::new` must be `with_rank` instead |
//! | `no-row-materialize` | no `materialize_row(..)` calls or `Row::` construction inside columnar kernel modules — rows materialize at the engine boundary only |
//! | `wal-seam`      | `Wal`, `frame_group` and `commit_records` are named only in `wal.rs`, `txn.rs` and `shared.rs` — one owner of the log, one commit path |
//! | `morsel-seam`   | inside `crates/sqlengine/src`, `swan_pool::parallel_*`, `swan_pool::run_workers`, `swan_pool::configured_threads` and `effective_threads` are named only in `exec_parallel.rs` — one dispatcher, no operator-local fan-out, no second fan-out gate |
//!
//! Escape hatch: `// lint: allow(rule-name): justification` on the same
//! line as the flagged code or the line directly above. The justification
//! is **required** — a bare `allow` suppresses nothing and is itself
//! reported.

use crate::lexer::{Token, TokenKind};

/// One diagnostic: where, which rule, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl Finding {
    /// Render as `file:line: rule: message` — the golden-file format.
    pub fn render(&self) -> String {
        format!("{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Commit/recovery-path files where the `no-panic-paths` rule applies.
/// These are the files a crash-consistency bug would live in; a panic
/// there can tear a commit in half. The paged store (pager, B-tree,
/// buffer pool) sits on the checkpoint/recovery path, so it qualifies.
const CRITICAL_FILES: &[&str] = &[
    "wal.rs",
    "txn.rs",
    "storage.rs",
    "db.rs",
    "shared.rs",
    "vfs.rs",
    "pager.rs",
    "btree.rs",
    "bufpool.rs",
];

/// All rule names, for validating `allow(...)` entries.
const RULE_NAMES: &[&str] = &[
    "fs-seam",
    "clock-seam",
    "thread-seam",
    "no-panic-paths",
    "safety-comment",
    "lock-rank",
    "no-row-materialize",
    "wal-seam",
    "morsel-seam",
];

/// Columnar kernel modules where `no-row-materialize` applies: code here
/// operates on column slices; per-row materialization belongs at the
/// engine boundary (and defeats the point of the columnar layout).
const COLUMNAR_FILES: &[&str] = &["columnar.rs"];

/// The only files that may name the log handle (`Wal`) or the commit
/// framing (`frame_group`, `commit_records`): the log itself, the record
/// planner, and `SharedDb` — the single owner of the log and the single
/// caller of `Wal::commit`. A second durable handle or commit path cannot
/// be written without naming one of the three.
const WAL_SEAM_FILES: &[&str] = &["wal.rs", "txn.rs", "shared.rs"];
const WAL_SEAM_NAMES: &[&str] = &["Wal", "frame_group", "commit_records"];

/// The SQL engine's one fan-out point. Everywhere else in
/// `crates/sqlengine/src` the pool's fan-out entry points
/// (`swan_pool::parallel_*`, `swan_pool::run_workers`) may not be named:
/// an operator that fans out by itself skips what the dispatcher does for
/// every loop — the cancel-token re-install on the worker, the
/// range-boundary cancellation check and the worker-result merge-back.
/// Nor may a thread count be resolved there (`swan_pool::configured_threads`,
/// or anything called `effective_threads`): whether a loop fans out is
/// decided by the dispatcher's one gate, from the count it is handed, so
/// neither the optimizer nor an operator can grow a gate of its own.
const MORSEL_SEAM_DIR: &str = "crates/sqlengine/src";
const MORSEL_SEAM_FILE: &str = "exec_parallel.rs";
const THREAD_GATE_NAME: &str = "effective_threads";
const THREAD_GATE_REASON: &str =
    "whether a loop fans out is decided by the one gate behind `exec_parallel::try_morsels`";

/// Why `swan_pool::<name>` may be named only in the dispatcher, if so.
fn morsel_seam_reason(name: &str) -> Option<&'static str> {
    if name == "run_workers" || name.starts_with("parallel_") {
        Some("operator loops fan out through `exec_parallel::try_morsels` only")
    } else if name == "configured_threads" {
        Some(THREAD_GATE_REASON)
    } else {
        None
    }
}

/// A parsed `// lint: allow(rule): justification` comment.
struct Allow {
    rule: String,
    line: u32,
    has_justification: bool,
}

/// Analyze one file's source. `rel_path` is the workspace-relative path
/// used in diagnostics; rule applicability is derived from it.
pub fn analyze_file(rel_path: &str, src: &str) -> Vec<Finding> {
    let tokens = crate::lexer::tokenize(src);
    let in_test = test_region_mask(&tokens);
    let allows = parse_allows(rel_path, &tokens);

    let norm = rel_path.replace('\\', "/");
    let file_name = norm.rsplit('/').next().unwrap_or(&norm);
    let in_pool = norm.contains("crates/pool/src");
    let is_pool_time = in_pool && file_name == "time.rs";
    let is_vfs = file_name == "vfs.rs";
    let is_critical = CRITICAL_FILES.contains(&file_name);
    let is_columnar = COLUMNAR_FILES.contains(&file_name);
    let is_wal_seam = WAL_SEAM_FILES.contains(&file_name);
    let in_morsel_seam = norm.contains(MORSEL_SEAM_DIR) && file_name != MORSEL_SEAM_FILE;

    // Code-only view (indices back into `tokens`) so matchers never trip
    // on comment text, and comments stay available for SAFETY lookups.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind != TokenKind::Comment)
        .collect();

    let mut findings = Vec::new();
    let mut push = |allows: &[Allow], rule: &'static str, line: u32, message: String| {
        if !is_allowed(allows, rule, line) {
            findings.push(Finding { file: rel_path.to_string(), line, rule, message });
        }
    };

    let ident = |ci: usize| -> Option<&str> {
        let t = &tokens[code[ci]];
        (t.kind == TokenKind::Ident).then_some(t.text.as_str())
    };
    let punct = |ci: usize, p: &str| -> bool {
        let t = &tokens[code[ci]];
        t.kind == TokenKind::Punct && t.text == p
    };

    for ci in 0..code.len() {
        let ti = code[ci];
        if in_test[ti] {
            continue;
        }
        let tok = &tokens[ti];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let line = tok.line;
        let next_is = |off: usize, want: &str| {
            ci + off < code.len() && ident(ci + off) == Some(want)
        };
        let next_punct = |off: usize, want: &str| ci + off < code.len() && punct(ci + off, want);
        let prev_punct = |want: &str| ci > 0 && punct(ci - 1, want);
        let prev_is = |want: &str| ci > 0 && ident(ci - 1) == Some(want);

        match tok.text.as_str() {
            // ---- fs-seam ------------------------------------------------
            "std" if !is_vfs && next_punct(1, "::") && next_is(2, "fs") => {
                push(
                    &allows,
                    "fs-seam",
                    line,
                    "direct `std::fs` use; route disk I/O through the `Vfs` seam (vfs.rs)"
                        .to_string(),
                );
            }
            "File" if !is_vfs && next_punct(1, "::") => {
                push(
                    &allows,
                    "fs-seam",
                    line,
                    "direct `File::*` use; route disk I/O through the `Vfs` seam (vfs.rs)"
                        .to_string(),
                );
            }
            // ---- clock-seam ---------------------------------------------
            "Instant" | "SystemTime"
                if !is_pool_time && next_punct(1, "::") && next_is(2, "now") =>
            {
                push(
                    &allows,
                    "clock-seam",
                    line,
                    format!(
                        "`{}::now()` reads the wall clock; use the `Clock` seam (swan_pool::time)",
                        tok.text
                    ),
                );
            }
            "thread" if !is_pool_time && next_punct(1, "::") && next_is(2, "sleep") => {
                push(
                    &allows,
                    "clock-seam",
                    line,
                    "`thread::sleep` blocks on real time; use `Clock::sleep` (swan_pool::time)"
                        .to_string(),
                );
            }
            // ---- thread-seam --------------------------------------------
            "thread" if !in_pool && next_punct(1, "::") && next_is(2, "spawn") => {
                push(
                    &allows,
                    "thread-seam",
                    line,
                    "`thread::spawn` outside swan_pool; use the worker pool so shutdown and \
                     panics stay centralized"
                        .to_string(),
                );
            }
            // ---- no-panic-paths -----------------------------------------
            "unwrap" | "expect"
                if is_critical && prev_punct(".") && next_punct(1, "(") =>
            {
                push(
                    &allows,
                    "no-panic-paths",
                    line,
                    format!(
                        "`.{}()` on a commit/recovery path; return a typed `Error` with context \
                         instead of panicking",
                        tok.text
                    ),
                );
            }
            "panic" | "unreachable" | "unimplemented" | "todo"
                if is_critical && next_punct(1, "!") =>
            {
                push(
                    &allows,
                    "no-panic-paths",
                    line,
                    format!(
                        "`{}!` on a commit/recovery path; return a typed `Error` with context \
                         instead of panicking",
                        tok.text
                    ),
                );
            }
            // ---- no-row-materialize -------------------------------------
            // The *definition* of `materialize_row` (preceded by `fn`) is
            // the sanctioned boundary; calls inside kernel code are the
            // hazard — each one walks every column for one row and
            // allocates, defeating the columnar layout.
            "materialize_row"
                if is_columnar && next_punct(1, "(") && !prev_is("fn") =>
            {
                push(
                    &allows,
                    "no-row-materialize",
                    line,
                    "`materialize_row` call inside a columnar kernel module; operate on \
                     column slices and materialize rows only at the engine boundary"
                        .to_string(),
                );
            }
            "Row" if is_columnar && next_punct(1, "::") => {
                push(
                    &allows,
                    "no-row-materialize",
                    line,
                    "`Row::` construction inside a columnar kernel module; kernels return \
                     verdicts/column data, the engine boundary materializes rows"
                        .to_string(),
                );
            }
            // ---- wal-seam --------------------------------------------------
            name if !is_wal_seam && WAL_SEAM_NAMES.contains(&name) => {
                push(
                    &allows,
                    "wal-seam",
                    line,
                    format!(
                        "`{name}` named outside wal.rs / txn.rs / shared.rs; `SharedDb` is the \
                         only owner of the log and `SharedDb::lead_commit` the only commit path"
                    ),
                );
            }
            // ---- morsel-seam ---------------------------------------------
            // `swan_pool::name`, or every name of a `swan_pool::{..}` group.
            "swan_pool" if in_morsel_seam && next_punct(1, "::") => {
                let mut named = Vec::new();
                if next_punct(2, "{") {
                    let mut depth = 0usize;
                    for cj in ci + 2..code.len() {
                        if punct(cj, "{") {
                            depth += 1;
                        } else if punct(cj, "}") {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        } else if let Some(name) = ident(cj) {
                            named.push((name, tokens[code[cj]].line));
                        }
                    }
                } else if ci + 2 < code.len() {
                    named.extend(ident(ci + 2).map(|name| (name, line)));
                }
                for (name, line) in named {
                    if let Some(reason) = morsel_seam_reason(name) {
                        push(
                            &allows,
                            "morsel-seam",
                            line,
                            format!("`swan_pool::{name}` named outside exec_parallel.rs; {reason}"),
                        );
                    }
                }
            }
            THREAD_GATE_NAME if in_morsel_seam => {
                push(
                    &allows,
                    "morsel-seam",
                    line,
                    format!(
                        "`{THREAD_GATE_NAME}` named outside exec_parallel.rs; {THREAD_GATE_REASON}"
                    ),
                );
            }
            // ---- safety-comment -----------------------------------------
            "unsafe" => {
                if !has_safety_comment(&tokens, line) {
                    push(
                        &allows,
                        "safety-comment",
                        line,
                        "`unsafe` without a `// SAFETY:` comment within 5 lines above it"
                            .to_string(),
                    );
                }
            }
            // ---- lock-rank ----------------------------------------------
            "Mutex" | "RwLock"
                if !prev_punct("::") && next_punct(1, "::") && next_is(2, "new") =>
            {
                push(
                    &allows,
                    "lock-rank",
                    line,
                    format!(
                        "`{}::new` creates an unranked lock; use `{}::with_rank(name, rank, ..)` \
                         with a rank from swan_pool::lockrank",
                        tok.text, tok.text
                    ),
                );
            }
            _ => {}
        }
    }

    // Malformed or dead allow entries are findings themselves: an escape
    // hatch that doesn't say *why*, or names a rule that doesn't exist,
    // is worse than no escape hatch.
    for a in &allows {
        if !RULE_NAMES.contains(&a.rule.as_str()) {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: a.line,
                rule: "allowlist",
                message: format!(
                    "`allow({})` names an unknown rule (known: {})",
                    a.rule,
                    RULE_NAMES.join(", ")
                ),
            });
        } else if !a.has_justification {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: a.line,
                rule: "allowlist",
                message: format!(
                    "`allow({})` is missing a justification; write \
                     `// lint: allow({}): <why this is safe here>`",
                    a.rule, a.rule
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Mark every token inside a `#[cfg(test)]` or `#[test]` item. The
/// attribute pattern is matched exactly — `#[cfg(not(test))]` is *not*
/// a test region. The skipped span runs to the end of the item: the
/// matching `}` of its first brace, or a `;` for brace-less items.
fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind != TokenKind::Comment)
        .collect();
    let text = |ci: usize| tokens[code[ci]].text.as_str();

    let mut ci = 0usize;
    while ci < code.len() {
        let is_attr_start = text(ci) == "#"
            && ci + 1 < code.len()
            && text(ci + 1) == "[";
        let is_cfg_test = is_attr_start
            && ci + 6 < code.len()
            && text(ci + 2) == "cfg"
            && text(ci + 3) == "("
            && text(ci + 4) == "test"
            && text(ci + 5) == ")"
            && text(ci + 6) == "]";
        let is_test_attr = is_attr_start
            && ci + 3 < code.len()
            && text(ci + 2) == "test"
            && text(ci + 3) == "]";
        if !(is_cfg_test || is_test_attr) {
            ci += 1;
            continue;
        }
        let attr_end = if is_cfg_test { ci + 6 } else { ci + 3 };
        // Walk to the item body: first `{` opens it; a `;` before any `{`
        // ends a brace-less item (e.g. `#[cfg(test)] mod tests;`).
        let mut cj = attr_end + 1;
        let mut body_open = None;
        while cj < code.len() {
            match text(cj) {
                "{" => {
                    body_open = Some(cj);
                    break;
                }
                ";" => break,
                _ => cj += 1,
            }
        }
        let span_end_ci = if let Some(open) = body_open {
            let mut depth = 0i32;
            let mut ck = open;
            loop {
                match text(ck) {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                ck += 1;
                if ck >= code.len() {
                    ck = code.len() - 1;
                    break;
                }
            }
            ck
        } else {
            cj.min(code.len() - 1)
        };
        for c in ci..=span_end_ci {
            mask[code[c]] = true;
        }
        ci = span_end_ci + 1;
    }
    mask
}

/// Is there a comment containing `SAFETY` on `unsafe_line` or within the
/// 5 lines above it?
fn has_safety_comment(tokens: &[Token], unsafe_line: u32) -> bool {
    let low = unsafe_line.saturating_sub(5);
    tokens.iter().any(|t| {
        t.kind == TokenKind::Comment
            && t.line >= low
            && t.line <= unsafe_line
            && t.text.contains("SAFETY")
    })
}

/// Parse all `// lint: allow(rule): justification` comments. Only plain
/// comments count — doc comments (`///`, `//!`, `/**`, `/*!`) are prose
/// and may *mention* the syntax without activating it.
fn parse_allows(_rel_path: &str, tokens: &[Token]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::Comment {
            continue;
        }
        let is_doc = t.text.starts_with("///")
            || t.text.starts_with("//!")
            || t.text.starts_with("/**")
            || t.text.starts_with("/*!");
        if is_doc {
            continue;
        }
        let Some(pos) = t.text.find("lint: allow(") else { continue };
        let rest = &t.text[pos + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else { continue };
        let rule = rest[..close].trim().to_string();
        let after = &rest[close + 1..];
        let has_justification = after
            .strip_prefix(':')
            .map(|j| !j.trim().is_empty())
            .unwrap_or(false);
        allows.push(Allow { rule, line: t.line, has_justification });
    }
    allows
}

/// A finding at `line` is suppressed by a well-formed allow for the same
/// rule on the same line or the line directly above.
fn is_allowed(allows: &[Allow], rule: &str, line: u32) -> bool {
    allows.iter().any(|a| {
        a.has_justification && a.rule == rule && (a.line == line || a.line + 1 == line)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        analyze_file(path, src)
    }

    #[test]
    fn fs_seam_flags_std_fs_and_file() {
        let f = run("crates/x/src/foo.rs", "fn f() { let _ = std::fs::read(\"a\"); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "fs-seam");
        let f = run("crates/x/src/foo.rs", "fn f() { let _ = File::open(\"a\"); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "fs-seam");
    }

    #[test]
    fn fs_seam_exempts_vfs_rs() {
        let f = run("crates/sqlengine/src/vfs.rs", "fn f() { let _ = std::fs::read(\"a\"); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn clock_seam_flags_now_and_sleep_but_not_pool_time() {
        let src = "fn f() { let _ = Instant::now(); thread::sleep(d); SystemTime::now(); }";
        let f = run("crates/llm/src/model.rs", src);
        assert_eq!(f.iter().filter(|x| x.rule == "clock-seam").count(), 3, "{f:?}");
        let f = run("crates/pool/src/time.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn thread_seam_flags_spawn_but_not_pool() {
        let src = "fn f() { thread::spawn(|| {}); }";
        let f = run("crates/llm/src/parallel.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "thread-seam");
        let f = run("crates/pool/src/lib.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn no_panic_paths_only_on_critical_files() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); }";
        let f = run("crates/sqlengine/src/wal.rs", src);
        assert_eq!(f.iter().filter(|x| x.rule == "no-panic-paths").count(), 3, "{f:?}");
        let f = run("crates/sqlengine/src/parser.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn no_panic_paths_covers_the_paged_store() {
        let src = "fn f() { x.unwrap(); }";
        for file in ["pager.rs", "btree.rs", "bufpool.rs"] {
            let f = run(&format!("crates/sqlengine/src/{file}"), src);
            assert_eq!(
                f.iter().filter(|x| x.rule == "no-panic-paths").count(),
                1,
                "{file}: {f:?}"
            );
        }
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let f = run("crates/sqlengine/src/db.rs", "fn f() { x.unwrap_or_else(|| 0); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn safety_comment_required_within_five_lines() {
        let bad = "fn f() {\n    unsafe { g(); }\n}";
        let f = run("crates/pool/src/lib.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-comment");
        let good = "fn f() {\n    // SAFETY: g has no preconditions here.\n    unsafe { g(); }\n}";
        assert!(run("crates/pool/src/lib.rs", good).is_empty());
    }

    #[test]
    fn lock_rank_flags_bare_new_but_not_qualified_paths() {
        let f = run("crates/core/src/udf.rs", "fn f() { let m = Mutex::new(0); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "lock-rank");
        let f = run(
            "crates/core/src/udf.rs",
            "fn f() { let m = std::sync::Mutex::new(0); let r = RwLock::with_rank(\"r\", 1, 0); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn no_row_materialize_flags_calls_not_definition() {
        let src = "pub fn materialize_row(i: usize) -> Row { x(i) }\n\
                   fn k(s: &ColumnSet) { let _ = s.materialize_row(0); let r = Row::from(v); }";
        let f = run("crates/sqlengine/src/columnar.rs", src);
        assert_eq!(f.iter().filter(|x| x.rule == "no-row-materialize").count(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.line == 2), "{f:?}");
        // Outside columnar kernel modules the rule is inert.
        let f = run("crates/sqlengine/src/exec.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn no_row_materialize_ignores_type_positions() {
        let src = "pub fn from_rows(rows: &[Row], width: usize) -> Vec<Row> { build(rows) }";
        let f = run("crates/sqlengine/src/columnar.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wal_seam_flags_log_names_outside_the_three_files() {
        let src = "use crate::wal::{frame_group, Wal};\n\
                   fn f(w: &mut Wal) { let b = frame_group(&commit_records(1)); }";
        let f = run("crates/sqlengine/src/db.rs", src);
        assert_eq!(f.iter().filter(|x| x.rule == "wal-seam").count(), 5, "{f:?}");
        for file in ["wal.rs", "txn.rs", "shared.rs"] {
            let f = run(&format!("crates/sqlengine/src/{file}"), src);
            assert!(f.is_empty(), "{file}: {f:?}");
        }
        // Other identifiers that merely start with `Wal` are not the log.
        let f = run("crates/sqlengine/src/pager.rs", "fn f(d: &WalDelta, r: WalRecord) {}");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn morsel_seam_flags_pool_fan_out_outside_the_dispatcher() {
        let src = "use swan_pool::{cancel::{self, with_current}, parallel_items};\n\
                   fn f() { swan_pool::parallel_morsels(n, 8, 2, g); swan_pool::run_workers(2, j); }\n\
                   fn ok() { swan_pool::is_pool_worker(); swan_pool::cancel::current(); }\n\
                   fn gate(c: &C) -> bool { effective_threads(c) > 1 }\n\
                   fn auto() -> usize { swan_pool::configured_threads() }";
        let f = run("crates/sqlengine/src/exec.rs", src);
        let lines: Vec<u32> =
            f.iter().filter(|x| x.rule == "morsel-seam").map(|x| x.line).collect();
        assert_eq!(lines, [1, 2, 2, 4, 5], "{f:?}");
        // The dispatcher itself, and every other crate, may fan out.
        assert!(run("crates/sqlengine/src/exec_parallel.rs", src).is_empty());
        assert!(run("crates/llm/src/parallel.rs", src).is_empty());
    }

    #[test]
    fn morsel_seam_ignores_lookalike_names() {
        // Not the pool's: config fields, the dispatcher's own helper.
        let src = "fn f(c: &OptimizerConfig) { let _ = (c.parallel_threshold, c.threads); \
                   crate::exec_parallel::parallel_topk_candidates(n, k, ctx, &cmp); }";
        assert!(run("crates/sqlengine/src/exec.rs", src).is_empty());
    }

    #[test]
    fn allowlist_suppresses_with_justification() {
        let src = "// lint: allow(fs-seam): tooling binary reads sources directly\n\
                   fn f() { let _ = std::fs::read(\"a\"); }";
        assert!(run("crates/x/src/foo.rs", src).is_empty());
        let same_line =
            "fn f() { let _ = std::fs::read(\"a\"); } // lint: allow(fs-seam): tooling";
        assert!(run("crates/x/src/foo.rs", same_line).is_empty());
    }

    #[test]
    fn allow_without_justification_reports_and_does_not_suppress() {
        let src = "// lint: allow(fs-seam)\nfn f() { let _ = std::fs::read(\"a\"); }";
        let f = run("crates/x/src/foo.rs", src);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"fs-seam"), "{f:?}");
        assert!(rules.contains(&"allowlist"), "{f:?}");
    }

    #[test]
    fn allow_unknown_rule_reports() {
        let src = "// lint: allow(no-such-rule): because\nfn f() {}";
        let f = run("crates/x/src/foo.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "allowlist");
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::fs;\n\
                       fn t() { let _ = std::fs::read(\"a\"); x.unwrap(); }\n\
                   }";
        assert!(run("crates/sqlengine/src/wal.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_skipped() {
        let src = "#[cfg(not(test))]\nfn prod() { let _ = std::fs::read(\"a\"); }";
        let f = run("crates/x/src/foo.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "fs-seam");
    }

    #[test]
    fn test_attr_fn_is_skipped_but_code_after_is_not() {
        let src = "#[test]\nfn t() { let _ = std::fs::read(\"a\"); }\n\
                   fn prod() { let _ = std::fs::read(\"b\"); }";
        let f = run("crates/x/src/foo.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }
}
