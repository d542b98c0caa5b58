//! Golden-file SQL test runner over `tests/slt/*.slt`
//! (sqllogictest-style).
//!
//! # File format
//!
//! ```text
//! # comment
//! statement ok
//! CREATE TABLE t (a INTEGER)
//!
//! statement error
//! INSERT INTO t VALUES (1, 2)
//!
//! query
//! SELECT a FROM t ORDER BY a
//! ----
//! 1
//! ```
//!
//! * `statement ok` — the SQL on the following lines (up to a blank
//!   line) must execute successfully;
//! * `statement error` — it must fail (any [`Error`] counts);
//! * `statement error <substring>` — it must fail AND the error's
//!   display text must contain `<substring>` (pins message wording);
//! * `config statement_timeout <ms>` / `config statement_timeout none`
//!   — arm or clear the session's statement timeout for everything that
//!   follows;
//! * `query` — the SQL runs up to the `----` separator; the lines after
//!   it, up to a blank line, are the expected rows. Cells are joined
//!   with `|`; `NULL` renders as the literal `NULL`.
//!
//! Every file runs four times, each on a fresh [`SharedDb`] session: with
//! and without the scan-only planner (`index_scan = false`, the reference
//! for the primary-key index rewrites), each on the columnar kernels and
//! on the row-at-a-time engine (`columnar = false`, the reference for the
//! kernels); every run must match the golden output byte for byte.
//! Statements execute
//! through a [`Session`], so `BEGIN`/`COMMIT`/`ROLLBACK` scripts exercise
//! the transaction path.
//!
//! The runner registers two local test UDFs (this crate cannot see the
//! LLM layer, so they stand in for a model-backed function):
//!
//! * `flaky_map(mode, key)` — mirrors the model-call degradation shapes:
//!   `'ok'` answers `v:<key>` and remembers it, `'fail'` errors (the
//!   `Fail` policy surface), `'null'` answers NULL (`Null` policy), and
//!   `'stale'` re-serves the remembered answer (`StaleCache` policy);
//! * `slow_probe(ms)` — sleeps, then checks the statement's cancel
//!   token, exactly like a cooperative long-running UDF should.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use swan_sqlengine::{Error, OptimizerConfig, Result, ScalarUdf, SharedDb, Value};

#[derive(Debug)]
enum Directive {
    StatementOk { line: usize, sql: String },
    StatementError { line: usize, sql: String, needle: Option<String> },
    Config { line: usize, key: String, value: String },
    Query { line: usize, sql: String, expected: Vec<String> },
}

/// `flaky_map(mode, key)` — the degradation-policy stand-in.
#[derive(Default)]
struct FlakyMap {
    remembered: Mutex<HashMap<String, Value>>,
}

impl ScalarUdf for FlakyMap {
    fn name(&self) -> &str {
        "flaky_map"
    }

    fn arity(&self) -> Option<usize> {
        Some(2)
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        let mode = args[0].as_str().unwrap_or_default();
        let key = args[1].render();
        match mode {
            "ok" => {
                let v = Value::from(format!("v:{key}"));
                self.remembered.lock().unwrap().insert(key, v.clone());
                Ok(v)
            }
            "fail" => Err(Error::Udf {
                name: "flaky_map".into(),
                message: "synthetic model failure".into(),
            }),
            "null" => Ok(Value::Null),
            "stale" => Ok(self
                .remembered
                .lock()
                .unwrap()
                .get(&key)
                .cloned()
                .unwrap_or(Value::Null)),
            other => Err(Error::Udf {
                name: "flaky_map".into(),
                message: format!("unknown mode {other:?}"),
            }),
        }
    }
}

/// `slow_probe(ms)` — a cooperative long-running UDF: it burns real time
/// and then honours the statement's cancel token.
struct SlowProbe;

impl ScalarUdf for SlowProbe {
    fn name(&self) -> &str {
        "slow_probe"
    }

    fn arity(&self) -> Option<usize> {
        Some(1)
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        let ms = args[0].as_i64().unwrap_or(0).max(0) as u64;
        std::thread::sleep(Duration::from_millis(ms));
        swan_pool::cancel::check_current().map_err(Error::from)?;
        Ok(Value::Integer(1))
    }
}

/// Parse one `.slt` file into directives, with 1-based line numbers for
/// failure reporting.
fn parse_slt(path: &Path) -> Vec<Directive> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let lines: Vec<&str> = text.lines().collect();
    let mut directives = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim_end();
        if line.is_empty() || line.starts_with('#') {
            i += 1;
            continue;
        }
        let start = i + 1;
        match line {
            _ if line == "statement ok"
                || line == "statement error"
                || line.starts_with("statement error ") =>
            {
                let ok = line == "statement ok";
                let needle = line
                    .strip_prefix("statement error ")
                    .map(|n| n.trim().to_string())
                    .filter(|n| !n.is_empty());
                i += 1;
                let mut sql = Vec::new();
                while i < lines.len() && !lines[i].trim().is_empty() {
                    sql.push(lines[i]);
                    i += 1;
                }
                let sql = sql.join("\n");
                assert!(!sql.is_empty(), "{}:{start}: directive without SQL", path.display());
                directives.push(if ok {
                    Directive::StatementOk { line: start, sql }
                } else {
                    Directive::StatementError { line: start, sql, needle }
                });
            }
            _ if line.starts_with("config ") => {
                let mut parts = line["config ".len()..].split_whitespace();
                let key = parts.next().unwrap_or_default().to_string();
                let value = parts.next().unwrap_or_default().to_string();
                assert!(
                    !key.is_empty() && !value.is_empty() && parts.next().is_none(),
                    "{}:{start}: config needs exactly `config <key> <value>`",
                    path.display()
                );
                directives.push(Directive::Config { line: start, key, value });
                i += 1;
            }
            "query" => {
                i += 1;
                let mut sql = Vec::new();
                while i < lines.len() && lines[i].trim() != "----" {
                    assert!(
                        !lines[i].trim().is_empty(),
                        "{}:{}: blank line before ----",
                        path.display(),
                        i + 1
                    );
                    sql.push(lines[i]);
                    i += 1;
                }
                assert!(i < lines.len(), "{}:{start}: query without ----", path.display());
                i += 1; // skip ----
                let mut expected = Vec::new();
                while i < lines.len() && !lines[i].trim_end().is_empty() {
                    expected.push(lines[i].trim_end().to_string());
                    i += 1;
                }
                directives.push(Directive::Query { line: start, sql: sql.join("\n"), expected });
            }
            other => panic!("{}:{}: unknown directive {other:?}", path.display(), i + 1),
        }
    }
    directives
}

fn render_cell(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        other => other.render(),
    }
}

/// Run one file under one engine configuration; returns every query's
/// rendered output (for the cross-configuration comparison).
fn run_file(path: &Path, index_scan: bool, columnar: bool) -> Vec<Vec<String>> {
    let config = format!("index_scan={index_scan} columnar={columnar}");
    let db = SharedDb::new();
    db.set_optimizer(OptimizerConfig { index_scan, columnar, ..Default::default() });
    db.register_udf(Arc::new(FlakyMap::default()));
    db.register_udf(Arc::new(SlowProbe));
    let mut session = db.session();
    let mut outputs = Vec::new();
    for directive in parse_slt(path) {
        match directive {
            Directive::StatementOk { line, sql } => {
                session.execute_script(&sql).unwrap_or_else(|e| {
                    panic!("{}:{line} [{config}]: statement failed: {e}\n{sql}",
                        path.display())
                });
            }
            Directive::StatementError { line, sql, needle } => {
                match session.execute_script(&sql) {
                    Ok(_) => panic!(
                        "{}:{line} [{config}]: statement succeeded but must fail\n{sql}",
                        path.display()
                    ),
                    Err(e) => {
                        if let Some(needle) = needle {
                            let msg = e.to_string();
                            assert!(
                                msg.contains(&needle),
                                "{}:{line} [{config}]: error {msg:?} must contain {needle:?}\n{sql}",
                                path.display()
                            );
                        }
                    }
                }
            }
            Directive::Config { line, key, value } => match key.as_str() {
                "statement_timeout" => {
                    let timeout = match value.as_str() {
                        "none" => None,
                        ms => Some(Duration::from_millis(ms.parse().unwrap_or_else(|_| {
                            panic!(
                                "{}:{line}: statement_timeout wants millis or `none`, got {ms:?}",
                                path.display()
                            )
                        }))),
                    };
                    session.set_statement_timeout(timeout);
                }
                other => panic!("{}:{line}: unknown config key {other:?}", path.display()),
            },
            Directive::Query { line, sql, expected } => {
                let result = session.query(&sql).unwrap_or_else(|e| {
                    panic!("{}:{line} [{config}]: query failed: {e}\n{sql}",
                        path.display())
                });
                let got: Vec<String> = result
                    .rows
                    .iter()
                    .map(|row| {
                        row.iter().map(render_cell).collect::<Vec<_>>().join("|")
                    })
                    .collect();
                if got != expected {
                    let mut msg = String::new();
                    let _ = writeln!(
                        msg,
                        "{}:{line} [{config}]: query output mismatch\n{sql}\n-- expected --",
                        path.display()
                    );
                    for l in &expected {
                        let _ = writeln!(msg, "{l}");
                    }
                    let _ = writeln!(msg, "-- got --");
                    for l in &got {
                        let _ = writeln!(msg, "{l}");
                    }
                    panic!("{msg}");
                }
                outputs.push(got);
            }
        }
    }
    outputs
}

fn slt_files() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/slt");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.unwrap().path();
            (path.extension().is_some_and(|x| x == "slt")).then_some(path)
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .slt files under {}", dir.display());
    files
}

/// Every golden file passes with and without primary-key index scans, on
/// the columnar kernels and the row path, with byte-identical query
/// output.
#[test]
fn golden_sql_files_match_in_every_configuration() {
    for path in slt_files() {
        let default = run_file(&path, true, true);
        for (index_scan, columnar) in [(false, true), (true, false), (false, false)] {
            assert_eq!(
                default,
                run_file(&path, index_scan, columnar),
                "{}: default and index_scan={index_scan} columnar={columnar} outputs diverged",
                path.display()
            );
        }
    }
}
