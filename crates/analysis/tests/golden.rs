//! Golden-file tests for the fixture corpus: each `fixtures/<case>.rs`
//! has a `fixtures/<case>.expected` holding the exact diagnostics the
//! analyzer must emit (empty file = the case must be clean). True
//! positives and true negatives are both pinned, so a rule that goes
//! quiet OR noisy fails the suite.

use std::path::Path;

fn fixture_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn run_case(name: &str) {
    run_case_at(name, &format!("fixtures/{name}.rs"));
}

/// Analyze fixture `name` as if it lived at workspace-relative path `rel`
/// (rule applicability is derived from the path).
fn run_case_at(name: &str, rel: &str) {
    let dir = fixture_dir();
    let src = std::fs::read_to_string(dir.join(format!("{name}.rs")))
        .unwrap_or_else(|e| panic!("reading fixture {name}.rs: {e}"));
    let expected = std::fs::read_to_string(dir.join(format!("{name}.expected")))
        .unwrap_or_else(|e| panic!("reading golden {name}.expected: {e}"));

    let got: Vec<String> = swan_analyze::analyze_file(rel, &src)
        .iter()
        .map(|f| f.render())
        .collect();
    let want: Vec<String> = expected.lines().map(str::to_string).collect();
    assert_eq!(
        got, want,
        "fixture {name}: analyzer output diverged from golden file"
    );
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {
        $(#[test]
        fn $name() {
            run_case(stringify!($name));
        })*
    };
}

golden!(
    bad_fs,
    bad_clock,
    bad_thread,
    wal,
    bad_unsafe,
    bad_lock,
    bad_allow,
    allowed,
    vfs,
    test_only,
    columnar,
    bad_wal_seam,
    shared,
);

/// `morsel-seam` is scoped by directory, so its fixture is analyzed under
/// the directory the rule guards — and is clean anywhere else.
#[test]
fn bad_morsel_seam() {
    run_case_at("bad_morsel_seam", "crates/sqlengine/src/bad_morsel_seam.rs");
    let src = std::fs::read_to_string(fixture_dir().join("bad_morsel_seam.rs")).unwrap();
    assert!(swan_analyze::analyze_file("crates/llm/src/bad_morsel_seam.rs", &src).is_empty());
}

/// Every fixture on disk must be covered by a golden test above, and
/// every `.rs` must have a `.expected` — no silent gaps in the corpus.
#[test]
fn corpus_is_fully_paired() {
    let dir = fixture_dir();
    let mut rs = Vec::new();
    let mut expected = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("fixtures dir") {
        let name = entry.expect("dir entry").file_name().to_string_lossy().into_owned();
        if let Some(stem) = name.strip_suffix(".rs") {
            rs.push(stem.to_string());
        } else if let Some(stem) = name.strip_suffix(".expected") {
            expected.push(stem.to_string());
        }
    }
    rs.sort();
    expected.sort();
    assert_eq!(rs, expected, "each fixture .rs needs a matching .expected");

    const COVERED: &[&str] = &[
        "bad_fs", "bad_clock", "bad_thread", "wal", "bad_unsafe", "bad_lock",
        "bad_allow", "allowed", "vfs", "test_only", "columnar", "bad_wal_seam", "shared",
        "bad_morsel_seam",
    ];
    let mut covered: Vec<String> = COVERED.iter().map(|s| s.to_string()).collect();
    covered.sort();
    assert_eq!(rs, covered, "fixture on disk without a golden test (or vice versa)");
}

/// The analyzer must be clean on its own workspace — the acceptance
/// gate `swan-analyze --workspace` run as a test, so `cargo test`
/// catches a seam regression even if CI's lint stage is skipped.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (findings, scanned) =
        swan_analyze::analyze_workspace(&root).expect("workspace scan");
    assert!(scanned > 40, "suspiciously few files scanned: {scanned}");
    let rendered: Vec<String> = findings.iter().map(|f| f.render()).collect();
    assert!(
        rendered.is_empty(),
        "workspace has lint findings:\n{}",
        rendered.join("\n")
    );
}
