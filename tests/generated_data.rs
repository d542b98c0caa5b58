//! The generated SWAN data, pinned: one FNV-1a-64 digest per table of
//! every domain's original and curated database, and one per domain for
//! its facts, popularity, question phrasings and questions, at two
//! scales and seeds. A table digest covers the column names, the
//! primary-key positions and every cell (storage class plus its exact
//! bits, or its text bytes) in row order, so a generator or curation
//! change that moves one byte — or one row — changes a line.
//!
//! Every row of every table with a primary key must also probe back to
//! its own slot through `pk_row_index`.
//!
//! A second case pins how the generated text is shared: a column drawn
//! from a fixed list holds one allocation per distinct value, and a
//! curated table's cells are its original's.
//!
//! Regenerate the fixture after an intended change with
//! `BLESS=1 cargo test --test generated_data`.

use std::fmt::Write as _;
use std::path::Path;

use swan::data::{DomainData, GenConfig, SwanBenchmark};
use swan::llm::KnownValue;
use swan::sqlengine::{Database, ThinStr, Value};

const FIXTURE: &str = "tests/fixtures/swan_data_digest.tsv";
const DOMAINS: [&str; 4] = ["california_schools", "superhero", "formula_1", "european_football"];

/// FNV-1a-64 over length-framed fields.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length first, so adjacent fields cannot run into each other.
    fn text(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn texts(&mut self, items: &[String]) {
        self.u64(items.len() as u64);
        for s in items {
            self.text(s);
        }
    }

    fn cell(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(&[0]),
            Value::Integer(i) => {
                self.bytes(&[1]);
                self.bytes(&i.to_le_bytes());
            }
            Value::Real(r) => {
                self.bytes(&[2]);
                self.u64(r.to_bits());
            }
            Value::Text(s) => {
                self.bytes(&[3]);
                self.text(s);
            }
        }
    }
}

/// One line per table of `db`, in name order.
fn table_lines(out: &mut String, run: &str, domain: &str, form: &str, db: &Database) {
    for name in db.catalog().table_names() {
        let t = db.catalog().get(&name).unwrap();
        let mut h = Fnv::new();
        h.texts(&t.column_names());
        h.u64(t.primary_key.len() as u64);
        for &k in &t.primary_key {
            h.u64(k as u64);
        }
        for (slot, row) in t.rows().iter().enumerate() {
            for v in row.iter() {
                h.cell(v);
            }
            if t.has_primary_key() {
                assert_eq!(
                    t.pk_row_index(&t.pk_values_of(row)),
                    Some(slot as u32),
                    "{run} {domain} {form} {name}: row {slot} does not probe to its slot"
                );
            }
        }
        writeln!(out, "{run}\t{domain}\t{form}\t{name}\t{}\t{:016x}", t.len(), h.0).unwrap();
    }
}

/// One line each for the domain's facts, popularity, phrases and questions.
fn domain_lines(out: &mut String, run: &str, d: &DomainData) {
    let mut line = |what: &str, n: usize, h: Fnv| {
        writeln!(out, "{run}\t{}\t-\t{what}\t{n}\t{:016x}", d.name, h.0).unwrap();
    };
    let mut h = Fnv::new();
    for f in &d.facts {
        h.texts(&f.key);
        h.text(&f.attribute);
        match &f.value {
            KnownValue::One(v) => {
                h.bytes(&[0]);
                h.text(v);
            }
            KnownValue::Many(vs) => {
                h.bytes(&[1]);
                h.texts(vs);
            }
        }
    }
    line("facts", d.facts.len(), h);

    let mut h = Fnv::new();
    for (key, pop) in &d.popularity {
        h.texts(key);
        h.u64(pop.to_bits());
    }
    line("popularity", d.popularity.len(), h);

    let mut h = Fnv::new();
    for p in &d.phrases {
        h.text(&p.text);
        h.text(&p.attribute);
    }
    line("phrases", d.phrases.len(), h);

    let mut h = Fnv::new();
    for q in &d.questions {
        for s in [&q.id, &q.db, &q.text, &q.gold_sql, &q.hybrid_sql, &q.udf_sql] {
            h.text(s);
        }
        h.bytes(&[q.has_limit as u8]);
        h.texts(&q.attributes);
    }
    line("questions", d.questions.len(), h);
}

fn digest() -> String {
    let runs = [GenConfig::with_scale(0.05), GenConfig { scale: 0.25, seed: 7 }];
    let mut out = String::new();
    for cfg in runs {
        let run = format!("{}/{}", cfg.scale, cfg.seed);
        for name in DOMAINS {
            let d = SwanBenchmark::generate_domain(&cfg, name).unwrap();
            table_lines(&mut out, &run, name, "original", &d.original);
            table_lines(&mut out, &run, name, "curated", &d.curated);
            domain_lines(&mut out, &run, &d);
        }
    }
    out
}

#[test]
fn generated_data_matches_the_fixture() {
    let got = digest();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("writing {FIXTURE}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {FIXTURE}: {e}"));
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{FIXTURE} line {}: generated data moved (BLESS=1 regenerates it)", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{FIXTURE}: line count moved");
}

/// The columns the generators draw from a fixed list, per domain.
const FIXED_LIST_COLUMNS: &[(&str, &str, &[&str])] = &[
    ("california_schools", "schools", &["city", "county", "charter", "magnet", "district_name", "education_level", "doc_type"]),
    ("formula_1", "circuits", &["location", "country"]),
    ("formula_1", "drivers", &["nationality"]),
    ("formula_1", "constructors", &["nationality"]),
    ("european_football", "player", &["nationality", "birth_city"]),
    ("european_football", "player_attributes", &["season", "preferred_foot", "attacking_work_rate"]),
    ("european_football", "team_attributes", &["season", "build_up_play_speed_class", "defence_pressure_class"]),
    ("european_football", "match", &["season"]),
];

fn text_cell(v: &Value) -> &ThinStr {
    match v {
        Value::Text(s) => s,
        other => panic!("expected a text cell, got {other:?}"),
    }
}

#[test]
fn fixed_list_text_is_one_allocation_per_value_and_curation_shares_cells() {
    let cfg = GenConfig::with_scale(0.05);
    for name in DOMAINS {
        let d = SwanBenchmark::generate_domain(&cfg, name).unwrap();
        for (_, table, columns) in FIXED_LIST_COLUMNS.iter().filter(|(domain, ..)| *domain == name) {
            let t = d.original.catalog().get(table).unwrap();
            for column in *columns {
                let j = t.column_index(column).unwrap();
                let mut firsts: Vec<&ThinStr> = Vec::new();
                for row in t.rows().iter() {
                    let s = text_cell(&row[j]);
                    match firsts.iter().find(|f| f.as_str() == s.as_str()) {
                        Some(first) => assert!(
                            ThinStr::ptr_eq(first, s),
                            "{name}.{table}.{column}: {s:?} is held by more than one allocation"
                        ),
                        None => firsts.push(s),
                    }
                }
                // A value repeats, so the column has sharing to show.
                assert!(firsts.len() < t.len(), "{name}.{table}.{column}: no value repeats");
            }
        }
        for table in d.curated.catalog().table_names() {
            let (curated, Some(original)) = (d.curated.catalog().get(&table).unwrap(), d.original.catalog().get(&table))
            else {
                continue;
            };
            assert_eq!(curated.len(), original.len(), "{name}.{table}");
            for (k, column) in curated.column_names().iter().enumerate() {
                let j = original.column_index(column).unwrap();
                for (a, b) in curated.rows().iter().zip(original.rows().iter()) {
                    if let (Value::Text(x), Value::Text(y)) = (&a[k], &b[j]) {
                        assert!(ThinStr::ptr_eq(x, y), "{name}.{table}.{column}: a curated cell is a copy");
                    }
                }
            }
        }
    }
}
