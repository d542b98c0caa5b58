//! Property-based round-trip tests for the binary row codec
//! (`storage::encode_table` / `storage::decode_table`), the encoding the
//! write-ahead log persists every commit through.
//!
//! The central property: for *any* table — adversarial float bit
//! patterns (NaN payloads, `-0.0`, infinities), repeated interned text,
//! NULLs, zero-width rows (a table with no columns), with or without a
//! primary key — `decode(encode(t)) == t` structurally, the decode
//! consumes exactly the encoding, repeated text re-shares one `ThinStr`
//! allocation, and a decoded table with a primary key has a working
//! rebuilt index.

use proptest::prelude::*;
use proptest::TestRng;
use swan_sqlengine::storage::{decode_table, encode_table, TextInterner};
use swan_sqlengine::{Column, Table, ThinStr, Value};

/// A small pool of text values, deliberately repetitive so interning has
/// something to share, with a few adversarial shapes mixed in.
const TEXT_POOL: &[&str] = &[
    "", "a", "shared", "shared", "müller-lüdenscheidt", "0", "NULL", "line\nbreak", "πλάσμα",
];

/// Adversarial reals: NaN bit patterns (including a payload NaN), signed
/// zeros and infinities, denormals.
fn real_for(rng: &mut TestRng) -> f64 {
    match rng.next_u64() % 8 {
        0 => f64::NAN,
        1 => f64::from_bits(0x7FF8_0000_DEAD_BEEF), // payload NaN
        2 => -0.0,
        3 => 0.0,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        6 => f64::MIN_POSITIVE / 2.0, // subnormal
        _ => f64::from_bits(rng.next_u64()), // anything, NaNs included
    }
}

fn value_for(rng: &mut TestRng) -> Value {
    match rng.next_u64() % 4 {
        0 => Value::Null,
        1 => Value::Integer(rng.next_u64() as i64),
        2 => Value::Real(real_for(rng)),
        _ => Value::text(TEXT_POOL[(rng.next_u64() % TEXT_POOL.len() as u64) as usize]),
    }
}

/// Build a deterministic arbitrary table. With a primary key, column 0
/// is a unique integer id so constraints hold by construction.
fn table_for(seed: u64, ncols: usize, nrows: usize, with_pk: bool) -> Table {
    let mut rng = TestRng::seeded("prop_codec::table", seed);
    let with_pk = with_pk && ncols > 0;
    let columns: Vec<Column> = (0..ncols)
        .map(|i| {
            let decl = match rng.next_u64() % 3 {
                0 => None,
                1 => Some("INTEGER".to_string()),
                _ => Some("TEXT".to_string()),
            };
            Column { name: format!("c{i}"), decl_type: decl, not_null: false }
        })
        .collect();
    let pk: Vec<String> = if with_pk { vec!["c0".to_string()] } else { Vec::new() };
    let mut t = Table::new(format!("t{seed}"), columns, &pk).unwrap();
    for r in 0..nrows {
        let mut row: Vec<Value> = (0..ncols).map(|_| value_for(&mut rng)).collect();
        if with_pk {
            row[0] = Value::Integer(r as i64); // unique, never NULL
        }
        t.insert_row(row).unwrap();
    }
    t.version = rng.next_u64();
    t
}

proptest! {
    /// decode(encode(t)) == t, the decode consumes the whole buffer, and
    /// equal text cells share one allocation after decoding.
    #[test]
    fn table_codec_round_trips(
        seed in 0u64..u64::MAX,
        ncols in 0usize..5,
        nrows in 0usize..24,
        with_pk in 0u8..2,
    ) {
        let table = table_for(seed, ncols, nrows, with_pk == 1);

        let mut buf = Vec::new();
        encode_table(&mut buf, &table);
        let mut pos = 0;
        let mut interner = TextInterner::new();
        let back = decode_table(&buf, &mut pos, &mut interner).expect("decode");
        prop_assert_eq!(pos, buf.len(), "decode must consume the whole encoding");
        prop_assert!(back == table, "round trip must be lossless:\n{table:?}\nvs\n{back:?}");

        // Interning: any two equal text cells decode to the same allocation.
        let mut by_text: Vec<(&str, &ThinStr)> = Vec::new();
        for row in back.rows() {
            for v in row.iter() {
                if let Value::Text(s) = v {
                    match by_text.iter().find(|(t, _)| *t == s.as_ref()) {
                        Some((_, first)) => prop_assert!(
                            ThinStr::ptr_eq(first, s),
                            "equal text {s:?} must share one allocation"
                        ),
                        None => by_text.push((s.as_ref(), s)),
                    }
                }
            }
        }

        // A decoded primary key has a working rebuilt index.
        if with_pk == 1 && ncols > 0 && nrows > 0 {
            prop_assert!(back.find_by_pk(&[Value::Integer(0)]).is_some());
            prop_assert!(back.find_by_pk(&[Value::Integer(nrows as i64)]).is_none());
        }
    }

    /// Zero-width rows (a table with no columns) survive the round trip
    /// with their row count intact — the shape column-pruned COUNT(*)
    /// plans materialize.
    #[test]
    fn zero_width_tables_round_trip(nrows in 0usize..64, seed in 0u64..u64::MAX) {
        let mut t = Table::new("empty_shape", Vec::new(), &[]).unwrap();
        for _ in 0..nrows {
            t.insert_row(Vec::new()).unwrap();
        }
        t.version = seed;
        let mut buf = Vec::new();
        encode_table(&mut buf, &t);
        let mut pos = 0;
        let mut interner = TextInterner::new();
        let back = decode_table(&buf, &mut pos, &mut interner).expect("decode");
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(back.len(), nrows);
        prop_assert!(back == t);
    }

    /// Truncating an encoding anywhere must fail cleanly, never panic or
    /// yield a table (the WAL relies on this to reject torn frames whose
    /// checksum happens to be unlucky).
    #[test]
    fn truncated_encodings_are_rejected(
        seed in 0u64..u64::MAX,
        ncols in 1usize..4,
        nrows in 1usize..8,
    ) {
        let table = table_for(seed, ncols, nrows, true);
        let mut buf = Vec::new();
        encode_table(&mut buf, &table);
        let mut rng = TestRng::seeded("prop_codec::cut", seed);
        // A handful of random cuts per case (the exhaustive sweep lives
        // in the unit tests; this adds arbitrary-table coverage).
        for _ in 0..8 {
            let cut = (rng.next_u64() as usize) % buf.len();
            let mut pos = 0;
            let mut interner = TextInterner::new();
            prop_assert!(
                decode_table(&buf[..cut], &mut pos, &mut interner).is_err(),
                "a {cut}-byte prefix of a {}-byte encoding must not decode",
                buf.len()
            );
        }
    }
}
