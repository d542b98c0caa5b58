//! Prompt templates and their inverse parsers.
//!
//! Two prompt families, mirroring the paper:
//!
//! * [`RowCompletionPrompt`] — HQDL's schema-expansion prompt (§4.1.1):
//!   given the key attributes of one entity, the model fills in every
//!   missing column of the row ("Target Entry: 'A','B',?,?,…").
//! * [`UdfPrompt`] — the hybrid-query-UDF prompt (§4.2/§5.2): a natural
//!   language question plus a *batch* of keys (BlendSQL's default batch
//!   size is 5); the model answers one value per key.
//!
//! Because the repository's language model is a simulator, each template
//! has a strict `parse` inverse: render → text → parse must round-trip.
//! A real LLM sees exactly the same text.

use std::fmt::Write as _;

use crate::model::{LlmError, LlmResult};

// ---- quoted-CSV row handling ----------------------------------------------

/// One field of a quoted row: a value or a `?` placeholder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Field {
    Value(String),
    Missing,
}

/// Render fields as `'a', 'b''c', ?` (single quotes doubled).
pub fn render_row(fields: &[Field]) -> String {
    fields
        .iter()
        .map(|f| match f {
            Field::Value(v) => format!("'{}'", v.replace('\'', "''")),
            Field::Missing => "?".to_string(),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Render a row of plain values.
pub fn render_value_row(values: &[String]) -> String {
    let mut s = String::new();
    push_quoted_row(&mut s, values);
    s
}

/// Append `'v'` (single quotes doubled) to `out`.
fn push_quoted(out: &mut String, v: &str) {
    out.push('\'');
    for (i, part) in v.split('\'').enumerate() {
        if i > 0 {
            out.push_str("''");
        }
        out.push_str(part);
    }
    out.push('\'');
}

/// Append a row of plain values, `'a', 'b''c'`, to `out`.
fn push_quoted_row<S: AsRef<str>>(out: &mut String, values: &[S]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_quoted(out, v.as_ref());
    }
}

/// Append an entry row, `'k1', 'k2', ?, ?`: the key quoted, then `missing`
/// placeholders.
fn push_entry_row<S: AsRef<str>>(out: &mut String, key: &[S], missing: usize) {
    push_quoted_row(out, key);
    for i in 0..missing {
        if i > 0 || !key.is_empty() {
            out.push_str(", ");
        }
        out.push('?');
    }
}

/// Parse a quoted row. Tolerates unquoted bare fields (LLM sloppiness),
/// empty fields, and missing markers.
pub fn parse_row(line: &str) -> Vec<Field> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    let n = bytes.len();
    while i < n {
        // Skip leading whitespace.
        while i < n && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        if i >= n {
            // Trailing comma produced an empty final field.
            out.push(Field::Value(String::new()));
            break;
        }
        if bytes[i] == b'\'' {
            // Quoted field with '' escaping.
            let mut val = String::new();
            i += 1;
            loop {
                if i >= n {
                    break; // Unterminated quote: accept what we have.
                }
                if bytes[i] == b'\'' {
                    if i + 1 < n && bytes[i + 1] == b'\'' {
                        val.push('\'');
                        i += 2;
                    } else {
                        i += 1;
                        break;
                    }
                } else {
                    let len = utf8_len(bytes[i]);
                    val.push_str(&line[i..i + len]);
                    i += len;
                }
            }
            out.push(Field::Value(val));
            // Skip to the next comma.
            while i < n && bytes[i] != b',' {
                i += 1;
            }
        } else {
            // Bare field up to the next comma.
            let start = i;
            while i < n && bytes[i] != b',' {
                i += 1;
            }
            let raw = line[start..i].trim();
            if raw == "?" {
                out.push(Field::Missing);
            } else {
                out.push(Field::Value(raw.to_string()));
            }
        }
        if i < n && bytes[i] == b',' {
            i += 1;
            if i >= n {
                out.push(Field::Value(String::new()));
            }
        }
    }
    out
}

/// Extract the plain values of a parsed row (missing fields become empty).
pub fn row_values(fields: &[Field]) -> Vec<String> {
    fields
        .iter()
        .map(|f| match f {
            Field::Value(v) => v.clone(),
            Field::Missing => String::new(),
        })
        .collect()
}

#[inline]
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

// ---- row-completion prompt (HQDL) -----------------------------------------

/// A few-shot demonstration for row completion: the key fields and the
/// full answer row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowExample {
    pub key: Vec<String>,
    pub answer: Vec<String>,
}

/// The HQDL schema-expansion prompt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowCompletionPrompt {
    /// Database the entity lives in (e.g. `superhero`).
    pub db: String,
    /// Full column list of the expanded row, key columns first.
    pub columns: Vec<String>,
    /// How many leading columns form the key.
    pub key_len: usize,
    /// Value lists for value-selection columns (paper §3.3).
    pub value_lists: Vec<(String, Vec<String>)>,
    /// Few-shot demonstrations (0 = zero-shot).
    pub examples: Vec<RowExample>,
    /// Key values of the target entity.
    pub target_key: Vec<String>,
}

impl RowCompletionPrompt {
    /// The prompt text: [`render_head`](Self::render_head) followed by
    /// [`push_target`](Self::push_target) — the one definition of its bytes.
    pub fn render(&self) -> String {
        let mut s = Self::render_head(
            &self.db,
            &self.columns,
            self.key_len,
            self.value_lists.iter().map(|(col, values)| (col.as_str(), values.as_slice())),
            &self.examples,
        );
        Self::push_target(&mut s, &self.target_key, self.columns.len());
        s
    }

    /// Everything up to and including `Target Entry: ` — the part every
    /// entity of one expansion shares byte for byte, so a caller with many
    /// entities renders it once and appends each target to a copy.
    ///
    /// A `key_len` beyond the column list leaves the example entries with
    /// no `?` placeholder ([`parse`](Self::parse) rejects such a prompt).
    pub fn render_head<'a>(
        db: &str,
        columns: &[impl AsRef<str>],
        key_len: usize,
        value_lists: impl IntoIterator<Item = (&'a str, &'a [String])>,
        examples: &[RowExample],
    ) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("Your task is to fill in the missing values in the target entry from the `");
        s.push_str(db);
        s.push_str("` database.\nReturn a single row with no explanation.\nThe columns are: ");
        for (i, col) in columns.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push('`');
            s.push_str(col.as_ref());
            s.push('`');
        }
        s.push_str(".\n");
        for (col, values) in value_lists {
            s.push_str("The possible values for `");
            s.push_str(col);
            s.push_str("` are [");
            push_quoted_row(&mut s, values);
            s.push_str("].\n");
        }
        let missing = columns.len().saturating_sub(key_len);
        for ex in examples {
            s.push_str("Example Entry: ");
            push_entry_row(&mut s, &ex.key, missing);
            s.push_str("\nExample Answer: ");
            push_quoted_row(&mut s, &ex.answer);
            s.push('\n');
        }
        s.push_str("Target Entry: ");
        s
    }

    /// Append the target's entry row — its key, then `?` for each of the
    /// `width` columns the key does not cover (none when the key is wider
    /// than the row) — the field-count sentence and the closing `Answer:`
    /// to a rendered head.
    pub fn push_target(out: &mut String, key: &[impl AsRef<str>], width: usize) {
        push_entry_row(out, key, width.saturating_sub(key.len()));
        out.push_str("\nThe output should consist of a single row containing ");
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{width}");
        out.push_str(" fields.\nAnswer:");
    }

    /// Parse a rendered prompt back (the simulator's inverse).
    pub fn parse(text: &str) -> LlmResult<RowCompletionPrompt> {
        let mut db = None;
        let mut columns: Vec<String> = Vec::new();
        let mut value_lists = Vec::new();
        let mut examples: Vec<RowExample> = Vec::new();
        let mut pending_example_key: Option<Vec<String>> = None;
        let mut target_key = None;
        let mut key_len = 0usize;

        for line in text.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix(
                "Your task is to fill in the missing values in the target entry from the `",
            ) {
                db = rest.split('`').next().map(str::to_string);
            } else if let Some(rest) = line.strip_prefix("The columns are: ") {
                columns = rest
                    .trim_end_matches('.')
                    .split(',')
                    .map(|c| c.trim().trim_matches('`').to_string())
                    .filter(|c| !c.is_empty())
                    .collect();
            } else if let Some(rest) = line.strip_prefix("The possible values for `") {
                let mut parts = rest.splitn(2, "` are [");
                let col = parts.next().unwrap_or_default().to_string();
                let vals_raw = parts
                    .next()
                    .ok_or_else(|| LlmError::BadPrompt("malformed value list".into()))?
                    .trim_end_matches(['.', ']'].as_ref());
                let fields = parse_row(vals_raw);
                value_lists.push((col, row_values(&fields)));
            } else if let Some(rest) = line.strip_prefix("Example Entry: ") {
                let fields = parse_row(rest);
                let key: Vec<String> = fields
                    .iter()
                    .take_while(|f| matches!(f, Field::Value(_)))
                    .map(|f| match f {
                        Field::Value(v) => v.clone(),
                        Field::Missing => unreachable!(),
                    })
                    .collect();
                pending_example_key = Some(key);
            } else if let Some(rest) = line.strip_prefix("Example Answer: ") {
                let answer = row_values(&parse_row(rest));
                if let Some(key) = pending_example_key.take() {
                    examples.push(RowExample { key, answer });
                }
            } else if let Some(rest) = line.strip_prefix("Target Entry: ") {
                let fields = parse_row(rest);
                let key: Vec<String> = fields
                    .iter()
                    .take_while(|f| matches!(f, Field::Value(_)))
                    .map(|f| match f {
                        Field::Value(v) => v.clone(),
                        Field::Missing => unreachable!(),
                    })
                    .collect();
                key_len = key.len();
                target_key = Some(key);
            }
        }

        let db = db.ok_or_else(|| LlmError::BadPrompt("missing database line".into()))?;
        if columns.is_empty() {
            return Err(LlmError::BadPrompt("missing column list".into()));
        }
        let target_key =
            target_key.ok_or_else(|| LlmError::BadPrompt("missing target entry".into()))?;
        if key_len == 0 || key_len > columns.len() {
            return Err(LlmError::BadPrompt("target entry has no key fields".into()));
        }
        Ok(RowCompletionPrompt { db, columns, key_len, value_lists, examples, target_key })
    }

    /// Is this prompt in row-completion format? (cheap sniff)
    pub fn matches(text: &str) -> bool {
        text.starts_with("Your task is to fill in the missing values")
    }
}

// ---- UDF prompt (BlendSQL-style) ------------------------------------------

/// A question/answer demonstration pair for the UDF prompt (§5.2: "a
/// natural language question, an example database key, and the answer").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdfExample {
    pub key: Vec<String>,
    pub answer: String,
}

/// The hybrid-query-UDF prompt: one question, a batch of keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdfPrompt {
    pub db: String,
    /// The natural-language question, e.g. "What is the driver code?".
    pub question: String,
    /// Optional value list to select from.
    pub value_list: Option<Vec<String>>,
    /// Few-shot demonstrations.
    pub examples: Vec<UdfExample>,
    /// The batch of keys to answer for (BlendSQL default batch = 5).
    pub keys: Vec<Vec<String>>,
}

impl UdfPrompt {
    /// The prompt text: [`render_head`](Self::render_head) followed by
    /// [`push_keys`](Self::push_keys) — the one definition of its bytes.
    pub fn render(&self) -> String {
        let mut s =
            Self::render_head(&self.db, &self.question, self.value_list.as_deref(), &self.examples);
        Self::push_keys(&mut s, &self.keys);
        s
    }

    /// Everything up to and including the `Keys:` line — the part every
    /// chunk of one question's keys shares byte for byte, so a caller with
    /// many chunks renders it once and appends each chunk's keys to a copy.
    pub fn render_head(
        db: &str,
        question: &str,
        value_list: Option<&[String]>,
        examples: &[UdfExample],
    ) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("You are answering a question about entities in the `");
        s.push_str(db);
        s.push_str("` database.\nQuestion: ");
        s.push_str(question);
        s.push_str(
            "\nAnswer with exactly one value per key line, in order, with no explanation.\n",
        );
        if let Some(values) = value_list {
            s.push_str("The possible values are [");
            push_quoted_row(&mut s, values);
            s.push_str("].\n");
        }
        for ex in examples {
            s.push_str("Example Key: ");
            push_quoted_row(&mut s, &ex.key);
            s.push_str("\nExample Answer: ");
            push_quoted(&mut s, &ex.answer);
            s.push('\n');
        }
        s.push_str("Keys:\n");
        s
    }

    /// Append one line per key tuple and the closing `Answer:` to a
    /// rendered head.
    pub fn push_keys<K, S>(out: &mut String, keys: impl IntoIterator<Item = K>)
    where
        K: AsRef<[S]>,
        S: AsRef<str>,
    {
        for key in keys {
            push_quoted_row(out, key.as_ref());
            out.push('\n');
        }
        out.push_str("Answer:");
    }

    pub fn parse(text: &str) -> LlmResult<UdfPrompt> {
        let mut db = None;
        let mut question = None;
        let mut value_list = None;
        let mut examples: Vec<UdfExample> = Vec::new();
        let mut pending_key: Option<Vec<String>> = None;
        let mut keys = Vec::new();
        let mut in_keys = false;

        for line in text.lines() {
            let line = line.trim();
            if in_keys {
                if line == "Answer:" {
                    break;
                }
                if !line.is_empty() {
                    keys.push(row_values(&parse_row(line)));
                }
                continue;
            }
            if let Some(rest) =
                line.strip_prefix("You are answering a question about entities in the `")
            {
                db = rest.split('`').next().map(str::to_string);
            } else if let Some(rest) = line.strip_prefix("Question: ") {
                question = Some(rest.to_string());
            } else if let Some(rest) = line.strip_prefix("The possible values are [") {
                let vals_raw = rest.trim_end_matches(['.', ']'].as_ref());
                value_list = Some(row_values(&parse_row(vals_raw)));
            } else if let Some(rest) = line.strip_prefix("Example Key: ") {
                pending_key = Some(row_values(&parse_row(rest)));
            } else if let Some(rest) = line.strip_prefix("Example Answer: ") {
                if let Some(key) = pending_key.take() {
                    let answer = row_values(&parse_row(rest))
                        .into_iter()
                        .next()
                        .unwrap_or_default();
                    examples.push(UdfExample { key, answer });
                }
            } else if line == "Keys:" {
                in_keys = true;
            }
        }

        let db = db.ok_or_else(|| LlmError::BadPrompt("missing database line".into()))?;
        let question =
            question.ok_or_else(|| LlmError::BadPrompt("missing question line".into()))?;
        if keys.is_empty() {
            return Err(LlmError::BadPrompt("no keys in batch".into()));
        }
        Ok(UdfPrompt { db, question, value_list, examples, keys })
    }

    pub fn matches(text: &str) -> bool {
        text.starts_with("You are answering a question about entities in the `")
    }
}

/// Parse a UDF completion: one value per line, optionally quoted.
pub fn parse_udf_response(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|l| {
            row_values(&parse_row(l))
                .into_iter()
                .next()
                .unwrap_or_default()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_roundtrip() {
        let fields = vec![
            Field::Value("3-D Man".into()),
            Field::Value("Charles Chandler".into()),
            Field::Missing,
            Field::Value("it's".into()),
        ];
        let s = render_row(&fields);
        assert_eq!(s, "'3-D Man', 'Charles Chandler', ?, 'it''s'");
        assert_eq!(parse_row(&s), fields);
    }

    #[test]
    fn parse_row_tolerates_bare_fields() {
        let fields = parse_row("Marvel Comics, 'Good', ?");
        assert_eq!(
            fields,
            vec![
                Field::Value("Marvel Comics".into()),
                Field::Value("Good".into()),
                Field::Missing,
            ]
        );
    }

    #[test]
    fn parse_row_handles_empty_and_unicode() {
        assert_eq!(parse_row(""), Vec::<Field>::new());
        let f = parse_row("'héro — ok', ''");
        assert_eq!(f[0], Field::Value("héro — ok".into()));
        assert_eq!(f[1], Field::Value("".into()));
    }

    fn sample_prompt() -> RowCompletionPrompt {
        RowCompletionPrompt {
            db: "superhero".into(),
            columns: vec![
                "superhero_name".into(),
                "full_name".into(),
                "publisher_name".into(),
                "moral_alignment".into(),
            ],
            key_len: 2,
            value_lists: vec![(
                "publisher_name".into(),
                vec!["Marvel Comics".into(), "DC Comics".into()],
            )],
            examples: vec![RowExample {
                key: vec!["3-D Man".into(), "Charles Chandler".into()],
                answer: vec![
                    "3-D Man".into(),
                    "Charles Chandler".into(),
                    "Marvel Comics".into(),
                    "Good".into(),
                ],
            }],
            target_key: vec!["Batman".into(), "Bruce Wayne".into()],
        }
    }

    #[test]
    fn row_completion_render_parse_roundtrip() {
        let p = sample_prompt();
        let text = p.render();
        assert!(RowCompletionPrompt::matches(&text));
        assert!(!UdfPrompt::matches(&text));
        let back = RowCompletionPrompt::parse(&text).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn zero_shot_prompt_has_no_examples() {
        let mut p = sample_prompt();
        p.examples.clear();
        let text = p.render();
        assert!(!text.contains("Example"));
        assert_eq!(RowCompletionPrompt::parse(&text).unwrap().examples.len(), 0);
    }

    #[test]
    fn prompt_text_matches_paper_shape() {
        let text = sample_prompt().render();
        assert!(text.contains("fill in the missing values"));
        assert!(text.contains("Return a single row with no explanation."), "No-Explanation rule");
        assert!(text.contains("The possible values for `publisher_name`"));
        assert!(text.contains("Target Entry: 'Batman', 'Bruce Wayne', ?, ?"));
        assert!(text.ends_with("Answer:"));
    }

    fn sample_udf_prompt() -> UdfPrompt {
        UdfPrompt {
            db: "formula_1".into(),
            question: "What is the driver code?".into(),
            value_list: None,
            examples: vec![UdfExample {
                key: vec!["Lewis Hamilton".into()],
                answer: "HAM".into(),
            }],
            keys: vec![
                vec!["Max Verstappen".into()],
                vec!["Fernando Alonso".into()],
            ],
        }
    }

    #[test]
    fn udf_render_parse_roundtrip() {
        let p = sample_udf_prompt();
        let text = p.render();
        assert!(UdfPrompt::matches(&text));
        assert!(!RowCompletionPrompt::matches(&text));
        let back = UdfPrompt::parse(&text).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn udf_prompt_with_value_list_roundtrip() {
        let mut p = sample_udf_prompt();
        p.value_list = Some(vec!["Marvel Comics".into(), "DC Comics".into()]);
        let back = UdfPrompt::parse(&p.render()).unwrap();
        assert_eq!(back.value_list, p.value_list);
    }

    #[test]
    fn udf_response_parsing() {
        let vals = parse_udf_response("'VER'\n'ALO'\n");
        assert_eq!(vals, vec!["VER", "ALO"]);
        let vals = parse_udf_response("plain\n'quoted'");
        assert_eq!(vals, vec!["plain", "quoted"]);
        assert!(parse_udf_response("").is_empty());
    }

    #[test]
    fn composite_keys_roundtrip() {
        let mut p = sample_udf_prompt();
        p.keys = vec![vec!["Spider-Man".into(), "Peter Parker".into()]];
        let back = UdfPrompt::parse(&p.render()).unwrap();
        assert_eq!(back.keys[0], vec!["Spider-Man".to_string(), "Peter Parker".to_string()]);
    }

    /// `UdfPrompt::render` as it read before it was split into
    /// `render_head` + `push_keys`: the reference for the prompt's bytes.
    fn reference_render(p: &UdfPrompt) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "You are answering a question about entities in the `{}` database.\n",
            p.db
        ));
        s.push_str(&format!("Question: {}\n", p.question));
        s.push_str("Answer with exactly one value per key line, in order, with no explanation.\n");
        if let Some(values) = &p.value_list {
            let vals: Vec<String> =
                values.iter().map(|v| format!("'{}'", v.replace('\'', "''"))).collect();
            s.push_str(&format!("The possible values are [{}].\n", vals.join(", ")));
        }
        for ex in &p.examples {
            let key: Vec<Field> = ex.key.iter().map(|k| Field::Value(k.clone())).collect();
            s.push_str(&format!("Example Key: {}\n", render_row(&key)));
            s.push_str(&format!("Example Answer: '{}'\n", ex.answer.replace('\'', "''")));
        }
        s.push_str("Keys:\n");
        for k in &p.keys {
            let key: Vec<Field> = k.iter().map(|k| Field::Value(k.clone())).collect();
            s.push_str(&format!("{}\n", render_row(&key)));
        }
        s.push_str("Answer:");
        s
    }

    /// Cell text with everything the quoting has to survive: quotes,
    /// commas, leading and trailing spaces, non-ASCII, the empty string.
    const CELL: &str = "[ a-zA-Z0-9',.?é—漢-]{0,10}";

    proptest::proptest! {
        /// The head rendered once plus each chunk's keys is, byte for byte,
        /// what `render()` always produced, and parses back to its inputs.
        #[test]
        fn head_plus_keys_is_the_prompt(
            db in "[a-z_0-9]{1,12}",
            question in "\\[q[0-9]{2}\\] [A-Za-z0-9?', é—]{1,40}",
            list_kind in 0usize..3,
            values in proptest::collection::vec(CELL, 1..5),
            examples in proptest::collection::vec(
                (proptest::collection::vec(CELL, 1..3), CELL),
                0..4,
            ),
            keys in proptest::collection::vec(proptest::collection::vec(CELL, 1..4), 1..7),
        ) {
            let question = question.trim().to_string();
            proptest::prop_assume!(!question.is_empty());
            let p = UdfPrompt {
                db,
                question,
                value_list: match list_kind {
                    0 => None,
                    1 => Some(Vec::new()),
                    _ => Some(values),
                },
                examples: examples
                    .into_iter()
                    .map(|(key, answer)| UdfExample { key, answer })
                    .collect(),
                keys,
            };
            let mut text =
                UdfPrompt::render_head(&p.db, &p.question, p.value_list.as_deref(), &p.examples);
            UdfPrompt::push_keys(&mut text, &p.keys);
            proptest::prop_assert_eq!(&text, &reference_render(&p));
            proptest::prop_assert_eq!(&text, &p.render());
            proptest::prop_assert_eq!(UdfPrompt::parse(&text).unwrap(), p);
        }
    }

    /// `RowCompletionPrompt::render` as it read before it was split into
    /// `render_head` + `push_target`: the reference for the prompt's bytes.
    fn reference_row_render(p: &RowCompletionPrompt) -> String {
        fn entry_row(p: &RowCompletionPrompt, key: &[String]) -> String {
            let mut fields: Vec<Field> = key.iter().map(|k| Field::Value(k.clone())).collect();
            fields.extend(std::iter::repeat_n(Field::Missing, p.columns.len() - p.key_len));
            render_row(&fields)
        }
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "Your task is to fill in the missing values in the target entry from the `{}` database.\n",
            p.db
        ));
        s.push_str("Return a single row with no explanation.\n");
        let cols: Vec<String> = p.columns.iter().map(|c| format!("`{c}`")).collect();
        s.push_str(&format!("The columns are: {}.\n", cols.join(", ")));
        for (col, values) in &p.value_lists {
            let vals: Vec<String> =
                values.iter().map(|v| format!("'{}'", v.replace('\'', "''"))).collect();
            s.push_str(&format!(
                "The possible values for `{col}` are [{}].\n",
                vals.join(", ")
            ));
        }
        for ex in &p.examples {
            s.push_str(&format!("Example Entry: {}\n", entry_row(p, &ex.key)));
            s.push_str(&format!("Example Answer: {}\n", render_value_row(&ex.answer)));
        }
        s.push_str(&format!("Target Entry: {}\n", entry_row(p, &p.target_key)));
        s.push_str(&format!(
            "The output should consist of a single row containing {} fields.\n",
            p.columns.len()
        ));
        s.push_str("Answer:");
        s
    }

    const COLUMN: &str = "[a-z_][a-z_0-9]{0,8}";

    proptest::proptest! {
        /// The head rendered once plus each entity's target is, byte for
        /// byte, what `render()` always produced, and parses back to its
        /// inputs.
        #[test]
        fn head_plus_target_is_the_prompt(
            db in "[a-z_0-9]{1,12}",
            key_len in 1usize..4,
            key_columns in proptest::collection::vec(COLUMN, 3..4),
            generated in proptest::collection::vec(COLUMN, 1..5),
            value_lists in proptest::collection::vec(
                (COLUMN, proptest::collection::vec(CELL, 0..5)),
                0..4,
            ),
            examples in proptest::collection::vec(
                (proptest::collection::vec(CELL, 3..4), proptest::collection::vec(CELL, 1..6)),
                0..6,
            ),
            target_key in proptest::collection::vec(CELL, 3..4),
        ) {
            let mut columns = key_columns[..key_len].to_vec();
            columns.extend(generated);
            let p = RowCompletionPrompt {
                db,
                columns,
                key_len,
                value_lists,
                examples: examples
                    .into_iter()
                    .map(|(key, answer)| RowExample { key: key[..key_len].to_vec(), answer })
                    .collect(),
                target_key: target_key[..key_len].to_vec(),
            };
            let mut text = RowCompletionPrompt::render_head(
                &p.db,
                &p.columns,
                p.key_len,
                p.value_lists.iter().map(|(col, values)| (col.as_str(), values.as_slice())),
                &p.examples,
            );
            RowCompletionPrompt::push_target(&mut text, &p.target_key, p.columns.len());
            proptest::prop_assert_eq!(&text, &reference_row_render(&p));
            proptest::prop_assert_eq!(&text, &p.render());
            proptest::prop_assert_eq!(RowCompletionPrompt::parse(&text).unwrap(), p);
        }
    }

    /// Regression: `key_len` beyond the column list made the `?` count
    /// `columns.len() - key_len` underflow — a panic in debug, 2^64 − k
    /// placeholders in release. It saturates: no placeholders, and the
    /// prompt is one `parse` rejects.
    #[test]
    fn render_saturates_when_the_key_is_wider_than_the_row() {
        let mut p = sample_prompt();
        p.columns.truncate(1);
        p.key_len = 3;
        let text = p.render();
        assert!(text.contains("Example Entry: '3-D Man', 'Charles Chandler'\n"));
        assert!(text.contains("Target Entry: 'Batman', 'Bruce Wayne'\n"));
        assert!(text.contains("containing 1 fields."));
        assert!(!text.contains('?'));
        assert!(RowCompletionPrompt::parse(&text).is_err());
    }

    #[test]
    fn malformed_prompts_error() {
        assert!(RowCompletionPrompt::parse("nonsense").is_err());
        assert!(UdfPrompt::parse("Question: hmm").is_err());
    }
}
