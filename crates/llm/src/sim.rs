//! The simulated language model.
//!
//! [`SimulatedModel`] implements [`LanguageModel`] by parsing the prompt
//! (the same text a real LLM would see), consulting a
//! [`KnowledgeBase`] for ground truth, and passing every produced cell
//! through the calibrated [`NoiseModel`]. Temperature-0 behaviour is
//! modelled by full determinism: identical prompts yield identical
//! completions.
//!
//! What a call parses is the prompt's *new* bytes. The prompts of one HQDL
//! expansion share everything up to their `Target Entry:` line, and the
//! chunks of one UDF question everything through `Keys:`; the model keeps
//! the last few such heads — exact bytes, parsed state, token count — and
//! on a byte-equal head parses and tokenizes only the tail (the target or
//! key lines, the field-count sentence, `Answer:`). A remembered UDF head
//! also holds what its question resolves to in the knowledge base — the
//! attribute and the class its cells are answered as — so that is looked
//! up once per head, not once per call. A head it has not seen, a prompt
//! with no head, or a tail line that would change head state goes through
//! the full `parse`, which resolves the question on every call; either way
//! the completion and the token count are the ones the full parse gives.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use swan_pool::lockrank;

use crate::knowledge::{AttrClass, Entity, KnowledgeBase, KnownValue};

use crate::model::{Completion, LanguageModel, LlmResult, ModelKind};
use crate::noise::{CellContext, FormatError, NoiseModel, Pathway};
use crate::prompt::{push_quoted, RowCompletionPrompt, RowHead, UdfHead, UdfPrompt};
use crate::tokenizer::{count_tokens, TokenCount};
use crate::usage::UsageMeter;

/// How many distinct heads a model remembers per prompt family: one per
/// HQDL expansion or UDF question in flight, with room for workers that
/// interleave a few.
const HEADS: usize = 8;

/// A prompt head the model has read: its exact bytes, what they parse to
/// and how many tokens they count for. The head ends in `\n`, so the
/// prompt's count is this one plus its tail's.
struct Head<T> {
    text: Box<str>,
    tokens: u64,
    parsed: T,
}

/// The last [`HEADS`] distinct heads of one prompt family, oldest first.
struct HeadMemo<T>(Mutex<VecDeque<Arc<Head<T>>>>);

impl<T> HeadMemo<T> {
    fn new() -> Self {
        HeadMemo(Mutex::with_rank("sim_heads", lockrank::SIM_HEADS, VecDeque::new()))
    }

    /// The parsed head of a split prompt, the tail read against it, and
    /// the prompt's input tokens. A head whose bytes are not remembered is
    /// parsed and remembered. `None` — the caller runs the full parse —
    /// when there is no split, or `parse` or `tail` declines its part.
    fn read<X>(
        &self,
        split: Option<(&str, &str)>,
        parse: impl FnOnce(&str) -> Option<T>,
        tail: impl FnOnce(&T, &str) -> Option<X>,
    ) -> Option<(Arc<Head<T>>, X, u64)> {
        let (text, rest) = split?;
        let find =
            |heads: &VecDeque<Arc<Head<T>>>| heads.iter().find(|h| *h.text == *text).cloned();
        let hit = find(&self.0.lock());
        let head = match hit {
            Some(head) => head,
            None => {
                let head = Arc::new(Head {
                    parsed: parse(text)?,
                    tokens: count_tokens(text),
                    text: text.into(),
                });
                let mut heads = self.0.lock();
                // A worker missing on the same head meanwhile remembered it.
                match find(&heads) {
                    Some(theirs) => theirs,
                    None => {
                        if heads.len() == HEADS {
                            heads.pop_front();
                        }
                        heads.push_back(head.clone());
                        head
                    }
                }
            }
        };
        let read = tail(&head.parsed, rest)?;
        let tokens = head.tokens + count_tokens(rest);
        Some((head, read, tokens))
    }
}

/// A parsed UDF head and what its question resolves to: the attribute and
/// the class its cells are answered as, `None` when the knowledge base
/// cannot resolve it.
struct UdfMemo {
    head: UdfHead,
    attribute: Option<(String, AttrClass)>,
}

/// A language model simulated from a knowledge base + noise channel.
pub struct SimulatedModel {
    kind: ModelKind,
    kb: Arc<dyn KnowledgeBase>,
    noise: NoiseModel,
    meter: UsageMeter,
    row_heads: HeadMemo<RowHead>,
    udf_heads: HeadMemo<UdfMemo>,
}

impl SimulatedModel {
    pub fn new(kind: ModelKind, kb: Arc<dyn KnowledgeBase>) -> Self {
        SimulatedModel {
            kind,
            kb,
            noise: NoiseModel::default(),
            meter: UsageMeter::new(),
            row_heads: HeadMemo::new(),
            udf_heads: HeadMemo::new(),
        }
    }

    /// Override the noise seed (ablations; default is the shared seed).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The completion text and input tokens of `prompt`, read through a
    /// remembered head. `None` when the full parse has to read it.
    fn answer_from_head(&self, prompt: &str) -> Option<LlmResult<(String, u64)>> {
        if RowCompletionPrompt::matches(prompt) {
            let split = RowCompletionPrompt::split(prompt);
            let (head, target_key, input) =
                self.row_heads.read(split, RowHead::parse, RowHead::target)?;
            Some(target_key.map(|key| (self.answer_row_completion(&head.parsed, &key), input)))
        } else if UdfPrompt::matches(prompt) {
            let split = UdfPrompt::split(prompt);
            let parse = |text: &str| {
                let head = UdfHead::parse(text)?;
                Some(UdfMemo { attribute: self.resolve(&head), head })
            };
            let (memo, keys, input) =
                self.udf_heads.read(split, parse, |_, tail| Some(UdfHead::keys(tail)))?;
            let UdfMemo { head, attribute } = &memo.parsed;
            let attribute = attribute.as_ref().map(|(attr, class)| (attr.as_str(), *class));
            Some(keys.map(|keys| (self.answer_udf(head, attribute, &keys), input)))
        } else {
            None
        }
    }

    /// The completion text and input tokens of `prompt`, read by the full
    /// parse.
    fn answer_parsed(&self, prompt: &str) -> LlmResult<(String, u64)> {
        let text = if RowCompletionPrompt::matches(prompt) {
            let (head, target_key) = RowHead::parse_prompt(prompt)?;
            self.answer_row_completion(&head, &target_key)
        } else if UdfPrompt::matches(prompt) {
            let (head, keys) = UdfHead::parse_prompt(prompt)?;
            let attribute = self.resolve(&head);
            let attribute = attribute.as_ref().map(|(attr, class)| (attr.as_str(), *class));
            self.answer_udf(&head, attribute, &keys)
        } else {
            // Out-of-format prompt: a real model would still answer; the
            // simulator degrades gracefully.
            "I don't have enough information to answer that.".to_string()
        };
        Ok((text, count_tokens(prompt)))
    }

    /// Answer a row prompt whose head is `p` and whose target entry's key
    /// is `target_key`: the key's length is the prompt's `key_len`. One
    /// knowledge probe gives every cell the entity's popularity and truth,
    /// and each field is written into the completion as it is drawn.
    fn answer_row_completion(&self, p: &RowHead, target_key: &[String]) -> String {
        let shots = p.examples.len();
        let key_len = target_key.len();
        let entity = self.kb.entity(&p.db, target_key);
        let popularity = entity.map_or(0.5, Entity::popularity);
        let cell = |attribute, class| CellContext {
            model: self.kind,
            db: &p.db,
            key: target_key,
            attribute,
            shots,
            class,
            popularity,
            batch_size: 1,
            pathway: Pathway::RowCompletion,
            key_hint: false,
        };

        // Row-level format glitches (§5.3) draw on the row, not on its
        // cells, so they are drawn first and decide which fields are
        // written: the target's key never exceeds the column list.
        let width = p.columns.len();
        let glitch = self.noise.format_error(&cell("__row__", AttrClass::FreeForm));
        let (written, blank_last) = match glitch {
            Some(FormatError::TooFewFields) => (width - 1, false),
            Some(FormatError::EmptyField) => (width, width > key_len),
            _ => (width, false),
        };
        let mut out = String::with_capacity(24 * width);
        for (i, col) in p.columns.iter().enumerate().take(written) {
            if i > 0 {
                out.push_str(", ");
            }
            if i < key_len {
                push_quoted(&mut out, &target_key[i]);
                continue;
            }
            if blank_last && i + 1 == width {
                out.push_str("''");
                continue;
            }
            let prompt_list = p
                .value_lists
                .iter()
                .find(|(c, _)| c.eq_ignore_ascii_case(col))
                .map(|(_, vs)| vs.as_slice());
            let candidates = prompt_list.unwrap_or_else(|| self.kb.candidates(&p.db, col));
            let class = self.class(&p.db, col, prompt_list.is_some());
            let truth = entity.and_then(|e| e.fact(col));
            self.push_cell(&mut out, cell(col, class), truth, candidates);
        }
        if glitch == Some(FormatError::TooManyFields) {
            out.push_str(", ''");
        }
        out
    }

    /// What the question of UDF head `p` resolves to: its attribute and
    /// the class its cells are answered as.
    fn resolve(&self, p: &UdfHead) -> Option<(String, AttrClass)> {
        let attr = self.kb.resolve_question(&p.db, &p.question)?;
        let class = self.class(&p.db, &attr, p.value_list.is_some());
        Some((attr, class))
    }

    /// Answer a UDF prompt whose head is `p` and whose question resolves to
    /// `attribute` (see [`resolve`](Self::resolve)) for each of `keys`, one
    /// quoted line per key written into the completion as it is drawn.
    fn answer_udf(
        &self,
        p: &UdfHead,
        attribute: Option<(&str, AttrClass)>,
        keys: &[Vec<String>],
    ) -> String {
        let shots = p.examples.len();
        let batch = keys.len();
        // The candidate pool is the same for every key of the prompt.
        let attribute = attribute.map(|(attr, class)| {
            let candidates = match &p.value_list {
                Some(values) => values.as_slice(),
                None => self.kb.candidates(&p.db, attr),
            };
            (attr, class, candidates)
        });
        // Batched responses occasionally lose their last line in zero-shot
        // (§5.4: "processing multiple entries in a single call may lead to
        // inaccuracies in the returned data"). Drawn first, so a line that
        // is lost is never drawn.
        let lost_line = batch > 1 && {
            let ctx = CellContext {
                model: self.kind,
                db: &p.db,
                key: &keys[0],
                attribute: "__batch__",
                shots,
                class: AttrClass::FreeForm,
                popularity: 0.5,
                batch_size: batch,
                pathway: Pathway::Udf,
                key_hint: false,
            };
            self.noise.format_error(&ctx) == Some(FormatError::TooFewFields)
        };
        let answered = &keys[..batch - usize::from(lost_line)];
        let mut out = String::with_capacity(24 * batch);
        for (i, key) in answered.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            let Some((attr, class, candidates)) = attribute else {
                push_quoted(&mut out, "unknown");
                continue;
            };
            let entity = self.kb.entity(&p.db, key);
            let ctx = CellContext {
                model: self.kind,
                db: &p.db,
                key,
                attribute: attr,
                shots,
                class,
                popularity: entity.map_or(0.5, Entity::popularity),
                batch_size: batch,
                pathway: Pathway::Udf,
                key_hint: false,
            };
            self.push_cell(&mut out, ctx, entity.and_then(|e| e.fact(attr)), candidates);
        }
        out
    }

    /// The class a cell is answered as: one-to-many when the knowledge
    /// base says so, value selection when the prompt lists the values,
    /// else the knowledge base's class.
    fn class(&self, db: &str, attribute: &str, listed: bool) -> AttrClass {
        match self.kb.attribute_class(db, attribute) {
            AttrClass::MultiValue => AttrClass::MultiValue,
            _ if listed => AttrClass::ValueSelection,
            class => class,
        }
    }

    /// Append the model's answer for one cell, quoted, to `out`.
    fn push_cell(
        &self,
        out: &mut String,
        ctx: CellContext<'_>,
        truth: Option<&KnownValue>,
        candidates: &[String],
    ) {
        match truth {
            // Key-hint detection: answers literally derivable from the key
            // text (codes, URLs, eponymous cities) are near-always right.
            Some(KnownValue::One(v)) => {
                let ctx = CellContext { key_hint: key_hints_at(ctx.key, v), ..ctx };
                push_quoted(out, &self.noise.emit_single(&ctx, v, candidates));
            }
            Some(KnownValue::Many(vs)) => {
                push_quoted(out, &self.noise.emit_many(&ctx, vs, candidates).join(", "));
            }
            // The entity is outside the model's knowledge: hallucinate
            // from the candidate pool, or admit ignorance.
            None => match candidates.first() {
                Some(first) => push_quoted(out, &self.noise.emit_single(&ctx, first, candidates)),
                None => push_quoted(out, "unknown"),
            },
        }
    }
}

/// Does the key text reveal `truth`? Compares alphanumeric-normalized
/// forms in both directions (key part inside the value covers URLs and
/// emails; value inside the key covers eponymous names). The normalized
/// forms are streamed, never built.
fn key_hints_at(key: &[String], truth: &str) -> bool {
    let truth_len = normalized(truth).count();
    if truth_len < 3 {
        return false;
    }
    if contains(key.iter().flat_map(|k| normalized(k)), normalized(truth)) {
        return true;
    }
    key.iter().any(|k| {
        let len = normalized(k).count();
        (4..=truth_len).contains(&len) && contains(normalized(truth), normalized(k))
    })
}

/// The ASCII alphanumerics of `s`, lowercased.
fn normalized(s: &str) -> impl Iterator<Item = u8> + Clone + '_ {
    s.bytes().filter(u8::is_ascii_alphanumeric).map(|b| b.to_ascii_lowercase())
}

/// Does `needle` occur in `hay` as a contiguous run?
fn contains(
    mut hay: impl Iterator<Item = u8> + Clone,
    needle: impl Iterator<Item = u8> + Clone,
) -> bool {
    loop {
        let mut at = hay.clone();
        if needle.clone().all(|b| at.next() == Some(b)) {
            return true;
        }
        if hay.next().is_none() {
            return false;
        }
    }
}

impl LanguageModel for SimulatedModel {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn complete(&self, prompt: &str) -> LlmResult<Completion> {
        let (text, input) = match self.answer_from_head(prompt) {
            Some(answered) => answered?,
            None => self.answer_parsed(prompt)?,
        };
        let tokens = TokenCount { input, output: count_tokens(&text) };
        self.meter.record(tokens);
        Ok(Completion { text, tokens })
    }

    fn usage_meter(&self) -> &UsageMeter {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::StaticKnowledge;
    use crate::prompt::{
        parse_row, parse_udf_response, row_values, RowExample, UdfExample, CELL, COLUMN,
    };

    fn kb() -> Arc<StaticKnowledge> {
        let mut kb = StaticKnowledge::new();
        let publishers = vec![
            "Marvel Comics".to_string(),
            "DC Comics".to_string(),
            "Dark Horse Comics".to_string(),
        ];
        for (hero, full, publisher, pop) in [
            ("Spider-Man", "Peter Parker", "Marvel Comics", 0.97),
            ("Batman", "Bruce Wayne", "DC Comics", 0.98),
            ("Hellboy", "Anung Un Rama", "Dark Horse Comics", 0.6),
            ("Obscure Hero", "Jane Doe", "Dark Horse Comics", 0.03),
        ] {
            let key = vec![hero.to_string(), full.to_string()];
            kb.add_fact("superhero", &key, "publisher_name", KnownValue::One(publisher.into()));
            kb.set_popularity("superhero", &key, pop);
        }
        kb.set_class("superhero", "publisher_name", AttrClass::ValueSelection);
        kb.set_candidates("superhero", "publisher_name", publishers);
        kb.add_question("superhero", "Which publisher is the superhero from?", "publisher_name");
        Arc::new(kb)
    }

    fn row_prompt(hero: &str, full: &str, shots: usize) -> String {
        let examples = (0..shots)
            .map(|_| RowExample {
                key: vec!["3-D Man".into(), "Charles Chandler".into()],
                answer: vec![
                    "3-D Man".into(),
                    "Charles Chandler".into(),
                    "Marvel Comics".into(),
                ],
            })
            .collect();
        RowCompletionPrompt {
            db: "superhero".into(),
            columns: vec!["superhero_name".into(), "full_name".into(), "publisher_name".into()],
            key_len: 2,
            value_lists: vec![(
                "publisher_name".into(),
                vec!["Marvel Comics".into(), "DC Comics".into(), "Dark Horse Comics".into()],
            )],
            examples,
            target_key: vec![hero.into(), full.into()],
        }
        .render()
    }

    #[test]
    fn popular_heroes_answered_correctly_with_shots() {
        let m = SimulatedModel::new(ModelKind::Gpt4Turbo, kb());
        let c = m.complete(&row_prompt("Batman", "Bruce Wayne", 5)).unwrap();
        let vals = row_values(&parse_row(&c.text));
        assert_eq!(vals[0], "Batman");
        assert_eq!(vals[2], "DC Comics", "0.98-popularity entity at 5-shot should be right");
    }

    #[test]
    fn temperature_zero_determinism() {
        let m = SimulatedModel::new(ModelKind::Gpt35Turbo, kb());
        let p = row_prompt("Hellboy", "Anung Un Rama", 1);
        assert_eq!(m.complete(&p).unwrap().text, m.complete(&p).unwrap().text);
    }

    #[test]
    fn usage_accumulates() {
        let m = SimulatedModel::new(ModelKind::Gpt35Turbo, kb());
        let p = row_prompt("Batman", "Bruce Wayne", 0);
        m.complete(&p).unwrap();
        m.complete(&p).unwrap();
        let u = m.usage();
        assert_eq!(u.calls, 2);
        assert!(u.input_tokens > u.output_tokens, "prompt much longer than row");
    }

    #[test]
    fn five_shot_prompts_cost_more_input_tokens() {
        let m = SimulatedModel::new(ModelKind::Gpt35Turbo, kb());
        let c0 = m.complete(&row_prompt("Batman", "Bruce Wayne", 0)).unwrap();
        let c5 = m.complete(&row_prompt("Batman", "Bruce Wayne", 5)).unwrap();
        assert!(c5.tokens.input > c0.tokens.input);
    }

    #[test]
    fn udf_prompt_answers_per_key() {
        let m = SimulatedModel::new(ModelKind::Gpt4Turbo, kb());
        let p = UdfPrompt {
            db: "superhero".into(),
            question: "Which publisher is the superhero from?".into(),
            value_list: Some(vec![
                "Marvel Comics".into(),
                "DC Comics".into(),
                "Dark Horse Comics".into(),
            ]),
            examples: vec![],
            keys: vec![
                vec!["Batman".into(), "Bruce Wayne".into()],
                vec!["Spider-Man".into(), "Peter Parker".into()],
            ],
        };
        let c = m.complete(&p.render()).unwrap();
        let vals = parse_udf_response(&c.text);
        // A zero-shot batch may drop a line; at minimum one answer returns
        // and every answer is from the candidate pool.
        assert!(!vals.is_empty() && vals.len() <= 2);
        for v in &vals {
            assert!(
                ["Marvel Comics", "DC Comics", "Dark Horse Comics"].contains(&v.as_str()),
                "{v}"
            );
        }
    }

    #[test]
    fn unresolvable_question_yields_unknown() {
        let m = SimulatedModel::new(ModelKind::Gpt4Turbo, kb());
        let p = UdfPrompt {
            db: "superhero".into(),
            question: "What is the hero's favourite food?".into(),
            value_list: None,
            examples: vec![],
            keys: vec![vec!["Batman".into(), "Bruce Wayne".into()]],
        };
        let c = m.complete(&p.render()).unwrap();
        assert_eq!(parse_udf_response(&c.text), vec!["unknown"]);
    }

    #[test]
    fn off_template_prompt_degrades_gracefully() {
        let m = SimulatedModel::new(ModelKind::Gpt35Turbo, kb());
        let c = m.complete("Tell me a joke about databases.").unwrap();
        assert!(c.text.contains("don't have enough information"));
        assert!(c.tokens.input > 0);
    }

    #[test]
    fn accuracy_improves_with_shots_in_aggregate() {
        // Over many obscure entities, 5-shot must beat 0-shot.
        let mut kb = StaticKnowledge::new();
        let cands: Vec<String> = (0..6).map(|i| format!("Publisher {i}")).collect();
        kb.set_candidates("superhero", "publisher_name", cands.clone());
        kb.set_class("superhero", "publisher_name", AttrClass::ValueSelection);
        for i in 0..300 {
            let key = vec![format!("Hero {i}"), format!("Person {i}")];
            kb.add_fact(
                "superhero",
                &key,
                "publisher_name",
                KnownValue::One(cands[i % cands.len()].clone()),
            );
        }
        let kb = Arc::new(kb);
        let m = SimulatedModel::new(ModelKind::Gpt35Turbo, kb);
        let correct_at = |shots: usize| {
            (0..300)
                .filter(|i| {
                    let p = RowCompletionPrompt {
                        db: "superhero".into(),
                        columns: vec![
                            "superhero_name".into(),
                            "full_name".into(),
                            "publisher_name".into(),
                        ],
                        key_len: 2,
                        value_lists: vec![("publisher_name".into(), cands.clone())],
                        examples: (0..shots)
                            .map(|_| RowExample {
                                key: vec!["E".into(), "F".into()],
                                answer: vec!["E".into(), "F".into(), cands[0].clone()],
                            })
                            .collect(),
                        target_key: vec![format!("Hero {i}"), format!("Person {i}")],
                    };
                    let c = m.complete(&p.render()).unwrap();
                    let vals = row_values(&parse_row(&c.text));
                    vals.get(2).map(String::as_str) == Some(cands[i % cands.len()].as_str())
                })
                .count()
        };
        let zero = correct_at(0);
        let five = correct_at(5);
        assert!(
            five > zero + 20,
            "5-shot ({five}/300) should clearly beat 0-shot ({zero}/300)"
        );
    }

    /// What `complete` returns when the full parse reads `prompt`.
    fn by_parse(m: &SimulatedModel, prompt: &str) -> LlmResult<Completion> {
        m.answer_parsed(prompt).map(|(text, input)| Completion {
            tokens: TokenCount { input, output: count_tokens(&text) },
            text,
        })
    }

    const HEROES: [(&str, &str); 4] = [
        ("Spider-Man", "Peter Parker"),
        ("Batman", "Bruce Wayne"),
        ("Hellboy", "Anung Un Rama"),
        ("Obscure Hero", "Jane Doe"),
    ];

    fn publishers() -> Vec<String> {
        vec!["Marvel Comics".into(), "DC Comics".into(), "Dark Horse Comics".into()]
    }

    /// Head `i` of a row family: its own column, so no two heads are equal.
    fn row_head(
        i: usize,
        db_kind: usize,
        key_len: usize,
        extra: &[String],
        shots: usize,
    ) -> String {
        let mut columns: Vec<String> =
            vec!["superhero_name".into(), "full_name".into(), "publisher_name".into()];
        columns.extend(extra.iter().cloned());
        columns.push(format!("c{i}"));
        let examples: Vec<RowExample> = (0..shots)
            .map(|s| RowExample {
                key: vec![HEROES[s].0.into(), HEROES[s].1.into()],
                answer: vec![HEROES[s].0.into(), HEROES[s].1.into(), "Marvel Comics".into()],
            })
            .collect();
        let list = publishers();
        RowCompletionPrompt::render_head(
            if db_kind == 0 { "superhero" } else { "elsewhere" },
            &columns,
            key_len,
            (db_kind < 2).then_some(("publisher_name", list.as_slice())),
            &examples,
        )
    }

    /// Head `i` of a UDF family: a value list or an example of its own.
    fn udf_head(i: usize, db_kind: usize, answerable: bool, listed: bool) -> String {
        let question = if answerable {
            "Which publisher is the superhero from?"
        } else {
            "What is the hero's favourite food?"
        };
        let mut list = publishers();
        list.push(format!("Publisher {i}"));
        let examples = if listed {
            Vec::new()
        } else {
            vec![UdfExample { key: vec![format!("Hero {i}")], answer: "DC Comics".into() }]
        };
        UdfPrompt::render_head(
            if db_kind == 0 { "superhero" } else { "elsewhere" },
            question,
            listed.then_some(list.as_slice()),
            &examples,
        )
    }

    /// A line after a tail's last that changes head state, or (kinds 6
    /// and up) none.
    fn tail_stray(kind: usize, cell: &str) -> String {
        let quoted = format!("'{}'", cell.replace('\'', "''"));
        match kind {
            0 => format!("\nThe columns are: `superhero_name`, `{cell}x`."),
            1 => "\nYour task is to fill in the missing values in the target entry from the `elsewhere` database.".into(),
            2 => format!("\nThe possible values for `publisher_name` are [{quoted}]."),
            3 => format!("\nExample Entry: {quoted}, ?\nExample Answer: {quoted}, 'x'"),
            4 => format!("\n  Target Entry: 'Batman', {quoted}, ?"),
            5 => "\nThe possible values for `publisher_name`".into(),
            _ => String::new(),
        }
    }

    proptest::proptest! {
        /// A long-lived model — row and UDF calls interleaved over more
        /// distinct heads than it remembers, each head repeated — answers
        /// every prompt with the text and token count of a fresh model
        /// (always a miss) and of the full parse. A target's key length
        /// varies under one head, and some tails carry a line that changes
        /// head state.
        #[test]
        fn remembered_heads_answer_as_the_full_parse_does(
            row_heads in proptest::collection::vec(
                (0usize..3, 1usize..4, proptest::collection::vec(COLUMN, 0..3), 0usize..3),
                HEADS + 2..HEADS + 5,
            ),
            udf_heads in proptest::collection::vec((0usize..2, 0usize..2, 0usize..2), HEADS + 2..HEADS + 5),
            calls in proptest::collection::vec(
                (0usize..2, 0usize..64, proptest::collection::vec(0usize..5, 1..6), 0usize..12, CELL),
                1..48,
            ),
        ) {
            let kb = kb();
            let long = SimulatedModel::new(ModelKind::Gpt35Turbo, kb.clone());
            let row_heads: Vec<String> = row_heads
                .iter()
                .enumerate()
                .map(|(i, (db, key_len, extra, shots))| row_head(i, *db, *key_len, extra, *shots))
                .collect();
            let udf_heads: Vec<String> = udf_heads
                .iter()
                .enumerate()
                .map(|(i, (db, answerable, listed))| udf_head(i, *db, *answerable == 1, *listed == 1))
                .collect();
            for (family, pick, entities, stray, cell) in calls {
                // Entity 4 is no hero: the cell stands in for both names.
                let key_of = |e: usize| match HEROES.get(e) {
                    Some((hero, full)) => vec![hero.to_string(), full.to_string()],
                    None => vec![cell.clone(), cell.clone()],
                };
                let prompt = if family == 0 {
                    let mut prompt = row_heads[pick % row_heads.len()].clone();
                    // The target's key length is the entity list's — not
                    // the head's, and past the column list at five.
                    let mut key = key_of(entities[0]);
                    key.extend(entities.iter().skip(1).map(|e| format!("{cell}{e}")));
                    key.truncate(entities.len());
                    RowCompletionPrompt::push_target(&mut prompt, &key, 5);
                    prompt.push_str(&tail_stray(stray, &cell));
                    prompt
                } else {
                    let mut prompt = udf_heads[pick % udf_heads.len()].clone();
                    let keys: Vec<Vec<String>> = entities.iter().map(|&e| key_of(e)).collect();
                    UdfPrompt::push_keys(&mut prompt, &keys);
                    prompt
                };
                let expected = by_parse(&long, &prompt);
                let fresh = SimulatedModel::new(ModelKind::Gpt35Turbo, kb.clone());
                proptest::prop_assert_eq!(&fresh.complete(&prompt), &expected, "fresh: {}", prompt);
                proptest::prop_assert_eq!(&long.complete(&prompt), &expected, "long-lived: {}", prompt);
            }
        }
    }

    /// `key_hints_at` as it read when it built each normalized form as a
    /// `String`: the reference for the streamed comparison.
    fn reference_key_hints_at(key: &[String], truth: &str) -> bool {
        fn norm(s: &str) -> String {
            s.chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .map(|c| c.to_ascii_lowercase())
                .collect()
        }
        let t = norm(truth);
        if t.len() < 3 {
            return false;
        }
        let joined = norm(&key.join(" "));
        if joined.contains(&t) {
            return true;
        }
        key.iter().any(|k| {
            let kn = norm(k);
            kn.len() >= 4 && t.contains(&kn)
        })
    }

    /// Key text: ASCII and non-ASCII letters, digits, separators.
    const KEY_TEXT: &str = "[ a-cA-C0-9.'é漢—-]{0,9}";

    proptest::proptest! {
        /// Streaming the normalized forms decides what building them did:
        /// one- and multi-part keys, ASCII and non-ASCII text, truths that
        /// hold a key part, sit inside the joined key, or neither.
        #[test]
        fn streamed_key_hints_match_the_built_strings(
            key in proptest::collection::vec(KEY_TEXT, 1..4),
            truth in KEY_TEXT,
            kind in 0usize..4,
            part in 0usize..4,
            from in 0usize..12,
            len in 0usize..12,
        ) {
            let part = &key[part % key.len()];
            let truth = match kind {
                0 => truth,
                1 => format!("www.{part}{truth}.edu"),
                2 => {
                    let joined: Vec<char> = key.join(" ").chars().collect();
                    let from = from.min(joined.len());
                    joined[from..(from + len).min(joined.len())].iter().collect()
                }
                _ => part.to_uppercase(),
            };
            proptest::prop_assert_eq!(
                key_hints_at(&key, &truth),
                reference_key_hints_at(&key, &truth),
                "{:?} / {:?}",
                key,
                truth
            );
        }
    }

    #[test]
    fn key_hints_examples() {
        let key = |parts: &[&str]| parts.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        // Key part inside the value (URL), value inside the key (eponymous).
        assert!(key_hints_at(&key(&["Lincoln High"]), "www.LincolnHigh.edu"));
        assert!(key_hints_at(&key(&["Fresno Unified", "Fresno"]), "fresno"));
        // Across a part boundary: the joined key is one run.
        assert!(key_hints_at(&key(&["Max", "Verstappen"]), "xVe"));
        assert!(!key_hints_at(&key(&["Max", "Verstappen"]), "VE"), "under three");
        assert!(!key_hints_at(&key(&["Ann"]), "www.ann.org"), "a part under four");
        assert!(!key_hints_at(&key(&["Spider-Man"]), "Marvel Comics"));
    }

    #[test]
    fn prompts_the_split_cannot_read_exactly_fall_back_to_the_full_parse() {
        let m = SimulatedModel::new(ModelKind::Gpt4Turbo, kb());
        let row = row_prompt("Batman", "Bruce Wayne", 2);
        let udf = UdfPrompt {
            db: "superhero".into(),
            question: "Which publisher is the superhero from?".into(),
            value_list: Some(publishers()),
            examples: vec![],
            keys: vec![
                vec!["Batman".into(), "Bruce Wayne".into()],
                vec!["Hellboy".into(), "Anung Un Rama".into()],
            ],
        }
        .render();
        // Both heads remembered, so a case that reads split is a hit.
        assert!(m.answer_from_head(&row).is_some());
        assert!(m.answer_from_head(&udf).is_some());

        let spider = "Target Entry: 'Spider-Man', 'Peter Parker', ?";
        // (case, prompt, whether it falls back to the full parse)
        let cases = [
            (
                "an example after the target",
                row.replace(
                    "\nAnswer:",
                    "\nExample Entry: 'Hellboy', 'Anung Un Rama', ?\n\
                     Example Answer: 'Hellboy', 'Anung Un Rama', 'Dark Horse Comics'\nAnswer:",
                ),
                true,
            ),
            (
                "a column list after the target",
                format!("{row}\nThe columns are: `superhero_name`, `full_name`, `x`, `y`."),
                true,
            ),
            (
                "an indented target entry before the real one: in the head",
                row.replace("Target Entry: ", &format!("  {spider}\nTarget Entry: ")),
                true,
            ),
            (
                "an indented second target entry: in the tail, and the last one wins",
                row.replace("\nThe output", &format!("\n  {spider}\nThe output")),
                false,
            ),
            (
                "an indented Keys: before the real one",
                udf.replace("Keys:\n", "  Keys:\n'x'\nKeys:\n"),
                true,
            ),
            (
                "a second Keys: among the keys is a key",
                udf.replace("\nAnswer:", "\nKeys:\nAnswer:"),
                false,
            ),
            (
                "\\r\\n line endings: the UDF split needs a bare `Keys:\\n`",
                udf.replace('\n', "\r\n"),
                true,
            ),
            (
                "\\r\\n line endings: the row split cuts after the `\\n`",
                row.replace('\n', "\r\n"),
                false,
            ),
            (
                "a head with no database line",
                row.replace("from the `superhero` database", "from the superhero database"),
                true,
            ),
        ];
        for (case, prompt, falls_back) in &cases {
            assert_eq!(m.answer_from_head(prompt).is_none(), *falls_back, "{case}");
            assert_eq!(m.complete(prompt), by_parse(&m, prompt), "{case}");
        }
        assert_eq!(
            m.complete(&cases[8].1),
            Err(crate::model::LlmError::BadPrompt("missing database line".into()))
        );
        assert!(by_parse(&m, &cases[3].1).unwrap().text.starts_with("'Spider-Man'"));
    }
}
