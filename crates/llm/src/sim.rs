//! The simulated language model.
//!
//! [`SimulatedModel`] implements [`LanguageModel`] by parsing the prompt
//! (the same text a real LLM would see), consulting a
//! [`KnowledgeBase`] for ground truth, and passing every produced cell
//! through the calibrated [`NoiseModel`]. Temperature-0 behaviour is
//! modelled by full determinism: identical prompts yield identical
//! completions.

use std::sync::Arc;

use crate::knowledge::{AttrClass, KnowledgeBase, KnownValue};

use crate::model::{Completion, LanguageModel, LlmResult, ModelKind};
use crate::noise::{CellContext, FormatError, NoiseModel, Pathway};
use crate::prompt::{
    render_value_row, RowCompletionPrompt, UdfPrompt,
};
use crate::tokenizer::TokenCount;
use crate::usage::UsageMeter;

/// A language model simulated from a knowledge base + noise channel.
pub struct SimulatedModel {
    kind: ModelKind,
    kb: Arc<dyn KnowledgeBase>,
    noise: NoiseModel,
    meter: UsageMeter,
}

impl SimulatedModel {
    pub fn new(kind: ModelKind, kb: Arc<dyn KnowledgeBase>) -> Self {
        SimulatedModel { kind, kb, noise: NoiseModel::default(), meter: UsageMeter::new() }
    }

    /// Override the noise seed (ablations; default is the shared seed).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    fn answer_row_completion(&self, p: &RowCompletionPrompt) -> String {
        let shots = p.examples.len();
        let popularity = self.kb.popularity(&p.db, &p.target_key);
        let mut fields: Vec<String> = p.target_key.clone();

        for col in p.columns.iter().skip(p.key_len) {
            let prompt_list = p
                .value_lists
                .iter()
                .find(|(c, _)| c.eq_ignore_ascii_case(col))
                .map(|(_, vs)| vs.as_slice());
            let class = if prompt_list.is_some() {
                // A value list in the prompt makes this value selection,
                // unless the knowledge base says it is one-to-many.
                match self.kb.attribute_class(&p.db, col) {
                    AttrClass::MultiValue => AttrClass::MultiValue,
                    _ => AttrClass::ValueSelection,
                }
            } else {
                self.kb.attribute_class(&p.db, col)
            };
            let ctx = CellContext {
                model: self.kind,
                db: &p.db,
                key: &p.target_key,
                attribute: col,
                shots,
                class,
                popularity,
                batch_size: 1,
                pathway: Pathway::RowCompletion,
                key_hint: false,
            };
            let candidates = prompt_list.unwrap_or_else(|| self.kb.candidates(&p.db, col));
            let truth = self.kb.lookup(&p.db, &p.target_key, col);
            fields.push(self.emit_cell(&ctx, truth.as_ref(), candidates));
        }

        // Row-level format glitches (§5.3).
        let row_ctx = CellContext {
            model: self.kind,
            db: &p.db,
            key: &p.target_key,
            attribute: "__row__",
            shots,
            class: AttrClass::FreeForm,
            popularity,
            batch_size: 1,
            pathway: Pathway::RowCompletion,
            key_hint: false,
        };
        match self.noise.format_error(&row_ctx) {
            Some(FormatError::TooFewFields) => {
                fields.pop();
            }
            Some(FormatError::TooManyFields) => {
                fields.push(String::new());
            }
            Some(FormatError::EmptyField) if fields.len() > p.key_len => {
                let last = fields.len() - 1;
                fields[last] = String::new();
            }
            Some(FormatError::EmptyField) | None => {}
        }
        render_value_row(&fields)
    }

    fn answer_udf(&self, p: &UdfPrompt) -> String {
        let shots = p.examples.len();
        let batch = p.keys.len();
        // The question's attribute, its class and the candidate pool are
        // the same for every key of the prompt: resolve them once.
        let attribute = self.kb.resolve_question(&p.db, &p.question).map(|attr| {
            let class = match (self.kb.attribute_class(&p.db, &attr), &p.value_list) {
                (AttrClass::MultiValue, _) => AttrClass::MultiValue,
                (_, Some(_)) => AttrClass::ValueSelection,
                (class, None) => class,
            };
            let candidates = match &p.value_list {
                Some(values) => values.as_slice(),
                None => self.kb.candidates(&p.db, &attr),
            };
            (attr, class, candidates)
        });
        let mut lines = Vec::with_capacity(batch);
        for key in &p.keys {
            let line = match &attribute {
                None => "unknown".to_string(),
                Some((attr, class, candidates)) => {
                    let ctx = CellContext {
                        model: self.kind,
                        db: &p.db,
                        key,
                        attribute: attr,
                        shots,
                        class: *class,
                        popularity: self.kb.popularity(&p.db, key),
                        batch_size: batch,
                        pathway: Pathway::Udf,
                        key_hint: false,
                    };
                    let truth = self.kb.lookup(&p.db, key, attr);
                    self.emit_cell(&ctx, truth.as_ref(), candidates)
                }
            };
            lines.push(format!("'{}'", line.replace('\'', "''")));
        }
        // Batched responses occasionally lose a line in zero-shot (§5.4:
        // "processing multiple entries in a single call may lead to
        // inaccuracies in the returned data").
        if batch > 1 {
            let first_key = &p.keys[0];
            let ctx = CellContext {
                model: self.kind,
                db: &p.db,
                key: first_key,
                attribute: "__batch__",
                shots,
                class: AttrClass::FreeForm,
                popularity: 0.5,
                batch_size: batch,
                pathway: Pathway::Udf,
                key_hint: false,
            };
            if self.noise.format_error(&ctx) == Some(FormatError::TooFewFields) {
                lines.pop();
            }
        }
        lines.join("\n")
    }

    fn emit_cell(
        &self,
        ctx: &CellContext<'_>,
        truth: Option<&KnownValue>,
        candidates: &[String],
    ) -> String {
        // Key-hint detection: answers literally derivable from the key
        // text (codes, URLs, eponymous cities) are near-always right.
        let mut ctx = ctx.clone();
        if let Some(KnownValue::One(v)) = truth {
            ctx.key_hint = key_hints_at(ctx.key, v);
        }
        let ctx = &ctx;
        match truth {
            Some(KnownValue::One(v)) => self.noise.emit_single(ctx, v, candidates),
            Some(KnownValue::Many(vs)) => {
                self.noise.emit_many(ctx, vs, candidates).join(", ")
            }
            // The entity is outside the model's knowledge: hallucinate
            // from the candidate pool, or admit ignorance.
            None => {
                if candidates.is_empty() {
                    "unknown".to_string()
                } else {
                    self.noise.emit_single(ctx, &candidates[0], candidates)
                }
            }
        }
    }
}

/// Does the key text reveal `truth`? Compares alphanumeric-normalized
/// forms in both directions (key part inside the value covers URLs and
/// emails; value inside the key covers eponymous names).
fn key_hints_at(key: &[String], truth: &str) -> bool {
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

impl LanguageModel for SimulatedModel {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn complete(&self, prompt: &str) -> LlmResult<Completion> {
        let text = if RowCompletionPrompt::matches(prompt) {
            let p = RowCompletionPrompt::parse(prompt)?;
            self.answer_row_completion(&p)
        } else if UdfPrompt::matches(prompt) {
            let p = UdfPrompt::parse(prompt)?;
            self.answer_udf(&p)
        } else {
            // Out-of-format prompt: a real model would still answer; the
            // simulator degrades gracefully.
            "I don't have enough information to answer that.".to_string()
        };
        let tokens = TokenCount::of(prompt, &text);
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
    use crate::prompt::{parse_row, parse_udf_response, row_values, RowExample};

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
}
