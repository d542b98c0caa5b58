//! The knowledge-base abstraction behind the simulated language model.
//!
//! A real LLM answers beyond-database questions from its pre-training
//! corpus. The simulator answers them from a [`KnowledgeBase`] — ground
//! truth (in the benchmark: the *original*, un-curated databases) passed
//! through the calibrated noise channel in [`crate::noise`]. DESIGN.md
//! documents this substitution; everything downstream of the
//! [`LanguageModel`](crate::model::LanguageModel) trait is agnostic to it.

use std::collections::HashMap;

/// How an attribute's values behave, which drives both prompt construction
/// and the error model (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrClass {
    /// Value must be chosen from a closed list (e.g. publisher names).
    /// Easier for LLMs: the list is in the prompt.
    ValueSelection,
    /// Open-ended generation (e.g. a school URL). Harder.
    FreeForm,
    /// One key maps to a set of values (e.g. a hero's powers); evaluated
    /// with F1 rather than exact match.
    MultiValue,
}

/// A ground-truth answer for one (entity, attribute) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KnownValue {
    /// Single value (possibly empty when the original cell was NULL).
    One(String),
    /// One-to-many relationship: the full set of values.
    Many(Vec<String>),
}

impl KnownValue {
    /// Flatten to display text the way HQDL condenses one-to-many values
    /// (comma-separated, §4.1 "Data Extraction").
    pub fn condensed(&self) -> String {
        match self {
            KnownValue::One(v) => v.clone(),
            KnownValue::Many(vs) => vs.join(", "),
        }
    }
}

/// World knowledge the simulated model can consult.
///
/// Keys are the "meaningful keys" the benchmark curates for LLM
/// consumption (§3.4): human-readable attribute combinations, never
/// surrogate integer ids.
pub trait KnowledgeBase: Send + Sync {
    /// Ground truth for `attribute` of the entity identified by `key`
    /// within database `db`. `None` when the entity is unknown.
    fn lookup(&self, db: &str, key: &[String], attribute: &str) -> Option<KnownValue>;

    /// Map a natural-language question to the attribute it asks about
    /// (the simulator's stand-in for language understanding). Paraphrases
    /// of the same question resolve to the same attribute.
    fn resolve_question(&self, db: &str, question: &str) -> Option<String>;

    /// Popularity of the entity in [0, 1]; 1 = extremely well-known.
    /// Models the paper's observation (§5.3) that LLMs are more accurate
    /// on prominent, high-socioeconomic-status entities.
    fn popularity(&self, db: &str, key: &[String]) -> f64;

    /// The value class of an attribute.
    fn attribute_class(&self, db: &str, attribute: &str) -> AttrClass;

    /// Plausible-but-possibly-wrong candidate values for an attribute
    /// (used to draw hallucinated answers). Borrowed: the simulator asks
    /// for the pool once per generated cell.
    fn candidates(&self, db: &str, attribute: &str) -> &[String];
}

/// What [`StaticKnowledge`] holds about one database. Every map is keyed by
/// an owned `String` / `Vec<String>` and probed with the borrowed `&str` /
/// `&[String]` a [`KnowledgeBase`] call hands in, so a probe allocates
/// nothing.
#[derive(Debug, Default)]
struct DbKnowledge {
    /// attribute → key tuple → ground truth.
    facts: HashMap<String, HashMap<Vec<String>, KnownValue>>,
    /// normalized question → attribute.
    questions: HashMap<String, String>,
    popularity: HashMap<Vec<String>, f64>,
    classes: HashMap<String, AttrClass>,
    candidates: HashMap<String, Vec<String>>,
}

/// An in-memory [`KnowledgeBase`] built from explicit facts; the benchmark
/// crates construct one from the original databases, and unit tests build
/// small ones by hand.
#[derive(Debug, Default)]
pub struct StaticKnowledge {
    dbs: HashMap<String, DbKnowledge>,
}

impl StaticKnowledge {
    pub fn new() -> Self {
        Self::default()
    }

    fn db_mut(&mut self, db: &str) -> &mut DbKnowledge {
        if !self.dbs.contains_key(db) {
            self.dbs.insert(db.to_string(), DbKnowledge::default());
        }
        self.dbs.get_mut(db).expect("just inserted")
    }

    pub fn add_fact(
        &mut self,
        db: &str,
        key: &[String],
        attribute: &str,
        value: KnownValue,
    ) -> &mut Self {
        let facts = &mut self.db_mut(db).facts;
        if !facts.contains_key(attribute) {
            facts.insert(attribute.to_string(), HashMap::new());
        }
        facts.get_mut(attribute).expect("just inserted").insert(key.to_vec(), value);
        self
    }

    pub fn add_question(&mut self, db: &str, question: &str, attribute: &str) -> &mut Self {
        self.db_mut(db).questions.insert(normalize_question(question), attribute.to_string());
        self
    }

    pub fn set_popularity(&mut self, db: &str, key: &[String], pop: f64) -> &mut Self {
        self.db_mut(db).popularity.insert(key.to_vec(), pop.clamp(0.0, 1.0));
        self
    }

    pub fn set_class(&mut self, db: &str, attribute: &str, class: AttrClass) -> &mut Self {
        self.db_mut(db).classes.insert(attribute.to_string(), class);
        self
    }

    pub fn set_candidates(&mut self, db: &str, attribute: &str, cands: Vec<String>) -> &mut Self {
        self.db_mut(db).candidates.insert(attribute.to_string(), cands);
        self
    }

    /// Number of stored facts (diagnostics).
    pub fn fact_count(&self) -> usize {
        self.dbs.values().flat_map(|d| d.facts.values()).map(HashMap::len).sum()
    }
}

/// Normalize question text so paraphrases with identical wording modulo
/// case/punctuation/whitespace resolve identically.
pub fn normalize_question(q: &str) -> String {
    // A leading "[tag]" marks which benchmark question a phrasing came
    // from; it is metadata, not language — resolution ignores it.
    let q = match (q.trim_start().strip_prefix('['), q.find(']')) {
        (Some(_), Some(end)) => &q[end + 1..],
        _ => q,
    };
    let mut out = String::with_capacity(q.len());
    let mut last_space = true;
    for ch in q.chars() {
        if ch.is_alphanumeric() {
            out.extend(ch.to_lowercase());
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

impl KnowledgeBase for StaticKnowledge {
    fn lookup(&self, db: &str, key: &[String], attribute: &str) -> Option<KnownValue> {
        self.dbs.get(db)?.facts.get(attribute)?.get(key).cloned()
    }

    fn resolve_question(&self, db: &str, question: &str) -> Option<String> {
        self.dbs.get(db)?.questions.get(&normalize_question(question)).cloned()
    }

    fn popularity(&self, db: &str, key: &[String]) -> f64 {
        self.dbs.get(db).and_then(|d| d.popularity.get(key)).copied().unwrap_or(0.5)
    }

    fn attribute_class(&self, db: &str, attribute: &str) -> AttrClass {
        self.dbs
            .get(db)
            .and_then(|d| d.classes.get(attribute))
            .copied()
            .unwrap_or(AttrClass::FreeForm)
    }

    fn candidates(&self, db: &str, attribute: &str) -> &[String] {
        self.dbs.get(db).and_then(|d| d.candidates.get(attribute)).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> StaticKnowledge {
        let mut kb = StaticKnowledge::new();
        let key = vec!["Spider-Man".to_string(), "Peter Parker".to_string()];
        kb.add_fact("superhero", &key, "publisher_name", KnownValue::One("Marvel Comics".into()));
        kb.add_fact(
            "superhero",
            &key,
            "powers",
            KnownValue::Many(vec!["Agility".into(), "Wall Crawling".into()]),
        );
        kb.add_question("superhero", "Which publisher is the hero from?", "publisher_name");
        kb.set_popularity("superhero", &key, 0.95);
        kb.set_class("superhero", "publisher_name", AttrClass::ValueSelection);
        kb.set_class("superhero", "powers", AttrClass::MultiValue);
        kb.set_candidates(
            "superhero",
            "publisher_name",
            vec!["Marvel Comics".into(), "DC Comics".into()],
        );
        kb
    }

    #[test]
    fn lookup_roundtrip() {
        let kb = kb();
        let key = vec!["Spider-Man".to_string(), "Peter Parker".to_string()];
        assert_eq!(
            kb.lookup("superhero", &key, "publisher_name"),
            Some(KnownValue::One("Marvel Comics".into()))
        );
        assert_eq!(kb.lookup("superhero", &key, "missing"), None);
        assert_eq!(kb.lookup("other_db", &key, "publisher_name"), None);
    }

    #[test]
    fn question_resolution_is_punctuation_insensitive() {
        let kb = kb();
        for q in [
            "Which publisher is the hero from?",
            "which publisher is the hero from",
            "  Which  publisher, is the hero from?! ",
        ] {
            assert_eq!(
                kb.resolve_question("superhero", q).as_deref(),
                Some("publisher_name"),
                "{q}"
            );
        }
        assert_eq!(kb.resolve_question("superhero", "What color is it?"), None);
    }

    #[test]
    fn normalize_question_examples() {
        assert_eq!(normalize_question("Is the hero TALL?"), "is the hero tall");
        assert_eq!(normalize_question("a--b  c"), "a b c");
        assert_eq!(normalize_question(""), "");
    }

    #[test]
    fn defaults_for_unknown_entities() {
        let kb = kb();
        let nobody = vec!["Nobody".to_string()];
        assert_eq!(kb.popularity("superhero", &nobody), 0.5);
        assert_eq!(kb.attribute_class("superhero", "unknown"), AttrClass::FreeForm);
        assert!(kb.candidates("superhero", "unknown").is_empty());
    }

    #[test]
    fn condensed_joins_multivalues() {
        assert_eq!(
            KnownValue::Many(vec!["A".into(), "B".into()]).condensed(),
            "A, B"
        );
        assert_eq!(KnownValue::One("X".into()).condensed(), "X");
    }

    #[test]
    fn popularity_clamped() {
        let mut kb = StaticKnowledge::new();
        kb.set_popularity("d", &["k".to_string()], 7.0);
        assert_eq!(kb.popularity("d", &["k".to_string()]), 1.0);
    }
}
