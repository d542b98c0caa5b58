//! The knowledge-base abstraction behind the simulated language model.
//!
//! A real LLM answers beyond-database questions from its pre-training
//! corpus. The simulator answers them from a [`KnowledgeBase`] — ground
//! truth (in the benchmark: the *original*, un-curated databases) passed
//! through the calibrated noise channel in [`crate::noise`]. DESIGN.md
//! documents this substitution; everything downstream of the
//! [`LanguageModel`](crate::model::LanguageModel) trait is agnostic to it.
//!
//! [`StaticKnowledge`] keeps one entity map per database, keyed by the key
//! tuple and hashed with the workspace's
//! [`FxHasher`](swan_pool::hash::FxHasher). An [`Entity`] holds the
//! entity's popularity and its attribute → fact list, so the one probe the
//! simulator makes per entity gives every cell of it both the popularity
//! the noise channel reads and the truth it distorts.

use swan_pool::hash::FxHashMap;

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

/// What a knowledge base holds about one entity: its popularity and its
/// facts, at most one per attribute.
#[derive(Debug, Default)]
pub struct Entity {
    popularity: Option<f64>,
    facts: Vec<(String, KnownValue)>,
}

impl Entity {
    /// Popularity in [0, 1]; 0.5 when none was set.
    pub fn popularity(&self) -> f64 {
        self.popularity.unwrap_or(0.5)
    }

    /// Ground truth for `attribute`.
    pub fn fact(&self, attribute: &str) -> Option<&KnownValue> {
        self.facts.iter().find(|(a, _)| a == attribute).map(|(_, v)| v)
    }
}

/// World knowledge the simulated model can consult.
///
/// Keys are the "meaningful keys" the benchmark curates for LLM
/// consumption (§3.4): human-readable attribute combinations, never
/// surrogate integer ids.
pub trait KnowledgeBase: Send + Sync {
    /// The entity identified by `key` within database `db` — its
    /// popularity and facts in one probe. `None` when nothing is known
    /// about it.
    fn entity(&self, db: &str, key: &[String]) -> Option<&Entity>;

    /// Ground truth for `attribute` of the entity identified by `key`
    /// within database `db`. `None` when the entity or the fact is unknown.
    fn lookup(&self, db: &str, key: &[String], attribute: &str) -> Option<&KnownValue> {
        self.entity(db, key)?.fact(attribute)
    }

    /// Map a natural-language question to the attribute it asks about
    /// (the simulator's stand-in for language understanding). Paraphrases
    /// of the same question resolve to the same attribute.
    fn resolve_question(&self, db: &str, question: &str) -> Option<String>;

    /// Popularity of the entity in [0, 1]; 1 = extremely well-known.
    /// Models the paper's observation (§5.3) that LLMs are more accurate
    /// on prominent, high-socioeconomic-status entities.
    fn popularity(&self, db: &str, key: &[String]) -> f64 {
        self.entity(db, key).map_or(0.5, Entity::popularity)
    }

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
    /// key tuple → popularity and facts.
    entities: FxHashMap<Vec<String>, Entity>,
    /// normalized question → attribute.
    questions: FxHashMap<String, String>,
    classes: FxHashMap<String, AttrClass>,
    candidates: FxHashMap<String, Vec<String>>,
}

impl DbKnowledge {
    fn entity_mut(&mut self, key: &[String]) -> &mut Entity {
        if !self.entities.contains_key(key) {
            self.entities.insert(key.to_vec(), Entity::default());
        }
        self.entities.get_mut(key).expect("just inserted")
    }
}

/// An in-memory [`KnowledgeBase`] built from explicit facts; the benchmark
/// crates construct one from the original databases, and unit tests build
/// small ones by hand.
#[derive(Debug, Default)]
pub struct StaticKnowledge {
    dbs: FxHashMap<String, DbKnowledge>,
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

    /// Record `value` as the truth of `attribute` for `key`; a later fact
    /// for the same key and attribute replaces it.
    pub fn add_fact(
        &mut self,
        db: &str,
        key: &[String],
        attribute: &str,
        value: KnownValue,
    ) -> &mut Self {
        let facts = &mut self.db_mut(db).entity_mut(key).facts;
        match facts.iter_mut().find(|(a, _)| a == attribute) {
            Some((_, known)) => *known = value,
            None => facts.push((attribute.to_string(), value)),
        }
        self
    }

    pub fn add_question(&mut self, db: &str, question: &str, attribute: &str) -> &mut Self {
        self.db_mut(db).questions.insert(normalize_question(question), attribute.to_string());
        self
    }

    pub fn set_popularity(&mut self, db: &str, key: &[String], pop: f64) -> &mut Self {
        self.db_mut(db).entity_mut(key).popularity = Some(pop.clamp(0.0, 1.0));
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
        self.dbs.values().flat_map(|d| d.entities.values()).map(|e| e.facts.len()).sum()
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
    fn entity(&self, db: &str, key: &[String]) -> Option<&Entity> {
        self.dbs.get(db)?.entities.get(key)
    }

    fn resolve_question(&self, db: &str, question: &str) -> Option<String> {
        self.dbs.get(db)?.questions.get(&normalize_question(question)).cloned()
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
            Some(&KnownValue::One("Marvel Comics".into()))
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

    #[test]
    fn a_second_fact_for_the_same_cell_wins() {
        let mut kb = StaticKnowledge::new();
        let key = vec!["k".to_string(), "é漢".to_string()];
        kb.add_fact("d", &key, "a", KnownValue::One("first".into()));
        kb.add_fact("d", &key, "b", KnownValue::One("other".into()));
        kb.add_fact("d", &key, "a", KnownValue::Many(vec!["second".into()]));
        assert_eq!(kb.lookup("d", &key, "a"), Some(&KnownValue::Many(vec!["second".into()])));
        assert_eq!(kb.lookup("d", &key, "b"), Some(&KnownValue::One("other".into())));
        assert_eq!(kb.fact_count(), 2);
    }

    #[test]
    fn an_entity_with_only_a_popularity_has_no_facts() {
        let mut kb = StaticKnowledge::new();
        let key = vec!["k".to_string()];
        kb.set_popularity("d", &key, 0.9);
        assert!(kb.entity("d", &key).is_some());
        assert_eq!(kb.lookup("d", &key, "a"), None);
        assert_eq!(kb.popularity("d", &key), 0.9);
        assert_eq!(kb.fact_count(), 0);
    }

    #[test]
    fn a_fact_with_no_popularity_reads_as_average() {
        let mut kb = StaticKnowledge::new();
        let key = vec!["k".to_string()];
        kb.add_fact("d", &key, "a", KnownValue::One("v".into()));
        assert_eq!(kb.popularity("d", &key), 0.5);
        // Setting it afterwards keeps the fact.
        kb.set_popularity("d", &key, 0.2);
        assert_eq!(kb.popularity("d", &key), 0.2);
        assert_eq!(kb.lookup("d", &key, "a"), Some(&KnownValue::One("v".into())));
    }

    #[test]
    fn fact_count_counts_facts_not_entities() {
        let mut kb = StaticKnowledge::new();
        let (a, b) = (vec!["a".to_string()], vec!["b".to_string()]);
        kb.add_fact("d", &a, "x", KnownValue::One("1".into()));
        kb.add_fact("d", &a, "y", KnownValue::Many(vec![]));
        kb.add_fact("d", &b, "x", KnownValue::One("2".into()));
        kb.add_fact("e", &a, "x", KnownValue::One("3".into()));
        kb.set_popularity("e", &b, 0.7);
        assert_eq!(kb.fact_count(), 4);
    }
}
