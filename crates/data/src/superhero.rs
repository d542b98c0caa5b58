//! The Superhero benchmark domain (10 tables, ≈1 061 rows/table at scale
//! 1.0, 11 dropped columns — Table 1).
//!
//! Curation mirrors the paper's §3.2 example precisely: the FK id columns
//! (`publisher_id`, colour/race/gender/alignment ids) are dropped from
//! `superhero`, and the `publisher` and `hero_power` tables are removed —
//! while the lookup tables carrying distinct values (colour, race, gender,
//! alignment, superpower) survive so their value lists can be put in
//! prompts (§3.3). The LLM-facing key is `(superhero_name, full_name)`
//! (§3.4), and the expansion's 10-field row matches the §4.1.1 prompt.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swan_sqlengine::{Database, Row, Value};

use crate::builder::*;
use crate::namegen::{self, UniqueNames};
use crate::types::*;

pub const DB_NAME: &str = "superhero";

pub const PUBLISHERS: &[&str] = &[
    "Marvel Comics", "DC Comics", "Dark Horse Comics", "Image Comics", "IDW Publishing",
    "Valiant Comics", "Dynamite Entertainment", "Boom Studios", "Oni Press", "Archie Comics",
    "Top Cow", "Wildstorm",
];

pub const COLOURS: &[&str] = &[
    "Blue", "Brown", "Green", "Black", "Red", "Grey", "Hazel", "Amber", "White", "Yellow",
    "Purple", "Violet", "Gold", "Silver", "No Colour",
];

pub const RACES: &[&str] = &[
    "Human", "Mutant", "Android", "Alien", "Atlantean", "Asgardian", "Kryptonian", "Amazon",
    "Demon", "God", "Cyborg", "Inhuman", "Symbiote", "Vampire", "Eternal", "Clone", "Martian",
    "Saiyan", "Frost Giant", "Celestial",
];

pub const GENDERS: &[&str] = &["Male", "Female", "Non-Binary"];
pub const ALIGNMENTS: &[&str] = &["Good", "Bad", "Neutral"];

/// Generate the Superhero domain.
pub fn generate(cfg: &GenConfig) -> DomainData {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5EE0_0001);
    let n_heroes = cfg.rows(750, 60);

    let mut original = Database::new();
    create_table(&mut original, "publisher", &["id", "publisher_name"], &["id"]);
    create_table(&mut original, "colour", &["id", "colour"], &["id"]);
    create_table(&mut original, "race", &["id", "race"], &["id"]);
    create_table(&mut original, "gender", &["id", "gender"], &["id"]);
    create_table(&mut original, "alignment", &["id", "alignment"], &["id"]);
    create_table(&mut original, "superpower", &["id", "power_name"], &["id"]);
    create_table(&mut original, "attribute", &["id", "attribute_name"], &["id"]);
    create_table(
        &mut original,
        "superhero",
        &[
            "id", "superhero_name", "full_name", "height_cm", "weight_kg", "eye_colour_id",
            "hair_colour_id", "skin_colour_id", "race_id", "publisher_id", "gender_id",
            "alignment_id",
        ],
        &["id"],
    );
    create_table(&mut original, "hero_power", &["hero_id", "power_id"], &[]);
    create_table(
        &mut original,
        "hero_attribute",
        &["hero_id", "attribute_id", "attribute_value"],
        &[],
    );

    let lookup = |items: &[&str]| -> Vec<Row> {
        items
            .iter()
            .enumerate()
            .map(|(i, v)| Row::from([Value::Integer(i as i64 + 1), Value::text(*v)]))
            .collect()
    };
    insert_rows(&mut original, "publisher", lookup(PUBLISHERS));
    insert_rows(&mut original, "colour", lookup(COLOURS));
    insert_rows(&mut original, "race", lookup(RACES));
    insert_rows(&mut original, "gender", lookup(GENDERS));
    insert_rows(&mut original, "alignment", lookup(ALIGNMENTS));
    insert_rows(&mut original, "superpower", lookup(namegen::POWERS));
    const ATTRIBUTES: &[&str] =
        &["Intelligence", "Strength", "Speed", "Durability", "Power", "Combat"];
    insert_rows(&mut original, "attribute", lookup(ATTRIBUTES));

    // Eye/hair colours skew toward common values, like the real dataset.
    let common_colour = |rng: &mut SmallRng| -> usize {
        if rng.gen_bool(0.7) {
            rng.gen_range(0..6)
        } else {
            rng.gen_range(0..COLOURS.len())
        }
    };

    let mut hero_names = UniqueNames::new();
    let mut hero_rows = Vec::with_capacity(n_heroes);
    let mut power_rows = Vec::new();
    let mut attr_rows = Vec::new();
    let mut facts = Vec::new();
    let mut popularity = Vec::new();

    for i in 0..n_heroes {
        let hero = hero_names.claim(namegen::hero_name(&mut rng));
        let full = namegen::person_name(&mut rng);
        let key = vec![hero.clone(), full.clone()];

        let eye = common_colour(&mut rng);
        let hair = common_colour(&mut rng);
        let skin = if rng.gen_bool(0.75) { COLOURS.len() - 1 } else { rng.gen_range(0..COLOURS.len()) };
        let race = rng.gen_range(0..RACES.len());
        let publisher = rng.gen_range(0..PUBLISHERS.len());
        let gender = if rng.gen_bool(0.62) { 0 } else if rng.gen_bool(0.92) { 1 } else { 2 };
        let alignment = if rng.gen_bool(0.6) { 0 } else if rng.gen_bool(0.6) { 1 } else { 2 };
        let height = rng.gen_range(150..=210);
        let weight = rng.gen_range(45..=180);

        hero_rows.push(Row::from([
            Value::Integer(i as i64 + 1),
            Value::text(&hero),
            Value::text(&full),
            Value::Integer(height),
            Value::Integer(weight),
            Value::Integer(eye as i64 + 1),
            Value::Integer(hair as i64 + 1),
            Value::Integer(skin as i64 + 1),
            Value::Integer(race as i64 + 1),
            Value::Integer(publisher as i64 + 1),
            Value::Integer(gender as i64 + 1),
            Value::Integer(alignment as i64 + 1),
        ]));

        // Powers: 3..=10 distinct (Bird's hero_power averages ~7/hero).
        let n_powers = rng.gen_range(3..=10usize);
        let mut chosen = Vec::new();
        while chosen.len() < n_powers {
            let p = rng.gen_range(0..namegen::POWERS.len());
            if !chosen.contains(&p) {
                chosen.push(p);
            }
        }
        for &p in &chosen {
            power_rows.push(Row::from([Value::Integer(i as i64 + 1), Value::Integer(p as i64 + 1)]));
        }

        for (ai, _) in ATTRIBUTES.iter().enumerate() {
            attr_rows.push(Row::from([
                Value::Integer(i as i64 + 1),
                Value::Integer(ai as i64 + 1),
                Value::Integer(rng.gen_range(5..=100)),
            ]));
        }

        facts.push(fact1(&key, "eye_colour", COLOURS[eye]));
        facts.push(fact1(&key, "hair_colour", COLOURS[hair]));
        facts.push(fact1(&key, "skin_colour", COLOURS[skin]));
        facts.push(fact1(&key, "publisher_name", PUBLISHERS[publisher]));
        facts.push(fact1(&key, "race", RACES[race]));
        facts.push(fact1(&key, "gender", GENDERS[gender]));
        facts.push(fact1(&key, "moral_alignment", ALIGNMENTS[alignment]));
        facts.push(fact_many(
            &key,
            "powers",
            chosen.iter().map(|&p| namegen::POWERS[p].to_string()).collect(),
        ));

        popularity.push((key, popularity_from_percentile(rng.gen::<f64>())));
    }
    insert_rows(&mut original, "superhero", hero_rows);
    insert_rows(&mut original, "hero_power", power_rows);
    insert_rows(&mut original, "hero_attribute", attr_rows);

    // ---- curation (§3.2) ---------------------------------------------------
    let text_list = |items: &[&str]| items.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let curation = CurationSpec {
        dropped_columns: [
            "eye_colour_id",
            "hair_colour_id",
            "skin_colour_id",
            "race_id",
            "publisher_id",
            "gender_id",
            "alignment_id",
        ]
        .iter()
        .map(|c| ("superhero".to_string(), c.to_string()))
        .collect(),
        dropped_tables: vec![("publisher".into(), 2), ("hero_power".into(), 2)],
        expansions: vec![Expansion {
            table: "llm_superhero".into(),
            base_table: "superhero".into(),
            key_columns: vec!["superhero_name".into(), "full_name".into()],
            generated: vec![
                GenColumn::selection("eye_colour", text_list(COLOURS)),
                GenColumn::selection("hair_colour", text_list(COLOURS)),
                GenColumn::selection("skin_colour", text_list(COLOURS)),
                GenColumn::selection("publisher_name", text_list(PUBLISHERS)),
                GenColumn::selection("race", text_list(RACES)),
                GenColumn::selection("gender", text_list(GENDERS)),
                GenColumn::selection("moral_alignment", text_list(ALIGNMENTS)),
                GenColumn::multi("powers", text_list(namegen::POWERS)),
            ],
        }],
    };
    let curated = apply_curation(&original, &curation);

    // Prominent heroes for the point-lookup questions.
    let mut ranked: Vec<&(Vec<String>, f64)> = popularity.iter().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let sample: Vec<Vec<String>> = ranked.iter().take(4).map(|(k, _)| k.clone()).collect();

    let phrases = phrases();
    let questions = questions(&sample);

    DomainData {
        name: DB_NAME.into(),
        display_name: "Super Hero".into(),
        original,
        curated,
        curation,
        facts,
        popularity,
        phrases,
        questions,
    }
}

/// NL question phrasings for UDF resolution, including paraphrases used by
/// the caching ablation (§4.3: "Is the superhero from the Marvel
/// Universe?" vs "Does the hero come from Marvel?").
fn phrases() -> Vec<QuestionPhrase> {
    let p = |text: &str, attr: &str| QuestionPhrase { text: text.into(), attribute: attr.into() };
    vec![
        p("Which publisher published the superhero?", "publisher_name"),
        p("Is the superhero from the Marvel Universe?", "publisher_name"),
        p("Does the hero come from Marvel?", "publisher_name"),
        p("What is the eye colour of the superhero?", "eye_colour"),
        p("What is the hair colour of the superhero?", "hair_colour"),
        p("What is the skin colour of the superhero?", "skin_colour"),
        p("What is the race of the superhero?", "race"),
        p("What is the gender of the superhero?", "gender"),
        p("What is the moral alignment of the superhero?", "moral_alignment"),
        p("What are the superpowers of the superhero?", "powers"),
    ]
}

const JOIN_LLM: &str =
    "JOIN llm_superhero L ON L.superhero_name = T1.superhero_name AND L.full_name = T1.full_name";

fn udf(question: &str) -> String {
    let question = question.replace('\'', "''");
    format!("llm_map('{question}', T1.superhero_name, T1.full_name)")
}

/// The 30 Superhero beyond-database questions (3 with LIMIT ≈ the paper's
/// "about one-tenth").
fn questions(sample: &[Vec<String>]) -> Vec<Question> {
    let mut qs = Vec::with_capacity(30);
    let mut push = |text: String,
                    gold: String,
                    hybrid: String,
                    udf_sql: String,
                    has_limit: bool,
                    attrs: &[&str]| {
        let id = format!("superhero_q{:02}", qs.len() + 1);
        // Tag the llm_map question text with the question id: BlendSQL
        // prompts are authored per question, so their exact-prompt cache
        // cannot reuse generations across questions (paper 5.5).
        let udf_sql = udf_sql.replace("llm_map('", &format!("llm_map('[{id}] "));
        qs.push(Question {
            id,
            db: DB_NAME.into(),
            text,
            gold_sql: gold,
            hybrid_sql: hybrid,
            udf_sql,
            has_limit,
            attributes: attrs.iter().map(|s| s.to_string()).collect(),
        });
    };

    // q01-q03: publisher membership.
    for publisher in ["Marvel Comics", "DC Comics", "Dark Horse Comics"] {
        push(
            format!("List the names of all superheroes published by {publisher}."),
            format!(
                "SELECT T1.superhero_name FROM superhero T1 \
                 JOIN publisher T2 ON T1.publisher_id = T2.id \
                 WHERE T2.publisher_name = '{publisher}'"
            ),
            format!(
                "SELECT T1.superhero_name FROM superhero T1 {JOIN_LLM} \
                 WHERE L.publisher_name = '{publisher}'"
            ),
            format!(
                "SELECT T1.superhero_name FROM superhero T1 \
                 WHERE {} = '{publisher}'",
                udf("Which publisher published the superhero?")
            ),
            false,
            &["publisher_name"],
        );
    }

    // q04-q06: eye-colour counts.
    for colour in ["Blue", "Green", "Brown"] {
        push(
            format!("How many superheroes have {colour} eyes?"),
            format!(
                "SELECT COUNT(*) FROM superhero T1 \
                 JOIN colour c ON T1.eye_colour_id = c.id WHERE c.colour = '{colour}'"
            ),
            format!(
                "SELECT COUNT(*) FROM superhero T1 {JOIN_LLM} WHERE L.eye_colour = '{colour}'"
            ),
            format!(
                "SELECT COUNT(*) FROM superhero T1 WHERE {} = '{colour}'",
                udf("What is the eye colour of the superhero?")
            ),
            false,
            &["eye_colour"],
        );
    }

    // q07-q08: point lookups on famous heroes (eye / hair colour).
    for (i, attr, question, gold_col, llm_col) in [
        (0usize, "eye_colour", "What is the eye colour of the superhero?", "eye_colour_id", "eye_colour"),
        (1usize, "hair_colour", "What is the hair colour of the superhero?", "hair_colour_id", "hair_colour"),
    ] {
        let (hero, full) = (sample[i][0].replace('\'', "''"), sample[i][1].replace('\'', "''"));
        push(
            format!("What is the {} of {}?", attr.replace('_', " "), sample[i][0]),
            format!(
                "SELECT c.colour FROM superhero T1 \
                 JOIN colour c ON T1.{gold_col} = c.id \
                 WHERE T1.superhero_name = '{hero}' AND T1.full_name = '{full}'"
            ),
            format!(
                "SELECT L.{llm_col} FROM superhero T1 {JOIN_LLM} \
                 WHERE T1.superhero_name = '{hero}' AND T1.full_name = '{full}'"
            ),
            format!(
                "SELECT {} FROM superhero T1 \
                 WHERE T1.superhero_name = '{hero}' AND T1.full_name = '{full}'",
                udf(question)
            ),
            false,
            &[attr],
        );
    }

    // q09-q10: gender + publisher.
    for (gender, publisher) in [("Female", "Marvel Comics"), ("Male", "DC Comics")] {
        push(
            format!("List the full names of {gender} superheroes published by {publisher}."),
            format!(
                "SELECT T1.full_name FROM superhero T1 \
                 JOIN gender g ON T1.gender_id = g.id \
                 JOIN publisher p ON T1.publisher_id = p.id \
                 WHERE g.gender = '{gender}' AND p.publisher_name = '{publisher}'"
            ),
            format!(
                "SELECT T1.full_name FROM superhero T1 {JOIN_LLM} \
                 WHERE L.gender = '{gender}' AND L.publisher_name = '{publisher}'"
            ),
            format!(
                "SELECT T1.full_name FROM superhero T1 \
                 WHERE {} = '{gender}' AND {} = '{publisher}'",
                udf("What is the gender of the superhero?"),
                udf("Which publisher published the superhero?")
            ),
            false,
            &["gender", "publisher_name"],
        );
    }

    // q11-q12: alignment counts.
    for alignment in ["Good", "Bad"] {
        push(
            format!("How many superheroes have a {alignment} moral alignment?"),
            format!(
                "SELECT COUNT(*) FROM superhero T1 \
                 JOIN alignment a ON T1.alignment_id = a.id WHERE a.alignment = '{alignment}'"
            ),
            format!(
                "SELECT COUNT(*) FROM superhero T1 {JOIN_LLM} \
                 WHERE L.moral_alignment = '{alignment}'"
            ),
            format!(
                "SELECT COUNT(*) FROM superhero T1 WHERE {} = '{alignment}'",
                udf("What is the moral alignment of the superhero?")
            ),
            false,
            &["moral_alignment"],
        );
    }

    // q13: one race list question.
    {
        let race = "Human";
        push(
            format!("List the names of superheroes whose race is {race}."),
            format!(
                "SELECT T1.superhero_name FROM superhero T1 \
                 JOIN race r ON T1.race_id = r.id WHERE r.race = '{race}'"
            ),
            format!(
                "SELECT T1.superhero_name FROM superhero T1 {JOIN_LLM} WHERE L.race = '{race}'"
            ),
            format!(
                "SELECT T1.superhero_name FROM superhero T1 WHERE {} = '{race}'",
                udf("What is the race of the superhero?")
            ),
            false,
            &["race"],
        );
    }
    // q14: race point lookup on a famous hero.
    {
        let (hero, full) = (sample[2][0].replace('\'', "''"), sample[2][1].replace('\'', "''"));
        push(
            format!("What is the race of {}?", sample[2][0]),
            format!(
                "SELECT r.race FROM superhero T1 \
                 JOIN race r ON T1.race_id = r.id \
                 WHERE T1.superhero_name = '{hero}' AND T1.full_name = '{full}'"
            ),
            format!(
                "SELECT L.race FROM superhero T1 {JOIN_LLM} \
                 WHERE T1.superhero_name = '{hero}' AND T1.full_name = '{full}'"
            ),
            format!(
                "SELECT {} FROM superhero T1 \
                 WHERE T1.superhero_name = '{hero}' AND T1.full_name = '{full}'",
                udf("What is the race of the superhero?")
            ),
            false,
            &["race"],
        );
    }

    // q15-q17: power membership (one-to-many attribute).
    for power in ["Flight", "Super Strength", "Telepathy"] {
        push(
            format!("Which superheroes have the power of {power}?"),
            format!(
                "SELECT T1.superhero_name FROM superhero T1 \
                 JOIN hero_power hp ON hp.hero_id = T1.id \
                 JOIN superpower sp ON sp.id = hp.power_id \
                 WHERE sp.power_name = '{power}'"
            ),
            format!(
                "SELECT T1.superhero_name FROM superhero T1 {JOIN_LLM} \
                 WHERE L.powers LIKE '%{power}%'"
            ),
            format!(
                "SELECT T1.superhero_name FROM superhero T1 WHERE {} LIKE '%{power}%'",
                udf("What are the superpowers of the superhero?")
            ),
            false,
            &["powers"],
        );
    }

    // q18-q19: gender counts per publisher.
    for (gender, publisher) in [("Female", "DC Comics"), ("Male", "Marvel Comics")] {
        push(
            format!("How many {gender} superheroes did {publisher} publish?"),
            format!(
                "SELECT COUNT(*) FROM superhero T1 \
                 JOIN gender g ON T1.gender_id = g.id \
                 JOIN publisher p ON T1.publisher_id = p.id \
                 WHERE g.gender = '{gender}' AND p.publisher_name = '{publisher}'"
            ),
            format!(
                "SELECT COUNT(*) FROM superhero T1 {JOIN_LLM} \
                 WHERE L.gender = '{gender}' AND L.publisher_name = '{publisher}'"
            ),
            format!(
                "SELECT COUNT(*) FROM superhero T1 \
                 WHERE {} = '{gender}' AND {} = '{publisher}'",
                udf("What is the gender of the superhero?"),
                udf("Which publisher published the superhero?")
            ),
            false,
            &["gender", "publisher_name"],
        );
    }

    // q20-q22: LIMIT questions (≈1/10 of the set, §5.3).
    for publisher in ["Marvel Comics", "DC Comics"] {
        push(
            format!("List the names of the 5 tallest superheroes published by {publisher}."),
            format!(
                "SELECT T1.superhero_name FROM superhero T1 \
                 JOIN publisher p ON T1.publisher_id = p.id \
                 WHERE p.publisher_name = '{publisher}' \
                 ORDER BY T1.height_cm DESC, T1.superhero_name LIMIT 5"
            ),
            format!(
                "SELECT T1.superhero_name FROM superhero T1 {JOIN_LLM} \
                 WHERE L.publisher_name = '{publisher}' \
                 ORDER BY T1.height_cm DESC, T1.superhero_name LIMIT 5"
            ),
            format!(
                "SELECT T1.superhero_name FROM superhero T1 \
                 WHERE {} = '{publisher}' \
                 ORDER BY T1.height_cm DESC, T1.superhero_name LIMIT 5",
                udf("Which publisher published the superhero?")
            ),
            true,
            &["publisher_name"],
        );
    }
    push(
        "List the names of the 3 heaviest superheroes with Blue eyes.".into(),
        "SELECT T1.superhero_name FROM superhero T1 \
         JOIN colour c ON T1.eye_colour_id = c.id WHERE c.colour = 'Blue' \
         ORDER BY T1.weight_kg DESC, T1.superhero_name LIMIT 3"
            .into(),
        format!(
            "SELECT T1.superhero_name FROM superhero T1 {JOIN_LLM} \
             WHERE L.eye_colour = 'Blue' \
             ORDER BY T1.weight_kg DESC, T1.superhero_name LIMIT 3"
        ),
        format!(
            "SELECT T1.superhero_name FROM superhero T1 WHERE {} = 'Blue' \
             ORDER BY T1.weight_kg DESC, T1.superhero_name LIMIT 3",
            udf("What is the eye colour of the superhero?")
        ),
        true,
        &["eye_colour"],
    );

    // q23-q24: publisher + alignment counts.
    for (publisher, alignment) in [("Marvel Comics", "Bad"), ("DC Comics", "Good")] {
        push(
            format!("How many superheroes published by {publisher} are {alignment}?"),
            format!(
                "SELECT COUNT(*) FROM superhero T1 \
                 JOIN publisher p ON T1.publisher_id = p.id \
                 JOIN alignment a ON T1.alignment_id = a.id \
                 WHERE p.publisher_name = '{publisher}' AND a.alignment = '{alignment}'"
            ),
            format!(
                "SELECT COUNT(*) FROM superhero T1 {JOIN_LLM} \
                 WHERE L.publisher_name = '{publisher}' AND L.moral_alignment = '{alignment}'"
            ),
            format!(
                "SELECT COUNT(*) FROM superhero T1 \
                 WHERE {} = '{publisher}' AND {} = '{alignment}'",
                udf("Which publisher published the superhero?"),
                udf("What is the moral alignment of the superhero?")
            ),
            false,
            &["publisher_name", "moral_alignment"],
        );
    }

    // q25: alignment + power.
    push(
        "List the names of Neutral superheroes with the power of Flight.".into(),
        "SELECT T1.superhero_name FROM superhero T1 \
         JOIN alignment a ON T1.alignment_id = a.id \
         JOIN hero_power hp ON hp.hero_id = T1.id \
         JOIN superpower sp ON sp.id = hp.power_id \
         WHERE a.alignment = 'Neutral' AND sp.power_name = 'Flight'"
            .into(),
        format!(
            "SELECT T1.superhero_name FROM superhero T1 {JOIN_LLM} \
             WHERE L.moral_alignment = 'Neutral' AND L.powers LIKE '%Flight%'"
        ),
        format!(
            "SELECT T1.superhero_name FROM superhero T1 \
             WHERE {} = 'Neutral' AND {} LIKE '%Flight%'",
            udf("What is the moral alignment of the superhero?"),
            udf("What are the superpowers of the superhero?")
        ),
        false,
        &["moral_alignment", "powers"],
    );

    // q26-q27: aggregates over a generated filter.
    for publisher in ["Marvel Comics", "DC Comics"] {
        push(
            format!("What is the average height of superheroes published by {publisher}?"),
            format!(
                "SELECT AVG(T1.height_cm) FROM superhero T1 \
                 JOIN publisher p ON T1.publisher_id = p.id \
                 WHERE p.publisher_name = '{publisher}'"
            ),
            format!(
                "SELECT AVG(T1.height_cm) FROM superhero T1 {JOIN_LLM} \
                 WHERE L.publisher_name = '{publisher}'"
            ),
            format!(
                "SELECT AVG(T1.height_cm) FROM superhero T1 WHERE {} = '{publisher}'",
                udf("Which publisher published the superhero?")
            ),
            false,
            &["publisher_name"],
        );
    }

    // q28: alignment point lookup on a famous hero.
    {
        let (hero, full) = (sample[3][0].replace('\'', "''"), sample[3][1].replace('\'', "''"));
        push(
            format!("What is the moral alignment of {}?", sample[3][0]),
            format!(
                "SELECT a.alignment FROM superhero T1 \
                 JOIN alignment a ON T1.alignment_id = a.id \
                 WHERE T1.superhero_name = '{hero}' AND T1.full_name = '{full}'"
            ),
            format!(
                "SELECT L.moral_alignment FROM superhero T1 {JOIN_LLM} \
                 WHERE T1.superhero_name = '{hero}' AND T1.full_name = '{full}'"
            ),
            format!(
                "SELECT {} FROM superhero T1 \
                 WHERE T1.superhero_name = '{hero}' AND T1.full_name = '{full}'",
                udf("What is the moral alignment of the superhero?")
            ),
            false,
            &["moral_alignment"],
        );
    }

    // q29: conjunction of two generated attributes.
    push(
        "List the names of superheroes with Blue eyes and a Good alignment.".into(),
        "SELECT T1.superhero_name FROM superhero T1 \
         JOIN colour c ON T1.eye_colour_id = c.id \
         JOIN alignment a ON T1.alignment_id = a.id \
         WHERE c.colour = 'Blue' AND a.alignment = 'Good'"
            .into(),
        format!(
            "SELECT T1.superhero_name FROM superhero T1 {JOIN_LLM} \
             WHERE L.eye_colour = 'Blue' AND L.moral_alignment = 'Good'"
        ),
        format!(
            "SELECT T1.superhero_name FROM superhero T1 \
             WHERE {} = 'Blue' AND {} = 'Good'",
            udf("What is the eye colour of the superhero?"),
            udf("What is the moral alignment of the superhero?")
        ),
        false,
        &["eye_colour", "moral_alignment"],
    );

    // q30: group-by over a generated attribute.
    push(
        "How many superheroes does each publisher have?".into(),
        "SELECT p.publisher_name, COUNT(*) FROM superhero T1 \
         JOIN publisher p ON T1.publisher_id = p.id \
         GROUP BY p.publisher_name"
            .into(),
        format!(
            "SELECT L.publisher_name, COUNT(*) FROM superhero T1 {JOIN_LLM} \
             GROUP BY L.publisher_name"
        ),
        format!(
            "SELECT {pub_call}, COUNT(*) FROM superhero T1 GROUP BY {pub_call}",
            pub_call = udf("Which publisher published the superhero?")
        ),
        false,
        &["publisher_name"],
    );

    assert_eq!(qs.len(), 30, "superhero question count");
    qs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DomainData {
        generate(&GenConfig::with_scale(0.1))
    }

    #[test]
    fn table_counts_match_paper() {
        let d = small();
        assert_eq!(d.original.catalog().len(), 10, "10 tables before curation");
        assert_eq!(d.table_count(), 8, "publisher and hero_power dropped");
        assert_eq!(d.curation.dropped_count(), 11, "Table 1: 11 dropped");
    }

    #[test]
    fn questions_are_30_with_paper_limit_share() {
        let d = small();
        assert_eq!(d.questions.len(), 30);
        let limits = d.questions.iter().filter(|q| q.has_limit).count();
        assert_eq!(limits, 3, "about one-tenth with LIMIT (§5.3)");
    }

    #[test]
    fn all_sql_parses() {
        let d = small();
        for q in &d.questions {
            for sql in [&q.gold_sql, &q.hybrid_sql, &q.udf_sql] {
                swan_sqlengine::parser::parse_statement(sql)
                    .unwrap_or_else(|e| panic!("{}: {e}\n{sql}", q.id));
            }
        }
    }

    #[test]
    fn gold_queries_run_on_original() {
        let d = small();
        for q in &d.questions {
            d.original
                .query(&q.gold_sql)
                .unwrap_or_else(|e| panic!("{} gold failed: {e}", q.id));
        }
    }

    #[test]
    fn hero_keys_are_unique_and_non_null() {
        let d = small();
        let t = d.original.catalog().get("superhero").unwrap();
        let hn = t.column_index("superhero_name").unwrap();
        let fnm = t.column_index("full_name").unwrap();
        let mut seen = std::collections::HashSet::new();
        for row in t.rows() {
            let k = (row[hn].render(), row[fnm].render());
            assert!(!k.0.is_empty() && !k.1.is_empty());
            assert!(seen.insert(k), "duplicate key");
        }
    }

    #[test]
    fn facts_cover_every_hero_and_attribute() {
        let d = small();
        let heroes = d.original.catalog().get("superhero").unwrap().len();
        assert_eq!(d.facts.len(), heroes * 8, "8 generated attributes per hero");
        assert_eq!(d.popularity.len(), heroes);
    }

    #[test]
    fn curated_db_cannot_answer_gold_queries() {
        let d = small();
        // The first question's gold SQL references the dropped publisher table.
        assert!(d.curated.query(&d.questions[0].gold_sql).is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&GenConfig::with_scale(0.05));
        let b = generate(&GenConfig::with_scale(0.05));
        let ta = a.original.catalog().get("superhero").unwrap();
        let tb = b.original.catalog().get("superhero").unwrap();
        assert_eq!(ta.rows(), tb.rows());
    }

    #[test]
    fn expansion_matches_paper_prompt_shape() {
        let d = small();
        let e = &d.curation.expansions[0];
        assert_eq!(e.all_columns().len(), 10, "10 fields as in the §4.1.1 prompt");
        assert_eq!(e.key_columns, vec!["superhero_name", "full_name"]);
    }

    #[test]
    fn value_lists_match_lookup_tables() {
        let d = small();
        let publishers = crate::builder::distinct_texts(&d.original, "publisher", "publisher_name");
        let e = &d.curation.expansions[0];
        let pub_col = e.generated.iter().find(|g| g.name == "publisher_name").unwrap();
        let mut expected = pub_col.value_list.clone().unwrap();
        expected.sort();
        assert_eq!(publishers, expected);
    }
}
