//! The California Schools benchmark domain (3 tables, ≈9 980 rows/table at
//! scale 1.0, 12 dropped columns — Table 1).
//!
//! Free-form generation stars here (paper §3.3): the school URL "is
//! closely related to the school name and often ends with edu", and the
//! city must be inferred from the street address (the §5.4 example:
//! address `5328 Brann Street` → city `Oakland`). A third of the
//! questions carry a LIMIT clause asking for top schools (§5.3).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swan_sqlengine::{Database, Row, Value};

use crate::builder::*;
use crate::namegen::{self, Choices, UniqueNames};
use crate::types::*;

pub const DB_NAME: &str = "california_schools";

pub const EDUCATION_LEVELS: &[&str] = &["Elementary", "Middle", "High", "K-12"];
pub const DOC_TYPES: &[&str] = &["Traditional", "Charter School", "Alternative", "Continuation"];

/// Generate the California Schools domain.
pub fn generate(cfg: &GenConfig) -> DomainData {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5C00_0002);
    let n_schools = cfg.rows(9980, 80);

    let mut original = Database::new();
    create_table(
        &mut original,
        "schools",
        &[
            "cds_code", "school_name", "street", "city", "county", "zip", "phone", "website",
            "charter", "magnet", "district_name", "education_level", "doc_type", "admin_name",
            "admin_email",
        ],
        &["cds_code"],
    );
    create_table(
        &mut original,
        "frpm",
        &["cds_code", "enrollment", "free_meal_count", "frpm_rate"],
        &["cds_code"],
    );
    create_table(
        &mut original,
        "satscores",
        &[
            "cds_code", "num_tst_takr", "avg_scr_read", "avg_scr_math", "avg_scr_write",
            "pct_ge_1500",
        ],
        &["cds_code"],
    );

    let districts: Vec<String> = namegen::COUNTIES
        .iter()
        .map(|c| format!("{c} Unified School District"))
        .collect();
    let (cities, counties, district_cells) =
        (Choices::new(namegen::CITIES), Choices::new(namegen::COUNTIES), Choices::new(&districts));
    let (levels, doc_types) = (Choices::new(EDUCATION_LEVELS), Choices::new(DOC_TYPES));
    // Index 1 is "Yes".
    let yes_no = Choices::new(&["No", "Yes"]);

    let mut names = UniqueNames::new();
    let mut school_rows = Vec::with_capacity(n_schools);
    let mut frpm_rows = Vec::with_capacity(n_schools);
    let mut sat_rows = Vec::with_capacity(n_schools);
    let mut facts = Vec::new();
    let mut popularity = Vec::new();

    for i in 0..n_schools {
        // Quality drives SAT scores, frpm rate (inversely) and popularity.
        let quality: f64 = rng.gen();

        let kind = namegen::pick(&mut rng, namegen::SCHOOL_KINDS);
        let city = cities.draw(&mut rng);
        // Like real Californian schools, a third are named after their
        // city ("Fresno High School") — the model can read the city off
        // the key, which the key-hint channel rewards.
        let base = if rng.gen_bool(0.35) {
            format!("{} {kind} School", cities.text(city))
        } else {
            format!("{} {kind} School", namegen::pick(&mut rng, namegen::LAST_NAMES))
        };
        let school_name = names.claim(base);
        let street = namegen::street_address(&mut rng);
        let key = vec![school_name.clone(), street.clone()];

        let county = counties.draw(&mut rng);
        let zip = format!("9{:04}", rng.gen_range(0..10_000));
        let phone = format!("(555) {:03}-{:04}", rng.gen_range(200..999), rng.gen_range(0..10_000));
        let website = format!("www.{}.edu", namegen::slug(&school_name));
        let charter = usize::from(rng.gen_bool(0.25));
        let magnet = usize::from(rng.gen_bool(0.15));
        let level = levels.draw(&mut rng);
        // DOC_TYPES[1] is "Charter School".
        let doc_type = if charter == 1 { 1 } else { doc_types.draw(&mut rng) };
        let admin = namegen::person_name(&mut rng);
        let admin_email = format!(
            "{}@{}.edu",
            namegen::slug(&admin),
            namegen::slug(&school_name)
        );

        // One cell for the key all three tables carry.
        let cds = Value::text(format!("{:014}", 10_000_000_000_000u64 + i as u64));
        school_rows.push(Row::from([
            cds.clone(),
            Value::text(&school_name),
            Value::text(&street),
            cities.cell(city),
            counties.cell(county),
            Value::text(&zip),
            Value::text(&phone),
            Value::text(&website),
            yes_no.cell(charter),
            yes_no.cell(magnet),
            district_cells.cell(county),
            levels.cell(level),
            doc_types.cell(doc_type),
            Value::text(&admin),
            Value::text(&admin_email),
        ]));

        let enrollment = rng.gen_range(80..3000);
        let free_meals = (enrollment as f64 * (1.0 - quality) * rng.gen_range(0.4..0.95)) as i64;
        frpm_rows.push(Row::from([
            cds.clone(),
            Value::Integer(enrollment),
            Value::Integer(free_meals),
            Value::Real((free_meals as f64 / enrollment as f64 * 1000.0).round() / 1000.0),
        ]));

        let score = |rng: &mut SmallRng, q: f64| -> i64 {
            (350.0 + 300.0 * q + rng.gen_range(-25.0..25.0)).clamp(300.0, 700.0) as i64
        };
        sat_rows.push(Row::from([
            cds,
            Value::Integer(rng.gen_range(20..800)),
            Value::Integer(score(&mut rng, quality)),
            Value::Integer(score(&mut rng, quality)),
            Value::Integer(score(&mut rng, quality)),
            Value::Real((quality * rng.gen_range(0.3..0.9) * 100.0).round() / 100.0),
        ]));

        facts.push(fact1(&key, "city", cities.text(city)));
        facts.push(fact1(&key, "county", counties.text(county)));
        facts.push(fact1(&key, "zip", &zip));
        facts.push(fact1(&key, "phone", &phone));
        facts.push(fact1(&key, "website", &website));
        facts.push(fact1(&key, "charter", yes_no.text(charter)));
        facts.push(fact1(&key, "magnet", yes_no.text(magnet)));
        facts.push(fact1(&key, "district_name", district_cells.text(county)));
        facts.push(fact1(&key, "education_level", levels.text(level)));
        facts.push(fact1(&key, "doc_type", doc_types.text(doc_type)));
        facts.push(fact1(&key, "admin_name", &admin));
        facts.push(fact1(&key, "admin_email", &admin_email));

        // The paper observes LLMs identify *top* schools accurately
        // (§5.3): popularity tracks academic quality.
        popularity.push((key, popularity_from_percentile(quality)));
    }
    insert_rows(&mut original, "schools", school_rows);
    insert_rows(&mut original, "frpm", frpm_rows);
    insert_rows(&mut original, "satscores", sat_rows);

    let text_list = |items: &[&str]| items.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let curation = CurationSpec {
        dropped_columns: [
            "city", "county", "zip", "phone", "website", "charter", "magnet", "district_name",
            "education_level", "doc_type", "admin_name", "admin_email",
        ]
        .iter()
        .map(|c| ("schools".to_string(), c.to_string()))
        .collect(),
        dropped_tables: vec![],
        expansions: vec![Expansion {
            table: "llm_schools".into(),
            base_table: "schools".into(),
            key_columns: vec!["school_name".into(), "street".into()],
            generated: vec![
                GenColumn::free_form("city"),
                GenColumn::selection("county", text_list(namegen::COUNTIES)),
                GenColumn::free_form("zip"),
                GenColumn::free_form("phone"),
                GenColumn::free_form("website"),
                GenColumn::selection("charter", vec!["No".into(), "Yes".into()]),
                GenColumn::selection("magnet", vec!["No".into(), "Yes".into()]),
                GenColumn::selection("district_name", districts.clone()),
                GenColumn::selection("education_level", text_list(EDUCATION_LEVELS)),
                GenColumn::selection("doc_type", text_list(DOC_TYPES)),
                GenColumn::free_form("admin_name"),
                GenColumn::free_form("admin_email"),
            ],
        }],
    };
    let curated = apply_curation(&original, &curation);

    // The questions reference a few *prominent* schools (highest quality /
    // popularity): the paper notes LLMs answer top entities accurately.
    let mut ranked: Vec<&(Vec<String>, f64)> = popularity.iter().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let sample: Vec<Vec<String>> = ranked.iter().take(5).map(|(k, _)| k.clone()).collect();

    DomainData {
        name: DB_NAME.into(),
        display_name: "California Schools".into(),
        original,
        curated,
        curation,
        facts,
        popularity,
        phrases: phrases(),
        questions: questions(&sample),
    }
}

fn phrases() -> Vec<QuestionPhrase> {
    let p = |text: &str, attr: &str| QuestionPhrase { text: text.into(), attribute: attr.into() };
    vec![
        p("Which city is the school located in?", "city"),
        p("Provide the city name based on the address.", "city"),
        p("Which county is the school in?", "county"),
        p("What is the zip code of the school?", "zip"),
        p("What is the school's phone number?", "phone"),
        p("What is the school's website?", "website"),
        p("Is the school a charter school? Answer Yes or No.", "charter"),
        p("Is the school a magnet school? Answer Yes or No.", "magnet"),
        p("Which school district does the school belong to?", "district_name"),
        p("What is the education level of the school?", "education_level"),
        p("What is the document type of the school?", "doc_type"),
        p("What is the school administrator's name?", "admin_name"),
        p("What is the school administrator's email address?", "admin_email"),
    ]
}

const JOIN_LLM: &str =
    "JOIN llm_schools L ON L.school_name = T1.school_name AND L.street = T1.street";

fn udf(question: &str) -> String {
    let question = question.replace('\'', "''");
    format!("llm_map('{question}', T1.school_name, T1.street)")
}

/// The 30 California Schools questions — 10 with LIMIT (one-third, §5.3).
fn questions(sample: &[Vec<String>]) -> Vec<Question> {
    let mut qs = Vec::with_capacity(30);
    let mut push = |text: String,
                    gold: String,
                    hybrid: String,
                    udf_sql: String,
                    has_limit: bool,
                    attrs: &[&str]| {
        let id = format!("california_schools_q{:02}", qs.len() + 1);
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

    // q01-q03: top-5 by SAT math per county (LIMIT).
    for county in ["Los Angeles", "San Diego", "Alameda"] {
        push(
            format!("List the top 5 schools by average SAT math score in {county} county."),
            format!(
                "SELECT T1.school_name FROM schools T1 \
                 JOIN satscores s ON s.cds_code = T1.cds_code \
                 WHERE T1.county = '{county}' \
                 ORDER BY s.avg_scr_math DESC, T1.school_name LIMIT 5"
            ),
            format!(
                "SELECT T1.school_name FROM schools T1 {JOIN_LLM} \
                 JOIN satscores s ON s.cds_code = T1.cds_code \
                 WHERE L.county = '{county}' \
                 ORDER BY s.avg_scr_math DESC, T1.school_name LIMIT 5"
            ),
            format!(
                "SELECT T1.school_name FROM schools T1 \
                 JOIN satscores s ON s.cds_code = T1.cds_code \
                 WHERE {} = '{county}' \
                 ORDER BY s.avg_scr_math DESC, T1.school_name LIMIT 5",
                udf("Which county is the school in?")
            ),
            true,
            &["county"],
        );
    }

    // q04: top 5 charter schools by SAT reading (LIMIT).
    push(
        "List the top 5 charter schools by average SAT reading score.".into(),
        "SELECT T1.school_name FROM schools T1 \
         JOIN satscores s ON s.cds_code = T1.cds_code WHERE T1.charter = 'Yes' \
         ORDER BY s.avg_scr_read DESC, T1.school_name LIMIT 5"
            .into(),
        format!(
            "SELECT T1.school_name FROM schools T1 {JOIN_LLM} \
             JOIN satscores s ON s.cds_code = T1.cds_code WHERE L.charter = 'Yes' \
             ORDER BY s.avg_scr_read DESC, T1.school_name LIMIT 5"
        ),
        format!(
            "SELECT T1.school_name FROM schools T1 \
             JOIN satscores s ON s.cds_code = T1.cds_code WHERE {} = 'Yes' \
             ORDER BY s.avg_scr_read DESC, T1.school_name LIMIT 5",
            udf("Is the school a charter school? Answer Yes or No.")
        ),
        true,
        &["charter"],
    );

    // q05: 5 magnet schools with the highest enrollment (LIMIT).
    push(
        "List the 5 magnet schools with the highest enrollment.".into(),
        "SELECT T1.school_name FROM schools T1 \
         JOIN frpm f ON f.cds_code = T1.cds_code WHERE T1.magnet = 'Yes' \
         ORDER BY f.enrollment DESC, T1.school_name LIMIT 5"
            .into(),
        format!(
            "SELECT T1.school_name FROM schools T1 {JOIN_LLM} \
             JOIN frpm f ON f.cds_code = T1.cds_code WHERE L.magnet = 'Yes' \
             ORDER BY f.enrollment DESC, T1.school_name LIMIT 5"
        ),
        format!(
            "SELECT T1.school_name FROM schools T1 \
             JOIN frpm f ON f.cds_code = T1.cds_code WHERE {} = 'Yes' \
             ORDER BY f.enrollment DESC, T1.school_name LIMIT 5",
            udf("Is the school a magnet school? Answer Yes or No.")
        ),
        true,
        &["magnet"],
    );

    // q06: top 3 by pct_ge_1500 in a city (LIMIT).
    push(
        "List the top 3 schools in Oakland by the percentage of students scoring 1500 or more."
            .into(),
        "SELECT T1.school_name FROM schools T1 \
         JOIN satscores s ON s.cds_code = T1.cds_code WHERE T1.city = 'Oakland' \
         ORDER BY s.pct_ge_1500 DESC, T1.school_name LIMIT 3"
            .into(),
        format!(
            "SELECT T1.school_name FROM schools T1 {JOIN_LLM} \
             JOIN satscores s ON s.cds_code = T1.cds_code WHERE L.city = 'Oakland' \
             ORDER BY s.pct_ge_1500 DESC, T1.school_name LIMIT 3"
        ),
        format!(
            "SELECT T1.school_name FROM schools T1 \
             JOIN satscores s ON s.cds_code = T1.cds_code WHERE {} = 'Oakland' \
             ORDER BY s.pct_ge_1500 DESC, T1.school_name LIMIT 3",
            udf("Which city is the school located in?")
        ),
        true,
        &["city"],
    );

    // q07: single best charter school by math (LIMIT 1).
    push(
        "Which charter school has the highest average SAT math score?".into(),
        "SELECT T1.school_name FROM schools T1 \
         JOIN satscores s ON s.cds_code = T1.cds_code WHERE T1.charter = 'Yes' \
         ORDER BY s.avg_scr_math DESC, T1.school_name LIMIT 1"
            .into(),
        format!(
            "SELECT T1.school_name FROM schools T1 {JOIN_LLM} \
             JOIN satscores s ON s.cds_code = T1.cds_code WHERE L.charter = 'Yes' \
             ORDER BY s.avg_scr_math DESC, T1.school_name LIMIT 1"
        ),
        format!(
            "SELECT T1.school_name FROM schools T1 \
             JOIN satscores s ON s.cds_code = T1.cds_code WHERE {} = 'Yes' \
             ORDER BY s.avg_scr_math DESC, T1.school_name LIMIT 1",
            udf("Is the school a charter school? Answer Yes or No.")
        ),
        true,
        &["charter"],
    );

    // q08: top 5 by free-meal rate in a county (LIMIT).
    push(
        "List the top 5 schools by free or reduced price meal rate in Fresno county.".into(),
        "SELECT T1.school_name FROM schools T1 \
         JOIN frpm f ON f.cds_code = T1.cds_code WHERE T1.county = 'Fresno' \
         ORDER BY f.frpm_rate DESC, T1.school_name LIMIT 5"
            .into(),
        format!(
            "SELECT T1.school_name FROM schools T1 {JOIN_LLM} \
             JOIN frpm f ON f.cds_code = T1.cds_code WHERE L.county = 'Fresno' \
             ORDER BY f.frpm_rate DESC, T1.school_name LIMIT 5"
        ),
        format!(
            "SELECT T1.school_name FROM schools T1 \
             JOIN frpm f ON f.cds_code = T1.cds_code WHERE {} = 'Fresno' \
             ORDER BY f.frpm_rate DESC, T1.school_name LIMIT 5",
            udf("Which county is the school in?")
        ),
        true,
        &["county"],
    );

    // q09: 3 schools with the most test takers in a city (LIMIT).
    push(
        "List the 3 schools in Fresno with the most SAT test takers.".into(),
        "SELECT T1.school_name FROM schools T1 \
         JOIN satscores s ON s.cds_code = T1.cds_code WHERE T1.city = 'Fresno' \
         ORDER BY s.num_tst_takr DESC, T1.school_name LIMIT 3"
            .into(),
        format!(
            "SELECT T1.school_name FROM schools T1 {JOIN_LLM} \
             JOIN satscores s ON s.cds_code = T1.cds_code WHERE L.city = 'Fresno' \
             ORDER BY s.num_tst_takr DESC, T1.school_name LIMIT 3"
        ),
        format!(
            "SELECT T1.school_name FROM schools T1 \
             JOIN satscores s ON s.cds_code = T1.cds_code WHERE {} = 'Fresno' \
             ORDER BY s.num_tst_takr DESC, T1.school_name LIMIT 3",
            udf("Which city is the school located in?")
        ),
        true,
        &["city"],
    );

    // q10: top 5 by writing score in a district (LIMIT).
    push(
        "List the top 5 schools by average SAT writing score in the Los Angeles Unified School District."
            .into(),
        "SELECT T1.school_name FROM schools T1 \
         JOIN satscores s ON s.cds_code = T1.cds_code \
         WHERE T1.district_name = 'Los Angeles Unified School District' \
         ORDER BY s.avg_scr_write DESC, T1.school_name LIMIT 5"
            .into(),
        format!(
            "SELECT T1.school_name FROM schools T1 {JOIN_LLM} \
             JOIN satscores s ON s.cds_code = T1.cds_code \
             WHERE L.district_name = 'Los Angeles Unified School District' \
             ORDER BY s.avg_scr_write DESC, T1.school_name LIMIT 5"
        ),
        format!(
            "SELECT T1.school_name FROM schools T1 \
             JOIN satscores s ON s.cds_code = T1.cds_code \
             WHERE {} = 'Los Angeles Unified School District' \
             ORDER BY s.avg_scr_write DESC, T1.school_name LIMIT 5",
            udf("Which school district does the school belong to?")
        ),
        true,
        &["district_name"],
    );

    // q11-q13: charter counts per county.
    for county in ["Los Angeles", "Alameda", "Sacramento"] {
        push(
            format!("How many charter schools are in {county} county?"),
            format!(
                "SELECT COUNT(*) FROM schools T1 \
                 WHERE T1.charter = 'Yes' AND T1.county = '{county}'"
            ),
            format!(
                "SELECT COUNT(*) FROM schools T1 {JOIN_LLM} \
                 WHERE L.charter = 'Yes' AND L.county = '{county}'"
            ),
            format!(
                "SELECT COUNT(*) FROM schools T1 \
                 WHERE {} = 'Yes' AND {} = '{county}'",
                udf("Is the school a charter school? Answer Yes or No."),
                udf("Which county is the school in?")
            ),
            false,
            &["charter", "county"],
        );
    }

    // q14-q15: point lookups on prominent schools (website, phone).
    {
        let (n, st) = (sample[0][0].replace('\'', "''"), sample[0][1].replace('\'', "''"));
        push(
            format!("What is the website of {} on {}?", sample[0][0], sample[0][1]),
            format!(
                "SELECT T1.website FROM schools T1 \
                 WHERE T1.school_name = '{n}' AND T1.street = '{st}'"
            ),
            format!(
                "SELECT L.website FROM schools T1 {JOIN_LLM} \
                 WHERE T1.school_name = '{n}' AND T1.street = '{st}'"
            ),
            format!(
                "SELECT {} FROM schools T1 \
                 WHERE T1.school_name = '{n}' AND T1.street = '{st}'",
                udf("What is the school's website?")
            ),
            false,
            &["website"],
        );
        let (n, st) = (sample[1][0].replace('\'', "''"), sample[1][1].replace('\'', "''"));
        push(
            format!("What is the phone number of {} on {}?", sample[1][0], sample[1][1]),
            format!(
                "SELECT T1.phone FROM schools T1 \
                 WHERE T1.school_name = '{n}' AND T1.street = '{st}'"
            ),
            format!(
                "SELECT L.phone FROM schools T1 {JOIN_LLM} \
                 WHERE T1.school_name = '{n}' AND T1.street = '{st}'"
            ),
            format!(
                "SELECT {} FROM schools T1 \
                 WHERE T1.school_name = '{n}' AND T1.street = '{st}'",
                udf("What is the school's phone number?")
            ),
            false,
            &["phone"],
        );
    }

    // q16-q17: district counts.
    for district in ["San Diego Unified School District", "Fresno Unified School District"] {
        push(
            format!("How many schools belong to the {district}?"),
            format!("SELECT COUNT(*) FROM schools T1 WHERE T1.district_name = '{district}'"),
            format!("SELECT COUNT(*) FROM schools T1 {JOIN_LLM} WHERE L.district_name = '{district}'"),
            format!(
                "SELECT COUNT(*) FROM schools T1 WHERE {} = '{district}'",
                udf("Which school district does the school belong to?")
            ),
            false,
            &["district_name"],
        );
    }

    // q18-q19: average reading score per county.
    for county in ["Orange", "Ventura"] {
        push(
            format!("What is the average SAT reading score of schools in {county} county?"),
            format!(
                "SELECT AVG(s.avg_scr_read) FROM schools T1 \
                 JOIN satscores s ON s.cds_code = T1.cds_code WHERE T1.county = '{county}'"
            ),
            format!(
                "SELECT AVG(s.avg_scr_read) FROM schools T1 {JOIN_LLM} \
                 JOIN satscores s ON s.cds_code = T1.cds_code WHERE L.county = '{county}'"
            ),
            format!(
                "SELECT AVG(s.avg_scr_read) FROM schools T1 \
                 JOIN satscores s ON s.cds_code = T1.cds_code WHERE {} = '{county}'",
                udf("Which county is the school in?")
            ),
            false,
            &["county"],
        );
    }

    // q20-q21: magnet counts per city.
    for city in ["Fresno", "San Diego"] {
        push(
            format!("How many magnet schools are in the city of {city}?"),
            format!(
                "SELECT COUNT(*) FROM schools T1 WHERE T1.magnet = 'Yes' AND T1.city = '{city}'"
            ),
            format!(
                "SELECT COUNT(*) FROM schools T1 {JOIN_LLM} \
                 WHERE L.magnet = 'Yes' AND L.city = '{city}'"
            ),
            format!(
                "SELECT COUNT(*) FROM schools T1 WHERE {} = 'Yes' AND {} = '{city}'",
                udf("Is the school a magnet school? Answer Yes or No."),
                udf("Which city is the school located in?")
            ),
            false,
            &["magnet", "city"],
        );
    }

    // q22: city of a prominent school (the paper's street-to-city case).
    {
        let (n, st) = (sample[2][0].replace('\'', "''"), sample[2][1].replace('\'', "''"));
        push(
            format!("In which city is {} on {}?", sample[2][0], sample[2][1]),
            format!(
                "SELECT T1.city FROM schools T1 \
                 WHERE T1.school_name = '{n}' AND T1.street = '{st}'"
            ),
            format!(
                "SELECT L.city FROM schools T1 {JOIN_LLM} \
                 WHERE T1.school_name = '{n}' AND T1.street = '{st}'"
            ),
            format!(
                "SELECT {} FROM schools T1 \
                 WHERE T1.school_name = '{n}' AND T1.street = '{st}'",
                udf("Provide the city name based on the address.")
            ),
            false,
            &["city"],
        );
    }

    // q23-q24: education-level counts.
    for level in ["High", "Elementary"] {
        push(
            format!("How many schools are at the {level} education level?"),
            format!("SELECT COUNT(*) FROM schools T1 WHERE T1.education_level = '{level}'"),
            format!(
                "SELECT COUNT(*) FROM schools T1 {JOIN_LLM} WHERE L.education_level = '{level}'"
            ),
            format!(
                "SELECT COUNT(*) FROM schools T1 WHERE {} = '{level}'",
                udf("What is the education level of the school?")
            ),
            false,
            &["education_level"],
        );
    }

    // q25: county of a prominent school.
    {
        let (n, st) = (sample[3][0].replace('\'', "''"), sample[3][1].replace('\'', "''"));
        push(
            format!("Which county is {} on {} in?", sample[3][0], sample[3][1]),
            format!(
                "SELECT T1.county FROM schools T1 \
                 WHERE T1.school_name = '{n}' AND T1.street = '{st}'"
            ),
            format!(
                "SELECT L.county FROM schools T1 {JOIN_LLM} \
                 WHERE T1.school_name = '{n}' AND T1.street = '{st}'"
            ),
            format!(
                "SELECT {} FROM schools T1 \
                 WHERE T1.school_name = '{n}' AND T1.street = '{st}'",
                udf("Which county is the school in?")
            ),
            false,
            &["county"],
        );
    }

    // q26: charter high schools.
    push(
        "How many charter schools are at the High education level?".into(),
        "SELECT COUNT(*) FROM schools T1 \
         WHERE T1.charter = 'Yes' AND T1.education_level = 'High'"
            .into(),
        format!(
            "SELECT COUNT(*) FROM schools T1 {JOIN_LLM} \
             WHERE L.charter = 'Yes' AND L.education_level = 'High'"
        ),
        format!(
            "SELECT COUNT(*) FROM schools T1 WHERE {} = 'Yes' AND {} = 'High'",
            udf("Is the school a charter school? Answer Yes or No."),
            udf("What is the education level of the school?")
        ),
        false,
        &["charter", "education_level"],
    );

    // q27: schools in a city with >100 test takers.
    push(
        "List the names of schools in Oakland with more than 100 SAT test takers.".into(),
        "SELECT T1.school_name FROM schools T1 \
         JOIN satscores s ON s.cds_code = T1.cds_code \
         WHERE T1.city = 'Oakland' AND s.num_tst_takr > 100"
            .into(),
        format!(
            "SELECT T1.school_name FROM schools T1 {JOIN_LLM} \
             JOIN satscores s ON s.cds_code = T1.cds_code \
             WHERE L.city = 'Oakland' AND s.num_tst_takr > 100"
        ),
        format!(
            "SELECT T1.school_name FROM schools T1 \
             JOIN satscores s ON s.cds_code = T1.cds_code \
             WHERE {} = 'Oakland' AND s.num_tst_takr > 100",
            udf("Which city is the school located in?")
        ),
        false,
        &["city"],
    );

    // q28: average enrollment of magnet schools.
    push(
        "What is the average enrollment of magnet schools?".into(),
        "SELECT AVG(f.enrollment) FROM schools T1 \
         JOIN frpm f ON f.cds_code = T1.cds_code WHERE T1.magnet = 'Yes'"
            .into(),
        format!(
            "SELECT AVG(f.enrollment) FROM schools T1 {JOIN_LLM} \
             JOIN frpm f ON f.cds_code = T1.cds_code WHERE L.magnet = 'Yes'"
        ),
        format!(
            "SELECT AVG(f.enrollment) FROM schools T1 \
             JOIN frpm f ON f.cds_code = T1.cds_code WHERE {} = 'Yes'",
            udf("Is the school a magnet school? Answer Yes or No.")
        ),
        false,
        &["magnet"],
    );

    // q29: zip code of a prominent school.
    {
        let (n, st) = (sample[4][0].replace('\'', "''"), sample[4][1].replace('\'', "''"));
        push(
            format!("What is the zip code of {} on {}?", sample[4][0], sample[4][1]),
            format!(
                "SELECT T1.zip FROM schools T1 \
                 WHERE T1.school_name = '{n}' AND T1.street = '{st}'"
            ),
            format!(
                "SELECT L.zip FROM schools T1 {JOIN_LLM} \
                 WHERE T1.school_name = '{n}' AND T1.street = '{st}'"
            ),
            format!(
                "SELECT {} FROM schools T1 \
                 WHERE T1.school_name = '{n}' AND T1.street = '{st}'",
                udf("What is the zip code of the school?")
            ),
            false,
            &["zip"],
        );
    }

    // q30: schools per county.
    push(
        "How many schools does each county have?".into(),
        "SELECT T1.county, COUNT(*) FROM schools T1 GROUP BY T1.county".into(),
        format!("SELECT L.county, COUNT(*) FROM schools T1 {JOIN_LLM} GROUP BY L.county"),
        format!(
            "SELECT {county_call}, COUNT(*) FROM schools T1 GROUP BY {county_call}",
            county_call = udf("Which county is the school in?")
        ),
        false,
        &["county"],
    );

    assert_eq!(qs.len(), 30, "california schools question count");
    qs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DomainData {
        generate(&GenConfig::with_scale(0.02))
    }

    #[test]
    fn table_and_drop_counts_match_paper() {
        let d = small();
        assert_eq!(d.table_count(), 3);
        assert_eq!(d.curation.dropped_count(), 12);
    }

    #[test]
    fn one_third_of_questions_have_limit() {
        let d = small();
        assert_eq!(d.questions.len(), 30);
        assert_eq!(d.questions.iter().filter(|q| q.has_limit).count(), 10);
    }

    #[test]
    fn all_sql_parses_and_gold_runs() {
        let d = small();
        for q in &d.questions {
            for sql in [&q.gold_sql, &q.hybrid_sql, &q.udf_sql] {
                swan_sqlengine::parser::parse_statement(sql)
                    .unwrap_or_else(|e| panic!("{}: {e}\n{sql}", q.id));
            }
            d.original
                .query(&q.gold_sql)
                .unwrap_or_else(|e| panic!("{} gold failed: {e}", q.id));
        }
    }

    #[test]
    fn websites_end_with_edu() {
        let d = small();
        let t = d.original.catalog().get("schools").unwrap();
        let w = t.column_index("website").unwrap();
        for row in t.rows() {
            let site = row[w].render();
            assert!(site.starts_with("www.") && site.ends_with(".edu"), "{site}");
        }
    }

    #[test]
    fn popularity_tracks_sat_quality() {
        let d = small();
        // The most popular school should have a high math score.
        let schools = d.original.catalog().get("schools").unwrap();
        let sats = d.original.catalog().get("satscores").unwrap();
        let (best_key, _) = d
            .popularity
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let name_i = schools.column_index("school_name").unwrap();
        let row_idx = schools
            .rows()
            .iter()
            .position(|r| r[name_i].render() == best_key[0])
            .unwrap();
        let math_i = sats.column_index("avg_scr_math").unwrap();
        let best_math = sats.rows()[row_idx][math_i].as_f64().unwrap();
        let avg: f64 = sats.rows().iter().map(|r| r[math_i].as_f64().unwrap()).sum::<f64>()
            / sats.len() as f64;
        assert!(best_math > avg, "most popular school ({best_math}) above average ({avg})");
    }

    #[test]
    fn curated_schools_keeps_only_keys() {
        let d = small();
        let t = d.curated.catalog().get("schools").unwrap();
        assert_eq!(t.column_names(), vec!["cds_code", "school_name", "street"]);
    }

    #[test]
    fn facts_cover_all_12_attributes() {
        let d = small();
        let n = d.original.catalog().get("schools").unwrap().len();
        assert_eq!(d.facts.len(), n * 12);
    }
}
