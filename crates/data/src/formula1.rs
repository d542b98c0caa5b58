//! The Formula One benchmark domain (13 tables, ≈39 561 rows/table at
//! scale 1.0, 12 dropped columns — Table 1).
//!
//! The LLM-facing keys follow §3.4 ("Lewis Hamilton" → code "HAM" is the
//! paper's own few-shot example): drivers are keyed by (forename,
//! surname), circuits and constructors by name, races by (name, date).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swan_sqlengine::{Database, Value};

use crate::builder::*;
use crate::namegen::{self, UniqueNames};
use crate::types::*;

pub const DB_NAME: &str = "formula_1";

const STATUSES: &[&str] = &[
    "Finished", "+1 Lap", "+2 Laps", "Accident", "Collision", "Engine", "Gearbox", "Hydraulics",
    "Brakes", "Electrical", "Retired", "Disqualified", "Puncture", "Fuel system", "Withdrew",
    "Suspension", "Spun off", "Overheating", "Mechanical", "Did not qualify",
];

/// Names the questions reference; sampled deterministically from the
/// generated entities.
#[derive(Debug, Clone)]
struct Sampled {
    drivers: Vec<(String, String)>,
    circuits: Vec<String>,
    constructors: Vec<String>,
    a_country: String,
    a_year: i64,
}

/// Generate the Formula One domain.
pub fn generate(cfg: &GenConfig) -> DomainData {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xF100_0003);

    let n_drivers = cfg.rows(860, 40);
    let n_constructors = cfg.rows(210, 12);
    let n_circuits = cfg.rows(77, 10);
    let n_seasons = 30usize;
    let n_races = cfg.rows(1000, 30);
    let laps_per_driver = if cfg.scale >= 0.5 { 20 } else { 5 };

    let mut original = Database::new();
    create_table(&mut original, "seasons", &["year", "url"], &["year"]);
    create_table(&mut original, "status", &["id", "status_text"], &["id"]);
    create_table(
        &mut original,
        "circuits",
        &["id", "circuit_name", "location", "country", "url"],
        &["id"],
    );
    create_table(
        &mut original,
        "drivers",
        &["id", "forename", "surname", "code", "number", "nationality", "dob", "url"],
        &["id"],
    );
    create_table(
        &mut original,
        "constructors",
        &["id", "constructor_name", "nationality", "url"],
        &["id"],
    );
    create_table(
        &mut original,
        "races",
        &["id", "year", "round", "circuit_id", "race_name", "date", "url"],
        &["id"],
    );
    create_table(
        &mut original,
        "results",
        &["race_id", "driver_id", "constructor_id", "grid", "position", "points", "laps", "status_id"],
        &[],
    );
    create_table(&mut original, "qualifying", &["race_id", "driver_id", "position", "q1_ms"], &[]);
    create_table(&mut original, "sprint_results", &["race_id", "driver_id", "position", "points"], &[]);
    create_table(
        &mut original,
        "driver_standings",
        &["race_id", "driver_id", "points", "position", "wins"],
        &[],
    );
    create_table(
        &mut original,
        "constructor_standings",
        &["race_id", "constructor_id", "points", "position", "wins"],
        &[],
    );
    create_table(&mut original, "lap_times", &["race_id", "driver_id", "lap", "position", "time_ms"], &[]);
    create_table(&mut original, "pit_stops", &["race_id", "driver_id", "stop", "lap", "duration_ms"], &[]);

    let mut facts = Vec::new();
    let mut popularity = Vec::new();

    // Seasons.
    let first_year = 1995i64;
    let mut season_rows = Vec::new();
    for y in 0..n_seasons as i64 {
        let year = first_year + y;
        let url = format!("http://en.wikipedia.org/wiki/{year}_Formula_One_season");
        season_rows.push(vec![Value::Integer(year), Value::text(&url)]);
        facts.push(fact1(&[year.to_string()], "url", &url));
    }
    insert_rows(&mut original, "seasons", season_rows);

    insert_rows(
        &mut original,
        "status",
        STATUSES
            .iter()
            .enumerate()
            .map(|(i, s)| vec![Value::Integer(i as i64 + 1), Value::text(*s)])
            .collect(),
    );

    // Circuits.
    let mut circuit_names = UniqueNames::new();
    let mut circuit_rows = Vec::new();
    let mut circuit_countries = Vec::with_capacity(n_circuits);
    for i in 0..n_circuits {
        let country = namegen::pick(&mut rng, namegen::COUNTRIES).to_string();
        let location = namegen::pick(&mut rng, namegen::CITIES).to_string();
        let name = circuit_names.claim(format!("{location} International Circuit"));
        let url = format!("http://en.wikipedia.org/wiki/{}", name.replace(' ', "_"));
        circuit_rows.push(vec![
            Value::Integer(i as i64 + 1),
            Value::text(&name),
            Value::text(&location),
            Value::text(&country),
            Value::text(&url),
        ]);
        let key = vec![name.clone()];
        facts.push(fact1(&key, "country", &country));
        facts.push(fact1(&key, "location", &location));
        facts.push(fact1(&key, "url", &url));
        popularity.push((key, popularity_from_percentile(rng.gen())));
        circuit_countries.push(country);
    }
    insert_rows(&mut original, "circuits", circuit_rows);

    // Drivers. Skill drives results and popularity.
    let mut driver_names = UniqueNames::new();
    let mut driver_rows = Vec::new();
    let mut driver_skill = Vec::with_capacity(n_drivers);
    let mut driver_keys = Vec::with_capacity(n_drivers);
    for i in 0..n_drivers {
        let full = driver_names.claim(namegen::person_name(&mut rng));
        let (forename, surname) = full.split_once(' ').expect("two-part name");
        let code: String = surname
            .chars()
            .filter(|c| c.is_ascii_alphabetic())
            .take(3)
            .collect::<String>()
            .to_ascii_uppercase();
        let number = rng.gen_range(1..=99);
        let nationality = namegen::pick(&mut rng, namegen::NATIONALITIES).to_string();
        let dob = format!(
            "{}-{:02}-{:02}",
            rng.gen_range(1960..2000),
            rng.gen_range(1..=12),
            rng.gen_range(1..=28)
        );
        let url = format!("http://en.wikipedia.org/wiki/{}", full.replace(' ', "_"));
        driver_rows.push(vec![
            Value::Integer(i as i64 + 1),
            Value::text(forename),
            Value::text(surname),
            Value::text(&code),
            Value::Integer(number),
            Value::text(&nationality),
            Value::text(&dob),
            Value::text(&url),
        ]);
        let key = vec![forename.to_string(), surname.to_string()];
        facts.push(fact1(&key, "code", &code));
        facts.push(fact1(&key, "number", number.to_string()));
        facts.push(fact1(&key, "nationality", &nationality));
        facts.push(fact1(&key, "dob", &dob));
        facts.push(fact1(&key, "url", &url));
        let skill: f64 = rng.gen();
        driver_skill.push(skill);
        popularity.push((key.clone(), popularity_from_percentile(skill)));
        driver_keys.push((forename.to_string(), surname.to_string()));
    }
    insert_rows(&mut original, "drivers", driver_rows);

    // Constructors.
    let mut constructor_names = UniqueNames::new();
    let mut constructor_rows = Vec::new();
    let mut constructor_list = Vec::with_capacity(n_constructors);
    for i in 0..n_constructors {
        let name = constructor_names.claim(format!(
            "{} {}",
            namegen::pick(&mut rng, namegen::LAST_NAMES),
            namegen::pick(&mut rng, namegen::TEAM_WORDS)
        ));
        let nationality = namegen::pick(&mut rng, namegen::NATIONALITIES).to_string();
        let url = format!("http://en.wikipedia.org/wiki/{}", name.replace(' ', "_"));
        constructor_rows.push(vec![
            Value::Integer(i as i64 + 1),
            Value::text(&name),
            Value::text(&nationality),
            Value::text(&url),
        ]);
        let key = vec![name.clone()];
        facts.push(fact1(&key, "nationality", &nationality));
        facts.push(fact1(&key, "url", &url));
        popularity.push((key, popularity_from_percentile(rng.gen())));
        constructor_list.push(name);
    }
    insert_rows(&mut original, "constructors", constructor_rows);

    // Races + per-race tables.
    let mut race_rows = Vec::new();
    let mut result_rows = Vec::new();
    let mut quali_rows = Vec::new();
    let mut sprint_rows = Vec::new();
    let mut dstand_rows = Vec::new();
    let mut cstand_rows = Vec::new();
    let mut lap_rows = Vec::new();
    let mut pit_rows = Vec::new();
    const POINTS: [i64; 10] = [25, 18, 15, 12, 10, 8, 6, 4, 2, 1];

    let grid_size = 20.min(n_drivers);
    for r in 0..n_races {
        let year = first_year + (r % n_seasons) as i64;
        let round = (r / n_seasons) as i64 + 1;
        let circuit = rng.gen_range(0..n_circuits);
        let name = format!("{} Grand Prix", circuit_countries[circuit]);
        let date = format!("{year}-{:02}-{:02}", rng.gen_range(3..=11), rng.gen_range(1..=28));
        let url = format!(
            "http://en.wikipedia.org/wiki/{}_{}",
            year,
            name.replace(' ', "_")
        );
        race_rows.push(vec![
            Value::Integer(r as i64 + 1),
            Value::Integer(year),
            Value::Integer(round),
            Value::Integer(circuit as i64 + 1),
            Value::text(&name),
            Value::text(&date),
            Value::text(&url),
        ]);
        facts.push(fact1(&[name.clone(), date.clone()], "url", &url));

        // Pick a grid of drivers, order by (skill + luck) for positions.
        let mut entrants: Vec<usize> = Vec::with_capacity(grid_size);
        while entrants.len() < grid_size {
            let d = rng.gen_range(0..n_drivers);
            if !entrants.contains(&d) {
                entrants.push(d);
            }
        }
        let mut order: Vec<(usize, f64)> = entrants
            .iter()
            .map(|&d| (d, driver_skill[d] + rng.gen_range(-0.3..0.3)))
            .collect();
        order.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

        for (pos, &(d, _)) in order.iter().enumerate() {
            let position = pos as i64 + 1;
            let points = POINTS.get(pos).copied().unwrap_or(0);
            let constructor = (d % n_constructors) as i64 + 1;
            let finished = rng.gen_bool(0.8);
            result_rows.push(vec![
                Value::Integer(r as i64 + 1),
                Value::Integer(d as i64 + 1),
                Value::Integer(constructor),
                Value::Integer(rng.gen_range(1..=grid_size as i64)),
                Value::Integer(position),
                Value::Integer(points),
                Value::Integer(rng.gen_range(40..=70)),
                Value::Integer(if finished { 1 } else { rng.gen_range(2..=STATUSES.len() as i64) }),
            ]);
            if pos < 10 {
                quali_rows.push(vec![
                    Value::Integer(r as i64 + 1),
                    Value::Integer(d as i64 + 1),
                    Value::Integer(position),
                    Value::Integer(rng.gen_range(70_000..95_000)),
                ]);
            }
            dstand_rows.push(vec![
                Value::Integer(r as i64 + 1),
                Value::Integer(d as i64 + 1),
                Value::Integer(points * (round.max(1))),
                Value::Integer(position),
                Value::Integer(if pos == 0 { 1 } else { 0 }),
            ]);
            for lap in 1..=laps_per_driver {
                lap_rows.push(vec![
                    Value::Integer(r as i64 + 1),
                    Value::Integer(d as i64 + 1),
                    Value::Integer(lap as i64),
                    Value::Integer(position),
                    Value::Integer(rng.gen_range(72_000..110_000)),
                ]);
            }
            if rng.gen_bool(0.8) {
                pit_rows.push(vec![
                    Value::Integer(r as i64 + 1),
                    Value::Integer(d as i64 + 1),
                    Value::Integer(1),
                    Value::Integer(rng.gen_range(10..40)),
                    Value::Integer(rng.gen_range(19_000..32_000)),
                ]);
            }
        }
        for c in 0..(10.min(n_constructors)) {
            cstand_rows.push(vec![
                Value::Integer(r as i64 + 1),
                Value::Integer(c as i64 + 1),
                Value::Integer(rng.gen_range(0..600)),
                Value::Integer(c as i64 + 1),
                Value::Integer(rng.gen_range(0..10)),
            ]);
        }
        if r % 5 == 0 {
            for (pos, &(d, _)) in order.iter().take(8).enumerate() {
                sprint_rows.push(vec![
                    Value::Integer(r as i64 + 1),
                    Value::Integer(d as i64 + 1),
                    Value::Integer(pos as i64 + 1),
                    Value::Integer((8 - pos as i64).max(0)),
                ]);
            }
        }
    }
    insert_rows(&mut original, "races", race_rows);
    insert_rows(&mut original, "results", result_rows);
    insert_rows(&mut original, "qualifying", quali_rows);
    insert_rows(&mut original, "sprint_results", sprint_rows);
    insert_rows(&mut original, "driver_standings", dstand_rows);
    insert_rows(&mut original, "constructor_standings", cstand_rows);
    insert_rows(&mut original, "lap_times", lap_rows);
    insert_rows(&mut original, "pit_stops", pit_rows);

    let text_list = |items: &[&str]| items.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let curation = CurationSpec {
        dropped_columns: vec![
            ("drivers".into(), "code".into()),
            ("drivers".into(), "number".into()),
            ("drivers".into(), "nationality".into()),
            ("drivers".into(), "dob".into()),
            ("drivers".into(), "url".into()),
            ("constructors".into(), "nationality".into()),
            ("constructors".into(), "url".into()),
            ("circuits".into(), "country".into()),
            ("circuits".into(), "location".into()),
            ("circuits".into(), "url".into()),
            ("races".into(), "url".into()),
            ("seasons".into(), "url".into()),
        ],
        dropped_tables: vec![],
        expansions: vec![
            Expansion {
                table: "llm_drivers".into(),
                base_table: "drivers".into(),
                key_columns: vec!["forename".into(), "surname".into()],
                generated: vec![
                    GenColumn::free_form("code"),
                    GenColumn::free_form("number"),
                    GenColumn::selection("nationality", text_list(namegen::NATIONALITIES)),
                    GenColumn::free_form("dob"),
                    GenColumn::free_form("url"),
                ],
            },
            Expansion {
                table: "llm_constructors".into(),
                base_table: "constructors".into(),
                key_columns: vec!["constructor_name".into()],
                generated: vec![
                    GenColumn::selection("nationality", text_list(namegen::NATIONALITIES)),
                    GenColumn::free_form("url"),
                ],
            },
            Expansion {
                table: "llm_circuits".into(),
                base_table: "circuits".into(),
                key_columns: vec!["circuit_name".into()],
                generated: vec![
                    GenColumn::selection("country", text_list(namegen::COUNTRIES)),
                    GenColumn::free_form("location"),
                    GenColumn::free_form("url"),
                ],
            },
            Expansion {
                table: "llm_races".into(),
                base_table: "races".into(),
                key_columns: vec!["race_name".into(), "date".into()],
                generated: vec![GenColumn::free_form("url")],
            },
            Expansion {
                table: "llm_seasons".into(),
                base_table: "seasons".into(),
                key_columns: vec!["year".into()],
                generated: vec![GenColumn::free_form("url")],
            },
        ],
    };
    let curated = apply_curation(&original, &curation);

    // Questions reference *prominent* drivers (highest skill — the
    // Hamiltons of the synthetic grid), mirroring Bird's real questions.
    let mut ranked: Vec<usize> = (0..n_drivers).collect();
    ranked.sort_by(|&a, &b| driver_skill[b].partial_cmp(&driver_skill[a]).unwrap());
    // Mix of champions and midfield drivers (prominence spread).
    let picks = [
        0,
        n_drivers / 20,
        n_drivers / 8,
        n_drivers / 4,
        n_drivers / 2,
        2 * n_drivers / 3,
    ];
    let sampled = Sampled {
        drivers: picks
            .iter()
            .map(|&i| driver_keys[i.min(n_drivers - 1)].clone())
            .collect(),
        circuits: (0..3)
            .map(|i| {
                original
                    .catalog()
                    .get("circuits")
                    .unwrap()
                    .rows()[i][1]
                    .render()
            })
            .collect(),
        constructors: constructor_list.into_iter().take(2).collect(),
        a_country: circuit_countries[0].clone(),
        a_year: first_year + 5,
    };

    DomainData {
        name: DB_NAME.into(),
        display_name: "Formula One".into(),
        original,
        curated,
        curation,
        facts,
        popularity,
        phrases: phrases(),
        questions: questions(&sampled),
    }
}

fn phrases() -> Vec<QuestionPhrase> {
    let p = |text: &str, attr: &str| QuestionPhrase { text: text.into(), attribute: attr.into() };
    vec![
        p("What is the driver code?", "code"),
        p("What is the driver's racing number?", "number"),
        p("What is the nationality of the driver?", "nationality"),
        p("What is the date of birth of the driver?", "dob"),
        p("What is the Wikipedia url of the driver?", "url"),
        p("What is the nationality of the constructor?", "nationality"),
        p("What is the Wikipedia url of the constructor?", "url"),
        p("In which country is the circuit located?", "country"),
        p("In which city is the circuit located?", "location"),
        p("What is the Wikipedia url of the circuit?", "url"),
        p("What is the Wikipedia url of the race?", "url"),
    ]
}

const JOIN_DRIVERS: &str =
    "JOIN llm_drivers L ON L.forename = T1.forename AND L.surname = T1.surname";
const JOIN_CIRCUITS: &str = "JOIN llm_circuits L ON L.circuit_name = c.circuit_name";

fn questions(s: &Sampled) -> Vec<Question> {
    let mut qs = Vec::with_capacity(30);
    let mut push = |text: String,
                    gold: String,
                    hybrid: String,
                    udf_sql: String,
                    has_limit: bool,
                    attrs: &[&str]| {
        let id = format!("formula_1_q{:02}", qs.len() + 1);
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
            attributes: attrs.iter().map(|x| x.to_string()).collect(),
        });
    };
    let esc = |x: &str| x.replace('\'', "''");

    // q01-q03: driver codes (the paper's own few-shot example).
    for (f, l) in s.drivers.iter().take(3) {
        let (f, l) = (esc(f), esc(l));
        push(
            format!("What is the driver code of {f} {l}?"),
            format!(
                "SELECT T1.code FROM drivers T1 \
                 WHERE T1.forename = '{f}' AND T1.surname = '{l}'"
            ),
            format!(
                "SELECT L.code FROM drivers T1 {JOIN_DRIVERS} \
                 WHERE T1.forename = '{f}' AND T1.surname = '{l}'"
            ),
            format!(
                "SELECT llm_map('What is the driver code?', T1.forename, T1.surname) \
                 FROM drivers T1 WHERE T1.forename = '{f}' AND T1.surname = '{l}'"
            ),
            false,
            &["code"],
        );
    }

    // q04-q05: driver nationality point lookups.
    for (f, l) in s.drivers.iter().skip(3).take(2) {
        let (f, l) = (esc(f), esc(l));
        push(
            format!("What is the nationality of the driver {f} {l}?"),
            format!(
                "SELECT T1.nationality FROM drivers T1 \
                 WHERE T1.forename = '{f}' AND T1.surname = '{l}'"
            ),
            format!(
                "SELECT L.nationality FROM drivers T1 {JOIN_DRIVERS} \
                 WHERE T1.forename = '{f}' AND T1.surname = '{l}'"
            ),
            format!(
                "SELECT llm_map('What is the nationality of the driver?', T1.forename, T1.surname) \
                 FROM drivers T1 WHERE T1.forename = '{f}' AND T1.surname = '{l}'"
            ),
            false,
            &["nationality"],
        );
    }

    // q06-q08: nationality counts.
    for nat in ["British", "German", "Italian"] {
        push(
            format!("How many drivers are {nat}?"),
            format!("SELECT COUNT(*) FROM drivers T1 WHERE T1.nationality = '{nat}'"),
            format!("SELECT COUNT(*) FROM drivers T1 {JOIN_DRIVERS} WHERE L.nationality = '{nat}'"),
            format!(
                "SELECT COUNT(*) FROM drivers T1 \
                 WHERE llm_map('What is the nationality of the driver?', T1.forename, T1.surname) = '{nat}'"
            ),
            false,
            &["nationality"],
        );
    }

    // q09-q10: circuit countries.
    for circuit in s.circuits.iter().take(2) {
        let cname = esc(circuit);
        push(
            format!("In which country is the circuit {circuit}?"),
            format!("SELECT c.country FROM circuits c WHERE c.circuit_name = '{cname}'"),
            format!(
                "SELECT L.country FROM circuits c {JOIN_CIRCUITS} \
                 WHERE c.circuit_name = '{cname}'"
            ),
            format!(
                "SELECT llm_map('In which country is the circuit located?', c.circuit_name) \
                 FROM circuits c WHERE c.circuit_name = '{cname}'"
            ),
            false,
            &["country"],
        );
    }

    // q11-q12: circuits per country.
    for country in ["Italy", "Germany"] {
        push(
            format!("How many circuits are located in {country}?"),
            format!("SELECT COUNT(*) FROM circuits c WHERE c.country = '{country}'"),
            format!("SELECT COUNT(*) FROM circuits c {JOIN_CIRCUITS} WHERE L.country = '{country}'"),
            format!(
                "SELECT COUNT(*) FROM circuits c \
                 WHERE llm_map('In which country is the circuit located?', c.circuit_name) = '{country}'"
            ),
            false,
            &["country"],
        );
    }

    // q13-q14: constructors by nationality.
    for nat in ["British", "Italian"] {
        push(
            format!("List the names of constructors with {nat} nationality."),
            format!(
                "SELECT T1.constructor_name FROM constructors T1 WHERE T1.nationality = '{nat}'"
            ),
            format!(
                "SELECT T1.constructor_name FROM constructors T1 \
                 JOIN llm_constructors L ON L.constructor_name = T1.constructor_name \
                 WHERE L.nationality = '{nat}'"
            ),
            format!(
                "SELECT T1.constructor_name FROM constructors T1 \
                 WHERE llm_map('What is the nationality of the constructor?', T1.constructor_name) = '{nat}'"
            ),
            false,
            &["nationality"],
        );
    }

    // q15-q16: races at circuits in a country.
    for country in ["Spain", "Japan"] {
        push(
            format!("How many races were held at circuits located in {country}?"),
            format!(
                "SELECT COUNT(*) FROM races r JOIN circuits c ON r.circuit_id = c.id \
                 WHERE c.country = '{country}'"
            ),
            format!(
                "SELECT COUNT(*) FROM races r JOIN circuits c ON r.circuit_id = c.id \
                 {JOIN_CIRCUITS} WHERE L.country = '{country}'"
            ),
            format!(
                "SELECT COUNT(*) FROM races r JOIN circuits c ON r.circuit_id = c.id \
                 WHERE llm_map('In which country is the circuit located?', c.circuit_name) = '{country}'"
            ),
            false,
            &["country"],
        );
    }

    // q17-q18: dates of birth.
    for (f, l) in s.drivers.iter().take(2) {
        let (f, l) = (esc(f), esc(l));
        push(
            format!("What is the date of birth of the driver {f} {l}?"),
            format!(
                "SELECT T1.dob FROM drivers T1 WHERE T1.forename = '{f}' AND T1.surname = '{l}'"
            ),
            format!(
                "SELECT L.dob FROM drivers T1 {JOIN_DRIVERS} \
                 WHERE T1.forename = '{f}' AND T1.surname = '{l}'"
            ),
            format!(
                "SELECT llm_map('What is the date of birth of the driver?', T1.forename, T1.surname) \
                 FROM drivers T1 WHERE T1.forename = '{f}' AND T1.surname = '{l}'"
            ),
            false,
            &["dob"],
        );
    }

    // q19-q20: points by nationality.
    for nat in ["French", "Spanish"] {
        push(
            format!("What is the total number of points scored by {nat} drivers?"),
            format!(
                "SELECT SUM(res.points) FROM results res \
                 JOIN drivers T1 ON res.driver_id = T1.id WHERE T1.nationality = '{nat}'"
            ),
            format!(
                "SELECT SUM(res.points) FROM results res \
                 JOIN drivers T1 ON res.driver_id = T1.id {JOIN_DRIVERS} \
                 WHERE L.nationality = '{nat}'"
            ),
            format!(
                "SELECT SUM(res.points) FROM results res \
                 JOIN drivers T1 ON res.driver_id = T1.id \
                 WHERE llm_map('What is the nationality of the driver?', T1.forename, T1.surname) = '{nat}'"
            ),
            false,
            &["nationality"],
        );
    }

    // q21: drivers born before 1985.
    push(
        "How many drivers were born before 1985?".into(),
        "SELECT COUNT(*) FROM drivers T1 WHERE T1.dob < '1985-01-01'".into(),
        format!("SELECT COUNT(*) FROM drivers T1 {JOIN_DRIVERS} WHERE L.dob < '1985-01-01'"),
        "SELECT COUNT(*) FROM drivers T1 \
         WHERE llm_map('What is the date of birth of the driver?', T1.forename, T1.surname) < '1985-01-01'"
            .into(),
        false,
        &["dob"],
    );

    // q22: codes of multi-win drivers (correlated subquery).
    push(
        "List the driver codes of drivers with more than 3 race wins.".into(),
        "SELECT T1.code FROM drivers T1 WHERE \
         (SELECT COUNT(*) FROM results r WHERE r.driver_id = T1.id AND r.position = 1) > 3"
            .into(),
        format!(
            "SELECT L.code FROM drivers T1 {JOIN_DRIVERS} WHERE \
             (SELECT COUNT(*) FROM results r WHERE r.driver_id = T1.id AND r.position = 1) > 3"
        ),
        "SELECT llm_map('What is the driver code?', T1.forename, T1.surname) FROM drivers T1 WHERE \
         (SELECT COUNT(*) FROM results r WHERE r.driver_id = T1.id AND r.position = 1) > 3"
            .into(),
        false,
        &["code"],
    );

    // q23-q24: top-5 drivers by points per nationality (LIMIT).
    for nat in ["British", "German"] {
        push(
            format!("List the top 5 {nat} drivers by total points scored."),
            format!(
                "SELECT T1.forename, T1.surname FROM drivers T1 \
                 JOIN results r ON r.driver_id = T1.id WHERE T1.nationality = '{nat}' \
                 GROUP BY T1.id ORDER BY SUM(r.points) DESC, T1.surname LIMIT 5"
            ),
            format!(
                "SELECT T1.forename, T1.surname FROM drivers T1 \
                 JOIN results r ON r.driver_id = T1.id {JOIN_DRIVERS} \
                 WHERE L.nationality = '{nat}' \
                 GROUP BY T1.id ORDER BY SUM(r.points) DESC, T1.surname LIMIT 5"
            ),
            format!(
                "SELECT T1.forename, T1.surname FROM drivers T1 \
                 JOIN results r ON r.driver_id = T1.id \
                 WHERE llm_map('What is the nationality of the driver?', T1.forename, T1.surname) = '{nat}' \
                 GROUP BY T1.id ORDER BY SUM(r.points) DESC, T1.surname LIMIT 5"
            ),
            true,
            &["nationality"],
        );
    }

    // q25: 5 most recent races in a country (LIMIT).
    push(
        format!("List the 5 most recent races held in {}.", s.a_country),
        format!(
            "SELECT r.race_name FROM races r JOIN circuits c ON r.circuit_id = c.id \
             WHERE c.country = '{0}' ORDER BY r.date DESC, r.race_name LIMIT 5",
            esc(&s.a_country)
        ),
        format!(
            "SELECT r.race_name FROM races r JOIN circuits c ON r.circuit_id = c.id \
             {JOIN_CIRCUITS} WHERE L.country = '{0}' \
             ORDER BY r.date DESC, r.race_name LIMIT 5",
            esc(&s.a_country)
        ),
        format!(
            "SELECT r.race_name FROM races r JOIN circuits c ON r.circuit_id = c.id \
             WHERE llm_map('In which country is the circuit located?', c.circuit_name) = '{0}' \
             ORDER BY r.date DESC, r.race_name LIMIT 5",
            esc(&s.a_country)
        ),
        true,
        &["country"],
    );

    // q26: circuit location city.
    {
        let cname = esc(&s.circuits[2]);
        push(
            format!("In which city is the circuit {} located?", s.circuits[2]),
            format!("SELECT c.location FROM circuits c WHERE c.circuit_name = '{cname}'"),
            format!(
                "SELECT L.location FROM circuits c {JOIN_CIRCUITS} \
                 WHERE c.circuit_name = '{cname}'"
            ),
            format!(
                "SELECT llm_map('In which city is the circuit located?', c.circuit_name) \
                 FROM circuits c WHERE c.circuit_name = '{cname}'"
            ),
            false,
            &["location"],
        );
    }

    // q27: constructor url.
    {
        let cn = esc(&s.constructors[0]);
        push(
            format!("What is the Wikipedia url of the constructor {}?", s.constructors[0]),
            format!(
                "SELECT T1.url FROM constructors T1 WHERE T1.constructor_name = '{cn}'"
            ),
            format!(
                "SELECT L.url FROM constructors T1 \
                 JOIN llm_constructors L ON L.constructor_name = T1.constructor_name \
                 WHERE T1.constructor_name = '{cn}'"
            ),
            format!(
                "SELECT llm_map('What is the Wikipedia url of the constructor?', T1.constructor_name) \
                 FROM constructors T1 WHERE T1.constructor_name = '{cn}'"
            ),
            false,
            &["url"],
        );
    }

    // q28: races in a country during a season.
    push(
        format!("List the names of races held in {} during the {} season.", s.a_country, s.a_year),
        format!(
            "SELECT r.race_name FROM races r JOIN circuits c ON r.circuit_id = c.id \
             WHERE c.country = '{0}' AND r.year = {1}",
            esc(&s.a_country),
            s.a_year
        ),
        format!(
            "SELECT r.race_name FROM races r JOIN circuits c ON r.circuit_id = c.id \
             {JOIN_CIRCUITS} WHERE L.country = '{0}' AND r.year = {1}",
            esc(&s.a_country),
            s.a_year
        ),
        format!(
            "SELECT r.race_name FROM races r JOIN circuits c ON r.circuit_id = c.id \
             WHERE llm_map('In which country is the circuit located?', c.circuit_name) = '{0}' \
             AND r.year = {1}",
            esc(&s.a_country),
            s.a_year
        ),
        false,
        &["country"],
    );

    // q29: constructor nationality count.
    push(
        "How many constructors are German?".into(),
        "SELECT COUNT(*) FROM constructors T1 WHERE T1.nationality = 'German'".into(),
        "SELECT COUNT(*) FROM constructors T1 \
         JOIN llm_constructors L ON L.constructor_name = T1.constructor_name \
         WHERE L.nationality = 'German'"
            .into(),
        "SELECT COUNT(*) FROM constructors T1 \
         WHERE llm_map('What is the nationality of the constructor?', T1.constructor_name) = 'German'"
            .into(),
        false,
        &["nationality"],
    );

    // q30: drivers per nationality.
    push(
        "How many drivers does each nationality have?".into(),
        "SELECT T1.nationality, COUNT(*) FROM drivers T1 GROUP BY T1.nationality".into(),
        format!(
            "SELECT L.nationality, COUNT(*) FROM drivers T1 {JOIN_DRIVERS} \
             GROUP BY L.nationality"
        ),
        "SELECT llm_map('What is the nationality of the driver?', T1.forename, T1.surname), COUNT(*) \
         FROM drivers T1 \
         GROUP BY llm_map('What is the nationality of the driver?', T1.forename, T1.surname)"
            .into(),
        false,
        &["nationality"],
    );

    assert_eq!(qs.len(), 30, "formula 1 question count");
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
        assert_eq!(d.table_count(), 13);
        assert_eq!(d.curation.dropped_count(), 12);
    }

    #[test]
    fn questions_well_formed() {
        let d = small();
        assert_eq!(d.questions.len(), 30);
        assert_eq!(d.questions.iter().filter(|q| q.has_limit).count(), 3);
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
    fn point_lookup_gold_answers_are_nonempty() {
        let d = small();
        // Driver-code questions reference sampled real drivers.
        let r = d.original.query(&d.questions[0].gold_sql).unwrap();
        assert_eq!(r.rows.len(), 1);
        let code = r.rows[0][0].render();
        assert_eq!(code.len(), 3);
        assert_eq!(code, code.to_uppercase());
    }

    #[test]
    fn driver_keys_unique() {
        let d = small();
        let t = d.original.catalog().get("drivers").unwrap();
        let f = t.column_index("forename").unwrap();
        let l = t.column_index("surname").unwrap();
        let mut seen = std::collections::HashSet::new();
        for row in t.rows() {
            assert!(seen.insert((row[f].render(), row[l].render())));
        }
    }

    #[test]
    fn five_expansions_cover_twelve_drops() {
        let d = small();
        let generated: usize = d.curation.expansions.iter().map(|e| e.generated.len()).sum();
        assert_eq!(generated, 12, "every dropped column has a generator");
        assert_eq!(d.curation.expansions.len(), 5);
    }

    #[test]
    fn results_positions_are_dense_per_race() {
        let d = small();
        let t = d.original.catalog().get("results").unwrap();
        let race_i = t.column_index("race_id").unwrap();
        let pos_i = t.column_index("position").unwrap();
        let mut first_race: Vec<i64> = t
            .rows()
            .iter()
            .filter(|r| r[race_i] == Value::Integer(1))
            .map(|r| r[pos_i].as_i64().unwrap())
            .collect();
        first_race.sort();
        let n = first_race.len();
        assert!(n >= 10);
        assert_eq!(first_race, (1..=n as i64).collect::<Vec<_>>());
    }
}
