//! The European Football benchmark domain (7 tables, ≈31 828 rows/table
//! at scale 1.0, 12 dropped columns — Table 1).
//!
//! This domain carries the paper's §5.5 cost-analysis scenario: player
//! heights are dropped, so "What is the height of the tallest player?"
//! and "Please list player names who are taller than 180cm" both require
//! the LLM — and a good cache/materialization strategy answers the second
//! from the first's generations.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swan_sqlengine::{Database, Value};

use crate::builder::*;
use crate::namegen::{self, UniqueNames};
use crate::types::*;

pub const DB_NAME: &str = "european_football";

pub const FOOT: &[&str] = &["left", "right"];
pub const WORK_RATES: &[&str] = &["low", "medium", "high"];
pub const SPEED_CLASSES: &[&str] = &["Slow", "Balanced", "Fast"];
pub const PRESSURE_CLASSES: &[&str] = &["Deep", "Medium", "High"];
pub const LEAGUE_COUNTRIES: &[&str] = &[
    "England", "Spain", "Germany", "Italy", "France", "Netherlands", "Portugal", "Belgium",
    "Scotland", "Switzerland", "Poland",
];
/// Seasons snapshotted in `player_attributes` / `team_attributes`.
pub const SEASONS: &[&str] = &[
    "2008/2009", "2009/2010", "2010/2011", "2011/2012", "2012/2013", "2013/2014", "2014/2015",
    "2015/2016",
];

#[derive(Debug, Clone)]
struct Sampled {
    players: Vec<String>,
    teams: Vec<String>,
    leagues: Vec<String>,
}

/// Generate the European Football domain.
pub fn generate(cfg: &GenConfig) -> DomainData {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xF00B_0004);

    let n_players = cfg.rows(11_060, 80);
    let n_teams = cfg.rows(300, 12);
    let n_matches = cfg.rows(26_000, 60);
    // Player snapshots chosen so the 7-table average lands near the
    // paper's 31 828 at scale 1.0.
    let snapshots = 16usize;

    let mut original = Database::new();
    create_table(&mut original, "country", &["id", "country_name"], &["id"]);
    create_table(&mut original, "league", &["id", "country_id", "league_name"], &["id"]);
    create_table(&mut original, "team", &["id", "team_long_name", "team_short_name"], &["id"]);
    create_table(
        &mut original,
        "team_attributes",
        &["team_id", "season", "build_up_play_speed_class", "defence_pressure_class"],
        &[],
    );
    create_table(
        &mut original,
        "player",
        &["id", "player_name", "birthday", "height", "weight", "nationality", "birth_city"],
        &["id"],
    );
    create_table(
        &mut original,
        "player_attributes",
        &["player_id", "season", "overall_rating", "potential", "preferred_foot", "attacking_work_rate"],
        &[],
    );
    create_table(
        &mut original,
        "match",
        &["id", "league_id", "season", "home_team_id", "away_team_id", "home_goals", "away_goals", "date"],
        &["id"],
    );

    let mut facts = Vec::new();
    let mut popularity = Vec::new();

    // Countries + leagues (one league per country, like the Bird data).
    let mut country_rows = Vec::new();
    let mut league_rows = Vec::new();
    let mut league_names = Vec::new();
    for (i, c) in LEAGUE_COUNTRIES.iter().enumerate() {
        country_rows.push(vec![Value::Integer(i as i64 + 1), Value::text(*c)]);
        let league = match i % 3 {
            0 => format!("{c} Premier League"),
            1 => format!("{c} First Division"),
            _ => format!("{c} National League"),
        };
        league_rows.push(vec![
            Value::Integer(i as i64 + 1),
            Value::Integer(i as i64 + 1),
            Value::text(&league),
        ]);
        facts.push(fact1(std::slice::from_ref(&league), "country_name", *c));
        league_names.push(league);
    }
    insert_rows(&mut original, "country", country_rows);
    insert_rows(&mut original, "league", league_rows);

    // Teams.
    let mut team_names = UniqueNames::new();
    let mut team_rows = Vec::new();
    let mut ta_rows = Vec::new();
    let mut team_list: Vec<(String, f64)> = Vec::with_capacity(n_teams);
    for i in 0..n_teams {
        let long = team_names.claim(format!(
            "{} {}",
            namegen::pick(&mut rng, namegen::CITIES),
            namegen::pick(&mut rng, namegen::TEAM_WORDS)
        ));
        let short: String = long
            .split(' ')
            .filter_map(|w| w.chars().next())
            .chain(long.chars().skip(1).take(1))
            .take(3)
            .collect::<String>()
            .to_ascii_uppercase();
        let speed = namegen::pick(&mut rng, SPEED_CLASSES).to_string();
        let pressure = namegen::pick(&mut rng, PRESSURE_CLASSES).to_string();
        team_rows.push(vec![
            Value::Integer(i as i64 + 1),
            Value::text(&long),
            Value::text(&short),
        ]);
        for season in SEASONS.iter().take(5) {
            ta_rows.push(vec![
                Value::Integer(i as i64 + 1),
                Value::text(*season),
                Value::text(&speed),
                Value::text(&pressure),
            ]);
        }
        let key = vec![long.clone()];
        facts.push(fact1(&key, "team_short_name", &short));
        facts.push(fact1(&key, "build_up_play_speed_class", &speed));
        facts.push(fact1(&key, "defence_pressure_class", &pressure));
        let prominence: f64 = rng.gen();
        popularity.push((key, popularity_from_percentile(prominence)));
        team_list.push((long, prominence));
    }
    insert_rows(&mut original, "team", team_rows);
    insert_rows(&mut original, "team_attributes", ta_rows);

    // Players.
    let mut player_names = UniqueNames::new();
    let mut player_rows = Vec::new();
    let mut pa_rows = Vec::new();
    let mut player_list: Vec<(String, f64)> = Vec::with_capacity(n_players);
    for i in 0..n_players {
        let name = player_names.claim(namegen::person_name(&mut rng));
        let height = rng.gen_range(158..=202);
        let weight = rng.gen_range(58..=98);
        let birthday = format!(
            "{}-{:02}-{:02}",
            rng.gen_range(1975..1998),
            rng.gen_range(1..=12),
            rng.gen_range(1..=28)
        );
        let nationality = namegen::pick(&mut rng, namegen::NATIONALITIES).to_string();
        let birth_city = namegen::pick(&mut rng, namegen::CITIES).to_string();
        let foot = if rng.gen_bool(0.25) { "left" } else { "right" };
        let work_rate = namegen::pick(&mut rng, WORK_RATES).to_string();
        // Ability drives ratings and popularity.
        let ability: f64 = rng.gen();
        player_rows.push(vec![
            Value::Integer(i as i64 + 1),
            Value::text(&name),
            Value::text(&birthday),
            Value::Integer(height),
            Value::Integer(weight),
            Value::text(&nationality),
            Value::text(&birth_city),
        ]);
        for (s, season) in SEASONS.iter().cycle().take(snapshots).enumerate() {
            let rating = (45.0 + 50.0 * ability + rng.gen_range(-4.0..4.0)).clamp(40.0, 99.0) as i64;
            let potential = (rating + rng.gen_range(0i64..8)).min(99);
            let _ = s;
            pa_rows.push(vec![
                Value::Integer(i as i64 + 1),
                Value::text(*season),
                Value::Integer(rating),
                Value::Integer(potential),
                Value::text(foot),
                Value::text(&work_rate),
            ]);
        }
        let key = vec![name.clone()];
        facts.push(fact1(&key, "height", height.to_string()));
        facts.push(fact1(&key, "weight", weight.to_string()));
        facts.push(fact1(&key, "birthday", &birthday));
        facts.push(fact1(&key, "nationality", &nationality));
        facts.push(fact1(&key, "birth_city", &birth_city));
        facts.push(fact1(&key, "preferred_foot", foot));
        facts.push(fact1(&key, "attacking_work_rate", &work_rate));
        popularity.push((key, popularity_from_percentile(ability)));
        player_list.push((name, ability));
    }
    insert_rows(&mut original, "player", player_rows);
    insert_rows(&mut original, "player_attributes", pa_rows);

    // Matches.
    let mut match_rows = Vec::with_capacity(n_matches);
    for i in 0..n_matches {
        let league = rng.gen_range(0..LEAGUE_COUNTRIES.len()) as i64 + 1;
        let home = rng.gen_range(0..n_teams) as i64 + 1;
        let mut away = rng.gen_range(0..n_teams) as i64 + 1;
        if away == home {
            away = (away % n_teams as i64) + 1;
        }
        let season = namegen::pick(&mut rng, SEASONS).to_string();
        let year = 2008 + (i % 8) as i64;
        match_rows.push(vec![
            Value::Integer(i as i64 + 1),
            Value::Integer(league),
            Value::text(&season),
            Value::Integer(home),
            Value::Integer(away),
            Value::Integer(rng.gen_range(0..6)),
            Value::Integer(rng.gen_range(0..6)),
            Value::text(format!("{year}-{:02}-{:02}", rng.gen_range(1..=12), rng.gen_range(1..=28))),
        ]);
    }
    insert_rows(&mut original, "match", match_rows);

    let text_list = |items: &[&str]| items.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let curation = CurationSpec {
        dropped_columns: vec![
            ("player".into(), "height".into()),
            ("player".into(), "weight".into()),
            ("player".into(), "birthday".into()),
            ("player".into(), "nationality".into()),
            ("player".into(), "birth_city".into()),
            ("player_attributes".into(), "preferred_foot".into()),
            ("player_attributes".into(), "attacking_work_rate".into()),
            ("team".into(), "team_short_name".into()),
            ("team_attributes".into(), "build_up_play_speed_class".into()),
            ("team_attributes".into(), "defence_pressure_class".into()),
        ],
        dropped_tables: vec![("country".into(), 2)],
        expansions: vec![
            Expansion {
                table: "llm_player".into(),
                base_table: "player".into(),
                key_columns: vec!["player_name".into()],
                generated: vec![
                    GenColumn::free_form("height"),
                    GenColumn::free_form("weight"),
                    GenColumn::free_form("birthday"),
                    GenColumn::selection("nationality", text_list(namegen::NATIONALITIES)),
                    GenColumn::free_form("birth_city"),
                    GenColumn::selection("preferred_foot", text_list(FOOT)),
                    GenColumn::selection("attacking_work_rate", text_list(WORK_RATES)),
                ],
            },
            Expansion {
                table: "llm_team".into(),
                base_table: "team".into(),
                key_columns: vec!["team_long_name".into()],
                generated: vec![
                    GenColumn::free_form("team_short_name"),
                    GenColumn::selection("build_up_play_speed_class", text_list(SPEED_CLASSES)),
                    GenColumn::selection("defence_pressure_class", text_list(PRESSURE_CLASSES)),
                ],
            },
            Expansion {
                table: "llm_league".into(),
                base_table: "league".into(),
                key_columns: vec!["league_name".into()],
                generated: vec![GenColumn::selection(
                    "country_name",
                    text_list(LEAGUE_COUNTRIES),
                )],
            },
        ],
    };
    let curated = apply_curation(&original, &curation);

    // Questions reference *prominent* entities, as Bird's do: famous
    // players and well-known clubs (the paper's popularity-bias analysis
    // presumes question entities are largely within the model's ken).
    let mut player_ranked = player_list;
    player_ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let mut team_ranked = team_list;
    team_ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    // Spread across the prominence range: superstar questions are easy,
    // journeyman questions are not (paper 5.3's bias analysis).
    let n = player_ranked.len();
    let picks = [0, n / 10, n / 5, n / 3, n / 2, 2 * n / 3];
    let sampled = Sampled {
        players: picks.iter().map(|&i| player_ranked[i.min(n - 1)].0.clone()).collect(),
        teams: team_ranked.into_iter().take(4).map(|(n, _)| n).collect(),
        leagues: league_names.into_iter().take(2).collect(),
    };

    DomainData {
        name: DB_NAME.into(),
        display_name: "European Football".into(),
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
        p("What is the height of the player in centimeters?", "height"),
        p("How tall is the player in centimeters?", "height"),
        p("What is the weight of the player in kilograms?", "weight"),
        p("What is the birthday of the player?", "birthday"),
        p("What is the nationality of the player?", "nationality"),
        p("In which city was the player born?", "birth_city"),
        p("What is the preferred foot of the player?", "preferred_foot"),
        p("What is the attacking work rate of the player?", "attacking_work_rate"),
        p("What is the short name of the team?", "team_short_name"),
        p("What is the build up play speed class of the team?", "build_up_play_speed_class"),
        p("What is the defence pressure class of the team?", "defence_pressure_class"),
        p("In which country is the league played?", "country_name"),
    ]
}

const JOIN_PLAYER: &str = "JOIN llm_player L ON L.player_name = T1.player_name";
const JOIN_TEAM: &str = "JOIN llm_team L ON L.team_long_name = T1.team_long_name";

fn height_udf() -> String {
    "llm_map('What is the height of the player in centimeters?', T1.player_name)".to_string()
}

fn questions(s: &Sampled) -> Vec<Question> {
    let mut qs = Vec::with_capacity(30);
    let mut push = |text: String,
                    gold: String,
                    hybrid: String,
                    udf_sql: String,
                    has_limit: bool,
                    attrs: &[&str]| {
        let id = format!("european_football_q{:02}", qs.len() + 1);
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

    // q01: the §5.5 example — height of the tallest player.
    push(
        "What is the height of the tallest player?".into(),
        "SELECT MAX(T1.height) FROM player T1".into(),
        format!("SELECT MAX(L.height) FROM player T1 {JOIN_PLAYER}"),
        format!("SELECT MAX({}) FROM player T1", height_udf()),
        false,
        &["height"],
    );

    // q02: the §5.5 reuse partner — players taller than 180cm.
    push(
        "Please list the player names who are taller than 180cm.".into(),
        "SELECT T1.player_name FROM player T1 WHERE T1.height > 180".into(),
        format!("SELECT T1.player_name FROM player T1 {JOIN_PLAYER} WHERE L.height > 180"),
        format!(
            "SELECT T1.player_name FROM player T1 WHERE {} > 180",
            height_udf()
        ),
        false,
        &["height"],
    );

    // q03-q04: more height thresholds.
    for (cmp, h) in [("<", 165), (">", 190)] {
        push(
            format!(
                "List the player names who are {} than {h}cm.",
                if cmp == "<" { "shorter" } else { "taller" }
            ),
            format!("SELECT T1.player_name FROM player T1 WHERE T1.height {cmp} {h}"),
            format!(
                "SELECT T1.player_name FROM player T1 {JOIN_PLAYER} WHERE L.height {cmp} {h}"
            ),
            format!(
                "SELECT T1.player_name FROM player T1 WHERE {} {cmp} {h}",
                height_udf()
            ),
            false,
            &["height"],
        );
    }

    // q05-q06: weight thresholds.
    for w in [80, 90] {
        push(
            format!("How many players weigh more than {w}kg?"),
            format!("SELECT COUNT(*) FROM player T1 WHERE T1.weight > {w}"),
            format!("SELECT COUNT(*) FROM player T1 {JOIN_PLAYER} WHERE L.weight > {w}"),
            format!(
                "SELECT COUNT(*) FROM player T1 \
                 WHERE llm_map('What is the weight of the player in kilograms?', T1.player_name) > {w}"
            ),
            false,
            &["weight"],
        );
    }

    // q07-q08: preferred foot point lookups.
    for player in s.players.iter().take(2) {
        let p = esc(player);
        push(
            format!("What is the preferred foot of {player}?"),
            format!(
                "SELECT DISTINCT pa.preferred_foot FROM player_attributes pa \
                 JOIN player T1 ON T1.id = pa.player_id WHERE T1.player_name = '{p}'"
            ),
            format!(
                "SELECT L.preferred_foot FROM player T1 {JOIN_PLAYER} \
                 WHERE T1.player_name = '{p}'"
            ),
            format!(
                "SELECT llm_map('What is the preferred foot of the player?', T1.player_name) \
                 FROM player T1 WHERE T1.player_name = '{p}'"
            ),
            false,
            &["preferred_foot"],
        );
    }

    // q09-q10: foot + rating combos.
    for (foot, rating) in [("left", 85), ("right", 90)] {
        push(
            format!(
                "How many {foot}-footed players have an overall rating above {rating} in the 2015/2016 season?"
            ),
            format!(
                "SELECT COUNT(DISTINCT pa.player_id) FROM player_attributes pa \
                 WHERE pa.preferred_foot = '{foot}' AND pa.overall_rating > {rating} \
                 AND pa.season = '2015/2016'"
            ),
            format!(
                "SELECT COUNT(DISTINCT T1.id) FROM player T1 {JOIN_PLAYER} \
                 JOIN player_attributes pa ON pa.player_id = T1.id \
                 WHERE L.preferred_foot = '{foot}' AND pa.overall_rating > {rating} \
                 AND pa.season = '2015/2016'"
            ),
            format!(
                "SELECT COUNT(DISTINCT T1.id) FROM player T1 \
                 JOIN player_attributes pa ON pa.player_id = T1.id \
                 WHERE llm_map('What is the preferred foot of the player?', T1.player_name) = '{foot}' \
                 AND pa.overall_rating > {rating} AND pa.season = '2015/2016'"
            ),
            false,
            &["preferred_foot"],
        );
    }

    // q11-q12: team short names.
    for team in s.teams.iter().take(2) {
        let t = esc(team);
        push(
            format!("What is the short name of the team {team}?"),
            format!("SELECT T1.team_short_name FROM team T1 WHERE T1.team_long_name = '{t}'"),
            format!(
                "SELECT L.team_short_name FROM team T1 {JOIN_TEAM} \
                 WHERE T1.team_long_name = '{t}'"
            ),
            format!(
                "SELECT llm_map('What is the short name of the team?', T1.team_long_name) \
                 FROM team T1 WHERE T1.team_long_name = '{t}'"
            ),
            false,
            &["team_short_name"],
        );
    }

    // q13-q14: build-up speed classes.
    for speed in ["Fast", "Slow"] {
        push(
            format!("List the long names of teams with a {speed} build up play speed."),
            format!(
                "SELECT DISTINCT T1.team_long_name FROM team T1 \
                 JOIN team_attributes ta ON ta.team_id = T1.id \
                 WHERE ta.build_up_play_speed_class = '{speed}'"
            ),
            format!(
                "SELECT T1.team_long_name FROM team T1 {JOIN_TEAM} \
                 WHERE L.build_up_play_speed_class = '{speed}'"
            ),
            format!(
                "SELECT T1.team_long_name FROM team T1 \
                 WHERE llm_map('What is the build up play speed class of the team?', T1.team_long_name) = '{speed}'"
            ),
            false,
            &["build_up_play_speed_class"],
        );
    }

    // q15: defence pressure.
    push(
        "List the long names of teams that defend with High pressure.".into(),
        "SELECT DISTINCT T1.team_long_name FROM team T1 \
         JOIN team_attributes ta ON ta.team_id = T1.id \
         WHERE ta.defence_pressure_class = 'High'"
            .into(),
        format!(
            "SELECT T1.team_long_name FROM team T1 {JOIN_TEAM} \
             WHERE L.defence_pressure_class = 'High'"
        ),
        "SELECT T1.team_long_name FROM team T1 \
         WHERE llm_map('What is the defence pressure class of the team?', T1.team_long_name) = 'High'"
            .into(),
        false,
        &["defence_pressure_class"],
    );

    // q16-q17: league countries.
    for league in s.leagues.iter().take(2) {
        let l = esc(league);
        push(
            format!("In which country is the league {league} played?"),
            format!(
                "SELECT c.country_name FROM league T1 \
                 JOIN country c ON T1.country_id = c.id WHERE T1.league_name = '{l}'"
            ),
            format!(
                "SELECT LL.country_name FROM league T1 \
                 JOIN llm_league LL ON LL.league_name = T1.league_name \
                 WHERE T1.league_name = '{l}'"
            ),
            format!(
                "SELECT llm_map('In which country is the league played?', T1.league_name) \
                 FROM league T1 WHERE T1.league_name = '{l}'"
            ),
            false,
            &["country_name"],
        );
    }

    // q18: leagues per country.
    push(
        "How many leagues are played in England?".into(),
        "SELECT COUNT(*) FROM league T1 \
         JOIN country c ON T1.country_id = c.id WHERE c.country_name = 'England'"
            .into(),
        "SELECT COUNT(*) FROM league T1 \
         JOIN llm_league LL ON LL.league_name = T1.league_name \
         WHERE LL.country_name = 'England'"
            .into(),
        "SELECT COUNT(*) FROM league T1 \
         WHERE llm_map('In which country is the league played?', T1.league_name) = 'England'"
            .into(),
        false,
        &["country_name"],
    );

    // q19-q20: average height of top-rated players.
    for rating in [85, 90] {
        push(
            format!("What is the average height of players with an overall rating above {rating}?"),
            format!(
                "SELECT AVG(T1.height) FROM player T1 WHERE T1.id IN \
                 (SELECT pa.player_id FROM player_attributes pa \
                  WHERE pa.overall_rating > {rating} AND pa.season = '2015/2016')"
            ),
            format!(
                "SELECT AVG(L.height) FROM player T1 {JOIN_PLAYER} WHERE T1.id IN \
                 (SELECT pa.player_id FROM player_attributes pa \
                  WHERE pa.overall_rating > {rating} AND pa.season = '2015/2016')"
            ),
            format!(
                "SELECT AVG({}) FROM player T1 WHERE T1.id IN \
                 (SELECT pa.player_id FROM player_attributes pa \
                  WHERE pa.overall_rating > {rating} AND pa.season = '2015/2016')",
                height_udf()
            ),
            false,
            &["height"],
        );
    }

    // q21-q22: birthday + rating combos.
    for year in [1985, 1990] {
        push(
            format!("List players born before {year} with an overall rating above 88 in the 2015/2016 season."),
            format!(
                "SELECT T1.player_name FROM player T1 \
                 WHERE T1.birthday < '{year}-01-01' AND T1.id IN \
                 (SELECT pa.player_id FROM player_attributes pa \
                  WHERE pa.overall_rating > 88 AND pa.season = '2015/2016')"
            ),
            format!(
                "SELECT T1.player_name FROM player T1 {JOIN_PLAYER} \
                 WHERE L.birthday < '{year}-01-01' AND T1.id IN \
                 (SELECT pa.player_id FROM player_attributes pa \
                  WHERE pa.overall_rating > 88 AND pa.season = '2015/2016')"
            ),
            format!(
                "SELECT T1.player_name FROM player T1 \
                 WHERE llm_map('What is the birthday of the player?', T1.player_name) < '{year}-01-01' \
                 AND T1.id IN \
                 (SELECT pa.player_id FROM player_attributes pa \
                  WHERE pa.overall_rating > 88 AND pa.season = '2015/2016')"
            ),
            false,
            &["birthday"],
        );
    }

    // q23-q24: nationality point lookups.
    for player in s.players.iter().skip(2).take(2) {
        let p = esc(player);
        push(
            format!("What is the nationality of the player {player}?"),
            format!("SELECT T1.nationality FROM player T1 WHERE T1.player_name = '{p}'"),
            format!(
                "SELECT L.nationality FROM player T1 {JOIN_PLAYER} WHERE T1.player_name = '{p}'"
            ),
            format!(
                "SELECT llm_map('What is the nationality of the player?', T1.player_name) \
                 FROM player T1 WHERE T1.player_name = '{p}'"
            ),
            false,
            &["nationality"],
        );
    }

    // q25: nationality count.
    push(
        "How many players are Brazilian?".into(),
        "SELECT COUNT(*) FROM player T1 WHERE T1.nationality = 'Brazilian'".into(),
        format!("SELECT COUNT(*) FROM player T1 {JOIN_PLAYER} WHERE L.nationality = 'Brazilian'"),
        "SELECT COUNT(*) FROM player T1 \
         WHERE llm_map('What is the nationality of the player?', T1.player_name) = 'Brazilian'"
            .into(),
        false,
        &["nationality"],
    );

    // q26-q27: top-5 rated above a height threshold (LIMIT).
    for h in [185, 175] {
        push(
            format!("List the top 5 players by 2015/2016 overall rating who are taller than {h}cm."),
            format!(
                "SELECT T1.player_name FROM player T1 \
                 JOIN player_attributes pa ON pa.player_id = T1.id \
                 WHERE pa.season = '2015/2016' AND T1.height > {h} \
                 ORDER BY pa.overall_rating DESC, T1.player_name LIMIT 5"
            ),
            format!(
                "SELECT T1.player_name FROM player T1 {JOIN_PLAYER} \
                 JOIN player_attributes pa ON pa.player_id = T1.id \
                 WHERE pa.season = '2015/2016' AND L.height > {h} \
                 ORDER BY pa.overall_rating DESC, T1.player_name LIMIT 5"
            ),
            format!(
                "SELECT T1.player_name FROM player T1 \
                 JOIN player_attributes pa ON pa.player_id = T1.id \
                 WHERE pa.season = '2015/2016' AND {} > {h} \
                 ORDER BY pa.overall_rating DESC, T1.player_name LIMIT 5",
                height_udf()
            ),
            true,
            &["height"],
        );
    }

    // q28-q29: birth city and birthday lookups.
    {
        let p = esc(&s.players[4]);
        push(
            format!("In which city was the player {} born?", s.players[4]),
            format!("SELECT T1.birth_city FROM player T1 WHERE T1.player_name = '{p}'"),
            format!(
                "SELECT L.birth_city FROM player T1 {JOIN_PLAYER} WHERE T1.player_name = '{p}'"
            ),
            format!(
                "SELECT llm_map('In which city was the player born?', T1.player_name) \
                 FROM player T1 WHERE T1.player_name = '{p}'"
            ),
            false,
            &["birth_city"],
        );
        let p = esc(&s.players[5]);
        push(
            format!("What is the birthday of the player {}?", s.players[5]),
            format!("SELECT T1.birthday FROM player T1 WHERE T1.player_name = '{p}'"),
            format!("SELECT L.birthday FROM player T1 {JOIN_PLAYER} WHERE T1.player_name = '{p}'"),
            format!(
                "SELECT llm_map('What is the birthday of the player?', T1.player_name) \
                 FROM player T1 WHERE T1.player_name = '{p}'"
            ),
            false,
            &["birthday"],
        );
    }

    // q30: players per preferred foot.
    push(
        "How many players prefer each foot?".into(),
        "SELECT pa.preferred_foot, COUNT(DISTINCT pa.player_id) FROM player_attributes pa \
         GROUP BY pa.preferred_foot"
            .into(),
        format!(
            "SELECT L.preferred_foot, COUNT(DISTINCT T1.id) FROM player T1 {JOIN_PLAYER} \
             GROUP BY L.preferred_foot"
        ),
        "SELECT llm_map('What is the preferred foot of the player?', T1.player_name), COUNT(*) \
         FROM player T1 \
         GROUP BY llm_map('What is the preferred foot of the player?', T1.player_name)"
            .into(),
        false,
        &["preferred_foot"],
    );

    assert_eq!(qs.len(), 30, "european football question count");
    qs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DomainData {
        generate(&GenConfig::with_scale(0.01))
    }

    #[test]
    fn table_and_drop_counts_match_paper() {
        let d = small();
        assert_eq!(d.original.catalog().len(), 7);
        assert_eq!(d.table_count(), 6, "country table dropped");
        assert_eq!(d.curation.dropped_count(), 12);
    }

    #[test]
    fn questions_well_formed() {
        let d = small();
        assert_eq!(d.questions.len(), 30);
        assert_eq!(d.questions.iter().filter(|q| q.has_limit).count(), 2);
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
    fn tallest_player_question_gives_plausible_answer() {
        let d = small();
        let r = d.original.query(&d.questions[0].gold_sql).unwrap();
        let h = r.rows[0][0].as_i64().unwrap();
        assert!((158..=202).contains(&h));
    }

    #[test]
    fn player_attribute_consistency() {
        // preferred_foot is constant across a player's snapshots, so the
        // LLM fact is well-defined.
        let d = small();
        let pa = d.original.catalog().get("player_attributes").unwrap();
        let pid = pa.column_index("player_id").unwrap();
        let foot = pa.column_index("preferred_foot").unwrap();
        let mut by_player: std::collections::HashMap<i64, String> = Default::default();
        for row in pa.rows() {
            let id = row[pid].as_i64().unwrap();
            let f = row[foot].render();
            let prev = by_player.entry(id).or_insert_with(|| f.clone());
            assert_eq!(*prev, f, "player {id} switches feet across seasons");
        }
    }

    #[test]
    fn heights_are_numeric_facts() {
        let d = small();
        for f in d.facts.iter().filter(|f| f.attribute == "height") {
            match &f.value {
                swan_llm::KnownValue::One(v) => {
                    let h: i64 = v.parse().expect("height parses");
                    assert!((158..=202).contains(&h));
                }
                other => panic!("height should be single-valued: {other:?}"),
            }
        }
    }

    #[test]
    fn country_table_dropped_but_league_survives() {
        let d = small();
        assert!(d.curated.catalog().get("country").is_none());
        assert!(d.curated.catalog().get("league").is_some());
    }

    #[test]
    fn seven_table_average_near_paper_at_full_scale_formula() {
        // Verify the arithmetic at scale 1.0 without generating it:
        // (11 + 11 + 300 + 1500 + 11060 + 11060*16 + 26000) / 7 ≈ 30 840.
        let total = 11 + 11 + 300 + 1500 + 11_060 + 11_060 * 16 + 26_000;
        let avg = total / 7;
        assert!((25_000..40_000).contains(&avg), "{avg}");
    }
}
