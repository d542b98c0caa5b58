//! Deterministic name and word generation for the synthetic databases.
//!
//! The Bird databases the paper builds on are real Kaggle datasets; this
//! module synthesizes stand-ins with the same *shape*: plausible,
//! human-readable, unique entity names that LLM-facing keys can be built
//! from (§3.4 requires meaningful keys, not surrogate integers).

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::Rng;
use swan_sqlengine::Value;

pub const FIRST_NAMES: &[&str] = &[
    "James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael", "Linda", "David",
    "Elizabeth", "William", "Barbara", "Richard", "Susan", "Joseph", "Jessica", "Thomas", "Karen",
    "Carlos", "Sofia", "Luis", "Camila", "Diego", "Valentina", "Hiro", "Yuki", "Kenji", "Aiko",
    "Lars", "Ingrid", "Sven", "Astrid", "Pierre", "Amelie", "Jean", "Claire", "Giovanni", "Lucia",
    "Marco", "Elena", "Pavel", "Anna", "Dmitri", "Olga", "Ahmed", "Fatima", "Omar", "Leila",
    "Kwame", "Ama", "Tunde", "Zara", "Raj", "Priya", "Arjun", "Meera", "Chen", "Mei",
];

pub const LAST_NAMES: &[&str] = &[
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller", "Davis", "Rodriguez",
    "Martinez", "Hernandez", "Lopez", "Gonzalez", "Wilson", "Anderson", "Thomas", "Taylor",
    "Moore", "Jackson", "Martin", "Lee", "Perez", "Thompson", "White", "Harris", "Sanchez",
    "Clark", "Ramirez", "Lewis", "Robinson", "Walker", "Young", "Allen", "King", "Wright",
    "Scott", "Torres", "Nguyen", "Hill", "Flores", "Green", "Adams", "Nelson", "Baker", "Hall",
    "Rivera", "Campbell", "Mitchell", "Carter", "Roberts", "Tanaka", "Sato", "Kimura", "Müller",
    "Schmidt", "Rossi", "Bianchi", "Silva", "Santos", "Kowalski",
];

pub const ADJECTIVES: &[&str] = &[
    "Crimson", "Silent", "Mighty", "Shadow", "Golden", "Iron", "Silver", "Scarlet", "Thunder",
    "Night", "Solar", "Lunar", "Atomic", "Cosmic", "Phantom", "Savage", "Swift", "Arctic",
    "Emerald", "Obsidian", "Radiant", "Storm", "Steel", "Blazing", "Frozen", "Electric",
    "Invisible", "Quantum", "Astral", "Venomous",
];

pub const CREATURES: &[&str] = &[
    "Falcon", "Wolf", "Panther", "Hawk", "Tiger", "Cobra", "Raven", "Phoenix", "Dragon",
    "Mantis", "Scorpion", "Lynx", "Viper", "Eagle", "Shark", "Spider", "Jaguar", "Kraken",
    "Griffin", "Owl", "Fox", "Bear", "Puma", "Wasp", "Hornet", "Condor", "Rhino", "Leopard",
    "Badger", "Stallion",
];

pub const CITIES: &[&str] = &[
    "Oakland", "Fresno", "San Diego", "Sacramento", "Bakersfield", "Stockton", "Riverside",
    "Anaheim", "Santa Ana", "Irvine", "Chula Vista", "Fremont", "San Bernardino", "Modesto",
    "Fontana", "Oxnard", "Moreno Valley", "Glendale", "Huntington Beach", "Santa Clarita",
    "Oceanside", "Rancho Cucamonga", "Ontario", "Lancaster", "Elk Grove", "Palmdale", "Salinas",
    "Hayward", "Pomona", "Escondido", "Sunnyvale", "Torrance", "Pasadena", "Fullerton", "Orange",
    "Visalia", "Concord", "Roseville", "Thousand Oaks", "Vallejo",
];

pub const COUNTIES: &[&str] = &[
    "Alameda", "Fresno", "Kern", "Los Angeles", "Orange", "Riverside", "Sacramento",
    "San Bernardino", "San Diego", "San Francisco", "San Joaquin", "Santa Clara", "Ventura",
    "Contra Costa", "Monterey", "Placer", "Sonoma", "Stanislaus", "Tulare", "Solano",
];

pub const STREET_NAMES: &[&str] = &[
    "Oak", "Maple", "Cedar", "Pine", "Elm", "Washington", "Lincoln", "Jefferson", "Madison",
    "Brann", "Sunset", "Hilltop", "Valley", "River", "Lake", "Park", "Mission", "Harbor",
    "Foothill", "Canyon", "Willow", "Magnolia", "Juniper", "Sierra", "Pacific", "Vista",
    "Orchard", "Meadow", "Prairie", "Redwood",
];

pub const STREET_SUFFIXES: &[&str] = &["Street", "Avenue", "Boulevard", "Road", "Drive", "Way", "Lane"];

pub const COUNTRIES: &[&str] = &[
    "United Kingdom", "Germany", "Spain", "Italy", "France", "Netherlands", "Portugal",
    "Belgium", "Scotland", "Switzerland", "Poland", "Austria", "Brazil", "Argentina", "Japan",
    "Australia", "United States", "Mexico", "Canada", "Monaco", "Bahrain", "Singapore",
    "Hungary", "Azerbaijan",
];

pub const NATIONALITIES: &[&str] = &[
    "British", "German", "Spanish", "Italian", "French", "Dutch", "Portuguese", "Belgian",
    "Scottish", "Swiss", "Polish", "Austrian", "Brazilian", "Argentine", "Japanese",
    "Australian", "American", "Mexican", "Canadian", "Finnish", "Danish", "Swedish",
];

pub const SCHOOL_KINDS: &[&str] = &[
    "Elementary", "Middle", "High", "Charter", "Academy", "Preparatory", "Community Day",
    "Unified", "Magnet", "Technical",
];

pub const TEAM_WORDS: &[&str] = &[
    "United", "City", "Rovers", "Athletic", "Wanderers", "Albion", "Rangers", "Dynamo",
    "Sporting", "Real", "Inter", "Olympic", "Racing", "Union", "Victoria",
];

pub const POWERS: &[&str] = &[
    "Agility", "Super Strength", "Stamina", "Super Speed", "Flight", "Telepathy",
    "Telekinesis", "Invisibility", "Regeneration", "Energy Blasts", "Shape Shifting",
    "Elasticity", "Intangibility", "Weather Control", "Force Fields", "Precognition",
    "Size Changing", "Sonic Scream", "Magnetism", "Fire Control", "Ice Control",
    "Darkness Manipulation", "Light Projection", "Time Manipulation", "Healing",
    "Enhanced Senses", "Wall Crawling", "Danger Sense", "Power Mimicry", "Teleportation",
];

/// A generator of unique names: draws from a pattern, de-duplicates by
/// appending a roman-ish suffix on collision.
#[derive(Debug, Default)]
pub struct UniqueNames {
    seen: HashSet<String>,
}

impl UniqueNames {
    pub fn new() -> Self {
        Self::default()
    }

    /// Make `base` unique, mutating with a suffix if needed.
    pub fn claim(&mut self, base: String) -> String {
        if self.seen.insert(base.clone()) {
            return base;
        }
        for i in 2.. {
            let candidate = format!("{base} {}", roman(i));
            if self.seen.insert(candidate.clone()) {
                return candidate;
            }
        }
        unreachable!()
    }

    pub fn len(&self) -> usize {
        self.seen.len()
    }

    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

/// Small roman numerals for name disambiguation ("Iron Falcon II").
pub fn roman(mut n: usize) -> String {
    const VALS: &[(usize, &str)] = &[
        (1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"), (90, "XC"),
        (50, "L"), (40, "XL"), (10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I"),
    ];
    let mut out = String::new();
    for &(v, s) in VALS {
        while n >= v {
            out.push_str(s);
            n -= v;
        }
    }
    out
}

/// Pick one element deterministically.
pub fn pick<'a>(rng: &mut SmallRng, items: &'a [&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// A fixed list of strings with each entry's cell built once per
/// generation: a column drawn from the list clones its entries' cells, so
/// the column holds one text allocation per distinct value, as a reopened
/// durable database does.
pub struct Choices(Vec<Value>);

impl Choices {
    pub fn new<S: AsRef<str>>(items: &[S]) -> Self {
        Choices(items.iter().map(|s| Value::text(s.as_ref())).collect())
    }

    /// Draw an entry's index, consuming the RNG exactly as [`pick`] does.
    pub fn draw(&self, rng: &mut SmallRng) -> usize {
        rng.gen_range(0..self.0.len())
    }

    /// Entry `i`'s shared cell.
    pub fn cell(&self, i: usize) -> Value {
        self.0[i].clone()
    }

    /// Entry `i`'s text.
    pub fn text(&self, i: usize) -> &str {
        self.0[i].as_str().expect("a text entry")
    }
}

/// A person name "First Last".
pub fn person_name(rng: &mut SmallRng) -> String {
    format!("{} {}", pick(rng, FIRST_NAMES), pick(rng, LAST_NAMES))
}

/// A hero-style name "Adjective Creature".
pub fn hero_name(rng: &mut SmallRng) -> String {
    format!("{} {}", pick(rng, ADJECTIVES), pick(rng, CREATURES))
}

/// A street address like "5328 Brann Street".
pub fn street_address(rng: &mut SmallRng) -> String {
    format!(
        "{} {} {}",
        rng.gen_range(100..9999),
        pick(rng, STREET_NAMES),
        pick(rng, STREET_SUFFIXES)
    )
}

/// Slugify a name for URLs: lowercase alphanumerics joined by nothing.
pub fn slug(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn unique_names_never_collide() {
        let mut u = UniqueNames::new();
        let a = u.claim("Iron Falcon".into());
        let b = u.claim("Iron Falcon".into());
        let c = u.claim("Iron Falcon".into());
        assert_eq!(a, "Iron Falcon");
        assert_eq!(b, "Iron Falcon II");
        assert_eq!(c, "Iron Falcon III");
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn roman_numerals() {
        assert_eq!(roman(2), "II");
        assert_eq!(roman(4), "IV");
        assert_eq!(roman(9), "IX");
        assert_eq!(roman(14), "XIV");
        assert_eq!(roman(49), "XLIX");
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..20 {
            assert_eq!(person_name(&mut a), person_name(&mut b));
            assert_eq!(street_address(&mut a), street_address(&mut b));
        }
    }

    #[test]
    fn choices_draw_as_pick_does_and_share_each_entry() {
        let (mut a, mut b) = (SmallRng::seed_from_u64(3), SmallRng::seed_from_u64(3));
        let cities = Choices::new(CITIES);
        for _ in 0..50 {
            let i = cities.draw(&mut a);
            assert_eq!(cities.text(i), pick(&mut b, CITIES));
            match (cities.cell(i), cities.cell(i)) {
                (Value::Text(x), Value::Text(y)) => assert!(swan_sqlengine::ThinStr::ptr_eq(&x, &y)),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn slug_strips_punctuation() {
        assert_eq!(slug("Oak Grove High School"), "oakgrovehighschool");
        assert_eq!(slug("St. Mary's #2"), "stmarys2");
    }

    #[test]
    fn word_lists_have_no_duplicates() {
        for list in [FIRST_NAMES, LAST_NAMES, ADJECTIVES, CREATURES, CITIES, COUNTIES, POWERS] {
            let set: HashSet<&&str> = list.iter().collect();
            assert_eq!(set.len(), list.len());
        }
    }

    #[test]
    fn enough_hero_combinations() {
        // 30 adjectives x 30 creatures = 900 base combinations; with roman
        // suffixes the generator can exceed any benchmark size.
        assert!(ADJECTIVES.len() * CREATURES.len() >= 750);
    }
}
