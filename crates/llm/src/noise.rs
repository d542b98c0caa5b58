//! The calibrated error channel of the simulated language model.
//!
//! Every generated cell passes through this model, which decides —
//! deterministically, from a seeded hash of the cell's identity — whether
//! the value is factual, and if not, what plausible wrong value comes out.
//! The parameters are calibrated so that the paper's *relative* findings
//! emerge from execution (see DESIGN.md):
//!
//! * GPT-4 Turbo is more factual than GPT-3.5 Turbo at every shot count
//!   (Table 4: 29.3%→48.2% vs 20.9%→42.7%);
//! * factuality rises steeply from 0-shot to 1-shot, then plateaus;
//! * value-selection columns beat free-form columns (§3.3);
//! * popular entities are answered better (§5.3, geographic/SES bias);
//! * the UDF pathway (single-cell prediction) is slightly worse than
//!   HQDL's whole-row prediction (§5.4, chain-of-thought effect);
//! * batching degrades accuracy (§5.4, citing batch-prompting work);
//! * zero-shot prompts suffer output-format errors (§5.3).
//!
//! Each draw is an FNV-1a hash of the cell's identity — model, database,
//! key parts, attribute — followed by a salt naming the draw (is it
//! factual, which wrong value, which list items survive, a format glitch).
//! FNV runs over the identity once per cell; each salt then extends a copy
//! of that state, which is the same hash as running FNV over identity and
//! salt together.

use std::borrow::Cow;

use crate::knowledge::AttrClass;
use crate::model::ModelKind;

/// Which solution pathway produced the call (affects accuracy, §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pathway {
    /// HQDL row completion: the model predicts all columns of a row, which
    /// "mirrors a chain-of-thought process" and helps accuracy.
    RowCompletion,
    /// UDF single-value prediction.
    Udf,
}

/// Identity and conditions of one generated cell.
#[derive(Debug, Clone)]
pub struct CellContext<'a> {
    pub model: ModelKind,
    pub db: &'a str,
    pub key: &'a [String],
    pub attribute: &'a str,
    /// Few-shot demonstration count in the prompt.
    pub shots: usize,
    pub class: AttrClass,
    /// Entity popularity in [0,1].
    pub popularity: f64,
    /// Number of keys batched into the call (1 = unbatched).
    pub batch_size: usize,
    pub pathway: Pathway,
    /// The answer is derivable from the key text itself (driver code =
    /// surname prefix, URL contains the entity name, a school named
    /// after its city): models read their prompts, so these cells are
    /// near-always right regardless of the model tier.
    pub key_hint: bool,
}

/// Output-format glitches (zero-shot prompts "sometimes return too few or
/// too many fields and may occasionally return an empty string", §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatError {
    TooFewFields,
    TooManyFields,
    EmptyField,
}

/// The deterministic noise channel.
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    pub seed: u64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel { seed: 0x53_57_41_4e } // ASCII "SWAN"
    }
}

/// Base factuality by (model, shots), interpolated between the measured
/// shot counts {0, 1, 3, 5}. Values sit slightly above the paper's Table 4
/// F1 targets because format errors and multi-value partial credit pull
/// the measured average down.
const GPT35_CURVE: [(usize, f64); 4] = [(0, 0.07), (1, 0.23), (3, 0.27), (5, 0.29)];
const GPT4_CURVE: [(usize, f64); 4] = [(0, 0.15), (1, 0.33), (3, 0.33), (5, 0.34)];

impl NoiseModel {
    pub fn new(seed: u64) -> Self {
        NoiseModel { seed }
    }

    /// Probability that the cell comes out factually correct.
    pub fn factuality(&self, ctx: &CellContext<'_>) -> f64 {
        let curve = match ctx.model {
            ModelKind::Gpt35Turbo => &GPT35_CURVE,
            ModelKind::Gpt4Turbo => &GPT4_CURVE,
        };
        let mut p = interpolate(curve, ctx.shots);
        p += match ctx.class {
            AttrClass::ValueSelection => 0.10,
            AttrClass::FreeForm => -0.10,
            AttrClass::MultiValue => -0.04,
        };
        // Strong popularity effect: the paper observes LLMs "can
        // accurately identify schools with the highest standardized
        // testing scores" while fumbling average entities (§5.3).
        p += 0.80 * (ctx.popularity - 0.5);
        // Truly famous entities (top decile) are near-always answered
        // correctly — that is what lets LIMIT-top-k queries "appear
        // correct, masking potential errors in the model's full
        // response" (§5.3).
        if ctx.popularity > 0.85 {
            p += 3.5 * (ctx.popularity - 0.85);
        }
        if ctx.pathway == Pathway::Udf {
            p -= 0.05;
        }
        if ctx.batch_size > 1 {
            p -= 0.015 * (ctx.batch_size as f64 - 1.0).min(10.0);
        }
        if ctx.key_hint {
            // Even derivable answers are not free: output-format slips and
            // partial reads keep hinted cells at ~80%, not 100%.
            p = p.max(0.80);
        }
        p.clamp(0.02, 0.98)
    }

    /// Deterministic draw: is this cell factual?
    pub fn is_factual(&self, ctx: &CellContext<'_>) -> bool {
        unit(self.identity(ctx).draw(0x01)) < self.factuality(ctx)
    }

    /// Produce the model's (possibly wrong) answer for a single-valued
    /// cell given the ground truth and the candidate pool: the truth, the
    /// `h % n`-th of the `n` candidates that differ from it, or — with no
    /// such candidate — a mangled truth.
    pub fn emit_single<'a>(
        &self,
        ctx: &CellContext<'_>,
        truth: &'a str,
        candidates: &'a [String],
    ) -> Cow<'a, str> {
        let identity = self.identity(ctx);
        if unit(identity.draw(0x01)) < self.factuality(ctx) {
            return Cow::Borrowed(truth);
        }
        let h = identity.draw(0x02);
        // Hallucinate: prefer a different candidate from the pool
        // (plausible confusion), else mangle the truth.
        let wrong = || candidates.iter().filter(|c| *c != truth);
        match wrong().count() as u64 {
            0 => Cow::Owned(mangle(truth, h)),
            n => Cow::Borrowed(wrong().nth((h % n) as usize).expect("n wrong candidates")),
        }
    }

    /// Produce the model's answer set for a one-to-many cell: each true
    /// item survives with the cell's factuality probability, and spurious
    /// items sneak in with the complementary rate.
    pub fn emit_many<'a>(
        &self,
        ctx: &CellContext<'_>,
        truth: &'a [String],
        candidates: &'a [String],
    ) -> Vec<&'a str> {
        let p = self.factuality(ctx);
        let identity = self.identity(ctx);
        let mut out = Vec::with_capacity(truth.len());
        for (i, item) in truth.iter().enumerate() {
            if unit(identity.draw(0x10 + i as u64)) < p {
                out.push(item.as_str());
            }
        }
        // Spurious additions drawn from candidates not in the truth.
        let spurious: Vec<&String> =
            candidates.iter().filter(|c| !truth.contains(c)).collect();
        if !spurious.is_empty() {
            let h = identity.draw(0x03);
            if unit(h) < (1.0 - p) * 0.5 {
                out.push(spurious[(h >> 8) as usize % spurious.len()]);
            }
        }
        // A model virtually never returns a fully empty list; fall back to
        // one hallucinated item.
        if out.is_empty() {
            if let Some(first) = spurious.first().copied().or(candidates.first()) {
                out.push(first);
            }
        }
        out
    }

    /// Should this row/response suffer an output-format glitch?
    pub fn format_error(&self, ctx: &CellContext<'_>) -> Option<FormatError> {
        let rate = if ctx.shots == 0 { 0.06 } else { 0.01 };
        let h = self.identity(ctx).draw(0x04);
        if unit(h) >= rate {
            return None;
        }
        Some(match h >> 16 & 0x3 {
            0 => FormatError::TooFewFields,
            1 => FormatError::TooManyFields,
            _ => FormatError::EmptyField,
        })
    }

    /// The hash state after the cell's identity, from which each of its
    /// draws forks. Deliberately *not* hashing shots/batch/pathway: the
    /// draw models a latent per-cell difficulty, so raising the factuality
    /// probability (more shots, smaller batches) monotonically fixes cells
    /// instead of rerolling them.
    fn identity(&self, ctx: &CellContext<'_>) -> CellHash {
        let mut h = CellHash(0xcbf29ce484222325 ^ self.seed.wrapping_mul(0x9e3779b97f4a7c15));
        h.eat(ctx.model.name().as_bytes());
        h.eat(ctx.db.as_bytes());
        for k in ctx.key {
            h.eat(k.as_bytes());
        }
        h.eat(ctx.attribute.as_bytes());
        h
    }
}

/// FNV-1a state partway through a cell's hash, each field closed by a
/// `0x1f` separator. Independent of std's hasher so results are
/// reproducible across Rust versions.
#[derive(Clone, Copy)]
struct CellHash(u64);

impl CellHash {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        self.0 ^= 0x1f;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }

    /// The draw named by `salt`: a copy of this state extended by the salt,
    /// through a splitmix64 finalizer.
    fn draw(mut self, salt: u64) -> u64 {
        self.eat(&salt.to_le_bytes());
        splitmix64(self.0)
    }
}

/// Map a hash to [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Piecewise-linear interpolation of a (shots, p) curve.
fn interpolate(curve: &[(usize, f64)], shots: usize) -> f64 {
    if shots <= curve[0].0 {
        return curve[0].1;
    }
    for w in curve.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if shots <= x1 {
            let t = (shots - x0) as f64 / (x1 - x0) as f64;
            return y0 + t * (y1 - y0);
        }
    }
    curve[curve.len() - 1].1
}

/// Deterministically perturb a free-form truth value into a plausible
/// wrong answer (guaranteed different from the input).
fn mangle(truth: &str, h: u64) -> String {
    if truth.is_empty() {
        return "unknown".to_string();
    }
    // Numeric truths get plausibly-wrong *numbers* (a height of 183
    // instead of 180), never text garbage that would skew comparisons.
    if let Ok(n) = truth.parse::<i64>() {
        let mut delta = (h % 21) as i64 - 10;
        if delta == 0 {
            delta = 3;
        }
        return (n + delta).to_string();
    }
    let chars: Vec<char> = truth.chars().collect();
    let mode = h % 4;
    let out = match mode {
        // Truncate the tail.
        0 if chars.len() > 3 => chars[..chars.len() - 2].iter().collect::<String>(),
        // Duplicate an interior character.
        1 => {
            let i = (h >> 8) as usize % chars.len();
            let mut s: String = chars[..=i].iter().collect();
            s.push(chars[i]);
            s.extend(&chars[i + 1..]);
            s
        }
        // Swap two adjacent characters.
        2 if chars.len() >= 2 => {
            let i = (h >> 8) as usize % (chars.len() - 1);
            let mut cs = chars.clone();
            cs.swap(i, i + 1);
            cs.into_iter().collect()
        }
        // Append a plausible suffix.
        _ => format!("{truth}a"),
    };
    if out == truth {
        format!("{truth}a")
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(model: ModelKind, shots: usize, key: &'a [String]) -> CellContext<'a> {
        CellContext {
            model,
            db: "superhero",
            key,
            attribute: "publisher_name",
            shots,
            class: AttrClass::ValueSelection,
            popularity: 0.5,
            batch_size: 1,
            pathway: Pathway::RowCompletion,
            key_hint: false,
        }
    }

    #[test]
    fn gpt4_beats_gpt35_everywhere() {
        let key = vec!["X".to_string()];
        for shots in [0, 1, 3, 5] {
            let p35 = NoiseModel::default().factuality(&ctx(ModelKind::Gpt35Turbo, shots, &key));
            let p4 = NoiseModel::default().factuality(&ctx(ModelKind::Gpt4Turbo, shots, &key));
            assert!(p4 > p35, "shots={shots}: {p4} <= {p35}");
        }
    }

    #[test]
    fn more_shots_never_hurts() {
        let key = vec!["X".to_string()];
        for model in ModelKind::ALL {
            let mut last = 0.0;
            for shots in [0, 1, 2, 3, 4, 5, 8] {
                let p = NoiseModel::default().factuality(&ctx(model, shots, &key));
                assert!(p >= last, "{model:?} shots={shots}");
                last = p;
            }
        }
    }

    #[test]
    fn value_selection_easier_than_free_form() {
        let key = vec!["X".to_string()];
        let mut c = ctx(ModelKind::Gpt35Turbo, 5, &key);
        let ps = NoiseModel::default().factuality(&c);
        c.class = AttrClass::FreeForm;
        let pf = NoiseModel::default().factuality(&c);
        assert!(ps > pf);
    }

    #[test]
    fn popularity_bias() {
        let key = vec!["X".to_string()];
        let mut c = ctx(ModelKind::Gpt4Turbo, 5, &key);
        c.popularity = 0.95;
        let hi = NoiseModel::default().factuality(&c);
        c.popularity = 0.05;
        let lo = NoiseModel::default().factuality(&c);
        assert!(hi - lo > 0.15, "popularity swing too small: {hi} vs {lo}");
    }

    #[test]
    fn udf_pathway_and_batching_penalties() {
        let key = vec!["X".to_string()];
        let mut c = ctx(ModelKind::Gpt35Turbo, 0, &key);
        let base = NoiseModel::default().factuality(&c);
        c.pathway = Pathway::Udf;
        let udf = NoiseModel::default().factuality(&c);
        assert!(udf < base);
        c.batch_size = 5;
        let batched = NoiseModel::default().factuality(&c);
        assert!(batched < udf);
    }

    #[test]
    fn draws_are_deterministic() {
        let key = vec!["Spider-Man".to_string()];
        let c = ctx(ModelKind::Gpt4Turbo, 5, &key);
        let n = NoiseModel::default();
        assert_eq!(n.is_factual(&c), n.is_factual(&c));
        assert_eq!(
            n.emit_single(&c, "Marvel Comics", &["DC Comics".to_string()]),
            n.emit_single(&c, "Marvel Comics", &["DC Comics".to_string()])
        );
    }

    #[test]
    fn different_seeds_change_draws() {
        let keys: Vec<Vec<String>> = (0..64).map(|i| vec![format!("hero-{i}")]).collect();
        let a = NoiseModel::new(1);
        let b = NoiseModel::new(2);
        let mut differs = false;
        for k in &keys {
            let c = ctx(ModelKind::Gpt35Turbo, 0, k);
            if a.is_factual(&c) != b.is_factual(&c) {
                differs = true;
                break;
            }
        }
        assert!(differs, "seed had no effect across 64 cells");
    }

    #[test]
    fn empirical_rate_tracks_probability() {
        let n = NoiseModel::default();
        let keys: Vec<Vec<String>> = (0..4000).map(|i| vec![format!("e{i}")]).collect();
        let mut hits = 0;
        let mut psum = 0.0;
        for k in &keys {
            let c = ctx(ModelKind::Gpt4Turbo, 5, k);
            psum += n.factuality(&c);
            if n.is_factual(&c) {
                hits += 1;
            }
        }
        let rate = hits as f64 / keys.len() as f64;
        let expect = psum / keys.len() as f64;
        assert!((rate - expect).abs() < 0.03, "rate {rate} vs expected {expect}");
    }

    #[test]
    fn emit_single_wrong_answers_come_from_candidates() {
        let n = NoiseModel::default();
        let cands = vec!["DC Comics".to_string(), "Dark Horse Comics".to_string()];
        let mut wrong_seen = 0;
        for i in 0..500 {
            let key = vec![format!("h{i}")];
            let mut c = ctx(ModelKind::Gpt35Turbo, 0, &key);
            c.class = AttrClass::FreeForm; // lower accuracy to see misses
            let out = n.emit_single(&c, "Marvel Comics", &cands);
            if out != "Marvel Comics" {
                wrong_seen += 1;
                assert!(
                    cands.iter().any(|cand| *cand == out),
                    "hallucination outside candidate pool: {out}"
                );
            }
        }
        assert!(wrong_seen > 100, "expected many wrong answers at 0-shot free-form");
    }

    #[test]
    fn emit_many_gives_partial_lists() {
        let n = NoiseModel::default();
        let truth: Vec<String> =
            (0..10).map(|i| format!("Power {i}")).collect();
        let key = vec!["H".to_string()];
        let mut c = ctx(ModelKind::Gpt35Turbo, 0, &key);
        c.class = AttrClass::MultiValue;
        let out = n.emit_many(&c, &truth, &truth);
        assert!(!out.is_empty());
        assert!(out.len() < truth.len(), "0-shot should drop some items");
    }

    #[test]
    fn format_errors_rarer_with_shots() {
        let n = NoiseModel::default();
        let count = |shots: usize| {
            (0..2000)
                .filter(|i| {
                    let key = vec![format!("k{i}")];
                    let c = ctx(ModelKind::Gpt35Turbo, shots, &key);
                    n.format_error(&c).is_some()
                })
                .count()
        };
        let zero = count(0);
        let five = count(5);
        assert!(zero > five * 2, "0-shot {zero} vs 5-shot {five}");
        assert!(zero > 60 && zero < 250, "≈6% of 2000, got {zero}");
    }

    #[test]
    fn mangle_always_differs() {
        for (i, s) in ["a", "ab", "abcdef", "www.school.edu", ""].iter().enumerate() {
            let m = mangle(s, 0x1234_5678u64.wrapping_mul(i as u64 + 1));
            assert_ne!(&m, s);
        }
    }

    /// `cell_hash` as it read before the identity was hashed once per
    /// cell: FNV over identity and salt in one pass. The reference for
    /// [`CellHash::draw`].
    fn reference_cell_hash(n: &NoiseModel, ctx: &CellContext<'_>, salt: u64) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325 ^ n.seed.wrapping_mul(0x9e3779b97f4a7c15);
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            h ^= 0x1f;
            h = h.wrapping_mul(0x100000001b3);
        };
        eat(ctx.model.name().as_bytes());
        eat(ctx.db.as_bytes());
        for k in ctx.key {
            eat(k.as_bytes());
        }
        eat(ctx.attribute.as_bytes());
        eat(&salt.to_le_bytes());
        splitmix64(h)
    }

    /// `emit_single` as it read when it hashed the whole cell per draw and
    /// collected the wrong candidates into a `Vec`.
    fn reference_emit_single(
        n: &NoiseModel,
        ctx: &CellContext<'_>,
        truth: &str,
        candidates: &[String],
    ) -> String {
        if unit(reference_cell_hash(n, ctx, 0x01)) < n.factuality(ctx) {
            return truth.to_string();
        }
        let h = reference_cell_hash(n, ctx, 0x02);
        let wrong: Vec<&String> = candidates.iter().filter(|c| *c != truth).collect();
        if !wrong.is_empty() {
            return wrong[(h % wrong.len() as u64) as usize].clone();
        }
        mangle(truth, h)
    }

    /// Text a key part, database, attribute or truth may hold: ASCII and
    /// non-ASCII letters, digits, punctuation, the empty string.
    const TEXT: &str = "[ a-zA-Z0-9'.,é漢—-]{0,10}";

    const CLASSES: [AttrClass; 3] =
        [AttrClass::ValueSelection, AttrClass::FreeForm, AttrClass::MultiValue];

    proptest::proptest! {
        /// Forking the identity state per salt is the one-pass hash, for
        /// single- and multi-part keys of ASCII and non-ASCII text.
        #[test]
        fn forked_draws_are_the_one_pass_cell_hash(
            seed in proptest::any::<u64>(),
            model in 0usize..2,
            db in TEXT,
            key in proptest::collection::vec(TEXT, 1..4),
            attribute in TEXT,
            salts in proptest::collection::vec(proptest::any::<u64>(), 1..6),
        ) {
            let n = NoiseModel::new(seed);
            let mut c = ctx(ModelKind::ALL[model], 0, &key);
            c.db = &db;
            c.attribute = &attribute;
            let identity = n.identity(&c);
            for salt in salts.into_iter().chain([0x01, 0x02, 0x03, 0x04, 0x10]) {
                proptest::prop_assert_eq!(identity.draw(salt), reference_cell_hash(&n, &c, salt));
            }
        }

        /// Counting the wrong candidates and taking the `h % n`-th picks
        /// what the collected `Vec` picked, with the truth 0, 1 or several
        /// times in the pool, an empty truth, and an empty pool.
        #[test]
        fn emit_single_picks_what_the_collected_pool_picked(
            seed in 0u64..1024,
            key in proptest::collection::vec(TEXT, 1..4),
            truth in TEXT,
            others in proptest::collection::vec(TEXT, 0..5),
            copies in proptest::collection::vec(0usize..8, 0..4),
            shots in 0usize..6,
            class in 0usize..3,
            popularity in 0.0f64..1.0,
            empty_truth in 0usize..4,
        ) {
            let truth = if empty_truth == 0 { String::new() } else { truth };
            let mut candidates = others;
            for at in copies {
                candidates.insert(at % (candidates.len() + 1), truth.clone());
            }
            let n = NoiseModel::new(seed);
            let mut c = ctx(ModelKind::Gpt35Turbo, shots, &key);
            c.class = CLASSES[class];
            c.popularity = popularity;
            proptest::prop_assert_eq!(
                &*n.emit_single(&c, &truth, &candidates),
                reference_emit_single(&n, &c, &truth, &candidates).as_str()
            );
        }
    }

    #[test]
    fn interpolation_matches_curve_points() {
        assert!((interpolate(&GPT35_CURVE, 0) - GPT35_CURVE[0].1).abs() < 1e-12);
        assert!((interpolate(&GPT35_CURVE, 5) - GPT35_CURVE[3].1).abs() < 1e-12);
        let mid = interpolate(&GPT35_CURVE, 2);
        assert!(mid > GPT35_CURVE[1].1 && mid < GPT35_CURVE[2].1);
        assert_eq!(interpolate(&GPT35_CURVE, 100), GPT35_CURVE[3].1);
    }
}
