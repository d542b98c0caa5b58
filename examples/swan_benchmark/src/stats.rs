//! Order statistics over timing samples, a deterministic RNG with a
//! hot-key skew, and an FNV digest — the arithmetic every workload shares.

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A smoothed percentile: the mean of the samples whose rank lies within
/// 2.5 percentile points of `p`. The workloads' operations are a fixed set
/// of very unequal statements, so a single order statistic sits on one of
/// them and jumps to its neighbour when the seed changes the data or the
/// host reorders two statements; the band mean moves continuously instead.
pub fn band_percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let lo = (((p - 2.5) / 100.0 * n).floor().max(0.0) as usize).min(v.len() - 1);
    let hi = (((p + 2.5) / 100.0 * n).ceil() as usize).clamp(lo + 1, v.len());
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Median with the midpoint rule for even counts (what
/// `statistics.median` gives, so the driver and `--repeat` agree).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples to three decimals, comma-separated: for `#` note lines.
pub fn join_3dp(samples: &[f64]) -> String {
    samples
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// SplitMix64: tiny, seedable, and good enough to drive a workload mix.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// these sizes.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A key in `0..n` where 90 % of draws land in the hottest tenth of
    /// the key space — the skew `durable_mixed` runs under.
    pub fn skewed_key(&mut self, n: u64) -> u64 {
        let hot = (n / 10).max(1);
        if self.below(10) < 9 {
            self.below(hot)
        } else {
            hot + self.below((n - hot).max(1))
        }
    }
}

/// FNV-1a, 64 bit: a stable digest of result sets (std's hasher is not
/// specified across releases).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Start-up self-check of this module (examples and benchmark binaries
/// are not run by `cargo test`, so every invocation checks its helpers).
pub fn self_check() -> Result<(), String> {
    let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let checks = [
        (percentile(&v, 50.0), 50.0, "p50 of 1..=100"),
        (percentile(&v, 95.0), 95.0, "p95 of 1..=100"),
        (percentile(&v, 100.0), 100.0, "p100 of 1..=100"),
        (percentile(&[7.0], 95.0), 7.0, "p95 of one sample"),
        (
            band_percentile(&v, 95.0),
            95.5,
            "band p95 of 1..=100 (93..=98)",
        ),
        (
            band_percentile(&v, 50.0),
            50.5,
            "band p50 of 1..=100 (48..=53)",
        ),
        (band_percentile(&[7.0], 95.0), 7.0, "band p95 of one sample"),
        (median(&[4.0, 1.0, 3.0, 2.0]), 2.5, "median of four"),
        (median(&[3.0, 1.0, 2.0]), 2.0, "median of three"),
    ];
    for (got, want, what) in checks {
        if got != want {
            return Err(format!("stats: {what} = {got}, expected {want}"));
        }
    }
    let draw = |seed| {
        let mut r = Rng::new(seed);
        (0..10_000)
            .map(|_| r.skewed_key(20_000))
            .collect::<Vec<_>>()
    };
    let (a, b) = (draw(7), draw(7));
    if a != b {
        return Err("rng: the same seed gave two key sequences".into());
    }
    if draw(8) == a {
        return Err("rng: two seeds gave the same key sequence".into());
    }
    let hot = a.iter().filter(|k| **k < 2_000).count();
    if !(8_700..=9_300).contains(&hot) {
        return Err(format!(
            "rng: {hot} of 10000 skewed draws were hot, expected ≈9000"
        ));
    }
    if a.iter().any(|k| *k >= 20_000) {
        return Err("rng: skewed key out of range".into());
    }
    let mut h = Fnv::default();
    h.write(b"a");
    if h.0 != 0xaf63_dc4c_8601_ec8c {
        return Err(format!("fnv: digest of \"a\" is {:#x}", h.0));
    }
    Ok(())
}
