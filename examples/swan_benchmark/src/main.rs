//! The repository's benchmark: five workloads, one command.
//!
//! ```text
//! swan_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! runs one workload in this process and ends with one JSON result line
//! (`--trace 0`: the end-to-end metrics, `--trace 1`: the per-layer
//! metrics of a separately traced run). `--workload all` runs every
//! workload in a child process of its own, one at a time; `--repeat N`
//! does that N times and fails when two sets disagree by more than a
//! metric's bound; `--quick` is a smoke run. README.md has the glossary.

mod countfs;
mod durable;
mod host;
mod json;
mod metrics;
mod probe;
mod sql_gold;
mod sqlx;
mod stats;
mod swan;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use metrics::{Report, END_TO_END, WORKLOADS};

/// The seconds one run measures for; `BENCHMARK.json` carries the same.
const RUN_SECONDS: u64 = 15;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Ad-hoc override of the workload's scale (results at another scale
    /// compare with nothing else).
    pub scale: Option<f64>,
    pub repeat: usize,
    /// How many times set-up runs at the least; `setup_s` is the median.
    /// On `durable_mixed` every set-up is an instance that is measured.
    pub setup_repeats: usize,
    /// Rounds (blocks on `durable_mixed`) timed at the least, however
    /// short the window.
    pub min_rounds: usize,
    /// This run's scratch directory, inside the working directory.
    pub tmp: PathBuf,
}

impl Config {
    /// Whether to set up once more after `done` set-ups that took
    /// `spent_s` together. A short set-up is repeated until two seconds
    /// have gone by: the host's speed shifts for a few hundred
    /// milliseconds at a time, and a median taken inside one such stretch
    /// is not the host's median.
    pub fn set_up_again(&self, done: usize, spent_s: f64) -> bool {
        done < self.setup_repeats || (!self.quick && spent_s < 2.0 && done < 60)
    }
}

/// What a measuring window produced: the timed rounds, and in a traced
/// run the traced rounds, their layers summed, and the latest traced
/// round's spans.
pub struct Rounds<R> {
    pub timed: Vec<R>,
    pub traced: Vec<R>,
    pub layers: trace::Layers,
    pub last_spans: Vec<trace::Span>,
    /// `host::peak_rss_mb()` when the first timed round ended.
    pub peak_rss_mb: f64,
}

/// Run `round(traced)` until `cfg.seconds` have passed and `cfg.min_rounds`
/// rounds are timed. A traced run times a traced and an untraced round in
/// turn, so both kinds see the same stretch of the host's time.
pub fn measure<R>(
    cfg: &Config,
    tracer: &trace::Tracer,
    report: &mut Report,
    mut round: impl FnMut(bool) -> R,
) -> Rounds<R> {
    let mut out = Rounds {
        timed: Vec::new(),
        traced: Vec::new(),
        layers: trace::Layers::new(),
        last_spans: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let window = std::time::Instant::now();
    loop {
        if cfg.trace {
            out.traced.push(round(true));
            out.last_spans = tracer.drain();
            match trace::layers(&out.last_spans) {
                Ok(l) => trace::merge(&mut out.layers, &l),
                Err(e) => report.fail(format!("trace: {e}")),
            }
        }
        out.timed.push(round(false));
        if out.timed.len() == 1 {
            out.peak_rss_mb = host::peak_rss_mb();
        }
        if out.timed.len() >= cfg.min_rounds && window.elapsed().as_secs_f64() >= cfg.seconds {
            return out;
        }
    }
}

const USAGE: &str =
    "usage: swan_benchmark --workload <hqdl_swan|udf_swan|latency_bound|sql_gold|durable_mixed|all>
       [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--quick] [--scale X]
       swan_benchmark --manifest";

fn parse_args(args: &[String]) -> Result<Option<Config>, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 45357,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        scale: None,
        repeat: 1,
        setup_repeats: 5,
        min_rounds: 3,
        tmp: PathBuf::from(".bench_tmp").join(std::process::id().to_string()),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => cfg.workload = value("a name")?.clone(),
            "--seed" => {
                cfg.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cfg.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                cfg.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                cfg.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--scale" => {
                cfg.scale = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?,
                )
            }
            "--quick" => cfg.quick = true,
            "--manifest" => return Ok(None),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cfg.workload != "all" && !WORKLOADS.iter().any(|w| w.name == cfg.workload) {
        return Err(format!("unknown workload `{}`", cfg.workload));
    }
    let bad_seconds = !cfg.seconds.is_finite() || cfg.seconds < 0.0;
    let bad_scale = cfg.scale.is_some_and(|s| !s.is_finite() || s <= 0.0);
    if bad_seconds || cfg.repeat == 0 || bad_scale {
        return Err("--seconds must not be negative; --repeat and --scale must be positive".into());
    }
    if cfg.trace {
        // A traced run times a traced and an untraced round in turn.
        cfg.min_rounds = 2;
    }
    if cfg.quick {
        (cfg.seconds, cfg.setup_repeats, cfg.min_rounds) = (0.0, 1, 1);
    }
    Ok(Some(cfg))
}

/// Removes the run's scratch directory on every exit path that unwinds.
struct TmpRoot(PathBuf);

impl Drop for TmpRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once the last concurrent run has left it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Write a traced run's spans to `.bench_trace/<workload>.jsonl`.
pub fn write_trace(cfg: &Config, spans: &[trace::Span], report: &mut Report) {
    let path = Path::new(".bench_trace").join(format!("{}.jsonl", cfg.workload));
    let written = std::fs::create_dir_all(".bench_trace")
        .and_then(|()| std::fs::write(&path, trace::to_jsonl(facts(cfg), spans)));
    match written {
        Ok(()) => report.note("trace_file", path.display()),
        Err(e) => report.fail(format!("writing {}: {e}", path.display())),
    }
}

/// Host and run facts as JSON; gathered once (it asks `rustc` its version).
fn facts(cfg: &Config) -> &'static str {
    static FACTS: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    FACTS.get_or_init(|| gather_facts(cfg))
}

fn gather_facts(cfg: &Config) -> String {
    host::facts_json(
        &cfg.tmp,
        &[
            ("workload", json::string(&cfg.workload)),
            ("seed", json::number(cfg.seed as f64)),
            ("seconds", json::number(cfg.seconds)),
            ("traced", cfg.trace.to_string()),
            ("quick", cfg.quick.to_string()),
            (
                "scale_override",
                cfg.scale.map_or("null".to_string(), json::number),
            ),
        ],
    )
}

/// Run one workload in this process and print its result.
fn run_one(cfg: &Config) -> bool {
    let report = match cfg.workload.as_str() {
        "hqdl_swan" => swan::run(swan::Kind::Hqdl, cfg),
        "udf_swan" => swan::run(swan::Kind::Udf, cfg),
        "latency_bound" => swan::run(swan::Kind::Latency, cfg),
        "sql_gold" => sql_gold::run(cfg),
        "durable_mixed" => durable::run(cfg),
        other => unreachable!("parse_args admitted workload {other}"),
    };
    println!("# host {}", facts(cfg));
    for (k, v) in &report.notes {
        println!("# {} {k} {v}", cfg.workload);
    }
    for (m, v) in report.rows(cfg.trace) {
        println!("{} {} {} {}", cfg.workload, m.name, json::number(v), m.unit);
    }
    for f in &report.failures {
        println!("# {} FAILED CHECK: {f}", cfg.workload);
    }
    let ok = report.correct() && report.failed == 0 && report.attempted > 0;
    println!("{}", report.result_json(cfg.trace));
    ok
}

/// `workload metric` → value, from the lines a child printed.
type Values = BTreeMap<(String, String), f64>;

/// Run `workload` in a child process (one at a time: the child has the
/// host to itself), echo its output, and collect its metric lines.
fn run_child(
    cfg: &Config,
    workload: &str,
    traced: bool,
    into: &mut Values,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &cfg.seed.to_string()])
        .args([
            "--seconds",
            &cfg.seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ]);
    if cfg.quick {
        cmd.arg("--quick");
    }
    if let Some(s) = cfg.scale {
        cmd.args(["--scale", &s.to_string()]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines() {
        if line.starts_with('{') {
            continue; // the driver's result line; the rows above carry the same values
        }
        println!("{line}");
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [w, metric, value, _unit] = f[..] {
            if let Ok(v) = value.parse::<f64>() {
                into.insert((w.to_string(), metric.to_string()), v);
            }
        }
    }
    Ok(out.status.success())
}

/// Run the chosen workloads `cfg.repeat` times and, with more than one
/// set, hold every end-to-end metric to its bound across the sets.
fn run_sets(cfg: &Config) -> Result<bool, String> {
    let names: Vec<&str> = match cfg.workload.as_str() {
        "all" => WORKLOADS.iter().map(|w| w.name).collect(),
        one => vec![one],
    };
    let mut ok = true;
    let mut sets: Vec<Values> = Vec::new();
    for set in 0..cfg.repeat {
        if cfg.repeat > 1 {
            println!("# set {} of {}", set + 1, cfg.repeat);
        }
        let mut values = Values::new();
        for w in &names {
            ok &= run_child(cfg, w, false, &mut values)?;
            if cfg.trace {
                ok &= run_child(cfg, w, true, &mut Values::new())?;
            }
        }
        sets.push(values);
    }
    if sets.len() > 1 {
        println!("# largest deviation between sets, (max - min) / median, against each bound");
        for w in &names {
            for m in END_TO_END {
                let key = (w.to_string(), m.name.to_string());
                let v: Vec<f64> = sets.iter().filter_map(|s| s.get(&key).copied()).collect();
                let (lo, hi) = v
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
                let deviation = (hi - lo) / stats::median(&v).abs().max(f64::MIN_POSITIVE);
                let bound = m.bound.expect("end-to-end metrics are bounded");
                let within = v.len() == sets.len() && deviation <= bound;
                println!(
                    "# {w} {} deviation {:.4} bound {bound} {}",
                    m.name,
                    deviation,
                    if within { "ok" } else { "EXCEEDED" }
                );
                ok &= within;
            }
        }
    }
    println!("# {}", if ok { "all checks passed" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(Some(cfg)) => cfg,
        Ok(None) => {
            print!("{}", metrics::manifest(RUN_SECONDS));
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("swan_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = host::swan_env_vars();
    if !set.is_empty() {
        eprintln!(
            "swan_benchmark: refusing to run with {} set: SWAN_* variables change engine defaults, \
             so the result would describe another configuration",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    // Benchmark binaries are not run by `cargo test`; their helpers are
    // checked here, on every invocation.
    for check in [
        stats::self_check,
        trace::self_check,
        json::self_check,
        metrics::self_check,
        durable::self_check,
    ] {
        if let Err(e) = check() {
            eprintln!("swan_benchmark: self-check failed: {e}");
            return ExitCode::from(3);
        }
    }

    let ok = if cfg.workload == "all" || cfg.repeat > 1 {
        match run_sets(&cfg) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("swan_benchmark: {e}");
                false
            }
        }
    } else {
        if let Err(e) = std::fs::create_dir_all(&cfg.tmp) {
            eprintln!("swan_benchmark: creating {}: {e}", cfg.tmp.display());
            return ExitCode::from(2);
        }
        let _tmp = TmpRoot(cfg.tmp.clone());
        run_one(&cfg)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
