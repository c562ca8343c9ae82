//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <batch-rows|batch-wide|serve-mixed> --seed N --seconds S --trace 0|1
//! perfbench compare <old-results> <new-results> [BENCHMARK.json]
//! ```
//!
//! A run prints one provenance line and then, as its last line, the result
//! object `{"correct","attempted","failed","metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with nothing traced; with
//! `--trace 1` they are the per-layer ones of the separate traced run. A
//! results file for compare mode is the standard output of any number of
//! runs, appended.
//!
//! `cold` and `reference` are internal subcommands run in child processes:
//! a cold batch iteration, and the reference kernel that measures the
//! host's current speed.

mod batch;
mod compare;
mod input;
mod json;
mod replay;
mod serve;

use json::Json;

/// Bumped whenever a metric's definition or the result layout changes.
pub const SCHEMA_VERSION: u32 = 1;

/// End-to-end metrics: every `--trace 0` run prints all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("discover_norm", "ref"),
    ("f1", "ratio"),
    ("ops_per_ref", "1/ref"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every `--trace 1` run prints all of them. A layer
/// that is not on a workload's path reads 0 there (the server layers on
/// the batch workloads).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("discover_s", "s"),
    ("ops_per_s", "1/s"),
    ("reference_s", "s"),
    ("csv.read_s", "s"),
    ("csv.mb_per_s", "MB/s"),
    ("sampler.build_s", "s"),
    ("sampler.sample_s", "s"),
    ("sampler.steps", "count"),
    ("sampler.pairs_compared", "count"),
    ("sampler.pairs_per_s", "1/s"),
    ("sampler.yield", "ratio"),
    ("cover.invert_s", "s"),
    ("cover.non_fds_inverted", "count"),
    ("cover.churn", "count"),
    ("cover.inversions", "count"),
    ("driver.rounds", "count"),
    ("driver.cycles", "count"),
    ("driver.other_s", "s"),
    ("layers.accounted_frac", "ratio"),
    ("protocol.submit_ms.p50", "ms"),
    ("protocol.render_ms.p50", "ms"),
    ("protocol.render_ms.p90", "ms"),
    ("protocol.reply_bytes.p50", "bytes"),
    ("queue.wait_ms.p50", "ms"),
    ("queue.wait_ms.p90", "ms"),
    ("exec.discover_miss_ms.p50", "ms"),
    ("exec.discover_miss_ms.p90", "ms"),
    ("exec.discover_hit_ms.p50", "ms"),
    ("exec.delta_ms.p50", "ms"),
    ("exec.delta_ms.p90", "ms"),
    ("exec.validate_ms.p50", "ms"),
    ("exec.busy_frac", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.discover_jobs", "count"),
    ("catalog.register_s.lineitem", "s"),
    ("catalog.register_s.abalone", "s"),
    ("client.discover_ms.p50", "ms"),
    ("client.discover_ms.p90", "ms"),
    ("client.validate_ms.p50", "ms"),
    ("client.validate_ms.p90", "ms"),
    ("client.delta_ms.p50", "ms"),
    ("client.delta_ms.p90", "ms"),
    ("trace_overhead_pct", "%"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
];

pub const WORKLOADS: &[&str] = &["batch-rows", "batch-wide", "serve-mixed"];

/// Command-line arguments of a run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Row-count multiplier; the benchmark's own test runs at a tiny scale.
    pub scale: f64,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            scale: 1.0,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<f64>()
                    .map_err(|_| format!("{flag}: '{value}' is not a number"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => {
                    args.seed = value
                        .parse()
                        .map_err(|_| format!("--seed: '{value}' is not an integer"))?
                }
                "--seconds" => args.seconds = number()?,
                "--trace" => args.trace = number()? != 0.0,
                "--scale" => args.scale = number()?,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !(args.scale > 0.0 && args.seconds >= 0.0) {
            return Err("--scale must be positive and --seconds non-negative".into());
        }
        Ok(args)
    }

    /// `rows` under `--scale`, never below 50.
    pub fn scaled(&self, rows: usize) -> usize {
        ((rows as f64 * self.scale) as usize).max(50)
    }
}

/// What a workload measured and checked.
pub struct Outcome {
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    samples: Vec<(&'static str, usize)>,
    raw: Vec<(&'static str, Vec<f64>)>,
    datasets: Vec<Json>,
    threads: usize,
}

impl Outcome {
    pub fn new(datasets: Vec<Json>, threads: usize) -> Outcome {
        Outcome {
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            samples: Vec::new(),
            raw: Vec::new(),
            datasets,
            threads,
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records how many samples stand behind a metric.
    pub fn samples(&mut self, name: &'static str, n: usize) {
        self.samples.push((name, n));
    }

    /// Keeps a metric's raw samples for the provenance line.
    pub fn raw(&mut self, name: &'static str, values: &[f64]) {
        self.raw.push((name, values.to_vec()));
    }

    /// A wrong answer: the run fails.
    pub fn error(&mut self, message: &str) {
        eprintln!("CHECK FAILED: {message}");
        self.errors.push(message.to_owned());
    }
}

fn provenance(args: &Args, out: &Outcome) -> Json {
    Json::obj([(
        "perfbench",
        Json::obj([
            ("schema", Json::Num(SCHEMA_VERSION as f64)),
            ("workload", Json::str(&args.workload)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("scale", Json::Num(args.scale)),
            ("git_rev", Json::str(input::git_rev())),
            ("nproc", Json::Num(input::nproc() as f64)),
            ("threads", Json::Num(out.threads as f64)),
            ("datasets", Json::Arr(out.datasets.clone())),
            (
                "samples",
                Json::obj(out.samples.iter().map(|&(k, n)| {
                    (
                        k.to_owned(),
                        Json::obj([
                            ("n", Json::Num(n as f64)),
                            (
                                "highest_percentile",
                                Json::str(input::supported_percentile(n)),
                            ),
                        ]),
                    )
                })),
            ),
            (
                "raw",
                Json::obj(out.raw.iter().map(|(k, v)| {
                    (
                        k.to_string(),
                        Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                    )
                })),
            ),
            (
                "errors",
                Json::Arr(out.errors.iter().map(Json::str).collect()),
            ),
        ]),
    )])
}

/// The last line of a run.
fn result(args: &Args, out: &Outcome) -> Result<Json, String> {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) => v,
            None if args.trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        // A per-layer metric with no samples (say, no delta fell in a very
        // short traced run) reads 0; its sample count is in the provenance.
        let value = match value.is_finite() {
            true => value,
            false if args.trace => 0.0,
            false => return Err(format!("{name} is not a finite number ({value})")),
        };
        metrics.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(out.errors.is_empty())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]))
}

fn run(argv: &[String]) -> Result<bool, String> {
    match argv.first().map(String::as_str) {
        Some("cold") => return batch::cold_main(&argv[1..]).map(|_| true),
        Some("reference") => {
            println!("{}", input::reference_kernel_s());
            return Ok(true);
        }
        Some("compare") => return compare::main(&argv[1..]).map(|_| true),
        _ => {}
    }
    let args = Args::parse(argv)?;
    let out = match args.workload.as_str() {
        "batch-rows" => batch::run(&args, "lineitem", 120_000)?,
        "batch-wide" => batch::run(&args, "plista", 1_001)?,
        _ => serve::run(&args)?,
    };
    let line = result(&args, &out)?;
    println!("{}", provenance(&args, &out));
    println!("{line}");
    Ok(out.errors.is_empty())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
