//! The PARINDA benchmark. See `benchmark/README.md`.
//!
//! ```text
//! parinda-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! parinda-benchmark [--traced] [--quick] [--repeat <k>] [--seed <n>] [--workload <name>]...
//! ```
//!
//! The first form is what `BENCHMARK.json` runs; the last line of its
//! standard output is the result object. Run from the repository root.

mod adapter;
mod common;
mod expected;
mod gen;
mod layers;
mod lib_advise;
mod profile;
mod reply;
mod rounds;
mod stats;
mod wire;
mod wire_advise;
mod wire_interactive;
mod wire_stream;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use common::{Config, Metric, Outcome};
use stats::{json_num, json_str};

/// `--seconds` when none is given, and `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 20;
const DEFAULT_SEED: u64 = 42;

type Workload = (&'static str, &'static str, fn(&Config) -> Outcome);

const WORKLOADS: [Workload; 4] = [
    (lib_advise::NAME, lib_advise::WHY, lib_advise::run),
    (wire_advise::NAME, wire_advise::WHY, wire_advise::run),
    (
        wire_interactive::NAME,
        wire_interactive::WHY,
        wire_interactive::run,
    ),
    (wire_stream::NAME, wire_stream::WHY, wire_stream::run),
];

/// `(name, unit, better, bound)` of every end-to-end metric. What `op_a`
/// to `op_d` are differs by workload; `README.md` has the table. A bound
/// is at least three times the widest run-to-run spread (interquartile
/// distance over the median of ten runs on ten seeds) the metric showed on
/// any workload on the reference box, and at least a tenth.
const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("round_s", "s", "lower", 0.1),
    ("op_a_ms", "ms", "lower", 0.15),
    ("op_b_ms", "ms", "lower", 0.15),
    ("op_c_ms", "ms", "lower", 0.2),
    ("op_d_ms", "ms", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.25),
];

/// `BENCHMARK.json`, generated from the tables above so the two cannot
/// drift apart (`--contract` prints it).
fn contract() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why, _)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(name),
                json_str(why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                json_str(name),
                json_str(unit),
                json_str(better)
            )
        })
        .collect();
    let per_layer: Vec<String> = layers::PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(name),
                json_str(unit),
                json_str(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// `--trace 1`: the traced run alone. `--traced`: untraced, then traced.
    trace_only: bool,
    both: bool,
    quick: bool,
    repeat: usize,
    write_expected: bool,
    contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace_only: false,
        both: false,
        quick: false,
        repeat: 0,
        write_expected: false,
        contract: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = WORKLOADS.iter().find(|w| w.0 == name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?;
                a.workloads.push(*w);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => match value("0 or 1")?.as_str() {
                "0" => a.trace_only = false,
                "1" => a.trace_only = true,
                other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
            },
            "--traced" => a.both = true,
            "--quick" => a.quick = true,
            "--repeat" => {
                a.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--write-expected" => a.write_expected = true,
            "--contract" => a.contract = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.quick {
        // One round per workload (two when traced): a few seconds each.
        a.seconds = 0.0;
    }
    Ok(a)
}

/// Build the program under test in release mode, into the same target
/// directory cargo uses for this harness when `CARGO_TARGET_DIR` is set.
fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let output = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "parinda-cli",
        ])
        .current_dir(root)
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "building parinda-cli failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let cli = root.join(target).join("release").join("parinda-cli");
    if cli.is_file() {
        Ok(cli)
    } else {
        Err(format!("{} is missing after the build", cli.display()))
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// A fixed loop timed on this box, so that results from a slower or a
/// busier machine can be told apart from a slower program.
fn calibration_ns() -> u64 {
    let start = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..50_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as u64
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The driver's result object.
fn result_json(out: &Outcome, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.checker.failed == 0,
        out.checker.attempted.max(1),
        out.checker.failed,
        metrics_json(metrics)
    )
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("  {title}");
    for m in metrics {
        let tail = m
            .tail
            .map_or(String::new(), |(label, v)| format!("  {label} {v:.4}"));
        println!(
            "    {:<36} {:>14.4} {:<6} n={}{tail}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The metric names a run must have produced, each a finite number and
/// (end to end) above zero.
fn schema_errors(traced: bool, metrics: &[Metric]) -> Vec<String> {
    let expected: Vec<&str> = if traced {
        layers::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    let mut errors = Vec::new();
    if names != expected {
        errors.push(format!("metrics {names:?} are not {expected:?}"));
    }
    for m in metrics {
        if !m.value.is_finite() || (!traced && m.value <= 0.0) {
            errors.push(format!("{} = {} is not a usable number", m.name, m.value));
        }
    }
    errors
}

struct Run {
    outcome: Outcome,
    traced: bool,
    secs: f64,
}

impl Run {
    fn metrics(&self) -> &[Metric] {
        if self.traced {
            &self.outcome.per_layer
        } else {
            &self.outcome.end_to_end
        }
    }
}

fn run_one(
    w: &Workload,
    args: &Args,
    seed: u64,
    traced: bool,
    root: &Path,
    cli: &Path,
) -> Result<Run, String> {
    let out_dir = root.join("benchmark").join("out");
    let tmp = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let cfg = Config {
        seed,
        seconds: args.seconds,
        traced,
        cli: cli.to_path_buf(),
        tmp: tmp.clone(),
        expected: root.join("benchmark").join("expected"),
        write_expected: args.write_expected,
    };
    let start = Instant::now();
    let outcome = (w.2)(&cfg);
    let secs = start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&tmp).ok();

    println!(
        "{} seed={seed} trace={} rounds={} failed_share={}/{} ({:.1} s)",
        w.0,
        u8::from(traced),
        outcome.rounds,
        outcome.checker.failed,
        outcome.checker.attempted,
        secs
    );
    for note in &outcome.checker.notes {
        println!("  FAILED: {note}");
    }
    if traced {
        print_metrics("per layer", &outcome.per_layer);
        if let Some(spans) = &outcome.spans {
            let path = out_dir.join("trace.json");
            let self_times: Vec<String> = spans
                .self_times()
                .iter()
                .map(|(name, ns)| format!("{}: {ns}", json_str(name)))
                .collect();
            let text = format!(
                "{{\"workload\": {}, \"seed\": {seed}, \"self_ns\": {{{}}}, \"program\": {}, \"spans\": {}}}\n",
                json_str(w.0),
                self_times.join(", "),
                outcome.program_trace.as_deref().unwrap_or("null"),
                spans.to_json()
            );
            std::fs::write(&path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!(
                "  {} harness spans -> {}",
                spans.spans.len(),
                path.display()
            );
        }
    } else {
        print_metrics("named", &outcome.named);
        print_metrics("end to end", &outcome.end_to_end);
    }
    let run = Run {
        outcome,
        traced,
        secs,
    };
    let errors = schema_errors(traced, run.metrics());
    if errors.is_empty() {
        Ok(run)
    } else {
        Err(format!("{}: {}", w.0, errors.join("; ")))
    }
}

/// `--repeat K`: K full sets on K seeds; per metric the median, the
/// quartiles, the spread the driver computes (interquartile distance over
/// the median) and (max - min) / median. Returns whether every
/// end-to-end spread stayed within its bound.
fn repeat(args: &Args, root: &Path, cli: &Path) -> Result<bool, String> {
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut correct = true;
    for k in 0..args.repeat {
        for w in &args.workloads {
            let run = run_one(w, args, args.seed + k as u64, args.trace_only, root, cli)?;
            correct &= run.outcome.checker.failed == 0;
            for m in run.metrics() {
                values
                    .entry((w.0, m.name.clone()))
                    .or_default()
                    .push(m.value);
            }
        }
    }
    println!(
        "\nspread over {} sets (seeds {}..{})",
        args.repeat,
        args.seed,
        args.seed + args.repeat as u64 - 1
    );
    println!(
        "{:<22} {:<34} {:>12} {:>12} {:>12} {:>8} {:>8}  bound",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med"
    );
    let mut within = true;
    for ((workload, name), v) in &values {
        let med = stats::median(v);
        let (q1, q3) = stats::quartiles(v);
        let sorted = stats::sorted(v);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        let range = if med != 0.0 {
            (sorted[sorted.len() - 1] - sorted[0]) / med.abs()
        } else {
            0.0
        };
        let bound = END_TO_END.iter().find(|m| m.0 == name).map(|m| m.3);
        let verdict = match bound {
            Some(b) if name != "setup_s" && spread > b => {
                within = false;
                format!("{b} EXCEEDED")
            }
            Some(b) => b.to_string(),
            None => "-".to_string(),
        };
        println!("{workload:<22} {name:<34} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {range:>8.4}  {verdict}");
    }
    Ok(within && correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.contract {
        print!("{}", contract());
        return ExitCode::SUCCESS;
    }
    let root = match std::env::current_dir() {
        Ok(r)
            if r.join("Cargo.toml").is_file()
                && r.join("crates").is_dir()
                && r.join("benchmark").is_dir() =>
        {
            r
        }
        _ => {
            eprintln!("error: run from the repository root (Cargo.toml, crates/ and benchmark/ must be here)");
            return ExitCode::from(2);
        }
    };
    let cli = match build_cli(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut args = args;
    let driver_mode = args.workloads.len() == 1 && !args.both && !args.quick && args.repeat == 0;
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.to_vec();
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = format!(
        "\"git_rev\": {}, \"rustc\": {}, \"nproc\": {nproc}, \"seed\": {}, \"seconds\": {}, \"calib_ns\": {}, \
         \"threads\": {{\"lib_advise_100k\": \"1 harness thread, advisor threads 1\", \"wire_advise\": \"1 client, advisor threads 2\", \
         \"wire_interactive\": \"2 clients, advisor threads 1 per session\", \"wire_stream_durable\": \"2 clients, advisor threads 1 per session\"}}",
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&command_line("rustc", &["-V"])),
        args.seed,
        json_num(args.seconds),
        calibration_ns()
    );
    println!("parinda-benchmark {{{meta}}}");

    if args.repeat > 0 {
        return match repeat(&args, &root, &cli) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let mut results = Vec::new();
    let mut correct = true;
    let mut last_line = String::new();
    for w in &args.workloads {
        let modes: &[bool] = if args.both {
            &[false, true]
        } else {
            &[args.trace_only]
        };
        for &traced in modes {
            let run = match run_one(w, &args, args.seed, traced, &root, &cli) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            correct &= run.outcome.checker.failed == 0;
            last_line = result_json(&run.outcome, run.metrics());
            results.push(format!(
                "{{\"workload\": {}, \"trace\": {}, \"rounds\": {}, \"run_secs\": {}, \"result\": {}, \"named\": {}}}",
                json_str(w.0),
                u8::from(traced),
                run.outcome.rounds,
                json_num(run.secs),
                last_line,
                metrics_json(&run.outcome.named)
            ));
        }
    }
    let file = root.join("benchmark").join("out").join("results.json");
    let text = format!(
        "{{{meta},\n \"runs\": [\n  {}\n ]}}\n",
        results.join(",\n  ")
    );
    if let Err(e) = std::fs::write(&file, text) {
        eprintln!("error: cannot write {}: {e}", file.display());
        return ExitCode::from(2);
    }
    println!("results -> {}", file.display());
    if driver_mode {
        println!("{last_line}");
    }
    // The driver reads `correct` from the result object; run by hand, a
    // failed check is an exit status.
    if driver_mode || correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
