//! The repository's benchmark harness. See `README.md` next to this crate
//! and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! dataflasks-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! dataflasks-benchmark all    [--seed N] [--seconds S] [--smoke]
//! dataflasks-benchmark repeat W -n N [--seed N] [--seconds S] [--smoke]
//! dataflasks-benchmark check
//! ```
//!
//! The first form is one run in this process: it prints every metric by
//! name with its unit, and as the last line of standard output one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. `all`
//! and `repeat` run that form in fresh child processes (so peak memory is
//! per workload) and exit non-zero if any check failed.

mod adapter;
mod driver;
mod json;
mod manifest;
mod metrics;
mod procfs;
mod provenance;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{Values, END_TO_END};
use provenance::Provenance;
use run::{RunOptions, RunReport};
use workloads::{Scale, Workload, DEFAULT_SEED, WORKLOADS};

/// Command-line options shared by every form.
#[derive(Debug, Clone)]
struct Cli {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    /// `--seconds`, if given.
    seconds_given: Option<u64>,
    traced: bool,
    smoke: bool,
    repeats: usize,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds_given: None,
        traced: false,
        smoke: false,
        repeats: 5,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                cli.seconds_given = Some(
                    value("a number")?
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds takes a whole number from 1 to 600")?,
                );
            }
            "--trace" => {
                cli.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "-n" => {
                cli.repeats = value("a count")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("-n takes a count from 1 to 100")?;
            }
            "--smoke" => cli.smoke = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    Ok(cli)
}

/// Window length when `--seconds` is not given.
const SMOKE_SECONDS: u64 = 2;

impl Cli {
    fn seconds(&self) -> u64 {
        self.seconds_given.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            manifest::RUN_SECONDS
        })
    }
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        parse_cli(&args).and_then(|cli| match cli.positional.first().map(String::as_str) {
            None => run_once(&cli),
            Some("all") => run_all(&cli),
            Some("repeat") => run_repeat(&cli),
            Some("check") => run_check(),
            Some(other) => Err(format!("unknown subcommand {other}")),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// One run, in this process
// ---------------------------------------------------------------------------

fn metrics_json(values: &Values) -> String {
    let entries: Vec<String> = values
        .iter()
        .map(|(def, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(def.name),
                json::quote(def.unit)
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn print_values(title: &str, values: &Values) {
    println!("{title}:");
    for (def, value) in values.iter() {
        println!("  {:<44} {value:>16.4} {}", def.name, def.unit);
    }
}

fn print_report(report: &RunReport, traced: bool) {
    print_values("end-to-end metrics", &report.end_to_end);
    if traced {
        print_values("per-layer metrics (traced run)", &report.per_layer);
    }
    if !report.per_second.is_empty() {
        println!("completed per second: {:?}", report.per_second);
    }
    for warning in &report.warnings {
        println!("WARNING: {warning}");
    }
    for problem in &report.problems {
        println!("FAILED CHECK: {problem}");
    }
    if let Some(path) = &report.trace_path {
        println!("trace written to {}", path.display());
    }
    let diagnostics: Vec<String> = report
        .diagnostics
        .iter()
        .map(|(name, value)| format!("{}: {value}", json::quote(name)))
        .collect();
    println!("diagnostics: {{{}}}", diagnostics.join(", "));
}

/// `--workload W --seed N --seconds S --trace T`: the contract form.
fn run_once(cli: &Cli) -> Result<bool, String> {
    let name = cli
        .workload
        .as_deref()
        .ok_or("give --workload <name>, or a subcommand: all, repeat, check")?;
    let options = RunOptions {
        workload: find_workload(name)?,
        seed: cli.seed,
        seconds: cli.seconds(),
        traced: cli.traced,
        scale: if cli.smoke { Scale::SMOKE } else { Scale::FULL },
    };
    let provenance = Provenance::collect(name, cli.seed, cli.seconds(), cli.traced, cli.smoke);
    println!("{}", provenance.line());
    let report = run::run(&options, &provenance);
    print_report(&report, cli.traced);
    let metrics = if cli.traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics_json(metrics)
    );
    Ok(report.correct())
}

// ---------------------------------------------------------------------------
// Child runs
// ---------------------------------------------------------------------------

/// The parsed output of one child run.
struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64, String)>,
    diagnostics: Json,
    warnings: Vec<String>,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    fn diagnostic(&self, name: &str) -> Option<f64> {
        self.diagnostics.get(name).and_then(Json::as_f64)
    }
}

/// Runs the contract form in a fresh process of this executable and parses
/// what it printed. The child's own output is passed through.
fn child_run(cli: &Cli, workload: &str, seed: u64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds().to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cli.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: the run printed nothing ({})", output.status))?;
    for line in &lines {
        println!("    {line}");
    }
    let result = json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?
        .iter()
        .map(|(name, entry)| {
            (
                name.clone(),
                entry.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                entry
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    let diagnostics = lines
        .iter()
        .find_map(|line| line.strip_prefix("diagnostics: "))
        .and_then(|text| json::parse(text).ok())
        .unwrap_or(Json::Null);
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    if correct != output.status.success() {
        return Err(format!(
            "{workload}: result says correct={correct} but the run ended with {}",
            output.status
        ));
    }
    Ok(ChildRun {
        correct,
        attempted: result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        metrics,
        diagnostics,
        warnings: lines
            .iter()
            .filter(|l| l.starts_with("WARNING: ") || l.starts_with("FAILED CHECK: "))
            .map(|l| (*l).to_string())
            .collect(),
    })
}

/// `all`: every workload untraced, then traced, every metric printed.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut all_correct = true;
    let mut summary = Vec::new();
    for workload in WORKLOADS {
        println!("=== {} (untraced) ===", workload.name);
        let untraced = child_run(cli, workload.name, cli.seed, false)?;
        println!("=== {} (traced) ===", workload.name);
        let traced = child_run(cli, workload.name, cli.seed, true)?;
        all_correct &= untraced.correct && traced.correct;

        let mut lines = vec![format!(
            "{}: correct={} attempted={} failed={}",
            workload.name,
            untraced.correct && traced.correct,
            untraced.attempted,
            untraced.failed
        )];
        for (name, value, unit) in untraced.metrics.iter().chain(&traced.metrics) {
            lines.push(format!("  {name:<44} {value:>16.4} {unit}"));
        }
        // What the tracing cost: 1 − traced ÷ untraced throughput.
        let overhead = match (
            untraced.metric("ops_per_s"),
            traced.metric("bench.traced_ops_per_s"),
        ) {
            (Some(plain), Some(with)) if plain > 0.0 => 1.0 - with / plain,
            _ => 0.0,
        };
        lines.push(format!(
            "  {:<44} {overhead:>16.4} ratio",
            "bench.trace_overhead_frac"
        ));
        // The simulation is deterministic: tracing must not change it.
        if let (Some(plain), Some(with)) = (
            untraced.diagnostic("events_dispatched"),
            traced.diagnostic("events_dispatched"),
        ) {
            if plain != with {
                all_correct = false;
                lines.push(format!(
                    "  FAILED CHECK: events_dispatched {plain} untraced, {with} traced"
                ));
            }
        }
        lines.extend(
            untraced
                .warnings
                .iter()
                .chain(&traced.warnings)
                .map(|w| format!("  {w}")),
        );
        summary.push(lines.join("\n"));
    }
    println!("=== summary ===");
    for block in summary {
        println!("{block}");
    }
    println!(
        "{}",
        if all_correct {
            "all checks passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

/// `repeat W -n N`: N fresh untraced runs of one seed; per end-to-end
/// metric the median, the quartiles, both spreads and a verdict against its
/// bound. (Another seed is another invocation: `--seed`.)
fn run_repeat(cli: &Cli) -> Result<bool, String> {
    let name = cli
        .positional
        .get(1)
        .ok_or("repeat needs a workload name")?;
    let workload = find_workload(name)?;
    let mut runs = Vec::new();
    for index in 0..cli.repeats {
        println!(
            "=== {} run {} of {} (seed {}) ===",
            workload.name,
            index + 1,
            cli.repeats,
            cli.seed
        );
        runs.push(child_run(cli, workload.name, cli.seed, false)?);
    }
    let all_correct = runs.iter().all(|r| r.correct);
    let failed: Vec<f64> = runs.iter().map(|r| r.failed).collect();
    println!("=== {} over {} runs ===", workload.name, runs.len());
    println!("failed operations per run: {failed:?}");
    println!(
        "{:<16} {:>14} {:>14} {:>14} {:>9} {:>9} {:>6}  verdict",
        "metric", "q1", "median", "q3", "iqr/med", "rng/med", "bound"
    );
    let mut within = true;
    for def in END_TO_END {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.metric(def.name)).collect();
        let Some([q1, q2, q3]) = stats::quartiles(&values) else {
            println!("{:<16} needs at least two runs", def.name);
            continue;
        };
        let spread = stats::iqr_over_median(&values).unwrap_or(f64::INFINITY);
        let (min, max) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        // The acceptance test: the spread stays within the bound; the
        // calibration target is a third of it.
        let verdict = if spread <= def.bound / 3.0 {
            "PASS"
        } else if spread <= def.bound {
            "PASS (above bound/3)"
        } else {
            within = false;
            "FAIL"
        };
        println!(
            "{:<16} {q1:>14.4} {q2:>14.4} {q3:>14.4} {spread:>9.4} {:>9.4} {:>6}  {verdict}",
            def.name,
            (max - min) / q2.abs().max(f64::MIN_POSITIVE),
            def.bound,
        );
    }
    Ok(all_correct && within)
}

/// `check`: `BENCHMARK.json` names exactly what the harness prints.
fn run_check() -> Result<bool, String> {
    let path = manifest::path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let problems = manifest::check(&text);
    for problem in &problems {
        println!("MISMATCH: {problem}");
    }
    if problems.is_empty() {
        println!(
            "{} agrees with the harness: {} workloads, {} end-to-end and {} per-layer metrics",
            path.display(),
            WORKLOADS.len(),
            END_TO_END.len(),
            metrics::PER_LAYER.len()
        );
    }
    Ok(problems.is_empty())
}
