//! The ledger: this repository's benchmark.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--report <file>]
//! ledger all [--seed <n>] [--seconds <s>] [--runs <n>] [--smoke] [--out <file>]
//! ledger compare <baseline.json> <candidate.json>
//! ledger manifest
//! ```
//!
//! The first form runs one workload in this process and ends its
//! standard output with one JSON result line (the contract in
//! `../BENCHMARK.json`); `all` runs every workload, untraced then
//! traced, each in a child process, and writes a result file;
//! `compare` diffs two result files against the bounds; `manifest`
//! prints what `../BENCHMARK.json` must contain. See README.md.

mod catalogue;
mod common;
mod compare;
mod fixture;
mod gen;
mod json;
mod ledger;
mod spans;
mod stats;
mod workloads;

use std::collections::HashMap;
use std::process::ExitCode;

use catalogue::{END_TO_END, EXTRA, PER_LAYER, WORKLOADS};
use common::{Outcome, RunConfig};
use fixture::Scale;
use json::Json;
use stats::Metric;

/// `--key value` pairs and bare `--flag`s after the subcommand.
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next().cloned().unwrap_or_default(),
                _ => "1".to_string(),
            };
            values.insert(key.to_string(), value);
        }
        Ok(Args { values })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    pub fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key}: cannot read {text:?}")),
        }
    }

    pub fn flag(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "0")
    }
}

pub const DEFAULT_SEED: u64 = 11;
pub const DEFAULT_SECONDS: f64 = 16.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("manifest") => {
            print!("{}", catalogue::manifest().pretty());
            return ExitCode::SUCCESS;
        }
        Some("all") => Args::parse(&args[1..]).and_then(|args| ledger::run_all(&args)),
        None => Args::parse(&[]).and_then(|args| ledger::run_all(&args)),
        Some(_) => Args::parse(&args).and_then(|args| run_one(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ledger: {why}");
            ExitCode::from(2)
        }
    }
}

/// The metrics a run must report, in catalogue order: every
/// end-to-end metric untraced, every per-layer metric traced (a layer
/// the workload never enters reads 0 with `n` = 0).
fn reported(outcome: &Outcome, trace: bool) -> Result<Vec<Metric>, String> {
    if trace {
        return Ok(PER_LAYER
            .iter()
            .map(|layer| {
                outcome
                    .metrics
                    .get(layer.name)
                    .cloned()
                    .unwrap_or_else(|| Metric::new(layer.name, layer.unit, 0.0, 0))
            })
            .collect());
    }
    END_TO_END
        .iter()
        .map(|metric| {
            outcome
                .metrics
                .get(metric.name)
                .cloned()
                .ok_or_else(|| format!("no {} was measured: every operation failed", metric.name))
        })
        .collect()
}

/// Runs one workload in this process. `Ok(false)` = it ran, and a
/// correctness check failed.
fn run_one(args: &Args) -> Result<bool, String> {
    let workload = args.get("workload").ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?}; one of {names:?}"));
    }
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.number("seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 60"));
    }
    let trace = args.flag("trace");
    let smoke = args.flag("smoke");
    let cfg = RunConfig {
        seed,
        seconds,
        scale: Scale::new(smoke, trace),
    };

    let outcome = workloads::dispatch(workload, trace, &cfg).expect("workload name was checked");
    let tally = &outcome.tally;
    let correct = tally.failed == 0;
    let listed = reported(&outcome, trace)?;

    println!(
        "{workload} seed={seed} seconds={seconds} trace={} scale={}",
        u8::from(trace),
        if smoke { "smoke" } else { "full" }
    );
    let extras = EXTRA
        .iter()
        .filter(|_| !trace)
        .filter_map(|extra| outcome.metrics.get(extra.name).cloned());
    let fail_ratio = Metric::new(
        "fail_ratio",
        "ratio",
        tally.fail_ratio(),
        tally.attempted as usize,
    );
    let detailed: Vec<Metric> = listed
        .iter()
        .cloned()
        .chain(extras)
        .chain([fail_ratio])
        .collect();
    for metric in &detailed {
        match metric.n {
            0 => println!("  {:<40} {:>16} {:<6} n=0", metric.name, "-", metric.unit),
            n => println!(
                "  {:<40} {:>16.4} {:<6} n={n}",
                metric.name, metric.value, metric.unit
            ),
        }
    }
    println!(
        "  attempted={} failed={} correct={correct}",
        tally.attempted, tally.failed
    );
    for why in &tally.examples {
        println!("  FAILED: {why}");
    }

    if let Some(spans) = &outcome.spans {
        let path = fixture::out_dir().join(format!("trace_{workload}.json"));
        std::fs::create_dir_all(fixture::out_dir()).map_err(|e| e.to_string())?;
        std::fs::write(&path, spans.to_json().compact()).map_err(|e| e.to_string())?;
        println!(
            "  {} spans written to {}",
            spans.spans().len(),
            path.display()
        );
        println!(
            "  {:<28} {:>7} {:>14} {:>14}",
            "span", "n", "total ms", "self ms"
        );
        for (name, n, total_us, self_us) in spans.summary() {
            println!(
                "  {name:<28} {n:>7} {:>14.3} {:>14.3}",
                total_us / 1e3,
                self_us / 1e3
            );
        }
    }
    let metrics_json = |metrics: &[Metric], full: bool| {
        Json::Obj(
            metrics
                .iter()
                .filter(|m| full || m.n > 0)
                .map(|m| {
                    let entry = if full {
                        Json::obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit)),
                        ])
                    } else {
                        m.to_json()
                    };
                    (m.name.to_string(), entry)
                })
                .collect(),
        )
    };
    if let Some(path) = args.get("report") {
        let report = Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(tally.attempted as f64)),
            ("failed", Json::Num(tally.failed as f64)),
            (
                "failures",
                Json::Arr(tally.examples.iter().map(Json::str).collect()),
            ),
            ("metrics", metrics_json(&detailed, false)),
        ]);
        std::fs::write(path, report.pretty()).map_err(|e| format!("{path}: {e}"))?;
    }

    // The driver's line: exactly these keys, every listed metric, last.
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted.max(1) as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", metrics_json(&listed, true)),
    ]);
    println!("{}", line.compact());
    Ok(correct)
}
