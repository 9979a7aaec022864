//! `ledger all`: every workload, untraced then traced, each in a child
//! process of its own (so `peak_rss_mb` is that workload's alone), and
//! one result file.

use std::path::PathBuf;
use std::process::Command;

use crate::catalogue::{gated, WORKLOADS};
use crate::fixture::out_dir;
use crate::json::Json;
use crate::{Args, DEFAULT_SECONDS, DEFAULT_SEED};

/// Timed phases are proportional to `--seconds`; the sizes the issue
/// that defined this benchmark wrote down correspond to 30.
const NOMINAL_SECONDS: f64 = 30.0;

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}

/// Runs one workload in a child and returns its report.
fn child(
    workload: &str,
    trace: bool,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<Json, String> {
    let report = out_dir().join(format!("report_{workload}_{}.json", u8::from(trace)));
    let mut command = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--report")
        .arg(&report);
    if smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child. Its metric table is passed on; its
    // last line is the driver's, which the report file supersedes here.
    let output = command
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let table = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = table.lines().collect();
    for line in &lines[..lines.len().saturating_sub(1)] {
        println!("{line}");
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let text = std::fs::read_to_string(&report)
        .map_err(|e| format!("{workload}: no report ({}): {e}", output.status))?;
    let _ = std::fs::remove_file(&report);
    Json::parse(&text)
}

/// One workload in one mode, `runs` times, merged: each metric takes
/// the entry of the run with the median value (the upper one of an
/// even count), so one run that met a noisy neighbour does not become
/// the number later changes are measured against.
fn merged(
    workload: &str,
    trace: bool,
    seed: u64,
    seconds: f64,
    smoke: bool,
    runs: usize,
) -> Result<Json, String> {
    let reports = (0..runs)
        .map(|_| child(workload, trace, seed, seconds, smoke))
        .collect::<Result<Vec<Json>, String>>()?;
    let sum = |key: &str| -> f64 {
        reports
            .iter()
            .filter_map(|r| r.get(key).and_then(Json::as_f64))
            .sum()
    };
    let names = reports[0]
        .get("metrics")
        .map(Json::fields)
        .unwrap_or_default();
    let metrics = names
        .iter()
        .map(|(name, _)| {
            let mut entries: Vec<&Json> = reports
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name))
                .collect();
            entries.sort_by(|a, b| {
                let value = |e: &Json| e.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                value(a).total_cmp(&value(b))
            });
            (name.clone(), entries[entries.len() / 2].clone())
        })
        .collect();
    Ok(Json::obj(vec![
        (
            "correct",
            Json::Bool(
                reports
                    .iter()
                    .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true)),
            ),
        ),
        ("attempted", Json::Num(sum("attempted"))),
        ("failed", Json::Num(sum("failed"))),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// Splits an untraced report's metrics into the gated ones; a traced
/// report's metrics are all per-layer.
fn section(report: &Json, end_to_end: bool) -> Json {
    Json::Obj(
        report
            .get("metrics")
            .map(Json::fields)
            .unwrap_or_default()
            .iter()
            .filter(|(name, _)| gated(name).is_some() == end_to_end)
            .cloned()
            .collect(),
    )
}

pub fn run_all(args: &Args) -> Result<bool, String> {
    let seed = args.number("seed", DEFAULT_SEED)?;
    let smoke = args.flag("smoke");
    let seconds: f64 = args.number("seconds", if smoke { 1.0 } else { DEFAULT_SECONDS })?;
    let runs: usize = args.number("runs", 1)?;
    if runs == 0 {
        return Err("--runs 0: expected at least one".to_string());
    }
    let out = args
        .get("out")
        .map_or_else(|| out_dir().join("BENCH.json"), PathBuf::from);
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let untraced = merged(workload.name, false, seed, seconds, smoke, runs)?;
        let traced = merged(workload.name, true, seed, seconds, smoke, runs)?;
        let sum = |key: &str| {
            [&untraced, &traced]
                .iter()
                .filter_map(|r| r.get(key).and_then(Json::as_f64))
                .sum::<f64>()
        };
        let correct = [&untraced, &traced]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        all_correct &= correct;
        workloads.push((
            workload.name.to_string(),
            Json::obj(vec![
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(sum("attempted"))),
                ("failed", Json::Num(sum("failed"))),
                ("end_to_end", section(&untraced, true)),
                ("per_layer", section(&traced, false)),
            ]),
        ));
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let file = Json::obj(vec![
        ("git_rev", Json::str(git_rev())),
        ("seed", Json::Num(seed as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Num(runs as f64)),
        ("scale", Json::Num(seconds / NOMINAL_SECONDS)),
        ("smoke", Json::Bool(smoke)),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::write(&out, file.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "ledger: {} workloads, all correct: {all_correct}; wrote {}",
        WORKLOADS.len(),
        out.display()
    );
    Ok(all_correct)
}
