//! `ledger compare A.json B.json`: B against baseline A.
//!
//! Prints, per (workload, gated metric), both values, how much worse B
//! is as a share of A, and the bound; flags breaches and exits
//! non-zero on any. Used for the repeatability criterion (two sets of
//! runs of one commit must agree within the bounds) and by later PRs
//! to diff their `BENCH_<pr>.json` against the previous one.

use std::process::ExitCode;

use crate::catalogue::{gated, Better, EndToEnd, PER_LAYER};
use crate::json::Json;

/// How much worse `candidate` is than `baseline`, as a share of the
/// baseline (negative = better).
pub fn worse_by(metric: &EndToEnd, baseline: f64, candidate: f64) -> f64 {
    let delta = match metric.better {
        Better::Lower => candidate - baseline,
        Better::Higher => baseline - candidate,
    };
    if baseline == 0.0 {
        // A zero baseline (fail_ratio) has no share: any worsening is
        // infinitely worse, anything else is no change.
        return if delta > 0.0 { f64::INFINITY } else { 0.0 };
    }
    delta / baseline.abs()
}

pub fn breaches(metric: &EndToEnd, baseline: f64, candidate: f64) -> bool {
    worse_by(metric, baseline, candidate) > metric.bound + 1e-12
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub baseline: f64,
    pub candidate: f64,
    pub worse_by: f64,
    pub bound: f64,
    pub breach: bool,
}

fn value(entry: &Json) -> Option<f64> {
    entry.get("value").and_then(Json::as_f64)
}

/// Every gated metric both files report, in file order; plus notes on
/// count-type layer metrics that did not repeat exactly.
pub fn compare(baseline: &Json, candidate: &Json) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let empty = Json::Obj(Vec::new());
    let workloads = baseline.get("workloads").unwrap_or(&empty);
    for (workload, a) in workloads.fields() {
        let Some(b) = candidate.get("workloads").and_then(|w| w.get(workload)) else {
            notes.push(format!("{workload}: missing from the candidate"));
            continue;
        };
        for (name, a_entry) in a.get("end_to_end").unwrap_or(&empty).fields() {
            let (Some(metric), Some(a_value)) = (gated(name), value(a_entry)) else {
                continue;
            };
            let Some(b_value) = b
                .get("end_to_end")
                .and_then(|m| m.get(name))
                .and_then(value)
            else {
                notes.push(format!("{workload}/{name}: missing from the candidate"));
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: name.clone(),
                baseline: a_value,
                candidate: b_value,
                worse_by: worse_by(metric, a_value, b_value),
                bound: metric.bound,
                breach: breaches(metric, a_value, b_value),
            });
        }
        for layer in PER_LAYER.iter().filter(|l| l.unit == "count") {
            let read = |side: &Json| {
                side.get("per_layer")
                    .and_then(|m| m.get(layer.name))
                    .and_then(value)
            };
            if let (Some(a_value), Some(b_value)) = (read(a), read(b)) {
                if a_value != b_value {
                    notes.push(format!(
                        "{workload}/{}: count did not repeat ({a_value} vs {b_value})",
                        layer.name
                    ));
                }
            }
        }
    }
    (rows, notes)
}

pub fn main(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: ledger compare BASELINE.json CANDIDATE.json");
        return ExitCode::from(2);
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, candidate) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (rows, notes) = compare(&baseline, &candidate);
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "baseline", "candidate", "worse by", "bound"
    );
    for row in &rows {
        println!(
            "{:<14} {:<12} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%{}",
            row.workload,
            row.metric,
            row.baseline,
            row.candidate,
            row.worse_by * 100.0,
            row.bound * 100.0,
            if row.breach { "  BREACH" } else { "" }
        );
    }
    for note in &notes {
        println!("note: {note}");
    }
    let breached = rows.iter().filter(|r| r.breach).count();
    println!("{} pairs compared, {breached} breaches", rows.len());
    if breached > 0 || rows.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(ops_per_s: f64, p50: f64, fail_ratio: f64, delivered: f64) -> Json {
        let entry = |v: f64| Json::obj(vec![("value", Json::Num(v))]);
        Json::obj(vec![(
            "workloads",
            Json::obj(vec![(
                "upload_live",
                Json::obj(vec![
                    (
                        "end_to_end",
                        Json::obj(vec![
                            ("ops_per_s", entry(ops_per_s)),
                            ("op_p50_ms", entry(p50)),
                            ("fail_ratio", entry(fail_ratio)),
                            ("not_a_metric", entry(1.0)),
                        ]),
                    ),
                    (
                        "per_layer",
                        Json::obj(vec![("live.push.delivered_per_upload", entry(delivered))]),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn within_bounds_is_clean_in_both_directions() {
        let (rows, notes) = compare(&file(100.0, 5.0, 0.0, 1.0), &file(80.0, 6.0, 0.0, 1.0));
        assert_eq!(rows.len(), 3, "ungated names are skipped");
        assert!(rows.iter().all(|r| !r.breach), "{rows:?}");
        assert!(notes.is_empty());
        // Improvements are never breaches, however large.
        let (rows, _) = compare(&file(100.0, 5.0, 0.0, 1.0), &file(300.0, 1.0, 0.0, 1.0));
        assert!(rows.iter().all(|r| !r.breach && r.worse_by <= 0.0));
    }

    #[test]
    fn breaches_are_flagged_per_direction() {
        let (rows, _) = compare(&file(100.0, 5.0, 0.0, 1.0), &file(70.0, 6.5, 0.0, 1.0));
        let by = |name: &str| rows.iter().find(|r| r.metric == name).unwrap();
        assert!(
            by("ops_per_s").breach,
            "throughput fell 30 % against a 25 % bound"
        );
        assert!((by("ops_per_s").worse_by - 0.30).abs() < 1e-9);
        assert!(
            by("op_p50_ms").breach,
            "latency rose 30 % against a 25 % bound"
        );
        assert!(!by("fail_ratio").breach);
    }

    #[test]
    fn any_new_failure_is_a_breach() {
        let (rows, _) = compare(&file(100.0, 5.0, 0.0, 1.0), &file(100.0, 5.0, 0.001, 1.0));
        assert!(
            rows.iter()
                .find(|r| r.metric == "fail_ratio")
                .unwrap()
                .breach
        );
    }

    #[test]
    fn counts_that_do_not_repeat_are_noted() {
        let (_, notes) = compare(&file(100.0, 5.0, 0.0, 1.0), &file(100.0, 5.0, 0.0, 1.5));
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("live.push.delivered_per_upload"));
    }
}
