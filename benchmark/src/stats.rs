//! Percentiles and the metric record every workload reports.

use crate::json::Json;
use crate::spans::Recorder;

/// Linear-interpolated percentile (the "exclusive of nothing" R-7
/// rule) of an ascending-sorted, non-empty slice; `p` in 0..=100.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// A latency (or any per-op) sample reduced to what the ledger keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

impl Summary {
    /// `None` for an empty sample: a layer the workload never entered
    /// has no timing, not a zero timing.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
        })
    }

    /// Summarises consecutive windows of at least `window` samples
    /// each (one window when there are fewer) and takes, for every
    /// percentile, the median over the windows. For an open loop, where
    /// one stall delays everything queued behind it: the stall then
    /// spoils one window's tail, not the run's.
    pub fn of_windows(samples: &[f64], window: usize) -> Option<Summary> {
        let windows = (samples.len() / window.max(1)).max(1);
        let size = samples.len().div_ceil(windows).max(1);
        let parts: Vec<Summary> = samples.chunks(size).filter_map(Summary::of).collect();
        let over =
            |pick: fn(&Summary) -> f64| median(&parts.iter().map(pick).collect::<Vec<f64>>());
        Some(Summary {
            n: samples.len(),
            mean: Summary::of(samples)?.mean,
            p50: over(|s| s.p50)?,
            p95: over(|s| s.p95)?,
            p99: over(|s| s.p99)?,
        })
    }
}

pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.p50)
}

/// One named number of a run. `n` is the sample count behind it (0 =
/// the workload does not exercise the layer; the value is then 0 and
/// carries no information). `p99` rides along for timings, ungated.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub p99: Option<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            n,
            p99: None,
        }
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.unit)),
            ("n", Json::Num(self.n as f64)),
        ];
        if let Some(p99) = self.p99 {
            fields.push(("p99", Json::Num(p99)));
        }
        Json::obj(fields)
    }
}

/// Named metrics in catalogue order.
#[derive(Debug, Default)]
pub struct MetricSet {
    pub metrics: Vec<Metric>,
}

impl MetricSet {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64, n: usize) {
        self.metrics.push(Metric::new(name, unit, value, n));
    }

    /// Records the median of a timing sample (skipped when empty).
    pub fn median(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        if let Some(s) = Summary::of(samples) {
            self.metrics.push(Metric {
                name,
                unit,
                value: s.p50,
                n: s.n,
                p99: Some(s.p99),
            });
        }
    }

    /// Records, for each metric named `<span>_us`, the median duration
    /// of the spans called `<span>` (skipped when there are none).
    pub fn span_medians(&mut self, rec: &Recorder, names: &[&'static str]) {
        for name in names {
            let span = name.strip_suffix("_us").expect("span metrics end in _us");
            self.median(name, "us", &rec.durations_us(span));
        }
    }

    /// Records a latency summary as its median and 95th percentile, the
    /// 99th riding along on both (skipped when the sample was empty).
    pub fn latency(&mut self, p50: &'static str, p95: &'static str, summary_ms: Option<Summary>) {
        if let Some(s) = summary_ms {
            for (name, value) in [(p50, s.p50), (p95, s.p95)] {
                self.metrics.push(Metric {
                    name,
                    unit: "ms",
                    value,
                    n: s.n,
                    p99: Some(s.p99),
                });
            }
        }
    }

    /// Records hits ÷ lookups of a cache (skipped when nothing looked).
    pub fn hit_ratio(&mut self, name: &'static str, hits: u64, misses: u64) {
        if hits + misses > 0 {
            self.push(
                name,
                "ratio",
                hits as f64 / (hits + misses) as f64,
                (hits + misses) as usize,
            );
        }
    }

    /// Records the mean of a per-op count sample (skipped when empty).
    pub fn mean(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        if let Some(s) = Summary::of(samples) {
            self.push(name, unit, s.mean, s.n);
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// `VmHWM` of this process in MiB: the peak resident set since start.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let sorted: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 50.0), 51.0);
        assert_eq!(percentile_sorted(&sorted, 95.0), 96.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 101.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn summary_sorts_and_counts() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.n, s.p50, s.mean), (5, 3.0, 3.0));
        assert!(s.p95 > 4.0 && s.p95 <= 5.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn windowed_summary_takes_the_median_window() {
        // Three windows of 100; the middle one holds a stall.
        let mut samples: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        for sample in &mut samples[150..200] {
            *sample += 1000.0;
        }
        let whole = Summary::of(&samples).unwrap();
        let windowed = Summary::of_windows(&samples, 100).unwrap();
        assert_eq!(windowed.n, 300);
        assert_eq!(windowed.mean, whole.mean);
        assert!(whole.p95 > 1000.0, "the stall owns the run's tail");
        assert_eq!(windowed.p95, percentile_sorted(&samples[..100], 95.0));
        assert_eq!(windowed.p50, 49.5);
        // Too few samples for two windows: the whole sample is the window.
        assert_eq!(Summary::of_windows(&samples, 200), Some(whole));
        assert!(Summary::of_windows(&[], 100).is_none());
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 1.0);
    }
}
