//! The metrics registry: counters + gauges + latency histograms.
//!
//! [`Metrics`] wraps the resilience [`Telemetry`] registry (so every
//! counter the breakers, retries and DLQs already write keeps its
//! name) and adds named [`Histogram`]s beside them. Clones share the
//! registry, and every clone always records.
//!
//! The registry also carries the [`Clock`](crate::clock::Clock) the
//! rest of the system should time against: call sites that used to
//! reach for `Instant::now()` ask the registry for
//! [`Metrics::now_micros`] instead, so installing a `VirtualClock`
//! makes *all* latency series deterministic, not just span timings.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lodify_resilience::Telemetry;

use crate::clock::{SharedClock, WallClock};
use crate::histogram::Histogram;

/// A cloneable registry of counters, gauges and latency histograms.
#[derive(Clone)]
pub struct Metrics {
    telemetry: Telemetry,
    histograms: Arc<Mutex<BTreeMap<String, Histogram>>>,
    clock: SharedClock,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("telemetry", &self.telemetry)
            .finish_non_exhaustive()
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            telemetry: Telemetry::default(),
            histograms: Arc::new(Mutex::new(BTreeMap::new())),
            clock: Arc::new(WallClock::new()),
        }
    }
}

impl Metrics {
    /// An empty registry on wall time.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// An empty registry timing against an explicit clock.
    pub fn with_clock(clock: SharedClock) -> Metrics {
        Metrics {
            clock,
            ..Metrics::new()
        }
    }

    /// Wraps an existing telemetry registry (its counters and gauges
    /// appear in the exposition alongside the histograms).
    pub fn with_telemetry(telemetry: Telemetry) -> Metrics {
        Metrics {
            telemetry,
            ..Metrics::new()
        }
    }

    /// Wraps an existing telemetry registry *and* times against an
    /// explicit clock.
    pub fn with_telemetry_and_clock(telemetry: Telemetry, clock: SharedClock) -> Metrics {
        Metrics {
            telemetry,
            clock,
            ..Metrics::new()
        }
    }

    /// The clock this registry (and everything timing through it)
    /// reads.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Microseconds from the registry clock's origin — the sanctioned
    /// replacement for ad-hoc `Instant::now()` at instrumented call
    /// sites (deterministic under a `VirtualClock`).
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// The underlying counter/gauge registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Adds 1 to a counter.
    pub fn incr(&self, name: &str) {
        self.telemetry.incr(name);
    }

    /// Adds `delta` to a counter.
    pub fn add(&self, name: &str, delta: u64) {
        self.telemetry.add(name, delta);
    }

    /// Sets a gauge to an absolute value.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.telemetry.set_gauge(name, value);
    }

    /// Records a microsecond observation into a named histogram.
    pub fn observe(&self, name: &str, micros: u64) {
        self.observe_with_exemplar(name, micros, 0);
    }

    /// Records a microsecond observation and, when `trace_id` is
    /// non-zero, retains it as the landing bucket's exemplar — the
    /// link `/metrics` tail buckets expose back to `/trace/<id>`.
    pub fn observe_with_exemplar(&self, name: &str, micros: u64, trace_id: u64) {
        let mut histograms = lock(&self.histograms);
        match histograms.get_mut(name) {
            Some(histogram) => histogram.observe_with_exemplar(micros, trace_id),
            None => {
                let mut histogram = Histogram::new();
                histogram.observe_with_exemplar(micros, trace_id);
                histograms.insert(name.to_string(), histogram);
            }
        }
    }

    /// Records a duration observation (truncated to µs).
    pub fn observe_duration(&self, name: &str, elapsed: Duration) {
        self.observe(name, elapsed.as_micros() as u64);
    }

    /// A counter's current value (0 when never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.telemetry.counter(name)
    }

    /// A gauge's current value, when set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.telemetry.gauge(name)
    }

    /// A histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        lock(&self.histograms).get(name).cloned()
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.telemetry.counters()
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> BTreeMap<String, u64> {
        self.telemetry.gauges()
    }

    /// All histogram snapshots, sorted by name.
    pub fn histograms(&self) -> BTreeMap<String, Histogram> {
        lock(&self.histograms).clone()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_every_surface() {
        let metrics = Metrics::new();
        let other = metrics.clone();
        metrics.incr("a");
        other.set_gauge("g", 7);
        metrics.observe("lat", 120);
        other.observe("lat", 480);
        assert_eq!(other.counter("a"), 1);
        assert_eq!(metrics.gauge("g"), Some(7));
        let histogram = metrics.histogram("lat").unwrap();
        assert_eq!(histogram.count(), 2);
        assert_eq!(histogram.sum(), 600);
        assert_eq!(metrics.histograms().len(), 1);
    }

    #[test]
    fn wraps_an_existing_telemetry() {
        let telemetry = Telemetry::new();
        telemetry.incr("pre.existing");
        let metrics = Metrics::with_telemetry(telemetry.clone());
        assert_eq!(metrics.counter("pre.existing"), 1);
        metrics.incr("pre.existing");
        assert_eq!(telemetry.counter("pre.existing"), 2);
    }

    #[test]
    fn observe_duration_truncates_to_micros() {
        let metrics = Metrics::new();
        metrics.observe_duration("d", Duration::from_micros(1500));
        assert_eq!(metrics.histogram("d").unwrap().sum(), 1500);
    }

    #[test]
    fn registry_clock_is_swappable_and_deterministic() {
        let clock = Arc::new(lodify_resilience::VirtualClock::new());
        let metrics = Metrics::with_clock(clock.clone());
        assert_eq!(metrics.now_micros(), 0);
        clock.advance(5);
        assert_eq!(metrics.now_micros(), 5_000);
        // The pattern call sites use: delta between two reads.
        let start = metrics.now_micros();
        clock.advance(2);
        metrics.observe("op", metrics.now_micros().saturating_sub(start));
        assert_eq!(metrics.histogram("op").unwrap().sum(), 2_000);
    }

    #[test]
    fn exemplars_reach_the_histogram() {
        let metrics = Metrics::new();
        metrics.observe_with_exemplar("lat", 650, 0x42);
        let histogram = metrics.histogram("lat").unwrap();
        let with_exemplar: Vec<u64> = histogram.bucket_exemplars().into_iter().flatten().collect();
        assert_eq!(with_exemplar, vec![0x42]);
    }
}
