//! Observability substrate for the lodify pipeline.
//!
//! Pure-std building blocks, composed by [`Obs`]:
//!
//! - [`trace`]: trace-id'd nested spans in a bounded ring buffer,
//!   timed through a [`Clock`] so `VirtualClock` chaos tests get
//!   deterministic traces;
//! - [`histogram`]: fixed-bucket latency histograms with p50/p95/p99
//!   estimation;
//! - [`registry`]: the [`Metrics`] registry merging those histograms
//!   with the resilience `Telemetry` counters and gauges;
//! - [`prometheus`]: `/metrics` text exposition;
//! - [`slowlog`]: slow-query aggregation keyed by normalized query
//!   fingerprints;
//! - [`access`]: per-request ids and a bounded access log.
//!
//! Recording is always on: there is no runtime switch, so every build
//! runs the instrumented path.

#![warn(missing_docs)]

pub mod access;
pub mod clock;
pub mod histogram;
pub mod prometheus;
pub mod registry;
pub mod slowlog;
pub mod trace;

pub use access::{AccessEntry, AccessLog};
pub use clock::{Clock, SharedClock, WallClock};
pub use histogram::{Histogram, BUCKET_BOUNDS};
pub use registry::Metrics;
pub use slowlog::{
    SlowQueryEntry, SlowQueryLog, DEFAULT_SLOW_LOG_CAPACITY, DEFAULT_SLOW_THRESHOLD_US,
};
pub use trace::{
    spans_well_nested, Entered, Span, SpanRecord, TraceContext, TraceStore, Tracer,
    DEFAULT_TRACE_STORE_CAPACITY,
};

use std::sync::Arc;

use lodify_resilience::Telemetry;

/// Default span ring capacity for [`Obs::new`].
pub const DEFAULT_SPAN_CAPACITY: usize = 512;

/// Default access-log capacity for [`Obs::new`].
pub const DEFAULT_ACCESS_CAPACITY: usize = 256;

/// The full observability bundle one platform instance carries:
/// metrics registry, tracer, trace store, slow-query log and access
/// log, all cloneable handles over shared state.
#[derive(Clone)]
pub struct Obs {
    clock: SharedClock,
    metrics: Metrics,
    tracer: Tracer,
    traces: TraceStore,
    slow_queries: SlowQueryLog,
    access_log: AccessLog,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("metrics", &self.metrics)
            .field("tracer", &self.tracer)
            .finish_non_exhaustive()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// A wall-clock bundle with default capacities and slow threshold.
    pub fn new() -> Obs {
        Obs::with_clock(Arc::new(WallClock::new()))
    }

    /// A bundle timing spans against an explicit clock (tests pass a
    /// `VirtualClock` for deterministic traces).
    pub fn with_clock(clock: SharedClock) -> Obs {
        let metrics = Metrics::with_clock(clock.clone());
        let traces = TraceStore::new(DEFAULT_TRACE_STORE_CAPACITY);
        let tracer =
            Tracer::with_clock(clock.clone(), DEFAULT_SPAN_CAPACITY).with_metrics(metrics.clone());
        tracer.set_trace_store(traces.clone());
        Obs {
            clock,
            metrics,
            tracer,
            traces,
            slow_queries: SlowQueryLog::default(),
            access_log: AccessLog::new(DEFAULT_ACCESS_CAPACITY),
        }
    }

    /// Rebinds the counter/gauge side onto an existing `Telemetry`
    /// registry, so series already written by breakers and retries
    /// show up in the same exposition.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Obs {
        let metrics = Metrics::with_telemetry_and_clock(telemetry, self.clock.clone());
        self.tracer = self.tracer.with_metrics(metrics.clone());
        self.metrics = metrics;
        self
    }

    /// The clock the bundle times against.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The trace store assembling whole (possibly cross-node) traces.
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    /// Replaces the trace store — multi-node simulations hand every
    /// node's bundle the *same* store so traces assemble across nodes.
    pub fn set_trace_store(&mut self, store: TraceStore) {
        self.tracer.set_trace_store(store.clone());
        self.traces = store;
    }

    /// Brands the tracer with a node identity (id salt + span label);
    /// see [`Tracer::set_node`].
    pub fn set_node(&self, salt: u16, label: &str) {
        self.tracer.set_node(salt, label);
    }

    /// The slow-query log.
    pub fn slow_queries(&self) -> &SlowQueryLog {
        &self.slow_queries
    }

    /// The request access log.
    pub fn access_log(&self) -> &AccessLog {
        &self.access_log
    }

    /// Renders the registry in Prometheus text format under the
    /// standard `lodify` prefix.
    pub fn render_prometheus(&self) -> String {
        prometheus::render("lodify", &self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_resilience::VirtualClock;

    #[test]
    fn bundle_wires_spans_into_histograms() {
        let clock = Arc::new(VirtualClock::new());
        let obs = Obs::with_clock(clock.clone());
        let span = obs.tracer().start("stage");
        clock.advance(4);
        span.finish();
        assert_eq!(obs.metrics().histogram("stage").unwrap().sum(), 4_000);
        assert!(obs.render_prometheus().contains("lodify_stage_seconds_sum"));
    }

    #[test]
    fn with_telemetry_merges_existing_series() {
        let telemetry = Telemetry::new();
        telemetry.incr("broker.calls.geo");
        let obs = Obs::new().with_telemetry(telemetry);
        let span = obs.tracer().start("op");
        span.finish();
        let text = obs.render_prometheus();
        assert!(text.contains("lodify_broker_calls_geo_total 1"));
        assert!(text.contains("lodify_op_seconds_count 1"));
    }

    #[test]
    fn with_telemetry_keeps_the_installed_clock() {
        let clock = Arc::new(VirtualClock::new());
        let obs = Obs::with_clock(clock.clone()).with_telemetry(Telemetry::new());
        clock.advance(3);
        assert_eq!(obs.metrics().now_micros(), 3_000);
    }

    #[test]
    fn finished_spans_land_in_the_trace_store() {
        let obs = Obs::new();
        let root = obs.tracer().start("commit");
        root.child("wal.flush").finish();
        let id = root.trace_id();
        root.finish();
        assert!(obs.traces().well_nested(id));
        let rendered = obs.traces().render(id).unwrap();
        assert!(rendered.contains("commit"));
        assert!(rendered.contains("wal.flush"));
    }

    #[test]
    fn shared_trace_store_assembles_across_bundles() {
        let clock = Arc::new(VirtualClock::new());
        let mut a = Obs::with_clock(clock.clone());
        let mut b = Obs::with_clock(clock.clone());
        a.set_node(1, "node1");
        b.set_node(2, "node2");
        let shared = TraceStore::new(16);
        a.set_trace_store(shared.clone());
        b.set_trace_store(shared.clone());

        let commit = a.tracer().start("commit");
        let ctx = commit.context();
        b.tracer()
            .start_with_context("replication.apply", ctx)
            .finish();
        let id = commit.trace_id();
        commit.finish();

        let spans = shared.spans(id).unwrap();
        assert_eq!(spans.len(), 2);
        assert!(shared.well_nested(id));
        assert_eq!(a.traces().len(), b.traces().len());
    }
}
