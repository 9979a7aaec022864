//! Structured tracing: trace IDs, nested spans, a bounded ring buffer,
//! and cross-node trace assembly.
//!
//! A [`Tracer`] hands out [`Span`]s. Every span carries a trace id
//! (shared by the whole request), its own span id and an optional
//! parent link, so completed spans reassemble into a tree. Finished
//! spans land in a bounded ring buffer (oldest evicted first) and —
//! when the tracer carries a [`Metrics`] handle — their duration is
//! also observed into the histogram named after the span (together
//! with the trace id as an exemplar), which is how one instrumentation
//! point feeds `/ops` traces, `/metrics` percentiles and `/trace/<id>`
//! trees.
//!
//! # Causal propagation
//!
//! A span's [`TraceContext`] (trace id + the span's own id as the
//! parent link) is a plain value that can travel across process
//! boundaries — inside an `Emission`, an `AlbumDiff`, a push delivery.
//! The receiving side calls [`Tracer::start_with_context`] and its
//! spans stitch under the origin trace, even though a different tracer
//! minted them. To keep ids collision-free across nodes, each tracer
//! can be branded with a 16-bit node salt ([`Tracer::set_node`]) that
//! occupies the top bits of every minted id.
//!
//! Within one thread the parent link can also travel implicitly:
//! [`Span::enter`] makes a span the thread's *ambient* parent, and
//! until the returned guard drops, [`Tracer::start`] on that thread
//! opens children of it instead of new traces. The web layer enters
//! its `web.request` span around routing, which is how `album.view`
//! and `sparql` spans — started layers below, through signatures that
//! carry no context — land in the request's tree.
//!
//! Timing goes through the [`Clock`](crate::clock::Clock)
//! abstraction: production tracers
//! read wall time, chaos tests install a
//! [`lodify_resilience::VirtualClock`] and get deterministic traces.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::{SharedClock, WallClock};
use crate::registry::Metrics;

thread_local! {
    /// The span [`Tracer::start`] parents under on this thread, set by
    /// [`Span::enter`].
    static AMBIENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// A portable causal reference: enough to start a child span of an
/// operation that ran elsewhere (another thread, another node).
///
/// ```
/// use lodify_obs::{TraceContext, Tracer};
///
/// let origin = Tracer::new(16);
/// let remote = Tracer::new(16);
/// remote.set_node(2, "node2");
///
/// let commit = origin.start("commit");
/// let ctx: Option<TraceContext> = commit.context();
///
/// // ... `ctx` ships inside an emission to the remote node ...
/// let apply = remote.start_with_context("replication.apply", ctx);
/// let apply_trace = apply.trace_id();
/// apply.finish();
/// assert_eq!(apply_trace, commit.trace_id());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every descendant span joins.
    pub trace_id: u64,
    /// The span id descendants attach under.
    pub parent_span_id: u64,
}

/// A completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within the tracer).
    pub span_id: u64,
    /// Parent span id, `None` for a trace root.
    pub parent_id: Option<u64>,
    /// Span name (dotted stage path, e.g. `upload.annotate`).
    pub name: String,
    /// Label of the node whose tracer recorded the span (empty when
    /// the tracer was never branded with [`Tracer::set_node`]).
    pub node: String,
    /// Start instant (µs from the tracer's clock origin).
    pub start_us: u64,
    /// End instant (µs).
    pub end_us: u64,
}

impl SpanRecord {
    /// The span's duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

#[derive(Debug, Default)]
struct Ring {
    spans: VecDeque<SpanRecord>,
}

#[derive(Debug, Default)]
struct NodeBrand {
    salt: u64,
    label: String,
}

/// A cloneable tracer over a shared span ring buffer.
#[derive(Clone)]
pub struct Tracer {
    clock: SharedClock,
    metrics: Option<Metrics>,
    ring: Arc<Mutex<Ring>>,
    sink: Arc<Mutex<Option<TraceStore>>>,
    brand: Arc<Mutex<NodeBrand>>,
    next_id: Arc<AtomicU64>,
    capacity: usize,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A wall-clock tracer keeping the last `capacity` spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer::with_clock(Arc::new(WallClock::new()), capacity)
    }

    /// A tracer over an explicit clock (deterministic tests pass a
    /// virtual clock).
    pub fn with_clock(clock: SharedClock, capacity: usize) -> Tracer {
        Tracer {
            clock,
            metrics: None,
            ring: Arc::new(Mutex::new(Ring::default())),
            sink: Arc::new(Mutex::new(None)),
            brand: Arc::new(Mutex::new(NodeBrand::default())),
            next_id: Arc::new(AtomicU64::new(1)),
            capacity: capacity.max(1),
        }
    }

    /// Also observes every finished span's duration into `metrics`
    /// under the span's name (with the trace id as an exemplar).
    pub fn with_metrics(mut self, metrics: Metrics) -> Tracer {
        self.metrics = Some(metrics);
        self
    }

    /// Forwards every finished span to `store`, where cross-node
    /// traces assemble (shared across clones). Multi-node simulations
    /// point every node's tracer at one store.
    pub fn set_trace_store(&self, store: TraceStore) {
        *lock(&self.sink) = Some(store);
    }

    /// Brands this tracer (shared across clones) with a node identity:
    /// `salt` occupies the top 16 bits of every minted trace/span id so
    /// ids never collide across nodes, and `label` is stamped onto
    /// every [`SpanRecord`] so assembled traces show where each span
    /// ran. Salt 0 (the default) keeps ids as plain small integers.
    pub fn set_node(&self, salt: u16, label: &str) {
        let mut brand = lock(&self.brand);
        brand.salt = (salt as u64) << 48;
        brand.label = label.to_string();
    }

    fn mint_id(&self) -> u64 {
        let seq = self.next_id.fetch_add(1, Ordering::Relaxed);
        lock(&self.brand).salt | seq
    }

    /// Starts a new trace: a root span with a fresh trace id — or,
    /// while a span is [entered](Span::enter) on this thread, a child
    /// of that span.
    pub fn start(&self, name: &str) -> Span {
        if let Some(ctx) = AMBIENT.get() {
            return self.span_with(ctx.trace_id, Some(ctx.parent_span_id), name);
        }
        let trace_id = self.mint_id();
        self.span_with(trace_id, None, name)
    }

    /// Starts a span under a foreign [`TraceContext`] — the receiving
    /// half of cross-node propagation. With `None` this degrades to
    /// [`Tracer::start`], so call sites need no branching when an
    /// operation may or may not have a causal origin.
    pub fn start_with_context(&self, name: &str, context: Option<TraceContext>) -> Span {
        match context {
            Some(ctx) => self.span_with(ctx.trace_id, Some(ctx.parent_span_id), name),
            None => self.start(name),
        }
    }

    fn span_with(&self, trace_id: u64, parent_id: Option<u64>, name: &str) -> Span {
        let span_id = self.mint_id();
        Span {
            tracer: self.clone(),
            trace_id,
            span_id,
            parent_id,
            name: name.to_string(),
            start_us: self.clock.now_micros(),
            live: true,
        }
    }

    /// The most recent completed spans, oldest first, capped at `n`.
    pub fn recent_spans(&self, n: usize) -> Vec<SpanRecord> {
        let ring = lock(&self.ring);
        let skip = ring.spans.len().saturating_sub(n);
        ring.spans.iter().skip(skip).cloned().collect()
    }

    /// Recent completed spans grouped into traces (by trace id, in
    /// first-seen order): the shape `/ops` renders.
    pub fn recent_traces(&self, max_traces: usize) -> Vec<Vec<SpanRecord>> {
        let spans = self.recent_spans(self.capacity);
        let mut order: Vec<u64> = Vec::new();
        for span in &spans {
            if !order.contains(&span.trace_id) {
                order.push(span.trace_id);
            }
        }
        let keep: Vec<u64> = order.iter().rev().take(max_traces).rev().copied().collect();
        keep.iter()
            .map(|&trace_id| {
                spans
                    .iter()
                    .filter(|s| s.trace_id == trace_id)
                    .cloned()
                    .collect()
            })
            .collect()
    }

    fn record(&self, record: SpanRecord) {
        if let Some(metrics) = &self.metrics {
            metrics.observe_with_exemplar(&record.name, record.duration_us(), record.trace_id);
        }
        let sink = lock(&self.sink).clone();
        if let Some(store) = sink {
            store.ingest(record.clone());
        }
        let mut ring = lock(&self.ring);
        if ring.spans.len() == self.capacity {
            ring.spans.pop_front();
        }
        ring.spans.push_back(record);
    }
}

/// A live span; finishing (or dropping) it records a [`SpanRecord`].
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
    name: String,
    start_us: u64,
    live: bool,
}

impl Span {
    /// The trace id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// This span's id.
    pub fn span_id(&self) -> u64 {
        self.span_id
    }

    /// The portable causal reference for work spawned under this span
    /// (on any node).
    pub fn context(&self) -> Option<TraceContext> {
        Some(TraceContext {
            trace_id: self.trace_id,
            parent_span_id: self.span_id,
        })
    }

    /// Starts a child span within the same trace.
    pub fn child(&self, name: &str) -> Span {
        self.tracer
            .span_with(self.trace_id, Some(self.span_id), name)
    }

    /// Makes this span the ambient parent on the current thread until
    /// the guard drops (the previous ambient parent, if any, comes
    /// back then): [`Tracer::start`] calls made meanwhile on this
    /// thread join this span's trace as its children.
    pub fn enter(&self) -> Entered {
        Entered {
            previous: AMBIENT.replace(self.context()),
            _this_thread: PhantomData,
        }
    }

    /// Ends the span, recording it.
    pub fn finish(mut self) {
        self.finish_in_place();
    }

    fn finish_in_place(&mut self) {
        if !self.live {
            return;
        }
        self.live = false;
        let record = SpanRecord {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            name: std::mem::take(&mut self.name),
            node: lock(&self.tracer.brand).label.clone(),
            start_us: self.start_us,
            end_us: self.tracer.clock.now_micros(),
        };
        self.tracer.record(record);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish_in_place();
    }
}

/// Guard of [`Span::enter`]; restores the previous ambient parent on
/// drop. Tied to the thread that entered (`!Send`).
#[derive(Debug)]
pub struct Entered {
    previous: Option<TraceContext>,
    _this_thread: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        AMBIENT.set(self.previous);
    }
}

// ---------------------------------------------------------------------
// trace store
// ---------------------------------------------------------------------

/// Default number of whole traces a [`TraceStore`] retains.
pub const DEFAULT_TRACE_STORE_CAPACITY: usize = 64;

#[derive(Debug)]
struct TraceStoreInner {
    capacity: usize,
    traces: BTreeMap<u64, Vec<SpanRecord>>,
    order: VecDeque<u64>,
    evicted: u64,
}

/// A bounded store of whole traces — the flight recorder.
///
/// Every finished span a wired [`Tracer`] produces is filed under its
/// trace id; once `capacity` distinct traces are held, the oldest
/// (first-seen) trace is dropped whole. Because the store is a
/// cloneable handle over shared state, several tracers — one per
/// simulated node — can feed the *same* store, which is what lets
/// `/trace/<id>` assemble one cross-node span tree for an operation
/// that hopped between replicas.
#[derive(Debug, Clone)]
pub struct TraceStore {
    inner: Arc<Mutex<TraceStoreInner>>,
}

impl TraceStore {
    /// A store retaining up to `capacity` distinct traces.
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore {
            inner: Arc::new(Mutex::new(TraceStoreInner {
                capacity: capacity.max(1),
                traces: BTreeMap::new(),
                order: VecDeque::new(),
                evicted: 0,
            })),
        }
    }

    /// Files one finished span under its trace.
    pub fn ingest(&self, record: SpanRecord) {
        let mut inner = lock(&self.inner);
        if let Some(spans) = inner.traces.get_mut(&record.trace_id) {
            spans.push(record);
            return;
        }
        if inner.order.len() == inner.capacity {
            if let Some(oldest) = inner.order.pop_front() {
                inner.traces.remove(&oldest);
                inner.evicted += 1;
            }
        }
        inner.order.push_back(record.trace_id);
        inner.traces.insert(record.trace_id, vec![record]);
    }

    /// The spans of one trace, in completion order. `None` when the
    /// trace is unknown (never seen, or already evicted).
    pub fn spans(&self, trace_id: u64) -> Option<Vec<SpanRecord>> {
        lock(&self.inner).traces.get(&trace_id).cloned()
    }

    /// Retained trace ids, oldest first.
    pub fn trace_ids(&self) -> Vec<u64> {
        lock(&self.inner).order.iter().copied().collect()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        lock(&self.inner).traces.len()
    }

    /// Whether no trace is retained.
    pub fn is_empty(&self) -> bool {
        lock(&self.inner).traces.is_empty()
    }

    /// How many whole traces have been evicted to stay within bounds.
    pub fn evicted(&self) -> u64 {
        lock(&self.inner).evicted
    }

    /// Whether a trace's spans form one well-nested tree: exactly one
    /// root, every other span's parent present, and every child
    /// causally ordered with no partial overlap (see
    /// [`spans_well_nested`] for the cross-node async rule).
    pub fn well_nested(&self, trace_id: u64) -> bool {
        self.spans(trace_id)
            .is_some_and(|spans| spans_well_nested(&spans))
    }

    /// Renders one trace as an indented span tree (the `/trace/<id>`
    /// body). Children sort by start time; each line shows the span
    /// name, duration and originating node.
    pub fn render(&self, trace_id: u64) -> Option<String> {
        use std::fmt::Write as _;
        let spans = self.spans(trace_id)?;
        let nodes: std::collections::BTreeSet<&str> =
            spans.iter().map(|s| s.node.as_str()).collect();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {:016x} ({} spans, {} nodes)",
            trace_id,
            spans.len(),
            nodes.len()
        );
        let present: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        let mut roots: Vec<&SpanRecord> = Vec::new();
        for span in &spans {
            match span.parent_id {
                Some(p) if present.contains(&p) => children.entry(p).or_default().push(span),
                _ => roots.push(span),
            }
        }
        for list in children.values_mut() {
            list.sort_by_key(|s| (s.start_us, s.span_id));
        }
        roots.sort_by_key(|s| (s.start_us, s.span_id));
        fn emit(
            out: &mut String,
            span: &SpanRecord,
            depth: usize,
            children: &BTreeMap<u64, Vec<&SpanRecord>>,
        ) {
            use std::fmt::Write as _;
            let node = if span.node.is_empty() {
                String::new()
            } else {
                format!(" @{}", span.node)
            };
            let _ = writeln!(
                out,
                "{}{} {}us{node}",
                "  ".repeat(depth + 1),
                span.name,
                span.duration_us()
            );
            for child in children.get(&span.span_id).into_iter().flatten() {
                emit(out, child, depth + 1, children);
            }
        }
        for root in roots {
            emit(&mut out, root, 0, &children);
        }
        Some(out)
    }

    /// A one-line-per-trace flight-recorder summary of the `max` most
    /// recent traces (newest last), for `/ops`.
    pub fn flight_summary(&self, max: usize) -> String {
        use std::fmt::Write as _;
        let inner = lock(&self.inner);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder ({} traces held, {} evicted):",
            inner.traces.len(),
            inner.evicted
        );
        let skip = inner.order.len().saturating_sub(max);
        for &trace_id in inner.order.iter().skip(skip) {
            let Some(spans) = inner.traces.get(&trace_id) else {
                continue;
            };
            let nodes: std::collections::BTreeSet<&str> =
                spans.iter().map(|s| s.node.as_str()).collect();
            let root = spans
                .iter()
                .find(|s| s.parent_id.is_none())
                .or(spans.first());
            let name = root.map_or("?", |s| s.name.as_str());
            let start = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
            let end = spans.iter().map(|s| s.end_us).max().unwrap_or(0);
            let _ = writeln!(
                out,
                "  trace {:016x} root={} spans={} nodes={} {}us",
                trace_id,
                name,
                spans.len(),
                nodes.len(),
                end.saturating_sub(start)
            );
        }
        out
    }
}

/// Whether a span set forms one well-nested tree: exactly one root
/// (`parent_id == None`), all other parents present in the set, and
/// every child causally ordered after its parent with no *partial*
/// overlap — a child that begins inside its parent's window must also
/// close inside it, while a child that begins after the parent closed
/// is an asynchronous follow-up (a redelivered shipment, a pushed
/// diff applied on a remote node) and is legal in a cross-node trace.
pub fn spans_well_nested(spans: &[SpanRecord]) -> bool {
    if spans.is_empty() {
        return false;
    }
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();
    if by_id.len() != spans.len() {
        return false; // duplicate span ids
    }
    let mut roots = 0usize;
    for span in spans {
        match span.parent_id {
            None => roots += 1,
            Some(p) => {
                let Some(parent) = by_id.get(&p) else {
                    return false;
                };
                // An effect cannot precede its cause.
                if span.start_us < parent.start_us {
                    return false;
                }
                // No partial overlap: in-window children close in
                // window; children starting past the parent's end are
                // async follow-ups.
                if span.start_us <= parent.end_us && span.end_us > parent.end_us {
                    return false;
                }
            }
        }
    }
    roots == 1
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_resilience::VirtualClock;

    #[test]
    fn spans_nest_and_share_the_trace_id() {
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::with_clock(clock.clone(), 16);
        let root = tracer.start("upload");
        clock.advance(2);
        let child = root.child("upload.annotate");
        clock.advance(3);
        let root_trace = root.trace_id();
        let root_span = root.span_id();
        child.finish();
        clock.advance(1);
        root.finish();

        let spans = tracer.recent_spans(10);
        assert_eq!(spans.len(), 2);
        let child_rec = &spans[0];
        let root_rec = &spans[1];
        assert_eq!(child_rec.name, "upload.annotate");
        assert_eq!(child_rec.trace_id, root_trace);
        assert_eq!(child_rec.parent_id, Some(root_span));
        assert_eq!(child_rec.start_us, 2_000);
        assert_eq!(child_rec.duration_us(), 3_000);
        assert_eq!(root_rec.parent_id, None);
        assert_eq!(root_rec.duration_us(), 6_000);
    }

    #[test]
    fn entered_spans_adopt_the_spans_started_below_them() {
        let tracer = Tracer::new(16);
        let root = tracer.start("web.request");
        {
            let _request = root.enter();
            let view = tracer.start("album.view");
            {
                let _view = view.enter();
                tracer.start("sparql").finish();
            }
            view.finish();
            // The inner guard restored the outer parent.
            tracer.start("mashup").finish();
        }
        let (trace, root_id) = (root.trace_id(), root.span_id());
        root.finish();
        // Nothing is entered any more: a fresh trace.
        tracer.start("upload").finish();

        let spans = tracer.recent_spans(16);
        let parent_of = |name: &str| {
            let span = spans.iter().find(|s| s.name == name).unwrap();
            (span.trace_id == trace, span.parent_id)
        };
        let view_id = spans
            .iter()
            .find(|s| s.name == "album.view")
            .unwrap()
            .span_id;
        assert_eq!(parent_of("album.view"), (true, Some(root_id)));
        assert_eq!(parent_of("sparql"), (true, Some(view_id)));
        assert_eq!(parent_of("mashup"), (true, Some(root_id)));
        assert_eq!(parent_of("upload"), (false, None));
        assert!(spans_well_nested(
            &spans
                .iter()
                .filter(|s| s.trace_id == trace)
                .cloned()
                .collect::<Vec<_>>()
        ));
        // Entering is per thread.
        let root = tracer.start("web.request");
        let _request = root.enter();
        let elsewhere = std::thread::scope(|scope| {
            scope
                .spawn(|| tracer.start("other").trace_id())
                .join()
                .unwrap()
        });
        assert_ne!(elsewhere, root.trace_id());
    }

    #[test]
    fn virtual_clock_traces_are_deterministic() {
        let run = || {
            let clock = Arc::new(VirtualClock::new());
            let tracer = Tracer::with_clock(clock.clone(), 16);
            for _ in 0..3 {
                let root = tracer.start("op");
                clock.advance(5);
                root.child("op.step").finish();
                clock.advance(5);
                root.finish();
            }
            tracer.recent_spans(16)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let tracer = Tracer::new(4);
        for i in 0..10 {
            tracer.start(&format!("op{i}")).finish();
        }
        let spans = tracer.recent_spans(100);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, "op6");
        assert_eq!(spans[3].name, "op9");
    }

    #[test]
    fn finished_spans_feed_metrics_histograms() {
        let clock = Arc::new(VirtualClock::new());
        let metrics = Metrics::new();
        let tracer = Tracer::with_clock(clock.clone(), 8).with_metrics(metrics.clone());
        let span = tracer.start("stage");
        clock.advance(7);
        span.finish();
        let histogram = metrics.histogram("stage").unwrap();
        assert_eq!(histogram.count(), 1);
        assert_eq!(histogram.sum(), 7_000);
    }

    #[test]
    fn traces_group_by_trace_id() {
        let tracer = Tracer::new(16);
        for i in 0..3 {
            let root = tracer.start(&format!("t{i}"));
            root.child(&format!("t{i}.a")).finish();
            root.finish();
        }
        let traces = tracer.recent_traces(2);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0][0].name, "t1.a");
        assert_eq!(traces[1][1].name, "t2");
    }

    #[test]
    fn dropping_a_span_records_it() {
        let tracer = Tracer::new(8);
        {
            let _span = tracer.start("dropped");
        }
        assert_eq!(tracer.recent_spans(8)[0].name, "dropped");
    }

    #[test]
    fn context_carries_across_tracers() {
        let clock = Arc::new(VirtualClock::new());
        let origin = Tracer::with_clock(clock.clone(), 16);
        let remote = Tracer::with_clock(clock.clone(), 16);
        origin.set_node(1, "node1");
        remote.set_node(2, "node2");
        let store = TraceStore::new(8);
        origin.set_trace_store(store.clone());
        remote.set_trace_store(store.clone());

        let commit = origin.start("commit");
        let ctx = commit.context().unwrap();
        assert_eq!(ctx.trace_id, commit.trace_id());
        assert_eq!(ctx.parent_span_id, commit.span_id());
        clock.advance(1);
        let apply = remote.start_with_context("replication.apply", Some(ctx));
        assert_eq!(apply.trace_id(), commit.trace_id());
        clock.advance(1);
        apply.finish();
        clock.advance(1);
        let trace_id = commit.trace_id();
        commit.finish();

        let spans = store.spans(trace_id).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].node, "node2");
        assert_eq!(spans[1].node, "node1");
        assert!(store.well_nested(trace_id));
    }

    #[test]
    fn node_salts_prevent_id_collisions() {
        let a = Tracer::new(8);
        let b = Tracer::new(8);
        a.set_node(1, "a");
        b.set_node(2, "b");
        let sa = a.start("x");
        let sb = b.start("x");
        assert_ne!(sa.trace_id(), sb.trace_id());
        assert_ne!(sa.span_id(), sb.span_id());
        assert_eq!(sa.trace_id() >> 48, 1);
        assert_eq!(sb.trace_id() >> 48, 2);
    }

    #[test]
    fn start_with_none_context_starts_a_fresh_trace() {
        let tracer = Tracer::new(8);
        let span = tracer.start_with_context("op", None);
        assert!(span.context().is_some());
        assert_ne!(span.trace_id(), 0);
    }

    #[test]
    fn trace_store_evicts_whole_traces_oldest_first() {
        let store = TraceStore::new(2);
        let tracer = Tracer::new(64);
        tracer.set_trace_store(store.clone());
        let mut ids = Vec::new();
        for i in 0..3 {
            let root = tracer.start(&format!("op{i}"));
            ids.push(root.trace_id());
            root.child("step").finish();
            root.finish();
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.evicted(), 1);
        assert!(store.spans(ids[0]).is_none(), "oldest trace evicted");
        assert_eq!(store.spans(ids[1]).unwrap().len(), 2);
        assert_eq!(store.trace_ids(), vec![ids[1], ids[2]]);
    }

    #[test]
    fn render_produces_an_indented_tree() {
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::with_clock(clock.clone(), 16);
        tracer.set_node(0, "node1");
        let store = TraceStore::new(8);
        tracer.set_trace_store(store.clone());
        let root = tracer.start("commit");
        clock.advance(1);
        let child = root.child("replication.ship");
        clock.advance(2);
        child.finish();
        clock.advance(1);
        let id = root.trace_id();
        root.finish();

        let text = store.render(id).unwrap();
        assert!(text.starts_with(&format!("trace {id:016x} (2 spans, 1 nodes)")));
        assert!(text.contains("  commit 4000us @node1\n"));
        assert!(text.contains("    replication.ship 2000us @node1\n"));
        assert!(store.render(id + 999).is_none());
    }

    #[test]
    fn well_nestedness_rejects_orphans_and_overflow() {
        let base = SpanRecord {
            trace_id: 1,
            span_id: 1,
            parent_id: None,
            name: "root".into(),
            node: String::new(),
            start_us: 0,
            end_us: 10,
        };
        let child_ok = SpanRecord {
            span_id: 2,
            parent_id: Some(1),
            start_us: 2,
            end_us: 8,
            ..base.clone()
        };
        assert!(spans_well_nested(&[base.clone(), child_ok.clone()]));
        // A child escaping its parent's window.
        let child_late = SpanRecord {
            end_us: 12,
            ..child_ok.clone()
        };
        assert!(!spans_well_nested(&[base.clone(), child_late]));
        // An orphan (parent absent).
        let orphan = SpanRecord {
            parent_id: Some(99),
            ..child_ok.clone()
        };
        assert!(!spans_well_nested(&[base.clone(), orphan]));
        // An asynchronous follow-up: starts after the parent closed
        // (a redelivered shipment applying remotely) — legal.
        let follow_up = SpanRecord {
            start_us: 11,
            end_us: 15,
            ..child_ok.clone()
        };
        assert!(spans_well_nested(&[base.clone(), follow_up]));
        // But an effect can never precede its cause.
        let premature = SpanRecord {
            start_us: 0,
            end_us: 5,
            ..child_ok.clone()
        };
        let shifted_base = SpanRecord {
            start_us: 1,
            ..base.clone()
        };
        assert!(!spans_well_nested(&[shifted_base, premature]));
        // Two roots.
        let second_root = SpanRecord {
            span_id: 3,
            ..base.clone()
        };
        assert!(!spans_well_nested(&[base, second_root]));
        assert!(!spans_well_nested(&[]));
    }

    #[test]
    fn flight_summary_lists_recent_traces() {
        let tracer = Tracer::new(16);
        let store = TraceStore::new(8);
        tracer.set_trace_store(store.clone());
        let root = tracer.start("upload");
        root.child("upload.record").finish();
        let id = root.trace_id();
        root.finish();
        let text = store.flight_summary(4);
        assert!(text.starts_with("flight recorder (1 traces held, 0 evicted):"));
        assert!(text.contains(&format!("trace {id:016x} root=upload spans=2")));
    }
}
