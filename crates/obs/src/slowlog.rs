//! Slow-query log keyed by normalized query fingerprints.
//!
//! Queries slower than a configurable threshold are aggregated under a
//! *fingerprint* (the caller normalizes literals away, so `?name =
//! "alice"` and `?name = "bob"` share an entry). Each entry keeps the
//! hit count, total and worst latency, one sample query text for the
//! operator to reproduce with, and — when the caller supplies one —
//! the per-operator breakdown of the worst execution (estimated vs.
//! actual cardinality per pattern/filter/sort).
//!
//! The log is bounded: at most [`DEFAULT_SLOW_LOG_CAPACITY`] distinct
//! fingerprints are retained (configurable via
//! [`SlowQueryLog::with_capacity`]). When a new fingerprint arrives at
//! capacity, the least-recently-seen entry is evicted and a shared
//! eviction counter ticks — `/ops` surfaces it, so a pathological
//! workload generating unbounded distinct query shapes degrades to a
//! visible rolling window instead of unbounded memory growth.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Aggregated statistics for one query fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryEntry {
    /// How many executions crossed the threshold.
    pub count: u64,
    /// Sum of slow execution latencies (µs).
    pub total_us: u64,
    /// Worst execution latency seen (µs).
    pub max_us: u64,
    /// One representative raw query text.
    pub sample: String,
    /// Per-operator breakdown lines of the worst execution (empty when
    /// the caller never supplied one).
    pub breakdown: Vec<String>,
    /// Plan-cache outcome of the worst execution (`hit` / `miss`),
    /// when the caller supplied one — lets `/ops` tell
    /// slow-because-replanned apart from slow-because-bad-plan.
    pub plan_cache: Option<String>,
    /// Id of the plan the worst execution ran, when it ran planned.
    pub plan_id: Option<u64>,
}

impl SlowQueryEntry {
    /// Mean slow-execution latency in µs.
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }
}

#[derive(Debug)]
struct Slot {
    entry: SlowQueryEntry,
    last_seen: u64,
}

/// A cloneable, threshold-gated, bounded slow-query log.
#[derive(Debug, Clone)]
pub struct SlowQueryLog {
    threshold_us: Arc<AtomicU64>,
    entries: Arc<Mutex<BTreeMap<String, Slot>>>,
    ticks: Arc<AtomicU64>,
    evictions: Arc<AtomicU64>,
    capacity: usize,
}

/// Default slow threshold: 50 ms.
pub const DEFAULT_SLOW_THRESHOLD_US: u64 = 50_000;

/// Default cap on distinct retained fingerprints.
pub const DEFAULT_SLOW_LOG_CAPACITY: usize = 128;

impl Default for SlowQueryLog {
    fn default() -> Self {
        SlowQueryLog::new(DEFAULT_SLOW_THRESHOLD_US)
    }
}

impl SlowQueryLog {
    /// A log recording executions at or above `threshold_us`, bounded
    /// at [`DEFAULT_SLOW_LOG_CAPACITY`] fingerprints.
    pub fn new(threshold_us: u64) -> SlowQueryLog {
        SlowQueryLog::with_capacity(threshold_us, DEFAULT_SLOW_LOG_CAPACITY)
    }

    /// A log with an explicit fingerprint capacity (≥ 1).
    pub fn with_capacity(threshold_us: u64, capacity: usize) -> SlowQueryLog {
        SlowQueryLog {
            threshold_us: Arc::new(AtomicU64::new(threshold_us)),
            entries: Arc::new(Mutex::new(BTreeMap::new())),
            ticks: Arc::new(AtomicU64::new(0)),
            evictions: Arc::new(AtomicU64::new(0)),
            capacity: capacity.max(1),
        }
    }

    /// The current threshold in µs.
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us.load(Ordering::Relaxed)
    }

    /// Changes the threshold (shared across clones).
    pub fn set_threshold_us(&self, threshold_us: u64) {
        self.threshold_us.store(threshold_us, Ordering::Relaxed);
    }

    /// The fingerprint capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many entries have been evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Records an execution; a no-op below the threshold. Returns
    /// `true` when the query was logged as slow.
    pub fn record(&self, fingerprint: &str, query: &str, elapsed_us: u64) -> bool {
        self.record_with_breakdown(fingerprint, query, elapsed_us, &[])
    }

    /// Records an execution together with its per-operator breakdown;
    /// the breakdown of the worst execution per fingerprint is kept.
    pub fn record_with_breakdown(
        &self,
        fingerprint: &str,
        query: &str,
        elapsed_us: u64,
        breakdown: &[String],
    ) -> bool {
        self.record_annotated(fingerprint, query, elapsed_us, breakdown, None, None)
    }

    /// Records an execution with its breakdown plus the plan-cache
    /// outcome (`hit` / `miss`) and plan id; like the
    /// breakdown, the annotation of the worst execution is kept.
    pub fn record_annotated(
        &self,
        fingerprint: &str,
        query: &str,
        elapsed_us: u64,
        breakdown: &[String],
        plan_cache: Option<&str>,
        plan_id: Option<u64>,
    ) -> bool {
        if elapsed_us < self.threshold_us() {
            return false;
        }
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        let mut entries = lock(&self.entries);
        match entries.get_mut(fingerprint) {
            Some(slot) => {
                slot.last_seen = tick;
                slot.entry.count += 1;
                slot.entry.total_us = slot.entry.total_us.saturating_add(elapsed_us);
                if elapsed_us >= slot.entry.max_us {
                    slot.entry.max_us = elapsed_us;
                    if !breakdown.is_empty() {
                        slot.entry.breakdown = breakdown.to_vec();
                    }
                    if plan_cache.is_some() {
                        slot.entry.plan_cache = plan_cache.map(str::to_string);
                        slot.entry.plan_id = plan_id;
                    }
                }
            }
            None => {
                if entries.len() >= self.capacity {
                    let oldest = entries
                        .iter()
                        .min_by_key(|(_, slot)| slot.last_seen)
                        .map(|(k, _)| k.clone());
                    if let Some(key) = oldest {
                        entries.remove(&key);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                entries.insert(
                    fingerprint.to_string(),
                    Slot {
                        entry: SlowQueryEntry {
                            count: 1,
                            total_us: elapsed_us,
                            max_us: elapsed_us,
                            sample: query.to_string(),
                            breakdown: breakdown.to_vec(),
                            plan_cache: plan_cache.map(str::to_string),
                            plan_id,
                        },
                        last_seen: tick,
                    },
                );
            }
        }
        true
    }

    /// All entries, worst-first (by max latency).
    pub fn entries(&self) -> Vec<(String, SlowQueryEntry)> {
        let mut out: Vec<(String, SlowQueryEntry)> = lock(&self.entries)
            .iter()
            .map(|(k, v)| (k.clone(), v.entry.clone()))
            .collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.1.max_us));
        out
    }

    /// Number of distinct slow fingerprints.
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Whether no slow query has been recorded.
    pub fn is_empty(&self) -> bool {
        lock(&self.entries).is_empty()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_threshold_is_ignored() {
        let log = SlowQueryLog::new(1_000);
        assert!(!log.record("fp", "SELECT ...", 999));
        assert!(log.is_empty());
        assert!(log.record("fp", "SELECT ...", 1_000));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn same_fingerprint_aggregates() {
        let log = SlowQueryLog::new(100);
        log.record("fp", "SELECT 'a'", 200);
        log.record("fp", "SELECT 'b'", 600);
        let entries = log.entries();
        assert_eq!(entries.len(), 1);
        let entry = &entries[0].1;
        assert_eq!(entry.count, 2);
        assert_eq!(entry.total_us, 800);
        assert_eq!(entry.max_us, 600);
        assert_eq!(entry.mean_us(), 400);
        assert_eq!(entry.sample, "SELECT 'a'", "first sample kept");
    }

    #[test]
    fn entries_sort_worst_first() {
        let log = SlowQueryLog::new(1);
        log.record("fast", "q1", 10);
        log.record("slow", "q2", 1_000);
        let entries = log.entries();
        assert_eq!(entries[0].0, "slow");
        assert_eq!(entries[1].0, "fast");
    }

    #[test]
    fn threshold_is_shared_and_adjustable() {
        let log = SlowQueryLog::default();
        assert_eq!(log.threshold_us(), DEFAULT_SLOW_THRESHOLD_US);
        let clone = log.clone();
        clone.set_threshold_us(5);
        assert_eq!(log.threshold_us(), 5);
        log.record("fp", "q", 6);
        assert_eq!(clone.len(), 1);
    }

    #[test]
    fn capacity_evicts_least_recently_seen() {
        let log = SlowQueryLog::with_capacity(1, 2);
        log.record("a", "qa", 10);
        log.record("b", "qb", 10);
        log.record("a", "qa", 10); // refresh a: b is now the oldest
        log.record("c", "qc", 10);
        assert_eq!(log.len(), 2);
        assert_eq!(log.evictions(), 1);
        let names: Vec<String> = log.entries().into_iter().map(|(k, _)| k).collect();
        assert!(names.contains(&"a".to_string()));
        assert!(names.contains(&"c".to_string()));
        assert!(!names.contains(&"b".to_string()), "LRU-seen entry evicted");
    }

    #[test]
    fn worst_execution_keeps_its_breakdown() {
        let log = SlowQueryLog::new(1);
        let fast = vec!["pattern ?s ?p ?o est=5 actual=3".to_string()];
        let slow = vec!["pattern ?s ?p ?o est=5 actual=900".to_string()];
        log.record_with_breakdown("fp", "q", 100, &fast);
        log.record_with_breakdown("fp", "q", 900, &slow);
        log.record_with_breakdown("fp", "q", 50, &fast);
        let entry = &log.entries()[0].1;
        assert_eq!(entry.max_us, 900);
        assert_eq!(entry.breakdown, slow, "breakdown follows the worst run");
    }

    #[test]
    fn worst_execution_keeps_its_plan_annotation() {
        let log = SlowQueryLog::new(1);
        log.record_annotated("fp", "q", 100, &[], Some("miss"), Some(7));
        log.record_annotated("fp", "q", 900, &[], Some("hit"), Some(9));
        log.record_annotated("fp", "q", 50, &[], Some("miss"), Some(7));
        let entry = &log.entries()[0].1;
        assert_eq!(entry.plan_cache.as_deref(), Some("hit"));
        assert_eq!(entry.plan_id, Some(9));
        // Plain record keeps the existing annotation.
        log.record("fp", "q", 950);
        let entry = &log.entries()[0].1;
        assert_eq!(entry.plan_cache.as_deref(), Some("hit"));
    }
}
