//! Fingerprint-keyed plan cache with drift-based invalidation.
//!
//! Planning a query ([`plan_query`](crate::plan::plan_query)) costs a
//! group-tree walk plus a subset DP per BGP run — cheap, but paid on
//! every request once the platform serves the same album queries
//! thousands of times. The [`PlanCache`] memoizes the expensive prefix
//! of the pipeline, keyed by [`fingerprint`](crate::fingerprint):
//!
//! * **Full hit** — the cached entry was built from the *identical*
//!   query text: both the parsed [`Query`] and the [`Plan`] are
//!   returned, skipping parse *and* plan (the ledger's
//!   `sparql.cache.lookup_us` against `sparql.parse_us` +
//!   `sparql.plan_us`).
//! * **Plan hit** — same fingerprint, different literal values (e.g.
//!   the same album query for a different date window). The plan is
//!   reused — run keys are constant-insensitive, exactly like the
//!   fingerprint — but the text is reparsed for its literals.
//! * **Miss** — plan from scratch and [`PlanCache::insert`].
//!
//! Invalidation is **drift-based**: after every planned execution the
//! platform reports the worst per-operator estimated-vs-actual ratio
//! ([`EvalReport::plan_drift`](crate::eval::EvalReport::plan_drift));
//! once it exceeds the threshold the entry is dropped and the next
//! request replans against current statistics and calibration. The
//! store epoch rides along on the [`Plan`] so operators can see *when*
//! a cached plan was computed, and a bounded entry count keeps the
//! cache from growing with a hostile query stream (deterministic
//! first-key eviction over the ordered map).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::ast::Query;
use crate::plan::Plan;

/// Default maximum number of cached plans.
const DEFAULT_CAPACITY: usize = 256;

/// Default worst-operator drift ratio beyond which a cached plan is
/// invalidated (estimates off by more than this factor in either
/// direction).
const DEFAULT_DRIFT_THRESHOLD: f64 = 8.0;

/// What a cache lookup produced.
#[derive(Debug, Clone)]
pub enum PlanLookup {
    /// Identical query text seen before: parse and plan both skipped.
    Hit {
        /// The cached parsed query.
        query: Arc<Query>,
        /// The cached plan.
        plan: Arc<Plan>,
    },
    /// Same fingerprint, different text: the plan is reusable (run
    /// keys are constant-insensitive) but the caller must reparse for
    /// the new literal values.
    PlanOnly {
        /// The cached plan.
        plan: Arc<Plan>,
    },
    /// Nothing cached under this fingerprint.
    Miss,
}

/// Counter snapshot for `/ops`, `/metrics`, and the degradation
/// verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that returned a cached plan (full or plan-only).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped because execution drift crossed the threshold.
    pub invalidations: u64,
    /// Plans currently cached.
    pub entries: usize,
}

impl PlanCacheStats {
    /// Hit rate over lookups (hits + misses), 0.0 when
    /// nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    text: String,
    query: Arc<Query>,
    plan: Arc<Plan>,
}

struct Inner {
    entries: BTreeMap<String, Entry>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

/// A cloneable, thread-safe cache of compiled query plans keyed by
/// [`fingerprint`](crate::fingerprint). Clones share state.
#[derive(Clone)]
pub struct PlanCache {
    inner: Arc<Mutex<Inner>>,
    capacity: usize,
    drift_threshold: f64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

impl PlanCache {
    /// A cache with the default capacity (256 plans) and drift
    /// threshold (8×).
    pub fn new() -> PlanCache {
        PlanCache::with_limits(DEFAULT_CAPACITY, DEFAULT_DRIFT_THRESHOLD)
    }

    /// A cache with explicit capacity and drift-invalidation threshold.
    pub fn with_limits(capacity: usize, drift_threshold: f64) -> PlanCache {
        PlanCache {
            inner: Arc::new(Mutex::new(Inner {
                entries: BTreeMap::new(),
                hits: 0,
                misses: 0,
                invalidations: 0,
            })),
            capacity: capacity.max(1),
            drift_threshold,
        }
    }

    /// The drift ratio past which [`PlanCache::note_drift`]
    /// invalidates.
    pub fn drift_threshold(&self) -> f64 {
        self.drift_threshold
    }

    /// Looks up a plan for `fingerprint`. `text` is the raw query: a
    /// textual match upgrades the hit to include the parsed query.
    pub fn lookup(&self, fingerprint: &str, text: &str) -> PlanLookup {
        let mut inner = lock(&self.inner);
        match inner.entries.get(fingerprint) {
            Some(entry) => {
                let result = if entry.text == text {
                    PlanLookup::Hit {
                        query: Arc::clone(&entry.query),
                        plan: Arc::clone(&entry.plan),
                    }
                } else {
                    PlanLookup::PlanOnly {
                        plan: Arc::clone(&entry.plan),
                    }
                };
                inner.hits += 1;
                result
            }
            None => {
                inner.misses += 1;
                PlanLookup::Miss
            }
        }
    }

    /// Caches a freshly compiled plan. Evicts the first key in
    /// fingerprint order when over capacity (deterministic, documented
    /// as such — the workload this serves is a small set of hot album
    /// queries, not an LRU-worthy stream).
    pub fn insert(&self, fingerprint: &str, text: &str, query: Arc<Query>, plan: Arc<Plan>) {
        let mut inner = lock(&self.inner);
        inner.entries.insert(
            fingerprint.to_string(),
            Entry {
                text: text.to_string(),
                query,
                plan,
            },
        );
        while inner.entries.len() > self.capacity {
            let first = inner
                .entries
                .keys()
                .next()
                .expect("non-empty over capacity")
                .clone();
            inner.entries.remove(&first);
        }
    }

    /// Reports the worst estimated-vs-actual ratio of a planned
    /// execution. Crossing the threshold drops the entry so the next
    /// request replans against current statistics; returns whether the
    /// entry was invalidated.
    ///
    /// Callers should only report drift once the store epoch has moved
    /// past the plan's [`Plan::epoch`](crate::Plan::epoch) — same-epoch
    /// drift is cost-model error a replan would reproduce, and feeding
    /// it here makes the cache thrash (insert, invalidate, repeat).
    pub fn note_drift(&self, fingerprint: &str, drift: f64) -> bool {
        if drift < self.drift_threshold {
            return false;
        }
        let mut inner = lock(&self.inner);
        if inner.entries.remove(fingerprint).is_some() {
            inner.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Current counters and entry count.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = lock(&self.inner);
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            invalidations: inner.invalidations,
            entries: inner.entries.len(),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_query;
    use lodify_store::Store;

    fn compiled(text: &str) -> (String, Arc<Query>, Arc<Plan>) {
        let store = Store::new();
        let query = crate::parse(text).unwrap();
        let plan = plan_query(&store, &query, None);
        (crate::fingerprint(text), Arc::new(query), Arc::new(plan))
    }

    #[test]
    fn identical_text_hits_with_parsed_query() {
        let cache = PlanCache::new();
        let text = "SELECT ?s WHERE { ?s <http://ex/p> \"v\" . }";
        let (fp, query, plan) = compiled(text);
        assert!(matches!(cache.lookup(&fp, text), PlanLookup::Miss));
        cache.insert(&fp, text, query, plan);
        assert!(matches!(cache.lookup(&fp, text), PlanLookup::Hit { .. }));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn same_fingerprint_different_literal_reuses_plan_only() {
        let cache = PlanCache::new();
        let a = "SELECT ?s WHERE { ?s <http://ex/p> \"alpha\" . }";
        let b = "SELECT ?s WHERE { ?s <http://ex/p> \"beta\" . }";
        let (fp_a, query, plan) = compiled(a);
        assert_eq!(fp_a, crate::fingerprint(b), "fingerprints must agree");
        cache.insert(&fp_a, a, query, plan);
        assert!(matches!(
            cache.lookup(&fp_a, b),
            PlanLookup::PlanOnly { .. }
        ));
    }

    #[test]
    fn drift_past_threshold_invalidates() {
        let cache = PlanCache::with_limits(8, 4.0);
        let text = "SELECT ?s WHERE { ?s <http://ex/p> ?o . }";
        let (fp, query, plan) = compiled(text);
        cache.insert(&fp, text, query, plan);
        assert!(!cache.note_drift(&fp, 3.9));
        assert!(matches!(cache.lookup(&fp, text), PlanLookup::Hit { .. }));
        assert!(cache.note_drift(&fp, 4.0));
        assert!(matches!(cache.lookup(&fp, text), PlanLookup::Miss));
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn capacity_is_enforced_deterministically() {
        let cache = PlanCache::with_limits(2, 8.0);
        for (i, text) in [
            "SELECT ?s WHERE { ?s <http://ex/a> ?o . }",
            "SELECT ?s WHERE { ?s <http://ex/b> ?o . }",
            "SELECT ?s WHERE { ?s <http://ex/c> ?o . }",
        ]
        .iter()
        .enumerate()
        {
            let (fp, query, plan) = compiled(text);
            cache.insert(&fp, text, query, plan);
            assert!(cache.stats().entries <= 2, "insert {i} overflowed");
        }
        assert_eq!(cache.stats().entries, 2);
    }
}
