//! Sharded memoization of semantic-broker resolutions.
//!
//! Slimani's semantic-annotation survey observes that term-level
//! annotation results are highly reusable across documents, and the
//! platform's uploads are exactly that workload: the same city names,
//! POIs and friends recur across most pictures. [`SemanticCache`]
//! memoizes the per-term resolver fan-out of
//! [`crate::broker::SemanticBroker::resolve`] — the candidate set
//! gathered for one `(lowercased term, lang)` pair — so repeated terms
//! skip every resolver call.
//!
//! Staleness is governed by the store's epoch: every entry remembers
//! the [`lodify_store::Store`] mutation epoch it was resolved against, and a lookup only hits when
//! that epoch still matches. Any store mutation — a fresh LOD snapshot
//! load, an upload's semanticization, a recorded annotation — bumps the
//! epoch and implicitly invalidates every cached candidate set, so the
//! broker can never serve candidates computed against data that has
//! since changed. Because WAL recovery replays inserts, epochs (and
//! with them cache validity semantics) survive a reboot.
//!
//! The cache is sharded: keys hash to one of a fixed set of
//! mutex-guarded shards, so concurrent prepare-stage workers contend
//! only when they resolve terms landing in the same shard. Each shard
//! is a small LRU — admission beyond capacity evicts the least
//! recently used entry of that shard.
//!
//! # Example
//!
//! ```
//! use lodify_lod::cache::SemanticCache;
//!
//! let cache = SemanticCache::new();
//! assert!(cache.lookup("torino", Some("it"), 7).is_none()); // cold
//! cache.admit("torino".into(), Some("it"), 7, Vec::new());
//! assert!(cache.lookup("torino", Some("it"), 7).is_some()); // warm
//! // A store mutation bumped the epoch: the entry is stale.
//! assert!(cache.lookup("torino", Some("it"), 8).is_none());
//! let stats = cache.stats();
//! assert_eq!((stats.hits, stats.misses, stats.invalidations), (1, 2, 1));
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::resolvers::Candidate;

/// Default total entry capacity of [`SemanticCache::new`], spread
/// across the shards. Generous for the paper's vocabulary (cities,
/// POIs, folksonomy tags) while bounding memory on adversarial input.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Number of independently locked shards. A power of two, so the shard
/// index is a cheap mask of the key hash.
const SHARDS: usize = 16;

/// One memoized resolution: the candidate set plus the store epoch it
/// was computed against and an LRU tick.
struct Entry {
    candidates: Vec<Candidate>,
    epoch: u64,
    last_used: u64,
}

/// One mutex-guarded shard: a keyed entry map plus its LRU clock.
#[derive(Default)]
struct Shard {
    entries: HashMap<(String, Option<String>), Entry>,
    tick: u64,
}

/// Counter snapshot of a [`SemanticCache`] (all monotonic except
/// `entries`, the current population).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SemanticCacheStats {
    /// Lookups answered from a fresh entry.
    pub hits: u64,
    /// Lookups that found nothing usable (cold or stale).
    pub misses: u64,
    /// Entries dropped because their epoch no longer matched.
    pub invalidations: u64,
    /// Entries dropped by LRU pressure on admission.
    pub evictions: u64,
    /// Entries currently cached across all shards.
    pub entries: usize,
}

impl SemanticCacheStats {
    /// Hit ratio over all lookups so far (0.0 when none happened).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sharded LRU memoizing broker candidate sets per
/// `(lowercased term, lang)`, invalidated by store-epoch mismatch.
///
/// All methods take `&self`; shards are internally locked, so one
/// cache instance can serve many concurrent prepare-stage workers.
pub struct SemanticCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

impl Default for SemanticCache {
    fn default() -> Self {
        SemanticCache::new()
    }
}

impl SemanticCache {
    /// A cache with the default capacity ([`DEFAULT_CAPACITY`]).
    pub fn new() -> SemanticCache {
        SemanticCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache bounding the total entry count to `capacity` (rounded
    /// up to at least one entry per shard).
    pub fn with_capacity(capacity: usize) -> SemanticCache {
        SemanticCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, term_lower: &str, lang: Option<&str>) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        term_lower.hash(&mut hasher);
        lang.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) & (SHARDS - 1)]
    }

    /// Returns the memoized candidate set for the term iff it was
    /// resolved against exactly `epoch`. A stale entry is removed
    /// (counted as an invalidation) and the lookup is a miss.
    pub fn lookup(
        &self,
        term_lower: &str,
        lang: Option<&str>,
        epoch: u64,
    ) -> Option<Vec<Candidate>> {
        let mut shard = lock(self.shard(term_lower, lang));
        shard.tick += 1;
        let tick = shard.tick;
        let key = (term_lower.to_string(), lang.map(str::to_string));
        if let Some(entry) = shard.entries.get_mut(&key) {
            if entry.epoch == epoch {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(entry.candidates.clone());
            }
            shard.entries.remove(&key);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Admits a candidate set resolved against `epoch`, evicting the
    /// shard's least recently used entry when the shard is full. The
    /// broker only admits *complete* resolutions — terms whose fan-out
    /// saw a resolver failure or an open breaker are never cached, so a
    /// degraded answer cannot outlive the outage that produced it.
    pub fn admit(
        &self,
        term_lower: String,
        lang: Option<&str>,
        epoch: u64,
        candidates: Vec<Candidate>,
    ) {
        let mut shard = lock(self.shard(&term_lower, lang));
        shard.tick += 1;
        let tick = shard.tick;
        let key = (term_lower, lang.map(str::to_string));
        if shard.entries.len() >= self.capacity_per_shard && !shard.entries.contains_key(&key) {
            if let Some(victim) = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.entries.insert(
            key,
            Entry {
                candidates,
                epoch,
                last_used: tick,
            },
        );
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            lock(shard).entries.clear();
        }
    }

    /// Counter snapshot plus current population.
    pub fn stats(&self) -> SemanticCacheStats {
        SemanticCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| lock(s).entries.len()).sum(),
        }
    }
}

impl std::fmt::Debug for SemanticCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SemanticCache")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

/// Poison-tolerant lock (a panicking worker must not wedge the cache).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolvers::SourceGraph;
    use lodify_rdf::Iri;

    fn candidate(label: &str) -> Candidate {
        Candidate {
            resource: Iri::new(format!("http://dbpedia.org/resource/{label}")).unwrap(),
            label: label.to_string(),
            graph: SourceGraph::DBpedia,
            score: 1.0,
            types: Vec::new(),
            resolver: "dbpedia",
        }
    }

    #[test]
    fn warm_lookup_returns_the_admitted_candidates() {
        let cache = SemanticCache::new();
        assert!(cache.lookup("torino", Some("it"), 3).is_none());
        cache.admit("torino".into(), Some("it"), 3, vec![candidate("Turin")]);
        let hit = cache.lookup("torino", Some("it"), 3).unwrap();
        assert_eq!(hit, vec![candidate("Turin")]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn language_is_part_of_the_key() {
        let cache = SemanticCache::new();
        cache.admit("torino".into(), Some("it"), 0, vec![candidate("Turin")]);
        assert!(cache.lookup("torino", Some("en"), 0).is_none());
        assert!(cache.lookup("torino", None, 0).is_none());
        assert!(cache.lookup("torino", Some("it"), 0).is_some());
    }

    #[test]
    fn epoch_bump_invalidates_and_recovers() {
        let cache = SemanticCache::new();
        cache.admit("torino".into(), Some("it"), 5, vec![candidate("Turin")]);
        // The store mutated: the entry must not be served.
        assert!(cache.lookup("torino", Some("it"), 6).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.stats().entries, 0);
        // Re-resolution at the new epoch re-warms the slot.
        cache.admit("torino".into(), Some("it"), 6, vec![candidate("Turin")]);
        assert!(cache.lookup("torino", Some("it"), 6).is_some());
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        // One entry per shard: any second admission to a shard evicts.
        let cache = SemanticCache::with_capacity(SHARDS);
        let mut colliding: Vec<String> = Vec::new();
        // Find three keys landing in the same shard.
        let target = {
            let mut hasher = DefaultHasher::new();
            "k0".hash(&mut hasher);
            Option::<&str>::None.hash(&mut hasher);
            (hasher.finish() as usize) & (SHARDS - 1)
        };
        for i in 0.. {
            let key = format!("k{i}");
            let mut hasher = DefaultHasher::new();
            key.hash(&mut hasher);
            Option::<&str>::None.hash(&mut hasher);
            if (hasher.finish() as usize) & (SHARDS - 1) == target {
                colliding.push(key);
                if colliding.len() == 3 {
                    break;
                }
            }
        }
        cache.admit(colliding[0].clone(), None, 0, Vec::new());
        cache.admit(colliding[1].clone(), None, 0, Vec::new());
        assert_eq!(cache.stats().evictions, 1, "first key evicted");
        assert!(cache.lookup(&colliding[0], None, 0).is_none());
        assert!(cache.lookup(&colliding[1], None, 0).is_some());
        // Touch [1], admit [2]: LRU victim would still be [1]'s slot
        // only if untouched — the recently used entry must survive.
        cache.admit(colliding[2].clone(), None, 0, Vec::new());
        assert!(cache.lookup(&colliding[2], None, 0).is_some());
    }

    #[test]
    fn clear_empties_without_resetting_counters() {
        let cache = SemanticCache::new();
        cache.admit("a".into(), None, 0, Vec::new());
        cache.lookup("a", None, 0);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1);
    }
}
