//! Live albums: differential standing-query maintenance plus
//! SparqlPuSH diff push (§2.3 + §6).
//!
//! ROADMAP item 4 calls the [`crate::albums::AlbumCache`]
//! alone a recompute storm: any upload touching a relevant predicate
//! invalidates whole materialized albums and re-runs their SPARQL —
//! O(albums) work per commit. This module replaces invalidation with
//! **maintenance**:
//!
//! * [`engine::StandingQueryEngine`] registers [`AlbumSpec`] queries
//!   and turns each committed delta batch into [`engine::AlbumDiff`]s
//!   by delta-joining against retained per-resource support counts —
//!   O(delta) work, flat in the number of registered albums
//!   (`engine::tests::evaluations_per_delta_do_not_grow_with_registered_albums`).
//! * [`push::PushHub`] ships those diffs to subscribers with
//!   at-least-once delivery and idempotent apply — the SparqlPuSH leg
//!   the paper's §6 leaves as future work.
//! * [`LiveService`] glues both to the platform: it patches the
//!   album cache in place (so views after a commit are *hits*), feeds
//!   the hub, and exposes `/ops` counters.

pub mod engine;
pub mod push;

pub use engine::{AlbumDiff, EngineStats, LiveAlbumId, Rank, StandingQueryEngine};
pub use push::{PushHub, SubscriberAlbum, SubscriberId};

use lodify_obs::{Metrics, Obs, TraceContext, Tracer};
use lodify_rdf::Triple;
use lodify_resilience::ReplayReport;
use lodify_store::Store;

use crate::albums::{AlbumCache, AlbumSpec};
use crate::metrics::LiveOps;

/// Engine + hub, wired for the platform: registered standing queries
/// are maintained on every commit, their cache entries patched in
/// place, and resulting diffs pushed to subscribers.
pub struct LiveService {
    engine: StandingQueryEngine,
    hub: PushHub,
    metrics: Option<Metrics>,
    tracer: Option<Tracer>,
}

impl Default for LiveService {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveService {
    /// A service with no registered albums; [`Self::on_commit`] is a
    /// near-no-op until the first [`Self::register`].
    pub fn new() -> LiveService {
        LiveService {
            engine: StandingQueryEngine::new(),
            hub: PushHub::new(),
            metrics: None,
            tracer: None,
        }
    }

    /// Attaches observability: `live.patch` / `live.push` spans plus
    /// mirrored counters.
    pub fn set_observability(&mut self, obs: &Obs) {
        self.metrics = Some(obs.metrics().clone());
        self.tracer = Some(obs.tracer().clone());
        self.hub.set_observability(obs);
    }

    /// The standing-query engine.
    pub fn engine(&self) -> &StandingQueryEngine {
        &self.engine
    }

    /// The push hub.
    pub fn hub(&self) -> &PushHub {
        &self.hub
    }

    /// Mutable access to the push hub (fault plans, chaos controls).
    pub fn hub_mut(&mut self) -> &mut PushHub {
        &mut self.hub
    }

    /// Registers a standing query, builds its state from `store` and
    /// seeds the album cache so the first view is already a hit.
    pub fn register(
        &mut self,
        store: &Store,
        spec: &AlbumSpec,
        cache: Option<&AlbumCache>,
    ) -> LiveAlbumId {
        let id = self.engine.register(store, spec);
        if let Some(cache) = cache {
            cache.patch(store, spec, self.engine.links(id).to_vec());
        }
        id
    }

    /// Subscribes `callback` to a registered album's diff stream and
    /// ships the seeding snapshot frame immediately, so a healthy
    /// subscriber starts converged rather than one pump behind.
    pub fn subscribe(&mut self, callback: &str, album: LiveAlbumId) -> SubscriberId {
        let id = self.hub.subscribe(callback, album, &self.engine);
        self.hub.pump();
        id
    }

    /// Maintains every registered album across one committed delta
    /// batch: delta-join, cache patch, diff push. Returns the number
    /// of albums whose answer changed. `trace` is the causal context
    /// of the commit being maintained; the `live.patch` span and every
    /// produced diff stitch under it.
    pub fn on_commit(
        &mut self,
        store: &Store,
        cache: Option<&AlbumCache>,
        additions: &[Triple],
        removals: &[Triple],
        trace: Option<TraceContext>,
    ) -> usize {
        if self.engine.is_empty() {
            return 0;
        }
        let span = self
            .tracer
            .as_ref()
            .map(|t| t.start_with_context("live.patch", trace));
        let ctx = span.as_ref().and_then(|s| s.context()).or(trace);
        let mut diffs = self.engine.apply(store, additions, removals);
        drop(span);
        if let Some(metrics) = &self.metrics {
            metrics.add("live.deltas", (additions.len() + removals.len()) as u64);
            metrics.add("live.diffs", diffs.len() as u64);
        }
        for diff in &mut diffs {
            diff.trace = ctx;
            if let Some(cache) = cache {
                cache.patch(
                    store,
                    self.engine.spec(diff.album),
                    self.engine.links(diff.album).to_vec(),
                );
            }
            self.hub.offer(diff);
        }
        if !diffs.is_empty() && !self.hub.is_empty() {
            self.hub.pump();
        }
        diffs.len()
    }

    /// Crash recovery: rebuilds the standing-query state from the
    /// (recovered) store and re-seeds the cache entries.
    pub fn rebuild(&mut self, store: &Store, cache: Option<&AlbumCache>) {
        self.engine.rebuild(store);
        if let Some(cache) = cache {
            for id in 0..self.engine.len() {
                cache.patch(store, self.engine.spec(id), self.engine.links(id).to_vec());
            }
        }
    }

    /// Ships pending diff backlogs (e.g. after a partition heals).
    pub fn pump(&mut self) {
        self.hub.pump();
    }

    /// Replays the push dead-letter queue.
    pub fn redeliver(&mut self) -> ReplayReport {
        self.hub.redeliver()
    }

    /// Live maintenance + push counters for `/ops`.
    pub fn ops(&self) -> LiveOps {
        let stats = self.engine.stats();
        LiveOps {
            albums: self.engine.len(),
            deltas: stats.deltas,
            patched_albums: stats.patched_albums,
            refreshes: stats.refreshes,
            diffs: stats.diffs,
            push: self.hub.ops(),
        }
    }
}
