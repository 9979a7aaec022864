//! Live albums: differential standing-query maintenance plus
//! SparqlPuSH diff push (§2.3 + §6).
//!
//! The paper's virtual albums are SPARQL queries "recomputed at each
//! visit". Here an album is instead *materialised once and maintained*:
//!
//! * [`engine::StandingQueryEngine`] registers [`AlbumSpec`] queries
//!   and turns each committed delta batch into [`engine::AlbumDiff`]s
//!   by delta-joining against retained per-resource support counts —
//!   O(delta) work, flat in the number of registered albums
//!   (`engine::tests::evaluations_per_delta_do_not_grow_with_registered_albums`).
//! * [`push::PushHub`] ships those diffs to subscribers with
//!   at-least-once delivery and idempotent apply — the SparqlPuSH leg
//!   the paper's §6 leaves as future work.
//! * [`LiveService`] glues both to the platform and is its album
//!   cache: the first view of a spec installs it in the engine, every
//!   later view reads the maintained links, and every commit patches
//!   them, so a view after a commit is a hit.

pub mod engine;
pub mod push;

pub use engine::{AlbumDiff, EngineStats, LiveAlbumId, Rank, StandingQueryEngine};
pub use push::{PushHub, SubscriberAlbum, SubscriberId};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use lodify_obs::{Metrics, Obs, TraceContext, Tracer};
use lodify_rdf::Triple;
use lodify_resilience::ReplayReport;
use lodify_store::Store;

use crate::albums::AlbumSpec;
use crate::error::PlatformError;
use crate::metrics::LiveOps;

/// Most albums views may keep registered at once. A view of another
/// spec past this is solved the same way and answered, not retained.
pub const VIEWED_ALBUMS_CAP: usize = 1024;

const POISONED: &str = "a thread panicked while it held the album engine";

/// Album-cache counters, surfaced through
/// [`OpsSnapshot`](crate::metrics::OpsSnapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlbumCacheStats {
    /// Views answered from an album the engine already maintained.
    pub hits: u64,
    /// Views that had to solve their album.
    pub misses: u64,
    /// Albums the engine maintains, pinned or installed by views.
    pub entries: usize,
}

/// Engine + hub, wired for the platform: registered standing queries
/// are maintained on every commit, views are served from them, and
/// resulting diffs are pushed to subscribers.
///
/// The engine sits behind an `RwLock` so that views, which hold the
/// platform immutably, can install albums. Commits hold the service
/// mutably and reach the engine without taking the lock.
pub struct LiveService {
    engine: RwLock<StandingQueryEngine>,
    hub: PushHub,
    hits: AtomicU64,
    misses: AtomicU64,
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
    /// near-no-op until the first view or [`Self::register`].
    pub fn new() -> LiveService {
        LiveService {
            engine: RwLock::new(StandingQueryEngine::new()),
            hub: PushHub::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
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

    /// The standing-query engine, read-locked.
    pub fn engine(&self) -> RwLockReadGuard<'_, StandingQueryEngine> {
        self.engine.read().expect(POISONED)
    }

    fn engine_write(&self) -> RwLockWriteGuard<'_, StandingQueryEngine> {
        self.engine.write().expect(POISONED)
    }

    pub(crate) fn engine_mut(&mut self) -> &mut StandingQueryEngine {
        self.engine.get_mut().expect(POISONED)
    }

    /// The push hub.
    pub fn hub(&self) -> &PushHub {
        &self.hub
    }

    /// Mutable access to the push hub (fault plans, chaos controls).
    pub fn hub_mut(&mut self) -> &mut PushHub {
        &mut self.hub
    }

    /// Registers a standing query, pinned so that [`Self::clear`]
    /// keeps it, and builds its state from `store`.
    pub fn register(&mut self, store: &Store, spec: &AlbumSpec) -> LiveAlbumId {
        self.engine_mut().register(store, spec)
    }

    /// Serves a virtual album view. A spec the engine maintains is a
    /// hit: its links are read under the read lock. Otherwise the
    /// album is solved from `store` with no lock held and installed
    /// under the write lock, unpinned, while fewer than
    /// [`VIEWED_ALBUMS_CAP`] unpinned albums are registered; past that
    /// the solve answers the view and is dropped. A view that lost a
    /// race to install the same spec leaves the winner's album in place.
    ///
    /// Rejects a spec whose radius is not in `(0, MAX_RADIUS_KM]` or
    /// whose language tag is malformed (see [`AlbumSpec::check`]).
    pub fn view(&self, store: &Store, spec: &AlbumSpec) -> Result<Vec<String>, PlatformError> {
        spec.check()?;
        let query = spec.to_sparql();
        let hit = {
            let engine = self.engine();
            engine.find(&query).map(|id| engine.links(id).to_vec())
        };
        let (links, hit) = match hit {
            Some(links) => (links, true),
            None => {
                let solved = StandingQueryEngine::solve(store, spec);
                let links = solved.links().to_vec();
                let mut engine = self.engine_write();
                if engine.unpinned() < VIEWED_ALBUMS_CAP {
                    engine.install(solved, false);
                }
                (links, false)
            }
        };
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(metrics) = &self.metrics {
            metrics.add("album.cache.hits", u64::from(hit));
            metrics.add("album.cache.misses", u64::from(!hit));
        }
        Ok(links)
    }

    /// Drops every album a view installed; albums pinned by
    /// [`Self::register`] stay, with their ids and subscribers.
    /// Counters are kept.
    pub fn clear(&self) {
        self.engine_write().drop_unpinned();
    }

    /// Album-cache counter snapshot.
    pub fn cache_stats(&self) -> AlbumCacheStats {
        AlbumCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.engine().len(),
        }
    }

    /// Subscribes `callback` to a registered album's diff stream and
    /// ships the seeding snapshot frame immediately, so a healthy
    /// subscriber starts converged rather than one pump behind.
    pub fn subscribe(&mut self, callback: &str, album: LiveAlbumId) -> SubscriberId {
        let engine = self.engine.get_mut().expect(POISONED);
        let id = self.hub.subscribe(callback, album, engine);
        self.hub.pump();
        id
    }

    /// Maintains every registered album across one committed delta
    /// batch: delta-join, then diff push. Returns the number of albums
    /// whose answer changed. `trace` is the causal context of the
    /// commit being maintained; the `live.patch` span and every
    /// produced diff stitch under it.
    pub fn on_commit(
        &mut self,
        store: &Store,
        additions: &[Triple],
        removals: &[Triple],
        trace: Option<TraceContext>,
    ) -> usize {
        let engine = self.engine.get_mut().expect(POISONED);
        if engine.is_empty() {
            return 0;
        }
        let span = self
            .tracer
            .as_ref()
            .map(|t| t.start_with_context("live.patch", trace));
        let ctx = span.as_ref().and_then(|s| s.context()).or(trace);
        let mut diffs = engine.apply(store, additions, removals);
        drop(span);
        if let Some(metrics) = &self.metrics {
            metrics.add("live.deltas", (additions.len() + removals.len()) as u64);
            metrics.add("live.diffs", diffs.len() as u64);
        }
        for diff in &mut diffs {
            diff.trace = ctx;
            self.hub.offer(diff);
        }
        if !diffs.is_empty() && !self.hub.is_empty() {
            self.hub.pump();
        }
        diffs.len()
    }

    /// Crash recovery: rebuilds the standing-query state from the
    /// (recovered) store.
    pub fn rebuild(&mut self, store: &Store) {
        self.engine_mut().rebuild(store);
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
        let engine = self.engine();
        let stats = engine.stats();
        LiveOps {
            albums: engine.len(),
            deltas: stats.deltas,
            patched_albums: stats.patched_albums,
            refreshes: stats.refreshes,
            diffs: stats.diffs,
            push: self.hub.ops(),
        }
    }
}
