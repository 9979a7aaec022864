//! Annotation- and retrieval-quality metrics, plus the operational
//! snapshot of the resilience machinery.
//!
//! The paper reports no numbers ("Empirical tests proof that such
//! technique must be further improved as it still provides false
//! positives") — these metrics quantify exactly that claim against the
//! workload's ground truth, for experiments E3, E4 and E8.

use std::collections::HashSet;
use std::fmt;

use lodify_context::Gazetteer;
use lodify_durability::DurabilityStats;
use lodify_lod::cache::SemanticCacheStats;
use lodify_lod::datasets::{dbp, gnr};
use lodify_lod::reannotate::ReAnnotator;
use lodify_lod::SemanticBroker;
use lodify_rdf::Iri;
use lodify_relational::workload::{PictureTruth, TruthSubject};
use lodify_resilience::BreakerState;
use lodify_sparql::PlanCacheStats;

use crate::admission::AdmissionOps;
use crate::federation::Federation;
use crate::live::AlbumCacheStats;

/// Basic precision/recall counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrCounts {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
}

impl PrCounts {
    /// Precision; 1.0 when nothing was predicted.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall; 1.0 when nothing was expected.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Merges another count set in.
    pub fn merge(&mut self, other: PrCounts) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }
}

/// The expected (subject) resource IRIs for a picture — what the
/// annotation *should* find.
pub fn expected_resources(truth: &PictureTruth) -> Vec<Iri> {
    let gaz = Gazetteer::global();
    match &truth.subject {
        TruthSubject::Poi(key) => vec![dbp(key)],
        TruthSubject::Person(name) => vec![dbp(&name.replace(' ', "_"))],
        TruthSubject::City(key) => {
            let mut out = vec![dbp(key)];
            if let Some(city) = gaz.city(key) {
                out.push(gnr(city.geonames_id()));
            }
            out
        }
        TruthSubject::Generic => Vec::new(),
    }
}

/// Resources that are *acceptable* annotations without being the
/// subject: the capture city in both DBpedia and Geonames form (the
/// user's city tag legitimately annotates to it), and any Evri wrapper
/// entity (opaque external identifiers, scored as neutral).
pub fn acceptable_resources(truth: &PictureTruth) -> HashSet<String> {
    let gaz = Gazetteer::global();
    let mut ok: HashSet<String> = expected_resources(truth)
        .into_iter()
        .map(|i| i.into_string())
        .collect();
    if let Some(city) = gaz.city(&truth.city_key) {
        ok.insert(dbp(city.key).into_string());
        ok.insert(gnr(city.geonames_id()).into_string());
    }
    ok
}

/// Scores one picture's predicted annotation resources against truth.
///
/// * tp: an expected resource was predicted (counted once);
/// * fn: the picture had an expected subject but none was predicted;
/// * fp: a predicted resource outside the acceptable set (Evri
///   wrappers are ignored as neutral).
pub fn score_picture(truth: &PictureTruth, predicted: &[Iri]) -> PrCounts {
    let expected: HashSet<String> = expected_resources(truth)
        .into_iter()
        .map(|i| i.into_string())
        .collect();
    let acceptable = acceptable_resources(truth);

    let mut counts = PrCounts::default();
    let mut subject_found = false;
    for iri in predicted {
        let s = iri.as_str();
        if s.starts_with("http://www.evri.com/") {
            continue; // neutral
        }
        if expected.contains(s) {
            subject_found = true;
        } else if !acceptable.contains(s) {
            counts.fp += 1;
        }
    }
    if !expected.is_empty() {
        if subject_found {
            counts.tp += 1;
        } else {
            counts.fn_ += 1;
        }
    }
    counts
}

/// Scores a full run: `predictions(pid)` returns the predicted
/// resources for a picture.
pub fn score_run<'a>(
    truths: impl IntoIterator<Item = &'a PictureTruth>,
    mut predictions: impl FnMut(i64) -> Vec<Iri>,
) -> PrCounts {
    let mut total = PrCounts::default();
    for truth in truths {
        total.merge(score_picture(truth, &predictions(truth.pid)));
    }
    total
}

/// One resolver's operational state inside an [`OpsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolverOps {
    /// Resolver name (`dbpedia`, `geonames`, …).
    pub name: &'static str,
    /// Breaker state, if the broker runs with resilience.
    pub breaker: Option<BreakerState>,
    /// Calls actually issued (attempts, including retries).
    pub calls: u64,
    /// Retries beyond each first attempt.
    pub retries: u64,
    /// Failed attempts observed (each feeds the breaker).
    pub failures: u64,
    /// Calls skipped because the breaker was open.
    pub skipped: u64,
}

/// Replication-mesh counters inside an [`OpsSnapshot`]: how far behind
/// subscribed replicas are and what the emission dead-letter queue
/// holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationOps {
    /// Maximum link lag (origin head seq minus receiver cursor).
    pub lag: u64,
    /// Shipments parked awaiting redelivery.
    pub dlq_depth: usize,
    /// Shipments parked over the replicator's lifetime.
    pub parked: u64,
    /// Shipments delivered by redelivery passes.
    pub redelivered: u64,
    /// Emissions committed by local nodes.
    pub emissions: u64,
    /// Emissions applied at replicas.
    pub applied: u64,
}

/// Live standing-query maintenance counters inside an
/// [`OpsSnapshot`]: how much delta-join work the engine did instead of
/// album recomputes, plus the push leg's delivery state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveOps {
    /// Registered standing album queries.
    pub albums: usize,
    /// Delta triples routed through the engine.
    pub deltas: u64,
    /// Albums patched via pair re-evaluation.
    pub patched_albums: u64,
    /// Full album refreshes (anchor/friend-set changes, recovery).
    pub refreshes: u64,
    /// Non-empty album diffs emitted.
    pub diffs: u64,
    /// SparqlPuSH delivery counters.
    pub push: LivePushOps,
}

/// Push-delivery counters inside [`LiveOps`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LivePushOps {
    /// Active subscriptions.
    pub subscribers: usize,
    /// Frames applied at subscribers.
    pub delivered: u64,
    /// Deliveries parked in the dead-letter queue.
    pub parked: u64,
    /// Frames delivered by redelivery passes.
    pub redelivered: u64,
    /// Maximum outbox backlog over subscribers.
    pub lag: u64,
    /// Deliveries currently parked.
    pub dlq_depth: usize,
}

/// A point-in-time operational snapshot of the resilience machinery —
/// breaker states, retry counts and dead-letter depths across the
/// annotation and federation pipelines. This is the ops-facing
/// counterpart to the quality metrics above.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpsSnapshot {
    /// Per-resolver breaker + retry counters from the broker.
    pub resolvers: Vec<ResolverOps>,
    /// Degraded items parked for re-annotation.
    pub reannotate_depth: usize,
    /// Re-annotation items that hit the attempt cap.
    pub reannotate_exhausted: usize,
    /// Items parked over the queue's lifetime.
    pub reannotate_parked: u64,
    /// Items successfully re-annotated by replays.
    pub reannotate_replayed: u64,
    /// Federation notifications awaiting redelivery.
    pub federation_dlq_depth: usize,
    /// Notifications parked over the federation's lifetime.
    pub federation_parked: u64,
    /// Notifications delivered by redelivery passes.
    pub federation_redelivered: u64,
    /// Delivery retries beyond first attempts.
    pub federation_retries: u64,
    /// Emission-replication lag and dead-letter counters, when a
    /// replication mesh (or platform emission outbox) is running.
    pub replication: Option<ReplicationOps>,
    /// Persistence engine counters (WAL depth, snapshot age, replay
    /// stats), when the store is journal-backed.
    pub durability: Option<DurabilityStats>,
    /// Album-cache counters (hits, misses, maintained albums), when
    /// the platform serves cached views.
    pub album_cache: Option<AlbumCacheStats>,
    /// Semantic-resolution cache counters (hits, misses, epoch-driven
    /// invalidations, LRU evictions), when the broker memoizes
    /// per-term fan-outs.
    pub semantic_cache: Option<SemanticCacheStats>,
    /// Standing-query maintenance and SparqlPuSH delivery counters,
    /// when the platform runs live albums.
    pub live: Option<LiveOps>,
    /// Compiled-plan cache counters (hits, misses,
    /// drift-driven invalidations), when the platform plans queries.
    pub plan_cache: Option<PlanCacheStats>,
    /// Admission-control counters (admitted, shed, queue depth) plus
    /// the recoverable shedding verdict, when admission control is on.
    pub admission: Option<AdmissionOps>,
}

/// The optional inputs to [`OpsSnapshot::collect`]. Every field
/// defaults to absent because a deployment may run only part of the
/// pipeline: an ephemeral store has no journal, a headless ingest run
/// serves no album views, a cache-less broker memoizes nothing.
#[derive(Default)]
pub struct OpsSources<'a> {
    /// The re-annotation queue, when one is draining.
    pub requeue: Option<&'a ReAnnotator>,
    /// The federation, when the node participates in one.
    pub federation: Option<&'a Federation>,
    /// Replication counters, when a mesh (or emission outbox) runs.
    pub replication: Option<ReplicationOps>,
    /// Persistence counters, when the store is journal-backed.
    pub durability: Option<DurabilityStats>,
    /// Album-cache counters, when the platform serves cached views.
    pub album_cache: Option<AlbumCacheStats>,
    /// Semantic-cache counters, when the broker memoizes fan-outs.
    pub semantic_cache: Option<SemanticCacheStats>,
    /// Live-album counters, when standing queries are registered.
    pub live: Option<LiveOps>,
    /// Plan-cache counters, when the platform plans queries.
    pub plan_cache: Option<PlanCacheStats>,
    /// Admission counters, when admission control is enabled.
    pub admission: Option<AdmissionOps>,
}

impl OpsSnapshot {
    /// Collects the current state from the broker plus whichever
    /// optional [`OpsSources`] sections this deployment runs.
    pub fn collect(broker: &SemanticBroker, sources: OpsSources<'_>) -> OpsSnapshot {
        let OpsSources {
            requeue,
            federation,
            replication,
            durability,
            album_cache,
            semantic_cache,
            live,
            plan_cache,
            admission,
        } = sources;
        let mut snapshot = OpsSnapshot::default();
        let telemetry = broker.telemetry();
        for name in broker.resolver_names() {
            let counter = |kind: &str| {
                telemetry
                    .map(|t| t.counter(&format!("broker.{kind}.{name}")))
                    .unwrap_or(0)
            };
            snapshot.resolvers.push(ResolverOps {
                name,
                breaker: broker.breaker_state(name),
                calls: counter("calls"),
                retries: counter("retries"),
                failures: counter("failures"),
                skipped: counter("skipped"),
            });
        }
        if let Some(requeue) = requeue {
            snapshot.reannotate_depth = requeue.depth();
            snapshot.reannotate_exhausted = requeue.queue().exhausted().len();
            snapshot.reannotate_parked = requeue.telemetry().counter("reannotate.parked");
            snapshot.reannotate_replayed = requeue.telemetry().counter("reannotate.replayed");
        }
        if let Some(federation) = federation {
            snapshot.federation_dlq_depth = federation.undelivered();
            if let Some(t) = federation.delivery_telemetry() {
                snapshot.federation_parked = t.counter("federation.parked");
                snapshot.federation_redelivered = t.counter("federation.redelivered");
                snapshot.federation_retries = t.counter("federation.retries");
            }
        }
        snapshot.replication = replication;
        snapshot.durability = durability;
        snapshot.album_cache = album_cache;
        snapshot.semantic_cache = semantic_cache;
        snapshot.live = live;
        snapshot.plan_cache = plan_cache;
        snapshot.admission = admission;
        snapshot
    }

    /// Replication lag at or above which the platform counts as
    /// degraded: subscribed replicas are falling this many emissions
    /// behind their origins (a converged mesh sits at zero).
    pub const REPLICATION_LAG_THRESHOLD: u64 = 64;

    /// Push lag at or above which the platform counts as degraded:
    /// live-album subscribers are falling this many diff frames behind
    /// their outbox heads (a converged hub sits at zero).
    pub const LIVE_PUSH_LAG_THRESHOLD: u64 = 64;

    /// WAL backlog above which the platform counts as degraded: flushes
    /// are falling behind ingestion (a healthy engine drains to zero at
    /// every group-commit barrier).
    pub const WAL_BACKLOG_THRESHOLD: u64 = 512;

    /// Whether anything is degraded right now: a breaker not closed, a
    /// non-empty dead-letter queue, re-annotation items that exhausted
    /// their attempt cap (permanently degraded content), or a WAL
    /// backlog past [`OpsSnapshot::WAL_BACKLOG_THRESHOLD`] (durability
    /// barrier falling behind), or admission control actively shedding
    /// load (depth at the shed threshold or an overload shed within the
    /// recent window — recovers on its own once the storm drains).
    pub fn is_degraded(&self) -> bool {
        self.resolvers
            .iter()
            .any(|r| r.breaker.is_some_and(|b| b != BreakerState::Closed))
            || self.reannotate_depth > 0
            || self.reannotate_exhausted > 0
            || self.federation_dlq_depth > 0
            || self
                .replication
                .as_ref()
                .is_some_and(|r| r.dlq_depth > 0 || r.lag >= Self::REPLICATION_LAG_THRESHOLD)
            || self
                .durability
                .as_ref()
                .is_some_and(|d| d.wal_pending as u64 >= Self::WAL_BACKLOG_THRESHOLD)
            || self.live.as_ref().is_some_and(|l| {
                l.push.dlq_depth > 0 || l.push.lag >= Self::LIVE_PUSH_LAG_THRESHOLD
            })
            || self.admission.as_ref().is_some_and(|a| a.shedding)
    }
}

impl fmt::Display for OpsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "resilience ops snapshot")?;
        for r in &self.resolvers {
            let breaker = match r.breaker {
                Some(BreakerState::Closed) => "closed",
                Some(BreakerState::Open) => "OPEN",
                Some(BreakerState::HalfOpen) => "half-open",
                None => "-",
            };
            writeln!(
                f,
                "  resolver {:<10} breaker={:<9} calls={} retries={} failures={} skipped={}",
                r.name, breaker, r.calls, r.retries, r.failures, r.skipped
            )?;
        }
        writeln!(
            f,
            "  reannotate  depth={} exhausted={} parked={} replayed={}",
            self.reannotate_depth,
            self.reannotate_exhausted,
            self.reannotate_parked,
            self.reannotate_replayed
        )?;
        write!(
            f,
            "  federation  dlq={} parked={} redelivered={} retries={}",
            self.federation_dlq_depth,
            self.federation_parked,
            self.federation_redelivered,
            self.federation_retries
        )?;
        if let Some(r) = &self.replication {
            write!(
                f,
                "\n  replication lag={} dlq={} parked={} redelivered={} emissions={} applied={}",
                r.lag, r.dlq_depth, r.parked, r.redelivered, r.emissions, r.applied
            )?;
        }
        if let Some(d) = &self.durability {
            write!(
                f,
                "\n  durability  gen={} wal_records={} pending={} flushes={} snapshots={} replayed={}",
                d.generation,
                d.wal_records,
                d.wal_pending,
                d.flushes,
                d.snapshots_written,
                d.records_replayed
            )?;
        }
        if let Some(c) = &self.album_cache {
            write!(
                f,
                "\n  album cache hits={} misses={} entries={}",
                c.hits, c.misses, c.entries
            )?;
        }
        if let Some(c) = &self.semantic_cache {
            write!(
                f,
                "\n  semantic cache hits={} misses={} invalidations={} evictions={} entries={}",
                c.hits, c.misses, c.invalidations, c.evictions, c.entries
            )?;
        }
        if let Some(l) = &self.live {
            write!(
                f,
                "\n  live        albums={} deltas={} patched={} refreshes={} diffs={}\
                 \n  live push   subs={} delivered={} parked={} redelivered={} lag={} dlq={}",
                l.albums,
                l.deltas,
                l.patched_albums,
                l.refreshes,
                l.diffs,
                l.push.subscribers,
                l.push.delivered,
                l.push.parked,
                l.push.redelivered,
                l.push.lag,
                l.push.dlq_depth
            )?;
        }
        if let Some(p) = &self.plan_cache {
            write!(
                f,
                "\n  plan cache  hits={} misses={} invalidations={} entries={}",
                p.hits, p.misses, p.invalidations, p.entries
            )?;
        }
        if let Some(a) = &self.admission {
            write!(
                f,
                "\n  admission   admitted={} shed_quota={} shed_overload={} depth={} tenants={} shedding={}",
                a.admitted, a.shed_quota, a.shed_overload, a.queue_depth, a.tenants, a.shedding
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(subject: TruthSubject) -> PictureTruth {
        PictureTruth {
            pid: 1,
            lang: "en",
            subject,
            city_key: "Turin".into(),
            poi_ref: None,
            has_gps: true,
            title: String::new(),
            keywords: vec![],
        }
    }

    #[test]
    fn perfect_prediction_scores_tp() {
        let t = truth(TruthSubject::Poi("Mole_Antonelliana".into()));
        let counts = score_picture(&t, &[dbp("Mole_Antonelliana")]);
        assert_eq!(
            counts,
            PrCounts {
                tp: 1,
                fp: 0,
                fn_: 0
            }
        );
        assert_eq!(counts.precision(), 1.0);
        assert_eq!(counts.recall(), 1.0);
        assert_eq!(counts.f1(), 1.0);
    }

    #[test]
    fn wrong_entity_is_fp_and_fn() {
        let t = truth(TruthSubject::Poi("Mole_Antonelliana".into()));
        let counts = score_picture(&t, &[dbp("Mole_(animal)")]);
        assert_eq!(
            counts,
            PrCounts {
                tp: 0,
                fp: 1,
                fn_: 1
            }
        );
        assert_eq!(counts.precision(), 0.0);
        assert_eq!(counts.recall(), 0.0);
    }

    #[test]
    fn city_annotation_is_acceptable_not_fp() {
        let t = truth(TruthSubject::Poi("Mole_Antonelliana".into()));
        let gaz = Gazetteer::global();
        let turin_gn = gnr(gaz.city("Turin").unwrap().geonames_id());
        let counts = score_picture(&t, &[dbp("Mole_Antonelliana"), turin_gn]);
        assert_eq!(
            counts,
            PrCounts {
                tp: 1,
                fp: 0,
                fn_: 0
            }
        );
    }

    #[test]
    fn evri_wrappers_are_neutral() {
        let t = truth(TruthSubject::Generic);
        let evri = Iri::new("http://www.evri.com/entity/something").unwrap();
        let counts = score_picture(&t, &[evri]);
        assert_eq!(counts, PrCounts::default());
        assert_eq!(counts.precision(), 1.0);
    }

    #[test]
    fn missing_prediction_is_fn() {
        let t = truth(TruthSubject::City("Turin".into()));
        let counts = score_picture(&t, &[]);
        assert_eq!(
            counts,
            PrCounts {
                tp: 0,
                fp: 0,
                fn_: 1
            }
        );
        assert_eq!(counts.recall(), 0.0);
    }

    #[test]
    fn city_subject_accepts_geonames_or_dbpedia_form() {
        let gaz = Gazetteer::global();
        let t = truth(TruthSubject::City("Turin".into()));
        let via_gn = score_picture(&t, &[gnr(gaz.city("Turin").unwrap().geonames_id())]);
        let via_dbp = score_picture(&t, &[dbp("Turin")]);
        assert_eq!(via_gn.tp, 1);
        assert_eq!(via_dbp.tp, 1);
    }

    #[test]
    fn ops_snapshot_reports_breakers_and_dlq_depths() {
        use lodify_lod::broker::BrokerResilienceConfig;
        use lodify_lod::resolvers::{DbpediaResolver, FaultInjectedResolver, GeonamesResolver};
        use lodify_resilience::{FaultPlan, VirtualClock};

        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("resolver:dbpedia", 0, u64::MAX)
            .build(clock.clone());
        let broker = lodify_lod::SemanticBroker::new(vec![
            Box::new(FaultInjectedResolver::new(DbpediaResolver, plan)),
            Box::new(GeonamesResolver),
        ])
        .with_resilience(clock, BrokerResilienceConfig::default());

        // Healthy at rest.
        let snapshot = OpsSnapshot::collect(&broker, OpsSources::default());
        assert!(!snapshot.is_degraded());
        assert_eq!(snapshot.resolvers.len(), 2);

        // Trip the dbpedia breaker.
        let store = lodify_store::Store::new();
        for _ in 0..4 {
            broker.resolve(&store, &["torino".to_string()], "torino", Some("en"));
        }
        let snapshot = OpsSnapshot::collect(&broker, OpsSources::default());
        assert!(snapshot.is_degraded());
        let dbp_ops = snapshot
            .resolvers
            .iter()
            .find(|r| r.name == "dbpedia")
            .unwrap();
        assert_eq!(dbp_ops.breaker, Some(BreakerState::Open));
        assert!(dbp_ops.calls >= 3);
        assert!(dbp_ops.failures >= 1);
        let gn_ops = snapshot
            .resolvers
            .iter()
            .find(|r| r.name == "geonames")
            .unwrap();
        assert_eq!(gn_ops.breaker, Some(BreakerState::Closed));
        assert_eq!(gn_ops.failures, 0);
        let rendered = snapshot.to_string();
        assert!(rendered.contains("breaker=OPEN"));
        assert!(rendered.contains("federation  dlq=0"));
    }

    #[test]
    fn ops_snapshot_renders_album_cache_counters() {
        let broker = lodify_lod::SemanticBroker::standard();
        let stats = AlbumCacheStats {
            hits: 7,
            misses: 2,
            entries: 2,
        };
        let snapshot = OpsSnapshot::collect(
            &broker,
            OpsSources {
                album_cache: Some(stats),
                ..OpsSources::default()
            },
        );
        assert_eq!(snapshot.album_cache, Some(stats));
        let rendered = snapshot.to_string();
        assert!(
            rendered.contains("album cache hits=7 misses=2 entries=2"),
            "{rendered}"
        );
    }

    #[test]
    fn ops_snapshot_renders_live_counters_and_flags_push_lag() {
        let broker = lodify_lod::SemanticBroker::standard();
        let live = LiveOps {
            albums: 3,
            deltas: 40,
            patched_albums: 5,
            refreshes: 3,
            diffs: 4,
            push: LivePushOps {
                subscribers: 2,
                delivered: 4,
                parked: 0,
                redelivered: 0,
                lag: 0,
                dlq_depth: 0,
            },
        };
        let snapshot = OpsSnapshot::collect(
            &broker,
            OpsSources {
                live: Some(live),
                ..OpsSources::default()
            },
        );
        assert_eq!(snapshot.live, Some(live));
        assert!(!snapshot.is_degraded(), "converged push is healthy");
        let rendered = snapshot.to_string();
        assert!(
            rendered.contains("live        albums=3 deltas=40 patched=5 refreshes=3 diffs=4"),
            "{rendered}"
        );
        assert!(
            rendered.contains("live push   subs=2 delivered=4 parked=0 redelivered=0 lag=0 dlq=0"),
            "{rendered}"
        );

        // A parked push delivery or a lag past the threshold degrades.
        let mut lagging = snapshot.clone();
        lagging.live.as_mut().unwrap().push.dlq_depth = 1;
        assert!(lagging.is_degraded(), "parked push delivery degrades");
        let mut behind = snapshot;
        behind.live.as_mut().unwrap().push.lag = OpsSnapshot::LIVE_PUSH_LAG_THRESHOLD;
        assert!(behind.is_degraded(), "push lag at threshold degrades");
    }

    #[test]
    fn degradation_covers_exhausted_items_and_wal_backlog() {
        // Exhausted re-annotation items alone flag degradation, even
        // with an empty queue: that content is permanently under-
        // annotated until an operator intervenes.
        let mut snapshot = OpsSnapshot::default();
        assert!(!snapshot.is_degraded());
        snapshot.reannotate_exhausted = 1;
        assert!(snapshot.is_degraded());
        snapshot.reannotate_exhausted = 0;

        // A modest unflushed WAL is normal (group commit batches);
        // a backlog at the threshold means flushes are falling behind.
        let mut durability = DurabilityStats {
            wal_pending: OpsSnapshot::WAL_BACKLOG_THRESHOLD as usize - 1,
            ..DurabilityStats::default()
        };
        snapshot.durability = Some(durability.clone());
        assert!(!snapshot.is_degraded(), "below threshold is healthy");
        durability.wal_pending = OpsSnapshot::WAL_BACKLOG_THRESHOLD as usize;
        snapshot.durability = Some(durability);
        assert!(snapshot.is_degraded(), "backlog at threshold degrades");
    }

    #[test]
    fn score_run_merges() {
        let t1 = truth(TruthSubject::Poi("Colosseum".into()));
        let mut t2 = truth(TruthSubject::Generic);
        t2.pid = 2;
        let counts = score_run([&t1, &t2], |pid| match pid {
            1 => vec![dbp("Colosseum")],
            _ => Vec::new(),
        });
        assert_eq!(counts.tp, 1);
        assert_eq!(counts.fp, 0);
        assert_eq!(counts.fn_, 0);
    }
}
