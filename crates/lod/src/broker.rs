//! The semantic brokering component.
//!
//! "The next step involves a semantic brokering component. This
//! component is assisted by a set of resolvers … For term-based
//! analysis, each word of the previously-computed list is individually
//! processed to identify a list of candidate LOD resources … we also
//! rely on full-text based resolvers such as Evri and Zemanta to
//! derive additional candidates." (§2.2.2)

use std::sync::{Arc, Mutex};

use lodify_obs::Metrics;
use lodify_resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, DetRng, RetryPolicy, Telemetry, VirtualClock,
};
use lodify_store::Store;

use crate::cache::SemanticCache;
use crate::resolvers::{
    Candidate, DbpediaResolver, EvriResolver, GeonamesResolver, Resolver, ResolverError,
    SindiceResolver, ZemantaResolver,
};

/// Candidates gathered for one term.
#[derive(Debug, Clone)]
pub struct TermCandidates {
    /// The (multi)word as extracted by text analysis.
    pub term: String,
    /// All candidates from every resolver (deduplication happens in
    /// the semantic filter).
    pub candidates: Vec<Candidate>,
}

/// Broker output for one content item.
#[derive(Debug, Clone)]
pub struct BrokerOutput {
    /// Per-term candidate lists, in term order.
    pub terms: Vec<TermCandidates>,
    /// Resolver failures encountered (the broker never fails whole).
    pub failures: Vec<ResolverError>,
    /// Resolvers that contributed nothing to this item: their breaker
    /// was open, or every retried call failed. Items annotated with a
    /// non-empty list are *degraded* and eligible for re-annotation.
    pub unavailable: Vec<&'static str>,
    /// Full-text candidates whose label matched no extracted term.
    /// They still carry no annotation, but the count is surfaced
    /// instead of silently dropping them.
    pub fulltext_unattached: usize,
}

/// Retry/breaker tuning for a resilient broker.
#[derive(Debug, Clone, Default)]
pub struct BrokerResilienceConfig {
    /// Retry policy applied to each resolver call.
    pub retry: RetryPolicy,
    /// Breaker tuning applied per resolver.
    pub breaker: BreakerConfig,
    /// Seed for the retry-jitter RNG.
    pub seed: u64,
}

/// Per-resolver breakers + retry machinery, over virtual time.
///
/// `resolve` takes `&self`, so the mutable pieces (breakers, the
/// jitter RNG) live behind mutexes; the broker is still `Send + Sync`.
struct Resilience {
    clock: VirtualClock,
    retry: RetryPolicy,
    breakers: Vec<Mutex<CircuitBreaker>>,
    rng: Mutex<DetRng>,
    telemetry: Telemetry,
}

/// Fans terms out to a resolver set and collects candidates.
pub struct SemanticBroker {
    resolvers: Vec<Box<dyn Resolver>>,
    resilience: Option<Resilience>,
    observability: Option<Metrics>,
    /// Precomputed `broker.call.<name>` histogram keys, one per
    /// resolver — the call hot path must not allocate per timing.
    call_metric_names: Vec<String>,
    /// Optional memoization of per-term fan-outs (off by default so
    /// resolver-call telemetry stays exact for tests that count calls).
    cache: Option<Arc<SemanticCache>>,
}

impl SemanticBroker {
    /// The paper's resolver set: DBpedia, Geonames, Sindice (term),
    /// Evri, Zemanta (full-text).
    pub fn standard() -> SemanticBroker {
        SemanticBroker::new(vec![
            Box::new(DbpediaResolver),
            Box::new(GeonamesResolver),
            Box::new(SindiceResolver),
            Box::new(EvriResolver),
            Box::new(ZemantaResolver),
        ])
    }

    /// A broker over a custom resolver set (ablations, fault injection).
    pub fn new(resolvers: Vec<Box<dyn Resolver>>) -> SemanticBroker {
        let call_metric_names = resolvers
            .iter()
            .map(|r| format!("broker.call.{}", r.name()))
            .collect();
        SemanticBroker {
            resolvers,
            resilience: None,
            observability: None,
            call_metric_names,
            cache: None,
        }
    }

    /// Installs a semantic-resolution cache: per-term fan-outs are
    /// memoized by `(lowercased term, lang)` and served back as long
    /// as the store epoch they were resolved against is unchanged.
    /// Degraded resolutions (any failure or open breaker during the
    /// term's fan-out) are never admitted.
    pub fn set_cache(&mut self, cache: Arc<SemanticCache>) {
        self.cache = Some(cache);
    }

    /// Builder form of [`SemanticBroker::set_cache`].
    pub fn with_cache(mut self, cache: Arc<SemanticCache>) -> SemanticBroker {
        self.set_cache(cache);
        self
    }

    /// The installed semantic-resolution cache, if any.
    pub fn cache(&self) -> Option<&Arc<SemanticCache>> {
        self.cache.as_ref()
    }

    /// Attaches a metrics registry: every guarded resolver call (with
    /// or without resilience) is timed into a `broker.call.<name>`
    /// histogram.
    pub fn set_observability(&mut self, metrics: Metrics) {
        self.observability = Some(metrics);
    }

    /// Builder form of [`SemanticBroker::set_observability`].
    pub fn with_observability(mut self, metrics: Metrics) -> SemanticBroker {
        self.set_observability(metrics);
        self
    }

    /// Adds retry + per-resolver circuit breakers over `clock`. A
    /// resolver whose breaker is open is skipped for every remaining
    /// term instead of being re-polled (and re-timed-out) per term.
    pub fn with_resilience(
        mut self,
        clock: VirtualClock,
        config: BrokerResilienceConfig,
    ) -> SemanticBroker {
        let breakers = self
            .resolvers
            .iter()
            .map(|_| Mutex::new(CircuitBreaker::new(config.breaker.clone())))
            .collect();
        self.resilience = Some(Resilience {
            clock,
            retry: config.retry,
            breakers,
            rng: Mutex::new(DetRng::seed_from_u64(config.seed).fork("broker-retry")),
            telemetry: Telemetry::new(),
        });
        self
    }

    /// Resolver names, in order.
    pub fn resolver_names(&self) -> Vec<&'static str> {
        self.resolvers.iter().map(|r| r.name()).collect()
    }

    /// Breaker state for a resolver (`None` without resilience or for
    /// unknown names).
    pub fn breaker_state(&self, resolver: &str) -> Option<BreakerState> {
        let resilience = self.resilience.as_ref()?;
        let idx = self.resolvers.iter().position(|r| r.name() == resolver)?;
        Some(lock(&resilience.breakers[idx]).state())
    }

    /// Telemetry written by the resilient call path (`None` without
    /// resilience): `broker.calls.*`, `broker.retries.*`,
    /// `broker.failures.*`, `broker.skipped.*` counters and
    /// `breaker.<name>.state` / `breaker.<name>.opened` gauges.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.resilience.as_ref().map(|r| &r.telemetry)
    }

    /// The virtual clock driving breaker cooldowns (`None` without
    /// resilience).
    pub fn clock(&self) -> Option<&VirtualClock> {
        self.resilience.as_ref().map(|r| &r.clock)
    }

    /// Mirrors a cache hit/miss into the metrics registry, when one is
    /// attached (the cache keeps its own exact counters regardless).
    fn count_cache(&self, name: &str) {
        if let Some(metrics) = &self.observability {
            metrics.incr(name);
        }
    }

    /// One guarded resolver call, timed into `broker.call.<name>` when
    /// a metrics registry is attached.
    fn call(
        &self,
        idx: usize,
        failures: &mut Vec<ResolverError>,
        unavailable: &mut Vec<&'static str>,
        op: impl FnMut() -> Result<Vec<Candidate>, ResolverError>,
    ) -> Vec<Candidate> {
        let timed = self
            .observability
            .as_ref()
            .map(|metrics| (metrics, metrics.now_micros()));
        let hits = self.call_guarded(idx, failures, unavailable, op);
        if let Some((metrics, started)) = timed {
            metrics.observe(
                &self.call_metric_names[idx],
                metrics.now_micros().saturating_sub(started),
            );
        }
        hits
    }

    /// The guard itself: breaker check, retries with virtual backoff,
    /// telemetry. Without resilience this is a single bare call,
    /// preserving the original broker behaviour.
    fn call_guarded(
        &self,
        idx: usize,
        failures: &mut Vec<ResolverError>,
        unavailable: &mut Vec<&'static str>,
        mut op: impl FnMut() -> Result<Vec<Candidate>, ResolverError>,
    ) -> Vec<Candidate> {
        let name = self.resolvers[idx].name();
        let Some(res) = &self.resilience else {
            return match op() {
                Ok(hits) => hits,
                Err(e) => {
                    failures.push(e);
                    Vec::new()
                }
            };
        };

        let mut breaker = lock(&res.breakers[idx]);
        if !breaker.allow(res.clock.now_ms()) {
            res.telemetry.incr(&format!("broker.skipped.{name}"));
            if !unavailable.contains(&name) {
                unavailable.push(name);
            }
            return Vec::new();
        }

        let mut rng = lock(&res.rng);
        let result = res.retry.run(&res.clock, &mut rng, |attempt| {
            res.telemetry.incr(&format!("broker.calls.{name}"));
            if attempt > 1 {
                res.telemetry.incr(&format!("broker.retries.{name}"));
            }
            if !breaker.allow(res.clock.now_ms()) {
                // Tripped open mid-retry (or by a concurrent item):
                // stop hammering the dependency.
                return Err(ResolverError {
                    resolver: name,
                    message: "circuit open".into(),
                });
            }
            match op() {
                Ok(hits) => {
                    breaker.on_success(res.clock.now_ms());
                    Ok(hits)
                }
                Err(e) => {
                    res.telemetry.incr(&format!("broker.failures.{name}"));
                    breaker.on_failure(res.clock.now_ms());
                    Err(e)
                }
            }
        });
        res.telemetry.set_gauge(
            &format!("breaker.{name}.state"),
            breaker_gauge(breaker.state()),
        );
        res.telemetry
            .set_gauge(&format!("breaker.{name}.opened"), breaker.times_opened());
        match result {
            Ok(outcome) => outcome.value,
            Err(err) => {
                if !unavailable.contains(&name) {
                    unavailable.push(name);
                }
                failures.push(err.error);
                Vec::new()
            }
        }
    }

    /// Resolves each term individually, then runs full-text resolution
    /// over the whole title and attaches those extra candidates to the
    /// term whose text matches the candidate's label (context-assisted
    /// NER, §2.2.2).
    pub fn resolve(
        &self,
        store: &Store,
        terms: &[String],
        title: &str,
        lang: Option<&str>,
    ) -> BrokerOutput {
        let mut failures = Vec::new();
        let mut unavailable = Vec::new();
        // Lowercase every term once up front; the fulltext attach loop
        // below compares against these instead of re-lowercasing the
        // term for every candidate.
        let lowered: Vec<String> = terms.iter().map(|t| t.to_lowercase()).collect();
        // The cache key includes the store mutation epoch the fan-out
        // ran against: any store change between resolutions makes every
        // older entry stale, so candidates never outlive the data they
        // were derived from.
        let epoch = store.epoch();
        let mut out: Vec<TermCandidates> = Vec::with_capacity(terms.len());
        for (term, term_lower) in terms.iter().zip(&lowered) {
            if let Some(cache) = &self.cache {
                if let Some(candidates) = cache.lookup(term_lower, lang, epoch) {
                    self.count_cache("semantic.cache.hits");
                    out.push(TermCandidates {
                        term: term.clone(),
                        candidates,
                    });
                    continue;
                }
                self.count_cache("semantic.cache.misses");
            }
            let failures_before = failures.len();
            let mut candidates = Vec::new();
            for idx in 0..self.resolvers.len() {
                let mut hits = self.call(idx, &mut failures, &mut unavailable, || {
                    self.resolvers[idx].resolve_term(store, term, lang)
                });
                candidates.append(&mut hits);
            }
            if let Some(cache) = &self.cache {
                // Only complete fan-outs are admitted: a term resolved
                // while a resolver was failing or skipped would pin its
                // degraded candidate set past the outage.
                if failures.len() == failures_before && unavailable.is_empty() {
                    cache.admit(term_lower.clone(), lang, epoch, candidates.clone());
                }
            }
            out.push(TermCandidates {
                term: term.clone(),
                candidates,
            });
        }

        let mut fulltext_unattached = 0;
        if !title.is_empty() {
            for idx in 0..self.resolvers.len() {
                let hits = self.call(idx, &mut failures, &mut unavailable, || {
                    self.resolvers[idx].resolve_fulltext(store, title, lang)
                });
                for candidate in hits {
                    let label_lower = candidate.label.to_lowercase();
                    match lowered.iter().position(|t| *t == label_lower) {
                        Some(pos) => {
                            if !out[pos].candidates.contains(&candidate) {
                                out[pos].candidates.push(candidate);
                            }
                        }
                        None => fulltext_unattached += 1,
                    }
                }
            }
        }
        BrokerOutput {
            terms: out,
            failures,
            unavailable,
            fulltext_unattached,
        }
    }
}

/// Poison-tolerant lock (a panicking caller must not wedge the broker).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Breaker state as a gauge value: 0 closed, 1 half-open, 2 open.
fn breaker_gauge(state: BreakerState) -> u64 {
    match state {
        BreakerState::Closed => 0,
        BreakerState::HalfOpen => 1,
        BreakerState::Open => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::load_lod;
    use crate::resolvers::{FaultInjectedResolver, FlakyResolver};
    use lodify_context::gazetteer::Gazetteer;
    use lodify_resilience::FaultPlan;

    fn store() -> Store {
        let mut s = Store::new();
        load_lod(&mut s, Gazetteer::global());
        s
    }

    #[test]
    fn standard_broker_gathers_candidates_per_term() {
        let s = store();
        let broker = SemanticBroker::standard();
        let output = broker.resolve(
            &s,
            &["Mole Antonelliana".into(), "torino".into()],
            "Tramonto alla Mole Antonelliana",
            Some("it"),
        );
        assert!(output.failures.is_empty());
        assert_eq!(output.terms.len(), 2);
        assert!(
            !output.terms[0].candidates.is_empty(),
            "monument candidates"
        );
        assert!(!output.terms[1].candidates.is_empty(), "city candidates");
        // City term collects both Geonames and DBpedia candidates.
        let graphs: std::collections::HashSet<_> =
            output.terms[1].candidates.iter().map(|c| c.graph).collect();
        assert!(graphs.contains(&crate::resolvers::SourceGraph::Geonames));
        assert!(graphs.contains(&crate::resolvers::SourceGraph::DBpedia));
    }

    #[test]
    fn fulltext_candidates_attach_to_matching_terms() {
        let s = store();
        let broker = SemanticBroker::standard();
        let output = broker.resolve(
            &s,
            &["Mole Antonelliana".into()],
            "Tramonto alla Mole Antonelliana",
            Some("it"),
        );
        assert!(
            output.terms[0]
                .candidates
                .iter()
                .any(|c| c.resolver == "evri"),
            "evri fulltext candidate attached"
        );
    }

    #[test]
    fn broker_survives_resolver_outages() {
        let s = store();
        let broker = SemanticBroker::new(vec![
            Box::new(FlakyResolver::new(DbpediaResolver, 1)), // always fails
            Box::new(GeonamesResolver),
        ]);
        let output = broker.resolve(&s, &["Torino".into()], "", Some("it"));
        assert_eq!(output.failures.len(), 1);
        assert!(
            !output.terms[0].candidates.is_empty(),
            "geonames still answered"
        );
    }

    #[test]
    fn empty_terms_produce_empty_output() {
        let s = store();
        let broker = SemanticBroker::standard();
        let output = broker.resolve(&s, &[], "", None);
        assert!(output.terms.is_empty());
        assert!(output.failures.is_empty());
        assert!(output.unavailable.is_empty());
        assert_eq!(output.fulltext_unattached, 0);
    }

    #[test]
    fn unattached_fulltext_candidates_are_counted() {
        let s = store();
        let broker = SemanticBroker::standard();
        // Title mentions the monument but the term list doesn't, so the
        // fulltext candidates have nowhere to attach.
        let output = broker.resolve(
            &s,
            &["tramonto".into()],
            "Tramonto alla Mole Antonelliana",
            Some("it"),
        );
        assert!(
            output.fulltext_unattached > 0,
            "dropped candidates surfaced"
        );
    }

    #[test]
    fn breaker_opens_and_stops_polling_a_dead_resolver() {
        let s = store();
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("resolver:dbpedia", 0, u64::MAX)
            .build(clock.clone());
        let broker = SemanticBroker::new(vec![
            Box::new(FaultInjectedResolver::new(DbpediaResolver, plan)),
            Box::new(GeonamesResolver),
        ])
        .with_resilience(
            clock,
            BrokerResilienceConfig {
                retry: RetryPolicy {
                    jitter: 0.0,
                    ..RetryPolicy::default()
                },
                ..BrokerResilienceConfig::default()
            },
        );
        let terms: Vec<String> = (0..10).map(|i| format!("term{i}")).collect();
        let output = broker.resolve(&s, &terms, "", Some("it"));

        assert_eq!(broker.breaker_state("dbpedia"), Some(BreakerState::Open));
        assert!(output.unavailable.contains(&"dbpedia"));
        assert_eq!(broker.breaker_state("geonames"), Some(BreakerState::Closed));
        // Default policy: 3 attempts/call, breaker trips after 3
        // consecutive failures → exactly one retried call reaches the
        // dead resolver; the other 9 terms are skipped by the breaker.
        let telemetry = broker.telemetry().unwrap();
        assert_eq!(telemetry.counter("broker.calls.dbpedia"), 3);
        assert_eq!(telemetry.counter("broker.skipped.dbpedia"), 9);
        assert_eq!(telemetry.gauge("breaker.dbpedia.state"), Some(2));
        assert_eq!(telemetry.gauge("breaker.dbpedia.opened"), Some(1));
        // Dead resolver never starves the healthy one.
        assert!(output.terms.iter().all(|tc| tc.term.starts_with("term")));
    }

    #[test]
    fn retry_recovers_from_transient_failures() {
        let s = store();
        let clock = VirtualClock::new();
        // Fails every 2nd call: each term's first attempt may fail but
        // a retry lands.
        let broker = SemanticBroker::new(vec![Box::new(FlakyResolver::new(GeonamesResolver, 2))])
            .with_resilience(clock, BrokerResilienceConfig::default());
        let output = broker.resolve(&s, &["Torino".into(), "Paris".into()], "", None);
        assert!(output.failures.is_empty(), "retries absorbed the flakiness");
        assert!(output.unavailable.is_empty());
        assert!(!output.terms[0].candidates.is_empty());
        assert!(
            broker
                .telemetry()
                .unwrap()
                .counter("broker.retries.geonames")
                >= 1
        );
    }

    #[test]
    fn cached_resolution_matches_cold_and_skips_resolver_calls() {
        let s = store();
        let cache = Arc::new(SemanticCache::new());
        let clock = VirtualClock::new();
        let broker =
            SemanticBroker::new(vec![Box::new(DbpediaResolver), Box::new(GeonamesResolver)])
                .with_resilience(clock, BrokerResilienceConfig::default())
                .with_cache(cache.clone());
        let terms: Vec<String> = vec!["Mole Antonelliana".into(), "torino".into()];
        let cold = broker.resolve(&s, &terms, "", Some("it"));
        let telemetry = broker.telemetry().unwrap();
        let calls_cold =
            telemetry.counter("broker.calls.dbpedia") + telemetry.counter("broker.calls.geonames");
        let warm = broker.resolve(&s, &terms, "", Some("it"));
        let calls_warm =
            telemetry.counter("broker.calls.dbpedia") + telemetry.counter("broker.calls.geonames");
        assert_eq!(
            calls_cold, calls_warm,
            "warm resolve made no resolver calls"
        );
        for (c, w) in cold.terms.iter().zip(&warm.terms) {
            assert_eq!(c.term, w.term);
            assert_eq!(c.candidates, w.candidates, "warm candidates equal cold");
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
    }

    #[test]
    fn store_mutation_invalidates_cached_resolutions() {
        use lodify_rdf::{ns, Term, Triple};
        let mut s = store();
        let cache = Arc::new(SemanticCache::new());
        let broker = SemanticBroker::standard().with_cache(cache.clone());
        broker.resolve(&s, &["torino".into()], "", Some("it"));
        assert_eq!(cache.stats().entries, 1);
        // Any store mutation bumps the epoch; the next resolve must
        // re-run the fan-out instead of serving the stale entry.
        s.insert_default(&Triple::spo(
            "http://t/new",
            ns::iri::rdf_type().as_str(),
            Term::Iri(ns::iri::microblog_post()),
        ));
        broker.resolve(&s, &["torino".into()], "", Some("it"));
        let stats = cache.stats();
        assert_eq!(stats.hits, 0, "stale entry never served");
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 1, "re-admitted at the new epoch");
    }

    #[test]
    fn outage_resolutions_are_never_cached_and_recovery_warms() {
        let s = store();
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("resolver:geonames", 0, 5_000)
            .build(clock.clone());
        let cache = Arc::new(SemanticCache::new());
        let broker = SemanticBroker::new(vec![Box::new(FaultInjectedResolver::new(
            GeonamesResolver,
            plan,
        ))])
        .with_resilience(clock.clone(), BrokerResilienceConfig::default())
        .with_cache(cache.clone());

        // Mid-outage: the fan-out fails, the breaker opens — nothing
        // may be admitted, or the degraded answer would outlive the
        // outage.
        broker.resolve(&s, &["Torino".into()], "", None);
        assert_eq!(broker.breaker_state("geonames"), Some(BreakerState::Open));
        assert_eq!(cache.stats().entries, 0, "failed fan-out not cached");
        // Breaker-skipped terms are equally uncacheable.
        broker.resolve(&s, &["Torino".into()], "", None);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0, "skipped fan-out not cached");
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);

        // Outage and cooldown pass: the probe succeeds, the complete
        // resolution is admitted, and repeats hit without new calls.
        clock.set(6_000);
        let recovered = broker.resolve(&s, &["Torino".into()], "", None);
        assert!(!recovered.terms[0].candidates.is_empty());
        assert_eq!(cache.stats().entries, 1);
        let telemetry = broker.telemetry().unwrap();
        let calls = telemetry.counter("broker.calls.geonames");
        let warm = broker.resolve(&s, &["Torino".into()], "", None);
        assert_eq!(telemetry.counter("broker.calls.geonames"), calls);
        assert_eq!(warm.terms[0].candidates, recovered.terms[0].candidates);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn breaker_half_opens_after_cooldown_and_closes_on_success() {
        let s = store();
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("resolver:geonames", 0, 5_000)
            .build(clock.clone());
        let broker = SemanticBroker::new(vec![Box::new(FaultInjectedResolver::new(
            GeonamesResolver,
            plan,
        ))])
        .with_resilience(clock.clone(), BrokerResilienceConfig::default());

        broker.resolve(&s, &["Torino".into()], "", None);
        assert_eq!(broker.breaker_state("geonames"), Some(BreakerState::Open));

        // Cooldown passes *and* the outage window ends → probe succeeds.
        clock.set(6_000);
        let output = broker.resolve(&s, &["Torino".into()], "", None);
        assert_eq!(broker.breaker_state("geonames"), Some(BreakerState::Closed));
        assert!(output.unavailable.is_empty());
        assert!(!output.terms[0].candidates.is_empty());
    }
}
