//! Per-tenant admission control and queue-depth load shedding.
//!
//! At web scale the query tier must refuse work it cannot serve in
//! time, and refuse it *cheaply* — before parsing, planning, or
//! touching the store. This module implements the two classic
//! mechanisms, deterministic under the obs [`Clock`](lodify_obs::Clock) seam so chaos
//! tests and the open-loop traffic generator drive them on a
//! [`VirtualClock`](lodify_resilience::VirtualClock):
//!
//! * **Token-bucket quotas per tenant** — each tenant refills at
//!   [`AdmissionConfig::tenant_rate_per_sec`] up to a burst of
//!   [`AdmissionConfig::tenant_burst`]; an empty bucket rejects with
//!   [`AdmissionDecision::RejectQuota`] (HTTP 429), so one hot tenant
//!   cannot starve the rest.
//! * **Queue-depth load shedding** — in-flight requests are counted by
//!   RAII [`Permit`]s (over a socket the web server takes the permit
//!   when it accepts the connection and keeps it until the response is
//!   written, so the depth is its queue plus its busy workers; an
//!   in-process caller holds one for the call); past
//!   [`AdmissionConfig::shed_depth`] *other* requests the
//!   expensive classes ([`ShedClass::Expensive`]: album solves, About
//!   mashups) are shed first, and past
//!   [`AdmissionConfig::hard_depth`] everything but
//!   [`ShedClass::Critical`] operational endpoints is rejected with
//!   [`AdmissionDecision::RejectOverload`] (HTTP 503). `/ops`,
//!   `/metrics` and `/trace` are never shed: an operator must be able
//!   to see *why* the platform is shedding.
//!
//! Shedding feeds the `/ops` degradation verdict: the platform counts
//! as degraded while the in-flight depth sits at or past the shed
//! threshold or an overload shed happened within the last
//! [`AdmissionConfig::recent_shed_window_ms`] — and recovers once the
//! storm drains, which the overload chaos test asserts end-to-end.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use lodify_obs::SharedClock;

/// Tuning for [`AdmissionController`].
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Token-bucket refill rate per tenant, tokens per second.
    pub tenant_rate_per_sec: f64,
    /// Token-bucket capacity per tenant (burst size).
    pub tenant_burst: f64,
    /// In-flight depth at which [`ShedClass::Expensive`] requests are
    /// shed.
    pub shed_depth: usize,
    /// In-flight depth at which every non-critical request is shed.
    pub hard_depth: usize,
    /// How long after the last overload shed the platform still
    /// reports itself degraded (milliseconds).
    pub recent_shed_window_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            tenant_rate_per_sec: 50.0,
            tenant_burst: 100.0,
            shed_depth: 32,
            hard_depth: 128,
            recent_shed_window_ms: 5_000,
        }
    }
}

/// How cheap a request class is to reject, which is the order load
/// shedding drops work: expensive query work first, plain pages next,
/// operational introspection never.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedClass {
    /// Operational endpoints (`/ops`, `/metrics`, `/trace/…`): never
    /// shed — they are how an operator diagnoses the overload.
    Critical,
    /// Ordinary pages and lookups.
    Normal,
    /// Query-heavy work (album solves, About-page mashups, search):
    /// the first class to shed under load.
    Expensive,
}

impl ShedClass {
    /// Classifies a request path.
    pub fn classify(path: &str) -> ShedClass {
        if path == "/ops" || path == "/metrics" || path.starts_with("/trace/") {
            ShedClass::Critical
        } else if path.starts_with("/album")
            || path.starts_with("/about/")
            || path.starts_with("/search")
            || path.starts_with("/resource")
        {
            ShedClass::Expensive
        } else {
            ShedClass::Normal
        }
    }
}

/// RAII in-flight marker: holding a permit keeps the queue-depth gauge
/// up; dropping it (request finished) releases the slot.
#[derive(Debug)]
pub struct Permit {
    depth: Arc<AtomicUsize>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.depth.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The verdict for one request.
#[derive(Debug)]
pub enum AdmissionDecision {
    /// Serve it; drop the [`Permit`] when done.
    Admit(Permit),
    /// The tenant's token bucket is empty — HTTP 429.
    RejectQuota,
    /// The node is overloaded and this class is being shed — HTTP 503.
    RejectOverload,
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last_refill_us: u64,
}

/// Counter snapshot for `/ops` and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionOps {
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected by per-tenant quota (429).
    pub shed_quota: u64,
    /// Requests shed by overload protection (503).
    pub shed_overload: u64,
    /// Requests currently in flight.
    pub queue_depth: usize,
    /// Distinct tenants seen.
    pub tenants: usize,
    /// Whether the node currently counts as shedding: depth at or past
    /// the shed threshold, or an overload shed within the recent
    /// window. Degrades the `/ops` verdict, and recovers on its own.
    pub shedding: bool,
}

/// Cloneable, thread-safe admission controller on the obs clock seam.
/// Clones share all state.
#[derive(Clone)]
pub struct AdmissionController {
    clock: SharedClock,
    config: AdmissionConfig,
    buckets: Arc<Mutex<HashMap<String, Bucket>>>,
    depth: Arc<AtomicUsize>,
    admitted: Arc<AtomicU64>,
    shed_quota: Arc<AtomicU64>,
    shed_overload: Arc<AtomicU64>,
    /// Microsecond timestamp of the last overload shed, plus one — 0
    /// means "never shed" (distinguishable from a shed at t=0).
    last_overload_us: Arc<AtomicU64>,
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("config", &self.config)
            .field("ops", &self.ops())
            .finish()
    }
}

impl AdmissionController {
    /// A controller reading time from `clock` (the platform passes its
    /// obs clock, so virtual-time tests control refill and recovery).
    pub fn new(clock: SharedClock, config: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            clock,
            config,
            buckets: Arc::new(Mutex::new(HashMap::new())),
            depth: Arc::new(AtomicUsize::new(0)),
            admitted: Arc::new(AtomicU64::new(0)),
            shed_quota: Arc::new(AtomicU64::new(0)),
            shed_overload: Arc::new(AtomicU64::new(0)),
            last_overload_us: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Takes a queue slot for work whose request is not known yet:
    /// the web server's acceptor calls this as it enqueues a
    /// connection, so the depth counts accepted-but-unanswered
    /// connections. The request is decided later, on the same slot, by
    /// [`AdmissionController::admit_held`].
    pub fn enter(&self) -> Permit {
        self.depth.fetch_add(1, Ordering::SeqCst);
        Permit {
            depth: Arc::clone(&self.depth),
        }
    }

    /// Decides one request and takes its slot in one step — what
    /// in-process callers (no socket, no queue) use.
    pub fn admit(&self, tenant: Option<&str>, class: ShedClass) -> AdmissionDecision {
        self.admit_held(tenant, class, self.enter())
    }

    /// Decides one request that already holds its slot (`permit`, from
    /// [`AdmissionController::enter`]); a rejection releases the slot.
    /// `tenant` is the caller's identity (`X-Tenant` header or `tenant`
    /// query parameter; anonymous traffic shares one bucket). Depth is
    /// compared without the request's own slot, and checks are ordered
    /// cheapest-reject first: depth shedding costs two atomic loads,
    /// the quota check takes the bucket lock.
    pub fn admit_held(
        &self,
        tenant: Option<&str>,
        class: ShedClass,
        permit: Permit,
    ) -> AdmissionDecision {
        if class == ShedClass::Critical {
            return self.admitted(permit);
        }
        let now_us = self.clock.now_micros();
        let others = self.depth.load(Ordering::SeqCst).saturating_sub(1);
        let shed = others >= self.config.hard_depth
            || (others >= self.config.shed_depth && class == ShedClass::Expensive);
        if shed {
            self.shed_overload.fetch_add(1, Ordering::SeqCst);
            self.last_overload_us
                .store(now_us.saturating_add(1), Ordering::SeqCst);
            return AdmissionDecision::RejectOverload;
        }
        let tenant = tenant.unwrap_or("anon");
        let mut buckets = lock(&self.buckets);
        let bucket = buckets.entry(tenant.to_string()).or_insert(Bucket {
            tokens: self.config.tenant_burst,
            last_refill_us: now_us,
        });
        let elapsed_us = now_us.saturating_sub(bucket.last_refill_us);
        bucket.tokens = (bucket.tokens
            + elapsed_us as f64 / 1_000_000.0 * self.config.tenant_rate_per_sec)
            .min(self.config.tenant_burst);
        bucket.last_refill_us = now_us;
        if bucket.tokens < 1.0 {
            drop(buckets);
            self.shed_quota.fetch_add(1, Ordering::SeqCst);
            return AdmissionDecision::RejectQuota;
        }
        bucket.tokens -= 1.0;
        drop(buckets);
        self.admitted(permit)
    }

    fn admitted(&self, permit: Permit) -> AdmissionDecision {
        self.admitted.fetch_add(1, Ordering::SeqCst);
        AdmissionDecision::Admit(permit)
    }

    /// Current in-flight request count.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Counter snapshot plus the recoverable shedding verdict.
    pub fn ops(&self) -> AdmissionOps {
        let depth = self.depth.load(Ordering::SeqCst);
        let last = self.last_overload_us.load(Ordering::SeqCst);
        let recent_shed = last > 0
            && self
                .clock
                .now_micros()
                .saturating_sub(last.saturating_sub(1))
                <= self.config.recent_shed_window_ms.saturating_mul(1_000);
        AdmissionOps {
            admitted: self.admitted.load(Ordering::SeqCst),
            shed_quota: self.shed_quota.load(Ordering::SeqCst),
            shed_overload: self.shed_overload.load(Ordering::SeqCst),
            queue_depth: depth,
            tenants: lock(&self.buckets).len(),
            shedding: depth >= self.config.shed_depth || recent_shed,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_resilience::VirtualClock;
    use std::sync::Arc as StdArc;

    fn controller(config: AdmissionConfig) -> (AdmissionController, VirtualClock) {
        let clock = VirtualClock::starting_at(1_000);
        (
            AdmissionController::new(StdArc::new(clock.clone()), config),
            clock,
        )
    }

    #[test]
    fn quota_rejects_and_refills_on_virtual_time() {
        let (adm, clock) = controller(AdmissionConfig {
            tenant_rate_per_sec: 10.0,
            tenant_burst: 2.0,
            ..AdmissionConfig::default()
        });
        let a = adm.admit(Some("t1"), ShedClass::Normal);
        let b = adm.admit(Some("t1"), ShedClass::Normal);
        assert!(matches!(a, AdmissionDecision::Admit(_)));
        assert!(matches!(b, AdmissionDecision::Admit(_)));
        assert!(matches!(
            adm.admit(Some("t1"), ShedClass::Normal),
            AdmissionDecision::RejectQuota
        ));
        // Another tenant has its own bucket.
        assert!(matches!(
            adm.admit(Some("t2"), ShedClass::Normal),
            AdmissionDecision::Admit(_)
        ));
        // 100 ms refills one token at 10/s.
        clock.advance(100);
        assert!(matches!(
            adm.admit(Some("t1"), ShedClass::Normal),
            AdmissionDecision::Admit(_)
        ));
        assert_eq!(adm.ops().shed_quota, 1);
        assert_eq!(adm.ops().tenants, 2);
    }

    #[test]
    fn depth_sheds_expensive_first_then_everything() {
        let (adm, _clock) = controller(AdmissionConfig {
            tenant_rate_per_sec: 1e9,
            tenant_burst: 1e9,
            shed_depth: 2,
            hard_depth: 4,
            ..AdmissionConfig::default()
        });
        let mut permits = Vec::new();
        for _ in 0..2 {
            match adm.admit(None, ShedClass::Normal) {
                AdmissionDecision::Admit(p) => permits.push(p),
                other => panic!("expected admit, got {other:?}"),
            }
        }
        // Depth 2 = shed threshold: expensive shed, normal still served.
        assert!(matches!(
            adm.admit(None, ShedClass::Expensive),
            AdmissionDecision::RejectOverload
        ));
        for _ in 0..2 {
            match adm.admit(None, ShedClass::Normal) {
                AdmissionDecision::Admit(p) => permits.push(p),
                other => panic!("expected admit, got {other:?}"),
            }
        }
        // Depth 4 = hard threshold: normal shed too, critical never.
        assert!(matches!(
            adm.admit(None, ShedClass::Normal),
            AdmissionDecision::RejectOverload
        ));
        let critical = match adm.admit(None, ShedClass::Critical) {
            AdmissionDecision::Admit(p) => p,
            other => panic!("critical is never shed, got {other:?}"),
        };
        // Draining the permits reopens admission.
        drop(permits);
        assert_eq!(adm.queue_depth(), 1, "critical permit still held");
        drop(critical);
        assert_eq!(adm.queue_depth(), 0);
    }

    #[test]
    fn a_held_slot_counts_from_enter_and_never_against_itself() {
        let (adm, _clock) = controller(AdmissionConfig {
            shed_depth: 1,
            hard_depth: 2,
            ..AdmissionConfig::default()
        });
        // Queued but undecided connections already count.
        let first = adm.enter();
        assert_eq!(adm.queue_depth(), 1);
        // Alone in the queue: its own slot is not overload.
        let first = match adm.admit_held(None, ShedClass::Expensive, first) {
            AdmissionDecision::Admit(p) => p,
            other => panic!("expected admit, got {other:?}"),
        };
        assert_eq!(adm.queue_depth(), 1, "deciding takes no second slot");
        // One other request in flight: expensive work is shed, and the
        // rejection gives the slot back.
        let second = adm.enter();
        assert!(matches!(
            adm.admit_held(None, ShedClass::Expensive, second),
            AdmissionDecision::RejectOverload
        ));
        assert_eq!(adm.queue_depth(), 1);
        let second = adm.enter();
        assert!(matches!(
            adm.admit_held(None, ShedClass::Normal, second),
            AdmissionDecision::Admit(_)
        ));
        assert_eq!(adm.queue_depth(), 1, "a dropped permit frees its slot");
        drop(first);
        assert_eq!(adm.queue_depth(), 0);
        assert_eq!(adm.ops().admitted, 2);
    }

    #[test]
    fn shedding_verdict_recovers_after_the_window() {
        let (adm, clock) = controller(AdmissionConfig {
            shed_depth: 1,
            hard_depth: 1,
            recent_shed_window_ms: 1_000,
            ..AdmissionConfig::default()
        });
        let permit = match adm.admit(None, ShedClass::Normal) {
            AdmissionDecision::Admit(p) => p,
            other => panic!("expected admit, got {other:?}"),
        };
        assert!(matches!(
            adm.admit(None, ShedClass::Normal),
            AdmissionDecision::RejectOverload
        ));
        assert!(adm.ops().shedding, "at depth and freshly shed");
        drop(permit);
        assert!(adm.ops().shedding, "recent shed keeps the verdict");
        clock.advance(1_001);
        assert!(!adm.ops().shedding, "window elapsed: recovered");
    }

    #[test]
    fn classify_orders_paths_by_shed_cost() {
        assert_eq!(ShedClass::classify("/ops"), ShedClass::Critical);
        assert_eq!(ShedClass::classify("/metrics"), ShedClass::Critical);
        assert_eq!(ShedClass::classify("/trace/abc"), ShedClass::Critical);
        assert_eq!(ShedClass::classify("/album"), ShedClass::Expensive);
        assert_eq!(ShedClass::classify("/about/1"), ShedClass::Expensive);
        assert_eq!(ShedClass::classify("/search"), ShedClass::Expensive);
        assert_eq!(ShedClass::classify("/"), ShedClass::Normal);
        assert_eq!(ShedClass::classify("/picture/1"), ShedClass::Normal);
    }
}
