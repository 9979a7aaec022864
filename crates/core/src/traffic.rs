//! Deterministic multi-tenant open-loop traffic generation.
//!
//! An **open-loop** workload issues requests on its own schedule —
//! arrivals do not wait for responses, which is how real users behave
//! and why overload is dangerous: past saturation the in-flight queue
//! grows without bound and tail latency *diverges* instead of
//! plateauing (the coordinated-omission trap closed-loop benches fall
//! into). This module generates such a workload deterministically —
//! Poisson arrivals from a [`DetRng`], virtual time on a
//! [`VirtualClock`] — and pushes it through a k-server queue model
//! while driving a *real* [`AdmissionController`] on the same clock,
//! so the overload chaos test measures the actual shedding
//! implementation, not a model of it.
//!
//! The simulation is exact discrete-event queueing: each admitted
//! request starts at `max(arrival, earliest free server)` and its
//! latency is `finish − arrival`. Permits are dropped as virtual time
//! passes each request's finish, so the controller sees the honest
//! in-flight depth at every arrival.

use lodify_resilience::{DetRng, VirtualClock};

use crate::admission::{AdmissionController, AdmissionDecision, ShedClass};

/// One request class in the generated mix.
#[derive(Debug, Clone, Copy)]
pub struct TrafficKind {
    /// Request path (classified by [`ShedClass::classify`]).
    pub path: &'static str,
    /// Relative weight in the mix.
    pub weight: u32,
    /// Deterministic service time, microseconds.
    pub service_us: u64,
}

/// Workload shape.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// RNG seed (same seed ⇒ byte-identical schedule and report).
    pub seed: u64,
    /// Number of tenants. Tenant 0 is *hot*: it sends half of all
    /// traffic, the rest spread uniformly — the skew that makes
    /// per-tenant quotas observable.
    pub tenants: usize,
    /// Aggregate arrival rate, requests per second.
    pub rate_per_sec: f64,
    /// Workload duration in virtual milliseconds.
    pub duration_ms: u64,
    /// Serving capacity: number of parallel workers.
    pub workers: usize,
    /// The request mix.
    pub kinds: Vec<TrafficKind>,
}

impl TrafficConfig {
    /// The overload-storm mix: expensive album solves dominating, some plain
    /// pages, a trickle of operator traffic.
    pub fn standard(seed: u64, rate_per_sec: f64, duration_ms: u64) -> TrafficConfig {
        TrafficConfig {
            seed,
            tenants: 4,
            rate_per_sec,
            duration_ms,
            workers: 4,
            kinds: vec![
                TrafficKind {
                    path: "/album",
                    weight: 6,
                    service_us: 4_000,
                },
                TrafficKind {
                    path: "/picture/1",
                    weight: 3,
                    service_us: 1_000,
                },
                TrafficKind {
                    path: "/ops",
                    weight: 1,
                    service_us: 500,
                },
            ],
        }
    }

    /// The offered load relative to capacity: mean service demand per
    /// second divided by worker-seconds available (1.0 = saturation).
    pub fn utilization(&self) -> f64 {
        let total_weight: u32 = self.kinds.iter().map(|k| k.weight).sum();
        if total_weight == 0 || self.workers == 0 {
            return 0.0;
        }
        let mean_service_us: f64 = self
            .kinds
            .iter()
            .map(|k| k.service_us as f64 * k.weight as f64 / total_weight as f64)
            .sum();
        self.rate_per_sec * mean_service_us / 1_000_000.0 / self.workers as f64
    }
}

/// What one simulated storm did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Requests generated.
    pub offered: usize,
    /// Requests admitted and served.
    pub served: usize,
    /// Requests rejected by tenant quota (429).
    pub shed_quota: usize,
    /// Requests shed by overload protection (503).
    pub shed_overload: usize,
    /// Median served latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile served latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile served latency, microseconds.
    pub p99_us: u64,
    /// Worst served latency, microseconds.
    pub max_us: u64,
    /// Deepest in-flight queue observed.
    pub max_depth: usize,
}

impl SimReport {
    fn from_latencies(mut latencies: Vec<u64>) -> SimReport {
        latencies.sort_unstable();
        let pct = |p: f64| -> u64 {
            if latencies.is_empty() {
                return 0;
            }
            let idx = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len()) - 1;
            latencies[idx]
        };
        SimReport {
            served: latencies.len(),
            p50_us: pct(0.50),
            p95_us: pct(0.95),
            p99_us: pct(0.99),
            max_us: latencies.last().copied().unwrap_or(0),
            ..SimReport::default()
        }
    }
}

/// Runs one open-loop storm. `admission: None` serves everything (the
/// unprotected baseline whose tail diverges past saturation);
/// `Some(controller)` drives the real shedding path. The controller
/// must share `clock`, which this function *sets* to each arrival's
/// virtual time — do not interleave other users of the same clock.
pub fn run_open_loop(
    config: &TrafficConfig,
    admission: Option<&AdmissionController>,
    clock: &VirtualClock,
) -> SimReport {
    let mut rng = DetRng::seed_from_u64(config.seed).fork("traffic");
    let total_weight: u32 = config.kinds.iter().map(|k| k.weight).sum::<u32>().max(1);
    let workers = config.workers.max(1);
    let mut free_at_us = vec![clock.now_ms().saturating_mul(1000); workers];

    // In-flight permits ordered by finish time; dropped as time passes.
    let mut inflight: Vec<(u64, crate::admission::Permit)> = Vec::new();
    let mut inflight_untracked: Vec<u64> = Vec::new();
    let mut latencies = Vec::new();
    let mut report = SimReport::default();

    let start_us = clock.now_ms().saturating_mul(1000);
    let end_us = start_us + config.duration_ms.saturating_mul(1000);
    let mut arrival_us = start_us as f64;
    loop {
        // Poisson process: exponential inter-arrival times.
        let u = rng.random_f64().max(f64::MIN_POSITIVE);
        arrival_us += -u.ln() / config.rate_per_sec * 1_000_000.0;
        let now_us = arrival_us as u64;
        if now_us >= end_us {
            break;
        }
        report.offered += 1;
        clock.set(now_us / 1000);

        // Retire requests that finished before this arrival so the
        // admission controller sees the true in-flight depth.
        inflight.retain(|(finish, _)| *finish > now_us);

        // Pick tenant (tenant 0 is hot) and kind.
        let tenant = if config.tenants <= 1 || rng.random_bool(0.5) {
            0
        } else {
            1 + rng.random_range(0..config.tenants.max(2) - 1)
        };
        let tenant_name = format!("tenant-{tenant}");
        let mut pick = rng.random_range(0..total_weight);
        let kind = config
            .kinds
            .iter()
            .find(|k| {
                if pick < k.weight {
                    true
                } else {
                    pick -= k.weight;
                    false
                }
            })
            .copied()
            .unwrap_or(TrafficKind {
                path: "/",
                weight: 1,
                service_us: 1_000,
            });

        let permit = match admission {
            None => None,
            Some(controller) => {
                match controller.admit(Some(&tenant_name), ShedClass::classify(kind.path)) {
                    AdmissionDecision::Admit(permit) => Some(permit),
                    AdmissionDecision::RejectQuota => {
                        report.shed_quota += 1;
                        continue;
                    }
                    AdmissionDecision::RejectOverload => {
                        report.shed_overload += 1;
                        continue;
                    }
                }
            }
        };

        // Earliest-free worker serves it.
        let (slot, &free) = free_at_us
            .iter()
            .enumerate()
            .min_by_key(|(_, &f)| f)
            .expect("workers >= 1");
        let start = free.max(now_us);
        let finish = start + kind.service_us;
        free_at_us[slot] = finish;
        latencies.push(finish - now_us);
        if let Some(permit) = permit {
            inflight.push((finish, permit));
            report.max_depth = report.max_depth.max(inflight.len());
        } else {
            // No controller: depth is the count of not-yet-finished work.
            inflight_untracked.retain(|&f| f > now_us);
            inflight_untracked.push(finish);
            report.max_depth = report.max_depth.max(inflight_untracked.len());
        }
    }
    // Let every in-flight request finish before the verdict is read.
    let drain_to = inflight
        .iter()
        .map(|(f, _)| *f)
        .chain(free_at_us.iter().copied())
        .max()
        .unwrap_or(end_us);
    clock.set(drain_to / 1000 + 1);
    drop(inflight);

    let offered = report.offered;
    let shed_quota = report.shed_quota;
    let shed_overload = report.shed_overload;
    let max_depth = report.max_depth;
    let mut out = SimReport::from_latencies(latencies);
    out.offered = offered;
    out.shed_quota = shed_quota;
    out.shed_overload = shed_overload;
    out.max_depth = max_depth;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use std::sync::Arc;

    #[test]
    fn same_seed_same_report() {
        let config = TrafficConfig::standard(7, 500.0, 2_000);
        let a = run_open_loop(&config, None, &VirtualClock::new());
        let b = run_open_loop(&config, None, &VirtualClock::new());
        assert_eq!(a, b);
    }

    #[test]
    fn overload_diverges_without_shedding_and_stays_bounded_with() {
        // 2x saturation: utilization ~2.0 at the standard mix.
        let mut config = TrafficConfig::standard(11, 1.0, 4_000);
        config.rate_per_sec = 2.0 / config.utilization();
        assert!((config.utilization() - 2.0).abs() < 0.01);

        let raw = run_open_loop(&config, None, &VirtualClock::new());

        let clock = VirtualClock::new();
        let controller = AdmissionController::new(
            Arc::new(clock.clone()),
            AdmissionConfig {
                tenant_rate_per_sec: 1e9,
                tenant_burst: 1e9,
                shed_depth: 16,
                hard_depth: 32,
                ..AdmissionConfig::default()
            },
        );
        let shed = run_open_loop(&config, Some(&controller), &clock);

        assert!(shed.shed_overload > 0, "overload must shed: {shed:?}");
        assert!(
            raw.p99_us > 4 * shed.p99_us,
            "unshedded tail must diverge: raw {} vs shed {}",
            raw.p99_us,
            shed.p99_us
        );
    }

    #[test]
    fn hot_tenant_hits_quota_before_others() {
        let config = TrafficConfig::standard(3, 200.0, 3_000);
        let clock = VirtualClock::new();
        let controller = AdmissionController::new(
            Arc::new(clock.clone()),
            AdmissionConfig {
                tenant_rate_per_sec: 20.0,
                tenant_burst: 20.0,
                shed_depth: usize::MAX,
                hard_depth: usize::MAX,
                ..AdmissionConfig::default()
            },
        );
        let report = run_open_loop(&config, Some(&controller), &clock);
        assert!(report.shed_quota > 0, "hot tenant over quota: {report:?}");
        assert!(report.served > 0);
        assert_eq!(controller.ops().tenants, 4);
    }
}
