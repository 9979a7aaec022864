//! Deterministic resilience substrate.
//!
//! The paper's annotation pipeline calls remote LOD services (DBpedia
//! SPARQL, Sindice, Evri, Zemanta) that fail constantly in production,
//! and §1.1 explicitly designs for "limited connectivity" with deferred
//! uploads. This crate makes failure a first-class, *deterministic*
//! citizen so every degradation scenario can be scripted and asserted
//! without wall-clock sleeps or real outages:
//!
//! * [`rng`] — a seeded, dependency-free deterministic RNG
//!   (splitmix64-based), also used by the workload generator;
//! * [`clock`] — a shared virtual clock (milliseconds); time only moves
//!   when a test or a retry policy advances it;
//! * [`fault`] — scripted fault plans: per-target outage windows in
//!   virtual time, seeded probabilistic failure rates and injected
//!   latency, applied to resolvers, uploads and federation deliveries;
//! * [`retry`] — exponential backoff with deterministic jitter and a
//!   total-delay budget, advancing the virtual clock instead of
//!   sleeping;
//! * [`breaker`] — per-dependency circuit breakers (closed → open after
//!   N consecutive failures → half-open probe after a cooldown);
//! * [`dlq`] — generic dead-letter queues with attempt caps and replay;
//! * [`link`] — the one at-least-once delivery link built from the four
//!   above: per-peer breaker → fault plan under retry → park → replay,
//!   shared by replication, live push and federation notifications;
//! * [`telemetry`] — cloneable named counters/gauges that the platform
//!   metrics export (breaker state, retry counts, DLQ depth).

#![warn(missing_docs)]

pub mod breaker;
pub mod clock;
pub mod dlq;
pub mod fault;
pub mod link;
pub mod retry;
pub mod rng;
pub mod telemetry;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use clock::VirtualClock;
pub use dlq::{DeadLetter, DeadLetterQueue, ReplayReport};
pub use fault::{FaultError, FaultKind, FaultPlan, FaultPlanBuilder};
pub use link::{arrival, Arrival, Frame, Link, PeerId};
pub use retry::{RetryError, RetryOutcome, RetryPolicy};
pub use rng::DetRng;
pub use telemetry::Telemetry;
