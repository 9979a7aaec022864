//! The LODified personal-content-sharing platform — the paper's
//! primary contribution, assembled from the workspace substrates.
//!
//! * [`platform`] — the platform itself: bootstrap from a generated
//!   Coppermine database, LOD fusion, the §1.1 upload flow (context
//!   tags + triple tags), the §2.1 semanticization (D2R dump → triple
//!   store) and the §2.2 automatic semantic annotation of every new
//!   content item;
//! * [`commit`] — the platform delta: what one commit changes outside
//!   the triple store, carried in the commit's one WAL record and
//!   replayed through the live apply path on recovery;
//! * [`deferred`] — the client's deferred-upload queue ("to overcome
//!   problems of limited connectivity and battery management", §1.1);
//! * [`albums`] — semantic virtual albums (§2.3): the Q1/Q2/Q3 query
//!   builder plus the relational baseline used to cross-check results;
//! * [`search`] — the mobile search flow (§4): incremental
//!   AJAX-debounced suggestions and resource → content listing;
//! * [`mashup`] — the "About" mashup (§4.1): city abstract, nearby
//!   restaurants, tourism attractions and related UGC;
//! * [`batch`] — batch re-annotation of legacy content (§6);
//! * [`ingest`] — the concurrent annotation pipeline: batched ingest
//!   over the prepare/annotate/commit split, fanning the read-only
//!   annotation stage across worker threads while staying
//!   byte-identical to sequential ingest;
//! * [`metrics`] — precision/recall/F1 scoring of annotations against
//!   workload ground truth (experiments E3/E4/E8), plus the
//!   operational [`metrics::OpsSnapshot`] over breakers, retries and
//!   dead-letter queues;
//! * [`web`] — the §3/§4 web & mobile interface: routing, HTML
//!   rendering (incl. the §1.1 friendly-format tag display) and a
//!   minimal std-only HTTP server;
//! * [`federation`] — the future-work architecture of §6: home-network
//!   nodes, WebFinger identities, FOAF profile exchange,
//!   PubSubHubbub/SparqlPuSH notification and ActivityStreams
//!   timelines, simulated in-process;
//! * [`replication`] — emission-level state replication between home
//!   nodes: CRC-framed per-node emission journals, policy-filtered
//!   links, idempotent apply with sequence-gap catch-up, and
//!   chaos-verified convergence (ROADMAP item 3);
//! * [`live`] — live albums (ROADMAP item 4): a standing-query engine
//!   that maintains materialized albums differentially from committed
//!   deltas and serves every album view, and a SparqlPuSH hub that
//!   ships the resulting diffs to subscribers with at-least-once
//!   delivery and idempotent apply;
//! * [`admission`] — per-tenant token-bucket quotas and queue-depth
//!   load shedding (ROADMAP item 5): cheap-to-reject admission ahead of
//!   parse/plan/eval, feeding the `/ops` degradation verdict;
//! * [`traffic`] — deterministic multi-tenant open-loop traffic
//!   generation (DetRng arrivals on a virtual clock) driving the real
//!   admission controller for the overload chaos test.

#![warn(missing_docs)]

pub mod admission;
pub mod albums;
pub mod batch;
pub mod commit;
pub mod deferred;
pub mod error;
pub mod federation;
pub mod ingest;
pub mod live;
pub mod mashup;
pub mod metrics;
pub mod platform;
mod pool;
pub mod replication;
pub mod search;
pub mod traffic;
pub mod web;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionDecision, ShedClass};
pub use albums::AlbumSpec;
pub use error::PlatformError;
pub use ingest::{IngestPool, IngestReport};
pub use live::{LiveService, StandingQueryEngine};
pub use mashup::{MashupResult, MashupService};
pub use platform::{Platform, Upload};
pub use replication::{Emission, EmissionOutbox, Replicator, SharePolicy};
pub use search::SearchService;
