//! In-memory triple store — the workspace's stand-in for the paper's
//! Openlink Virtuoso installation.
//!
//! The store is dictionary-encoded: every [`Term`](lodify_rdf::Term) is
//! interned once into a dense [`dict::TermId`], and statements
//! are kept in three sorted permutation indexes (SPO, POS, OSP) so that
//! every triple-pattern shape resolves to a range scan. On top of the
//! core indexes sit the two Virtuoso "commercial edition" features the
//! paper depends on:
//!
//! * a **full-text index** over string literals ([`fulltext`]), backing
//!   the incremental keyword search of the mobile interface (§4) and
//!   the `bif:contains` filter;
//! * a **geospatial index** over `geo:geometry` points ([`geo`]),
//!   backing `bif:st_intersects` (§2.3).
//!
//! Beside the full-text index, a **label index** ([`label`]) holds the
//! naming literals among its postings: the gazetteer the semantic
//! broker's resolvers look terms up in (§2.2.2).
//!
//! Named graphs are tracked as *provenance*: each statement remembers
//! which graph (UGC, DBpedia, Geonames, LinkedGeoData, …) introduced
//! it, and the semantic filter uses subject-level provenance to rank
//! candidate resources by source graph (§2.2.2).
//!
//! # Concurrency: one writer, epoch snapshots over a sharded store
//!
//! All of the above is **subject-sharded** ([`shard`]): every
//! subject-keyed structure lives in one of N
//! [`Arc`](std::sync::Arc)-wrapped shards, so cloning a [`Store`] costs
//! O(shards) and a writer copy-on-writes only the shards it touches.
//! The owner of the `Store` is its single writer; [`Store::snapshot`]
//! pins an immutable [`StoreSnapshot`] that other threads read while
//! the owner keeps committing.

#![warn(missing_docs)]

pub mod dict;
pub mod error;
pub mod fulltext;
pub mod geo;
pub mod label;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod store;

pub use dict::{Dict, TermId};
pub use error::StoreError;
pub use shard::{shard_of, FullTextView, GeoView, LabelView, DEFAULT_SHARDS};
pub use snapshot::StoreSnapshot;
pub use store::{GraphId, Store, DEFAULT_GRAPH};
