//! Durable storage subsystem: WAL, snapshots, and crash recovery for
//! the triple store.
//!
//! The paper's platform leans on Virtuoso for persistence — uploaded
//! pictures, their annotations and votes are supposed to survive a
//! server restart. The reproduction's in-memory [`Store`] had no such
//! story until now. This crate adds one, built from scratch on `std`:
//!
//! * [`codec`] — a compact binary codec: one `Commit` record per
//!   commit (its new dictionary entries, its `(s, p, o, graph)` delta
//!   and an opaque caller meta), framed as length-prefixed,
//!   CRC32-checked records; the same framing is exposed for opaque
//!   payloads so sibling journals (e.g. `core::replication` replica
//!   logs) inherit torn-tail and bit-flip detection;
//! * [`storage`] — an append-only file abstraction with an explicit
//!   durability barrier; [`MemStorage`] models the durable/volatile
//!   split so chaos tests can crash the engine at any byte,
//!   [`FileStorage`] backs it with real files;
//! * [`wal`] — the write-ahead log with **group commit** (one barrier
//!   amortized over a batch of mutations) and a torn-tail-tolerant
//!   scanner;
//! * [`snapshot`] — all-or-nothing snapshot segments for log
//!   compaction;
//! * [`engine`] — [`DurableStore`]: one-record commits, periodic
//!   compaction into generation files, and [`DurableStore::open`] /
//!   [`DurableStore::open_or_adopt`] recovery that rebuilds the store
//!   (triple indexes, fulltext, labels, geo, stats) to exactly the last
//!   acknowledged commit and returns every commit's meta. The engine
//!   is owned by its single writer; readers pin
//!   `engine.store().snapshot()`.
//!
//! Durability barriers honor `lodify-resilience` fault plans via the
//! [`TARGET_WAL_FLUSH`] and [`TARGET_SNAPSHOT_WRITE`] targets, so
//! crash-recovery scenarios run in scripted, deterministic virtual
//! time.
//!
//! [`Store`]: lodify_store::Store
//! [`MemStorage`]: storage::MemStorage
//! [`FileStorage`]: storage::FileStorage

#![warn(missing_docs)]

pub mod codec;
pub mod engine;
pub mod error;
pub mod snapshot;
pub mod storage;
pub mod wal;

pub use codec::Record;
pub use engine::{
    Delta, DurabilityOptions, DurabilityStats, DurableStore, RecoveredCommit, RecoveryReport,
    TARGET_SNAPSHOT_WRITE, TARGET_WAL_FLUSH,
};
pub use error::DurabilityError;
pub use snapshot::{decode_snapshot, encode_snapshot, SnapshotImage};
pub use storage::{FileStorage, MemStorage, Storage};
pub use wal::{scan_log, GroupCommitPolicy, TailReport, WalWriter};
