//! MVCC epoch snapshots: immutable, cheaply-pinned store versions.
//!
//! A [`StoreSnapshot`] is the read side of the store's multi-version
//! concurrency control. The store has one writer — whoever owns the
//! [`Store`] — and [`Store::snapshot`] is the only way to pin a
//! version. Pinning costs O(shards) reference-count bumps (see
//! [`crate::shard`]); once pinned the snapshot is **physically
//! immutable** — the writer copy-on-writes any shard a live snapshot
//! still shares before mutating it — and, because the writer pins
//! between commits, it never observes a half-commit.
//!
//! The snapshot [derefs](std::ops::Deref) to [`Store`], so SPARQL
//! evaluation, album materialization and every other reader take
//! `&Store` and work unchanged whether handed the writer's store or a
//! pinned version carried to another thread.
//!
//! # Example
//!
//! ```
//! use lodify_store::Store;
//! use lodify_rdf::{Term, Triple};
//!
//! let mut store = Store::new();
//! let g = store.default_graph();
//! store.insert(&Triple::spo("http://s", "http://p", Term::literal("v")), g);
//!
//! // Pin a version and hand it to a reader thread.
//! let snap = store.snapshot();
//! let at_pin = snap.epoch();
//! let reader = std::thread::spawn(move || (snap.len(), snap.epoch()));
//!
//! // The writer keeps committing; the pinned snapshot never sees it…
//! store.insert(&Triple::spo("http://s2", "http://p", Term::literal("w")), g);
//! assert_eq!(reader.join().unwrap(), (1, at_pin));
//! // …and the next pin does.
//! assert_eq!(store.snapshot().len(), 2);
//! ```

use std::ops::Deref;

use crate::store::Store;

/// An immutable view of the store at one mutation epoch.
///
/// Cloning a snapshot is as cheap as pinning one; snapshots are
/// `Send + Sync` and may be carried across threads, held across I/O,
/// and dropped in any order. Dropping the last snapshot that shares a
/// shard simply lets the writer stop copy-on-writing it.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    store: Store,
    epoch: u64,
}

impl StoreSnapshot {
    /// Wraps an (already cheap-cloned) store as a pinned version.
    pub(crate) fn pin_of(store: &Store) -> StoreSnapshot {
        StoreSnapshot {
            epoch: store.epoch(),
            store: store.clone(),
        }
    }

    /// The mutation epoch this snapshot was pinned at. Equal epochs
    /// guarantee byte-identical answers — the invariant the epoch-keyed
    /// caches in the workspace (semantic cache, plan cache) key on.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying immutable store view.
    pub fn store(&self) -> &Store {
        &self.store
    }
}

impl Deref for StoreSnapshot {
    type Target = Store;

    fn deref(&self) -> &Store {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_rdf::{Term, Triple};

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut store = Store::new();
        let g = store.default_graph();
        store.insert(&Triple::spo("http://a", "http://p", Term::literal("1")), g);
        let snap = store.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.len(), 1);

        store.insert(&Triple::spo("http://b", "http://p", Term::literal("2")), g);
        store.remove(&Triple::spo("http://a", "http://p", Term::literal("1")));
        assert_eq!(store.epoch(), 3);
        assert_eq!(store.len(), 1);

        // The pinned version still answers exactly as of epoch 1.
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.len(), 1);
        assert!(snap.contains(&Triple::spo("http://a", "http://p", Term::literal("1"))));
        assert!(!snap.contains(&Triple::spo("http://b", "http://p", Term::literal("2"))));
    }

    #[test]
    fn snapshot_preserves_side_indexes() {
        let mut store = Store::new();
        let g = store.default_graph();
        store.insert(
            &Triple::spo("http://a", "http://p", Term::literal("mole antonelliana")),
            g,
        );
        let snap = store.snapshot();
        store.remove(&Triple::spo(
            "http://a",
            "http://p",
            Term::literal("mole antonelliana"),
        ));
        assert!(store.fulltext().search_word("mole").is_empty());
        assert_eq!(snap.fulltext().search_word("mole").len(), 1);
        assert_eq!(snap.stats().total(), 1);
        assert_eq!(store.stats().total(), 0);
    }
}
