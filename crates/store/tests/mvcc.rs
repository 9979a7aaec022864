//! MVCC stress tests: sustained writes with concurrent snapshot
//! readers, torn-commit detection, and shard-count invariance.
//!
//! The contract under test (see `crates/store/src/snapshot.rs`): one
//! thread owns the [`Store`] and commits; it pins
//! [`Store::snapshot`] between commits and hands the pins to reader
//! threads over a channel, the way the ingest pool's annotation stage
//! reads an older version while the platform commits.
//!
//! * a pin only ever moves forward, and always lands on a commit
//!   boundary — a reader can never observe half of a batch;
//! * one pinned snapshot answers identically no matter how much the
//!   writer churns after the pin;
//! * the shard count is a physical layout knob with zero observable
//!   effect on any read path.

use std::sync::mpsc;
use std::sync::Arc;

use lodify_rdf::{Term, Triple};
use lodify_store::{Store, StoreSnapshot};

fn t(i: u64) -> Triple {
    Triple::spo(
        &format!("http://tenant{}/pic/{i}", i % 11),
        "http://www.w3.org/2000/01/rdf-schema#label",
        Term::literal(format!("label {i}")),
    )
}

/// A writer commits fixed-size batches and hands a pin to every reader
/// after each commit; the readers inspect those pins while the writer
/// goes on committing. Every observation must sit on a commit boundary
/// (epoch a multiple of the batch size, len == epoch for an
/// insert-only workload) and epochs must be monotone per reader — the
/// classic torn-commit / time-travel detector.
#[test]
fn sustained_writes_never_expose_torn_commits() {
    const BATCH: u64 = 20;
    const COMMITS: u64 = 100;

    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..4).map(|_| mpsc::channel::<StoreSnapshot>()).unzip();
    let write_thread = std::thread::spawn(move || {
        let mut store = Store::new();
        let g = store.default_graph();
        for c in 0..COMMITS {
            for k in 0..BATCH {
                assert!(
                    store.insert(&t(c * BATCH + k), g),
                    "workload is insert-only"
                );
            }
            for tx in &senders {
                tx.send(store.snapshot()).expect("reader alive");
            }
        }
        store
    });

    let readers: Vec<_> = receivers
        .into_iter()
        .map(|rx| {
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut observations = 0u64;
                for snap in rx {
                    let epoch = snap.epoch();
                    assert!(
                        epoch >= last_epoch,
                        "published epochs must be monotone: {epoch} after {last_epoch}"
                    );
                    assert_eq!(
                        epoch % BATCH,
                        0,
                        "observed a torn commit: epoch {epoch} is mid-batch"
                    );
                    assert_eq!(
                        snap.len() as u64,
                        epoch,
                        "snapshot len must match its epoch (insert-only workload)"
                    );
                    assert_eq!(snap.count_pattern(None, None, None), snap.len());
                    last_epoch = epoch;
                    observations += 1;
                }
                (observations, last_epoch)
            })
        })
        .collect();

    let store = write_thread.join().expect("writer finished");
    for r in readers {
        let (observations, last_epoch) = r.join().expect("reader finished");
        assert_eq!(observations, COMMITS);
        assert_eq!(last_epoch, COMMITS * BATCH);
    }
    assert_eq!(store.snapshot().len() as u64, COMMITS * BATCH);
    assert_eq!(store.snapshot().epoch(), COMMITS * BATCH);
}

/// A pinned snapshot is a repeatable read: byte-identical exports and
/// stable query answers on a reader thread no matter how much the
/// writer commits (and removes) after the pin.
#[test]
fn pinned_snapshots_are_repeatable_reads() {
    let mut store = Store::new();
    let g = store.default_graph();
    for i in 0..200 {
        store.insert(&t(i), g);
    }

    let (tx, rx) = mpsc::channel::<StoreSnapshot>();
    let reader = std::thread::spawn(move || {
        let snap = rx.recv().expect("the pin arrives first");
        let export = snap.export_ntriples(None);
        let count = snap.count_pattern(None, None, None);
        let mut latest = snap.clone();
        // Later pins arrive while the writer churns; the first one
        // must not move under any of them.
        for later in rx {
            assert_eq!(snap.export_ntriples(None), export, "export must not move");
            assert_eq!(snap.count_pattern(None, None, None), count);
            latest = later;
        }
        assert_eq!(snap.len(), 200);
        // The writer's store did move.
        assert_eq!(latest.len(), 200);
        assert_ne!(latest.export_ntriples(None), export);
        latest.epoch()
    });

    tx.send(store.snapshot()).unwrap();
    // Churn: remove half, add new, across many commits.
    for i in 0..100 {
        store.remove(&t(i));
        store.insert(&t(10_000 + i), g);
        tx.send(store.snapshot()).unwrap();
    }
    drop(tx);
    assert_eq!(reader.join().expect("reader finished"), store.epoch());
}

/// The same workload, committed against stores with 1, 4 and 16
/// shards while reader threads scan the pins, must leave
/// byte-identical state on every read path.
#[test]
fn shard_count_invariance_under_concurrent_readers() {
    let run = |shards: usize| -> (String, u64, usize) {
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..2).map(|_| mpsc::channel::<StoreSnapshot>()).unzip();
        let write_thread = std::thread::spawn(move || {
            let mut store = Store::with_shards(shards);
            let g = store.default_graph();
            for c in 0..40u64 {
                for k in 0..10 {
                    store.insert(&t(c * 10 + k), g);
                }
                if c % 4 == 0 {
                    store.remove(&t(c * 10));
                }
                for tx in &senders {
                    tx.send(store.snapshot()).expect("reader alive");
                }
            }
            store
        });
        // Concurrent readers exercise the merge paths while shards COW.
        let readers: Vec<_> = receivers
            .into_iter()
            .map(|rx| {
                std::thread::spawn(move || {
                    let mut total = 0usize;
                    for snap in rx {
                        total += snap.count_pattern(None, None, None);
                        let _ = snap.fulltext().search_prefix("label", 5);
                    }
                    total
                })
            })
            .collect();
        let store = write_thread.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        let snap = store.snapshot();
        (snap.export_ntriples(None), snap.epoch(), snap.len())
    };

    let (export1, epoch1, len1) = run(1);
    let (export4, epoch4, len4) = run(4);
    let (export16, epoch16, len16) = run(16);
    assert_eq!(export1, export4);
    assert_eq!(export1, export16);
    assert_eq!(epoch1, epoch4);
    assert_eq!(epoch1, epoch16);
    assert_eq!(len1, len4);
    assert_eq!(len1, len16);
}

/// Snapshots are plain values: they cross threads, outlive the store
/// that pinned them, and drop in any order without unsafety.
#[test]
fn snapshots_outlive_their_handle() {
    let snap = {
        let mut store = Store::new();
        let g = store.default_graph();
        store.insert(&t(1), g);
        store.snapshot()
    };
    let snap = Arc::new(snap);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let snap = Arc::clone(&snap);
            std::thread::spawn(move || snap.len())
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 1);
    }
}
