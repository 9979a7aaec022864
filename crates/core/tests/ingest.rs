//! Acceptance tests for the concurrent annotation pipeline:
//! batched-parallel ingest must be **byte-identical** to sequential
//! ingest — same receipts, same N-Triples export, same recovered
//! state after a crash — and the semantic-resolution cache must never
//! change an answer, only skip redundant broker fan-outs.

use lodify_core::deferred::UploadQueue;
use lodify_core::ingest::IngestPool;
use lodify_core::platform::{Platform, Upload};
use lodify_durability::{DurabilityOptions, DurableStore, MemStorage, Storage};
use lodify_relational::WorkloadConfig;

/// A deterministic mixed batch: annotation-rich titles (gazetteer
/// POIs and cities, several repeated so the cache has something to
/// reuse), out-of-order timestamps, GPS on some items, and one
/// invalid upload (no title, no tags) to exercise failure routing.
fn batch() -> Vec<Upload> {
    let gaz = lodify_context::Gazetteer::global();
    let mole = gaz.poi("Mole_Antonelliana").unwrap().point(gaz);
    let mut uploads = Vec::new();
    let titles = [
        "Tramonto alla Mole",
        "Juventus match day",
        "Torino by night",
        "Tramonto alla Mole", // repeat: cache-warm candidate
        "Walking around Milan",
        "Torino by night", // repeat
        "Juventus match day",
        "Tramonto alla Mole",
    ];
    for (i, title) in titles.iter().enumerate() {
        uploads.push(Upload {
            user_id: 1,
            // Descending timestamps: the pipeline must re-sort.
            ts: 1_320_600_000 - (i as i64) * 1_000,
            title: title.to_string(),
            tags: vec!["torino".into()],
            gps: (i % 2 == 0).then_some(mole),
            poi: None,
        });
    }
    uploads.push(Upload {
        user_id: 1,
        ts: 1_320_550_500,
        title: String::new(), // invalid: no title, no tags
        tags: vec![],
        gps: None,
        poi: None,
    });
    uploads
}

fn durable_platform(seed: u64) -> (Platform, MemStorage) {
    let storage = MemStorage::new();
    let (platform, report) = Platform::bootstrap_durable(
        WorkloadConfig::small(seed),
        Box::new(storage.clone()),
        DurabilityOptions::default(),
    )
    .unwrap();
    assert!(!report.recovered);
    (platform, storage)
}

/// Every file in a `MemStorage`, fully read (durable + volatile
/// bytes), for journal-level byte comparison.
fn journal_bytes(storage: &MemStorage) -> Vec<(String, Vec<u8>)> {
    let mut names = storage.list();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let bytes = storage.read(&n).unwrap();
            (n, bytes)
        })
        .collect()
}

#[test]
fn batched_ingest_is_byte_identical_to_sequential() {
    let (mut sequential, seq_storage) = durable_platform(41);
    let (mut batched, batch_storage) = durable_platform(41);

    // Sequential twin: one upload at a time, in capture-timestamp
    // order (what the pool guarantees for the batch).
    let mut uploads = batch();
    uploads.sort_by_key(|u| u.ts);
    let mut seq_receipts = Vec::new();
    let mut seq_failures = 0;
    for upload in uploads {
        match sequential.upload(upload) {
            Ok(r) => seq_receipts.push(r),
            Err(_) => seq_failures += 1,
        }
    }

    // Batched twin: the scrambled batch through a 4-worker pool.
    let report = IngestPool::new(4).ingest(&mut batched, batch());
    assert_eq!(report.failures.len(), seq_failures);
    assert_eq!(report.failures[0].0, 8, "the invalid upload, input index");
    assert!(report.flush_error.is_none());

    // Receipts byte-identical, in the same (capture) order.
    assert_eq!(report.receipts, seq_receipts);
    // The cache had repeats to reuse within the batch.
    assert!(batched.semantic_cache_stats().hits > 0);

    // Store state byte-identical.
    assert_eq!(
        batched.store().export_ntriples(None),
        sequential.store().export_ntriples(None)
    );

    // Journal byte-identical — same WAL records in the same order —
    // and the recovered store after a crash matches too.
    sequential.flush_store().unwrap();
    batched.flush_store().unwrap();
    assert_eq!(journal_bytes(&seq_storage), journal_bytes(&batch_storage));
    drop(sequential);
    drop(batched);
    seq_storage.crash();
    batch_storage.crash();
    let (rec_seq, r1) =
        DurableStore::open(Box::new(seq_storage), DurabilityOptions::default()).unwrap();
    let (rec_batch, r2) =
        DurableStore::open(Box::new(batch_storage), DurabilityOptions::default()).unwrap();
    assert!(r1.recovered && r2.recovered);
    assert_eq!(
        rec_batch.store().export_ntriples(None),
        rec_seq.store().export_ntriples(None)
    );
}

#[test]
fn worker_count_does_not_change_results() {
    let mut one = Platform::bootstrap(WorkloadConfig::small(42)).unwrap();
    let mut four = Platform::bootstrap(WorkloadConfig::small(42)).unwrap();

    let a = IngestPool::new(1).ingest(&mut one, batch());
    let b = IngestPool::new(4).ingest(&mut four, batch());

    assert_eq!(a.receipts, b.receipts);
    assert_eq!(
        one.store().export_ntriples(None),
        four.store().export_ntriples(None)
    );
}

#[test]
fn cache_warm_batches_reuse_resolutions_and_commits_invalidate() {
    let mut platform = Platform::bootstrap(WorkloadConfig::small(43)).unwrap();
    let pool = IngestPool::new(2);

    // First batch: the whole annotation phase runs at one store
    // epoch, so repeated terms hit the cache after the first miss.
    let first = pool.ingest(&mut platform, batch());
    assert_eq!(first.failures.len(), 1);
    let warm = platform.semantic_cache_stats();
    assert!(warm.hits > 0, "repeats within the batch hit");
    assert!(warm.entries > 0);

    // Every commit bumped the store epoch, so a second batch with the
    // same terms must re-resolve (epoch-stale entries are invalidated
    // on lookup), not serve pre-commit answers.
    let resolved_before = platform.semantic_cache_stats().misses;
    let second = pool.ingest(&mut platform, batch());
    assert_eq!(second.failures.len(), 1);
    let stats = platform.semantic_cache_stats();
    assert!(stats.invalidations > 0, "stale entries evicted on lookup");
    assert!(stats.misses > resolved_before, "re-resolved after commits");

    // Same uploads, later pids: receipts differ only in pid/resource.
    assert_eq!(first.receipts.len(), second.receipts.len());
    for (a, b) in first.receipts.iter().zip(&second.receipts) {
        assert_eq!(a.context_tags, b.context_tags);
        assert_eq!(a.auto_annotations, b.auto_annotations);
    }
}

#[test]
fn deferred_flush_through_the_pool_keeps_queue_semantics() {
    let mut serial = Platform::bootstrap(WorkloadConfig::small(44)).unwrap();
    let mut pooled = Platform::bootstrap(WorkloadConfig::small(44)).unwrap();

    // Serial twin: upload the valid items directly, in ts order.
    let mut uploads = batch();
    uploads.sort_by_key(|u| u.ts);
    let mut expected = Vec::new();
    for upload in uploads {
        if let Ok(r) = serial.upload(upload) {
            expected.push(r);
        }
    }

    // Queue twin: capture everything offline, then flush.
    let mut queue = UploadQueue::new();
    for upload in batch() {
        queue.capture(&mut pooled, upload).unwrap();
    }
    queue.set_online(true);
    let report = queue.flush(&mut pooled);
    assert_eq!(report.receipts, expected);
    assert_eq!(report.retried.len(), 1, "invalid upload re-enqueued");
    assert_eq!(report.retried[0].0, 1_320_550_500);
    assert_eq!(queue.pending(), 1);
    assert_eq!(
        pooled.store().export_ntriples(None),
        serial.store().export_ntriples(None)
    );

    // Two more failing flushes exhaust the attempt cap.
    let report = queue.flush(&mut pooled);
    assert_eq!(report.retried.len(), 1);
    let report = queue.flush(&mut pooled);
    assert_eq!(report.abandoned.len(), 1);
    assert_eq!(report.abandoned[0].attempts, 3);
    assert_eq!(queue.pending(), 0);
}

#[test]
fn resolver_outage_mid_batch_opens_breaker_and_skips_caching() {
    use lodify_lod::annotator::{Annotator, AnnotatorConfig};
    use lodify_lod::resolvers::{DbpediaResolver, FaultInjectedResolver, GeonamesResolver};
    use lodify_lod::{BrokerResilienceConfig, SemanticBroker, SemanticFilter};
    use lodify_resilience::{BreakerState, FaultPlan, VirtualClock};

    let mut platform = Platform::bootstrap(WorkloadConfig::small(45)).unwrap();
    let clock = VirtualClock::new();
    let plan = FaultPlan::builder()
        .outage("resolver:geonames", 0, 5_000)
        .build(clock.clone());
    platform.set_annotator(Annotator::new(
        SemanticBroker::new(vec![
            Box::new(DbpediaResolver),
            Box::new(FaultInjectedResolver::new(GeonamesResolver, plan)),
        ])
        .with_resilience(clock.clone(), BrokerResilienceConfig::default()),
        SemanticFilter::standard(),
        AnnotatorConfig::default(),
    ));

    // Mid-outage batch: geonames fails, its breaker opens, later
    // terms in the batch are skipped — but no upload fails, and no
    // degraded fan-out may be cached (it would outlive the outage).
    let report = IngestPool::new(4).ingest(&mut platform, batch());
    assert_eq!(report.failures.len(), 1, "only the invalid upload");
    let snapshot = platform.ops_snapshot();
    let geonames = snapshot
        .resolvers
        .iter()
        .find(|r| r.name == "geonames")
        .unwrap();
    assert_eq!(geonames.breaker, Some(BreakerState::Open));
    assert!(geonames.failures > 0, "outage was observed");
    assert!(geonames.skipped > 0, "breaker short-circuited mid-batch");
    assert_eq!(
        platform.semantic_cache_stats().entries,
        0,
        "degraded resolutions are never admitted"
    );

    // After the outage and breaker cooldown, the same batch resolves
    // fully and the cache warms.
    clock.set(120_000);
    let report = IngestPool::new(4).ingest(&mut platform, batch());
    assert_eq!(report.failures.len(), 1);
    let stats = platform.semantic_cache_stats();
    assert!(stats.entries > 0, "healthy resolutions are cached again");
    assert!(stats.hits > 0, "repeats in the recovered batch hit");
}
