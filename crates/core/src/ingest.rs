//! Concurrent annotation pipeline: batched ingest over the
//! prepare / annotate / commit split.
//!
//! One upload spends most of its wall-clock inside semantic
//! annotation — broker fan-out, filtering, POI analysis — which only
//! *reads* the store. The [`IngestPool`] exploits that: for a batch of
//! uploads it runs the sequential **prepare** stage
//! ([`Platform::stage_upload`]) in capture-timestamp order, fans the
//! read-only **annotation** stage out across scoped worker threads
//! (`crate::pool`'s contiguous partitioning, so chunk order
//! reproduces the sequential order exactly), and then drains the
//! short **commit** stage ([`Platform::commit_staged`]) through a
//! single committer, again in capture-timestamp order, with WAL
//! appends amortized under a group-commit policy that is restored —
//! and flushed — when the batch ends.
//!
//! # Determinism
//!
//! Batched ingest produces receipts and store state byte-identical to
//! feeding the same uploads one by one through
//! [`Platform::upload`]:
//!
//! * prepare and commit run sequentially in capture-timestamp order,
//!   so pid allocation, relational rows, tag-index entries and the
//!   per-item store-write order (POI triples, picture triples,
//!   annotation triples) are exactly the serial path's;
//! * annotation reads a pinned MVCC **snapshot** of the pre-batch
//!   store ([`Platform::store_snapshot`]). The only graph a commit
//!   grows is the UGC graph, and [`lodify_lod::SemanticFilter`]
//!   discards every UGC-graph candidate before any other rule runs,
//!   and `candidates_considered` leaves those candidates out, so the
//!   whole annotation result — which the commit's WAL record carries —
//!   cannot observe whether earlier batch items have committed yet.
//!
//! The identity is asserted by tests in `crates/core/tests/ingest.rs`,
//! down to WAL bytes and crash recovery; the ledger's `mixed_rw`
//! workload times the three stages (`ingest.*_ms`).
//!
//! # Snapshot reads
//!
//! Since the MVCC refactor the annotation workers hold no borrow of
//! the live store: they pin an immutable
//! [`StoreSnapshot`](lodify_store::StoreSnapshot) (O(shards) to take)
//! and read it across the slow broker / semantic-filter calls. Any
//! caller can do the same — a pin taken before a batch keeps
//! answering at its epoch while the batch commits:
//!
//! ```
//! use lodify_core::{IngestPool, Platform, Upload};
//! use lodify_relational::WorkloadConfig;
//!
//! let mut platform = Platform::bootstrap(WorkloadConfig::small(42))?;
//! let before = platform.store_snapshot();
//!
//! let pool = IngestPool::new(2);
//! let report = pool.ingest(
//!     &mut platform,
//!     vec![Upload {
//!         user_id: 1,
//!         title: "Mole Antonelliana at dusk".into(),
//!         tags: vec!["torino".into()],
//!         ts: 1_320_000_000,
//!         gps: None,
//!         poi: None,
//!     }],
//! );
//! assert!(report.is_clean());
//!
//! // The pinned version is immutable while the platform moved on.
//! assert!(platform.store_snapshot().epoch() > before.epoch());
//! assert!(before.len() < platform.store().len());
//! # Ok::<(), lodify_core::PlatformError>(())
//! ```
//!
//! # Live albums
//!
//! Standing queries ([`crate::live`]) need no special handling here:
//! every [`Platform::commit_staged`] drains its committed delta into
//! the live engine before returning, so a batch maintains registered
//! albums commit-by-commit — the same per-delta patches, diffs and
//! push frames the serial upload path produces, in the same order.

use std::time::Duration;

use lodify_durability::GroupCommitPolicy;

use crate::error::PlatformError;
use crate::platform::{Platform, StagedLegacy, StagedUpload, Upload, UploadReceipt};
use crate::pool::run_partitioned;

/// Outcome of one [`IngestPool::ingest`] batch.
#[derive(Debug, Default)]
pub struct IngestReport {
    /// Receipts for accepted uploads, in capture-timestamp order.
    pub receipts: Vec<UploadReceipt>,
    /// Failures keyed by the upload's index in the *input* batch
    /// (not the timestamp-sorted order), sorted by that index.
    pub failures: Vec<(usize, PlatformError)>,
    /// Error from the end-of-batch durability barrier, if the WAL
    /// flush that restores the prior group-commit policy failed. The
    /// in-memory state is still consistent; durability is degraded
    /// until the next successful flush.
    pub flush_error: Option<PlatformError>,
    /// Wall-clock spent in the sequential prepare stage.
    pub stage: Duration,
    /// Total busy time across annotation workers.
    pub annotate_busy: Duration,
    /// Wall-clock spent in the sequential commit stage.
    pub commit: Duration,
}

impl IngestReport {
    /// Whether every upload in the batch was accepted and the
    /// durability barrier held.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.flush_error.is_none()
    }
}

/// Outcome of one [`IngestPool::annotate_legacy_batch`] run, with the
/// same counters as [`crate::batch::BatchReport`] (which it feeds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LegacyBatchOutcome {
    /// Pictures annotated and committed.
    pub processed: usize,
    /// Pictures for which at least one term auto-annotated.
    pub with_annotations: usize,
    /// Total term annotations fired.
    pub annotations_fired: usize,
    /// Pictures that failed to stage or commit.
    pub failed: usize,
}

/// A worker pool that ingests batches of uploads through the
/// prepare / annotate / commit pipeline, fanning the read-only
/// annotation stage out across scoped OS threads.
///
/// The pool is a worker count — it spawns threads only for the
/// duration of a batch ([`std::thread::scope`]), so it holds no
/// handles and is cheap to construct per call site.
#[derive(Debug, Clone)]
pub struct IngestPool {
    workers: usize,
}

impl Default for IngestPool {
    /// A pool sized to the host's available parallelism.
    fn default() -> IngestPool {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        IngestPool::new(workers)
    }
}

impl IngestPool {
    /// A pool with `workers` annotation workers (clamped to at least
    /// one). Every batch commits under the default group-commit
    /// batching.
    pub fn new(workers: usize) -> IngestPool {
        IngestPool {
            workers: workers.max(1),
        }
    }

    /// The configured number of annotation workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Ingests a batch of uploads. Receipts come back in
    /// capture-timestamp order; failures keep their index into the
    /// input `uploads` so callers (the deferred queue) can re-enqueue
    /// exactly the items that failed.
    ///
    /// Traced as an `ingest` root span with `ingest.prepare` (staging
    /// plus the annotation fan-out) and `ingest.commit` children;
    /// every item still counts toward the `upload.accepted` /
    /// `upload.errors` counters, and `ingest.pool.workers` /
    /// `ingest.pool.depth` gauges record the batch shape.
    pub fn ingest(&self, platform: &mut Platform, uploads: Vec<Upload>) -> IngestReport {
        let mut report = IngestReport::default();
        if uploads.is_empty() {
            return report;
        }
        let metrics = platform.obs().metrics().clone();
        metrics.set_gauge("ingest.pool.workers", self.workers as u64);
        metrics.set_gauge("ingest.pool.depth", uploads.len() as u64);
        let root = platform.obs().tracer().start("ingest");

        // Prepare: sequential, in capture-timestamp order (stable on
        // input index for equal timestamps), exactly like flushing the
        // deferred queue item by item.
        let prepare = root.child("ingest.prepare");
        let started = metrics.now_micros();
        let mut order: Vec<usize> = (0..uploads.len()).collect();
        order.sort_by_key(|&i| uploads[i].ts);
        let mut uploads: Vec<Option<Upload>> = uploads.into_iter().map(Some).collect();
        let mut staged: Vec<(usize, StagedUpload)> = Vec::with_capacity(order.len());
        for i in order {
            let upload = uploads[i].take().expect("each index staged once");
            match platform.stage_upload(upload) {
                Ok(s) => staged.push((i, s)),
                Err(e) => report.failures.push((i, e)),
            }
        }
        report.stage = Duration::from_micros(metrics.now_micros().saturating_sub(started));

        // Annotate: read-only against a pinned MVCC snapshot of the
        // pre-batch store, fanned out across contiguous partitions.
        // The pin (O(shards)) means the workers hold no borrow of the
        // live store across the slow broker/filter calls, and the
        // snapshot guarantees every worker reads the same epoch.
        // Merging in chunk order keeps the results aligned with
        // `staged`.
        let annotator = platform.annotator();
        let snapshot = platform.store_snapshot();
        let outcomes = run_partitioned(&staged, self.workers, |chunk| {
            chunk
                .iter()
                .map(|(_, s)| annotator.annotate(&snapshot, &s.content_input()))
                .collect()
        });
        let mut results = Vec::with_capacity(staged.len());
        for outcome in outcomes {
            report.annotate_busy += outcome.busy;
            results.extend(outcome.out);
        }
        prepare.finish();

        // Commit: sequential, single committer, WAL appends amortized
        // under the batch group-commit policy. The restore at the end
        // flushes, so the batch is exactly as durable as the same
        // uploads issued one by one.
        let commit_span = root.child("ingest.commit");
        let started = metrics.now_micros();
        let prior = platform.swap_group_commit(GroupCommitPolicy::default());
        for ((i, staged), result) in staged.into_iter().zip(results) {
            // Committing under the batch's `ingest.commit` span makes
            // each upload's emission (and the pushes it triggers
            // downstream) traceable back to this batch.
            match platform.commit_staged(staged, result, Some(&commit_span)) {
                Ok(receipt) => report.receipts.push(receipt),
                Err(e) => report.failures.push((i, e)),
            }
        }
        if let Err(e) = platform.restore_group_commit(prior) {
            report.flush_error = Some(e);
        }
        report.commit = Duration::from_micros(metrics.now_micros().saturating_sub(started));
        commit_span.finish();
        root.finish();

        report.failures.sort_by_key(|(i, _)| *i);
        let accepted = report.receipts.len() as u64;
        let errors = report.failures.len() as u64;
        if accepted > 0 {
            metrics.add("upload.accepted", accepted);
        }
        if errors > 0 {
            metrics.add("upload.errors", errors);
        }
        report
    }

    /// Runs legacy batch annotation ([`Platform::annotate_legacy`])
    /// for `pids` with the annotation stage fanned out, committing in
    /// input order under the batch group-commit policy. Feeds
    /// [`crate::batch::BatchAnnotator`].
    ///
    /// Returns the durability-barrier error, if the end-of-batch WAL
    /// flush failed; per-picture failures are survived and counted.
    pub fn annotate_legacy_batch(
        &self,
        platform: &mut Platform,
        pids: &[i64],
    ) -> Result<LegacyBatchOutcome, PlatformError> {
        let mut outcome = LegacyBatchOutcome::default();
        if pids.is_empty() {
            return Ok(outcome);
        }
        let root = platform.obs().tracer().start("ingest");

        let prepare = root.child("ingest.prepare");
        let mut staged: Vec<StagedLegacy> = Vec::with_capacity(pids.len());
        for &pid in pids {
            match platform.stage_legacy(pid) {
                Ok(s) => staged.push(s),
                Err(_) => outcome.failed += 1,
            }
        }
        let annotator = platform.annotator();
        let snapshot = platform.store_snapshot();
        let outcomes = run_partitioned(&staged, self.workers, |chunk| {
            chunk
                .iter()
                .map(|s| annotator.annotate(&snapshot, &s.content_input()))
                .collect()
        });
        let results: Vec<_> = outcomes.into_iter().flat_map(|o| o.out).collect();
        prepare.finish();

        let commit_span = root.child("ingest.commit");
        let prior = platform.swap_group_commit(GroupCommitPolicy::default());
        for (staged, result) in staged.into_iter().zip(results) {
            match platform.commit_legacy(staged.pid(), result) {
                Ok(fired) => {
                    outcome.processed += 1;
                    outcome.annotations_fired += fired;
                    if fired > 0 {
                        outcome.with_annotations += 1;
                    }
                }
                Err(_) => outcome.failed += 1,
            }
        }
        let restored = platform.restore_group_commit(prior);
        commit_span.finish();
        root.finish();
        restored?;
        Ok(outcome)
    }
}
