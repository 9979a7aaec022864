//! Deferred upload queue.
//!
//! "To overcome problems of limited connectivity and battery
//! management, the client supports a deferred content uploading
//! procedure. Pictures, videos and related metadata are associated to
//! their creation timestamp." (§1.1)
//!
//! The queue holds uploads while the (simulated) device is offline and
//! flushes them in capture order when connectivity returns — the
//! capture timestamp inside [`Upload`] is what keeps context tagging
//! correct even for late uploads. Uploads that fail during a flush are
//! **re-enqueued** (still in capture-timestamp order) and retried on
//! the next flush, up to a per-item attempt cap; items past the cap
//! are surfaced in the [`FlushReport`] instead of silently dropped.

use crate::error::PlatformError;
use crate::ingest::IngestPool;
use crate::platform::{Platform, Upload, UploadReceipt};

/// One queued upload plus how often it has been tried.
#[derive(Debug, Clone)]
struct PendingUpload {
    upload: Upload,
    attempts: u32,
}

/// An upload the queue gave up on (attempt cap reached).
#[derive(Debug)]
pub struct AbandonedUpload {
    /// The upload itself — the caller still owns the content.
    pub upload: Upload,
    /// Upload attempts made, equal to the queue's cap.
    pub attempts: u32,
    /// The final error.
    pub error: PlatformError,
}

/// Outcome of one [`UploadQueue::flush`].
#[derive(Debug, Default)]
pub struct FlushReport {
    /// Receipts for uploads that succeeded, in capture order.
    pub receipts: Vec<UploadReceipt>,
    /// Uploads that failed but were re-enqueued for the next flush
    /// (capture timestamp and latest error).
    pub retried: Vec<(i64, PlatformError)>,
    /// Uploads that hit the attempt cap and left the queue.
    pub abandoned: Vec<AbandonedUpload>,
    /// Error from the batch's end-of-flush durability barrier, if the
    /// WAL flush failed (the uploads are applied in memory; durability
    /// is degraded until the next successful flush).
    pub flush_error: Option<PlatformError>,
}

impl FlushReport {
    /// Whether every queued upload went through and the durability
    /// barrier held.
    pub fn is_clean(&self) -> bool {
        self.retried.is_empty() && self.abandoned.is_empty() && self.flush_error.is_none()
    }
}

/// Client-side deferred upload queue. Flushes go through an
/// [`IngestPool`], so a backlog accumulated offline is annotated
/// concurrently while committing in capture order.
#[derive(Debug)]
pub struct UploadQueue {
    online: bool,
    pending: Vec<PendingUpload>,
    max_attempts: u32,
    pool: IngestPool,
}

impl Default for UploadQueue {
    fn default() -> Self {
        UploadQueue::new()
    }
}

impl UploadQueue {
    /// Default per-item attempt cap.
    pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;

    /// A new queue, offline, with the default attempt cap.
    pub fn new() -> UploadQueue {
        UploadQueue::with_max_attempts(Self::DEFAULT_MAX_ATTEMPTS)
    }

    /// A queue that abandons an upload after `max_attempts` failures.
    pub fn with_max_attempts(max_attempts: u32) -> UploadQueue {
        assert!(max_attempts >= 1);
        UploadQueue {
            online: false,
            pending: Vec::new(),
            max_attempts,
            pool: IngestPool::default(),
        }
    }

    /// Sets connectivity. Going online does not flush by itself — the
    /// client calls [`UploadQueue::flush`].
    pub fn set_online(&mut self, online: bool) {
        self.online = online;
    }

    /// Whether the client currently has connectivity.
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// Captures content: uploads immediately when online, queues
    /// otherwise. Returns the receipt for immediate uploads. An
    /// immediate upload that fails is queued for the next flush rather
    /// than lost (the error is still returned).
    pub fn capture(
        &mut self,
        platform: &mut Platform,
        upload: Upload,
    ) -> Result<Option<UploadReceipt>, PlatformError> {
        if self.online {
            match platform.upload(upload.clone()) {
                Ok(receipt) => Ok(Some(receipt)),
                Err(e) => {
                    self.pending.push(PendingUpload {
                        upload,
                        attempts: 1,
                    });
                    Err(e)
                }
            }
        } else {
            self.pending.push(PendingUpload {
                upload,
                attempts: 0,
            });
            Ok(None)
        }
    }

    /// Number of queued uploads.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The per-item attempt cap.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Flushes the queue in capture-timestamp order through the
    /// ingest pool: items stage and commit sequentially in capture
    /// order (so results are identical to uploading one at a time)
    /// while the annotation stage fans out across workers. Items that
    /// fail individually don't block the rest: they are re-enqueued
    /// (keeping timestamp order for the next flush) until the attempt
    /// cap moves them into [`FlushReport::abandoned`].
    pub fn flush(&mut self, platform: &mut Platform) -> FlushReport {
        let mut report = FlushReport::default();
        if !self.online || self.pending.is_empty() {
            return report;
        }
        let mut queued = std::mem::take(&mut self.pending);
        queued.sort_by_key(|p| p.upload.ts);
        let uploads: Vec<Upload> = queued.iter().map(|p| p.upload.clone()).collect();
        let ingest = self.pool.ingest(platform, uploads);
        report.receipts = ingest.receipts;
        report.flush_error = ingest.flush_error;
        // Failure indices point into `uploads` = `queued`, already in
        // timestamp order, so `retried` stays in capture order too.
        for (i, e) in ingest.failures {
            let mut item = queued[i].clone();
            item.attempts += 1;
            if item.attempts >= self.max_attempts {
                report.abandoned.push(AbandonedUpload {
                    upload: item.upload,
                    attempts: item.attempts,
                    error: e,
                });
            } else {
                report.retried.push((item.upload.ts, e));
                self.pending.push(item);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_relational::WorkloadConfig;

    fn upload(ts: i64, title: &str) -> Upload {
        Upload {
            user_id: 1,
            title: title.to_string(),
            tags: vec![],
            ts,
            gps: None,
            poi: None,
        }
    }

    fn bad_upload(ts: i64, title: &str) -> Upload {
        Upload {
            user_id: 9999, // missing user → upload fails
            ..upload(ts, title)
        }
    }

    #[test]
    fn offline_captures_queue_then_flush_in_timestamp_order() {
        let mut platform = Platform::bootstrap(WorkloadConfig::small(1)).unwrap();
        let mut queue = UploadQueue::new();
        assert!(!queue.is_online());
        queue.capture(&mut platform, upload(300, "third")).unwrap();
        queue.capture(&mut platform, upload(100, "first")).unwrap();
        queue.capture(&mut platform, upload(200, "second")).unwrap();
        assert_eq!(queue.pending(), 3);

        // Flush while offline is a no-op.
        let report = queue.flush(&mut platform);
        assert!(report.receipts.is_empty() && report.is_clean());
        assert_eq!(queue.pending(), 3);

        queue.set_online(true);
        let report = queue.flush(&mut platform);
        assert_eq!(report.receipts.len(), 3);
        assert!(report.is_clean());
        assert_eq!(queue.pending(), 0);
        // Capture order preserved: pids ascend with timestamps.
        let titles: Vec<String> = report
            .receipts
            .iter()
            .map(|r| {
                let q = format!(
                    "SELECT ?t WHERE {{ <{}> rdfs:label ?t . }}",
                    r.resource.as_str()
                );
                platform.query(&q).unwrap().column("t")[0]
                    .lexical()
                    .to_string()
            })
            .collect();
        assert_eq!(titles, vec!["first", "second", "third"]);
    }

    #[test]
    fn online_captures_upload_immediately() {
        let mut platform = Platform::bootstrap(WorkloadConfig::small(2)).unwrap();
        let mut queue = UploadQueue::new();
        queue.set_online(true);
        let receipt = queue
            .capture(&mut platform, upload(1, "instant"))
            .unwrap()
            .expect("immediate receipt");
        assert!(receipt.pid > 0);
        assert_eq!(queue.pending(), 0);
    }

    #[test]
    fn failed_items_are_requeued_not_dropped() {
        let mut platform = Platform::bootstrap(WorkloadConfig::small(3)).unwrap();
        let mut queue = UploadQueue::new();
        queue.capture(&mut platform, upload(1, "good")).unwrap();
        queue.capture(&mut platform, bad_upload(2, "bad")).unwrap();
        queue.set_online(true);

        let report = queue.flush(&mut platform);
        assert_eq!(report.receipts.len(), 1);
        assert_eq!(report.retried.len(), 1);
        assert!(matches!(report.retried[0].1, PlatformError::NotFound(_)));
        assert!(report.abandoned.is_empty());
        // The failed item is still queued for the next flush.
        assert_eq!(queue.pending(), 1);
    }

    #[test]
    fn attempt_cap_abandons_with_full_context() {
        let mut platform = Platform::bootstrap(WorkloadConfig::small(4)).unwrap();
        let mut queue = UploadQueue::with_max_attempts(2);
        queue
            .capture(&mut platform, bad_upload(7, "doomed"))
            .unwrap();
        queue.set_online(true);

        let report = queue.flush(&mut platform);
        assert_eq!(report.retried.len(), 1, "first failure re-enqueues");
        assert_eq!(queue.pending(), 1);

        let report = queue.flush(&mut platform);
        assert_eq!(report.abandoned.len(), 1, "cap reached");
        assert_eq!(report.abandoned[0].attempts, 2);
        assert_eq!(report.abandoned[0].upload.title, "doomed");
        assert!(matches!(
            report.abandoned[0].error,
            PlatformError::NotFound(_)
        ));
        assert_eq!(queue.pending(), 0);
    }

    #[test]
    fn requeued_items_keep_timestamp_order_across_flushes() {
        let mut platform = Platform::bootstrap(WorkloadConfig::small(5)).unwrap();
        let mut queue = UploadQueue::new();
        queue
            .capture(&mut platform, bad_upload(200, "late-bad"))
            .unwrap();
        queue
            .capture(&mut platform, bad_upload(100, "early-bad"))
            .unwrap();
        queue.set_online(true);

        let report = queue.flush(&mut platform);
        assert_eq!(report.retried.len(), 2);
        // Retried list reflects capture order: 100 before 200.
        assert_eq!(report.retried[0].0, 100);
        assert_eq!(report.retried[1].0, 200);

        // Mix in a fresh item; next flush still goes by timestamp.
        queue.set_online(false);
        queue
            .capture(&mut platform, upload(150, "mid-good"))
            .unwrap();
        queue.set_online(true);
        let report = queue.flush(&mut platform);
        assert_eq!(report.receipts.len(), 1);
        assert_eq!(report.retried[0].0, 100);
        assert_eq!(report.retried[1].0, 200);
    }
}
