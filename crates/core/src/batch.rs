//! Batch annotation of legacy content.
//!
//! "There's a huge amount of content already present in our platform
//! that remains to be semantically annotated. Solving this issue
//! requires to create and introduce new automatic batch processing
//! mechanisms." (§6) — this is that mechanism: resumable chunked
//! processing over all not-yet-annotated pictures, with a report.
//!
//! Each chunk runs through the [`IngestPool`]: staging and commits
//! stay sequential (so the result is identical to annotating one
//! picture at a time) while the read-only annotation stage fans out
//! across worker threads.

use crate::error::PlatformError;
use crate::ingest::IngestPool;
use crate::platform::Platform;

/// Summary of a batch run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Pictures processed in this run.
    pub processed: usize,
    /// Pictures for which at least one term auto-annotated.
    pub with_annotations: usize,
    /// Total term annotations fired.
    pub annotations_fired: usize,
    /// Pictures skipped because they were already annotated.
    pub skipped: usize,
    /// Pictures that failed (should be zero; surfaced for robustness).
    pub failed: usize,
}

/// Chunked batch annotator. Holds a cursor plus the ingest pool that
/// fans each chunk's annotation stage out, so it can be driven
/// incrementally (one chunk per scheduler tick) or to completion.
#[derive(Debug, Default)]
pub struct BatchAnnotator {
    cursor: usize,
    pool: IngestPool,
}

impl BatchAnnotator {
    /// A fresh batch job with a default-sized [`IngestPool`].
    pub fn new() -> BatchAnnotator {
        BatchAnnotator::default()
    }

    /// Processes up to `chunk` pending pictures. Returns the report for
    /// this chunk; [`BatchAnnotator::is_done`] flips when the cursor
    /// passes the end.
    pub fn run_chunk(
        &mut self,
        platform: &mut Platform,
        chunk: usize,
    ) -> Result<BatchReport, PlatformError> {
        let ids = platform.picture_ids();
        let mut report = BatchReport::default();
        let end = (self.cursor + chunk).min(ids.len());
        let pending: Vec<i64> = ids[self.cursor..end]
            .iter()
            .copied()
            .filter(|pid| {
                let done = platform.annotations().contains_key(pid);
                if done {
                    report.skipped += 1;
                }
                !done
            })
            .collect();
        let outcome = self.pool.annotate_legacy_batch(platform, &pending)?;
        report.processed = outcome.processed;
        report.with_annotations = outcome.with_annotations;
        report.annotations_fired = outcome.annotations_fired;
        report.failed = outcome.failed;
        self.cursor = end;
        Ok(report)
    }

    /// Whether the cursor has passed all pictures known when the last
    /// chunk ran.
    pub fn is_done(&self, platform: &Platform) -> bool {
        self.cursor >= platform.picture_ids().len()
    }

    /// Runs to completion, merging chunk reports.
    pub fn run_all(
        &mut self,
        platform: &mut Platform,
        chunk: usize,
    ) -> Result<BatchReport, PlatformError> {
        let mut total = BatchReport::default();
        while !self.is_done(platform) {
            let r = self.run_chunk(platform, chunk.max(1))?;
            total.processed += r.processed;
            total.with_annotations += r.with_annotations;
            total.annotations_fired += r.annotations_fired;
            total.skipped += r.skipped;
            total.failed += r.failed;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_relational::WorkloadConfig;

    #[test]
    fn chunked_run_covers_everything_once() {
        let mut platform = Platform::bootstrap(WorkloadConfig::small(21)).unwrap();
        let total_pictures = platform.picture_ids().len();
        let mut batch = BatchAnnotator::new();

        let first = batch.run_chunk(&mut platform, 25).unwrap();
        assert_eq!(first.processed + first.skipped, 25);
        assert!(!batch.is_done(&platform));

        let rest = batch.run_all(&mut platform, 25).unwrap();
        assert!(batch.is_done(&platform));
        assert_eq!(
            first.processed + rest.processed + first.skipped + rest.skipped,
            total_pictures
        );
        assert_eq!(platform.annotations().len(), total_pictures);
        assert_eq!(first.failed + rest.failed, 0);
    }

    #[test]
    fn rerun_skips_already_annotated() {
        let mut platform = Platform::bootstrap(WorkloadConfig::small(22)).unwrap();
        BatchAnnotator::new().run_all(&mut platform, 50).unwrap();
        let report = BatchAnnotator::new().run_all(&mut platform, 50).unwrap();
        assert_eq!(report.processed, 0);
        assert_eq!(report.skipped, platform.picture_ids().len());
    }

    #[test]
    fn batch_survives_resolver_outages() {
        // A platform whose broker includes an always-on flaky resolver
        // must still finish the batch; failures are survived per
        // picture, not fatal.
        use lodify_lod::annotator::{Annotator, AnnotatorConfig};
        use lodify_lod::resolvers::{DbpediaResolver, FlakyResolver, GeonamesResolver};
        use lodify_lod::{SemanticBroker, SemanticFilter};

        let mut platform = Platform::bootstrap(WorkloadConfig::small(24)).unwrap();
        platform.set_annotator(Annotator::new(
            SemanticBroker::new(vec![
                Box::new(FlakyResolver::new(DbpediaResolver, 2)), // fails every 2nd call
                Box::new(GeonamesResolver),
            ]),
            SemanticFilter::standard(),
            AnnotatorConfig::default(),
        ));
        let report = BatchAnnotator::new().run_all(&mut platform, 30).unwrap();
        assert_eq!(report.failed, 0, "outages never fail the batch");
        assert_eq!(report.processed, platform.picture_ids().len());
        // Failures were recorded on the annotation results.
        let total_failures: usize = platform
            .annotations()
            .values()
            .map(|a| a.resolver_failures)
            .sum();
        assert!(total_failures > 0, "the flaky resolver did fail sometimes");
    }

    #[test]
    fn batch_produces_useful_annotation_rates() {
        let mut platform = Platform::bootstrap(WorkloadConfig::small(23)).unwrap();
        let report = BatchAnnotator::new().run_all(&mut platform, 100).unwrap();
        // The workload is ~55% POI titles + city tags; a healthy
        // fraction must auto-annotate.
        assert!(
            report.with_annotations * 2 >= report.processed,
            "only {}/{} pictures annotated",
            report.with_annotations,
            report.processed
        );
    }
}
