//! Pieces every workload shares: run parameters, the pass/fail tally
//! and the digests correctness checks compare.

use lodify::sparql::QueryResults;
use lodify::store::Store;

use crate::fixture::Scale;
use crate::spans::Recorder;
use crate::stats::MetricSet;

/// Parameters of one run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Budget of the timed phases. Read-only workloads run this long;
    /// mutating workloads run an op count proportional to it, so the
    /// work and the final store are identical on every commit.
    pub seconds: f64,
    pub scale: Scale,
}

impl RunConfig {
    /// An op count proportional to the time budget.
    pub fn ops(&self, per_second: f64, at_least: usize) -> usize {
        ((self.seconds * per_second).round() as usize).max(at_least)
    }
}

/// What a run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: MetricSet,
    /// Only the traced run records spans.
    pub spans: Option<Recorder>,
}

/// Attempted/failed bookkeeping. Anything that is not a verified
/// success — a non-200, a wrong body, an `Err`, an invisible upload, a
/// request never sent — is a failure and gets no latency sample.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the operator.
    pub examples: Vec<String>,
}

impl Tally {
    /// Counts one operation; returns whether it passed.
    pub fn op(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        self.require(outcome)
    }

    /// Records a failed end-of-run check (not an operation).
    pub fn require(&mut self, outcome: Result<(), String>) -> bool {
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.examples.len() < 8 {
                    self.examples.push(why);
                }
                false
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in other.examples {
            if self.examples.len() < 8 {
                self.examples.push(why);
            }
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub fn ensure(condition: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(why())
    }
}

/// FNV-1a, 64 bit: a digest that is the same in every process.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Order-sensitive digest of a result table (variables, then every
/// cell in N-Triples form).
pub fn rows_digest(results: &QueryResults) -> u64 {
    let mut text = results.vars.join("\t");
    for row in &results.rows {
        text.push('\n');
        for cell in row {
            if let Some(term) = cell {
                text.push_str(&term.to_string());
            }
            text.push('\t');
        }
    }
    fnv1a(text.as_bytes())
}

/// Digest of a store's statements as a *set* of N-Triples lines: the
/// line count and the wrapping sum of the lines' digests. A store
/// recovered from a compacted snapshot numbers its terms differently,
/// so export order may differ while the content may not. The export is
/// streamed through the digest, never held: a 19 MB document would
/// otherwise show up in `peak_rss_mb`.
pub fn ntriples_digest(store: &Store) -> (usize, u64) {
    let mut digest = LineDigest::default();
    store
        .export_ntriples_to(&mut digest, None)
        .expect("the digest sink cannot fail");
    (digest.lines, digest.sum)
}

#[derive(Default)]
struct LineDigest {
    line: Vec<u8>,
    lines: usize,
    sum: u64,
}

impl std::fmt::Write for LineDigest {
    fn write_str(&mut self, text: &str) -> std::fmt::Result {
        for chunk in text.split_inclusive('\n') {
            self.line.extend_from_slice(chunk.as_bytes());
            if chunk.ends_with('\n') {
                self.sum = self.sum.wrapping_add(fnv1a(&self.line));
                self.lines += 1;
                self.line.clear();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_failures_and_keeps_examples() {
        let mut tally = Tally::default();
        assert!(tally.op(Ok(())));
        assert!(!tally.op(Err("status 500".into())));
        assert!(!tally.require(Err("store mismatch".into())));
        assert_eq!((tally.attempted, tally.failed), (2, 2));
        assert_eq!(tally.examples, vec!["status 500", "store mismatch"]);
        assert_eq!(tally.fail_ratio(), 1.0);
    }

    #[test]
    fn line_digest_ignores_order_but_not_content() {
        use std::fmt::Write as _;
        let digest = |chunks: &[&str]| {
            let mut d = LineDigest::default();
            for chunk in chunks {
                d.write_str(chunk).unwrap();
            }
            (d.lines, d.sum)
        };
        let forward = digest(&["<a> <p> ", "\"x\" .\n<b> <p> \"y\" .\n"]);
        assert_eq!(forward.0, 2);
        assert_eq!(forward, digest(&["<b> <p> \"y\" .\n", "<a> <p> \"x\" .\n"]));
        assert_ne!(forward, digest(&["<a> <p> \"x\" .\n<b> <p> \"z\" .\n"]));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
