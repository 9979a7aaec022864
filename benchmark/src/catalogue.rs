//! The fixed names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. Later issues refer to these;
//! `../BENCHMARK.json` declares the same lists (a test keeps the two
//! in step).

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "http_browse",
        why: "read-only browse mix over a real loopback socket: web does most of the work, albums serve from cache, /about and /resource own the tail",
    },
    Workload {
        name: "sparql_direct",
        why: "Q1-Q3, mashup and an unselective BGP through Platform::query in process: bypasses web and the album cache, sparql and store scans do all the work",
    },
    Workload {
        name: "upload_live",
        why: "durable upload -> flush -> visible in its live album -> pushed to the subscriber, one at a time: every write-path layer, one barrier and one epoch per upload",
    },
    Workload {
        name: "mixed_rw",
        why: "batched ingest (16 per barrier, one epoch per batch) beside a reader on pinned snapshots: same layers as upload_live used differently, commits under a held pin",
    },
];

/// A gated number of the untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before `compare` flags a regression. The bounds are what this
    /// sandbox can resolve, not what one would like to gate on: runs
    /// of one commit differ by 5–20 % (interquartile range over
    /// median) as the host's other tenants come and go, and memory
    /// by up to 11 % — a data-dependent allocation step on the read
    /// workloads, copy-on-write under a reader's pin on `mixed_rw`
    /// (see README.md, "Noise").
    pub bound: f64,
}

/// The metrics every workload reports (and the driver reads).
///
/// `ops_per_s`, `op_p50_ms` and `op_p95_ms` describe the workload's
/// own operation — a browse request (throughput closed loop, latency
/// open loop from the due time), a SPARQL query, one upload made
/// durable, visible and pushed, or (mixed_rw) uploads per second and
/// the submit-to-committed time of one 16-upload batch.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Gated like [`END_TO_END`] by `compare`, but reported only by the
/// workloads that have them, so they live in the result files and not
/// on the driver's result line: the reader beside the writer in
/// `mixed_rw`, and the failure ratio (any increase is a breach).
pub const EXTRA: [EndToEnd; 4] = [
    EndToEnd {
        name: "reads_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "fail_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
    },
];

pub fn gated(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END
        .iter()
        .chain(EXTRA.iter())
        .find(|m| m.name == name)
}

/// An ungated number of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics, named after the repo's crates and modules. A
/// traced run reports every one; a layer the workload never enters
/// reads 0 with `n` = 0.
pub const PER_LAYER: [PerLayer; 65] = [
    layer("web.socket_wait_p50_us", "us", Lower),
    layer("web.parse_us", "us", Lower),
    layer("web.handle_us", "us", Lower),
    layer("web.response_bytes", "bytes", Lower),
    layer("web.route.search_us", "us", Lower),
    layer("web.route.album_us", "us", Lower),
    layer("web.route.picture_us", "us", Lower),
    layer("web.route.about_us", "us", Lower),
    layer("web.route.resource_us", "us", Lower),
    layer("web.connections", "count", Lower),
    layer("web.errors", "count", Lower),
    layer("web.timeouts", "count", Lower),
    layer("search.suggest_us", "us", Lower),
    layer("search.content_us", "us", Lower),
    layer("albums.view_hit_us", "us", Lower),
    layer("albums.view_miss_us", "us", Lower),
    layer("albums.cache_hit_ratio", "ratio", Higher),
    layer("mashup.about_us", "us", Lower),
    layer("sparql.fingerprint_us", "us", Lower),
    layer("sparql.cache.lookup_us", "us", Lower),
    layer("sparql.parse_us", "us", Lower),
    layer("sparql.plan_us", "us", Lower),
    layer("sparql.eval_us", "us", Lower),
    layer("sparql.cache.hit_ratio", "ratio", Higher),
    layer("sparql.eval.rows_examined_per_result", "ratio", Lower),
    layer("sparql.eval.scan_share", "ratio", Lower),
    layer("sparql.eval.join_share", "ratio", Lower),
    layer("sparql.eval.filter_share", "ratio", Lower),
    layer("sparql.eval.sort_share", "ratio", Lower),
    layer("sparql.query_residual_ratio", "ratio", Lower),
    layer("store.insert_us_per_triple", "us", Lower),
    layer("store.pin_us", "us", Lower),
    layer("store.triples_per_upload", "count", Lower),
    layer("store.commit_pinned_ratio", "ratio", Lower),
    layer("durability.insert_us_per_triple", "us", Lower),
    layer("durability.flush_us", "us", Lower),
    layer("durability.wal_bytes_per_upload", "bytes", Lower),
    layer("durability.records_per_upload", "count", Lower),
    layer("durability.flushes_per_upload", "count", Lower),
    layer("durability.snapshots_written", "count", Higher),
    layer("durability.recover_ms", "ms", Lower),
    layer("context.stage_us", "us", Lower),
    layer("text.extract_us", "us", Lower),
    layer("text.langdetect_us", "us", Lower),
    layer("lod.annotate_us", "us", Lower),
    layer("lod.broker.resolve_us_per_term", "us", Lower),
    layer("lod.filter_us_per_term", "us", Lower),
    layer("lod.terms_per_upload", "count", Lower),
    layer("lod.annotations_per_upload", "count", Higher),
    layer("lod.cache.hit_ratio", "ratio", Higher),
    layer("d2r.dump_resource_us", "us", Lower),
    layer("platform.commit_us", "us", Lower),
    layer("platform.upload_residual_ratio", "ratio", Lower),
    layer("live.engine.apply_us", "us", Lower),
    layer("live.push.pump_us", "us", Lower),
    layer("live.diffs_per_upload", "count", Lower),
    layer("live.push.delivered_per_upload", "count", Lower),
    layer("live.push.lag_end", "count", Lower),
    layer("ingest.stage_ms", "ms", Lower),
    layer("ingest.annotate_busy_ms", "ms", Lower),
    layer("ingest.commit_ms", "ms", Lower),
    layer("ingest.batch_ms", "ms", Lower),
    layer("loadgen.sched_lag_p95_ms", "ms", Lower),
    layer("loadgen.trace_overhead_ratio", "ratio", Lower),
    layer("loadgen.oracle_s", "s", Lower),
];

/// What `../BENCHMARK.json` must say: the command the driver runs,
/// the directories that hold the benchmark, and the lists above.
/// `ledger manifest` prints it.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj(vec![
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(crate::DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().chain(EXTRA.iter()).map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &all {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{name}"
            );
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let declared = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(declared, manifest(), "regenerate it with `ledger manifest`");
    }
}
