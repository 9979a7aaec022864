//! `mixed_rw`: batched ingest beside a reader, two threads.
//!
//! The writer pushes batches of 16 uploads through
//! `IngestPool::new(1).ingest` on the durable platform — one WAL
//! barrier and one store epoch per batch, so `lod.cache` hits — and
//! publishes `platform.store_snapshot()` after each. The reader runs a
//! closed loop of Q1/Q3 (`execute_snapshot`) and `SearchService::
//! suggest` on the latest published snapshot until the writer is done,
//! so every commit happens under a held pin.
//!
//! `ops_per_s` is uploads per second, `op_p50_ms`/`op_p95_ms` the
//! submit-to-committed time of one batch; the reader's side is
//! reported as `reads_per_s`, `read_p50_ms`, `read_p95_ms`. The batch
//! count is fixed by the time budget (6 per second of it).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lodify::core::platform::UploadReceipt;
use lodify::core::search::SearchService;
use lodify::core::web::url_decode;
use lodify::core::IngestPool;
use lodify::sparql;
use lodify::store::StoreSnapshot;

use super::{durability_counts, media_link, wal_bytes_between, WriteBench};
use crate::common::{ensure, rows_digest, Outcome, RunConfig, Tally};
use crate::fixture;
use crate::gen::{self, QueryClass};
use crate::spans::Recorder;
use crate::stats::{peak_rss_mb, MetricSet, Summary};

pub const BATCH: usize = 16;
const BATCHES_PER_SECOND: f64 = 6.0;
const WARM_UP_BATCHES: usize = 3;
/// Accepted candidates kept per reader op kind.
const POOL: usize = 32;

enum ReadOp {
    /// Q1: uploads only ever add pictures, so the answer on any later
    /// snapshot contains the base answer, plus links of new pictures.
    Q1 { text: String, base: HashSet<String> },
    /// Q3 requires a rating, which no upload carries: the answer never
    /// changes.
    Q3 { text: String, digest: u64 },
    /// Suggestions come from LOD labels only; new content can crowd
    /// some out of the fixed-size window but never adds one.
    Suggest {
        prefix: String,
        all: HashSet<String>,
    },
}

/// The reader's op cycle (Q1, suggest, Q3, suggest, Q1) over pools
/// accepted against the base snapshot.
fn read_ops(cfg: &RunConfig, bench: &WriteBench, tally: &mut Tally) -> Vec<ReadOp> {
    let catalog = fixture::catalog(&bench.platform);
    let base = bench.platform.store_snapshot();
    let mut candidates = gen::sparql_candidates(cfg.seed, &catalog);
    let mut accepted = |class: QueryClass| -> Vec<(String, sparql::QueryResults)> {
        let slot = QueryClass::ALL
            .iter()
            .position(|c| *c == class)
            .expect("listed class");
        std::mem::take(&mut candidates[slot])
            .into_iter()
            .filter_map(|op| {
                let results = sparql::execute(&base, &op.text).ok()?;
                (!results.is_empty()).then_some((op.text, results))
            })
            .take(POOL)
            .collect()
    };
    let q1: Vec<ReadOp> = accepted(QueryClass::Q1)
        .into_iter()
        .map(|(text, results)| ReadOp::Q1 {
            text,
            base: links(&results).into_iter().collect(),
        })
        .collect();
    let q3: Vec<ReadOp> = accepted(QueryClass::Q3)
        .into_iter()
        .map(|(text, results)| ReadOp::Q3 {
            text,
            digest: rows_digest(&results),
        })
        .collect();
    let suggest: Vec<ReadOp> = gen::http_candidates(cfg.seed, &catalog)
        .search
        .into_iter()
        .map(|target| url_decode(target.trim_start_matches("/search?q=")))
        .filter(|prefix| !SearchService::suggest(&base, prefix, 8).is_empty())
        .take(POOL)
        .map(|prefix| ReadOp::Suggest {
            all: SearchService::suggest(&base, &prefix, 4096)
                .into_iter()
                .map(|s| s.resource.as_str().to_string())
                .collect(),
            prefix,
        })
        .collect();
    for (kind, pool) in [("Q1", &q1), ("Q3", &q3), ("suggest", &suggest)] {
        tally.require(ensure(!pool.is_empty(), || {
            format!("no {kind} candidate has a non-empty answer")
        }));
    }
    // Interleave: positions 0 and 4 of every five take Q1, 2 takes Q3,
    // 1 and 3 take suggest.
    let mut pools = [q1.into_iter(), suggest.into_iter(), q3.into_iter()];
    let mut ops = Vec::new();
    for slot in [0, 1, 2, 1, 0].into_iter().cycle() {
        match pools[slot].next() {
            Some(op) => ops.push(op),
            None => return ops,
        }
    }
    ops
}

fn links(results: &sparql::QueryResults) -> Vec<String> {
    results
        .column("link")
        .into_iter()
        .map(|t| t.lexical().to_string())
        .collect()
}

fn read(op: &ReadOp, snapshot: &StoreSnapshot, first_new_pid: i64) -> Result<(), String> {
    match op {
        ReadOp::Q1 { text, base } => {
            let (results, epoch) =
                sparql::execute_snapshot(snapshot, text).map_err(|e| e.to_string())?;
            ensure(epoch == snapshot.epoch(), || {
                "answer from another epoch".to_string()
            })?;
            let links = links(&results);
            let old = links.iter().filter(|l| base.contains(*l)).count();
            ensure(old == base.len(), || {
                format!("Q1 lost base pictures ({old} of {}): {text}", base.len())
            })?;
            let new_ok = links.iter().filter(|l| !base.contains(*l)).all(|l| {
                l.rsplit('/')
                    .next()
                    .and_then(|f| f.trim_end_matches(".jpg").parse::<i64>().ok())
                    .is_some_and(|pid| pid >= first_new_pid)
            });
            ensure(new_ok, || format!("Q1 returned an unknown link: {text}"))
        }
        ReadOp::Q3 { text, digest } => {
            let (results, _) =
                sparql::execute_snapshot(snapshot, text).map_err(|e| e.to_string())?;
            ensure(rows_digest(&results) == *digest, || {
                format!("Q3 rows differ from the oracle's: {text}")
            })
        }
        ReadOp::Suggest { prefix, all } => {
            let hits = SearchService::suggest(snapshot, prefix, 8);
            ensure(
                hits.iter().all(|s| all.contains(s.resource.as_str())),
                || format!("suggest({prefix}) returned a resource the base does not have"),
            )
        }
    }
}

/// After the last batch: every accepted upload is in the view of its
/// album and at that album's subscriber (or in neither).
fn check_all_visible(bench: &WriteBench, pids: &[(usize, i64)], tally: &mut Tally) {
    let mut views: HashMap<usize, [HashSet<String>; 2]> = HashMap::new();
    for &(index, pid) in pids {
        let (album, expected) = bench.expected_album(index);
        let [viewed, pushed] = views.entry(album).or_insert_with(|| {
            let live = &bench.live[album];
            let hub = bench.platform.live().hub();
            [
                bench.platform.view_album(&live.spec).unwrap_or_default(),
                hub.subscriber(live.subscriber)
                    .map(|s| s.links())
                    .unwrap_or_default(),
            ]
            .map(|links| links.into_iter().collect())
        });
        let link = media_link(pid);
        tally.require(ensure(
            viewed.contains(&link) == expected && pushed.contains(&link) == expected,
            || format!("picture {pid}: visibility differs from expected {expected}"),
        ));
    }
}

/// One batch through the pool, counted in `tally`. Returns the
/// receipts and the timings `[stage, annotate_busy, commit, wall]` in
/// ms — the first three from the pool's own report.
fn ingest(
    bench: &mut WriteBench,
    pool: &IngestPool,
    batch: usize,
    tally: &mut Tally,
) -> Option<(Vec<UploadReceipt>, [f64; 4])> {
    let uploads = bench.uploads[batch * BATCH..(batch + 1) * BATCH].to_vec();
    let started = Instant::now();
    let report = pool.ingest(&mut bench.platform, uploads);
    let wall = started.elapsed();
    let clean = ensure(report.is_clean() && report.receipts.len() == BATCH, || {
        format!(
            "batch {batch}: {} receipts, {} failures, flush error {:?}",
            report.receipts.len(),
            report.failures.len(),
            report.flush_error
        )
    });
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    tally.op(clean).then_some((
        report.receipts,
        [
            ms(report.stage),
            ms(report.annotate_busy),
            ms(report.commit),
            ms(wall),
        ],
    ))
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    let batches = cfg.ops(BATCHES_PER_SECOND, 6);
    let mut bench = WriteBench::build(cfg, (WARM_UP_BATCHES + batches) * BATCH);
    let ops = read_ops(cfg, &bench, &mut tally);
    let first_new_pid = bench.first_new_pid;
    let pool = IngestPool::new(1);

    let mut triples_added = 0;
    let mut pids = Vec::new();
    let mut record = |batch: usize, receipts: &[UploadReceipt]| {
        for (k, receipt) in receipts.iter().enumerate() {
            triples_added += receipt.triples_added;
            pids.push((batch * BATCH + k, receipt.pid));
        }
    };
    for batch in 0..WARM_UP_BATCHES {
        if let Some((receipts, _)) = ingest(&mut bench, &pool, batch, &mut tally) {
            record(batch, &receipts);
        }
    }

    let published = Mutex::new(bench.platform.store_snapshot());
    let done = AtomicBool::new(false);
    let mut batch_ms = Vec::with_capacity(batches);
    let mut writer_tally = Tally::default();
    let started = Instant::now();
    let (read_ms, reader_tally, elapsed) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut tally = Tally::default();
            let mut latencies = Vec::new();
            for op in ops.iter().cycle() {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                // The pin is held for the whole read: the writer's
                // next commit copies what this snapshot shares.
                let snapshot = published.lock().expect("publisher never panics").clone();
                let op_started = Instant::now();
                let outcome = read(op, &snapshot, first_new_pid);
                let ms = op_started.elapsed().as_secs_f64() * 1e3;
                if tally.op(outcome) {
                    latencies.push(ms);
                }
            }
            (latencies, tally)
        });
        for batch in WARM_UP_BATCHES..WARM_UP_BATCHES + batches {
            if let Some((receipts, timings)) = ingest(&mut bench, &pool, batch, &mut writer_tally) {
                batch_ms.push(timings[3]);
                record(batch, &receipts);
            }
            *published.lock().expect("reader never panics") = bench.platform.store_snapshot();
        }
        let elapsed = started.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        let (latencies, tally) = reader.join().expect("reader thread");
        (latencies, tally, elapsed)
    });
    drop(published);
    tally.merge(writer_tally);
    tally.merge(reader_tally);

    check_all_visible(&bench, &pids, &mut tally);
    let setup_s = bench.setup_s;
    bench.finish(triples_added, &mut tally);

    let mut metrics = MetricSet::default();
    let uploads = batch_ms.len() * BATCH;
    metrics.push("ops_per_s", "1/s", uploads as f64 / elapsed, uploads);
    metrics.latency("op_p50_ms", "op_p95_ms", Summary::of(&batch_ms));
    metrics.push("setup_s", "s", setup_s, cfg.scale.setup_reps);
    metrics.push("peak_rss_mb", "MiB", peak_rss_mb(), 1);
    metrics.push(
        "reads_per_s",
        "1/s",
        read_ms.len() as f64 / elapsed,
        read_ms.len(),
    );
    metrics.latency("read_p50_ms", "read_p95_ms", Summary::of(&read_ms));
    Outcome {
        tally,
        metrics,
        spans: None,
    }
}

/// The traced run: one thread, a fixed number of batches. Odd batches
/// commit while a reader-style pin of the previous version is held,
/// even batches after it was dropped; the pool's own report gives the
/// stage split.
pub fn trace(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    let batches = cfg.scale.traced_ops / BATCH;
    let mut bench = WriteBench::build(cfg, (WARM_UP_BATCHES + batches) * BATCH);
    let oracle_started = Instant::now();
    let ops = read_ops(cfg, &bench, &mut tally);
    let oracle_s = oracle_started.elapsed().as_secs_f64();
    let first_new_pid = bench.first_new_pid;
    let pool = IngestPool::new(1);
    let mut metrics = MetricSet::default();

    let mut triples_added = 0;
    let mut pids = Vec::new();
    let mut per_upload = [Vec::new(), Vec::new()];
    let mut record = |batch: usize, receipts: &[UploadReceipt]| {
        for (k, receipt) in receipts.iter().enumerate() {
            triples_added += receipt.triples_added;
            pids.push((batch * BATCH + k, receipt.pid));
            per_upload[0].push(receipt.triples_added as f64);
            per_upload[1].push(receipt.auto_annotations as f64);
        }
    };
    for batch in 0..WARM_UP_BATCHES {
        if let Some((receipts, _)) = ingest(&mut bench, &pool, batch, &mut tally) {
            record(batch, &receipts);
        }
    }

    let durability_before = bench.durability();
    let cache_before = bench.platform.semantic_cache_stats();
    let live_before = bench.platform.live().ops();
    let mut rec = Recorder::new();
    let mut timings: [Vec<f64>; 4] = Default::default();
    let mut commit_ms = [Vec::new(), Vec::new()];
    let mut wal_bytes = Vec::new();
    let mut plain_ms = 0.0;
    let mut reads = ops.iter().cycle();
    for batch in WARM_UP_BATCHES..WARM_UP_BATCHES + batches {
        let pinned = batch % 2 == 1;
        let pin = rec.time("store.pin", || bench.platform.store_snapshot());
        let held = pinned.then_some(pin);
        let stats_before = bench.durability();
        rec.next_op();
        let span = rec.enter("ingest.batch");
        let outcome = ingest(&mut bench, &pool, batch, &mut tally);
        rec.exit(span);
        drop(held);
        if let Some((receipts, report)) = outcome {
            record(batch, &receipts);
            for (samples, ms) in timings.iter_mut().zip(report) {
                samples.push(ms);
            }
            commit_ms[usize::from(pinned)].push(report[2]);
            plain_ms += report[3];
            wal_bytes.extend(
                wal_bytes_between(&stats_before, &bench.durability())
                    .map(|bytes| bytes / BATCH as f64),
            );
        }
        // What the reader would run now, on the version just committed.
        let snapshot = bench.platform.store_snapshot();
        for op in reads.by_ref().take(5) {
            let name = match op {
                ReadOp::Suggest { .. } => "search.suggest",
                _ => "sparql.read",
            };
            let outcome = rec.time(name, || read(op, &snapshot, first_new_pid));
            tally.op(outcome);
        }
    }

    let durability_after = bench.durability();
    let cache_after = bench.platform.semantic_cache_stats();
    let live_after = bench.platform.live().ops();
    check_all_visible(&bench, &pids, &mut tally);
    let recover_ms = bench.finish(triples_added, &mut tally);

    let uploads = batches * BATCH;
    for (name, samples) in [
        "ingest.stage_ms",
        "ingest.annotate_busy_ms",
        "ingest.commit_ms",
        "ingest.batch_ms",
    ]
    .into_iter()
    .zip(&timings)
    {
        metrics.median(name, "ms", samples);
    }
    let [unpinned, pinned] = commit_ms.map(|ms| Summary::of(&ms));
    if let (Some(unpinned), Some(pinned)) = (unpinned, pinned) {
        metrics.push(
            "store.commit_pinned_ratio",
            "ratio",
            pinned.p50 / unpinned.p50,
            pinned.n + unpinned.n,
        );
    }
    metrics.span_medians(&rec, &["store.pin_us", "search.suggest_us"]);
    metrics.mean("store.triples_per_upload", "count", &per_upload[0]);
    metrics.mean("lod.annotations_per_upload", "count", &per_upload[1]);
    durability_counts(
        &mut metrics,
        &durability_before,
        &durability_after,
        &wal_bytes,
        uploads,
    );
    metrics.push("durability.recover_ms", "ms", recover_ms, 1);
    metrics.hit_ratio(
        "lod.cache.hit_ratio",
        cache_after.hits - cache_before.hits,
        cache_after.misses - cache_before.misses,
    );
    metrics.push(
        "live.diffs_per_upload",
        "count",
        (live_after.diffs - live_before.diffs) as f64 / uploads as f64,
        uploads,
    );
    metrics.push(
        "live.push.delivered_per_upload",
        "count",
        (live_after.push.delivered - live_before.push.delivered) as f64 / uploads as f64,
        uploads,
    );
    metrics.push("live.push.lag_end", "count", live_after.push.lag as f64, 1);
    let traced_ms: f64 = rec.durations_us("ingest.batch").iter().sum::<f64>() / 1e3;
    metrics.push(
        "loadgen.trace_overhead_ratio",
        "ratio",
        traced_ms / plain_ms,
        batches,
    );
    metrics.push("loadgen.oracle_s", "s", oracle_s, 1);
    Outcome {
        tally,
        metrics,
        spans: Some(rec),
    }
}
