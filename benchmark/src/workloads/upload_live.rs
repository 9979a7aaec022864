//! `upload_live`: the paper's write path end to end, one upload at a
//! time.
//!
//! One operation is `Platform::upload` → `flush_store()` (the upload
//! is acknowledged durable) → `view_album` of the live album around
//! the nearest monument shows the new link → that album's subscriber
//! holds it too. `context`, `text`, `lod.*`, `d2r`, `store`,
//! `durability` and `live.*` are all on the critical path, and every
//! commit bumps the store epoch, so `lod.cache` cannot help here.
//!
//! The op count is fixed by the time budget (120 uploads per second
//! of it), not by the clock: the work and the final store are the same
//! on every commit.

use std::time::Instant;

use lodify::context::Gazetteer;
use lodify::core::live::{PushHub, StandingQueryEngine};
use lodify::core::platform::{located_in_pred, subject_pred, with_buddy_pred, Platform};
use lodify::d2r::defaults::coppermine_mapping;
use lodify::d2r::dump::{dump_rdf, dump_resource};
use lodify::durability::{DurabilityOptions, DurableStore, FileStorage};
use lodify::lod::datasets::{load_lod, GRAPH_UGC};
use lodify::lod::{AnnotationResult, SemanticBroker, SemanticFilter};
use lodify::rdf::{Term, Triple};
use lodify::relational::coppermine as cpg;
use lodify::relational::workload::generate;
use lodify::store::{GraphId, Store};
use lodify::text::{extract_terms, LanguageDetector};

use super::{durability_counts, wal_bytes_between, WriteBench};
use crate::common::{ensure, Outcome, RunConfig, Tally};
use crate::fixture::live_spec;
use crate::spans::Recorder;
use crate::stats::{peak_rss_mb, MetricSet, Summary};

const UPLOADS_PER_SECOND: f64 = 120.0;
const WARM_UP_PER_SECOND: f64 = 6.0;

/// One whole operation; the new picture's receipt on success.
fn upload_op(bench: &mut WriteBench, index: usize) -> Result<usize, String> {
    let receipt = bench
        .platform
        .upload(bench.uploads[index].clone())
        .map_err(|e| format!("upload {index}: {e}"))?;
    bench
        .platform
        .flush_store()
        .map_err(|e| format!("flush after upload {index}: {e}"))?;
    bench.check_visible(index, receipt.pid)?;
    Ok(receipt.triples_added)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    let warm_up = cfg.ops(WARM_UP_PER_SECOND, 8);
    let measured = cfg.ops(UPLOADS_PER_SECOND, 40);
    let mut bench = WriteBench::build(cfg, warm_up + measured);

    let mut triples_added = 0;
    for index in 0..warm_up {
        let outcome = upload_op(&mut bench, index);
        triples_added += *outcome.as_ref().unwrap_or(&0);
        tally.require(outcome.map(|_| ()));
    }

    let mut latencies = Vec::with_capacity(measured);
    let started = Instant::now();
    for index in warm_up..warm_up + measured {
        let op_started = Instant::now();
        let outcome = upload_op(&mut bench, index);
        let ms = op_started.elapsed().as_secs_f64() * 1e3;
        triples_added += *outcome.as_ref().unwrap_or(&0);
        if tally.op(outcome.map(|_| ())) {
            latencies.push(ms);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    let setup_s = bench.setup_s;
    bench.finish(triples_added, &mut tally);

    let mut metrics = MetricSet::default();
    metrics.push(
        "ops_per_s",
        "1/s",
        latencies.len() as f64 / elapsed,
        latencies.len(),
    );
    metrics.latency("op_p50_ms", "op_p95_ms", Summary::of(&latencies));
    metrics.push("setup_s", "s", setup_s, cfg.scale.setup_reps);
    metrics.push("peak_rss_mb", "MiB", peak_rss_mb(), 1);
    Outcome {
        tally,
        metrics,
        spans: None,
    }
}

/// The base store as `Platform::bootstrap` builds it, from the same
/// public pieces: the LOD snapshots plus the D2R dump of the generated
/// relational base. Twins start from here, sharing nothing with the
/// platform under test.
fn seed_store(cfg: &RunConfig) -> Store {
    let mut store = Store::new();
    load_lod(&mut store, Gazetteer::global());
    let graph = store.graph(GRAPH_UGC);
    let workload = generate(cfg.scale.config(cfg.seed));
    let (triples, _) = dump_rdf(&workload.db, &coppermine_mapping()).expect("dump base");
    store.insert_all(&triples, graph);
    store
}

/// The triples an annotation result contributes for `pid`, as
/// `Platform::commit_staged` writes them.
fn annotation_triples(pid: i64, result: &AnnotationResult) -> Vec<Triple> {
    let subject = Term::Iri(Platform::picture_iri(pid));
    let link = |predicate, object: &lodify::rdf::Iri| {
        Triple::new_unchecked(subject.clone(), predicate, Term::Iri(object.clone()))
    };
    let mut triples = Vec::new();
    triples.extend(
        result
            .location
            .iter()
            .map(|city| link(located_in_pred(), city)),
    );
    triples.extend(
        result
            .buddies
            .iter()
            .map(|buddy| link(with_buddy_pred(), buddy)),
    );
    triples.extend(result.poi.iter().map(|poi| link(subject_pred(), poi)));
    triples.extend(
        result
            .terms
            .iter()
            .filter_map(|term| term.resource.as_ref())
            .map(|resource| link(subject_pred(), resource)),
    );
    triples
}

/// Everything picture `pid` added to the UGC graph, in commit order:
/// POI reference, picture row, annotations; and how many of them are
/// the POI reference's.
fn committed_triples(platform: &Platform, pid: i64, rec: &mut Recorder) -> (Vec<Triple>, usize) {
    let mapping = coppermine_mapping();
    let db = platform.db();
    let mut triples = Vec::new();
    let poi_refs = db.table(cpg::POI_REFS).expect("poi refs table");
    if let Some((ref_id, _)) = poi_refs.select(|row| row[1].as_int() == Some(pid)).next() {
        triples.extend(dump_resource(db, &mapping, cpg::POI_REFS, ref_id).expect("dump poi ref"));
    }
    let poi_triples = triples.len();
    triples.extend(
        rec.time("d2r.dump_resource", || {
            dump_resource(db, &mapping, cpg::PICTURES, pid)
        })
        .expect("dump picture"),
    );
    triples.extend(annotation_triples(pid, &platform.annotations()[&pid]));
    (triples, poi_triples)
}

/// Bench-owned twins of the layers under `commit_staged`: a plain
/// store, a file-backed durable store, a standing-query engine with
/// the same albums and a push hub with one subscriber each. They are
/// fed every upload's committed triples, so each sub-step can be timed
/// alone on the op's own input without touching the platform under
/// test.
struct Twins {
    store: Store,
    graph: GraphId,
    durable: DurableStore,
    durable_graph: GraphId,
    engine: StandingQueryEngine,
    hub: PushHub,
}

impl Twins {
    fn new(cfg: &RunConfig, bench: &mut WriteBench) -> Twins {
        let mut store = seed_store(cfg);
        let graph = store.graph(GRAPH_UGC);
        let storage = FileStorage::open(bench.fresh_dir("twin")).expect("open twin directory");
        let (mut durable, _) =
            DurableStore::open_or_adopt(Box::new(storage), DurabilityOptions::default(), || {
                seed_store(cfg)
            })
            .expect("adopt twin store");
        let durable_graph = durable.graph(GRAPH_UGC);
        let mut engine = StandingQueryEngine::new();
        let mut hub = PushHub::new();
        for (i, monument) in bench.monuments.iter().enumerate() {
            let album = engine.register(&store, &live_spec(monument));
            hub.subscribe(&format!("http://twin.example/{i}"), album, &engine);
        }
        hub.pump();
        Twins {
            store,
            graph,
            durable,
            durable_graph,
            engine,
            hub,
        }
    }

    /// Feeds one upload's triples through every twin under spans.
    /// Returns how many statements were new to the store.
    fn apply(&mut self, triples: &[Triple], rec: &mut Recorder) -> usize {
        let added = rec.time("store.insert", || {
            self.store.insert_all(triples, self.graph)
        });
        rec.time("durability.insert", || {
            self.durable.insert_all(triples, self.durable_graph)
        })
        .expect("twin insert");
        let diffs = rec.time("live.engine.apply", || {
            self.engine.apply(&self.store, triples, &[])
        });
        for diff in &diffs {
            self.hub.offer(diff);
        }
        rec.time("live.push.pump", || self.hub.pump());
        added
    }
}

/// The traced run. Even uploads go through `Platform::upload` whole;
/// odd uploads go through the same three stages driven from here under
/// spans, then the layers below re-run on bench-owned twins with the
/// op's own inputs.
pub fn trace(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    let warm_up = cfg.ops(WARM_UP_PER_SECOND, 8);
    let traced = cfg.scale.traced_ops;
    let mut bench = WriteBench::build(cfg, warm_up + traced);
    let mut metrics = MetricSet::default();

    let oracle_started = Instant::now();
    let mut twins = Twins::new(cfg, &mut bench);
    let broker = SemanticBroker::standard();
    let filter = SemanticFilter::standard();
    let oracle_s = oracle_started.elapsed().as_secs_f64();

    let mut triples_added = 0;
    for index in 0..warm_up {
        let outcome = upload_op(&mut bench, index);
        triples_added += *outcome.as_ref().unwrap_or(&0);
        tally.require(outcome.map(|_| ()));
        // Twins follow the platform through the warm-up too.
        let pid = bench.platform.picture_ids().last().copied().unwrap_or(0);
        let mut untraced = Recorder::new();
        let (triples, _) = committed_triples(&bench.platform, pid, &mut untraced);
        twins.apply(&triples, &mut untraced);
    }

    let durability_before = bench.durability();
    let cache_before = bench.platform.semantic_cache_stats();
    let live_before = bench.platform.live().ops();
    let mut rec = Recorder::new();
    let (mut whole_us, mut whole_ops) = (0.0, 0usize);
    // Views the operation itself makes: after a patched commit they
    // must be cache hits.
    let (mut view_hits, mut view_misses) = (0u64, 0u64);
    let mut wal_bytes = Vec::new();
    // Triples each shadowed op fed the twins, to turn its insert spans
    // into a cost per triple.
    let mut triples_per_op = Vec::new();
    let (mut per_term_resolve, mut per_term_filter) = (Vec::new(), Vec::new());
    let (mut terms, mut annotations, mut triples_per_upload) = (Vec::new(), Vec::new(), Vec::new());

    for index in warm_up..warm_up + traced {
        let upload = bench.uploads[index].clone();
        let stats_before = bench.durability();
        rec.next_op();
        let receipt = if index % 2 == 0 {
            let started = Instant::now();
            let receipt = bench.platform.upload(upload.clone());
            whole_us += started.elapsed().as_secs_f64() * 1e6;
            whole_ops += 1;
            receipt
        } else {
            let root = rec.enter("platform.upload");
            let staged = rec.time("context.stage", || {
                bench.platform.stage_upload(upload.clone())
            });
            let receipt = staged.and_then(|staged| {
                let result = rec.time("lod.annotate", || bench.platform.annotate_staged(&staged));
                terms.push(result.terms.len() as f64);
                rec.time("platform.commit", || {
                    bench.platform.commit_staged(staged, result, None)
                })
            });
            rec.exit(root);
            receipt
        };
        let flushed = rec.time("durability.flush", || bench.platform.flush_store());
        let views_before = bench.platform.album_cache_stats();
        let outcome = match (&receipt, &flushed) {
            (Ok(receipt), Ok(())) => bench.check_visible(index, receipt.pid),
            (Err(e), _) | (_, Err(e)) => Err(format!("upload {index}: {e}")),
        };
        tally.op(outcome);
        let views_after = bench.platform.album_cache_stats();
        view_hits += views_after.hits - views_before.hits;
        view_misses += views_after.misses - views_before.misses;
        let Ok(receipt) = receipt else { continue };
        // The album the commit patched is served from cache; the
        // nearest album of an upload outside every radius was not
        // patched, only invalidated, and is solved again.
        let (album, member) = bench.expected_album(index);
        let span = if member {
            "albums.view_hit"
        } else {
            "albums.view_miss"
        };
        let viewed = rec.time(span, || bench.platform.view_album(&bench.live[album].spec));
        std::hint::black_box(viewed).ok();
        triples_added += receipt.triples_added;
        triples_per_upload.push(receipt.triples_added as f64);
        annotations.push(receipt.auto_annotations as f64);
        wal_bytes.extend(wal_bytes_between(&stats_before, &bench.durability()));
        let pin = rec.time("store.pin", || bench.platform.store_snapshot());
        drop(pin);

        // Shadows: the layers under annotate and commit, one by one.
        let store = bench.platform.store();
        let list = rec.time("text.extract", || {
            extract_terms(&upload.title, &upload.tags)
        });
        let detected = rec.time("text.langdetect", || {
            LanguageDetector::global().detect(&upload.title)
        });
        std::hint::black_box(detected);
        let words: Vec<String> = list.terms.iter().map(|t| t.text.clone()).collect();
        let started = Instant::now();
        let resolved = broker.resolve(store, &words, &upload.title, list.language);
        if !words.is_empty() {
            per_term_resolve.push(started.elapsed().as_secs_f64() * 1e6 / words.len() as f64);
        }
        let started = Instant::now();
        for candidates in &resolved.terms {
            std::hint::black_box(filter.filter(store, &candidates.term, &candidates.candidates));
        }
        if !resolved.terms.is_empty() {
            per_term_filter
                .push(started.elapsed().as_secs_f64() * 1e6 / resolved.terms.len() as f64);
        }

        let (triples, poi_triples) = committed_triples(&bench.platform, receipt.pid, &mut rec);
        let added = twins.apply(&triples, &mut rec);
        triples_per_op.push(triples.len().max(1) as f64);
        // Receipts leave the POI-reference triples out.
        tally.require(ensure(added == receipt.triples_added + poi_triples, || {
            format!(
                "twin store took {added} triples for picture {}, the platform {} + {poi_triples}",
                receipt.pid, receipt.triples_added
            )
        }));
    }

    let durability_after = bench.durability();
    let cache_after = bench.platform.semantic_cache_stats();
    let live_after = bench.platform.live().ops();
    let recover_ms = bench.finish(triples_added, &mut tally);

    let per_upload = |delta: u64| delta as f64 / traced as f64;
    metrics.span_medians(
        &rec,
        &[
            "context.stage_us",
            "lod.annotate_us",
            "platform.commit_us",
            "durability.flush_us",
            "albums.view_hit_us",
            "albums.view_miss_us",
            "store.pin_us",
            "text.extract_us",
            "text.langdetect_us",
            "d2r.dump_resource_us",
            "live.engine.apply_us",
            "live.push.pump_us",
        ],
    );
    metrics.median("lod.broker.resolve_us_per_term", "us", &per_term_resolve);
    metrics.median("lod.filter_us_per_term", "us", &per_term_filter);
    for (span, metric) in [
        ("store.insert", "store.insert_us_per_triple"),
        ("durability.insert", "durability.insert_us_per_triple"),
    ] {
        let per_triple: Vec<f64> = rec
            .durations_us(span)
            .iter()
            .zip(&triples_per_op)
            .map(|(us, triples)| us / triples)
            .collect();
        metrics.median(metric, "us", &per_triple);
    }
    metrics.mean("store.triples_per_upload", "count", &triples_per_upload);
    metrics.mean("lod.terms_per_upload", "count", &terms);
    metrics.mean("lod.annotations_per_upload", "count", &annotations);
    durability_counts(
        &mut metrics,
        &durability_before,
        &durability_after,
        &wal_bytes,
        traced,
    );
    metrics.push("durability.recover_ms", "ms", recover_ms, 1);
    metrics.hit_ratio(
        "lod.cache.hit_ratio",
        cache_after.hits - cache_before.hits,
        cache_after.misses - cache_before.misses,
    );
    metrics.hit_ratio("albums.cache_hit_ratio", view_hits, view_misses);
    metrics.push(
        "live.diffs_per_upload",
        "count",
        per_upload(live_after.diffs - live_before.diffs),
        traced,
    );
    metrics.push(
        "live.push.delivered_per_upload",
        "count",
        per_upload(live_after.push.delivered - live_before.push.delivered),
        traced,
    );
    metrics.push("live.push.lag_end", "count", live_after.push.lag as f64, 1);

    // Whole uploads against driven ones: what `Platform::upload` adds
    // around its three stages, and what the spans cost.
    let driven: Vec<f64> = rec.durations_us("platform.upload");
    let stages: f64 = ["context.stage", "lod.annotate", "platform.commit"]
        .iter()
        .flat_map(|span| rec.durations_us(span))
        .sum();
    if whole_ops > 0 && !driven.is_empty() {
        let whole_mean = whole_us / whole_ops as f64;
        metrics.push(
            "platform.upload_residual_ratio",
            "ratio",
            (whole_mean - stages / driven.len() as f64) / whole_mean,
            whole_ops,
        );
        metrics.push(
            "loadgen.trace_overhead_ratio",
            "ratio",
            driven.iter().sum::<f64>() / driven.len() as f64 / whole_mean,
            driven.len(),
        );
    }
    metrics.push("loadgen.oracle_s", "s", oracle_s, 1);
    Outcome {
        tally,
        metrics,
        spans: Some(rec),
    }
}
