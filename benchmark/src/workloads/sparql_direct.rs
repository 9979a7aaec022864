//! `sparql_direct`: the paper's queries through `Platform::query`, in
//! process, one thread, closed loop.
//!
//! Bypasses `web` and the album cache entirely, so `sparql` (plan
//! cache, parse, plan, eval) and `store` scans do all the work. A
//! `web` change must not move this workload; a scan or join change
//! must.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lodify::core::albums::relational_baseline;
use lodify::core::mashup::MashupService;
use lodify::core::platform::Platform;
use lodify::sparql::{
    self, CardinalityProfile, EvalOptions, OperatorKind, PlanCache, PlanLookup, QueryResults,
};

use crate::common::{ensure, rows_digest, Outcome, RunConfig, Tally};
use crate::fixture::{self, timed_setup};
use crate::gen::{self, QueryClass, SparqlOp};
use crate::spans::Recorder;
use crate::stats::{peak_rss_mb, MetricSet, Summary};

/// Forty dealt decks.
const STREAM_LEN: usize = 4000;
/// Accepted queries kept per class (Q1 keeps every monument × radius).
const POOL: usize = 48;
/// Mashup queries name their picture by IRI, which the plan cache's
/// fingerprint keeps: every new picture plans afresh (≈70 ms against
/// ≈30 ms to evaluate). A pool this small is fully planned by the
/// warm-up, so the timed phase sees cache hits only; with a larger one
/// the queries that planned were about one in twenty, sat exactly on
/// the p95, and moved it between 30 and 100 ms from run to run.
const MASHUP_POOL: usize = 8;
/// The stream's last deck: ten mashup queries, so all eight texts.
const WARM_UP: usize = 100;
/// The steps of one query the traced run drives itself, by span name.
const STEPS: [&str; 5] = [
    "sparql.fingerprint",
    "sparql.cache.lookup",
    "sparql.parse",
    "sparql.plan",
    "sparql.eval",
];

struct Bench {
    platform: Platform,
    stream: Vec<SparqlOp>,
    /// Expected result digest per distinct query text.
    expected: HashMap<String, u64>,
    setup_s: f64,
    oracle_s: f64,
}

fn links(results: &QueryResults) -> Vec<String> {
    let mut links: Vec<String> = results
        .column("link")
        .into_iter()
        .map(|t| t.lexical().to_string())
        .collect();
    links.sort_unstable();
    links
}

/// Builds the fixture and the oracle: every candidate runs once through
/// the plain engine (`lodify_sparql::execute`, no plan cache) on the
/// same store; empty answers are rejected, and every Q1 must also equal
/// the relational scan.
fn build(cfg: &RunConfig, tally: &mut Tally) -> Bench {
    let (platform, setup_s) = timed_setup(cfg.scale.setup_reps, || {
        fixture::read_platform(cfg.seed, cfg.scale)
    });

    let oracle_started = Instant::now();
    let catalog = fixture::catalog(&platform);
    let snapshot = platform.store_snapshot();
    let mut expected = HashMap::new();
    let pools: Vec<Vec<SparqlOp>> = gen::sparql_candidates(cfg.seed, &catalog)
        .into_iter()
        .map(|candidates| {
            let mut pool = Vec::new();
            for op in candidates {
                let room = match op.class {
                    QueryClass::Q1 => usize::MAX,
                    QueryClass::Mashup => MASHUP_POOL,
                    _ => POOL,
                };
                if pool.len() >= room {
                    break;
                }
                let results = match sparql::execute_snapshot(&snapshot, &op.text) {
                    Ok((results, _)) if !results.is_empty() => results,
                    Ok(_) => continue,
                    Err(e) => {
                        tally.require(Err(format!("oracle: {e}: {}", op.text)));
                        continue;
                    }
                };
                if let Some((point, radius)) = op.q1 {
                    let mut baseline =
                        relational_baseline(platform.db(), point, radius, None, false)
                            .unwrap_or_default();
                    baseline.sort_unstable();
                    tally.require(ensure(links(&results) == baseline, || {
                        format!("Q1 differs from the relational baseline: {}", op.text)
                    }));
                }
                expected.insert(op.text.clone(), rows_digest(&results));
                pool.push(op);
            }
            pool
        })
        .collect();
    for (class, pool) in QueryClass::ALL.iter().zip(&pools) {
        tally.require(ensure(!pool.is_empty(), || {
            format!("no {class:?} candidate has a non-empty answer")
        }));
    }
    let stream = gen::sparql_stream(cfg.seed, &pools, STREAM_LEN);
    let oracle_s = oracle_started.elapsed().as_secs_f64();

    Bench {
        platform,
        stream,
        expected,
        setup_s,
        oracle_s,
    }
}

impl Bench {
    fn check(&self, op: &SparqlOp, results: &QueryResults) -> Result<(), String> {
        ensure(
            self.expected.get(&op.text) == Some(&rows_digest(results)),
            || format!("rows differ from the oracle's: {}", op.text),
        )
    }

    /// One query through the platform, verified; the latency in ms.
    fn query(&self, op: &SparqlOp, tally: &mut Tally) -> Option<f64> {
        let started = Instant::now();
        let results = self.platform.query(&op.text);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let verdict = match &results {
            Ok(results) => self.check(op, results),
            Err(e) => Err(format!("{e}: {}", op.text)),
        };
        tally.op(verdict).then_some(ms)
    }

    /// A stretch of the stream long enough to meet every mashup text.
    fn warm_up(&self, tally: &mut Tally) {
        for op in &self.stream[STREAM_LEN - WARM_UP..] {
            self.query(op, tally);
        }
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    let bench = build(cfg, &mut tally);
    bench.warm_up(&mut tally);

    let budget = Duration::from_secs_f64(cfg.seconds);
    let started = Instant::now();
    let mut latencies = Vec::new();
    let mut i = 0;
    while started.elapsed() < budget {
        latencies.extend(bench.query(&bench.stream[i % STREAM_LEN], &mut tally));
        i += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();

    let mut metrics = MetricSet::default();
    metrics.push(
        "ops_per_s",
        "1/s",
        latencies.len() as f64 / elapsed,
        latencies.len(),
    );
    metrics.latency("op_p50_ms", "op_p95_ms", Summary::of(&latencies));
    metrics.push("setup_s", "s", bench.setup_s, cfg.scale.setup_reps);
    metrics.push("peak_rss_mb", "MiB", peak_rss_mb(), 1);
    Outcome {
        tally,
        metrics,
        spans: None,
    }
}

/// The traced run: a fixed number of queries, each once through
/// `Platform::query` and once through the same pipeline driven from
/// here — fingerprint, a bench-owned plan cache, parse, plan,
/// evaluate — under spans.
pub fn trace(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    let bench = build(cfg, &mut tally);
    bench.warm_up(&mut tally);
    let platform = &bench.platform;
    let store = platform.store();
    let ops = &bench.stream[..cfg.scale.traced_ops];
    let mut metrics = MetricSet::default();

    let plans = PlanCache::new();
    let cardinality = CardinalityProfile::new();
    // One query through the steps `Platform::query` takes, each under
    // its own span.
    let drive = |rec: &mut Recorder, op: &SparqlOp| {
        rec.next_op();
        let root = rec.enter("sparql.query");
        let fingerprint = rec.time("sparql.fingerprint", || sparql::fingerprint(&op.text));
        let lookup = rec.time("sparql.cache.lookup", || {
            plans.lookup(&fingerprint, &op.text)
        });
        let parse = |rec: &mut Recorder| {
            Arc::new(
                rec.time("sparql.parse", || sparql::parse(&op.text))
                    .expect("oracle-checked"),
            )
        };
        let (parsed, cached) = match lookup {
            PlanLookup::Hit { query, plan } => (query, Some(plan)),
            PlanLookup::PlanOnly { plan } => (parse(rec), Some(plan)),
            PlanLookup::Miss => (parse(rec), None),
        };
        let plan = cached.unwrap_or_else(|| {
            let plan = Arc::new(rec.time("sparql.plan", || {
                sparql::plan_query(store, &parsed, Some(&cardinality))
            }));
            plans.insert(&fingerprint, &op.text, parsed.clone(), plan.clone());
            plan
        });
        let evaluated = rec.time("sparql.eval", || {
            sparql::evaluate_planned(store, &parsed, EvalOptions::default(), &plan)
        });
        rec.exit(root);
        if let Ok((_, report)) = &evaluated {
            cardinality.absorb(&report.profile);
        }
        evaluated
    };
    // The driven pipeline gets the warm-up the platform's cache had.
    // Only here does anything plan: once per class, once per mashup
    // picture.
    let mut warm = Recorder::new();
    for op in &bench.stream[STREAM_LEN - WARM_UP..] {
        drive(&mut warm, op).ok();
    }
    metrics.span_medians(&warm, &["sparql.plan_us"]);

    let cache_before = platform.plan_cache_stats();
    let mut rec = Recorder::new();
    let mut plain_us = 0.0;
    let mut by_kind = [0u64; 4];
    let (mut examined, mut produced) = (0u64, 0u64);
    // Each query runs both ways back to back, the order alternating, so
    // the host's drift and the warmth the first run leaves the second
    // cancel out of the residual.
    for (i, op) in ops.iter().enumerate() {
        let plain = |tally: &mut Tally| bench.query(op, tally).unwrap_or(0.0) * 1e3;
        let evaluated = if i % 2 == 0 {
            plain_us += plain(&mut tally);
            drive(&mut rec, op)
        } else {
            let evaluated = drive(&mut rec, op);
            plain_us += plain(&mut tally);
            evaluated
        };
        let Ok((results, report)) = evaluated else {
            tally.op(Err(format!("driven evaluation failed: {}", op.text)));
            continue;
        };
        tally.op(bench.check(op, &results));
        for operator in report.profile.operators() {
            let slot = match operator.kind {
                OperatorKind::Scan => 0,
                OperatorKind::Join => 1,
                OperatorKind::Filter => 2,
                OperatorKind::Sort => 3,
            };
            by_kind[slot] += operator.elapsed_us;
            if slot < 2 {
                examined += operator.input_rows.max(operator.output_rows);
            }
        }
        produced += results.len() as u64;

        if op.class == QueryClass::Mashup {
            let picture = Platform::picture_iri(op.picture.expect("mashup ops name a picture"));
            let mashup = rec.time("mashup.about", || {
                MashupService::standard().about(store, &picture)
            });
            std::hint::black_box(mashup).ok();
        }
    }

    let cache_after = platform.plan_cache_stats();
    let (hits, misses) = (
        cache_after.hits - cache_before.hits,
        cache_after.misses - cache_before.misses,
    );
    metrics.span_medians(
        &rec,
        &[
            "sparql.fingerprint_us",
            "sparql.cache.lookup_us",
            "sparql.parse_us",
            "sparql.eval_us",
            "mashup.about_us",
        ],
    );
    metrics.hit_ratio("sparql.cache.hit_ratio", hits, misses);
    metrics.push(
        "sparql.eval.rows_examined_per_result",
        "ratio",
        examined as f64 / produced.max(1) as f64,
        ops.len(),
    );
    let profiled: u64 = by_kind.iter().sum();
    for (name, us) in [
        "sparql.eval.scan_share",
        "sparql.eval.join_share",
        "sparql.eval.filter_share",
        "sparql.eval.sort_share",
    ]
    .into_iter()
    .zip(by_kind)
    {
        metrics.push(name, "ratio", us as f64 / profiled.max(1) as f64, ops.len());
    }
    // What `Platform::query` spends outside the steps driven above:
    // its own spans, counters, slow-query log, cardinality feedback.
    let driven_us: f64 = STEPS.iter().flat_map(|span| rec.durations_us(span)).sum();
    metrics.push(
        "sparql.query_residual_ratio",
        "ratio",
        (plain_us - driven_us) / plain_us,
        ops.len(),
    );
    let traced_us: f64 = rec.durations_us("sparql.query").iter().sum();
    metrics.push(
        "loadgen.trace_overhead_ratio",
        "ratio",
        traced_us / plain_us,
        ops.len(),
    );
    metrics.push("loadgen.oracle_s", "s", bench.oracle_s, 1);
    Outcome {
        tally,
        metrics,
        spans: Some(rec),
    }
}
