//! E16 — parallel BGP evaluation and the materialized-album cache.
//!
//! Two tentpole measurements on the paper's album workload:
//!
//! 1. **Parallel speedup** on Q1–Q3: the evaluator partitions the
//!    candidate bindings of the statistics-chosen split pattern across
//!    a worker pool. Because CI hosts may have a single core, speedup
//!    is reported two ways: *modeled* (total busy time over the
//!    slowest-partition critical path, measured with inline partitions
//!    via `spawn_threads: false` — what a `workers`-core machine would
//!    achieve) and *wall-clock* (threaded run on this host).
//! 2. **Cached-view latency**: serving a virtual album through the
//!    epoch-keyed `AlbumCache` versus re-running the SPARQL query.
//!
//! Determinism is asserted throughout: every parallel run must return
//! the sequential engine's table verbatim, and every cache hit must
//! equal the freshly solved album.

use lodify_bench::{black_box, Criterion};
use lodify_bench::{criterion, f3, header, platform, row, smoke, time_once};
use lodify_core::albums::{AlbumCache, AlbumSpec};
use lodify_sparql::{evaluate_planned, EvalOptions, Plan};

fn main() {
    header(
        "E16",
        "parallel album queries + materialized views",
        "virtual albums are recomputed per visit; partitioned evaluation and epoch-keyed caching bound that cost",
    );

    let pictures = if smoke() { 300 } else { 2000 };
    let p = platform(160 + pictures as u64, pictures);
    let user_name = {
        let users = p.db().table(lodify_relational::coppermine::USERS).unwrap();
        users.get(1).unwrap()[1].as_text().unwrap().to_string()
    };

    let q1 = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3);
    let q2 = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3).friends_of(&user_name);
    let q3 = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3)
        .friends_of(&user_name)
        .rated();
    let queries: Vec<(&str, String)> = vec![
        ("Q1", q1.to_sparql()),
        ("Q2", q2.to_sparql()),
        ("Q3", q3.to_sparql()),
    ];

    // ---- part 1: parallel speedup ------------------------------------
    row(&[
        "query".into(),
        "workers".into(),
        "rows".into(),
        "split var".into(),
        "modeled speedup".into(),
        "balance".into(),
        "seq ms".into(),
        "wall ms (threaded)".into(),
    ]);
    for (name, query) in &queries {
        let sequential = lodify_sparql::execute(p.store(), query).unwrap();
        let parsed = lodify_sparql::parse(query).unwrap();
        let cold = Plan::default();
        let (_, t_seq) = time_once(|| lodify_sparql::execute(p.store(), query).unwrap());
        for workers in [2usize, 4, 8] {
            // Inline partitions: accurate per-chunk busy times on any
            // host, from which the report models a `workers`-core run.
            let inline = EvalOptions {
                spawn_threads: false,
                ..EvalOptions::parallel(workers)
            };
            let (results, report) = evaluate_planned(p.store(), &parsed, inline, &cold).unwrap();
            assert_eq!(
                results.to_table(),
                sequential.to_table(),
                "{name} workers={workers}: parallel must equal sequential"
            );
            assert!(
                report.parallel_sections > 0,
                "{name} workers={workers}: fixture must clear the stats threshold"
            );
            // Threaded wall-clock on this host (may show no gain on
            // single-core CI; the modeled column is the honest number).
            let threaded = EvalOptions::parallel(workers);
            let ((wall_results, _), t_wall) =
                time_once(|| evaluate_planned(p.store(), &parsed, threaded, &cold).unwrap());
            assert_eq!(wall_results.to_table(), sequential.to_table());
            row(&[
                (*name).into(),
                workers.to_string(),
                results.len().to_string(),
                report.split_variable.clone().unwrap_or_else(|| "-".into()),
                f3(report.modeled_speedup()),
                f3(report.balance()),
                format!("{:.2}", t_seq.as_secs_f64() * 1000.0),
                format!("{:.2}", t_wall.as_secs_f64() * 1000.0),
            ]);
            if *name == "Q1" && workers == 4 {
                assert!(
                    report.modeled_speedup() >= 2.0,
                    "Q1 at 4 workers must model >=2x speedup, got {:.2}",
                    report.modeled_speedup()
                );
            }
        }
    }

    // ---- part 2: cached-view latency ---------------------------------
    println!();
    row(&[
        "album".into(),
        "cold solve ms".into(),
        "cached hit us".into(),
        "speedup".into(),
        "rows".into(),
    ]);
    for (name, spec) in [("Q1", &q1), ("Q2", &q2), ("Q3", &q3)] {
        let cache = AlbumCache::new();
        let (cold_links, t_cold) = time_once(|| cache.view(p.store(), spec).unwrap());
        // Best-of-several hit latency: a hit is a fingerprint check
        // plus a map lookup, so single-shot timing is noise-bound.
        let mut t_hit = std::time::Duration::MAX;
        for _ in 0..32 {
            let (links, t) = time_once(|| cache.view(p.store(), spec).unwrap());
            assert_eq!(links, cold_links, "{name}: hit must equal the solved album");
            t_hit = t_hit.min(t);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "{name}: one cold solve");
        assert_eq!(stats.hits, 32, "{name}: every repeat is a hit");
        let speedup = t_cold.as_secs_f64() / t_hit.as_secs_f64().max(1e-9);
        row(&[
            (*name).into(),
            format!("{:.2}", t_cold.as_secs_f64() * 1000.0),
            format!("{:.1}", t_hit.as_secs_f64() * 1e6),
            f3(speedup),
            cold_links.len().to_string(),
        ]);
        assert!(
            speedup >= 10.0,
            "{name}: cached view must be >=10x faster than solving, got {speedup:.1}x"
        );
    }
    println!("\n(modeled speedup = busy time / slowest-partition critical path; wall-clock reflects this host's core count)");

    if smoke() {
        return;
    }

    // ---- criterion ---------------------------------------------------
    let q1_parsed = lodify_sparql::parse(&q1.to_sparql()).unwrap();
    let cold = Plan::default();
    let seq = EvalOptions::default();
    let par4 = EvalOptions::parallel(4);
    let cache = AlbumCache::new();
    cache.view(p.store(), &q1).unwrap();
    let mut c: Criterion = criterion();
    c.bench_function("e16/q1_sequential_2k", |b| {
        b.iter(|| evaluate_planned(p.store(), black_box(&q1_parsed), seq, &cold).unwrap())
    });
    c.bench_function("e16/q1_parallel4_2k", |b| {
        b.iter(|| evaluate_planned(p.store(), black_box(&q1_parsed), par4, &cold).unwrap())
    });
    c.bench_function("e16/q1_cached_view_2k", |b| {
        b.iter(|| cache.view(p.store(), black_box(&q1)).unwrap())
    });
    c.final_summary();
}
