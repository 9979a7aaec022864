//! E23 — Cost-based planning, plan caching and admission control.
//!
//! Three claims from ROADMAP item 5, each measured in isolation:
//!
//! 1. **Planner vs. heuristic on a skew-heavy store.** The greedy
//!    heuristic orders joins by per-predicate averages, so a popular
//!    tag (10k subjects) looks cheaper than it is next to a rare kind
//!    (50 subjects); the cost-based planner probes exact counts for
//!    the opening pattern and starts from the rare side. Same rows,
//!    byte-identical, much smaller intermediate result.
//! 2. **Plan-cache hit vs. parse+plan.** A full hit returns the parsed
//!    query and compiled plan by `Arc` clone — the whole compile
//!    prefix of the pipeline collapses to a map probe.
//! 3. **Open-loop overload with and without shedding.** A 2× storm in
//!    virtual time: without admission control the in-flight queue (and
//!    with it p99) grows with the storm duration; with token buckets +
//!    depth shedding the tail stays bounded at the price of rejected
//!    requests.

use std::time::Instant;

use lodify_bench::{f3, header, row, smoke};
use lodify_core::admission::{AdmissionConfig, AdmissionController};
use lodify_core::traffic::{run_open_loop, SimReport, TrafficConfig};
use lodify_rdf::{Term, Triple};
use lodify_resilience::VirtualClock;
use lodify_sparql::{evaluate_planned, plan_query, EvalOptions, PlanCache, PlanLookup};
use lodify_store::Store;
use std::sync::Arc;

const SKEW_QUERY: &str = "SELECT ?s WHERE { \
    ?s <http://ex/tag> <http://ex/popular> . \
    ?s <http://ex/kind> <http://ex/rare> . } ORDER BY ?s";

/// 10k subjects share the popular tag, 50 of them carry the rare kind,
/// and 30k unrelated `kind` triples pad the predicate averages — the
/// shape that makes a per-predicate heuristic open on the wrong side.
fn skewed_store(popular: usize, rare: usize, padding: usize) -> Store {
    let mut store = Store::new();
    for i in 0..popular {
        store.insert_default(&Triple::spo(
            &format!("http://ex/s{i}"),
            "http://ex/tag",
            Term::iri_unchecked("http://ex/popular".to_string()),
        ));
    }
    for i in 0..rare {
        store.insert_default(&Triple::spo(
            &format!("http://ex/s{i}"),
            "http://ex/kind",
            Term::iri_unchecked("http://ex/rare".to_string()),
        ));
    }
    for i in 0..padding {
        store.insert_default(&Triple::spo(
            &format!("http://ex/pad{i}"),
            "http://ex/kind",
            Term::iri_unchecked(format!("http://ex/k{}", i % 97)),
        ));
    }
    store
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 * p).ceil() as usize).clamp(1, sorted_us.len()) - 1;
    sorted_us[idx]
}

fn timed(iters: usize, mut work: impl FnMut() -> usize) -> (Vec<u64>, usize) {
    let mut out = Vec::with_capacity(iters);
    let mut rows = 0;
    for _ in 0..iters {
        let started = Instant::now();
        rows = std::hint::black_box(work());
        out.push(started.elapsed().as_micros() as u64);
    }
    out.sort_unstable();
    (out, rows)
}

fn timed_ns(iters: usize, mut work: impl FnMut() -> usize) -> (Vec<u64>, usize) {
    let mut out = Vec::with_capacity(iters);
    let mut rows = 0;
    for _ in 0..iters {
        let started = Instant::now();
        rows = std::hint::black_box(work());
        out.push(started.elapsed().as_nanos() as u64);
    }
    out.sort_unstable();
    (out, rows)
}

fn latency_row(label: &str, sorted_us: &[u64]) {
    row(&[
        label.into(),
        percentile(sorted_us, 0.50).to_string(),
        percentile(sorted_us, 0.95).to_string(),
        percentile(sorted_us, 0.99).to_string(),
        sorted_us.last().copied().unwrap_or(0).to_string(),
    ]);
}

fn sim_row(label: &str, r: &SimReport) {
    row(&[
        label.into(),
        r.offered.to_string(),
        r.served.to_string(),
        r.shed_quota.to_string(),
        r.shed_overload.to_string(),
        r.p50_us.to_string(),
        r.p95_us.to_string(),
        r.p99_us.to_string(),
        r.max_depth.to_string(),
    ]);
}

fn main() {
    header(
        "E23",
        "cost-based planning, plan cache, admission control",
        "planner beats the heuristic on skew, cached plans skip compilation, shedding bounds p99 under overload",
    );

    let (popular, rare, padding, iters) = if smoke() {
        (2_000, 50, 6_000, 30)
    } else {
        (10_000, 50, 30_000, 200)
    };

    // ---- 1. planner vs heuristic on skew ---------------------------
    println!("\n[1] join order on a skew-heavy store ({popular} popular / {rare} rare / {padding} padding), {iters} runs");
    let store = skewed_store(popular, rare, padding);
    let parsed = lodify_sparql::parse(SKEW_QUERY).unwrap();
    let plan = plan_query(&store, &parsed, None);

    row(&[
        "mode".into(),
        "p50 us".into(),
        "p95 us".into(),
        "p99 us".into(),
        "max us".into(),
    ]);
    // One-shot `execute`: no compiled plan, the run is ordered by the
    // cold-start heuristic at run entry.
    let (heuristic, h_rows) = timed(iters, || {
        lodify_sparql::execute(&store, SKEW_QUERY).unwrap().len()
    });
    latency_row("heuristic", &heuristic);
    let (planned, p_rows) = timed(iters, || {
        evaluate_planned(&store, &parsed, EvalOptions::default(), &plan)
            .unwrap()
            .0
            .len()
    });
    latency_row("planned", &planned);
    assert_eq!(h_rows, p_rows, "planner must not change the answer");
    let ratio = percentile(&heuristic, 0.95) as f64 / percentile(&planned, 0.95).max(1) as f64;
    println!("p95 speedup: {}x (target >= 1.5x)", f3(ratio));
    println!("{}", plan.render().trim_end());

    // ---- 2. plan-cache hit vs parse+plan ---------------------------
    let compile_iters = iters * 10;
    println!("\n[2] plan-cache hit vs parse+plan, {compile_iters} runs");
    let cache = PlanCache::new();
    let fingerprint = lodify_sparql::fingerprint(SKEW_QUERY);
    cache.insert(
        &fingerprint,
        SKEW_QUERY,
        Arc::new(lodify_sparql::parse(SKEW_QUERY).unwrap()),
        Arc::new(plan_query(&store, &parsed, None)),
    );
    row(&[
        "mode".into(),
        "p50 ns".into(),
        "p95 ns".into(),
        "p99 ns".into(),
        "max ns".into(),
    ]);
    let (cold, _) = timed_ns(compile_iters, || {
        let q = lodify_sparql::parse(SKEW_QUERY).unwrap();
        plan_query(&store, &q, None).run_count()
    });
    latency_row("parse+plan", &cold);
    let (hot, _) = timed_ns(compile_iters, || {
        match cache.lookup(&fingerprint, SKEW_QUERY) {
            PlanLookup::Hit { plan, .. } => plan.run_count(),
            _ => unreachable!("entry is cached"),
        }
    });
    latency_row("cache hit", &hot);
    let cold_mean = cold.iter().sum::<u64>() as f64 / cold.len() as f64;
    let hot_mean = (hot.iter().sum::<u64>() as f64 / hot.len() as f64).max(1.0);
    println!("mean speedup: {}x (target >= 5x)", f3(cold_mean / hot_mean));

    // ---- 3. overload with and without shedding ---------------------
    let duration_ms = if smoke() { 2_000 } else { 8_000 };
    println!("\n[3] 2x open-loop overload for {duration_ms} virtual ms (4 tenants, hot tenant sends half)");
    let mut config = TrafficConfig::standard(42, 1.0, duration_ms);
    config.rate_per_sec = 2.0 / config.utilization();

    row(&[
        "mode".into(),
        "offered".into(),
        "served".into(),
        "429".into(),
        "503".into(),
        "p50 us".into(),
        "p95 us".into(),
        "p99 us".into(),
        "depth".into(),
    ]);
    let unshedded = run_open_loop(&config, None, &VirtualClock::new());
    sim_row("open", &unshedded);

    let clock = VirtualClock::new();
    let controller = AdmissionController::new(
        Arc::new(clock.clone()),
        AdmissionConfig {
            tenant_rate_per_sec: 1e9,
            tenant_burst: 1e9,
            shed_depth: 16,
            hard_depth: 32,
            ..AdmissionConfig::default()
        },
    );
    let shedded = run_open_loop(&config, Some(&controller), &clock);
    sim_row("shed", &shedded);

    let clock = VirtualClock::new();
    let quota = AdmissionController::new(
        Arc::new(clock.clone()),
        AdmissionConfig {
            tenant_rate_per_sec: config.rate_per_sec / 8.0,
            tenant_burst: 50.0,
            shed_depth: 16,
            hard_depth: 32,
            ..AdmissionConfig::default()
        },
    );
    let with_quota = run_open_loop(&config, Some(&quota), &clock);
    sim_row("shed+quota", &with_quota);

    println!(
        "\np99 divergence: open {}us vs shed {}us ({}x); depth {} vs {}",
        unshedded.p99_us,
        shedded.p99_us,
        f3(unshedded.p99_us as f64 / shedded.p99_us.max(1) as f64),
        unshedded.max_depth,
        shedded.max_depth
    );
    assert!(
        shedded.p99_us < unshedded.p99_us,
        "shedding must bound the tail"
    );
}
