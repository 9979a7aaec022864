//! End-to-end observability acceptance test: a durable platform with a
//! federation wired into the same metrics registry, driven through the
//! web routes, must expose series for **every** pipeline layer on
//! `/metrics` — upload stages, SPARQL evaluation, WAL flushes, the
//! album cache, and federation delivery — plus traces and the access
//! log on `/ops`.

use lodify_core::federation::Federation;
use lodify_core::platform::{Platform, Upload};
use lodify_core::web::{handle_request, Request};
use lodify_durability::{DurabilityOptions, MemStorage};
use lodify_relational::WorkloadConfig;

fn get(platform: &Platform, target: &str) -> lodify_core::web::Response {
    let request = Request::parse(&format!("GET {target} HTTP/1.1"), &[]).unwrap();
    handle_request(platform, &request)
}

#[test]
fn metrics_cover_every_pipeline_layer() {
    let (mut platform, report) = Platform::bootstrap_durable(
        WorkloadConfig::small(31),
        Box::new(MemStorage::new()),
        DurabilityOptions::default(),
    )
    .unwrap();
    assert!(!report.recovered, "fresh storage adopts the seed");

    // A federation sharing the platform's metrics registry: delivery
    // latencies land in the same exposition.
    let mut federation = Federation::new();
    federation.set_observability(platform.obs().metrics().clone());
    let n0 = federation.add_node("home.example").unwrap();
    let n1 = federation.add_node("remote.example").unwrap();
    let publisher = federation.register_user(n0, "alice", "Alice").unwrap();
    let follower = federation.register_user(n1, "bob", "Bob").unwrap();
    federation.subscribe(n1, &follower, &publisher).unwrap();
    federation
        .publish(&publisher, "federated sunset", 1_320_500_000)
        .unwrap();

    // Drive every layer: an upload (relational → semanticize → context
    // → annotate stages + WAL records), a SPARQL query, an album view,
    // and an explicit durability barrier.
    let gaz = lodify_context::Gazetteer::global();
    let mole = gaz.poi("Mole_Antonelliana").unwrap();
    platform
        .upload(Upload {
            user_id: 1,
            title: "Tramonto alla Mole".into(),
            tags: vec!["torino".into()],
            ts: 1_320_500_000,
            gps: Some(mole.point(gaz)),
            poi: None,
        })
        .unwrap();
    platform
        .query("SELECT ?s WHERE { ?s a sioct:MicroblogPost . } LIMIT 3")
        .unwrap();
    platform.flush_store().unwrap();
    // The profiled evaluation fed the planner's per-predicate registry.
    assert!(!platform.cardinality().entries().is_empty());
    let album = get(
        &platform,
        "/album?monument=Mole+Antonelliana&lang=it&radius=0.3",
    );
    assert_eq!(album.status, 200);

    let resp = get(&platform, "/metrics");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.content_type, lodify_obs::prometheus::CONTENT_TYPE);
    // One series per layer, as the acceptance criteria demand.
    for series in [
        // upload pipeline stages
        "lodify_upload_seconds_count 1",
        "lodify_upload_relational_seconds_count 1",
        "lodify_upload_semanticize_seconds_count 1",
        "lodify_upload_context_seconds_count 1",
        "lodify_upload_annotate_seconds_count 1",
        "lodify_upload_record_seconds_count 1",
        // SPARQL execution: the explicit query only — the /album miss
        // is solved by the standing-query engine, not by SPARQL
        "lodify_sparql_queries_total 1",
        "lodify_sparql_parse_seconds_count 1",
        "lodify_sparql_eval_seconds_count 1",
        // durability: the upload journals records, flush_store forces
        // the barrier, and the gauge refresh publishes WAL depth
        "lodify_wal_flush_seconds_count",
        "lodify_wal_pending 0",
        // album cache
        "lodify_album_view_seconds_count 1",
        "lodify_album_cache_misses_total 1",
        // federation delivery
        "lodify_federation_deliveries_total 1",
        "lodify_federation_deliver_seconds_count 1",
        // web layer
        "lodify_web_request_seconds_count",
    ] {
        assert!(
            resp.body.contains(series),
            "missing series {series:?} in:\n{}",
            resp.body
        );
    }

    // /ops shows the same world: healthy status, traces for the upload
    // and query, and the access log with the ids handed out above.
    let ops = get(&platform, "/ops");
    assert_eq!(ops.status, 200);
    assert!(ops.body.contains("status: healthy"), "{}", ops.body);
    assert!(ops.body.contains("upload.semanticize"), "{}", ops.body);
    assert!(ops.body.contains("sparql.eval"), "{}", ops.body);
    assert!(ops.body.contains("durability  gen="), "{}", ops.body);
    assert!(
        ops.body.contains("GET") || ops.body.contains("/album"),
        "{}",
        ops.body
    );

    // Request ids were issued monotonically across the three routed
    // requests and each landed in the access log.
    let log = platform.obs().access_log().recent(8);
    assert_eq!(log.len(), 3);
    assert!(log.windows(2).all(|w| w[0].request_id < w[1].request_id));
}

/// Repeated queries go through the plan cache, not around it: answers
/// repeat exactly, the repeats are hits, and the registry counts the
/// same hits the cache does. Album views are served by the
/// standing-query engine, so they leave the plan cache alone.
#[test]
fn repeated_album_queries_hit_the_plan_cache() {
    use lodify_core::albums::AlbumSpec;

    let platform = Platform::bootstrap(WorkloadConfig::small(24)).unwrap();
    // Threshold 0: every execution is a slow query.
    platform.obs().slow_queries().set_threshold_us(0);

    let album = AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0);
    let queries = [
        album.to_sparql(),
        "SELECT ?s ?l WHERE { ?s a sioct:MicroblogPost . ?s comm:image-data ?l . } ORDER BY ?l"
            .to_string(),
    ];
    for query in &queries {
        let first = platform.query(query).unwrap().to_table();
        assert_eq!(platform.query(query).unwrap().to_table(), first);
    }
    let stats = platform.plan_cache_stats();
    assert!(stats.hits >= 2 && stats.misses >= 2, "{stats:?}");
    let metrics = platform.obs().metrics();
    assert_eq!(metrics.counter("sparql.plan.hits"), stats.hits);
    assert!(metrics.counter("sparql.queries") >= 4);

    let wider = AlbumSpec::near_monument("Mole Antonelliana", "it", 2.0);
    let view = platform.view_album(&wider).unwrap();
    assert_eq!(platform.view_album(&wider).unwrap(), view);
    assert_eq!(view, wider.execute(platform.store()).unwrap());
    platform.view_album(&album).unwrap();
    assert_eq!(platform.plan_cache_stats(), stats);
    assert!(!platform.obs().tracer().recent_spans(8).is_empty());
    assert!(!platform.obs().slow_queries().is_empty());
}

/// Web workers share one platform, so `/album` views overlap. Each
/// view must publish what *it* did: the `album.cache.*` counters on
/// `/metrics` have to add up to the number of views and agree with the
/// cache's own statistics. (Published as a before/after delta of the
/// shared statistics, two overlapping hits each counted both.)
#[test]
fn concurrent_album_views_count_each_view_once() {
    use lodify_core::AlbumSpec;
    const THREADS: usize = 8;
    const VIEWS: usize = 250;

    let platform = Platform::bootstrap(WorkloadConfig::small(31)).unwrap();
    let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3);
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                start.wait();
                for _ in 0..VIEWS {
                    platform.view_album(&spec).unwrap();
                }
            });
        }
    });

    let metrics = platform.obs().metrics();
    let stats = platform.album_cache_stats();
    assert_eq!(
        metrics.counter("album.cache.hits") + metrics.counter("album.cache.misses"),
        (THREADS * VIEWS) as u64
    );
    assert_eq!(metrics.counter("album.cache.hits"), stats.hits);
    assert_eq!(metrics.counter("album.cache.misses"), stats.misses);
}
