//! Chaos suite: scripted fault plans drive resolver, upload and
//! federation failures over virtual time. Every scenario is fully
//! deterministic — seeded RNG, virtual clock, no wall-clock sleeps —
//! so a failure here is a logic bug, never flake. The one exception is
//! `overload`'s socket test, which exists to show the simulated
//! overload result on a wall clock; it asserts orderings that hold
//! however slowly the host runs, never durations.

use lodify::core::deferred::UploadQueue;
use lodify::core::federation::{Federation, Notification};
use lodify::core::metrics::{OpsSnapshot, OpsSources};
use lodify::core::platform::{Platform, Upload};
use lodify::lod::annotator::{Annotator, AnnotatorConfig, ContentInput};
use lodify::lod::broker::BrokerResilienceConfig;
use lodify::lod::datasets::load_lod;
use lodify::lod::filter::SemanticFilter;
use lodify::lod::reannotate::{OwnedContent, ReAnnotator};
use lodify::lod::resolvers::{
    DbpediaResolver, EvriResolver, FaultInjectedResolver, GeonamesResolver, SindiceResolver,
    ZemantaResolver,
};
use lodify::lod::SemanticBroker;
use lodify::relational::WorkloadConfig;
use lodify::resilience::{BreakerState, FaultPlan, RetryPolicy, VirtualClock};
use lodify::store::Store;

fn lod_store() -> Store {
    let mut s = Store::new();
    load_lod(&mut s, lodify::context::Gazetteer::global());
    s
}

/// The full resolver set with every resolver wired through one fault
/// plan (targets `resolver:<name>`).
fn faulty_annotator(plan: &FaultPlan, clock: &VirtualClock) -> Annotator {
    let broker = SemanticBroker::new(vec![
        Box::new(FaultInjectedResolver::new(DbpediaResolver, plan.clone())),
        Box::new(FaultInjectedResolver::new(GeonamesResolver, plan.clone())),
        Box::new(FaultInjectedResolver::new(SindiceResolver, plan.clone())),
        Box::new(FaultInjectedResolver::new(EvriResolver, plan.clone())),
        Box::new(FaultInjectedResolver::new(ZemantaResolver, plan.clone())),
    ])
    .with_resilience(clock.clone(), BrokerResilienceConfig::default());
    Annotator::new(
        broker,
        SemanticFilter::standard(),
        AnnotatorConfig::default(),
    )
}

#[test]
fn all_but_one_resolver_down_pipeline_still_completes() {
    let clock = VirtualClock::new();
    let plan = FaultPlan::builder()
        .outage("resolver:geonames", 0, u64::MAX)
        .outage("resolver:sindice", 0, u64::MAX)
        .outage("resolver:evri", 0, u64::MAX)
        .outage("resolver:zemanta", 0, u64::MAX)
        .build(clock.clone());
    let annotator = faulty_annotator(&plan, &clock);
    let store = lod_store();

    // Annotate a batch of items. The pipeline must complete every one,
    // degraded but not stuck, with DBpedia results intact.
    let titles = [
        "Mole Antonelliana",
        "Torino by night",
        "Parco del Valentino",
    ];
    let tags = vec!["torino".to_string()];
    for title in titles {
        let result = annotator.annotate(
            &store,
            &ContentInput {
                title,
                tags: &tags,
                context: None,
                poi_ref: None,
            },
        );
        assert!(result.is_degraded());
        assert!(
            !result.degraded.contains(&"dbpedia"),
            "healthy resolver not blamed"
        );
        assert!(
            result.terms.iter().any(|t| t.resource.is_some()),
            "dbpedia still annotates {title:?}"
        );
    }

    let broker = annotator.broker();
    let telemetry = broker.telemetry().unwrap();
    let config = BrokerResilienceConfig::default();
    for dead in ["geonames", "sindice", "evri", "zemanta"] {
        assert_eq!(broker.breaker_state(dead), Some(BreakerState::Open));
        // The breaker tripped within `failure_threshold` attempts and
        // every later term was skipped, not re-polled.
        assert_eq!(
            telemetry.counter(&format!("broker.calls.{dead}")),
            u64::from(config.breaker.failure_threshold),
            "{dead}: no calls after the breaker opened"
        );
        assert!(telemetry.counter(&format!("broker.skipped.{dead}")) > 0);
    }
    assert_eq!(broker.breaker_state("dbpedia"), Some(BreakerState::Closed));
    assert_eq!(telemetry.counter("broker.failures.dbpedia"), 0);

    let snapshot = OpsSnapshot::collect(broker, OpsSources::default());
    assert!(snapshot.is_degraded());
    assert_eq!(
        snapshot
            .resolvers
            .iter()
            .filter(|r| r.breaker == Some(BreakerState::Open))
            .count(),
        4
    );
}

#[test]
fn breaker_walks_open_halfopen_closed_under_a_scripted_plan() {
    let clock = VirtualClock::new();
    let plan = FaultPlan::builder()
        .outage("resolver:dbpedia", 0, 3_000)
        .build(clock.clone());
    let annotator = faulty_annotator(&plan, &clock);
    let store = lod_store();
    let broker = annotator.broker();
    let config = BrokerResilienceConfig::default();
    let input = ContentInput {
        title: "Torino",
        tags: &[],
        context: None,
        poi_ref: None,
    };

    assert_eq!(broker.breaker_state("dbpedia"), Some(BreakerState::Closed));

    // Failures trip the breaker open.
    annotator.annotate(&store, &input);
    assert_eq!(broker.breaker_state("dbpedia"), Some(BreakerState::Open));
    let opened = broker.telemetry().unwrap().gauge("breaker.dbpedia.opened");
    assert_eq!(opened, Some(1));

    // Cooldown elapses while the outage is still on (the breaker
    // opened a few retry-backoff ms after t=0, so jump well past it):
    // the half-open probe fails and the breaker re-opens.
    clock.set(2 * config.breaker.cooldown_ms);
    assert!(clock.now_ms() < 3_000, "outage still active");
    annotator.annotate(&store, &input);
    assert_eq!(broker.breaker_state("dbpedia"), Some(BreakerState::Open));
    assert_eq!(
        broker.telemetry().unwrap().gauge("breaker.dbpedia.opened"),
        Some(2),
        "half-open probe failed and re-tripped"
    );

    // Outage over + cooldown: the probe succeeds and the breaker
    // closes; annotation is whole again.
    clock.set(3_000 + 2 * config.breaker.cooldown_ms);
    let result = annotator.annotate(&store, &input);
    assert_eq!(broker.breaker_state("dbpedia"), Some(BreakerState::Closed));
    assert!(!result.is_degraded());
    assert!(result.terms.iter().any(|t| t.resource.is_some()));
}

#[test]
fn dlq_replay_reaches_eventual_annotation_for_every_parked_item() {
    let clock = VirtualClock::new();
    let plan = FaultPlan::builder()
        .outage("resolver:dbpedia", 0, 8_000)
        .build(clock.clone());
    let annotator = faulty_annotator(&plan, &clock);
    let store = lod_store();
    let mut requeue = ReAnnotator::new(10);

    // Three items arrive during the outage; each annotates degraded and
    // parks for later.
    let tags = vec!["torino".to_string()];
    for (id, title) in [
        (1u64, "Mole Antonelliana"),
        (2, "Palazzo Madama"),
        (3, "Gran Madre"),
    ] {
        let input = ContentInput {
            title,
            tags: &tags,
            context: None,
            poi_ref: None,
        };
        let result = annotator.annotate(&store, &input);
        assert!(result.is_degraded(), "{title:?} degraded during outage");
        assert!(requeue.observe(
            OwnedContent::from_input(id, &input),
            &result,
            clock.now_ms()
        ));
    }
    assert_eq!(requeue.depth(), 3);

    // Mid-outage replay: everything stays parked, nothing is lost.
    clock.advance(2_000);
    let report = requeue.replay(&store, &annotator, |_, _| panic!("outage still on"));
    assert_eq!(report.requeued, 3);
    assert_eq!(requeue.depth(), 3);

    // Outage + cooldown over: one replay completes every item.
    clock.set(10_000);
    let mut accepted = Vec::new();
    let report = requeue.replay(&store, &annotator, |content, result| {
        assert!(!result.is_degraded());
        accepted.push(content.content_id);
    });
    assert_eq!(report.replayed, 3);
    assert_eq!(report.requeued, 0);
    assert_eq!(requeue.depth(), 0);
    accepted.sort_unstable();
    assert_eq!(accepted, vec![1, 2, 3], "every degraded item re-annotated");
    assert!(requeue.queue().exhausted().is_empty());
}

#[test]
fn federation_redelivers_in_order_after_node_outage() {
    let mut fed = Federation::new();
    let home = fed.add_node("home.example").unwrap();
    let frame = fed.add_node("frame.example").unwrap();
    let walter = fed.register_user(home, "walter", "Walter Goix").unwrap();
    let viewer = fed.register_user(frame, "viewer", "Photo Frame").unwrap();
    fed.subscribe(frame, &viewer, &walter).unwrap();

    let clock = VirtualClock::new();
    let plan = FaultPlan::builder()
        .outage("node:frame.example", 0, 60_000)
        .build(clock.clone());
    fed.with_fault_plan(plan, RetryPolicy::default());

    // A holiday's worth of posts while the frame is unreachable.
    for (i, title) in ["day one", "day two", "day three"].iter().enumerate() {
        let (_, delivered) = fed.publish(&walter, title, i as i64 + 1).unwrap();
        assert!(delivered.is_empty(), "{title:?} must park, not deliver");
    }
    assert_eq!(fed.undelivered(), 3);
    assert!(fed.node(frame).unwrap().timeline().entries().is_empty());

    // Back online: one redelivery pass catches the frame up, in
    // publish order (the DLQ is FIFO).
    clock.set(120_000);
    let (landed, report) = fed.redeliver();
    assert_eq!(report.replayed, 3);
    assert_eq!(landed.len(), 3);
    assert!(landed
        .iter()
        .all(|n| matches!(n, Notification::Activity { to, .. } if *to == frame)));
    let timeline = fed.node(frame).unwrap().timeline().entries();
    assert_eq!(timeline.len(), 3);
    let summaries: Vec<&str> = timeline.iter().map(|a| a.summary.as_str()).collect();
    assert_eq!(summaries, vec!["day one", "day two", "day three"]);
    assert_eq!(fed.undelivered(), 0);

    let snapshot = OpsSnapshot::collect(
        &SemanticBroker::standard(),
        OpsSources {
            federation: Some(&fed),
            ..OpsSources::default()
        },
    );
    assert!(!snapshot.is_degraded());
    assert_eq!(snapshot.federation_parked, 3);
    assert_eq!(snapshot.federation_redelivered, 3);
}

#[test]
fn deferred_uploads_survive_a_platform_outage() {
    let mut platform = Platform::bootstrap(WorkloadConfig::small(11)).unwrap();
    let clock = VirtualClock::new();
    let plan = FaultPlan::builder()
        .outage("platform.upload", 0, 5_000)
        .build(clock.clone());
    platform.set_fault_plan(plan);

    let mut queue = UploadQueue::with_max_attempts(5);
    for (ts, title) in [(300, "third"), (100, "first"), (200, "second")] {
        queue
            .capture(
                &mut platform,
                Upload {
                    user_id: 1,
                    title: title.to_string(),
                    tags: vec![],
                    ts,
                    gps: None,
                    poi: None,
                },
            )
            .unwrap();
    }
    queue.set_online(true);

    // Flushing during the outage re-enqueues everything in capture
    // order; nothing is dropped or abandoned.
    let report = queue.flush(&mut platform);
    assert!(report.receipts.is_empty());
    assert_eq!(report.retried.len(), 3);
    assert_eq!(
        report.retried.iter().map(|(ts, _)| *ts).collect::<Vec<_>>(),
        vec![100, 200, 300]
    );
    assert!(report.abandoned.is_empty());
    assert_eq!(queue.pending(), 3);

    // Connectivity restored: the backlog lands in capture order.
    clock.set(6_000);
    let report = queue.flush(&mut platform);
    assert_eq!(report.receipts.len(), 3);
    assert!(report.is_clean());
    assert_eq!(queue.pending(), 0);

    platform.clear_fault_plan();
    assert!(platform.fault_plan().is_none());
}

#[test]
fn seeded_fault_plans_are_reproducible() {
    // Two runs with the same seed inject the identical failure
    // sequence — chaos tests are replayable bit-for-bit.
    let run = |seed: u64| -> Vec<bool> {
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .failure_rate("resolver:dbpedia", 0.5)
            .seed(seed)
            .build(clock.clone());
        (0..64)
            .map(|_| plan.check("resolver:dbpedia").is_ok())
            .collect()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8), "different seeds, different chaos");
}

// ------------------------------------------------ durability chaos

use lodify::durability::codec::{read_frame, FrameOutcome};
use lodify::durability::{
    DurabilityOptions, DurableStore, GroupCommitPolicy, MemStorage, Storage, TARGET_SNAPSHOT_WRITE,
    TARGET_WAL_FLUSH,
};
use lodify::rdf::{Iri, Point, Term, Triple};

/// Options that push every record straight to durable storage and
/// never auto-compact — each acknowledged mutation ends at a known
/// WAL byte offset.
fn eager_options() -> DurabilityOptions {
    DurabilityOptions {
        group_commit: GroupCommitPolicy::per_record(),
        snapshot_every_records: None,
    }
}

/// The disk image a restarted process would find: durable bytes only.
fn disk_copy(src: &MemStorage) -> MemStorage {
    src.crash();
    let copy = MemStorage::new();
    for name in src.list() {
        copy.plant(&name, src.read(&name).unwrap());
    }
    copy
}

/// A store's full triple content plus its derived-index footprint —
/// recovery must reproduce all three exactly.
fn store_fingerprint(store: &Store) -> (Vec<String>, usize, usize) {
    let mut lines: Vec<String> = store
        .export_ntriples(None)
        .lines()
        .map(str::to_string)
        .collect();
    lines.sort();
    (lines, store.fulltext().tokens_indexed(), store.geo().len())
}

#[test]
fn recovery_is_exact_at_every_wal_kill_point() {
    let mem = MemStorage::new();
    let (mut durable, report) = DurableStore::open(Box::new(mem.clone()), eager_options()).unwrap();
    assert!(!report.recovered, "fresh storage starts empty");
    let wal = "wal-0000000001";

    // Mirror every mutation on a plain store and checkpoint the
    // expected fingerprint at each acknowledged WAL offset.
    let mut reference = Store::new();
    let albums = durable.graph("urn:graph:albums");
    assert_eq!(albums, reference.graph("urn:graph:albums"));
    let title = "http://purl.org/dc/elements/1.1/title";
    let wkt = "http://www.opengis.net/ont/geosparql#asWKT";
    let mole = Triple::spo(
        "http://ex/pic/1",
        title,
        Term::literal("Mole Antonelliana by night"),
    );
    let mole_point = Triple::spo(
        "http://ex/pic/1",
        wkt,
        Term::Literal(Point::new(7.6934, 45.0686).unwrap().to_literal()),
    );
    let parco = Triple::spo(
        "http://ex/pic/2",
        title,
        Term::literal("Parco del Valentino"),
    );
    let tag = Triple::spo(
        "http://ex/pic/2",
        "http://ex/taggedWith",
        Term::iri("http://dbpedia.org/resource/Turin").unwrap(),
    );
    let gran_madre = Triple::spo("http://ex/pic/3", title, Term::literal("Gran Madre di Dio"));

    let mut checkpoints = vec![(0usize, store_fingerprint(&reference))];
    let mut step = |durable: &mut DurableStore,
                    reference: &mut Store,
                    op: &dyn Fn(&mut DurableStore),
                    mirror: &dyn Fn(&mut Store)| {
        op(durable);
        mirror(reference);
        durable.flush().unwrap();
        checkpoints.push((mem.durable_len(wal), store_fingerprint(reference)));
    };
    step(
        &mut durable,
        &mut reference,
        &|d| {
            d.insert(&mole, albums).unwrap();
        },
        &|r| {
            r.insert(&mole, albums);
        },
    );
    step(
        &mut durable,
        &mut reference,
        &|d| {
            d.insert(&mole_point, albums).unwrap();
        },
        &|r| {
            r.insert(&mole_point, albums);
        },
    );
    step(
        &mut durable,
        &mut reference,
        &|d| {
            d.insert(&parco, albums).unwrap();
        },
        &|r| {
            r.insert(&parco, albums);
        },
    );
    step(
        &mut durable,
        &mut reference,
        &|d| {
            d.insert(&tag, albums).unwrap();
        },
        &|r| {
            r.insert(&tag, albums);
        },
    );
    step(
        &mut durable,
        &mut reference,
        &|d| {
            d.remove(&mole).unwrap();
        },
        &|r| {
            r.remove(&mole);
        },
    );
    let g0 = reference.default_graph();
    step(
        &mut durable,
        &mut reference,
        &|d| {
            let g = d.store().default_graph();
            d.insert(&gran_madre, g).unwrap();
        },
        &|r| {
            r.insert(&gran_madre, g0);
        },
    );
    let parco_subject = Term::iri("http://ex/pic/2").unwrap();
    let title_iri = Iri::new(title).unwrap();
    step(
        &mut durable,
        &mut reference,
        &|d| {
            assert_eq!(d.remove_pattern_sp(&parco_subject, &title_iri).unwrap(), 1);
        },
        &|r| {
            r.remove_pattern_sp(&parco_subject, &title_iri);
        },
    );
    step(
        &mut durable,
        &mut reference,
        &|d| {
            d.insert(&mole, albums).unwrap();
        },
        &|r| {
            r.insert(&mole, albums);
        },
    );

    // Every frame boundary in the finished log.
    let full = mem.read(wal).unwrap();
    assert_eq!(
        mem.durable_len(wal),
        full.len(),
        "per-record mode leaves nothing buffered"
    );
    let snap = mem.read("snap-0000000001").unwrap();
    let mut boundaries = vec![0usize];
    let mut offset = 0usize;
    while let FrameOutcome::Frame { next, .. } = read_frame(&full, offset) {
        offset = next;
        boundaries.push(offset);
    }
    assert_eq!(offset, full.len(), "the healthy log parses to the end");

    // Kill the process at EVERY byte of the WAL. Recovery must land on
    // the newest acknowledged state whose final record survived whole —
    // triples, fulltext and geo indexes all rebuilt to match.
    for cut in 0..=full.len() {
        let disk = MemStorage::new();
        disk.plant("snap-0000000001", snap.clone());
        disk.plant(wal, full[..cut].to_vec());
        let (recovered, report) = DurableStore::open(Box::new(disk), eager_options())
            .unwrap_or_else(|e| panic!("kill at byte {cut}: recovery failed: {e}"));
        assert!(report.recovered, "kill at byte {cut}");
        let expected = &checkpoints
            .iter()
            .rev()
            .find(|(off, _)| *off <= cut)
            .unwrap()
            .1;
        assert_eq!(
            &store_fingerprint(recovered.store()),
            expected,
            "kill at byte {cut}"
        );
        let frame_end = *boundaries.iter().rfind(|b| **b <= cut).unwrap();
        assert_eq!(
            report.tail.valid_bytes, frame_end as u64,
            "kill at byte {cut}"
        );
        assert_eq!(report.tail.clean(), frame_end == cut, "kill at byte {cut}");
    }

    // The fully recovered store answers index queries, not just scans.
    let disk = MemStorage::new();
    disk.plant("snap-0000000001", snap.clone());
    disk.plant(wal, full.clone());
    let (recovered, _) = DurableStore::open(Box::new(disk), eager_options()).unwrap();
    assert!(!recovered
        .store()
        .fulltext()
        .search_word("antonelliana")
        .is_empty());
    let torino = Point::new(7.686, 45.07).unwrap();
    assert_eq!(recovered.store().geo().within_km(torino, 5.0).len(), 1);
}

#[test]
fn unacknowledged_records_die_with_the_process_acknowledged_ones_survive() {
    let clock = VirtualClock::new();
    let mem = MemStorage::new();
    let options = DurabilityOptions {
        group_commit: GroupCommitPolicy::batched(4),
        snapshot_every_records: None,
    };
    let (mut durable, _) = DurableStore::open(Box::new(mem.clone()), options).unwrap();
    let g = durable.graph("urn:graph:ugc");
    let pic = |i: i64| {
        Triple::spo(
            &format!("http://ex/pic/{i}"),
            "http://purl.org/dc/elements/1.1/title",
            Term::literal(format!("picture {i}")),
        )
    };

    // Four inserts, then an explicit group flush: all acknowledged.
    for i in 0..4 {
        durable.insert(&pic(i), g).unwrap();
    }
    durable.flush().unwrap();
    assert_eq!(durable.stats().unwrap().wal_pending, 0);

    // The log device goes down. Inserts keep mutating memory but the
    // due group flush fails — those records are never acknowledged.
    let plan = FaultPlan::builder()
        .outage(TARGET_WAL_FLUSH, 0, 5_000)
        .build(clock.clone());
    durable.set_fault_plan(plan);
    let failed = (4..8)
        .filter(|i| durable.insert(&pic(*i), g).is_err())
        .count();
    assert!(failed >= 1, "a due group flush must surface the outage");
    assert_eq!(
        durable.store().len(),
        8,
        "the memory image keeps everything"
    );
    let stats = durable.stats().unwrap();
    assert!(
        stats.wal_pending >= 4,
        "unflushed records stay pending, got {}",
        stats.wal_pending
    );
    assert!(durable.flush().is_err(), "outage still active");

    // A crash now loses exactly the unacknowledged tail.
    let (lost_tail, report) = DurableStore::open(Box::new(disk_copy(&mem)), options).unwrap();
    assert!(report.recovered && report.tail.clean());
    assert_eq!(
        lost_tail.store().len(),
        4,
        "only acknowledged inserts survive"
    );

    // Outage over: one flush retry drains the whole backlog, after
    // which a crash loses nothing.
    clock.set(10_000);
    durable.flush().unwrap();
    assert_eq!(durable.stats().unwrap().wal_pending, 0);
    let (recovered, _) = DurableStore::open(Box::new(disk_copy(&mem)), options).unwrap();
    assert_eq!(
        recovered.store().len(),
        8,
        "the retried flush acknowledged the backlog"
    );
}

#[test]
fn platform_survives_crashed_compaction_and_reports_durability_health() {
    let mem = MemStorage::new();
    let options = DurabilityOptions::default();
    let (mut platform, report) =
        Platform::bootstrap_durable(WorkloadConfig::small(11), Box::new(mem.clone()), options)
            .unwrap();
    assert!(!report.recovered, "first boot adopts the bootstrap corpus");
    assert!(report.snapshot_triples > 0);

    // Live traffic on top of the bootstrap corpus.
    let receipt = platform
        .upload(Upload {
            user_id: 1,
            title: "Crash test at the Mole".to_string(),
            tags: vec!["torino".to_string()],
            ts: 1_700_000_000,
            gps: None,
            poi: None,
        })
        .unwrap();
    platform.rate(receipt.pid, 2, 5).unwrap();
    platform.flush_store().unwrap();
    let before = store_fingerprint(platform.store());
    let generation = platform.durability().unwrap().generation;

    // Compaction dies: the snapshot device is unreachable. The old
    // generation must stay authoritative.
    let clock = VirtualClock::new();
    let plan = FaultPlan::builder()
        .outage(TARGET_SNAPSHOT_WRITE, 0, u64::MAX)
        .build(clock.clone());
    platform.set_fault_plan(plan);
    assert!(
        platform.snapshot_store().is_err(),
        "compaction must fail under the outage"
    );
    platform.clear_fault_plan();
    assert_eq!(platform.durability().unwrap().generation, generation);
    drop(platform);

    // The host dies; a rebooted platform recovers the exact semantic
    // store — bootstrap corpus plus the journaled live traffic.
    let (revived, report) = Platform::bootstrap_durable(
        WorkloadConfig::small(11),
        Box::new(disk_copy(&mem)),
        options,
    )
    .unwrap();
    assert!(report.recovered, "second boot recovers, not re-bootstraps");
    assert!(report.wal_records_replayed > 0);
    assert_eq!(store_fingerprint(revived.store()), before);

    // Durability health flows into the ops snapshot.
    let stats = revived.durability().unwrap();
    assert!(stats.records_replayed > 0);
    let snapshot = OpsSnapshot::collect(
        &SemanticBroker::standard(),
        OpsSources {
            durability: Some(stats),
            album_cache: Some(revived.album_cache_stats()),
            ..OpsSources::default()
        },
    );
    let rendered = snapshot.to_string();
    assert!(
        rendered.contains("durability"),
        "ops report shows the journal: {rendered}"
    );
    assert!(
        rendered.contains("album cache"),
        "ops report shows the view cache: {rendered}"
    );
}

// ---------------------------------------------------------------------
// Emission replication (core::replication)

use lodify::core::replication::{Replicator, SharePolicy, TransportChaos};

/// The shared subset a link from `host` replicates: every exported
/// N-Triples line about that node's media, sorted for byte comparison.
fn shared_subset(store: &Store, host: &str) -> String {
    let prefix = format!("<http://{host}/media/");
    let mut lines: Vec<String> = store
        .export_ntriples(None)
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .map(str::to_string)
        .collect();
    lines.sort_unstable();
    lines.join("\n")
}

#[test]
fn replication_converges_under_partition_reorder_dup_and_replica_crash() {
    let mut fed = Federation::new();
    let n1 = fed.add_node("node1.example").unwrap();
    let n2 = fed.add_node("node2.example").unwrap();
    let n3 = fed.add_node("node3.example").unwrap();
    let n4 = fed.add_node("node4.example").unwrap();
    let oscar = fed.register_user(n1, "oscar", "Oscar W.").unwrap();

    let clock = VirtualClock::new();
    // node2 is partitioned from node1 for the first 40 virtual seconds.
    let plan = FaultPlan::builder()
        .outage("repl:node1.example->node2.example", 0, 40_000)
        .seed(11)
        .build(clock.clone());

    let disks: Vec<MemStorage> = (0..4).map(|_| MemStorage::new()).collect();
    let mut repl = Replicator::new();
    for (node, disk) in [
        (n1, &disks[0]),
        (n2, &disks[1]),
        (n3, &disks[2]),
        (n4, &disks[3]),
    ] {
        repl.attach(&fed, node, Box::new(disk.clone())).unwrap();
    }
    for to in [n2, n3, n4] {
        repl.subscribe(n1, to, SharePolicy::Everything).unwrap();
    }
    repl.with_fault_plan(plan, RetryPolicy::no_retry());
    repl.set_transport_chaos(Some(TransportChaos {
        drop_rate: 0.2,
        dup_rate: 0.15,
        reorder_rate: 0.15,
        seed: 7,
    }));

    // First wave of publishes, during the partition.
    let mut media = Vec::new();
    for i in 0..6 {
        let (iri, _) = fed
            .publish(&oscar, &format!("wave one #{i}"), 1_000 + i)
            .unwrap();
        media.push(iri);
        repl.commit(&mut fed, &oscar, None).unwrap();
        clock.advance(1_000);
    }

    // Kill node3 mid-stream: process state gone, journal survives.
    assert!(repl.kill(n3));
    disks[2].crash();

    // Second wave while node3 is dead and node2 partitioned, including
    // a retraction of already-replicated media.
    fed.retract(&oscar, &media[1]).unwrap();
    repl.commit(&mut fed, &oscar, None).unwrap();
    for i in 6..10 {
        let (iri, _) = fed
            .publish(&oscar, &format!("wave two #{i}"), 2_000 + i)
            .unwrap();
        media.push(iri);
        repl.commit(&mut fed, &oscar, None).unwrap();
        clock.advance(1_000);
    }

    // Recover node3 from its persisted journal: the cursor survives.
    let report = repl.attach(&fed, n3, Box::new(disks[2].clone())).unwrap();
    assert!(
        report.recovered > 0,
        "journal recovered applied emissions: {report:?}"
    );

    // Converge: advance past the partition + breaker cooldowns, pump
    // delayed/backlogged emissions and replay the dead-letter queue.
    let mut rounds = 0;
    while !repl.converged() {
        rounds += 1;
        assert!(rounds <= 50, "mesh failed to converge in 50 rounds");
        clock.advance(5_000);
        repl.pump(&mut fed).unwrap();
        repl.redeliver(&mut fed).unwrap();
    }
    assert_eq!(repl.lag(), 0);
    assert_eq!(repl.undelivered(), 0);

    // The single-node oracle: replay node1's own emission log, in
    // order, into a fresh store.
    let mut oracle = Store::new();
    for emission in repl.emission_log(n1).unwrap() {
        for quad in &emission.additions {
            let g = match &quad.graph {
                None => oracle.default_graph(),
                Some(name) => oracle.graph(name),
            };
            oracle.insert(&quad.triple, g);
        }
        for triple in &emission.removals {
            oracle.remove(triple);
        }
    }
    let expected = shared_subset(&oracle, "node1.example");
    assert!(!expected.is_empty(), "oracle saw the published media");
    assert!(
        !expected.contains(&format!("<{}>", media[1].as_str())),
        "retracted media absent from the oracle"
    );
    for to in [n2, n3, n4] {
        let got = shared_subset(fed.node(to).unwrap().store(), "node1.example");
        assert_eq!(
            got, expected,
            "node {to} shared subset byte-identical to the oracle"
        );
    }

    // The chaos plan actually exercised every failure mode.
    let t = repl.telemetry();
    assert!(t.counter("replication.transport.dropped") > 0, "drops hit");
    assert!(
        t.counter("replication.transport.duplicated") > 0,
        "dups hit"
    );
    assert!(
        t.counter("replication.transport.reordered") > 0,
        "reorders hit"
    );
    assert!(t.counter("replication.catchups") > 0, "gap catch-up ran");
    assert!(
        t.counter("replication.parked") > 0,
        "partition parked shipments"
    );
    assert!(
        t.counter("replication.redelivered") > 0,
        "DLQ replay delivered"
    );

    // And /ops-facing counters agree with the converged state.
    let ops = repl.ops();
    assert_eq!(ops.lag, 0);
    assert_eq!(ops.dlq_depth, 0);
    assert_eq!(ops.emissions, 11);
    let snapshot = OpsSnapshot::collect(
        &SemanticBroker::standard(),
        OpsSources {
            replication: Some(ops),
            ..OpsSources::default()
        },
    );
    assert!(!snapshot.is_degraded(), "converged mesh is healthy");
    assert!(snapshot.to_string().contains("replication lag=0 dlq=0"));
}

#[test]
fn replication_recovered_replica_resumes_from_persisted_cursor() {
    let mut fed = Federation::new();
    let n1 = fed.add_node("node1.example").unwrap();
    let n2 = fed.add_node("node2.example").unwrap();
    let oscar = fed.register_user(n1, "oscar", "Oscar W.").unwrap();

    let disk = MemStorage::new();
    let mut repl = Replicator::new();
    repl.attach(&fed, n1, Box::new(MemStorage::new())).unwrap();
    repl.attach(&fed, n2, Box::new(disk.clone())).unwrap();
    repl.subscribe(n1, n2, SharePolicy::Everything).unwrap();

    let mut media: Vec<Iri> = Vec::new();
    for i in 0..3 {
        let (iri, _) = fed
            .publish(&oscar, &format!("pre-crash #{i}"), 1_000 + i)
            .unwrap();
        media.push(iri);
        repl.commit(&mut fed, &oscar, None).unwrap();
    }
    assert!(repl.converged());
    let applied_before_crash = repl.telemetry().counter("replication.applied");
    assert_eq!(applied_before_crash, 3);

    // Crash the replica; its durable journal survives.
    assert!(repl.kill(n2));
    disk.crash();

    // While it is down: two more publishes and one retraction of
    // media the replica already applied.
    for i in 3..5 {
        let (iri, _) = fed
            .publish(&oscar, &format!("post-crash #{i}"), 2_000 + i)
            .unwrap();
        media.push(iri);
        repl.commit(&mut fed, &oscar, None).unwrap();
    }
    fed.retract(&oscar, &media[0]).unwrap();
    repl.commit(&mut fed, &oscar, None).unwrap();

    // Recover from the persisted journal: the cursor is exact, so
    // pumping applies exactly the three missed emissions — nothing is
    // re-applied, nothing is lost.
    let report = repl.attach(&fed, n2, Box::new(disk)).unwrap();
    assert_eq!(report.recovered, 3, "pre-crash applies recovered");
    repl.pump(&mut fed).unwrap();
    repl.redeliver(&mut fed).unwrap();
    assert!(repl.converged());
    assert_eq!(
        repl.telemetry().counter("replication.applied") - applied_before_crash,
        3,
        "exactly the missed emissions applied on recovery"
    );

    // The replica matches the origin, including the retraction: the
    // removed media did not resurrect from the replay.
    let expected = shared_subset(fed.node(n1).unwrap().store(), "node1.example");
    let got = shared_subset(fed.node(n2).unwrap().store(), "node1.example");
    assert_eq!(got, expected);
    assert!(
        fed.node(n2)
            .unwrap()
            .store()
            .match_terms(Some(&Term::Iri(media[0].clone())), None, None)
            .is_empty(),
        "retracted media stayed retracted after recovery"
    );
}

// ------------------------------------------------ live-album chaos

#[test]
fn live_push_converges_through_partition_and_subscriber_crash() {
    use lodify::context::Gazetteer;
    use lodify::core::albums::AlbumSpec;

    let mut p = Platform::bootstrap(WorkloadConfig::small(17)).unwrap();
    let gaz = Gazetteer::global();
    let mole = gaz.poi("Mole_Antonelliana").unwrap().point(gaz);

    let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0);
    let album = p.live_register(&spec);
    let clock = VirtualClock::new();
    let plan = FaultPlan::builder()
        .outage("push:http://frame.local/push", 1_000, 10_000)
        .build(clock.clone());
    p.live_mut()
        .hub_mut()
        .with_fault_plan(plan, RetryPolicy::no_retry());
    let sub = p.live_subscribe("http://frame.local/push", album);

    let upload = |p: &mut Platform, n: i64, offset_km: f64| {
        p.upload(Upload {
            user_id: 1,
            title: format!("mole {n}"),
            tags: vec!["torino".into()],
            ts: 1_320_000_000 + n,
            gps: Some(mole.offset_km(offset_km, 0.0)),
            poi: None,
        })
        .unwrap();
    };

    // Healthy transport: the first upload's diff arrives live.
    upload(&mut p, 1, 0.02);
    assert_eq!(
        p.live().hub().subscriber(sub).unwrap().links(),
        p.live().engine().links(album).to_vec()
    );

    // Partition: diffs park in the push DLQ; publisher truth and the
    // maintained album are unaffected.
    clock.set(2_000);
    upload(&mut p, 2, 0.04);
    upload(&mut p, 3, 0.06);
    assert!(p.live().hub().undelivered() > 0, "frames parked");
    assert!(!p.live().hub().converged());

    // Mid-stream subscriber crash: applied state is gone, frames keep
    // flowing past it (the high-water mark still advances).
    p.live_mut().hub_mut().kill(sub);
    upload(&mut p, 4, 0.08);
    assert!(p.live().hub().subscriber(sub).is_none());

    // Recovery resets the cursor; once the partition heals, the full
    // outbox replay plus DLQ redelivery (duplicates absorbed by the
    // idempotent apply) converge the subscriber to an album
    // byte-identical to a fresh recompute.
    p.live_mut().hub_mut().recover(sub);
    clock.set(20_000);
    p.live_mut().pump();
    p.live_mut().redeliver();
    let fresh = spec.execute(p.store()).unwrap();
    assert!(!fresh.is_empty());
    assert_eq!(p.live().engine().links(album), fresh);
    assert_eq!(p.live().hub().subscriber(sub).unwrap().links(), fresh);
    assert!(p.live().hub().converged());
    assert_eq!(p.live().ops().push.dlq_depth, 0);
}

#[test]
fn live_albums_rebuild_exactly_after_crash_recovery() {
    use lodify::context::Gazetteer;
    use lodify::core::albums::AlbumSpec;

    let mem = MemStorage::new();
    let options = DurabilityOptions::default();
    let (mut platform, _) =
        Platform::bootstrap_durable(WorkloadConfig::small(13), Box::new(mem.clone()), options)
            .unwrap();
    let gaz = Gazetteer::global();
    let mole = gaz.poi("Mole_Antonelliana").unwrap().point(gaz);
    let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0).rated();
    let album = platform.live_register(&spec);
    for n in 0..3i64 {
        let receipt = platform
            .upload(Upload {
                user_id: 1,
                title: format!("mole {n}"),
                tags: vec!["torino".into()],
                ts: 1_700_000_000 + n,
                gps: Some(mole.offset_km(0.01 * (n + 1) as f64, 0.0)),
                poi: None,
            })
            .unwrap();
        platform.rate(receipt.pid, 2, n % 5 + 1).unwrap();
    }
    platform.flush_store().unwrap();
    let maintained = platform.live().engine().links(album).to_vec();
    assert_eq!(maintained, spec.execute(platform.store()).unwrap());
    drop(platform);

    // The host dies. A rebooted platform recovers the store from the
    // WAL; re-registering the spec and rebuilding restores the
    // standing-query state from the recovered store alone, answering
    // exactly what was maintained before the crash.
    let (mut revived, report) = Platform::bootstrap_durable(
        WorkloadConfig::small(13),
        Box::new(disk_copy(&mem)),
        options,
    )
    .unwrap();
    assert!(report.recovered, "second boot recovers, not re-bootstraps");
    let album = revived.live_register(&spec);
    revived.live_rebuild();
    assert_eq!(revived.live().engine().links(album), maintained);
}

/// Causal-tracing chaos: a four-node replication mesh under
/// `TransportChaos` (drops, duplicates, reorders) with a live album
/// standing on a *replica*, killed and recovered mid-stream. Every
/// applied emission must still carry the origin commit's trace id,
/// every delivered push must stitch under it, and the shared trace
/// store must assemble one well-nested cross-node span tree per
/// commit — the `/trace/<id>` contract, end to end.
mod tracing {
    use std::sync::Arc;

    use lodify::context::Gazetteer;
    use lodify::core::albums::AlbumSpec;
    use lodify::core::federation::Federation;
    use lodify::core::replication::{Replicator, SharePolicy, TransportChaos};
    use lodify::durability::MemStorage;
    use lodify::obs::{Obs, SpanRecord, TraceStore};
    use lodify::rdf::{ns, Literal, Point, Term, Triple};
    use lodify::resilience::VirtualClock;

    const MONUMENT: &str = "http://dbpedia.org/resource/Mole_Antonelliana";

    fn mole() -> Point {
        let gaz = Gazetteer::global();
        gaz.poi("Mole_Antonelliana").unwrap().point(gaz)
    }

    /// Monument reference triples (label + geometry) every Q1-shaped
    /// album spec joins against.
    fn monument_triples() -> Vec<Triple> {
        vec![
            Triple::spo(
                MONUMENT,
                ns::iri::rdfs_label().as_str(),
                Term::Literal(Literal::lang("Mole Antonelliana", "it").unwrap()),
            ),
            Triple::spo(
                MONUMENT,
                ns::iri::geo_geometry().as_str(),
                Term::Literal(mole().to_literal()),
            ),
        ]
    }

    /// All spans named `name` across every trace in the store.
    fn spans_named(traces: &TraceStore, name: &str) -> Vec<SpanRecord> {
        traces
            .trace_ids()
            .into_iter()
            .filter_map(|id| traces.spans(id))
            .flatten()
            .filter(|s| s.name == name)
            .collect()
    }

    #[test]
    fn tracing_survives_transport_chaos_and_replica_crash() {
        let clock = Arc::new(VirtualClock::new());
        let traces = TraceStore::new(512);

        // Two node-branded observability bundles share one trace store,
        // standing in for the collector every home node ships spans to:
        // origin-side replication spans and replica-side push spans land
        // in the same place and assemble into one tree.
        let mut origin_obs = Obs::with_clock(clock.clone());
        origin_obs.set_trace_store(traces.clone());
        origin_obs.set_node(1, "node0");

        let mut replica_obs = Obs::with_clock(clock.clone());
        replica_obs.set_trace_store(traces.clone());
        replica_obs.set_node(2, "node1");

        // A four-node star: oscar's home node replicates everything to
        // three peers.
        let mut fed = Federation::new();
        let n0 = fed.add_node("node0.example").unwrap();
        let n1 = fed.add_node("node1.example").unwrap();
        let n2 = fed.add_node("node2.example").unwrap();
        let n3 = fed.add_node("node3.example").unwrap();
        let oscar = fed.register_user(n0, "oscar", "Oscar").unwrap();

        let disks: Vec<MemStorage> = (0..4).map(|_| MemStorage::new()).collect();
        let mut repl = Replicator::new();
        for (node, disk) in [n0, n1, n2, n3].into_iter().zip(&disks) {
            repl.attach(&fed, node, Box::new(disk.clone())).unwrap();
        }
        for peer in [n1, n2, n3] {
            repl.subscribe(n0, peer, SharePolicy::Everything).unwrap();
        }
        repl.set_observability(&origin_obs);
        repl.set_transport_chaos(Some(TransportChaos {
            drop_rate: 0.25,
            dup_rate: 0.2,
            reorder_rate: 0.25,
            seed: 0xC4A05,
        }));

        // A standing near-monument album registered against replica n1,
        // with a push subscriber on n3 — pushes on n1 are driven purely
        // by emissions replication applies there.
        fed.import_reference(n1, &monument_triples()).unwrap();
        let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0);
        let (album, sub) = fed.live_subscribe(n3, n1, &spec).unwrap();
        let hub = fed.live_hub_mut(n1).unwrap();
        hub.set_observability(&replica_obs);

        let pump = |fed: &mut Federation, repl: &mut Replicator, clock: &VirtualClock| {
            for _ in 0..64 {
                repl.pump(fed).unwrap();
                repl.redeliver(fed).unwrap();
                clock.advance(5);
                if repl.converged() {
                    break;
                }
            }
        };

        // First half of the stream.
        for i in 0..3 {
            let point = mole().offset_km(0.02 * f64::from(i + 1), 0.0);
            fed.publish_picture(&oscar, &format!("mole {i}"), point, 1000 + i64::from(i))
                .unwrap();
            repl.commit(&mut fed, &oscar, None).unwrap();
            pump(&mut fed, &mut repl, &clock);
        }

        // Kill replica n1 mid-stream: volatile state gone, journal kept.
        assert!(repl.kill(n1));
        disks[1].crash();
        for i in 3..5 {
            let point = mole().offset_km(0.02 * f64::from(i + 1), 0.0);
            fed.publish_picture(&oscar, &format!("mole {i}"), point, 1000 + i64::from(i))
                .unwrap();
            repl.commit(&mut fed, &oscar, None).unwrap();
            pump(&mut fed, &mut repl, &clock);
        }

        // Recover from the journal and finish the stream.
        repl.attach(&fed, n1, Box::new(disks[1].clone())).unwrap();
        let point = mole().offset_km(0.12, 0.0);
        fed.publish_picture(&oscar, "mole 5", point, 1005).unwrap();
        repl.commit(&mut fed, &oscar, None).unwrap();
        pump(&mut fed, &mut repl, &clock);
        assert!(repl.converged(), "mesh converged despite chaos + crash");

        // --- Trace completeness: every committed emission is traced. ---
        let committed = repl.emission_log(n0).unwrap();
        assert_eq!(committed.len(), 6);
        let commit_ids: Vec<u64> = committed
            .iter()
            .map(|e| {
                e.trace
                    .expect("every committed emission carries a trace context")
                    .trace_id
            })
            .collect();
        let unique: std::collections::BTreeSet<u64> = commit_ids.iter().copied().collect();
        assert_eq!(unique.len(), 6, "one distinct trace per commit");

        // Every applied emission (journalled on each replica) kept the
        // origin trace id across the chaotic transport and the crash.
        for replica in [n1, n2, n3] {
            let applied = repl.applied_log(replica).unwrap();
            assert_eq!(
                applied.len(),
                6,
                "replica {replica} applied the full stream"
            );
            for emission in applied {
                let trace = emission.trace.expect("applied emission keeps its trace");
                assert!(
                    unique.contains(&trace.trace_id),
                    "replica {replica} emission seq {} carries a foreign trace",
                    emission.seq
                );
            }
        }

        // Every apply span stitches under a commit trace; all six commits
        // reached at least one replica's apply path.
        let applies = spans_named(&traces, "replication.apply");
        assert!(applies.len() >= 6, "applies recorded: {}", applies.len());
        let apply_traces: std::collections::BTreeSet<u64> =
            applies.iter().map(|s| s.trace_id).collect();
        assert_eq!(
            apply_traces, unique,
            "apply spans cover exactly the commits"
        );

        // --- Push continuity: the replica album converged and every
        // delivered push stitches under an origin commit. ---
        let expected = spec.execute(fed.node(n1).unwrap().store()).unwrap();
        assert_eq!(expected.len(), 6, "all six pictures joined the album");
        assert_eq!(fed.live_links(n1, album), expected);
        assert_eq!(fed.live_subscriber(n1, sub).unwrap().links(), expected);
        assert!(fed.live_hub(n1).unwrap().converged());

        let pushes = spans_named(&traces, "live.push");
        assert!(!pushes.is_empty(), "push deliveries were traced");
        for push in &pushes {
            assert!(
                unique.contains(&push.trace_id),
                "push span outside any commit trace"
            );
            assert_eq!(push.node, "node1", "pushes are branded with the hub's node");
        }

        // --- Tree shape: each commit assembles one well-nested tree with
        // exactly one root, and renders as the cross-node `/trace/<id>`
        // body. ---
        for &id in &unique {
            assert!(traces.well_nested(id), "trace {id:016x} is well nested");
            let spans = traces.spans(id).unwrap();
            let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent_id.is_none()).collect();
            assert_eq!(roots.len(), 1, "one root per trace");
            assert_eq!(roots[0].name, "replication.commit");
            assert_eq!(roots[0].node, "node0");
        }
        let traced_push = pushes.first().unwrap().trace_id;
        let rendered = traces.render(traced_push).unwrap();
        for needle in [
            "replication.commit",
            "replication.ship",
            "replication.apply",
            "live.push",
            "@node0",
            "@node1",
        ] {
            assert!(
                rendered.contains(needle),
                "render missing {needle}:\n{rendered}"
            );
        }
    }
}

mod overload {
    use std::sync::Arc;

    use lodify::core::admission::AdmissionConfig;
    use lodify::core::platform::{Platform, Upload};
    use lodify::core::traffic::{run_open_loop, TrafficConfig};
    use lodify::lod::annotator::ContentInput;
    use lodify::obs::Obs;
    use lodify::relational::WorkloadConfig;
    use lodify::resilience::{BreakerState, FaultPlan, VirtualClock};

    use super::{faulty_annotator, lod_store};

    /// One `GET` on a fresh connection, sent now and read later, so a
    /// single thread can keep many requests in the server's queue.
    struct Pending(std::net::TcpStream);

    impl Pending {
        fn send(addr: std::net::SocketAddr, target: &str) -> Pending {
            use std::io::Write;
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(30)))
                .unwrap();
            write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
            Pending(stream)
        }

        /// Status and body, once the server has answered and closed.
        fn finish(mut self) -> (u16, String) {
            use std::io::Read;
            let mut raw = String::new();
            self.0.read_to_string(&mut raw).unwrap();
            let (head, body) = raw.split_once("\r\n\r\n").expect("a response head");
            let status = head.split(' ').nth(1).and_then(|s| s.parse().ok());
            (status.expect("a status line"), body.to_string())
        }
    }

    /// E23's simulated storm, on a wall-clock socket. Depth is now the
    /// number of accepted-but-unanswered connections, so silent
    /// connections in front of and behind a burst of requests hold it
    /// past `shed_depth` while the burst is served: the expensive class
    /// is shed from real queue depth, ordinary pages and `/ops` are
    /// not, and the verdict recovers once the queue drains and the
    /// shed window elapses — no restart, no virtual clock.
    #[test]
    fn overload_on_a_real_socket_sheds_expensive_first_and_recovers() {
        use lodify::core::web::{ServerConfig, WebServer};
        use std::time::Duration;

        let mut platform = Platform::bootstrap(WorkloadConfig::small(17)).unwrap();
        let shed_window = Duration::from_millis(300);
        platform.enable_admission(AdmissionConfig {
            tenant_rate_per_sec: 1e9,
            tenant_burst: 1e9,
            shed_depth: 4,
            hard_depth: 64,
            recent_shed_window_ms: shed_window.as_millis() as u64,
        });
        let platform = Arc::new(platform);
        let pid = platform.picture_ids()[0];
        let read_timeout = Duration::from_millis(500);
        let server = WebServer::start_with_config(
            Arc::clone(&platform),
            0,
            ServerConfig {
                read_timeout,
                write_timeout: Duration::from_secs(2),
            },
        )
        .unwrap();
        let addr = server.addr();
        let connect = || std::net::TcpStream::connect(addr).unwrap();

        // Healthy before the storm.
        let (status, ops) = Pending::send(addr, "/ops").finish();
        assert_eq!(status, 200);
        assert!(ops.contains("status: healthy"), "{ops}");
        assert_eq!(
            Pending::send(addr, &format!("/about/{pid}")).finish().0,
            200
        );

        // The storm, in queue order: silent connections that hold
        // every worker (at most 8) until the read deadline, the
        // flood, and six more silent connections that keep the depth
        // past `shed_depth` until the last flood request is answered.
        let front: Vec<_> = (0..8).map(|_| connect()).collect();
        let mut flood = vec![Pending::send(addr, "/ops")];
        for _ in 0..6 {
            flood.push(Pending::send(addr, &format!("/about/{pid}")));
            flood.push(Pending::send(addr, &format!("/picture/{pid}")));
        }
        flood.push(Pending::send(addr, "/ops"));
        let back: Vec<_> = (0..6).map(|_| connect()).collect();

        let answers: Vec<(u16, String)> = flood.into_iter().map(Pending::finish).collect();
        let (ops, pages) = (
            [&answers[0], &answers[answers.len() - 1]],
            &answers[1..answers.len() - 1],
        );
        for (about, picture) in pages.iter().step_by(2).zip(pages.iter().skip(1).step_by(2)) {
            assert_eq!(about.0, 503, "expensive work is shed first: {}", about.1);
            assert_eq!(picture.0, 200, "ordinary pages are still served");
        }
        for (status, body) in ops {
            assert_eq!(*status, 200, "operators can always see why");
            assert!(body.contains("status: DEGRADED"), "{body}");
            assert!(body.contains("shedding=true"), "{body}");
            let depth: usize = body
                .split(" admission ")
                .nth(1)
                .and_then(|rest| rest.split(" depth=").nth(1))
                .and_then(|rest| rest.split(' ').next())
                .and_then(|n| n.parse().ok())
                .expect("admission line with a depth");
            assert!(depth > 4, "depth counts the queue: {body}");
        }

        // The silent connections time out, the queue drains, the shed
        // window elapses: healthy again, expensive work served again.
        let admission = platform.admission().unwrap();
        let drained = lodify::obs::WallClock::new();
        while admission.queue_depth() > 0 {
            assert!(
                lodify::obs::Clock::now_micros(&drained) < 20_000_000,
                "queue never drained: {:?}",
                admission.ops()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(shed_window + Duration::from_millis(50));
        let (status, ops) = Pending::send(addr, "/ops").finish();
        assert_eq!(status, 200);
        assert!(ops.contains("status: healthy"), "{ops}");
        assert!(ops.contains("shedding=false"), "{ops}");
        assert_eq!(
            Pending::send(addr, &format!("/about/{pid}")).finish().0,
            200
        );

        let telemetry = server.telemetry();
        assert_eq!(
            telemetry.counter("web.timeouts"),
            14,
            "one per silent connection"
        );
        assert_eq!(telemetry.counter("web.errors"), 0);
        assert_eq!(admission.ops().shed_overload, 6);
        assert_eq!(platform.obs().metrics().counter("web.shed.overload"), 6);
        drop((front, back));
        server.stop();
    }

    /// The full overload storm: a 2x open-loop traffic surge drives the
    /// platform's real admission controller on virtual time while a
    /// scripted fault plan keeps the dbpedia resolver dead — `/ops`
    /// must degrade for *both* reasons, shed the expensive classes
    /// first, keep the tail bounded, and recover on its own once the
    /// storm drains and the outage lifts.
    #[test]
    fn overload_storm_sheds_degrades_and_recovers() {
        let clock = VirtualClock::new();
        let mut platform = Platform::bootstrap(WorkloadConfig::small(17)).unwrap();
        platform.set_observability(Obs::with_clock(Arc::new(clock.clone())));
        platform.enable_admission(AdmissionConfig {
            tenant_rate_per_sec: 1e9,
            tenant_burst: 1e9,
            shed_depth: 8,
            hard_depth: 16,
            recent_shed_window_ms: 5_000,
        });

        // Resolver outage covering the whole storm window; trip the
        // breaker before handing the annotator to the platform.
        let outage_ends_ms = 60_000;
        let plan = FaultPlan::builder()
            .outage("resolver:dbpedia", 0, outage_ends_ms)
            .build(clock.clone());
        let annotator = faulty_annotator(&plan, &clock);
        let scratch = lod_store();
        annotator.annotate(
            &scratch,
            &ContentInput {
                title: "Torino",
                tags: &[],
                context: None,
                poi_ref: None,
            },
        );
        assert_eq!(
            annotator.broker().breaker_state("dbpedia"),
            Some(BreakerState::Open),
            "resolver outage tripped the breaker mid-storm"
        );
        platform.set_annotator(annotator);

        // 2x overload for 3 virtual seconds through the platform's own
        // controller; the unprotected baseline runs the same schedule.
        let mut config = TrafficConfig::standard(23, 1.0, 3_000);
        config.rate_per_sec = 2.0 / config.utilization();
        let baseline = run_open_loop(&config, None, &VirtualClock::new());
        let controller = platform.admission().unwrap().clone();
        let shed = run_open_loop(&config, Some(&controller), &clock);

        assert!(shed.shed_overload > 0, "the storm must shed: {shed:?}");
        assert!(
            baseline.p99_us > 4 * shed.p99_us,
            "unshedded p99 {}us must diverge past shedded p99 {}us",
            baseline.p99_us,
            shed.p99_us
        );
        assert!(
            shed.max_depth <= 16,
            "hard depth bounds in-flight work: {shed:?}"
        );

        // Post-storm verdict: degraded for both reasons.
        let snapshot = platform.ops_snapshot();
        assert!(snapshot.is_degraded(), "storm + outage degrade /ops");
        assert!(
            snapshot
                .resolvers
                .iter()
                .any(|r| r.breaker == Some(BreakerState::Open)),
            "the dead resolver shows in the snapshot"
        );
        let admission = snapshot.admission.expect("admission section present");
        assert!(admission.shedding, "recent sheds keep the verdict");
        assert!(admission.shed_overload > 0);

        // Recovery: the storm drains, the shed window elapses, the
        // outage lifts, and the next upload's annotation probe closes
        // the breaker.
        clock.set(outage_ends_ms + 10_000);
        platform
            .upload(Upload {
                user_id: 1,
                title: "Tramonto a Torino".into(),
                tags: vec!["torino".into()],
                ts: 1_320_500_000,
                gps: None,
                poi: None,
            })
            .unwrap();
        let recovered = platform.ops_snapshot();
        assert!(
            recovered
                .resolvers
                .iter()
                .all(|r| r.breaker == Some(BreakerState::Closed) || r.breaker.is_none()),
            "breakers close once the outage lifts: {recovered}"
        );
        assert!(!recovered.admission.unwrap().shedding);
        assert!(
            !recovered.is_degraded(),
            "verdict recovers on its own: {recovered}"
        );
    }
}
