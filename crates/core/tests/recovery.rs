//! Recovery oracle: a platform recovered from any crash point must be
//! indistinguishable from an uncrashed platform that ran exactly the
//! acknowledged prefix of the same commits.
//!
//! A small durable platform runs a script that touches every commit
//! path — an upload with a POI reference, an upload without GPS, two
//! ratings of one picture, an ingest batch of three, a legacy
//! annotation. The finished WAL is then cut at every frame boundary
//! and at the first, middle and last byte inside every frame, and each
//! cut is recovered. The acknowledged prefix of a cut is the sequence
//! number of its last whole frame (one commit is one frame), or the
//! snapshot's when no frame survived. The recovered platform is
//! compared with a fresh platform that ran that prefix: store export,
//! tag index, annotation results, relational rows, the `/search` and
//! `/album` bodies, and the receipt of the next upload. The script
//! runs twice — without compaction, and with a threshold low enough
//! that recovery replays metas out of a snapshot.

use std::collections::BTreeSet;

use lodify_core::ingest::IngestPool;
use lodify_core::platform::{Platform, Upload};
use lodify_core::web::{route, Request};
use lodify_durability::codec::{read_frame, FrameOutcome};
use lodify_durability::{
    decode_snapshot, DurabilityOptions, GroupCommitPolicy, MemStorage, Storage,
};
use lodify_relational::coppermine as cpg;
use lodify_relational::WorkloadConfig;

const SEED: u64 = 5;
/// A seed picture: rated twice, then annotated as legacy content.
const RATED: i64 = 3;
const LEGACY: i64 = 4;

fn mole() -> lodify_rdf::Point {
    let gaz = lodify_context::Gazetteer::global();
    gaz.poi("Mole_Antonelliana").unwrap().point(gaz)
}

fn upload(title: &str, ts: i64, gps: bool) -> Upload {
    Upload {
        user_id: 1 + ts % 3,
        title: title.to_string(),
        tags: vec!["torino".into(), format!("tag{ts}")],
        ts,
        gps: gps.then(mole),
        poi: None,
    }
}

fn batch() -> Vec<Upload> {
    vec![
        upload("Tramonto alla Mole", 1_320_600_001, true),
        upload("Juventus match day", 1_320_600_002, false),
        upload("Torino by night", 1_320_600_003, true),
    ]
}

/// Runs the first `k` commits of the script. A prefix that ends inside
/// the ingest batch runs the batch's first items as a batch of their
/// own — batched ingest commits item by item, in capture order.
fn run_prefix(p: &mut Platform, k: usize, flush: bool) {
    let mut done = 0;
    let mut step = |p: &mut Platform, commits: usize, op: &dyn Fn(&mut Platform, usize)| {
        if done < k {
            op(p, (k - done).min(commits));
            if flush {
                p.flush_store().unwrap();
            }
        }
        done += commits;
    };
    step(p, 1, &|p, _| {
        let mut first = upload("Davanti alla Mole Antonelliana", 1_320_500_000, true);
        first.poi = Some(("Mole Antonelliana".into(), "monument".into(), mole()));
        p.upload(first).unwrap();
    });
    step(p, 1, &|p, _| {
        p.upload(upload("Walking around Milan", 1_320_500_100, false))
            .unwrap();
    });
    step(p, 1, &|p, _| p.rate(RATED, 2, 5).unwrap());
    step(p, 1, &|p, _| p.rate(RATED, 3, 2).unwrap());
    step(p, 3, &|p, n| {
        let mut items = batch();
        items.truncate(n);
        assert!(IngestPool::new(2).ingest(p, items).is_clean());
    });
    step(p, 1, &|p, _| {
        p.annotate_legacy(LEGACY).unwrap();
    });
}

const COMMITS: usize = 8;

/// Everything a user or operator can observe of the platform, the
/// next upload's receipt last (it mutates).
#[derive(Debug, PartialEq)]
struct Observed {
    store: Vec<String>,
    tags: Vec<String>,
    annotations: String,
    rows: String,
    search: String,
    album: String,
    next_receipt: (i64, usize),
}

fn export(p: &Platform) -> Vec<String> {
    let mut lines: Vec<String> = p
        .store()
        .export_ntriples(None)
        .lines()
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

fn observe(mut p: Platform) -> Observed {
    let seed_pictures = p.truth().len() as i64;
    let pids: BTreeSet<i64> = p
        .picture_ids()
        .into_iter()
        .filter(|pid| *pid > seed_pictures || [RATED, LEGACY].contains(pid))
        .collect();
    let tags = pids
        .iter()
        .map(|pid| format!("{pid}: {:?}", p.tags().tags_of(*pid)))
        .chain(["torino", "tag1320600002"].map(|w| format!("{w}: {:?}", p.tags().by_keyword(w))))
        .collect();
    let rows = [cpg::PICTURES, cpg::POI_REFS, cpg::VOTES]
        .map(|table| {
            format!(
                "{:?}",
                p.db().table(table).unwrap().scan().collect::<Vec<_>>()
            )
        })
        .join("\n");
    let get = |p: &Platform, target: &str| {
        let request = Request::parse(&format!("GET {target} HTTP/1.1"), &[]).unwrap();
        route(p, &request).body
    };
    let search = get(&p, "/search?q=Mole");
    let album = get(&p, "/album?monument=Mole+Antonelliana&radius=1.0");
    let store = export(&p);
    let receipt = p
        .upload(upload("Ancora la Mole", 1_320_700_000, true))
        .unwrap();
    Observed {
        store,
        tags,
        annotations: format!("{:?}", p.annotations()),
        rows,
        search,
        album,
        next_receipt: (receipt.pid, receipt.triples_added),
    }
}

/// The uncrashed platform that ran the first `k` commits.
fn reference(k: usize) -> Platform {
    let mut p = Platform::bootstrap(WorkloadConfig::small(SEED)).unwrap();
    run_prefix(&mut p, k, false);
    p
}

/// Frame boundaries of a WAL image and the sequence number each
/// complete frame ends on.
fn frames(wal: &[u8]) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    let mut offset = 0;
    while let FrameOutcome::Frame { seq, next, .. } = read_frame(wal, offset) {
        out.push((next, seq));
        offset = next;
    }
    out
}

fn crash_and_compare(options: DurabilityOptions, expected: &[(Vec<String>, Observed)]) -> usize {
    let disk = MemStorage::new();
    let (mut p, _) =
        Platform::bootstrap_durable(WorkloadConfig::small(SEED), Box::new(disk.clone()), options)
            .unwrap();
    run_prefix(&mut p, COMMITS, true);
    drop(p);
    disk.crash();

    let files = disk.list();
    let snap_name = files
        .iter()
        .find(|f| f.starts_with("snap-"))
        .unwrap()
        .clone();
    let wal_name = files
        .iter()
        .find(|f| f.starts_with("wal-"))
        .unwrap()
        .clone();
    let snap = disk.read(&snap_name).unwrap();
    let wal = disk.read(&wal_name).unwrap();
    let folded = decode_snapshot(&snap).unwrap().last_seq;
    let frames = frames(&wal);
    assert_eq!(
        frames.last().map_or(0, |f| f.0),
        wal.len(),
        "the WAL parses to its end"
    );

    let mut cuts = vec![0];
    let mut start = 0;
    for &(end, _) in &frames {
        cuts.extend([start + 1, (start + end) / 2, end - 1, end]);
        start = end;
    }
    // Recover every cut first, so a torn commit is reported as such
    // before any prefix comparison.
    let recovered: Vec<(usize, usize, Observed)> = cuts
        .iter()
        .map(|&cut| {
            let acknowledged = frames
                .iter()
                .take_while(|(end, _)| *end <= cut)
                .last()
                .map_or(folded, |f| f.1) as usize;
            let crashed = MemStorage::new();
            crashed.plant(&snap_name, snap.clone());
            crashed.plant(&wal_name, wal[..cut].to_vec());
            let (platform, report) = Platform::bootstrap_durable(
                WorkloadConfig::small(SEED),
                Box::new(crashed),
                options,
            )
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recovery failed: {e}"));
            assert!(report.recovered);
            (cut, acknowledged, observe(platform))
        })
        .collect();
    let references: Vec<&Vec<String>> = expected.iter().map(|(store, _)| store).collect();
    for (cut, _, observed) in &recovered {
        assert!(
            references.contains(&&observed.store),
            "cut at byte {cut}: the recovered store holds part of a commit"
        );
    }
    for (cut, acknowledged, observed) in &recovered {
        assert!(
            *acknowledged <= COMMITS,
            "cut at byte {cut}: frame {acknowledged} of {COMMITS} commits"
        );
        assert_eq!(
            observed, &expected[*acknowledged].1,
            "cut at byte {cut}: recovered platform differs from the {acknowledged}-commit prefix"
        );
    }
    assert_eq!(
        frames.last().map_or(folded, |f| f.1),
        COMMITS as u64,
        "one WAL record per commit"
    );
    cuts.len()
}

#[test]
fn recovery_from_any_crash_point_equals_the_acknowledged_prefix() {
    let expected: Vec<(Vec<String>, Observed)> = (0..=COMMITS)
        .map(|k| (export(&reference(k)), observe(reference(k))))
        .collect();
    let no_compaction = DurabilityOptions {
        group_commit: GroupCommitPolicy::default(),
        snapshot_every_records: None,
    };
    assert!(crash_and_compare(no_compaction, &expected) > 4 * COMMITS);
    let compacting = DurabilityOptions {
        group_commit: GroupCommitPolicy::default(),
        snapshot_every_records: Some(3),
    };
    crash_and_compare(compacting, &expected);
}

/// Compaction runs on the flush path: an upload + flush loop writes
/// snapshots at the threshold, and recovery replays at most that many
/// commits.
#[test]
fn flushing_uploads_compact_at_the_threshold() {
    let disk = MemStorage::new();
    let options = DurabilityOptions {
        group_commit: GroupCommitPolicy::default(),
        snapshot_every_records: Some(4),
    };
    let (mut p, _) =
        Platform::bootstrap_durable(WorkloadConfig::small(SEED), Box::new(disk.clone()), options)
            .unwrap();
    let before = p.durability().unwrap().snapshots_written;
    for i in 0..10 {
        p.upload(upload("Tramonto alla Mole", 1_320_800_000 + i, i % 2 == 0))
            .unwrap();
        p.flush_store().unwrap();
    }
    let stats = p.durability().unwrap();
    assert_eq!(
        stats.snapshots_written - before,
        2,
        "10 commits at threshold 4"
    );
    assert_eq!(stats.records_journaled, 10, "one record per upload");
    let live = export(&p);
    drop(p);
    disk.crash();
    let boot = || {
        let storage = Box::new(disk.clone());
        Platform::bootstrap_durable(WorkloadConfig::small(SEED), storage, options).unwrap()
    };
    let (mut recovered, report) = boot();
    assert!(report.wal_records_replayed <= 4);
    assert_eq!(export(&recovered), live);

    // The replayed tail counts toward the threshold, so restarts cannot
    // grow the WAL past it either.
    for i in 10..13 {
        recovered
            .upload(upload("Torino by night", 1_320_800_000 + i, false))
            .unwrap();
        recovered.flush_store().unwrap();
    }
    drop(recovered);
    disk.crash();
    assert!(boot().1.wal_records_replayed <= 4);
}
