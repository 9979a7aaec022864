//! The four workloads, and what the two write workloads share.

pub mod http_browse;
pub mod mixed_rw;
pub mod sparql_direct;
pub mod upload_live;

use std::path::PathBuf;
use std::time::Instant;

use lodify::core::platform::{Platform, Upload};
use lodify::d2r::defaults::coppermine_mapping;
use lodify::d2r::dump::dump_resource;
use lodify::durability::DurabilityStats;
use lodify::rdf::Point;
use lodify::relational::coppermine as cpg;

use crate::common::{ensure, ntriples_digest, Outcome, RunConfig, Tally};
use crate::fixture::{self, timed_setup, LiveAlbum, Scratch, LIVE_RADIUS_KM};
use crate::gen::{self, Monument};
use crate::stats::MetricSet;

/// Runs `workload` untraced or traced; `None` for an unknown name.
pub fn dispatch(workload: &str, trace: bool, cfg: &RunConfig) -> Option<Outcome> {
    let run: fn(&RunConfig) -> Outcome = match (workload, trace) {
        ("http_browse", false) => http_browse::run,
        ("http_browse", true) => http_browse::trace,
        ("sparql_direct", false) => sparql_direct::run,
        ("sparql_direct", true) => sparql_direct::trace,
        ("upload_live", false) => upload_live::run,
        ("upload_live", true) => upload_live::trace,
        ("mixed_rw", false) => mixed_rw::run,
        ("mixed_rw", true) => mixed_rw::trace,
        _ => return None,
    };
    Some(run(cfg))
}

/// The media link the D2R mapping mints for a picture.
pub fn media_link(pid: i64) -> String {
    format!("http://beta.teamlife.it/media/{pid}.jpg")
}

/// The write workloads' fixture: a journal-backed platform in a fresh
/// directory, one live album and one subscriber per monument, and the
/// generated upload stream.
pub struct WriteBench {
    pub cfg: RunConfig,
    pub platform: Platform,
    pub monuments: Vec<Monument>,
    pub live: Vec<LiveAlbum>,
    pub uploads: Vec<Upload>,
    pub dir: PathBuf,
    pub base_triples: usize,
    /// Picture ids from here on belong to this run's uploads.
    pub first_new_pid: i64,
    pub setup_s: f64,
    scratch: Scratch,
}

impl WriteBench {
    pub fn build(cfg: &RunConfig, uploads: usize) -> WriteBench {
        let mut scratch = Scratch::new();
        let monuments = fixture::monuments();
        let ((platform, live, dir), setup_s) = timed_setup(cfg.scale.setup_reps, || {
            let dir = scratch.fresh("store");
            let (mut platform, _) = fixture::durable_platform(cfg.seed, cfg.scale, &dir);
            let live = fixture::register_live(&mut platform, &monuments);
            (platform, live, dir)
        });
        WriteBench {
            cfg: *cfg,
            base_triples: platform.store().len(),
            first_new_pid: platform.picture_ids().last().copied().unwrap_or(0) + 1,
            platform,
            monuments,
            live,
            uploads: gen::uploads(cfg.seed, cfg.scale.users, uploads),
            dir,
            setup_s,
            scratch,
        }
    }

    /// A fresh directory beside the run's own (bench-owned twins).
    pub fn fresh_dir(&mut self, label: &str) -> PathBuf {
        self.scratch.fresh(label)
    }

    /// The live album an upload is checked against — the one around
    /// the monument nearest its GPS fix — and whether the upload must
    /// appear in it. The point goes through its WKT form first, as the
    /// stored geometry does.
    pub fn expected_album(&self, index: usize) -> (usize, bool) {
        let stored = self.uploads[index]
            .gps
            .and_then(|p| Point::parse_wkt(&p.to_wkt()).ok());
        let Some(point) = stored else {
            return (index % self.live.len(), false);
        };
        let (nearest, distance) = self
            .monuments
            .iter()
            .map(|m| m.point.distance_km(point))
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("the gazetteer has monuments");
        (nearest, distance <= LIVE_RADIUS_KM)
    }

    /// Checks that upload `index` (now picture `pid`) is visible in its
    /// album through `view_album` and at that album's subscriber. An
    /// upload outside the radius has no album to appear in: there the
    /// standing query and the subscriber must both lack it, and no
    /// album is viewed (a view of an album the commit did not patch is
    /// a cache miss — a re-solve that is not part of the write path).
    pub fn check_visible(&self, index: usize, pid: i64) -> Result<(), String> {
        let (album, expected) = self.expected_album(index);
        let link = media_link(pid);
        let live = &self.live[album];
        let viewed = if expected {
            self.platform
                .view_album(&live.spec)
                .map_err(|e| format!("view_album: {e}"))?
                .contains(&link)
        } else {
            self.platform
                .live()
                .engine()
                .links(live.album)
                .contains(&link)
        };
        ensure(viewed == expected, || {
            format!("picture {pid}: album has it: {viewed}, expected {expected}")
        })?;
        let pushed = self
            .platform
            .live()
            .hub()
            .subscriber(live.subscriber)
            .ok_or("subscriber is down")?
            .links();
        ensure(pushed.contains(&link) == expected, || {
            format!(
                "picture {pid}: subscriber has it: {}, expected {expected}",
                !expected
            )
        })
    }

    pub fn durability(&self) -> DurabilityStats {
        self.platform
            .durability()
            .expect("the platform is journal-backed")
    }

    /// End-of-run checks: the store grew by exactly the receipts'
    /// triples (plus the POI-reference triples, which
    /// `UploadReceipt::triples_added` leaves out), no push is
    /// outstanding, and reopening the run's directory recovers the same
    /// statements. Returns the recovery time in milliseconds.
    pub fn finish(self, triples_added: usize, tally: &mut Tally) -> f64 {
        let store = self.platform.store();
        let db = self.platform.db();
        let mapping = coppermine_mapping();
        let poi_triples: usize = db
            .table(cpg::POI_REFS)
            .expect("poi refs table")
            .scan()
            .filter(|(_, row)| row[1].as_int() >= Some(self.first_new_pid))
            .map(|(ref_id, _)| {
                dump_resource(db, &mapping, cpg::POI_REFS, ref_id).map_or(0, |t| t.len())
            })
            .sum();
        let expected = self.base_triples + triples_added + poi_triples;
        tally.require(ensure(store.len() == expected, || {
            format!(
                "store holds {} triples, base {} + receipts {triples_added} + POI references {poi_triples}",
                store.len(),
                self.base_triples
            )
        }));
        let lag = self.platform.live().ops().push.lag;
        tally.require(ensure(lag == 0, || format!("push lag {lag} at the end")));
        let live = ntriples_digest(store);
        drop(self.platform);

        let started = Instant::now();
        let (recovered, report) =
            fixture::durable_platform(self.cfg.seed, self.cfg.scale, &self.dir);
        let recover_ms = started.elapsed().as_secs_f64() * 1e3;
        tally.require(ensure(report.recovered, || {
            "reopening the directory did not recover".to_string()
        }));
        let recovered = ntriples_digest(recovered.store());
        tally.require(ensure(recovered == live, || {
            format!("recovered store {recovered:?} differs from the live store {live:?}")
        }));
        recover_ms
    }
}

/// Write amplification per upload between two durability snapshots.
/// `wal_bytes` restarts with every generation, so its per-upload
/// figure is sampled by the caller; the lifetime counters divide.
pub fn durability_counts(
    metrics: &mut MetricSet,
    before: &DurabilityStats,
    after: &DurabilityStats,
    wal_bytes_per_upload: &[f64],
    uploads: usize,
) {
    let per_upload = |delta: u64| delta as f64 / uploads.max(1) as f64;
    metrics.mean(
        "durability.wal_bytes_per_upload",
        "bytes",
        wal_bytes_per_upload,
    );
    metrics.push(
        "durability.records_per_upload",
        "count",
        per_upload(after.records_journaled - before.records_journaled),
        uploads,
    );
    metrics.push(
        "durability.flushes_per_upload",
        "count",
        per_upload(after.flushes - before.flushes),
        uploads,
    );
    metrics.push(
        "durability.snapshots_written",
        "count",
        after.snapshots_written as f64,
        1,
    );
}

/// WAL bytes appended between two snapshots of one generation (`None`
/// across a compaction, where the counter restarted).
pub fn wal_bytes_between(before: &DurabilityStats, after: &DurabilityStats) -> Option<f64> {
    (before.generation == after.generation).then(|| (after.wal_bytes - before.wal_bytes) as f64)
}
