//! Base fixtures: the platform every workload starts from, the
//! catalog the generator reads, timed set-up and scratch directories.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lodify::context::{Gazetteer, Poi};
use lodify::core::albums::AlbumSpec;
use lodify::core::batch::BatchAnnotator;
use lodify::core::live::{LiveAlbumId, SubscriberId};
use lodify::core::platform::Platform;
use lodify::durability::{DurabilityOptions, FileStorage, RecoveryReport};
use lodify::lod::datasets::dbp;
use lodify::relational::coppermine as cpg;
use lodify::relational::WorkloadConfig;

use crate::gen::{Catalog, Monument};
use crate::stats::median;

/// Radius of the live albums registered for the write workloads (km).
pub const LIVE_RADIUS_KM: f64 = 0.5;

/// Fixture sizes. `full` is the ledger's; `smoke` exists so a CI step
/// can run the whole benchmark in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub users: usize,
    pub pictures: usize,
    /// Legacy pictures batch-annotated for the read workloads, so
    /// `dc:subject` links exist.
    pub legacy_chunk: usize,
    /// Set-ups per run; `setup_s` is their median. A traced run does
    /// not report it and sets up once.
    pub setup_reps: usize,
    /// Operations the traced run replays: a fixed count, whatever the
    /// time budget (`mixed_rw` replays this many uploads, in batches).
    pub traced_ops: usize,
}

impl Scale {
    pub fn new(smoke: bool, trace: bool) -> Scale {
        if smoke {
            Scale {
                users: 20,
                pictures: 400,
                legacy_chunk: 50,
                setup_reps: 1,
                traced_ops: 40,
            }
        } else {
            Scale {
                users: 100,
                pictures: 8000,
                legacy_chunk: 1000,
                setup_reps: if trace { 1 } else { 3 },
                traced_ops: 400,
            }
        }
    }

    pub fn config(&self, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            seed,
            users: self.users,
            pictures: self.pictures,
            ..WorkloadConfig::default()
        }
    }
}

/// The read workloads' platform: bootstrap plus one legacy annotation
/// chunk.
pub fn read_platform(seed: u64, scale: Scale) -> Platform {
    let mut platform = Platform::bootstrap(scale.config(seed)).expect("bootstrap");
    BatchAnnotator::new()
        .run_chunk(&mut platform, scale.legacy_chunk)
        .expect("legacy annotation chunk");
    platform
}

/// The write workloads' platform: journal-backed under `dir` with the
/// default durability options. Also how a run's directory is reopened
/// to measure recovery.
pub fn durable_platform(seed: u64, scale: Scale, dir: &Path) -> (Platform, RecoveryReport) {
    let storage = FileStorage::open(dir).expect("open storage directory");
    Platform::bootstrap_durable(
        scale.config(seed),
        Box::new(storage),
        DurabilityOptions::default(),
    )
    .expect("durable bootstrap")
}

/// One registered live album with its subscriber.
#[derive(Debug, Clone)]
pub struct LiveAlbum {
    pub spec: AlbumSpec,
    pub album: LiveAlbumId,
    pub subscriber: SubscriberId,
}

/// The standing album around one monument.
pub fn live_spec(monument: &Monument) -> AlbumSpec {
    AlbumSpec::near_monument(&monument.name, "it", LIVE_RADIUS_KM)
}

/// Registers one live album and one subscriber per monument, in
/// catalog order.
pub fn register_live(platform: &mut Platform, monuments: &[Monument]) -> Vec<LiveAlbum> {
    monuments
        .iter()
        .enumerate()
        .map(|(i, monument)| {
            let spec = live_spec(monument);
            let album = platform.live_register(&spec);
            let subscriber =
                platform.live_subscribe(&format!("http://subscriber.example/{i}"), album);
            LiveAlbum {
                spec,
                album,
                subscriber,
            }
        })
        .collect()
}

/// The gazetteer's non-commercial POIs: photo subjects, and the only
/// POIs the LOD snapshot gives an Italian label and a geometry.
fn sights() -> impl Iterator<Item = &'static Poi> {
    Gazetteer::global()
        .pois()
        .iter()
        .filter(|poi| !poi.category.is_commercial())
}

pub fn monuments() -> Vec<Monument> {
    sights()
        .map(|poi| Monument {
            name: poi.name.to_string(),
            iri: dbp(poi.key).as_str().to_string(),
            point: poi.point(Gazetteer::global()),
        })
        .collect()
}

/// What the generator may know about the base fixture.
pub fn catalog(platform: &Platform) -> Catalog {
    let gaz = Gazetteer::global();
    let mut words = BTreeSet::new();
    let labels = sights()
        .flat_map(|poi| std::iter::once(poi.name).chain(poi.alt_names.iter().copied()))
        .chain(
            gaz.cities()
                .iter()
                .flat_map(|c| c.labels.iter().map(|(_, l)| *l)),
        )
        .chain(gaz.people().iter().map(|p| p.name));
    for label in labels {
        for word in label.split(|c: char| !c.is_alphabetic()) {
            if word.chars().count() >= 2 {
                words.insert(word.to_string());
            }
        }
    }

    let db = platform.db();
    let users = db.table(cpg::USERS).expect("users table");
    let known: BTreeSet<i64> = db
        .table(cpg::FRIENDS)
        .expect("friends table")
        .scan()
        .filter_map(|(_, row)| row[2].as_int())
        .collect();
    let known_users = known
        .into_iter()
        .filter_map(|uid| Some(users.get(uid)?[1].as_text()?.to_string()))
        .collect();

    Catalog {
        monuments: monuments(),
        label_words: words.into_iter().collect(),
        known_users,
        picture_ids: platform.picture_ids(),
    }
}

/// Runs `build` `reps` times, dropping each result before the next
/// build so only one fixture is ever resident; returns the last build
/// and the median build time in seconds.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let started = Instant::now();
        last = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up ran"),
        median(&times).expect("at least one set-up ran"),
    )
}

/// The benchmark's output directory (`benchmark/out`, git-ignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process scratch directory under `out/tmp`, removed on drop.
/// Everything the benchmark writes stays inside its checkout.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    pub fn new() -> Scratch {
        let root = out_dir()
            .join("tmp")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create scratch directory");
        Scratch { root, next: 0 }
    }

    /// A fresh, not yet existing sub-directory path.
    pub fn fresh(&mut self, label: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{label}-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
