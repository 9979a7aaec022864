//! The persistence engine: a [`Store`] paired with a journal.
//!
//! [`DurableStore::commit`] is the one mutation entry point. It applies
//! a [`Delta`] and, in *durable* mode, appends it with an opaque caller
//! `meta` as exactly one [`Record::Commit`], so neither a group-commit
//! flush nor a crash can split a commit. Snapshots compact the log, and
//! [`DurableStore::open`] / [`DurableStore::open_or_adopt`] rebuild the
//! store — triple indexes, fulltext, labels, geo, stats — to exactly the last
//! acknowledged commit, handing every commit's meta back in the
//! [`RecoveryReport`] so the caller can replay its own state.
//!
//! ## On-disk layout
//!
//! A *generation* `g` is a pair of files: `snap-<g>` (a validated
//! [`crate::snapshot`] segment, keeping the metas of the commits it
//! folds in) and `wal-<g>` (the commits since). Compaction writes
//! generation `g+1` fully — snapshot flushed, fresh WAL created —
//! before deleting generation `g`, so a crash at any point leaves at
//! least one recoverable generation on disk.
//!
//! ## Wire dictionary
//!
//! Records reference terms by *wire id*, a dictionary owned by the
//! journal and rebuilt from the log on recovery. Wire ids are
//! deliberately decoupled from the store's own [`lodify_store::TermId`]s: the store
//! re-interns terms in replay order, so its ids are not stable across
//! recoveries — the wire dictionary is.
//!
//! ## Fault injection
//!
//! The durability barriers honor an optional
//! [`lodify_resilience::FaultPlan`]: `wal.flush` guards the
//! WAL flush barrier and `snapshot.write` guards snapshot segment
//! writes. Injected latency on those targets advances the plan's
//! virtual clock, so a test can charge a per-flush cost in
//! deterministic virtual time.

use std::collections::HashMap;

use lodify_obs::Metrics;
use lodify_rdf::{Iri, Term, Triple};
use lodify_resilience::FaultPlan;
use lodify_store::store::Store;
use lodify_store::GraphId;

use crate::codec::{read_frame, FrameOutcome, Record};
use crate::error::DurabilityError;
use crate::snapshot::{decode_snapshot, encode_snapshot, SnapshotImage};
use crate::storage::Storage;
use crate::wal::{scan_log, GroupCommitPolicy, TailReport, WalWriter};

/// Fault-plan target guarding the WAL flush barrier.
pub const TARGET_WAL_FLUSH: &str = "wal.flush";
/// Fault-plan target guarding snapshot segment writes.
pub const TARGET_SNAPSHOT_WRITE: &str = "snapshot.write";

fn snap_name(generation: u64) -> String {
    format!("snap-{generation:010}")
}

fn wal_name(generation: u64) -> String {
    format!("wal-{generation:010}")
}

fn parse_generation(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.parse().ok()
}

/// Tuning knobs for the persistence engine.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// Group-commit batching for the WAL.
    pub group_commit: GroupCommitPolicy,
    /// Compact automatically once the live WAL holds this many
    /// commits, checked at every flush; `None` disables automatic
    /// snapshots (explicit [`DurableStore::snapshot`] still works).
    pub snapshot_every_records: Option<u64>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            group_commit: GroupCommitPolicy::default(),
            snapshot_every_records: Some(4096),
        }
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// True when an existing generation was recovered (false for a
    /// fresh adoption).
    pub recovered: bool,
    /// Generation the engine resumed (or started) at.
    pub generation: u64,
    /// Statements restored from the snapshot segment.
    pub snapshot_triples: u64,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: u64,
    /// Torn/corrupt WAL tail diagnosis.
    pub tail: TailReport,
    /// Invalid (partially written) snapshot generations skipped before
    /// a usable one was found.
    pub generations_skipped: u64,
    /// Every recovered commit with a non-empty meta, in commit order.
    pub commits: Vec<RecoveredCommit>,
}

/// One commit handed back by recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredCommit {
    /// The meta the commit carried, verbatim.
    pub meta: Vec<u8>,
    /// The statements it changed, for a commit of the WAL tail that
    /// was appended while compaction was held; `None` otherwise.
    pub delta: Option<Delta>,
}

/// A store mutation applied and journaled as one unit. Removes apply
/// before inserts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    /// Statements to insert, each into its graph.
    pub inserts: Vec<(Triple, GraphId)>,
    /// Statements to remove from the union store.
    pub removes: Vec<Triple>,
}

impl Delta {
    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.removes.is_empty()
    }
}

/// Point-in-time durability counters for operational dashboards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Current generation number.
    pub generation: u64,
    /// Commits in the live WAL (journal depth since last snapshot).
    pub wal_records: u64,
    /// Bytes in the live WAL.
    pub wal_bytes: u64,
    /// Records appended but not yet flushed (unacknowledged).
    pub wal_pending: usize,
    /// Flush barriers issued over the engine's lifetime.
    pub flushes: u64,
    /// Records journaled over the engine's lifetime.
    pub records_journaled: u64,
    /// Snapshots written by this process (not counting the recovered
    /// one).
    pub snapshots_written: u64,
    /// Virtual-clock timestamp of the last snapshot, when a clock is
    /// attached via the fault plan.
    pub last_snapshot_ms: Option<u64>,
    /// Records replayed during recovery at open.
    pub records_replayed: u64,
    /// Torn-tail bytes dropped during recovery at open.
    pub tail_dropped_bytes: u64,
}

/// Journal-owned term dictionary; ids are dense and stable across the
/// snapshot + WAL history of one generation.
#[derive(Debug, Default)]
struct WireDict {
    by_term: HashMap<Term, u64>,
    terms: Vec<Term>,
}

impl WireDict {
    fn from_terms(terms: Vec<Term>) -> WireDict {
        let by_term = terms
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i as u64))
            .collect();
        WireDict { by_term, terms }
    }

    /// Returns `(wire_id, newly_interned)`.
    fn intern(&mut self, term: &Term) -> (u64, bool) {
        if let Some(&id) = self.by_term.get(term) {
            return (id, false);
        }
        let id = self.terms.len() as u64;
        self.terms.push(term.clone());
        self.by_term.insert(term.clone(), id);
        (id, true)
    }
}

struct Journal {
    storage: Box<dyn Storage>,
    wire: WireDict,
    wal: WalWriter,
    /// Graphs already journaled; store graph ids below this are
    /// declared in the log.
    declared_graphs: usize,
    /// Set while a consumer still needs the WAL tail: compaction waits.
    hold: bool,
    options: DurabilityOptions,
    fault_plan: Option<FaultPlan>,
    observability: Option<Metrics>,
    /// Generation and lifetime counters (`wal_*` filled in on read).
    stats: DurabilityStats,
}

impl Journal {
    /// A generation-0 journal (no files): adoption or recovery moves it on.
    fn new(storage: Box<dyn Storage>, options: DurabilityOptions) -> Journal {
        Journal {
            storage,
            wire: WireDict::default(),
            wal: WalWriter::new(wal_name(0), 1, options.group_commit),
            declared_graphs: 0,
            hold: false,
            options,
            fault_plan: None,
            observability: None,
            stats: DurabilityStats::default(),
        }
    }

    fn check_fault(&self, target: &str) -> Result<(), DurabilityError> {
        if let Some(plan) = &self.fault_plan {
            plan.check(target)
                .map_err(|e| DurabilityError::Unavailable(e.to_string()))?;
        }
        Ok(())
    }

    fn now_ms(&self) -> Option<u64> {
        self.fault_plan.as_ref().map(|p| p.clock().now_ms())
    }

    /// Appends one applied commit, with the graphs (in order, so wire
    /// gid == store gid) and terms it introduces; returns flush-due.
    fn append_commit(&mut self, store: &Store, delta: &Delta, meta: &[u8]) -> bool {
        let graphs = (self.declared_graphs..store.graph_count())
            .map(|gid| {
                let name = store
                    .graph_name(GraphId(gid as u16))
                    .expect("graph ids are dense");
                (gid as u16, name.to_string())
            })
            .collect();
        self.declared_graphs = store.graph_count();
        let mut terms = Vec::new();
        let mut wire = |term: &Term| {
            let (id, new) = self.wire.intern(term);
            if new {
                terms.push((id, term.clone()));
            }
            id
        };
        let mut spo = |t: &Triple| {
            (
                wire(&t.subject),
                wire(&Term::Iri(t.predicate.clone())),
                wire(&t.object),
            )
        };
        let removes = delta.removes.iter().map(&mut spo).collect();
        let inserts = delta
            .inserts
            .iter()
            .map(|(t, g)| {
                let (s, p, o) = spo(t);
                (s, p, o, g.0)
            })
            .collect();
        self.stats.records_journaled += 1;
        let record = Record::Commit {
            graphs,
            terms,
            inserts,
            removes,
            meta: meta.to_vec(),
            held: self.hold,
        };
        self.wal.append(&record).1
    }

    /// Times a durability barrier into the named histogram (and keeps
    /// the `wal.pending` gauge current) when a registry is attached.
    fn timed<T, E>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<T, E> {
        let timed = self
            .observability
            .as_ref()
            .map(|metrics| (metrics.clone(), metrics.now_micros()));
        let out = f(self);
        if let Some((metrics, started)) = timed {
            if out.is_ok() {
                metrics.observe(name, metrics.now_micros().saturating_sub(started));
            } else {
                metrics.incr(&format!("{name}.errors"));
            }
            metrics.set_gauge("wal.pending", self.wal.pending() as u64);
        }
        out
    }

    /// The durability barrier: pushes buffered records to storage.
    /// On failure the records stay pending (a later flush retries) and
    /// the mutations are *not* acknowledged.
    fn flush(&mut self) -> Result<(), DurabilityError> {
        if self.wal.pending() == 0 {
            return Ok(());
        }
        self.timed("wal.flush", |journal| {
            journal.check_fault(TARGET_WAL_FLUSH)?;
            journal.wal.flush(journal.storage.as_mut())?;
            journal.stats.flushes += 1;
            Ok(())
        })
    }

    /// The barrier, then compaction once the WAL holds the configured
    /// number of commits.
    fn flush_and_compact(&mut self, store: &Store) -> Result<(), DurabilityError> {
        self.flush()?;
        match self.options.snapshot_every_records {
            Some(every) if self.wal.records >= every => self.snapshot(store),
            _ => Ok(()),
        }
    }

    /// Log compaction: writes generation `g+1` (snapshot + empty WAL)
    /// and only then deletes generation `g`. Every intermediate crash
    /// point recovers — either to the old generation (new snapshot not
    /// yet durable) or to the new one. A no-op while compaction is
    /// held.
    fn snapshot(&mut self, store: &Store) -> Result<(), DurabilityError> {
        if self.hold {
            return Ok(());
        }
        self.timed("wal.snapshot", |journal| journal.snapshot_inner(store))
    }

    fn snapshot_inner(&mut self, store: &Store) -> Result<(), DurabilityError> {
        self.flush()?;
        self.check_fault(TARGET_SNAPSHOT_WRITE)?;
        let next = self.stats.generation + 1;
        let metas = stored_metas(self.storage.as_ref(), self.stats.generation)?;
        let (bytes, wire_terms) = encode_snapshot(store, self.wal.next_seq() - 1, &metas);
        let snap = snap_name(next);
        self.storage.create(&snap)?;
        self.storage.append(&snap, &bytes)?;
        self.storage.flush(&snap)?;
        let wal = wal_name(next);
        self.storage.create(&wal)?;
        self.storage.flush(&wal)?;
        // The new generation is durable; dropping the old one is now
        // safe (and losing the deletes to a crash is harmless — open
        // prefers the highest valid generation).
        self.storage.delete(&snap_name(self.stats.generation)).ok();
        self.storage.delete(&wal_name(self.stats.generation)).ok();
        let next_seq = self.wal.next_seq();
        let policy = self.wal.policy();
        self.wal = WalWriter::new(wal, next_seq, policy);
        self.wire = WireDict::from_terms(wire_terms);
        self.declared_graphs = store.graph_count();
        self.stats.generation = next;
        self.stats.snapshots_written += 1;
        self.stats.last_snapshot_ms = self.now_ms();
        Ok(())
    }

    fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            wal_records: self.wal.records,
            wal_bytes: self.wal.bytes,
            wal_pending: self.wal.pending(),
            ..self.stats.clone()
        }
    }
}

/// A triple store with optional write-ahead durability.
pub struct DurableStore {
    store: Store,
    journal: Option<Journal>,
}

impl DurableStore {
    /// A purely in-memory store: mutations are passthrough, `flush`
    /// and `snapshot` are no-ops. This is the seed platform's mode.
    pub fn ephemeral(store: Store) -> DurableStore {
        DurableStore {
            store,
            journal: None,
        }
    }

    /// Opens existing durable state, or starts empty when the storage
    /// is fresh.
    pub fn open(
        storage: Box<dyn Storage>,
        options: DurabilityOptions,
    ) -> Result<(DurableStore, RecoveryReport), DurabilityError> {
        DurableStore::open_or_adopt(storage, options, Store::new)
    }

    /// Opens existing durable state; when the storage is fresh (no
    /// valid generation), builds the initial store with `bootstrap`
    /// and adopts it as generation 1 (snapshot + empty WAL). The
    /// bootstrap closure is *not* run on recovery.
    pub fn open_or_adopt(
        mut storage: Box<dyn Storage>,
        options: DurabilityOptions,
        bootstrap: impl FnOnce() -> Store,
    ) -> Result<(DurableStore, RecoveryReport), DurabilityError> {
        if let Some(loaded) = try_load(storage.as_ref())? {
            return finish_open(storage, options, loaded);
        }
        // Fresh storage: clear any stray partial files (a crash during
        // a previous failed adoption), then adopt the bootstrap store.
        for name in storage.list() {
            storage.delete(&name).ok();
        }
        // Adoption is the first compaction: generation 0 has no files,
        // and writing generation 1 snapshots the bootstrap store.
        let store = bootstrap();
        let mut journal = Journal::new(storage, options);
        journal.snapshot_inner(&store)?;
        let report = RecoveryReport {
            generation: journal.stats.generation,
            snapshot_triples: store.len() as u64,
            ..RecoveryReport::default()
        };
        let journal = Some(journal);
        Ok((DurableStore { store, journal }, report))
    }

    /// Read access to the underlying store (query engines, exports).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Registers (or retrieves) a named graph; journaled lazily with
    /// the next commit that needs it.
    pub fn graph(&mut self, name: &str) -> GraphId {
        self.store.graph(name)
    }

    /// Applies `delta` — removes, then inserts — and narrows it to the
    /// statements that changed the store. In durable mode the narrowed
    /// delta and `meta` are appended as one WAL record (none when both
    /// are empty), flushed when the group-commit batch is due. An `Err`
    /// means the record is appended but **not acknowledged**: store and
    /// `delta` reflect the commit, and a later successful
    /// [`DurableStore::flush`] acknowledges it.
    pub fn commit(&mut self, delta: &mut Delta, meta: &[u8]) -> Result<(), DurabilityError> {
        let store = &mut self.store;
        delta.removes.retain(|triple| store.remove(triple));
        delta
            .inserts
            .retain(|(triple, graph)| store.insert(triple, *graph));
        match self.journal.as_mut() {
            Some(journal) if !(delta.is_empty() && meta.is_empty()) => {
                if journal.append_commit(&self.store, delta, meta) {
                    journal.flush_and_compact(&self.store)?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Inserts one triple as a one-record commit.
    pub fn insert(&mut self, triple: &Triple, graph: GraphId) -> Result<bool, DurabilityError> {
        Ok(self.insert_all([triple], graph)? == 1)
    }

    /// Inserts many triples into one graph as a one-record commit;
    /// returns how many were new.
    pub fn insert_all<'a>(
        &mut self,
        triples: impl IntoIterator<Item = &'a Triple>,
        graph: GraphId,
    ) -> Result<usize, DurabilityError> {
        let inserts = triples.into_iter().map(|t| (t.clone(), graph)).collect();
        let mut delta = Delta {
            inserts,
            removes: Vec::new(),
        };
        self.commit(&mut delta, &[])?;
        Ok(delta.inserts.len())
    }

    /// Removes one triple as a one-record commit.
    pub fn remove(&mut self, triple: &Triple) -> Result<bool, DurabilityError> {
        Ok(self.remove_all(vec![triple.clone()])? == 1)
    }

    /// Removes every `(subject, predicate, *)` statement as a one-record
    /// commit; returns how many were removed.
    pub fn remove_pattern_sp(
        &mut self,
        subject: &Term,
        predicate: &Iri,
    ) -> Result<usize, DurabilityError> {
        self.remove_all(self.store.match_terms(Some(subject), Some(predicate), None))
    }

    fn remove_all(&mut self, removes: Vec<Triple>) -> Result<usize, DurabilityError> {
        let mut delta = Delta {
            inserts: Vec::new(),
            removes,
        };
        self.commit(&mut delta, &[])?;
        Ok(delta.removes.len())
    }

    /// Forces the durability barrier — every commit so far is
    /// acknowledged once this returns `Ok` — then compacts if the WAL
    /// has reached the snapshot threshold.
    pub fn flush(&mut self) -> Result<(), DurabilityError> {
        match self.journal.as_mut() {
            Some(journal) => journal.flush_and_compact(&self.store),
            None => Ok(()),
        }
    }

    /// Forces log compaction: writes a fresh snapshot generation and
    /// truncates the WAL. A no-op while compaction is held.
    pub fn snapshot(&mut self) -> Result<(), DurabilityError> {
        match self.journal.as_mut() {
            Some(journal) => journal.snapshot(&self.store),
            None => Ok(()),
        }
    }

    /// Holds (or releases) compaction for a consumer that must re-read
    /// the WAL tail after a crash: commits appended while held come
    /// back with their deltas in [`RecoveryReport::commits`].
    pub fn hold_compaction(&mut self, hold: bool) {
        if let Some(journal) = self.journal.as_mut() {
            journal.hold = hold;
        }
    }

    /// Durability counters (`None` in ephemeral mode).
    pub fn stats(&self) -> Option<DurabilityStats> {
        self.journal.as_ref().map(Journal::stats)
    }

    /// Replaces the group-commit policy.
    pub fn set_group_commit(&mut self, policy: GroupCommitPolicy) {
        if let Some(journal) = self.journal.as_mut() {
            journal.wal.set_policy(policy);
        }
    }

    /// The current group-commit policy (`None` in ephemeral mode).
    pub fn group_commit(&self) -> Option<GroupCommitPolicy> {
        self.journal.as_ref().map(|journal| journal.wal.policy())
    }

    /// Attaches a metrics registry: successful durability barriers are
    /// timed into `wal.flush` / `wal.snapshot` histograms, failed ones
    /// counted under `<name>.errors`, and the `wal.pending` gauge
    /// tracks unacknowledged records. A no-op in ephemeral mode.
    pub fn set_observability(&mut self, metrics: Metrics) {
        if let Some(journal) = self.journal.as_mut() {
            journal.observability = Some(metrics);
        }
    }

    /// Attaches a fault plan; `wal.flush` and `snapshot.write` checks
    /// run against it.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if let Some(journal) = self.journal.as_mut() {
            journal.fault_plan = Some(plan);
        }
    }

    /// Detaches the fault plan.
    pub fn clear_fault_plan(&mut self) {
        if let Some(journal) = self.journal.as_mut() {
            journal.fault_plan = None;
        }
    }
}

/// The highest valid generation — its number, the invalid generations
/// skipped above it, its snapshot image, its WAL records and the tail
/// diagnosis — or `None` when the storage holds no usable snapshot
/// (fresh / failed first adoption).
type Loaded = (u64, u64, SnapshotImage, Vec<(u64, Record)>, TailReport);

fn try_load(storage: &dyn Storage) -> Result<Option<Loaded>, DurabilityError> {
    let mut generations: Vec<u64> = storage
        .list()
        .iter()
        .filter_map(|n| parse_generation(n, "snap-"))
        .collect();
    generations.sort_unstable();
    generations.reverse();
    for (skipped, generation) in generations.into_iter().enumerate() {
        // A torn snapshot (crash mid-compaction) falls back to the
        // previous generation, which compaction ordering guarantees is
        // still intact.
        let Ok(image) = decode_snapshot(&storage.read(&snap_name(generation))?) else {
            continue;
        };
        // A read error means the crash hit after the snapshot flush
        // but before the WAL file creation was durable: an empty WAL
        // is the correct view.
        let wal_bytes = storage.read(&wal_name(generation)).unwrap_or_default();
        let (wal_records, tail) = scan_log(&wal_bytes);
        return Ok(Some((generation, skipped as u64, image, wal_records, tail)));
    }
    Ok(None)
}

/// Rebuilds the store from a loaded snapshot + WAL tail and assembles
/// the running engine.
fn finish_open(
    mut storage: Box<dyn Storage>,
    options: DurabilityOptions,
    (generation, generations_skipped, image, wal_records, tail): Loaded,
) -> Result<(DurableStore, RecoveryReport), DurabilityError> {
    let corrupt = |what: String| DurabilityError::Unrecoverable(what);

    // 1. Snapshot image → store. Graph ids are re-registered in
    //    declaration order; a map guards against any drift between
    //    wire gids and store gids.
    let mut store = Store::new();
    let mut gid_map: HashMap<u16, GraphId> = HashMap::new();
    for (wire_gid, name) in image.graphs.iter().enumerate() {
        gid_map.insert(wire_gid as u16, store.graph(name));
    }
    let mut wire = WireDict::from_terms(image.terms);
    let snapshot_triples = image.triples.len() as u64;
    for &(s, p, o, gid) in &image.triples {
        let triple = resolve_triple(&wire, s, p, o)?;
        let graph = *gid_map
            .get(&gid)
            .ok_or_else(|| corrupt(format!("snapshot references unknown graph {gid}")))?;
        store.insert(&triple, graph);
    }

    // 2. Replay the WAL tail. Commits at or below the snapshot's
    //    last_seq are already folded in (compaction flushed them);
    //    only strictly newer sequences mutate the store.
    let folded = |meta| RecoveredCommit { meta, delta: None };
    let mut commits: Vec<RecoveredCommit> = image.metas.into_iter().map(folded).collect();
    let mut replayed = 0u64;
    let mut last_seq = image.last_seq;
    for (seq, record) in wal_records {
        if seq <= image.last_seq {
            continue;
        }
        let Record::Commit {
            graphs,
            terms,
            inserts,
            removes,
            meta,
            held,
        } = record
        else {
            return Err(corrupt(format!("wal record {seq} is not a commit")));
        };
        last_seq = last_seq.max(seq);
        replayed += 1;
        for (gid, name) in graphs {
            gid_map.insert(gid, store.graph(&name));
        }
        for (id, term) in terms {
            if id != wire.terms.len() as u64 {
                return Err(corrupt(format!(
                    "wal dictionary id {id} out of order (expected {})",
                    wire.terms.len()
                )));
            }
            wire.intern(&term);
        }
        let mut delta = Delta::default();
        for (s, p, o) in removes {
            let triple = resolve_triple(&wire, s, p, o)?;
            store.remove(&triple);
            delta.removes.push(triple);
        }
        for (s, p, o, gid) in inserts {
            let triple = resolve_triple(&wire, s, p, o)?;
            let graph = *gid_map
                .get(&gid)
                .ok_or_else(|| corrupt(format!("wal references unknown graph {gid}")))?;
            store.insert(&triple, graph);
            delta.inserts.push((triple, graph));
        }
        if !meta.is_empty() {
            commits.push(RecoveredCommit {
                meta,
                delta: held.then_some(delta),
            });
        }
    }

    // 3. Chop any torn tail so subsequent appends land on a valid
    //    frame boundary.
    if !tail.clean() {
        storage.truncate(&wal_name(generation), tail.valid_bytes)?;
    }

    // 4. Sweep stray files from other generations (unfinished
    //    compactions either way).
    for name in storage.list() {
        let gen_of = parse_generation(&name, "snap-").or_else(|| parse_generation(&name, "wal-"));
        if gen_of != Some(generation) {
            storage.delete(&name).ok();
        }
    }

    let mut journal = Journal::new(storage, options);
    journal.wal = WalWriter::new(wal_name(generation), last_seq + 1, options.group_commit);
    journal.wal.records = replayed; // the threshold counts the whole tail
    journal.wire = wire;
    journal.declared_graphs = store.graph_count();
    journal.stats.generation = generation;
    journal.stats.records_replayed = replayed;
    journal.stats.tail_dropped_bytes = tail.dropped_bytes;
    let report = RecoveryReport {
        recovered: true,
        generation,
        snapshot_triples,
        wal_records_replayed: replayed,
        tail,
        generations_skipped,
        commits,
    };
    Ok((
        DurableStore {
            store,
            journal: Some(journal),
        },
        report,
    ))
}

/// The non-empty metas generation `g` keeps — its snapshot's meta
/// section, then its WAL's commits (none before adoption) — read back
/// at compaction, so the engine holds none in memory.
fn stored_metas(storage: &dyn Storage, generation: u64) -> Result<Vec<Vec<u8>>, DurabilityError> {
    let mut metas = Vec::new();
    let files = (generation > 0).then(|| [snap_name(generation), wal_name(generation)]);
    for name in files.iter().flatten() {
        let bytes = storage.read(name)?;
        let mut offset = 0;
        while let FrameOutcome::Frame { record, next, .. } = read_frame(&bytes, offset) {
            if let Record::Commit { meta, .. } = record {
                metas.extend((!meta.is_empty()).then_some(meta));
            }
            offset = next;
        }
    }
    Ok(metas)
}

fn resolve_triple(wire: &WireDict, s: u64, p: u64, o: u64) -> Result<Triple, DurabilityError> {
    let lookup = |id: u64| -> Result<&Term, DurabilityError> {
        wire.terms
            .get(id as usize)
            .ok_or_else(|| DurabilityError::Unrecoverable(format!("unknown wire term id {id}")))
    };
    let subject = lookup(s)?.clone();
    let Term::Iri(predicate) = lookup(p)?.clone() else {
        return Err(DurabilityError::Unrecoverable(format!(
            "wire id {p} used as predicate but is not an IRI"
        )));
    };
    let object = lookup(o)?.clone();
    Ok(Triple::new_unchecked(subject, predicate, object))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use lodify_rdf::{Literal, Point};
    use lodify_resilience::VirtualClock;

    fn pic(n: usize) -> String {
        format!("http://lodify.test/picture/{n}")
    }

    fn label(n: usize) -> Triple {
        Triple::spo(
            &pic(n),
            "http://www.w3.org/2000/01/rdf-schema#label",
            Term::Literal(Literal::simple(format!("picture number {n}"))),
        )
    }

    fn geo(n: usize) -> Triple {
        let lon = 7.0 + (n as f64) * 0.01;
        Triple::spo(
            &pic(n),
            "http://www.opengis.net/ont/geosparql#geometry",
            Term::Literal(Point::new(lon, 45.0).unwrap().to_literal()),
        )
    }

    fn open_mem(mem: &MemStorage) -> (DurableStore, RecoveryReport) {
        DurableStore::open(Box::new(mem.clone()), DurabilityOptions::default()).unwrap()
    }

    #[test]
    fn fresh_open_starts_empty_and_unrecovered() {
        let mem = MemStorage::new();
        let (engine, report) = open_mem(&mem);
        assert!(!report.recovered);
        assert!(engine.stats().is_some(), "durable");
        assert_eq!(engine.store().len(), 0);
    }

    #[test]
    fn flushed_mutations_survive_a_crash() {
        let mem = MemStorage::new();
        let (mut engine, _) = open_mem(&mem);
        let g = engine.graph("urn:g:ugc");
        for n in 0..20 {
            engine.insert(&label(n), g).unwrap();
            engine.insert(&geo(n), g).unwrap();
        }
        engine.flush().unwrap();
        mem.crash();
        let (recovered, report) = open_mem(&mem);
        assert!(report.recovered);
        assert_eq!(recovered.store().len(), 40);
        assert_eq!(
            recovered.store().graph_of_term(&Term::iri(pic(3)).unwrap()),
            Some("urn:g:ugc")
        );
        // Side indexes are rebuilt by replaying through Store::insert.
        assert!(!recovered
            .store()
            .fulltext()
            .search_word("picture")
            .is_empty());
        assert_eq!(recovered.store().stats().total(), 40);
    }

    #[test]
    fn recovered_label_index_answers_like_the_uncrashed_store() {
        // The label index is derived state: nothing of it is journaled,
        // and replaying the log through `Store::insert` / `remove`
        // rebuilds it, removals included.
        let mem = MemStorage::new();
        let (mut engine, _) = open_mem(&mem);
        let g = engine.graph("urn:g:ugc");
        for n in 0..12 {
            engine.insert(&label(n), g).unwrap();
            engine.insert(&geo(n), g).unwrap();
        }
        engine.remove(&label(3)).unwrap();
        engine.remove(&label(8)).unwrap();
        engine.flush().unwrap();
        mem.crash();
        let (recovered, report) = open_mem(&mem);
        assert!(report.recovered);
        let (live, revived) = (engine.store().labels(), recovered.store().labels());
        for token in ["picture", "number", "3", "7", "11"] {
            assert_eq!(revived.token(token), live.token(token), "{token}");
        }
        for n in 0..12 {
            let text = format!("picture number {n}");
            assert_eq!(revived.exact(&text), live.exact(&text), "{text}");
        }
        assert_eq!(revived.token("picture").len(), 10);
        assert!(revived.exact("picture number 8").is_empty());
    }

    #[test]
    fn recovery_repopulates_store_mutation_epochs() {
        // Recovery replays the WAL through `Store::insert` /
        // `Store::remove`, so a revived store's epoch has advanced past
        // zero: an epoch-keyed cache cannot read a pre-crash entry as
        // fresh after reboot.
        let mem = MemStorage::new();
        let (mut engine, _) = open_mem(&mem);
        let g = engine.graph("urn:g:ugc");
        for n in 0..4 {
            engine.insert(&label(n), g).unwrap();
            engine.insert(&geo(n), g).unwrap();
        }
        engine.remove(&label(1)).unwrap();
        engine.flush().unwrap();
        mem.crash();
        let (recovered, report) = open_mem(&mem);
        assert!(report.recovered);
        assert!(
            recovered.store().epoch() > 0,
            "global epoch advances during replay"
        );
    }

    #[test]
    fn unflushed_mutations_do_not_survive() {
        let mem = MemStorage::new();
        let (mut engine, _) = open_mem(&mem);
        engine.set_group_commit(GroupCommitPolicy::batched(1000));
        let g = engine.graph("urn:g:ugc");
        engine.insert(&label(0), g).unwrap();
        engine.flush().unwrap();
        engine.insert(&label(1), g).unwrap(); // buffered, never flushed
        mem.crash();
        let (recovered, _) = open_mem(&mem);
        assert_eq!(recovered.store().len(), 1, "only the acknowledged insert");
    }

    #[test]
    fn removes_are_journaled() {
        let mem = MemStorage::new();
        let (mut engine, _) = open_mem(&mem);
        let g = engine.graph("urn:g:ugc");
        for n in 0..5 {
            engine.insert(&label(n), g).unwrap();
        }
        engine.remove(&label(2)).unwrap();
        engine.flush().unwrap();
        mem.crash();
        let (recovered, _) = open_mem(&mem);
        assert_eq!(recovered.store().len(), 4);
        assert!(!recovered.store().contains(&label(2)));
    }

    #[test]
    fn snapshot_compacts_and_recovery_prefers_it() {
        let mem = MemStorage::new();
        let (mut engine, _) = open_mem(&mem);
        let g = engine.graph("urn:g:ugc");
        for n in 0..30 {
            engine.insert(&label(n), g).unwrap();
        }
        engine.snapshot().unwrap();
        // Generation advanced; the old files are gone.
        assert_eq!(engine.stats().unwrap().generation, 2);
        assert_eq!(
            mem.list(),
            vec!["snap-0000000002".to_string(), "wal-0000000002".to_string()]
        );
        // Compaction left nothing to replay: a crash right after it
        // recovers from the snapshot alone.
        mem.crash();
        let (recovered, report) = open_mem(&mem);
        assert_eq!(report.snapshot_triples, 30);
        assert_eq!(report.wal_records_replayed, 0);
        assert_eq!(recovered.store().len(), 30);
        // Tail on top of the snapshot.
        engine.insert(&label(99), g).unwrap();
        engine.flush().unwrap();
        mem.crash();
        let (recovered, report) = open_mem(&mem);
        assert_eq!(report.generation, 2);
        assert_eq!(report.snapshot_triples, 30);
        assert!(report.wal_records_replayed >= 1);
        assert_eq!(recovered.store().len(), 31);
    }

    #[test]
    fn crash_during_compaction_falls_back_to_previous_generation() {
        let mem = MemStorage::new();
        let (mut engine, _) = open_mem(&mem);
        let g = engine.graph("urn:g:ugc");
        for n in 0..10 {
            engine.insert(&label(n), g).unwrap();
        }
        engine.flush().unwrap();
        // Hand-craft the mid-compaction state: a torn snap-2 exists,
        // generation 1 is still intact.
        let (full_snap, _) = encode_snapshot(engine.store(), 99, &[]);
        mem.plant("snap-0000000002", full_snap[..full_snap.len() / 2].to_vec());
        drop(engine);
        let (recovered, report) = open_mem(&mem);
        assert_eq!(report.generation, 1, "torn snapshot must be skipped");
        assert_eq!(report.generations_skipped, 1);
        assert_eq!(recovered.store().len(), 10);
        // The torn file was swept.
        assert!(!mem.list().contains(&"snap-0000000002".to_string()));
    }

    #[test]
    fn auto_snapshot_triggers_on_wal_depth() {
        let mem = MemStorage::new();
        let options = DurabilityOptions {
            group_commit: GroupCommitPolicy::per_record(),
            snapshot_every_records: Some(8),
        };
        let (mut engine, _) = DurableStore::open(Box::new(mem.clone()), options).unwrap();
        let g = engine.graph("urn:g:ugc");
        for n in 0..40 {
            engine.insert(&label(n), g).unwrap();
        }
        let stats = engine.stats().unwrap();
        assert!(stats.snapshots_written >= 3, "40 inserts at depth 8");
        assert!(stats.wal_records < 40);
        mem.crash();
        let (recovered, _) = open_mem(&mem);
        assert_eq!(recovered.store().len(), 40);
    }

    /// A commit is one record whatever its size, its meta comes back
    /// from recovery — with its delta while it is in the WAL tail and
    /// was appended under a hold — and a crash inside the record loses
    /// the whole commit.
    #[test]
    fn a_commit_is_one_record_and_its_meta_survives_compaction() {
        let mem = MemStorage::new();
        let options = DurabilityOptions {
            group_commit: GroupCommitPolicy::per_record(),
            snapshot_every_records: None,
        };
        let (mut engine, _) = DurableStore::open(Box::new(mem.clone()), options).unwrap();
        let g = engine.graph("urn:g:ugc");
        let mut first = Delta {
            inserts: (0..5).map(|n| (label(n), g)).collect(),
            removes: Vec::new(),
        };
        engine.commit(&mut first, b"one").unwrap();
        engine.snapshot().unwrap();
        engine.hold_compaction(true);
        let mut second = Delta {
            inserts: vec![(label(0), g), (geo(0), g)],
            removes: vec![label(1)],
        };
        engine.commit(&mut second, b"two").unwrap();
        // Narrowed to what changed: label(0) was already there.
        assert_eq!(second.inserts, vec![(geo(0), g)]);
        assert_eq!(engine.stats().unwrap().records_journaled, 2);

        let (recovered, report) = DurableStore::open(Box::new(mem.clone()), options).unwrap();
        assert_eq!(recovered.store().len(), 5);
        assert_eq!(report.wal_records_replayed, 1);
        let folded = RecoveredCommit {
            meta: b"one".to_vec(),
            delta: None,
        };
        let tail = RecoveredCommit {
            meta: b"two".to_vec(),
            delta: Some(second),
        };
        assert_eq!(report.commits, vec![folded.clone(), tail]);

        // Cut the WAL inside its only record: the commit is gone whole.
        let wal = mem.read("wal-0000000002").unwrap();
        mem.plant("wal-0000000002", wal[..wal.len() - 1].to_vec());
        let (torn, report) = DurableStore::open(Box::new(mem.clone()), options).unwrap();
        assert_eq!(torn.store().len(), 5);
        assert!(torn.store().contains(&label(1)));
        assert_eq!(report.commits, vec![folded]);
    }

    /// The threshold is checked at every flush, not only when a batch
    /// fills, and a hold defers compaction until released.
    #[test]
    fn flush_compacts_at_the_threshold_unless_held() {
        let mem = MemStorage::new();
        let options = DurabilityOptions {
            group_commit: GroupCommitPolicy::batched(64),
            snapshot_every_records: Some(3),
        };
        let (mut engine, _) = DurableStore::open(Box::new(mem.clone()), options).unwrap();
        let g = engine.graph("urn:g:ugc");
        for n in 0..7 {
            engine.insert(&label(n), g).unwrap();
            engine.flush().unwrap();
        }
        let stats = engine.stats().unwrap();
        assert_eq!((stats.generation, stats.wal_records), (3, 1));
        mem.crash();
        let (_, report) = DurableStore::open(Box::new(mem.clone()), options).unwrap();
        assert!(report.wal_records_replayed <= 3);

        engine.hold_compaction(true);
        for n in 7..12 {
            engine.insert(&label(n), g).unwrap();
            engine.flush().unwrap();
        }
        engine.snapshot().unwrap();
        assert_eq!(engine.stats().unwrap().generation, 3, "held");
        engine.hold_compaction(false);
        engine.flush().unwrap();
        assert_eq!(engine.stats().unwrap().generation, 4);
    }

    #[test]
    fn fault_plan_blocks_flush_and_keeps_records_pending() {
        let mem = MemStorage::new();
        let (mut engine, _) = open_mem(&mem);
        engine.set_group_commit(GroupCommitPolicy::per_record());
        let clock = VirtualClock::new();
        engine.set_fault_plan(
            FaultPlan::builder()
                .outage(TARGET_WAL_FLUSH, 0, 1_000)
                .build(clock.clone()),
        );
        let g = engine.graph("urn:g:ugc");
        let err = engine.insert(&label(0), g).unwrap_err();
        assert!(matches!(err, DurabilityError::Unavailable(_)));
        // In-memory applied, durability pending.
        assert!(engine.store().contains(&label(0)));
        // One commit record (graph, terms and insert), buffered
        // awaiting retry.
        assert_eq!(engine.stats().unwrap().wal_pending, 1);
        // After the outage window the retry acknowledges everything.
        clock.set(2_000);
        engine.flush().unwrap();
        assert_eq!(engine.stats().unwrap().wal_pending, 0);
        mem.crash();
        let (recovered, _) = open_mem(&mem);
        assert!(recovered.store().contains(&label(0)));
    }

    #[test]
    fn adoption_preserves_a_bootstrap_store() {
        let mem = MemStorage::new();
        let (engine, report) = DurableStore::open_or_adopt(
            Box::new(mem.clone()),
            DurabilityOptions::default(),
            || {
                let mut store = Store::new();
                let g = store.graph("urn:g:seed");
                store.insert(&label(0), g);
                store.insert(&geo(0), g);
                store
            },
        )
        .unwrap();
        assert!(!report.recovered);
        assert_eq!(engine.store().len(), 2);
        drop(engine);
        // Reopen must NOT rerun bootstrap (it would panic here).
        let (reopened, report) = DurableStore::open_or_adopt(
            Box::new(mem.clone()),
            DurabilityOptions::default(),
            || unreachable!("bootstrap must not run on recovery"),
        )
        .unwrap();
        assert!(report.recovered);
        assert_eq!(reopened.store().len(), 2);
    }

    #[test]
    fn ephemeral_mode_is_a_passthrough() {
        let mut engine = DurableStore::ephemeral(Store::new());
        let g = engine.graph("urn:g:ugc");
        assert!(engine.insert(&label(0), g).unwrap());
        assert!(engine.stats().is_none());
        engine.flush().unwrap();
        engine.snapshot().unwrap();
        assert_eq!(engine.store().len(), 1);
    }
}
