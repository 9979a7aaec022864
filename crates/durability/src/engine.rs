//! The persistence engine: a [`Store`] paired with a journal.
//!
//! [`DurableStore`] is the one mutation entry point. In *ephemeral*
//! mode it is a zero-cost passthrough to the in-memory store; in
//! *durable* mode every structural mutation is journaled to a WAL
//! before being acknowledged, snapshots periodically compact the log,
//! and [`DurableStore::open`] / [`DurableStore::open_or_adopt`]
//! rebuild the store — triple indexes, fulltext, geo, stats — to
//! exactly the last acknowledged state after a crash.
//!
//! ## On-disk layout
//!
//! A *generation* `g` is a pair of files: `snap-<g>` (a validated
//! [`crate::snapshot`] segment) and `wal-<g>` (the tail of mutations
//! since that snapshot). Compaction writes generation `g+1` fully —
//! snapshot flushed, fresh WAL created — before deleting generation
//! `g`, so a crash at any point leaves at least one recoverable
//! generation on disk.
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

use crate::codec::Record;
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
    /// records; `None` disables automatic snapshots (explicit
    /// [`DurableStore::snapshot`] still works).
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
}

/// Point-in-time durability counters for operational dashboards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Current generation number.
    pub generation: u64,
    /// Records in the live WAL (journal depth since last snapshot).
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

    fn term(&self, id: u64) -> Option<&Term> {
        self.terms.get(id as usize)
    }

    fn len(&self) -> usize {
        self.terms.len()
    }
}

struct Journal {
    storage: Box<dyn Storage>,
    wire: WireDict,
    wal: WalWriter,
    generation: u64,
    /// Graphs already journaled; store graph ids below this are
    /// declared in the log.
    declared_graphs: usize,
    options: DurabilityOptions,
    fault_plan: Option<FaultPlan>,
    observability: Option<Metrics>,
    snapshots_written: u64,
    last_snapshot_ms: Option<u64>,
    records_replayed: u64,
    tail_dropped_bytes: u64,
    flushes_total: u64,
    records_total: u64,
}

impl Journal {
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

    fn append(&mut self, record: &Record) -> bool {
        self.records_total += 1;
        let (_, due) = self.wal.append(record);
        due
    }

    /// Declares store graphs the log has not seen yet. Ids are Vec
    /// indexes, so declaring in order keeps wire gid == store gid.
    fn declare_graphs(&mut self, store: &Store) {
        while self.declared_graphs < store.graph_count() {
            let gid = self.declared_graphs as u16;
            let name = store
                .graph_name(GraphId(gid))
                .expect("graph ids are dense")
                .to_string();
            self.append(&Record::GraphDecl { gid, name });
            self.declared_graphs += 1;
        }
    }

    fn wire_id(&mut self, term: &Term) -> u64 {
        let (id, new) = self.wire.intern(term);
        if new {
            self.append(&Record::DictAdd {
                id,
                term: term.clone(),
            });
        }
        id
    }

    /// Journals one acknowledged mutation (plus any graph/dictionary
    /// records it depends on), flushing when the group-commit policy
    /// says the batch is due.
    fn log(
        &mut self,
        store: &Store,
        triple: &Triple,
        graph: Option<GraphId>,
    ) -> Result<(), DurabilityError> {
        self.declare_graphs(store);
        let s = self.wire_id(&triple.subject);
        let p = self.wire_id(&Term::Iri(triple.predicate.clone()));
        let o = self.wire_id(&triple.object);
        let record = match graph {
            Some(gid) => Record::Insert {
                s,
                p,
                o,
                gid: gid.0,
            },
            None => Record::Remove { s, p, o },
        };
        let due = self.append(&record);
        if due {
            self.flush()?;
            self.maybe_auto_snapshot(store)?;
        }
        Ok(())
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
            journal.flushes_total += 1;
            Ok(())
        })
    }

    fn maybe_auto_snapshot(&mut self, store: &Store) -> Result<(), DurabilityError> {
        if let Some(every) = self.options.snapshot_every_records {
            if self.wal.records >= every {
                self.snapshot(store)?;
            }
        }
        Ok(())
    }

    /// Log compaction: writes generation `g+1` (snapshot + empty WAL)
    /// and only then deletes generation `g`. Every intermediate crash
    /// point recovers — either to the old generation (new snapshot not
    /// yet durable) or to the new one.
    fn snapshot(&mut self, store: &Store) -> Result<(), DurabilityError> {
        self.timed("wal.snapshot", |journal| journal.snapshot_inner(store))
    }

    fn snapshot_inner(&mut self, store: &Store) -> Result<(), DurabilityError> {
        self.flush()?;
        self.check_fault(TARGET_SNAPSHOT_WRITE)?;
        let next = self.generation + 1;
        let (bytes, wire_terms) = encode_snapshot(store, self.wal.last_seq());
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
        self.storage.delete(&snap_name(self.generation)).ok();
        self.storage.delete(&wal_name(self.generation)).ok();
        let next_seq = self.wal.next_seq();
        let policy = self.wal.policy();
        self.wal = WalWriter::new(wal, next_seq, policy);
        self.wire = WireDict::from_terms(wire_terms);
        self.declared_graphs = store.graph_count();
        self.generation = next;
        self.snapshots_written += 1;
        self.last_snapshot_ms = self.now_ms();
        Ok(())
    }

    fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            generation: self.generation,
            wal_records: self.wal.records,
            wal_bytes: self.wal.bytes,
            wal_pending: self.wal.pending(),
            flushes: self.flushes_total,
            records_journaled: self.records_total,
            snapshots_written: self.snapshots_written,
            last_snapshot_ms: self.last_snapshot_ms,
            records_replayed: self.records_replayed,
            tail_dropped_bytes: self.tail_dropped_bytes,
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
        let store = bootstrap();
        let generation = 1u64;
        let (bytes, wire_terms) = encode_snapshot(&store, 0);
        let snap = snap_name(generation);
        storage.create(&snap)?;
        storage.append(&snap, &bytes)?;
        storage.flush(&snap)?;
        let wal = wal_name(generation);
        storage.create(&wal)?;
        storage.flush(&wal)?;
        let journal = Journal {
            storage,
            wire: WireDict::from_terms(wire_terms),
            wal: WalWriter::new(wal, 1, options.group_commit),
            generation,
            declared_graphs: store.graph_count(),
            options,
            fault_plan: None,
            observability: None,
            snapshots_written: 1,
            last_snapshot_ms: None,
            records_replayed: 0,
            tail_dropped_bytes: 0,
            flushes_total: 0,
            records_total: 0,
        };
        let report = RecoveryReport {
            recovered: false,
            generation,
            snapshot_triples: store.len() as u64,
            ..RecoveryReport::default()
        };
        Ok((
            DurableStore {
                store,
                journal: Some(journal),
            },
            report,
        ))
    }

    /// Read access to the underlying store (query engines, exports).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Consumes the wrapper, returning the in-memory store.
    pub fn into_store(self) -> Store {
        self.store
    }

    /// Whether mutations are journaled.
    pub fn is_durable(&self) -> bool {
        self.journal.is_some()
    }

    /// Registers (or retrieves) a named graph; journaled lazily with
    /// the next mutation that needs it.
    pub fn graph(&mut self, name: &str) -> GraphId {
        self.store.graph(name)
    }

    /// Inserts one triple. In durable mode the mutation is journaled;
    /// an `Err` means the record is appended but **not acknowledged**
    /// (the in-memory store already holds it, and a later successful
    /// [`DurableStore::flush`] will acknowledge it).
    pub fn insert(&mut self, triple: &Triple, graph: GraphId) -> Result<bool, DurabilityError> {
        let new = self.store.insert(triple, graph);
        if new {
            if let Some(journal) = self.journal.as_mut() {
                journal.log(&self.store, triple, Some(graph))?;
            }
        }
        Ok(new)
    }

    /// Inserts many triples into one graph; returns how many were new.
    pub fn insert_all<'a>(
        &mut self,
        triples: impl IntoIterator<Item = &'a Triple>,
        graph: GraphId,
    ) -> Result<usize, DurabilityError> {
        let mut added = 0;
        for triple in triples {
            if self.insert(triple, graph)? {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Removes one triple (journaled like inserts).
    pub fn remove(&mut self, triple: &Triple) -> Result<bool, DurabilityError> {
        let removed = self.store.remove(triple);
        if removed {
            if let Some(journal) = self.journal.as_mut() {
                journal.log(&self.store, triple, None)?;
            }
        }
        Ok(removed)
    }

    /// Removes every `(subject, predicate, *)` statement; returns how
    /// many were removed.
    pub fn remove_pattern_sp(
        &mut self,
        subject: &Term,
        predicate: &Iri,
    ) -> Result<usize, DurabilityError> {
        let matches = self.store.match_terms(Some(subject), Some(predicate), None);
        let mut removed = 0;
        for triple in &matches {
            if self.remove(triple)? {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Forces the durability barrier: every journaled record is
    /// acknowledged once this returns `Ok`.
    pub fn flush(&mut self) -> Result<(), DurabilityError> {
        match self.journal.as_mut() {
            Some(journal) => journal.flush(),
            None => Ok(()),
        }
    }

    /// Forces log compaction: writes a fresh snapshot generation and
    /// truncates the WAL.
    pub fn snapshot(&mut self) -> Result<(), DurabilityError> {
        match self.journal.as_mut() {
            Some(journal) => journal.snapshot(&self.store),
            None => Ok(()),
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

    /// Runs `f` under a temporarily swapped group-commit policy and
    /// restores the previous one afterwards, ending with an explicit
    /// durability barrier. Batched ingest uses this to amortize WAL
    /// flushes across a whole batch of commits while leaving the
    /// caller's per-mutation policy untouched — and because the barrier
    /// runs before returning, a batch is exactly as durable at its end
    /// as the same mutations issued one by one. In ephemeral mode `f`
    /// simply runs.
    pub fn with_group_commit<T>(
        &mut self,
        policy: GroupCommitPolicy,
        f: impl FnOnce(&mut DurableStore) -> T,
    ) -> Result<T, DurabilityError> {
        let prior = self.group_commit();
        self.set_group_commit(policy);
        let out = f(self);
        if let Some(prior) = prior {
            self.set_group_commit(prior);
            self.flush()?;
        }
        Ok(out)
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

struct LoadedState {
    image: SnapshotImage,
    generation: u64,
    generations_skipped: u64,
    wal_records: Vec<(u64, Record)>,
    tail: TailReport,
}

/// Finds the highest valid generation, or `None` when the storage
/// holds no usable snapshot (fresh / failed first adoption).
fn try_load(storage: &dyn Storage) -> Result<Option<LoadedState>, DurabilityError> {
    let mut generations: Vec<u64> = storage
        .list()
        .iter()
        .filter_map(|n| parse_generation(n, "snap-"))
        .collect();
    generations.sort_unstable();
    generations.reverse();
    let mut skipped = 0u64;
    for generation in generations {
        let bytes = storage.read(&snap_name(generation))?;
        let image = match decode_snapshot(&bytes) {
            Ok(image) => image,
            Err(_) => {
                // Torn snapshot (crash mid-compaction): fall back to
                // the previous generation, which compaction ordering
                // guarantees is still intact.
                skipped += 1;
                continue;
            }
        };
        // A read error means the crash hit after the snapshot flush
        // but before the WAL file creation was durable: an empty WAL
        // is the correct view.
        let wal_bytes = storage.read(&wal_name(generation)).unwrap_or_default();
        let (wal_records, tail) = scan_log(&wal_bytes);
        return Ok(Some(LoadedState {
            image,
            generation,
            generations_skipped: skipped,
            wal_records,
            tail,
        }));
    }
    Ok(None)
}

/// Rebuilds the store from a loaded snapshot + WAL tail and assembles
/// the running engine.
fn finish_open(
    mut storage: Box<dyn Storage>,
    options: DurabilityOptions,
    loaded: LoadedState,
) -> Result<(DurableStore, RecoveryReport), DurabilityError> {
    let LoadedState {
        image,
        generation,
        generations_skipped,
        wal_records,
        tail,
    } = loaded;

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

    // 2. Replay the WAL tail. Records at or below the snapshot's
    //    last_seq are already folded in (compaction flushed them);
    //    only strictly newer sequences mutate the store.
    let mut replayed = 0u64;
    let mut last_seq = image.last_seq;
    for (seq, record) in wal_records {
        if seq <= image.last_seq {
            continue;
        }
        last_seq = last_seq.max(seq);
        replayed += 1;
        match record {
            Record::GraphDecl { gid, name } => {
                gid_map.insert(gid, store.graph(&name));
            }
            Record::DictAdd { id, term } => {
                if id != wire.len() as u64 {
                    return Err(corrupt(format!(
                        "wal dictionary id {id} out of order (expected {})",
                        wire.len()
                    )));
                }
                wire.intern(&term);
            }
            Record::Insert { s, p, o, gid } => {
                let triple = resolve_triple(&wire, s, p, o)?;
                let graph = *gid_map
                    .get(&gid)
                    .ok_or_else(|| corrupt(format!("wal references unknown graph {gid}")))?;
                store.insert(&triple, graph);
            }
            Record::Remove { s, p, o } => {
                let triple = resolve_triple(&wire, s, p, o)?;
                store.remove(&triple);
            }
            Record::SnapshotHeader { .. } | Record::SnapshotFooter { .. } => {
                return Err(corrupt("snapshot frame inside a WAL".into()));
            }
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

    let declared_graphs = store.graph_count();
    let journal = Journal {
        storage,
        wire,
        wal: WalWriter::new(wal_name(generation), last_seq + 1, options.group_commit),
        generation,
        declared_graphs,
        options,
        fault_plan: None,
        observability: None,
        snapshots_written: 0,
        last_snapshot_ms: None,
        records_replayed: replayed,
        tail_dropped_bytes: tail.dropped_bytes,
        flushes_total: 0,
        records_total: 0,
    };
    let report = RecoveryReport {
        recovered: true,
        generation,
        snapshot_triples,
        wal_records_replayed: replayed,
        tail,
        generations_skipped,
    };
    Ok((
        DurableStore {
            store,
            journal: Some(journal),
        },
        report,
    ))
}

fn resolve_triple(wire: &WireDict, s: u64, p: u64, o: u64) -> Result<Triple, DurabilityError> {
    let lookup = |id: u64| -> Result<&Term, DurabilityError> {
        wire.term(id)
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
    fn with_group_commit_swaps_policy_and_flushes_on_exit() {
        let mem = MemStorage::new();
        let (mut engine, _) = open_mem(&mem);
        engine.set_group_commit(GroupCommitPolicy::per_record());
        let prior = engine.group_commit().unwrap();

        let graph = engine.graph("ugc");
        engine
            .with_group_commit(GroupCommitPolicy::batched(1024), |engine| {
                for n in 0..8 {
                    engine.insert(&label(n), graph).unwrap();
                }
                // A large batch: nothing forced a flush mid-closure.
                assert!(engine.stats().unwrap().wal_pending > 0);
            })
            .unwrap();

        // The prior policy is back and the barrier ran.
        assert_eq!(engine.group_commit(), Some(prior));
        assert_eq!(engine.stats().unwrap().wal_pending, 0);

        // Everything the closure wrote survives a crash.
        mem.crash();
        let (recovered, report) = open_mem(&mem);
        assert!(report.recovered);
        assert_eq!(recovered.store().len(), 8);
    }

    #[test]
    fn with_group_commit_is_a_plain_call_in_ephemeral_mode() {
        let mut engine = DurableStore::ephemeral(Store::new());
        assert_eq!(engine.group_commit(), None);
        let graph = engine.graph("ugc");
        let n = engine
            .with_group_commit(GroupCommitPolicy::batched(64), |engine| {
                engine.insert(&label(1), graph).unwrap()
            })
            .unwrap();
        assert!(n, "the insert is new");
        assert_eq!(engine.store().len(), 1);
    }

    #[test]
    fn fresh_open_starts_empty_and_unrecovered() {
        let mem = MemStorage::new();
        let (engine, report) = open_mem(&mem);
        assert!(!report.recovered);
        assert!(engine.is_durable());
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
        let (full_snap, _) = encode_snapshot(engine.store(), 99);
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
        // GraphDecl + 3 DictAdds + Insert, all buffered awaiting retry.
        assert_eq!(engine.stats().unwrap().wal_pending, 5);
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
        assert!(!engine.is_durable());
        assert!(engine.stats().is_none());
        engine.flush().unwrap();
        engine.snapshot().unwrap();
        assert_eq!(engine.store().len(), 1);
    }
}
