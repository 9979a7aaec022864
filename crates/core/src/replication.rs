//! Emission-level replication across home nodes — ROADMAP item 3.
//!
//! `core::federation` fans out *notifications*; nothing replicates, so
//! a peer that misses a push has diverged forever. This module ships
//! the state itself: every federation commit produces a self-contained
//! [`Emission`] — the content quads added and removed, plus provenance
//! (origin account, store epoch, per-node monotonic sequence number) —
//! encoded with the durability crate's CRC-framed codec and persisted
//! in a per-node **emission journal** beside the node's WAL.
//!
//! A [`Replicator`] drives the mesh:
//!
//! * each directed link filters emissions through a per-peer
//!   [`SharePolicy`] (by user, album, or predicate namespace); a
//!   filtered-out emission still ships as an *empty* sequence marker,
//!   so policy never punches holes in the sequence space;
//! * transport is simulated: every directed link is a peer (target
//!   `repl:<from>-><to>`) of the one delivery [`Link`] — breaker,
//!   fault plan under retry, dead-letter queue replayed by
//!   [`Replicator::redeliver`];
//! * receivers apply idempotently under the link's
//!   [`arrival`] rule: a duplicate (`seq ≤ cursor`) or a stale epoch
//!   is a no-op; a sequence gap triggers a **catch-up pull** from the
//!   origin's emission journal; [`Replicator::pump`]
//!   finishes with an anti-entropy pass that repairs silently dropped
//!   deliveries — but only over links the fault plan currently allows;
//! * the journal is flushed on every append, so a crashed replica
//!   re-attached via [`Replicator::attach`] recovers its replication
//!   cursors exactly: nothing is re-applied (a retracted triple can
//!   never resurrect) and nothing is lost (gaps are pulled).
//!
//! Convergence argument: per origin node, emissions are applied in
//! strict sequence order at every replica (duplicates and stale epochs
//! rejected by the cursor, gaps filled from the origin journal), so
//! every replica applies the same ordered prefix of the same log; once
//! lag reaches zero all replicas have applied *exactly* the origin's
//! log, and identical ordered set operations on identical initial
//! (empty) shared subsets yield identical stores. The chaos suite
//! asserts this byte-for-byte against a single-node oracle.
//!
//! Only *content* (media, comments, retractions) is journaled and
//! replicated; FOAF profile documents travel via the dedicated
//! federation profile-sharing flow.

use std::collections::BTreeMap;

use lodify_durability::codec::{self, FrameOutcome};
use lodify_durability::Storage;
use lodify_obs::{Metrics, Obs, TraceContext, Tracer};
use lodify_rdf::{Iri, Triple};
use lodify_resilience::{
    arrival, Arrival, BreakerState, DetRng, FaultPlan, Frame, Link, PeerId, ReplayReport,
    RetryPolicy, Telemetry,
};

use crate::error::PlatformError;
use crate::federation::{Acct, Federation, NodeId, NodeOp};
use crate::metrics::ReplicationOps;

/// Journal file name inside a replica's storage (lives beside the
/// node's WAL files when they share a directory).
pub const EMISSIONS_FILE: &str = "emissions";

// ------------------------------------------------------------ emissions

/// One replicated statement: a triple plus the named graph it lands in
/// (`None` = the default graph).
#[derive(Debug, Clone, PartialEq)]
pub struct EmissionQuad {
    /// The statement.
    pub triple: Triple,
    /// Target graph name (`None` = default graph).
    pub graph: Option<String>,
}

/// A self-contained, serializable replication unit: one commit's
/// content delta plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Emission {
    /// The account whose commit produced this emission.
    pub origin: Acct,
    /// Per-origin-node monotonic sequence number, starting at 1.
    pub seq: u64,
    /// Origin store epoch at commit time (stale-epoch guard).
    pub epoch: u64,
    /// Topical album tag, if the commit was scoped to one (drives
    /// [`SharePolicy::Albums`]).
    pub album: Option<String>,
    /// Statements added by the commit.
    pub additions: Vec<EmissionQuad>,
    /// Statements removed by the commit.
    pub removals: Vec<Triple>,
    /// Causal trace context minted at the origin commit. It travels
    /// inside the emission (journal and wire), so `replication.apply`
    /// and downstream push spans on a *remote* node stitch under the
    /// origin's trace.
    pub trace: Option<TraceContext>,
}

impl Emission {
    /// Encodes the emission body (everything but `seq`, which travels
    /// in the frame header) with the durability codec primitives.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        codec::put_str(&mut out, &self.origin.user);
        codec::put_str(&mut out, &self.origin.host);
        codec::put_varint(&mut out, self.epoch);
        match &self.album {
            Some(album) => {
                out.push(1);
                codec::put_str(&mut out, album);
            }
            None => out.push(0),
        }
        codec::put_varint(&mut out, self.additions.len() as u64);
        for quad in &self.additions {
            match &quad.graph {
                Some(name) => {
                    out.push(1);
                    codec::put_str(&mut out, name);
                }
                None => out.push(0),
            }
            codec::put_term(&mut out, &quad.triple.subject);
            codec::put_str(&mut out, quad.triple.predicate.as_str());
            codec::put_term(&mut out, &quad.triple.object);
        }
        codec::put_varint(&mut out, self.removals.len() as u64);
        for triple in &self.removals {
            codec::put_term(&mut out, &triple.subject);
            codec::put_str(&mut out, triple.predicate.as_str());
            codec::put_term(&mut out, &triple.object);
        }
        match &self.trace {
            Some(ctx) => {
                out.push(1);
                codec::put_varint(&mut out, ctx.trace_id);
                codec::put_varint(&mut out, ctx.parent_span_id);
            }
            None => out.push(0),
        }
        out
    }

    /// Decodes an emission body; `seq` comes from the frame. Validates
    /// the origin account and every IRI, so a corrupted-but-CRC-passing
    /// journal can never smuggle malformed identity into a store.
    pub fn decode(seq: u64, bytes: &[u8]) -> Result<Emission, PlatformError> {
        let cursor = &mut 0usize;
        let user = codec::get_str(bytes, cursor)?;
        let host = codec::get_str(bytes, cursor)?;
        let origin = Acct::parse(&format!("acct:{user}@{host}"))
            .ok_or_else(|| PlatformError::Invalid(format!("bad emission origin {user}@{host}")))?;
        let epoch = codec::get_varint(bytes, cursor)?;
        let album = match next_byte(bytes, cursor)? {
            0 => None,
            _ => Some(codec::get_str(bytes, cursor)?),
        };
        let bad_iri =
            |e: lodify_rdf::RdfError| PlatformError::Invalid(format!("bad emission IRI: {e}"));
        let n_add = codec::get_varint(bytes, cursor)? as usize;
        let mut additions = Vec::with_capacity(n_add.min(1024));
        for _ in 0..n_add {
            let graph = match next_byte(bytes, cursor)? {
                0 => None,
                _ => Some(codec::get_str(bytes, cursor)?),
            };
            let subject = codec::get_term(bytes, cursor)?;
            let predicate = Iri::new(codec::get_str(bytes, cursor)?).map_err(bad_iri)?;
            let object = codec::get_term(bytes, cursor)?;
            additions.push(EmissionQuad {
                triple: Triple::new_unchecked(subject, predicate, object),
                graph,
            });
        }
        let n_rm = codec::get_varint(bytes, cursor)? as usize;
        let mut removals = Vec::with_capacity(n_rm.min(1024));
        for _ in 0..n_rm {
            let subject = codec::get_term(bytes, cursor)?;
            let predicate = Iri::new(codec::get_str(bytes, cursor)?).map_err(bad_iri)?;
            let object = codec::get_term(bytes, cursor)?;
            removals.push(Triple::new_unchecked(subject, predicate, object));
        }
        // Journals written before trace propagation end here; newer
        // frames append the optional trace context.
        let trace = if *cursor == bytes.len() {
            None
        } else {
            match next_byte(bytes, cursor)? {
                0 => None,
                _ => Some(TraceContext {
                    trace_id: codec::get_varint(bytes, cursor)?,
                    parent_span_id: codec::get_varint(bytes, cursor)?,
                }),
            }
        };
        if *cursor != bytes.len() {
            return Err(PlatformError::Invalid(
                "trailing bytes after emission body".into(),
            ));
        }
        Ok(Emission {
            origin,
            seq,
            epoch,
            album,
            additions,
            removals,
            trace,
        })
    }

    /// Whether the emission carries no statements (a policy-filtered
    /// sequence marker).
    pub fn is_marker(&self) -> bool {
        self.additions.is_empty() && self.removals.is_empty()
    }
}

fn next_byte(bytes: &[u8], cursor: &mut usize) -> Result<u8, PlatformError> {
    let b = *bytes
        .get(*cursor)
        .ok_or_else(|| PlatformError::Invalid("emission body truncated".into()))?;
    *cursor += 1;
    Ok(b)
}

/// Frames an emission for the journal.
fn frame_emission(emission: &Emission) -> Vec<u8> {
    let body = emission.encode();
    let mut out = Vec::with_capacity(body.len() + 12);
    codec::put_payload_frame(&mut out, emission.seq, &body);
    out
}

/// Scans a journal byte image. Returns the decoded emissions and the
/// clean prefix length; a truncated tail (crash mid-append) is
/// dropped, a corrupt frame is an error.
fn scan_emissions(bytes: &[u8]) -> Result<(Vec<Emission>, usize), PlatformError> {
    let mut emissions = Vec::new();
    let mut offset = 0usize;
    loop {
        match codec::read_payload_frame(bytes, offset) {
            FrameOutcome::Frame { seq, record, next } => {
                emissions.push(Emission::decode(seq, &record)?);
                offset = next;
            }
            FrameOutcome::End | FrameOutcome::Truncated { .. } => return Ok((emissions, offset)),
            FrameOutcome::Corrupt { at, reason } => {
                return Err(PlatformError::Invalid(format!(
                    "corrupt emission journal at byte {at}: {reason}"
                )))
            }
        }
    }
}

/// The durable emission journal behind a [`Replica`]: CRC-framed
/// emissions in [`EMISSIONS_FILE`], flushed on every append, mirrored
/// in memory in arrival order.
struct EmissionJournal {
    storage: Box<dyn Storage>,
    emissions: Vec<Emission>,
}

impl EmissionJournal {
    /// Opens (or creates) the journal. A torn tail (crash mid-append)
    /// is chopped so future appends frame cleanly; a corrupt frame is
    /// an error.
    fn open(mut storage: Box<dyn Storage>) -> Result<EmissionJournal, PlatformError> {
        let bytes = if storage.list().iter().any(|f| f == EMISSIONS_FILE) {
            storage.read(EMISSIONS_FILE)?
        } else {
            storage.create(EMISSIONS_FILE)?;
            Vec::new()
        };
        let (emissions, clean_len) = scan_emissions(&bytes)?;
        if clean_len < bytes.len() {
            storage.truncate(EMISSIONS_FILE, clean_len as u64)?;
            storage.flush(EMISSIONS_FILE)?;
        }
        Ok(EmissionJournal { storage, emissions })
    }

    /// Appends one emission durably (framed, flushed).
    fn append(&mut self, emission: Emission) -> Result<(), PlatformError> {
        self.storage
            .append(EMISSIONS_FILE, &frame_emission(&emission))?;
        self.storage.flush(EMISSIONS_FILE)?;
        self.emissions.push(emission);
        Ok(())
    }
}

// -------------------------------------------------------- share policy

/// What a node shares with one peer. Filtering never consumes a
/// sequence number: a withheld emission ships as an empty marker, so
/// receivers can still detect gaps and converge on the shared subset.
#[derive(Debug, Clone, PartialEq)]
pub enum SharePolicy {
    /// Share every emission in full.
    Everything,
    /// Share only emissions whose origin user is listed.
    Users(Vec<String>),
    /// Share only emissions tagged with one of these albums.
    Albums(Vec<String>),
    /// Share only statements whose predicate IRI starts with one of
    /// these namespace prefixes.
    PredicateNamespaces(Vec<String>),
}

impl SharePolicy {
    /// Projects an emission through the policy, preserving provenance
    /// and the sequence slot.
    pub fn project(&self, emission: &Emission) -> Emission {
        let empty = |e: &Emission| Emission {
            additions: Vec::new(),
            removals: Vec::new(),
            ..e.clone()
        };
        match self {
            SharePolicy::Everything => emission.clone(),
            SharePolicy::Users(users) => {
                if users.contains(&emission.origin.user) {
                    emission.clone()
                } else {
                    empty(emission)
                }
            }
            SharePolicy::Albums(albums) => {
                if emission
                    .album
                    .as_ref()
                    .is_some_and(|album| albums.contains(album))
                {
                    emission.clone()
                } else {
                    empty(emission)
                }
            }
            SharePolicy::PredicateNamespaces(prefixes) => {
                let keep = |p: &Iri| prefixes.iter().any(|prefix| p.as_str().starts_with(prefix));
                Emission {
                    additions: emission
                        .additions
                        .iter()
                        .filter(|q| keep(&q.triple.predicate))
                        .cloned()
                        .collect(),
                    removals: emission
                        .removals
                        .iter()
                        .filter(|t| keep(&t.predicate))
                        .cloned()
                        .collect(),
                    ..empty(emission)
                }
            }
        }
    }
}

// ------------------------------------------------------------- replica

/// Applied position of one remote origin at a replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cursor {
    /// Highest origin sequence number applied.
    pub seq: u64,
    /// Origin store epoch of that emission.
    pub epoch: u64,
}

/// Per-node replication state: the persisted emission journal (own
/// emissions and applied remote ones, in arrival order) plus the
/// cursors derived from it.
struct Replica {
    host: String,
    journal: EmissionJournal,
    /// Journal indexes of own emissions, by `seq - 1`.
    own: Vec<usize>,
    cursors: BTreeMap<String, Cursor>,
}

impl Replica {
    fn open(host: String, storage: Box<dyn Storage>) -> Result<Replica, PlatformError> {
        let mut replica = Replica {
            host,
            journal: EmissionJournal::open(storage)?,
            own: Vec::new(),
            cursors: BTreeMap::new(),
        };
        for at in 0..replica.journal.emissions.len() {
            replica.index(at)?;
        }
        Ok(replica)
    }

    /// Indexes journal entry `at`. Own emissions must number 1, 2, 3, …
    /// in journal order — [`Replica::own_emission`] finds them by
    /// position, so a skipped or repeated sequence number (a buggy or
    /// hostile writer; the frame CRC does not vouch for it) would ship
    /// the wrong emission.
    fn index(&mut self, at: usize) -> Result<(), PlatformError> {
        let emission = &self.journal.emissions[at];
        if emission.origin.host != self.host {
            let cursor = Cursor {
                seq: emission.seq,
                epoch: emission.epoch,
            };
            self.cursors.insert(emission.origin.host.clone(), cursor);
        } else if emission.seq == self.next_seq() {
            self.own.push(at);
        } else {
            return Err(PlatformError::Invalid(format!(
                "emission journal of {} holds own seq {} where {} belongs",
                self.host,
                emission.seq,
                self.next_seq()
            )));
        }
        Ok(())
    }

    /// Appends an emission durably (framed, flushed) and indexes it.
    fn append(&mut self, emission: Emission) -> Result<(), PlatformError> {
        self.journal.append(emission)?;
        self.index(self.journal.emissions.len() - 1)
    }

    /// One of this node's own emissions by sequence number.
    fn own_emission(&self, seq: u64) -> Option<&Emission> {
        let idx = *self.own.get((seq as usize).checked_sub(1)?)?;
        self.journal.emissions.get(idx)
    }

    fn cursor(&self, origin_host: &str) -> Cursor {
        self.cursors.get(origin_host).copied().unwrap_or_default()
    }

    fn head(&self) -> u64 {
        self.own.len() as u64
    }

    fn next_seq(&self) -> u64 {
        self.head() + 1
    }
}

/// What [`Replicator::attach`] found in the journal it opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttachReport {
    /// Emissions recovered from the journal (own + applied remote).
    pub recovered: usize,
    /// Next own sequence number the node will emit.
    pub next_seq: u64,
    /// Remote origins with a recovered cursor.
    pub origins: usize,
}

// ---------------------------------------------------------- transport

/// Seeded transport misbehavior: each delivery that passes the fault
/// plan may still be silently dropped, duplicated, or reordered
/// (held back and released on the next [`Replicator::pump`]).
#[derive(Debug, Clone)]
pub struct TransportChaos {
    /// Probability a delivery is silently lost.
    pub drop_rate: f64,
    /// Probability a delivery arrives twice.
    pub dup_rate: f64,
    /// Probability a delivery is delayed past later ones.
    pub reorder_rate: f64,
    /// RNG seed (deterministic per seed).
    pub seed: u64,
}

struct ChaosState {
    config: TransportChaos,
    rng: DetRng,
}

enum ChaosCall {
    Deliver,
    Drop,
    Duplicate,
    Reorder,
}

impl ChaosState {
    fn decide(&mut self) -> ChaosCall {
        if self.rng.random_bool(self.config.drop_rate) {
            ChaosCall::Drop
        } else if self.rng.random_bool(self.config.dup_rate) {
            ChaosCall::Duplicate
        } else if self.rng.random_bool(self.config.reorder_rate) {
            ChaosCall::Reorder
        } else {
            ChaosCall::Deliver
        }
    }
}

/// One directed replication link.
struct Edge {
    from: NodeId,
    to: NodeId,
    policy: SharePolicy,
    /// The edge's peer on the delivery link, named
    /// `repl:<from host>-><to host>` on first use
    /// ([`Replicator::subscribe`] sees node ids, not hosts).
    peer: Option<PeerId>,
}

// ----------------------------------------------------------- replicator

/// The replication mesh: per-node journals, policy-filtered directed
/// links, simulated faulty transport, and idempotent receivers.
pub struct Replicator {
    replicas: BTreeMap<NodeId, Replica>,
    edges: Vec<Edge>,
    /// Judges, parks and replays every shipment; one peer per edge.
    link: Link<Frame>,
    chaos: Option<ChaosState>,
    /// Reordered deliveries held for the next pump: `(edge, emission)`.
    delayed: Vec<(usize, Emission)>,
    metrics: Option<Metrics>,
    tracer: Option<Tracer>,
}

impl Default for Replicator {
    fn default() -> Self {
        Self::new()
    }
}

impl Replicator {
    /// An empty mesh with perfect transport.
    pub fn new() -> Replicator {
        Replicator {
            replicas: BTreeMap::new(),
            edges: Vec::new(),
            link: Link::new("replication", "replication-transport"),
            chaos: None,
            delayed: Vec::new(),
            metrics: None,
            tracer: None,
        }
    }

    /// Installs fault-injected transport: every shipment over the link
    /// `from → to` is judged by `plan` under target
    /// `repl:<from_host>-><to_host>`, retried per `retry`.
    pub fn with_fault_plan(&mut self, plan: FaultPlan, retry: RetryPolicy) {
        self.link.with_fault_plan(plan, retry);
    }

    /// Installs (or clears) seeded drop/duplicate/reorder misbehavior
    /// on deliveries that pass the fault plan.
    pub fn set_transport_chaos(&mut self, chaos: Option<TransportChaos>) {
        self.chaos = chaos.map(|config| ChaosState {
            rng: DetRng::seed_from_u64(config.seed).fork("replication-chaos"),
            config,
        });
    }

    /// Attaches observability: `replication.ship` / `replication.apply`
    /// spans and mirrored counters + the `replication.lag` gauge.
    pub fn set_observability(&mut self, obs: &Obs) {
        self.metrics = Some(obs.metrics().clone());
        self.tracer = Some(obs.tracer().clone());
    }

    /// Replication telemetry (`replication.*` counters and gauges).
    pub fn telemetry(&self) -> &Telemetry {
        self.link.telemetry()
    }

    /// Attaches (or re-attaches) a node's replica state, opening its
    /// emission journal on `storage` and recovering the replication
    /// cursors exactly. Re-attaching after [`Replicator::kill`] is the
    /// crash-recovery path.
    pub fn attach(
        &mut self,
        fed: &Federation,
        node: NodeId,
        storage: Box<dyn Storage>,
    ) -> Result<AttachReport, PlatformError> {
        let host = fed.node(node)?.host().to_string();
        let replica = Replica::open(host, storage)?;
        let report = AttachReport {
            recovered: replica.journal.emissions.len(),
            next_seq: replica.next_seq(),
            origins: replica.cursors.len(),
        };
        self.replicas.insert(node, replica);
        Ok(report)
    }

    /// Simulates a replica process crash: all in-memory replication
    /// state for `node` is dropped (the persisted journal survives in
    /// its storage). Returns whether the node had a replica.
    pub fn kill(&mut self, node: NodeId) -> bool {
        self.replicas.remove(&node).is_some()
    }

    /// Adds a directed replication link `from → to` under `policy`.
    pub fn subscribe(
        &mut self,
        from: NodeId,
        to: NodeId,
        policy: SharePolicy,
    ) -> Result<(), PlatformError> {
        if from == to {
            return Err(PlatformError::Invalid("self-replication link".into()));
        }
        if self.edges.iter().any(|l| l.from == from && l.to == to) {
            return Err(PlatformError::Invalid(format!(
                "duplicate link {from} -> {to}"
            )));
        }
        self.edges.push(Edge {
            from,
            to,
            policy,
            peer: None,
        });
        Ok(())
    }

    /// Packages the content ops accumulated on `author`'s node since
    /// the last commit into an [`Emission`] (journaled durably), then
    /// eagerly ships it over the node's outgoing links. Returns the
    /// emission's sequence number, or `None` when there was nothing to
    /// commit.
    pub fn commit(
        &mut self,
        fed: &mut Federation,
        author: &Acct,
        album: Option<&str>,
    ) -> Result<Option<u64>, PlatformError> {
        let (node_id, _) = fed.webfinger(&author.to_string())?;
        if !self.replicas.contains_key(&node_id) {
            return Err(PlatformError::Invalid(format!(
                "no replica attached for node {node_id}"
            )));
        }
        let node = fed.node_mut(node_id)?;
        let ops = node.drain_ops();
        if ops.is_empty() {
            return Ok(None);
        }
        let epoch = node.store().epoch();
        let mut additions = Vec::new();
        let mut removals = Vec::new();
        for op in ops {
            match op {
                NodeOp::Insert(triple) => additions.push(EmissionQuad {
                    triple,
                    graph: None,
                }),
                NodeOp::Remove(triple) => removals.push(triple),
            }
        }
        // The commit mints the root of the causal trace: every ship,
        // apply, and push span this emission causes — on any node —
        // attaches under it.
        let span = self.tracer.as_ref().map(|t| t.start("replication.commit"));
        let replica = self.replicas.get_mut(&node_id).expect("checked above");
        let emission = Emission {
            origin: author.clone(),
            seq: replica.next_seq(),
            epoch,
            album: album.map(str::to_string),
            additions,
            removals,
            trace: span.as_ref().and_then(|s| s.context()),
        };
        let seq = emission.seq;
        replica.append(emission)?;
        self.count("replication.emissions");
        for idx in 0..self.edges.len() {
            if self.edges[idx].from == node_id {
                self.ship_link(fed, idx)?;
            }
        }
        self.publish_gauges();
        if let Some(span) = span {
            span.finish();
        }
        Ok(Some(seq))
    }

    /// Ships everything pending: releases reorder-delayed deliveries,
    /// drains every link's backlog, then runs an anti-entropy pass that
    /// pulls any remaining gap (e.g. a silently dropped final emission)
    /// over links the fault plan currently allows.
    pub fn pump(&mut self, fed: &mut Federation) -> Result<(), PlatformError> {
        let delayed = std::mem::take(&mut self.delayed);
        for (idx, emission) in delayed {
            self.deliver(fed, idx, emission)?;
        }
        for idx in 0..self.edges.len() {
            self.ship_link(fed, idx)?;
        }
        self.reconcile(fed)?;
        self.publish_gauges();
        Ok(())
    }

    /// Ships the edge's backlog (shipped cursor → origin head).
    /// Failures park the shipment in the DLQ and move on; chaos may
    /// drop, duplicate, or delay individual deliveries.
    fn ship_link(&mut self, fed: &mut Federation, idx: usize) -> Result<(), PlatformError> {
        loop {
            let (from, to) = (self.edges[idx].from, self.edges[idx].to);
            let Some(head) = self.replicas.get(&from).map(Replica::head) else {
                return Ok(()); // sender down; nothing to ship
            };
            let peer = self.peer(fed, idx)?;
            let Some(seq) = self.link.next_to_ship(peer, head) else {
                return Ok(());
            };
            let shipped = self.outgoing(idx, seq).map_err(PlatformError::Invalid)?;
            let span = self
                .tracer
                .as_ref()
                .map(|t| t.start_with_context("replication.ship", shipped.trace));
            let verdict = if self.replicas.contains_key(&to) {
                self.link.attempt(peer)
            } else {
                Err(format!("replica {to} down"))
            };
            match verdict {
                Err(error) => self.link.park(Frame { peer, seq }, error),
                Ok(()) => {
                    self.count("replication.shipped");
                    let telemetry = self.link.telemetry();
                    match self.chaos.as_mut().map(|c| c.decide()) {
                        Some(ChaosCall::Drop) => {
                            telemetry.incr("replication.transport.dropped");
                        }
                        Some(ChaosCall::Duplicate) => {
                            telemetry.incr("replication.transport.duplicated");
                            self.deliver(fed, idx, shipped.clone())?;
                            self.deliver(fed, idx, shipped)?;
                        }
                        Some(ChaosCall::Reorder) => {
                            telemetry.incr("replication.transport.reordered");
                            self.delayed.push((idx, shipped));
                        }
                        Some(ChaosCall::Deliver) | None => {
                            self.deliver(fed, idx, shipped)?;
                        }
                    }
                }
            }
            // Parked or delivered, the slot is accounted for; the DLQ
            // or the receiver's gap detection owns it from here.
            self.link.mark_shipped(peer, seq);
            if let Some(span) = span {
                span.finish();
            }
        }
    }

    /// Applies one delivered emission at the link's receiver:
    /// duplicates and stale epochs are no-ops, a gap triggers a
    /// catch-up pull from the origin journal.
    fn deliver(
        &mut self,
        fed: &mut Federation,
        idx: usize,
        emission: Emission,
    ) -> Result<(), PlatformError> {
        let to = self.edges[idx].to;
        let Some(receiver) = self.replicas.get(&to) else {
            // A delayed delivery can land after the replica died.
            let (peer, seq) = (self.peer(fed, idx)?, emission.seq);
            self.link
                .park(Frame { peer, seq }, format!("replica {to} down"));
            return Ok(());
        };
        let cursor = receiver.cursor(&emission.origin.host);
        let arrival = arrival(cursor.seq, emission.seq);
        if arrival == Arrival::Duplicate {
            self.link.telemetry().incr("replication.duplicates");
            return Ok(());
        }
        if emission.epoch <= cursor.epoch {
            self.link.telemetry().incr("replication.stale");
            return Ok(());
        }
        if let Arrival::Gap(missing) = arrival {
            // Pull the missing range from the origin's journal (we are
            // mid-delivery, so the pipe is open).
            self.count("replication.catchups");
            let Ok(missing) = missing
                .map(|seq| self.outgoing(idx, seq))
                .collect::<Result<Vec<Emission>, _>>()
            else {
                return Ok(()); // origin down; a later pump repairs
            };
            for pulled in missing {
                self.apply_one(fed, to, pulled)?;
            }
        }
        self.apply_one(fed, to, emission)
    }

    /// Applies an in-order emission at `to`: mutates the store,
    /// journals the applied emission durably, and advances the cursor.
    fn apply_one(
        &mut self,
        fed: &mut Federation,
        to: NodeId,
        emission: Emission,
    ) -> Result<(), PlatformError> {
        let span = self
            .tracer
            .as_ref()
            .map(|t| t.start_with_context("replication.apply", emission.trace));
        // Downstream live-album pushes attach under this apply span
        // when one is live, else directly under the emission's trace.
        let ctx = span.as_ref().and_then(|s| s.context()).or(emission.trace);
        {
            let store = fed.node_mut(to)?.store_mut();
            for quad in &emission.additions {
                let g = match &quad.graph {
                    None => store.default_graph(),
                    Some(name) => store.graph(name),
                };
                store.insert(&quad.triple, g);
            }
            for triple in &emission.removals {
                store.remove(triple);
            }
        }
        // The replica's live albums see the same delta the store just
        // absorbed, so standing queries registered against a *replica*
        // stay maintained — and keep pushing diffs — without ever
        // re-running their SPARQL.
        let added: Vec<Triple> = emission
            .additions
            .iter()
            .map(|quad| quad.triple.clone())
            .collect();
        fed.live_maintain(to, &added, &emission.removals, ctx);
        let replica = self
            .replicas
            .get_mut(&to)
            .ok_or_else(|| PlatformError::NotFound(format!("replica {to}")))?;
        replica.append(emission)?;
        self.count("replication.applied");
        if let Some(span) = span {
            span.finish();
        }
        Ok(())
    }

    /// Anti-entropy: for every link whose receiver is behind the
    /// origin head (a silently dropped delivery leaves no later
    /// emission to trip gap detection), pull the missing range — but
    /// only if the transport currently allows it.
    fn reconcile(&mut self, fed: &mut Federation) -> Result<(), PlatformError> {
        for idx in 0..self.edges.len() {
            loop {
                let (from, to) = (self.edges[idx].from, self.edges[idx].to);
                let (Some(origin), Some(receiver)) =
                    (self.replicas.get(&from), self.replicas.get(&to))
                else {
                    break;
                };
                let next = receiver.cursor(&origin.host).seq + 1;
                if next > origin.head() {
                    break;
                }
                let peer = self.peer(fed, idx)?;
                if self.link.attempt(peer).is_err() {
                    break; // partitioned; a later pump retries
                }
                let Ok(pulled) = self.outgoing(idx, next) else {
                    break;
                };
                self.count("replication.catchups");
                self.apply_one(fed, to, pulled)?;
            }
        }
        Ok(())
    }

    /// Replays the shipment dead-letter queue; still-failing shipments
    /// are re-parked until the link's attempt cap exhausts them.
    pub fn redeliver(&mut self, fed: &mut Federation) -> Result<ReplayReport, PlatformError> {
        let mut failure: Option<PlatformError> = None;
        let report = Link::replay(
            self,
            |repl| &mut repl.link,
            |repl, &Frame { peer, seq }| {
                let idx = repl
                    .edges
                    .iter()
                    .position(|edge| edge.peer == Some(peer))
                    .ok_or("link removed")?;
                let to = repl.edges[idx].to;
                if !repl.replicas.contains_key(&to) {
                    return Err(format!("replica {to} down"));
                }
                repl.link.attempt(peer)?;
                let emission = repl.outgoing(idx, seq)?;
                repl.deliver(fed, idx, emission).map_err(|e| {
                    failure = Some(e);
                    "internal error".to_string()
                })
            },
        );
        if let Some(e) = failure {
            return Err(e);
        }
        self.publish_gauges();
        Ok(report)
    }

    /// Emission `seq` of the edge's origin as the edge's policy shares
    /// it — refetched from the origin journal on every use, so nothing
    /// in flight or parked ever holds a stale payload.
    fn outgoing(&self, idx: usize, seq: u64) -> Result<Emission, String> {
        let Edge { from, policy, .. } = &self.edges[idx];
        let origin = self
            .replicas
            .get(from)
            .ok_or_else(|| format!("origin {from} down"))?;
        let own = origin
            .own_emission(seq)
            .ok_or_else(|| format!("emission {seq} missing from node {from}"))?;
        Ok(policy.project(own))
    }

    /// The edge's peer on the delivery link, registered under
    /// `repl:<from host>-><to host>` the first time the edge is used.
    fn peer(&mut self, fed: &Federation, idx: usize) -> Result<PeerId, PlatformError> {
        let edge = &self.edges[idx];
        if let Some(peer) = edge.peer {
            return Ok(peer);
        }
        let peer = self.link.add_peer(format!(
            "repl:{}->{}",
            fed.node(edge.from)?.host(),
            fed.node(edge.to)?.host()
        ));
        self.edges[idx].peer = Some(peer);
        Ok(peer)
    }

    /// Counts one event in the telemetry and, when attached, the
    /// mirrored metrics registry.
    fn count(&self, name: &str) {
        self.link.telemetry().incr(name);
        if let Some(metrics) = &self.metrics {
            metrics.incr(name);
        }
    }

    /// Maximum replication lag over all links: origin head sequence
    /// minus the receiver's applied cursor.
    pub fn lag(&self) -> u64 {
        self.edges
            .iter()
            .map(|link| {
                let Some(origin) = self.replicas.get(&link.from) else {
                    return 0;
                };
                let applied = self
                    .replicas
                    .get(&link.to)
                    .map(|r| r.cursor(&origin.host).seq)
                    .unwrap_or(0);
                origin.head().saturating_sub(applied)
            })
            .max()
            .unwrap_or(0)
    }

    /// Whether every link is fully applied with nothing in flight or
    /// parked.
    pub fn converged(&self) -> bool {
        self.lag() == 0 && self.delayed.is_empty() && self.link.depth() == 0
    }

    /// A node's own emission log, in sequence order — what a
    /// single-node oracle replays to verify convergence, and what a
    /// peer pulls from during catch-up.
    pub fn emission_log(&self, node: NodeId) -> Result<Vec<Emission>, PlatformError> {
        let replica = self
            .replicas
            .get(&node)
            .ok_or_else(|| PlatformError::NotFound(format!("replica {node}")))?;
        Ok((1..=replica.head())
            .filter_map(|seq| replica.own_emission(seq))
            .cloned()
            .collect())
    }

    /// The emissions a node applied from its peers, in arrival order —
    /// its whole durable journal minus its own authorship. Chaos tests
    /// audit this to prove applied emissions kept their origin trace
    /// context across the transport.
    pub fn applied_log(&self, node: NodeId) -> Result<Vec<Emission>, PlatformError> {
        let replica = self
            .replicas
            .get(&node)
            .ok_or_else(|| PlatformError::NotFound(format!("replica {node}")))?;
        Ok(replica
            .journal
            .emissions
            .iter()
            .filter(|e| e.origin.host != replica.host)
            .cloned()
            .collect())
    }

    /// Parked shipments awaiting [`Replicator::redeliver`].
    pub fn undelivered(&self) -> usize {
        self.link.depth()
    }

    /// Shipments abandoned at the link's attempt cap.
    pub fn exhausted(&self) -> usize {
        self.link.exhausted()
    }

    /// Breaker state of the link `from → to`, if it exists.
    pub fn breaker_state(&self, from: NodeId, to: NodeId) -> Option<BreakerState> {
        self.edges
            .iter()
            .find(|l| l.from == from && l.to == to)
            .map(|l| {
                l.peer
                    .map_or(BreakerState::Closed, |p| self.link.breaker_state(p))
            })
    }

    /// Point-in-time counters for the `/ops` degradation verdict.
    pub fn ops(&self) -> ReplicationOps {
        let telemetry = self.link.telemetry();
        ReplicationOps {
            lag: self.lag(),
            dlq_depth: self.link.depth(),
            parked: telemetry.counter("replication.parked"),
            redelivered: telemetry.counter("replication.redelivered"),
            emissions: telemetry.counter("replication.emissions"),
            applied: telemetry.counter("replication.applied"),
        }
    }

    fn publish_gauges(&self) {
        let lag = self.lag();
        self.link.telemetry().set_gauge("replication.lag", lag);
        if let Some(metrics) = &self.metrics {
            metrics.set_gauge("replication.lag", lag);
            metrics.set_gauge("replication.dlq.depth", self.link.depth() as u64);
        }
    }
}

// -------------------------------------------------------------- outbox

/// The platform-side emission outbox: an in-memory queue plus the
/// sequence counter. Every platform commit — upload, rating, legacy
/// annotation — records its store delta here; a replication agent
/// drains it and ships. It keeps no journal of its own: each commit's
/// one WAL record carries the emission provenance, so a restarted
/// platform resumes the sequence from the recovered commits and
/// re-offers those still in the WAL tail (compaction waits while the
/// outbox is undrained, so an undrained emission is always there).
/// The drain position is consumer state: downstream idempotent apply
/// absorbs the overlap a restart re-offers.
#[derive(Debug, Default)]
pub struct EmissionOutbox {
    origin: Option<Acct>,
    queue: Vec<Emission>,
    /// Emissions recorded so far: the last sequence number handed out.
    recorded: u64,
}

impl EmissionOutbox {
    /// Starts emitting as `origin`; returns how many emissions are
    /// already queued (re-offered after a restart).
    pub fn enable(&mut self, origin: Acct) -> usize {
        for emission in &mut self.queue {
            emission.origin = origin.clone();
        }
        self.origin = Some(origin);
        self.queue.len()
    }

    /// Records the next emission, stamped with the commit's trace
    /// context so replicas applying it stitch their spans under the
    /// origin trace. `body` is the commit's additions and removals, or
    /// `None` for a commit compaction folded in before a restart: its
    /// sequence number is spent but it is not re-offered. Returns the
    /// sequence number.
    pub fn record(
        &mut self,
        epoch: u64,
        album: Option<&str>,
        body: Option<(Vec<EmissionQuad>, Vec<Triple>)>,
        trace: Option<TraceContext>,
    ) -> u64 {
        self.recorded += 1;
        if let Some((additions, removals)) = body {
            self.queue.push(Emission {
                // Until `enable` names the origin (recovery replays
                // before it), a queued emission carries an empty one.
                origin: self.origin.clone().unwrap_or(Acct {
                    user: String::new(),
                    host: String::new(),
                }),
                seq: self.recorded,
                epoch,
                album: album.map(str::to_string),
                additions,
                removals,
                trace,
            });
        }
        self.recorded
    }

    /// Emissions not yet handed to a consumer.
    pub fn lag(&self) -> u64 {
        self.queue.len() as u64
    }

    /// Hands every undrained emission to the consumer.
    pub fn drain(&mut self) -> Vec<Emission> {
        std::mem::take(&mut self.queue)
    }

    /// The account this outbox emits as, once enabled.
    pub fn origin(&self) -> Option<&Acct> {
        self.origin.as_ref()
    }

    /// Emissions recorded so far (including drained ones).
    pub fn len(&self) -> usize {
        self.recorded as usize
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_durability::MemStorage;
    use lodify_rdf::Term;
    use lodify_resilience::VirtualClock;

    fn acct(uri: &str) -> Acct {
        Acct::parse(uri).expect("valid acct")
    }

    fn sample_emission() -> Emission {
        let subject = Term::Iri(Iri::new_unchecked("http://node1.example/media/1"));
        Emission {
            origin: acct("acct:oscar@node1.example"),
            seq: 7,
            epoch: 42,
            album: Some("turin-trip".into()),
            additions: vec![
                EmissionQuad {
                    triple: Triple::new_unchecked(
                        subject.clone(),
                        Iri::new_unchecked("http://purl.org/dc/terms/title"),
                        Term::Literal(lodify_rdf::Literal::simple("Mole")),
                    ),
                    graph: Some("urn:graph:ugc".into()),
                },
                EmissionQuad {
                    triple: Triple::new_unchecked(
                        subject.clone(),
                        Iri::new_unchecked("http://xmlns.com/foaf/0.1/maker"),
                        Term::Iri(Iri::new_unchecked("http://node1.example/user/oscar")),
                    ),
                    graph: None,
                },
            ],
            removals: vec![Triple::new_unchecked(
                subject,
                Iri::new_unchecked("http://purl.org/dc/terms/subject"),
                Term::Iri(Iri::new_unchecked("http://dbpedia.org/resource/Turin")),
            )],
            trace: Some(TraceContext {
                trace_id: 0x00aa_0000_0000_0001,
                parent_span_id: 3,
            }),
        }
    }

    #[test]
    fn emission_codec_round_trips() {
        let emission = sample_emission();
        let decoded = Emission::decode(emission.seq, &emission.encode()).unwrap();
        assert_eq!(decoded, emission);

        // Empty (marker) emissions round-trip too.
        let marker = Emission {
            additions: Vec::new(),
            removals: Vec::new(),
            album: None,
            ..emission.clone()
        };
        let decoded = Emission::decode(marker.seq, &marker.encode()).unwrap();
        assert_eq!(decoded, marker);
        assert!(decoded.is_marker());

        // Trailing garbage is rejected, not silently ignored.
        let mut bytes = emission.encode();
        bytes.push(0);
        assert!(Emission::decode(emission.seq, &bytes).is_err());

        // A legacy frame (written before trace propagation, so without
        // the trailing trace field) still decodes, with no trace.
        let untraced = Emission {
            trace: None,
            ..emission
        };
        let mut legacy = untraced.encode();
        legacy.pop(); // strip the trace option byte
        assert_eq!(Emission::decode(untraced.seq, &legacy).unwrap(), untraced);

        // A CRC-passing body with a malformed origin is rejected by
        // the Acct re-validation.
        let mut forged = Vec::new();
        codec::put_str(&mut forged, "os car");
        codec::put_str(&mut forged, "node1.example");
        assert!(Emission::decode(1, &forged).is_err());
    }

    #[test]
    fn journal_scan_recovers_and_drops_torn_tail() {
        let emission = sample_emission();
        let mut bytes = frame_emission(&emission);
        let clean = bytes.len();
        bytes.extend_from_slice(&bytes.clone()[..9]); // torn second frame
        let (recovered, offset) = scan_emissions(&bytes).unwrap();
        assert_eq!(recovered, vec![emission]);
        assert_eq!(offset, clean);
    }

    /// A journal image on fresh storage, as a hostile or buggy writer
    /// could have left it.
    fn disk_holding(bytes: &[u8]) -> MemStorage {
        let mut disk = MemStorage::new();
        disk.create(EMISSIONS_FILE).unwrap();
        disk.append(EMISSIONS_FILE, bytes).unwrap();
        disk.flush(EMISSIONS_FILE).unwrap();
        disk
    }

    #[test]
    fn attach_rejects_a_journal_with_non_dense_own_sequence_numbers() {
        let mut fed = Federation::new();
        let n1 = fed.add_node("node1.example").unwrap();
        let n2 = fed.add_node("node2.example").unwrap();
        let journal = |seqs: &[u64]| {
            let bytes: Vec<u8> = seqs
                .iter()
                .flat_map(|&seq| {
                    frame_emission(&Emission {
                        seq,
                        ..sample_emission()
                    })
                })
                .collect();
            Box::new(disk_holding(&bytes))
        };
        // Every frame passes its CRC and decodes; the sequence is what
        // is wrong: a hole, a repeat, a late start.
        for seqs in [&[1, 3][..], &[1, 1], &[2], &[1, 2, u64::MAX]] {
            let err = Replicator::new()
                .attach(&fed, n1, journal(seqs))
                .err()
                .unwrap_or_else(|| panic!("own seqs {seqs:?} accepted"));
            assert!(matches!(err, PlatformError::Invalid(_)), "{seqs:?}: {err}");
        }
        let mut repl = Replicator::new();
        let report = repl.attach(&fed, n1, journal(&[1, 2, 3])).unwrap();
        assert_eq!((report.recovered, report.next_seq), (3, 4));
        assert_eq!(repl.replicas[&n1].own_emission(3).unwrap().seq, 3);
        // At another node the same frames are applied remote emissions:
        // only the last one matters, as the origin's cursor.
        let report = repl.attach(&fed, n2, journal(&[5, 9])).unwrap();
        assert_eq!((report.next_seq, report.origins), (1, 1));
        assert_eq!(repl.replicas[&n2].cursor("node1.example").seq, 9);
    }

    /// LEB128, as `codec::put_varint` writes it.
    fn varint(value: u64) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_varint(&mut out, value);
        out
    }

    /// One hostile byte string derived from `valid`: arbitrary bytes,
    /// bit flips, a truncation, trailing garbage, or a length field
    /// inflated up to `u64::MAX`.
    fn mutate(rng: &mut DetRng, valid: &[u8]) -> Vec<u8> {
        let mut bytes = valid.to_vec();
        match rng.random_range(0..5u32) {
            0 => {
                let len = rng.random_range(0..200usize);
                bytes = (0..len).map(|_| rng.next_u64() as u8).collect();
            }
            1 => {
                for _ in 0..rng.random_range(1..4u32) {
                    let at = rng.random_range(0..bytes.len());
                    bytes[at] ^= 1 << rng.random_range(0..8u32);
                }
            }
            2 => bytes.truncate(rng.random_range(0..bytes.len())),
            3 => {
                let extra = rng.random_range(1..16usize);
                bytes.extend((0..extra).map(|_| rng.next_u64() as u8));
            }
            _ => {
                let at = rng.random_range(0..bytes.len());
                let huge = [u64::MAX, u64::from(u32::MAX), 1 << 40, 1 << 20];
                let inflated = varint(huge[rng.random_range(0..huge.len())]);
                bytes.splice(at..=at, inflated);
            }
        }
        bytes
    }

    /// What a decoder may hand back for hostile input: an emission
    /// that survives its own round trip, no bigger than the bytes it
    /// came from, with the pre-allocation guards in force.
    fn assert_sound(emission: &Emission, input_len: usize) {
        let encoded = emission.encode();
        assert_eq!(&Emission::decode(emission.seq, &encoded).unwrap(), emission);
        // A legacy body lacks the one-byte trace option.
        assert!(encoded.len() <= input_len + 1, "decoded more than was sent");
        assert!(emission.additions.capacity() <= 1024.max(2 * emission.additions.len()));
        assert!(emission.removals.capacity() <= 1024.max(2 * emission.removals.len()));
    }

    #[test]
    fn hostile_emission_bytes_yield_errors_never_panics() {
        let mut rng = DetRng::seed_from_u64(0x5eed_e415).fork("emission-fuzz");
        let marker = Emission {
            additions: Vec::new(),
            removals: Vec::new(),
            album: None,
            trace: None,
            ..sample_emission()
        };
        let (mut decoded, mut recovered, mut rejected) = (0, 0, 0);
        let sample = sample_emission();
        for case in 0..300 {
            let valid = if case % 3 == 0 { &marker } else { &sample };

            // A hostile body, straight into the decoder …
            let body = mutate(&mut rng, &valid.encode());
            match Emission::decode(valid.seq, &body) {
                Ok(emission) => {
                    assert_sound(&emission, body.len());
                    decoded += 1;
                }
                Err(_) => rejected += 1,
            }

            // … and through the journal: the same body under a valid
            // CRC and a hostile sequence number, between two honest
            // frames, then the journal bytes themselves mutated on
            // every other case.
            let mut journal = frame_emission(valid);
            let seq = [1, valid.seq, u64::MAX][case % 3];
            codec::put_payload_frame(&mut journal, seq, &body);
            journal.extend(frame_emission(valid));
            if case % 2 == 1 {
                journal = mutate(&mut rng, &journal);
            }
            match scan_emissions(&journal) {
                Ok((emissions, clean_len)) => {
                    assert!(clean_len <= journal.len());
                    for emission in &emissions {
                        assert_sound(emission, clean_len);
                    }
                    recovered += emissions.len();
                }
                Err(_) => rejected += 1,
            }
            // Opening it as a replica journal never panics either.
            let _ = Replica::open("node1.example".into(), Box::new(disk_holding(&journal)));
        }
        assert!(
            decoded > 0 && recovered > 0 && rejected > 300,
            "every outcome exercised: {decoded} decoded, {recovered} recovered, {rejected} rejected"
        );
    }

    #[test]
    fn share_policies_project_into_empty_markers() {
        let emission = sample_emission();
        assert_eq!(SharePolicy::Everything.project(&emission), emission);

        let kept = SharePolicy::Users(vec!["oscar".into()]).project(&emission);
        assert_eq!(kept, emission);
        let withheld = SharePolicy::Users(vec!["walter".into()]).project(&emission);
        assert!(withheld.is_marker());
        assert_eq!(withheld.seq, emission.seq);
        assert_eq!(withheld.origin, emission.origin);

        assert!(!SharePolicy::Albums(vec!["turin-trip".into()])
            .project(&emission)
            .is_marker());
        assert!(SharePolicy::Albums(vec!["other".into()])
            .project(&emission)
            .is_marker());

        let dcterms = SharePolicy::PredicateNamespaces(vec!["http://purl.org/dc/terms/".into()])
            .project(&emission);
        assert_eq!(dcterms.additions.len(), 1);
        assert_eq!(dcterms.removals.len(), 1);
    }

    fn two_node_mesh() -> (Federation, Replicator, Acct, MemStorage, MemStorage) {
        let mut fed = Federation::new();
        let n1 = fed.add_node("node1.example").unwrap();
        let n2 = fed.add_node("node2.example").unwrap();
        let oscar = fed.register_user(n1, "oscar", "Oscar").unwrap();
        let d1 = MemStorage::new();
        let d2 = MemStorage::new();
        let mut repl = Replicator::new();
        repl.attach(&fed, n1, Box::new(d1.clone())).unwrap();
        repl.attach(&fed, n2, Box::new(d2.clone())).unwrap();
        repl.subscribe(n1, n2, SharePolicy::Everything).unwrap();
        (fed, repl, oscar, d1, d2)
    }

    #[test]
    fn commit_replicates_and_empty_commits_are_none() {
        let (mut fed, mut repl, oscar, _, _) = two_node_mesh();
        let (media, _) = fed.publish(&oscar, "Mole at night", 1000).unwrap();
        let seq = repl.commit(&mut fed, &oscar, None).unwrap();
        assert_eq!(seq, Some(1));
        assert!(repl.converged());
        let replicated =
            fed.node(1)
                .unwrap()
                .store()
                .match_terms(Some(&Term::Iri(media.clone())), None, None);
        assert_eq!(replicated.len(), 4, "all media triples replicated");

        // Nothing staged → no emission, sequence unchanged.
        assert_eq!(repl.commit(&mut fed, &oscar, None).unwrap(), None);

        // A retraction replicates as removals: the media disappears
        // from the replica too.
        fed.retract(&oscar, &media).unwrap();
        assert_eq!(repl.commit(&mut fed, &oscar, None).unwrap(), Some(2));
        assert!(repl.converged());
        let replicated =
            fed.node(1)
                .unwrap()
                .store()
                .match_terms(Some(&Term::Iri(media)), None, None);
        assert!(replicated.is_empty(), "retraction propagated");
        assert_eq!(repl.telemetry().counter("replication.applied"), 2);
    }

    /// Hub meshes of growing size on a clean transport: shipping is
    /// eager, so every commit leaves the mesh converged and each
    /// emission is applied exactly once per subscribed link.
    #[test]
    fn clean_hub_mesh_applies_each_emission_once_per_link() {
        let emissions = 10;
        for n in [2, 4, 8] {
            let mut fed = Federation::new();
            let mut repl = Replicator::new();
            for i in 0..n {
                fed.add_node(&format!("node{i}.example")).unwrap();
                repl.attach(&fed, i, Box::new(MemStorage::new())).unwrap();
            }
            let oscar = fed.register_user(0, "oscar", "Oscar").unwrap();
            for i in 1..n {
                repl.subscribe(0, i, SharePolicy::Everything).unwrap();
            }
            for e in 0..emissions {
                fed.publish(&oscar, &format!("media #{e}"), 1_000 + e as i64)
                    .unwrap();
                repl.commit(&mut fed, &oscar, None).unwrap();
                assert!(repl.converged(), "{n} nodes, after emission {e}");
            }
            assert_eq!(
                repl.telemetry().counter("replication.applied"),
                (emissions * (n - 1)) as u64,
                "{n} nodes"
            );
            assert_eq!(repl.telemetry().counter("replication.duplicates"), 0);
        }
    }

    #[test]
    fn duplicates_and_stale_epochs_are_no_ops() {
        let (mut fed, mut repl, oscar, _, _) = two_node_mesh();
        fed.publish(&oscar, "first", 1000).unwrap();
        repl.commit(&mut fed, &oscar, None).unwrap();
        let before = fed.node(1).unwrap().store().len();

        // Redeliver the same emission verbatim: cursor rejects it.
        let emission = repl.replicas[&0].own_emission(1).unwrap().clone();
        repl.deliver(&mut fed, 0, emission.clone()).unwrap();
        assert_eq!(repl.telemetry().counter("replication.duplicates"), 1);

        // A later seq carrying an older epoch is stale, not applied.
        let stale = Emission {
            seq: 2,
            epoch: emission.epoch.saturating_sub(1),
            ..emission
        };
        repl.deliver(&mut fed, 0, stale).unwrap();
        assert_eq!(repl.telemetry().counter("replication.stale"), 1);
        assert_eq!(fed.node(1).unwrap().store().len(), before);
    }

    #[test]
    fn outage_parks_then_gap_catchup_and_redelivery_converge() {
        let (mut fed, mut repl, oscar, _, _) = two_node_mesh();
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("repl:node1.example->node2.example", 0, 5_000)
            .build(clock.clone());
        repl.with_fault_plan(plan, RetryPolicy::no_retry());

        fed.publish(&oscar, "parked", 1000).unwrap();
        repl.commit(&mut fed, &oscar, None).unwrap();
        assert_eq!(repl.undelivered(), 1, "seq 1 parked during the outage");
        assert_eq!(repl.lag(), 1);

        // Outage over; the breaker opened during the outage, so let its
        // cooldown elapse too.
        clock.set(10_000);
        fed.publish(&oscar, "after the partition", 2000).unwrap();
        repl.commit(&mut fed, &oscar, None).unwrap();

        // Seq 2 arrived with cursor at 0 → gap → catch-up pulled seq 1.
        assert!(repl.telemetry().counter("replication.catchups") >= 1);
        assert_eq!(repl.lag(), 0);

        // The parked copy of seq 1 replays as a duplicate no-op.
        let report = repl.redeliver(&mut fed).unwrap();
        assert_eq!(report.replayed, 1);
        assert!(repl.converged());
        assert_eq!(repl.telemetry().counter("replication.duplicates"), 1);
        assert_eq!(repl.telemetry().gauge("replication.dlq.depth"), Some(0));
    }

    #[test]
    fn killed_replica_recovers_cursor_from_its_journal() {
        let (mut fed, mut repl, oscar, _, d2) = two_node_mesh();
        fed.publish(&oscar, "one", 1000).unwrap();
        repl.commit(&mut fed, &oscar, None).unwrap();
        fed.publish(&oscar, "two", 2000).unwrap();
        repl.commit(&mut fed, &oscar, None).unwrap();
        assert!(repl.converged());

        // Crash the replica process: volatile state gone, journal kept.
        assert!(repl.kill(1));
        d2.crash();
        fed.publish(&oscar, "while dead", 3000).unwrap();
        repl.commit(&mut fed, &oscar, None).unwrap();
        assert_eq!(repl.undelivered(), 1, "shipment to the dead replica parked");

        // Recover: the journal yields the exact cursor, so pumping
        // applies only the missed emission.
        let report = repl.attach(&fed, 1, Box::new(d2)).unwrap();
        assert_eq!(report.recovered, 2, "both applied emissions recovered");
        let applied_before = repl.telemetry().counter("replication.applied");
        repl.pump(&mut fed).unwrap();
        repl.redeliver(&mut fed).unwrap();
        assert!(repl.converged());
        assert_eq!(
            repl.telemetry().counter("replication.applied") - applied_before,
            1,
            "exactly the missed emission applied — no re-application"
        );
    }

    /// The outbox keeps no journal: a durable platform's WAL carries
    /// each emission's provenance. Compaction waits while emissions are
    /// undrained, so a crash re-offers exactly those from the WAL tail
    /// and the sequence resumes after the last one recorded.
    #[test]
    fn outbox_resumes_sequence_numbers_across_restarts() {
        use crate::platform::{Platform, Upload};
        use lodify_durability::{DurabilityOptions, GroupCommitPolicy};
        use lodify_relational::WorkloadConfig;

        let disk = MemStorage::new();
        let options = DurabilityOptions {
            group_commit: GroupCommitPolicy::batched(64),
            snapshot_every_records: None,
        };
        let boot = || {
            let storage = Box::new(disk.clone());
            Platform::bootstrap_durable(WorkloadConfig::small(7), storage, options)
                .unwrap()
                .0
        };
        let origin = acct("acct:oscar@node1.example");
        let seqs = |emissions: &[Emission]| emissions.iter().map(|e| e.seq).collect::<Vec<_>>();
        let mut p = boot();
        assert_eq!(p.enable_emissions(origin.clone()), 0);
        let seed = p.picture_ids()[0];

        // Emission 1 is drained, and compaction folds it away.
        p.upload(Upload {
            user_id: 1,
            title: "Tramonto alla Mole".into(),
            tags: vec!["torino".into()],
            ts: 1_320_500_000,
            gps: None,
            poi: None,
        })
        .unwrap();
        let first = p.drain_emissions();
        assert_eq!(seqs(&first), vec![1]);
        assert!(
            first[0].trace.is_some(),
            "the upload's trace context rides along"
        );
        p.snapshot_store().unwrap();
        let generation = p.durability().unwrap().generation;

        // Emissions 2 and 3 stay undrained: compaction waits for them.
        p.rate(seed, 2, 4).unwrap();
        p.annotate_legacy(seed).unwrap();
        p.flush_store().unwrap();
        p.snapshot_store().unwrap();
        assert_eq!(p.durability().unwrap().generation, generation);
        assert_eq!(p.outbox().unwrap().lag(), 2);

        // Crash and recover: the WAL tail re-offers both, and the
        // sequence resumes at 4.
        drop(p);
        disk.crash();
        let mut p = boot();
        assert_eq!(p.enable_emissions(origin.clone()), 2);
        assert_eq!(p.outbox().unwrap().len(), 3);
        p.snapshot_store().unwrap();
        assert_eq!(p.durability().unwrap().generation, generation, "still held");
        p.rate(seed, 3, 5).unwrap();
        let reoffered = p.drain_emissions();
        assert_eq!(seqs(&reoffered), vec![2, 3, 4]);
        assert!(reoffered.iter().all(|e| e.origin == origin));
        assert!(!reoffered[0].removals.is_empty() && !reoffered[1].additions.is_empty());

        // Drained: compaction proceeds.
        p.snapshot_store().unwrap();
        assert_eq!(p.durability().unwrap().generation, generation + 1);
    }

    #[test]
    fn replicated_emissions_maintain_replica_live_albums() {
        use crate::albums::AlbumSpec;
        use lodify_rdf::{ns, Literal};

        let (mut fed, mut repl, oscar, _, _) = two_node_mesh();

        // Replica-local reference data: the Mole anchors a Q1 album
        // registered against *node2*, the receiving side of the link.
        let gaz = lodify_context::Gazetteer::global();
        let mole = gaz.poi("Mole_Antonelliana").unwrap().point(gaz);
        let monument = "http://dbpedia.org/resource/Mole_Antonelliana";
        {
            let store = fed.node_mut(1).unwrap().store_mut();
            let g = store.default_graph();
            store.insert(
                &Triple::spo(
                    monument,
                    ns::iri::rdfs_label().as_str(),
                    Term::Literal(Literal::lang("Mole Antonelliana", "it").unwrap()),
                ),
                g,
            );
            store.insert(
                &Triple::spo(
                    monument,
                    ns::iri::geo_geometry().as_str(),
                    Term::Literal(mole.to_literal()),
                ),
                g,
            );
        }
        let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0);
        let (album, sub) = fed.live_subscribe(0, 1, &spec).unwrap();
        assert!(fed.live_links(1, album).is_empty());

        // An emission carrying a geolocated picture lands on the
        // replica: `apply_one` feeds the live engine the exact delta
        // it absorbed, so the standing album updates without ever
        // re-running its SPARQL on the replica.
        let pic = "http://node1.example/media/77";
        let geometry = Triple::spo(
            pic,
            ns::iri::geo_geometry().as_str(),
            Term::Literal(mole.offset_km(0.05, 0.0).to_literal()),
        );
        let additions = vec![
            Triple::spo(
                pic,
                ns::iri::rdf_type().as_str(),
                Term::Iri(ns::iri::microblog_post()),
            ),
            geometry.clone(),
            Triple::spo(
                pic,
                ns::iri::image_data().as_str(),
                Term::literal("http://node1.example/raw/77.jpg"),
            ),
        ]
        .into_iter()
        .map(|triple| EmissionQuad {
            triple,
            graph: None,
        })
        .collect();
        let emission = Emission {
            origin: oscar.clone(),
            seq: 1,
            epoch: 1,
            album: None,
            additions,
            removals: Vec::new(),
            trace: None,
        };
        repl.deliver(&mut fed, 0, emission).unwrap();
        let expected = spec.execute(fed.node(1).unwrap().store()).unwrap();
        assert_eq!(expected, ["http://node1.example/raw/77.jpg"]);
        assert_eq!(fed.live_links(1, album), expected);
        assert_eq!(fed.live_subscriber(1, sub).unwrap().links(), expected);

        // A later emission retracting the geometry retracts the
        // member on the replica's live album too.
        let retraction = Emission {
            origin: oscar,
            seq: 2,
            epoch: 2,
            album: None,
            additions: Vec::new(),
            removals: vec![geometry],
            trace: None,
        };
        repl.deliver(&mut fed, 0, retraction).unwrap();
        assert!(fed.live_links(1, album).is_empty());
        assert!(fed.live_subscriber(1, sub).unwrap().links().is_empty());
        assert!(fed.live_hub(1).unwrap().converged());
    }
}
