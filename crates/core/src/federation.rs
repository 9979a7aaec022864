//! The federated architecture of §6 — the paper's future work, built.
//!
//! "We envision a federation of interconnected social networks and web
//! applications, each one hosted right inside the end-users' home
//! network devices." The components §6 enumerates are simulated
//! in-process, deterministically:
//!
//! * **home network device** → [`Node`]: one store + FOAF profiles +
//!   media per household;
//! * **WebFinger** → [`Acct`]/directory: `acct:user@host` identities
//!   resolved across nodes ("identification of users across different
//!   social networks and the identity validation");
//! * **FOAF profile sharing** → [`Node::profile_document`] /
//!   [`Node::import_profile`];
//! * **PubSubHubbub** → [`Federation::subscribe`] + topic fan-out with
//!   near-instant notifications;
//! * **SparqlPuSH** → [`Federation::sparql_subscribe`]: a SPARQL query
//!   registered against a publisher node; on updates the query re-runs
//!   and *new* rows are pushed;
//! * **ActivityStreams** → [`Activity`]/[`Timeline`] per node, merged
//!   across subscriptions;
//! * **Salmon** → [`Federation::reply`]: comments swim upstream to the
//!   node owning the original content.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::Arc;

use lodify_obs::{Metrics, SharedClock, TraceContext, WallClock};
use lodify_rdf::{ns, Iri, Literal, Term, Triple};
use lodify_resilience::{link, FaultPlan, Link, ReplayReport, RetryPolicy, Telemetry};
use lodify_store::Store;

use crate::albums::AlbumSpec;
use crate::error::PlatformError;
use crate::live::{LiveAlbumId, PushHub, StandingQueryEngine, SubscriberAlbum, SubscriberId};
use crate::metrics::LivePushOps;

/// A WebFinger-style account identifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Acct {
    /// Local user name.
    pub user: String,
    /// Hosting node (domain).
    pub host: String,
}

impl Acct {
    /// Parses `acct:user@host`.
    ///
    /// Both parts must be non-empty and free of whitespace, embedded
    /// `@`/`:`, and `/` (these characters would corrupt the IRIs minted
    /// from the account). The host is lowercased — DNS names are
    /// case-insensitive, so `acct:Oscar@Node1.example` and
    /// `acct:Oscar@node1.example` resolve to the same account on every
    /// node.
    pub fn parse(text: &str) -> Option<Acct> {
        let rest = text.strip_prefix("acct:")?;
        let (user, host) = rest.split_once('@')?;
        if user.is_empty() || host.is_empty() {
            return None;
        }
        let clean = |s: &str| {
            !s.chars()
                .any(|c| c.is_whitespace() || matches!(c, '@' | ':' | '/'))
        };
        if !clean(user) || !clean(host) {
            return None;
        }
        Some(Acct {
            user: user.to_string(),
            host: host.to_ascii_lowercase(),
        })
    }

    /// The profile IRI this account's node mints.
    pub fn profile_iri(&self) -> Iri {
        Iri::new_unchecked(format!("http://{}/people/{}", self.host, self.user))
    }
}

impl fmt::Display for Acct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acct:{}@{}", self.user, self.host)
    }
}

/// ActivityStreams verbs used by the federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// New media published.
    Post,
    /// Salmon reply/comment.
    Comment,
    /// New follow edge.
    Follow,
}

/// One ActivityStreams entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Activity {
    /// Acting account.
    pub actor: Acct,
    /// Verb.
    pub verb: Verb,
    /// Object IRI (media item, profile, …).
    pub object: Iri,
    /// Human-readable summary.
    pub summary: String,
    /// Timestamp (Unix seconds; supplied by callers, never wall clock).
    pub ts: i64,
}

/// A per-node activity timeline, newest last.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    entries: Vec<Activity>,
}

impl Timeline {
    /// Appends an activity keeping timestamp order (stable for ties).
    pub fn push(&mut self, activity: Activity) {
        let idx = self.entries.partition_point(|a| a.ts <= activity.ts);
        self.entries.insert(idx, activity);
    }

    /// All entries, oldest first.
    pub fn entries(&self) -> &[Activity] {
        &self.entries
    }
}

/// One journaled content mutation on a node's store — the unit the
/// replication layer packages into emissions. Only *content* (media,
/// comments, retractions) is journaled; profile documents travel via
/// the dedicated FOAF sharing flow instead.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NodeOp {
    /// A triple inserted into the node's default graph.
    Insert(Triple),
    /// A triple removed from the node's default graph.
    Remove(Triple),
}

/// A home-network node: "a generic NAS server attached to the user's
/// home network … it will run the platform, store and stream users'
/// content".
#[derive(Debug)]
pub struct Node {
    host: String,
    store: Store,
    users: Vec<Acct>,
    timeline: Timeline,
    next_media: u64,
    /// Content mutations since the last replication commit.
    ops: Vec<NodeOp>,
}

impl Node {
    fn new(host: &str) -> Node {
        Node {
            host: host.to_string(),
            store: Store::new(),
            users: Vec::new(),
            timeline: Timeline::default(),
            next_media: 1,
            ops: Vec::new(),
        }
    }

    /// The node's host name.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The node's local RDF store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The node's merged timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Local accounts.
    pub fn users(&self) -> &[Acct] {
        &self.users
    }

    fn add_user(&mut self, user: &str, full_name: &str) -> Acct {
        let acct = Acct {
            user: user.to_string(),
            host: self.host.clone(),
        };
        let profile = Term::Iri(acct.profile_iri());
        let g = self.store.default_graph();
        self.store.insert(
            &Triple::new_unchecked(
                profile.clone(),
                ns::iri::rdf_type(),
                Term::Iri(ns::FOAF.iri("Person")),
            ),
            g,
        );
        self.store.insert(
            &Triple::new_unchecked(
                profile.clone(),
                ns::iri::foaf_name(),
                Term::Literal(Literal::simple(user)),
            ),
            g,
        );
        self.store.insert(
            &Triple::new_unchecked(
                profile,
                ns::FOAF.iri("fullName"),
                Term::Literal(Literal::simple(full_name)),
            ),
            g,
        );
        self.users.push(acct.clone());
        acct
    }

    /// Exports a user's FOAF profile for cross-node sharing.
    pub fn profile_document(&self, acct: &Acct) -> Vec<Triple> {
        let subject = Term::Iri(acct.profile_iri());
        self.store.match_terms(Some(&subject), None, None)
    }

    /// Imports a remote profile document ("Profile data sharing and
    /// relationships with another networks, implemented with FOAF").
    pub fn import_profile(&mut self, triples: &[Triple]) -> usize {
        let g = self.store.default_graph();
        self.store.insert_all(triples, g)
    }

    /// Inserts a *content* triple into the default graph and journals
    /// it for the replication layer.
    fn insert_content(&mut self, triple: Triple) {
        let g = self.store.default_graph();
        if self.store.insert(&triple, g) {
            self.ops.push(NodeOp::Insert(triple));
        }
    }

    /// Removes a content triple, journaling the removal.
    fn remove_content(&mut self, triple: Triple) -> bool {
        if self.store.remove(&triple) {
            self.ops.push(NodeOp::Remove(triple));
            true
        } else {
            false
        }
    }

    /// Drains the content mutations accumulated since the last call —
    /// the payload of the next emission.
    pub(crate) fn drain_ops(&mut self) -> Vec<NodeOp> {
        std::mem::take(&mut self.ops)
    }

    /// Ops journaled so far (a cursor for [`Node::ops_delta`]).
    pub(crate) fn ops_len(&self) -> usize {
        self.ops.len()
    }

    /// The `(additions, removals)` journaled since `from` — a
    /// non-consuming view of the delta a mutation just produced, fed
    /// to the live standing-query engines without disturbing the
    /// replication drain.
    pub(crate) fn ops_delta(&self, from: usize) -> (Vec<Triple>, Vec<Triple>) {
        let mut additions = Vec::new();
        let mut removals = Vec::new();
        for op in &self.ops[from.min(self.ops.len())..] {
            match op {
                NodeOp::Insert(t) => additions.push(t.clone()),
                NodeOp::Remove(t) => removals.push(t.clone()),
            }
        }
        (additions, removals)
    }

    /// Mutable store access for the replication layer. Remote applies
    /// go straight to the store and are *not* journaled as local ops,
    /// so replicated content never echoes back to its origin.
    pub(crate) fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    fn publish_media(&mut self, acct: &Acct, title: &str, ts: i64) -> Iri {
        let iri = Iri::new_unchecked(format!("http://{}/media/{}", self.host, self.next_media));
        self.next_media += 1;
        let subject = Term::Iri(iri.clone());
        self.insert_content(Triple::new_unchecked(
            subject.clone(),
            ns::iri::rdf_type(),
            Term::Iri(ns::iri::microblog_post()),
        ));
        self.insert_content(Triple::new_unchecked(
            subject.clone(),
            ns::iri::rdfs_label(),
            Term::Literal(Literal::simple(title)),
        ));
        self.insert_content(Triple::new_unchecked(
            subject.clone(),
            ns::iri::foaf_maker(),
            Term::Iri(acct.profile_iri()),
        ));
        self.insert_content(Triple::new_unchecked(
            subject,
            ns::DCTERMS.iri("created"),
            Term::Literal(Literal::integer(ts)),
        ));
        iri
    }

    fn add_comment(&mut self, target: &Iri, author: &Acct, text: &str, ts: i64) -> Iri {
        let iri = Iri::new_unchecked(format!(
            "http://{}/comments/{}-{}",
            self.host, self.next_media, ts
        ));
        self.next_media += 1;
        let subject = Term::Iri(iri.clone());
        self.insert_content(Triple::new_unchecked(
            subject.clone(),
            ns::SIOC.iri("reply_of"),
            Term::Iri(target.clone()),
        ));
        self.insert_content(Triple::new_unchecked(
            subject.clone(),
            ns::SIOC.iri("content"),
            Term::Literal(Literal::simple(text)),
        ));
        self.insert_content(Triple::new_unchecked(
            subject,
            ns::iri::foaf_maker(),
            Term::Iri(author.profile_iri()),
        ));
        iri
    }
}

// ---------------------------------------------------------------------
// §6.3 home devices: UPnP media server + photo frame, and §6.2 OEmbed
// ---------------------------------------------------------------------

/// A media entry as browsed over UPnP.
#[derive(Debug, Clone, PartialEq)]
pub struct MediaEntry {
    /// The media resource IRI.
    pub iri: Iri,
    /// Title.
    pub title: String,
    /// Publication timestamp.
    pub ts: i64,
}

/// A playback stream handed to a UPnP device.
#[derive(Debug, Clone, PartialEq)]
pub struct MediaStream {
    /// Stream URL (the media IRI, served by the node).
    pub url: String,
    /// MIME type.
    pub mime: &'static str,
}

/// An OEmbed-style embed descriptor (§6.2: "Multimedia content
/// sharing, accomplished by using OEmbed").
#[derive(Debug, Clone, PartialEq)]
pub struct OEmbed {
    /// Embed type (always `photo` here).
    pub kind: &'static str,
    /// Media title.
    pub title: String,
    /// Direct media URL.
    pub url: String,
    /// Provider (the node host).
    pub provider: String,
    /// Author profile IRI.
    pub author: Option<String>,
}

impl Node {
    /// UPnP browse: the node's media entries, newest first — what a
    /// "UPnP-compatible photoframe" iterates for its slideshow (§6.3).
    pub fn browse_media(&self) -> Vec<MediaEntry> {
        let type_pred = ns::iri::rdf_type();
        let post = Term::Iri(ns::iri::microblog_post());
        let mut entries: Vec<MediaEntry> = self
            .store
            .match_terms(None, Some(&type_pred), Some(&post))
            .into_iter()
            .filter_map(|t| {
                let iri = t.subject.as_iri()?.clone();
                let subject = t.subject;
                let title = self
                    .store
                    .match_terms(Some(&subject), Some(&ns::iri::rdfs_label()), None)
                    .into_iter()
                    .next()
                    .map(|t| t.object.lexical().to_string())?;
                let ts = self
                    .store
                    .match_terms(Some(&subject), Some(&ns::DCTERMS.iri("created")), None)
                    .into_iter()
                    .next()
                    .and_then(|t| t.object.as_literal()?.as_i64())?;
                Some(MediaEntry { iri, title, ts })
            })
            .collect();
        entries.sort_by(|a, b| b.ts.cmp(&a.ts).then(a.iri.cmp(&b.iri)));
        entries
    }

    /// UPnP playback request: a device asks for a file to render.
    pub fn request_playback(&self, media: &Iri) -> Result<MediaStream, PlatformError> {
        let subject = Term::Iri(media.clone());
        let exists = !self
            .store
            .match_terms(Some(&subject), Some(&ns::iri::rdf_type()), None)
            .is_empty();
        if !exists {
            return Err(PlatformError::NotFound(format!("media {media}")));
        }
        Ok(MediaStream {
            url: media.as_str().to_string(),
            mime: "image/jpeg",
        })
    }

    /// OEmbed endpoint: embed descriptor for a media IRI (§6.2).
    pub fn oembed(&self, media: &Iri) -> Result<OEmbed, PlatformError> {
        let subject = Term::Iri(media.clone());
        let title = self
            .store
            .match_terms(Some(&subject), Some(&ns::iri::rdfs_label()), None)
            .into_iter()
            .next()
            .map(|t| t.object.lexical().to_string())
            .ok_or_else(|| PlatformError::NotFound(format!("media {media}")))?;
        let author = self
            .store
            .match_terms(Some(&subject), Some(&ns::iri::foaf_maker()), None)
            .into_iter()
            .next()
            .map(|t| t.object.lexical().to_string());
        Ok(OEmbed {
            kind: "photo",
            title,
            url: media.as_str().to_string(),
            provider: self.host.clone(),
            author,
        })
    }
}

/// The §6.3 photo frame: a UPnP device showing "a real-time slideshow
/// of the media content that a family member is taking during his
/// holidays".
#[derive(Debug, Default)]
pub struct PhotoFrame {
    shown: Vec<Iri>,
}

impl PhotoFrame {
    /// A blank frame.
    pub fn new() -> PhotoFrame {
        PhotoFrame::default()
    }

    /// One refresh cycle: browse the media server, fetch any items not
    /// yet shown (newest first), and add them to the slideshow.
    /// Returns the newly shown entries.
    pub fn refresh(&mut self, server: &Node) -> Result<Vec<MediaEntry>, PlatformError> {
        let mut new_items = Vec::new();
        for entry in server.browse_media() {
            if self.shown.contains(&entry.iri) {
                continue;
            }
            // A real frame would stream the file; we validate the
            // playback handshake.
            server.request_playback(&entry.iri)?;
            self.shown.push(entry.iri.clone());
            new_items.push(entry);
        }
        Ok(new_items)
    }

    /// Everything shown so far, in display order.
    pub fn slideshow(&self) -> &[Iri] {
        &self.shown
    }
}

/// A node identifier within a federation.
pub type NodeId = usize;

/// One delivered notification (for assertions/experiments).
#[derive(Debug, Clone, PartialEq)]
pub enum Notification {
    /// A PubSubHubbub activity delivery to a subscriber node.
    Activity {
        /// Receiving node.
        to: NodeId,
        /// The delivered activity.
        activity: Activity,
    },
    /// A SparqlPuSH delivery of new result rows.
    SparqlRows {
        /// Receiving node.
        to: NodeId,
        /// Stringified new rows.
        rows: Vec<String>,
    },
}

struct SparqlSubscription {
    publisher: NodeId,
    subscriber: NodeId,
    query: String,
    seen: HashSet<String>,
}

/// Live-album state for one publisher node: a standing-query engine
/// over the node's store plus the SparqlPuSH hub shipping its diffs.
/// Keyed per node so `LiveAlbumId` spaces stay disjoint between
/// publishers, and so replication can maintain a replica's live
/// albums independently of the origin's.
struct NodeLive {
    engine: StandingQueryEngine,
    hub: PushHub,
}

/// The federation: nodes + WebFinger directory + hub.
pub struct Federation {
    nodes: Vec<Node>,
    /// `(topic acct, subscriber node)` — PubSubHubbub subscriptions.
    subscriptions: Vec<(Acct, NodeId)>,
    sparql_subs: Vec<SparqlSubscription>,
    /// Per-publisher live albums (differential SparqlPuSH).
    live: BTreeMap<NodeId, NodeLive>,
    /// Notification delivery: one peer per node (`PeerId == NodeId`),
    /// judged under `node:<host>`; undeliverable notifications park
    /// until [`Federation::redeliver`].
    delivery: Link<Notification>,
    observability: Option<Metrics>,
    /// Clock for delivery timing — wall by default, the fault plan's
    /// virtual clock once one is installed, so latency histograms are
    /// deterministic under scripted time.
    clock: SharedClock,
}

impl Default for Federation {
    fn default() -> Self {
        Self::new()
    }
}

impl Federation {
    /// Attempt cap for a parked notification (initial failure + DLQ
    /// replays).
    pub const DELIVERY_MAX_ATTEMPTS: u32 = link::MAX_ATTEMPTS;

    /// An empty federation.
    pub fn new() -> Federation {
        Federation {
            nodes: Vec::new(),
            subscriptions: Vec::new(),
            sparql_subs: Vec::new(),
            live: BTreeMap::new(),
            delivery: Link::new("federation", "federation-delivery"),
            observability: None,
            clock: Arc::new(WallClock::new()),
        }
    }

    /// Attaches a metrics registry (typically the platform's, via
    /// `platform.obs().metrics().clone()`): successful deliveries are
    /// timed into the `federation.deliver` histogram and counted under
    /// `federation.deliveries`; failed attempts under
    /// `federation.delivery.failures`.
    pub fn set_observability(&mut self, metrics: Metrics) {
        self.observability = Some(metrics);
    }

    /// Installs fault-injected delivery: every PuSH/Salmon notification
    /// to a node is judged by `plan` under target `node:<host>` behind
    /// the node's circuit breaker, retried per `retry` (advancing the
    /// plan's virtual clock), and parked in a dead-letter queue when
    /// retries exhaust.
    pub fn with_fault_plan(&mut self, plan: FaultPlan, retry: RetryPolicy) {
        self.clock = Arc::new(plan.clock().clone());
        // Live-push hubs share the plan: their deliveries are judged
        // under `push:<subscriber host>` next to the node outages.
        for live in self.live.values_mut() {
            live.hub.with_fault_plan(plan.clone(), retry.clone());
        }
        self.delivery.with_fault_plan(plan, retry);
    }

    /// Undelivered notifications awaiting [`Federation::redeliver`].
    pub fn undelivered(&self) -> usize {
        self.delivery.depth()
    }

    /// Notifications abandoned after
    /// [`Federation::DELIVERY_MAX_ATTEMPTS`] attempts — surfaced for
    /// operators, never silently dropped.
    pub fn exhausted_deliveries(&self) -> usize {
        self.delivery.exhausted()
    }

    /// Delivery telemetry (`None` without a fault plan):
    /// `federation.delivered` / `federation.retries` /
    /// `federation.parked` / `federation.redelivered` counters and the
    /// `federation.dlq.depth` gauge.
    pub fn delivery_telemetry(&self) -> Option<&Telemetry> {
        self.delivery
            .fault_plan()
            .map(|_| self.delivery.telemetry())
    }

    /// Adds a home node. Host names must be unique.
    pub fn add_node(&mut self, host: &str) -> Result<NodeId, PlatformError> {
        if self.nodes.iter().any(|n| n.host == host) {
            return Err(PlatformError::Invalid(format!("duplicate host {host:?}")));
        }
        let id = self.delivery.add_peer(format!("node:{host}"));
        debug_assert_eq!(id, self.nodes.len(), "delivery peers mirror nodes");
        self.nodes.push(Node::new(host));
        Ok(id)
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> Result<&Node, PlatformError> {
        self.nodes
            .get(id)
            .ok_or_else(|| PlatformError::NotFound(format!("node {id}")))
    }

    /// Mutable node access for the replication layer.
    pub(crate) fn node_mut(&mut self, id: NodeId) -> Result<&mut Node, PlatformError> {
        self.nodes
            .get_mut(id)
            .ok_or_else(|| PlatformError::NotFound(format!("node {id}")))
    }

    /// The number of nodes in the federation.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the federation has no nodes yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Registers a user on a node; the account becomes WebFinger-
    /// resolvable federation-wide.
    pub fn register_user(
        &mut self,
        node: NodeId,
        user: &str,
        full_name: &str,
    ) -> Result<Acct, PlatformError> {
        let n = self
            .nodes
            .get_mut(node)
            .ok_or_else(|| PlatformError::NotFound(format!("node {node}")))?;
        if n.users.iter().any(|a| a.user == user) {
            return Err(PlatformError::Invalid(format!(
                "user {user:?} exists on {}",
                n.host
            )));
        }
        Ok(n.add_user(user, full_name))
    }

    /// WebFinger resolution: `acct:user@host` → (node, profile IRI).
    pub fn webfinger(&self, acct_uri: &str) -> Result<(NodeId, Iri), PlatformError> {
        let acct = Acct::parse(acct_uri)
            .ok_or_else(|| PlatformError::Invalid(format!("bad acct URI {acct_uri:?}")))?;
        let node = self
            .nodes
            .iter()
            .position(|n| n.host == acct.host)
            .ok_or_else(|| PlatformError::NotFound(format!("host {:?}", acct.host)))?;
        if !self.nodes[node].users.contains(&acct) {
            return Err(PlatformError::NotFound(format!("{acct}")));
        }
        Ok((node, acct.profile_iri()))
    }

    /// Follows: subscriber's user follows the topic account via the
    /// hub, imports the remote FOAF profile, and records a `foaf:knows`
    /// edge — the §6 "relationships with another networks" flow.
    pub fn subscribe(
        &mut self,
        subscriber: NodeId,
        follower: &Acct,
        topic: &Acct,
    ) -> Result<(), PlatformError> {
        let (publisher_node, _) = self.webfinger(&topic.to_string())?;
        let profile = self.nodes[publisher_node].profile_document(topic);
        let sub_node = self
            .nodes
            .get_mut(subscriber)
            .ok_or_else(|| PlatformError::NotFound(format!("node {subscriber}")))?;
        sub_node.import_profile(&profile);
        let g = sub_node.store.default_graph();
        let knows = Triple::new_unchecked(
            Term::Iri(follower.profile_iri()),
            ns::iri::foaf_knows(),
            Term::Iri(topic.profile_iri()),
        );
        sub_node.store.insert(&knows, g);
        // Profile import and the knows edge bypass the ops journal
        // (they are not content, so replication must not ship them),
        // but the subscriber's live Q2-style albums still need the
        // delta: a new friendship can pull content into a
        // friends-of album.
        let mut additions = profile;
        additions.push(knows);
        self.live_maintain(subscriber, &additions, &[], None);
        if !self
            .subscriptions
            .iter()
            .any(|(t, s)| t == topic && *s == subscriber)
        {
            self.subscriptions.push((topic.clone(), subscriber));
        }
        Ok(())
    }

    /// SparqlPuSH: registers a SPARQL query against a publisher node;
    /// future publishes re-run it and push only *new* rows.
    pub fn sparql_subscribe(
        &mut self,
        subscriber: NodeId,
        publisher: NodeId,
        query: &str,
    ) -> Result<(), PlatformError> {
        // Validate the query and seed the seen-set with current rows.
        let results = lodify_sparql::execute(&self.node(publisher)?.store, query)?;
        let seen = results.rows.iter().map(|row| format!("{row:?}")).collect();
        self.sparql_subs.push(SparqlSubscription {
            publisher,
            subscriber,
            query: query.to_string(),
            seen,
        });
        Ok(())
    }

    /// Differential SparqlPuSH (ROADMAP item 4): registers `spec` as a
    /// standing query over `publisher`'s store and subscribes
    /// `subscriber`'s host to the resulting [`crate::live::AlbumDiff`]
    /// stream. Unlike [`Federation::sparql_subscribe`], which re-runs
    /// the whole query on every publish and pushes stringified new
    /// rows, this ships exact membership diffs maintained in O(delta).
    /// Deliveries are judged by the installed fault plan under target
    /// `push:<subscriber host>`.
    pub fn live_subscribe(
        &mut self,
        subscriber: NodeId,
        publisher: NodeId,
        spec: &AlbumSpec,
    ) -> Result<(LiveAlbumId, SubscriberId), PlatformError> {
        self.node(publisher)?;
        let callback = self.node(subscriber)?.host.clone();
        if !self.live.contains_key(&publisher) {
            let mut hub = PushHub::new();
            if let Some((plan, retry)) = self.delivery.fault_plan() {
                hub.with_fault_plan(plan.clone(), retry.clone());
            }
            self.live.insert(
                publisher,
                NodeLive {
                    engine: StandingQueryEngine::new(),
                    hub,
                },
            );
        }
        let Federation { nodes, live, .. } = self;
        let entry = live.get_mut(&publisher).expect("inserted above");
        let album = entry.engine.register(&nodes[publisher].store, spec);
        let sub = entry.hub.subscribe(&callback, album, &entry.engine);
        entry.hub.pump();
        Ok((album, sub))
    }

    /// Feeds a committed delta on `node`'s store to its standing-query
    /// engine and ships the resulting diffs. Called after every content
    /// mutation — local publishes/retractions/replies, follow-driven
    /// profile imports, and replication applying a peer's emission to a
    /// replica — so live albums stay maintained on replicas too.
    pub(crate) fn live_maintain(
        &mut self,
        node: NodeId,
        additions: &[Triple],
        removals: &[Triple],
        trace: Option<TraceContext>,
    ) {
        let Federation { nodes, live, .. } = self;
        let Some(entry) = live.get_mut(&node) else {
            return;
        };
        let Some(n) = nodes.get(node) else { return };
        let mut diffs = entry.engine.apply(&n.store, additions, removals);
        for diff in &mut diffs {
            diff.trace = trace;
            entry.hub.offer(diff);
        }
        if !diffs.is_empty() {
            entry.hub.pump();
        }
    }

    /// Publisher-side truth for a live album: the links the standing
    /// query currently maintains on `publisher`.
    pub fn live_links(&self, publisher: NodeId, album: LiveAlbumId) -> Vec<String> {
        self.live
            .get(&publisher)
            .map(|l| l.engine.links(album).to_vec())
            .unwrap_or_default()
    }

    /// A live subscriber's materialized album (its idempotent
    /// diff-applied state), if the subscriber is alive.
    pub fn live_subscriber(
        &self,
        publisher: NodeId,
        sub: SubscriberId,
    ) -> Option<&SubscriberAlbum> {
        self.live.get(&publisher)?.hub.subscriber(sub)
    }

    /// The push hub serving `publisher`'s live albums, if any
    /// subscription created one.
    pub fn live_hub(&self, publisher: NodeId) -> Option<&PushHub> {
        self.live.get(&publisher).map(|l| &l.hub)
    }

    /// Mutable access to `publisher`'s push hub — chaos tests use this
    /// to kill/recover subscribers mid-stream.
    pub fn live_hub_mut(&mut self, publisher: NodeId) -> Option<&mut PushHub> {
        self.live.get_mut(&publisher).map(|l| &mut l.hub)
    }

    /// Replays every live-push dead-letter queue (the `push:` analogue
    /// of [`Federation::redeliver`]), returning the merged report.
    pub fn live_redeliver(&mut self) -> ReplayReport {
        let mut total = ReplayReport::default();
        for live in self.live.values_mut() {
            let report = live.hub.redeliver();
            total.replayed += report.replayed;
            total.requeued += report.requeued;
            total.exhausted += report.exhausted;
        }
        total
    }

    /// Aggregated live-push counters across every publisher hub —
    /// counts summed, `lag` the worst hub's backlog — or `None` when no
    /// live subscription exists.
    pub fn live_push_ops(&self) -> Option<LivePushOps> {
        if self.live.is_empty() {
            return None;
        }
        let mut total = LivePushOps::default();
        for live in self.live.values() {
            let ops = live.hub.ops();
            total.subscribers += ops.subscribers;
            total.delivered += ops.delivered;
            total.parked += ops.parked;
            total.redelivered += ops.redelivered;
            total.lag = total.lag.max(ops.lag);
            total.dlq_depth += ops.dlq_depth;
        }
        Some(total)
    }

    /// Publishes media on the author's node and fans out notifications
    /// (PubSubHubbub activities + SparqlPuSH row diffs).
    pub fn publish(
        &mut self,
        author: &Acct,
        title: &str,
        ts: i64,
    ) -> Result<(Iri, Vec<Notification>), PlatformError> {
        let (node_id, _) = self.webfinger(&author.to_string())?;
        let mark = self.nodes[node_id].ops_len();
        let media = self.nodes[node_id].publish_media(author, title, ts);
        let activity = Activity {
            actor: author.clone(),
            verb: Verb::Post,
            object: media.clone(),
            summary: title.to_string(),
            ts,
        };
        self.nodes[node_id].timeline.push(activity.clone());
        let (additions, removals) = self.nodes[node_id].ops_delta(mark);
        self.live_maintain(node_id, &additions, &removals, None);
        let notifications = self.fan_out(node_id, activity);
        Ok((media, notifications))
    }

    /// Publishes a geolocated picture — the §2.3 album shape: typed
    /// as a microblog post, labelled, attributed, dated, anchored to
    /// `point` and linked to its raw image. Every triple goes through
    /// the journaled content path, so replication ships the picture to
    /// peers and standing near-monument albums (local *or* registered
    /// against a replica) pick it up from the delta alone.
    pub fn publish_picture(
        &mut self,
        author: &Acct,
        title: &str,
        point: lodify_rdf::Point,
        ts: i64,
    ) -> Result<(Iri, Vec<Notification>), PlatformError> {
        let (node_id, _) = self.webfinger(&author.to_string())?;
        let mark = self.nodes[node_id].ops_len();
        let media = self.nodes[node_id].publish_media(author, title, ts);
        let subject = Term::Iri(media.clone());
        let raw = format!("{}.jpg", media.as_str().replace("/media/", "/raw/"));
        self.nodes[node_id].insert_content(Triple::new_unchecked(
            subject.clone(),
            ns::iri::geo_geometry(),
            Term::Literal(point.to_literal()),
        ));
        self.nodes[node_id].insert_content(Triple::new_unchecked(
            subject,
            ns::iri::image_data(),
            Term::literal(raw),
        ));
        let activity = Activity {
            actor: author.clone(),
            verb: Verb::Post,
            object: media.clone(),
            summary: title.to_string(),
            ts,
        };
        self.nodes[node_id].timeline.push(activity.clone());
        let (additions, removals) = self.nodes[node_id].ops_delta(mark);
        self.live_maintain(node_id, &additions, &removals, None);
        let notifications = self.fan_out(node_id, activity);
        Ok((media, notifications))
    }

    /// Imports node-local reference data — LOD anchors such as DBpedia
    /// monuments with their labels and geometries. Reference data is
    /// not user content: it bypasses the content journal, so it never
    /// replicates to peers and never perturbs standing-query deltas —
    /// the same way the enrichment pipeline lands gazetteer context.
    /// Returns how many triples were newly inserted.
    pub fn import_reference(
        &mut self,
        node: NodeId,
        triples: &[Triple],
    ) -> Result<usize, PlatformError> {
        let store = self.node_mut(node)?.store_mut();
        let graph = store.default_graph();
        let before = store.len();
        for triple in triples {
            store.insert(triple, graph);
        }
        Ok(store.len() - before)
    }

    /// Retracts previously published media: every triple whose subject
    /// is `media` is removed from the owning node's store, and the
    /// removals are journaled so replication ships them to peers (a
    /// "delete propagates" emission). Returns the number of triples
    /// removed.
    pub fn retract(&mut self, author: &Acct, media: &Iri) -> Result<usize, PlatformError> {
        let (node_id, _) = self.webfinger(&author.to_string())?;
        let node = &mut self.nodes[node_id];
        if !media
            .as_str()
            .starts_with(&format!("http://{}/", node.host))
        {
            return Err(PlatformError::Invalid(format!(
                "{} does not own {media}",
                node.host
            )));
        }
        let subject = Term::Iri(media.clone());
        let triples = node.store.match_terms(Some(&subject), None, None);
        if triples.is_empty() {
            return Err(PlatformError::NotFound(format!("media {media}")));
        }
        let mark = node.ops_len();
        let mut removed = 0;
        for triple in triples {
            if node.remove_content(triple) {
                removed += 1;
            }
        }
        let (additions, removals) = self.nodes[node_id].ops_delta(mark);
        self.live_maintain(node_id, &additions, &removals, None);
        Ok(removed)
    }

    /// Salmon: a reply posted anywhere swims upstream to the node that
    /// owns the target content.
    pub fn reply(
        &mut self,
        author: &Acct,
        target: &Iri,
        text: &str,
        ts: i64,
    ) -> Result<Vec<Notification>, PlatformError> {
        let owner = self
            .nodes
            .iter()
            .position(|n| target.as_str().starts_with(&format!("http://{}/", n.host)))
            .ok_or_else(|| PlatformError::NotFound(format!("no node owns {target}")))?;
        let mark = self.nodes[owner].ops_len();
        let comment = self.nodes[owner].add_comment(target, author, text, ts);
        let activity = Activity {
            actor: author.clone(),
            verb: Verb::Comment,
            object: comment,
            summary: text.to_string(),
            ts,
        };
        self.nodes[owner].timeline.push(activity.clone());
        let (additions, removals) = self.nodes[owner].ops_delta(mark);
        self.live_maintain(owner, &additions, &removals, None);
        Ok(self.fan_out(owner, activity))
    }

    fn fan_out(&mut self, publisher: NodeId, activity: Activity) -> Vec<Notification> {
        let mut outbox = Vec::new();
        // PubSubHubbub: everyone subscribed to the actor's topic.
        let receivers: Vec<NodeId> = self
            .subscriptions
            .iter()
            .filter(|(topic, _)| *topic == activity.actor)
            .map(|(_, node)| *node)
            .collect();
        for to in receivers {
            outbox.push(Notification::Activity {
                to,
                activity: activity.clone(),
            });
        }
        // SparqlPuSH: re-run subscriptions against the publisher store.
        for sub in &mut self.sparql_subs {
            if sub.publisher != publisher {
                continue;
            }
            let Ok(results) = lodify_sparql::execute(&self.nodes[publisher].store, &sub.query)
            else {
                continue;
            };
            let mut new_rows = Vec::new();
            for row in &results.rows {
                let key = format!("{row:?}");
                if sub.seen.insert(key) {
                    let rendered: Vec<String> = row
                        .iter()
                        .map(|c| c.as_ref().map(|t| t.to_string()).unwrap_or_default())
                        .collect();
                    new_rows.push(rendered.join(" | "));
                }
            }
            if !new_rows.is_empty() {
                outbox.push(Notification::SparqlRows {
                    to: sub.subscriber,
                    rows: new_rows,
                });
            }
        }

        // Delivery. Without a fault plan every notification lands
        // directly (the original behaviour); with one, each delivery is
        // judged + retried, and undeliverable notifications are parked
        // instead of lost.
        let mut delivered = Vec::new();
        for notification in outbox {
            match self.try_deliver(&notification) {
                Ok(()) => delivered.push(notification),
                Err(error) => self.delivery.park(notification, error),
            }
        }
        delivered
    }

    /// Attempts one notification delivery — a first try and a replay
    /// alike: judged by the delivery link (breaker, then the fault plan
    /// under retry), timed into the `federation.deliver` histogram.
    /// Success applies the node-side effect.
    fn try_deliver(&mut self, notification: &Notification) -> Result<(), String> {
        let start = self.clock.now_micros();
        let (Notification::Activity { to, .. } | Notification::SparqlRows { to, .. }) =
            notification;
        let result = self.delivery.attempt(*to);
        if result.is_ok() {
            self.delivery.telemetry().incr("federation.delivered");
            // The node-side effect is the subscriber's merged timeline;
            // SparqlPuSH rows carry their payload in the notification.
            if let Notification::Activity { activity, .. } = notification {
                self.nodes[*to].timeline.push(activity.clone());
            }
        }
        if let Some(metrics) = &self.observability {
            match &result {
                Ok(()) => {
                    let elapsed = self.clock.now_micros().saturating_sub(start);
                    metrics.observe("federation.deliver", elapsed);
                    metrics.incr("federation.deliveries");
                }
                Err(_) => metrics.incr("federation.delivery.failures"),
            }
        }
        result
    }

    /// Replays the delivery dead-letter queue: notifications whose node
    /// is reachable again land now (with their node-side effects);
    /// still-unreachable ones stay parked until
    /// [`Federation::DELIVERY_MAX_ATTEMPTS`] exhausts them. Returns the
    /// notifications delivered by this pass plus the replay report.
    pub fn redeliver(&mut self) -> (Vec<Notification>, ReplayReport) {
        let mut landed = Vec::new();
        let report = Link::replay(
            self,
            |fed| &mut fed.delivery,
            |fed, notification| {
                fed.try_deliver(notification)?;
                landed.push(notification.clone());
                Ok(())
            },
        );
        (landed, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_federation() -> (Federation, Acct, Acct) {
        let mut fed = Federation::new();
        let home1 = fed.add_node("node1.example").unwrap();
        let home2 = fed.add_node("node2.example").unwrap();
        let oscar = fed
            .register_user(home1, "oscar", "Oscar Rodriguez")
            .unwrap();
        let walter = fed.register_user(home2, "walter", "Walter Goix").unwrap();
        (fed, oscar, walter)
    }

    #[test]
    fn acct_parsing_and_display() {
        let acct = Acct::parse("acct:oscar@node1.example").unwrap();
        assert_eq!(acct.user, "oscar");
        assert_eq!(acct.to_string(), "acct:oscar@node1.example");
        assert!(Acct::parse("oscar@node1").is_none());
        assert!(Acct::parse("acct:@host").is_none());
        assert!(Acct::parse("acct:user@").is_none());
    }

    #[test]
    fn acct_parse_rejects_whitespace_and_embedded_separators() {
        for bad in [
            "acct: oscar@node1.example",
            "acct:oscar @node1.example",
            "acct:oscar@node1 .example",
            "acct:oscar@node1.example ",
            "acct:os car@node1.example",
            "acct:oscar@node1.example\t",
            "acct:oscar@node1\n.example",
            "acct:oscar@node1@node2.example",
            "acct:os@car@node1.example",
            "acct:oscar:8080@node1.example",
            "acct:oscar@node1.example:8080",
            "acct:oscar@node1.example/path",
            "acct:os/car@node1.example",
        ] {
            assert!(Acct::parse(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn acct_parse_normalizes_host_case() {
        let mixed = Acct::parse("acct:Oscar@Node1.EXAMPLE").unwrap();
        assert_eq!(mixed.user, "Oscar", "user part stays case-sensitive");
        assert_eq!(mixed.host, "node1.example");
        assert_eq!(mixed.to_string(), "acct:Oscar@node1.example");
        // The same account written with different host casing is one
        // identity (hash + equality).
        let lower = Acct::parse("acct:Oscar@node1.example").unwrap();
        assert_eq!(mixed, lower);
    }

    #[test]
    fn webfinger_resolves_mixed_case_hosts() {
        let (fed, _, walter) = two_node_federation();
        let (node, profile) = fed.webfinger("acct:walter@Node2.EXAMPLE").unwrap();
        assert_eq!(node, 1);
        assert_eq!(profile, walter.profile_iri());
    }

    #[test]
    fn webfinger_resolves_across_nodes() {
        let (fed, _, walter) = two_node_federation();
        let (node, profile) = fed.webfinger("acct:walter@node2.example").unwrap();
        assert_eq!(node, 1);
        assert_eq!(profile, walter.profile_iri());
        assert!(fed.webfinger("acct:ghost@node2.example").is_err());
        assert!(fed.webfinger("acct:oscar@nowhere.example").is_err());
        assert!(fed.webfinger("not-an-acct").is_err());
    }

    #[test]
    fn subscribe_imports_foaf_profile_and_knows_edge() {
        let (mut fed, oscar, walter) = two_node_federation();
        fed.subscribe(0, &oscar, &walter).unwrap();
        let node1 = fed.node(0).unwrap();
        // Walter's imported profile is queryable on oscar's node.
        let results = lodify_sparql::execute(
            node1.store(),
            "SELECT ?p WHERE { ?p foaf:name \"walter\" . }",
        )
        .unwrap();
        assert_eq!(results.len(), 1);
        let knows = lodify_sparql::execute(
            node1.store(),
            &format!(
                "SELECT ?x WHERE {{ <{}> foaf:knows ?x . }}",
                oscar.profile_iri().as_str()
            ),
        )
        .unwrap();
        assert_eq!(
            knows.column("x")[0].lexical(),
            walter.profile_iri().as_str()
        );
    }

    #[test]
    fn publish_fans_out_to_subscribers_timelines() {
        let (mut fed, oscar, walter) = two_node_federation();
        fed.subscribe(0, &oscar, &walter).unwrap();
        let (media, notifications) = fed.publish(&walter, "Sunset from home", 1000).unwrap();
        assert!(media.as_str().starts_with("http://node2.example/media/"));
        assert_eq!(notifications.len(), 1);
        assert!(matches!(
            &notifications[0],
            Notification::Activity { to: 0, .. }
        ));
        // Both timelines carry the activity.
        assert_eq!(fed.node(0).unwrap().timeline().entries().len(), 1);
        assert_eq!(fed.node(1).unwrap().timeline().entries().len(), 1);
    }

    #[test]
    fn unsubscribed_nodes_get_nothing() {
        let (mut fed, _, walter) = two_node_federation();
        let (_, notifications) = fed.publish(&walter, "quiet post", 1).unwrap();
        assert!(notifications.is_empty());
        assert!(fed.node(0).unwrap().timeline().entries().is_empty());
    }

    #[test]
    fn sparqlpush_delivers_only_new_rows() {
        let (mut fed, _, walter) = two_node_federation();
        fed.publish(&walter, "before subscription", 1).unwrap();
        fed.sparql_subscribe(
            0,
            1,
            "SELECT ?m ?t WHERE { ?m a sioct:MicroblogPost . ?m rdfs:label ?t . }",
        )
        .unwrap();
        // Existing rows are seeded, not delivered.
        let (_, n1) = fed.publish(&walter, "first push", 2).unwrap();
        let rows: Vec<&Notification> = n1
            .iter()
            .filter(|n| matches!(n, Notification::SparqlRows { .. }))
            .collect();
        assert_eq!(rows.len(), 1);
        if let Notification::SparqlRows { to, rows } = rows[0] {
            assert_eq!(*to, 0);
            assert_eq!(rows.len(), 1);
            assert!(rows[0].contains("first push"));
        }
        // Re-publishing pushes only the newest row again.
        let (_, n2) = fed.publish(&walter, "second push", 3).unwrap();
        let pushed: Vec<&Notification> = n2
            .iter()
            .filter(|n| matches!(n, Notification::SparqlRows { .. }))
            .collect();
        if let Notification::SparqlRows { rows, .. } = pushed[0] {
            assert_eq!(rows.len(), 1);
            assert!(rows[0].contains("second push"));
        }
    }

    #[test]
    fn salmon_reply_lands_on_owning_node() {
        let (mut fed, oscar, walter) = two_node_federation();
        let (media, _) = fed.publish(&walter, "commentable", 10).unwrap();
        // Oscar (node1) replies to Walter's media (node2): the comment
        // must live on node2.
        fed.reply(&oscar, &media, "bella!", 11).unwrap();
        let results = lodify_sparql::execute(
            fed.node(1).unwrap().store(),
            &format!(
                "SELECT ?c WHERE {{ ?c sioc:reply_of <{}> . }}",
                media.as_str()
            ),
        )
        .unwrap();
        assert_eq!(results.len(), 1);
        // Timeline ordering is by timestamp.
        let entries = fed.node(1).unwrap().timeline().entries();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].ts <= entries[1].ts);
        assert_eq!(entries[1].verb, Verb::Comment);
    }

    #[test]
    fn photo_frame_slideshow_tracks_new_media() {
        // §6.3: "a UPnP-compatible photoframe displaying a real-time
        // slideshow of the media content that a family member is
        // taking during his holidays".
        let (mut fed, _, walter) = two_node_federation();
        let mut frame = PhotoFrame::new();

        fed.publish(&walter, "day one", 1).unwrap();
        fed.publish(&walter, "day two", 2).unwrap();
        let shown = frame.refresh(fed.node(1).unwrap()).unwrap();
        assert_eq!(shown.len(), 2);
        assert_eq!(shown[0].title, "day two", "newest first");

        // Nothing new → nothing shown again.
        assert!(frame.refresh(fed.node(1).unwrap()).unwrap().is_empty());

        fed.publish(&walter, "day three", 3).unwrap();
        let shown = frame.refresh(fed.node(1).unwrap()).unwrap();
        assert_eq!(shown.len(), 1);
        assert_eq!(frame.slideshow().len(), 3);
    }

    #[test]
    fn upnp_playback_and_browse() {
        let (mut fed, _, walter) = two_node_federation();
        let (media, _) = fed.publish(&walter, "playable", 10).unwrap();
        let node = fed.node(1).unwrap();
        let entries = node.browse_media();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].iri, media);
        let stream = node.request_playback(&media).unwrap();
        assert_eq!(stream.mime, "image/jpeg");
        assert_eq!(stream.url, media.as_str());
        let ghost = Iri::new("http://node2.example/media/999").unwrap();
        assert!(node.request_playback(&ghost).is_err());
    }

    #[test]
    fn oembed_descriptor_carries_title_provider_author() {
        let (mut fed, _, walter) = two_node_federation();
        let (media, _) = fed.publish(&walter, "embeddable sunset", 20).unwrap();
        let embed = fed.node(1).unwrap().oembed(&media).unwrap();
        assert_eq!(embed.kind, "photo");
        assert_eq!(embed.title, "embeddable sunset");
        assert_eq!(embed.provider, "node2.example");
        assert_eq!(embed.author.as_deref(), Some(walter.profile_iri().as_str()));
        let ghost = Iri::new("http://node2.example/media/999").unwrap();
        assert!(fed.node(1).unwrap().oembed(&ghost).is_err());
    }

    #[test]
    fn duplicate_hosts_and_users_rejected() {
        let mut fed = Federation::new();
        fed.add_node("same.example").unwrap();
        assert!(fed.add_node("same.example").is_err());
        fed.register_user(0, "oscar", "O").unwrap();
        assert!(fed.register_user(0, "oscar", "O2").is_err());
    }

    #[test]
    fn node_outage_parks_notifications_for_redelivery() {
        use lodify_resilience::VirtualClock;

        let (mut fed, oscar, walter) = two_node_federation();
        fed.subscribe(0, &oscar, &walter).unwrap();

        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("node:node1.example", 0, 5_000)
            .build(clock.clone());
        fed.with_fault_plan(plan, RetryPolicy::default());

        // Publishing during node1's outage: the activity stays on the
        // publisher, the subscriber notification parks in the DLQ.
        let (_, notifications) = fed.publish(&walter, "missed you", 100).unwrap();
        assert!(notifications.is_empty(), "nothing delivered while down");
        assert_eq!(fed.undelivered(), 1);
        assert!(fed.node(0).unwrap().timeline().entries().is_empty());
        assert_eq!(fed.node(1).unwrap().timeline().entries().len(), 1);
        let telemetry = fed.delivery_telemetry().unwrap();
        assert_eq!(telemetry.counter("federation.parked"), 1);
        assert!(
            telemetry.counter("federation.retries") >= 1,
            "retried first"
        );

        // Redelivery while still down re-parks, nothing lands.
        let (landed, report) = fed.redeliver();
        assert!(landed.is_empty());
        assert_eq!(report.requeued, 1);
        assert_eq!(fed.undelivered(), 1);

        // Outage ends → redelivery applies the node-side effect.
        clock.set(6_000);
        let (landed, report) = fed.redeliver();
        assert_eq!(report.replayed, 1);
        assert_eq!(landed.len(), 1);
        assert!(matches!(&landed[0], Notification::Activity { to: 0, .. }));
        assert_eq!(fed.undelivered(), 0);
        let timeline = fed.node(0).unwrap().timeline().entries();
        assert_eq!(timeline.len(), 1, "subscriber caught up");
        assert_eq!(timeline[0].summary, "missed you");
        let telemetry = fed.delivery_telemetry().unwrap();
        assert_eq!(telemetry.counter("federation.redelivered"), 1);
        assert_eq!(telemetry.gauge("federation.dlq.depth"), Some(0));
    }

    #[test]
    fn replayed_deliveries_are_retried_timed_and_counted_like_first_tries() {
        use lodify_resilience::VirtualClock;

        let (mut fed, oscar, walter) = two_node_federation();
        fed.subscribe(0, &oscar, &walter).unwrap();
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("node:node1.example", 0, 5_000)
            .build(clock.clone());
        fed.with_fault_plan(plan, RetryPolicy::default());
        let metrics = Metrics::new();
        fed.set_observability(metrics.clone());

        fed.publish(&walter, "missed you", 100).unwrap();
        assert_eq!(fed.undelivered(), 1);
        let retries = |fed: &Federation| {
            fed.delivery_telemetry()
                .unwrap()
                .counter("federation.retries")
        };
        let first_try = retries(&fed);
        assert_eq!(metrics.counter("federation.delivery.failures"), 1);

        // A replay during the outage runs the same retry policy as the
        // first try and is counted as a failed delivery.
        fed.redeliver();
        assert_eq!(retries(&fed), 2 * first_try);
        assert_eq!(metrics.counter("federation.delivery.failures"), 2);

        // The replay that lands is a delivery like any other: counted,
        // timed, and equal to what the timeline shows.
        clock.set(6_000);
        let (landed, _) = fed.redeliver();
        assert_eq!(landed.len(), 1);
        assert_eq!(fed.node(0).unwrap().timeline().entries().len(), 1);
        let telemetry = fed.delivery_telemetry().unwrap();
        assert_eq!(telemetry.counter("federation.delivered"), 1);
        assert_eq!(metrics.counter("federation.deliveries"), 1);
        assert_eq!(metrics.histogram("federation.deliver").unwrap().count(), 1);
    }

    #[test]
    fn open_breaker_refuses_first_tries_and_replays_without_touching_the_node() {
        use lodify_resilience::VirtualClock;

        let (mut fed, oscar, walter) = two_node_federation();
        fed.subscribe(0, &oscar, &walter).unwrap();
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("node:node1.example", 0, 5_000)
            .build(clock.clone());
        fed.with_fault_plan(plan.clone(), RetryPolicy::no_retry());

        // Three failed deliveries trip node1's breaker.
        for ts in 1..=3 {
            fed.publish(&walter, "down", ts).unwrap();
        }
        let calls = || plan.telemetry().counter("fault.calls.node:node1.example");
        assert_eq!(calls(), 3);

        // While it is open neither a fresh publish nor a replay reaches
        // the fault plan; everything stays parked, in publish order.
        fed.publish(&walter, "refused", 4).unwrap();
        let (landed, report) = fed.redeliver();
        assert!(landed.is_empty());
        assert_eq!(report.requeued, 4);
        assert_eq!(calls(), 3);
        let telemetry = fed.delivery_telemetry().unwrap();
        assert_eq!(telemetry.counter("federation.breaker.rejections"), 5);

        // Outage and cooldown over: the half-open probe lands and
        // closes the breaker for the rest of the pass.
        clock.set(6_000);
        let (landed, _) = fed.redeliver();
        assert_eq!(landed.len(), 4);
        let summaries: Vec<&str> = fed
            .node(0)
            .unwrap()
            .timeline()
            .entries()
            .iter()
            .map(|a| a.summary.as_str())
            .collect();
        assert_eq!(summaries, ["down", "down", "down", "refused"]);
    }

    #[test]
    fn healthy_nodes_deliver_unchanged_under_a_fault_plan() {
        use lodify_resilience::VirtualClock;

        let (mut fed, oscar, walter) = two_node_federation();
        fed.subscribe(0, &oscar, &walter).unwrap();
        let clock = VirtualClock::new();
        // A plan with no faults for either node.
        let plan = FaultPlan::builder().build(clock);
        fed.with_fault_plan(plan, RetryPolicy::no_retry());

        let (_, notifications) = fed.publish(&walter, "all clear", 1).unwrap();
        assert_eq!(notifications.len(), 1);
        assert_eq!(fed.node(0).unwrap().timeline().entries().len(), 1);
        assert_eq!(fed.undelivered(), 0);
        let telemetry = fed.delivery_telemetry().unwrap();
        assert_eq!(telemetry.counter("federation.delivered"), 1);
        assert_eq!(telemetry.counter("federation.parked"), 0);
    }

    #[test]
    fn sparql_rows_survive_parking_and_redeliver_with_payload() {
        use lodify_resilience::VirtualClock;

        let (mut fed, _, walter) = two_node_federation();
        fed.sparql_subscribe(
            0,
            1,
            "SELECT ?m ?t WHERE { ?m a sioct:MicroblogPost . ?m rdfs:label ?t . }",
        )
        .unwrap();

        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("node:node1.example", 0, 1_000)
            .build(clock.clone());
        fed.with_fault_plan(plan, RetryPolicy::no_retry());

        let (_, notifications) = fed.publish(&walter, "row diff", 5).unwrap();
        assert!(notifications.is_empty());
        assert_eq!(fed.undelivered(), 1);

        clock.set(2_000);
        let (landed, _) = fed.redeliver();
        assert_eq!(landed.len(), 1);
        // The parked notification kept its row payload — the row is not
        // re-announced on the next publish (seen-set already updated).
        let Notification::SparqlRows { to, rows } = &landed[0] else {
            panic!("expected SparqlRows");
        };
        assert_eq!(*to, 0);
        assert!(rows[0].contains("row diff"));
        let (_, next) = fed.publish(&walter, "fresh row", 6).unwrap();
        let diffs: Vec<&Notification> = next
            .iter()
            .filter(|n| matches!(n, Notification::SparqlRows { .. }))
            .collect();
        assert_eq!(diffs.len(), 1);
        if let Notification::SparqlRows { rows, .. } = diffs[0] {
            assert_eq!(rows.len(), 1, "only the new row");
            assert!(rows[0].contains("fresh row"));
        }
    }

    #[test]
    fn redeliver_exhausts_at_the_attempt_cap() {
        use lodify_resilience::VirtualClock;

        let (mut fed, oscar, walter) = two_node_federation();
        fed.subscribe(0, &oscar, &walter).unwrap();
        // node1 never comes back.
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("node:node1.example", 0, u64::MAX)
            .build(clock);
        fed.with_fault_plan(plan, RetryPolicy::no_retry());

        fed.publish(&walter, "doomed", 1).unwrap();
        assert_eq!(fed.undelivered(), 1);

        // The initial park counts as attempt 1; each failed replay adds
        // one more until DELIVERY_MAX_ATTEMPTS exhausts the letter.
        for round in 1..Federation::DELIVERY_MAX_ATTEMPTS {
            let (landed, report) = fed.redeliver();
            assert!(landed.is_empty());
            if round < Federation::DELIVERY_MAX_ATTEMPTS - 1 {
                assert_eq!((report.requeued, report.exhausted), (1, 0), "round {round}");
            } else {
                assert_eq!((report.requeued, report.exhausted), (0, 1), "round {round}");
            }
        }
        assert_eq!(fed.undelivered(), 0, "no longer parked");
        assert_eq!(fed.exhausted_deliveries(), 1, "surfaced, not dropped");
        // Exhausted letters are never replayed again.
        let (landed, report) = fed.redeliver();
        assert!(landed.is_empty());
        assert_eq!(report, ReplayReport::default());
        assert_eq!(fed.exhausted_deliveries(), 1);
    }

    #[test]
    fn redeliver_reports_mixed_outcomes_per_node() {
        use lodify_resilience::VirtualClock;

        let mut fed = Federation::new();
        let home1 = fed.add_node("node1.example").unwrap();
        let home2 = fed.add_node("node2.example").unwrap();
        let home3 = fed.add_node("node3.example").unwrap();
        let a = fed.register_user(home1, "a", "A").unwrap();
        let b = fed.register_user(home2, "b", "B").unwrap();
        let w = fed.register_user(home3, "w", "W").unwrap();
        fed.subscribe(home1, &a, &w).unwrap();
        fed.subscribe(home2, &b, &w).unwrap();

        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("node:node1.example", 0, 5_000)
            .outage("node:node2.example", 0, u64::MAX)
            .build(clock.clone());
        fed.with_fault_plan(plan, RetryPolicy::no_retry());

        fed.publish(&w, "two receivers down", 1).unwrap();
        assert_eq!(fed.undelivered(), 2);

        // node1 recovers, node2 stays dark: one replayed, one requeued.
        clock.set(6_000);
        let (landed, report) = fed.redeliver();
        assert_eq!(landed.len(), 1);
        assert!(matches!(&landed[0], Notification::Activity { to: 0, .. }));
        assert_eq!(report.replayed, 1);
        assert_eq!(report.requeued, 1);
        assert_eq!(report.exhausted, 0);
        assert_eq!(fed.undelivered(), 1);
        let telemetry = fed.delivery_telemetry().unwrap();
        assert_eq!(telemetry.counter("federation.redelivered"), 1);
        assert_eq!(telemetry.gauge("federation.dlq.depth"), Some(1));
    }

    #[test]
    fn delivery_histogram_is_deterministic_under_virtual_clock() {
        use lodify_resilience::VirtualClock;

        let (mut fed, oscar, walter) = two_node_federation();
        fed.subscribe(0, &oscar, &walter).unwrap();
        let clock = VirtualClock::new();
        // 40ms of scripted latency per delivery attempt; with the clock
        // routed through the plan, the histogram records exactly that.
        let plan = FaultPlan::builder()
            .latency("node:node1.example", 40)
            .build(clock);
        fed.with_fault_plan(plan, RetryPolicy::no_retry());
        let metrics = Metrics::new();
        fed.set_observability(metrics.clone());

        fed.publish(&walter, "timed", 1).unwrap();
        let histogram = metrics.histogram("federation.deliver").unwrap();
        assert_eq!(histogram.count(), 1);
        assert_eq!(histogram.sum(), 40_000, "40ms in µs, exactly");
        assert_eq!(metrics.counter("federation.deliveries"), 1);
    }

    #[test]
    fn retract_removes_media_and_rejects_foreign_targets() {
        let (mut fed, oscar, walter) = two_node_federation();
        let (media, _) = fed.publish(&walter, "regrets", 5).unwrap();
        // Oscar cannot retract Walter's media.
        assert!(fed.retract(&oscar, &media).is_err());
        let removed = fed.retract(&walter, &media).unwrap();
        assert_eq!(removed, 4, "type + label + maker + created");
        let subject = Term::Iri(media.clone());
        assert!(fed
            .node(1)
            .unwrap()
            .store()
            .match_terms(Some(&subject), None, None)
            .is_empty());
        // Retracting again: nothing left to remove.
        assert!(fed.retract(&walter, &media).is_err());
    }

    fn mole() -> lodify_rdf::Point {
        let gaz = lodify_context::Gazetteer::global();
        gaz.poi("Mole_Antonelliana").unwrap().point(gaz)
    }

    /// Seeds the Mole monument (label + geometry) on `node` as
    /// node-local reference data — the anchor every Q1-shaped album
    /// spec joins against.
    fn seed_monument(fed: &mut Federation, node: NodeId) {
        let store = fed.nodes[node].store_mut();
        let g = store.default_graph();
        let monument = "http://dbpedia.org/resource/Mole_Antonelliana";
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
                Term::Literal(mole().to_literal()),
            ),
            g,
        );
    }

    /// Inserts picture-shaped content (the §2.3 album shape: typed,
    /// geolocated near the Mole, linked, attributed) on `node` through
    /// the journaled content path, then feeds the delta to the node's
    /// live engine exactly as `publish`/`retract` do.
    fn share_picture(fed: &mut Federation, node: NodeId, n: u32, maker: &Acct) -> Iri {
        let host = fed.nodes[node].host.clone();
        let iri = Iri::new_unchecked(format!("http://{host}/media/{n}"));
        let subject = Term::Iri(iri.clone());
        let mark = fed.nodes[node].ops_len();
        fed.nodes[node].insert_content(Triple::new_unchecked(
            subject.clone(),
            ns::iri::rdf_type(),
            Term::Iri(ns::iri::microblog_post()),
        ));
        fed.nodes[node].insert_content(Triple::new_unchecked(
            subject.clone(),
            ns::iri::geo_geometry(),
            Term::Literal(mole().offset_km(0.05, 0.0).to_literal()),
        ));
        fed.nodes[node].insert_content(Triple::new_unchecked(
            subject.clone(),
            ns::iri::image_data(),
            Term::literal(format!("http://{host}/raw/{n}.jpg")),
        ));
        fed.nodes[node].insert_content(Triple::new_unchecked(
            subject,
            ns::iri::foaf_maker(),
            Term::Iri(maker.profile_iri()),
        ));
        let (additions, removals) = fed.nodes[node].ops_delta(mark);
        fed.live_maintain(node, &additions, &removals, None);
        iri
    }

    fn live_spec() -> AlbumSpec {
        AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0).friends_of("walter")
    }

    #[test]
    fn live_subscription_tracks_follow_and_retract_diffs() {
        let (mut fed, oscar, walter) = two_node_federation();
        seed_monument(&mut fed, 0);
        let spec = live_spec();
        let (album, sub) = fed.live_subscribe(1, 0, &spec).unwrap();
        assert!(fed.live_subscriber(0, sub).unwrap().links().is_empty());

        // Content by oscar exists, but oscar follows nobody yet.
        let media = share_picture(&mut fed, 0, 90, &oscar);
        assert!(fed.live_links(0, album).is_empty());

        // Following walter imports his profile and records the knows
        // edge; that delta pulls oscar's picture into the standing
        // album and the diff is pushed to node2.
        fed.subscribe(0, &oscar, &walter).unwrap();
        let expected = spec.execute(fed.node(0).unwrap().store()).unwrap();
        assert_eq!(fed.live_links(0, album), expected);
        assert_eq!(fed.live_subscriber(0, sub).unwrap().links(), expected);

        // Retraction over the public path journals removals; the
        // member is retracted exactly and the subscriber converges.
        fed.retract(&oscar, &media).unwrap();
        assert!(fed.live_links(0, album).is_empty());
        assert!(fed.live_subscriber(0, sub).unwrap().links().is_empty());
        assert!(fed.live_hub(0).unwrap().converged());
    }

    #[test]
    fn live_push_outage_parks_diffs_and_redelivery_converges() {
        use lodify_resilience::VirtualClock;

        let (mut fed, oscar, walter) = two_node_federation();
        seed_monument(&mut fed, 0);
        let spec = live_spec();
        // Subscribe while the transport is healthy: the snapshot
        // frame (empty album) is delivered immediately.
        let (album, sub) = fed.live_subscribe(1, 0, &spec).unwrap();
        assert!(fed.live_hub(0).unwrap().converged());

        // Installing a fault plan afterwards reaches the already
        // created hub; live push is judged under `push:<host>`,
        // disjoint from the `node:<host>` namespace.
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("push:node2.example", 0, 5_000)
            .build(clock.clone());
        fed.with_fault_plan(plan, RetryPolicy::no_retry());

        share_picture(&mut fed, 0, 91, &oscar);
        fed.subscribe(0, &oscar, &walter).unwrap();
        assert!(
            !fed.live_links(0, album).is_empty(),
            "publisher truth intact"
        );
        assert!(fed.live_subscriber(0, sub).unwrap().links().is_empty());
        assert_eq!(fed.live_hub(0).unwrap().undelivered(), 1);
        assert!(!fed.live_hub(0).unwrap().converged());

        clock.advance(10_000);
        let report = fed.live_redeliver();
        assert_eq!(report.replayed, 1);
        assert_eq!(
            fed.live_subscriber(0, sub).unwrap().links(),
            fed.live_links(0, album)
        );
        assert!(fed.live_hub(0).unwrap().converged());
        let ops = fed.live_push_ops().unwrap();
        assert_eq!(ops.dlq_depth, 0);
        assert_eq!(ops.redelivered, 1);
    }

    #[test]
    fn live_push_ops_reports_the_worst_hub_lag_not_the_sum() {
        use lodify_resilience::VirtualClock;

        let (mut fed, _, _) = two_node_federation();
        seed_monument(&mut fed, 0);
        seed_monument(&mut fed, 1);
        let plan = FaultPlan::builder()
            .outage("push:node1.example", 0, 5_000)
            .outage("push:node2.example", 0, 5_000)
            .build(VirtualClock::new());
        fed.with_fault_plan(plan, RetryPolicy::no_retry());

        // Two publishers, one subscriber each; both snapshot frames
        // park in the outage, so each hub is one frame behind.
        fed.live_subscribe(1, 0, &live_spec()).unwrap();
        fed.live_subscribe(0, 1, &live_spec()).unwrap();
        assert_eq!(fed.live_hub(0).unwrap().lag(), 1);
        assert_eq!(fed.live_hub(1).unwrap().lag(), 1);

        let ops = fed.live_push_ops().unwrap();
        assert_eq!(
            ops.lag, 1,
            "a maximum backlog, as OpsSnapshot thresholds it"
        );
        assert_eq!(ops.subscribers, 2);
        assert_eq!(ops.parked, 2);
        assert_eq!(ops.dlq_depth, 2);
    }
}
