//! Differential maintenance of standing album queries.
//!
//! [`StandingQueryEngine`] keeps a set of registered [`AlbumSpec`]s
//! *live*: each committed batch of quad deltas is delta-joined against
//! the engine's retained per-resource binding state instead of
//! re-running the album's SPARQL query, and the engine emits
//! [`AlbumDiff`]s describing exactly what changed.
//!
//! # How a delta becomes a diff
//!
//! 1. **Affected-set derivation.** Every delta triple is routed by
//!    predicate: geometry/type/link/rating/maker deltas map to the
//!    `(album, resource)` pairs they can influence — found through the
//!    anchor grid (a spatial index over monument anchors, so the probe
//!    cost is flat in the number of registered albums) and the
//!    `tracked` reverse index of retained resources. Label, anchor
//!    geometry and `foaf:name` deltas can move an album's *anchors* or
//!    friend set, so they schedule a full refresh of that album alone.
//! 2. **Support re-evaluation.** Each affected pair is re-evaluated
//!    once against the post-commit store into a `ResourceState` of
//!    per-binding support counts (geometry pairs in radius × social
//!    derivation paths × rating bindings). A deleted triple therefore
//!    retracts exactly the solutions it justified: membership only
//!    drops when a factor's count reaches zero. Re-evaluating against
//!    the post-state makes the step idempotent and insensitive to the
//!    ordering of deltas inside a commit batch.
//! 3. **Diffing.** Touched albums recompute their canonical member
//!    order — a pure function of `(rating, link)` thanks to the
//!    `ORDER BY DESC(?points) ?link` tail [`AlbumSpec::to_sparql`]
//!    emits — and the old/new orderings are diffed into upserts,
//!    removals and visible-position moves.
//!
//! The invariant tested to the byte: after any interleaving of
//! uploads, removals and re-annotations, [`StandingQueryEngine::links`]
//! equals [`AlbumSpec::execute`] over the same store.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;

use lodify_obs::TraceContext;
use lodify_rdf::{ns, Iri, Literal, Point, Term, Triple};
use lodify_store::{Store, TermId};

use crate::albums::AlbumSpec;

/// Handle of a registered standing query.
pub type LiveAlbumId = usize;

/// Anchor-grid cell size in degrees (~5.5 km of latitude): coarse
/// enough that a probe touches a 3×3 ring for paper-scale radii, fine
/// enough that distinct monuments land in distinct cells.
const CELL_DEG: f64 = 0.05;
const KM_PER_DEG: f64 = 111.195;

/// Sort value of one `?points` binding, mirroring the SPARQL engine's
/// `SortKey` semantics: numeric literals compare by `f64::total_cmp`,
/// anything else by lexical form, and every number sorts before any
/// string.
#[derive(Debug, Clone, PartialEq)]
pub enum Rank {
    /// A rating with a numeric interpretation.
    Num(f64),
    /// A non-numeric rating literal (lexical form).
    Str(String),
}

impl Rank {
    /// The sort value of a rating term.
    pub fn of(term: &Term) -> Rank {
        if let Term::Literal(lit) = term {
            if let Some(n) = lit.as_f64() {
                return Rank::Num(n);
            }
        }
        Rank::Str(term.lexical().to_string())
    }

    /// Ascending comparison (the SPARQL `SortKey` order).
    pub fn cmp_asc(&self, other: &Rank) -> Ordering {
        match (self, other) {
            (Rank::Num(a), Rank::Num(b)) => a.total_cmp(b),
            (Rank::Str(a), Rank::Str(b)) => a.cmp(b),
            (Rank::Num(_), Rank::Str(_)) => Ordering::Less,
            (Rank::Str(_), Rank::Num(_)) => Ordering::Greater,
        }
    }
}

/// Canonical member order: best rating first (`DESC(?points)`), link
/// ascending as the tie-breaker; both ranks `None` (unrated albums)
/// leaves the link as the only key.
pub fn member_order(a: &(String, Option<Rank>), b: &(String, Option<Rank>)) -> Ordering {
    match (&a.1, &b.1) {
        (Some(ra), Some(rb)) => rb.cmp_asc(ra).then_with(|| a.0.cmp(&b.0)),
        _ => a.0.cmp(&b.0),
    }
}

/// What changed in one album as a consequence of one committed delta
/// batch. `upserts` carry the member's new rank (absolute, so applying
/// a diff stream is idempotent), `removals` drop members, and `moved`
/// reports position changes inside the visible (post-`LIMIT`) window
/// for observability.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlbumDiff {
    /// The registered album this diff belongs to.
    pub album: LiveAlbumId,
    /// Members added or re-ranked: `(link, new rank)`.
    pub upserts: Vec<(String, Option<Rank>)>,
    /// Members that lost their last supporting solution.
    pub removals: Vec<String>,
    /// Visible position changes: `(link, old index, new index)`.
    pub moved: Vec<(String, usize, usize)>,
    /// Causal context of the commit that produced this diff. Travels
    /// with the diff into the push hub so `live.push` spans on the
    /// delivering node stitch under the originating commit's trace.
    pub trace: Option<TraceContext>,
}

impl AlbumDiff {
    /// True when the delta batch left the album unchanged.
    pub fn is_empty(&self) -> bool {
        self.upserts.is_empty() && self.removals.is_empty()
    }

    /// Number of membership operations carried.
    pub fn ops(&self) -> usize {
        self.upserts.len() + self.removals.len()
    }
}

/// Per-binding support counts for one `(album, resource)` pair: how
/// many derivations of each BGP factor currently justify the
/// resource's membership. Membership requires every factor non-zero,
/// so removing one of two supporting geometry triples (say) keeps the
/// member — exactly the retract-what-you-justified semantics.
#[derive(Debug, Clone, Default, PartialEq)]
struct ResourceState {
    /// `?resource a sioct:MicroblogPost` matches.
    typed: u32,
    /// `(geometry literal, anchor)` pairs within the album radius.
    geo_support: u32,
    /// `comm:image-data` links with their triple multiplicity.
    links: BTreeMap<String, u32>,
    /// `maker → knows → friend(name)` derivation paths (social albums).
    social_paths: u32,
    /// `rev:rating` bindings, as sort values (rated albums).
    ratings: Vec<Rank>,
}

impl ResourceState {
    fn supported(&self, social: bool, rated: bool) -> bool {
        self.typed > 0
            && self.geo_support > 0
            && !self.links.is_empty()
            && (!social || self.social_paths > 0)
            && (!rated || !self.ratings.is_empty())
    }

    /// The rating that wins `DESC(?points)` for this resource.
    fn best_rank(&self) -> Option<Rank> {
        self.ratings.iter().max_by(|a, b| a.cmp_asc(b)).cloned()
    }
}

/// One registered standing query plus its retained state.
struct LiveAlbum {
    spec: AlbumSpec,
    /// [`AlbumSpec::to_sparql`]: the key that makes one materialisation
    /// per query.
    query: String,
    /// Registered through [`StandingQueryEngine::register`] rather than
    /// installed by a view: survives [`StandingQueryEngine::drop_unpinned`].
    pinned: bool,
    /// The monument label literal the query anchors on.
    label: Literal,
    /// Monument subjects currently carrying that label.
    anchor_subjects: BTreeSet<TermId>,
    /// Their geometry points — the album's spatial anchors.
    anchors: Vec<Point>,
    /// Retained binding set: supported resources only.
    resources: HashMap<TermId, ResourceState>,
    /// Full membership: link → best rank.
    members: BTreeMap<String, Option<Rank>>,
    /// Canonical visible answer (post-`LIMIT`), byte-equal to
    /// [`AlbumSpec::execute`].
    visible: Vec<String>,
}

impl LiveAlbum {
    /// Re-resolves the album from `store` alone: anchors, then every
    /// candidate (the geo index near an anchor, plus `extra`) evaluated
    /// afresh. Touches no engine index. Returns the evaluations made.
    fn resolve(
        &mut self,
        store: &Store,
        preds: &PredIris,
        extra: impl IntoIterator<Item = TermId>,
    ) -> u64 {
        let ids = PredIds::resolve(store, preds);
        let label = Term::Literal(self.label.clone());
        let mut anchor_subjects = BTreeSet::new();
        let mut anchors = Vec::new();
        for t in store.match_terms(None, Some(&preds.label), Some(&label)) {
            let Some(mid) = store.id_of(&t.subject) else {
                continue;
            };
            anchor_subjects.insert(mid);
            for g in store.match_terms(Some(&t.subject), Some(&preds.geometry), None) {
                if let Term::Literal(l) = &g.object {
                    if let Ok(point) = Point::from_literal(l) {
                        anchors.push(point);
                    }
                }
            }
        }

        let mut candidates: BTreeSet<TermId> = extra.into_iter().collect();
        for &anchor in &anchors {
            for (sid, _) in store.geo().within_km(anchor, self.spec.radius_km) {
                candidates.insert(sid);
            }
        }
        let evals = candidates.len() as u64;
        let (social, rated) = (self.spec.friend_of.is_some(), self.spec.order_by_rating);
        self.resources = candidates
            .into_iter()
            .map(|sid| (sid, eval_resource(store, &ids, &self.spec, &anchors, sid)))
            .filter(|(_, state)| state.supported(social, rated))
            .collect();
        self.anchor_subjects = anchor_subjects;
        self.anchors = anchors;
        evals
    }

    /// Recomputes the canonical answer from the retained state without
    /// diffing — for a fresh solve or a rebuild, where there is no prior
    /// answer to diff against. [`StandingQueryEngine::apply`] instead
    /// diffs in its final phase.
    fn settle(&mut self) {
        self.members = self.recompute_members();
        self.visible = self.visible_of(&self.members);
    }

    fn recompute_members(&self) -> BTreeMap<String, Option<Rank>> {
        let rated = self.spec.order_by_rating;
        let mut members: BTreeMap<String, Option<Rank>> = BTreeMap::new();
        for state in self.resources.values() {
            let rank = if rated { state.best_rank() } else { None };
            for link in state.links.keys() {
                match members.get_mut(link) {
                    None => {
                        members.insert(link.clone(), rank.clone());
                    }
                    Some(best) => {
                        let better = match (&rank, &*best) {
                            (Some(r), Some(b)) => r.cmp_asc(b) == Ordering::Greater,
                            _ => false,
                        };
                        if better {
                            *best = rank.clone();
                        }
                    }
                }
            }
        }
        members
    }

    fn visible_of(&self, members: &BTreeMap<String, Option<Rank>>) -> Vec<String> {
        let mut ordered: Vec<(String, Option<Rank>)> = members
            .iter()
            .map(|(l, r)| (l.clone(), r.clone()))
            .collect();
        ordered.sort_by(member_order);
        let mut links: Vec<String> = ordered.into_iter().map(|(l, _)| l).collect();
        if let Some(limit) = self.spec.limit {
            links.truncate(limit);
        }
        links
    }
}

/// The predicate vocabulary, resolved once per construction (Iris) and
/// once per delta batch (store ids).
struct PredIris {
    label: Iri,
    geometry: Iri,
    ty: Iri,
    image: Iri,
    maker: Iri,
    name: Iri,
    knows: Iri,
    rating: Iri,
}

impl PredIris {
    fn new() -> PredIris {
        PredIris {
            label: ns::iri::rdfs_label(),
            geometry: ns::iri::geo_geometry(),
            ty: ns::iri::rdf_type(),
            image: ns::iri::image_data(),
            maker: ns::iri::foaf_maker(),
            name: ns::iri::foaf_name(),
            knows: ns::iri::foaf_knows(),
            rating: ns::iri::rev_rating(),
        }
    }
}

#[derive(Clone, Copy)]
struct PredIds {
    geometry: Option<TermId>,
    ty: Option<TermId>,
    image: Option<TermId>,
    maker: Option<TermId>,
    name: Option<TermId>,
    knows: Option<TermId>,
    rating: Option<TermId>,
    post: Option<TermId>,
}

impl PredIds {
    fn resolve(store: &Store, iris: &PredIris) -> PredIds {
        let id = |iri: &Iri| store.id_of(&Term::Iri(iri.clone()));
        PredIds {
            geometry: id(&iris.geometry),
            ty: id(&iris.ty),
            image: id(&iris.image),
            maker: id(&iris.maker),
            name: id(&iris.name),
            knows: id(&iris.knows),
            rating: id(&iris.rating),
            post: store.id_of(&Term::Iri(ns::iri::microblog_post())),
        }
    }
}

/// Maintenance counters, surfaced through
/// [`LiveOps`](crate::metrics::LiveOps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Delta triples routed through the engine.
    pub deltas: u64,
    /// Albums patched via pair re-evaluation.
    pub patched_albums: u64,
    /// Full album refreshes (anchor or friend-set changes, recovery).
    pub refreshes: u64,
    /// `(album, resource)` support re-evaluations.
    pub resource_evals: u64,
    /// Non-empty diffs emitted.
    pub diffs: u64,
}

/// An album solved from a store but not installed in any engine: the
/// half of [`StandingQueryEngine::register`] that reads the store and
/// needs no access to the engine.
pub(crate) struct SolvedAlbum {
    album: LiveAlbum,
    evals: u64,
}

impl SolvedAlbum {
    /// The solved answer, byte-equal to [`AlbumSpec::execute`] over the
    /// store it was solved from.
    pub(crate) fn links(&self) -> &[String] {
        &self.album.visible
    }
}

/// Incremental evaluator for registered album queries. See the module
/// docs for the delta → diff pipeline. It holds at most one album per
/// query text, and an album keeps its id until it is dropped.
pub struct StandingQueryEngine {
    albums: BTreeMap<LiveAlbumId, LiveAlbum>,
    next_id: LiveAlbumId,
    /// [`AlbumSpec::to_sparql`] → album.
    by_query: HashMap<String, LiveAlbumId>,
    preds: PredIris,
    /// Anchor grid: cell → (album, anchor point). Probes are flat in
    /// the number of registered albums.
    grid: HashMap<(i32, i32), Vec<(LiveAlbumId, Point)>>,
    max_radius_km: f64,
    /// Resources with retained state, per album — the removal side of
    /// the delta-join.
    tracked: HashMap<TermId, BTreeSet<LiveAlbumId>>,
    /// Anchor subject → albums anchored on it.
    anchor_index: HashMap<TermId, BTreeSet<LiveAlbumId>>,
    /// Monument label literal → albums anchored on it.
    label_index: HashMap<Literal, BTreeSet<LiveAlbumId>>,
    /// `friend_of` name → social albums filtering on it.
    friend_index: HashMap<String, BTreeSet<LiveAlbumId>>,
    stats: EngineStats,
}

impl Default for StandingQueryEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl StandingQueryEngine {
    /// An engine with no registered albums; [`Self::apply`] is a
    /// near-no-op until the first [`Self::register`].
    pub fn new() -> StandingQueryEngine {
        StandingQueryEngine {
            albums: BTreeMap::new(),
            next_id: 0,
            by_query: HashMap::new(),
            preds: PredIris::new(),
            grid: HashMap::new(),
            max_radius_km: 0.0,
            tracked: HashMap::new(),
            anchor_index: HashMap::new(),
            label_index: HashMap::new(),
            friend_index: HashMap::new(),
            stats: EngineStats::default(),
        }
    }

    /// Registers a standing query, pinned, and builds its initial state
    /// from `store`. Returns the album's handle; a query already
    /// registered keeps its album, which is pinned from now on.
    pub fn register(&mut self, store: &Store, spec: &AlbumSpec) -> LiveAlbumId {
        self.install(Self::solve(store, spec), true)
    }

    /// Solves `spec` over `store` from scratch, reading nothing but the
    /// store, so a caller can run it without holding the engine.
    pub(crate) fn solve(store: &Store, spec: &AlbumSpec) -> SolvedAlbum {
        let mut album = LiveAlbum {
            spec: spec.clone(),
            query: spec.to_sparql(),
            pinned: false,
            label: Literal::lang(&spec.monument_label, &spec.label_lang)
                .unwrap_or_else(|_| Literal::simple(&spec.monument_label)),
            anchor_subjects: BTreeSet::new(),
            anchors: Vec::new(),
            resources: HashMap::new(),
            members: BTreeMap::new(),
            visible: Vec::new(),
        };
        let evals = album.resolve(store, &PredIris::new(), []);
        album.settle();
        SolvedAlbum { album, evals }
    }

    /// Installs a solved album and returns its id. If its query is
    /// already registered, the installed album is kept (and pinned when
    /// `pinned`) and `solved` is dropped. The store must not have
    /// changed since the solve.
    pub(crate) fn install(&mut self, solved: SolvedAlbum, pinned: bool) -> LiveAlbumId {
        if let Some(&id) = self.by_query.get(&solved.album.query) {
            self.album_mut(id).pinned |= pinned;
            return id;
        }
        let id = self.next_id;
        self.next_id += 1;
        let mut album = solved.album;
        album.pinned = pinned;
        self.stats.refreshes += 1;
        self.stats.resource_evals += solved.evals;
        self.max_radius_km = self.max_radius_km.max(album.spec.radius_km);
        self.by_query.insert(album.query.clone(), id);
        self.albums.insert(id, album);
        self.index(id);
        id
    }

    /// The album registered for a query text ([`AlbumSpec::to_sparql`]).
    pub(crate) fn find(&self, query: &str) -> Option<LiveAlbumId> {
        self.by_query.get(query).copied()
    }

    /// Number of albums not pinned by [`Self::register`].
    pub(crate) fn unpinned(&self) -> usize {
        self.albums.values().filter(|a| !a.pinned).count()
    }

    /// Unregisters every album [`Self::register`] did not pin. The
    /// albums that stay keep their ids.
    pub(crate) fn drop_unpinned(&mut self) {
        let dropped: Vec<LiveAlbumId> = self
            .albums
            .iter()
            .filter(|(_, album)| !album.pinned)
            .map(|(&id, _)| id)
            .collect();
        for id in dropped {
            self.unindex(id);
            let album = self.albums.remove(&id).expect("listed above");
            self.by_query.remove(&album.query);
        }
        self.max_radius_km = self
            .albums
            .values()
            .map(|a| a.spec.radius_km)
            .fold(0.0, f64::max);
    }

    /// Number of registered albums.
    pub fn len(&self) -> usize {
        self.albums.len()
    }

    /// True when no albums are registered.
    pub fn is_empty(&self) -> bool {
        self.albums.is_empty()
    }

    /// The registered album ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = LiveAlbumId> + '_ {
        self.albums.keys().copied()
    }

    /// The maintained answer — canonical order, post-`LIMIT` — kept
    /// byte-equal to [`AlbumSpec::execute`] over the same store.
    pub fn links(&self, id: LiveAlbumId) -> &[String] {
        &self.albums[&id].visible
    }

    /// Full membership with ranks, in canonical order — the snapshot a
    /// new subscriber is seeded with.
    pub fn members(&self, id: LiveAlbumId) -> Vec<(String, Option<Rank>)> {
        let album = &self.albums[&id];
        let mut out: Vec<(String, Option<Rank>)> = album
            .members
            .iter()
            .map(|(l, r)| (l.clone(), r.clone()))
            .collect();
        out.sort_by(member_order);
        out
    }

    /// The registered spec.
    pub fn spec(&self, id: LiveAlbumId) -> &AlbumSpec {
        &self.albums[&id].spec
    }

    /// Maintenance counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Rebuilds every album's retained state from `store` — the
    /// crash-recovery path: after a WAL replay restores the store, one
    /// `rebuild` call restores the standing-query state.
    pub fn rebuild(&mut self, store: &Store) {
        let ids: Vec<LiveAlbumId> = self.ids().collect();
        for id in ids {
            self.refresh(store, id);
            self.album_mut(id).settle();
        }
    }

    /// Evaluates one committed delta batch and patches every affected
    /// album, returning the non-empty diffs.
    pub fn apply(
        &mut self,
        store: &Store,
        additions: &[Triple],
        removals: &[Triple],
    ) -> Vec<AlbumDiff> {
        if self.albums.is_empty() || (additions.is_empty() && removals.is_empty()) {
            return Vec::new();
        }
        self.stats.deltas += (additions.len() + removals.len()) as u64;
        let ids = PredIds::resolve(store, &self.preds);

        // Phase 1 — route deltas to affected albums/pairs.
        let mut refresh: BTreeSet<LiveAlbumId> = BTreeSet::new();
        let mut pairs: BTreeSet<(LiveAlbumId, TermId)> = BTreeSet::new();
        for t in additions.iter().chain(removals.iter()) {
            self.route_delta(store, &ids, t, &mut refresh, &mut pairs);
        }

        // Phase 2 — full refreshes, then idempotent pair re-evaluation
        // against the post-commit store.
        for &aid in &refresh {
            self.refresh(store, aid);
        }
        let mut evals = Vec::new();
        for &(aid, sid) in &pairs {
            if refresh.contains(&aid) {
                continue;
            }
            let album = &self.albums[&aid];
            evals.push((
                aid,
                sid,
                eval_resource(store, &ids, &album.spec, &album.anchors, sid),
            ));
        }
        self.stats.resource_evals += evals.len() as u64;
        let mut touched: BTreeSet<LiveAlbumId> = refresh.clone();
        for (aid, sid, state) in evals {
            touched.insert(aid);
            self.set_state(aid, sid, state);
        }
        self.stats.patched_albums += touched.len().saturating_sub(refresh.len()) as u64;

        // Phase 3 — recompute canonical answers and diff.
        let mut diffs = Vec::new();
        for aid in touched {
            let album = &self.albums[&aid];
            let new_members = album.recompute_members();
            let new_visible = album.visible_of(&new_members);
            let diff = diff_members(
                aid,
                &album.members,
                &new_members,
                &album.visible,
                &new_visible,
            );
            let album = self.album_mut(aid);
            album.members = new_members;
            album.visible = new_visible;
            if !diff.is_empty() {
                self.stats.diffs += 1;
                diffs.push(diff);
            }
        }
        diffs
    }

    /// Routes one delta triple to the albums and `(album, resource)`
    /// pairs it can influence.
    fn route_delta(
        &self,
        store: &Store,
        ids: &PredIds,
        t: &Triple,
        refresh: &mut BTreeSet<LiveAlbumId>,
        pairs: &mut BTreeSet<(LiveAlbumId, TermId)>,
    ) {
        let p = &t.predicate;
        let sid = store.id_of(&t.subject);
        if *p == self.preds.label {
            // A monument gained or lost the anchoring label.
            if let Term::Literal(l) = &t.object {
                if let Some(albums) = self.label_index.get(l) {
                    refresh.extend(albums.iter().copied());
                }
            }
            if let Some(sid) = sid {
                if let Some(albums) = self.anchor_index.get(&sid) {
                    refresh.extend(albums.iter().copied());
                }
            }
        } else if *p == self.preds.geometry {
            let Some(sid) = sid else { return };
            // An anchor moved: the whole album re-anchors.
            if let Some(albums) = self.anchor_index.get(&sid) {
                refresh.extend(albums.iter().copied());
            }
            // A resource moved: pair with albums near either the old
            // or the new location (the delta literal carries the
            // point) plus every album currently retaining it.
            if let Term::Literal(l) = &t.object {
                if let Ok(point) = Point::from_literal(l) {
                    for aid in self.probe(point) {
                        pairs.insert((aid, sid));
                    }
                }
            }
            self.pair_tracked(sid, |_| true, pairs);
        } else if *p == self.preds.ty || *p == self.preds.image {
            let Some(sid) = sid else { return };
            self.pair_near(store, ids, sid, |_| true, pairs);
        } else if *p == self.preds.rating {
            let Some(sid) = sid else { return };
            self.pair_near(store, ids, sid, |spec| spec.order_by_rating, pairs);
        } else if *p == self.preds.maker {
            let Some(sid) = sid else { return };
            self.pair_near(store, ids, sid, |spec| spec.friend_of.is_some(), pairs);
        } else if *p == self.preds.name {
            // A person gained/lost a name some album filters on: the
            // friend set changes, so those albums refresh.
            if let Term::Literal(l) = &t.object {
                if let Some(albums) = self.friend_index.get(l.value()) {
                    refresh.extend(albums.iter().copied());
                }
            }
        } else if *p == self.preds.knows {
            // A maker's friendship changed: every resource by that
            // maker may enter or leave social albums.
            let Some(maker) = sid else { return };
            let Some(maker_pred) = ids.maker else { return };
            let resources: Vec<TermId> = store
                .match_ids(None, Some(maker_pred), Some(maker))
                .map(|(s, _, _)| s)
                .collect();
            for rid in resources {
                self.pair_near(store, ids, rid, |spec| spec.friend_of.is_some(), pairs);
            }
        }
    }

    /// Pairs `sid` with every album retaining it that passes `keep`.
    fn pair_tracked<F: Fn(&AlbumSpec) -> bool>(
        &self,
        sid: TermId,
        keep: F,
        pairs: &mut BTreeSet<(LiveAlbumId, TermId)>,
    ) {
        if let Some(albums) = self.tracked.get(&sid) {
            for &aid in albums {
                if keep(&self.albums[&aid].spec) {
                    pairs.insert((aid, sid));
                }
            }
        }
    }

    /// Pairs `sid` with tracked albums plus albums whose anchors lie
    /// within reach of the resource's (post-state) geometry.
    fn pair_near<F: Fn(&AlbumSpec) -> bool + Copy>(
        &self,
        store: &Store,
        ids: &PredIds,
        sid: TermId,
        keep: F,
        pairs: &mut BTreeSet<(LiveAlbumId, TermId)>,
    ) {
        self.pair_tracked(sid, keep, pairs);
        let Some(geom) = ids.geometry else { return };
        for (_, _, o) in store.match_ids(Some(sid), Some(geom), None) {
            let Some(Term::Literal(l)) = store.term_of(o) else {
                continue;
            };
            let Ok(point) = Point::from_literal(l) else {
                continue;
            };
            for aid in self.probe(point) {
                if keep(&self.albums[&aid].spec) {
                    pairs.insert((aid, sid));
                }
            }
        }
    }

    /// Albums with an anchor within their radius of `point`.
    fn probe(&self, point: Point) -> BTreeSet<LiveAlbumId> {
        let mut out = BTreeSet::new();
        if self.grid.is_empty() {
            return out;
        }
        let steps_lat = (self.max_radius_km / KM_PER_DEG / CELL_DEG).ceil() as i32 + 1;
        let coslat = point.lat.to_radians().cos().max(0.01);
        let steps_lon = (self.max_radius_km / (KM_PER_DEG * coslat) / CELL_DEG).ceil() as i32 + 1;
        let (cx, cy) = cell_of(point);
        for dx in -steps_lon..=steps_lon {
            for dy in -steps_lat..=steps_lat {
                let Some(entries) = self.grid.get(&(cx + dx, cy + dy)) else {
                    continue;
                };
                for &(aid, anchor) in entries {
                    if point.intersects(anchor, self.albums[&aid].spec.radius_km) {
                        out.insert(aid);
                    }
                }
            }
        }
        out
    }

    /// Rebuilds one album from the store: re-resolves its anchors,
    /// re-enumerates candidates (geo index ∪ current members) and
    /// re-evaluates each. Used after anchor/friend deltas and for crash
    /// recovery.
    fn refresh(&mut self, store: &Store, aid: LiveAlbumId) {
        self.stats.refreshes += 1;
        self.unindex(aid);
        let album = self
            .albums
            .get_mut(&aid)
            .expect("refresh of a registered album");
        let members: Vec<TermId> = album.resources.keys().copied().collect();
        self.stats.resource_evals += album.resolve(store, &self.preds, members);
        self.index(aid);
    }

    /// Enters an album into every routing index: its label and friend
    /// name, and its anchors and retained resources.
    fn index(&mut self, aid: LiveAlbumId) {
        let album = &self.albums[&aid];
        self.label_index
            .entry(album.label.clone())
            .or_default()
            .insert(aid);
        if let Some(name) = &album.spec.friend_of {
            self.friend_index
                .entry(name.clone())
                .or_default()
                .insert(aid);
        }
        for &anchor in &album.anchors {
            self.grid
                .entry(cell_of(anchor))
                .or_default()
                .push((aid, anchor));
        }
        for &mid in &album.anchor_subjects {
            self.anchor_index.entry(mid).or_default().insert(aid);
        }
        for &sid in album.resources.keys() {
            self.tracked.entry(sid).or_default().insert(aid);
        }
    }

    /// Removes what [`Self::index`] entered for an album.
    fn unindex(&mut self, aid: LiveAlbumId) {
        let album = &self.albums[&aid];
        forget(&mut self.label_index, &album.label, aid);
        if let Some(name) = &album.spec.friend_of {
            forget(&mut self.friend_index, name, aid);
        }
        for &anchor in &album.anchors {
            if let Some(cell) = self.grid.get_mut(&cell_of(anchor)) {
                cell.retain(|&(id, _)| id != aid);
            }
        }
        for mid in &album.anchor_subjects {
            forget(&mut self.anchor_index, mid, aid);
        }
        for sid in album.resources.keys() {
            forget(&mut self.tracked, sid, aid);
        }
    }

    fn album_mut(&mut self, aid: LiveAlbumId) -> &mut LiveAlbum {
        self.albums
            .get_mut(&aid)
            .expect("the id of a registered album")
    }

    /// Installs a re-evaluated state, keeping the `tracked` reverse
    /// index consistent.
    fn set_state(&mut self, aid: LiveAlbumId, sid: TermId, state: ResourceState) {
        let album = self
            .albums
            .get_mut(&aid)
            .expect("the id of a registered album");
        if state.supported(album.spec.friend_of.is_some(), album.spec.order_by_rating) {
            album.resources.insert(sid, state);
            self.tracked.entry(sid).or_default().insert(aid);
        } else {
            album.resources.remove(&sid);
            forget(&mut self.tracked, &sid, aid);
        }
    }
}

/// Removes `aid` from `key`'s set in a reverse index, and the key with
/// its last album.
fn forget<K: Hash + Eq>(index: &mut HashMap<K, BTreeSet<LiveAlbumId>>, key: &K, aid: LiveAlbumId) {
    if let Some(set) = index.get_mut(key) {
        set.remove(&aid);
        if set.is_empty() {
            index.remove(key);
        }
    }
}

fn cell_of(p: Point) -> (i32, i32) {
    (
        (p.lon / CELL_DEG).floor() as i32,
        (p.lat / CELL_DEG).floor() as i32,
    )
}

/// Re-evaluates one resource's support against the post-commit store.
fn eval_resource(
    store: &Store,
    ids: &PredIds,
    spec: &AlbumSpec,
    anchors: &[Point],
    sid: TermId,
) -> ResourceState {
    let mut state = ResourceState::default();
    let (Some(ty), Some(post)) = (ids.ty, ids.post) else {
        return state;
    };
    state.typed = store.match_ids(Some(sid), Some(ty), Some(post)).count() as u32;
    if state.typed == 0 {
        return state;
    }
    if let Some(image) = ids.image {
        for (_, _, o) in store.match_ids(Some(sid), Some(image), None) {
            if let Some(term) = store.term_of(o) {
                *state.links.entry(term.lexical().to_string()).or_insert(0) += 1;
            }
        }
    }
    if let Some(geom) = ids.geometry {
        for (_, _, o) in store.match_ids(Some(sid), Some(geom), None) {
            let Some(Term::Literal(l)) = store.term_of(o) else {
                continue;
            };
            let Ok(point) = Point::from_literal(l) else {
                continue;
            };
            for &anchor in anchors {
                if point.intersects(anchor, spec.radius_km) {
                    state.geo_support += 1;
                }
            }
        }
    }
    if let Some(user) = &spec.friend_of {
        if let (Some(maker), Some(name), Some(knows)) = (ids.maker, ids.name, ids.knows) {
            let friends: Vec<TermId> = store
                .id_of(&Term::literal(user.as_str()))
                .map(|name_id| {
                    store
                        .match_ids(None, Some(name), Some(name_id))
                        .map(|(s, _, _)| s)
                        .collect()
                })
                .unwrap_or_default();
            for (_, _, m) in store.match_ids(Some(sid), Some(maker), None) {
                for &friend in &friends {
                    state.social_paths +=
                        store.match_ids(Some(m), Some(knows), Some(friend)).count() as u32;
                }
            }
        }
    }
    if spec.order_by_rating {
        if let Some(rating) = ids.rating {
            for (_, _, o) in store.match_ids(Some(sid), Some(rating), None) {
                if let Some(term) = store.term_of(o) {
                    state.ratings.push(Rank::of(term));
                }
            }
        }
    }
    state
}

/// Diffs two membership maps plus their visible orderings.
fn diff_members(
    album: LiveAlbumId,
    old: &BTreeMap<String, Option<Rank>>,
    new: &BTreeMap<String, Option<Rank>>,
    old_visible: &[String],
    new_visible: &[String],
) -> AlbumDiff {
    let mut diff = AlbumDiff {
        album,
        ..AlbumDiff::default()
    };
    for (link, rank) in new {
        if old.get(link) != Some(rank) {
            diff.upserts.push((link.clone(), rank.clone()));
        }
    }
    for link in old.keys() {
        if !new.contains_key(link) {
            diff.removals.push(link.clone());
        }
    }
    if !diff.is_empty() {
        let old_pos: HashMap<&String, usize> = old_visible
            .iter()
            .enumerate()
            .map(|(i, l)| (l, i))
            .collect();
        for (i, link) in new_visible.iter().enumerate() {
            if let Some(&j) = old_pos.get(link) {
                if i != j {
                    diff.moved.push((link.clone(), j, i));
                }
            }
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_store::GraphId;

    fn mole() -> Point {
        let gaz = lodify_context::Gazetteer::global();
        gaz.poi("Mole_Antonelliana").unwrap().point(gaz)
    }

    /// A minimal store answering Q1/Q2/Q3 near the Mole: one monument,
    /// one picture with type/geometry/link/rating, one maker who knows
    /// a named friend.
    fn tiny_store() -> (Store, GraphId) {
        let mut store = Store::new();
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
        for t in picture_triples(1, 0.05, Some(4)) {
            store.insert(&t, g);
        }
        (store, g)
    }

    /// The triples one picture contributes: type, geometry offset east
    /// of the Mole, link, maker, and an optional rating.
    fn picture_triples(n: i64, offset_km: f64, rating: Option<i64>) -> Vec<Triple> {
        let pic = format!("http://t/pictures/{n}");
        let maker = format!("http://t/users/{n}");
        let mut out = vec![
            Triple::spo(
                &pic,
                ns::iri::rdf_type().as_str(),
                Term::Iri(ns::iri::microblog_post()),
            ),
            Triple::spo(
                &pic,
                ns::iri::geo_geometry().as_str(),
                Term::Literal(mole().offset_km(offset_km, 0.0).to_literal()),
            ),
            Triple::spo(
                &pic,
                ns::iri::image_data().as_str(),
                Term::literal(format!("http://t/media/{n}.jpg")),
            ),
            Triple::spo(
                &pic,
                ns::iri::foaf_maker().as_str(),
                Term::iri(&maker).unwrap(),
            ),
        ];
        if let Some(r) = rating {
            out.push(Triple::spo(
                &pic,
                ns::iri::rev_rating().as_str(),
                Term::Literal(Literal::integer(r)),
            ));
        }
        out
    }

    /// Applies `additions`/`removals` to both the store and the
    /// engine, then asserts the maintained answer is byte-equal to a
    /// fresh [`AlbumSpec::execute`] for every registered album.
    fn commit(
        store: &mut Store,
        g: GraphId,
        engine: &mut StandingQueryEngine,
        additions: &[Triple],
        removals: &[Triple],
    ) -> Vec<AlbumDiff> {
        for t in removals {
            store.remove(t);
        }
        for t in additions {
            store.insert(t, g);
        }
        let diffs = engine.apply(store, additions, removals);
        for id in engine.ids() {
            assert_eq!(
                engine.links(id),
                engine.spec(id).execute(store).unwrap(),
                "album {id} diverged from a fresh recompute"
            );
        }
        diffs
    }

    #[test]
    fn registration_matches_a_fresh_execute() {
        let (store, _) = tiny_store();
        let mut engine = StandingQueryEngine::new();
        let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3);
        let id = engine.register(&store, &spec);
        assert_eq!(engine.links(id), spec.execute(&store).unwrap());
        assert_eq!(engine.links(id), ["http://t/media/1.jpg"]);
    }

    /// A racing install of a query already registered keeps the first
    /// album; dropping unpinned albums leaves no index entry behind,
    /// pinned albums keep their ids and no id is reused.
    #[test]
    fn install_keeps_one_album_per_query_and_drop_keeps_pinned_ids() {
        let (mut store, g) = tiny_store();
        let mut engine = StandingQueryEngine::new();
        let q1 = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3);
        let first = StandingQueryEngine::solve(&store, &q1);
        let racing = StandingQueryEngine::solve(&store, &q1);
        let viewed = engine.install(first, false);
        assert_eq!(engine.install(racing, false), viewed);
        assert_eq!(engine.len(), 1);

        let pinned = engine.register(&store, &q1.clone().rated());
        engine.install(
            StandingQueryEngine::solve(&store, &q1.clone().friends_of("x")),
            false,
        );
        assert_eq!(engine.unpinned(), 2);
        engine.drop_unpinned();
        assert_eq!(engine.ids().collect::<Vec<_>>(), [pinned]);
        assert_eq!(engine.find(&q1.to_sparql()), None);
        commit(
            &mut store,
            g,
            &mut engine,
            &picture_triples(2, 0.1, Some(5)),
            &[],
        );
        assert_eq!(engine.links(pinned).len(), 2);

        let again = engine.install(StandingQueryEngine::solve(&store, &q1), false);
        assert!(again > pinned, "ids are never reused");
        assert_eq!(engine.links(again), q1.execute(&store).unwrap());
    }

    #[test]
    fn upload_delta_patches_without_a_refresh() {
        let (mut store, g) = tiny_store();
        let mut engine = StandingQueryEngine::new();
        let id = engine.register(
            &store,
            &AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3),
        );
        let refreshes_before = engine.stats().refreshes;
        let diffs = commit(
            &mut store,
            g,
            &mut engine,
            &picture_triples(2, 0.1, None),
            &[],
        );
        assert_eq!(diffs.len(), 1);
        assert_eq!(
            diffs[0].upserts,
            [("http://t/media/2.jpg".to_string(), None)]
        );
        assert!(diffs[0].removals.is_empty());
        assert_eq!(
            engine.links(id),
            ["http://t/media/1.jpg", "http://t/media/2.jpg"]
        );
        assert_eq!(
            engine.stats().refreshes,
            refreshes_before,
            "a picture delta must patch, not refresh"
        );
    }

    #[test]
    fn far_away_uploads_do_not_touch_the_album() {
        let (mut store, g) = tiny_store();
        let mut engine = StandingQueryEngine::new();
        engine.register(
            &store,
            &AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3),
        );
        let evals_before = engine.stats().resource_evals;
        let diffs = commit(
            &mut store,
            g,
            &mut engine,
            &picture_triples(2, 50.0, None),
            &[],
        );
        assert!(diffs.is_empty());
        assert_eq!(
            engine.stats().resource_evals,
            evals_before,
            "a far-away picture must not even be re-evaluated"
        );
    }

    #[test]
    fn support_counts_retract_exactly_the_justified_solutions() {
        let (mut store, g) = tiny_store();
        let mut engine = StandingQueryEngine::new();
        let id = engine.register(
            &store,
            &AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3),
        );
        // A second in-radius geometry for the same picture: membership
        // now has two supporting geometry solutions.
        let second_geo = Triple::spo(
            "http://t/pictures/1",
            ns::iri::geo_geometry().as_str(),
            Term::Literal(mole().offset_km(0.0, 0.08).to_literal()),
        );
        commit(
            &mut store,
            g,
            &mut engine,
            std::slice::from_ref(&second_geo),
            &[],
        );
        assert_eq!(engine.links(id).len(), 1);

        // Deleting one of the two keeps the member ...
        let diffs = commit(
            &mut store,
            g,
            &mut engine,
            &[],
            std::slice::from_ref(&second_geo),
        );
        assert!(diffs.is_empty(), "one support left: no diff");
        assert_eq!(engine.links(id).len(), 1);

        // ... deleting the last one retracts it.
        let first_geo = Triple::spo(
            "http://t/pictures/1",
            ns::iri::geo_geometry().as_str(),
            Term::Literal(mole().offset_km(0.05, 0.0).to_literal()),
        );
        let diffs = commit(
            &mut store,
            g,
            &mut engine,
            &[],
            std::slice::from_ref(&first_geo),
        );
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].removals, ["http://t/media/1.jpg"]);
        assert!(engine.links(id).is_empty());
    }

    #[test]
    fn rating_deltas_reorder_rated_albums() {
        let (mut store, g) = tiny_store();
        let mut engine = StandingQueryEngine::new();
        let id = engine.register(
            &store,
            &AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3).rated(),
        );
        commit(
            &mut store,
            g,
            &mut engine,
            &picture_triples(2, 0.1, Some(2)),
            &[],
        );
        assert_eq!(
            engine.links(id),
            ["http://t/media/1.jpg", "http://t/media/2.jpg"]
        );

        // Re-rating picture 2 above picture 1 flips the order; the
        // diff reports the re-rank as an upsert plus visible moves.
        let old = Triple::spo(
            "http://t/pictures/2",
            ns::iri::rev_rating().as_str(),
            Term::Literal(Literal::integer(2)),
        );
        let new = Triple::spo(
            "http://t/pictures/2",
            ns::iri::rev_rating().as_str(),
            Term::Literal(Literal::integer(5)),
        );
        let diffs = commit(
            &mut store,
            g,
            &mut engine,
            std::slice::from_ref(&new),
            std::slice::from_ref(&old),
        );
        assert_eq!(
            engine.links(id),
            ["http://t/media/2.jpg", "http://t/media/1.jpg"]
        );
        assert_eq!(diffs.len(), 1);
        assert_eq!(
            diffs[0].upserts,
            [("http://t/media/2.jpg".to_string(), Some(Rank::Num(5.0)))]
        );
        assert_eq!(diffs[0].moved.len(), 2, "both visible members moved");
    }

    #[test]
    fn knows_deltas_move_content_in_and_out_of_social_albums() {
        let (mut store, g) = tiny_store();
        // Give the maker's friend a name to filter on.
        let name = Triple::spo(
            "http://t/users/9",
            ns::iri::foaf_name().as_str(),
            Term::literal("alice"),
        );
        store.insert(&name, g);
        let mut engine = StandingQueryEngine::new();
        let id = engine.register(
            &store,
            &AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3).friends_of("alice"),
        );
        assert!(engine.links(id).is_empty(), "maker knows nobody yet");

        let knows = Triple::spo(
            "http://t/users/1",
            ns::iri::foaf_knows().as_str(),
            Term::iri("http://t/users/9").unwrap(),
        );
        let diffs = commit(
            &mut store,
            g,
            &mut engine,
            std::slice::from_ref(&knows),
            &[],
        );
        assert_eq!(diffs.len(), 1);
        assert_eq!(engine.links(id), ["http://t/media/1.jpg"]);

        let diffs = commit(
            &mut store,
            g,
            &mut engine,
            &[],
            std::slice::from_ref(&knows),
        );
        assert_eq!(diffs[0].removals, ["http://t/media/1.jpg"]);
        assert!(engine.links(id).is_empty());
    }

    #[test]
    fn anchor_label_deltas_refresh_the_album() {
        let (mut store, g) = tiny_store();
        let mut engine = StandingQueryEngine::new();
        let id = engine.register(
            &store,
            &AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3),
        );
        assert_eq!(engine.links(id).len(), 1);
        // The monument loses its label: the album loses its anchor and
        // with it every member.
        let label = Triple::spo(
            "http://dbpedia.org/resource/Mole_Antonelliana",
            ns::iri::rdfs_label().as_str(),
            Term::Literal(Literal::lang("Mole Antonelliana", "it").unwrap()),
        );
        let refreshes_before = engine.stats().refreshes;
        commit(
            &mut store,
            g,
            &mut engine,
            &[],
            std::slice::from_ref(&label),
        );
        assert!(engine.links(id).is_empty());
        assert_eq!(engine.stats().refreshes, refreshes_before + 1);
    }

    #[test]
    fn limit_is_maintained_on_the_visible_window() {
        let (mut store, g) = tiny_store();
        let mut engine = StandingQueryEngine::new();
        let id = engine.register(
            &store,
            &AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3)
                .rated()
                .limit(2),
        );
        for n in 2..=4 {
            commit(
                &mut store,
                g,
                &mut engine,
                &picture_triples(n, 0.02 * n as f64, Some(n)),
                &[],
            );
        }
        // Ratings: pic1=4, pic2=2, pic3=3, pic4=4 — the 4/4 tie breaks
        // on the link, so pic1 stays first.
        assert_eq!(
            engine.links(id),
            ["http://t/media/1.jpg", "http://t/media/4.jpg"]
        );
        // Full membership still tracks everything under the cap.
        assert_eq!(engine.members(id).len(), 4);
    }

    #[test]
    fn rebuild_recovers_state_from_the_store() {
        let (mut store, g) = tiny_store();
        let mut engine = StandingQueryEngine::new();
        let id = engine.register(
            &store,
            &AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3),
        );
        // Mutate the store behind the engine's back (a crash-recovery
        // replay restores the store without engine deltas) ...
        for t in picture_triples(2, 0.1, None) {
            store.insert(&t, g);
        }
        assert_eq!(engine.links(id).len(), 1, "engine is stale");
        // ... then one rebuild restores the invariant.
        engine.rebuild(&store);
        assert_eq!(engine.links(id), engine.spec(id).execute(&store).unwrap());
        assert_eq!(engine.links(id).len(), 2);
    }

    /// Routing, not re-evaluation: the support evaluations one delta
    /// triggers are set by the albums it can affect, not by how many
    /// are registered. Monuments stand 10 km apart, so an upload at the
    /// first is out of every other album's radius.
    #[test]
    fn evaluations_per_delta_do_not_grow_with_registered_albums() {
        let uploads = 10;
        let mut evals_per_upload = Vec::new();
        for albums in [10, 1000] {
            let mut store = Store::new();
            let g = store.default_graph();
            let mut engine = StandingQueryEngine::new();
            for i in 0..albums {
                let monument = format!("http://dbpedia.org/resource/Monument_{i}");
                let label = Literal::lang(format!("Monument {i}"), "it").unwrap();
                let anchor = mole().offset_km(0.0, 10.0 * i as f64);
                for (pred, object) in [
                    (ns::iri::rdfs_label(), label),
                    (ns::iri::geo_geometry(), anchor.to_literal()),
                ] {
                    store.insert(
                        &Triple::spo(&monument, pred.as_str(), Term::Literal(object)),
                        g,
                    );
                }
            }
            for i in 0..albums {
                let spec = AlbumSpec::near_monument(&format!("Monument {i}"), "it", 1.0);
                engine.register(&store, &spec);
            }
            let registered = engine.stats();
            for n in 0..uploads {
                let additions = picture_triples(n, 0.05, None);
                for t in &additions {
                    store.insert(t, g);
                }
                let diffs = engine.apply(&store, &additions, &[]);
                assert_eq!(diffs.len(), 1, "only the first monument's album moves");
            }
            assert_eq!(engine.links(0).len(), uploads as usize);
            assert_eq!(engine.links(0), engine.spec(0).execute(&store).unwrap());
            let stats = engine.stats();
            assert_eq!(stats.diffs - registered.diffs, uploads as u64);
            evals_per_upload
                .push((stats.resource_evals - registered.resource_evals) / uploads as u64);
        }
        assert!(evals_per_upload[0] >= 1, "guard: uploads are evaluated");
        assert_eq!(
            evals_per_upload[0], evals_per_upload[1],
            "10 vs 1,000 registered albums"
        );
    }
}
