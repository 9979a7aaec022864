//! The triple store facade.
//!
//! Since the MVCC refactor the store is **subject-sharded** and
//! **snapshot-cloneable**: every subject-keyed structure lives in one
//! of N [`crate::shard::Shard`]s behind an [`Arc`], object/predicate
//! side state is Arc-wrapped the same way, and [`Store::clone`] (what
//! [`Store::snapshot`] pins) costs O(shards) reference-count bumps.
//! Mutations go through [`Arc::make_mut`]: the first write after a
//! snapshot copies the touched shard, later writes mutate in place —
//! copy-on-write at shard granularity. Cross-shard reads k-way merge
//! sorted per-shard ranges, so every answer (and every exported byte)
//! is identical for any shard count.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use lodify_rdf::ns::PrefixMap;
use lodify_rdf::{ntriples, turtle, Iri, Point, Term, Triple};

use crate::dict::{Dict, TermId};
use crate::error::StoreError;
use crate::label::is_label_predicate;
use crate::shard::{
    empty_shards, merge_sorted, shard_of, FullTextView, GeoView, LabelView, Shard, DEFAULT_SHARDS,
};
use crate::snapshot::StoreSnapshot;
use crate::stats::Stats;

/// Identifier of a named graph registered in a [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphId(pub u16);

/// Name of the default graph (used when no explicit graph is given).
pub const DEFAULT_GRAPH: &str = "urn:lodify:graph:default";

pub(crate) type Key = crate::shard::Key;

/// Named-graph registry (small; cloned copy-on-write as one unit).
#[derive(Debug, Clone, Default)]
struct GraphTable {
    names: Vec<String>,
    ids: HashMap<String, GraphId>,
}

/// Dictionary-encoded in-memory triple store with subject-sharded
/// SPO/POS/OSP indexes, full-text, label and geo side indexes, and
/// subject-level graph provenance.
///
/// All queries run over the **union** of graphs — exactly how the
/// paper's Virtuoso instance serves SPARQL over the platform data plus
/// the imported DBpedia/Geonames/LinkedGeoData snapshots — while
/// [`Store::graph_of_subject`] exposes the provenance the semantic
/// filter ranks candidates by.
///
/// # Concurrency
///
/// A `Store` value is the *writer's* working version. `Clone` is cheap
/// (O(shards), shares all index payloads) and produces a physically
/// immutable view as of that instant — [`Store::snapshot`] packages
/// exactly that as a [`StoreSnapshot`], which the single writer hands
/// to reader threads while it keeps committing.
#[derive(Debug, Clone)]
pub struct Store {
    dict: Dict,
    /// Subject shards: SPO/POS/OSP + fulltext + labels + geo + provenance.
    shards: Vec<Arc<Shard>>,
    /// Distinct-object sets, sharded by a mix of the object id.
    objects: Vec<Arc<HashSet<TermId>>>,
    graphs: Arc<GraphTable>,
    stats: Arc<Stats>,
    geo_geometry: TermId,
    epoch: u64,
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

impl Store {
    /// Creates an empty store with the default graph registered and
    /// [`DEFAULT_SHARDS`] subject shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty store partitioned into `shards` subject shards
    /// (at least one). Shard count is a physical layout choice: query
    /// answers and exported bytes are identical for every value.
    pub fn with_shards(shards: usize) -> Self {
        let mut dict = Dict::new();
        let geo_geometry = dict.intern(&Term::Iri(lodify_rdf::ns::iri::geo_geometry()));
        let mut store = Store {
            dict,
            shards: empty_shards(shards),
            objects: (0..shards).map(|_| Arc::default()).collect(),
            graphs: Arc::default(),
            stats: Arc::new(Stats::new()),
            geo_geometry,
            epoch: 0,
        };
        store.graph(DEFAULT_GRAPH);
        store
    }

    /// Number of subject shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Pins this store's current state as an immutable
    /// [`StoreSnapshot`] (O(shards) — see [`crate::snapshot`]).
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot::pin_of(self)
    }

    #[inline]
    fn shard_index(&self, subject: TermId) -> usize {
        shard_of(subject, self.shards.len())
    }

    #[inline]
    fn object_index(&self, object: TermId) -> usize {
        shard_of(object, self.objects.len())
    }

    /// Registers (or retrieves) a named graph by IRI/name.
    pub fn graph(&mut self, name: &str) -> GraphId {
        if let Some(&id) = self.graphs.ids.get(name) {
            return id;
        }
        let graphs = Arc::make_mut(&mut self.graphs);
        let id = GraphId(graphs.names.len() as u16);
        graphs.names.push(name.to_string());
        graphs.ids.insert(name.to_string(), id);
        id
    }

    /// The default graph's id.
    pub fn default_graph(&self) -> GraphId {
        GraphId(0)
    }

    /// Name of a registered graph.
    pub fn graph_name(&self, id: GraphId) -> Option<&str> {
        self.graphs.names.get(id.0 as usize).map(String::as_str)
    }

    /// Id of a registered graph, by name.
    pub fn graph_id(&self, name: &str) -> Option<GraphId> {
        self.graphs.ids.get(name).copied()
    }

    /// Number of registered graphs (ids are dense, `0..count`).
    pub fn graph_count(&self) -> usize {
        self.graphs.names.len()
    }

    /// Registered graph names in [`GraphId`] order.
    pub fn graph_names(&self) -> impl Iterator<Item = &str> {
        self.graphs.names.iter().map(String::as_str)
    }

    /// The graph that first introduced `subject`, if any.
    pub fn graph_of_subject(&self, subject: TermId) -> Option<GraphId> {
        self.shards[self.shard_index(subject)]
            .subject_graph
            .get(&subject)
            .copied()
    }

    /// Like [`Store::graph_of_subject`] but resolves from a [`Term`].
    pub fn graph_of_term(&self, term: &Term) -> Option<&str> {
        let id = self.dict.id(term)?;
        let g = self.graph_of_subject(id)?;
        self.graph_name(g)
    }

    /// Inserts one triple into the given graph. Returns `true` when the
    /// statement was new to the (union) store.
    pub fn insert(&mut self, triple: &Triple, graph: GraphId) -> bool {
        let s = self.dict.intern(&triple.subject);
        let p = self.dict.intern(&Term::Iri(triple.predicate.clone()));
        let o = self.dict.intern(&triple.object);
        let si = self.shard_index(s);
        {
            // First mutation after a snapshot publish copies this one
            // shard; everything below then mutates the unique copy.
            let shard = Arc::make_mut(&mut self.shards[si]);
            if !shard.spo.insert((s, p, o)) {
                return false;
            }
            shard.pos.insert((p, o, s));
            shard.osp.insert((o, s, p));
        }
        self.epoch += 1;

        let oi = self.object_index(o);
        let new_object = Arc::make_mut(&mut self.objects[oi]).insert(o);
        let shard = Arc::make_mut(&mut self.shards[si]);
        let new_subject = shard.seen_subjects.insert(s);
        shard.subject_graph.entry(s).or_insert(graph);
        Arc::make_mut(&mut self.stats).record(p, new_subject, new_object);

        if let Term::Literal(lit) = &triple.object {
            let shard = Arc::make_mut(&mut self.shards[si]);
            if p == self.geo_geometry || lit.is_geometry() {
                if let Ok(point) = Point::from_literal(lit) {
                    shard.geo.insert(s, point);
                }
            } else if lit.datatype().is_none() || lit.language().is_some() {
                shard.fulltext.index_literal(s, p, o, lit.value());
                if is_label_predicate(triple.predicate.as_str()) {
                    shard.labels.index_label(s, p, o, lit.value());
                }
            }
        }
        true
    }

    /// Inserts into the default graph.
    pub fn insert_default(&mut self, triple: &Triple) -> bool {
        self.insert(triple, GraphId(0))
    }

    /// Removes a statement from the union store (all indexes). Returns
    /// `true` when the statement was present. Dictionary entries and
    /// subject provenance are retained (ids stay stable).
    pub fn remove(&mut self, triple: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.id(&triple.subject),
            self.dict.id(&Term::Iri(triple.predicate.clone())),
            self.dict.id(&triple.object),
        ) else {
            return false;
        };
        let si = self.shard_index(s);
        {
            let shard = Arc::make_mut(&mut self.shards[si]);
            if !shard.spo.remove(&(s, p, o)) {
                return false;
            }
            shard.pos.remove(&(p, o, s));
            shard.osp.remove(&(o, s, p));
        }
        self.epoch += 1;

        // Keep join-ordering statistics exact under deletes: a term
        // leaves the distinct-subject/object population only when its
        // last statement in that position goes. The subject check is
        // shard-local; the object check spans shards (an object may
        // appear under subjects routed anywhere).
        let subject_gone = self.match_ids(Some(s), None, None).next().is_none();
        let object_gone = self.match_ids(None, None, Some(o)).next().is_none();
        if subject_gone {
            let shard = Arc::make_mut(&mut self.shards[si]);
            shard.seen_subjects.remove(&s);
        }
        if object_gone {
            let oi = self.object_index(o);
            Arc::make_mut(&mut self.objects[oi]).remove(&o);
        }
        Arc::make_mut(&mut self.stats).unrecord(p, subject_gone, object_gone);

        if let Term::Literal(lit) = &triple.object {
            if p == self.geo_geometry || lit.is_geometry() {
                // Only clear the point if no other geometry triple remains.
                if self
                    .match_ids(Some(s), Some(self.geo_geometry), None)
                    .next()
                    .is_none()
                {
                    Arc::make_mut(&mut self.shards[si]).geo.remove(s);
                }
            } else if lit.datatype().is_none() || lit.language().is_some() {
                let shard = Arc::make_mut(&mut self.shards[si]);
                shard.fulltext.remove_literal(s, p, o, lit.value());
                if is_label_predicate(triple.predicate.as_str()) {
                    shard.labels.remove_label(s, p, o, lit.value());
                }
            }
        }
        true
    }

    /// Removes every statement matching `(subject, predicate, *)` and
    /// returns how many were removed. Used when re-deriving a computed
    /// property (e.g. refreshing a picture's `rev:rating`).
    pub fn remove_pattern_sp(&mut self, subject: &Term, predicate: &Iri) -> usize {
        let matches = self.match_terms(Some(subject), Some(predicate), None);
        matches.iter().filter(|t| self.remove(t)).count()
    }

    /// Bulk-loads an N-Triples document into `graph`; returns the
    /// number of *new* statements.
    pub fn load_ntriples(&mut self, text: &str, graph: GraphId) -> Result<usize, StoreError> {
        let triples =
            ntriples::parse_document(text).map_err(|e| StoreError::Load(e.to_string()))?;
        Ok(triples.iter().filter(|t| self.insert(t, graph)).count())
    }

    /// Bulk-loads a Turtle document into `graph`.
    pub fn load_turtle(
        &mut self,
        text: &str,
        prefixes: &PrefixMap,
        graph: GraphId,
    ) -> Result<usize, StoreError> {
        let triples =
            turtle::parse_document(text, prefixes).map_err(|e| StoreError::Load(e.to_string()))?;
        Ok(triples.iter().filter(|t| self.insert(t, graph)).count())
    }

    /// Inserts a batch of triples into `graph`; returns new-statement count.
    pub fn insert_all<'a>(
        &mut self,
        triples: impl IntoIterator<Item = &'a Triple>,
        graph: GraphId,
    ) -> usize {
        triples
            .into_iter()
            .filter(|t| self.insert(t, graph))
            .count()
    }

    /// Whether the union store contains the triple.
    pub fn contains(&self, triple: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.id(&triple.subject),
            self.dict.id(&Term::Iri(triple.predicate.clone())),
            self.dict.id(&triple.object),
        ) else {
            return false;
        };
        self.shards[self.shard_index(s)].spo.contains(&(s, p, o))
    }

    /// Number of statements in the union store.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|sh| sh.spo.len()).sum()
    }

    /// True when no statements are stored.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|sh| sh.spo.is_empty())
    }

    /// The term dictionary.
    pub fn dict(&self) -> &Dict {
        &self.dict
    }

    /// Interns a term (for query-constant preparation).
    pub fn intern(&mut self, term: &Term) -> TermId {
        self.dict.intern(term)
    }

    /// Looks up a term's id without interning.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.dict.id(term)
    }

    /// Resolves an id to its term.
    pub fn term_of(&self, id: TermId) -> Option<&Term> {
        self.dict.term(id)
    }

    /// The full-text index, merged across shards.
    pub fn fulltext(&self) -> FullTextView<'_> {
        FullTextView::over(&self.shards)
    }

    /// The label index (naming literals only, see [`crate::label`]),
    /// merged across shards.
    pub fn labels(&self) -> LabelView<'_> {
        LabelView::over(&self.shards)
    }

    /// The geo index, merged across shards.
    pub fn geo(&self) -> GeoView<'_> {
        GeoView::over(&self.shards)
    }

    /// Join-ordering statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Monotone mutation counter: increments on every *successful*
    /// [`Store::insert`] or [`Store::remove`]. Cached query results are
    /// keyed by this value — equal epochs guarantee equal answers. WAL
    /// recovery replays `insert`/`remove`, so it advances on boot too.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Matches a triple pattern over ids; `None` positions are
    /// wildcards. Results stream as `(s, p, o)` in exactly the order a
    /// single monolithic index would produce: subject-bound shapes scan
    /// one shard, unbound-subject shapes k-way merge the per-shard
    /// sorted ranges.
    pub fn match_ids(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Box<dyn Iterator<Item = Key> + '_> {
        const MIN: TermId = TermId::MIN;
        const MAX: TermId = TermId::MAX;
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                let hit = self.shards[self.shard_index(s)].spo.contains(&(s, p, o));
                Box::new(hit.then_some((s, p, o)).into_iter())
            }
            (Some(s), Some(p), None) => {
                let shard = &self.shards[self.shard_index(s)];
                Box::new(shard.spo.range((s, p, MIN)..=(s, p, MAX)).copied())
            }
            (Some(s), None, None) => {
                let shard = &self.shards[self.shard_index(s)];
                Box::new(shard.spo.range((s, MIN, MIN)..=(s, MAX, MAX)).copied())
            }
            (Some(s), None, Some(o)) => {
                let shard = &self.shards[self.shard_index(s)];
                Box::new(
                    shard
                        .osp
                        .range((o, s, MIN)..=(o, s, MAX))
                        .map(|&(o, s, p)| (s, p, o)),
                )
            }
            (None, Some(p), Some(o)) => Box::new(
                merge_sorted(
                    self.shards
                        .iter()
                        .map(|sh| sh.pos.range((p, o, MIN)..=(p, o, MAX)).copied())
                        .collect(),
                )
                .map(|(p, o, s)| (s, p, o)),
            ),
            (None, Some(p), None) => Box::new(
                merge_sorted(
                    self.shards
                        .iter()
                        .map(|sh| sh.pos.range((p, MIN, MIN)..=(p, MAX, MAX)).copied())
                        .collect(),
                )
                .map(|(p, o, s)| (s, p, o)),
            ),
            (None, None, Some(o)) => Box::new(
                merge_sorted(
                    self.shards
                        .iter()
                        .map(|sh| sh.osp.range((o, MIN, MIN)..=(o, MAX, MAX)).copied())
                        .collect(),
                )
                .map(|(o, s, p)| (s, p, o)),
            ),
            (None, None, None) => Box::new(merge_sorted(
                self.shards
                    .iter()
                    .map(|sh| sh.spo.iter().copied())
                    .collect(),
            )),
        }
    }

    /// Term-level pattern matching; convenient for tests and tooling.
    pub fn match_terms(&self, s: Option<&Term>, p: Option<&Iri>, o: Option<&Term>) -> Vec<Triple> {
        let resolve = |t: Option<&Term>| -> Option<Option<TermId>> {
            match t {
                None => Some(None),
                Some(term) => self.dict.id(term).map(Some),
            }
        };
        let Some(s_id) = resolve(s) else {
            return Vec::new();
        };
        let Some(p_id) = resolve(p.map(|i| Term::Iri(i.clone())).as_ref()) else {
            return Vec::new();
        };
        let Some(o_id) = resolve(o) else {
            return Vec::new();
        };
        self.match_ids(s_id, p_id, o_id)
            .filter_map(|(s, p, o)| {
                let subject = self.dict.term(s)?.clone();
                let predicate = self.dict.term(p)?.as_iri()?.clone();
                let object = self.dict.term(o)?.clone();
                Some(Triple::new_unchecked(subject, predicate, object))
            })
            .collect()
    }

    /// Count of statements matching a pattern without materializing.
    pub fn count_pattern(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        self.match_ids(s, p, o).count()
    }

    /// Iterates every statement as a resolved [`Triple`], in SPO order.
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.match_ids(None, None, None).filter_map(|(s, p, o)| {
            Some(Triple::new_unchecked(
                self.dict.term(s)?.clone(),
                self.dict.term(p)?.as_iri()?.clone(),
                self.dict.term(o)?.clone(),
            ))
        })
    }

    /// Streams the union store (or one named graph) as N-Triples into
    /// any [`fmt::Write`] sink — a `String`, a growable buffer behind
    /// an HTTP response, a line counter — without materializing the
    /// whole document.
    pub fn export_ntriples_to(
        &self,
        out: &mut impl fmt::Write,
        graph: Option<GraphId>,
    ) -> fmt::Result {
        for (s, p, o) in self.match_ids(None, None, None) {
            if let Some(g) = graph {
                if self.graph_of_subject(s) != Some(g) {
                    continue;
                }
            }
            let (Some(subject), Some(predicate), Some(object)) = (
                self.dict.term(s),
                self.dict.term(p).and_then(Term::as_iri),
                self.dict.term(o),
            ) else {
                continue;
            };
            writeln!(out, "{subject} {predicate} {object} .")?;
        }
        Ok(())
    }

    /// Serializes the union store (or one named graph) to N-Triples —
    /// the paper's "semantic platform offering Linked Data
    /// functionalities and running locally" needs its data exportable.
    /// Allocating convenience over [`Store::export_ntriples_to`].
    pub fn export_ntriples(&self, graph: Option<GraphId>) -> String {
        let mut out = String::new();
        self.export_ntriples_to(&mut out, graph)
            .expect("writing to a String cannot fail");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_rdf::ns;
    use lodify_rdf::Literal;

    fn triple(s: &str, p: &str, o: Term) -> Triple {
        Triple::spo(s, p, o)
    }

    fn sample_store() -> Store {
        let mut store = Store::new();
        let ugc = store.graph("urn:g:ugc");
        let dbp = store.graph("urn:g:dbpedia");
        store.insert(
            &triple(
                "http://t/pic1",
                ns::iri::rdf_type().as_str(),
                Term::Iri(ns::iri::microblog_post()),
            ),
            ugc,
        );
        store.insert(
            &triple(
                "http://t/pic1",
                ns::iri::rdfs_label().as_str(),
                Term::Literal(Literal::lang("Mole Antonelliana", "it").unwrap()),
            ),
            ugc,
        );
        store.insert(
            &triple(
                "http://t/pic1",
                ns::iri::geo_geometry().as_str(),
                Term::Literal(Point::new(7.6933, 45.0692).unwrap().to_literal()),
            ),
            ugc,
        );
        store.insert(
            &triple(
                "http://dbpedia.org/resource/Turin",
                ns::iri::rdfs_label().as_str(),
                Term::Literal(Literal::lang("Torino", "it").unwrap()),
            ),
            dbp,
        );
        store
    }

    #[test]
    fn insert_dedups() {
        let mut store = Store::new();
        let t = triple("http://s", "http://p", Term::literal("v"));
        assert!(store.insert_default(&t));
        assert!(!store.insert_default(&t));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn pattern_shapes_all_work() {
        let store = sample_store();
        let s = store.id_of(&Term::iri_unchecked("http://t/pic1")).unwrap();
        let p = store.id_of(&Term::Iri(ns::iri::rdfs_label())).unwrap();
        let o = store
            .id_of(&Term::Literal(Literal::lang("Torino", "it").unwrap()))
            .unwrap();

        assert_eq!(store.count_pattern(Some(s), None, None), 3);
        assert_eq!(store.count_pattern(Some(s), Some(p), None), 1);
        assert_eq!(store.count_pattern(None, Some(p), None), 2);
        assert_eq!(store.count_pattern(None, Some(p), Some(o)), 1);
        assert_eq!(store.count_pattern(None, None, Some(o)), 1);
        assert_eq!(store.count_pattern(None, None, None), 4);
        // s+o bound, p wildcard
        let turin = store
            .id_of(&Term::iri_unchecked("http://dbpedia.org/resource/Turin"))
            .unwrap();
        assert_eq!(store.count_pattern(Some(turin), None, Some(o)), 1);
        // fully bound
        assert_eq!(store.count_pattern(Some(turin), Some(p), Some(o)), 1);
        assert_eq!(store.count_pattern(Some(s), Some(p), Some(o)), 0);
    }

    #[test]
    fn match_terms_resolves() {
        let store = sample_store();
        let hits = store.match_terms(None, Some(&ns::iri::rdfs_label()), None);
        assert_eq!(hits.len(), 2);
        let none = store.match_terms(Some(&Term::iri_unchecked("http://absent")), None, None);
        assert!(none.is_empty());
    }

    #[test]
    fn geometry_objects_feed_geo_index() {
        let store = sample_store();
        assert_eq!(store.geo().len(), 1);
        let center = Point::new(7.6933, 45.0692).unwrap();
        assert_eq!(store.geo().within_km(center, 0.1).len(), 1);
    }

    #[test]
    fn string_literals_feed_fulltext_index() {
        let store = sample_store();
        assert_eq!(store.fulltext().search_word("antonelliana").len(), 1);
        assert_eq!(store.fulltext().search_word("torino").len(), 1);
        // Geometry literals must not be text-indexed.
        assert!(store.fulltext().search_word("point").is_empty());
    }

    #[test]
    fn graph_provenance_tracks_first_graph() {
        let store = sample_store();
        assert_eq!(
            store.graph_of_term(&Term::iri_unchecked("http://t/pic1")),
            Some("urn:g:ugc")
        );
        assert_eq!(
            store.graph_of_term(&Term::iri_unchecked("http://dbpedia.org/resource/Turin")),
            Some("urn:g:dbpedia")
        );
        assert_eq!(
            store.graph_of_term(&Term::iri_unchecked("http://absent")),
            None
        );
    }

    #[test]
    fn load_ntriples_counts_new_statements() {
        let mut store = Store::new();
        let g = store.default_graph();
        let doc = "<http://s> <http://p> \"v\" .\n<http://s> <http://p> \"v\" .\n";
        assert_eq!(store.load_ntriples(doc, g).unwrap(), 1);
        assert!(store.load_ntriples("garbage", g).is_err());
    }

    #[test]
    fn load_turtle_works() {
        let mut store = Store::new();
        let g = store.default_graph();
        let prefixes = PrefixMap::with_defaults();
        let doc = "@prefix ex: <http://e/> .\nex:s a sioct:MicroblogPost .";
        assert_eq!(store.load_turtle(doc, &prefixes, g).unwrap(), 1);
        assert!(store.contains(&triple(
            "http://e/s",
            ns::iri::rdf_type().as_str(),
            Term::Iri(ns::iri::microblog_post()),
        )));
    }

    #[test]
    fn remove_clears_all_indexes() {
        let mut store = sample_store();
        let label_triple = triple(
            "http://t/pic1",
            ns::iri::rdfs_label().as_str(),
            Term::Literal(Literal::lang("Mole Antonelliana", "it").unwrap()),
        );
        assert!(store.remove(&label_triple));
        assert!(!store.remove(&label_triple), "second remove is a no-op");
        assert!(!store.contains(&label_triple));
        assert!(store.fulltext().search_word("antonelliana").is_empty());

        let geom_triple = triple(
            "http://t/pic1",
            ns::iri::geo_geometry().as_str(),
            Term::Literal(Point::new(7.6933, 45.0692).unwrap().to_literal()),
        );
        assert!(store.remove(&geom_triple));
        assert_eq!(store.geo().len(), 0);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn remove_pattern_sp_clears_all_objects() {
        let mut store = Store::new();
        let g = store.default_graph();
        let s = Term::iri_unchecked("http://pic");
        let pred = ns::iri::rev_rating();
        for v in [3, 4] {
            store.insert(
                &Triple::new_unchecked(s.clone(), pred.clone(), Term::Literal(Literal::integer(v))),
                g,
            );
        }
        assert_eq!(store.remove_pattern_sp(&s, &pred), 2);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn remove_unwinds_statistics() {
        let mut store = Store::new();
        let g = store.default_graph();
        let label = ns::iri::rdfs_label();
        let t1 = triple("http://a", label.as_str(), Term::literal("one"));
        let t2 = triple("http://a", label.as_str(), Term::literal("two"));
        let t3 = triple("http://b", label.as_str(), Term::literal("one"));
        store.insert(&t1, g);
        store.insert(&t2, g);
        store.insert(&t3, g);
        let p = store.id_of(&Term::Iri(label.clone())).unwrap();
        assert_eq!(store.stats().total(), 3);
        assert_eq!(store.stats().predicate_count(p), 3);

        // "http://a" keeps a statement, so only the object "two" leaves
        // the distinct populations.
        store.remove(&t2);
        assert_eq!(store.stats().total(), 2);
        assert_eq!(store.stats().predicate_count(p), 2);
        assert_eq!(store.stats().estimate(false, Some(p), false), 2.0);

        // Removing the rest must drain the stats back to empty — the
        // drift this guards against made estimates grow monotonically.
        store.remove(&t1);
        store.remove(&t3);
        assert_eq!(store.stats().total(), 0);
        assert_eq!(store.stats().predicate_count(p), 0);
        assert_eq!(store.stats().estimate(false, Some(p), false), 0.0);

        // Re-inserting counts the terms as distinct again, exactly once.
        store.insert(&t1, g);
        assert_eq!(store.stats().total(), 1);
        assert_eq!(store.stats().predicate_count(p), 1);
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let store = sample_store();
        let dump = store.export_ntriples(None);
        let mut reloaded = Store::new();
        let g = reloaded.default_graph();
        assert_eq!(reloaded.load_ntriples(&dump, g).unwrap(), store.len());
        assert_eq!(reloaded.len(), store.len());
        // Per-graph export only carries that graph's subjects.
        let ugc = store.graph_id("urn:g:ugc").unwrap();
        let partial = store.export_ntriples(Some(ugc));
        assert!(partial.contains("http://t/pic1"));
        assert!(!partial.contains("dbpedia.org"));
    }

    #[test]
    fn streaming_export_matches_the_allocating_one() {
        let store = sample_store();
        let mut streamed = String::new();
        store.export_ntriples_to(&mut streamed, None).unwrap();
        assert_eq!(streamed, store.export_ntriples(None));

        // Any fmt::Write sink works — count lines without buffering.
        struct LineCount(usize);
        impl std::fmt::Write for LineCount {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.0 += s.bytes().filter(|&b| b == b'\n').count();
                Ok(())
            }
        }
        let mut sink = LineCount(0);
        store.export_ntriples_to(&mut sink, None).unwrap();
        assert_eq!(sink.0, store.len());
    }

    #[test]
    fn epoch_advances_only_on_effective_mutations() {
        let mut store = Store::new();
        let g = store.default_graph();
        assert_eq!(store.epoch(), 0);
        let t = triple("http://s", "http://p", Term::literal("v"));
        assert!(store.insert(&t, g));
        assert_eq!(store.epoch(), 1);
        // Duplicate insert and no-op remove leave the epoch alone.
        assert!(!store.insert(&t, g));
        assert!(!store.remove(&triple("http://s", "http://p", Term::literal("absent"))));
        assert_eq!(store.epoch(), 1);
        assert!(store.remove(&t));
        assert_eq!(store.epoch(), 2);
    }

    #[test]
    fn graph_registration_is_idempotent() {
        let mut store = Store::new();
        let a = store.graph("urn:g:x");
        let b = store.graph("urn:g:x");
        assert_eq!(a, b);
        assert_eq!(store.graph_name(a), Some("urn:g:x"));
        assert_eq!(store.graph_name(GraphId(99)), None);
    }

    /// Builds a store with a deterministic mixed workload — inserts,
    /// duplicates, removals, fulltext literals, geometry — used to
    /// assert layout invariance across shard counts.
    fn mixed_workload(shards: usize) -> Store {
        let mut store = Store::with_shards(shards);
        let ugc = store.graph("urn:g:ugc");
        let dbp = store.graph("urn:g:dbpedia");
        for i in 0..120u64 {
            let g = if i % 3 == 0 { dbp } else { ugc };
            store.insert(
                &triple(
                    &format!("http://t/user{}/pic{i}", i % 7),
                    ns::iri::rdfs_label().as_str(),
                    Term::literal(format!("label number {i} torino")),
                ),
                g,
            );
            if i % 4 == 0 {
                store.insert(
                    &triple(
                        &format!("http://t/user{}/pic{i}", i % 7),
                        ns::iri::geo_geometry().as_str(),
                        Term::Literal(
                            Point::new(7.0 + (i as f64) * 0.01, 45.0)
                                .unwrap()
                                .to_literal(),
                        ),
                    ),
                    ugc,
                );
            }
            if i % 5 == 0 {
                // Shared objects across subjects (cross-shard).
                store.insert(
                    &triple(
                        &format!("http://t/user{}/pic{i}", i % 7),
                        ns::iri::rdf_type().as_str(),
                        Term::Iri(ns::iri::microblog_post()),
                    ),
                    ugc,
                );
            }
        }
        // Removals, including ones that drain subjects/objects.
        for i in (0..120u64).step_by(6) {
            store.remove(&triple(
                &format!("http://t/user{}/pic{i}", i % 7),
                ns::iri::rdfs_label().as_str(),
                Term::literal(format!("label number {i} torino")),
            ));
        }
        store
    }

    #[test]
    fn shard_count_is_invisible_to_every_read_path() {
        let one = mixed_workload(1);
        let four = mixed_workload(4);
        let sixteen = mixed_workload(16);
        assert_eq!(one.shard_count(), 1);
        assert_eq!(sixteen.shard_count(), 16);

        // Byte-identical exports (global SPO order via k-way merge).
        let dump = one.export_ntriples(None);
        assert_eq!(dump, four.export_ntriples(None));
        assert_eq!(dump, sixteen.export_ntriples(None));

        // Epochs, stats, side indexes.
        assert_eq!(one.epoch(), sixteen.epoch());
        assert_eq!(one.stats().total(), sixteen.stats().total());
        assert_eq!(
            one.fulltext().search_word("torino"),
            sixteen.fulltext().search_word("torino")
        );
        assert_eq!(
            one.fulltext().search_prefix("lab", 10),
            sixteen.fulltext().search_prefix("lab", 10)
        );
        let center = Point::new(7.3, 45.0).unwrap();
        assert_eq!(
            one.geo().within_km(center, 50.0),
            sixteen.geo().within_km(center, 50.0)
        );

        // Pattern shapes agree with the single-shard oracle.
        let p = one.id_of(&Term::Iri(ns::iri::rdfs_label())).unwrap();
        assert_eq!(
            one.match_ids(None, Some(p), None).collect::<Vec<_>>(),
            sixteen.match_ids(None, Some(p), None).collect::<Vec<_>>()
        );
        assert_eq!(
            one.match_ids(None, None, None).collect::<Vec<_>>(),
            sixteen.match_ids(None, None, None).collect::<Vec<_>>()
        );
    }

    #[test]
    fn snapshot_clone_shares_until_write() {
        let mut store = mixed_workload(8);
        let snap = store.snapshot();
        let before = snap.export_ntriples(None);
        // Heavy mutation after the pin.
        for i in 0..50u64 {
            store.insert_default(&triple(
                &format!("http://new/{i}"),
                "http://p",
                Term::literal(format!("v{i}")),
            ));
        }
        assert_eq!(snap.export_ntriples(None), before);
        assert_eq!(store.len(), snap.len() + 50);
    }

    #[test]
    fn label_index_follows_inserts_and_removes() {
        let mut store = sample_store();
        let pic = store.id_of(&Term::iri("http://t/pic1").unwrap()).unwrap();
        let turin = store
            .id_of(&Term::iri("http://dbpedia.org/resource/Turin").unwrap())
            .unwrap();
        let subjects = |postings: Vec<crate::fulltext::Posting>| -> Vec<TermId> {
            postings.iter().map(|p| p.subject).collect()
        };
        assert_eq!(subjects(store.labels().exact("mole antonelliana")), [pic]);
        assert_eq!(subjects(store.labels().token("antonelliana")), [pic]);
        assert_eq!(subjects(store.labels().exact("torino")), [turin]);
        // Only naming predicates are labels, and only whole labels
        // match exactly.
        store.insert_default(&triple(
            "http://t/pic2",
            ns::DBPO.iri("abstract").as_str(),
            Term::literal("Torino"),
        ));
        assert_eq!(subjects(store.labels().exact("torino")), [turin]);
        assert!(store.labels().exact("mole").is_empty());
        assert_eq!(store.fulltext().search_word("torino").len(), 2);

        let label_triple = triple(
            "http://t/pic1",
            ns::iri::rdfs_label().as_str(),
            Term::Literal(Literal::lang("Mole Antonelliana", "it").unwrap()),
        );
        assert!(store.remove(&label_triple));
        assert!(store.labels().exact("mole antonelliana").is_empty());
        assert!(store.labels().token("mole").is_empty());
        assert!(store.insert_default(&label_triple));
        assert_eq!(subjects(store.labels().token("mole")), [pic]);

        // A label with no tokens is in neither index, and removing it
        // leaves both as they were.
        let blank = triple(
            "http://t/pic3",
            ns::iri::foaf_name().as_str(),
            Term::literal("¡ — !"),
        );
        assert!(store.insert_default(&blank));
        assert!(store.labels().exact("¡ — !").is_empty());
        assert!(store.remove(&blank));
        assert_eq!(subjects(store.labels().token("mole")), [pic]);
        // A typed literal is not a label either.
        store.insert_default(&triple(
            "http://t/pic4",
            ns::iri::rdfs_label().as_str(),
            Term::Literal(Literal::integer(7)),
        ));
        assert!(store.labels().exact("7").is_empty());
    }

    #[test]
    fn a_pinned_snapshot_keeps_its_labels() {
        let mut store = mixed_workload(4);
        let snap = store.snapshot();
        let before = snap.labels().token("torino");
        store.insert_default(&triple(
            "http://t/late",
            ns::iri::rdfs_label().as_str(),
            Term::literal("Torino Porta Nuova"),
        ));
        store.remove(&triple(
            "http://t/user1/pic1",
            ns::iri::rdfs_label().as_str(),
            Term::literal("label number 1 torino"),
        ));
        assert_eq!(snap.labels().token("torino"), before);
        assert!(snap.labels().exact("torino porta nuova").is_empty());
        assert_eq!(store.labels().exact("torino porta nuova").len(), 1);
        assert_eq!(store.labels().token("torino").len(), before.len());
    }

    #[test]
    fn label_lookups_are_shard_count_invariant() {
        let one = mixed_workload(1);
        let four = mixed_workload(4);
        let sixteen = mixed_workload(16);
        for token in ["torino", "label", "number", "7", "absent"] {
            let expected = one.labels().token(token);
            assert_eq!(four.labels().token(token), expected, "{token}");
            assert_eq!(sixteen.labels().token(token), expected, "{token}");
        }
        for label in ["label number 7 torino", "label number 6 torino", "torino"] {
            let expected = one.labels().exact(label);
            assert_eq!(four.labels().exact(label), expected, "{label}");
            assert_eq!(sixteen.labels().exact(label), expected, "{label}");
        }
        // Removed labels are gone; kept ones are found, and postings
        // come back in posting order.
        assert!(one.labels().exact("label number 6 torino").is_empty());
        assert_eq!(one.labels().exact("label number 7 torino").len(), 1);
        let postings = sixteen.labels().token("torino");
        assert_eq!(postings.len(), 100);
        assert!(postings.windows(2).all(|w| w[0] < w[1]));
    }
}
