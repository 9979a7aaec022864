//! Entity resolvers.
//!
//! §2.2.2: "This component is assisted by a set of resolvers that
//! perform full-text or term-based analysis … Resolvers may be domain-
//! or language-specific, or general purpose." The paper's set — DBpedia
//! (optimized to SPARQL, following redirects, skipping disambiguation
//! pages, with native scoring), Sindice, Evri and Zemanta — is
//! reproduced here over the synthetic LOD snapshots.
//!
//! Every resolver looks terms up in the store's label index
//! ([`lodify_store::label`]), the gazetteer-annotation design of
//! Slimani's survey: the label dictionary is kept compiled, not
//! re-scanned per term. An exact match (Geonames, and Evri and Zemanta
//! on a term or on each 1–3-token window of a title) is one hash probe
//! on the lowercased term; a fuzzy match (DBpedia, Sindice) walks the
//! label postings of the term's first token and keeps labels holding
//! every term token. A graph filter compares one `GraphId` per posting,
//! and the predicates read per candidate are resolved to ids once per
//! call. The index lives in the store's shards, so a pinned snapshot is
//! never stale against it.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use lodify_rdf::{ns, Iri, Term};
use lodify_store::fulltext::tokenize;
use lodify_store::{Store, TermId};

use crate::datasets::{GRAPH_DBPEDIA, GRAPH_GEONAMES};

/// Which LOD graph a candidate resource belongs to. The semantic
/// filter ranks by this (§2.2.2: "we associate priorities with graphs
/// and not with the resolvers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SourceGraph {
    /// Geonames — highest priority.
    Geonames,
    /// DBpedia — second.
    DBpedia,
    /// Evri entities — third.
    Evri,
    /// Anything else — discarded by the filter.
    Other,
}

impl SourceGraph {
    /// Classifies a store graph name.
    pub fn from_graph_name(name: &str) -> SourceGraph {
        match name {
            GRAPH_GEONAMES => SourceGraph::Geonames,
            GRAPH_DBPEDIA => SourceGraph::DBpedia,
            _ => SourceGraph::Other,
        }
    }
}

/// A candidate LOD resource for a term.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The resource IRI (redirects already followed).
    pub resource: Iri,
    /// The label that matched the term.
    pub label: String,
    /// Source graph.
    pub graph: SourceGraph,
    /// Resolver-native score, normalized to [0, 1]; 1.0 is the
    /// resolver's top-ranked candidate.
    pub score: f64,
    /// `rdf:type`s of the resource.
    pub types: Vec<Iri>,
    /// Which resolver produced it.
    pub resolver: &'static str,
}

/// Resolver failure (simulating a web service outage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolverError {
    /// Resolver name.
    pub resolver: &'static str,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ResolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "resolver {} failed: {}", self.resolver, self.message)
    }
}

impl std::error::Error for ResolverError {}

/// A term/full-text entity resolver.
pub trait Resolver: Send + Sync {
    /// Resolver name (diagnostics and ablations).
    fn name(&self) -> &'static str;

    /// Term-based resolution: candidates for one (multi)word.
    fn resolve_term(
        &self,
        store: &Store,
        term: &str,
        lang: Option<&str>,
    ) -> Result<Vec<Candidate>, ResolverError>;

    /// Full-text resolution over the whole title ("in some cases Named
    /// Entity Recognition would benefit from the original context (the
    /// whole title)"). Default: nothing.
    fn resolve_fulltext(
        &self,
        _store: &Store,
        _text: &str,
        _lang: Option<&str>,
    ) -> Result<Vec<Candidate>, ResolverError> {
        Ok(Vec::new())
    }
}

// ---------------------------------------------------------------------
// shared lookup machinery
// ---------------------------------------------------------------------

/// How a term is matched against entity labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LabelMatch {
    /// Label equals the term, case-insensitively.
    Exact,
    /// Every token of the term occurs in the label — the fuzzy
    /// lookup-service behaviour the Jaro–Winkler rule exists to prune
    /// ("mole" also surfaces "Mole Antonelliana").
    Fuzzy,
}

/// A label lookup: `(subject, label)` pairs whose label matches the
/// term, restricted to subjects of the named graph when one is given.
/// Resolvers take it as a parameter so tests can run them over the
/// reference posting walk as well as over the label index.
type Lookup = fn(&Store, &str, Option<&str>, LabelMatch) -> Vec<(TermId, String)>;

/// Subjects (in `graph_filter`, if given) whose **label** matches
/// `term` under the given matching mode, via the store's label index:
/// an exact match is one hash probe on the lowercased term, a fuzzy
/// match walks the label postings of the term's first token. Index
/// keys are hashes, so every hit's literal is checked here.
fn subjects_with_label(
    store: &Store,
    term: &str,
    graph_filter: Option<&str>,
    mode: LabelMatch,
) -> Vec<(TermId, String)> {
    let term_tokens = tokenize(term);
    let Some(first) = term_tokens.first() else {
        return Vec::new();
    };
    let graph = match graph_filter {
        Some(name) => match store.graph_id(name) {
            Some(id) => Some(id),
            None => return Vec::new(),
        },
        None => None,
    };
    let term_lower = term.to_lowercase();
    let postings = match mode {
        LabelMatch::Exact => store.labels().exact(&term_lower),
        LabelMatch::Fuzzy => store.labels().token(first),
    };
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for posting in postings {
        // One literal under two naming predicates is one label.
        if !seen.insert((posting.subject, posting.object)) {
            continue;
        }
        if graph.is_some() && store.graph_of_subject(posting.subject) != graph {
            continue;
        }
        let Some(Term::Literal(lit)) = store.term_of(posting.object) else {
            continue;
        };
        let matched = match mode {
            LabelMatch::Exact => lit.value().to_lowercase() == term_lower,
            LabelMatch::Fuzzy => {
                let label_tokens = tokenize(lit.value());
                term_tokens.iter().all(|t| label_tokens.contains(t))
            }
        };
        if matched {
            out.push((posting.subject, lit.value().to_string()));
        }
    }
    out
}

/// The predicates read per candidate, resolved to dictionary ids once
/// per resolver (or filter) call instead of once per candidate.
pub(crate) struct Vocab {
    rdf_type: Option<TermId>,
    redirects: Option<TermId>,
    disambiguates: Option<TermId>,
}

impl Vocab {
    pub(crate) fn of(store: &Store) -> Vocab {
        let id = |iri: Iri| store.id_of(&Term::Iri(iri));
        Vocab {
            rdf_type: id(ns::iri::rdf_type()),
            redirects: id(ns::iri::dbpo_redirects()),
            disambiguates: id(ns::iri::dbpo_disambiguates()),
        }
    }

    fn types_of(&self, store: &Store, subject: TermId) -> Vec<Iri> {
        let Some(type_pred) = self.rdf_type else {
            return Vec::new();
        };
        store
            .match_ids(Some(subject), Some(type_pred), None)
            .filter_map(|(_, _, o)| store.term_of(o)?.as_iri().cloned())
            .collect()
    }

    /// Follows `dbpo:wikiPageRedirects` (one hop; the snapshots have no
    /// chains). The semantic filter's validation step uses it too, to
    /// normalize redirect pages handed over by dumb resolvers (Sindice).
    pub(crate) fn follow_redirect(&self, store: &Store, subject: TermId) -> TermId {
        let Some(pred) = self.redirects else {
            return subject;
        };
        store
            .match_ids(Some(subject), Some(pred), None)
            .map(|(_, _, o)| o)
            .next()
            .unwrap_or(subject)
    }

    /// Whether the subject is a disambiguation page.
    pub(crate) fn is_disambiguation(&self, store: &Store, subject: TermId) -> bool {
        let Some(pred) = self.disambiguates else {
            return false;
        };
        store
            .match_ids(Some(subject), Some(pred), None)
            .next()
            .is_some()
    }
}

fn subject_iri(store: &Store, subject: TermId) -> Option<Iri> {
    store.term_of(subject)?.as_iri().cloned()
}

fn int_object(store: &Store, subject: TermId, pred: Option<TermId>) -> Option<i64> {
    store
        .match_ids(Some(subject), Some(pred?), None)
        .find_map(|(_, _, o)| store.term_of(o)?.as_literal()?.as_i64())
}

// ---------------------------------------------------------------------
// DBpedia
// ---------------------------------------------------------------------

/// The DBpedia resolver: "DBpedia query has been optimized to rely on
/// SPARQL rather than its lookup service … full-text support, as well
/// as additional filters e.g. based on language, entity type & native
/// scoring. The query also follows resource redirections" (§2.2.2).
#[derive(Debug, Default)]
pub struct DbpediaResolver;

impl Resolver for DbpediaResolver {
    fn name(&self) -> &'static str {
        "dbpedia"
    }

    fn resolve_term(
        &self,
        store: &Store,
        term: &str,
        _lang: Option<&str>,
    ) -> Result<Vec<Candidate>, ResolverError> {
        Ok(dbpedia_term(store, term, subjects_with_label))
    }
}

fn dbpedia_term(store: &Store, term: &str, lookup: Lookup) -> Vec<Candidate> {
    let vocab = Vocab::of(store);
    let term_tokens = tokenize(term);
    let mut raw: Vec<(TermId, String)> = Vec::new();
    for (subject, label) in lookup(store, term, Some(GRAPH_DBPEDIA), LabelMatch::Fuzzy) {
        let canonical = vocab.follow_redirect(store, subject);
        if vocab.is_disambiguation(store, canonical) {
            continue; // the resolver's own disambiguation check
        }
        raw.push((canonical, label));
    }

    // Native scoring, lookup-service style: relevance (how much of
    // the matched label the term covers; exact match = 1) blended
    // with popularity (refCount). Only an exact-label match on the
    // most-referenced resource reaches the *maximum* score of 1.0 —
    // the case the filter's JW exemption refers to.
    let ref_pred = store.id_of(&Term::Iri(crate::datasets::ref_count_pred()));
    let counts: Vec<i64> = raw
        .iter()
        .map(|(s, _)| int_object(store, *s, ref_pred).unwrap_or(1))
        .collect();
    let max_count = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut scored: Vec<(TermId, String, f64)> = raw
        .into_iter()
        .zip(counts)
        .map(|((subject, label), count)| {
            let label_tokens = tokenize(&label);
            let relevance = term_tokens.len() as f64 / label_tokens.len().max(1) as f64;
            let relevance = relevance.min(1.0);
            let popularity = count as f64 / max_count as f64;
            (subject, label, relevance * (0.5 + 0.5 * popularity))
        })
        .collect();
    // Dedup by resource, keeping the best-scored (subject, label).
    scored.sort_by(|a, b| a.0.cmp(&b.0).then(b.2.total_cmp(&a.2)));
    scored.dedup_by_key(|(s, _, _)| *s);

    scored
        .into_iter()
        .filter_map(|(subject, label, score)| {
            Some(Candidate {
                resource: subject_iri(store, subject)?,
                label,
                graph: SourceGraph::DBpedia,
                score,
                types: vocab.types_of(store, subject),
                resolver: "dbpedia",
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Geonames
// ---------------------------------------------------------------------

/// The Geonames resolver: location names only, scored by population.
#[derive(Debug, Default)]
pub struct GeonamesResolver;

impl Resolver for GeonamesResolver {
    fn name(&self) -> &'static str {
        "geonames"
    }

    fn resolve_term(
        &self,
        store: &Store,
        term: &str,
        _lang: Option<&str>,
    ) -> Result<Vec<Candidate>, ResolverError> {
        Ok(geonames_term(store, term, subjects_with_label))
    }
}

fn geonames_term(store: &Store, term: &str, lookup: Lookup) -> Vec<Candidate> {
    let vocab = Vocab::of(store);
    let mut raw = lookup(store, term, Some(GRAPH_GEONAMES), LabelMatch::Exact);
    raw.sort_by_key(|(s, _)| *s);
    raw.dedup_by(|a, b| a.0 == b.0);
    let pop_pred = store.id_of(&Term::Iri(ns::GN.iri("population")));
    let pops: Vec<i64> = raw
        .iter()
        .map(|(s, _)| int_object(store, *s, pop_pred).unwrap_or(1))
        .collect();
    let max = pops.iter().copied().max().unwrap_or(1).max(1);
    raw.into_iter()
        .zip(pops)
        .filter_map(|((subject, label), pop)| {
            Some(Candidate {
                resource: subject_iri(store, subject)?,
                label,
                graph: SourceGraph::Geonames,
                score: pop as f64 / max as f64,
                types: vocab.types_of(store, subject),
                resolver: "geonames",
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Sindice
// ---------------------------------------------------------------------

/// The Sindice resolver: a dumb cross-graph index. "for some resolvers,
/// e.g. Sindice, candidate resources may refer to various ontologies"
/// (§2.2.2). It performs **no** redirect following or disambiguation
/// checking — downstream validation has to cope.
#[derive(Debug, Default)]
pub struct SindiceResolver;

impl Resolver for SindiceResolver {
    fn name(&self) -> &'static str {
        "sindice"
    }

    fn resolve_term(
        &self,
        store: &Store,
        term: &str,
        _lang: Option<&str>,
    ) -> Result<Vec<Candidate>, ResolverError> {
        Ok(sindice_term(store, term, subjects_with_label))
    }
}

fn sindice_term(store: &Store, term: &str, lookup: Lookup) -> Vec<Candidate> {
    let vocab = Vocab::of(store);
    let mut raw = lookup(store, term, None, LabelMatch::Fuzzy);
    raw.sort_by_key(|(s, _)| *s);
    raw.dedup_by(|a, b| a.0 == b.0);
    raw.into_iter()
        .filter_map(|(subject, label)| {
            let graph = store
                .graph_of_subject(subject)
                .and_then(|g| store.graph_name(g))
                .map(SourceGraph::from_graph_name)
                .unwrap_or(SourceGraph::Other);
            Some(Candidate {
                resource: subject_iri(store, subject)?,
                label,
                graph,
                score: 0.5,
                types: vocab.types_of(store, subject),
                resolver: "sindice",
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// full-text resolvers: Evri & Zemanta
// ---------------------------------------------------------------------

/// Label windows of 1–3 tokens inside `text` that exactly match an
/// entity label in `graph_filter` — one exact lookup per window.
fn fulltext_matches(
    store: &Store,
    text: &str,
    graph_filter: Option<&str>,
    lookup: Lookup,
) -> Vec<(TermId, String)> {
    let words: Vec<String> = tokenize(text);
    let mut out: Vec<(TermId, String)> = Vec::new();
    let mut seen = HashSet::new();
    for window in 1..=3usize {
        for chunk in words.windows(window) {
            let phrase = chunk.join(" ");
            for (subject, label) in lookup(store, &phrase, graph_filter, LabelMatch::Exact) {
                if seen.insert(subject) {
                    out.push((subject, label));
                }
            }
        }
    }
    out
}

/// The Evri resolver: full-text entity extraction returning Evri's
/// *own* entity IRIs (graph [`SourceGraph::Evri`]).
#[derive(Debug, Default)]
pub struct EvriResolver;

impl Resolver for EvriResolver {
    fn name(&self) -> &'static str {
        "evri"
    }

    fn resolve_term(
        &self,
        store: &Store,
        term: &str,
        _lang: Option<&str>,
    ) -> Result<Vec<Candidate>, ResolverError> {
        Ok(evri_term(store, term, subjects_with_label))
    }

    fn resolve_fulltext(
        &self,
        store: &Store,
        text: &str,
        _lang: Option<&str>,
    ) -> Result<Vec<Candidate>, ResolverError> {
        Ok(evri_fulltext(store, text, subjects_with_label))
    }
}

fn evri_term(store: &Store, term: &str, lookup: Lookup) -> Vec<Candidate> {
    // Term queries match the whole term as an entity label; window
    // scanning is reserved for full-text over titles.
    lookup(store, term, Some(GRAPH_DBPEDIA), LabelMatch::Exact)
        .into_iter()
        .map(|(_, label)| evri_candidate(label))
        .collect()
}

fn evri_fulltext(store: &Store, text: &str, lookup: Lookup) -> Vec<Candidate> {
    fulltext_matches(store, text, Some(GRAPH_DBPEDIA), lookup)
        .into_iter()
        .map(|(_, label)| evri_candidate(label))
        .collect()
}

fn evri_candidate(label: String) -> Candidate {
    let slug = label.to_lowercase().replace(' ', "-");
    Candidate {
        resource: ns::EVRI.iri(&slug),
        label,
        graph: SourceGraph::Evri,
        score: 0.6,
        types: Vec::new(),
        resolver: "evri",
    }
}

/// The Zemanta resolver: full-text suggestions pointing straight at
/// DBpedia resources.
#[derive(Debug, Default)]
pub struct ZemantaResolver;

impl Resolver for ZemantaResolver {
    fn name(&self) -> &'static str {
        "zemanta"
    }

    fn resolve_term(
        &self,
        store: &Store,
        term: &str,
        _lang: Option<&str>,
    ) -> Result<Vec<Candidate>, ResolverError> {
        Ok(zemanta_term(store, term, subjects_with_label))
    }

    fn resolve_fulltext(
        &self,
        store: &Store,
        text: &str,
        _lang: Option<&str>,
    ) -> Result<Vec<Candidate>, ResolverError> {
        Ok(zemanta_fulltext(store, text, subjects_with_label))
    }
}

fn zemanta_term(store: &Store, term: &str, lookup: Lookup) -> Vec<Candidate> {
    let vocab = Vocab::of(store);
    lookup(store, term, Some(GRAPH_DBPEDIA), LabelMatch::Exact)
        .into_iter()
        .filter_map(|(subject, label)| zemanta_candidate(store, &vocab, subject, label))
        .collect()
}

fn zemanta_fulltext(store: &Store, text: &str, lookup: Lookup) -> Vec<Candidate> {
    let vocab = Vocab::of(store);
    fulltext_matches(store, text, Some(GRAPH_DBPEDIA), lookup)
        .into_iter()
        .filter_map(|(subject, label)| zemanta_candidate(store, &vocab, subject, label))
        .collect()
}

fn zemanta_candidate(
    store: &Store,
    vocab: &Vocab,
    subject: TermId,
    label: String,
) -> Option<Candidate> {
    let canonical = vocab.follow_redirect(store, subject);
    if vocab.is_disambiguation(store, canonical) {
        return None;
    }
    Some(Candidate {
        resource: subject_iri(store, canonical)?,
        label,
        graph: SourceGraph::DBpedia,
        score: 0.4,
        types: vocab.types_of(store, canonical),
        resolver: "zemanta",
    })
}

// ---------------------------------------------------------------------
// fault injection
// ---------------------------------------------------------------------

/// Wraps a resolver and fails every `fail_every`-th call — the broker
/// must survive individual service outages.
pub struct FlakyResolver<R> {
    inner: R,
    fail_every: usize,
    calls: AtomicUsize,
}

impl<R: Resolver> FlakyResolver<R> {
    /// Fails calls number `fail_every`, `2·fail_every`, …
    pub fn new(inner: R, fail_every: usize) -> Self {
        assert!(fail_every > 0, "fail_every must be positive");
        FlakyResolver {
            inner,
            fail_every,
            calls: AtomicUsize::new(0),
        }
    }

    fn tick(&self) -> Result<(), ResolverError> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if n % self.fail_every == 0 {
            Err(ResolverError {
                resolver: self.inner.name(),
                message: format!("injected outage on call {n}"),
            })
        } else {
            Ok(())
        }
    }
}

impl<R: Resolver> Resolver for FlakyResolver<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn resolve_term(
        &self,
        store: &Store,
        term: &str,
        lang: Option<&str>,
    ) -> Result<Vec<Candidate>, ResolverError> {
        self.tick()?;
        self.inner.resolve_term(store, term, lang)
    }

    fn resolve_fulltext(
        &self,
        store: &Store,
        text: &str,
        lang: Option<&str>,
    ) -> Result<Vec<Candidate>, ResolverError> {
        self.tick()?;
        self.inner.resolve_fulltext(store, text, lang)
    }
}

/// A resolver whose calls are judged by a scripted
/// [`FaultPlan`](lodify_resilience::FaultPlan) before the real resolver
/// runs: outage windows and seeded failure rates turn into
/// [`ResolverError`]s, and injected latency advances the plan's virtual
/// clock. The plan target is `resolver:<name>`.
pub struct FaultInjectedResolver<R> {
    inner: R,
    plan: lodify_resilience::FaultPlan,
    target: String,
}

impl<R: Resolver> FaultInjectedResolver<R> {
    /// Wraps `inner`, consulting `plan` under target `resolver:<name>`.
    pub fn new(inner: R, plan: lodify_resilience::FaultPlan) -> Self {
        let target = format!("resolver:{}", inner.name());
        FaultInjectedResolver {
            inner,
            plan,
            target,
        }
    }

    /// The fault-plan target this wrapper consults.
    pub fn target(&self) -> &str {
        &self.target
    }

    fn check(&self) -> Result<(), ResolverError> {
        self.plan.check(&self.target).map_err(|e| ResolverError {
            resolver: self.inner.name(),
            message: e.to_string(),
        })
    }
}

impl<R: Resolver> Resolver for FaultInjectedResolver<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn resolve_term(
        &self,
        store: &Store,
        term: &str,
        lang: Option<&str>,
    ) -> Result<Vec<Candidate>, ResolverError> {
        self.check()?;
        self.inner.resolve_term(store, term, lang)
    }

    fn resolve_fulltext(
        &self,
        store: &Store,
        text: &str,
        lang: Option<&str>,
    ) -> Result<Vec<Candidate>, ResolverError> {
        self.check()?;
        self.inner.resolve_fulltext(store, text, lang)
    }
}

/// The posting walk the label index replaced, kept as the oracle the
/// index is checked against. It reads only the full-text index: every
/// posting of the term's first token, filtered to the naming
/// predicates, with graph names compared as strings.
#[cfg(test)]
mod reference {
    use super::*;

    /// The ids of the naming predicates (labels, not abstracts).
    fn label_predicates(store: &Store) -> Vec<TermId> {
        [
            ns::iri::rdfs_label(),
            ns::GN.iri("name"),
            ns::GN.iri("alternateName"),
            ns::iri::foaf_name(),
        ]
        .into_iter()
        .filter_map(|iri| store.id_of(&Term::Iri(iri)))
        .collect()
    }

    pub(super) fn subjects_with_label(
        store: &Store,
        term: &str,
        graph_filter: Option<&str>,
        mode: LabelMatch,
    ) -> Vec<(TermId, String)> {
        let term_tokens = tokenize(term);
        let Some(first) = term_tokens.first() else {
            return Vec::new();
        };
        let label_preds = label_predicates(store);
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for posting in store.fulltext().search_word(first) {
            if !label_preds.contains(&posting.predicate) {
                continue;
            }
            if !seen.insert((posting.subject, posting.object)) {
                continue;
            }
            if let Some(graph) = graph_filter {
                let Some(g) = store.graph_of_subject(posting.subject) else {
                    continue;
                };
                if store.graph_name(g) != Some(graph) {
                    continue;
                }
            }
            let Some(Term::Literal(lit)) = store.term_of(posting.object) else {
                continue;
            };
            let matched = match mode {
                LabelMatch::Exact => lit.value().to_lowercase() == term.to_lowercase(),
                LabelMatch::Fuzzy => {
                    let label_tokens = tokenize(lit.value());
                    term_tokens.iter().all(|t| label_tokens.contains(t))
                }
            };
            if matched {
                out.push((posting.subject, lit.value().to_string()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{dbp, load_lod};
    use crate::filter::SemanticFilter;
    use lodify_context::gazetteer::Gazetteer;

    fn store() -> Store {
        let mut s = Store::new();
        load_lod(&mut s, Gazetteer::global());
        s
    }

    #[test]
    fn dbpedia_resolves_and_scores() {
        let s = store();
        let hits = DbpediaResolver
            .resolve_term(&s, "Turin", Some("en"))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].resource, dbp("Turin"));
        assert_eq!(hits[0].score, 1.0);
        assert!(hits[0].types.iter().any(|t| t.as_str().ends_with("Place")));
    }

    #[test]
    fn dbpedia_follows_redirects() {
        let s = store();
        // "Coliseum" only exists as a redirect page.
        let hits = DbpediaResolver.resolve_term(&s, "Coliseum", None).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].resource, dbp("Colosseum"));
        assert_eq!(hits[0].label, "Coliseum");
        // Torino → Turin, the paper's city-label case.
        let hits = DbpediaResolver.resolve_term(&s, "Torino", None).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].resource, dbp("Turin"));
    }

    #[test]
    fn dbpedia_skips_disambiguation_pages_and_ranks_homonyms() {
        let s = store();
        let hits = DbpediaResolver.resolve_term(&s, "Mole", None).unwrap();
        // Animal, unit, and the Mole→Mole_Antonelliana redirect — the
        // disambiguation page is gone.
        assert!(hits
            .iter()
            .all(|c| !c.resource.as_str().contains("disambiguation")));
        assert!(hits.len() >= 3);
        // The monument (refCount 60) outranks animal (40) and unit (35).
        let top = hits
            .iter()
            .max_by(|a, b| a.score.total_cmp(&b.score))
            .unwrap();
        assert_eq!(top.resource, dbp("Mole_Antonelliana"));
        assert_eq!(top.score, 1.0);
    }

    #[test]
    fn geonames_resolves_locations_only() {
        let s = store();
        let hits = GeonamesResolver.resolve_term(&s, "Torino", None).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].graph, SourceGraph::Geonames);
        // No Geonames answer for a monument.
        assert!(GeonamesResolver
            .resolve_term(&s, "Colosseum", None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn sindice_returns_mixed_graphs_including_junk() {
        let s = store();
        let hits = SindiceResolver.resolve_term(&s, "Turin", None).unwrap();
        let graphs: std::collections::HashSet<SourceGraph> = hits.iter().map(|c| c.graph).collect();
        assert!(graphs.contains(&SourceGraph::DBpedia));
        assert!(graphs.contains(&SourceGraph::Geonames));
        // LGD candidates come back as Other (to be discarded downstream).
        assert!(graphs.contains(&SourceGraph::Other));
    }

    #[test]
    fn evri_extracts_entities_from_full_titles() {
        let s = store();
        let hits = EvriResolver
            .resolve_fulltext(&s, "Sunset at the Mole Antonelliana in Turin", None)
            .unwrap();
        let labels: Vec<&str> = hits.iter().map(|c| c.label.as_str()).collect();
        assert!(labels.contains(&"Mole Antonelliana"), "{labels:?}");
        assert!(labels.contains(&"Turin"));
        assert!(hits.iter().all(|c| c.graph == SourceGraph::Evri));
        assert!(hits
            .iter()
            .all(|c| c.resource.as_str().starts_with("http://www.evri.com/")));
    }

    #[test]
    fn zemanta_points_at_dbpedia_canonicals() {
        let s = store();
        let hits = ZemantaResolver
            .resolve_fulltext(&s, "Visiting the Coliseum by night", None)
            .unwrap();
        assert!(hits.iter().any(|c| c.resource == dbp("Colosseum")));
        assert!(hits.iter().all(|c| c.graph == SourceGraph::DBpedia));
    }

    #[test]
    fn flaky_resolver_fails_periodically() {
        let s = store();
        let flaky = FlakyResolver::new(DbpediaResolver, 3);
        let mut failures = 0;
        for _ in 0..9 {
            if flaky.resolve_term(&s, "Turin", None).is_err() {
                failures += 1;
            }
        }
        assert_eq!(failures, 3);
    }

    #[test]
    fn unknown_term_resolves_to_nothing_everywhere() {
        let s = store();
        for resolver in [
            &DbpediaResolver as &dyn Resolver,
            &GeonamesResolver,
            &SindiceResolver,
        ] {
            assert!(
                resolver
                    .resolve_term(&s, "zzzunknownzzz", None)
                    .unwrap()
                    .is_empty(),
                "{}",
                resolver.name()
            );
        }
    }

    type Entry = fn(&Store, &str, Lookup) -> Vec<Candidate>;

    /// Every resolver's `resolve_term`, beside the same resolver run
    /// over a given lookup.
    fn term_entries() -> [(&'static dyn Resolver, Entry); 5] {
        [
            (&DbpediaResolver, dbpedia_term),
            (&GeonamesResolver, geonames_term),
            (&SindiceResolver, sindice_term),
            (&EvriResolver, evri_term),
            (&ZemantaResolver, zemanta_term),
        ]
    }

    /// Asserts that the label index and the reference walk give equal
    /// candidate lists and Debug-equal filter outcomes for every
    /// resolver: `resolve_term` on each term, `resolve_fulltext` on
    /// each title.
    fn assert_index_matches_walk(store: &Store, terms: &[String], titles: &[String]) {
        let filter = SemanticFilter::standard();
        let check = |name: &str, text: &str, indexed: Vec<Candidate>, walked: Vec<Candidate>| {
            assert_eq!(indexed, walked, "{name} on {text:?}");
            assert_eq!(
                format!("{:?}", filter.filter(store, text, &indexed)),
                format!("{:?}", filter.filter(store, text, &walked)),
                "{name} outcome on {text:?}"
            );
        };
        for term in terms {
            for (resolver, entry) in term_entries() {
                let indexed = resolver.resolve_term(store, term, None).unwrap();
                let walked = entry(store, term, reference::subjects_with_label);
                check(resolver.name(), term, indexed, walked);
            }
        }
        let fulltext: [(&dyn Resolver, Entry); 2] = [
            (&EvriResolver, evri_fulltext),
            (&ZemantaResolver, zemanta_fulltext),
        ];
        for title in titles {
            for (resolver, entry) in fulltext {
                let indexed = resolver.resolve_fulltext(store, title, None).unwrap();
                let walked = entry(store, title, reference::subjects_with_label);
                check(resolver.name(), title, indexed, walked);
            }
        }
    }

    /// Distinct extracted terms and distinct titles of a corpus, in
    /// first-seen order.
    fn terms_and_titles<'a>(
        items: impl IntoIterator<Item = (&'a str, &'a [String])>,
    ) -> (Vec<String>, Vec<String>) {
        let (mut terms, mut titles) = (Vec::new(), Vec::new());
        let (mut seen_terms, mut seen_items) = (HashSet::new(), HashSet::new());
        let mut seen_titles = HashSet::new();
        for (title, tags) in items {
            if !seen_items.insert((title, tags)) {
                continue;
            }
            for term in lodify_text::pipeline::extract_terms(title, tags).terms {
                if seen_terms.insert(term.text.clone()) {
                    terms.push(term.text);
                }
            }
            if seen_titles.insert(title) {
                titles.push(title.to_string());
            }
        }
        (terms, titles)
    }

    #[test]
    fn label_index_matches_the_posting_walk_on_the_e8_corpora() {
        use lodify_relational::workload::{generate, WorkloadConfig};

        let corpora: Vec<_> = (1..=8u64)
            .map(|seed| {
                generate(WorkloadConfig {
                    seed,
                    users: 100,
                    pictures: 1000,
                    ..WorkloadConfig::default()
                })
            })
            .collect();
        let (terms, titles) = terms_and_titles(
            corpora
                .iter()
                .flat_map(|workload| &workload.truth)
                .map(|t| (t.title.as_str(), t.keywords.as_slice())),
        );
        assert!(terms.len() > 200, "guard: the corpora extract terms");
        assert_index_matches_walk(&store(), &terms, &titles);
    }

    #[test]
    fn label_index_matches_the_posting_walk_after_every_upload() {
        use lodify_core::platform::{Platform, Upload};
        use lodify_relational::workload::{generate, WorkloadConfig};

        let seed = 7;
        let mut platform = Platform::bootstrap(WorkloadConfig {
            seed,
            users: 10,
            pictures: 50,
            ..WorkloadConfig::default()
        })
        .unwrap();
        let incoming = generate(WorkloadConfig {
            seed: seed + 1,
            users: 10,
            pictures: 50,
            ..WorkloadConfig::default()
        });
        let (terms, _) = terms_and_titles(
            incoming
                .truth
                .iter()
                .map(|t| (t.title.as_str(), t.keywords.as_slice())),
        );
        // Sindice reads across graphs: a probe term must also hit the
        // picture labels the uploads add.
        let store_before = platform.store().clone();
        assert_index_matches_walk(&store_before, &terms, &[]);
        for (n, truth) in incoming.truth.iter().enumerate() {
            platform
                .upload(Upload {
                    user_id: 1 + (n as i64 % 10),
                    title: truth.title.clone(),
                    tags: truth.keywords.clone(),
                    ts: 1_400_000_000 + n as i64 * 137,
                    gps: None,
                    poi: None,
                })
                .unwrap();
            assert_index_matches_walk(platform.store(), &terms, std::slice::from_ref(&truth.title));
        }
        let ugc_hits = terms
            .iter()
            .map(|t| sindice_term(platform.store(), t, subjects_with_label))
            .filter(|hits| hits.iter().any(|c| c.graph == SourceGraph::Other))
            .count();
        assert!(ugc_hits > 0, "guard: uploads add labels Sindice finds");
    }
}
