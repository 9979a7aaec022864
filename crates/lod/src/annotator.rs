//! The automatic semantic annotation pipeline (Figure 1).
//!
//! Combines the three analyses of §2.2:
//!
//! * **Location analysis** (§2.2.1): context snapshot → the Geonames
//!   city resource ("the (nearest) city-level resource is returned"),
//!   nearby friends → **local** RDF resources only — the Sindice-based
//!   external linking "was turned off and only local linking was
//!   retained" for privacy, which we model with an off-by-default
//!   switch;
//! * **POI analysis** (§2.2.1): explicit `poi:recs_id` references are
//!   matched to DBpedia via SPARQL on name + location, with
//!   "commercial categories such as restaurants, hotels, etc …
//!   excluded from this analysis";
//! * **Text analysis** (§2.2.2): language identification →
//!   morphological analysis → NP-lemma extraction → semantic broker →
//!   semantic filter → automatic annotation.

use lodify_context::ContextSnapshot;
use lodify_obs::Metrics;
use lodify_rdf::{ns, Iri, Point};
use lodify_store::Store;
use lodify_text::pipeline::{extract_terms, TermList};

use crate::broker::SemanticBroker;
use crate::datasets::{gnr, GRAPH_DBPEDIA};
use crate::filter::{FilterOutcome, SemanticFilter};
use crate::resolvers::{Candidate, Resolver, SindiceResolver, SourceGraph};

/// Annotation of one extracted term.
#[derive(Debug, Clone, PartialEq)]
pub struct TermAnnotation {
    /// The term.
    pub term: String,
    /// The chosen LOD resource, when auto-annotation fired.
    pub resource: Option<Iri>,
    /// Which graph the chosen resource came from.
    pub graph: Option<SourceGraph>,
    /// How many raw broker candidates came from a graph the filter
    /// ranks. Candidates from other graphs — UGC labels among them —
    /// are discarded unseen, so leaving them out keeps a result
    /// independent of what users uploaded before it.
    pub candidates_considered: usize,
    /// Survivors after filtering (>1 means ambiguous, no annotation).
    pub survivors: usize,
}

/// External-identity candidates for one nearby buddy (only populated
/// when the privacy switch is ON).
#[derive(Debug, Clone, PartialEq)]
pub struct BuddyExternalLink {
    /// The buddy's full name as queried.
    pub full_name: String,
    /// Sindice candidates (ambiguous by nature — the reason the paper
    /// turned this off).
    pub candidates: Vec<Candidate>,
}

/// The complete annotation result for one content item.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationResult {
    /// Detected title language.
    pub language: Option<&'static str>,
    /// Geonames city resource from location analysis.
    pub location: Option<Iri>,
    /// Local user resources for nearby buddies.
    pub buddies: Vec<Iri>,
    /// External-identity candidates (empty unless the switch is on).
    pub buddy_external: Vec<BuddyExternalLink>,
    /// DBpedia resource for the explicit POI reference.
    pub poi: Option<Iri>,
    /// Per-term annotations from text analysis.
    pub terms: Vec<TermAnnotation>,
    /// Resolver failures survived during brokering.
    pub resolver_failures: usize,
    /// Resolvers that were unavailable while this item was annotated
    /// (breaker open or retries exhausted). Non-empty means the
    /// annotation is *degraded*: it completed, but with fewer
    /// candidates than a healthy run would have produced.
    pub degraded: Vec<&'static str>,
}

impl AnnotationResult {
    /// All auto-annotated LOD resources (location, POI, term hits).
    pub fn resources(&self) -> Vec<&Iri> {
        self.location
            .iter()
            .chain(self.poi.iter())
            .chain(self.terms.iter().filter_map(|t| t.resource.as_ref()))
            .collect()
    }

    /// Whether any resolver was unavailable during annotation.
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }
}

/// An explicit POI reference attached by the user (`poi:recs_id`).
#[derive(Debug, Clone)]
pub struct PoiRefInput {
    /// POI name from the search provider.
    pub name: String,
    /// Category label ("monument", "restaurant", …).
    pub category: String,
    /// POI location.
    pub point: Point,
}

/// Everything the pipeline needs about one content item.
#[derive(Debug, Clone)]
pub struct ContentInput<'a> {
    /// The user-supplied title.
    pub title: &'a str,
    /// User-supplied plain tags.
    pub tags: &'a [String],
    /// Context snapshot at capture time, if any.
    pub context: Option<&'a ContextSnapshot>,
    /// Explicit POI reference, if any.
    pub poi_ref: Option<PoiRefInput>,
}

/// Annotator configuration.
#[derive(Debug, Clone)]
pub struct AnnotatorConfig {
    /// Link nearby buddies to external identities via Sindice. The
    /// paper turned this off ("the results may be ambiguous and may
    /// trigger privacy concerns") — off by default.
    pub link_buddies_externally: bool,
    /// Exclude commercial POI categories from DBpedia linking (§2.2.1).
    pub exclude_commercial_pois: bool,
}

impl Default for AnnotatorConfig {
    fn default() -> Self {
        AnnotatorConfig {
            link_buddies_externally: false,
            exclude_commercial_pois: true,
        }
    }
}

/// The Figure-1 pipeline.
pub struct Annotator {
    broker: SemanticBroker,
    filter: SemanticFilter,
    config: AnnotatorConfig,
    observability: Option<Metrics>,
}

impl Annotator {
    /// The paper's configuration.
    pub fn standard() -> Annotator {
        Annotator {
            broker: SemanticBroker::standard(),
            filter: SemanticFilter::standard(),
            config: AnnotatorConfig::default(),
            observability: None,
        }
    }

    /// Custom components (ablations, fault injection).
    pub fn new(broker: SemanticBroker, filter: SemanticFilter, config: AnnotatorConfig) -> Self {
        Annotator {
            broker,
            filter,
            config,
            observability: None,
        }
    }

    /// Attaches a metrics registry: the three analyses are timed into
    /// `annotate.location` / `annotate.poi` / `annotate.text`
    /// histograms, and the registry is forwarded to the broker for
    /// per-resolver `broker.call.<name>` timing.
    pub fn set_observability(&mut self, metrics: Metrics) {
        self.broker.set_observability(metrics.clone());
        self.observability = Some(metrics);
    }

    /// Installs a semantic-resolution cache on the backing broker
    /// (see [`crate::cache::SemanticCache`]): repeated terms skip the
    /// resolver fan-out until the store epoch changes.
    pub fn set_semantic_cache(&mut self, cache: std::sync::Arc<crate::cache::SemanticCache>) {
        self.broker.set_cache(cache);
    }

    /// Times `f` into the named histogram when a registry is attached.
    fn timed<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        match &self.observability {
            Some(metrics) => {
                let started = metrics.now_micros();
                let out = f();
                metrics.observe(name, metrics.now_micros().saturating_sub(started));
                out
            }
            None => f(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AnnotatorConfig {
        &self.config
    }

    /// Runs the full pipeline over one content item.
    pub fn annotate(&self, store: &Store, input: &ContentInput<'_>) -> AnnotationResult {
        let (location, buddies, buddy_external) =
            self.timed("annotate.location", || self.location_analysis(store, input));
        let poi = self.timed("annotate.poi", || {
            input
                .poi_ref
                .as_ref()
                .and_then(|poi_ref| self.poi_analysis(store, poi_ref))
        });
        let (language, terms, resolver_failures, degraded) =
            self.timed("annotate.text", || self.text_analysis(store, input));

        AnnotationResult {
            language,
            location,
            buddies,
            buddy_external,
            poi,
            terms,
            resolver_failures,
            degraded,
        }
    }

    /// The broker backing this annotator (breaker state, telemetry).
    pub fn broker(&self) -> &SemanticBroker {
        &self.broker
    }

    /// Location analysis (§2.2.1).
    fn location_analysis(
        &self,
        store: &Store,
        input: &ContentInput<'_>,
    ) -> (Option<Iri>, Vec<Iri>, Vec<BuddyExternalLink>) {
        let Some(context) = input.context else {
            return (None, Vec::new(), Vec::new());
        };
        let location = context.location.as_ref().map(|loc| gnr(loc.geonames_id));
        let buddies: Vec<Iri> = context
            .nearby
            .iter()
            .map(|b| ns::TL_UID.iri(&b.user_id.to_string()))
            .collect();
        let mut external = Vec::new();
        if self.config.link_buddies_externally {
            for buddy in &context.nearby {
                let candidates = SindiceResolver
                    .resolve_term(store, &buddy.full_name, None)
                    .unwrap_or_default();
                external.push(BuddyExternalLink {
                    full_name: buddy.full_name.clone(),
                    candidates,
                });
            }
        }
        (location, buddies, external)
    }

    /// POI analysis (§2.2.1): DBpedia lookup via SPARQL on name,
    /// category and location.
    fn poi_analysis(&self, store: &Store, poi_ref: &PoiRefInput) -> Option<Iri> {
        if self.config.exclude_commercial_pois
            && matches!(poi_ref.category.as_str(), "restaurant" | "hotel" | "cafe")
        {
            return None;
        }
        // The paper: "based on the POI name, category and location
        // derived from the platform, tries to identify the related
        // DBpedia resource using SPARQL".
        let query = format!(
            r#"SELECT DISTINCT ?poi WHERE {{
                 ?poi rdfs:label ?lbl .
                 ?poi geo:geometry ?g .
                 FILTER(str(?lbl) = "{}") .
                 FILTER(bif:st_intersects(?g, "{}", 1.0)) .
               }}"#,
            poi_ref.name.replace('"', "\\\""),
            poi_ref.point.to_wkt(),
        );
        let results = lodify_sparql::execute(store, &query).ok()?;
        results
            .column("poi")
            .into_iter()
            .filter_map(|t| t.as_iri())
            .find(|iri| {
                store.graph_of_term(&lodify_rdf::Term::Iri((*iri).clone())) == Some(GRAPH_DBPEDIA)
            })
            .cloned()
    }

    /// Text analysis (§2.2.2): terms → broker → filter.
    fn text_analysis(
        &self,
        store: &Store,
        input: &ContentInput<'_>,
    ) -> (
        Option<&'static str>,
        Vec<TermAnnotation>,
        usize,
        Vec<&'static str>,
    ) {
        let term_list: TermList = extract_terms(input.title, input.tags);
        let terms: Vec<String> = term_list.terms.iter().map(|t| t.text.clone()).collect();
        let output = self
            .broker
            .resolve(store, &terms, input.title, term_list.language);
        let failures = output.failures.len();
        let ranked = &self.filter.config().graph_priority;
        let annotations = output
            .terms
            .iter()
            .map(|tc| {
                let outcome: FilterOutcome = self.filter.filter(store, &tc.term, &tc.candidates);
                TermAnnotation {
                    term: tc.term.clone(),
                    resource: outcome.chosen.as_ref().map(|c| c.resource.clone()),
                    graph: outcome.chosen.as_ref().map(|c| c.graph),
                    candidates_considered: tc
                        .candidates
                        .iter()
                        .filter(|c| ranked.contains(&c.graph))
                        .count(),
                    survivors: outcome.survivors.len(),
                }
            })
            .collect();
        (
            term_list.language,
            annotations,
            failures,
            output.unavailable,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{dbp, load_lod};
    use lodify_context::gazetteer::Gazetteer;
    use lodify_context::ContextPlatform;

    fn store() -> Store {
        let mut s = Store::new();
        load_lod(&mut s, Gazetteer::global());
        s
    }

    fn mole_point() -> Point {
        let gaz = Gazetteer::global();
        gaz.poi("Mole_Antonelliana").unwrap().point(gaz)
    }

    fn context_at_mole() -> ContextSnapshot {
        let mut platform = ContextPlatform::new();
        platform
            .buddies_mut()
            .add_user(1, "oscar", "Oscar Rodriguez");
        platform.buddies_mut().add_user(2, "walter", "Walter Goix");
        platform.buddies_mut().add_friend(1, 2);
        platform.buddies_mut().update_position(2, mole_point());
        platform.contextualize(1, 100, Some(mole_point()))
    }

    #[test]
    fn full_pipeline_on_the_paper_example() {
        let s = store();
        let context = context_at_mole();
        let tags = vec!["torino".to_string(), "tramonto".to_string()];
        let input = ContentInput {
            title: "Tramonto alla Mole Antonelliana",
            tags: &tags,
            context: Some(&context),
            poi_ref: Some(PoiRefInput {
                name: "Mole Antonelliana".into(),
                category: "monument".into(),
                point: mole_point(),
            }),
        };
        let result = Annotator::standard().annotate(&s, &input);

        assert_eq!(result.language, Some("it"));
        // Location → Geonames Turin.
        let turin_gn = gnr(Gazetteer::global().city("Turin").unwrap().geonames_id());
        assert_eq!(result.location, Some(turin_gn));
        // Buddy → local resource only.
        assert_eq!(result.buddies.len(), 1);
        assert!(result.buddies[0].as_str().starts_with(ns::TL_UID.base));
        assert!(result.buddy_external.is_empty());
        // POI → DBpedia monument.
        assert_eq!(result.poi, Some(dbp("Mole_Antonelliana")));
        // Term "Mole Antonelliana" auto-annotates; "torino" resolves to
        // Geonames (graph priority).
        let mole = result
            .terms
            .iter()
            .find(|t| t.term == "Mole Antonelliana")
            .expect("term present");
        assert_eq!(mole.resource, Some(dbp("Mole_Antonelliana")));
        let torino = result.terms.iter().find(|t| t.term == "torino").unwrap();
        assert_eq!(torino.graph, Some(SourceGraph::Geonames));
        assert_eq!(result.resolver_failures, 0);
        assert!(result.resources().len() >= 3);
    }

    #[test]
    fn commercial_poi_refs_are_excluded() {
        let s = store();
        let gaz = Gazetteer::global();
        let cambio = gaz.poi("Ristorante_Del_Cambio").unwrap();
        let input = ContentInput {
            title: "",
            tags: &[],
            context: None,
            poi_ref: Some(PoiRefInput {
                name: cambio.name.into(),
                category: "restaurant".into(),
                point: cambio.point(gaz),
            }),
        };
        let result = Annotator::standard().annotate(&s, &input);
        assert_eq!(result.poi, None);

        // With the exclusion off the lookup still finds nothing in
        // DBpedia (commercial POIs only live in LinkedGeoData).
        let lax = Annotator::new(
            SemanticBroker::standard(),
            SemanticFilter::standard(),
            AnnotatorConfig {
                exclude_commercial_pois: false,
                ..AnnotatorConfig::default()
            },
        );
        let result = lax.annotate(&s, &input);
        assert_eq!(result.poi, None);
    }

    #[test]
    fn poi_lookup_requires_colocation() {
        let s = store();
        // Right name, wrong city: no link.
        let paris = Gazetteer::global().city("Paris").unwrap().point();
        let input = ContentInput {
            title: "",
            tags: &[],
            context: None,
            poi_ref: Some(PoiRefInput {
                name: "Mole Antonelliana".into(),
                category: "monument".into(),
                point: paris,
            }),
        };
        let result = Annotator::standard().annotate(&s, &input);
        assert_eq!(result.poi, None);
    }

    #[test]
    fn ambiguous_tag_does_not_auto_annotate() {
        let s = store();
        let tags = vec!["mole".to_string()];
        let input = ContentInput {
            title: "",
            tags: &tags,
            context: None,
            poi_ref: None,
        };
        let result = Annotator::standard().annotate(&s, &input);
        let mole = result.terms.iter().find(|t| t.term == "mole").unwrap();
        assert_eq!(mole.resource, None, "homonyms must block auto-annotation");
        assert!(mole.survivors > 1);
    }

    #[test]
    fn buddy_external_linking_switch() {
        let s = store();
        let context = context_at_mole();
        let input = ContentInput {
            title: "",
            tags: &[],
            context: Some(&context),
            poi_ref: None,
        };
        let on = Annotator::new(
            SemanticBroker::standard(),
            SemanticFilter::standard(),
            AnnotatorConfig {
                link_buddies_externally: true,
                ..AnnotatorConfig::default()
            },
        );
        let result = on.annotate(&s, &input);
        assert_eq!(result.buddy_external.len(), 1);
        assert_eq!(result.buddy_external[0].full_name, "Walter Goix");
    }

    #[test]
    fn no_context_no_location() {
        let s = store();
        let input = ContentInput {
            title: "Weekend in Paris",
            tags: &[],
            context: None,
            poi_ref: None,
        };
        let result = Annotator::standard().annotate(&s, &input);
        assert!(result.location.is_none());
        assert!(result.buddies.is_empty());
        // "Paris" is ambiguous in DBpedia (city vs mythology) but the
        // Geonames graph wins priority and has exactly one Paris.
        let paris = result.terms.iter().find(|t| t.term == "Paris").unwrap();
        assert_eq!(paris.graph, Some(SourceGraph::Geonames));
    }
}
