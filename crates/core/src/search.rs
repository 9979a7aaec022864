//! The mobile search flow (§4, Figures 2–3).
//!
//! "The search field is automatic and AJAX-based, which means that each
//! time, 2 seconds after the last keystroke is pressed, a query is
//! performed and a list of candidate results will be displayed. The
//! user can click on the result that matches his search to visualize
//! all the content associated with the selected resource."
//!
//! [`SearchService::suggest`] produces the candidate-resource list for
//! a prefix (Fig. 3: "Result candidates are listed for 'Turin'"),
//! [`SearchService::content_for_resource`] the content list behind a
//! selected candidate (Fig. 4), and [`Debouncer`] models the 2-second
//! AJAX debounce so the interaction itself is testable.

use lodify_rdf::{Iri, Point, Term};
use lodify_store::Store;

use crate::error::PlatformError;

/// One search suggestion (a clickable LOD resource).
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// The resource.
    pub resource: Iri,
    /// The label that matched.
    pub label: String,
}

/// A content item associated to a selected resource.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentHit {
    /// The content resource (`tl-pid:…`).
    pub content: Iri,
    /// The media link (`comm:image-data`), when present.
    pub link: Option<String>,
    /// The content title, when present.
    pub title: Option<String>,
}

/// Stateless search operations over a platform store.
#[derive(Debug, Default)]
pub struct SearchService;

impl SearchService {
    /// Prefix suggestions: entity resources whose label carries a token
    /// starting with `prefix`. UGC items are excluded — the paper's
    /// search box suggests *concepts* (cities, monuments), then lists
    /// content per concept.
    pub fn suggest(store: &Store, prefix: &str, limit: usize) -> Vec<Suggestion> {
        if prefix.trim().is_empty() {
            return Vec::new();
        }
        // Suggestions come from naming predicates only — otherwise
        // abstract texts mentioning the prefix would masquerade as
        // candidate labels.
        let label_preds: Vec<Option<lodify_store::TermId>> = [
            lodify_rdf::ns::iri::rdfs_label(),
            lodify_rdf::ns::GN.iri("name"),
            lodify_rdf::ns::GN.iri("alternateName"),
            lodify_rdf::ns::iri::foaf_name(),
            lodify_rdf::ns::DCTERMS.iri("title"),
        ]
        .into_iter()
        .map(|iri| store.id_of(&Term::Iri(iri)))
        .collect();

        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        // Over-fetch: several postings can share a subject or be UGC.
        for posting in store.fulltext().search_prefix(prefix, limit * 8) {
            if !label_preds.contains(&Some(posting.predicate)) {
                continue;
            }
            let Some(Term::Iri(subject)) = store.term_of(posting.subject) else {
                continue;
            };
            if subject.as_str().starts_with("http://beta.teamlife.it/") {
                continue;
            }
            if !seen.insert(subject.clone()) {
                continue;
            }
            let Some(Term::Literal(label)) = store.term_of(posting.object) else {
                continue;
            };
            out.push(Suggestion {
                resource: subject.clone(),
                label: label.value().to_string(),
            });
            if out.len() >= limit {
                break;
            }
        }
        out
    }

    /// Content associated with a selected resource: items annotated
    /// with it (`dcterms:subject`), located in it (`tl:locatedIn`), or
    /// — when the resource has a geometry — taken within
    /// `geo_fallback_km` of it.
    pub fn content_for_resource(
        store: &Store,
        resource: &Iri,
        geo_fallback_km: f64,
    ) -> Result<Vec<ContentHit>, PlatformError> {
        let query = format!(
            r#"SELECT DISTINCT ?c ?link ?title WHERE {{
                 {{ ?c <{subject}> <{res}> . }}
                 UNION {{ ?c <{located}> <{res}> . }}
                 ?c a sioct:MicroblogPost .
                 OPTIONAL {{ ?c comm:image-data ?link }}
                 OPTIONAL {{ ?c rdfs:label ?title }}
               }}"#,
            subject = crate::platform::subject_pred().as_str(),
            located = crate::platform::located_in_pred().as_str(),
            res = resource.as_str(),
        );
        let results = lodify_sparql::execute(store, &query)?;
        let mut hits: Vec<ContentHit> = results
            .iter()
            .filter_map(|row| {
                Some(ContentHit {
                    content: row.get("c")?.as_iri()?.clone(),
                    link: row.get("link").map(|t| t.lexical().to_string()),
                    title: row.get("title").map(|t| t.lexical().to_string()),
                })
            })
            .collect();

        // Geo fallback: content taken near the resource.
        if let Some(center) = resource_point(store, resource) {
            let geo_query = format!(
                r#"SELECT DISTINCT ?c ?link ?title WHERE {{
                     ?c a sioct:MicroblogPost .
                     ?c geo:geometry ?g .
                     OPTIONAL {{ ?c comm:image-data ?link }}
                     OPTIONAL {{ ?c rdfs:label ?title }}
                     FILTER(bif:st_intersects(?g, "{wkt}", {radius})) .
                   }}"#,
                wkt = center.to_wkt(),
                radius = geo_fallback_km,
            );
            for row in lodify_sparql::execute(store, &geo_query)?.iter() {
                let Some(content) = row.get("c").and_then(|t| t.as_iri()).cloned() else {
                    continue;
                };
                if hits.iter().any(|h| h.content == content) {
                    continue;
                }
                hits.push(ContentHit {
                    content,
                    link: row.get("link").map(|t| t.lexical().to_string()),
                    title: row.get("title").map(|t| t.lexical().to_string()),
                });
            }
        }
        hits.sort_by(|a, b| a.content.cmp(&b.content));
        Ok(hits)
    }
}

/// The resource's point, if it has a `geo:geometry`.
pub fn resource_point(store: &Store, resource: &Iri) -> Option<Point> {
    let subject = store.id_of(&Term::Iri(resource.clone()))?;
    store.geo().point_of(subject)
}

/// Models the mobile interface's AJAX debounce: a query fires once no
/// keystroke has arrived for `delay` seconds.
#[derive(Debug, Clone)]
pub struct Debouncer {
    delay: f64,
    pending: Option<(f64, String)>,
    fired: Vec<(f64, String)>,
}

impl Debouncer {
    /// The paper's 2-second debounce.
    pub fn standard() -> Debouncer {
        Debouncer::new(2.0)
    }

    /// Custom delay.
    pub fn new(delay: f64) -> Debouncer {
        Debouncer {
            delay,
            pending: None,
            fired: Vec::new(),
        }
    }

    /// Records a keystroke at `t` with the current field text.
    pub fn keystroke(&mut self, t: f64, text: &str) {
        self.poll(t);
        self.pending = Some((t, text.to_string()));
    }

    /// Advances time; returns the query that fires at/ before `now`,
    /// if any.
    pub fn poll(&mut self, now: f64) -> Option<String> {
        if let Some((t, text)) = &self.pending {
            if now - t >= self.delay - 1e-9 {
                let fired = text.clone();
                self.fired.push((t + self.delay, fired.clone()));
                self.pending = None;
                return Some(fired);
            }
        }
        None
    }

    /// Every query fired so far, with firing times.
    pub fn fired(&self) -> &[(f64, String)] {
        &self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{Platform, Upload};
    use lodify_context::Gazetteer;
    use lodify_relational::WorkloadConfig;

    fn platform() -> Platform {
        Platform::bootstrap(WorkloadConfig::small(11)).unwrap()
    }

    #[test]
    fn suggest_turin_returns_city_resources() {
        let p = platform();
        let suggestions = SearchService::suggest(p.store(), "Turi", 10);
        assert!(!suggestions.is_empty());
        assert!(
            suggestions
                .iter()
                .all(|s| !s.resource.as_str().contains("teamlife")),
            "UGC must not appear as a concept suggestion"
        );
        assert!(
            suggestions
                .iter()
                .any(|s| s.label.starts_with("Turi") || s.label.starts_with("Turí")),
            "{suggestions:?}"
        );
    }

    #[test]
    fn suggest_respects_limit_and_empty_prefix() {
        let p = platform();
        assert!(SearchService::suggest(p.store(), "", 10).is_empty());
        assert!(SearchService::suggest(p.store(), "   ", 10).is_empty());
        let limited = SearchService::suggest(p.store(), "t", 3);
        assert!(limited.len() <= 3);
    }

    #[test]
    fn content_for_annotated_resource() {
        let mut p = platform();
        let gaz = Gazetteer::global();
        let mole = gaz.poi("Mole_Antonelliana").unwrap().point(gaz);
        let receipt = p
            .upload(Upload {
                user_id: 1,
                title: "Tramonto alla Mole Antonelliana".into(),
                tags: vec!["torino".into()],
                ts: 1_320_600_000,
                gps: Some(mole),
                poi: None,
            })
            .unwrap();
        let mole_res =
            lodify_rdf::Iri::new("http://dbpedia.org/resource/Mole_Antonelliana").unwrap();
        let hits = SearchService::content_for_resource(p.store(), &mole_res, 0.3).unwrap();
        assert!(
            hits.iter().any(|h| h.content == receipt.resource),
            "uploaded picture should be listed under its annotation"
        );
        // Hits carry links and titles.
        let mine = hits.iter().find(|h| h.content == receipt.resource).unwrap();
        assert!(mine.link.as_deref().unwrap_or("").contains("media/"));
        assert_eq!(
            mine.title.as_deref(),
            Some("Tramonto alla Mole Antonelliana")
        );
    }

    #[test]
    fn geo_fallback_finds_unannotated_content_nearby() {
        let p = platform();
        let mole_res =
            lodify_rdf::Iri::new("http://dbpedia.org/resource/Mole_Antonelliana").unwrap();
        // No annotations have been run; everything found comes from geo.
        let hits = SearchService::content_for_resource(p.store(), &mole_res, 0.3).unwrap();
        let q = crate::albums::AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3)
            .execute(p.store())
            .unwrap();
        assert_eq!(hits.len(), q.len());
    }

    #[test]
    fn debouncer_fires_two_seconds_after_last_keystroke() {
        let mut d = Debouncer::standard();
        d.keystroke(0.0, "T");
        d.keystroke(0.5, "Tu");
        d.keystroke(1.0, "Tur");
        assert_eq!(d.poll(2.5), None, "only 1.5s since last keystroke");
        assert_eq!(d.poll(3.0).as_deref(), Some("Tur"));
        assert_eq!(d.poll(10.0), None, "nothing pending");
        // Typing resumes → a second query fires.
        d.keystroke(11.0, "Turin");
        assert_eq!(d.poll(13.0).as_deref(), Some("Turin"));
        assert_eq!(d.fired().len(), 2);
    }

    #[test]
    fn debouncer_intermediate_states_never_fire() {
        let mut d = Debouncer::new(2.0);
        d.keystroke(0.0, "T");
        d.keystroke(1.9, "Tu");
        d.keystroke(3.8, "Tur");
        let fired = d.poll(6.0);
        assert_eq!(fired.as_deref(), Some("Tur"));
        assert_eq!(d.fired().len(), 1, "intermediate prefixes debounced away");
    }
}
