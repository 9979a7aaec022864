//! Semantic filtering and disambiguation.
//!
//! §2.2.2, reproduced rule for rule:
//!
//! 1. **Graph priority** — "resources referring to Geonames graph have
//!    higher priority than the ones related to DBpedia, followed by
//!    Evri types of resources. At this time all candidate resources
//!    pointing to other graphs are discarded."
//! 2. **Validation** — "a validation is performed to check whether the
//!    resource itself is valid. This step depends on the single
//!    ontology": DBpedia resources must have an actual binding and must
//!    not be disambiguation pages; Geonames resources must exist; Evri
//!    resources are external and pass.
//! 3. **String similarity** — "candidates with Jaro-Winkler distance
//!    lower than 0.8 are discarded at this stage unless their DBpedia
//!    score is maximum."
//! 4. **Single-candidate rule** — "Automatic annotation is performed
//!    only in case a single candidate remains after this step, to avoid
//!    ambiguity and limit errors."

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use lodify_rdf::{Iri, Term};
use lodify_store::Store;
use lodify_text::distance::jaro_winkler_ci;

use crate::resolvers::{Candidate, SourceGraph, Vocab};

/// Why a candidate was discarded.
#[derive(Debug, Clone, PartialEq)]
pub enum DiscardReason {
    /// Graph not in the priority list ("all candidate resources
    /// pointing to other graphs are discarded").
    UnknownGraph,
    /// A higher-priority graph had surviving candidates.
    LowerPriorityGraph,
    /// Resource has no binding in the store.
    NoBinding,
    /// Resource is a disambiguation page.
    DisambiguationPage,
    /// Jaro–Winkler similarity below threshold.
    JaroWinkler(f64),
    /// More than one candidate survived — no automatic annotation.
    Ambiguous,
}

/// Filter configuration (every §2.2.2 knob; `tests/reproduction.rs`
/// ablates them against the paper's values).
#[derive(Debug, Clone)]
pub struct FilterConfig {
    /// Graph priority order; graphs not listed are discarded.
    pub graph_priority: Vec<SourceGraph>,
    /// Jaro–Winkler threshold (paper: 0.8).
    pub jw_threshold: f64,
    /// Whether the max-DBpedia-score exemption from the JW rule applies.
    pub max_score_exemption: bool,
    /// Whether per-ontology validation runs.
    pub validate: bool,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            graph_priority: vec![
                SourceGraph::Geonames,
                SourceGraph::DBpedia,
                SourceGraph::Evri,
            ],
            jw_threshold: 0.8,
            max_score_exemption: true,
            validate: true,
        }
    }
}

/// Outcome of filtering one term's candidates.
#[derive(Debug, Clone)]
pub struct FilterOutcome {
    /// The term.
    pub term: String,
    /// The automatic annotation, when exactly one candidate survived.
    pub chosen: Option<Candidate>,
    /// Candidates that survived every rule (more than one ⇒ ambiguous,
    /// surfaced to the user-assisted UI instead of auto-annotation).
    pub survivors: Vec<Candidate>,
    /// Discarded candidates with reasons (diagnostics + experiments).
    pub discarded: Vec<(Candidate, DiscardReason)>,
}

/// The semantic filter.
#[derive(Debug, Clone, Default)]
pub struct SemanticFilter {
    config: FilterConfig,
}

impl SemanticFilter {
    /// A filter with the paper's configuration.
    pub fn standard() -> SemanticFilter {
        SemanticFilter {
            config: FilterConfig::default(),
        }
    }

    /// A filter with a custom configuration.
    pub fn with_config(config: FilterConfig) -> SemanticFilter {
        SemanticFilter { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// Runs the full §2.2.2 pipeline over one term's candidates.
    pub fn filter(&self, store: &Store, term: &str, candidates: &[Candidate]) -> FilterOutcome {
        let mut discarded: Vec<(Candidate, DiscardReason)> = Vec::new();

        // Deduplicate by resource IRI, keeping the best-scored copy.
        let unique = best_per_resource(candidates)
            .into_iter()
            .map(|i| candidates[i].clone());

        // 1. Graph membership.
        let mut pool: Vec<Candidate> = Vec::new();
        for candidate in unique {
            if self.config.graph_priority.contains(&candidate.graph) {
                pool.push(candidate);
            } else {
                discarded.push((candidate, DiscardReason::UnknownGraph));
            }
        }

        // 2. Per-ontology validation (may normalize redirect pages,
        //    so dedup again afterwards).
        if self.config.validate {
            let vocab = Vocab::of(store);
            let mut valid: Vec<Candidate> = Vec::new();
            for mut candidate in pool {
                match self.validate(store, &vocab, &mut candidate) {
                    Ok(()) => valid.push(candidate),
                    Err(reason) => discarded.push((candidate, reason)),
                }
            }
            pool = best_per_resource(&valid)
                .into_iter()
                .map(|i| valid[i].clone())
                .collect();
        }

        // 3. Jaro–Winkler vs the original word.
        let mut similar = Vec::new();
        for candidate in pool {
            let jw = jaro_winkler_ci(term, &candidate.label);
            let exempt = self.config.max_score_exemption
                && candidate.graph == SourceGraph::DBpedia
                && candidate.score >= 1.0;
            if jw >= self.config.jw_threshold || exempt {
                similar.push(candidate);
            } else {
                discarded.push((candidate, DiscardReason::JaroWinkler(jw)));
            }
        }

        // 4. Highest-priority graph wins; the rest are discarded.
        let mut survivors: Vec<Candidate> = Vec::new();
        for graph in &self.config.graph_priority {
            let (mine, rest): (Vec<Candidate>, Vec<Candidate>) =
                similar.drain(..).partition(|c| c.graph == *graph);
            if !mine.is_empty() {
                survivors = mine;
                for c in rest {
                    discarded.push((c, DiscardReason::LowerPriorityGraph));
                }
                break;
            }
            similar = rest;
        }

        // 5. Single-candidate auto-annotation.
        let chosen = if survivors.len() == 1 {
            Some(survivors[0].clone())
        } else {
            for c in &survivors {
                discarded.push((c.clone(), DiscardReason::Ambiguous));
            }
            None
        };

        FilterOutcome {
            term: term.to_string(),
            chosen,
            survivors,
            discarded,
        }
    }

    /// Per-ontology validation; normalizes DBpedia redirect pages to
    /// their targets (mutating the candidate).
    fn validate(
        &self,
        store: &Store,
        vocab: &Vocab,
        candidate: &mut Candidate,
    ) -> Result<(), DiscardReason> {
        match candidate.graph {
            // Evri resources are external; no local validation possible.
            SourceGraph::Evri => Ok(()),
            SourceGraph::DBpedia | SourceGraph::Geonames | SourceGraph::Other => {
                let Some(subject) = store.id_of(&Term::Iri(candidate.resource.clone())) else {
                    return Err(DiscardReason::NoBinding);
                };
                if store.match_ids(Some(subject), None, None).next().is_none() {
                    return Err(DiscardReason::NoBinding);
                }
                if candidate.graph == SourceGraph::DBpedia {
                    // Normalize redirect pages (Sindice hands them over
                    // raw; the DBpedia resolver already followed them).
                    let canonical = vocab.follow_redirect(store, subject);
                    if canonical != subject {
                        if let Some(iri) = store.term_of(canonical).and_then(|t| t.as_iri()) {
                            candidate.resource = iri.clone();
                        }
                    }
                    if vocab.is_disambiguation(store, canonical) {
                        return Err(DiscardReason::DisambiguationPage);
                    }
                }
                Ok(())
            }
        }
    }
}

/// Deduplication by resource IRI in one pass: the positions of the
/// candidates to keep, one per distinct resource, in the order each
/// resource first appears. A later duplicate takes its resource's
/// place only with a strictly higher score.
fn best_per_resource(candidates: &[Candidate]) -> Vec<usize> {
    let mut slot_of: HashMap<&Iri, usize> = HashMap::with_capacity(candidates.len());
    let mut kept: Vec<usize> = Vec::new();
    for (i, candidate) in candidates.iter().enumerate() {
        match slot_of.entry(&candidate.resource) {
            Entry::Occupied(slot) => {
                let best = &mut kept[*slot.get()];
                if candidate.score > candidates[*best].score {
                    *best = i;
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(kept.len());
                kept.push(i);
            }
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::SemanticBroker;
    use crate::datasets::{dbp, load_lod};
    use lodify_context::gazetteer::Gazetteer;

    fn store() -> Store {
        let mut s = Store::new();
        load_lod(&mut s, Gazetteer::global());
        s
    }

    fn candidates_for(s: &Store, term: &str, title: &str) -> Vec<Candidate> {
        let broker = SemanticBroker::standard();
        let out = broker.resolve(s, &[term.to_string()], title, None);
        out.terms.into_iter().next().unwrap().candidates
    }

    #[test]
    fn geonames_outranks_dbpedia_for_city_terms() {
        let s = store();
        let cands = candidates_for(&s, "Torino", "");
        let outcome = SemanticFilter::standard().filter(&s, "Torino", &cands);
        let chosen = outcome.chosen.expect("city resolves");
        assert_eq!(chosen.graph, SourceGraph::Geonames);
        assert!(chosen
            .resource
            .as_str()
            .starts_with("http://sws.geonames.org/"));
        // The DBpedia copy was discarded as lower priority.
        assert!(outcome.discarded.iter().any(
            |(c, r)| c.graph == SourceGraph::DBpedia && *r == DiscardReason::LowerPriorityGraph
        ));
    }

    #[test]
    fn monument_terms_resolve_via_dbpedia() {
        let s = store();
        let cands = candidates_for(&s, "Mole Antonelliana", "Tramonto alla Mole Antonelliana");
        let outcome = SemanticFilter::standard().filter(&s, "Mole Antonelliana", &cands);
        let chosen = outcome.chosen.expect("monument resolves");
        assert_eq!(chosen.resource, dbp("Mole_Antonelliana"));
    }

    #[test]
    fn ambiguous_homonyms_block_auto_annotation_unless_score_breaks_tie() {
        let s = store();
        let cands = candidates_for(&s, "Mole", "");
        let outcome = SemanticFilter::standard().filter(&s, "Mole", &cands);
        // All three Mole candidates pass JW=1.0; the monument's max
        // score doesn't reduce the set — more than one survivor means
        // no automatic annotation (the paper's single-candidate rule).
        assert!(outcome.chosen.is_none());
        assert!(outcome.survivors.len() > 1);
        assert!(outcome
            .discarded
            .iter()
            .any(|(_, r)| *r == DiscardReason::Ambiguous));
    }

    #[test]
    fn jw_rule_discards_weak_labels_with_exemption_for_max_dbpedia_score() {
        let s = store();
        // "Coliseum" resolves to Colosseum via redirect: label "Coliseum",
        // JW("Coliseum","Coliseum")=1 — fine. Now force a weak term.
        let cands = candidates_for(&s, "Colosseum", "");
        let filter = SemanticFilter::standard();
        // Filter the same candidates against a dissimilar term.
        let outcome = filter.filter(&s, "amphitheatre", &cands);
        // The Colosseum monument has max DBpedia score → exempt; the
        // band (lower score) is discarded by JW.
        assert!(outcome
            .discarded
            .iter()
            .any(|(_, r)| matches!(r, DiscardReason::JaroWinkler(_))));
        assert_eq!(outcome.chosen.map(|c| c.resource), Some(dbp("Colosseum")));

        // Without the exemption nothing survives.
        let strict = SemanticFilter::with_config(FilterConfig {
            max_score_exemption: false,
            ..FilterConfig::default()
        });
        let outcome = strict.filter(&s, "amphitheatre", &cands);
        assert!(outcome.chosen.is_none());
        assert!(outcome.survivors.is_empty());
    }

    #[test]
    fn validation_discards_unbound_and_disambiguation_resources() {
        let s = store();
        let ghost = Candidate {
            resource: dbp("Completely_Absent_Resource"),
            label: "Ghost".into(),
            graph: SourceGraph::DBpedia,
            score: 0.9,
            types: vec![],
            resolver: "test",
        };
        let disamb = Candidate {
            resource: dbp("Mole_(disambiguation)"),
            label: "Mole".into(),
            graph: SourceGraph::DBpedia,
            score: 0.9,
            types: vec![],
            resolver: "test",
        };
        let outcome = SemanticFilter::standard().filter(&s, "Ghost", std::slice::from_ref(&ghost));
        assert!(outcome
            .discarded
            .iter()
            .any(|(_, r)| *r == DiscardReason::NoBinding));
        let outcome = SemanticFilter::standard().filter(&s, "Mole", &[disamb]);
        assert!(outcome
            .discarded
            .iter()
            .any(|(_, r)| *r == DiscardReason::DisambiguationPage));

        // With validation off, the ghost sails through.
        let lax = SemanticFilter::with_config(FilterConfig {
            validate: false,
            ..FilterConfig::default()
        });
        let outcome = lax.filter(&s, "Ghost", &[ghost]);
        assert!(outcome.chosen.is_some());
    }

    #[test]
    fn other_graph_candidates_are_always_discarded() {
        let s = store();
        let lgd_candidate = Candidate {
            resource: crate::datasets::lgd("Ristorante_Del_Cambio"),
            label: "Del Cambio".into(),
            graph: SourceGraph::Other,
            score: 0.5,
            types: vec![],
            resolver: "sindice",
        };
        let outcome = SemanticFilter::standard().filter(&s, "Del Cambio", &[lgd_candidate]);
        assert!(outcome.chosen.is_none());
        assert_eq!(outcome.discarded[0].1, DiscardReason::UnknownGraph);
    }

    #[test]
    fn duplicate_candidates_collapse_keeping_best_score() {
        let s = store();
        let a = Candidate {
            resource: dbp("Turin"),
            label: "Turin".into(),
            graph: SourceGraph::DBpedia,
            score: 0.4,
            types: vec![],
            resolver: "zemanta",
        };
        let b = Candidate {
            score: 1.0,
            resolver: "dbpedia",
            ..a.clone()
        };
        let outcome = SemanticFilter::standard().filter(&s, "Turin", &[a, b]);
        let chosen = outcome.chosen.expect("deduped to one");
        assert_eq!(chosen.score, 1.0);
    }

    #[test]
    fn custom_priority_order_changes_winner() {
        let s = store();
        let cands = candidates_for(&s, "Torino", "");
        let dbp_first = SemanticFilter::with_config(FilterConfig {
            graph_priority: vec![SourceGraph::DBpedia, SourceGraph::Geonames],
            ..FilterConfig::default()
        });
        let outcome = dbp_first.filter(&s, "Torino", &cands);
        let chosen = outcome.chosen.expect("resolves");
        assert_eq!(chosen.graph, SourceGraph::DBpedia);
    }

    #[test]
    fn one_pass_dedup_matches_the_pairwise_scan() {
        // The quadratic scan it replaced: first position kept, replaced
        // only by a strictly higher score.
        fn pairwise(candidates: &[Candidate]) -> Vec<Candidate> {
            let mut unique: Vec<Candidate> = Vec::new();
            for candidate in candidates {
                match unique.iter_mut().find(|c| c.resource == candidate.resource) {
                    Some(existing) => {
                        if candidate.score > existing.score {
                            *existing = candidate.clone();
                        }
                    }
                    None => unique.push(candidate.clone()),
                }
            }
            unique
        }
        let mut rng = lodify_resilience::DetRng::seed_from_u64(3);
        for _ in 0..200 {
            let n = rng.random_range(0..40usize);
            let candidates: Vec<Candidate> = (0..n)
                .map(|i| Candidate {
                    resource: dbp(&format!("R{}", rng.random_range(0..8u64))),
                    label: format!("label {i}"),
                    graph: SourceGraph::DBpedia,
                    // Few distinct scores, so ties are common.
                    score: rng.random_range(0..4u64) as f64 / 4.0,
                    types: vec![],
                    resolver: "test",
                })
                .collect();
            let kept: Vec<Candidate> = best_per_resource(&candidates)
                .into_iter()
                .map(|i| candidates[i].clone())
                .collect();
            assert_eq!(kept, pairwise(&candidates));
        }
    }
}
