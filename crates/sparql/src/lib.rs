//! SPARQL subset engine for the LODify reproduction.
//!
//! Implements exactly the query surface the paper exercises against
//! Virtuoso, plus a small aggregation extension used by the experiment
//! harness:
//!
//! * `PREFIX` prologue, `SELECT [DISTINCT] ?v… | *`;
//! * basic graph patterns with the `a` keyword, `;`/`,` lists;
//! * `FILTER` with comparisons, boolean operators, `IN`, `lang()`,
//!   `langMatches()`, `str()`, `bound()`, `regex()`, `contains()`,
//!   `bif:st_intersects(g1, g2, km)` and `bif:contains(?lit, "word")`;
//! * `OPTIONAL`, `UNION`, nested `{ SELECT … }` subqueries (each with
//!   their own `LIMIT`, as in the paper's mashup query);
//! * `ORDER BY [ASC|DESC](expr)`, `LIMIT`, `OFFSET`;
//! * extension: `COUNT(*)/COUNT(?v) AS ?alias` with `GROUP BY`.
//!
//! Everything outside this subset is a **parse error**, never silent
//! misbehaviour.
//!
//! # One pipeline
//!
//! ```text
//! parse ─► plan_query ─► evaluate_planned(&Store, &Query, EvalOptions, &Plan) ─► (rows, EvalReport)
//! ```
//!
//! [`evaluate_planned`] is the only evaluator entry and [`plan`] the
//! only module that decides a join order. A [`Plan`] comes from
//! [`plan_query`] (exact-probe subset DP per BGP run — worth caching
//! under the query's [`fingerprint`] in a [`PlanCache`]) or is
//! `Plan::default()`, which covers no run, so each run is ordered at
//! entry by the planner's cold-start greedy. The one-shot conveniences
//! [`execute`], [`execute_snapshot`] and [`ask`] are [`parse`] +
//! [`evaluate_planned`] under `Plan::default()`; [`explain`] renders
//! what [`plan_query`] would choose.
//!
//! # Example
//!
//! ```
//! use lodify_store::Store;
//! use lodify_rdf::{Triple, Term, ns};
//!
//! let mut store = Store::new();
//! store.insert_default(&Triple::spo(
//!     "http://t/pic1",
//!     ns::iri::rdf_type().as_str(),
//!     Term::Iri(ns::iri::microblog_post()),
//! ));
//! let results = lodify_sparql::execute(
//!     &store,
//!     "PREFIX sioct: <http://rdfs.org/sioc/types#>
//!      SELECT ?r WHERE { ?r a sioct:MicroblogPost . }",
//! ).unwrap();
//! assert_eq!(results.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod cache;
pub mod error;
pub mod eval;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod profile;
pub mod results;

pub use cache::{PlanCache, PlanCacheStats, PlanLookup};
pub use error::SparqlError;
pub use eval::{evaluate_planned, EvalOptions, EvalReport};
pub use plan::{plan_query, Estimator, Plan};
pub use profile::{CardinalityProfile, EvalProfile, OperatorKind, OperatorProfile};
pub use results::{QueryResults, Row};

use lodify_store::Store;

/// Parses a query string (the default prefixes from
/// [`lodify_rdf::ns::PrefixMap::with_defaults`] are pre-registered, so
/// the paper's queries run verbatim even where the paper elides
/// `PREFIX geo:` etc.).
pub fn parse(query: &str) -> Result<ast::Query, SparqlError> {
    parser::parse_query(query)
}

/// Parses and evaluates a query against a store, one shot: no plan is
/// compiled, each BGP run is ordered cold at run entry.
pub fn execute(store: &Store, query: &str) -> Result<QueryResults, SparqlError> {
    let parsed = parse(query)?;
    Ok(evaluate_planned(store, &parsed, EvalOptions::default(), &Plan::default())?.0)
}

/// Parses and evaluates a query against a pinned MVCC snapshot,
/// returning the results together with the epoch they are valid at.
///
/// Any [`StoreSnapshot`](lodify_store::StoreSnapshot) derefs to
/// [`Store`], so plain [`execute`] works on snapshots too; this
/// convenience additionally hands back the pinned epoch so callers can
/// key caches or tag responses with the version they answered from.
///
/// ```
/// use lodify_rdf::{Term, Triple};
/// use lodify_store::Store;
///
/// let mut store = Store::new();
/// let g = store.default_graph();
/// store.insert(&Triple::spo("http://s", "http://p", Term::literal("v")), g);
///
/// let snap = store.snapshot();
/// let (rows, epoch) = lodify_sparql::execute_snapshot(
///     &snap,
///     "SELECT ?s WHERE { ?s <http://p> ?o . }",
/// ).unwrap();
/// assert_eq!(rows.len(), 1);
/// assert_eq!(epoch, snap.epoch());
///
/// // A commit after the pin does not disturb the pinned answer.
/// store.insert(&Triple::spo("http://s2", "http://p", Term::literal("w")), g);
/// let (again, epoch_again) = lodify_sparql::execute_snapshot(
///     &snap,
///     "SELECT ?s WHERE { ?s <http://p> ?o . }",
/// ).unwrap();
/// assert_eq!(again.len(), 1);
/// assert_eq!(epoch_again, epoch);
/// ```
pub fn execute_snapshot(
    snapshot: &lodify_store::StoreSnapshot,
    query: &str,
) -> Result<(QueryResults, u64), SparqlError> {
    Ok((execute(snapshot, query)?, snapshot.epoch()))
}

/// Parses and evaluates an `ASK` (or any) query, reducing to a boolean:
/// true iff at least one solution exists.
pub fn ask(store: &Store, query: &str) -> Result<bool, SparqlError> {
    Ok(!execute(store, query)?.is_empty())
}

/// Renders the cost-based plan [`plan_query`] compiles for a query: the
/// join order of every BGP run with per-step cardinality estimates,
/// nested by group structure ([`Plan::render`]).
pub fn explain(store: &Store, query: &str) -> Result<String, SparqlError> {
    let parsed = parse(query)?;
    Ok(plan_query(store, &parsed, None).render().to_string())
}

/// Normalizes a query into a fingerprint for slow-query aggregation:
/// string literals become `?`, numbers become `N`, and whitespace
/// collapses, so executions differing only in constants share one
/// fingerprint. Unlexable input falls back to whitespace collapsing.
pub fn fingerprint(query: &str) -> String {
    use lexer::Token;
    let Ok(tokens) = lexer::tokenize(query) else {
        return query.split_whitespace().collect::<Vec<_>>().join(" ");
    };
    let mut out = String::new();
    for token in &tokens {
        if !out.is_empty() {
            out.push(' ');
        }
        match token {
            Token::IriRef(iri) => {
                out.push('<');
                out.push_str(iri);
                out.push('>');
            }
            Token::PName { prefix, local } => {
                out.push_str(prefix);
                out.push(':');
                out.push_str(local);
            }
            Token::Var(name) => {
                out.push('?');
                out.push_str(name);
            }
            Token::String(_) => out.push('?'),
            Token::LangTag(tag) => {
                out.push('@');
                out.push_str(tag);
            }
            Token::DatatypeMarker => out.push_str("^^"),
            Token::Integer(_) | Token::Double(_) => out.push('N'),
            Token::Word(word) => out.push_str(&word.to_uppercase()),
            Token::Punct(p) => out.push_str(p),
        }
    }
    out
}

#[cfg(test)]
mod fingerprint_tests {
    use super::fingerprint;

    #[test]
    fn literals_and_numbers_normalize_away() {
        let a = fingerprint(r#"SELECT ?x WHERE { ?x rdfs:label "alice" . } LIMIT 10"#);
        let b = fingerprint("SELECT  ?x\nWHERE { ?x rdfs:label \"bob\" . }\tLIMIT 99");
        assert_eq!(a, b);
        assert!(a.contains('?'), "literal replaced by placeholder");
        assert!(a.ends_with("LIMIT N"));
    }

    #[test]
    fn different_shapes_keep_distinct_fingerprints() {
        let a = fingerprint("SELECT ?x WHERE { ?x a sioct:MicroblogPost . }");
        let b = fingerprint("SELECT ?y WHERE { ?y a sioct:MicroblogPost . }");
        assert_ne!(a, b, "variable names are part of the shape");
    }

    #[test]
    fn keywords_casefold() {
        assert_eq!(
            fingerprint("select ?x where { ?x a foaf:Person }"),
            fingerprint("SELECT ?x WHERE { ?x a foaf:Person }"),
        );
    }

    #[test]
    fn unlexable_input_collapses_whitespace() {
        assert_eq!(fingerprint("broken \x00 'query"), "broken \x00 'query");
    }
}
