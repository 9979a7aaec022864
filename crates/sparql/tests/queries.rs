//! End-to-end SPARQL engine tests, built around the paper's own
//! queries (§2.3 virtual albums Q1–Q3, §4.1 mashup).

use lodify_rdf::{ns, Literal, Point, Term, Triple};
use lodify_sparql::execute;
use lodify_store::Store;

/// Mole Antonelliana coordinates.
fn mole() -> Point {
    Point::new(7.6933, 45.0692).unwrap()
}

fn lit(v: &str) -> Term {
    Term::literal(v)
}

fn lang(v: &str, l: &str) -> Term {
    Term::Literal(Literal::lang(v, l).unwrap())
}

fn int(v: i64) -> Term {
    Term::Literal(Literal::integer(v))
}

fn geom(p: Point) -> Term {
    Term::Literal(p.to_literal())
}

/// Builds the fixture the paper's §2.3 walkthrough assumes:
/// a DBpedia monument, users with a friendship edge, and UGC pictures
/// near and far from the monument, with ratings.
fn paper_store() -> Store {
    let mut store = Store::new();
    let dbp = store.graph("urn:g:dbpedia");
    let ugc = store.graph("urn:g:ugc");

    let monument = "http://dbpedia.org/resource/Mole_Antonelliana";
    store.insert(
        &Triple::spo(
            monument,
            ns::iri::rdfs_label().as_str(),
            lang("Mole Antonelliana", "it"),
        ),
        dbp,
    );
    store.insert(
        &Triple::spo(monument, ns::iri::geo_geometry().as_str(), geom(mole())),
        dbp,
    );

    // Users: oscar, walter (friend of oscar), carmen (not a friend).
    for (user, name) in [
        ("http://t/users/1", "oscar"),
        ("http://t/users/2", "walter"),
        ("http://t/users/3", "carmen"),
    ] {
        store.insert(
            &Triple::spo(user, ns::iri::foaf_name().as_str(), lit(name)),
            ugc,
        );
    }
    store.insert(
        &Triple::spo(
            "http://t/users/2",
            ns::iri::foaf_knows().as_str(),
            Term::iri_unchecked("http://t/users/1"),
        ),
        ugc,
    );

    // Pictures: (id, maker, offset_km from Mole, rating)
    let pics = [
        (1, "http://t/users/2", 0.05, 5), // near, by friend walter
        (2, "http://t/users/2", 0.15, 2), // near, by friend walter
        (3, "http://t/users/3", 0.10, 4), // near, by carmen (not friend)
        (4, "http://t/users/2", 5.0, 5),  // far, by friend
    ];
    for (id, maker, dist, rating) in pics {
        let iri = format!("http://t/pictures/{id}");
        store.insert(
            &Triple::spo(
                &iri,
                ns::iri::rdf_type().as_str(),
                Term::Iri(ns::iri::microblog_post()),
            ),
            ugc,
        );
        store.insert(
            &Triple::spo(
                &iri,
                ns::iri::geo_geometry().as_str(),
                geom(mole().offset_km(dist, 0.0)),
            ),
            ugc,
        );
        store.insert(
            &Triple::spo(
                &iri,
                ns::iri::image_data().as_str(),
                lit(&format!("http://t/media/{id}.jpg")),
            ),
            ugc,
        );
        store.insert(
            &Triple::spo(
                &iri,
                ns::iri::foaf_maker().as_str(),
                Term::iri_unchecked(maker),
            ),
            ugc,
        );
        store.insert(
            &Triple::spo(&iri, ns::iri::rev_rating().as_str(), int(rating)),
            ugc,
        );
    }
    store
}

/// Q1 (§2.3): UGC near the monument "Mole Antonelliana".
const Q1: &str = r#"
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX sioct: <http://rdfs.org/sioc/types#>
PREFIX comm: <http://comm.semanticweb.org/core.owl#>
PREFIX rev: <http://purl.org/stuff/rev#>
SELECT DISTINCT ?link WHERE {
  ?monument rdfs:label "Mole Antonelliana"@it .
  ?monument geo:geometry ?sourceGEO .
  ?resource geo:geometry ?location .
  ?resource a sioct:MicroblogPost .
  ?resource comm:image-data ?link .
  FILTER(bif:st_intersects(?location, ?sourceGEO, 0.3)) .
}
"#;

#[test]
fn q1_geo_virtual_album() {
    let store = paper_store();
    let results = execute(&store, Q1).unwrap();
    let mut links: Vec<String> = results
        .column("link")
        .iter()
        .map(|t| t.lexical().to_string())
        .collect();
    links.sort();
    assert_eq!(
        links,
        vec![
            "http://t/media/1.jpg",
            "http://t/media/2.jpg",
            "http://t/media/3.jpg"
        ]
    );
}

/// Q2 (§2.3): Q1 plus social filtering (friends of "oscar").
const Q2: &str = r#"
SELECT DISTINCT ?link WHERE
{
  ?monument rdfs:label "Mole Antonelliana"@it .
  ?monument geo:geometry ?sourceGEO .
  ?resource geo:geometry ?location .
  ?resource a sioct:MicroblogPost .
  ?resource comm:image-data ?link .
  ?resource foaf:maker ?user .
  ?oscar foaf:name "oscar" .
  ?user foaf:knows ?oscar .
  FILTER( bif:st_intersects( ?location, ?sourceGEO, 0.3 ) ) .
}
"#;

#[test]
fn q2_social_virtual_album() {
    let store = paper_store();
    let results = execute(&store, Q2).unwrap();
    let mut links: Vec<String> = results
        .column("link")
        .iter()
        .map(|t| t.lexical().to_string())
        .collect();
    links.sort();
    // carmen's picture (3) drops out; far picture (4) still excluded.
    assert_eq!(links, vec!["http://t/media/1.jpg", "http://t/media/2.jpg"]);
}

/// Q3 (§2.3): Q2 ordered by rating, descending.
const Q3: &str = r#"
SELECT DISTINCT ?link WHERE {
  ?monument rdfs:label "Mole Antonelliana"@it .
  ?monument geo:geometry ?sourceGEO .
  ?resource geo:geometry ?location .
  ?resource a sioct:MicroblogPost .
  ?resource comm:image-data ?link .
  ?resource foaf:maker ?user .
  ?oscar foaf:name "oscar" .
  ?user foaf:knows ?oscar .
  ?resource rev:rating ?points .
  FILTER( bif:st_intersects( ?location, ?sourceGEO, 0.3 ) ) .
}
ORDER BY DESC(?points)
"#;

#[test]
fn q3_rating_ordered_album() {
    let store = paper_store();
    let results = execute(&store, Q3).unwrap();
    let links: Vec<String> = results
        .column("link")
        .iter()
        .map(|t| t.lexical().to_string())
        .collect();
    // rating 5 (pic 1) before rating 2 (pic 2).
    assert_eq!(links, vec!["http://t/media/1.jpg", "http://t/media/2.jpg"]);
}

#[test]
fn optional_keeps_rows_without_match() {
    let mut store = Store::new();
    let g = store.default_graph();
    store.insert(
        &Triple::spo("http://r/1", "http://p/type", lit("restaurant")),
        g,
    );
    store.insert(
        &Triple::spo("http://r/1", "http://p/website", lit("http://r1.example")),
        g,
    );
    store.insert(
        &Triple::spo("http://r/2", "http://p/type", lit("restaurant")),
        g,
    );
    let results = execute(
        &store,
        r#"SELECT ?r ?w WHERE {
            ?r <http://p/type> "restaurant" .
            OPTIONAL { ?r <http://p/website> ?w }
        }"#,
    )
    .unwrap();
    assert_eq!(results.len(), 2);
    let bound: usize = results.iter().filter(|row| row.get("w").is_some()).count();
    assert_eq!(bound, 1);
}

#[test]
fn union_concatenates_branches() {
    let mut store = Store::new();
    let g = store.default_graph();
    store.insert(&Triple::spo("http://a", "http://p/x", lit("1")), g);
    store.insert(&Triple::spo("http://b", "http://p/y", lit("2")), g);
    let results = execute(
        &store,
        r#"SELECT ?v WHERE {
            { ?s <http://p/x> ?v . } UNION { ?s <http://p/y> ?v . }
        }"#,
    )
    .unwrap();
    let mut vals: Vec<String> = results
        .column("v")
        .iter()
        .map(|t| t.lexical().to_string())
        .collect();
    vals.sort();
    assert_eq!(vals, vec!["1", "2"]);
}

#[test]
fn subselect_limit_applies_per_arm() {
    let mut store = Store::new();
    let g = store.default_graph();
    for i in 0..10 {
        store.insert(
            &Triple::spo(&format!("http://c/{i}"), "http://p/kind", lit("city")),
            g,
        );
        store.insert(
            &Triple::spo(&format!("http://r/{i}"), "http://p/kind", lit("restaurant")),
            g,
        );
    }
    let results = execute(
        &store,
        r#"SELECT DISTINCT ?s WHERE {
            { SELECT ?s WHERE { ?s <http://p/kind> "city" . } LIMIT 3 }
            UNION
            { SELECT ?s WHERE { ?s <http://p/kind> "restaurant" . } LIMIT 2 }
        }"#,
    )
    .unwrap();
    assert_eq!(results.len(), 5);
}

#[test]
fn langmatches_filters_by_language() {
    let mut store = Store::new();
    let g = store.default_graph();
    store.insert(
        &Triple::spo(
            "http://city/turin",
            ns::iri::dbpo_abstract().as_str(),
            lang("Torino è una città", "it"),
        ),
        g,
    );
    store.insert(
        &Triple::spo(
            "http://city/turin",
            ns::iri::dbpo_abstract().as_str(),
            lang("Turin is a city", "en"),
        ),
        g,
    );
    let results = execute(
        &store,
        "SELECT ?d WHERE { ?c dbpo:abstract ?d . FILTER langMatches(lang(?d), 'it') . }",
    )
    .unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results.column("d")[0].lexical(), "Torino è una città");
}

#[test]
fn in_filter_on_types() {
    let mut store = Store::new();
    let g = store.default_graph();
    for (s, t) in [
        ("http://e/1", "http://linkedgeodata.org/ontology/City"),
        ("http://e/2", "http://linkedgeodata.org/ontology/Restaurant"),
        ("http://e/3", "http://linkedgeodata.org/ontology/Pub"),
    ] {
        store.insert(
            &Triple::spo(s, ns::iri::rdf_type().as_str(), Term::iri_unchecked(t)),
            g,
        );
    }
    let results = execute(
        &store,
        "SELECT ?e WHERE { ?e a ?t . FILTER (?t in (lgdo:City, lgdo:Restaurant)) . }",
    )
    .unwrap();
    assert_eq!(results.len(), 2);
}

#[test]
fn count_group_by_extension() {
    let store = paper_store();
    let results = execute(
        &store,
        "SELECT ?user (COUNT(*) AS ?n) WHERE { ?pic foaf:maker ?user . } GROUP BY ?user ORDER BY DESC(?n)",
    )
    .unwrap();
    assert_eq!(results.len(), 2);
    let first = results.first().unwrap();
    assert_eq!(first.get("user").unwrap().lexical(), "http://t/users/2");
    assert_eq!(first.get("n").unwrap().lexical(), "3");
}

#[test]
fn count_without_group_by_on_empty_is_zero() {
    let store = Store::new();
    let results = execute(
        &store,
        "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://nothing> ?o . }",
    )
    .unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results.column("n")[0].lexical(), "0");
}

#[test]
fn select_star_projects_visible_vars() {
    let store = paper_store();
    let results = execute(&store, "SELECT * WHERE { ?u foaf:name ?n . }").unwrap();
    assert_eq!(results.vars, vec!["u".to_string(), "n".to_string()]);
    assert_eq!(results.len(), 3);
}

#[test]
fn repeated_variable_in_pattern_requires_equality() {
    let mut store = Store::new();
    let g = store.default_graph();
    store.insert(
        &Triple::spo("http://x", "http://p/self", Term::iri_unchecked("http://x")),
        g,
    );
    store.insert(
        &Triple::spo("http://y", "http://p/self", Term::iri_unchecked("http://z")),
        g,
    );
    let results = execute(&store, "SELECT ?a WHERE { ?a <http://p/self> ?a . }").unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results.column("a")[0].lexical(), "http://x");
}

#[test]
fn limit_offset_pagination() {
    let mut store = Store::new();
    let g = store.default_graph();
    for i in 0..10 {
        store.insert(
            &Triple::spo(&format!("http://i/{i}"), "http://p/rank", int(i)),
            g,
        );
    }
    let page = execute(
        &store,
        "SELECT ?s ?r WHERE { ?s <http://p/rank> ?r . } ORDER BY ?r LIMIT 3 OFFSET 4",
    )
    .unwrap();
    let ranks: Vec<String> = page
        .column("r")
        .iter()
        .map(|t| t.lexical().to_string())
        .collect();
    assert_eq!(ranks, vec!["4", "5", "6"]);
}

#[test]
fn filter_rejecting_all_rows_yields_empty() {
    let store = paper_store();
    let results = execute(
        &store,
        "SELECT ?p WHERE { ?p rev:rating ?r . FILTER(?r > 100) . }",
    )
    .unwrap();
    assert!(results.is_empty());
}

#[test]
fn constant_not_in_store_matches_nothing() {
    let store = paper_store();
    let results = execute(&store, "SELECT ?o WHERE { <http://never/seen> ?p ?o . }").unwrap();
    assert!(results.is_empty());
}

#[test]
fn bif_contains_fulltext_filter() {
    let store = paper_store();
    let results = execute(
        &store,
        r#"SELECT ?m WHERE { ?m rdfs:label ?l . FILTER(bif:contains(?l, "antonelliana")) . }"#,
    )
    .unwrap();
    assert_eq!(results.len(), 1);
}

#[test]
fn unsupported_feature_is_a_clear_error() {
    let store = Store::new();
    // CONSTRUCT is outside the subset.
    let err = execute(&store, "CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }").unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("expected SELECT") || msg.to_lowercase().contains("parse"),
        "{msg}"
    );
}

// ---------------------------------------------------------------------
// evaluator edge cases beyond the paper's query surface
// ---------------------------------------------------------------------

#[test]
fn filter_inside_optional_only_constrains_the_optional_part() {
    let mut store = Store::new();
    let g = store.default_graph();
    for (r, rating) in [("http://r/1", 5i64), ("http://r/2", 2)] {
        store.insert(&Triple::spo(r, "http://p/type", lit("item")), g);
        store.insert(&Triple::spo(r, "http://p/rating", int(rating)), g);
    }
    store.insert(&Triple::spo("http://r/3", "http://p/type", lit("item")), g);
    let results = execute(
        &store,
        r#"SELECT ?r ?score WHERE {
            ?r <http://p/type> "item" .
            OPTIONAL { ?r <http://p/rating> ?score . FILTER(?score >= 4) }
        }"#,
    )
    .unwrap();
    // All three items survive; only r/1 carries a score.
    assert_eq!(results.len(), 3);
    let bound: Vec<&str> = results
        .iter()
        .filter(|row| row.get("score").is_some())
        .map(|row| row.get("r").unwrap().lexical())
        .collect();
    assert_eq!(bound, vec!["http://r/1"]);
}

#[test]
fn nested_unions_flatten_correctly() {
    let mut store = Store::new();
    let g = store.default_graph();
    store.insert(&Triple::spo("http://a", "http://p/x", lit("1")), g);
    store.insert(&Triple::spo("http://b", "http://p/y", lit("2")), g);
    store.insert(&Triple::spo("http://c", "http://p/z", lit("3")), g);
    let results = execute(
        &store,
        r#"SELECT ?v WHERE {
            { ?s <http://p/x> ?v . }
            UNION { ?s <http://p/y> ?v . }
            UNION { ?s <http://p/z> ?v . }
        }"#,
    )
    .unwrap();
    assert_eq!(results.len(), 3);
}

#[test]
fn union_joins_with_surrounding_patterns() {
    let mut store = Store::new();
    let g = store.default_graph();
    for (s, kind) in [("http://m/1", "museum"), ("http://m/2", "church")] {
        store.insert(&Triple::spo(s, "http://p/kind", lit(kind)), g);
        store.insert(&Triple::spo(s, "http://p/city", lit("Turin")), g);
    }
    store.insert(
        &Triple::spo("http://m/3", "http://p/kind", lit("museum")),
        g,
    );
    let results = execute(
        &store,
        r#"SELECT ?s WHERE {
            ?s <http://p/city> "Turin" .
            { ?s <http://p/kind> "museum" . } UNION { ?s <http://p/kind> "church" . }
        }"#,
    )
    .unwrap();
    // m/3 lacks the city triple and must not appear.
    assert_eq!(results.len(), 2);
}

#[test]
fn order_by_mixed_bound_and_unbound_sorts_unbound_first() {
    let mut store = Store::new();
    let g = store.default_graph();
    for (s, rating) in [
        ("http://r/1", Some(3i64)),
        ("http://r/2", None),
        ("http://r/3", Some(1)),
    ] {
        store.insert(&Triple::spo(s, "http://p/type", lit("x")), g);
        if let Some(v) = rating {
            store.insert(&Triple::spo(s, "http://p/rating", int(v)), g);
        }
    }
    let results = execute(
        &store,
        r#"SELECT ?s ?r WHERE {
            ?s <http://p/type> "x" .
            OPTIONAL { ?s <http://p/rating> ?r }
        } ORDER BY ?r"#,
    )
    .unwrap();
    let order: Vec<&str> = results
        .iter()
        .map(|row| row.get("s").unwrap().lexical())
        .collect();
    assert_eq!(order, vec!["http://r/2", "http://r/3", "http://r/1"]);
}

#[test]
fn distinct_interacts_with_order_and_limit() {
    let mut store = Store::new();
    let g = store.default_graph();
    for i in 0..6 {
        store.insert(
            &Triple::spo(&format!("http://s/{i}"), "http://p/group", int(i % 3)),
            g,
        );
    }
    let results = execute(
        &store,
        "SELECT DISTINCT ?g WHERE { ?s <http://p/group> ?g . } ORDER BY DESC(?g) LIMIT 2",
    )
    .unwrap();
    let values: Vec<&str> = results.column("g").iter().map(|t| t.lexical()).collect();
    assert_eq!(values, vec!["2", "1"]);
}

#[test]
fn count_distinct_variable() {
    let mut store = Store::new();
    let g = store.default_graph();
    for (s, o) in [("http://a", "x"), ("http://b", "x"), ("http://c", "y")] {
        store.insert(&Triple::spo(s, "http://p/v", lit(o)), g);
    }
    let results = execute(
        &store,
        "SELECT (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s <http://p/v> ?o . }",
    )
    .unwrap();
    assert_eq!(results.column("n")[0].lexical(), "2");
}

#[test]
fn variable_predicate_queries_work() {
    let store = paper_store();
    let results = execute(
        &store,
        "SELECT DISTINCT ?p WHERE { <http://t/pictures/1> ?p ?o . }",
    )
    .unwrap();
    assert_eq!(results.len(), 5, "type/geom/image/maker/rating");
}

#[test]
fn deeply_nested_groups_evaluate() {
    let store = paper_store();
    let results = execute(
        &store,
        r#"SELECT ?u WHERE { { { ?u foaf:name "oscar" . } } }"#,
    )
    .unwrap();
    assert_eq!(results.len(), 1);
}

#[test]
fn ask_queries_reduce_to_booleans() {
    let store = paper_store();
    assert!(
        lodify_sparql::ask(&store, r#"ASK { ?m rdfs:label "Mole Antonelliana"@it . }"#,).unwrap()
    );
    assert!(
        !lodify_sparql::ask(&store, r#"ASK WHERE { ?m rdfs:label "Tour Eiffel"@fr . }"#,).unwrap()
    );
    // The paper's validation shape: does the resource have any binding?
    assert!(lodify_sparql::ask(
        &store,
        "ASK { <http://dbpedia.org/resource/Mole_Antonelliana> ?p ?o . }",
    )
    .unwrap());
}

#[test]
fn explain_shows_greedy_join_order() {
    let store = paper_store();
    let plan = lodify_sparql::explain(&store, Q1).unwrap();
    // The selective label pattern (one monument) must open the
    // ?monument side, ahead of the unselective geometry pattern on the
    // same variable (every picture has a geometry).
    let label_pos = plan
        .find(ns::iri::rdfs_label().as_str())
        .expect("label pattern in plan");
    let geometry_pos = plan
        .find(&format!("?monument <{}>", ns::iri::geo_geometry().as_str()))
        .expect("monument geometry pattern in plan");
    assert!(label_pos < geometry_pos, "{plan}");
    assert!(plan.contains("est."));
    assert!(plan.contains("apply 1 filter(s)"));
    // One renderer: `explain` is the compiled plan's own text.
    let parsed = lodify_sparql::parse(Q1).unwrap();
    assert_eq!(
        plan,
        lodify_sparql::plan_query(&store, &parsed, None).render()
    );
}

/// Evaluates `query` cold (no compiled plan).
fn run_cold(
    store: &Store,
    query: &str,
) -> (lodify_sparql::QueryResults, lodify_sparql::EvalReport) {
    let parsed = lodify_sparql::parse(query).unwrap();
    lodify_sparql::evaluate_planned(
        store,
        &parsed,
        lodify_sparql::EvalOptions::default(),
        &lodify_sparql::Plan::default(),
    )
    .unwrap()
}

// ---------------------------------------------------------------------
// Per-operator profiling.
// ---------------------------------------------------------------------

#[test]
fn eval_profile_covers_every_paper_query_operator() {
    use lodify_sparql::{CardinalityProfile, OperatorKind};
    let store = paper_store();
    for (name, query) in [("Q1", Q1), ("Q2", Q2), ("Q3", Q3)] {
        let (_, report) = run_cold(&store, query);
        let ops = report.profile.operators();
        assert!(
            ops.iter().any(|o| o.kind == OperatorKind::Scan),
            "{name}: missing scan"
        );
        assert!(
            ops.iter().any(|o| o.kind == OperatorKind::Join),
            "{name}: missing join"
        );
        assert!(
            ops.iter().any(|o| o.kind == OperatorKind::Filter),
            "{name}: missing filter"
        );
        // Every operator pairs a plan-time estimate with actual rows.
        for op in ops {
            let line = op.render();
            assert!(line.contains("est="), "{name}: {line}");
            assert!(line.contains(" in="), "{name}: {line}");
            assert!(line.contains(" out="), "{name}: {line}");
        }
        // The anchor scan on rdfs:label is exactly selective: one
        // monument estimated small, one row produced.
        let anchor = ops
            .iter()
            .find(|o| o.label.contains("rdfs:label"))
            .expect("label pattern profiled");
        assert_eq!(anchor.output_rows, 1, "{name}");
        assert!(anchor.estimated_rows > 0.0, "{name}");
        // Pattern operators with constant predicates seed the
        // per-predicate cardinality registry.
        let registry = CardinalityProfile::new();
        registry.absorb(&report.profile);
        assert!(registry.stats(ns::iri::rdfs_label().as_str()).is_some());
    }
    // Q3's ORDER BY shows up as a sort operator.
    let (_, report) = run_cold(&store, Q3);
    assert!(report
        .profile
        .operators()
        .iter()
        .any(|o| o.kind == OperatorKind::Sort && o.label == "sort(1 key)"));
}

/// Golden captured at the commit before the fork/join BGP executor was
/// deleted: every operator the cold engine runs for Q1–Q3 — order,
/// label, estimate, rows in and out. A change to `match_pattern` or
/// `retain_filter` that moves an operator shows up here.
#[test]
fn eval_profile_matches_the_paper_query_golden() {
    const Q1_OPS: [&str; 6] = [
        "scan ?monument rdfs:label \"Mole Antonelliana\"@it est=1 in=1 out=1",
        "join ?monument geo:geometry ?sourceGEO est=1 in=1 out=1",
        "join ?resource rdf:type sioct:MicroblogPost est=1 in=1 out=4",
        "join ?resource geo:geometry ?location est=1 in=4 out=4",
        "filter filter(?location, ?sourceGEO) est=4 in=4 out=3",
        "join ?resource comm:image-data ?link est=1 in=3 out=3",
    ];
    const SOCIAL_OPS: [&str; 3] = [
        "join ?resource foaf:maker ?user est=1 in=3 out=3",
        "join ?oscar foaf:name \"oscar\" est=1 in=3 out=3",
        "join ?user foaf:knows ?oscar est=0.1 in=3 out=2",
    ];
    const RATED_OPS: [&str; 2] = [
        "join ?resource rev:rating ?points est=1 in=2 out=2",
        "sort sort(1 key) est=2 in=2 out=2",
    ];
    let store = paper_store();
    for (name, query, golden) in [
        ("Q1", Q1, Q1_OPS.to_vec()),
        ("Q2", Q2, [&Q1_OPS[..], &SOCIAL_OPS].concat()),
        ("Q3", Q3, [&Q1_OPS[..], &SOCIAL_OPS, &RATED_OPS].concat()),
    ] {
        let (_, report) = run_cold(&store, query);
        let ops: Vec<String> = report
            .profile
            .operators()
            .iter()
            .map(|o| {
                format!(
                    "{} {} est={} in={} out={}",
                    o.kind.label(),
                    o.label,
                    o.estimated_rows,
                    o.input_rows,
                    o.output_rows
                )
            })
            .collect();
        assert_eq!(ops, golden, "{name}");
    }
}
