//! Property-based tests over the core data structures and invariants.
//!
//! Formerly driven by proptest; now driven by the workspace's own
//! deterministic RNG ([`lodify::resilience::DetRng`]) so the suite has
//! zero external dependencies and every run exercises the exact same
//! case set. Each property runs a few hundred generated cases.

use lodify::rdf::{ntriples, Literal, Point, Term, Triple};
use lodify::resilience::DetRng;
use lodify::store::Store;
use lodify::text::distance::{jaro, jaro_winkler, levenshtein};
use lodify::tripletags::TripleTag;

const CASES: usize = 250;

/// A seeded generator per property, forked off a fixed root so adding
/// a property never perturbs the others' case streams.
fn rng(label: &str) -> DetRng {
    DetRng::seed_from_u64(0x10D1F7).fork(label)
}

/// Arbitrary printable text: mixes ASCII, accented Latin, Greek, CJK
/// and astral-plane characters (the ranges proptest's `\PC` hit most).
fn any_text(rng: &mut DetRng, max_len: usize) -> String {
    let len = rng.random_range(0..=max_len);
    (0..len).map(|_| any_char(rng)).collect()
}

fn any_char(rng: &mut DetRng) -> char {
    match rng.random_range(0..10u32) {
        // Weight toward ASCII, including the N-Triples-sensitive
        // characters: quotes, backslashes, angle brackets, newlineish.
        0..=4 => char::from_u32(rng.random_range(0x20..0x7Fu32)).unwrap(),
        5 => ['"', '\\', '<', '>', '\t', '\u{7f}'][rng.random_range(0..6usize)],
        6 => char::from_u32(rng.random_range(0xC0..0x17Fu32)).unwrap(), // Latin ext.
        7 => char::from_u32(rng.random_range(0x391..0x3A1u32)).unwrap(), // Greek
        8 => char::from_u32(rng.random_range(0x4E00..0x9FFFu32)).unwrap(), // CJK
        _ => char::from_u32(rng.random_range(0x1F300..0x1F5FFu32)).unwrap(), // emoji
    }
}

/// Lowercase ASCII identifier of length 1..=max (plausible IRI tails,
/// namespaces, predicates).
fn ident(rng: &mut DetRng, max_len: usize) -> String {
    let len = rng.random_range(1..=max_len);
    (0..len)
        .map(|_| (b'a' + rng.random_range(0..26u32) as u8) as char)
        .collect()
}

fn any_iri(rng: &mut DetRng) -> String {
    format!("http://example.org/{}", ident(rng, 8))
}

// ---------- RDF serialization ----------

#[test]
fn ntriples_round_trips_any_literal() {
    let mut rng = rng("ntriples-literal");
    for _ in 0..CASES {
        let value = any_text(&mut rng, 40);
        let subject = any_iri(&mut rng);
        let predicate = any_iri(&mut rng);
        let triple = Triple::spo(&subject, &predicate, Term::Literal(Literal::simple(value)));
        let text = ntriples::to_string(std::slice::from_ref(&triple));
        let parsed = ntriples::parse_document(&text).unwrap();
        assert_eq!(parsed, vec![triple]);
    }
}

#[test]
fn ntriples_round_trips_lang_literals() {
    let mut rng = rng("ntriples-lang");
    for _ in 0..CASES {
        let value = any_text(&mut rng, 40);
        let lang = ident(&mut rng, 2);
        let lang = if lang.len() == 1 {
            format!("{lang}{lang}")
        } else {
            lang
        };
        let lit = Literal::lang(value, &lang).unwrap();
        let triple = Triple::spo("http://s", "http://p", Term::Literal(lit));
        let text = ntriples::to_string(std::slice::from_ref(&triple));
        let parsed = ntriples::parse_document(&text).unwrap();
        assert_eq!(parsed, vec![triple]);
    }
}

// ---------- WKT geometry ----------

#[test]
fn wkt_round_trips() {
    let mut rng = rng("wkt");
    for _ in 0..CASES {
        let lon = rng.random_f64() * 360.0 - 180.0;
        let lat = rng.random_f64() * 180.0 - 90.0;
        let p = Point::new(lon, lat).unwrap();
        let back = Point::parse_wkt(&p.to_wkt()).unwrap();
        assert!((back.lon - lon).abs() < 1e-12);
        assert!((back.lat - lat).abs() < 1e-12);
    }
}

#[test]
fn distance_is_a_pseudmetric() {
    let mut rng = rng("distance");
    let coord = |r: &mut DetRng| {
        // European bounding box, like the original strategy.
        (r.random_f64() * 40.0 - 10.0, 35.0 + r.random_f64() * 25.0)
    };
    for _ in 0..CASES {
        let (lon1, lat1) = coord(&mut rng);
        let (lon2, lat2) = coord(&mut rng);
        let a = Point::new(lon1, lat1).unwrap();
        let b = Point::new(lon2, lat2).unwrap();
        assert!(a.distance_km(b) >= 0.0);
        assert!((a.distance_km(b) - b.distance_km(a)).abs() < 1e-9);
        assert!(a.distance_km(a) < 1e-9);
    }
}

// ---------- string distances ----------

#[test]
fn jaro_winkler_bounds_and_symmetry() {
    let mut rng = rng("jw");
    for _ in 0..CASES {
        let a = any_text(&mut rng, 16);
        let b = any_text(&mut rng, 16);
        let j = jaro(&a, &b);
        let jw = jaro_winkler(&a, &b);
        assert!((0.0..=1.0).contains(&j), "jaro {j}");
        assert!((0.0..=1.0 + 1e-12).contains(&jw), "jw {jw}");
        assert!(jw >= j - 1e-12, "winkler boosts, never hurts");
        assert!((jaro(&a, &b) - jaro(&b, &a)).abs() < 1e-12);
    }
}

#[test]
fn jaro_identity() {
    let mut rng = rng("jaro-id");
    for _ in 0..CASES {
        let mut a = any_text(&mut rng, 16);
        if a.is_empty() {
            a.push('x');
        }
        assert!((jaro(&a, &a) - 1.0).abs() < 1e-12);
        assert_eq!(levenshtein(&a, &a), 0);
    }
}

#[test]
fn levenshtein_triangle_inequality() {
    let mut rng = rng("lev-triangle");
    let abc = |r: &mut DetRng| {
        let len = r.random_range(0..=8usize);
        (0..len)
            .map(|_| (b'a' + r.random_range(0..3u32) as u8) as char)
            .collect::<String>()
    };
    for _ in 0..CASES {
        let a = abc(&mut rng);
        let b = abc(&mut rng);
        let c = abc(&mut rng);
        assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }
}

// ---------- triple tags ----------

#[test]
fn triple_tag_wire_round_trip() {
    let mut rng = rng("tripletag");
    for _ in 0..CASES {
        let ns = ident(&mut rng, 8);
        let pred = ident(&mut rng, 8);
        let mut value = any_text(&mut rng, 24);
        if value.is_empty() {
            value.push('v');
        }
        let tag = TripleTag::new(&ns, &pred, &value).unwrap();
        let reparsed = TripleTag::parse(&tag.to_wire()).unwrap();
        assert_eq!(reparsed, tag);
    }
}

// ---------- store invariants ----------

#[test]
fn store_insert_remove_is_identity() {
    let mut rng = rng("store-identity");
    for _ in 0..CASES {
        let n = rng.random_range(1..20usize);
        let triples: Vec<Triple> = (0..n)
            .map(|_| {
                Triple::spo(
                    &any_iri(&mut rng),
                    &any_iri(&mut rng),
                    Term::Literal(Literal::simple(any_text(&mut rng, 40))),
                )
            })
            .collect();
        let mut store = Store::new();
        let g = store.default_graph();
        for t in &triples {
            store.insert(t, g);
        }
        let len_after_insert = store.len();
        // Every inserted triple is findable.
        for t in &triples {
            assert!(store.contains(t));
        }
        // Remove everything (duplicates in input collapse on insert).
        for t in &triples {
            store.remove(t);
        }
        assert_eq!(store.len(), 0);
        assert!(len_after_insert <= triples.len());
    }
}

#[test]
fn store_pattern_counts_are_consistent() {
    let mut rng = rng("store-counts");
    for _ in 0..CASES {
        let n = rng.random_range(1..15usize);
        let entries: Vec<(String, String)> = (0..n)
            .map(|_| (any_iri(&mut rng), any_iri(&mut rng)))
            .collect();
        let mut store = Store::new();
        let g = store.default_graph();
        for (i, (s, p)) in entries.iter().enumerate() {
            store.insert(&Triple::spo(s, p, Term::literal(format!("v{i}"))), g);
        }
        // Sum of per-subject counts equals the total.
        let subjects: std::collections::BTreeSet<&String> =
            entries.iter().map(|(s, _)| s).collect();
        let total: usize = subjects
            .iter()
            .map(|s| {
                let id = store.id_of(&Term::iri_unchecked((*s).clone())).unwrap();
                store.count_pattern(Some(id), None, None)
            })
            .sum();
        assert_eq!(total, store.len());
    }
}

// ---------- parser robustness (fuzz) ----------

#[test]
fn sparql_parser_never_panics() {
    let mut rng = rng("fuzz-sparql");
    for _ in 0..CASES {
        // Arbitrary input must parse or error, never panic.
        let _ = lodify::sparql::parse(&any_text(&mut rng, 120));
    }
}

#[test]
fn sparql_parser_survives_query_mutations() {
    // Truncating a real query at any byte boundary must not panic.
    let query = r#"SELECT DISTINCT ?link WHERE {
        ?monument rdfs:label "Mole Antonelliana"@it .
        ?resource geo:geometry ?location .
        FILTER(bif:st_intersects(?location, ?sourceGEO, 0.3)) .
    } ORDER BY DESC(?points) LIMIT 10"#;
    for end in query.char_indices().map(|(i, _)| i).chain([query.len()]) {
        let _ = lodify::sparql::parse(&query[..end]);
    }
}

#[test]
fn ntriples_parser_never_panics() {
    let mut rng = rng("fuzz-ntriples");
    for _ in 0..CASES {
        let _ = ntriples::parse_document(&any_text(&mut rng, 120));
    }
}

#[test]
fn turtle_parser_never_panics() {
    let mut rng = rng("fuzz-turtle");
    let prefixes = lodify::rdf::ns::PrefixMap::with_defaults();
    for _ in 0..CASES {
        let _ = lodify::rdf::turtle::parse_document(&any_text(&mut rng, 120), &prefixes);
    }
}

#[test]
fn mapping_dsl_parser_never_panics() {
    let mut rng = rng("fuzz-d2r");
    for _ in 0..CASES {
        let _ = lodify::d2r::dsl::parse(&any_text(&mut rng, 120));
    }
}

// ---------- SPARQL solution-modifier laws ----------

#[test]
fn sparql_limit_caps_and_distinct_shrinks() {
    let mut rng = rng("sparql-laws");
    for _ in 0..60 {
        let n = rng.random_range(1..30usize);
        let limit = rng.random_range(1..10usize);
        let mut store = Store::new();
        let g = store.default_graph();
        for i in 0..n {
            store.insert(
                &Triple::spo(&format!("http://s/{i}"), "http://p", Term::literal("same")),
                g,
            );
        }
        let all =
            lodify::sparql::execute(&store, "SELECT ?o WHERE { ?s <http://p> ?o . }").unwrap();
        let distinct =
            lodify::sparql::execute(&store, "SELECT DISTINCT ?o WHERE { ?s <http://p> ?o . }")
                .unwrap();
        let limited = lodify::sparql::execute(
            &store,
            &format!("SELECT ?o WHERE {{ ?s <http://p> ?o . }} LIMIT {limit}"),
        )
        .unwrap();
        assert_eq!(all.len(), n);
        assert_eq!(distinct.len(), 1);
        assert_eq!(limited.len(), n.min(limit));
    }
}

/// The object of a random-corpus pattern, kept structurally so the
/// reference below never sees SPARQL text.
enum RefObject {
    Var(String),
    Literal(String),
}

/// The independent reference for the random BGP corpus (ROADMAP 5(b)
/// in miniature): nested loops over `Store::triples()` comparing whole
/// terms — no dictionary ids, no indexes, no planner, no parser.
/// `patterns` are `?subject <predicate> object`; every variable is
/// projected and ordered by, so sorting rows by their cells' string
/// values column by column is the query's ORDER BY.
fn reference_table(
    store: &Store,
    patterns: &[(String, String, RefObject)],
    vars: &[String],
) -> String {
    use std::collections::BTreeMap;
    fn bind<'t>(b: &mut BTreeMap<String, &'t Term>, var: &str, term: &'t Term) -> bool {
        *b.entry(var.to_string()).or_insert(term) == term
    }
    let triples: Vec<Triple> = store.triples().collect();
    let mut solutions: Vec<BTreeMap<String, &Term>> = vec![BTreeMap::new()];
    for (subject, predicate, object) in patterns {
        let mut next = Vec::new();
        for b in &solutions {
            for t in triples.iter().filter(|t| t.predicate.as_str() == predicate) {
                let mut nb = b.clone();
                let matched = bind(&mut nb, subject, &t.subject)
                    && match object {
                        RefObject::Var(v) => bind(&mut nb, v, &t.object),
                        RefObject::Literal(text) => t.object == Term::literal(text.as_str()),
                    };
                if matched {
                    next.push(nb);
                }
            }
        }
        solutions = next;
    }
    let mut rows: Vec<Vec<&Term>> = solutions
        .iter()
        .map(|b| vars.iter().map(|v| b[v]).collect())
        .collect();
    rows.sort_by(|a, b| {
        a.iter()
            .map(|t| t.lexical())
            .cmp(b.iter().map(|t| t.lexical()))
    });
    let mut out = format!("{}\n", vars.join("\t"));
    for row in rows {
        let cells: Vec<String> = row.iter().map(|t| t.to_string()).collect();
        out.push_str(&format!("{}\n", cells.join("\t")));
    }
    out
}

#[test]
fn sparql_planner_heuristic_and_unplanned_agree_byte_for_byte() {
    // Correctness law for the one query pipeline (ROADMAP items 2 and
    // 5): a plan only ever reorders joins, so evaluation under a
    // compiled plan and cold evaluation (`Plan::default()`, every run
    // ordered by the planner's cold-start heuristic) must produce
    // byte-identical tables — on the paper's Q1–Q3 album queries and
    // on a seeded random BGP corpus, at every shard count — and on the
    // corpus both must equal `reference_table`, which shares no code
    // with the engine. Every query carries an ORDER BY over all
    // projected variables, so row order is a pure function of the
    // solution set, never of join enumeration order.
    use lodify::core::albums::AlbumSpec;
    use lodify::rdf::ns;
    use lodify::sparql::{evaluate_planned, execute, plan_query, EvalOptions};

    let gaz = lodify::context::Gazetteer::global();
    let mole = gaz.poi("Mole_Antonelliana").unwrap().point(gaz);

    // The paper fixture at a given shard count: monument + users with
    // a friendship edge + rated pictures near and far.
    let paper_store = |shards: usize| -> Store {
        let mut store = Store::with_shards(shards);
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
                Term::Literal(mole.to_literal()),
            ),
            g,
        );
        for (user, name) in [("1", "oscar"), ("2", "walter"), ("3", "carmen")] {
            store.insert(
                &Triple::spo(
                    &format!("http://t/users/{user}"),
                    ns::iri::foaf_name().as_str(),
                    Term::literal(name),
                ),
                g,
            );
        }
        store.insert(
            &Triple::spo(
                "http://t/users/1",
                ns::iri::foaf_knows().as_str(),
                Term::iri("http://t/users/2").unwrap(),
            ),
            g,
        );
        for n in 0..24i64 {
            let pic = format!("http://t/pictures/{n}");
            store.insert(
                &Triple::spo(
                    &pic,
                    ns::iri::rdf_type().as_str(),
                    Term::Iri(ns::iri::microblog_post()),
                ),
                g,
            );
            store.insert(
                &Triple::spo(
                    &pic,
                    ns::iri::geo_geometry().as_str(),
                    Term::Literal(mole.offset_km(n as f64 * 0.1, 0.0).to_literal()),
                ),
                g,
            );
            store.insert(
                &Triple::spo(
                    &pic,
                    ns::iri::image_data().as_str(),
                    Term::literal(format!("http://t/media/{n}.jpg")),
                ),
                g,
            );
            store.insert(
                &Triple::spo(
                    &pic,
                    ns::iri::foaf_maker().as_str(),
                    Term::iri(format!("http://t/users/{}", n % 3 + 1)).unwrap(),
                ),
                g,
            );
            store.insert(
                &Triple::spo(
                    &pic,
                    ns::iri::rev_rating().as_str(),
                    Term::Literal(Literal::integer(n % 5 + 1)),
                ),
                g,
            );
        }
        store
    };

    // Cold ≡ planned; returns the table and how many runs the plan
    // ordered.
    let check = |store: &Store, query: &str, label: &str| {
        let cold = execute(store, query).unwrap().to_table();
        let parsed = lodify::sparql::parse(query).unwrap();
        let plan = plan_query(store, &parsed, None);
        let (results, report) =
            evaluate_planned(store, &parsed, EvalOptions::default(), &plan).unwrap();
        assert_eq!(results.to_table(), cold, "{label}: planned vs cold");
        (cold, report.planned_runs)
    };

    // Q1 (geo proximity), Q2 (Q1 + social filter), Q3 (Q2 + rating).
    let specs = [
        AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0),
        AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0).friends_of("oscar"),
        AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0)
            .friends_of("oscar")
            .rated(),
    ];
    for shards in [1usize, 4, 16] {
        let store = paper_store(shards);
        for (i, spec) in specs.iter().enumerate() {
            let (_, planned_runs) =
                check(&store, &spec.to_sparql(), &format!("Q{} x{shards}", i + 1));
            assert!(planned_runs > 0, "Q{} must run from the plan", i + 1);
        }
    }

    // Seeded random BGP corpus: few subjects/objects so joins fan out,
    // SELECT * with ORDER BY over every variable in the query.
    let mut rng = rng("sparql-planner");
    let mut non_empty = 0;
    for case in 0..40 {
        let shards = [1usize, 4, 16][case % 3];
        let mut store = Store::with_shards(shards);
        let g = store.default_graph();
        let triples = rng.random_range(10..80usize);
        for _ in 0..triples {
            let s = format!("http://s/{}", rng.random_range(0..6u32));
            let p = format!("http://p/{}", rng.random_range(0..4u32));
            let o = format!("o{}", rng.random_range(0..5u32));
            store.insert(&Triple::spo(&s, &p, Term::literal(o)), g);
        }
        let patterns = rng.random_range(2..=5usize);
        let mut vars: Vec<String> = Vec::new();
        let mut body = String::new();
        let mut reference_patterns = Vec::new();
        for k in 0..patterns {
            // Subjects share a small var pool so patterns join; the
            // object is a fresh var, a reused var, or a constant.
            let sv = format!("s{}", rng.random_range(0..2usize.min(k + 1)));
            if !vars.contains(&sv) {
                vars.push(sv.clone());
            }
            let p = rng.random_range(0..4u32);
            let object = match rng.random_range(0..3u32) {
                0 => RefObject::Literal(format!("o{}", rng.random_range(0..5u32))),
                1 if !vars.is_empty() => {
                    RefObject::Var(vars[rng.random_range(0..vars.len())].clone())
                }
                _ => {
                    let ov = format!("v{k}");
                    vars.push(ov.clone());
                    RefObject::Var(ov)
                }
            };
            let object_text = match &object {
                RefObject::Literal(text) => format!("\"{text}\""),
                RefObject::Var(v) => format!("?{v}"),
            };
            body.push_str(&format!("  ?{sv} <http://p/{p}> {object_text} .\n"));
            reference_patterns.push((sv, format!("http://p/{p}"), object));
        }
        let order: Vec<String> = vars.iter().map(|v| format!("?{v}")).collect();
        let query = format!(
            "SELECT {} WHERE {{\n{}}}\nORDER BY {}",
            order.join(" "),
            body,
            order.join(" ")
        );
        let label = format!("random case {case} x{shards}");
        let (engine, _) = check(&store, &query, &label);
        assert_eq!(
            engine,
            reference_table(&store, &reference_patterns, &vars),
            "{label}: engine vs reference\n{query}"
        );
        non_empty += usize::from(engine.lines().count() > 1);
    }
    assert!(non_empty >= 8, "corpus went vacuous: {non_empty} answers");
}

// ---------- durability codec ----------

use lodify::durability::codec::{put_frame, read_frame, FrameOutcome};
use lodify::durability::{scan_log, Record};
use lodify::rdf::{BlankNode, Iri};

/// Arbitrary RDF term covering every codec tag: IRI, blank node,
/// simple / language-tagged / typed literal, and WKT geometry.
fn any_term(rng: &mut DetRng) -> Term {
    match rng.random_range(0..6u32) {
        0 => Term::Iri(Iri::new(any_iri(rng)).unwrap()),
        1 => Term::Blank(BlankNode::new(ident(rng, 8)).unwrap()),
        2 => Term::Literal(Literal::simple(any_text(rng, 32))),
        3 => {
            let tag = ident(rng, 2);
            let tag = if tag.len() == 1 {
                format!("{tag}{tag}")
            } else {
                tag
            };
            Term::Literal(Literal::lang(any_text(rng, 32), tag).unwrap())
        }
        4 => Term::Literal(Literal::typed(
            any_text(rng, 16),
            Iri::new(any_iri(rng)).unwrap(),
        )),
        _ => {
            let lon = rng.random_f64() * 360.0 - 180.0;
            let lat = rng.random_f64() * 180.0 - 90.0;
            Term::Literal(Point::new(lon, lat).unwrap().to_literal())
        }
    }
}

fn any_list<T>(rng: &mut DetRng, max: usize, mut item: impl FnMut(&mut DetRng) -> T) -> Vec<T> {
    let n = rng.random_range(0..=max);
    (0..n).map(|_| item(rng)).collect()
}

fn any_gid(rng: &mut DetRng) -> u16 {
    rng.random_range(0..u16::MAX as u32) as u16
}

/// A commit record with a random delta and an opaque random meta.
fn any_commit(rng: &mut DetRng) -> Record {
    Record::Commit {
        graphs: any_list(rng, 2, |r| (any_gid(r), format!("urn:g:{}", ident(r, 10)))),
        terms: any_list(rng, 4, |r| (r.next_u64(), any_term(r))),
        inserts: any_list(rng, 6, |r| {
            (r.next_u64(), r.next_u64(), r.next_u64(), any_gid(r))
        }),
        removes: any_list(rng, 4, |r| (r.next_u64(), r.next_u64(), r.next_u64())),
        meta: any_list(rng, 64, |r| r.next_u64() as u8),
        held: rng.random_bool(0.5),
    }
}

fn any_record(rng: &mut DetRng) -> Record {
    match rng.random_range(0..6u32) {
        0 => Record::GraphDecl {
            gid: any_gid(rng),
            name: format!("urn:g:{}", ident(rng, 10)),
        },
        1 => Record::DictAdd {
            id: rng.next_u64(),
            term: any_term(rng),
        },
        2 => Record::Insert {
            s: rng.next_u64(),
            p: rng.next_u64(),
            o: rng.next_u64(),
            gid: any_gid(rng),
        },
        3 => any_commit(rng),
        4 => Record::SnapshotHeader {
            last_seq: rng.next_u64(),
            graphs: rng.next_u64(),
            terms: rng.next_u64(),
            triples: rng.next_u64(),
            commits: rng.next_u64(),
        },
        _ => Record::SnapshotFooter {
            last_seq: rng.next_u64(),
            records: rng.next_u64(),
        },
    }
}

#[test]
fn codec_round_trips_any_record() {
    let mut rng = rng("codec-roundtrip");
    for _ in 0..CASES {
        let record = any_record(&mut rng);
        let seq = rng.next_u64() >> 1;
        let mut bytes = Vec::new();
        put_frame(&mut bytes, seq, &record);
        match read_frame(&bytes, 0) {
            FrameOutcome::Frame {
                seq: got_seq,
                record: got,
                next,
            } => {
                assert_eq!(got_seq, seq);
                assert_eq!(got, record);
                assert_eq!(next, bytes.len());
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }
}

#[test]
fn codec_detects_any_single_byte_corruption() {
    let mut rng = rng("codec-corrupt");
    for _ in 0..CASES {
        let record = any_record(&mut rng);
        let mut bytes = Vec::new();
        put_frame(&mut bytes, 7, &record);
        let offset = rng.random_range(0..bytes.len() as u32) as usize;
        let flip = 1u8 << rng.random_range(0..8u32);
        bytes[offset] ^= flip;
        // A flipped bit must never round-trip silently: either the
        // frame is rejected, or (length-field growth only) it reads as
        // truncated. Decoding to a *different valid record* is the
        // failure mode CRC framing exists to prevent.
        match read_frame(&bytes, 0) {
            FrameOutcome::Frame { record: got, .. } => {
                panic!("corrupt frame decoded as {got:?}")
            }
            FrameOutcome::Corrupt { .. } | FrameOutcome::Truncated { .. } => {}
            FrameOutcome::End => panic!("corrupt frame read as clean end"),
        }
    }
}

#[test]
fn wal_scan_survives_truncation_at_every_byte() {
    let mut rng = rng("codec-truncate");
    for _ in 0..24 {
        let records: Vec<Record> = (0..rng.random_range(1..6usize))
            .map(|_| any_record(&mut rng))
            .collect();
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, record) in records.iter().enumerate() {
            put_frame(&mut bytes, i as u64 + 1, record);
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let (scanned, report) = scan_log(&bytes[..cut]);
            // Exactly the records whose frames fit the prefix survive.
            let expect = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(scanned.len(), expect, "cut at {cut}");
            assert_eq!(report.valid_bytes as usize, boundaries[expect]);
            assert_eq!(report.clean(), cut == boundaries[expect]);
        }
    }
}

// ---------- hostile bytes into the commit decoders ----------

use lodify::core::commit::{PlatformDelta, Provenance};
use lodify::lod::annotator::BuddyExternalLink;
use lodify::lod::{AnnotationResult, Candidate, SourceGraph, TermAnnotation};
use lodify::obs::TraceContext;
use lodify::relational::SqlValue;

/// LEB128, as the codec writes it.
fn varint(value: u64) -> Vec<u8> {
    let mut out = Vec::new();
    lodify::durability::codec::put_varint(&mut out, value);
    out
}

/// One hostile byte string derived from `valid`: arbitrary bytes, bit
/// flips, a truncation, trailing garbage, or a varint inflated up to
/// `u64::MAX` (a count or length claiming far more than follows).
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
        3 => bytes.extend((0..rng.random_range(1..16usize)).map(|_| rng.next_u64() as u8)),
        _ => {
            let at = rng.random_range(0..bytes.len());
            let huge = [u64::MAX, u64::from(u32::MAX), 1 << 40, 1 << 20];
            bytes.splice(at..=at, varint(huge[rng.random_range(0..huge.len())]));
        }
    }
    bytes
}

/// Decoded lists pre-allocate at most 1,024 slots, whatever a count
/// claims.
fn bounded<T>(list: &[T], capacity: usize) -> bool {
    capacity <= 1024.max(2 * list.len())
}

fn any_iri_value(rng: &mut DetRng) -> Iri {
    Iri::new(any_iri(rng)).unwrap()
}

fn any_platform_delta(rng: &mut DetRng) -> PlatformDelta {
    let resolvers = ["dbpedia", "geonames", "sindice", "evri", "zemanta"];
    let graphs = [
        SourceGraph::Geonames,
        SourceGraph::DBpedia,
        SourceGraph::Evri,
        SourceGraph::Other,
    ];
    let value = |r: &mut DetRng| match r.random_range(0..5u32) {
        0 => SqlValue::Null,
        1 => SqlValue::Int(r.next_u64() as i64),
        2 => SqlValue::Real(r.random_f64() * 360.0 - 180.0),
        3 => SqlValue::Text(any_text(r, 12)),
        _ => SqlValue::Bool(r.random_bool(0.5)),
    };
    let candidate = |r: &mut DetRng| Candidate {
        resource: any_iri_value(r),
        label: any_text(r, 12),
        graph: graphs[r.random_range(0..4usize)],
        score: r.random_f64(),
        types: any_list(r, 2, any_iri_value),
        resolver: resolvers[r.random_range(0..5usize)],
    };
    let annotation = AnnotationResult {
        language: rng.random_bool(0.5).then_some("it"),
        location: rng.random_bool(0.5).then(|| any_iri_value(rng)),
        buddies: any_list(rng, 2, any_iri_value),
        buddy_external: any_list(rng, 1, |r| BuddyExternalLink {
            full_name: any_text(r, 12),
            candidates: any_list(r, 2, candidate),
        }),
        poi: rng.random_bool(0.5).then(|| any_iri_value(rng)),
        terms: any_list(rng, 3, |r| TermAnnotation {
            term: any_text(r, 10),
            resource: r.random_bool(0.5).then(|| any_iri_value(r)),
            graph: r
                .random_bool(0.5)
                .then(|| graphs[r.random_range(0..4usize)]),
            candidates_considered: r.random_range(0..50usize),
            survivors: r.random_range(0..5usize),
        }),
        resolver_failures: rng.random_range(0..3usize),
        degraded: any_list(rng, 2, |r| resolvers[r.random_range(0..5usize)]),
    };
    PlatformDelta {
        rows: any_list(rng, 2, |r| (ident(r, 8), any_list(r, 9, value))),
        annotation: rng
            .random_bool(0.7)
            .then(|| (rng.next_u64() as i64, annotation)),
        context_tags: any_list(rng, 4, |r| {
            format!("{}:{}={}", ident(r, 6), ident(r, 6), ident(r, 6))
        }),
        emission: rng.random_bool(0.5).then(|| Provenance {
            epoch: rng.next_u64(),
            album: rng.random_bool(0.5).then(|| ident(rng, 6)),
            trace: rng.random_bool(0.5).then(|| TraceContext {
                trace_id: rng.next_u64(),
                parent_span_id: rng.next_u64(),
            }),
        }),
    }
}

#[test]
fn commit_decoders_reject_hostile_bytes_without_panicking() {
    let mut rng = rng("hostile-commit");
    let (mut decoded, mut rejected) = (0, 0);
    for _ in 0..CASES {
        // A commit record body …
        let mut body = Vec::new();
        any_commit(&mut rng).encode(&mut body);
        let bytes = mutate(&mut rng, &body);
        match Record::decode(&bytes, &mut 0) {
            Ok(Record::Commit {
                graphs,
                terms,
                inserts,
                removes,
                meta,
                ..
            }) => {
                assert!(bounded(&graphs, graphs.capacity()));
                assert!(bounded(&terms, terms.capacity()));
                assert!(bounded(&inserts, inserts.capacity()));
                assert!(bounded(&removes, removes.capacity()));
                assert!(meta.len() <= bytes.len());
                decoded += 1;
            }
            Ok(_) => decoded += 1,
            Err(_) => rejected += 1,
        }

        // … and a platform delta, the meta the platform stores in it.
        let delta = any_platform_delta(&mut rng);
        let valid = delta.encode();
        assert_eq!(PlatformDelta::decode(&valid).unwrap(), delta);
        let bytes = mutate(&mut rng, &valid);
        match PlatformDelta::decode(&bytes) {
            Ok(got) => {
                assert_eq!(PlatformDelta::decode(&got.encode()).unwrap(), got);
                assert!(bounded(&got.rows, got.rows.capacity()));
                assert!(bounded(&got.context_tags, got.context_tags.capacity()));
                decoded += 1;
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(
        decoded > 0 && rejected > CASES,
        "both outcomes exercised: {decoded} decoded, {rejected} rejected"
    );
}

// ---------- deterministic generation (plain tests, heavier) ----------

#[test]
fn workload_generation_is_reproducible_across_runs() {
    use lodify::relational::workload::{generate, WorkloadConfig};
    let a = generate(WorkloadConfig::small(777));
    let b = generate(WorkloadConfig::small(777));
    let titles_a: Vec<&String> = a.truth.iter().map(|t| &t.title).collect();
    let titles_b: Vec<&String> = b.truth.iter().map(|t| &t.title).collect();
    assert_eq!(titles_a, titles_b);
}

#[test]
fn lod_snapshots_are_deterministic() {
    use lodify::context::Gazetteer;
    use lodify::lod::datasets;
    let a = datasets::dbpedia_graph(Gazetteer::global());
    let b = datasets::dbpedia_graph(Gazetteer::global());
    assert_eq!(a, b);
}

// ---------- live standing-query maintenance ----------

/// Differential maintenance is only trustworthy if it agrees with a
/// from-scratch recompute after *every* delta, not just the happy
/// paths the unit tests pick. Drive Q1/Q2/Q3-shaped standing albums
/// through seeded random interleavings of uploads, removals,
/// re-annotations (re-ratings) and friendship churn, checking the
/// patched answer against a fresh [`AlbumSpec::execute`] at every
/// step — then replay crash recovery by rebuilding engines from the
/// surviving store alone.
#[test]
fn live_patching_matches_recompute_under_random_interleavings() {
    use lodify::context::Gazetteer;
    use lodify::core::albums::AlbumSpec;
    use lodify::core::live::StandingQueryEngine;
    use lodify::rdf::ns;

    let gaz = Gazetteer::global();
    let mole = gaz.poi("Mole_Antonelliana").unwrap().point(gaz);
    let users = 4i64;

    let picture = |n: i64, offset_km: f64, maker: i64, rating: Option<i64>| -> Vec<Triple> {
        let pic = format!("http://t/pictures/{n}");
        let mut out = vec![
            Triple::spo(
                &pic,
                ns::iri::rdf_type().as_str(),
                Term::Iri(ns::iri::microblog_post()),
            ),
            Triple::spo(
                &pic,
                ns::iri::geo_geometry().as_str(),
                Term::Literal(mole.offset_km(offset_km, 0.0).to_literal()),
            ),
            Triple::spo(
                &pic,
                ns::iri::image_data().as_str(),
                Term::literal(format!("http://t/media/{n}.jpg")),
            ),
            Triple::spo(
                &pic,
                ns::iri::foaf_maker().as_str(),
                Term::iri(format!("http://t/users/{maker}")).unwrap(),
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
    };

    let mut rng = rng("live-interleavings");
    for _case in 0..10 {
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
                Term::Literal(mole.to_literal()),
            ),
            g,
        );
        store.insert(
            &Triple::spo(
                "http://t/users/walter",
                ns::iri::foaf_name().as_str(),
                Term::literal("walter"),
            ),
            g,
        );

        let specs = [
            AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0),
            AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0).friends_of("walter"),
            AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0)
                .rated()
                .limit(5),
        ];
        let mut engine = StandingQueryEngine::new();
        let ids: Vec<_> = specs.iter().map(|s| engine.register(&store, s)).collect();

        let mut present: Vec<i64> = Vec::new();
        let mut knows = vec![false; users as usize];
        let mut next_pic = 0i64;
        for _step in 0..50 {
            let mut additions: Vec<Triple> = Vec::new();
            let mut removals: Vec<Triple> = Vec::new();
            match rng.random_range(0..5u32) {
                // Upload: a picture somewhere between 10m and 2km out
                // (half the range falls outside the 1km radius), by a
                // random maker, usually rated.
                0 | 1 => {
                    let n = next_pic;
                    next_pic += 1;
                    let offset = rng.random_range(1..=200u32) as f64 * 0.01;
                    let maker = rng.random_range(0..users);
                    let rating =
                        (rng.random_range(0..3u32) > 0).then(|| rng.random_range(1..=5u32) as i64);
                    additions = picture(n, offset, maker, rating);
                    present.push(n);
                }
                // Removal: every triple of one picture disappears.
                2 if !present.is_empty() => {
                    let idx = rng.random_range(0..present.len());
                    let n = present.swap_remove(idx);
                    let subject = Term::iri(format!("http://t/pictures/{n}")).unwrap();
                    removals = store.match_terms(Some(&subject), None, None);
                }
                // Re-annotation: the rating aggregate is replaced,
                // exactly like Platform::rate does.
                3 if !present.is_empty() => {
                    let n = present[rng.random_range(0..present.len())];
                    let subject = Term::iri(format!("http://t/pictures/{n}")).unwrap();
                    removals =
                        store.match_terms(Some(&subject), Some(&ns::iri::rev_rating()), None);
                    additions = vec![Triple::new_unchecked(
                        subject,
                        ns::iri::rev_rating(),
                        Term::Literal(Literal::integer(rng.random_range(1..=5u32) as i64)),
                    )];
                }
                // Friendship churn: toggle maker → walter.
                _ => {
                    let u = rng.random_range(0..users) as usize;
                    let edge = Triple::spo(
                        &format!("http://t/users/{u}"),
                        ns::iri::foaf_knows().as_str(),
                        Term::iri("http://t/users/walter").unwrap(),
                    );
                    if knows[u] {
                        removals = vec![edge];
                    } else {
                        additions = vec![edge];
                    }
                    knows[u] = !knows[u];
                }
            }
            for t in &additions {
                store.insert(t, g);
            }
            for t in &removals {
                store.remove(t);
            }
            engine.apply(&store, &additions, &removals);
            for (spec, id) in specs.iter().zip(&ids) {
                assert_eq!(
                    engine.links(*id),
                    spec.execute(&store).unwrap(),
                    "patched answer diverged from recompute"
                );
            }
        }

        // Crash-recovery replay: a fresh engine registered against the
        // surviving store alone answers exactly what the maintained
        // one does, and rebuild() is a fixpoint on the original.
        let mut recovered = StandingQueryEngine::new();
        for (spec, id) in specs.iter().zip(&ids) {
            let rid = recovered.register(&store, spec);
            assert_eq!(recovered.links(rid), engine.links(*id));
        }
        engine.rebuild(&store);
        for (spec, id) in specs.iter().zip(&ids) {
            assert_eq!(engine.links(*id), spec.execute(&store).unwrap());
        }
    }
}
