//! The paper's figures as tier-1 assertions (EXPERIMENTS.md E2–E12).
//!
//! The paper's evaluation is its worked figures plus parameters stated
//! in prose (Jaro–Winkler ≥ 0.8, Geonames > DBpedia > Evri, the
//! single-candidate rule, "semantics beats keywords under ambiguity").
//! Each test below prints the table EXPERIMENTS.md records and asserts
//! the *shape* the paper claims, with a guard that fails if the fixture
//! stops exercising the claim. Statistical claims run on `SEEDS`.
//!
//! Regenerate the tables:
//! `cargo test --release --test reproduction -- --nocapture --test-threads=1`

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use lodify::context::{Gazetteer, Poi, PoiCategory};
use lodify::core::albums::{relational_baseline, AlbumSpec};
use lodify::core::batch::BatchAnnotator;
use lodify::core::federation::{Acct, Federation, Notification};
use lodify::core::mashup::MashupService;
use lodify::core::metrics::{score_run, PrCounts};
use lodify::core::platform::{subject_pred, Platform};
use lodify::core::search::{resource_point, SearchService};
use lodify::d2r::defaults::coppermine_mapping;
use lodify::d2r::dump_rdf;
use lodify::lod::annotator::{Annotator, AnnotatorConfig, ContentInput, PoiRefInput};
use lodify::lod::datasets::{dbp, load_lod};
use lodify::lod::filter::FilterConfig;
use lodify::lod::{SemanticBroker, SemanticCache, SemanticFilter, SourceGraph};
use lodify::rdf::{ns, Iri, Point, Term};
use lodify::relational::coppermine;
use lodify::relational::workload::{
    generate, GeneratedWorkload, PictureTruth, TruthSubject, WorkloadConfig,
};
use lodify::store::Store;
use lodify::text::LanguageDetector;
use lodify::tripletags::TripleTag;

/// Every statistical claim is shown on each of these; none was picked
/// because another failed.
const SEEDS: [u64; 3] = [1, 2, 3];

/// The LOD snapshot every annotation experiment resolves against.
fn lod() -> &'static Store {
    static LOD: OnceLock<Store> = OnceLock::new();
    LOD.get_or_init(|| {
        let mut store = Store::new();
        load_lod(&mut store, Gazetteer::global());
        store
    })
}

/// The Figure-1 pipeline under one filter configuration. The broker
/// shares one semantic cache the way `Platform` installs one: resolver
/// fan-outs do not depend on the filter, and `lod()` never changes
/// epoch, so the ablation sweeps pay each term's fan-out once.
fn annotator(config: FilterConfig) -> Annotator {
    static CACHE: OnceLock<Arc<SemanticCache>> = OnceLock::new();
    let mut annotator = Annotator::new(
        SemanticBroker::standard(),
        SemanticFilter::with_config(config),
        AnnotatorConfig::default(),
    );
    annotator.set_semantic_cache(CACHE.get_or_init(|| Arc::new(SemanticCache::new())).clone());
    annotator
}

fn corpus(seed: u64, pictures: usize) -> GeneratedWorkload {
    generate(WorkloadConfig {
        seed,
        pictures,
        ..WorkloadConfig::default()
    })
}

/// Text-analysis annotations (title + tags only) for every picture.
fn annotate_corpus(workload: &GeneratedWorkload, config: FilterConfig) -> BTreeMap<i64, Vec<Iri>> {
    let annotator = annotator(config);
    let annotate = |truth: &PictureTruth| {
        let input = ContentInput {
            title: &truth.title,
            tags: &truth.keywords,
            context: None,
            poi_ref: None,
        };
        let terms = annotator.annotate(lod(), &input).terms;
        (
            truth.pid,
            terms.into_iter().filter_map(|t| t.resource).collect(),
        )
    };
    workload.truth.iter().map(annotate).collect()
}

fn score(
    workload: &GeneratedWorkload,
    predictions: &BTreeMap<i64, Vec<Iri>>,
    keep: impl Fn(&TruthSubject) -> bool,
) -> PrCounts {
    let kept = workload.truth.iter().filter(|t| keep(&t.subject));
    score_run(kept, |pid| predictions[&pid].clone())
}

/// A bootstrapped platform sized like the retired benches' fixture.
fn platform(seed: u64, pictures: usize) -> Platform {
    Platform::bootstrap(WorkloadConfig {
        seed,
        users: (pictures / 10).clamp(10, 100),
        pictures,
        ..WorkloadConfig::default()
    })
    .expect("bootstrap")
}

/// The 2,000-picture platform E5, E6 and E7 browse.
fn browse_platform() -> &'static Platform {
    static PLATFORM: OnceLock<Platform> = OnceLock::new();
    PLATFORM.get_or_init(|| platform(1, 2000))
}

/// E2 — n-gram language identification (§2.2.2, Cavnar & Trenkle):
/// workable on whole titles, unreliable on five characters, and flat
/// once a title is ~15 characters long.
#[test]
fn e2_language_id_has_an_accuracy_floor_and_a_length_knee() {
    let detector = LanguageDetector::global();
    let langs = ["it", "en", "fr", "es", "de"];
    for seed in SEEDS {
        let workload = corpus(seed, 1000);
        let accuracy = |chars: usize| {
            let hits = workload.truth.iter().filter(|truth| {
                let prefix: String = truth.title.chars().take(chars).collect();
                detector.detect(&prefix).map(|(lang, _)| lang) == Some(truth.lang)
            });
            hits.count() as f64 / workload.truth.len() as f64
        };

        let mut matrix: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        for truth in &workload.truth {
            if let Some((predicted, _)) = detector.detect(&truth.title) {
                *matrix.entry((truth.lang, predicted)).or_default() += 1;
            }
        }
        println!("\nE2 seed {seed}: confusion over 1000 titles (rows truth, cols predicted)");
        println!("| truth\\pred | {} | recall |", langs.join(" | "));
        for truth in langs {
            let cells = langs.map(|p| matrix.get(&(truth, p)).copied().unwrap_or(0));
            let total: usize = cells.iter().sum();
            assert!(total >= 50, "guard: {truth} titles present ({total})");
            let recall = matrix.get(&(truth, truth)).copied().unwrap_or(0) as f64 / total as f64;
            let cells = cells.map(|c| c.to_string()).join(" | ");
            println!("| {truth} | {cells} | {recall:.3} |");
        }
        let correct: usize = langs.iter().filter_map(|l| matrix.get(&(*l, *l))).sum();
        let overall = correct as f64 / workload.truth.len() as f64;
        let [at5, at10, at15, at25, at40] = [5, 10, 15, 25, 40].map(accuracy);
        println!("| seed | overall | 5 chars | 10 | 15 | 25 | 40 |");
        println!(
            "| {seed} | {overall:.3} | {at5:.3} | {at10:.3} | {at15:.3} | {at25:.3} | {at40:.3} |"
        );

        // A floor on whole titles; five characters are too few; nothing
        // more to gain (± 0.05) once a title reaches ~15.
        assert!(overall >= 0.6, "seed {seed}: floor {overall:.3}");
        assert!(at5 < at15, "seed {seed}: {at5:.3} at 5 chars");
        for longer in [at25, at40] {
            let drift = (longer - at15).abs();
            assert!(drift <= 0.05, "seed {seed}: drift {drift:.3}");
        }
    }
}

/// E3 — "candidates with Jaro-Winkler distance lower than 0.8 are
/// discarded … such technique must be further improved as it still
/// provides false positives" (§2.2.2).
#[test]
fn e3_jaro_winkler_0_8_sits_on_the_precision_plateau() {
    for seed in SEEDS {
        let workload = corpus(seed, 250);
        println!("\nE3 seed {seed}: threshold sweep over 250 pictures");
        println!("| jw | precision | recall | f1 | annotations | false pos |");
        let mut sweep = BTreeMap::new();
        for threshold in [0.5, 0.6, 0.7, 0.8, 0.9, 0.95] {
            let config = FilterConfig {
                jw_threshold: threshold,
                ..FilterConfig::default()
            };
            let predictions = annotate_corpus(&workload, config);
            let counts = score(&workload, &predictions, |_| true);
            let annotations: usize = predictions.values().map(Vec::len).sum();
            let (p, r, f1, fp) = (counts.precision(), counts.recall(), counts.f1(), counts.fp);
            println!("| {threshold:.2} | {p:.3} | {r:.3} | {f1:.3} | {annotations} | {fp} |");
            sweep.insert((threshold * 100.0) as u32, (counts, annotations));
        }
        // The paper's operating point is whatever the filter ships with.
        let shipped = annotate_corpus(&workload, FilterConfig::default());
        let (at_08, annotations_08) = sweep[&80];
        assert_eq!(
            score(&workload, &shipped, |_| true),
            at_08,
            "seed {seed}: default ≠ 0.8 row"
        );
        assert!(at_08.tp + at_08.fn_ >= 100, "guard: subjects");

        // Below ~0.6 fuzzy matches flood in; 0.6–0.8 is one plateau.
        let [p50, p60, p70, p80] = [50, 60, 70, 80].map(|jw| sweep[&jw].0.precision());
        assert!(p50 + 0.1 <= p80, "seed {seed}: p(0.5) = {p50:.3}");
        for plateau in [p60, p70] {
            let step = (plateau - p80).abs();
            assert!(step <= 0.01, "seed {seed}: step {step:.3}");
        }
        // Past 0.8 the filter discards annotations, while the false
        // positives the paper admits to persist until ~0.95.
        let annotations_09 = sweep[&90].1;
        assert!(annotations_08 > annotations_09, "seed {seed}");
        assert!(at_08.fp > 0, "seed {seed}: false positives persist at 0.8");
        assert!(sweep[&95].0.fp < at_08.fp, "seed {seed}");
    }
}

/// E4 — "resources referring to Geonames graph have higher priority
/// than the ones related to DBpedia, followed by Evri" and per-ontology
/// validation (§2.2.2), against reorderings of the same filter.
#[test]
fn e4_geonames_first_wins_cities_and_costs_pois_nothing() {
    use SourceGraph::{DBpedia, Evri, Geonames};
    let reordered = |graph_priority: Vec<SourceGraph>| FilterConfig {
        graph_priority,
        ..FilterConfig::default()
    };
    let unvalidated = FilterConfig {
        validate: false,
        ..FilterConfig::default()
    };
    for seed in SEEDS {
        let workload = corpus(seed, 500);
        println!("\nE4 seed {seed}: graph-priority ablation over 500 pictures");
        println!("| variant | precision | recall | f1 | city recall | POI recall |");
        let variant = |name: &str, config: FilterConfig| {
            let predictions = annotate_corpus(&workload, config);
            let all = score(&workload, &predictions, |_| true);
            let city = score(&workload, &predictions, |s| {
                matches!(s, TruthSubject::City(_))
            });
            let poi = score(&workload, &predictions, |s| {
                matches!(s, TruthSubject::Poi(_))
            });
            let (p, r, f1) = (all.precision(), all.recall(), all.f1());
            let (city_recall, poi_recall) = (city.recall(), poi.recall());
            println!("| {name} | {p:.3} | {r:.3} | {f1:.3} | {city_recall:.3} | {poi_recall:.3} |");
            (all, city, poi)
        };
        let (paper, paper_city, paper_poi) =
            variant("paper: GN > DBP > Evri", FilterConfig::default());
        let (dbp_first, dbp_first_city, dbp_first_poi) =
            variant("DBP > GN > Evri", reordered(vec![DBpedia, Geonames, Evri]));
        let (dbp_only, _, _) = variant("DBpedia only", reordered(vec![DBpedia]));
        let (gn_only, _, gn_only_poi) = variant("Geonames only", reordered(vec![Geonames]));
        let (_, _, unvalidated_poi) = variant("paper order, validation off", unvalidated.clone());

        // Guards: city and POI pictures exist, and DBpedia-first misses
        // a city picture (the orders disagree); Geonames-first misses none.
        let (cities, pois) = (paper_city.tp + paper_city.fn_, paper_poi.tp + paper_poi.fn_);
        assert!(cities >= 20 && pois >= 100, "guard: fixture");
        assert!(dbp_first_city.fn_ > 0, "guard: seed {seed}");
        assert_eq!(paper_city.fn_, 0, "seed {seed}: city missed");
        // Geonames has no POIs, so putting it first costs them nothing…
        assert_eq!(paper_poi, dbp_first_poi, "seed {seed}: POIs differ");
        // …and DBpedia stays the graph for heterogeneous concepts.
        assert_eq!(gn_only_poi.tp, 0, "seed {seed}: GN-only POI");
        // No reordering beats the paper's on F1.
        for other in [dbp_first, dbp_only, gn_only] {
            let (ours, theirs) = (paper.f1(), other.f1());
            assert!(ours >= theirs, "seed {seed}: {ours:.3} vs {theirs:.3}");
        }
        // Unvalidated disambiguation pages survive as rivals and block
        // the single-candidate rule.
        let (validated, raw) = (paper_poi.recall(), unvalidated_poi.recall());
        assert!(validated > raw, "seed {seed}: {validated:.3} vs {raw:.3}");
    }
}

/// E5 — the virtual-album queries Q1/Q2/Q3 (§2.3). SPARQL ≡ the
/// hand-coded relational evaluation is `albums.rs::
/// q1_sparql_matches_relational_baseline` and friends, Q2 ⊆ Q1 is
/// `paper_queries.rs::q2_social_filter_is_a_subset_of_q1`; what they
/// lack is a fixture where the social and rating arms are not empty.
#[test]
fn e5_album_chain_narrows_over_non_empty_social_and_rated_arms() {
    let p = browse_platform();
    let gaz = Gazetteer::global();
    let mole = gaz.poi("Mole_Antonelliana").unwrap().point(gaz);
    let users = p.db().table(coppermine::USERS).unwrap();
    let user = users.get(1).unwrap()[1].as_text().unwrap().to_string();

    let q1 = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3);
    let q2 = q1.clone().friends_of(&user);
    let q3 = q2.clone().rated();
    let sorted = |mut links: Vec<String>| {
        links.sort();
        links
    };
    let [r1, r2, r3] = [q1, q2, q3].map(|q| sorted(q.execute(p.store()).unwrap()));
    println!("\nE5: 2000 pictures, {} triples", p.store().len());
    println!("| Q1 rows | Q2 rows | Q3 rows |");
    println!("| {} | {} | {} |", r1.len(), r2.len(), r3.len());

    assert!(!r3.is_empty(), "guard: the rated social album has rows");
    assert!(r1.len() > r2.len(), "the social filter narrows");
    assert!(r2.iter().all(|l| r1.contains(l)) && r3.iter().all(|l| r2.contains(l)));
    let arms = [
        (&r1, None, false),
        (&r2, Some(&*user), false),
        (&r3, Some(&*user), true),
    ];
    for (rows, friend, rated) in arms {
        let baseline = sorted(relational_baseline(p.db(), mole, 0.3, friend, rated).unwrap());
        assert_eq!(*rows, baseline, "{friend:?}, rated {rated}");
    }
}

/// E6 — incremental search (§4, Fig. 3): at every keystroke the
/// token-prefix index lists exactly the resources a scan over every
/// label would (so candidates can only narrow as the user types on).
#[test]
fn e6_prefix_index_equals_a_label_scan_at_every_keystroke() {
    let store = browse_platform().store();
    let label_preds = [
        ns::iri::rdfs_label(),
        ns::GN.iri("name"),
        ns::GN.iri("alternateName"),
        ns::iri::foaf_name(),
        ns::DCTERMS.iri("title"),
    ];
    // The reference: no index, every label triple, every word.
    let scan = |prefix: &str| -> BTreeSet<String> {
        let needle = prefix.to_lowercase();
        let mut subjects = BTreeSet::new();
        let labels = label_preds
            .iter()
            .flat_map(|p| store.match_terms(None, Some(p), None));
        for triple in labels {
            let (Term::Iri(subject), Term::Literal(label)) = (&triple.subject, &triple.object)
            else {
                continue;
            };
            let label = label.value().to_lowercase();
            let mut words = label.split(|c: char| !c.is_alphanumeric());
            let ugc = subject.as_str().starts_with("http://beta.teamlife.it/");
            if !ugc && words.any(|word| word.starts_with(&needle)) {
                subjects.insert(subject.as_str().to_string());
            }
        }
        subjects
    };

    println!("\nE6: candidates per keystroke of \"Turin\" (2000 pictures)");
    println!("| prefix | candidates | first page |");
    let mut candidates = Vec::new();
    for prefix in ["T", "Tu", "Tur", "Turi", "Turin"] {
        let all = SearchService::suggest(store, prefix, store.len());
        let indexed: BTreeSet<String> = all.into_iter().map(|s| s.resource.into_string()).collect();
        let page = SearchService::suggest(store, prefix, 10).len();
        println!("| {prefix} | {} | {page} |", indexed.len());
        assert_eq!(indexed, scan(prefix), "index ≡ label scan at {prefix:?}");
        candidates.push(indexed);
    }
    let (first, turin) = (&candidates[0], &candidates[4]);
    assert!(first.len() > turin.len(), "guard: narrowing");
    for graph in ["dbpedia.org", "geonames.org", "linkedgeodata.org"] {
        let listed = turin.iter().any(|iri| iri.contains(graph));
        assert!(listed, "{graph} city missing: {turin:?}");
    }
}

/// E7 — the "About" mashup (§4.1, Fig. 4): four arms, `LIMIT 5` each.
/// `mashup.rs::structured_mashup_has_all_four_arms` holds the arms'
/// content; this holds the caps, at a spot crowded enough to hit one.
#[test]
fn e7_about_mashup_caps_every_arm_at_five() {
    let p = browse_platform();
    let gaz = Gazetteer::global();
    let mole = gaz.poi("Mole_Antonelliana").unwrap().point(gaz);
    let pictures_within = |center: Point, km: f64| {
        let query = format!(
            r#"SELECT DISTINCT ?c WHERE {{
                 ?c a sioct:MicroblogPost .
                 ?c geo:geometry ?g .
                 FILTER(bif:st_intersects(?g, "{}", {km})) .
               }} ORDER BY ?c"#,
            center.to_wkt()
        );
        let rows = p.query(&query).unwrap();
        let pictures = rows.column("c").into_iter().filter_map(|t| t.as_iri());
        pictures.cloned().collect::<Vec<Iri>>()
    };
    let at_the_mole = pictures_within(mole, 0.05);
    let picture = at_the_mole
        .first()
        .expect("guard: a picture taken at the Mole");
    let spot = resource_point(p.store(), picture).unwrap();
    let crowd = pictures_within(spot, 0.3).len() - 1;

    let service = MashupService::standard();
    let about = service.about(p.store(), picture).unwrap();
    let combined = service.about_combined(p.store(), picture).unwrap().len();
    let city = about.city.as_ref().map_or("-", |(label, _)| label.as_str());
    let (restaurants, attractions) = (about.restaurants.len(), about.attractions.len());
    let related = about.related_content.len();
    println!("\nE7: a picture at the Mole, {crowd} others within 300 m (2000 pictures)");
    println!("| city arm | restaurants | attractions | related UGC | combined rows |");
    println!("| {city} | {restaurants} | {attractions} | {related} | {combined} |");

    assert!(about.city.is_some(), "the city arm resolves");
    assert!(crowd > 5, "guard: a crowded spot");
    assert_eq!(related, 5, "the UGC arm stops at LIMIT 5");
    assert!((1..=5).contains(&attractions), "attractions");
    assert!(restaurants <= 5);
    assert!(combined > 5 && combined <= 20, "{combined} rows");
}

/// The four ambiguity-loaded entities of E8: catalog key and the
/// folksonomy keyword a user would search.
const E8_ENTITIES: [(&str, &str); 4] = [
    ("Mole_Antonelliana", "mole"),
    ("Colosseum", "colosseum"),
    ("Louvre", "louvre"),
    ("Rialto_Bridge", "rialto"),
];

/// E8 — "Keyword-based searches … the main problem of such approach is
/// the ambiguity" (§1.2): keyword search, the best triple-tag facet
/// (the POI's city) and semantic annotation, retrieving pictures of
/// four entities from a batch-annotated platform.
#[test]
fn e8_semantics_beats_keywords_under_ambiguity_and_pays_for_the_single_candidate_rule() {
    let gaz = Gazetteer::global();
    for seed in SEEDS {
        let mut p = platform(seed, 1000);
        BatchAnnotator::new().run_all(&mut p, 256).unwrap();
        println!("\nE8 seed {seed}: 1000 pictures, batch-annotated");
        println!("| entity | relevant | system | hits | precision | recall | f1 |");

        // Per entity, (precision, recall, f1) of [keyword, facet, semantic].
        let mut scores: BTreeMap<&str, [(f64, f64, f64); 3]> = BTreeMap::new();
        for (poi_key, keyword) in E8_ENTITIES {
            let subject = TruthSubject::Poi(poi_key.to_string());
            let about = |t: &&PictureTruth| t.subject == subject;
            let relevant: BTreeSet<i64> = p.truth().iter().filter(about).map(|t| t.pid).collect();
            assert!(relevant.len() >= 5, "guard: {poi_key}");

            let keyword_hits: BTreeSet<i64> = p.tags().by_keyword(keyword).into_iter().collect();
            let city = gaz.city(gaz.poi(poi_key).unwrap().city_key).unwrap();
            let facet = TripleTag::new("address", "city", city.label("en")).unwrap();
            let facet_hits: BTreeSet<i64> = p.tags().by_value(&facet).into_iter().collect();
            let (annotated_with, resource) = (subject_pred(), dbp(poi_key));
            let query = format!("SELECT ?c WHERE {{ ?c {annotated_with} {resource} . }}");
            let rows = p.query(&query).unwrap();
            let pid_of = |t: &Term| t.lexical().rsplit('/').next()?.parse().ok();
            let semantic_hits: BTreeSet<i64> =
                rows.column("c").into_iter().filter_map(pid_of).collect();

            let systems = [
                ("keyword", keyword_hits),
                ("tag facet (city)", facet_hits),
                ("semantic", semantic_hits),
            ];
            let per_system = systems.map(|(system, hits)| {
                let tp = hits.intersection(&relevant).count();
                let (n, found) = (relevant.len(), hits.len());
                let counts = PrCounts {
                    tp,
                    fp: found - tp,
                    fn_: n - tp,
                };
                let (precision, recall, f1) = (counts.precision(), counts.recall(), counts.f1());
                print!("| {poi_key} | {n} | {system} | {found} ");
                println!("| {precision:.3} | {recall:.3} | {f1:.3} |");
                (precision, recall, f1)
            });
            scores.insert(poi_key, per_system);
        }
        let [keyword, facet, semantic] =
            [0, 1, 2].map(|system| scores.values().map(|s| s[system].2).sum::<f64>() / 4.0);
        println!("macro-F1: semantic {semantic:.3}, keyword {keyword:.3}, tag facet {facet:.3}");

        // A city facet is the best a tag album can do for a monument,
        // and it is far behind either way of naming the monument.
        assert!(semantic > facet + 0.3, "seed {seed}: semantic");
        assert!(keyword > facet + 0.3, "seed {seed}: keyword");
        // Ambiguity: "mole" is also an animal and a sauce.
        let [(kw_precision, _, kw_f1), _, (sem_precision, _, sem_f1)] = scores["Mole_Antonelliana"];
        assert!(kw_precision < 0.6, "seed {seed}: {kw_precision:.3}");
        assert!(sem_precision >= 0.8, "seed {seed}: {sem_precision:.3}");
        assert!(
            sem_f1 > kw_f1 + 0.2,
            "seed {seed}: {sem_f1:.3} vs {kw_f1:.3}"
        );
        // Where the keyword is unambiguous the two retrieve alike.
        for entity in ["Louvre", "Rialto_Bridge"] {
            let [(_, _, kw_f1), _, (_, _, sem_f1)] = scores[entity];
            let gap = (kw_f1 - sem_f1).abs();
            assert!(gap <= 0.05, "seed {seed}: {entity} gap {gap:.3}");
        }
        // The single-candidate rule ("to avoid ambiguity and limit
        // errors"): the Colosseum-band homonym blocks auto-annotation
        // of plain "Colosseum" mentions — never wrong, often silent.
        let [(_, kw_recall, _), _, (precision, recall, _)] = scores["Colosseum"];
        assert_eq!(precision, 1.0, "seed {seed}");
        assert!(recall > 0.0, "guard: seed {seed}");
        assert!(recall < kw_recall, "seed {seed}: recall {recall:.3}");
    }
}

/// E9 — the D2R dump (§2.1): the per-table census shows the mapping's
/// two design decisions, keyword splitting and vote aggregation.
#[test]
fn e9_dump_census_shows_keyword_split_and_vote_aggregation() {
    let workload = corpus(9, 1000);
    let (triples, stats) = dump_rdf(&workload.db, &coppermine_mapping()).unwrap();
    println!("\nE9: triples per table, 1000 pictures");
    println!("| table | rows | triples | triples/row |");
    for (table, rows, emitted) in &stats.per_table {
        let per_row = *emitted as f64 / (*rows).max(1) as f64;
        println!("| {table} | {rows} | {emitted} | {per_row:.2} |");
    }
    let table = |name: &str| {
        let mut census = stats.per_table.iter();
        let (_, rows, emitted) = census.find(|(table, _, _)| table == name).expect(name);
        (*rows, *emitted)
    };
    let census_total: usize = stats.per_table.iter().map(|(_, _, emitted)| emitted).sum();
    assert_eq!(
        (triples.len(), census_total),
        (stats.triples, stats.triples)
    );

    let (pictures, picture_triples) = table(coppermine::PICTURES);
    assert_eq!(pictures, 1000);
    let keywords: usize = workload.truth.iter().map(|t| t.keywords.len()).sum();
    assert!(keywords > pictures, "guard: keywords");
    // One triple per keyword on top of the per-picture properties.
    assert!(
        picture_triples >= 6 * pictures + keywords,
        "{picture_triples} picture triples"
    );
    let (votes, vote_triples) = table(coppermine::VOTES);
    assert!(votes > pictures, "guard: votes");
    // Votes aggregate into at most one rev:rating per picture.
    assert!(
        (1..=pictures).contains(&vote_triples),
        "{vote_triples} ratings"
    );
}

/// E11 — POI analysis (§2.2.1) over the whole gazetteer: an explicit
/// `poi:recs_id` reference links to the POI's own DBpedia resource, and
/// "commercial categories such as restaurants, hotels, etc are
/// excluded". Commercial catalogue entries live in LinkedGeoData only,
/// so the rule is shown where it bites: a sight's own name and place
/// filed under a commercial category (the café inside the Mole).
/// (The buddy-linking privacy switch is
/// `annotator.rs::buddy_external_linking_switch`.)
#[test]
fn e11_every_touristic_poi_links_and_commercial_categories_never_do() {
    let gaz = Gazetteer::global();
    let annotator = Annotator::standard();
    let refer = |poi: &Poi, category: PoiCategory| {
        let input = ContentInput {
            title: "",
            tags: &["x".to_string()],
            context: None,
            poi_ref: Some(PoiRefInput {
                name: poi.name.to_string(),
                category: category.label().to_string(),
                point: poi.point(gaz),
            }),
        };
        annotator.annotate(lod(), &input).poi
    };
    let commercial_categories = [
        PoiCategory::Restaurant,
        PoiCategory::Hotel,
        PoiCategory::Cafe,
    ];
    let (mut sights, mut commercial) = (0, 0);
    for poi in gaz.pois() {
        let key = poi.key;
        if poi.category.is_commercial() {
            commercial += 1;
            assert_eq!(refer(poi, poi.category), None, "{key} is commercial");
            continue;
        }
        sights += 1;
        assert_eq!(
            refer(poi, poi.category),
            Some(dbp(key)),
            "{key} links to itself"
        );
        for category in commercial_categories {
            assert_eq!(
                refer(poi, category),
                None,
                "a {} at {key}",
                category.label()
            );
        }
    }
    let refiled = 3 * sights;
    println!(
        "\nE11: {sights}/{sights} touristic POIs linked, 0/{refiled} once refiled under a \
         commercial category, {commercial}/{commercial} commercial POIs excluded"
    );
    assert!(sights >= 30 && commercial >= 5, "guard: catalogue");
}

/// E12 — the federated architecture (§6): one publish reaches every
/// subscribed home node once over PubSubHubbub and once over SparqlPuSH.
#[test]
fn e12_publish_notifies_every_subscriber_once_per_channel() {
    println!("\nE12: publish → notify fan-out");
    println!("| nodes | hub | sparqlpush | timelines consistent |");
    for n in [2usize, 5, 10, 25] {
        let mut fed = Federation::new();
        for i in 0..n {
            let node = fed.add_node(&format!("node{i}.example")).unwrap();
            fed.register_user(node, &format!("user{i}"), &format!("User {i}"))
                .unwrap();
        }
        let acct = |i: usize| Acct {
            user: format!("user{i}"),
            host: format!("node{i}.example"),
        };
        let publisher = acct(0);
        for i in 1..n {
            fed.subscribe(i, &acct(i), &publisher).unwrap();
            fed.sparql_subscribe(i, 0, "SELECT ?m WHERE { ?m a sioct:MicroblogPost . }")
                .unwrap();
        }
        let (_, notifications) = fed.publish(&publisher, "fan-out test", 100).unwrap();
        let count =
            |wanted: fn(&Notification) -> bool| notifications.iter().filter(|x| wanted(x)).count();
        let hub = count(|x| matches!(x, Notification::Activity { .. }));
        let push = count(|x| matches!(x, Notification::SparqlRows { .. }));
        let consistent = (1..n).all(|i| {
            let entries = fed.node(i).unwrap().timeline().entries();
            entries.len() == 1 && entries[0].summary == "fan-out test"
        });
        println!("| {n} | {hub} | {push} | {consistent} |");
        assert_eq!((hub, push), (n - 1, n - 1), "{n} nodes");
        assert!(consistent, "{n} nodes: timelines");
    }
}
