//! The paper's queries, verbatim (modulo bracketed PREFIX IRIs),
//! executed against a bootstrapped platform — §2.3's three virtual
//! album queries and §4.1's 4-arm mashup UNION.

use lodify::context::Gazetteer;
use lodify::core::mashup::MashupService;
use lodify::core::platform::{Platform, Upload};
use lodify::relational::WorkloadConfig;

fn platform_with_fixture() -> (Platform, i64) {
    let mut p = Platform::bootstrap(WorkloadConfig {
        seed: 99,
        users: 20,
        pictures: 250,
        ..WorkloadConfig::default()
    })
    .expect("bootstrap");
    let gaz = Gazetteer::global();
    let mole = gaz.poi("Mole_Antonelliana").unwrap().point(gaz);
    // "oscar": Q2 filters friends of this user.
    let users = p.db().table(lodify::relational::coppermine::USERS).unwrap();
    let first_user_name = users
        .get(1)
        .and_then(|row| row[1].as_text().map(str::to_string))
        .unwrap();
    let receipt = p
        .upload(Upload {
            user_id: 2,
            title: "La Mole".into(),
            tags: vec!["torino".into()],
            ts: 5,
            gps: Some(mole),
            poi: None,
        })
        .unwrap();
    let _ = first_user_name;
    (p, receipt.pid)
}

/// §2.3 Q1, verbatim.
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
fn q1_runs_verbatim_and_returns_nearby_content() {
    let (p, pid) = platform_with_fixture();
    let results = p.query(Q1).unwrap();
    assert!(!results.is_empty());
    let links: Vec<&str> = results.column("link").iter().map(|t| t.lexical()).collect();
    assert!(links
        .iter()
        .any(|l| l.contains(&format!("media/{pid}.jpg"))));
}

/// §2.3 Q2, verbatim — social filter on a user named like the paper's
/// "oscar". `{user_name}` is substituted by [`instantiate`].
const Q2: &str = r#"
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT DISTINCT ?link WHERE
{
  ?monument rdfs:label "Mole Antonelliana"@it .
  ?monument geo:geometry ?sourceGEO .
  ?resource geo:geometry ?location .
  ?resource a sioct:MicroblogPost .
  ?resource comm:image-data ?link .
  ?resource foaf:maker ?user .
  ?oscar foaf:name "{user_name}" .
  ?user foaf:knows ?oscar .
  FILTER( bif:st_intersects( ?location, ?sourceGEO, 0.3 ) ) .
}
"#;

/// §2.3 Q3, verbatim — Q2 plus rating order. `{user_name}` as in [`Q2`].
const Q3: &str = r#"
SELECT DISTINCT ?link ?points WHERE {
  ?monument rdfs:label "Mole Antonelliana"@it .
  ?monument geo:geometry ?sourceGEO .
  ?resource geo:geometry ?location .
  ?resource a sioct:MicroblogPost .
  ?resource comm:image-data ?link .
  ?resource foaf:maker ?user .
  ?oscar foaf:name "{user_name}" .
  ?user foaf:knows ?oscar .
  ?resource rev:rating ?points .
  FILTER( bif:st_intersects( ?location, ?sourceGEO, 0.3 ) ) .
}
ORDER BY DESC(?points)
"#;

/// Substitutes the paper's "oscar" placeholder.
fn instantiate(query: &str, user_name: &str) -> String {
    query.replace("{user_name}", user_name)
}

/// The platform's user #1 name — the stand-in for the paper's "oscar".
fn oscar(p: &Platform) -> String {
    let users = p.db().table(lodify::relational::coppermine::USERS).unwrap();
    users.get(1).unwrap()[1].as_text().unwrap().to_string()
}

#[test]
fn q2_social_filter_is_a_subset_of_q1() {
    let (p, _) = platform_with_fixture();
    let q2 = instantiate(Q2, &oscar(&p));
    let q1_links: std::collections::BTreeSet<String> = p
        .query(Q1)
        .unwrap()
        .column("link")
        .iter()
        .map(|t| t.lexical().to_string())
        .collect();
    let q2_links: std::collections::BTreeSet<String> = p
        .query(&q2)
        .unwrap()
        .column("link")
        .iter()
        .map(|t| t.lexical().to_string())
        .collect();
    assert!(q2_links.is_subset(&q1_links));
}

#[test]
fn q3_orders_by_rating_descending() {
    let (mut p, pid) = platform_with_fixture();
    p.rate(pid, 3, 5).unwrap();
    let q3 = instantiate(Q3, &oscar(&p));
    let results = p.query(&q3).unwrap();
    let points: Vec<f64> = results
        .column("points")
        .iter()
        .map(|t| t.lexical().parse().unwrap())
        .collect();
    assert!(
        points.windows(2).all(|w| w[0] >= w[1]),
        "not descending: {points:?}"
    );
}

/// §4.1: the single 4-arm UNION mashup query, paper shape.
#[test]
fn mashup_union_query_runs_with_subselect_limits() {
    let (p, pid) = platform_with_fixture();
    let picture = Platform::picture_iri(pid);
    let service = MashupService::standard();
    let query = service.combined_query(&picture);
    // Sanity: the generated text has the paper's four arms.
    assert_eq!(query.matches("UNION").count(), 3);
    assert_eq!(query.matches("LIMIT 5").count(), 4);
    let results = p.query(&query).unwrap();
    assert!(!results.is_empty());
    // Each arm is capped at 5, so ≤ 20 rows total.
    assert!(results.len() <= 20, "{}", results.len());
}

/// §2.1.1's "Coliseum" walkthrough: the keyword hooks the content to
/// "The Roman Colosseum" in the external datasets.
#[test]
fn coliseum_keyword_links_to_colosseum_resource() {
    let (mut p, _) = platform_with_fixture();
    let gaz = Gazetteer::global();
    let colosseum = gaz.poi("Colosseum").unwrap();
    let receipt = p
        .upload(Upload {
            user_id: 4,
            title: "A wonderful day".into(),
            tags: vec!["Coliseum".into()],
            ts: 7,
            gps: Some(colosseum.point(gaz)),
            poi: None,
        })
        .unwrap();
    let annotation = &p.annotations()[&receipt.pid];
    let coliseum_term = annotation
        .terms
        .iter()
        .find(|t| t.term == "Coliseum")
        .expect("tag became a term");
    assert_eq!(
        coliseum_term.resource.as_ref().map(|i| i.as_str()),
        Some("http://dbpedia.org/resource/Colosseum"),
        "the paper's example: keyword \"Coliseum\" → The Roman Colosseum"
    );
}

/// Durability tentpole, end to end: a crash between the paper's
/// queries must not change a single answer. The fixture platform runs
/// journaled, takes live traffic, dies, and the rebooted platform
/// answers Q1–Q3 identically (rendered tables compared verbatim).
#[test]
fn crash_recovery_preserves_every_paper_query_answer() {
    use lodify::durability::{DurabilityOptions, MemStorage};

    let config = WorkloadConfig {
        seed: 99,
        users: 20,
        pictures: 250,
        ..WorkloadConfig::default()
    };
    let mem = MemStorage::new();
    let (mut p, report) = Platform::bootstrap_durable(
        config.clone(),
        Box::new(mem.clone()),
        DurabilityOptions::default(),
    )
    .unwrap();
    assert!(!report.recovered, "first boot adopts the bootstrap corpus");

    let gaz = Gazetteer::global();
    let mole = gaz.poi("Mole_Antonelliana").unwrap().point(gaz);
    let receipt = p
        .upload(Upload {
            user_id: 2,
            title: "La Mole".into(),
            tags: vec!["torino".into()],
            ts: 5,
            gps: Some(mole),
            poi: None,
        })
        .unwrap();
    p.rate(receipt.pid, 3, 5).unwrap();
    p.flush_store().unwrap();

    let user_name = oscar(&p);
    let queries = [
        Q1.to_string(),
        instantiate(Q2, &user_name),
        instantiate(Q3, &user_name),
    ];
    let before: Vec<String> = queries
        .iter()
        .map(|q| p.query(q).unwrap().to_table())
        .collect();
    assert!(!p.query(Q1).unwrap().is_empty(), "the fixture answers Q1");
    drop(p);
    mem.crash();

    let (revived, report) =
        Platform::bootstrap_durable(config, Box::new(mem.clone()), DurabilityOptions::default())
            .unwrap();
    assert!(report.recovered, "second boot replays the journal");
    let after: Vec<String> = queries
        .iter()
        .map(|q| revived.query(q).unwrap().to_table())
        .collect();
    assert_eq!(
        before, after,
        "Q1–Q3 answers identical across crash recovery"
    );
}

/// The album cache across the durability boundary: the revived
/// platform solves an album from the recovered store, serves repeats
/// as hits, and an upload on it is patched into the album, so the view
/// after it is a hit as well.
#[test]
fn album_cache_invalidates_correctly_after_crash_recovery() {
    use lodify::core::albums::AlbumSpec;
    use lodify::durability::{DurabilityOptions, MemStorage};

    let config = WorkloadConfig {
        seed: 99,
        users: 20,
        pictures: 250,
        ..WorkloadConfig::default()
    };
    let mem = MemStorage::new();
    let (mut p, _) = Platform::bootstrap_durable(
        config.clone(),
        Box::new(mem.clone()),
        DurabilityOptions::default(),
    )
    .unwrap();
    let gaz = Gazetteer::global();
    let mole = gaz.poi("Mole_Antonelliana").unwrap().point(gaz);
    let receipt = p
        .upload(Upload {
            user_id: 2,
            title: "La Mole".into(),
            tags: vec!["torino".into()],
            ts: 5,
            gps: Some(mole),
            poi: None,
        })
        .unwrap();
    p.rate(receipt.pid, 3, 5).unwrap();
    let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3);
    let before = p.view_album(&spec).unwrap();
    assert!(!before.is_empty());
    p.flush_store().unwrap();
    drop(p);
    mem.crash();

    let (mut revived, report) =
        Platform::bootstrap_durable(config, Box::new(mem.clone()), DurabilityOptions::default())
            .unwrap();
    assert!(report.recovered);

    // Cold solve on the revived platform matches the pre-crash view,
    // and a repeat is a pure hit.
    assert_eq!(
        views_against_execute(&revived, std::slice::from_ref(&spec), "recovered"),
        1
    );
    assert_eq!(revived.view_album(&spec).unwrap(), before);
    let stats = revived.album_cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));

    let receipt = revived
        .upload(Upload {
            user_id: 3,
            title: "Mole again".into(),
            tags: vec!["torino".into()],
            ts: 9,
            gps: Some(mole),
            poi: None,
        })
        .unwrap();
    assert_eq!(
        views_against_execute(&revived, std::slice::from_ref(&spec), "upload"),
        0
    );
    let refreshed = revived.view_album(&spec).unwrap();
    assert!(
        refreshed
            .iter()
            .any(|l| l.contains(&format!("media/{}.jpg", receipt.pid))),
        "post-recovery upload must appear in the refreshed album"
    );
    assert_eq!(revived.album_cache_stats().misses, 1);
}

/// Views `specs` and asserts each equals [`AlbumSpec::execute`] over
/// the platform's store. Returns how many of the views were misses.
fn views_against_execute(
    p: &Platform,
    specs: &[lodify::core::albums::AlbumSpec],
    stage: &str,
) -> u64 {
    let misses = p.album_cache_stats().misses;
    for spec in specs {
        assert_eq!(
            p.view_album(spec).unwrap(),
            spec.execute(p.store()).unwrap(),
            "after {stage}: {}",
            spec.to_sparql()
        );
    }
    p.album_cache_stats().misses - misses
}

/// The one-materialisation oracle: for every gazetteer sight, radii
/// 0.3/0.5/2.0 km and the shapes Q1, Q2, Q3 and Q1 `LIMIT 3`, a view
/// equals the reference query after every commit path — upload, an
/// ingest batch, a rating, a legacy annotation — and after durable
/// crash recovery plus `live_rebuild`. Views after a commit are hits.
#[test]
fn album_views_equal_execute_after_every_commit_path() {
    use lodify::core::albums::AlbumSpec;
    use lodify::core::IngestPool;
    use lodify::durability::{DurabilityOptions, MemStorage};

    let config = WorkloadConfig {
        seed: 99,
        users: 20,
        pictures: 250,
        ..WorkloadConfig::default()
    };
    let mem = MemStorage::new();
    let (mut p, _) = Platform::bootstrap_durable(
        config.clone(),
        Box::new(mem.clone()),
        DurabilityOptions::default(),
    )
    .unwrap();
    let gaz = Gazetteer::global();
    let friend = p
        .db()
        .table(lodify::relational::coppermine::USERS)
        .unwrap()
        .get(1)
        .and_then(|row| row[1].as_text().map(str::to_string))
        .unwrap();
    let sights: Vec<_> = gaz
        .pois()
        .iter()
        .filter(|poi| !poi.category.is_commercial())
        .collect();
    let mut specs = Vec::new();
    for poi in &sights {
        for radius in [0.3, 0.5, 2.0] {
            let q1 = AlbumSpec::near_monument(poi.name, "it", radius);
            specs.push(q1.clone().friends_of(&friend));
            specs.push(q1.clone().rated());
            specs.push(q1.clone().limit(3));
            specs.push(q1);
        }
    }
    let near = |poi: usize, user_id: i64, ts: i64| Upload {
        user_id,
        title: format!("Vista {ts}"),
        tags: vec!["torino".into()],
        ts,
        gps: Some(sights[poi].point(gaz).offset_km(0.1, 0.0)),
        poi: None,
    };
    let all = specs.len() as u64;
    assert_eq!(views_against_execute(&p, &specs, "bootstrap"), all);

    let receipt = p.upload(near(0, 2, 5)).unwrap();
    assert_eq!(views_against_execute(&p, &specs, "upload"), 0);

    let report = IngestPool::new(2).ingest(&mut p, vec![near(1, 3, 6), near(0, 4, 7)]);
    assert!(report.is_clean());
    assert_eq!(views_against_execute(&p, &specs, "an ingest batch"), 0);

    p.rate(receipt.pid, 3, 5).unwrap();
    assert_eq!(views_against_execute(&p, &specs, "rate"), 0);

    p.annotate_legacy(p.picture_ids()[0]).unwrap();
    assert_eq!(views_against_execute(&p, &specs, "annotate_legacy"), 0);

    p.flush_store().unwrap();
    drop(p);
    mem.crash();
    let (mut revived, report) =
        Platform::bootstrap_durable(config, Box::new(mem.clone()), DurabilityOptions::default())
            .unwrap();
    assert!(report.recovered);
    assert_eq!(views_against_execute(&revived, &specs, "recovery"), all);
    revived.live_rebuild();
    assert_eq!(views_against_execute(&revived, &specs, "live_rebuild"), 0);
    revived.upload(near(0, 5, 8)).unwrap();
    assert_eq!(
        views_against_execute(&revived, &specs, "a recovered upload"),
        0
    );
}
