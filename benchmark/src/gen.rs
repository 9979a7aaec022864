//! The seeded load generator. Same seed ⇒ byte-identical op streams.
//!
//! The program under test receives only what this module produces:
//! HTTP targets, SPARQL texts and `Upload` values. Generation needs a
//! few facts about the base fixture (which monuments exist, which
//! users someone knows, which picture ids are taken); those travel in
//! a plain [`Catalog`] so the generator itself never touches a store.
//!
//! Candidates come out in a seeded order and *more than needed*: the
//! workload's oracle walks them in that order and rejects any whose
//! expected answer is empty (a prefix without suggestions, Q2 for a
//! user nobody knows near that monument), then the `*_stream`
//! functions draw the timed stream over the accepted pools.

use lodify::core::albums::AlbumSpec;
use lodify::core::mashup::MashupService;
use lodify::core::platform::{Platform, Upload};
use lodify::core::web::url_encode;
use lodify::rdf::Point;
use lodify::relational::coppermine as cpg;
use lodify::relational::workload::{generate, WorkloadConfig};
use lodify::resilience::DetRng;

/// Radii the album and Q1–Q3 specs are drawn from (km).
pub const RADII: [f64; 2] = [0.3, 0.5];

/// A non-commercial gazetteer POI: what `/album`, `/resource` and
/// Q1–Q3 are asked about.
#[derive(Debug, Clone, PartialEq)]
pub struct Monument {
    pub name: String,
    pub iri: String,
    pub point: Point,
}

/// What the generator knows about the base fixture.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    pub monuments: Vec<Monument>,
    /// Words of LOD labels; search prefixes are cut from these.
    pub label_words: Vec<String>,
    /// `user_name`s at least one other user `foaf:knows`.
    pub known_users: Vec<String>,
    /// Picture ids of the base population, ascending.
    pub picture_ids: Vec<i64>,
}

fn shuffled<T: Clone>(items: &[T], rng: &mut DetRng) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.random_range(0..=i));
    }
    out
}

fn pick<'a, T>(items: &'a [T], rng: &mut DetRng) -> &'a T {
    &items[rng.random_range(0..items.len())]
}

/// Class indexes for `n` operations, dealt from shuffled decks of as
/// many cards as the weights sum to (`weights[i]` cards of class `i`).
/// Every deck-length stretch of the stream holds the exact mix, so no
/// run draws more of the heavy operations than another — with
/// independent draws their count alone moved throughput by ±8 %.
fn dealt(weights: &[u32], n: usize, rng: &mut DetRng) -> Vec<usize> {
    let deck: Vec<usize> = weights
        .iter()
        .enumerate()
        .flat_map(|(class, weight)| std::iter::repeat_n(class, *weight as usize))
        .collect();
    let mut out = Vec::with_capacity(n + deck.len());
    while out.len() < n {
        out.extend(shuffled(&deck, rng));
    }
    out.truncate(n);
    out
}

/// Walks a pool round-robin from a seeded start: a run covers every
/// member evenly instead of sampling some twice and some never.
struct Walk<'a, T> {
    pool: &'a [T],
    at: usize,
}

impl<'a, T> Walk<'a, T> {
    fn new(pool: &'a [T], rng: &mut DetRng) -> Walk<'a, T> {
        Walk {
            pool,
            at: rng.random_range(0..pool.len().max(1)),
        }
    }

    fn next(&mut self) -> &'a T {
        self.at = (self.at + 1) % self.pool.len();
        &self.pool[self.at]
    }
}

// ------------------------------------------------------------------ HTTP

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Route {
    Search,
    Album,
    Picture,
    About,
    Resource,
}

impl Route {
    pub const ALL: [Route; 5] = [
        Route::Search,
        Route::Album,
        Route::Picture,
        Route::About,
        Route::Resource,
    ];

    /// Share of the browse mix, percent: light routes dominate the
    /// median, `/about` and `/resource` (uncached SPARQL) own the tail.
    pub fn weight(self) -> u32 {
        match self {
            Route::Search => 45,
            Route::Album => 25,
            Route::Picture => 15,
            Route::About => 10,
            Route::Resource => 5,
        }
    }
}

/// Ordered candidate targets per route (`/picture` needs no oracle-side
/// filtering: every base pid renders).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HttpCandidates {
    pub search: Vec<String>,
    pub album: Vec<String>,
    pub about: Vec<String>,
    pub resource: Vec<String>,
}

pub fn http_candidates(seed: u64, catalog: &Catalog) -> HttpCandidates {
    let mut rng = DetRng::seed_from_u64(seed).fork("http");
    let mut search = Vec::new();
    for word in shuffled(&catalog.label_words, &mut rng) {
        let chars: Vec<char> = word.chars().collect();
        let len = rng.random_range(2..=5usize).min(chars.len());
        let prefix: String = chars[..len].iter().collect();
        let target = format!("/search?q={}", url_encode(&prefix));
        if !search.contains(&target) {
            search.push(target);
        }
    }
    let mut album = Vec::new();
    for monument in &catalog.monuments {
        for radius in RADII {
            album.push(format!(
                "/album?monument={}&radius={radius}",
                url_encode(&monument.name)
            ));
        }
    }
    let about = shuffled(&catalog.picture_ids, &mut rng)
        .into_iter()
        .map(|pid| format!("/about/{pid}"))
        .collect();
    let resource = catalog
        .monuments
        .iter()
        .map(|m| format!("/resource?iri={}", url_encode(&m.iri)))
        .collect();
    HttpCandidates {
        search,
        album,
        about,
        resource,
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpOp {
    pub route: Route,
    pub target: String,
}

/// Deals `n` requests over the accepted pools with the browse mix.
pub fn http_stream(seed: u64, pools: &HttpCandidates, catalog: &Catalog, n: usize) -> Vec<HttpOp> {
    let mut rng = DetRng::seed_from_u64(seed).fork("http-stream");
    let classes = dealt(&Route::ALL.map(Route::weight), n, &mut rng);
    let mut walks = [&pools.search, &pools.album, &pools.about, &pools.resource]
        .map(|pool| Walk::new(pool, &mut rng));
    classes
        .into_iter()
        .map(|class| {
            let route = Route::ALL[class];
            let target = match route {
                Route::Search => walks[0].next().clone(),
                Route::Album => walks[1].next().clone(),
                Route::Picture => format!("/picture/{}", pick(&catalog.picture_ids, &mut rng)),
                Route::About => walks[2].next().clone(),
                Route::Resource => walks[3].next().clone(),
            };
            HttpOp { route, target }
        })
        .collect()
}

// ---------------------------------------------------------------- SPARQL

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueryClass {
    Q1,
    Q2,
    Q3,
    Mashup,
    Bgp,
}

impl QueryClass {
    pub const ALL: [QueryClass; 5] = [
        QueryClass::Q1,
        QueryClass::Q2,
        QueryClass::Q3,
        QueryClass::Mashup,
        QueryClass::Bgp,
    ];

    pub fn weight(self) -> u32 {
        match self {
            QueryClass::Q1 => 40,
            QueryClass::Q2 | QueryClass::Q3 => 20,
            QueryClass::Mashup | QueryClass::Bgp => 10,
        }
    }
}

/// One generated query. Q1 carries what the relational baseline needs
/// to answer it independently.
#[derive(Debug, Clone, PartialEq)]
pub struct SparqlOp {
    pub class: QueryClass,
    pub text: String,
    pub q1: Option<(Point, f64)>,
    /// The picture a mashup query is about.
    pub picture: Option<i64>,
}

/// Ordered candidate queries per class. Within a class only constants
/// differ, so the plan cache sees one fingerprint per class and
/// answers all but the first text with a plan-only hit.
pub fn sparql_candidates(seed: u64, catalog: &Catalog) -> Vec<Vec<SparqlOp>> {
    let mut rng = DetRng::seed_from_u64(seed).fork("sparql");
    let op = |class, text| SparqlOp {
        class,
        text,
        q1: None,
        picture: None,
    };
    let mut q1 = Vec::new();
    for monument in &catalog.monuments {
        for radius in RADII {
            q1.push(SparqlOp {
                class: QueryClass::Q1,
                text: AlbumSpec::near_monument(&monument.name, "it", radius).to_sparql(),
                q1: Some((monument.point, radius)),
                picture: None,
            });
        }
    }
    let mut social = |class: QueryClass| -> Vec<SparqlOp> {
        let mut out: Vec<SparqlOp> = Vec::new();
        for _ in 0..256 {
            let spec = AlbumSpec::near_monument(
                &pick(&catalog.monuments, &mut rng).name,
                "it",
                *pick(&RADII, &mut rng),
            )
            .friends_of(pick::<String>(&catalog.known_users, &mut rng));
            let spec = if class == QueryClass::Q3 {
                spec.rated()
            } else {
                spec
            };
            let text = spec.to_sparql();
            if out.iter().all(|o| o.text != text) {
                out.push(op(class, text));
            }
        }
        out
    };
    let q2 = social(QueryClass::Q2);
    let q3 = social(QueryClass::Q3);
    let mashup = shuffled(&catalog.picture_ids, &mut rng)
        .into_iter()
        .take(128)
        .map(|pid| SparqlOp {
            picture: Some(pid),
            ..op(
                QueryClass::Mashup,
                MashupService::standard().combined_query(&Platform::picture_iri(pid)),
            )
        })
        .collect();
    // Every picture joined to its maker's name and its title; the
    // LIMIT is the seeded constant.
    let pictures = catalog.picture_ids.len();
    let mut bgp: Vec<SparqlOp> = Vec::new();
    while bgp.len() < 16.min(pictures / 4 + 1) {
        let limit = rng.random_range(pictures * 3 / 4..=pictures);
        let text = format!(
            "SELECT ?p ?n ?t WHERE {{\n  ?p a sioct:MicroblogPost .\n  ?p foaf:maker ?m .\n  \
             ?m foaf:name ?n .\n  ?p rdfs:label ?t .\n}}\nLIMIT {limit}\n"
        );
        if bgp.iter().all(|o| o.text != text) {
            bgp.push(op(QueryClass::Bgp, text));
        }
    }
    vec![q1, q2, q3, mashup, bgp]
}

/// Deals `n` queries over the accepted pools (indexed like
/// [`QueryClass::ALL`]) with the 40/20/20/10/10 mix.
pub fn sparql_stream(seed: u64, pools: &[Vec<SparqlOp>], n: usize) -> Vec<SparqlOp> {
    let mut rng = DetRng::seed_from_u64(seed).fork("sparql-stream");
    let classes = dealt(&QueryClass::ALL.map(QueryClass::weight), n, &mut rng);
    let mut walks: Vec<Walk<'_, SparqlOp>> =
        pools.iter().map(|pool| Walk::new(pool, &mut rng)).collect();
    classes
        .into_iter()
        .map(|class| walks[class].next().clone())
        .collect()
}

// --------------------------------------------------------------- uploads

/// `n` uploads drawn from a second synthetic population (generator
/// seed + 1) mapped onto the base users, so annotation sees realistic
/// multilingual titles, keywords, GPS fixes and POI attachments.
/// Timestamps ascend, which keeps batched ingest in stream order.
pub fn uploads(seed: u64, base_users: usize, n: usize) -> Vec<Upload> {
    let population = generate(WorkloadConfig {
        seed: seed.wrapping_add(1),
        users: base_users,
        pictures: n,
        ..WorkloadConfig::default()
    });
    let pictures = population
        .db
        .table(cpg::PICTURES)
        .expect("generated schema");
    let poi_refs = population
        .db
        .table(cpg::POI_REFS)
        .expect("generated schema");
    let point = |lon: &lodify::relational::SqlValue, lat: &lodify::relational::SqlValue| {
        Point::new(lon.as_real()?, lat.as_real()?).ok()
    };
    pictures
        .scan()
        .map(|(pid, row)| Upload {
            user_id: 1 + (row[2].as_int().unwrap_or(1) - 1).rem_euclid(base_users as i64),
            title: row[3].as_text().unwrap_or_default().to_string(),
            tags: row[4]
                .as_text()
                .unwrap_or_default()
                .split_whitespace()
                .map(str::to_string)
                .collect(),
            // After every base picture's capture time, 137 s apart.
            ts: 1_400_000_000 + pid * 137,
            gps: point(&row[6], &row[7]),
            poi: poi_refs
                .select(|r| r[1].as_int() == Some(pid))
                .next()
                .and_then(|(_, r)| {
                    Some((
                        r[2].as_text()?.to_string(),
                        r[3].as_text()?.to_string(),
                        point(&r[4], &r[5])?,
                    ))
                }),
        })
        .collect()
}

// -------------------------------------------------------------- schedule

/// Poisson arrivals: due offsets (seconds from phase start) at
/// `rate_per_s` until `duration_s`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration_s: f64) -> Vec<f64> {
    let mut rng = DetRng::seed_from_u64(seed).fork("arrivals");
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        // Inverse-CDF exponential gap; 1 − u keeps the log finite.
        t += -(1.0 - rng.random_f64()).ln() / rate_per_s;
        if t >= duration_s {
            return due;
        }
        due.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        Catalog {
            monuments: ["Mole Antonelliana", "Palazzo Madama", "Colosseum"]
                .iter()
                .enumerate()
                .map(|(i, name)| Monument {
                    name: name.to_string(),
                    iri: format!("http://dbpedia.org/resource/{}", name.replace(' ', "_")),
                    point: Point::new(7.0 + i as f64, 45.0).unwrap(),
                })
                .collect(),
            label_words: [
                "Mole",
                "Antonelliana",
                "Palazzo",
                "Madama",
                "Colosseum",
                "Torino",
            ]
            .map(String::from)
            .to_vec(),
            known_users: ["oscar1", "carmen7", "luca12"].map(String::from).to_vec(),
            picture_ids: (1..=400).collect(),
        }
    }

    fn http(seed: u64) -> Vec<HttpOp> {
        let catalog = catalog();
        let pools = http_candidates(seed, &catalog);
        http_stream(seed, &pools, &catalog, 2000)
    }

    fn sparql(seed: u64) -> Vec<SparqlOp> {
        sparql_stream(seed, &sparql_candidates(seed, &catalog()), 2000)
    }

    fn upload_bytes(seed: u64) -> String {
        format!("{:?}", uploads(seed, 10, 40))
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        assert_eq!(format!("{:?}", http(11)), format!("{:?}", http(11)));
        assert_eq!(format!("{:?}", sparql(11)), format!("{:?}", sparql(11)));
        assert_eq!(upload_bytes(11), upload_bytes(11));
        assert_eq!(
            poisson_schedule(11, 80.0, 10.0),
            poisson_schedule(11, 80.0, 10.0)
        );
    }

    #[test]
    fn another_seed_gives_another_stream() {
        assert_ne!(http(11), http(12));
        assert_ne!(sparql(11), sparql(12));
        assert_ne!(upload_bytes(11), upload_bytes(12));
        assert_ne!(
            poisson_schedule(11, 80.0, 10.0),
            poisson_schedule(12, 80.0, 10.0)
        );
    }

    #[test]
    fn every_hundred_operations_hold_the_exact_mix() {
        for hundred in http(11).chunks(100) {
            for route in Route::ALL {
                let count = hundred.iter().filter(|o| o.route == route).count();
                assert_eq!(count as u32, route.weight(), "{route:?}");
            }
        }
        for hundred in sparql(11).chunks(100) {
            for class in QueryClass::ALL {
                let count = hundred.iter().filter(|o| o.class == class).count();
                assert_eq!(count as u32, class.weight(), "{class:?}");
            }
        }
    }

    #[test]
    fn streams_cover_their_pools_evenly() {
        let ops = http(11);
        let albums: Vec<&str> = ops
            .iter()
            .filter(|o| o.route == Route::Album)
            .map(|o| o.target.as_str())
            .collect();
        let distinct: std::collections::BTreeSet<&str> = albums.iter().copied().collect();
        assert_eq!(distinct.len(), 3 * RADII.len());
        for target in &distinct {
            let uses = albums.iter().filter(|t| t == &target).count();
            assert!(
                uses.abs_diff(albums.len() / distinct.len()) <= 1,
                "{target}: {uses}"
            );
        }
    }

    #[test]
    fn search_prefixes_are_two_to_five_characters() {
        for target in http_candidates(11, &catalog()).search {
            let prefix = target.strip_prefix("/search?q=").unwrap();
            assert!((2..=5).contains(&prefix.chars().count()), "{prefix}");
        }
    }

    #[test]
    fn uploads_ascend_in_time_and_reference_base_users() {
        let stream = uploads(11, 10, 40);
        assert_eq!(stream.len(), 40);
        assert!(stream.windows(2).all(|w| w[0].ts < w[1].ts));
        assert!(stream.iter().all(|u| (1..=10).contains(&u.user_id)));
        assert!(stream.iter().any(|u| u.gps.is_some()));
        assert!(stream.iter().any(|u| u.poi.is_some()));
    }

    #[test]
    fn poisson_schedule_meets_its_rate_within_two_percent() {
        let duration = 600.0;
        let due = poisson_schedule(11, 80.0, duration);
        let rate = due.len() as f64 / duration;
        assert!((rate - 80.0).abs() / 80.0 < 0.02, "rate {rate}");
        assert!(due.windows(2).all(|w| w[0] < w[1]));
        assert!(due.last().is_some_and(|t| *t < duration));
    }
}
