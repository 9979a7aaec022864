//! Semantic virtual albums (§2.3).
//!
//! "A virtual album is a collection of multimedia objects retrieved
//! dynamically by applying several complex search conditions over our
//! data storage. … behind a virtual album stands a SPARQL query."
//!
//! [`AlbumSpec`] is the builder behind the paper's three example
//! queries: Q1 (geo proximity to a monument), Q2 (Q1 + social
//! filtering via `foaf:knows`), Q3 (Q2 + `rev:rating` ordering). The
//! generated text matches the paper's query shape so it doubles as a
//! regression test for the SPARQL engine.
//!
//! [`relational_baseline`] computes the *same* semantics directly over
//! the relational database — the "already possible by means of
//! relational DB technology" baseline the paper contrasts with — and
//! the E5 experiment cross-checks both.
//!
//! # Materialized albums
//!
//! Re-running the full SPARQL query on every album view is the hot
//! path the paper's Virtuoso deployment would melt under. An
//! [`AlbumCache`] memoizes each album's solved links as a
//! [`MaterializedAlbum`] keyed by the store's **mutation epoch**
//! ([`Store::epoch`]): an entry stays valid while none of the
//! predicates its query reads ([`AlbumSpec::predicates`]) has seen a
//! mutation ([`Store::predicate_epoch`]). Invalidation is therefore
//! *incremental* — rating a picture (a `rev:rating` mutation)
//! invalidates Q3 albums but leaves Q1 albums cached. Hit, miss and
//! invalidation counters surface through
//! [`OpsSnapshot`](crate::metrics::OpsSnapshot).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use lodify_rdf::{ns, Iri, Point, Term};
use lodify_relational::{coppermine as cpg, Database};
use lodify_store::Store;

use crate::error::PlatformError;

/// Declarative spec of a virtual album.
///
/// The builder mirrors the paper's query ladder — each call adds one
/// of §2.3's refinements:
///
/// ```
/// use lodify_core::albums::AlbumSpec;
///
/// // Q3 = Q1 (geo proximity) + Q2 (social filter) + rating order.
/// let q3 = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3)
///     .friends_of("oscar")
///     .rated();
/// let sparql = q3.to_sparql();
/// assert!(sparql.contains("?monument rdfs:label \"Mole Antonelliana\"@it ."));
/// assert!(sparql.contains("?user foaf:knows ?friend ."));
/// assert!(sparql.ends_with("ORDER BY DESC(?points) ?link\n"));
/// ```
#[derive(Debug, Clone)]
pub struct AlbumSpec {
    /// The monument's label, e.g. `Mole Antonelliana`.
    pub monument_label: String,
    /// Language tag of the label (the paper uses `@it`).
    pub label_lang: String,
    /// Proximity radius in kilometers (the paper's `0.3`).
    pub radius_km: f64,
    /// Social filter: only content by makers who know this user.
    pub friend_of: Option<String>,
    /// Order results by `rev:rating`, descending.
    pub order_by_rating: bool,
    /// Optional result cap.
    pub limit: Option<usize>,
    /// Predicates the generated query reads, derived by the builders
    /// so that every cache probe borrows instead of allocating.
    preds: Vec<Iri>,
}

/// The constant predicates a query with the given refinements reads.
fn derive_predicates(social: bool, rated: bool) -> Vec<Iri> {
    let mut preds = vec![
        ns::iri::rdfs_label(),
        ns::iri::geo_geometry(),
        ns::iri::rdf_type(),
        ns::iri::image_data(),
    ];
    if social {
        preds.extend([
            ns::iri::foaf_maker(),
            ns::iri::foaf_name(),
            ns::iri::foaf_knows(),
        ]);
    }
    if rated {
        preds.push(ns::iri::rev_rating());
    }
    preds
}

impl AlbumSpec {
    /// Q1: content near a monument.
    pub fn near_monument(label: &str, lang: &str, radius_km: f64) -> AlbumSpec {
        AlbumSpec {
            monument_label: label.to_string(),
            label_lang: lang.to_string(),
            radius_km,
            friend_of: None,
            order_by_rating: false,
            limit: None,
            preds: derive_predicates(false, false),
        }
    }

    /// Q2: add the social filter ("created by users who are friends of
    /// user X").
    pub fn friends_of(mut self, user_name: &str) -> AlbumSpec {
        self.friend_of = Some(user_name.to_string());
        self.preds = derive_predicates(true, self.order_by_rating);
        self
    }

    /// Q3: order by rating, best first.
    pub fn rated(mut self) -> AlbumSpec {
        self.order_by_rating = true;
        self.preds = derive_predicates(self.friend_of.is_some(), true);
        self
    }

    /// Caps the result list.
    pub fn limit(mut self, n: usize) -> AlbumSpec {
        self.limit = Some(n);
        self
    }

    /// Renders the SPARQL query (the paper's Q1/Q2/Q3 shapes).
    pub fn to_sparql(&self) -> String {
        let mut body = format!(
            r#"  ?monument rdfs:label "{label}"@{lang} .
  ?monument geo:geometry ?sourceGEO .
  ?resource geo:geometry ?location .
  ?resource a sioct:MicroblogPost .
  ?resource comm:image-data ?link .
"#,
            label = self.monument_label.replace('"', "\\\""),
            lang = self.label_lang,
        );
        if let Some(user) = &self.friend_of {
            body.push_str(&format!(
                "  ?resource foaf:maker ?user .\n  ?friend foaf:name \"{}\" .\n  ?user foaf:knows ?friend .\n",
                user.replace('"', "\\\"")
            ));
        }
        if self.order_by_rating {
            body.push_str("  ?resource rev:rating ?points .\n");
        }
        body.push_str(&format!(
            "  FILTER( bif:st_intersects( ?location, ?sourceGEO, {} ) ) .\n",
            self.radius_km
        ));
        let mut query = format!("SELECT DISTINCT ?link WHERE {{\n{body}}}\n");
        // The trailing `?link` sort key makes the result order a pure
        // function of (rating, link) — ties no longer depend on join
        // enumeration order, which is what lets the live standing-query
        // engine ([`crate::live`]) reproduce the order from a patch.
        if self.order_by_rating {
            query.push_str("ORDER BY DESC(?points) ?link\n");
        } else {
            query.push_str("ORDER BY ?link\n");
        }
        if let Some(limit) = self.limit {
            query.push_str(&format!("LIMIT {limit}\n"));
        }
        query
    }

    /// Executes against a store, returning media links in result order.
    pub fn execute(&self, store: &Store) -> Result<Vec<String>, PlatformError> {
        let results = lodify_sparql::execute(store, &self.to_sparql())?;
        Ok(results
            .column("link")
            .into_iter()
            .map(|t| t.lexical().to_string())
            .collect())
    }

    /// The constant predicates the generated query reads. A cached
    /// answer stays valid while none of them has seen a mutation —
    /// the incremental-invalidation contract of [`AlbumCache`]. The
    /// slice is computed once by the builders, so probing it on the
    /// cache hot path is allocation-free.
    pub fn predicates(&self) -> &[Iri] {
        &self.preds
    }
}

/// Max per-predicate epoch over the query's predicates: the album's
/// validity fingerprint. Epochs only grow, so an unchanged fingerprint
/// proves no statement any of these predicates could reach was added
/// or removed since the album was solved.
fn fingerprint(spec: &AlbumSpec, store: &Store) -> u64 {
    spec.predicates()
        .iter()
        .map(|iri| {
            store
                .id_of(&Term::Iri(iri.clone()))
                .map(|id| store.predicate_epoch(id))
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0)
}

/// One solved virtual album: the result links plus the epoch
/// fingerprint they are valid for.
#[derive(Debug, Clone)]
pub struct MaterializedAlbum {
    /// Media links, in query result order.
    pub links: Vec<String>,
    /// [`Store::epoch`] when the album was solved (diagnostics).
    pub solved_at: u64,
    /// Validity fingerprint (see [`fingerprint`]).
    valid_for: u64,
}

impl MaterializedAlbum {
    /// Runs the album query and records the epoch fingerprint it is
    /// valid for.
    pub fn solve(spec: &AlbumSpec, store: &Store) -> Result<MaterializedAlbum, PlatformError> {
        Ok(MaterializedAlbum {
            links: spec.execute(store)?,
            solved_at: store.epoch(),
            valid_for: fingerprint(spec, store),
        })
    }

    /// Whether the solved links still answer `spec` over `store`: true
    /// iff no predicate the query reads mutated since [`Self::solve`].
    pub fn is_fresh(&self, spec: &AlbumSpec, store: &Store) -> bool {
        fingerprint(spec, store) == self.valid_for
    }
}

/// Album-cache counters, surfaced through
/// [`OpsSnapshot`](crate::metrics::OpsSnapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlbumCacheStats {
    /// Views served straight from a fresh materialized album.
    pub hits: u64,
    /// Views that had to solve the query (cold or invalidated).
    pub misses: u64,
    /// Entries dropped because a relevant predicate mutated.
    pub invalidations: u64,
    /// Predicate-epoch fingerprint computations. Memoized per store
    /// epoch, so a warm view at an unchanged epoch costs zero of these.
    pub fingerprint_recomputes: u64,
    /// Materialized albums currently held.
    pub entries: usize,
}

/// What one [`AlbumCache::view_with`] call did, so a caller publishing
/// per-view metrics counts its own view and not the deltas of counters
/// every concurrent viewer shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewOutcome {
    /// Served from a fresh materialized album.
    Hit,
    /// No entry: solved and admitted (a miss).
    Cold,
    /// A stale entry was dropped, then solved and admitted (an
    /// invalidation and a miss).
    Stale,
}

/// Epoch-validated memo of solved virtual albums.
///
/// Interior mutability (a mutex around the entry map, atomics for the
/// counters) lets the cache serve and admit entries through `&self`,
/// so read paths — the web `/album` route holds the platform
/// immutably — stay lock-friendly.
///
/// ```
/// use lodify_core::albums::{AlbumCache, AlbumSpec};
/// use lodify_rdf::{ns, Literal, Point, Term, Triple};
/// use lodify_store::Store;
///
/// let mut store = Store::new();
/// let g = store.default_graph();
/// let mole = Point::new(7.6933, 45.0692)?;
/// let monument = "http://dbpedia.org/resource/Mole_Antonelliana";
/// store.insert(
///     &Triple::spo(
///         monument,
///         ns::iri::rdfs_label().as_str(),
///         Term::Literal(Literal::lang("Mole Antonelliana", "it")?),
///     ),
///     g,
/// );
/// store.insert(
///     &Triple::spo(
///         monument,
///         ns::iri::geo_geometry().as_str(),
///         Term::Literal(mole.to_literal()),
///     ),
///     g,
/// );
/// let pic = "http://t/pictures/1";
/// store.insert(
///     &Triple::spo(pic, ns::iri::rdf_type().as_str(), Term::Iri(ns::iri::microblog_post())),
///     g,
/// );
/// store.insert(
///     &Triple::spo(
///         pic,
///         ns::iri::geo_geometry().as_str(),
///         Term::Literal(mole.offset_km(0.05, 0.0).to_literal()),
///     ),
///     g,
/// );
/// store.insert(
///     &Triple::spo(pic, ns::iri::image_data().as_str(), Term::literal("http://t/media/1.jpg")),
///     g,
/// );
///
/// let cache = AlbumCache::new();
/// let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3);
/// let cold = cache.view(&store, &spec)?; // solves the SPARQL query
/// let warm = cache.view(&store, &spec)?; // epoch unchanged: served from cache
/// assert_eq!(cold, vec!["http://t/media/1.jpg".to_string()]);
/// assert_eq!(warm, cold);
/// assert_eq!((cache.stats().misses, cache.stats().hits), (1, 1));
///
/// // Mutating a predicate the query reads invalidates the entry.
/// store.insert(
///     &Triple::spo(
///         "http://t/pictures/2",
///         ns::iri::image_data().as_str(),
///         Term::literal("http://t/media/2.jpg"),
///     ),
///     g,
/// );
/// cache.view(&store, &spec)?;
/// assert_eq!(cache.stats().invalidations, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct AlbumCache {
    entries: Mutex<HashMap<String, CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    fingerprint_recomputes: AtomicU64,
}

/// A cached album plus the fingerprint memo: `fp` is the query's
/// predicate-epoch fingerprint as of store epoch `fp_epoch`, so a view
/// at an unchanged epoch skips the per-predicate recomputation.
#[derive(Debug)]
struct CacheEntry {
    album: MaterializedAlbum,
    fp_epoch: u64,
    fp: u64,
}

impl AlbumCache {
    /// An empty cache.
    pub fn new() -> AlbumCache {
        AlbumCache::default()
    }

    /// Serves an album view: a fresh materialized album is returned
    /// as-is (hit); a stale one is dropped (invalidation) and, like a
    /// cold view, re-solved and admitted (miss).
    pub fn view(&self, store: &Store, spec: &AlbumSpec) -> Result<Vec<String>, PlatformError> {
        self.view_with(store, spec, |spec| spec.execute(store)).1
    }

    /// [`Self::view`] with a caller-supplied solver for the miss path.
    ///
    /// The solver must answer `spec` over `store` (the epoch
    /// fingerprint admitted with the result is read from `store`);
    /// callers use this to route cold/stale solves through an
    /// instrumented SPARQL entry point instead of the plain engine.
    /// The [`ViewOutcome`] is reported whether or not the solve
    /// succeeded, exactly as the counters are bumped.
    pub fn view_with<F>(
        &self,
        store: &Store,
        spec: &AlbumSpec,
        solve: F,
    ) -> (ViewOutcome, Result<Vec<String>, PlatformError>)
    where
        F: FnOnce(&AlbumSpec) -> Result<Vec<String>, PlatformError>,
    {
        let key = spec.to_sparql();
        let epoch = store.epoch();
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut outcome = ViewOutcome::Cold;
        if let Some(entry) = entries.get_mut(&key) {
            if entry.fp_epoch != epoch {
                entry.fp = fingerprint(spec, store);
                entry.fp_epoch = epoch;
                self.fingerprint_recomputes.fetch_add(1, Ordering::Relaxed);
            }
            if entry.fp == entry.album.valid_for {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (ViewOutcome::Hit, Ok(entry.album.links.clone()));
            }
            entries.remove(&key);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            outcome = ViewOutcome::Stale;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let links = match solve(spec) {
            Ok(links) => links,
            Err(e) => return (outcome, Err(e)),
        };
        let fp = fingerprint(spec, store);
        self.fingerprint_recomputes.fetch_add(1, Ordering::Relaxed);
        entries.insert(
            key,
            CacheEntry {
                album: MaterializedAlbum {
                    links: links.clone(),
                    solved_at: epoch,
                    valid_for: fp,
                },
                fp_epoch: epoch,
                fp,
            },
        );
        (outcome, Ok(links))
    }

    /// Installs an externally maintained answer for `spec` — the live
    /// standing-query engine ([`crate::live`]) patches albums in place
    /// instead of letting a mutation invalidate them, so the next view
    /// is a hit rather than a re-solve. Counts as neither hit nor miss.
    pub fn patch(&self, store: &Store, spec: &AlbumSpec, links: Vec<String>) {
        let epoch = store.epoch();
        let fp = fingerprint(spec, store);
        self.fingerprint_recomputes.fetch_add(1, Ordering::Relaxed);
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(
                spec.to_sparql(),
                CacheEntry {
                    album: MaterializedAlbum {
                        links,
                        solved_at: epoch,
                        valid_for: fp,
                    },
                    fp_epoch: epoch,
                    fp,
                },
            );
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AlbumCacheStats {
        AlbumCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            fingerprint_recomputes: self.fingerprint_recomputes.load(Ordering::Relaxed),
            entries: self.entries.lock().unwrap_or_else(|e| e.into_inner()).len(),
        }
    }

    /// Drops every materialized album (counters are kept).
    pub fn clear(&self) {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

/// The relational-technology baseline: same album semantics computed
/// with scans over the Coppermine tables. Needs the monument's point
/// handed in — the relational platform has no LOD to look it up in,
/// which is precisely the gap the paper's semanticization closes.
pub fn relational_baseline(
    db: &Database,
    monument: Point,
    radius_km: f64,
    friend_of_user_name: Option<&str>,
    order_by_rating: bool,
) -> Result<Vec<String>, PlatformError> {
    let pictures = db.table(cpg::PICTURES)?;
    let users = db.table(cpg::USERS)?;
    let friends = db.table(cpg::FRIENDS)?;
    let votes = db.table(cpg::VOTES)?;

    // Resolve the social filter to a set of allowed makers.
    let allowed_makers: Option<std::collections::BTreeSet<i64>> = match friend_of_user_name {
        None => None,
        Some(name) => {
            let target = users
                .select(|row| row[1].as_text() == Some(name))
                .map(|(uid, _)| uid)
                .next()
                .ok_or_else(|| PlatformError::NotFound(format!("user {name:?}")))?;
            Some(
                friends
                    .select(|row| row[2].as_int() == Some(target))
                    .filter_map(|(_, row)| row[1].as_int())
                    .collect(),
            )
        }
    };

    let mut hits: Vec<(i64, f64)> = Vec::new(); // (pid, avg rating)
    for (pid, row) in pictures.scan() {
        let (Some(lon), Some(lat)) = (row[6].as_real(), row[7].as_real()) else {
            continue;
        };
        let Ok(point) = Point::new(lon, lat) else {
            continue;
        };
        if point.distance_km(monument) > radius_km {
            continue;
        }
        if let Some(allowed) = &allowed_makers {
            let Some(owner) = row[2].as_int() else {
                continue;
            };
            if !allowed.contains(&owner) {
                continue;
            }
        }
        let ratings: Vec<f64> = votes
            .select(|v| v[1].as_int() == Some(pid))
            .filter_map(|(_, v)| v[3].as_real())
            .collect();
        if order_by_rating && ratings.is_empty() {
            // Q3's `?resource rev:rating ?points` pattern drops
            // unrated content; the baseline must match.
            continue;
        }
        let avg = if ratings.is_empty() {
            0.0
        } else {
            ratings.iter().sum::<f64>() / ratings.len() as f64
        };
        hits.push((pid, (avg * 100.0).round() / 100.0));
    }
    if order_by_rating {
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    }
    Ok(hits
        .into_iter()
        .map(|(pid, _)| format!("http://beta.teamlife.it/media/{pid}.jpg"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use lodify_context::Gazetteer;
    use lodify_relational::WorkloadConfig;

    fn platform() -> Platform {
        Platform::bootstrap(WorkloadConfig {
            seed: 7,
            users: 20,
            pictures: 300,
            ..WorkloadConfig::default()
        })
        .unwrap()
    }

    fn mole_point() -> Point {
        let gaz = Gazetteer::global();
        gaz.poi("Mole_Antonelliana").unwrap().point(gaz)
    }

    #[test]
    fn q1_sparql_matches_relational_baseline() {
        let p = platform();
        let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3);
        let mut semantic = spec.execute(p.store()).unwrap();
        let mut baseline = relational_baseline(p.db(), mole_point(), 0.3, None, false).unwrap();
        semantic.sort();
        baseline.sort();
        assert_eq!(semantic, baseline);
        assert!(!semantic.is_empty(), "workload puts pictures near the Mole");
    }

    #[test]
    fn q2_social_filter_restricts_q1() {
        let p = platform();
        let q1 = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3)
            .execute(p.store())
            .unwrap();
        // Pick a user name that exists.
        let users = p.db().table(lodify_relational::coppermine::USERS).unwrap();
        let some_user = users
            .scan()
            .next()
            .and_then(|(_, row)| row[1].as_text().map(str::to_string))
            .unwrap();
        let q2_spec =
            AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3).friends_of(&some_user);
        let mut q2 = q2_spec.execute(p.store()).unwrap();
        assert!(q2.len() <= q1.len());
        let mut baseline =
            relational_baseline(p.db(), mole_point(), 0.3, Some(&some_user), false).unwrap();
        q2.sort();
        baseline.sort();
        assert_eq!(q2, baseline);
    }

    #[test]
    fn q3_orders_by_rating_and_matches_baseline_membership() {
        let p = platform();
        let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.5).rated();
        let semantic = spec.execute(p.store()).unwrap();
        let baseline = relational_baseline(p.db(), mole_point(), 0.5, None, true).unwrap();
        let mut a = semantic.clone();
        let mut b = baseline;
        a.sort();
        b.sort();
        assert_eq!(a, b, "same membership");
        // Ratings are non-increasing along the semantic result.
        let ratings: Vec<f64> = semantic
            .iter()
            .map(|link| {
                let q = format!(
                    "SELECT ?r ?p WHERE {{ ?p comm:image-data <{link}> . ?p rev:rating ?r . }}"
                );
                let res = lodify_sparql::execute(p.store(), &q).unwrap();
                res.column("r")[0].lexical().parse::<f64>().unwrap()
            })
            .collect();
        assert!(
            ratings.windows(2).all(|w| w[0] >= w[1]),
            "not sorted: {ratings:?}"
        );
    }

    #[test]
    fn radius_widening_is_monotone() {
        let p = platform();
        let near = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.1)
            .execute(p.store())
            .unwrap();
        let wide = AlbumSpec::near_monument("Mole Antonelliana", "it", 5.0)
            .execute(p.store())
            .unwrap();
        assert!(near.len() <= wide.len());
    }

    #[test]
    fn limit_caps_results() {
        let p = platform();
        let capped = AlbumSpec::near_monument("Mole Antonelliana", "it", 5.0)
            .limit(2)
            .execute(p.store())
            .unwrap();
        assert!(capped.len() <= 2);
    }

    #[test]
    fn unknown_monument_is_empty_not_error() {
        let p = platform();
        let results = AlbumSpec::near_monument("Nonexistent Monument", "it", 0.3)
            .execute(p.store())
            .unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn baseline_unknown_user_is_error() {
        let p = platform();
        assert!(matches!(
            relational_baseline(p.db(), mole_point(), 0.3, Some("nobody"), false),
            Err(PlatformError::NotFound(_))
        ));
    }

    // ----- materialized album cache -----

    use lodify_rdf::{Literal, Triple};

    /// A minimal hand-built store answering Q1/Q3 near the Mole.
    fn tiny_store() -> (Store, Triple) {
        let mut store = Store::new();
        let g = store.default_graph();
        let mole = mole_point();
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
        let pic = "http://t/pictures/1";
        store.insert(
            &Triple::spo(
                pic,
                ns::iri::rdf_type().as_str(),
                Term::Iri(ns::iri::microblog_post()),
            ),
            g,
        );
        store.insert(
            &Triple::spo(
                pic,
                ns::iri::geo_geometry().as_str(),
                Term::Literal(mole.offset_km(0.05, 0.0).to_literal()),
            ),
            g,
        );
        store.insert(
            &Triple::spo(
                pic,
                ns::iri::image_data().as_str(),
                Term::literal("http://t/media/1.jpg"),
            ),
            g,
        );
        let rating = Triple::spo(
            pic,
            ns::iri::rev_rating().as_str(),
            Term::Literal(Literal::integer(4)),
        );
        store.insert(&rating, g);
        (store, rating)
    }

    #[test]
    fn cache_serves_hits_until_a_relevant_mutation() {
        let (mut store, _) = tiny_store();
        let cache = AlbumCache::new();
        let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3);

        let cold = cache.view(&store, &spec).unwrap();
        assert_eq!(cold, vec!["http://t/media/1.jpg"]);
        let warm = cache.view(&store, &spec).unwrap();
        assert_eq!(warm, cold);
        assert_eq!(
            cache.stats(),
            AlbumCacheStats {
                hits: 1,
                misses: 1,
                invalidations: 0,
                fingerprint_recomputes: 1,
                entries: 1
            }
        );

        // A mutation on a predicate the query reads invalidates.
        let g = store.default_graph();
        store.insert(
            &Triple::spo(
                "http://t/pictures/2",
                ns::iri::image_data().as_str(),
                Term::literal("http://t/media/2.jpg"),
            ),
            g,
        );
        let _ = cache.view(&store, &spec).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn invalidation_is_incremental_per_predicate() {
        let (mut store, _) = tiny_store();
        let cache = AlbumCache::new();
        let q1 = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3);
        let q3 = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3).rated();
        cache.view(&store, &q1).unwrap();
        cache.view(&store, &q3).unwrap();

        // A rating mutation touches only rev:rating — Q3 reads it,
        // Q1 does not.
        let g = store.default_graph();
        store.insert(
            &Triple::spo(
                "http://t/pictures/1",
                ns::iri::rev_rating().as_str(),
                Term::Literal(Literal::integer(5)),
            ),
            g,
        );
        cache.view(&store, &q1).unwrap();
        cache.view(&store, &q3).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, 1, "Q1 stays cached across a rating change");
        assert_eq!(stats.invalidations, 1, "Q3 is re-solved");
    }

    /// Regression (the stats-drift bug class from the durability PR):
    /// `Store::remove` must advance the epoch and fire invalidation,
    /// not just inserts.
    #[test]
    fn cache_invalidation_fires_on_store_remove() {
        let (mut store, rating) = tiny_store();
        let cache = AlbumCache::new();
        let q3 = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3).rated();
        let before = cache.view(&store, &q3).unwrap();
        assert_eq!(before, vec!["http://t/media/1.jpg"]);

        assert!(store.remove(&rating));
        let after = cache.view(&store, &q3).unwrap();
        assert!(
            after.is_empty(),
            "removing the rating drops the picture from Q3"
        );
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn materialized_album_reports_freshness() {
        let (mut store, rating) = tiny_store();
        let q3 = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3).rated();
        let album = MaterializedAlbum::solve(&q3, &store).unwrap();
        assert_eq!(album.solved_at, store.epoch());
        assert!(album.is_fresh(&q3, &store));
        store.remove(&rating);
        assert!(!album.is_fresh(&q3, &store));
    }

    /// Satellite regression: the predicate-epoch fingerprint is
    /// memoized per store epoch — warm views at an unchanged epoch do
    /// not rescan the spec's predicates.
    #[test]
    fn fingerprint_is_memoized_per_store_epoch() {
        let (mut store, _) = tiny_store();
        let cache = AlbumCache::new();
        let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3);

        cache.view(&store, &spec).unwrap();
        assert_eq!(cache.stats().fingerprint_recomputes, 1, "cold admit");
        for _ in 0..10 {
            cache.view(&store, &spec).unwrap();
        }
        assert_eq!(
            cache.stats().fingerprint_recomputes,
            1,
            "warm views reuse the memo"
        );

        // Any epoch bump (even on an irrelevant predicate) costs
        // exactly one recomputation on the next view.
        let g = store.default_graph();
        store.insert(
            &Triple::spo(
                "http://t/pictures/1",
                ns::iri::foaf_maker().as_str(),
                Term::literal("nobody"),
            ),
            g,
        );
        cache.view(&store, &spec).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.fingerprint_recomputes, 2);
        assert_eq!(stats.hits, 11, "irrelevant predicate: still a hit");
    }

    /// A patched entry serves subsequent views as hits — the live
    /// engine's contract for skipping invalidation entirely.
    #[test]
    fn patched_entry_is_served_as_a_hit() {
        let (mut store, _) = tiny_store();
        let cache = AlbumCache::new();
        let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3);
        cache.view(&store, &spec).unwrap();

        // Mutate, then patch the maintained answer in place.
        let g = store.default_graph();
        store.insert(
            &Triple::spo(
                "http://t/pictures/2",
                ns::iri::image_data().as_str(),
                Term::literal("http://t/media/2.jpg"),
            ),
            g,
        );
        let fresh = spec.execute(&store).unwrap();
        cache.patch(&store, &spec, fresh.clone());

        let served = cache.view(&store, &spec).unwrap();
        assert_eq!(served, fresh);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidations), (1, 1, 0));
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let (store, _) = tiny_store();
        let cache = AlbumCache::new();
        let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3);
        cache.view(&store, &spec).unwrap();
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 1);
    }
}
