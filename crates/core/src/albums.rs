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
//! # Serving albums
//!
//! A view does not re-run the query: [`crate::live::LiveService`]
//! materialises each viewed album once in the standing-query engine,
//! which patches it on every commit. [`AlbumSpec::execute`] stays the
//! reference the engine is held equal to.

use lodify_rdf::{Literal, Point};
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
}

/// Largest radius an album may have. It bounds the anchor-grid cells
/// the standing-query engine probes per delta.
pub const MAX_RADIUS_KM: f64 = 20.0;

/// Escapes text for a double-quoted SPARQL string literal.
fn escape_literal(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
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
        }
    }

    /// Q2: add the social filter ("created by users who are friends of
    /// user X").
    pub fn friends_of(mut self, user_name: &str) -> AlbumSpec {
        self.friend_of = Some(user_name.to_string());
        self
    }

    /// Q3: order by rating, best first.
    pub fn rated(mut self) -> AlbumSpec {
        self.order_by_rating = true;
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
            label = escape_literal(&self.monument_label),
            lang = self.label_lang,
        );
        if let Some(user) = &self.friend_of {
            body.push_str(&format!(
                "  ?resource foaf:maker ?user .\n  ?friend foaf:name \"{}\" .\n  ?user foaf:knows ?friend .\n",
                escape_literal(user)
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

    /// Checks a spec that came from outside the program: the radius
    /// must be finite, positive and at most [`MAX_RADIUS_KM`], and the
    /// language tag one [`Literal::lang`] accepts.
    pub fn check(&self) -> Result<(), PlatformError> {
        if !(self.radius_km > 0.0 && self.radius_km <= MAX_RADIUS_KM) {
            return Err(PlatformError::Invalid(format!(
                "radius {} km outside (0, {MAX_RADIUS_KM}]",
                self.radius_km
            )));
        }
        Literal::lang(&self.monument_label, &self.label_lang)
            .map_err(|e| PlatformError::Invalid(e.to_string()))?;
        Ok(())
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

    // ----- serving views -----

    use crate::live::{AlbumCacheStats, LiveService};
    use lodify_rdf::{ns, Term, Triple};

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

    /// Regression (the stats-drift bug class from the durability PR):
    /// a committed `Store::remove` must reach a served album, not just
    /// inserts.
    #[test]
    fn cache_invalidation_fires_on_store_remove() {
        let (mut store, rating) = tiny_store();
        let mut live = LiveService::new();
        let q3 = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3).rated();
        let before = live.view(&store, &q3).unwrap();
        assert_eq!(before, vec!["http://t/media/1.jpg"]);

        assert!(store.remove(&rating));
        live.on_commit(&store, &[], std::slice::from_ref(&rating), None);
        let after = live.view(&store, &q3).unwrap();
        assert!(
            after.is_empty(),
            "removing the rating drops the picture from Q3"
        );
        assert_eq!(after, q3.execute(&store).unwrap());
        let stats = live.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let (store, _) = tiny_store();
        let live = LiveService::new();
        let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3);
        live.view(&store, &spec).unwrap();
        live.clear();
        assert_eq!(
            live.cache_stats(),
            AlbumCacheStats {
                hits: 0,
                misses: 1,
                entries: 0
            }
        );
    }

    /// A label with a backslash before a quote must not close the
    /// reference query's literal early: the view and `execute` agree.
    #[test]
    fn to_sparql_escapes_backslashes_quotes_and_line_breaks() {
        let (mut store, _) = tiny_store();
        let label = "x\\\" } #\nline";
        let g = store.default_graph();
        store.insert(
            &Triple::spo(
                "http://dbpedia.org/resource/Mole_Antonelliana",
                ns::iri::rdfs_label().as_str(),
                Term::Literal(Literal::lang(label, "it").unwrap()),
            ),
            g,
        );
        let spec = AlbumSpec::near_monument(label, "it", 0.3);
        let query = spec.to_sparql();
        assert!(query.contains(r#""x\\\" } #\nline"@it"#), "{query}");
        let viewed = LiveService::new().view(&store, &spec).unwrap();
        assert_eq!(viewed, ["http://t/media/1.jpg"]);
        assert_eq!(viewed, spec.execute(&store).unwrap());
        let social = spec.friends_of("a\\\"b").to_sparql();
        assert!(social.contains(r#"foaf:name "a\\\"b""#), "{social}");
    }

    #[test]
    fn check_rejects_radii_and_language_tags_from_outside() {
        let ok = AlbumSpec::near_monument("Mole Antonelliana", "it", MAX_RADIUS_KM);
        assert!(ok.check().is_ok());
        for radius in [
            f64::NAN,
            f64::INFINITY,
            0.0,
            -1.0,
            MAX_RADIUS_KM * 2.0,
            1e300,
        ] {
            let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", radius);
            assert!(
                matches!(spec.check(), Err(PlatformError::Invalid(_))),
                "{radius}"
            );
        }
        for lang in ["", "it x", "it\"", "1t"] {
            let spec = AlbumSpec::near_monument("Mole Antonelliana", lang, 0.3);
            assert!(
                matches!(spec.check(), Err(PlatformError::Invalid(_))),
                "{lang:?}"
            );
        }
    }
}
