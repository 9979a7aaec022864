//! The "About" mashup (§4.1, Figure 4).
//!
//! "With this query, starting from a picture sent to our system by the
//! tourist and its semantic location information, useful information is
//! retrieved for the user such as the description (from DBpedia) of
//! the city where the tourist is, the restaurants (and their websites)
//! near the user's location and other touristic attractions in the
//! vicinity … and other UGC content taken in the same location from
//! other users."
//!
//! [`MashupService::about`] runs the four arms as separate queries and
//! returns a structured result; [`MashupService::combined_query`]
//! renders the single 4-arm UNION query in the paper's own shape (each
//! arm a `{ SELECT … LIMIT 5 }` subselect) and
//! [`MashupService::about_combined`] executes it.
//!
//! Radii note: the paper passes Virtuoso precisions of 1 / 0.3 / 1 /
//! 0.2 in SRS units; our `bif:st_intersects` takes kilometers, so the
//! constants below keep the *relative* ordering (city ≫ tourism ≈
//! restaurants > UGC) at our synthetic data's scale.

use lodify_rdf::Iri;
use lodify_sparql::QueryResults;
use lodify_store::Store;

use crate::error::PlatformError;
use crate::search::resource_point;

// Per-arm radii (see the radii note above).
const CITY_RADIUS_KM: f64 = 30.0;
const RESTAURANT_RADIUS_KM: f64 = 1.0;
const TOURISM_RADIUS_KM: f64 = 1.5;
const UGC_RADIUS_KM: f64 = 0.3;
/// Abstract language (the paper filters `lang(?desc)` to `'it'`).
const ABSTRACT_LANG: &str = "it";
/// Per-arm LIMIT (the paper uses 5).
const PER_ARM_LIMIT: usize = 5;

/// One nearby place row.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceInfo {
    /// Label.
    pub label: String,
    /// Website or description, when available.
    pub detail: Option<String>,
}

/// Structured mashup result.
#[derive(Debug, Clone, Default)]
pub struct MashupResult {
    /// City label + abstract from DBpedia.
    pub city: Option<(String, String)>,
    /// Nearby restaurants (label, website).
    pub restaurants: Vec<PlaceInfo>,
    /// Nearby touristic attractions.
    pub attractions: Vec<PlaceInfo>,
    /// Other UGC media links taken at the same location.
    pub related_content: Vec<String>,
}

/// Runs mashup queries for a picture.
#[derive(Debug, Clone, Default)]
pub struct MashupService;

impl MashupService {
    /// Service with the paper's radii, language and per-arm limit.
    pub fn standard() -> MashupService {
        MashupService
    }

    /// Builds the structured mashup for a picture resource.
    pub fn about(&self, store: &Store, picture: &Iri) -> Result<MashupResult, PlatformError> {
        let Some(location) = resource_point(store, picture) else {
            return Ok(MashupResult::default());
        };
        let wkt = location.to_wkt();

        // Arm 1 — city description from DBpedia, joined through the
        // LinkedGeoData city node exactly like the paper's query.
        let city_q = format!(
            r#"SELECT DISTINCT ?lbl ?desc WHERE {{
                 ?city a lgdo:City .
                 ?city geo:geometry ?locCity .
                 ?city rdfs:label ?lbl .
                 ?others rdfs:label ?lbl .
                 ?others dbpo:abstract ?desc .
                 ?others a dbpo:Place .
                 FILTER langMatches(lang(?lbl), '{lang}') .
                 FILTER langMatches(lang(?desc), '{lang}') .
                 FILTER( bif:st_intersects( "{wkt}", ?locCity, {r} ) ) .
               }} LIMIT {limit}"#,
            lang = ABSTRACT_LANG,
            r = CITY_RADIUS_KM,
            limit = PER_ARM_LIMIT,
        );
        let city = lodify_sparql::execute(store, &city_q)?
            .iter()
            .next()
            .and_then(|row| {
                Some((
                    row.get("lbl")?.lexical().to_string(),
                    row.get("desc")?.lexical().to_string(),
                ))
            });

        let restaurants = self.places(store, &wkt, "lgdo:Restaurant", RESTAURANT_RADIUS_KM)?;
        let attractions = self.places(store, &wkt, "lgdo:Tourism", TOURISM_RADIUS_KM)?;

        // Arm 4 — other UGC at the same spot.
        let ugc_q = format!(
            r#"SELECT DISTINCT ?link WHERE {{
                 ?others a sioct:MicroblogPost .
                 ?others geo:geometry ?location .
                 ?others comm:image-data ?link .
                 FILTER( bif:st_intersects( "{wkt}", ?location, {r} ) ) .
               }} LIMIT {limit}"#,
            r = UGC_RADIUS_KM,
            limit = PER_ARM_LIMIT + 1, // the picture itself may appear
        );
        let own_link_q = format!(
            "SELECT ?l WHERE {{ <{}> comm:image-data ?l . }}",
            picture.as_str()
        );
        let own_link: Option<String> = lodify_sparql::execute(store, &own_link_q)?
            .column("l")
            .first()
            .map(|t| t.lexical().to_string());
        let related_content: Vec<String> = lodify_sparql::execute(store, &ugc_q)?
            .column("link")
            .into_iter()
            .map(|t| t.lexical().to_string())
            .filter(|l| Some(l) != own_link.as_ref())
            .take(PER_ARM_LIMIT)
            .collect();

        Ok(MashupResult {
            city,
            restaurants,
            attractions,
            related_content,
        })
    }

    fn places(
        &self,
        store: &Store,
        wkt: &str,
        class: &str,
        radius: f64,
    ) -> Result<Vec<PlaceInfo>, PlatformError> {
        let q = format!(
            r#"SELECT DISTINCT ?lbl ?desc WHERE {{
                 ?others a ?entType .
                 ?others geo:geometry ?location .
                 ?others rdfs:label ?lbl .
                 OPTIONAL {{ ?others <http://linkedgeodata.org/property/website> ?desc }}
                 FILTER (?entType in ({class})) .
                 FILTER( bif:st_intersects( "{wkt}", ?location, {radius} ) ) .
               }} LIMIT {limit}"#,
            limit = PER_ARM_LIMIT,
        );
        Ok(lodify_sparql::execute(store, &q)?
            .iter()
            .filter_map(|row| {
                Some(PlaceInfo {
                    label: row.get("lbl")?.lexical().to_string(),
                    detail: row.get("desc").map(|t| t.lexical().to_string()),
                })
            })
            .collect())
    }

    /// Renders the paper's single 4-arm UNION query for a picture.
    pub fn combined_query(&self, picture: &Iri) -> String {
        format!(
            r#"SELECT DISTINCT ?lbl ?entType ?desc ?others WHERE {{
  {{ SELECT DISTINCT ?lbl ?entType ?desc ?others WHERE {{
       <{pid}> geo:geometry ?locPID .
       ?city geo:geometry ?locCity .
       ?city a ?entType .
       ?city rdfs:label ?lbl .
       ?others rdfs:label ?lbl .
       ?others dbpo:abstract ?desc .
       ?others a dbpo:Place .
       FILTER (?entType in (lgdo:City)) .
       FILTER langMatches(lang(?desc), '{lang}') .
       FILTER( bif:st_intersects( ?locPID, ?locCity, {city_r} ) ) .
  }} LIMIT {limit} }}
  UNION
  {{ SELECT DISTINCT ?lbl ?entType ?desc ?others WHERE {{
       <{pid}> geo:geometry ?locPID .
       ?others geo:geometry ?location .
       ?others a ?entType .
       ?others rdfs:label ?lbl .
       OPTIONAL {{ ?others <http://linkedgeodata.org/property/website> ?desc }}
       FILTER (?entType in (lgdo:Restaurant)) .
       FILTER( bif:st_intersects( ?locPID, ?location, {rest_r} ) ) .
  }} LIMIT {limit} }}
  UNION
  {{ SELECT DISTINCT ?lbl ?entType ?desc ?others WHERE {{
       <{pid}> geo:geometry ?locPID .
       ?others geo:geometry ?location .
       ?others a ?entType .
       ?others rdfs:label ?lbl .
       OPTIONAL {{ ?others <http://linkedgeodata.org/property/website> ?desc }}
       FILTER (?entType in (lgdo:Tourism)) .
       FILTER( bif:st_intersects( ?locPID, ?location, {tour_r} ) ) .
  }} LIMIT {limit} }}
  UNION
  {{ SELECT DISTINCT ?lbl ?entType ?desc ?others WHERE {{
       <{pid}> geo:geometry ?locPID .
       ?others geo:geometry ?location .
       ?others a ?entType .
       ?others rdfs:label ?lbl .
       ?others comm:image-data ?desc .
       FILTER (?entType in (sioct:MicroblogPost)) .
       FILTER( bif:st_intersects( ?locPID, ?location, {ugc_r} ) ) .
  }} LIMIT {limit} }}
}}"#,
            pid = picture.as_str(),
            lang = ABSTRACT_LANG,
            city_r = CITY_RADIUS_KM,
            rest_r = RESTAURANT_RADIUS_KM,
            tour_r = TOURISM_RADIUS_KM,
            ugc_r = UGC_RADIUS_KM,
            limit = PER_ARM_LIMIT,
        )
    }

    /// Executes the combined query verbatim.
    pub fn about_combined(
        &self,
        store: &Store,
        picture: &Iri,
    ) -> Result<QueryResults, PlatformError> {
        Ok(lodify_sparql::execute(
            store,
            &self.combined_query(picture),
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{Platform, Upload};
    use lodify_context::Gazetteer;
    use lodify_relational::WorkloadConfig;

    fn platform_with_mole_picture() -> (Platform, Iri) {
        let mut p = Platform::bootstrap(WorkloadConfig {
            seed: 3,
            users: 15,
            pictures: 200,
            ..WorkloadConfig::default()
        })
        .unwrap();
        let gaz = Gazetteer::global();
        let mole = gaz.poi("Mole_Antonelliana").unwrap().point(gaz);
        let receipt = p
            .upload(Upload {
                user_id: 1,
                title: "La Mole di sera".into(),
                tags: vec!["torino".into()],
                ts: 1_320_700_000,
                gps: Some(mole.offset_km(0.02, 0.02)),
                poi: None,
            })
            .unwrap();
        (p, receipt.resource)
    }

    #[test]
    fn structured_mashup_has_all_four_arms() {
        let (p, pic) = platform_with_mole_picture();
        let mashup = MashupService::standard().about(p.store(), &pic).unwrap();

        let (city_label, city_abstract) = mashup.city.expect("city arm");
        assert!(
            city_label.contains("Torino") || city_label.contains("Turin"),
            "{city_label}"
        );
        assert!(!city_abstract.is_empty());

        // Caffè Mole sits ~50 m from the Mole; Del Cambio ~600 m — but
        // only restaurants/hotels carry websites; cafés may lack detail.
        assert!(
            mashup.restaurants.iter().any(|r| r.label == "Del Cambio"),
            "{:?}",
            mashup.restaurants
        );
        assert!(
            mashup
                .attractions
                .iter()
                .any(|a| a.label == "Mole Antonelliana"),
            "{:?}",
            mashup.attractions
        );
        // The workload scatters plenty of Mole pictures nearby.
        assert!(!mashup.related_content.is_empty());
        assert!(mashup.related_content.len() <= 5);
    }

    #[test]
    fn restaurants_carry_websites() {
        let (p, pic) = platform_with_mole_picture();
        let mashup = MashupService::standard().about(p.store(), &pic).unwrap();
        let cambio = mashup
            .restaurants
            .iter()
            .find(|r| r.label == "Del Cambio")
            .expect("restaurant found");
        assert!(cambio
            .detail
            .as_deref()
            .unwrap_or("")
            .contains("example.com"));
    }

    #[test]
    fn own_picture_excluded_from_related_content() {
        let (p, pic) = platform_with_mole_picture();
        let own_link_q = format!(
            "SELECT ?l WHERE {{ <{}> comm:image-data ?l . }}",
            pic.as_str()
        );
        let own = p.query(&own_link_q).unwrap().column("l")[0]
            .lexical()
            .to_string();
        let mashup = MashupService::standard().about(p.store(), &pic).unwrap();
        assert!(!mashup.related_content.contains(&own));
    }

    #[test]
    fn combined_union_query_parses_and_returns_rows() {
        let (p, pic) = platform_with_mole_picture();
        let service = MashupService::standard();
        let results = service.about_combined(p.store(), &pic).unwrap();
        assert!(!results.is_empty());
        assert_eq!(results.vars, vec!["lbl", "entType", "desc", "others"]);
        // Rows from at least three distinct entity types (city,
        // tourism, UGC are guaranteed by the fixture).
        let types: std::collections::HashSet<String> = results
            .iter()
            .filter_map(|row| row.get("entType").map(|t| t.lexical().to_string()))
            .collect();
        assert!(types.len() >= 3, "{types:?}");
    }

    #[test]
    fn picture_without_gps_yields_empty_mashup() {
        let mut p = Platform::bootstrap(WorkloadConfig::small(5)).unwrap();
        let receipt = p
            .upload(Upload {
                user_id: 1,
                title: "indoor shot".into(),
                tags: vec!["indoor".into()],
                ts: 0,
                gps: None,
                poi: None,
            })
            .unwrap();
        let mashup = MashupService::standard()
            .about(p.store(), &receipt.resource)
            .unwrap();
        assert!(mashup.city.is_none());
        assert!(mashup.restaurants.is_empty());
        assert!(mashup.related_content.is_empty());
    }
}
