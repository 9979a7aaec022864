//! The platform delta: what one commit changes outside the triple
//! store, carried as the opaque `meta` of the commit's one WAL record.
//!
//! The paper's platform is relational at the source — Coppermine rows
//! that D2R maps to RDF (§2.1). A commit therefore changes more than
//! the store: it inserts rows, indexes tags, records an annotation
//! result, moves a user's last-seen position and, on an
//! emission-enabled platform, spends an outbox sequence number. A
//! [`PlatformDelta`] holds exactly what that takes, so the live commit
//! and crash recovery run the same `Platform::apply` over it and a
//! restart cannot change what the platform serves. Context tags travel
//! in wire form, so replay never re-runs context analysis.

use std::sync::OnceLock;

use lodify_durability::codec::{get_list, get_str, get_varint, put_str, put_varint};
use lodify_durability::DurabilityError;
use lodify_lod::annotator::{BuddyExternalLink, TermAnnotation};
use lodify_lod::resolvers::{Candidate, SourceGraph};
use lodify_lod::{AnnotationResult, SemanticBroker};
use lodify_obs::TraceContext;
use lodify_rdf::Iri;
use lodify_relational::SqlValue;
use lodify_text::langdetect::LanguageDetector;

use crate::error::PlatformError;

/// What one platform commit changes outside the triple store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlatformDelta {
    /// Relational rows the commit inserts, as `(table, row)`.
    pub rows: Vec<(String, Vec<SqlValue>)>,
    /// The annotation result the commit records, with its picture id.
    pub annotation: Option<(i64, AnnotationResult)>,
    /// The upload's context triple tags, as `TripleTag::to_wire`
    /// strings; they index under the picture row the commit inserts.
    pub context_tags: Vec<String>,
    /// Emission provenance, when the platform emits.
    pub emission: Option<Provenance>,
}

/// Where an emission came from: enough to rebuild it, with the store
/// delta of the same WAL record, after a restart.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Store epoch the commit applied to; the emission carries the
    /// epoch after it (this plus the statements it changed).
    pub epoch: u64,
    /// Topical album tag, if the commit was scoped to one.
    pub album: Option<String>,
    /// Causal trace context of the commit.
    pub trace: Option<TraceContext>,
}

type Result<T> = std::result::Result<T, DurabilityError>;

fn bad(what: impl Into<String>) -> DurabilityError {
    DurabilityError::Codec(what.into())
}

fn put_opt<T>(out: &mut Vec<u8>, value: Option<&T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match value {
        Some(value) => {
            out.push(1);
            put(out, value);
        }
        None => out.push(0),
    }
}

fn get_byte(bytes: &[u8], cursor: &mut usize) -> Result<u8> {
    let &b = bytes
        .get(*cursor)
        .ok_or_else(|| bad("platform delta truncated"))?;
    *cursor += 1;
    Ok(b)
}

fn get_opt<T>(
    bytes: &[u8],
    cursor: &mut usize,
    get: impl FnOnce(&[u8], &mut usize) -> Result<T>,
) -> Result<Option<T>> {
    match get_byte(bytes, cursor)? {
        0 => Ok(None),
        1 => get(bytes, cursor).map(Some),
        other => Err(bad(format!("option tag {other}"))),
    }
}

fn put_list<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_varint(out, items.len() as u64);
    for item in items {
        put(out, item);
    }
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn get_i64(bytes: &[u8], cursor: &mut usize) -> Result<i64> {
    let z = get_varint(bytes, cursor)?;
    Ok((z >> 1) as i64 ^ -((z & 1) as i64))
}

fn get_usize(bytes: &[u8], cursor: &mut usize) -> Result<usize> {
    usize::try_from(get_varint(bytes, cursor)?).map_err(|_| bad("count exceeds usize"))
}

fn put_iri(out: &mut Vec<u8>, iri: &Iri) {
    put_str(out, iri.as_str());
}

fn get_iri(bytes: &[u8], cursor: &mut usize) -> Result<Iri> {
    Iri::new(get_str(bytes, cursor)?).map_err(|e| bad(e.to_string()))
}

/// The `'static` names an annotation result can hold — detected
/// languages and resolver names — resolved back from their text.
fn get_static(bytes: &[u8], cursor: &mut usize) -> Result<&'static str> {
    static KNOWN: OnceLock<Vec<&'static str>> = OnceLock::new();
    let known = KNOWN.get_or_init(|| {
        let mut names = LanguageDetector::global().languages();
        names.extend(SemanticBroker::standard().resolver_names());
        names
    });
    let name = get_str(bytes, cursor)?;
    known
        .iter()
        .find(|known| **known == name)
        .copied()
        .ok_or_else(|| bad(format!("unknown name {name:?}")))
}

fn put_graph(out: &mut Vec<u8>, graph: &SourceGraph) {
    out.push(match graph {
        SourceGraph::Geonames => 0,
        SourceGraph::DBpedia => 1,
        SourceGraph::Evri => 2,
        SourceGraph::Other => 3,
    });
}

fn get_graph(bytes: &[u8], cursor: &mut usize) -> Result<SourceGraph> {
    match get_byte(bytes, cursor)? {
        0 => Ok(SourceGraph::Geonames),
        1 => Ok(SourceGraph::DBpedia),
        2 => Ok(SourceGraph::Evri),
        3 => Ok(SourceGraph::Other),
        other => Err(bad(format!("source graph tag {other}"))),
    }
}

fn put_value(out: &mut Vec<u8>, value: &SqlValue) {
    match value {
        SqlValue::Null => out.push(0),
        SqlValue::Int(v) => {
            out.push(1);
            put_i64(out, *v);
        }
        SqlValue::Real(v) => {
            out.push(2);
            put_varint(out, v.to_bits());
        }
        SqlValue::Text(v) => {
            out.push(3);
            put_str(out, v);
        }
        SqlValue::Bool(v) => out.extend([4, u8::from(*v)]),
    }
}

fn get_value(bytes: &[u8], cursor: &mut usize) -> Result<SqlValue> {
    Ok(match get_byte(bytes, cursor)? {
        0 => SqlValue::Null,
        1 => SqlValue::Int(get_i64(bytes, cursor)?),
        2 => SqlValue::Real(f64::from_bits(get_varint(bytes, cursor)?)),
        3 => SqlValue::Text(get_str(bytes, cursor)?),
        4 => SqlValue::Bool(get_byte(bytes, cursor)? != 0),
        other => return Err(bad(format!("sql value tag {other}"))),
    })
}

fn put_candidate(out: &mut Vec<u8>, c: &Candidate) {
    put_iri(out, &c.resource);
    put_str(out, &c.label);
    put_graph(out, &c.graph);
    put_varint(out, c.score.to_bits());
    put_list(out, &c.types, put_iri);
    put_str(out, c.resolver);
}

fn get_candidate(bytes: &[u8], cursor: &mut usize) -> Result<Candidate> {
    Ok(Candidate {
        resource: get_iri(bytes, cursor)?,
        label: get_str(bytes, cursor)?,
        graph: get_graph(bytes, cursor)?,
        score: f64::from_bits(get_varint(bytes, cursor)?),
        types: get_list(bytes, cursor, get_iri)?,
        resolver: get_static(bytes, cursor)?,
    })
}

fn put_annotation(out: &mut Vec<u8>, a: &AnnotationResult) {
    put_opt(out, a.language.as_ref(), |out, l| put_str(out, l));
    put_opt(out, a.location.as_ref(), put_iri);
    put_list(out, &a.buddies, put_iri);
    put_list(out, &a.buddy_external, |out, link| {
        put_str(out, &link.full_name);
        put_list(out, &link.candidates, put_candidate);
    });
    put_opt(out, a.poi.as_ref(), put_iri);
    put_list(out, &a.terms, |out, t| {
        put_str(out, &t.term);
        put_opt(out, t.resource.as_ref(), put_iri);
        put_opt(out, t.graph.as_ref(), put_graph);
        put_varint(out, t.candidates_considered as u64);
        put_varint(out, t.survivors as u64);
    });
    put_varint(out, a.resolver_failures as u64);
    put_list(out, &a.degraded, |out, d| put_str(out, d));
}

fn get_annotation(bytes: &[u8], cursor: &mut usize) -> Result<AnnotationResult> {
    Ok(AnnotationResult {
        language: get_opt(bytes, cursor, get_static)?,
        location: get_opt(bytes, cursor, get_iri)?,
        buddies: get_list(bytes, cursor, get_iri)?,
        buddy_external: get_list(bytes, cursor, |b, c| {
            Ok(BuddyExternalLink {
                full_name: get_str(b, c)?,
                candidates: get_list(b, c, get_candidate)?,
            })
        })?,
        poi: get_opt(bytes, cursor, get_iri)?,
        terms: get_list(bytes, cursor, |b, c| {
            Ok(TermAnnotation {
                term: get_str(b, c)?,
                resource: get_opt(b, c, get_iri)?,
                graph: get_opt(b, c, get_graph)?,
                candidates_considered: get_usize(b, c)?,
                survivors: get_usize(b, c)?,
            })
        })?,
        resolver_failures: get_usize(bytes, cursor)?,
        degraded: get_list(bytes, cursor, get_static)?,
    })
}

impl PlatformDelta {
    /// The binary form stored as the commit's WAL meta.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        put_list(&mut out, &self.rows, |out, (table, row)| {
            put_str(out, table);
            put_list(out, row, put_value);
        });
        put_opt(&mut out, self.annotation.as_ref(), |out, (pid, result)| {
            put_i64(out, *pid);
            put_annotation(out, result);
        });
        put_list(&mut out, &self.context_tags, |out, tag| put_str(out, tag));
        put_opt(&mut out, self.emission.as_ref(), |out, p| {
            put_varint(out, p.epoch);
            put_opt(out, p.album.as_ref(), |out, album| put_str(out, album));
            put_opt(out, p.trace.as_ref(), |out, t| {
                put_varint(out, t.trace_id);
                put_varint(out, t.parent_span_id);
            });
        });
        out
    }

    /// Decodes [`PlatformDelta::encode`]'s output. Hostile bytes give
    /// an error, never a panic, and no count pre-allocates more than
    /// 1,024 slots.
    pub fn decode(bytes: &[u8]) -> std::result::Result<PlatformDelta, PlatformError> {
        let cursor = &mut 0usize;
        let delta = PlatformDelta {
            rows: get_list(bytes, cursor, |b, c| {
                Ok((get_str(b, c)?, get_list(b, c, get_value)?))
            })?,
            annotation: get_opt(bytes, cursor, |b, c| {
                Ok((get_i64(b, c)?, get_annotation(b, c)?))
            })?,
            context_tags: get_list(bytes, cursor, get_str)?,
            emission: get_opt(bytes, cursor, |b, c| {
                Ok(Provenance {
                    epoch: get_varint(b, c)?,
                    album: get_opt(b, c, get_str)?,
                    trace: get_opt(b, c, |b, c| {
                        Ok(TraceContext {
                            trace_id: get_varint(b, c)?,
                            parent_span_id: get_varint(b, c)?,
                        })
                    })?,
                })
            })?,
        };
        if *cursor != bytes.len() {
            return Err(bad("trailing bytes after platform delta").into());
        }
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PlatformDelta {
        let iri = |s: &str| Iri::new(s).unwrap();
        PlatformDelta {
            rows: vec![(
                "pictures".into(),
                vec![
                    SqlValue::Int(-7),
                    SqlValue::Real(7.6933),
                    SqlValue::Null,
                    SqlValue::Text("Mole".into()),
                    SqlValue::Bool(true),
                ],
            )],
            annotation: Some((
                251,
                AnnotationResult {
                    language: Some("it"),
                    location: Some(iri("http://sws.geonames.org/3165524/")),
                    buddies: vec![iri("http://tl.example/uid/2")],
                    buddy_external: vec![BuddyExternalLink {
                        full_name: "Walter Goix".into(),
                        candidates: vec![Candidate {
                            resource: iri("http://dbpedia.org/resource/Turin"),
                            label: "Torino".into(),
                            graph: SourceGraph::Other,
                            score: 0.25,
                            types: vec![iri("http://xmlns.com/foaf/0.1/Person")],
                            resolver: "sindice",
                        }],
                    }],
                    poi: None,
                    terms: vec![TermAnnotation {
                        term: "mole".into(),
                        resource: Some(iri("http://dbpedia.org/resource/Mole_Antonelliana")),
                        graph: Some(SourceGraph::DBpedia),
                        candidates_considered: 4,
                        survivors: 1,
                    }],
                    resolver_failures: 1,
                    degraded: vec!["geonames"],
                },
            )),
            context_tags: vec!["address:city=Torino".into()],
            emission: Some(Provenance {
                epoch: 42,
                album: Some("trip".into()),
                trace: Some(TraceContext {
                    trace_id: 9,
                    parent_span_id: 1,
                }),
            }),
        }
    }

    #[test]
    fn platform_delta_round_trips() {
        for delta in [sample(), PlatformDelta::default()] {
            assert_eq!(PlatformDelta::decode(&delta.encode()).unwrap(), delta);
        }
    }

    #[test]
    fn truncated_or_extended_bytes_are_errors() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                PlatformDelta::decode(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        let mut longer = bytes;
        longer.push(0);
        assert!(PlatformDelta::decode(&longer).is_err());
    }
}
