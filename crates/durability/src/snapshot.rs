//! Snapshot segments: a compact, self-contained image of the store.
//!
//! A snapshot is a stream of codec frames — header, graph
//! declarations, dictionary entries, insert records, the metas of every
//! commit folded in (as delta-free [`Record::Commit`] frames), footer —
//! written as one segment. Validity is structural: the segment must parse
//! frame-by-frame to a footer whose counters match the header. A
//! crash mid-snapshot therefore leaves an *invalid* segment and
//! recovery falls back to the previous generation, whose files are
//! only deleted once the new segment is durable.
//!
//! Recovery replays `snapshot + WAL tail` instead of the full journal
//! history; the footer's `last_seq` tells the replayer which WAL
//! records the snapshot already covers.

use std::collections::HashMap;

use lodify_rdf::Term;
use lodify_store::store::Store;
use lodify_store::TermId;

use crate::codec::{put_frame, read_frame, FrameOutcome, Record};
use crate::error::DurabilityError;

/// Decoded snapshot contents.
#[derive(Debug)]
pub struct SnapshotImage {
    /// Highest acknowledged journal sequence covered by the snapshot.
    pub last_seq: u64,
    /// Graph names in wire-gid order.
    pub graphs: Vec<String>,
    /// Terms in wire-id order (ids are dense).
    pub terms: Vec<Term>,
    /// Statements as `(s, p, o, gid)` wire ids.
    pub triples: Vec<(u64, u64, u64, u16)>,
    /// The non-empty metas of the commits folded in, in commit order.
    pub metas: Vec<Vec<u8>>,
}

/// Encodes the full store as a snapshot segment covering journal
/// records up to `last_seq`, carrying the `metas` of the commits it
/// folds in. Returns the segment bytes and the wire dictionary (terms
/// in wire-id order) the tail journal continues from.
pub fn encode_snapshot(store: &Store, last_seq: u64, metas: &[Vec<u8>]) -> (Vec<u8>, Vec<Term>) {
    // Pass 1: wire-intern every term reachable from a statement, in
    // first-use order, so ids are dense and the dictionary section is
    // exactly the terms the triple section references.
    let mut wire_of: HashMap<TermId, u64> = HashMap::new();
    let mut wire_terms: Vec<Term> = Vec::new();
    let mut triples: Vec<(u64, u64, u64, u16)> = Vec::with_capacity(store.len());
    let mut intern = |store: &Store, id: TermId, wire_terms: &mut Vec<Term>| -> u64 {
        if let Some(&wid) = wire_of.get(&id) {
            return wid;
        }
        let wid = wire_terms.len() as u64;
        wire_terms.push(store.term_of(id).expect("dict id from index").clone());
        wire_of.insert(id, wid);
        wid
    };
    for (s, p, o) in store.match_ids(None, None, None) {
        let ws = intern(store, s, &mut wire_terms);
        let wp = intern(store, p, &mut wire_terms);
        let wo = intern(store, o, &mut wire_terms);
        let gid = store
            .graph_of_subject(s)
            .unwrap_or_else(|| store.default_graph());
        triples.push((ws, wp, wo, gid.0));
    }
    let graphs: Vec<&str> = store.graph_names().collect();

    // Pass 2: emit frames. Snapshot frames carry seq 0 — ordering
    // within the segment is positional, not sequential.
    let header = Record::SnapshotHeader {
        last_seq,
        graphs: graphs.len() as u64,
        terms: wire_terms.len() as u64,
        triples: triples.len() as u64,
        commits: metas.len() as u64,
    };
    let graphs = graphs
        .iter()
        .enumerate()
        .map(|(gid, name)| Record::GraphDecl {
            gid: gid as u16,
            name: (*name).to_string(),
        });
    let dictionary = wire_terms
        .iter()
        .enumerate()
        .map(|(id, term)| Record::DictAdd {
            id: id as u64,
            term: term.clone(),
        });
    let inserts = triples
        .iter()
        .map(|&(s, p, o, gid)| Record::Insert { s, p, o, gid });
    let metas = metas.iter().map(|meta| Record::meta_only(meta.clone()));
    let mut out = Vec::new();
    let mut records = 0u64;
    for record in std::iter::once(header)
        .chain(graphs)
        .chain(dictionary)
        .chain(inserts)
        .chain(metas)
    {
        put_frame(&mut out, 0, &record);
        records += 1;
    }
    put_frame(&mut out, 0, &Record::SnapshotFooter { last_seq, records });
    (out, wire_terms)
}

/// Decodes and validates a snapshot segment. Any structural defect —
/// torn tail, CRC failure, missing footer, counter mismatch — is an
/// error: snapshots are all-or-nothing.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotImage, DurabilityError> {
    let invalid = |what: &str| DurabilityError::Codec(format!("invalid snapshot: {what}"));

    let mut offset = 0usize;
    let mut next = || -> Result<Option<Record>, DurabilityError> {
        match read_frame(bytes, offset) {
            FrameOutcome::Frame { record, next, .. } => {
                offset = next;
                Ok(Some(record))
            }
            FrameOutcome::End => Ok(None),
            FrameOutcome::Truncated { .. } => Err(invalid("truncated segment")),
            FrameOutcome::Corrupt { reason, .. } => Err(invalid(&reason)),
        }
    };

    let Some(Record::SnapshotHeader {
        last_seq,
        graphs: n_graphs,
        terms: n_terms,
        triples: n_triples,
        commits: n_commits,
    }) = next()?
    else {
        return Err(invalid("missing header"));
    };

    let mut graphs = Vec::with_capacity(n_graphs.min(1 << 16) as usize);
    let mut terms = Vec::with_capacity(n_terms.min(1 << 20) as usize);
    let mut triples = Vec::with_capacity(n_triples.min(1 << 20) as usize);
    let mut metas = Vec::with_capacity(n_commits.min(1 << 20) as usize);
    let mut records = 1u64;
    loop {
        let record = next()?.ok_or_else(|| invalid("missing footer"))?;
        match record {
            Record::GraphDecl { gid, name } => {
                if u64::from(gid) != graphs.len() as u64 {
                    return Err(invalid("graph ids out of order"));
                }
                graphs.push(name);
            }
            Record::DictAdd { id, term } => {
                if id != terms.len() as u64 {
                    return Err(invalid("dictionary ids out of order"));
                }
                terms.push(term);
            }
            Record::Insert { s, p, o, gid } => triples.push((s, p, o, gid)),
            Record::SnapshotFooter {
                last_seq: foot_seq,
                records: foot_records,
            } => {
                if foot_seq != last_seq {
                    return Err(invalid("footer seq mismatch"));
                }
                if foot_records != records {
                    return Err(invalid("footer record count mismatch"));
                }
                if next()?.is_some() {
                    return Err(invalid("trailing frames after footer"));
                }
                break;
            }
            Record::Commit {
                meta,
                graphs,
                terms,
                inserts,
                removes,
                ..
            } if graphs.len() + terms.len() + inserts.len() + removes.len() == 0 => {
                metas.push(meta)
            }
            Record::Commit { .. } => return Err(invalid("commit delta in snapshot")),
            Record::SnapshotHeader { .. } => return Err(invalid("duplicate header")),
        }
        records += 1;
    }
    if graphs.len() as u64 != n_graphs
        || terms.len() as u64 != n_terms
        || triples.len() as u64 != n_triples
        || metas.len() as u64 != n_commits
    {
        return Err(invalid("section counts disagree with header"));
    }
    Ok(SnapshotImage {
        last_seq,
        graphs,
        terms,
        triples,
        metas,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_rdf::{Literal, Point, Triple};

    fn sample_store() -> Store {
        let mut store = Store::new();
        let ugc = store.graph("urn:g:ugc");
        store.insert(
            &Triple::spo(
                "http://t/pic1",
                "http://www.w3.org/2000/01/rdf-schema#label",
                Term::Literal(Literal::lang("Mole Antonelliana", "it").unwrap()),
            ),
            ugc,
        );
        store.insert(
            &Triple::spo(
                "http://t/pic1",
                "http://www.opengis.net/ont/geosparql#geometry",
                Term::Literal(Point::new(7.6933, 45.0692).unwrap().to_literal()),
            ),
            ugc,
        );
        store
    }

    #[test]
    fn snapshot_round_trips() {
        let store = sample_store();
        let (bytes, wire_terms) = encode_snapshot(&store, 17, &[b"meta".to_vec()]);
        let image = decode_snapshot(&bytes).unwrap();
        assert_eq!(image.last_seq, 17);
        assert_eq!(image.graphs[0], lodify_store::DEFAULT_GRAPH);
        assert!(image.graphs.contains(&"urn:g:ugc".to_string()));
        assert_eq!(image.terms, wire_terms);
        assert_eq!(image.triples.len(), store.len());
        assert_eq!(image.metas, vec![b"meta".to_vec()]);
    }

    #[test]
    fn any_truncation_invalidates_the_segment() {
        let store = sample_store();
        let (bytes, _) = encode_snapshot(&store, 3, &[]);
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "cut at {cut} must invalidate"
            );
        }
        assert!(decode_snapshot(&bytes).is_ok());
    }

    #[test]
    fn corruption_invalidates_the_segment() {
        let store = sample_store();
        let (mut bytes, _) = encode_snapshot(&store, 3, &[]);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(decode_snapshot(&bytes).is_err());
    }

    #[test]
    fn empty_store_snapshots_cleanly() {
        let store = Store::new();
        let (bytes, wire_terms) = encode_snapshot(&store, 0, &[]);
        assert!(wire_terms.is_empty());
        let image = decode_snapshot(&bytes).unwrap();
        assert_eq!(image.triples.len(), 0);
        assert_eq!(image.graphs.len(), 1, "default graph only");
    }
}
