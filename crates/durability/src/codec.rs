//! Compact binary codec for journal and snapshot records.
//!
//! Every record travels in a **frame**:
//!
//! ```text
//! ┌───────────┬───────────┬──────────────────────────────┐
//! │ len: u32  │ crc: u32  │ payload (len bytes)          │
//! │ (LE)      │ (LE)      │ = varint(seq) ++ record body │
//! └───────────┴───────────┴──────────────────────────────┘
//! ```
//!
//! `crc` is the IEEE CRC-32 of the payload, so a torn or bit-flipped
//! record is detected rather than replayed. Integers are LEB128
//! varints (dictionary ids are small and dense, triples encode in a
//! handful of bytes); strings are varint-length-prefixed UTF-8. A term
//! is written once — inside the [`Record::Commit`] that first uses it,
//! or as a snapshot's [`Record::DictAdd`] — and referenced by wire id
//! from then on: the *compact* part of the codec.
//!
//! Besides [`Record`] frames the codec also offers *opaque payload*
//! frames ([`put_payload_frame`] / [`read_payload_frame`]) — the same
//! length+CRC envelope around caller-defined bytes. The replication
//! layer's emission journals use these so they share the WAL's
//! corruption detection without consuming record tags.

use lodify_rdf::{BlankNode, Iri, Literal, Term};

use crate::error::DurabilityError;

/// Upper bound on a sane frame payload (guards length-field corruption
/// from triggering huge allocations).
pub const MAX_FRAME_LEN: u32 = 1 << 28;

/// One journal / snapshot record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Registers a named graph under a stable wire id.
    GraphDecl {
        /// Wire graph id (matches [`lodify_store::GraphId`] order).
        gid: u16,
        /// Graph IRI/name.
        name: String,
    },
    /// Adds a term to the wire dictionary.
    DictAdd {
        /// Wire term id (assigned densely in journal order).
        id: u64,
        /// The interned term.
        term: Term,
    },
    /// Inserts a statement (terms by wire id) into a graph.
    Insert {
        /// Subject wire id.
        s: u64,
        /// Predicate wire id.
        p: u64,
        /// Object wire id.
        o: u64,
        /// Wire graph id.
        gid: u16,
    },
    /// One commit — the only record a WAL holds: the graphs and terms
    /// it introduces, its statement delta by wire id (removes apply
    /// before inserts), and an opaque caller payload that the
    /// durability crate stores and returns but never parses. In a
    /// snapshot, a commit with an empty delta carries the meta of a
    /// commit compaction folded in.
    Commit {
        /// Graph declarations, `(wire gid, name)`.
        graphs: Vec<(u16, String)>,
        /// New wire-dictionary entries, `(wire id, term)`.
        terms: Vec<(u64, Term)>,
        /// Inserted statements, `(s, p, o, gid)`.
        inserts: Vec<(u64, u64, u64, u16)>,
        /// Removed statements, `(s, p, o)`.
        removes: Vec<(u64, u64, u64)>,
        /// The caller's payload.
        meta: Vec<u8>,
        /// Appended while compaction was held: recovery hands back its
        /// delta, not only its meta.
        held: bool,
    },
    /// First record of a snapshot segment.
    SnapshotHeader {
        /// Highest acknowledged journal sequence the snapshot covers.
        last_seq: u64,
        /// Number of graph declarations that follow.
        graphs: u64,
        /// Number of dictionary entries that follow.
        terms: u64,
        /// Number of insert records that follow.
        triples: u64,
        /// Number of meta-only commit records that follow.
        commits: u64,
    },
    /// Last record of a snapshot segment; a snapshot without a valid
    /// footer is incomplete and recovery falls back to the previous
    /// generation.
    SnapshotFooter {
        /// Must match the header's `last_seq`.
        last_seq: u64,
        /// Total records in the segment, footer excluded.
        records: u64,
    },
}

const TAG_GRAPH_DECL: u8 = 1;
const TAG_DICT_ADD: u8 = 2;
const TAG_INSERT: u8 = 3;
const TAG_SNAPSHOT_HEADER: u8 = 5;
const TAG_SNAPSHOT_FOOTER: u8 = 6;
const TAG_COMMIT: u8 = 7;
const TAG_COMMIT_HELD: u8 = 8;

const TERM_IRI: u8 = 0;
const TERM_BLANK: u8 = 1;
const TERM_LIT_SIMPLE: u8 = 2;
const TERM_LIT_LANG: u8 = 3;
const TERM_LIT_TYPED: u8 = 4;

// ---------------------------------------------------------------- crc32

/// IEEE CRC-32 (the polynomial used by gzip/zip), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

// -------------------------------------------------------------- varints

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, advancing the cursor.
pub fn get_varint(bytes: &[u8], cursor: &mut usize) -> Result<u64, DurabilityError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes
            .get(*cursor)
            .ok_or_else(|| DurabilityError::Codec("varint ran off the payload".into()))?;
        *cursor += 1;
        if shift >= 64 {
            return Err(DurabilityError::Codec("varint overflows u64".into()));
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Appends a varint-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Reads varint-length-prefixed bytes, validating the bounds.
pub fn get_bytes<'a>(bytes: &'a [u8], cursor: &mut usize) -> Result<&'a [u8], DurabilityError> {
    let len = get_varint(bytes, cursor)?;
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| cursor.checked_add(len))
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| DurabilityError::Codec("length ran off the payload".into()))?;
    let out = &bytes[*cursor..end];
    *cursor = end;
    Ok(out)
}

/// Reads a varint-length-prefixed UTF-8 string, validating both the
/// bounds and the encoding.
pub fn get_str(bytes: &[u8], cursor: &mut usize) -> Result<String, DurabilityError> {
    let raw = get_bytes(bytes, cursor)?;
    std::str::from_utf8(raw)
        .map(str::to_string)
        .map_err(|e| DurabilityError::Codec(format!("invalid UTF-8: {e}")))
}

/// Reads a varint count followed by that many items, pre-allocating at
/// most 1,024 slots so a corrupt count cannot force a huge allocation.
pub fn get_list<T>(
    bytes: &[u8],
    cursor: &mut usize,
    mut item: impl FnMut(&[u8], &mut usize) -> Result<T, DurabilityError>,
) -> Result<Vec<T>, DurabilityError> {
    let n = get_varint(bytes, cursor)?;
    let mut out = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        out.push(item(bytes, cursor)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------- terms

/// Appends a term's binary form.
pub fn put_term(out: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Iri(iri) => {
            out.push(TERM_IRI);
            put_str(out, iri.as_str());
        }
        Term::Blank(b) => {
            out.push(TERM_BLANK);
            put_str(out, b.as_str());
        }
        Term::Literal(lit) => {
            if let Some(lang) = lit.language() {
                out.push(TERM_LIT_LANG);
                put_str(out, lit.value());
                put_str(out, lang);
            } else if let Some(dt) = lit.datatype() {
                out.push(TERM_LIT_TYPED);
                put_str(out, lit.value());
                put_str(out, dt.as_str());
            } else {
                out.push(TERM_LIT_SIMPLE);
                put_str(out, lit.value());
            }
        }
    }
}

/// Decodes a term, validating IRIs/blank labels/language tags so a
/// corrupted-but-CRC-colliding record can never smuggle malformed
/// vocabulary into the store.
pub fn get_term(bytes: &[u8], cursor: &mut usize) -> Result<Term, DurabilityError> {
    let &tag = bytes
        .get(*cursor)
        .ok_or_else(|| DurabilityError::Codec("term tag missing".into()))?;
    *cursor += 1;
    let codec = |e: lodify_rdf::RdfError| DurabilityError::Codec(e.to_string());
    match tag {
        TERM_IRI => Ok(Term::Iri(Iri::new(get_str(bytes, cursor)?).map_err(codec)?)),
        TERM_BLANK => Ok(Term::Blank(
            BlankNode::new(get_str(bytes, cursor)?).map_err(codec)?,
        )),
        TERM_LIT_SIMPLE => Ok(Term::Literal(Literal::simple(get_str(bytes, cursor)?))),
        TERM_LIT_LANG => {
            let value = get_str(bytes, cursor)?;
            let lang = get_str(bytes, cursor)?;
            Ok(Term::Literal(Literal::lang(value, lang).map_err(codec)?))
        }
        TERM_LIT_TYPED => {
            let value = get_str(bytes, cursor)?;
            let dt = Iri::new(get_str(bytes, cursor)?).map_err(codec)?;
            Ok(Term::Literal(Literal::typed(value, dt)))
        }
        other => Err(DurabilityError::Codec(format!("unknown term tag {other}"))),
    }
}

// -------------------------------------------------------------- records

impl Record {
    /// Appends the record body (no frame) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Record::GraphDecl { gid, name } => {
                out.push(TAG_GRAPH_DECL);
                put_varint(out, u64::from(*gid));
                put_str(out, name);
            }
            Record::DictAdd { id, term } => {
                out.push(TAG_DICT_ADD);
                put_varint(out, *id);
                put_term(out, term);
            }
            Record::Insert { s, p, o, gid } => {
                out.push(TAG_INSERT);
                for v in [*s, *p, *o, u64::from(*gid)] {
                    put_varint(out, v);
                }
            }
            Record::Commit {
                graphs,
                terms,
                inserts,
                removes,
                meta,
                held,
            } => {
                out.push(if *held { TAG_COMMIT_HELD } else { TAG_COMMIT });
                put_varint(out, graphs.len() as u64);
                for (gid, name) in graphs {
                    put_varint(out, u64::from(*gid));
                    put_str(out, name);
                }
                put_varint(out, terms.len() as u64);
                for (id, term) in terms {
                    put_varint(out, *id);
                    put_term(out, term);
                }
                put_varint(out, inserts.len() as u64);
                for &(s, p, o, gid) in inserts {
                    for v in [s, p, o, u64::from(gid)] {
                        put_varint(out, v);
                    }
                }
                put_varint(out, removes.len() as u64);
                for &(s, p, o) in removes {
                    for v in [s, p, o] {
                        put_varint(out, v);
                    }
                }
                put_varint(out, meta.len() as u64);
                out.extend_from_slice(meta);
            }
            Record::SnapshotHeader {
                last_seq,
                graphs,
                terms,
                triples,
                commits,
            } => {
                out.push(TAG_SNAPSHOT_HEADER);
                for v in [last_seq, graphs, terms, triples, commits] {
                    put_varint(out, *v);
                }
            }
            Record::SnapshotFooter { last_seq, records } => {
                out.push(TAG_SNAPSHOT_FOOTER);
                put_varint(out, *last_seq);
                put_varint(out, *records);
            }
        }
    }

    /// Decodes one record body starting at `cursor`.
    pub fn decode(bytes: &[u8], cursor: &mut usize) -> Result<Record, DurabilityError> {
        let &tag = bytes
            .get(*cursor)
            .ok_or_else(|| DurabilityError::Codec("record tag missing".into()))?;
        *cursor += 1;
        fn gid_of(v: u64) -> Result<u16, DurabilityError> {
            u16::try_from(v).map_err(|_| DurabilityError::Codec(format!("graph id {v} > u16")))
        }
        match tag {
            TAG_GRAPH_DECL => {
                let gid = gid_of(get_varint(bytes, cursor)?)?;
                let name = get_str(bytes, cursor)?;
                Ok(Record::GraphDecl { gid, name })
            }
            TAG_DICT_ADD => {
                let id = get_varint(bytes, cursor)?;
                let term = get_term(bytes, cursor)?;
                Ok(Record::DictAdd { id, term })
            }
            TAG_INSERT => Ok(Record::Insert {
                s: get_varint(bytes, cursor)?,
                p: get_varint(bytes, cursor)?,
                o: get_varint(bytes, cursor)?,
                gid: gid_of(get_varint(bytes, cursor)?)?,
            }),
            TAG_COMMIT | TAG_COMMIT_HELD => Ok(Record::Commit {
                graphs: get_list(bytes, cursor, |b, c| {
                    Ok((gid_of(get_varint(b, c)?)?, get_str(b, c)?))
                })?,
                terms: get_list(bytes, cursor, |b, c| {
                    Ok((get_varint(b, c)?, get_term(b, c)?))
                })?,
                inserts: get_list(bytes, cursor, |b, c| {
                    Ok((
                        get_varint(b, c)?,
                        get_varint(b, c)?,
                        get_varint(b, c)?,
                        gid_of(get_varint(b, c)?)?,
                    ))
                })?,
                removes: get_list(bytes, cursor, |b, c| {
                    Ok((get_varint(b, c)?, get_varint(b, c)?, get_varint(b, c)?))
                })?,
                meta: get_bytes(bytes, cursor)?.to_vec(),
                held: tag == TAG_COMMIT_HELD,
            }),
            TAG_SNAPSHOT_HEADER => Ok(Record::SnapshotHeader {
                last_seq: get_varint(bytes, cursor)?,
                graphs: get_varint(bytes, cursor)?,
                terms: get_varint(bytes, cursor)?,
                triples: get_varint(bytes, cursor)?,
                commits: get_varint(bytes, cursor)?,
            }),
            TAG_SNAPSHOT_FOOTER => Ok(Record::SnapshotFooter {
                last_seq: get_varint(bytes, cursor)?,
                records: get_varint(bytes, cursor)?,
            }),
            other => Err(DurabilityError::Codec(format!(
                "unknown record tag {other}"
            ))),
        }
    }
}

impl Record {
    /// A commit that changes nothing and carries only `meta`: how a
    /// snapshot keeps the metas of the commits it folds in.
    pub fn meta_only(meta: Vec<u8>) -> Record {
        Record::Commit {
            graphs: Vec::new(),
            terms: Vec::new(),
            inserts: Vec::new(),
            removes: Vec::new(),
            meta,
            held: false,
        }
    }
}

// --------------------------------------------------------------- frames

/// Appends a CRC32-framed, length-prefixed record with its journal
/// sequence number.
pub fn put_frame(out: &mut Vec<u8>, seq: u64, record: &Record) {
    let mut body = Vec::with_capacity(16);
    record.encode(&mut body);
    put_payload_frame(out, seq, &body);
}

/// Result of scanning one frame at an offset: a decoded [`Record`]
/// from [`read_frame`], opaque body bytes from [`read_payload_frame`].
#[derive(Debug)]
pub enum FrameOutcome<T = Record> {
    /// A complete, CRC-verified frame.
    Frame {
        /// Sequence number written with the frame.
        seq: u64,
        /// The decoded record (or opaque body).
        record: T,
        /// Offset of the next frame.
        next: usize,
    },
    /// Clean end of the byte stream.
    End,
    /// Bytes remain but do not form a whole frame — a truncated tail
    /// (the classic crash-mid-append shape).
    Truncated {
        /// Offset where the partial frame starts.
        at: usize,
    },
    /// A structurally complete frame whose CRC or body does not check
    /// out — a torn or corrupted write.
    Corrupt {
        /// Offset of the bad frame.
        at: usize,
        /// Human-readable reason.
        reason: String,
    },
}

/// Scans the frame starting at `offset`. Never panics on malformed
/// input; a WAL reader loops on this and stops at the first non-frame
/// outcome.
pub fn read_frame(bytes: &[u8], offset: usize) -> FrameOutcome {
    let corrupt = |reason: String| FrameOutcome::Corrupt { at: offset, reason };
    let (seq, body, next) = match read_payload_frame(bytes, offset) {
        FrameOutcome::Frame { seq, record, next } => (seq, record, next),
        FrameOutcome::End => return FrameOutcome::End,
        FrameOutcome::Truncated { at } => return FrameOutcome::Truncated { at },
        FrameOutcome::Corrupt { reason, .. } => return corrupt(reason),
    };
    let mut cursor = 0usize;
    match Record::decode(&body, &mut cursor) {
        Ok(record) if cursor == body.len() => FrameOutcome::Frame { seq, record, next },
        Ok(_) => corrupt("trailing bytes after record body".into()),
        Err(e) => corrupt(e.to_string()),
    }
}

// ------------------------------------------------------ payload frames

/// Appends a CRC32-framed, length-prefixed *opaque* payload — the same
/// wire shape as [`put_frame`], but carrying caller-defined bytes
/// instead of a [`Record`]. The replication layer frames its emissions
/// with this so emission journals inherit the WAL's torn-tail and
/// bit-flip detection without reserving record tags.
pub fn put_payload_frame(out: &mut Vec<u8>, seq: u64, body: &[u8]) {
    let mut payload = Vec::with_capacity(body.len() + 4);
    put_varint(&mut payload, seq);
    payload.extend_from_slice(body);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// Scans the opaque-payload frame starting at `offset`; the counterpart
/// of [`read_frame`] for [`put_payload_frame`] streams. Never panics on
/// malformed input.
pub fn read_payload_frame(bytes: &[u8], offset: usize) -> FrameOutcome<Vec<u8>> {
    if offset >= bytes.len() {
        return FrameOutcome::End;
    }
    let remaining = &bytes[offset..];
    if remaining.len() < 8 {
        return FrameOutcome::Truncated { at: offset };
    }
    let len = u32::from_le_bytes(remaining[0..4].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return FrameOutcome::Corrupt {
            at: offset,
            reason: format!("frame length {len} exceeds cap"),
        };
    }
    let expected_crc = u32::from_le_bytes(remaining[4..8].try_into().unwrap());
    let body_end = 8 + len as usize;
    if remaining.len() < body_end {
        return FrameOutcome::Truncated { at: offset };
    }
    let payload = &remaining[8..body_end];
    if crc32(payload) != expected_crc {
        return FrameOutcome::Corrupt {
            at: offset,
            reason: "CRC mismatch".into(),
        };
    }
    let mut cursor = 0usize;
    match get_varint(payload, &mut cursor) {
        Ok(seq) => FrameOutcome::Frame {
            seq,
            record: payload[cursor..].to_vec(),
            next: offset + body_end,
        },
        Err(e) => FrameOutcome::Corrupt {
            at: offset,
            reason: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_rdf::Point;

    fn samples() -> Vec<Record> {
        vec![
            Record::GraphDecl {
                gid: 3,
                name: "urn:g:ugc".into(),
            },
            Record::DictAdd {
                id: 42,
                term: Term::iri_unchecked("http://dbpedia.org/resource/Turin"),
            },
            Record::DictAdd {
                id: 43,
                term: Term::Literal(Literal::lang("Torino", "it").unwrap()),
            },
            Record::DictAdd {
                id: 44,
                term: Term::Literal(Point::new(7.6933, 45.0692).unwrap().to_literal()),
            },
            Record::DictAdd {
                id: 45,
                term: Term::Blank(BlankNode::new("b0").unwrap()),
            },
            Record::Insert {
                s: 42,
                p: 1,
                o: 43,
                gid: 3,
            },
            Record::Commit {
                graphs: vec![(4, "urn:g:votes".into())],
                terms: vec![(46, Term::Literal(Literal::simple("4.5")))],
                inserts: vec![(42, 1, 46, 4)],
                removes: vec![(42, 1, 43)],
                meta: vec![0xFF, 0x00, 0x7F],
                held: true,
            },
            Record::Commit {
                graphs: Vec::new(),
                terms: Vec::new(),
                inserts: Vec::new(),
                removes: Vec::new(),
                meta: Vec::new(),
                held: false,
            },
            Record::SnapshotHeader {
                last_seq: 7,
                graphs: 2,
                terms: 4,
                triples: 1,
                commits: 3,
            },
            Record::SnapshotFooter {
                last_seq: 7,
                records: 7,
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        for record in samples() {
            let mut buf = Vec::new();
            record.encode(&mut buf);
            let mut cursor = 0;
            let back = Record::decode(&buf, &mut cursor).unwrap();
            assert_eq!(back, record);
            assert_eq!(cursor, buf.len());
        }
    }

    #[test]
    fn frames_round_trip_with_seq() {
        let mut buf = Vec::new();
        for (i, record) in samples().iter().enumerate() {
            put_frame(&mut buf, i as u64 + 1, record);
        }
        let mut offset = 0;
        let mut count = 0u64;
        loop {
            match read_frame(&buf, offset) {
                FrameOutcome::Frame { seq, record, next } => {
                    assert_eq!(seq, count + 1);
                    assert_eq!(record, samples()[count as usize]);
                    offset = next;
                    count += 1;
                }
                FrameOutcome::End => break,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(count as usize, samples().len());
    }

    #[test]
    fn truncated_tail_is_reported_not_parsed() {
        let mut buf = Vec::new();
        put_frame(&mut buf, 1, &samples()[0]);
        let full = buf.len();
        for cut in 1..full {
            match read_frame(&buf[..cut], 0) {
                FrameOutcome::Truncated { at: 0 } => {}
                FrameOutcome::Corrupt { .. } => {} // cut inside the length field
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_never_yield_a_different_record() {
        let record = samples()[1].clone();
        let mut pristine = Vec::new();
        put_frame(&mut pristine, 9, &record);
        for i in 0..pristine.len() {
            let mut bent = pristine.clone();
            bent[i] ^= 0x40;
            if let FrameOutcome::Frame {
                seq, record: got, ..
            } = read_frame(&bent, 0)
            {
                assert_eq!(
                    (seq, &got),
                    (9, &record),
                    "flip at byte {i} changed the record"
                );
            }
        }
    }

    #[test]
    fn payload_frames_round_trip_and_detect_damage() {
        let mut buf = Vec::new();
        put_payload_frame(&mut buf, 1, b"hello");
        put_payload_frame(&mut buf, 2, b"");
        put_payload_frame(&mut buf, 3, &[0xFF, 0x00, 0x7F]);
        let mut offset = 0;
        let mut seen = Vec::new();
        loop {
            match read_payload_frame(&buf, offset) {
                FrameOutcome::Frame { seq, record, next } => {
                    seen.push((seq, record));
                    offset = next;
                }
                FrameOutcome::End => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(
            seen,
            vec![
                (1, b"hello".to_vec()),
                (2, Vec::new()),
                (3, vec![0xFF, 0x00, 0x7F]),
            ]
        );
        // Truncated tails are reported at every cut point, never parsed.
        let mut one = Vec::new();
        put_payload_frame(&mut one, 9, b"payload");
        for cut in 1..one.len() {
            match read_payload_frame(&one[..cut], 0) {
                FrameOutcome::Truncated { at: 0 } | FrameOutcome::Corrupt { .. } => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
        // A flipped body bit fails the CRC.
        let mut bent = one.clone();
        let last = bent.len() - 1;
        bent[last] ^= 0x01;
        assert!(matches!(
            read_payload_frame(&bent, 0),
            FrameOutcome::Corrupt { .. }
        ));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varint_round_trips_at_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cursor = 0;
            assert_eq!(get_varint(&buf, &mut cursor).unwrap(), v);
            assert_eq!(cursor, buf.len());
        }
        assert!(get_varint(&[0x80], &mut 0).is_err());
    }
}
