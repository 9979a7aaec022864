//! Label index: the naming literals entity linking resolves terms
//! against.
//!
//! The semantic broker (§2.2.2) looks every extracted term up among LOD
//! labels. The full-text index answers that too, but a term's first
//! token is posted under every picture title and description that
//! contains it, so a lookup there walks mostly non-labels. This index
//! is the gazetteer instead: it holds only the literals
//! [`crate::fulltext::FullTextIndex`] indexes (plain or language-tagged,
//! with at least one token) whose predicate is one of the four naming
//! predicates ([`is_label_predicate`]), and answers two lookups:
//!
//! * **exact** — the whole lowercased label, one hash probe;
//! * **token** — one label token, so a fuzzy match walks label postings
//!   only.
//!
//! Keys are 64-bit hashes of the text, not the text, which keeps the
//! index small (it grows by one label per upload). A bucket may
//! therefore hold a posting whose literal merely collides with the key:
//! callers check the literal they read back.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use lodify_rdf::ns;

use crate::dict::TermId;
use crate::fulltext::{tokenize, Posting};

/// The naming predicates (labels, not abstracts): `rdfs:label`,
/// `gn:name`, `gn:alternateName` and `foaf:name`.
const LABEL_PREDICATES: [(&str, &str); 4] = [
    (ns::RDFS.base, "label"),
    (ns::GN.base, "name"),
    (ns::GN.base, "alternateName"),
    (ns::FOAF.base, "name"),
];

/// Whether `predicate` (a full IRI) is one of the naming predicates.
pub fn is_label_predicate(predicate: &str) -> bool {
    LABEL_PREDICATES
        .iter()
        .any(|(base, local)| predicate.strip_prefix(base) == Some(*local))
}

/// The key a label text (already lowercased) or a token is filed
/// under: FNV-1a over its UTF-8 bytes.
pub(crate) fn key(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One key's postings, sorted. Most keys have one: it is kept inline,
/// so the index allocates only for keys with several. With a `Vec` per
/// key the store held tens of thousands more small allocations, and
/// allocation-heavy work elsewhere in the process (SPARQL parsing)
/// measured slower for it.
#[derive(Debug, Clone)]
enum Bucket {
    One(Posting),
    Many(Vec<Posting>),
}

impl Bucket {
    fn postings(&self) -> &[Posting] {
        match self {
            Bucket::One(posting) => std::slice::from_ref(posting),
            Bucket::Many(postings) => postings,
        }
    }
}

type Buckets = HashMap<u64, Bucket>;

/// Exact-label and label-token postings of one shard's subjects.
#[derive(Debug, Clone, Default)]
pub struct LabelIndex {
    /// Key of the whole lowercased label → sorted postings.
    exact: Buckets,
    /// Key of one label token → sorted postings.
    tokens: Buckets,
}

impl LabelIndex {
    /// Files a label literal of the given triple under its exact key
    /// and each of its token keys. A literal without tokens is skipped,
    /// as the full-text index skips it.
    pub(crate) fn index_label(
        &mut self,
        subject: TermId,
        predicate: TermId,
        object: TermId,
        text: &str,
    ) {
        let tokens = tokenize(text);
        if tokens.is_empty() {
            return;
        }
        let posting = Posting {
            subject,
            predicate,
            object,
        };
        let file = |map: &mut Buckets, key: u64| match map.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(Bucket::One(posting));
            }
            Entry::Occupied(mut slot) => {
                let bucket = slot.get_mut();
                if let Bucket::One(first) = *bucket {
                    if first == posting {
                        return;
                    }
                    *bucket = Bucket::Many(vec![first]);
                }
                if let Bucket::Many(postings) = bucket {
                    if let Err(pos) = postings.binary_search(&posting) {
                        postings.insert(pos, posting);
                    }
                }
            }
        };
        file(&mut self.exact, key(&text.to_lowercase()));
        for token in &tokens {
            file(&mut self.tokens, key(token));
        }
    }

    /// Removes what [`LabelIndex::index_label`] filed for the triple.
    pub(crate) fn remove_label(
        &mut self,
        subject: TermId,
        predicate: TermId,
        object: TermId,
        text: &str,
    ) {
        let posting = Posting {
            subject,
            predicate,
            object,
        };
        let unfile = |map: &mut Buckets, key: u64| {
            let Entry::Occupied(mut slot) = map.entry(key) else {
                return;
            };
            match slot.get_mut() {
                Bucket::One(only) => {
                    if *only == posting {
                        slot.remove();
                    }
                }
                Bucket::Many(postings) => {
                    if let Ok(pos) = postings.binary_search(&posting) {
                        postings.remove(pos);
                    }
                    if let [only] = postings[..] {
                        slot.insert(Bucket::One(only));
                    }
                }
            }
        };
        unfile(&mut self.exact, key(&text.to_lowercase()));
        for token in tokenize(text) {
            unfile(&mut self.tokens, key(&token));
        }
    }

    /// Postings filed under an exact-label key.
    pub(crate) fn exact(&self, key: u64) -> &[Posting] {
        self.exact.get(&key).map_or(&[], Bucket::postings)
    }

    /// Postings filed under a token key.
    pub(crate) fn token(&self, key: u64) -> &[Posting] {
        self.tokens.get(&key).map_or(&[], Bucket::postings)
    }

    /// Whether nothing is filed.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.tokens.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn posting(n: u64) -> Posting {
        Posting {
            subject: TermId(n),
            predicate: TermId(100),
            object: TermId(200 + n),
        }
    }

    #[test]
    fn only_the_four_naming_predicates_are_labels() {
        for iri in [
            "http://www.w3.org/2000/01/rdf-schema#label",
            "http://www.geonames.org/ontology#name",
            "http://www.geonames.org/ontology#alternateName",
            "http://xmlns.com/foaf/0.1/name",
        ] {
            assert!(is_label_predicate(iri), "{iri}");
        }
        for iri in [
            "http://www.w3.org/2000/01/rdf-schema#comment",
            "http://dbpedia.org/ontology/abstract",
            "http://www.geonames.org/ontology#names",
            "http://xmlns.com/foaf/0.1/nam",
        ] {
            assert!(!is_label_predicate(iri), "{iri}");
        }
    }

    #[test]
    fn insert_then_remove_leaves_nothing_behind() {
        let mut idx = LabelIndex::default();
        let p = posting(1);
        idx.index_label(p.subject, p.predicate, p.object, "Mole Antonelliana");
        assert_eq!(idx.exact(key("mole antonelliana")), &[p]);
        assert_eq!(idx.token(key("mole")), &[p]);
        assert_eq!(idx.token(key("antonelliana")), &[p]);
        assert!(idx.exact(key("mole")).is_empty());
        // Filing the same triple twice keeps one posting.
        idx.index_label(p.subject, p.predicate, p.object, "Mole Antonelliana");
        assert_eq!(idx.token(key("mole")).len(), 1);

        idx.remove_label(p.subject, p.predicate, p.object, "Mole Antonelliana");
        assert!(idx.is_empty(), "{idx:?}");
    }

    #[test]
    fn a_literal_without_tokens_is_not_filed() {
        let mut idx = LabelIndex::default();
        let p = posting(2);
        idx.index_label(p.subject, p.predicate, p.object, "¡ — !");
        assert!(idx.is_empty());
        assert!(idx.exact(key("¡ — !")).is_empty());
        idx.remove_label(p.subject, p.predicate, p.object, "¡ — !");
        assert!(idx.is_empty());
    }

    #[test]
    fn buckets_stay_sorted_and_removal_is_per_posting() {
        let mut idx = LabelIndex::default();
        for n in [5, 1, 3] {
            let p = posting(n);
            idx.index_label(p.subject, p.predicate, p.object, "Torino");
        }
        assert_eq!(
            idx.exact(key("torino")),
            &[posting(1), posting(3), posting(5)]
        );
        let p = posting(3);
        idx.remove_label(p.subject, p.predicate, p.object, "Torino");
        assert_eq!(idx.token(key("torino")), &[posting(1), posting(5)]);
        // Down to one posting and then none.
        for n in [5, 1] {
            let p = posting(n);
            idx.remove_label(p.subject, p.predicate, p.object, "Torino");
        }
        assert!(idx.is_empty(), "{idx:?}");
    }
}
