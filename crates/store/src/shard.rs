//! Subject-sharded triple indexes with shard-granular copy-on-write.
//!
//! The store partitions every subject-keyed structure — the SPO/POS/OSP
//! permutation indexes, the full-text, label and geo side indexes, subject
//! provenance and the distinct-subject set — into [`Shard`]s routed by
//! a stable mix of the subject's [`TermId`]. Two properties fall out:
//!
//! * **Tenant isolation.** A commit touches only the shards its
//!   subjects route to. While a [`StoreSnapshot`] is pinned, the
//!   copy-on-write clone pays for touched shards only, so independent
//!   tenants — whose content subjects are distinct IRIs — commit
//!   without ever rewriting each other's shards.
//! * **Cheap snapshots.** Each shard lives behind an [`Arc`]; cloning
//!   the whole store (what [`Store::snapshot`] does) is O(shards)
//!   reference-count bumps. Writers mutate via [`Arc::make_mut`]: the
//!   first write after a snapshot clones that one shard, later writes
//!   hit the now-unique copy in place.
//!
//! Cross-shard queries (any pattern with an unbound subject) k-way
//! merge the per-shard sorted ranges with `merge_sorted`, so results
//! stream in exactly the global index order a single monolithic
//! `BTreeSet` would produce — this is what keeps export bytes and
//! query answers **identical for every shard count** (asserted by the
//! shard-count invariance tests).
//!
//! [`Store::snapshot`]: crate::store::Store::snapshot
//! [`StoreSnapshot`]: crate::snapshot::StoreSnapshot

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use lodify_rdf::Point;

use crate::dict::TermId;
use crate::fulltext::{tokenize, FullTextIndex, Posting};
use crate::geo::GeoIndex;
use crate::label::{self, LabelIndex};
use crate::store::GraphId;

/// An `(s, p, o)`-shaped index key (field order varies per index).
pub type Key = (TermId, TermId, TermId);

/// Default number of subject shards for [`crate::store::Store::new`].
pub const DEFAULT_SHARDS: usize = 16;

/// One subject partition: every structure keyed by (or rooted at) a
/// subject id whose mix routes here.
///
/// The POS index is also stored per *subject* shard — its keys are
/// `(p, o, s)` but the owning shard is chosen by `s` — so a
/// predicate-bound scan merges across shards while a commit never
/// leaves the subject's shard.
#[derive(Debug, Clone, Default)]
pub struct Shard {
    /// `(s, p, o)` permutation.
    pub(crate) spo: BTreeSet<Key>,
    /// `(p, o, s)` permutation (owned by the shard of `s`).
    pub(crate) pos: BTreeSet<Key>,
    /// `(o, s, p)` permutation (owned by the shard of `s`).
    pub(crate) osp: BTreeSet<Key>,
    /// Full-text postings contributed by this shard's subjects.
    pub(crate) fulltext: FullTextIndex,
    /// The naming literals among this shard's full-text postings, for
    /// entity linking.
    pub(crate) labels: LabelIndex,
    /// Geo points of this shard's subjects.
    pub(crate) geo: GeoIndex,
    /// First graph that introduced each subject (provenance).
    pub(crate) subject_graph: HashMap<TermId, GraphId>,
    /// Subjects with at least one statement (distinct-subject stats).
    pub(crate) seen_subjects: HashSet<TermId>,
}

/// Routes a subject id to its shard.
///
/// The key is a SplitMix64 finalizer over the dense id: stable across
/// runs, replicas and WAL replay (ids are assigned in first-seen order
/// by the sequential writer), and avalanching enough that consecutive
/// ids — one upload's burst of subjects — spread across shards while a
/// tenant's *working set* still lands deterministically. Callers that
/// want hard per-tenant affinity can instead mint tenant-prefixed
/// subject IRIs and raise the shard count; routing is an internal
/// detail that never changes query results.
pub fn shard_of(subject: TermId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut z = subject.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// Allocates `count` empty shards.
pub(crate) fn empty_shards(count: usize) -> Vec<Arc<Shard>> {
    assert!(count > 0, "store needs at least one shard");
    (0..count).map(|_| Arc::default()).collect()
}

/// K-way merge of already-sorted iterators into one sorted stream.
///
/// All per-shard index ranges are sorted on their full key, and shards
/// partition the key space by subject, so merging by `Ord` reproduces
/// the exact iteration order of an unsharded index. `k` is the shard
/// count (small); each step scans the `k` heads for the minimum.
pub(crate) fn merge_sorted<I>(iters: Vec<I>) -> KMerge<I>
where
    I: Iterator<Item = Key>,
{
    KMerge {
        heads: iters.into_iter().map(Iterator::peekable).collect(),
    }
}

/// Iterator returned by [`merge_sorted`].
pub(crate) struct KMerge<I: Iterator<Item = Key>> {
    heads: Vec<std::iter::Peekable<I>>,
}

impl<I: Iterator<Item = Key>> Iterator for KMerge<I> {
    type Item = Key;

    fn next(&mut self) -> Option<Key> {
        let mut best: Option<(usize, Key)> = None;
        for (i, head) in self.heads.iter_mut().enumerate() {
            if let Some(&key) = head.peek() {
                if best.map_or(true, |(_, b)| key < b) {
                    best = Some((i, key));
                }
            }
        }
        let (i, key) = best?;
        self.heads[i].next();
        Some(key)
    }
}

/// Read facade merging the per-shard full-text indexes.
///
/// Subjects are partitioned across shards, so postings from different
/// shards never collide; merging per-shard sorted lists and re-sorting
/// by the total [`Posting`] order reproduces exactly what a monolithic
/// index would answer — for any shard count.
#[derive(Debug, Clone, Copy)]
pub struct FullTextView<'a> {
    shards: &'a [Arc<Shard>],
}

impl<'a> FullTextView<'a> {
    pub(crate) fn over(shards: &'a [Arc<Shard>]) -> Self {
        FullTextView { shards }
    }

    /// Exact-token lookup (`bif:contains` semantics for a single word),
    /// merged across shards, sorted by posting order.
    pub fn search_word(&self, word: &str) -> Vec<Posting> {
        let mut out: Vec<Posting> = self
            .shards
            .iter()
            .flat_map(|sh| sh.fulltext.search_word(word).iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// All postings for tokens starting with `prefix`, deduplicated by
    /// subject (first-seen in global token order), capped at `limit`
    /// subjects — the incremental-search operation.
    pub fn search_prefix(&self, prefix: &str, limit: usize) -> Vec<Posting> {
        let needle = prefix.to_lowercase();
        // Merge per-shard entry streams into global token order; within
        // one token, postings sort into the same order a monolithic
        // index stores (subjects are disjoint across shards).
        let mut merged: BTreeMap<&str, Vec<Posting>> = BTreeMap::new();
        for sh in self.shards {
            for (token, postings) in sh.fulltext.prefix_entries(&needle) {
                merged.entry(token).or_default().extend_from_slice(postings);
            }
        }
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for (_, mut postings) in merged {
            postings.sort_unstable();
            for p in postings {
                if seen.insert(p.subject) {
                    out.push(p);
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
        }
        out
    }

    /// Postings matching **all** words (conjunctive `bif:contains`),
    /// intersected on subject across shards.
    pub fn search_all_words(&self, text: &str) -> Vec<Posting> {
        let words = tokenize(text);
        let mut iter = words.iter();
        let Some(first) = iter.next() else {
            return Vec::new();
        };
        let first_hits = self.search_word(first);
        let mut subjects: BTreeSet<TermId> = first_hits.iter().map(|p| p.subject).collect();
        for word in iter {
            let next: BTreeSet<TermId> = self.search_word(word).iter().map(|p| p.subject).collect();
            subjects = subjects.intersection(&next).copied().collect();
            if subjects.is_empty() {
                return Vec::new();
            }
        }
        first_hits
            .into_iter()
            .filter(|p| subjects.contains(&p.subject))
            .collect()
    }

    /// Number of distinct tokens across all shards.
    pub fn distinct_tokens(&self) -> usize {
        let mut tokens = BTreeSet::new();
        for sh in self.shards {
            for (token, _) in sh.fulltext.prefix_entries("") {
                tokens.insert(token);
            }
        }
        tokens.len()
    }

    /// Total tokens indexed (including repeats), summed over shards.
    pub fn tokens_indexed(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| sh.fulltext.tokens_indexed())
            .sum()
    }
}

/// Read facade merging the per-shard label indexes
/// ([`crate::label`]).
///
/// Both lookups return postings merged across shards in [`Posting`]
/// order — the order the full-text index lists a token's postings in —
/// for any shard count. Keys are hashes: a returned posting's literal
/// may not match, so callers check it.
#[derive(Debug, Clone, Copy)]
pub struct LabelView<'a> {
    shards: &'a [Arc<Shard>],
}

impl<'a> LabelView<'a> {
    pub(crate) fn over(shards: &'a [Arc<Shard>]) -> Self {
        LabelView { shards }
    }

    /// Postings of labels whose whole lowercased text hashes like
    /// `label_lower` (already lowercased).
    pub fn exact(&self, label_lower: &str) -> Vec<Posting> {
        let key = label::key(label_lower);
        self.merged(|sh| sh.labels.exact(key))
    }

    /// Postings of labels with a token that hashes like `token` (one
    /// token as [`tokenize`] yields it).
    pub fn token(&self, token: &str) -> Vec<Posting> {
        let key = label::key(token);
        self.merged(|sh| sh.labels.token(key))
    }

    fn merged(&self, bucket: impl Fn(&'a Shard) -> &'a [Posting]) -> Vec<Posting> {
        let mut out: Vec<Posting> = Vec::new();
        for sh in self.shards {
            out.extend_from_slice(bucket(sh));
        }
        out.sort_unstable();
        out
    }
}

/// Read facade merging the per-shard geo indexes.
#[derive(Debug, Clone, Copy)]
pub struct GeoView<'a> {
    shards: &'a [Arc<Shard>],
}

impl<'a> GeoView<'a> {
    pub(crate) fn over(shards: &'a [Arc<Shard>]) -> Self {
        GeoView { shards }
    }

    /// Subjects within `radius_km` of `center` with their distances,
    /// nearest-first. Per-shard results merge under the same total
    /// `(distance, id)` order the monolithic index sorts by, so the
    /// answer is shard-count invariant.
    pub fn within_km(&self, center: Point, radius_km: f64) -> Vec<(TermId, f64)> {
        let mut hits: Vec<(TermId, f64)> = self
            .shards
            .iter()
            .flat_map(|sh| sh.geo.within_km(center, radius_km))
            .collect();
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits
    }

    /// The point registered for `subject`, if any (single-shard probe).
    pub fn point_of(&self, subject: TermId) -> Option<Point> {
        self.shards[shard_of(subject, self.shards.len())]
            .geo
            .point_of(subject)
    }

    /// Number of georeferenced subjects.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|sh| sh.geo.len()).sum()
    }

    /// True when no subject carries a point.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|sh| sh.geo.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(a: u64, b: u64, c: u64) -> Key {
        (TermId(a), TermId(b), TermId(c))
    }

    #[test]
    fn merge_reproduces_global_order() {
        let a = vec![k(0, 0, 0), k(3, 0, 0), k(5, 1, 2)];
        let b = vec![k(1, 0, 0), k(3, 0, 1)];
        let c: Vec<Key> = Vec::new();
        let merged: Vec<Key> = merge_sorted(vec![
            a.clone().into_iter(),
            b.clone().into_iter(),
            c.into_iter(),
        ])
        .collect();
        let mut expected: Vec<Key> = a.into_iter().chain(b).collect();
        expected.sort();
        assert_eq!(merged, expected);
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in [1usize, 4, 16, 64] {
            for id in 0..1000u64 {
                let s = shard_of(TermId(id), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(TermId(id), shards), "routing must be pure");
            }
        }
        // One shard swallows everything.
        assert_eq!(shard_of(TermId(42), 1), 0);
    }

    #[test]
    fn routing_spreads_dense_ids() {
        // A burst of consecutive ids (one upload's subjects) must not
        // pile onto one shard.
        let shards = 16;
        let mut hits = vec![0usize; shards];
        for id in 0..1600u64 {
            hits[shard_of(TermId(id), shards)] += 1;
        }
        assert!(hits.iter().all(|&h| h > 0), "no empty shard: {hits:?}");
        assert!(
            *hits.iter().max().unwrap() < 400,
            "no pathological skew: {hits:?}"
        );
    }
}
