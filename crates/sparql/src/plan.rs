//! Join ordering over basic graph patterns — the only module that
//! decides one.
//!
//! The store's uniform selectivity heuristic
//! ([`lodify_store::stats::Stats::estimate`]) divides a predicate's
//! count by the store-wide number of distinct subjects/objects, so it
//! is blind to **skew**: a pattern whose constant object matches half
//! the store and one whose constant object matches fifty triples get
//! the same estimate. It costs a few statistics reads, which makes it
//! the right probe for a query that runs once; a query that runs often
//! deserves the cost model this module adds on top:
//!
//! 1. [`Estimator`] is the *single* cardinality probe API. It owns the
//!    only call to the raw statistics heuristic (CI greps for strays),
//!    the exact index probe ([`Estimator::exact_count`]), and the
//!    calibration layer that scales heuristic estimates by the
//!    observed [`misestimate`](crate::profile::PredicateStats::misestimate) ratio accumulated in a
//!    [`CardinalityProfile`]. The evaluator's cold ordering routes
//!    through the same probes, so planner and executor can never
//!    disagree about an estimate.
//! 2. [`plan_query`] walks the query's group tree exactly like the
//!    evaluator will and runs a join-order search per BGP run: exact
//!    dynamic programming over subsets for runs of up to
//!    [`MAX_DP_PATTERNS`] patterns, the calibrated greedy beyond that.
//!    The result is an explainable [`Plan`] whose per-step estimates
//!    flow into the executed
//!    [`EvalProfile`](crate::profile::EvalProfile), closing the
//!    estimated-vs-actual loop.
//! 3. A run the [`Plan`] does not cover — every run of a one-shot
//!    [`execute`](crate::execute), whose plan is `Plan::default()` —
//!    gets the same greedy search over the cold heuristic, asked for
//!    by the evaluator at run entry. Both greedies are one function
//!    with the probe as a parameter.
//!
//! The cost model treats a step estimate as the operator's output
//! cardinality: an *opening* pattern (no previously bound variable)
//! contributes its exact index count, a probing pattern multiplies the
//! running row count by its per-binding fan-out estimate. Plan cost is
//! the sum of intermediate result sizes — the classic C_out metric.
//! Join order only ever changes *how fast* a BGP evaluates, never its
//! result set; the property corpus asserts planned and cold execution
//! byte-identical to each other and to an independent reference.

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};

use lodify_rdf::Term;
use lodify_store::{Store, TermId};

use crate::ast::{Element, Group, Query, TermOrVar, TriplePattern};
use crate::profile::CardinalityProfile;

/// Maximum run length planned with exact dynamic programming over
/// subsets; longer runs fall back to the calibrated greedy. 12 patterns
/// is 4096 subsets — microseconds of planning, far past any query in
/// the paper workload (Q1–Q3 join 3–5 patterns).
pub const MAX_DP_PATTERNS: usize = 12;

/// Calibration clamp: observed misestimate ratios scale heuristic
/// estimates by at most this factor in either direction, so one wild
/// observation cannot capsize the plan.
const CALIBRATION_CLAMP: f64 = 32.0;

/// Observations required before a predicate's misestimate ratio is
/// trusted for calibration.
const CALIBRATION_MIN_OBSERVATIONS: u64 = 2;

/// The single cardinality probe API shared by the join-order searches.
///
/// Three probes, strongest first:
///
/// * [`Estimator::exact_count`] — the true index cardinality of a
///   pattern's constant positions. Skew-proof, used for opening
///   patterns.
/// * calibrated heuristic — the uniform heuristic scaled by the
///   predicate's observed actual/estimated ratio from a
///   [`CardinalityProfile`], once enough executions were observed.
/// * [`Estimator::heuristic`] — PR 3's cold-start uniform model,
///   and the **only** caller of the raw
///   [`Stats::estimate`](lodify_store::stats::Stats::estimate) entry
///   point outside the store crate (CI lints for strays).
#[derive(Debug, Clone, Copy)]
pub struct Estimator<'s> {
    store: &'s Store,
    calibration: Option<&'s CardinalityProfile>,
}

impl<'s> Estimator<'s> {
    /// An uncalibrated estimator: exact probes plus the cold-start
    /// heuristic.
    pub fn new(store: &'s Store) -> Estimator<'s> {
        Estimator {
            store,
            calibration: None,
        }
    }

    /// An estimator that scales heuristic estimates by the observed
    /// per-predicate misestimate ratios in `calibration`.
    pub fn with_calibration(
        store: &'s Store,
        calibration: &'s CardinalityProfile,
    ) -> Estimator<'s> {
        Estimator {
            store,
            calibration: Some(calibration),
        }
    }

    /// PR 3's uniform selectivity heuristic, verbatim: predicate count
    /// shrunk by bound subject/object positions, zero for a constant
    /// predicate missing from the dictionary. `is_bound` answers
    /// whether a variable is already bound at this point of the plan.
    pub fn heuristic(&self, p: &TriplePattern, is_bound: &dyn Fn(&str) -> bool) -> f64 {
        let bound = |tov: &TermOrVar| match tov {
            TermOrVar::Term(_) => true,
            TermOrVar::Var(v) => is_bound(v),
        };
        let pred_id = match &p.predicate {
            TermOrVar::Term(t) => self.store.id_of(t),
            TermOrVar::Var(_) => None,
        };
        let has_const_pred = matches!(&p.predicate, TermOrVar::Term(_));
        let estimate = self.store.stats().estimate(
            bound(&p.subject),
            if has_const_pred {
                pred_id.or(Some(TermId(u64::MAX)))
            } else {
                None
            },
            bound(&p.object),
        );
        // A constant predicate missing from the dictionary means zero rows.
        if has_const_pred && pred_id.is_none() {
            return 0.0;
        }
        estimate
    }

    /// Exact index cardinality of a pattern's constant positions — the
    /// fan-out a probe of this pattern can produce. Unlike the
    /// selectivity heuristic (which shrinks as variables bind, by
    /// design), this is the true number of candidate bindings the
    /// pattern feeds downstream, so it is the skew-proof estimate for
    /// an opening pattern.
    pub fn exact_count(&self, p: &TriplePattern) -> usize {
        let id = |tov: &TermOrVar| match tov {
            TermOrVar::Term(t) => match self.store.id_of(t) {
                Some(id) => Ok(Some(id)),
                None => Err(()),
            },
            TermOrVar::Var(_) => Ok(None),
        };
        match (id(&p.subject), id(&p.predicate), id(&p.object)) {
            (Ok(s), Ok(pr), Ok(o)) => self.store.count_pattern(s, pr, o),
            // A constant missing from the dictionary matches nothing.
            _ => 0,
        }
    }

    /// The planner's step estimate: exact index count for an opening
    /// pattern (no variable position bound yet — the index knows the
    /// true fan-out, which is where the uniform heuristic loses to
    /// skew), calibrated heuristic otherwise.
    pub fn estimate(&self, p: &TriplePattern, is_bound: &dyn Fn(&str) -> bool) -> f64 {
        self.estimate_with(p, is_bound, &|| self.exact_count(p))
    }

    /// [`Estimator::estimate`] with the opening pattern's exact count
    /// supplied by the caller, so a search that meets the same pattern
    /// many times can probe the index once.
    fn estimate_with(
        &self,
        p: &TriplePattern,
        is_bound: &dyn Fn(&str) -> bool,
        exact_count: &dyn Fn() -> usize,
    ) -> f64 {
        let any_var_bound = p.vars().any(is_bound);
        if !any_var_bound {
            return exact_count() as f64;
        }
        let h = self.heuristic(p, is_bound);
        if let (Some(calibration), Some(predicate)) = (self.calibration, constant_predicate(p)) {
            if let Some(stats) = calibration.stats(predicate) {
                if stats.observations >= CALIBRATION_MIN_OBSERVATIONS {
                    if let Some(ratio) = stats.misestimate() {
                        return h * ratio.clamp(1.0 / CALIBRATION_CLAMP, CALIBRATION_CLAMP);
                    }
                }
            }
        }
        h
    }
}

/// The constant predicate IRI of a pattern, if it has one — the key
/// calibration statistics aggregate under (mirrors the evaluator's
/// profiling key).
fn constant_predicate(pattern: &TriplePattern) -> Option<&str> {
    match &pattern.predicate {
        TermOrVar::Term(Term::Iri(iri)) => Some(iri.as_str()),
        _ => None,
    }
}

/// The join order and per-step estimates chosen for one BGP run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// Execution order as indices into the run's syntactic pattern
    /// list: `order[k]` is the position of the `k`-th pattern to run.
    pub order: Vec<usize>,
    /// The planner's output-cardinality estimate for each ordered step
    /// (same length and order as [`RunPlan::order`]); these become the
    /// executed operators' `estimated_rows`, so est-vs-actual drift is
    /// measured against the *plan*, not the cold heuristic.
    pub estimates: Vec<f64>,
    /// Estimated plan cost: the sum of intermediate result sizes
    /// (C_out).
    pub est_cost: f64,
}

impl RunPlan {
    /// Whether this run plan is a valid permutation for a run of `n`
    /// patterns — the evaluator's guard before applying a cached plan
    /// to a freshly parsed query.
    pub fn applies_to(&self, n: usize) -> bool {
        if self.order.len() != n || self.estimates.len() != n {
            return false;
        }
        let mut seen = vec![false; n];
        for &idx in &self.order {
            if idx >= n || seen[idx] {
                return false;
            }
            seen[idx] = true;
        }
        true
    }
}

/// An explainable, cacheable query plan: one [`RunPlan`] per BGP run,
/// keyed by the run's constant-insensitive signature (see
/// [`run_key`]), plus the store epoch it was planned against and a
/// stable id derived from its rendered form.
///
/// `Plan::default()` covers no run: every run is ordered cold at run
/// entry (see [`evaluate_planned`](crate::evaluate_planned)), which is
/// how the one-shot [`execute`](crate::execute) family evaluates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    plan_id: u64,
    epoch: u64,
    runs: HashMap<String, RunPlan>,
    text: String,
}

impl Plan {
    /// Stable plan id: an FNV-1a hash of the rendered plan and the
    /// planning epoch. Two plans with the same id made the same
    /// ordering decisions against the same data.
    pub fn id(&self) -> u64 {
        self.plan_id
    }

    /// The store mutation epoch this plan was computed against.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The run plan for a BGP run key, if this plan covers it.
    pub fn run(&self, key: &str) -> Option<&RunPlan> {
        self.runs.get(key)
    }

    /// Number of BGP runs this plan covers.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// All run plans, keyed by [`run_key`].
    pub fn runs(&self) -> &HashMap<String, RunPlan> {
        &self.runs
    }

    /// The human-readable plan: one line per ordered step with its
    /// cost estimate, nested by group structure.
    pub fn render(&self) -> &str {
        &self.text
    }
}

/// Constant-insensitive signature of one pattern position: variables
/// and IRIs verbatim, literals reduced to their shape (language tag or
/// datatype, never the lexical form). Two queries with the same
/// [`fingerprint`](crate::fingerprint) — which normalizes literal
/// values the same way — therefore produce identical run keys, letting
/// one cached plan serve the whole query family.
fn signature(tov: &TermOrVar) -> String {
    match tov {
        TermOrVar::Var(v) => format!("?{v}"),
        TermOrVar::Term(Term::Literal(l)) => match (l.language(), l.datatype()) {
            (Some(lang), _) => format!("$lit@{lang}"),
            (None, Some(dt)) => format!("$lit^^<{}>", dt.as_str()),
            (None, None) => "$lit".to_string(),
        },
        TermOrVar::Term(t) => t.to_string(),
    }
}

fn pattern_signature(p: &TriplePattern) -> String {
    format!(
        "{} {} {}",
        signature(&p.subject),
        signature(&p.predicate),
        signature(&p.object)
    )
}

/// The lookup key for one BGP run: the patterns' constant-insensitive
/// signatures in syntactic order, plus the sorted set of run variables
/// already bound on entry. The planner and the evaluator compute this
/// key with the same function at the same point (run entry), so a plan
/// applies exactly when the evaluator faces the situation the planner
/// modelled; on any mismatch the run is ordered cold, which is always
/// correct.
pub fn run_key(run: &[&TriplePattern], is_bound: &dyn Fn(&str) -> bool) -> String {
    let mut key = String::new();
    for (i, p) in run.iter().enumerate() {
        if i > 0 {
            key.push(';');
        }
        key.push_str(&pattern_signature(p));
    }
    let mut bound: Vec<&str> = run
        .iter()
        .flat_map(|p| p.vars())
        .filter(|v| is_bound(v))
        .collect();
    bound.sort_unstable();
    bound.dedup();
    key.push('|');
    key.push_str(&bound.join(","));
    key
}

/// Plans a parsed query against a store: walks the group tree exactly
/// like the evaluator, runs the join-order search per BGP run, and
/// returns the explainable [`Plan`]. Pass the platform's
/// [`CardinalityProfile`] to calibrate heuristic estimates with
/// observed fan-outs; `None` plans from index statistics alone.
pub fn plan_query(store: &Store, query: &Query, calibration: Option<&CardinalityProfile>) -> Plan {
    let estimator = match calibration {
        Some(c) => Estimator::with_calibration(store, c),
        None => Estimator::new(store),
    };
    let mut runs = HashMap::new();
    let mut text = String::from("plan:\n");
    let mut bound = HashSet::new();
    plan_group(
        &estimator,
        &query.where_clause,
        &mut bound,
        1,
        &mut runs,
        &mut text,
    );
    let epoch = store.epoch();
    let mut hash = fnv1a(text.as_bytes());
    hash = fnv1a_u64(hash, epoch);
    Plan {
        plan_id: hash,
        epoch,
        runs,
        text,
    }
}

/// Mirrors the evaluator's group walk: contiguous triple runs are
/// planned with the current bound set, then bind their variables;
/// OPTIONAL / UNION branches and nested groups plan against a copy of
/// the bound set and do **not** extend it afterwards (the evaluator's
/// surely-bound tracking is equally conservative); subselects start
/// from an empty scope.
fn plan_group(
    estimator: &Estimator<'_>,
    group: &Group,
    bound: &mut HashSet<String>,
    depth: usize,
    runs: &mut HashMap<String, RunPlan>,
    text: &mut String,
) {
    let pad = "  ".repeat(depth);
    let elements: Vec<&Element> = group
        .elements
        .iter()
        .filter(|e| !matches!(e, Element::Filter(_)))
        .collect();
    let mut i = 0;
    while i < elements.len() {
        match elements[i] {
            Element::Triple(_) => {
                let mut run: Vec<&TriplePattern> = Vec::new();
                while i < elements.len() {
                    if let Element::Triple(t) = elements[i] {
                        run.push(t);
                        i += 1;
                    } else {
                        break;
                    }
                }
                let key = run_key(&run, &|v| bound.contains(v));
                let run_plan = search_order(estimator, &run, bound);
                for (k, (&idx, est)) in run_plan.order.iter().zip(&run_plan.estimates).enumerate() {
                    let kind = if k == 0 { "scan" } else { "join" };
                    text.push_str(&format!(
                        "{pad}{kind} {} (est. {est:.0} rows)\n",
                        pattern_signature(run[idx]),
                    ));
                }
                text.push_str(&format!("{pad}  cost {:.0}\n", run_plan.est_cost));
                for p in &run {
                    for v in p.vars() {
                        bound.insert(v.to_string());
                    }
                }
                runs.insert(key, run_plan);
            }
            Element::Optional(g) => {
                text.push_str(&format!("{pad}optional:\n"));
                plan_group(estimator, g, &mut bound.clone(), depth + 1, runs, text);
                i += 1;
            }
            Element::Union(branches) => {
                text.push_str(&format!("{pad}union ({} branches):\n", branches.len()));
                for branch in branches {
                    plan_group(estimator, branch, &mut bound.clone(), depth + 1, runs, text);
                }
                i += 1;
            }
            Element::SubGroup(g) => {
                text.push_str(&format!("{pad}group:\n"));
                plan_group(estimator, g, &mut bound.clone(), depth + 1, runs, text);
                i += 1;
            }
            Element::SubSelect(q) => {
                text.push_str(&format!("{pad}subselect:\n"));
                plan_group(
                    estimator,
                    &q.where_clause,
                    &mut HashSet::new(),
                    depth + 1,
                    runs,
                    text,
                );
                i += 1;
            }
            Element::Filter(_) => unreachable!("filters partitioned out"),
        }
    }
    let filters = group
        .elements
        .iter()
        .filter(|e| matches!(e, Element::Filter(_)))
        .count();
    if filters > 0 {
        text.push_str(&format!("{pad}apply {filters} filter(s)\n"));
    }
}

/// A cardinality probe over one run: the estimated output rows of
/// pattern `i` given which variables are already bound.
type Probe<'a> = &'a dyn Fn(usize, &dyn Fn(&str) -> bool) -> f64;

/// Join-order search for one BGP run: exact subset DP up to
/// [`MAX_DP_PATTERNS`], calibrated greedy beyond. Both probe through
/// [`Estimator::estimate`]'s model and both are deterministic
/// (strict-`<` improvement over ascending subset/index order breaks
/// ties).
fn search_order(
    estimator: &Estimator<'_>,
    run: &[&TriplePattern],
    bound: &HashSet<String>,
) -> RunPlan {
    let entry_bound = |v: &str| bound.contains(v);
    // An exact count is an index walk, and the search asks for an
    // opening pattern's count once per subset (DP) or round (greedy)
    // it is still unbound in: probe each pattern at most once.
    let exact: Vec<OnceCell<usize>> = vec![OnceCell::new(); run.len()];
    let probe = |i: usize, is_bound: &dyn Fn(&str) -> bool| {
        estimator.estimate_with(run[i], is_bound, &|| {
            *exact[i].get_or_init(|| estimator.exact_count(run[i]))
        })
    };
    if run.len() <= MAX_DP_PATTERNS {
        dp_order(run, &entry_bound, &probe)
    } else {
        greedy_order(run, &entry_bound, &probe)
    }
}

/// The order for a run no [`Plan`] covers (every run of a one-shot
/// `execute`): the greedy search probing the cold-start
/// [`Estimator::heuristic`] — statistics reads only, no index walk, no
/// calibration. The evaluator asks for it at run entry, so this module
/// stays the only place a join order is decided.
pub(crate) fn cold_order(
    estimator: &Estimator<'_>,
    run: &[&TriplePattern],
    entry_bound: &dyn Fn(&str) -> bool,
) -> RunPlan {
    greedy_order(run, entry_bound, &|i, is_bound| {
        estimator.heuristic(run[i], is_bound)
    })
}

/// One DP state: the best (cheapest) way to have joined the subset of
/// patterns encoded by the state's index mask.
#[derive(Clone, Copy)]
struct DpState {
    /// Sum of intermediate result sizes along the best order.
    cost: f64,
    /// Estimated rows after joining the subset along the best order.
    rows: f64,
    /// Bitmask over run-local variables bound by the subset.
    varmask: u64,
    /// Last pattern joined (index into the run) on the best order.
    last: usize,
    /// The estimate recorded for that last step.
    est: f64,
}

fn dp_order(
    run: &[&TriplePattern],
    entry_bound: &dyn Fn(&str) -> bool,
    probe: Probe<'_>,
) -> RunPlan {
    let n = run.len();
    // Run-local variables (not bound on entry) get small ids so bound
    // sets inside the search are bitmasks, not string sets.
    let mut var_ids: HashMap<&str, usize> = HashMap::new();
    for p in run {
        for v in p.vars() {
            if !entry_bound(v) && !var_ids.contains_key(v) {
                let id = var_ids.len();
                var_ids.insert(v, id);
            }
        }
    }
    let var_bits: Vec<u64> = run
        .iter()
        .map(|p| {
            p.vars()
                .filter_map(|v| var_ids.get(v))
                .fold(0u64, |m, &id| m | (1 << id))
        })
        .collect();
    let step_estimate = |i: usize, varmask: u64| {
        probe(i, &|v: &str| {
            entry_bound(v) || var_ids.get(v).is_some_and(|&id| varmask & (1 << id) != 0)
        })
    };

    let full: usize = (1 << n) - 1;
    let mut best: Vec<Option<DpState>> = vec![None; full + 1];
    best[0] = Some(DpState {
        cost: 0.0,
        rows: 1.0,
        varmask: 0,
        last: usize::MAX,
        est: 0.0,
    });
    for mask in 1..=full {
        for (i, &bits) in var_bits.iter().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            let prev_mask = mask & !(1 << i);
            let Some(prev) = best[prev_mask] else {
                continue;
            };
            let est = step_estimate(i, prev.varmask);
            let rows = prev.rows * est.max(0.0);
            let cost = prev.cost + rows;
            let better = match &best[mask] {
                None => true,
                Some(cur) => cost < cur.cost,
            };
            if better {
                best[mask] = Some(DpState {
                    cost,
                    rows,
                    varmask: prev.varmask | bits,
                    last: i,
                    est,
                });
            }
        }
    }

    // Reconstruct the chosen order back-to-front along the `last` chain.
    let mut order = vec![0usize; n];
    let mut estimates = vec![0.0f64; n];
    let mut mask = full;
    let final_state = best[full].expect("full mask reachable");
    for k in (0..n).rev() {
        let state = best[mask].expect("prefix reachable");
        order[k] = state.last;
        estimates[k] = state.est;
        mask &= !(1 << state.last);
    }
    RunPlan {
        order,
        estimates,
        est_cost: final_state.cost,
    }
}

/// Greedy join order: repeatedly take the pattern `probe` estimates
/// smallest given the variables bound so far (the first such pattern
/// on a tie).
fn greedy_order(
    run: &[&TriplePattern],
    entry_bound: &dyn Fn(&str) -> bool,
    probe: Probe<'_>,
) -> RunPlan {
    let n = run.len();
    let mut joined: Vec<&str> = Vec::new();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    let mut estimates = Vec::with_capacity(n);
    let mut rows = 1.0f64;
    let mut cost = 0.0f64;
    while !remaining.is_empty() {
        let is_bound = |v: &str| entry_bound(v) || joined.contains(&v);
        let mut best_pos = 0;
        let mut best_est = f64::INFINITY;
        for (pos, &idx) in remaining.iter().enumerate() {
            let est = probe(idx, &is_bound);
            if est < best_est {
                best_est = est;
                best_pos = pos;
            }
        }
        let idx = remaining.remove(best_pos);
        rows *= best_est.max(0.0);
        cost += rows;
        order.push(idx);
        estimates.push(best_est);
        joined.extend(run[idx].vars());
    }
    RunPlan {
        order,
        estimates,
        est_cost: cost,
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn fnv1a_u64(seed: u64, value: u64) -> u64 {
    let mut hash = seed;
    for b in value.to_le_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_rdf::Triple;

    /// A store where the uniform heuristic misorders: `ex:tag`'s hot
    /// object matches 10k subjects while `ex:kind rare` matches 50.
    fn skewed_store() -> Store {
        let mut store = Store::new();
        for i in 0..10_000 {
            store.insert_default(&Triple::spo(
                &format!("http://ex/s{i}"),
                "http://ex/tag",
                Term::iri_unchecked("http://ex/popular"),
            ));
        }
        for i in 0..50 {
            store.insert_default(&Triple::spo(
                &format!("http://ex/s{i}"),
                "http://ex/kind",
                Term::iri_unchecked("http://ex/rare"),
            ));
        }
        // Pad ex:kind with unrelated objects so its predicate count
        // exceeds ex:tag's and the heuristic prefers ex:tag.
        for i in 0..30_000 {
            store.insert_default(&Triple::spo(
                &format!("http://ex/k{i}"),
                "http://ex/kind",
                Term::iri_unchecked(format!("http://ex/v{}", i % 7)),
            ));
        }
        store
    }

    const SKEW_QUERY: &str = "SELECT ?s WHERE { \
         ?s <http://ex/tag> <http://ex/popular> . \
         ?s <http://ex/kind> <http://ex/rare> . }";

    #[test]
    fn exact_probe_beats_heuristic_on_skew() {
        let store = skewed_store();
        let query = crate::parse(SKEW_QUERY).unwrap();
        let plan = plan_query(&store, &query, None);
        assert_eq!(plan.run_count(), 1);
        let run = plan.runs.values().next().unwrap();
        // The rare kind pattern (syntactic index 1) must open the run.
        assert_eq!(run.order[0], 1, "plan: {}", plan.render());
        assert_eq!(run.estimates[0], 50.0);
        assert!(run.applies_to(2));
    }

    #[test]
    fn run_keys_are_constant_insensitive() {
        let a = crate::parse("SELECT ?s WHERE { ?s <http://ex/p> \"alpha\" . }").unwrap();
        let b = crate::parse("SELECT ?s WHERE { ?s <http://ex/p> \"beta\" . }").unwrap();
        let (ta, tb) = match (&a.where_clause.elements[0], &b.where_clause.elements[0]) {
            (Element::Triple(x), Element::Triple(y)) => (x, y),
            _ => unreachable!(),
        };
        let none = |_: &str| false;
        assert_eq!(run_key(&[ta], &none), run_key(&[tb], &none));
        // Bound-variable context distinguishes keys.
        let bound = |v: &str| v == "s";
        assert_ne!(run_key(&[ta], &none), run_key(&[ta], &bound));
    }

    #[test]
    fn calibration_scales_heuristic_estimates() {
        let store = skewed_store();
        let profile = CardinalityProfile::new();
        // Observed: ex:tag probes produce 8× the estimate.
        profile.observe("http://ex/tag", 10.0, 80);
        profile.observe("http://ex/tag", 10.0, 80);
        let plain = Estimator::new(&store);
        let calibrated = Estimator::with_calibration(&store, &profile);
        let query = crate::parse(SKEW_QUERY).unwrap();
        let Element::Triple(tag) = &query.where_clause.elements[0] else {
            unreachable!()
        };
        let s_bound = |v: &str| v == "s";
        let h = plain.estimate(tag, &s_bound);
        let c = calibrated.estimate(tag, &s_bound);
        assert!(h > 0.0);
        assert!(
            (c / h - 8.0).abs() < 1e-9,
            "expected 8x scale, got {}",
            c / h
        );
    }

    #[test]
    fn plan_id_changes_with_epoch() {
        let mut store = skewed_store();
        let query = crate::parse(SKEW_QUERY).unwrap();
        let before = plan_query(&store, &query, None);
        store.insert_default(&Triple::spo(
            "http://ex/x",
            "http://ex/tag",
            Term::iri_unchecked("http://ex/popular"),
        ));
        let after = plan_query(&store, &query, None);
        assert_ne!(before.epoch(), after.epoch());
        assert_ne!(before.id(), after.id());
    }

    #[test]
    fn applies_to_rejects_malformed_permutations() {
        let rp = RunPlan {
            order: vec![0, 0],
            estimates: vec![1.0, 1.0],
            est_cost: 2.0,
        };
        assert!(!rp.applies_to(2));
        let rp = RunPlan {
            order: vec![1, 0],
            estimates: vec![1.0, 1.0],
            est_cost: 2.0,
        };
        assert!(rp.applies_to(2));
        assert!(!rp.applies_to(3));
    }
}
