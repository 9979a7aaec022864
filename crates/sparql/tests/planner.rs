//! End-to-end planner lifecycle: cost-based join ordering reacting to
//! data skew, and drift-driven invalidation of cached plans.

use std::sync::Arc;

use lodify_rdf::{Term, Triple};
use lodify_sparql::{evaluate_planned, plan_query, EvalOptions, PlanCache, PlanLookup};
use lodify_store::Store;

const QUERY: &str = "SELECT ?s WHERE { \
    ?s <http://ex/tag> <http://ex/popular> . \
    ?s <http://ex/kind> <http://ex/rare> . }";

fn insert(store: &mut Store, s: &str, p: &str, o: &str) {
    store.insert_default(&Triple::spo(s, p, Term::iri_unchecked(o.to_string())));
}

/// Skewed inserts flip the chosen join order, and the stale cached
/// plan — now misestimating by orders of magnitude — is invalidated by
/// the drift feedback loop so the next request replans.
#[test]
fn skewed_inserts_flip_join_order_and_invalidate_the_cached_plan() {
    let mut store = Store::new();
    // Balanced start: both patterns match a handful of subjects, and
    // `tag` is slightly the rarer predicate — the planner opens there.
    for i in 0..4 {
        insert(
            &mut store,
            &format!("http://ex/s{i}"),
            "http://ex/tag",
            "http://ex/popular",
        );
    }
    for i in 0..8 {
        insert(
            &mut store,
            &format!("http://ex/s{i}"),
            "http://ex/kind",
            "http://ex/rare",
        );
    }

    let parsed = Arc::new(lodify_sparql::parse(QUERY).unwrap());
    let fingerprint = lodify_sparql::fingerprint(QUERY);
    let cache = PlanCache::with_limits(16, 8.0);

    let balanced = Arc::new(plan_query(&store, &parsed, None));
    let balanced_run = balanced.runs().values().next().expect("one run");
    assert_eq!(balanced_run.order[0], 0, "balanced store opens on tag");
    cache.insert(
        &fingerprint,
        QUERY,
        Arc::clone(&parsed),
        Arc::clone(&balanced),
    );

    // Skew: the popular tag explodes to thousands of subjects while
    // the rare kind stays tiny. The cached order now starts from the
    // huge side.
    for i in 0..4_000 {
        insert(
            &mut store,
            &format!("http://ex/p{i}"),
            "http://ex/tag",
            "http://ex/popular",
        );
    }

    // A replan on the skewed store flips the order and (the epoch
    // having moved) the plan id.
    let replanned = plan_query(&store, &parsed, None);
    let replanned_run = replanned.runs().values().next().expect("one run");
    assert_eq!(replanned_run.order[0], 1, "skewed store opens on kind");
    assert_ne!(replanned.id(), balanced.id(), "plan id tracks the change");

    // Executing the stale cached plan still answers correctly — plans
    // only order joins — but reports drift far past the threshold...
    let stale = match cache.lookup(&fingerprint, QUERY) {
        PlanLookup::Hit { plan, .. } => plan,
        other => panic!("expected cached hit, got {other:?}"),
    };
    let (rows, report) = evaluate_planned(&store, &parsed, EvalOptions::default(), &stale).unwrap();
    assert_eq!(rows.len(), 4, "stale plan is slow, never wrong");
    assert!(report.planned_runs > 0, "the stale plan was actually used");
    assert!(
        report.plan_drift >= cache.drift_threshold(),
        "drift {} must cross the threshold {}",
        report.plan_drift,
        cache.drift_threshold()
    );

    // ...which evicts the entry, so the next request replans fresh.
    assert!(cache.note_drift(&fingerprint, report.plan_drift));
    assert!(matches!(
        cache.lookup(&fingerprint, QUERY),
        PlanLookup::Miss
    ));
    assert_eq!(cache.stats().invalidations, 1);
}

/// The planned evaluator and the default greedy evaluator agree on the
/// answer whichever side of the skew the statistics are on.
#[test]
fn planned_and_greedy_agree_before_and_after_skew() {
    let mut store = Store::new();
    for i in 0..6 {
        insert(
            &mut store,
            &format!("http://ex/s{i}"),
            "http://ex/tag",
            "http://ex/popular",
        );
        insert(
            &mut store,
            &format!("http://ex/s{i}"),
            "http://ex/kind",
            "http://ex/rare",
        );
    }
    let parsed = lodify_sparql::parse(QUERY).unwrap();
    for round in 0..2 {
        let greedy = lodify_sparql::execute(&store, QUERY).unwrap().to_table();
        let plan = plan_query(&store, &parsed, None);
        let (rows, _) = evaluate_planned(&store, &parsed, EvalOptions::default(), &plan).unwrap();
        assert_eq!(rows.to_table(), greedy, "round {round}");
        for i in 0..2_000 {
            insert(
                &mut store,
                &format!("http://ex/p{i}"),
                "http://ex/tag",
                "http://ex/popular",
            );
        }
    }
}

/// The subset DP probes each pattern's exact count once and reuses it;
/// the plan must still be the C_out optimum under the public,
/// un-memoised [`Estimator::estimate`] — checked against all 24
/// orders of a four-pattern run mixing opening and probing patterns.
#[test]
fn dp_plan_is_the_brute_force_optimum_under_the_public_probe() {
    use lodify_sparql::ast::{Element, TriplePattern};
    use lodify_sparql::Estimator;

    let mut store = Store::new();
    for i in 0..300 {
        let s = format!("http://ex/s{i}");
        insert(&mut store, &s, "http://ex/tag", "http://ex/popular");
        if i % 7 == 0 {
            insert(&mut store, &s, "http://ex/kind", "http://ex/rare");
        }
        insert(
            &mut store,
            &s,
            "http://ex/maker",
            &format!("http://ex/u{}", i % 5),
        );
    }
    for u in 0..5 {
        insert(
            &mut store,
            &format!("http://ex/u{u}"),
            "http://ex/knows",
            "http://ex/u0",
        );
    }
    let query = "SELECT ?s ?u WHERE { \
        ?s <http://ex/tag> <http://ex/popular> . \
        ?s <http://ex/kind> <http://ex/rare> . \
        ?s <http://ex/maker> ?u . \
        ?u <http://ex/knows> <http://ex/u0> . }";
    let parsed = lodify_sparql::parse(query).unwrap();
    let run: Vec<&TriplePattern> = parsed
        .where_clause
        .elements
        .iter()
        .map(|e| match e {
            Element::Triple(t) => t,
            other => panic!("BGP only, got {other:?}"),
        })
        .collect();

    // C_out of one order, with the estimates it was built from.
    let estimator = Estimator::new(&store);
    let cost_of = |order: &[usize]| -> (f64, Vec<f64>) {
        let (mut rows, mut cost, mut estimates) = (1.0f64, 0.0f64, Vec::new());
        for (k, &idx) in order.iter().enumerate() {
            let joined = &order[..k];
            let est = estimator.estimate(run[idx], &|v: &str| {
                joined.iter().any(|&j| run[j].vars().any(|x| x == v))
            });
            rows *= est.max(0.0);
            cost += rows;
            estimates.push(est);
        }
        (cost, estimates)
    };
    let mut best = f64::INFINITY;
    let mut order = [0usize, 1, 2, 3];
    // Heap's algorithm, iteratively.
    let mut c = [0usize; 4];
    best = best.min(cost_of(&order).0);
    let mut i = 0;
    while i < 4 {
        if c[i] < i {
            order.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
            best = best.min(cost_of(&order).0);
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }

    let plan = plan_query(&store, &parsed, None);
    let planned = plan.runs().values().next().expect("one run");
    let (cost, estimates) = cost_of(&planned.order);
    assert_eq!(planned.estimates, estimates, "{}", plan.render());
    assert_eq!(planned.est_cost, cost, "{}", plan.render());
    assert_eq!(cost, best, "{}", plan.render());
}
