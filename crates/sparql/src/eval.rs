//! Query evaluation: index-nested-loop BGP joins, OPTIONAL/UNION/
//! subselects, filters with SPARQL error semantics, aggregation, and
//! solution modifiers.
//!
//! The evaluator decides no join order. Each BGP run executes a
//! [`RunPlan`](crate::plan::RunPlan): the [`Plan`]'s when it covers the
//! run's entry key, otherwise the one [`crate::plan`] computes cold at
//! run entry — so [`evaluate_planned`] with `Plan::default()` *is* the
//! unplanned engine, not a second one. Every step runs on the calling
//! thread: a pattern probes the whole batch of bindings, a filter is
//! one `retain` over it.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use lodify_rdf::ns::PrefixMap;
use lodify_rdf::{Literal, Term};
use lodify_store::{Store, TermId};

use crate::ast::*;
use crate::error::SparqlError;
use crate::expr::{self, ExprError};
use crate::plan::{cold_order, run_key, Estimator, Plan};
use crate::profile::{EvalProfile, OperatorKind, OperatorProfile, WallTimer};
use crate::results::QueryResults;

/// Evaluation options: none. The type has no fields and exists for one
/// reason — the ledger (`benchmark/`, which an engine PR may not edit)
/// passes `EvalOptions::default()` as [`evaluate_planned`]'s third
/// argument. The next benchmark-only PR (ROADMAP item 1) may drop the
/// argument and this type with it; per-query row and time budgets
/// (ROADMAP item 5c) are the only thing that would give it fields.
/// (Braced rather than a unit struct so that `EvalOptions::default()`,
/// the spelling every caller uses, stays clippy-clean.)
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalOptions {}

/// What one evaluation did, beside its rows.
#[derive(Debug, Clone, Default)]
pub struct EvalReport {
    /// The store's mutation epoch the query evaluated at. Under MVCC
    /// this pins the answer's provenance: two evaluations reporting the
    /// same `store_epoch` are guaranteed byte-identical, and a cache
    /// keyed on this value revalidates without re-running the query.
    pub store_epoch: u64,
    /// Per-operator execution profile: one entry per scan/join/filter/
    /// sort the engine ran, with estimated vs. actual cardinality and
    /// wall time. Feeds the slow-query breakdown and the per-predicate
    /// [`CardinalityProfile`](crate::profile::CardinalityProfile).
    pub profile: EvalProfile,
    /// BGP runs that executed an order taken from the [`Plan`] (zero
    /// when the plan covers no run — `Plan::default()` — or every run
    /// key missed it and was ordered cold).
    pub planned_runs: u64,
    /// Worst per-operator estimated-vs-actual ratio over the planned
    /// steps (`max(actual/est, est/actual)`, both floored at 1). The
    /// plan cache invalidates entries whose drift crosses its
    /// threshold. `0.0` when no planned run executed.
    pub plan_drift: f64,
}

/// Evaluates a parsed query — the one way in. Each BGP run whose
/// [`run_key`] the [`Plan`] covers executes in the planned order, with
/// the plan's estimates feeding the operator profile (so est-vs-actual
/// drift is measured against the plan); a run the plan does not cover
/// — every run, under `Plan::default()` — is ordered at run entry by
/// the planner's cold-start greedy. Results are byte-identical whatever
/// the plan: it only changes the join order inside BGP runs, which
/// never changes the result set, and the final projection/sort
/// pipeline is shared.
pub fn evaluate_planned(
    store: &Store,
    query: &Query,
    _options: EvalOptions,
    plan: &Plan,
) -> Result<(QueryResults, EvalReport), SparqlError> {
    let ev = Evaluator {
        store,
        estimator: Estimator::new(store),
        plan,
        report: RefCell::new(EvalReport::default()),
    };
    let results = if query_has_aggregates(query) {
        ev.evaluate_aggregate(query)?
    } else {
        ev.evaluate_ids(query)?.into_results(store)
    };
    let mut report = ev.report.into_inner();
    report.store_epoch = store.epoch();
    Ok((results, report))
}

fn query_has_aggregates(query: &Query) -> bool {
    !query.group_by.is_empty()
        || matches!(&query.select.projection, Projection::Items(items)
            if items.iter().any(|i| matches!(i, ProjectionItem::Count { .. })))
}

/// A partial solution: one optional term id per registry slot.
type Binding = Vec<Option<TermId>>;

/// Variable-name ↔ slot registry for one query scope.
#[derive(Debug, Default)]
struct Registry {
    names: Vec<String>,
    index: HashMap<String, usize>,
    /// Variables visible to `SELECT *`, in first-seen order.
    visible: Vec<String>,
}

impl Registry {
    fn build(query: &Query) -> Registry {
        let mut reg = Registry::default();
        reg.walk_group(&query.where_clause);
        if let Projection::Items(items) = &query.select.projection {
            for item in items {
                match item {
                    ProjectionItem::Var(v) => {
                        reg.add(v);
                    }
                    ProjectionItem::Count { var, alias, .. } => {
                        if let Some(v) = var {
                            reg.add(v);
                        }
                        reg.add(alias);
                    }
                }
            }
        }
        for v in &query.group_by {
            reg.add(v);
        }
        for key in &query.order_by {
            let mut vars = Vec::new();
            key.expr.collect_vars(&mut vars);
            for v in vars {
                reg.add(v);
            }
        }
        reg
    }

    fn add(&mut self, name: &str) -> usize {
        if let Some(&slot) = self.index.get(name) {
            return slot;
        }
        let slot = self.names.len();
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), slot);
        slot
    }

    fn add_visible(&mut self, name: &str) -> usize {
        let slot = self.add(name);
        if !self.visible.iter().any(|v| v == name) {
            self.visible.push(name.to_string());
        }
        slot
    }

    fn slot(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    fn walk_group(&mut self, group: &Group) {
        for element in &group.elements {
            match element {
                Element::Triple(t) => {
                    for v in t.vars() {
                        self.add_visible(v);
                    }
                }
                Element::Filter(e) => {
                    let mut vars = Vec::new();
                    e.collect_vars(&mut vars);
                    for v in vars {
                        self.add(v);
                    }
                }
                Element::Optional(g) | Element::SubGroup(g) => self.walk_group(g),
                Element::Union(branches) => {
                    for b in branches {
                        self.walk_group(b);
                    }
                }
                Element::SubSelect(q) => {
                    for v in subquery_projected_vars(q) {
                        self.add_visible(&v);
                    }
                }
            }
        }
    }
}

/// The variables a subquery projects (visible to the outer scope).
fn subquery_projected_vars(q: &Query) -> Vec<String> {
    match &q.select.projection {
        Projection::Items(items) => items
            .iter()
            .map(|i| match i {
                ProjectionItem::Var(v) => v.clone(),
                ProjectionItem::Count { alias, .. } => alias.clone(),
            })
            .collect(),
        Projection::All => {
            let reg = Registry::build(q);
            reg.visible
        }
    }
}

/// Internal id-level results (used for subselect joins).
struct IdResults {
    vars: Vec<String>,
    rows: Vec<Vec<Option<TermId>>>,
}

impl IdResults {
    fn into_results(self, store: &Store) -> QueryResults {
        let rows = self
            .rows
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|cell| cell.and_then(|id| store.term_of(id).cloned()))
                    .collect()
            })
            .collect();
        QueryResults {
            vars: self.vars,
            rows,
        }
    }
}

struct Evaluator<'s> {
    store: &'s Store,
    /// The one cardinality probe API ([`crate::plan::Estimator`]):
    /// cold ordering and the planner both estimate through it, so
    /// they can never disagree.
    estimator: Estimator<'s>,
    /// The plan to follow; runs it does not cover are ordered cold.
    plan: &'s Plan,
    report: RefCell<EvalReport>,
}

impl<'s> Evaluator<'s> {
    // ---------- top-level pipelines ----------

    fn evaluate_ids(&self, query: &Query) -> Result<IdResults, SparqlError> {
        let reg = Registry::build(query);
        let empty: Binding = vec![None; reg.names.len()];
        let mut solutions = self.eval_group(&query.where_clause, vec![empty], &reg)?;

        self.sort_solutions(&mut solutions, &query.order_by, &reg)?;

        let projected_vars: Vec<String> = match &query.select.projection {
            Projection::All => reg.visible.clone(),
            Projection::Items(items) => items
                .iter()
                .map(|i| match i {
                    ProjectionItem::Var(v) => Ok(v.clone()),
                    ProjectionItem::Count { .. } => Err(SparqlError::Unsupported(
                        "COUNT in subquery or non-aggregate path".into(),
                    )),
                })
                .collect::<Result<_, _>>()?,
        };
        let slots: Vec<usize> = projected_vars
            .iter()
            .map(|v| reg.slot(v).expect("projected var registered"))
            .collect();

        let mut rows: Vec<Vec<Option<TermId>>> = solutions
            .into_iter()
            .map(|b| slots.iter().map(|&s| b[s]).collect())
            .collect();

        if query.select.distinct {
            let mut seen = HashSet::new();
            rows.retain(|row| seen.insert(row.clone()));
        }
        if query.order_by.is_empty() {
            // Without ORDER BY the raw row order would leak the join
            // order — cold and planned evaluation must stay
            // byte-identical, so pin a canonical term order (layout-
            // independent: terms compare by value, not by id).
            rows.sort_by(|a, b| {
                let key = |row: &[Option<TermId>]| {
                    row.iter()
                        .map(|cell| cell.and_then(|id| self.store.term_of(id)))
                        .collect::<Vec<_>>()
                };
                key(a).cmp(&key(b))
            });
        }
        apply_slice(&mut rows, query.offset, query.limit);

        Ok(IdResults {
            vars: projected_vars,
            rows,
        })
    }

    fn evaluate_aggregate(&self, query: &Query) -> Result<QueryResults, SparqlError> {
        let reg = Registry::build(query);
        let empty: Binding = vec![None; reg.names.len()];
        let solutions = self.eval_group(&query.where_clause, vec![empty], &reg)?;

        let Projection::Items(items) = &query.select.projection else {
            return Err(SparqlError::Unsupported("SELECT * with GROUP BY".into()));
        };
        let group_slots: Vec<usize> = query
            .group_by
            .iter()
            .map(|v| reg.slot(v).expect("group var registered"))
            .collect();
        for item in items {
            if let ProjectionItem::Var(v) = item {
                if !query.group_by.contains(v) {
                    return Err(SparqlError::Eval(format!(
                        "variable ?{v} projected but not in GROUP BY"
                    )));
                }
            }
        }

        // Group solutions preserving first-seen group order.
        let mut order: Vec<Vec<Option<TermId>>> = Vec::new();
        let mut groups: HashMap<Vec<Option<TermId>>, Vec<Binding>> = HashMap::new();
        for b in solutions {
            let key: Vec<Option<TermId>> = group_slots.iter().map(|&s| b[s]).collect();
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(b);
        }
        // Aggregates without GROUP BY over zero rows still yield one row.
        if group_slots.is_empty() && order.is_empty() {
            order.push(Vec::new());
            groups.insert(Vec::new(), Vec::new());
        }

        let vars: Vec<String> = items
            .iter()
            .map(|i| match i {
                ProjectionItem::Var(v) => v.clone(),
                ProjectionItem::Count { alias, .. } => alias.clone(),
            })
            .collect();

        let mut out_rows: Vec<Vec<Option<Term>>> = Vec::with_capacity(order.len());
        for key in &order {
            let members = &groups[key];
            let mut row: Vec<Option<Term>> = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    ProjectionItem::Var(v) => {
                        let pos = query.group_by.iter().position(|g| g == v).expect("checked");
                        row.push(key[pos].and_then(|id| self.store.term_of(id).cloned()));
                    }
                    ProjectionItem::Count { var, distinct, .. } => {
                        let n = match var {
                            None => {
                                if *distinct {
                                    members.iter().collect::<HashSet<_>>().len()
                                } else {
                                    members.len()
                                }
                            }
                            Some(v) => {
                                let slot = reg.slot(v).expect("registered");
                                if *distinct {
                                    members
                                        .iter()
                                        .filter_map(|b| b[slot])
                                        .collect::<HashSet<_>>()
                                        .len()
                                } else {
                                    members.iter().filter(|b| b[slot].is_some()).count()
                                }
                            }
                        };
                        row.push(Some(Term::Literal(Literal::integer(n as i64))));
                    }
                }
            }
            out_rows.push(row);
        }

        // ORDER BY over the aggregated rows (aliases resolvable).
        // Key variables resolve to projected-column indices once, not
        // through a per-row name → term map.
        if !query.order_by.is_empty() {
            let compiled: Vec<Vec<(&str, Option<usize>)>> = query
                .order_by
                .iter()
                .map(|k| {
                    let mut names = Vec::new();
                    k.expr.collect_vars(&mut names);
                    names.sort_unstable();
                    names.dedup();
                    names
                        .into_iter()
                        .map(|n| (n, vars.iter().position(|v| v.as_str() == n)))
                        .collect()
                })
                .collect();
            let mut keyed: Vec<(Vec<SortKey>, Vec<Option<Term>>)> = out_rows
                .into_iter()
                .map(|row| {
                    let keys = query
                        .order_by
                        .iter()
                        .zip(&compiled)
                        .map(|(k, cols)| {
                            let lookup = |name: &str| -> Option<&Term> {
                                compiled_slot(cols, name).and_then(|c| row[c].as_ref())
                            };
                            sort_key(&k.expr, &lookup)
                        })
                        .collect();
                    (keys, row)
                })
                .collect();
            sort_keyed(&mut keyed, &query.order_by);
            out_rows = keyed.into_iter().map(|(_, row)| row).collect();
        }

        if query.select.distinct {
            let mut seen = HashSet::new();
            out_rows.retain(|row| {
                let key: Vec<String> = row
                    .iter()
                    .map(|c| c.as_ref().map(|t| t.to_string()).unwrap_or_default())
                    .collect();
                seen.insert(key)
            });
        }
        apply_slice(&mut out_rows, query.offset, query.limit);

        Ok(QueryResults {
            vars,
            rows: out_rows,
        })
    }

    // ---------- group evaluation ----------

    fn eval_group(
        &self,
        group: &Group,
        input: Vec<Binding>,
        reg: &Registry,
    ) -> Result<Vec<Binding>, SparqlError> {
        // Surely-bound slots: bound in every input binding.
        let mut bound: HashSet<usize> = match input.first() {
            None => return Ok(Vec::new()),
            Some(first) => (0..first.len())
                .filter(|&s| input.iter().all(|b| b[s].is_some()))
                .collect(),
        };

        // Filters wait until their variables are surely bound (or the
        // end of the group).
        let mut pending: Vec<(&Expr, HashSet<usize>)> = Vec::new();
        for element in &group.elements {
            if let Element::Filter(e) = element {
                let mut vars = Vec::new();
                e.collect_vars(&mut vars);
                let slots = vars
                    .into_iter()
                    .filter_map(|v| reg.slot(v))
                    .collect::<HashSet<_>>();
                pending.push((e, slots));
            }
        }
        let mut applied = vec![false; pending.len()];

        let mut solutions = input;
        let elements: Vec<&Element> = group
            .elements
            .iter()
            .filter(|e| !matches!(e, Element::Filter(_)))
            .collect();

        let mut i = 0;
        while i < elements.len() {
            match elements[i] {
                Element::Triple(_) => {
                    // Collect the contiguous run of triple patterns.
                    let mut run: Vec<&TriplePattern> = Vec::new();
                    while i < elements.len() {
                        if let Element::Triple(t) = elements[i] {
                            run.push(t);
                            i += 1;
                        } else {
                            break;
                        }
                    }
                    // The join order and per-step estimates come from
                    // the plan when it covers this run (matched by its
                    // entry key, computed with the function the planner
                    // used), otherwise from the planner's cold order.
                    // A malformed permutation counts as not covered:
                    // any order is correct, a plan is only ever faster.
                    // A plan covering nothing costs no key.
                    let is_bound = |v: &str| reg.slot(v).is_some_and(|s| bound.contains(&s));
                    let planned = (self.plan.run_count() > 0)
                        .then(|| run_key(&run, &is_bound))
                        .and_then(|key| self.plan.run(&key))
                        .filter(|rp| rp.applies_to(run.len()));
                    let cold;
                    let run_plan = match planned {
                        Some(rp) => {
                            self.report.borrow_mut().planned_runs += 1;
                            rp
                        }
                        None => {
                            cold = cold_order(&self.estimator, &run, &is_bound);
                            &cold
                        }
                    };
                    let ordered: Vec<&TriplePattern> =
                        run_plan.order.iter().map(|&idx| run[idx]).collect();
                    for (k, pattern) in ordered.iter().enumerate() {
                        let estimated = run_plan.estimates[k];
                        let input_rows = solutions.len() as u64;
                        let timer = WallTimer::start();
                        solutions = self.match_pattern(pattern, solutions, reg)?;
                        self.report.borrow_mut().profile.push(OperatorProfile {
                            kind: if k == 0 {
                                OperatorKind::Scan
                            } else {
                                OperatorKind::Join
                            },
                            label: describe_pattern(pattern),
                            predicate: constant_predicate(pattern),
                            estimated_rows: estimated,
                            input_rows,
                            output_rows: solutions.len() as u64,
                            elapsed_us: timer.elapsed_us(),
                        });
                        if planned.is_some() {
                            // Symmetric drift ratio of this planned
                            // step, floored at 1 row on both sides so
                            // empty results don't divide by zero.
                            let est = estimated.max(1.0);
                            let actual = (solutions.len() as f64).max(1.0);
                            let drift = (actual / est).max(est / actual);
                            let mut report = self.report.borrow_mut();
                            report.plan_drift = report.plan_drift.max(drift);
                        }
                        for v in pattern.vars() {
                            if let Some(slot) = reg.slot(v) {
                                bound.insert(slot);
                            }
                        }
                        self.apply_ready_filters(
                            &mut solutions,
                            &pending,
                            &mut applied,
                            &bound,
                            reg,
                        );
                        if solutions.is_empty() {
                            break;
                        }
                    }
                }
                Element::Optional(g) => {
                    let mut next = Vec::with_capacity(solutions.len());
                    for b in &solutions {
                        let extended = self.eval_group(g, vec![b.clone()], reg)?;
                        if extended.is_empty() {
                            next.push(b.clone());
                        } else {
                            next.extend(extended);
                        }
                    }
                    solutions = next;
                    i += 1;
                }
                Element::Union(branches) => {
                    let mut next = Vec::new();
                    for branch in branches {
                        next.extend(self.eval_group(branch, solutions.clone(), reg)?);
                    }
                    solutions = next;
                    i += 1;
                }
                Element::SubGroup(g) => {
                    solutions = self.eval_group(g, solutions, reg)?;
                    i += 1;
                }
                Element::SubSelect(q) => {
                    let sub = if query_has_aggregates(q) {
                        // Aggregated subselect: evaluate to terms, then
                        // re-intern known terms; synthesized counts that
                        // were never stored can't join on id, so we
                        // reject them for safety.
                        return Err(SparqlError::Unsupported(
                            "aggregate subqueries are not supported".into(),
                        ));
                    } else {
                        self.evaluate_ids(q)?
                    };
                    solutions = join_subselect(solutions, &sub, reg);
                    i += 1;
                }
                Element::Filter(_) => unreachable!("filters were partitioned out"),
            }
            self.apply_ready_filters(&mut solutions, &pending, &mut applied, &bound, reg);
        }

        // Remaining filters apply at group end, whatever is bound.
        for (idx, (e, _)) in pending.iter().enumerate() {
            if !applied[idx] {
                self.retain_filter(&mut solutions, e, reg);
            }
        }
        Ok(solutions)
    }

    fn apply_ready_filters(
        &self,
        solutions: &mut Vec<Binding>,
        pending: &[(&Expr, HashSet<usize>)],
        applied: &mut [bool],
        bound: &HashSet<usize>,
        reg: &Registry,
    ) {
        for (idx, (e, slots)) in pending.iter().enumerate() {
            if !applied[idx] && slots.is_subset(bound) {
                self.retain_filter(solutions, e, reg);
                applied[idx] = true;
            }
        }
    }

    fn retain_filter(&self, solutions: &mut Vec<Binding>, filter: &Expr, reg: &Registry) {
        // Variable → slot resolution happens once per filter, not once
        // per row: per-row lookups are a scan of this (tiny) table
        // instead of a string hash into the registry.
        let slots = compile_slots(filter, reg);
        let input_rows = solutions.len() as u64;
        let timer = WallTimer::start();
        solutions.retain(|b| {
            let lookup = |name: &str| -> Option<&Term> {
                compiled_slot(&slots, name)
                    .and_then(|slot| b[slot])
                    .and_then(|id| self.store.term_of(id))
            };
            match expr::eval(filter, &lookup).and_then(|v| v.ebv()) {
                Ok(keep) => keep,
                // SPARQL: filter errors (incl. unbound vars) reject the row.
                Err(ExprError::Unbound(_)) | Err(ExprError::Type(_)) => false,
            }
        });
        let vars: Vec<String> = slots.iter().map(|(n, _)| format!("?{n}")).collect();
        self.report.borrow_mut().profile.push(OperatorProfile {
            kind: OperatorKind::Filter,
            label: format!("filter({})", vars.join(", ")),
            predicate: None,
            // No filter selectivity model yet: the estimate is the
            // input batch, so `misestimate` reads as pass-through rate.
            estimated_rows: input_rows as f64,
            input_rows,
            output_rows: solutions.len() as u64,
            elapsed_us: timer.elapsed_us(),
        });
    }

    fn match_pattern(
        &self,
        pattern: &TriplePattern,
        solutions: Vec<Binding>,
        reg: &Registry,
    ) -> Result<Vec<Binding>, SparqlError> {
        enum Slot {
            Const(TermId),
            Missing,
            Var(usize),
        }
        let prepare = |tov: &TermOrVar| -> Slot {
            match tov {
                TermOrVar::Term(t) => match self.store.id_of(t) {
                    Some(id) => Slot::Const(id),
                    None => Slot::Missing,
                },
                TermOrVar::Var(v) => Slot::Var(reg.slot(v).expect("var registered")),
            }
        };
        let s_slot = prepare(&pattern.subject);
        let p_slot = prepare(&pattern.predicate);
        let o_slot = prepare(&pattern.object);
        if matches!(s_slot, Slot::Missing)
            || matches!(p_slot, Slot::Missing)
            || matches!(o_slot, Slot::Missing)
        {
            return Ok(Vec::new());
        }

        let query_pos = |slot: &Slot, b: &Binding| -> Option<TermId> {
            match slot {
                Slot::Const(id) => Some(*id),
                Slot::Var(s) => b[*s],
                Slot::Missing => unreachable!(),
            }
        };
        let assign = |slot: &Slot, value: TermId, b: &mut Binding| -> bool {
            match slot {
                Slot::Const(_) => true,
                Slot::Var(s) => match b[*s] {
                    Some(existing) => existing == value,
                    None => {
                        b[*s] = Some(value);
                        true
                    }
                },
                Slot::Missing => unreachable!(),
            }
        };

        let mut out = Vec::new();
        for b in &solutions {
            let sq = query_pos(&s_slot, b);
            let pq = query_pos(&p_slot, b);
            let oq = query_pos(&o_slot, b);
            for (s, p, o) in self.store.match_ids(sq, pq, oq) {
                let mut nb = b.clone();
                if assign(&s_slot, s, &mut nb)
                    && assign(&p_slot, p, &mut nb)
                    && assign(&o_slot, o, &mut nb)
                {
                    out.push(nb);
                }
            }
        }
        Ok(out)
    }

    fn sort_solutions(
        &self,
        solutions: &mut [Binding],
        order_by: &[OrderKey],
        reg: &Registry,
    ) -> Result<(), SparqlError> {
        if order_by.is_empty() {
            return Ok(());
        }
        let timer = WallTimer::start();
        // Slots compile once per key; each binding is *moved* into the
        // keyed vector (`mem::take` leaves an empty Vec behind) and
        // moved back after the sort — no full-batch clone.
        let compiled: Vec<Vec<(&str, Option<usize>)>> = order_by
            .iter()
            .map(|k| compile_slots(&k.expr, reg))
            .collect();
        let mut keyed: Vec<(Vec<SortKey>, Binding)> = solutions
            .iter_mut()
            .map(|slot| {
                let b = std::mem::take(slot);
                let keys = order_by
                    .iter()
                    .zip(&compiled)
                    .map(|(k, slots)| {
                        let lookup = |name: &str| -> Option<&Term> {
                            compiled_slot(slots, name)
                                .and_then(|slot| b[slot])
                                .and_then(|id| self.store.term_of(id))
                        };
                        sort_key(&k.expr, &lookup)
                    })
                    .collect();
                (keys, b)
            })
            .collect();
        sort_keyed(&mut keyed, order_by);
        for (dst, (_, b)) in solutions.iter_mut().zip(keyed) {
            *dst = b;
        }
        let rows = solutions.len() as u64;
        self.report.borrow_mut().profile.push(OperatorProfile {
            kind: OperatorKind::Sort,
            label: format!("sort({} key{})", order_by.len(), plural(order_by.len())),
            predicate: None,
            estimated_rows: rows as f64,
            input_rows: rows,
            output_rows: rows,
            elapsed_us: timer.elapsed_us(),
        });
        Ok(())
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// The constant predicate IRI of a pattern, if it has one — the key
/// cardinality profiling aggregates under.
fn constant_predicate(pattern: &TriplePattern) -> Option<String> {
    match &pattern.predicate {
        TermOrVar::Term(Term::Iri(iri)) => Some(iri.as_str().to_string()),
        _ => None,
    }
}

/// Joins outer bindings with subselect rows on shared variables.
fn join_subselect(input: Vec<Binding>, sub: &IdResults, reg: &Registry) -> Vec<Binding> {
    let slots: Vec<Option<usize>> = sub.vars.iter().map(|v| reg.slot(v)).collect();
    let mut out = Vec::new();
    for b in &input {
        'rows: for row in &sub.rows {
            let mut nb = b.clone();
            for (cell, slot) in row.iter().zip(&slots) {
                let Some(slot) = slot else { continue };
                match (nb[*slot], cell) {
                    (Some(existing), Some(value)) if existing != *value => continue 'rows,
                    (None, Some(value)) => nb[*slot] = Some(*value),
                    _ => {}
                }
            }
            out.push(nb);
        }
    }
    out
}

/// Resolves an expression's variables to registry slots **once**, so
/// row-level lookups scan this (tiny, deduplicated) table instead of
/// hashing the variable name per row. An expression references one or
/// two variables in practice; the scan beats the hash.
fn compile_slots<'a>(expr: &'a Expr, reg: &Registry) -> Vec<(&'a str, Option<usize>)> {
    let mut names = Vec::new();
    expr.collect_vars(&mut names);
    names.sort_unstable();
    names.dedup();
    names.into_iter().map(|n| (n, reg.slot(n))).collect()
}

/// Looks a variable up in a compiled slot table.
fn compiled_slot(slots: &[(&str, Option<usize>)], name: &str) -> Option<usize> {
    slots
        .iter()
        .find(|(n, _)| *n == name)
        .and_then(|(_, slot)| *slot)
}

/// Orderable key for ORDER BY: unbound < numbers < strings.
#[derive(Debug, Clone, PartialEq)]
enum SortKey {
    Unbound,
    Num(f64),
    Str(String),
}

fn sort_key<'a, F>(expr: &Expr, lookup: &F) -> SortKey
where
    F: Fn(&str) -> Option<&'a Term>,
{
    match expr::eval(expr, lookup) {
        Err(_) => SortKey::Unbound,
        Ok(v) => match v.as_num() {
            Some(n) => SortKey::Num(n),
            None => v
                .as_str_value()
                .map(SortKey::Str)
                .unwrap_or(SortKey::Unbound),
        },
    }
}

fn cmp_keys(a: &SortKey, b: &SortKey) -> std::cmp::Ordering {
    use std::cmp::Ordering::*;
    match (a, b) {
        (SortKey::Unbound, SortKey::Unbound) => Equal,
        (SortKey::Unbound, _) => Less,
        (_, SortKey::Unbound) => Greater,
        (SortKey::Num(x), SortKey::Num(y)) => x.total_cmp(y),
        (SortKey::Num(_), SortKey::Str(_)) => Less,
        (SortKey::Str(_), SortKey::Num(_)) => Greater,
        (SortKey::Str(x), SortKey::Str(y)) => x.cmp(y),
    }
}

fn sort_keyed<T>(keyed: &mut [(Vec<SortKey>, T)], order_by: &[OrderKey]) {
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (idx, key) in order_by.iter().enumerate() {
            let ord = cmp_keys(&ka[idx], &kb[idx]);
            let ord = if key.descending { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

fn apply_slice<T>(rows: &mut Vec<T>, offset: Option<usize>, limit: Option<usize>) {
    if let Some(off) = offset {
        if off >= rows.len() {
            rows.clear();
        } else {
            rows.drain(..off);
        }
    }
    if let Some(lim) = limit {
        rows.truncate(lim);
    }
}

/// Operator label for a pattern, IRIs compacted with the default
/// prefixes. Every scan/join is labelled — once per row under
/// `OPTIONAL` — so the prefix table is built once per process.
fn describe_pattern(pattern: &TriplePattern) -> String {
    static PREFIXES: OnceLock<PrefixMap> = OnceLock::new();
    let prefixes = PREFIXES.get_or_init(PrefixMap::with_defaults);
    let part = |tov: &TermOrVar| match tov {
        TermOrVar::Var(v) => format!("?{v}"),
        TermOrVar::Term(Term::Iri(iri)) => prefixes.compact(iri).unwrap_or_else(|| iri.to_string()),
        TermOrVar::Term(t) => t.to_string(),
    };
    format!(
        "{} {} {}",
        part(&pattern.subject),
        part(&pattern.predicate),
        part(&pattern.object)
    )
}
