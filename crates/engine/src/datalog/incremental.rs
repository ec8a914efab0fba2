//! Incremental view maintenance: a materialized Datalog fixpoint kept
//! consistent under single-tuple EDB inserts and retracts.
//!
//! Every batch engine in [`super::symbolic`] pays a full fixpoint from
//! scratch; a [`MaterializedView`] pays once at construction and then
//! per-update work proportional to the *delta cone* — the derivations
//! that actually mention the changed tuple. The algorithm is a
//! counting/DRed hybrid adapted to generalized tuples:
//!
//! * **Support counts.** Per IDB predicate the view keeps a *derivation
//!   store* — a [`SubsumptionMode::DedupOnly`] relation holding every
//!   distinct derived tuple — plus a count per tuple of how many
//!   derivations currently produce it. A derivation is one (rule,
//!   satisfiable body combination, QE disjunct), enumerated by the
//!   multiplicity-preserving multiway firing that the batch engines of
//!   the symbolic module also use (they deduplicate its output; the view
//!   counts it).
//!   Storing *all* derived tuples (not just the subsumption-maximal
//!   antichain) is what makes counting subsumption-aware: a derivation
//!   whose premise is subsumed by a surviving tuple still counts,
//!   because the subsumed premise is still in the store that rules fire
//!   against. The exposed view is rebuilt lazily as the maximal
//!   antichain of the store — identical to the batch engines' result,
//!   since tuples derived from subsumed premises are entailed by the
//!   tuples derived from their subsuming premises (the same
//!   monotonicity that makes naive and seminaive byte-identical).
//!
//! * **Insertion** runs delta rounds with the inclusion–exclusion
//!   discipline: in each round, one body position reads the delta,
//!   positions before it read the post-delta stores, positions after it
//!   read the pre-delta snapshot — so every derivation involving at
//!   least one delta tuple is counted exactly once. Join plans and
//!   per-atom summary tries come from the view's long-lived plan cache
//!   (`datalog/plan.rs`), keyed by [`GenRelation::version`], so
//!   unchanged relations are renamed and bucketed once across updates.
//!
//! * **Retraction** is DRed-style: an *over-deletion* phase removes the
//!   whole cone (every tuple with any derivation mentioning a deleted
//!   tuple, regardless of its residual count — this is what keeps
//!   cyclically-supported tuples from surviving on counts that only
//!   other deleted tuples justify), decrementing counts with the same
//!   inclusion–exclusion enumeration; then a *re-derivation* phase
//!   re-inserts over-deleted tuples whose residual count is positive
//!   (they kept derivations from never-deleted premises) and propagates
//!   them as ordinary insertions. Insertion and over-deletion are one
//!   signed delta-round loop: they differ only in whether a round adds
//!   its delta to the stores or removes it, and in the sign of the
//!   support-count adjustment.
//!
//! * **Relations no rule reads** (an EDB relation outside the program)
//!   are stores only: updates apply to them directly, in zero rounds,
//!   so a database served through the view keeps them exact and
//!   retractable at no propagation cost.
//!
//! Updates count [`Counter::DeltaRounds`], [`Counter::Rederivations`]
//! and [`Counter::SupportAdjust`], run under `view.insert` /
//! `view.retract` / `view.delta_round` / `view.rederive` spans, and
//! each returns an [`UpdateStats`] EXPLAIN row.
//!
//! Restricted to positive programs: inflationary negation is
//! non-monotone, so a retraction could *grow* the view and support
//! counting does not apply.

use crate::datalog::ast::{Literal, Program, Rule};
use crate::datalog::plan::PlanCache;
use crate::datalog::symbolic::{check_budget, fire_multiway, project_conjs, FixpointOptions};
use crate::Engine;
use cql_core::error::{CqlError, Result};
use cql_core::policy::{EnginePolicy, SubsumptionMode};
use cql_core::relation::{Database, GenRelation, GenTuple};
use cql_core::theory::Theory;
use cql_trace::{count, hist, record_hist, span, Counter, MetricsScope, UpdateStats};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Per-predicate batches of tuples entering (or leaving) the stores,
/// in deterministic predicate order and stable discovery order.
type Delta<T> = BTreeMap<String, Vec<GenTuple<T>>>;

/// A Datalog program's IDB, materialized once and maintained under
/// [`insert`](MaterializedView::insert) /
/// [`retract`](MaterializedView::retract) without re-running the
/// fixpoint. See the module docs for the algorithm.
pub struct MaterializedView<T: Theory> {
    program: Program<T>,
    opts: FixpointOptions,
    engine: Arc<Engine<T>>,
    /// Arity of every relation the program mentions. A store outside it
    /// holds an EDB relation no rule reads.
    arities: BTreeMap<String, usize>,
    idb_preds: BTreeSet<String>,
    /// Derivation stores: every asserted EDB tuple / every distinct
    /// derived IDB tuple, dedup-only (no subsumption compression — the
    /// stores are support-count keys, not the exposed result).
    stores: BTreeMap<String, GenRelation<T>>,
    /// Per IDB predicate: derivation count per stored tuple.
    counts: BTreeMap<String, HashMap<GenTuple<T>, u64>>,
    cache: PlanCache<T>,
    /// Lazily rebuilt antichain view of the IDB stores.
    view: Database<T>,
    dirty: BTreeSet<String>,
    /// Per dirty IDB predicate: the exact store mutations (`true` =
    /// inserted, `false` = removed) since the last [`current`] call, in
    /// order. When the store is an antichain (no derived tuple subsumes
    /// another — the common case for point-style workloads), `current`
    /// replays this journal onto the exposed view in place instead of
    /// rebuilding the predicate from scratch; shadowing is detected by
    /// cardinality checks and falls back to the rebuild.
    ///
    /// [`current`]: MaterializedView::current
    journal: BTreeMap<String, Vec<(bool, GenTuple<T>)>>,
}

impl<T: Theory> MaterializedView<T> {
    /// Materialize `program` over `edb` (the initial fixpoint runs as
    /// one insertion propagation of every EDB tuple the program reads).
    /// An `edb` relation no rule reads is kept as its store as is — an
    /// `Arc` bump when it already has the stores' dedup-only policy,
    /// rebuilt under it otherwise — and never enters a delta round.
    ///
    /// # Errors
    /// Validation errors (the program must be positive), theory
    /// `Unsupported` errors, or [`CqlError::NotClosed`] when the
    /// options' budget is exhausted.
    pub fn new(
        program: Program<T>,
        edb: &Database<T>,
        opts: FixpointOptions,
    ) -> Result<MaterializedView<T>> {
        program.validate(edb, false)?;
        let engine = Arc::new(opts.engine());
        let arities = program.arities()?;
        let idb_preds = program.idb_predicates();
        let store_policy = store_policy(&opts);
        let mut stores = BTreeMap::new();
        let mut counts = BTreeMap::new();
        for (name, &arity) in &arities {
            stores.insert(name.clone(), GenRelation::with_policy(arity, store_policy));
            if idb_preds.contains(name) {
                counts.insert(name.clone(), HashMap::new());
            }
        }
        // Validation keeps rule heads out of `edb`, and a relation's
        // tuples are distinct, so each one is a ready-made batch.
        let mut init: Delta<T> = BTreeMap::new();
        for (name, rel) in edb.iter() {
            if arities.contains_key(name) {
                init.insert(name.to_string(), rel.tuples().to_vec());
            } else if rel.policy() == store_policy {
                stores.insert(name.to_string(), rel.clone());
            } else {
                let mut store = GenRelation::with_policy(rel.arity(), store_policy);
                for t in rel.tuples() {
                    store.insert(t.clone());
                }
                stores.insert(name.to_string(), store);
            }
        }
        let cache = PlanCache::new(program.rules.len());
        let mut view = MaterializedView {
            dirty: idb_preds.clone(),
            program,
            opts,
            engine,
            arities,
            idb_preds,
            stores,
            counts,
            cache,
            view: Database::new(),
            journal: BTreeMap::new(),
        };
        view.seed_constant_rules(&mut init)?;
        view.delta_rounds(true, init)?;
        Ok(view)
    }

    /// Fire rules whose bodies have no relational atoms exactly once:
    /// no delta ever re-fires them, so their derivations are banked at
    /// construction and their outputs join the initial delta.
    fn seed_constant_rules(&mut self, init: &mut Delta<T>) -> Result<()> {
        let MaterializedView { program, engine, cache, counts, .. } = self;
        let mut pending: BTreeMap<String, HashSet<GenTuple<T>>> = BTreeMap::new();
        for (ri, rule) in program.rules.iter().enumerate() {
            if rule.body.iter().any(|l| !matches!(l, Literal::Constraint(_))) {
                continue;
            }
            let rels: Vec<Option<&GenRelation<T>>> = vec![None; rule.body.len()];
            let fired =
                project_conjs(engine, rule, fire_multiway(engine, ri, rule, &rels, None, cache))?;
            let head = &rule.head.relation;
            for t in fired {
                count(Counter::SupportAdjust, 1);
                *counts.get_mut(head).expect("head is IDB").entry(t.clone()).or_insert(0) += 1;
                if pending.entry(head.clone()).or_default().insert(t.clone()) {
                    init.entry(head.clone()).or_default().push(t);
                }
            }
        }
        Ok(())
    }

    /// Assert one EDB tuple. A tuple already asserted is a no-op (set
    /// semantics). Returns the per-update EXPLAIN row.
    ///
    /// # Errors
    /// Unknown or non-EDB relation, arity overflow, or budget
    /// exhaustion mid-propagation (which leaves the view unusable).
    pub fn insert(&mut self, relation: &str, tuple: GenTuple<T>) -> Result<UpdateStats> {
        self.require_edb(relation, &tuple)?;
        let scope = MetricsScope::enter("view.update");
        let started = Instant::now();
        {
            let _sp = span("view.insert", "engine");
            if !self.stores[relation].contains(&tuple) {
                self.apply(true, relation, tuple)?;
            }
        }
        Ok(update_stats("insert", relation, &scope, started))
    }

    /// Retract one previously asserted EDB tuple (exact canonical
    /// match). Returns the per-update EXPLAIN row.
    ///
    /// DRed: over-delete the tuple's cone, decrementing support counts
    /// with the same inclusion–exclusion enumeration as insertion, then
    /// re-derive over-deleted tuples whose residual count shows
    /// surviving support.
    ///
    /// # Errors
    /// Unknown or non-EDB relation, a tuple that is not currently
    /// asserted, or budget exhaustion mid-propagation.
    pub fn retract(&mut self, relation: &str, tuple: &GenTuple<T>) -> Result<UpdateStats> {
        self.require_edb(relation, tuple)?;
        if !self.stores[relation].contains(tuple) {
            return Err(CqlError::Malformed(format!(
                "retract of a tuple not currently asserted in `{relation}`"
            )));
        }
        let scope = MetricsScope::enter("view.update");
        let started = Instant::now();
        {
            let _sp = span("view.retract", "engine");
            let deleted = self.apply(false, relation, tuple.clone())?;
            // Residual count > 0 means derivations from never-deleted
            // premises survive: the tuple is still in the view.
            let mut reinserts: Delta<T> = BTreeMap::new();
            for (name, tuples) in deleted {
                let table = self.counts.get_mut(&name).expect("head is IDB");
                for t in tuples {
                    if table.get(&t).copied().unwrap_or(0) > 0 {
                        count(Counter::Rederivations, 1);
                        reinserts.entry(name.clone()).or_default().push(t);
                    } else {
                        table.remove(&t);
                    }
                }
            }
            if !reinserts.is_empty() {
                let _sp = span("view.rederive", "engine");
                self.delta_rounds(true, reinserts)?;
            }
        }
        Ok(update_stats("retract", relation, &scope, started))
    }

    /// The maintained IDB, as subsumption-compressed relations (the
    /// same representation the batch engines produce). Touches only the
    /// predicates whose stores changed since the last call, and for
    /// those replays the exact store delta onto the exposed relation in
    /// place when that is provably equivalent to a rebuild — which it
    /// is exactly when nothing is shadowed by subsumption, i.e. the
    /// exposed relation and the dedup store hold the same tuple set.
    /// Each replayed event verifies that equality is preserved (an
    /// insert must add exactly one tuple, a removal must find its
    /// tuple, and the final cardinalities must agree); any violation
    /// falls back to the full rebuild. So per-publish cost is
    /// O(|delta|) subsumption inserts on antichain workloads instead of
    /// O(|store|), and byte-identical either way.
    pub fn current(&mut self) -> &Database<T> {
        let dirty: Vec<String> = std::mem::take(&mut self.dirty).into_iter().collect();
        for name in dirty {
            let events = self.journal.remove(&name).unwrap_or_default();
            let store = &self.stores[&name];
            let patched = self.view.get(&name).cloned().and_then(|mut rel| {
                for (added, t) in &events {
                    if *added {
                        let before = rel.len();
                        // A rejected or evicting insert means the store
                        // is not an antichain: stop patching.
                        if !rel.insert(t.clone()) || rel.len() != before + 1 {
                            return None;
                        }
                    } else if !rel.remove(t) {
                        // Removed tuple was shadowed out of the view.
                        return None;
                    }
                }
                (rel.len() == store.len()).then_some(rel)
            });
            let rel = patched.unwrap_or_else(|| {
                let mut rel = self.engine.relation(self.arities[&name]);
                for t in store.tuples() {
                    rel.insert(t.clone());
                }
                rel
            });
            self.view.insert(name, rel);
        }
        &self.view
    }

    /// Number of derivations currently supporting `tuple` (0 when the
    /// tuple is not derived, or the predicate is not IDB).
    #[must_use]
    pub fn support_count(&self, relation: &str, tuple: &GenTuple<T>) -> u64 {
        self.counts.get(relation).and_then(|m| m.get(tuple)).copied().unwrap_or(0)
    }

    /// The asserted EDB relations (the stores of every non-IDB
    /// relation, including those no rule reads), in name order.
    /// Together with [`current`](MaterializedView::current) this is the
    /// full database at the view's present state — the runtime
    /// publishes both.
    pub fn edb(&self) -> impl Iterator<Item = (&str, &GenRelation<T>)> {
        self.stores
            .iter()
            .filter(|(name, _)| !self.idb_preds.contains(name.as_str()))
            .map(|(name, rel)| (name.as_str(), rel))
    }

    /// The maintained program.
    #[must_use]
    pub fn program(&self) -> &Program<T> {
        &self.program
    }

    /// The view's engine (interner, QE cache, executor), which a
    /// [`Runtime`](crate::Runtime) shares with its readers.
    pub(crate) fn engine(&self) -> &Arc<Engine<T>> {
        &self.engine
    }

    fn require_edb(&self, relation: &str, tuple: &GenTuple<T>) -> Result<()> {
        let Some(store) = self.stores.get(relation) else {
            return Err(CqlError::UnknownRelation(relation.to_string()));
        };
        if self.idb_preds.contains(relation) {
            return Err(CqlError::Malformed(format!(
                "`{relation}` is an IDB predicate; only EDB relations accept updates"
            )));
        }
        if tuple.max_var_bound() > store.arity() {
            return Err(CqlError::ArityMismatch {
                relation: relation.to_string(),
                expected: store.arity(),
                found: tuple.max_var_bound(),
            });
        }
        Ok(())
    }

    /// Insert (`insert`) or remove one EDB tuple and run its delta
    /// rounds, returning what [`delta_rounds`](Self::delta_rounds)
    /// returns. A relation no rule reads takes the change in its store
    /// directly, in zero rounds.
    fn apply(&mut self, insert: bool, relation: &str, tuple: GenTuple<T>) -> Result<Delta<T>> {
        if !self.arities.contains_key(relation) {
            let store = self.stores.get_mut(relation).expect("checked by require_edb");
            if insert {
                store.insert(tuple);
            } else {
                store.remove(&tuple);
            }
            return Ok(Delta::new());
        }
        self.delta_rounds(insert, BTreeMap::from([(relation.to_string(), vec![tuple])]))
    }

    /// Repeat signed delta rounds until no tuple enters (`insert`) or
    /// leaves the stores. Each round applies `delta` to the stores —
    /// insertion tuples must be absent, deletion tuples present — then
    /// fires every (rule, delta position) with the inclusion–exclusion
    /// bindings of [`bind_positions`], moving each derivation's support
    /// count by ±1. A head joins the next delta the first time the round
    /// derives it: on insertion when its store lacks it, on deletion
    /// (over-deletion) when its store holds it, regardless of the
    /// residual count — a positive residual may rest only on tuples the
    /// cascade deletes later (cyclic support), so survival is decided by
    /// re-derivation. Returns the IDB tuples a deletion removed, per
    /// predicate in discovery order (empty for insertion).
    fn delta_rounds(&mut self, insert: bool, mut delta: Delta<T>) -> Result<Delta<T>> {
        let store_policy = store_policy(&self.opts);
        let MaterializedView {
            program,
            opts,
            engine,
            arities,
            idb_preds,
            stores,
            counts,
            cache,
            dirty,
            journal,
            ..
        } = self;
        let mut deleted: Delta<T> = BTreeMap::new();
        let mut rounds = 0usize;
        while !delta.is_empty() {
            check_budget(arities.keys().map(|name| stores[name].len()).sum(), rounds, opts)?;
            rounds += 1;
            count(Counter::DeltaRounds, 1);
            let _round_span = span("view.delta_round", "round");
            let mut old: BTreeMap<String, GenRelation<T>> = BTreeMap::new();
            let mut drels: BTreeMap<String, GenRelation<T>> = BTreeMap::new();
            for (name, tuples) in &delta {
                if reads_old(program, &delta, name) {
                    old.insert(name.clone(), stores[name].clone());
                }
                let store = stores.get_mut(name).expect("known predicate");
                if insert {
                    for t in tuples {
                        let added = store.insert(t.clone());
                        debug_assert!(added, "insertion delta tuples are new by construction");
                    }
                } else {
                    let removed = store.remove_all(tuples);
                    debug_assert_eq!(removed, tuples.len(), "deletion delta tuples are stored");
                }
                if idb_preds.contains(name) {
                    let events = journal.entry(name.clone()).or_default();
                    events.extend(tuples.iter().map(|t| (insert, t.clone())));
                    if !insert {
                        deleted.entry(name.clone()).or_default().extend(tuples.iter().cloned());
                    }
                }
                let mut drel = GenRelation::with_policy(arities[name], store_policy);
                for t in tuples {
                    drel.insert(t.clone());
                }
                drels.insert(name.clone(), drel);
            }
            let mut next: Delta<T> = BTreeMap::new();
            let mut pending: BTreeMap<String, HashSet<GenTuple<T>>> = BTreeMap::new();
            for (ri, rule) in program.rules.iter().enumerate() {
                for (li, lit) in rule.body.iter().enumerate() {
                    let Literal::Pos(a) = lit else { continue };
                    let Some(drel) = drels.get(&a.relation) else { continue };
                    let rels = bind_positions(rule, li, drel, stores, &old);
                    let fired = project_conjs(
                        engine,
                        rule,
                        fire_multiway(engine, ri, rule, &rels, Some(li), cache),
                    )?;
                    let head = &rule.head.relation;
                    for t in fired {
                        count(Counter::SupportAdjust, 1);
                        let c = counts
                            .get_mut(head)
                            .expect("head is IDB")
                            .entry(t.clone())
                            .or_insert(0);
                        if insert {
                            *c += 1;
                        } else {
                            debug_assert!(*c > 0, "support count underflow");
                            *c = c.saturating_sub(1);
                        }
                        if stores[head].contains(&t) != insert
                            && pending.entry(head.clone()).or_default().insert(t.clone())
                        {
                            dirty.insert(head.clone());
                            next.entry(head.clone()).or_default().push(t);
                        }
                    }
                }
            }
            delta = next;
        }
        Ok(deleted)
    }
}

/// The EXPLAIN row of one update, read from its metrics scope.
fn update_stats(op: &str, relation: &str, scope: &MetricsScope, started: Instant) -> UpdateStats {
    let snap = scope.snapshot();
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    // Recorded inside the update scope; merge-on-drop folds the sample
    // into whatever scope encloses the update.
    record_hist(hist::VIEW_UPDATE_NS, wall_ns);
    UpdateStats {
        op: op.to_string(),
        relation: relation.to_string(),
        delta_rounds: snap.get(Counter::DeltaRounds),
        rederivations: snap.get(Counter::Rederivations),
        support_adjust: snap.get(Counter::SupportAdjust),
        qe_calls: snap.get(Counter::QeCalls),
        entailment_checks: snap.get(Counter::EntailmentChecks),
        wall_ns,
    }
}

/// The derivation stores' policy: the caller's engine policy with
/// subsumption compression off (stores key support counts by exact
/// derived tuple, so nothing may be evicted or rejected as subsumed).
fn store_policy(opts: &FixpointOptions) -> EnginePolicy {
    EnginePolicy { subsumption: SubsumptionMode::DedupOnly, ..opts.policy }
}

/// Bind one firing's relations: position `delta_at` reads the delta,
/// positions before it read `new` (this round's change applied),
/// positions after it read `old` where the round changed the relation
/// and `new` otherwise. Counts every derivation involving at least one
/// delta tuple exactly once across the round's firings.
fn bind_positions<'a, T: Theory>(
    rule: &Rule<T>,
    delta_at: usize,
    drel: &'a GenRelation<T>,
    new: &'a BTreeMap<String, GenRelation<T>>,
    old: &'a BTreeMap<String, GenRelation<T>>,
) -> Vec<Option<&'a GenRelation<T>>> {
    rule.body
        .iter()
        .enumerate()
        .map(|(lj, lit)| match lit {
            Literal::Pos(a) => Some(if lj == delta_at {
                drel
            } else if lj < delta_at {
                &new[&a.relation]
            } else {
                old.get(&a.relation).unwrap_or_else(|| &new[&a.relation])
            }),
            Literal::Neg(_) | Literal::Constraint(_) => None,
        })
        .collect()
}

/// Does some firing of a round with this `delta` read `name` at a
/// position after its delta literal — where [`bind_positions`] binds the
/// pre-round relation? Only then is the pre-round relation kept, since
/// keeping it makes the round's first mutation copy the store.
fn reads_old<T: Theory, D>(program: &Program<T>, delta: &BTreeMap<String, D>, name: &str) -> bool {
    fn relation<T: Theory>(lit: &Literal<T>) -> Option<&str> {
        match lit {
            Literal::Pos(a) => Some(a.relation.as_str()),
            Literal::Neg(_) | Literal::Constraint(_) => None,
        }
    }
    program.rules.iter().any(|rule| {
        rule.body.iter().enumerate().any(|(li, lit)| {
            relation(lit).is_some_and(|r| delta.contains_key(r))
                && rule.body[li + 1..].iter().any(|later| relation(later) == Some(name))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::ast::Atom;
    use crate::datalog::symbolic::seminaive;
    use cql_dense::{Dense, DenseConstraint};

    fn tc_program() -> Program<Dense> {
        Program::new(vec![
            Rule::new(Atom::new("T", vec![0, 1]), vec![Literal::Pos(Atom::new("E", vec![0, 1]))]),
            Rule::new(
                Atom::new("T", vec![0, 1]),
                vec![
                    Literal::Pos(Atom::new("T", vec![0, 2])),
                    Literal::Pos(Atom::new("E", vec![2, 1])),
                ],
            ),
        ])
    }

    fn edge(a: i64, b: i64) -> GenTuple<Dense> {
        GenTuple::new(vec![DenseConstraint::eq_const(0, a), DenseConstraint::eq_const(1, b)])
            .unwrap()
    }

    fn edge_db(edges: &[(i64, i64)]) -> Database<Dense> {
        let mut rel = GenRelation::empty(2);
        for &(a, b) in edges {
            rel.insert(edge(a, b));
        }
        let mut db = Database::new();
        db.insert("E", rel);
        db
    }

    fn sorted_render(rel: &GenRelation<Dense>) -> Vec<String> {
        let mut out: Vec<String> = rel.tuples().iter().map(ToString::to_string).collect();
        out.sort();
        out
    }

    fn assert_matches_batch(view: &mut MaterializedView<Dense>, edges: &[(i64, i64)]) {
        let batch = seminaive(view.program(), &edge_db(edges), &FixpointOptions::default())
            .expect("batch fixpoint");
        let maintained = view.current();
        assert_eq!(
            sorted_render(maintained.require("T").unwrap()),
            sorted_render(batch.idb.require("T").unwrap()),
        );
    }

    #[test]
    fn construction_matches_batch_fixpoint() {
        let edges = [(0, 1), (1, 2), (2, 3)];
        let mut view =
            MaterializedView::new(tc_program(), &edge_db(&edges), FixpointOptions::default())
                .unwrap();
        assert_matches_batch(&mut view, &edges);
    }

    #[test]
    fn insert_extends_the_closure() {
        let mut view = MaterializedView::new(
            tc_program(),
            &edge_db(&[(0, 1), (1, 2)]),
            FixpointOptions::default(),
        )
        .unwrap();
        let stats = view.insert("E", edge(2, 3)).unwrap();
        assert!(stats.delta_rounds > 0);
        assert_matches_batch(&mut view, &[(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn duplicate_insert_is_a_noop() {
        let mut view =
            MaterializedView::new(tc_program(), &edge_db(&[(0, 1)]), FixpointOptions::default())
                .unwrap();
        let stats = view.insert("E", edge(0, 1)).unwrap();
        assert_eq!(stats.delta_rounds, 0);
        assert_matches_batch(&mut view, &[(0, 1)]);
    }

    #[test]
    fn retract_shrinks_the_closure() {
        let mut view = MaterializedView::new(
            tc_program(),
            &edge_db(&[(0, 1), (1, 2), (2, 3)]),
            FixpointOptions::default(),
        )
        .unwrap();
        let stats = view.retract("E", &edge(1, 2)).unwrap();
        assert!(stats.support_adjust > 0);
        assert_matches_batch(&mut view, &[(0, 1), (2, 3)]);
    }

    #[test]
    fn retract_keeps_tuples_with_alternative_support() {
        // Two paths 0→3: through 1 and through 2. Deleting one leaves
        // T(0,3) supported by the other — the re-derivation phase must
        // resurrect the over-deleted cone.
        let edges = [(0, 1), (1, 3), (0, 2), (2, 3)];
        let mut view =
            MaterializedView::new(tc_program(), &edge_db(&edges), FixpointOptions::default())
                .unwrap();
        assert!(view.support_count("T", &edge(0, 3)) >= 2);
        let stats = view.retract("E", &edge(1, 3)).unwrap();
        assert!(stats.rederivations > 0, "T(0,3) must be re-derived");
        assert_matches_batch(&mut view, &[(0, 1), (0, 2), (2, 3)]);
        assert!(view.support_count("T", &edge(0, 3)) >= 1);
    }

    #[test]
    fn retract_deletes_cyclic_support() {
        // A 3-cycle: every closure tuple supports the others. Pure
        // counting would let the cycle keep itself alive; over-deletion
        // must take the whole cone down.
        let mut view = MaterializedView::new(
            tc_program(),
            &edge_db(&[(0, 1), (1, 2), (2, 0)]),
            FixpointOptions::default(),
        )
        .unwrap();
        view.retract("E", &edge(2, 0)).unwrap();
        assert_matches_batch(&mut view, &[(0, 1), (1, 2)]);
    }

    #[test]
    fn retract_then_reinsert_round_trips() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4)];
        let mut view =
            MaterializedView::new(tc_program(), &edge_db(&edges), FixpointOptions::default())
                .unwrap();
        view.retract("E", &edge(2, 3)).unwrap();
        assert_matches_batch(&mut view, &[(0, 1), (1, 2), (3, 4)]);
        view.insert("E", edge(2, 3)).unwrap();
        assert_matches_batch(&mut view, &edges);
    }

    #[test]
    fn updates_reject_idb_and_unknown_relations() {
        let mut view =
            MaterializedView::new(tc_program(), &edge_db(&[(0, 1)]), FixpointOptions::default())
                .unwrap();
        assert!(matches!(view.insert("T", edge(5, 6)), Err(CqlError::Malformed(_))));
        assert!(matches!(view.insert("Q", edge(5, 6)), Err(CqlError::UnknownRelation(_))));
        assert!(matches!(view.retract("E", &edge(7, 8)), Err(CqlError::Malformed(_))));
    }

    #[test]
    fn relations_no_rule_reads_accept_updates_in_zero_rounds() {
        let mut db = edge_db(&[(0, 1)]);
        db.insert("P", GenRelation::empty(1));
        let mut view =
            MaterializedView::new(tc_program(), &db, FixpointOptions::default()).unwrap();
        let t = GenTuple::new(vec![DenseConstraint::eq_const(0, 9)]).unwrap();
        let stats = view.insert("P", t.clone()).unwrap();
        assert_eq!((stats.delta_rounds, stats.support_adjust), (0, 0));
        let rel =
            |view: &MaterializedView<Dense>| view.edb().find(|(n, _)| *n == "P").unwrap().1.len();
        assert_eq!(rel(&view), 1);
        let stats = view.retract("P", &t).unwrap();
        assert_eq!((stats.delta_rounds, stats.support_adjust), (0, 0));
        assert_eq!(rel(&view), 0);
        assert!(matches!(view.retract("P", &t), Err(CqlError::Malformed(_))));
        assert!(matches!(view.insert("P", edge(1, 2)), Err(CqlError::ArityMismatch { .. })));
        assert_matches_batch(&mut view, &[(0, 1)]);
    }
}
