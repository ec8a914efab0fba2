//! Symbolic fixpoint evaluation of Datalog + constraints.
//!
//! Rule firing is a join of generalized tuples: the body atoms' DNFs are
//! conjoined in the rule's variable space, constraints are added, and the
//! non-head variables are removed by quantifier elimination — a direct
//! implementation of the semantics of Definition 1.10 and Example 1.11.
//! Termination relies on the theory's canonical conjunctions over the
//! program's constants being finite (dense order: order networks;
//! equality: partition shapes; boolean: the `2^2^(m+v)` bound of Thm 5.6).
//!
//! Three engines are provided:
//! * [`naive`] — recompute every rule against the full instance per round;
//! * [`seminaive`] — delta-driven firing for positive programs;
//! * [`inflationary`] — Datalog¬ with inflationary negation (§1.2), where
//!   `¬R` is the DNF complement of the current stage of `R`.
//!
//! All engines take an iteration/size budget and report
//! [`CqlError::NotClosed`] when exceeded — which is the *expected* outcome
//! for Datalog with polynomial constraints (Example 1.12).
//!
//! Each engine threads an [`Engine`] context through rule firing: the
//! per-round batches of tuple conjunctions and quantifier eliminations run
//! on its executor, and every derived conjunction is canonicalized through
//! its interner (so re-derivations across rounds skip the solver). The
//! plain entry points build a context from [`FixpointOptions`]; the
//! `*_with` variants accept a caller-owned one, sharing its interner
//! across calls.
//!
//! Rule bodies with two or more relational atoms default to the
//! **multiway join** of [`super::plan`] (see
//! [`EnginePolicy::multiway_join`]): instead of folding atoms
//! left-to-right and canonicalizing every intermediate pair, a per-rule
//! [`JoinPlan`](super::plan::JoinPlan) picks a variable elimination
//! order, per-atom summary levels are leapfrog-intersected, and the
//! solver sees one conjunction per surviving *full* combination. The
//! binary fold remains both the fallback (`multiway_join: false`, or a
//! single relational atom) and the equivalence baseline in the property
//! tests.

use crate::datalog::ast::{Atom, Literal, Program, Rule};
use crate::datalog::plan::{multiway_join, AtomData, PlanCache};
use crate::executor::Executor;
use crate::Engine;
use cql_core::error::{CqlError, Result};
use cql_core::policy::EnginePolicy;
use cql_core::relation::{Database, GenRelation, GenTuple};
use cql_core::theory::{Theory, Var};
use cql_trace::{
    count, hist, record_hist, span, Counter, MetricsScope, MetricsSnapshot, PlanStats, RoundStats,
};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::time::Instant;

/// Budget and knobs for fixpoint evaluation.
#[derive(Clone, Copy, Debug)]
pub struct FixpointOptions {
    /// Maximum number of fixpoint rounds before reporting non-closure.
    pub max_iterations: usize,
    /// Maximum total IDB tuples before reporting non-closure.
    pub max_tuples: usize,
    /// Worker threads for per-round tuple batches (1 = serial).
    pub threads: usize,
    /// Subsumption policy for the IDB relations the fixpoint builds.
    pub policy: EnginePolicy,
}

impl Default for FixpointOptions {
    fn default() -> FixpointOptions {
        FixpointOptions {
            max_iterations: 1_000,
            max_tuples: 200_000,
            threads: 1,
            policy: EnginePolicy::default(),
        }
    }
}

impl FixpointOptions {
    /// The engine context these options describe.
    #[must_use]
    pub fn engine<T: Theory>(&self) -> Engine<T> {
        Engine::new(Executor::new(self.threads), self.policy)
    }
}

/// Result of a fixpoint computation.
#[derive(Clone, Debug)]
pub struct FixpointResult<T: Theory> {
    /// The IDB relations at the fixpoint.
    pub idb: Database<T>,
    /// Number of rounds executed.
    pub iterations: usize,
}

/// Per-round telemetry collection for the `*_explain` entry points.
///
/// Each round runs under its own child [`MetricsScope`] (entailment
/// checks, QE calls and QE wall time attribute to the round that spent
/// them, then fold into the enclosing query scope on drop) and a
/// `"fixpoint.round"` span carrying the round's delta size as an
/// argument. Tuples produced / admitted / rejected are counted directly
/// in the loop — the delta relations also run `insert`, so counter
/// diffs would double-count them.
struct RoundLog {
    rounds: Vec<RoundStats>,
    plans: Vec<PlanStats>,
}

impl RoundLog {
    fn new() -> RoundLog {
        RoundLog { rounds: Vec::new(), plans: Vec::new() }
    }

    fn begin(iterations: usize) -> (MetricsScope, Instant, cql_trace::SpanGuard) {
        let scope = MetricsScope::enter("fixpoint.round");
        let mut round_span = span("fixpoint.round", "round");
        round_span.arg("round", iterations as u64 + 1);
        (scope, Instant::now(), round_span)
    }

    fn finish(
        &mut self,
        round: usize,
        produced: usize,
        delta: usize,
        scope: &MetricsScope,
        wall_ns: u64,
        round_span: &mut cql_trace::SpanGuard,
    ) {
        let snap = scope.snapshot();
        round_span.arg("produced", produced as u64);
        round_span.arg("delta", delta as u64);
        self.rounds.push(RoundStats {
            round: round as u64,
            produced: produced as u64,
            delta: delta as u64,
            subsumed: (produced - delta) as u64,
            entailment_checks: snap.get(Counter::EntailmentChecks),
            qe_calls: snap.get(Counter::QeCalls),
            qe_ns: qe_nanos(&snap),
            prune_candidates: snap.get(Counter::PruneCandidates),
            prune_survivors: snap.get(Counter::PruneSurvivors),
            qe_cache_hits: snap.get(Counter::QeCacheHits),
            multiway_probes: snap.get(Counter::MultiwayProbes),
            multiway_survivors: snap.get(Counter::MultiwaySurvivors),
            wall_ns,
        });
    }
}

/// Close out a fixpoint round's wall clock: the elapsed nanoseconds are
/// recorded into the round-latency histogram (inside the round scope,
/// which folds into the enclosing query scope on drop, so totals stay
/// exact at any executor width) and returned for [`RoundStats`].
fn record_round_wall(started: Instant) -> u64 {
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    record_hist(hist::FIXPOINT_ROUND_NS, wall_ns);
    wall_ns
}

/// Total inclusive wall time of the theory QE entry points (`"qe.*"`
/// operator rows) in a snapshot.
fn qe_nanos(snap: &MetricsSnapshot) -> u64 {
    snap.ops.iter().filter(|(name, _)| name.starts_with("qe.")).map(|(_, agg)| agg.nanos).sum()
}

fn init_idb<T: Theory>(program: &Program<T>, engine: &Engine<T>) -> Result<Database<T>> {
    let arities = program.arities()?;
    let mut idb = Database::new();
    for name in program.idb_predicates() {
        idb.insert(name.clone(), engine.relation(arities[&name]));
    }
    Ok(idb)
}

fn instance_relation<'a, T: Theory>(
    name: &str,
    edb: &'a Database<T>,
    idb: &'a Database<T>,
) -> Result<&'a GenRelation<T>> {
    idb.get(name).map_or_else(|| edb.require(name), Ok)
}

/// Where a rule body reads its relations from: the EDB/IDB pair, plus
/// the semi-naive delta binding (the body-literal index that must read
/// from `delta` instead of the full instance).
struct BodyCtx<'a, T: Theory> {
    edb: &'a Database<T>,
    idb: &'a Database<T>,
    delta_at: Option<(usize, &'a Database<T>)>,
}

impl<'a, T: Theory> BodyCtx<'a, T> {
    /// The relation a positive body literal at index `li` reads.
    fn positive(&self, li: usize, a: &Atom) -> Result<&'a GenRelation<T>> {
        match self.delta_at {
            Some((idx, delta)) if idx == li => delta.require(&a.relation),
            _ => instance_relation(&a.relation, self.edb, self.idb),
        }
    }
}

/// Run `f` over `items` — serially when the batch is below the policy's
/// [`EnginePolicy::serial_batch_threshold`] (skipping executor dispatch,
/// its spans, and its scope bookkeeping for tiny batches), on the
/// engine's executor otherwise.
fn map_batch<T: Theory, I: Send, O: Send>(
    engine: &Engine<T>,
    items: Vec<I>,
    f: impl Fn(I) -> O + Sync,
) -> Vec<O> {
    if items.len() < engine.policy.serial_batch_threshold {
        items.into_iter().map(f).collect()
    } else {
        engine.executor.map(items, f)
    }
}

/// [`map_batch`] with per-item vector results, flattened in item order.
fn flat_map_batch<T: Theory, I: Send, O: Send>(
    engine: &Engine<T>,
    items: Vec<I>,
    f: impl Fn(I) -> Vec<O> + Sync,
) -> Vec<O> {
    if items.len() < engine.policy.serial_batch_threshold {
        items.into_iter().flat_map(f).collect()
    } else {
        engine.executor.flat_map(items, f)
    }
}

/// Order-preserving dedup (interned tuples make the hashing cheap).
fn dedup_ordered<T: Theory>(tuples: impl IntoIterator<Item = GenTuple<T>>) -> Vec<GenTuple<T>> {
    let mut seen: HashSet<GenTuple<T>> = HashSet::new();
    let mut out = Vec::new();
    for t in tuples {
        if seen.insert(t.clone()) {
            out.push(t);
        }
    }
    out
}

/// Fire one rule against an instance; returns head tuples over `0..k`.
///
/// The body join runs multiway (variable-at-a-time, one solver call per
/// surviving full combination) when the policy allows it and the body
/// has at least two relational atoms; otherwise it is the binary
/// left-to-right fold. Both paths share the quantifier-elimination and
/// head-renaming stages below.
fn fire_rule<T: Theory>(
    engine: &Engine<T>,
    rule_idx: usize,
    rule: &Rule<T>,
    ctx: &BodyCtx<'_, T>,
    complements: &mut BTreeMap<String, GenRelation<T>>,
    cache: &mut PlanCache<T>,
) -> Result<Vec<GenTuple<T>>> {
    let rel_atoms = rule.body.iter().filter(|lit| !matches!(lit, Literal::Constraint(_))).count();
    let acc = if engine.policy.multiway_join && rel_atoms >= 2 {
        fire_body_multiway(engine, rule_idx, rule, ctx, complements, cache)?
    } else {
        fire_body_binary(engine, rule, ctx, complements, cache)?
    };
    if acc.is_empty() {
        return Ok(Vec::new());
    }
    let conjs: Vec<Vec<T::Constraint>> =
        acc.into_iter().map(|t| t.constraints().to_vec()).collect();
    project_conjs(engine, rule, conjs)
}

/// The shared tail of rule firing: quantify away the non-head variables
/// and rename head variables to output columns. **Multiplicity
/// preserving** — one output tuple per (input conjunction, QE disjunct)
/// that canonicalizes satisfiable, with no deduplication. Batch callers
/// ([`fire_rule`]) tolerate the duplicates (relation insert dedups);
/// the counted firing of incremental maintenance *depends* on them (each
/// output is one derivation).
pub(crate) fn project_conjs<T: Theory>(
    engine: &Engine<T>,
    rule: &Rule<T>,
    mut conjs: Vec<Vec<T::Constraint>>,
) -> Result<Vec<GenTuple<T>>> {
    // Quantify away the non-head variables, one variable at a time; the
    // per-conjunction eliminations of a round are independent and run on
    // the executor.
    let head_vars: BTreeSet<Var> = rule.head.vars.iter().copied().collect();
    let n = rule.var_count();
    for v in 0..n {
        if head_vars.contains(&v) {
            continue;
        }
        let eliminated: Vec<Result<Vec<Vec<T::Constraint>>>> = map_batch(engine, conjs, |conj| {
            if conj.iter().any(|c| T::vars(c).contains(&v)) {
                engine.eliminate_cached(&conj, v)
            } else {
                Ok(vec![conj])
            }
        });
        let mut next = Vec::new();
        for r in eliminated {
            next.extend(r?);
        }
        conjs = next;
    }

    // Rename head variables to output columns.
    let mut position = vec![usize::MAX; n.max(1)];
    for (i, &v) in rule.head.vars.iter().enumerate() {
        position[v] = i;
    }
    let out = map_batch(engine, conjs, |conj| {
        for c in &conj {
            for v in T::vars(c) {
                debug_assert_ne!(position[v], usize::MAX, "variable survived elimination");
            }
        }
        let renamed: Vec<T::Constraint> =
            conj.iter().map(|c| T::rename(c, &|v| position[v])).collect();
        engine.intern(renamed)
    });
    Ok(out.into_iter().flatten().collect())
}

/// Fire one rule of a **positive** program with an explicit relation per
/// body literal, preserving derivation multiplicity: the result holds one
/// tuple per (satisfiable body combination, QE disjunct), with no
/// deduplication anywhere on the path.
///
/// This is the firing primitive of incremental view maintenance
/// ([`super::incremental`]): support counts are exactly the output
/// multiplicities, so both the insertion and the over-deletion phases
/// must enumerate derivations identically — which they get for free by
/// sharing this function, differing only in which relations they bind to
/// each literal. The body join always runs multiway (the summary search
/// only discards provably unsatisfiable combinations, which contribute
/// no output either way, so counts are unaffected by pruning).
///
/// `rels[li]` is the relation positive literal `li` reads; entries for
/// constraint literals are ignored. `delta_at` is the body literal bound
/// to the (small) delta relation, if any: the join searches from it, so
/// a one-tuple update probes the full relations through their levels
/// instead of scanning them. The output is the same either way.
///
/// # Panics
/// Debug-asserts the rule has no negated literals (callers validate the
/// program as positive) and that every relational literal is bound.
pub(crate) fn fire_rule_counted<T: Theory>(
    engine: &Engine<T>,
    rule_idx: usize,
    rule: &Rule<T>,
    rels: &[Option<&GenRelation<T>>],
    delta_at: Option<usize>,
    cache: &mut PlanCache<T>,
) -> Result<Vec<GenTuple<T>>> {
    let mut base = GenTuple::top();
    for lit in &rule.body {
        debug_assert!(!matches!(lit, Literal::Neg(_)), "counted firing is for positive programs");
        if let Literal::Constraint(c) = lit {
            match engine.conjoin(&base, std::slice::from_ref(c)) {
                Some(t) => base = t,
                None => return Ok(Vec::new()),
            }
        }
    }
    let plan = cache.plan(rule_idx, rule);
    let mut atoms: Vec<std::sync::Arc<AtomData<T>>> = Vec::with_capacity(plan.atom_order.len());
    for &li in &plan.atom_order {
        let Literal::Pos(a) = &rule.body[li] else {
            unreachable!("plans order relational literals only")
        };
        let rel = rels[li].expect("every relational literal needs a bound relation");
        let data = cache.atom_data(rel, &a.vars);
        if data.renamed.is_empty() {
            return Ok(Vec::new());
        }
        atoms.push(data);
    }
    let lead = delta_at.and_then(|li| plan.atom_order.iter().position(|&lj| lj == li));
    let (conjs, probes, survivors) = multiway_join(&atoms, lead, &base, rule.var_count());
    count(Counter::MultiwayProbes, probes);
    count(Counter::MultiwaySurvivors, survivors);
    record_hist(hist::MULTIWAY_FANOUT, probes);
    cache.record(rule_idx, probes, survivors);
    project_conjs(engine, rule, conjs)
}

/// Binary body join: fold the literals left to right, canonicalizing
/// every intermediate conjunction. With
/// [`EnginePolicy::join_pruning`] on, each atom's cached summary index
/// restricts the product to candidates whose summaries may intersect
/// the partial's — both live in the rule's variable space, so shared
/// variables (the join variables of the rule body) prune directly.
fn fire_body_binary<T: Theory>(
    engine: &Engine<T>,
    rule: &Rule<T>,
    ctx: &BodyCtx<'_, T>,
    complements: &mut BTreeMap<String, GenRelation<T>>,
    cache: &mut PlanCache<T>,
) -> Result<Vec<GenTuple<T>>> {
    let mut acc: Vec<GenTuple<T>> = vec![GenTuple::top()];
    for (li, lit) in rule.body.iter().enumerate() {
        match lit {
            Literal::Constraint(c) => {
                acc = acc
                    .into_iter()
                    .filter_map(|t| engine.conjoin(&t, std::slice::from_ref(c)))
                    .collect();
            }
            Literal::Pos(a) => {
                let data = cache.atom_data(ctx.positive(li, a)?, &a.vars);
                acc = conjoin_atom(engine, acc, &data);
            }
            Literal::Neg(a) => {
                let compl = complements.entry(a.relation.clone()).or_insert_with(|| {
                    instance_relation(&a.relation, ctx.edb, ctx.idb)
                        .expect("validated")
                        .complement()
                });
                let data = cache.atom_data(compl, &a.vars);
                acc = conjoin_atom(engine, acc, &data);
            }
        }
        if acc.is_empty() {
            return Ok(Vec::new());
        }
    }
    Ok(acc)
}

/// Multiway body join: constraint literals seed a base conjunction, the
/// rule's cached [`JoinPlan`](super::plan::JoinPlan) orders the
/// relational atoms, and the leapfrog search of
/// [`multiway_join`] enumerates candidate combinations that every
/// atom's summary admits — the solver canonicalizes one conjunction per
/// surviving full combination instead of one per intermediate pair.
fn fire_body_multiway<T: Theory>(
    engine: &Engine<T>,
    rule_idx: usize,
    rule: &Rule<T>,
    ctx: &BodyCtx<'_, T>,
    complements: &mut BTreeMap<String, GenRelation<T>>,
    cache: &mut PlanCache<T>,
) -> Result<Vec<GenTuple<T>>> {
    let mut base = GenTuple::top();
    for lit in &rule.body {
        if let Literal::Constraint(c) = lit {
            match engine.conjoin(&base, std::slice::from_ref(c)) {
                Some(t) => base = t,
                None => return Ok(Vec::new()),
            }
        }
    }
    let plan = cache.plan(rule_idx, rule);
    let mut atoms: Vec<std::sync::Arc<AtomData<T>>> = Vec::with_capacity(plan.atom_order.len());
    for &li in &plan.atom_order {
        let data = match &rule.body[li] {
            Literal::Pos(a) => cache.atom_data(ctx.positive(li, a)?, &a.vars),
            Literal::Neg(a) => {
                let compl = complements.entry(a.relation.clone()).or_insert_with(|| {
                    instance_relation(&a.relation, ctx.edb, ctx.idb)
                        .expect("validated")
                        .complement()
                });
                cache.atom_data(compl, &a.vars)
            }
            Literal::Constraint(_) => unreachable!("plans order relational literals only"),
        };
        if data.renamed.is_empty() {
            return Ok(Vec::new());
        }
        atoms.push(data);
    }
    let (conjs, probes, survivors) = multiway_join(&atoms, None, &base, rule.var_count());
    count(Counter::MultiwayProbes, probes);
    count(Counter::MultiwaySurvivors, survivors);
    record_hist(hist::MULTIWAY_FANOUT, probes);
    cache.record(rule_idx, probes, survivors);
    let interned = map_batch(engine, conjs, |conj| engine.intern(conj));
    Ok(dedup_ordered(interned.into_iter().flatten()))
}

/// Conjoin every partial tuple with every renamed tuple of the atom: the
/// cartesian product step of the binary fold, parallelized over the
/// partials. The atom's renamed tuples, summaries and one-dimensional
/// summary index come from the run's [`PlanCache`], so unchanged
/// relations are renamed and indexed once per run rather than once per
/// round.
fn conjoin_atom<T: Theory>(
    engine: &Engine<T>,
    acc: Vec<GenTuple<T>>,
    data: &AtomData<T>,
) -> Vec<GenTuple<T>> {
    let index = data.index(engine.policy.join_pruning);
    let products = flat_map_batch(engine, acc, |partial| match index {
        Some(index) => index
            .matches(&T::summary(partial.constraints()))
            .into_iter()
            .filter_map(|i| engine.conjoin(&partial, &data.renamed[i]))
            .collect::<Vec<_>>(),
        None => data.renamed.iter().filter_map(|r| engine.conjoin(&partial, r)).collect(),
    });
    dedup_ordered(products)
}

fn check_budget<T: Theory>(
    idb: &Database<T>,
    iterations: usize,
    opts: &FixpointOptions,
) -> Result<()> {
    if iterations >= opts.max_iterations {
        return Err(CqlError::NotClosed {
            reason: "iteration budget exhausted (the query may have no closed form \
                     in this theory, cf. Example 1.12)"
                .into(),
            iterations,
        });
    }
    if idb.size() > opts.max_tuples {
        return Err(CqlError::NotClosed {
            reason: format!("IDB grew past {} tuples without converging", opts.max_tuples),
            iterations,
        });
    }
    Ok(())
}

/// Naive bottom-up evaluation of a positive Datalog + constraints program.
///
/// # Errors
/// Validation errors, theory `Unsupported` errors, or `NotClosed` when the
/// budget is exhausted.
pub fn naive<T: Theory>(
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
) -> Result<FixpointResult<T>> {
    naive_with(&opts.engine(), program, edb, opts)
}

/// [`naive`] with a caller-provided engine context.
///
/// # Errors
/// As [`naive`].
pub fn naive_with<T: Theory>(
    engine: &Engine<T>,
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
) -> Result<FixpointResult<T>> {
    program.validate(edb, false)?;
    let idb = init_idb(program, engine)?;
    fixpoint_with_seed(engine, program, edb, idb, opts)
}

/// Inflationary Datalog¬ evaluation: negated IDB/EDB atoms are evaluated
/// against the *current stage* and derived facts are only ever added.
///
/// # Errors
/// As [`naive`].
pub fn inflationary<T: Theory>(
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
) -> Result<FixpointResult<T>> {
    let engine = opts.engine();
    program.validate(edb, true)?;
    let idb = init_idb(program, &engine)?;
    fixpoint_with_seed(&engine, program, edb, idb, opts)
}

/// Run one stratum of a stratified program: the seed database holds the
/// completed lower strata (read-only for negation, which is sound because
/// stratification guarantees negated predicates never grow here).
pub(crate) fn fixpoint_stratum<T: Theory>(
    program: &Program<T>,
    edb: &Database<T>,
    seed: &Database<T>,
    opts: &FixpointOptions,
) -> Result<FixpointResult<T>> {
    let engine = opts.engine();
    let mut idb = seed.clone();
    for name in program.idb_predicates() {
        if idb.get(&name).is_none() {
            let arities = program.arities()?;
            idb.insert(name.clone(), engine.relation(arities[&name]));
        }
    }
    fixpoint_with_seed(&engine, program, edb, idb, opts)
}

fn fixpoint_with_seed<T: Theory>(
    engine: &Engine<T>,
    program: &Program<T>,
    edb: &Database<T>,
    idb: Database<T>,
    opts: &FixpointOptions,
) -> Result<FixpointResult<T>> {
    fixpoint_rounds(engine, program, edb, idb, opts, None)
}

fn fixpoint_rounds<T: Theory>(
    engine: &Engine<T>,
    program: &Program<T>,
    edb: &Database<T>,
    mut idb: Database<T>,
    opts: &FixpointOptions,
    mut log: Option<&mut RoundLog>,
) -> Result<FixpointResult<T>> {
    let mut cache = PlanCache::new(program.rules.len());
    let mut iterations = 0;
    loop {
        check_budget(&idb, iterations, opts)?;
        count(Counter::FixpointRounds, 1);
        let (round_scope, round_start, mut round_span) = RoundLog::begin(iterations);
        let mut changed = false;
        // Inflationary semantics: all rules read the stage fixed at the
        // start of the round; derived tuples land in `staged`.
        let mut staged: Vec<(String, GenTuple<T>)> = Vec::new();
        let mut complements = BTreeMap::new();
        for (ri, rule) in program.rules.iter().enumerate() {
            let ctx = BodyCtx { edb, idb: &idb, delta_at: None };
            for t in fire_rule(engine, ri, rule, &ctx, &mut complements, &mut cache)? {
                staged.push((rule.head.relation.clone(), t));
            }
        }
        let produced = staged.len();
        let mut delta = 0;
        for (name, t) in staged {
            if idb.get_mut(&name).expect("initialized").insert(t) {
                changed = true;
                delta += 1;
            }
        }
        iterations += 1;
        let wall_ns = record_round_wall(round_start);
        if let Some(log) = log.as_deref_mut() {
            log.finish(iterations, produced, delta, &round_scope, wall_ns, &mut round_span);
        }
        if !changed {
            if let Some(log) = log.as_deref_mut() {
                log.plans = cache.plan_stats(program);
            }
            return Ok(FixpointResult { idb, iterations });
        }
    }
}

/// [`naive`] with per-round EXPLAIN telemetry: returns the fixpoint, one
/// [`RoundStats`] per round (see `RoundLog` for what each field
/// attributes where), and one [`PlanStats`] per multiway-planned rule.
///
/// # Errors
/// As [`naive`].
pub fn naive_explain<T: Theory>(
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
) -> Result<(FixpointResult<T>, Vec<RoundStats>, Vec<PlanStats>)> {
    naive_explain_with(&opts.engine(), program, edb, opts)
}

/// [`naive_explain`] with a caller-provided engine context.
///
/// # Errors
/// As [`naive`].
pub fn naive_explain_with<T: Theory>(
    engine: &Engine<T>,
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
) -> Result<(FixpointResult<T>, Vec<RoundStats>, Vec<PlanStats>)> {
    program.validate(edb, false)?;
    let idb = init_idb(program, engine)?;
    let mut log = RoundLog::new();
    let result = fixpoint_rounds(engine, program, edb, idb, opts, Some(&mut log))?;
    Ok((result, log.rounds, log.plans))
}

/// Semi-naive evaluation of a positive program: after the first round,
/// a rule only re-fires with one IDB body atom bound to the tuples that
/// were new in the previous round.
///
/// # Errors
/// As [`naive`].
pub fn seminaive<T: Theory>(
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
) -> Result<FixpointResult<T>> {
    seminaive_with(&opts.engine(), program, edb, opts)
}

/// [`seminaive`] with a caller-provided engine context.
///
/// # Errors
/// As [`naive`].
pub fn seminaive_with<T: Theory>(
    engine: &Engine<T>,
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
) -> Result<FixpointResult<T>> {
    seminaive_rounds(engine, program, edb, opts, None)
}

/// [`seminaive`] with per-round EXPLAIN telemetry (see [`naive_explain`]
/// for the shape of the returned statistics).
///
/// # Errors
/// As [`naive`].
pub fn seminaive_explain<T: Theory>(
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
) -> Result<(FixpointResult<T>, Vec<RoundStats>, Vec<PlanStats>)> {
    seminaive_explain_with(&opts.engine(), program, edb, opts)
}

/// [`seminaive_explain`] with a caller-provided engine context.
///
/// # Errors
/// As [`naive`].
pub fn seminaive_explain_with<T: Theory>(
    engine: &Engine<T>,
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
) -> Result<(FixpointResult<T>, Vec<RoundStats>, Vec<PlanStats>)> {
    let mut log = RoundLog::new();
    let result = seminaive_rounds(engine, program, edb, opts, Some(&mut log))?;
    Ok((result, log.rounds, log.plans))
}

fn seminaive_rounds<T: Theory>(
    engine: &Engine<T>,
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
    mut log: Option<&mut RoundLog>,
) -> Result<FixpointResult<T>> {
    program.validate(edb, false)?;
    let idb_preds = program.idb_predicates();
    let arities = program.arities()?;
    let mut idb = init_idb(program, engine)?;
    let mut cache = PlanCache::new(program.rules.len());
    let mut iterations = 0;

    // Round 0: full firing (IDB relations are empty, so only rules whose
    // IDB body atoms are absent produce anything).
    count(Counter::FixpointRounds, 1);
    let (round_scope, round_start, mut round_span) = RoundLog::begin(iterations);
    let mut delta = init_idb(program, engine)?;
    let mut complements = BTreeMap::new();
    let mut produced = 0;
    for (ri, rule) in program.rules.iter().enumerate() {
        let fired = fire_rule(
            engine,
            ri,
            rule,
            &BodyCtx { edb, idb: &idb, delta_at: None },
            &mut complements,
            &mut cache,
        )?;
        for t in fired {
            produced += 1;
            if idb.get_mut(&rule.head.relation).expect("init").insert(t.clone()) {
                delta.get_mut(&rule.head.relation).expect("init").insert(t);
            }
        }
    }
    iterations += 1;
    let wall_ns = record_round_wall(round_start);
    if let Some(log) = log.as_deref_mut() {
        log.finish(iterations, produced, delta.size(), &round_scope, wall_ns, &mut round_span);
    }
    drop(round_span);
    drop(round_scope);

    while delta.size() > 0 {
        check_budget(&idb, iterations, opts)?;
        count(Counter::FixpointRounds, 1);
        let (round_scope, round_start, mut round_span) = RoundLog::begin(iterations);
        let mut next_delta: Database<T> = Database::new();
        for name in &idb_preds {
            next_delta.insert(name.clone(), engine.relation(arities[name]));
        }
        let mut complements = BTreeMap::new();
        let mut produced = 0;
        for (ri, rule) in program.rules.iter().enumerate() {
            // One firing per IDB body-atom position bound to the delta.
            for (li, lit) in rule.body.iter().enumerate() {
                let Literal::Pos(a) = lit else { continue };
                if !idb_preds.contains(&a.relation) {
                    continue;
                }
                if delta.get(&a.relation).is_none_or(GenRelation::is_empty) {
                    continue;
                }
                let fired = fire_rule(
                    engine,
                    ri,
                    rule,
                    &BodyCtx { edb, idb: &idb, delta_at: Some((li, &delta)) },
                    &mut complements,
                    &mut cache,
                )?;
                for t in fired {
                    produced += 1;
                    if idb.get_mut(&rule.head.relation).expect("init").insert(t.clone()) {
                        next_delta.get_mut(&rule.head.relation).expect("init").insert(t);
                    }
                }
            }
        }
        delta = next_delta;
        iterations += 1;
        let wall_ns = record_round_wall(round_start);
        if let Some(log) = log.as_deref_mut() {
            log.finish(iterations, produced, delta.size(), &round_scope, wall_ns, &mut round_span);
        }
    }
    if let Some(log) = log {
        log.plans = cache.plan_stats(program);
    }
    Ok(FixpointResult { idb, iterations })
}
