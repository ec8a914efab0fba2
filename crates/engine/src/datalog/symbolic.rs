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
//! Bottom-up evaluation is one operator, `T_P`, applied until nothing
//! changes. [`fixpoint`] runs it under one of three [`Strategy`]s, which
//! differ only in which instance each body literal reads:
//! * [`Strategy::Naive`] — every rule against the full instance per round;
//! * [`Strategy::SemiNaive`] — after the first round, one firing per IDB
//!   body atom bound to the tuples new in the previous round (positive
//!   programs);
//! * [`Strategy::Inflationary`] — Datalog¬ with inflationary negation
//!   (§1.2), where `¬R` reads the DNF complement of the current stage of
//!   `R`.
//!
//! [`naive`], [`seminaive`] and [`inflationary`] forward to it with an
//! engine built from the [`FixpointOptions`]. Every run takes an
//! iteration/size budget and reports [`CqlError::NotClosed`] when it is
//! exceeded — which is the *expected* outcome for Datalog with polynomial
//! constraints (Example 1.12) — and every result carries its per-round
//! [`RoundStats`] and per-rule [`PlanStats`] (the EXPLAIN report).
//!
//! The [`Engine`] context is threaded through rule firing: the per-round
//! batches of QE run on its executor, and every derived conjunction is
//! canonicalized through its interner (so re-derivations across rounds
//! skip the solver).
//!
//! Under the default [`JoinMode::Multiway`], every rule body fires
//! through `fire_multiway`: constraint literals seed a base
//! conjunction, a per-rule [`JoinPlan`](super::plan::JoinPlan) orders the
//! relational atoms, per-atom summary levels are leapfrog-intersected
//! from the delta atom first, and the solver sees one conjunction per
//! surviving *full* combination. The same firing serves incremental
//! maintenance ([`super::incremental`]). The binary left-to-right fold
//! remains only as the [`JoinMode::Binary`] / [`JoinMode::Exhaustive`]
//! ablation baseline and the equivalence reference of the property tests.

use crate::datalog::ast::{Literal, Program, Rule};
use crate::datalog::plan::{multiway_join, AtomData, PlanCache};
use crate::executor::Executor;
use crate::Engine;
use cql_core::error::{CqlError, Result};
use cql_core::policy::{EnginePolicy, JoinMode};
use cql_core::relation::{Database, GenRelation, GenTuple};
use cql_core::summary::{majority_dim, prune, ConstraintSummary};
use cql_core::theory::{Theory, Var};
use cql_trace::{
    count, hist, record_hist, span, Counter, MetricsScope, MetricsSnapshot, PlanStats, RoundStats,
};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
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

/// Which instance each body literal reads (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Every rule against the full instance, derived tuples staged until
    /// the round ends.
    Naive,
    /// Delta-driven firing for positive programs.
    SemiNaive,
    /// [`Strategy::Naive`] with negated literals allowed, reading the
    /// complement of the current stage.
    Inflationary,
}

/// Result of a fixpoint computation.
#[derive(Clone, Debug)]
pub struct FixpointResult<T: Theory> {
    /// The IDB relations at the fixpoint.
    pub idb: Database<T>,
    /// Number of rounds executed; [`fixpoint`] reports one
    /// [`RoundStats`] per round.
    pub iterations: usize,
    /// Per-round EXPLAIN telemetry. Each round runs under its own child
    /// [`MetricsScope`] (entailment checks, QE calls and QE wall time
    /// attribute to the round that spent them, then fold into the
    /// enclosing query scope on drop) and a `"fixpoint.round"` span.
    pub rounds: Vec<RoundStats>,
    /// One row per planned rule: variable order and probe totals.
    pub plans: Vec<PlanStats>,
}

/// Below this many conjunctions, the per-variable QE and head-rename
/// batches of rule firing run serially instead of being dispatched
/// through the executor: single-digit batches pay more in dispatch
/// bookkeeping than a worker could recover. Results are identical
/// either way.
const SERIAL_BATCH_THRESHOLD: usize = 16;

/// Total inclusive wall time of the theory QE entry points (`"qe.*"`
/// operator rows) in a snapshot.
fn qe_nanos(snap: &MetricsSnapshot) -> u64 {
    snap.ops.iter().filter(|(name, _)| name.starts_with("qe.")).map(|(_, agg)| agg.nanos).sum()
}

/// One round's EXPLAIN row. Tuples produced and admitted are counted in
/// the loop — the delta relations also run `insert`, so counter diffs
/// would double-count them.
fn round_stats(
    round: usize,
    produced: usize,
    delta: usize,
    scope: &MetricsScope,
    wall_ns: u64,
) -> RoundStats {
    let snap = scope.snapshot();
    RoundStats {
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
    }
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

/// Run `f` over `items` — serially below [`SERIAL_BATCH_THRESHOLD`]
/// (skipping executor dispatch, its spans, and its scope bookkeeping),
/// on the engine's executor otherwise.
fn map_batch<T: Theory, I: Send, O: Send>(
    engine: &Engine<T>,
    items: Vec<I>,
    f: impl Fn(I) -> O + Sync,
) -> Vec<O> {
    if items.len() < SERIAL_BATCH_THRESHOLD {
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
    if items.len() < SERIAL_BATCH_THRESHOLD {
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

/// Fire one rule of a batch fixpoint; returns head tuples over `0..k`.
///
/// `rels[li]` is the relation body literal `li` reads (the complement
/// for a negated literal; `None` for constraint literals), and `lead` is
/// the delta literal, if any. Under [`JoinMode::Multiway`] the body
/// fires through [`fire_multiway`] and its surviving conjunctions are
/// canonicalized and deduplicated; the other modes run the binary fold.
/// Both share the quantifier-elimination and head-renaming tail.
fn fire_rule<T: Theory>(
    engine: &Engine<T>,
    rule_idx: usize,
    rule: &Rule<T>,
    rels: &[Option<&GenRelation<T>>],
    lead: Option<usize>,
    cache: &mut PlanCache<T>,
) -> Result<Vec<GenTuple<T>>> {
    let body = match engine.policy.join {
        JoinMode::Multiway => {
            let conjs = fire_multiway(engine, rule_idx, rule, rels, lead, cache);
            let interned = map_batch(engine, conjs, |conj| engine.intern(conj));
            dedup_ordered(interned.into_iter().flatten())
        }
        JoinMode::Binary | JoinMode::Exhaustive => fire_body_binary(engine, rule, rels, cache),
    };
    if body.is_empty() {
        return Ok(Vec::new());
    }
    let conjs = body.into_iter().map(|t| t.constraints().to_vec()).collect();
    project_conjs(engine, rule, conjs)
}

/// The shared tail of rule firing: quantify away the non-head variables
/// and rename head variables to output columns. **Multiplicity
/// preserving** — one output tuple per (input conjunction, QE disjunct)
/// that canonicalizes satisfiable, with no deduplication. Batch callers
/// ([`fire_rule`]) tolerate the duplicates (relation insert dedups);
/// incremental maintenance *depends* on them (each output is one
/// derivation).
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

/// The multiway body join: constraint literals seed a base conjunction,
/// the rule's cached [`JoinPlan`](super::plan::JoinPlan) orders the
/// relational atoms, and the leapfrog search of [`multiway_join`]
/// enumerates the combinations every atom's summary admits. Returns one
/// raw conjunction per surviving full combination, in plan order, with
/// no deduplication — so derivation multiplicities are exact, which
/// incremental maintenance counts on (the search only discards provably
/// unsatisfiable combinations, which derive nothing either way).
///
/// `rels[li]` is the relation body literal `li` reads: for a negated
/// literal, the caller binds its complement; entries for constraint
/// literals are ignored. `lead` is the body literal bound to the (small)
/// delta relation, if any: the search starts from it, so a small delta
/// probes the full relations through their levels instead of scanning
/// them. The survivors are the same either way. Bodies with no
/// relational atom yield the base conjunction alone.
///
/// # Panics
/// If a relational literal has no bound relation.
pub(crate) fn fire_multiway<T: Theory>(
    engine: &Engine<T>,
    rule_idx: usize,
    rule: &Rule<T>,
    rels: &[Option<&GenRelation<T>>],
    lead: Option<usize>,
    cache: &mut PlanCache<T>,
) -> Vec<Vec<T::Constraint>> {
    let mut base = GenTuple::top();
    for lit in &rule.body {
        if let Literal::Constraint(c) = lit {
            match engine.conjoin(&base, std::slice::from_ref(c)) {
                Some(t) => base = t,
                None => return Vec::new(),
            }
        }
    }
    let plan = cache.plan(rule_idx, rule);
    let mut atoms: Vec<Arc<AtomData<T>>> = Vec::with_capacity(plan.atom_order.len());
    for &li in &plan.atom_order {
        let (Literal::Pos(a) | Literal::Neg(a)) = &rule.body[li] else {
            unreachable!("plans order relational literals only")
        };
        let rel = rels[li].expect("every relational literal needs a bound relation");
        let data = cache.atom_data(rel, &a.vars);
        if data.renamed.is_empty() {
            return Vec::new();
        }
        atoms.push(data);
    }
    let lead = lead.and_then(|li| plan.atom_order.iter().position(|&lj| lj == li));
    let (conjs, probes, survivors) = multiway_join(&atoms, lead, &base, rule.var_count());
    count(Counter::MultiwayProbes, probes);
    count(Counter::MultiwaySurvivors, survivors);
    record_hist(hist::MULTIWAY_FANOUT, probes);
    cache.record(rule_idx, probes, survivors);
    conjs
}

/// Binary body join (the [`JoinMode::Binary`] / [`JoinMode::Exhaustive`]
/// ablation baseline): fold the literals left to right, canonicalizing
/// every intermediate conjunction. Unless the mode is exhaustive, each
/// atom's cached summary level restricts the product to candidates
/// whose summaries may intersect the partial's — both live in the rule's
/// variable space, so shared variables (the join variables of the rule
/// body) prune directly.
fn fire_body_binary<T: Theory>(
    engine: &Engine<T>,
    rule: &Rule<T>,
    rels: &[Option<&GenRelation<T>>],
    cache: &mut PlanCache<T>,
) -> Vec<GenTuple<T>> {
    let mut acc: Vec<GenTuple<T>> = vec![GenTuple::top()];
    for (lit, rel) in rule.body.iter().zip(rels) {
        acc = match lit {
            Literal::Constraint(c) => acc
                .into_iter()
                .filter_map(|t| engine.conjoin(&t, std::slice::from_ref(c)))
                .collect(),
            Literal::Pos(a) | Literal::Neg(a) => {
                let rel = rel.expect("every relational literal needs a bound relation");
                conjoin_atom(engine, acc, &cache.atom_data(rel, &a.vars))
            }
        };
        if acc.is_empty() {
            break;
        }
    }
    acc
}

/// Conjoin every partial tuple with every renamed tuple of the atom: the
/// cartesian product step of the binary fold, parallelized over the
/// partials. Unless the mode is exhaustive, the atom's summary level at
/// its majority dimension plus `may_intersect` narrow each partial's
/// candidates first. The atom's renamed tuples, summaries and levels
/// come from the run's [`PlanCache`], so unchanged relations are renamed
/// and bucketed once per run rather than once per round.
fn conjoin_atom<T: Theory>(
    engine: &Engine<T>,
    acc: Vec<GenTuple<T>>,
    data: &AtomData<T>,
) -> Vec<GenTuple<T>> {
    let filters = engine.policy.join.filters();
    let dim = if filters { majority_dim(&data.summaries) } else { None };
    let level = dim.and_then(|d| data.level(d));
    let products = flat_map_batch(engine, acc, |partial| {
        let candidates = if filters {
            let probe = T::summary(partial.constraints());
            let range = dim.and_then(|d| probe.range(d));
            prune(data.renamed.len(), level, range, |i| probe.may_intersect(&data.summaries[i]))
        } else {
            (0..data.renamed.len()).collect()
        };
        candidates
            .into_iter()
            .filter_map(|i| engine.conjoin(&partial, &data.renamed[i]))
            .collect::<Vec<_>>()
    });
    dedup_ordered(products)
}

/// The evaluation budget, shared by the batch fixpoints and incremental
/// maintenance: `size` is the tuple count held after `iterations` rounds.
pub(crate) fn check_budget(size: usize, iterations: usize, opts: &FixpointOptions) -> Result<()> {
    if iterations >= opts.max_iterations {
        return Err(CqlError::NotClosed {
            reason: "iteration budget exhausted (the query may have no closed form \
                     in this theory, cf. Example 1.12)"
                .into(),
            iterations,
        });
    }
    if size > opts.max_tuples {
        return Err(CqlError::NotClosed {
            reason: format!("IDB grew past {} tuples without converging", opts.max_tuples),
            iterations,
        });
    }
    Ok(())
}

/// Evaluate `program` over `edb` bottom-up to its fixpoint under
/// `strategy`, on a caller-owned engine (whose interner and QE cache
/// are shared across calls, and whose policy the IDB relations carry).
///
/// # Errors
/// Validation errors (negated literals need
/// [`Strategy::Inflationary`]), theory `Unsupported` errors, or
/// `NotClosed` when the budget is exhausted.
pub fn fixpoint<T: Theory>(
    engine: &Engine<T>,
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
    strategy: Strategy,
) -> Result<FixpointResult<T>> {
    program.validate(edb, strategy == Strategy::Inflationary)?;
    let semi = strategy == Strategy::SemiNaive;
    let mut idb = init_idb(program, engine)?;
    let mut cache = PlanCache::new(program.rules.len());
    let mut rounds: Vec<RoundStats> = Vec::new();
    // Semi-naive: the tuples new in the previous round. `None` before the
    // first round, which fires every rule against the full instance.
    let mut delta: Option<Database<T>> = None;
    loop {
        check_budget(idb.size(), rounds.len(), opts)?;
        count(Counter::FixpointRounds, 1);
        let scope = MetricsScope::enter("fixpoint.round");
        let _round_span = span("fixpoint.round", "round");
        let started = Instant::now();
        // Naive and inflationary rounds read the stage fixed at the start
        // of the round, so derived tuples are staged; semi-naive inserts
        // them as it goes, collecting the new ones as the next delta.
        let mut staged: Vec<(&str, GenTuple<T>)> = Vec::new();
        let mut next = if semi { Some(init_idb(program, engine)?) } else { None };
        let mut complements: BTreeMap<String, GenRelation<T>> = BTreeMap::new();
        let mut produced = 0;
        for (ri, rule) in program.rules.iter().enumerate() {
            let leads: Vec<Option<usize>> = match &delta {
                None => vec![None],
                Some(delta) => rule
                    .body
                    .iter()
                    .enumerate()
                    .filter(|(_, lit)| {
                        matches!(lit, Literal::Pos(a)
                            if delta.get(&a.relation).is_some_and(|d| !d.is_empty()))
                    })
                    .map(|(li, _)| Some(li))
                    .collect(),
            };
            for lit in &rule.body {
                if let Literal::Neg(a) = lit {
                    if !complements.contains_key(&a.relation) {
                        let stage = instance_relation(&a.relation, edb, &idb)?;
                        complements.insert(a.relation.clone(), stage.complement());
                    }
                }
            }
            for lead in leads {
                let mut rels = Vec::with_capacity(rule.body.len());
                for (li, lit) in rule.body.iter().enumerate() {
                    rels.push(match lit {
                        Literal::Pos(a) => Some(match (&delta, lead) {
                            (Some(delta), Some(l)) if l == li => delta.require(&a.relation)?,
                            _ => instance_relation(&a.relation, edb, &idb)?,
                        }),
                        Literal::Neg(a) => Some(&complements[&a.relation]),
                        Literal::Constraint(_) => None,
                    });
                }
                let fired = fire_rule(engine, ri, rule, &rels, lead, &mut cache)?;
                produced += fired.len();
                let head = rule.head.relation.as_str();
                match &mut next {
                    Some(next) => {
                        for t in fired {
                            if idb.get_mut(head).expect("initialized").insert(t.clone()) {
                                next.get_mut(head).expect("initialized").insert(t);
                            }
                        }
                    }
                    None => staged.extend(fired.into_iter().map(|t| (head, t))),
                }
            }
        }
        let added = match &next {
            Some(next) => next.size(),
            None => {
                let mut added = 0;
                for (name, t) in staged {
                    if idb.get_mut(name).expect("initialized").insert(t) {
                        added += 1;
                    }
                }
                added
            }
        };
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Recorded inside the round scope, which folds into the enclosing
        // query scope on drop, so totals stay exact at any executor width.
        record_hist(hist::FIXPOINT_ROUND_NS, wall_ns);
        rounds.push(round_stats(rounds.len() + 1, produced, added, &scope, wall_ns));
        if added == 0 {
            break;
        }
        delta = next;
    }
    Ok(FixpointResult { idb, iterations: rounds.len(), plans: cache.plan_stats(program), rounds })
}

/// Naive bottom-up evaluation of a positive Datalog + constraints program.
///
/// # Errors
/// As [`fixpoint`].
pub fn naive<T: Theory>(
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
) -> Result<FixpointResult<T>> {
    fixpoint(&opts.engine(), program, edb, opts, Strategy::Naive)
}

/// Semi-naive evaluation of a positive program.
///
/// # Errors
/// As [`fixpoint`].
pub fn seminaive<T: Theory>(
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
) -> Result<FixpointResult<T>> {
    fixpoint(&opts.engine(), program, edb, opts, Strategy::SemiNaive)
}

/// Inflationary Datalog¬ evaluation: negated IDB/EDB atoms are evaluated
/// against the *current stage* and derived facts are only ever added.
///
/// # Errors
/// As [`fixpoint`].
pub fn inflationary<T: Theory>(
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
) -> Result<FixpointResult<T>> {
    fixpoint(&opts.engine(), program, edb, opts, Strategy::Inflationary)
}
