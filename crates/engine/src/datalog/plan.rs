//! Per-rule multiway join planning for symbolic rule firing.
//!
//! A left-to-right binary fold pays a solver call (an interner
//! canonicalization) per *intermediate* pair that survives summary
//! pruning; with three or more relational body atoms the intermediate
//! products are the quadratic wall. The multiway join instead picks a
//! **variable elimination order** per rule (join variables first,
//! frequency-weighted, deterministic on ties), builds one
//! [`SummaryLevel`] per
//! (atom, variable) from the per-variable summary projections — interval
//! spans for the dense/poly box summaries, partition point-ranges for
//! equality, degenerate catch-all levels for the boolean masks — and
//! backtracks over atoms, leapfrog-intersecting the levels: a candidate
//! binding survives only if *every* body atom's summary admits it, and
//! the solver is called once per surviving **full** combination. Every
//! rule body fires this way under the default
//! [`JoinMode::Multiway`](cql_core::JoinMode::Multiway), whatever its
//! atom count and whether its atoms are negated (a negated atom joins
//! its relation's complement); the binary fold survives only as the
//! ablation baseline.
//!
//! Soundness is the summary soundness law plus interval-hull reasoning:
//! every filter only discards combinations whose conjunction is provably
//! unsatisfiable, so the multiway result equals the binary fold's (the
//! property tests in `pruning_equivalence.rs` pin this for all four
//! theories). For box summaries the per-variable hull intersection is
//! also *exact* on the hulls (Helly's theorem in one dimension: pairwise
//! interval intersection at each variable implies a common point per
//! variable), which is why the accumulated-bounds probe loses nothing
//! against the pairwise `may_intersect` checks it complements.
//!
//! `PlanCache` memoizes, per fixpoint run or materialized view: the
//! per-rule [`JoinPlan`] (rule structure never changes), and the per-atom renamed
//! tuples / summaries / levels keyed by the source relation's content
//! version — so unchanged EDB relations are renamed and bucketed once
//! for the whole run, not once per round (the reuse is visible as
//! [`Counter::SummaryIndexReuses`]) — and a changed relation's entry is
//! carried forward from its previous version (`AtomData::advance`)
//! instead of being rebuilt.

use crate::datalog::ast::{Literal, Program, Rule};
use cql_arith::Rat;
use cql_core::relation::{GenRelation, GenTuple};
use cql_core::summary::{ConstraintSummary, SummaryLevel};
use cql_core::theory::{Theory, Var};
use cql_trace::{count, span, Counter, PlanStats};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

/// The cached, rule-structure-only part of a multiway join: the variable
/// elimination order and the order in which body atoms are probed.
/// Depends only on the rule (never on the data or the executor width),
/// so it is deterministic across runs and thread counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinPlan {
    /// Variable elimination order: every variable occurring in a
    /// relational body atom, most-shared first (ties: smaller variable
    /// index first). Join variables — those shared by several atoms —
    /// therefore lead.
    pub var_order: Vec<Var>,
    /// Body-literal indices of the relational (positive or negated)
    /// atoms, ordered by the earliest `var_order` position they cover
    /// (ties: body order). The backtracking search binds atoms in this
    /// order.
    pub atom_order: Vec<usize>,
}

impl JoinPlan {
    /// Plan one rule. Pure function of the rule's body shape.
    #[must_use]
    pub fn build<T: Theory>(rule: &Rule<T>) -> JoinPlan {
        let _sp = span("join_plan.build", "engine");
        let n = rule.var_count();
        let mut freq = vec![0usize; n.max(1)];
        let mut rel_lits: Vec<usize> = Vec::new();
        for (li, lit) in rule.body.iter().enumerate() {
            let atom = match lit {
                Literal::Pos(a) | Literal::Neg(a) => a,
                Literal::Constraint(_) => continue,
            };
            rel_lits.push(li);
            for &v in &distinct_vars(&atom.vars) {
                freq[v] += 1;
            }
        }
        let mut var_order: Vec<Var> = (0..n).filter(|&v| freq[v] > 0).collect();
        var_order.sort_by_key(|&v| (std::cmp::Reverse(freq[v]), v));
        let mut position = vec![usize::MAX; n.max(1)];
        for (i, &v) in var_order.iter().enumerate() {
            position[v] = i;
        }
        let mut atom_order = rel_lits;
        atom_order.sort_by_key(|&li| {
            let atom = match &rule.body[li] {
                Literal::Pos(a) | Literal::Neg(a) => a,
                Literal::Constraint(_) => unreachable!("rel_lits holds relational literals"),
            };
            let earliest = atom.vars.iter().map(|&v| position[v]).min().unwrap_or(usize::MAX);
            (earliest, li)
        });
        JoinPlan { var_order, atom_order }
    }
}

fn distinct_vars(vars: &[Var]) -> Vec<Var> {
    let mut out = vars.to_vec();
    out.sort_unstable();
    out.dedup();
    out
}

/// One [`SummaryLevel`] per variable of a join atom: the per-atom side of
/// the multiway (leapfrog-style) rule-body join. A candidate binding's
/// accumulated range at a variable probes the atom's level at that
/// variable; an entry survives only if every probed level admits it.
/// Each level is built on its first probe, so a variable the join never
/// probes the atom at costs nothing.
///
/// Theories whose summaries range nothing (the boolean algebras) put
/// every entry in each level's catch-all bucket, degenerating to plain
/// `may_intersect` filtering — sound, just unselective.
struct SummaryTrie {
    levels: BTreeMap<Var, OnceLock<SummaryLevel>>,
}

impl SummaryTrie {
    /// A trie with one (not yet built) level per distinct variable in
    /// `vars`.
    fn new(vars: &[Var]) -> SummaryTrie {
        SummaryTrie { levels: vars.iter().map(|&v| (v, OnceLock::new())).collect() }
    }

    /// Carry the trie to an edited entry list: drop the entries at
    /// `removed` (sorted, distinct), renumber the survivors, then append
    /// one entry per `appended` summary. Every built level then equals a
    /// fresh build over the edited list; unbuilt levels stay unbuilt.
    fn edit<S: ConstraintSummary>(&mut self, removed: &[usize], appended: &[S]) {
        for (&v, level) in &mut self.levels {
            let Some(level) = level.get_mut() else { continue };
            if !removed.is_empty() {
                level.remove_indices(removed);
            }
            for s in appended {
                level.push(s.range(v));
            }
        }
    }

    /// The level at `var` over `summaries` (the trie's entries, entry `i`
    /// the `i`-th), built on first use; `None` when `var` is not one of
    /// the trie's variables.
    fn level<S: ConstraintSummary>(&self, var: Var, summaries: &[S]) -> Option<&SummaryLevel> {
        let level = self.levels.get(&var)?;
        Some(level.get_or_init(|| SummaryLevel::build(var, summaries.iter())))
    }
}

/// One body atom's data for the join, renamed into the rule's variable
/// space and summarized once per (relation version, variable map). The
/// per-variable levels are built lazily, on first probe, by the multiway
/// path and the binary fold alike.
pub(crate) struct AtomData<T: Theory> {
    /// The source relation's tuples, in store order: what a later
    /// version of the same relation is diffed against
    /// ([`AtomData::advance`]).
    source: Vec<GenTuple<T>>,
    /// Tuple conjunctions renamed into rule variables.
    pub renamed: Vec<Vec<T::Constraint>>,
    /// One summary per renamed conjunction.
    pub summaries: Vec<T::Summary>,
    /// Distinct rule variables the atom binds.
    pub vars: Vec<Var>,
    trie: SummaryTrie,
}

impl<T: Theory> AtomData<T> {
    fn build(rel: &GenRelation<T>, atom_vars: &[Var]) -> AtomData<T> {
        let renamed: Vec<Vec<T::Constraint>> =
            rel.tuples().iter().map(|u| u.rename(&|j| atom_vars[j])).collect();
        let summaries: Vec<T::Summary> = renamed.iter().map(|c| T::summary(c)).collect();
        AtomData {
            source: rel.tuples().to_vec(),
            renamed,
            summaries,
            vars: distinct_vars(atom_vars),
            trie: SummaryTrie::new(atom_vars),
        }
    }

    /// Carry this entry to `rel`, a later version of the relation it was
    /// built from. Store edits only compact (eviction and removal keep the
    /// survivors' order) and append, so one equality walk splits the old
    /// tuples into those `rel` still holds — a prefix of `rel`'s tuples,
    /// whose renamed form, summary and trie entries are kept — and
    /// removed ones; only `rel`'s remaining tail is renamed, summarized
    /// and pushed into the trie. The walk is correct for any pair of
    /// lists (at worst it removes everything and appends all of `rel`),
    /// and the result equals [`AtomData::build`]`(rel, atom_vars)`.
    fn advance(mut self, rel: &GenRelation<T>, atom_vars: &[Var]) -> AtomData<T> {
        let tuples = rel.tuples();
        let mut kept = 0;
        let mut removed = Vec::new();
        for (i, t) in self.source.iter().enumerate() {
            if tuples.get(kept) == Some(t) {
                kept += 1;
            } else {
                removed.push(i);
            }
        }
        if !removed.is_empty() {
            let keep = |i: &mut usize| {
                let k = removed.binary_search(i).is_err();
                *i += 1;
                k
            };
            let mut i = 0;
            self.source.retain(|_| keep(&mut i));
            let mut i = 0;
            self.renamed.retain(|_| keep(&mut i));
            let mut i = 0;
            self.summaries.retain(|_| keep(&mut i));
        }
        let tail = &tuples[kept..];
        let renamed: Vec<Vec<T::Constraint>> =
            tail.iter().map(|u| u.rename(&|j| atom_vars[j])).collect();
        let summaries: Vec<T::Summary> = renamed.iter().map(|c| T::summary(c)).collect();
        self.trie.edit(&removed, &summaries);
        self.source.extend_from_slice(tail);
        self.renamed.extend(renamed);
        self.summaries.extend(summaries);
        self
    }

    /// The summary level at `var`, built on first use; `None` when the
    /// atom does not bind `var`.
    pub fn level(&self, var: Var) -> Option<&SummaryLevel> {
        self.trie.level(var, &self.summaries)
    }
}

/// Per-rule probe/survivor telemetry accumulated over a fixpoint run
/// (the source of the EXPLAIN `plans` section).
#[derive(Clone, Copy, Debug, Default)]
struct RuleTelemetry {
    probes: u64,
    survivors: u64,
}

/// Backstop against unbounded growth: IDB and delta relations get a new
/// content version every round, so their stale entries accumulate. The
/// cap bounds *each* generation of the segmented cache, so at most
/// `2 × ATOM_CACHE_MAX` entries are retained.
const ATOM_CACHE_MAX: usize = 512;

/// Per-fixpoint-run cache of join plans and per-atom join structures.
///
/// Plans are keyed by rule index (rule structure is immutable for a
/// run); atom data is keyed by the source relation's content version
/// plus the atom's variable map — a [`GenRelation::version`] is renewed
/// on every mutation, so version equality proves the cached renamed
/// tuples and levels are still exact.
///
/// Atom entries are held in two generations (`hot` / `cold`) with
/// segmented eviction: overflow rotates hot into cold (dropping the old
/// cold generation) instead of clearing everything, and a cold hit
/// promotes the entry back to hot. A steadily re-probed working set
/// therefore survives unbounded churn from one-shot versions — under
/// the previous clear-on-overflow policy a long-lived runtime dropped
/// every hot plan each time the cap was reached.
pub(crate) struct PlanCache<T: Theory> {
    plans: Vec<Option<Arc<JoinPlan>>>,
    telemetry: Vec<RuleTelemetry>,
    hot: HashMap<(u64, Vec<Var>), Arc<AtomData<T>>>,
    cold: HashMap<(u64, Vec<Var>), Arc<AtomData<T>>>,
    /// Most recently cached version per (relation lineage, variable
    /// map): the entry a miss on another version of the same relation is
    /// advanced from.
    latest: HashMap<(u64, Vec<Var>), u64>,
}

impl<T: Theory> PlanCache<T> {
    pub fn new(rules: usize) -> PlanCache<T> {
        PlanCache {
            plans: vec![None; rules],
            telemetry: vec![RuleTelemetry::default(); rules],
            hot: HashMap::new(),
            cold: HashMap::new(),
            latest: HashMap::new(),
        }
    }

    /// The rule's plan, building it on first use. Reuse counts
    /// [`Counter::PlanCacheHits`].
    pub fn plan(&mut self, rule_idx: usize, rule: &Rule<T>) -> Arc<JoinPlan> {
        if let Some(plan) = &self.plans[rule_idx] {
            count(Counter::PlanCacheHits, 1);
            return Arc::clone(plan);
        }
        let plan = Arc::new(JoinPlan::build(rule));
        self.plans[rule_idx] = Some(Arc::clone(&plan));
        plan
    }

    /// The atom's renamed tuples / summaries / levels, rebuilt only when
    /// the source relation's content changed. Reuse counts
    /// [`Counter::SummaryIndexReuses`].
    pub fn atom_data(&mut self, rel: &GenRelation<T>, atom_vars: &[Var]) -> Arc<AtomData<T>> {
        let key = (rel.version(), atom_vars.to_vec());
        if let Some(data) = self.hot.get(&key) {
            // Version equality must prove content equality: a mutation
            // path that forgot to bump the version would serve a stale
            // trie here. Tuple count is a cheap necessary condition.
            debug_assert_eq!(
                rel.len(),
                data.renamed.len(),
                "GenRelation content changed without a version bump"
            );
            count(Counter::SummaryIndexReuses, 1);
            return Arc::clone(data);
        }
        let data = match self.cold.remove(&key) {
            Some(data) => {
                debug_assert_eq!(rel.len(), data.renamed.len());
                count(Counter::SummaryIndexReuses, 1);
                data
            }
            None => Arc::new(match self.take_latest(rel, atom_vars) {
                Some(prior) => prior.advance(rel, atom_vars),
                None => AtomData::build(rel, atom_vars),
            }),
        };
        if self.hot.len() >= ATOM_CACHE_MAX {
            // Segmented eviction: the hot generation becomes cold (the old
            // cold generation is dropped); live entries are promoted back
            // out of cold on their next hit.
            self.cold = std::mem::take(&mut self.hot);
            let cold = &self.cold;
            self.latest.retain(|(_, vars), v| cold.contains_key(&(*v, vars.clone())));
        }
        self.latest.insert((rel.lineage(), atom_vars.to_vec()), rel.version());
        self.hot.insert(key, Arc::clone(&data));
        data
    }

    /// Remove and return the cached entry for the most recent other
    /// version of `rel`'s lineage under `atom_vars`, if the cache holds
    /// the only reference to it (an entry a caller still holds stays
    /// cached, and the miss builds a fresh entry).
    fn take_latest(&mut self, rel: &GenRelation<T>, atom_vars: &[Var]) -> Option<AtomData<T>> {
        let &version = self.latest.get(&(rel.lineage(), atom_vars.to_vec()))?;
        let key = (version, atom_vars.to_vec());
        let generation = if self.hot.contains_key(&key) { &mut self.hot } else { &mut self.cold };
        let entry = generation.remove(&key)?;
        match Arc::try_unwrap(entry) {
            Ok(prior) => Some(prior),
            Err(shared) => {
                generation.insert(key, shared);
                None
            }
        }
    }

    /// Fold one firing's probe/survivor counts into the rule's totals.
    pub fn record(&mut self, rule_idx: usize, probes: u64, survivors: u64) {
        self.telemetry[rule_idx].probes += probes;
        self.telemetry[rule_idx].survivors += survivors;
    }

    /// EXPLAIN rows for every rule that was multiway-planned this run.
    pub fn plan_stats(&self, program: &Program<T>) -> Vec<PlanStats> {
        self.plans
            .iter()
            .enumerate()
            .filter_map(|(i, plan)| {
                let plan = plan.as_ref()?;
                Some(PlanStats {
                    rule: program.rules[i].to_string(),
                    var_order: plan.var_order.iter().map(|&v| v as u64).collect(),
                    atoms: plan.atom_order.len() as u64,
                    probes: self.telemetry[i].probes,
                    survivors: self.telemetry[i].survivors,
                })
            })
            .collect()
    }
}

/// Closed-interval intersection of accumulated per-variable bounds with
/// one summary's ranged dimensions; `false` means the candidate is
/// jointly infeasible with the bounds and must be rejected.
fn tighten<S: ConstraintSummary>(bounds: &mut [Option<(Rat, Rat)>], summary: &S) -> bool {
    for v in summary.ranged_dims() {
        if v >= bounds.len() {
            continue;
        }
        let Some((rlo, rhi)) = summary.range(v) else { continue };
        bounds[v] = match bounds[v].take() {
            None => Some((rlo, rhi)),
            Some((lo, hi)) => {
                let lo = if rlo > lo { rlo } else { lo };
                let hi = if rhi < hi { rhi } else { hi };
                if lo > hi {
                    return false;
                }
                Some((lo, hi))
            }
        };
    }
    true
}

/// Ascending-sorted intersection of two candidate id lists.
fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The backtracking state of one multiway join execution.
struct Search<'a, T: Theory> {
    atoms: &'a [Arc<AtomData<T>>],
    /// Search order: `order[d]` is the plan position of the atom bound
    /// at depth `d`.
    order: &'a [usize],
    base: &'a GenTuple<T>,
    base_summary: T::Summary,
    chosen: Vec<usize>,
    /// Surviving combinations: per plan position the chosen tuple, and
    /// the conjunction handed to the solver.
    out: Vec<(Vec<usize>, Vec<T::Constraint>)>,
    probes: u64,
}

impl<T: Theory> Search<'_, T> {
    fn descend(&mut self, depth: usize, bounds: &[Option<(Rat, Rat)>]) {
        if depth == self.atoms.len() {
            let mut key = vec![0; self.atoms.len()];
            for (&p, &i) in self.order.iter().zip(&self.chosen) {
                key[p] = i;
            }
            let mut conj = self.base.constraints().to_vec();
            for (atom, &i) in self.atoms.iter().zip(&key) {
                conj.extend_from_slice(&atom.renamed[i]);
            }
            self.out.push((key, conj));
            return;
        }
        let atom = &self.atoms[self.order[depth]];
        // Leapfrog step: intersect the candidate sets of every level the
        // accumulated bounds can probe. Candidates are kept in ascending
        // tuple order so enumeration is deterministic regardless of
        // bucket layout.
        let mut cand: Option<Vec<usize>> = None;
        for &v in &atom.vars {
            if bounds[v].is_none() {
                continue;
            }
            let Some(level) = atom.level(v) else { continue };
            let mut ids = level.candidates(bounds[v].clone());
            ids.sort_unstable();
            cand = Some(match cand {
                None => ids,
                Some(prev) => intersect_sorted(&prev, &ids),
            });
            if cand.as_ref().is_some_and(Vec::is_empty) {
                return;
            }
        }
        let cand = cand.unwrap_or_else(|| (0..atom.renamed.len()).collect());
        for i in cand {
            self.probes += 1;
            let s = &atom.summaries[i];
            if !s.may_intersect(&self.base_summary) {
                continue;
            }
            if !self
                .chosen
                .iter()
                .zip(self.order)
                .all(|(&j, &p)| s.may_intersect(&self.atoms[p].summaries[j]))
            {
                continue;
            }
            let mut next_bounds = bounds.to_vec();
            if !tighten(&mut next_bounds, s) {
                continue;
            }
            self.chosen.push(i);
            self.descend(depth + 1, &next_bounds);
            self.chosen.pop();
        }
    }
}

/// The search order of a multiway join: plan order, or — with a `lead`
/// plan position — that atom first, then repeatedly the first remaining
/// atom (in plan order) sharing a variable with the atoms already bound,
/// so every later atom is probed through its levels rather than scanned.
fn search_order<T: Theory>(atoms: &[Arc<AtomData<T>>], lead: Option<usize>) -> Vec<usize> {
    let Some(lead) = lead else {
        return (0..atoms.len()).collect();
    };
    let mut order = vec![lead];
    let mut bound: Vec<Var> = atoms[lead].vars.clone();
    let mut rest: Vec<usize> = (0..atoms.len()).filter(|&p| p != lead).collect();
    while !rest.is_empty() {
        let at =
            rest.iter().position(|&p| atoms[p].vars.iter().any(|v| bound.contains(v))).unwrap_or(0);
        let p = rest.remove(at);
        bound.extend_from_slice(&atoms[p].vars);
        order.push(p);
    }
    order
}

/// Execute a multiway join: backtrack over `atoms` (already in plan
/// order), handing the solver one conjunction per surviving full
/// combination. Returns the surviving raw conjunctions plus the probe
/// and survivor counts. The summary search itself is serial (it is
/// cheap interval arithmetic); the surviving canonicalizations — the
/// actual solver calls — are batched through the engine's executor by
/// the caller.
///
/// `lead` names a plan position to search from first (a delta atom much
/// smaller than the others). Survival does not depend on the search
/// order — a combination survives iff its summaries pairwise may
/// intersect (and meet the base) and its closed hulls meet at every
/// variable — and the survivors are returned in plan order (ascending
/// chosen tuple per plan position, lexicographically), so only the
/// probe count differs from a plan-order search.
pub(crate) fn multiway_join<T: Theory>(
    atoms: &[Arc<AtomData<T>>],
    lead: Option<usize>,
    base: &GenTuple<T>,
    var_count: usize,
) -> (Vec<Vec<T::Constraint>>, u64, u64) {
    let _sp = span("multiway.join", "engine");
    let base_summary = T::summary(base.constraints());
    let mut bounds: Vec<Option<(Rat, Rat)>> = vec![None; var_count.max(1)];
    if !tighten(&mut bounds, &base_summary) {
        return (Vec::new(), 0, 0);
    }
    let order = search_order(atoms, lead);
    let mut search = Search {
        atoms,
        order: &order,
        base,
        base_summary,
        chosen: Vec::with_capacity(atoms.len()),
        out: Vec::new(),
        probes: 0,
    };
    search.descend(0, &bounds);
    let mut out = search.out;
    if order.iter().enumerate().any(|(d, &p)| d != p) {
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    }
    let survivors = out.len() as u64;
    (out.into_iter().map(|(_, conj)| conj).collect(), search.probes, survivors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::ast::Atom;
    use cql_dense::Dense;

    /// T(x0,x3) ← E(x0,x1), E(x1,x2), E(x2,x3): the E17 path-join shape.
    fn path_rule() -> Rule<Dense> {
        Rule::new(
            Atom::new("T", vec![0, 3]),
            vec![
                Literal::Pos(Atom::new("E", vec![0, 1])),
                Literal::Pos(Atom::new("E", vec![1, 2])),
                Literal::Pos(Atom::new("E", vec![2, 3])),
            ],
        )
    }

    #[test]
    fn plan_puts_join_variables_first_deterministically() {
        let plan = JoinPlan::build(&path_rule());
        // x1 and x2 occur in two atoms each; x0 and x3 in one. Ties break
        // toward the smaller variable index.
        assert_eq!(plan.var_order, vec![1, 2, 0, 3]);
        assert_eq!(plan.atom_order, vec![0, 1, 2]);
    }

    #[test]
    fn plan_is_identical_across_thread_counts() {
        // Planning is a pure function of the rule: rebuilding it from
        // any number of concurrent threads (the executor-width analogue)
        // yields the identical order, so EXPLAIN output is stable across
        // CQL_ENGINE_THREADS settings.
        let baseline = JoinPlan::build(&path_rule());
        let plans: Vec<JoinPlan> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..8).map(|_| s.spawn(|| JoinPlan::build(&path_rule()))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for plan in plans {
            assert_eq!(plan, baseline);
        }
    }

    #[test]
    fn constraint_literals_do_not_join() {
        use cql_dense::DenseConstraint;
        let rule: Rule<Dense> = Rule::new(
            Atom::new("T", vec![0, 1]),
            vec![
                Literal::Constraint(DenseConstraint::lt(0, 1)),
                Literal::Pos(Atom::new("E", vec![0, 1])),
            ],
        );
        let plan = JoinPlan::build(&rule);
        assert_eq!(plan.atom_order, vec![1]);
        assert_eq!(plan.var_order, vec![0, 1]);
    }

    #[test]
    fn sorted_intersection_is_exact() {
        assert_eq!(intersect_sorted(&[0, 2, 4, 6], &[1, 2, 3, 6]), vec![2, 6]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<usize>::new());
    }

    /// A mixed-shape pseudo-random tuple: pinned points, short spans and
    /// half-lines, so every bucket kind of the levels is exercised.
    fn mixed_tuple(k: u64) -> GenTuple<Dense> {
        use cql_dense::DenseConstraint as C;
        let (a, b) = ((k % 7) as i64, (k / 7 % 7) as i64);
        let cs = match k % 3 {
            0 => vec![C::eq_const(0, a), C::eq_const(1, b)],
            1 => vec![C::gt_const(0, a), C::lt_const(0, a + 2), C::eq_const(1, b)],
            _ => vec![C::ge_const(0, a), C::lt_const(1, b)],
        };
        GenTuple::new(cs).unwrap()
    }

    /// Structural equality of two entries: the renamed tuples, summaries
    /// and the level at every variable (by its exact bucket layout).
    fn assert_same_atom_data(got: &AtomData<Dense>, want: &AtomData<Dense>) {
        assert_eq!(got.source, want.source);
        assert_eq!(got.renamed, want.renamed);
        assert_eq!(got.summaries, want.summaries);
        assert_eq!(got.vars, want.vars);
        for &v in &want.vars {
            assert_eq!(format!("{:?}", got.level(v)), format!("{:?}", want.level(v)));
        }
    }

    #[test]
    fn advanced_atom_data_equals_a_fresh_build() {
        use cql_core::{EnginePolicy, SubsumptionMode};
        let vars = vec![2, 0];
        for subsumption in [SubsumptionMode::DedupOnly, SubsumptionMode::Indexed] {
            let policy = EnginePolicy { subsumption, ..EnginePolicy::default() };
            let mut rel: GenRelation<Dense> = GenRelation::with_policy(2, policy);
            let mut state = 0x9e37_79b9_7f4a_7c15_u64;
            for step in 0..200 {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let prior = AtomData::build(&rel, &vars);
                // Build the levels before the edit, so `advance` edits them;
                // every other step leaves them unbuilt.
                if step % 2 == 0 {
                    for &v in &prior.vars {
                        prior.level(v);
                    }
                }
                let k = state >> 33;
                if k % 4 == 0 && !rel.is_empty() {
                    let doomed: Vec<GenTuple<Dense>> =
                        rel.tuples().iter().skip((k % 5) as usize).step_by(3).cloned().collect();
                    assert_eq!(rel.remove_all(&doomed), doomed.len());
                } else {
                    rel.insert(mixed_tuple(k));
                }
                assert_same_atom_data(&prior.advance(&rel, &vars), &AtomData::build(&rel, &vars));
            }
        }
    }

    #[test]
    fn cache_advances_across_versions_of_one_relation() {
        let vars = vec![0, 1];
        let mut cache: PlanCache<Dense> = PlanCache::new(0);
        let mut rel: GenRelation<Dense> = GenRelation::empty(2);
        let snapshot = rel.clone();
        for k in 0..40 {
            rel.insert(mixed_tuple(k * 11));
            if k % 5 == 4 {
                let first = rel.tuples()[0].clone();
                assert!(rel.remove(&first));
            }
            let data = cache.atom_data(&rel, &vars);
            assert_same_atom_data(&data, &AtomData::build(&rel, &vars));
            data.level(0);
            // A clone that diverged (same lineage, older content) is
            // served exactly too.
            if k % 10 == 9 {
                let old = cache.atom_data(&snapshot, &vars);
                assert_same_atom_data(&old, &AtomData::build(&snapshot, &vars));
            }
        }
    }

    #[test]
    fn lead_atom_search_matches_plan_order() {
        let rule = path_rule();
        let plan = JoinPlan::build(&rule);
        let mut state = 7_u64;
        for round in 0..20 {
            let rels: Vec<GenRelation<Dense>> = (0..3)
                .map(|_| {
                    let mut rel = GenRelation::empty(2);
                    for _ in 0..(3 + round % 9) {
                        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        rel.insert(mixed_tuple(state >> 33));
                    }
                    rel
                })
                .collect();
            let atoms: Vec<Arc<AtomData<Dense>>> = plan
                .atom_order
                .iter()
                .map(|&li| {
                    let Literal::Pos(a) = &rule.body[li] else { unreachable!() };
                    Arc::new(AtomData::build(&rels[li], &a.vars))
                })
                .collect();
            let base = GenTuple::top();
            let (want, _, want_survivors) = multiway_join(&atoms, None, &base, rule.var_count());
            for lead in 0..atoms.len() {
                let (got, _, survivors) =
                    multiway_join(&atoms, Some(lead), &base, rule.var_count());
                assert_eq!(got, want, "lead {lead}, round {round}");
                assert_eq!(survivors, want_survivors);
            }
        }
    }

    #[test]
    fn atom_cache_never_serves_stale_data_across_mutations() {
        use cql_core::relation::{GenRelation, GenTuple};
        use cql_dense::DenseConstraint;
        let tup = |a: i64, b: i64| {
            GenTuple::<Dense>::new(vec![
                DenseConstraint::eq_const(0, a),
                DenseConstraint::eq_const(1, b),
            ])
            .unwrap()
        };
        let mut cache: PlanCache<Dense> = PlanCache::new(0);
        let mut rel: GenRelation<Dense> = GenRelation::empty(2);
        rel.insert(tup(1, 2));
        let vars = vec![0, 1];
        let first = cache.atom_data(&rel, &vars);
        assert_eq!(first.renamed.len(), 1);
        // Every mutation path (insert, eviction, removal) must renew the
        // version, so the cache key changes and fresh data is built — a
        // stale SummaryTrie would echo the old tuple count.
        rel.insert(tup(3, 4));
        let second = cache.atom_data(&rel, &vars);
        assert_eq!(second.renamed.len(), 2);
        assert!(rel.remove(&tup(1, 2)));
        let third = cache.atom_data(&rel, &vars);
        assert_eq!(third.renamed.len(), 1);
        // An unchanged relation reuses the cached entry (same Arc).
        let fourth = cache.atom_data(&rel, &vars);
        assert!(Arc::ptr_eq(&third, &fourth));
    }

    #[test]
    fn hot_working_set_survives_cache_churn() {
        use cql_core::relation::{GenRelation, GenTuple};
        use cql_dense::DenseConstraint;
        let tup = |a: i64, b: i64| {
            GenTuple::<Dense>::new(vec![
                DenseConstraint::eq_const(0, a),
                DenseConstraint::eq_const(1, b),
            ])
            .unwrap()
        };
        let vars = vec![0, 1];
        let mut cache: PlanCache<Dense> = PlanCache::new(0);
        // A stable working set of relations, re-probed every round — the
        // EDB atoms of a long-lived runtime.
        let stable: Vec<GenRelation<Dense>> = (0..4)
            .map(|i| {
                let mut r = GenRelation::empty(2);
                r.insert(tup(i, i + 1));
                r
            })
            .collect();
        let first: Vec<_> = stable.iter().map(|r| cache.atom_data(r, &vars)).collect();
        // A churning relation whose version changes every round — the
        // delta/IDB atoms that flood the cache with one-shot keys. Run
        // well past the cap so several generation rotations happen.
        let mut churner: GenRelation<Dense> = GenRelation::empty(2);
        let mut hits = 0usize;
        let mut probes = 0usize;
        for round in 0..(3 * ATOM_CACHE_MAX as i64) {
            churner.insert(tup(round + 100, round + 101));
            cache.atom_data(&churner, &vars);
            for (r, old) in stable.iter().zip(&first) {
                probes += 1;
                if Arc::ptr_eq(&cache.atom_data(r, &vars), old) {
                    hits += 1;
                }
            }
        }
        // Segmented eviction pins a 100% hit rate for the working set:
        // rotation demotes it to the cold generation at worst, and the
        // next probe promotes it back. (The previous clear-on-overflow
        // policy rebuilt every entry each time the cap was reached.)
        assert_eq!(hits, probes, "working set must survive churn without rebuilds");
    }
}
