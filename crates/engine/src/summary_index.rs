//! Summary index: filter-before-solve candidate enumeration for joins.
//!
//! Pairwise operators (product-style joins, intersections, rule firing)
//! conjoin every tuple of one side with every tuple of the other and pay
//! a solver call per pair. A [`SummaryIndex`] is built once per operator
//! over one side's [`ConstraintSummary`]s and buckets them by a single
//! *ranged* dimension (the paper's §1.1(3) move: project a generalized
//! tuple to an interval and search the cheap projections first).
//!
//! The buckets are a [`SummaryLevel`] — the closed-hull bucket type of
//! [`cql_core::summary`], shared with the relation store, which keeps one
//! level per column up to date on every insert and eviction to narrow
//! its subsumption candidates:
//!
//! * pinned dimensions (`lo == hi`) land in a point map, so a probe
//!   interval selects buckets via an `O(log n)` range scan — the grid
//!   case that dominates active-domain workloads;
//! * bounded-but-not-pinned dimensions keep their closed hull in a span
//!   list probed by linear intersection;
//! * summaries unbounded at the chosen dimension are always candidates.
//!
//! Candidates then pass through [`ConstraintSummary::may_intersect`]
//! before the caller spends a solver call. Both stages are sound: the
//! closed-hull bucketing only widens intervals, and `may_intersect` obeys
//! the soundness law of [`cql_core::summary`] — so pruning never changes
//! results, only skips pairs that were doomed to canonicalize to ⊥.
//!
//! A one-dimensional [`SummaryIndex`] is rebuilt at operator entry
//! (`O(n)` summaries). The multiway join's per-atom [`SummaryTrie`] is
//! built once per relation version and, when a later version of the same
//! relation is probed, carried over by [`SummaryTrie::edit`] (removals
//! renumbered, new tuples pushed) instead of being rebuilt.

use cql_arith::Rat;
use cql_core::summary::ConstraintSummary;
pub use cql_core::summary::SummaryLevel;
use cql_core::theory::{Theory, Var};
use cql_trace::{count, span, Counter};
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

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
pub struct SummaryTrie {
    levels: BTreeMap<Var, OnceLock<SummaryLevel>>,
}

impl SummaryTrie {
    /// A trie with one (not yet built) level per distinct variable in
    /// `vars`.
    #[must_use]
    pub fn new(vars: &[Var]) -> SummaryTrie {
        SummaryTrie { levels: vars.iter().map(|&v| (v, OnceLock::new())).collect() }
    }

    /// Carry the trie to an edited entry list: drop the entries at
    /// `removed` (sorted, distinct), renumber the survivors, then append
    /// one entry per `appended` summary. Every built level then equals a
    /// fresh build over the edited list; unbuilt levels stay unbuilt.
    pub fn edit<S: ConstraintSummary>(&mut self, removed: &[usize], appended: &[S]) {
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
    pub fn level<S: ConstraintSummary>(&self, var: Var, summaries: &[S]) -> Option<&SummaryLevel> {
        let level = self.levels.get(&var)?;
        Some(level.get_or_init(|| SummaryLevel::build(var, summaries.iter())))
    }
}

/// The bucket dimension ranged by the most summaries, smallest variable
/// on ties (deterministic across runs and thread counts); `None` when no
/// summary ranges anything.
#[must_use]
pub fn majority_dim<S: ConstraintSummary>(summaries: &[S]) -> Option<Var> {
    let mut freq: HashMap<Var, usize> = HashMap::new();
    for s in summaries {
        for v in s.ranged_dims() {
            *freq.entry(v).or_insert(0) += 1;
        }
    }
    freq.into_iter().max_by_key(|&(v, n)| (n, std::cmp::Reverse(v))).map(|(v, _)| v)
}

/// A one-dimensional bucket index over the summaries of one join side.
pub struct SummaryIndex<T: Theory> {
    summaries: Vec<T::Summary>,
    /// The bucketed dimension and its bucket level; `None` when no
    /// summary ranges anything (every probe then returns all entries).
    level: Option<(Var, SummaryLevel)>,
}

impl<T: Theory> SummaryIndex<T> {
    /// Build an index over one conjunction per tuple, choosing the bucket
    /// dimension that the most summaries bound.
    pub fn build<'a, I>(conjs: I) -> SummaryIndex<T>
    where
        I: IntoIterator<Item = &'a [T::Constraint]>,
        T::Constraint: 'a,
    {
        let summaries: Vec<T::Summary> = conjs.into_iter().map(|c| T::summary(c)).collect();
        let dim = majority_dim(&summaries);
        SummaryIndex::with_summaries(summaries, dim)
    }

    /// Build with precomputed summaries and a caller-chosen dimension
    /// (e.g. a join column). `None` disables bucketing; probes then fall
    /// back to `may_intersect` over all entries.
    #[must_use]
    pub fn with_summaries(summaries: Vec<T::Summary>, dim: Option<Var>) -> SummaryIndex<T> {
        let mut sp = span("summary_index.build", "engine");
        sp.arg("tuples", summaries.len() as u64);
        let level = dim.map(|d| (d, SummaryLevel::build(d, summaries.iter())));
        sp.arg("bucketed", level.as_ref().map_or(0, |(_, l)| l.bucketed()) as u64);
        SummaryIndex { summaries, level }
    }

    /// Number of indexed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.summaries.len()
    }

    /// True iff the index holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.summaries.is_empty()
    }

    /// Estimated heap bytes held by the index: the stored summaries plus
    /// the bucket level. A sampling gauge for telemetry.
    #[must_use]
    pub fn bytes_estimate(&self) -> usize {
        self.summaries.len() * std::mem::size_of::<T::Summary>()
            + self.level.as_ref().map_or(0, |(_, l)| l.bytes_estimate())
    }

    /// Indices whose bucket at the index dimension meets `range` (a
    /// closed probe interval at that dimension); all entries when the
    /// probe or the index is unranged. Bucket-stage only — sound because
    /// two summaries whose closed hulls at one dimension are disjoint
    /// cannot share a solution at that dimension.
    fn bucket_candidates(&self, range: Option<(Rat, Rat)>) -> Vec<usize> {
        let (Some((_, level)), Some(range)) = (&self.level, range) else {
            return (0..self.summaries.len()).collect();
        };
        level.candidates(Some(range))
    }

    /// Candidate entries for a probe summary: bucket scan at the index
    /// dimension, then [`ConstraintSummary::may_intersect`] on the
    /// survivors. Counts [`Counter::PruneCandidates`] (pairs an
    /// exhaustive enumeration would solve) and
    /// [`Counter::PruneSurvivors`] (pairs actually handed to the solver).
    #[must_use]
    pub fn matches(&self, probe: &T::Summary) -> Vec<usize> {
        count(Counter::PruneCandidates, self.summaries.len() as u64);
        let range = self.level.as_ref().and_then(|(d, _)| probe.range(*d));
        let survivors: Vec<usize> = self
            .bucket_candidates(range)
            .into_iter()
            .filter(|&i| probe.may_intersect(&self.summaries[i]))
            .collect();
        count(Counter::PruneSurvivors, survivors.len() as u64);
        survivors
    }

    /// Candidate entries for a raw probe interval at the index dimension
    /// (used by equi-joins, where the probe lives in the *other* side's
    /// column space and only the joined column is comparable). Bucket
    /// stage only; same counters as [`SummaryIndex::matches`].
    #[must_use]
    pub fn matches_range(&self, range: Option<(Rat, Rat)>) -> Vec<usize> {
        count(Counter::PruneCandidates, self.summaries.len() as u64);
        let survivors = self.bucket_candidates(range);
        count(Counter::PruneSurvivors, survivors.len() as u64);
        survivors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cql_core::summary::BoxSummary;

    /// A stand-in theory is overkill here: exercise the index through
    /// summaries directly via `with_summaries`, using the dense theory's
    /// summary shape.
    enum Probe {}
    impl Theory for Probe {
        type Constraint = std::convert::Infallible;
        type Value = Rat;
        type Summary = BoxSummary;
        fn name() -> &'static str {
            "probe"
        }
        fn summary(_: &[Self::Constraint]) -> BoxSummary {
            BoxSummary::new()
        }
        fn canonicalize(_: &[Self::Constraint]) -> Option<Vec<Self::Constraint>> {
            Some(Vec::new())
        }
        fn eliminate(
            _: &[Self::Constraint],
            _: Var,
        ) -> cql_core::error::Result<Vec<Vec<Self::Constraint>>> {
            Ok(Vec::new())
        }
        fn negate(c: &Self::Constraint) -> Vec<Self::Constraint> {
            match *c {}
        }
        fn var_eq(_: Var, _: Var) -> Self::Constraint {
            unreachable!()
        }
        fn var_const_eq(_: Var, _: &Rat) -> Self::Constraint {
            unreachable!()
        }
        fn eval(c: &Self::Constraint, _: &[Rat]) -> bool {
            match *c {}
        }
        fn rename(c: &Self::Constraint, _: &dyn Fn(Var) -> Var) -> Self::Constraint {
            match *c {}
        }
        fn vars(c: &Self::Constraint) -> Vec<Var> {
            match *c {}
        }
        fn constants(c: &Self::Constraint) -> Vec<Rat> {
            match *c {}
        }
        fn entails(_: &[Self::Constraint], _: &[Self::Constraint]) -> bool {
            true
        }
        fn sample(_: &[Self::Constraint], arity: usize) -> Option<Vec<Rat>> {
            Some(vec![Rat::from(0); arity])
        }
    }

    fn pinned(v: Var, k: i64) -> BoxSummary {
        let mut b = BoxSummary::new();
        b.pin(v, Rat::from(k));
        b
    }

    #[test]
    fn point_buckets_prune_disjoint_pins() {
        let entries: Vec<BoxSummary> = (0..10).map(|k| pinned(0, k)).collect();
        let idx = SummaryIndex::<Probe>::with_summaries(entries, Some(0));
        assert_eq!(idx.matches(&pinned(0, 3)), vec![3]);
        assert!(idx.matches(&pinned(0, 42)).is_empty());
    }

    #[test]
    fn unranged_probe_sees_everything() {
        let entries: Vec<BoxSummary> = (0..4).map(|k| pinned(0, k)).collect();
        let idx = SummaryIndex::<Probe>::with_summaries(entries, Some(0));
        assert_eq!(idx.matches(&BoxSummary::new()).len(), 4);
        assert_eq!(idx.matches_range(None).len(), 4);
    }

    #[test]
    fn spans_and_rest_are_probed() {
        let mut ranged = BoxSummary::new();
        ranged.bound_below(0, Rat::from(2), false);
        ranged.bound_above(0, Rat::from(5), false);
        let unbounded = BoxSummary::new();
        let idx =
            SummaryIndex::<Probe>::with_summaries(vec![ranged, unbounded, pinned(0, 9)], Some(0));
        // Probe [4,6]: meets the span and the unbounded entry, not the pin.
        let mut probe = BoxSummary::new();
        probe.bound_below(0, Rat::from(4), false);
        probe.bound_above(0, Rat::from(6), false);
        let mut got = idx.matches(&probe);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn second_dimension_still_filters_candidates() {
        // Both entries share the bucket at dim 0 but one conflicts at dim 1.
        let mut a = pinned(0, 1);
        a.pin(1, Rat::from(7));
        let mut b = pinned(0, 1);
        b.pin(1, Rat::from(8));
        let idx = SummaryIndex::<Probe>::with_summaries(vec![a, b], Some(0));
        let mut probe = pinned(0, 1);
        probe.pin(1, Rat::from(7));
        assert_eq!(idx.matches(&probe), vec![0]);
    }
}
