//! Cheap over-approximating summaries of canonical conjunctions.
//!
//! The filter-before-solve layer (DESIGN.md §9): before the engine hands
//! a pair of generalized tuples to the theory solver (conjoin +
//! canonicalize, or worse, quantifier elimination), it intersects their
//! *summaries* — constant-size over-approximations computed once per
//! tuple. The paper's own indexing discussion (§1.1(3)) makes the same
//! move for 1-dimensional searching: project a generalized tuple to an
//! interval and search the cheap projections first.
//!
//! # Soundness law
//!
//! For every theory `T` and canonical conjunctions `a`, `b`:
//!
//! ```text
//! sat(a ∧ b)  ⇒  T::summary(a).may_intersect(&T::summary(b))
//! ```
//!
//! A summary may claim intersection for a jointly unsatisfiable pair
//! (that costs only a wasted exact check) but must never deny it for a
//! satisfiable one — pruning is a filter, never an oracle. The law is
//! property-tested per theory with point witnesses: any point satisfying
//! both conjunctions forces `may_intersect` to hold.

use crate::theory::Var;
use cql_arith::Rat;
use cql_trace::{count, Counter};
use std::collections::{BTreeMap, HashMap};

/// A cheap over-approximation of a canonical conjunction's solution set.
///
/// Implementations must satisfy the soundness law in the module docs.
/// [`ConstraintSummary::range`] additionally lets the engine bucket
/// summaries by a bounded dimension (grid / sorted-interval indexes);
/// returning `None` everywhere is always correct and merely disables
/// bucketing for that summary.
pub trait ConstraintSummary: Clone + std::fmt::Debug + Send + Sync {
    /// Summary of the unconstrained conjunction: intersects everything.
    #[must_use]
    fn top() -> Self;

    /// May the two summarized conjunctions share a solution?
    ///
    /// `false` asserts the underlying conjunction pair is unsatisfiable;
    /// `true` promises nothing.
    #[must_use]
    fn may_intersect(&self, other: &Self) -> bool;

    /// A closed interval `[lo, hi]` over-approximating dimension `dim`
    /// of the solution set, when the summary bounds it on both sides
    /// (`lo == hi` for a pinned dimension). `None` when unbounded or
    /// unknown at `dim`.
    #[must_use]
    fn range(&self, dim: Var) -> Option<(Rat, Rat)> {
        let _ = dim;
        None
    }

    /// Dimensions for which [`ConstraintSummary::range`] would return
    /// `Some`, used by the engine to pick an index dimension. The
    /// default (empty) is always sound.
    #[must_use]
    fn ranged_dims(&self) -> Vec<Var> {
        Vec::new()
    }
}

/// One per-dimension bound of a [`BoxSummary`]: optional lower and upper
/// bounds, each with a strictness flag.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DimBounds {
    /// Lower bound `(value, strict)`: `x > value` when strict, `x ≥ value`
    /// otherwise.
    pub lo: Option<(Rat, bool)>,
    /// Upper bound `(value, strict)`: `x < value` when strict, `x ≤ value`
    /// otherwise.
    pub hi: Option<(Rat, bool)>,
}

impl DimBounds {
    /// Is the bound pair itself empty (`lo > hi`, or touching with a
    /// strict side)?
    fn is_empty(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Some((lo, ls)), Some((hi, hs))) => lo > hi || (lo == hi && (*ls || *hs)),
            _ => false,
        }
    }

    /// Do two bound pairs on the same dimension overlap?
    fn overlaps(&self, other: &DimBounds) -> bool {
        let below = |lo: &Option<(Rat, bool)>, hi: &Option<(Rat, bool)>| match (lo, hi) {
            (Some((l, ls)), Some((h, hs))) => l < h || (l == h && !*ls && !*hs),
            _ => true,
        };
        below(&self.lo, &other.hi) && below(&other.lo, &self.hi)
    }
}

/// Per-variable interval box: the summary shape shared by the dense-order
/// and polynomial theories (and the numeric sort of the two-sorted
/// theory). Dimensions not mentioned are unbounded, so ignoring a
/// constraint can only widen the box — which is exactly the sound
/// direction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BoxSummary {
    /// Bounds per dimension, sparse and sorted by variable.
    bounds: Vec<(Var, DimBounds)>,
}

impl BoxSummary {
    /// The unconstrained box.
    #[must_use]
    pub fn new() -> BoxSummary {
        BoxSummary::default()
    }

    fn entry(&mut self, v: Var) -> &mut DimBounds {
        let i = match self.bounds.binary_search_by_key(&v, |(w, _)| *w) {
            Ok(i) => i,
            Err(i) => {
                self.bounds.insert(i, (v, DimBounds::default()));
                i
            }
        };
        &mut self.bounds[i].1
    }

    fn get(&self, v: Var) -> Option<&DimBounds> {
        self.bounds.binary_search_by_key(&v, |(w, _)| *w).ok().map(|i| &self.bounds[i].1)
    }

    /// Record `x_v < value` (strict) or `x_v ≤ value`, keeping the
    /// tighter of this and any existing upper bound.
    pub fn bound_above(&mut self, v: Var, value: Rat, strict: bool) {
        let b = self.entry(v);
        match &b.hi {
            Some((cur, cs)) if *cur < value || (*cur == value && (*cs || !strict)) => {}
            _ => b.hi = Some((value, strict)),
        }
    }

    /// Record `x_v > value` (strict) or `x_v ≥ value`, keeping the
    /// tighter of this and any existing lower bound.
    pub fn bound_below(&mut self, v: Var, value: Rat, strict: bool) {
        let b = self.entry(v);
        match &b.lo {
            Some((cur, cs)) if *cur > value || (*cur == value && (*cs || !strict)) => {}
            _ => b.lo = Some((value, strict)),
        }
    }

    /// Record `x_v = value` (a point dimension).
    pub fn pin(&mut self, v: Var, value: Rat) {
        self.bound_below(v, value.clone(), false);
        self.bound_above(v, value, false);
    }
}

impl ConstraintSummary for BoxSummary {
    fn top() -> BoxSummary {
        BoxSummary::default()
    }

    fn may_intersect(&self, other: &BoxSummary) -> bool {
        // A box empty on its own cannot meet anything.
        if self.bounds.iter().any(|(_, b)| b.is_empty())
            || other.bounds.iter().any(|(_, b)| b.is_empty())
        {
            return false;
        }
        self.bounds.iter().all(|(v, b)| other.get(*v).is_none_or(|ob| b.overlaps(ob)))
    }

    fn range(&self, dim: Var) -> Option<(Rat, Rat)> {
        let b = self.get(dim)?;
        match (&b.lo, &b.hi) {
            // The closed hull: strictness is dropped, which only widens.
            (Some((lo, _)), Some((hi, _))) if lo <= hi => Some((lo.clone(), hi.clone())),
            _ => None,
        }
    }

    fn ranged_dims(&self) -> Vec<Var> {
        self.bounds
            .iter()
            .filter(|(_, b)| matches!((&b.lo, &b.hi), (Some((l, _)), Some((h, _))) if l <= h))
            .map(|(v, _)| *v)
            .collect()
    }
}

/// One closed-hull bucket level: entry *indices* bucketed by their
/// [`ConstraintSummary::range`] hull at one dimension. The owning
/// structure keeps the entries themselves and knows the dimension.
///
/// Shared by the relation store (one level per column, maintained on
/// every insert and eviction, to narrow subsumption candidates), the
/// engine's algebra joins (built per operator, probed through [`prune`])
/// and its rule-body joins (one level per atom variable):
///
/// * pinned entries (`lo == hi`) land in a [`BTreeMap`] keyed by the
///   point, so a probe interval selects buckets by an `O(log n)` range
///   scan — the grid case that dominates active-domain workloads;
/// * bounded-but-not-pinned entries keep their closed hull in a span
///   list probed by linear intersection;
/// * entries unbounded at the dimension sit in a catch-all bucket that
///   every probe returns.
///
/// Probing is sound whenever two entries that share a point must be
/// returned for each other: each entry's hull contains the dimension's
/// coordinate of every one of its points, so hulls of entries with a
/// common point meet.
#[derive(Clone, Debug, Default)]
pub struct SummaryLevel {
    len: usize,
    /// Entries pinned at the level's dimension, keyed by the point.
    points: BTreeMap<Rat, Vec<usize>>,
    /// Entries bounded but not pinned: closed hulls `(lo, hi)`.
    spans: Vec<((Rat, Rat), usize)>,
    /// Entries unbounded at the dimension — candidates for every probe.
    rest: Vec<usize>,
}

impl SummaryLevel {
    /// Bucket `summaries` (entry `i` is the `i`-th) by their closed hull
    /// at dimension `dim`.
    pub fn build<'a, S, I>(dim: Var, summaries: I) -> SummaryLevel
    where
        S: ConstraintSummary + 'a,
        I: IntoIterator<Item = &'a S>,
    {
        let mut level = SummaryLevel::default();
        for s in summaries {
            level.push(s.range(dim));
        }
        level
    }

    /// Append the next entry (index [`SummaryLevel::len`]) with closed
    /// hull `range` at the level's dimension (`None` when unbounded).
    pub fn push(&mut self, range: Option<(Rat, Rat)>) {
        let i = self.len;
        self.len += 1;
        match range {
            Some((lo, hi)) if lo == hi => self.points.entry(lo).or_default().push(i),
            Some(hull) => self.spans.push((hull, i)),
            None => self.rest.push(i),
        }
    }

    /// Drop the entries at `removed` (sorted, distinct) and renumber the
    /// survivors densely, keeping their relative order — the level of
    /// the compacted entry list.
    pub fn remove_indices(&mut self, removed: &[usize]) {
        // Renumber `i` past the removed entries; `false` drops `i` itself.
        let renumber = |i: &mut usize| {
            let below = removed.partition_point(|&r| r < *i);
            let keep = removed.get(below) != Some(i);
            *i -= below;
            keep
        };
        self.points.retain(|_, ids| {
            ids.retain_mut(renumber);
            !ids.is_empty()
        });
        self.spans.retain_mut(|(_, i)| renumber(i));
        self.rest.retain_mut(renumber);
        self.len -= removed.len();
    }

    /// Number of bucketed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the level holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many entries actually range the level's dimension (the rest
    /// are returned by every probe).
    #[must_use]
    pub fn bucketed(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Estimated heap bytes held by the level's bucket structures
    /// (points map, span list, catch-all) — a sampling gauge for
    /// telemetry, not an allocator measurement.
    #[must_use]
    pub fn bytes_estimate(&self) -> usize {
        let point_entry = std::mem::size_of::<(Rat, Vec<usize>)>() + 16;
        let id = std::mem::size_of::<usize>();
        let point_ids: usize = self.points.values().map(Vec::len).sum();
        self.points.len() * point_entry
            + point_ids * id
            + self.spans.len() * std::mem::size_of::<((Rat, Rat), usize)>()
            + self.rest.len() * id
    }

    /// Entry indices whose hull at the level's dimension meets the closed
    /// probe `range`; all entries (in index order) when the probe is
    /// unranged.
    #[must_use]
    pub fn candidates(&self, range: Option<(Rat, Rat)>) -> Vec<usize> {
        let Some((lo, hi)) = range else {
            return (0..self.len).collect();
        };
        let mut out: Vec<usize> = Vec::new();
        for ids in self.points.range(&lo..=&hi).map(|(_, ids)| ids) {
            out.extend_from_slice(ids);
        }
        for ((slo, shi), i) in &self.spans {
            if *slo <= hi && lo <= *shi {
                out.push(*i);
            }
        }
        out.extend_from_slice(&self.rest);
        out
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

/// Filter-before-solve candidates among the `len` entries of one join
/// side: those whose bucket in `level` meets the closed probe `range`
/// (every entry, in index order, when either is `None`) and that pass
/// `keep` — typically [`ConstraintSummary::may_intersect`] against the
/// probe's summary. Counts [`Counter::PruneCandidates`] (pairs an
/// exhaustive enumeration would solve) and [`Counter::PruneSurvivors`]
/// (pairs handed on to the solver). Sound whenever `keep` is: two
/// entries whose closed hulls at one dimension are disjoint cannot share
/// a solution.
pub fn prune(
    len: usize,
    level: Option<&SummaryLevel>,
    range: Option<(Rat, Rat)>,
    keep: impl Fn(usize) -> bool,
) -> Vec<usize> {
    count(Counter::PruneCandidates, len as u64);
    let candidates = level.map_or_else(|| (0..len).collect(), |level| level.candidates(range));
    let survivors: Vec<usize> = candidates.into_iter().filter(|&i| keep(i)).collect();
    count(Counter::PruneSurvivors, survivors.len() as u64);
    survivors
}

/// The trivial summary: intersects everything, buckets nothing. Useful
/// for theories (or theory modes) that opt out of pruning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoSummary;

impl ConstraintSummary for NoSummary {
    fn top() -> NoSummary {
        NoSummary
    }

    fn may_intersect(&self, _other: &NoSummary) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i64) -> Rat {
        Rat::from(v)
    }

    #[test]
    fn disjoint_boxes_do_not_intersect() {
        let mut a = BoxSummary::new();
        a.bound_above(0, r(3), false);
        let mut b = BoxSummary::new();
        b.bound_below(0, r(5), false);
        assert!(!a.may_intersect(&b));
        assert!(!b.may_intersect(&a));
    }

    #[test]
    fn touching_boxes_respect_strictness() {
        let mut a = BoxSummary::new();
        a.bound_above(0, r(3), false);
        let mut b = BoxSummary::new();
        b.bound_below(0, r(3), false);
        assert!(a.may_intersect(&b));
        let mut c = BoxSummary::new();
        c.bound_below(0, r(3), true);
        assert!(!a.may_intersect(&c));
    }

    #[test]
    fn unbounded_dims_always_overlap() {
        let mut a = BoxSummary::new();
        a.pin(0, r(1));
        let mut b = BoxSummary::new();
        b.pin(1, r(9));
        assert!(a.may_intersect(&b));
        assert!(BoxSummary::top().may_intersect(&a));
    }

    #[test]
    fn empty_box_meets_nothing() {
        let mut a = BoxSummary::new();
        a.bound_below(2, r(7), false);
        a.bound_above(2, r(4), false);
        assert!(!a.may_intersect(&BoxSummary::top()));
    }

    #[test]
    fn range_is_closed_hull() {
        let mut a = BoxSummary::new();
        a.bound_below(1, r(2), true);
        a.bound_above(1, r(6), true);
        assert_eq!(a.range(1), Some((r(2), r(6))));
        assert_eq!(a.range(0), None);
        assert_eq!(a.ranged_dims(), vec![1]);
        let mut p = BoxSummary::new();
        p.pin(0, r(5));
        assert_eq!(p.range(0), Some((r(5), r(5))));
    }

    #[test]
    fn level_probes_points_spans_and_rest() {
        // Entries: pin 1, span [2, 5], unbounded, pin 4.
        let mut level = SummaryLevel::default();
        level.push(Some((r(1), r(1))));
        level.push(Some((r(2), r(5))));
        level.push(None);
        level.push(Some((r(4), r(4))));
        assert_eq!((level.len(), level.bucketed()), (4, 3));
        let mut got = level.candidates(Some((r(4), r(6))));
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
        // Closed hulls: touching the span's end still meets it.
        assert_eq!(level.candidates(Some((r(0), r(2)))), vec![0, 1, 2]);
        assert_eq!(level.candidates(None), vec![0, 1, 2, 3]);
    }

    #[test]
    fn level_removal_renumbers_survivors() {
        let mut level = SummaryLevel::default();
        for k in 0..6 {
            level.push(if k % 3 == 2 { None } else { Some((r(k), r(k + k % 2))) });
        }
        // Drop entries 0 and 3; survivors 1, 2, 4, 5 become 0, 1, 2, 3.
        level.remove_indices(&[0, 3]);
        assert_eq!(level.len(), 4);
        let mut all = level.candidates(Some((r(0), r(9))));
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        // Old entry 4 (pin 4) is now 2; old 5 (unbounded) is now 3.
        assert_eq!(level.candidates(Some((r(4), r(4)))), vec![2, 1, 3]);
        level.push(Some((r(7), r(7))));
        assert_eq!(level.candidates(Some((r(7), r(7)))), vec![4, 1, 3]);
    }

    fn pinned(v: Var, k: i64) -> BoxSummary {
        let mut b = BoxSummary::new();
        b.pin(v, r(k));
        b
    }

    /// Probe `entries`, bucketed at `dim`, with `probe`'s summary.
    fn matches(entries: &[BoxSummary], dim: Option<Var>, probe: &BoxSummary) -> Vec<usize> {
        let level = dim.map(|d| SummaryLevel::build(d, entries));
        let range = dim.and_then(|d| probe.range(d));
        prune(entries.len(), level.as_ref(), range, |i| probe.may_intersect(&entries[i]))
    }

    #[test]
    fn point_buckets_prune_disjoint_pins() {
        let entries: Vec<BoxSummary> = (0..10).map(|k| pinned(0, k)).collect();
        assert_eq!(matches(&entries, Some(0), &pinned(0, 3)), vec![3]);
        assert!(matches(&entries, Some(0), &pinned(0, 42)).is_empty());
    }

    #[test]
    fn unranged_probe_sees_everything() {
        let entries: Vec<BoxSummary> = (0..4).map(|k| pinned(0, k)).collect();
        assert_eq!(matches(&entries, Some(0), &BoxSummary::new()).len(), 4);
        let level = SummaryLevel::build(0, &entries);
        assert_eq!(prune(4, Some(&level), None, |_| true), vec![0, 1, 2, 3]);
        assert_eq!(majority_dim(&[BoxSummary::new()]), None);
    }

    #[test]
    fn spans_and_rest_are_probed() {
        let mut ranged = BoxSummary::new();
        ranged.bound_below(0, r(2), false);
        ranged.bound_above(0, r(5), false);
        let entries = vec![ranged, BoxSummary::new(), pinned(0, 9)];
        assert_eq!(majority_dim(&entries), Some(0));
        // Probe [4,6]: meets the span and the unbounded entry, not the pin.
        let mut probe = BoxSummary::new();
        probe.bound_below(0, r(4), false);
        probe.bound_above(0, r(6), false);
        let mut got = matches(&entries, Some(0), &probe);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn second_dimension_still_filters_candidates() {
        // Both entries share the bucket at dim 0 but one conflicts at dim 1.
        let mut a = pinned(0, 1);
        a.pin(1, r(7));
        let mut b = pinned(0, 1);
        b.pin(1, r(8));
        let mut probe = pinned(0, 1);
        probe.pin(1, r(7));
        assert_eq!(matches(&[a, b], Some(0), &probe), vec![0]);
    }

    #[test]
    fn pin_tightens_bounds() {
        let mut a = BoxSummary::new();
        a.bound_below(0, r(0), false);
        a.bound_above(0, r(10), false);
        a.pin(0, r(4));
        assert_eq!(a.range(0), Some((r(4), r(4))));
    }
}
