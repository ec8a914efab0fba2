//! Generalized tuples, relations and databases (Definitions 1.3 / 1.4).

use crate::error::{CqlError, Result};
use crate::policy::{EnginePolicy, SubsumptionMode};
use crate::summary::{ConstraintSummary, SummaryLevel};
use crate::theory::{Theory, Var};
use cql_arith::Rat;
use cql_trace::{count, Counter};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A generalized k-tuple: a satisfiable conjunction of constraints over
/// variables `0..arity`, kept in the theory's canonical form.
///
/// A generalized tuple *finitely represents a possibly infinite set of
/// points* of `D^arity` — the central idea of the paper ("What's in a
/// tuple? Constraints.").
///
/// The canonical conjunction is stored behind an [`Arc`]: cloning a tuple
/// is a reference-count bump, so interned tuples (see the engine crate's
/// interner) are shared by every relation holding them, and equality
/// checks between shared tuples short-circuit on pointer identity.
pub struct GenTuple<T: Theory> {
    constraints: Arc<[T::Constraint]>,
}

impl<T: Theory> Clone for GenTuple<T> {
    fn clone(&self) -> Self {
        GenTuple { constraints: Arc::clone(&self.constraints) }
    }
}

impl<T: Theory> PartialEq for GenTuple<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.constraints, &other.constraints) || self.constraints == other.constraints
    }
}

impl<T: Theory> Eq for GenTuple<T> {}

impl<T: Theory> std::hash::Hash for GenTuple<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.constraints.hash(state);
    }
}

impl<T: Theory> GenTuple<T> {
    /// Canonicalize a conjunction into a tuple; `None` if unsatisfiable.
    #[must_use]
    pub fn new(constraints: Vec<T::Constraint>) -> Option<GenTuple<T>> {
        T::canonicalize(&constraints).map(|c| GenTuple { constraints: c.into() })
    }

    /// The tuple with no constraints (all of `D^arity`).
    #[must_use]
    pub fn top() -> GenTuple<T> {
        GenTuple { constraints: Vec::new().into() }
    }

    /// The canonical constraint conjunction.
    #[must_use]
    pub fn constraints(&self) -> &[T::Constraint] {
        &self.constraints
    }

    /// Do the two tuples share one interned representation? (Reference
    /// identity of the underlying canonical conjunction — used to verify
    /// hash-consing, not for semantic comparison.)
    #[must_use]
    pub fn shares_repr(&self, other: &GenTuple<T>) -> bool {
        Arc::ptr_eq(&self.constraints, &other.constraints)
    }

    /// Does the point satisfy every constraint of the tuple?
    #[must_use]
    pub fn satisfied_by(&self, point: &[T::Value]) -> bool {
        self.constraints.iter().all(|c| T::eval(c, point))
    }

    /// Conjoin with more constraints; `None` if the result is unsatisfiable.
    #[must_use]
    pub fn conjoin(&self, extra: &[T::Constraint]) -> Option<GenTuple<T>> {
        let mut all = self.constraints.to_vec();
        all.extend_from_slice(extra);
        GenTuple::new(all)
    }

    /// Rename variables.
    #[must_use]
    pub fn rename(&self, map: &dyn Fn(Var) -> Var) -> Vec<T::Constraint> {
        self.constraints.iter().map(|c| T::rename(c, map)).collect()
    }

    /// Largest variable index mentioned plus one (0 when unconstrained).
    #[must_use]
    pub fn max_var_bound(&self) -> usize {
        self.constraints.iter().flat_map(|c| T::vars(c)).max().map_or(0, |v| v + 1)
    }

    /// All constants mentioned by the tuple's constraints.
    #[must_use]
    pub fn constants(&self) -> Vec<T::Value> {
        self.constraints.iter().flat_map(|c| T::constants(c)).collect()
    }
}

impl<T: Theory> fmt::Display for GenTuple<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.constraints.is_empty() {
            return write!(f, "⊤");
        }
        let mut first = true;
        for c in self.constraints.iter() {
            if !first {
                write!(f, " ∧ ")?;
            }
            first = false;
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl<T: Theory> fmt::Debug for GenTuple<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GenTuple({self})")
    }
}

/// Cached per-tuple metadata of the indexed subsumption store.
/// `sample` is `None` until first needed, then `Some(outcome)` where the
/// outcome is the theory's answer (which may itself be "no sample"). The
/// point is `Arc`-shared, so copying a store bumps a reference count
/// instead of cloning its values.
struct TupleMeta<T: Theory> {
    signature: u64,
    sample: Option<Option<Arc<[T::Value]>>>,
}

impl<T: Theory> Clone for TupleMeta<T> {
    fn clone(&self) -> Self {
        TupleMeta { signature: self.signature, sample: self.sample.clone() }
    }
}

/// The `Arc`-shared interior of a [`GenRelation`]: tuple storage plus the
/// dedup/subsumption bookkeeping that is derived from it. Kept behind one
/// pointer so cloning a relation is a reference-count bump (persistent,
/// copy-on-write segments à la functional data structures); the first
/// mutation of a shared relation copies the segment via [`Arc::make_mut`].
struct RelStore<T: Theory> {
    tuples: Vec<GenTuple<T>>,
    /// The stored tuples again (`Arc`-shared), for O(1) exact membership.
    seen: HashSet<GenTuple<T>>,
    /// Signature + cached sample per tuple (parallel to `tuples`). Empty
    /// unless the policy runs indexed subsumption.
    meta: Vec<TupleMeta<T>>,
    /// One closed-hull bucket level per column, over indices into
    /// `tuples`. Empty unless the policy runs indexed subsumption.
    columns: Vec<SummaryLevel>,
}

impl<T: Theory> Clone for RelStore<T> {
    fn clone(&self) -> Self {
        RelStore {
            tuples: self.tuples.clone(),
            seen: self.seen.clone(),
            meta: self.meta.clone(),
            columns: self.columns.clone(),
        }
    }
}

/// A generalized relation of some arity: a finite set of generalized
/// tuples, i.e. a quantifier-free DNF formula over `arity` variables.
///
/// Inserts keep the representation compressed according to the relation's
/// [`EnginePolicy`] (see [`SubsumptionMode`]); the default indexed mode
/// maintains per-column closed-hull buckets, signatures and cached sample
/// points so subsumption stays affordable without the seed's silent size
/// cutoff.
///
/// Tuple storage lives behind an [`Arc`]: `clone` is O(1) (the snapshot
/// runtime and the incremental maintenance paths clone relations freely),
/// and the first mutation after a clone copies the shared store
/// (copy-on-write). [`GenRelation::shares_store`] observes the sharing.
pub struct GenRelation<T: Theory> {
    arity: usize,
    policy: EnginePolicy,
    store: Arc<RelStore<T>>,
    /// Content version: drawn from a process-global counter, refreshed on
    /// every mutation, preserved by `clone`. Two relations with the same
    /// version provably hold the same tuples, so derived structures
    /// (join-plan atom data and levels, snapshot epochs) can be cached
    /// against it.
    version: u64,
    /// Edit-history identity: drawn once when the relation is created,
    /// preserved by `clone` and by every mutation. It proves nothing about
    /// content (clones diverge); it only tells a cache that an entry built
    /// for another version of this relation is worth diffing against.
    lineage: u64,
}

/// Process-global source of [`GenRelation`] content versions. Starts at 1
/// so 0 can serve as a "never seen" sentinel in caches.
static NEXT_VERSION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn fresh_version() -> u64 {
    NEXT_VERSION.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Does the policy keep the indexed subsumption store's per-tuple
/// metadata and column buckets?
fn indexes(policy: EnginePolicy) -> bool {
    policy.subsumption == SubsumptionMode::Indexed
}

impl<T: Theory> Clone for GenRelation<T> {
    fn clone(&self) -> Self {
        GenRelation {
            arity: self.arity,
            policy: self.policy,
            store: Arc::clone(&self.store),
            version: self.version,
            lineage: self.lineage,
        }
    }
}

impl<T: Theory> PartialEq for GenRelation<T> {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && (Arc::ptr_eq(&self.store, &other.store) || self.store.tuples == other.store.tuples)
    }
}

impl<T: Theory> Eq for GenRelation<T> {}

impl<T: Theory> GenRelation<T> {
    /// The empty relation (represents ∅, the formula `false`) under the
    /// default [`EnginePolicy`].
    #[must_use]
    pub fn empty(arity: usize) -> GenRelation<T> {
        GenRelation::with_policy(arity, EnginePolicy::default())
    }

    /// The empty relation under an explicit policy. Relations derived from
    /// this one (union, intersection, elimination, ...) inherit the policy.
    #[must_use]
    pub fn with_policy(arity: usize, policy: EnginePolicy) -> GenRelation<T> {
        let columns =
            if indexes(policy) { vec![SummaryLevel::default(); arity] } else { Vec::new() };
        GenRelation {
            arity,
            policy,
            store: Arc::new(RelStore {
                tuples: Vec::new(),
                seen: HashSet::new(),
                meta: Vec::new(),
                columns,
            }),
            version: fresh_version(),
            lineage: fresh_version(),
        }
    }

    /// The relation's policy.
    #[must_use]
    pub fn policy(&self) -> EnginePolicy {
        self.policy
    }

    /// The relation's content version. Globally unique per mutation:
    /// equal versions imply equal contents (clones share the version of
    /// the relation they were cloned from; every insert or eviction
    /// assigns a fresh one). Suitable as a cache key for structures
    /// derived from the tuple set.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The relation's edit-history identity: fixed at creation, shared by
    /// clones and kept across mutations, so versions of one relation can
    /// be told apart from unrelated relations. Not a content proof —
    /// compare [`GenRelation::version`]s for that.
    #[must_use]
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// The full relation (represents `D^arity`, the formula `true`).
    #[must_use]
    pub fn full(arity: usize) -> GenRelation<T> {
        let mut rel = GenRelation::empty(arity);
        rel.insert(GenTuple::top());
        rel
    }

    /// Build from raw conjunctions; unsatisfiable ones are dropped,
    /// duplicates and subsumed tuples are removed.
    #[must_use]
    pub fn from_conjunctions(
        arity: usize,
        conjunctions: impl IntoIterator<Item = Vec<T::Constraint>>,
    ) -> GenRelation<T> {
        let mut rel = GenRelation::empty(arity);
        for conj in conjunctions {
            if let Some(t) = GenTuple::new(conj) {
                rel.insert(t);
            }
        }
        rel
    }

    /// The relation's arity.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The tuples (canonical conjunctions).
    #[must_use]
    pub fn tuples(&self) -> &[GenTuple<T>] {
        &self.store.tuples
    }

    /// Number of generalized tuples in the representation.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.tuples.len()
    }

    /// True iff the representation has no tuples (represents ∅).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.tuples.is_empty()
    }

    /// Do the two relations share one copy-on-write tuple store?
    /// (Reference identity of the `Arc`-shared segment — true right after
    /// a clone, false once either side has mutated. Used to verify O(1)
    /// snapshot sharing, not for semantic comparison.)
    #[must_use]
    pub fn shares_store(&self, other: &GenRelation<T>) -> bool {
        Arc::ptr_eq(&self.store, &other.store)
    }

    /// Estimated heap bytes held by the relation: constraint storage of
    /// every tuple plus the dedup and subsumption-index bookkeeping. A
    /// sampling gauge for telemetry (one pass, no solver work), not an
    /// allocator measurement.
    #[must_use]
    pub fn bytes_estimate(&self) -> usize {
        let store = &*self.store;
        let constraint = std::mem::size_of::<T::Constraint>();
        let constraints: usize = store.tuples.iter().map(|t| t.constraints().len()).sum();
        constraints * constraint
            + store.tuples.len() * std::mem::size_of::<GenTuple<T>>()
            + store.seen.len() * (std::mem::size_of::<GenTuple<T>>() + 16)
            + store.meta.len() * std::mem::size_of::<TupleMeta<T>>()
            + store.columns.iter().map(SummaryLevel::bytes_estimate).sum::<usize>()
    }

    /// Insert a tuple, maintaining the compression invariant of the
    /// relation's [`SubsumptionMode`]. Returns `true` if the tuple was
    /// added (i.e. it was not a duplicate and not subsumed).
    pub fn insert(&mut self, tuple: GenTuple<T>) -> bool {
        debug_assert!(tuple.max_var_bound() <= self.arity);
        if self.store.seen.contains(&tuple) {
            count(Counter::TuplesSubsumed, 1);
            return false;
        }
        let hull = if indexes(self.policy) { self.hull(&tuple) } else { Vec::new() };
        match self.policy.subsumption {
            SubsumptionMode::DedupOnly => {}
            SubsumptionMode::Quadratic => {
                if !self.quadratic_subsume(&tuple) {
                    count(Counter::TuplesSubsumed, 1);
                    return false;
                }
            }
            SubsumptionMode::Indexed => {
                if !self.indexed_subsume(&tuple, &hull) {
                    count(Counter::TuplesSubsumed, 1);
                    return false;
                }
            }
        }
        count(Counter::TuplesInserted, 1);
        self.push_tuple(tuple, hull);
        true
    }

    /// Quadratic baseline: scan every stored tuple in both directions.
    /// Returns `false` if the new tuple is subsumed (caller must not push).
    fn quadratic_subsume(&mut self, tuple: &GenTuple<T>) -> bool {
        for t in &self.store.tuples {
            count(Counter::EntailmentChecks, 1);
            if T::entails(tuple.constraints(), t.constraints()) {
                return false;
            }
        }
        let mut evict = Vec::new();
        for (i, t) in self.store.tuples.iter().enumerate() {
            count(Counter::EntailmentChecks, 1);
            if T::entails(t.constraints(), tuple.constraints()) {
                evict.push(i);
            }
        }
        self.remove_indices(&evict);
        true
    }

    /// The tuple's closed hull at each column: its bucket keys in the
    /// store's column levels.
    fn hull(&self, tuple: &GenTuple<T>) -> Vec<Option<(Rat, Rat)>> {
        let summary = T::summary(tuple.constraints());
        (0..self.arity).map(|col| summary.range(col)).collect()
    }

    /// Indexed subsumption. Candidates are the stored tuples whose closed
    /// hull meets the new tuple's `hull` in its most selective ranged
    /// column (all stored tuples when no column is ranged): a tuple that
    /// subsumes the new one, or is subsumed by it, shares a point with it,
    /// so their hulls meet on every column. Candidates are then pruned by
    /// signature subset and by cached sample points before any
    /// [`Theory::entails`] call. Every filter is sound — a pruned candidate
    /// provably cannot participate in the subsumption — so the resulting
    /// relation equals the quadratic baseline's.
    fn indexed_subsume(&mut self, tuple: &GenTuple<T>, hull: &[Option<(Rat, Rat)>]) -> bool {
        let candidates = self
            .store
            .columns
            .iter()
            .zip(hull)
            .filter(|(_, range)| range.is_some())
            .map(|(level, range)| level.candidates(range.clone()))
            .min_by_key(Vec::len)
            .unwrap_or_else(|| (0..self.len()).collect());
        if candidates.is_empty() {
            return true;
        }
        let sig_new = T::signature(tuple.constraints());
        let sample_new = T::sample(tuple.constraints(), self.arity);

        // Drop-check: is the new tuple entailed by a stored one?
        // `new ⊨ e` needs signature(e) ⊆ signature(new); and if we have a
        // point of `new`, that point must lie in e.
        for &i in &candidates {
            if self.store.meta[i].signature & !sig_new != 0 {
                count(Counter::SignatureSkips, 1);
                continue;
            }
            if let Some(p) = &sample_new {
                if !self.store.tuples[i].satisfied_by(p) {
                    count(Counter::SampleSkips, 1);
                    continue;
                }
            }
            count(Counter::EntailmentChecks, 1);
            if T::entails(tuple.constraints(), self.store.tuples[i].constraints()) {
                return false;
            }
        }

        // Evict-check: which stored tuples does the new one subsume?
        // `e ⊨ new` needs signature(new) ⊆ signature(e); and e's cached
        // sample point (a point of e) must lie in `new`.
        let mut evict = Vec::new();
        for i in candidates {
            if sig_new & !self.store.meta[i].signature != 0 {
                count(Counter::SignatureSkips, 1);
                continue;
            }
            if let Some(p) = self.cached_sample(i) {
                if !tuple.satisfied_by(p) {
                    count(Counter::SampleSkips, 1);
                    continue;
                }
            }
            count(Counter::EntailmentChecks, 1);
            if T::entails(self.store.tuples[i].constraints(), tuple.constraints()) {
                evict.push(i);
            }
        }
        evict.sort_unstable();
        self.remove_indices(&evict);
        true
    }

    /// The cached sample point of `tuples[i]`, computing it on first use.
    /// Only copies a shared store when it actually has to fill the cache.
    fn cached_sample(&mut self, i: usize) -> Option<&[T::Value]> {
        if self.store.meta[i].sample.is_none() {
            let sample = T::sample(self.store.tuples[i].constraints(), self.arity).map(Arc::from);
            Arc::make_mut(&mut self.store).meta[i].sample = Some(sample);
        }
        self.store.meta[i].sample.as_ref().and_then(|s| s.as_deref())
    }

    /// Remove the tuples at the given (sorted, distinct) indices,
    /// compacting storage and renumbering the column buckets.
    fn remove_indices(&mut self, indices: &[usize]) {
        if indices.is_empty() {
            return;
        }
        self.version = fresh_version();
        count(Counter::TuplesEvicted, indices.len() as u64);
        let store = Arc::make_mut(&mut self.store);
        let seen = &mut store.seen;
        let mut i = 0;
        store.tuples.retain(|t| {
            let removed = indices.binary_search(&i).is_ok();
            i += 1;
            if removed {
                seen.remove(t);
            }
            !removed
        });
        let mut i = 0;
        store.meta.retain(|_| {
            let removed = indices.binary_search(&i).is_ok();
            i += 1;
            !removed
        });
        for level in &mut store.columns {
            level.remove_indices(indices);
        }
    }

    /// Append a tuple that passed the subsumption checks; `hull` is its
    /// [`GenRelation::hull`] (empty unless the policy indexes).
    fn push_tuple(&mut self, tuple: GenTuple<T>, hull: Vec<Option<(Rat, Rat)>>) {
        self.version = fresh_version();
        let indexed = indexes(self.policy);
        let store = Arc::make_mut(&mut self.store);
        store.seen.insert(tuple.clone());
        if indexed {
            let signature = T::signature(tuple.constraints());
            store.meta.push(TupleMeta { signature, sample: None });
            for (level, range) in store.columns.iter_mut().zip(hull) {
                level.push(range);
            }
        }
        store.tuples.push(tuple);
    }

    /// Is this exact canonical tuple stored in the representation?
    /// (Syntactic membership, not point-set containment.)
    #[must_use]
    pub fn contains(&self, tuple: &GenTuple<T>) -> bool {
        self.store.seen.contains(tuple)
    }

    /// Remove one exact stored tuple. Returns `true` if it was present
    /// (and bumps the content version); `false` leaves the relation — and
    /// its version — untouched. Removal is syntactic: the point set may
    /// grow back via other stored tuples, and any tuples this one evicted
    /// at insert time do **not** reappear (callers that need exact
    /// retraction semantics must rebuild from their own ledger).
    pub fn remove(&mut self, tuple: &GenTuple<T>) -> bool {
        self.remove_all(std::slice::from_ref(tuple)) == 1
    }

    /// [`GenRelation::remove`] for a batch of distinct tuples, in one
    /// compaction pass (`O(len + tuples.len())` rather than `O(len)` per
    /// tuple). Returns how many were present; the version is bumped iff
    /// any was.
    pub fn remove_all(&mut self, tuples: &[GenTuple<T>]) -> usize {
        // `seen` and `tuples` hold the same `Arc` per stored tuple: find
        // the stored copies by hash, then locate them by address, so the
        // scan hashes no constraint values.
        let addr = |t: &GenTuple<T>| Arc::as_ptr(&t.constraints).cast::<()>() as usize;
        let mut doomed: Vec<usize> =
            tuples.iter().filter_map(|t| self.store.seen.get(t)).map(addr).collect();
        if doomed.is_empty() {
            return 0;
        }
        doomed.sort_unstable();
        let indices: Vec<usize> = (0..self.store.tuples.len())
            .filter(|&i| doomed.binary_search(&addr(&self.store.tuples[i])).is_ok())
            .collect();
        self.remove_indices(&indices);
        indices.len()
    }

    /// Does the point belong to the represented unrestricted relation?
    #[must_use]
    pub fn satisfied_by(&self, point: &[T::Value]) -> bool {
        self.store.tuples.iter().any(|t| t.satisfied_by(point))
    }

    /// Set-union of two representations (same arity).
    ///
    /// # Panics
    /// Panics on arity mismatch.
    #[must_use]
    pub fn union(&self, other: &GenRelation<T>) -> GenRelation<T> {
        assert_eq!(self.arity, other.arity, "union arity mismatch");
        let mut out = self.clone();
        for t in &other.store.tuples {
            out.insert(t.clone());
        }
        out
    }

    /// Intersection: pairwise conjunction of tuples.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    #[must_use]
    pub fn intersect(&self, other: &GenRelation<T>) -> GenRelation<T> {
        assert_eq!(self.arity, other.arity, "intersect arity mismatch");
        let mut out = GenRelation::with_policy(self.arity, self.policy);
        for a in &self.store.tuples {
            for b in &other.store.tuples {
                if let Some(t) = a.conjoin(b.constraints()) {
                    out.insert(t);
                }
            }
        }
        out
    }

    /// Complement of the represented point set, as a generalized relation
    /// over the same `arity` variables.
    ///
    /// Computed by De Morgan expansion `¬(∨ᵢ ∧ⱼ cᵢⱼ) = ∧ᵢ ∨ⱼ ¬cᵢⱼ` with
    /// satisfiability pruning after each distribution step. Worst-case
    /// exponential in the number of tuples; the cell-based evaluators of
    /// the dense-order and equality theories avoid this path entirely.
    #[must_use]
    pub fn complement(&self) -> GenRelation<T> {
        let mut acc: Vec<GenTuple<T>> = vec![GenTuple::top()];
        for tuple in &self.store.tuples {
            let mut next: Vec<GenTuple<T>> = Vec::new();
            for partial in &acc {
                for c in tuple.constraints() {
                    for neg in T::negate(c) {
                        if let Some(t) = partial.conjoin(std::slice::from_ref(&neg)) {
                            if !next
                                .iter()
                                .any(|u| u == &t || T::entails(t.constraints(), u.constraints()))
                            {
                                next.retain(|u| !T::entails(u.constraints(), t.constraints()));
                                next.push(t);
                            }
                        }
                    }
                }
            }
            acc = next;
            if acc.is_empty() {
                break;
            }
        }
        let mut out = GenRelation::with_policy(self.arity, self.policy);
        for t in acc {
            out.insert(t);
        }
        out
    }

    /// All constants mentioned across all tuples.
    #[must_use]
    pub fn constants(&self) -> Vec<T::Value> {
        self.store.tuples.iter().flat_map(GenTuple::constants).collect()
    }

    /// Rebuild with a new arity and variable renaming (used to splice a
    /// relation's DNF into a query's variable space).
    #[must_use]
    pub fn rename_into(&self, new_arity: usize, map: &dyn Fn(Var) -> Var) -> GenRelation<T> {
        let mut out = GenRelation::with_policy(new_arity, self.policy);
        for t in &self.store.tuples {
            if let Some(t2) = GenTuple::new(t.rename(map)) {
                out.insert(t2);
            }
        }
        out
    }
}

impl<T: Theory> fmt::Debug for GenRelation<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "GenRelation(arity={}) {{", self.arity)?;
        for t in &self.store.tuples {
            writeln!(f, "  {t}")?;
        }
        write!(f, "}}")
    }
}

/// A generalized database: named generalized relations.
pub struct Database<T: Theory> {
    relations: BTreeMap<String, GenRelation<T>>,
}

impl<T: Theory> Clone for Database<T> {
    fn clone(&self) -> Self {
        Database { relations: self.relations.clone() }
    }
}

impl<T: Theory> Default for Database<T> {
    fn default() -> Self {
        Database::new()
    }
}

impl<T: Theory> Database<T> {
    /// An empty database.
    #[must_use]
    pub fn new() -> Database<T> {
        Database { relations: BTreeMap::new() }
    }

    /// Add (or replace) a relation.
    pub fn insert(&mut self, name: impl Into<String>, relation: GenRelation<T>) {
        self.relations.insert(name.into(), relation);
    }

    /// Look up a relation.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&GenRelation<T>> {
        self.relations.get(name)
    }

    /// Look up a relation for in-place mutation. A relation whose store
    /// is shared with clones (snapshots, earlier rounds) copies it on the
    /// first mutation only; later mutations through the database are in
    /// place.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut GenRelation<T>> {
        self.relations.get_mut(name)
    }

    /// Look up a relation, as a [`Result`].
    ///
    /// # Errors
    /// `CqlError::UnknownRelation` if absent.
    pub fn require(&self, name: &str) -> Result<&GenRelation<T>> {
        self.relations.get(name).ok_or_else(|| CqlError::UnknownRelation(name.to_string()))
    }

    /// Iterate over `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &GenRelation<T>)> {
        self.relations.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Relation names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Number of relations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True iff no relations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// All constants mentioned anywhere in the database — the database's
    /// contribution to the active domain `D_φ` of §3.1.
    #[must_use]
    pub fn constants(&self) -> Vec<T::Value> {
        let mut out: Vec<T::Value> =
            self.relations.values().flat_map(GenRelation::constants).collect();
        dedup_values(&mut out);
        out
    }

    /// Total number of generalized tuples across relations (the database
    /// "size" N of the data-complexity analysis).
    #[must_use]
    pub fn size(&self) -> usize {
        self.relations.values().map(GenRelation::len).sum()
    }

    /// Estimated heap bytes across all relations (sum of
    /// [`GenRelation::bytes_estimate`]). A sampling gauge for telemetry.
    #[must_use]
    pub fn bytes_estimate(&self) -> usize {
        self.relations.values().map(GenRelation::bytes_estimate).sum()
    }
}

/// Sort-free dedup for values that are only `Eq + Hash` (shared with the
/// engine crate's evaluators).
pub fn dedup_values<V: Clone + Eq + std::hash::Hash>(values: &mut Vec<V>) {
    let mut seen = std::collections::HashSet::new();
    values.retain(|v| seen.insert(v.clone()));
}

impl<T: Theory> fmt::Debug for Database<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Database {{")?;
        for (name, rel) in &self.relations {
            writeln!(f, "{name}: {rel:?}")?;
        }
        write!(f, "}}")
    }
}
