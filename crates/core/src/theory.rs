//! The [`Theory`] trait — the seam between database machinery and
//! constraint solving.
//!
//! A CQL (§1.1 of the paper) is "the union of an existing database query
//! language and a decidable logical theory". The query-language half is
//! generic code in this crate; each logical theory implements [`Theory`]
//! (and optionally [`CellTheory`]) to plug in:
//!
//! * **closed-form evaluation** comes from [`Theory::eliminate`]
//!   (quantifier elimination on a conjunction),
//! * **bottom-up evaluation** comes from structural induction in the
//!   engine crate's calculus evaluator and fixpoint iteration in its
//!   Datalog engines,
//! * **low data complexity** comes from canonical forms
//!   ([`Theory::canonicalize`]) living in a space that is polynomial in the
//!   number of database constants for fixed arity.

use crate::error::Result;
use std::fmt::{Debug, Display};
use std::hash::Hash;

/// A variable is a non-negative index into the current scope
/// (a generalized tuple's positions, or a query's variable space).
pub type Var = usize;

/// A decidable constraint theory usable in the CQL framework.
///
/// All functions are stateless: a theory is a type-level tag.
pub trait Theory: Sized + Send + Sync + 'static {
    /// Atomic constraint (e.g. `x < y`, `x + y² ≤ 3`, `t(x̄, c̄) = 0`).
    type Constraint: Clone + Eq + Hash + Debug + Display + Send + Sync;

    /// A domain element, used to evaluate constraints at concrete points.
    type Value: Clone + Eq + Hash + Debug + Display + Send + Sync;

    /// Cheap over-approximation of a conjunction's solution set, used by
    /// the engine's filter-before-solve layer (summary-pruned joins).
    /// See [`crate::summary::ConstraintSummary`] for the soundness law;
    /// [`crate::summary::NoSummary`] opts a theory out of pruning.
    type Summary: crate::summary::ConstraintSummary;

    /// Human-readable theory name (for diagnostics and reports).
    fn name() -> &'static str;

    /// Summarize a *canonical* conjunction. **Soundness law**: for any
    /// canonical `a`, `b`, if `a ∧ b` is satisfiable then
    /// `summary(a).may_intersect(&summary(b))` — over-approximate freely,
    /// never under-approximate. `Summary::top()` is always a correct
    /// (if useless) answer.
    #[must_use]
    fn summary(conj: &[Self::Constraint]) -> Self::Summary;

    /// Put a conjunction into canonical form, or return `None` if it is
    /// unsatisfiable. Canonical forms must be *semantically unique*: two
    /// equivalent satisfiable conjunctions canonicalize to equal vectors.
    ///
    /// Canonical uniqueness is what lets the Datalog engines detect
    /// fixpoints; theories that can only approximate it (the polynomial
    /// theory) document the consequences on termination detection.
    fn canonicalize(conj: &[Self::Constraint]) -> Option<Vec<Self::Constraint>>;

    /// Satisfiability of a conjunction (default: via canonicalization).
    fn is_satisfiable(conj: &[Self::Constraint]) -> bool {
        Self::canonicalize(conj).is_some()
    }

    /// Eliminate `∃ var` from a conjunction, returning an equivalent
    /// disjunction of conjunctions over the remaining variables.
    ///
    /// This is the quantifier-elimination step that realizes closed-form
    /// evaluation (§1.1 of the paper).
    ///
    /// # Errors
    /// `CqlError::Unsupported` when the theory cannot eliminate the
    /// variable from this conjunction.
    fn eliminate(conj: &[Self::Constraint], var: Var) -> Result<Vec<Vec<Self::Constraint>>>;

    /// Negate a single atomic constraint into a *disjunction* of atomic
    /// constraints. All four paper theories are closed under atomic
    /// negation (¬(x<y) ≡ x≥y ≡ y<x ∨ y=x, ¬(p=0) ≡ p<0 ∨ p>0, ...).
    fn negate(c: &Self::Constraint) -> Vec<Self::Constraint>;

    /// The equality constraint `x_a = x_b` of the theory, used to translate
    /// database atoms with repeated variables (the paper assumes WLOG that
    /// atom variables are distinct, using equality constraints).
    fn var_eq(a: Var, b: Var) -> Self::Constraint;

    /// The constraint `x_v = value`, used to substitute concrete points
    /// into queries (active-domain evaluation, sentence decision).
    fn var_const_eq(v: Var, value: &Self::Value) -> Self::Constraint;

    /// Evaluate a constraint at a point: `point[v]` is the value of
    /// variable `v`.
    fn eval(c: &Self::Constraint, point: &[Self::Value]) -> bool;

    /// Rename variables.
    fn rename(c: &Self::Constraint, map: &dyn Fn(Var) -> Var) -> Self::Constraint;

    /// Variables mentioned by a constraint (sorted, deduplicated).
    fn vars(c: &Self::Constraint) -> Vec<Var>;

    /// Constants (domain elements) mentioned by a constraint — the theory's
    /// contribution to the active domain `D_φ` used by cell enumeration.
    fn constants(c: &Self::Constraint) -> Vec<Self::Value>;

    /// Does conjunction `a` entail conjunction `b` (`points(a) ⊆ points(b)`)?
    ///
    /// Used for tuple subsumption; the default is the sound approximation
    /// "equal canonical forms".
    fn entails(a: &[Self::Constraint], b: &[Self::Constraint]) -> bool {
        Self::canonicalize(a) == Self::canonicalize(b)
    }

    /// A point satisfying a *satisfiable canonical* conjunction over
    /// variables `0..arity`, if the theory can produce one.
    ///
    /// Used by tests and by sentence-level decision shortcuts; theories may
    /// return `None` when sampling is not implemented for a conjunction.
    fn sample(conj: &[Self::Constraint], arity: usize) -> Option<Vec<Self::Value>>;

    /// Subsumption-index signature of a *canonical* conjunction.
    ///
    /// [`crate::GenRelation`]'s indexed store caches this value per tuple
    /// and prunes subsumption candidates with a bitmask-subset test. **Soundness
    /// contract**: whenever `a` entails `b` (for canonical `a`, `b`),
    /// `signature(b) & !signature(a) == 0` must hold — the entailed side's
    /// bits are a subset of the entailing side's.
    ///
    /// Any map of the conjunction's *variable-support set* into bits
    /// satisfies the contract for theories where entailment in canonical
    /// form implies `vars(b) ⊆ vars(a)` (dense order, equality, and the
    /// polynomial theory's syntactic entailment qualify; see each
    /// implementation). The default — the constant 0 for everything — is
    /// always sound and disables signature pruning, leaving the hull
    /// buckets and the sample-point filter.
    #[must_use]
    fn signature(conj: &[Self::Constraint]) -> u64 {
        let _ = conj;
        0
    }
}

/// A theory whose models admit a finite *cell decomposition* over any
/// finite constant set: the r-configurations of §3 (dense order) and the
/// e-configurations of §4 (equality).
///
/// A cell of size `n` is a maximal set of points of `Dⁿ` that are
/// indistinguishable by the theory's atomic formulas over the given
/// constants (Lemmas 3.9 / 4.9 of the paper). Cells give:
///
/// * evaluation with *free complementation* (the complement of a set of
///   cells is the remaining cells), hence full relational calculus and
///   inflationary Datalog¬;
/// * the paper's `EVAL_φ` algorithm via [`CellTheory::extensions`].
pub trait CellTheory: Theory {
    /// A cell (complete atomic type) over some constant set.
    type Cell: Clone + Eq + Hash + Debug + Send + Sync;

    /// The unique cell of size 0.
    fn empty_cell() -> Self::Cell;

    /// All extensions of `cell` by one more variable, over the given
    /// (sorted, deduplicated) constants.
    fn extensions(cell: &Self::Cell, constants: &[Self::Value]) -> Vec<Self::Cell>;

    /// All cells of size `arity` over the given constants.
    ///
    /// The default composes [`CellTheory::extensions`] starting from the
    /// empty cell — exactly how `EVAL_φ` iterates over r-configurations.
    fn cells(constants: &[Self::Value], arity: usize) -> Vec<Self::Cell> {
        let mut cur = vec![Self::empty_cell()];
        for _ in 0..arity {
            cur = cur.iter().flat_map(|c| Self::extensions(c, constants)).collect();
        }
        cur
    }

    /// The conjunction `F(ξ)` describing the cell (Definitions 3.3 / 4.3).
    fn cell_formula(cell: &Self::Cell) -> Vec<Self::Constraint>;

    /// A sample point of the cell (Lemmas 3.7 / 4.7 guarantee existence).
    fn cell_sample(cell: &Self::Cell, constants: &[Self::Value]) -> Vec<Self::Value>;

    /// The unique cell containing `point` (Lemmas 3.8 / 4.8).
    fn cell_of(point: &[Self::Value], constants: &[Self::Value]) -> Self::Cell;

    /// Restrict a cell to its first `n` variables.
    fn cell_truncate(cell: &Self::Cell, n: usize) -> Self::Cell;

    /// Project a cell onto an arbitrary list of its variables (the result
    /// is a cell of size `keep.len()` whose variable `i` is the old
    /// `keep[i]`). Needed by the generalized Herbrand machinery of §3.2.
    fn cell_project(cell: &Self::Cell, keep: &[Var]) -> Self::Cell;
}
