//! The *generalized relational algebra* (§2.1 of the paper): "all the
//! operations are simple variants of the familiar database ones except
//! for projection. Projection corresponds to quantifier elimination and
//! is the nontrivial operation."
//!
//! These operators work directly on generalized relations, independent of
//! the formula AST — useful for procedural pipelines and as the algebraic
//! target a calculus optimizer would translate into.
//!
//! Every operator has an engine-aware `*_with` form that runs its
//! per-tuple batches (conjunctions, eliminations) on the engine's
//! executor and canonicalizes results through its interner; the plain
//! forms delegate to a serial engine.
//!
//! Each `*_with` operator runs under [`cql_trace::op_timed`]
//! (`"algebra.<op>"`): inclusive wall time aggregates into the current
//! metrics scope's operator table and, while the flight recorder is on,
//! is captured as a span.
//! Timings are inclusive — `join` includes the `product` and `select` it
//! is built from.

use crate::Engine;
use cql_core::error::{CqlError, Result};
use cql_core::relation::{GenRelation, GenTuple};
use cql_core::summary::{majority_dim, prune, ConstraintSummary, SummaryLevel};
use cql_core::theory::Theory;
use cql_trace::{count, op_timed, Counter};

/// σ — restrict a relation by additional constraints (columns are the
/// constraint variables).
#[must_use]
pub fn select<T: Theory>(rel: &GenRelation<T>, constraints: &[T::Constraint]) -> GenRelation<T> {
    select_with(&Engine::serial(), rel, constraints)
}

/// [`select`] on an engine context.
#[must_use]
pub fn select_with<T: Theory>(
    engine: &Engine<T>,
    rel: &GenRelation<T>,
    constraints: &[T::Constraint],
) -> GenRelation<T> {
    op_timed("algebra.select", || {
        // Filter-before-solve: one summary for the selection constraints,
        // one per tuple; pairs whose summaries refute intersection are
        // unsatisfiable (soundness law) and skip the solver entirely.
        let sel = engine.policy.join.filters().then(|| T::summary(constraints));
        let tuples = engine.executor.map(rel.tuples().to_vec(), |t| {
            if let Some(sel) = &sel {
                count(Counter::PruneCandidates, 1);
                if !sel.may_intersect(&T::summary(t.constraints())) {
                    return None;
                }
                count(Counter::PruneSurvivors, 1);
            }
            engine.conjoin(&t, constraints)
        });
        let mut out = engine.relation(rel.arity());
        for t in tuples.into_iter().flatten() {
            out.insert(t);
        }
        out
    })
}

/// π — project onto `columns` (in the given order): quantifier-eliminate
/// every other column, then renumber. Duplicate columns are allowed.
///
/// # Errors
/// Theory `Unsupported` errors from quantifier elimination, or
/// `Malformed` on out-of-range columns.
pub fn project<T: Theory>(rel: &GenRelation<T>, columns: &[usize]) -> Result<GenRelation<T>> {
    project_with(&Engine::serial(), rel, columns)
}

/// [`project`] on an engine context.
///
/// # Errors
/// As [`project`].
pub fn project_with<T: Theory>(
    engine: &Engine<T>,
    rel: &GenRelation<T>,
    columns: &[usize],
) -> Result<GenRelation<T>> {
    op_timed("algebra.project", || {
        for &c in columns {
            if c >= rel.arity() {
                return Err(CqlError::Malformed(format!(
                    "projection column {c} out of range for arity {}",
                    rel.arity()
                )));
            }
        }
        // Eliminate the dropped columns.
        let mut current = rel.clone();
        for v in 0..rel.arity() {
            if !columns.contains(&v) {
                current = eliminate_with(engine, &current, v)?;
            }
        }
        // Renumber kept columns; duplicates get equality constraints.
        let mut out = engine.relation(columns.len());
        for t in current.tuples() {
            // position of original column v in the output (first occurrence).
            let first_pos = |v: usize| columns.iter().position(|&c| c == v).expect("kept");
            let mut constraints = t.rename(&first_pos);
            for (i, &c) in columns.iter().enumerate() {
                if first_pos(c) != i {
                    constraints.push(T::var_eq(first_pos(c), i));
                }
            }
            if let Some(t2) = engine.intern(constraints) {
                out.insert(t2);
            }
        }
        Ok(out)
    })
}

/// × — cartesian product: the right relation's columns are shifted past
/// the left's.
#[must_use]
pub fn product<T: Theory>(a: &GenRelation<T>, b: &GenRelation<T>) -> GenRelation<T> {
    product_with(&Engine::serial(), a, b)
}

/// [`product`] on an engine context: the pairwise conjunctions run on the
/// executor, one batch per left tuple.
///
/// The product is never summary-pruned: the sides occupy disjoint column
/// spaces, so their summaries cannot conflict (every pair is satisfiable
/// whenever both tuples are). Pruning applies where columns are shared or
/// equated — [`select_with`], [`intersect_with`], [`join_with`].
#[must_use]
pub fn product_with<T: Theory>(
    engine: &Engine<T>,
    a: &GenRelation<T>,
    b: &GenRelation<T>,
) -> GenRelation<T> {
    op_timed("algebra.product", || {
        let shift = a.arity();
        let shifted: Vec<Vec<T::Constraint>> =
            b.tuples().iter().map(|tb| tb.rename(&|v| v + shift)).collect();
        let tuples = engine.executor.flat_map(a.tuples().to_vec(), |ta| {
            shifted
                .iter()
                .filter_map(|tb| {
                    let mut constraints = ta.constraints().to_vec();
                    constraints.extend_from_slice(tb);
                    engine.intern(constraints)
                })
                .collect::<Vec<_>>()
        });
        let mut out = engine.relation(a.arity() + b.arity());
        for t in tuples {
            out.insert(t);
        }
        out
    })
}

/// ∩ — intersection: pairwise conjunction of tuples (same arity), the
/// engine-aware counterpart of [`GenRelation::intersect`].
///
/// # Panics
/// Panics on arity mismatch.
#[must_use]
pub fn intersect_with<T: Theory>(
    engine: &Engine<T>,
    a: &GenRelation<T>,
    b: &GenRelation<T>,
) -> GenRelation<T> {
    assert_eq!(a.arity(), b.arity(), "intersect arity mismatch");
    op_timed("algebra.intersect", || {
        // Both sides share one column space, so summaries are directly
        // comparable: bucket the right side at its majority dimension,
        // probe per left tuple.
        let filters = engine.policy.join.filters();
        let summaries: Vec<T::Summary> = if filters {
            b.tuples().iter().map(|t| T::summary(t.constraints())).collect()
        } else {
            Vec::new()
        };
        let dim = majority_dim(&summaries);
        let level = dim.map(|d| SummaryLevel::build(d, &summaries));
        let tuples = engine.executor.flat_map(a.tuples().to_vec(), |ta| {
            let bs = b.tuples();
            let candidates = if filters {
                let probe = T::summary(ta.constraints());
                let range = dim.and_then(|d| probe.range(d));
                prune(bs.len(), level.as_ref(), range, |i| probe.may_intersect(&summaries[i]))
            } else {
                (0..bs.len()).collect()
            };
            candidates
                .into_iter()
                .filter_map(|i| engine.conjoin(&ta, bs[i].constraints()))
                .collect::<Vec<_>>()
        });
        let mut out = engine.relation(a.arity());
        for t in tuples {
            out.insert(t);
        }
        out
    })
}

/// ∃ — eliminate one variable from every tuple (quantifier elimination
/// through the engine's QE cache, on the executor): the one
/// relation-level QE. The result keeps the variable numbering; the
/// eliminated variable simply no longer occurs.
///
/// # Errors
/// Propagates `CqlError::Unsupported` from the theory.
pub fn eliminate_with<T: Theory>(
    engine: &Engine<T>,
    rel: &GenRelation<T>,
    var: usize,
) -> Result<GenRelation<T>> {
    op_timed("algebra.eliminate", || {
        let eliminated: Vec<Result<Vec<GenTuple<T>>>> =
            engine.executor.map(rel.tuples().to_vec(), |t| {
                Ok(engine
                    .eliminate_cached(t.constraints(), var)?
                    .into_iter()
                    .filter_map(|conj| engine.intern(conj))
                    .collect())
            });
        let mut out = engine.relation(rel.arity());
        for r in eliminated {
            for t in r? {
                out.insert(t);
            }
        }
        Ok(out)
    })
}

/// ⋈ — equi-join on column pairs `(left, right)`; the output keeps all
/// columns of both sides (right shifted), with join equalities conjoined.
#[must_use]
pub fn join<T: Theory>(
    a: &GenRelation<T>,
    b: &GenRelation<T>,
    on: &[(usize, usize)],
) -> GenRelation<T> {
    join_with(&Engine::serial(), a, b, on)
}

/// [`join`] on an engine context.
#[must_use]
pub fn join_with<T: Theory>(
    engine: &Engine<T>,
    a: &GenRelation<T>,
    b: &GenRelation<T>,
    on: &[(usize, usize)],
) -> GenRelation<T> {
    op_timed("algebra.join", || {
        let shift = a.arity();
        let eqs: Vec<T::Constraint> = on.iter().map(|&(l, r)| T::var_eq(l, r + shift)).collect();
        if !engine.policy.join.filters() || on.is_empty() {
            return select_with(engine, &product_with(engine, a, b), &eqs);
        }
        // Pruned path. The two sides live in disjoint column spaces, so
        // box summaries alone never conflict — but the join equalities
        // make the joined columns comparable: bucket the right side on
        // the join column its summaries bound most often, and probe with
        // the left tuple's interval on the matching left column. A pair
        // whose intervals at a joined column are disjoint cannot satisfy
        // the equality, so skipping it is sound. Each surviving pair is
        // conjoined in the same two steps as `select ∘ product` (product
        // conjunction, then the equality constraints), so the output is
        // identical to the unpruned path minus the doomed pairs.
        let summaries: Vec<T::Summary> =
            b.tuples().iter().map(|t| T::summary(t.constraints())).collect();
        let (l0, r0) = *on
            .iter()
            .max_by_key(|(_, r)| summaries.iter().filter(|s| s.range(*r).is_some()).count())
            .expect("on is non-empty");
        let level = SummaryLevel::build(r0, &summaries);
        let shifted: Vec<Vec<T::Constraint>> =
            b.tuples().iter().map(|tb| tb.rename(&|v| v + shift)).collect();
        let tuples = engine.executor.flat_map(a.tuples().to_vec(), |ta| {
            let probe = T::summary(ta.constraints()).range(l0);
            prune(shifted.len(), Some(&level), probe, |_| true)
                .into_iter()
                .filter_map(|i| {
                    let mut constraints = ta.constraints().to_vec();
                    constraints.extend_from_slice(&shifted[i]);
                    engine.intern(constraints).and_then(|t| engine.conjoin(&t, &eqs))
                })
                .collect::<Vec<_>>()
        });
        let mut out = engine.relation(a.arity() + b.arity());
        for t in tuples {
            out.insert(t);
        }
        out
    })
}

/// ∪ — union (delegates to the representation union).
#[must_use]
pub fn union<T: Theory>(a: &GenRelation<T>, b: &GenRelation<T>) -> GenRelation<T> {
    a.union(b)
}

/// [`union`] on an engine context: the left side is re-inserted into a
/// relation carrying the engine's policy, then the right side is merged.
#[must_use]
pub fn union_with<T: Theory>(
    engine: &Engine<T>,
    a: &GenRelation<T>,
    b: &GenRelation<T>,
) -> GenRelation<T> {
    assert_eq!(a.arity(), b.arity(), "union arity mismatch");
    op_timed("algebra.union", || {
        let mut out = engine.relation(a.arity());
        for t in a.tuples() {
            out.insert(t.clone());
        }
        for t in b.tuples() {
            out.insert(t.clone());
        }
        out
    })
}

/// ∖ — difference `a ∖ b = a ∩ ¬b` (uses the DNF complement; see
/// [`GenRelation::complement`] for cost caveats).
#[must_use]
pub fn difference<T: Theory>(a: &GenRelation<T>, b: &GenRelation<T>) -> GenRelation<T> {
    a.intersect(&b.complement())
}

/// ρ — permute columns by `perm` (`perm[i]` = source column of output
/// column `i`; must be a permutation).
///
/// # Panics
/// Panics if `perm` is not a permutation of `0..arity`.
#[must_use]
pub fn rename_columns<T: Theory>(rel: &GenRelation<T>, perm: &[usize]) -> GenRelation<T> {
    assert_eq!(perm.len(), rel.arity(), "permutation length mismatch");
    let mut inverse = vec![usize::MAX; perm.len()];
    for (i, &src) in perm.iter().enumerate() {
        assert!(inverse[src] == usize::MAX, "not a permutation");
        inverse[src] = i;
    }
    rel.rename_into(rel.arity(), &|v| inverse[v])
}
