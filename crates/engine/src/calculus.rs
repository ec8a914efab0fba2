//! Symbolic bottom-up evaluation of relational calculus queries.
//!
//! Evaluation proceeds by structural induction on the formula (the
//! "generalized relational algebra" view of §2.1 of the paper): each
//! subformula evaluates to a generalized relation (a DNF of constraints)
//! over the query's variable space; `∃` applies quantifier elimination to
//! every disjunct, `∧`/`∨` are intersection/union, and `¬` is the DNF
//! complement. The output is projected onto the query's free variables —
//! a closed-form generalized relation.
//!
//! The induction is engine-aware: conjunction products and quantifier
//! eliminations run on the [`Engine`]'s executor, and every derived
//! conjunction is canonicalized through its interner. [`evaluate`] and
//! [`decide`] use a serial engine; [`evaluate_with`] / [`decide_with`]
//! accept a caller-owned one.

use crate::algebra::{eliminate_with, intersect_with, union_with};
use crate::Engine;
use cql_core::error::{CqlError, Result};
use cql_core::formula::{CalculusQuery, Formula};
use cql_core::relation::{Database, GenRelation};
use cql_core::theory::Theory;
use cql_trace::op_timed;

/// Evaluate a relational calculus query into a generalized relation of
/// arity `query.free.len()` (column `i` is free variable `query.free[i]`).
///
/// # Errors
/// Validation errors, or `CqlError::Unsupported` when the theory cannot
/// eliminate a quantifier that the formula requires.
pub fn evaluate<T: Theory>(query: &CalculusQuery<T>, db: &Database<T>) -> Result<GenRelation<T>> {
    evaluate_with(&Engine::serial(), query, db)
}

/// [`evaluate`] on an engine context.
///
/// # Errors
/// As [`evaluate`].
pub fn evaluate_with<T: Theory>(
    engine: &Engine<T>,
    query: &CalculusQuery<T>,
    db: &Database<T>,
) -> Result<GenRelation<T>> {
    let _query_span = cql_trace::span("calculus.query", "query");
    query.formula.validate(db)?;
    let scope = query
        .formula
        .all_vars()
        .last()
        .map_or(query.free.len(), |&v| v + 1)
        .max(query.free.iter().map(|&v| v + 1).max().unwrap_or(0));
    let rel = eval_rec(engine, &query.formula, db, scope)?;
    op_timed("calculus.project_free", || project_to_free(engine, &rel, &query.free))
}

/// Decide a sentence (a query with no free variables).
///
/// Boolean connectives at closed levels are decided directly, which keeps
/// outer negations (the common `¬∃…` shape of the convex-hull query,
/// Ex 2.1) away from the expensive DNF complement.
///
/// # Errors
/// Same as [`evaluate`].
pub fn decide<T: Theory>(formula: &Formula<T>, db: &Database<T>) -> Result<bool> {
    decide_with(&Engine::serial(), formula, db)
}

/// [`decide`] on an engine context.
///
/// # Errors
/// Same as [`evaluate`].
pub fn decide_with<T: Theory>(
    engine: &Engine<T>,
    formula: &Formula<T>,
    db: &Database<T>,
) -> Result<bool> {
    if let Some(v) = formula.free_vars().first() {
        return Err(CqlError::Malformed(format!(
            "decide() requires a sentence, but variable {v} is free"
        )));
    }
    formula.validate(db)?;
    decide_rec(engine, formula, db)
}

fn decide_rec<T: Theory>(
    engine: &Engine<T>,
    formula: &Formula<T>,
    db: &Database<T>,
) -> Result<bool> {
    match formula {
        Formula::And(a, b) => Ok(decide_rec(engine, a, db)? && decide_rec(engine, b, db)?),
        Formula::Or(a, b) => Ok(decide_rec(engine, a, db)? || decide_rec(engine, b, db)?),
        Formula::Not(a) => Ok(!decide_rec(engine, a, db)?),
        Formula::Atom { relation, .. } => {
            // Arity was validated; a closed atom has arity 0.
            Ok(!db.require(relation)?.is_empty())
        }
        Formula::Constraint(c) => Ok(T::is_satisfiable(std::slice::from_ref(c))),
        Formula::Exists(..) | Formula::Forall(..) => {
            let scope = formula.all_vars().last().map_or(0, |&v| v + 1);
            let rel = eval_rec(engine, formula, db, scope)?;
            Ok(!rel.is_empty())
        }
    }
}

fn eval_rec<T: Theory>(
    engine: &Engine<T>,
    formula: &Formula<T>,
    db: &Database<T>,
    scope: usize,
) -> Result<GenRelation<T>> {
    // One operator label per node kind; timings are inclusive of subtrees.
    let op = match formula {
        Formula::Atom { .. } => "calculus.atom",
        Formula::Constraint(_) => "calculus.constraint",
        Formula::And(..) => "calculus.and",
        Formula::Or(..) => "calculus.or",
        Formula::Not(_) => "calculus.not",
        Formula::Exists(..) => "calculus.exists",
        Formula::Forall(..) => "calculus.forall",
    };
    op_timed(op, || match formula {
        Formula::Atom { relation, vars } => {
            let rel = db.require(relation)?;
            Ok(rel.rename_into(scope, &|j| vars[j]))
        }
        Formula::Constraint(c) => {
            let mut out = engine.relation(scope);
            if let Some(t) = engine.intern(vec![c.clone()]) {
                out.insert(t);
            }
            Ok(out)
        }
        Formula::And(a, b) => {
            let left = eval_rec(engine, a, db, scope)?;
            let right = eval_rec(engine, b, db, scope)?;
            Ok(intersect_with(engine, &left, &right))
        }
        Formula::Or(a, b) => {
            let left = eval_rec(engine, a, db, scope)?;
            let right = eval_rec(engine, b, db, scope)?;
            Ok(union_with(engine, &left, &right))
        }
        Formula::Not(a) => Ok(eval_rec(engine, a, db, scope)?.complement()),
        Formula::Exists(v, a) => eliminate_with(engine, &eval_rec(engine, a, db, scope)?, *v),
        Formula::Forall(v, a) => {
            // ∀v.ψ ≡ ¬∃v.¬ψ
            let inner = eval_rec(engine, a, db, scope)?.complement();
            Ok(eliminate_with(engine, &inner, *v)?.complement())
        }
    })
}

/// Rename the free variables of a fully-evaluated relation to output
/// columns `0..m`, verifying no other variable survived elimination.
fn project_to_free<T: Theory>(
    engine: &Engine<T>,
    rel: &GenRelation<T>,
    free: &[usize],
) -> Result<GenRelation<T>> {
    let mut position =
        vec![usize::MAX; rel.arity().max(free.iter().map(|&v| v + 1).max().unwrap_or(0))];
    for (i, &v) in free.iter().enumerate() {
        position[v] = i;
    }
    for t in rel.tuples() {
        for c in t.constraints() {
            for v in T::vars(c) {
                if position.get(v).copied().unwrap_or(usize::MAX) == usize::MAX {
                    return Err(CqlError::Malformed(format!(
                        "internal: variable {v} survived quantifier elimination"
                    )));
                }
            }
        }
    }
    let mut out = engine.relation(free.len());
    for t in rel.tuples() {
        if let Some(t2) = engine.intern(t.rename(&|v| position[v])) {
            out.insert(t2);
        }
    }
    Ok(out)
}
