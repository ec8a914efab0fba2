//! Incremental maintenance must be invisible: for randomized
//! insert/retract scripts over all four theories, a
//! [`MaterializedView`] tracks the from-scratch fixpoint exactly —
//! after *every* update the maintained IDB equals a fresh semi-naive
//! run over the currently asserted EDB, and at the end of each script
//! all three batch engines (naive / semi-naive / inflationary) agree
//! with the view.
//!
//! The scripts deliberately include the hard cases: retract followed by
//! re-insert of the same tuple (the dedup bookkeeping must forget
//! removed tuples), retraction of a tuple subsumed by a surviving one
//! (the subsumption-aware support counts must keep the survivor's
//! derivations alive), and non-point generalized tuples (half-lines,
//! wildcard columns, variable-equality cells) whose closures exercise
//! quantifier elimination rather than finite enumeration.
//!
//! Dense and equality run the recursive transitive closure (dense also
//! the nonlinear one, whose delta rounds must read the pre-round IDB at
//! the atom after the delta atom); Datalog
//! over polynomial constraints is not closed in general (Example 1.12)
//! and the boolean worked examples live in `cql-bool`, so those two
//! theories run a non-recursive two-atom join program, which always
//! closes.

use cql_arith::{Poly, Rat};
use cql_bool::{BoolConstraint, BoolTerm};
use cql_core::relation::{Database, GenRelation, GenTuple};
use cql_core::theory::Theory;
use cql_dense::DenseConstraint;
use cql_engine::datalog::{self, Atom, FixpointOptions, Literal, MaterializedView, Program, Rule};
use cql_equality::EqConstraint;
use cql_poly::PolyConstraint;
use proptest::prelude::*;
use std::collections::HashSet;

/// Transitive closure: T(x,y) ← E(x,y); T(x,z) ← T(x,y), E(y,z).
fn tc_program<T: Theory>() -> Program<T> {
    Program::new(vec![
        Rule::new(Atom::new("T", vec![0, 1]), vec![Literal::Pos(Atom::new("E", vec![0, 1]))]),
        Rule::new(
            Atom::new("T", vec![0, 2]),
            vec![
                Literal::Pos(Atom::new("T", vec![0, 1])),
                Literal::Pos(Atom::new("E", vec![1, 2])),
            ],
        ),
    ])
}

/// Nonlinear transitive closure: T(x,y) ← E(x,y); T(x,z) ← T(x,y), T(y,z).
/// A delta round of `T` binds the second `T` atom to the pre-round `T`
/// when the first is the delta, so counting needs that snapshot.
fn nonlinear_tc_program<T: Theory>() -> Program<T> {
    Program::new(vec![
        Rule::new(Atom::new("T", vec![0, 1]), vec![Literal::Pos(Atom::new("E", vec![0, 1]))]),
        Rule::new(
            Atom::new("T", vec![0, 2]),
            vec![
                Literal::Pos(Atom::new("T", vec![0, 1])),
                Literal::Pos(Atom::new("T", vec![1, 2])),
            ],
        ),
    ])
}

/// Non-recursive join: H(x0,x4) ← A(x0,x1,x2), B(x2,x3,x4).
fn join_program<T: Theory>() -> Program<T> {
    Program::new(vec![Rule::new(
        Atom::new("H", vec![0, 4]),
        vec![
            Literal::Pos(Atom::new("A", vec![0, 1, 2])),
            Literal::Pos(Atom::new("B", vec![2, 3, 4])),
        ],
    )])
}

fn tuple_set<T: Theory>(r: Option<&GenRelation<T>>) -> HashSet<GenTuple<T>> {
    r.map(|r| r.tuples().iter().cloned().collect()).unwrap_or_default()
}

/// One update against the mutable EDB relation `updated` (the predicate
/// the script drives): `true` inserts, `false` retracts.
type Op<T> = (bool, GenTuple<T>);

/// Drive `ops` through a view and through from-scratch fixpoints in
/// lockstep. `fixed` holds the EDB relations the script never touches.
fn assert_view_tracks_batch<T: Theory>(
    program: &Program<T>,
    updated: &str,
    arity: usize,
    fixed: &[(&str, GenRelation<T>)],
    ops: &[Op<T>],
    out: &str,
) {
    let opts = FixpointOptions::default();
    let mut edb = Database::new();
    edb.insert(updated, GenRelation::empty(arity));
    for (name, rel) in fixed {
        edb.insert(*name, rel.clone());
    }
    let mut view = MaterializedView::new(program.clone(), &edb, opts).expect("view construction");
    // The asserted-set mirror the batch runs see. `GenRelation` with the
    // default policy compresses subsumed tuples, so the mirror is a plain
    // vector of exactly what the view was told.
    let mut asserted: Vec<GenTuple<T>> = Vec::new();
    for (insert, tuple) in ops {
        if *insert {
            view.insert(updated, tuple.clone()).expect("insert");
            if !asserted.contains(tuple) {
                asserted.push(tuple.clone());
            }
        } else if let Some(i) = asserted.iter().position(|t| t == tuple) {
            view.retract(updated, tuple).expect("retract");
            asserted.remove(i);
        } else {
            assert!(view.retract(updated, tuple).is_err(), "retract of absent tuple must fail");
            continue;
        }
        let mut rel = GenRelation::empty(arity);
        for t in &asserted {
            rel.insert(t.clone());
        }
        edb.insert(updated, rel);
        let batch = datalog::seminaive(program, &edb, &opts).expect("semi-naive baseline");
        assert_eq!(
            tuple_set(view.current().get(out)),
            tuple_set(batch.idb.get(out)),
            "view diverged from semi-naive after {} of {tuple}",
            if *insert { "insert" } else { "retract" },
        );
    }
    for run in [datalog::naive::<T>, datalog::seminaive::<T>, datalog::inflationary::<T>] {
        let batch = run(program, &edb, &opts).expect("batch baseline");
        assert_eq!(
            tuple_set(view.current().get(out)),
            tuple_set(batch.idb.get(out)),
            "view diverged from a batch engine at end of script"
        );
    }
}

// ------------------------------------------------------- op strategies

/// Dense edges: points, half-lines (second endpoint one-sided) and
/// wildcard-source edges, so subsumption between EDB tuples arises.
fn dense_edge() -> impl Strategy<Value = GenTuple<cql_dense::Dense>> {
    (0u8..3, 0i64..4, 0i64..4).prop_map(|(kind, a, b)| {
        let conj = match kind {
            0 => vec![DenseConstraint::eq_const(0, a), DenseConstraint::eq_const(1, b)],
            1 => vec![DenseConstraint::eq_const(0, a), DenseConstraint::ge_const(1, b)],
            _ => vec![DenseConstraint::eq_const(1, b)],
        };
        GenTuple::new(conj).expect("satisfiable edge")
    })
}

/// Equality edges: points, one-sided wildcards, and the diagonal cell.
fn eq_edge() -> impl Strategy<Value = GenTuple<cql_equality::Equality>> {
    (0u8..3, 0i64..4, 0i64..4).prop_map(|(kind, a, b)| {
        let conj = match kind {
            0 => vec![EqConstraint::eq_const(0, a), EqConstraint::eq_const(1, b)],
            1 => vec![EqConstraint::eq_const(0, a)],
            _ => vec![EqConstraint::eq(0, 1)],
        };
        GenTuple::new(conj).expect("satisfiable edge")
    })
}

fn poly_tuple() -> impl Strategy<Value = Option<GenTuple<cql_poly::RealPoly>>> {
    prop::collection::vec(
        (0u8..3, 0usize..3, -2i64..3).prop_map(|(kind, v, c)| {
            let (var, con) = (Poly::var(v), Poly::constant(Rat::from(c)));
            match kind {
                0 => PolyConstraint::le(&var, &con),
                1 => PolyConstraint::le(&con, &var),
                _ => PolyConstraint::eq(&var, &con),
            }
        }),
        1..3,
    )
    .prop_map(GenTuple::new)
}

fn bool_tuple() -> impl Strategy<Value = Option<GenTuple<cql_bool::BoolAlg>>> {
    prop::collection::vec(
        (0usize..3, any::<bool>(), 0usize..3, any::<bool>()).prop_map(|(a, na, b, nb)| {
            let lhs = if na { BoolTerm::var(a).not() } else { BoolTerm::var(a) };
            let rhs = if nb { BoolTerm::var(b).not() } else { BoolTerm::var(b) };
            BoolConstraint::eq_zero(&lhs.and(rhs))
        }),
        1..3,
    )
    .prop_map(GenTuple::new)
}

fn script<T: Theory>(
    tuples: impl Strategy<Value = GenTuple<T>>,
) -> impl Strategy<Value = Vec<Op<T>>> {
    prop::collection::vec((any::<bool>(), tuples), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_tc_view_tracks_batch(ops in script(dense_edge())) {
        assert_view_tracks_batch(&tc_program(), "E", 2, &[], &ops, "T");
    }

    #[test]
    fn dense_nonlinear_tc_view_tracks_batch(ops in script(dense_edge())) {
        assert_view_tracks_batch(&nonlinear_tc_program(), "E", 2, &[], &ops, "T");
    }

    #[test]
    fn equality_tc_view_tracks_batch(ops in script(eq_edge())) {
        assert_view_tracks_batch(&tc_program(), "E", 2, &[], &ops, "T");
    }

    #[test]
    fn poly_join_view_tracks_batch(
        ops in prop::collection::vec((any::<bool>(), poly_tuple()), 1..8),
        fixed in prop::collection::vec(poly_tuple(), 1..4),
    ) {
        let ops: Vec<_> = ops.into_iter().filter_map(|(i, t)| Some((i, t?))).collect();
        let mut b = GenRelation::empty(3);
        for t in fixed.into_iter().flatten() {
            b.insert(t);
        }
        assert_view_tracks_batch(&join_program(), "A", 3, &[("B", b)], &ops, "H");
    }

    #[test]
    fn bool_join_view_tracks_batch(
        ops in prop::collection::vec((any::<bool>(), bool_tuple()), 1..8),
        fixed in prop::collection::vec(bool_tuple(), 1..4),
    ) {
        let ops: Vec<_> = ops.into_iter().filter_map(|(i, t)| Some((i, t?))).collect();
        let mut b = GenRelation::empty(3);
        for t in fixed.into_iter().flatten() {
            b.insert(t);
        }
        assert_view_tracks_batch(&join_program(), "A", 3, &[("B", b)], &ops, "H");
    }
}

// ------------------------------------------------ deterministic cases

/// Retracting a tuple that a surviving tuple subsumes must not disturb
/// the view (the survivor's derivations entail everything the retracted
/// tuple contributed), and retracting the *subsuming* tuple must fall
/// back to exactly the narrow tuple's closure.
#[test]
fn retraction_of_a_subsumed_tuple_is_subsumption_aware() {
    let narrow = GenTuple::<cql_dense::Dense>::new(vec![
        DenseConstraint::eq_const(0, 0),
        DenseConstraint::eq_const(1, 1),
    ])
    .unwrap();
    let broad = GenTuple::new(vec![DenseConstraint::eq_const(0, 0)]).unwrap();
    for retract_first in [&narrow, &broad] {
        let ops = vec![
            (true, narrow.clone()),
            (true, broad.clone()),
            (false, retract_first.clone()),
            (true, retract_first.clone()),
        ];
        assert_view_tracks_batch(&tc_program(), "E", 2, &[], &ops, "T");
    }
}

/// Retract-then-reinsert across a recursive closure for the equality
/// theory, where the diagonal cell E(x,x) keeps every chain derivable
/// in two distinct ways.
#[test]
fn equality_retract_then_reinsert_with_diagonal() {
    let diag = GenTuple::<cql_equality::Equality>::new(vec![EqConstraint::eq(0, 1)]).unwrap();
    let edge = |a: i64, b: i64| {
        GenTuple::new(vec![EqConstraint::eq_const(0, a), EqConstraint::eq_const(1, b)]).unwrap()
    };
    let ops = vec![
        (true, edge(0, 1)),
        (true, diag.clone()),
        (true, edge(1, 2)),
        (false, diag.clone()),
        (false, edge(0, 1)),
        (true, edge(0, 1)),
        (true, diag),
    ];
    assert_view_tracks_batch(&tc_program(), "E", 2, &[], &ops, "T");
}
