//! Engine store properties: the indexed subsumption store is *exactly*
//! equivalent to the quadratic baseline (its signature and sample-point
//! filters are sound, never heuristic), for all four constraint theories;
//! and interned evaluation agrees with direct (un-interned)
//! canonicalization.
//!
//! Relation-building inserts honor `CQL_ENGINE_THREADS` only through the
//! executor of the engine under test — see `thread_equivalence.rs` for
//! the executor-facing matrix.

use cql_bool::{BoolConstraint, BoolTerm};
use cql_core::relation::{GenRelation, GenTuple};
use cql_core::theory::Theory;
use cql_core::{EnginePolicy, SubsumptionMode};
use cql_dense::DenseConstraint;
use cql_engine::Engine;
use cql_equality::EqConstraint;
use cql_poly::PolyConstraint;
use proptest::prelude::*;

/// Insert the same conjunction stream under the quadratic baseline and
/// the indexed store, and require identical relations (same tuples in
/// the same order).
fn assert_modes_agree<T: Theory>(arity: usize, conjs: &[Vec<T::Constraint>]) {
    let mut quad = GenRelation::<T>::with_policy(
        arity,
        EnginePolicy::with_subsumption(SubsumptionMode::Quadratic),
    );
    let mut indexed = GenRelation::<T>::with_policy(
        arity,
        EnginePolicy::with_subsumption(SubsumptionMode::Indexed),
    );
    for conj in conjs {
        if let Some(t) = GenTuple::<T>::new(conj.clone()) {
            quad.insert(t.clone());
            indexed.insert(t);
        }
    }
    assert_eq!(quad.tuples(), indexed.tuples(), "indexed store diverged from quadratic baseline");
}

/// Interning must be semantically invisible: the interner returns the
/// same canonical tuple as direct construction, and a second intern of
/// the same raw conjunction shares the first's representation.
fn assert_intern_transparent<T: Theory>(conjs: &[Vec<T::Constraint>]) {
    let engine: Engine<T> = Engine::serial();
    for conj in conjs {
        let direct = GenTuple::<T>::new(conj.clone());
        let interned = engine.intern(conj.clone());
        assert_eq!(direct, interned, "interned tuple differs from direct canonicalization");
        let again = engine.intern(conj.clone());
        assert_eq!(interned, again);
        if let (Some(a), Some(b)) = (&interned, &again) {
            assert!(a.shares_repr(b), "re-interning did not share the representation");
        }
    }
}

// ---------------------------------------------------------------- dense

fn dense_constraint() -> impl Strategy<Value = DenseConstraint> {
    prop_oneof![
        (0usize..4, 0usize..4).prop_map(|(a, b)| DenseConstraint::lt(a, b)),
        (0usize..4, 0usize..4).prop_map(|(a, b)| DenseConstraint::le(a, b)),
        (0usize..4, 0usize..4).prop_map(|(a, b)| DenseConstraint::eq(a, b)),
        (0usize..4, 0usize..4).prop_map(|(a, b)| DenseConstraint::ne(a, b)),
        (0usize..4, -2i64..3).prop_map(|(v, c)| DenseConstraint::le_const(v, c)),
        (0usize..4, -2i64..3).prop_map(|(v, c)| DenseConstraint::ge_const(v, c)),
        (0usize..4, -2i64..3).prop_map(|(v, c)| DenseConstraint::eq_const(v, c)),
    ]
}

fn dense_relation() -> impl Strategy<Value = Vec<Vec<DenseConstraint>>> {
    prop::collection::vec(prop::collection::vec(dense_constraint(), 0..4), 0..12)
}

// ------------------------------------------------------------- equality

fn eq_constraint() -> impl Strategy<Value = EqConstraint> {
    prop_oneof![
        (0usize..4, 0usize..4).prop_map(|(a, b)| EqConstraint::eq(a, b)),
        (0usize..4, 0usize..4).prop_map(|(a, b)| EqConstraint::ne(a, b)),
        (0usize..4, 0i64..3).prop_map(|(v, c)| EqConstraint::eq_const(v, c)),
        (0usize..4, 0i64..3).prop_map(|(v, c)| EqConstraint::ne_const(v, c)),
    ]
}

fn eq_relation() -> impl Strategy<Value = Vec<Vec<EqConstraint>>> {
    prop::collection::vec(prop::collection::vec(eq_constraint(), 0..4), 0..12)
}

// ----------------------------------------------------------------- poly

fn poly_constraint() -> impl Strategy<Value = PolyConstraint> {
    use cql_arith::{Poly, Rat};
    // Linear one-variable constraints `x_v θ c` — enough to exercise
    // subsumption (intervals entail wider intervals) while keeping the
    // syntactic `entails` meaningful.
    prop_oneof![
        (0usize..3, -2i64..3)
            .prop_map(|(v, c)| PolyConstraint::le(&Poly::var(v), &Poly::constant(Rat::from(c)))),
        (0usize..3, -2i64..3)
            .prop_map(|(v, c)| PolyConstraint::le(&Poly::constant(Rat::from(c)), &Poly::var(v))),
        (0usize..3, -2i64..3)
            .prop_map(|(v, c)| PolyConstraint::eq(&Poly::var(v), &Poly::constant(Rat::from(c)))),
    ]
}

fn poly_relation() -> impl Strategy<Value = Vec<Vec<PolyConstraint>>> {
    prop::collection::vec(prop::collection::vec(poly_constraint(), 0..3), 0..10)
}

// -------------------------------------------------------------- boolean

fn bool_term(bits: u16) -> BoolTerm {
    // Decode a small integer into a term over variables x0..x2: two
    // leaves combined by one of four connectives, each leaf possibly
    // negated.
    let leaf = |b: u16| {
        let t = BoolTerm::var((b & 0x3) as usize % 3);
        if b & 0x4 != 0 {
            t.not()
        } else {
            t
        }
    };
    let a = leaf(bits & 0x7);
    let b = leaf((bits >> 3) & 0x7);
    match (bits >> 6) & 0x3 {
        0 => a.and(b),
        1 => a.or(b),
        2 => a.xor(b),
        _ => a,
    }
}

fn bool_relation() -> impl Strategy<Value = Vec<Vec<BoolConstraint>>> {
    prop::collection::vec(
        prop::collection::vec(
            (0u16..256).prop_map(|bits| BoolConstraint::eq_zero(&bool_term(bits))),
            0..3,
        ),
        0..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_indexed_matches_quadratic(conjs in dense_relation()) {
        assert_modes_agree::<cql_dense::Dense>(4, &conjs);
    }

    #[test]
    fn equality_indexed_matches_quadratic(conjs in eq_relation()) {
        assert_modes_agree::<cql_equality::Equality>(4, &conjs);
    }

    #[test]
    fn poly_indexed_matches_quadratic(conjs in poly_relation()) {
        assert_modes_agree::<cql_poly::RealPoly>(3, &conjs);
    }

    #[test]
    fn boolean_indexed_matches_quadratic(conjs in bool_relation()) {
        assert_modes_agree::<cql_bool::BoolAlg>(3, &conjs);
    }

    #[test]
    fn dense_interning_is_transparent(conjs in dense_relation()) {
        assert_intern_transparent::<cql_dense::Dense>(&conjs);
    }

    #[test]
    fn equality_interning_is_transparent(conjs in eq_relation()) {
        assert_intern_transparent::<cql_equality::Equality>(&conjs);
    }
}
