//! The hull-bucketed subsumption store.
//!
//! An indexed relation keeps one closed-hull bucket level per column and
//! runs its signature, sample and entailment tests only on stored tuples
//! whose hull meets the new tuple's in its most selective ranged column.
//! These tests pin the two halves of that claim:
//!
//! * **Exactness.** Random insert / remove / clone-then-diverge scripts
//!   over point, interval, half-line and unbounded columns leave the
//!   indexed relation equal to the quadratic baseline's, tuple for tuple,
//!   for all four theories — so the point, span and catch-all buckets,
//!   the renumbering after eviction or removal, and copy-on-write forks
//!   are all exercised against an oracle that has no index.
//! * **Work bound.** On pinned transitive-closure streams the sample
//!   filter sees only a column bucket per insert, not the whole relation.

use cql_arith::{Poly, Rat};
use cql_bool::{BoolConstraint, BoolTerm};
use cql_core::relation::{Database, GenRelation, GenTuple};
use cql_core::theory::Theory;
use cql_core::{EnginePolicy, SubsumptionMode};
use cql_dense::{Dense, DenseConstraint};
use cql_engine::datalog::{self, Atom, FixpointOptions, Literal, Program, Rule};
use cql_engine::trace::{Counter, MetricsScope};
use cql_equality::EqConstraint;
use cql_poly::PolyConstraint;
use proptest::prelude::*;

/// One column's shape `(kind, a, w, bits)`: each theory maps `kind` to a
/// point, an interval, a half-line or an unbounded column built from the
/// constants `a` and `a + w`; the boolean theory reads `bits` instead.
type Shape = (u8, i64, i64, u16);

/// One script step `(op, target, shapes)`. Ops 0–5 insert the tuple
/// whose column `i % arity` has shape `shapes[i]` into relation pair
/// `target`; 6–7 remove one of that pair's stored tuples; 8 forks the
/// pair (a copy-on-write clone that later steps drive apart).
type Step = (u8, usize, Vec<Shape>);

fn script() -> impl Strategy<Value = Vec<Step>> {
    let shape = (0u8..6, 0i64..4, 0i64..3, 0u16..256);
    prop::collection::vec((0u8..9, 0usize..16, prop::collection::vec(shape, 0..4)), 0..40)
}

/// Run a script on `(quadratic, indexed)` relation pairs and require the
/// two sides of every pair to agree after every step.
fn assert_script_agrees<T: Theory>(
    arity: usize,
    steps: &[Step],
    column: impl Fn(usize, &Shape) -> Vec<T::Constraint>,
) {
    let relation =
        |mode| GenRelation::<T>::with_policy(arity, EnginePolicy::with_subsumption(mode));
    let mut pairs =
        vec![(relation(SubsumptionMode::Quadratic), relation(SubsumptionMode::Indexed))];
    for (op, target, shapes) in steps {
        let p = target % pairs.len();
        let (quad, indexed) = &mut pairs[p];
        match op {
            0..=5 => {
                let conj = shapes.iter().enumerate().flat_map(|(i, s)| column(i % arity, s));
                if let Some(t) = GenTuple::<T>::new(conj.collect()) {
                    assert_eq!(
                        quad.insert(t.clone()),
                        indexed.insert(t),
                        "insert outcome diverged"
                    );
                }
            }
            6 | 7 => {
                if !quad.is_empty() {
                    let t = quad.tuples()[target % quad.len()].clone();
                    assert!(quad.remove(&t) && indexed.remove(&t), "removal diverged");
                }
            }
            _ => {
                let fork = pairs[p].clone();
                assert!(fork.1.shares_store(&pairs[p].1), "a fork starts shared");
                pairs.push(fork);
            }
        }
        for (quad, indexed) in &pairs {
            assert_eq!(quad.tuples(), indexed.tuples(), "indexed store diverged from quadratic");
        }
    }
}

fn dense_column(col: usize, &(kind, a, w, _): &Shape) -> Vec<DenseConstraint> {
    let other = (col + 1) % 2;
    match kind {
        0 => vec![DenseConstraint::eq_const(col, a)],
        1 => vec![DenseConstraint::ge_const(col, a), DenseConstraint::le_const(col, a + w)],
        2 => vec![DenseConstraint::gt_const(col, a), DenseConstraint::lt_const(col, a + w + 1)],
        3 => vec![DenseConstraint::ge_const(col, a)],
        4 => vec![DenseConstraint::lt_const(col, a)],
        _ => vec![DenseConstraint::le(col, other)],
    }
}

fn eq_column(col: usize, &(kind, a, _, _): &Shape) -> Vec<EqConstraint> {
    let other = (col + 1) % 2;
    match kind {
        0 | 1 => vec![EqConstraint::eq_const(col, a)],
        2 => vec![EqConstraint::ne_const(col, a)],
        3 => vec![EqConstraint::eq(col, other)],
        4 => vec![EqConstraint::ne(col, other)],
        _ => Vec::new(),
    }
}

fn poly_column(col: usize, &(kind, a, w, _): &Shape) -> Vec<PolyConstraint> {
    let x = Poly::var(col);
    let c = |k: i64| Poly::constant(Rat::from(k));
    match kind {
        0 => vec![PolyConstraint::eq(&x, &c(a))],
        1 => vec![PolyConstraint::le(&c(a), &x), PolyConstraint::le(&x, &c(a + w))],
        2 => vec![PolyConstraint::lt(&c(a), &x)],
        3 => vec![PolyConstraint::le(&x, &c(a))],
        4 => vec![PolyConstraint::le(&x, &Poly::var((col + 1) % 2))],
        _ => Vec::new(),
    }
}

fn bool_column(_: usize, &(kind, _, _, bits): &Shape) -> Vec<BoolConstraint> {
    if kind == 5 {
        return Vec::new();
    }
    // Two leaves over x0..x2, each possibly negated, under one of four
    // connectives.
    let leaf = |b: u16| {
        let t = BoolTerm::var(usize::from(b & 0x3) % 3);
        if b & 0x4 != 0 {
            t.not()
        } else {
            t
        }
    };
    let (a, b) = (leaf(bits & 0x7), leaf((bits >> 3) & 0x7));
    let term = match (bits >> 6) & 0x3 {
        0 => a.and(b),
        1 => a.or(b),
        2 => a.xor(b),
        _ => a,
    };
    vec![BoolConstraint::eq_zero(&term)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_hull_buckets_match_quadratic(steps in script()) {
        assert_script_agrees::<Dense>(2, &steps, dense_column);
    }

    #[test]
    fn equality_hull_buckets_match_quadratic(steps in script()) {
        assert_script_agrees::<cql_equality::Equality>(2, &steps, eq_column);
    }

    #[test]
    fn poly_hull_buckets_match_quadratic(steps in script()) {
        assert_script_agrees::<cql_poly::RealPoly>(2, &steps, poly_column);
    }

    #[test]
    fn boolean_hull_buckets_match_quadratic(steps in script()) {
        assert_script_agrees::<cql_bool::BoolAlg>(3, &steps, bool_column);
    }
}

fn pair(a: i64, b: i64) -> Vec<DenseConstraint> {
    vec![DenseConstraint::eq_const(0, a), DenseConstraint::eq_const(1, b)]
}

#[test]
fn tc_stream_samples_one_column_bucket_per_insert() {
    // E13's stream: the 2^10 shortest transitive-closure tuples of a
    // 64-node chain in ascending path length. Every tuple is a distinct
    // point, so the quadratic baseline makes n(n-1) = 1,047,552
    // entailment checks, and filtering every stored tuple by signature
    // and sample alone would make as many sample skips. Hull buckets
    // leave one same-column bucket per insert (at most 17 tuples), and
    // each of its tuples fails the sample test in both directions.
    let stream: Vec<Vec<DenseConstraint>> =
        (1..64).flat_map(|d| (0..64 - d).map(move |i| pair(i, i + d))).take(1 << 10).collect();
    let scope = MetricsScope::enter("tc_stream");
    let mut rel = GenRelation::<Dense>::with_policy(2, EnginePolicy::default());
    for conj in stream {
        rel.insert(GenTuple::new(conj).expect("a point is satisfiable"));
    }
    let snap = scope.snapshot();
    assert_eq!(rel.len(), 1 << 10);
    assert_eq!(snap.get(Counter::EntailmentChecks), 0);
    let skips = snap.get(Counter::SampleSkips);
    assert!(skips <= 32_768, "{skips} sample skips for 1,024 inserts (bound 32,768)");
}

#[test]
fn seminaive_tc_samples_one_column_bucket_per_insert() {
    // Semi-naive transitive closure of a 48-edge chain: 1,176 closure
    // tuples, each inserted into the IDB and the round's delta.
    let mut db = Database::new();
    db.insert("E", GenRelation::<Dense>::from_conjunctions(2, (0..48).map(|i| pair(i, i + 1))));
    let program = Program::new(vec![
        Rule::new(Atom::new("T", vec![0, 1]), vec![Literal::Pos(Atom::new("E", vec![0, 1]))]),
        Rule::new(
            Atom::new("T", vec![0, 1]),
            vec![
                Literal::Pos(Atom::new("T", vec![0, 2])),
                Literal::Pos(Atom::new("E", vec![2, 1])),
            ],
        ),
    ]);
    let scope = MetricsScope::enter("seminaive_tc");
    let opts = FixpointOptions { threads: 1, ..Default::default() };
    let result = datalog::seminaive(&program, &db, &opts).expect("fixpoint converges");
    let snap = scope.snapshot();
    assert_eq!(result.idb.get("T").map(GenRelation::len), Some(48 * 49 / 2));
    assert_eq!(snap.get(Counter::EntailmentChecks), 0);
    let skips = snap.get(Counter::SampleSkips);
    assert!(skips <= 100_000, "{skips} sample skips for TC-48 (bound 100,000)");
}
