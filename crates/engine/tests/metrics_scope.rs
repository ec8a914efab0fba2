//! Scoped-metrics exactness under the parallel executor.
//!
//! The tentpole claim of the observability layer is that a
//! [`MetricsScope`] entered on the issuing thread captures *exactly* the
//! counts produced on its behalf, no matter how many worker threads the
//! [`Executor`] fans out to — workers install the issuing thread's scope
//! handle, so nothing is lost or lands in a sibling scope. CI
//! runs this file under `CQL_ENGINE_THREADS=1` and `=4`.

use cql_arith::Rat;
use cql_bool::BoolFunc;
use cql_core::theory::Theory;
use cql_core::{CalculusQuery, Database, Formula, GenRelation};
use cql_dense::Dense;
use cql_engine::datalog::{self, Atom, FixpointOptions, Literal, Program, Rule};
use cql_engine::trace::{count, Counter, MetricsScope, MetricsSnapshot};
use cql_engine::{calculus, Engine, Executor};
use cql_equality::{EqConstraint, Equality};
use cql_poly::RealPoly;
use proptest::prelude::*;

/// Counters whose totals are determined by the workload alone (interner
/// hit/miss splits may legitimately vary with worker interleaving; these
/// may not).
const DETERMINISTIC: &[Counter] = &[
    Counter::EntailmentChecks,
    Counter::SignatureSkips,
    Counter::SampleSkips,
    Counter::TuplesInserted,
    Counter::TuplesSubsumed,
    Counter::TuplesEvicted,
    Counter::QeCalls,
    Counter::FixpointRounds,
];

fn deterministic_totals(snap: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
    DETERMINISTIC.iter().map(|&c| (c.name(), snap.get(c))).collect()
}

proptest! {
    /// The executor delivers every worker-side count to the issuing
    /// scope: the scope total equals the arithmetic sum over all items,
    /// for any thread width, and none of it leaks past the scope into a
    /// sibling opened afterwards.
    #[test]
    fn executor_counts_sum_exactly(
        weights in prop::collection::vec(1u32..100, 1..40),
        threads in 1usize..5,
    ) {
        let weights: Vec<u64> = weights.into_iter().map(u64::from).collect();
        let expected: u64 = weights.iter().sum();
        let outer = MetricsScope::enter("outer");
        let observed = {
            let scope = MetricsScope::enter("issuing");
            let ex = Executor::new(threads);
            let _ = ex.map(weights.clone(), |w| {
                count(Counter::QeCalls, w);
                w
            });
            scope.snapshot().get(Counter::QeCalls)
        };
        prop_assert_eq!(observed, expected);
        // Merge-on-drop is lossless: the parent sees exactly the child's
        // total, and a sibling scope sees none of it.
        prop_assert_eq!(outer.snapshot().get(Counter::QeCalls), expected);
        let sibling = MetricsScope::enter("sibling");
        prop_assert_eq!(sibling.snapshot().get(Counter::QeCalls), 0);
    }
}

/// Concurrent queries on separate OS threads keep separate books: each
/// thread's scope sees its own counts only, even while both are counting
/// through their own executors at the same time.
#[test]
fn sibling_scopes_do_not_bleed() {
    let totals: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                s.spawn(move || {
                    let scope = MetricsScope::enter("query");
                    let ex = Executor::new(2);
                    let items: Vec<u64> = (0..50).map(|k| i + k).collect();
                    let _ = ex.map(items, |w| count(Counter::EntailmentChecks, w));
                    scope.snapshot().get(Counter::EntailmentChecks)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, total) in totals.iter().enumerate() {
        let i = i as u64;
        let expected: u64 = (0..50).map(|k| i + k).sum();
        assert_eq!(*total, expected, "thread {i} scope polluted by a sibling");
    }
}

/// Transitive closure used for the fixpoint workloads below.
fn tc_program<T: Theory>() -> Program<T> {
    Program::new(vec![
        Rule::new(Atom::new("T", vec![0, 1]), vec![Literal::Pos(Atom::new("E", vec![0, 1]))]),
        Rule::new(
            Atom::new("T", vec![0, 1]),
            vec![
                Literal::Pos(Atom::new("T", vec![0, 2])),
                Literal::Pos(Atom::new("E", vec![2, 1])),
            ],
        ),
    ])
}

/// Scoped totals of a semi-naive fixpoint at the given thread width.
fn fixpoint_totals<T: Theory>(
    program: &Program<T>,
    db: &Database<T>,
    threads: usize,
) -> Vec<(&'static str, u64)> {
    let scope = MetricsScope::enter("fixpoint");
    let opts = FixpointOptions { threads, ..Default::default() };
    datalog::seminaive(program, db, &opts).expect("fixpoint converges");
    deterministic_totals(&scope.snapshot())
}

/// Scoped totals of a calculus evaluation at the given thread width.
fn calculus_totals<T: Theory>(
    query: &CalculusQuery<T>,
    db: &Database<T>,
    threads: usize,
) -> Vec<(&'static str, u64)> {
    let scope = MetricsScope::enter("calculus");
    let engine: Engine<T> = Engine::with_threads(threads);
    calculus::evaluate_with(&engine, query, db).expect("query evaluates");
    deterministic_totals(&scope.snapshot())
}

/// The deterministic counters must agree across thread widths 1, 4, and
/// whatever `CQL_ENGINE_THREADS` selects (the CI matrix) — i.e. the
/// per-thread books always sum to the same workload total.
fn assert_width_invariant(totals: impl Fn(usize) -> Vec<(&'static str, u64)>) {
    let serial = totals(1);
    assert!(
        serial.iter().any(|&(_, v)| v > 0),
        "workload produced no counts at all — the test is vacuous"
    );
    for width in [4, Executor::from_env().threads()] {
        assert_eq!(serial, totals(width), "scoped totals diverged at width {width}");
    }
}

/// `∃z E(x,z) ∧ E(z,y)` with free variables x, y.
fn compose_query<T: Theory>() -> CalculusQuery<T> {
    CalculusQuery::new(
        Formula::atom("E", vec![0, 2]).and(Formula::atom("E", vec![2, 1])).exists(2),
        vec![0, 1],
    )
    .expect("well-formed")
}

fn chain_db<T: Theory>(values: &[T::Value]) -> Database<T> {
    let mut db = Database::new();
    db.insert(
        "E",
        GenRelation::from_conjunctions(
            2,
            values.windows(2).map(|w| vec![T::var_const_eq(0, &w[0]), T::var_const_eq(1, &w[1])]),
        ),
    );
    db
}

#[test]
fn dense_totals_are_thread_invariant() {
    let values: Vec<Rat> = (0..10).map(Rat::from).collect();
    let db = chain_db::<Dense>(&values);
    let program = tc_program::<Dense>();
    assert_width_invariant(|t| fixpoint_totals(&program, &db, t));
    let query = compose_query::<Dense>();
    assert_width_invariant(|t| calculus_totals(&query, &db, t));
}

#[test]
fn equality_totals_are_thread_invariant() {
    let mut db = Database::<Equality>::new();
    db.insert(
        "E",
        GenRelation::from_conjunctions(
            2,
            (0..10).map(|i| vec![EqConstraint::eq_const(0, i), EqConstraint::eq_const(1, i + 1)]),
        ),
    );
    let program = tc_program::<Equality>();
    assert_width_invariant(|t| fixpoint_totals(&program, &db, t));
    let query = compose_query::<Equality>();
    assert_width_invariant(|t| calculus_totals(&query, &db, t));
}

#[test]
fn boolean_totals_are_thread_invariant() {
    use cql_bool::BoolAlg;
    // Only 0 and 1 are generator-free elements (generator variables
    // would collide with the tuple-variable namespace), so the "chain"
    // is the two-element cycle 0 → 1 → 0 → 1.
    let values: Vec<BoolFunc> =
        vec![BoolFunc::zero(), BoolFunc::one(), BoolFunc::zero(), BoolFunc::one()];
    let db = chain_db::<BoolAlg>(&values);
    let query = compose_query::<BoolAlg>();
    assert_width_invariant(|t| calculus_totals(&query, &db, t));
}

#[test]
fn poly_totals_are_thread_invariant() {
    let values: Vec<Rat> = (0..8).map(Rat::from).collect();
    let db = chain_db::<RealPoly>(&values);
    let query = compose_query::<RealPoly>();
    assert_width_invariant(|t| calculus_totals(&query, &db, t));
}
