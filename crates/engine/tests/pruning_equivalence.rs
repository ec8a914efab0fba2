//! Filter-before-solve must be invisible: for randomized instances of
//! all four theories, summary-pruned operators (join / intersect /
//! select) and summary-pruned + QE-cached fixpoints produce exactly the
//! results of exhaustive enumeration; and every `Theory::summary`
//! implementation obeys the soundness law
//! `sat(a ∧ b) ⇒ summary(a).may_intersect(summary(b))`, checked against
//! the theory's own decision procedure.
//!
//! Fixpoint equivalence runs on the dense and equality theories: Datalog
//! over polynomial constraints is not closed (Example 1.12), and the
//! boolean theories are covered by the operator tests (their Datalog
//! worked examples live in `cql-bool`).
//!
//! The multiway-join block at the bottom pins the three-way equality
//! `multiway == binary-pruned == exhaustive` for all four theories: the
//! recursive 3-atom path-join exercises naive, semi-naive and
//! inflationary fixpoints (dense/equality, with the cell-based Herbrand
//! engine as an independent pointwise oracle), as do constraint-only,
//! one-atom-plus-constraint and single-negated-atom bodies; non-recursive
//! multi-atom joins cover the polynomial and boolean theories, whose
//! recursive programs need not close.

use cql_arith::{Poly, Rat};
use cql_bool::{BoolConstraint, BoolTerm};
use cql_core::relation::{Database, GenRelation, GenTuple};
use cql_core::summary::ConstraintSummary;
use cql_core::theory::Theory;
use cql_core::{EnginePolicy, JoinMode};
use cql_dense::DenseConstraint;
use cql_engine::datalog::{self, Atom, FixpointOptions, Literal, Program, Rule};
use cql_engine::{algebra, Engine};
use cql_equality::EqConstraint;
use cql_poly::PolyConstraint;
use proptest::prelude::*;
use std::collections::HashSet;

// ------------------------------------------------------- soundness law

/// Check the summary soundness law on one pair of raw conjunctions,
/// using the theory's canonicalizer as the satisfiability oracle.
fn assert_summary_sound<T: Theory>(a: &[T::Constraint], b: &[T::Constraint]) {
    // The law is stated over canonical conjunctions (what the engine
    // actually summarizes); unsatisfiable inputs have no canonical form.
    let (Some(ca), Some(cb)) = (T::canonicalize(a), T::canonicalize(b)) else {
        return;
    };
    let mut both = ca.clone();
    both.extend(cb.iter().cloned());
    if T::canonicalize(&both).is_some() {
        assert!(
            T::summary(&ca).may_intersect(&T::summary(&cb)),
            "summary refuted a satisfiable pair:\n  a = {ca:?}\n  b = {cb:?}"
        );
        // Point-witness flavor of the same law: a sample of a ∧ b
        // satisfies both sides, so the summaries must meet (already
        // asserted above; this documents why the law is point-wise).
        if let Some(point) = T::sample(&both, 4) {
            assert!(ca.iter().chain(&cb).all(|c| T::eval(c, &point)));
        }
    }
}

// ------------------------------------------ pruned operator equivalence

fn tuple_set<T: Theory>(r: &GenRelation<T>) -> HashSet<GenTuple<T>> {
    r.tuples().iter().cloned().collect()
}

/// Run join / intersect / select with pruning+caching on and off and
/// require identical result sets. (Insertion order may differ — the
/// index enumerates candidates in bucket order — so relations are
/// compared as sets of canonical tuples.)
fn assert_pruning_invisible<T: Theory>(
    arity: usize,
    a: &[Vec<T::Constraint>],
    b: &[Vec<T::Constraint>],
    sel: &[T::Constraint],
) {
    let ra = GenRelation::<T>::from_conjunctions(arity, a.to_vec());
    let rb = GenRelation::<T>::from_conjunctions(arity, b.to_vec());
    let on: Engine<T> = Engine::new(cql_engine::Executor::serial(), policy(JoinMode::Multiway));
    let off: Engine<T> = Engine::new(cql_engine::Executor::serial(), policy(JoinMode::Exhaustive));

    let join_on = algebra::join_with(&on, &ra, &rb, &[(arity - 1, 0)]);
    let join_off = algebra::join_with(&off, &ra, &rb, &[(arity - 1, 0)]);
    assert_eq!(tuple_set(&join_on), tuple_set(&join_off), "join diverged under pruning");

    let int_on = algebra::intersect_with(&on, &ra, &rb);
    let int_off = algebra::intersect_with(&off, &ra, &rb);
    assert_eq!(tuple_set(&int_on), tuple_set(&int_off), "intersect diverged under pruning");

    let sel_on = algebra::select_with(&on, &ra, sel);
    let sel_off = algebra::select_with(&off, &ra, sel);
    assert_eq!(tuple_set(&sel_on), tuple_set(&sel_off), "select diverged under pruning");
}

// --------------------------------------------- pruned fixpoint equivalence

/// Transitive closure: T(x,y) ← E(x,y); T(x,z) ← E(x,y), T(y,z).
fn tc_program<T: Theory>() -> Program<T> {
    Program::new(vec![
        Rule::new(Atom::new("T", vec![0, 1]), vec![Literal::Pos(Atom::new("E", vec![0, 1]))]),
        Rule::new(
            Atom::new("T", vec![0, 2]),
            vec![
                Literal::Pos(Atom::new("E", vec![0, 1])),
                Literal::Pos(Atom::new("T", vec![1, 2])),
            ],
        ),
    ])
}

fn policy(join: JoinMode) -> EnginePolicy {
    EnginePolicy { join, ..EnginePolicy::default() }
}

fn fixpoint_opts(join: JoinMode) -> FixpointOptions {
    FixpointOptions { policy: policy(join), ..Default::default() }
}

/// Naive and semi-naive fixpoints over a random edge list must not see
/// the filtering knobs.
fn assert_fixpoint_invisible<T: Theory>(edb: Database<T>) {
    let program = tc_program::<T>();
    for run in [datalog::naive::<T>, datalog::seminaive::<T>] {
        let on = run(&program, &edb, &fixpoint_opts(JoinMode::Multiway))
            .expect("fixpoint (filtering on)");
        let off = run(&program, &edb, &fixpoint_opts(JoinMode::Exhaustive))
            .expect("fixpoint (filtering off)");
        assert_eq!(
            tuple_set(on.idb.get("T").expect("T")),
            tuple_set(off.idb.get("T").expect("T")),
            "fixpoint diverged under filtering"
        );
    }
}

fn dense_edge_db(edges: &[(i64, i64)]) -> Database<cql_dense::Dense> {
    let mut db = Database::new();
    db.insert(
        "E",
        GenRelation::from_conjunctions(
            2,
            edges
                .iter()
                .map(|&(a, b)| {
                    vec![DenseConstraint::eq_const(0, a), DenseConstraint::eq_const(1, b)]
                })
                .collect::<Vec<_>>(),
        ),
    );
    db
}

fn eq_edge_db(edges: &[(i64, i64)]) -> Database<cql_equality::Equality> {
    let mut db = Database::new();
    db.insert(
        "E",
        GenRelation::from_conjunctions(
            2,
            edges
                .iter()
                .map(|&(a, b)| vec![EqConstraint::eq_const(0, a), EqConstraint::eq_const(1, b)])
                .collect::<Vec<_>>(),
        ),
    );
    db
}

// ------------------------------------------------- constraint strategies

fn dense_constraint() -> impl Strategy<Value = DenseConstraint> {
    prop_oneof![
        (0usize..3, 0usize..3).prop_map(|(a, b)| DenseConstraint::lt(a, b)),
        (0usize..3, 0usize..3).prop_map(|(a, b)| DenseConstraint::eq(a, b)),
        (0usize..3, -2i64..3).prop_map(|(v, c)| DenseConstraint::le_const(v, c)),
        (0usize..3, -2i64..3).prop_map(|(v, c)| DenseConstraint::ge_const(v, c)),
        (0usize..3, -2i64..3).prop_map(|(v, c)| DenseConstraint::eq_const(v, c)),
        (0usize..3, -2i64..3).prop_map(|(v, c)| DenseConstraint::ne_const(v, c)),
    ]
}

fn dense_relation() -> impl Strategy<Value = Vec<Vec<DenseConstraint>>> {
    prop::collection::vec(prop::collection::vec(dense_constraint(), 0..4), 0..10)
}

fn eq_constraint() -> impl Strategy<Value = EqConstraint> {
    prop_oneof![
        (0usize..3, 0usize..3).prop_map(|(a, b)| EqConstraint::eq(a, b)),
        (0usize..3, 0usize..3).prop_map(|(a, b)| EqConstraint::ne(a, b)),
        (0usize..3, 0i64..3).prop_map(|(v, c)| EqConstraint::eq_const(v, c)),
        (0usize..3, 0i64..3).prop_map(|(v, c)| EqConstraint::ne_const(v, c)),
    ]
}

fn eq_relation() -> impl Strategy<Value = Vec<Vec<EqConstraint>>> {
    prop::collection::vec(prop::collection::vec(eq_constraint(), 0..4), 0..10)
}

fn poly_constraint() -> impl Strategy<Value = PolyConstraint> {
    prop_oneof![
        (0usize..3, -2i64..3)
            .prop_map(|(v, c)| PolyConstraint::le(&Poly::var(v), &Poly::constant(Rat::from(c)))),
        (0usize..3, -2i64..3)
            .prop_map(|(v, c)| PolyConstraint::le(&Poly::constant(Rat::from(c)), &Poly::var(v))),
        (0usize..3, -2i64..3)
            .prop_map(|(v, c)| PolyConstraint::eq(&Poly::var(v), &Poly::constant(Rat::from(c)))),
        (0usize..3, -2i64..3)
            .prop_map(|(v, c)| PolyConstraint::lt(&Poly::var(v), &Poly::constant(Rat::from(c)))),
    ]
}

fn poly_relation() -> impl Strategy<Value = Vec<Vec<PolyConstraint>>> {
    prop::collection::vec(prop::collection::vec(poly_constraint(), 0..3), 0..8)
}

fn bool_term(bits: u16) -> BoolTerm {
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

fn bool_conj() -> impl Strategy<Value = Vec<BoolConstraint>> {
    prop::collection::vec(
        (0u16..256).prop_map(|bits| BoolConstraint::eq_zero(&bool_term(bits))),
        0..3,
    )
}

fn bool_relation() -> impl Strategy<Value = Vec<Vec<BoolConstraint>>> {
    prop::collection::vec(bool_conj(), 0..8)
}

fn edge_list() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..6, 0i64..6), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dense_summary_is_sound(a in prop::collection::vec(dense_constraint(), 0..4),
                              b in prop::collection::vec(dense_constraint(), 0..4)) {
        assert_summary_sound::<cql_dense::Dense>(&a, &b);
    }

    #[test]
    fn equality_summary_is_sound(a in prop::collection::vec(eq_constraint(), 0..4),
                                 b in prop::collection::vec(eq_constraint(), 0..4)) {
        assert_summary_sound::<cql_equality::Equality>(&a, &b);
    }

    #[test]
    fn poly_summary_is_sound(a in prop::collection::vec(poly_constraint(), 0..4),
                             b in prop::collection::vec(poly_constraint(), 0..4)) {
        assert_summary_sound::<cql_poly::RealPoly>(&a, &b);
    }

    #[test]
    fn bool_summary_is_sound(a in bool_conj(), b in bool_conj()) {
        assert_summary_sound::<cql_bool::BoolAlg>(&a, &b);
        assert_summary_sound::<cql_bool::BoolAlgFree>(&a, &b);
    }

    #[test]
    fn dense_pruned_operators_match_exhaustive(a in dense_relation(), b in dense_relation()) {
        let sel = [DenseConstraint::le_const(0, 1)];
        assert_pruning_invisible::<cql_dense::Dense>(3, &a, &b, &sel);
    }

    #[test]
    fn equality_pruned_operators_match_exhaustive(a in eq_relation(), b in eq_relation()) {
        let sel = [EqConstraint::eq_const(0, 1)];
        assert_pruning_invisible::<cql_equality::Equality>(3, &a, &b, &sel);
    }

    #[test]
    fn poly_pruned_operators_match_exhaustive(a in poly_relation(), b in poly_relation()) {
        let sel = [PolyConstraint::le(&Poly::var(0), &Poly::constant(Rat::from(1)))];
        assert_pruning_invisible::<cql_poly::RealPoly>(3, &a, &b, &sel);
    }

    #[test]
    fn bool_pruned_operators_match_exhaustive(a in bool_relation(), b in bool_relation()) {
        let sel = [BoolConstraint::eq_zero(&bool_term(0))];
        assert_pruning_invisible::<cql_bool::BoolAlg>(3, &a, &b, &sel);
    }

    #[test]
    fn dense_pruned_fixpoint_matches_exhaustive(edges in edge_list()) {
        assert_fixpoint_invisible(dense_edge_db(&edges));
    }

    #[test]
    fn equality_pruned_fixpoint_matches_exhaustive(edges in edge_list()) {
        assert_fixpoint_invisible(eq_edge_db(&edges));
    }
}

/// The QE memo cache is a pure memo: repeated elimination of one
/// conjunction hits the cache and returns the identical DNF.
#[test]
fn qe_cache_hits_and_is_transparent() {
    use cql_engine::trace::{Counter, MetricsScope};
    let engine: Engine<cql_dense::Dense> = Engine::serial();
    let conj =
        vec![DenseConstraint::lt(0, 1), DenseConstraint::lt(1, 2), DenseConstraint::eq_const(0, 3)];
    let scope = MetricsScope::enter("qe-cache-test");
    let first = engine.eliminate_cached(&conj, 1).expect("eliminate");
    let second = engine.eliminate_cached(&conj, 1).expect("eliminate again");
    assert_eq!(first, second);
    let snap = scope.snapshot();
    assert_eq!(snap.get(Counter::QeCacheHits), 1, "second elimination must hit the cache");
    assert_eq!(engine.qe_cache().len(), 1);

    // In exhaustive mode, the cache is bypassed entirely.
    let off: Engine<cql_dense::Dense> =
        Engine::new(cql_engine::Executor::serial(), policy(JoinMode::Exhaustive));
    let scope = MetricsScope::enter("qe-cache-off");
    let direct = off.eliminate_cached(&conj, 1).expect("eliminate uncached");
    assert_eq!(direct, first);
    assert_eq!(scope.snapshot().get(Counter::QeCacheHits), 0);
    assert!(off.qe_cache().is_empty());
}

// ---------------------------------------------- multiway join equivalence

/// Path-join program: a recursive rule with a 3-atom body (the E17
/// shape), so the multiway planner has real join variables to order.
fn path3_program<T: Theory>() -> Program<T> {
    Program::new(vec![
        Rule::new(Atom::new("T", vec![0, 1]), vec![Literal::Pos(Atom::new("E", vec![0, 1]))]),
        Rule::new(
            Atom::new("T", vec![0, 3]),
            vec![
                Literal::Pos(Atom::new("T", vec![0, 1])),
                Literal::Pos(Atom::new("E", vec![1, 2])),
                Literal::Pos(Atom::new("E", vec![2, 3])),
            ],
        ),
    ])
}

/// Bodies that left the binary fold when every body began firing
/// through the multiway join: a one-atom rule with a constraint literal
/// and a constraint-only rule, both feeding a recursive rule.
fn constraint_program<T: Theory>(filter: T::Constraint, seed: [T::Constraint; 2]) -> Program<T> {
    Program::new(vec![
        Rule::new(
            Atom::new("T", vec![0, 1]),
            vec![Literal::Pos(Atom::new("E", vec![0, 1])), Literal::Constraint(filter)],
        ),
        Rule::new(Atom::new("T", vec![0, 1]), seed.into_iter().map(Literal::Constraint).collect()),
        Rule::new(
            Atom::new("T", vec![0, 2]),
            vec![
                Literal::Pos(Atom::new("T", vec![0, 1])),
                Literal::Pos(Atom::new("E", vec![1, 2])),
            ],
        ),
    ])
}

/// A single negated-atom body: N(x,y) ← ¬E(x,y) (inflationary only).
fn negation_program<T: Theory>() -> Program<T> {
    Program::new(vec![Rule::new(
        Atom::new("N", vec![0, 1]),
        vec![Literal::Neg(Atom::new("E", vec![0, 1]))],
    )])
}

const ALL_STRATEGIES: [datalog::Strategy; 3] =
    [datalog::Strategy::Naive, datalog::Strategy::SemiNaive, datalog::Strategy::Inflationary];

/// The three join modes must be indistinguishable: multiway (the
/// default), binary-pruned (the left-to-right fold with summary pruning)
/// and exhaustive enumeration (no filtering at all). Every listed
/// strategy must produce the identical tuple set for `head` under each,
/// and report one round of telemetry per iteration.
fn assert_multiway_invisible<T: Theory>(
    program: &Program<T>,
    edb: &Database<T>,
    head: &str,
    strategies: &[datalog::Strategy],
) {
    for &strategy in strategies {
        let results: Vec<(JoinMode, HashSet<GenTuple<T>>)> =
            [JoinMode::Multiway, JoinMode::Binary, JoinMode::Exhaustive]
                .into_iter()
                .map(|join| {
                    let opts = fixpoint_opts(join);
                    let r = datalog::fixpoint(&opts.engine(), program, edb, &opts, strategy)
                        .unwrap_or_else(|e| panic!("{strategy:?}/{join:?} failed: {e:?}"));
                    assert_eq!(r.rounds.len(), r.iterations, "{strategy:?}/{join:?}");
                    (join, tuple_set(r.idb.get(head).expect("head relation")))
                })
                .collect();
        let (reference_name, reference) = &results[0];
        for (join, set) in &results[1..] {
            assert_eq!(
                reference, set,
                "{strategy:?}: {reference_name:?} and {join:?} joins diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_multiway_fixpoint_matches_binary_and_exhaustive(edges in edge_list()) {
        assert_multiway_invisible(
            &path3_program::<cql_dense::Dense>(),
            &dense_edge_db(&edges),
            "T",
            &ALL_STRATEGIES,
        );
    }

    #[test]
    fn equality_multiway_fixpoint_matches_binary_and_exhaustive(edges in edge_list()) {
        assert_multiway_invisible(
            &path3_program::<cql_equality::Equality>(),
            &eq_edge_db(&edges),
            "T",
            &ALL_STRATEGIES,
        );
    }

    #[test]
    fn dense_constraint_bodies_match_binary_and_exhaustive(edges in edge_list()) {
        use cql_dense::DenseConstraint as C;
        assert_multiway_invisible(
            &constraint_program::<cql_dense::Dense>(
                C::lt(0, 1),
                [C::eq_const(0, 2), C::gt_const(1, 4)],
            ),
            &dense_edge_db(&edges),
            "T",
            &ALL_STRATEGIES,
        );
    }

    #[test]
    fn equality_constraint_bodies_match_binary_and_exhaustive(edges in edge_list()) {
        assert_multiway_invisible(
            &constraint_program::<cql_equality::Equality>(
                EqConstraint::ne(0, 1),
                [EqConstraint::eq_const(0, 2), EqConstraint::ne_const(1, 4)],
            ),
            &eq_edge_db(&edges),
            "T",
            &ALL_STRATEGIES,
        );
    }

    #[test]
    fn dense_negated_body_matches_binary_and_exhaustive(edges in edge_list()) {
        assert_multiway_invisible(
            &negation_program::<cql_dense::Dense>(),
            &dense_edge_db(&edges),
            "N",
            &[datalog::Strategy::Inflationary],
        );
    }

    #[test]
    fn equality_negated_body_matches_binary_and_exhaustive(edges in edge_list()) {
        assert_multiway_invisible(
            &negation_program::<cql_equality::Equality>(),
            &eq_edge_db(&edges),
            "N",
            &[datalog::Strategy::Inflationary],
        );
    }

    /// The cell-based Herbrand engine never touches `fire_rule`, which
    /// makes it an independent oracle: the multiway symbolic fixpoint
    /// must agree with it pointwise on the integer grid.
    #[test]
    fn dense_multiway_matches_herbrand_cells(edges in edge_list()) {
        let program = path3_program::<cql_dense::Dense>();
        let edb = dense_edge_db(&edges);
        let opts = FixpointOptions::default();
        let symbolic = datalog::naive(&program, &edb, &opts).expect("symbolic fixpoint");
        let cells = datalog::cell_naive(&program, &edb, &opts).expect("cell fixpoint");
        let t = symbolic.idb.get("T").expect("T");
        let tc = cells.idb.get("T").expect("T");
        for a in 0..6i64 {
            for b in 0..6i64 {
                let p = [Rat::from(a), Rat::from(b)];
                prop_assert_eq!(t.satisfied_by(&p), tc.satisfied_by(&p), "at ({},{})", a, b);
            }
        }
    }

    #[test]
    fn equality_multiway_matches_herbrand_cells(edges in edge_list()) {
        let program = path3_program::<cql_equality::Equality>();
        let edb = eq_edge_db(&edges);
        let opts = FixpointOptions::default();
        let symbolic = datalog::naive(&program, &edb, &opts).expect("symbolic fixpoint");
        let cells = datalog::cell_naive(&program, &edb, &opts).expect("cell fixpoint");
        let t = symbolic.idb.get("T").expect("T");
        let tc = cells.idb.get("T").expect("T");
        for a in 0..6i64 {
            for b in 0..6i64 {
                prop_assert_eq!(t.satisfied_by(&[a, b]), tc.satisfied_by(&[a, b]), "at ({},{})", a, b);
            }
        }
    }

    /// Recursive polynomial Datalog need not close (Example 1.12), so the
    /// polynomial theory is covered by a non-recursive multi-atom join.
    #[test]
    fn poly_multiway_join_matches_binary_and_exhaustive(
        a in poly_relation(),
        b in poly_relation(),
    ) {
        let mut edb = Database::new();
        edb.insert("A", GenRelation::<cql_poly::RealPoly>::from_conjunctions(3, a));
        edb.insert("B", GenRelation::from_conjunctions(3, b));
        let program: Program<cql_poly::RealPoly> = Program::new(vec![Rule::new(
            Atom::new("H", vec![0, 4]),
            vec![
                Literal::Pos(Atom::new("A", vec![0, 1, 2])),
                Literal::Pos(Atom::new("B", vec![2, 3, 4])),
            ],
        )]);
        assert_multiway_invisible(&program, &edb, "H", &ALL_STRATEGIES);
    }

    /// Boolean summaries carry no interval ranges, so every trie level
    /// degenerates to its catch-all bucket — this pins that the multiway
    /// path stays sound (and exact) when level pruning has nothing to
    /// offer.
    #[test]
    fn bool_multiway_join_matches_binary_and_exhaustive(
        a in bool_relation(),
        b in bool_relation(),
    ) {
        let mut edb = Database::new();
        edb.insert("A", GenRelation::<cql_bool::BoolAlg>::from_conjunctions(3, a));
        edb.insert("B", GenRelation::from_conjunctions(3, b));
        let program: Program<cql_bool::BoolAlg> = Program::new(vec![Rule::new(
            Atom::new("H", vec![0, 4]),
            vec![
                Literal::Pos(Atom::new("A", vec![0, 1, 2])),
                Literal::Pos(Atom::new("B", vec![2, 3, 4])),
            ],
        )]);
        assert_multiway_invisible(&program, &edb, "H", &ALL_STRATEGIES);
    }
}
