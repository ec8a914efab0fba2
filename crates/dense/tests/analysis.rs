//! Program analysis over the dense theory: piecewise linearity (§3.3),
//! stratification, and stratified vs inflationary semantics.

use cql_arith::Rat;
use cql_core::{Database, GenRelation};
use cql_dense::{Dense, DenseConstraint as C};
use cql_engine::datalog::{self, analysis, Atom, FixpointOptions, Literal, Program, Rule};

fn tc_program() -> Program<Dense> {
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

fn chain(n: i64) -> Database<Dense> {
    let mut db = Database::new();
    db.insert(
        "E",
        GenRelation::from_conjunctions(
            2,
            (0..n).map(|i| vec![C::eq_const(0, i), C::eq_const(1, i + 1)]),
        ),
    );
    db
}

#[test]
fn transitive_closure_is_piecewise_linear() {
    assert!(analysis::is_piecewise_linear(&tc_program()));
}

#[test]
fn doubly_recursive_tc_is_not_piecewise_linear() {
    // T(x,y) :- T(x,z), T(z,y): two recursive subgoals.
    let program: Program<Dense> = Program::new(vec![
        Rule::new(Atom::new("T", vec![0, 1]), vec![Literal::Pos(Atom::new("E", vec![0, 1]))]),
        Rule::new(
            Atom::new("T", vec![0, 1]),
            vec![
                Literal::Pos(Atom::new("T", vec![0, 2])),
                Literal::Pos(Atom::new("T", vec![2, 1])),
            ],
        ),
    ]);
    assert!(!analysis::is_piecewise_linear(&program));
}

#[test]
fn mutual_recursion_detected_via_sccs() {
    // Even/Odd mutual recursion: one SCC containing both.
    let program: Program<Dense> = Program::new(vec![
        Rule::new(Atom::new("Even", vec![0]), vec![Literal::Pos(Atom::new("Zero", vec![0]))]),
        Rule::new(
            Atom::new("Even", vec![0]),
            vec![
                Literal::Pos(Atom::new("Succ", vec![1, 0])),
                Literal::Pos(Atom::new("Odd", vec![1])),
            ],
        ),
        Rule::new(
            Atom::new("Odd", vec![0]),
            vec![
                Literal::Pos(Atom::new("Succ", vec![1, 0])),
                Literal::Pos(Atom::new("Even", vec![1])),
            ],
        ),
    ]);
    let sccs = analysis::predicate_sccs(&program);
    let joint = sccs.iter().find(|scc| scc.contains("Even")).expect("Even somewhere");
    assert!(joint.contains("Odd"), "{sccs:?}");
    // Still piecewise linear: one recursive subgoal per rule.
    assert!(analysis::is_piecewise_linear(&program));
}

#[test]
fn stratification_orders_negation() {
    // U needs completed T: classic stratified program.
    let mut program = tc_program();
    program.rules.push(Rule::new(
        Atom::new("U", vec![0, 1]),
        vec![
            Literal::Pos(Atom::new("E", vec![0, 2])),
            Literal::Pos(Atom::new("E", vec![1, 3])),
            Literal::Neg(Atom::new("T", vec![0, 1])),
        ],
    ));
    let strata = analysis::stratify(&program).unwrap();
    let pos = |name: &str| strata.iter().position(|s| s.contains(name)).unwrap();
    assert!(pos("T") < pos("U"), "{strata:?}");

    // Evaluate: U must be the complement of T restricted to edge sources.
    let edb = chain(3);
    let result = analysis::stratified(&program, &edb, &FixpointOptions::default()).unwrap();
    let t = result.idb.get("T").unwrap();
    let u = result.idb.get("U").unwrap();
    for a in 0..3i64 {
        for b in 0..3i64 {
            let p = [Rat::from(a), Rat::from(b)];
            // a, b are edge sources (E(a,·), E(b,·) exist for 0..3).
            assert_eq!(u.satisfied_by(&p), !t.satisfied_by(&p), "({a},{b})");
        }
    }
}

#[test]
fn unstratifiable_program_is_rejected() {
    // P(x) :- E(x,y), ¬P(y): negation through its own recursion.
    let program: Program<Dense> = Program::new(vec![Rule::new(
        Atom::new("P", vec![0]),
        vec![Literal::Pos(Atom::new("E", vec![0, 1])), Literal::Neg(Atom::new("P", vec![1]))],
    )]);
    assert!(analysis::stratify(&program).is_err());
    // Inflationary semantics still evaluates it (the paper's choice).
    let result = datalog::inflationary(&program, &chain(3), &FixpointOptions::default());
    assert!(result.is_ok());
}

#[test]
fn stratified_agrees_with_seminaive_on_positive_programs() {
    let program = tc_program();
    let edb = chain(5);
    let opts = FixpointOptions::default();
    let strat = analysis::stratified(&program, &edb, &opts).unwrap();
    let semi = datalog::seminaive(&program, &edb, &opts).unwrap();
    for a in 0..=5i64 {
        for b in 0..=5i64 {
            let p = [Rat::from(a), Rat::from(b)];
            assert_eq!(
                strat.idb.get("T").unwrap().satisfied_by(&p),
                semi.idb.get("T").unwrap().satisfied_by(&p)
            );
        }
    }
}

#[test]
fn stratified_respects_the_options_policy() {
    use cql_core::{EnginePolicy, GenTuple, SubsumptionMode};
    use std::collections::HashSet;
    let mut program = tc_program();
    program.rules.push(Rule::new(
        Atom::new("U", vec![0, 1]),
        vec![
            Literal::Pos(Atom::new("E", vec![0, 2])),
            Literal::Pos(Atom::new("E", vec![1, 3])),
            Literal::Neg(Atom::new("T", vec![0, 1])),
        ],
    ));
    let edb = chain(4);
    let opts = FixpointOptions {
        policy: EnginePolicy::with_subsumption(SubsumptionMode::Quadratic),
        ..FixpointOptions::default()
    };
    let quadratic = analysis::stratified(&program, &edb, &opts).unwrap();
    let default = analysis::stratified(&program, &edb, &FixpointOptions::default()).unwrap();
    assert_eq!(quadratic.rounds.len(), quadratic.iterations);
    let set = |rel: &GenRelation<Dense>| {
        rel.tuples().iter().cloned().collect::<HashSet<GenTuple<Dense>>>()
    };
    for name in ["T", "U"] {
        let rel = quadratic.idb.get(name).unwrap();
        assert_eq!(rel.policy(), opts.policy, "`{name}` ignores the options' policy");
        assert_eq!(set(rel), set(default.idb.get(name).unwrap()), "`{name}` differs");
    }
}
