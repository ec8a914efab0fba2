//! Concurrent snapshot isolation: 8 readers race a committing writer
//! across 100 epochs, and every reader's pinned state must be
//! byte-identical to a *serial* evaluation at that epoch — a reader may
//! never observe a partial commit (EDB updated but the maintained IDB
//! not, or vice versa).
//!
//! The check is self-contained per read: render the pinned snapshot's
//! `E`, run the batch semi-naive fixpoint over exactly that `E` on a
//! private engine, and compare the renderings of the maintained `T`
//! against the batch result. Torn state — any interleaving where the
//! published database mixes two commits — fails the comparison, because
//! no serial prefix of the commit sequence produces that (E, T) pair
//! with T = closure(E).

use cql_core::relation::{Database, GenRelation, GenTuple};
use cql_dense::{Dense, DenseConstraint};
use cql_engine::datalog::{seminaive, Atom, FixpointOptions, Literal, Program, Rule};
use cql_engine::Runtime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

fn edge(a: i64, b: i64) -> GenTuple<Dense> {
    GenTuple::new(vec![DenseConstraint::eq_const(0, a), DenseConstraint::eq_const(1, b)]).unwrap()
}

fn render(rel: &GenRelation<Dense>) -> Vec<String> {
    let mut out: Vec<String> = rel.tuples().iter().map(ToString::to_string).collect();
    out.sort();
    out
}

/// The writer's commit sequence: 100 effective commits over short
/// disjoint chains (component `c` holds the edges `(10c, 10c+1) …`),
/// keeping each serial fixpoint cheap while every commit still changes
/// both `E` and the closure `T`.
fn commit_sequence() -> Vec<(i64, i64)> {
    (0..100)
        .map(|i| {
            let (component, pos) = (i / 5, i % 5);
            (10 * component + pos, 10 * component + pos + 1)
        })
        .collect()
}

#[test]
fn readers_never_observe_a_partial_commit() {
    let mut db = Database::new();
    db.insert("E", GenRelation::<Dense>::empty(2));
    let runtime =
        Arc::new(Runtime::new(tc_program(), &db, FixpointOptions::default()).expect("materialize"));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let writer = {
            let runtime = Arc::clone(&runtime);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                for (a, b) in commit_sequence() {
                    runtime.insert("E", edge(a, b)).expect("commit");
                }
                done.store(true, Ordering::Release);
            })
        };
        let readers: Vec<_> = (0..8)
            .map(|_| {
                let runtime = Arc::clone(&runtime);
                let done = Arc::clone(&done);
                scope.spawn(move || {
                    let program = tc_program();
                    let opts = FixpointOptions::default();
                    let mut last_epoch = 0;
                    let mut reads = 0usize;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let snap = runtime.pin();
                        // Epochs are monotone: a later pin never time-travels.
                        assert!(snap.epoch() >= last_epoch, "epoch went backwards");
                        last_epoch = snap.epoch();
                        // Serial evaluation at the pinned epoch: batch
                        // fixpoint over exactly the pinned E.
                        let mut edb = Database::new();
                        edb.insert("E", snap.relation("E").expect("E present").clone());
                        let batch = seminaive(&program, &edb, &opts).expect("batch fixpoint");
                        assert_eq!(
                            render(snap.relation("T").expect("T present")),
                            render(batch.idb.require("T").expect("closure")),
                            "pinned T must equal the serial closure of pinned E \
                             (epoch {})",
                            snap.epoch()
                        );
                        reads += 1;
                        if finished {
                            break;
                        }
                    }
                    reads
                })
            })
            .collect();
        writer.join().expect("writer");
        let total: usize = readers.into_iter().map(|r| r.join().expect("reader")).sum();
        assert!(total >= 8, "every reader performed at least one consistent read");
    });

    // After the race: the final epoch holds the full 100-commit state.
    let final_snap = runtime.pin();
    assert_eq!(final_snap.relation("E").expect("E").len(), 100);
    // 20 components × (5·6/2 = 15 closure pairs) = 300.
    assert_eq!(final_snap.relation("T").expect("T").len(), 300);
    assert_eq!(runtime.commits(), 100);
}

#[test]
fn pinned_epochs_survive_retractions_mid_race() {
    // A writer that also retracts: over-deletion/re-derivation runs
    // under the writer lock, and readers still only ever see published
    // epochs.
    let mut db = Database::new();
    let mut e = GenRelation::<Dense>::empty(2);
    for i in 0..5 {
        e.insert(edge(i, i + 1));
    }
    db.insert("E", e);
    let runtime =
        Arc::new(Runtime::new(tc_program(), &db, FixpointOptions::default()).expect("materialize"));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        {
            let runtime = Arc::clone(&runtime);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                for round in 0..25 {
                    let extra = edge(100 + round, 101 + round);
                    runtime.insert("E", extra.clone()).expect("insert");
                    runtime.retract("E", &extra).expect("retract");
                }
                done.store(true, Ordering::Release);
            });
        }
        for _ in 0..4 {
            let runtime = Arc::clone(&runtime);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let program = tc_program();
                let opts = FixpointOptions::default();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let snap = runtime.pin();
                    let mut edb = Database::new();
                    edb.insert("E", snap.relation("E").expect("E").clone());
                    let batch = seminaive(&program, &edb, &opts).expect("batch");
                    assert_eq!(
                        render(snap.relation("T").expect("T")),
                        render(batch.idb.require("T").expect("closure")),
                    );
                    if finished {
                        break;
                    }
                }
            });
        }
    });
    // Inserts and retracts cancelled out: back to the seed chain.
    let snap = runtime.pin();
    assert_eq!(snap.relation("E").expect("E").len(), 5);
    assert_eq!(snap.relation("T").expect("T").len(), 15);
}
