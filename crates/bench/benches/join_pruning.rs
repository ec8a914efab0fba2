//! Summary-pruned vs exhaustive join enumeration, for all four theories.
//!
//! Each benchmark joins two n-tuple pinned-point relations on one column
//! (the composition step of transitive closure) twice: once with
//! `JoinMode::Exhaustive` — every pair of disjuncts is
//! handed to the solver — and once with filtering on, where the engine's
//! summary level buckets the right side by its join column and only
//! interval-compatible pairs reach the solver. The companion acceptance
//! check (`repro e16`) reports the deterministic counter story
//! (QE calls, entailment checks, pruned pairs, cache hits).

use cql_arith::{Poly, Rat};
use cql_bool::{BoolAlg, BoolConstraint, BoolTerm};
use cql_core::relation::GenRelation;
use cql_core::theory::Theory;
use cql_core::{EnginePolicy, JoinMode};
use cql_dense::{Dense, DenseConstraint};
use cql_engine::{algebra, Engine, Executor};
use cql_equality::{EqConstraint, Equality};
use cql_poly::{PolyConstraint, RealPoly};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Chain edges `i → i+1` as pinned 2-tuples of the given theory.
fn chain<T: Theory>(n: i64, pin: impl Fn(usize, i64) -> T::Constraint) -> GenRelation<T> {
    GenRelation::from_conjunctions(
        2,
        (0..n).map(|i| vec![pin(0, i), pin(1, i + 1)]).collect::<Vec<_>>(),
    )
}

fn bench_theory<T: Theory>(
    c: &mut Criterion,
    name: &str,
    n: i64,
    pin: impl Fn(usize, i64) -> T::Constraint + Copy,
) {
    let mut group = c.benchmark_group(format!("join_pruning/{name}"));
    group.sample_size(3);
    let a = chain::<T>(n, pin);
    let b = chain::<T>(n, pin);
    for (label, join) in [("exhaustive", JoinMode::Exhaustive), ("pruned", JoinMode::Multiway)] {
        group.bench_with_input(BenchmarkId::new(label, n), &join, |bch, &join| {
            bch.iter(|| {
                let policy = EnginePolicy { join, ..EnginePolicy::default() };
                let engine: Engine<T> = Engine::new(Executor::serial(), policy);
                algebra::join_with(&engine, &a, &b, &[(1, 0)]).len()
            });
        });
    }
    group.finish();
}

fn bench_dense(c: &mut Criterion) {
    bench_theory::<Dense>(c, "dense", 64, DenseConstraint::eq_const);
}

fn bench_equality(c: &mut Criterion) {
    bench_theory::<Equality>(c, "equality", 64, EqConstraint::eq_const);
}

fn bench_poly(c: &mut Criterion) {
    bench_theory::<RealPoly>(c, "poly", 48, |v, k| {
        PolyConstraint::eq(&Poly::var(v), &Poly::constant(Rat::from(k)))
    });
}

fn bench_boolean(c: &mut Criterion) {
    // Boolean "pins": x_v = 0 / x_v = 1 over two variables per tuple,
    // encoding the chain node parity (the boolean summary prunes on
    // forced literals rather than intervals).
    bench_theory::<BoolAlg>(c, "boolean", 24, |v, k| {
        let t = BoolTerm::var(v);
        if k % 2 == 0 {
            BoolConstraint::eq_zero(&t)
        } else {
            BoolConstraint::eq_zero(&t.not())
        }
    });
}

criterion_group!(benches, bench_dense, bench_equality, bench_poly, bench_boolean);
criterion_main!(benches);
