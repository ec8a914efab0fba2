//! # cql — Constraint Query Languages
//!
//! A comprehensive Rust reproduction of Paris C. Kanellakis, Gabriel M.
//! Kuper and Peter Z. Revesz, *Constraint Query Languages* (PODS 1990):
//! generalized tuples are conjunctions of constraints, generalized
//! relations finitely represent infinite point sets, and relational
//! calculus / Datalog / inflationary Datalog¬ evaluate **bottom-up**, in
//! **closed form** (quantifier elimination), with **low data complexity**.
//!
//! This facade re-exports the workspace:
//!
//! | module | paper | contents |
//! |--------|-------|----------|
//! | [`core`] | §1 | the framework: `Theory`, generalized relations, `EnginePolicy` (plus the evaluators re-exported from [`engine`]) |
//! | [`engine`] | §2–3 | shared evaluation engine: interner, executor, calculus & Datalog evaluators, cell-based `EVAL_φ` |
//! | [`dense`] | §3 | dense linear order: order networks, r-configurations |
//! | [`equality`] | §4 | equality over an infinite domain: e-configurations |
//! | [`poly`] | §2 | real polynomial inequalities: virtual substitution QE |
//! | [`boolean`] | §5 | boolean equality constraints over free algebras |
//! | [`tableau`] | §2.2 | tableau queries and containment |
//! | [`index`] | §1.1(3) | generalized 1-d indexing substrates |
//! | [`geo`] | §2.1 | rectangle / hull / Voronoi workloads |
//! | [`arith`] | — | exact numbers: `BigInt`, `Rat`, polynomials |
//!
//! ## Quickstart
//!
//! ```
//! use cql::prelude::*;
//!
//! // R(z, x, y): point (x, y) lies in rectangle z — one generalized
//! // tuple per rectangle (Example 1.1).
//! let mut db: Database<Dense> = Database::new();
//! db.insert("R", GenRelation::from_conjunctions(3, vec![
//!     vec![DenseConstraint::eq_const(0, 1),
//!          DenseConstraint::ge_const(1, 0), DenseConstraint::le_const(1, 2),
//!          DenseConstraint::ge_const(2, 0), DenseConstraint::le_const(2, 2)],
//!     vec![DenseConstraint::eq_const(0, 2),
//!          DenseConstraint::ge_const(1, 1), DenseConstraint::le_const(1, 3),
//!          DenseConstraint::ge_const(2, 1), DenseConstraint::le_const(2, 3)],
//! ]));
//!
//! // {(n1, n2) | n1 ≠ n2 ∧ ∃x,y (R(n1,x,y) ∧ R(n2,x,y))}
//! let query = CalculusQuery::new(
//!     Formula::constraint(DenseConstraint::ne(0, 1)).and(
//!         Formula::atom("R", vec![0, 2, 3])
//!             .and(Formula::atom("R", vec![1, 2, 3]))
//!             .exists_all(&[2, 3])),
//!     vec![0, 1],
//! ).unwrap();
//!
//! let out = cql::core::calculus::evaluate(&query, &db).unwrap();
//! assert!(out.satisfied_by(&[Rat::from(1), Rat::from(2)]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod combined;

pub use cql_arith as arith;
pub use cql_bool as boolean;
pub use cql_dense as dense;

/// The framework: `cql-core`'s data model (theories, generalized
/// relations, formulas, policy) plus `cql-engine`'s evaluators
/// (algebra, calculus, cells, Datalog) under the historical paths.
pub mod core {
    pub use cql_core::*;
    pub use cql_engine::{algebra, calculus, cells, datalog};
}

pub use cql_engine as engine;
pub use cql_equality as equality;
pub use cql_geo as geo;
pub use cql_index as index;
pub use cql_poly as poly;
pub use cql_tableau as tableau;

/// The most common imports in one place.
pub mod prelude {
    pub use cql_arith::{BigInt, Poly, Rat};
    pub use cql_bool::{BoolAlg, BoolConstraint, BoolTerm};
    pub use cql_core::{
        CalculusQuery, CellTheory, CqlError, Database, EnginePolicy, Formula, GenRelation,
        GenTuple, JoinMode, SubsumptionMode, Theory,
    };
    pub use cql_dense::{Dense, DenseConstraint, RConfig};
    pub use cql_engine::datalog::{
        Atom, FixpointOptions, Literal, MaterializedView, Program, Rule,
    };
    pub use cql_engine::trace::TelemetryRegistry;
    pub use cql_engine::{
        algebra, calculus, cells, datalog, Admission, Engine, Executor, QueryServer, Runtime,
        ServerConfig, Snapshot,
    };
    pub use cql_equality::{EConfig, EqConstraint, Equality};
    pub use cql_poly::{PolyConstraint, RealPoly};
}
