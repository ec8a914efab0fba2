//! # cql-core — the Constraint Query Language framework
//!
//! A faithful, generic implementation of the framework of Kanellakis,
//! Kuper and Revesz, *Constraint Query Languages* (PODS 1990): generalized
//! tuples are conjunctions of constraints, generalized relations are
//! finite sets of generalized tuples (quantifier-free DNF formulas), and
//! queries — relational calculus, Datalog, inflationary Datalog¬ — are
//! evaluated **bottom-up**, in **closed form** (via quantifier
//! elimination), with **low data complexity**.
//!
//! The crate is generic over the constraint theory through the
//! [`Theory`] trait; the paper's four theories live in sibling crates
//! (`cql-dense`, `cql-equality`, `cql-poly`, `cql-bool`). Theories with a
//! finite cell decomposition additionally implement [`CellTheory`], which
//! unlocks the paper's `EVAL_φ` algorithm and the generalized Herbrand
//! machinery of §3.2.
//!
//! This crate holds the *data model*: tuples, relations, databases,
//! formulas, the theory seam, and the subsumption/compression policy
//! ([`EnginePolicy`]). The evaluators — relational algebra and calculus,
//! cell-based `EVAL_φ`, and the Datalog fixpoint engines — live in the
//! sibling `cql-engine` crate, which layers interning and parallel
//! execution on top of this data model.
//!
//! ```text
//! database input     query program        database output
//!   (constraints) ──► φ(db, constraints) ──► 1. closed form
//!                                            2. evaluated bottom-up
//!                                            3. low data complexity
//! ```
//! *(Figure 1 of the paper.)*

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod formula;
pub mod policy;
pub mod relation;
pub mod summary;
pub mod theory;

pub use error::{CqlError, Result};
pub use formula::{CalculusQuery, Formula};
pub use policy::{EnginePolicy, JoinMode, SubsumptionMode};
pub use relation::{Database, GenRelation, GenTuple};
pub use summary::{BoxSummary, ConstraintSummary, NoSummary, SummaryLevel};
pub use theory::{CellTheory, Theory, Var};
