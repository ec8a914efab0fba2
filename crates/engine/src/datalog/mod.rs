//! Datalog + constraints: AST and bottom-up evaluation engines.
//!
//! * [`ast`] — rules and programs (Definition 1.10);
//! * [`symbolic`] — the one bottom-up [`fixpoint`] (naive, semi-naive or
//!   inflationary [`Strategy`]) by joining generalized tuples and
//!   eliminating quantifiers;
//! * [`plan`] — per-rule multiway join planning (variable elimination
//!   orders, cached per-atom summary levels, the leapfrog search);
//! * [`incremental`] — a [`incremental::MaterializedView`] keeping a
//!   positive program's IDB maintained under single-tuple EDB inserts
//!   and retracts (counting/DRed support tracking, delta-restricted
//!   firings through the same multiway firing as the batch fixpoint);
//! * [`herbrand`] — the §3.2 generalized-Herbrand-atom (cell-based)
//!   evaluation for theories with finite cell decompositions, including
//!   the §3.3 parallel evaluation and derivation-tree statistics.

pub mod analysis;
pub mod ast;
pub mod herbrand;
pub mod incremental;
pub mod plan;
pub mod symbolic;

pub use analysis::{is_piecewise_linear, predicate_sccs, stratified, stratify};
pub use ast::{Atom, Literal, Program, Rule};
pub use herbrand::{
    cell_inflationary, cell_naive, cell_parallel, CellFixpointResult, DerivationStats,
};
pub use incremental::MaterializedView;
pub use plan::JoinPlan;
pub use symbolic::{
    fixpoint, inflationary, naive, seminaive, FixpointOptions, FixpointResult, Strategy,
};
