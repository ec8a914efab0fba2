//! # cql-engine — the shared evaluation engine
//!
//! Every query evaluator of the CQL framework lives here, layered on the
//! data model of `cql-core`:
//!
//! * [`algebra`] — relational algebra over generalized relations;
//! * [`calculus`] — bottom-up structural-induction evaluation of
//!   relational calculus + constraints (closed-form via quantifier
//!   elimination);
//! * [`cells`] — the paper's `EVAL_φ` algorithm for cell theories;
//! * [`datalog`] — one bottom-up fixpoint under a naive, semi-naive or
//!   inflationary strategy, both symbolic and over generalized Herbrand
//!   atoms (§3.2), plus a
//!   [`MaterializedView`] that keeps a positive program's IDB
//!   maintained under single-tuple inserts and retracts without
//!   re-running the fixpoint.
//!
//! Three subsystems are shared by all of them:
//!
//! * [`Interner`] — hash-consing of canonical tuples, so a raw
//!   conjunction is canonicalized at most once per evaluation and equal
//!   tuples share one `Arc`'d representation;
//! * [`Executor`] — one scoped-thread parallel map used by every
//!   evaluator instead of per-module thread pools;
//! * `cql_core`'s [`EnginePolicy`] — the subsumption mode every relation
//!   created during evaluation inherits, and the [`JoinMode`] that
//!   decides how joins and rule bodies enumerate candidates.
//!
//! An [`Engine`] value bundles the three; evaluators take it by
//! reference (the algebra and calculus `*_with` entry points,
//! [`datalog::fixpoint`]), while the plain entry points construct a
//! serial default so existing call sites keep their signatures.
//!
//! ## Observability
//!
//! The whole stack is instrumented through [`trace`] (the `cql-trace`
//! crate, re-exported here): open a [`trace::MetricsScope`] around an
//! evaluation and its counters/operator timings are exact at any
//! executor width (workers install the issuing thread's scope); switch
//! the flight recorder ([`trace::recorder`]) on at runtime to also
//! capture spans for every algebra operator, calculus node, fixpoint
//! round, QE call, executor batch and interner epoch. Every [`datalog::fixpoint`] result carries
//! per-round [`trace::RoundStats`] and per-rule [`trace::PlanStats`] for
//! the EXPLAIN report.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algebra;
pub mod calculus;
pub mod cells;
pub mod datalog;
pub mod executor;
pub mod interner;
pub mod qe_cache;
pub mod runtime;
pub mod server;

pub use cql_core::{EnginePolicy, JoinMode, SubsumptionMode};
pub use cql_trace as trace;
pub use datalog::incremental::MaterializedView;
pub use executor::Executor;
pub use interner::Interner;
pub use qe_cache::QeCache;
pub use runtime::{Runtime, Snapshot};
pub use server::{Admission, QueryServer, ServerConfig};

use cql_core::error::Result;
use cql_core::relation::{GenRelation, GenTuple};
use cql_core::theory::{Theory, Var};

/// The evaluation context: an executor, a tuple interner, a QE memo
/// cache and the policy for relations created during evaluation.
pub struct Engine<T: Theory> {
    /// Parallel map used for per-tuple work batches.
    pub executor: Executor,
    /// Policy inherited by every relation the engine creates.
    pub policy: EnginePolicy,
    interner: Interner<T>,
    qe_cache: QeCache<T>,
}

impl<T: Theory> Default for Engine<T> {
    fn default() -> Self {
        Engine::serial()
    }
}

impl<T: Theory> Engine<T> {
    /// An engine with the given executor and policy (fresh interner).
    #[must_use]
    pub fn new(executor: Executor, policy: EnginePolicy) -> Engine<T> {
        Engine { executor, policy, interner: Interner::new(), qe_cache: QeCache::new() }
    }

    /// The serial engine with default policy.
    #[must_use]
    pub fn serial() -> Engine<T> {
        Engine::new(Executor::serial(), EnginePolicy::default())
    }

    /// An engine over `threads` workers with default policy.
    #[must_use]
    pub fn with_threads(threads: usize) -> Engine<T> {
        Engine::new(Executor::new(threads), EnginePolicy::default())
    }

    /// The engine's interner.
    #[must_use]
    pub fn interner(&self) -> &Interner<T> {
        &self.interner
    }

    /// Canonicalize a raw conjunction through the interner (`None` iff
    /// unsatisfiable).
    pub fn intern(&self, raw: Vec<T::Constraint>) -> Option<GenTuple<T>> {
        self.interner.intern(raw)
    }

    /// Conjoin a tuple with extra constraints through the interner.
    pub fn conjoin(&self, base: &GenTuple<T>, extra: &[T::Constraint]) -> Option<GenTuple<T>> {
        let mut all = base.constraints().to_vec();
        all.extend_from_slice(extra);
        self.intern(all)
    }

    /// An empty relation carrying the engine's policy.
    #[must_use]
    pub fn relation(&self, arity: usize) -> GenRelation<T> {
        GenRelation::with_policy(arity, self.policy)
    }

    /// The engine's QE memo cache.
    #[must_use]
    pub fn qe_cache(&self) -> &QeCache<T> {
        &self.qe_cache
    }

    /// Sampled occupancy/cardinality gauges for the engine's shared
    /// state, as `(name, value)` rows: interner entries (canonical pool
    /// and raw memo) and estimated bytes, QE-cache entries, estimated
    /// bytes, per-shard peak occupancy and shard capacity, plus the
    /// process-global flight-recorder occupancy rows (events
    /// recorded/dropped, ring capacity, per-thread root-ring fill % and
    /// drop counts). The rows feed [`trace::EvalReport::with_gauges`]
    /// and a [`trace::TelemetryRegistry`]'s `set_gauge`; sampling is one
    /// pass over the tables with no solver work.
    #[must_use]
    pub fn gauges(&self) -> Vec<(String, u64)> {
        let occupancy = self.qe_cache.shard_occupancy();
        let peak = occupancy.iter().copied().max().unwrap_or(0);
        let mut rows = vec![
            ("interner_entries".to_string(), self.interner.len() as u64),
            ("interner_raw_entries".to_string(), self.interner.raw_len() as u64),
            ("interner_bytes".to_string(), self.interner.bytes_estimate() as u64),
            ("qe_cache_entries".to_string(), self.qe_cache.len() as u64),
            ("qe_cache_bytes".to_string(), self.qe_cache.bytes_estimate() as u64),
            ("qe_cache_shard_peak".to_string(), peak as u64),
            ("qe_cache_shard_capacity".to_string(), self.qe_cache.shard_capacity() as u64),
        ];
        rows.extend(trace::recorder::gauges());
        rows
    }

    /// `∃ var. conj` through the engine's QE memo cache (a direct theory
    /// call under [`JoinMode::Exhaustive`]). All evaluator QE
    /// goes through here, so fixpoint rounds that re-derive a
    /// conjunction skip the solver entirely on the repeat.
    ///
    /// # Errors
    /// Propagates theory errors (which are never cached).
    pub fn eliminate_cached(
        &self,
        conj: &[T::Constraint],
        var: Var,
    ) -> Result<Vec<Vec<T::Constraint>>> {
        if self.policy.join.filters() {
            self.qe_cache.eliminate(conj, var)
        } else {
            T::eliminate(conj, var)
        }
    }
}
