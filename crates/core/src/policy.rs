//! Tuning knobs shared by the data model and the evaluation engine.
//!
//! The seed implementation hard-coded a silent cutoff: past 48 tuples,
//! [`crate::GenRelation::insert`] stopped running subsumption compression
//! altogether. That constant is gone; compression behaviour is now an
//! explicit, documented [`EnginePolicy`] carried by every relation (and by
//! the engine context that creates relations during evaluation).

/// How [`crate::GenRelation::insert`] compresses the DNF representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubsumptionMode {
    /// Only exact canonical duplicates are dropped. O(1) per insert; the
    /// representation may keep tuples entailed by other tuples.
    DedupOnly,
    /// The seed behaviour without its size cutoff: every insert scans all
    /// stored tuples with [`crate::Theory::entails`] in both directions.
    /// O(n) entailment checks per insert — the baseline the indexed store
    /// is measured against.
    Quadratic,
    /// The indexed store: tuples are bucketed per column by the closed
    /// hull of their [`crate::summary::ConstraintSummary::range`], an
    /// insert considers only stored tuples whose hull meets its own in
    /// its most selective ranged column, and those candidates are pruned
    /// by a [`crate::Theory::signature`] bitmask-subset test and by
    /// cached sample points before any [`crate::Theory::entails`] call.
    /// Same final relation as [`SubsumptionMode::Quadratic`] (the filters
    /// are sound, never merely heuristic), with far fewer entailment
    /// checks.
    Indexed,
    /// [`SubsumptionMode::Indexed`] while the relation holds at most this
    /// many tuples, then [`SubsumptionMode::DedupOnly`]. An explicit,
    /// documented version of the seed's silent cutoff for workloads (huge
    /// intermediate joins) where even indexed compression is not worth it.
    IndexedUpTo(usize),
}

/// Policy block consulted by [`crate::GenRelation`] and the evaluation
/// engine. Construct with [`EnginePolicy::default`] and override fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnginePolicy {
    /// Subsumption compression mode (default [`SubsumptionMode::Indexed`]).
    pub subsumption: SubsumptionMode,
    /// Summary-pruned joins (default `true`): algebra products/joins and
    /// Datalog rule firings probe a per-relation summary index
    /// ([`crate::summary::ConstraintSummary`]) and conjoin only candidate
    /// pairs whose summaries may intersect. Sound — pruned pairs are
    /// provably jointly unsatisfiable — so turning this off changes wall
    /// time and counters, never results.
    pub join_pruning: bool,
    /// The engine's bounded quantifier-elimination memo cache (default
    /// `true`): repeated eliminations of the same conjunction × variable
    /// across rounds and rules skip the solver. Results are identical
    /// with the cache off.
    pub qe_cache: bool,
    /// Variable-at-a-time multiway rule-body joins (default `true`):
    /// Datalog rule firings with ≥2 relational body atoms build one
    /// summary level per (atom, variable) and leapfrog-intersect them,
    /// so the solver canonicalizes one conjunction per *surviving full
    /// combination* instead of one per intermediate pair. Sound and
    /// complete — same results as the binary `conjoin_atom` fold, with
    /// far fewer solver-visible calls on 3+-atom bodies.
    pub multiway_join: bool,
    /// Below this many intermediate conjunctions, per-variable QE and
    /// head-rename batches in rule firing run serially instead of being
    /// dispatched through the executor (default 16): single-digit
    /// batches pay more in dispatch bookkeeping than a worker could
    /// recover. Results are identical either way.
    pub serial_batch_threshold: usize,
}

impl Default for EnginePolicy {
    fn default() -> EnginePolicy {
        EnginePolicy {
            subsumption: SubsumptionMode::Indexed,
            join_pruning: true,
            qe_cache: true,
            multiway_join: true,
            serial_batch_threshold: 16,
        }
    }
}

impl EnginePolicy {
    /// Policy with the given subsumption mode (other knobs at default).
    #[must_use]
    pub fn with_subsumption(subsumption: SubsumptionMode) -> EnginePolicy {
        EnginePolicy { subsumption, ..EnginePolicy::default() }
    }

    /// This policy with filter-before-solve (summary pruning and the QE
    /// cache) switched on or off together — the E16 A/B knob. Also turns
    /// the multiway join off: exhaustive mode means the plain binary
    /// fold with no summary consultation at all.
    #[must_use]
    pub fn with_filtering(self, on: bool) -> EnginePolicy {
        EnginePolicy { join_pruning: on, qe_cache: on, multiway_join: on, ..self }
    }

    /// This policy with the variable-at-a-time multiway join switched on
    /// or off — the E17 A/B knob. With it off (and `join_pruning` still
    /// on) rule bodies fall back to the binary-pruned `conjoin_atom`
    /// fold. Results are identical either way.
    #[must_use]
    pub fn with_multiway(self, on: bool) -> EnginePolicy {
        EnginePolicy { multiway_join: on, ..self }
    }
}
