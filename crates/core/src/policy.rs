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
}

/// How joins enumerate candidate combinations: the one evaluation knob
/// besides [`SubsumptionMode`]. Every mode computes the same results;
/// they differ in wall time and counters, which is what the E16/E17
/// ablations measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinMode {
    /// The default. Algebra products/joins/selections probe a summary
    /// index ([`crate::summary::ConstraintSummary`]) and conjoin only
    /// pairs whose summaries may intersect, quantifier elimination goes
    /// through the engine's memo cache, and every Datalog rule body fires
    /// through the variable-at-a-time multiway join: one summary level
    /// per (atom, variable), leapfrog-intersected, so the solver
    /// canonicalizes one conjunction per surviving *full* combination.
    Multiway,
    /// Summary pruning and the QE cache as in [`JoinMode::Multiway`], but
    /// rule bodies fold their atoms left to right, canonicalizing every
    /// surviving intermediate pair (the E17 baseline).
    Binary,
    /// No summary consultation and no QE cache: the binary fold over
    /// every pair of disjuncts (the E16 baseline).
    Exhaustive,
}

impl JoinMode {
    /// Do summaries prune candidate pairs and is QE memoized? True for
    /// every mode but [`JoinMode::Exhaustive`]. Sound either way: pruned
    /// pairs are provably jointly unsatisfiable.
    #[must_use]
    pub fn filters(self) -> bool {
        self != JoinMode::Exhaustive
    }
}

/// Policy block consulted by [`crate::GenRelation`] and the evaluation
/// engine. Construct with [`EnginePolicy::default`] and override fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnginePolicy {
    /// Subsumption compression mode (default [`SubsumptionMode::Indexed`]).
    pub subsumption: SubsumptionMode,
    /// Join enumeration (default [`JoinMode::Multiway`]).
    pub join: JoinMode,
}

impl Default for EnginePolicy {
    fn default() -> EnginePolicy {
        EnginePolicy { subsumption: SubsumptionMode::Indexed, join: JoinMode::Multiway }
    }
}

impl EnginePolicy {
    /// Policy with the given subsumption mode (other knobs at default).
    #[must_use]
    pub fn with_subsumption(subsumption: SubsumptionMode) -> EnginePolicy {
        EnginePolicy { subsumption, ..EnginePolicy::default() }
    }
}
