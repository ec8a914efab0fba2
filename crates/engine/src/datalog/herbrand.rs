//! Generalized naive evaluation over cells — the constraint-logic-
//! programming machinery of §3.2 of the paper, generically over any
//! [`CellTheory`].
//!
//! A *generalized IDB Herbrand atom* (Definition 3.16) is a predicate
//! symbol plus a cell (r-configuration / e-configuration) on its argument
//! variables. The `T_P` operator (Definition 3.18) fires a rule by
//! choosing a cell ξ over the rule's variables, checking `F(ξ) → C` for
//! the rule constraints (at a sample point, justified by Lemmas 3.9/3.10),
//! checking each body atom on the projection of ξ, and deriving the head
//! atom as the projection of ξ onto the head variables.
//!
//! Iterating `T_P` from empty IDBs yields the least model `L_P`
//! (Theorem 3.19); soundness and completeness against point-wise naive
//! evaluation is Theorem 3.20, which the integration tests check by
//! sampling. [`cell_parallel`] fires every candidate in every round
//! concurrently, realizing the §3.3 observation that parallel rounds =
//! minimum generalized-derivation-tree depth.

use crate::datalog::ast::{Literal, Program};
use crate::datalog::symbolic::{FixpointOptions, FixpointResult};
use crate::executor::Executor;
use cql_core::error::{CqlError, Result};
use cql_core::relation::{dedup_values, Database, GenRelation, GenTuple};
use cql_core::theory::CellTheory;
use std::collections::{BTreeMap, HashMap};

/// A body check that must be re-evaluated every round (IDB membership).
#[derive(Clone, Debug)]
struct IdbCheck<T: CellTheory> {
    relation: String,
    /// Projection of the rule cell onto the atom's variables.
    cell: T::Cell,
    /// `true` for a positive literal, `false` for a negated one.
    positive: bool,
}

/// A pre-filtered rule firing candidate: a rule cell that already passes
/// all constraints and all EDB atom checks, so each round only needs the
/// IDB membership tests.
#[derive(Clone, Debug)]
struct Candidate<T: CellTheory> {
    head_relation: usize,
    head_cell: T::Cell,
    idb_checks: Vec<IdbCheck<T>>,
    /// EDB body atoms (each a leaf of the derivation tree).
    edb_leaves: usize,
}

/// Derivation statistics for the fringe analysis of §3.3.
#[derive(Clone, Debug, Default)]
pub struct DerivationStats {
    /// Maximum depth over all derived atoms of a minimum-depth
    /// generalized derivation tree (= number of parallel rounds needed).
    pub max_depth: usize,
    /// Maximum number of leaves over all derived atoms of the derivation
    /// tree recorded at first derivation (the "fringe").
    pub max_fringe: usize,
    /// Total generalized Herbrand atoms derived.
    pub atoms_derived: usize,
}

/// Result of a cell-based fixpoint.
#[derive(Clone, Debug)]
pub struct CellFixpointResult<T: CellTheory> {
    /// IDB relations, converted back to generalized relations
    /// (disjunctions of cell formulas `F(ξ)`).
    pub idb: Database<T>,
    /// Rounds executed.
    pub iterations: usize,
    /// Derivation-tree statistics.
    pub stats: DerivationStats,
}

impl<T: CellTheory> CellFixpointResult<T> {
    /// View as a plain [`FixpointResult`] (without per-round telemetry).
    #[must_use]
    pub fn into_fixpoint(self) -> FixpointResult<T> {
        FixpointResult {
            idb: self.idb,
            iterations: self.iterations,
            rounds: Vec::new(),
            plans: Vec::new(),
        }
    }
}

struct Prepared<T: CellTheory> {
    idb_names: Vec<String>,
    arities: BTreeMap<String, usize>,
    candidates: Vec<Candidate<T>>,
}

fn prepare<T: CellTheory>(
    program: &Program<T>,
    edb: &Database<T>,
    allow_negation: bool,
) -> Result<Prepared<T>> {
    program.validate(edb, allow_negation)?;
    let arities = program.arities()?;
    let idb_set = program.idb_predicates();
    let idb_names: Vec<String> = idb_set.iter().cloned().collect();
    let idb_index: BTreeMap<&str, usize> =
        idb_names.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect();

    let mut constants = edb.constants();
    constants.extend(program.constants());
    dedup_values(&mut constants);

    let mut candidates = Vec::new();
    for rule in &program.rules {
        let n = rule.var_count();
        'cells: for cell in T::cells(&constants, n) {
            let sample = T::cell_sample(&cell, &constants);
            let mut idb_checks = Vec::new();
            let mut edb_leaves = 0usize;
            for lit in &rule.body {
                match lit {
                    Literal::Constraint(c) => {
                        if !T::eval(c, &sample) {
                            continue 'cells;
                        }
                    }
                    Literal::Pos(a) | Literal::Neg(a) => {
                        let positive = matches!(lit, Literal::Pos(_));
                        if let Some(&idx) = idb_index.get(a.relation.as_str()) {
                            let _ = idx;
                            idb_checks.push(IdbCheck {
                                relation: a.relation.clone(),
                                cell: T::cell_project(&cell, &a.vars),
                                positive,
                            });
                        } else {
                            let rel = edb.require(&a.relation)?;
                            let point: Vec<T::Value> =
                                a.vars.iter().map(|&v| sample[v].clone()).collect();
                            if rel.satisfied_by(&point) != positive {
                                continue 'cells;
                            }
                            if positive {
                                edb_leaves += 1;
                            }
                        }
                    }
                }
            }
            candidates.push(Candidate {
                head_relation: idb_index[rule.head.relation.as_str()],
                head_cell: T::cell_project(&cell, &rule.head.vars),
                idb_checks,
                edb_leaves,
            });
        }
    }
    Ok(Prepared { idb_names, arities, candidates })
}

type CellInstance<T> = Vec<HashMap<<T as CellTheory>::Cell, (usize, usize)>>;

fn candidate_fires<T: CellTheory>(
    cand: &Candidate<T>,
    instance: &CellInstance<T>,
    idb_index: &BTreeMap<&str, usize>,
) -> Option<(usize, usize)> {
    // Returns (depth, fringe) if all checks pass: depth is the max child
    // depth, fringe counts the derivation tree's leaves — EDB body atoms
    // plus the leaves of every IDB child.
    let mut depth = 0usize;
    let mut fringe = cand.edb_leaves;
    for check in &cand.idb_checks {
        let set = &instance[idb_index[check.relation.as_str()]];
        match (set.get(&check.cell), check.positive) {
            (Some(&(d, f)), true) => {
                depth = depth.max(d);
                fringe += f;
            }
            (None, false) => {}
            (Some(_), false) | (None, true) => return None,
        }
    }
    Some((depth, fringe.max(1)))
}

fn finish<T: CellTheory>(
    prepared: &Prepared<T>,
    instance: CellInstance<T>,
    iterations: usize,
) -> CellFixpointResult<T> {
    let mut stats = DerivationStats::default();
    let mut idb = Database::new();
    for (i, name) in prepared.idb_names.iter().enumerate() {
        let mut rel = GenRelation::empty(prepared.arities[name]);
        for (cell, &(depth, fringe)) in &instance[i] {
            stats.max_depth = stats.max_depth.max(depth);
            stats.max_fringe = stats.max_fringe.max(fringe);
            stats.atoms_derived += 1;
            if let Some(t) = GenTuple::new(T::cell_formula(cell)) {
                rel.insert(t);
            }
        }
        idb.insert(name.clone(), rel);
    }
    CellFixpointResult { idb, iterations, stats }
}

fn run_rounds<T: CellTheory>(
    prepared: &Prepared<T>,
    opts: &FixpointOptions,
    executor: &Executor,
) -> Result<CellFixpointResult<T>> {
    let idb_index: BTreeMap<&str, usize> =
        prepared.idb_names.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect();
    let mut instance: CellInstance<T> = vec![HashMap::new(); prepared.idb_names.len()];
    let mut iterations = 0usize;
    loop {
        if iterations >= opts.max_iterations {
            return Err(CqlError::NotClosed {
                reason: "cell fixpoint iteration budget exhausted".into(),
                iterations,
            });
        }
        cql_trace::count(cql_trace::Counter::FixpointRounds, 1);
        let round_start = std::time::Instant::now();
        let _round_span = cql_trace::span("herbrand.round", "round");
        // Round-based T_P: every candidate fires against the frozen stage
        // (on the unified executor — one scoped thread per chunk; §3.3's
        // parallel-rounds observation).
        let fired = executor.map((0..prepared.candidates.len()).collect(), |i| {
            let cand = &prepared.candidates[i];
            candidate_fires(cand, &instance, &idb_index)
                .map(|(d, f)| (cand.head_relation, cand.head_cell.clone(), d + 1, f))
        });
        let derived: Vec<(usize, T::Cell, usize, usize)> = fired.into_iter().flatten().collect();
        let mut changed = false;
        for (rel_idx, cell, depth, fringe) in derived {
            if let std::collections::hash_map::Entry::Vacant(e) = instance[rel_idx].entry(cell) {
                e.insert((depth, fringe));
                changed = true;
            }
        }
        iterations += 1;
        cql_trace::record_hist(
            cql_trace::hist::FIXPOINT_ROUND_NS,
            u64::try_from(round_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        if !changed {
            return Ok(finish(prepared, instance, iterations));
        }
        let total: usize = instance.iter().map(HashMap::len).sum();
        if total > opts.max_tuples {
            return Err(CqlError::NotClosed {
                reason: format!("cell instance grew past {} atoms", opts.max_tuples),
                iterations,
            });
        }
    }
}

/// Generalized naive evaluation of a positive Datalog program over cells.
///
/// # Errors
/// Validation errors or `NotClosed` if the budget is exhausted (which for
/// cell theories indicates a budget too small — the cell space is finite).
pub fn cell_naive<T: CellTheory>(
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
) -> Result<CellFixpointResult<T>> {
    let prepared = prepare(program, edb, false)?;
    run_rounds(&prepared, opts, &Executor::new(opts.threads))
}

/// Inflationary Datalog¬ over cells: negated atoms test membership in the
/// frozen current stage; complementation is free in cell space.
///
/// # Errors
/// As [`cell_naive`].
pub fn cell_inflationary<T: CellTheory>(
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
) -> Result<CellFixpointResult<T>> {
    let prepared = prepare(program, edb, true)?;
    run_rounds(&prepared, opts, &Executor::new(opts.threads))
}

/// Parallel generalized naive evaluation: all candidate firings of a round
/// run concurrently on `threads` workers (§3.3). The number of rounds is
/// the maximum depth of a minimum-depth generalized derivation tree.
///
/// # Errors
/// As [`cell_naive`].
pub fn cell_parallel<T: CellTheory>(
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
    threads: usize,
) -> Result<CellFixpointResult<T>> {
    let prepared = prepare(program, edb, true)?;
    run_rounds(&prepared, opts, &Executor::new(threads.max(1)))
}
