//! Static analysis of Datalog programs: linearity (the §3.3 NC
//! precondition), the predicate dependency graph, and stratification
//! (the classical alternative to inflationary negation that §3.3's
//! closing remark alludes to).

use crate::datalog::ast::{Literal, Program};
use crate::datalog::symbolic::{fixpoint, FixpointOptions, FixpointResult, Strategy};
use cql_core::error::{CqlError, Result};
use cql_core::relation::Database;
use cql_core::theory::Theory;
use std::collections::{BTreeMap, BTreeSet};

/// Strongly connected components of the predicate dependency graph
/// (edges head → body predicate), in reverse topological order
/// (dependencies first).
#[must_use]
pub fn predicate_sccs<T: Theory>(program: &Program<T>) -> Vec<BTreeSet<String>> {
    // Collect nodes and edges.
    let mut nodes: BTreeSet<String> = BTreeSet::new();
    let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for rule in &program.rules {
        nodes.insert(rule.head.relation.clone());
        for lit in &rule.body {
            if let Literal::Pos(a) | Literal::Neg(a) = lit {
                nodes.insert(a.relation.clone());
                edges.entry(rule.head.relation.clone()).or_default().insert(a.relation.clone());
            }
        }
    }
    // Tarjan's algorithm, iteratively indexed over a Vec.
    let names: Vec<String> = nodes.into_iter().collect();
    let index_of: BTreeMap<&str, usize> =
        names.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect();
    let succ: Vec<Vec<usize>> = names
        .iter()
        .map(|n| {
            edges
                .get(n)
                .map(|targets| targets.iter().map(|t| index_of[t.as_str()]).collect())
                .unwrap_or_default()
        })
        .collect();

    let n = names.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut counter = 0usize;
    let mut out: Vec<BTreeSet<String>> = Vec::new();

    #[allow(clippy::too_many_arguments)]
    fn strongconnect(
        v: usize,
        succ: &[Vec<usize>],
        index: &mut [usize],
        low: &mut [usize],
        on_stack: &mut [bool],
        stack: &mut Vec<usize>,
        counter: &mut usize,
        out: &mut Vec<BTreeSet<String>>,
        names: &[String],
    ) {
        index[v] = *counter;
        low[v] = *counter;
        *counter += 1;
        stack.push(v);
        on_stack[v] = true;
        for &w in &succ[v] {
            if index[w] == usize::MAX {
                strongconnect(w, succ, index, low, on_stack, stack, counter, out, names);
                low[v] = low[v].min(low[w]);
            } else if on_stack[w] {
                low[v] = low[v].min(index[w]);
            }
        }
        if low[v] == index[v] {
            let mut scc = BTreeSet::new();
            while let Some(w) = stack.pop() {
                on_stack[w] = false;
                scc.insert(names[w].clone());
                if w == v {
                    break;
                }
            }
            out.push(scc);
        }
    }

    for v in 0..n {
        if index[v] == usize::MAX {
            strongconnect(
                v,
                &succ,
                &mut index,
                &mut low,
                &mut on_stack,
                &mut stack,
                &mut counter,
                &mut out,
                &names,
            );
        }
    }
    out
}

/// Is the program **piecewise linear** (Ullman–Van Gelder, the paper's
/// \[55\])? Every rule has at most one body atom mutually recursive with
/// its head. Piecewise linear programs have the (generalized) polynomial
/// fringe property, hence NC evaluation (Theorem 3.21).
#[must_use]
pub fn is_piecewise_linear<T: Theory>(program: &Program<T>) -> bool {
    let sccs = predicate_sccs(program);
    let scc_of = |name: &str| -> usize {
        sccs.iter().position(|scc| scc.contains(name)).unwrap_or(usize::MAX)
    };
    program.rules.iter().all(|rule| {
        let head_scc = scc_of(&rule.head.relation);
        let recursive_atoms = rule
            .body
            .iter()
            .filter(|lit| match lit {
                Literal::Pos(a) | Literal::Neg(a) => scc_of(&a.relation) == head_scc,
                Literal::Constraint(_) => false,
            })
            .count();
        recursive_atoms <= 1
    })
}

/// Assign each IDB predicate a stratum such that positive dependencies
/// stay within or below, and negative dependencies point strictly below.
///
/// # Errors
/// `CqlError::Malformed` if negation crosses a recursive cycle (the
/// program is not stratifiable).
pub fn stratify<T: Theory>(program: &Program<T>) -> Result<Vec<BTreeSet<String>>> {
    let idb = program.idb_predicates();
    let sccs = predicate_sccs(program);
    let scc_of = |name: &str| -> Option<usize> { sccs.iter().position(|scc| scc.contains(name)) };
    // Negation within an SCC is unstratifiable.
    for rule in &program.rules {
        let head_scc = scc_of(&rule.head.relation);
        for lit in &rule.body {
            if let Literal::Neg(a) = lit {
                if idb.contains(&a.relation) && scc_of(&a.relation) == head_scc {
                    return Err(CqlError::Malformed(format!(
                        "negation of `{}` inside its own recursive component: not stratifiable",
                        a.relation
                    )));
                }
            }
        }
    }
    // Tarjan emits SCCs dependencies-first, which is exactly stratum
    // order; keep only those containing IDB predicates.
    Ok(sccs
        .into_iter()
        .map(|scc| scc.intersection(&idb).cloned().collect::<BTreeSet<_>>())
        .filter(|scc: &BTreeSet<String>| !scc.is_empty())
        .collect())
}

/// Evaluate a stratified Datalog¬ program: strata bottom-up, each to its
/// own fixpoint, with negated atoms reading the *completed* lower strata
/// — the classical semantics, complementing the paper's inflationary one.
///
/// Every stratum runs through [`fixpoint`] on one shared engine built
/// from `opts` (so the IDB relations carry `opts.policy`), with the
/// completed lower strata added to its EDB. The result lists each
/// stratum's rounds in turn.
///
/// # Errors
/// Stratification errors, plus everything [`fixpoint`] can return.
pub fn stratified<T: Theory>(
    program: &Program<T>,
    edb: &Database<T>,
    opts: &FixpointOptions,
) -> Result<FixpointResult<T>> {
    program.validate(edb, true)?;
    let engine = opts.engine();
    let mut lower = edb.clone();
    let mut idb: Database<T> = Database::new();
    let (mut rounds, mut plans) = (Vec::new(), Vec::new());
    for stratum in &stratify(program)? {
        let rules: Vec<_> =
            program.rules.iter().filter(|r| stratum.contains(&r.head.relation)).cloned().collect();
        let result = fixpoint(&engine, &Program::new(rules), &lower, opts, Strategy::Inflationary)?;
        for (name, rel) in result.idb.iter() {
            lower.insert(name.to_string(), rel.clone());
            idb.insert(name.to_string(), rel.clone());
        }
        rounds.extend(result.rounds);
        plans.extend(result.plans);
    }
    Ok(FixpointResult { idb, iterations: rounds.len(), rounds, plans })
}

#[cfg(test)]
mod tests {
    // Exercised via the dense-theory integration tests (a concrete theory
    // is needed to build programs); see crates/dense/tests/analysis.rs.
}
