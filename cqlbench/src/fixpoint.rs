//! The `fixpoint_batch` workload: repeated batch semi-naive evaluation,
//! single-threaded, with no server in the way.

use crate::inputs::{self, Rng};
use crate::report::Outcome;
use crate::spans::{self, SpanBuilder};
use crate::stats;
use crate::Config;
use cql_core::relation::Database;
use cql_dense::Dense;
use cql_engine::datalog::{self, FixpointOptions, FixpointResult, Program};
use cql_engine::trace::{hist, Counter, MetricsScope};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const SETUPS: usize = 201;

/// The tail percentile of a repetition: the highest that about 45
/// repetitions in a 20 s window support.
const TAIL_PCT: u64 = 75;

/// Repetitions measured even if the window runs out first, so that a
/// slow machine still yields a tail the percentile guard accepts.
const MIN_REPS: usize = 4 * stats::MIN_BEYOND;

struct Inputs {
    tc: Program<Dense>,
    tc_edb: Database<Dense>,
    pj: Program<Dense>,
    pj_edb: Database<Dense>,
}

/// Build both programs and their EDBs, the chains inserted in the
/// seed's order.
fn build(tc_order: &[i64], pj_order: &[i64], wedge: i64) -> Inputs {
    let mut tc_edb = Database::new();
    tc_edb.insert("E", inputs::chain(tc_order));
    Inputs {
        tc: inputs::tc_program(),
        tc_edb,
        pj: inputs::path_join_program(),
        pj_edb: inputs::path_join_edb(pj_order, wedge),
    }
}

/// Does every IDB relation named in `expected` hold exactly its closed
/// form?
fn check(
    result: &cql_core::error::Result<FixpointResult<Dense>>,
    expected: &[(&str, BTreeSet<(i64, i64)>)],
) -> Result<(), String> {
    let idb = &result.as_ref().map_err(|e| e.to_string())?.idb;
    for (name, points) in expected {
        if !idb.get(name).is_some_and(|rel| inputs::holds_exactly(rel, points)) {
            return Err(format!("`{name}` differs from its closed form ({} points)", points.len()));
        }
    }
    Ok(())
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let sizes = cfg.sizes;
    let mut rng = Rng::new(cfg.seed, 0);
    let tc_order = inputs::shuffled(sizes.tc_chain, &mut rng);
    let pj_order = inputs::shuffled(sizes.pj_chain, &mut rng);
    // Building the inputs takes milliseconds, so it is repeated more
    // often than the serving set-up to give a steady median.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        built = Some(build(&tc_order, &pj_order, sizes.wedge));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let input = built.expect("at least one set-up");
    let tc_expected = [("T", inputs::closure(sizes.tc_chain))];
    let pj_expected = inputs::path_join_expected(sizes.pj_chain, sizes.wedge);
    let opts = FixpointOptions { threads: 1, ..FixpointOptions::default() };

    let mut out = Outcome::default();
    let origin = Instant::now();
    let warm_end = origin + Duration::from_secs_f64(cfg.warmup);
    let end = warm_end + Duration::from_secs_f64(cfg.seconds);
    let tid = spans::tid();
    let mut scope = None;
    let (mut reps_ns, mut tc_ns, mut pj_ns) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let start = Instant::now();
        if start >= end && reps_ns.len() >= MIN_REPS {
            break;
        }
        let measured = start >= warm_end;
        if measured && cfg.trace && scope.is_none() {
            scope = Some(MetricsScope::enter("cqlbench.fixpoint"));
        }
        let tc = datalog::seminaive(&input.tc, &input.tc_edb, &opts);
        let tc_done = Instant::now();
        let pj = datalog::seminaive(&input.pj, &input.pj_edb, &opts);
        let done = Instant::now();
        for (what, verdict) in
            [("tc", check(&tc, &tc_expected)), ("path-join", check(&pj, &pj_expected))]
        {
            if let Err(e) = verdict {
                out.wrong(measured, format!("{what}: {e}"));
            }
        }
        if !measured {
            continue;
        }
        out.attempted += 1;
        reps_ns.push((done - start).as_nanos() as u64);
        tc_ns.push((tc_done - start).as_nanos() as u64);
        pj_ns.push((done - tc_done).as_nanos() as u64);
        if cfg.trace {
            let mut b = SpanBuilder::new(origin, reps_ns.len() as u64, &mut out.spans);
            let rep = b.add("fixpoint.rep", 0, tid, start, done);
            b.add("fixpoint.tc", rep, tid, start, tc_done);
            b.add("fixpoint.pathjoin", rep, tid, tc_done, done);
        }
    }

    // Repetitions per second of evaluation: the oracle's checks between
    // repetitions are the benchmark's own work and stay off the clock.
    let reps = reps_ns.len() as u64;
    let busy_s = reps_ns.iter().sum::<u64>() as f64 / 1e9;
    if busy_s > 0.0 {
        out.set("throughput_per_s", reps as f64 / busy_s, reps);
    }
    out.percentile("latency_p50_ms", &reps_ns, 50);
    out.percentile("latency_tail_ms", &reps_ns, TAIL_PCT);
    out.set("setup_s", stats::median(&setup_s), setup_s.len() as u64);
    out.percentile("fixpoint.tc_s.p50", &tc_ns, 50);
    out.percentile("fixpoint.pathjoin_s.p50", &pj_ns, 50);
    if let Some(scope) = scope {
        let snap = scope.snapshot();
        for (name, counter) in [
            ("fixpoint.rounds", Counter::FixpointRounds),
            ("fixpoint.qe_calls", Counter::QeCalls),
            ("fixpoint.entailment_checks", Counter::EntailmentChecks),
            ("fixpoint.tuples_inserted", Counter::TuplesInserted),
            ("fixpoint.tuples_subsumed", Counter::TuplesSubsumed),
        ] {
            out.ratio(name, snap.get(counter) as f64, reps);
        }
        let qe_ns = snap.hists.get(hist::QE_CALL_NS).map_or(0, |h| h.sum());
        out.ratio("fixpoint.qe_ms", qe_ns as f64 / 1e6, reps);
        let round = stats::hist_percentile(snap.hists.get(hist::FIXPOINT_ROUND_NS), 50);
        let rounds = snap.hists.get(hist::FIXPOINT_ROUND_NS).map_or(0, |h| h.count());
        out.put("fixpoint.round_ms.p50", round.map(|ns| ns as f64 / 1e6), rounds);
        out.engine_layers(&snap, reps);
    }
    Ok(out)
}
