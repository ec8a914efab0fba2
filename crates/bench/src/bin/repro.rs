//! `repro` — regenerate the paper's tables and figures as text or JSON
//! reports, with optional evaluation tracing.
//!
//! ```sh
//! cargo run --release -p cql-bench --bin repro -- all
//! cargo run --release -p cql-bench --bin repro -- t1 e8 e13
//! cargo run --release -p cql-bench --bin repro -- --json e13
//! cargo run --release -p cql-bench --bin repro -- --trace e13 --json --selfcheck
//! ```
//!
//! Sections are addressed by experiment id (`f1`, `t1`, `f2`, `f3`,
//! `e4`–`e21`, `a1`–`a3`) or their legacy names (`fig1`, `table1`,
//! `containment`, `engine`, `recorder`, `server`, …). Flags:
//!
//! * `--json` — emit one machine-readable JSON document instead of text;
//! * `--trace` — switch the flight recorder to capture every span for
//!   the whole run and write its dump as a chrome `trace_event` file
//!   (loadable in Perfetto / `about://tracing`) to
//!   `target/repro-trace.json`;
//! * `--selfcheck` — after the run, re-parse everything emitted (JSON
//!   document, E13 EXPLAIN report, chrome-trace file, which must be
//!   complete: no recorder eviction during the run) and enforce the
//!   E16/E17 A/B invariants (equal results, solver-work reduction
//!   targets), exiting non-zero on any failure. Used by the CI smoke
//!   job.
//!
//! Each section corresponds to an experiment of DESIGN.md §4 and feeds
//! EXPERIMENTS.md. Wall-clock numbers vary by machine; the *shapes*
//! (scaling exponents, who wins, divergence vs convergence) are the
//! reproduction targets.

use cql_bench::emitter::{ms, Emitter};
use cql_bench::{
    chain_edb_dense, chain_edb_equality, compose_query_dense, compose_query_equality, gate,
    interval_relation, is_live_section, loglog_slope, path_join_program_dense, rat,
    tc_program_dense, tc_program_equality, timed,
};
use cql_core::{CalculusQuery, Database, Formula, GenRelation, GenTuple};
use cql_dense::{Dense, DenseConstraint};
use cql_engine::datalog::{self, FixpointOptions};
use cql_engine::{
    algebra, calculus, cells, Engine, Executor, MaterializedView, QueryServer, Runtime,
    ServerConfig,
};
use cql_index::{Backend, GeneralizedIndex};
use cql_trace::{
    chrome, expose, hist, histogram, json, recorder, span, watchdog, Counter, EvalReport,
    Histogram, Json, MetricsScope, RecorderConfig, SloBreach, SloRule, TelemetryRegistry,
    TelemetrySnapshot,
};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Milliseconds as a JSON-friendly number (3 decimal places).
fn ms_f(d: Duration) -> f64 {
    (d.as_secs_f64() * 1e6).round() / 1e3
}

/// F1 — Figure 1 pipeline.
fn fig1(em: &mut Emitter) {
    em.section("f1", "Figure 1: the CQL pipeline (closed form, bottom-up)");
    let db = chain_edb_dense(4);
    let q = compose_query_dense();
    let out = calculus::evaluate(&q, &db).unwrap();
    em.note("input E (4 generalized tuples) → φ(x,y) = ∃z E(x,z) ∧ E(z,y) →");
    for t in out.tuples() {
        em.note(&format!("  {t}"));
    }
    em.note("output is a generalized relation: closed form ✓");
    em.datum("output_tuples", out.len() as u64);
    let sentence = Formula::atom("E", vec![0, 1]).exists_all(&[0, 1]);
    let decided = cells::decide(&sentence, &db).unwrap();
    em.note(&format!("decide(∃x,y E(x,y)) = {decided}"));
    em.datum("decide_exists_edge", decided);
}

/// T1 — the §1.3 data-complexity table, measured.
fn table1(em: &mut Emitter) {
    em.section("t1", "§1.3 data-complexity table (measured scaling exponents)");
    em.note("fixed query, database size N doubling; reported: time per N and");
    em.note("the log-log slope (LOGSPACE/PTIME cells ⇒ small polynomial degree).\n");

    let mut rows: Vec<Vec<Json>> = Vec::new();
    let mut slopes: Vec<Vec<Json>> = Vec::new();
    let mut record = |theory: &str, series: &[(f64, f64)], rows: &mut Vec<Vec<Json>>| {
        for &(n, secs) in series {
            rows.push(vec![
                Json::from(theory),
                Json::from(n as u64),
                Json::from((secs * 1e6).round() / 1e3),
            ]);
        }
        slopes.push(vec![
            Json::from(theory),
            Json::from((loglog_slope(series) * 100.0).round() / 100.0),
        ]);
    };

    let mut series = Vec::new();
    for &n in &[16i64, 32, 64, 128] {
        let db = chain_edb_dense(n);
        let q = compose_query_dense();
        let (_, d) = timed(|| calculus::evaluate(&q, &db).unwrap());
        series.push((n as f64, d.as_secs_f64().max(1e-9)));
    }
    record("RC + dense order", &series, &mut rows);

    let mut series = Vec::new();
    for &n in &[16i64, 32, 64, 128] {
        let db = chain_edb_equality(n);
        let q = compose_query_equality();
        let (_, d) = timed(|| calculus::evaluate(&q, &db).unwrap());
        series.push((n as f64, d.as_secs_f64().max(1e-9)));
    }
    record("RC + equality", &series, &mut rows);

    let mut series = Vec::new();
    for &n in &[8usize, 16, 32, 64] {
        let rects = cql_geo::workload::random_rects(n, 8 * n as i64, 8, 1);
        let (_, d) = timed(|| cql_geo::rectangles::cql_intersections(&rects));
        series.push((n as f64, d.as_secs_f64().max(1e-9)));
    }
    record("RC + polynomial", &series, &mut rows);

    let mut series = Vec::new();
    for &n in &[8i64, 16, 32, 64] {
        let db = chain_edb_dense(n);
        let (_, d) =
            timed(|| datalog::seminaive(&tc_program_dense(), &db, &FixpointOptions::default()));
        series.push((n as f64, d.as_secs_f64().max(1e-9)));
    }
    record("Datalog + dense order", &series, &mut rows);

    let mut series = Vec::new();
    for &n in &[8i64, 16, 32, 64] {
        let db = chain_edb_equality(n);
        let (_, d) =
            timed(|| datalog::seminaive(&tc_program_equality(), &db, &FixpointOptions::default()));
        series.push((n as f64, d.as_secs_f64().max(1e-9)));
    }
    record("Datalog + equality", &series, &mut rows);

    em.table("series", &["theory", "N", "time ms"], &rows);
    em.note("");
    em.table("slopes", &["theory", "slope"], &slopes);

    // Datalog + polynomial: NOT closed (Example 1.12).
    let report = cql_poly::nonclosure::demonstrate(10);
    em.note(&format!(
        "\nDatalog + polynomial  NOT CLOSED — diverges; budget tripped after {} rounds\n  ({})",
        report.iterations, report.reason
    ));
    em.datum("datalog_poly_not_closed_after_rounds", report.iterations as u64);
}

/// F2 — Figure 2 / Example 1.1 rectangle intersection.
fn fig2(em: &mut Emitter) {
    em.section("f2", "Figure 2 / Example 1.1: rectangle intersection");
    let mut rows = Vec::new();
    for &n in &[16usize, 32, 64, 128] {
        let rects = cql_geo::workload::random_rects(n, 6 * n as i64, 10, 2026);
        let (a, t_cql) = timed(|| cql_geo::rectangles::cql_intersections(&rects));
        let (b, t_naive) = timed(|| cql_geo::rectangles::naive_intersections(&rects));
        let (c, t_sweep) = timed(|| cql_geo::rectangles::sweep_intersections(&rects));
        rows.push(vec![
            Json::from(n as u64),
            Json::from(a.len() as u64),
            Json::from(ms_f(t_cql)),
            Json::from(ms_f(t_naive)),
            Json::from(ms_f(t_sweep)),
            Json::from(a == b && b == c),
        ]);
    }
    em.table("rows", &["N", "pairs", "cql ms", "naive ms", "sweep ms", "agree"], &rows);
}

/// F3 — Figure 3 / Example 2.4 checkbook.
fn fig3(em: &mut Emitter) {
    em.section("f3", "Figure 3 / Example 2.4: balanced checkbook");
    let q = cql_tableau::checkbook::balanced_checkbook();
    em.note(&format!("{q}"));
    let mut rows = Vec::new();
    for &n in &[100usize, 400, 1600] {
        let db = cql_tableau::checkbook::checkbook_database(n);
        let (out, d) = timed(|| q.evaluate(&db));
        rows.push(vec![Json::from(n as u64), Json::from(out.len() as u64), Json::from(ms_f(d))]);
    }
    em.table("rows", &["users", "balanced", "eval ms"], &rows);
}

/// E4/E5 — containment decisions.
fn containment(em: &mut Emitter) {
    em.section("e4", "Theorem 2.6: NP containment with linear equations");
    use cql_tableau::tableau::{Entry, TableauBuilder};
    let mut rows = Vec::new();
    for &nrows in &[2usize, 3, 4, 5, 6] {
        // q1: a length-`nrows` R-path with a telescoping sum equation.
        let names: Vec<&'static str> = vec!["a", "b", "c", "d", "e", "f", "g"];
        let mut b1 = TableauBuilder::new(vec![Entry::Var(names[0])]);
        for i in 0..nrows {
            b1 = b1.row("R", vec![Entry::Var(names[i]), Entry::Var(names[i + 1])]);
        }
        let q1 = b1.equation(vec![(names[0], rat(1)), (names[nrows], rat(-1))], rat(0)).build();
        let mut b2 = TableauBuilder::new(vec![Entry::Var("u")]);
        for _ in 0..nrows {
            b2 = b2.row("R", vec![Entry::Var("u"), Entry::Blank]);
        }
        let q2 = b2.build();
        let mappings = cql_tableau::containment::symbol_mappings(&q1, &q2).len();
        let (result, d) = timed(|| cql_tableau::contained_linear(&q1, &q2));
        rows.push(vec![
            Json::from(nrows as u64),
            Json::from(mappings as u64),
            Json::from(ms_f(d)),
            Json::from(result),
        ]);
    }
    em.table("rows", &["rows", "mappings", "decide ms", "result"], &rows);

    em.section("e5", "Theorem 2.8: the homomorphism property fails (semiinterval)");
    let (q1, q2) = cql_tableau::order_tableau::theorem_2_8_queries();
    let contained = cql_tableau::contained_order(&q1, &q2);
    let hom = cql_tableau::has_homomorphism(&q1, &q2);
    em.note(&format!("q1 ⊆ q2 (Lemma 2.5 exact check): {contained}"));
    em.note(&format!("single homomorphism exists:      {hom}"));
    em.note(&format!("(the paper's point: {contained} vs {hom})"));
    em.datum("contained", contained);
    em.datum("homomorphism_exists", hom);
}

/// E6 — convex hull.
fn hull(em: &mut Emitter) {
    em.section("e6", "Example 2.1: convex hull — Floyd CQL (O(N⁴)) vs monotone chain");
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for &n in &[5usize, 6, 7, 8] {
        let points = cql_geo::workload::random_points(n, 40, 7);
        let (a, t_cql) = timed(|| cql_geo::hull::cql_hull(&points));
        let (b, t_chain) = timed(|| cql_geo::hull::monotone_chain_hull(&points));
        let sa: BTreeSet<_> = a.iter().collect();
        let sb: BTreeSet<_> = b.iter().collect();
        series.push((n as f64, t_cql.as_secs_f64().max(1e-9)));
        rows.push(vec![
            Json::from(n as u64),
            Json::from(a.len() as u64),
            Json::from(ms_f(t_cql)),
            Json::from(ms_f(t_chain)),
            Json::from(sa == sb),
        ]);
    }
    em.table("rows", &["N", "hull", "cql ms", "chain ms", "agree"], &rows);
    let slope = (loglog_slope(&series) * 100.0).round() / 100.0;
    em.note(&format!("CQL slope {slope:.2} (Floyd's method is ~N⁴)"));
    em.datum("cql_slope", slope);
}

/// E7 — Voronoi dual.
fn voronoi(em: &mut Emitter) {
    em.section("e7", "Example 2.2: Voronoi dual — CQL sentences vs exact baseline");
    let mut rows = Vec::new();
    for &n in &[5usize, 7, 9, 11] {
        let points = cql_geo::workload::random_points(n, 24, 13);
        let (a, t_cql) = timed(|| cql_geo::voronoi::cql_voronoi_dual(&points));
        let (b, t_base) = timed(|| cql_geo::voronoi::baseline_voronoi_dual(&points));
        rows.push(vec![
            Json::from(n as u64),
            Json::from(a.len() as u64),
            Json::from(ms_f(t_cql)),
            Json::from(ms_f(t_base)),
            Json::from(a == b),
        ]);
    }
    em.table("rows", &["N", "edges", "cql ms", "baseline ms", "agree"], &rows);
}

/// E8 — Datalog engines over dense order.
fn datalog_dense(em: &mut Emitter) {
    em.section("e8", "§3 Datalog + dense order: engines and derivation trees");
    let mut rows = Vec::new();
    for &n in &[6i64, 10, 14, 18] {
        let db = chain_edb_dense(n);
        let program = tc_program_dense();
        let opts = FixpointOptions::default();
        let (_, t_naive) = timed(|| datalog::naive(&program, &db, &opts).unwrap());
        let (_, t_semi) = timed(|| datalog::seminaive(&program, &db, &opts).unwrap());
        let (cell, t_cell) = timed(|| datalog::cell_naive(&program, &db, &opts).unwrap());
        let (_, t_par) = timed(|| datalog::cell_parallel(&program, &db, &opts, 4).unwrap());
        rows.push(vec![
            Json::from(n as u64),
            Json::from(ms_f(t_naive)),
            Json::from(ms_f(t_semi)),
            Json::from(ms_f(t_cell)),
            Json::from(ms_f(t_par)),
            Json::from(cell.stats.max_depth as u64),
            Json::from(cell.stats.max_fringe as u64),
        ]);
    }
    em.table(
        "rows",
        &["N", "naive ms", "seminaive ms", "cell ms", "cellpar4 ms", "depth", "fringe"],
        &rows,
    );
}

/// E9 — equality theory scaling.
fn equality(em: &mut Emitter) {
    em.section("e9", "§4 equality constraints: calculus and Datalog scaling");
    let mut rows = Vec::new();
    for &n in &[16i64, 32, 64, 128] {
        let db = chain_edb_equality(n);
        let q = compose_query_equality();
        let (_, t_rc) = timed(|| calculus::evaluate(&q, &db).unwrap());
        let (_, t_dl) = if n <= 64 {
            timed(|| {
                datalog::seminaive(&tc_program_equality(), &db, &FixpointOptions::default())
                    .map(|_| ())
                    .unwrap();
            })
        } else {
            ((), Duration::ZERO)
        };
        rows.push(vec![Json::from(n as u64), Json::from(ms_f(t_rc)), Json::from(ms_f(t_dl))]);
    }
    em.table("rows", &["N", "rc ms", "datalog ms"], &rows);
}

/// E10 — boolean Datalog.
fn boolean(em: &mut Emitter) {
    em.section("e10", "§5 boolean Datalog: adder chain and parity scaling");
    em.note("ripple adder (chained 1-bit adders via Boole's lemma):");
    let mut rows = Vec::new();
    for &bits in &[1usize, 2, 3, 4] {
        let (rel, d) = timed(|| cql_bool::programs::ripple_adder(bits).unwrap());
        let _ = rel;
        rows.push(vec![Json::from(bits as u64), Json::from(ms_f(d))]);
    }
    em.table("adder", &["bits", "derive ms"], &rows);
    em.note("\nrecursive parity program (generator count m = n + ⌈log n⌉ —");
    em.note("canonical forms grow exponentially in m, Theorem 5.6's bound):");
    let mut rows = Vec::new();
    for &n in &[2usize, 3, 4, 5] {
        let (_, d) = timed(|| cql_bool::programs::parity_program(n).unwrap());
        rows.push(vec![Json::from(n as u64), Json::from(ms_f(d))]);
    }
    em.table("parity", &["n", "derive ms"], &rows);
}

/// E11 — QBF hardness.
fn qbf(em: &mut Emitter) {
    em.section("e11", "Lemma 5.9 / Theorem 5.11: Π₂ᵖ hardness machinery");
    let mut checked = 0u64;
    let mut agreed = 0u64;
    for seed in 0..40 {
        let q = cql_bool::qbf::random_instance(3, 3, 4, seed);
        checked += 1;
        if q.brute_force() == q.via_free_algebra() {
            agreed += 1;
        }
    }
    em.note(&format!("brute force vs free-algebra solvability: {agreed}/{checked} agree"));
    em.datum("agree", agreed);
    em.datum("checked", checked);
    em.note("\nsolver time vs universal-variable count m (exponential shape):");
    let mut rows = Vec::new();
    for &m in &[4usize, 8, 12, 16] {
        let q = cql_bool::qbf::random_instance(3, m, 6, 7);
        let (_, d) = timed(|| q.via_free_algebra());
        rows.push(vec![Json::from(m as u64), Json::from(ms_f(d))]);
    }
    em.table("rows", &["m", "decide ms"], &rows);
}

/// E12 — generalized indexing.
fn index(em: &mut Emitter) {
    em.section("e12", "§1.1(3): generalized 1-d indexing — node accesses");
    let mut rows = Vec::new();
    for &n in &[256i64, 1024, 4096] {
        let rel = interval_relation(n);
        let qlo = rat(3 * n / 2);
        let qhi = rat(3 * n / 2 + 60);
        let mut row = Vec::new();
        let mut k = 0;
        for backend in [Backend::NaiveScan, Backend::IntervalTree, Backend::PrioritySearchTree] {
            let mut idx = GeneralizedIndex::build(&rel, 0, backend).unwrap();
            let out = idx.search(&qlo, &qhi); // force build
            k = out.len();
            idx.reset_accesses();
            let _ = idx.search(&qlo, &qhi);
            row.push(idx.accesses());
        }
        rows.push(vec![
            Json::from(n as u64),
            Json::from(k as u64),
            Json::from(row[0]),
            Json::from(row[1]),
            Json::from(row[2]),
        ]);
    }
    em.table("interval_search", &["N", "K", "naive scan", "interval tree", "pst"], &rows);
    em.note("\nB+-tree point-index cost model (log_B N height):");
    let mut rows = Vec::new();
    for &(n, b) in &[(1000i64, 8usize), (10_000, 8), (10_000, 32), (100_000, 32)] {
        let mut tree = cql_index::BPlusTree::new(b);
        for i in 0..n {
            tree.insert(rat(i), i as u64);
        }
        tree.reset_accesses();
        for q in 0..50 {
            let _ = tree.get(&rat(q * (n / 50)));
        }
        rows.push(vec![
            Json::from(n as u64),
            Json::from(b as u64),
            Json::from(tree.height() as u64),
            Json::from((tree.accesses() as f64 / 50.0 * 10.0).round() / 10.0),
        ]);
    }
    em.table("bplus_tree", &["N", "B", "height", "accesses per query"], &rows);
}

/// E13 — the indexed subsumption store, measured under scoped metrics,
/// plus the fixpoint EXPLAIN report.
fn engine_store(em: &mut Emitter) -> EvalReport {
    use cql_core::relation::{GenRelation, GenTuple};
    use cql_core::{EnginePolicy, SubsumptionMode};
    use cql_dense::DenseConstraint as C;

    em.section("e13", "engine: indexed subsumption store vs quadratic baseline");
    // The E8 workload's insert stream at N = 2^10: transitive-closure
    // tuples of a 64-node chain, emitted in ascending path length (the
    // order semi-naive derivation produces them), truncated to 2^10.
    let n_tuples = 1usize << 10;
    let nodes = 64i64;
    let mut stream: Vec<Vec<C>> = Vec::with_capacity(n_tuples);
    'fill: for dist in 1..nodes {
        for i in 0..nodes - dist {
            stream.push(vec![C::eq_const(0, i), C::eq_const(1, i + dist)]);
            if stream.len() == n_tuples {
                break 'fill;
            }
        }
    }
    // Per-mode scoped metrics: each run opens its own MetricsScope, so
    // the counters are exact regardless of what else the process does
    // (the old global reset()/snapshot() pair could not promise that).
    let run = |mode: SubsumptionMode, label: &str| {
        let scope = MetricsScope::enter(label);
        let (len, d) = timed(|| {
            let mut rel =
                GenRelation::<Dense>::with_policy(2, EnginePolicy::with_subsumption(mode));
            for conj in &stream {
                if let Some(t) = GenTuple::new(conj.clone()) {
                    rel.insert(t);
                }
            }
            rel.len()
        });
        (len, scope.snapshot(), d)
    };
    let (len_q, m_q, d_q) = run(SubsumptionMode::Quadratic, "e13.quadratic");
    let (len_i, m_i, d_i) = run(SubsumptionMode::Indexed, "e13.indexed");
    em.note(&format!("insert stream: {} TC tuples over a {nodes}-node chain\n", stream.len()));
    let mode_row = |name: &str, len: usize, m: &cql_trace::MetricsSnapshot, d: Duration| {
        vec![
            Json::from(name),
            Json::from(len as u64),
            Json::from(m.get(Counter::EntailmentChecks)),
            Json::from(m.get(Counter::SampleSkips)),
            Json::from(m.get(Counter::SignatureSkips)),
            Json::from(ms_f(d)),
        ]
    };
    em.table(
        "modes",
        &["mode", "tuples", "entails calls", "sample skips", "sig skips", "time ms"],
        &[mode_row("quadratic", len_q, &m_q, d_q), mode_row("indexed", len_i, &m_i, d_i)],
    );
    let checks_q = m_q.get(Counter::EntailmentChecks);
    let checks_i = m_i.get(Counter::EntailmentChecks);
    em.note(&format!(
        "\nsame relation: {} | strict entailment-check reduction: {} ({}x fewer)",
        len_q == len_i,
        checks_i < checks_q,
        checks_q.checked_div(checks_i).unwrap_or(checks_q)
    ));
    em.datum("same_relation", len_q == len_i);
    em.datum("entailment_reduction", checks_i < checks_q);

    // The EXPLAIN artifact: a traced semi-naive transitive-closure
    // fixpoint with per-round telemetry, scoped metrics and operator
    // timings assembled into an EvalReport.
    let n = 64i64;
    let db = chain_edb_dense(n);
    let program = tc_program_dense();
    let threads = Executor::from_env().threads();
    let opts = FixpointOptions { threads, ..Default::default() };
    let engine = opts.engine();
    let scope = MetricsScope::enter("e13.fixpoint");
    let start = Instant::now();
    let result =
        datalog::fixpoint(&engine, &program, &db, &opts, datalog::Strategy::SemiNaive).unwrap();
    let wall = start.elapsed();
    let snap = scope.snapshot();
    drop(scope);
    let report = EvalReport::from_snapshot(
        "T(x,y) :- E(x,y); T(x,y) :- T(x,z), E(z,y)  [semi-naive, 64-node chain]",
        "dense linear order",
        threads,
        &snap,
        result.rounds,
        result.idb.get("T").map_or(0, cql_core::GenRelation::len) as u64,
        u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
    )
    .with_plans(result.plans)
    .with_gauges(engine.gauges());
    em.note("");
    em.note(&report.render_text());
    em.datum("eval_report", report.to_json());
    report
}

/// E14 — the unified executor: thread scaling of the semi-naive fixpoint.
fn engine_threads(em: &mut Emitter) {
    em.section("e14", "engine: unified executor — parallel symbolic semi-naive");
    let n = 64i64;
    let db = chain_edb_dense(n);
    let program = tc_program_dense();
    em.note(&format!("transitive closure, {n}-node dense chain, semi-naive rounds:\n"));
    let mut rows = Vec::new();
    let mut times = Vec::new();
    for &threads in &[1usize, 2, 4] {
        let opts = FixpointOptions { threads, ..Default::default() };
        let (out, d) = timed(|| datalog::seminaive(&program, &db, &opts).unwrap());
        rows.push(vec![
            Json::from(threads as u64),
            Json::from(ms_f(d)),
            Json::from(out.idb.get("T").map_or(0, cql_core::GenRelation::len) as u64),
        ]);
        times.push((threads, d));
    }
    em.table("rows", &["threads", "time ms", "tuples"], &rows);
    let t1 = times[0].1.as_secs_f64();
    let t4 = times[2].1.as_secs_f64();
    let speedup = ((t1 / t4.max(1e-9)) * 100.0).round() / 100.0;
    em.note(&format!(
        "\n4-thread speedup over 1 thread: {speedup:.2}x (host has {} core(s) — \
         speedup > 1 requires a multi-core host)",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    ));
    em.datum("speedup_4_over_1", speedup);
}

/// E15 — telemetry overhead: the instrumented engine with telemetry
/// dormant vs actively scoped. Returns the measured overhead percent;
/// the selfcheck enforces the documented < 5% bound. "Dormant" covers
/// recorder-off: every span site pays the recorder's one relaxed load,
/// and this bound pins it.
fn overhead(em: &mut Emitter) -> f64 {
    em.section("e15", "telemetry overhead: dormant instrumentation vs scoped run");
    em.note("semi-naive TC fixpoint (32-node chain), best of 7 per configuration;");
    em.note("'dormant' = no MetricsScope, flight recorder off (the default");
    em.note("state — dormant span sites still pay the recorder's one relaxed");
    em.note("atomic load, and histogram recording is scope-only, so dormant");
    em.note("sites skip it too);");
    em.note("'scoped' = the whole run under a per-query MetricsScope, including");
    em.note("the latency histograms.\n");
    // The recorder is runtime-global state: pin it off so the dormant
    // bound measures exactly the off configuration, and restore it after
    // (`--trace` runs with it on).
    let prior = recorder::config();
    recorder::set_config(RecorderConfig::Off);
    let db = chain_edb_dense(32);
    let program = tc_program_dense();
    let opts = FixpointOptions::default();
    // Warm-up (allocator, page faults).
    let _ = datalog::seminaive(&program, &db, &opts).unwrap();
    let mut dormant = Duration::MAX;
    let mut scoped = Duration::MAX;
    for _ in 0..7 {
        let (_, d) = timed(|| datalog::seminaive(&program, &db, &opts).unwrap());
        dormant = dormant.min(d);
        let (_, d) = timed(|| {
            let _scope = MetricsScope::enter("e15.scoped");
            datalog::seminaive(&program, &db, &opts).unwrap()
        });
        scoped = scoped.min(d);
    }
    recorder::set_config(prior);
    let pct = ((scoped.as_secs_f64() / dormant.as_secs_f64().max(1e-12) - 1.0) * 1e4).round() / 1e2;
    em.table(
        "rows",
        &["config", "time ms"],
        &[
            vec![Json::from("dormant"), Json::from(ms_f(dormant))],
            vec![Json::from("scoped"), Json::from(ms_f(scoped))],
        ],
    );
    em.note(&format!("\noverhead: {pct:+.2}% (target: < 5%)"));
    em.datum("overhead_percent", pct);
    em.datum("within_target", pct < 5.0);
    pct
}

/// E16 — filter-before-solve: summary-pruned joins and the QE memo
/// cache, A/B on the transitive-closure fixpoint at 2^10 stream scale.
///
/// Returns `(same_results, reduction)` where `reduction` is the factor
/// by which filtering shrinks the solver-visible work (QE calls +
/// entailment checks, summed over both fixpoint engines). The selfcheck
/// enforces `same_results && reduction >= 2`.
fn filtering(em: &mut Emitter) -> (bool, f64) {
    use cql_core::{EnginePolicy, JoinMode};
    em.section("e16", "filter-before-solve: summary pruning and the QE memo cache");
    em.note("naive + semi-naive TC over the 48-node dense chain (2^10-scale:");
    em.note("1176 closure tuples). Policy A/B — 'off' hands every disjunct pair");
    em.note("to the solver and re-runs every QE; 'on' enumerates join pairs");
    em.note("through per-relation summary levels and memoizes QE. The");
    em.note("reproduction target is the deterministic counter reduction; wall");
    em.note("time on this workload is dominated by canonicalization either way.\n");

    let db = chain_edb_dense(48);
    let program = tc_program_dense();
    let run = |semi: bool, filtering: bool| {
        let opts = FixpointOptions {
            policy: EnginePolicy {
                join: if filtering { JoinMode::Multiway } else { JoinMode::Exhaustive },
                ..EnginePolicy::default()
            },
            ..FixpointOptions::default()
        };
        let scope = MetricsScope::enter(if filtering { "e16.on" } else { "e16.off" });
        let (tuples, d) = timed(|| {
            let out = if semi {
                datalog::seminaive(&program, &db, &opts).unwrap()
            } else {
                datalog::naive(&program, &db, &opts).unwrap()
            };
            out.idb.get("T").map_or(0, cql_core::GenRelation::len)
        });
        (tuples, scope.snapshot(), d)
    };

    let mut rows = Vec::new();
    let mut same_results = true;
    let mut solver_off = 0u64;
    let mut solver_on = 0u64;
    for (engine, semi) in [("naive", false), ("seminaive", true)] {
        let mut per_policy = Vec::new();
        for (policy, on) in [("off", false), ("on", true)] {
            let (tuples, m, d) = run(semi, on);
            let solver = m.get(Counter::QeCalls) + m.get(Counter::EntailmentChecks);
            *(if on { &mut solver_on } else { &mut solver_off }) += solver;
            per_policy.push(tuples);
            rows.push(vec![
                Json::from(engine),
                Json::from(policy),
                Json::from(tuples as u64),
                Json::from(m.get(Counter::QeCalls)),
                Json::from(m.get(Counter::EntailmentChecks)),
                Json::from(m.get(Counter::PruneCandidates) - m.get(Counter::PruneSurvivors)),
                Json::from(m.get(Counter::QeCacheHits)),
                Json::from(ms_f(d)),
            ]);
        }
        same_results &= per_policy[0] == per_policy[1];
    }
    em.table(
        "rows",
        &[
            "engine",
            "filtering",
            "tuples",
            "qe calls",
            "entails calls",
            "pruned pairs",
            "cache hits",
            "time ms",
        ],
        &rows,
    );
    let reduction = ((solver_off as f64 / (solver_on as f64).max(1.0)) * 100.0).round() / 100.0;
    em.note(&format!(
        "\nsame results: {same_results} | solver-visible work (QE + entailment): \
         {solver_off} off vs {solver_on} on — {reduction:.2}x reduction (target ≥ 2x)"
    ));
    em.datum("same_results", same_results);
    em.datum("solver_calls_off", solver_off);
    em.datum("solver_calls_on", solver_on);
    em.datum("reduction", reduction);
    (same_results, reduction)
}

/// E17 — constraint-aware multiway join: the variable-at-a-time leapfrog
/// body join vs the binary-pruned left-to-right fold, A/B on 3- and
/// 4-atom rule bodies over a dense chain (both sides keep summary
/// pruning and the QE cache on, so the delta is the join shape alone).
///
/// Returns `(byte_identical, reduction)` where `reduction` is the factor
/// by which the multiway join shrinks the solver-visible work
/// (canonicalization requests + QE calls, summed over naive and
/// semi-naive). The selfcheck enforces `byte_identical && reduction >= 2`.
fn multiway(em: &mut Emitter) -> (bool, f64) {
    use cql_core::{EnginePolicy, JoinMode};
    em.section("e17", "engine: constraint-aware multiway join vs binary-pruned fold");
    em.note("path-join program over the 24-node dense chain:");
    em.note("  T(x,w) :- T(x,y), E(y,z), E(z,w)   (3-atom recursive body)");
    em.note("  Q(x,v) :- E(x,y), E(y,z), E(z,w), E(w,v)  (4-atom body)");
    em.note("  P(x,u) :- E(x,y), T(y,z), E(z,w), T(w,v), E(v,u)  (5-atom body)");
    em.note("plus the triangle-closing rule over an 8x8 bipartite wedge EDB:");
    em.note("  W(x,z) :- R(x,y), S(y,z), C(z,x)   (m^3 wedges, m^2 closures)");
    em.note("Policy A/B — 'binary' folds atoms left-to-right (one solver-visible");
    em.note("canonicalization per surviving intermediate pair); 'multiway' probes");
    em.note("per-variable summary levels and calls the solver once per surviving");
    em.note("full combination. Results must be byte-identical.\n");

    let mut db = chain_edb_dense(24);
    cql_bench::wedge_edb_dense(&mut db, 8);
    let program = path_join_program_dense();
    // Canonical text rendering of every derived relation, for the
    // byte-identical comparison (tuple order is join-order dependent, so
    // compare sorted).
    let render = |result: &datalog::FixpointResult<Dense>| {
        let mut lines = Vec::new();
        for name in ["T", "Q", "P", "W"] {
            let mut tuples: Vec<String> = result
                .idb
                .get(name)
                .map_or(&[][..], cql_core::GenRelation::tuples)
                .iter()
                .map(|t| format!("{name}: {t}"))
                .collect();
            tuples.sort_unstable();
            lines.extend(tuples);
        }
        lines.join("\n")
    };
    let run = |semi: bool, multiway_on: bool| {
        let opts = FixpointOptions {
            policy: EnginePolicy {
                join: if multiway_on { JoinMode::Multiway } else { JoinMode::Binary },
                ..EnginePolicy::default()
            },
            ..FixpointOptions::default()
        };
        let scope = MetricsScope::enter(if multiway_on { "e17.multiway" } else { "e17.binary" });
        let (out, d) = timed(|| {
            if semi {
                datalog::seminaive(&program, &db, &opts).unwrap()
            } else {
                datalog::naive(&program, &db, &opts).unwrap()
            }
        });
        (render(&out), scope.snapshot(), d)
    };

    let mut rows = Vec::new();
    let mut byte_identical = true;
    let mut solver_binary = 0u64;
    let mut solver_multi = 0u64;
    for (engine, semi) in [("naive", false), ("seminaive", true)] {
        let mut renders = Vec::new();
        for (mode, on) in [("binary", false), ("multiway", true)] {
            let (rendered, m, d) = run(semi, on);
            let solver =
                m.get(Counter::InternHits) + m.get(Counter::InternMisses) + m.get(Counter::QeCalls);
            *(if on { &mut solver_multi } else { &mut solver_binary }) += solver;
            renders.push(rendered);
            rows.push(vec![
                Json::from(engine),
                Json::from(mode),
                Json::from(solver),
                Json::from(m.get(Counter::QeCalls)),
                Json::from(m.get(Counter::MultiwayProbes)),
                Json::from(m.get(Counter::MultiwaySurvivors)),
                Json::from(m.get(Counter::PlanCacheHits)),
                Json::from(m.get(Counter::SummaryIndexReuses)),
                Json::from(ms_f(d)),
            ]);
        }
        byte_identical &= renders[0] == renders[1];
    }
    em.table(
        "rows",
        &[
            "engine",
            "join",
            "solver calls",
            "qe calls",
            "mw probes",
            "mw survivors",
            "plan hits",
            "index reuses",
            "time ms",
        ],
        &rows,
    );
    let reduction =
        ((solver_binary as f64 / (solver_multi as f64).max(1.0)) * 100.0).round() / 100.0;
    em.note(&format!(
        "\nbyte-identical results: {byte_identical} | solver-visible work \
         (canonicalizations + QE): {solver_binary} binary vs {solver_multi} multiway — \
         {reduction:.2}x reduction (target ≥ 2x)"
    ));
    em.datum("byte_identical", byte_identical);
    em.datum("solver_calls_binary", solver_binary);
    em.datum("solver_calls_multiway", solver_multi);
    em.datum("reduction", reduction);

    // The EXPLAIN artifact: the chosen variable orders and probe totals
    // of the multiway run, as the report renders them.
    let opts = FixpointOptions::default();
    let plans = datalog::seminaive(&program, &db, &opts).unwrap().plans;
    em.note("");
    for p in &plans {
        let order = p.var_order.iter().map(|v| format!("x{v}")).collect::<Vec<_>>().join(" ");
        em.note(&format!(
            "plan: {} | order [{}] atoms={} probes={} survivors={}",
            p.rule, order, p.atoms, p.probes, p.survivors
        ));
    }
    em.datum("plans", Json::Arr(plans.iter().map(cql_trace::PlanStats::to_json).collect()));
    (byte_identical, reduction)
}

/// E18 — incremental view maintenance vs full re-evaluation. Returns
/// `(byte_identical, solver_reduction, wall_reduction)` (the per-update
/// maintenance cost of the view vs a from-scratch semi-naive run, in
/// solver-visible calls — QE + entailment — and wall time). The
/// selfcheck enforces `byte_identical && both reductions >= 10`.
fn incremental(em: &mut Emitter) -> (bool, f64, f64) {
    use cql_core::{Database, GenRelation, GenTuple};
    use cql_dense::DenseConstraint;
    use cql_engine::MaterializedView;
    em.section("e18", "incremental maintenance: MaterializedView vs semi-naive re-run");
    em.note("TC over the 48-edge dense chain (2^10-scale: 1176 closure tuples),");
    em.note("then a stream of 8 single-edge updates (pendant inserts/retracts at");
    em.note("both ends, including retract-then-reinsert). A/B per update —");
    em.note("'incremental' adjusts support counts and fires delta-restricted");
    em.note("rules (counting/DRed over the multiway plans); 'rerun' re-runs");
    em.note("semi-naive from scratch on the updated EDB. The maintained closure");
    em.note("must render byte-identical to the re-run after every update.");
    em.note("Costs are maintenance-only: reading the view re-compresses changed");
    em.note("predicates into antichain form, an O(|T|) pass amortized over any");
    em.note("batch of updates (run here after every update for the comparison,");
    em.note("outside the timed region).\n");

    let n = 48i64;
    let program = tc_program_dense();
    let opts = FixpointOptions::default();
    let edge = |a: i64, b: i64| {
        GenTuple::<Dense>::new(vec![
            DenseConstraint::eq_const(0, a),
            DenseConstraint::eq_const(1, b),
        ])
        .unwrap()
    };
    let render = |rel: Option<&GenRelation<Dense>>| {
        let mut lines: Vec<String> =
            rel.map_or(&[][..], GenRelation::tuples).iter().map(ToString::to_string).collect();
        lines.sort_unstable();
        lines.join("\n")
    };
    let (mut view, d_build) =
        timed(|| MaterializedView::new(program.clone(), &chain_edb_dense(n), opts).unwrap());
    em.note(&format!("view construction (initial fixpoint): {}", ms(d_build)));
    em.datum("construction_ms", ms_f(d_build));

    // The asserted-edge mirror the from-scratch runs see.
    let mut edges: Vec<(i64, i64)> = (0..n).map(|i| (i, i + 1)).collect();
    let script: [(bool, i64, i64); 8] = [
        (true, n, n + 1),
        (false, n, n + 1),
        (true, -1, 0),
        (false, -1, 0),
        (true, n, n + 1),
        (true, n + 1, n + 2),
        (false, n + 1, n + 2),
        (false, n, n + 1),
    ];

    let mut rows = Vec::new();
    let mut updates = Vec::new();
    let mut byte_identical = true;
    let (mut solver_inc, mut solver_rerun) = (0u64, 0u64);
    let (mut wall_inc, mut wall_rerun) = (Duration::ZERO, Duration::ZERO);
    for &(insert, a, b) in &script {
        let t = edge(a, b);
        let (stats, d_inc, m_inc) = {
            let scope = MetricsScope::enter("e18.incremental");
            let (stats, d) = timed(|| {
                if insert {
                    view.insert("E", t.clone()).unwrap()
                } else {
                    view.retract("E", &t).unwrap()
                }
            });
            (stats, d, scope.snapshot())
        };
        if insert {
            edges.push((a, b));
        } else {
            edges.retain(|&e| e != (a, b));
        }
        let mut db = Database::new();
        db.insert(
            "E",
            GenRelation::from_conjunctions(
                2,
                edges.iter().map(|&(x, y)| {
                    vec![DenseConstraint::eq_const(0, x), DenseConstraint::eq_const(1, y)]
                }),
            ),
        );
        let (full, d_full, m_full) = {
            let scope = MetricsScope::enter("e18.rerun");
            let (full, d) = timed(|| datalog::seminaive(&program, &db, &opts).unwrap());
            (full, d, scope.snapshot())
        };
        byte_identical &= render(view.current().get("T")) == render(full.idb.get("T"));
        let s_inc = m_inc.get(Counter::QeCalls) + m_inc.get(Counter::EntailmentChecks);
        let s_full = m_full.get(Counter::QeCalls) + m_full.get(Counter::EntailmentChecks);
        solver_inc += s_inc;
        solver_rerun += s_full;
        wall_inc += d_inc;
        wall_rerun += d_full;
        rows.push(vec![
            Json::from(if insert { "insert" } else { "retract" }),
            Json::from(format!("E({a},{b})")),
            Json::from(stats.delta_rounds),
            Json::from(stats.rederivations),
            Json::from(stats.support_adjust),
            Json::from(s_inc),
            Json::from(s_full),
            Json::from(ms_f(d_inc)),
            Json::from(ms_f(d_full)),
        ]);
        updates.push(stats.to_json());
    }
    em.table(
        "rows",
        &[
            "op",
            "edge",
            "rounds",
            "rederive",
            "support",
            "solver inc",
            "solver rerun",
            "inc ms",
            "rerun ms",
        ],
        &rows,
    );
    let solver_reduction =
        ((solver_rerun as f64 / (solver_inc as f64).max(1.0)) * 100.0).round() / 100.0;
    let wall_reduction =
        ((wall_rerun.as_secs_f64() / wall_inc.as_secs_f64().max(1e-9)) * 100.0).round() / 100.0;
    em.note(&format!(
        "\nbyte-identical results: {byte_identical} | solver-visible work \
         (QE + entailment): {solver_inc} incremental vs {solver_rerun} re-run — \
         {solver_reduction:.2}x reduction | wall {wall_reduction:.2}x (targets ≥ 10x)"
    ));
    em.datum("byte_identical", byte_identical);
    em.datum("solver_calls_incremental", solver_inc);
    em.datum("solver_calls_rerun", solver_rerun);
    em.datum("solver_reduction", solver_reduction);
    em.datum("wall_reduction", wall_reduction);
    // The per-update EXPLAIN rows, exactly as EvalReport embeds them.
    em.datum("updates", Json::Arr(updates));
    (byte_identical, solver_reduction, wall_reduction)
}

/// What E19 hands the selfcheck: the registry snapshot plus both
/// rendered expositions, so the invariants can be re-verified against
/// exactly what was emitted.
struct TelemetryOutcome {
    snapshot: TelemetrySnapshot,
    prometheus: String,
    json: Json,
    view_updates: u64,
}

/// E19 — the telemetry runtime end to end: a long-lived
/// [`TelemetryRegistry`] collects two named scopes (a fixpoint workload
/// and a stream of view updates) with latency histograms and sampled
/// engine gauges, then renders the snapshot as Prometheus-style text
/// and JSON. The selfcheck re-validates both expositions, the
/// histogram/counter invariants, quantile monotonicity, and that an
/// injected 2× wall slowdown trips the `--compare` gate.
fn telemetry_runtime(em: &mut Emitter) -> TelemetryOutcome {
    em.section("e19", "telemetry runtime: registry, histograms, gauges, exposition");
    em.note("two registered scopes — 'fixpoint' runs semi-naive TC over the");
    em.note("64-node dense chain (repeated until >= 25 ms of wall, so the");
    em.note("regression gate has a wall metric above its noise floor) plus one");
    em.note("calculus query; 'view' applies 8 single-edge MaterializedView");
    em.note("updates. Histograms merge through the scope fold; gauges sample");
    em.note("the engine's interner and QE-cache occupancy.\n");

    let registry = TelemetryRegistry::new();
    let threads = Executor::from_env().threads();
    let opts = FixpointOptions { threads, ..Default::default() };
    let engine = opts.engine();
    let program = tc_program_dense();
    let db = chain_edb_dense(64);

    // Scope 1: the fixpoint workload, repeated to a 25 ms wall floor.
    let fixpoint_handle = registry.register("fixpoint");
    let mut reps = 0u64;
    let fixpoint_wall = {
        let _g = fixpoint_handle.install();
        let start = Instant::now();
        loop {
            datalog::fixpoint(&engine, &program, &db, &opts, datalog::Strategy::SemiNaive).unwrap();
            reps += 1;
            if start.elapsed() >= Duration::from_millis(25) {
                break;
            }
        }
        let q = compose_query_dense();
        calculus::evaluate_with(&engine, &q, &db).unwrap();
        start.elapsed()
    };
    for (name, value) in engine.gauges() {
        registry.set_gauge("fixpoint", &name, value);
    }

    // Scope 2: incremental view maintenance (construction stays outside
    // the install, so the scope holds exactly the update telemetry).
    let mut view = MaterializedView::new(program.clone(), &chain_edb_dense(32), opts).unwrap();
    let view_handle = registry.register("view");
    let edge = |a: i64, b: i64| {
        cql_core::GenTuple::<Dense>::new(vec![
            cql_dense::DenseConstraint::eq_const(0, a),
            cql_dense::DenseConstraint::eq_const(1, b),
        ])
        .unwrap()
    };
    let script: [(bool, i64, i64); 8] = [
        (true, 32, 33),
        (false, 32, 33),
        (true, -1, 0),
        (false, -1, 0),
        (true, 32, 33),
        (true, 33, 34),
        (false, 33, 34),
        (false, 32, 33),
    ];
    let view_wall = {
        let _g = view_handle.install();
        let start = Instant::now();
        for &(insert, a, b) in &script {
            let t = edge(a, b);
            if insert {
                view.insert("E", t).unwrap();
            } else {
                view.retract("E", &t).unwrap();
            }
        }
        start.elapsed()
    };

    let snapshot = registry.snapshot();
    let mut hist_rows = Vec::new();
    for scope in &snapshot.scopes {
        for (name, h) in &scope.metrics.hists {
            let q = |p: f64| h.quantile(p).unwrap_or(0);
            hist_rows.push(vec![
                Json::from(scope.name.as_str()),
                Json::from(*name),
                Json::from(h.count()),
                Json::from(q(0.5)),
                Json::from(q(0.9)),
                Json::from(q(0.99)),
                Json::from(h.max().unwrap_or(0)),
            ]);
        }
    }
    em.table(
        "histograms",
        &["scope", "histogram", "count", "p50", "p90", "p99", "max"],
        &hist_rows,
    );
    em.note("");
    let gauge_rows: Vec<Vec<Json>> = snapshot
        .scopes
        .iter()
        .flat_map(|s| {
            s.gauges.iter().map(|(k, v)| {
                vec![Json::from(s.name.as_str()), Json::from(k.as_str()), Json::from(*v)]
            })
        })
        .collect();
    em.table("gauges", &["scope", "gauge", "value"], &gauge_rows);

    let prometheus = expose::to_prometheus(&snapshot);
    let prom_samples = match expose::validate_prometheus(&prometheus) {
        Ok(n) => n as u64,
        Err(e) => {
            em.note(&format!("prometheus exposition INVALID: {e}"));
            0
        }
    };
    let json_doc = expose::to_json(&snapshot);
    let json_samples = match expose::validate_json(&json_doc) {
        Ok(n) => n as u64,
        Err(e) => {
            em.note(&format!("json exposition INVALID: {e}"));
            0
        }
    };
    em.note("\nfirst prometheus exposition lines:");
    for line in prometheus.lines().take(6) {
        em.note(&format!("  {line}"));
    }
    em.note(&format!(
        "\nexposition: {prom_samples} prometheus samples, {json_samples} json samples \
         (both validated; full round-trip enforced by --selfcheck)"
    ));

    em.datum("fixpoint_reps", reps);
    em.datum("fixpoint_wall_ms", ms_f(fixpoint_wall));
    em.datum("view_updates", script.len() as u64);
    em.datum("view_update_wall_ms", ms_f(view_wall));
    em.datum("prometheus_samples", prom_samples);
    em.datum("json_samples", json_samples);
    TelemetryOutcome { snapshot, prometheus, json: json_doc, view_updates: script.len() as u64 }
}

/// What E20 hands the selfcheck: the end-to-end recorder facts it must
/// enforce (all four flags are deterministic by construction).
struct RecorderOutcome {
    exemplar_coverage: bool,
    nonzero_buckets: u64,
    recorder_no_drops: bool,
    breach_tripped: bool,
    dump_parsed: bool,
}

/// E20 — the flight recorder end to end: runtime capture (`always`
/// mode, no compile-time feature), histogram exemplars resolving to
/// recorded spans, Prometheus/JSON exposition of those exemplars, and
/// the SLO watchdog freezing and dumping a breaching scope's rings as a
/// chrome trace. Runs at `threads = 1` so every histogram sample is
/// recorded under the harness's open span (exemplar attribution is
/// per-thread); width-invariance of the capture itself is covered by
/// the engine's `recorder_capture` test.
#[allow(clippy::too_many_lines)]
fn recorder_flight(em: &mut Emitter) -> RecorderOutcome {
    em.section("e20", "flight recorder: runtime capture, exemplars, SLO watchdog");
    em.note("recorder switched to 'always' at runtime (no rebuild); one scope");
    em.note("runs semi-naive TC over the 24-node dense chain plus 6 single-edge");
    em.note("view updates. Every nonzero histogram bucket must then carry an");
    em.note("exemplar resolving to a captured span; an injected 2x-over-SLO");
    em.note("update must trip the watchdog and dump the frozen rings as a");
    em.note("parseable chrome trace.\n");

    // threads = 1: the width-1 executor never spawns, so every
    // record_hist call happens under the harness spans opened below.
    let opts = FixpointOptions { threads: 1, ..Default::default() };
    let program = tc_program_dense();
    let db = chain_edb_dense(24);
    // Recorder mode and ring capacity are process-global: restored on
    // exit, so a `--trace` run keeps capturing the experiments after E20.
    let (prior, prior_capacity) = (recorder::config(), recorder::ring_capacity());
    recorder::set_ring_capacity(prior_capacity.max(1 << 16));
    let registry = TelemetryRegistry::new();
    recorder::set_config(RecorderConfig::Always);
    let handle = registry.register("e20");
    {
        let _g = handle.install();
        let _run = span("e20.run", "query");
        datalog::seminaive(&program, &db, &opts).unwrap();
        let mut view = MaterializedView::new(program.clone(), &chain_edb_dense(16), opts).unwrap();
        let edge = |a: i64, b: i64| {
            cql_core::GenTuple::<Dense>::new(vec![
                cql_dense::DenseConstraint::eq_const(0, a),
                cql_dense::DenseConstraint::eq_const(1, b),
            ])
            .unwrap()
        };
        let script: [(bool, i64, i64); 6] = [
            (true, 16, 17),
            (false, 16, 17),
            (true, -1, 0),
            (true, 16, 17),
            (false, -1, 0),
            (false, 16, 17),
        ];
        for &(insert, a, b) in &script {
            let _u = span("e20.update", "op");
            let t = edge(a, b);
            if insert {
                view.insert("E", t).unwrap();
            } else {
                view.retract("E", &t).unwrap();
            }
        }
    }
    recorder::set_config(RecorderConfig::Off);

    let events = handle.recorded_events();
    let span_ids: BTreeSet<u64> = events.iter().map(|e| e.span_id).collect();
    let dropped: u64 = handle.ring_stats().iter().map(|s| s.dropped).sum();
    let recorder_no_drops = dropped == 0;

    // Exemplar coverage: every nonzero bucket of every captured
    // histogram carries an exemplar whose value lies in the bucket and
    // whose span id resolves to a captured event.
    let snapshot = registry.snapshot();
    let mut nonzero_buckets = 0u64;
    let mut covered = 0u64;
    for scope in &snapshot.scopes {
        for h in scope.metrics.hists.values() {
            for (idx, count) in h.buckets() {
                if count == 0 {
                    continue;
                }
                nonzero_buckets += 1;
                if let Some(ex) = h.exemplar(idx) {
                    let (lo, hi) = histogram::bucket_bounds(idx);
                    if ex.value >= lo && ex.value <= hi && span_ids.contains(&ex.span_id) {
                        covered += 1;
                    }
                }
            }
        }
    }
    let exemplar_coverage = nonzero_buckets > 0 && covered == nonzero_buckets;
    let prometheus = expose::to_prometheus(&snapshot);
    let exemplar_lines = prometheus.matches(" # {").count() as u64;
    let prometheus_valid = expose::validate_prometheus(&prometheus).is_ok();

    let hist_names: Vec<&str> = snapshot.scopes[0].metrics.hists.keys().copied().collect();
    em.note(&format!(
        "captured {} span events across {} histogram(s) [{}]: {covered}/{nonzero_buckets} \
         nonzero buckets carry resolving exemplars; exposition emits {exemplar_lines} \
         exemplar line(s), validator {}",
        events.len(),
        hist_names.len(),
        hist_names.join(", "),
        if prometheus_valid { "accepts" } else { "REJECTS" },
    ));

    // SLO watchdog: declare a threshold 1.5x above everything observed,
    // then inject one update sample 2x over it — exactly the sample a
    // pathological view update would record — and let the at-drop check
    // trip, freeze and dump.
    let observed_max = snapshot
        .scopes
        .iter()
        .filter_map(|s| s.metrics.hists.get(hist::VIEW_UPDATE_NS))
        .filter_map(Histogram::max)
        .max()
        .unwrap_or(1_000_000);
    let threshold_ns = observed_max.saturating_mul(3) / 2 + 1;
    watchdog::set_rules(vec![SloRule::new(hist::VIEW_UPDATE_NS, 0.99, threshold_ns)]);
    watchdog::set_dump_dir(Some(std::path::PathBuf::from("target")));
    let _ = watchdog::take_breaches(); // drop stale history
    recorder::set_config(RecorderConfig::Always);
    {
        let scope = MetricsScope::enter("e20-breach");
        {
            let _u = span("e20.slow_update", "op");
            record_hist_injected(threshold_ns.saturating_mul(2));
        }
        drop(scope); // the at-drop watchdog check runs here
    }
    recorder::set_config(prior);
    recorder::set_ring_capacity(prior_capacity);
    watchdog::set_rules(Vec::new());
    watchdog::set_dump_dir(None);
    let breaches = watchdog::take_breaches();
    let breach = breaches.iter().find(|b| b.scope == "e20-breach");
    let breach_tripped = breach.is_some();
    let mut dump_parsed = false;
    let mut dump_events = 0u64;
    if let Some(b) = breach {
        if let Some(path) = &b.dump_path {
            if let Ok(text) = std::fs::read_to_string(path) {
                if let Ok(parsed) = chrome::parse(&text) {
                    dump_events = parsed.len() as u64;
                    dump_parsed = parsed.len() == b.events_dumped
                        && chrome::nesting_violation(&parsed).is_none();
                }
            }
        }
        em.note(&format!(
            "\nSLO '{} p99 < {}ns' tripped: observed {}ns; {} frozen event(s) dumped to {}",
            b.hist,
            b.max_ns,
            b.observed,
            b.events_dumped,
            b.dump_path.as_deref().unwrap_or("<nowhere>"),
        ));
    } else {
        em.note("\nSLO breach DID NOT TRIP (selfcheck will fail)");
    }
    em.datum("captured_events", events.len() as u64);
    em.datum("nonzero_buckets", nonzero_buckets);
    em.datum("exemplar_lines", exemplar_lines);
    em.datum("exemplar_coverage", exemplar_coverage && prometheus_valid);
    em.datum("recorder_no_drops", recorder_no_drops);
    em.datum("breach_tripped", breach_tripped);
    em.datum("dump_parsed", dump_parsed);
    em.datum("dump_events", dump_events);
    em.datum("anomalies", Json::Arr(breaches.iter().map(SloBreach::to_json).collect()));
    RecorderOutcome {
        exemplar_coverage: exemplar_coverage && prometheus_valid,
        nonzero_buckets,
        recorder_no_drops,
        breach_tripped,
        dump_parsed,
    }
}

/// Record one injected view-update latency sample (E20's synthetic
/// SLO-breach input), kept out of line so the intent reads at the call
/// site.
fn record_hist_injected(wall_ns: u64) {
    cql_trace::record_hist(hist::VIEW_UPDATE_NS, wall_ns);
}

/// What E21 hands the selfcheck: the isolation and throughput facts of
/// the server run. Everything but the throughput ratio is deterministic
/// by construction; the ratio's ≥4x bar has an order of magnitude of
/// headroom in practice (pinning an epoch vs deep-copying the database).
struct ServerOutcome {
    sessions: u64,
    isolation_ok: bool,
    results_identical: bool,
    throughput_reduction: f64,
    p50_ms: f64,
    p99_ms: f64,
    shed: u64,
    prometheus_valid: bool,
}

/// One E21 client request: a point query against the maintained closure,
/// or a single-edge EDB update through the writer path.
enum ServeReq {
    Point { a: i64, b: i64 },
    Insert { a: i64, b: i64 },
    Retract { a: i64, b: i64 },
}

/// One E21 response: the epoch the request observed (or published), the
/// per-read snapshot-isolation verdict, the result cardinality and an
/// order-independent checksum of the rendered result tuples.
struct ServeResp {
    epoch: u64,
    consistent: bool,
    hits: u64,
    checksum: u64,
}

/// The E21 chain length: `E` is the 48-edge chain, `T` its 1176-pair
/// transitive closure — big enough that deep-copying it per query is
/// visibly expensive, small enough that a single point query stays in
/// the microseconds.
const E21_CHAIN: i64 = 48;

fn e21_xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A pseudo-random closure pair `(a, b)` with `0 ≤ a < b ≤ E21_CHAIN`:
/// always exactly one matching tuple in the chain's closure.
fn e21_chain_pair(rng: &mut u64) -> (i64, i64) {
    let a = (e21_xorshift(rng) % E21_CHAIN as u64) as i64;
    let b = a + 1 + (e21_xorshift(rng) % (E21_CHAIN - a) as u64) as i64;
    (a, b)
}

fn e21_edge(a: i64, b: i64) -> GenTuple<Dense> {
    GenTuple::new(vec![DenseConstraint::eq_const(0, a), DenseConstraint::eq_const(1, b)]).unwrap()
}

/// Order-independent checksum of a result relation: XOR of per-tuple
/// rendering hashes, so snapshot-mode and baseline-mode answers compare
/// byte-for-byte without fixing an iteration order.
fn e21_checksum(rel: &GenRelation<Dense>) -> u64 {
    use std::hash::{Hash, Hasher};
    rel.tuples()
        .iter()
        .map(|t| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            t.to_string().hash(&mut h);
            h.finish()
        })
        .fold(0, |acc, h| acc ^ h)
}

/// Submit one request and block for the response (the closed-loop
/// client discipline: at most one outstanding request per driver, so
/// the admission queue never overflows). Returns the response and the
/// observed round-trip latency in nanoseconds.
fn e21_serve_one(
    server: &QueryServer<ServeReq, ServeResp>,
    tenant: &str,
    req: ServeReq,
) -> (ServeResp, u64) {
    let started = Instant::now();
    let resp = server
        .submit(tenant, req)
        .ticket()
        .expect("closed-loop drivers stay under the admission-queue capacity")
        .wait();
    (resp, u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// Run the fixed comparison query sequence through a server with
/// `drivers` closed-loop clients, returning the per-query checksums (in
/// sequence order) and the wall time for the whole batch.
fn e21_drive_comparison(
    server: &QueryServer<ServeReq, ServeResp>,
    queries: &[(i64, i64)],
    drivers: usize,
) -> (Vec<u64>, Duration) {
    let started = Instant::now();
    let chunk = queries.len().div_ceil(drivers);
    let per_driver: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .enumerate()
            .map(|(d, part)| {
                scope.spawn(move || {
                    let tenant = format!("tenant-{}", d % 4);
                    part.iter()
                        .map(|&(a, b)| {
                            e21_serve_one(server, &tenant, ServeReq::Point { a, b }).0.checksum
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("comparison driver")).collect()
    });
    (per_driver.into_iter().flatten().collect(), started.elapsed())
}

/// E21 — the epoch-versioned snapshot runtime behind a thread-per-core
/// multi-tenant query server, against the clone-per-query baseline it
/// replaces.
///
/// Phase 1 (mixed workload): 10,000 simulated client sessions multiplex
/// onto 16 closed-loop driver threads and four tenants; every session
/// issues point queries against the maintained closure, and a slice of
/// sessions also commits single-edge insert/retract pairs through the
/// writer path while the reads are in flight. Every point query pins an
/// epoch and checks the snapshot-isolation invariant (each commit moves
/// `E` and `T` in lockstep, so a torn read breaks the equation), and
/// every driver checks epoch monotonicity across its responses.
///
/// Phase 2 (A/B): the same fixed point-query sequence is served twice —
/// snapshot mode pins an epoch per query; baseline mode reproduces the
/// pre-COW serving discipline (deep-copy the shared database under a
/// lock, rebuild per-call engine state) — and the answers must be
/// identical with snapshot mode at ≥4x the baseline throughput.
#[allow(clippy::too_many_lines)]
fn server_runtime(em: &mut Emitter) -> ServerOutcome {
    em.section("e21", "snapshot runtime + thread-per-core multi-tenant query server");
    em.note("10,000 client sessions over 16 closed-loop drivers and 4 tenants;");
    em.note("point queries pin COW snapshots of the 48-chain closure while a");
    em.note("slice of sessions commits insert/retract pairs through the");
    em.note("incremental writer path. Every read checks the isolation invariant");
    em.note("and epoch monotonicity; the A/B serves one fixed query sequence in");
    em.note("snapshot mode vs the clone-per-query baseline it replaces.\n");

    let threads = Executor::from_env().threads();
    let opts = FixpointOptions { threads, ..Default::default() };
    // The served database: the chain and its closure, plus a bulky
    // relation no rule (or query) touches — the realistic
    // multi-relation shape where clone-per-query pays for everything in
    // the database while pinning pays O(1) regardless.
    let mut edb = chain_edb_dense(E21_CHAIN);
    let mut payload = GenRelation::with_policy(
        1,
        cql_engine::EnginePolicy::with_subsumption(cql_engine::SubsumptionMode::DedupOnly),
    );
    for i in 0..32_768 {
        payload.insert(GenTuple::new(vec![DenseConstraint::eq_const(0, i)]).unwrap());
    }
    edb.insert("Payload", payload);
    let runtime = Arc::new(Runtime::new(tc_program_dense(), &edb, opts).unwrap());
    let (base_e, base_t) = {
        let base = runtime.pin();
        (base.relation("E").unwrap().len() as u64, base.relation("T").unwrap().len() as u64)
    };

    let registry = Arc::new(TelemetryRegistry::new());
    let server = {
        let runtime = Arc::clone(&runtime);
        QueryServer::start(
            ServerConfig::default(),
            Arc::clone(&registry),
            move |_tenant, req: ServeReq| match req {
                ServeReq::Point { a, b } => {
                    let snap = runtime.pin();
                    let e_len = snap.relation("E").map_or(0, GenRelation::len) as u64;
                    let t_len = snap.relation("T").map_or(0, GenRelation::len) as u64;
                    // Snapshot isolation, checked per read: every commit
                    // adds or removes one disconnected edge together with
                    // its single closure tuple, so `E` and `T` move in
                    // lockstep at every published epoch. A torn read (one
                    // updated, the other not) breaks the equation.
                    let consistent = t_len + base_e == e_len + base_t;
                    let hits = runtime
                        .query(
                            &snap,
                            "T",
                            &[DenseConstraint::eq_const(0, a), DenseConstraint::eq_const(1, b)],
                        )
                        .unwrap();
                    ServeResp {
                        epoch: snap.epoch(),
                        consistent,
                        hits: hits.len() as u64,
                        checksum: e21_checksum(&hits),
                    }
                }
                ServeReq::Insert { a, b } => {
                    runtime.insert("E", e21_edge(a, b)).unwrap();
                    ServeResp { epoch: runtime.epoch(), consistent: true, hits: 0, checksum: 0 }
                }
                ServeReq::Retract { a, b } => {
                    runtime.retract("E", &e21_edge(a, b)).unwrap();
                    ServeResp { epoch: runtime.epoch(), consistent: true, hits: 0, checksum: 0 }
                }
            },
        )
    };

    // Phase 1: the mixed workload. Sessions are split evenly across the
    // drivers; session ids decide the tenant (id mod 4) and which
    // sessions commit updates ((id / 4) mod 16 == 0 — every tenant gets
    // updater sessions).
    const SESSIONS: u64 = 10_000;
    const DRIVERS: u64 = 16;
    const POINTS_PER_SESSION: u64 = 3;
    let mixed_started = Instant::now();
    let driver_results: Vec<(Vec<u64>, bool, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..DRIVERS)
            .map(|d| {
                let server = &server;
                scope.spawn(move || {
                    let per = SESSIONS / DRIVERS;
                    let mut latencies = Vec::with_capacity((per * POINTS_PER_SESSION) as usize);
                    let mut ok = true;
                    let mut last_epoch = 0u64;
                    let mut commits = 0u64;
                    for s in 0..per {
                        let session = d * per + s;
                        let tenant = format!("tenant-{}", session % 4);
                        let updater = (session / 4) % 16 == 0;
                        let extra = 200_000 + 2 * session as i64;
                        if updater {
                            let (resp, _) = e21_serve_one(
                                server,
                                &tenant,
                                ServeReq::Insert { a: extra, b: extra + 1 },
                            );
                            ok &= resp.consistent && resp.epoch >= last_epoch;
                            last_epoch = resp.epoch;
                            commits += 1;
                        }
                        let mut rng = (session + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                        for _ in 0..POINTS_PER_SESSION {
                            let (a, b) = e21_chain_pair(&mut rng);
                            let (resp, ns) =
                                e21_serve_one(server, &tenant, ServeReq::Point { a, b });
                            latencies.push(ns);
                            ok &= resp.consistent && resp.hits == 1 && resp.epoch >= last_epoch;
                            last_epoch = resp.epoch;
                        }
                        if updater {
                            let (resp, _) = e21_serve_one(
                                server,
                                &tenant,
                                ServeReq::Retract { a: extra, b: extra + 1 },
                            );
                            ok &= resp.consistent && resp.epoch >= last_epoch;
                            last_epoch = resp.epoch;
                            commits += 1;
                        }
                    }
                    (latencies, ok, commits)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("mixed-workload driver")).collect()
    });
    let mixed_wall = mixed_started.elapsed();

    let mut isolation_ok = driver_results.iter().all(|(_, ok, _)| *ok);
    let update_commits: u64 = driver_results.iter().map(|(_, _, c)| c).sum();
    let mut latencies: Vec<u64> = driver_results.into_iter().flat_map(|(lat, _, _)| lat).collect();
    latencies.sort_unstable();
    let quantile_ms = |q: f64| {
        let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
        latencies[idx] as f64 / 1e6
    };
    let (p50_ms, p99_ms) = (quantile_ms(0.50), quantile_ms(0.99));

    // After the race, the inserts and retracts cancelled out: the final
    // epoch must hold exactly the seed chain and its closure, and the
    // store must have applied exactly the issued commits.
    {
        let end = runtime.pin();
        isolation_ok &= end.relation("E").unwrap().len() as u64 == base_e;
        isolation_ok &= end.relation("T").unwrap().len() as u64 == base_t;
        isolation_ok &= runtime.commits() == update_commits;
    }

    // Phase 2: the A/B. One fixed query sequence; the baseline serves
    // it the way the per-call engine did before COW snapshots existed —
    // deep-copy the shared database under its lock, fresh engine state
    // per query.
    const CMP_QUERIES: usize = 1024;
    let mut rng = 0xABCD_EF01_2345_6789u64;
    let queries: Vec<(i64, i64)> = (0..CMP_QUERIES).map(|_| e21_chain_pair(&mut rng)).collect();

    let baseline_db = Arc::new(Mutex::new(runtime.pin().db().clone()));
    let baseline_registry = Arc::new(TelemetryRegistry::new());
    let baseline_server = {
        let shared = Arc::clone(&baseline_db);
        QueryServer::start(
            ServerConfig::default(),
            Arc::clone(&baseline_registry),
            move |_tenant, req: ServeReq| {
                let ServeReq::Point { a, b } = req else {
                    return ServeResp { epoch: 0, consistent: false, hits: 0, checksum: 0 };
                };
                let copy = {
                    let db = shared.lock().expect("baseline database poisoned");
                    let mut copy = Database::new();
                    for (name, rel) in db.iter() {
                        // Dedup-only rebuild: the cost of the pre-COW deep
                        // clone (copy every tuple, rehash, rebuild the
                        // duplicate set) without re-running subsumption,
                        // which the original clone did not re-run either.
                        let mut fresh = GenRelation::with_policy(
                            rel.arity(),
                            cql_engine::EnginePolicy::with_subsumption(
                                cql_engine::SubsumptionMode::DedupOnly,
                            ),
                        );
                        for t in rel.tuples() {
                            fresh.insert(t.clone());
                        }
                        copy.insert(name, fresh);
                    }
                    copy
                };
                let engine: Engine<Dense> = Engine::serial();
                let hits = algebra::select_with(
                    &engine,
                    copy.require("T").unwrap(),
                    &[DenseConstraint::eq_const(0, a), DenseConstraint::eq_const(1, b)],
                );
                ServeResp {
                    epoch: 0,
                    consistent: true,
                    hits: hits.len() as u64,
                    checksum: e21_checksum(&hits),
                }
            },
        )
    };

    let (snap_sums, snap_wall) = e21_drive_comparison(&server, &queries, DRIVERS as usize);
    let (base_sums, base_wall) = e21_drive_comparison(&baseline_server, &queries, DRIVERS as usize);
    baseline_server.shutdown();
    let results_identical =
        snap_sums == base_sums && snap_sums.len() == CMP_QUERIES && !snap_sums.contains(&0);
    let snapshot_qps = CMP_QUERIES as f64 / snap_wall.as_secs_f64().max(1e-9);
    let baseline_qps = CMP_QUERIES as f64 / base_wall.as_secs_f64().max(1e-9);
    let throughput_reduction = snapshot_qps / baseline_qps.max(1e-9);

    em.table(
        "modes",
        &["mode", "queries", "wall_ms", "queries_per_sec"],
        &[
            vec![
                Json::from("snapshot (pin per query)"),
                Json::from(CMP_QUERIES as u64),
                Json::from(ms_f(snap_wall)),
                Json::from(snapshot_qps.round()),
            ],
            vec![
                Json::from("baseline (clone per query)"),
                Json::from(CMP_QUERIES as u64),
                Json::from(ms_f(base_wall)),
                Json::from(baseline_qps.round()),
            ],
        ],
    );
    em.note("");

    // Satellite surface: the runtime + server gauges feed the registry
    // for Prometheus/JSON exposition next to the per-tenant scopes the
    // served queries folded into.
    let _server_scope = registry.register("server");
    for (name, value) in runtime.gauges().into_iter().chain(server.gauges()) {
        registry.set_gauge("server", &name, value);
    }
    let telemetry = registry.snapshot();
    let tenant_rows: Vec<Vec<Json>> = telemetry
        .scopes
        .iter()
        .filter(|s| s.name.starts_with("tenant-"))
        .map(|s| {
            let updates = s.metrics.hists.get(hist::VIEW_UPDATE_NS).map_or(0, Histogram::count);
            vec![
                Json::from(s.name.as_str()),
                Json::from(s.metrics.get(Counter::QeCalls)),
                Json::from(updates),
                Json::from(s.gauges.get("active_queries").copied().unwrap_or(0)),
            ]
        })
        .collect();
    em.table("tenants", &["tenant", "qe_calls", "view_updates", "active_queries"], &tenant_rows);
    em.note("");
    let gauge_rows: Vec<Vec<Json>> = server
        .gauges()
        .into_iter()
        .chain(runtime.gauges())
        .filter(|(name, _)| name.starts_with("server_") || name.starts_with("snapshot_"))
        .map(|(name, value)| vec![Json::from(name.as_str()), Json::from(value)])
        .collect();
    em.table("gauges", &["gauge", "value"], &gauge_rows);
    let shed =
        server.gauges().into_iter().find(|(name, _)| name == "server_shed").map_or(0, |(_, v)| v);
    let workers = server.workers() as u64;
    server.shutdown();

    let prometheus = expose::to_prometheus(&telemetry);
    let prom_samples = match expose::validate_prometheus(&prometheus) {
        Ok(n) => n as u64,
        Err(e) => {
            em.note(&format!("prometheus exposition INVALID: {e}"));
            0
        }
    };
    let prometheus_valid = prom_samples > 0;
    em.note(&format!(
        "\n{SESSIONS} sessions ({} point queries, {update_commits} commits) on {workers} \
         worker(s): p50 {p50_ms:.3} ms, p99 {p99_ms:.3} ms per point query; snapshot mode \
         served the A/B at {throughput_reduction:.1}x the clone-per-query throughput \
         ({prom_samples} exposition samples)",
        latencies.len(),
    ));

    em.datum("sessions", SESSIONS);
    em.datum("drivers", DRIVERS);
    em.datum("server_workers", workers);
    em.datum("mixed_point_queries", latencies.len() as u64);
    em.datum("update_commits", update_commits);
    em.datum("mixed_wall_ms", ms_f(mixed_wall));
    em.datum("point_query_p50_ms", (p50_ms * 1e3).round() / 1e3);
    em.datum("point_query_p99_ms", (p99_ms * 1e3).round() / 1e3);
    em.datum("snapshot_queries_per_sec", snapshot_qps.round());
    em.datum("baseline_queries_per_sec", baseline_qps.round());
    em.datum("throughput_reduction", (throughput_reduction * 100.0).round() / 100.0);
    em.datum("isolation_ok", isolation_ok);
    em.datum("results_identical", results_identical);
    em.datum("requests_shed", shed);
    em.datum("prometheus_samples", prom_samples);
    ServerOutcome {
        sessions: SESSIONS,
        isolation_ok,
        results_identical,
        throughput_reduction,
        p50_ms,
        p99_ms,
        shed,
        prometheus_valid,
    }
}

/// A1/A2 — evaluation ablations.
fn ablation(em: &mut Emitter) {
    em.section("a1", "ablation: symbolic QE vs cell-based EVAL_φ (dense order)");
    let mut rows = Vec::new();
    for &n in &[4i64, 8, 12, 16] {
        let db = chain_edb_dense(n);
        let q: CalculusQuery<Dense> = compose_query_dense();
        let (_, t_sym) = timed(|| calculus::evaluate(&q, &db).unwrap());
        let (_, t_cell) = timed(|| cells::evaluate(&q, &db).unwrap());
        rows.push(vec![Json::from(n as u64), Json::from(ms_f(t_sym)), Json::from(ms_f(t_cell))]);
    }
    em.table("rows", &["N", "symbolic ms", "cells ms"], &rows);
    em.note("(cell enumeration pays |cells(m)| up front; symbolic QE scales with");
    em.note(" the DNF it touches — the crossover motivates keeping both, §3.1 vs §3.2)");

    em.section("a2", "ablation: naive vs semi-naive round counts");
    let mut rows = Vec::new();
    for &n in &[6i64, 10, 14] {
        let db = chain_edb_dense(n);
        let program = tc_program_dense();
        let opts = FixpointOptions::default();
        let a = datalog::naive(&program, &db, &opts).unwrap();
        let b = datalog::seminaive(&program, &db, &opts).unwrap();
        rows.push(vec![
            Json::from(n as u64),
            Json::from(a.iterations as u64),
            Json::from(b.iterations as u64),
        ]);
    }
    em.table("rows", &["N", "naive", "seminaive"], &rows);
}

/// A3 — representation ablation: truth tables vs ROBDDs.
fn representation(em: &mut Emitter) {
    em.section("a3", "ablation: truth-table vs BDD canonical forms (n-bit parity)");
    use cql_bool::{Bdd, BoolFunc, Input};
    let mut rows = Vec::new();
    for &n in &[8usize, 12, 16, 20] {
        let (t_func, d_table) = timed(|| {
            let mut f = BoolFunc::zero();
            for v in 0..n {
                f = f.xor(&BoolFunc::var(v));
            }
            f
        });
        let (bdd, d_bdd) = timed(|| {
            let mut f = Bdd::zero();
            for v in 0..n {
                f = f.xor(&Bdd::input(Input::Var(v)));
            }
            f
        });
        let _ = t_func;
        rows.push(vec![
            Json::from(n as u64),
            Json::from(ms_f(d_table)),
            Json::from(ms_f(d_bdd)),
            Json::from(bdd.node_count() as u64),
        ]);
    }
    em.table("rows", &["n", "table build ms", "bdd build ms", "bdd nodes"], &rows);
    em.note("(the table is 2^n bits; the parity BDD is 2n−1 nodes — the classic");
    em.note(" separation; both are canonical, cf. DESIGN.md on the choice)");
}

const TRACE_PATH: &str = "target/repro-trace.json";

/// Per-thread recorder ring capacity under `--trace`. Rings grow on
/// demand, so the bound costs memory only for the events actually held.
const TRACE_RING_CAPACITY: usize = 1 << 20;

const USAGE: &str = "usage: repro [--json] [--trace] [--selfcheck] [--compare] [ids...|all]
ids: f1 t1 f2 f3 e4..e21 a1 a2 a3 (or legacy names: fig1 table1 fig2 fig3
containment hull voronoi datalog equality boolean qbf index engine
overhead filtering multiway incremental telemetry recorder server ablation);
e1/e2/e3 alias f1/t1/f2. --compare diffs the run against the committed BENCH_*.json
baselines (perf-regression gate) and exits non-zero on a regression.";

fn main() {
    let mut json = false;
    let mut trace = false;
    let mut selfcheck = false;
    let mut compare = false;
    let mut ids: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--trace" => trace = true,
            "--selfcheck" => selfcheck = true,
            "--compare" => compare = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
            other => ids.push(other.to_ascii_lowercase()),
        }
    }
    // Ids are validated against the shared live-section list (the same
    // one the snapshot test holds BENCH_*.json to), so a typo can't
    // silently select nothing.
    for id in &ids {
        if !is_live_section(id) {
            eprintln!("unknown experiment id {id}\n{USAGE}");
            std::process::exit(2);
        }
    }
    let all = ids.is_empty() || ids.iter().any(|a| a == "all");
    let want = |keys: &[&str]| all || ids.iter().any(|id| keys.contains(&id.as_str()));

    // `--trace` captures every span site through the flight recorder, in
    // rings sized so that the run's spans fit; evictions are reported as
    // `trace_dropped`, which the selfcheck requires to be zero.
    let trace_dropped_before = trace.then(|| {
        recorder::set_ring_capacity(TRACE_RING_CAPACITY);
        recorder::set_config(RecorderConfig::Always);
        recorder::totals().1
    });
    let mut em = Emitter::new(json);
    let mut e13_report = None;
    let mut e15_overhead = None;
    let mut e16_stats = None;
    let mut e17_stats = None;
    let mut e18_stats = None;
    let mut e19_outcome = None;
    let mut e20_outcome = None;
    let mut e21_outcome = None;

    if want(&["f1", "fig1", "e1"]) {
        fig1(&mut em);
    }
    if want(&["t1", "table1", "e2"]) {
        table1(&mut em);
    }
    if want(&["f2", "fig2", "e3"]) {
        fig2(&mut em);
    }
    if want(&["f3", "fig3"]) {
        fig3(&mut em);
    }
    if want(&["e4", "e5", "containment"]) {
        containment(&mut em);
    }
    if want(&["e6", "hull"]) {
        hull(&mut em);
    }
    if want(&["e7", "voronoi"]) {
        voronoi(&mut em);
    }
    if want(&["e8", "datalog"]) {
        datalog_dense(&mut em);
    }
    if want(&["e9", "equality"]) {
        equality(&mut em);
    }
    if want(&["e10", "boolean"]) {
        boolean(&mut em);
    }
    if want(&["e11", "qbf"]) {
        qbf(&mut em);
    }
    if want(&["e12", "index"]) {
        index(&mut em);
    }
    if want(&["e13", "engine"]) {
        e13_report = Some(engine_store(&mut em));
    }
    if want(&["e14", "engine"]) {
        engine_threads(&mut em);
    }
    if want(&["e15", "overhead"]) {
        e15_overhead = Some(overhead(&mut em));
    }
    if want(&["e16", "filtering", "pruning"]) {
        e16_stats = Some(filtering(&mut em));
    }
    if want(&["e17", "multiway"]) {
        e17_stats = Some(multiway(&mut em));
    }
    if want(&["e18", "incremental"]) {
        e18_stats = Some(incremental(&mut em));
    }
    if want(&["e19", "telemetry"]) {
        e19_outcome = Some(telemetry_runtime(&mut em));
    }
    if want(&["e20", "recorder"]) {
        e20_outcome = Some(recorder_flight(&mut em));
    }
    if want(&["e21", "server"]) {
        e21_outcome = Some(server_runtime(&mut em));
    }
    if want(&["a1", "a2", "ablation"]) {
        ablation(&mut em);
    }
    if want(&["a3", "ablation"]) {
        representation(&mut em);
    }

    let mut trace_dropped = None;
    if let Some(before) = trace_dropped_before {
        recorder::set_config(RecorderConfig::Off);
        let dropped = recorder::totals().1 - before;
        let records = recorder::to_span_records(&recorder::take_root_events());
        let doc = chrome::render(&records);
        match std::fs::create_dir_all("target")
            .and_then(|()| std::fs::write(TRACE_PATH, doc.pretty()))
        {
            Ok(()) => {
                trace_dropped = Some(dropped);
                em.toplevel("trace_file", TRACE_PATH);
                em.toplevel("trace_events", records.len() as u64);
                em.toplevel("trace_dropped", dropped);
            }
            Err(e) => eprintln!("warning: could not write {TRACE_PATH}: {e}"),
        }
    }

    // Snapshots that may feed the regression gate carry the machine's
    // calibration reading, so wall times can be rescaled when compared
    // on different hardware.
    if compare || e19_outcome.is_some() || e20_outcome.is_some() || e21_outcome.is_some() {
        em.toplevel("calibration_ns", gate::calibration_ns());
    }

    let doc = em.finish();

    let mut failed = false;
    if selfcheck {
        match run_selfcheck(
            &doc,
            e13_report.as_ref(),
            e15_overhead,
            e16_stats,
            e17_stats,
            e18_stats,
            e19_outcome.as_ref(),
            e20_outcome.as_ref(),
            e21_outcome.as_ref(),
            trace_dropped,
        ) {
            Ok(summary) => eprintln!("selfcheck: ok ({summary})"),
            Err(e) => {
                eprintln!("selfcheck: FAILED: {e}");
                failed = true;
            }
        }
    }
    if compare {
        match run_compare(&doc) {
            Ok(summary) => eprintln!("compare: ok ({summary})"),
            Err(e) => {
                eprintln!("compare: FAILED:\n{e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    let _ = ms(Duration::ZERO); // keep the text helper linked for benches
}

/// The perf-regression gate: diff this run's document against every
/// committed `BENCH_*.json` baseline at the repository root (see
/// [`gate::compare_docs`] for the per-class bounds). Experiments not
/// regenerated by this run are left ungated.
fn run_compare(doc: &Json) -> Result<String, String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut baselines: Vec<std::path::PathBuf> = std::fs::read_dir(&root)
        .map_err(|e| format!("read {}: {e}", root.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    baselines.sort();
    if baselines.is_empty() {
        return Err("no committed BENCH_*.json baselines found".into());
    }
    let mut report = gate::GateReport::default();
    for path in &baselines {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let baseline = json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        report.merge(gate::compare_docs(doc, &baseline));
    }
    let regressions = report.regressions().len();
    if regressions > 0 {
        return Err(report.render_text());
    }
    eprintln!("{}", report.render_text());
    Ok(format!(
        "{} metrics gated against {} baseline file(s), {} skipped",
        report.rows.len(),
        baselines.len(),
        report.skipped.len()
    ))
}

/// Re-parse everything this run emitted: the JSON document round-trips,
/// the E13 EXPLAIN report's JSON re-parses to itself with one `rounds`
/// entry per fixpoint round (at least one), the E15
/// dormant-telemetry overhead stays under its pinned 5% bound, the E16
/// filtering A/B preserved results and hit its ≥2x solver-work target,
/// the E17 multiway A/B produced byte-identical results with ≥2x fewer
/// solver-visible calls, the E18 incremental A/B maintained the view
/// byte-identically at ≥10x less per-update work (solver calls and wall
/// time), the E19 telemetry snapshot satisfies the documented
/// histogram/counter identities with monotone quantiles and valid,
/// round-trippable expositions (and an injected 2x wall slowdown trips
/// the regression gate), the E20 flight
/// recorder proved exemplar coverage, drop-free capture, and a tripped,
/// parseable SLO dump, the E21 server run preserved snapshot isolation
/// under concurrent commits and served identical results at ≥4x the
/// clone-per-query throughput with no shed closed-loop request, and the
/// chrome-trace file is complete (`trace_dropped` is zero) and parses
/// with strictly nested spans per thread.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn run_selfcheck(
    doc: &Json,
    e13: Option<&EvalReport>,
    e15: Option<f64>,
    e16: Option<(bool, f64)>,
    e17: Option<(bool, f64)>,
    e18: Option<(bool, f64, f64)>,
    e19: Option<&TelemetryOutcome>,
    e20: Option<&RecorderOutcome>,
    e21: Option<&ServerOutcome>,
    trace_dropped: Option<u64>,
) -> Result<String, String> {
    let mut checks = Vec::new();
    let reparsed = json::parse(&doc.pretty()).map_err(|e| format!("document re-parse: {e}"))?;
    if reparsed != *doc {
        return Err("document JSON round-trip mismatch".into());
    }
    checks.push("doc round-trip".to_string());

    if let Some(report) = e13 {
        let emitted = report.to_json();
        let back = json::parse(&emitted.pretty()).map_err(|e| format!("report: {e}"))?;
        if back != emitted {
            return Err("EvalReport JSON round-trip mismatch".into());
        }
        let rounds = back.get("rounds").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        if rounds != report.rounds.len() {
            return Err(format!(
                "EvalReport JSON has {rounds} rounds, the report {}",
                report.rounds.len()
            ));
        }
        if rounds == 0 {
            return Err("EvalReport has no fixpoint rounds".into());
        }
        checks.push(format!("e13 report ({rounds} rounds)"));
    }

    if let Some(pct) = e15 {
        if pct >= 5.0 {
            return Err(format!("E15: dormant telemetry overhead {pct:.2}% breaches the 5% bound"));
        }
        checks.push(format!("e15 overhead ({pct:.2}% < 5%)"));
    }

    if let Some((same_results, reduction)) = e16 {
        if !same_results {
            return Err("E16: filtering changed the fixpoint result".into());
        }
        if reduction < 2.0 {
            return Err(format!("E16: solver-work reduction {reduction:.2}x below the 2x target"));
        }
        checks.push(format!("e16 filtering ({reduction:.2}x)"));
    }

    if let Some((byte_identical, reduction)) = e17 {
        if !byte_identical {
            return Err("E17: multiway join changed the fixpoint result".into());
        }
        if reduction < 2.0 {
            return Err(format!("E17: solver-call reduction {reduction:.2}x below the 2x target"));
        }
        checks.push(format!("e17 multiway ({reduction:.2}x)"));
    }

    if let Some((byte_identical, solver_reduction, wall_reduction)) = e18 {
        if !byte_identical {
            return Err("E18: incremental maintenance diverged from the re-run".into());
        }
        if solver_reduction < 10.0 {
            return Err(format!(
                "E18: per-update solver-call reduction {solver_reduction:.2}x below the 10x target"
            ));
        }
        if wall_reduction < 10.0 {
            return Err(format!(
                "E18: per-update wall-time reduction {wall_reduction:.2}x below the 10x target"
            ));
        }
        checks.push(format!(
            "e18 incremental ({solver_reduction:.2}x solver, {wall_reduction:.2}x wall)"
        ));
    }

    if let Some(outcome) = e19 {
        // Histogram totals must equal the corresponding counter totals:
        // every sample lands in exactly one scope, so the scoped
        // histogram and the scoped counter count the same events.
        let scope = |name: &str| {
            outcome
                .snapshot
                .scopes
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| format!("E19: telemetry scope \"{name}\" missing"))
        };
        let fixpoint = scope("fixpoint")?;
        let identities: [(&str, u64, u64); 3] = [
            (
                hist::QE_CALL_NS,
                fixpoint.metrics.hists.get(hist::QE_CALL_NS).map_or(0, Histogram::count),
                fixpoint.metrics.get(Counter::QeCalls),
            ),
            (
                hist::FIXPOINT_ROUND_NS,
                fixpoint.metrics.hists.get(hist::FIXPOINT_ROUND_NS).map_or(0, Histogram::count),
                fixpoint.metrics.get(Counter::FixpointRounds),
            ),
            (
                hist::MULTIWAY_FANOUT,
                fixpoint.metrics.hists.get(hist::MULTIWAY_FANOUT).map_or(0, Histogram::sum),
                fixpoint.metrics.get(Counter::MultiwayProbes),
            ),
        ];
        for (name, hist_total, counter_total) in identities {
            if hist_total != counter_total {
                return Err(format!(
                    "E19: {name} histogram total {hist_total} != counter total {counter_total}"
                ));
            }
            if hist_total == 0 {
                return Err(format!("E19: {name} recorded no samples — the check is vacuous"));
            }
        }
        let view = scope("view")?;
        let updates = view.metrics.hists.get(hist::VIEW_UPDATE_NS).map_or(0, Histogram::count);
        if updates != outcome.view_updates {
            return Err(format!(
                "E19: view_update_ns count {updates} != {} applied updates",
                outcome.view_updates
            ));
        }

        // Quantiles must be monotone in q for every histogram.
        for reading in &outcome.snapshot.scopes {
            for (name, h) in &reading.metrics.hists {
                let mut prev = 0u64;
                for step in 0..=10u32 {
                    let q = f64::from(step) / 10.0;
                    let v = h.quantile(q).ok_or_else(|| {
                        format!(
                            "E19: {}/{name} quantile({q}) on a non-empty histogram",
                            reading.name
                        )
                    })?;
                    if v < prev {
                        return Err(format!(
                            "E19: {}/{name} quantile({q}) = {v} < quantile({}) = {prev}",
                            reading.name,
                            (f64::from(step) - 1.0) / 10.0
                        ));
                    }
                    prev = v;
                }
            }
        }

        // Both expositions validate, and the JSON one round-trips.
        let prom_samples = expose::validate_prometheus(&outcome.prometheus)
            .map_err(|e| format!("E19: prometheus exposition: {e}"))?;
        let json_samples = expose::validate_json(&outcome.json)
            .map_err(|e| format!("E19: json exposition: {e}"))?;
        let back = json::parse(&outcome.json.pretty())
            .map_err(|e| format!("E19: exposition re-parse: {e}"))?;
        if back != outcome.json {
            return Err("E19: exposition JSON round-trip mismatch".into());
        }

        // The gate must be a faithful detector: the run compared against
        // itself is clean, and an injected 2x wall slowdown is caught.
        let clean = gate::compare_docs(doc, doc);
        if !clean.regressions().is_empty() {
            return Err(format!("E19: gate flags a run against itself:\n{}", clean.render_text()));
        }
        let slowed = gate::scale_wall_metrics(doc, 2.0);
        let tripped = gate::compare_docs(&slowed, doc);
        if tripped.regressions().is_empty() {
            return Err("E19: injected 2x wall slowdown did not trip the gate".into());
        }
        checks.push(format!(
            "e19 telemetry ({prom_samples} prom / {json_samples} json samples, gate trips on 2x)"
        ));
    }

    if let Some(outcome) = e20 {
        if !outcome.exemplar_coverage {
            return Err(format!(
                "E20: not every nonzero bucket ({} total) carries a valid, resolving exemplar",
                outcome.nonzero_buckets
            ));
        }
        if !outcome.recorder_no_drops {
            return Err("E20: recorder rings dropped events on a workload sized to fit".into());
        }
        if !outcome.breach_tripped {
            return Err("E20: injected 2x-over-SLO update did not trip the watchdog".into());
        }
        if !outcome.dump_parsed {
            return Err(
                "E20: SLO breach dump missing, unparseable, or spans not strictly nested".into()
            );
        }
        checks.push(format!(
            "e20 recorder ({} exemplar'd buckets, breach dumped+parsed)",
            outcome.nonzero_buckets
        ));
    }

    if let Some(outcome) = e21 {
        if outcome.sessions < 10_000 {
            return Err(format!(
                "E21: only {} simulated client sessions (the bar is 10,000+)",
                outcome.sessions
            ));
        }
        if !outcome.isolation_ok {
            return Err(
                "E21: a reader observed a torn snapshot, a non-monotone epoch, or the final \
                 state diverged from the serial commit sequence"
                    .into(),
            );
        }
        if !outcome.results_identical {
            return Err(
                "E21: snapshot-mode answers diverged from the clone-per-query baseline".into()
            );
        }
        if outcome.throughput_reduction < 4.0 {
            return Err(format!(
                "E21: snapshot serving at {:.2}x the clone-per-query throughput (bar: ≥4x)",
                outcome.throughput_reduction
            ));
        }
        if outcome.shed != 0 {
            return Err(format!(
                "E21: {} closed-loop requests shed — admission accounting is wrong",
                outcome.shed
            ));
        }
        if !(outcome.p50_ms > 0.0 && outcome.p99_ms >= outcome.p50_ms) {
            return Err(format!(
                "E21: latency quantiles missing or non-monotone (p50 {} ms, p99 {} ms)",
                outcome.p50_ms, outcome.p99_ms
            ));
        }
        if !outcome.prometheus_valid {
            return Err("E21: the gauge/tenant exposition failed Prometheus validation".into());
        }
        checks.push(format!(
            "e21 server ({:.2}x qps, p99 {:.3} ms)",
            outcome.throughput_reduction, outcome.p99_ms
        ));
    }

    if let Some(dropped) = trace_dropped {
        if dropped > 0 {
            return Err(format!(
                "chrome trace incomplete: the recorder evicted {dropped} event(s)"
            ));
        }
        let text =
            std::fs::read_to_string(TRACE_PATH).map_err(|e| format!("read {TRACE_PATH}: {e}"))?;
        let events = chrome::parse(&text).map_err(|e| format!("chrome trace: {e}"))?;
        if let Some((a, b)) = chrome::nesting_violation(&events) {
            return Err(format!("chrome trace spans \"{a}\" and \"{b}\" partially overlap"));
        }
        checks.push(format!("chrome trace ({} events)", events.len()));
    }
    Ok(checks.join(", "))
}
