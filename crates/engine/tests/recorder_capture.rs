//! Flight-recorder exactness and SLO-watchdog end-to-end checks.
//!
//! Companion to `histogram_merge.rs` for the runtime flight
//! recorder: span events captured into a [`MetricsScope`]'s per-thread
//! rings ride the same merge-on-drop fold as the counters, so with
//! sampling off (mode `Always`) the multiset of captured span names is
//! identical at any executor width — except for the executor's own
//! `executor.batch`/`executor.worker` spans, whose count is by
//! construction a function of the width. The capture is also exact: one
//! `fixpoint.round` span per reported round, one `qe.*` span per counted
//! QE call, and spans that nest strictly per thread in the chrome dump.
//!
//! The second test drives the watchdog end to end: an armed
//! `view_update_ns p99 < 1ms` rule plus one injected 2× slowdown sample
//! must produce a breach at scope drop, and the frozen rings must dump
//! to a chrome-trace file that round-trips through the in-repo parser.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use cql_core::theory::Theory;
use cql_core::{Database, GenRelation, GenTuple};
use cql_dense::{Dense, DenseConstraint};
use cql_engine::datalog::{self, Atom, FixpointOptions, Literal, MaterializedView, Program, Rule};
use cql_engine::trace::recorder::{self, RecorderConfig};
use cql_engine::trace::watchdog::{self, SloRule};
use cql_engine::trace::{chrome, hist, record_hist, Counter, MetricsScope};

/// Recorder mode, rules and rings are process-global; serialize the
/// tests that reconfigure them.
static RECORDER_TESTS: Mutex<()> = Mutex::new(());

fn tc_program<T: Theory>() -> Program<T> {
    Program::new(vec![
        Rule::new(Atom::new("T", vec![0, 1]), vec![Literal::Pos(Atom::new("E", vec![0, 1]))]),
        Rule::new(
            Atom::new("T", vec![0, 1]),
            vec![
                Literal::Pos(Atom::new("T", vec![0, 2])),
                Literal::Pos(Atom::new("E", vec![2, 1])),
            ],
        ),
    ])
}

fn chain_db<T: Theory>(values: &[T::Value]) -> Database<T> {
    let mut db = Database::new();
    db.insert(
        "E",
        GenRelation::from_conjunctions(
            2,
            values.windows(2).map(|w| vec![T::var_const_eq(0, &w[0]), T::var_const_eq(1, &w[1])]),
        ),
    );
    db
}

/// The multiset of `(name, cat)` pairs the recorder captured for one
/// scoped fixpoint, with the width-dependent executor spans filtered
/// out, after checking the capture against the run's own accounting.
fn captured_multiset(threads: usize) -> BTreeMap<(String, String), usize> {
    let scope = MetricsScope::enter("capture");
    let opts = FixpointOptions { threads, ..Default::default() };
    let program = tc_program::<Dense>();
    let values: Vec<cql_arith::Rat> = (0..6).map(cql_arith::Rat::from).collect();
    let db = chain_db::<Dense>(&values);
    let result = datalog::seminaive(&program, &db, &opts).expect("fixpoint converges");
    let qe_calls = scope.snapshot().get(Counter::QeCalls);
    let events = scope.handle().take_events();

    let names: Vec<&str> = events.iter().map(|e| recorder::resolve_label(e.label)).collect();
    let rounds = names.iter().filter(|&&n| n == "fixpoint.round").count();
    assert_eq!(rounds, result.rounds.len(), "one round span per reported round at width {threads}");
    let qe_spans = names.iter().filter(|n| n.starts_with("qe.")).count() as u64;
    assert!(qe_calls > 0, "no QE calls counted — the check is vacuous");
    assert_eq!(qe_spans, qe_calls, "one qe.* span per counted QE call at width {threads}");
    let dump = chrome::render(&recorder::to_span_records(&events)).render();
    let parsed = chrome::parse(&dump).expect("capture renders as a chrome trace");
    assert_eq!(parsed.len(), events.len());
    assert_eq!(chrome::nesting_violation(&parsed), None, "spans nest strictly at width {threads}");

    let mut multiset = BTreeMap::new();
    for event in &events {
        let name = recorder::resolve_label(event.label).to_string();
        let cat = recorder::resolve_label(event.cat).to_string();
        if name.starts_with("executor.") {
            continue; // batch/worker span counts are width-dependent
        }
        *multiset.entry((name, cat)).or_insert(0) += 1;
    }
    multiset
}

#[test]
fn capture_multiset_is_width_invariant_with_sampling_off() {
    let _serial = RECORDER_TESTS.lock().unwrap_or_else(PoisonError::into_inner);
    recorder::set_ring_capacity(1 << 16);
    recorder::set_config(RecorderConfig::Always);
    let reference = captured_multiset(1);
    assert!(
        reference.keys().any(|(name, _)| name == "fixpoint.round"),
        "no fixpoint rounds captured — the test is vacuous: {reference:?}"
    );
    assert!(
        reference.keys().any(|(name, _)| name == "multiway.join"),
        "recursive rule must take the multiway path: {reference:?}"
    );
    for width in [4, 8] {
        let multiset = captured_multiset(width);
        assert_eq!(reference, multiset, "capture multiset diverged at width {width}");
    }
    recorder::set_config(RecorderConfig::Off);
    let (_, dropped) = recorder::totals();
    assert_eq!(dropped, 0, "rings sized for the workload must not drop events");
}

#[test]
fn injected_slowdown_trips_watchdog_and_dumps_parseable_trace() {
    let _serial = RECORDER_TESTS.lock().unwrap_or_else(PoisonError::into_inner);
    recorder::set_ring_capacity(1 << 16);
    recorder::set_config(RecorderConfig::Always);
    let dump_dir = std::env::temp_dir().join("cql-recorder-capture-test");
    let _ = std::fs::remove_dir_all(&dump_dir);
    watchdog::set_dump_dir(Some(dump_dir.clone()));
    watchdog::set_rules(vec![SloRule::new(hist::VIEW_UPDATE_NS, 0.99, 1_000_000)]);
    let _ = watchdog::take_breaches(); // drop stale history

    let breaches = {
        let scope = MetricsScope::enter("view-maint");
        let opts = FixpointOptions { threads: 1, ..Default::default() };
        let program = tc_program::<Dense>();
        let mut edb = Database::new();
        edb.insert("E", GenRelation::<Dense>::empty(2));
        let mut view = MaterializedView::new(program, &edb, opts).expect("view construction");
        let edge =
            GenTuple::new(vec![DenseConstraint::eq_const(0, 1), DenseConstraint::eq_const(1, 2)])
                .expect("satisfiable edge");
        view.insert("E", edge).expect("insert propagates");
        // Inject a 2× slowdown over the declared 1ms objective: a real
        // pathological update would record exactly such a sample.
        record_hist(hist::VIEW_UPDATE_NS, 2_000_000);
        drop(scope); // the at-drop check runs here
        watchdog::take_breaches()
    };
    recorder::set_config(RecorderConfig::Off);
    watchdog::set_rules(Vec::new());
    watchdog::set_dump_dir(None);

    let breach = breaches
        .iter()
        .find(|b| b.scope == "view-maint" && b.hist == "view_update_ns")
        .expect("injected slowdown must trip the armed rule");
    assert!(breach.observed >= 1_000_000, "p99 must reflect the injected sample");
    assert_eq!(breach.dump_error, None, "dump must succeed: {:?}", breach.dump_error);
    let path = breach.dump_path.as_ref().expect("dump path recorded");
    assert!(breach.events_dumped > 0, "frozen rings must hold the view-update spans");
    let text = std::fs::read_to_string(path).expect("dump file exists");
    let events = chrome::parse(&text).expect("dump parses as a chrome trace");
    assert_eq!(events.len(), breach.events_dumped);
    assert!(
        events.iter().any(|e| e.name == "view.insert"),
        "dump must contain the recorded view-update span"
    );
    assert_eq!(chrome::nesting_violation(&events), None, "dumped spans must nest strictly");
    let _ = std::fs::remove_dir_all(&dump_dir);
}
