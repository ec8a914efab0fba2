//! # cql-trace — observability for the CQL evaluation stack
//!
//! The paper's claims are *complexity* claims (closed-form evaluation in
//! LOGSPACE/PTIME/NC); trusting a perf change to the engine means being
//! able to see where evaluation work goes. This crate is that layer,
//! threaded through `cql-core`, `cql-engine`, the four theory crates and
//! the bench harness:
//!
//! * [`MetricsScope`] — scoped, thread-aggregated evaluation counters
//!   and per-operator timings. Per-query, nestable, merge-on-drop;
//!   exact under any executor width (the engine's executor installs the
//!   scope on every worker). Work done with no scope installed is not
//!   counted: there is no process-wide total.
//! * [`span()`]/[`SpanGuard`] — span sites around calculus disjuncts,
//!   algebra operators, fixpoint rounds, QE calls, executor batches and
//!   interner epochs, all captured by the flight recorder below.
//! * [`recorder`] — the flight recorder: span sites captured into
//!   per-thread fixed-capacity rings of compact events, switched at
//!   runtime by a [`RecorderConfig`] (off / sampled 1-in-N / always; off
//!   costs one relaxed atomic load per site). Rings ride the scope
//!   merge-on-drop fold, so capture is exact-attribution at any executor
//!   width. No build feature is involved.
//! * [`exemplar`] — histogram exemplars: each log-bucket retains the
//!   most recent `(span id, scope, value)` triple, exposed through the
//!   Prometheus (`# {…}` OpenMetrics syntax) and JSON expositions, so a
//!   p99 bucket links to the recorded span that landed there.
//! * [`watchdog`] — declarative SLO rules (p99 of `view_update_ns`
//!   under 2ms) checked at scope drop; a breach freezes the scope's
//!   recorder rings, dumps them as a chrome trace and records a
//!   [`SloBreach`].
//! * [`EvalReport`] — the EXPLAIN artifact: per-round fixpoint telemetry
//!   (delta size, tuples produced/subsumed, entailment checks, QE and
//!   wall time), per-operator inclusive timings, counter totals.
//!   Renders as a text table or JSON; `repro --trace <exp> --json`
//!   emits it mechanically. Write-only: nothing parses it back.
//! * [`Histogram`] — dependency-free log-bucketed streaming histograms
//!   (~1.6% relative error, exact bucket-wise merge) recorded for QE
//!   call latency, fixpoint-round wall, multiway-probe fanout and
//!   incremental-update latency; merged through the same scope
//!   merge-on-drop path as the counters, so distributions stay exact at
//!   any executor width.
//! * [`TelemetryRegistry`] — long-lived named scopes (the per-tenant
//!   shape a server pins) with sampled gauges and snapshot-on-demand;
//!   [`expose`] renders a snapshot as Prometheus-style text or JSON and
//!   validates both.
//! * [`chrome`] — a `trace_event` JSON exporter, loadable in
//!   `about://tracing` / Perfetto.
//! * [`json`] — the minimal in-repo JSON support all of the above use
//!   (the build environment is offline; no `serde`).
//!
//! This crate is dependency-free and theory-agnostic: it knows nothing
//! about constraints or relations, only counters, spans and reports.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod exemplar;
pub mod expose;
pub mod histogram;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod scope;
pub mod span;
pub mod watchdog;

pub use exemplar::Exemplar;
pub use histogram::Histogram;
pub use json::Json;
pub use recorder::{RecorderConfig, RingStats, SpanEvent};
pub use registry::{ScopeReading, TelemetryRegistry, TelemetrySnapshot};
pub use report::{EvalReport, OperatorStats, PlanStats, RoundStats, UpdateStats};
pub use scope::{
    count, current_handle, hist, op_timed, qe_timed, record_hist, Counter, MetricsScope,
    MetricsSnapshot, OpAgg, ScopeHandle,
};
pub use span::{span, SpanGuard, SpanRecord};
pub use watchdog::{SloBreach, SloRule};
