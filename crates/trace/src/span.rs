//! Span sites: RAII spans and instant events captured by the flight
//! recorder ([`crate::recorder`]).
//!
//! A span site costs one relaxed atomic load while the recorder is off
//! (the default). When it is on, the span becomes a compact
//! [`crate::SpanEvent`] in the innermost scope's rings;
//! [`crate::recorder::to_span_records`] expands captured events into
//! [`SpanRecord`]s, which [`crate::chrome::render`] turns into a
//! `trace_event` JSON file loadable in `about://tracing` / Perfetto.
//!
//! Span taxonomy used by the engine (see DESIGN.md "Observability"):
//! `query` (one per evaluation entry), `round` (one per fixpoint round),
//! `op` (algebra operators, calculus nodes, QE calls), `engine`
//! (executor batches, interner and QE-cache epochs, join planning and
//! multiway rule joins; `qe_cache.epoch` instants mark cache clears).

use crate::json::Json;

/// One span (or instant event, when `dur_ns` is `None`) in the shape the
/// chrome exporter renders.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span name (e.g. `"fixpoint.round"`, `"qe.dense"`).
    pub name: &'static str,
    /// Category (`"query"`, `"round"`, `"op"`, `"engine"`).
    pub cat: &'static str,
    /// Trace-local thread id (dense small integers, not OS tids).
    pub tid: u64,
    /// Start, nanoseconds since the recorder epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds; `None` marks an instant event.
    pub dur_ns: Option<u64>,
    /// Arguments attached to the span.
    pub args: Vec<(&'static str, Json)>,
}

/// Record an instant event (e.g. an interner epoch flush), captured by
/// the flight recorder when it is on.
#[inline]
pub fn instant(name: &'static str, cat: &'static str) {
    if crate::recorder::enabled() {
        if let Some(event) = crate::recorder::instant_event(name, cat) {
            crate::scope::sink_event(event);
        }
    }
}

/// RAII span: measures from construction to drop. Inert (one relaxed
/// atomic load at open) when the flight recorder is off.
pub struct SpanGuard {
    /// `None` unless the recorder sampled this span.
    rec: Option<crate::recorder::OpenEvent>,
}

/// Open a span. Spans on one thread must close in LIFO order (RAII makes
/// this automatic), which is what gives the chrome trace its strict
/// nesting. The flight recorder ([`crate::recorder`]) captures the span
/// into the innermost scope's rings when it is on.
#[inline]
#[must_use]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    let rec = if crate::recorder::enabled() { crate::recorder::begin(name, cat) } else { None };
    SpanGuard { rec }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(rec) = self.rec.take() {
            crate::scope::sink_event(crate::recorder::finish(rec));
        }
    }
}
