//! Scoped, thread-aggregated evaluation metrics.
//!
//! The previous design kept five process-global atomics (a `metrics`
//! module in the core crate, since removed): correct for a single
//! benchmark loop, racy and meaningless the moment two tests — or two
//! queries — run concurrently. A [`MetricsScope`] replaces them:
//!
//! * **per-query** — a scope is opened around one evaluation and sees
//!   only the work done under it;
//! * **nestable** — scopes stack per thread (a per-round scope inside a
//!   per-query scope); counts land in the innermost scope;
//! * **thread-aggregated** — the engine's executor installs the
//!   spawning thread's scope on every worker ([`ScopeHandle::install`]),
//!   so counts from parallel batches land in the *same* shared counter
//!   set and totals are exact at any `CQL_ENGINE_THREADS`;
//! * **merge-on-drop** — when a scope closes, its totals fold into the
//!   enclosing scope, so outer scopes always end up with the sum over
//!   their children. A top-level scope folds into nothing: its owner
//!   reads it through [`MetricsScope::snapshot`] before it drops. There
//!   is no process-wide total.
//!
//! Counting sites call [`count`] (a thread-local lookup plus one relaxed
//! `fetch_add`), [`record_hist`] and [`op_timed`]. With no scope
//! installed, the first two are no-ops and [`op_timed`] skips the clock
//! unless the flight recorder is on. Only recorder events outlive a
//! top-level scope: they move to the process-root buffer that
//! [`recorder::take_root_events`] drains.

use crate::histogram::Histogram;
use crate::recorder::{self, EventBuffer, RingStats, SpanEvent};
use crate::watchdog;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Names of the histograms the engine records through [`record_hist`].
/// Kept in one place so recording sites, reports and selfchecks agree.
pub mod hist {
    /// Per-call solver/QE latency, nanoseconds (recorded by [`super::qe_timed`];
    /// its `count()` equals the [`super::Counter::QeCalls`] delta of the
    /// same scope).
    pub const QE_CALL_NS: &str = "qe_call_ns";
    /// Fixpoint round wall time, nanoseconds (its `count()` equals the
    /// [`super::Counter::FixpointRounds`] delta of the same scope).
    pub const FIXPOINT_ROUND_NS: &str = "fixpoint_round_ns";
    /// Candidate bindings probed per multiway-join execution (its
    /// `sum()` equals the [`super::Counter::MultiwayProbes`] delta of
    /// the same scope).
    pub const MULTIWAY_FANOUT: &str = "multiway_fanout";
    /// Per-update `MaterializedView` insert/retract latency, nanoseconds.
    pub const VIEW_UPDATE_NS: &str = "view_update_ns";
}

/// The fixed evaluation counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// `Theory::entails` calls made by relation inserts.
    EntailmentChecks,
    /// Subsumption candidates skipped by the signature bucket-subset test.
    SignatureSkips,
    /// Subsumption candidates skipped by the cached-sample-point test.
    SampleSkips,
    /// Canonicalizations avoided by the engine's tuple interner.
    InternHits,
    /// Interner misses (canonicalization actually ran).
    InternMisses,
    /// Interner memo tables cleared on overflow (an "epoch" boundary).
    InternerEpochs,
    /// Tuples admitted by `GenRelation::insert`.
    TuplesInserted,
    /// Tuples rejected by `GenRelation::insert` (duplicate or subsumed).
    TuplesSubsumed,
    /// Stored tuples evicted because a new tuple subsumed them.
    TuplesEvicted,
    /// Quantifier-elimination calls (theory `eliminate` entry points).
    QeCalls,
    /// Fixpoint rounds executed.
    FixpointRounds,
    /// Disjunct pairs an exhaustive join/firing would have conjoined
    /// (the denominator of the summary-pruning win).
    PruneCandidates,
    /// Disjunct pairs whose summaries may intersect — the pairs actually
    /// handed to the solver after pruning.
    PruneSurvivors,
    /// Quantifier eliminations served from the engine's QE memo cache
    /// (no solver call, no `QeCalls` bump).
    QeCacheHits,
    /// Candidate bindings examined by the multiway join's leapfrog
    /// backtracking search (one per summary-level probe at any depth).
    MultiwayProbes,
    /// Full body-atom combinations that survived every summary level and
    /// were handed to the solver for canonicalization.
    MultiwaySurvivors,
    /// Rule firings that reused a cached `JoinPlan` (variable order +
    /// atom order) instead of re-planning.
    PlanCacheHits,
    /// Join-plan atom-data cache reuses: a rule-body atom's renamed
    /// tuples, summaries and levels (`AtomData`) served from the plan
    /// cache because the source relation's content version was
    /// unchanged since the cached build.
    SummaryIndexReuses,
    /// Delta-restricted rule-firing rounds run by incremental view
    /// maintenance (insert or retract propagation).
    DeltaRounds,
    /// Over-deleted tuples re-inserted during the re-derivation phase of
    /// an incremental retract because they retained alternative support.
    Rederivations,
    /// Support-count adjustments (increments plus decrements) applied to
    /// derived tuples by incremental view maintenance.
    SupportAdjust,
    /// QE memo-cache shards cleared on overflow (an "epoch" boundary).
    QeCacheEpochs,
    /// Flight-recorder events evicted from a full ring (at capture or
    /// during the merge-on-drop fold) — nonzero means dumps are partial.
    RecorderDropped,
}

const N_COUNTERS: usize = 23;

/// All [`Counter`] variants, in order (for generic reporting loops).
pub(crate) const COUNTERS: [Counter; N_COUNTERS] = [
    Counter::EntailmentChecks,
    Counter::SignatureSkips,
    Counter::SampleSkips,
    Counter::InternHits,
    Counter::InternMisses,
    Counter::InternerEpochs,
    Counter::TuplesInserted,
    Counter::TuplesSubsumed,
    Counter::TuplesEvicted,
    Counter::QeCalls,
    Counter::FixpointRounds,
    Counter::PruneCandidates,
    Counter::PruneSurvivors,
    Counter::QeCacheHits,
    Counter::MultiwayProbes,
    Counter::MultiwaySurvivors,
    Counter::PlanCacheHits,
    Counter::SummaryIndexReuses,
    Counter::DeltaRounds,
    Counter::Rederivations,
    Counter::SupportAdjust,
    Counter::QeCacheEpochs,
    Counter::RecorderDropped,
];

impl Counter {
    /// Stable snake_case name (JSON keys, report rows).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::EntailmentChecks => "entailment_checks",
            Counter::SignatureSkips => "signature_skips",
            Counter::SampleSkips => "sample_skips",
            Counter::InternHits => "intern_hits",
            Counter::InternMisses => "intern_misses",
            Counter::InternerEpochs => "interner_epochs",
            Counter::TuplesInserted => "tuples_inserted",
            Counter::TuplesSubsumed => "tuples_subsumed",
            Counter::TuplesEvicted => "tuples_evicted",
            Counter::QeCalls => "qe_calls",
            Counter::FixpointRounds => "fixpoint_rounds",
            Counter::PruneCandidates => "prune_candidates",
            Counter::PruneSurvivors => "prune_survivors",
            Counter::QeCacheHits => "qe_cache_hits",
            Counter::MultiwayProbes => "multiway_probes",
            Counter::MultiwaySurvivors => "multiway_survivors",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::SummaryIndexReuses => "summary_index_reuses",
            Counter::DeltaRounds => "delta_rounds",
            Counter::Rederivations => "rederivations",
            Counter::SupportAdjust => "support_adjust",
            Counter::QeCacheEpochs => "qe_cache_epochs",
            Counter::RecorderDropped => "recorder_dropped",
        }
    }
}

#[derive(Default)]
struct CounterSet {
    cells: [AtomicU64; N_COUNTERS],
}

impl CounterSet {
    fn add(&self, counter: Counter, n: u64) {
        if n > 0 {
            self.cells[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Aggregated timing for one named operator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpAgg {
    /// Number of invocations.
    pub calls: u64,
    /// Total inclusive wall time, nanoseconds.
    pub nanos: u64,
}

/// An immutable snapshot of a scope's totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; N_COUNTERS],
    /// Per-operator inclusive wall time, keyed by operator name
    /// (`"qe.dense"`, `"algebra.project"`, …).
    pub ops: BTreeMap<&'static str, OpAgg>,
    /// Latency/fanout distributions, keyed by histogram name (see
    /// [`hist`]). Merged exactly across threads and child scopes.
    pub hists: BTreeMap<&'static str, Histogram>,
}

impl MetricsSnapshot {
    /// The value of one counter.
    #[must_use]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Pointwise difference `self - earlier` (counters saturate at 0;
    /// operator aggregates subtract per key).
    #[must_use]
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut counters = [0u64; N_COUNTERS];
        for (i, slot) in counters.iter_mut().enumerate() {
            *slot = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        let mut ops = BTreeMap::new();
        for (&name, agg) in &self.ops {
            let before = earlier.ops.get(name).copied().unwrap_or_default();
            let diff = OpAgg {
                calls: agg.calls.saturating_sub(before.calls),
                nanos: agg.nanos.saturating_sub(before.nanos),
            };
            if diff.calls > 0 || diff.nanos > 0 {
                ops.insert(name, diff);
            }
        }
        let mut hists = BTreeMap::new();
        for (&name, hist) in &self.hists {
            let before = earlier.hists.get(name);
            let diff = match before {
                Some(before) => hist.since(before),
                None => hist.clone(),
            };
            if diff.count() > 0 {
                hists.insert(name, diff);
            }
        }
        MetricsSnapshot { counters, ops, hists }
    }

    /// Render the counters as `(name, value)` rows.
    #[must_use]
    pub(crate) fn rows(&self) -> Vec<(&'static str, u64)> {
        COUNTERS.iter().map(|&c| (c.name(), self.get(c))).collect()
    }
}

struct ScopeInner {
    name: String,
    counters: CounterSet,
    ops: Mutex<BTreeMap<&'static str, OpAgg>>,
    hists: Mutex<BTreeMap<&'static str, Histogram>>,
    /// Flight-recorder rings (one per recording thread) holding the
    /// scope's most recent span events; always present, usually empty
    /// (the recorder defaults to off).
    events: Mutex<EventBuffer>,
}

impl ScopeInner {
    fn new(name: &str) -> ScopeInner {
        ScopeInner {
            name: name.to_string(),
            counters: CounterSet::default(),
            ops: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            events: Mutex::new(EventBuffer::default()),
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = [0u64; N_COUNTERS];
        for (i, slot) in counters.iter_mut().enumerate() {
            *slot = self.counters.cells[i].load(Ordering::Relaxed);
        }
        MetricsSnapshot {
            counters,
            ops: self.ops.lock().expect("scope ops poisoned").clone(),
            hists: self.hists.lock().expect("scope hists poisoned").clone(),
        }
    }

    fn add_op(&self, op: &'static str, duration: Duration) {
        let mut ops = self.ops.lock().expect("scope ops poisoned");
        let agg = ops.entry(op).or_default();
        agg.calls += 1;
        agg.nanos += u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
    }

    /// Record one histogram sample, stamping the sample's bucket with a
    /// flight-recorder exemplar when a recorded span is on hand.
    fn add_hist_exemplar(&self, name: &'static str, value: u64, span_id: Option<u64>) {
        let mut hists = self.hists.lock().expect("scope hists poisoned");
        let hist = hists.entry(name).or_default();
        match span_id {
            Some(span_id) => hist.record_exemplar(value, span_id, &self.name),
            None => hist.record(value),
        }
    }

    /// Push one flight-recorder event into the scope's rings, counting
    /// any eviction. Returns the number of evicted events.
    fn push_event(&self, event: SpanEvent) -> u64 {
        let evicted = self.events.lock().expect("scope events poisoned").push(event);
        recorder::note_recorded(evicted);
        if evicted > 0 {
            self.counters.add(Counter::RecorderDropped, evicted);
        }
        evicted
    }
}

/// Deliver one flight-recorder event to the calling thread's innermost
/// scope, or to the process-root buffer when no scope is installed.
pub(crate) fn sink_event(event: SpanEvent) {
    if let Some(handle) = current_handle() {
        handle.inner.push_event(event);
    } else {
        let evicted = recorder::root_buffer().lock().expect("recorder root poisoned").push(event);
        recorder::note_recorded(evicted);
    }
}

/// A cloneable, `Send` handle to a live scope — what the executor carries
/// across threads so worker counts aggregate into the owning scope.
#[derive(Clone)]
pub struct ScopeHandle {
    inner: Arc<ScopeInner>,
}

impl ScopeHandle {
    /// A free-standing, long-lived scope that is not installed on any
    /// thread and never merges on drop — the shape a
    /// [`TelemetryRegistry`](crate::TelemetryRegistry) pins per tenant.
    /// Threads participate by calling [`ScopeHandle::install`].
    #[must_use]
    pub(crate) fn detached(name: &str) -> ScopeHandle {
        ScopeHandle { inner: Arc::new(ScopeInner::new(name)) }
    }

    /// Install this scope as the current thread's innermost scope until
    /// the returned guard drops. Used by executor workers; also usable by
    /// hand-rolled threads participating in a scoped evaluation.
    #[must_use]
    pub fn install(&self) -> InstallGuard {
        STACK.with(|stack| stack.borrow_mut().push(self.clone()));
        InstallGuard { inner: Arc::clone(&self.inner) }
    }

    /// Snapshot this scope's totals so far (own counts plus every child
    /// scope that already dropped).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.snapshot()
    }

    /// The flight-recorder events currently held by this scope's rings
    /// (its own captures plus every child scope that already folded),
    /// in timestamp order.
    #[must_use]
    pub fn recorded_events(&self) -> Vec<SpanEvent> {
        self.inner.events.lock().expect("scope events poisoned").events()
    }

    /// Drain this scope's flight-recorder rings, returning the events in
    /// timestamp order (eviction counts are kept).
    #[must_use]
    pub fn take_events(&self) -> Vec<SpanEvent> {
        self.inner.events.lock().expect("scope events poisoned").take_events()
    }

    /// Occupancy of this scope's per-thread rings (fill, capacity and
    /// eviction count per recording thread).
    #[must_use]
    pub fn ring_stats(&self) -> Vec<RingStats> {
        self.inner.events.lock().expect("scope events poisoned").ring_stats()
    }
}

/// Guard returned by [`ScopeHandle::install`]; pops the scope from the
/// installing thread's stack on drop.
pub struct InstallGuard {
    inner: Arc<ScopeInner>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(at) = stack.iter().rposition(|h| Arc::ptr_eq(&h.inner, &self.inner)) {
                stack.remove(at);
            }
        });
    }
}

/// A per-query (or per-round, per-test, …) metrics scope. See the module
/// docs for the aggregation contract.
pub struct MetricsScope {
    handle: ScopeHandle,
    parent: Option<ScopeHandle>,
    _installed: InstallGuard,
}

impl MetricsScope {
    /// Open a scope: it becomes the calling thread's innermost scope, and
    /// the executor propagates it to workers. The enclosing scope (if
    /// any) is remembered as the merge target.
    #[must_use]
    pub fn enter(name: &str) -> MetricsScope {
        let parent = current_handle();
        let handle = ScopeHandle::detached(name);
        let installed = handle.install();
        MetricsScope { handle, parent, _installed: installed }
    }

    /// A `Send` handle for cross-thread aggregation.
    #[must_use]
    pub fn handle(&self) -> ScopeHandle {
        self.handle.clone()
    }

    /// Totals recorded under this scope so far.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.handle.snapshot()
    }
}

impl Drop for MetricsScope {
    fn drop(&mut self) {
        let inner = &self.handle.inner;
        // SLO watchdog first: a breach freezes this scope's recorder
        // rings (draining them into the dump instead of the fold below).
        if watchdog::armed() {
            watchdog::check(&inner.name, &inner.snapshot(), || self.handle.take_events());
        }
        let mut events = std::mem::take(&mut *inner.events.lock().expect("scope events poisoned"));
        let Some(parent) = &self.parent else {
            // A top-level scope's totals were read through `snapshot`;
            // only its recorder events outlive it, for `take_root_events`.
            if !events.is_empty() {
                let mut root = recorder::root_buffer().lock().expect("recorder root poisoned");
                recorder::note_merge_dropped(root.merge(&mut events));
            }
            return;
        };
        // Fold into the enclosing scope, so ancestors see the sum over
        // their completed children.
        let snap = inner.snapshot();
        for &c in &COUNTERS {
            parent.inner.counters.add(c, snap.get(c));
        }
        let mut ops = parent.inner.ops.lock().expect("scope ops poisoned");
        for (name, agg) in &snap.ops {
            let slot = ops.entry(name).or_default();
            slot.calls += agg.calls;
            slot.nanos += agg.nanos;
        }
        drop(ops);
        let mut hists = parent.inner.hists.lock().expect("scope hists poisoned");
        for (name, hist) in &snap.hists {
            hists.entry(name).or_default().merge(hist);
        }
        drop(hists);
        let evicted = parent.inner.events.lock().expect("scope events poisoned").merge(&mut events);
        recorder::note_merge_dropped(evicted);
        parent.inner.counters.add(Counter::RecorderDropped, evicted);
    }
}

thread_local! {
    static STACK: RefCell<Vec<ScopeHandle>> = const { RefCell::new(Vec::new()) };
}

/// The current thread's innermost scope, if any.
#[must_use]
pub fn current_handle() -> Option<ScopeHandle> {
    STACK.with(|stack| stack.borrow().last().cloned())
}

/// Increment a counter by `n` in the innermost scope of the calling
/// thread. With no scope installed this is a no-op (one thread-local
/// read), like [`record_hist`].
pub fn count(counter: Counter, n: u64) {
    STACK.with(|stack| {
        if let Some(handle) = stack.borrow().last() {
            handle.inner.counters.add(counter, n);
        }
    });
}

/// Record one sample into the named histogram of the calling thread's
/// innermost scope. **Scope-only**: with no scope installed this is a
/// no-op (one thread-local read), so dormant instrumentation sites stay
/// inside the E15 overhead budget; scoped samples reach ancestors through
/// the merge-on-drop path, which keeps merged distributions bucket-exact
/// at any executor width.
///
/// When the flight recorder is capturing and a recorded span is open on
/// this thread, the sample's bucket is stamped with that span as its
/// exemplar (see [`crate::exemplar`]).
pub fn record_hist(name: &'static str, value: u64) {
    STACK.with(|stack| {
        if let Some(handle) = stack.borrow().last() {
            let span_id = recorder::current_span_id();
            handle.inner.add_hist_exemplar(name, value, span_id);
        }
    });
}

/// Time `f` under an operator label: its inclusive wall time aggregates
/// into the innermost scope's operator table, and the flight recorder
/// captures the interval when it is on. When neither a scope nor the
/// recorder is active, `f` runs untimed — no clock reads at all.
pub fn op_timed<R>(op: &'static str, f: impl FnOnce() -> R) -> R {
    let scope = current_handle();
    if scope.is_none() && !recorder::enabled() {
        return f();
    }
    let start = Instant::now();
    let result = f();
    let elapsed = start.elapsed();
    if let Some(handle) = scope {
        handle.inner.add_op(op, elapsed);
    }
    if let Some((_, event)) = recorder::complete(op, "op", start, elapsed) {
        sink_event(event);
    }
    result
}

/// [`op_timed`] that also bumps [`Counter::QeCalls`] and records the
/// call's latency into the [`hist::QE_CALL_NS`] histogram — the hook the
/// four theory crates wrap their `Theory::eliminate` implementations
/// with. Like [`op_timed`], the clock is skipped entirely when neither a
/// scope nor the recorder is active. When the recorder captures the
/// call, the histogram sample cites the captured span as its exemplar.
pub fn qe_timed<R>(op: &'static str, f: impl FnOnce() -> R) -> R {
    count(Counter::QeCalls, 1);
    let scope = current_handle();
    if scope.is_none() && !recorder::enabled() {
        return f();
    }
    let start = Instant::now();
    let result = f();
    let elapsed = start.elapsed();
    let mut span_id = None;
    if let Some((id, event)) = recorder::complete(op, "op", start, elapsed) {
        sink_event(event);
        span_id = Some(id);
    }
    if let Some(handle) = scope {
        handle.inner.add_op(op, elapsed);
        handle.inner.add_hist_exemplar(
            hist::QE_CALL_NS,
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            span_id,
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_isolates_and_merges_on_drop() {
        let outer = MetricsScope::enter("outer");
        count(Counter::EntailmentChecks, 3);
        {
            let inner = MetricsScope::enter("inner");
            count(Counter::EntailmentChecks, 5);
            assert_eq!(inner.snapshot().get(Counter::EntailmentChecks), 5);
            // Outer does not see the child until it drops.
            assert_eq!(outer.snapshot().get(Counter::EntailmentChecks), 3);
        }
        assert_eq!(outer.snapshot().get(Counter::EntailmentChecks), 8);
    }

    #[test]
    fn cross_thread_counts_aggregate_into_one_scope() {
        let scope = MetricsScope::enter("threaded");
        let handle = scope.handle();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = handle.clone();
                s.spawn(move || {
                    let _g = h.install();
                    for _ in 0..100 {
                        count(Counter::InternHits, 1);
                    }
                });
            }
        });
        assert_eq!(scope.snapshot().get(Counter::InternHits), 400);
    }

    #[test]
    fn op_timed_aggregates_into_scope() {
        let scope = MetricsScope::enter("ops");
        let v = qe_timed("qe.test", || 7);
        assert_eq!(v, 7);
        let snap = scope.snapshot();
        assert_eq!(snap.get(Counter::QeCalls), 1);
        assert_eq!(snap.ops.get("qe.test").map(|a| a.calls), Some(1));
    }

    #[test]
    fn histograms_merge_on_drop_and_across_threads() {
        let outer = MetricsScope::enter("hist-outer");
        record_hist(hist::MULTIWAY_FANOUT, 10);
        {
            let inner = MetricsScope::enter("hist-inner");
            let handle = inner.handle();
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let h = handle.clone();
                    s.spawn(move || {
                        let _g = h.install();
                        record_hist(hist::MULTIWAY_FANOUT, 100 + t);
                    });
                }
            });
            let snap = inner.snapshot();
            assert_eq!(snap.hists[hist::MULTIWAY_FANOUT].count(), 4);
            // Outer does not see the child until it drops.
            assert_eq!(outer.snapshot().hists[hist::MULTIWAY_FANOUT].count(), 1);
        }
        let merged = &outer.snapshot().hists[hist::MULTIWAY_FANOUT];
        assert_eq!(merged.count(), 5);
        assert_eq!(merged.sum(), 10 + 100 + 101 + 102 + 103);
        assert_eq!(merged.min(), Some(10));
        assert_eq!(merged.max(), Some(103));
    }

    #[test]
    fn record_hist_without_scope_is_a_no_op_for_scopes() {
        // No scope installed: neither the sample nor the count may
        // appear in any scope opened afterwards.
        record_hist(hist::VIEW_UPDATE_NS, 42);
        count(Counter::Rederivations, 9);
        let scope = MetricsScope::enter("after");
        let snap = scope.snapshot();
        assert!(!snap.hists.contains_key(hist::VIEW_UPDATE_NS));
        assert_eq!(snap.get(Counter::Rederivations), 0);
    }

    #[test]
    fn qe_timed_records_latency_histogram_in_scope() {
        let scope = MetricsScope::enter("qe-hist");
        for _ in 0..3 {
            qe_timed("qe.test", || std::hint::black_box(1 + 1));
        }
        let snap = scope.snapshot();
        assert_eq!(snap.get(Counter::QeCalls), 3);
        let hist = &snap.hists[hist::QE_CALL_NS];
        assert_eq!(hist.count(), 3, "one histogram sample per QE call");
        assert_eq!(snap.ops["qe.test"].calls, 3);
    }

    #[test]
    fn since_subtracts() {
        let scope = MetricsScope::enter("diff");
        count(Counter::TuplesInserted, 2);
        let before = scope.snapshot();
        count(Counter::TuplesInserted, 5);
        let diff = scope.snapshot().since(&before);
        assert_eq!(diff.get(Counter::TuplesInserted), 5);
    }
}
