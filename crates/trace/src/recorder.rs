//! The flight recorder: runtime-switchable span capture.
//!
//! Every span site ([`mod@crate::span`], [`crate::op_timed`],
//! [`crate::qe_timed`]) feeds the recorder. It is switched at runtime by a
//! [`RecorderConfig`] (off / sampled 1-in-N / always) and bounded by
//! per-thread fixed-capacity rings that keep the *most recent* events,
//! so a long-lived engine always holds the last few thousand spans per
//! scope for post-mortem dumps. Under `Always` with rings sized for the
//! run, it captures every span, which is what `repro --trace` dumps.
//!
//! Layout, tuned for capture cost:
//!
//! * events are compact [`SpanEvent`]s — u32-interned label/category
//!   ids, a process-relative nanosecond timestamp, a duration and a
//!   process-unique span id;
//! * every [`MetricsScope`](crate::MetricsScope) (and every detached
//!   registry scope) owns an event buffer: one fixed-capacity ring per
//!   recording thread, so capture is exact-attribution — an event lands
//!   in the scope that was innermost on its thread, exactly like the
//!   counters and histograms;
//! * merge-on-drop rides the scope fold: a closing scope drains its
//!   rings into the enclosing scope (or the process-root buffer), so
//!   ancestors end up with the union of their children's captures at any
//!   `CQL_ENGINE_THREADS`;
//! * when the recorder is **off** (the default) every capture site costs
//!   one relaxed atomic load — the state the E15 dormant-overhead bound
//!   covers.
//!
//! Ring eviction keeps newest events and counts what it dropped (per
//! ring, globally, and through `Counter::RecorderDropped`), so silent
//! loss under load is visible in [`gauges`].
//!
//! The recorder is process-global state: one configuration, one label
//! table, one span-id sequence, one root buffer. Rings live in
//! scopes; they are touched only by their own thread during capture and
//! by the folding thread at scope drop, so the per-scope mutex guarding
//! them is effectively uncontended.

use crate::json::Json;
use crate::span::SpanRecord;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Runtime capture mode, set with [`set_config`]. No compile-time feature
/// is involved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecorderConfig {
    /// Capture nothing (the default; one relaxed atomic load per site).
    Off,
    /// Capture one span in every `N` per thread (`Sampled(0)` and
    /// `Sampled(1)` behave like [`RecorderConfig::Always`]).
    Sampled(u32),
    /// Capture every span.
    Always,
}

/// Mode encoding: 0 = off, 1 = always, n >= 2 = sampled 1-in-n.
static MODE: AtomicU32 = AtomicU32::new(0);
/// Per-thread ring capacity applied to rings created after the change.
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
/// Process-lifetime capture totals (for the occupancy gauges).
static EVENTS_RECORDED: AtomicU64 = AtomicU64::new(0);
static EVENTS_DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Default per-thread ring capacity, in events.
const DEFAULT_RING_CAPACITY: usize = 4096;

/// Duration sentinel marking an instant event inside a [`SpanEvent`].
const INSTANT: u64 = u64::MAX;

thread_local! {
    /// Dense recorder-local thread id (stable for the thread's lifetime).
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// 1-in-N sampling phase for this thread.
    static SAMPLE_PHASE: RefCell<u32> = const { RefCell::new(0) };
    /// Span ids of the thread's currently open *recorded* spans, in
    /// nesting order (for exemplar attribution).
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX - 1)
}

/// Switch the recorder's capture mode. Takes effect immediately on every
/// thread; switching does not clear already-captured rings.
pub fn set_config(config: RecorderConfig) {
    let encoded = match config {
        RecorderConfig::Off => 0,
        RecorderConfig::Always | RecorderConfig::Sampled(0 | 1) => 1,
        RecorderConfig::Sampled(n) => n,
    };
    // Pin the epoch before the first event so timestamps are relative
    // to "recording first became possible", not the first capture.
    if encoded != 0 {
        let _ = epoch();
    }
    MODE.store(encoded, Ordering::Relaxed);
}

/// The current capture mode.
#[must_use]
pub fn config() -> RecorderConfig {
    match MODE.load(Ordering::Relaxed) {
        0 => RecorderConfig::Off,
        1 => RecorderConfig::Always,
        n => RecorderConfig::Sampled(n),
    }
}

/// Is any capture mode active? One relaxed load — the entire dormant
/// cost of a capture site when the recorder is off.
#[inline]
#[must_use]
pub(crate) fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != 0
}

/// Set the per-thread ring capacity (clamped to at least 16). Applies to
/// rings created after the call; existing rings keep their capacity.
pub fn set_ring_capacity(capacity: usize) {
    RING_CAPACITY.store(capacity.max(16), Ordering::Relaxed);
}

/// The configured per-thread ring capacity.
#[must_use]
pub fn ring_capacity() -> usize {
    RING_CAPACITY.load(Ordering::Relaxed)
}

/// Should the current thread capture the next span? Consumes one tick of
/// the thread's 1-in-N sampling phase.
#[inline]
pub(crate) fn sample() -> bool {
    match MODE.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        n => SAMPLE_PHASE.with(|phase| {
            let mut phase = phase.borrow_mut();
            *phase = (*phase + 1) % n;
            *phase == 0
        }),
    }
}

/// The recorder-local id of the calling thread.
fn thread_id() -> u64 {
    TID.with(|t| *t)
}

/// The span id of the innermost *recorded* span currently open on the
/// calling thread — what histogram exemplars attach to. `None` when the
/// recorder is off or no recorded span is open.
#[must_use]
pub(crate) fn current_span_id() -> Option<u64> {
    OPEN.with(|open| open.borrow().last().copied())
}

// ---------------------------------------------------------------------
// Label interning.

struct LabelTable {
    by_name: BTreeMap<&'static str, u32>,
    names: Vec<&'static str>,
}

static LABELS: Mutex<Option<LabelTable>> = Mutex::new(None);

fn intern_label(name: &'static str) -> u32 {
    let mut table = LABELS.lock().expect("recorder labels poisoned");
    let table =
        table.get_or_insert_with(|| LabelTable { by_name: BTreeMap::new(), names: Vec::new() });
    if let Some(&id) = table.by_name.get(name) {
        return id;
    }
    let id = u32::try_from(table.names.len()).expect("fewer than 2^32 span labels");
    table.by_name.insert(name, id);
    table.names.push(name);
    id
}

/// Resolve an interned label id back to its name (`"?"` for unknown ids,
/// which only a corrupted event could carry).
#[must_use]
pub fn resolve_label(id: u32) -> &'static str {
    let table = LABELS.lock().expect("recorder labels poisoned");
    table.as_ref().and_then(|t| t.names.get(id as usize).copied()).unwrap_or("?")
}

// ---------------------------------------------------------------------
// Events and rings.

/// One captured span, 48 bytes: interned label/category, process-unique
/// span id, recorder thread id, epoch-relative start and duration
/// (duration `u64::MAX` marks an instant event).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanEvent {
    /// Interned span name (resolve via [`resolve_label`]).
    pub label: u32,
    /// Interned category.
    pub cat: u32,
    /// Process-unique span id (never 0; what exemplars reference).
    pub span_id: u64,
    /// Recorder-local id of the capturing thread.
    pub tid: u64,
    /// Start, nanoseconds since the recorder epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds, or `u64::MAX` for an instant event.
    pub dur_ns: u64,
}

/// A fixed-capacity keep-most-recent ring of [`SpanEvent`]s for one
/// thread, with an eviction count.
#[derive(Debug)]
struct SpanRing {
    capacity: usize,
    events: VecDeque<SpanEvent>,
    dropped: u64,
}

impl SpanRing {
    fn new(capacity: usize) -> SpanRing {
        SpanRing { capacity, events: VecDeque::new(), dropped: 0 }
    }

    /// Append an event, evicting the oldest when full. Returns how many
    /// events were evicted (0 or 1).
    fn push(&mut self, event: SpanEvent) -> u64 {
        let mut evicted = 0;
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
            evicted = 1;
        }
        self.events.push_back(event);
        evicted
    }
}

/// Occupancy of one per-thread ring (for the engine gauges).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingStats {
    /// Recorder-local thread id the ring belongs to.
    pub tid: u64,
    /// Events currently held.
    pub len: usize,
    /// Fixed capacity.
    pub capacity: usize,
    /// Events evicted over the ring's lifetime.
    pub dropped: u64,
}

/// A scope's capture state: one [`SpanRing`] per recording thread.
#[derive(Debug, Default)]
pub(crate) struct EventBuffer {
    rings: BTreeMap<u64, SpanRing>,
}

impl EventBuffer {
    /// Append `event` to its thread's ring (created at the configured
    /// capacity on first use). Returns how many events were evicted.
    pub(crate) fn push(&mut self, event: SpanEvent) -> u64 {
        self.rings.entry(event.tid).or_insert_with(|| SpanRing::new(ring_capacity())).push(event)
    }

    /// Drain `other` into `self`, ring by ring (per-thread order is
    /// preserved; rings at capacity evict their oldest events). Returns
    /// how many events were evicted during the fold.
    pub(crate) fn merge(&mut self, other: &mut EventBuffer) -> u64 {
        let mut evicted = 0;
        for (tid, mut ring) in std::mem::take(&mut other.rings) {
            let into = self.rings.entry(tid).or_insert_with(|| SpanRing::new(ring_capacity()));
            for event in ring.events.drain(..) {
                evicted += into.push(event);
            }
            into.dropped += ring.dropped;
        }
        evicted
    }

    /// Every held event, across all rings, in timestamp order.
    #[must_use]
    pub(crate) fn events(&self) -> Vec<SpanEvent> {
        let mut all: Vec<SpanEvent> =
            self.rings.values().flat_map(|r| r.events.iter().copied()).collect();
        all.sort_by_key(|e| (e.ts_ns, e.tid, e.span_id));
        all
    }

    /// Drain every held event, in timestamp order (rings stay allocated,
    /// eviction counts are kept).
    pub(crate) fn take_events(&mut self) -> Vec<SpanEvent> {
        let mut all: Vec<SpanEvent> =
            self.rings.values_mut().flat_map(|r| r.events.drain(..)).collect();
        all.sort_by_key(|e| (e.ts_ns, e.tid, e.span_id));
        all
    }

    /// Is the buffer empty?
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.rings.values().all(|r| r.events.is_empty())
    }

    /// Per-ring occupancy rows, in thread-id order.
    #[must_use]
    pub(crate) fn ring_stats(&self) -> Vec<RingStats> {
        self.rings
            .iter()
            .map(|(&tid, r)| RingStats {
                tid,
                len: r.events.len(),
                capacity: r.capacity,
                dropped: r.dropped,
            })
            .collect()
    }
}

/// The process-root buffer: events captured outside any scope, plus the
/// rings of every top-level scope that already dropped.
static ROOT: Mutex<EventBuffer> = Mutex::new(EventBuffer { rings: BTreeMap::new() });

pub(crate) fn root_buffer() -> &'static Mutex<EventBuffer> {
    &ROOT
}

/// Drain the process-root buffer: the events captured outside any scope
/// plus those of every top-level scope that already dropped, in
/// timestamp order (what `repro --trace` dumps).
pub fn take_root_events() -> Vec<SpanEvent> {
    ROOT.lock().expect("recorder root poisoned").take_events()
}

pub(crate) fn note_recorded(evicted: u64) {
    EVENTS_RECORDED.fetch_add(1, Ordering::Relaxed);
    if evicted > 0 {
        EVENTS_DROPPED.fetch_add(evicted, Ordering::Relaxed);
    }
}

pub(crate) fn note_merge_dropped(evicted: u64) {
    if evicted > 0 {
        EVENTS_DROPPED.fetch_add(evicted, Ordering::Relaxed);
    }
}

/// Process-lifetime totals: `(events recorded, events dropped)` across
/// every scope and thread.
#[must_use]
pub fn totals() -> (u64, u64) {
    (EVENTS_RECORDED.load(Ordering::Relaxed), EVENTS_DROPPED.load(Ordering::Relaxed))
}

/// Occupancy gauges in `(name, value)` rows, the shape
/// `Engine::gauges()` re-exports: process-lifetime recorded/dropped
/// totals, the configured ring capacity, and per-thread fill percentage
/// and eviction count for the process-root rings.
#[must_use]
pub fn gauges() -> Vec<(String, u64)> {
    let (recorded, dropped) = totals();
    let mut rows = vec![
        ("recorder_events_recorded".to_string(), recorded),
        ("recorder_events_dropped".to_string(), dropped),
        ("recorder_ring_capacity".to_string(), ring_capacity() as u64),
    ];
    for ring in ROOT.lock().expect("recorder root poisoned").ring_stats() {
        let fill = (ring.len * 100).checked_div(ring.capacity).unwrap_or(0);
        rows.push((format!("recorder_ring_fill_pct_t{}", ring.tid), fill as u64));
        rows.push((format!("recorder_ring_dropped_t{}", ring.tid), ring.dropped));
    }
    rows
}

// ---------------------------------------------------------------------
// Capture entry points (called by `span.rs` and `scope.rs`).

/// A sampled, still-open recorder span held inside a
/// [`SpanGuard`](crate::SpanGuard).
pub(crate) struct OpenEvent {
    label: u32,
    cat: u32,
    span_id: u64,
    start: Instant,
}

/// Begin capture of a span (if this thread's sampler elects it): interns
/// the labels, allocates a span id and pushes it on the thread's
/// open-span stack.
pub(crate) fn begin(name: &'static str, cat: &'static str) -> Option<OpenEvent> {
    if !sample() {
        return None;
    }
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    OPEN.with(|open| open.borrow_mut().push(span_id));
    Some(OpenEvent {
        label: intern_label(name),
        cat: intern_label(cat),
        span_id,
        start: Instant::now(),
    })
}

/// Close an open capture: pops the open-span stack and materializes the
/// [`SpanEvent`].
pub(crate) fn finish(open: OpenEvent) -> SpanEvent {
    let dur = open.start.elapsed();
    OPEN.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(at) = stack.iter().rposition(|&id| id == open.span_id) {
            stack.remove(at);
        }
    });
    SpanEvent {
        label: open.label,
        cat: open.cat,
        span_id: open.span_id,
        tid: thread_id(),
        ts_ns: ns_since_epoch(open.start),
        dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX - 1).min(u64::MAX - 1),
    }
}

/// Capture an already-measured interval (the `op_timed`/`qe_timed`
/// path). Returns the allocated span id and the event, or `None` when
/// the sampler passes.
pub(crate) fn complete(
    name: &'static str,
    cat: &'static str,
    start: Instant,
    dur: Duration,
) -> Option<(u64, SpanEvent)> {
    if !sample() {
        return None;
    }
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let event = SpanEvent {
        label: intern_label(name),
        cat: intern_label(cat),
        span_id,
        tid: thread_id(),
        ts_ns: ns_since_epoch(start),
        dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX - 1).min(u64::MAX - 1),
    };
    Some((span_id, event))
}

/// Capture an instant event, sampler permitting.
pub(crate) fn instant_event(name: &'static str, cat: &'static str) -> Option<SpanEvent> {
    if !sample() {
        return None;
    }
    Some(SpanEvent {
        label: intern_label(name),
        cat: intern_label(cat),
        span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        tid: thread_id(),
        ts_ns: ns_since_epoch(Instant::now()),
        dur_ns: INSTANT,
    })
}

/// Expand compact events back into full [`SpanRecord`]s (labels
/// resolved, the span id attached as an argument) so the existing
/// [`crate::chrome`] exporter renders recorder dumps unchanged.
#[must_use]
pub fn to_span_records(events: &[SpanEvent]) -> Vec<SpanRecord> {
    events
        .iter()
        .map(|e| SpanRecord {
            name: resolve_label(e.label),
            cat: resolve_label(e.cat),
            tid: e.tid,
            ts_ns: e.ts_ns,
            dur_ns: (e.dur_ns != INSTANT).then_some(e.dur_ns),
            args: vec![("span_id", Json::from(e.span_id))],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Recorder mode is process-global; serialize the tests that flip it.
    pub(crate) static CONFIG_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn config_round_trips_and_normalizes() {
        let _serial = CONFIG_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for (set, get) in [
            (RecorderConfig::Off, RecorderConfig::Off),
            (RecorderConfig::Always, RecorderConfig::Always),
            (RecorderConfig::Sampled(1), RecorderConfig::Always),
            (RecorderConfig::Sampled(4), RecorderConfig::Sampled(4)),
        ] {
            set_config(set);
            assert_eq!(config(), get);
        }
        set_config(RecorderConfig::Off);
        assert!(!enabled());
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut ring = SpanRing::new(16);
        for i in 0..20u64 {
            let evicted = ring.push(SpanEvent {
                label: 0,
                cat: 0,
                span_id: i + 1,
                tid: 1,
                ts_ns: i,
                dur_ns: 0,
            });
            assert_eq!(evicted, u64::from(i >= 16));
        }
        assert_eq!(ring.events.len(), 16);
        assert_eq!(ring.dropped, 4);
        let ids: Vec<u64> = ring.events.iter().map(|e| e.span_id).collect();
        assert_eq!(ids.first(), Some(&5), "oldest events are evicted first");
        assert_eq!(ids.last(), Some(&20));
    }

    #[test]
    fn buffer_merge_preserves_events_and_drop_counts() {
        let mut child = EventBuffer::default();
        let mut parent = EventBuffer::default();
        for i in 0..10u64 {
            child.push(SpanEvent { label: 0, cat: 0, span_id: i, tid: 7, ts_ns: i, dur_ns: 0 });
        }
        parent.push(SpanEvent { label: 0, cat: 0, span_id: 99, tid: 7, ts_ns: 100, dur_ns: 0 });
        let evicted = parent.merge(&mut child);
        assert_eq!(evicted, 0);
        assert_eq!(parent.events().len(), 11);
        assert!(child.is_empty());
        // Ring order within a tid is push order; `events()` sorts by ts.
        assert_eq!(parent.events().last().map(|e| e.span_id), Some(99));
    }

    #[test]
    fn labels_intern_and_resolve() {
        let a = intern_label("recorder.test.a");
        let b = intern_label("recorder.test.b");
        assert_ne!(a, b);
        assert_eq!(intern_label("recorder.test.a"), a);
        assert_eq!(resolve_label(a), "recorder.test.a");
        assert_eq!(resolve_label(u32::MAX), "?");
    }

    #[test]
    fn sampled_mode_records_one_in_n() {
        let _serial = CONFIG_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set_config(RecorderConfig::Sampled(3));
        let hits = (0..30).filter(|_| sample()).count();
        set_config(RecorderConfig::Off);
        assert_eq!(hits, 10, "1-in-3 sampling over 30 draws");
    }

    #[test]
    fn top_level_scopes_hand_their_events_to_the_root_buffer() {
        let _serial = CONFIG_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set_config(RecorderConfig::Always);
        let names = |events: Vec<SpanEvent>| -> Vec<&str> {
            events.iter().map(|e| resolve_label(e.label)).collect()
        };
        let parent = crate::MetricsScope::enter("recorder.test.parent");
        {
            let _child = crate::MetricsScope::enter("recorder.test.child");
            let _span = crate::span("recorder.test.nested", "op");
        }
        let in_parent = names(parent.handle().recorded_events());
        let in_root = names(take_root_events());
        {
            let _span = crate::span("recorder.test.top", "op");
        }
        drop(parent);
        let after_drop = names(take_root_events());
        set_config(RecorderConfig::Off);
        assert!(in_parent.contains(&"recorder.test.nested"), "child folds into its parent");
        assert!(!in_root.contains(&"recorder.test.nested"), "an open parent keeps its events");
        assert!(after_drop.contains(&"recorder.test.top"), "top-level events reach the root");
        assert!(after_drop.contains(&"recorder.test.nested"));
    }

    #[test]
    fn span_records_round_trip_through_chrome() {
        let events = vec![
            SpanEvent {
                label: intern_label("outer"),
                cat: intern_label("op"),
                span_id: 1,
                tid: 0,
                ts_ns: 1_000,
                dur_ns: 10_000,
            },
            SpanEvent {
                label: intern_label("mark"),
                cat: intern_label("engine"),
                span_id: 2,
                tid: 0,
                ts_ns: 2_000,
                dur_ns: INSTANT,
            },
        ];
        let records = to_span_records(&events);
        assert_eq!(records[0].name, "outer");
        assert_eq!(records[1].dur_ns, None);
        let text = crate::chrome::render(&records).render();
        let parsed = crate::chrome::parse(&text).expect("dump parses");
        assert_eq!(parsed.len(), 2);
        assert!(crate::chrome::nesting_violation(&parsed).is_none());
    }
}
