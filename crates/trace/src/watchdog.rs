//! SLO watchdog: declarative latency thresholds checked at scope drop.
//!
//! [`set_rules`] arms the watchdog process-wide with [`SloRule`]s such
//! as `SloRule::new(hist::VIEW_UPDATE_NS, 0.99, 2_000_000)` ("p99 of
//! `view_update_ns` under 2ms"). When a
//! [`MetricsScope`](crate::MetricsScope) closes, its histograms are
//! checked against every armed rule *before* the merge-on-drop fold; a
//! breach **freezes** the scope's flight-recorder rings (they are taken
//! out of the merge) and dumps them to a chrome-trace file through the
//! existing [`crate::chrome`] exporter, so the spans that produced the
//! bad tail are on disk the moment the SLO is missed — no recompile, no
//! re-run. Long-lived registry scopes never drop, so they are never
//! checked.
//!
//! Breaches accumulate in a process-wide list ([`take_breaches`]);
//! [`SloBreach::to_json`] renders one as the anomaly row `repro e20`
//! emits. When no rules are armed the entire cost at scope drop is one
//! relaxed atomic load.

use crate::json::Json;
use crate::recorder::{self, SpanEvent};
use crate::scope::MetricsSnapshot;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One declarative per-histogram threshold: breach when
/// `quantile(hist) >= max_ns`.
#[derive(Clone, Debug, PartialEq)]
pub struct SloRule {
    /// Histogram name the rule watches (see [`crate::scope::hist`]).
    pub hist: String,
    /// Quantile in `[0, 1]` (0.99 for p99).
    pub quantile: f64,
    /// Exclusive upper bound on the quantile, in the histogram's units
    /// (nanoseconds for the latency histograms).
    pub max_ns: u64,
}

impl SloRule {
    /// Build a rule directly.
    #[must_use]
    pub fn new(hist: &str, quantile: f64, max_ns: u64) -> SloRule {
        SloRule { hist: hist.to_string(), quantile, max_ns }
    }
}

/// One SLO breach observed at a scope drop.
#[derive(Clone, Debug, PartialEq)]
pub struct SloBreach {
    /// Name of the scope whose histogram breached.
    pub scope: String,
    /// Histogram that breached.
    pub hist: String,
    /// The rule's quantile.
    pub quantile: f64,
    /// Observed quantile value.
    pub observed: u64,
    /// The rule's threshold.
    pub max_ns: u64,
    /// Path of the chrome-trace dump, when one was written.
    pub dump_path: Option<String>,
    /// Number of flight-recorder events frozen into the dump.
    pub events_dumped: usize,
    /// Dump failure, if writing the file failed.
    pub dump_error: Option<String>,
}

impl SloBreach {
    /// Render as a JSON anomaly row: `scope`, `hist`, `quantile`,
    /// `observed_ns`, `threshold_ns` and `dump_path` (`""` when no dump
    /// was written).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("scope", self.scope.as_str())
            .field("hist", self.hist.as_str())
            .field("quantile", self.quantile)
            .field("observed_ns", self.observed)
            .field("threshold_ns", self.max_ns)
            .field("dump_path", self.dump_path.as_deref().unwrap_or(""))
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static RULES: Mutex<Vec<SloRule>> = Mutex::new(Vec::new());
static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static BREACHES: Mutex<Vec<SloBreach>> = Mutex::new(Vec::new());
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Replace the armed rule set. An empty set disarms the watchdog (scope
/// drops go back to paying one atomic load).
pub fn set_rules(rules: Vec<SloRule>) {
    let mut slot = RULES.lock().expect("slo rules poisoned");
    ARMED.store(!rules.is_empty(), Ordering::Relaxed);
    *slot = rules;
}

/// Directory breach dumps are written to. `None` (the default) disables
/// dumping — breaches are still recorded, with `dump_path: None`.
pub fn set_dump_dir(dir: Option<PathBuf>) {
    *DUMP_DIR.lock().expect("slo dump dir poisoned") = dir;
}

/// Drain the accumulated breach list.
pub fn take_breaches() -> Vec<SloBreach> {
    std::mem::take(&mut *BREACHES.lock().expect("slo breaches poisoned"))
}

/// Is any rule armed? One relaxed load — the scope-drop fast path.
#[inline]
#[must_use]
pub(crate) fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || "._-".contains(c) { c } else { '_' })
        .collect()
}

fn write_dump(scope: &str, hist: &str, events: &[SpanEvent]) -> Result<String, String> {
    let dir = DUMP_DIR.lock().expect("slo dump dir poisoned").clone();
    let Some(dir) = dir else { return Err("no dump directory configured".to_string()) };
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("slo-{}-{}-{seq}.json", sanitize(scope), sanitize(hist)));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let doc = crate::chrome::render(&recorder::to_span_records(events));
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Check one scope's histograms against the armed rules. `events` is
/// called at most once, on the first breach, to freeze the scope's
/// flight-recorder rings for the dump. Breaches are appended to the
/// process-wide list.
pub(crate) fn check(
    scope: &str,
    snapshot: &MetricsSnapshot,
    events: impl FnOnce() -> Vec<SpanEvent>,
) {
    let rules = RULES.lock().expect("slo rules poisoned").clone();
    let mut frozen: Option<Vec<SpanEvent>> = None;
    let mut events = Some(events);
    let mut found = Vec::new();
    for rule in &rules {
        let Some(hist) = snapshot.hists.get(rule.hist.as_str()) else { continue };
        let Some(observed) = hist.quantile(rule.quantile) else { continue };
        if observed < rule.max_ns {
            continue;
        }
        let ring = frozen.get_or_insert_with(|| events.take().map(|f| f()).unwrap_or_default());
        let (dump_path, dump_error) = match write_dump(scope, &rule.hist, ring) {
            Ok(path) => (Some(path), None),
            Err(e) => (None, Some(e)),
        };
        found.push(SloBreach {
            scope: scope.to_string(),
            hist: rule.hist.clone(),
            quantile: rule.quantile,
            observed,
            max_ns: rule.max_ns,
            dump_path,
            events_dumped: ring.len(),
            dump_error,
        });
    }
    if !found.is_empty() {
        BREACHES.lock().expect("slo breaches poisoned").extend(found);
    }
}
