//! A long-lived registry of named telemetry scopes.
//!
//! [`MetricsScope`](crate::MetricsScope) is per-evaluation: it opens,
//! aggregates, and folds into its parent on drop. A server needs the
//! complementary shape — scopes that **outlive** any single query (one
//! per tenant, per connection pool, per background job), registered once
//! and snapshotted on demand. A [`TelemetryRegistry`] holds such scopes
//! by name (detached scope handles: never installed globally, never
//! merged on drop), plus per-scope **gauges** — sampled
//! point-in-time values like interner occupancy or relation cardinality
//! that counters cannot express.
//!
//! Worker threads participate by installing a registered handle
//! ([`ScopeHandle::install`]); the engine's executor then aggregates all
//! counter/histogram traffic into it exactly as for an evaluation scope.
//! [`TelemetryRegistry::snapshot`] produces a [`TelemetrySnapshot`] that
//! the [`crate::expose`] module renders as Prometheus-style text or
//! JSON.
//!
//! A registry holds only scopes and gauges. The flight recorder's mode
//! ([`crate::recorder::set_config`]) and the SLO watchdog's rules and
//! breach list ([`crate::watchdog`]) are process-global and are set
//! there.

use crate::scope::{MetricsSnapshot, ScopeHandle};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One registered scope's state: the live handle plus its gauges.
struct Entry {
    handle: ScopeHandle,
    gauges: BTreeMap<String, u64>,
}

impl Entry {
    fn reading(&self, name: &str) -> ScopeReading {
        ScopeReading {
            name: name.to_string(),
            metrics: self.handle.snapshot(),
            gauges: self.gauges.clone(),
        }
    }
}

/// A registry of named, long-lived telemetry scopes with
/// snapshot-on-demand. See the module docs.
#[derive(Default)]
pub struct TelemetryRegistry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl TelemetryRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> TelemetryRegistry {
        TelemetryRegistry::default()
    }

    /// The handle for `name`, registering a fresh detached scope on
    /// first use. Registering is idempotent: the same name always maps
    /// to the same underlying scope.
    pub fn register(&self, name: &str) -> ScopeHandle {
        self.with_entry(name, |entry| entry.handle.clone())
    }

    fn with_entry<R>(&self, name: &str, f: impl FnOnce(&mut Entry) -> R) -> R {
        let mut entries = self.entries.lock().expect("registry poisoned");
        f(entries.entry(name.to_string()).or_insert_with(|| Entry {
            handle: ScopeHandle::detached(name),
            gauges: BTreeMap::new(),
        }))
    }

    /// The registered scope names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.entries.lock().expect("registry poisoned").keys().cloned().collect()
    }

    /// Set (overwrite) a sampled gauge on `scope`, registering the scope
    /// if needed. Gauges are point-in-time values — the caller re-samples
    /// and re-sets them; the registry never accumulates them.
    pub fn set_gauge(&self, scope: &str, gauge: &str, value: u64) {
        self.with_entry(scope, |entry| entry.gauges.insert(gauge.to_string(), value));
    }

    /// Snapshot one scope (`None` if unregistered).
    #[must_use]
    pub fn snapshot_scope(&self, name: &str) -> Option<ScopeReading> {
        self.entries.lock().expect("registry poisoned").get(name).map(|e| e.reading(name))
    }

    /// Snapshot every registered scope, in name order.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let entries = self.entries.lock().expect("registry poisoned");
        TelemetrySnapshot { scopes: entries.iter().map(|(name, e)| e.reading(name)).collect() }
    }
}

/// One scope's reading inside a [`TelemetrySnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScopeReading {
    /// The registered scope name (tenant id, job name, …).
    pub name: String,
    /// Counter / operator / histogram totals at snapshot time.
    pub metrics: MetricsSnapshot,
    /// Sampled gauges, keyed by gauge name.
    pub gauges: BTreeMap<String, u64>,
}

/// A point-in-time reading of every scope in a [`TelemetryRegistry`],
/// renderable via [`crate::expose::to_prometheus`] and
/// [`crate::expose::to_json`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Per-scope readings, in scope-name order.
    pub scopes: Vec<ScopeReading>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::{count, record_hist, Counter};

    #[test]
    fn registered_scope_collects_across_installs() {
        let registry = TelemetryRegistry::new();
        let handle = registry.register("tenant-a");
        {
            let _g = handle.install();
            count(Counter::QeCalls, 7);
            record_hist(crate::scope::hist::QE_CALL_NS, 1500);
        }
        {
            let _g = handle.install();
            count(Counter::QeCalls, 3);
        }
        let reading = registry.snapshot_scope("tenant-a").unwrap();
        assert_eq!(reading.metrics.get(Counter::QeCalls), 10);
        assert_eq!(reading.metrics.hists[crate::scope::hist::QE_CALL_NS].count(), 1);
    }

    #[test]
    fn register_is_idempotent_and_gauges_overwrite() {
        let registry = TelemetryRegistry::new();
        let first = registry.register("t");
        {
            let _g = first.install();
            count(Counter::TuplesInserted, 1);
        }
        let second = registry.register("t");
        {
            let _g = second.install();
            count(Counter::TuplesInserted, 1);
        }
        assert_eq!(
            registry.snapshot_scope("t").unwrap().metrics.get(Counter::TuplesInserted),
            2,
            "same name must alias the same scope"
        );
        registry.set_gauge("t", "interner_entries", 5);
        registry.set_gauge("t", "interner_entries", 9);
        assert_eq!(registry.snapshot_scope("t").unwrap().gauges["interner_entries"], 9);
    }

    #[test]
    fn snapshot_lists_scopes_in_name_order() {
        let registry = TelemetryRegistry::new();
        registry.register("zeta");
        registry.register("alpha");
        registry.set_gauge("mid", "g", 1);
        let names: Vec<_> = registry.snapshot().scopes.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(registry.names(), names);
    }
}
