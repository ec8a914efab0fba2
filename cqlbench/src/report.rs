//! Metric names, units and the result a run prints.

use crate::spans::{self, Span};
use crate::stats;
use cql_trace::json::Json;
use cql_trace::{hist, Counter, MetricsSnapshot};
use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports all five; throughput and latency are of the workload's own
/// operation, and `latency_tail_ms` is the highest percentile its
/// sample count supports (see README.md).
pub const E2E: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer the workload does not
/// exercise reports 0 and prints `n/a`.
pub const LAYERS: [(&str, &str); 64] = [
    ("server.queue_wait_us.p50", "us"),
    ("server.queue_wait_us.p99", "us"),
    ("server.handoff_us.p50", "us"),
    ("server.shed", "count"),
    ("snapshot.pin_us.p50", "us"),
    ("snapshot.pin_us.p99", "us"),
    ("snapshot.unpin_us.p50", "us"),
    ("query.us.p50", "us"),
    ("query.us.p99", "us"),
    ("query.examined_per_read", "count"),
    ("query.survivor_ratio", "ratio"),
    ("query.results_per_read", "count"),
    ("query.entailment_per_read", "count"),
    ("query.intern_per_read", "count"),
    ("read.latency_ms.p50", "ms"),
    ("read.latency_ms.p99", "ms"),
    ("commit.publish_ms.p50", "ms"),
    ("commit.publish_ms.p95", "ms"),
    ("commit.maintain_ms.p50", "ms"),
    ("commit.maintain_ms.p95", "ms"),
    ("commit.maintain_ms.max", "ms"),
    ("commit.delta_rounds", "count"),
    ("commit.support_adjust", "count"),
    ("commit.qe_calls", "count"),
    ("commit.entailment_checks", "count"),
    ("loadgen.writer_late_ms.max", "ms"),
    ("fixpoint.tc_s.p50", "s"),
    ("fixpoint.pathjoin_s.p50", "s"),
    ("fixpoint.rounds", "count"),
    ("fixpoint.round_ms.p50", "ms"),
    ("fixpoint.qe_calls", "count"),
    ("fixpoint.qe_ms", "ms"),
    ("fixpoint.entailment_checks", "count"),
    ("fixpoint.tuples_inserted", "count"),
    ("fixpoint.tuples_subsumed", "count"),
    ("join.probes", "count"),
    ("join.survivors", "count"),
    ("join.survivor_ratio", "ratio"),
    ("join.fanout.p99", "count"),
    ("prune.survivor_ratio", "ratio"),
    ("qe_cache.hit_ratio", "ratio"),
    ("interner.hit_ratio", "ratio"),
    ("interner.epochs", "count"),
    ("interner.entries", "count"),
    ("interner.bytes", "B"),
    ("traced.throughput_per_s", "1/s"),
    ("traced.latency_p50_ms", "ms"),
    ("traced.latency_tail_ms", "ms"),
    ("trace.spans", "count"),
    ("self_us.read", "us"),
    ("self_us.server.queue_wait", "us"),
    ("self_us.handler", "us"),
    ("self_us.snapshot.pin", "us"),
    ("self_us.query", "us"),
    ("self_us.snapshot.unpin", "us"),
    ("self_us.server.handoff", "us"),
    ("self_us.commit", "us"),
    ("self_us.commit.late", "us"),
    ("self_us.commit.apply", "us"),
    ("self_us.commit.maintain", "us"),
    ("self_us.commit.publish", "us"),
    ("self_us.fixpoint.rep", "us"),
    ("self_us.fixpoint.tc", "us"),
    ("self_us.fixpoint.pathjoin", "us"),
];

/// One metric's reading: `None` when the percentile guard refused it.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub value: Option<f64>,
    pub samples: u64,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Shed, erroring, wrong or isolation-breaking operations among them.
    pub failed: u64,
    /// Every wrong answer seen, warm-up included (a run with any is
    /// incorrect).
    pub wrong: Vec<String>,
    pub metrics: BTreeMap<&'static str, Reading>,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Record `value` for the declared metric `name`.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        self.put(name, Some(value), samples);
    }

    /// Record the guarded `pct`-th percentile of `samples_ns`, in the
    /// metric's declared time unit.
    pub fn percentile(&mut self, name: &str, samples_ns: &[u64], pct: u64) {
        let scale = match declared(name).1 {
            "us" => 1e3,
            "ms" => 1e6,
            "s" => 1e9,
            other => panic!("`{name}` is not a time metric (unit {other})"),
        };
        let value = stats::percentile(samples_ns, pct).map(|v| v as f64 / scale);
        self.put(name, value, samples_ns.len() as u64);
    }

    /// Record `num / den`, leaving the metric unset when `den` is 0.
    pub fn ratio(&mut self, name: &str, num: f64, den: u64) {
        if den > 0 {
            self.set(name, num / den as f64, den);
        }
    }

    /// Record a reading; `None` marks a refused percentile.
    pub fn put(&mut self, name: &str, value: Option<f64>, samples: u64) {
        let (name, _) = declared(name);
        self.metrics.insert(name, Reading { value, samples });
    }

    /// Note a wrong answer; `measured` ones also count as failed.
    pub fn wrong(&mut self, measured: bool, what: String) {
        if measured {
            self.failed += 1;
        }
        self.wrong.push(what);
    }

    /// The span-derived layer metrics: stage percentiles and mean self
    /// time per span name.
    pub fn span_layers(&mut self) {
        let spans = std::mem::take(&mut self.spans);
        for (metric, span, pct) in [
            ("server.queue_wait_us.p50", "server.queue_wait", 50),
            ("server.queue_wait_us.p99", "server.queue_wait", 99),
            ("server.handoff_us.p50", "server.handoff", 50),
            ("snapshot.pin_us.p50", "snapshot.pin", 50),
            ("snapshot.pin_us.p99", "snapshot.pin", 99),
            ("snapshot.unpin_us.p50", "snapshot.unpin", 50),
            ("query.us.p50", "query", 50),
            ("query.us.p99", "query", 99),
            ("commit.publish_ms.p50", "commit.publish", 50),
            ("commit.publish_ms.p95", "commit.publish", 95),
            ("commit.maintain_ms.p50", "commit.maintain", 50),
            ("commit.maintain_ms.p95", "commit.maintain", 95),
        ] {
            let durations = spans::durations(&spans, span);
            if !durations.is_empty() {
                self.percentile(metric, &durations, pct);
            }
        }
        let maintain = spans::durations(&spans, "commit.maintain");
        if let Some(&max) = maintain.iter().max() {
            self.set("commit.maintain_ms.max", max as f64 / 1e6, maintain.len() as u64);
        }
        for (name, (ns, n)) in spans::mean_self_ns(&spans) {
            self.set(&format!("self_us.{name}"), ns / 1e3, n);
        }
        self.set("trace.spans", spans.len() as f64, spans.len() as u64);
        self.spans = spans;
    }

    /// Engine-counter layer metrics over `scope` (the metrics scope the
    /// workload's measured operations ran under), per operation of `ops`.
    pub fn engine_layers(&mut self, scope: &MetricsSnapshot, ops: u64) {
        let count = |c: Counter| scope.get(c);
        let total = |c: Counter| count(c) as f64;
        self.ratio("join.probes", total(Counter::MultiwayProbes), ops);
        self.ratio("join.survivors", total(Counter::MultiwaySurvivors), ops);
        self.ratio(
            "join.survivor_ratio",
            total(Counter::MultiwaySurvivors),
            count(Counter::MultiwayProbes),
        );
        self.ratio(
            "prune.survivor_ratio",
            total(Counter::PruneSurvivors),
            count(Counter::PruneCandidates),
        );
        let qe_hits = count(Counter::QeCacheHits);
        self.ratio("qe_cache.hit_ratio", qe_hits as f64, qe_hits + count(Counter::QeCalls));
        let intern_hits = count(Counter::InternHits);
        self.ratio(
            "interner.hit_ratio",
            intern_hits as f64,
            intern_hits + count(Counter::InternMisses),
        );
        self.ratio("interner.epochs", total(Counter::InternerEpochs), ops);
        if let Some(fanout) = scope.hists.get(hist::MULTIWAY_FANOUT).filter(|h| h.count() > 0) {
            let p99 = stats::hist_percentile(Some(fanout), 99).map(|v| v as f64);
            self.put("join.fanout.p99", p99, fanout.count());
        }
    }

    /// The declared metric set of this run, unset layers reading 0.
    pub fn declared(&self, trace: bool) -> Vec<(&'static str, &'static str, Reading)> {
        let table: &[(&'static str, &'static str)] = if trace { &LAYERS } else { &E2E };
        table
            .iter()
            .map(|&(name, unit)| {
                let r = self.metrics.get(name).copied();
                (name, unit, r.unwrap_or(Reading { value: Some(0.0), samples: 0 }))
            })
            .collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self, trace: bool) -> String {
        let mut metrics = Json::obj();
        for (name, unit, r) in self.declared(trace) {
            let value = r.value.unwrap_or(0.0);
            metrics = metrics.field(name, Json::obj().field("value", value).field("unit", unit));
        }
        Json::obj()
            .field("correct", self.wrong.is_empty())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
            .render()
    }
}

/// The declared name and unit of metric `name`.
fn declared(name: &str) -> (&'static str, &'static str) {
    *E2E.iter()
        .chain(LAYERS.iter())
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("undeclared metric `{name}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_declared_metrics() {
        let spec = cql_trace::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, table) in [("end_to_end", &E2E[..]), ("per_layer", &LAYERS[..])] {
            let listed: Vec<(&str, &str)> = spec
                .get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("no `{key}` list"))
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap_or_default();
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, table, "`{key}` of BENCHMARK.json");
        }
    }
}
