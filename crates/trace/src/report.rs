//! The `EvalReport` EXPLAIN artifact.
//!
//! A closed-form evaluation is a structural induction (`EVAL_φ`) or a
//! fixpoint iteration; an [`EvalReport`] is the post-hoc account of where
//! that work went: one [`RoundStats`] row per fixpoint round (delta size,
//! tuples produced vs subsumed, entailment checks, QE calls, wall time),
//! a per-operator table (inclusive wall time of each algebra operator /
//! calculus node / theory QE entry point, from the query's
//! [`crate::MetricsScope`]), and the scope's counter totals.
//!
//! Renderable as a text table ([`EvalReport::render_text`]) and as JSON
//! ([`EvalReport::to_json`], emitted by `repro --trace e13 --json`). The
//! JSON is write-only: nothing parses it back into these types, and
//! `repro --selfcheck` checks its structure instead.

use crate::histogram::Histogram;
use crate::json::Json;
use crate::scope::{MetricsSnapshot, OpAgg};

/// Telemetry for one fixpoint round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Round number (1-based, matching `FixpointResult::iterations`).
    pub round: u64,
    /// Tuples derived by rule firings this round (before insertion).
    pub produced: u64,
    /// Tuples admitted into the IDB this round (the delta).
    pub delta: u64,
    /// Tuples rejected as duplicates or subsumed.
    pub subsumed: u64,
    /// `Theory::entails` calls spent on subsumption this round.
    pub entailment_checks: u64,
    /// Quantifier-elimination calls this round.
    pub qe_calls: u64,
    /// Inclusive QE wall time this round, nanoseconds.
    pub qe_ns: u64,
    /// Disjunct pairs an exhaustive join would have conjoined this round.
    pub prune_candidates: u64,
    /// Disjunct pairs whose summaries intersected (handed to the solver);
    /// `prune_candidates - prune_survivors` pairs were pruned for free.
    pub prune_survivors: u64,
    /// Quantifier eliminations served from the QE memo cache this round
    /// (these never reach the solver, so they are not in `qe_calls`).
    pub qe_cache_hits: u64,
    /// Candidate bindings the multiway join's backtracking search
    /// examined against summary levels this round.
    pub multiway_probes: u64,
    /// Full body combinations that survived every summary level and were
    /// handed to the solver this round.
    pub multiway_survivors: u64,
    /// Round wall time, nanoseconds.
    pub wall_ns: u64,
}

impl RoundStats {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("round", self.round)
            .field("produced", self.produced)
            .field("delta", self.delta)
            .field("subsumed", self.subsumed)
            .field("entailment_checks", self.entailment_checks)
            .field("qe_calls", self.qe_calls)
            .field("qe_ns", self.qe_ns)
            .field("prune_candidates", self.prune_candidates)
            .field("prune_survivors", self.prune_survivors)
            .field("qe_cache_hits", self.qe_cache_hits)
            .field("multiway_probes", self.multiway_probes)
            .field("multiway_survivors", self.multiway_survivors)
            .field("wall_ns", self.wall_ns)
    }
}

/// Per-rule multiway join-plan telemetry: the variable elimination order
/// the planner chose, and how selective the leapfrog intersection was
/// over the whole evaluation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// The rule, rendered as Datalog text.
    pub rule: String,
    /// Chosen variable elimination order (rule-variable indices).
    pub var_order: Vec<u64>,
    /// Relational body atoms participating in the multiway join.
    pub atoms: u64,
    /// Candidate bindings examined against this rule's summary levels.
    pub probes: u64,
    /// Full combinations that survived every level (solver calls).
    pub survivors: u64,
}

impl PlanStats {
    /// Render as a JSON object (one entry of the report's `plans` array).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("rule", self.rule.as_str())
            .field("var_order", Json::Arr(self.var_order.iter().map(|&v| Json::from(v)).collect()))
            .field("atoms", self.atoms)
            .field("probes", self.probes)
            .field("survivors", self.survivors)
    }
}

/// Telemetry for one incremental view update (`MaterializedView::insert`
/// or `::retract`): what the delta propagation cost, instead of what a
/// from-scratch fixpoint would have.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// `"insert"` or `"retract"`.
    pub op: String,
    /// EDB relation the update touched.
    pub relation: String,
    /// Delta-restricted firing rounds run to propagate the change.
    pub delta_rounds: u64,
    /// Over-deleted tuples re-inserted because they kept other support.
    pub rederivations: u64,
    /// Support-count adjustments (increments plus decrements) applied.
    pub support_adjust: u64,
    /// Quantifier-elimination calls spent on this update.
    pub qe_calls: u64,
    /// `Theory::entails` calls spent on this update.
    pub entailment_checks: u64,
    /// Update wall time, nanoseconds.
    pub wall_ns: u64,
}

impl UpdateStats {
    /// Render as a JSON object (one entry of `repro e18`'s `updates` datum).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("op", self.op.as_str())
            .field("relation", self.relation.as_str())
            .field("delta_rounds", self.delta_rounds)
            .field("rederivations", self.rederivations)
            .field("support_adjust", self.support_adjust)
            .field("qe_calls", self.qe_calls)
            .field("entailment_checks", self.entailment_checks)
            .field("wall_ns", self.wall_ns)
    }
}

/// One operator row of the report (from the scope's operator table).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OperatorStats {
    /// Operator name (`"qe.dense"`, `"algebra.project"`, …).
    pub name: String,
    /// Invocations.
    pub calls: u64,
    /// Inclusive wall time, nanoseconds.
    pub nanos: u64,
}

/// The EXPLAIN artifact for one evaluation. See the module docs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EvalReport {
    /// What was evaluated (query shape or experiment id).
    pub query: String,
    /// The constraint theory evaluated over.
    pub theory: String,
    /// Executor width the evaluation ran at.
    pub threads: u64,
    /// Fixpoint rounds (empty for non-fixpoint evaluations).
    pub rounds: Vec<RoundStats>,
    /// Per-rule multiway join plans (empty when the multiway path was
    /// off or no rule had ≥2 relational body atoms).
    pub plans: Vec<PlanStats>,
    /// Per-operator inclusive timings.
    pub operators: Vec<OperatorStats>,
    /// Latency/fanout distributions recorded under the evaluation's
    /// scope (QE call latency, round wall, multiway fanout, …), as
    /// `(name, histogram)` rows in name order.
    pub hists: Vec<(String, Histogram)>,
    /// Sampled occupancy/cardinality gauges (interner entries and bytes,
    /// QE-cache occupancy, relation sizes), as `(name, value)` rows.
    pub gauges: Vec<(String, u64)>,
    /// Counter totals of the evaluation's scope, as `(name, value)` rows.
    pub totals: Vec<(String, u64)>,
    /// Total tuples in the result (IDB size or output relation length).
    pub result_tuples: u64,
    /// End-to-end wall time, nanoseconds.
    pub wall_ns: u64,
}

impl EvalReport {
    /// Assemble a report from a completed scope snapshot.
    #[must_use]
    pub fn from_snapshot(
        query: &str,
        theory: &str,
        threads: usize,
        snapshot: &MetricsSnapshot,
        rounds: Vec<RoundStats>,
        result_tuples: u64,
        wall_ns: u64,
    ) -> EvalReport {
        let operators = snapshot
            .ops
            .iter()
            .map(|(&name, &OpAgg { calls, nanos })| OperatorStats {
                name: name.to_string(),
                calls,
                nanos,
            })
            .collect();
        let totals =
            snapshot.rows().into_iter().map(|(name, value)| (name.to_string(), value)).collect();
        let hists =
            snapshot.hists.iter().map(|(&name, hist)| (name.to_string(), hist.clone())).collect();
        EvalReport {
            query: query.to_string(),
            theory: theory.to_string(),
            threads: threads as u64,
            rounds,
            plans: Vec::new(),
            operators,
            hists,
            gauges: Vec::new(),
            totals,
            result_tuples,
            wall_ns,
        }
    }

    /// This report with per-rule join-plan telemetry attached.
    #[must_use]
    pub fn with_plans(mut self, plans: Vec<PlanStats>) -> EvalReport {
        self.plans = plans;
        self
    }

    /// This report with sampled occupancy/cardinality gauges attached
    /// (interner entries/bytes, QE-cache occupancy, relation sizes).
    #[must_use]
    pub fn with_gauges(mut self, gauges: Vec<(String, u64)>) -> EvalReport {
        self.gauges = gauges;
        self
    }

    /// How effective subsumption was: rejected / produced, in `[0, 1]`.
    #[allow(clippy::cast_precision_loss)]
    fn subsumption_effectiveness(&self) -> f64 {
        let produced: u64 = self.rounds.iter().map(|r| r.produced).sum();
        let subsumed: u64 = self.rounds.iter().map(|r| r.subsumed).sum();
        if produced == 0 {
            0.0
        } else {
            subsumed as f64 / produced as f64
        }
    }

    /// Render as JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut totals = Json::obj();
        for (name, value) in &self.totals {
            totals = totals.field(name, *value);
        }
        let mut hists = Json::obj();
        for (name, hist) in &self.hists {
            hists = hists.field(name, hist.to_json());
        }
        let mut gauges = Json::obj();
        for (name, value) in &self.gauges {
            gauges = gauges.field(name, *value);
        }
        Json::obj()
            .field("query", self.query.as_str())
            .field("theory", self.theory.as_str())
            .field("threads", self.threads)
            .field("rounds", Json::Arr(self.rounds.iter().map(RoundStats::to_json).collect()))
            .field("plans", Json::Arr(self.plans.iter().map(PlanStats::to_json).collect()))
            .field(
                "operators",
                Json::Arr(
                    self.operators
                        .iter()
                        .map(|op| {
                            Json::obj()
                                .field("name", op.name.as_str())
                                .field("calls", op.calls)
                                .field("nanos", op.nanos)
                        })
                        .collect(),
                ),
            )
            .field("histograms", hists)
            .field("gauges", gauges)
            .field("totals", totals)
            .field("result_tuples", self.result_tuples)
            .field("wall_ns", self.wall_ns)
            .field("subsumption_effectiveness", self.subsumption_effectiveness())
    }

    /// Render as a fixed-width text table (the `EXPLAIN` view).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn render_text(&self) -> String {
        let ms = |ns: u64| format!("{:.2}ms", ns as f64 / 1e6);
        let mut out = String::new();
        out.push_str(&format!(
            "EXPLAIN {} [{}] threads={} wall={} result_tuples={}\n",
            self.query,
            self.theory,
            self.threads,
            ms(self.wall_ns),
            self.result_tuples
        ));
        if !self.rounds.is_empty() {
            out.push_str(&format!(
                "{:>6} {:>10} {:>8} {:>10} {:>16} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "round",
                "produced",
                "delta",
                "subsumed",
                "entails",
                "qe calls",
                "qe time",
                "pruned",
                "qe hits",
                "mw probes",
                "mw surv",
                "wall"
            ));
            for r in &self.rounds {
                out.push_str(&format!(
                    "{:>6} {:>10} {:>8} {:>10} {:>16} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                    r.round,
                    r.produced,
                    r.delta,
                    r.subsumed,
                    r.entailment_checks,
                    r.qe_calls,
                    ms(r.qe_ns),
                    r.prune_candidates.saturating_sub(r.prune_survivors),
                    r.qe_cache_hits,
                    r.multiway_probes,
                    r.multiway_survivors,
                    ms(r.wall_ns)
                ));
            }
            out.push_str(&format!(
                "subsumption effectiveness: {:.1}% of produced tuples rejected\n",
                100.0 * self.subsumption_effectiveness()
            ));
        }
        if !self.plans.is_empty() {
            out.push_str("join plans (multiway):\n");
            for p in &self.plans {
                let order =
                    p.var_order.iter().map(|v| format!("x{v}")).collect::<Vec<_>>().join(" ");
                out.push_str(&format!(
                    "  {} | order [{}] atoms={} probes={} survivors={}\n",
                    p.rule, order, p.atoms, p.probes, p.survivors
                ));
            }
        }
        if !self.operators.is_empty() {
            out.push_str(&format!("{:>24} {:>10} {:>12}\n", "operator", "calls", "incl time"));
            for op in &self.operators {
                out.push_str(&format!("{:>24} {:>10} {:>12}\n", op.name, op.calls, ms(op.nanos)));
            }
        }
        if !self.hists.is_empty() {
            out.push_str(&format!(
                "{:>24} {:>10} {:>12} {:>12} {:>12} {:>12}\n",
                "histogram", "count", "p50", "p90", "p99", "max"
            ));
            for (name, h) in &self.hists {
                let q = |q: f64| h.quantile(q).map_or_else(|| "-".into(), |v| v.to_string());
                out.push_str(&format!(
                    "{:>24} {:>10} {:>12} {:>12} {:>12} {:>12}\n",
                    name,
                    h.count(),
                    q(0.5),
                    q(0.9),
                    q(0.99),
                    h.max().map_or_else(|| "-".into(), |v| v.to_string())
                ));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges: ");
            let rows: Vec<String> =
                self.gauges.iter().map(|(name, value)| format!("{name}={value}")).collect();
            out.push_str(&rows.join(", "));
            out.push('\n');
        }
        out.push_str("totals: ");
        let mut first = true;
        for (name, value) in &self.totals {
            if *value > 0 {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("{name}={value}"));
            }
        }
        if first {
            out.push_str("(all zero)");
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EvalReport {
        EvalReport {
            query: "T(x,y) :- E; T,E".into(),
            theory: "dense linear order".into(),
            threads: 4,
            rounds: vec![
                RoundStats {
                    round: 1,
                    produced: 64,
                    delta: 64,
                    subsumed: 0,
                    entailment_checks: 10,
                    qe_calls: 0,
                    qe_ns: 0,
                    prune_candidates: 64,
                    prune_survivors: 64,
                    qe_cache_hits: 0,
                    multiway_probes: 0,
                    multiway_survivors: 0,
                    wall_ns: 1_200_000,
                },
                RoundStats {
                    round: 2,
                    produced: 128,
                    delta: 63,
                    subsumed: 65,
                    entailment_checks: 40,
                    qe_calls: 63,
                    qe_ns: 400_000,
                    prune_candidates: 4096,
                    prune_survivors: 128,
                    qe_cache_hits: 12,
                    multiway_probes: 512,
                    multiway_survivors: 96,
                    wall_ns: 2_000_000,
                },
            ],
            plans: vec![PlanStats {
                rule: "T(x0,x2) :- T(x0,x1), E(x1,x2)".into(),
                var_order: vec![1, 0, 2],
                atoms: 2,
                probes: 512,
                survivors: 96,
            }],
            operators: vec![OperatorStats { name: "qe.dense".into(), calls: 63, nanos: 400_000 }],
            hists: vec![("qe_call_ns".into(), {
                let mut h = Histogram::new();
                for v in [900u64, 1100, 6200, 6300, 48_000] {
                    h.record(v);
                }
                h
            })],
            gauges: vec![("interner_entries".into(), 512), ("interner_bytes".into(), 65_536)],
            totals: vec![("entailment_checks".into(), 50), ("tuples_inserted".into(), 127)],
            result_tuples: 127,
            wall_ns: 3_500_000,
        }
    }

    #[test]
    fn text_render_mentions_rounds_and_effectiveness() {
        let text = sample().render_text();
        assert!(text.contains("round"));
        assert!(text.contains("subsumption effectiveness"));
        assert!(text.contains("qe.dense"));
    }

    #[test]
    fn text_render_shows_plan_variable_order() {
        let text = sample().render_text();
        assert!(text.contains("join plans (multiway):"));
        assert!(text.contains("order [x1 x0 x2]"));
        assert!(text.contains("probes=512"));
        assert!(text.contains("survivors=96"));
    }

    #[test]
    fn text_render_shows_histograms_and_gauges() {
        let text = sample().render_text();
        assert!(text.contains("histogram"));
        assert!(text.contains("qe_call_ns"));
        assert!(text.contains("gauges: interner_entries=512, interner_bytes=65536"));
    }
}
