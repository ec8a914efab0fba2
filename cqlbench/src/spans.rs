//! The traced run's spans: recorded by the benchmark around its calls
//! into each layer, kept in memory, reduced to per-layer self times, and
//! written at exit as a chrome trace that is parsed back and checked.

use cql_trace::chrome::{self, ParsedEvent};
use cql_trace::json::Json;
use cql_trace::span::SpanRecord;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Read requests whose spans go into the written trace file (all
/// commits and repetitions always do); the in-memory statistics cover
/// every request. Kept small because `chrome::parse` takes time
/// quadratic in the file's length.
const FILE_REQUESTS: u64 = 200;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// First track id of the writer's schedule lanes, clear of the thread
/// tracks [`tid`] hands out.
pub const LANE_TID: u64 = 1 << 20;

/// A dense per-thread track id for the chrome trace.
pub fn tid() -> u64 {
    TID.with(|t| *t)
}

/// One closed interval on one thread's track.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Id of the enclosing span; 0 for a request's root span.
    pub parent: u64,
    pub request: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Builds the spans of one request against the run's time origin.
pub struct SpanBuilder<'a> {
    origin: Instant,
    request: u64,
    added: u64,
    out: &'a mut Vec<Span>,
}

impl<'a> SpanBuilder<'a> {
    pub fn new(origin: Instant, request: u64, out: &'a mut Vec<Span>) -> SpanBuilder<'a> {
        SpanBuilder { origin, request, added: 0, out }
    }

    /// Record `[start, end]` under `parent` (0 for the root) on track
    /// `tid`, returning the new span's id (unique while a request has
    /// fewer than 256 spans).
    pub fn add(
        &mut self,
        name: &'static str,
        parent: u64,
        tid: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.added += 1;
        let id = (self.request << 8) | self.added;
        self.out.push(Span {
            name,
            id,
            parent,
            request: self.request,
            tid,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
        id
    }
}

/// Per-name duration samples (ns), for the layer percentiles.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
}

/// Mean self time per span name, in nanoseconds, and the span count:
/// each span's duration minus the part of it its children cover.
pub fn mean_self_ns(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        let mut reach = s.start_ns;
        let mut kids = children.get(&s.id).cloned().unwrap_or_default();
        kids.sort_unstable();
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let slot = totals.entry(s.name).or_default();
        slot.0 += s.dur_ns() - covered;
        slot.1 += 1;
    }
    totals.into_iter().map(|(name, (ns, n))| (name, (ns as f64 / n as f64, n))).collect()
}

/// Render the spans as a chrome trace: every commit and fixpoint
/// repetition, plus the first [`FILE_REQUESTS`] read requests.
pub fn render(spans: &[Span]) -> String {
    let records: Vec<SpanRecord> = spans
        .iter()
        .filter(|s| s.request < FILE_REQUESTS || !is_read(s.name))
        .map(|s| SpanRecord {
            name: s.name,
            cat: "cqlbench",
            tid: s.tid,
            ts_ns: s.start_ns,
            dur_ns: Some(s.dur_ns()),
            args: vec![
                ("id", Json::from(s.id)),
                ("parent", Json::from(s.parent)),
                ("request", Json::from(s.request)),
            ],
        })
        .collect();
    chrome::render(&records).render()
}

fn is_read(name: &str) -> bool {
    !name.starts_with("commit") && !name.starts_with("fixpoint")
}

/// Parse a written trace back and check it: spans nest per track, and
/// every commit satisfies `commit == late + apply` and
/// `apply == maintain + publish`. Timestamps survive the round trip
/// exactly, so the sums must match to the nanosecond. A commit's
/// `commit` and `commit.late` spans sit on a schedule lane, its call
/// spans on the writer's track; the apply is the span that starts where
/// the late part ends. Returns the number of events checked.
pub fn self_check(text: &str) -> Result<usize, String> {
    let events = chrome::parse(text)?;
    if let Some((a, b)) = chrome::nesting_violation(&events) {
        return Err(format!("spans `{a}` and `{b}` overlap without nesting"));
    }
    let end = |e: &ParsedEvent| e.ts_ns + e.dur_ns.unwrap_or(0);
    let find = |name: &str, tid: u64, from: u64, to: u64| {
        events
            .iter()
            .find(|e| e.name == name && e.tid == tid && e.ts_ns >= from && end(e) <= to)
            .ok_or_else(|| format!("no `{name}` span in [{from}, {to}] ns"))
    };
    let dur = |e: &ParsedEvent| e.dur_ns.unwrap_or(0);
    for commit in events.iter().filter(|e| e.name == "commit") {
        let late = find("commit.late", commit.tid, commit.ts_ns, end(commit))?;
        let apply = events
            .iter()
            .find(|e| e.name == "commit.apply" && e.ts_ns == end(late) && end(e) == end(commit))
            .ok_or_else(|| format!("commit at {} ns has no apply span", commit.ts_ns))?;
        let maintain = find("commit.maintain", apply.tid, apply.ts_ns, end(apply))?;
        let publish = find("commit.publish", apply.tid, apply.ts_ns, end(apply))?;
        for (name, whole, sum) in [
            ("commit", dur(commit), dur(late) + dur(apply)),
            ("commit.apply", dur(apply), dur(maintain) + dur(publish)),
        ] {
            if whole != sum {
                return Err(format!(
                    "commit at {} ns: `{name}` {whole} ns != parts {sum} ns",
                    commit.ts_ns
                ));
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_trace_round_trips() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_micros(us);
        let mut spans = Vec::new();
        // Two commits due 50 us apart, the first running late into the
        // second's schedule: their schedule spans take two lanes, their
        // calls share the writer's track (7).
        for (request, due, start, wall, end) in [(0, 0, 10, 30, 100), (1, 50, 100, 20, 130)] {
            let lane = LANE_TID + request;
            let mut b = SpanBuilder::new(origin, request, &mut spans);
            let root = b.add("commit", 0, lane, at(due), at(end));
            b.add("commit.late", root, lane, at(due), at(start));
            let apply = b.add("commit.apply", root, 7, at(start), at(end));
            b.add("commit.maintain", apply, 7, at(start), at(start + wall));
            b.add("commit.publish", apply, 7, at(start + wall), at(end));
        }
        let selfs = mean_self_ns(&spans);
        assert_eq!(selfs["commit"], (0.0, 2));
        assert_eq!(selfs["commit.apply"], (0.0, 2));
        assert_eq!(selfs["commit.publish"], (35_000.0, 2));
        assert_eq!(self_check(&render(&spans)), Ok(10));

        // A publish that overruns its apply breaks nesting.
        spans[4].end_ns += 1_000;
        assert!(self_check(&render(&spans)).is_err());
    }
}
