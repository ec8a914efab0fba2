//! `trace_event` (chrome-trace) exporter.
//!
//! Renders span records (a recorder dump expanded by
//! [`crate::recorder::to_span_records`]) into the JSON array
//! format consumed by `about://tracing` and <https://ui.perfetto.dev>:
//! complete events (`"ph": "X"`) with microsecond timestamps, one track
//! per engine thread. Timestamps keep sub-microsecond precision as
//! fractional microseconds, which Perfetto accepts.

use crate::json::{self, Json};
use crate::span::SpanRecord;

fn us(ns: u64) -> Json {
    #[allow(clippy::cast_precision_loss)]
    Json::Num(ns as f64 / 1000.0)
}

/// Render span records as a chrome-trace JSON array.
#[must_use]
pub fn render(records: &[SpanRecord]) -> Json {
    let mut events = Vec::with_capacity(records.len());
    for r in records {
        let mut event = Json::obj()
            .field("name", r.name)
            .field("cat", r.cat)
            .field("pid", 1u64)
            .field("tid", r.tid)
            .field("ts", us(r.ts_ns));
        event = match r.dur_ns {
            Some(dur) => event.field("ph", "X").field("dur", us(dur)),
            None => event.field("ph", "i").field("s", "t"),
        };
        if !r.args.is_empty() {
            let mut args = Json::obj();
            for (k, v) in &r.args {
                args = args.field(k, v.clone());
            }
            event = event.field("args", args);
        }
        events.push(event);
    }
    Json::Arr(events)
}

/// Parse a chrome-trace JSON text back into a simplified record list
/// (round-trip validation). Instant events come back with `dur_ns = None`.
///
/// # Errors
/// Malformed JSON, a non-array top level, or an event missing required
/// `trace_event` keys.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub fn parse(text: &str) -> Result<Vec<ParsedEvent>, String> {
    let value = json::parse(text)?;
    let events = value.as_arr().ok_or("chrome trace must be a JSON array")?;
    let mut out = Vec::with_capacity(events.len());
    for (i, event) in events.iter().enumerate() {
        let req = |key: &str| {
            event.get(key).cloned().ok_or_else(|| format!("event {i} missing \"{key}\""))
        };
        let name = req("name")?.as_str().ok_or_else(|| format!("event {i}: name"))?.to_string();
        let ph = req("ph")?.as_str().ok_or_else(|| format!("event {i}: ph"))?.to_string();
        let tid = req("tid")?.as_u64().ok_or_else(|| format!("event {i}: tid"))?;
        let ts = req("ts")?.as_num().ok_or_else(|| format!("event {i}: ts"))?;
        let dur_ns = match ph.as_str() {
            "X" => {
                let dur = req("dur")?.as_num().ok_or_else(|| format!("event {i}: dur"))?;
                Some((dur * 1000.0).round() as u64)
            }
            "i" => None,
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        };
        out.push(ParsedEvent { name, tid, ts_ns: (ts * 1000.0).round() as u64, dur_ns });
    }
    Ok(out)
}

/// A parsed chrome-trace event (see [`parse`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedEvent {
    /// Event name.
    pub name: String,
    /// Thread track.
    pub tid: u64,
    /// Start timestamp, nanoseconds.
    pub ts_ns: u64,
    /// Duration in nanoseconds (`None` for instant events).
    pub dur_ns: Option<u64>,
}

/// Check that complete events are strictly nested per thread track: any
/// two spans on one `tid` are either disjoint or one contains the other.
/// Returns the first violating pair of names.
///
/// This is the invariant RAII span guards guarantee, and what makes the
/// trace render as a well-formed flame graph.
#[must_use]
pub fn nesting_violation(events: &[ParsedEvent]) -> Option<(String, String)> {
    let mut by_tid: std::collections::BTreeMap<u64, Vec<&ParsedEvent>> =
        std::collections::BTreeMap::new();
    for e in events {
        if e.dur_ns.is_some() {
            by_tid.entry(e.tid).or_default().push(e);
        }
    }
    for track in by_tid.values() {
        for (i, a) in track.iter().enumerate() {
            let (a0, a1) = (a.ts_ns, a.ts_ns + a.dur_ns.unwrap_or(0));
            for b in &track[i + 1..] {
                let (b0, b1) = (b.ts_ns, b.ts_ns + b.dur_ns.unwrap_or(0));
                let disjoint = a1 <= b0 || b1 <= a0;
                let nested = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1);
                if !disjoint && !nested {
                    return Some((a.name.clone(), b.name.clone()));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn record(name: &'static str, tid: u64, ts: u64, dur: Option<u64>) -> SpanRecord {
        SpanRecord { name, cat: "op", tid, ts_ns: ts, dur_ns: dur, args: Vec::new() }
    }

    #[test]
    fn render_parse_round_trip() {
        let records = vec![
            record("outer", 0, 1_000, Some(10_000)),
            record("inner", 0, 2_000, Some(3_000)),
            record("epoch", 1, 1_500, None),
        ];
        let mut with_args = record("with_args", 2, 0, Some(500));
        with_args.args.push(("round", Json::from(3u64)));
        let mut all = records;
        all.push(with_args);

        let text = render(&all).render();
        let parsed = parse(&text).expect("chrome trace parses");
        assert_eq!(parsed.len(), all.len());
        assert_eq!(parsed[0].name, "outer");
        assert_eq!(parsed[0].dur_ns, Some(10_000));
        assert_eq!(parsed[2].dur_ns, None);
        assert!(nesting_violation(&parsed).is_none());
    }

    #[test]
    fn detects_partial_overlap() {
        let records = vec![record("a", 0, 0, Some(1_000)), record("b", 0, 500, Some(1_000))];
        let parsed = parse(&render(&records).render()).unwrap();
        assert_eq!(nesting_violation(&parsed), Some(("a".into(), "b".into())));
    }
}
