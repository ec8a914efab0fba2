//! The serving workloads: closed-loop readers against a `QueryServer`
//! over a `Runtime`, and for `mixed_rw` an open-loop writer committing
//! through `Runtime::insert`/`retract` beside them.

use crate::inputs::{self, Read, Rng};
use crate::report::Outcome;
use crate::spans::{self, SpanBuilder};
use crate::stats;
use crate::Config;
use cql_core::relation::{GenRelation, GenTuple};
use cql_dense::Dense;
use cql_engine::datalog::FixpointOptions;
use cql_engine::trace::{Counter, MetricsScope, MetricsSnapshot, TelemetryRegistry, UpdateStats};
use cql_engine::{QueryServer, Runtime, ServerConfig};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANT: &str = "cqlbench";

/// The load shape of one serving workload.
#[derive(Clone, Copy, Debug)]
pub struct Load {
    /// Closed-loop reader threads (each with one request outstanding).
    pub readers: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Draws the next read of a reader's stream.
    pub draw: fn(&mut Rng, i64) -> Read,
    /// Run the open-loop writer (then the window is its commit schedule).
    pub writer: bool,
}

/// What the handler hands back: the answer, what the pinned epoch
/// looked like, and the handler-side stamps of the request's stages.
struct Served {
    result: Result<GenRelation<Dense>, String>,
    epoch: u64,
    e_len: usize,
    t_len: usize,
    worker: u64,
    entry: Instant,
    pin_start: Instant,
    pinned: Instant,
    query_start: Instant,
    queried: Instant,
    exit: Instant,
}

type Server = QueryServer<Read, Served>;

fn handler(runtime: Arc<Runtime<Dense>>) -> impl Fn(&str, Read) -> Served + Send + Sync + 'static {
    move |_tenant, read| {
        let entry = Instant::now();
        let constraints = read.constraints();
        let pin_start = Instant::now();
        let snapshot = runtime.pin();
        let pinned = Instant::now();
        let len = |name| snapshot.relation(name).map_or(0, GenRelation::len);
        let (epoch, e_len, t_len) = (snapshot.epoch(), len("E"), len("T"));
        let query_start = Instant::now();
        let result = runtime.query(&snapshot, "T", &constraints).map_err(|e| e.to_string());
        let queried = Instant::now();
        drop(snapshot);
        Served {
            result,
            epoch,
            e_len,
            t_len,
            worker: spans::tid(),
            entry,
            pin_start,
            pinned,
            query_start,
            queried,
            exit: Instant::now(),
        }
    }
}

/// The shared clock of one run: the time origin of its spans, the end
/// of warm-up, and the ids of traced requests.
struct Clock {
    origin: Instant,
    warm_end: Instant,
    requests: AtomicU64,
}

#[derive(Default)]
struct ReaderLog {
    /// Reads answered, warm-up included.
    answered: u64,
    latencies_ns: Vec<u64>,
    /// Completion times of measured reads, seconds after warm-up.
    done_s: Vec<f64>,
    results: u64,
    outcome: Outcome,
}

/// One closed-loop reader: draws its stream from the seed, checks every
/// answer against the closed form, and stops when `stop` says so.
fn reader(
    server: &Server,
    cfg: &Config,
    load: &Load,
    stream: u64,
    clock: &Clock,
    stop: &dyn Fn() -> bool,
) -> ReaderLog {
    let n = cfg.sizes.chain;
    let tid = spans::tid();
    let mut rng = Rng::new(cfg.seed, stream);
    let mut log = ReaderLog::default();
    let mut last_epoch = 0;
    while !stop() {
        let read = (load.draw)(&mut rng, n);
        let start = Instant::now();
        let measured = start >= clock.warm_end;
        log.outcome.attempted += u64::from(measured);
        let Some(ticket) = server.submit(TENANT, read).ticket() else {
            log.outcome.failed += u64::from(measured);
            continue;
        };
        let served = ticket.wait();
        let end = Instant::now();
        log.answered += 1;
        if let Err(what) = check(read, &served, n, &mut last_epoch) {
            log.outcome.wrong(measured, format!("{read:?}: {what}"));
        }
        if !measured {
            continue;
        }
        log.latencies_ns.push((end - start).as_nanos() as u64);
        log.results += served.result.as_ref().map_or(0, |r| r.len() as u64);
        log.done_s.push((end - clock.warm_end).as_secs_f64());
        if cfg.trace {
            let id = clock.requests.fetch_add(1, Ordering::Relaxed);
            let mut b = SpanBuilder::new(clock.origin, id, &mut log.outcome.spans);
            let root = b.add("read", 0, tid, start, end);
            b.add("server.queue_wait", root, tid, start, served.entry);
            let h = b.add("handler", root, served.worker, served.entry, served.exit);
            b.add("snapshot.pin", h, served.worker, served.pin_start, served.pinned);
            b.add("query", h, served.worker, served.query_start, served.queried);
            b.add("snapshot.unpin", h, served.worker, served.queried, served.exit);
            b.add("server.handoff", root, tid, served.exit, end);
        }
    }
    log
}

/// The read's answer must be exactly its closed form, and the pinned
/// epoch must be a consistent state no older than the last one seen:
/// every state the writer publishes is a chain of `e` edges whose
/// closure has `e(e+1)/2` pairs.
fn check(read: Read, served: &Served, n: i64, last_epoch: &mut u64) -> Result<(), String> {
    let rel = served.result.as_ref().map_err(|e| format!("error: {e}"))?;
    if !inputs::holds_exactly(rel, &read.expected(n)) {
        return Err(format!("{} tuples, expected {}", rel.len(), read.expected(n).len()));
    }
    let e = served.e_len;
    if !(e == n as usize || e == n as usize + 1) || served.t_len != e * (e + 1) / 2 {
        return Err(format!("torn snapshot: |E| = {e}, |T| = {}", served.t_len));
    }
    if served.epoch < *last_epoch {
        return Err(format!("epoch went back from {} to {}", last_epoch, served.epoch));
    }
    *last_epoch = served.epoch;
    Ok(())
}

#[derive(Default)]
struct WriterLog {
    latencies_ns: Vec<u64>,
    late_ns: Vec<u64>,
    updates: Vec<UpdateStats>,
    scope: Option<MetricsSnapshot>,
    outcome: Outcome,
}

/// The open-loop writer: commit `k` is due at `warm_end + k / hz` and
/// alternately inserts and retracts the pendant edge `E(n, n+1)`, which
/// moves the `n + 1` closure pairs `(i, n+1)`. Latency counts from the
/// due time, so a stall also charges the commits queued behind it.
fn writer(runtime: &Runtime<Dense>, cfg: &Config, clock: &Clock) -> WriterLog {
    let n = cfg.sizes.chain;
    let edge = inputs::pair(n, n + 1);
    let commits = commits(cfg);
    let tid = spans::tid();
    let mut log = WriterLog::default();
    // Warm the commit path once in each direction before the window.
    for k in 0..2 {
        if let Err(e) = commit(runtime, &edge, k) {
            log.outcome.wrong(false, format!("warm-up commit {k}: {e}"));
        }
    }
    sleep_until(clock.warm_end);
    let scope = cfg.trace.then(|| MetricsScope::enter("cqlbench.writer"));
    let mut lanes: Vec<Instant> = Vec::new();
    for k in 0..commits {
        let due = clock.warm_end + Duration::from_secs_f64(k as f64 / cfg.sizes.commit_hz);
        sleep_until(due);
        let start = Instant::now();
        let result = commit(runtime, &edge, k);
        let end = Instant::now();
        log.outcome.attempted += 1;
        log.latencies_ns.push((end - due).as_nanos() as u64);
        log.late_ns.push((start - due).as_nanos() as u64);
        let stats = match result {
            Ok(stats) => stats,
            Err(e) => {
                log.outcome.wrong(true, format!("commit {k}: {e}"));
                continue;
            }
        };
        // Between commits (off the clock): the new epoch holds the chain
        // with or without the pendant edge.
        let edges = runtime.pin().relation("E").map_or(0, GenRelation::len);
        if edges != n as usize + usize::from(k % 2 == 0) {
            log.outcome.wrong(true, format!("commit {k}: |E| = {edges} after it"));
        }
        if cfg.trace {
            // Open-loop commits overlap in time when the writer runs
            // late, so each commit's schedule spans go on the first lane
            // free at its due time; its call spans stay on this thread.
            let lane = lanes.iter().position(|&free| free <= due).unwrap_or(lanes.len());
            if lane == lanes.len() {
                lanes.push(end);
            }
            lanes[lane] = end;
            let lane = spans::LANE_TID + lane as u64;
            let id = clock.requests.fetch_add(1, Ordering::Relaxed);
            let mut b = SpanBuilder::new(clock.origin, id, &mut log.outcome.spans);
            let root = b.add("commit", 0, lane, due, end);
            b.add("commit.late", root, lane, due, start);
            let apply = b.add("commit.apply", root, tid, start, end);
            // Maintenance is the view's own wall time; publish is the rest
            // of the call. A maintenance time longer than the call would
            // overrun its parent, which the trace self-check reports.
            let maintained = start + Duration::from_nanos(stats.wall_ns);
            b.add("commit.maintain", apply, tid, start, maintained);
            b.add("commit.publish", apply, tid, maintained.min(end), end);
        }
        log.updates.push(stats);
    }
    log.scope = scope.map(|s| s.snapshot());
    log
}

/// Commits in the window: the writer's rate times the window, rounded
/// down to an even count so the run ends on the seed state.
fn commits(cfg: &Config) -> u64 {
    ((cfg.seconds * cfg.sizes.commit_hz) as u64 / 2 * 2).max(2)
}

fn commit(runtime: &Runtime<Dense>, edge: &GenTuple<Dense>, k: u64) -> Result<UpdateStats, String> {
    let result =
        if k % 2 == 0 { runtime.insert("E", edge.clone()) } else { runtime.retract("E", edge) };
    result.map_err(|e| e.to_string())
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Run one serving workload.
pub fn run(load: &Load, cfg: &Config) -> Result<Outcome, String> {
    let n = cfg.sizes.chain;
    let edb = inputs::served_edb(&cfg.sizes);
    let opts = FixpointOptions { threads: 1, ..FixpointOptions::default() };
    let registry = Arc::new(TelemetryRegistry::new());
    let server_config = ServerConfig { workers: load.workers, queue_capacity: 1024 };

    // Set up several times; serve from the last.
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..cfg.sizes.setups {
        drop(live.take());
        let started = Instant::now();
        let runtime =
            Arc::new(Runtime::new(inputs::tc_program(), &edb, opts).map_err(|e| e.to_string())?);
        let server =
            Server::start(server_config, Arc::clone(&registry), handler(Arc::clone(&runtime)));
        setup_s.push(started.elapsed().as_secs_f64());
        live = Some((runtime, server));
    }
    let (runtime, server) = live.expect("at least one set-up");

    let origin = Instant::now();
    let clock = Clock {
        origin,
        warm_end: origin + Duration::from_secs_f64(cfg.warmup),
        requests: AtomicU64::new(0),
    };
    let end = clock.warm_end + Duration::from_secs_f64(cfg.seconds);
    let writer_done = AtomicBool::new(!load.writer);
    let stop = || {
        if load.writer {
            writer_done.load(Ordering::SeqCst)
        } else {
            Instant::now() >= end
        }
    };
    let (readers, written) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..load.readers as u64)
            .map(|stream| {
                let (server, clock, stop) = (&server, &clock, &stop);
                s.spawn(move || reader(server, cfg, load, stream, clock, stop))
            })
            .collect();
        let written = load.writer.then(|| {
            let log = writer(&runtime, cfg, &clock);
            writer_done.store(true, Ordering::SeqCst);
            log
        });
        let readers: Vec<ReaderLog> =
            readers.into_iter().map(|h| h.join().expect("reader thread")).collect();
        (readers, written)
    });
    let shed =
        server.gauges().into_iter().find(|(name, _)| name == "server_shed").map_or(0, |(_, v)| v);
    server.shutdown();

    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    let mut results = 0;
    let mut answered = 0;
    let mut done_s = Vec::new();
    for log in readers {
        latencies.extend(log.latencies_ns);
        done_s.extend(log.done_s);
        results += log.results;
        answered += log.answered;
        absorb(&mut out, log.outcome);
    }
    let reads = latencies.len() as u64;
    out.set("throughput_per_s", stats::sliced_rate(&done_s, cfg.seconds), reads);
    out.percentile("read.latency_ms.p50", &latencies, 50);
    out.percentile("read.latency_ms.p99", &latencies, 99);
    out.ratio("query.results_per_read", results as f64, reads);
    out.set("setup_s", stats::median(&setup_s), setup_s.len() as u64);
    out.set("server.shed", shed as f64, answered + shed);

    // The readers' engine work folds into the tenant scope; on `mixed_rw`
    // the layer metrics are the writer's, whose commits are the workload's
    // operation, and the `query.*` metrics below cover the reader.
    let tenant = registry.snapshot_scope(TENANT).map(|r| r.metrics).unwrap_or_default();
    match written {
        Some(log) => {
            out.percentile("latency_p50_ms", &log.latencies_ns, 50);
            out.percentile("latency_tail_ms", &log.latencies_ns, 95);
            if let Some(&late) = log.late_ns.iter().max() {
                out.set("loadgen.writer_late_ms.max", late as f64 / 1e6, log.late_ns.len() as u64);
            }
            let commits = log.updates.len() as u64;
            for (name, total) in [
                ("commit.delta_rounds", log.updates.iter().map(|u| u.delta_rounds).sum::<u64>()),
                ("commit.support_adjust", log.updates.iter().map(|u| u.support_adjust).sum()),
                ("commit.qe_calls", log.updates.iter().map(|u| u.qe_calls).sum()),
                ("commit.entailment_checks", log.updates.iter().map(|u| u.entailment_checks).sum()),
            ] {
                out.ratio(name, total as f64, commits);
            }
            if let Some(scope) = &log.scope {
                out.engine_layers(scope, commits);
            }
            absorb(&mut out, log.outcome);
        }
        None => {
            out.percentile("latency_p50_ms", &latencies, 50);
            out.percentile("latency_tail_ms", &latencies, 99);
            out.engine_layers(&tenant, reads);
        }
    }

    // Per-read engine work over every answered read, warm-up included:
    // a query's counters fold into the tenant scope before its answer is
    // handed back, so these are exact ratios of whole requests.
    out.ratio("query.examined_per_read", tenant.get(Counter::PruneCandidates) as f64, answered);
    out.ratio(
        "query.survivor_ratio",
        tenant.get(Counter::PruneSurvivors) as f64,
        tenant.get(Counter::PruneCandidates),
    );
    out.ratio("query.entailment_per_read", tenant.get(Counter::EntailmentChecks) as f64, answered);
    let interned = tenant.get(Counter::InternHits) + tenant.get(Counter::InternMisses);
    out.ratio("query.intern_per_read", interned as f64, answered);
    for (gauge, value) in runtime.gauges() {
        match gauge.as_str() {
            "interner_entries" => out.set("interner.entries", value as f64, 1),
            "interner_bytes" => out.set("interner.bytes", value as f64, 1),
            _ => {}
        }
    }

    // The run ends on the seed state: exactly the chain and its closure.
    let last = runtime.pin();
    let chain: BTreeSet<(i64, i64)> = (0..n).map(|i| (i, i + 1)).collect();
    for (name, expected) in [("E", chain), ("T", inputs::closure(n))] {
        let ok = last.relation(name).is_ok_and(|rel| inputs::holds_exactly(rel, &expected));
        if !ok {
            out.wrong(true, format!("final `{name}` differs from the seed state"));
        }
    }
    Ok(out)
}

fn absorb(out: &mut Outcome, part: Outcome) {
    out.attempted += part.attempted;
    out.failed += part.failed;
    out.wrong.extend(part.wrong);
    out.spans.extend(part.spans);
}
