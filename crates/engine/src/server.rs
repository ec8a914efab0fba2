//! The thread-per-core multi-tenant front door: a hand-rolled worker
//! pool with a bounded admission queue, per-tenant telemetry scopes and
//! SLO-watchdog wiring. No external dependencies — the queue is a
//! `Mutex<VecDeque>` + `Condvar`, workers are plain OS threads (one per
//! core by default), and responses travel through one-shot tickets.
//!
//! Design points:
//!
//! * **Bounded admission.** [`QueryServer::submit`] never blocks: a
//!   full queue sheds the request ([`Admission::Overloaded`]) instead
//!   of queueing unbounded work — the client retries or backs off, and
//!   p99 latency stays bounded by queue depth × service time.
//! * **Per-tenant accounting.** Each query runs with the tenant's
//!   long-lived [`TelemetryRegistry`] scope installed, wrapped in a
//!   per-query [`MetricsScope`]: counters and histograms recorded
//!   anywhere in the engine fold into the tenant's totals exactly
//!   (workers and the engine executor install the issuing scope), and
//!   the scope's drop runs the armed SLO-watchdog check, freezing the
//!   flight recorder on breach — the PR 9 wiring, now per query.
//! * **Thread-per-core.** Workers default to
//!   [`std::thread::available_parallelism`]. Each worker drains the
//!   shared queue; there is no per-connection thread, so 10k+ simulated
//!   clients multiplex onto a fixed core count (see `repro e21`).
//!
//! The server is generic over request/response types: the serving
//! closure captures whatever runtime state it needs (typically an
//! `Arc<Runtime<T>>` — pin a snapshot, evaluate, return). Keeping the
//! server payload-agnostic means admission control, telemetry and
//! shutdown are testable without a constraint theory in sight.

use crate::trace::{MetricsScope, TelemetryRegistry};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Worker-pool and admission-queue sizing.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads (0 means one per available core).
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { workers: 0, queue_capacity: 1024 }
    }
}

impl ServerConfig {
    fn resolved_workers(self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
    }
}

/// The admission decision for one submitted request.
pub enum Admission<Resp> {
    /// Queued; redeem the ticket with [`Ticket::wait`].
    Accepted(Ticket<Resp>),
    /// The queue was full (or the server is shutting down); the request
    /// was not queued. Callers back off and retry.
    Overloaded,
}

impl<Resp> Admission<Resp> {
    /// The ticket, or `None` if the request was shed.
    pub fn ticket(self) -> Option<Ticket<Resp>> {
        match self {
            Admission::Accepted(t) => Some(t),
            Admission::Overloaded => None,
        }
    }
}

/// The one-shot cell a worker fills with the handler's response, or with
/// its panic.
type Slot<Resp> = Arc<(Mutex<Option<std::thread::Result<Resp>>>, Condvar)>;

/// A one-shot response slot: the worker fills it, the submitting client
/// blocks on [`Ticket::wait`].
pub struct Ticket<Resp> {
    cell: Slot<Resp>,
}

impl<Resp> Ticket<Resp> {
    /// Block until the response arrives.
    ///
    /// # Panics
    /// Re-raises the handler's panic if it panicked while handling the
    /// request. The worker that ran it survives and keeps serving.
    #[must_use]
    pub fn wait(self) -> Resp {
        let (slot, ready) = &*self.cell;
        let mut guard = slot.lock().expect("response slot poisoned");
        loop {
            if let Some(result) = guard.take() {
                drop(guard);
                return result.unwrap_or_else(|panic| resume_unwind(panic));
            }
            guard = ready.wait(guard).expect("response slot poisoned");
        }
    }
}

struct Job<Req, Resp> {
    tenant: String,
    req: Req,
    ticket: Slot<Resp>,
}

struct QueueState<Req, Resp> {
    jobs: VecDeque<Job<Req, Resp>>,
    shutdown: bool,
}

type Handler<Req, Resp> = Box<dyn Fn(&str, Req) -> Resp + Send + Sync>;

struct Shared<Req, Resp> {
    queue: Mutex<QueueState<Req, Resp>>,
    available: Condvar,
    capacity: usize,
    handler: Handler<Req, Resp>,
    registry: Arc<TelemetryRegistry>,
    /// Per-tenant in-flight query counts (mirrored into the registry's
    /// per-tenant `active_queries` gauge on every transition).
    active: Mutex<BTreeMap<String, u64>>,
    admitted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
}

/// The multi-tenant query server. See the module docs.
pub struct QueryServer<Req: Send + 'static, Resp: Send + 'static> {
    shared: Arc<Shared<Req, Resp>>,
    workers: Vec<JoinHandle<()>>,
}

impl<Req: Send + 'static, Resp: Send + 'static> QueryServer<Req, Resp> {
    /// Start the worker pool. Every query runs `handler(tenant, req)`
    /// under the tenant's registered telemetry scope.
    pub fn start(
        config: ServerConfig,
        registry: Arc<TelemetryRegistry>,
        handler: impl Fn(&str, Req) -> Resp + Send + Sync + 'static,
    ) -> QueryServer<Req, Resp> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            handler: Box::new(handler),
            registry,
            active: Mutex::new(BTreeMap::new()),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let workers = (0..config.resolved_workers())
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cql-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn server worker")
            })
            .collect();
        QueryServer { shared, workers }
    }

    /// Submit one request for `tenant`. Never blocks: a full queue (or
    /// a server mid-shutdown) sheds the request.
    pub fn submit(&self, tenant: &str, req: Req) -> Admission<Resp> {
        let cell = {
            let mut queue = self.shared.queue.lock().expect("server queue poisoned");
            if queue.shutdown || queue.jobs.len() >= self.shared.capacity {
                drop(queue);
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                return Admission::Overloaded;
            }
            let cell = Arc::new((Mutex::new(None), Condvar::new()));
            queue.jobs.push_back(Job {
                tenant: tenant.to_string(),
                req,
                ticket: Arc::clone(&cell),
            });
            cell
        };
        self.shared.admitted.fetch_add(1, Ordering::Relaxed);
        self.shared.available.notify_one();
        Admission::Accepted(Ticket { cell })
    }

    /// The worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Admission and occupancy gauges, as `(name, value)` rows: queue
    /// depth and capacity, worker count, admitted/shed/completed totals
    /// and the total in-flight query count. Per-tenant in-flight counts
    /// live in the registry (gauge `active_queries` on each tenant's
    /// scope).
    #[must_use]
    pub fn gauges(&self) -> Vec<(String, u64)> {
        let depth = self.shared.queue.lock().expect("server queue poisoned").jobs.len();
        let active: u64 = self.shared.active.lock().expect("active poisoned").values().sum();
        vec![
            ("server_queue_depth".to_string(), depth as u64),
            ("server_queue_capacity".to_string(), self.shared.capacity as u64),
            ("server_workers".to_string(), self.workers.len() as u64),
            ("server_admitted".to_string(), self.shared.admitted.load(Ordering::Relaxed)),
            ("server_shed".to_string(), self.shared.shed.load(Ordering::Relaxed)),
            ("server_completed".to_string(), self.shared.completed.load(Ordering::Relaxed)),
            ("server_active_queries".to_string(), active),
        ]
    }

    /// Stop admitting, drain queued work, and join every worker.
    pub fn shutdown(mut self) {
        self.signal_and_join();
    }

    fn signal_and_join(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("server queue poisoned");
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("server worker panicked");
        }
    }
}

impl<Req: Send + 'static, Resp: Send + 'static> Drop for QueryServer<Req, Resp> {
    fn drop(&mut self) {
        self.signal_and_join();
    }
}

fn worker_loop<Req: Send, Resp: Send>(shared: &Shared<Req, Resp>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("server queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.available.wait(queue).expect("server queue poisoned");
            }
        };
        set_active(shared, &job.tenant, 1);
        let handle = shared.registry.register(&job.tenant);
        let result = {
            let _tenant = handle.install();
            // Per-query scope: folds into the tenant scope on drop and
            // runs the armed SLO-watchdog check (recorder freeze on
            // breach) — exactly the instrumentation a standalone
            // evaluation gets.
            let _query = MetricsScope::enter("server.query");
            // A panicking handler fails its own ticket, not the worker.
            catch_unwind(AssertUnwindSafe(|| (shared.handler)(&job.tenant, job.req)))
        };
        // Settle the counts before answering, so a client that holds its
        // response never sees its own query as in flight.
        set_active(shared, &job.tenant, -1);
        shared.completed.fetch_add(1, Ordering::Relaxed);
        let (slot, ready) = &*job.ticket;
        *slot.lock().expect("response slot poisoned") = Some(result);
        ready.notify_all();
    }
}

fn set_active<Req, Resp>(shared: &Shared<Req, Resp>, tenant: &str, delta: i64) {
    let mut active = shared.active.lock().expect("active poisoned");
    let n = active.entry(tenant.to_string()).or_insert(0);
    *n = n.checked_add_signed(delta).expect("active query count underflow");
    shared.registry.set_gauge(tenant, "active_queries", *n);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server(config: ServerConfig) -> (QueryServer<u64, u64>, Arc<TelemetryRegistry>) {
        let registry = Arc::new(TelemetryRegistry::new());
        let server = QueryServer::start(config, Arc::clone(&registry), |_tenant, n: u64| n * 2);
        (server, registry)
    }

    #[test]
    fn round_trips_requests_across_tenants() {
        let (server, registry) = echo_server(ServerConfig { workers: 4, queue_capacity: 64 });
        let tickets: Vec<_> = (0..32u64)
            .map(|i| {
                let tenant = if i % 2 == 0 { "tenant-a" } else { "tenant-b" };
                server.submit(tenant, i).ticket().expect("under capacity")
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait(), (i as u64) * 2);
        }
        // Both tenants got scopes; in-flight gauges settled back to 0.
        assert!(registry.names().contains(&"tenant-a".to_string()));
        let reading = registry.snapshot_scope("tenant-b").unwrap();
        assert_eq!(reading.gauges["active_queries"], 0);
        let rows: BTreeMap<String, u64> = server.gauges().into_iter().collect();
        assert_eq!(rows["server_admitted"], 32);
        assert_eq!(rows["server_completed"], 32);
        assert_eq!(rows["server_shed"], 0);
        assert_eq!(rows["server_active_queries"], 0);
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let registry = Arc::new(TelemetryRegistry::new());
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let gate_w = Arc::clone(&gate);
        // One worker, blocked until released: the queue fills up.
        let server = QueryServer::start(
            ServerConfig { workers: 1, queue_capacity: 2 },
            registry,
            move |_t, n: u64| {
                let (open, cv) = &*gate_w;
                let mut guard = open.lock().unwrap();
                while !*guard {
                    guard = cv.wait(guard).unwrap();
                }
                n
            },
        );
        // First submission is picked up by the (blocked) worker; the
        // next two fill the queue; the one after that is shed.
        let mut tickets = Vec::new();
        let mut shed = 0;
        for i in 0..8u64 {
            match server.submit("t", i) {
                Admission::Accepted(t) => tickets.push(t),
                Admission::Overloaded => shed += 1,
            }
            if i == 0 {
                // Give the worker a moment to dequeue the first job so
                // capacity accounting below is deterministic enough.
                while server.gauges().iter().any(|(n, v)| n == "server_queue_depth" && *v > 0) {
                    std::thread::yield_now();
                }
            }
        }
        assert!(shed >= 5, "expected at least 5 shed submissions, got {shed}");
        let (open, cv) = &*gate;
        *open.lock().unwrap() = true;
        cv.notify_all();
        for t in tickets {
            let _ = t.wait();
        }
        let rows: BTreeMap<String, u64> = server.gauges().into_iter().collect();
        assert_eq!(rows["server_shed"], shed);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let (server, _registry) = echo_server(ServerConfig { workers: 2, queue_capacity: 128 });
        let tickets: Vec<_> = (0..64u64).filter_map(|i| server.submit("t", i).ticket()).collect();
        server.shutdown();
        // Every admitted request was answered before the workers exited.
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait(), (i as u64) * 2);
        }
    }

    /// Wait for `ticket` on a helper thread: `None` when it is still
    /// unfilled after five seconds, else what `wait` returned or raised.
    fn wait_within<Resp: Send + 'static>(
        ticket: Ticket<Resp>,
    ) -> Option<std::thread::Result<Resp>> {
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(|| ticket.wait())));
        });
        let outcome = rx.recv_timeout(std::time::Duration::from_secs(5)).ok();
        if outcome.is_some() {
            waiter.join().expect("the waiter catches the ticket's panic");
        }
        outcome
    }

    #[test]
    fn a_panicking_handler_fails_its_ticket_and_keeps_its_worker() {
        let registry = Arc::new(TelemetryRegistry::new());
        // One worker: the requests after the panic are served only if it
        // survived.
        let server = QueryServer::start(
            ServerConfig { workers: 1, queue_capacity: 16 },
            Arc::clone(&registry),
            |_t, n: u64| {
                assert_ne!(n, 7, "injected handler panic");
                n * 2
            },
        );
        let tickets: Vec<_> =
            [7u64, 1, 2].iter().map(|&n| server.submit("t", n).ticket().expect("queued")).collect();
        let outcomes: Vec<_> = tickets.into_iter().map(wait_within).collect();
        if outcomes.iter().any(Option::is_none) {
            // The pool died with the handler; dropping the server would
            // panic again in `join`, so leak it and report the hang.
            std::mem::forget(server);
            panic!(
                "tickets left unfilled: {:?}",
                outcomes.iter().map(Option::is_none).collect::<Vec<_>>()
            );
        }
        let mut outcomes = outcomes.into_iter().flatten();
        assert!(outcomes.next().is_some_and(|r| r.is_err()), "wait must re-raise the panic");
        let later: Vec<u64> = outcomes.map(|r| r.expect("later requests are served")).collect();
        assert_eq!(later, vec![2, 4]);
        assert_eq!(server.workers(), 1);
        let rows: BTreeMap<String, u64> = server.gauges().into_iter().collect();
        assert_eq!(rows["server_active_queries"], 0, "the panicked query left the in-flight count");
        assert_eq!(rows["server_completed"], 3);
        assert_eq!(registry.snapshot_scope("t").unwrap().gauges["active_queries"], 0);
        server.shutdown(); // joins the worker; a dead one would panic here
    }

    #[test]
    fn per_query_scopes_fold_into_tenant_totals() {
        use crate::trace::{count, Counter};
        let registry = Arc::new(TelemetryRegistry::new());
        let server = QueryServer::start(
            ServerConfig { workers: 2, queue_capacity: 64 },
            Arc::clone(&registry),
            |_t, n: u64| {
                count(Counter::QeCalls, n);
                n
            },
        );
        let tickets: Vec<_> =
            (1..=10u64).filter_map(|i| server.submit("acct", i).ticket()).collect();
        for t in tickets {
            let _ = t.wait();
        }
        server.shutdown();
        let reading = registry.snapshot_scope("acct").unwrap();
        assert_eq!(reading.metrics.get(Counter::QeCalls), 55, "1+2+…+10 across queries");
    }
}
