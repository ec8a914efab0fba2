//! The unified parallel executor.
//!
//! Every evaluator in this crate parallelizes the same way: a batch of
//! independent per-tuple jobs (rule firings, conjunction products,
//! quantifier eliminations) mapped over a fixed thread count with
//! [`std::thread::scope`]. The seed grew one private copy of that loop
//! inside the Herbrand engine (`fire_parallel`); [`Executor`] is that
//! loop promoted to a subsystem, shared by the symbolic Datalog engines,
//! the calculus evaluator, the relational algebra, and the Herbrand
//! machinery.
//!
//! An executor with `threads == 1` never spawns: callers can thread one
//! through unconditionally and pay nothing in the sequential case.
//!
//! Observability: the executor is the one place evaluation crosses a
//! thread boundary, so it is the one place scoped metrics could leak.
//! Before spawning, [`Executor::map`] captures the calling thread's
//! innermost [`cql_trace::MetricsScope`] handle and installs it on every
//! worker for the duration of the batch — counters incremented by
//! workers land in the same scope as serial work, making per-query
//! totals exact at any thread count.

use cql_trace::{current_handle, span};

/// Environment variable read by [`Executor::from_env`]; the CI matrix
/// runs the engine property tests at 1 and 4 threads through it.
pub const THREADS_ENV: &str = "CQL_ENGINE_THREADS";

/// A fixed-width scoped-thread map over independent jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    /// The serial executor (one thread, zero overhead).
    fn default() -> Executor {
        Executor::serial()
    }
}

impl Executor {
    /// An executor that runs every batch on the calling thread.
    #[must_use]
    pub fn serial() -> Executor {
        Executor { threads: 1 }
    }

    /// An executor over `threads` OS threads (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Executor {
        Executor { threads: threads.max(1) }
    }

    /// Thread count from [`THREADS_ENV`], defaulting to 1 (serial) when
    /// unset or unparsable — evaluation never spawns threads unless asked.
    #[must_use]
    pub fn from_env() -> Executor {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(1);
        Executor::new(threads)
    }

    /// The configured thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items`, preserving order. With more than one thread
    /// the items are split into contiguous chunks, one scoped thread per
    /// chunk; with one thread (or a tiny batch) it is a plain loop.
    pub fn map<I, O, F>(&self, items: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        // Spawning costs tens of microseconds per thread; a batch has to
        // be wide enough to amortize that or the map runs inline.
        const MIN_ITEMS_PER_THREAD: usize = 8;
        if self.threads <= 1 || items.len() < 2 * MIN_ITEMS_PER_THREAD {
            return items.into_iter().map(f).collect();
        }
        let workers = self.threads.min(items.len() / MIN_ITEMS_PER_THREAD).max(1);
        let chunk_size = items.len().div_ceil(workers);
        let mut chunks: Vec<Vec<I>> = Vec::new();
        let mut it = items.into_iter();
        loop {
            let chunk: Vec<I> = it.by_ref().take(chunk_size).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        let f = &f;
        // Workers count into the scope of the thread that issued the batch.
        let metrics_scope = current_handle();
        let _batch_span = span("executor.batch", "engine");
        let mut results: Vec<Vec<O>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    let metrics_scope = metrics_scope.clone();
                    scope.spawn(move || {
                        let _installed = metrics_scope.map(|h| h.install());
                        let _span = span("executor.worker", "engine");
                        chunk.into_iter().map(f).collect::<Vec<O>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("executor worker panicked")).collect()
        });
        let mut out = Vec::with_capacity(results.iter().map(Vec::len).sum());
        for r in &mut results {
            out.append(r);
        }
        out
    }

    /// Map `f` over `items` and flatten the per-item result vectors,
    /// preserving item order.
    pub fn flat_map<I, O, F>(&self, items: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> Vec<O> + Sync,
    {
        let nested = self.map(items, f);
        let mut out = Vec::with_capacity(nested.iter().map(Vec::len).sum());
        for mut v in nested {
            out.append(&mut v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_serial_and_parallel() {
        let items: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(Executor::serial().map(items.clone(), |x| x * 2), expect);
        assert_eq!(Executor::new(4).map(items.clone(), |x| x * 2), expect);
        assert_eq!(Executor::new(64).map(items, |x| x * 2), expect);
    }

    #[test]
    fn flat_map_flattens_in_order() {
        let items: Vec<u32> = (0..17).collect();
        let expect: Vec<u32> = items.iter().flat_map(|&x| vec![x, x + 100]).collect();
        assert_eq!(Executor::new(3).flat_map(items, |x| vec![x, x + 100]), expect);
    }
}
