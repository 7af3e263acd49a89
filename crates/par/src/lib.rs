//! `wow-par`: a dependency-free scoped worker pool.
//!
//! The build environment has no registry access, so this crate hand-rolls
//! the small slice of rayon/crossbeam the workspace needs: chunked
//! scatter/gather over scoped threads with an atomic task injector. There
//! are no long-lived worker threads — each [`Pool::scope`] call spawns up
//! to `workers` OS threads via [`std::thread::scope`], which keeps the
//! design free of lifetime erasure (`'static` bounds) and shutdown
//! protocol, at the cost of a thread-spawn per parallel region. The
//! regions this pool serves (multi-page scans, hash-join builds) run for
//! hundreds of microseconds to milliseconds, so the ~10µs spawn cost
//! amortizes away; work below that scale should stay on the serial path
//! (see the threshold constants in the consuming crates).
//!
//! Semantics:
//!
//! * **Order-preserving gather**: [`Pool::map`] returns results in input
//!   order regardless of which worker ran which task.
//! * **Panic propagation**: a panicking task poisons the region; the first
//!   panic payload is re-raised on the submitting thread after all workers
//!   have stopped (remaining queued tasks are abandoned).
//! * **`workers == 1` is exact serial execution**: tasks run inline on the
//!   submitting thread, in submission order, with no thread spawned — so a
//!   size-1 pool is bit-for-bit the serial code path.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod stats;

/// Upper bound on auto-detected pool size; parallel regions here are
/// memory-bandwidth bound well before 16 cores help.
pub const MAX_AUTO_WORKERS: usize = 8;

/// Resolve a worker count: a non-zero `WOW_WORKERS` environment variable
/// wins (so an operator can pin the width), then an explicit non-zero
/// request, then
/// [`std::thread::available_parallelism`] clamped to [`MAX_AUTO_WORKERS`].
pub fn resolve_workers(requested: usize) -> usize {
    if let Some(n) = wow_obs::env_override::<usize>("WOW_WORKERS").filter(|&n| n > 0) {
        return n;
    }
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_AUTO_WORKERS)
}

/// A scoped worker pool. Cheap to construct and copy: the struct holds only
/// the target width; threads are spawned per scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Default for Pool {
    fn default() -> Pool {
        Pool::new(resolve_workers(0))
    }
}

impl Pool {
    /// A pool that runs scopes on up to `workers` threads (minimum 1).
    pub fn new(workers: usize) -> Pool {
        Pool {
            workers: workers.max(1),
        }
    }

    /// A single-threaded pool (exact serial behavior).
    pub fn serial() -> Pool {
        Pool::new(1)
    }

    /// The configured width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run a set of spawned tasks to completion, then return. Tasks are
    /// picked up by up to `workers` threads from a shared injector; with
    /// one worker they run inline in submission order.
    pub fn scope<'env, F>(&self, build: F)
    where
        F: FnOnce(&mut Scope<'env>),
    {
        let mut scope = Scope { tasks: Vec::new() };
        build(&mut scope);
        self.run_tasks(scope.tasks);
    }

    /// Apply `f` to every element of `items` (receiving the element index),
    /// gathering results in input order. `f` may run concurrently on up to
    /// `workers` threads; panics propagate to the caller.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.workers == 1 || n <= 1 {
            stats::note_tasks(n as u64);
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let fref = &f;
        let slots_ref = &slots;
        let results_ref = &results;
        self.scope(|s| {
            for i in 0..n {
                s.spawn(move || {
                    let item = slots_ref[i]
                        .lock()
                        .unwrap()
                        .take()
                        .expect("task taken once");
                    let r = fref(i, item);
                    *results_ref[i].lock().unwrap() = Some(r);
                });
            }
        });
        results
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("task completed"))
            .collect()
    }

    /// Split `0..len` into contiguous chunks (at least `min_chunk` items
    /// each, roughly `2 × workers` chunks total) and apply `f` to each
    /// range concurrently, gathering chunk results in range order.
    /// The chunk decomposition is a pure function of `(len, workers,
    /// min_chunk)`, so output order is deterministic.
    pub fn map_chunks<R, F>(&self, len: usize, min_chunk: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(std::ops::Range<usize>) -> R + Sync,
    {
        let ranges = chunk_ranges(len, self.workers, min_chunk);
        stats::note_chunks(ranges.len() as u64);
        self.map(ranges, |_, r| f(r))
    }

    /// Execute boxed tasks across the pool with panic propagation. The
    /// submitting thread's [`wow_obs::TraceContext`] is captured here and
    /// installed in every worker, so spans recorded inside tasks parent to
    /// the span that scattered the work — a fresh OS thread has no other
    /// way to learn which request it is serving.
    fn run_tasks(&self, tasks: Vec<Task<'_>>) {
        let n = tasks.len();
        stats::note_tasks(n as u64);
        if n == 0 {
            return;
        }
        if self.workers == 1 || n == 1 {
            // Inline on the submitting thread: the context is already
            // installed there, making a size-1 pool bit-for-bit serial.
            for t in tasks {
                t();
            }
            return;
        }
        let ctx = wow_obs::current_context();
        let slots: Vec<Mutex<Option<Task<'_>>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let next = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let panic_box: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let nthreads = self.workers.min(n);
        std::thread::scope(|s| {
            for _ in 0..nthreads {
                s.spawn(|| {
                    let _trace = wow_obs::install_context(ctx);
                    loop {
                        if poisoned.load(Ordering::Acquire) {
                            return;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return;
                        }
                        let task = slots[i]
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .take()
                            .expect("each task runs once");
                        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                            poisoned.store(true, Ordering::Release);
                            let mut slot = panic_box.lock().unwrap_or_else(|e| e.into_inner());
                            if slot.is_none() {
                                *slot = Some(payload);
                            }
                            return;
                        }
                    }
                });
            }
        });
        if let Some(payload) = panic_box.into_inner().unwrap_or_else(|e| e.into_inner()) {
            resume_unwind(payload);
        }
    }
}

type Task<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Task collector handed to the closure of [`Pool::scope`].
pub struct Scope<'env> {
    tasks: Vec<Task<'env>>,
}

impl<'env> Scope<'env> {
    /// Queue a task for the scope. Tasks may run on any worker thread in
    /// any order; with a single-worker pool they run in spawn order.
    pub fn spawn<F>(&mut self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.tasks.push(Box::new(f));
    }
}

/// Contiguous chunk decomposition of `0..len`: aims for `2 × workers`
/// chunks so faster workers can steal remaining ranges, but never splits
/// below `min_chunk` items per chunk.
pub fn chunk_ranges(len: usize, workers: usize, min_chunk: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let min_chunk = min_chunk.max(1);
    let target = (workers.max(1) * 2).min(len.div_ceil(min_chunk)).max(1);
    let chunk = len.div_ceil(target);
    let mut out = Vec::with_capacity(target);
    let mut start = 0;
    while start < len {
        let end = (start + chunk).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_preserves_order() {
        for workers in [1, 2, 4, 7] {
            let pool = Pool::new(workers);
            let items: Vec<usize> = (0..101).collect();
            let out = pool.map(items, |i, x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..101).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_chunks_covers_range_in_order() {
        for workers in [1, 3, 8] {
            let pool = Pool::new(workers);
            let parts = pool.map_chunks(1000, 10, |r| r.collect::<Vec<usize>>());
            let flat: Vec<usize> = parts.into_iter().flatten().collect();
            assert_eq!(flat, (0..1000).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunk_ranges_respects_min_chunk() {
        let ranges = chunk_ranges(100, 8, 64);
        assert_eq!(ranges.len(), 2, "min_chunk bounds the split: {ranges:?}");
        assert!(ranges.iter().all(|r| r.len() >= 36));
        assert!(chunk_ranges(0, 4, 1).is_empty());
        let one = chunk_ranges(1, 8, 1);
        assert_eq!(one, vec![0..1]);
    }

    #[test]
    fn scope_runs_all_tasks() {
        let pool = Pool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn serial_pool_runs_inline_in_order() {
        let pool = Pool::serial();
        let order = Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..10 {
                s.spawn({
                    let order = &order;
                    move || order.lock().unwrap().push(i)
                });
            }
        });
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn panics_propagate_to_caller() {
        for workers in [1, 4] {
            let pool = Pool::new(workers);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|s| {
                    s.spawn(|| {});
                    s.spawn(|| panic!("boom"));
                    s.spawn(|| {});
                });
            }));
            let payload = result.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "boom", "original payload survives (workers={workers})");
        }
    }

    #[test]
    fn resolve_workers_prefers_request() {
        // Note: WOW_WORKERS is unset in the test environment unless CI sets
        // it; when it is set, the env wins by design and this assertion
        // still holds for the n > 0 path only when unset.
        if std::env::var("WOW_WORKERS").is_err() {
            assert_eq!(resolve_workers(3), 3);
            assert!(resolve_workers(0) >= 1);
        }
        assert!(resolve_workers(0) >= 1);
    }

    #[test]
    fn workers_inherit_submitter_trace_context() {
        let ctx = wow_obs::TraceContext::mint();
        let _g = wow_obs::install_context(Some(ctx));
        let pool = Pool::new(4);
        let seen = Mutex::new(Vec::new());
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn({
                    let seen = &seen;
                    move || seen.lock().unwrap().push(wow_obs::current_context())
                });
            }
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 16);
        assert!(
            seen.iter()
                .all(|c| c.map(|c| c.trace_id) == Some(ctx.trace_id)),
            "every worker must observe the submitting thread's trace"
        );
    }

    #[test]
    fn stats_record_layer_decisions() {
        stats::reset();
        stats::decision(stats::Layer::Scan, true);
        stats::decision(stats::Layer::Scan, false);
        stats::decision(stats::Layer::JoinBuild, true);
        let snap = stats::snapshot();
        assert_eq!(snap.scan_parallel, 1);
        assert_eq!(snap.scan_serial, 1);
        assert_eq!(snap.join_parallel, 1);
        assert_eq!(snap.join_serial, 0);
    }
}
