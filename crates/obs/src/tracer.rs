//! A ring-buffered, causally linked span tracer.
//!
//! Each instrumented operation records one fixed-size [`Span`] — no
//! allocation on the hot path; the ring is preallocated and old spans are
//! overwritten (counted in [`Tracer::dropped`]). Spans carry
//! `trace_id`/`span_id`/`parent_id`, so everything recorded under one
//! request context assembles into a single tree (see [`crate::context`]).
//! Tracing is double-gated:
//!
//! * the `trace` cargo feature compiles the instrumentation in or out
//!   entirely (benches that want a provably-zero-cost build disable it);
//! * at runtime an atomic flag ([`Tracer::set_enabled`]) turns recording on
//!   or off — while off, a started span costs one relaxed atomic load.
//!
//! When enabled, [`Tracer::start`] eagerly allocates the span's id and
//! installs the span's context thread-locally for the guard's lifetime, so
//! nested guards parent to each other automatically. Span ids come from a
//! counter separate from [`Tracer::recorded`]: a guard that is
//! [`SpanGuard::cancel`]led consumed an id but never counts as recorded.
//!
//! The ring is guarded by a mutex whose critical section is a slot write;
//! the tracer never calls back into the system under the lock, so recording
//! from *any* code path — including the lock manager — cannot deadlock
//! (exercised by the concurrency tests). Root spans (`parent_id == 0`)
//! slower than the configured threshold are additionally copied into a
//! bounded slow-query log ([`Tracer::slow_snapshot`]).

use crate::context::{current_context, install_context, ContextGuard, TraceContext};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The instrumented operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Op {
    /// Compiling a default form from a schema.
    FormCompile = 0,
    /// Opening a window (cursor construction + form compile + analyze).
    BrowseOpen,
    /// Fetching one screenful into a browse cursor.
    BrowsePage,
    /// Executing a physical plan.
    QueryExec,
    /// Patching a window in place from a view delta.
    DeltaRefresh,
    /// Re-running a window's view query.
    FullRefresh,
    /// One lock-manager acquire call.
    LockAcquire,
    /// Appending one WAL record.
    WalAppend,
    /// Composing + diffing one screen frame.
    TuiRedraw,
    /// One through-window commit (edit/insert/delete).
    Commit,
    /// Partitioning work into chunks and dispatching it to the pool.
    ParScatter,
    /// Accepting one network connection (handshake included).
    NetAccept,
    /// Handling one wire-protocol request end to end (decode → execute →
    /// response enqueued).
    NetRequest,
    /// Building and enqueueing one `WindowRefreshed` push frame.
    NetPush,
    /// Evaluating compiled predicates/projections over one column batch.
    VecEval,
    /// One streaming executor operator's lifetime (scan, filter, project,
    /// join, sort, aggregate, limit); `arg` carries its rows-out.
    ExecOp,
    /// Forcing the WAL to stable storage (one fsync).
    WalFsync,
    /// Writing one durable checkpoint (snapshot + WAL rotation).
    Checkpoint,
    /// Recovering a durable database (analysis + committed-tail replay);
    /// `arg` carries the number of replayed operations.
    Recovery,
}

impl Op {
    /// Every operation, in declaration order (indexes the registry's
    /// histogram table).
    pub const ALL: [Op; 19] = [
        Op::FormCompile,
        Op::BrowseOpen,
        Op::BrowsePage,
        Op::QueryExec,
        Op::DeltaRefresh,
        Op::FullRefresh,
        Op::LockAcquire,
        Op::WalAppend,
        Op::TuiRedraw,
        Op::Commit,
        Op::ParScatter,
        Op::NetAccept,
        Op::NetRequest,
        Op::NetPush,
        Op::VecEval,
        Op::ExecOp,
        Op::WalFsync,
        Op::Checkpoint,
        Op::Recovery,
    ];

    /// Stable snake_case name (metric keys, system-table rows, JSON).
    pub fn name(self) -> &'static str {
        match self {
            Op::FormCompile => "form_compile",
            Op::BrowseOpen => "browse_open",
            Op::BrowsePage => "browse_page",
            Op::QueryExec => "query_exec",
            Op::DeltaRefresh => "delta_refresh",
            Op::FullRefresh => "full_refresh",
            Op::LockAcquire => "lock_acquire",
            Op::WalAppend => "wal_append",
            Op::TuiRedraw => "tui_redraw",
            Op::Commit => "commit",
            Op::ParScatter => "par_scatter",
            Op::NetAccept => "net_accept",
            Op::NetRequest => "net_request",
            Op::NetPush => "net_push",
            Op::VecEval => "vec_eval",
            Op::ExecOp => "exec_op",
            Op::WalFsync => "wal_fsync",
            Op::Checkpoint => "checkpoint",
            Op::Recovery => "recovery",
        }
    }
}

/// One recorded span. Fixed-size by construction: labels are the [`Op`]
/// enum, the free-form payload is a single integer argument (rows touched,
/// bytes appended, outcome code — whatever the site finds useful).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Monotonic record sequence number (global across ring wraps).
    pub seq: u64,
    /// The trace this span belongs to (0 = never part of a trace).
    pub trace_id: u64,
    /// This span's id, unique within the process.
    pub span_id: u64,
    /// The span this one ran under (0 = a trace root).
    pub parent_id: u64,
    /// What ran.
    pub op: Op,
    /// Start time, microseconds since the tracer was created.
    pub start_us: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Site-specific argument.
    pub arg: u64,
}

struct Ring {
    buf: Vec<Span>,
    /// Next slot to write.
    head: usize,
    /// Live spans (≤ capacity).
    len: usize,
}

/// The tracer: a runtime-switchable, fixed-capacity span ring plus a
/// bounded slow-query log.
pub struct Tracer {
    enabled: AtomicBool,
    /// Spans actually recorded (drives [`Span::seq`]). Eagerly allocated
    /// span ids that were cancelled never advance this.
    recorded: AtomicU64,
    /// Span-id allocator (starts at 1; 0 means "no span").
    next_id: AtomicU64,
    /// Spans overwritten by ring wrap-around since creation.
    dropped: AtomicU64,
    /// Root spans slower than this land in the slow log (0 = off).
    slow_ns: AtomicU64,
    epoch: Instant,
    ring: Mutex<Ring>,
    slow: Mutex<Vec<Span>>,
    capacity: usize,
}

/// Default ring capacity (fixed-size spans; ~256 KiB).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Most recent slow root spans kept (oldest evicted beyond this).
pub const SLOW_LOG_CAPACITY: usize = 256;

static TRACER: OnceLock<Tracer> = OnceLock::new();

/// The process-global tracer.
pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer::new(DEFAULT_CAPACITY))
}

impl Tracer {
    /// A tracer with its ring preallocated and recording disabled.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            recorded: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            slow_ns: AtomicU64::new(0),
            epoch: Instant::now(),
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity.max(1)),
                head: 0,
                len: 0,
            }),
            slow: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
        }
    }

    /// Turn recording on or off. Spans started while disabled stay
    /// unrecorded even if tracing is enabled before they finish.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        cfg!(feature = "trace") && self.enabled.load(Ordering::Relaxed)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spans recorded since creation (including ones the ring has since
    /// overwritten). Cancelled guards do not count.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans the ring has overwritten (lost to wrap-around) since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Allocate a process-unique span id (never 0).
    #[inline]
    pub fn alloc_span_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Set the slow-query threshold: root spans (`parent_id == 0`) whose
    /// duration is at least this many nanoseconds are copied into the slow
    /// log. 0 disables the log.
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_ns.store(ns, Ordering::Relaxed);
    }

    /// The current slow-query threshold (0 = off).
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_ns.load(Ordering::Relaxed)
    }

    /// Start a span. When tracing is off this is one atomic load and the
    /// returned guard does nothing on drop. When on, the span's id is
    /// allocated eagerly, its parent is read from the thread's current
    /// [`TraceContext`] (a fresh trace is minted when there is none), and
    /// the span's own context is installed until the guard drops — so
    /// spans started inside it become its children.
    #[inline]
    pub fn start(&'static self, op: Op) -> SpanGuard {
        if self.enabled() {
            let span_id = self.alloc_span_id();
            let (trace_id, parent_id) = match current_context() {
                Some(c) => (c.trace_id, c.span_id),
                None => (crate::context::fresh_trace_id(), 0),
            };
            let ctx = install_context(Some(TraceContext { trace_id, span_id }));
            SpanGuard {
                tracer: Some(self),
                op,
                start: Instant::now(),
                arg: 0,
                trace_id,
                span_id,
                parent_id,
                _ctx: Some(ctx),
            }
        } else {
            SpanGuard {
                tracer: None,
                op,
                start: self.epoch,
                arg: 0,
                trace_id: 0,
                span_id: 0,
                parent_id: 0,
                _ctx: None,
            }
        }
    }

    /// Record an instantaneous event (zero-duration span), parented to the
    /// thread's current context.
    #[inline]
    pub fn event(&self, op: Op, arg: u64) {
        if self.enabled() {
            let span_id = self.alloc_span_id();
            let (trace_id, parent_id) = match current_context() {
                Some(c) => (c.trace_id, c.span_id),
                None => (crate::context::fresh_trace_id(), 0),
            };
            self.record_ids(op, trace_id, span_id, parent_id, Instant::now(), 0, arg);
        }
    }

    /// Record a finished span under fully explicit ids — for callers that
    /// allocated the span id eagerly (via [`Tracer::alloc_span_id`]) so
    /// children could link to it before it was recorded. The executor's
    /// operator tree does this: each operator's span id is fixed at plan
    /// build time and recorded only when the operator is exhausted.
    pub fn record_at(
        &self,
        op: Op,
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
        dur_ns: u64,
        arg: u64,
    ) {
        if self.enabled() {
            self.record_ids(
                op,
                trace_id,
                span_id,
                parent_id,
                Instant::now(),
                dur_ns,
                arg,
            );
        }
    }

    /// Record a fully specified span. The only lock taken is the ring's
    /// own (and, for slow roots, the slow log's); no other code runs under
    /// either.
    #[allow(clippy::too_many_arguments)]
    fn record_ids(
        &self,
        op: Op,
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
        end: Instant,
        dur_ns: u64,
        arg: u64,
    ) {
        let seq = self.recorded.fetch_add(1, Ordering::Relaxed);
        let since_epoch = end.duration_since(self.epoch).as_micros() as u64;
        let start_us = since_epoch.saturating_sub(dur_ns / 1_000);
        let span = Span {
            seq,
            trace_id,
            span_id,
            parent_id,
            op,
            start_us,
            dur_ns,
            arg,
        };
        {
            let mut ring = self.ring.lock().expect("tracer ring poisoned");
            if ring.buf.len() < self.capacity {
                ring.buf.push(span);
                ring.head = ring.buf.len() % self.capacity;
                ring.len = ring.buf.len();
            } else {
                let head = ring.head;
                ring.buf[head] = span;
                ring.head = (head + 1) % self.capacity;
                ring.len = self.capacity;
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        let slow = self.slow_ns.load(Ordering::Relaxed);
        if slow > 0 && parent_id == 0 && dur_ns >= slow {
            let mut log = self.slow.lock().expect("slow log poisoned");
            if log.len() >= SLOW_LOG_CAPACITY {
                log.remove(0);
            }
            log.push(span);
        }
        crate::metrics::metrics().record(op, dur_ns);
    }

    /// The live spans, oldest first.
    pub fn snapshot(&self) -> Vec<Span> {
        let ring = self.ring.lock().expect("tracer ring poisoned");
        let mut out = Vec::with_capacity(ring.len);
        if ring.len < self.capacity {
            out.extend_from_slice(&ring.buf[..ring.len]);
        } else {
            out.extend_from_slice(&ring.buf[ring.head..]);
            out.extend_from_slice(&ring.buf[..ring.head]);
        }
        out
    }

    /// Every live span belonging to `trace_id`, oldest first.
    pub fn trace_spans(&self, trace_id: u64) -> Vec<Span> {
        self.snapshot()
            .into_iter()
            .filter(|s| s.trace_id == trace_id)
            .collect()
    }

    /// The slow-query log: root spans that exceeded the threshold, oldest
    /// first, at most [`SLOW_LOG_CAPACITY`] entries.
    pub fn slow_snapshot(&self) -> Vec<Span> {
        self.slow.lock().expect("slow log poisoned").clone()
    }

    /// Drop every recorded span and slow-log entry (the counters keep
    /// counting).
    pub fn clear(&self) {
        let mut ring = self.ring.lock().expect("tracer ring poisoned");
        ring.buf.clear();
        ring.head = 0;
        ring.len = 0;
        drop(ring);
        self.slow.lock().expect("slow log poisoned").clear();
    }
}

/// Resolve the slow-query threshold: the `WOW_SLOW_NS` environment
/// variable wins (so CI can force every root span into the log), then the
/// caller's configured value.
pub fn resolve_slow_threshold_ns(requested: u64) -> u64 {
    crate::env_override("WOW_SLOW_NS").unwrap_or(requested)
}

/// Times an operation from [`Tracer::start`] to drop (or an explicit
/// [`SpanGuard::finish`]).
pub struct SpanGuard {
    tracer: Option<&'static Tracer>,
    op: Op,
    start: Instant,
    arg: u64,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    /// Keeps this span installed as the thread's current context; restored
    /// (after recording) when the guard drops.
    _ctx: Option<ContextGuard>,
}

impl SpanGuard {
    /// Attach the site-specific argument.
    #[inline]
    pub fn arg(&mut self, v: u64) {
        self.arg = v;
    }

    /// The context children of this span should use (`None` when the span
    /// is not being recorded). Hand this across thread or wire boundaries
    /// the thread-local cannot follow.
    #[inline]
    pub fn context(&self) -> Option<TraceContext> {
        self.tracer.map(|_| TraceContext {
            trace_id: self.trace_id,
            span_id: self.span_id,
        })
    }

    /// Finish explicitly (drop does the same).
    #[inline]
    pub fn finish(self) {}

    /// Abandon the span without recording it (the operation turned out not
    /// to happen — e.g. a delta apply that fell back to a full refresh).
    /// The eagerly allocated span id is discarded; [`Tracer::recorded`]
    /// does not advance.
    #[inline]
    pub fn cancel(mut self) {
        self.tracer = None;
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(t) = self.tracer.take() {
            let dur = self.start.elapsed().as_nanos() as u64;
            t.record_ids(
                self.op,
                self.trace_id,
                self.span_id,
                self.parent_id,
                Instant::now(),
                dur,
                self.arg,
            );
        }
        // `_ctx` drops after this body, restoring the previous context.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(8);
        t.set_enabled(false);
        t.event(Op::Commit, 1);
        assert!(t.snapshot().is_empty());
        assert_eq!(t.recorded(), 0);
    }

    #[test]
    fn ring_wraps_keeping_latest_and_counts_drops() {
        let t = Tracer::new(4);
        t.set_enabled(true);
        for i in 0..10u64 {
            t.record_at(Op::QueryExec, 1, t.alloc_span_id(), 0, i, i);
        }
        let spans = t.snapshot();
        assert_eq!(spans.len(), 4);
        let seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest-first, latest kept");
        assert_eq!(t.recorded(), 10);
        assert_eq!(t.dropped(), 6, "overwritten spans are counted");
    }

    #[test]
    fn clear_empties_the_ring() {
        let t = Tracer::new(4);
        t.set_enabled(true);
        t.event(Op::WalAppend, 0);
        assert_eq!(t.snapshot().len(), 1);
        t.clear();
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn op_names_are_stable() {
        for op in Op::ALL {
            assert!(!op.name().is_empty());
        }
        assert_eq!(Op::BrowseOpen.name(), "browse_open");
        assert_eq!(Op::ParScatter.name(), "par_scatter");
        assert_eq!(Op::NetPush.name(), "net_push");
        assert_eq!(Op::VecEval.name(), "vec_eval");
        assert_eq!(Op::ExecOp.name(), "exec_op");
        assert_eq!(Op::ALL.len(), 19);
        assert_eq!(Op::WalFsync.name(), "wal_fsync");
        assert_eq!(Op::Recovery.name(), "recovery");
    }

    #[test]
    fn global_guard_roundtrip() {
        let t = tracer();
        let before = t.recorded();
        t.set_enabled(true);
        {
            let mut g = t.start(Op::FormCompile);
            g.arg(7);
        }
        t.set_enabled(false);
        assert!(t.recorded() > before);
        let spans = t.snapshot();
        let mine = spans
            .iter()
            .rev()
            .find(|s| s.op == Op::FormCompile && s.arg == 7)
            .copied();
        let mine = mine.expect("span with arg recorded");
        assert_ne!(mine.trace_id, 0, "root spans mint a trace");
        assert_ne!(mine.span_id, 0);
        assert_eq!(mine.parent_id, 0, "no surrounding context: a root");
    }

    /// A private tracer with a `'static` lifetime (required by `start`)
    /// that parallel tests cannot disable under each other.
    fn leaked(capacity: usize) -> &'static Tracer {
        let t = Box::leak(Box::new(Tracer::new(capacity)));
        t.set_enabled(true);
        t
    }

    #[test]
    fn nested_guards_form_a_tree() {
        let t = leaked(16);
        let ctx = TraceContext::mint();
        {
            let _g = install_context(Some(ctx));
            let outer = t.start(Op::Commit);
            let outer_id = outer.context().unwrap().span_id;
            {
                let inner = t.start(Op::QueryExec);
                let ic = inner.context().unwrap();
                assert_eq!(ic.trace_id, ctx.trace_id);
                assert_ne!(ic.span_id, outer_id);
            }
            drop(outer);
        }
        let spans = t.trace_spans(ctx.trace_id);
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.op == Op::Commit).unwrap();
        let inner = spans.iter().find(|s| s.op == Op::QueryExec).unwrap();
        assert_eq!(outer.parent_id, 0, "outer parents to the minted root");
        assert_eq!(inner.parent_id, outer.span_id, "inner parents to outer");
        // Inner finished (and recorded) first.
        assert!(inner.seq < outer.seq);
    }

    #[test]
    fn cancel_does_not_count_as_recorded() {
        let t = leaked(16);
        let before = t.recorded();
        {
            let mut g = t.start(Op::DeltaRefresh);
            g.arg(3);
            g.cancel();
        }
        assert_eq!(
            t.recorded(),
            before,
            "a cancelled guard's eagerly allocated id must not inflate recorded()"
        );
        // The context slot is restored even on cancel.
        assert_eq!(current_context(), None);
    }

    #[test]
    fn record_at_uses_preallocated_ids() {
        let t = leaked(16);
        let trace_id = crate::context::fresh_trace_id();
        let parent = t.alloc_span_id();
        let child = t.alloc_span_id();
        // Children can be recorded before (or without) their parent.
        t.record_at(Op::ExecOp, trace_id, child, parent, 42, 7);
        t.record_at(Op::ExecOp, trace_id, parent, 0, 99, 1);
        let spans = t.trace_spans(trace_id);
        assert_eq!(spans.len(), 2);
        let c = spans.iter().find(|s| s.span_id == child).unwrap();
        assert_eq!(c.parent_id, parent);
        assert_eq!(c.arg, 7);
        assert_eq!(c.dur_ns, 42);
    }

    #[test]
    fn slow_roots_land_in_the_slow_log() {
        let t = Tracer::new(16);
        t.set_enabled(true);
        t.set_slow_threshold_ns(1_000);
        // Root over threshold: logged.
        t.record_ids(Op::Commit, 1, 10, 0, Instant::now(), 5_000, 0);
        // Child over threshold: not a root, not logged.
        t.record_ids(Op::QueryExec, 1, 11, 10, Instant::now(), 5_000, 0);
        // Root under threshold: not logged.
        t.record_ids(Op::Commit, 2, 12, 0, Instant::now(), 10, 0);
        let slow = t.slow_snapshot();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].span_id, 10);
        t.clear();
        assert!(t.slow_snapshot().is_empty());
    }

    #[test]
    fn slow_log_is_bounded() {
        let t = Tracer::new(4);
        t.set_enabled(true);
        t.set_slow_threshold_ns(1);
        for i in 0..(SLOW_LOG_CAPACITY as u64 + 10) {
            t.record_ids(Op::Commit, i + 1, i + 1, 0, Instant::now(), 100, i);
        }
        let slow = t.slow_snapshot();
        assert_eq!(slow.len(), SLOW_LOG_CAPACITY);
        assert_eq!(slow.last().unwrap().arg, SLOW_LOG_CAPACITY as u64 + 9);
    }

    #[test]
    fn env_free_threshold_resolution_prefers_request() {
        if std::env::var("WOW_SLOW_NS").is_err() {
            assert_eq!(resolve_slow_threshold_ns(123), 123);
        }
    }
}
