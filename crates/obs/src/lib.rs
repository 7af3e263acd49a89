//! # wow-obs — a window on the system's own internals
//!
//! The paper's thesis is that every interaction with shared data goes
//! through a window on a view; this crate makes the system's *runtime
//! state* shared data too. It has three layers:
//!
//! * [`mod@tracer`] — a ring-buffered span tracer with fixed-size records
//!   (zero-alloc hot path) and causal linkage: every span carries
//!   `trace_id`/`span_id`/`parent_id`, so one request assembles into one
//!   tree from wire decode to the last push frame. Root spans over a
//!   configurable threshold land in a bounded slow-query log.
//! * [`context`] — the request-scoped [`context::TraceContext`] that links
//!   spans across nesting, thread, and wire boundaries.
//! * [`histogram`] — HDR-style fixed-bucket latency histograms, one per
//!   traced operation, giving p50/p95/p99 instead of means.
//! * [`mod@metrics`] — the unified [`metrics::MetricsRegistry`] that absorbs
//!   the formerly scattered counter structs (`PoolStats`, `WorldStats`,
//!   `StatsRegistry`) as named gauges behind one API, renderable as a
//!   Prometheus text dump ([`metrics::prometheus`]).
//!
//! `wow-core` exposes all of it as browsable **system tables**
//! (`__wow_metrics`, `__wow_traces`, `__wow_windows`, `__wow_locks`, …)
//! through the standard `open_window` path, and `wow-net`
//! serves the Prometheus dump and per-trace span trees over admin
//! requests.
//!
//! Gating: the `trace` cargo feature (default on) compiles instrumentation
//! in; with the feature on, recording still costs one relaxed atomic load
//! until [`Tracer::set_enabled`] turns it on.

pub mod context;
pub mod histogram;
pub mod metrics;
pub mod tracer;

pub use context::{current_context, fresh_trace_id, install_context, ContextGuard, TraceContext};
pub use histogram::{Histogram, HistogramSnapshot};
pub use metrics::{metrics, prometheus, MetricsRegistry, MetricsSnapshot};
pub use tracer::{resolve_slow_threshold_ns, tracer, Op, Span, SpanGuard, Tracer};

/// Start a span on the global tracer (one atomic load when tracing is off).
#[inline]
pub fn span(op: Op) -> SpanGuard {
    tracer().start(op)
}

/// Record an instantaneous event on the global tracer.
#[inline]
pub fn event(op: Op, arg: u64) {
    tracer().event(op, arg);
}

/// The value of environment variable `name`, trimmed and parsed as `T` —
/// `None` when it is unset or does not parse, so the caller's configured
/// value stands. Every `WOW_*` override resolves through this.
pub fn env_override<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_trims_parses_and_falls_back() {
        // A variable no other test or process touches.
        let name = "WOW_OBS_ENV_OVERRIDE_TEST";
        std::env::remove_var(name);
        assert_eq!(env_override::<u64>(name), None, "unset");
        std::env::set_var(name, " 42\n");
        assert_eq!(env_override::<u64>(name), Some(42), "trimmed");
        std::env::set_var(name, "forty-two");
        assert_eq!(env_override::<u64>(name), None, "unparsable");
        std::env::remove_var(name);
    }

    #[test]
    fn span_helper_is_callable_when_disabled() {
        // Must not panic or record when tracing is off.
        tracer().set_enabled(false);
        let before = tracer().recorded();
        {
            let mut g = span(Op::TuiRedraw);
            g.arg(1);
        }
        event(Op::TuiRedraw, 2);
        assert_eq!(tracer().recorded(), before);
    }
}
