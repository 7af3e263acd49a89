//! The unified metrics registry.
//!
//! One process-global [`MetricsRegistry`] absorbs every counter surface the
//! system used to scatter across crates — the world's `WorldStats`, the
//! optimizer's `StatsRegistry` row counts, the executor's counters —
//! as named gauges, and owns one latency [`Histogram`] per traced [`Op`].
//! The `__wow_metrics` system table and the bench JSON both read the same
//! [`MetricsRegistry::snapshot`].
//!
//! Counters are written on cold paths (exports, syncs); the only hot-path
//! entry is [`MetricsRegistry::record`], called by the tracer with a
//! pre-computed duration — a mutex-guarded histogram increment.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::tracer::Op;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

struct Inner {
    counters: BTreeMap<String, u64>,
    hists: Vec<Histogram>,
}

/// Named counters/gauges plus per-operation latency histograms.
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

static METRICS: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-global registry.
pub fn metrics() -> &'static MetricsRegistry {
    METRICS.get_or_init(MetricsRegistry::new)
}

/// A point-in-time copy of the registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Per-operation latency summaries (only ops with ≥ 1 recording).
    pub ops: Vec<(Op, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Look up an operation's latency summary.
    pub fn op(&self, op: Op) -> Option<HistogramSnapshot> {
        self.ops.iter().find(|(o, _)| *o == op).map(|(_, s)| *s)
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry with one histogram per op preallocated.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Mutex::new(Inner {
                counters: BTreeMap::new(),
                hists: Op::ALL.iter().map(|_| Histogram::new()).collect(),
            }),
        }
    }

    /// Add to a counter (creating it at zero).
    pub fn add(&self, name: &str, n: u64) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        *inner.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Set a gauge — how the legacy stats structs are absorbed: their
    /// owners push current values through one of the `absorb_*` helpers
    /// (or `set` directly) and every consumer reads the registry.
    pub fn set(&self, name: &str, v: u64) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        inner.counters.insert(name.to_string(), v);
    }

    /// Record a latency for an op (nanoseconds). Called by the tracer.
    pub fn record(&self, op: Op, ns: u64) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        inner.hists[op as usize].record(ns);
    }

    /// Latency summary for one op.
    pub fn op_snapshot(&self, op: Op) -> HistogramSnapshot {
        let inner = self.inner.lock().expect("metrics poisoned");
        inner.hists[op as usize].snapshot()
    }

    /// Copy the whole registry out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            ops: Op::ALL
                .iter()
                .filter_map(|&op| {
                    let s = inner.hists[op as usize].snapshot();
                    (s.count > 0).then_some((op, s))
                })
                .collect(),
        }
    }

    /// Zero every counter and histogram (the warm-path measurement reset).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        inner.counters.clear();
        for h in &mut inner.hists {
            h.reset();
        }
    }
}

/// Render a snapshot in the Prometheus text exposition format — the
/// metrics-export surface served over the wow-net admin request and dumped
/// by the bench tools. Gauge names are the registry's dotted names with
/// `.` mapped to `_` and a `wow_` prefix; per-op latencies become one
/// summary family with `op` labels.
pub fn prometheus(snap: &MetricsSnapshot) -> String {
    fn sanitize(name: &str) -> String {
        name.chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect()
    }
    let mut out = String::new();
    out.push_str("# TYPE wow_gauge gauge\n");
    for (name, v) in &snap.counters {
        out.push_str(&format!("wow_{} {}\n", sanitize(name), v));
    }
    out.push_str("# TYPE wow_op_latency_ns summary\n");
    for (op, s) in &snap.ops {
        let name = op.name();
        for (q, v) in [("0.5", s.p50_ns), ("0.95", s.p95_ns), ("0.99", s.p99_ns)] {
            out.push_str(&format!(
                "wow_op_latency_ns{{op=\"{name}\",quantile=\"{q}\"}} {v}\n"
            ));
        }
        out.push_str(&format!(
            "wow_op_latency_ns_count{{op=\"{name}\"}} {}\n",
            s.count
        ));
        out.push_str(&format!(
            "wow_op_latency_ns_sum{{op=\"{name}\"}} {}\n",
            s.mean_ns.saturating_mul(s.count)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_set() {
        let m = MetricsRegistry::new();
        m.add("a.b", 2);
        m.add("a.b", 3);
        m.set("c.d", 7);
        let s = m.snapshot();
        assert_eq!(s.counter("a.b"), Some(5));
        assert_eq!(s.counter("c.d"), Some(7));
        assert_eq!(s.counter("nope"), None);
    }

    #[test]
    fn op_histograms_summarize() {
        let m = MetricsRegistry::new();
        for i in 1..=100u64 {
            m.record(Op::Commit, i * 1_000);
        }
        let s = m.snapshot();
        let c = s.op(Op::Commit).unwrap();
        assert_eq!(c.count, 100);
        assert!(c.p50_ns >= 45_000 && c.p50_ns <= 55_000, "{c:?}");
        assert!(s.op(Op::WalAppend).is_none(), "unrecorded ops are absent");
    }

    #[test]
    fn prometheus_renders_gauges_and_summaries() {
        let m = MetricsRegistry::new();
        m.set("pool.hits", 12);
        m.record(Op::Commit, 1_000);
        m.record(Op::Commit, 2_000);
        let text = prometheus(&m.snapshot());
        assert!(text.contains("# TYPE wow_gauge gauge"));
        assert!(text.contains("wow_pool_hits 12"));
        assert!(text.contains("wow_op_latency_ns{op=\"commit\",quantile=\"0.5\"}"));
        assert!(text.contains("wow_op_latency_ns_count{op=\"commit\"} 2"));
        // Every line is `name{labels} value` or a comment — no empty lines.
        assert!(text.lines().all(|l| !l.trim().is_empty()));
    }

    #[test]
    fn reset_clears_everything() {
        let m = MetricsRegistry::new();
        m.add("x", 1);
        m.record(Op::QueryExec, 10);
        m.reset();
        let s = m.snapshot();
        assert!(s.counters.is_empty());
        assert!(s.ops.is_empty());
    }
}
