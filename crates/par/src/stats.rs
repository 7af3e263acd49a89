//! Process-wide pool counters backing the `par.*` metric gauges of
//! `__wow_metrics`.
//!
//! Counters are plain relaxed atomics: they are monotone tallies read for
//! observability, never used for synchronization.

use std::sync::atomic::{AtomicU64, Ordering};

static TASKS: AtomicU64 = AtomicU64::new(0);
static CHUNKS: AtomicU64 = AtomicU64::new(0);
static SCAN_PAR: AtomicU64 = AtomicU64::new(0);
static SCAN_SER: AtomicU64 = AtomicU64::new(0);
static JOIN_PAR: AtomicU64 = AtomicU64::new(0);
static JOIN_SER: AtomicU64 = AtomicU64::new(0);

/// The subsystem making a parallel-vs-serial decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Base-table scan partitioning in the executor.
    Scan,
    /// Hash-join build-side partitioning in the executor.
    JoinBuild,
}

/// Record that `layer` chose the parallel (`true`) or serial (`false`)
/// path for one operation.
pub fn decision(layer: Layer, parallel: bool) {
    let c = match (layer, parallel) {
        (Layer::Scan, true) => &SCAN_PAR,
        (Layer::Scan, false) => &SCAN_SER,
        (Layer::JoinBuild, true) => &JOIN_PAR,
        (Layer::JoinBuild, false) => &JOIN_SER,
    };
    c.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_tasks(n: u64) {
    TASKS.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn note_chunks(n: u64) {
    CHUNKS.fetch_add(n, Ordering::Relaxed);
}

/// Point-in-time copy of every counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Tasks executed through any [`crate::Pool`] (including inline serial
    /// runs, so serial and parallel configurations are comparable).
    pub tasks: u64,
    /// Chunk ranges produced by [`crate::Pool::map_chunks`].
    pub chunks: u64,
    /// Scan operations that took the parallel path.
    pub scan_parallel: u64,
    /// Scan operations that stayed serial (below threshold or 1 worker).
    pub scan_serial: u64,
    /// Hash-join builds that took the parallel path.
    pub join_parallel: u64,
    /// Hash-join builds that stayed serial.
    pub join_serial: u64,
}

impl PoolSnapshot {
    /// `(name, value)` pairs in stable order, for system-table export.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("tasks", self.tasks),
            ("chunks", self.chunks),
            ("scan_parallel", self.scan_parallel),
            ("scan_serial", self.scan_serial),
            ("join_parallel", self.join_parallel),
            ("join_serial", self.join_serial),
        ]
    }
}

/// Snapshot every counter.
pub fn snapshot() -> PoolSnapshot {
    PoolSnapshot {
        tasks: TASKS.load(Ordering::Relaxed),
        chunks: CHUNKS.load(Ordering::Relaxed),
        scan_parallel: SCAN_PAR.load(Ordering::Relaxed),
        scan_serial: SCAN_SER.load(Ordering::Relaxed),
        join_parallel: JOIN_PAR.load(Ordering::Relaxed),
        join_serial: JOIN_SER.load(Ordering::Relaxed),
    }
}

/// Zero every counter (tests and bench isolation).
pub fn reset() {
    for c in [&TASKS, &CHUNKS, &SCAN_PAR, &SCAN_SER, &JOIN_PAR, &JOIN_SER] {
        c.store(0, Ordering::Relaxed);
    }
}
