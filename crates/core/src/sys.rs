//! System tables: a window on the world's own internals.
//!
//! The paper's thesis is that every interaction with shared data happens
//! through a window on a view. This module makes the system's *runtime
//! state* — metrics, causal traces, open windows, held locks, live
//! connections — shared data too: ordinary base tables
//! (`__sys_*`) are materialized from live state and ordinary views
//! (`__wow_*`) are registered over them, so
//! `open_window(session, "__wow_metrics", None)` goes through the exact
//! same forms/browse machinery as any user view.
//!
//! Semantics:
//!
//! * The backing tables are (re)materialized when a system window opens and
//!   whenever it is refreshed — a system window shows a *snapshot*, and the
//!   standard refresh key brings it current, exactly like a user window
//!   over externally-written data.
//! * System windows are forced read-only (editing metrics through a form is
//!   meaningless) and use a materialized cursor — a stable snapshot of
//!   state that changes under the reader's feet.
//! * The view and table names differ (`__wow_metrics` over `__sys_metrics`)
//!   because a view may not range over a relation with its own name.

use crate::error::WowResult;
use crate::locks::LockMode;
use crate::world::World;
use wow_rel::value::Value;

/// One live network connection, as reported by the embedding server's
/// [`ConnectionsProvider`] and shown through `__wow_connections`.
#[derive(Debug, Clone, Default)]
pub struct ConnectionInfo {
    /// Server-assigned connection id.
    pub conn: u64,
    /// The session the connection is bound to (0 before the handshake).
    pub session: u32,
    /// Peer address (`ip:port`).
    pub peer: String,
    /// Connection state (`open`, `draining`, …).
    pub state: String,
    /// Requests handled on this connection.
    pub requests: u64,
    /// Push frames delivered to this connection.
    pub pushes: u64,
    /// Push frames coalesced away (superseded by a newer generation
    /// before the writer drained them).
    pub coalesced: u64,
    /// Frames currently queued in the connection's outbox.
    pub queued: u64,
    /// Milliseconds since the connection was accepted.
    pub age_ms: u64,
}

/// Closure a network server installs via
/// [`World::set_connections_provider`] to surface its live connections as
/// `__wow_connections` rows. Called during `sys_sync` with the world lock
/// held, so it must not call back into the world.
pub type ConnectionsProvider = Box<dyn Fn() -> Vec<ConnectionInfo> + Send>;

/// The system views, with the QUEL definitions registered for them.
pub const SYS_VIEWS: [(&str, &str); 5] = [
    (
        "__wow_metrics",
        "RANGE OF m IS __sys_metrics RETRIEVE (m.metric, m.value)",
    ),
    (
        "__wow_traces",
        "RANGE OF t IS __sys_traces \
         RETRIEVE (t.seq, t.trace, t.span, t.parent, t.op, t.start_us, t.dur_us, t.arg)",
    ),
    (
        "__wow_windows",
        "RANGE OF w IS __sys_windows \
         RETRIEVE (w.win, w.view, w.session, w.mode, w.refresh, w.age_ms, w.stale, w.updatable, \
         w.generation, w.source)",
    ),
    (
        "__wow_locks",
        "RANGE OF l IS __sys_locks RETRIEVE (l.seq, l.relation, l.holder, l.mode)",
    ),
    (
        "__wow_connections",
        "RANGE OF c IS __sys_connections \
         RETRIEVE (c.conn, c.session, c.peer, c.state, c.requests, c.pushes, c.coalesced, \
         c.queued, c.age_ms)",
    ),
];

/// Each backing table and the DDL that creates it.
const SYS_DDL: [(&str, &str); 5] = [
    (
        "__sys_metrics",
        "CREATE TABLE __sys_metrics (metric TEXT KEY, value INT)",
    ),
    (
        "__sys_traces",
        "CREATE TABLE __sys_traces (seq INT KEY, trace INT, span INT, parent INT, op TEXT, \
         start_us INT, dur_us INT, arg INT)",
    ),
    (
        "__sys_windows",
        "CREATE TABLE __sys_windows (win INT KEY, view TEXT, session INT, mode TEXT, \
         refresh TEXT, age_ms INT, stale INT, updatable INT, generation INT, source TEXT)",
    ),
    (
        "__sys_locks",
        "CREATE TABLE __sys_locks (seq INT KEY, relation TEXT, holder INT, mode TEXT)",
    ),
    (
        "__sys_connections",
        "CREATE TABLE __sys_connections (conn INT KEY, session INT, peer TEXT, state TEXT, \
         requests INT, pushes INT, coalesced INT, queued INT, age_ms INT)",
    ),
];

/// Whether `view` names a system view.
pub fn is_sys_view(view: &str) -> bool {
    SYS_VIEWS.iter().any(|(name, _)| *name == view)
}

impl World {
    /// Push every legacy counter surface into the unified
    /// [`wow_obs::MetricsRegistry`] as named gauges: the world's
    /// `WorldStats`, the per-table row counts the optimizer's
    /// `StatsRegistry` tracks, the lock manager's counters, the executor's
    /// counters, the WAL counters and the durable world's checkpoint
    /// counts. After this call the registry snapshot is the one place to
    /// read all of them.
    pub fn export_metrics(&self) {
        let m = wow_obs::metrics();
        let s = &self.stats;
        m.set("world.commits", s.commits);
        m.set("world.windows_refreshed", s.windows_refreshed);
        m.set("world.propagations", s.propagations);
        m.set("world.delta_refreshes", s.delta_refreshes);
        m.set("world.full_refreshes", s.full_refreshes);
        m.set("world.delta_rows", s.delta_rows);
        m.set("world.windows_skipped", s.windows_skipped);
        m.set("world.frames", s.frames);
        m.set("world.cells_emitted", s.cells_emitted);
        let l = self.locks();
        m.set("locks.grants", l.grants);
        m.set("locks.conflicts", l.conflicts);
        m.set("locks.deadlocks", l.deadlocks);
        let c = self.db().counters();
        m.set("exec.rows_scanned", c.rows_scanned);
        m.set("exec.index_probes", c.index_probes);
        m.set("exec.join_rows", c.join_rows);
        m.set("exec.statements", c.statements);
        m.set("exec.batches", c.batches);
        // Percent of rows surviving vectorized filter passes: a coarse
        // live view of how selective the compiled predicates are.
        m.set("exec.sel_density", 100 * c.sel_out / c.sel_in.max(1));
        if let Some(wal) = self.db().wal() {
            m.set("wal.appended", wal.appended());
            m.set("wal.flushes", wal.flushes());
            m.set("wal.bytes_written", wal.bytes_written());
            m.set("wal.epoch", wal.epoch());
            m.set(
                "wal.fsync_on_commit",
                (wal.sync_policy() == wow_storage::wal::SyncPolicy::Commit) as u64,
            );
        }
        if let Some(r) = self.db().recovery_report() {
            m.set("recovery.committed", r.committed.len() as u64);
            m.set("recovery.in_flight", r.in_flight.len() as u64);
            m.set("recovery.aborted", r.aborted.len() as u64);
            m.set("recovery.replayed_ops", r.replayed_ops);
            m.set("recovery.skipped_ops", r.skipped_ops);
            m.set("recovery.checkpoints", self.db().checkpoints_taken());
            m.set(
                "recovery.checkpoint_failures",
                self.db().checkpoint_failures(),
            );
        }
        m.set("par.workers", self.db().workers() as u64);
        for (name, v) in wow_par::stats::snapshot().rows() {
            m.set(&format!("par.{name}"), v);
        }
        let t = wow_obs::tracer();
        m.set("obs.spans_recorded", t.recorded());
        m.set("obs.spans_dropped", t.dropped());
        m.set("obs.slow_queries", t.slow_snapshot().len() as u64);
        for name in self.db().catalog().table_names() {
            if let Ok(info) = self.db().catalog().table(&name) {
                m.set(&format!("rows.{name}"), self.db().row_count(info.id));
            }
        }
    }

    /// Materialize the system tables from live state (creating them and
    /// registering the `__wow_*` views on first use). Called by
    /// `open_window` and `refresh_window` for system views; harmless to
    /// call directly.
    pub fn sys_sync(&mut self) -> WowResult<()> {
        self.sys_ensure()?;
        self.export_metrics();
        let metrics = metrics_rows();
        let traces = trace_rows();
        let windows = self.window_rows();
        let locks = self.lock_rows();
        let conns = self.conn_rows();
        self.sys_rewrite("__sys_metrics", metrics)?;
        self.sys_rewrite("__sys_traces", traces)?;
        self.sys_rewrite("__sys_windows", windows)?;
        self.sys_rewrite("__sys_locks", locks)?;
        self.sys_rewrite("__sys_connections", conns)?;
        Ok(())
    }

    /// Create the backing tables and register the views, once per world.
    /// Views are process state, so a reopened durable world has none, while
    /// its last checkpoint may hold `__sys_*` tables — possibly in an older
    /// shape. A table whose schema differs from its DDL's is recreated.
    fn sys_ensure(&mut self) -> WowResult<()> {
        if SYS_VIEWS.iter().all(|(name, _)| self.views().has(name)) {
            return Ok(());
        }
        let mut want = wow_rel::db::Database::in_memory();
        for (table, ddl) in SYS_DDL {
            want.run(ddl)?;
            let wanted = want.catalog().table(table)?;
            let db = self.db_mut();
            match db.catalog().table(table) {
                Ok(have) if have.schema == wanted.schema && have.key == wanted.key => continue,
                Ok(_) => db.drop_table(table)?,
                Err(_) => {}
            }
            db.run(ddl)?;
        }
        for (name, src) in SYS_VIEWS {
            if !self.views().has(name) {
                self.define_view(name, src)?;
            }
        }
        Ok(())
    }

    /// Replace a backing table's contents. Writes go straight to the
    /// database — deliberately *not* through propagation: open system
    /// windows keep their snapshot until refreshed, like any window over
    /// externally-written data.
    fn sys_rewrite(&mut self, table: &str, rows: Vec<Vec<Value>>) -> WowResult<()> {
        let db = self.db_mut();
        let id = db.catalog().table(table)?.id;
        for (rid, _) in db.scan_table_raw(id)? {
            db.delete_rid(table, rid)?;
        }
        for row in rows {
            db.insert(table, row)?;
        }
        Ok(())
    }

    fn window_rows(&self) -> Vec<Vec<Value>> {
        self.windows
            .values()
            .map(|w| {
                vec![
                    Value::Int(w.id.0 as i64),
                    Value::Text(w.view.clone()),
                    Value::Int(w.session.0 as i64),
                    Value::Text(w.mode.name().to_string()),
                    Value::Text(w.last_refresh.name().to_string()),
                    Value::Int(w.refreshed_at.elapsed().as_millis() as i64),
                    Value::Int(w.stale as i64),
                    Value::Int(w.is_updatable() as i64),
                    Value::Int(w.generation as i64),
                    Value::text(w.cursor.source()),
                ]
            })
            .collect()
    }

    /// `__sys_connections` rows from the installed provider (empty when
    /// the world is embedded rather than served).
    fn conn_rows(&self) -> Vec<Vec<Value>> {
        self.connection_rows()
            .into_iter()
            .map(|c| {
                vec![
                    Value::Int(c.conn as i64),
                    Value::Int(c.session as i64),
                    Value::Text(c.peer),
                    Value::Text(c.state),
                    Value::Int(c.requests as i64),
                    Value::Int(c.pushes as i64),
                    Value::Int(c.coalesced as i64),
                    Value::Int(c.queued as i64),
                    Value::Int(c.age_ms as i64),
                ]
            })
            .collect()
    }

    fn lock_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for sid in self.session_ids() {
            for (relation, mode) in self.locks().held_by(sid.0) {
                rows.push(vec![
                    Value::Int(rows.len() as i64),
                    Value::Text(relation),
                    Value::Int(sid.0 as i64),
                    Value::Text(
                        match mode {
                            LockMode::Shared => "S",
                            LockMode::Exclusive => "X",
                        }
                        .to_string(),
                    ),
                ]);
            }
        }
        rows
    }
}

/// `__sys_metrics` rows: every named gauge, plus one row per percentile of
/// every traced operation's latency histogram.
fn metrics_rows() -> Vec<Vec<Value>> {
    let snap = wow_obs::metrics().snapshot();
    let mut rows = Vec::new();
    for (name, v) in &snap.counters {
        rows.push(vec![Value::Text(name.clone()), Value::Int(*v as i64)]);
    }
    for (op, h) in &snap.ops {
        let name = op.name();
        for (suffix, v) in [
            ("count", h.count),
            ("mean_ns", h.mean_ns),
            ("p50_ns", h.p50_ns),
            ("p95_ns", h.p95_ns),
            ("p99_ns", h.p99_ns),
            ("max_ns", h.max_ns),
        ] {
            rows.push(vec![
                Value::Text(format!("{name}.{suffix}")),
                Value::Int(v as i64),
            ]);
        }
    }
    rows
}

/// `__sys_traces` rows: the tracer's ring with its causal linkage — every
/// live span's `trace`/`span`/`parent` ids, so one trace's tree can be
/// reassembled with an ordinary QUEL query over the view (spans recorded
/// outside any request context carry their own fresh trace ids).
fn trace_rows() -> Vec<Vec<Value>> {
    wow_obs::tracer()
        .snapshot()
        .into_iter()
        .map(|s| {
            vec![
                Value::Int(s.seq as i64),
                Value::Int(s.trace_id as i64),
                Value::Int(s.span_id as i64),
                Value::Int(s.parent_id as i64),
                Value::Text(s.op.name().to_string()),
                Value::Int(s.start_us as i64),
                Value::Int((s.dur_ns / 1_000) as i64),
                Value::Int(s.arg as i64),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::error::WowError;

    /// The tracer is process-global: tests that toggle it take this lock so
    /// one cannot switch it off while another is recording.
    static TRACER: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn world() -> World {
        let mut w = World::new(WorldConfig::default());
        w.db_mut()
            .run("CREATE TABLE emp (name TEXT KEY, salary INT)")
            .unwrap();
        w.db_mut()
            .run(r#"APPEND TO emp (name = "alice", salary = 120)"#)
            .unwrap();
        w.define_view("emps", "RANGE OF e IS emp RETRIEVE (e.name, e.salary)")
            .unwrap();
        w
    }

    #[test]
    fn sys_view_names_are_recognized() {
        assert!(is_sys_view("__wow_metrics"));
        assert!(is_sys_view("__wow_locks"));
        assert!(!is_sys_view("emps"));
        assert!(
            !is_sys_view("__sys_metrics"),
            "backing tables are not views"
        );
    }

    #[test]
    fn metrics_window_opens_and_has_rows() {
        let mut w = world();
        let s = w.open_session();
        let win = w.open_window(s, "__wow_metrics", None).unwrap();
        let state = w.window(win).unwrap();
        assert!(!state.is_updatable());
        assert_eq!(state.read_only_reasons, vec!["system tables are read-only"]);
        // The unified registry exported the legacy stats as gauges.
        let row = w.current_row(win).unwrap();
        assert!(row.is_some(), "metrics table is not empty");
        let snap = wow_obs::metrics().snapshot();
        assert!(snap.counter("world.commits").is_some());
        assert!(snap.counter("exec.rows_scanned").is_some());
        assert!(snap.counter("rows.emp").is_some());
    }

    #[test]
    fn windows_table_lists_itself_after_refresh() {
        let mut w = world();
        let s = w.open_session();
        let user = w.open_window(s, "emps", None).unwrap();
        let win = w.open_window(s, "__wow_windows", None).unwrap();
        // At open time the sync ran before this window existed; the user
        // window is listed.
        let names: Vec<String> = w
            .db_mut()
            .run("RANGE OF w IS __sys_windows RETRIEVE (w.view) SORT BY w.view")
            .unwrap()
            .tuples
            .iter()
            .map(|t| t.values[0].to_string())
            .collect();
        assert!(names.contains(&"emps".to_string()));
        // After a refresh, the system window observes itself too.
        w.refresh_window(win).unwrap();
        let names: Vec<String> = w
            .db_mut()
            .run("RANGE OF w IS __sys_windows RETRIEVE (w.view) SORT BY w.view")
            .unwrap()
            .tuples
            .iter()
            .map(|t| t.values[0].to_string())
            .collect();
        assert!(names.contains(&"__wow_windows".to_string()));
        let _ = user;
    }

    #[test]
    fn sys_windows_reject_edits() {
        let mut w = world();
        let s = w.open_session();
        for (view, _) in SYS_VIEWS {
            let win = w.open_window(s, view, None).unwrap();
            assert!(
                matches!(w.enter_edit(win), Err(WowError::ReadOnly { .. })),
                "{view} must refuse edit mode"
            );
            assert!(matches!(
                w.enter_insert(win),
                Err(WowError::ReadOnly { .. })
            ));
        }
    }

    #[test]
    fn metrics_window_reports_pool_workers_and_decisions() {
        let mut w = world();
        let s = w.open_session();
        w.open_window(s, "__wow_metrics", None).unwrap();
        let rows = w
            .db_mut()
            .run("RANGE OF m IS __sys_metrics RETRIEVE (m.metric, m.value)")
            .unwrap();
        let value = |metric: &str| {
            rows.tuples
                .iter()
                .find(|t| t.values[0].to_string() == metric)
                .map(|t| t.values[1].to_string())
        };
        for metric in ["par.scan_parallel", "par.join_serial"] {
            assert!(value(metric).is_some(), "missing {metric}");
        }
        assert_eq!(value("par.workers"), Some(w.db().workers().to_string()));
    }

    #[test]
    fn locks_table_shows_held_locks() {
        let mut w = world();
        let s = w.open_session();
        assert!(w.try_lock(s, "emp", LockMode::Exclusive));
        w.sys_sync().unwrap();
        let rows = w
            .db_mut()
            .run("RANGE OF l IS __sys_locks RETRIEVE (l.relation, l.mode)")
            .unwrap();
        assert_eq!(rows.tuples.len(), 1);
        assert_eq!(rows.tuples[0].values[0].to_string(), "emp");
        assert_eq!(rows.tuples[0].values[1].to_string(), "X");
        // Released locks vanish on the next sync.
        w.release_locks(s);
        w.sys_sync().unwrap();
        let rows = w
            .db_mut()
            .run("RANGE OF l IS __sys_locks RETRIEVE (l.relation)")
            .unwrap();
        assert!(rows.tuples.is_empty());
    }

    #[test]
    fn traces_window_carries_causal_linkage() {
        let _serial = TRACER.lock().unwrap_or_else(|e| e.into_inner());
        let mut w = world();
        let t = wow_obs::tracer();
        t.set_enabled(true);
        let ctx = wow_obs::TraceContext::mint();
        {
            let _g = wow_obs::install_context(Some(ctx));
            let s = w.open_session();
            let win = w.open_window(s, "emps", None).unwrap();
            w.refresh_window(win).unwrap();
            w.enter_edit(win).unwrap();
            w.window_mut(win).unwrap().form.set_text(1, "130");
            w.commit(win).unwrap();
        }
        w.sys_sync().unwrap();
        t.set_enabled(false);
        let rows = w
            .db_mut()
            .run("RANGE OF t IS __sys_traces RETRIEVE (t.trace, t.span, t.parent, t.op)")
            .unwrap();
        let mine: Vec<_> = rows
            .tuples
            .iter()
            .filter(|r| r.values[0] == Value::Int(ctx.trace_id as i64))
            .collect();
        assert!(!mine.is_empty(), "trace rows for the minted trace exist");
        // Every parent id resolves within the same trace (the minted root
        // context itself has span id 0).
        for row in &mine {
            let parent = &row.values[2];
            assert!(
                *parent == Value::Int(0) || mine.iter().any(|r| &r.values[1] == parent),
                "dangling parent in {row:?}"
            );
        }
        // The metrics export carries the tracer's drop/record gauges and
        // the traced ops' histograms (the world/row-count gauges are
        // asserted by `metrics_window_opens_and_has_rows`).
        w.export_metrics();
        let snap = wow_obs::metrics().snapshot();
        assert!(snap.counter("obs.spans_recorded").unwrap() > 0);
        assert!(snap.counter("obs.spans_dropped").is_some());
        assert!(snap.counter("obs.slow_queries").is_some());
        for op in [wow_obs::Op::BrowseOpen, wow_obs::Op::Commit] {
            let h = snap
                .op(op)
                .unwrap_or_else(|| panic!("{} not recorded", op.name()));
            assert!(h.count > 0);
            assert!(h.p50_ns <= h.p95_ns && h.p95_ns <= h.p99_ns);
        }
    }

    #[test]
    fn spans_window_carries_traced_operations() {
        let _serial = TRACER.lock().unwrap_or_else(|e| e.into_inner());
        let mut w = world();
        wow_obs::tracer().set_enabled(true);
        let s = w.open_session();
        let user = w.open_window(s, "emps", None).unwrap();
        w.refresh_window(user).unwrap();
        // `__wow_traces` is the window on the tracer's spans; opening it
        // materializes the ring.
        w.open_window(s, "__wow_traces", None).unwrap();
        wow_obs::tracer().set_enabled(false);
        let ops: Vec<String> = w
            .db_mut()
            .run("RANGE OF t IS __sys_traces RETRIEVE (t.op)")
            .unwrap()
            .tuples
            .iter()
            .map(|t| t.values[0].to_string())
            .collect();
        assert!(
            ops.iter().any(|o| o == "full_refresh"),
            "refresh span captured: {ops:?}"
        );
    }
}
