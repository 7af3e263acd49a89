//! Observability integration: the system views (`__wow_*`) opened through
//! the standard window machinery, metrics tracking real commits, and the
//! span tracer staying deadlock-free when the lock-manager path records
//! into it from many threads.

use parking_lot::Mutex;
use std::sync::Arc;
use wow::core::config::WorldConfig;
use wow::core::error::WowError;
use wow::core::locks::LockMode;
use wow::core::world::World;
use wow::rel::value::Value;

/// Every system-table sync writes the process-wide metrics registry, so
/// a test that reads a gauge back (`world.commits`) would otherwise see
/// another test's world exported between its sync and its query. The
/// tests in this file run one at a time.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn emp_world() -> World {
    let mut w = World::new(WorldConfig::default());
    w.db_mut()
        .run("CREATE TABLE emp (name TEXT KEY, salary INT)")
        .unwrap();
    for (name, salary) in [("alice", 120), ("bob", 90), ("carol", 150)] {
        w.db_mut()
            .run(&format!(
                r#"APPEND TO emp (name = "{name}", salary = {salary})"#
            ))
            .unwrap();
    }
    w.define_view("emps", "RANGE OF e IS emp RETRIEVE (e.name, e.salary)")
        .unwrap();
    w
}

/// The gauge value a metrics query reports right now, or None.
fn gauge(w: &mut World, metric: &str) -> Option<i64> {
    let rows = w
        .db_mut()
        .run(&format!(
            r#"RANGE OF m IS __sys_metrics RETRIEVE (m.value) WHERE m.metric = "{metric}""#
        ))
        .unwrap();
    rows.tuples.first().map(|t| match t.values[0] {
        Value::Int(v) => v,
        _ => panic!("metric values are INT"),
    })
}

#[test]
fn metrics_window_is_browsable_and_read_only() {
    let _serial = serial();
    let mut w = emp_world();
    let s = w.open_session();
    let win = w.open_window(s, "__wow_metrics", None).unwrap();
    // Browsable through the standard cursor: rows exist and paging works.
    assert!(w.current_row(win).unwrap().is_some());
    w.browse_next(win).unwrap();
    // Read-only is enforced by the normal mode machinery, not a special case
    // in the caller: entering edit or insert is refused.
    let state = w.window(win).unwrap();
    assert!(!state.is_updatable());
    assert_eq!(state.read_only_reasons, vec!["system tables are read-only"]);
    let (left, _) = state.status_line();
    assert!(left.contains("[read-only]"), "{left}");
    assert!(matches!(w.enter_edit(win), Err(WowError::ReadOnly { .. })));
    assert!(matches!(
        w.enter_insert(win),
        Err(WowError::ReadOnly { .. })
    ));
}

#[test]
fn commit_through_user_window_shows_up_on_metrics_refresh() {
    let _serial = serial();
    let mut w = emp_world();
    let s = w.open_session();
    let editor = w.open_window(s, "emps", None).unwrap();
    let metrics = w.open_window(s, "__wow_metrics", None).unwrap();
    let commits_before = gauge(&mut w, "world.commits").unwrap();

    // Commit a salary change through the user window.
    w.enter_edit(editor).unwrap();
    w.window_mut(editor).unwrap().form.set_text(1, "121");
    w.commit(editor).unwrap();

    // The open metrics window still shows its snapshot (system tables are
    // rewritten on sync, not pushed through propagation)...
    assert_eq!(gauge(&mut w, "world.commits"), Some(commits_before));
    // ...and the standard refresh brings the commit into view.
    w.refresh_window(metrics).unwrap();
    assert_eq!(gauge(&mut w, "world.commits"), Some(commits_before + 1));
    // The freshness indicator on the refreshed window reports the full path.
    let (left, _) = w.window(metrics).unwrap().status_line();
    assert!(left.contains("[full "), "{left}");
}

#[test]
fn windows_and_locks_views_reflect_live_state() {
    let _serial = serial();
    let mut w = emp_world();
    let s = w.open_session();
    let _user = w.open_window(s, "emps", None).unwrap();
    assert!(w.try_lock(s, "emp", LockMode::Shared));
    let win = w.open_window(s, "__wow_windows", None).unwrap();
    let views: Vec<String> = w
        .db_mut()
        .run("RANGE OF w IS __sys_windows RETRIEVE (w.view)")
        .unwrap()
        .tuples
        .iter()
        .map(|t| t.values[0].to_string())
        .collect();
    assert!(views.contains(&"emps".to_string()), "{views:?}");
    let locks = w
        .db_mut()
        .run("RANGE OF l IS __sys_locks RETRIEVE (l.relation, l.mode)")
        .unwrap();
    assert_eq!(locks.tuples.len(), 1);
    assert_eq!(locks.tuples[0].values[0].to_string(), "emp");
    assert_eq!(locks.tuples[0].values[1].to_string(), "S");
    let _ = win;
}

/// Views outside the keyed class are counted: `__wow_windows.source` shows
/// a snapshot for an aggregate window, and every window reads one of the
/// two page sources.
#[test]
fn windows_view_counts_snapshot_windows() {
    let _serial = serial();
    let mut w = emp_world();
    w.define_view(
        "payroll",
        "RANGE OF e IS emp RETRIEVE (n = COUNT(e.name), total = SUM(e.salary))",
    )
    .unwrap();
    let s = w.open_session();
    w.open_window(s, "emps", None).unwrap();
    w.open_window(s, "payroll", None).unwrap();
    w.open_window(s, "__wow_windows", None).unwrap();
    let rows = w
        .db_mut()
        .run("RANGE OF w IS __sys_windows RETRIEVE (w.view, w.source)")
        .unwrap();
    let mut sources: Vec<String> = rows
        .tuples
        .iter()
        .map(|t| format!("{} {}", t.values[0], t.values[1]))
        .collect();
    sources.sort();
    // The table was filled as the system window opened, so without it.
    assert_eq!(sources, ["emps index", "payroll snapshot"]);
}

#[test]
fn tracer_ring_and_lock_manager_do_not_deadlock() {
    let _serial = serial();
    // The lock manager records a LockAcquire span on every grant/conflict;
    // recording takes the tracer's ring mutex. If that ever nested inside a
    // table-lock wait (or vice versa) this test would hang: half the
    // threads hammer the ring directly while the other half drive the lock
    // manager (and thus record through the same ring) behind a world mutex.
    wow::obs::tracer().set_enabled(true);
    let world = Arc::new(Mutex::new(emp_world()));
    let sessions: Vec<_> = {
        let mut w = world.lock();
        (0..4).map(|_| w.open_session()).collect()
    };
    let mut handles = Vec::new();
    for (i, s) in sessions.into_iter().enumerate() {
        let world = Arc::clone(&world);
        handles.push(std::thread::spawn(move || {
            for round in 0..200 {
                let mut w = world.lock();
                let mode = if (i + round) % 2 == 0 {
                    LockMode::Shared
                } else {
                    LockMode::Exclusive
                };
                let _ = w.try_lock(s, "emp", mode);
                w.release_locks(s);
            }
        }));
    }
    for i in 0..4 {
        handles.push(std::thread::spawn(move || {
            for round in 0..500 {
                let mut span = wow::obs::span(wow::obs::Op::QueryExec);
                span.arg((i * 1000 + round) as u64);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    wow::obs::tracer().set_enabled(false);
    // The ring absorbed writes from both paths.
    let spans = wow::obs::tracer().snapshot();
    assert!(
        spans.iter().any(|s| s.op == wow::obs::Op::LockAcquire),
        "lock-manager spans recorded"
    );
    assert!(
        spans.iter().any(|s| s.op == wow::obs::Op::QueryExec),
        "direct spans recorded"
    );
}

/// Views are process state but the `__sys_*` tables are database state: a
/// checkpoint captures the tables and a reopen restores them without their
/// views. System windows must still open afterwards, also when the
/// checkpoint holds a backing table in an older shape (here
/// `__sys_windows` before its `source` column).
#[test]
fn system_windows_open_after_a_durable_reopen() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("wow-sys-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut w = World::open_durable(WorldConfig::default(), &dir).unwrap();
        let s = w.open_session();
        w.open_window(s, "__wow_metrics", None).unwrap();
        w.db_mut().drop_table("__sys_windows").unwrap();
        w.db_mut()
            .run(
                "CREATE TABLE __sys_windows (win INT KEY, view TEXT, session INT, mode TEXT, \
                 refresh TEXT, age_ms INT, stale INT, updatable INT, generation INT)",
            )
            .unwrap();
        w.checkpoint_durable().unwrap();
    }
    let mut w = World::open_durable(WorldConfig::default(), &dir).unwrap();
    assert!(w.db().catalog().has_table("__sys_metrics"));
    let s = w.open_session();
    w.open_window(s, "__wow_metrics", None).unwrap();
    let win = w.open_window(s, "__wow_windows", None).unwrap();
    let state = w.window(win).unwrap();
    assert_eq!(state.schema.columns.last().unwrap().name, "source");
    let sources: Vec<String> = w
        .db_mut()
        .run("RANGE OF w IS __sys_windows RETRIEVE (w.source)")
        .unwrap()
        .tuples
        .iter()
        .map(|t| t.values[0].to_string())
        .collect();
    assert_eq!(sources, ["snapshot"], "the metrics window, as of open");
    drop(w);
    std::fs::remove_dir_all(&dir).unwrap();
}
