//! What a commit costs its watching windows, in counts that do not drift:
//! index probes, rows scanned and how each window was brought current.
//! Each check runs on the registrar workload at two sizes and must read
//! the same at both: a watcher costs what its screenful costs, not what
//! its view holds.

use wow_core::config::WorldConfig;
use wow_core::world::{World, WorldStats};
use wow_core::SessionId;
use wow_rel::db::ExecCounters;
use wow_rel::value::Value;
use wow_workload::university::{build_world, UniversityConfig};

fn registrar(enrollments: usize) -> (World, SessionId) {
    let cfg = UniversityConfig {
        students: 400,
        courses: 40,
        enrollments,
        ..UniversityConfig::default()
    };
    let mut w = build_world(WorldConfig::default(), &cfg);
    let s = w.open_session();
    (w, s)
}

/// Rewrite one column of the row keyed `key` from outside any window, and
/// return what propagating it cost.
fn write(
    w: &mut World,
    s: SessionId,
    table: &str,
    key: i64,
    col: usize,
    to: Value,
) -> (WorldStats, ExecCounters) {
    let db = w.db_mut();
    let rid = db.index_lookup(&format!("pk_{table}"), &[Value::Int(key)]);
    let rid = rid.unwrap()[0];
    let id = db.catalog().table(table).unwrap().id;
    let mut row = db.get_row(id, rid).unwrap().unwrap().values;
    row[col] = to;
    let (stats, before) = (w.stats.snapshot(), w.db().counters());
    assert!(w.apply_update(s, table, rid, row).unwrap());
    let after = w.db().counters();
    let cost = ExecCounters {
        rows_scanned: after.rows_scanned - before.rows_scanned,
        index_probes: after.index_probes - before.index_probes,
        ..ExecCounters::default()
    };
    (w.stats.since(&stats), cost)
}

/// A `transcript` window (`enroll` drives, `student` is probed by its
/// key) takes a grade write as a splice, for the same probes at any size,
/// and a gpa write it does not show costs it nothing.
#[test]
fn a_join_watcher_costs_a_splice_or_nothing_at_any_size() {
    let mut probes = Vec::new();
    for enrollments in [2_000, 16_000] {
        let (mut w, s) = registrar(enrollments);
        // The write's own cost: a gpa write leaves `pk_student`'s key as it
        // was, so it probes no index.
        let (_, alone) = write(&mut w, s, "student", 8, 3, Value::Float(0.5));
        assert_eq!(alone.index_probes, 0, "{enrollments}: the write alone");
        let win = w.open_window(s, "transcript", None).unwrap();
        // eid 3 is the fourth row of the window's first page, in
        // driving-key order.
        let (stats, cost) = write(&mut w, s, "enroll", 3, 3, Value::text("grade-x"));
        assert_eq!(stats.delta_refreshes, 1, "{enrollments}: a splice");
        assert_eq!(stats.full_refreshes, 0, "{enrollments}");
        assert_eq!(cost.rows_scanned, 0, "{enrollments}");
        probes.push(cost.index_probes);
        let page = w.window(win).unwrap().cursor.page_rows();
        assert_eq!(page[3].1.values[2], Value::text("grade-x"));
        // `transcript` shows `sname`, not `gpa`.
        let (stats, cost) = write(&mut w, s, "student", 7, 3, Value::Float(0.5));
        assert_eq!(stats.windows_skipped, 1, "{enrollments}: the watcher");
        assert_eq!(stats.windows_refreshed, 0, "{enrollments}");
        assert_eq!(cost, alone, "{enrollments}: the watcher costs nothing");
    }
    assert_eq!(probes[0], probes[1], "the same probes at both sizes");
}

/// A `dept_load` window (COUNT … GROUP BY over `course` ⋈ `enroll`)
/// re-runs its view on a refresh, which scans `enroll`; a grade write
/// changes no column it reads and scans nothing.
#[test]
fn an_aggregate_watcher_skips_a_write_it_does_not_read() {
    for enrollments in [2_000, 16_000] {
        let (mut w, s) = registrar(enrollments);
        w.open_window(s, "dept_load", None).unwrap();
        let (stats, cost) = write(&mut w, s, "enroll", 3, 3, Value::text("grade-x"));
        assert_eq!(stats.windows_skipped, 1, "{enrollments}");
        assert_eq!(stats.full_refreshes, 0, "{enrollments}");
        assert_eq!(cost.rows_scanned, 0, "{enrollments}");
    }
}
