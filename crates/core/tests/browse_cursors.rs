//! Browse-cursor behaviour under the microscope: paging, filtering,
//! refresh under concurrent mutation, and strategy equivalence.

use proptest::prelude::*;
use wow_core::browse::BrowseCursor;
use wow_core::config::WorldConfig;
use wow_core::window_mgr::WindowStyle;
use wow_core::world::{CursorStrategy, World};
use wow_rel::delta::BaseDelta;
use wow_rel::expr::{BinOp, Expr};
use wow_rel::quel::ast::SortKey;
use wow_rel::tuple::Tuple;
use wow_rel::value::Value;
use wow_views::delta::{compute_view_delta, plan};
use wow_views::expand::{run_view_query, ViewQuery};
use wow_views::keyed::{analyze_keyed, Keyed};
use wow_views::updatable::analyze;

fn world(n: usize) -> (World, Keyed) {
    let mut w = World::new(WorldConfig::default());
    w.db_mut()
        .run("CREATE TABLE item (k INT KEY, grp INT, label TEXT) RANGE OF i IS item")
        .unwrap();
    for k in 0..n {
        w.db_mut()
            .insert(
                "item",
                vec![
                    Value::Int(k as i64),
                    Value::Int((k % 5) as i64),
                    Value::text(format!("item-{k:05}")),
                ],
            )
            .unwrap();
    }
    w.define_view("items", "RANGE OF i IS item RETRIEVE (i.k, i.grp, i.label)")
        .unwrap();
    // The same rows through a key self-join: a keyed join view.
    w.define_view(
        "items_joined",
        "RANGE OF i IS item RANGE OF j IS item RETRIEVE (i.k, j.grp, i.label) WHERE j.k = i.k",
    )
    .unwrap();
    let upd = analyze(w.db(), w.views(), "items").unwrap();
    (w, upd)
}

/// Re-read a cursor's page from the world's database and views.
fn refresh(cursor: &mut BrowseCursor, w: &mut World) {
    let (db, vc) = w.db_and_views();
    cursor.refresh(db, vc).unwrap();
}

fn drain_keys(cursor: &mut BrowseCursor, w: &mut World) -> Vec<i64> {
    let mut out = Vec::new();
    while let Some((_, t)) = cursor.current_row() {
        match t.values[0] {
            Value::Int(k) => out.push(k),
            _ => panic!(),
        }
        if !cursor.next(w.db_mut()).unwrap() {
            break;
        }
    }
    out
}

#[test]
fn indexed_cursor_walks_every_row_in_key_order() {
    let (mut w, upd) = world(100);
    let mut c = BrowseCursor::keyed(w.db_mut(), upd.clone(), 7, None).unwrap();
    let keys = drain_keys(&mut c, &mut w);
    assert_eq!(keys, (0..100).collect::<Vec<i64>>());
}

/// One navigation over both page sources: the same script over the same
/// rows moves a single-table Index, a keyed-join Index and a Snapshot
/// cursor identically, and PageDown/PageUp land on the first row of the
/// new page.
#[test]
fn every_source_navigates_alike() {
    let (mut w, upd) = world(23);
    let joined = analyze_keyed(w.db(), w.views(), "items_joined")
        .unwrap()
        .0
        .expect("keyed");
    let (db, vc) = w.db_and_views();
    let snapshot = BrowseCursor::materialized(db, vc, "items", ViewQuery::default(), Some(&upd), 5);
    let mut cursors = [
        BrowseCursor::keyed(w.db_mut(), upd.clone(), 5, None).unwrap(),
        BrowseCursor::keyed(w.db_mut(), joined, 5, None).unwrap(),
        snapshot.unwrap(),
    ];
    assert_eq!(
        cursors.each_ref().map(BrowseCursor::source),
        ["index", "index", "snapshot"]
    );
    // n/p = next/prev row, D/U = PageDown/PageUp; then what every cursor
    // must report: whether it moved and where it is.
    let script = "nnDnUDDpDDDDnnnUUUUUUp";
    let moved = "TTTTTTTTTTTFTTFTTTTFFF";
    let positions = [
        1, 2, 5, 6, 0, 5, 10, 9, 10, 15, 20, 20, 21, 22, 22, 15, 10, 5, 0, 0, 0, 0,
    ];
    for (i, step) in script.chars().enumerate() {
        let seen: Vec<_> = cursors
            .iter_mut()
            .map(|c| {
                let db = w.db_mut();
                let moved = match step {
                    'n' => c.next(db),
                    'p' => c.prev(db),
                    'D' => c.next_page(db),
                    _ => c.prev_page(db),
                };
                let page: Vec<_> = c.page_rows().into_iter().map(|(_, t)| t).collect();
                (moved.unwrap(), c.position(), c.pos_in_page(), page)
            })
            .collect();
        assert!(
            seen.iter().all(|s| *s == seen[0]),
            "step {i} ({step}): {seen:?}"
        );
        let (got_moved, position, pos_in_page, _) = &seen[0];
        assert_eq!(*got_moved, moved.as_bytes()[i] == b'T', "step {i} ({step})");
        assert_eq!(*position, Some(positions[i]), "step {i} ({step})");
        assert_eq!(*pos_in_page, positions[i] % 5, "step {i} ({step})");
    }
}

#[test]
fn filtered_indexed_cursor_skips_non_matching_pages() {
    let (mut w, upd) = world(100);
    // grp = 3 matches exactly every 5th row.
    let pred = Expr::Binary {
        op: BinOp::Eq,
        left: Box::new(Expr::ColumnRef("grp".into())),
        right: Box::new(Expr::Literal(Value::Int(3))),
    };
    let mut c = BrowseCursor::keyed(w.db_mut(), upd.clone(), 6, Some(pred)).unwrap();
    let keys = drain_keys(&mut c, &mut w);
    assert_eq!(keys.len(), 20);
    assert!(keys.iter().all(|k| k % 5 == 3));
    // Still in ascending order despite page-crossing filtering.
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted);
}

#[test]
fn paging_forward_and_back_is_symmetric() {
    let (mut w, upd) = world(90);
    let mut c = BrowseCursor::keyed(w.db_mut(), upd.clone(), 10, None).unwrap();
    let first = c.current_row().unwrap().1.values[0].clone();
    for _ in 0..5 {
        assert!(c.next_page(w.db_mut()).unwrap());
    }
    let deep = c.current_row().unwrap().1.values[0].clone();
    assert_eq!(deep, Value::Int(50));
    for _ in 0..5 {
        assert!(c.prev_page(w.db_mut()).unwrap());
    }
    assert_eq!(c.current_row().unwrap().1.values[0], first);
    assert!(!c.prev_page(w.db_mut()).unwrap(), "at the very start");
}

#[test]
fn next_page_stops_cleanly_at_the_end() {
    let (mut w, upd) = world(25);
    let mut c = BrowseCursor::keyed(w.db_mut(), upd.clone(), 10, None).unwrap();
    assert!(c.next_page(w.db_mut()).unwrap());
    assert!(c.next_page(w.db_mut()).unwrap());
    // Third page exists (5 rows); fourth does not.
    assert!(!c.next_page(w.db_mut()).unwrap());
    // The cursor still points at a real row afterwards.
    assert!(c.current_row().is_some());
}

#[test]
fn refresh_survives_concurrent_deletes() {
    let (mut w, upd) = world(40);
    let mut c = BrowseCursor::keyed(w.db_mut(), upd.clone(), 10, None).unwrap();
    c.next_page(w.db_mut()).unwrap(); // rows 10..20
    assert_eq!(c.current_row().unwrap().1.values[0], Value::Int(10));
    // Another window deletes the row under the cursor and its neighbour.
    for key in [10i64, 11] {
        let rid = w
            .db_mut()
            .index_lookup("pk_item", &[Value::Int(key)])
            .unwrap()[0];
        w.db_mut().delete_rid("item", rid).unwrap();
    }
    refresh(&mut c, &mut w);
    // The page refilled from the same start key; first visible row is 12.
    assert_eq!(c.current_row().unwrap().1.values[0], Value::Int(12));
}

#[test]
fn refresh_survives_concurrent_inserts() {
    let (mut w, upd) = world(20);
    let mut c = BrowseCursor::keyed(w.db_mut(), upd.clone(), 10, None).unwrap();
    c.next(w.db_mut()).unwrap();
    c.next(w.db_mut()).unwrap(); // on row 2
                                 // Insert a row *before* the cursor.
    w.db_mut()
        .insert(
            "item",
            vec![Value::Int(-1), Value::Int(0), Value::text("early")],
        )
        .unwrap();
    refresh(&mut c, &mut w);
    // Position is by page slot, so the new first-page content shifts; the
    // cursor still points at a valid row and ordering holds.
    let keys = drain_keys(&mut c, &mut w);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted);
}

#[test]
fn empty_view_cursor_is_well_behaved() {
    let (mut w, upd) = world(0);
    let mut c = BrowseCursor::keyed(w.db_mut(), upd.clone(), 10, None).unwrap();
    assert!(c.is_empty());
    assert!(c.current_row().is_none());
    assert_eq!(c.position(), None);
    assert!(!c.next(w.db_mut()).unwrap());
    assert!(!c.prev(w.db_mut()).unwrap());
    assert!(!c.next_page(w.db_mut()).unwrap());
    assert!(!c.prev_page(w.db_mut()).unwrap());
    refresh(&mut c, &mut w);
    assert!(c.is_empty());
}

/// `a` and `b` share keys `0..n`; `ab` joins them on the key, so `a`
/// drives and `b` is probed: a keyed join view.
fn ab_world(n: i64) -> World {
    let mut w = World::new(WorldConfig::default());
    w.db_mut()
        .run("CREATE TABLE a (k INT KEY, v INT) CREATE TABLE b (k INT KEY, v INT)")
        .unwrap();
    for k in 0..n {
        w.db_mut()
            .insert("a", vec![Value::Int(k), Value::Int(k * 2)])
            .unwrap();
        w.db_mut()
            .insert("b", vec![Value::Int(k), Value::Int(k * 3)])
            .unwrap();
    }
    w.define_view(
        "ab",
        "RANGE OF x IS a RANGE OF y IS b RETRIEVE (x.k, av = x.v, bv = y.v) WHERE x.k = y.k",
    )
    .unwrap();
    w
}

#[test]
fn materialized_cursor_for_read_only_views() {
    let mut w = ab_world(10);
    let sorted = ViewQuery {
        sort: vec![SortKey {
            column: "k".into(),
            ascending: true,
        }],
        ..Default::default()
    };
    let (db, vc) = w.db_and_views();
    let mut c = BrowseCursor::materialized(db, vc, "ab", sorted, None, 16).unwrap();
    assert_eq!(c.known_len(), Some(10));
    let (rid, row) = c.current_row().unwrap();
    assert!(rid.is_none(), "join views carry no base rid");
    assert_eq!(
        row.values,
        vec![Value::Int(0), Value::Int(0), Value::Int(0)]
    );
    // Refresh picks up base-table changes.
    w.db_mut()
        .run("RANGE OF x IS a REPLACE x (v = 100) WHERE x.k = 0")
        .unwrap();
    refresh(&mut c, &mut w);
    assert_eq!(c.current_row().unwrap().1.values[1], Value::Int(100));
}

#[test]
fn materialized_window_pages_by_configured_page_size() {
    let mut w = World::new(WorldConfig {
        page_size: 5,
        ..WorldConfig::default()
    });
    w.db_mut()
        .run("CREATE TABLE item (k INT KEY, label TEXT)")
        .unwrap();
    for k in 0..12 {
        w.db_mut()
            .insert(
                "item",
                vec![Value::Int(k), Value::text(format!("item-{k}"))],
            )
            .unwrap();
    }
    w.define_view("items", "RANGE OF i IS item RETRIEVE (i.k, i.label)")
        .unwrap();
    let s = w.open_session();
    let win = w
        .open_window_using(
            s,
            "items",
            None,
            WindowStyle::Form,
            CursorStrategy::Materialized,
        )
        .unwrap();
    let page_keys = |w: &World| -> Vec<Value> {
        let cursor = &w.window(win).unwrap().cursor;
        cursor
            .page_rows()
            .into_iter()
            .map(|(_, t)| t.values[0].clone())
            .collect()
    };
    assert_eq!(page_keys(&w), (0..5).map(Value::Int).collect::<Vec<_>>());
    assert!(w.browse_next_page(win).unwrap());
    assert_eq!(w.window(win).unwrap().cursor.position(), Some(5));
    assert_eq!(w.window(win).unwrap().cursor.pos_in_page(), 0);
    assert_eq!(page_keys(&w), (5..10).map(Value::Int).collect::<Vec<_>>());
    assert!(w.browse_prev_page(win).unwrap());
    assert_eq!(w.window(win).unwrap().cursor.position(), Some(0));
}

/// A join view opened through [`BrowseCursor::open`] pages one screenful at
/// a time: it never holds the extension, pages forward and back
/// symmetrically, detects its end and sees writes on refresh.
#[test]
fn a_join_view_pages_incrementally_through_open() {
    let mut w = ab_world(23);
    let open = |w: &mut World| {
        let keyed = analyze_keyed(w.db(), w.views(), "ab")
            .unwrap()
            .0
            .expect("keyed");
        let (db, vc) = w.db_and_views();
        let (query, auto) = (ViewQuery::default(), CursorStrategy::Auto);
        BrowseCursor::open(db, vc, "ab", Some(&keyed), &query, auto, 5).unwrap()
    };
    let mut st = open(&mut w);
    assert_eq!(st.source(), "index");
    assert_eq!(st.known_len(), None, "never materializes the extension");
    assert_eq!(st.position(), Some(0));
    assert_eq!(drain_keys(&mut st, &mut w), (0..23).collect::<Vec<_>>());
    // Paging forward and back is symmetric.
    let mut st = open(&mut w);
    let first = st.current_row().unwrap().1.values[0].clone();
    assert!(st.next_page(w.db_mut()).unwrap());
    assert!(st.next_page(w.db_mut()).unwrap());
    assert_eq!(st.position(), Some(10));
    assert!(st.prev_page(w.db_mut()).unwrap());
    assert!(st.prev_page(w.db_mut()).unwrap());
    assert_eq!(st.current_row().unwrap().1.values[0], first);
    assert!(!st.prev_page(w.db_mut()).unwrap(), "at the start");
    // The last (short) page is reached cleanly and the end detected.
    for _ in 0..4 {
        st.next_page(w.db_mut()).unwrap();
    }
    assert!(!st.next_page(w.db_mut()).unwrap());
    assert!(st.current_row().is_some());
    // Refresh sees base-table writes.
    w.db_mut()
        .run("RANGE OF x IS a REPLACE x (v = 100) WHERE x.k = 20")
        .unwrap();
    refresh(&mut st, &mut w);
    let row20 = st
        .page_rows()
        .into_iter()
        .find(|(_, t)| t.values[0] == Value::Int(20));
    assert_eq!(row20.unwrap().1.values[1], Value::Int(100));
}

#[test]
fn position_reporting_counts_matches_only() {
    let (mut w, upd) = world(50);
    let pred = Expr::Binary {
        op: BinOp::Eq,
        left: Box::new(Expr::ColumnRef("grp".into())),
        right: Box::new(Expr::Literal(Value::Int(0))),
    };
    let mut c = BrowseCursor::keyed(w.db_mut(), upd.clone(), 4, Some(pred)).unwrap();
    assert_eq!(c.position(), Some(0));
    // Walk 6 matching rows; position counts matches, not base rows.
    for _ in 0..6 {
        assert!(c.next(w.db_mut()).unwrap());
    }
    assert_eq!(c.position(), Some(6));
}

/// Child rows `c` point at parent rows `p` through a nullable `pid`; `q`
/// holds at most one row per child (a 1:1 join on the child's key).
fn keyed_world(children: usize, parents: usize) -> World {
    let mut w = World::new(WorldConfig::default());
    w.db_mut()
        .run(
            "CREATE TABLE p (pid INT KEY, name TEXT)
             CREATE TABLE c (cid INT KEY, pid INT, v INT)
             CREATE TABLE q (qid INT KEY, w INT)",
        )
        .unwrap();
    for pid in 0..parents as i64 {
        let name = ["a", "b", "c"][pid as usize % 3];
        w.db_mut()
            .insert("p", vec![Value::Int(pid), Value::text(name)])
            .unwrap();
    }
    for cid in 0..children as i64 {
        let row = vec![Value::Int(cid), Value::Int(cid % 7), Value::Int(cid % 4)];
        w.db_mut().insert("c", row).unwrap();
    }
    // Many-to-one with a residual restriction, then a 1:1 join driven by
    // `q` with a chained probe into `p`.
    w.define_view(
        "cp",
        "RANGE OF c IS c RANGE OF p IS p RETRIEVE (c.cid, p.name, c.v) \
         WHERE c.pid = p.pid AND c.v >= 1",
    )
    .unwrap();
    w.define_view(
        "cqp",
        "RANGE OF q IS q RANGE OF c IS c RANGE OF p IS p RETRIEVE (c.cid, p.name, q.w) \
         WHERE q.qid = c.cid AND c.pid = p.pid",
    )
    .unwrap();
    // A single-table view that shows its driving key.
    w.define_view(
        "cv",
        "RANGE OF c IS c RETRIEVE (c.cid, c.pid) WHERE c.v >= 1",
    )
    .unwrap();
    // A single-table view the updatability analysis refuses: the key is
    // left out and `n` is computed (from the key, so it orders like it).
    w.define_view(
        "cn",
        "RANGE OF c IS c RETRIEVE (n = c.cid * 10, c.pid) WHERE c.v >= 1",
    )
    .unwrap();
    w
}

/// One step of the keyed-page property.
#[derive(Debug, Clone)]
enum Step {
    Next,
    Prev,
    Refresh,
    /// A child `cid` pointing at `pid`: NULL when negative, dangling past
    /// the parents.
    InsertChild {
        cid: i64,
        pid: i64,
        v: i64,
    },
    DeleteChild {
        cid: i64,
    },
    /// Re-point a child (its join column changes under the window).
    MoveChild {
        cid: i64,
        pid: i64,
    },
    /// Move a child to another key (its place in key order changes).
    RekeyChild {
        cid: i64,
        to: i64,
    },
    RenameParent {
        pid: i64,
        name: &'static str,
    },
    DeleteParent {
        pid: i64,
    },
    InsertParent {
        pid: i64,
    },
    InsertQ {
        qid: i64,
        w: i64,
    },
    DeleteQ {
        qid: i64,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let name = prop_oneof![Just("a"), Just("b"), Just("c")];
    prop_oneof![
        Just(Step::Next),
        Just(Step::Next),
        Just(Step::Prev),
        Just(Step::Refresh),
        ((-6i64..48), (-1i64..10), (0i64..4)).prop_map(|(cid, pid, v)| Step::InsertChild {
            cid,
            pid,
            v
        }),
        (0i64..40).prop_map(|cid| Step::DeleteChild { cid }),
        ((0i64..40), (-1i64..10)).prop_map(|(cid, pid)| Step::MoveChild { cid, pid }),
        ((0i64..40), (-6i64..48)).prop_map(|(cid, to)| Step::RekeyChild { cid, to }),
        ((0i64..10), name).prop_map(|(pid, name)| Step::RenameParent { pid, name }),
        (0i64..10).prop_map(|pid| Step::DeleteParent { pid }),
        (0i64..10).prop_map(|pid| Step::InsertParent { pid }),
        ((0i64..40), (0i64..5)).prop_map(|(qid, w)| Step::InsertQ { qid, w }),
        (0i64..40).prop_map(|qid| Step::DeleteQ { qid }),
    ]
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("not an int: {other:?}"),
    }
}

/// Apply a write straight to the database, as another clerk's commit
/// would land under a window that has not refreshed yet, and return the
/// delta it made. Writes that would break a key (or find no row) are
/// skipped.
fn write(w: &mut World, step: &Step) -> Option<BaseDelta> {
    let db = w.db_mut();
    let pid_value = |pid: i64| match pid < 0 {
        true => Value::Null,
        false => Value::Int(pid),
    };
    let rid_of = |db: &mut wow_rel::db::Database, index: &str, key: i64| {
        db.index_lookup(index, &[Value::Int(key)])
            .unwrap()
            .first()
            .copied()
    };
    let row_of = |db: &mut wow_rel::db::Database, table: &str, rid| {
        let id = db.catalog().table(table).unwrap().id;
        db.get_row(id, rid).unwrap().unwrap()
    };
    let (table, rid, row) = match *step {
        Step::InsertChild { cid, pid, v } => {
            rid_of(db, "pk_c", cid).is_none().then_some(())?;
            let row = vec![Value::Int(cid), pid_value(pid), Value::Int(v)];
            ("c", None, Some(row))
        }
        Step::DeleteChild { cid } => ("c", Some(rid_of(db, "pk_c", cid)?), None),
        Step::MoveChild { cid, pid } => {
            let rid = rid_of(db, "pk_c", cid)?;
            let mut row = row_of(db, "c", rid).values;
            row[1] = pid_value(pid);
            ("c", Some(rid), Some(row))
        }
        Step::RekeyChild { cid, to } => {
            rid_of(db, "pk_c", to).is_none().then_some(())?;
            let rid = rid_of(db, "pk_c", cid)?;
            let mut row = row_of(db, "c", rid).values;
            row[0] = Value::Int(to);
            ("c", Some(rid), Some(row))
        }
        Step::RenameParent { pid, name } => {
            let row = vec![Value::Int(pid), Value::text(name)];
            ("p", Some(rid_of(db, "pk_p", pid)?), Some(row))
        }
        Step::DeleteParent { pid } => ("p", Some(rid_of(db, "pk_p", pid)?), None),
        Step::InsertParent { pid } => {
            rid_of(db, "pk_p", pid).is_none().then_some(())?;
            ("p", None, Some(vec![Value::Int(pid), Value::text("new")]))
        }
        Step::InsertQ { qid, w } => {
            rid_of(db, "pk_q", qid).is_none().then_some(())?;
            ("q", None, Some(vec![Value::Int(qid), Value::Int(w)]))
        }
        Step::DeleteQ { qid } => ("q", Some(rid_of(db, "pk_q", qid)?), None),
        Step::Next | Step::Prev | Step::Refresh => unreachable!("navigation"),
    };
    let mut delta = BaseDelta::new(table);
    match (rid, row) {
        (None, Some(row)) => {
            let rid = db.insert(table, row).unwrap();
            delta.inserted.push((rid, row_of(db, table, rid)));
        }
        (Some(rid), Some(row)) => {
            let old = row_of(db, table, rid);
            db.update_rid(table, rid, row).unwrap();
            delta.updated.push((rid, old, row_of(db, table, rid)));
        }
        (Some(rid), None) => {
            delta.deleted.push((rid, row_of(db, table, rid)));
            db.delete_rid(table, rid).unwrap();
        }
        (None, None) => unreachable!("every write has a rid or a row"),
    }
    Some(delta)
}

/// What a keyed cursor must show: the cursor's own navigation state
/// replayed over the view's extension as the query path computes it,
/// sorted by the driving key (the first column in both test views).
#[derive(Debug)]
struct PageModel {
    n: usize,
    /// The driving key before each page up to the current one.
    starts: Vec<Option<i64>>,
    page_no: usize,
    rows: Vec<Tuple>,
    at_end: bool,
}

impl PageModel {
    /// The first `n` rows after `start` and whether the page is short.
    fn page(&self, ext: &[Tuple], start: Option<i64>) -> (Vec<Tuple>, bool) {
        let after = |t: &&Tuple| start.is_none_or(|s| int(&t.values[0]) > s);
        let rows: Vec<Tuple> = ext.iter().filter(after).take(self.n).cloned().collect();
        let short = rows.len() < self.n;
        (rows, short)
    }

    fn open(ext: &[Tuple], n: usize) -> PageModel {
        let mut m = PageModel {
            n,
            starts: vec![None],
            page_no: 0,
            rows: Vec::new(),
            at_end: true,
        };
        (m.rows, m.at_end) = m.page(ext, None);
        m
    }

    /// PageDown: the page after the last key shown.
    fn next(&mut self, ext: &[Tuple]) -> bool {
        if self.at_end {
            return false;
        }
        self.starts.truncate(self.page_no + 1);
        self.starts
            .push(self.rows.last().map(|t| int(&t.values[0])));
        let (rows, _) = self.page(ext, self.starts[self.page_no + 1]);
        if rows.is_empty() {
            self.at_end = true;
            return false;
        }
        (self.rows, self.page_no, self.at_end) = (rows, self.page_no + 1, false);
        true
    }

    /// PageUp: the page after the remembered start of the one before.
    fn prev(&mut self, ext: &[Tuple]) -> Option<bool> {
        if self.page_no == 0 {
            return None; // moves only the slot
        }
        let (rows, short) = self.page(ext, self.starts[self.page_no - 1]);
        if rows.is_empty() {
            return Some(false);
        }
        (self.rows, self.page_no, self.at_end) = (rows, self.page_no - 1, short);
        Some(true)
    }

    /// Re-read the current page; an emptied page backs up to the last
    /// non-empty one before it.
    fn refresh(&mut self, ext: &[Tuple]) {
        loop {
            (self.rows, self.at_end) = self.page(ext, self.starts[self.page_no]);
            if !self.rows.is_empty() || self.page_no == 0 {
                break;
            }
            self.page_no -= 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Keyed pages, forward and back, with or without a query-by-form
    /// restriction, show exactly the query path's rows in driving-key
    /// order, while children, parents and 1:1 rows are inserted, deleted,
    /// re-pointed (dangling or NULL), re-keyed and renamed between page
    /// turns. A restriction on the first column is a key range on `cv`
    /// and `cp`, whose pages seek, and a filter on `cqp` (driven by `q`)
    /// and `cn` (computed); writes land below, inside and above it. Each
    /// write reaches the cursor as it reaches a watching window: a write
    /// to the driving table is a delta splice and must never need a
    /// re-query, and a write to a probed table has no delta and
    /// refreshes the page.
    #[test]
    fn keyed_pages_match_the_query_path(
        view in prop_oneof![Just("cv"), Just("cp"), Just("cqp"), Just("cn")],
        restrict in prop_oneof![1 => Just(None), 5 => (0usize..6, 0i64..30, 0i64..12).prop_map(Some)],
        n in 2usize..6,
        steps in proptest::collection::vec(step_strategy(), 10..40),
    ) {
        let mut w = keyed_world(24, 8);
        for qid in (0..24).step_by(2) {
            w.db_mut().insert("q", vec![Value::Int(qid), Value::Int(qid % 5)]).unwrap();
        }
        let keyed = analyze_keyed(w.db(), w.views(), view).unwrap().0.expect("keyed");
        let driving = keyed.table.clone();
        let single = view == "cn" || view == "cv";
        // `n` is ten times the key it is computed from.
        let ((first, scale), other) = match view {
            "cn" => (("n", 10), ("pid", Value::Int(3))),
            "cv" => (("cid", 1), ("pid", Value::Int(3))),
            _ => (("cid", 1), ("name", Value::text("b"))),
        };
        let cmp = |op, col: &str, v: Value| Expr::Binary {
            op,
            left: Box::new(Expr::ColumnRef(col.into())),
            right: Box::new(Expr::Literal(v)),
        };
        let key = |op, k: i64| cmp(op, first, Value::Int(k * scale));
        let pred = restrict.map(|(kind, k, d)| match kind {
            0 => cmp(BinOp::Eq, other.0, other.1.clone()),
            1 => key(BinOp::Ge, k),
            2 => key(BinOp::Gt, k),
            3 => key(BinOp::Eq, k),
            4 => key(BinOp::Le, k),
            _ => Expr::and(key(BinOp::Ge, k), key(BinOp::Le, k + d)),
        });
        let extension = |w: &mut World| {
            let query = ViewQuery { pred: pred.clone(), ..ViewQuery::default() };
            let (db, vc) = w.db_and_views();
            let mut rows = run_view_query(db, vc, view, &query).unwrap().tuples;
            rows.sort_by_key(|t| int(&t.values[0]));
            rows
        };
        let mut c = BrowseCursor::keyed(w.db_mut(), keyed, n, pred.clone()).unwrap();
        let ext = extension(&mut w);
        let mut model = PageModel::open(&ext, n);
        for (i, step) in steps.iter().enumerate() {
            let ext = extension(&mut w);
            match step {
                Step::Next => {
                    let moved = c.next_page(w.db_mut()).unwrap();
                    prop_assert_eq!(moved, model.next(&ext), "step {} {:?}", i, step);
                }
                Step::Prev => {
                    let moved = c.prev_page(w.db_mut()).unwrap();
                    if let Some(want) = model.prev(&ext) {
                        prop_assert_eq!(moved, want, "step {} {:?}", i, step);
                    }
                }
                Step::Refresh => {
                    refresh(&mut c, &mut w);
                    model.refresh(&ext);
                }
                write_step => {
                    let Some(delta) = write(&mut w, write_step) else {
                        continue;
                    };
                    let (db, vc) = w.db_and_views();
                    let plan = plan(db, vc, view, &delta.table).unwrap();
                    // A probed-table write has a delta only when it changes
                    // nothing the view reads.
                    match compute_view_delta(db, &plan, &delta).unwrap() {
                        Some(vd) => {
                            prop_assert!(delta.table == driving || vd.is_empty(), "step {} {:?}", i, step);
                            prop_assert!(c.apply_delta(db, &vd).unwrap(), "step {} {:?} spliced", i, step);
                        }
                        None => {
                            prop_assert!(delta.table != driving, "step {} {:?}", i, step);
                            refresh(&mut c, &mut w);
                        }
                    }
                    // A splice lands where a refresh would.
                    model.refresh(&extension(&mut w));
                }
            }
            let shown: Vec<Tuple> = c.page_rows().into_iter().map(|(_, t)| t).collect();
            prop_assert_eq!(&shown, &model.rows, "step {} {:?}", i, step);
            prop_assert_eq!(c.position().map(|p| p / n), (!shown.is_empty()).then_some(model.page_no));
            let rids = c.page_rows().iter().all(|(rid, _)| rid.is_some() == single);
            prop_assert!(rids, "single-table rows carry their rid, join rows none");
        }
    }
}

/// A keyed page costs a page of index entries and one probe per entry,
/// however deep it is: no scan, and at most two probes per row shown.
#[test]
fn a_keyed_page_costs_a_page_at_any_depth() {
    let mut w = keyed_world(50_000, 1_000);
    w.define_view(
        "child_names",
        "RANGE OF c IS c RANGE OF p IS p RETRIEVE (c.cid, p.name) WHERE c.pid = p.pid",
    )
    .unwrap();
    let keyed = analyze_keyed(w.db(), w.views(), "child_names")
        .unwrap()
        .0
        .expect("keyed");
    let n = 16;
    let mut c = BrowseCursor::keyed(w.db_mut(), keyed, n, None).unwrap();
    for page in 1..300 {
        let before = w.db().counters();
        assert!(c.next_page(w.db_mut()).unwrap());
        let after = w.db().counters();
        if page == 2 || page == 299 {
            assert_eq!(after.rows_scanned, before.rows_scanned, "page {page}");
            let probes = after.index_probes - before.index_probes;
            assert!(probes <= 2 * n as u64, "page {page}: {probes} probes");
            let first = c.current_row().unwrap().1.values[0].clone();
            assert_eq!(first, Value::Int((page * n) as i64), "driving-key order");
        }
    }
}

/// A query-by-form restriction on the driving key is a seek: a window
/// opened on `>=`, `>`, `=` or `lo..hi` costs the same few index probes
/// and no scan whether its first row is the 10th or the 49 000th, and an
/// `=` window knows from its first page that no page follows.
#[test]
fn a_qbf_jump_costs_a_page_at_any_rank() {
    let mut w = keyed_world(50_000, 1_000);
    w.define_view("child_vs", "RANGE OF c IS c RETRIEVE (c.cid, c.v)")
        .unwrap();
    w.define_view(
        "child_names",
        "RANGE OF c IS c RANGE OF p IS p RETRIEVE (c.cid, p.name) WHERE c.pid = p.pid",
    )
    .unwrap();
    let n = 16;
    let key = |op, k: i64| Expr::Binary {
        op,
        left: Box::new(Expr::ColumnRef("cid".into())),
        right: Box::new(Expr::Literal(Value::Int(k))),
    };
    for view in ["child_vs", "child_names"] {
        let keyed = analyze_keyed(w.db(), w.views(), view)
            .unwrap()
            .0
            .expect("keyed");
        for jump in [">=", ">", "=", "lo..hi"] {
            let mut costs = Vec::new();
            for rank in [10, 10_000, 49_000] {
                let (pred, first, last) = match jump {
                    ">=" => (key(BinOp::Ge, rank), rank, None),
                    ">" => (key(BinOp::Gt, rank), rank + 1, None),
                    "=" => (key(BinOp::Eq, rank), rank, Some(rank)),
                    _ => (
                        Expr::and(key(BinOp::Ge, rank), key(BinOp::Le, rank + 40)),
                        rank,
                        Some(rank + 40),
                    ),
                };
                let before = w.db().counters();
                let mut c = BrowseCursor::keyed(w.db_mut(), keyed.clone(), n, Some(pred)).unwrap();
                let after = w.db().counters();
                let at = format!("{view} {jump} {rank}");
                assert_eq!(after.rows_scanned, before.rows_scanned, "{at}");
                let probes = after.index_probes - before.index_probes;
                assert!(probes <= 2 * n as u64 + 1, "{at}: {probes} probes");
                costs.push(probes);
                let row = c.current_row().unwrap().1;
                assert_eq!(row.values[0], Value::Int(first), "{at}");
                if jump == "=" {
                    assert_eq!(c.page_rows().len(), 1, "{at}");
                    assert!(!c.next_page(w.db_mut()).unwrap(), "{at}");
                    assert_eq!(w.db().counters().index_probes, after.index_probes, "{at}");
                }
                if let Some(last) = last {
                    let keys = drain_keys(&mut c, &mut w);
                    assert_eq!(keys, (first..=last).collect::<Vec<_>>(), "{at}");
                }
            }
            assert!(
                costs.iter().all(|&p| p == costs[0]),
                "{view} {jump}: {costs:?}"
            );
        }
    }
}
