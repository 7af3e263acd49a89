//! Browse-cursor behaviour under the microscope: paging, filtering,
//! refresh under concurrent mutation, and strategy equivalence.

use proptest::prelude::*;
use wow_core::browse::BrowseCursor;
use wow_core::config::WorldConfig;
use wow_core::window_mgr::WindowStyle;
use wow_core::world::{CursorStrategy, World};
use wow_rel::expr::{BinOp, Expr};
use wow_rel::quel::ast::SortKey;
use wow_rel::tuple::Tuple;
use wow_rel::value::Value;
use wow_views::expand::{run_view_query, ViewQuery};
use wow_views::keyed::analyze_keyed;
use wow_views::updatable::{analyze, Updatability};
use wow_views::ViewCatalog;

fn world(n: usize) -> (World, Updatability) {
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
    let upd = analyze(w.db(), w.views(), "items").unwrap();
    (w, upd)
}

fn drain_keys(cursor: &mut BrowseCursor, w: &mut World) -> Vec<i64> {
    let vc = ViewCatalog::new();
    let mut out = Vec::new();
    while let Some((_, t)) = cursor.current_row() {
        match t.values[0] {
            Value::Int(k) => out.push(k),
            _ => panic!(),
        }
        if !cursor.next(w.db_mut(), &vc).unwrap() {
            break;
        }
    }
    out
}

#[test]
fn indexed_cursor_walks_every_row_in_key_order() {
    let (mut w, upd) = world(100);
    let mut c = BrowseCursor::indexed(w.db_mut(), &upd, "pk_item", 7, None).unwrap();
    let keys = drain_keys(&mut c, &mut w);
    assert_eq!(keys, (0..100).collect::<Vec<i64>>());
}

/// One navigation over three page sources: the same script over the same
/// rows moves an Index, a Query and a Snapshot cursor identically, and
/// PageDown/PageUp land on the first row of the new page.
#[test]
fn every_source_navigates_alike() {
    let (mut w, upd) = world(23);
    let mut vc = ViewCatalog::new();
    vc.register(w.views().get("items").unwrap().clone())
        .unwrap();
    let q = ViewQuery::default;
    let mut cursors = [
        BrowseCursor::indexed(w.db_mut(), &upd, "pk_item", 5, None).unwrap(),
        BrowseCursor::streamed(w.db_mut(), &vc, "items", q(), 5).unwrap(),
        BrowseCursor::materialized(w.db_mut(), &vc, "items", q(), Some(&upd), 5).unwrap(),
    ];
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
                    'n' => c.next(db, &vc),
                    'p' => c.prev(db, &vc),
                    'D' => c.next_page(db, &vc),
                    _ => c.prev_page(db, &vc),
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
    let mut c = BrowseCursor::indexed(w.db_mut(), &upd, "pk_item", 6, Some(pred)).unwrap();
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
    let vc = ViewCatalog::new();
    let mut c = BrowseCursor::indexed(w.db_mut(), &upd, "pk_item", 10, None).unwrap();
    let first = c.current_row().unwrap().1.values[0].clone();
    for _ in 0..5 {
        assert!(c.next_page(w.db_mut(), &vc).unwrap());
    }
    let deep = c.current_row().unwrap().1.values[0].clone();
    assert_eq!(deep, Value::Int(50));
    for _ in 0..5 {
        assert!(c.prev_page(w.db_mut(), &vc).unwrap());
    }
    assert_eq!(c.current_row().unwrap().1.values[0], first);
    assert!(!c.prev_page(w.db_mut(), &vc).unwrap(), "at the very start");
}

#[test]
fn next_page_stops_cleanly_at_the_end() {
    let (mut w, upd) = world(25);
    let vc = ViewCatalog::new();
    let mut c = BrowseCursor::indexed(w.db_mut(), &upd, "pk_item", 10, None).unwrap();
    assert!(c.next_page(w.db_mut(), &vc).unwrap());
    assert!(c.next_page(w.db_mut(), &vc).unwrap());
    // Third page exists (5 rows); fourth does not.
    assert!(!c.next_page(w.db_mut(), &vc).unwrap());
    // The cursor still points at a real row afterwards.
    assert!(c.current_row().is_some());
}

#[test]
fn refresh_survives_concurrent_deletes() {
    let (mut w, upd) = world(40);
    let vc = ViewCatalog::new();
    let mut c = BrowseCursor::indexed(w.db_mut(), &upd, "pk_item", 10, None).unwrap();
    c.next_page(w.db_mut(), &vc).unwrap(); // rows 10..20
    assert_eq!(c.current_row().unwrap().1.values[0], Value::Int(10));
    // Another window deletes the row under the cursor and its neighbour.
    for key in [10i64, 11] {
        let rid = w
            .db_mut()
            .index_lookup("pk_item", &[Value::Int(key)])
            .unwrap()[0];
        w.db_mut().delete_rid("item", rid).unwrap();
    }
    c.refresh(w.db_mut(), &vc).unwrap();
    // The page refilled from the same start key; first visible row is 12.
    assert_eq!(c.current_row().unwrap().1.values[0], Value::Int(12));
}

#[test]
fn refresh_survives_concurrent_inserts() {
    let (mut w, upd) = world(20);
    let vc = ViewCatalog::new();
    let mut c = BrowseCursor::indexed(w.db_mut(), &upd, "pk_item", 10, None).unwrap();
    c.next(w.db_mut(), &vc).unwrap();
    c.next(w.db_mut(), &vc).unwrap(); // on row 2
                                      // Insert a row *before* the cursor.
    w.db_mut()
        .insert(
            "item",
            vec![Value::Int(-1), Value::Int(0), Value::text("early")],
        )
        .unwrap();
    c.refresh(w.db_mut(), &vc).unwrap();
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
    let vc = ViewCatalog::new();
    let mut c = BrowseCursor::indexed(w.db_mut(), &upd, "pk_item", 10, None).unwrap();
    assert!(c.is_empty());
    assert!(c.current_row().is_none());
    assert_eq!(c.position(), None);
    assert!(!c.next(w.db_mut(), &vc).unwrap());
    assert!(!c.prev(w.db_mut(), &vc).unwrap());
    assert!(!c.next_page(w.db_mut(), &vc).unwrap());
    assert!(!c.prev_page(w.db_mut(), &vc).unwrap());
    c.refresh(w.db_mut(), &vc).unwrap();
    assert!(c.is_empty());
}

#[test]
fn materialized_cursor_for_read_only_views() {
    let mut w = World::new(WorldConfig::default());
    w.db_mut()
        .run("CREATE TABLE a (k INT KEY, v INT) CREATE TABLE b (k INT KEY, v INT)")
        .unwrap();
    for k in 0..10 {
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
    let vc = {
        let mut vc = ViewCatalog::new();
        vc.register(w.views().get("ab").unwrap().clone()).unwrap();
        vc
    };
    let mut c = BrowseCursor::materialized(
        w.db_mut(),
        &vc,
        "ab",
        ViewQuery {
            sort: vec![SortKey {
                column: "k".into(),
                ascending: true,
            }],
            ..Default::default()
        },
        None,
        16,
    )
    .unwrap();
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
    c.refresh(w.db_mut(), &vc).unwrap();
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

#[test]
fn streamed_cursor_pages_join_views_incrementally() {
    let mut w = World::new(WorldConfig::default());
    w.db_mut()
        .run("CREATE TABLE a (k INT KEY, v INT) CREATE TABLE b (k INT KEY, v INT)")
        .unwrap();
    for k in 0..23 {
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
    let vc = {
        let mut vc = ViewCatalog::new();
        vc.register(w.views().get("ab").unwrap().clone()).unwrap();
        vc
    };
    // Drain with the real catalog: streamed pages re-run the view query.
    let drain = |cursor: &mut BrowseCursor, w: &mut World| {
        let mut out = Vec::new();
        while let Some((_, t)) = cursor.current_row() {
            match t.values[0] {
                Value::Int(k) => out.push(k),
                _ => panic!(),
            }
            if !cursor.next(w.db_mut(), &vc).unwrap() {
                break;
            }
        }
        out
    };
    let mut st = BrowseCursor::streamed(w.db_mut(), &vc, "ab", ViewQuery::default(), 5).unwrap();
    assert_eq!(st.known_len(), None, "never materializes the extension");
    assert_eq!(st.position(), Some(0));
    assert_eq!(drain(&mut st, &mut w).len(), 23);
    // Paging forward and back is symmetric.
    let mut st = BrowseCursor::streamed(w.db_mut(), &vc, "ab", ViewQuery::default(), 5).unwrap();
    let first = st.current_row().unwrap().1.values[0].clone();
    assert!(st.next_page(w.db_mut(), &vc).unwrap());
    assert!(st.next_page(w.db_mut(), &vc).unwrap());
    assert_eq!(st.position(), Some(10));
    assert!(st.prev_page(w.db_mut(), &vc).unwrap());
    assert!(st.prev_page(w.db_mut(), &vc).unwrap());
    assert_eq!(st.current_row().unwrap().1.values[0], first);
    assert!(!st.prev_page(w.db_mut(), &vc).unwrap(), "at the start");
    // The last (short) page is reached cleanly and the end detected.
    for _ in 0..4 {
        st.next_page(w.db_mut(), &vc).unwrap();
    }
    assert!(!st.next_page(w.db_mut(), &vc).unwrap());
    assert!(st.current_row().is_some());
    // Refresh sees base-table writes.
    w.db_mut()
        .run("RANGE OF x IS a REPLACE x (v = 100) WHERE x.k = 20")
        .unwrap();
    st.refresh(w.db_mut(), &vc).unwrap();
    let page: Vec<i64> = st
        .page_rows()
        .iter()
        .map(|(_, t)| match t.values[0] {
            Value::Int(k) => k,
            _ => panic!(),
        })
        .collect();
    assert!(page.contains(&20));
}

#[test]
fn position_reporting_counts_matches_only() {
    let (mut w, upd) = world(50);
    let vc = ViewCatalog::new();
    let pred = Expr::Binary {
        op: BinOp::Eq,
        left: Box::new(Expr::ColumnRef("grp".into())),
        right: Box::new(Expr::Literal(Value::Int(0))),
    };
    let mut c = BrowseCursor::indexed(w.db_mut(), &upd, "pk_item", 4, Some(pred)).unwrap();
    assert_eq!(c.position(), Some(0));
    // Walk 6 matching rows; position counts matches, not base rows.
    for _ in 0..6 {
        assert!(c.next(w.db_mut(), &vc).unwrap());
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
    w
}

/// One step of the keyed-page property.
#[derive(Debug, Clone)]
enum Step {
    Next,
    Prev,
    Refresh,
    /// A child pointing at `pid`: NULL when negative, dangling past the
    /// parents.
    InsertChild {
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
        ((-1i64..10), (0i64..4)).prop_map(|(pid, v)| Step::InsertChild { pid, v }),
        (0i64..40).prop_map(|cid| Step::DeleteChild { cid }),
        ((0i64..40), (-1i64..10)).prop_map(|(cid, pid)| Step::MoveChild { cid, pid }),
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
/// would land under a window that has not refreshed yet. Writes that
/// would break a key (or find no row) are skipped.
fn write(w: &mut World, step: &Step, next_cid: &mut i64) {
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
    match *step {
        Step::InsertChild { pid, v } => {
            db.insert(
                "c",
                vec![Value::Int(*next_cid), pid_value(pid), Value::Int(v)],
            )
            .unwrap();
            *next_cid += 1;
        }
        Step::DeleteChild { cid } => {
            if let Some(rid) = rid_of(db, "pk_c", cid) {
                db.delete_rid("c", rid).unwrap();
            }
        }
        Step::MoveChild { cid, pid } => {
            if let Some(rid) = rid_of(db, "pk_c", cid) {
                let id = db.catalog().table("c").unwrap().id;
                let mut row = db.get_row(id, rid).unwrap().unwrap().values;
                row[1] = pid_value(pid);
                db.update_rid("c", rid, row).unwrap();
            }
        }
        Step::RenameParent { pid, name } => {
            if let Some(rid) = rid_of(db, "pk_p", pid) {
                db.update_rid("p", rid, vec![Value::Int(pid), Value::text(name)])
                    .unwrap();
            }
        }
        Step::DeleteParent { pid } => {
            if let Some(rid) = rid_of(db, "pk_p", pid) {
                db.delete_rid("p", rid).unwrap();
            }
        }
        Step::InsertParent { pid } => {
            if rid_of(db, "pk_p", pid).is_none() {
                db.insert("p", vec![Value::Int(pid), Value::text("new")])
                    .unwrap();
            }
        }
        Step::InsertQ { qid, w } => {
            if rid_of(db, "pk_q", qid).is_none() {
                db.insert("q", vec![Value::Int(qid), Value::Int(w)])
                    .unwrap();
            }
        }
        Step::DeleteQ { qid } => {
            if let Some(rid) = rid_of(db, "pk_q", qid) {
                db.delete_rid("q", rid).unwrap();
            }
        }
        Step::Next | Step::Prev | Step::Refresh => unreachable!("navigation"),
    }
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

    /// Keyed join pages, forward and back, with or without a query-by-form
    /// restriction, show exactly the query path's rows in driving-key
    /// order, while children, parents and 1:1 rows are inserted, deleted,
    /// re-pointed (dangling or NULL) and renamed between page turns.
    #[test]
    fn keyed_pages_match_the_query_path(
        view in prop_oneof![Just("cp"), Just("cqp")],
        restrict in 0usize..3,
        n in 2usize..6,
        steps in proptest::collection::vec(step_strategy(), 10..40),
    ) {
        let mut w = keyed_world(24, 8);
        for qid in (0..24).step_by(2) {
            w.db_mut().insert("q", vec![Value::Int(qid), Value::Int(qid % 5)]).unwrap();
        }
        let mut vc = ViewCatalog::new();
        vc.register(w.views().get(view).unwrap().clone()).unwrap();
        let keyed = analyze_keyed(w.db(), &vc, view).unwrap().expect("keyed");
        let pred = match restrict {
            0 => None,
            1 => Some(Expr::Binary {
                op: BinOp::Eq,
                left: Box::new(Expr::ColumnRef("name".into())),
                right: Box::new(Expr::Literal(Value::text("b"))),
            }),
            _ => Some(Expr::Binary {
                op: BinOp::Ge,
                left: Box::new(Expr::ColumnRef("cid".into())),
                right: Box::new(Expr::Literal(Value::Int(10))),
            }),
        };
        let extension = |w: &mut World| {
            let query = ViewQuery { pred: pred.clone(), ..ViewQuery::default() };
            let mut rows = run_view_query(w.db_mut(), &vc, view, &query).unwrap().tuples;
            rows.sort_by_key(|t| int(&t.values[0]));
            rows
        };
        let mut c = BrowseCursor::keyed(w.db_mut(), keyed, n, pred.clone()).unwrap();
        let ext = extension(&mut w);
        let mut model = PageModel::open(&ext, n);
        let mut next_cid = 100;
        let none = ViewCatalog::new();
        for (i, step) in steps.iter().enumerate() {
            let ext = extension(&mut w);
            match step {
                Step::Next => {
                    let moved = c.next_page(w.db_mut(), &none).unwrap();
                    prop_assert_eq!(moved, model.next(&ext), "step {} {:?}", i, step);
                }
                Step::Prev => {
                    let moved = c.prev_page(w.db_mut(), &none).unwrap();
                    if let Some(want) = model.prev(&ext) {
                        prop_assert_eq!(moved, want, "step {} {:?}", i, step);
                    }
                }
                Step::Refresh => {
                    c.refresh(w.db_mut(), &none).unwrap();
                    model.refresh(&ext);
                }
                write_step => {
                    write(&mut w, write_step, &mut next_cid);
                    continue;
                }
            }
            let shown: Vec<Tuple> = c.page_rows().into_iter().map(|(_, t)| t).collect();
            prop_assert_eq!(&shown, &model.rows, "step {} {:?}", i, step);
            prop_assert_eq!(c.position().map(|p| p / n), (!shown.is_empty()).then_some(model.page_no));
            prop_assert!(c.page_rows().iter().all(|(rid, _)| rid.is_none()), "join rows carry no rid");
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
        .expect("keyed");
    let n = 16;
    let vc = ViewCatalog::new();
    let mut c = BrowseCursor::keyed(w.db_mut(), keyed, n, None).unwrap();
    for page in 1..300 {
        let before = w.db().counters();
        assert!(c.next_page(w.db_mut(), &vc).unwrap());
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
