//! Browse-cursor behaviour under the microscope: paging, filtering,
//! refresh under concurrent mutation, and strategy equivalence.

use wow_core::browse::BrowseCursor;
use wow_core::config::WorldConfig;
use wow_core::window_mgr::WindowStyle;
use wow_core::world::{CursorStrategy, World};
use wow_rel::expr::{BinOp, Expr};
use wow_rel::quel::ast::SortKey;
use wow_rel::value::Value;
use wow_views::expand::ViewQuery;
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
