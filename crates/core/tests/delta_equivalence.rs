//! Delta-propagation equivalence: a browse cursor maintained by pushing
//! typed write deltas through the view algebra must show exactly the same
//! screenful — same rows, same rids, same order — as one maintained by
//! re-running its query after every write.
//!
//! Two worlds receive identical random write sequences; one has
//! `delta_propagation` on (cursors are patched in place), the other off
//! (every dependent window re-queries). Writes come from outside any window
//! (`apply_*`), through the windows themselves (edit, insert, delete) and
//! from undo. After every single write, every window's page, current row,
//! position and slot must agree across the worlds — the writer's own
//! window included.

use proptest::prelude::*;
use wow_core::browse::BrowseRow;
use wow_core::config::WorldConfig;
use wow_core::window_mgr::{WinId, WindowStyle};
use wow_core::world::{CursorStrategy, World};
use wow_rel::value::Value;
use wow_storage::Rid;

/// One random write against the base tables.
#[derive(Debug, Clone)]
enum Op {
    /// Insert into `ta` (id assigned by a monotone counter).
    Insert { x: i64, tag: String },
    /// Overwrite the non-key columns of a live `ta` row.
    Update { idx: usize, x: i64, tag: String },
    /// Delete a live `ta` row.
    Delete { idx: usize },
    /// Insert into `tb`, referencing a live `ta` row (or a dangling id).
    InsertB { idx: usize, q: i64, dangle: bool },
    /// Delete a live `tb` row.
    DeleteB { idx: usize },
    /// Move window `win` down `steps` rows, then edit its current row's
    /// `x` and `tag` (where the view shows them) and commit.
    WinEdit {
        win: usize,
        steps: usize,
        x: i64,
        tag: String,
    },
    /// Insert a `ta` row through window `win` (refused by the check option
    /// when the view cannot show it).
    WinInsert { win: usize, x: i64, tag: String },
    /// Move window `win` down `steps` rows, then delete its current row.
    WinDelete { win: usize, steps: usize },
    /// Undo the session's most recent through-window write.
    Undo,
}

fn tag_strategy() -> impl Strategy<Value = String> {
    prop_oneof![Just("red"), Just("blue"), Just("green")].prop_map(|s| s.to_string())
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((-2i64..8), tag_strategy()).prop_map(|(x, tag)| Op::Insert { x, tag }),
        ((0usize..16), (-2i64..8), tag_strategy()).prop_map(|(idx, x, tag)| Op::Update {
            idx,
            x,
            tag
        }),
        (0usize..16).prop_map(|idx| Op::Delete { idx }),
        ((0usize..16), (0i64..100), any::<bool>()).prop_map(|(idx, q, dangle)| Op::InsertB {
            idx,
            q,
            dangle
        }),
        (0usize..16).prop_map(|idx| Op::DeleteB { idx }),
        ((0usize..WRITERS), (0usize..4), (-2i64..8), tag_strategy())
            .prop_map(|(win, steps, x, tag)| Op::WinEdit { win, steps, x, tag }),
        ((0usize..WRITERS), (-2i64..8), tag_strategy()).prop_map(|(win, x, tag)| Op::WinInsert {
            win,
            x,
            tag
        }),
        ((0usize..WRITERS), (0usize..4)).prop_map(|(win, steps)| Op::WinDelete { win, steps }),
        Just(Op::Undo),
    ]
}

/// The single-table windows every world opens first; writes go through
/// them.
const WRITERS: usize = 3;

/// Live-row bookkeeping shared by both worlds. The rids returned by the two
/// worlds must stay identical (same storage, same op order), which we assert
/// as we go — it is what makes a single list valid for both.
struct Live {
    /// (id, rid) of live `ta` rows.
    a: Vec<(i64, Rid)>,
    /// rids of live `tb` rows.
    b: Vec<Rid>,
    next_id: i64,
    next_b_id: i64,
}

fn build_world(delta_on: bool, rows: &[(i64, String)], with_join: bool) -> (World, Vec<WinId>) {
    let mut w = World::new(WorldConfig {
        delta_propagation: delta_on,
        page_size: 5,
        ..WorldConfig::default()
    });
    w.db_mut()
        .run(
            "CREATE TABLE ta (id INT KEY, x INT, tag TEXT)
             CREATE TABLE tb (id INT KEY, aid INT, q INT)
             CREATE INDEX tb_aid ON tb (aid) USING HASH
             RANGE OF a IS ta
             RANGE OF b IS tb",
        )
        .unwrap();
    for (i, (x, tag)) in rows.iter().enumerate() {
        w.db_mut()
            .insert(
                "ta",
                vec![
                    Value::Int(i as i64),
                    Value::Int(*x),
                    Value::text(tag.clone()),
                ],
            )
            .unwrap();
    }
    w.define_view("va", "RANGE OF a IS ta RETRIEVE (a.id, a.x, a.tag)")
        .unwrap();
    w.define_view(
        "va_sel",
        "RANGE OF a IS ta RETRIEVE (a.id, a.tag) WHERE a.x >= 3",
    )
    .unwrap();
    w.define_view(
        "detail",
        "RANGE OF a IS ta RANGE OF b IS tb RETRIEVE (a.tag, b.q) WHERE a.id = b.aid",
    )
    .unwrap();
    let s = w.open_session();
    // An indexed cursor over a selection view, a forced-materialized and an
    // indexed cursor over the whole table; the join watcher streams.
    let mut wins = vec![
        w.open_window(s, "va_sel", None).unwrap(),
        w.open_window_using(
            s,
            "va",
            None,
            WindowStyle::Form,
            CursorStrategy::Materialized,
        )
        .unwrap(),
        w.open_window(s, "va", None).unwrap(),
    ];
    if with_join {
        wins.push(w.open_window(s, "detail", None).unwrap());
    }
    (w, wins)
}

/// Apply one op to both worlds, keeping the shared live lists in sync.
/// Returns false if the op degenerated to a no-op (empty live list).
fn apply(
    wd: &mut World,
    wf: &mut World,
    wins_d: &[WinId],
    wins_f: &[WinId],
    live: &mut Live,
    op: &Op,
) -> bool {
    match op {
        Op::WinEdit { .. } | Op::WinInsert { .. } | Op::WinDelete { .. } | Op::Undo => {
            let id = live.next_id;
            live.next_id += 1;
            let done_d = through_window(wd, wins_d, op, id);
            let done_f = through_window(wf, wins_f, op, id);
            assert_eq!(
                done_d, done_f,
                "worlds disagree on whether {op:?} committed"
            );
            // Window writes move rows around (undo re-inserts at fresh
            // rids): re-read the live list, which must match across worlds.
            live.a = ta_rids(wd);
            assert_eq!(live.a, ta_rids(wf), "worlds assign different rids");
            // Compare the windows even after a refused write: the cursor
            // moves and the return to Browse happened either way.
            true
        }
        Op::Insert { x, tag } => {
            let id = live.next_id;
            live.next_id += 1;
            let row = vec![Value::Int(id), Value::Int(*x), Value::text(tag.clone())];
            let ra = wd.apply_insert("ta", row.clone()).unwrap();
            let rb = wf.apply_insert("ta", row).unwrap();
            assert_eq!(ra, rb, "worlds assign different rids");
            live.a.push((id, ra));
            true
        }
        Op::Update { idx, x, tag } => {
            if live.a.is_empty() {
                return false;
            }
            let (id, rid) = live.a[idx % live.a.len()];
            let row = vec![Value::Int(id), Value::Int(*x), Value::text(tag.clone())];
            assert!(wd.apply_update("ta", rid, row.clone()).unwrap());
            assert!(wf.apply_update("ta", rid, row).unwrap());
            true
        }
        Op::Delete { idx } => {
            if live.a.is_empty() {
                return false;
            }
            let (_, rid) = live.a.remove(idx % live.a.len());
            assert!(wd.apply_delete("ta", rid).unwrap());
            assert!(wf.apply_delete("ta", rid).unwrap());
            true
        }
        Op::InsertB { idx, q, dangle } => {
            let aid = if *dangle || live.a.is_empty() {
                -1 // references no ta row: the join delta is provably empty
            } else {
                live.a[idx % live.a.len()].0
            };
            let id = live.next_b_id;
            live.next_b_id += 1;
            let row = vec![Value::Int(id), Value::Int(aid), Value::Int(*q)];
            let ra = wd.apply_insert("tb", row.clone()).unwrap();
            let rb = wf.apply_insert("tb", row).unwrap();
            assert_eq!(ra, rb, "worlds assign different rids");
            live.b.push(ra);
            true
        }
        Op::DeleteB { idx } => {
            if live.b.is_empty() {
                return false;
            }
            let rid = live.b.remove(idx % live.b.len());
            assert!(wd.apply_delete("tb", rid).unwrap());
            assert!(wf.apply_delete("tb", rid).unwrap());
            true
        }
    }
}

/// Run a through-window op (or an undo) on one world; `id` keys an insert.
/// Returns whether it committed. A refused write leaves its window back in
/// Browse mode.
fn through_window(w: &mut World, wins: &[WinId], op: &Op, id: i64) -> bool {
    let (win, steps, key) = match op {
        Op::WinEdit { win, steps, .. } => (wins[*win], *steps, None),
        Op::WinInsert { win, .. } => (wins[*win], 0, Some(id)),
        Op::WinDelete { win, steps } => (wins[*win], *steps, None),
        _ => {
            let session = w.window(wins[0]).unwrap().session;
            return w.undo_last(session).is_ok();
        }
    };
    for _ in 0..steps {
        w.browse_next(win).unwrap();
    }
    let (x, tag) = match op {
        Op::WinEdit { x, tag, .. } => {
            if w.enter_edit(win).is_err() {
                return false; // an empty window has no row to edit
            }
            (x, tag)
        }
        Op::WinInsert { x, tag, .. } => {
            w.enter_insert(win).unwrap();
            (x, tag)
        }
        _ => return w.delete_current(win).is_ok(),
    };
    let names: Vec<String> = w
        .window(win)
        .unwrap()
        .schema
        .columns
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let form = &mut w.window_mut(win).unwrap().form;
    for (i, name) in names.iter().enumerate() {
        match (name.as_str(), key) {
            ("id", Some(key)) => form.set_text(i, &key.to_string()),
            ("x", _) => form.set_text(i, &x.to_string()),
            ("tag", _) => form.set_text(i, tag),
            _ => {}
        }
    }
    let committed = w.commit(win).is_ok();
    if !committed {
        w.cancel_mode(win).unwrap();
    }
    committed
}

/// What a window shows: its page, current row, position and slot.
fn shown(w: &World, win: WinId) -> (Vec<BrowseRow>, Option<BrowseRow>, Option<usize>, usize) {
    let c = &w.window(win).unwrap().cursor;
    (
        c.page_rows(),
        c.current_row(),
        c.position(),
        c.pos_in_page(),
    )
}

/// (id, rid) pairs of the initial `ta` rows, in insertion order.
fn ta_rids(w: &mut World) -> Vec<(i64, Rid)> {
    let id = w.db_mut().catalog().table("ta").unwrap().id;
    w.db_mut()
        .scan_table_raw(id)
        .unwrap()
        .into_iter()
        .map(|(rid, t)| match t.values[0] {
            Value::Int(i) => (i, rid),
            _ => unreachable!(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]
    #[test]
    fn delta_patched_pages_match_requeried_pages(
        rows in proptest::collection::vec(((-2i64..8), tag_strategy()), 0..14),
        ops in proptest::collection::vec(op_strategy(), 1..12),
        page_forward in any::<bool>(),
        steps in 0usize..5,
    ) {
        let (mut wd, wins_d) = build_world(true, &rows, false);
        let (mut wf, wins_f) = build_world(false, &rows, false);
        for (a, b) in wins_d.iter().zip(&wins_f) {
            if page_forward {
                wd.browse_next_page(*a).unwrap();
                wf.browse_next_page(*b).unwrap();
            }
            for _ in 0..steps {
                wd.browse_next(*a).unwrap();
                wf.browse_next(*b).unwrap();
            }
        }
        let mut live = Live {
            a: ta_rids(&mut wd),
            b: Vec::new(),
            next_id: rows.len() as i64,
            next_b_id: 0,
        };
        for op in &ops {
            if !apply(&mut wd, &mut wf, &wins_d, &wins_f, &mut live, op) {
                continue;
            }
            for (a, b) in wins_d.iter().zip(&wins_f) {
                let (page, current, _, pos_in_page) = shown(&wd, *a);
                prop_assert_eq!(
                    shown(&wd, *a),
                    shown(&wf, *b),
                    "windows diverged after {:?}", op
                );
                // The patched cursor must still sit on a row of its page.
                prop_assert_eq!(current.as_ref(), page.get(pos_in_page));
                prop_assert_eq!(current.is_some(), !page.is_empty());
            }
        }
        // Single-table watchers are deltable by construction: the patched
        // world must never have fallen back to a re-query.
        prop_assert_eq!(wd.stats.full_refreshes, 0);
        prop_assert_eq!(wf.stats.delta_refreshes, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]
    #[test]
    fn join_watchers_stay_consistent(
        rows in proptest::collection::vec(((-2i64..8), tag_strategy()), 0..10),
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        let (mut wd, wins_d) = build_world(true, &rows, true);
        let (mut wf, wins_f) = build_world(false, &rows, true);
        let mut live = Live {
            a: ta_rids(&mut wd),
            b: Vec::new(),
            next_id: rows.len() as i64,
            next_b_id: 0,
        };
        for op in &ops {
            if !apply(&mut wd, &mut wf, &wins_d, &wins_f, &mut live, op) {
                continue;
            }
            for (a, b) in wins_d.iter().zip(&wins_f) {
                prop_assert_eq!(
                    shown(&wd, *a),
                    shown(&wf, *b),
                    "windows diverged after {:?}", op
                );
            }
        }
        prop_assert_eq!(wf.stats.delta_refreshes, 0);
    }
}
