//! Batch transactions: multiple through-window commits held under one set
//! of locks, atomically committable or abortable.

use wow_core::config::WorldConfig;
use wow_core::locks::LockMode;
use wow_core::world::World;
use wow_rel::value::Value;

fn world() -> World {
    let mut w = World::new(WorldConfig::default());
    w.db_mut()
        .run(
            r#"
            CREATE TABLE acct (id INT KEY, owner TEXT, balance INT)
            RANGE OF a IS acct
            APPEND TO acct (id = 1, owner = "alice", balance = 100)
            APPEND TO acct (id = 2, owner = "bob", balance = 100)
            "#,
        )
        .unwrap();
    w.define_view(
        "accts",
        "RANGE OF a IS acct RETRIEVE (a.id, a.owner, a.balance)",
    )
    .unwrap();
    w
}

fn balance(w: &mut World, id: i64) -> i64 {
    let rows = w
        .db_mut()
        .run(&format!("RETRIEVE (a.balance) WHERE a.id = {id}"))
        .unwrap();
    match rows.tuples[0].values[0] {
        Value::Int(b) => b,
        _ => panic!(),
    }
}

/// Move money via two window edits inside a batch.
fn transfer(w: &mut World, session: wow_core::SessionId, win: wow_core::WinId, amount: i64) {
    // Debit account 1 (cursor starts there).
    w.enter_edit(win).unwrap();
    let from = balance(w, 1);
    w.window_mut(win)
        .unwrap()
        .form
        .set_text(2, &(from - amount).to_string());
    w.commit(win).unwrap();
    let _ = session;
    // Credit account 2.
    w.browse_next(win).unwrap();
    w.enter_edit(win).unwrap();
    let to = balance(w, 2);
    w.window_mut(win)
        .unwrap()
        .form
        .set_text(2, &(to + amount).to_string());
    w.commit(win).unwrap();
}

#[test]
fn commit_batch_keeps_all_writes_and_releases_locks() {
    let mut w = world();
    let s = w.open_session();
    let win = w.open_window(s, "accts", None).unwrap();
    w.begin_batch(s).unwrap();
    transfer(&mut w, s, win, 30);
    // Mid-batch: the session holds X(acct); another session is blocked.
    let other = w.open_session();
    assert!(!w.try_lock(other, "acct", LockMode::Exclusive));
    w.commit_batch(s).unwrap();
    // Now the other session can lock.
    assert!(w.try_lock(other, "acct", LockMode::Exclusive));
    w.release_locks(other);
    assert_eq!(balance(&mut w, 1), 70);
    assert_eq!(balance(&mut w, 2), 130);
    // Invariant: money conserved.
    assert_eq!(balance(&mut w, 1) + balance(&mut w, 2), 200);
}

#[test]
fn abort_batch_rolls_back_everything() {
    let mut w = world();
    let s = w.open_session();
    let win = w.open_window(s, "accts", None).unwrap();
    w.begin_batch(s).unwrap();
    transfer(&mut w, s, win, 45);
    assert_eq!(balance(&mut w, 1), 55, "writes visible inside the batch");
    let undone = w.abort_batch(s).unwrap();
    assert_eq!(undone, 2);
    assert_eq!(balance(&mut w, 1), 100);
    assert_eq!(balance(&mut w, 2), 100);
    // Locks released; windows refreshed to the rolled-back state.
    let other = w.open_session();
    assert!(w.try_lock(other, "acct", LockMode::Exclusive));
    w.release_locks(other);
    let row = w.current_row(win).unwrap().unwrap();
    assert_eq!(row.values[2], Value::Int(100));
}

#[test]
fn abort_rolls_back_a_batch_longer_than_the_undo_depth() {
    let mut w = World::new(WorldConfig {
        undo_depth: 4,
        ..WorldConfig::default()
    });
    w.db_mut()
        .run(
            r#"CREATE TABLE acct (id INT KEY, owner TEXT, balance INT)
               RANGE OF a IS acct
               APPEND TO acct (id = 1, owner = "alice", balance = 100)"#,
        )
        .unwrap();
    w.define_view(
        "accts",
        "RANGE OF a IS acct RETRIEVE (a.id, a.owner, a.balance)",
    )
    .unwrap();
    let s = w.open_session();
    let win = w.open_window(s, "accts", None).unwrap();
    w.begin_batch(s).unwrap();
    for balance in 101..=106 {
        w.enter_edit(win).unwrap();
        w.window_mut(win)
            .unwrap()
            .form
            .set_text(2, &balance.to_string());
        w.commit(win).unwrap();
    }
    assert_eq!(w.abort_batch(s).unwrap(), 6, "every write is rolled back");
    assert_eq!(balance(&mut w, 1), 100);
    assert_eq!(
        w.current_row(win).unwrap().unwrap().values[2],
        Value::Int(100)
    );
    // The aborted writes are gone from the history too.
    assert!(w.undo_last(s).is_err());
    assert_eq!(balance(&mut w, 1), 100);
}

#[test]
fn batch_with_insert_and_delete_aborts_cleanly() {
    let mut w = world();
    let s = w.open_session();
    let win = w.open_window(s, "accts", None).unwrap();
    w.begin_batch(s).unwrap();
    // Insert a new account.
    w.enter_insert(win).unwrap();
    {
        let f = &mut w.window_mut(win).unwrap().form;
        f.set_text(0, "3");
        f.set_text(1, "carol");
        f.set_text(2, "500");
    }
    w.commit(win).unwrap();
    // Delete bob (cursor may have moved; find bob).
    while w.current_row(win).unwrap().unwrap().values[1] != Value::text("bob") {
        assert!(w.browse_next(win).unwrap());
    }
    w.delete_current(win).unwrap();
    let n = w.db_mut().run("RETRIEVE (n = COUNT(a.id))").unwrap();
    assert_eq!(n.tuples[0].values[0], Value::Int(2), "alice + carol");
    let undone = w.abort_batch(s).unwrap();
    assert_eq!(undone, 2);
    let rows = w
        .db_mut()
        .run("RETRIEVE (a.owner) SORT BY a.owner")
        .unwrap();
    let owners: Vec<String> = rows
        .tuples
        .iter()
        .map(|t| t.values[0].to_string())
        .collect();
    assert_eq!(owners, vec!["alice", "bob"], "carol gone, bob restored");
}

#[test]
fn failed_abort_undoes_the_rest_and_releases_locks() {
    let mut w = world();
    let s = w.open_session();
    let win = w.open_window(s, "accts", None).unwrap();
    let watching = w.open_session();
    let watcher = w.open_window(watching, "accts", None).unwrap();
    w.begin_batch(s).unwrap();
    w.enter_edit(win).unwrap();
    w.window_mut(win).unwrap().form.set_text(2, "55");
    w.commit(win).unwrap();
    w.browse_next(win).unwrap();
    w.delete_current(win).unwrap();
    // A write the batch does not record (its session's own, from outside
    // any window) takes bob's key, so the abort cannot re-insert him.
    let eve = vec![Value::Int(2), Value::text("eve"), Value::Int(1)];
    w.apply_insert(s, "acct", eve).unwrap();
    let before = w.stats.snapshot();
    let err = w.abort_batch(s).unwrap_err();
    assert!(err.to_string().contains("pk_acct"), "{err}");
    // Alice's edit is still undone, and by delta.
    assert_eq!(balance(&mut w, 1), 100);
    let done = w.stats.since(&before);
    assert_eq!(done.full_refreshes, 0);
    assert!(done.delta_refreshes >= 1);
    assert_eq!(
        w.window(watcher).unwrap().last_refresh,
        wow_core::RefreshKind::Delta
    );
    assert_eq!(
        w.current_row(watcher).unwrap().unwrap().values[2],
        Value::Int(100)
    );
    // The session's locks are gone.
    let other = w.open_session();
    assert!(w.try_lock(other, "acct", LockMode::Exclusive));
    w.release_locks(other);
}

#[test]
fn batch_misuse_errors() {
    let mut w = world();
    let s = w.open_session();
    assert!(w.commit_batch(s).is_err());
    assert!(w.abort_batch(s).is_err());
    w.begin_batch(s).unwrap();
    assert!(w.begin_batch(s).is_err());
    w.commit_batch(s).unwrap();
    // Empty batch aborts fine too.
    w.begin_batch(s).unwrap();
    assert_eq!(w.abort_batch(s).unwrap(), 0);
}

#[test]
fn two_batches_conflict_then_serialize() {
    let mut w = world();
    let s1 = w.open_session();
    let s2 = w.open_session();
    let w1 = w.open_window(s1, "accts", None).unwrap();
    let w2 = w.open_window(s2, "accts", None).unwrap();
    w.begin_batch(s1).unwrap();
    w.enter_edit(w1).unwrap();
    w.window_mut(w1).unwrap().form.set_text(2, "111");
    w.commit(w1).unwrap();
    // Session 2's edit is denied while the batch holds the table.
    w.begin_batch(s2).unwrap();
    w.enter_edit(w2).unwrap();
    w.window_mut(w2).unwrap().form.set_text(2, "222");
    let err = w.commit(w2).unwrap_err();
    assert!(err.to_string().contains("locked by session"));
    w.cancel_mode(w2).unwrap();
    // Batch 1 commits; batch 2 retries and succeeds.
    w.commit_batch(s1).unwrap();
    w.refresh_window(w2).unwrap();
    w.enter_edit(w2).unwrap();
    w.window_mut(w2).unwrap().form.set_text(2, "222");
    w.commit(w2).unwrap();
    w.commit_batch(s2).unwrap();
    assert_eq!(balance(&mut w, 1), 222);
}

#[test]
fn an_outside_write_waits_for_the_batch_lock() {
    let mut w = world();
    let a = w.open_session();
    let b = w.open_session();
    let win = w.open_window(a, "accts", None).unwrap();
    w.begin_batch(a).unwrap();
    w.enter_edit(win).unwrap();
    w.window_mut(win).unwrap().form.set_text(2, "130");
    w.commit(win).unwrap();
    // Session B writes alice from outside any window: refused, because A's
    // batch holds the table's exclusive lock.
    let rid = w
        .window(win)
        .unwrap()
        .cursor
        .current_row()
        .unwrap()
        .0
        .unwrap();
    let alice = vec![Value::Int(1), Value::text("alice"), Value::Int(999)];
    let err = w.apply_update(b, "acct", rid, alice).unwrap_err();
    assert!(
        matches!(err, wow_core::WowError::LockConflict { blocker, .. } if blocker == a.0),
        "{err:?}"
    );
    assert_eq!(balance(&mut w, 1), 130, "the refused write changed nothing");
    assert_eq!(w.abort_batch(a).unwrap(), 1);
    // No acknowledged write was lost: only the batch's own was undone.
    assert_eq!(balance(&mut w, 1), 100);
    // Once the batch is over, B's write goes through.
    let alice = vec![Value::Int(1), Value::text("alice"), Value::Int(999)];
    assert!(w.apply_update(b, "acct", rid, alice).unwrap());
    assert_eq!(balance(&mut w, 1), 999);
}
