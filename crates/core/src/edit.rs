//! Editing through the window: the update path of the paper.
//!
//! The protocol for every write is the same five steps:
//!
//! 1. take an exclusive lock on the base relation,
//! 2. translate the form edit into one base write through the view and
//!    perform it, which yields the [`BaseDelta`] the write made,
//! 3. release the lock (strict 2PL, transaction = one commit; a batch
//!    holds it until the batch ends),
//! 4. record the delta on the session's undo stack (undo writes its
//!    inverse), and
//! 5. **propagate** the delta: every window whose view overlaps catches
//!    up, the writer's own window included.

use crate::error::{WowError, WowResult};
use crate::locks::LockMode;
use crate::session::SessionId;
use crate::window_mgr::{Mode, WinId, WindowState};
use crate::world::World;
use wow_rel::db::Database;
use wow_rel::delta::BaseDelta;
use wow_rel::value::Value;
use wow_storage::Rid;
use wow_views::translate::{insert_through_view, update_through_view};
use wow_views::updatable::Updatability;

/// One base write as [`World::write_base`] takes it: the rid to overwrite
/// or delete (none for an insert) and the row to write (none for a delete).
type BaseWrite = (Option<Rid>, Option<Vec<Value>>);

impl World {
    /// Enter Edit mode on the current row.
    pub fn enter_edit(&mut self, win: WinId) -> WowResult<()> {
        let w = self.writable_window(win, "edit")?;
        let Some((_, tuple)) = w.cursor.current_row() else {
            return Err(WowError::NoCurrentRow);
        };
        w.original = Some(tuple.values.clone());
        w.form.fill(&tuple.values);
        w.mode = Mode::Edit;
        w.status.clear();
        Ok(())
    }

    /// Enter Insert mode with a blank form.
    pub fn enter_insert(&mut self, win: WinId) -> WowResult<()> {
        let w = self.writable_window(win, "insert")?;
        w.form.clear();
        w.original = None;
        w.mode = Mode::Insert;
        w.status.clear();
        Ok(())
    }

    /// The window, provided it browses an updatable view: where every
    /// write through a window starts.
    fn writable_window(&mut self, win: WinId, wanted: &'static str) -> WowResult<&mut WindowState> {
        let w = self.window_mut(win)?;
        if !matches!(w.mode, Mode::Browse) {
            return Err(WowError::WrongMode {
                wanted,
                mode: w.mode.name(),
            });
        }
        if w.upd.is_none() {
            return Err(WowError::ReadOnly {
                view: w.view.clone(),
                reasons: w.read_only_reasons.clone(),
            });
        }
        Ok(w)
    }

    /// Leave Edit/Insert/Query mode without committing. A window that went
    /// stale while the user was typing catches up the moment it returns to
    /// Browse — no manual refresh required.
    pub fn cancel_mode(&mut self, win: WinId) -> WowResult<()> {
        let stale = {
            let w = self.window_mut(win)?;
            w.mode = Mode::Browse;
            w.original = None;
            w.status.clear();
            w.show_current();
            w.stale
        };
        if stale {
            self.refresh_window(win)?;
            self.stats.full_refreshes += 1;
        }
        Ok(())
    }

    /// Commit whatever the window's mode has pending (Enter key).
    pub fn commit(&mut self, win: WinId) -> WowResult<()> {
        match self.window(win)?.mode {
            Mode::Edit => self.commit_edit(win),
            Mode::Insert => self.commit_insert(win),
            Mode::Query => self.apply_query(win),
            Mode::Browse => Ok(()), // Enter in browse is a no-op
        }
    }

    /// Commit an edit: write the dirty fields through the view.
    pub fn commit_edit(&mut self, win: WinId) -> WowResult<()> {
        let w = self.window(win)?;
        if !matches!(w.mode, Mode::Edit) {
            return Err(WowError::WrongMode {
                wanted: "commit an edit",
                mode: w.mode.name(),
            });
        }
        let Some((Some(rid), _)) = w.cursor.current_row() else {
            return Err(WowError::NoCurrentRow);
        };
        // Validate the form and compute the dirty assignment set.
        let values = w.form.values()?;
        let dirty = w
            .form
            .dirty_fields(w.original.as_deref().unwrap_or_default());
        if dirty.is_empty() {
            self.cancel_mode(win)?;
            self.set_status(win, "no changes");
            return Ok(());
        }
        let assigns: Vec<(usize, Value)> = dirty.iter().map(|&i| (i, values[i].clone())).collect();
        let mut span = wow_obs::span(wow_obs::Op::Commit);
        span.arg(assigns.len() as u64);
        let check = self.config().check_option;
        self.write_through(win, "saved", |db, upd| {
            let row = update_through_view(db, upd, rid, &assigns, check)?;
            Ok((Some(rid), Some(row.ok_or(WowError::NoCurrentRow)?)))
        })?;
        span.finish();
        Ok(())
    }

    /// Commit an insert: the blank form becomes a new row.
    pub fn commit_insert(&mut self, win: WinId) -> WowResult<()> {
        let w = self.window(win)?;
        if !matches!(w.mode, Mode::Insert) {
            return Err(WowError::WrongMode {
                wanted: "commit an insert",
                mode: w.mode.name(),
            });
        }
        let values = w.form.values()?;
        let span = wow_obs::span(wow_obs::Op::Commit);
        let check = self.config().check_option;
        self.write_through(win, "inserted", |db, upd| {
            Ok((None, Some(insert_through_view(db, upd, &values, check)?)))
        })?;
        span.finish();
        Ok(())
    }

    /// Delete the current row (Browse mode).
    pub fn delete_current(&mut self, win: WinId) -> WowResult<()> {
        let w = self.writable_window(win, "delete")?;
        let Some((Some(rid), _)) = w.cursor.current_row() else {
            return Err(WowError::NoCurrentRow);
        };
        let span = wow_obs::span(wow_obs::Op::Commit);
        self.write_through(win, "deleted", |_, _| Ok((Some(rid), None)))?;
        span.finish();
        Ok(())
    }

    /// Steps 1–5 for one write through `win`'s view: lock the base table,
    /// `translate` the form into a base write and perform it, release the
    /// lock, record the write's delta for undo, and — with the window back
    /// in Browse mode — propagate the delta to every window, this one too.
    fn write_through(
        &mut self,
        win: WinId,
        status: &str,
        translate: impl FnOnce(&mut Database, &Updatability) -> WowResult<BaseWrite>,
    ) -> WowResult<()> {
        let (session, table) = {
            let w = self.window(win)?;
            let upd = w.upd.as_ref().expect("writes need an updatable view");
            (w.session, upd.base_table.clone())
        };
        self.lock(session, &table, LockMode::Exclusive)?;
        let result = self
            .parts(win)
            .and_then(|(db, _, w)| translate(db, w.upd.as_ref().expect("checked above")))
            .and_then(|(rid, row)| self.write_base(&table, rid, row));
        self.maybe_release(session);
        let delta = result?;
        if delta.is_empty() {
            // The row went away under the window.
            return Err(WowError::NoCurrentRow);
        }
        self.stats.commits += 1;
        let s = self.session_mut(session)?;
        s.commits += 1;
        s.undo.push(delta.clone());
        {
            let w = self.window_mut(win)?;
            w.mode = Mode::Browse;
            w.original = None;
            w.status = status.into();
            w.show_current();
        }
        self.propagate_delta(&delta)?;
        Ok(())
    }

    /// Perform one base write and return the delta it made: insert `row`
    /// (no `rid`), overwrite `rid` with `row`, or delete `rid` (no `row`).
    /// A `rid` that is already gone gives an empty delta. Every write the
    /// world makes to a base table — through a window, by `apply_*`, or
    /// undoing either — comes through here.
    pub(crate) fn write_base(
        &mut self,
        table: &str,
        rid: Option<Rid>,
        row: Option<Vec<Value>>,
    ) -> WowResult<BaseDelta> {
        let db = self.db_mut();
        let id = db.catalog().table(table)?.id;
        let mut delta = BaseDelta::new(table);
        // The stored image is read back: it is the validated row.
        let Some(rid) = rid else {
            if let Some(row) = row {
                let rid = db.insert(table, row)?;
                let new = db
                    .get_row(id, rid)?
                    .expect("a row just written is readable");
                delta.inserted.push((rid, new));
            }
            return Ok(delta);
        };
        let Some(old) = db.get_row(id, rid)? else {
            return Ok(delta);
        };
        match row {
            Some(row) => {
                db.update_rid(table, rid, row)?;
                let new = db
                    .get_row(id, rid)?
                    .expect("a row just written is readable");
                delta.updated.push((rid, old, new));
            }
            None => {
                db.delete_rid(table, rid)?;
                delta.deleted.push((rid, old));
            }
        }
        Ok(delta)
    }

    /// Write the inverse of a recorded write through [`World::write_base`]:
    /// an insert is deleted by rid, a delete re-inserts the old image, an
    /// update writes the old image back.
    fn write_inverse(&mut self, done: &BaseDelta) -> WowResult<BaseDelta> {
        let (rid, row) = match (
            done.inserted.first(),
            done.deleted.first(),
            done.updated.first(),
        ) {
            (Some((rid, _)), _, _) => (Some(*rid), None),
            (_, Some((_, old)), _) => (None, Some(old.values.clone())),
            (_, _, Some((rid, old, _))) => (Some(*rid), Some(old.values.clone())),
            _ => (None, None),
        };
        self.write_base(&done.table, rid, row)
    }

    /// Undo the session's most recent write.
    pub fn undo_last(&mut self, session: SessionId) -> WowResult<()> {
        let done = self
            .session_mut(session)?
            .undo
            .pop()
            .ok_or(WowError::NothingToUndo)?;
        self.lock(session, &done.table, LockMode::Exclusive)?;
        let result = self.write_inverse(&done);
        self.maybe_release(session);
        self.propagate_delta(&result?)?;
        Ok(())
    }

    // -- Batch transactions ---------------------------------------------------
    //
    // A batch groups several through-window commits into one atomic unit:
    // locks taken by each commit are *held* until the batch ends (strict
    // 2PL over the whole batch), and `abort_batch` rolls every write back.

    /// Begin a batch transaction for a session.
    pub fn begin_batch(&mut self, session: SessionId) -> WowResult<()> {
        if !self.session_mut(session)?.undo.begin_batch() {
            return Err(WowError::Rel(wow_rel::RelError::Txn(
                "batch already open for this session",
            )));
        }
        Ok(())
    }

    /// Commit a batch: keep every write, release the session's locks.
    pub fn commit_batch(&mut self, session: SessionId) -> WowResult<()> {
        if !self.session_mut(session)?.undo.commit_batch() {
            return Err(WowError::Rel(wow_rel::RelError::Txn("no open batch")));
        }
        self.release_locks(session);
        Ok(())
    }

    /// Abort a batch: undo every write made since `begin_batch`, newest
    /// first, propagate each inverse write's delta, release the session's
    /// locks. Returns the number of writes rolled back.
    ///
    /// The session still holds its batch locks, so no other session's
    /// commit can block an inverse write — but a write that bypasses the
    /// lock manager (raw QUEL, `apply_*`) can still make one fail, say by
    /// taking a deleted row's key. Every other write is undone regardless,
    /// the locks are always released, and the first failure is returned.
    pub fn abort_batch(&mut self, session: SessionId) -> WowResult<u64> {
        let batch = self
            .session_mut(session)?
            .undo
            .take_batch()
            .ok_or(WowError::Rel(wow_rel::RelError::Txn("no open batch")))?;
        let mut first_err = None;
        let mut undone = 0;
        for done in batch.iter().rev() {
            let failure = match self.write_inverse(done) {
                Ok(delta) => {
                    undone += 1;
                    self.propagate_delta(&delta).err()
                }
                Err(e) => Some(e),
            };
            first_err = first_err.or(failure);
        }
        self.release_locks(session);
        first_err.map_or(Ok(undone), Err)
    }

    /// Release the session's locks unless it is inside a batch (strict 2PL
    /// holds them until the batch ends).
    fn maybe_release(&mut self, session: SessionId) {
        let in_batch = self.session_mut(session).is_ok_and(|s| s.undo.in_batch());
        if !in_batch {
            self.release_locks(session);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use wow_tui::event::parse_script;

    fn world() -> (World, SessionId, WinId) {
        let mut w = World::new(WorldConfig::default());
        w.db_mut()
            .run("CREATE TABLE emp (name TEXT KEY, dept TEXT, salary INT) RANGE OF e IS emp")
            .unwrap();
        for (n, d, s) in [("alice", "toy", 120), ("bob", "shoe", 90)] {
            w.db_mut()
                .run(&format!(
                    r#"APPEND TO emp (name = "{n}", dept = "{d}", salary = {s})"#
                ))
                .unwrap();
        }
        w.define_view(
            "emps",
            "RANGE OF e IS emp RETRIEVE (e.name, e.dept, e.salary)",
        )
        .unwrap();
        let s = w.open_session();
        let win = w.open_window(s, "emps", None).unwrap();
        (w, s, win)
    }

    fn send(w: &mut World, script: &str) {
        for k in parse_script(script) {
            w.handle_key(k).unwrap();
        }
    }

    #[test]
    fn edit_commit_through_keys() {
        let (mut w, _, win) = world();
        // 'e' enters edit on alice; tab to salary (dept writable too: name,
        // dept, salary all writable) — focus starts at name.
        send(
            &mut w,
            "e<tab><tab><end><backspace><backspace><backspace>200<enter>",
        );
        let row = w.current_row(win).unwrap().unwrap();
        assert_eq!(row.values[2].to_string(), "200");
        // The base table saw it.
        let rows = w
            .db_mut()
            .run(r#"RANGE OF e IS emp RETRIEVE (e.salary) WHERE e.name = "alice""#)
            .unwrap();
        assert_eq!(rows.tuples[0].values[0].to_string(), "200");
        assert_eq!(w.stats.commits, 1);
    }

    #[test]
    fn edit_requires_a_row_and_updatability() {
        let (mut w, s, _) = world();
        w.define_view(
            "totals",
            "RANGE OF e IS emp RETRIEVE (e.dept, t = SUM(e.salary)) GROUP BY e.dept",
        )
        .unwrap();
        let ro = w.open_window(s, "totals", None).unwrap();
        assert!(matches!(w.enter_edit(ro), Err(WowError::ReadOnly { .. })));
        assert!(!w.window(ro).unwrap().is_updatable());
    }

    #[test]
    fn insert_commit_and_undo() {
        let (mut w, s, win) = world();
        w.enter_insert(win).unwrap();
        {
            let form = &mut w.window_mut(win).unwrap().form;
            form.set_text(0, "carol");
            form.set_text(1, "toy");
            form.set_text(2, "150");
        }
        w.commit(win).unwrap();
        let rows = w
            .db_mut()
            .run("RANGE OF e IS emp RETRIEVE (n = COUNT(e.name))")
            .unwrap();
        assert_eq!(rows.tuples[0].values[0].to_string(), "3");
        // Undo removes it again.
        w.undo_last(s).unwrap();
        let rows = w.db_mut().run("RETRIEVE (n = COUNT(e.name))").unwrap();
        assert_eq!(rows.tuples[0].values[0].to_string(), "2");
        assert!(matches!(w.undo_last(s), Err(WowError::NothingToUndo)));
    }

    #[test]
    fn delete_and_undo_restores_row() {
        let (mut w, s, win) = world();
        w.delete_current(win).unwrap(); // deletes alice
        let row = w.current_row(win).unwrap().unwrap();
        assert_eq!(row.values[0].to_string(), "bob");
        w.undo_last(s).unwrap();
        w.refresh_window(win).unwrap();
        let names = {
            let rows = w.db_mut().run("RETRIEVE (e.name) SORT BY e.name").unwrap();
            rows.tuples.len()
        };
        assert_eq!(names, 2);
    }

    #[test]
    fn validation_failure_keeps_edit_mode() {
        let (mut w, _, win) = world();
        w.enter_edit(win).unwrap();
        w.window_mut(win).unwrap().form.set_text(2, "not-a-number");
        // Enter attempts the commit; the error lands in the status line.
        w.handle_key(wow_tui::event::Key::Enter).unwrap();
        let state = w.window(win).unwrap();
        assert_eq!(state.mode, Mode::Edit);
        assert!(state.status.contains("number"), "{}", state.status);
    }

    #[test]
    fn escape_cancels_without_writing() {
        let (mut w, _, win) = world();
        send(&mut w, "e<tab><tab>999<esc>");
        assert_eq!(w.window(win).unwrap().mode, Mode::Browse);
        let rows = w
            .db_mut()
            .run(r#"RETRIEVE (e.salary) WHERE e.name = "alice""#)
            .unwrap();
        assert_eq!(rows.tuples[0].values[0].to_string(), "120");
    }

    #[test]
    fn pk_edit_rewrites_key() {
        let (mut w, _, win) = world();
        w.enter_edit(win).unwrap();
        w.window_mut(win).unwrap().form.set_text(0, "alicia");
        w.commit(win).unwrap();
        let rows = w
            .db_mut()
            .run(r#"RETRIEVE (e.name) WHERE e.name = "alicia""#)
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn edit_without_current_row_errors() {
        let mut w = World::new(WorldConfig::default());
        w.db_mut().run("CREATE TABLE t (k INT KEY)").unwrap();
        w.define_view("tv", "RANGE OF x IS t RETRIEVE (x.k)")
            .unwrap();
        let s = w.open_session();
        let win = w.open_window(s, "tv", None).unwrap();
        assert!(matches!(w.enter_edit(win), Err(WowError::NoCurrentRow)));
    }
}
