//! Editing through the window: the update path of the paper.
//!
//! The protocol for every write is the same five steps:
//!
//! 1. take an exclusive lock on the base relation,
//! 2. translate the form edit into base-table DML through the view,
//! 3. record the inverse on the session's undo stack,
//! 4. release the lock (strict 2PL, transaction = one commit), and
//! 5. **propagate**: refresh every other window whose view overlaps.

use crate::error::{WowError, WowResult};
use crate::locks::LockMode;
use crate::session::SessionId;
use crate::undo::UndoEntry;
use crate::window_mgr::{Mode, WinId};
use crate::world::World;
use wow_rel::delta::BaseDelta;
use wow_rel::tuple::Tuple;
use wow_rel::value::Value;
use wow_views::translate::{delete_through_view, insert_through_view, update_through_view};

impl World {
    /// Enter Edit mode on the current row.
    pub fn enter_edit(&mut self, win: WinId) -> WowResult<()> {
        let w = self.window_mut(win)?;
        if !matches!(w.mode, Mode::Browse) {
            return Err(WowError::WrongMode {
                wanted: "edit",
                mode: w.mode.name(),
            });
        }
        let Some(upd) = &w.upd else {
            return Err(WowError::ReadOnly {
                view: w.view.clone(),
                reasons: w.read_only_reasons.clone(),
            });
        };
        let _ = upd;
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
        let w = self.window_mut(win)?;
        if !matches!(w.mode, Mode::Browse) {
            return Err(WowError::WrongMode {
                wanted: "insert",
                mode: w.mode.name(),
            });
        }
        if w.upd.is_none() {
            return Err(WowError::ReadOnly {
                view: w.view.clone(),
                reasons: w.read_only_reasons.clone(),
            });
        }
        w.form.clear();
        w.original = None;
        w.mode = Mode::Insert;
        w.status.clear();
        Ok(())
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
        let (session, view, upd, rid, original) = {
            let w = self.window(win)?;
            if !matches!(w.mode, Mode::Edit) {
                return Err(WowError::WrongMode {
                    wanted: "commit an edit",
                    mode: w.mode.name(),
                });
            }
            let upd = w.upd.clone().expect("edit mode requires updatability");
            let Some((Some(rid), _)) = w.cursor.current_row() else {
                return Err(WowError::NoCurrentRow);
            };
            (
                w.session,
                w.view.clone(),
                upd,
                rid,
                w.original.clone().unwrap_or_default(),
            )
        };
        // Validate the form and compute the dirty assignment set.
        let (values, dirty) = {
            let w = self.window(win)?;
            let values = w.form.values()?;
            let dirty = w.form.dirty_fields(&original);
            (values, dirty)
        };
        if dirty.is_empty() {
            let w = self.window_mut(win)?;
            w.mode = Mode::Browse;
            w.status = "no changes".into();
            return Ok(());
        }
        let assigns: Vec<(usize, Value)> = dirty.iter().map(|&i| (i, values[i].clone())).collect();
        let mut span = wow_obs::span(wow_obs::Op::Commit);
        span.arg(assigns.len() as u64);
        // Lock, snapshot the old base row (for undo and the delta), write,
        // re-read the new image, unlock.
        self.lock(session, &upd.base_table, LockMode::Exclusive)?;
        let result = (|| -> WowResult<(Tuple, Tuple)> {
            let info = self.db_mut().catalog().table(&upd.base_table)?.clone();
            let old_base = self
                .db_mut()
                .get_row(info.id, rid)?
                .ok_or(WowError::NoCurrentRow)?;
            let check = self.config().check_option;
            update_through_view(self.db_mut(), &upd, rid, &assigns, check)?;
            let new_base = self
                .db_mut()
                .get_row(info.id, rid)?
                .ok_or(WowError::NoCurrentRow)?;
            Ok((old_base, new_base))
        })();
        self.maybe_release(session);
        let (old_base, new_base) = result?;
        self.undo_stack(session)?.push(UndoEntry::Update {
            table: upd.base_table.clone(),
            rid,
            old: old_base.values.clone(),
        });
        self.stats.commits += 1;
        self.session_mut(session)?.commits += 1;
        // Back to browse; refresh self; propagate the delta to overlapping
        // windows.
        {
            let w = self.window_mut(win)?;
            w.mode = Mode::Browse;
            w.original = None;
            w.status = "saved".into();
        }
        self.refresh_window(win)?;
        let delta = BaseDelta::update(upd.base_table.clone(), rid, old_base, new_base);
        self.propagate_delta(&delta, Some(win))?;
        span.finish();
        let _ = view;
        Ok(())
    }

    /// Commit an insert: the blank form becomes a new row.
    pub fn commit_insert(&mut self, win: WinId) -> WowResult<()> {
        let (session, upd) = {
            let w = self.window(win)?;
            if !matches!(w.mode, Mode::Insert) {
                return Err(WowError::WrongMode {
                    wanted: "commit an insert",
                    mode: w.mode.name(),
                });
            }
            (
                w.session,
                w.upd.clone().expect("insert mode requires updatability"),
            )
        };
        let values = self.window(win)?.form.values()?;
        let span = wow_obs::span(wow_obs::Op::Commit);
        self.lock(session, &upd.base_table, LockMode::Exclusive)?;
        let result = (|| -> WowResult<wow_storage::Rid> {
            let check = self.config().check_option;
            Ok(insert_through_view(self.db_mut(), &upd, &values, check)?)
        })();
        self.maybe_release(session);
        let rid = result?;
        self.undo_stack(session)?.push(UndoEntry::Insert {
            table: upd.base_table.clone(),
            rid,
        });
        self.stats.commits += 1;
        self.session_mut(session)?.commits += 1;
        {
            let w = self.window_mut(win)?;
            w.mode = Mode::Browse;
            w.status = "inserted".into();
        }
        self.refresh_window(win)?;
        let info = self.db_mut().catalog().table(&upd.base_table)?.clone();
        let new_row = self
            .db_mut()
            .get_row(info.id, rid)?
            .ok_or(WowError::NoCurrentRow)?;
        let delta = BaseDelta::insert(upd.base_table.clone(), rid, new_row);
        self.propagate_delta(&delta, Some(win))?;
        span.finish();
        Ok(())
    }

    /// Delete the current row (Browse mode).
    pub fn delete_current(&mut self, win: WinId) -> WowResult<()> {
        let (session, upd, rid, old_view_row) = {
            let w = self.window(win)?;
            if !matches!(w.mode, Mode::Browse) {
                return Err(WowError::WrongMode {
                    wanted: "delete",
                    mode: w.mode.name(),
                });
            }
            let Some(upd) = w.upd.clone() else {
                return Err(WowError::ReadOnly {
                    view: w.view.clone(),
                    reasons: w.read_only_reasons.clone(),
                });
            };
            let Some((Some(rid), row)) = w.cursor.current_row() else {
                return Err(WowError::NoCurrentRow);
            };
            (w.session, upd, rid, row)
        };
        let _ = old_view_row;
        let span = wow_obs::span(wow_obs::Op::Commit);
        self.lock(session, &upd.base_table, LockMode::Exclusive)?;
        let result = (|| -> WowResult<Tuple> {
            let info = self.db_mut().catalog().table(&upd.base_table)?.clone();
            let old_base = self
                .db_mut()
                .get_row(info.id, rid)?
                .ok_or(WowError::NoCurrentRow)?;
            delete_through_view(self.db_mut(), &upd, rid)?;
            Ok(old_base)
        })();
        self.maybe_release(session);
        let old = result?;
        self.undo_stack(session)?.push(UndoEntry::Delete {
            table: upd.base_table.clone(),
            old: old.values.clone(),
        });
        self.stats.commits += 1;
        self.session_mut(session)?.commits += 1;
        self.set_status(win, "deleted");
        self.refresh_window(win)?;
        let delta = BaseDelta::delete(upd.base_table.clone(), rid, old);
        self.propagate_delta(&delta, Some(win))?;
        span.finish();
        Ok(())
    }

    /// Undo the session's most recent write.
    pub fn undo_last(&mut self, session: SessionId) -> WowResult<()> {
        let entry = self
            .undo_stack(session)?
            .pop()
            .ok_or(WowError::NothingToUndo)?;
        let table = match &entry {
            UndoEntry::Update { table, .. }
            | UndoEntry::Insert { table, .. }
            | UndoEntry::Delete { table, .. } => table.clone(),
        };
        self.lock(session, &table, LockMode::Exclusive)?;
        let result = self.apply_undo_entry(entry);
        self.maybe_release(session);
        let delta = result?;
        self.propagate_delta(&delta, None)?;
        Ok(())
    }

    /// Apply the inverse write and return the delta it produced (empty when
    /// the target row no longer exists).
    fn apply_undo_entry(&mut self, entry: UndoEntry) -> WowResult<BaseDelta> {
        match entry {
            UndoEntry::Update { table, rid, old } => {
                let info = self.db_mut().catalog().table(&table)?.clone();
                let before = self.db_mut().get_row(info.id, rid)?;
                let mut delta = BaseDelta::new(&table);
                if self.db_mut().update_rid(&table, rid, old)? {
                    let after = self.db_mut().get_row(info.id, rid)?;
                    if let (Some(before), Some(after)) = (before, after) {
                        delta.updated.push((rid, before, after));
                    }
                }
                Ok(delta)
            }
            UndoEntry::Insert { table, rid } => {
                let info = self.db_mut().catalog().table(&table)?.clone();
                let before = self.db_mut().get_row(info.id, rid)?;
                let mut delta = BaseDelta::new(&table);
                if self.db_mut().delete_rid(&table, rid)? {
                    if let Some(before) = before {
                        delta.deleted.push((rid, before));
                    }
                }
                Ok(delta)
            }
            UndoEntry::Delete { table, old } => {
                let rid = self.db_mut().insert(&table, old)?;
                let info = self.db_mut().catalog().table(&table)?.clone();
                let row = self
                    .db_mut()
                    .get_row(info.id, rid)?
                    .ok_or(WowError::NoCurrentRow)?;
                Ok(BaseDelta::insert(table, rid, row))
            }
        }
    }

    // -- Batch transactions ---------------------------------------------------
    //
    // A batch groups several through-window commits into one atomic unit:
    // locks taken by each commit are *held* until the batch ends (strict
    // 2PL over the whole batch), and `abort_batch` rolls every write back.

    /// Begin a batch transaction for a session.
    pub fn begin_batch(&mut self, session: SessionId) -> WowResult<()> {
        let mark = self.undo_stack(session)?.len();
        let s = self.session_mut(session)?;
        if s.batch_mark.is_some() {
            return Err(WowError::Rel(wow_rel::RelError::Txn(
                "batch already open for this session",
            )));
        }
        s.batch_mark = Some(mark);
        Ok(())
    }

    /// Commit a batch: keep every write, release the session's locks.
    pub fn commit_batch(&mut self, session: SessionId) -> WowResult<()> {
        let s = self.session_mut(session)?;
        if s.batch_mark.take().is_none() {
            return Err(WowError::Rel(wow_rel::RelError::Txn("no open batch")));
        }
        self.release_locks(session);
        Ok(())
    }

    /// Abort a batch: undo every write made since `begin_batch`, propagate
    /// each inverse write's delta, release the session's locks. Returns the
    /// number of writes rolled back.
    ///
    /// The session still holds its batch locks, so no other session's
    /// commit can block an inverse write — but a write that bypasses the
    /// lock manager (raw QUEL, `apply_*`) can still make one fail, say by
    /// taking a deleted row's key. Every other entry is undone regardless,
    /// the locks are always released, and the first failure is returned.
    pub fn abort_batch(&mut self, session: SessionId) -> WowResult<u64> {
        let mark = {
            let s = self.session_mut(session)?;
            s.batch_mark
                .take()
                .ok_or(WowError::Rel(wow_rel::RelError::Txn("no open batch")))?
        };
        let mut first_err = None;
        let mut undone = 0;
        while self.undo_stack(session)?.len() > mark {
            let entry = self.undo_stack(session)?.pop().expect("len checked");
            let failure = match self.apply_undo_entry(entry) {
                Ok(delta) => {
                    undone += 1;
                    self.propagate_delta(&delta, None).err()
                }
                Err(e) => Some(e),
            };
            first_err = first_err.or(failure);
        }
        self.release_locks(session);
        match first_err {
            None => Ok(undone),
            Some(e) => Err(e),
        }
    }

    /// Release the session's locks unless it is inside a batch (strict 2PL
    /// holds them until the batch ends).
    fn maybe_release(&mut self, session: SessionId) {
        let in_batch = self
            .session_mut(session)
            .map(|s| s.batch_mark.is_some())
            .unwrap_or(false);
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
