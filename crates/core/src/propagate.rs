//! Cross-window consistency: after a write, bring every window whose view
//! can see it current.
//!
//! This is the "windows stay consistent" half of the paper's thesis and
//! the subject of Figure 4: propagation cost is proportional to the number
//! of *affected* windows; windows over disjoint data cost nothing.

use crate::error::{WowError, WowResult};
use crate::window_mgr::{Mode, RefreshKind, WinId};
use crate::world::World;
use std::collections::BTreeMap;
use wow_rel::delta::BaseDelta;
use wow_views::delta::{compute_view_delta, ViewDelta};

impl World {
    /// Push a typed write delta through each affected view's keyed walk
    /// ([`wow_views::delta`]) and patch the window's screenful in place,
    /// falling back to a re-read per window when the view has no delta for
    /// the write (a write to a probed table, a view with no `Keyed`, a
    /// probed delta too large to walk) or the cursor cannot place the delta
    /// rows. For a keyed window the re-read is one page.
    ///
    /// Windows whose view provably cannot see the change (the view delta is
    /// empty — an update to columns the view does not read, or a filtered
    /// view the written row never matched) are skipped entirely: no
    /// refresh and no query, counted in `windows_skipped`. The window that
    /// made the write is one of the windows: its commit returned it to
    /// Browse, so it takes the delta like any other.
    ///
    /// The view → base-table reachability comes from the cached
    /// [`wow_views::DepIndex`]: on the warm path (no DDL since the last
    /// propagation) deciding whether a window is affected is a map lookup,
    /// not a walk of the view definitions.
    ///
    /// Mid-edit windows and failures are handled as in
    /// [`World::refresh_all_windows`]. Returns the ids of the windows
    /// updated.
    pub fn propagate_delta(&mut self, delta: &BaseDelta) -> WowResult<Vec<WinId>> {
        if delta.is_empty() {
            return Ok(Vec::new());
        }
        let mut affected = Vec::new();
        {
            let (db, views, windows, deps) = self.dep_parts();
            for (id, w) in windows {
                if deps
                    .reads(db, views, &w.view, &delta.table)
                    .unwrap_or(false)
                {
                    affected.push(*id);
                }
            }
        }
        self.bring_current(affected, Some(delta))
    }

    /// Re-query every open window: the blunt instrument for writes whose
    /// footprint is unknown — a raw QUEL program can touch any table, so
    /// [`World::run_quel`] brings every window current rather than
    /// guessing.
    ///
    /// A window mid-edit (Edit, Insert or Query mode) is not yanked out
    /// from under the user: it is marked stale and catches up when it
    /// returns to Browse. A failing window does not stop the others: every
    /// healthy window is still brought current, the failed ones are left
    /// stale, and the failures come back together as one
    /// [`WowError::PropagationFailed`]. Returns the ids refreshed.
    pub fn refresh_all_windows(&mut self) -> WowResult<Vec<WinId>> {
        let all = self.window_ids();
        self.bring_current(all, None)
    }

    /// The one propagation loop behind both entry points: each window is
    /// patched by `delta`'s view delta when there is one, re-queried when
    /// not, and any error is recorded against that window alone. A stale
    /// window — one that sat out writes in Edit, Insert or Query mode, whose
    /// last catch-up failed, or whose view was redefined — no longer shows
    /// the rows a delta patches, so it is always re-queried, never spliced.
    fn bring_current(
        &mut self,
        wins: Vec<WinId>,
        delta: Option<&BaseDelta>,
    ) -> WowResult<Vec<WinId>> {
        self.stats.propagations += 1;
        let delta = delta.filter(|_| self.config().delta_propagation);
        // The base delta is translated once per distinct view.
        let mut view_deltas: BTreeMap<String, Result<Option<ViewDelta>, String>> = BTreeMap::new();
        let mut refreshed = Vec::new();
        let mut failures = Vec::new();
        for id in wins {
            let w = self.window_mut(id)?;
            if matches!(w.mode, Mode::Edit | Mode::Insert | Mode::Query) {
                w.stale = true;
                continue;
            }
            let (stale, view) = (w.stale, w.view.clone());
            let vd = match delta {
                Some(d) if !stale => view_deltas
                    .entry(view)
                    .or_insert_with_key(|view| self.view_delta(view, d).map_err(|e| e.to_string()))
                    .as_ref()
                    .map(Option::as_ref)
                    .map_err(Clone::clone),
                _ => Ok(None),
            };
            match vd.and_then(|vd| self.catch_up(id, vd).map_err(|e| e.to_string())) {
                Ok(true) => refreshed.push(id),
                Ok(false) => {}
                Err(e) => {
                    self.window_mut(id)?.stale = true;
                    failures.push((id.0, e));
                }
            }
        }
        if failures.is_empty() {
            Ok(refreshed)
        } else {
            Err(WowError::PropagationFailed { failures })
        }
    }

    /// Translate a base delta into `view`'s delta: `None` when the view has
    /// none for it and its windows re-read.
    fn view_delta(&mut self, view: &str, delta: &BaseDelta) -> WowResult<Option<ViewDelta>> {
        let (db, views, deps) = self.delta_parts();
        let plan = deps.delta_plan(db, views, view, &delta.table)?;
        Ok(compute_view_delta(db, plan, delta)?)
    }

    /// Bring one browsing window current: patch it by `vd` when the cursor
    /// places the delta rows, otherwise re-run its query. Returns `false`
    /// when `vd` is empty — the write is invisible to the view and the
    /// window is left untouched.
    fn catch_up(&mut self, id: WinId, vd: Option<&ViewDelta>) -> WowResult<bool> {
        if let Some(vd) = vd {
            if vd.is_empty() {
                self.stats.windows_skipped += 1;
                return Ok(false);
            }
            let mut span = wow_obs::span(wow_obs::Op::DeltaRefresh);
            span.arg(vd.len() as u64);
            let (db, _, w) = self.parts(id)?;
            if w.cursor.apply_delta(db, vd)? {
                self.note_refresh(id, RefreshKind::Delta);
                span.finish();
                self.stats.delta_refreshes += 1;
                self.stats.delta_rows += vd.len() as u64;
                self.stats.windows_refreshed += 1;
                return Ok(true);
            }
            // The delta didn't land; don't count its span.
            span.cancel();
        }
        self.refresh_window(id)?;
        self.stats.full_refreshes += 1;
        self.stats.windows_refreshed += 1;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::WorldConfig;
    use crate::error::WowError;
    use crate::window_mgr::{Mode, RefreshKind, WindowStyle};
    use crate::world::{CursorStrategy, World};
    use wow_views::expand::ViewQuery;

    fn world() -> World {
        let mut w = World::new(WorldConfig::default());
        w.db_mut()
            .run("CREATE TABLE emp (name TEXT KEY, dept TEXT, salary INT)")
            .unwrap();
        w.db_mut()
            .run("CREATE TABLE part (pno INT KEY, pname TEXT)")
            .unwrap();
        for (n, d, s) in [("alice", "toy", 120), ("bob", "shoe", 90)] {
            w.db_mut()
                .run(&format!(
                    r#"APPEND TO emp (name = "{n}", dept = "{d}", salary = {s})"#
                ))
                .unwrap();
        }
        w.db_mut()
            .run(r#"APPEND TO part (pno = 1, pname = "nut")"#)
            .unwrap();
        w.define_view(
            "emps",
            "RANGE OF e IS emp RETRIEVE (e.name, e.dept, e.salary)",
        )
        .unwrap();
        w.define_view(
            "toy_emps",
            r#"RANGE OF e IS emp RETRIEVE (e.name, e.salary) WHERE e.dept = "toy""#,
        )
        .unwrap();
        w.define_view("parts", "RANGE OF p IS part RETRIEVE (p.pno, p.pname)")
            .unwrap();
        w
    }

    #[test]
    fn commit_in_one_window_updates_the_other() {
        let mut w = world();
        let s1 = w.open_session();
        let s2 = w.open_session();
        let editor = w.open_window(s1, "emps", None).unwrap();
        let watcher = w.open_window(s2, "toy_emps", None).unwrap();
        // watcher sees alice with 120.
        assert_eq!(
            w.current_row(watcher).unwrap().unwrap().values[1].to_string(),
            "120"
        );
        // editor raises alice through its own window.
        w.enter_edit(editor).unwrap();
        w.window_mut(editor).unwrap().form.set_text(2, "130");
        w.commit(editor).unwrap();
        // watcher was refreshed by propagation, no manual refresh.
        assert_eq!(
            w.current_row(watcher).unwrap().unwrap().values[1].to_string(),
            "130"
        );
        assert_eq!(w.stats.windows_refreshed, 2, "watcher and editor");
    }

    #[test]
    fn unrelated_windows_are_not_touched() {
        let mut w = world();
        let s = w.open_session();
        let editor = w.open_window(s, "emps", None).unwrap();
        let _parts = w.open_window(s, "parts", None).unwrap();
        w.enter_edit(editor).unwrap();
        w.window_mut(editor).unwrap().form.set_text(2, "121");
        w.commit(editor).unwrap();
        assert_eq!(
            w.stats.windows_refreshed, 1,
            "only the editor: the parts window reads a disjoint table"
        );
    }

    #[test]
    fn mid_edit_windows_go_stale_instead() {
        let mut w = world();
        let s1 = w.open_session();
        let s2 = w.open_session();
        let editor = w.open_window(s1, "emps", None).unwrap();
        let other = w.open_window(s2, "toy_emps", None).unwrap();
        w.enter_edit(other).unwrap(); // user is typing here
        w.enter_edit(editor).unwrap();
        w.window_mut(editor).unwrap().form.set_text(2, "500");
        w.commit(editor).unwrap();
        let other_state = w.window(other).unwrap();
        assert!(other_state.stale);
        assert_eq!(other_state.mode, Mode::Edit);
        // Leaving edit mode refreshes the stale window automatically.
        w.cancel_mode(other).unwrap();
        assert!(!w.window(other).unwrap().stale);
        assert_eq!(
            w.current_row(other).unwrap().unwrap().values[1].to_string(),
            "500"
        );
    }

    #[test]
    fn a_stale_writer_window_is_requeried_not_spliced() {
        let mut w = world();
        let s1 = w.open_session();
        let s2 = w.open_session();
        let writer = w.open_window(s1, "emps", None).unwrap();
        let other = w.open_window(s2, "emps", None).unwrap();
        // The writer starts typing on alice...
        w.enter_edit(writer).unwrap();
        w.window_mut(writer).unwrap().form.set_text(2, "130");
        // ...while another session changes bob, on the writer's page.
        w.browse_next(other).unwrap();
        w.enter_edit(other).unwrap();
        w.window_mut(other).unwrap().form.set_text(2, "777");
        w.commit(other).unwrap();
        assert!(w.window(writer).unwrap().stale);
        // The writer's commit must not splice its own delta into a page
        // that never saw bob's raise.
        w.commit(writer).unwrap();
        let state = w.window(writer).unwrap();
        let salaries: Vec<String> = state
            .cursor
            .page_rows()
            .iter()
            .map(|(_, t)| format!("{} {}", t.values[0], t.values[2]))
            .collect();
        assert_eq!(salaries, ["alice 130", "bob 777"]);
        assert!(!state.stale);
        assert_eq!(state.last_refresh, RefreshKind::Full);
    }

    #[test]
    fn leaving_any_mode_catches_up_stale_windows() {
        let mut w = world();
        let s1 = w.open_session();
        let s2 = w.open_session();
        let editor = w.open_window(s1, "emps", None).unwrap();
        let other = w.open_window(s2, "toy_emps", None).unwrap();
        // The watcher is composing an insert while the editor commits.
        w.enter_insert(other).unwrap();
        w.enter_edit(editor).unwrap();
        w.window_mut(editor).unwrap().form.set_text(2, "640");
        w.commit(editor).unwrap();
        assert!(w.window(other).unwrap().stale);
        w.cancel_mode(other).unwrap();
        let state = w.window(other).unwrap();
        assert_eq!(state.mode, Mode::Browse);
        assert!(!state.stale, "insert-mode exit auto-refreshes");
        assert_eq!(
            w.current_row(other).unwrap().unwrap().values[1].to_string(),
            "640"
        );
        // Same through Query mode: running the query rebuilds the cursor
        // against current data, which also clears staleness.
        w.enter_query(other).unwrap();
        w.enter_edit(editor).unwrap();
        w.window_mut(editor).unwrap().form.set_text(2, "650");
        w.commit(editor).unwrap();
        assert!(w.window(other).unwrap().stale);
        w.apply_query(other).unwrap();
        assert!(!w.window(other).unwrap().stale, "query run refreshes");
        assert_eq!(
            w.current_row(other).unwrap().unwrap().values[1].to_string(),
            "650"
        );
    }

    #[test]
    fn invisible_writes_skip_windows_entirely() {
        let mut w = world();
        let s1 = w.open_session();
        let s2 = w.open_session();
        let editor = w.open_window(s1, "emps", None).unwrap();
        let toys = w.open_window(s2, "toy_emps", None).unwrap();
        // bob is a shoe employee: raising his salary is invisible to
        // toy_emps, so the watcher is neither refreshed nor counted.
        w.browse_next(editor).unwrap(); // move to bob
        w.enter_edit(editor).unwrap();
        w.window_mut(editor).unwrap().form.set_text(2, "95");
        w.commit(editor).unwrap();
        assert_eq!(w.stats.windows_refreshed, 1, "empty view delta → skip");
        assert_eq!(w.stats.windows_skipped, 1, "the watcher, counted");
        assert_eq!(w.stats.delta_refreshes, 1, "the editor's own window");
        assert_eq!(w.stats.full_refreshes, 0);
        // alice is a toy employee: her raise patches the watcher in place.
        w.browse_prev(editor).unwrap();
        w.enter_edit(editor).unwrap();
        w.window_mut(editor).unwrap().form.set_text(2, "121");
        w.commit(editor).unwrap();
        assert_eq!(w.stats.delta_refreshes, 3, "visible delta applied");
        assert_eq!(w.stats.full_refreshes, 0, "no fallback on deltable view");
        assert_eq!(
            w.current_row(toys).unwrap().unwrap().values[1].to_string(),
            "121"
        );
        let _ = toys;
    }

    #[test]
    fn delta_propagation_off_forces_full_refreshes() {
        let cfg = WorldConfig {
            delta_propagation: false,
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg);
        w.db_mut()
            .run("CREATE TABLE emp (name TEXT KEY, dept TEXT, salary INT)")
            .unwrap();
        w.db_mut()
            .run(r#"APPEND TO emp (name = "alice", dept = "toy", salary = 120)"#)
            .unwrap();
        w.define_view(
            "emps",
            "RANGE OF e IS emp RETRIEVE (e.name, e.dept, e.salary)",
        )
        .unwrap();
        w.define_view(
            "toy_emps",
            r#"RANGE OF e IS emp RETRIEVE (e.name, e.salary) WHERE e.dept = "toy""#,
        )
        .unwrap();
        let s1 = w.open_session();
        let s2 = w.open_session();
        let editor = w.open_window(s1, "emps", None).unwrap();
        let watcher = w.open_window(s2, "toy_emps", None).unwrap();
        w.enter_edit(editor).unwrap();
        w.window_mut(editor).unwrap().form.set_text(2, "130");
        w.commit(editor).unwrap();
        assert_eq!(w.stats.full_refreshes, 2, "baseline re-queries both");
        assert_eq!(w.stats.delta_refreshes, 0);
        assert_eq!(
            w.current_row(watcher).unwrap().unwrap().values[1].to_string(),
            "130"
        );
    }

    #[test]
    fn propagation_uses_cached_deps_and_sees_ddl() {
        let mut w = world();
        let s1 = w.open_session();
        let s2 = w.open_session();
        let editor = w.open_window(s1, "emps", None).unwrap();
        let watcher = w.open_window(s2, "parts", None).unwrap();
        // Warm the cache: a commit to emp does not touch the parts window.
        w.enter_edit(editor).unwrap();
        w.window_mut(editor).unwrap().form.set_text(2, "121");
        w.commit(editor).unwrap();
        assert_eq!(w.stats.windows_refreshed, 1, "the editor alone");
        let warm = w.dep_index().rebuilds();
        // A second commit reuses the cache verbatim.
        w.enter_edit(editor).unwrap();
        w.window_mut(editor).unwrap().form.set_text(2, "122");
        w.commit(editor).unwrap();
        assert_eq!(
            w.dep_index().rebuilds(),
            warm,
            "warm path recomputes nothing"
        );
        // Redefine "parts" to read emp instead: the next propagation must
        // rebuild the cache (exactly once) and see the fresh dependency.
        w.redefine_view("parts", "RANGE OF e IS emp RETRIEVE (e.name, e.dept)")
            .unwrap();
        w.refresh_window(watcher).unwrap();
        w.enter_edit(editor).unwrap();
        w.window_mut(editor).unwrap().form.set_text(2, "123");
        w.commit(editor).unwrap();
        assert_eq!(w.stats.windows_refreshed, 3, "the editor");
        assert_eq!(
            w.stats.windows_skipped, 1,
            "watcher now reads emp, though not salary"
        );
        assert_eq!(w.dep_index().rebuilds(), warm + 1);
    }

    #[test]
    fn fanout_collects_per_window_errors_without_aborting() {
        // A self-join on the key is keyed (an Index cursor); one on a
        // non-key column re-runs the view query on every refresh. Either
        // window reads the redefined view at its next refresh.
        for on in ["a.name = b.name", "a.dept = b.dept"] {
            let mut w = world();
            w.define_view(
                "doomed",
                &format!(
                    "RANGE OF a IS emp RANGE OF b IS emp RETRIEVE (a.name, b.salary) WHERE {on}"
                ),
            )
            .unwrap();
            let s = w.open_session();
            let healthy = w.open_window(s, "toy_emps", None).unwrap();
            let doomed = w.open_window(s, "doomed", None).unwrap();
            // Poison the view after its window opened: every refresh now
            // divides by zero at eval time.
            w.redefine_view(
                "doomed",
                &format!(
                    "RANGE OF a IS emp RANGE OF b IS emp \
                     RETRIEVE (a.name, b.salary / (b.salary - b.salary)) WHERE {on}"
                ),
            )
            .unwrap();
            w.db_mut().run("RANGE OF emp IS emp").unwrap();
            w.db_mut()
                .run(r#"REPLACE emp (salary = 200) WHERE emp.name = "alice""#)
                .unwrap();
            let err = w.refresh_all_windows().unwrap_err();
            let WowError::PropagationFailed { failures } = err else {
                panic!("expected PropagationFailed ({on})");
            };
            assert_eq!(failures.len(), 1, "exactly the poisoned window failed");
            assert_eq!(failures[0].0, doomed.0);
            assert!(
                w.window(doomed).unwrap().stale,
                "the failed window is stale"
            );
            // The healthy window was still refreshed — the loop ran to
            // completion instead of aborting at the first failure.
            assert_eq!(
                w.current_row(healthy).unwrap().unwrap().values[1].to_string(),
                "200"
            );
            assert_eq!(w.stats.windows_refreshed, 1);
            assert_eq!(w.stats.full_refreshes, 1);
        }
    }

    #[test]
    fn open_windows_read_a_redefined_view() {
        let mut w = world();
        let pay = |targets: &str| {
            format!(
                "RANGE OF a IS emp RANGE OF b IS emp RETRIEVE ({targets}) WHERE a.name = b.name"
            )
        };
        w.define_view("pay", &pay("a.name, b.salary")).unwrap();
        let s = w.open_session();
        let keyed = w.open_window(s, "pay", None).unwrap();
        let indexed = w.open_window(s, "toy_emps", None).unwrap();
        let snapshot = w
            .open_window_using(
                s,
                "toy_emps",
                None,
                WindowStyle::Form,
                CursorStrategy::Materialized,
            )
            .unwrap();
        let source = |w: &World, win| w.window(win).unwrap().cursor.source();
        assert_eq!(source(&w, keyed), "index");
        assert_eq!(source(&w, indexed), "index");
        assert!(w.window(indexed).unwrap().is_updatable());
        // New targets for the keyed view; a read-only keyed join over
        // other rows for the updatable one.
        w.redefine_view("pay", &pay("a.name, a.dept, d = b.salary * 2"))
            .unwrap();
        w.redefine_view(
            "toy_emps",
            r#"RANGE OF a IS emp RANGE OF b IS emp RETRIEVE (a.name, b.dept)
               WHERE a.name = b.name AND b.dept = "shoe""#,
        )
        .unwrap();
        assert!([keyed, indexed, snapshot]
            .iter()
            .all(|&win| w.window(win).unwrap().stale));
        w.refresh_all_windows().unwrap();
        let row = |w: &World, win| {
            let values = w.current_row(win).unwrap().unwrap().values;
            values.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        };
        assert_eq!(w.window(keyed).unwrap().schema.len(), 3);
        assert_eq!(row(&w, keyed), ["alice", "toy", "240"]);
        for (win, want) in [(indexed, "index"), (snapshot, "snapshot")] {
            let state = w.window(win).unwrap();
            assert!(!state.stale && !state.is_updatable());
            assert!(!state.read_only_reasons.is_empty());
            assert_eq!(source(&w, win), want);
            assert_eq!(row(&w, win), ["bob", "shoe"]);
        }
        // A requery (QBF, sort) derives from the new definition too.
        w.redefine_view("pay", &pay("a.name")).unwrap();
        w.requery_window(keyed, ViewQuery::default()).unwrap();
        assert_eq!(row(&w, keyed), ["alice"]);
        assert_eq!(w.window(keyed).unwrap().form.spec.fields.len(), 1);
    }

    #[test]
    fn a_failing_view_delta_fails_only_its_window() {
        let mut w = world();
        w.define_view(
            "poisoned",
            "RANGE OF e IS emp RETRIEVE (e.name, e.salary / (e.salary - 200))",
        )
        .unwrap();
        let s1 = w.open_session();
        let s2 = w.open_session();
        let editor = w.open_window(s1, "emps", None).unwrap();
        let poisoned = w.open_window(s2, "poisoned", None).unwrap();
        let healthy = w.open_window(s2, "toy_emps", None).unwrap();
        // Translating alice's new salary through `poisoned` divides by zero.
        w.enter_edit(editor).unwrap();
        w.window_mut(editor).unwrap().form.set_text(2, "200");
        let err = w.commit(editor).unwrap_err();
        let WowError::PropagationFailed { failures } = err else {
            panic!("expected PropagationFailed, got {err:?}");
        };
        assert_eq!(failures.len(), 1, "exactly the poisoned window failed");
        assert_eq!(failures[0].0, poisoned.0);
        assert!(
            failures[0].1.contains("division by zero"),
            "{}",
            failures[0].1
        );
        assert!(w.window(poisoned).unwrap().stale);
        // The write committed, and the healthy watcher was patched anyway.
        let rows = w
            .db_mut()
            .run(r#"RANGE OF e IS emp RETRIEVE (e.salary) WHERE e.name = "alice""#)
            .unwrap();
        assert_eq!(rows.tuples[0].values[0].to_string(), "200");
        assert_eq!(
            w.current_row(healthy).unwrap().unwrap().values[1].to_string(),
            "200"
        );
        assert_eq!(w.stats.windows_refreshed, 2, "healthy and editor");
        assert_eq!(w.stats.delta_refreshes, 2);
    }

    #[test]
    fn bare_column_names_are_read_columns() {
        let mut w = world();
        w.define_view(
            "bare_toys",
            r#"RANGE OF e IS emp RETRIEVE (name, salary) WHERE dept = "toy""#,
        )
        .unwrap();
        let s = w.open_session();
        let editor = w.open_window(s, "emps", None).unwrap();
        let toys = w.open_window(s, "bare_toys", None).unwrap();
        // A bare target: alice's raise reaches the watcher.
        w.enter_edit(editor).unwrap();
        w.window_mut(editor).unwrap().form.set_text(2, "130");
        w.commit(editor).unwrap();
        assert_eq!(
            w.current_row(toys).unwrap().unwrap().values[1].to_string(),
            "130"
        );
        // A bare restriction: moving alice to shoe takes her out.
        w.enter_edit(editor).unwrap();
        w.window_mut(editor).unwrap().form.set_text(1, "shoe");
        w.commit(editor).unwrap();
        assert!(w.current_row(toys).unwrap().is_none(), "bare_toys is empty");
        assert_eq!(w.stats.windows_skipped, 0);
        assert_eq!(w.stats.full_refreshes, 0);
    }

    #[test]
    fn deletion_propagates_row_out_of_filtered_views() {
        let mut w = world();
        let s = w.open_session();
        let all = w.open_window(s, "emps", None).unwrap();
        let toys = w.open_window(s, "toy_emps", None).unwrap();
        assert!(w.current_row(toys).unwrap().is_some());
        // Delete alice (the only toy employee) via the all-emps window.
        w.delete_current(all).unwrap();
        assert!(
            w.current_row(toys).unwrap().is_none(),
            "toy_emps is now empty"
        );
    }
}
