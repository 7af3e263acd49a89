//! Cross-window consistency: after a commit, refresh every window whose
//! view can see the written relation.
//!
//! This is the "windows stay consistent" half of the paper's thesis and
//! the subject of Figure 4: propagation cost is proportional to the number
//! of *affected* windows; windows over disjoint data cost nothing.

use crate::browse::BrowseCursor;
use crate::error::{WowError, WowResult};
use crate::window_mgr::{Mode, RefreshKind, WinId};
use crate::world::World;
use std::collections::BTreeMap;
use wow_par::stats::{decision, Layer};
use wow_rel::db::ExecCounters;
use wow_rel::delta::BaseDelta;
use wow_views::delta::{compute_view_delta, ViewDelta};

/// Minimum refreshable windows before a fan-out goes parallel: with a
/// single window there is nothing to overlap, and the scoped pool's thread
/// spawn would be pure overhead.
pub const PAR_FANOUT_MIN_WINDOWS: usize = 2;

impl World {
    /// Push a typed write delta through the view algebra and patch every
    /// affected window's screenful in place, falling back to a full
    /// re-query per window only when the view is not delta-maintainable
    /// (aggregates, DISTINCT, grouping, self-joins), the delta is too large
    /// to be worth translating, or the cursor cannot place the delta rows.
    ///
    /// Windows whose view provably cannot see the change (the view delta is
    /// empty — e.g. a filtered view the written row never matched, or a
    /// join the written row joins with nothing through) are skipped
    /// entirely: no refresh, no query, no counter.
    ///
    /// Mid-edit windows are marked stale, exactly like
    /// [`World::propagate_write`]. Returns the ids of the windows updated.
    pub fn propagate_delta(
        &mut self,
        delta: &BaseDelta,
        source: Option<WinId>,
    ) -> WowResult<Vec<WinId>> {
        self.stats.propagations += 1;
        let table = delta.table.clone();
        // Phase 1: which windows can see the table at all (cached map).
        let mut affected: Vec<(WinId, String)> = Vec::new();
        {
            let (db, views, windows, deps) = self.dep_parts();
            for (id, w) in windows {
                if Some(*id) == source {
                    continue;
                }
                if deps.reads(db, views, &w.view, &table).unwrap_or(false) {
                    affected.push((*id, w.view.clone()));
                }
            }
        }
        // Phase 2: translate the base delta once per distinct view. `None`
        // means "fall back to a full refresh" for that view's windows.
        let mut view_deltas: BTreeMap<String, Option<ViewDelta>> = BTreeMap::new();
        if self.config().delta_propagation {
            for (_, view) in &affected {
                if view_deltas.contains_key(view) {
                    continue;
                }
                let (db, views, deps) = self.delta_parts();
                let plan = deps.delta_plan(db, views, view, &table)?.clone();
                let vd = compute_view_delta(db, &plan, delta)?;
                view_deltas.insert(view.clone(), vd);
            }
        }
        // Phase 3: patch deltable windows in place; everything else joins
        // the full-refresh fan-out (parallel when wide enough) at the end.
        let mut refreshed = Vec::new();
        let mut full = Vec::new();
        for (id, view) in affected {
            let mid_edit = matches!(
                self.window(id)?.mode,
                Mode::Edit | Mode::Insert | Mode::Query
            );
            if mid_edit {
                self.window_mut(id)?.stale = true;
                continue;
            }
            match view_deltas.get(&view) {
                Some(Some(vd)) if vd.is_empty() => {
                    // The write is invisible to this view; leave the
                    // window untouched.
                    continue;
                }
                Some(Some(vd)) => {
                    let mut span = wow_obs::span(wow_obs::Op::DeltaRefresh);
                    span.arg(vd.len() as u64);
                    let applied = {
                        let (db, vc, w) = self.parts(id)?;
                        w.cursor.apply_delta(db, vc, vd)?
                    };
                    if applied {
                        self.note_refresh(id, RefreshKind::Delta);
                        span.finish();
                        self.stats.delta_refreshes += 1;
                        self.stats.delta_rows += vd.len() as u64;
                        self.stats.windows_refreshed += 1;
                        refreshed.push(id);
                    } else {
                        // The delta didn't land; don't count its span.
                        span.cancel();
                        full.push(id);
                    }
                }
                _ => {
                    // Non-deltable view, oversized delta, or delta
                    // propagation disabled: the classic full re-query.
                    full.push(id);
                }
            }
        }
        refreshed.extend(self.refresh_fanout(full)?);
        Ok(refreshed)
    }

    /// Refresh every window whose view (transitively) reads `table`.
    /// `source` is the window that performed the write (refreshed already
    /// by its commit path, so skipped here). Windows that are mid-edit are
    /// not yanked out from under the user — they are marked stale instead.
    ///
    /// The view → base-table reachability comes from the cached
    /// [`wow_views::DepIndex`]: on the warm path (no DDL since the last
    /// propagation) deciding whether a window is affected is a map lookup,
    /// not a walk of the view definitions.
    ///
    /// Returns the ids of the windows refreshed.
    pub fn propagate_write(&mut self, table: &str, source: Option<WinId>) -> WowResult<Vec<WinId>> {
        self.stats.propagations += 1;
        // Collect affected windows first (borrow discipline: the refresh
        // loop needs &mut self).
        let mut affected = Vec::new();
        {
            let (db, views, windows, deps) = self.dep_parts();
            for (id, w) in windows {
                if Some(*id) == source {
                    continue;
                }
                let touches = deps.reads(db, views, &w.view, table).unwrap_or(false);
                if touches {
                    affected.push(*id);
                }
            }
        }
        let mut candidates = Vec::new();
        for id in affected {
            let mid_edit = matches!(
                self.window(id)?.mode,
                Mode::Edit | Mode::Insert | Mode::Query
            );
            if mid_edit {
                self.window_mut(id)?.stale = true;
                continue;
            }
            candidates.push(id);
        }
        self.refresh_fanout(candidates)
    }

    /// Refresh every open window that is not mid-edit (mid-edit windows go
    /// stale, exactly like [`World::propagate_write`]). The blunt
    /// instrument for writes whose footprint is unknown — a raw QUEL
    /// statement executed over the network can touch any table, so the
    /// server brings every window current rather than guessing. Returns
    /// the ids refreshed.
    pub fn refresh_all_windows(&mut self) -> WowResult<Vec<WinId>> {
        self.stats.propagations += 1;
        let mut candidates = Vec::new();
        for id in self.window_ids() {
            let mid_edit = matches!(
                self.window(id)?.mode,
                Mode::Edit | Mode::Insert | Mode::Query
            );
            if mid_edit {
                self.window_mut(id)?.stale = true;
            } else {
                candidates.push(id);
            }
        }
        self.refresh_fanout(candidates)
    }

    /// Refresh a set of windows, overlapping the re-queries across the
    /// worker pool when the fan-out is wide enough.
    ///
    /// The split is *compute then apply*: the compute phase clones each
    /// window's cursor and refreshes the clone against a
    /// [`read replica`](wow_rel::db::Database::read_replica) (read-only
    /// over shared pages, so any number may run concurrently); the apply
    /// phase then splices the refreshed cursors back into the window states
    /// sequentially, so counters, spans, and visible effects land in the
    /// same deterministic order as a serial fan-out.
    ///
    /// A failing window does not abort the fan-out: every healthy window
    /// still refreshes, and the failures come back together as one
    /// [`WowError::PropagationFailed`].
    fn refresh_fanout(&mut self, candidates: Vec<WinId>) -> WowResult<Vec<WinId>> {
        if candidates.is_empty() {
            return Ok(Vec::new());
        }
        let workers = self.db().workers();
        // System windows re-materialize their backing tables on refresh,
        // which needs the whole world mutably — any fan-out containing one
        // stays serial.
        let has_sys = candidates.iter().any(|id| {
            self.windows
                .get(id)
                .is_none_or(|w| crate::sys::is_sys_view(&w.view))
        });
        let parallel = workers > 1 && candidates.len() >= PAR_FANOUT_MIN_WINDOWS && !has_sys;
        decision(Layer::Fanout, parallel);
        let mut refreshed = Vec::new();
        let mut failures: Vec<(u32, String)> = Vec::new();
        if parallel {
            type Computed = (WinId, WowResult<(BrowseCursor, ExecCounters)>);
            let computed: Vec<Computed> = {
                let mut span = wow_obs::span(wow_obs::Op::ParCompute);
                span.arg(candidates.len() as u64);
                let db = self.db();
                let views = self.views();
                let windows = &self.windows;
                let pool = wow_par::Pool::new(workers);
                pool.map(candidates, |_, id| {
                    let Some(w) = windows.get(&id) else {
                        return (id, Err(WowError::NoSuchWindow(id.0)));
                    };
                    let mut replica = db.read_replica();
                    let mut cursor = w.cursor.clone();
                    let refresh = wow_obs::span(wow_obs::Op::FullRefresh);
                    let r = cursor.refresh(&mut replica, views);
                    refresh.finish();
                    (id, r.map(|()| (cursor, replica.counters())))
                })
            };
            let mut span = wow_obs::span(wow_obs::Op::ParApply);
            for (id, res) in computed {
                match res {
                    Ok((cursor, counters)) => {
                        self.db_mut().merge_counters(counters);
                        let w = self.windows.get_mut(&id).expect("window seen in compute");
                        w.cursor = cursor;
                        self.note_refresh(id, RefreshKind::Full);
                        self.stats.full_refreshes += 1;
                        self.stats.windows_refreshed += 1;
                        refreshed.push(id);
                    }
                    Err(e) => failures.push((id.0, e.to_string())),
                }
            }
            span.arg(refreshed.len() as u64);
            span.finish();
        } else {
            for id in candidates {
                match self.refresh_window(id) {
                    Ok(()) => {
                        self.stats.full_refreshes += 1;
                        self.stats.windows_refreshed += 1;
                        refreshed.push(id);
                    }
                    Err(e) => failures.push((id.0, e.to_string())),
                }
            }
        }
        if failures.is_empty() {
            Ok(refreshed)
        } else {
            Err(WowError::PropagationFailed { failures })
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::WorldConfig;
    use crate::window_mgr::Mode;
    use crate::world::World;

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
        assert_eq!(w.stats.windows_refreshed, 1);
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
            w.stats.windows_refreshed, 0,
            "parts window reads a disjoint table"
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
        assert_eq!(w.stats.windows_refreshed, 0, "empty view delta → skip");
        assert_eq!(w.stats.delta_refreshes, 0);
        assert_eq!(w.stats.full_refreshes, 0);
        // alice is a toy employee: her raise patches the watcher in place.
        w.browse_prev(editor).unwrap();
        w.enter_edit(editor).unwrap();
        w.window_mut(editor).unwrap().form.set_text(2, "121");
        w.commit(editor).unwrap();
        assert_eq!(w.stats.delta_refreshes, 1, "visible delta applied");
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
        assert_eq!(w.stats.full_refreshes, 1, "baseline re-queries");
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
        assert_eq!(w.stats.windows_refreshed, 0);
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
        assert_eq!(w.stats.windows_refreshed, 1, "watcher now reads emp");
        assert_eq!(w.dep_index().rebuilds(), warm + 1);
    }

    #[test]
    fn fanout_collects_per_window_errors_without_aborting() {
        let mut w = world();
        // A self-join view is not updatable, so its window gets a streamed
        // cursor — one that re-runs the view query (by name, against the
        // live catalog) on every refresh.
        w.define_view(
            "doomed",
            "RANGE OF a IS emp RANGE OF b IS emp \
             RETRIEVE (a.name, b.salary) WHERE a.name = b.name",
        )
        .unwrap();
        let s = w.open_session();
        let healthy = w.open_window(s, "toy_emps", None).unwrap();
        let doomed = w.open_window(s, "doomed", None).unwrap();
        // Poison the view after its window opened: every refresh now
        // divides by zero at eval time.
        w.redefine_view(
            "doomed",
            "RANGE OF a IS emp RANGE OF b IS emp \
             RETRIEVE (a.name, b.salary / (b.salary - b.salary)) WHERE a.name = b.name",
        )
        .unwrap();
        w.db_mut().run("RANGE OF emp IS emp").unwrap();
        w.db_mut()
            .run(r#"REPLACE emp (salary = 200) WHERE emp.name = "alice""#)
            .unwrap();
        let err = w.propagate_write("emp", None).unwrap_err();
        let crate::error::WowError::PropagationFailed { failures } = err else {
            panic!("expected PropagationFailed");
        };
        assert_eq!(failures.len(), 1, "exactly the poisoned window failed");
        assert_eq!(failures[0].0, doomed.0);
        // The healthy window was still refreshed — the fan-out ran to
        // completion instead of aborting at the first failure.
        assert_eq!(
            w.current_row(healthy).unwrap().unwrap().values[1].to_string(),
            "200"
        );
        assert_eq!(w.stats.windows_refreshed, 1);
        assert_eq!(w.stats.full_refreshes, 1);
    }

    #[test]
    fn parallel_fanout_matches_serial_pages_and_stats() {
        // Two identical worlds, one serial, one maximally parallel: after
        // the same write propagates, every window's visible page and every
        // WorldStats counter must agree.
        let build = |workers: usize| {
            let cfg = WorldConfig {
                delta_propagation: false,
                workers,
                ..WorldConfig::default()
            };
            let mut w = World::with_db(cfg, wow_rel::db::Database::in_memory());
            // Exact width: benches and this test bypass the WOW_WORKERS
            // override so "serial" stays serial under any environment.
            w.db_mut().set_workers(workers);
            w.db_mut()
                .run("CREATE TABLE emp (name TEXT KEY, dept TEXT, salary INT)")
                .unwrap();
            for i in 0..64 {
                w.db_mut()
                    .run(&format!(
                        r#"APPEND TO emp (name = "e{i:03}", dept = "d{}", salary = {})"#,
                        i % 4,
                        100 + i
                    ))
                    .unwrap();
            }
            let s = w.open_session();
            let mut wins = Vec::new();
            for v in 0..8 {
                let name = format!("v{v}");
                w.define_view(
                    &name,
                    &format!(
                        r#"RANGE OF e IS emp RETRIEVE (e.name, e.salary) WHERE e.dept = "d{}""#,
                        v % 4
                    ),
                )
                .unwrap();
                wins.push(w.open_window(s, &name, None).unwrap());
            }
            (w, wins)
        };
        let (mut serial, serial_wins) = build(1);
        let (mut par, par_wins) = build(8);
        assert_eq!(serial.db().workers(), 1);
        assert_eq!(par.db().workers(), 8);
        for w in [&mut serial, &mut par] {
            w.db_mut().run("RANGE OF emp IS emp").unwrap();
            w.db_mut()
                .run(r#"REPLACE emp (salary = 999) WHERE emp.name = "e000""#)
                .unwrap();
        }
        let a = serial.propagate_write("emp", None).unwrap();
        let b = par.propagate_write("emp", None).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(serial.stats, par.stats, "WorldStats must agree exactly");
        for (sw, pw) in serial_wins.iter().zip(&par_wins) {
            let sp: Vec<_> = serial.window(*sw).unwrap().cursor.page_rows();
            let pp: Vec<_> = par.window(*pw).unwrap().cursor.page_rows();
            assert_eq!(sp, pp, "window pages diverged");
        }
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
