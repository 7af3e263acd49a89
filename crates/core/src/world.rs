//! The [`World`]: one shared database, many windows onto it.

use crate::browse::{view_schema_of, BrowseCursor};
use crate::config::WorldConfig;
use crate::error::{WowError, WowResult};
use crate::locks::{LockManager, LockMode, LockOutcome};
use crate::session::{Session, SessionId};
use crate::window_mgr::{Mode, WinId, WindowState};
use std::collections::BTreeMap;
use wow_forms::compiler::compile_form;
use wow_forms::FormInstance;
use wow_rel::db::Database;
use wow_rel::delta::BaseDelta;
use wow_rel::tuple::Tuple;
use wow_rel::value::Value;
use wow_storage::Rid;
use wow_tui::buffer::Patch;
use wow_tui::damage::DamageTracker;
use wow_tui::event::Key;
use wow_tui::geom::Rect;
use wow_tui::tree::WindowTree;
use wow_views::expand::{view_schema, ViewQuery};
use wow_views::updatable::{analyze, why_not};
use wow_views::{DepIndex, ViewCatalog, ViewDef};

/// Counters the benches and the status surface read.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorldStats {
    /// Through-window writes committed.
    pub commits: u64,
    /// Windows refreshed by propagation.
    pub windows_refreshed: u64,
    /// Propagation passes run.
    pub propagations: u64,
    /// Windows refreshed by applying a view delta in place.
    pub delta_refreshes: u64,
    /// Windows refreshed by re-running their view query (fallback).
    pub full_refreshes: u64,
    /// View-delta rows applied to browse cursors.
    pub delta_rows: u64,
    /// Frames rendered.
    pub frames: u64,
    /// Cells emitted by damage-tracked rendering.
    pub cells_emitted: u64,
}

impl WorldStats {
    /// Copy out the current values — pair with [`WorldStats::since`] so a
    /// warm-path measurement needs no mutable access to zero counters.
    pub fn snapshot(&self) -> WorldStats {
        *self
    }

    /// The activity accumulated since an earlier snapshot (field-wise
    /// saturating difference).
    pub fn since(&self, base: &WorldStats) -> WorldStats {
        WorldStats {
            commits: self.commits.saturating_sub(base.commits),
            windows_refreshed: self
                .windows_refreshed
                .saturating_sub(base.windows_refreshed),
            propagations: self.propagations.saturating_sub(base.propagations),
            delta_refreshes: self.delta_refreshes.saturating_sub(base.delta_refreshes),
            full_refreshes: self.full_refreshes.saturating_sub(base.full_refreshes),
            delta_rows: self.delta_rows.saturating_sub(base.delta_rows),
            frames: self.frames.saturating_sub(base.frames),
            cells_emitted: self.cells_emitted.saturating_sub(base.cells_emitted),
        }
    }

    /// Zero every counter.
    pub fn reset(&mut self) {
        *self = WorldStats::default();
    }
}

/// One window brought current by a refresh — the unit the network layer
/// turns into a `WindowRefreshed` push frame. Recording is off by default
/// (zero cost for embedded single-process use); a server turns it on with
/// [`World::enable_refresh_events`] and drains the log after every request
/// it executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshEvent {
    /// The window that was refreshed.
    pub win: WinId,
    /// The session owning that window.
    pub session: SessionId,
    /// How it was brought current (delta patch or full re-query).
    pub kind: crate::window_mgr::RefreshKind,
    /// The window's refresh generation *after* this refresh. Strictly
    /// increasing per window; consumers use it to coalesce (latest wins)
    /// and to assert they never observe an older state after a newer one.
    pub generation: u64,
}

/// How a window's browse cursor is chosen; the window keeps it, so a QBF
/// query, clearing it and a sort rebuild the cursor the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CursorStrategy {
    /// Let [`BrowseCursor::open`] pick the page source from the view and
    /// the window's query.
    #[default]
    Auto,
    /// Force a fully materialized cursor (benches measure the O(N) refill
    /// baseline against it; also the only strategy that holds a whole join
    /// result).
    Materialized,
}

/// The world: database, views, forms, sessions, windows, locks, screen.
pub struct World {
    cfg: WorldConfig,
    db: Database,
    views: ViewCatalog,
    /// Cached view → base-table map used by write propagation; invalidated
    /// automatically when either catalog's generation moves (DDL).
    deps: DepIndex,
    locks: LockManager,
    sessions: BTreeMap<SessionId, Session>,
    pub(crate) windows: BTreeMap<WinId, WindowState>,
    tree: WindowTree,
    damage: DamageTracker,
    next_session: u32,
    next_window: u32,
    /// Cascade offset for default window placement.
    cascade: u16,
    /// Aggregate counters.
    pub stats: WorldStats,
    /// When set, every window refresh appends a [`RefreshEvent`] here for
    /// [`World::take_refresh_events`] to drain.
    notify_refreshes: bool,
    refresh_events: Vec<RefreshEvent>,
    /// Live-connection rows for the `__wow_connections` system view,
    /// supplied by an embedding network server (none when embedded).
    conn_provider: Option<crate::sys::ConnectionsProvider>,
}

impl World {
    /// A fresh world over an in-memory database.
    pub fn new(cfg: WorldConfig) -> World {
        World::with_db(cfg, Database::in_memory())
    }

    /// Open (or create) a durable world in `dir`, running crash recovery
    /// first: the last checkpoint is loaded and the committed tail of the
    /// WAL replayed (see [`wow_rel::durable`]). What recovery did is
    /// readable via [`wow_rel::db::Database::recovery_report`] and the
    /// `recovery.*` gauges of `__wow_metrics`.
    pub fn open_durable(cfg: WorldConfig, dir: &std::path::Path) -> WowResult<World> {
        let mut db = Database::open_durable(dir)?;
        db.set_checkpoint_every(wow_rel::durable::resolve_checkpoint_every(
            cfg.checkpoint_every,
        ));
        Ok(World::with_db(cfg, db))
    }

    /// Take a durable checkpoint now (snapshot + WAL rotation). Errors on
    /// worlds that were not opened with [`World::open_durable`] or while a
    /// database transaction is open.
    pub fn checkpoint_durable(&mut self) -> WowResult<()> {
        self.db.checkpoint_durable()?;
        Ok(())
    }

    /// A world over a caller-prepared database (e.g. WAL-enabled).
    pub fn with_db(cfg: WorldConfig, mut db: Database) -> World {
        db.set_workers(wow_par::resolve_workers(cfg.workers));
        wow_obs::tracer()
            .set_slow_threshold_ns(wow_obs::resolve_slow_threshold_ns(cfg.slow_query_ns));
        World {
            cfg,
            db,
            views: ViewCatalog::new(),
            deps: DepIndex::new(),
            locks: LockManager::new(),
            sessions: BTreeMap::new(),
            windows: BTreeMap::new(),
            tree: WindowTree::new(),
            damage: DamageTracker::new(),
            next_session: 1,
            next_window: 1,
            cascade: 0,
            stats: WorldStats::default(),
            notify_refreshes: false,
            refresh_events: Vec::new(),
            conn_provider: None,
        }
    }

    /// Turn refresh-event recording on or off. While on, every window
    /// refresh (delta or full, whatever triggered it) appends a
    /// [`RefreshEvent`]; the embedding server drains them with
    /// [`World::take_refresh_events`] after each request it executes and
    /// turns them into push notifications. Turning recording off clears
    /// any undrained events.
    pub fn enable_refresh_events(&mut self, on: bool) {
        self.notify_refreshes = on;
        if !on {
            self.refresh_events.clear();
        }
    }

    /// Drain the refresh events recorded since the last drain.
    pub fn take_refresh_events(&mut self) -> Vec<RefreshEvent> {
        std::mem::take(&mut self.refresh_events)
    }

    /// Mark a window brought current: bump its generation, stamp the
    /// refresh kind/time, clear staleness, reload the form in Browse mode,
    /// and (when event recording is on) log a [`RefreshEvent`]. Every
    /// refresh path funnels through here so generations are monotonic no
    /// matter which path ran.
    pub(crate) fn note_refresh(&mut self, win: WinId, kind: crate::window_mgr::RefreshKind) {
        let Some(w) = self.windows.get_mut(&win) else {
            return;
        };
        w.generation += 1;
        w.last_refresh = kind;
        w.refreshed_at = std::time::Instant::now();
        w.stale = false;
        if matches!(w.mode, Mode::Browse) {
            w.show_current();
        }
        let event = RefreshEvent {
            win,
            session: w.session,
            kind,
            generation: w.generation,
        };
        if self.notify_refreshes {
            self.refresh_events.push(event);
        }
    }

    /// The configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    /// The database (read).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The database (write) — setup/DDL path; windows do not see external
    /// writes until their next refresh, exactly like 1983 terminals.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The view catalog.
    pub fn views(&self) -> &ViewCatalog {
        &self.views
    }

    /// The cached view-dependency index (inspection; benches read its
    /// rebuild counter to assert the warm path recomputes nothing).
    pub fn dep_index(&self) -> &DepIndex {
        &self.deps
    }

    /// Split borrow used by propagation: database + view catalog + windows
    /// (read) alongside the dependency cache (write).
    pub(crate) fn dep_parts(
        &mut self,
    ) -> (
        &Database,
        &ViewCatalog,
        &BTreeMap<WinId, WindowState>,
        &mut DepIndex,
    ) {
        (&self.db, &self.views, &self.windows, &mut self.deps)
    }

    /// Split borrow used by delta computation: database (write — residual
    /// queries bump probe counters) + view catalog alongside the plan cache.
    pub(crate) fn delta_parts(&mut self) -> (&mut Database, &ViewCatalog, &mut DepIndex) {
        (&mut self.db, &self.views, &mut self.deps)
    }

    /// The lock manager (inspection).
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// Install (or clear) the provider behind the `__wow_connections`
    /// system view. A network server hands in a closure over its live
    /// connection registry; `sys_sync` calls it to materialize one row per
    /// connection. With no provider the view exists but is empty.
    pub fn set_connections_provider(&mut self, p: Option<crate::sys::ConnectionsProvider>) {
        self.conn_provider = p;
    }

    pub(crate) fn connection_rows(&self) -> Vec<crate::sys::ConnectionInfo> {
        self.conn_provider.as_ref().map(|p| p()).unwrap_or_default()
    }

    /// Split borrow used by the mode modules: database + views + one
    /// window, simultaneously.
    pub(crate) fn parts(
        &mut self,
        win: WinId,
    ) -> WowResult<(&mut Database, &ViewCatalog, &mut WindowState)> {
        let w = self
            .windows
            .get_mut(&win)
            .ok_or(WowError::NoSuchWindow(win.0))?;
        Ok((&mut self.db, &self.views, w))
    }

    /// Define (and register) a view from QUEL source:
    /// `RANGE OF e IS emp RETRIEVE (...) WHERE ...`.
    pub fn define_view(&mut self, name: &str, src: &str) -> WowResult<()> {
        let def = ViewDef::parse(name, src)?;
        // Every range must resolve to a table or an existing view.
        for (_, t) in &def.ranges {
            if !self.db.catalog().has_table(t) && !self.views.has(t) {
                return Err(WowError::Rel(wow_rel::RelError::NoSuchTable(t.clone())));
            }
        }
        self.views.register(def)?;
        Ok(())
    }

    /// Replace a view's definition (drop + re-register atomically: the old
    /// definition is restored if the new one is rejected). Windows already
    /// open on the view pick up the new definition at their next refresh,
    /// and the dependency cache re-derives itself before the next
    /// propagation.
    pub fn redefine_view(&mut self, name: &str, src: &str) -> WowResult<()> {
        let def = ViewDef::parse(name, src)?;
        for (_, t) in &def.ranges {
            if t != name && !self.db.catalog().has_table(t) && !self.views.has(t) {
                return Err(WowError::Rel(wow_rel::RelError::NoSuchTable(t.clone())));
            }
        }
        let old = self.views.remove(name)?;
        if let Err(e) = self.views.register(def) {
            self.views
                .register(old)
                .expect("restoring the prior definition");
            return Err(e.into());
        }
        Ok(())
    }

    // -- Sessions ---------------------------------------------------------------

    /// Open a session.
    pub fn open_session(&mut self) -> SessionId {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        self.sessions.insert(id, Session::new(self.cfg.undo_depth));
        id
    }

    /// Close a session: closes its windows, releases its locks.
    pub fn close_session(&mut self, session: SessionId) -> WowResult<()> {
        let s = self
            .sessions
            .remove(&session)
            .ok_or(WowError::NoSuchSession(session.0))?;
        for win in s.windows {
            if let Some(state) = self.windows.remove(&win) {
                self.tree.close(state.tui);
            }
        }
        self.locks.release_all(session.0);
        Ok(())
    }

    /// The open sessions.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.sessions.keys().copied().collect()
    }

    pub(crate) fn session_mut(&mut self, session: SessionId) -> WowResult<&mut Session> {
        self.sessions
            .get_mut(&session)
            .ok_or(WowError::NoSuchSession(session.0))
    }

    // -- Locking -------------------------------------------------------------------

    /// Take a lock for a session, mapping denial to errors. No-op when
    /// locking is disabled in the config (the Table 5 baseline).
    pub(crate) fn lock(
        &mut self,
        session: SessionId,
        table: &str,
        mode: LockMode,
    ) -> WowResult<()> {
        if !self.cfg.locking {
            return Ok(());
        }
        match self.locks.acquire(session.0, table, mode) {
            LockOutcome::Granted => Ok(()),
            LockOutcome::Conflict { blockers } => Err(WowError::LockConflict {
                table: table.to_string(),
                blocker: blockers.first().copied().unwrap_or(0),
            }),
            LockOutcome::Deadlock => Err(WowError::Deadlock {
                table: table.to_string(),
            }),
        }
    }

    /// Try to take a lock explicitly (long transactions, tests, benches).
    /// Returns whether the lock was granted — always `true` when locking is
    /// disabled, which is exactly the unsafe baseline Table 5 measures.
    pub fn try_lock(&mut self, session: SessionId, table: &str, mode: LockMode) -> bool {
        self.lock(session, table, mode).is_ok()
    }

    /// Release every lock a session holds (end of its transaction).
    pub fn release_locks(&mut self, session: SessionId) {
        self.locks.release_all(session.0);
    }

    // -- Windows -----------------------------------------------------------------

    /// Open a window on a view. `rect` defaults to a cascaded placement.
    pub fn open_window(
        &mut self,
        session: SessionId,
        view: &str,
        rect: Option<Rect>,
    ) -> WowResult<WinId> {
        self.open_window_styled(session, view, rect, crate::window_mgr::WindowStyle::Form)
    }

    /// Open a window with an explicit browse presentation (form or grid).
    pub fn open_window_styled(
        &mut self,
        session: SessionId,
        view: &str,
        rect: Option<Rect>,
        style: crate::window_mgr::WindowStyle,
    ) -> WowResult<WinId> {
        self.open_window_using(session, view, rect, style, CursorStrategy::Auto)
    }

    /// Open a window with an explicit cursor strategy (benches force
    /// `Materialized` to measure the full-refill baseline).
    pub fn open_window_using(
        &mut self,
        session: SessionId,
        view: &str,
        rect: Option<Rect>,
        style: crate::window_mgr::WindowStyle,
        strategy: CursorStrategy,
    ) -> WowResult<WinId> {
        if !self.sessions.contains_key(&session) {
            return Err(WowError::NoSuchSession(session.0));
        }
        let mut span = wow_obs::span(wow_obs::Op::BrowseOpen);
        // System views materialize the world's own runtime state: create
        // and fill their backing tables before the standard machinery runs,
        // then everything below works unchanged.
        let sys = crate::sys::is_sys_view(view);
        if sys {
            self.sys_sync()?;
        }
        // Updatability decides the cursor strategy and writability.
        let (upd, reasons) = match analyze(&self.db, &self.views, view) {
            Ok(u) => (Some(u), Vec::new()),
            Err(wow_views::ViewError::NotUpdatable { .. }) => {
                (None, why_not(&self.db, &self.views, view))
            }
            Err(other) => return Err(other.into()),
        };
        // System windows are read-only regardless of what updatability
        // analysis says about their (perfectly ordinary) backing tables:
        // writing metrics through a form is meaningless. They also force a
        // materialized cursor — a stable snapshot of state that changes
        // under the reader's feet.
        let (upd, reasons, strategy) = if sys {
            (
                None,
                vec!["system tables are read-only".to_string()],
                CursorStrategy::Materialized,
            )
        } else {
            (upd, reasons, strategy)
        };
        let schema = match &upd {
            Some(u) => view_schema_of(&self.db, u)?,
            None => view_schema(&self.db, &self.views, view)?,
        };
        let query = ViewQuery::default();
        let cursor = BrowseCursor::open(
            &mut self.db,
            &self.views,
            view,
            upd.as_ref(),
            &query,
            strategy,
            self.cfg.page_size,
        )?;
        // Writable mask: updatable views expose their plain base columns.
        let writable: Vec<bool> = match &upd {
            Some(u) => (0..schema.len()).map(|i| u.is_writable(i)).collect(),
            None => vec![false; schema.len()],
        };
        // A designer-stored form (if one was saved to the database)
        // overrides the compiled default.
        let spec = match self.load_form_spec(view) {
            Some(stored) if stored.fields.len() == schema.len() => stored,
            _ => compile_form(view, view, &schema, &writable),
        };
        let form = FormInstance::new(spec);
        let rect = rect.unwrap_or_else(|| {
            let r = Rect::new(
                2 + self.cascade as i32 * 3,
                1 + self.cascade as i32,
                46,
                (schema.len() as u16 + 4)
                    .min(self.cfg.screen.h.saturating_sub(2))
                    .max(5),
            );
            self.cascade = (self.cascade + 1) % 8;
            r
        });
        let tui = self.tree.create(rect, view);
        let id = WinId(self.next_window);
        self.next_window += 1;
        let mut state = WindowState {
            id,
            session,
            view: view.to_string(),
            upd,
            read_only_reasons: reasons,
            schema,
            form,
            cursor,
            mode: Mode::Browse,
            tui,
            style,
            original: None,
            query,
            strategy,
            status: String::new(),
            stale: false,
            last_refresh: crate::window_mgr::RefreshKind::Open,
            refreshed_at: std::time::Instant::now(),
            generation: 1,
        };
        state.show_current();
        self.windows.insert(id, state);
        self.session_mut(session)?.add_window(id);
        span.arg(id.0 as u64);
        Ok(id)
    }

    /// Close a window.
    pub fn close_window(&mut self, win: WinId) -> WowResult<()> {
        let state = self
            .windows
            .remove(&win)
            .ok_or(WowError::NoSuchWindow(win.0))?;
        self.tree.close(state.tui);
        if let Ok(s) = self.session_mut(state.session) {
            s.remove_window(win);
        }
        Ok(())
    }

    /// Borrow a window's state.
    pub fn window(&self, win: WinId) -> WowResult<&WindowState> {
        self.windows.get(&win).ok_or(WowError::NoSuchWindow(win.0))
    }

    /// Mutably borrow a window's state.
    pub fn window_mut(&mut self, win: WinId) -> WowResult<&mut WindowState> {
        self.windows
            .get_mut(&win)
            .ok_or(WowError::NoSuchWindow(win.0))
    }

    /// All open windows.
    pub fn window_ids(&self) -> Vec<WinId> {
        self.windows.keys().copied().collect()
    }

    /// The focused window (topmost on screen), if any.
    pub fn focused_window(&self) -> Option<WinId> {
        let tui = self.tree.focused()?;
        self.windows.values().find(|w| w.tui == tui).map(|w| w.id)
    }

    /// Focus (and raise) a window.
    pub fn focus_window(&mut self, win: WinId) -> WowResult<()> {
        let tui = self.window(win)?.tui;
        self.tree.focus(tui);
        Ok(())
    }

    /// Cycle focus to the next window.
    pub fn focus_next_window(&mut self) -> Option<WinId> {
        self.tree.focus_next();
        self.focused_window()
    }

    /// The screen rectangle of a window's frame.
    pub fn window_rect(&self, win: WinId) -> WowResult<Rect> {
        let tui = self.window(win)?.tui;
        Ok(self.tree.get(tui).map(|w| w.rect()).unwrap_or_default())
    }

    /// Move a window's frame.
    pub fn move_window(&mut self, win: WinId, x: i32, y: i32) -> WowResult<()> {
        let tui = self.window(win)?.tui;
        if let Some(w) = self.tree.get_mut(tui) {
            w.move_to(x, y);
        }
        Ok(())
    }

    /// Resize a window's frame (contents repaint on the next frame).
    pub fn resize_window(&mut self, win: WinId, w: u16, h: u16) -> WowResult<()> {
        let tui = self.window(win)?.tui;
        if let Some(tw) = self.tree.get_mut(tui) {
            tw.resize(w, h);
        }
        Ok(())
    }

    // -- Browsing ---------------------------------------------------------------

    /// The current row of a window (view-shaped).
    pub fn current_row(&self, win: WinId) -> WowResult<Option<Tuple>> {
        Ok(self.window(win)?.cursor.current_row().map(|(_, t)| t))
    }

    /// Move to the next row.
    pub fn browse_next(&mut self, win: WinId) -> WowResult<bool> {
        let (db, vc, w) = self.parts(win)?;
        let moved = w.cursor.next(db, vc)?;
        w.show_current();
        Ok(moved)
    }

    /// Move to the previous row.
    pub fn browse_prev(&mut self, win: WinId) -> WowResult<bool> {
        let (db, vc, w) = self.parts(win)?;
        let moved = w.cursor.prev(db, vc)?;
        w.show_current();
        Ok(moved)
    }

    /// Page forward (a screenful).
    pub fn browse_next_page(&mut self, win: WinId) -> WowResult<bool> {
        let (db, vc, w) = self.parts(win)?;
        let moved = w.cursor.next_page(db, vc)?;
        w.show_current();
        Ok(moved)
    }

    /// Page backward.
    pub fn browse_prev_page(&mut self, win: WinId) -> WowResult<bool> {
        let (db, vc, w) = self.parts(win)?;
        let moved = w.cursor.prev_page(db, vc)?;
        w.show_current();
        Ok(moved)
    }

    /// Rebuild a window's cursor for `query` (QBF restriction plus sort)
    /// under the window's own strategy. Query-by-form, clearing it and
    /// sorting all come through here.
    pub(crate) fn requery_window(&mut self, win: WinId, query: ViewQuery) -> WowResult<()> {
        let page_size = self.cfg.page_size;
        let (db, vc, w) = self.parts(win)?;
        let upd = w.upd.as_ref();
        w.cursor = BrowseCursor::open(db, vc, &w.view, upd, &query, w.strategy, page_size)?;
        w.query = query;
        // The rebuilt cursor read the current data, so any staleness
        // accrued meanwhile (say, while the user typed a query) is gone.
        w.stale = false;
        w.show_current();
        Ok(())
    }

    /// Re-fetch a window's data explicitly.
    pub fn refresh_window(&mut self, win: WinId) -> WowResult<()> {
        // System windows re-materialize live state before re-querying, so a
        // refresh shows the world as of *now*, not as of open.
        if crate::sys::is_sys_view(&self.window(win)?.view) {
            self.sys_sync()?;
        }
        let span = wow_obs::span(wow_obs::Op::FullRefresh);
        let (db, vc, w) = self.parts(win)?;
        w.cursor.refresh(db, vc)?;
        self.note_refresh(win, crate::window_mgr::RefreshKind::Full);
        span.finish();
        Ok(())
    }

    // -- External writes ---------------------------------------------------------

    /// Insert a base row from outside any window (scripts, loaders, tests)
    /// and propagate the delta to every watching window.
    pub fn apply_insert(&mut self, table: &str, values: Vec<Value>) -> WowResult<Rid> {
        let delta = self.apply(table, None, Some(values))?;
        Ok(delta.inserted[0].0)
    }

    /// Update a base row in place from outside any window and propagate.
    /// Returns whether the rid existed.
    pub fn apply_update(&mut self, table: &str, rid: Rid, values: Vec<Value>) -> WowResult<bool> {
        Ok(!self.apply(table, Some(rid), Some(values))?.is_empty())
    }

    /// Delete a base row from outside any window and propagate. Returns
    /// whether the rid existed.
    pub fn apply_delete(&mut self, table: &str, rid: Rid) -> WowResult<bool> {
        Ok(!self.apply(table, Some(rid), None)?.is_empty())
    }

    /// One base write from outside any window, propagated.
    fn apply(
        &mut self,
        table: &str,
        rid: Option<Rid>,
        row: Option<Vec<Value>>,
    ) -> WowResult<BaseDelta> {
        let delta = self.write_base(table, rid, row)?;
        self.propagate_delta(&delta)?;
        Ok(delta)
    }

    // -- Rendering -----------------------------------------------------------------

    /// Render every window and return the damage patches for this frame.
    pub fn render(&mut self) -> Vec<Patch> {
        for state in self.windows.values_mut() {
            if let Some(tw) = self.tree.get_mut(state.tui) {
                state.render_into(tw);
            }
        }
        let frame = self.tree.compose(self.cfg.screen);
        let patches = self.damage.frame(&frame);
        self.stats.frames += 1;
        self.stats.cells_emitted += patches.len() as u64;
        patches
    }

    /// Render and present to a backend.
    pub fn render_to(&mut self, backend: &mut dyn wow_tui::backend::Backend) {
        let patches = self.render();
        backend.present(&patches);
        backend.flush();
    }

    /// Render to a fresh screen snapshot (tests/examples).
    pub fn render_snapshot(&mut self) -> Vec<String> {
        for state in self.windows.values_mut() {
            if let Some(tw) = self.tree.get_mut(state.tui) {
                state.render_into(tw);
            }
        }
        self.tree.compose(self.cfg.screen).to_strings()
    }

    // -- Key routing -----------------------------------------------------------------

    /// Route a key press to the focused window; the global chords are
    /// `Ctrl-W` (cycle windows) and, in Browse mode, single-letter commands
    /// (`e`dit, `i`nsert, `q`uery, `d`elete, `u`ndo, `r`efresh).
    pub fn handle_key(&mut self, key: Key) -> WowResult<()> {
        if key == Key::Ctrl('w') {
            self.focus_next_window();
            return Ok(());
        }
        let Some(win) = self.focused_window() else {
            return Ok(());
        };
        let mode = self.window(win)?.mode;
        match mode {
            Mode::Browse => self.browse_key(win, key),
            Mode::Edit | Mode::Insert | Mode::Query => self.form_key(win, key),
        }
    }

    fn browse_key(&mut self, win: WinId, key: Key) -> WowResult<()> {
        match key {
            Key::Down => {
                self.browse_next(win)?;
            }
            Key::Up => {
                self.browse_prev(win)?;
            }
            Key::PageDown => {
                self.browse_next_page(win)?;
            }
            Key::PageUp => {
                self.browse_prev_page(win)?;
            }
            Key::Char('e') => self.enter_edit(win)?,
            Key::Char('i') => self.enter_insert(win)?,
            Key::Char('q') => self.enter_query(win)?,
            Key::Char('d') => {
                if let Err(e) = self.delete_current(win) {
                    self.set_status(win, &e.to_string());
                }
            }
            Key::Char('u') => {
                let session = self.window(win)?.session;
                match self.undo_last(session) {
                    Ok(()) => self.set_status(win, "undone"),
                    Err(e) => self.set_status(win, &e.to_string()),
                }
            }
            Key::Char('r') => self.refresh_window(win)?,
            Key::Char('x') => {
                // Clear an active query restriction.
                self.clear_query(win)?;
            }
            _ => {}
        }
        Ok(())
    }

    fn form_key(&mut self, win: WinId, key: Key) -> WowResult<()> {
        use wow_tui::widget::Response;
        let response = {
            let w = self.window_mut(win)?;
            if key == Key::Enter {
                Response::Submit
            } else if key == Key::Esc {
                Response::Cancel
            } else {
                w.form.handle_key(key)
            }
        };
        match response {
            Response::Submit => match self.commit(win) {
                Ok(()) => {}
                Err(e) => self.set_status(win, &e.to_string()),
            },
            Response::Cancel => self.cancel_mode(win)?,
            _ => {}
        }
        Ok(())
    }

    /// Set a window's status message.
    pub fn set_status(&mut self, win: WinId, msg: &str) {
        if let Some(w) = self.windows.get_mut(&win) {
            w.status = msg.to_string();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world_with_emp() -> World {
        let mut w = World::new(WorldConfig::default());
        w.db_mut()
            .run("CREATE TABLE emp (name TEXT KEY, dept TEXT, salary INT)")
            .unwrap();
        for (n, d, s) in [
            ("alice", "toy", 120),
            ("bob", "shoe", 90),
            ("carol", "toy", 150),
        ] {
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
        w
    }

    #[test]
    fn durable_world_survives_reopen_with_windows() {
        let dir = std::env::temp_dir().join(format!("wow-world-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut w = World::open_durable(WorldConfig::default(), &dir).unwrap();
            w.db_mut()
                .run("CREATE TABLE emp (name TEXT KEY, salary INT)")
                .unwrap();
            w.db_mut()
                .run(r#"APPEND TO emp (name = "alice", salary = 120)"#)
                .unwrap();
            w.db_mut()
                .run(r#"APPEND TO emp (name = "bob", salary = 90)"#)
                .unwrap();
            w.checkpoint_durable().unwrap();
            w.db_mut()
                .run(r#"APPEND TO emp (name = "carol", salary = 150)"#)
                .unwrap();
            // "Crash" without a clean shutdown.
        }
        let mut w = World::open_durable(WorldConfig::default(), &dir).unwrap();
        let rows = w
            .db_mut()
            .run("RANGE OF e IS emp RETRIEVE (e.name) SORT BY e.name")
            .unwrap();
        let names: Vec<String> = rows
            .tuples
            .iter()
            .map(|t| t.values[0].to_string())
            .collect();
        assert_eq!(names, vec!["alice", "bob", "carol"]);
        // Recovery + WAL gauges surface through the metrics export.
        w.define_view("emps", "RANGE OF e IS emp RETRIEVE (e.name, e.salary)")
            .unwrap();
        let s = w.open_session();
        let win = w.open_window(s, "emps", None).unwrap();
        assert!(w.current_row(win).is_ok());
        w.export_metrics();
        let snap = wow_obs::metrics().snapshot();
        assert!(snap.counter("wal.epoch").is_some());
        assert!(snap.counter("recovery.replayed_ops").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_window_shows_first_row() {
        let mut w = world_with_emp();
        let s = w.open_session();
        let win = w.open_window(s, "emps", None).unwrap();
        let row = w.current_row(win).unwrap().unwrap();
        assert_eq!(row.values[0].to_string(), "alice");
        assert!(w.window(win).unwrap().is_updatable());
    }

    #[test]
    fn browse_moves_through_pk_order() {
        let mut w = world_with_emp();
        let s = w.open_session();
        let win = w.open_window(s, "emps", None).unwrap();
        assert!(w.browse_next(win).unwrap());
        assert_eq!(
            w.current_row(win).unwrap().unwrap().values[0].to_string(),
            "bob"
        );
        assert!(w.browse_next(win).unwrap());
        assert!(!w.browse_next(win).unwrap(), "end of data");
        assert!(w.browse_prev(win).unwrap());
        assert_eq!(
            w.current_row(win).unwrap().unwrap().values[0].to_string(),
            "bob"
        );
    }

    #[test]
    fn unknown_ids_error() {
        let mut w = world_with_emp();
        assert!(matches!(
            w.open_window(SessionId(99), "emps", None),
            Err(WowError::NoSuchSession(99))
        ));
        let s = w.open_session();
        assert!(w.open_window(s, "nope", None).is_err());
        assert!(matches!(
            w.current_row(WinId(42)),
            Err(WowError::NoSuchWindow(42))
        ));
    }

    #[test]
    fn close_session_closes_windows() {
        let mut w = world_with_emp();
        let s = w.open_session();
        let win = w.open_window(s, "emps", None).unwrap();
        w.close_session(s).unwrap();
        assert!(w.window(win).is_err());
        assert_eq!(w.render_snapshot().join(""), " ".repeat(80 * 24));
    }

    #[test]
    fn render_snapshot_shows_form_and_status() {
        let mut w = world_with_emp();
        let s = w.open_session();
        w.open_window(s, "emps", None).unwrap();
        let screen = w.render_snapshot();
        let all = screen.join("\n");
        assert!(all.contains("emps"), "window title:\n{all}");
        assert!(all.contains("Name:"), "captions:\n{all}");
        assert!(all.contains("alice"), "values:\n{all}");
        assert!(all.contains("Browse"), "status:\n{all}");
        assert!(all.contains("row 1"), "position:\n{all}");
    }

    #[test]
    fn damage_render_is_quiet_when_idle() {
        let mut w = world_with_emp();
        let s = w.open_session();
        w.open_window(s, "emps", None).unwrap();
        let first = w.render();
        assert!(!first.is_empty());
        let second = w.render();
        assert!(second.is_empty(), "no change → no damage");
    }

    #[test]
    fn ctrl_w_cycles_focus() {
        let mut w = world_with_emp();
        let s = w.open_session();
        let a = w.open_window(s, "emps", None).unwrap();
        let b = w.open_window(s, "emps", None).unwrap();
        assert_eq!(w.focused_window(), Some(b));
        w.handle_key(Key::Ctrl('w')).unwrap();
        assert_eq!(w.focused_window(), Some(a));
    }
}
