//! Window state: modes, the per-window record, and rendering.

use crate::browse::BrowseCursor;
use crate::session::SessionId;
use crate::world::CursorStrategy;
use std::fmt;
use wow_forms::FormInstance;
use wow_rel::schema::Schema;
use wow_rel::value::Value;
use wow_tui::geom::Rect;
use wow_tui::tree::WindowId as TuiId;
use wow_tui::widget::Widget;
use wow_views::expand::ViewQuery;
use wow_views::keyed::Keyed;

/// Identifier of a logical window (a form over a view).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WinId(pub u32);

impl fmt::Display for WinId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "window {}", self.0)
    }
}

/// How the window displays rows while browsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowStyle {
    /// One record at a time, as a form (the classic 1983 presentation).
    #[default]
    Form,
    /// A whole page of records as a grid with a selection bar; editing
    /// still happens on the form, which replaces the grid in Edit/Insert/
    /// Query modes.
    Grid,
}

/// What the window is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Walking the view's rows; the form shows the current row read-only.
    #[default]
    Browse,
    /// The form's writable fields are open for editing the current row.
    Edit,
    /// The form is blank, collecting a new row.
    Insert,
    /// The form is blank, collecting query-by-form restrictions.
    Query,
}

impl Mode {
    /// Status-line name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Browse => "Browse",
            Mode::Edit => "Edit",
            Mode::Insert => "Insert",
            Mode::Query => "Query",
        }
    }
}

/// How a window's displayed rows were last brought up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshKind {
    /// The initial fill at open time.
    #[default]
    Open,
    /// The view query was re-run (full refresh).
    Full,
    /// The screenful was patched in place from a view delta.
    Delta,
}

impl RefreshKind {
    /// Stable lowercase name (status line, `__wow_windows` rows).
    pub fn name(self) -> &'static str {
        match self {
            RefreshKind::Open => "open",
            RefreshKind::Full => "full",
            RefreshKind::Delta => "delta",
        }
    }
}

/// Compact age display for the status line: seconds up to a minute, then
/// whole minutes (precision nobody reads is just status-bar churn).
fn fmt_age(secs: u64) -> String {
    if secs < 60 {
        format!("{secs}s")
    } else {
        format!("{}m", secs / 60)
    }
}

/// The full state of one window.
#[derive(Debug)]
pub struct WindowState {
    /// Logical id.
    pub id: WinId,
    /// Owning session.
    pub session: SessionId,
    /// The view this window looks through.
    pub view: String,
    /// What the view analysis ([`wow_views::keyed`]) proved: the keyed
    /// view, which the cursor walks when it has a primary-key index and
    /// the window writes through when it carries writes; `None` for a view
    /// with no key to read by, which only a Snapshot holds.
    pub access: Option<Keyed>,
    /// Why the window is read-only (empty when updatable).
    pub read_only_reasons: Vec<String>,
    /// The view's schema (bare column names).
    pub schema: Schema,
    /// The live form.
    pub form: FormInstance,
    /// The form the window browses with, set aside while Query mode
    /// collects restrictions on a copy with every field open; put back
    /// when the window returns to Browse.
    pub browse_form: Option<FormInstance>,
    /// The browse cursor.
    pub cursor: BrowseCursor,
    /// Current mode.
    pub mode: Mode,
    /// The screen window this renders into.
    pub tui: TuiId,
    /// Browse presentation.
    pub style: WindowStyle,
    /// Row image captured when Edit mode was entered.
    pub original: Option<Vec<Value>>,
    /// What the window browses: the active query-by-form restriction (if
    /// any) and sort order. The cursor is rebuilt from it.
    pub query: ViewQuery,
    /// How the cursor's page source is chosen.
    pub strategy: CursorStrategy,
    /// Status-line message (errors, confirmations).
    pub status: String,
    /// Set when another window changed data this window may display while
    /// this window couldn't be refreshed (it was mid-edit), and when the
    /// view was redefined.
    pub stale: bool,
    /// Set when the view was redefined after `access`, `schema`, `form` and
    /// `cursor` were derived from it; the next refresh or requery derives
    /// them again from the new definition.
    pub redefined: bool,
    /// How the displayed rows were last brought current.
    pub last_refresh: RefreshKind,
    /// When the displayed rows were last brought current.
    pub refreshed_at: std::time::Instant,
    /// Monotonic refresh generation: 1 at open, +1 on every refresh
    /// (delta or full). Remote viewers use it to order pushed screenfuls —
    /// a consumer that only accepts increasing generations can never
    /// regress to an older state, however pushes are coalesced or delayed.
    pub generation: u64,
}

impl WindowState {
    /// Whether the window can write through its view.
    pub fn is_updatable(&self) -> bool {
        self.access.as_ref().is_some_and(|k| k.writes.is_some())
    }

    /// Load the form from the cursor's current row (Browse display).
    pub fn show_current(&mut self) {
        match self.cursor.current_row() {
            Some((_, tuple)) => self.form.fill(&tuple.values),
            None => self.form.clear(),
        }
    }

    /// The one-line status for the window's bottom row.
    pub fn status_line(&self) -> (String, String) {
        let left = if self.status.is_empty() {
            let ro = if self.is_updatable() {
                ""
            } else {
                " [read-only]"
            };
            let q = if self.query.pred.is_some() {
                " [query]"
            } else {
                ""
            };
            let stale = if self.stale { " [stale]" } else { "" };
            // Freshness: which refresh path last ran and how old the rows
            // are. Suppressed until the first refresh — an untouched window
            // is exactly as fresh as its open.
            let fresh = match self.last_refresh {
                RefreshKind::Open => String::new(),
                kind => format!(
                    " [{} {}]",
                    kind.name(),
                    fmt_age(self.refreshed_at.elapsed().as_secs())
                ),
            };
            format!("{}{ro}{q}{stale}{fresh}", self.mode.name())
        } else {
            self.status.clone()
        };
        let right = match (self.cursor.position(), self.cursor.known_len()) {
            (Some(p), Some(n)) => format!("row {}/{}", p + 1, n),
            (Some(p), None) => format!("row {}", p + 1),
            (None, Some(0)) | (None, None) => "no rows".to_string(),
            (None, Some(n)) => format!("{n} rows"),
        };
        (left, right)
    }

    /// Paint the window's interior: the form (or grid) plus the status row.
    pub fn render_into(&mut self, tui_win: &mut wow_tui::window::Window) {
        let local = tui_win.local();
        let buf = tui_win.content_mut();
        buf.clear();
        if local.is_empty() {
            return;
        }
        let body = Rect::new(local.x, local.y, local.w, local.h.saturating_sub(1));
        let active = matches!(self.mode, Mode::Edit | Mode::Insert | Mode::Query);
        let grid_browse = self.style == WindowStyle::Grid && self.mode == Mode::Browse;
        if grid_browse {
            self.render_grid(buf, body);
        } else {
            self.form.render(buf, body, active);
        }
        let (left, right) = self.status_line();
        let mut bar = wow_tui::widget::StatusBar::new();
        bar.set(left, right);
        bar.render(buf, local.row(local.h - 1), false);
    }

    /// Grid presentation of the cursor's current page.
    fn render_grid(&self, buf: &mut wow_tui::buffer::ScreenBuffer, area: Rect) {
        use wow_tui::widget::{TableGrid, Widget};
        let headers: Vec<String> = self
            .form
            .spec
            .fields
            .iter()
            .map(|f| f.caption.clone())
            .collect();
        let widths: Vec<u16> = self.form.spec.fields.iter().map(|f| f.width).collect();
        let mut grid = TableGrid::new(headers, widths);
        let rows: Vec<Vec<String>> = self
            .cursor
            .page_rows()
            .iter()
            .map(|(_, t)| {
                t.values
                    .iter()
                    .zip(&self.form.spec.fields)
                    .map(|(v, f)| wow_forms::format::display_cell(v, f.ty, f.width))
                    .collect()
            })
            .collect();
        grid.set_rows(rows);
        grid.select(self.cursor.pos_in_page());
        grid.render(buf, area, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names() {
        assert_eq!(Mode::Browse.name(), "Browse");
        assert_eq!(Mode::Query.name(), "Query");
        assert_eq!(Mode::default(), Mode::Browse);
    }

    #[test]
    fn win_id_display() {
        assert_eq!(WinId(4).to_string(), "window 4");
    }
}
