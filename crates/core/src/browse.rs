//! Browse cursors: how a window walks its view's extension.
//!
//! One navigation, two page sources, one chooser. A [`BrowseCursor`]
//! holds the screenful on display and the cursor's slot in it; `next`,
//! `prev`, `next_page` and `prev_page` are written once over that state and
//! ask the source for nothing but "page *n*". The sources differ only in
//! where a page comes from (the Table 2 comparison):
//!
//! * **Index** — a seek into the driving table's primary-key B+tree just
//!   past the key that ended the page before, for a keyed view
//!   ([`wow_views::keyed`]). A keyed join view joins each driving row by
//!   one primary-key probe per other range, dropping it when a probe finds
//!   nothing or meets NULL (an inner join); a single-table view over a
//!   keyed table, updatable or not, is the zero-probe case, and its rows
//!   carry the base rids writes need. A page costs a page of entries and
//!   probes at any depth. A keyed view's one documented order is
//!   driving-key order: `transcript` reads in `eid` order,
//!   `shipment_detail` in `spid` order. A query-by-form restriction that
//!   bounds the view column showing the driving key's leading column
//!   (`>`, `>=`, `=`, `<`, `<=`, `lo..hi`) is a seek: the walk starts at
//!   its lower bound and stops past its upper one. Every restriction,
//!   those included, also filters the rows walked, so one on another
//!   column, `!=`, a pattern or a NULL test costs the rows it skips.
//! * **Snapshot** — the whole extension (optionally sorted) held in memory,
//!   a page being a slice of it, refilled by re-running the view on
//!   refresh. Sorted and system windows read it, and so does every view
//!   with no key to walk: aggregates, grouping, DISTINCT, joins that do not
//!   preserve a key and views whose ranges lack a primary-key index. Over
//!   an updatable view it reads the base table through the keyed view's
//!   writes, so its rows carry rids too. The only source that knows the
//!   row count.
//!
//! [`BrowseCursor::open`] is the one place a source is chosen. Whatever the
//! source, PageDown/PageUp land on the first row of the new page, a
//! position is `page · page_size + slot`, and a refresh — full or by view
//! delta — stays on the current record when it survives and otherwise
//! keeps the slot. Only a Snapshot's refill reads the view catalog, so
//! navigation and delta splices take none.

use crate::error::WowResult;
use crate::world::CursorStrategy;
use std::cmp::Ordering;
use wow_rel::bind::bind_pred;
use wow_rel::db::Database;
use wow_rel::error::RelError;
use wow_rel::eval::eval_pred;
use wow_rel::exec::sort::compare;
use wow_rel::exec::KeyBound;
use wow_rel::expr::Expr;
use wow_rel::plan::optimizer::key_range;
use wow_rel::quel::ast::SortKey;
use wow_rel::tuple::Tuple;
use wow_storage::Rid;
use wow_views::delta::{DeltaRow, ViewDelta};
use wow_views::expand::{run_view_query, ViewQuery};
use wow_views::keyed::Keyed;
use wow_views::translate::view_rows_with_rids;
use wow_views::ViewCatalog;

/// One browse row: the view-shaped tuple plus (for single-table keyed
/// views) the base rid behind it.
pub type BrowseRow = (Option<Rid>, Tuple);

/// One displayed row.
#[derive(Debug)]
struct Entry {
    rid: Option<Rid>,
    /// Driving primary-key index key on Index pages (empty elsewhere):
    /// places delta rows without re-reading the index.
    key: Vec<u8>,
    row: Tuple,
}

impl Entry {
    fn browse_row(&self) -> BrowseRow {
        (self.rid, self.row.clone())
    }
}

/// A view delta split into the rows leaving and entering a window.
type DeltaRows<'d> = (Vec<&'d DeltaRow>, Vec<&'d DeltaRow>);

/// Where pages come from.
#[derive(Debug)]
enum Source {
    Index(Box<IndexPages>),
    Snapshot(Box<Snapshot>),
}

/// Pages read through a keyed view's driving primary-key index.
#[derive(Debug)]
struct IndexPages {
    walk: Keyed,
    /// The driving table's primary-key index.
    index: String,
    /// The driving-key range the window's restriction allows.
    lower: Option<KeyBound>,
    upper: Option<KeyBound>,
    /// `starts[i]` = index key strictly before page `i` (None = start), for
    /// every page up to the current one.
    starts: Vec<Option<Vec<u8>>>,
}

/// The whole extension in memory.
#[derive(Debug)]
struct Snapshot {
    view: String,
    query: ViewQuery,
    /// A keyed view with writes: rows carry base rids, so edits and delta
    /// patches can find them; without one the window is read-only.
    writes: Option<Keyed>,
    /// `query.sort` resolved over the view row (updatable views sort here;
    /// the others sort in their query).
    sort: Vec<(usize, bool)>,
    rows: Vec<BrowseRow>,
}

/// A window's position in its view.
#[derive(Debug)]
pub struct BrowseCursor {
    source: Source,
    /// The window's query-by-form restriction resolved over the view row —
    /// Index pages and updatable snapshots (a read-only snapshot pushes it
    /// into its query).
    filter: Option<Expr>,
    page_size: usize,
    page_no: usize,
    /// The screenful on display.
    page: Vec<Entry>,
    /// The current row's slot in `page`.
    pos: usize,
    /// No page follows this one.
    at_end: bool,
}

impl BrowseCursor {
    /// Build a window's cursor — the one place a page source is chosen.
    /// Unsorted under [`CursorStrategy::Auto`], a keyed view with a
    /// primary-key index pages through it; everything else gets a Snapshot,
    /// whose rows carry rids when the keyed view writes.
    pub fn open(
        db: &mut Database,
        vc: &ViewCatalog,
        view: &str,
        keyed: Option<&Keyed>,
        query: &ViewQuery,
        strategy: CursorStrategy,
        page_size: usize,
    ) -> WowResult<BrowseCursor> {
        let incremental = strategy == CursorStrategy::Auto && query.sort.is_empty();
        match keyed {
            Some(k) if incremental && k.index.is_some() => {
                Self::keyed(db, k.clone(), page_size, query.pred.clone())
            }
            _ => {
                let writes = keyed.filter(|k| k.writes.is_some());
                Self::materialized(db, vc, view, query.clone(), writes, page_size)
            }
        }
    }

    /// An Index cursor over a keyed view ([`wow_views::keyed`]) with a
    /// primary-key index, in driving-key order. `view_pred` is an extra
    /// restriction over bare view columns (from QBF); its bounds on the
    /// view column that shows the driving index's leading column are the
    /// range the pages walk. Join rows carry no base rid.
    pub fn keyed(
        db: &mut Database,
        walk: Keyed,
        page_size: usize,
        view_pred: Option<Expr>,
    ) -> WowResult<BrowseCursor> {
        let Some(index) = walk.index.clone() else {
            return Err(RelError::NoSuchIndex(format!("pk_{}", walk.table)).into());
        };
        let bound = view_pred.map(|p| bind_pred(p, &walk.schema)).transpose()?;
        let lead = Expr::Column(db.catalog().index(&index)?.columns[0]);
        let (lower, upper, _) = match (&bound, walk.targets.iter().position(|t| *t == lead)) {
            (Some(p), Some(col)) => key_range(&p.clone().split_conjuncts(), &walk.schema, col),
            _ => (None, None, Vec::new()),
        };
        let filter = bound.map(|p| p.resolve(&walk.schema)).transpose()?;
        let source = Source::Index(Box::new(IndexPages {
            walk,
            index,
            lower,
            upper,
            starts: vec![None],
        }));
        Self::start(db, source, filter, page_size)
    }

    /// A Snapshot cursor: the whole (optionally sorted) extension, paged
    /// `page_size` rows at a time. Given a keyed view with writes, the rows
    /// carry base rids (edits allowed); without one the window is
    /// read-only.
    pub fn materialized(
        db: &mut Database,
        vc: &ViewCatalog,
        view: &str,
        query: ViewQuery,
        writes: Option<&Keyed>,
        page_size: usize,
    ) -> WowResult<BrowseCursor> {
        // Without writes the view query itself filters and sorts.
        let (mut filter, mut sort) = (None, Vec::new());
        if let Some(k) = writes {
            let bound = query.pred.clone().map(|p| bind_pred(p, &k.schema));
            filter = bound.map(|p| p?.resolve(&k.schema)).transpose()?;
            let resolve = |s: &SortKey| Ok((k.schema.resolve(&s.column)?, s.ascending));
            sort = query.sort.iter().map(resolve).collect::<WowResult<_>>()?;
        }
        let mut snap = Snapshot {
            view: view.to_string(),
            query,
            writes: writes.cloned(),
            sort,
            rows: Vec::new(),
        };
        snap.refill(db, vc, filter.as_ref())?;
        Self::start(db, Source::Snapshot(Box::new(snap)), filter, page_size)
    }

    fn start(
        db: &mut Database,
        source: Source,
        filter: Option<Expr>,
        page_size: usize,
    ) -> WowResult<BrowseCursor> {
        let mut cursor = BrowseCursor {
            source,
            filter,
            page_size: page_size.max(1),
            page_no: 0,
            page: Vec::new(),
            pos: 0,
            at_end: true,
        };
        cursor.show(db, 0, 0)?;
        Ok(cursor)
    }

    /// The current row, owned.
    pub fn current_row(&self) -> Option<BrowseRow> {
        self.page.get(self.pos).map(Entry::browse_row)
    }

    /// 0-based position of the current row: its page's first slot plus its
    /// slot in the page. Rows appearing or vanishing above an Index page
    /// move the page's contents, not its number.
    pub fn position(&self) -> Option<usize> {
        (!self.page.is_empty()).then_some(self.page_no * self.page_size + self.pos)
    }

    /// The page source: `index` or `snapshot` (what
    /// `__wow_windows.source` shows).
    pub fn source(&self) -> &'static str {
        match &self.source {
            Source::Index(_) => "index",
            Source::Snapshot(_) => "snapshot",
        }
    }

    /// Total row count, when the source knows it (Snapshot only).
    pub fn known_len(&self) -> Option<usize> {
        match &self.source {
            Source::Snapshot(s) => Some(s.rows.len()),
            Source::Index(_) => None,
        }
    }

    /// Whether the cursor currently has no row.
    pub fn is_empty(&self) -> bool {
        self.page.is_empty()
    }

    /// Index of the current row within the page returned by
    /// [`BrowseCursor::page_rows`].
    pub fn pos_in_page(&self) -> usize {
        self.pos
    }

    /// The rows of the current page (for grid displays).
    pub fn page_rows(&self) -> Vec<BrowseRow> {
        self.page.iter().map(Entry::browse_row).collect()
    }

    /// Advance one row. Returns `false` at the end.
    pub fn next(&mut self, db: &mut Database) -> WowResult<bool> {
        if self.pos + 1 < self.page.len() {
            self.pos += 1;
            return Ok(true);
        }
        self.next_page(db)
    }

    /// Step back one row. Returns `false` at the beginning.
    pub fn prev(&mut self, db: &mut Database) -> WowResult<bool> {
        if self.pos > 0 {
            self.pos -= 1;
            return Ok(true);
        }
        let moved = self.page_no > 0 && self.turn(db, self.page_no - 1)?;
        if moved {
            self.pos = self.page.len() - 1;
        }
        Ok(moved)
    }

    /// Jump to the first row of the next page. Returns `false`, leaving the
    /// cursor where it is, when already on the last page.
    pub fn next_page(&mut self, db: &mut Database) -> WowResult<bool> {
        if self.at_end {
            return Ok(false);
        }
        let moved = self.turn(db, self.page_no + 1)?;
        // A full page can be the last one; that shows only now.
        self.at_end = !moved;
        Ok(moved)
    }

    /// Jump to the first row of the previous page (of this page, on the
    /// first one).
    pub fn prev_page(&mut self, db: &mut Database) -> WowResult<bool> {
        if self.page_no == 0 {
            let moved = self.pos > 0;
            self.pos = 0;
            return Ok(moved);
        }
        self.turn(db, self.page_no - 1)
    }

    /// Re-read the current page after external writes. Stays on the current
    /// record when it survives, otherwise keeps the slot, clamped to the
    /// rows that are left.
    pub fn refresh(&mut self, db: &mut Database, vc: &ViewCatalog) -> WowResult<()> {
        let rid = self.page.get(self.pos).and_then(|e| e.rid);
        let (mut page_no, mut pos) = (self.page_no, self.pos);
        if let Source::Snapshot(s) = &mut self.source {
            s.refill(db, vc, self.filter.as_ref())?;
            // The whole extension is at hand: follow the record to its page.
            if let Some(i) = rid.and_then(|rid| s.rows.iter().position(|(r, _)| *r == Some(rid))) {
                (page_no, pos) = (i / self.page_size, i % self.page_size);
            }
        }
        self.show(db, page_no, pos)?;
        if let Some(i) = rid.and_then(|rid| self.page.iter().position(|e| e.rid == Some(rid))) {
            self.pos = i;
        }
        Ok(())
    }

    /// Apply a view delta to the displayed rows in place instead of
    /// re-running the view query, landing where [`BrowseCursor::refresh`]
    /// would: on the current record when it survives, otherwise on the same
    /// slot. Returns `false` when the source cannot (snapshots of
    /// non-updatable views, or a page/delta mismatch) — the caller then
    /// falls back to a full refresh.
    pub fn apply_delta(&mut self, db: &mut Database, delta: &ViewDelta) -> WowResult<bool> {
        let (removes, inserts) = self.delta_rows(delta)?;
        let rid = self.page.get(self.pos).and_then(|e| e.rid);
        let page_size = self.page_size;
        match &mut self.source {
            // A snapshot places rows by rid; without rids it has nothing to
            // patch by.
            Source::Snapshot(s) if s.writes.is_none() => return Ok(false),
            Source::Snapshot(_) if removes.iter().chain(&inserts).any(|dr| dr.rid.is_none()) => {
                return Ok(false)
            }
            Source::Snapshot(s) => {
                for dr in removes {
                    let Some(i) = s.rows.iter().position(|(r, _)| *r == dr.rid) else {
                        // The caller's fallback refill rebuilds everything,
                        // so partially applied removals are harmless here.
                        return Ok(false);
                    };
                    s.rows.remove(i);
                }
                for dr in inserts {
                    let i = s.slot_for(dr);
                    s.rows.insert(i, (dr.rid, dr.row.clone()));
                }
                let found = rid.and_then(|rid| s.rows.iter().position(|(r, _)| *r == Some(rid)));
                let cur = found.unwrap_or(self.page_no * page_size + self.pos);
                self.show(db, cur / page_size, cur % page_size)?;
            }
            Source::Index(ix) => {
                // The page holds the keys in `(start, last key]` — or to
                // infinity on the last page; other rows are another page's.
                let start = ix.starts[self.page_no].as_deref();
                let end = match self.at_end {
                    true => None,
                    false => self.page.last().map(|e| e.key.as_slice()),
                };
                let on_page = |dr: &&DeltaRow| {
                    let key = dr.key.as_slice();
                    start.is_none_or(|s| key > s) && end.is_none_or(|e| key <= e)
                };
                let removes: Vec<_> = removes.into_iter().filter(on_page).collect();
                let inserts: Vec<_> = inserts.into_iter().filter(on_page).collect();
                // The page and the delta disagree; re-query instead of
                // guessing.
                if !removes
                    .iter()
                    .all(|dr| self.page.iter().any(|e| e.key == dr.key))
                {
                    return Ok(false);
                }
                let page = &mut self.page;
                for dr in removes {
                    page.retain(|e| e.key != dr.key);
                }
                for dr in inserts {
                    let i = page.partition_point(|e| e.key <= dr.key);
                    page.insert(
                        i,
                        Entry {
                            rid: dr.rid,
                            key: dr.key.clone(),
                            row: dr.row.clone(),
                        },
                    );
                }
                // Spill: the page holds one screenful; extra rows belong to
                // the next page, which starts after the new last key.
                if page.len() > page_size {
                    page.truncate(page_size);
                    self.at_end = false;
                }
                let found = rid.and_then(|rid| page.iter().position(|e| e.rid == Some(rid)));
                let cur = found.unwrap_or(self.pos);
                let short = page.len() < page_size;
                self.pos = cur.min(page.len().saturating_sub(1));
                // Backfill: removals made room for rows beyond the old page
                // boundary, or emptied the last page; one page-local refetch
                // restores the screenful (still no full view re-query).
                if short && (!self.at_end || self.page.is_empty()) {
                    self.show(db, self.page_no, cur)?;
                }
            }
        }
        Ok(true)
    }

    /// Split a view delta into the rows leaving and entering this window —
    /// the delta honoured the view's predicate; the window's own restriction
    /// applies on top.
    fn delta_rows<'d>(&self, delta: &'d ViewDelta) -> WowResult<DeltaRows<'d>> {
        let shown = |dr: &DeltaRow| -> WowResult<bool> {
            Ok(match &self.filter {
                Some(p) => eval_pred(p, &dr.row)?,
                None => true,
            })
        };
        let olds = delta
            .deleted
            .iter()
            .chain(delta.updated.iter().map(|u| &u.0));
        let news = delta
            .inserted
            .iter()
            .chain(delta.updated.iter().map(|u| &u.1));
        let (mut removes, mut inserts) = (Vec::new(), Vec::new());
        for dr in olds {
            if shown(dr)? {
                removes.push(dr);
            }
        }
        for dr in news {
            if shown(dr)? {
                inserts.push(dr);
            }
        }
        Ok((removes, inserts))
    }

    /// Read page `page_no` from the source: its rows and whether it is the
    /// last page. Navigation asks only for the current page, one already
    /// visited, or the one after the current page.
    fn fetch(&mut self, db: &mut Database, page_no: usize) -> WowResult<(Vec<Entry>, bool)> {
        let n = self.page_size;
        match &mut self.source {
            Source::Index(ix) => {
                if page_no > self.page_no {
                    // The next page starts after this page's last key.
                    ix.starts.truncate(page_no);
                    ix.starts.push(self.page.last().map(|e| e.key.clone()));
                }
                ix.fetch_page(db, self.filter.as_ref(), n, ix.starts[page_no].clone())
            }
            Source::Snapshot(s) => {
                let page = s
                    .rows
                    .iter()
                    .skip(page_no * n)
                    .take(n)
                    .map(|(rid, row)| Entry {
                        rid: *rid,
                        key: Vec::new(),
                        row: row.clone(),
                    });
                Ok((page.collect(), (page_no + 1) * n >= s.rows.len()))
            }
        }
    }

    /// Make page `page_no` current with the cursor on its first row. An
    /// empty page is not entered.
    fn turn(&mut self, db: &mut Database, page_no: usize) -> WowResult<bool> {
        let (page, at_end) = self.fetch(db, page_no)?;
        if page.is_empty() {
            return Ok(false);
        }
        (self.page, self.page_no, self.at_end, self.pos) = (page, page_no, at_end, 0);
        Ok(true)
    }

    /// Display page `page_no` with the cursor at slot `pos`, clamped into
    /// the page. A page that came back empty is the view shrinking under
    /// the window: back up to the last row before it.
    fn show(&mut self, db: &mut Database, mut page_no: usize, mut pos: usize) -> WowResult<()> {
        loop {
            let (page, at_end) = self.fetch(db, page_no)?;
            (self.page, self.page_no, self.at_end) = (page, page_no, at_end);
            if !self.page.is_empty() || page_no == 0 {
                break;
            }
            (page_no, pos) = (page_no - 1, usize::MAX);
        }
        self.pos = pos.min(self.page.len().saturating_sub(1));
        Ok(())
    }
}

impl IndexPages {
    /// Fetch the page that starts strictly after driving key `start` (at
    /// the range's lower bound when `None`): up to `page_size` rows, and
    /// whether the walk reached the end of the range.
    fn fetch_page(
        &self,
        db: &mut Database,
        view_pred: Option<&Expr>,
        page_size: usize,
        start: Option<Vec<u8>>,
    ) -> WowResult<(Vec<Entry>, bool)> {
        let mut span = wow_obs::span(wow_obs::Op::BrowsePage);
        let walk = &self.walk;
        let table = db.catalog().table(&walk.table)?.id;
        let mut page = Vec::with_capacity(page_size);
        let mut after = start;
        let mut at_end = false;
        let (lower, upper) = (self.lower.as_ref(), self.upper.as_ref());
        // Keep pulling index chunks until the page is full (predicates and
        // probes can reject arbitrarily many driving rows) or the range
        // ends.
        loop {
            let mut chunk = Vec::with_capacity(page_size);
            let ended = db.index_walk(&self.index, lower, upper, after.as_deref(), |k, rid| {
                chunk.push((k.to_vec(), rid));
                chunk.len() < page_size
            })?;
            for (key, rid) in chunk {
                after = Some(key.clone());
                // `None` when the driving row was deleted under us.
                let Some(row) = db.get_row(table, rid)? else {
                    continue;
                };
                let Some(view_row) = walk.view_row(db, row)? else {
                    continue;
                };
                if let Some(p) = view_pred {
                    if !eval_pred(p, &view_row)? {
                        continue;
                    }
                }
                page.push(Entry {
                    rid: walk.probes.is_empty().then_some(rid),
                    key,
                    row: view_row,
                });
                if page.len() == page_size {
                    break;
                }
            }
            if page.len() == page_size {
                break;
            }
            if ended {
                at_end = true;
                break;
            }
        }
        // A full page might still be the last one; that is discovered on
        // the next advance (same trade every cursor implementation makes).
        span.arg(page.len() as u64);
        Ok((page, at_end))
    }
}

impl Snapshot {
    fn refill(
        &mut self,
        db: &mut Database,
        vc: &ViewCatalog,
        filter: Option<&Expr>,
    ) -> WowResult<()> {
        let mut span = wow_obs::span(wow_obs::Op::BrowsePage);
        self.rows = match &self.writes {
            // Updatable: fetch with rids, filter and sort here.
            Some(keyed) => {
                let mut rows = Vec::new();
                for (rid, t) in view_rows_with_rids(db, keyed)? {
                    if filter.map_or(Ok(true), |p| eval_pred(p, &t))? {
                        rows.push((Some(rid), t));
                    }
                }
                if !self.sort.is_empty() {
                    rows.sort_by(|a, b| compare(&a.1, &b.1, &self.sort));
                }
                rows
            }
            None => {
                let result = run_view_query(db, vc, &self.view, &self.query)?;
                result.tuples.into_iter().map(|t| (None, t)).collect()
            }
        };
        span.arg(self.rows.len() as u64);
        Ok(())
    }

    /// Where a refill would put a delta row: by the sort keys, ties (and
    /// every row, unsorted) in rid order — `view_rows_with_rids` yields heap
    /// order, which is rid order.
    fn slot_for(&self, dr: &DeltaRow) -> usize {
        let rid = dr.rid.expect("delta rows checked for rids");
        self.rows
            .partition_point(|(r, t)| match compare(t, &dr.row, &self.sort) {
                Ordering::Less => true,
                Ordering::Equal => r.is_some_and(|r| r <= rid),
                Ordering::Greater => false,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::window_mgr::WindowStyle;
    use crate::world::World;

    #[test]
    fn open_picks_one_source_per_case() {
        let mut w = World::new(WorldConfig::default());
        w.db_mut()
            .run(
                r#"CREATE TABLE emp (id INT KEY, dept TEXT, salary INT)
                   CREATE TABLE dept (name TEXT KEY, floor INT)
                   CREATE TABLE note (id INT KEY, body TEXT)
                   DROP INDEX pk_note
                   APPEND TO emp (id = 1, dept = "toy", salary = 10)
                   APPEND TO dept (name = "toy", floor = 2)
                   APPEND TO note (id = 1, body = "hi")"#,
            )
            .unwrap();
        for (name, src) in [
            ("emps", "RANGE OF e IS emp RETRIEVE (e.id, e.salary)"),
            ("notes", "RANGE OF n IS note RETRIEVE (n.id, n.body)"),
            ("pays", "RANGE OF e IS emp RETRIEVE (e.dept, e.salary)"),
            (
                "floors",
                "RANGE OF e IS emp RANGE OF d IS dept RETRIEVE (e.id, d.floor) WHERE e.dept = d.name",
            ),
            (
                "totals",
                "RANGE OF e IS emp RETRIEVE (e.dept, t = SUM(e.salary)) GROUP BY e.dept",
            ),
            (
                "levels",
                "RANGE OF e IS emp RANGE OF d IS dept RETRIEVE (e.id, d.name) WHERE e.salary = d.floor",
            ),
            ("depts", "RANGE OF e IS emp RETRIEVE UNIQUE (e.dept)"),
        ] {
            w.define_view(name, src).unwrap();
        }
        let source = |w: &World, win| w.window(win).unwrap().cursor.source();
        let s = w.open_session();
        let auto = CursorStrategy::Auto;
        for (view, strategy, want) in [
            ("emps", auto, "index"),
            ("notes", auto, "snapshot"),
            ("pays", auto, "index"),
            ("floors", auto, "index"),
            ("totals", auto, "snapshot"),
            ("levels", auto, "snapshot"),
            ("depts", auto, "snapshot"),
            ("__wow_metrics", auto, "snapshot"),
            ("emps", CursorStrategy::Materialized, "snapshot"),
        ] {
            let win = w
                .open_window_using(s, view, None, WindowStyle::Form, strategy)
                .unwrap();
            assert_eq!(source(&w, win), want, "{view} under {strategy:?}");
        }
        let sorted = w.open_window(s, "emps", None).unwrap();
        w.sort_window(sorted, "salary", true).unwrap();
        assert_eq!(source(&w, sorted), "snapshot", "sorted emps");
    }
}
