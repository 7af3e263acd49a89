//! Browse cursors: how a window walks its view's extension.
//!
//! Three strategies, matching the Table 2 comparison:
//!
//! * [`BrowseCursor::indexed`] — **incremental**: fetch one screenful at a
//!   time through the base table's primary-key B+tree, filtering and
//!   projecting through the view as pages stream in. Opening a window on a
//!   million-row relation costs one page fetch.
//! * [`BrowseCursor::streamed`] — **incremental for join views**: fetch one
//!   screenful at a time by pushing `LIMIT page OFFSET k·page` through the
//!   streaming executor; the join stops producing the moment the page is
//!   full, so opening a window never materializes the whole extension.
//! * [`BrowseCursor::materialized`] — **the baseline**: run the whole view
//!   query (optionally sorted) up front and page through the copy.
//!
//! Cursor positions survive refreshes: after another window commits a
//! write, [`BrowseCursor::refresh`] re-fetches the current page in place.

use crate::error::{WowError, WowResult};
use std::cmp::Ordering;
use wow_rel::db::Database;
use wow_rel::eval::{eval, eval_pred};
use wow_rel::exec::infer_type;
use wow_rel::expr::Expr;
use wow_rel::schema::{Column, Schema};
use wow_rel::tuple::Tuple;
use wow_rel::types::DataType;
use wow_storage::Rid;
use wow_views::delta::{DeltaRow, ViewDelta};
use wow_views::expand::{run_view_query, ViewQuery};
use wow_views::translate::view_rows_with_rids;
use wow_views::updatable::Updatability;
use wow_views::ViewCatalog;

/// One browse row: the view-shaped tuple plus (for updatable views) the
/// base rid behind it.
pub type BrowseRow = (Option<Rid>, Tuple);

/// The view-shaped schema an updatable view presents (bare column names).
pub fn view_schema_of(db: &Database, upd: &Updatability) -> WowResult<Schema> {
    let info = db.catalog().table(&upd.base_table)?.clone();
    let base = info.schema.qualified(&upd.base_alias);
    let mut columns = Vec::with_capacity(upd.column_names.len());
    for (name, expr) in upd.column_names.iter().zip(&upd.target_exprs) {
        let ty = infer_type(expr, &base).unwrap_or(DataType::Text);
        let nullable = match upd.column_map[columns.len()] {
            Some(bcol) => info.schema.column(bcol).nullable,
            None => true,
        };
        columns.push(Column {
            name: name.clone(),
            ty,
            nullable,
        });
    }
    Ok(Schema::new(columns))
}

/// State for the incremental, index-ordered strategy.
#[derive(Debug, Clone)]
pub struct Indexed {
    upd: Updatability,
    index: String,
    page_size: usize,
    /// Resolved view restriction over the base row.
    base_pred: Option<Expr>,
    /// Resolved projection over the base row.
    targets: Vec<Expr>,
    /// Extra (QBF) restriction over the *view* row.
    view_pred: Option<Expr>,
    /// `page_starts[i]` = index key strictly before page `i` (None = start).
    page_starts: Vec<Option<Vec<u8>>>,
    page_no: usize,
    /// The current screenful: `(rid, index key, view row)` — the key keeps
    /// delta rows placeable without re-reading the index.
    page: Vec<(Rid, Vec<u8>, Tuple)>,
    /// Key to continue after for the *next* page.
    next_start: Option<Vec<u8>>,
    /// Rows on fully-consumed earlier pages (for position display).
    rows_before: usize,
    /// No further pages exist.
    at_end: bool,
    pos: usize,
}

/// State for the materialize-everything baseline.
#[derive(Debug, Clone)]
pub struct Materialized {
    rows: Vec<BrowseRow>,
    pos: usize,
    /// Rows per screenful (pages are aligned to multiples of it).
    page_size: usize,
    /// How to rebuild on refresh.
    view: String,
    query: ViewQuery,
    upd: Option<Updatability>,
}

/// State for the incremental strategy over *non-updatable* (join /
/// aggregate) views: each page is a fresh view query with
/// `LIMIT page_size OFFSET page_no·page_size`, which the optimizer pushes
/// into the streaming executor — production stops once the page fills.
#[derive(Debug, Clone)]
pub struct Streamed {
    view: String,
    /// Restriction/ordering from QBF; `limit` is overwritten per page.
    query: ViewQuery,
    page_size: usize,
    page_no: usize,
    page: Vec<Tuple>,
    pos: usize,
    /// The current page is the last one.
    at_end: bool,
}

/// A window's position in its view.
#[derive(Debug, Clone)]
pub enum BrowseCursor {
    /// Incremental, index-ordered paging.
    Indexed(Indexed),
    /// Incremental, limit-pushdown paging (join/aggregate views).
    Streamed(Streamed),
    /// Materialized result paging.
    Materialized(Materialized),
}

impl BrowseCursor {
    /// Build the incremental cursor over an updatable view, paging through
    /// `index` (the base table's primary-key B+tree). `view_pred` is an
    /// extra restriction over bare view columns (from QBF).
    pub fn indexed(
        db: &mut Database,
        upd: &Updatability,
        index: &str,
        page_size: usize,
        view_pred: Option<Expr>,
    ) -> WowResult<BrowseCursor> {
        let info = db.catalog().table(&upd.base_table)?.clone();
        let base_schema = info.schema.qualified(&upd.base_alias);
        let base_pred = match &upd.base_pred {
            Some(p) => Some(p.clone().resolve(&base_schema)?),
            None => None,
        };
        let targets: Vec<Expr> = upd
            .target_exprs
            .iter()
            .map(|e| e.clone().resolve(&base_schema))
            .collect::<Result<_, _>>()?;
        let view_schema = view_schema_of(db, upd)?;
        let view_pred = match view_pred {
            Some(p) => Some(p.resolve(&view_schema)?),
            None => None,
        };
        let mut ix = Indexed {
            upd: upd.clone(),
            index: index.to_string(),
            page_size: page_size.max(1),
            base_pred,
            targets,
            view_pred,
            page_starts: vec![None],
            page_no: 0,
            page: Vec::new(),
            next_start: None,
            rows_before: 0,
            at_end: false,
            pos: 0,
        };
        ix.fetch_page(db, None)?;
        Ok(BrowseCursor::Indexed(ix))
    }

    /// Build the incremental cursor for a non-updatable (join/aggregate)
    /// view. Any `limit` in `query` is ignored; paging supplies its own.
    /// Rows carry no base rids, so the window is read-only.
    pub fn streamed(
        db: &mut Database,
        vc: &ViewCatalog,
        view: &str,
        query: ViewQuery,
        page_size: usize,
    ) -> WowResult<BrowseCursor> {
        let mut s = Streamed {
            view: view.to_string(),
            query,
            page_size: page_size.max(1),
            page_no: 0,
            page: Vec::new(),
            pos: 0,
            at_end: true,
        };
        s.fetch_page(db, vc, 0)?;
        Ok(BrowseCursor::Streamed(s))
    }

    /// Build the materialized cursor, paging `page_size` rows at a time.
    /// With an [`Updatability`] proof the rows carry base rids (edits
    /// allowed); without one the window is read-only.
    pub fn materialized(
        db: &mut Database,
        vc: &ViewCatalog,
        view: &str,
        query: ViewQuery,
        upd: Option<&Updatability>,
        page_size: usize,
    ) -> WowResult<BrowseCursor> {
        let mut m = Materialized {
            rows: Vec::new(),
            pos: 0,
            page_size: page_size.max(1),
            view: view.to_string(),
            query,
            upd: upd.cloned(),
        };
        m.refill(db, vc)?;
        Ok(BrowseCursor::Materialized(m))
    }

    /// The current row, owned (uniform across strategies).
    pub fn current_row(&self) -> Option<BrowseRow> {
        match self {
            BrowseCursor::Indexed(ix) => ix
                .page
                .get(ix.pos)
                .map(|(rid, _, t)| (Some(*rid), t.clone())),
            BrowseCursor::Streamed(s) => s.page.get(s.pos).map(|t| (None, t.clone())),
            BrowseCursor::Materialized(m) => m.rows.get(m.pos).cloned(),
        }
    }

    /// 0-based global position of the current row, when known.
    pub fn position(&self) -> Option<usize> {
        match self {
            BrowseCursor::Indexed(ix) => {
                if ix.page.is_empty() {
                    None
                } else {
                    Some(ix.rows_before + ix.pos)
                }
            }
            BrowseCursor::Streamed(s) => {
                if s.page.is_empty() {
                    None
                } else {
                    Some(s.page_no * s.page_size + s.pos)
                }
            }
            BrowseCursor::Materialized(m) => {
                if m.rows.is_empty() {
                    None
                } else {
                    Some(m.pos)
                }
            }
        }
    }

    /// Total row count, when the strategy knows it (materialized only).
    pub fn known_len(&self) -> Option<usize> {
        match self {
            BrowseCursor::Indexed(_) | BrowseCursor::Streamed(_) => None,
            BrowseCursor::Materialized(m) => Some(m.rows.len()),
        }
    }

    /// Whether the cursor currently has no row.
    pub fn is_empty(&self) -> bool {
        self.current_row().is_none()
    }

    /// Index of the current row within the page returned by
    /// [`BrowseCursor::page_rows`].
    pub fn pos_in_page(&self) -> usize {
        match self {
            BrowseCursor::Indexed(ix) => ix.pos,
            BrowseCursor::Streamed(s) => s.pos,
            BrowseCursor::Materialized(m) => m.pos % m.page_size,
        }
    }

    /// Advance one row. Returns `false` at the end.
    pub fn next(&mut self, db: &mut Database, vc: &ViewCatalog) -> WowResult<bool> {
        match self {
            BrowseCursor::Indexed(ix) => {
                if ix.pos + 1 < ix.page.len() {
                    ix.pos += 1;
                    return Ok(true);
                }
                if ix.at_end {
                    return Ok(false);
                }
                ix.advance_page(db)
            }
            BrowseCursor::Streamed(s) => {
                if s.pos + 1 < s.page.len() {
                    s.pos += 1;
                    return Ok(true);
                }
                if s.at_end {
                    return Ok(false);
                }
                s.advance_page(db, vc)
            }
            BrowseCursor::Materialized(m) => {
                if m.pos + 1 < m.rows.len() {
                    m.pos += 1;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// Step back one row. Returns `false` at the beginning.
    pub fn prev(&mut self, db: &mut Database, vc: &ViewCatalog) -> WowResult<bool> {
        match self {
            BrowseCursor::Indexed(ix) => {
                if ix.pos > 0 {
                    ix.pos -= 1;
                    return Ok(true);
                }
                if ix.page_no == 0 {
                    return Ok(false);
                }
                ix.retreat_page(db)?;
                ix.pos = ix.page.len().saturating_sub(1);
                Ok(true)
            }
            BrowseCursor::Streamed(s) => {
                if s.pos > 0 {
                    s.pos -= 1;
                    return Ok(true);
                }
                if s.page_no == 0 {
                    return Ok(false);
                }
                let target = s.page_no - 1;
                s.fetch_page(db, vc, target)?;
                s.pos = s.page.len().saturating_sub(1);
                Ok(true)
            }
            BrowseCursor::Materialized(m) => {
                if m.pos > 0 {
                    m.pos -= 1;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// Jump forward one page (a screenful). Returns `false` when already on
    /// the last page.
    pub fn next_page(&mut self, db: &mut Database, vc: &ViewCatalog) -> WowResult<bool> {
        match self {
            BrowseCursor::Indexed(ix) => {
                if ix.at_end {
                    return Ok(false);
                }
                ix.advance_page(db)
            }
            BrowseCursor::Streamed(s) => {
                if s.at_end {
                    return Ok(false);
                }
                s.advance_page(db, vc)
            }
            BrowseCursor::Materialized(m) => {
                if m.pos + m.page_size < m.rows.len() {
                    m.pos += m.page_size;
                    Ok(true)
                } else if m.pos + 1 < m.rows.len() {
                    m.pos = m.rows.len() - 1;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// Jump back one page.
    pub fn prev_page(&mut self, db: &mut Database, vc: &ViewCatalog) -> WowResult<bool> {
        match self {
            BrowseCursor::Indexed(ix) => {
                if ix.page_no == 0 {
                    if ix.pos == 0 {
                        return Ok(false);
                    }
                    ix.pos = 0;
                    return Ok(true);
                }
                ix.retreat_page(db)?;
                Ok(true)
            }
            BrowseCursor::Streamed(s) => {
                if s.page_no == 0 {
                    if s.pos == 0 {
                        return Ok(false);
                    }
                    s.pos = 0;
                    return Ok(true);
                }
                let target = s.page_no - 1;
                s.fetch_page(db, vc, target)?;
                Ok(true)
            }
            BrowseCursor::Materialized(m) => {
                if m.pos == 0 {
                    return Ok(false);
                }
                m.pos = m.pos.saturating_sub(m.page_size);
                Ok(true)
            }
        }
    }

    /// Re-fetch the current page after external writes, keeping the
    /// position as stable as the data allows.
    pub fn refresh(&mut self, db: &mut Database, vc: &ViewCatalog) -> WowResult<()> {
        match self {
            BrowseCursor::Indexed(ix) => {
                let start = ix.page_starts[ix.page_no].clone();
                let pos = ix.pos;
                ix.fetch_page(db, start)?;
                ix.pos = pos.min(ix.page.len().saturating_sub(1));
                Ok(())
            }
            BrowseCursor::Streamed(s) => {
                let pos = s.pos;
                let mut page_no = s.page_no;
                s.fetch_page(db, vc, page_no)?;
                // Rows may have vanished; back up to the last surviving page.
                while s.page.is_empty() && page_no > 0 {
                    page_no -= 1;
                    s.fetch_page(db, vc, page_no)?;
                }
                s.pos = pos.min(s.page.len().saturating_sub(1));
                Ok(())
            }
            BrowseCursor::Materialized(m) => {
                // Stay on the current record when it survives, as a delta
                // patch does, so both paths land on the same page.
                let cur_rid = m.rows.get(m.pos).and_then(|(r, _)| *r);
                let pos = m.pos;
                m.refill(db, vc)?;
                m.pos = cur_rid
                    .and_then(|rid| m.rows.iter().position(|(r, _)| *r == Some(rid)))
                    .unwrap_or_else(|| pos.min(m.rows.len().saturating_sub(1)));
                Ok(())
            }
        }
    }

    /// Apply a view delta to the displayed rows in place instead of
    /// re-running the view query. Returns `false` when the strategy cannot
    /// (streamed cursors, non-updatable materialized views, delta rows
    /// without identity, or a page/delta mismatch) — the caller then falls
    /// back to a full [`BrowseCursor::refresh`].
    pub fn apply_delta(&mut self, db: &mut Database, delta: &ViewDelta) -> WowResult<bool> {
        match self {
            BrowseCursor::Indexed(ix) => ix.apply_delta(db, delta),
            // Streamed pages are a fresh query per screenful; there is no
            // materialized state to patch.
            BrowseCursor::Streamed(_) => Ok(false),
            BrowseCursor::Materialized(m) => m.apply_delta(db, delta),
        }
    }

    /// The rows of the current page (for grid displays).
    pub fn page_rows(&self) -> Vec<BrowseRow> {
        match self {
            BrowseCursor::Indexed(ix) => ix
                .page
                .iter()
                .map(|(rid, _, t)| (Some(*rid), t.clone()))
                .collect(),
            BrowseCursor::Streamed(s) => s.page.iter().map(|t| (None, t.clone())).collect(),
            BrowseCursor::Materialized(m) => {
                let start = (m.pos / m.page_size) * m.page_size;
                m.rows
                    .iter()
                    .skip(start)
                    .take(m.page_size)
                    .cloned()
                    .collect()
            }
        }
    }
}

impl Indexed {
    /// Fetch the page that starts strictly after `start` into `self.page`,
    /// setting `next_start`/`at_end` for the page after it.
    fn fetch_page(&mut self, db: &mut Database, start: Option<Vec<u8>>) -> WowResult<()> {
        let mut span = wow_obs::span(wow_obs::Op::BrowsePage);
        let info = db.catalog().table(&self.upd.base_table)?.clone();
        self.page.clear();
        self.pos = 0;
        let mut after = start.clone();
        self.at_end = false;
        // Keep pulling index chunks until the page is full (predicates can
        // reject arbitrarily many base rows) or the index runs dry.
        loop {
            let chunk = db.index_scan_page(&self.index, after.as_deref(), self.page_size)?;
            if chunk.is_empty() {
                self.at_end = true;
                break;
            }
            let exhausted_chunk = chunk.len() < self.page_size;
            for (key, rid) in chunk {
                after = Some(key.clone());
                let Some(base) = db.get_row(info.id, rid)? else {
                    continue; // deleted under us
                };
                let keep = match &self.base_pred {
                    Some(p) => eval_pred(p, &base)?,
                    None => true,
                };
                if !keep {
                    continue;
                }
                let mut vals = Vec::with_capacity(self.targets.len());
                for t in &self.targets {
                    vals.push(eval(t, &base)?);
                }
                let view_row = Tuple::new(vals);
                let keep = match &self.view_pred {
                    Some(p) => eval_pred(p, &view_row)?,
                    None => true,
                };
                if !keep {
                    continue;
                }
                self.page.push((rid, key, view_row));
                if self.page.len() == self.page_size {
                    break;
                }
            }
            if self.page.len() == self.page_size {
                break;
            }
            if exhausted_chunk {
                self.at_end = true;
                break;
            }
        }
        self.next_start = after;
        // A full page might still be the last one; that is discovered on
        // the next advance (same trade every cursor implementation makes).
        if self.page.is_empty() {
            self.at_end = true;
        }
        span.arg(self.page.len() as u64);
        Ok(())
    }

    fn advance_page(&mut self, db: &mut Database) -> WowResult<bool> {
        let start = self.next_start.clone();
        let prev_len = self.page.len();
        let prev_start = self.page_starts[self.page_no].clone();
        self.fetch_page(db, start.clone())?;
        if self.page.is_empty() {
            // Walked off the end: restore the previous page.
            self.fetch_page(db, prev_start)?;
            self.pos = self.page.len().saturating_sub(1);
            self.at_end = true;
            return Ok(false);
        }
        self.rows_before += prev_len;
        self.page_no += 1;
        if self.page_starts.len() == self.page_no {
            self.page_starts.push(start);
        } else {
            self.page_starts[self.page_no] = start;
        }
        Ok(true)
    }

    fn retreat_page(&mut self, db: &mut Database) -> WowResult<()> {
        debug_assert!(self.page_no > 0);
        self.page_no -= 1;
        let start = self.page_starts[self.page_no].clone();
        self.fetch_page(db, start)?;
        self.rows_before = self.rows_before.saturating_sub(self.page.len());
        Ok(())
    }

    /// Patch the current page from a view delta: rows keyed before the page
    /// adjust the position counter, rows within the page's key range are
    /// inserted/removed in place, rows beyond it are a later page's problem.
    fn apply_delta(&mut self, db: &mut Database, delta: &ViewDelta) -> WowResult<bool> {
        // Classify every delta row into remove/insert primitives, applying
        // the window's extra QBF restriction on top of the view's own
        // predicate (which the delta already honored).
        let mut removes: Vec<(Rid, Vec<u8>)> = Vec::new();
        let mut inserts: Vec<(Rid, Vec<u8>, Tuple)> = Vec::new();
        {
            let passes = |row: &Tuple| -> WowResult<bool> {
                Ok(match &self.view_pred {
                    Some(p) => eval_pred(p, row)?,
                    None => true,
                })
            };
            let ident = |dr: &DeltaRow| Some((dr.rid?, dr.key.clone()?));
            for dr in &delta.inserted {
                if !passes(&dr.row)? {
                    continue;
                }
                let Some((rid, key)) = ident(dr) else {
                    return Ok(false);
                };
                inserts.push((rid, key, dr.row.clone()));
            }
            for dr in &delta.deleted {
                if !passes(&dr.row)? {
                    continue;
                }
                let Some((rid, key)) = ident(dr) else {
                    return Ok(false);
                };
                removes.push((rid, key));
            }
            for (old, new) in &delta.updated {
                if passes(&old.row)? {
                    let Some((rid, key)) = ident(old) else {
                        return Ok(false);
                    };
                    removes.push((rid, key));
                }
                if passes(&new.row)? {
                    let Some((rid, key)) = ident(new) else {
                        return Ok(false);
                    };
                    inserts.push((rid, key, new.row.clone()));
                }
            }
        }
        // Snapshot for rollback: a mid-apply mismatch must not leave the
        // position bookkeeping half-adjusted before the caller's fallback
        // refresh (which re-fetches the page but not `rows_before`).
        let saved = (
            self.page.clone(),
            self.pos,
            self.rows_before,
            self.next_start.clone(),
            self.at_end,
        );
        let start = self.page_starts[self.page_no].clone();
        let before_start = |key: &[u8]| match &start {
            Some(s) => key <= s.as_slice(),
            None => false,
        };
        // The page covers keys in `(start, next_start]` — or to infinity on
        // the last page.
        let in_page = |key: &[u8], at_end: bool, next_start: &Option<Vec<u8>>| {
            at_end
                || match next_start {
                    Some(ns) => key <= ns.as_slice(),
                    None => true,
                }
        };
        // The current row is tracked by identity (rid) across the patch; a
        // running index is the fallback when the row itself vanished.
        let cur_rid = self.page.get(self.pos).map(|(r, _, _)| *r);
        let mut cur_idx = self.pos;
        for (rid, key) in removes {
            if before_start(&key) {
                self.rows_before = self.rows_before.saturating_sub(1);
            } else if in_page(&key, self.at_end, &self.next_start) {
                let Some(idx) = self.page.iter().position(|(r, _, _)| *r == rid) else {
                    // The page and the delta disagree; re-query instead of
                    // guessing.
                    (
                        self.page,
                        self.pos,
                        self.rows_before,
                        self.next_start,
                        self.at_end,
                    ) = saved;
                    return Ok(false);
                };
                self.page.remove(idx);
                if idx < cur_idx {
                    cur_idx -= 1;
                }
            }
        }
        for (rid, key, row) in inserts {
            if before_start(&key) {
                self.rows_before += 1;
            } else if in_page(&key, self.at_end, &self.next_start) {
                let idx = self
                    .page
                    .partition_point(|(_, k, _)| k.as_slice() <= key.as_slice());
                self.page.insert(idx, (rid, key, row));
                if idx <= cur_idx && cur_rid.is_some() {
                    cur_idx += 1;
                }
            }
        }
        self.pos = cur_rid
            .and_then(|rid| self.page.iter().position(|(r, _, _)| *r == rid))
            .unwrap_or_else(|| cur_idx.min(self.page.len().saturating_sub(1)));
        // Spill: the page holds one screenful; extra rows belong to the
        // next page, which now starts after our new last key.
        if self.page.len() > self.page_size {
            self.page.truncate(self.page_size);
            self.next_start = self.page.last().map(|(_, k, _)| k.clone());
            self.at_end = false;
        }
        self.pos = self.pos.min(self.page.len().saturating_sub(1));
        // Backfill: removals may have made room for rows sitting beyond the
        // old page boundary; one page-local refetch restores a full
        // screenful (still incremental — no full view re-query).
        if self.page.len() < self.page_size && !self.at_end {
            let pos = self.pos;
            self.fetch_page(db, start)?;
            self.pos = pos.min(self.page.len().saturating_sub(1));
        }
        Ok(true)
    }
}

impl Streamed {
    /// Fetch page `page_no` by running the view query with
    /// `LIMIT page_size+1 OFFSET page_no·page_size` — the extra row tells
    /// us whether a further page exists without another round trip.
    fn fetch_page(&mut self, db: &mut Database, vc: &ViewCatalog, page_no: usize) -> WowResult<()> {
        let mut span = wow_obs::span(wow_obs::Op::BrowsePage);
        let mut q = self.query.clone();
        q.limit = Some((page_no * self.page_size, self.page_size + 1));
        let mut tuples = run_view_query(db, vc, &self.view, &q)?.tuples;
        self.at_end = tuples.len() <= self.page_size;
        tuples.truncate(self.page_size);
        span.arg(tuples.len() as u64);
        self.page = tuples;
        self.page_no = page_no;
        self.pos = 0;
        Ok(())
    }

    fn advance_page(&mut self, db: &mut Database, vc: &ViewCatalog) -> WowResult<bool> {
        let prev = self.page_no;
        self.fetch_page(db, vc, prev + 1)?;
        if self.page.is_empty() {
            // Walked off the end: restore the previous page.
            self.fetch_page(db, vc, prev)?;
            self.pos = self.page.len().saturating_sub(1);
            self.at_end = true;
            return Ok(false);
        }
        Ok(true)
    }
}

impl Materialized {
    fn refill(&mut self, db: &mut Database, vc: &ViewCatalog) -> WowResult<()> {
        let mut span = wow_obs::span(wow_obs::Op::BrowsePage);
        self.rows = match &self.upd {
            Some(upd) => {
                // Updatable: fetch with rids, filter/sort client-side.
                let mut rows = view_rows_with_rids(db, upd)?;
                if let Some(pred) = &self.query.pred {
                    let schema = view_schema_of(db, upd)?;
                    let resolved = pred.clone().resolve(&schema)?;
                    let mut err = None;
                    rows.retain(|(_, t)| match eval_pred(&resolved, t) {
                        Ok(k) => k,
                        Err(e) => {
                            err = Some(e);
                            false
                        }
                    });
                    if let Some(e) = err {
                        return Err(WowError::Rel(e));
                    }
                }
                if !self.query.sort.is_empty() {
                    let schema = view_schema_of(db, upd)?;
                    let keys: Vec<(usize, bool)> = self
                        .query
                        .sort
                        .iter()
                        .map(|k| {
                            Ok::<_, wow_rel::RelError>((schema.resolve(&k.column)?, k.ascending))
                        })
                        .collect::<Result<_, _>>()?;
                    rows.sort_by(|a, b| wow_rel::exec::sort::compare(&a.1, &b.1, &keys));
                }
                rows.into_iter().map(|(rid, t)| (Some(rid), t)).collect()
            }
            None => {
                let result = run_view_query(db, vc, &self.view, &self.query)?;
                result.tuples.into_iter().map(|t| (None, t)).collect()
            }
        };
        span.arg(self.rows.len() as u64);
        Ok(())
    }

    /// Patch the materialized rows from a view delta: remove by rid, insert
    /// at the position a full refill would have produced (heap order when
    /// unsorted, the resolved sort keys with rid tie-break otherwise).
    fn apply_delta(&mut self, db: &mut Database, delta: &ViewDelta) -> WowResult<bool> {
        // Without an updatability proof rows carry no rids to patch by.
        let Some(upd) = self.upd.clone() else {
            return Ok(false);
        };
        let schema = view_schema_of(db, &upd)?;
        let pred = match &self.query.pred {
            Some(p) => Some(p.clone().resolve(&schema)?),
            None => None,
        };
        let keys: Vec<(usize, bool)> = self
            .query
            .sort
            .iter()
            .map(|k| Ok::<_, wow_rel::RelError>((schema.resolve(&k.column)?, k.ascending)))
            .collect::<Result<_, _>>()?;
        let passes = |row: &Tuple| -> WowResult<bool> {
            Ok(match &pred {
                Some(p) => eval_pred(p, row)?,
                None => true,
            })
        };
        let mut removes: Vec<Rid> = Vec::new();
        let mut inserts: Vec<(Rid, Tuple)> = Vec::new();
        for dr in &delta.inserted {
            if !passes(&dr.row)? {
                continue;
            }
            let Some(rid) = dr.rid else {
                return Ok(false);
            };
            inserts.push((rid, dr.row.clone()));
        }
        for dr in &delta.deleted {
            if !passes(&dr.row)? {
                continue;
            }
            let Some(rid) = dr.rid else {
                return Ok(false);
            };
            removes.push(rid);
        }
        for (old, new) in &delta.updated {
            if passes(&old.row)? {
                let Some(rid) = old.rid else {
                    return Ok(false);
                };
                removes.push(rid);
            }
            if passes(&new.row)? {
                let Some(rid) = new.rid else {
                    return Ok(false);
                };
                inserts.push((rid, new.row.clone()));
            }
        }
        // Track the current row by identity across the patch, with a
        // running index as the fallback when it was itself removed.
        let cur_rid = self.rows.get(self.pos).and_then(|(r, _)| *r);
        let mut cur_idx = self.pos;
        for rid in removes {
            let Some(idx) = self.rows.iter().position(|(r, _)| *r == Some(rid)) else {
                // Mismatch: the caller's fallback refill rebuilds everything,
                // so partially applied removals are harmless here.
                return Ok(false);
            };
            self.rows.remove(idx);
            if idx < cur_idx {
                cur_idx -= 1;
            }
        }
        for (rid, row) in inserts {
            let idx = if keys.is_empty() {
                // `view_rows_with_rids` yields heap-scan order, which is rid
                // order (pages ascending, slots ascending).
                self.rows
                    .partition_point(|(r, _)| r.is_some_and(|r| r <= rid))
            } else {
                self.rows.partition_point(|(r, t)| {
                    match wow_rel::exec::sort::compare(t, &row, &keys) {
                        Ordering::Less => true,
                        Ordering::Equal => r.is_some_and(|r| r <= rid),
                        Ordering::Greater => false,
                    }
                })
            };
            self.rows.insert(idx, (Some(rid), row));
            if idx <= cur_idx && cur_rid.is_some() {
                cur_idx += 1;
            }
        }
        self.pos = cur_rid
            .and_then(|rid| self.rows.iter().position(|(r, _)| *r == Some(rid)))
            .unwrap_or_else(|| cur_idx.min(self.rows.len().saturating_sub(1)));
        Ok(true)
    }
}
