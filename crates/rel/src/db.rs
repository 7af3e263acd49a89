//! The [`Database`] facade: storage + catalog + WAL + transactions.
//!
//! Every higher layer (views, forms, the window manager) talks to this one
//! object. It owns the page store, the heap file and index handles, the
//! statistics registry, and — when durability is enabled — the write-ahead
//! log.

use crate::catalog::{Catalog, IndexInfo, TableId, TableInfo};
use crate::error::{RelError, RelResult};
use crate::exec::KeyBound;
use crate::schema::Schema;
use crate::stats::StatsRegistry;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;
use wow_storage::btree::BTree;
use wow_storage::heap::HeapFile;
use wow_storage::page::PageId;
use wow_storage::store::MemStore;
use wow_storage::wal::{TxnId, Wal};
use wow_storage::Rid;

/// One logged-and-undoable data operation (for `ABORT`). `Delete` keeps
/// the original rid for diagnostics even though replay re-inserts at a
/// fresh rid.
#[derive(Debug)]
#[allow(dead_code)]
pub(crate) enum UndoOp {
    Insert {
        table: TableId,
        rid: Rid,
    },
    Update {
        table: TableId,
        rid: Rid,
        old: Tuple,
    },
    Delete {
        table: TableId,
        rid: Rid,
        old: Tuple,
    },
}

/// Transaction state.
#[derive(Default)]
pub(crate) struct TxnState {
    /// The open explicit transaction, if any.
    pub current: Option<TxnId>,
    /// Next transaction id to hand out.
    pub next: TxnId,
    /// Undo log of the open transaction, oldest first.
    pub undo: Vec<UndoOp>,
}

/// Executor-side counters, readable by benches and tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecCounters {
    /// Tuples read by sequential scans.
    pub rows_scanned: u64,
    /// Index probes (equality or range-start).
    pub index_probes: u64,
    /// Tuples produced by joins.
    pub join_rows: u64,
    /// Statements executed.
    pub statements: u64,
    /// Column batches evaluated by the vectorized executor.
    pub batches: u64,
    /// Rows entering vectorized filter passes (selection-vector input).
    pub sel_in: u64,
    /// Rows surviving vectorized filter passes (selection-vector output).
    pub sel_out: u64,
}

/// The database: the "world" that every window looks into.
///
/// The page store is shared (`Arc`) so [`Database::read_replica`] can hand
/// worker threads an independent `Database` view over the same pages;
/// everything else a replica holds is a snapshot clone of cheap in-memory
/// metadata (catalog, heap page lists, index roots, stats).
pub struct Database {
    pub(crate) store: Arc<MemStore>,
    pub(crate) catalog: Catalog,
    pub(crate) heaps: HashMap<TableId, HeapFile>,
    pub(crate) indexes: HashMap<String, BTree>,
    pub(crate) wal: Option<Wal>,
    pub(crate) stats: StatsRegistry,
    pub(crate) txn: TxnState,
    pub(crate) counters: ExecCounters,
    /// Persistent `RANGE OF var IS table` declarations, QUEL-style.
    pub(crate) ranges: BTreeMap<String, String>,
    /// Worker pool for partitioned scans and parallel join builds.
    pub(crate) par: wow_par::Pool,
    /// Target rows per column batch on the vectorized scan path.
    pub(crate) batch_size: usize,
    /// Durability bookkeeping when opened via [`Database::open_durable`].
    pub(crate) durable: Option<crate::durable::DurableState>,
}

/// Whether writes to `table` are logged to the WAL. System mirror tables
/// (`__sys_*`) are rebuilt from live counters on demand, so logging them
/// would only bloat the log and force an fsync per refreshed row.
pub(crate) fn wal_logged(table: &str) -> bool {
    !table.starts_with("__sys_")
}

impl Database {
    /// An in-memory database with no WAL.
    pub fn in_memory() -> Database {
        Self::with_store(MemStore::new())
    }

    pub(crate) fn with_store(store: MemStore) -> Database {
        Database {
            store: Arc::new(store),
            catalog: Catalog::new(),
            heaps: HashMap::new(),
            indexes: HashMap::new(),
            wal: None,
            stats: StatsRegistry::new(),
            txn: TxnState::default(),
            counters: ExecCounters::default(),
            ranges: BTreeMap::new(),
            par: wow_par::Pool::default(),
            batch_size: crate::exec::stream::BLOCK_CAP,
            durable: None,
        }
    }

    /// Set the executor's worker-pool width exactly (no environment
    /// override; benches use this to sweep 1/2/4/8 workers).
    pub fn set_workers(&mut self, workers: usize) {
        self.par = wow_par::Pool::new(workers);
    }

    /// The executor's worker-pool width.
    pub fn workers(&self) -> usize {
        self.par.workers()
    }

    /// Set the vectorized executor's target rows per batch (min 1; benches
    /// and the equivalence proptest sweep this).
    pub fn set_batch_size(&mut self, rows: usize) {
        self.batch_size = rows.max(1);
    }

    /// Target rows per column batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// A read-only replica sharing this database's page store.
    ///
    /// The replica clones the in-memory metadata (catalog, heap handles,
    /// index roots, statistics, range declarations) and shares the page
    /// store, so any read — scans, index probes, view queries — returns
    /// exactly what the source database would return *right now*. It has
    /// no WAL, a fresh transaction state, and a serial worker pool (no
    /// nested parallelism). Writing through a replica is a logic error:
    /// metadata changes would not propagate back.
    pub fn read_replica(&self) -> Database {
        Database {
            store: Arc::clone(&self.store),
            catalog: self.catalog.clone(),
            heaps: self.heaps.clone(),
            indexes: self.indexes.clone(),
            wal: None,
            stats: self.stats.clone(),
            txn: TxnState::default(),
            counters: ExecCounters::default(),
            ranges: self.ranges.clone(),
            par: wow_par::Pool::serial(),
            batch_size: self.batch_size,
            durable: None,
        }
    }

    /// Enable write-ahead logging (in-memory log; see [`Wal::open`] for a
    /// file-backed one via [`Database::attach_wal`]).
    pub fn with_wal(mut self) -> Database {
        self.wal = Some(Wal::in_memory());
        self
    }

    /// Attach a specific WAL (e.g. a file-backed one).
    pub fn attach_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// Detach and return the WAL (for crash-simulation tests).
    pub fn take_wal(&mut self) -> Option<Wal> {
        self.wal.take()
    }

    /// Borrow the WAL, if attached.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// The catalog (read-only).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Executor counters accumulated so far.
    pub fn counters(&self) -> ExecCounters {
        self.counters
    }

    /// Fold counters accumulated elsewhere (a [`Database::read_replica`]
    /// that did work on another thread) into this database's totals.
    pub fn merge_counters(&mut self, other: ExecCounters) {
        self.counters.rows_scanned += other.rows_scanned;
        self.counters.index_probes += other.index_probes;
        self.counters.join_rows += other.join_rows;
        self.counters.statements += other.statements;
        self.counters.batches += other.batches;
        self.counters.sel_in += other.sel_in;
        self.counters.sel_out += other.sel_out;
    }

    /// Reset executor counters (benches call this between phases).
    pub fn reset_counters(&mut self) {
        self.counters = ExecCounters::default();
    }

    // -- DDL ----------------------------------------------------------------

    /// Create a table. `key` names the primary-key columns (possibly empty);
    /// when non-empty a unique B+tree index `pk_<table>` is created on them
    /// automatically — the ordered access path browse cursors rely on.
    pub fn create_table(&mut self, name: &str, schema: Schema, key: &[&str]) -> RelResult<TableId> {
        let key_idx: Vec<usize> = key
            .iter()
            .map(|k| schema.resolve(k))
            .collect::<RelResult<_>>()?;
        let id = self.create_table_at(
            name,
            self.catalog.next_table_id(),
            schema.clone(),
            key_idx.clone(),
        )?;
        if wal_logged(name) {
            self.log_ddl(crate::durable::encode_create_table(
                id, name, &schema, &key_idx,
            ))?;
        }
        Ok(id)
    }

    /// Create a table under an explicit id, without WAL logging — the shared
    /// body of [`Database::create_table`] and DDL replay (which must honor
    /// the id recorded in the log).
    pub(crate) fn create_table_at(
        &mut self,
        name: &str,
        id: TableId,
        schema: Schema,
        key_idx: Vec<usize>,
    ) -> RelResult<TableId> {
        if self.catalog.has_table(name) {
            return Err(RelError::AlreadyExists(name.to_string()));
        }
        let heap = HeapFile::create(&self.store)?;
        let heap_meta = heap.meta_page();
        let id = self
            .catalog
            .add_table_with_id(name, id, schema, heap_meta, key_idx.clone())?;
        self.heaps.insert(id, heap);
        if !key_idx.is_empty() {
            let pk_name = format!("pk_{name}");
            self.create_index_internal(&pk_name, name, key_idx, true)?;
        }
        Ok(id)
    }

    /// Create a secondary B+tree index on one column, backfilling existing
    /// rows.
    pub fn create_index(
        &mut self,
        index_name: &str,
        table: &str,
        column: &str,
        unique: bool,
    ) -> RelResult<()> {
        let col = self.catalog.table(table)?.schema.resolve(column)?;
        self.create_index_internal(index_name, table, vec![col], unique)?;
        if wal_logged(table) {
            self.log_ddl(crate::durable::encode_create_index(
                index_name,
                table,
                &[col],
                unique,
            ))?;
        }
        Ok(())
    }

    /// Log one DDL statement as its own committed transaction (DDL is not
    /// undoable, so it never joins the open transaction's undo scope).
    pub(crate) fn log_ddl(&mut self, payload: Vec<u8>) -> RelResult<()> {
        if self.wal.is_none() {
            return Ok(());
        }
        let txn = self.txn.next;
        self.txn.next += 1;
        let wal = self.wal.as_mut().expect("checked above");
        wal.append(&wow_storage::wal::LogRecord::Ddl {
            txn,
            bytes: payload,
        })?;
        wal.append(&wow_storage::wal::LogRecord::Commit { txn })?;
        wal.flush()?;
        Ok(())
    }

    /// Open an index handle from its meta page and register it (checkpoint
    /// restore; the catalog entry must already exist).
    pub(crate) fn open_index_handle(&mut self, name: &str, meta: PageId) -> RelResult<()> {
        let tree = BTree::open(&self.store, meta)?;
        self.indexes.insert(name.to_string(), tree);
        Ok(())
    }

    pub(crate) fn create_index_internal(
        &mut self,
        index_name: &str,
        table: &str,
        columns: Vec<usize>,
        unique: bool,
    ) -> RelResult<()> {
        if self.indexes.contains_key(index_name) {
            return Err(RelError::AlreadyExists(index_name.to_string()));
        }
        let tinfo = self.catalog.table(table)?.clone();
        // Every B+tree rejects duplicate keys. A non-unique index stores
        // composite `key ++ rid` entries (see `index_insert`), so equal
        // values still make distinct entries.
        let tree = BTree::create(&self.store)?;
        self.catalog
            .add_index(index_name, table, columns.clone(), unique, tree.meta_page())?;
        self.indexes.insert(index_name.to_string(), tree);
        // Backfill from existing rows.
        let rows = self.scan_table_raw(tinfo.id)?;
        for (rid, tuple) in rows {
            let idx = self.catalog.index(index_name)?.clone();
            self.index_insert(&idx, &tuple, rid)?;
        }
        Ok(())
    }

    /// Drop a table, its heap, and its indexes.
    pub fn drop_table(&mut self, name: &str) -> RelResult<()> {
        let logged = self.catalog.has_table(name) && wal_logged(name);
        let (info, indexes) = self.catalog.remove_table(name)?;
        if let Some(heap) = self.heaps.remove(&info.id) {
            heap.destroy(&self.store)?;
        }
        for idx in indexes {
            if let Some(tree) = self.indexes.remove(&idx.name) {
                tree.destroy(&self.store)?;
            }
        }
        self.stats.remove(info.id);
        self.ranges.retain(|_, t| t != name);
        if logged {
            self.log_ddl(crate::durable::encode_drop_table(name))?;
        }
        Ok(())
    }

    /// Drop a secondary index.
    pub fn drop_index(&mut self, name: &str) -> RelResult<()> {
        let logged = match self.catalog.index(name) {
            Ok(info) => self
                .catalog
                .table_by_id(info.table)
                .map(|t| wal_logged(&t.name))
                .unwrap_or(false),
            Err(_) => false,
        };
        let info = self.catalog.remove_index(name)?;
        if let Some(tree) = self.indexes.remove(&info.name) {
            tree.destroy(&self.store)?;
        }
        if logged {
            self.log_ddl(crate::durable::encode_drop_index(name))?;
        }
        Ok(())
    }

    // -- Range variables ------------------------------------------------------

    /// Declare `RANGE OF var IS table` (persists across statements, as in
    /// QUEL).
    pub fn declare_range(&mut self, var: &str, table: &str) -> RelResult<()> {
        if !self.catalog.has_table(table) {
            return Err(RelError::NoSuchTable(table.to_string()));
        }
        self.ranges.insert(var.to_string(), table.to_string());
        Ok(())
    }

    /// Resolve a range variable to its table name.
    pub fn range_table(&self, var: &str) -> RelResult<&str> {
        self.ranges
            .get(var)
            .map(|s| s.as_str())
            .ok_or_else(|| RelError::NoSuchRange(var.to_string()))
    }

    /// All declared range variables.
    pub fn ranges(&self) -> &BTreeMap<String, String> {
        &self.ranges
    }

    // -- Row access ----------------------------------------------------------

    /// Fetch one row by rid.
    pub fn get_row(&mut self, table: TableId, rid: Rid) -> RelResult<Option<Tuple>> {
        let heap = self
            .heaps
            .get(&table)
            .ok_or_else(|| RelError::NoSuchTable(format!("#{table}")))?;
        match heap.get(&self.store, rid)? {
            None => Ok(None),
            Some(bytes) => Ok(Some(Tuple::decode(&bytes)?)),
        }
    }

    /// Scan a full table into memory as `(rid, tuple)` pairs.
    pub fn scan_table_raw(&mut self, table: TableId) -> RelResult<Vec<(Rid, Tuple)>> {
        let heap = self
            .heaps
            .get(&table)
            .ok_or_else(|| RelError::NoSuchTable(format!("#{table}")))?;
        let mut decode_err = None;
        let mut out = Vec::with_capacity(heap.len() as usize);
        heap.scan(&self.store, |rid, bytes| match Tuple::decode(bytes) {
            Ok(t) => out.push((rid, t)),
            Err(e) => decode_err = Some(e),
        })?;
        if let Some(e) = decode_err {
            return Err(e);
        }
        self.counters.rows_scanned += out.len() as u64;
        Ok(out)
    }

    /// Scan one data page of encoded rows into a caller-owned arena (see
    /// [`wow_storage::heap::HeapFile::scan_page_into`]) — the executor's
    /// only sequential heap access path. It decodes only the columns a
    /// query touches ([`crate::value::decode_row_cols`]) and reuses
    /// `arena`/`bounds` across pages, so a page scan costs one region copy
    /// and no per-row allocation. Returns `false` once `page_idx` is past
    /// the end of the page chain. Counts every visited row in
    /// `rows_scanned`, like [`Database::scan_table_raw`].
    pub(crate) fn scan_table_page_arena(
        &mut self,
        table: TableId,
        page_idx: usize,
        arena: &mut Vec<u8>,
        bounds: &mut Vec<(u32, u32)>,
    ) -> RelResult<bool> {
        let heap = self
            .heaps
            .get(&table)
            .ok_or_else(|| RelError::NoSuchTable(format!("#{table}")))?;
        let before = bounds.len();
        let in_range = heap.scan_page_into(&self.store, page_idx, arena, bounds)?;
        self.counters.rows_scanned += (bounds.len() - before) as u64;
        Ok(in_range)
    }

    /// Number of rows in a table (from stats, exact under normal operation).
    pub fn row_count(&self, table: TableId) -> u64 {
        self.stats.get(table).rows
    }

    /// Number of heap data pages of a table (scan-partitioning unit).
    pub(crate) fn table_page_count(&self, table: TableId) -> RelResult<usize> {
        self.heaps
            .get(&table)
            .map(|h| h.page_count())
            .ok_or_else(|| RelError::NoSuchTable(format!("#{table}")))
    }

    /// Full statistics for a table (row count plus any analyzed
    /// distinct-value estimates).
    pub fn table_stats(&self, table: TableId) -> crate::stats::TableStats {
        self.stats.get(table)
    }

    /// The primary-key values of a tuple of `table`, or `None` if the table
    /// has no declared key.
    pub fn key_of(&self, table: &TableInfo, tuple: &Tuple) -> Option<Vec<Value>> {
        if table.key.is_empty() {
            return None;
        }
        Some(table.key.iter().map(|&i| tuple.values[i].clone()).collect())
    }

    /// Recompute per-column distinct counts for a table (ANALYZE).
    pub fn analyze(&mut self, table: &str) -> RelResult<()> {
        let info = self.catalog.table(table)?.clone();
        let rows = self.scan_table_raw(info.id)?;
        let mut distinct: HashMap<usize, u64> = HashMap::new();
        for col in 0..info.schema.len() {
            let mut seen: Vec<&Value> = rows.iter().map(|(_, t)| &t.values[col]).collect();
            seen.sort_by(|a, b| a.total_cmp(b));
            seen.dedup_by(|a, b| *a == *b);
            distinct.insert(col, seen.len() as u64);
        }
        self.stats.set_distinct(info.id, distinct);
        // Row count may have drifted if stats were bypassed; resync.
        self.stats.entry(info.id).rows = rows.len() as u64;
        Ok(())
    }

    // -- Index plumbing (used by dml and exec) --------------------------------

    /// Build the key bytes for an index entry of `tuple`.
    pub(crate) fn index_key(idx: &IndexInfo, tuple: &Tuple) -> Vec<u8> {
        let vals: Vec<Value> = idx
            .columns
            .iter()
            .map(|&i| tuple.values[i].clone())
            .collect();
        Value::encode_composite(&vals)
    }

    pub(crate) fn index_insert(
        &mut self,
        idx: &IndexInfo,
        tuple: &Tuple,
        rid: Rid,
    ) -> RelResult<()> {
        let key = Self::index_key(idx, tuple);
        let tree = self.indexes.get_mut(&idx.name).expect("handle exists");
        if idx.unique {
            tree.insert(&self.store, &key, rid).map_err(|e| match e {
                wow_storage::StorageError::DuplicateKey => {
                    RelError::UniqueViolation(idx.name.clone())
                }
                other => other.into(),
            })?;
        } else {
            let ck = wow_storage::btree::composite_key(&key, rid);
            tree.insert(&self.store, &ck, rid)?;
        }
        Ok(())
    }

    pub(crate) fn index_delete(
        &mut self,
        idx: &IndexInfo,
        tuple: &Tuple,
        rid: Rid,
    ) -> RelResult<()> {
        let key = Self::index_key(idx, tuple);
        let tree = self.indexes.get_mut(&idx.name).expect("handle exists");
        if idx.unique {
            tree.delete(&self.store, &key, rid)?;
        } else {
            let ck = wow_storage::btree::composite_key(&key, rid);
            tree.delete(&self.store, &ck, rid)?;
        }
        Ok(())
    }

    /// Probe an index for exact-match rids on `values` (the index's full
    /// column list).
    pub fn index_lookup(&mut self, index_name: &str, values: &[Value]) -> RelResult<Vec<Rid>> {
        let idx = self.catalog.index(index_name)?.clone();
        let key = Value::encode_composite(values);
        self.counters.index_probes += 1;
        let tree = self.indexes.get(&idx.name).expect("handle exists");
        if idx.unique {
            Ok(tree.lookup(&self.store, &key)?)
        } else {
            Ok(tree.lookup_prefix(&self.store, &key)?)
        }
    }

    /// Fetch one *page* of index entries in key order, starting strictly
    /// after `after` (pass `None` to start at the beginning). Returns up to
    /// `limit` `(key, rid)` pairs: an unbounded [`Database::index_walk`],
    /// whose cost is proportional to the page, not the relation.
    pub fn index_scan_page(
        &mut self,
        index: &str,
        after: Option<&[u8]>,
        limit: usize,
    ) -> RelResult<Vec<(Vec<u8>, Rid)>> {
        let mut out = Vec::with_capacity(limit);
        self.index_walk(index, None, None, after, |k, rid| {
            out.push((k.to_vec(), rid));
            out.len() < limit
        })?;
        Ok(out)
    }

    /// Walk `index` from `lower` (or strictly after `after`, when later)
    /// to `upper` in key order, handing each `(key, rid)` to `visit` until
    /// it returns `false`; a bound covers every key it prefixes. Returns
    /// whether the walk reached the end of the range: the first key past
    /// it stops the walk. Range scans and browse pages both walk here.
    pub fn index_walk(
        &mut self,
        index: &str,
        lower: Option<&KeyBound>,
        upper: Option<&KeyBound>,
        after: Option<&[u8]>,
        mut visit: impl FnMut(&[u8], Rid) -> bool,
    ) -> RelResult<bool> {
        self.catalog.index(index)?;
        let encode = |b: &KeyBound| (Value::encode_composite(&b.values), b.inclusive);
        let lower = lower.map(encode);
        let upper = upper.map(encode);
        let seek = match (after, &lower) {
            (Some(a), l) if l.as_ref().is_none_or(|(l, _)| a >= l.as_slice()) => Bound::Excluded(a),
            (_, Some((l, _))) => Bound::Included(l.as_slice()),
            _ => Bound::Unbounded,
        };
        self.counters.index_probes += 1;
        let tree = self.indexes.get(index).expect("handle exists");
        let mut ended = true;
        tree.range_scan(&self.store, seek, Bound::Unbounded, |key, rid| {
            if let Some((l, false)) = &lower {
                if key.starts_with(l) {
                    return true;
                }
            }
            if let Some((u, inclusive)) = &upper {
                let prefixed = key.starts_with(u);
                if (prefixed && !inclusive) || (!prefixed && key > u.as_slice()) {
                    return false;
                }
            }
            ended = visit(key, rid);
            ended
        })?;
        Ok(ended)
    }

    // -- Transactions ----------------------------------------------------------

    /// Begin an explicit transaction.
    pub fn begin(&mut self) -> RelResult<TxnId> {
        if self.txn.current.is_some() {
            return Err(RelError::Txn("transaction already open"));
        }
        let id = self.txn.next;
        self.txn.next += 1;
        self.txn.current = Some(id);
        self.txn.undo.clear();
        if let Some(wal) = &mut self.wal {
            wal.append(&wow_storage::wal::LogRecord::Begin { txn: id })?;
        }
        Ok(id)
    }

    /// Commit the open transaction (durable if a WAL is attached).
    pub fn commit(&mut self) -> RelResult<()> {
        let Some(id) = self.txn.current.take() else {
            return Err(RelError::Txn("no open transaction"));
        };
        self.txn.undo.clear();
        if let Some(wal) = &mut self.wal {
            wal.append(&wow_storage::wal::LogRecord::Commit { txn: id })?;
            wal.flush()?;
        }
        self.note_commit();
        Ok(())
    }

    /// Abort the open transaction, rolling back its data changes.
    pub fn abort(&mut self) -> RelResult<()> {
        let Some(id) = self.txn.current.take() else {
            return Err(RelError::Txn("no open transaction"));
        };
        let undo = std::mem::take(&mut self.txn.undo);
        for op in undo.into_iter().rev() {
            self.apply_undo(op)?;
        }
        if let Some(wal) = &mut self.wal {
            wal.append(&wow_storage::wal::LogRecord::Abort { txn: id })?;
        }
        Ok(())
    }

    /// The next transaction id that would be handed out (test visibility).
    #[cfg(test)]
    pub(crate) fn txn_next_for_tests(&self) -> TxnId {
        self.txn.next
    }

    /// The transaction id DML should log under: the open transaction, or a
    /// fresh auto-commit id. Returns `(txn, auto_commit)`.
    pub(crate) fn dml_txn(&mut self) -> (TxnId, bool) {
        match self.txn.current {
            Some(id) => (id, false),
            None => {
                let id = self.txn.next;
                self.txn.next += 1;
                (id, true)
            }
        }
    }

    fn apply_undo(&mut self, op: UndoOp) -> RelResult<()> {
        match op {
            UndoOp::Insert { table, rid } => {
                // Reverse of insert: physically delete, maintain indexes.
                if let Some(tuple) = self.get_row(table, rid)? {
                    let info = self.catalog.table_by_id(table)?.clone();
                    for idx_name in &info.indexes {
                        let idx = self.catalog.index(idx_name)?.clone();
                        self.index_delete(&idx, &tuple, rid)?;
                    }
                    let heap = self.heaps.get_mut(&table).expect("heap exists");
                    heap.delete(&self.store, rid)?;
                    self.stats.on_delete(table, 1);
                }
            }
            UndoOp::Update { table, rid, old } => {
                if let Some(new) = self.get_row(table, rid)? {
                    let info = self.catalog.table_by_id(table)?.clone();
                    for idx_name in &info.indexes {
                        let idx = self.catalog.index(idx_name)?.clone();
                        self.index_delete(&idx, &new, rid)?;
                        self.index_insert(&idx, &old, rid)?;
                    }
                    let heap = self.heaps.get_mut(&table).expect("heap exists");
                    heap.update(&self.store, rid, &old.encode())?;
                }
            }
            UndoOp::Delete { table, rid: _, old } => {
                // Reverse of delete: re-insert. The rid may change; indexes
                // are rebuilt against the new rid.
                let heap = self.heaps.get_mut(&table).expect("heap exists");
                let new_rid = heap.insert(&self.store, &old.encode())?;
                let info = self.catalog.table_by_id(table)?.clone();
                for idx_name in &info.indexes {
                    let idx = self.catalog.index(idx_name)?.clone();
                    self.index_insert(&idx, &old, new_rid)?;
                }
                self.stats.on_insert(table, 1);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Statement execution (the QUEL front door)
// ---------------------------------------------------------------------------

impl Database {
    /// Parse and execute a QUEL program. Returns the rows of the *last*
    /// `RETRIEVE` (or `EXPLAIN`) in the program; other statements return an
    /// empty result.
    pub fn run(&mut self, src: &str) -> RelResult<crate::exec::Rows> {
        let mut last = crate::exec::Rows::empty(Schema::default());
        for stmt in crate::quel::parse_program(src)? {
            if let Some(rows) = self.run_statement(stmt)? {
                last = rows;
            }
        }
        Ok(last)
    }

    /// Execute one parsed statement: the rows of a `RETRIEVE` or `EXPLAIN`,
    /// `None` for any other statement.
    ///
    /// A `REPLACE` or `DELETE` is atomic. It finds every target row through
    /// the optimizer's access path and, for `REPLACE`, computes and
    /// validates every new row before the first write. Outside a
    /// transaction it then writes them as one implicit transaction (one WAL
    /// commit) that an error, such as a unique violation on a later row,
    /// aborts whole. Inside an explicit `BEGIN` an error leaves the
    /// transaction open, with whatever rows the statement had written, for
    /// the caller to `ABORT`.
    pub fn run_statement(
        &mut self,
        stmt: crate::quel::Statement,
    ) -> RelResult<Option<crate::exec::Rows>> {
        use crate::quel::Statement;
        let plan_text = |lines: String| crate::exec::Rows {
            schema: Schema::new(vec![crate::schema::Column::new(
                "plan",
                crate::types::DataType::Text,
            )]),
            tuples: lines
                .lines()
                .map(|l| Tuple::new(vec![Value::text(l)]))
                .collect(),
        };
        match stmt {
            Statement::CreateTable { name, columns } => {
                let mut cols = Vec::with_capacity(columns.len());
                let mut key: Vec<&str> = Vec::new();
                for c in &columns {
                    cols.push(if c.not_null {
                        crate::schema::Column::not_null(c.name.clone(), c.ty)
                    } else {
                        crate::schema::Column::new(c.name.clone(), c.ty)
                    });
                    if c.key {
                        key.push(&c.name);
                    }
                }
                self.create_table(&name, Schema::new(cols), &key)?;
            }
            Statement::CreateIndex {
                name,
                table,
                column,
                unique,
            } => self.create_index(&name, &table, &column, unique)?,
            Statement::DropTable(name) => self.drop_table(&name)?,
            Statement::DropIndex(name) => self.drop_index(&name)?,
            Statement::RangeOf { var, table } => self.declare_range(&var, &table)?,
            Statement::Retrieve(r) => {
                let block = crate::plan::build_query_block(self, &r)?;
                let plan = crate::plan::optimize(self, &block)?;
                let rows = crate::exec::execute(self, &plan)?;
                self.counters.statements += 1;
                return Ok(Some(rows));
            }
            Statement::Explain(r) => {
                let block = crate::plan::build_query_block(self, &r)?;
                let plan = crate::plan::optimize(self, &block)?;
                return Ok(Some(plan_text(plan.explain())));
            }
            Statement::ExplainAnalyze(r) => {
                let block = crate::plan::build_query_block(self, &r)?;
                let plan = crate::plan::optimize(self, &block)?;
                let (_rows, profile) = crate::exec::execute_analyzed(self, &plan)?;
                self.counters.statements += 1;
                return Ok(Some(plan_text(profile.render(&plan))));
            }
            Statement::Append { table, assigns } => self.exec_append(&table, &assigns)?,
            Statement::Replace {
                var,
                assigns,
                where_,
            } => self.exec_replace(&var, &assigns, where_.as_ref())?,
            Statement::Delete { var, where_ } => self.exec_delete(&var, where_.as_ref())?,
            Statement::Begin => {
                self.begin()?;
            }
            Statement::Commit => self.commit()?,
            Statement::Abort => self.abort()?,
            Statement::Analyze(table) => self.analyze(&table)?,
        }
        Ok(None)
    }

    fn exec_append(
        &mut self,
        table: &str,
        assigns: &[(String, crate::expr::Expr)],
    ) -> RelResult<()> {
        let info = self.catalog.table(table)?.clone();
        if let Some((col, _)) = assigns.iter().find(|(_, e)| !e.is_constant()) {
            return Err(RelError::Unsupported(format!(
                "APPEND value for `{col}` must be constant"
            )));
        }
        let empty = Tuple::default();
        let mut values = vec![Value::Null; info.schema.len()];
        for (i, expr) in crate::bind::bind_assigns(assigns, &info.schema, &Schema::default())? {
            values[i] = crate::eval::eval(&expr, &empty)?;
        }
        self.insert(table, values)?;
        Ok(())
    }

    /// `var`'s table and the `(rid, row)` pairs of it that `where_`
    /// selects, bound and found through the optimizer's access path.
    fn target_rows(
        &mut self,
        var: &str,
        where_: Option<&crate::expr::Expr>,
    ) -> RelResult<(TableInfo, Vec<(Rid, Tuple)>)> {
        let info = self.catalog.table(self.range_table(var)?)?.clone();
        let scope = info.schema.qualified(var);
        let conjuncts = match where_ {
            Some(w) => crate::bind::bind_pred(w.clone(), &scope)?.split_conjuncts(),
            None => Vec::new(),
        };
        let path = crate::plan::optimizer::build_access_path(self, &info.name, var, conjuncts)?;
        let rows = crate::exec::scan_rows(self, &path.plan)?;
        Ok((info, rows))
    }

    fn exec_replace(
        &mut self,
        var: &str,
        assigns: &[(String, crate::expr::Expr)],
        where_: Option<&crate::expr::Expr>,
    ) -> RelResult<()> {
        let (info, hits) = self.target_rows(var, where_)?;
        let scope = info.schema.qualified(var);
        let assigns = crate::bind::bind_assigns(assigns, &info.schema, &scope)?;
        let mut images = Vec::with_capacity(hits.len());
        for (rid, old) in hits {
            let mut new = old.values.clone();
            for (i, expr) in &assigns {
                new[*i] = crate::eval::eval(expr, &old)?;
            }
            images.push((rid, info.schema.validate_row(new)?));
        }
        self.write_rows(images, |db, (rid, new)| db.update_rid(&info.name, rid, new))
    }

    fn exec_delete(&mut self, var: &str, where_: Option<&crate::expr::Expr>) -> RelResult<()> {
        let (info, hits) = self.target_rows(var, where_)?;
        self.write_rows(hits, |db, (rid, _)| db.delete_rid(&info.name, rid))
    }

    /// Write a statement's rows as one unit: inside the open transaction if
    /// there is one, else as an implicit transaction committed once and
    /// aborted on any error.
    fn write_rows<T>(
        &mut self,
        rows: Vec<T>,
        mut write: impl FnMut(&mut Database, T) -> RelResult<bool>,
    ) -> RelResult<()> {
        let implicit = self.txn.current.is_none() && !rows.is_empty();
        if implicit {
            self.begin()?;
        }
        for row in rows {
            if let Err(e) = write(self, row) {
                if implicit {
                    self.abort()?;
                }
                return Err(e);
            }
        }
        if implicit {
            self.commit()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::types::DataType;

    fn emp_schema() -> Schema {
        Schema::new(vec![
            Column::not_null("name", DataType::Text),
            Column::new("dept", DataType::Text),
            Column::new("salary", DataType::Int),
        ])
    }

    #[test]
    fn create_table_makes_pk_index() {
        let mut db = Database::in_memory();
        db.create_table("emp", emp_schema(), &["name"]).unwrap();
        let info = db.catalog().table("emp").unwrap();
        assert_eq!(info.key, vec![0]);
        assert_eq!(info.indexes, vec!["pk_emp"]);
        let idx = db.catalog().index("pk_emp").unwrap();
        assert!(idx.unique);
    }

    #[test]
    fn duplicate_table_is_rejected() {
        let mut db = Database::in_memory();
        db.create_table("emp", emp_schema(), &[]).unwrap();
        assert!(db.create_table("emp", emp_schema(), &[]).is_err());
    }

    #[test]
    fn bad_key_column_is_rejected() {
        let mut db = Database::in_memory();
        assert!(db.create_table("emp", emp_schema(), &["bogus"]).is_err());
    }

    #[test]
    fn range_declarations() {
        let mut db = Database::in_memory();
        db.create_table("emp", emp_schema(), &[]).unwrap();
        db.declare_range("e", "emp").unwrap();
        assert_eq!(db.range_table("e").unwrap(), "emp");
        assert!(db.declare_range("x", "nope").is_err());
        assert!(db.range_table("z").is_err());
        db.drop_table("emp").unwrap();
        assert!(db.range_table("e").is_err(), "range dies with its table");
    }

    #[test]
    fn txn_misuse_errors() {
        let mut db = Database::in_memory();
        assert!(db.commit().is_err());
        assert!(db.abort().is_err());
        db.begin().unwrap();
        assert!(db.begin().is_err());
        db.commit().unwrap();
    }

    #[test]
    fn drop_table_frees_everything() {
        let mut db = Database::in_memory();
        db.create_table("emp", emp_schema(), &["name"]).unwrap();
        db.create_index("by_dept", "emp", "dept", false).unwrap();
        db.drop_table("emp").unwrap();
        assert!(db.catalog().table("emp").is_err());
        assert!(db.catalog().index("pk_emp").is_err());
        assert!(db.catalog().index("by_dept").is_err());
        // Name can be reused.
        db.create_table("emp", emp_schema(), &["name"]).unwrap();
    }
}
