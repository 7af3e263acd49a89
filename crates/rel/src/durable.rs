//! Durable worlds: checkpoint + WAL recovery for a [`Database`].
//!
//! A durable database lives in a directory holding two files:
//!
//! * `world.ckpt` — a [`FileStore`] whose pages are a verbatim image of the
//!   database's page store at checkpoint time, plus a metadata blob carrying
//!   the serialized catalog, range declarations, transaction counter, free
//!   page list, and the checkpoint's *epoch*.
//! * `world.wal` — the write-ahead log of everything since that checkpoint,
//!   stamped with the same epoch (see [`Wal::epoch`]).
//!
//! [`Database::checkpoint_durable`] writes a new snapshot to a temp file,
//! fsyncs it, atomically renames it over `world.ckpt`, and only then resets
//! the WAL to the new epoch. Every crash window is covered:
//!
//! * crash before the rename → the old snapshot + old WAL are intact;
//! * crash after the rename but before the WAL reset → the WAL's epoch is
//!   *older* than the snapshot's, so recovery discards it (nothing ran
//!   between the two steps — checkpointing holds `&mut self`);
//! * crash mid-WAL-append → the torn tail is dropped by frame parsing.
//!
//! [`Database::open_durable`] loads the snapshot (if any), replays the
//! committed tail of a matching-epoch WAL, and reports what it did in a
//! [`RecoveryReport`].
//!
//! ## Replay is by content, not by rid
//!
//! Logged rids are hints, not addresses: an `ABORT` undoes a delete by
//! re-inserting at a *fresh* rid, so a later committed operation can name a
//! rid that replay cannot reproduce. Replay therefore resolves each
//! update/delete target by rid hint first, verifies the stored bytes match
//! the logged before-image, and falls back to scanning the table for a row
//! with those exact bytes. State equivalence is at the multiset-of-rows
//! level, which is all the relational layer above can observe.

use crate::catalog::{IndexKind, TableId};
use crate::db::{Database, DEFAULT_POOL_FRAMES};
use crate::error::{RelError, RelResult};
use crate::schema::{Column, Schema};
use crate::tuple::Tuple;
use crate::types::DataType;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use wow_storage::heap::HeapFile;
use wow_storage::page::{Page, PageId};
use wow_storage::recovery::{replay, RecoveryReport};
use wow_storage::store::{FileStore, MemStore, PageStore};
use wow_storage::wal::{LogRecord, SyncPolicy, Wal};
use wow_storage::{Rid, StorageError};

/// Snapshot file name inside a durable world directory.
pub const CKPT_FILE: &str = "world.ckpt";
/// WAL file name inside a durable world directory.
pub const WAL_FILE: &str = "world.wal";
/// Default auto-checkpoint cadence (commits between checkpoints).
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1024;

const SNAP_MAGIC: u32 = 0x574F_5753; // "WOWS"
const SNAP_VERSION: u32 = 1;

/// Durability bookkeeping attached to a [`Database`] opened with
/// [`Database::open_durable`].
pub(crate) struct DurableState {
    pub dir: PathBuf,
    /// Commits between automatic checkpoints (0 disables them).
    pub checkpoint_every: u64,
    /// Commits since the last checkpoint.
    pub commits_since: u64,
    /// Checkpoints taken through this handle.
    pub checkpoints: u64,
    /// What recovery did when this database was opened.
    pub recovery: RecoveryReport,
}

/// Resolve the auto-checkpoint cadence: `WOW_CKPT_EVERY` overrides the
/// default (`0` disables automatic checkpoints).
pub fn resolve_checkpoint_every(default: u64) -> u64 {
    wow_obs::env_override("WOW_CKPT_EVERY").unwrap_or(default)
}

// ---------------------------------------------------------------------------
// Byte codec (snapshot metadata and DDL payloads)
// ---------------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

const CORRUPT: RelError = RelError::Storage(StorageError::Corrupt("truncated durable metadata"));

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }
    fn bytes(&mut self, n: usize) -> RelResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(CORRUPT);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> RelResult<u8> {
        Ok(self.bytes(1)?[0])
    }
    fn u16(&mut self) -> RelResult<u16> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> RelResult<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> RelResult<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> RelResult<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.bytes(n)?.to_vec())
            .map_err(|_| RelError::Storage(StorageError::Corrupt("non-utf8 durable metadata")))
    }
}

fn encode_schema(out: &mut Vec<u8>, schema: &Schema) {
    out.extend_from_slice(&(schema.len() as u16).to_le_bytes());
    for col in &schema.columns {
        put_str(out, &col.name);
        put_str(out, col.ty.keyword());
        out.push(col.nullable as u8);
    }
}

fn decode_schema(r: &mut Reader) -> RelResult<Schema> {
    let n = r.u16()? as usize;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let ty = DataType::from_keyword(&r.str()?).ok_or(RelError::Storage(
            StorageError::Corrupt("unknown column type"),
        ))?;
        let nullable = r.u8()? != 0;
        cols.push(if nullable {
            Column::new(name, ty)
        } else {
            Column::not_null(name, ty)
        });
    }
    Ok(Schema::new(cols))
}

fn encode_positions(out: &mut Vec<u8>, cols: &[usize]) {
    out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
    for &c in cols {
        out.extend_from_slice(&(c as u16).to_le_bytes());
    }
}

fn decode_positions(r: &mut Reader) -> RelResult<Vec<usize>> {
    let n = r.u16()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u16()? as usize);
    }
    Ok(out)
}

fn kind_byte(kind: IndexKind) -> u8 {
    match kind {
        IndexKind::BTree => 0,
        IndexKind::Hash => 1,
    }
}

fn byte_kind(b: u8) -> RelResult<IndexKind> {
    match b {
        0 => Ok(IndexKind::BTree),
        1 => Ok(IndexKind::Hash),
        _ => Err(RelError::Storage(StorageError::Corrupt(
            "unknown index kind",
        ))),
    }
}

// -- DDL payloads (carried opaquely in `LogRecord::Ddl`) --------------------

const DDL_CREATE_TABLE: u8 = 1;
const DDL_CREATE_INDEX: u8 = 2;
const DDL_DROP_TABLE: u8 = 3;
const DDL_DROP_INDEX: u8 = 4;

pub(crate) fn encode_create_table(
    id: TableId,
    name: &str,
    schema: &Schema,
    key: &[usize],
) -> Vec<u8> {
    let mut out = vec![DDL_CREATE_TABLE];
    out.extend_from_slice(&id.to_le_bytes());
    put_str(&mut out, name);
    encode_schema(&mut out, schema);
    encode_positions(&mut out, key);
    out
}

pub(crate) fn encode_create_index(
    name: &str,
    table: &str,
    columns: &[usize],
    kind: IndexKind,
    unique: bool,
) -> Vec<u8> {
    let mut out = vec![DDL_CREATE_INDEX];
    put_str(&mut out, name);
    put_str(&mut out, table);
    encode_positions(&mut out, columns);
    out.push(kind_byte(kind));
    out.push(unique as u8);
    out
}

pub(crate) fn encode_drop_table(name: &str) -> Vec<u8> {
    let mut out = vec![DDL_DROP_TABLE];
    put_str(&mut out, name);
    out
}

pub(crate) fn encode_drop_index(name: &str) -> Vec<u8> {
    let mut out = vec![DDL_DROP_INDEX];
    put_str(&mut out, name);
    out
}

// ---------------------------------------------------------------------------
// Snapshot metadata
// ---------------------------------------------------------------------------

struct SnapTable {
    id: TableId,
    name: String,
    schema: Schema,
    key: Vec<usize>,
    heap_meta: u64,
}

struct SnapIndex {
    name: String,
    table: TableId,
    columns: Vec<usize>,
    kind: IndexKind,
    unique: bool,
    meta: u64,
}

struct Snapshot {
    epoch: u64,
    txn_next: u64,
    next_table_id: TableId,
    page_count: u64,
    free: Vec<u64>,
    tables: Vec<SnapTable>,
    indexes: Vec<SnapIndex>,
    ranges: Vec<(String, String)>,
}

impl Snapshot {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&SNAP_MAGIC.to_le_bytes());
        out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.txn_next.to_le_bytes());
        out.extend_from_slice(&self.next_table_id.to_le_bytes());
        out.extend_from_slice(&self.page_count.to_le_bytes());
        out.extend_from_slice(&(self.free.len() as u32).to_le_bytes());
        for &id in &self.free {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
        for t in &self.tables {
            out.extend_from_slice(&t.id.to_le_bytes());
            put_str(&mut out, &t.name);
            encode_schema(&mut out, &t.schema);
            encode_positions(&mut out, &t.key);
            out.extend_from_slice(&t.heap_meta.to_le_bytes());
        }
        out.extend_from_slice(&(self.indexes.len() as u32).to_le_bytes());
        for i in &self.indexes {
            put_str(&mut out, &i.name);
            out.extend_from_slice(&i.table.to_le_bytes());
            encode_positions(&mut out, &i.columns);
            out.push(kind_byte(i.kind));
            out.push(i.unique as u8);
            out.extend_from_slice(&i.meta.to_le_bytes());
        }
        out.extend_from_slice(&(self.ranges.len() as u32).to_le_bytes());
        for (var, table) in &self.ranges {
            put_str(&mut out, var);
            put_str(&mut out, table);
        }
        out
    }

    fn decode(buf: &[u8]) -> RelResult<Snapshot> {
        let mut r = Reader::new(buf);
        if r.u32()? != SNAP_MAGIC {
            return Err(RelError::Storage(StorageError::Corrupt(
                "bad snapshot magic",
            )));
        }
        if r.u32()? != SNAP_VERSION {
            return Err(RelError::Storage(StorageError::Corrupt(
                "unsupported snapshot version",
            )));
        }
        let epoch = r.u64()?;
        let txn_next = r.u64()?;
        let next_table_id = r.u32()?;
        let page_count = r.u64()?;
        let nfree = r.u32()? as usize;
        let mut free = Vec::with_capacity(nfree);
        for _ in 0..nfree {
            free.push(r.u64()?);
        }
        let ntables = r.u32()? as usize;
        let mut tables = Vec::with_capacity(ntables);
        for _ in 0..ntables {
            let id = r.u32()?;
            let name = r.str()?;
            let schema = decode_schema(&mut r)?;
            let key = decode_positions(&mut r)?;
            let heap_meta = r.u64()?;
            tables.push(SnapTable {
                id,
                name,
                schema,
                key,
                heap_meta,
            });
        }
        let nindexes = r.u32()? as usize;
        let mut indexes = Vec::with_capacity(nindexes);
        for _ in 0..nindexes {
            let name = r.str()?;
            let table = r.u32()?;
            let columns = decode_positions(&mut r)?;
            let kind = byte_kind(r.u8()?)?;
            let unique = r.u8()? != 0;
            let meta = r.u64()?;
            indexes.push(SnapIndex {
                name,
                table,
                columns,
                kind,
                unique,
                meta,
            });
        }
        let nranges = r.u32()? as usize;
        let mut ranges = Vec::with_capacity(nranges);
        for _ in 0..nranges {
            let var = r.str()?;
            let table = r.str()?;
            ranges.push((var, table));
        }
        Ok(Snapshot {
            epoch,
            txn_next,
            next_table_id,
            page_count,
            free,
            tables,
            indexes,
            ranges,
        })
    }
}

fn io_err(e: std::io::Error) -> RelError {
    RelError::Storage(e.into())
}

// ---------------------------------------------------------------------------
// Database: durable open / checkpoint / replay
// ---------------------------------------------------------------------------

impl Database {
    /// Open (or create) a durable database in `dir`, running crash recovery:
    /// load the last checkpoint, replay the committed tail of the WAL, and
    /// attach the WAL for future writes. The fsync policy honors the
    /// `WOW_FSYNC` environment override; the auto-checkpoint cadence honors
    /// `WOW_CKPT_EVERY`.
    pub fn open_durable(dir: &Path) -> RelResult<Database> {
        let mut span = wow_obs::span(wow_obs::Op::Recovery);
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let ckpt_path = dir.join(CKPT_FILE);
        let wal_path = dir.join(WAL_FILE);

        let (mut db, snap_epoch) = if ckpt_path.exists() {
            let mut fs = FileStore::open(&ckpt_path)?;
            let meta = fs
                .get_meta()?
                .ok_or(RelError::Storage(StorageError::Corrupt(
                    "checkpoint has no metadata blob",
                )))?;
            let snap = Snapshot::decode(&meta)?;
            let mut db = Self::restore_snapshot(&mut fs, &snap)?;
            db.txn.next = snap.txn_next;
            (db, snap.epoch)
        } else {
            (Database::in_memory(), 0)
        };

        let mut wal = Wal::open(&wal_path)?;
        let mut recovery = RecoveryReport::default();
        if wal.epoch() == snap_epoch {
            let records: Vec<LogRecord> = wal.read_all()?.into_iter().map(|(_, r)| r).collect();
            recovery = db.apply_committed(&records)?;
            let max_txn = records.iter().map(|r| r.txn()).max().unwrap_or(0);
            db.txn.next = db.txn.next.max(max_txn + 1);
        } else {
            // A crash between checkpoint-rename and WAL-reset leaves a log
            // from the *previous* epoch; everything in it is already in the
            // snapshot. Discard and restamp.
            wal.reset(snap_epoch)?;
        }
        wal.set_sync_policy(wow_obs::env_override("WOW_FSYNC").unwrap_or(SyncPolicy::Commit));
        db.wal = Some(wal);
        span.arg(recovery.replayed_ops);
        db.durable = Some(DurableState {
            dir: dir.to_path_buf(),
            checkpoint_every: resolve_checkpoint_every(DEFAULT_CHECKPOINT_EVERY),
            commits_since: 0,
            checkpoints: 0,
            recovery,
        });
        Ok(db)
    }

    /// Rebuild an in-memory database from a checkpoint's page images and
    /// serialized catalog.
    fn restore_snapshot(fs: &mut FileStore, snap: &Snapshot) -> RelResult<Database> {
        let free: HashSet<u64> = snap.free.iter().copied().collect();
        let mut pages: Vec<Option<Page>> = Vec::with_capacity(snap.page_count as usize);
        for id in 0..snap.page_count {
            if free.contains(&id) {
                pages.push(None);
            } else {
                let mut p = Page::zeroed();
                fs.read(PageId(id), &mut p)?;
                pages.push(Some(p));
            }
        }
        let mut db = Database::with_store(MemStore::from_parts(pages), DEFAULT_POOL_FRAMES);
        for t in &snap.tables {
            let heap = HeapFile::open(&db.pool, PageId(t.heap_meta))?;
            let rows = heap.len();
            let id = db.catalog.add_table_with_id(
                &t.name,
                t.id,
                t.schema.clone(),
                PageId(t.heap_meta),
                t.key.clone(),
            )?;
            db.heaps.insert(id, heap);
            db.stats.entry(id).rows = rows;
        }
        db.catalog.set_next_table_id(snap.next_table_id);
        for i in &snap.indexes {
            let tname = db.catalog.table_by_id(i.table)?.name.clone();
            db.catalog.add_index(
                &i.name,
                &tname,
                i.columns.clone(),
                i.kind,
                i.unique,
                PageId(i.meta),
            )?;
            db.open_index_handle(&i.name, i.kind, PageId(i.meta))?;
        }
        for (var, table) in &snap.ranges {
            db.ranges.insert(var.clone(), table.clone());
        }
        Ok(db)
    }

    /// Write a durable checkpoint: snapshot every page plus the serialized
    /// catalog into `world.ckpt` (atomically, via a temp file + rename), then
    /// reset the WAL to the next epoch. Refuses to run inside an open
    /// transaction — a snapshot must capture a transaction boundary.
    pub fn checkpoint_durable(&mut self) -> RelResult<()> {
        let dir = match &self.durable {
            Some(d) => d.dir.clone(),
            None => return Err(RelError::Txn("database was not opened durable")),
        };
        if self.txn.current.is_some() {
            return Err(RelError::Txn("cannot checkpoint inside a transaction"));
        }
        let mut span = wow_obs::span(wow_obs::Op::Checkpoint);
        let epoch = self.wal.as_ref().map(|w| w.epoch()).unwrap_or(0) + 1;
        self.pool.flush_all()?;

        let tmp = dir.join("world.ckpt.tmp");
        let _ = std::fs::remove_file(&tmp);
        {
            let mut target = FileStore::open(&tmp)?;
            let mut free: Vec<u64> = Vec::new();
            let page_count = self.pool.with_store(|s| -> RelResult<u64> {
                let n = s.page_count();
                let mut buf = Page::zeroed();
                for id in 0..n {
                    let tid = target.allocate()?;
                    debug_assert_eq!(tid.0, id, "snapshot page ids must align");
                    match s.read(PageId(id), &mut buf) {
                        Ok(()) => target.write(tid, &buf)?,
                        Err(StorageError::PageNotFound(_)) => free.push(id),
                        Err(e) => return Err(e.into()),
                    }
                }
                Ok(n)
            })?;
            let snap = self.build_snapshot(epoch, page_count, free);
            target.set_meta(&snap.encode())?;
            target.sync()?;
        }
        std::fs::rename(&tmp, dir.join(CKPT_FILE)).map_err(io_err)?;
        if let Some(wal) = &mut self.wal {
            wal.reset(epoch)?;
        }
        let d = self.durable.as_mut().expect("checked above");
        d.checkpoints += 1;
        d.commits_since = 0;
        span.arg(page_count_arg(&self.pool));
        Ok(())
    }

    fn build_snapshot(&self, epoch: u64, page_count: u64, free: Vec<u64>) -> Snapshot {
        let mut tables = Vec::new();
        let mut indexes = Vec::new();
        for name in self.catalog.table_names() {
            let t = self.catalog.table(&name).expect("listed table exists");
            tables.push(SnapTable {
                id: t.id,
                name: t.name.clone(),
                schema: t.schema.clone(),
                key: t.key.clone(),
                heap_meta: t.heap_meta.0,
            });
            for idx_name in &t.indexes {
                let i = self.catalog.index(idx_name).expect("listed index exists");
                indexes.push(SnapIndex {
                    name: i.name.clone(),
                    table: i.table,
                    columns: i.columns.clone(),
                    kind: i.kind,
                    unique: i.unique,
                    meta: i.meta.0,
                });
            }
        }
        Snapshot {
            epoch,
            txn_next: self.txn.next,
            next_table_id: self.catalog.next_table_id(),
            page_count,
            free,
            tables,
            indexes,
            ranges: self
                .ranges
                .iter()
                .map(|(v, t)| (v.clone(), t.clone()))
                .collect(),
        }
    }

    /// Apply the committed operations of `records`, in log order, to this
    /// database. DML targets are resolved by rid hint with a content
    /// fallback (see the module docs); DDL payloads are decoded and applied
    /// through the non-logging internal paths. Returns the report of
    /// [`wow_storage::recovery::replay`], which picks the committed
    /// operations and counts the rest as skipped.
    pub(crate) fn apply_committed(&mut self, records: &[LogRecord]) -> RelResult<RecoveryReport> {
        // Rid hints: logged rid -> rid in this database.
        let mut rid_map: std::collections::HashMap<(TableId, Rid), Rid> =
            std::collections::HashMap::new();
        replay(records, |rec| {
            match rec {
                LogRecord::Insert {
                    table, rid, bytes, ..
                } => {
                    let tname = self.catalog.table_by_id(*table)?.name.clone();
                    let tuple = Tuple::decode(bytes)?;
                    let new_rid = self.insert(&tname, tuple.values)?;
                    rid_map.insert((*table, *rid), new_rid);
                }
                LogRecord::Update {
                    table,
                    rid,
                    old,
                    new,
                    ..
                } => {
                    let hint = rid_map.get(&(*table, *rid)).copied().unwrap_or(*rid);
                    if let Some(target) = self.resolve_replay_rid(*table, hint, old)? {
                        let tname = self.catalog.table_by_id(*table)?.name.clone();
                        let tuple = Tuple::decode(new)?;
                        self.update_rid(&tname, target, tuple.values)?;
                        rid_map.insert((*table, *rid), target);
                    }
                }
                LogRecord::Delete {
                    table, rid, old, ..
                } => {
                    let hint = rid_map.get(&(*table, *rid)).copied().unwrap_or(*rid);
                    if let Some(target) = self.resolve_replay_rid(*table, hint, old)? {
                        let tname = self.catalog.table_by_id(*table)?.name.clone();
                        self.delete_rid(&tname, target)?;
                        rid_map.remove(&(*table, *rid));
                    }
                }
                LogRecord::Ddl { bytes, .. } => self.apply_ddl(bytes)?,
                _ => {}
            }
            Ok(())
        })
    }

    /// Find the rid currently holding the exact bytes `old` in `table`:
    /// the hint if it matches, else a content scan. `None` means the row is
    /// gone: replaying the operation is a no-op.
    fn resolve_replay_rid(
        &mut self,
        table: TableId,
        hint: Rid,
        old: &[u8],
    ) -> RelResult<Option<Rid>> {
        if let Ok(Some(t)) = self.get_row(table, hint) {
            if t.encode() == old {
                return Ok(Some(hint));
            }
        }
        let heap = self
            .heaps
            .get(&table)
            .ok_or_else(|| RelError::NoSuchTable(format!("#{table}")))?;
        let mut found = None;
        heap.scan(&self.pool, |rid, bytes| {
            if found.is_none() && bytes == old {
                found = Some(rid);
            }
        })?;
        Ok(found)
    }

    /// Decode and apply one logged DDL payload.
    fn apply_ddl(&mut self, bytes: &[u8]) -> RelResult<()> {
        let mut r = Reader::new(bytes);
        match r.u8()? {
            DDL_CREATE_TABLE => {
                let id = r.u32()?;
                let name = r.str()?;
                let schema = decode_schema(&mut r)?;
                let key = decode_positions(&mut r)?;
                self.create_table_at(&name, id, schema, key)?;
            }
            DDL_CREATE_INDEX => {
                let name = r.str()?;
                let table = r.str()?;
                let columns = decode_positions(&mut r)?;
                let kind = byte_kind(r.u8()?)?;
                let unique = r.u8()? != 0;
                self.create_index_internal(&name, &table, columns, kind, unique)?;
            }
            DDL_DROP_TABLE => {
                let name = r.str()?;
                self.drop_table(&name)?;
            }
            DDL_DROP_INDEX => {
                let name = r.str()?;
                self.drop_index(&name)?;
            }
            _ => {
                return Err(RelError::Storage(StorageError::Corrupt(
                    "unknown ddl payload",
                )))
            }
        }
        Ok(())
    }

    /// Count one committed transaction toward the auto-checkpoint cadence,
    /// taking a checkpoint when it is reached.
    pub(crate) fn note_commit(&mut self) -> RelResult<()> {
        let due = match &mut self.durable {
            Some(d) if d.checkpoint_every > 0 => {
                d.commits_since += 1;
                d.commits_since >= d.checkpoint_every
            }
            _ => false,
        };
        if due && self.txn.current.is_none() {
            self.checkpoint_durable()?;
        }
        Ok(())
    }

    /// What recovery did when this database was opened durable (`None` for
    /// non-durable databases).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durable.as_ref().map(|d| &d.recovery)
    }

    /// Checkpoints taken through this handle.
    pub fn checkpoints_taken(&self) -> u64 {
        self.durable.as_ref().map(|d| d.checkpoints).unwrap_or(0)
    }

    /// The durable world directory, if this database was opened durable.
    pub fn durable_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// Set the auto-checkpoint cadence (commits between checkpoints; 0
    /// disables). No-op on non-durable databases.
    pub fn set_checkpoint_every(&mut self, every: u64) {
        if let Some(d) = &mut self.durable {
            d.checkpoint_every = every;
        }
    }
}

fn page_count_arg(pool: &std::sync::Arc<wow_storage::buffer::BufferPool<MemStore>>) -> u64 {
    pool.with_store(|s| s.page_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn tmp_world(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wow-durable-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn emp_schema() -> Schema {
        Schema::new(vec![
            Column::not_null("name", DataType::Text),
            Column::new("salary", DataType::Int),
        ])
    }

    fn row(name: &str, salary: i64) -> Vec<Value> {
        vec![Value::text(name), Value::Int(salary)]
    }

    fn sorted_rows(db: &mut Database, table: &str) -> Vec<Vec<Value>> {
        let id = db.catalog().table(table).unwrap().id;
        let mut rows: Vec<Vec<Value>> = db
            .scan_table_raw(id)
            .unwrap()
            .into_iter()
            .map(|(_, t)| t.values)
            .collect();
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        rows
    }

    #[test]
    fn wal_only_recovery_includes_ddl() {
        let dir = tmp_world("wal-only");
        {
            let mut db = Database::open_durable(&dir).unwrap();
            db.create_table("emp", emp_schema(), &["name"]).unwrap();
            db.insert("emp", row("alice", 100)).unwrap();
            db.insert("emp", row("bob", 90)).unwrap();
            // Uncommitted transaction must not survive.
            db.begin().unwrap();
            db.insert("emp", row("ghost", 1)).unwrap();
            // "Crash": drop without commit.
        }
        let mut db = Database::open_durable(&dir).unwrap();
        let report = db.recovery_report().unwrap().clone();
        assert_eq!(report.in_flight.len(), 1, "ghost txn seen but skipped");
        assert_eq!(
            sorted_rows(&mut db, "emp"),
            vec![row("alice", 100), row("bob", 90)]
        );
        // The pk index came back too.
        assert_eq!(
            db.index_lookup("pk_emp", &[Value::text("bob")])
                .unwrap()
                .len(),
            1
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_report_counts_loser_ops_as_skipped() {
        let dir = tmp_world("skipped");
        {
            let mut db = Database::open_durable(&dir).unwrap();
            db.create_table("emp", emp_schema(), &["name"]).unwrap();
            db.insert("emp", row("alice", 100)).unwrap();
            db.begin().unwrap();
            db.insert("emp", row("bob", 90)).unwrap();
            db.insert("emp", row("carol", 80)).unwrap();
            db.abort().unwrap();
            db.begin().unwrap();
            db.insert("emp", row("ghost", 1)).unwrap();
        }
        let mut db = Database::open_durable(&dir).unwrap();
        let report = db.recovery_report().unwrap().clone();
        assert_eq!(report.committed, vec![1, 2]);
        assert_eq!(report.aborted, vec![3]);
        assert_eq!(report.in_flight, vec![4]);
        assert_eq!(report.replayed_ops, 2, "create table + alice");
        assert_eq!(report.skipped_ops, 3, "bob, carol and ghost");
        assert_eq!(sorted_rows(&mut db, "emp"), vec![row("alice", 100)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_plus_tail_round_trips() {
        let dir = tmp_world("ckpt-tail");
        {
            let mut db = Database::open_durable(&dir).unwrap();
            db.create_table("emp", emp_schema(), &["name"]).unwrap();
            db.insert("emp", row("alice", 100)).unwrap();
            db.checkpoint_durable().unwrap();
            assert_eq!(db.wal().unwrap().epoch(), 1);
            // Tail after the checkpoint.
            db.insert("emp", row("bob", 90)).unwrap();
            let rid = db.insert("emp", row("carol", 80)).unwrap();
            db.update_rid("emp", rid, row("carol", 85)).unwrap();
        }
        let mut db = Database::open_durable(&dir).unwrap();
        let report = db.recovery_report().unwrap().clone();
        assert!(report.replayed_ops >= 3, "tail replayed: {report:?}");
        assert_eq!(
            sorted_rows(&mut db, "emp"),
            vec![row("alice", 100), row("bob", 90), row("carol", 85)]
        );
        // Writes keep working after recovery.
        db.insert("emp", row("dave", 70)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_epoch_wal_is_discarded() {
        let dir = tmp_world("stale-wal");
        {
            let mut db = Database::open_durable(&dir).unwrap();
            db.create_table("emp", emp_schema(), &["name"]).unwrap();
            db.insert("emp", row("alice", 100)).unwrap();
            db.checkpoint_durable().unwrap();
        }
        // Simulate a crash after checkpoint-rename but before WAL reset: the
        // on-disk log claims epoch 0 while the snapshot is epoch 1. Its
        // contents (a committed insert) are already *in* the snapshot;
        // replaying them would double the row.
        let frames = {
            let mut w = Wal::in_memory();
            w.append(&LogRecord::Insert {
                txn: 7,
                table: 0,
                rid: Rid::new(PageId(1), 0),
                bytes: Tuple::new(row("alice", 100)).encode(),
            })
            .unwrap();
            w.append(&LogRecord::Commit { txn: 7 }).unwrap();
            w.raw().unwrap().to_vec()
        };
        Wal::write_image(&dir.join(WAL_FILE), 0, &frames).unwrap();
        let mut db = Database::open_durable(&dir).unwrap();
        assert_eq!(db.recovery_report().unwrap().replayed_ops, 0);
        assert_eq!(sorted_rows(&mut db, "emp"), vec![row("alice", 100)]);
        assert_eq!(
            db.wal().unwrap().epoch(),
            1,
            "log restamped to the snapshot epoch"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abort_undo_then_committed_delete_round_trips() {
        // An aborted delete re-inserts its row (possibly at a fresh rid);
        // the committed delete that follows must still replay correctly.
        let dir = tmp_world("abort-then-delete");
        {
            let mut db = Database::open_durable(&dir).unwrap();
            db.create_table("emp", emp_schema(), &["name"]).unwrap();
            let a = db.insert("emp", row("alice", 100)).unwrap();
            let b = db.insert("emp", row("bob", 90)).unwrap();
            db.begin().unwrap();
            db.delete_rid("emp", a).unwrap();
            db.delete_rid("emp", b).unwrap();
            db.abort().unwrap();
            let rows = db
                .scan_table_raw(db.catalog().table("emp").unwrap().id)
                .unwrap();
            let cur_a = rows
                .iter()
                .find(|(_, t)| t.values[0] == Value::text("alice"))
                .map(|(r, _)| *r)
                .unwrap();
            db.delete_rid("emp", cur_a).unwrap();
        }
        let mut db = Database::open_durable(&dir).unwrap();
        assert_eq!(sorted_rows(&mut db, "emp"), vec![row("bob", 90)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_rid_hint_falls_back_to_content() {
        // Synthetic log whose update/delete rids point nowhere useful: the
        // before-image content scan must find the real rows.
        let mut db = Database::in_memory();
        db.create_table("emp", emp_schema(), &["name"]).unwrap();
        let tid = db.catalog().table("emp").unwrap().id;
        let bogus = Rid::new(PageId(999), 7);
        let records = vec![
            LogRecord::Insert {
                txn: 1,
                table: tid,
                rid: Rid::new(PageId(500), 3),
                bytes: Tuple::new(row("alice", 100)).encode(),
            },
            LogRecord::Insert {
                txn: 1,
                table: tid,
                rid: Rid::new(PageId(500), 4),
                bytes: Tuple::new(row("bob", 90)).encode(),
            },
            LogRecord::Commit { txn: 1 },
            LogRecord::Update {
                txn: 2,
                table: tid,
                rid: bogus,
                old: Tuple::new(row("alice", 100)).encode(),
                new: Tuple::new(row("alice", 120)).encode(),
            },
            LogRecord::Commit { txn: 2 },
            LogRecord::Delete {
                txn: 3,
                table: tid,
                rid: bogus,
                old: Tuple::new(row("bob", 90)).encode(),
            },
            LogRecord::Commit { txn: 3 },
        ];
        let report = db.apply_committed(&records).unwrap();
        assert_eq!(report.replayed_ops, 4);
        assert_eq!(report.skipped_ops, 0);
        assert_eq!(sorted_rows(&mut db, "emp"), vec![row("alice", 120)]);
    }

    #[test]
    fn drop_table_and_index_replay() {
        let dir = tmp_world("ddl-drop");
        {
            let mut db = Database::open_durable(&dir).unwrap();
            db.create_table("keep", emp_schema(), &["name"]).unwrap();
            db.create_table("gone", emp_schema(), &["name"]).unwrap();
            db.create_index("by_sal", "keep", "salary", IndexKind::BTree, false)
                .unwrap();
            db.insert("keep", row("alice", 100)).unwrap();
            db.drop_index("by_sal").unwrap();
            db.drop_table("gone").unwrap();
        }
        let mut db = Database::open_durable(&dir).unwrap();
        assert!(db.catalog().table("gone").is_err());
        assert!(db.catalog().index("by_sal").is_err());
        assert_eq!(sorted_rows(&mut db, "keep"), vec![row("alice", 100)]);
        // Table ids stay retired: a new table never reuses "gone"'s id.
        let gone_id = 1; // second table created above
        let new_id = db.create_table("fresh", emp_schema(), &[]).unwrap();
        assert!(new_id > gone_id);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sys_tables_are_not_logged() {
        let mut db = Database::in_memory().with_wal();
        db.create_table("__sys_gauge", emp_schema(), &["name"])
            .unwrap();
        db.insert("__sys_gauge", row("hits", 3)).unwrap();
        assert_eq!(db.wal().unwrap().appended(), 0);
        // User tables still log.
        db.create_table("emp", emp_schema(), &["name"]).unwrap();
        db.insert("emp", row("alice", 1)).unwrap();
        assert!(db.wal().unwrap().appended() >= 3, "ddl + insert + commit");
    }

    #[test]
    fn auto_checkpoint_fires_on_cadence() {
        let dir = tmp_world("auto-ckpt");
        {
            let mut db = Database::open_durable(&dir).unwrap();
            db.create_table("emp", emp_schema(), &["name"]).unwrap();
            db.set_checkpoint_every(2);
            db.insert("emp", row("a", 1)).unwrap();
            assert_eq!(db.checkpoints_taken(), 0);
            db.insert("emp", row("b", 2)).unwrap();
            assert_eq!(db.checkpoints_taken(), 1);
            assert_eq!(db.wal().unwrap().epoch(), 1);
            db.insert("emp", row("c", 3)).unwrap();
        }
        let mut db = Database::open_durable(&dir).unwrap();
        assert_eq!(
            sorted_rows(&mut db, "emp"),
            vec![row("a", 1), row("b", 2), row("c", 3)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ranges_and_txn_counter_survive_checkpoint() {
        let dir = tmp_world("ranges");
        let next_before;
        {
            let mut db = Database::open_durable(&dir).unwrap();
            db.create_table("emp", emp_schema(), &["name"]).unwrap();
            db.declare_range("e", "emp").unwrap();
            db.insert("emp", row("alice", 10)).unwrap();
            db.checkpoint_durable().unwrap();
            next_before = db.txn_next_for_tests();
        }
        let db = Database::open_durable(&dir).unwrap();
        assert_eq!(db.range_table("e").unwrap(), "emp");
        assert!(db.txn_next_for_tests() >= next_before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_refuses_open_transaction() {
        let dir = tmp_world("ckpt-txn");
        let mut db = Database::open_durable(&dir).unwrap();
        db.create_table("emp", emp_schema(), &[]).unwrap();
        db.begin().unwrap();
        assert!(db.checkpoint_durable().is_err());
        db.commit().unwrap();
        db.checkpoint_durable().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
