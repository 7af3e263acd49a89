//! Write-ahead log.
//!
//! Every data-modifying statement appends logical records to the WAL before
//! touching heap pages; commit appends a commit record and flushes. After a
//! crash, [`crate::recovery`] replays the committed prefix.
//!
//! Record wire format (little-endian):
//!
//! ```text
//! 4 bytes  payload length
//! 8 bytes  FNV-1a checksum of the payload
//! n bytes  payload (bincode-free, hand-rolled tag + fields)
//! ```
//!
//! A file-backed log starts with a 16-byte header (`"WOWL"` magic, format
//! version, **epoch**). The epoch pairs the log with the checkpoint snapshot
//! it extends: a checkpoint writes a snapshot stamped `epoch + 1` and then
//! resets the log to that epoch, so recovery can tell a fresh tail from a
//! stale pre-checkpoint log left behind by a crash between those two steps
//! (see `wow-rel`'s durable-open path and DESIGN.md §Durability).
//!
//! The log backend is an in-memory buffer (benches, crash-simulation tests),
//! an append-only file, or a deterministic fault-injecting log
//! ([`crate::fault::FaultLog`]) for crash-torture tests.

use crate::error::{StorageError, StorageResult};
use crate::fault::{FaultLog, FaultPlan, FaultStats};
use crate::rid::Rid;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Transaction identifier assigned by the session layer.
pub type TxnId = u64;
/// Identifier of a logged table (the relation's catalog id).
pub type TableId = u32;
/// Log sequence number: byte offset of the record in the log.
pub type Lsn = u64;

/// A logical log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Transaction start.
    Begin { txn: TxnId },
    /// A row was inserted.
    Insert {
        txn: TxnId,
        table: TableId,
        rid: Rid,
        bytes: Vec<u8>,
    },
    /// A row was rewritten (old image kept for undo/audit).
    Update {
        txn: TxnId,
        table: TableId,
        rid: Rid,
        old: Vec<u8>,
        new: Vec<u8>,
    },
    /// A row was deleted (old image kept).
    Delete {
        txn: TxnId,
        table: TableId,
        rid: Rid,
        old: Vec<u8>,
    },
    /// Transaction committed; its effects must survive a crash.
    Commit { txn: TxnId },
    /// Transaction aborted; its effects must not be replayed.
    Abort { txn: TxnId },
    /// A schema change (create/drop table/index). The payload is opaque to
    /// this crate; the relational layer encodes and replays it so the WAL
    /// protects DDL issued after the last checkpoint, not just data.
    Ddl { txn: TxnId, bytes: Vec<u8> },
}

const TAG_BEGIN: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_UPDATE: u8 = 3;
const TAG_DELETE: u8 = 4;
const TAG_COMMIT: u8 = 5;
const TAG_ABORT: u8 = 6;
const TAG_DDL: u8 = 7;

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> StorageResult<u8> {
        let v = *self.buf.get(self.pos).ok_or(StorageError::WalCorrupt {
            offset: self.pos as u64,
            reason: "eof",
        })?;
        self.pos += 1;
        Ok(v)
    }
    fn u32(&mut self) -> StorageResult<u32> {
        let s = self
            .buf
            .get(self.pos..self.pos + 4)
            .ok_or(StorageError::WalCorrupt {
                offset: self.pos as u64,
                reason: "eof",
            })?;
        self.pos += 4;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }
    fn u64(&mut self) -> StorageResult<u64> {
        let s = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or(StorageError::WalCorrupt {
                offset: self.pos as u64,
                reason: "eof",
            })?;
        self.pos += 8;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }
    fn rid(&mut self) -> StorageResult<Rid> {
        let s = self
            .buf
            .get(self.pos..self.pos + 10)
            .ok_or(StorageError::WalCorrupt {
                offset: self.pos as u64,
                reason: "eof",
            })?;
        self.pos += 10;
        Rid::from_bytes(s).ok_or(StorageError::WalCorrupt {
            offset: self.pos as u64,
            reason: "bad rid",
        })
    }
    fn bytes(&mut self) -> StorageResult<Vec<u8>> {
        let n = self.u32()? as usize;
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(StorageError::WalCorrupt {
                offset: self.pos as u64,
                reason: "eof",
            })?;
        self.pos += n;
        Ok(s.to_vec())
    }
}

impl LogRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            LogRecord::Begin { txn } => {
                out.push(TAG_BEGIN);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::Insert {
                txn,
                table,
                rid,
                bytes,
            } => {
                out.push(TAG_INSERT);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&rid.to_bytes());
                put_bytes(&mut out, bytes);
            }
            LogRecord::Update {
                txn,
                table,
                rid,
                old,
                new,
            } => {
                out.push(TAG_UPDATE);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&rid.to_bytes());
                put_bytes(&mut out, old);
                put_bytes(&mut out, new);
            }
            LogRecord::Delete {
                txn,
                table,
                rid,
                old,
            } => {
                out.push(TAG_DELETE);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&rid.to_bytes());
                put_bytes(&mut out, old);
            }
            LogRecord::Commit { txn } => {
                out.push(TAG_COMMIT);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::Abort { txn } => {
                out.push(TAG_ABORT);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::Ddl { txn, bytes } => {
                out.push(TAG_DDL);
                out.extend_from_slice(&txn.to_le_bytes());
                put_bytes(&mut out, bytes);
            }
        }
        out
    }

    fn decode(payload: &[u8], offset: u64) -> StorageResult<LogRecord> {
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let rec = match r.u8()? {
            TAG_BEGIN => LogRecord::Begin { txn: r.u64()? },
            TAG_INSERT => LogRecord::Insert {
                txn: r.u64()?,
                table: r.u32()?,
                rid: r.rid()?,
                bytes: r.bytes()?,
            },
            TAG_UPDATE => LogRecord::Update {
                txn: r.u64()?,
                table: r.u32()?,
                rid: r.rid()?,
                old: r.bytes()?,
                new: r.bytes()?,
            },
            TAG_DELETE => LogRecord::Delete {
                txn: r.u64()?,
                table: r.u32()?,
                rid: r.rid()?,
                old: r.bytes()?,
            },
            TAG_COMMIT => LogRecord::Commit { txn: r.u64()? },
            TAG_ABORT => LogRecord::Abort { txn: r.u64()? },
            TAG_DDL => LogRecord::Ddl {
                txn: r.u64()?,
                bytes: r.bytes()?,
            },
            _ => {
                return Err(StorageError::WalCorrupt {
                    offset,
                    reason: "unknown tag",
                })
            }
        };
        if r.pos != payload.len() {
            return Err(StorageError::WalCorrupt {
                offset,
                reason: "trailing bytes",
            });
        }
        Ok(rec)
    }

    /// The transaction this record belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Insert { txn, .. }
            | LogRecord::Update { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::Ddl { txn, .. } => *txn,
        }
    }
}

/// When [`Wal::flush`] actually forces bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Every flush (i.e. every commit) fsyncs. Crash-safe; the default.
    #[default]
    Commit,
    /// Flushes are no-ops: writes reach the OS but are never forced. Fast,
    /// but a power loss can take back acknowledged commits — only for
    /// benches and workloads that can re-derive their data.
    Never,
}

/// The word forms of the `WOW_FSYNC` override, case-insensitive:
/// `0`/`off`/`never`/`false` → [`SyncPolicy::Never`],
/// `1`/`on`/`commit`/`true` → [`SyncPolicy::Commit`].
impl std::str::FromStr for SyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<SyncPolicy, String> {
        match s.to_ascii_lowercase().as_str() {
            "0" | "off" | "never" | "false" => Ok(SyncPolicy::Never),
            "1" | "on" | "commit" | "true" => Ok(SyncPolicy::Commit),
            other => Err(format!("unknown sync policy {other:?}")),
        }
    }
}

enum Backend {
    Memory(Vec<u8>),
    File(File),
    Fault(FaultLog),
}

/// Size of the file-backend header.
const WAL_HEADER: u64 = 16;
const WAL_MAGIC: u32 = 0x574F_574C; // "WOWL"
const WAL_VERSION: u32 = 1;

fn encode_wal_header(epoch: u64) -> [u8; WAL_HEADER as usize] {
    let mut h = [0u8; WAL_HEADER as usize];
    h[..4].copy_from_slice(&WAL_MAGIC.to_le_bytes());
    h[4..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&epoch.to_le_bytes());
    h
}

/// The write-ahead log.
pub struct Wal {
    backend: Backend,
    end: Lsn,
    appended: u64,
    epoch: u64,
    flushes: u64,
    bytes_written: u64,
    sync_policy: SyncPolicy,
}

impl Wal {
    fn with_backend(backend: Backend, end: Lsn, epoch: u64) -> Wal {
        Wal {
            backend,
            end,
            appended: 0,
            epoch,
            flushes: 0,
            bytes_written: 0,
            sync_policy: SyncPolicy::default(),
        }
    }

    /// An in-memory log (used by benches and crash-simulation tests).
    pub fn in_memory() -> Wal {
        Self::with_backend(Backend::Memory(Vec::new()), 0, 0)
    }

    /// A log whose backend injects deterministic faults — see
    /// [`crate::fault::FaultLog`]. Starts at epoch 0; use [`Wal::reset`] to
    /// align it with a checkpoint's epoch.
    pub fn with_faults(plan: FaultPlan) -> Wal {
        Self::with_backend(Backend::Fault(FaultLog::new(plan)), 0, 0)
    }

    /// Open (or create) a file-backed log. A fresh (or torn-header) file is
    /// initialized to epoch 0; otherwise the header's epoch is loaded.
    pub fn open(path: &Path) -> StorageResult<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let len = file.metadata()?.len();
        let (end, epoch) = if len < WAL_HEADER {
            // Fresh file, or a crash tore the header write itself: nothing
            // after a partial header can be valid, so start over.
            file.set_len(0)?;
            file.write_all(&encode_wal_header(0))?;
            file.sync_data()?;
            (WAL_HEADER, 0)
        } else {
            let mut h = [0u8; WAL_HEADER as usize];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut h)?;
            if u32::from_le_bytes(h[..4].try_into().unwrap()) != WAL_MAGIC {
                return Err(StorageError::WalCorrupt {
                    offset: 0,
                    reason: "bad wal magic",
                });
            }
            if u32::from_le_bytes(h[4..8].try_into().unwrap()) != WAL_VERSION {
                return Err(StorageError::WalCorrupt {
                    offset: 4,
                    reason: "unsupported wal version",
                });
            }
            (len, u64::from_le_bytes(h[8..16].try_into().unwrap()))
        };
        Ok(Self::with_backend(Backend::File(file), end, epoch))
    }

    /// Write a complete log image (header + frames) to `path` atomically
    /// enough for tests: used by the crash-torture harness to materialize a
    /// [`crate::fault::FaultLog::crash_image`] as a real on-disk log.
    pub fn write_image(path: &Path, epoch: u64, frames: &[u8]) -> StorageResult<()> {
        let mut out = Vec::with_capacity(frames.len() + WAL_HEADER as usize);
        out.extend_from_slice(&encode_wal_header(epoch));
        out.extend_from_slice(frames);
        std::fs::write(path, out)?;
        Ok(())
    }

    /// Current end-of-log position.
    pub fn end_lsn(&self) -> Lsn {
        self.end
    }

    /// Records appended through this handle.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Epoch of this log (pairs it with the checkpoint it extends).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Flush (fsync) calls that actually hit the backend.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Total framed bytes appended through this handle.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// This log's fsync policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync_policy
    }

    /// Set the fsync policy (see [`SyncPolicy`]).
    pub fn set_sync_policy(&mut self, policy: SyncPolicy) {
        self.sync_policy = policy;
    }

    /// Injected-fault counters, when the backend is fault-injecting.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        match &self.backend {
            Backend::Fault(f) => Some(f.stats()),
            _ => None,
        }
    }

    /// Simulated power loss (fault backend only): the bytes that survive.
    pub fn crash_image(&mut self) -> Option<Vec<u8>> {
        match &mut self.backend {
            Backend::Fault(f) => Some(f.crash_image()),
            _ => None,
        }
    }

    /// Truncate the log and stamp a new epoch — the post-checkpoint reset.
    /// Administrative: never injects faults.
    pub fn reset(&mut self, epoch: u64) -> StorageResult<()> {
        match &mut self.backend {
            Backend::Memory(buf) => {
                buf.clear();
                self.end = 0;
            }
            Backend::File(f) => {
                f.set_len(0)?;
                f.write_all(&encode_wal_header(epoch))?;
                f.sync_data()?;
                self.end = WAL_HEADER;
            }
            Backend::Fault(f) => {
                f.clear();
                self.end = 0;
            }
        }
        self.epoch = epoch;
        Ok(())
    }

    /// Append a record, returning its LSN. The record is buffered; call
    /// [`Wal::flush`] (done by commit) to make it durable.
    pub fn append(&mut self, rec: &LogRecord) -> StorageResult<Lsn> {
        let mut span = wow_obs::span(wow_obs::Op::WalAppend);
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(payload.len() + 12);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let lsn = self.end;
        match &mut self.backend {
            Backend::Memory(buf) => buf.extend_from_slice(&frame),
            Backend::File(f) => f.write_all(&frame)?,
            Backend::Fault(f) => f.append_frame(&frame)?,
        }
        self.end += frame.len() as u64;
        self.appended += 1;
        self.bytes_written += frame.len() as u64;
        span.arg(frame.len() as u64);
        Ok(lsn)
    }

    /// Force the log to stable storage (subject to the [`SyncPolicy`]).
    pub fn flush(&mut self) -> StorageResult<()> {
        if self.sync_policy == SyncPolicy::Never {
            return Ok(());
        }
        let mut span = wow_obs::span(wow_obs::Op::WalFsync);
        match &mut self.backend {
            Backend::Memory(_) => {}
            Backend::File(f) => f.sync_data()?,
            Backend::Fault(f) => f.flush()?,
        }
        self.flushes += 1;
        span.arg(self.flushes);
        Ok(())
    }

    /// Read back every record in order. A torn tail (incomplete final
    /// record, as after a crash mid-append) is tolerated and truncated; a
    /// checksum mismatch is an error.
    pub fn read_all(&mut self) -> StorageResult<Vec<(Lsn, LogRecord)>> {
        let buf: Vec<u8> = match &mut self.backend {
            Backend::Memory(b) => b.clone(),
            Backend::File(f) => {
                let mut b = Vec::new();
                f.seek(SeekFrom::Start(WAL_HEADER))?;
                f.read_to_end(&mut b)?;
                b
            }
            Backend::Fault(f) => f.visible(),
        };
        Self::parse(&buf)
    }

    /// Parse a raw log image (exposed for crash-simulation tests that
    /// truncate the image at arbitrary points).
    pub fn parse(buf: &[u8]) -> StorageResult<Vec<(Lsn, LogRecord)>> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos + 12 <= buf.len() {
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
            let sum = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().unwrap());
            if pos + 12 + len > buf.len() {
                break; // torn tail
            }
            let payload = &buf[pos + 12..pos + 12 + len];
            if fnv1a(payload) != sum {
                return Err(StorageError::WalCorrupt {
                    offset: pos as u64,
                    reason: "checksum mismatch",
                });
            }
            out.push((pos as Lsn, LogRecord::decode(payload, pos as u64)?));
            pos += 12 + len;
        }
        Ok(out)
    }

    /// The raw log image (memory backend only; for crash simulation).
    pub fn raw(&self) -> Option<&[u8]> {
        match &self.backend {
            Backend::Memory(b) => Some(b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageId;

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { txn: 1 },
            LogRecord::Insert {
                txn: 1,
                table: 7,
                rid: Rid::new(PageId(3), 4),
                bytes: b"row-bytes".to_vec(),
            },
            LogRecord::Update {
                txn: 1,
                table: 7,
                rid: Rid::new(PageId(3), 4),
                old: b"row-bytes".to_vec(),
                new: b"new-bytes".to_vec(),
            },
            LogRecord::Delete {
                txn: 1,
                table: 7,
                rid: Rid::new(PageId(3), 4),
                old: b"new-bytes".to_vec(),
            },
            LogRecord::Ddl {
                txn: 1,
                bytes: b"create table t".to_vec(),
            },
            LogRecord::Commit { txn: 1 },
            LogRecord::Abort { txn: 2 },
        ]
    }

    #[test]
    fn round_trip_memory() {
        let mut wal = Wal::in_memory();
        let recs = sample_records();
        for r in &recs {
            wal.append(r).unwrap();
        }
        let read: Vec<LogRecord> = wal
            .read_all()
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(read, recs);
        assert_eq!(wal.appended(), recs.len() as u64);
    }

    #[test]
    fn lsns_are_monotonic() {
        let mut wal = Wal::in_memory();
        let mut last = None;
        for r in sample_records() {
            let lsn = wal.append(&r).unwrap();
            if let Some(prev) = last {
                assert!(lsn > prev);
            }
            last = Some(lsn);
        }
    }

    #[test]
    fn torn_tail_is_truncated_not_error() {
        let mut wal = Wal::in_memory();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let raw = wal.raw().unwrap().to_vec();
        // Chop mid-record: parse must return only complete records.
        let cut = raw.len() - 3;
        let parsed = Wal::parse(&raw[..cut]).unwrap();
        assert_eq!(parsed.len(), sample_records().len() - 1);
    }

    #[test]
    fn corrupt_payload_is_detected() {
        let mut wal = Wal::in_memory();
        wal.append(&LogRecord::Begin { txn: 9 }).unwrap();
        let mut raw = wal.raw().unwrap().to_vec();
        let n = raw.len();
        raw[n - 1] ^= 0xFF; // flip a payload byte
        assert!(matches!(
            Wal::parse(&raw),
            Err(StorageError::WalCorrupt { .. })
        ));
    }

    #[test]
    fn file_backend_persists() {
        let dir = std::env::temp_dir().join(format!("wow-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            wal.flush().unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(wal.read_all().unwrap().len(), sample_records().len());
            // Appending after reopen continues at the end.
            wal.append(&LogRecord::Begin { txn: 99 }).unwrap();
            assert_eq!(wal.read_all().unwrap().len(), sample_records().len() + 1);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_log_parses_empty() {
        let mut wal = Wal::in_memory();
        assert!(wal.read_all().unwrap().is_empty());
    }

    #[test]
    fn epoch_survives_reopen_and_reset() {
        let dir = std::env::temp_dir().join(format!("wow-wal-epoch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(wal.epoch(), 0);
            wal.append(&LogRecord::Begin { txn: 1 }).unwrap();
            wal.reset(7).unwrap();
            assert_eq!(wal.epoch(), 7);
            assert!(wal.read_all().unwrap().is_empty(), "reset truncates");
            wal.append(&LogRecord::Begin { txn: 2 }).unwrap();
            wal.flush().unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(wal.epoch(), 7, "epoch persisted in the header");
            assert_eq!(wal.read_all().unwrap().len(), 1);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_header_is_reinitialized() {
        let dir = std::env::temp_dir().join(format!("wow-wal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.wal");
        std::fs::write(&path, [0x4C; 5]).unwrap(); // 5 bytes: torn header
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.epoch(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_image_round_trips() {
        let dir = std::env::temp_dir().join(format!("wow-wal-img-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.wal");
        let mut mem = Wal::in_memory();
        for r in sample_records() {
            mem.append(&r).unwrap();
        }
        Wal::write_image(&path, 3, mem.raw().unwrap()).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.epoch(), 3);
        assert_eq!(wal.read_all().unwrap().len(), sample_records().len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_policy_never_skips_fsync_counting() {
        let mut wal = Wal::with_faults(crate::fault::FaultPlan::quiet(5));
        wal.set_sync_policy(SyncPolicy::Never);
        wal.append(&LogRecord::Begin { txn: 1 }).unwrap();
        wal.flush().unwrap();
        assert_eq!(wal.flushes(), 0, "Never policy skips the backend fsync");
        // The running process still sees the record (OS page cache view).
        assert_eq!(wal.read_all().unwrap().len(), 1);
        wal.set_sync_policy(SyncPolicy::Commit);
        wal.flush().unwrap();
        assert_eq!(wal.flushes(), 1);
        // Now it is durable: the crash image parses to the full record.
        let img = wal.crash_image().unwrap();
        assert_eq!(Wal::parse(&img).unwrap().len(), 1);
    }

    #[test]
    fn fault_backend_round_trips_and_counts() {
        let mut wal = Wal::with_faults(crate::fault::FaultPlan::quiet(9));
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        wal.flush().unwrap();
        assert_eq!(wal.read_all().unwrap().len(), sample_records().len());
        assert_eq!(
            wal.fault_stats().unwrap(),
            crate::fault::FaultStats::default()
        );
        let img = wal.crash_image().unwrap();
        assert_eq!(Wal::parse(&img).unwrap().len(), sample_records().len());
    }

    #[test]
    fn txn_accessor_covers_all_variants() {
        for r in sample_records() {
            let t = r.txn();
            assert!(t == 1 || t == 2);
        }
    }
}
