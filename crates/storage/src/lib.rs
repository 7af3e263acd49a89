//! # wow-storage
//!
//! The storage-engine substrate underneath the *Windows on the World* system.
//!
//! A 1983 forms interface sat on top of a full relational storage engine; we
//! build the same stack from scratch:
//!
//! * [`page`] — fixed-size pages and page identifiers.
//! * [`slotted`] — the slotted-page record layout used by heaps and indexes.
//! * [`store`] — page stores: the in-memory store that holds the one copy
//!   of every page, and a file-backed store for checkpoints.
//! * [`heap`] — heap files of variable-length records addressed by [`rid::Rid`].
//! * [`btree`] — a B+tree over byte-comparable keys, the one index structure:
//!   it answers point probes and ordered range scans alike.
//! * [`wal`] — a write-ahead log with commit/abort records.
//! * [`recovery`] — replay of committed work after a crash.
//! * [`fault`] — deterministic fault injection for crash-torture tests.
//!
//! Everything operates on raw byte strings; typed encoding/decoding lives one
//! layer up in `wow-rel`.
//!
//! ## Quick tour
//!
//! ```
//! use wow_storage::{store::MemStore, heap::HeapFile};
//!
//! let store = MemStore::new();
//! let mut heap = HeapFile::create(&store).unwrap();
//! let rid = heap.insert(&store, b"hello world").unwrap();
//! assert_eq!(heap.get(&store, rid).unwrap().as_deref(), Some(&b"hello world"[..]));
//! ```

pub mod btree;
pub mod error;
pub mod fault;
pub mod heap;
pub mod page;
pub mod recovery;
pub mod rid;
pub mod slotted;
pub mod store;
pub mod wal;

pub use error::{StorageError, StorageResult};
pub use page::{PageId, PAGE_SIZE};
pub use rid::Rid;
