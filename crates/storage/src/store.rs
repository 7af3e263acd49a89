//! Page stores: where pages physically live.
//!
//! [`MemStore`] holds the one copy of every page of a database in memory;
//! [`HeapFile`](crate::heap::HeapFile) and [`BTree`](crate::btree::BTree)
//! read and write it directly through closure-scoped borrows.
//! [`FileStore`] reads a file of page images; a durable checkpoint writes
//! one from a `MemStore` in a single sequential pass
//! ([`FileStore::write_image`]).

use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId, PAGE_SIZE};
use parking_lot::RwLock;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The in-memory page store: every page of a database, once.
///
/// Every method takes `&self`. The slot vector and free list sit behind one
/// `RwLock`, so parallel-scan workers read pages concurrently while a write
/// excludes everyone. A [`MemStore::with_page`] or
/// [`MemStore::with_page_mut`] closure runs under that lock and must not
/// call back into the store.
pub struct MemStore {
    slots: RwLock<Slots>,
}

struct Slots {
    pages: Vec<Option<Page>>,
    free: Vec<u64>,
}

impl MemStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::from_parts(Vec::new())
    }

    /// Rebuild a store from page images restored by a checkpoint loader.
    /// `None` slots are free pages; their ids go back on the free list so
    /// allocation order after restore matches the snapshotted store.
    pub fn from_parts(pages: Vec<Option<Page>>) -> MemStore {
        let free = pages
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| i as u64)
            .collect();
        MemStore {
            slots: RwLock::new(Slots { pages, free }),
        }
    }

    /// Number of page ids ever handed out (including freed ones).
    pub fn page_count(&self) -> u64 {
        self.slots.read().pages.len() as u64
    }

    /// The ids of freed pages not yet recycled, ascending.
    pub fn free_pages(&self) -> Vec<u64> {
        let mut free = self.slots.read().free.clone();
        free.sort_unstable();
        free
    }

    /// Allocate a zero-filled page, recycling a freed id when there is one.
    pub fn allocate(&self) -> PageId {
        let mut slots = self.slots.write();
        if let Some(id) = slots.free.pop() {
            slots.pages[id as usize] = Some(Page::zeroed());
            return PageId(id);
        }
        slots.pages.push(Some(Page::zeroed()));
        PageId(slots.pages.len() as u64 - 1)
    }

    /// Drop a page; its id may be recycled by [`MemStore::allocate`].
    pub fn free(&self, id: PageId) -> StorageResult<()> {
        let mut guard = self.slots.write();
        let slots = &mut *guard;
        match slots.pages.get_mut(id.0 as usize) {
            Some(slot @ Some(_)) => {
                *slot = None;
                slots.free.push(id.0);
                Ok(())
            }
            _ => Err(StorageError::PageNotFound(id.0)),
        }
    }

    /// Run `f` with read access to the page, borrowed in place.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> StorageResult<R> {
        match self.slots.read().pages.get(id.0 as usize) {
            Some(Some(p)) => Ok(f(p)),
            _ => Err(StorageError::PageNotFound(id.0)),
        }
    }

    /// Run `f` with write access to the page, borrowed in place.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> StorageResult<R> {
        match self.slots.write().pages.get_mut(id.0 as usize) {
            Some(Some(p)) => Ok(f(p)),
            _ => Err(StorageError::PageNotFound(id.0)),
        }
    }
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Size of the file header holding store metadata.
const FILE_HEADER: u64 = 64;
const MAGIC: u32 = 0x574F_5732; // "WOW2"
const VERSION: u32 = 2;
/// Header bytes 16..32 are a free chain's head and length in the file
/// format. An image has no free chain (its free slots are zero pages), so
/// they always read `NIL` and 0, and files written before stay readable.
const NIL: u64 = u64::MAX;

/// A file of page images.
///
/// Page `i` lives at byte offset `FILE_HEADER + i * PAGE_SIZE`. The header
/// records a magic number, the page count, and an optional metadata blob
/// (used by durable checkpoints to carry the serialized catalog alongside
/// the page images), which lives after the last page.
pub struct FileStore {
    file: File,
    next: u64,
    meta_len: u64,
    meta_crc: u64,
}

impl FileStore {
    /// Open (or create) a store at `path`.
    pub fn open(path: &Path) -> StorageResult<FileStore> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let mut store = FileStore {
            file,
            next: 0,
            meta_len: 0,
            meta_crc: 0,
        };
        if len < FILE_HEADER {
            // Fresh file (or a torn header from a crash during creation —
            // nothing else can be in the file yet): write the header.
            store.file.set_len(0)?;
            store.write_header()?;
        } else {
            let mut header = [0u8; FILE_HEADER as usize];
            store.file.seek(SeekFrom::Start(0))?;
            store.file.read_exact(&mut header)?;
            let magic = u32::from_le_bytes(header[..4].try_into().unwrap());
            if magic != MAGIC {
                return Err(StorageError::Corrupt("bad file-store magic"));
            }
            let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
            if version != VERSION {
                return Err(StorageError::Corrupt("unsupported file-store version"));
            }
            store.next = u64::from_le_bytes(header[8..16].try_into().unwrap());
            store.meta_len = u64::from_le_bytes(header[32..40].try_into().unwrap());
            store.meta_crc = u64::from_le_bytes(header[40..48].try_into().unwrap());
        }
        Ok(store)
    }

    /// Write every page of `store` (a free slot as a zero page) and the
    /// `meta` blob to a new file at `path` in one sequential pass — header,
    /// pages, blob — then sync it.
    pub fn write_image(path: &Path, store: &MemStore, meta: &[u8]) -> StorageResult<()> {
        let page_count = store.page_count();
        let file = File::create(path)?;
        let mut out = BufWriter::with_capacity(64 * PAGE_SIZE, file);
        let crc = crate::wal::fnv1a(meta);
        out.write_all(&Self::header(page_count, meta.len() as u64, crc))?;
        let zero = Page::zeroed();
        for id in 0..page_count {
            match store.with_page(PageId(id), |p| out.write_all(p.as_slice())) {
                Ok(written) => written?,
                Err(StorageError::PageNotFound(_)) => out.write_all(zero.as_slice())?,
                Err(e) => return Err(e),
            }
        }
        out.write_all(meta)?;
        out.into_inner().map_err(|e| e.into_error())?.sync_data()?;
        Ok(())
    }

    fn header(pages: u64, meta_len: u64, meta_crc: u64) -> [u8; FILE_HEADER as usize] {
        let mut header = [0u8; FILE_HEADER as usize];
        header[..4].copy_from_slice(&MAGIC.to_le_bytes());
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8..16].copy_from_slice(&pages.to_le_bytes());
        header[16..24].copy_from_slice(&NIL.to_le_bytes());
        header[32..40].copy_from_slice(&meta_len.to_le_bytes());
        header[40..48].copy_from_slice(&meta_crc.to_le_bytes());
        header
    }

    fn write_header(&mut self) -> StorageResult<()> {
        let header = Self::header(self.next, self.meta_len, self.meta_crc);
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        Ok(())
    }

    fn offset(id: PageId) -> u64 {
        FILE_HEADER + id.0 * PAGE_SIZE as u64
    }

    /// Store a metadata blob after the page region (checksummed; replaces
    /// any previous blob). Checkpoints use this for the serialized catalog.
    pub fn set_meta(&mut self, bytes: &[u8]) -> StorageResult<()> {
        let off = Self::offset(PageId(self.next));
        self.file.set_len(off)?;
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write_all(bytes)?;
        self.meta_len = bytes.len() as u64;
        self.meta_crc = crate::wal::fnv1a(bytes);
        self.write_header()?;
        Ok(())
    }

    /// Read back the metadata blob, if one is stored. A checksum mismatch
    /// (torn or bit-rotted blob) is an error, not silent garbage.
    pub fn get_meta(&mut self) -> StorageResult<Option<Vec<u8>>> {
        if self.meta_len == 0 {
            return Ok(None);
        }
        let off = Self::offset(PageId(self.next));
        let mut buf = vec![0u8; self.meta_len as usize];
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(&mut buf)?;
        if crate::wal::fnv1a(&buf) != self.meta_crc {
            return Err(StorageError::Corrupt("file-store meta checksum mismatch"));
        }
        Ok(Some(buf))
    }

    /// Read page `id` into `out`.
    pub fn read(&mut self, id: PageId, out: &mut Page) -> StorageResult<()> {
        if id.0 >= self.next {
            return Err(StorageError::PageNotFound(id.0));
        }
        self.file.seek(SeekFrom::Start(Self::offset(id)))?;
        self.file.read_exact(out.as_mut_slice())?;
        Ok(())
    }

    /// Number of pages in the image (free slots included).
    pub fn page_count(&self) -> u64 {
        self.next
    }

    /// Flush written pages to the medium.
    pub fn sync(&mut self) -> StorageResult<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_alloc_read_write() {
        let s = MemStore::new();
        let a = s.allocate();
        let b = s.allocate();
        assert_ne!(a, b);
        s.with_page_mut(a, |p| p.as_mut_slice()[0] = 0x5A).unwrap();
        assert_eq!(s.with_page(a, |p| p.as_slice()[0]).unwrap(), 0x5A);
        assert_eq!(s.with_page(b, |p| p.as_slice()[0]).unwrap(), 0);
    }

    #[test]
    fn memstore_free_recycles_ids() {
        let s = MemStore::new();
        let a = s.allocate();
        s.with_page_mut(a, |p| p.as_mut_slice()[0] = 1).unwrap();
        s.free(a).unwrap();
        assert!(matches!(
            s.with_page(a, |_| ()),
            Err(StorageError::PageNotFound(_))
        ));
        let b = s.allocate();
        assert_eq!(a, b, "freed id is recycled");
        // Recycled page must come back zeroed.
        assert!(s
            .with_page(b, |p| p.as_slice().iter().all(|&x| x == 0))
            .unwrap());
    }

    #[test]
    fn memstore_rejects_unallocated() {
        let s = MemStore::new();
        assert!(s.with_page(PageId(3), |_| ()).is_err());
        assert!(s.with_page_mut(PageId(3), |_| ()).is_err());
        assert!(s.free(PageId(3)).is_err());
    }

    #[test]
    fn read_your_writes() {
        let s = MemStore::new();
        let id = s.allocate();
        s.with_page_mut(id, |pg| pg.as_mut_slice()[0] = 42).unwrap();
        assert_eq!(s.with_page(id, |pg| pg.as_slice()[0]).unwrap(), 42);
    }

    #[test]
    fn freed_page_is_unreadable() {
        let s = MemStore::new();
        let id = s.allocate();
        s.free(id).unwrap();
        assert!(s.with_page(id, |_| ()).is_err());
        assert!(s.free(id).is_err(), "double free is refused");
    }

    #[test]
    fn many_pages_random_access_consistency() {
        let s = MemStore::new();
        let n = 100u8;
        let ids: Vec<PageId> = (0..n).map(|_| s.allocate()).collect();
        for (i, id) in ids.iter().enumerate() {
            s.with_page_mut(*id, |pg| pg.as_mut_slice()[100] = i as u8)
                .unwrap();
        }
        for stride in [1usize, 3, 7, 13] {
            let mut i = 0usize;
            for _ in 0..n {
                let v = s.with_page(ids[i], |pg| pg.as_slice()[100]).unwrap();
                assert_eq!(v, i as u8);
                i = (i + stride) % n as usize;
            }
        }
    }

    #[test]
    fn concurrent_readers_see_consistent_pages() {
        let s = MemStore::new();
        let ids: Vec<PageId> = (0..300).map(|_| s.allocate()).collect();
        for (i, id) in ids.iter().enumerate() {
            s.with_page_mut(*id, |pg| pg.as_mut_slice()[9] = (i % 251) as u8)
                .unwrap();
        }
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = &s;
                let ids = &ids;
                scope.spawn(move || {
                    for (i, id) in ids.iter().enumerate().skip(t).step_by(4) {
                        let v = s.with_page(*id, |pg| pg.as_slice()[9]).unwrap();
                        assert_eq!(v, (i % 251) as u8);
                    }
                });
            }
        });
    }

    #[test]
    fn filestore_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("wow-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let mem = MemStore::new();
        let ids: Vec<PageId> = (0..3).map(|_| mem.allocate()).collect();
        mem.with_page_mut(ids[0], |p| p.as_mut_slice()[100] = 0x77)
            .unwrap();
        mem.with_page_mut(ids[1], |p| p.as_mut_slice()[7] = 1)
            .unwrap();
        mem.with_page_mut(ids[2], |p| p.as_mut_slice()[9] = 0x33)
            .unwrap();
        mem.free(ids[1]).unwrap();
        assert_eq!(mem.free_pages(), vec![ids[1].0]);
        FileStore::write_image(&path, &mem, b"catalog").unwrap();
        let mut s = FileStore::open(&path).unwrap();
        assert_eq!(s.page_count(), 3);
        let mut out = Page::zeroed();
        s.read(ids[0], &mut out).unwrap();
        assert_eq!(out.as_slice()[100], 0x77);
        s.read(ids[1], &mut out).unwrap();
        assert!(
            out.as_slice().iter().all(|&x| x == 0),
            "a free slot is zeroed"
        );
        s.read(ids[2], &mut out).unwrap();
        assert_eq!(out.as_slice()[9], 0x33);
        assert_eq!(s.get_meta().unwrap().as_deref(), Some(&b"catalog"[..]));
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len, FILE_HEADER + 3 * PAGE_SIZE as u64 + 7);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn filestore_meta_round_trips() {
        let dir = std::env::temp_dir().join(format!("wow-store-meta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let mem = MemStore::new();
        mem.allocate();
        FileStore::write_image(&path, &mem, b"catalog goes here").unwrap();
        {
            let mut s = FileStore::open(&path).unwrap();
            assert_eq!(
                s.get_meta().unwrap().as_deref(),
                Some(&b"catalog goes here"[..])
            );
            s.set_meta(b"a new catalog").unwrap();
            s.sync().unwrap();
        }
        let mut s = FileStore::open(&path).unwrap();
        assert_eq!(
            s.get_meta().unwrap().as_deref(),
            Some(&b"a new catalog"[..])
        );
        assert_eq!(s.page_count(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn filestore_rejects_bad_magic() {
        let dir = std::env::temp_dir().join(format!("wow-store-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.db");
        std::fs::write(&path, vec![9u8; 64]).unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn filestore_rejects_out_of_range() {
        let dir = std::env::temp_dir().join(format!("wow-store-oor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let _ = std::fs::remove_file(&path);
        let mut s = FileStore::open(&path).unwrap();
        let mut out = Page::zeroed();
        assert!(s.read(PageId(0), &mut out).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
