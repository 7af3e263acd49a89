//! Heap files: unordered collections of variable-length records.
//!
//! A heap file is a chain of slotted pages. Records are addressed by
//! [`Rid`]s which stay stable for the record's lifetime: an update that no
//! longer fits on its page *moves* the bytes to another page and leaves a
//! forwarding stub at the original rid, exactly as classic slotted-page
//! engines do, so indexes and open windows never observe a rid change.
//!
//! Page layout: bytes `0..8` hold the next-page link; the rest is a
//! [`crate::slotted`] region. Every stored cell carries a one-byte tag:
//!
//! * `DATA` — a plain record.
//! * `FWD` — a 10-byte rid of the record's current home.
//! * `MOVED` — a record that lives here but whose logical rid is elsewhere;
//!   scans skip it (the stub's rid is the logical one).

use crate::error::{StorageError, StorageResult};
use crate::page::{get_u64, put_u64, PageId, PAGE_SIZE};
use crate::rid::Rid;
use crate::slotted::{Slotted, SlottedRead, SLOTTED_HEADER, SLOT_ENTRY};
use crate::store::MemStore;

const TAG_DATA: u8 = 0;
const TAG_FWD: u8 = 1;
const TAG_MOVED: u8 = 2;

/// Byte offset of the slotted region within a heap page.
const REGION_OFF: usize = 8;
/// Meta-page field offsets.
const META_FIRST: usize = 0;
const META_LAST: usize = 8;
const META_COUNT: usize = 16;

/// Largest record a heap file accepts.
pub const MAX_RECORD: usize = PAGE_SIZE - REGION_OFF - SLOTTED_HEADER - SLOT_ENTRY - 1;

/// A heap file rooted at a meta page.
///
/// The struct holds an in-memory mirror of the page chain (rebuilt on
/// [`HeapFile::open`]) and a free-space cache used for first-fit placement.
#[derive(Clone)]
pub struct HeapFile {
    meta: PageId,
    pages: Vec<PageId>,
    /// Cached contiguous-free estimate per data page (same order as `pages`).
    free_hint: Vec<u16>,
    count: u64,
}

impl HeapFile {
    /// Create a new, empty heap file. Returns a handle rooted at a fresh
    /// meta page (persist the meta page id in your catalog).
    pub fn create(store: &MemStore) -> StorageResult<HeapFile> {
        let meta = store.allocate();
        store.with_page_mut(meta, |p| {
            let b = p.as_mut_slice();
            put_u64(b, META_FIRST, PageId::INVALID.0);
            put_u64(b, META_LAST, PageId::INVALID.0);
            put_u64(b, META_COUNT, 0);
        })?;
        Ok(HeapFile {
            meta,
            pages: Vec::new(),
            free_hint: Vec::new(),
            count: 0,
        })
    }

    /// Open an existing heap file rooted at `meta`, rebuilding the in-memory
    /// page list by walking the chain.
    pub fn open(store: &MemStore, meta: PageId) -> StorageResult<HeapFile> {
        let (first, count) = store.with_page(meta, |p| {
            (
                PageId(get_u64(p.as_slice(), META_FIRST)),
                get_u64(p.as_slice(), META_COUNT),
            )
        })?;
        let mut pages = Vec::new();
        let mut free_hint = Vec::new();
        let mut cur = first;
        while cur.is_valid() {
            let (next, free) = store.with_page_mut(cur, |p| {
                let next = PageId(get_u64(p.as_slice(), 0));
                let region = &mut p.as_mut_slice()[REGION_OFF..];
                let s = Slotted::open(region);
                (next, s.total_free() as u16)
            })?;
            pages.push(cur);
            free_hint.push(free);
            cur = next;
        }
        Ok(HeapFile {
            meta,
            pages,
            free_hint,
            count,
        })
    }

    /// The meta page id (persist this to reopen the file).
    pub fn meta_page(&self) -> PageId {
        self.meta
    }

    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the heap holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of data pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    fn persist_count(&self, store: &MemStore) -> StorageResult<()> {
        let count = self.count;
        store.with_page_mut(self.meta, |p| put_u64(p.as_mut_slice(), META_COUNT, count))
    }

    /// Append a new data page to the chain.
    fn grow(&mut self, store: &MemStore) -> StorageResult<PageId> {
        let new = store.allocate();
        store.with_page_mut(new, |p| {
            put_u64(p.as_mut_slice(), 0, PageId::INVALID.0);
            Slotted::init(&mut p.as_mut_slice()[REGION_OFF..]);
        })?;
        if let Some(&last) = self.pages.last() {
            store.with_page_mut(last, |p| put_u64(p.as_mut_slice(), 0, new.0))?;
            store.with_page_mut(self.meta, |p| put_u64(p.as_mut_slice(), META_LAST, new.0))?;
        } else {
            store.with_page_mut(self.meta, |p| {
                put_u64(p.as_mut_slice(), META_FIRST, new.0);
                put_u64(p.as_mut_slice(), META_LAST, new.0);
            })?;
        }
        self.pages.push(new);
        self.free_hint
            .push((PAGE_SIZE - REGION_OFF - SLOTTED_HEADER) as u16);
        Ok(new)
    }

    /// Place a tagged cell somewhere in the file; returns its physical rid.
    fn place(&mut self, store: &MemStore, cell: &[u8]) -> StorageResult<Rid> {
        // First fit over the free-space cache, preferring the last page
        // (append locality), then any page with room, then grow.
        let need = cell.len() + SLOT_ENTRY;
        let candidate = self
            .pages
            .len()
            .checked_sub(1)
            .filter(|&i| self.free_hint[i] as usize >= need)
            .or_else(|| (0..self.pages.len()).find(|&i| self.free_hint[i] as usize >= need));
        let idx = match candidate {
            Some(i) => i,
            None => {
                self.grow(store)?;
                self.pages.len() - 1
            }
        };
        let pid = self.pages[idx];
        let slot = store.with_page_mut(pid, |p| {
            let mut s = Slotted::open(&mut p.as_mut_slice()[REGION_OFF..]);
            let slot = s.insert(cell);
            (slot, s.total_free() as u16)
        })?;
        let (slot, free) = slot;
        self.free_hint[idx] = free;
        match slot {
            Some(slot) => Ok(Rid::new(pid, slot)),
            None => {
                // Free hint was stale (fragmentation); grow and retry once.
                let pid = self.grow(store)?;
                let idx = self.pages.len() - 1;
                let (slot, free) = store.with_page_mut(pid, |p| {
                    let mut s = Slotted::open(&mut p.as_mut_slice()[REGION_OFF..]);
                    let slot = s.insert(cell);
                    (slot, s.total_free() as u16)
                })?;
                self.free_hint[idx] = free;
                slot.map(|slot| Rid::new(pid, slot))
                    .ok_or(StorageError::RecordTooLarge {
                        size: cell.len(),
                        max: MAX_RECORD,
                    })
            }
        }
    }

    /// Insert a record and return its (stable) rid.
    pub fn insert(&mut self, store: &MemStore, record: &[u8]) -> StorageResult<Rid> {
        if record.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: MAX_RECORD,
            });
        }
        let mut cell = Vec::with_capacity(record.len() + 1);
        cell.push(TAG_DATA);
        cell.extend_from_slice(record);
        let rid = self.place(store, &cell)?;
        self.count += 1;
        self.persist_count(store)?;
        Ok(rid)
    }

    /// Read the raw cell at a physical rid.
    fn read_cell(&self, store: &MemStore, rid: Rid) -> StorageResult<Option<Vec<u8>>> {
        if !self.pages.contains(&rid.page) {
            return Ok(None);
        }
        store.with_page(rid.page, |p| {
            let s = SlottedRead::open(&p.as_slice()[REGION_OFF..]);
            s.get(rid.slot).map(|c| c.to_vec())
        })
    }

    /// Fetch a record by rid, following at most one forwarding stub.
    pub fn get(&self, store: &MemStore, rid: Rid) -> StorageResult<Option<Vec<u8>>> {
        let Some(cell) = self.read_cell(store, rid)? else {
            return Ok(None);
        };
        match cell.first() {
            Some(&TAG_DATA) => Ok(Some(cell[1..].to_vec())),
            Some(&TAG_MOVED) => Ok(None), // physical home of a moved record: not a logical rid
            Some(&TAG_FWD) => {
                let target =
                    Rid::from_bytes(&cell[1..]).ok_or(StorageError::Corrupt("bad fwd rid"))?;
                let Some(cell) = self.read_cell(store, target)? else {
                    return Err(StorageError::Corrupt("dangling forward"));
                };
                match cell.first() {
                    Some(&TAG_MOVED) => Ok(Some(cell[1..].to_vec())),
                    _ => Err(StorageError::Corrupt("forward target not MOVED")),
                }
            }
            _ => Err(StorageError::Corrupt("bad record tag")),
        }
    }

    /// Delete a record by rid. Returns whether a record was deleted.
    pub fn delete(&mut self, store: &MemStore, rid: Rid) -> StorageResult<bool> {
        let Some(cell) = self.read_cell(store, rid)? else {
            return Ok(false);
        };
        let target = match cell.first() {
            Some(&TAG_DATA) => None,
            Some(&TAG_FWD) => {
                Some(Rid::from_bytes(&cell[1..]).ok_or(StorageError::Corrupt("bad fwd rid"))?)
            }
            Some(&TAG_MOVED) => return Ok(false),
            _ => return Err(StorageError::Corrupt("bad record tag")),
        };
        self.delete_cell(store, rid)?;
        if let Some(t) = target {
            self.delete_cell(store, t)?;
        }
        self.count -= 1;
        self.persist_count(store)?;
        Ok(true)
    }

    fn delete_cell(&mut self, store: &MemStore, rid: Rid) -> StorageResult<()> {
        let free = store.with_page_mut(rid.page, |p| {
            let mut s = Slotted::open(&mut p.as_mut_slice()[REGION_OFF..]);
            s.delete(rid.slot);
            s.total_free() as u16
        })?;
        if let Some(idx) = self.pages.iter().position(|&p| p == rid.page) {
            self.free_hint[idx] = free;
        }
        Ok(())
    }

    /// Update the record at `rid` in place (the rid remains valid even if
    /// the bytes physically move). Returns whether the record existed.
    pub fn update(&mut self, store: &MemStore, rid: Rid, record: &[u8]) -> StorageResult<bool> {
        if record.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: MAX_RECORD,
            });
        }
        let Some(cell) = self.read_cell(store, rid)? else {
            return Ok(false);
        };
        let (home, old_target) = match cell.first() {
            Some(&TAG_DATA) => (rid, None),
            Some(&TAG_FWD) => {
                let t = Rid::from_bytes(&cell[1..]).ok_or(StorageError::Corrupt("bad fwd rid"))?;
                (rid, Some(t))
            }
            Some(&TAG_MOVED) => return Ok(false),
            _ => return Err(StorageError::Corrupt("bad record tag")),
        };
        // Try to write the new bytes at the record's current physical home.
        let phys = old_target.unwrap_or(home);
        let tag = if old_target.is_some() {
            TAG_MOVED
        } else {
            TAG_DATA
        };
        let mut cell = Vec::with_capacity(record.len() + 1);
        cell.push(tag);
        cell.extend_from_slice(record);
        let fitted = store.with_page_mut(phys.page, |p| {
            let mut s = Slotted::open(&mut p.as_mut_slice()[REGION_OFF..]);
            let ok = s.update(phys.slot, &cell);
            (ok, s.total_free() as u16)
        })?;
        let (fitted, free) = fitted;
        if let Some(idx) = self.pages.iter().position(|&p| p == phys.page) {
            self.free_hint[idx] = free;
        }
        if fitted {
            return Ok(true);
        }
        // Doesn't fit: move the record elsewhere and leave/refresh the stub.
        let mut moved = Vec::with_capacity(record.len() + 1);
        moved.push(TAG_MOVED);
        moved.extend_from_slice(record);
        let new_phys = self.place(store, &moved)?;
        // Point the home slot at the new location.
        let mut stub = Vec::with_capacity(11);
        stub.push(TAG_FWD);
        stub.extend_from_slice(&new_phys.to_bytes());
        let stub_ok = store.with_page_mut(home.page, |p| {
            let mut s = Slotted::open(&mut p.as_mut_slice()[REGION_OFF..]);
            s.update(home.slot, &stub)
        })?;
        if !stub_ok {
            // A stub is 11 bytes; the home slot previously held >= 1 byte.
            // Slotted::update can still fail under extreme fragmentation, in
            // which case compaction inside update would have handled it; if
            // we get here the page is corrupt.
            return Err(StorageError::Corrupt("could not write forward stub"));
        }
        // Drop the old MOVED copy if the record had already been moved once.
        if let Some(t) = old_target {
            self.delete_cell(store, t)?;
        }
        Ok(true)
    }

    /// Scan all records in chain/slot order, invoking `f(rid, bytes)` for
    /// each live record. The rid passed is the *logical* rid (forwarding
    /// stubs are resolved; moved bodies are skipped).
    pub fn scan(&self, store: &MemStore, mut f: impl FnMut(Rid, &[u8])) -> StorageResult<()> {
        let mut page_idx = 0;
        while self.scan_page(store, page_idx, &mut f)? {
            page_idx += 1;
        }
        Ok(())
    }

    /// Scan the records of one data page (by position in the page chain),
    /// invoking `f` exactly as [`HeapFile::scan`] does. Returns `false`
    /// when `page_idx` is past the end of the chain.
    pub fn scan_page(
        &self,
        store: &MemStore,
        page_idx: usize,
        mut f: impl FnMut(Rid, &[u8]),
    ) -> StorageResult<bool> {
        if page_idx >= self.pages.len() {
            return Ok(false);
        }
        let pid = self.pages[page_idx];
        // One copy of the whole slotted region instead of one `Vec` per
        // cell: records reach `f` as slices into this buffer, so a full
        // page scan costs a single allocation rather than one per row.
        // (The copy itself is what lets `read_cell` re-enter the store for
        // forwarding stubs while we iterate.)
        let region: Vec<u8> = store.with_page(pid, |p| p.as_slice()[REGION_OFF..].to_vec())?;
        let s = SlottedRead::open(&region);
        for (slot, cell) in s.iter() {
            match cell.first() {
                Some(&TAG_DATA) => f(Rid::new(pid, slot), &cell[1..]),
                Some(&TAG_FWD) => {
                    let t =
                        Rid::from_bytes(&cell[1..]).ok_or(StorageError::Corrupt("bad fwd rid"))?;
                    let body = self
                        .read_cell(store, t)?
                        .ok_or(StorageError::Corrupt("dangling forward"))?;
                    f(Rid::new(pid, slot), &body[1..]);
                }
                Some(&TAG_MOVED) => {} // surfaced via its stub
                _ => return Err(StorageError::Corrupt("bad record tag")),
            }
        }
        Ok(true)
    }

    /// Scan one data page into a caller-owned arena: every live record's
    /// bytes (record tag stripped) are described by a `(start, end)` pair
    /// pushed onto `bounds`, in the same order [`HeapFile::scan_page`]
    /// visits them. The whole slotted region is appended to `arena` with a
    /// single copy and records become offsets into that copy, so a page
    /// scan costs no per-record allocation or memcpy — this is the batch
    /// executor's scan primitive, which drains the arena at its own
    /// (batch-sized) pace and reuses both buffers across pages. Forwarded
    /// record bodies land after the region copy but their bounds keep slot
    /// order. Returns `false` once `page_idx` is past the end of the chain.
    pub fn scan_page_into(
        &self,
        store: &MemStore,
        page_idx: usize,
        arena: &mut Vec<u8>,
        bounds: &mut Vec<(u32, u32)>,
    ) -> StorageResult<bool> {
        if page_idx >= self.pages.len() {
            return Ok(false);
        }
        let pid = self.pages[page_idx];
        let base = arena.len();
        store.with_page(pid, |p| {
            arena.extend_from_slice(&p.as_slice()[REGION_OFF..])
        })?;
        // Forwarding stubs to resolve once the region borrow ends: the
        // body bytes must be appended to `arena`, which is frozen while
        // `SlottedRead` borrows it. `(bounds index, target rid)` pairs.
        let mut fwds: Vec<(usize, Rid)> = Vec::new();
        {
            let region = &arena[base..];
            let s = SlottedRead::open(region);
            for slot in 0..s.slot_count() {
                let Some((start, end)) = s.cell_range(slot) else {
                    continue;
                };
                match region.get(start) {
                    Some(&TAG_DATA) => {
                        bounds.push(((base + start + 1) as u32, (base + end) as u32))
                    }
                    Some(&TAG_FWD) => {
                        Rid::from_bytes(&region[start + 1..end])
                            .map(|t| fwds.push((bounds.len(), t)))
                            .ok_or(StorageError::Corrupt("bad fwd rid"))?;
                        bounds.push((0, 0)); // placeholder, patched below
                    }
                    Some(&TAG_MOVED) => {} // surfaced via its stub
                    _ => return Err(StorageError::Corrupt("bad record tag")),
                }
            }
        }
        for (bi, t) in fwds {
            let body = self
                .read_cell(store, t)?
                .ok_or(StorageError::Corrupt("dangling forward"))?;
            let start = arena.len() as u32;
            arena.extend_from_slice(&body[1..]);
            bounds[bi] = (start, arena.len() as u32);
        }
        Ok(true)
    }

    /// Collect every `(rid, record)` pair (convenience over [`HeapFile::scan`]).
    pub fn scan_all(&self, store: &MemStore) -> StorageResult<Vec<(Rid, Vec<u8>)>> {
        let mut out = Vec::with_capacity(self.count as usize);
        self.scan(store, |rid, rec| out.push((rid, rec.to_vec())))?;
        Ok(out)
    }

    /// Free every page of the heap (drop the relation).
    pub fn destroy(self, store: &MemStore) -> StorageResult<()> {
        for pid in self.pages {
            store.free(pid)?;
        }
        store.free(self.meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MemStore, HeapFile) {
        let store = MemStore::new();
        let heap = HeapFile::create(&store).unwrap();
        (store, heap)
    }

    #[test]
    fn insert_get_round_trip() {
        let (store, mut heap) = setup();
        let rid = heap.insert(&store, b"hello").unwrap();
        assert_eq!(
            heap.get(&store, rid).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(heap.len(), 1);
    }

    #[test]
    fn get_missing_is_none() {
        let (store, heap) = setup();
        assert_eq!(heap.get(&store, Rid::new(PageId(999), 0)).unwrap(), None);
    }

    #[test]
    fn delete_removes_record() {
        let (store, mut heap) = setup();
        let rid = heap.insert(&store, b"x").unwrap();
        assert!(heap.delete(&store, rid).unwrap());
        assert_eq!(heap.get(&store, rid).unwrap(), None);
        assert!(!heap.delete(&store, rid).unwrap());
        assert_eq!(heap.len(), 0);
    }

    #[test]
    fn update_in_place_and_grow() {
        let (store, mut heap) = setup();
        let rid = heap.insert(&store, b"short").unwrap();
        assert!(heap.update(&store, rid, b"a bit longer record").unwrap());
        assert_eq!(
            heap.get(&store, rid).unwrap().as_deref(),
            Some(&b"a bit longer record"[..])
        );
    }

    #[test]
    fn update_that_moves_keeps_rid_stable() {
        let (store, mut heap) = setup();
        // Fill a page almost completely so the grown record cannot stay.
        let filler = vec![b'f'; 700];
        let mut rids = Vec::new();
        for _ in 0..11 {
            rids.push(heap.insert(&store, &filler).unwrap());
        }
        let victim = rids[5];
        let big = vec![b'B'; 3000];
        assert!(heap.update(&store, victim, &big).unwrap());
        assert_eq!(heap.get(&store, victim).unwrap().as_deref(), Some(&big[..]));
        // And update it again, even bigger, exercising stub refresh.
        let bigger = vec![b'C'; 6000];
        assert!(heap.update(&store, victim, &bigger).unwrap());
        assert_eq!(
            heap.get(&store, victim).unwrap().as_deref(),
            Some(&bigger[..])
        );
        // Other records untouched.
        assert_eq!(
            heap.get(&store, rids[4]).unwrap().as_deref(),
            Some(&filler[..])
        );
    }

    #[test]
    fn scan_sees_each_live_record_once() {
        let (store, mut heap) = setup();
        let filler = vec![b'f'; 700];
        let mut rids = Vec::new();
        for _ in 0..11 {
            rids.push(heap.insert(&store, &filler).unwrap());
        }
        // Move one record via growth, delete another.
        let big = vec![b'B'; 3000];
        heap.update(&store, rids[3], &big).unwrap();
        heap.delete(&store, rids[7]).unwrap();
        let all = heap.scan_all(&store).unwrap();
        assert_eq!(all.len(), 10);
        let got_rids: Vec<Rid> = all.iter().map(|(r, _)| *r).collect();
        assert!(
            got_rids.contains(&rids[3]),
            "moved record keeps logical rid"
        );
        assert!(!got_rids.contains(&rids[7]));
        let moved = all.iter().find(|(r, _)| *r == rids[3]).unwrap();
        assert_eq!(moved.1, big);
    }

    #[test]
    fn records_spanning_many_pages() {
        let (store, mut heap) = setup();
        let n = 2000;
        let mut rids = Vec::new();
        for i in 0..n {
            let rec = format!("record-{i:05}");
            rids.push(heap.insert(&store, rec.as_bytes()).unwrap());
        }
        assert!(heap.page_count() > 1);
        assert_eq!(heap.len(), n);
        for (i, rid) in rids.iter().enumerate() {
            let rec = heap.get(&store, *rid).unwrap().unwrap();
            assert_eq!(rec, format!("record-{i:05}").as_bytes());
        }
        let mut seen = 0;
        heap.scan(&store, |_, _| seen += 1).unwrap();
        assert_eq!(seen, n as usize);
    }

    #[test]
    fn scan_page_matches_scan() {
        let store = MemStore::new();
        let mut heap = HeapFile::create(&store).unwrap();
        for i in 0..12000 {
            heap.insert(&store, format!("record-{i:05}").as_bytes())
                .unwrap();
        }
        assert!(heap.page_count() > 1);
        let mut paged = Vec::new();
        let mut idx = 0;
        while heap
            .scan_page(&store, idx, |rid, rec| paged.push((rid, rec.to_vec())))
            .unwrap()
        {
            idx += 1;
        }
        assert_eq!(idx, heap.page_count());
        let whole = heap.scan_all(&store).unwrap();
        assert_eq!(paged, whole);
    }

    #[test]
    fn scan_page_into_matches_scan_page_with_forwards_and_deletes() {
        let (store, mut heap) = setup();
        let filler = vec![b'f'; 700];
        let mut rids = Vec::new();
        for _ in 0..40 {
            rids.push(heap.insert(&store, &filler).unwrap());
        }
        // Grow one record past its page's free space so it moves and
        // leaves a forwarding stub; tombstone another.
        let big = vec![b'x'; 4000];
        heap.update(&store, rids[3], &big).unwrap();
        heap.delete(&store, rids[7]).unwrap();
        assert!(heap.page_count() > 1);

        let mut via_f = Vec::new();
        let mut idx = 0;
        while heap
            .scan_page(&store, idx, |_, rec| via_f.push(rec.to_vec()))
            .unwrap()
        {
            idx += 1;
        }
        let mut arena = Vec::new();
        let mut bounds = Vec::new();
        let mut pages_seen = 0;
        while heap
            .scan_page_into(&store, pages_seen, &mut arena, &mut bounds)
            .unwrap()
        {
            pages_seen += 1;
        }
        assert_eq!(pages_seen, idx);
        let via_arena: Vec<Vec<u8>> = bounds
            .iter()
            .map(|&(s, e)| arena[s as usize..e as usize].to_vec())
            .collect();
        assert_eq!(via_arena, via_f);
    }

    #[test]
    fn reopen_preserves_records() {
        let store = MemStore::new();
        let meta;
        let rid;
        {
            let mut heap = HeapFile::create(&store).unwrap();
            meta = heap.meta_page();
            rid = heap.insert(&store, b"durable").unwrap();
            for i in 0..500 {
                heap.insert(&store, format!("r{i}").as_bytes()).unwrap();
            }
        }
        let heap = HeapFile::open(&store, meta).unwrap();
        assert_eq!(heap.len(), 501);
        assert_eq!(
            heap.get(&store, rid).unwrap().as_deref(),
            Some(&b"durable"[..])
        );
    }

    #[test]
    fn too_large_record_is_rejected() {
        let (store, mut heap) = setup();
        let huge = vec![0u8; MAX_RECORD + 1];
        assert!(matches!(
            heap.insert(&store, &huge),
            Err(StorageError::RecordTooLarge { .. })
        ));
        // Max-size record is accepted.
        let max = vec![1u8; MAX_RECORD];
        let rid = heap.insert(&store, &max).unwrap();
        assert_eq!(heap.get(&store, rid).unwrap().unwrap().len(), MAX_RECORD);
    }

    #[test]
    fn destroy_frees_pages() {
        let (store, mut heap) = setup();
        for i in 0..100 {
            heap.insert(&store, format!("row{i}").as_bytes()).unwrap();
        }
        let meta = heap.meta_page();
        heap.destroy(&store).unwrap();
        assert!(HeapFile::open(&store, meta).is_err());
    }

    #[test]
    fn interleaved_insert_delete_reuses_space() {
        let (store, mut heap) = setup();
        let rec = vec![b'x'; 100];
        let mut live = Vec::new();
        for round in 0..20 {
            for _ in 0..50 {
                live.push(heap.insert(&store, &rec).unwrap());
            }
            // Delete half.
            for _ in 0..25 {
                let rid = live.remove(round % live.len().max(1));
                heap.delete(&store, rid).unwrap();
            }
        }
        assert_eq!(heap.len() as usize, live.len());
        // Space reuse: page count stays bounded well below no-reuse worst case.
        assert!(heap.page_count() < 40, "pages = {}", heap.page_count());
    }
}
