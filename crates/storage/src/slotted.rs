//! Slotted-page record layout.
//!
//! A slotted region stores variable-length records inside a fixed byte
//! region. A slot directory grows upward from the region header while record
//! cells grow downward from the end; deleting a record tombstones its slot so
//! record ids remain stable, and the free space is reclaimed by compaction
//! when a later insert needs it.
//!
//! Layout of a region of `L` bytes (all offsets little-endian, relative to
//! the region start):
//!
//! ```text
//! 0..2   slot_count     number of directory entries (live + tombstoned)
//! 2..4   free_start     first byte past the slot directory
//! 4..6   free_end       first byte of the cell area
//! 6..    directory      slot_count entries of {offset: u16, len: u16}
//! ...    free space
//! ...L   cells          record bytes, allocated high-to-low
//! ```
//!
//! A directory entry with `offset == TOMBSTONE` is a deleted slot; its number
//! may be reused by a later insert.
//!
//! The same region also serves as an *ordered* page (a B+tree node): there
//! the directory is kept in the caller's order by [`Slotted::insert_at`] and
//! [`Slotted::remove_at`], which shift directory entries instead of
//! tombstoning them, so slot `i` is always the `i`-th cell. The two styles
//! are not mixed on one region.

use crate::page::{get_u16, put_u16};

/// Region header size in bytes.
pub const SLOTTED_HEADER: usize = 6;
/// Size of one slot directory entry.
pub const SLOT_ENTRY: usize = 4;
/// Sentinel offset marking a tombstoned slot.
const TOMBSTONE: u16 = u16::MAX;

const OFF_COUNT: usize = 0;
const OFF_FREE_START: usize = 2;
const OFF_FREE_END: usize = 4;

/// A mutable view over a slotted region.
///
/// The region must previously have been initialized with [`Slotted::init`].
pub struct Slotted<'a> {
    buf: &'a mut [u8],
}

impl<'a> Slotted<'a> {
    /// Initialize `buf` as an empty slotted region and return the view.
    pub fn init(buf: &'a mut [u8]) -> Slotted<'a> {
        assert!(buf.len() >= SLOTTED_HEADER + SLOT_ENTRY, "region too small");
        assert!(
            buf.len() <= u16::MAX as usize,
            "region too large for u16 offsets"
        );
        put_u16(buf, OFF_COUNT, 0);
        put_u16(buf, OFF_FREE_START, SLOTTED_HEADER as u16);
        put_u16(buf, OFF_FREE_END, buf.len() as u16);
        Slotted { buf }
    }

    /// Open an already-initialized region.
    pub fn open(buf: &'a mut [u8]) -> Slotted<'a> {
        Slotted { buf }
    }

    /// Number of directory entries (live and tombstoned).
    #[inline]
    pub fn slot_count(&self) -> u16 {
        get_u16(self.buf, OFF_COUNT)
    }

    #[inline]
    fn free_start(&self) -> usize {
        get_u16(self.buf, OFF_FREE_START) as usize
    }

    #[inline]
    fn free_end(&self) -> usize {
        get_u16(self.buf, OFF_FREE_END) as usize
    }

    fn entry(&self, slot: u16) -> (u16, u16) {
        let base = SLOTTED_HEADER + slot as usize * SLOT_ENTRY;
        (get_u16(self.buf, base), get_u16(self.buf, base + 2))
    }

    fn set_entry(&mut self, slot: u16, off: u16, len: u16) {
        let base = SLOTTED_HEADER + slot as usize * SLOT_ENTRY;
        put_u16(self.buf, base, off);
        put_u16(self.buf, base + 2, len);
    }

    /// Bytes of contiguous free space between directory and cells.
    #[inline]
    pub fn contiguous_free(&self) -> usize {
        self.free_end() - self.free_start()
    }

    /// Total reclaimable free space (contiguous plus tombstoned cells).
    pub fn total_free(&self) -> usize {
        let mut free = self.contiguous_free();
        for s in 0..self.slot_count() {
            let (off, len) = self.entry(s);
            if off == TOMBSTONE {
                free += len as usize;
            }
        }
        free
    }

    /// Number of live (non-tombstoned) records.
    pub fn live_count(&self) -> u16 {
        (0..self.slot_count())
            .filter(|&s| self.entry(s).0 != TOMBSTONE)
            .count() as u16
    }

    /// Whether a record of `len` bytes can be inserted (possibly after
    /// compaction).
    pub fn can_insert(&self, len: usize) -> bool {
        if len > u16::MAX as usize {
            return false;
        }
        let need_slot = if self.find_tombstone().is_some() {
            0
        } else {
            SLOT_ENTRY
        };
        self.total_free() >= len + need_slot
    }

    fn find_tombstone(&self) -> Option<u16> {
        (0..self.slot_count()).find(|&s| self.entry(s).0 == TOMBSTONE)
    }

    /// Insert a record, returning its slot number, or `None` if it cannot
    /// fit even after compaction.
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        if !self.can_insert(record.len()) {
            return None;
        }
        let reused = self.find_tombstone();
        let need_slot = if reused.is_some() { 0 } else { SLOT_ENTRY };
        if self.contiguous_free() < record.len() + need_slot {
            self.compact();
        }
        debug_assert!(self.contiguous_free() >= record.len() + need_slot);
        let new_end = self.free_end() - record.len();
        self.buf[new_end..new_end + record.len()].copy_from_slice(record);
        put_u16(self.buf, OFF_FREE_END, new_end as u16);
        let slot = match reused {
            Some(s) => s,
            None => {
                let s = self.slot_count();
                put_u16(self.buf, OFF_COUNT, s + 1);
                put_u16(
                    self.buf,
                    OFF_FREE_START,
                    (self.free_start() + SLOT_ENTRY) as u16,
                );
                s
            }
        };
        self.set_entry(slot, new_end as u16, record.len() as u16);
        Some(slot)
    }

    /// Read a record. Returns `None` for out-of-range or tombstoned slots.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.entry(slot);
        if off == TOMBSTONE {
            return None;
        }
        Some(&self.buf[off as usize..off as usize + len as usize])
    }

    /// Tombstone a record. Returns whether a live record was deleted.
    pub fn delete(&mut self, slot: u16) -> bool {
        if slot >= self.slot_count() {
            return false;
        }
        let (off, len) = self.entry(slot);
        if off == TOMBSTONE {
            return false;
        }
        if off as usize == self.free_end() {
            // Cheap win: the lowest cell can be reclaimed into contiguous
            // free space immediately; record len 0 so it is not
            // double-counted by total_free.
            self.set_entry(slot, TOMBSTONE, 0);
            put_u16(self.buf, OFF_FREE_END, off + len);
        } else {
            // Keep the cell length in the tombstone so total_free counts it.
            self.set_entry(slot, TOMBSTONE, len);
        }
        true
    }

    /// Update a record in place, possibly relocating it within the region.
    /// Returns `false` (leaving the old record intact) if the new bytes
    /// cannot fit.
    pub fn update(&mut self, slot: u16, record: &[u8]) -> bool {
        if slot >= self.slot_count() || record.len() > u16::MAX as usize {
            return false;
        }
        let (off, len) = self.entry(slot);
        if off == TOMBSTONE {
            return false;
        }
        if record.len() <= len as usize {
            // Shrink in place; the tail of the old cell becomes internal
            // fragmentation reclaimed on the next compaction.
            let off = off as usize;
            self.buf[off..off + record.len()].copy_from_slice(record);
            self.set_entry(slot, off as u16, record.len() as u16);
            return true;
        }
        // Grow: tombstone then reinsert into the same slot number.
        self.set_entry(slot, TOMBSTONE, len);
        if !self.can_insert_into_slot(record.len()) {
            self.set_entry(slot, off, len); // roll back
            return false;
        }
        if self.contiguous_free() < record.len() {
            self.compact();
        }
        let new_end = self.free_end() - record.len();
        self.buf[new_end..new_end + record.len()].copy_from_slice(record);
        put_u16(self.buf, OFF_FREE_END, new_end as u16);
        self.set_entry(slot, new_end as u16, record.len() as u16);
        true
    }

    /// Like [`Slotted::can_insert`] but for reuse of an existing slot (no new
    /// directory entry needed).
    fn can_insert_into_slot(&self, len: usize) -> bool {
        self.total_free() >= len
    }

    /// Iterate over `(slot, record)` pairs of live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }

    /// Rewrite all live cells to be contiguous at the end of the region,
    /// maximizing contiguous free space. Slot numbers are preserved.
    pub fn compact(&mut self) {
        let old = self.buf.to_vec();
        let old = SlottedRead::open(&old);
        let mut end = self.buf.len();
        for s in 0..self.slot_count() {
            // Tombstoned cells are dropped by the rewrite; zero their
            // recorded lengths so total_free does not double-count them.
            let Some(rec) = old.get(s) else {
                self.set_entry(s, TOMBSTONE, 0);
                continue;
            };
            end -= rec.len();
            self.buf[end..end + rec.len()].copy_from_slice(rec);
            self.set_entry(s, end as u16, rec.len() as u16);
        }
        put_u16(self.buf, OFF_FREE_END, end as u16);
    }

    /// Insert `cell` as directory entry `at`, shifting entries `at..` up
    /// one place, so an ordered region stays in order. Compacts only when
    /// contiguous space runs short; returns `false`, leaving the region
    /// unchanged, if the cell cannot fit even then.
    pub fn insert_at(&mut self, at: u16, cell: &[u8]) -> bool {
        let count = self.slot_count();
        assert!(at <= count, "insert_at past the end of the directory");
        let need = cell.len() + SLOT_ENTRY;
        if self.contiguous_free() < need {
            let live: usize = (0..count).map(|s| self.entry(s).1 as usize).sum();
            if self.buf.len() - self.free_start() - live < need {
                return false;
            }
            self.compact();
        }
        let (start, entry) = (self.free_start(), SLOTTED_HEADER + at as usize * SLOT_ENTRY);
        self.buf.copy_within(entry..start, entry + SLOT_ENTRY);
        let new_end = self.free_end() - cell.len();
        self.buf[new_end..new_end + cell.len()].copy_from_slice(cell);
        put_u16(self.buf, OFF_COUNT, count + 1);
        put_u16(self.buf, OFF_FREE_START, (start + SLOT_ENTRY) as u16);
        put_u16(self.buf, OFF_FREE_END, new_end as u16);
        self.set_entry(at, new_end as u16, cell.len() as u16);
        true
    }

    /// Remove directory entry `at`, shifting entries `at + 1..` down one
    /// place. The cell's bytes are reclaimed by the next [`Slotted::compact`].
    pub fn remove_at(&mut self, at: u16) {
        let count = self.slot_count();
        assert!(at < count, "remove_at past the end of the directory");
        let (start, entry) = (self.free_start(), SLOTTED_HEADER + at as usize * SLOT_ENTRY);
        self.buf.copy_within(entry + SLOT_ENTRY..start, entry);
        put_u16(self.buf, OFF_COUNT, count - 1);
        put_u16(self.buf, OFF_FREE_START, (start - SLOT_ENTRY) as u16);
    }
}

/// A read-only view over a slotted region (usable from shared page borrows,
/// so readers need only the page store's read lock).
pub struct SlottedRead<'a> {
    buf: &'a [u8],
}

impl<'a> SlottedRead<'a> {
    /// Open an already-initialized region read-only.
    pub fn open(buf: &'a [u8]) -> SlottedRead<'a> {
        SlottedRead { buf }
    }

    /// Number of directory entries (live and tombstoned).
    #[inline]
    pub fn slot_count(&self) -> u16 {
        get_u16(self.buf, OFF_COUNT)
    }

    fn entry(&self, slot: u16) -> (u16, u16) {
        let base = SLOTTED_HEADER + slot as usize * SLOT_ENTRY;
        (get_u16(self.buf, base), get_u16(self.buf, base + 2))
    }

    /// Read a record. Returns `None` for out-of-range or tombstoned slots.
    pub fn get(&self, slot: u16) -> Option<&'a [u8]> {
        let (start, end) = self.cell_range(slot)?;
        Some(&self.buf[start..end])
    }

    /// Byte range of a live record within the region buffer, or `None`
    /// for out-of-range or tombstoned slots. Lets a caller that copied
    /// the region elsewhere describe records as offsets into its copy.
    pub fn cell_range(&self, slot: u16) -> Option<(usize, usize)> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.entry(slot);
        if off == TOMBSTONE {
            return None;
        }
        Some((off as usize, off as usize + len as usize))
    }

    /// Iterate over `(slot, record)` pairs of live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &'a [u8])> + '_ {
        let me = SlottedRead { buf: self.buf };
        (0..self.slot_count()).filter_map(move |s| me.get(s).map(|r| (s, r)))
    }

    /// Number of live (non-tombstoned) records.
    pub fn live_count(&self) -> u16 {
        (0..self.slot_count())
            .filter(|&s| self.entry(s).0 != TOMBSTONE)
            .count() as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(n: usize) -> Vec<u8> {
        vec![0u8; n]
    }

    #[test]
    fn insert_and_get() {
        let mut buf = region(256);
        let mut p = Slotted::init(&mut buf);
        let a = p.insert(b"alpha").unwrap();
        let b = p.insert(b"bravo!").unwrap();
        assert_eq!(p.get(a), Some(&b"alpha"[..]));
        assert_eq!(p.get(b), Some(&b"bravo!"[..]));
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn get_out_of_range_is_none() {
        let mut buf = region(128);
        let p = Slotted::init(&mut buf);
        assert_eq!(p.get(0), None);
        assert_eq!(p.get(99), None);
    }

    #[test]
    fn delete_tombstones_and_reuses_slot() {
        let mut buf = region(256);
        let mut p = Slotted::init(&mut buf);
        let a = p.insert(b"one").unwrap();
        let _b = p.insert(b"two").unwrap();
        assert!(p.delete(a));
        assert_eq!(p.get(a), None);
        assert!(!p.delete(a), "double delete is a no-op");
        let c = p.insert(b"three").unwrap();
        assert_eq!(c, a, "tombstoned slot number is reused");
        assert_eq!(p.get(c), Some(&b"three"[..]));
    }

    #[test]
    fn fills_up_and_rejects_then_accepts_after_delete() {
        let mut buf = region(64); // tiny region
        let mut p = Slotted::init(&mut buf);
        let mut slots = Vec::new();
        while let Some(s) = p.insert(b"0123456789") {
            slots.push(s);
        }
        assert!(!slots.is_empty());
        assert!(p.insert(b"0123456789").is_none());
        assert!(p.delete(slots[0]));
        assert!(p.insert(b"0123456789").is_some());
    }

    #[test]
    fn update_shrink_grow_and_too_big() {
        let mut buf = region(128);
        let mut p = Slotted::init(&mut buf);
        let s = p.insert(b"abcdef").unwrap();
        assert!(p.update(s, b"xy"));
        assert_eq!(p.get(s), Some(&b"xy"[..]));
        assert!(p.update(s, b"0123456789abcdef"));
        assert_eq!(p.get(s), Some(&b"0123456789abcdef"[..]));
        // Way too big: must fail and preserve the old record.
        assert!(!p.update(s, &[0u8; 4096]));
        assert_eq!(p.get(s), Some(&b"0123456789abcdef"[..]));
    }

    #[test]
    fn compaction_recovers_fragmented_space() {
        let mut buf = region(128);
        let mut p = Slotted::init(&mut buf);
        // Fill with alternating records, delete every other one, then insert
        // one record larger than any single hole but smaller than the sum.
        let mut slots = Vec::new();
        while let Some(s) = p.insert(b"12345678") {
            slots.push(s);
        }
        for s in slots.iter().step_by(2) {
            p.delete(*s);
        }
        let free = p.total_free();
        assert!(free >= 16);
        let rec = vec![7u8; 16];
        let got = p.insert(&rec).expect("compaction should make room");
        assert_eq!(p.get(got), Some(&rec[..]));
    }

    #[test]
    fn iter_yields_live_records_in_slot_order() {
        let mut buf = region(256);
        let mut p = Slotted::init(&mut buf);
        let a = p.insert(b"a").unwrap();
        let b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(b);
        let got: Vec<(u16, Vec<u8>)> = p.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(got, vec![(a, b"a".to_vec()), (c, b"c".to_vec())]);
    }

    #[test]
    fn empty_record_is_allowed() {
        let mut buf = region(64);
        let mut p = Slotted::init(&mut buf);
        let s = p.insert(b"").unwrap();
        assert_eq!(p.get(s), Some(&b""[..]));
    }

    #[test]
    fn insert_at_keeps_directory_order_and_reuses_removed_space() {
        let mut buf = region(32);
        let mut p = Slotted::init(&mut buf);
        assert!(p.insert_at(0, b"cc"));
        assert!(p.insert_at(0, b"aa"));
        assert!(p.insert_at(1, b"bb"));
        let got: Vec<&[u8]> = p.iter().map(|(_, r)| r).collect();
        assert_eq!(got, vec![&b"aa"[..], b"bb", b"cc"]);
        p.remove_at(1);
        assert_eq!(p.get(1), Some(&b"cc"[..]));
        assert_eq!(p.slot_count(), 2);
        // 32 bytes hold the header, three entries and 14 bytes of cells:
        // only compaction, reclaiming "bb", makes room for 10 more.
        assert!(!p.insert_at(0, &[9u8; 11]), "no room for 11 more bytes");
        assert!(p.insert_at(0, &[9u8; 10]), "compaction frees removed cells");
        let got: Vec<&[u8]> = p.iter().map(|(_, r)| r).collect();
        assert_eq!(got, vec![&[9u8; 10][..], b"aa", b"cc"]);
    }

    #[test]
    fn reopen_preserves_contents() {
        let mut buf = region(256);
        {
            let mut p = Slotted::init(&mut buf);
            p.insert(b"persist").unwrap();
        }
        let p = Slotted::open(&mut buf);
        assert_eq!(p.get(0), Some(&b"persist"[..]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Model-based test: a slotted region behaves like a map slot→bytes.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>),
        Delete(usize),
        Update(usize, Vec<u8>),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..40).prop_map(Op::Insert),
            any::<usize>().prop_map(Op::Delete),
            (
                any::<usize>(),
                proptest::collection::vec(any::<u8>(), 0..40)
            )
                .prop_map(|(i, v)| Op::Update(i, v)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn behaves_like_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
            let mut buf = vec![0u8; 1024];
            let mut page = Slotted::init(&mut buf);
            let mut model: BTreeMap<u16, Vec<u8>> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(bytes) => {
                        if let Some(slot) = page.insert(&bytes) {
                            prop_assert!(!model.contains_key(&slot));
                            model.insert(slot, bytes);
                        } else {
                            // Model agrees it couldn't possibly fit.
                            prop_assert!(!page.can_insert(bytes.len()));
                        }
                    }
                    Op::Delete(i) => {
                        let keys: Vec<u16> = model.keys().copied().collect();
                        if keys.is_empty() { continue; }
                        let slot = keys[i % keys.len()];
                        prop_assert!(page.delete(slot));
                        model.remove(&slot);
                    }
                    Op::Update(i, bytes) => {
                        let keys: Vec<u16> = model.keys().copied().collect();
                        if keys.is_empty() { continue; }
                        let slot = keys[i % keys.len()];
                        if page.update(slot, &bytes) {
                            model.insert(slot, bytes);
                        }
                    }
                }
                // Full read-back check after every op.
                for (slot, bytes) in &model {
                    prop_assert_eq!(page.get(*slot), Some(&bytes[..]));
                }
                prop_assert_eq!(page.live_count() as usize, model.len());
            }
        }
    }

    /// Model-based test of the ordered operations: a region driven only by
    /// `insert_at`/`remove_at` behaves like a `Vec` of cells, and an insert
    /// fails exactly when the cells, their directory and the new one would
    /// overflow the region, so compaction must reclaim every removed cell.
    #[derive(Debug, Clone)]
    enum OrderedOp {
        InsertAt(usize, Vec<u8>),
        RemoveAt(usize),
    }

    fn ordered_op_strategy() -> impl Strategy<Value = OrderedOp> {
        prop_oneof![
            3 => (any::<usize>(), proptest::collection::vec(any::<u8>(), 0..40))
                .prop_map(|(i, v)| OrderedOp::InsertAt(i, v)),
            2 => any::<usize>().prop_map(OrderedOp::RemoveAt),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ordered_ops_behave_like_vec(ops in proptest::collection::vec(ordered_op_strategy(), 1..120)) {
            const LEN: usize = 256;
            let mut buf = vec![0u8; LEN];
            let mut page = Slotted::init(&mut buf);
            let mut model: Vec<Vec<u8>> = Vec::new();
            for op in ops {
                match op {
                    OrderedOp::InsertAt(i, cell) => {
                        let at = i % (model.len() + 1);
                        let used: usize = model.iter().map(|c| c.len() + SLOT_ENTRY).sum();
                        let fits = SLOTTED_HEADER + used + cell.len() + SLOT_ENTRY <= LEN;
                        prop_assert_eq!(page.insert_at(at as u16, &cell), fits);
                        if fits {
                            model.insert(at, cell);
                        }
                    }
                    OrderedOp::RemoveAt(i) => {
                        if model.is_empty() {
                            continue;
                        }
                        let at = i % model.len();
                        page.remove_at(at as u16);
                        model.remove(at);
                    }
                }
                prop_assert_eq!(page.slot_count() as usize, model.len());
                for (i, cell) in model.iter().enumerate() {
                    prop_assert_eq!(page.get(i as u16), Some(&cell[..]));
                }
            }
        }
    }
}
