//! Fixed-size pages and page identifiers.
//!
//! All on-disk structures — heap files and B+trees — are built
//! from [`PAGE_SIZE`]-byte pages addressed by a [`PageId`]. Page ids are
//! allocated by a [`crate::store::MemStore`]; a freed id goes on the
//! store's free list and may be handed out again.

use std::fmt;

/// The size of every page, in bytes.
///
/// 8 KiB matches the classic DBMS default and keeps several hundred typical
/// form-sized records per page.
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page within a page store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel meaning "no page" (used for link terminators in page chains).
    pub const INVALID: PageId = PageId(u64::MAX);

    /// Whether this id is the invalid sentinel.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != Self::INVALID
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "PageId({})", self.0)
        } else {
            write!(f, "PageId(INVALID)")
        }
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An owned page image.
///
/// Pages are heap-allocated boxed arrays so that moving a `Page` moves a
/// pointer, not 8 KiB.
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A zero-filled page.
    pub fn zeroed() -> Self {
        Page {
            bytes: vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap(),
        }
    }

    /// Construct from an exact-size byte buffer.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), PAGE_SIZE, "page image must be PAGE_SIZE bytes");
        let mut page = Page::zeroed();
        page.bytes.copy_from_slice(bytes);
        page
    }

    /// Immutable view of the raw bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..]
    }

    /// Mutable view of the raw bytes.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.bytes[..]
    }
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page {
            bytes: self.bytes.clone(),
        }
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let used = self.bytes.iter().filter(|&&b| b != 0).count();
        write!(f, "Page({used} non-zero bytes)")
    }
}

/// Read a little-endian `u16` at `off`.
#[inline]
pub(crate) fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

/// Write a little-endian `u16` at `off`.
#[inline]
pub(crate) fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `u32` at `off`.
#[allow(dead_code)] // parity with the other widths; used by tests
#[inline]
pub(crate) fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Write a little-endian `u32` at `off`.
#[allow(dead_code)]
#[inline]
pub(crate) fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `u64` at `off`.
#[inline]
pub(crate) fn get_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Write a little-endian `u64` at `off`.
#[inline]
pub(crate) fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_all_zero() {
        let p = Page::zeroed();
        assert!(p.as_slice().iter().all(|&b| b == 0));
        assert_eq!(p.as_slice().len(), PAGE_SIZE);
    }

    #[test]
    fn from_bytes_round_trips() {
        let mut raw = vec![0u8; PAGE_SIZE];
        raw[0] = 0xAB;
        raw[PAGE_SIZE - 1] = 0xCD;
        let p = Page::from_bytes(&raw);
        assert_eq!(p.as_slice()[0], 0xAB);
        assert_eq!(p.as_slice()[PAGE_SIZE - 1], 0xCD);
    }

    #[test]
    #[should_panic(expected = "PAGE_SIZE")]
    fn from_bytes_rejects_wrong_size() {
        let _ = Page::from_bytes(&[0u8; 16]);
    }

    #[test]
    fn invalid_page_id_sentinel() {
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId(0).is_valid());
        assert_eq!(format!("{:?}", PageId::INVALID), "PageId(INVALID)");
        assert_eq!(format!("{}", PageId(3)), "PageId(3)");
    }

    #[test]
    fn endian_helpers_round_trip() {
        let mut buf = [0u8; 32];
        put_u16(&mut buf, 1, 0xBEEF);
        put_u32(&mut buf, 4, 0xDEAD_BEEF);
        put_u64(&mut buf, 10, 0x0123_4567_89AB_CDEF);
        assert_eq!(get_u16(&buf, 1), 0xBEEF);
        assert_eq!(get_u32(&buf, 4), 0xDEAD_BEEF);
        assert_eq!(get_u64(&buf, 10), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn page_clone_is_independent() {
        let mut a = Page::zeroed();
        a.as_mut_slice()[5] = 7;
        let b = a.clone();
        a.as_mut_slice()[5] = 9;
        assert_eq!(b.as_slice()[5], 7);
    }
}
