//! A pinning buffer pool with clock (second-chance) eviction, sharded for
//! parallel scans.
//!
//! All page access from the heap/index layers goes through the pool, which
//! caches hot pages in fixed-capacity frames over any [`PageStore`]. Access
//! is closure-scoped — [`BufferPool::with_page`] / [`BufferPool::with_page_mut`]
//! pin the frame for the duration of the closure, which makes pin leaks
//! impossible by construction.
//!
//! Bookkeeping (frame table, residency map, clock hand, statistics) is
//! sharded N-way by page id so concurrent scan partitions do not serialize
//! on a single LRU structure: every method takes `&self` and locks only
//! the one shard the page hashes to (plus the store for actual I/O).
//! Small pools get a single shard, which makes them behave bit-for-bit
//! like the pre-sharding serial pool. [`PoolStats`] are kept per shard and
//! aggregated on read.
//!
//! Lock order is strictly *shard → store*; no path ever holds two shard
//! locks or acquires a shard lock while holding the store lock, so the
//! pool is deadlock-free as long as `with_page` closures do not re-enter
//! the pool (the same discipline the previous `&mut self` API enforced
//! statically).

use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId};
use crate::store::PageStore;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Frames per shard the pool aims for when choosing its shard count; pools
/// smaller than `2 × FRAMES_PER_SHARD` stay single-sharded (exact serial
/// behavior for the tiny pools unit tests use).
const FRAMES_PER_SHARD: usize = 8;

/// Upper bound on the number of shards.
const MAX_SHARDS: usize = 16;

struct Frame {
    id: PageId,
    page: Page,
    dirty: bool,
    pins: u32,
    referenced: bool,
    /// Loaded by [`BufferPool::prefetch`] and not yet touched by a real
    /// page request.
    prefetched: bool,
}

/// Cache statistics, readable at any time (used by benches to demonstrate
/// locality of browse cursors).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that had to read from the store.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back.
    pub writebacks: u64,
    /// Pages loaded ahead of demand by [`BufferPool::prefetch`].
    pub prefetches: u64,
    /// Page requests whose frame was resident because of a prefetch.
    pub prefetch_hits: u64,
}

impl PoolStats {
    /// Copy out the current values — pair with [`PoolStats::since`] to
    /// measure a warm phase without zeroing the pool's lifetime counters.
    pub fn snapshot(&self) -> PoolStats {
        *self
    }

    /// The activity accumulated since an earlier snapshot (field-wise
    /// saturating difference).
    pub fn since(&self, base: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(base.hits),
            misses: self.misses.saturating_sub(base.misses),
            evictions: self.evictions.saturating_sub(base.evictions),
            writebacks: self.writebacks.saturating_sub(base.writebacks),
            prefetches: self.prefetches.saturating_sub(base.prefetches),
            prefetch_hits: self.prefetch_hits.saturating_sub(base.prefetch_hits),
        }
    }

    /// Zero every counter.
    pub fn reset(&mut self) {
        *self = PoolStats::default();
    }

    fn add(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.prefetches += other.prefetches;
        self.prefetch_hits += other.prefetch_hits;
    }
}

/// One shard of pool bookkeeping: an independent frame table with its own
/// residency map, clock hand, and statistics.
struct Shard {
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    clock: usize,
    capacity: usize,
    stats: PoolStats,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            frames: Vec::with_capacity(capacity),
            map: HashMap::with_capacity(capacity),
            clock: 0,
            capacity,
            stats: PoolStats::default(),
        }
    }

    /// Locate (or fault in) the frame for `id`, returning its index with one
    /// pin taken. `load` controls whether a miss reads the store (false for
    /// fresh allocations whose content is known-zero).
    fn frame_for<S: PageStore>(
        &mut self,
        store: &Mutex<S>,
        id: PageId,
        load: bool,
    ) -> StorageResult<usize> {
        if let Some(&idx) = self.map.get(&id) {
            self.stats.hits += 1;
            self.frames[idx].pins += 1;
            if self.frames[idx].prefetched {
                // First demand touch of a readahead page: credit the
                // prefetch, but leave the reference bit clear so one-pass
                // scans stay evictable (see [`BufferPool::prefetch`]).
                self.stats.prefetch_hits += 1;
                self.frames[idx].prefetched = false;
            } else {
                self.frames[idx].referenced = true;
            }
            return Ok(idx);
        }
        self.stats.misses += 1;
        let idx = self.victim()?;
        self.load_into(store, idx, id, load)?;
        self.frames[idx].pins = 1;
        self.frames[idx].referenced = true;
        Ok(idx)
    }

    /// Evict whatever occupies frame `idx` (writing back if dirty) and load
    /// page `id` into it, unpinned and unreferenced. `load` as in
    /// [`Shard::frame_for`].
    fn load_into<S: PageStore>(
        &mut self,
        store: &Mutex<S>,
        idx: usize,
        id: PageId,
        load: bool,
    ) -> StorageResult<()> {
        if self.frames[idx].id.is_valid() {
            self.map.remove(&self.frames[idx].id);
            if self.frames[idx].dirty {
                store
                    .lock()
                    .write(self.frames[idx].id, &self.frames[idx].page)?;
                self.stats.writebacks += 1;
            }
            self.stats.evictions += 1;
        }
        if load {
            store.lock().read(id, &mut self.frames[idx].page)?;
        } else {
            self.frames[idx].page.as_mut_slice().fill(0);
        }
        self.frames[idx].id = id;
        self.frames[idx].dirty = false;
        self.frames[idx].pins = 0;
        self.frames[idx].referenced = false;
        self.frames[idx].prefetched = false;
        self.map.insert(id, idx);
        Ok(())
    }

    /// Pick a frame to (re)use: an unused slot if capacity remains, else the
    /// clock algorithm over unpinned frames.
    fn victim(&mut self) -> StorageResult<usize> {
        if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                id: PageId::INVALID,
                page: Page::zeroed(),
                dirty: false,
                pins: 0,
                referenced: false,
                prefetched: false,
            });
            return Ok(self.frames.len() - 1);
        }
        // Two full sweeps: first clears reference bits, second must find a
        // victim unless everything is pinned.
        for _ in 0..2 * self.frames.len() {
            let idx = self.clock;
            self.clock = (self.clock + 1) % self.frames.len();
            let f = &mut self.frames[idx];
            if f.pins > 0 {
                continue;
            }
            if f.referenced {
                f.referenced = false;
                continue;
            }
            return Ok(idx);
        }
        Err(StorageError::PoolExhausted {
            capacity: self.capacity,
        })
    }

    /// Write back every dirty frame (without syncing the store).
    fn flush<S: PageStore>(&mut self, store: &Mutex<S>) -> StorageResult<()> {
        for f in &mut self.frames {
            if f.id.is_valid() && f.dirty {
                store.lock().write(f.id, &f.page)?;
                f.dirty = false;
                self.stats.writebacks += 1;
            }
        }
        Ok(())
    }
}

/// A buffer pool over a [`PageStore`].
pub struct BufferPool<S: PageStore> {
    store: Mutex<S>,
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
}

impl<S: PageStore> BufferPool<S> {
    /// Create a pool caching up to `capacity` pages, sharded so that each
    /// shard holds at least `FRAMES_PER_SHARD` frames (one shard for
    /// small pools, up to `MAX_SHARDS` for large ones).
    pub fn new(store: S, capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        let nshards = (capacity / FRAMES_PER_SHARD).clamp(1, MAX_SHARDS);
        let base = capacity / nshards;
        let extra = capacity % nshards;
        let shards = (0..nshards)
            .map(|i| Mutex::new(Shard::new(base + usize::from(i < extra))))
            .collect();
        BufferPool {
            store: Mutex::new(store),
            shards,
            capacity,
        }
    }

    /// Total frame capacity across shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of bookkeeping shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, id: PageId) -> &Mutex<Shard> {
        &self.shards[(id.0 as usize) % self.shards.len()]
    }

    /// Cache statistics so far, aggregated across shards.
    pub fn stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for s in &self.shards {
            total.add(&s.lock().stats);
        }
        total
    }

    /// Reset cache statistics (between bench phases).
    pub fn reset_stats(&self) {
        for s in &self.shards {
            s.lock().stats.reset();
        }
    }

    /// Number of frames currently resident.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Allocate a fresh page in the store and fault it into the pool.
    pub fn allocate_page(&self) -> StorageResult<PageId> {
        let id = self.store.lock().allocate()?;
        // Fault it in dirty so the zero image need not be re-read.
        let mut shard = self.shard(id).lock();
        let idx = shard.frame_for(&self.store, id, /*load=*/ false)?;
        shard.frames[idx].dirty = true;
        shard.frames[idx].pins -= 1;
        Ok(id)
    }

    /// Drop the page from the pool (without writeback) and free it in the
    /// store.
    pub fn free_page(&self, id: PageId) -> StorageResult<()> {
        {
            let mut shard = self.shard(id).lock();
            if let Some(idx) = shard.map.remove(&id) {
                assert_eq!(shard.frames[idx].pins, 0, "freeing a pinned page");
                shard.frames[idx].id = PageId::INVALID;
                shard.frames[idx].dirty = false;
            }
        }
        self.store.lock().free(id)
    }

    /// Run `f` with read access to the page.
    ///
    /// The page's shard stays locked for the duration of `f`; the closure
    /// must not call back into the pool (same non-reentrancy discipline the
    /// old exclusive-access API enforced through `&mut self`).
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> StorageResult<R> {
        let mut shard = self.shard(id).lock();
        let idx = shard.frame_for(&self.store, id, true)?;
        let out = f(&shard.frames[idx].page);
        shard.frames[idx].pins -= 1;
        Ok(out)
    }

    /// Run `f` with write access to the page; the frame is marked dirty.
    /// Same non-reentrancy rule as [`BufferPool::with_page`].
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> StorageResult<R> {
        let mut shard = self.shard(id).lock();
        let idx = shard.frame_for(&self.store, id, true)?;
        shard.frames[idx].dirty = true;
        let out = f(&mut shard.frames[idx].page);
        shard.frames[idx].pins -= 1;
        Ok(out)
    }

    /// Fault `ids` into the pool without pinning them (sequential
    /// readahead).
    ///
    /// Pages already resident are skipped. Loaded frames start with the
    /// reference bit clear and are flagged as prefetched: a scan that then
    /// touches each page exactly once counts a
    /// [`PoolStats::prefetch_hits`] per page but never sets the reference
    /// bit, so one-pass sequential scans cannot flush the hot working set
    /// out of the clock (scan resistance). Best-effort: skips quietly when
    /// a shard's frames are all pinned.
    pub fn prefetch(&self, ids: &[PageId]) -> StorageResult<()> {
        for &id in ids {
            if !id.is_valid() {
                continue;
            }
            let mut shard = self.shard(id).lock();
            if shard.map.contains_key(&id) {
                continue;
            }
            let Ok(idx) = shard.victim() else {
                continue;
            };
            shard.load_into(&self.store, idx, id, true)?;
            shard.frames[idx].prefetched = true;
            shard.stats.prefetches += 1;
        }
        Ok(())
    }

    /// Write back every dirty frame and sync the store.
    pub fn flush_all(&self) -> StorageResult<()> {
        for s in &self.shards {
            s.lock().flush(&self.store)?;
        }
        self.store.lock().sync()
    }

    /// Run `f` with exclusive access to the underlying store (e.g. for
    /// direct recovery reads).
    ///
    /// Care: bypassing the pool for writes invalidates cached frames; this
    /// is only sound for pages not resident, as in recovery before any
    /// access.
    pub fn with_store<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.store.lock())
    }
}

impl<S: PageStore> Drop for BufferPool<S> {
    fn drop(&mut self) {
        // Best-effort writeback; errors on drop are ignored by design.
        let _ = self.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn pool(cap: usize) -> BufferPool<MemStore> {
        BufferPool::new(MemStore::new(), cap)
    }

    #[test]
    fn read_your_writes_through_pool() {
        let p = pool(4);
        let id = p.allocate_page().unwrap();
        p.with_page_mut(id, |pg| pg.as_mut_slice()[0] = 42).unwrap();
        let v = p.with_page(id, |pg| pg.as_slice()[0]).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let p = pool(2);
        let ids: Vec<PageId> = (0..8).map(|_| p.allocate_page().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            p.with_page_mut(*id, |pg| pg.as_mut_slice()[0] = i as u8)
                .unwrap();
        }
        // Every page must still read back correctly despite evictions.
        for (i, id) in ids.iter().enumerate() {
            let v = p.with_page(*id, |pg| pg.as_slice()[0]).unwrap();
            assert_eq!(v, i as u8, "page {i} lost its contents");
        }
        assert!(p.stats().evictions > 0, "capacity 2 must evict");
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let p = pool(4);
        let id = p.allocate_page().unwrap();
        p.reset_stats();
        p.with_page(id, |_| ()).unwrap();
        p.with_page(id, |_| ()).unwrap();
        let s = p.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn flush_all_persists_to_store() {
        let p = pool(4);
        let id = p.allocate_page().unwrap();
        p.with_page_mut(id, |pg| pg.as_mut_slice()[7] = 9).unwrap();
        p.flush_all().unwrap();
        let mut out = Page::zeroed();
        p.with_store(|s| s.read(id, &mut out)).unwrap();
        assert_eq!(out.as_slice()[7], 9);
    }

    #[test]
    fn free_page_removes_from_pool_and_store() {
        let p = pool(4);
        let id = p.allocate_page().unwrap();
        p.free_page(id).unwrap();
        assert!(p.with_page(id, |_| ()).is_err());
    }

    #[test]
    fn single_frame_pool_works() {
        let p = pool(1);
        let a = p.allocate_page().unwrap();
        let b = p.allocate_page().unwrap();
        p.with_page_mut(a, |pg| pg.as_mut_slice()[0] = 1).unwrap();
        p.with_page_mut(b, |pg| pg.as_mut_slice()[0] = 2).unwrap();
        assert_eq!(p.with_page(a, |pg| pg.as_slice()[0]).unwrap(), 1);
        assert_eq!(p.with_page(b, |pg| pg.as_slice()[0]).unwrap(), 2);
        assert_eq!(p.resident(), 1);
    }

    #[test]
    fn prefetch_counts_and_serves_hits() {
        // Capacity 2 so writing 6 pages evicts the early ones.
        let p = pool(2);
        let ids: Vec<PageId> = (0..6).map(|_| p.allocate_page().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            p.with_page_mut(*id, |pg| pg.as_mut_slice()[0] = i as u8)
                .unwrap();
        }
        p.reset_stats();
        p.prefetch(&ids[0..1]).unwrap();
        assert_eq!(p.stats().prefetches, 1);
        let v = p.with_page(ids[0], |pg| pg.as_slice()[0]).unwrap();
        assert_eq!(v, 0);
        let s = p.stats();
        assert_eq!(s.prefetch_hits, 1);
        assert_eq!(s.hits, 1, "prefetched page served without a store read");
    }

    #[test]
    fn prefetched_frames_are_scan_resistant() {
        let p = pool(2);
        let hot = p.allocate_page().unwrap();
        let cold: Vec<PageId> = (0..4).map(|_| p.allocate_page().unwrap()).collect();
        // Stream the cold pages through (prefetch + one touch each) while
        // the hot page is re-referenced between pages, as a browse cursor
        // interleaved with a scan would be.
        p.with_page(hot, |_| ()).unwrap();
        for id in &cold {
            p.prefetch(&[*id]).unwrap();
            p.with_page(*id, |_| ()).unwrap();
            p.with_page(hot, |_| ()).unwrap();
        }
        p.reset_stats();
        // The hot page must still be resident: its reference bit protected
        // it, while the once-touched prefetched pages stayed evictable.
        p.with_page(hot, |_| ()).unwrap();
        assert_eq!(p.stats().hits, 1, "hot page evicted by a one-pass scan");
    }

    #[test]
    fn prefetch_skips_resident_pages() {
        let p = pool(4);
        let id = p.allocate_page().unwrap();
        p.reset_stats();
        p.prefetch(&[id]).unwrap();
        assert_eq!(p.stats().prefetches, 0);
        // And the resident frame's state is untouched: a read is a plain hit.
        p.with_page(id, |_| ()).unwrap();
        assert_eq!(p.stats().prefetch_hits, 0);
    }

    #[test]
    fn many_pages_random_access_consistency() {
        let p = pool(8);
        let n = 100u8;
        let ids: Vec<PageId> = (0..n).map(|_| p.allocate_page().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            p.with_page_mut(*id, |pg| pg.as_mut_slice()[100] = i as u8)
                .unwrap();
        }
        // Strided access pattern to churn the clock.
        for stride in [1usize, 3, 7, 13] {
            let mut i = 0usize;
            for _ in 0..n {
                let v = p.with_page(ids[i], |pg| pg.as_slice()[100]).unwrap();
                assert_eq!(v, i as u8);
                i = (i + stride) % n as usize;
            }
        }
    }

    #[test]
    fn small_pools_are_single_sharded() {
        assert_eq!(pool(1).shard_count(), 1);
        assert_eq!(pool(8).shard_count(), 1);
        assert_eq!(pool(15).shard_count(), 1);
        assert_eq!(pool(32).shard_count(), 4);
        let big = pool(1024);
        assert_eq!(big.shard_count(), 16);
        assert_eq!(big.capacity(), 1024);
    }

    #[test]
    fn sharded_pool_consistency_and_stat_aggregation() {
        let p = pool(64); // 8 shards
        assert!(p.shard_count() > 1);
        let ids: Vec<PageId> = (0..200).map(|_| p.allocate_page().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            p.with_page_mut(*id, |pg| pg.as_mut_slice()[3] = i as u8)
                .unwrap();
        }
        for (i, id) in ids.iter().enumerate() {
            let v = p.with_page(*id, |pg| pg.as_slice()[3]).unwrap();
            assert_eq!(v, i as u8);
        }
        let s = p.stats();
        assert!(s.misses > 0 && s.evictions > 0, "{s:?}");
        assert!(p.resident() <= 64);
        p.reset_stats();
        assert_eq!(p.stats(), PoolStats::default());
    }

    #[test]
    fn concurrent_readers_see_consistent_pages() {
        let p = pool(64);
        let ids: Vec<PageId> = (0..300).map(|_| p.allocate_page().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            p.with_page_mut(*id, |pg| pg.as_mut_slice()[9] = (i % 251) as u8)
                .unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let p = &p;
                let ids = &ids;
                s.spawn(move || {
                    for (i, id) in ids.iter().enumerate().skip(t).step_by(4) {
                        let v = p.with_page(*id, |pg| pg.as_slice()[9]).unwrap();
                        assert_eq!(v, (i % 251) as u8);
                    }
                });
            }
        });
    }
}
