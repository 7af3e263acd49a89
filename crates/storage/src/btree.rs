//! A page-based B+tree mapping byte-comparable keys to [`Rid`]s.
//!
//! This is the ordered access path underneath browse cursors: the *Windows
//! on the World* browse model fetches one screenful of records at a time by
//! walking the leaf chain, so the tree exposes point and range queries over
//! one leaf walk, [`BTree::range_scan`]. A browse cursor resumes by seeking
//! past the last key it showed.
//!
//! Keys are arbitrary byte strings compared lexicographically; the typed
//! layer (`wow-rel`) produces order-preserving encodings. Every tree rejects
//! a duplicate key. Non-unique indexes disambiguate duplicates by appending
//! the rid to the key (see [`composite_key`]), so every entry in the tree is
//! physically unique.
//!
//! Deletion is *lazy*: entries are removed from leaves but nodes are never
//! merged. Underfull nodes cost some space, never correctness — the same
//! trade early commercial engines made.
//!
//! A node page is a [`slotted`](crate::slotted) region whose directory is
//! kept in key order, so a search is a binary search over the directory and
//! every read borrows the page in place:
//!
//! ```text
//! 0      tag: 0 = leaf, 1 = internal
//! 1..9   leaf: next-leaf page id   | internal: leftmost child page id
//! 9..    slotted region; slot i holds the i-th cell in key order
//!         leaf:     key ++ rid (10 bytes)
//!         internal: key ++ child (8 bytes)  (child holds keys >= key)
//! ```

use crate::error::{StorageError, StorageResult};
use crate::page::{get_u64, put_u64, PageId};
use crate::rid::Rid;
use crate::slotted::{Slotted, SlottedRead, SLOT_ENTRY};
use crate::store::MemStore;
use std::ops::Bound;

/// Maximum key length accepted by the tree.
pub const MAX_KEY: usize = 1024;

const TAG_LEAF: u8 = 0;
const TAG_INTERNAL: u8 = 1;
/// Offset of a node's link: the next leaf, or the leftmost child.
const LINK: usize = 1;
/// Offset of a node's slotted region.
const REGION: usize = 9;
const RID_LEN: usize = 10;
const CHILD_LEN: usize = 8;

/// Meta-page field offsets.
const META_ROOT: usize = 0;
const META_COUNT: usize = 8;

/// Build the composite key used by non-unique indexes: `key ++ rid`, which
/// sorts by key then rid and makes every entry unique.
pub fn composite_key(key: &[u8], rid: Rid) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() + RID_LEN);
    out.extend_from_slice(key);
    out.extend_from_slice(&rid.to_bytes());
    out
}

/// An internal-node cell: `key ++ child`.
fn internal_cell(mut key: Vec<u8>, child: PageId) -> Vec<u8> {
    key.extend_from_slice(&child.0.to_le_bytes());
    key
}

/// A node page read in place: its kind, its link and its key-ordered cells.
struct NodeRef<'a> {
    leaf: bool,
    link: PageId,
    cells: SlottedRead<'a>,
}

impl<'a> NodeRef<'a> {
    fn open(page: &'a [u8]) -> StorageResult<NodeRef<'a>> {
        let leaf = match page[0] {
            TAG_LEAF => true,
            TAG_INTERNAL => false,
            _ => return Err(StorageError::Corrupt("bad btree node tag")),
        };
        Ok(NodeRef {
            leaf,
            link: PageId(get_u64(page, LINK)),
            cells: SlottedRead::open(&page[REGION..]),
        })
    }

    fn len(&self) -> u16 {
        self.cells.slot_count()
    }

    fn cell(&self, i: u16) -> &'a [u8] {
        self.cells.get(i).expect("node directory has no holes")
    }

    /// Cell `i` split into its key and its trailer (a rid or a child id).
    fn entry(&self, i: u16) -> (&'a [u8], &'a [u8]) {
        let cell = self.cell(i);
        cell.split_at(cell.len() - if self.leaf { RID_LEN } else { CHILD_LEN })
    }

    /// Number of keys `< key`, or `<= key` when `inclusive`: a binary
    /// search over the borrowed directory.
    fn search(&self, key: &[u8], inclusive: bool) -> u16 {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let k = self.entry(mid).0;
            if k < key || (inclusive && k == key) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Child `i` of an internal node: the link for 0, else the child of
    /// cell `i - 1`.
    fn child(&self, i: u16) -> PageId {
        match i {
            0 => self.link,
            _ => PageId(get_u64(self.entry(i - 1).1, 0)),
        }
    }

    /// The child whose subtree holds `key`: under the last separator
    /// `<= key`.
    fn route(&self, key: &[u8]) -> PageId {
        self.child(self.search(key, true))
    }
}

/// A B+tree index rooted at a meta page.
#[derive(Clone)]
pub struct BTree {
    meta: PageId,
    root: PageId,
    count: u64,
}

impl BTree {
    /// Create an empty tree.
    pub fn create(store: &MemStore) -> StorageResult<BTree> {
        let meta = store.allocate();
        let root = store.allocate();
        Self::write_node(store, root, TAG_LEAF, PageId::INVALID, &[])?;
        let tree = BTree {
            meta,
            root,
            count: 0,
        };
        tree.persist_meta(store)?;
        Ok(tree)
    }

    /// Open an existing tree rooted at `meta`.
    pub fn open(store: &MemStore, meta: PageId) -> StorageResult<BTree> {
        let (root, count) = store.with_page(meta, |p| {
            let b = p.as_slice();
            (PageId(get_u64(b, META_ROOT)), get_u64(b, META_COUNT))
        })?;
        Ok(BTree { meta, root, count })
    }

    /// The meta page id (persist this to reopen the index).
    pub fn meta_page(&self) -> PageId {
        self.meta
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Rebuild page `pid` as a node holding `cells` in order.
    fn write_node(
        store: &MemStore,
        pid: PageId,
        tag: u8,
        link: PageId,
        cells: &[Vec<u8>],
    ) -> StorageResult<()> {
        store.with_page_mut(pid, |p| {
            let b = p.as_mut_slice();
            b[0] = tag;
            put_u64(b, LINK, link.0);
            let mut region = Slotted::init(&mut b[REGION..]);
            for (i, cell) in cells.iter().enumerate() {
                assert!(region.insert_at(i as u16, cell), "node cells fit a page");
            }
        })
    }

    fn persist_meta(&self, store: &MemStore) -> StorageResult<()> {
        let (root, count) = (self.root, self.count);
        store.with_page_mut(self.meta, |p| {
            let b = p.as_mut_slice();
            put_u64(b, META_ROOT, root.0);
            put_u64(b, META_COUNT, count);
        })
    }

    /// Insert an entry. Returns [`StorageError::DuplicateKey`] if the key is
    /// already present.
    pub fn insert(&mut self, store: &MemStore, key: &[u8], rid: Rid) -> StorageResult<()> {
        if key.len() > MAX_KEY {
            return Err(StorageError::RecordTooLarge {
                size: key.len(),
                max: MAX_KEY,
            });
        }
        // A leaf cell is `key ++ rid`: the same bytes as a composite key.
        let cell = composite_key(key, rid);
        if let Some((split_key, right)) = Self::insert_rec(store, self.root, key, &cell)? {
            // Root split: grow the tree by one level.
            let new_root = store.allocate();
            let cells = [internal_cell(split_key, right)];
            Self::write_node(store, new_root, TAG_INTERNAL, self.root, &cells)?;
            self.root = new_root;
        }
        self.count += 1;
        self.persist_meta(store)
    }

    /// Insert the leaf `cell` for `key` into the subtree at `pid`. Returns
    /// the separator and new right sibling when `pid` split.
    fn insert_rec(
        store: &MemStore,
        pid: PageId,
        key: &[u8],
        cell: &[u8],
    ) -> StorageResult<Option<(Vec<u8>, PageId)>> {
        // The slot for `key` here and, in an internal node, the child below.
        let (pos, child) = store.with_page(pid, |p| {
            let node = NodeRef::open(p.as_slice())?;
            if node.leaf {
                let pos = node.search(key, false);
                if pos < node.len() && node.entry(pos).0 == key {
                    return Err(StorageError::DuplicateKey);
                }
                return Ok((pos, None));
            }
            let pos = node.search(key, true);
            Ok((pos, Some(node.child(pos))))
        })??;
        let Some(child) = child else {
            return Self::place(store, pid, pos, cell);
        };
        match Self::insert_rec(store, child, key, cell)? {
            Some((split_key, right)) => {
                Self::place(store, pid, pos, &internal_cell(split_key, right))
            }
            None => Ok(None),
        }
    }

    /// Put `cell` at slot `pos` of node `pid`. When it does not fit, split
    /// the node at its size midpoint, rebuilding both halves from the cell
    /// list, and return the separator and the new right sibling.
    fn place(
        store: &MemStore,
        pid: PageId,
        pos: u16,
        cell: &[u8],
    ) -> StorageResult<Option<(Vec<u8>, PageId)>> {
        let full = store.with_page_mut(pid, |p| -> StorageResult<_> {
            if Slotted::open(&mut p.as_mut_slice()[REGION..]).insert_at(pos, cell) {
                return Ok(None);
            }
            let node = NodeRef::open(p.as_slice())?;
            let mut cells: Vec<Vec<u8>> = (0..node.len()).map(|i| node.cell(i).to_vec()).collect();
            cells.insert(pos as usize, cell.to_vec());
            Ok(Some((node.leaf, node.link, cells)))
        })??;
        let Some((leaf, link, mut left)) = full else {
            return Ok(None);
        };
        let mut right = left.split_off(split_point(left.iter().map(|c| c.len() + SLOT_ENTRY)));
        let right_pid = store.allocate();
        if leaf {
            let split_key = right[0][..right[0].len() - RID_LEN].to_vec();
            Self::write_node(store, right_pid, TAG_LEAF, link, &right)?;
            Self::write_node(store, pid, TAG_LEAF, right_pid, &left)?;
            return Ok(Some((split_key, right_pid)));
        }
        // The separator at the midpoint moves *up*; its child becomes the
        // right node's leftmost child.
        let mut promote = right.remove(0);
        let first = PageId(get_u64(&promote, promote.len() - CHILD_LEN));
        promote.truncate(promote.len() - CHILD_LEN);
        Self::write_node(store, right_pid, TAG_INTERNAL, first, &right)?;
        Self::write_node(store, pid, TAG_INTERNAL, link, &left)?;
        Ok(Some((promote, right_pid)))
    }

    /// Find the leaf that would contain `key`, returning its page id.
    fn find_leaf(&self, store: &MemStore, key: &[u8]) -> StorageResult<PageId> {
        let mut pid = self.root;
        loop {
            let child = store.with_page(pid, |p| {
                NodeRef::open(p.as_slice()).map(|n| (!n.leaf).then(|| n.route(key)))
            })??;
            match child {
                Some(child) => pid = child,
                None => return Ok(pid),
            }
        }
    }

    /// All rids stored under exactly `key` (at most one: keys are unique).
    pub fn lookup(&self, store: &MemStore, key: &[u8]) -> StorageResult<Vec<Rid>> {
        let mut out = Vec::new();
        self.range_scan(
            store,
            Bound::Included(key),
            Bound::Included(key),
            |_, rid| {
                out.push(rid);
                true
            },
        )?;
        Ok(out)
    }

    /// All rids whose (composite) key starts with `prefix` — the lookup used
    /// by non-unique indexes built with [`composite_key`].
    pub fn lookup_prefix(&self, store: &MemStore, prefix: &[u8]) -> StorageResult<Vec<Rid>> {
        let mut out = Vec::new();
        self.range_scan(
            store,
            Bound::Included(prefix),
            Bound::Unbounded,
            |k, rid| {
                if k.starts_with(prefix) {
                    out.push(rid);
                    true
                } else {
                    false
                }
            },
        )?;
        Ok(out)
    }

    /// Remove the entry `(key, rid)`. Returns whether it existed.
    pub fn delete(&mut self, store: &MemStore, key: &[u8], rid: Rid) -> StorageResult<bool> {
        let leaf = self.find_leaf(store, key)?;
        let found = store.with_page_mut(leaf, |p| -> StorageResult<bool> {
            let node = NodeRef::open(p.as_slice())?;
            let pos = node.search(key, false);
            let found = pos < node.len() && node.entry(pos) == (key, &rid.to_bytes()[..]);
            if found {
                Slotted::open(&mut p.as_mut_slice()[REGION..]).remove_at(pos);
            }
            Ok(found)
        })??;
        if found {
            self.count -= 1;
            self.persist_meta(store)?;
        }
        Ok(found)
    }

    /// Scan entries from `lower` to `upper` in key order, calling
    /// `f(key, rid)`; stop early when `f` returns `false`.
    ///
    /// This is the tree's one leaf walk: a descent seeks `lower`, then the
    /// walk follows the leaf chain, reading each page in place under one
    /// [`MemStore::with_page`] borrow, and hands `f` the key borrowed from
    /// the leaf. `f` therefore runs while the store's read lock is held: it
    /// must not touch the store, and should copy out what it keeps and
    /// return.
    pub fn range_scan(
        &self,
        store: &MemStore,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], Rid) -> bool,
    ) -> StorageResult<()> {
        let mut lower = lower;
        let mut pid = self.root;
        while pid.is_valid() {
            pid = store.with_page(pid, |p| -> StorageResult<PageId> {
                let node = NodeRef::open(p.as_slice())?;
                if !node.leaf {
                    return Ok(match lower {
                        Bound::Included(k) | Bound::Excluded(k) => node.route(k),
                        Bound::Unbounded => node.link,
                    });
                }
                let start = match lower {
                    Bound::Included(k) => node.search(k, false),
                    Bound::Excluded(k) => node.search(k, true),
                    Bound::Unbounded => 0,
                };
                // Only the first leaf is sought; later ones are walked whole.
                lower = Bound::Unbounded;
                for i in start..node.len() {
                    let (key, rid) = node.entry(i);
                    let in_range = match upper {
                        Bound::Included(u) => key <= u,
                        Bound::Excluded(u) => key < u,
                        Bound::Unbounded => true,
                    };
                    let rid = Rid::from_bytes(rid).ok_or(StorageError::Corrupt("bad leaf rid"))?;
                    if !in_range || !f(key, rid) {
                        return Ok(PageId::INVALID);
                    }
                }
                Ok(node.link)
            })??;
        }
        Ok(())
    }

    /// Collect a bounded range (convenience for tests).
    pub fn range(
        &self,
        store: &MemStore,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
    ) -> StorageResult<Vec<(Vec<u8>, Rid)>> {
        let mut out = Vec::new();
        self.range_scan(store, lower, upper, |k, r| {
            out.push((k.to_vec(), r));
            true
        })?;
        Ok(out)
    }

    /// Free every page of the tree.
    pub fn destroy(self, store: &MemStore) -> StorageResult<()> {
        let mut stack = vec![self.root];
        while let Some(pid) = stack.pop() {
            store.with_page(pid, |p| -> StorageResult<()> {
                let node = NodeRef::open(p.as_slice())?;
                if !node.leaf {
                    stack.extend((0..=node.len()).map(|i| node.child(i)));
                }
                Ok(())
            })??;
            store.free(pid)?;
        }
        store.free(self.meta)
    }

    /// Depth of the tree (1 = just a root leaf). For tests and stats.
    pub fn height(&self, store: &MemStore) -> StorageResult<usize> {
        let mut h = 1;
        let mut pid = self.root;
        loop {
            let node = store.with_page(pid, |p| {
                NodeRef::open(p.as_slice()).map(|n| (!n.leaf).then_some(n.link))
            })??;
            match node {
                Some(child) => {
                    pid = child;
                    h += 1;
                }
                None => return Ok(h),
            }
        }
    }
}

/// Pick the split index such that both halves have at least one entry and
/// sizes are as balanced as possible.
fn split_point(sizes: impl Iterator<Item = usize>) -> usize {
    let sizes: Vec<usize> = sizes.collect();
    let total: usize = sizes.iter().sum();
    let mut acc = 0;
    for (i, s) in sizes.iter().enumerate() {
        acc += s;
        if acc * 2 >= total {
            // Never split off an empty half.
            return (i + 1).clamp(1, sizes.len() - 1);
        }
    }
    sizes.len() / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MemStore, BTree) {
        let store = MemStore::new();
        let tree = BTree::create(&store).unwrap();
        (store, tree)
    }

    fn rid(n: u64) -> Rid {
        Rid::new(PageId(n), (n % 7) as u16)
    }

    /// Leaves on the chain, counted from the leftmost.
    fn leaf_count(store: &MemStore, t: &BTree) -> usize {
        let mut pid = t.root;
        while let Some(child) = store
            .with_page(pid, |p| {
                let n = NodeRef::open(p.as_slice()).unwrap();
                (!n.leaf).then_some(n.link)
            })
            .unwrap()
        {
            pid = child;
        }
        let mut leaves = 0;
        while pid.is_valid() {
            leaves += 1;
            pid = store
                .with_page(pid, |p| NodeRef::open(p.as_slice()).unwrap().link)
                .unwrap();
        }
        leaves
    }

    #[test]
    fn insert_lookup_small() {
        let (store, mut t) = setup();
        t.insert(&store, b"banana", rid(1)).unwrap();
        t.insert(&store, b"apple", rid(2)).unwrap();
        t.insert(&store, b"cherry", rid(3)).unwrap();
        assert_eq!(t.lookup(&store, b"apple").unwrap(), vec![rid(2)]);
        assert_eq!(t.lookup(&store, b"banana").unwrap(), vec![rid(1)]);
        assert_eq!(t.lookup(&store, b"durian").unwrap(), Vec::<Rid>::new());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn unique_tree_rejects_duplicates() {
        let (store, mut t) = setup();
        t.insert(&store, b"k", rid(1)).unwrap();
        assert!(matches!(
            t.insert(&store, b"k", rid(2)),
            Err(StorageError::DuplicateKey)
        ));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn composite_key_run_spans_leaves() {
        // A non-unique index's duplicates are one run of composite keys
        // under a shared prefix; here the run covers many leaves.
        let (store, mut t) = setup();
        let prefix = vec![b'p'; 200];
        t.insert(&store, &[b'a'; 8], rid(9999)).unwrap();
        t.insert(&store, &[b'q'; 8], rid(9998)).unwrap();
        for i in 0..400u64 {
            t.insert(&store, &composite_key(&prefix, rid(i)), rid(i))
                .unwrap();
        }
        assert!(
            leaf_count(&store, &t) >= 3,
            "the run spans at least 3 leaves"
        );
        let mut hits = t.lookup_prefix(&store, &prefix).unwrap();
        hits.sort();
        let mut want: Vec<Rid> = (0..400).map(rid).collect();
        want.sort();
        assert_eq!(hits, want);
        for i in 0..400u64 {
            assert!(t
                .delete(&store, &composite_key(&prefix, rid(i)), rid(i))
                .unwrap());
        }
        assert!(t.lookup_prefix(&store, &prefix).unwrap().is_empty());
        assert_eq!(t.len(), 2, "the neighbours either side remain");
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let (store, mut t) = setup();
        let n = 5000u32;
        // Insert in a scrambled order.
        let mut keys: Vec<u32> = (0..n).collect();
        let mut state = 0x12345678u64;
        for i in (1..keys.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            keys.swap(i, j);
        }
        for &k in &keys {
            t.insert(&store, &k.to_be_bytes(), rid(k as u64)).unwrap();
        }
        assert!(t.height(&store).unwrap() >= 2, "tree must have split");
        // Full ordered scan returns every key in order.
        let all = t.range(&store, Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(all.len(), n as usize);
        for (i, (k, r)) in all.iter().enumerate() {
            assert_eq!(k.as_slice(), (i as u32).to_be_bytes());
            assert_eq!(*r, rid(i as u64));
        }
        // Point lookups all work.
        for probe in [0u32, 1, 17, 999, 2500, n - 1] {
            assert_eq!(
                t.lookup(&store, &probe.to_be_bytes()).unwrap(),
                vec![rid(probe as u64)]
            );
        }
    }

    #[test]
    fn range_bounds_are_respected() {
        let (store, mut t) = setup();
        for k in 0..100u32 {
            t.insert(&store, &k.to_be_bytes(), rid(k as u64)).unwrap();
        }
        let lo = 10u32.to_be_bytes();
        let hi = 20u32.to_be_bytes();
        let incl = t
            .range(&store, Bound::Included(&lo), Bound::Included(&hi))
            .unwrap();
        assert_eq!(incl.len(), 11);
        let excl = t
            .range(&store, Bound::Excluded(&lo), Bound::Excluded(&hi))
            .unwrap();
        assert_eq!(excl.len(), 9);
        assert_eq!(excl[0].0, 11u32.to_be_bytes());
    }

    #[test]
    fn delete_removes_exact_entry() {
        let (store, mut t) = setup();
        t.insert(&store, b"k1", rid(1)).unwrap();
        t.insert(&store, b"k2", rid(2)).unwrap();
        assert!(
            !t.delete(&store, b"k1", rid(2)).unwrap(),
            "a wrong rid is not deleted"
        );
        assert_eq!(t.lookup(&store, b"k1").unwrap(), vec![rid(1)]);
        assert!(t.delete(&store, b"k1", rid(1)).unwrap());
        assert_eq!(t.lookup(&store, b"k1").unwrap(), Vec::<Rid>::new());
        assert_eq!(t.lookup(&store, b"k2").unwrap(), vec![rid(2)]);
        assert!(!t.delete(&store, b"k1", rid(1)).unwrap());
        assert!(!t.delete(&store, b"missing", rid(1)).unwrap());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_across_split_leaves() {
        let (store, mut t) = setup();
        let n = 3000u32;
        for k in 0..n {
            t.insert(&store, &k.to_be_bytes(), rid(k as u64)).unwrap();
        }
        for k in (0..n).step_by(2) {
            assert!(t.delete(&store, &k.to_be_bytes(), rid(k as u64)).unwrap());
        }
        assert_eq!(t.len() as u32, n / 2);
        let all = t.range(&store, Bound::Unbounded, Bound::Unbounded).unwrap();
        assert!(all
            .iter()
            .all(|(k, _)| { u32::from_be_bytes(k.as_slice().try_into().unwrap()) % 2 == 1 }));
    }

    #[test]
    fn cursor_walks_whole_tree_incrementally() {
        // A browse cursor pages by seeking past the last key it showed.
        let (store, mut t) = setup();
        for k in 0..1000u32 {
            t.insert(&store, &k.to_be_bytes(), rid(k as u64)).unwrap();
        }
        let mut seen = 0u32;
        let mut last: Option<Vec<u8>> = None;
        loop {
            let lower = last.as_deref().map_or(Bound::Unbounded, Bound::Excluded);
            let mut page = Vec::new();
            t.range_scan(&store, lower, Bound::Unbounded, |k, _| {
                page.push(k.to_vec());
                page.len() < 16
            })
            .unwrap();
            let Some(tail) = page.last().cloned() else {
                break;
            };
            for k in page {
                assert_eq!(k, seen.to_be_bytes());
                seen += 1;
            }
            last = Some(tail);
        }
        assert_eq!(seen, 1000);
    }

    #[test]
    fn cursor_seek_positions_mid_tree() {
        let (store, mut t) = setup();
        for k in (0..1000u32).step_by(2) {
            t.insert(&store, &k.to_be_bytes(), rid(k as u64)).unwrap();
        }
        // Seek to a key that is absent (odd): next entry is the even above it.
        let probe = 501u32.to_be_bytes();
        let mut first = None;
        t.range_scan(&store, Bound::Included(&probe), Bound::Unbounded, |k, _| {
            first = Some(k.to_vec());
            false
        })
        .unwrap();
        assert_eq!(first.unwrap(), 502u32.to_be_bytes());
    }

    #[test]
    fn composite_keys_give_per_duplicate_deletion() {
        let (store, mut t) = setup();
        for i in 0..50u64 {
            let ck = composite_key(b"dept=sales", rid(i));
            t.insert(&store, &ck, rid(i)).unwrap();
        }
        let hits = t.lookup_prefix(&store, b"dept=sales").unwrap();
        assert_eq!(hits.len(), 50);
        let ck = composite_key(b"dept=sales", rid(7));
        assert!(t.delete(&store, &ck, rid(7)).unwrap());
        assert_eq!(t.lookup_prefix(&store, b"dept=sales").unwrap().len(), 49);
    }

    #[test]
    fn reopen_preserves_tree() {
        let store = MemStore::new();
        let meta;
        {
            let mut t = BTree::create(&store).unwrap();
            meta = t.meta_page();
            for k in 0..2000u32 {
                t.insert(&store, &k.to_be_bytes(), rid(k as u64)).unwrap();
            }
        }
        let mut t = BTree::open(&store, meta).unwrap();
        assert_eq!(t.len(), 2000);
        assert_eq!(
            t.lookup(&store, &1234u32.to_be_bytes()).unwrap(),
            vec![rid(1234)]
        );
        assert!(matches!(
            t.insert(&store, &1234u32.to_be_bytes(), rid(1)),
            Err(StorageError::DuplicateKey)
        ));
    }

    #[test]
    fn oversized_key_is_rejected() {
        let (store, mut t) = setup();
        let big = vec![0u8; MAX_KEY + 1];
        assert!(t.insert(&store, &big, rid(0)).is_err());
    }

    #[test]
    fn variable_length_keys_sort_lexicographically() {
        let (store, mut t) = setup();
        let keys: &[&[u8]] = &[b"a", b"aa", b"ab", b"b", b"ba", b""];
        for (i, k) in keys.iter().enumerate() {
            t.insert(&store, k, rid(i as u64)).unwrap();
        }
        let all = t.range(&store, Bound::Unbounded, Bound::Unbounded).unwrap();
        let got: Vec<&[u8]> = all.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(got, vec![&b""[..], b"a", b"aa", b"ab", b"b", b"ba"]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>),
        Delete(Vec<u8>),
        /// Delete the model's `n`-th key (modulo its size).
        DeleteNth(usize),
    }

    /// Short keys collide often; long ones reach `MAX_KEY` so nodes hold a
    /// handful of cells and internal nodes split.
    fn key() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            1 => proptest::collection::vec(any::<u8>(), 0..4),
            3 => proptest::collection::vec(any::<u8>(), 0..MAX_KEY + 1),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => key().prop_map(Op::Insert),
            1 => key().prop_map(Op::Delete),
            2 => any::<usize>().prop_map(Op::DeleteNth),
        ]
    }

    fn bound() -> impl Strategy<Value = Bound<Vec<u8>>> {
        prop_oneof![
            key().prop_map(Bound::Included),
            key().prop_map(Bound::Excluded),
            Just(Bound::Unbounded),
        ]
    }

    /// Whether (and which) model key a range bound sits on.
    fn pick() -> impl Strategy<Value = Option<usize>> {
        prop_oneof![Just(None), any::<usize>().prop_map(Some)]
    }

    /// A bound on a model key: the `n`-th (modulo) when `pick`, else `b`.
    fn anchor(
        b: Bound<Vec<u8>>,
        pick: Option<usize>,
        model: &BTreeMap<Vec<u8>, Rid>,
    ) -> Bound<Vec<u8>> {
        let Some(n) = pick.filter(|_| !model.is_empty()) else {
            return b;
        };
        let k = model.keys().nth(n % model.len()).unwrap().clone();
        match b {
            Bound::Excluded(_) => Bound::Excluded(k),
            _ => Bound::Included(k),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn matches_std_btreemap(
            ops in proptest::collection::vec(op(), 1..2000),
            ranges in proptest::collection::vec(
                (bound(), pick(), bound(), pick()),
                1..8,
            ),
        ) {
            let store = MemStore::new();
            let mut tree = BTree::create(&store).unwrap();
            let mut model: BTreeMap<Vec<u8>, Rid> = BTreeMap::new();
            let mut next_rid = 0u64;
            for op in ops {
                match op {
                    Op::Insert(key) => {
                        let r = Rid::new(PageId(next_rid), 0);
                        next_rid += 1;
                        match tree.insert(&store, &key, r) {
                            Ok(()) => {
                                prop_assert!(!model.contains_key(&key));
                                model.insert(key, r);
                            }
                            Err(StorageError::DuplicateKey) => {
                                prop_assert!(model.contains_key(&key));
                            }
                            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                        }
                    }
                    Op::Delete(key) => {
                        // A missing key, or a present key with a wrong rid,
                        // is a no-op.
                        let wrong = Rid::new(PageId(u64::MAX), 0);
                        prop_assert!(!tree.delete(&store, &key, wrong).unwrap());
                        let r = model.remove(&key);
                        prop_assert_eq!(tree.delete(&store, &key, r.unwrap_or(wrong)).unwrap(), r.is_some());
                    }
                    Op::DeleteNth(n) => {
                        if model.is_empty() {
                            continue;
                        }
                        let key = model.keys().nth(n % model.len()).unwrap().clone();
                        let r = model.remove(&key).unwrap();
                        prop_assert!(tree.delete(&store, &key, r).unwrap());
                    }
                }
            }
            prop_assert_eq!(tree.len() as usize, model.len());
            let all = tree.range(&store, Bound::Unbounded, Bound::Unbounded).unwrap();
            let expect: Vec<(Vec<u8>, Rid)> =
                model.iter().map(|(k, v)| (k.clone(), *v)).collect();
            prop_assert_eq!(all, expect);
            for (lo, lo_pick, hi, hi_pick) in ranges {
                let lo = anchor(lo, lo_pick, &model);
                let hi = anchor(hi, hi_pick, &model);
                let got = tree.range(&store, lo.as_ref().map(|k| k.as_slice()), hi.as_ref().map(|k| k.as_slice())).unwrap();
                // BTreeMap::range panics on an inverted range; the tree
                // returns nothing for it.
                let inverted = match (&lo, &hi) {
                    (Bound::Included(a), Bound::Included(b)) => a > b,
                    (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => a >= b,
                    _ => false,
                };
                let expect: Vec<(Vec<u8>, Rid)> = if inverted {
                    Vec::new()
                } else {
                    model.range((lo, hi)).map(|(k, v)| (k.clone(), *v)).collect()
                };
                prop_assert_eq!(got, expect);
            }
        }
    }
}
