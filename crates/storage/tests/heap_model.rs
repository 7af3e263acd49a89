//! Model-based testing of heap files (rid → bytes map semantics) and
//! failure injection through a faulty page store.

use proptest::prelude::*;
use std::collections::HashMap;
use wow_storage::buffer::BufferPool;
use wow_storage::heap::HeapFile;
use wow_storage::page::{Page, PageId};
use wow_storage::store::{MemStore, PageStore};
use wow_storage::{Rid, StorageError, StorageResult};

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>),
    Update(usize, Vec<u8>),
    Delete(usize),
    Get(usize),
    ScanAll,
}

fn record_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Mix small records with page-straining ones to force splits/moves.
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::collection::vec(any::<u8>(), 1000..4000),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => record_strategy().prop_map(Op::Insert),
        3 => (any::<usize>(), record_strategy()).prop_map(|(i, r)| Op::Update(i, r)),
        2 => any::<usize>().prop_map(Op::Delete),
        2 => any::<usize>().prop_map(Op::Get),
        1 => Just(Op::ScanAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn heap_behaves_like_a_rid_keyed_map(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let pool = BufferPool::new(MemStore::new(), 16);
        let mut heap = HeapFile::create(&pool).unwrap();
        let mut model: HashMap<Rid, Vec<u8>> = HashMap::new();
        let mut rids: Vec<Rid> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(rec) => {
                    let rid = heap.insert(&pool, &rec).unwrap();
                    prop_assert!(!model.contains_key(&rid), "rid reuse while live");
                    model.insert(rid, rec);
                    rids.push(rid);
                }
                Op::Update(i, rec) => {
                    if rids.is_empty() { continue; }
                    let rid = rids[i % rids.len()];
                    let updated = heap.update(&pool, rid, &rec).unwrap();
                    prop_assert_eq!(updated, model.contains_key(&rid));
                    if updated {
                        model.insert(rid, rec);
                    }
                }
                Op::Delete(i) => {
                    if rids.is_empty() { continue; }
                    let rid = rids[i % rids.len()];
                    let deleted = heap.delete(&pool, rid).unwrap();
                    prop_assert_eq!(deleted, model.remove(&rid).is_some());
                }
                Op::Get(i) => {
                    if rids.is_empty() { continue; }
                    let rid = rids[i % rids.len()];
                    let got = heap.get(&pool, rid).unwrap();
                    prop_assert_eq!(got.as_ref(), model.get(&rid));
                }
                Op::ScanAll => {
                    let mut seen: HashMap<Rid, Vec<u8>> = HashMap::new();
                    heap.scan(&pool, |rid, rec| {
                        seen.insert(rid, rec.to_vec());
                    })
                    .unwrap();
                    prop_assert_eq!(&seen, &model, "scan = model contents");
                }
            }
            prop_assert_eq!(heap.len() as usize, model.len());
        }
        // Final full check after the op stream.
        let all = heap.scan_all(&pool).unwrap();
        prop_assert_eq!(all.len(), model.len());
        for (rid, rec) in all {
            prop_assert_eq!(Some(&rec), model.get(&rid));
        }
    }
}

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

/// A page store that starts failing every write after a fuse burns.
struct FaultyStore {
    inner: MemStore,
    writes_left: usize,
}

impl PageStore for FaultyStore {
    fn allocate(&mut self) -> StorageResult<PageId> {
        self.inner.allocate()
    }
    fn read(&mut self, id: PageId, out: &mut Page) -> StorageResult<()> {
        self.inner.read(id, out)
    }
    fn write(&mut self, id: PageId, page: &Page) -> StorageResult<()> {
        if self.writes_left == 0 {
            return Err(StorageError::Io(std::io::Error::other(
                "injected disk failure",
            )));
        }
        self.writes_left -= 1;
        self.inner.write(id, page)
    }
    fn free(&mut self, id: PageId) -> StorageResult<()> {
        self.inner.free(id)
    }
    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
    fn sync(&mut self) -> StorageResult<()> {
        self.inner.sync()
    }
}

#[test]
fn disk_failures_surface_as_errors_not_panics() {
    // A tiny pool forces evictions (and hence store writes) quickly.
    let store = FaultyStore {
        inner: MemStore::new(),
        writes_left: 6,
    };
    let pool = BufferPool::new(store, 2);
    let mut heap = HeapFile::create(&pool).unwrap();
    let rec = vec![7u8; 2000];
    let mut saw_error = false;
    for _ in 0..200 {
        match heap.insert(&pool, &rec) {
            Ok(_) => {}
            Err(StorageError::Io(e)) => {
                assert!(e.to_string().contains("injected"));
                saw_error = true;
                break;
            }
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }
    assert!(saw_error, "the fuse must eventually blow through the pool");
}

#[test]
fn flush_failures_are_reported() {
    let store = FaultyStore {
        inner: MemStore::new(),
        writes_left: 0,
    };
    let pool = BufferPool::new(store, 8);
    let id = pool.allocate_page().unwrap();
    pool.with_page_mut(id, |p| p.as_mut_slice()[0] = 1).unwrap();
    assert!(matches!(pool.flush_all(), Err(StorageError::Io(_))));
}
