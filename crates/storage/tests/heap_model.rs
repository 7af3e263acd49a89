//! Model-based testing of heap files (rid → bytes map semantics).

use proptest::prelude::*;
use std::collections::HashMap;
use wow_storage::heap::HeapFile;
use wow_storage::store::MemStore;
use wow_storage::Rid;

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
        let store = MemStore::new();
        let mut heap = HeapFile::create(&store).unwrap();
        let mut model: HashMap<Rid, Vec<u8>> = HashMap::new();
        let mut rids: Vec<Rid> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(rec) => {
                    let rid = heap.insert(&store, &rec).unwrap();
                    prop_assert!(!model.contains_key(&rid), "rid reuse while live");
                    model.insert(rid, rec);
                    rids.push(rid);
                }
                Op::Update(i, rec) => {
                    if rids.is_empty() { continue; }
                    let rid = rids[i % rids.len()];
                    let updated = heap.update(&store, rid, &rec).unwrap();
                    prop_assert_eq!(updated, model.contains_key(&rid));
                    if updated {
                        model.insert(rid, rec);
                    }
                }
                Op::Delete(i) => {
                    if rids.is_empty() { continue; }
                    let rid = rids[i % rids.len()];
                    let deleted = heap.delete(&store, rid).unwrap();
                    prop_assert_eq!(deleted, model.remove(&rid).is_some());
                }
                Op::Get(i) => {
                    if rids.is_empty() { continue; }
                    let rid = rids[i % rids.len()];
                    let got = heap.get(&store, rid).unwrap();
                    prop_assert_eq!(got.as_ref(), model.get(&rid));
                }
                Op::ScanAll => {
                    let mut seen: HashMap<Rid, Vec<u8>> = HashMap::new();
                    heap.scan(&store, |rid, rec| {
                        seen.insert(rid, rec.to_vec());
                    })
                    .unwrap();
                    prop_assert_eq!(&seen, &model, "scan = model contents");
                }
            }
            prop_assert_eq!(heap.len() as usize, model.len());
        }
        // Final full check after the op stream.
        let all = heap.scan_all(&store).unwrap();
        prop_assert_eq!(all.len(), model.len());
        for (rid, rec) in all {
            prop_assert_eq!(Some(&rec), model.get(&rid));
        }
    }
}
