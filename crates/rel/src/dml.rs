//! Data manipulation: insert, update, delete — with index maintenance,
//! write-ahead logging, and undo support.
//!
//! Every operation follows the same discipline:
//!
//! 1. validate the row against the schema,
//! 2. check unique constraints via the indexes,
//! 3. append a WAL record (log *before* data),
//! 4. apply to the heap,
//! 5. maintain every index,
//! 6. record an undo entry if a transaction is open, and
//! 7. bump statistics.

use crate::db::{Database, UndoOp};
use crate::error::{RelError, RelResult};
use crate::tuple::Tuple;
use crate::value::Value;
use wow_storage::wal::LogRecord;
use wow_storage::Rid;

impl Database {
    /// Insert a row; returns its rid.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> RelResult<Rid> {
        let info = self.catalog.table(table)?.clone();
        let values = info.schema.validate_row(values)?;
        let tuple = Tuple::new(values);
        // Unique pre-checks (all unique indexes) before any mutation, so a
        // violation leaves no partial state behind.
        for idx_name in &info.indexes {
            let idx = self.catalog.index(idx_name)?.clone();
            if idx.unique {
                let key_vals: Vec<Value> = idx
                    .columns
                    .iter()
                    .map(|&i| tuple.values[i].clone())
                    .collect();
                if !self.index_lookup(&idx.name, &key_vals)?.is_empty() {
                    return Err(RelError::UniqueViolation(format!(
                        "{} = {:?}",
                        idx.name, key_vals
                    )));
                }
            }
        }
        let (txn, auto) = self.dml_txn();
        let encoded = tuple.encode();
        // WAL first. The rid is not known before the heap insert; we log
        // after computing it but before making the op visible to commit —
        // acceptable because our recovery replays logically by re-inserting.
        let heap = self
            .heaps
            .get_mut(&info.id)
            .ok_or_else(|| RelError::NoSuchTable(table.to_string()))?;
        let rid = heap.insert(&self.store, &encoded)?;
        let logged = crate::db::wal_logged(&info.name);
        if logged {
            if let Some(wal) = &mut self.wal {
                wal.append(&LogRecord::Insert {
                    txn,
                    table: info.id,
                    rid,
                    bytes: encoded,
                })?;
            }
        }
        for idx_name in &info.indexes {
            let idx = self.catalog.index(idx_name)?.clone();
            self.index_insert(&idx, &tuple, rid)?;
        }
        if auto {
            if logged {
                if let Some(wal) = &mut self.wal {
                    wal.append(&LogRecord::Commit { txn })?;
                    wal.flush()?;
                }
                self.note_commit();
            }
        } else {
            self.txn.undo.push(UndoOp::Insert {
                table: info.id,
                rid,
            });
        }
        self.stats.on_insert(info.id, 1);
        self.counters.statements += 1;
        Ok(rid)
    }

    /// Update the row at `rid` to `values`. Returns `false` if the row no
    /// longer exists.
    pub fn update_rid(&mut self, table: &str, rid: Rid, values: Vec<Value>) -> RelResult<bool> {
        let info = self.catalog.table(table)?.clone();
        let values = info.schema.validate_row(values)?;
        let new = Tuple::new(values);
        let Some(old) = self.get_row(info.id, rid)? else {
            return Ok(false);
        };
        // Unique pre-checks, ignoring a hit that is the row itself. An
        // index whose key the update leaves as it was cannot conflict.
        for idx_name in &info.indexes {
            let idx = self.catalog.index(idx_name)?.clone();
            if idx.unique && Self::index_key(&idx, &old) != Self::index_key(&idx, &new) {
                let key_vals: Vec<Value> =
                    idx.columns.iter().map(|&i| new.values[i].clone()).collect();
                let hits = self.index_lookup(&idx.name, &key_vals)?;
                if hits.iter().any(|&r| r != rid) {
                    return Err(RelError::UniqueViolation(format!(
                        "{} = {:?}",
                        idx.name, key_vals
                    )));
                }
            }
        }
        let (txn, auto) = self.dml_txn();
        let logged = crate::db::wal_logged(&info.name);
        if logged {
            if let Some(wal) = &mut self.wal {
                wal.append(&LogRecord::Update {
                    txn,
                    table: info.id,
                    rid,
                    old: old.encode(),
                    new: new.encode(),
                })?;
            }
        }
        {
            let heap = self.heaps.get_mut(&info.id).expect("heap exists");
            heap.update(&self.store, rid, &new.encode())?;
        }
        for idx_name in &info.indexes {
            let idx = self.catalog.index(idx_name)?.clone();
            let old_key = Self::index_key(&idx, &old);
            let new_key = Self::index_key(&idx, &new);
            if old_key != new_key {
                self.index_delete(&idx, &old, rid)?;
                self.index_insert(&idx, &new, rid)?;
            }
        }
        if auto {
            if logged {
                if let Some(wal) = &mut self.wal {
                    wal.append(&LogRecord::Commit { txn })?;
                    wal.flush()?;
                }
                self.note_commit();
            }
        } else {
            self.txn.undo.push(UndoOp::Update {
                table: info.id,
                rid,
                old,
            });
        }
        self.counters.statements += 1;
        Ok(true)
    }

    /// Delete the row at `rid`. Returns `false` if it did not exist.
    pub fn delete_rid(&mut self, table: &str, rid: Rid) -> RelResult<bool> {
        let info = self.catalog.table(table)?.clone();
        let Some(old) = self.get_row(info.id, rid)? else {
            return Ok(false);
        };
        let (txn, auto) = self.dml_txn();
        let logged = crate::db::wal_logged(&info.name);
        if logged {
            if let Some(wal) = &mut self.wal {
                wal.append(&LogRecord::Delete {
                    txn,
                    table: info.id,
                    rid,
                    old: old.encode(),
                })?;
            }
        }
        for idx_name in &info.indexes {
            let idx = self.catalog.index(idx_name)?.clone();
            self.index_delete(&idx, &old, rid)?;
        }
        {
            let heap = self.heaps.get_mut(&info.id).expect("heap exists");
            heap.delete(&self.store, rid)?;
        }
        if auto {
            if logged {
                if let Some(wal) = &mut self.wal {
                    wal.append(&LogRecord::Commit { txn })?;
                    wal.flush()?;
                }
                self.note_commit();
            }
        } else {
            self.txn.undo.push(UndoOp::Delete {
                table: info.id,
                rid,
                old,
            });
        }
        self.stats.on_delete(info.id, 1);
        self.counters.statements += 1;
        Ok(true)
    }

    /// Replay a WAL into this database. Committed DML is re-applied by rid
    /// hint with a content fallback, and committed DDL records recreate
    /// tables and indexes under their logged ids (see
    /// [`crate::durable`] for the full protocol). Call this *before*
    /// attaching a WAL, or every replayed operation is logged again.
    /// Returns the number of operations applied.
    pub fn replay_wal(&mut self, wal: &mut wow_storage::wal::Wal) -> RelResult<u64> {
        let records: Vec<LogRecord> = wal.read_all()?.into_iter().map(|(_, r)| r).collect();
        let report = self.apply_committed(&records)?;
        Ok(report.replayed_ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::types::DataType;

    fn db_with_emp() -> Database {
        let mut db = Database::in_memory();
        db.create_table(
            "emp",
            Schema::new(vec![
                Column::not_null("name", DataType::Text),
                Column::new("dept", DataType::Text),
                Column::new("salary", DataType::Int),
            ]),
            &["name"],
        )
        .unwrap();
        db
    }

    fn row(name: &str, dept: &str, salary: i64) -> Vec<Value> {
        vec![Value::text(name), Value::text(dept), Value::Int(salary)]
    }

    #[test]
    fn insert_and_read_back() {
        let mut db = db_with_emp();
        let rid = db.insert("emp", row("alice", "toy", 100)).unwrap();
        let info = db.catalog().table("emp").unwrap().clone();
        let t = db.get_row(info.id, rid).unwrap().unwrap();
        assert_eq!(t.values[0], Value::text("alice"));
        assert_eq!(db.row_count(info.id), 1);
    }

    #[test]
    fn pk_uniqueness_enforced() {
        let mut db = db_with_emp();
        db.insert("emp", row("alice", "toy", 100)).unwrap();
        let err = db.insert("emp", row("alice", "shoe", 90)).unwrap_err();
        assert!(matches!(err, RelError::UniqueViolation(_)));
        // Failed insert left nothing behind.
        let info = db.catalog().table("emp").unwrap().clone();
        assert_eq!(db.row_count(info.id), 1);
        assert_eq!(db.scan_table_raw(info.id).unwrap().len(), 1);
    }

    #[test]
    fn update_maintains_indexes() {
        let mut db = db_with_emp();
        db.create_index("by_dept", "emp", "dept", false).unwrap();
        let rid = db.insert("emp", row("alice", "toy", 100)).unwrap();
        db.insert("emp", row("bob", "toy", 90)).unwrap();
        assert_eq!(
            db.index_lookup("by_dept", &[Value::text("toy")])
                .unwrap()
                .len(),
            2
        );
        assert!(db
            .update_rid("emp", rid, row("alice", "shoe", 110))
            .unwrap());
        assert_eq!(
            db.index_lookup("by_dept", &[Value::text("toy")])
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            db.index_lookup("by_dept", &[Value::text("shoe")]).unwrap(),
            vec![rid]
        );
        // PK index follows the rename too.
        assert_eq!(
            db.index_lookup("pk_emp", &[Value::text("alice")]).unwrap(),
            vec![rid]
        );
    }

    #[test]
    fn update_to_conflicting_key_is_rejected() {
        let mut db = db_with_emp();
        db.insert("emp", row("alice", "toy", 100)).unwrap();
        let rid_bob = db.insert("emp", row("bob", "toy", 90)).unwrap();
        let err = db
            .update_rid("emp", rid_bob, row("alice", "toy", 90))
            .unwrap_err();
        assert!(matches!(err, RelError::UniqueViolation(_)));
        // Updating a row to its own key is fine.
        assert!(db
            .update_rid("emp", rid_bob, row("bob", "toy", 95))
            .unwrap());
    }

    #[test]
    fn delete_removes_row_and_index_entries() {
        let mut db = db_with_emp();
        let rid = db.insert("emp", row("alice", "toy", 100)).unwrap();
        assert!(db.delete_rid("emp", rid).unwrap());
        assert!(!db.delete_rid("emp", rid).unwrap());
        assert!(db
            .index_lookup("pk_emp", &[Value::text("alice")])
            .unwrap()
            .is_empty());
        let info = db.catalog().table("emp").unwrap().clone();
        assert_eq!(db.row_count(info.id), 0);
        // Key becomes insertable again.
        db.insert("emp", row("alice", "toy", 50)).unwrap();
    }

    #[test]
    fn abort_rolls_back_everything() {
        let mut db = db_with_emp();
        let keep = db.insert("emp", row("keep", "toy", 10)).unwrap();
        db.begin().unwrap();
        let rid = db.insert("emp", row("alice", "toy", 100)).unwrap();
        db.update_rid("emp", keep, row("keep", "shoe", 20)).unwrap();
        db.delete_rid("emp", keep).unwrap();
        db.abort().unwrap();
        // Insert rolled back.
        assert!(db
            .index_lookup("pk_emp", &[Value::text("alice")])
            .unwrap()
            .is_empty());
        let info = db.catalog().table("emp").unwrap().clone();
        assert!(db.get_row(info.id, rid).unwrap().is_none());
        // Delete + update rolled back: original row intact (possibly at a
        // new rid after delete-undo).
        let rows = db.scan_table_raw(info.id).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.values, row("keep", "toy", 10));
        assert_eq!(db.row_count(info.id), 1);
        // PK index points at the surviving row.
        assert_eq!(
            db.index_lookup("pk_emp", &[Value::text("keep")])
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn commit_keeps_changes() {
        let mut db = db_with_emp();
        db.begin().unwrap();
        db.insert("emp", row("alice", "toy", 100)).unwrap();
        db.commit().unwrap();
        let info = db.catalog().table("emp").unwrap().clone();
        assert_eq!(db.row_count(info.id), 1);
    }

    #[test]
    fn wal_replay_reconstructs_committed_state() {
        let mut db = db_with_emp();
        db.attach_wal(wow_storage::wal::Wal::in_memory());
        let a = db.insert("emp", row("alice", "toy", 100)).unwrap();
        db.insert("emp", row("bob", "shoe", 90)).unwrap();
        db.update_rid("emp", a, row("alice", "toy", 120)).unwrap();
        // An uncommitted transaction that must NOT survive.
        db.begin().unwrap();
        db.insert("emp", row("ghost", "toy", 1)).unwrap();
        let mut wal = db.take_wal().unwrap(); // "crash" without commit

        let mut fresh = db_with_emp();
        let applied = fresh.replay_wal(&mut wal).unwrap();
        assert_eq!(applied, 3);
        let info = fresh.catalog().table("emp").unwrap().clone();
        let mut rows: Vec<Vec<Value>> = fresh
            .scan_table_raw(info.id)
            .unwrap()
            .into_iter()
            .map(|(_, t)| t.values)
            .collect();
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], row("alice", "toy", 120));
        assert_eq!(rows[1], row("bob", "shoe", 90));
    }

    #[test]
    fn validation_failures_leave_no_trace() {
        let mut db = db_with_emp();
        assert!(db
            .insert("emp", vec![Value::Null, Value::Null, Value::Null])
            .is_err());
        assert!(db
            .insert("emp", vec![Value::Int(1), Value::Null, Value::Null])
            .is_err());
        let info = db.catalog().table("emp").unwrap().clone();
        assert_eq!(db.row_count(info.id), 0);
    }

    #[test]
    fn update_missing_rid_is_false() {
        let mut db = db_with_emp();
        let rid = db.insert("emp", row("a", "t", 1)).unwrap();
        db.delete_rid("emp", rid).unwrap();
        assert!(!db.update_rid("emp", rid, row("a", "t", 2)).unwrap());
    }
}
