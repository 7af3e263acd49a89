//! Crash recovery: replay the committed prefix of a WAL.
//!
//! The engine follows a **no-steal / redo-only** discipline at the logical
//! level: after a crash, the database state is reconstructed by replaying
//! every operation belonging to a *committed* transaction, in log order,
//! against a fresh store. Operations of unfinished or aborted transactions
//! are discarded. This is the simplest recovery protocol that yields
//! correct durability semantics and matches the checkpoint-and-replay
//! designs of the era.
//!
//! Replay is expressed as a visitor so the relational layer can rebuild its
//! own heap files and indexes without this crate knowing about tuples.

use crate::wal::{LogRecord, TxnId};
use std::collections::HashSet;

/// Summary of a recovery analysis pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transactions whose commit record was found.
    pub committed: Vec<TxnId>,
    /// Transactions that began but neither committed nor aborted (losers).
    pub in_flight: Vec<TxnId>,
    /// Transactions explicitly aborted.
    pub aborted: Vec<TxnId>,
    /// Number of data operations of committed transactions replayed. An
    /// update or delete whose target row is already gone replays as a
    /// no-op and is counted here too.
    pub replayed_ops: u64,
    /// Number of data operations skipped (loser/aborted transactions).
    pub skipped_ops: u64,
}

/// Analysis pass: classify every transaction in the log.
pub fn analyze(records: &[LogRecord]) -> RecoveryReport {
    let mut begun: Vec<TxnId> = Vec::new();
    let mut committed: HashSet<TxnId> = HashSet::new();
    let mut aborted: HashSet<TxnId> = HashSet::new();
    for rec in records {
        match rec {
            LogRecord::Begin { txn } => {
                if !begun.contains(txn) {
                    begun.push(*txn);
                }
            }
            LogRecord::Commit { txn } => {
                committed.insert(*txn);
            }
            LogRecord::Abort { txn } => {
                aborted.insert(*txn);
            }
            _ => {
                // Data records may appear without an explicit Begin (single-
                // statement transactions); treat first sight as begin.
                let txn = rec.txn();
                if !begun.contains(&txn) {
                    begun.push(txn);
                }
            }
        }
    }
    let mut report = RecoveryReport::default();
    for txn in begun {
        if committed.contains(&txn) {
            report.committed.push(txn);
        } else if aborted.contains(&txn) {
            report.aborted.push(txn);
        } else {
            report.in_flight.push(txn);
        }
    }
    report
}

/// Redo pass: invoke `apply` for every data operation of every committed
/// transaction, in log order. Returns the filled-in [`RecoveryReport`], or
/// the first error `apply` returns.
pub fn replay<E>(
    records: &[LogRecord],
    mut apply: impl FnMut(&LogRecord) -> Result<(), E>,
) -> Result<RecoveryReport, E> {
    let mut report = analyze(records);
    let committed: HashSet<TxnId> = report.committed.iter().copied().collect();
    for rec in records {
        match rec {
            LogRecord::Insert { txn, .. }
            | LogRecord::Update { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::Ddl { txn, .. } => {
                if committed.contains(txn) {
                    apply(rec)?;
                    report.replayed_ops += 1;
                } else {
                    report.skipped_ops += 1;
                }
            }
            _ => {}
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageResult;
    use crate::page::PageId;
    use crate::rid::Rid;
    use crate::wal::Wal;

    fn ins(txn: TxnId, n: u8) -> LogRecord {
        LogRecord::Insert {
            txn,
            table: 1,
            rid: Rid::new(PageId(n as u64), 0),
            bytes: vec![n],
        }
    }

    #[test]
    fn committed_ops_replay_in_order() {
        let log = vec![
            LogRecord::Begin { txn: 1 },
            ins(1, 10),
            LogRecord::Begin { txn: 2 },
            ins(2, 20),
            ins(1, 11),
            LogRecord::Commit { txn: 1 },
            ins(2, 21),
            // txn 2 never commits
        ];
        let mut applied = Vec::new();
        let report = replay(&log, |rec| {
            if let LogRecord::Insert { bytes, .. } = rec {
                applied.push(bytes[0]);
            }
            StorageResult::Ok(())
        })
        .unwrap();
        assert_eq!(applied, vec![10, 11]);
        assert_eq!(report.replayed_ops, 2);
        assert_eq!(report.skipped_ops, 2);
        assert_eq!(report.committed, vec![1]);
        assert_eq!(report.in_flight, vec![2]);
    }

    #[test]
    fn aborted_transactions_are_skipped() {
        let log = vec![
            LogRecord::Begin { txn: 5 },
            ins(5, 50),
            LogRecord::Abort { txn: 5 },
        ];
        let report = replay(&log, |_| -> StorageResult<()> {
            panic!("nothing should replay")
        })
        .unwrap();
        assert_eq!(report.aborted, vec![5]);
        assert_eq!(report.skipped_ops, 1);
    }

    #[test]
    fn implicit_begin_is_recognized() {
        // Single-statement transactions may skip the Begin record.
        let log = vec![ins(9, 1), LogRecord::Commit { txn: 9 }];
        let report = analyze(&log);
        assert_eq!(report.committed, vec![9]);
    }

    #[test]
    fn empty_log_recovers_to_empty() {
        let report = replay(&[], |_| StorageResult::Ok(())).unwrap();
        assert_eq!(report, RecoveryReport::default());
    }

    #[test]
    fn end_to_end_crash_simulation() {
        // Write interleaved txns, "crash" by truncating the log image, then
        // recover and confirm exactly the committed prefix survives.
        let mut wal = Wal::in_memory();
        wal.append(&LogRecord::Begin { txn: 1 }).unwrap();
        wal.append(&ins(1, 1)).unwrap();
        wal.append(&LogRecord::Commit { txn: 1 }).unwrap();
        wal.append(&LogRecord::Begin { txn: 2 }).unwrap();
        wal.append(&ins(2, 2)).unwrap();
        let cut = wal.raw().unwrap().len(); // crash before txn 2's commit
        wal.append(&LogRecord::Commit { txn: 2 }).unwrap();

        let truncated = &wal.raw().unwrap()[..cut];
        let records: Vec<LogRecord> = Wal::parse(truncated)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        let mut survived = Vec::new();
        replay(&records, |rec| {
            if let LogRecord::Insert { bytes, .. } = rec {
                survived.push(bytes[0]);
            }
            StorageResult::Ok(())
        })
        .unwrap();
        assert_eq!(survived, vec![1], "only txn 1 committed before the crash");
    }
}
