//! Crash recovery: redo-only replay of committed work over the last
//! quiescent checkpoint.
//!
//! What is replayed is the image plus the log since it, and the engine
//! checkpoints itself once that log holds an image's worth of bytes (see
//! [`crate::engine`]): recovery reads at most about two images' worth,
//! whatever the uptime. Only a long interactive transaction, which
//! postpones the checkpoint while it runs, lets the log grow past that.
//!
//! The engine guarantees two things that make redo-only recovery correct:
//!
//! 1. checkpoints are quiescent — the image contains only committed data;
//! 2. runtime aborts undo their effects *before* the Abort record is
//!    written, so an aborted transaction's effects never need replaying.
//!
//! Recovery therefore: (analysis) scans the WAL suffix for `Commit`
//! records to build the winner set; (redo) replays, in log order, the
//! `Insert`/`Update`/`Delete` records of winners onto the checkpoint
//! image. Records of losers — transactions without a `Commit` — are
//! skipped entirely, which both rolls back in-flight transactions lost in
//! the crash and is consistent with runtime aborts (whose undo happened
//! before their records would matter).

use crate::catalog::Catalog;
use crate::engine::CheckpointImage;
use crate::heap::HeapFile;
use crate::wal::{LogRecord, Wal};
use pstm_types::{PstmError, PstmResult, TxnId};
use std::collections::HashSet;

/// What a recovery pass saw — surfaced as a `Recovered` trace event so
/// chaos harnesses can account for redo work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RecoveryStats {
    /// Committed transactions whose effects were replayed.
    pub(crate) winners: u64,
    /// Intact log records scanned.
    pub(crate) records: u64,
}

/// Rebuilds catalog + heaps from a checkpoint image and the WAL.
pub(crate) fn recover(
    checkpoint: &Option<CheckpointImage>,
    wal: &Wal,
) -> PstmResult<(Catalog, Vec<HeapFile>, RecoveryStats)> {
    // Start from the checkpoint image, or empty state.
    let (mut catalog, mut heaps): (Catalog, Vec<HeapFile>) = match checkpoint {
        Some(cp) => {
            let mut catalog: Catalog = serde_json::from_slice(&cp.catalog_json)
                .map_err(|e| PstmError::WalCorrupt(format!("checkpoint catalog: {e}")))?;
            catalog.rebuild_lookup();
            let heaps = cp
                .heaps
                .iter()
                .map(|img| HeapFile::from_bytes(img))
                .collect::<PstmResult<Vec<_>>>()?;
            (catalog, heaps)
        }
        None => (Catalog::new(), Vec::new()),
    };

    let records = wal.records()?;

    // Analysis: find winners.
    let winners: HashSet<TxnId> = records
        .iter()
        .filter_map(|(_, r)| match r {
            LogRecord::Commit { txn } => Some(*txn),
            _ => None,
        })
        .collect();

    // Redo phase, in log order. DDL records are autocommitted and replay
    // unconditionally; DML replays only for winners.
    for (_, rec) in &records {
        if let LogRecord::CreateTable { schema, constraints } = rec {
            catalog.create_table(schema.clone(), constraints.clone())?;
            heaps.push(HeapFile::new());
            continue;
        }
        let Some(txn) = rec.txn() else { continue };
        if !winners.contains(&txn) {
            continue;
        }
        match rec {
            LogRecord::Insert { table, row_id, row, .. } => {
                while heaps.len() <= table.0 as usize {
                    heaps.push(HeapFile::new());
                }
                heaps[table.0 as usize].materialize_at(*row_id, row)?;
            }
            LogRecord::Update { table, row_id, column, after, .. } => {
                let heap = heaps
                    .get_mut(table.0 as usize)
                    .ok_or_else(|| PstmError::WalCorrupt(format!("redo into missing {table}")))?;
                let mut row = heap.get(*row_id)?;
                row.set(*column, after.clone());
                heap.update(*row_id, &row)?;
            }
            LogRecord::Delete { table, row_id, .. } => {
                let heap = heaps
                    .get_mut(table.0 as usize)
                    .ok_or_else(|| PstmError::WalCorrupt(format!("redo into missing {table}")))?;
                heap.delete(*row_id)?;
            }
            _ => {}
        }
    }

    // DDL is WAL-logged, so catalog and heaps must line up exactly after
    // replay; a mismatch means a corrupt image.
    while heaps.len() < catalog.table_count() {
        heaps.push(HeapFile::new());
    }
    if heaps.len() > catalog.table_count() {
        return Err(PstmError::WalCorrupt(format!(
            "recovered {} heaps for {} catalogued tables",
            heaps.len(),
            catalog.table_count()
        )));
    }
    catalog.rebuild_lookup();
    let stats = RecoveryStats { winners: winners.len() as u64, records: records.len() as u64 };
    Ok((catalog, heaps, stats))
}

#[cfg(test)]
mod tests {
    use crate::constraint::Constraint;
    use crate::engine::Database;
    use crate::row::Row;
    use crate::schema::{ColumnDef, TableSchema};
    use pstm_types::{TxnId, Value, ValueKind};

    fn setup() -> (Database, crate::catalog::TableId) {
        let db = Database::new();
        let schema = TableSchema::new(
            "Museum",
            vec![
                ColumnDef::new("id", ValueKind::Int),
                ColumnDef::new("free_tickets", ValueKind::Int),
            ],
        )
        .unwrap();
        let t = db.create_table(schema, vec![Constraint::non_negative("ft", 1)]).unwrap();
        db.checkpoint().unwrap(); // capture DDL so recovery sees the catalog
        (db, t)
    }

    fn museum(id: i64, free: i64) -> Row {
        Row::new(vec![Value::Int(id), Value::Int(free)])
    }

    #[test]
    fn committed_work_survives_crash() {
        let (db, t) = setup();
        let txn = TxnId(1);
        db.begin(txn).unwrap();
        let rid = db.insert(txn, t, museum(1, 50)).unwrap();
        db.update(txn, t, rid, 1, Value::Int(49)).unwrap();
        db.commit(txn).unwrap();

        db.simulate_crash_and_recover().unwrap();
        assert_eq!(db.get_col(t, rid, 1).unwrap(), Value::Int(49));
        assert_eq!(db.lookup_eq(t, 0, &Value::Int(1)).unwrap(), vec![rid]);
    }

    #[test]
    fn uncommitted_work_vanishes_on_crash() {
        let (db, t) = setup();
        let committed = TxnId(1);
        db.begin(committed).unwrap();
        let keep = db.insert(committed, t, museum(1, 10)).unwrap();
        db.commit(committed).unwrap();

        let loser = TxnId(2);
        db.begin(loser).unwrap();
        db.insert(loser, t, museum(2, 20)).unwrap();
        db.update(loser, t, keep, 1, Value::Int(0)).unwrap();
        // No commit — crash now.
        db.simulate_crash_and_recover().unwrap();
        assert_eq!(db.row_count(t).unwrap(), 1);
        assert_eq!(db.get_col(t, keep, 1).unwrap(), Value::Int(10));
    }

    #[test]
    fn runtime_aborted_work_stays_undone_after_crash() {
        let (db, t) = setup();
        let txn = TxnId(1);
        db.begin(txn).unwrap();
        let rid = db.insert(txn, t, museum(1, 5)).unwrap();
        db.commit(txn).unwrap();

        let ab = TxnId(2);
        db.begin(ab).unwrap();
        db.update(ab, t, rid, 1, Value::Int(1)).unwrap();
        db.abort(ab).unwrap();
        assert_eq!(db.get_col(t, rid, 1).unwrap(), Value::Int(5));

        db.simulate_crash_and_recover().unwrap();
        assert_eq!(db.get_col(t, rid, 1).unwrap(), Value::Int(5));
    }

    #[test]
    fn torn_tail_drops_only_the_unfinished_transaction() {
        let (db, t) = setup();
        let t1 = TxnId(1);
        db.begin(t1).unwrap();
        let rid = db.insert(t1, t, museum(1, 7)).unwrap();
        db.commit(t1).unwrap();

        let t2 = TxnId(2);
        db.begin(t2).unwrap();
        db.update(t2, t, rid, 1, Value::Int(6)).unwrap();
        db.commit(t2).unwrap();

        // Tear enough bytes to destroy t2's Commit record: t2 becomes a
        // loser and its update must not survive.
        db.crash_with_torn_tail(10).unwrap();
        assert_eq!(db.get_col(t, rid, 1).unwrap(), Value::Int(7));
    }

    #[test]
    fn checkpoint_then_more_work_then_crash() {
        let (db, t) = setup();
        let t1 = TxnId(1);
        db.begin(t1).unwrap();
        let rid = db.insert(t1, t, museum(1, 100)).unwrap();
        db.commit(t1).unwrap();
        db.checkpoint().unwrap();

        let t2 = TxnId(2);
        db.begin(t2).unwrap();
        db.update(t2, t, rid, 1, Value::Int(99)).unwrap();
        db.commit(t2).unwrap();

        db.simulate_crash_and_recover().unwrap();
        assert_eq!(db.get_col(t, rid, 1).unwrap(), Value::Int(99));

        // Recovery is repeatable (idempotent from the same image+log).
        db.simulate_crash_and_recover().unwrap();
        assert_eq!(db.get_col(t, rid, 1).unwrap(), Value::Int(99));
    }

    #[test]
    fn interleaved_winners_and_losers() {
        let (db, t) = setup();
        let a = TxnId(1);
        let b = TxnId(2);
        db.begin(a).unwrap();
        db.begin(b).unwrap();
        let ra = db.insert(a, t, museum(1, 1)).unwrap();
        let rb = db.insert(b, t, museum(2, 2)).unwrap();
        db.commit(a).unwrap();
        // b never commits.
        db.simulate_crash_and_recover().unwrap();
        assert!(db.get(t, ra).is_ok());
        assert!(db.get(t, rb).is_err());
    }

    /// Regression for the double-replay bug: after a torn-tail crash the
    /// torn frame's bytes used to linger in the log, so appends made
    /// *after* recovery landed behind the garbage — a second recovery
    /// stopped at the tear (or reported corruption) and silently lost the
    /// post-recovery committed work. `crash_with_torn_tail` now trims the
    /// tear physically, making recovery idempotent under double replay.
    #[test]
    fn recovery_is_idempotent_after_torn_tail_plus_new_work() {
        let (db, t) = setup();
        let t1 = TxnId(1);
        db.begin(t1).unwrap();
        let rid = db.insert(t1, t, museum(1, 7)).unwrap();
        db.commit(t1).unwrap();

        let t2 = TxnId(2);
        db.begin(t2).unwrap();
        db.update(t2, t, rid, 1, Value::Int(6)).unwrap();
        db.commit(t2).unwrap();

        // First crash tears t2's Commit record: t2 is rolled back.
        db.crash_with_torn_tail(10).unwrap();
        assert_eq!(db.get_col(t, rid, 1).unwrap(), Value::Int(7));

        // New committed work after the first recovery...
        let t3 = TxnId(3);
        db.begin(t3).unwrap();
        db.update(t3, t, rid, 1, Value::Int(5)).unwrap();
        db.commit(t3).unwrap();

        // ...must survive a second crash+recovery (pre-fix this lost T3
        // or failed with WalCorrupt).
        db.simulate_crash_and_recover().unwrap();
        assert_eq!(db.get_col(t, rid, 1).unwrap(), Value::Int(5));

        // And recovering once more changes nothing: recover twice ==
        // recover once.
        db.simulate_crash_and_recover().unwrap();
        assert_eq!(db.get_col(t, rid, 1).unwrap(), Value::Int(5));
        assert_eq!(db.row_count(t).unwrap(), 1);
    }

    /// Double replay from the same image+log is a no-op: the full table
    /// contents are byte-identical between the first and second recovery.
    #[test]
    fn double_replay_equals_single_replay() {
        let (db, t) = setup();
        for i in 0..5i64 {
            let txn = TxnId(10 + i as u64);
            db.begin(txn).unwrap();
            db.insert(txn, t, museum(i, 10 * i)).unwrap();
            if i % 2 == 0 {
                db.commit(txn).unwrap();
            } else {
                db.abort(txn).unwrap();
            }
        }
        db.simulate_crash_and_recover().unwrap();
        let once: Vec<_> = db.scan(t).unwrap();
        db.simulate_crash_and_recover().unwrap();
        let twice: Vec<_> = db.scan(t).unwrap();
        assert_eq!(once, twice);
        assert_eq!(once.len(), 3, "only the committed inserts survive");
    }

    #[test]
    fn engine_usable_after_recovery() {
        let (db, t) = setup();
        let t1 = TxnId(1);
        db.begin(t1).unwrap();
        let rid = db.insert(t1, t, museum(1, 3)).unwrap();
        db.commit(t1).unwrap();
        db.simulate_crash_and_recover().unwrap();

        let t2 = TxnId(2);
        db.begin(t2).unwrap();
        db.update(t2, t, rid, 1, Value::Int(2)).unwrap();
        db.commit(t2).unwrap();
        assert_eq!(db.get_col(t, rid, 1).unwrap(), Value::Int(2));
    }
}
