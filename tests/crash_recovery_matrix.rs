//! The crash-recovery matrix: the durability contract of
//! `examples/crash_recovery.rs`, promoted to assertions and extended with
//! fault-injected crash points from `pstm-faults`.
//!
//! Three failure windows, each with exact post-recovery state:
//!
//! * **crash before the WAL flush** — any append of the SST's frames
//!   (Begin, the Updates, even the Commit record itself) dies before
//!   reaching the log: the whole write set must vanish on recovery;
//! * **crash after the flush, before the apply is durable in memory** —
//!   the Commit record hit the log and the process died immediately
//!   after: recovery must replay the SST from the log, exactly once;
//! * **torn page write** — power fails mid-frame, leaving a prefix of the
//!   Commit record: the tear is trimmed and the SST is a loser.

use preserial::storage::{
    ColumnDef, Constraint, Database, Row, RowId, TableId, TableSchema, WriteOp, WriteSet,
};
use pstm_faults::{FaultInjector, FaultPlan};
use pstm_types::{PstmError, TxnId, Value, ValueKind};
use std::sync::Arc;

/// The example's world: a `Flight` table with a `free_tickets >= 0`
/// CHECK, five rows at 100 tickets, checkpointed so recovery always has a
/// baseline image.
fn flight_world() -> (Database, TableId, Vec<RowId>) {
    let db = Database::new();
    let schema = TableSchema::new(
        "Flight",
        vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("free_tickets", ValueKind::Int)],
    )
    .unwrap();
    let table =
        db.create_table(schema, vec![Constraint::non_negative("free_tickets >= 0", 1)]).unwrap();
    let boot = TxnId(1);
    db.begin(boot).unwrap();
    let mut rows = Vec::new();
    for i in 0..5 {
        rows.push(db.insert(boot, table, Row::new(vec![Value::Int(i), Value::Int(100)])).unwrap());
    }
    db.commit(boot).unwrap();
    db.checkpoint().unwrap();
    (db, table, rows)
}

/// The example's SST: two bookings (rows 0 and 1 to 99) in one short txn.
fn booking_sst(table: TableId, rows: &[RowId]) -> WriteSet {
    WriteSet::new()
        .with(WriteOp::Update { table, row_id: rows[0], column: 1, value: Value::Int(99) })
        .with(WriteOp::Update { table, row_id: rows[1], column: 1, value: Value::Int(99) })
}

fn assert_tickets(db: &Database, table: TableId, rows: &[RowId], expect: [i64; 5]) {
    for (i, (r, want)) in rows.iter().zip(expect).enumerate() {
        assert_eq!(db.get_col(table, *r, 1).unwrap(), Value::Int(want), "flight {i}");
    }
}

/// The promoted example, end to end: a committed SST, an in-flight
/// transaction, a CHECK-rejected SST, then power loss with a torn WAL
/// tail. Every println in the example becomes an exact assertion here.
#[test]
fn committed_sst_survives_while_in_flight_and_rejected_work_vanish() {
    let (db, table, rows) = flight_world();

    db.apply_write_set(TxnId(2), &booking_sst(table, &rows)).unwrap();

    // In-flight T3 books flight 2 down to 0 but never commits.
    db.begin(TxnId(3)).unwrap();
    db.update(TxnId(3), table, rows[2], 1, Value::Int(0)).unwrap();

    // A constraint-violating write set is rejected atomically.
    let bad = WriteSet::new()
        .with(WriteOp::Update { table, row_id: rows[3], column: 1, value: Value::Int(42) })
        .with(WriteOp::Update { table, row_id: rows[4], column: 1, value: Value::Int(-1) });
    db.apply_write_set(TxnId(4), &bad).unwrap_err();
    assert_eq!(db.get_col(table, rows[3], 1).unwrap(), Value::Int(100), "nothing applied");

    // Power loss with the last 3 WAL bytes torn off.
    db.crash_with_torn_tail(3).unwrap();

    assert_tickets(&db, table, &rows, [99, 99, 100, 100, 100]);
    // Lookups by id still answer from the recovered heap.
    for i in 0..5i64 {
        assert_eq!(
            db.lookup_eq(table, 0, &Value::Int(i)).unwrap(),
            vec![rows[i as usize]],
            "index lookup for flight id {i}"
        );
    }
    // The recovered engine accepts new work.
    let next = WriteSet::new().with(WriteOp::Update {
        table,
        row_id: rows[0],
        column: 1,
        value: Value::Int(98),
    });
    db.apply_write_set(TxnId(5), &next).unwrap();
    assert_tickets(&db, table, &rows, [98, 99, 100, 100, 100]);
}

/// Crash before the WAL flush. An all-Update SST frames its Begin,
/// Updates, and Commit contiguously and flushes them with *one* group
/// append, so a crash at that seam leaves no frame of the transaction in
/// the log — recovery must show the pristine baseline.
#[test]
fn crash_before_wal_flush_drops_the_entire_write_set() {
    let (db, table, rows) = flight_world();
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(1).crash_on_wal_append(1)));
    db.set_fault_hook(Arc::clone(&injector) as _);

    match db.apply_write_set(TxnId(2), &booking_sst(table, &rows)) {
        Err(PstmError::Crashed(site)) => assert_eq!(site, "wal-append"),
        other => panic!("expected the group append to crash, got {other:?}"),
    }
    db.simulate_crash_and_recover().unwrap();

    assert_tickets(&db, table, &rows, [100; 5]);
    assert_eq!(db.lookup_eq(table, 0, &Value::Int(0)).unwrap(), vec![rows[0]]);
    // The one-shot crash budget is spent; the retried SST goes through.
    db.apply_write_set(TxnId(3), &booking_sst(table, &rows)).unwrap();
    assert_tickets(&db, table, &rows, [99, 99, 100, 100, 100]);
}

/// Crash after the flush, before the apply is durable: T2's Commit record
/// reached the log, the process died on the very next append (T3's
/// Begin). The in-memory heap is discarded wholesale — recovery must
/// rebuild T2's effects from the log, exactly once, and T3 leaves no
/// trace because its Begin never became durable.
#[test]
fn crash_after_flush_before_apply_replays_the_sst_from_the_log() {
    let (db, table, rows) = flight_world();
    db.apply_write_set(TxnId(2), &booking_sst(table, &rows)).unwrap();

    let injector = Arc::new(FaultInjector::new(FaultPlan::new(9).crash_on_wal_append(1)));
    db.set_fault_hook(Arc::clone(&injector) as _);
    match db.begin(TxnId(3)) {
        Err(PstmError::Crashed(site)) => assert_eq!(site, "wal-append"),
        other => panic!("expected T3's Begin append to crash, got {other:?}"),
    }
    db.simulate_crash_and_recover().unwrap();

    // Applied exactly once: 99, not 100 (lost) and not 98 (doubled).
    assert_tickets(&db, table, &rows, [99, 99, 100, 100, 100]);
    // T3 is not merely rolled back — it never existed. A fresh T3 begins.
    db.clear_fault_hook();
    db.begin(TxnId(3)).unwrap();
    db.update(TxnId(3), table, rows[2], 1, Value::Int(50)).unwrap();
    db.commit(TxnId(3)).unwrap();
    assert_tickets(&db, table, &rows, [99, 99, 50, 100, 100]);
}

/// Torn page write: power fails mid-group, keeping only a `keep`-byte
/// prefix of the fused Begin/Updates/Commit flush. Wherever the tear
/// lands — inside the first frame, at a frame boundary, or one byte shy
/// of the end — the Commit record is never intact (the tail frame of a
/// torn group is always cut), so T2 is a loser: recovery trims the tear
/// and drops the transaction wholesale.
#[test]
fn torn_commit_record_makes_the_sst_a_loser() {
    for keep in [1u32, 9, 50, 120, u32::MAX] {
        let (db, table, rows) = flight_world();
        let injector =
            Arc::new(FaultInjector::new(FaultPlan::new(u64::from(keep)).torn_wal_append(1, keep)));
        db.set_fault_hook(Arc::clone(&injector) as _);

        match db.apply_write_set(TxnId(2), &booking_sst(table, &rows)) {
            Err(PstmError::Crashed(site)) => assert_eq!(site, "wal-append"),
            other => panic!("keep={keep}: expected a torn-write crash, got {other:?}"),
        }
        db.crash_with_torn_tail(0).unwrap();

        assert_tickets(&db, table, &rows, [100; 5]);
        // The trimmed log is append-clean again: new work lands intact
        // and survives a *second* crash cycle.
        db.apply_write_set(TxnId(3), &booking_sst(table, &rows)).unwrap();
        db.simulate_crash_and_recover().unwrap();
        assert_tickets(&db, table, &rows, [99, 99, 100, 100, 100]);
    }
}
