//! The LDBS substrate on its own: WAL-backed durability and crash
//! recovery underneath the Secure System Transactions.
//!
//! The paper delegates consistency and durability to the local DBMS; this
//! example shows that delegation is real in this reproduction — committed
//! SSTs survive a crash, in-flight work disappears, CHECK constraints
//! hold throughout.
//!
//! Run with: `cargo run --example crash_recovery`

use preserial::storage::{ColumnDef, Constraint, Database, Row, TableSchema, WriteOp, WriteSet};
use pstm_types::{TxnId, Value, ValueKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::new();
    let schema = TableSchema::new(
        "Flight",
        vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("free_tickets", ValueKind::Int)],
    )?;
    let table = db.create_table(schema, vec![Constraint::non_negative("free_tickets >= 0", 1)])?;

    // Load some flights and checkpoint (DDL + data become the recovery
    // baseline).
    let boot = TxnId(1);
    db.begin(boot)?;
    let mut rows = Vec::new();
    for i in 0..5 {
        rows.push(db.insert(boot, table, Row::new(vec![Value::Int(i), Value::Int(100)]))?);
    }
    db.commit(boot)?;
    db.checkpoint()?;
    println!("5 flights loaded and checkpointed");

    // An SST-style atomic write set: two bookings in one short txn.
    let sst = WriteSet::new()
        .with(WriteOp::Update { table, row_id: rows[0], column: 1, value: Value::Int(99) })
        .with(WriteOp::Update { table, row_id: rows[1], column: 1, value: Value::Int(99) });
    db.apply_write_set(TxnId(2), &sst)?;
    println!("SST #2 committed: flights 0 and 1 now at 99");

    // An in-flight transaction that will be lost in the crash.
    db.begin(TxnId(3))?;
    db.update(TxnId(3), table, rows[2], 1, Value::Int(0))?;
    println!("T3 updates flight 2 to 0 but does NOT commit");

    // A constraint-violating write set is rejected atomically.
    let bad = WriteSet::new()
        .with(WriteOp::Update { table, row_id: rows[3], column: 1, value: Value::Int(42) })
        .with(WriteOp::Update { table, row_id: rows[4], column: 1, value: Value::Int(-1) });
    let err = db.apply_write_set(TxnId(4), &bad).unwrap_err();
    println!("SST #4 rejected by CHECK: {err}");
    assert_eq!(db.get_col(table, rows[3], 1)?, Value::Int(100), "nothing applied");

    // Crash with a torn WAL tail, then recover.
    println!("\n-- simulated power loss (torn final WAL record) --\n");
    db.crash_with_torn_tail(3)?;

    for (i, r) in rows.iter().enumerate() {
        let v = db.get_col(table, *r, 1)?;
        println!("flight {i}: {v} free tickets");
    }
    assert_eq!(db.get_col(table, rows[0], 1)?, Value::Int(99), "committed SST survived");
    assert_eq!(db.get_col(table, rows[2], 1)?, Value::Int(100), "in-flight work rolled back");
    assert_eq!(db.get_col(table, rows[4], 1)?, Value::Int(100), "rejected SST left no trace");

    // The recovered heap still answers lookups by column value.
    let hit = db.lookup_eq(table, 0, &Value::Int(2))?;
    assert_eq!(hit, vec![rows[2]]);
    println!("\nlookup after recovery: flight id 2 -> {:?}", hit[0]);
    println!("recovery contract: committed work survives, losers vanish ✓");
    Ok(())
}
