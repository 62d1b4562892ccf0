//! Round-trip persistence of the engine through the public API.

use pstm_storage::{ColumnDef, Constraint, Database, Row, TableSchema};
use pstm_types::{TxnId, Value, ValueKind};

fn tmpfile(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pstm-persist-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn build() -> (Database, pstm_storage::TableId, Vec<pstm_storage::RowId>) {
    let db = Database::new();
    let schema = TableSchema::new(
        "Hotel",
        vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("rooms", ValueKind::Int)],
    )
    .unwrap();
    let t = db.create_table(schema, vec![Constraint::non_negative("rooms>=0", 1)]).unwrap();
    let boot = TxnId(1);
    db.begin(boot).unwrap();
    let rows: Vec<_> = (0..200)
        .map(|i| db.insert(boot, t, Row::new(vec![Value::Int(i), Value::Int(50 + i)])).unwrap())
        .collect();
    db.commit(boot).unwrap();
    (db, t, rows)
}

#[test]
fn save_and_open_round_trip() {
    let (db, t, rows) = build();
    let path = tmpfile("roundtrip.pstm");
    db.save_to(&path).unwrap();

    let reopened = Database::open_from(&path).unwrap();
    let t2 = reopened.table_id("Hotel").unwrap();
    assert_eq!(t2, t);
    assert_eq!(reopened.row_count(t2).unwrap(), 200);
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(reopened.get_col(t2, *r, 1).unwrap(), Value::Int(50 + i as i64));
    }
    // Indexes were rebuilt.
    assert_eq!(reopened.lookup_eq(t2, 0, &Value::Int(7)).unwrap(), vec![rows[7]]);
    // Constraints still enforced.
    let w = TxnId(2);
    reopened.begin(w).unwrap();
    assert!(reopened.update(w, t2, rows[0], 1, Value::Int(-1)).is_err());
    reopened.update(w, t2, rows[0], 1, Value::Int(0)).unwrap();
    reopened.commit(w).unwrap();
}

#[test]
fn save_requires_quiescence() {
    let (db, t, rows) = build();
    let w = TxnId(5);
    db.begin(w).unwrap();
    db.update(w, t, rows[0], 1, Value::Int(1)).unwrap();
    let path = tmpfile("busy.pstm");
    assert!(db.save_to(&path).is_err(), "active txn must block the save");
    db.commit(w).unwrap();
    db.save_to(&path).unwrap();
}

#[test]
fn corrupted_file_rejected() {
    let (db, _, _) = build();
    let path = tmpfile("corrupt.pstm");
    db.save_to(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert!(Database::open_from(&path).is_err());
}

#[test]
fn missing_file_is_io_error() {
    let Err(err) = Database::open_from(tmpfile("does-not-exist.pstm")) else {
        panic!("opening a missing file must fail");
    };
    assert!(matches!(err, pstm_types::PstmError::Io(_)));
}

#[test]
fn save_open_save_again() {
    let (db, t, rows) = build();
    let path = tmpfile("cycle.pstm");
    db.save_to(&path).unwrap();
    let db2 = Database::open_from(&path).unwrap();
    let w = TxnId(9);
    db2.begin(w).unwrap();
    db2.update(w, t, rows[3], 1, Value::Int(999)).unwrap();
    db2.commit(w).unwrap();
    db2.save_to(&path).unwrap();
    let db3 = Database::open_from(&path).unwrap();
    assert_eq!(db3.get_col(t, rows[3], 1).unwrap(), Value::Int(999));
}

/// Regression (review finding): an *uncommitted* delete must not release
/// its row's space — another transaction filling the page would otherwise
/// make the abort's undo impossible.
#[test]
fn uncommitted_delete_space_is_not_stolen() {
    let db = Database::new();
    let schema = TableSchema::new(
        "Blob",
        vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("body", ValueKind::Text)],
    )
    .unwrap();
    let t = db.create_table(schema, vec![]).unwrap();
    let boot = TxnId(1);
    db.begin(boot).unwrap();
    // Fill the first page tightly with ~200-byte rows.
    let big = |i: i64| Row::new(vec![Value::Int(i), Value::Text("x".repeat(180))]);
    let mut rows = Vec::new();
    for i in 0..19 {
        rows.push(db.insert(boot, t, big(i)).unwrap());
    }
    db.commit(boot).unwrap();
    let victim = rows[4];

    // T2 deletes a row (uncommitted), T3 storms the table with inserts
    // that would previously reuse the freed space.
    let t2 = TxnId(2);
    db.begin(t2).unwrap();
    db.delete(t2, t, victim).unwrap();
    assert!(db.get(t, victim).is_err(), "deleted row invisible while pending");

    let t3 = TxnId(3);
    db.begin(t3).unwrap();
    for i in 100..160 {
        db.insert(t3, t, big(i)).unwrap();
    }
    db.commit(t3).unwrap();

    // T2 aborts: its delete must be fully undone.
    db.abort(t2).unwrap();
    let restored = db.get(t, victim).unwrap();
    assert_eq!(restored.get(0), Some(&Value::Int(4)));
    assert_eq!(db.row_count(t).unwrap(), 19 + 60);
}

/// The committed-delete path does reclaim space.
#[test]
fn committed_delete_frees_space_for_reuse() {
    let db = Database::new();
    let schema = TableSchema::new(
        "Blob2",
        vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("body", ValueKind::Text)],
    )
    .unwrap();
    let t = db.create_table(schema, vec![]).unwrap();
    let boot = TxnId(1);
    db.begin(boot).unwrap();
    let big = |i: i64| Row::new(vec![Value::Int(i), Value::Text("y".repeat(180))]);
    let mut rows = Vec::new();
    for i in 0..500 {
        rows.push(db.insert(boot, t, big(i)).unwrap());
    }
    db.commit(boot).unwrap();
    let pages_before = {
        // Delete everything (committed), reinsert: page count must not grow.
        let t2 = TxnId(2);
        db.begin(t2).unwrap();
        for r in &rows {
            db.delete(t2, t, *r).unwrap();
        }
        db.commit(t2).unwrap();
        let t3 = TxnId(3);
        db.begin(t3).unwrap();
        for i in 0..500 {
            db.insert(t3, t, big(i)).unwrap();
        }
        db.commit(t3).unwrap();
        db.row_count(t).unwrap()
    };
    assert_eq!(pages_before, 500);
}

/// DDL after the last checkpoint (or with no checkpoint at all) survives
/// a crash: CreateTable is WAL-logged and replayed.
#[test]
fn ddl_without_checkpoint_survives_crash() {
    let db = Database::new();
    let schema = TableSchema::new(
        "LateTable",
        vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("v", ValueKind::Int)],
    )
    .unwrap();
    let t = db.create_table(schema, vec![Constraint::non_negative("v>=0", 1)]).unwrap();
    let w = TxnId(1);
    db.begin(w).unwrap();
    let rid = db.insert(w, t, Row::new(vec![Value::Int(7), Value::Int(3)])).unwrap();
    db.commit(w).unwrap();

    // Crash with NO checkpoint ever taken: catalog + data must rebuild
    // from the WAL alone.
    db.simulate_crash_and_recover().unwrap();
    assert_eq!(db.table_id("LateTable").unwrap(), t);
    assert_eq!(db.get_col(t, rid, 1).unwrap(), Value::Int(3));
    assert_eq!(db.lookup_eq(t, 0, &Value::Int(7)).unwrap(), vec![rid]);

    // Constraints replay too.
    let w2 = TxnId(2);
    db.begin(w2).unwrap();
    assert!(db.update(w2, t, rid, 1, Value::Int(-1)).is_err());
}

/// Checkpoint, then more DDL, then crash: both the checkpointed table and
/// the post-checkpoint table recover.
#[test]
fn post_checkpoint_ddl_recovers() {
    let db = Database::new();
    let s1 = TableSchema::new("Early", vec![ColumnDef::new("id", ValueKind::Int)]).unwrap();
    let t1 = db.create_table(s1, vec![]).unwrap();
    db.checkpoint().unwrap();

    let s2 = TableSchema::new("Late", vec![ColumnDef::new("id", ValueKind::Int)]).unwrap();
    let t2 = db.create_table(s2, vec![]).unwrap();
    let w = TxnId(1);
    db.begin(w).unwrap();
    let r1 = db.insert(w, t1, Row::new(vec![Value::Int(1)])).unwrap();
    let r2 = db.insert(w, t2, Row::new(vec![Value::Int(2)])).unwrap();
    db.commit(w).unwrap();

    db.simulate_crash_and_recover().unwrap();
    assert_eq!(db.get_col(t1, r1, 0).unwrap(), Value::Int(1));
    assert_eq!(db.get_col(t2, r2, 0).unwrap(), Value::Int(2));
    assert_eq!(db.table_id("Late").unwrap(), t2);
}
