//! Integration test reproducing the paper's **Table II** end to end:
//! the exact reconciliation trace, driven through the public umbrella
//! API (world builder → GTM → storage engine).

use preserial::gtm::{CommitResult, Gtm, GtmConfig};
use pstm_obs::frame::checksum;
use pstm_types::{ExecOutcome, ScalarOp, Timestamp, TxnId, Value};
use pstm_workload::counter_world;

fn val(out: ExecOutcome) -> Value {
    match out {
        ExecOutcome::Completed(v) => v,
        other => panic!("expected Completed, got {other:?}"),
    }
}

#[test]
fn table_two_full_trace() {
    // X_permanent = 100.
    let world = counter_world(1, 100).unwrap();
    let x = world.resources[0];
    let b = world.bindings.resolve(x).unwrap();
    let mut gtm = Gtm::new(world.db.clone(), world.bindings.clone(), GtmConfig::default());
    let (a, bt) = (TxnId(1), TxnId(2));
    let t0 = Timestamp::ZERO;

    // begin A; A: read X; X = X+1; write X   (A_temp: 100 → 101)
    gtm.begin(a, t0).unwrap();
    let a1 = val(gtm.execute(a, x, ScalarOp::Add(Value::Int(1)), t0).unwrap().0);
    assert_eq!(a1, Value::Int(101));

    // begin B; B: read X; X = X+2; write X   (B_temp: 100 → 102)
    gtm.begin(bt, t0).unwrap();
    let b1 = val(gtm.execute(bt, x, ScalarOp::Add(Value::Int(2)), t0).unwrap().0);
    assert_eq!(b1, Value::Int(102));

    // A: X = X+3; write X                    (A_temp: 101 → 104)
    let a2 = val(gtm.execute(a, x, ScalarOp::Add(Value::Int(3)), t0).unwrap().0);
    assert_eq!(a2, Value::Int(104));

    // X_permanent is untouched while both work on virtual copies.
    assert_eq!(world.db.get_col(b.table, b.row, b.column).unwrap(), Value::Int(100));

    // A requests commit → X_new^A = A_temp + X_permanent − X_read
    //                            = 104 + 100 − 100 = 104.
    let (ra, _) = gtm.commit(a, Timestamp::from_secs_f64(1.0)).unwrap();
    assert_eq!(ra, CommitResult::Committed);
    assert_eq!(world.db.get_col(b.table, b.row, b.column).unwrap(), Value::Int(104));

    // B requests commit → X_new^B = 102 + 104 − 100 = 106.
    let (rb, _) = gtm.commit(bt, Timestamp::from_secs_f64(2.0)).unwrap();
    assert_eq!(rb, CommitResult::Committed);
    assert_eq!(world.db.get_col(b.table, b.row, b.column).unwrap(), Value::Int(106));

    // The trace is final-state equivalent to the serial order A; B.
    gtm.verify_serializable().unwrap();
    // Two commits, A's id then B's: the digest of the other order differs.
    let digest =
        |first: TxnId, second: TxnId| checksum(&[first.0, second.0].map(u64::to_le_bytes).concat());
    assert_eq!(gtm.history().commit_order(), (2, digest(a, bt)));
    assert_ne!(digest(a, bt), digest(bt, a));
}

#[test]
fn table_two_reversed_commit_order_same_final_state() {
    // Commutativity: committing B before A still lands on 106.
    let world = counter_world(1, 100).unwrap();
    let x = world.resources[0];
    let b = world.bindings.resolve(x).unwrap();
    let mut gtm = Gtm::new(world.db.clone(), world.bindings.clone(), GtmConfig::default());
    let (a, bt) = (TxnId(1), TxnId(2));
    let t0 = Timestamp::ZERO;
    gtm.begin(a, t0).unwrap();
    gtm.begin(bt, t0).unwrap();
    gtm.execute(a, x, ScalarOp::Add(Value::Int(1)), t0).unwrap();
    gtm.execute(bt, x, ScalarOp::Add(Value::Int(2)), t0).unwrap();
    gtm.execute(a, x, ScalarOp::Add(Value::Int(3)), t0).unwrap();

    gtm.commit(bt, Timestamp::from_secs_f64(1.0)).unwrap();
    assert_eq!(world.db.get_col(b.table, b.row, b.column).unwrap(), Value::Int(102));
    gtm.commit(a, Timestamp::from_secs_f64(2.0)).unwrap();
    assert_eq!(world.db.get_col(b.table, b.row, b.column).unwrap(), Value::Int(106));
    gtm.verify_serializable().unwrap();
}
