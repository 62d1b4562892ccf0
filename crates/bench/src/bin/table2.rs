//! Reproduces **Table II** — the reconciliation example: transactions A
//! (X += 1 then X += 3) and B (X += 2) share X = 100 concurrently; A
//! commits to 104, then B reconciles to 106.
//!
//! The trace is executed through the real GTM and printed in the paper's
//! column layout.

use pstm_core::gtm::{CommitResult, Gtm, GtmConfig};
use pstm_types::{ScalarOp, Timestamp, TxnId, Value};
use pstm_workload::counter_world;

fn main() {
    let world = counter_world(1, 100).expect("world");
    let x = world.resources[0];
    let binding = world.bindings.resolve(x).expect("binding");
    let tracer = pstm_bench::tracer_from_env("table2");
    world.db.set_tracer(tracer.clone());
    let mut gtm = Gtm::new(world.db.clone(), world.bindings.clone(), GtmConfig::default())
        .with_tracer(tracer.clone());
    let (a, b) = (TxnId(1), TxnId(2));
    let t = Timestamp::ZERO;

    pstm_bench::print_header(
        "Table II — reconciliation trace",
        &["step", "X_permanent", "A_temp", "B_temp"],
    );
    let perm =
        |gtm: &Gtm| gtm.database().get_col(binding.table, binding.row, binding.column).unwrap();

    gtm.begin(a, t).unwrap();
    println!("begin A\t\t{}\t-\t-", perm(&gtm));

    let (o, _) = gtm.execute(a, x, ScalarOp::Add(Value::Int(1)), t).unwrap();
    let a_temp = match o {
        pstm_types::ExecOutcome::Completed(v) => v,
        other => panic!("unexpected {other:?}"),
    };
    println!("A: X = X+1\t{}\t{}\t-", perm(&gtm), a_temp);

    gtm.begin(b, t).unwrap();
    let (o, _) = gtm.execute(b, x, ScalarOp::Add(Value::Int(2)), t).unwrap();
    let b_temp = match o {
        pstm_types::ExecOutcome::Completed(v) => v,
        other => panic!("unexpected {other:?}"),
    };
    println!("B: X = X+2\t{}\t{}\t{}", perm(&gtm), a_temp, b_temp);

    let (o, _) = gtm.execute(a, x, ScalarOp::Add(Value::Int(3)), t).unwrap();
    let a_temp = match o {
        pstm_types::ExecOutcome::Completed(v) => v,
        other => panic!("unexpected {other:?}"),
    };
    println!("A: X = X+3\t{}\t{}\t{}", perm(&gtm), a_temp, b_temp);

    let (r, _) = gtm.commit(a, Timestamp::from_secs_f64(1.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);
    println!("A commits\t{}\t-\t{}", perm(&gtm), b_temp);
    assert_eq!(perm(&gtm), Value::Int(104), "X_new^A = 104 + 100 - 100");

    let (r, _) = gtm.commit(b, Timestamp::from_secs_f64(2.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);
    println!("B commits\t{}\t-\t-", perm(&gtm));
    assert_eq!(perm(&gtm), Value::Int(106), "X_new^B = 102 + 104 - 100");

    gtm.verify_serializable().expect("final state serializable");
    println!("\npaper expects 100 -> 104 -> 106: reproduced ✓");
    println!("(serial replay in commit order matches the database: serializable ✓)");

    match pstm_bench::write_results(
        "table2",
        &serde_json::json!({
            "initial": 100,
            "after_A": 104,
            "after_B": 106,
            "commit_order": ["A", "B"],
        }),
    ) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    let mut live = gtm.metrics().clone();
    live.merge(&world.db.metrics());
    pstm_bench::finish_trace("table2", &tracer, &live);
}
