//! State-machine fuzzing: arbitrary event sequences thrown at the GTM.
//!
//! Every event either succeeds or returns a typed error — it must never
//! panic, never corrupt the cross-structure bookkeeping
//! ([`Gtm::check_invariants`] runs after every event), and whatever
//! commits must remain final-state serializable.

use proptest::prelude::*;
use pstm_core::gtm::{Gtm, GtmConfig};
use pstm_core::policy::{AdmissionPolicy, StarvationPolicy};
use pstm_core::DependenceMap;
use pstm_storage::{BindingRegistry, ColumnDef, Constraint, Database, Row, TableSchema};
use pstm_types::{MemberId, ResourceId, ScalarOp, Timestamp, TxnId, Value, ValueKind};
use std::sync::Arc;

#[derive(Debug, Clone)]
enum FuzzEvent {
    Begin(u64),
    Execute(u64, usize, FuzzOp),
    Commit(u64),
    Abort(u64),
    Sleep(u64),
    Awake(u64),
    Tick,
}

#[derive(Debug, Clone)]
enum FuzzOp {
    Read,
    Assign(i64),
    Add(i64),
    Sub(i64),
}

impl FuzzOp {
    fn to_scalar(&self) -> ScalarOp {
        match self {
            FuzzOp::Read => ScalarOp::Read,
            FuzzOp::Assign(c) => ScalarOp::Assign(Value::Int(*c)),
            FuzzOp::Add(c) => ScalarOp::Add(Value::Int(*c)),
            FuzzOp::Sub(c) => ScalarOp::Sub(Value::Int(*c)),
        }
    }
}

fn arb_event() -> impl Strategy<Value = FuzzEvent> {
    let op = prop_oneof![
        Just(FuzzOp::Read),
        (0i64..50).prop_map(FuzzOp::Assign),
        (1i64..5).prop_map(FuzzOp::Add),
        (1i64..5).prop_map(FuzzOp::Sub),
    ];
    prop_oneof![
        (1u64..8).prop_map(FuzzEvent::Begin),
        (1u64..8, 0usize..3, op).prop_map(|(t, r, o)| FuzzEvent::Execute(t, r, o)),
        (1u64..8).prop_map(FuzzEvent::Commit),
        (1u64..8).prop_map(FuzzEvent::Abort),
        (1u64..8).prop_map(FuzzEvent::Sleep),
        (1u64..8).prop_map(FuzzEvent::Awake),
        Just(FuzzEvent::Tick),
    ]
}

fn world() -> (Gtm, Vec<ResourceId>) {
    let db = Arc::new(Database::new());
    let schema = TableSchema::new(
        "Obj",
        vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("v", ValueKind::Int)],
    )
    .unwrap();
    let table = db.create_table(schema, vec![Constraint::non_negative("v>=0", 1)]).unwrap();
    let boot = TxnId(1 << 40);
    db.begin(boot).unwrap();
    let mut bindings = BindingRegistry::new();
    let mut rs = Vec::new();
    for i in 0..3 {
        let row = db.insert(boot, table, Row::new(vec![Value::Int(i), Value::Int(1_000)])).unwrap();
        let o = bindings.bind_object(table, row, &[(MemberId::ATOMIC, 1)]).unwrap();
        rs.push(ResourceId::atomic(o));
    }
    db.commit(boot).unwrap();
    (Gtm::new(db, bindings, GtmConfig::default()), rs)
}

fn drive(
    mut gtm: Gtm,
    resources: &[ResourceId],
    events: &[FuzzEvent],
) -> Result<(), TestCaseError> {
    let mut clock = 0u64;
    for ev in events {
        clock += 100_000; // 0.1 s per event
        let now = Timestamp(clock);
        // All calls may fail with typed errors (bad state, unknown txn);
        // they must never panic or corrupt bookkeeping.
        match ev {
            FuzzEvent::Begin(t) => {
                let _ = gtm.begin(TxnId(*t), now);
            }
            FuzzEvent::Execute(t, r, op) => {
                let _ = gtm.execute(TxnId(*t), resources[*r], op.to_scalar(), now);
            }
            FuzzEvent::Commit(t) => {
                let _ = gtm.commit(TxnId(*t), now);
            }
            FuzzEvent::Abort(t) => {
                let _ = gtm.abort(TxnId(*t), now);
            }
            FuzzEvent::Sleep(t) => {
                let _ = gtm.sleep(TxnId(*t), now);
            }
            FuzzEvent::Awake(t) => {
                let _ = gtm.awake(TxnId(*t), now);
            }
            FuzzEvent::Tick => {
                let _ = gtm.tick(now);
            }
        }
        gtm.check_invariants().map_err(TestCaseError::fail)?;
    }
    gtm.verify_serializable().map_err(TestCaseError::fail)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_random_events_never_corrupt_state(events in prop::collection::vec(arb_event(), 1..120)) {
        let (gtm, rs) = world();
        drive(gtm, &rs, &events)?;
    }

    /// Same fuzz with every §VII policy armed at once.
    #[test]
    fn prop_random_events_with_policies(events in prop::collection::vec(arb_event(), 1..100)) {
        let db_world = world();
        let (gtm, rs) = db_world;
        let config = GtmConfig {
            starvation: Some(StarvationPolicy { deny_threshold: 1 }),
            admission: Some(AdmissionPolicy::per_unit()),
            wait_timeout: Some(pstm_types::Duration::from_secs_f64(2.0)),
            sst_retries: 1,
            ..GtmConfig::default()
        };
        let gtm = Gtm::new(gtm.database().clone(), gtm.bindings().clone(), config);
        drive(gtm, &rs, &events)?;
    }

    /// And with elder-priority fairness.
    #[test]
    fn prop_random_events_with_elder_priority(events in prop::collection::vec(arb_event(), 1..100)) {
        let (base, rs) = world();
        let config = GtmConfig { elder_priority: true, ..GtmConfig::default() };
        let gtm = Gtm::new(base.database().clone(), base.bindings().clone(), config);
        drive(gtm, &rs, &events)?;
    }

    /// And with `r0` and `r1` declared logically dependent: conflict
    /// checks, promotion, awakening and deadlock edges cross the group.
    #[test]
    fn prop_random_events_with_a_dependence_group(events in prop::collection::vec(arb_event(), 1..120)) {
        let (base, rs) = world();
        let mut dependence = DependenceMap::new();
        dependence.declare_dependent(&rs[..2]).unwrap();
        drive(base.with_dependence(dependence), &rs, &events)?;
    }
}
