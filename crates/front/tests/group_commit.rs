//! Group-commit station tests: single-shard commits fuse into batched
//! SST flushes behind a per-shard leader, with per-member outcomes, full
//! counter accounting, and clean crash unwind.

use pstm_core::gtm::CommitResult;
use pstm_faults::{FaultInjector, FaultPlan};
use pstm_front::{FrontConfig, SessionOutcome, ShardedFront};
use pstm_obs::{Ctr, RingSink, Tracer};
use pstm_types::{AbortReason, ScalarOp, Value};
use pstm_workload::counter_world;
use std::sync::Arc;

const OBJECTS: usize = 8;
const INITIAL: i64 = 1_000_000;

fn grouped_front(shards: usize, max_group: usize) -> (ShardedFront, pstm_workload::World) {
    let world = counter_world(OBJECTS, INITIAL).unwrap();
    let front = ShardedFront::with_shard_tracers(
        world.db.clone(),
        world.bindings.clone(),
        FrontConfig { shards, group_commit: true, max_group, ..FrontConfig::default() },
        |_| Tracer::with_sink(Box::new(RingSink::new(1 << 16))),
    );
    (front, world)
}

/// Concurrent single-shard bookings through the station: every commit
/// lands, the LDBS totals are exact, and the group counters reconcile —
/// each committed transaction is a member of exactly one group flush.
#[test]
fn grouped_commits_land_exactly_and_group_members_reconcile() {
    let (front, world) = grouped_front(2, 8);
    let threads = 4;
    let per_thread = 100;
    let mut totals = [0u64; OBJECTS];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let front = front.clone();
            let resources = world.resources.clone();
            handles.push(scope.spawn(move || {
                let mut counts = vec![0u64; OBJECTS];
                for j in 0..per_thread {
                    let k = (t * per_thread + j) % OBJECTS;
                    let mut session = front.session();
                    let o = session.execute(resources[k], ScalarOp::Sub(Value::Int(1))).unwrap();
                    assert!(matches!(o, SessionOutcome::Value(_)), "additive ops never wait");
                    match session.commit().unwrap() {
                        CommitResult::Committed => counts[k] += 1,
                        CommitResult::Aborted(r) => panic!("additive booking aborted: {r:?}"),
                    }
                }
                counts
            }));
        }
        for h in handles {
            let counts = h.join().expect("worker thread panicked");
            for (total, c) in totals.iter_mut().zip(counts) {
                *total += c;
            }
        }
    });

    front.check_invariants().unwrap();
    front.verify_serializable().unwrap();
    let sessions = (threads * per_thread) as u64;
    assert_eq!(totals.iter().sum::<u64>(), sessions);
    for (i, r) in world.resources.iter().enumerate() {
        assert_eq!(
            front.resource_value(*r).unwrap(),
            Value::Int(INITIAL - totals[i] as i64),
            "resource {i}"
        );
    }
    let fleet = front.fleet_snapshot();
    assert_eq!(fleet.registry.counter(Ctr::Committed), sessions);
    assert_eq!(
        fleet.registry.counter(Ctr::GroupMembers),
        sessions,
        "every committed txn is a member of exactly one group flush"
    );
    let flushes = fleet.registry.counter(Ctr::GroupCommits);
    assert!(
        (1..=sessions).contains(&flushes),
        "flush count must be positive and never exceed memberships, got {flushes}"
    );
}

/// A constraint violator in a group aborts alone: the innocent member's
/// booking is durable, the violator leaves no trace.
#[test]
fn grouped_constraint_violator_aborts_without_poisoning_the_group() {
    let world = counter_world(2, 10).unwrap();
    let front = ShardedFront::with_shard_tracers(
        world.db.clone(),
        world.bindings.clone(),
        FrontConfig { shards: 1, group_commit: true, max_group: 8, ..FrontConfig::default() },
        |_| Tracer::with_sink(Box::new(RingSink::new(1 << 16))),
    );

    let mut good = front.session();
    good.execute(world.resources[0], ScalarOp::Sub(Value::Int(1))).unwrap();
    let mut bad = front.session();
    bad.execute(world.resources[1], ScalarOp::Sub(Value::Int(50))).unwrap();

    assert_eq!(good.commit().unwrap(), CommitResult::Committed);
    assert_eq!(bad.commit().unwrap(), CommitResult::Aborted(AbortReason::Constraint));
    assert_eq!(front.resource_value(world.resources[0]).unwrap(), Value::Int(9));
    assert_eq!(front.resource_value(world.resources[1]).unwrap(), Value::Int(10));
    front.check_invariants().unwrap();
    front.verify_serializable().unwrap();
}

/// A crash at the leader's pre-SST seam surfaces as `Crashed` and leaves
/// no shard mutex held — the caller can recover the engine.
#[test]
fn grouped_commit_crash_at_pre_sst_unwinds_cleanly() {
    let (front, world) = grouped_front(1, 8);
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(3).crash_at_kind("pre-sst", 1)));
    front.set_fault_hook(Arc::clone(&injector) as _);

    let mut session = front.session();
    session.execute(world.resources[0], ScalarOp::Sub(Value::Int(1))).unwrap();
    let err = session.commit().unwrap_err();
    assert_eq!(err, pstm_types::PstmError::Crashed("pre-sst".to_string()));
    assert!(front.shards_unlocked(), "crash path must not leak a shard lock");
    assert_eq!(front.resource_value(world.resources[0]).unwrap(), Value::Int(INITIAL));
}

/// Every wave shape gets the same span tree: a session committed by the
/// station carries `commit ⊃ reconcile, sst_attempt` in its home shard's
/// trace, exactly like a solo commit (the grouped path used to emit a
/// childless `commit` span).
#[test]
fn grouped_commit_span_has_reconcile_and_sst_attempt_children() {
    let world = counter_world(2, INITIAL).unwrap();
    let mut handles = Vec::new();
    let front = ShardedFront::with_shard_tracers(
        world.db.clone(),
        world.bindings.clone(),
        FrontConfig { shards: 1, group_commit: true, ..FrontConfig::default() },
        |_| {
            let ring = RingSink::new(1 << 12);
            handles.push(ring.handle());
            Tracer::with_sink(Box::new(ring))
        },
    );
    let mut session = front.session();
    let id = session.id();
    session.execute(world.resources[0], ScalarOp::Sub(Value::Int(1))).unwrap();
    assert_eq!(session.commit().unwrap(), CommitResult::Committed);

    let trees = pstm_obs::build_span_trees(&handles[0].snapshot());
    let root = &trees[&id][0];
    let commit = root.children.last().expect("commit phase");
    assert_eq!(commit.kind, pstm_obs::SpanKind::Commit);
    let children: Vec<&'static str> = commit.children.iter().map(|c| c.kind.phase()).collect();
    assert_eq!(children, vec!["reconcile", "sst_attempt"]);
}
