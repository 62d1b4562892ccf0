//! SST retry exhaustion under injected persistent faults, driven through
//! the commit coordinator in its *production* environment (`pstm-front`:
//! real locks, wall clock) rather than the chaos harness's virtual one.
//!
//! Contract under test: when every SST attempt fails with a transient
//! I/O error, sessions must come back as typed aborts
//! ([`AbortReason::SstFailure`], or [`AbortReason::Constraint`] for CHECK
//! violations) — never a panic, and never a leaked shard lock
//! (`lock_shards_ascending`'s guards must fully unwind, observed via
//! [`ShardedFront::shards_unlocked`]).

use pstm_core::gtm::{CommitResult, Gtm, GtmConfig};
use pstm_faults::plan::SITE_KINDS;
use pstm_faults::{FaultInjector, FaultPlan, FaultRule, SiteMatcher, Trigger};
use pstm_front::{FrontConfig, SessionOutcome, ShardedFront};
use pstm_obs::{RingSink, Tracer};
use pstm_storage::Database;
use pstm_types::{AbortReason, FaultDecision, PstmError, ScalarOp, Timestamp, TxnId, Value};
use pstm_workload::counter_world;
use std::sync::Arc;

fn front_over(
    resources: usize,
    initial: i64,
    shards: usize,
) -> (ShardedFront, Vec<pstm_types::ResourceId>) {
    let world = counter_world(resources, initial).unwrap();
    let mut config = FrontConfig { shards, ..FrontConfig::default() };
    config.gtm.sst_retries = 2; // a real retry budget to exhaust
    let front = ShardedFront::with_shard_tracers(world.db, world.bindings, config, |_| {
        Tracer::with_sink(Box::new(RingSink::new(1 << 18)))
    });
    (front, world.resources)
}

/// A cross-shard op set: one `Sub(1)` on each of the first four
/// resources (they land on different shards when `shards == 4`).
fn run_ops(front: &ShardedFront, resources: &[pstm_types::ResourceId]) -> pstm_front::Session {
    let mut session = front.session();
    for r in &resources[..4] {
        match session.execute(*r, ScalarOp::Sub(Value::Int(1))).unwrap() {
            SessionOutcome::Value(_) => {}
            SessionOutcome::Aborted(reason) => panic!("execute aborted: {reason:?}"),
        }
    }
    session
}

#[test]
fn persistent_io_exhausts_retries_into_sst_failure_without_leaking_locks() {
    let (front, resources) = front_over(8, 1_000, 4);
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(11).io_on_sst_apply_each(1_000_000)));
    front.database().set_fault_hook(Arc::clone(&injector) as _);

    for _ in 0..6 {
        let mut session = run_ops(&front, &resources);
        let result = session.commit().expect("typed abort, not an engine error");
        assert_eq!(result, CommitResult::Aborted(AbortReason::SstFailure));
        assert!(front.shards_unlocked(), "a shard lock leaked past the unwound commit");
        front.check_invariants().expect("per-shard invariants after exhausted retries");
    }
    // Nothing reached the engine: the write set is all-or-nothing and
    // every attempt failed.
    for r in &resources[..4] {
        assert_eq!(front.resource_value(*r).unwrap(), Value::Int(1_000));
    }
    // Shard-summed counters: each of the 6 sessions aborts on all 4 of
    // its shards, and each commit burns its 2-attempt retry budget
    // (counted once, in the session's home shard).
    let stats = front.stats();
    assert_eq!(stats.aborted_sst_failure, 24);
    assert_eq!(stats.sst_retries, 12, "each commit should burn its full retry budget");

    // The fault is transient by nature: disarm the injector and the very
    // next cross-shard commit goes through.
    injector.disarm();
    let mut session = run_ops(&front, &resources);
    assert_eq!(session.commit().unwrap(), CommitResult::Committed);
    assert!(front.shards_unlocked());
    for r in &resources[..4] {
        assert_eq!(front.resource_value(*r).unwrap(), Value::Int(999));
    }
    front.verify_serializable().expect("committed history stays serializable");
}

#[test]
fn constraint_violations_surface_as_typed_aborts_not_panics() {
    // initial = 0 with a `>= 0` CHECK: the first Sub must die at commit
    // with a Constraint abort (reconciliation result rejected by the
    // engine), with no faults installed at all.
    let (front, resources) = front_over(8, 0, 4);
    let mut session = run_ops(&front, &resources);
    let result = session.commit().unwrap();
    assert_eq!(result, CommitResult::Aborted(AbortReason::Constraint));
    assert!(front.shards_unlocked());
    front.check_invariants().unwrap();
    for r in &resources[..4] {
        assert_eq!(front.resource_value(*r).unwrap(), Value::Int(0), "CHECK held");
    }
}

#[test]
fn injected_crash_mid_commit_unwinds_the_locks_before_poisoning() {
    let (front, resources) = front_over(8, 1_000, 4);
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(13).crash_at_kind("pre-sst", 1)));
    front.database().set_fault_hook(Arc::clone(&injector) as _);

    let mut session = run_ops(&front, &resources);
    match session.commit() {
        Err(PstmError::Crashed(site)) => assert_eq!(site, "pre-sst"),
        other => panic!("expected a simulated crash, got {other:?}"),
    }
    // The simulated process death must still release the shard mutexes —
    // the front-end is now garbage (transactions parked in Committing),
    // but a real restart can only happen if nothing is left locked.
    assert!(front.shards_unlocked(), "crash left a shard lock held");
    // Nothing was submitted to the engine before the pre-sst crash.
    for r in &resources[..4] {
        assert_eq!(front.resource_value(*r).unwrap(), Value::Int(1_000));
    }
}

/// One `pre-sst` semantics on every wave shape: an injected transient
/// I/O at the seam seeds the retry loop. The group-commit station used to
/// treat *any* non-`Proceed` decision there as a crash that killed the
/// whole wave; through the one coordinator a single-shard session — the
/// wave its shard's queue holds, here itself alone — commits after one
/// retry, and there is no second way for it to reach the seam.
#[test]
fn pre_sst_io_is_a_retried_transient_on_grouped_and_solo_waves_alike() {
    let world = counter_world(2, 1_000).unwrap();
    let mut config = FrontConfig { shards: 1, ..FrontConfig::default() };
    config.gtm.sst_retries = 2;
    let front = ShardedFront::with_shard_tracers(world.db, world.bindings, config, |_| {
        Tracer::with_sink(Box::new(RingSink::new(1 << 12)))
    });
    let io_once = FaultRule {
        site: SiteMatcher::Kind("pre-sst"),
        trigger: Trigger::OnHit(1),
        action: FaultDecision::Io,
        max_fires: 1,
    };
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(17).with_rule(io_once)));
    front.database().set_fault_hook(Arc::clone(&injector) as _);

    let mut session = front.session();
    session.execute(world.resources[0], ScalarOp::Sub(Value::Int(1))).unwrap();
    let result = session.commit().expect("a transient at pre-sst must not crash the wave");
    assert_eq!(result, CommitResult::Committed);
    assert_eq!(front.stats().sst_retries, 1, "one retry");
    assert_eq!(front.resource_value(world.resources[0]).unwrap(), Value::Int(999));
    assert_eq!(injector.schedule().len(), 1, "the seam fired exactly once");
    assert!(front.shards_unlocked());
    front.check_invariants().unwrap();
}

/// One install reaches all six labeled sites: for every site kind, a
/// `crash_at_kind(kind, 1)` plan set on the engine alone kills both a
/// cross-shard front-end commit and a lone manager's [`Gtm::commit`] at
/// that site.
#[test]
fn one_engine_install_reaches_every_labeled_site() {
    let crash_at = |db: &Database, kind| {
        db.set_fault_hook(Arc::new(FaultInjector::new(FaultPlan::new(19).crash_at_kind(kind, 1))));
    };
    for kind in SITE_KINDS {
        let world = counter_world(8, 1_000).unwrap();
        let config = FrontConfig { shards: 4, ..FrontConfig::default() };
        let front = ShardedFront::new(Arc::clone(&world.db), world.bindings.clone(), config);
        crash_at(&world.db, kind);
        let front_fate = run_ops(&front, &world.resources).commit();

        let world = counter_world(1, 1_000).unwrap();
        let mut gtm = Gtm::new(Arc::clone(&world.db), world.bindings.clone(), GtmConfig::default());
        crash_at(&world.db, kind);
        gtm.begin(TxnId(1), Timestamp(1)).unwrap();
        gtm.execute(TxnId(1), world.resources[0], ScalarOp::Sub(Value::Int(1)), Timestamp(1))
            .unwrap();
        let gtm_fate = gtm.commit(TxnId(1), Timestamp(2)).map(|(fate, _)| fate);

        for (path, fate) in [("front", front_fate), ("gtm", gtm_fate)] {
            assert!(
                matches!(&fate, Err(PstmError::Crashed(site)) if site.split('@').next() == Some(kind)),
                "{path} commit under a crash at {kind}: {fate:?}"
            );
        }
    }
}
