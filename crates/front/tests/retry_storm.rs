//! Regression test for the SST retry back-off path: a retry storm ends
//! in a clean `SstFailure` abort after exactly the configured number of
//! retries.
//!
//! With `sst_retry_delay: Duration::ZERO` every retry gap used to be a
//! pure spin (`thread::sleep(0)` is a no-op), so a storm of transient
//! I/O faults burned a CPU at 100%. The coordinator's back-off in
//! `pstm-front` has one rule now — a zero-length delay yields the core, a
//! non-zero one sleeps — and both cases are driven here.

use pstm_core::gtm::CommitResult;
use pstm_faults::{FaultInjector, FaultPlan};
use pstm_front::{FrontConfig, ShardedFront};
use pstm_types::{AbortReason, Duration, ResourceId, ScalarOp, Value};
use pstm_workload::counter_world;
use std::sync::Arc;

/// A front whose every SST attempt fails with transient I/O: a commit
/// exhausts all `retries` and aborts with `SstFailure`.
fn stormy_front(retries: u32, delay: Duration) -> (ShardedFront, Vec<ResourceId>) {
    let world = counter_world(2, 100).expect("world");
    let mut config = FrontConfig { shards: 2, ..FrontConfig::default() };
    config.gtm.sst_retries = retries;
    config.gtm.sst_retry_delay = delay;
    let front = ShardedFront::new(world.db, world.bindings, config);
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(11).io_on_sst_apply_each(1_000_000)));
    front.database().set_fault_hook(Arc::clone(&injector) as _);
    (front, world.resources)
}

#[test]
fn zero_duration_retry_storm_aborts_after_exactly_the_configured_retries() {
    const RETRIES: u32 = 25;
    // Duration::ZERO is the default `sst_retry_delay` — the storm case.
    let (front, resources) = stormy_front(RETRIES, Duration::ZERO);

    let mut session = front.session();
    session.execute(resources[0], ScalarOp::Sub(Value::Int(1))).expect("execute");
    session.execute(resources[1], ScalarOp::Sub(Value::Int(1))).expect("execute");
    assert_eq!(session.commit().expect("commit"), CommitResult::Aborted(AbortReason::SstFailure));
    assert_eq!(front.stats().sst_retries, u64::from(RETRIES));

    // The storm aborted cleanly: no partial state, front still usable.
    assert_eq!(front.resource_value(resources[0]).expect("value"), Value::Int(100));
    assert_eq!(front.resource_value(resources[1]).expect("value"), Value::Int(100));
    front.check_invariants().expect("invariants");
}

#[test]
fn nonzero_backoff_aborts_after_exactly_the_configured_retries() {
    const RETRIES: u32 = 3;
    let (front, resources) = stormy_front(RETRIES, Duration::from_micros(50));

    let mut session = front.session();
    session.execute(resources[0], ScalarOp::Sub(Value::Int(1))).expect("execute");
    assert_eq!(session.commit().expect("commit"), CommitResult::Aborted(AbortReason::SstFailure));
    assert_eq!(front.stats().sst_retries, u64::from(RETRIES));

    assert_eq!(front.resource_value(resources[0]).expect("value"), Value::Int(100));
    front.check_invariants().expect("invariants");
}
