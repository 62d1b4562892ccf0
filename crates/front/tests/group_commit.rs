//! Group commit on the one commit path: single-shard committers that
//! meet at a shard's flush fence fuse into one SST flush behind whoever
//! holds the fence, with per-member outcomes, full counter accounting
//! and clean crash unwind — and a committer that meets nobody is exactly
//! the solo commit. A read-only committer meets nobody: it has nothing to
//! flush, so it neither queues nor waits for the fence.

use pstm_core::gtm::CommitResult;
use pstm_faults::{FaultInjector, FaultPlan};
use pstm_front::{FrontConfig, SessionOutcome, ShardedFront};
use pstm_obs::{Ctr, RingHandle, RingSink, Sink, SpanKind, TraceEvent, TraceRecord, Tracer};
use pstm_types::{
    AbortReason, FaultDecision, FaultHook, FaultSite, ResourceId, ScalarOp, TxnId, Value,
};
use pstm_workload::counter_world;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

const OBJECTS: usize = 8;
const INITIAL: i64 = 1_000_000;

/// A front over `OBJECTS` counters with nothing configured but the shard
/// count, plus one trace ring per shard.
fn traced_front(shards: usize) -> (ShardedFront, pstm_workload::World, Vec<RingHandle>) {
    let world = counter_world(OBJECTS, INITIAL).unwrap();
    let mut rings = Vec::new();
    let front = ShardedFront::with_shard_tracers(
        world.db.clone(),
        world.bindings.clone(),
        FrontConfig { shards, ..FrontConfig::default() },
        |_| {
            let ring = RingSink::new(1 << 16);
            rings.push(ring.handle());
            Tracer::with_sink(Box::new(ring))
        },
    );
    (front, world, rings)
}

/// A session that has booked `Sub(amount)` on `resource` and is ready to
/// commit.
fn booked(front: &ShardedFront, resource: ResourceId, amount: i64) -> pstm_front::Session {
    let mut session = front.session();
    let o = session.execute(resource, ScalarOp::Sub(Value::Int(amount))).unwrap();
    assert!(matches!(o, SessionOutcome::Value(_)), "additive ops never wait");
    session
}

/// Concurrent single-shard bookings against a device that costs 150 µs
/// per flush, on a front nobody told to batch: committers pile up behind
/// the flush in flight and fuse. Every commit lands, the LDBS totals are
/// exact, and the group counters reconcile — a group has at least two
/// members, and no commit is a member of more than one.
#[test]
fn grouped_commits_land_exactly_and_group_members_reconcile() {
    let (front, world, _) = traced_front(2);
    world.db.set_apply_latency(std::time::Duration::from_micros(150));
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
                    match booked(&front, resources[k], 1).commit().unwrap() {
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
    let groups = fleet.registry.counter(Ctr::GroupCommits);
    let members = fleet.registry.counter(Ctr::GroupMembers);
    assert!(groups >= 1, "four committers behind a 150 µs flush never met at the fence");
    assert!(members >= 2 * groups, "a flush of one is not a group: {members} in {groups}");
    assert!(members <= sessions, "a commit is a member of at most one group");
}

/// One session alone is the solo commit, byte for byte: no `GroupCommit`
/// in its shard's trace, one engine commit under its own SST id.
#[test]
fn lone_committer_flushes_ungrouped_under_its_own_sst_id() {
    let (front, world, rings) = traced_front(1);
    let engine = RingSink::new(1 << 10);
    let engine_ring = engine.handle();
    world.db.set_tracer(Tracer::with_sink(Box::new(engine)));

    let mut session = booked(&front, world.resources[0], 1);
    let id = session.id();
    assert_eq!(session.commit().unwrap(), CommitResult::Committed);

    let shard_trace = rings[0].snapshot();
    assert!(!shard_trace.iter().any(|r| matches!(r.event, TraceEvent::GroupCommit { .. })));
    let engine_commits: Vec<TxnId> = engine_ring
        .snapshot()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::EngineCommit { txn } => Some(txn),
            _ => None,
        })
        .collect();
    assert_eq!(engine_commits, vec![id.sst_engine()]);
}

/// Holds the first SST apply inside the engine — its committer keeps the
/// shard's flush fence — until the test releases it.
struct HoldFirstApply {
    entered: Mutex<Option<Sender<()>>>,
    release: Mutex<Receiver<()>>,
}

impl FaultHook for HoldFirstApply {
    fn decide(&self, site: FaultSite) -> FaultDecision {
        if site == FaultSite::SstApply {
            if let Some(entered) = self.entered.lock().unwrap().take() {
                entered.send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
            }
        }
        FaultDecision::Proceed
    }
}

/// A ring that also reports every `commit` span it sees open — emitted
/// after the session queued at its shard, so the report means "in line".
struct CommitSpans {
    ring: RingSink,
    opened: Sender<TxnId>,
}

impl Sink for CommitSpans {
    fn record(&mut self, rec: &TraceRecord) {
        self.ring.record(rec);
        if let TraceEvent::SpanOpen { txn, kind: SpanKind::Commit, .. } = rec.event {
            self.opened.send(txn).unwrap();
        }
    }
}

/// Two sessions booked on the same counter queue behind a flush in
/// flight, which a hook holds until the trace shows both in line.
/// Whoever wins the fence next then leads a wave of both: the cut
/// defers the second (its reconciliation must read what the first
/// flushed) and the leader requeues it, to be committed against the
/// post-flush value — by the same leader's next round if the deferred
/// entry is its own, by the deferred session itself otherwise. Either
/// way no update is lost and nothing fuses.
#[test]
fn deferred_member_commits_in_a_later_round_without_losing_an_update() {
    let world = counter_world(2, INITIAL).unwrap();
    let ring = RingSink::new(1 << 12);
    let trace = ring.handle();
    let (opened_tx, opened) = channel();
    let mut sink = Some(CommitSpans { ring, opened: opened_tx });
    let front = ShardedFront::with_shard_tracers(
        world.db.clone(),
        world.bindings.clone(),
        FrontConfig { shards: 1, ..FrontConfig::default() },
        |_| Tracer::with_sink(Box::new(sink.take().expect("one shard"))),
    );
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    front.database().set_fault_hook(Arc::new(HoldFirstApply {
        entered: Mutex::new(Some(entered_tx)),
        release: Mutex::new(release_rx),
    }));

    let mut holder = booked(&front, world.resources[1], 1);
    let waiting = [booked(&front, world.resources[0], 1), booked(&front, world.resources[0], 2)];
    let mut unqueued: Vec<TxnId> = waiting.iter().map(pstm_front::Session::id).collect();
    std::thread::scope(|scope| {
        let holder = scope.spawn(move || holder.commit().unwrap());
        entered.recv().unwrap();
        let waiters = waiting.map(|mut session| scope.spawn(move || session.commit().unwrap()));
        while !unqueued.is_empty() {
            let queued = opened.recv().unwrap();
            unqueued.retain(|txn| *txn != queued);
        }
        release.send(()).unwrap();
        assert_eq!(holder.join().unwrap(), CommitResult::Committed);
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), CommitResult::Committed);
        }
    });

    assert_eq!(front.resource_value(world.resources[0]).unwrap(), Value::Int(INITIAL - 3));
    assert_eq!(front.resource_value(world.resources[1]).unwrap(), Value::Int(INITIAL - 1));
    front.check_invariants().unwrap();
    front.verify_serializable().unwrap();
    assert!(
        !trace.snapshot().iter().any(|r| matches!(r.event, TraceEvent::GroupCommit { .. })),
        "overlapping members must never share a flush"
    );
}

/// A constraint violator aborts alone: the innocent booking is durable,
/// the violator leaves no trace.
#[test]
fn grouped_constraint_violator_aborts_without_poisoning_the_group() {
    let world = counter_world(2, 10).unwrap();
    let front = ShardedFront::with_shard_tracers(
        world.db.clone(),
        world.bindings.clone(),
        FrontConfig { shards: 1, ..FrontConfig::default() },
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
    let (front, world, _) = traced_front(1);
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(3).crash_at_kind("pre-sst", 1)));
    front.database().set_fault_hook(Arc::clone(&injector) as _);

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

/// Signals the first `pre-sst` arrival and proceeds: its committer holds
/// the shard's flush fence from then until its flush applied.
struct SignalPreSst(Mutex<Option<Sender<()>>>);

impl FaultHook for SignalPreSst {
    fn decide(&self, site: FaultSite) -> FaultDecision {
        if site == FaultSite::PreSst {
            if let Some(entered) = self.0.lock().unwrap().take() {
                entered.send(()).unwrap();
            }
        }
        FaultDecision::Proceed
    }
}

/// A read-only session reconciles nothing, so it takes no flush fence: it
/// commits while a writer's 200 ms flush to the same shard — of a counter
/// the reader read — is still in flight.
#[test]
fn read_only_commit_does_not_wait_behind_a_flush_in_flight() {
    let world = counter_world(2, INITIAL).unwrap();
    let config = FrontConfig { shards: 1, ..FrontConfig::default() };
    let front = ShardedFront::new(world.db.clone(), world.bindings.clone(), config);
    world.db.set_apply_latency(std::time::Duration::from_millis(200));
    let (entered_tx, entered) = channel();
    front.database().set_fault_hook(Arc::new(SignalPreSst(Mutex::new(Some(entered_tx)))));

    let mut writer = booked(&front, world.resources[0], 1);
    let mut reader = front.session();
    for r in &world.resources {
        let read = reader.execute(*r, ScalarOp::Read).unwrap();
        assert_eq!(read, SessionOutcome::Value(Value::Int(INITIAL)), "Read is compatible");
    }
    let flushed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let fate = writer.commit().unwrap();
            flushed.store(true, Ordering::SeqCst);
            fate
        });
        entered.recv().unwrap();
        assert_eq!(reader.commit().unwrap(), CommitResult::Committed);
        assert!(!flushed.load(Ordering::SeqCst), "the reader waited for the writer's flush");
        assert_eq!(writer.join().unwrap(), CommitResult::Committed);
    });

    front.verify_serializable().unwrap();
    front.check_invariants().unwrap();
    assert_eq!(front.resource_value(world.resources[0]).unwrap(), Value::Int(INITIAL - 1));
    assert_eq!(front.stats().committed, 2);
}
