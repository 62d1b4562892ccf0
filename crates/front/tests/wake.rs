//! The one wake path: a waiting session — a blocked thread or a reactor
//! core — is registered in the front-end's wake registry under its
//! transaction id, and the signal that resumes or aborts it is handed to
//! exactly that waiter.
//!
//! - **mixed front** — a blocking `Session` and a reactor core on one
//!   front wake each other, in both orders, with the fates a
//!   blocking-only run gives;
//! - **no poll, still a deadline** — a thread parked on an idle shard
//!   gets its `LockTimeout` from its own deadline-scheduled tick, and
//!   that abort disturbs no other waiter of the shard;
//! - **signal before park** — two threads ping-ponging one counter never
//!   lose a wake;
//! - **no leak** — the registry is empty once every session finished.

use pstm_core::gtm::CommitResult;
use pstm_front::reactor::det::DetReactor;
use pstm_front::reactor::{Fate, ProgramStep, Reactor, ReactorConfig};
use pstm_front::{FrontConfig, Session, SessionOutcome, ShardedFront};
use pstm_types::{AbortReason, Duration, ResourceId, ScalarOp, Value};
use pstm_workload::counter_world;
use std::sync::{mpsc, Arc, Barrier};

fn front(objects: usize, shards: usize, wait_timeout_ms: u64) -> (ShardedFront, Vec<ResourceId>) {
    let world = counter_world(objects, 0).expect("world");
    let mut config = FrontConfig { shards, ..FrontConfig::default() };
    config.gtm.wait_timeout = Some(Duration::from_millis(wait_timeout_ms));
    (ShardedFront::new(world.db, world.bindings, config), world.resources)
}

fn assign(n: i64) -> ScalarOp {
    ScalarOp::Assign(Value::Int(n))
}

/// Polls (test side only) until `cond` holds.
fn until(what: &str, cond: impl Fn() -> bool) {
    for _ in 0..60_000 {
        if cond() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    panic!("timed out waiting until {what}");
}

/// Which front a scenario participant is driven through.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Via {
    Blocking,
    Reactor,
}

/// `first` takes an `Assign` grant on one counter, `second` queues an
/// incompatible `Assign` behind it and parks, `first` commits — which
/// must wake `second` whatever front either is on — and `second`
/// commits. Returns `(first's commit, second's execute, second's commit,
/// final value)`.
fn holder_then_waiter(
    first: Via,
    second: Via,
) -> (CommitResult, SessionOutcome, CommitResult, Value) {
    let (front, resources) = front(1, 1, 10_000);
    let reactor = Reactor::start(front.clone(), ReactorConfig::default()).expect("reactor");
    let r = resources[0];

    let mut blocking_first = None;
    let mut handle_first = None;
    let granted = match first {
        Via::Blocking => blocking_first.insert(front.session()).execute(r, assign(7)),
        Via::Reactor => handle_first.insert(reactor.handle()).execute(r, assign(7)),
    };
    assert_eq!(granted.expect("first execute"), SessionOutcome::Value(Value::Int(7)));

    let waiter = {
        let front = front.clone();
        let mut handle = reactor.handle();
        std::thread::spawn(move || match second {
            Via::Blocking => {
                let mut session = front.session();
                let out = session.execute(r, assign(9)).expect("second execute");
                (out, session.commit().expect("second commit"))
            }
            Via::Reactor => {
                let out = handle.execute(r, assign(9)).expect("second execute");
                (out, handle.commit().expect("second commit"))
            }
        })
    };
    until("the second session is parked", || front.wake_entries() == 1);
    if second == Via::Reactor {
        assert_eq!(reactor.census().waiting, 1);
    }

    let committed = match first {
        Via::Blocking => blocking_first.expect("first").commit(),
        Via::Reactor => handle_first.expect("first").commit(),
    }
    .expect("first commit");
    let (out, second_commit) = waiter.join().expect("waiter thread");
    reactor.shutdown();
    assert_eq!(front.wake_entries(), 0, "nothing left registered");
    front.verify_serializable().expect("serializable");
    (committed, out, second_commit, front.resource_value(r).expect("value"))
}

#[test]
fn blocking_sessions_and_reactor_cores_wake_each_other() {
    let blocking_only = holder_then_waiter(Via::Blocking, Via::Blocking);
    assert_eq!(
        blocking_only,
        (
            CommitResult::Committed,
            SessionOutcome::Value(Value::Int(9)),
            CommitResult::Committed,
            Value::Int(9)
        )
    );
    assert_eq!(holder_then_waiter(Via::Blocking, Via::Reactor), blocking_only);
    assert_eq!(holder_then_waiter(Via::Reactor, Via::Blocking), blocking_only);
}

#[test]
fn a_blocking_commit_resumes_a_parked_reactor_program() {
    let (front, resources) = front(1, 1, 10_000);
    let reactor = Reactor::start(front.clone(), ReactorConfig::default()).expect("reactor");
    let r = resources[0];
    let mut holder = front.session();
    holder.execute(r, assign(7)).expect("holder execute");
    let program = reactor.spawn_program(vec![ProgramStep::Execute(r, assign(9))]);
    until("the program is parked", || reactor.census().waiting == 1);
    assert_eq!(holder.commit().expect("holder commit"), CommitResult::Committed);
    reactor.wait_finished(1);
    assert_eq!(reactor.ledger().get(&program), Some(&Fate::Committed));
    reactor.shutdown();
    assert_eq!(front.resource_value(r).expect("value"), Value::Int(9));
    assert_eq!(front.wake_entries(), 0);
}

/// Spawns a thread that queues `Assign(n)` on `r` behind its holder and
/// reports the outcome of the blocked `execute`.
fn blocked_assign(
    front: &ShardedFront,
    r: ResourceId,
    n: i64,
) -> std::thread::JoinHandle<(SessionOutcome, Session)> {
    let mut session = front.session();
    std::thread::spawn(move || (session.execute(r, assign(n)).expect("blocked execute"), session))
}

#[test]
fn an_idle_shard_waiter_times_out_on_its_own_deadline() {
    // Nobody else touches the shard while the waiter is parked: only the
    // tick the waiter itself schedules off the shard's wake deadline can
    // fire the timeout.
    let (front, resources) = front(1, 1, 20);
    let mut holder = front.session();
    holder.execute(resources[0], assign(1)).expect("holder execute");
    let start = front.now();
    let (out, _) = blocked_assign(&front, resources[0], 2).join().expect("waiter thread");
    assert_eq!(out, SessionOutcome::Aborted(AbortReason::LockTimeout));
    let waited = front.now().since(start);
    assert!(waited >= Duration::from_millis(20), "timed out early: {waited:?}");
    assert_eq!(front.wake_entries(), 0);
    assert_eq!(holder.commit().expect("holder commit"), CommitResult::Committed);
}

#[test]
fn a_timeout_wakes_only_its_addressee() {
    // Two objects of one shard, each held; waiter A parks first, waiter B
    // half a timeout later. A's timeout must abort A alone: B stays
    // registered and resumes only when its own holder commits.
    let (front, resources) = front(2, 1, 400);
    let (mut holder_a, mut holder_b) = (front.session(), front.session());
    holder_a.execute(resources[0], assign(1)).expect("holder a");
    holder_b.execute(resources[1], assign(1)).expect("holder b");

    let waiter_a = blocked_assign(&front, resources[0], 2);
    until("waiter a is parked", || front.wake_entries() == 1);
    std::thread::sleep(std::time::Duration::from_millis(200));
    let waiter_b = blocked_assign(&front, resources[1], 2);
    until("waiter b is parked", || front.wake_entries() == 2);

    let (out_a, _) = waiter_a.join().expect("waiter a thread");
    assert_eq!(out_a, SessionOutcome::Aborted(AbortReason::LockTimeout));
    assert_eq!(front.wake_entries(), 1, "waiter b is still parked");
    assert!(!waiter_b.is_finished(), "a's timeout must not disturb b");

    assert_eq!(holder_b.commit().expect("holder b commit"), CommitResult::Committed);
    let (out_b, mut session_b) = waiter_b.join().expect("waiter b thread");
    assert_eq!(out_b, SessionOutcome::Value(Value::Int(2)));
    assert_eq!(session_b.commit().expect("waiter b commit"), CommitResult::Committed);
    assert_eq!(holder_a.commit().expect("holder a commit"), CommitResult::Committed);
    assert_eq!(front.wake_entries(), 0);
}

#[test]
fn ping_pong_on_one_counter_loses_no_wake() {
    // Each thread's `Assign` queues behind the other's about every other
    // round, and the holder's commit races the waiter's park: a signal
    // that lands before its addressee parked must be held for it. A lost
    // wake would strand the waiter (nobody re-sends a grant).
    const ROUNDS: usize = 10_000;
    let (front, resources) = front(1, 1, 10_000);
    let r = resources[0];
    let (tx, rx) = mpsc::channel();
    let start = Arc::new(Barrier::new(2));
    let threads: Vec<_> = (0..2)
        .map(|t| {
            let (front, tx, start) = (front.clone(), tx.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    let mut session = front.session();
                    let n = (2 * round + t) as i64;
                    let out = session.execute(r, assign(n)).expect("execute");
                    assert_eq!(out, SessionOutcome::Value(Value::Int(n)));
                    assert_eq!(session.commit().expect("commit"), CommitResult::Committed);
                }
                tx.send(()).expect("report");
            })
        })
        .collect();
    for _ in &threads {
        rx.recv_timeout(std::time::Duration::from_secs(120)).expect("a wake was lost");
    }
    for thread in threads {
        thread.join().expect("ping-pong thread");
    }
    assert!(front.stats().ops_waited > 0, "the two threads never contended");
    assert_eq!(front.stats().committed, 2 * ROUNDS as u64);
    assert_eq!(front.wake_entries(), 0);
}

/// One wave of programs that each take an `Assign` grant on one of 8
/// counters and then queue on the gate counter a blocking session holds:
/// once spawned, every one of them is parked — 8 at the gate, the rest
/// behind those — and the gate holder's commit starts the cascade of
/// wakes that lets them commit one after another. 20 waves of 100 make
/// the 2 000 sessions whose registry entries must all be gone at the end.
const WAVES: usize = 20;
const WAVE: usize = 100;

fn gated_wave(resources: &[ResourceId]) -> Vec<Vec<ProgramStep>> {
    let gate = resources[8];
    (0..WAVE)
        .map(|i| {
            let n = i as i64;
            vec![
                ProgramStep::Execute(resources[i % 8], assign(n)),
                ProgramStep::Execute(gate, assign(n)),
            ]
        })
        .collect()
}

#[test]
fn the_registry_is_empty_after_2000_conflicting_programs_threaded() {
    let (front, resources) = front(9, 2, 60_000);
    let reactor = Reactor::start(front.clone(), ReactorConfig::default()).expect("reactor");
    for wave in 1..=WAVES {
        let mut gate_holder = front.session();
        gate_holder.execute(resources[8], assign(0)).expect("gate");
        for program in gated_wave(&resources) {
            reactor.spawn_program(program);
        }
        until("the wave is parked", || reactor.census().waiting == WAVE as u64);
        assert_eq!(front.wake_entries(), WAVE, "one entry per parked session");
        assert_eq!(gate_holder.commit().expect("gate commit"), CommitResult::Committed);
        reactor.wait_finished(wave * WAVE);
    }
    assert!(reactor.ledger().values().all(|fate| *fate == Fate::Committed));
    reactor.shutdown();
    assert_eq!(front.wake_entries(), 0, "one leaked entry per session was the owner-map bug");
    front.check_invariants().expect("invariants");
}

#[test]
fn the_registry_is_empty_after_2000_conflicting_programs_deterministic() {
    let (front, resources) = front(9, 2, 60_000);
    let mut det = DetReactor::new(front.clone(), 2, 0xC0FFEE);
    for _ in 0..WAVES {
        let mut gate_holder = front.session();
        gate_holder.execute(resources[8], assign(0)).expect("gate");
        for program in gated_wave(&resources) {
            det.spawn_program(program);
        }
        while det.census().waiting < WAVE as u64 {
            assert!(det.step(), "quiescent before the wave parked");
        }
        assert_eq!(front.wake_entries(), WAVE, "one entry per parked session");
        assert_eq!(gate_holder.commit().expect("gate commit"), CommitResult::Committed);
        det.run_to_quiescence();
    }
    assert_eq!(det.ledger().len(), WAVES * WAVE);
    assert!(det.ledger().values().all(|fate| *fate == Fate::Committed));
    assert_eq!(front.wake_entries(), 0);
    front.check_invariants().expect("invariants");
}
