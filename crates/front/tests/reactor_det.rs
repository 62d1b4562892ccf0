//! Property tests over the deterministic reactor driver: seeded
//! single-threaded exploration of queue interleavings.
//!
//! Every case builds a fresh world, spawns a seeded batch of commuting
//! `Add` programs (with sleep/awake churn), and drives the *exact*
//! production worker state machine (`WorkerState::handle`/`fire_due`)
//! under a seed-chosen message interleaving. The properties:
//!
//! - **no lost wakeups** — every spawned session reaches a terminal
//!   fate at quiescence, whatever the interleaving;
//! - **no double delivery** — each session is spawned into a worker
//!   exactly once, no wake is delivered to a session that did not ask
//!   for one (`stale_wakes == 0` in conflict-free runs);
//! - **sleeping is free** — a Sleeping session occupies zero queue
//!   slots and is charged zero worker steps until its timer fires;
//! - **a seed is a schedule** — identical seeds replay identical
//!   histories and ledgers, bit for bit.

use proptest::prelude::*;
use pstm_front::reactor::det::DetReactor;
use pstm_front::reactor::{Fate, ProgramStep};
use pstm_front::{FrontConfig, ShardedFront};
use pstm_types::{ResourceId, ScalarOp, TxnId, Value};
use pstm_workload::counter_world;

const OBJECTS: usize = 8;

fn front(shards: usize) -> (ShardedFront, Vec<ResourceId>) {
    let world = counter_world(OBJECTS, 0).expect("world");
    let config = FrontConfig { shards, ..FrontConfig::default() };
    (ShardedFront::new(world.db, world.bindings, config), world.resources)
}

/// One op: (key, delta, churn) — churn 0 inserts a sleep after the op.
type ProgramSpec = Vec<(usize, i64, u8)>;

fn arb_programs() -> impl Strategy<Value = Vec<ProgramSpec>> {
    prop::collection::vec(prop::collection::vec((0usize..OBJECTS, 1i64..6, 0u8..4), 1..4), 1..10)
}

fn build(specs: &[ProgramSpec], resources: &[ResourceId]) -> Vec<Vec<ProgramStep>> {
    specs
        .iter()
        .map(|spec| {
            let mut program = Vec::new();
            for &(key, delta, churn) in spec {
                program
                    .push(ProgramStep::Execute(resources[key], ScalarOp::Add(Value::Int(delta))));
                if churn == 0 {
                    program.push(ProgramStep::SleepFor(1_000 * (key as u64 + 1)));
                }
            }
            program.push(ProgramStep::Commit);
            program
        })
        .collect()
}

/// Whole-word `txn=N` match — `txn=1` must not match a `txn=12` line.
fn names_txn(line: &str, txn: TxnId) -> bool {
    let token = format!("txn={}", txn.0);
    line.split_whitespace().any(|word| word == token)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_no_lost_wakeups_under_any_interleaving(
        seed in 1u64..u64::MAX,
        workers in 1usize..4,
        specs in arb_programs(),
    ) {
        let (f, resources) = front(2);
        let mut det = DetReactor::new(f.clone(), workers, seed);
        let txns: Vec<TxnId> =
            build(&specs, &resources).into_iter().map(|p| det.spawn_program(p)).collect();
        det.run_to_quiescence();

        // Terminal fate for every spawned session: nothing lost, nothing
        // stuck Sleeping or Waiting forever.
        let ledger = det.ledger();
        for txn in &txns {
            prop_assert_eq!(
                ledger.get(txn),
                Some(&Fate::Committed),
                "commuting adds always commit; ledger {:?}",
                &ledger
            );
        }
        prop_assert_eq!(ledger.len(), txns.len());
        let census = det.census();
        prop_assert_eq!(census.finished, txns.len() as u64);
        prop_assert_eq!(census.running + census.waiting + census.sleeping, 0);
        det.shutdown();
        f.verify_serializable().expect("serializable");
    }

    #[test]
    fn prop_no_double_delivery(
        seed in 1u64..u64::MAX,
        workers in 1usize..4,
        specs in arb_programs(),
    ) {
        let (f, resources) = front(2);
        let mut det = DetReactor::new(f.clone(), workers, seed);
        let txns: Vec<TxnId> =
            build(&specs, &resources).into_iter().map(|p| det.spawn_program(p)).collect();
        det.run_to_quiescence();

        // Exactly one spawn delivery per session.
        for txn in &txns {
            let spawns = det
                .history()
                .iter()
                .filter(|line| line.contains("spawn") && names_txn(line, *txn))
                .count();
            prop_assert_eq!(spawns, 1, "session spawned into a worker exactly once");
        }
        // Conflict-free programs never produce an unexpected wake: no
        // signal arrives for a session that is not Waiting.
        prop_assert_eq!(det.stale_wakes(), 0);
        det.shutdown();
    }

    #[test]
    fn prop_sleeping_session_holds_no_slot_and_gets_no_worker_time(
        seed in 1u64..u64::MAX,
        workers in 1usize..4,
        specs in arb_programs(),
    ) {
        let (f, resources) = front(2);
        let mut det = DetReactor::new(f.clone(), workers, seed);
        // One long sleeper among arbitrary commuting background traffic.
        let sleeper = det.spawn_program(vec![
            ProgramStep::Execute(resources[0], ScalarOp::Add(Value::Int(1))),
            ProgramStep::SleepFor(60_000),
            ProgramStep::Execute(resources[1], ScalarOp::Add(Value::Int(1))),
            ProgramStep::Commit,
        ]);
        for program in build(&specs, &resources) {
            det.spawn_program(program);
        }

        // Drive to the sleeper's nap (bounded; its spawn may be
        // scheduled arbitrarily late).
        let mut guard = 0;
        while det.phase_name(sleeper) != Some("sleeping") {
            prop_assert!(det.step(), "sleeper must reach Sleeping before quiescence");
            guard += 1;
            prop_assert!(guard < 100_000);
        }
        // While asleep: zero queue slots, zero history lines charged to
        // the sleeper — workers spend their steps on other sessions.
        while det.phase_name(sleeper) == Some("sleeping") {
            prop_assert_eq!(det.queued_msgs_for(sleeper), 0, "a sleeping session owns no slot");
            let before = det.history().len();
            prop_assert!(det.step(), "sleeper's timer must eventually fire");
            if det.phase_name(sleeper) == Some("sleeping") {
                for line in &det.history()[before..] {
                    prop_assert!(
                        !names_txn(line, sleeper),
                        "worker time charged to a sleeping session: {}",
                        line
                    );
                }
            }
            guard += 1;
            prop_assert!(guard < 100_000);
        }
        det.run_to_quiescence();
        let ledger = det.ledger();
        prop_assert_eq!(ledger.get(&sleeper), Some(&Fate::Committed));
        det.shutdown();
    }

    #[test]
    fn prop_identical_seeds_replay_identical_schedules(
        seed in 1u64..u64::MAX,
        workers in 1usize..4,
        specs in arb_programs(),
    ) {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let (f, resources) = front(2);
            let mut det = DetReactor::new(f, workers, seed);
            for program in build(&specs, &resources) {
                det.spawn_program(program);
            }
            det.run_to_quiescence();
            let record = (det.history().to_vec(), det.ledger(), det.clock());
            det.shutdown();
            runs.push(record);
        }
        prop_assert_eq!(&runs[0].0, &runs[1].0, "same seed, same schedule");
        prop_assert_eq!(&runs[0].1, &runs[1].1, "same seed, same fates");
        prop_assert_eq!(runs[0].2, runs[1].2, "same seed, same virtual clock");
    }
}
