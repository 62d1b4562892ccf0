//! # Deterministic reactor driver
//!
//! [`DetReactor`] drives the exact worker state machine the threaded
//! reactor runs ([`super::Reactor`] and this driver share
//! `WorkerState::handle` / `WorkerState::fire_due` verbatim) from one
//! thread, with:
//!
//! - **virtual time** — a `u64` clock that only moves when the driver
//!   moves it (one tick per handled message; jumps to the earliest
//!   timer deadline when every queue is idle);
//! - **seeded scheduling** — the next non-empty worker queue is picked
//!   by an xorshift generator, so a seed *is* an interleaving and
//!   replaying the seed replays the run;
//! - **a step history** — one line per scheduling decision, letting
//!   property tests assert structural facts (no double delivery, no
//!   worker time charged to a sleeping session) and that identical
//!   seeds produce identical histories.
//!
//! Wakes produced while handling a message (sessions resuming other
//! sessions) land in the owner worker's [`Inbox`] channel like in the
//! threaded reactor; the driver moves them into the owner's queue between
//! steps, in arrival order, stamped with the virtual clock.

use super::{CorePhase, Fate, Inbox, Msg, ProgramStep, SessionCore, Shared, WorkerState};
use crate::{ShardedFront, Signal};
use pstm_obs::{ReactorCensus, ReactorSnapshot};
use pstm_types::TxnId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

/// Single-threaded deterministic reactor (see module docs).
pub struct DetReactor {
    front: ShardedFront,
    shared: Arc<Shared>,
    states: Vec<WorkerState>,
    queues: Vec<VecDeque<Msg>>,
    /// Receiving halves of the workers' inboxes: routed wakes buffer
    /// here until [`DetReactor::pump`] moves them into `queues`.
    wakes: Vec<Receiver<Msg>>,
    clock: u64,
    rng: u64,
    history: Vec<String>,
}

impl DetReactor {
    /// Builds a deterministic reactor of `workers` loops over `front`,
    /// scheduling with `seed`.
    #[must_use]
    pub fn new(front: ShardedFront, workers: usize, seed: u64) -> DetReactor {
        let workers = workers.max(1);
        let shared = Arc::new(Shared::new(workers));
        let (inboxes, wakes) = Inbox::pool(&shared);
        let states = inboxes
            .into_iter()
            // Virtual time: a 1-tick-per-step clock means the fallback
            // tick cadence must stay small or wait timeouts would
            // starve; deadlines re-arm off the shard's exact report.
            .map(|inbox| WorkerState::new(front.clone(), inbox, 16))
            .collect();
        DetReactor {
            front,
            shared,
            states,
            queues: (0..workers).map(|_| VecDeque::new()).collect(),
            wakes,
            clock: 0,
            rng: seed | 1,
            history: Vec::new(),
        }
    }

    fn next_rng(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Moves routed wakes into their owner queues, arrival order,
    /// enqueue-stamped with the virtual clock.
    fn pump(&mut self) {
        for (wakes, queue) in self.wakes.iter().zip(&mut self.queues) {
            while let Ok(mut msg) = wakes.try_recv() {
                if let Msg::Wake { enq_us, .. } = &mut msg {
                    *enq_us = self.clock;
                }
                queue.push_back(msg);
            }
        }
    }

    /// Spawns a scripted session (same contract as
    /// [`super::Reactor::spawn_program`]), enqueued but not yet run —
    /// call [`DetReactor::run_to_quiescence`] to drive it.
    pub fn spawn_program(&mut self, program: Vec<ProgramStep>) -> TxnId {
        let session = self.front.session();
        let txn = session.id();
        let (core, home) = SessionCore::new(&self.front, session, program);
        let owner = home % self.states.len();
        self.shared.depth[owner].fetch_add(1, Ordering::AcqRel);
        self.queues[owner].push_back(Msg::Spawn { core, enq_us: self.clock });
        txn
    }

    /// One scheduling step: route pending wakes, then either handle one
    /// message from a seeded-random non-empty queue, or — if every
    /// queue is idle — jump the clock to the earliest timer deadline
    /// across workers and fire it. Returns `false` at quiescence
    /// (no messages, no wakes, no timers).
    pub fn step(&mut self) -> bool {
        self.pump();
        let nonempty: Vec<usize> =
            (0..self.queues.len()).filter(|&w| !self.queues[w].is_empty()).collect();
        if nonempty.is_empty() {
            // Idle: advance virtual time to the earliest timer.
            let mut best: Option<(u64, usize)> = None;
            for (w, state) in self.states.iter().enumerate() {
                if let Some(at) = state.wheel.next_deadline() {
                    if best.is_none_or(|(b, _)| at < b) {
                        best = Some((at, w));
                    }
                }
            }
            let Some((at, w)) = best else { return false };
            self.clock = self.clock.max(at);
            let fired = self.states[w].fire_due(self.clock);
            self.history.push(format!("t={} worker={w} timer fired={fired}", self.clock));
            return true;
        }
        let pick = nonempty[(self.next_rng() % nonempty.len() as u64) as usize];
        // One message per tick keeps enqueue/delivery ordering total.
        self.clock += 1;
        let Some(msg) = self.queues[pick].pop_front() else { return true };
        self.history.push(format!("t={} worker={pick} {}", self.clock, describe(&msg)));
        self.states[pick].handle(msg, self.clock);
        true
    }

    /// Runs until quiescent. Returns the number of steps taken.
    pub fn run_to_quiescence(&mut self) -> usize {
        let mut steps = 0;
        while self.step() {
            steps += 1;
            assert!(steps < 10_000_000, "deterministic reactor failed to quiesce");
        }
        steps
    }

    /// The scheduling history so far (one line per step) — identical
    /// seeds and identical spawn sequences produce identical histories.
    #[must_use]
    pub fn history(&self) -> &[String] {
        &self.history
    }

    /// Messages currently enqueued that are addressed to `txn` — a
    /// *Sleeping* session must always report zero.
    #[must_use]
    pub fn queued_msgs_for(&self, txn: TxnId) -> usize {
        self.queues.iter().flatten().filter(|m| m.txn() == Some(txn)).count()
    }

    /// The lifecycle phase of `txn`, as the census names it (`None`
    /// once the core is dropped or before it is spawned-in).
    #[must_use]
    pub fn phase_name(&self, txn: TxnId) -> Option<&'static str> {
        for state in &self.states {
            if let Some(core) = state.cores.get(&txn) {
                return Some(match core.phase {
                    CorePhase::Running => "running",
                    CorePhase::Waiting(_) => "waiting",
                    CorePhase::Sleeping => "sleeping",
                    CorePhase::Finished => "finished",
                });
            }
        }
        None
    }

    /// Session census from the shared gauges.
    #[must_use]
    pub fn census(&self) -> ReactorCensus {
        self.shared.census()
    }

    /// Queue/wake/timer observability snapshot.
    #[must_use]
    pub fn snapshot(&self) -> ReactorSnapshot {
        self.shared.snapshot()
    }

    /// The acked-commit ledger.
    #[must_use]
    pub fn ledger(&self) -> BTreeMap<TxnId, Fate> {
        self.shared.ledger.snapshot()
    }

    /// Wakes dropped as stale so far.
    #[must_use]
    pub fn stale_wakes(&self) -> u64 {
        self.shared.stale.load(Ordering::Acquire)
    }

    /// The virtual clock.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Ends the run; the front stays usable.
    pub fn shutdown(self) {}
}

fn describe(msg: &Msg) -> String {
    match msg {
        Msg::Spawn { core, .. } => format!("spawn txn={}", core.session.id().0),
        Msg::Step { txn, .. } => format!("step txn={}", txn.0),
        Msg::Wake { txn, signal, .. } => {
            let kind = match signal {
                Signal::Resumed(_) => "resumed",
                Signal::Aborted(_) => "aborted",
            };
            format!("wake txn={} {kind}", txn.0)
        }
        Msg::Shutdown => "shutdown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrontConfig;
    use pstm_types::{ScalarOp, Value};
    use pstm_workload::world::counter_world;

    fn det_front(shards: usize) -> (ShardedFront, Vec<pstm_types::ResourceId>) {
        let world = counter_world(shards * 2, 0).expect("world");
        let config = FrontConfig { shards, ..FrontConfig::default() };
        (ShardedFront::new(world.db, world.bindings, config), world.resources)
    }

    #[test]
    fn seeded_run_commits_everything_deterministically() {
        let mut ledgers = Vec::new();
        let mut histories = Vec::new();
        for _ in 0..2 {
            let (front, resources) = det_front(2);
            let mut det = DetReactor::new(front.clone(), 2, 0xBEEF);
            for (i, r) in resources.iter().enumerate() {
                det.spawn_program(vec![
                    ProgramStep::Execute(*r, ScalarOp::Add(Value::Int(i as i64 + 1))),
                    ProgramStep::Commit,
                ]);
            }
            det.run_to_quiescence();
            assert!(det.ledger().values().all(|f| *f == Fate::Committed), "{:?}", det.ledger());
            ledgers.push(det.ledger());
            histories.push(det.history().to_vec());
            det.shutdown();
            front.verify_serializable().expect("serializable");
        }
        assert_eq!(ledgers[0], ledgers[1], "same seed, same fates");
        assert_eq!(histories[0], histories[1], "same seed, same schedule");
    }

    #[test]
    fn sleeping_session_costs_nothing_until_its_timer() {
        let (front, resources) = det_front(1);
        let mut det = DetReactor::new(front.clone(), 1, 7);
        let sleeper = det.spawn_program(vec![
            ProgramStep::Execute(resources[0], ScalarOp::Add(Value::Int(1))),
            ProgramStep::SleepFor(1_000),
            ProgramStep::Commit,
        ]);
        // Drain until the only thing left is the sleeper's timer.
        while det.census().sleeping == 0 {
            assert!(det.step(), "sleeper must reach Sleeping before quiescence");
        }
        assert_eq!(det.phase_name(sleeper), Some("sleeping"));
        assert_eq!(det.queued_msgs_for(sleeper), 0, "zero queue slots while sleeping");
        det.run_to_quiescence();
        assert_eq!(det.ledger().get(&sleeper), Some(&Fate::Committed));
        det.shutdown();
    }
}
