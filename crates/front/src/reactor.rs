//! # Reactor mode — the event-loop session front-end
//!
//! The blocking [`Session`] API spends one OS thread per live session;
//! a fleet of 100k mostly-sleeping mobile clients would burn 100k
//! stacks to do nothing. Reactor mode inverts the ownership: a session
//! becomes an inert state machine (`SessionCore` — the blocking
//! `Session` plus an op program counter and a lifecycle phase) owned by
//! a small fixed pool of shard-affine worker loops. Each worker drives
//! its sessions off one MPSC op queue and a deadline-ordered
//! `TimerWheel`; a *Sleeping* session consumes no thread, no stack
//! and no queue slot — only its state machine and (at most) one timer
//! entry. Wakes are O(1) enqueues: a core that must wait parks under its
//! worker's `Inbox` in the front-end's wake registry — the same
//! registry a blocked thread parks in — and the signal that resumes or
//! aborts it lands straight on that worker's queue.
//!
//! Two drivers share the same per-worker state machine
//! (`WorkerState::handle`):
//!
//! - [`Reactor`] — one OS thread per worker, parked on `recv_timeout`
//!   bounded by the wheel's next deadline. No polling anywhere: an idle
//!   worker sleeps in the channel until a message or timer arrives.
//! - [`det::DetReactor`] — a single-threaded, seeded driver that picks
//!   the next non-empty queue pseudo-randomly and advances a virtual
//!   clock, exploring interleavings reproducibly for property tests.
//!
//! Equivalence with the blocking front is not assumed, it is proven:
//! `crates/check/tests/reactor_equivalence.rs` runs identical seeded
//! workloads through both fronts and asserts identical per-resource
//! final state and byte-identical acked-commit ledgers, then certifies
//! both trace sets with the serializability verifier.

use crate::timer::TimerWheel;
use crate::{
    AwakeOutcome, OneShot, Session, SessionOutcome, ShardedFront, Signal, TryExec, Waker,
    TICK_CADENCE,
};
use parking_lot::Mutex;
use pstm_core::gtm::CommitResult;
use pstm_obs::{Histogram, ReactorCensus, ReactorSnapshot, SpanKind};
use pstm_types::{AbortReason, PstmError, PstmResult, ResourceId, ScalarOp, Timestamp, TxnId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;

/// Reactor pool configuration.
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Worker loops in the fixed pool; `0` picks
    /// `min(shards, 2 × available CPU parallelism)`.
    pub workers: usize,
    /// Fallback cadence for ticking a shard that has waiting sessions —
    /// drives per-shard deadlock detection even when
    /// [`pstm_core::gtm::Gtm::next_wake_deadline`] reports no timeout
    /// deadline. Wait-timeout expiry itself is scheduled exactly off
    /// the reported deadline, not this cadence.
    pub tick_interval: std::time::Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig { workers: 0, tick_interval: TICK_CADENCE }
    }
}

/// One step of a session *program* — the scripted form a fleet driver
/// hands to [`Reactor::spawn_program`]. The worker runs steps in order;
/// a program that runs out of steps commits implicitly.
#[derive(Clone, Debug, PartialEq)]
pub enum ProgramStep {
    /// Execute one operation (parks the state machine if it must wait).
    Execute(ResourceId, ScalarOp),
    /// Disconnect for this many *virtual* microseconds, then awake.
    SleepFor(u64),
    /// Commit now (steps after this never run).
    Commit,
    /// Abort now (steps after this never run).
    Abort,
}

/// How a session ended, recorded in the reactor's commit ledger — the
/// acked outcome a client of the blocking API would have observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Committed; its write set is permanent.
    Committed,
    /// Aborted with the front-visible reason (deadlock victim, wait
    /// timeout, commit-time constraint violation, ...).
    Aborted(AbortReason),
    /// Aborted by [`Session::awake`] discovering incompatible activity
    /// while the session slept (paper Algorithm 9, third branch).
    AwakeAborted,
    /// The program requested the abort itself.
    UserAborted,
    /// An infrastructure error surfaced (engine failure, simulated
    /// crash); carries the error text.
    Failed(String),
}

/// What one [`StepOp`] answered — the payload a [`SessionHandle`] call
/// blocks on.
enum StepReply {
    /// `execute` settled with this outcome.
    Outcome(SessionOutcome),
    /// `sleep` completed.
    Slept,
    /// `awake` settled with this outcome.
    Awoke(AwakeOutcome),
    /// `commit` settled with this result.
    Committed(CommitResult),
    /// `abort` completed.
    Aborted,
}

/// The cell a [`SessionHandle`] call parks on for its reply.
type ReplyCell = Arc<OneShot<PstmResult<StepReply>>>;

/// One message on a worker's op queue.
enum Msg {
    /// Adopt a new session state machine.
    Spawn { core: Box<SessionCore>, enq_us: u64 },
    /// One blocking-API call relayed by a [`SessionHandle`].
    Step { txn: TxnId, op: StepOp, cell: ReplyCell, enq_us: u64 },
    /// A resume/abort signal for a core parked under this worker's inbox.
    Wake { txn: TxnId, signal: Signal, enq_us: u64 },
    /// Drain and exit the worker loop.
    Shutdown,
}

impl Msg {
    /// The session a message is addressed to, if any.
    fn txn(&self) -> Option<TxnId> {
        match self {
            Msg::Spawn { core, .. } => Some(core.session.id()),
            Msg::Step { txn, .. } | Msg::Wake { txn, .. } => Some(*txn),
            Msg::Shutdown => None,
        }
    }
}

/// The sending half of one worker's op queue, with its depth gauge: what
/// spawns and handle calls enqueue on, and the waker a parked core
/// registers in the front-end's wake registry.
#[derive(Clone)]
pub(crate) struct Inbox {
    tx: Sender<Msg>,
    shared: Arc<Shared>,
    worker: usize,
}

impl Inbox {
    /// One inbox (and its receiving half) per worker.
    fn pool(shared: &Arc<Shared>) -> (Vec<Inbox>, Vec<Receiver<Msg>>) {
        (0..shared.depth.len())
            .map(|worker| {
                let (tx, rx) = std::sync::mpsc::channel();
                (Inbox { tx, shared: Arc::clone(shared), worker }, rx)
            })
            .unzip()
    }

    /// Enqueues `msg`; `false` when the worker has shut down.
    fn send(&self, msg: Msg) -> bool {
        let depth = &self.shared.depth[self.worker];
        depth.fetch_add(1, Ordering::AcqRel);
        let sent = self.tx.send(msg).is_ok();
        if !sent {
            depth.fetch_sub(1, Ordering::AcqRel);
        }
        sent
    }

    /// Routes one signal to the parked core of `txn` (moot once the
    /// worker has shut down).
    pub(crate) fn wake(&self, txn: TxnId, signal: Signal, enq_us: u64) {
        self.send(Msg::Wake { txn, signal, enq_us });
    }
}

/// One session op, as a [`SessionHandle`] call or a [`ProgramStep`] asks
/// for it.
enum StepOp {
    /// [`Session::execute`].
    Execute(ResourceId, ScalarOp),
    /// [`Session::sleep`]; a program's `SleepFor` also arms the timer
    /// that awakens the session this many virtual microseconds later.
    Sleep(Option<u64>),
    /// [`Session::awake`].
    Awake,
    /// [`Session::commit`].
    Commit,
    /// [`Session::abort`].
    Abort,
}

/// A timer-wheel event.
enum TimerEv {
    /// A `SleepFor` elapsed: awaken the session.
    Awake(TxnId),
    /// Advance a shard's clock (wait timeouts, deadlock detection) while
    /// it has parked sessions.
    TickShard(usize),
}

/// Lifecycle phase of a session state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CorePhase {
    /// On (or runnable on) its worker.
    Running,
    /// Parked behind incompatible work on `shard`; a routed signal
    /// resumes or aborts it.
    Waiting(usize),
    /// Disconnected. No queue slot, no worker time; at most one
    /// timer-wheel entry (program mode) points back at it.
    Sleeping,
    /// Committed or aborted; the ledger holds its fate.
    Finished,
}

/// An inert session state machine: the blocking [`Session`] plus the
/// program counter and phase the worker needs to drive it from events.
struct SessionCore {
    session: Session,
    /// Scripted steps ([`Reactor::spawn_program`]); empty in handle mode.
    program: Vec<ProgramStep>,
    /// Next step to run.
    pc: usize,
    phase: CorePhase,
    /// Handle-mode only: the reply cell of a parked `execute`, filled
    /// when its signal is delivered.
    pending_reply: Option<ReplyCell>,
}

impl SessionCore {
    /// A fresh core over `session`, ready to ship to the worker that
    /// owns shard `home`'s sessions: the shard of the program's first
    /// executed resource (shard 0 for a program that executes nothing).
    fn new(
        front: &ShardedFront,
        session: Session,
        program: Vec<ProgramStep>,
    ) -> (Box<Self>, usize) {
        let home = program.iter().find_map(|step| match step {
            ProgramStep::Execute(resource, _) => Some(front.shard_of(*resource)),
            _ => None,
        });
        let core =
            SessionCore { session, program, pc: 0, phase: CorePhase::Running, pending_reply: None };
        (Box::new(core), home.unwrap_or(0))
    }
}

/// The acked-commit ledger: every finished session's fate, plus a
/// condvar so a fleet driver can block until `n` sessions finished.
struct Ledger {
    fates: std::sync::Mutex<BTreeMap<TxnId, Fate>>,
    cond: std::sync::Condvar,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger { fates: std::sync::Mutex::new(BTreeMap::new()), cond: std::sync::Condvar::new() }
    }

    fn record(&self, txn: TxnId, fate: Fate) {
        let mut fates = self.fates.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        fates.insert(txn, fate);
        self.cond.notify_all();
    }

    fn wait_finished(&self, n: usize) {
        let mut fates = self.fates.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while fates.len() < n {
            fates = self.cond.wait(fates).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn snapshot(&self) -> BTreeMap<TxnId, Fate> {
        self.fates.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }
}

/// Gauges and accumulators shared by the workers, the inboxes, and the
/// snapshot path. All atomics use acquire/release — the relaxed tier is
/// reserved for the audited seams.
struct Shared {
    /// Undelivered messages per worker queue.
    depth: Vec<AtomicU64>,
    running: AtomicU64,
    waiting: AtomicU64,
    sleeping: AtomicU64,
    finished: AtomicU64,
    /// Wakes dropped because the addressee was not waiting (benign —
    /// e.g. the wait already settled through another path).
    stale: AtomicU64,
    wake_hist: Mutex<Histogram>,
    timer_hist: Mutex<Histogram>,
    ledger: Ledger,
}

impl Shared {
    fn new(workers: usize) -> Shared {
        Shared {
            depth: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            running: AtomicU64::new(0),
            waiting: AtomicU64::new(0),
            sleeping: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            wake_hist: Mutex::new(Histogram::new()),
            timer_hist: Mutex::new(Histogram::new()),
            ledger: Ledger::new(),
        }
    }

    fn gauge(&self, phase: CorePhase) -> &AtomicU64 {
        match phase {
            CorePhase::Running => &self.running,
            CorePhase::Waiting(_) => &self.waiting,
            CorePhase::Sleeping => &self.sleeping,
            CorePhase::Finished => &self.finished,
        }
    }

    fn census(&self) -> ReactorCensus {
        ReactorCensus {
            running: self.running.load(Ordering::Acquire),
            waiting: self.waiting.load(Ordering::Acquire),
            sleeping: self.sleeping.load(Ordering::Acquire),
            finished: self.finished.load(Ordering::Acquire),
        }
    }

    fn snapshot(&self) -> ReactorSnapshot {
        ReactorSnapshot {
            queue_depth: self.depth.iter().map(|d| d.load(Ordering::Acquire)).collect(),
            wake_latency_us: self.wake_hist.lock().clone(),
            timer_lag_us: self.timer_hist.lock().clone(),
            census: self.census(),
            stale_wakes: self.stale.load(Ordering::Acquire),
        }
    }
}

/// Everything one worker owns: its sessions, its timer wheel, and its
/// per-shard wait accounting. Transport-free — both the threaded loop
/// and the deterministic driver feed it through [`WorkerState::handle`]
/// and [`WorkerState::fire_due`], so the property tests exercise the
/// exact state machine production runs.
struct WorkerState {
    front: ShardedFront,
    /// This worker's own inbox: the waker its parked cores register.
    inbox: Inbox,
    cores: BTreeMap<TxnId, SessionCore>,
    wheel: TimerWheel<TimerEv>,
    /// Sessions of this worker parked per shard — while non-zero the
    /// shard keeps a tick timer armed.
    waiting_on: BTreeMap<usize, u64>,
    /// Shards with a tick timer currently in the wheel.
    tick_armed: BTreeSet<usize>,
    tick_us: u64,
}

impl WorkerState {
    fn new(front: ShardedFront, inbox: Inbox, tick_us: u64) -> WorkerState {
        WorkerState {
            front,
            inbox,
            cores: BTreeMap::new(),
            wheel: TimerWheel::new(),
            waiting_on: BTreeMap::new(),
            tick_armed: BTreeSet::new(),
            tick_us,
        }
    }

    fn shared(&self) -> &Shared {
        &self.inbox.shared
    }

    /// Moves a core between lifecycle phases, keeping the census gauges
    /// exact.
    fn set_phase(&self, core: &mut SessionCore, next: CorePhase) {
        if core.phase != next {
            self.shared().gauge(core.phase).fetch_sub(1, Ordering::AcqRel);
            self.shared().gauge(next).fetch_add(1, Ordering::AcqRel);
            core.phase = next;
        }
    }

    /// Puts a core back in the worker's map — unless it finished: a
    /// finished core is dropped, not retained (a 100k-session fleet must
    /// not carry 100k dead state machines to shutdown). Late steps then
    /// find no core; late wakes count stale.
    fn keep(&mut self, core: SessionCore) {
        if core.phase != CorePhase::Finished {
            self.cores.insert(core.session.id(), core);
        }
    }

    /// Parks a core behind `shard` under this worker's inbox and makes
    /// sure the shard's clock keeps advancing while anyone waits on it.
    fn park_on(&mut self, core: &mut SessionCore, shard: usize, now_us: u64) {
        self.set_phase(core, CorePhase::Waiting(shard));
        *self.waiting_on.entry(shard).or_insert(0) += 1;
        self.front.park(core.session.id(), Waker::Worker(self.inbox.clone()));
        self.arm_tick(shard, now_us);
    }

    /// Ends a core's wait on `shard` (resume or abort — either way the
    /// shard has one fewer waiter from this worker).
    fn unpark_from(&mut self, shard: usize) {
        if let Some(n) = self.waiting_on.get_mut(&shard) {
            *n -= 1;
            if *n == 0 {
                self.waiting_on.remove(&shard);
            }
        }
    }

    /// While this worker has cores parked on `shard`, keeps exactly one
    /// tick timer for it in the wheel: ticks the shard now and schedules
    /// the next tick where [`ShardedFront::tick_shard`] says.
    fn arm_tick(&mut self, shard: usize, now_us: u64) {
        if self.waiting_on.contains_key(&shard) && self.tick_armed.insert(shard) {
            let at = self.front.tick_shard(shard, now_us, self.tick_us);
            self.wheel.schedule_at(at, TimerEv::TickShard(shard));
        }
    }

    /// One message. `now_us` is the driver's clock — wall microseconds
    /// in threaded mode, the virtual clock in deterministic mode.
    fn handle(&mut self, msg: Msg, now_us: u64) {
        self.shared().depth[self.inbox.worker].fetch_sub(1, Ordering::AcqRel);
        // Every carried message pays an enqueue→delivery latency; the
        // histogram is what the fleet bench reports as wake p50/p99.
        if let Msg::Spawn { enq_us, .. } | Msg::Step { enq_us, .. } | Msg::Wake { enq_us, .. } =
            &msg
        {
            self.shared().wake_hist.lock().record(now_us.saturating_sub(*enq_us));
        }
        match msg {
            Msg::Spawn { core, .. } => {
                let mut core = *core;
                self.shared().gauge(CorePhase::Running).fetch_add(1, Ordering::AcqRel);
                self.run_program(&mut core, now_us);
                self.keep(core);
            }
            Msg::Step { txn, op, cell, .. } => {
                let Some(mut core) = self.cores.remove(&txn) else {
                    cell.fill(Err(PstmError::InvalidState {
                        txn,
                        action: "reactor-step",
                        state: "finished",
                    }));
                    return;
                };
                match self.apply(&mut core, op, now_us) {
                    Some(reply) => cell.fill(reply),
                    None => core.pending_reply = Some(cell),
                }
                self.keep(core);
            }
            Msg::Wake { txn, signal, enq_us } => self.handle_wake(txn, signal, enq_us, now_us),
            Msg::Shutdown => {}
        }
    }

    /// THE step function, for every op of every core in either mode: call
    /// the [`Session`] op, move the phase gauge, record the fate of a
    /// session it finished, and return the reply for whoever asked.
    /// `None`: the op parked, and its reply comes with the wake.
    fn apply(
        &mut self,
        core: &mut SessionCore,
        op: StepOp,
        now_us: u64,
    ) -> Option<PstmResult<StepReply>> {
        let txn = core.session.id();
        let result = match op {
            StepOp::Execute(resource, op) => match core.session.try_execute(resource, op) {
                Ok(TryExec::Parked { shard }) => {
                    self.park_on(core, shard, now_us);
                    return None;
                }
                Ok(TryExec::Done(outcome)) => Ok(StepReply::Outcome(outcome)),
                Err(e) => Err(e),
            },
            StepOp::Sleep(nap) => core.session.sleep().map(|()| {
                if let Some(us) = nap {
                    self.wheel.schedule_at(now_us.saturating_add(us), TimerEv::Awake(txn));
                }
                StepReply::Slept
            }),
            StepOp::Awake => core.session.awake().map(StepReply::Awoke),
            StepOp::Commit => core.session.commit().map(StepReply::Committed),
            StepOp::Abort => core.session.abort().map(|()| StepReply::Aborted),
        };
        Some(self.settle(core, result))
    }

    /// The second half of [`WorkerState::apply`], shared with a parked
    /// op's wake: the phase a reply implies, or the fate it seals.
    fn settle(
        &mut self,
        core: &mut SessionCore,
        result: PstmResult<StepReply>,
    ) -> PstmResult<StepReply> {
        let fate = match &result {
            Ok(StepReply::Outcome(SessionOutcome::Value(_)))
            | Ok(StepReply::Awoke(AwakeOutcome::Resumed(_))) => {
                self.set_phase(core, CorePhase::Running);
                return result;
            }
            Ok(StepReply::Slept) => {
                self.set_phase(core, CorePhase::Sleeping);
                return result;
            }
            Ok(StepReply::Outcome(SessionOutcome::Aborted(reason)))
            | Ok(StepReply::Committed(CommitResult::Aborted(reason))) => Fate::Aborted(*reason),
            Ok(StepReply::Committed(CommitResult::Committed)) => Fate::Committed,
            Ok(StepReply::Awoke(AwakeOutcome::Aborted)) => Fate::AwakeAborted,
            Ok(StepReply::Aborted) => Fate::UserAborted,
            Err(e) => {
                core.session.forget_wakes();
                Fate::Failed(e.to_string())
            }
        };
        self.set_phase(core, CorePhase::Finished);
        self.shared().ledger.record(core.session.id(), fate);
        result
    }

    /// Runs a program-mode core forward until it parks, sleeps, or
    /// finishes. Handle-mode cores (empty program) are driven by `Step`
    /// messages instead.
    fn run_program(&mut self, core: &mut SessionCore, now_us: u64) {
        while core.phase == CorePhase::Running && !core.program.is_empty() {
            let op = match core.program.get(core.pc) {
                Some(ProgramStep::Execute(resource, op)) => StepOp::Execute(*resource, op.clone()),
                Some(ProgramStep::SleepFor(us)) => StepOp::Sleep(Some(*us)),
                Some(ProgramStep::Abort) => StepOp::Abort,
                // A program that runs out of steps commits implicitly.
                Some(ProgramStep::Commit) | None => StepOp::Commit,
            };
            core.pc += 1;
            self.apply(core, op, now_us);
        }
    }

    /// Marks the retroactive `queued` span: opened at enqueue time,
    /// closed at delivery — its width *is* the wake latency, visible in
    /// the same trace as the session's other phases.
    fn mark_queued_span(core: &mut SessionCore, enq_us: u64, now_us: u64) {
        let s = &mut core.session;
        if let Some(home) = s.home {
            let (opened, closed) = (Timestamp(enq_us), Timestamp(now_us.max(enq_us)));
            crate::mark(
                &s.front,
                &mut s.spans,
                (home, s.id),
                (opened, None),
                [(SpanKind::Queued, true)],
            );
            crate::mark(
                &s.front,
                &mut s.spans,
                (home, s.id),
                (closed, None),
                [(SpanKind::Queued, false)],
            );
        }
    }

    /// The signal a parked core waited for: settle the parked op, then
    /// answer the handle that asked, or continue the program.
    fn handle_wake(&mut self, txn: TxnId, signal: Signal, enq_us: u64, now_us: u64) {
        let Some(mut core) = self.cores.remove(&txn) else {
            self.shared().stale.fetch_add(1, Ordering::AcqRel);
            return;
        };
        if let CorePhase::Waiting(shard) = core.phase {
            Self::mark_queued_span(&mut core, enq_us, now_us);
            self.unpark_from(shard);
            let delivered = core.session.deliver(shard, signal).map(StepReply::Outcome);
            let reply = self.settle(&mut core, delivered);
            match core.pending_reply.take() {
                Some(cell) => cell.fill(reply),
                None => self.run_program(&mut core, now_us),
            }
        } else {
            // Delivered, finished, or back asleep through another path:
            // benign, counted, dropped (awake() re-discovers aborts).
            self.shared().stale.fetch_add(1, Ordering::AcqRel);
        }
        self.keep(core);
    }

    /// Fires every due timer. Returns how many fired.
    fn fire_due(&mut self, now_us: u64) -> usize {
        let mut fired = 0;
        while let Some((deadline, ev)) = self.wheel.pop_due(now_us) {
            fired += 1;
            self.shared().timer_hist.lock().record(now_us.saturating_sub(deadline));
            match ev {
                // A `SleepFor` elapsed: reconnect the session and
                // continue its program.
                TimerEv::Awake(txn) => {
                    let Some(mut core) = self.cores.remove(&txn) else { continue };
                    if core.phase == CorePhase::Sleeping {
                        self.apply(&mut core, StepOp::Awake, now_us);
                        self.run_program(&mut core, now_us);
                    }
                    self.keep(core);
                }
                // A shard tick fired: advance its clock (waking or
                // aborting timed out waiters through the signal path) and
                // re-arm while this worker still has sessions parked on it.
                TimerEv::TickShard(shard) => {
                    self.tick_armed.remove(&shard);
                    self.arm_tick(shard, now_us);
                }
            }
        }
        fired
    }
}

/// The threaded reactor: a fixed pool of worker loops over one
/// [`ShardedFront`]; `shutdown` joins the pool.
pub struct Reactor {
    front: ShardedFront,
    inboxes: Arc<[Inbox]>,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Reactor {
    /// Starts `config.workers` (or the auto pick) worker loops over
    /// `front`.
    pub fn start(front: ShardedFront, config: ReactorConfig) -> PstmResult<Reactor> {
        let auto = std::thread::available_parallelism().map_or(4, |n| n.get()) * 2;
        let workers =
            if config.workers == 0 { front.shards().min(auto).max(1) } else { config.workers };
        let tick_us = config.tick_interval.as_micros().min(u128::from(u64::MAX)) as u64;
        let shared = Arc::new(Shared::new(workers));
        let (inboxes, rxs) = Inbox::pool(&shared);
        let mut threads = Vec::with_capacity(workers);
        for (inbox, rx) in inboxes.iter().zip(rxs) {
            let worker = inbox.worker;
            let state = WorkerState::new(front.clone(), inbox.clone(), tick_us);
            let handle = std::thread::Builder::new()
                .name(format!("pstm-reactor-{worker}"))
                .spawn(move || worker_loop(state, &rx))
                .map_err(|e| PstmError::Io(format!("spawn reactor worker {worker}: {e}")))?;
            threads.push(handle);
        }
        Ok(Reactor { front, inboxes: inboxes.into(), shared, threads })
    }

    /// Worker pool size.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.inboxes.len()
    }

    /// The owner worker for a session whose home shard is `home`:
    /// shard-affine, so one shard's sessions never contend across
    /// workers for their shard's lock.
    // pstm-lockgraph: event-loop — routing on the reactor hot path; a
    // lock here would serialize every spawn and wake.
    #[must_use]
    fn owner_of(&self, home: usize) -> usize {
        home % self.inboxes.len()
    }

    /// Spawns a scripted session (see [`ProgramStep`]); the worker runs
    /// it to completion, parking it through waits and sleeps. Returns
    /// its transaction id — look the outcome up in [`Reactor::ledger`]
    /// after [`Reactor::wait_finished`].
    pub fn spawn_program(&self, program: Vec<ProgramStep>) -> TxnId {
        let session = self.front.session();
        let txn = session.id();
        let (core, home) = SessionCore::new(&self.front, session, program);
        self.inboxes[self.owner_of(home)].send(Msg::Spawn { core, enq_us: self.front.now().0 });
        txn
    }

    /// Opens an API-compatible session handle: same call surface as the
    /// blocking [`Session`], each call relayed to the owner worker and
    /// blocked on a reply cell.
    #[must_use]
    pub fn handle(&self) -> SessionHandle {
        let session = self.front.session();
        SessionHandle {
            front: self.front.clone(),
            inboxes: Arc::clone(&self.inboxes),
            txn: session.id(),
            boot: Some(session),
            owner: None,
        }
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

    /// Blocks until `n` sessions have finished (ledger size).
    pub fn wait_finished(&self, n: usize) {
        self.shared.ledger.wait_finished(n);
    }

    /// The acked-commit ledger: every finished session's fate.
    #[must_use]
    pub fn ledger(&self) -> BTreeMap<TxnId, Fate> {
        self.shared.ledger.snapshot()
    }

    /// Stops and joins the worker pool.
    pub fn shutdown(self) {
        for inbox in self.inboxes.iter() {
            let _ = inbox.tx.send(Msg::Shutdown);
        }
        for handle in self.threads {
            let _ = handle.join();
        }
    }
}

/// The threaded worker loop: fire due timers, then park in the channel
/// bounded by the wheel's next deadline. No polling — an idle worker
/// sleeps until a message or timer arrives.
fn worker_loop(mut state: WorkerState, rx: &Receiver<Msg>) {
    loop {
        let now_us = state.front.now().0;
        state.fire_due(now_us);
        let msg = match state.wheel.next_deadline() {
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => return,
            },
            Some(at) => {
                let now_us = state.front.now().0;
                if at <= now_us {
                    continue;
                }
                match rx.recv_timeout(std::time::Duration::from_micros(at - now_us)) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        };
        if matches!(msg, Msg::Shutdown) {
            // Shutdown is not depth-accounted (it carries no work).
            return;
        }
        let now_us = state.front.now().0;
        state.handle(msg, now_us);
    }
}

/// A façade over one reactor-owned session, API-compatible with the
/// blocking [`Session`]: `execute` / `sleep` / `awake` / `commit` /
/// `abort` with the same signatures and outcomes. Each call enqueues a
/// step on the owner worker and blocks the *calling* thread on a reply
/// cell — the worker itself never blocks on another session.
pub struct SessionHandle {
    front: ShardedFront,
    inboxes: Arc<[Inbox]>,
    txn: TxnId,
    /// The not-yet-adopted session; shipped to a worker on first use so
    /// the owner can be chosen shard-affine to the first touched
    /// resource.
    boot: Option<Session>,
    owner: Option<usize>,
}

impl SessionHandle {
    /// This session's transaction id.
    #[must_use]
    pub fn id(&self) -> TxnId {
        self.txn
    }

    /// Relays one op to the owner worker — adopting the boot session
    /// there on the first call, on worker `affinity` if the op names one
    /// — and parks on the reply, which `pick` unwraps.
    fn step<T>(
        &mut self,
        affinity: Option<usize>,
        action: &'static str,
        op: StepOp,
        pick: impl FnOnce(StepReply) -> Option<T>,
    ) -> PstmResult<T> {
        let workers = self.inboxes.len();
        let owner = *self.owner.get_or_insert(affinity.unwrap_or(self.txn.0 as usize) % workers);
        let inbox = &self.inboxes[owner];
        if let Some(session) = self.boot.take() {
            let (core, _) = SessionCore::new(&self.front, session, Vec::new());
            inbox.send(Msg::Spawn { core, enq_us: self.front.now().0 });
        }
        let cell = Arc::new(OneShot::new());
        let enq_us = self.front.now().0;
        if !inbox.send(Msg::Step { txn: self.txn, op, cell: Arc::clone(&cell), enq_us }) {
            return Err(PstmError::Io("reactor is shut down".into()));
        }
        let reply =
            cell.take(None).ok_or_else(|| PstmError::internal("reply cell woke empty"))??;
        pick(reply).ok_or(PstmError::InvalidState {
            txn: self.txn,
            action,
            state: "mismatched reactor reply",
        })
    }

    /// See [`Session::execute`].
    pub fn execute(&mut self, resource: ResourceId, op: ScalarOp) -> PstmResult<SessionOutcome> {
        let home = self.front.shard_of(resource);
        self.step(Some(home), "execute", StepOp::Execute(resource, op), |reply| match reply {
            StepReply::Outcome(outcome) => Some(outcome),
            _ => None,
        })
    }

    /// See [`Session::sleep`].
    pub fn sleep(&mut self) -> PstmResult<()> {
        self.step(None, "sleep", StepOp::Sleep(None), |reply| {
            matches!(reply, StepReply::Slept).then_some(())
        })
    }

    /// See [`Session::awake`].
    pub fn awake(&mut self) -> PstmResult<AwakeOutcome> {
        self.step(None, "awake", StepOp::Awake, |reply| match reply {
            StepReply::Awoke(outcome) => Some(outcome),
            _ => None,
        })
    }

    /// See [`Session::commit`].
    pub fn commit(&mut self) -> PstmResult<CommitResult> {
        self.step(None, "commit", StepOp::Commit, |reply| match reply {
            StepReply::Committed(result) => Some(result),
            _ => None,
        })
    }

    /// See [`Session::abort`].
    pub fn abort(&mut self) -> PstmResult<()> {
        self.step(None, "abort", StepOp::Abort, |reply| {
            matches!(reply, StepReply::Aborted).then_some(())
        })
    }
}

pub mod det;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrontConfig;
    use pstm_types::{ScalarOp, Value};
    use pstm_workload::world::counter_world;

    fn config(shards: usize) -> FrontConfig {
        FrontConfig { shards, ..FrontConfig::default() }
    }

    #[test]
    fn spawned_programs_commit_and_ledger_records_them() {
        let world = counter_world(8, 10).expect("world");
        let front = ShardedFront::new(world.db, world.bindings, config(4));
        let reactor =
            Reactor::start(front.clone(), ReactorConfig::default()).expect("reactor starts");
        let mut txns = Vec::new();
        for (i, r) in world.resources.iter().enumerate() {
            txns.push(reactor.spawn_program(vec![
                ProgramStep::Execute(*r, ScalarOp::Add(Value::Int(i as i64 + 1))),
                ProgramStep::Commit,
            ]));
        }
        reactor.wait_finished(txns.len());
        let ledger = reactor.ledger();
        for txn in &txns {
            assert_eq!(ledger.get(txn), Some(&Fate::Committed), "txn {txn:?}");
        }
        let census = reactor.census();
        assert_eq!(census.finished, txns.len() as u64);
        assert_eq!(census.live(), 0);
        reactor.shutdown();
        front.verify_serializable().expect("serializable");
        for (i, r) in world.resources.iter().enumerate() {
            assert_eq!(
                front.resource_value(*r).expect("value"),
                pstm_types::Value::Int(10 + i as i64 + 1)
            );
        }
    }

    #[test]
    fn handle_is_api_compatible_with_blocking_session() {
        let world = counter_world(4, 5).expect("world");
        let front = ShardedFront::new(world.db, world.bindings, config(2));
        let reactor =
            Reactor::start(front.clone(), ReactorConfig::default()).expect("reactor starts");
        let mut handle = reactor.handle();
        let r = world.resources[0];
        let out = handle.execute(r, ScalarOp::Add(Value::Int(3))).expect("execute");
        assert_eq!(out, SessionOutcome::Value(pstm_types::Value::Int(8)));
        handle.sleep().expect("sleep");
        assert_eq!(reactor.census().sleeping, 1);
        match handle.awake().expect("awake") {
            AwakeOutcome::Resumed(_) => {}
            AwakeOutcome::Aborted => panic!("uncontended awake must resume"),
        }
        assert_eq!(handle.commit().expect("commit"), CommitResult::Committed);
        reactor.shutdown();
        assert_eq!(front.resource_value(r).expect("value"), pstm_types::Value::Int(8));
    }

    #[test]
    fn sleeping_fleet_holds_no_queue_slots() {
        let world = counter_world(4, 0).expect("world");
        let front = ShardedFront::new(world.db, world.bindings, config(2));
        let reactor =
            Reactor::start(front.clone(), ReactorConfig::default()).expect("reactor starts");
        let n = 64;
        for i in 0..n {
            let r = world.resources[i % world.resources.len()];
            reactor.spawn_program(vec![
                ProgramStep::Execute(r, ScalarOp::Add(Value::Int(1))),
                ProgramStep::SleepFor(5_000_000),
                ProgramStep::Commit,
            ]);
        }
        // Wait until the whole fleet is asleep, then check the queues.
        for _ in 0..2_000 {
            if reactor.census().sleeping == n as u64 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = reactor.snapshot();
        assert_eq!(snap.census.sleeping, n as u64, "fleet should be asleep");
        assert_eq!(
            snap.queue_depth.iter().sum::<u64>(),
            0,
            "sleeping sessions must hold zero queue slots: {:?}",
            snap.queue_depth
        );
        assert!((snap.census.sleeping_fraction() - 1.0).abs() < 1e-12);
        reactor.shutdown();
    }

    #[test]
    fn contended_execute_parks_and_wakes_through_the_registry() {
        // Two handles conflict on one counter: the second must park
        // (zero polling) and resume when the first commits.
        let world = counter_world(1, 0).expect("world");
        let front = ShardedFront::new(world.db, world.bindings, config(1));
        let reactor =
            Reactor::start(front.clone(), ReactorConfig::default()).expect("reactor starts");
        let r = world.resources[0];
        let mut first = reactor.handle();
        assert!(matches!(
            first.execute(r, ScalarOp::Assign(Value::Int(7))).expect("first execute"),
            SessionOutcome::Value(_)
        ));
        let mut second = reactor.handle();
        let waiter = std::thread::spawn(move || {
            let out = second.execute(r, ScalarOp::Assign(Value::Int(9))).expect("second execute");
            (out, second)
        });
        // The waiter parks behind the incompatible Assign.
        for _ in 0..2_000 {
            if reactor.census().waiting == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(reactor.census().waiting, 1, "second session should be parked");
        assert_eq!(first.commit().expect("first commit"), CommitResult::Committed);
        let (out, mut second) = waiter.join().expect("waiter thread");
        assert_eq!(out, SessionOutcome::Value(pstm_types::Value::Int(9)));
        assert_eq!(second.commit().expect("second commit"), CommitResult::Committed);
        let snap = reactor.snapshot();
        assert!(snap.wake_latency_us.total() >= 1, "the wake must be measured");
        reactor.shutdown();
        assert_eq!(front.resource_value(r).expect("value"), pstm_types::Value::Int(9));
        front.verify_serializable().expect("serializable");
    }
}
