//! # pstm-front — a thread-safe sharded front-end over the GTM
//!
//! The core [`Gtm`] is single-threaded by design: the paper's algorithms
//! are specified against one manager mediating every invocation, and the
//! simulator drives it from a deterministic event loop. Real mobile
//! infrastructure terminates many concurrent client sessions at once, so
//! this crate partitions the resource space across `N` independent GTM
//! *shards* — each its own [`Mutex<Gtm>`] over the shared LDBS — and
//! exposes a blocking, session-oriented API
//! ([`Session::execute`] / [`Session::sleep`] / [`Session::awake`] /
//! [`Session::commit`] / [`Session::abort`]) safe to call from any OS
//! thread.
//!
//! Design points:
//!
//! - **Deterministic routing.** A resource lives on exactly one shard:
//!   `shard_of(r) = r.object.0 % N`. All scheduling state for a resource
//!   (pending/committing sets, wait queues, read snapshots) is owned by
//!   that shard, so the paper's per-resource algorithms run unchanged.
//! - **One commit path.** Every session commits through `pstm-core`'s
//!   coordinator ([`commit_wave`]) as a wave member: shards are locked in
//!   ascending index order (no lock cycles between committers),
//!   [`Gtm::commit_local`] reconciles each shard's resources, and the
//!   per-shard write sets are folded into **one** SST against the shared
//!   [`Database`] — the global commit stays atomic across shards because
//!   the SST applies its write set all-or-nothing — flushed with no shard
//!   mutex held. [`Gtm::commit_finish`] / [`Gtm::commit_abort`] then
//!   settle each shard's bookkeeping. Single-shard committers that meet
//!   at their shard's flush fence *are* the wave: whoever holds the fence
//!   commits everything queued there as one fused SST. This crate only
//!   supplies the coordinator's environment (locks, wall clock, wake
//!   registry) and that per-shard queue.
//! - **Wall-clock bridge.** Shards speak the virtual-clock
//!   [`Timestamp`]; the front-end stamps every call with microseconds
//!   elapsed since construction, sampled *while holding the shard lock*
//!   so per-shard timestamps stay monotone. One reading serves one
//!   instant: everything a call does under one shard lock, and span
//!   boundaries emitted back to back with nothing done between them.
//! - **One addressed wake.** Where the simulator parks a transaction
//!   and replays it on a resume event, a waiting session registers a
//!   waker under its transaction id in the front-end's wake registry: a
//!   blocking [`Session`] parks its calling thread on a one-shot cell, a
//!   reactor core ([`reactor`]) names its worker's inbox. Resume/abort
//!   notifications produced by *other* sessions' effects are handed to
//!   exactly that waker (or held until their addressee parks). A waiter
//!   also ticks its shard at `min(next wake deadline, tick cadence)` so
//!   wait timeouts and deadlock detection fire even on an otherwise idle
//!   shard. Deadlocks *across* shards are invisible to any single
//!   shard's waits-for graph — configure [`GtmConfig::wait_timeout`]
//!   (the default here) to bound them.
//! - **Spans.** Every session has a span tree in its *home* shard (the
//!   first shard it touched): a `session` root whose leaves
//!   (`work` / `blocked{object}` / `admission_wait` / `sleep`) partition
//!   its lifetime, and a `commit` phase with `reconcile` and
//!   `sst_attempt{n}` children. Spans carry the virtual timestamp *and*
//!   a wall-clock field; see `pstm_obs::span`. A session keeps its own
//!   spans and folds them into the home shard's registry once, at its
//!   end; with a sink, each boundary is also streamed as it happens.
//! - **Fleet view.** [`ShardedFront::fleet_snapshot`] merges every shard
//!   registry (plus sink drop counts) into one [`FleetSnapshot`].

#![warn(missing_docs)]

pub mod reactor;
mod timer;

use parking_lot::{Mutex, MutexGuard};
use pstm_core::commit::{commit_one, commit_wave, CommitEnv, Member, Shards};
use pstm_core::gtm::{CommitResult, Gtm, GtmConfig, GtmStats};
use pstm_obs::prof::{self, CommitPhase};
use pstm_obs::wallclock::WallAnchor;
use pstm_obs::{
    MetricsRegistry, Recorder, RecorderStats, SpanKind, SpanLedger, TraceEvent, Tracer,
};
use pstm_storage::{BindingRegistry, Database};
use pstm_types::{
    AbortReason, Duration, ExecOutcome, InlineVec, PstmError, PstmResult, ResourceId, ScalarOp,
    StepEffects, Timestamp, TxnId, TxnIdAllocator, Value,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Configuration of the sharded front-end.
#[derive(Clone, Copy, Debug)]
pub struct FrontConfig {
    /// Number of GTM shards (must be ≥ 1).
    pub shards: usize,
    /// Per-shard GTM configuration. The default enables
    /// [`GtmConfig::wait_timeout`]: per-shard deadlock detection cannot
    /// see wait cycles spanning shards, so unbounded waits must not be
    /// allowed when sessions touch multiple shards.
    pub gtm: GtmConfig,
    /// Inert: nothing reads it — single-shard committers that meet at a
    /// shard's flush fence always fuse ([`Session::commit`]). Kept
    /// declared only because the frozen benchmark (`bench/e2e`) still
    /// writes it; the next `[benchmark]` PR removes it together with
    /// [`FrontConfig::parked_waits`].
    pub group_commit: bool,
    /// Inert: nothing reads it. Kept declared only because the frozen
    /// benchmark (`bench/e2e`) still writes it; the next `[benchmark]`
    /// PR removes it together with [`FrontConfig::group_commit`].
    pub parked_waits: bool,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            shards: 4,
            gtm: GtmConfig {
                wait_timeout: Some(Duration::from_secs_f64(2.0)),
                ..GtmConfig::default()
            },
            group_commit: false,
            parked_waits: false,
        }
    }
}

/// How often a waiter ticks its shard when the shard reports no exact
/// wake deadline: deadlock detection and queue promotion have no
/// deadline of their own. The default of
/// [`reactor::ReactorConfig::tick_interval`].
pub(crate) const TICK_CADENCE: std::time::Duration = std::time::Duration::from_millis(5);

/// A one-shot cell a thread waits on: a blocking [`Session`] parks on one
/// for its wake signal, a [`reactor::SessionHandle`] call for its reply.
/// `std::sync` primitives on purpose: the `parking_lot` shim carries no
/// condvar, and a poisoned cell must not panic the commit path (the
/// guard is recovered).
pub(crate) struct OneShot<T> {
    cell: std::sync::Mutex<Option<T>>,
    cond: std::sync::Condvar,
}

impl<T> OneShot<T> {
    pub(crate) fn new() -> Self {
        OneShot { cell: std::sync::Mutex::new(None), cond: std::sync::Condvar::new() }
    }

    pub(crate) fn fill(&self, value: T) {
        *self.cell.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(value);
        self.cond.notify_one();
    }

    /// Parks the calling thread until the cell is filled — or, with a
    /// `timeout`, until it elapses (`None` then).
    pub(crate) fn take(&self, timeout: Option<std::time::Duration>) -> Option<T> {
        use std::sync::PoisonError;
        let cell = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        let empty = |v: &mut Option<T>| v.is_none();
        let mut cell = match timeout {
            None => self.cond.wait_while(cell, empty).unwrap_or_else(PoisonError::into_inner),
            Some(dur) => {
                self.cond
                    .wait_timeout_while(cell, dur, empty)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
        };
        cell.take()
    }
}

/// A resume or abort notification for a blocked session, produced by
/// another session's step effects.
#[derive(Clone, Debug)]
enum Signal {
    /// The queued operation was granted; carries its result value.
    Resumed(Value),
    /// The transaction was aborted while waiting (deadlock victim, wait
    /// timeout, or released by an incompatible commit).
    Aborted(AbortReason),
}

/// Who a parked session's signal is handed to.
pub(crate) enum Waker {
    /// A thread parked on its own cell (blocking [`Session::execute`]).
    Thread(Arc<OneShot<Signal>>),
    /// A reactor worker's inbox: the signal becomes a message on the
    /// queue of the worker that owns the parked core.
    Worker(reactor::Inbox),
}

impl Waker {
    fn wake(&self, txn: TxnId, signal: Signal, now: Timestamp) {
        match self {
            Waker::Thread(cell) => cell.fill(signal),
            Waker::Worker(inbox) => inbox.wake(txn, signal, now.0),
        }
    }
}

/// One wake-registry entry: present only while its transaction is parked
/// or has a signal it has not consumed yet.
enum WakeSlot {
    /// The signal arrived before its addressee parked.
    Held(Signal),
    /// The addressee is parked; its signal goes to this waker.
    Parked(Waker),
}

/// Result of a blocking [`Session`] operation.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionOutcome {
    /// The operation completed (immediately or after a wait) with this
    /// value — for mutations, the new virtual-copy value.
    Value(Value),
    /// The transaction was aborted while the operation was queued; the
    /// session is finished and every shard has been cleaned up.
    Aborted(AbortReason),
}

/// Result of the non-blocking [`Session::try_execute`] half: either the
/// operation settled immediately, or it parked behind incompatible work
/// and the caller owns the wait (park the thread, or — in reactor mode
/// — return to the event loop; either way under a [`Waker`]).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum TryExec {
    /// Settled without waiting.
    Done(SessionOutcome),
    /// Queued on `shard`; a future signal for this transaction resolves
    /// it via [`Session::deliver`].
    Parked {
        /// The shard whose wait queue holds the parked invocation.
        shard: usize,
    },
}

/// Result of [`Session::awake`].
#[derive(Clone, Debug, PartialEq)]
pub enum AwakeOutcome {
    /// Every shard resumed the transaction; any operations granted while
    /// it slept carry their values here (shard order).
    Resumed(Vec<Value>),
    /// Some shard saw incompatible activity while the transaction slept
    /// (Algorithm 9, third branch); it has been aborted everywhere.
    Aborted,
}

/// Fleet-wide metrics: every shard's registry merged into one, kept next
/// to the per-shard views and the total trace loss. Produced by
/// [`ShardedFront::fleet_snapshot`].
#[derive(Clone, Debug)]
pub struct FleetSnapshot {
    /// All shard registries merged ([`MetricsRegistry::merge`]).
    pub registry: MetricsRegistry,
    /// Each shard's registry, shard order.
    pub per_shard: Vec<MetricsRegistry>,
    /// Trace records dropped across all shard sinks (ring eviction) —
    /// non-zero means the persisted trace is incomplete even though the
    /// merged registry is not.
    pub trace_dropped: u64,
    /// Flight-recorder device stats at snapshot time, when a recorder is
    /// attached ([`ShardedFront::attach_recorder`]); `None` when the
    /// fleet flies dark.
    pub recorder: Option<RecorderStats>,
}

/// A cache-line pair of its own for one hot, independently written word
/// (a per-shard lock, the id counter): 128 bytes covers the adjacent-line
/// prefetcher, so clients working on different shards never write a line
/// another shard's lock lives on.
#[repr(align(128))]
struct OwnLine<T>(T);

impl<T> std::ops::Deref for OwnLine<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// A queued committer's result cell: `None` until a leader settles the
/// transaction, then its commit outcome (or the leader's error, e.g. a
/// simulated crash mid-wave).
type CommitSlot = Arc<Mutex<Option<PstmResult<CommitResult>>>>;

thread_local! {
    /// The calling thread's result cell, reused by each of its commits. A
    /// thread commits one session at a time, and the cell is empty again
    /// when that commit returns: a leader writes it only while holding the
    /// fence its owner must take before reading it, and the owner takes
    /// what was written before it returns.
    static COMMIT_SLOT: CommitSlot = Arc::new(Mutex::new(None));
}

/// A coordinator event, streamed already, waiting to be counted into the
/// committing session's home registry.
type Pending = (Timestamp, TraceEvent);

thread_local! {
    /// What the calling thread's commits kept for shard registries, until
    /// its committing session folds ([`Session::fold`]); the buffer is
    /// reused by each of its commits.
    static PENDING: RefCell<Vec<Pending>> = const { RefCell::new(Vec::new()) };
}

/// A shard's commit queue: the committers the next fence holder commits
/// as one wave, FIFO.
type CommitQueue = VecDeque<(TxnId, CommitSlot)>;

/// The shards a session has begun on, ascending — usually one or two.
type ShardSet = InlineVec<usize, 4>;

/// Guards of several shards' mutexes (or fences), ascending; `None` only
/// in unused inline slots.
type Guards<'a, T> = InlineVec<Option<MutexGuard<'a, T>>, 4>;

struct FrontInner {
    db: Arc<Database>,
    bindings: BindingRegistry,
    shards: Vec<OwnLine<Mutex<Gtm>>>,
    /// Shard tracers, shard order — clones of the streams inside the
    /// shards, so sessions and the coordinator stream records with no
    /// shard held. The registries stay in the shards.
    tracers: Vec<Tracer>,
    /// Bumped by every [`ShardedFront::session`], so kept off the line
    /// the read-only fields around it (and the `Arc`'s counts) share.
    next_txn: OwnLine<TxnIdAllocator>,
    /// Monotonic epoch + Unix wall base, both sampled once at
    /// construction inside the wall-clock seam ([`WallAnchor::now`]);
    /// every virtual timestamp and span wall stamp the front emits is a
    /// monotonic reading through this anchor.
    anchor: WallAnchor,
    /// Per-shard commit queues: FIFO of single-shard committers waiting
    /// for whoever holds the shard's flush fence next — possibly
    /// themselves — to commit them as one wave. Drained and refilled
    /// (deferred members) only under that fence.
    groups: Vec<OwnLine<Mutex<CommitQueue>>>,
    /// Per-shard flush fences: one level *above* the shard mutexes in the
    /// lock order (fences ascending, then shard locks ascending; no path
    /// acquires a fence while holding any shard). Every commit holding a
    /// mutation grant holds its shards' fences across reconcile → SST
    /// flush → finish, so no commit anywhere reconciles against permanent
    /// state while a flush to that state is in flight (the lost-update
    /// window delta reconciliation cannot close on its own). A read-only
    /// commit reconciles nothing and takes none. Grants, executes, and
    /// wakeups take only the shard mutex and legitimately overlap a flush
    /// — that is the whole point: the shard is released during the device
    /// round-trip so waiting committers keep executing and fuse into the
    /// next wave.
    flush_fences: Vec<OwnLine<Mutex<()>>>,
    /// THE wake path: every resume/abort signal `deposit` routes goes
    /// through this registry to the one waiter it addresses (see
    /// [`WakeSlot`]). Never locked with a shard mutex held.
    wakes: Mutex<BTreeMap<TxnId, WakeSlot>>,
    /// Attached flight recorder, if any: every [`fleet_snapshot`]
    /// appends a metrics-delta record to it and reports its device stats.
    /// Lives here rather than in [`FrontConfig`] (which is `Copy`).
    ///
    /// [`fleet_snapshot`]: ShardedFront::fleet_snapshot
    recorder: Mutex<Option<Recorder>>,
}

/// The sharded, thread-safe GTM front-end. Cheap to clone; clones share
/// the shards.
#[derive(Clone)]
pub struct ShardedFront {
    inner: Arc<FrontInner>,
}

impl ShardedFront {
    /// Builds a front-end of `config.shards` GTM shards over the shared
    /// engine, with tracing disabled.
    #[must_use]
    pub fn new(db: Arc<Database>, bindings: BindingRegistry, config: FrontConfig) -> Self {
        Self::with_shard_tracers(db, bindings, config, |_| Tracer::disabled())
    }

    /// [`ShardedFront::new`] with a tracer per shard. Each shard keeps its
    /// metrics in its own registry whatever the tracers, and a disabled
    /// tracer is a branch; but a tracer with a sink is a mutex around that
    /// sink, so give each shard its *own*: one across all shards would
    /// serialize exactly the work the sharding parallelizes. Records still
    /// interleave coherently offline — every record carries the emitting
    /// thread's tag.
    ///
    /// # Panics
    /// In debug builds, if `tracer_for` hands the same tracer (clones
    /// included) to two different shards.
    #[must_use]
    pub fn with_shard_tracers(
        db: Arc<Database>,
        bindings: BindingRegistry,
        config: FrontConfig,
        mut tracer_for: impl FnMut(usize) -> Tracer,
    ) -> Self {
        assert!(config.shards >= 1, "a front-end needs at least one shard");
        let tracers: Vec<Tracer> = (0..config.shards).map(&mut tracer_for).collect();
        if cfg!(debug_assertions) {
            for (i, a) in tracers.iter().enumerate() {
                for (j, b) in tracers.iter().enumerate().skip(i + 1) {
                    assert!(
                        !a.same_registry(b),
                        "shards {i} and {j} share one tracer; a tracer with a sink \
                         is a shared mutex, so sharing it serializes all shards on \
                         it — give each shard its own"
                    );
                }
            }
        }
        let shards = tracers
            .iter()
            .map(|t| {
                OwnLine(Mutex::new(
                    Gtm::new(Arc::clone(&db), bindings.clone(), config.gtm).with_tracer(t.clone()),
                ))
            })
            .collect();
        let groups = (0..config.shards).map(|_| OwnLine(Mutex::new(CommitQueue::new()))).collect();
        let flush_fences = (0..config.shards).map(|_| OwnLine(Mutex::new(()))).collect();
        ShardedFront {
            inner: Arc::new(FrontInner {
                db,
                bindings,
                shards,
                tracers,
                next_txn: OwnLine(TxnIdAllocator::starting_at(1)),
                anchor: WallAnchor::now(),
                groups,
                flush_fences,
                wakes: Mutex::new(BTreeMap::new()),
                recorder: Mutex::new(None),
            }),
        }
    }

    /// [`ShardedFront::new`] flying *recorded*: every shard gets its own
    /// tracer whose sink streams straight into `recorder`'s bounded
    /// crash-surviving ring file, and the recorder is attached so each
    /// [`ShardedFront::fleet_snapshot`] also appends a metrics-delta
    /// record. The stream `Meta` record is written here.
    #[must_use]
    pub fn with_recorder(
        db: Arc<Database>,
        bindings: BindingRegistry,
        config: FrontConfig,
        recorder: Recorder,
    ) -> Self {
        let front = Self::with_shard_tracers(db, bindings, config, |i| {
            Tracer::with_sink(Box::new(recorder.sink(i as u32)))
        });
        front.attach_recorder(recorder);
        front
    }

    /// Attaches a flight recorder to an already-built front-end: writes
    /// the stream `Meta` record (shard count + this front-end's wall
    /// base) and arms [`ShardedFront::fleet_snapshot`] to append a
    /// metrics-delta record per snapshot and report device stats. Does
    /// *not* rewire existing tracer sinks — to stream every trace event
    /// into the file, construct via [`ShardedFront::with_recorder`].
    pub fn attach_recorder(&self, recorder: Recorder) {
        recorder.write_meta(self.inner.shards.len() as u32, self.inner.anchor.base_us());
        *self.inner.recorder.lock() = Some(recorder);
    }

    /// The shared engine — where the one fault hook is installed
    /// ([`Database::set_fault_hook`]).
    #[must_use]
    pub fn database(&self) -> &Database {
        &self.inner.db
    }

    /// True when no shard mutex is currently held — what "no leaked shard
    /// locks" means after a commit unwinds (successfully, by abort, or by
    /// a simulated crash). Callers must be quiescent: a concurrent
    /// session legitimately holding a shard reads as "locked".
    #[must_use]
    pub fn shards_unlocked(&self) -> bool {
        self.inner.shards.iter().all(|s| s.try_lock().is_some())
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard owning `resource`. Deterministic: routing depends only
    /// on the object id and the shard count.
    // pstm-lockgraph: event-loop — the reactor front-end (`reactor.rs`)
    // routes every request through here; it must never block.
    #[must_use]
    pub fn shard_of(&self, resource: ResourceId) -> usize {
        resource.object.0 as usize % self.inner.shards.len()
    }

    /// Microseconds of wall time since the front-end was built, as the
    /// virtual-clock timestamp the shards understand.
    #[must_use]
    pub fn now(&self) -> Timestamp {
        Timestamp(self.inner.anchor.elapsed_us())
    }

    /// Opens a new session (allocates its transaction id). The session
    /// begins lazily on each shard it touches.
    #[must_use]
    pub fn session(&self) -> Session {
        Session {
            front: self.clone(),
            id: self.inner.next_txn.allocate(),
            begun: ShardSet::new(),
            finished: false,
            waited: false,
            mutates: false,
            home: None,
            leaf: None,
            spans: SpanLedger::default(),
        }
    }

    /// The tracer of shard `i` (clones share its stream).
    #[must_use]
    pub fn shard_tracer(&self, i: usize) -> Tracer {
        self.inner.tracers[i].clone()
    }

    /// One consistent fleet-wide view: every shard registry merged, plus
    /// the total trace loss across shard sinks. Each shard is locked in
    /// turn just to copy its registry (a fleet-wide freeze would serialize
    /// the shards this crate exists to parallelize), so counters that span
    /// shards — a cross-shard commit's per-shard `Committed` events — may
    /// be caught mid-flight, and a live session's spans are not in yet;
    /// each shard's own numbers are internally consistent.
    ///
    /// ```
    /// use pstm_front::{FrontConfig, ShardedFront};
    /// use pstm_obs::Ctr;
    /// use pstm_types::{ScalarOp, Value};
    ///
    /// let world = pstm_workload::counter_world(4, 100)?;
    /// let config = FrontConfig { shards: 2, ..FrontConfig::default() };
    /// let front = ShardedFront::new(world.db.clone(), world.bindings.clone(), config);
    /// let mut s = front.session();
    /// s.execute(world.resources[0], ScalarOp::Sub(Value::Int(1)))?; // shard 0
    /// s.execute(world.resources[1], ScalarOp::Sub(Value::Int(1)))?; // shard 1
    /// s.commit()?;
    ///
    /// let snap = front.fleet_snapshot();
    /// // Each shard the transaction touched counts its commit...
    /// let committed = |r: &pstm_obs::MetricsRegistry| r.counter(Ctr::Committed);
    /// assert_eq!(snap.per_shard.iter().map(committed).collect::<Vec<_>>(), [1, 1]);
    /// // ...and the merged registry sums them, spans folded in at the session's end.
    /// assert_eq!(snap.registry.counter(Ctr::Committed), 2);
    /// assert!(snap.registry.phase_time().contains_key("work"));
    /// // No sink, so no trace record was lost to ring eviction.
    /// assert_eq!(snap.trace_dropped, 0);
    /// # Ok::<(), pstm_types::PstmError>(())
    /// ```
    #[must_use]
    pub fn fleet_snapshot(&self) -> FleetSnapshot {
        let per_shard: Vec<MetricsRegistry> =
            self.inner.shards.iter().map(|s| s.lock().metrics().clone()).collect();
        let trace_dropped = self.inner.tracers.iter().map(Tracer::dropped).sum();
        let mut registry = MetricsRegistry::new();
        for shard in &per_shard {
            registry.merge(shard);
        }
        // With a recorder attached, every fleet snapshot doubles as a
        // black-box heartbeat: the merged counters and phase profile go
        // into the ring as a delta record, so a post-mortem can replay
        // the metrics timeline up to the crash.
        let recorder = self.inner.recorder.lock().as_ref().map(|rec| {
            rec.snapshot_delta(self.now(), &registry, &prof::snapshot());
            rec.stats()
        });
        FleetSnapshot { registry, per_shard, trace_dropped, recorder }
    }

    /// Stats summed across shards: the merged registries' projection.
    #[must_use]
    pub fn stats(&self) -> GtmStats {
        let mut merged = MetricsRegistry::new();
        self.inner.shards.iter().for_each(|s| merged.merge(s.lock().metrics()));
        GtmStats::from_registry(&merged)
    }

    /// Runs every shard's internal-invariant check; the error names the
    /// offending shard.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, shard) in self.inner.shards.iter().enumerate() {
            shard.lock().check_invariants().map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }

    /// Replays every shard's committed history through the serial checker;
    /// the error names the offending shard.
    pub fn verify_serializable(&self) -> Result<(), String> {
        for (i, shard) in self.inner.shards.iter().enumerate() {
            shard.lock().verify_serializable().map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }

    /// Reads a resource's current permanent value from the LDBS.
    pub fn resource_value(&self, resource: ResourceId) -> PstmResult<Value> {
        let b = self.inner.bindings.resolve(resource)?;
        self.inner.db.get_col(b.table, b.row, b.column)
    }

    /// Acquires several shard locks at once — the **only** sanctioned
    /// multi-shard acquisition path (enforced by `pstm_check lint`'s
    /// `multi-shard-path` rule). `shards` must be strictly ascending: every
    /// concurrent committer then acquires in the same global order, so
    /// no lock cycle can form between cross-shard commits.
    ///
    /// # Panics
    /// If `shards` is not strictly ascending or names a shard that does
    /// not exist — both are front-end bugs, not recoverable states.
    fn lock_shards_ascending(&self, shards: &[usize]) -> Guards<'_, Gtm> {
        assert!(
            shards.windows(2).all(|w| w[0] < w[1]),
            "multi-shard lock order must be strictly ascending, got {shards:?}"
        );
        shards.iter().map(|&s| Some(self.inner.shards[s].lock())).collect()
    }

    /// Acquires the flush fences for the given shard `indices`, ascending
    /// — always BEFORE any shard mutex (see [`FrontInner::flush_fences`]
    /// for the two-level lock order). A session `queued` at its one shard
    /// that finds the fence taken waits for the leader holding it: that
    /// wait alone is group wait (a fence it finds free costs no timer, so
    /// the phase stays zero where nobody meets); any other wait is
    /// admission.
    fn lock_flush_fences(&self, indices: &[usize], queued: bool) -> Guards<'_, ()> {
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "fence lock order must be strictly ascending, got {indices:?}"
        );
        if queued {
            if let Some(fence) = self.inner.flush_fences[indices[0]].try_lock() {
                return [Some(fence)].into_iter().collect();
            }
        }
        let _wait = prof::PhaseTimer::start(if queued {
            CommitPhase::GroupWait
        } else {
            CommitPhase::Admission
        });
        indices.iter().map(|&s| Some(self.inner.flush_fences[s].lock())).collect()
    }

    /// Hands each resume/abort notification in `fx` to the waiter it
    /// addresses: the registry is taken once, a parked addressee's waker
    /// is taken out and woken after the registry is released, and a
    /// signal that outran its addressee's park is held for it.
    fn deposit(&self, fx: &StepEffects) {
        if fx.resumed.is_empty() && fx.aborted.is_empty() {
            return;
        }
        let resumed = fx.resumed.iter().map(|(txn, v)| (*txn, Signal::Resumed(v.clone())));
        let aborted = fx.aborted.iter().map(|(txn, reason)| (*txn, Signal::Aborted(*reason)));
        let mut woken = Vec::new();
        {
            let mut wakes = self.inner.wakes.lock();
            for (txn, signal) in resumed.chain(aborted) {
                if let Some(WakeSlot::Parked(waker)) = wakes.remove(&txn) {
                    woken.push((waker, txn, signal));
                } else {
                    wakes.insert(txn, WakeSlot::Held(signal));
                }
            }
        }
        let now = self.now();
        for (waker, txn, signal) in woken {
            waker.wake(txn, signal, now);
        }
    }

    /// Parks `txn` under `waker`: the next signal addressed to it wakes
    /// exactly that waiter — at once, if the signal is already held.
    pub(crate) fn park(&self, txn: TxnId, waker: Waker) {
        let mut wakes = self.inner.wakes.lock();
        if let Some(WakeSlot::Held(signal)) = wakes.remove(&txn) {
            drop(wakes);
            waker.wake(txn, signal, self.now());
        } else {
            wakes.insert(txn, WakeSlot::Parked(waker));
        }
    }

    /// Entries in the wake registry: parked waiters plus signals not yet
    /// consumed. Zero at quiescence.
    #[must_use]
    pub fn wake_entries(&self) -> usize {
        self.inner.wakes.lock().len()
    }

    /// Advances one shard's virtual clock — firing wait timeouts,
    /// deadlock detection and queue promotion even on an otherwise idle
    /// shard — routes the resulting signals, and says when a waiter on
    /// the shard should tick it next: at the shard's exact next wake
    /// deadline ([`Gtm::next_wake_deadline`]), but no later than
    /// `cadence_us` after `now_us` (deadlock detection and promotion have
    /// no deadline of their own), and never again within the same
    /// microsecond. Both waiters — the blocked thread and the reactor
    /// worker — schedule off this. The shard guard is released before
    /// any signal is routed.
    pub(crate) fn tick_shard(&self, shard: usize, now_us: u64, cadence_us: u64) -> u64 {
        let (fx, deadline) = {
            let mut gtm = self.inner.shards[shard].lock();
            let now = self.now();
            let fx = gtm.tick(now).ok();
            (fx, gtm.next_wake_deadline())
        };
        if let Some(fx) = fx {
            self.deposit(&fx);
        }
        let cap = now_us.saturating_add(cadence_us);
        deadline.map_or(cap, |d| d.0.min(cap)).max(now_us.saturating_add(1))
    }
}

/// A span boundary event; its wall stamp is what the front's
/// construction-time [`WallAnchor`] derives from the reading (the Unix
/// wall clock itself is never consulted per span).
fn span_event(txn: TxnId, kind: SpanKind, open: bool, wall_us: Option<u64>) -> TraceEvent {
    match open {
        true => TraceEvent::SpanOpen { txn, kind, wall_us },
        false => TraceEvent::SpanClose { txn, kind, wall_us },
    }
}

/// Marks a session's span boundaries at one `(at, wall_us)` stamp: into
/// its ledger and, with a sink, to its home shard's stream in one critical
/// section. Takes the session's parts, so a caller holding a shard guard
/// borrowed from the front can mark.
fn mark(
    front: &ShardedFront,
    spans: &mut SpanLedger,
    (home, txn): (usize, TxnId),
    (at, wall_us): (Timestamp, Option<u64>),
    boundaries: impl IntoIterator<Item = (SpanKind, bool)>,
) {
    let boundaries = boundaries.into_iter().inspect(|&(kind, open)| spans.boundary(at, kind, open));
    let tracer = &front.inner.tracers[home];
    if tracer.is_enabled() {
        tracer.emit_all(at, boundaries.map(|(kind, open)| span_event(txn, kind, open, wall_us)));
    } else {
        boundaries.for_each(|_| {});
    }
}

/// What a commit keeps for the registries, counted when the committing
/// session folds: its own spans go straight into its ledger; another
/// member's spans and every coordinator event wait in the thread's
/// [`PENDING`] buffer. With a sink, each is also streamed as it happens.
/// A wave's members share their leader's home (single-shard committers
/// queue at their one shard, a cross-shard one commits alone), so all of
/// it belongs to one registry.
struct Kept<'a> {
    txn: TxnId,
    home: usize,
    spans: &'a mut SpanLedger,
    pending: Vec<Pending>,
}

impl Kept<'_> {
    fn event(&mut self, front: &ShardedFront, home: usize, at: Timestamp, event: TraceEvent) {
        debug_assert_eq!(home, self.home, "a wave member away from its leader's home");
        let tracer = &front.inner.tracers[home];
        if tracer.is_enabled() {
            tracer.emit(at, event.clone());
        }
        self.pending.push((at, event));
    }

    fn span(
        &mut self,
        front: &ShardedFront,
        m: &Member<'_>,
        at: Timestamp,
        kind: SpanKind,
        open: bool,
    ) {
        let event = span_event(m.txn, kind, open, front.inner.anchor.wall_us(at.0));
        if m.txn != self.txn {
            return self.event(front, m.home, at, event);
        }
        self.spans.boundary(at, kind, open);
        front.inner.tracers[m.home].emit(at, event);
    }
}

/// The coordinator's view of the sharded front-end ([`CommitEnv`]):
/// shards are reached by locking them ascending, the clock is the wall
/// bridge, a retry back-off really waits, and effects go to the wake
/// registry. The caller holds the flush fences.
///
/// One clock reading serves an *instant*: a run of trace events and span
/// boundaries the coordinator emits with no other call between them (a
/// flush attempt's `sst_attempt` events and span opens; its span closes
/// and `sst_applied` events). Any other call ends the instant.
struct FrontEnv<'a> {
    front: &'a ShardedFront,
    instant: Option<Timestamp>,
    kept: Kept<'a>,
}

impl<'a> FrontEnv<'a> {
    fn new(
        front: &'a ShardedFront,
        (txn, home): (TxnId, usize),
        spans: &'a mut SpanLedger,
    ) -> Self {
        let kept = Kept { txn, home, spans, pending: PENDING.with(RefCell::take) };
        FrontEnv { front, instant: None, kept }
    }

    fn instant(&mut self) -> Timestamp {
        *self.instant.get_or_insert_with(|| self.front.now())
    }
}

impl Drop for FrontEnv<'_> {
    fn drop(&mut self) {
        PENDING.with(|buffer| buffer.replace(std::mem::take(&mut self.kept.pending)));
    }
}

/// The shard guards of one coordinator phase. Its instant starts at the
/// phase's own reading, so a boundary the phase opens with shares it; a
/// call on a manager ends it.
struct HeldShards<'a, 'k> {
    front: &'a ShardedFront,
    shards: &'a [usize],
    guards: Guards<'a, Gtm>,
    instant: Option<Timestamp>,
    kept: &'a mut Kept<'k>,
}

impl Shards for HeldShards<'_, '_> {
    fn gtm(&mut self, shard: usize) -> PstmResult<&mut Gtm> {
        self.instant = None;
        let held = self.shards.binary_search(&shard).ok().and_then(|i| self.guards.get_mut(i));
        let held = held.and_then(Option::as_mut).map(|g| &mut **g);
        held.ok_or_else(|| PstmError::internal(format!("shard {shard} not held")))
    }

    fn span(&mut self, member: &Member<'_>, kind: SpanKind, open: bool) {
        let at = *self.instant.get_or_insert_with(|| self.front.now());
        self.kept.span(self.front, member, at, kind, open);
    }
}

impl CommitEnv for FrontEnv<'_> {
    fn with_shards<R>(
        &mut self,
        shards: &[usize],
        f: impl FnOnce(&mut dyn Shards, Timestamp) -> R,
    ) -> R {
        self.instant = None;
        let guards = {
            let _adm = prof::PhaseTimer::start(CommitPhase::Admission);
            self.front.lock_shards_ascending(shards)
        };
        let now = self.front.now();
        let kept = &mut self.kept;
        f(&mut HeldShards { front: self.front, shards, guards, instant: Some(now), kept }, now)
    }

    fn engine(&self) -> (&Database, &BindingRegistry) {
        (&self.front.inner.db, &self.front.inner.bindings)
    }

    fn flushing(&mut self, _batch: &pstm_core::sst::SstBatch) {
        self.instant = None;
    }

    /// A zero-length delay yields the core — a retry storm then makes
    /// progress without pinning it — and a non-zero one sleeps.
    fn backoff(&mut self, delay: Duration) {
        self.instant = None;
        if delay.0 == 0 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(std::time::Duration::from_micros(delay.0));
        }
    }

    fn emit(&mut self, home: usize, event: TraceEvent) {
        let at = self.instant();
        self.kept.event(self.front, home, at, event);
    }

    fn span(&mut self, member: &Member<'_>, kind: SpanKind, open: bool) {
        let at = self.instant();
        self.kept.span(self.front, member, at, kind, open);
    }

    fn effects(&mut self, fx: StepEffects) {
        self.instant = None;
        self.front.deposit(&fx);
    }
}

/// One client transaction bound to a calling thread. Obtained from
/// [`ShardedFront::session`]; not `Clone` — a session is driven by one
/// thread at a time, which is what lets `execute` block.
pub struct Session {
    front: ShardedFront,
    id: TxnId,
    begun: ShardSet,
    finished: bool,
    /// Set once an operation of this session queued: only then can the
    /// wake registry hold an entry for it, so a session that never waited
    /// finishes without touching the registry.
    waited: bool,
    /// Set once the session submitted a mutation: only then does its
    /// commit have writes to flush, so only then does it queue at its
    /// shard and take flush fences.
    mutates: bool,
    /// The first shard this session touched. All of the session's spans
    /// belong to the home shard so the span tree stays in one trace;
    /// `None` until the first `execute` (a session that never touches a
    /// resource has no spans).
    home: Option<usize>,
    /// The currently open leaf phase (`work`/`blocked`/`admission_wait`/
    /// `sleep`), closed before the next phase opens so the leaves
    /// partition the session's lifetime.
    leaf: Option<SpanKind>,
    /// This session's own spans, folded into the home shard's registry
    /// once, when the session ends ([`Session::fold`]).
    spans: SpanLedger,
}

impl Session {
    /// This session's transaction id (the same id on every shard).
    #[must_use]
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// True once the session committed or aborted.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    fn ensure_open(&self) -> PstmResult<()> {
        if self.finished {
            return Err(PstmError::InvalidState {
                txn: self.id,
                action: "session",
                state: "finished",
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Span emission (see `pstm_obs::span` for the model)
    // ------------------------------------------------------------------

    /// Closes the current leaf phase, if one is open, then marks `then`:
    /// back-to-back boundaries, so one clock reading (no-op before the
    /// first `execute` assigns a home).
    fn close_leaf_then(&mut self, then: impl IntoIterator<Item = (SpanKind, bool)>) {
        let leaf = self.leaf.take().map(|kind| (kind, false));
        if let Some(home) = self.home {
            let at = self.front.now();
            let stamp = (at, self.front.inner.anchor.wall_us(at.0));
            mark(
                &self.front,
                &mut self.spans,
                (home, self.id),
                stamp,
                leaf.into_iter().chain(then),
            );
        }
    }

    /// Folds the session's spans, and what its commit kept, into its home
    /// shard's registry: one critical section, when the session ends. A
    /// session that ends by a crash, or is dropped unfinished, folds what
    /// it has: the spans it opened count as opened, those still open add
    /// no time.
    fn fold(&mut self) {
        let Some(home) = self.home else { return };
        let spans = std::mem::take(&mut self.spans);
        PENDING.with(|pending| {
            let mut pending = pending.borrow_mut();
            if !spans.is_empty() || !pending.is_empty() {
                let mut gtm = self.front.inner.shards[home].lock();
                gtm.metrics_mut().fold_spans(&spans);
                pending.drain(..).for_each(|(at, event)| gtm.metrics_mut().apply(at, &event));
            }
        });
    }

    /// Closes the current leaf phase and opens `kind` as the next.
    fn switch_leaf(&mut self, kind: SpanKind) {
        self.close_leaf_then([(kind, true)]);
        self.leaf = Some(kind);
    }

    /// Terminal span sequence for a session that did not commit, after
    /// the boundaries `first`: close the open leaf, drop a zero-width
    /// `abort` marker, close the root — one instant.
    fn close_session_aborted(&mut self, first: &[(SpanKind, bool)]) {
        let abort = [(SpanKind::Abort, true), (SpanKind::Abort, false), (SpanKind::Session, false)];
        self.close_leaf_then(first.iter().copied().chain(abort));
    }

    /// Executes one operation, blocking the calling thread while the
    /// invocation is queued behind incompatible work. Returns the
    /// operation's value, or [`SessionOutcome::Aborted`] if the
    /// transaction died while waiting (deadlock victim, wait timeout) —
    /// in that case the session is finished and cleaned up on all shards.
    pub fn execute(&mut self, resource: ResourceId, op: ScalarOp) -> PstmResult<SessionOutcome> {
        match self.try_execute(resource, op)? {
            TryExec::Done(outcome) => Ok(outcome),
            TryExec::Parked { shard } => {
                let signal = self.wait_for_signal(shard);
                self.deliver(shard, signal)
            }
        }
    }

    /// The non-blocking first half of [`Session::execute`]: submits the
    /// operation and returns [`TryExec::Parked`] instead of waiting when
    /// the invocation queues behind incompatible work. The reactor front
    /// drives sessions through this half — a parked session then costs
    /// nothing until another session's effects produce its signal, which
    /// [`Session::deliver`] turns into the blocking API's outcome.
    pub(crate) fn try_execute(
        &mut self,
        resource: ResourceId,
        op: ScalarOp,
    ) -> PstmResult<TryExec> {
        self.ensure_open()?;
        let shard = self.front.shard_of(resource);
        self.mutates |= op.is_mutation();
        let (outcome, denied_admission) = {
            let mut gtm = self.front.inner.shards[shard].lock();
            // One reading, taken once the shard is held, for all the call
            // does: a first touch's span opens, the shard's `begin`, the
            // operation.
            let now = self.front.now();
            // First touch: this shard becomes the session's span home, and
            // the `session` root and the first `work` leaf open.
            if self.home.is_none() {
                (self.home, self.leaf) = (Some(shard), Some(SpanKind::Work));
                let opens = [(SpanKind::Session, true), (SpanKind::Work, true)];
                let stamp = (now, self.front.inner.anchor.wall_us(now.0));
                mark(&self.front, &mut self.spans, (shard, self.id), stamp, opens);
            }
            if let Err(at) = self.begun.binary_search(&shard) {
                self.begun.insert(at, shard);
                gtm.begin(self.id, now)?;
            }
            let (outcome, fx) = gtm.execute(self.id, resource, op, now)?;
            drop(gtm);
            let denied = fx.denied_admission;
            self.front.deposit(&fx);
            (outcome, denied)
        };
        match outcome {
            ExecOutcome::Completed(v) => Ok(TryExec::Done(SessionOutcome::Value(v))),
            ExecOutcome::Aborted(reason) => {
                self.finish_aborted(Some(shard))?;
                Ok(TryExec::Done(SessionOutcome::Aborted(reason)))
            }
            ExecOutcome::Waiting => {
                self.waited = true;
                // The leaf flips from `work` to the wait's cause: object
                // contention, or a §VII policy denial (admission wait).
                self.switch_leaf(if denied_admission {
                    SpanKind::AdmissionWait
                } else {
                    SpanKind::Blocked { resource }
                });
                Ok(TryExec::Parked { shard })
            }
        }
    }

    /// The second half of [`Session::execute`]: consumes the signal a
    /// parked operation waited for and settles the session exactly as
    /// the blocking path would have — same spans, same cleanup.
    pub(crate) fn deliver(&mut self, shard: usize, signal: Signal) -> PstmResult<SessionOutcome> {
        match signal {
            Signal::Resumed(v) => {
                self.switch_leaf(SpanKind::Work);
                Ok(SessionOutcome::Value(v))
            }
            Signal::Aborted(reason) => {
                self.finish_aborted(Some(shard))?;
                Ok(SessionOutcome::Aborted(reason))
            }
        }
    }

    /// Parks the calling thread on its own cell until another session's
    /// effects resume or abort this transaction, waiting the way a reactor
    /// core waits: the shard is ticked only when [`ShardedFront::tick_shard`]'s
    /// deadline fires, so wait timeouts and deadlock detection advance
    /// even on an idle shard and nothing polls.
    fn wait_for_signal(&mut self, shard: usize) -> Signal {
        let cell = Arc::new(OneShot::new());
        self.front.park(self.id, Waker::Thread(Arc::clone(&cell)));
        let cadence_us = TICK_CADENCE.as_micros() as u64;
        let mut wait_us = 0;
        loop {
            if let Some(signal) = cell.take(Some(std::time::Duration::from_micros(wait_us))) {
                return signal;
            }
            let now_us = self.front.now().0;
            wait_us = self.front.tick_shard(shard, now_us, cadence_us) - now_us;
        }
    }

    /// Disconnection: puts the transaction to sleep on every shard it has
    /// touched (paper ⟨sleep, A⟩, broadcast).
    pub fn sleep(&mut self) -> PstmResult<()> {
        self.ensure_open()?;
        for &shard in &self.begun.clone() {
            let mut gtm = self.front.inner.shards[shard].lock();
            let now = self.front.now();
            let fx = gtm.sleep(self.id, now)?;
            drop(gtm);
            self.front.deposit(&fx);
        }
        self.switch_leaf(SpanKind::Sleep);
        Ok(())
    }

    /// Reconnection: awakens the transaction on every touched shard. If
    /// any shard aborted it (incompatible activity while asleep), the
    /// remaining shards are cleaned up and the session finishes.
    pub fn awake(&mut self) -> PstmResult<AwakeOutcome> {
        self.ensure_open()?;
        let mut granted = Vec::new();
        for &shard in &self.begun.clone() {
            let (result, fx) = {
                let mut gtm = self.front.inner.shards[shard].lock();
                let now = self.front.now();
                gtm.awake(self.id, now)?
            };
            self.front.deposit(&fx);
            match result {
                pstm_core::gtm::AwakeResult::Resumed(value) => granted.extend(value),
                pstm_core::gtm::AwakeResult::Aborted => {
                    self.finish_aborted(Some(shard))?;
                    return Ok(AwakeOutcome::Aborted);
                }
            }
        }
        self.switch_leaf(SpanKind::Work);
        Ok(AwakeOutcome::Resumed(granted))
    }

    /// Commits the session through the one coordinator
    /// ([`commit_wave`]), whatever the shard count, under the touched
    /// shards' flush fences if it mutated anything: shards locked in
    /// ascending order for `commit_local` (reconciliation), all write sets
    /// folded into **one** SST flushed with no shard held, shards
    /// re-locked for `commit_finish`/`commit_abort`. A cross-shard session is the wave
    /// of one. A single-shard session queues at its shard first, and
    /// whoever wins the fence next — this session or a concurrent
    /// committer — commits everything queued there as one wave: the
    /// coordinator takes the shard mutex only for its two brief
    /// bookkeeping phases, so sessions keep executing during the device
    /// round-trip and their commits pile onto the queue to fuse into the
    /// next flush, while a lone committer is simply the wave of one. A
    /// read-only session neither queues nor fences: the coordinator
    /// finishes it in its local phase, with no flush. The `commit` span
    /// gets its `reconcile` child, and a flush its `sst_attempt{n}`
    /// children, from the coordinator.
    pub fn commit(&mut self) -> PstmResult<CommitResult> {
        self.ensure_open()?;
        self.finished = true;
        let shards = self.begun.clone();
        let Some(&first) = shards.first() else {
            // A session that never touched a resource has nothing to do.
            return Ok(CommitResult::Committed);
        };
        // In line before the `commit` span opens: a trace that shows the
        // span shows a session the next fence holder will find queued.
        let slot = (self.mutates && shards.len() == 1).then(|| {
            let slot = COMMIT_SLOT.with(Arc::clone);
            // Empty unless a commit of this thread unwound mid-wave.
            *slot.lock() = None;
            self.front.inner.groups[first].lock().push_back((self.id, Arc::clone(&slot)));
            slot
        });
        self.close_leaf_then([(SpanKind::Commit, true)]);
        let inner = &self.front.inner;
        let result = {
            // The whole coordinated commit is the fencing phase; every
            // nested station (shard-lock admission, per-shard reconcile,
            // WAL/SST, bookkeeping, abort unwind) carves out its own
            // exclusive time, leaving fencing = coordination residue.
            let _phase = prof::PhaseTimer::start(CommitPhase::Fencing);
            // Flush fences first (two-level lock order, see
            // `FrontInner::flush_fences`): reconciliation must not read
            // permanent state while a fused flush to any of these shards
            // is in flight with the shard mutex released. A read-only
            // session reconciles nothing, so it fences nothing.
            let fenced = if self.mutates { &shards[..] } else { &[] };
            let _fences = self.front.lock_flush_fences(fenced, slot.is_some());
            let home = self.home.unwrap_or(first);
            let env = &mut FrontEnv::new(&self.front, (self.id, home), &mut self.spans);
            match slot {
                None => commit_one(env, Member { txn: self.id, home, shards: &shards }),
                // Until a round settles this session — the one a
                // concurrent leader ran while we waited for the fence, or
                // one of ours — lead: the wave is the whole queue. It
                // holds our entry (queues change hands only under the
                // fence), never more entries than there are concurrent
                // committers, and each round settles at least its first
                // member, so a deferred entry of ours reaches the front.
                Some(slot) => loop {
                    if let Some(result) = slot.lock().take() {
                        break result;
                    }
                    let queued: InlineVec<(TxnId, Option<CommitSlot>), 4> =
                        inner.groups[first].lock().drain(..).map(|(t, s)| (t, Some(s))).collect();
                    let wave: InlineVec<Member<'_>, 4> = queued
                        .iter()
                        .map(|(txn, _)| Member { txn: *txn, home: first, shards: &shards })
                        .collect();
                    let slot_of = |txn: TxnId| {
                        let queued = queued.iter().find(|(member, _)| *member == txn);
                        queued.and_then(|(_, slot)| slot.as_ref())
                    };
                    let outcome = commit_wave(env, &wave, &mut |txn, fate| {
                        if let Some(member_slot) = slot_of(txn) {
                            *member_slot.lock() = Some(Ok(fate));
                        }
                    });
                    match outcome {
                        // Deferred members overlap the batch just
                        // flushed: back to the queue front, original
                        // order, for the next round.
                        Ok(deferred) => {
                            let mut queue = inner.groups[first].lock();
                            for txn in deferred.iter().rev() {
                                if let Some(slot) = slot_of(*txn) {
                                    queue.push_front((*txn, slot.clone()));
                                }
                            }
                        }
                        // A leader-level failure dooms every member not
                        // settled yet: each learns the error, the caller
                        // recovers the engine.
                        Err(err) => {
                            for member_slot in queued.iter().filter_map(|(_, slot)| slot.as_ref()) {
                                member_slot.lock().get_or_insert_with(|| Err(err.clone()));
                            }
                        }
                    }
                },
            }
        };
        match &result {
            Ok(CommitResult::Committed) => {
                self.close_leaf_then([(SpanKind::Commit, false), (SpanKind::Session, false)]);
            }
            Ok(CommitResult::Aborted(_)) => {
                self.close_session_aborted(&[(SpanKind::Commit, false)])
            }
            // A simulated crash: the process is dead; open spans die with it.
            Err(_) => {}
        }
        self.forget_wakes();
        self.fold();
        result
    }

    /// Aborts the session on every shard it has touched.
    pub fn abort(&mut self) -> PstmResult<()> {
        self.ensure_open()?;
        self.finish_aborted(None)
    }

    /// Cleans up after an abort: shard `already_dead` (if any) aborted the
    /// transaction itself; every other begun shard still holds an active
    /// record that must be released.
    fn finish_aborted(&mut self, already_dead: Option<usize>) -> PstmResult<()> {
        self.finished = true;
        for &shard in &self.begun.clone() {
            if Some(shard) == already_dead {
                continue;
            }
            let mut gtm = self.front.inner.shards[shard].lock();
            let now = self.front.now();
            let mut fx = gtm.abort(self.id, now)?;
            drop(gtm);
            // The session learns its own abort from the call's result.
            fx.aborted.retain(|(txn, _)| *txn != self.id);
            self.front.deposit(&fx);
        }
        self.forget_wakes();
        self.close_session_aborted(&[]);
        self.fold();
        Ok(())
    }

    /// A finishing session leaves no registry entry behind. One that
    /// never waited cannot have one (signals address waiters only).
    pub(crate) fn forget_wakes(&self) {
        if self.waited {
            self.front.inner.wakes.lock().remove(&self.id);
        }
    }
}

impl Drop for Session {
    /// A session dropped unfinished still folds the spans it opened.
    fn drop(&mut self) {
        self.fold();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_and_sessions_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<ShardedFront>();
        assert_send::<Session>();
    }
}
