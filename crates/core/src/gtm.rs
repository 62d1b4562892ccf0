//! The Global Transaction Manager — Algorithms 1–11 of the paper.
//!
//! Event surface (mirrors the 2PL baseline so the simulator can drive
//! either):
//!
//! | paper event                | method        |
//! |----------------------------|---------------|
//! | `⟨begin, A⟩` (Alg 1)       | [`Gtm::begin`] |
//! | `⟨op, X, A⟩` (Alg 2)       | [`Gtm::execute`] |
//! | `⟨commit, X, A⟩`+`⟨commit, A⟩` (Algs 3–4) | [`Gtm::commit`] |
//! | `⟨abort, X, A⟩`+`⟨abort, A⟩` (Algs 5–6)   | [`Gtm::abort`] |
//! | `⟨sleep, X, A⟩`+`⟨sleep, A⟩` (Algs 7–8)   | [`Gtm::sleep`] |
//! | `⟨awake, X, A⟩`+`⟨awake, A⟩` (Algs 9–10)  | [`Gtm::awake`] |
//! | `⟨unlock, X⟩` (Alg 11)     | internal promotion after removals |
//!
//! Two deliberate generalisations of Algorithm 11, both noted in
//! DESIGN.md: promotion runs after *every* removal from a resource's
//! pending/committing sets (not only when pending empties — strictly more
//! responsive, a superset of the paper's unlock); and promotion scans the
//! queue in FIFO order but *skips over* entries it cannot grant, matching
//! Algorithm 2's policy of granting compatible newcomers regardless of
//! queued incompatible work (the starvation this admits is exactly the
//! §VII problem the [`StarvationPolicy`] extension addresses).

use crate::commit::{commit_one, Member, Owned};
use crate::dependence::DependenceMap;
use crate::history::HistoryRecorder;
use crate::policy::{AdmissionPolicy, StarvationPolicy};
use crate::reconcile::reconcile;
use crate::state::{Grant, Phase, ResourceState, TxnRecord, TxnState, WaitEntry};
use pstm_lock::WaitsForGraph;
use pstm_obs::prof::{self, CommitPhase};
use pstm_obs::{AbortOrigin, Ctr, MetricsRegistry, TraceEvent, Tracer};
use pstm_storage::{BindingRegistry, Database};
use pstm_types::{
    AbortReason, CompatMatrix, Duration, ExecOutcome, FaultDecision, FaultSite, OpClass, PstmError,
    PstmResult, ResourceId, ScalarOp, SharedFaultHook, StepEffects, Timestamp, TxnId, Value,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Configuration of the GTM.
#[derive(Clone, Copy, Debug)]
pub struct GtmConfig {
    /// Compatibility matrix (Table I by default; the ablation harness
    /// swaps in read/write-only to isolate the value of semantics).
    pub compat: CompatMatrix,
    /// §VII extension: lock-deny starvation control. `None` = paper
    /// behaviour.
    pub starvation: Option<StarvationPolicy>,
    /// §VII extension: value-bounded admission control. `None` = paper
    /// behaviour.
    pub admission: Option<AdmissionPolicy>,
    /// Abort waiters queued longer than this. `None` disables.
    pub wait_timeout: Option<Duration>,
    /// §VII's *other* starvation remedy — "the introduction of a
    /// transaction priority": with seniority enabled, a new compatible
    /// invocation is denied while an *older* (lower id = earlier arrival)
    /// awake transaction waits on the resource, and promotion becomes
    /// strict FIFO (no skip-over). Trades the paper's maximal sharing for
    /// wait-time fairness; benchmarked against lock-deny by the
    /// starvation ablation.
    pub elder_priority: bool,
    /// How many times a transiently-failing SST (I/O error) is retried
    /// before the transaction aborts with
    /// [`AbortReason::SstFailure`]. `0` reproduces the paper's
    /// assumption "SST is always correctly executed" — any failure is
    /// immediately fatal to the transaction. The §VII open problem on
    /// SST failure recovery is answered by setting this above zero.
    pub sst_retries: u32,
    /// Virtual time charged for each SST retry attempt (the back-off the
    /// LDBS needs before the write set is resubmitted). The committing
    /// transaction pays this — retries are not free — and the total shows
    /// up in [`StepEffects::sst_busy`] so the scheduler can delay the
    /// commit completion accordingly.
    pub sst_retry_delay: Duration,
}

impl Default for GtmConfig {
    fn default() -> Self {
        GtmConfig {
            compat: CompatMatrix::paper(),
            starvation: None,
            admission: None,
            wait_timeout: None,
            elder_priority: false,
            sst_retries: 0,
            sst_retry_delay: Duration::ZERO,
        }
    }
}

/// Counters for the experiment harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GtmStats {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed (SST applied).
    pub committed: u64,
    /// All aborts.
    pub aborted: u64,
    /// Sleepers aborted on awakening (Algorithm 9's third branch).
    pub aborted_sleep_conflict: u64,
    /// Deadlock victims.
    pub aborted_deadlock: u64,
    /// SSTs rejected by CHECK constraints.
    pub aborted_constraint: u64,
    /// Wait-timeout aborts.
    pub aborted_wait_timeout: u64,
    /// Operations completed (granted immediately or after a wait).
    pub ops_completed: u64,
    /// Operations that had to queue.
    pub ops_waited: u64,
    /// Grants that shared a resource with other concurrent holders —
    /// the concurrency the semantics bought.
    pub shared_grants: u64,
    /// Grants that bypassed a sleeping incompatible holder.
    pub bypassed_sleepers: u64,
    /// Reconciliations computed at commit.
    pub reconciliations: u64,
    /// SSTs executed (non-empty).
    pub ssts_executed: u64,
    /// Denials by the starvation policy.
    pub starvation_denials: u64,
    /// Denials by the admission policy.
    pub admission_denials: u64,
    /// Transient SST failures that were retried.
    pub sst_retries: u64,
    /// Transactions aborted because their SST failed persistently.
    pub aborted_sst_failure: u64,
}

impl GtmStats {
    /// Projects the legacy counter set out of an obs registry. This is
    /// the *only* way GTM stats are produced — live stats and stats
    /// rebuilt from a persisted trace go through the same projection, so
    /// they cannot drift.
    #[must_use]
    pub fn from_registry(reg: &MetricsRegistry) -> Self {
        GtmStats {
            begun: reg.counter(Ctr::Begun),
            committed: reg.counter(Ctr::Committed),
            aborted: reg.counter(Ctr::Aborted),
            aborted_sleep_conflict: reg.counter(Ctr::AbortedSleepConflict),
            aborted_deadlock: reg.counter(Ctr::AbortedDeadlock),
            aborted_constraint: reg.counter(Ctr::AbortedConstraint),
            aborted_wait_timeout: reg.counter(Ctr::AbortedLockTimeout),
            ops_completed: reg.counter(Ctr::OpsCompleted),
            ops_waited: reg.counter(Ctr::OpsWaited),
            shared_grants: reg.counter(Ctr::SharedGrants),
            bypassed_sleepers: reg.counter(Ctr::BypassedSleepers),
            reconciliations: reg.counter(Ctr::Reconciliations),
            ssts_executed: reg.counter(Ctr::SstsExecuted),
            starvation_denials: reg.counter(Ctr::StarvationDenials),
            admission_denials: reg.counter(Ctr::AdmissionDenials),
            sst_retries: reg.counter(Ctr::SstRetries),
            aborted_sst_failure: reg.counter(Ctr::AbortedSstFailure),
        }
    }
}

/// Whether an operation's worst case *decreases* the value — the ops the
/// §VII admission bound applies to.
fn op_decrements(op: &ScalarOp) -> bool {
    match op {
        ScalarOp::Sub(c) => !matches!(c, Value::Int(i) if *i <= 0),
        ScalarOp::Add(c) => {
            matches!(c, Value::Int(i) if *i < 0) || matches!(c, Value::Float(f) if *f < 0.0)
        }
        _ => false,
    }
}

/// Why an event on `txn` is refused when it is not in flight: by its final
/// state if the tombstone index knows it, as unknown otherwise.
fn refusal(finished: &BTreeMap<TxnId, TxnState>, txn: TxnId, action: &'static str) -> PstmError {
    match finished.get(&txn) {
        Some(state) => PstmError::InvalidState { txn, action, state: state.name() },
        None => PstmError::UnknownTxn(txn),
    }
}

/// Result of [`Gtm::commit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitResult {
    /// The SST applied; the transaction is durable.
    Committed,
    /// The SST was rejected (CHECK constraint) and the transaction
    /// aborted — the paper's §VII reconciliation-abort case.
    Aborted(AbortReason),
}

/// Result of the local-commit phase ([`Gtm::commit_local`], Algorithm 3),
/// the per-(shard, txn) primitive [`crate::commit::commit_wave`] drives: a cross-shard
/// commit folds several shards' `Prepared` writes into one SST.
#[derive(Clone, Debug, PartialEq)]
pub enum LocalCommit {
    /// Every touched resource reconciled; these writes await a global
    /// commit. The transaction is parked in `Committing` until the
    /// coordinator calls [`Gtm::commit_finish`] or [`Gtm::commit_abort`].
    Prepared(Vec<(ResourceId, Value)>),
    /// A local commit failed (reconciliation overflow, zero snapshot,
    /// engine read error); the transaction was aborted and cleaned up.
    Aborted(AbortReason, StepEffects),
}

/// Result of [`Gtm::awake`].
#[derive(Clone, Debug, PartialEq)]
pub enum AwakeResult {
    /// The transaction resumed. If its queued operation was granted as
    /// part of awakening (Algorithm 9, first branch), the operation's
    /// result is carried here.
    Resumed(Option<Value>),
    /// Incompatible activity touched its resources while it slept; the
    /// transaction was aborted (Algorithm 9, third branch).
    Aborted,
}

/// The Global Transaction Manager.
///
/// # Example
///
/// Two concurrent unit bookings share one flight and reconcile at commit:
///
/// ```
/// use pstm_core::gtm::{CommitResult, Gtm, GtmConfig};
/// use pstm_types::{ExecOutcome, ScalarOp, Timestamp, TxnId, Value};
/// use pstm_workload::counter_world;
///
/// let world = counter_world(1, 100)?;
/// let mut gtm = Gtm::new(world.db.clone(), world.bindings.clone(), GtmConfig::default());
/// let x = world.resources[0];
///
/// gtm.begin(TxnId(1), Timestamp::ZERO)?;
/// gtm.begin(TxnId(2), Timestamp::ZERO)?;
/// // Additive updates are compatible: both are granted immediately.
/// let (a, _) = gtm.execute(TxnId(1), x, ScalarOp::Sub(Value::Int(1)), Timestamp::ZERO)?;
/// let (b, _) = gtm.execute(TxnId(2), x, ScalarOp::Sub(Value::Int(1)), Timestamp::ZERO)?;
/// assert_eq!(a, ExecOutcome::Completed(Value::Int(99)));
/// assert_eq!(b, ExecOutcome::Completed(Value::Int(99))); // private virtual copy
///
/// let (r1, _) = gtm.commit(TxnId(1), Timestamp(1))?;
/// let (r2, _) = gtm.commit(TxnId(2), Timestamp(2))?;
/// assert_eq!(r1, CommitResult::Committed);
/// assert_eq!(r2, CommitResult::Committed);
///
/// let b0 = world.bindings.resolve(x)?;
/// assert_eq!(world.db.get_col(b0.table, b0.row, b0.column)?, Value::Int(98));
/// gtm.verify_serializable().unwrap();
/// # Ok::<(), pstm_types::PstmError>(())
/// ```
pub struct Gtm {
    db: Arc<Database>,
    bindings: BindingRegistry,
    /// The transactions in flight — bounded by concurrency, and the only
    /// table an event handler looks its transaction up in.
    live: BTreeMap<TxnId, TxnRecord>,
    /// The tombstone index: the final state of every finished
    /// transaction. Read only to refuse an event on a finished id, to
    /// reject `begin` of a known id, and by [`Gtm::state`].
    finished: BTreeMap<TxnId, TxnState>,
    resources: BTreeMap<ResourceId, ResourceState>,
    config: GtmConfig,
    dependence: DependenceMap,
    pub(crate) tracer: Tracer,
    history: HistoryRecorder,
    /// Seeded fault seam consulted at this manager's commit sites
    /// (`commit-local`, `reconcile`); `None` outside chaos runs.
    pub(crate) fault_hook: Option<SharedFaultHook>,
    /// Shard index reported in this manager's fault-site labels.
    fault_shard: u32,
    /// `(A_t_sleep, A)` of every sleeping transaction: the pruning
    /// horizon is its first entry, read without scanning `live`.
    sleepers: BTreeSet<(Timestamp, TxnId)>,
    /// The resources whose wait queue is non-empty — all that promotion,
    /// the waits-for graph, [`Gtm::tick`], [`Gtm::next_wake_deadline`]
    /// and [`Gtm::has_waiters`] need to look at.
    queued: BTreeSet<ResourceId>,
}

impl Gtm {
    /// Builds a GTM over `db` with the given resource bindings.
    #[must_use]
    pub fn new(db: Arc<Database>, bindings: BindingRegistry, config: GtmConfig) -> Self {
        Gtm {
            db,
            bindings,
            live: BTreeMap::new(),
            finished: BTreeMap::new(),
            resources: BTreeMap::new(),
            config,
            dependence: DependenceMap::new(),
            tracer: Tracer::disabled(),
            history: HistoryRecorder::new(),
            fault_hook: None,
            fault_shard: 0,
            sleepers: BTreeSet::new(),
            queued: BTreeSet::new(),
        }
    }

    /// Installs a fault hook consulted at this manager's labeled commit
    /// seams — the start of `commit_local` and each per-resource
    /// reconciliation. `shard` tags the sites so plans can target one
    /// shard of a sharded front-end; single-manager setups pass 0. The
    /// engine's own seams (WAL append, SST apply) are installed
    /// separately via `Database::set_fault_hook`.
    pub fn set_fault_hook(&mut self, hook: SharedFaultHook, shard: u32) {
        self.fault_hook = Some(hook);
        self.fault_shard = shard;
    }

    /// Consults the fault seam at `site`. `Io` surfaces as a transient
    /// `PstmError::Io` (the commit path's existing mapping turns it into
    /// a clean `SstFailure` abort); `Crash`/`Torn` kill the simulated
    /// process — `PstmError::Crashed` propagates raw and the manager must
    /// be discarded.
    fn fault_check(&self, site: FaultSite, now: Timestamp) -> PstmResult<()> {
        let Some(hook) = self.fault_hook.as_ref() else { return Ok(()) };
        let (action, err) = match hook.decide(site) {
            FaultDecision::Proceed => return Ok(()),
            FaultDecision::Io => {
                ("io", PstmError::Io(format!("injected fault at {}", site.label())))
            }
            FaultDecision::Crash | FaultDecision::Torn { .. } => {
                ("crash", PstmError::Crashed(site.label()))
            }
        };
        self.tracer
            .emit(now, TraceEvent::FaultInjected { site: site.label(), action: action.into() });
        Err(err)
    }

    /// Installs a tracer (event sink + metrics registry). Builder-style;
    /// call before scheduling begins.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The tracer this manager emits into. Clones share the registry, so
    /// the handle stays valid however long the manager lives.
    #[must_use]
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Installs a logical-dependence map (§IV): conflict checks span each
    /// declared group. Builder-style; call before scheduling begins.
    #[must_use]
    pub fn with_dependence(mut self, dependence: DependenceMap) -> Self {
        self.dependence = dependence;
        self
    }

    /// The installed dependence map.
    #[must_use]
    pub fn dependence(&self) -> &DependenceMap {
        &self.dependence
    }

    /// Counter snapshot, projected from the tracer's registry.
    #[must_use]
    pub fn stats(&self) -> GtmStats {
        self.tracer.with_registry(GtmStats::from_registry)
    }

    /// The shared database handle.
    #[must_use]
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The binding registry.
    #[must_use]
    pub fn bindings(&self) -> &BindingRegistry {
        &self.bindings
    }

    /// The configuration this manager was built with.
    #[must_use]
    pub fn config(&self) -> GtmConfig {
        self.config
    }

    /// Current state of `txn` (`A_state`), if known.
    #[must_use]
    pub fn state(&self, txn: TxnId) -> Option<TxnState> {
        self.live.get(&txn).map(|record| record.state).or_else(|| self.finished.get(&txn).copied())
    }

    /// The recorded history (for serializability checking).
    #[must_use]
    pub fn history(&self) -> &HistoryRecorder {
        &self.history
    }

    /// Verifies that the committed history is final-state equivalent to
    /// the serial execution in commit order, against the current database
    /// contents. See [`HistoryRecorder::verify_final_state`].
    pub fn verify_serializable(&self) -> Result<(), String> {
        let mut finals = BTreeMap::new();
        for resource in self.history.touched_resources() {
            let v = self.perm(resource).map_err(|e| e.to_string())?;
            finals.insert(resource, v);
        }
        self.history.verify_final_state(&finals)
    }

    fn perm(&self, resource: ResourceId) -> PstmResult<Value> {
        let b = self.bindings.resolve(resource)?;
        self.db.get_col(b.table, b.row, b.column)
    }

    /// The working record of `txn`; a finished transaction is refused
    /// `action` by its final state.
    fn live(&mut self, txn: TxnId, action: &'static str) -> PstmResult<&mut TxnRecord> {
        match self.live.get_mut(&txn) {
            Some(record) => Ok(record),
            None => Err(refusal(&self.finished, txn, action)),
        }
    }

    /// [`Gtm::live`], refusing `action` unless the transaction is in
    /// `state`.
    fn live_in(
        &mut self,
        txn: TxnId,
        state: TxnState,
        action: &'static str,
    ) -> PstmResult<&mut TxnRecord> {
        let record = self.live(txn, action)?;
        if record.state != state {
            return Err(PstmError::InvalidState { txn, action, state: record.state.name() });
        }
        Ok(record)
    }

    /// Ends `txn` in the terminal `state`: it leaves `live` for the
    /// tombstone index and the working record is handed out for the caller
    /// to unwind.
    fn finish(
        &mut self,
        txn: TxnId,
        state: TxnState,
        action: &'static str,
    ) -> PstmResult<TxnRecord> {
        let Some(record) = self.live.remove(&txn) else {
            return Err(refusal(&self.finished, txn, action));
        };
        self.finished.insert(txn, state);
        self.forget_sleeper(txn, record.t_sleep);
        Ok(record)
    }

    /// `txn`'s row on `resource`, if it holds one.
    fn row(&self, txn: TxnId, resource: ResourceId) -> Option<&Grant> {
        self.resources.get(&resource)?.holders.get(&txn)
    }

    /// [`Gtm::row`], to update.
    fn row_mut(&mut self, txn: TxnId, resource: ResourceId) -> Option<&mut Grant> {
        self.resources.get_mut(&resource)?.holders.get_mut(&txn)
    }

    /// Drops `txn`'s `sleepers` entry once its `A_t_sleep` (`slept`, as
    /// taken out of its record) is cleared.
    fn forget_sleeper(&mut self, txn: TxnId, slept: Option<Timestamp>) {
        if let Some(t_sleep) = slept {
            self.sleepers.remove(&(t_sleep, txn));
        }
    }

    /// Removes `txn` from `resource`'s wait queue, keeping `queued` and
    /// (unless it just finished) its record's `waiting_on` exact.
    fn unqueue(&mut self, resource: ResourceId, txn: TxnId) {
        let Some(rs) = self.resources.get_mut(&resource) else { return };
        rs.waiting.retain(|w| w.txn != txn);
        if rs.waiting.is_empty() {
            self.queued.remove(&resource);
        }
        if let Some(record) = self.live.get_mut(&txn) {
            record.waiting_on = None;
        }
    }

    /// Whether `txn` sleeps. A queued sleeper is recognised by its
    /// `A_state`; a holder's row mirrors it in `Grant::asleep`.
    fn is_asleep(&self, txn: TxnId) -> bool {
        self.live.get(&txn).is_some_and(|record| record.state == TxnState::Sleeping)
    }

    /// The awake entries of `resource`'s wait queue, FIFO — Algorithm
    /// 11's `X_waiting − X_sleeping`.
    fn awake_waiters(&self, resource: ResourceId) -> impl Iterator<Item = &WaitEntry> {
        let queue = self.resources.get(&resource).into_iter().flat_map(|rs| &rs.waiting);
        queue.filter(|w| !self.is_asleep(w.txn))
    }

    /// Every queued invocation, found through `queued` alone.
    fn wait_entries(&self) -> impl Iterator<Item = &WaitEntry> {
        self.queued.iter().filter_map(|r| self.resources.get(r)).flat_map(|rs| rs.waiting.iter())
    }

    // ------------------------------------------------------------------
    // Algorithm 1: ⟨begin, A⟩
    // ------------------------------------------------------------------

    /// Starts a transaction; postcondition `A_state = Active`.
    pub fn begin(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<()> {
        if self.live.contains_key(&txn) || self.finished.contains_key(&txn) {
            return Err(PstmError::InvalidState { txn, action: "begin", state: "already known" });
        }
        if txn.0 >= crate::sst::SST_ID_BASE {
            // Ids at or above the SST base would collide with the
            // engine-level ids SSTs run under.
            return Err(PstmError::InvalidState {
                txn,
                action: "begin with an id in the reserved SST id space",
                state: "rejected",
            });
        }
        self.live.insert(txn, TxnRecord::new());
        self.tracer.emit(now, TraceEvent::TxnBegin { txn });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Algorithm 2: ⟨op, X, A⟩
    // ------------------------------------------------------------------

    /// Submits one operation. Compatible invocations are granted
    /// concurrently (each on its virtual copy); incompatible ones queue.
    pub fn execute(
        &mut self,
        txn: TxnId,
        resource: ResourceId,
        op: ScalarOp,
        now: Timestamp,
    ) -> PstmResult<(ExecOutcome, StepEffects)> {
        self.live_in(txn, TxnState::Active, "invoke")?;
        let class = op.class();
        // Phase accounting: pure reads are Read; everything else on the
        // invoke path is operation bookkeeping (grants, queues, copies).
        // Admission checks nested below carve out their own time.
        let _phase = prof::PhaseTimer::start(if class == OpClass::Read {
            CommitPhase::Read
        } else {
            CommitPhase::OpBookkeeping
        });
        self.tracer.emit(now, TraceEvent::OpRequested { txn, resource, class });

        match self.row_mut(txn, resource) {
            // Already granted under a class that covers this op: pure
            // virtual-copy work, no scheduling involved.
            Some(grant) if class == grant.class || class == OpClass::Read => {
                let new = op.apply(&grant.temp)?;
                grant.temp = new.clone();
                self.live(txn, "invoke")?.op_log.push((resource, op));
                self.tracer.emit(
                    now,
                    TraceEvent::OpGranted {
                        txn,
                        resource,
                        class,
                        shared: false,
                        bypassed_sleeper: false,
                    },
                );
                Ok((ExecOutcome::Completed(new), StepEffects::none()))
            }
            // Strengthening Read → mutation (the §II "select then book"
            // pattern). Constraint (i) allows it because Read is
            // compatible with every update class.
            Some(Grant { class: OpClass::Read, .. }) => {
                self.invoke(txn, resource, op, class, now, true)
            }
            // Mixing incompatible mutation classes on one member violates
            // the §IV well-formedness constraint (i).
            Some(grant) => Err(PstmError::InvalidState {
                txn,
                action: "mix incompatible operation classes on one data member",
                state: grant.class.label(),
            }),
            // First contact with this resource.
            None => self.invoke(txn, resource, op, class, now, false),
        }
    }

    /// Whether `class` for `txn` conflicts with a blocking holder of
    /// `resource` under the configured matrix (sleeping pending holders
    /// excluded per Algorithm 2). The check spans the resource's logical
    /// dependence group: operations on logically dependent members
    /// conflict exactly like operations on one member (§IV).
    fn blocked(&self, txn: TxnId, resource: ResourceId, class: OpClass) -> bool {
        self.blockers(txn, resource, class).next().is_some()
    }

    /// The blocking holders, across `resource`'s dependence group, that
    /// `class` for `txn` conflicts with.
    fn blockers(
        &self,
        txn: TxnId,
        resource: ResourceId,
        class: OpClass,
    ) -> impl Iterator<Item = TxnId> + '_ {
        self.dependence
            .related(resource)
            .filter_map(move |sibling| self.resources.get(&sibling))
            .flat_map(move |rs| rs.blocking_conflicts(txn, class, &self.config.compat))
    }

    /// Algorithm 2's two branches, for both fresh invocations and
    /// Read → mutation strengthenings.
    fn invoke(
        &mut self,
        txn: TxnId,
        resource: ResourceId,
        op: ScalarOp,
        class: OpClass,
        now: Timestamp,
        is_upgrade: bool,
    ) -> PstmResult<(ExecOutcome, StepEffects)> {
        let denied = self.grant_denied(txn, resource, class, &op, now)?;
        let blocked = self.blocked(txn, resource, class);
        if !denied && !blocked {
            return self
                .grant(txn, resource, op, class, now)
                .map(|v| (ExecOutcome::Completed(v), StepEffects::none()));
        }
        // Queue (Algorithm 2, second branch). A Read holder strengthening
        // goes to the front, like a 2PL upgrade.
        let rs = self.resources.entry(resource).or_default();
        let entry = WaitEntry { txn, class, op, since: now };
        if is_upgrade {
            rs.waiting.push_front(entry);
        } else {
            rs.waiting.push_back(entry);
        }
        let queue_depth = rs.waiting.len() as u32;
        self.queued.insert(resource);
        let record = self.live(txn, "wait")?;
        record.state = TxnState::Waiting;
        record.waiting_on = Some(resource);
        self.tracer.emit(now, TraceEvent::OpWaiting { txn, resource, class, queue_depth });
        // Any cycle created by this wait passes through the requester, so
        // the search is scoped to it (cheap).
        let mut effects = self.break_deadlocks(Some(txn), AbortOrigin::Request, now)?;
        // The wait is policy-made, not contention-made: the grant was
        // free under the compatibility matrix and a §VII policy denied
        // it. Front-ends account it as admission wait.
        effects.denied_admission |= denied && !blocked;
        match Self::extract_requester(&mut effects, txn) {
            Some(outcome) => Ok((outcome, effects)),
            None => Ok((ExecOutcome::Waiting, effects)),
        }
    }

    /// Applies the §VII policies to an otherwise-grantable invocation.
    fn grant_denied(
        &self,
        txn: TxnId,
        resource: ResourceId,
        class: OpClass,
        op: &ScalarOp,
        now: Timestamp,
    ) -> PstmResult<bool> {
        let _phase = prof::PhaseTimer::start(CommitPhase::Admission);
        let mut denied = false;
        if self.config.elder_priority && self.awake_waiters(resource).any(|w| w.txn < txn) {
            self.tracer.emit(now, TraceEvent::StarvationDenied { txn, resource });
            denied = true;
        }
        if let Some(p) = self.config.starvation {
            let incompatible_waiters = self
                .awake_waiters(resource)
                .filter(|w| w.txn != txn && !self.config.compat.compatible(class, w.class))
                .count();
            if p.deny(incompatible_waiters) {
                self.tracer.emit(now, TraceEvent::StarvationDenied { txn, resource });
                denied = true;
            }
        }
        if self.admission_denies(txn, resource, op)? {
            self.tracer.emit(now, TraceEvent::AdmissionDenied { txn, resource });
            denied = true;
        }
        Ok(denied)
    }

    /// The §VII admission check shared by invocation and promotion:
    /// value-bounded concurrent additive holders. Only *decrementing*
    /// operations are bounded — an addition that restocks the resource
    /// must never be admission-denied, or a sold-out resource could
    /// deadlock its own replenishment.
    fn admission_denies(
        &self,
        txn: TxnId,
        resource: ResourceId,
        op: &ScalarOp,
    ) -> PstmResult<bool> {
        let Some(p) = self.config.admission else { return Ok(false) };
        if !op_decrements(op) {
            return Ok(false);
        }
        let current = self.perm(resource)?;
        let holders = self.resources.get(&resource).map_or(0, |rs| {
            rs.holders
                .iter()
                .filter(|(t, g)| **t != txn && g.class == OpClass::UpdateAddSub)
                .count()
        });
        Ok(p.deny(OpClass::UpdateAddSub, holders, &current))
    }

    /// Grants `(txn, class)` on `resource` and applies `op` to the fresh
    /// virtual copy. Postconditions of Algorithm 2's first branch:
    /// `X_pending ∪= (A, op)`, `X_read^A = X_permanent`,
    /// `A_temp = X_permanent`.
    /// Upgrades and fresh grants share one path: both seed the snapshot
    /// and virtual copy from the *current* permanent value (a
    /// strengthening measures its delta from the value the mutation
    /// actually starts from).
    fn grant(
        &mut self,
        txn: TxnId,
        resource: ResourceId,
        op: ScalarOp,
        class: OpClass,
        now: Timestamp,
    ) -> PstmResult<Value> {
        let permanent = self.perm(resource)?;
        // Apply the operation first: a failing op (e.g. arithmetic on the
        // fresh snapshot) must not leave a phantom holder behind.
        let new = op.apply(&permanent)?;
        self.history.observe_initial(resource, &permanent);
        let matrix = self.config.compat;
        let rs = self.resources.entry(resource).or_default();
        let pending = || rs.holders.iter().filter(|(t, g)| **t != txn && g.phase == Phase::Pending);
        let shared = pending().any(|(_, g)| !g.asleep);
        let bypassed = pending().any(|(_, g)| g.asleep && !matrix.compatible(class, g.class));
        let row = Grant {
            class,
            phase: Phase::Pending,
            asleep: false,
            read: permanent,
            temp: new.clone(),
        };
        rs.holders.insert(txn, row);
        let record = self.live(txn, "grant")?;
        record.hold(resource);
        record.op_log.push((resource, op));
        self.tracer.emit(
            now,
            TraceEvent::OpGranted { txn, resource, class, shared, bypassed_sleeper: bypassed },
        );
        Ok(new)
    }

    /// Deadlock detection (paper §VII: "classical approaches ... can be
    /// used"), always on: aborts the youngest member of each waits-for
    /// cycle — those reachable from `from`, or all of them — until none is
    /// left.
    fn break_deadlocks(
        &mut self,
        from: Option<TxnId>,
        origin: AbortOrigin,
        now: Timestamp,
    ) -> PstmResult<StepEffects> {
        let mut effects = StepEffects::none();
        loop {
            let graph = self.waits_for_graph();
            let found = from.map_or_else(|| graph.pick_victim(), |t| graph.pick_victim_from(t));
            let Some((victim, cycle)) = found else { break };
            self.tracer.emit(now, TraceEvent::DeadlockVictim { txn: victim, cycle });
            effects.merge(self.abort_internal(victim, AbortReason::Deadlock, origin, now)?);
        }
        Ok(effects)
    }

    /// Pulls the requester's own fate out of an effect set, if present,
    /// removing it from the side-effect lists (the caller learns its fate
    /// through the return value, not through `StepEffects`).
    fn extract_requester(effects: &mut StepEffects, txn: TxnId) -> Option<ExecOutcome> {
        if let Some(pos) = effects.aborted.iter().position(|(t, _)| *t == txn) {
            let (_, reason) = effects.aborted.remove(pos);
            return Some(ExecOutcome::Aborted(reason));
        }
        if let Some(pos) = effects.resumed.iter().position(|(t, _)| *t == txn) {
            let (_, value) = effects.resumed.remove(pos);
            return Some(ExecOutcome::Completed(value));
        }
        None
    }

    // ------------------------------------------------------------------
    // Algorithms 3–4: ⟨commit, X, A⟩ and ⟨commit, A⟩
    // ------------------------------------------------------------------

    /// Commits `txn`: local commit on every touched resource
    /// (reconciliation, Algorithm 3), then the global commit (Algorithm
    /// 4) — the SST flushes every `X_new` to the LDBS atomically. This is
    /// [`commit_one`] (the wave of one) on a manager the caller owns.
    ///
    /// Transient SST failures (I/O) are retried per
    /// [`GtmConfig::sst_retries`], each attempt charged
    /// [`GtmConfig::sst_retry_delay`] of virtual time; the total charge is
    /// reported in [`StepEffects::sst_busy`] and commit-side bookkeeping
    /// (committed timestamps, promotions) happens at the delayed instant.
    pub fn commit(
        &mut self,
        txn: TxnId,
        now: Timestamp,
    ) -> PstmResult<(CommitResult, StepEffects)> {
        let mut env = Owned::new(std::slice::from_mut(self), now);
        let result = commit_one(&mut env, Member { txn, home: 0, shards: &[0] })?;
        Ok((result, env.into_effects()))
    }

    /// The resources `txn` currently holds **mutating** grants on — the
    /// conservative write-set estimate [`crate::commit::commit_wave`] needs for its
    /// disjointness cut *before* reconciliation computes the real writes
    /// (reconciliation can only shrink the set, never grow it).
    #[must_use]
    pub fn mutated_resources(&self, txn: TxnId) -> Vec<ResourceId> {
        let Some(record) = self.live.get(&txn) else { return Vec::new() };
        let mutates = |r: &ResourceId| self.row(txn, *r).is_some_and(|g| g.class.is_mutation());
        record.held.iter().copied().filter(mutates).collect()
    }

    /// Phase one of a coordinated commit (Algorithm 3): moves the
    /// transaction to `Committing`, reconciles every touched resource and
    /// returns the writes the global commit must flush. On success the
    /// transaction is *parked* — the coordinator owns it until it calls
    /// [`Gtm::commit_finish`] (SST applied) or [`Gtm::commit_abort`] (SST
    /// failed). A local failure aborts the transaction immediately — it
    /// must never strand in `Committing`.
    pub fn commit_local(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<LocalCommit> {
        // The whole local commit is the reconcile phase; a failed commit's
        // unwind (abort_internal) carves out its own AbortUnwind time.
        let _phase = prof::PhaseTimer::start(CommitPhase::Reconcile);
        let record = self.live_in(txn, TxnState::Active, "commit")?;
        record.state = TxnState::Committing;
        let touched = record.held.clone();

        // Local commits: flip each row pending → committing, reconcile.
        // The row keeps `X_read^A` and `A_temp` until the SST is settled.
        // Any error here (a reconciliation overflow, an engine read
        // failure) aborts the transaction.
        let local_result: PstmResult<Vec<(ResourceId, Value)>> = (|| {
            self.fault_check(FaultSite::CommitLocal { shard: self.fault_shard }, now)?;
            let mut writes = Vec::new();
            for &resource in &touched {
                // The paper's "link drops mid-reconcile": each resource's
                // reconciliation is a separate arrival at the seam.
                self.fault_check(FaultSite::Reconcile { shard: self.fault_shard }, now)?;
                let permanent = self.perm(resource)?;
                let grant = self.row_mut(txn, resource).ok_or_else(|| {
                    PstmError::internal(format!("{txn} committing {resource} without a row"))
                })?;
                grant.phase = Phase::Committing;
                if !grant.class.is_mutation() {
                    continue;
                }
                if let Some(new) = reconcile(grant.class, &grant.temp, &grant.read, &permanent)? {
                    writes.push((resource, new));
                    self.tracer.emit(now, TraceEvent::Reconciled { txn, resource });
                }
            }
            Ok(writes)
        })();
        let reason = match local_result {
            Ok(writes) => return Ok(LocalCommit::Prepared(writes)),
            // Reconciliation failed in the value domain (overflow, zero
            // snapshot for mul/div, a result the column type rejects):
            // the transaction dies.
            Err(PstmError::Arithmetic(_)) | Err(PstmError::TypeMismatch { .. }) => {
                AbortReason::Constraint
            }
            Err(PstmError::Io(_)) => AbortReason::SstFailure,
            Err(e) => return Err(e),
        };
        let mut effects = self.abort_own(txn, reason, AbortOrigin::Commit, now)?;
        // Reconciliation ran (and failed) at `now`.
        effects.reconcile_span = Some((now, now));
        Ok(LocalCommit::Aborted(reason, effects))
    }

    /// Phase two (success) of a coordinated commit (Algorithm 4's tail):
    /// the coordinator's SST applied, so mark the transaction committed,
    /// record history and run promotions. Requires the transaction to be
    /// parked in `Committing` by a prior [`Gtm::commit_local`].
    pub fn commit_finish(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<StepEffects> {
        // History, committed marks, promotions: bookkeeping.
        let _phase = prof::PhaseTimer::start(CommitPhase::OpBookkeeping);
        self.live_in(txn, TxnState::Committing, "commit-finish")?;
        let record = self.finish(txn, TxnState::Committed, "commit-finish")?;
        // `X_committed` is only ever read by a transaction already asleep
        // at `X_tc` (Algorithm 9: `X_tc > A_t_sleep`), so the commit is
        // recorded only while someone sleeps, and the list it joins is
        // pruned to the earliest sleeper right here — a shard nobody waits
        // on never ticks.
        let earliest_sleep = self.sleepers.first().map(|(t_sleep, _)| *t_sleep);
        for resource in &record.held {
            let Some(rs) = self.resources.get_mut(resource) else { continue };
            let Some(grant) = rs.holders.remove(&txn) else { continue };
            if earliest_sleep.is_some() {
                rs.committed.push((txn, grant.class, now));
            }
            rs.prune_committed(earliest_sleep.unwrap_or(now));
        }
        self.history.record_commit(txn, record.op_log);
        self.tracer.emit(now, TraceEvent::Committed { txn });
        self.promote_all(record.held, now)
    }

    /// Phase two (failure) of a coordinated commit: the coordinator's SST
    /// failed, so abort (the rows go, whatever their phase). Requires the
    /// transaction to be parked in `Committing` by a prior
    /// [`Gtm::commit_local`]. The transaction's own fate is *not* in the
    /// returned effects — the coordinator already knows it.
    pub fn commit_abort(
        &mut self,
        txn: TxnId,
        reason: AbortReason,
        now: Timestamp,
    ) -> PstmResult<StepEffects> {
        self.live_in(txn, TxnState::Committing, "commit-abort")?;
        self.abort_own(txn, reason, AbortOrigin::Commit, now)
    }

    /// [`Gtm::abort_internal`] for an event that reports `txn`'s fate
    /// through its return value (a failed commit, a failed awakening): the
    /// returned effects name only the others.
    fn abort_own(
        &mut self,
        txn: TxnId,
        reason: AbortReason,
        origin: AbortOrigin,
        now: Timestamp,
    ) -> PstmResult<StepEffects> {
        let mut effects = self.abort_internal(txn, reason, origin, now)?;
        effects.aborted.retain(|(t, _)| *t != txn);
        Ok(effects)
    }

    // ------------------------------------------------------------------
    // Algorithms 5–6: ⟨abort, X, A⟩ and ⟨abort, A⟩
    // ------------------------------------------------------------------

    /// User-requested abort. Nothing reached the database (virtual copies
    /// only), so abort is pure bookkeeping plus promotions.
    pub fn abort(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<StepEffects> {
        self.abort_internal(txn, AbortReason::User, AbortOrigin::User, now)
    }

    fn abort_internal(
        &mut self,
        txn: TxnId,
        reason: AbortReason,
        origin: AbortOrigin,
        now: Timestamp,
    ) -> PstmResult<StepEffects> {
        let _phase = prof::PhaseTimer::start(CommitPhase::AbortUnwind);
        let record = self.finish(txn, TxnState::Aborted, "abort")?;
        if let Some(resource) = record.waiting_on {
            self.unqueue(resource, txn);
        }
        for resource in &record.held {
            if let Some(rs) = self.resources.get_mut(resource) {
                rs.holders.remove(&txn);
            }
        }
        self.tracer.emit(now, TraceEvent::Aborted { txn, reason, origin });
        let mut effects = self.promote_all(record.involved(), now)?;
        effects.aborted.push((txn, reason));
        Ok(effects)
    }

    // ------------------------------------------------------------------
    // Algorithms 7–8: ⟨sleep, X, A⟩ and ⟨sleep, A⟩
    // ------------------------------------------------------------------

    /// The oracle `Ξ` fired: `txn` disconnected or went idle. Its grants
    /// stop blocking other work (Algorithm 2 excludes `X_sleeping` from
    /// the conflict check), so sleeping can unblock queued waiters —
    /// promotions are returned.
    pub fn sleep(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<StepEffects> {
        let record = self.live(txn, "sleep")?;
        if !matches!(record.state, TxnState::Active | TxnState::Waiting) {
            return Err(PstmError::InvalidState {
                txn,
                action: "sleep",
                state: record.state.name(),
            });
        }
        record.state = TxnState::Sleeping;
        record.t_sleep = Some(now);
        let involved: Vec<ResourceId> = record.involved().collect();
        self.sleepers.insert((now, txn));
        self.mark_rows(txn, &involved, true);
        self.tracer.emit(now, TraceEvent::TxnSlept { txn });
        self.promote_all(involved, now)
    }

    /// Sets `Grant::asleep` on `txn`'s rows among `resources` (one it only
    /// waits on has none).
    fn mark_rows(&mut self, txn: TxnId, resources: &[ResourceId], asleep: bool) {
        for resource in resources {
            if let Some(grant) = self.row_mut(txn, *resource) {
                grant.asleep = asleep;
            }
        }
    }

    // ------------------------------------------------------------------
    // Algorithms 9–10: ⟨awake, X, A⟩ and ⟨awake, A⟩
    // ------------------------------------------------------------------

    /// The transaction reconnected. If no incompatible activity touched
    /// its resources while it slept (no conflicting pending/committing
    /// holder, no conflicting commit with `X_tc > A_t_sleep`), it resumes
    /// — a queued invocation is granted on the spot with a fresh snapshot
    /// (Algorithm 9, first branch). Otherwise it is aborted (third
    /// branch).
    pub fn awake(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<(AwakeResult, StepEffects)> {
        let record = self.live_in(txn, TxnState::Sleeping, "awake")?;
        let t_sleep = record.t_sleep.unwrap_or(Timestamp::ZERO);
        let held = record.held.clone();
        let queued: Option<(ResourceId, WaitEntry)> = record.waiting_on.and_then(|resource| {
            let queue = &self.resources.get(&resource)?.waiting;
            queue.iter().find(|w| w.txn == txn).map(|w| (resource, w.clone()))
        });

        // Conflict scan over everything the transaction is involved in,
        // each check spanning the resource's logical dependence group.
        let matrix = self.config.compat;
        let check = |resource: ResourceId, class: OpClass| -> bool {
            self.dependence.related(resource).any(|sibling| {
                self.resources.get(&sibling).is_some_and(|rs| {
                    rs.conflicts_with_any_holder(txn, class, &matrix)
                        || rs.incompatible_commit_after(txn, class, t_sleep, &matrix)
                })
            })
        };
        let conflicted = held.iter().any(|r| self.row(txn, *r).is_some_and(|g| check(*r, g.class)))
            || queued.as_ref().is_some_and(|(resource, w)| check(*resource, w.class));

        if conflicted {
            let effects =
                self.abort_own(txn, AbortReason::SleepConflict, AbortOrigin::Awake, now)?;
            return Ok((AwakeResult::Aborted, effects));
        }

        // No conflicts: clear the sleeping marks (Algorithm 9, second
        // branch) ...
        self.mark_rows(txn, &held, false);
        // ... and grant a queued invocation with a refreshed snapshot
        // (first branch: X_read^A = A_temp = X_permanent). The §VII
        // policies gate this grant like every other: if a policy denies
        // it, the invocation simply stays queued and the transaction
        // remains Waiting (it did reconnect — only its operation is
        // still pending).
        let mut value = None;
        let mut state = TxnState::Active;
        if let Some((resource, entry)) = queued {
            if self.grant_denied(txn, resource, entry.class, &entry.op, now)? {
                state = TxnState::Waiting;
            } else {
                self.unqueue(resource, txn);
                match self.grant(txn, resource, entry.op, entry.class, now) {
                    Ok(v) => value = Some(v),
                    Err(PstmError::Arithmetic(_)) => {
                        // The stashed op failed on the fresh snapshot: the
                        // transaction dies cleanly instead of stranding
                        // half-awake.
                        let effects =
                            self.abort_own(txn, AbortReason::Constraint, AbortOrigin::Awake, now)?;
                        return Ok((AwakeResult::Aborted, effects));
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        let record = self.live(txn, "awake")?;
        record.state = state;
        let slept = record.t_sleep.take();
        self.forget_sleeper(txn, slept);
        self.tracer.emit(now, TraceEvent::TxnAwoke { txn });
        Ok((AwakeResult::Resumed(value), StepEffects::none()))
    }

    // ------------------------------------------------------------------
    // Algorithm 11: ⟨unlock, X⟩ — promotion
    // ------------------------------------------------------------------

    /// Reconsiders the wait queues of `resources` after removals. FIFO
    /// with skip-over: grantable awake entries are granted (each on a
    /// fresh snapshot), sleeping and still-blocked entries stay queued.
    fn promote_all(
        &mut self,
        resources: impl IntoIterator<Item = ResourceId>,
        now: Timestamp,
    ) -> PstmResult<StepEffects> {
        let mut effects = StepEffects::none();
        if self.queued.is_empty() {
            return Ok(effects);
        }
        // A removal on one member can unblock waiters queued on a
        // logically dependent sibling — expand the scan to each
        // resource's dependence group, in resource order. Only a queued
        // resource has anyone to promote, and promotion never queues.
        let scan: BTreeSet<ResourceId> = resources
            .into_iter()
            .flat_map(|r| self.dependence.related(r))
            .filter(|r| self.queued.contains(r))
            .collect();
        for resource in scan {
            let mut idx = 0;
            while let Some(entry) =
                self.resources.get(&resource).and_then(|rs| rs.waiting.get(idx)).cloned()
            {
                if self.is_asleep(entry.txn) {
                    idx += 1;
                    continue; // Algorithm 11: X_waiting − X_sleeping
                }
                let mut denied = self.blocked(entry.txn, resource, entry.class);
                if !denied {
                    // Admission still applies at promotion time. Not
                    // counted in `admission_denials`: promotion re-runs on
                    // every tick, so counting re-evaluations of the same
                    // queued op would swamp the stat with polling noise —
                    // the counter tracks denied *invocations*.
                    denied = self.admission_denies(entry.txn, resource, &entry.op)?;
                }
                if !denied {
                    // Starvation control also applies: skip-over
                    // promotion must not carry a compatible entry past
                    // `deny_threshold` awake incompatible waiters queued
                    // ahead of it, or the lock-deny of Algorithm 2 would
                    // be undone at every unlock.
                    if let Some(p) = self.config.starvation {
                        let incompatible_ahead = self.resources[&resource]
                            .waiting
                            .iter()
                            .take(idx)
                            .filter(|w| !self.is_asleep(w.txn))
                            .filter(|w| !self.config.compat.compatible(entry.class, w.class))
                            .count();
                        if p.deny(incompatible_ahead) {
                            self.tracer.emit(
                                now,
                                TraceEvent::StarvationDenied { txn: entry.txn, resource },
                            );
                            denied = true;
                        }
                    }
                }
                if denied {
                    if self.config.elder_priority {
                        break; // strict FIFO: nothing may overtake a blocked elder
                    }
                    idx += 1;
                    continue;
                }
                // Grant it (a queue holds at most one entry per transaction).
                self.unqueue(resource, entry.txn);
                match self.grant(entry.txn, resource, entry.op, entry.class, now) {
                    Ok(value) => {
                        let record = self.live(entry.txn, "promote")?;
                        if record.state == TxnState::Waiting {
                            record.state = TxnState::Active;
                        }
                        effects.resumed.push((entry.txn, value));
                    }
                    Err(PstmError::Arithmetic(_)) => {
                        // The stashed op failed on the fresh snapshot
                        // (e.g. divide by a value that became zero): the
                        // transaction dies.
                        effects.merge(self.abort_internal(
                            entry.txn,
                            AbortReason::Constraint,
                            AbortOrigin::Promotion,
                            now,
                        )?);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(effects)
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Builds the waits-for graph: each awake waiter → every blocking
    /// holder its class conflicts with, spanning logical dependence
    /// groups.
    #[must_use]
    pub fn waits_for_graph(&self) -> WaitsForGraph {
        let mut g = WaitsForGraph::new();
        // Only a queued resource has waiters to draw edges from.
        for &resource in &self.queued {
            for w in self.awake_waiters(resource) {
                for holder in self.blockers(w.txn, resource, w.class) {
                    g.add_edge(w.txn, holder);
                }
            }
        }
        g
    }

    /// The current waits-for graph rendered as Graphviz DOT — a debugging
    /// artifact (`dot -Tsvg`) showing who blocks whom right now.
    #[must_use]
    pub fn waits_for_dot(&self) -> String {
        pstm_obs::waits_for_dot(self.waits_for_graph().edges())
    }

    /// Periodic maintenance: deadlock detection, wait timeouts, committed
    /// set pruning. The simulator calls this on clock advances; the
    /// front-ends call it every few milliseconds under the shard lock, so
    /// the timeout and promotion passes walk `queued` and the horizon is
    /// `sleepers`' first entry — cost follows waiters and resources,
    /// never the finished transactions the tombstone index keeps.
    pub fn tick(&mut self, now: Timestamp) -> PstmResult<StepEffects> {
        let mut effects = self.break_deadlocks(None, AbortOrigin::Tick, now)?;
        if let Some(timeout) = self.config.wait_timeout {
            let expired: Vec<TxnId> = self
                .wait_entries()
                .filter(|w| now.since(w.since) >= timeout)
                .map(|w| w.txn)
                .collect();
            for t in expired {
                // Re-check per abort: an earlier victim's release may have
                // promoted this waiter already — an Active transaction
                // must not be killed by a stale expiry list.
                if self.state(t) == Some(TxnState::Waiting) {
                    effects.merge(self.abort_internal(
                        t,
                        AbortReason::LockTimeout,
                        AbortOrigin::Tick,
                        now,
                    )?);
                }
            }
        }
        // Admission-denied waiters can be stalled on an otherwise idle
        // resource (no removal event will ever re-trigger promotion, but
        // the resource value may have changed); re-run promotion over
        // every resource with a queue.
        if !self.queued.is_empty() {
            effects.merge(self.promote_all(self.queued.clone(), now)?);
        }
        // Prune committed sets below the horizon any sleeper can observe
        // (a commit prunes the lists it touches; this sweeps the rest).
        let horizon = self.sleepers.first().map_or(now, |(t_sleep, _)| *t_sleep);
        for rs in self.resources.values_mut() {
            rs.prune_committed(horizon);
        }
        Ok(effects)
    }

    /// The earliest instant at which [`Gtm::tick`] has scheduled work to
    /// do for a *currently queued* waiter: the oldest wait entry's
    /// `since + wait_timeout`. `None` when nothing is waiting or wait
    /// timeouts are disabled — a waiter (a reactor worker or a blocked
    /// front-end thread) then needs no deadline timer for this shard at
    /// all.
    ///
    /// Deadlock detection and promotion have no deadline of their own:
    /// both are re-run on every tick, so an event-driven caller should
    /// tick at `min(next_wake_deadline, its own coarse cadence)` while
    /// waiters exist.
    #[must_use]
    pub fn next_wake_deadline(&self) -> Option<Timestamp> {
        let timeout = self.config.wait_timeout?;
        self.wait_entries().map(|w| Timestamp(w.since.0.saturating_add(timeout.0))).min()
    }

    /// True while any transaction is queued on any resource — the
    /// condition under which an event-driven caller keeps a tick timer
    /// armed for this shard.
    #[must_use]
    pub fn has_waiters(&self) -> bool {
        !self.queued.is_empty()
    }

    /// Verifies the cross-structure bookkeeping invariants of the manager;
    /// returns a description of the first violation. Used by the fuzz
    /// tests after every event.
    pub fn check_invariants(&self) -> Result<(), String> {
        let live = |t: &TxnId| {
            self.live.get(t).ok_or_else(|| match self.finished.get(t) {
                Some(state) => format!("terminal ({state}) {t} still referenced"),
                None => format!("{t} unknown"),
            })
        };
        for (t, state) in &self.finished {
            if self.live.contains_key(t) {
                return Err(format!("{t} is live and in the tombstone index ({state})"));
            }
            if !state.is_terminal() {
                return Err(format!("tombstone of {t} in non-terminal state {state}"));
            }
        }
        for (resource, rs) in &self.resources {
            for (t, grant) in &rs.holders {
                let record = live(t).map_err(|e| format!("holder of {resource}: {e}"))?;
                if !record.held.contains(resource) {
                    return Err(format!("{t} has a row on {resource} its record does not hold"));
                }
                if grant.asleep != (record.state == TxnState::Sleeping) {
                    return Err(format!(
                        "{t} is {} but its row on {resource} says asleep = {}",
                        record.state, grant.asleep
                    ));
                }
                if grant.phase == Phase::Committing {
                    return Err(format!("{t} still committing on {resource} between events"));
                }
            }
            for w in &rs.waiting {
                let record = live(&w.txn).map_err(|e| format!("waiter on {resource}: {e}"))?;
                if !matches!(record.state, TxnState::Waiting | TxnState::Sleeping) {
                    return Err(format!(
                        "{} queued on {resource} but in state {}",
                        w.txn, record.state
                    ));
                }
                if record.waiting_on != Some(*resource) {
                    return Err(format!(
                        "{} queued on {resource} but waiting_on is {:?}",
                        w.txn, record.waiting_on
                    ));
                }
            }
        }
        for (t, record) in &self.live {
            if !record.held.windows(2).all(|pair| pair[0] < pair[1]) {
                return Err(format!("{t} holds {:?}, not in resource order", record.held));
            }
            for resource in &record.held {
                if self.row(*t, *resource).is_none() {
                    return Err(format!("{t} holds {resource} but has no row there"));
                }
            }
            let in_queue = record.waiting_on.is_some_and(|resource| {
                self.resources
                    .get(&resource)
                    .is_some_and(|rs| rs.waiting.iter().any(|w| w.txn == *t))
            });
            if record.waiting_on.is_some() != in_queue {
                return Err(format!(
                    "{t} waits on {:?} but that queue does not hold it",
                    record.waiting_on
                ));
            }
            match record.state {
                TxnState::Waiting if !in_queue => {
                    return Err(format!("{t} Waiting without a queued invocation"));
                }
                TxnState::Active if in_queue => {
                    return Err(format!("{t} Active with an invocation pending"));
                }
                TxnState::Active | TxnState::Waiting | TxnState::Sleeping => {}
                other => {
                    return Err(format!("{t} left in state {other} with a working record"));
                }
            }
        }
        // The two indexes `tick` trusts, recomputed the slow way.
        let queued: BTreeSet<ResourceId> = self
            .resources
            .iter()
            .filter(|(_, rs)| !rs.waiting.is_empty())
            .map(|(r, _)| *r)
            .collect();
        if queued != self.queued {
            return Err(format!(
                "queued index {:?} but the non-empty wait queues are {queued:?}",
                self.queued
            ));
        }
        let sleepers: BTreeSet<(Timestamp, TxnId)> = self
            .live
            .iter()
            .filter(|(_, record)| record.state == TxnState::Sleeping)
            .filter_map(|(t, record)| record.t_sleep.map(|t_sleep| (t_sleep, *t)))
            .collect();
        if sleepers != self.sleepers {
            return Err(format!(
                "sleepers index {:?} but the sleeping transactions are {sleepers:?}",
                self.sleepers
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstm_workload::counter_world;

    const TIMEOUT: Duration = Duration(1_000);

    fn gtm(objects: usize) -> (Gtm, Vec<ResourceId>) {
        let world = counter_world(objects, 1_000_000).unwrap();
        let config = GtmConfig { wait_timeout: Some(TIMEOUT), ..GtmConfig::default() };
        (Gtm::new(world.db.clone(), world.bindings.clone(), config), world.resources)
    }

    fn sub_one() -> ScalarOp {
        ScalarOp::Sub(Value::Int(1))
    }

    /// A sleeper holding `on`, and a waiter queued on `behind` after an
    /// incompatible holder — one entry in each index. Returns
    /// `(sleeper, holder, waiter)`.
    fn one_sleeper_one_waiter(
        g: &mut Gtm,
        ids: u64,
        on: ResourceId,
        behind: ResourceId,
        now: Timestamp,
    ) -> (TxnId, TxnId, TxnId) {
        let (sleeper, holder, waiter) = (TxnId(ids), TxnId(ids + 1), TxnId(ids + 2));
        for t in [sleeper, holder, waiter] {
            g.begin(t, now).unwrap();
        }
        g.execute(sleeper, on, sub_one(), now).unwrap();
        g.sleep(sleeper, now).unwrap();
        g.execute(holder, behind, ScalarOp::Assign(Value::Int(5)), now).unwrap();
        let (queued, _) = g.execute(waiter, behind, sub_one(), now).unwrap();
        assert_eq!(queued, ExecOutcome::Waiting);
        (sleeper, holder, waiter)
    }

    // The scans `tick`, `next_wake_deadline` and `has_waiters` made
    // before the indexes existed — the reference the indexes must match.

    fn full_scan_has_waiters(g: &Gtm) -> bool {
        g.resources.values().any(|rs| !rs.waiting.is_empty())
    }

    fn full_scan_deadline(g: &Gtm) -> Option<Timestamp> {
        g.resources
            .values()
            .flat_map(|rs| rs.waiting.iter())
            .map(|w| Timestamp(w.since.0 + TIMEOUT.0))
            .min()
    }

    fn full_scan_expired(g: &Gtm, now: Timestamp) -> Vec<TxnId> {
        g.resources
            .values()
            .flat_map(|rs| rs.waiting.iter())
            .filter(|w| now.since(w.since) >= TIMEOUT)
            .map(|w| w.txn)
            .collect()
    }

    fn full_scan_horizon(g: &Gtm, now: Timestamp) -> Timestamp {
        g.live
            .values()
            .filter(|r| r.state == TxnState::Sleeping)
            .filter_map(|r| r.t_sleep)
            .min()
            .unwrap_or(now)
    }

    #[test]
    fn the_indexes_answer_as_a_full_scan_does_under_50_000_finished_transactions() {
        const FINISHED: u64 = 50_000;
        let (mut g, resources) = gtm(4);
        let mut clock = 0u64;
        let mut finish = |g: &mut Gtm, id: u64| {
            clock += 1;
            let (txn, now) = (TxnId(id), Timestamp(clock));
            g.begin(txn, now).unwrap();
            g.execute(txn, resources[id as usize % 2], sub_one(), now).unwrap();
            if id.is_multiple_of(2) {
                assert_eq!(g.commit(txn, now).unwrap().0, CommitResult::Committed);
            } else {
                g.abort(txn, now).unwrap();
            }
            now
        };
        for id in 1..=FINISHED {
            finish(&mut g, id);
        }
        let slept_at = Timestamp(FINISHED + 1);
        let (_, _, waiter) =
            one_sleeper_one_waiter(&mut g, FINISHED + 1, resources[2], resources[3], slept_at);
        // Commits the sleeper can still observe, next to ones it cannot.
        let mut now = slept_at;
        for id in FINISHED + 4..FINISHED + 10 {
            now = finish(&mut g, id);
        }
        assert_eq!((g.live.len() + g.finished.len()) as u64, FINISHED + 9);

        for now in [now, Timestamp(slept_at.0 + TIMEOUT.0)] {
            assert!(g.has_waiters() && full_scan_has_waiters(&g));
            assert_eq!(g.next_wake_deadline(), full_scan_deadline(&g));
            assert_eq!(g.next_wake_deadline(), Some(Timestamp(slept_at.0 + TIMEOUT.0)));
            let expired = full_scan_expired(&g, now);
            let horizon = full_scan_horizon(&g, now);
            assert_eq!(horizon, slept_at);
            let observable = |g: &Gtm| -> usize {
                let kept =
                    |rs: &ResourceState| rs.committed.iter().filter(|c| c.2 > horizon).count();
                g.resources.values().map(kept).sum()
            };
            let before = observable(&g);
            assert!(before > 0);
            let effects = g.tick(now).unwrap();
            let timed_out: Vec<TxnId> = effects.aborted.iter().map(|(t, _)| *t).collect();
            assert_eq!(timed_out, expired);
            assert!(effects.aborted.iter().all(|(_, why)| *why == AbortReason::LockTimeout));
            let kept: usize = g.resources.values().map(|rs| rs.committed.len()).sum();
            assert_eq!(
                (kept, observable(&g)),
                (before, before),
                "pruned exactly below the horizon"
            );
            g.check_invariants().unwrap();
        }
        assert_eq!(g.state(waiter), Some(TxnState::Aborted));
        assert!(!g.has_waiters() && !full_scan_has_waiters(&g));
        assert_eq!(g.next_wake_deadline(), None);
    }

    /// The graph `waits_for_graph` built before it followed `queued`: a
    /// walk over every resource the manager has ever seen.
    fn full_scan_graph(g: &Gtm) -> WaitsForGraph {
        let mut graph = WaitsForGraph::new();
        for (resource, rs) in &g.resources {
            for w in rs.waiting.iter().filter(|w| !g.is_asleep(w.txn)) {
                for sibling in g.dependence.related(*resource) {
                    let Some(srs) = g.resources.get(&sibling) else { continue };
                    for holder in srs.blocking_conflicts(w.txn, w.class, &g.config.compat) {
                        graph.add_edge(w.txn, holder);
                    }
                }
            }
        }
        graph
    }

    #[test]
    fn the_waits_for_graph_follows_the_queues_not_the_resource_table() {
        const IDLE: usize = 10_000;
        let (g, resources) = gtm(IDLE + 2);
        let (group_a, group_b) = (resources[IDLE], resources[IDLE + 1]);
        let mut dependence = DependenceMap::new();
        dependence.declare_dependent(&[group_a, group_b]).unwrap();
        let mut g = g.with_dependence(dependence);
        let now = Timestamp(1);
        let reader = TxnId(1);
        g.begin(reader, now).unwrap();
        for r in &resources[..IDLE] {
            g.execute(reader, *r, ScalarOp::Read, now).unwrap();
        }
        assert!(g.resources.len() >= IDLE);
        assert_eq!(g.waits_for_graph().edge_count(), 0, "no queue, no edges");

        // One waiter behind two incompatible holders, one of them across
        // the dependence group; a second, sleeping, waiter draws no edge.
        let (holder, sibling_holder, waiter, sleeper) = (TxnId(2), TxnId(3), TxnId(4), TxnId(5));
        for t in [holder, sibling_holder, waiter, sleeper] {
            g.begin(t, now).unwrap();
        }
        g.execute(holder, group_a, sub_one(), now).unwrap();
        g.execute(sibling_holder, group_b, sub_one(), now).unwrap();
        for t in [waiter, sleeper] {
            let (outcome, _) = g.execute(t, group_a, ScalarOp::Assign(Value::Int(6)), now).unwrap();
            assert_eq!(outcome, ExecOutcome::Waiting);
        }
        g.sleep(sleeper, now).unwrap();
        let edges: Vec<_> = g.waits_for_graph().edges().collect();
        assert_eq!(edges, [(waiter, holder), (waiter, sibling_holder)]);
        assert_eq!(edges, full_scan_graph(&g).edges().collect::<Vec<_>>());
        g.check_invariants().unwrap();
    }

    #[test]
    fn a_commit_nobody_can_observe_leaves_nothing_in_x_committed() {
        let (mut g, resources) = gtm(3);
        let mut clock = 0u64;
        let mut commit = |g: &mut Gtm, id: u64, on: ResourceId, op: ScalarOp| {
            clock += 1;
            let (txn, now) = (TxnId(id), Timestamp(clock));
            g.begin(txn, now).unwrap();
            g.execute(txn, on, op, now).unwrap();
            assert_eq!(g.commit(txn, now).unwrap().0, CommitResult::Committed);
            now
        };
        let retained = |g: &Gtm| -> Vec<usize> {
            resources
                .iter()
                .map(|r| g.resources.get(r).map_or(0, |rs| rs.committed.len()))
                .collect()
        };
        // No sleeper, and nobody ever ticks (the blocking front-ends only
        // tick for a waiter): nothing may pile up.
        for id in 1..=10_000 {
            commit(&mut g, id, resources[id as usize % 2], sub_one());
        }
        assert_eq!(retained(&g), [0, 0, 0]);

        // With a sleeper, what commits after it slept is kept — on every
        // resource, it may yet touch them — until it is gone.
        let sleeper = TxnId(20_000);
        let slept_at = commit(&mut g, 10_001, resources[1], sub_one());
        g.begin(sleeper, slept_at).unwrap();
        g.execute(sleeper, resources[0], sub_one(), slept_at).unwrap();
        g.sleep(sleeper, slept_at).unwrap();
        commit(&mut g, 10_002, resources[0], ScalarOp::Assign(Value::Int(7)));
        commit(&mut g, 10_003, resources[1], sub_one());
        commit(&mut g, 10_004, resources[1], sub_one());
        assert_eq!(retained(&g), [1, 2, 0]);
        // Algorithm 9's third branch reads the entry: the assignment
        // bypassed the sleeper and committed after it slept.
        let (result, _) = g.awake(sleeper, Timestamp(20_000)).unwrap();
        assert_eq!(result, AwakeResult::Aborted);
        // The sleeper is gone: the next commit on a resource empties its
        // list, a tick sweeps the lists no commit touches again.
        commit(&mut g, 10_005, resources[1], sub_one());
        assert_eq!(retained(&g), [1, 0, 0]);
        g.tick(Timestamp(20_001)).unwrap();
        assert_eq!(retained(&g), [0, 0, 0]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn check_invariants_catches_a_corrupted_index() {
        let (mut g, resources) = gtm(3);
        let (sleeper, _, _) =
            one_sleeper_one_waiter(&mut g, 1, resources[0], resources[1], Timestamp(7));
        g.check_invariants().unwrap();

        g.queued.insert(resources[2]);
        assert!(g.check_invariants().unwrap_err().contains("queued index"));
        g.queued.remove(&resources[2]);
        g.queued.remove(&resources[1]);
        assert!(g.check_invariants().unwrap_err().contains("queued index"));
        g.queued.insert(resources[1]);
        g.check_invariants().unwrap();

        g.sleepers.insert((Timestamp(3), TxnId(99)));
        assert!(g.check_invariants().unwrap_err().contains("sleepers index"));
        g.sleepers.clear();
        assert!(g.check_invariants().unwrap_err().contains("sleepers index"));
        g.sleepers.insert((Timestamp(7), sleeper));
        g.check_invariants().unwrap();
    }

    #[test]
    fn check_invariants_catches_a_row_that_disagrees_with_its_record() {
        let (mut g, resources) = gtm(3);
        let (sleeper, holder, _) =
            one_sleeper_one_waiter(&mut g, 1, resources[0], resources[1], Timestamp(7));
        g.check_invariants().unwrap();

        // `Grant::asleep` mirrors `A_state = Sleeping`, both ways.
        g.row_mut(sleeper, resources[0]).unwrap().asleep = false;
        assert!(g.check_invariants().unwrap_err().contains("asleep = false"));
        g.row_mut(sleeper, resources[0]).unwrap().asleep = true;
        g.row_mut(holder, resources[1]).unwrap().asleep = true;
        assert!(g.check_invariants().unwrap_err().contains("asleep = true"));
        g.row_mut(holder, resources[1]).unwrap().asleep = false;
        g.check_invariants().unwrap();

        // `held` lists exactly the rows, in resource order.
        g.live(holder, "test").unwrap().held.clear();
        assert!(g.check_invariants().unwrap_err().contains("its record does not hold"));
        g.live(holder, "test").unwrap().held = vec![resources[1], resources[2]];
        assert!(g.check_invariants().unwrap_err().contains("has no row there"));
        let row = g.row_mut(holder, resources[1]).unwrap().clone();
        g.resources.entry(resources[0]).or_default().holders.insert(holder, row);
        g.live(holder, "test").unwrap().held = vec![resources[1], resources[0]];
        assert!(g.check_invariants().unwrap_err().contains("not in resource order"));
        g.live(holder, "test").unwrap().held = vec![resources[0], resources[1]];
        g.check_invariants().unwrap();

        // A tombstone owns no row.
        g.live.remove(&holder);
        g.finished.insert(holder, TxnState::Aborted);
        assert!(g.check_invariants().unwrap_err().contains("still referenced"));
    }

    #[test]
    fn a_finished_record_keeps_no_working_state() {
        let (mut g, resources) = gtm(2);
        let now = Timestamp(1);
        let (committed, aborted) = (TxnId(1), TxnId(2));
        for txn in [committed, aborted] {
            g.begin(txn, now).unwrap();
            g.execute(txn, resources[0], sub_one(), now).unwrap();
            g.execute(txn, resources[1], sub_one(), now).unwrap();
        }
        assert_eq!(g.commit(committed, now).unwrap().0, CommitResult::Committed);
        g.abort(aborted, now).unwrap();
        // Nothing left but the final state: the op log moved out (to the
        // history, if it committed) and the rows are gone.
        assert!(g.live.is_empty());
        assert_eq!(g.finished[&committed], TxnState::Committed);
        assert_eq!(g.finished[&aborted], TxnState::Aborted);
        assert!(g.resources.values().all(|rs| rs.holders.is_empty()));
        assert_eq!(g.history().committed_count(), 1);
        g.check_invariants().unwrap();
        // A tombstone refuses every event by its final state.
        let err = g.execute(committed, resources[0], sub_one(), now).unwrap_err();
        assert!(
            matches!(err, PstmError::InvalidState { action: "invoke", state: "committed", .. }),
            "{err:?}"
        );
        assert!(matches!(
            g.abort(aborted, now).unwrap_err(),
            PstmError::InvalidState { action: "abort", state: "aborted", .. }
        ));
    }

    #[test]
    fn a_finished_id_is_refused_from_the_index_by_its_final_state() {
        let (mut g, resources) = gtm(2);
        let now = Timestamp(1);
        let (committed, aborted) = (TxnId(7), TxnId(8));
        for txn in [committed, aborted] {
            g.begin(txn, now).unwrap();
            g.execute(txn, resources[0], sub_one(), now).unwrap();
        }
        assert_eq!(g.commit(committed, now).unwrap().0, CommitResult::Committed);
        g.abort(aborted, now).unwrap();
        assert!(g.live.is_empty());
        for (txn, name) in [(committed, "committed"), (aborted, "aborted")] {
            assert_eq!(g.state(txn).map(TxnState::name), Some(name));
            let refusals = [
                (g.execute(txn, resources[1], sub_one(), now).unwrap_err(), "invoke"),
                (g.commit(txn, now).unwrap_err(), "commit"),
                (g.sleep(txn, now).unwrap_err(), "sleep"),
                (g.abort(txn, now).unwrap_err(), "abort"),
                (g.awake(txn, now).unwrap_err(), "awake"),
            ];
            for (err, action) in refusals {
                assert_eq!(err, PstmError::InvalidState { txn, action, state: name });
            }
            assert_eq!(
                g.begin(txn, now).unwrap_err(),
                PstmError::InvalidState { txn, action: "begin", state: "already known" }
            );
        }
        // An id the manager never saw is unknown, not finished.
        assert_eq!(g.abort(TxnId(9), now).unwrap_err(), PstmError::UnknownTxn(TxnId(9)));
        assert_eq!(g.state(TxnId(9)), None);
        // An older id that first reaches this shard after newer ids
        // finished here (a cross-shard session that touched other shards
        // first) begins normally: the index records ids, not a horizon.
        let elder = TxnId(3);
        g.begin(elder, now).unwrap();
        g.execute(elder, resources[1], sub_one(), now).unwrap();
        assert_eq!(g.commit(elder, now).unwrap().0, CommitResult::Committed);
        assert_eq!(g.finished.keys().copied().collect::<Vec<_>>(), [elder, committed, aborted]);
        g.check_invariants().unwrap();
        g.verify_serializable().unwrap();
    }

    #[test]
    fn check_invariants_catches_an_id_in_both_maps_and_a_tombstone_that_is_not_final() {
        let (mut g, resources) = gtm(1);
        let now = Timestamp(1);
        g.begin(TxnId(1), now).unwrap();
        g.execute(TxnId(1), resources[0], sub_one(), now).unwrap();
        g.finished.insert(TxnId(1), TxnState::Committed);
        assert!(g.check_invariants().unwrap_err().contains("live and in the tombstone index"));
        g.finished.clear();
        g.check_invariants().unwrap();
        g.finished.insert(TxnId(2), TxnState::Committing);
        assert!(g.check_invariants().unwrap_err().contains("non-terminal"));
    }
}
