//! The strict 2PL transaction manager.

use pstm_lock::{LockManager, LockMode, LockOutcome};
use pstm_obs::{AbortOrigin, Ctr, Emitter, MetricsRegistry, TraceEvent, Tracer};
use pstm_storage::{BindingRegistry, Database};
use pstm_types::{
    AbortReason, Duration, ExecOutcome, PstmError, PstmResult, ResourceId, ScalarOp, StepEffects,
    Timestamp, TxnId, Value,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of the baseline.
#[derive(Clone, Copy, Debug)]
pub struct TwoPlConfig {
    /// Abort a sleeping transaction after this long asleep — the
    /// classical answer to a disconnected client holding locks. `None`
    /// lets sleepers hold locks forever.
    pub sleep_timeout: Option<Duration>,
    /// Abort a waiter after this long queued. `None` disables.
    pub lock_timeout: Option<Duration>,
    /// Run waits-for-graph deadlock detection whenever a request waits.
    pub deadlock_detection: bool,
}

impl Default for TwoPlConfig {
    fn default() -> Self {
        TwoPlConfig {
            sleep_timeout: Some(Duration::from_secs_f64(30.0)),
            lock_timeout: None,
            deadlock_detection: true,
        }
    }
}

/// Life-cycle phase of a transaction under the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnPhase {
    /// Running normally.
    Active,
    /// Queued on a lock.
    Waiting,
    /// Disconnected/idle; locks retained.
    Sleeping,
    /// Finished successfully.
    Committed,
    /// Finished by abort.
    Aborted,
}

#[derive(Debug)]
struct TpTxn {
    phase: TxnPhase,
    engine_begun: bool,
    /// Operation stashed while waiting for its lock.
    pending: Option<(ResourceId, ScalarOp)>,
    sleep_since: Option<Timestamp>,
    /// Set while sleeping if the pending op completed during the sleep.
    completed_while_asleep: Option<Value>,
}

/// Counters for the experiment harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TwoPlStats {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// System + user aborts.
    pub aborted: u64,
    /// Aborts of transactions that were asleep past the timeout.
    pub aborted_sleep_timeout: u64,
    /// Deadlock-victim aborts.
    pub aborted_deadlock: u64,
    /// Lock-wait-timeout aborts.
    pub aborted_lock_timeout: u64,
    /// Operations that completed (immediately or after a wait).
    pub ops_completed: u64,
    /// Operations that had to wait.
    pub ops_waited: u64,
}

impl TwoPlStats {
    /// Projects the baseline's counters out of an obs registry — the only
    /// way 2PL stats are produced, so they cannot drift from the trace.
    #[must_use]
    pub fn from_registry(reg: &MetricsRegistry) -> Self {
        TwoPlStats {
            begun: reg.counter(Ctr::Begun),
            committed: reg.counter(Ctr::Committed),
            aborted: reg.counter(Ctr::Aborted),
            aborted_sleep_timeout: reg.counter(Ctr::AbortedSleepTimeout),
            aborted_deadlock: reg.counter(Ctr::AbortedDeadlock),
            aborted_lock_timeout: reg.counter(Ctr::AbortedLockTimeout),
            ops_completed: reg.counter(Ctr::OpsCompleted),
            ops_waited: reg.counter(Ctr::OpsWaited),
        }
    }
}

/// The strict 2PL manager.
pub struct TwoPlManager {
    db: Arc<Database>,
    bindings: BindingRegistry,
    locks: LockManager,
    txns: BTreeMap<TxnId, TpTxn>,
    config: TwoPlConfig,
    obs: Emitter,
}

impl TwoPlManager {
    /// Builds a manager over `db` with the given resource bindings.
    #[must_use]
    pub fn new(db: Arc<Database>, bindings: BindingRegistry, config: TwoPlConfig) -> Self {
        let (locks, obs) = (LockManager::new(), Emitter::default());
        TwoPlManager { db, bindings, locks, txns: BTreeMap::new(), config, obs }
    }

    /// Streams this manager's records, and its lock table's, to `tracer`:
    /// scheduler and lock events interleave in one trace. Builder-style;
    /// call before scheduling begins.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.locks.set_tracer(tracer.clone());
        self.obs.set_tracer(tracer);
        self
    }

    /// The metrics this manager's and its lock table's events produced,
    /// merged.
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        let mut metrics = self.obs.registry().clone();
        metrics.merge(self.locks.metrics());
        metrics
    }

    /// Emits an event on this manager's behalf (a simulated link's
    /// transitions).
    pub fn emit(&mut self, now: Timestamp, event: TraceEvent) {
        self.obs.emit(now, event);
    }

    /// Immutable view of the counters, projected from the manager's
    /// registry.
    #[must_use]
    pub fn stats(&self) -> TwoPlStats {
        TwoPlStats::from_registry(self.obs.registry())
    }

    /// Phase of `txn`, if known.
    #[must_use]
    pub fn phase(&self, txn: TxnId) -> Option<TxnPhase> {
        self.txns.get(&txn).map(|t| t.phase)
    }

    /// The shared database handle.
    #[must_use]
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The binding registry (resource → storage locations).
    #[must_use]
    pub fn bindings(&self) -> &BindingRegistry {
        &self.bindings
    }

    /// `⟨begin, A⟩`.
    pub fn begin(&mut self, txn: TxnId) -> PstmResult<()> {
        if self.txns.contains_key(&txn) {
            return Err(PstmError::InvalidState { txn, action: "begin", state: "already known" });
        }
        self.txns.insert(
            txn,
            TpTxn {
                phase: TxnPhase::Active,
                engine_begun: false,
                pending: None,
                sleep_since: None,
                completed_while_asleep: None,
            },
        );
        self.obs.emit_unclocked([TraceEvent::TxnBegin { txn }]);
        Ok(())
    }

    fn txn_mut(&mut self, txn: TxnId) -> PstmResult<&mut TpTxn> {
        self.txns.get_mut(&txn).ok_or(PstmError::UnknownTxn(txn))
    }

    /// Submits one operation. Reads take a shared lock, mutations an
    /// exclusive lock (upgrading a held shared lock if necessary).
    pub fn execute(
        &mut self,
        txn: TxnId,
        resource: ResourceId,
        op: ScalarOp,
        now: Timestamp,
    ) -> PstmResult<(ExecOutcome, StepEffects)> {
        let state = self.txn_mut(txn)?;
        if state.phase != TxnPhase::Active {
            return Err(PstmError::InvalidState {
                txn,
                action: "execute",
                state: phase_name(state.phase),
            });
        }
        let class = op.class();
        self.obs.emit(now, TraceEvent::OpRequested { txn, resource, class });
        let mode = if op.is_mutation() { LockMode::Exclusive } else { LockMode::Shared };
        match self.locks.request(txn, resource, mode, now)? {
            LockOutcome::Granted => {
                let value = match self.perform(txn, resource, &op) {
                    Ok(v) => v,
                    Err(PstmError::ConstraintViolation { .. }) => {
                        // A constraint rejection kills the whole
                        // transaction, classical DBMS-style.
                        let effects = self.abort_internal(
                            txn,
                            AbortReason::Constraint,
                            AbortOrigin::Request,
                            now,
                        )?;
                        return Ok((ExecOutcome::Aborted(AbortReason::Constraint), effects));
                    }
                    Err(e) => return Err(e),
                };
                self.obs.emit(
                    now,
                    TraceEvent::OpGranted {
                        txn,
                        resource,
                        class,
                        shared: false,
                        bypassed_sleeper: false,
                    },
                );
                Ok((ExecOutcome::Completed(value), StepEffects::none()))
            }
            LockOutcome::Waiting => {
                let queue_depth = self.locks.waiter_count(resource) as u32;
                self.obs.emit(now, TraceEvent::OpWaiting { txn, resource, class, queue_depth });
                let state = self.txn_mut(txn)?;
                state.phase = TxnPhase::Waiting;
                state.pending = Some((resource, op));
                let mut effects = StepEffects::none();
                if self.config.deadlock_detection {
                    if let Some((victim, _cycle)) = self.locks.detect_deadlock_from(txn) {
                        let victim_effects = self.abort_internal(
                            victim,
                            AbortReason::Deadlock,
                            AbortOrigin::Request,
                            now,
                        )?;
                        if victim == txn {
                            let mut eff = victim_effects;
                            // The requester itself died; it is not also
                            // reported in `aborted`.
                            eff.aborted.retain(|(t, _)| *t != txn);
                            return Ok((ExecOutcome::Aborted(AbortReason::Deadlock), eff));
                        }
                        effects.merge(victim_effects);
                        // The victim's release may have granted our lock —
                        // and the granted op may itself have aborted us
                        // (constraint violation in finish_promotions).
                        if let Some(pos) = effects.aborted.iter().position(|(t, _)| *t == txn) {
                            let (_, reason) = effects.aborted.remove(pos);
                            return Ok((ExecOutcome::Aborted(reason), effects));
                        }
                        if let Some(pos) = effects.resumed.iter().position(|(t, _)| *t == txn) {
                            let (_, value) = effects.resumed.remove(pos);
                            return Ok((ExecOutcome::Completed(value), effects));
                        }
                    }
                }
                Ok((ExecOutcome::Waiting, effects))
            }
        }
    }

    /// Executes a granted operation against the database.
    fn perform(&mut self, txn: TxnId, resource: ResourceId, op: &ScalarOp) -> PstmResult<Value> {
        let binding = self.bindings.resolve(resource)?;
        let current = self.db.get_col(binding.table, binding.row, binding.column)?;
        let new = op.apply(&current)?;
        if op.is_mutation() {
            let state = self.txn_mut(txn)?;
            if !state.engine_begun {
                state.engine_begun = true;
                self.db.begin(txn)?;
            }
            self.db.update(txn, binding.table, binding.row, binding.column, new.clone())?;
        }
        Ok(new)
    }

    /// Completes the stashed operations of promoted transactions.
    fn finish_promotions(
        &mut self,
        promoted: Vec<TxnId>,
        now: Timestamp,
    ) -> PstmResult<StepEffects> {
        let mut effects = StepEffects::none();
        for p in promoted {
            let Some(state) = self.txns.get_mut(&p) else { continue };
            let Some((resource, op)) = state.pending.take() else { continue };
            let was_sleeping = state.phase == TxnPhase::Sleeping;
            match self.perform(p, resource, &op) {
                Ok(value) => {
                    self.obs.emit(
                        now,
                        TraceEvent::OpGranted {
                            txn: p,
                            resource,
                            class: op.class(),
                            shared: false,
                            bypassed_sleeper: false,
                        },
                    );
                    let state = self.txn_mut(p)?;
                    if was_sleeping {
                        state.completed_while_asleep = Some(value.clone());
                    } else {
                        state.phase = TxnPhase::Active;
                    }
                    effects.resumed.push((p, value));
                }
                Err(PstmError::ConstraintViolation { .. }) => {
                    let sub = self.abort_internal(
                        p,
                        AbortReason::Constraint,
                        AbortOrigin::Promotion,
                        now,
                    )?;
                    effects.merge(sub);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(effects)
    }

    /// `⟨commit, A⟩` — strict 2PL: apply is already done; release all
    /// locks and let waiters in.
    pub fn commit(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<StepEffects> {
        let state = self.txn_mut(txn)?;
        if state.phase != TxnPhase::Active {
            return Err(PstmError::InvalidState {
                txn,
                action: "commit",
                state: phase_name(state.phase),
            });
        }
        if state.engine_begun {
            self.db.commit(txn)?;
        }
        self.txn_mut(txn)?.phase = TxnPhase::Committed;
        self.obs.emit(now, TraceEvent::Committed { txn });
        let promoted = self.locks.release_all(txn);
        self.finish_promotions(promoted, now)
    }

    /// User-requested abort.
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
        let state = self.txn_mut(txn)?;
        if matches!(state.phase, TxnPhase::Committed | TxnPhase::Aborted) {
            return Err(PstmError::InvalidState {
                txn,
                action: "abort",
                state: phase_name(state.phase),
            });
        }
        if state.engine_begun {
            self.db.abort(txn)?;
        }
        let state = self.txn_mut(txn)?;
        state.phase = TxnPhase::Aborted;
        state.pending = None;
        self.obs.emit(now, TraceEvent::Aborted { txn, reason, origin });
        let promoted = self.locks.release_all(txn);
        let mut effects = self.finish_promotions(promoted, now)?;
        effects.aborted.push((txn, reason));
        Ok(effects)
    }

    /// `⟨sleep, A⟩` — the client disconnected or went idle. Locks are
    /// retained (that is the 2PL pathology the paper targets).
    pub fn sleep(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<()> {
        let state = self.txn_mut(txn)?;
        match state.phase {
            TxnPhase::Active | TxnPhase::Waiting => {
                state.phase = TxnPhase::Sleeping;
                state.sleep_since = Some(now);
                self.obs.emit(now, TraceEvent::TxnSlept { txn });
                Ok(())
            }
            other => {
                Err(PstmError::InvalidState { txn, action: "sleep", state: phase_name(other) })
            }
        }
    }

    /// `⟨awake, A⟩` — the client reconnected. Under 2PL a sleeper that
    /// survived the timeout simply resumes; its locks never left. Returns
    /// the result of an operation that completed during the sleep, if
    /// any.
    pub fn awake(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<Option<Value>> {
        let state = self.txn_mut(txn)?;
        if state.phase != TxnPhase::Sleeping {
            return Err(PstmError::InvalidState {
                txn,
                action: "awake",
                state: phase_name(state.phase),
            });
        }
        state.sleep_since = None;
        let done = state.completed_while_asleep.take();
        state.phase = if state.pending.is_some() { TxnPhase::Waiting } else { TxnPhase::Active };
        self.obs.emit(now, TraceEvent::TxnAwoke { txn });
        Ok(done)
    }

    /// Periodic maintenance: sleep timeouts, lock-wait timeouts, deadlock
    /// detection. The simulator calls this on every clock advance.
    pub fn tick(&mut self, now: Timestamp) -> PstmResult<StepEffects> {
        let mut effects = StepEffects::none();
        if let Some(timeout) = self.config.sleep_timeout {
            let expired: Vec<TxnId> = self
                .txns
                .iter()
                .filter(|(_, s)| {
                    s.phase == TxnPhase::Sleeping
                        && s.sleep_since.is_some_and(|since| now.since(since) >= timeout)
                })
                .map(|(t, _)| *t)
                .collect();
            for t in expired {
                // Re-check per abort: an earlier abort in this loop may
                // have cascade-aborted this sleeper already.
                if self.txns.get(&t).is_some_and(|s| s.phase == TxnPhase::Sleeping) {
                    effects.merge(self.abort_internal(
                        t,
                        AbortReason::SleepTimeout,
                        AbortOrigin::Tick,
                        now,
                    )?);
                }
            }
        }
        if let Some(timeout) = self.config.lock_timeout {
            for t in self.locks.timed_out_waiters(now, timeout) {
                // A sleeping waiter is already covered by the sleep path;
                // re-checking per iteration also guards against waiters
                // promoted (or aborted) by an earlier victim's release.
                if self.txns.get(&t).is_some_and(|s| s.phase == TxnPhase::Waiting) {
                    effects.merge(self.abort_internal(
                        t,
                        AbortReason::LockTimeout,
                        AbortOrigin::Tick,
                        now,
                    )?);
                }
            }
        }
        if self.config.deadlock_detection {
            while let Some((victim, _)) = self.locks.detect_deadlock() {
                effects.merge(self.abort_internal(
                    victim,
                    AbortReason::Deadlock,
                    AbortOrigin::Tick,
                    now,
                )?);
            }
        }
        Ok(effects)
    }
}

fn phase_name(p: TxnPhase) -> &'static str {
    match p {
        TxnPhase::Active => "active",
        TxnPhase::Waiting => "waiting",
        TxnPhase::Sleeping => "sleeping",
        TxnPhase::Committed => "committed",
        TxnPhase::Aborted => "aborted",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstm_storage::{ColumnDef, Constraint, Row, TableSchema};
    use pstm_types::{MemberId, ValueKind};

    /// One table, three atomic objects with `free = 100`.
    fn setup(config: TwoPlConfig) -> (TwoPlManager, Vec<ResourceId>) {
        let db = Arc::new(Database::new());
        let schema = TableSchema::new(
            "Flight",
            vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("free", ValueKind::Int)],
        )
        .unwrap();
        let table =
            db.create_table(schema, vec![Constraint::non_negative("free >= 0", 1)]).unwrap();
        let setup_txn = TxnId(1_000_000);
        db.begin(setup_txn).unwrap();
        let mut bindings = BindingRegistry::new();
        let mut resources = Vec::new();
        for i in 0..3 {
            let row = db
                .insert(setup_txn, table, Row::new(vec![Value::Int(i), Value::Int(100)]))
                .unwrap();
            let obj = bindings.bind_object(table, row, &[(MemberId::ATOMIC, 1)]).unwrap();
            resources.push(ResourceId::atomic(obj));
        }
        db.commit(setup_txn).unwrap();
        (TwoPlManager::new(db, bindings, config), resources)
    }

    fn t(i: u64) -> TxnId {
        TxnId(i)
    }

    const T0: Timestamp = Timestamp(0);

    #[test]
    fn single_txn_reads_and_writes() {
        let (mut m, res) = setup(TwoPlConfig::default());
        m.begin(t(1)).unwrap();
        let (out, _) = m.execute(t(1), res[0], ScalarOp::Read, T0).unwrap();
        assert_eq!(out, ExecOutcome::Completed(Value::Int(100)));
        let (out, _) = m.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        assert_eq!(out, ExecOutcome::Completed(Value::Int(99)));
        m.commit(t(1), T0).unwrap();
        assert_eq!(m.phase(t(1)), Some(TxnPhase::Committed));
        // Durable in the engine.
        let b = m.bindings().resolve(res[0]).unwrap();
        assert_eq!(m.database().get_col(b.table, b.row, b.column).unwrap(), Value::Int(99));
    }

    #[test]
    fn writers_block_each_other() {
        let (mut m, res) = setup(TwoPlConfig::default());
        m.begin(t(1)).unwrap();
        m.begin(t(2)).unwrap();
        m.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        let (out, _) = m.execute(t(2), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        assert_eq!(out, ExecOutcome::Waiting);
        assert_eq!(m.phase(t(2)), Some(TxnPhase::Waiting));
        // Commit of t1 resumes t2 with its op applied.
        let effects = m.commit(t(1), T0).unwrap();
        assert_eq!(effects.resumed, vec![(t(2), Value::Int(98))]);
        assert_eq!(m.phase(t(2)), Some(TxnPhase::Active));
        m.commit(t(2), T0).unwrap();
    }

    #[test]
    fn readers_share() {
        let (mut m, res) = setup(TwoPlConfig::default());
        m.begin(t(1)).unwrap();
        m.begin(t(2)).unwrap();
        let (o1, _) = m.execute(t(1), res[0], ScalarOp::Read, T0).unwrap();
        let (o2, _) = m.execute(t(2), res[0], ScalarOp::Read, T0).unwrap();
        assert!(matches!(o1, ExecOutcome::Completed(_)));
        assert!(matches!(o2, ExecOutcome::Completed(_)));
    }

    #[test]
    fn upgrade_deadlock_aborts_younger() {
        // The paper's §II motivating failure: both read, both book.
        let (mut m, res) = setup(TwoPlConfig::default());
        m.begin(t(1)).unwrap();
        m.begin(t(2)).unwrap();
        m.execute(t(1), res[0], ScalarOp::Read, T0).unwrap();
        m.execute(t(2), res[0], ScalarOp::Read, T0).unwrap();
        let (o1, _) = m.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        assert_eq!(o1, ExecOutcome::Waiting);
        // t2's upgrade completes the deadlock; t2 (younger) dies and t1
        // gets the lock, completing its stashed op.
        let (o2, effects) = m.execute(t(2), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        assert_eq!(o2, ExecOutcome::Aborted(AbortReason::Deadlock));
        assert_eq!(effects.resumed, vec![(t(1), Value::Int(99))]);
        assert_eq!(m.phase(t(2)), Some(TxnPhase::Aborted));
        assert_eq!(m.phase(t(1)), Some(TxnPhase::Active));
        m.commit(t(1), T0).unwrap();
        assert_eq!(m.stats().aborted_deadlock, 1);
    }

    #[test]
    fn abort_rolls_back_engine_state() {
        let (mut m, res) = setup(TwoPlConfig::default());
        m.begin(t(1)).unwrap();
        m.execute(t(1), res[0], ScalarOp::Sub(Value::Int(10)), T0).unwrap();
        m.abort(t(1), T0).unwrap();
        let b = m.bindings().resolve(res[0]).unwrap();
        assert_eq!(m.database().get_col(b.table, b.row, b.column).unwrap(), Value::Int(100));
    }

    #[test]
    fn sleeping_holder_blocks_until_timeout_abort() {
        let config = TwoPlConfig {
            sleep_timeout: Some(Duration::from_secs_f64(10.0)),
            ..TwoPlConfig::default()
        };
        let (mut m, res) = setup(config);
        m.begin(t(1)).unwrap();
        m.begin(t(2)).unwrap();
        m.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        m.sleep(t(1), Timestamp::from_secs_f64(1.0)).unwrap();
        let (out, _) = m
            .execute(t(2), res[0], ScalarOp::Sub(Value::Int(1)), Timestamp::from_secs_f64(2.0))
            .unwrap();
        assert_eq!(out, ExecOutcome::Waiting, "sleeper keeps its lock");

        // Before the timeout nothing happens.
        let fx = m.tick(Timestamp::from_secs_f64(5.0)).unwrap();
        assert!(fx.is_empty());
        // Past the timeout the sleeper is aborted, t2 resumes against the
        // rolled-back value.
        let fx = m.tick(Timestamp::from_secs_f64(12.0)).unwrap();
        assert_eq!(fx.aborted, vec![(t(1), AbortReason::SleepTimeout)]);
        assert_eq!(fx.resumed, vec![(t(2), Value::Int(99))]);
        assert_eq!(m.stats().aborted_sleep_timeout, 1);
    }

    #[test]
    fn sleeper_under_timeout_resumes_with_locks() {
        let (mut m, res) = setup(TwoPlConfig::default());
        m.begin(t(1)).unwrap();
        m.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        m.sleep(t(1), T0).unwrap();
        m.tick(Timestamp::from_secs_f64(1.0)).unwrap();
        assert_eq!(m.awake(t(1), Timestamp::from_secs_f64(2.0)).unwrap(), None);
        assert_eq!(m.phase(t(1)), Some(TxnPhase::Active));
        let fx = m.commit(t(1), Timestamp::from_secs_f64(3.0)).unwrap();
        assert!(fx.is_empty());
    }

    #[test]
    fn waiting_sleeper_completes_op_during_sleep() {
        let (mut m, res) = setup(TwoPlConfig::default());
        m.begin(t(1)).unwrap();
        m.begin(t(2)).unwrap();
        m.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        m.execute(t(2), res[0], ScalarOp::Sub(Value::Int(2)), T0).unwrap(); // waits
        m.sleep(t(2), T0).unwrap();
        let fx = m.commit(t(1), T0).unwrap();
        assert_eq!(fx.resumed, vec![(t(2), Value::Int(97))]);
        assert_eq!(m.phase(t(2)), Some(TxnPhase::Sleeping), "still disconnected");
        assert_eq!(m.awake(t(2), T0).unwrap(), Some(Value::Int(97)));
        assert_eq!(m.phase(t(2)), Some(TxnPhase::Active));
        m.commit(t(2), T0).unwrap();
    }

    #[test]
    fn lock_timeout_aborts_waiters() {
        let config = TwoPlConfig {
            lock_timeout: Some(Duration::from_secs_f64(5.0)),
            deadlock_detection: false,
            ..TwoPlConfig::default()
        };
        let (mut m, res) = setup(config);
        m.begin(t(1)).unwrap();
        m.begin(t(2)).unwrap();
        m.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        m.execute(t(2), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        let fx = m.tick(Timestamp::from_secs_f64(6.0)).unwrap();
        assert_eq!(fx.aborted, vec![(t(2), AbortReason::LockTimeout)]);
        assert_eq!(m.stats().aborted_lock_timeout, 1);
    }

    #[test]
    fn constraint_violation_aborts_whole_txn() {
        let (mut m, res) = setup(TwoPlConfig::default());
        m.begin(t(1)).unwrap();
        m.execute(t(1), res[0], ScalarOp::Sub(Value::Int(50)), T0).unwrap();
        let (out, _) = m.execute(t(1), res[0], ScalarOp::Sub(Value::Int(60)), T0).unwrap();
        assert_eq!(out, ExecOutcome::Aborted(AbortReason::Constraint));
        // First subtraction also rolled back.
        let b = m.bindings().resolve(res[0]).unwrap();
        assert_eq!(m.database().get_col(b.table, b.row, b.column).unwrap(), Value::Int(100));
    }

    #[test]
    fn state_machine_guards() {
        let (mut m, res) = setup(TwoPlConfig::default());
        m.begin(t(1)).unwrap();
        assert!(m.begin(t(1)).is_err());
        assert!(m.awake(t(1), T0).is_err(), "awake requires sleeping");
        m.commit(t(1), T0).unwrap();
        assert!(m.execute(t(1), res[0], ScalarOp::Read, T0).is_err());
        assert!(m.commit(t(1), T0).is_err());
        assert!(m.sleep(t(1), T0).is_err());
        assert!(m.execute(t(99), res[0], ScalarOp::Read, T0).is_err(), "unknown txn");
    }

    #[test]
    fn independent_resources_do_not_interfere() {
        let (mut m, res) = setup(TwoPlConfig::default());
        m.begin(t(1)).unwrap();
        m.begin(t(2)).unwrap();
        let (o1, _) = m.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        let (o2, _) = m.execute(t(2), res[1], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        assert!(matches!(o1, ExecOutcome::Completed(_)));
        assert!(matches!(o2, ExecOutcome::Completed(_)));
        m.commit(t(1), T0).unwrap();
        m.commit(t(2), T0).unwrap();
        assert_eq!(m.stats().committed, 2);
    }
}
