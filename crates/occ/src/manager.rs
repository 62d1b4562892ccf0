//! The BOCC transaction manager.

use pstm_obs::{AbortOrigin, Ctr, Emitter, MetricsRegistry, TraceEvent, Tracer};
use pstm_storage::{BindingRegistry, Database, WriteOp, WriteSet};
use pstm_types::{
    AbortReason, ExecOutcome, PstmError, PstmResult, ResourceId, ScalarOp, Timestamp, TxnId, Value,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OccPhase {
    Reading,
    Sleeping,
    Committed,
    Aborted,
}

#[derive(Debug)]
struct OccTxn {
    phase: OccPhase,
    /// The global serial number when the transaction started — it must
    /// validate against every transaction committed after this.
    start_serial: u64,
    read_set: BTreeSet<ResourceId>,
    /// Private snapshot per resource (database value at first touch,
    /// overlaid with the transaction's own writes).
    snapshot: BTreeMap<ResourceId, Value>,
    write_buffer: BTreeMap<ResourceId, Value>,
}

/// Counters for the experiment harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OccStats {
    /// Transactions begun.
    pub begun: u64,
    /// Commits that passed validation.
    pub committed: u64,
    /// All aborts.
    pub aborted: u64,
    /// Validation failures.
    pub aborted_validation: u64,
    /// Constraint rejections in the write phase.
    pub aborted_constraint: u64,
    /// Operations executed (never wait under OCC).
    pub ops_completed: u64,
}

impl OccStats {
    /// Projects the OCC counters out of an obs registry — the only way
    /// OCC stats are produced, so they cannot drift from the trace.
    #[must_use]
    pub fn from_registry(reg: &MetricsRegistry) -> Self {
        OccStats {
            begun: reg.counter(Ctr::Begun),
            committed: reg.counter(Ctr::Committed),
            aborted: reg.counter(Ctr::Aborted),
            aborted_validation: reg.counter(Ctr::AbortedValidation),
            aborted_constraint: reg.counter(Ctr::AbortedConstraint),
            ops_completed: reg.counter(Ctr::OpsCompleted),
        }
    }
}

/// Engine-txn id offset for OCC write phases (disjoint from middleware
/// and SST id spaces).
const OCC_ID_BASE: u64 = 1 << 49;

/// The optimistic manager.
///
/// # Example — validation failure under overlap
///
/// ```
/// use pstm_occ::OccManager;
/// use pstm_types::{AbortReason, ScalarOp, Timestamp, TxnId, Value};
/// use pstm_workload::counter_world;
///
/// let world = counter_world(1, 100)?;
/// let mut occ = OccManager::new(world.db.clone(), world.bindings.clone());
/// let x = world.resources[0];
/// let t0 = Timestamp::ZERO;
///
/// occ.begin(TxnId(1), t0)?;
/// occ.begin(TxnId(2), t0)?;
/// occ.execute(TxnId(1), x, ScalarOp::Sub(Value::Int(1)), t0)?;
/// occ.execute(TxnId(2), x, ScalarOp::Sub(Value::Int(1)), t0)?;
/// assert_eq!(occ.commit(TxnId(1), t0)?, Ok(()));
/// // The second subtractor read state a later committer overwrote:
/// assert_eq!(occ.commit(TxnId(2), t0)?, Err(AbortReason::Validation));
/// # Ok::<(), pstm_types::PstmError>(())
/// ```
pub struct OccManager {
    db: Arc<Database>,
    bindings: BindingRegistry,
    txns: BTreeMap<TxnId, OccTxn>,
    /// Monotonic commit serial.
    serial: u64,
    /// Committed write sets, newest last: `(serial, resources)`.
    committed_writes: Vec<(u64, BTreeSet<ResourceId>)>,
    obs: Emitter,
}

impl OccManager {
    /// Builds a manager over `db`.
    #[must_use]
    pub fn new(db: Arc<Database>, bindings: BindingRegistry) -> Self {
        OccManager {
            db,
            bindings,
            txns: BTreeMap::new(),
            serial: 0,
            committed_writes: Vec::new(),
            obs: Emitter::default(),
        }
    }

    /// Streams this manager's records to `tracer` (builder style), so
    /// events reach a shared sink.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.obs.set_tracer(tracer);
        self
    }

    /// Counter snapshot, projected from the obs registry.
    #[must_use]
    pub fn stats(&self) -> OccStats {
        OccStats::from_registry(self.obs.registry())
    }

    /// The shared database handle.
    #[must_use]
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    fn txn_mut(&mut self, txn: TxnId) -> PstmResult<&mut OccTxn> {
        self.txns.get_mut(&txn).ok_or(PstmError::UnknownTxn(txn))
    }

    /// Starts a transaction. Ids at or above the reserved engine id space
    /// (`1 << 49`) are rejected — they would collide with the ids write
    /// phases run under.
    pub fn begin(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<()> {
        if self.txns.contains_key(&txn) {
            return Err(PstmError::InvalidState { txn, action: "begin", state: "already known" });
        }
        if txn.0 >= OCC_ID_BASE {
            return Err(PstmError::InvalidState {
                txn,
                action: "begin with an id in the reserved engine id space",
                state: "rejected",
            });
        }
        self.txns.insert(
            txn,
            OccTxn {
                phase: OccPhase::Reading,
                start_serial: self.serial,
                read_set: BTreeSet::new(),
                snapshot: BTreeMap::new(),
                write_buffer: BTreeMap::new(),
            },
        );
        self.obs.emit(now, TraceEvent::TxnBegin { txn });
        Ok(())
    }

    /// Runs one operation against the private snapshot. Never waits.
    pub fn execute(
        &mut self,
        txn: TxnId,
        resource: ResourceId,
        op: ScalarOp,
        now: Timestamp,
    ) -> PstmResult<ExecOutcome> {
        let binding = self.bindings.resolve(resource)?;
        let class = op.class();
        let state = self.txns.get_mut(&txn).ok_or(PstmError::UnknownTxn(txn))?;
        if state.phase != OccPhase::Reading {
            return Err(PstmError::InvalidState {
                txn,
                action: "execute",
                state: phase_name(state.phase),
            });
        }
        self.obs.emit(now, TraceEvent::OpRequested { txn, resource, class });
        let state = self.txns.get_mut(&txn).expect("checked above");
        state.read_set.insert(resource);
        let current = match state.snapshot.get(&resource) {
            Some(v) => v.clone(),
            None => {
                let v = self.db.get_col(binding.table, binding.row, binding.column)?;
                state.snapshot.insert(resource, v.clone());
                v
            }
        };
        let new = op.apply(&current)?;
        if op.is_mutation() {
            state.snapshot.insert(resource, new.clone());
            state.write_buffer.insert(resource, new.clone());
        }
        self.obs.emit(
            now,
            TraceEvent::OpGranted { txn, resource, class, shared: false, bypassed_sleeper: false },
        );
        Ok(ExecOutcome::Completed(new))
    }

    /// Validates and, on success, applies the write phase. Returns
    /// `Ok(Ok(()))` on commit, `Ok(Err(reason))` on a system abort.
    #[allow(clippy::type_complexity)]
    pub fn commit(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<Result<(), AbortReason>> {
        let state = self.txns.get(&txn).ok_or(PstmError::UnknownTxn(txn))?;
        if state.phase != OccPhase::Reading {
            return Err(PstmError::InvalidState {
                txn,
                action: "commit",
                state: phase_name(state.phase),
            });
        }
        // Backward validation: any committed writer after my start that
        // touched my read set invalidates me.
        let start = state.start_serial;
        let invalid = self
            .committed_writes
            .iter()
            .filter(|(s, _)| *s > start)
            .any(|(_, writes)| writes.intersection(&state.read_set).next().is_some());
        if invalid {
            self.finish_abort(txn, AbortReason::Validation, AbortOrigin::Commit, now);
            return Ok(Err(AbortReason::Validation));
        }
        // Write phase: one atomic engine write set.
        let state = self.txns.get(&txn).expect("validated txn exists");
        let mut ws = WriteSet::new();
        for (resource, value) in &state.write_buffer {
            let b = self.bindings.resolve(*resource)?;
            ws = ws.with(WriteOp::Update {
                table: b.table,
                row_id: b.row,
                column: b.column,
                value: value.clone(),
            });
        }
        if !ws.is_empty() {
            match self.db.apply_write_set(TxnId(OCC_ID_BASE + txn.0), &ws) {
                Ok(_) => {}
                Err(PstmError::ConstraintViolation { .. }) => {
                    self.finish_abort(txn, AbortReason::Constraint, AbortOrigin::Commit, now);
                    return Ok(Err(AbortReason::Constraint));
                }
                Err(e) => return Err(e),
            }
        }
        self.serial += 1;
        let state = self.txns.get_mut(&txn).expect("validated txn exists");
        let writes: BTreeSet<ResourceId> = state.write_buffer.keys().copied().collect();
        if !writes.is_empty() {
            self.committed_writes.push((self.serial, writes));
        }
        state.phase = OccPhase::Committed;
        self.obs.emit(now, TraceEvent::Committed { txn });
        self.gc_committed_writes();
        Ok(Ok(()))
    }

    fn finish_abort(
        &mut self,
        txn: TxnId,
        reason: AbortReason,
        origin: AbortOrigin,
        now: Timestamp,
    ) {
        if let Some(state) = self.txns.get_mut(&txn) {
            state.phase = OccPhase::Aborted;
            state.write_buffer.clear();
            state.snapshot.clear();
        }
        self.obs.emit(now, TraceEvent::Aborted { txn, reason, origin });
    }

    /// User abort.
    pub fn abort(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<()> {
        let state = self.txn_mut(txn)?;
        if matches!(state.phase, OccPhase::Committed | OccPhase::Aborted) {
            return Err(PstmError::InvalidState {
                txn,
                action: "abort",
                state: phase_name(state.phase),
            });
        }
        self.finish_abort(txn, AbortReason::User, AbortOrigin::User, now);
        Ok(())
    }

    /// Disconnection: free under OCC (no locks held), only the phase is
    /// tracked so the state machine stays honest.
    pub fn sleep(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<()> {
        let state = self.txn_mut(txn)?;
        if state.phase != OccPhase::Reading {
            return Err(PstmError::InvalidState {
                txn,
                action: "sleep",
                state: phase_name(state.phase),
            });
        }
        state.phase = OccPhase::Sleeping;
        self.obs.emit(now, TraceEvent::TxnSlept { txn });
        Ok(())
    }

    /// Reconnection. Never aborts here: the price of the long sleep is
    /// paid at validation time.
    pub fn awake(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<()> {
        let state = self.txn_mut(txn)?;
        if state.phase != OccPhase::Sleeping {
            return Err(PstmError::InvalidState {
                txn,
                action: "awake",
                state: phase_name(state.phase),
            });
        }
        state.phase = OccPhase::Reading;
        self.obs.emit(now, TraceEvent::TxnAwoke { txn });
        Ok(())
    }

    /// Drops committed write sets no active transaction can still
    /// validate against.
    fn gc_committed_writes(&mut self) {
        let min_start = self
            .txns
            .values()
            .filter(|t| matches!(t.phase, OccPhase::Reading | OccPhase::Sleeping))
            .map(|t| t.start_serial)
            .min()
            .unwrap_or(self.serial);
        self.committed_writes.retain(|(s, _)| *s > min_start);
    }
}

fn phase_name(p: OccPhase) -> &'static str {
    match p {
        OccPhase::Reading => "reading",
        OccPhase::Sleeping => "sleeping",
        OccPhase::Committed => "committed",
        OccPhase::Aborted => "aborted",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstm_storage::{ColumnDef, Constraint, Row, TableSchema};
    use pstm_types::{MemberId, ValueKind};

    fn setup() -> (OccManager, Vec<ResourceId>) {
        let db = Arc::new(Database::new());
        let schema = TableSchema::new(
            "Obj",
            vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("v", ValueKind::Int)],
        )
        .unwrap();
        let table = db.create_table(schema, vec![Constraint::non_negative("v>=0", 1)]).unwrap();
        let boot = TxnId(1);
        db.begin(boot).unwrap();
        let mut bindings = BindingRegistry::new();
        let mut rs = Vec::new();
        for i in 0..3 {
            let row =
                db.insert(boot, table, Row::new(vec![Value::Int(i), Value::Int(100)])).unwrap();
            let o = bindings.bind_object(table, row, &[(MemberId::ATOMIC, 1)]).unwrap();
            rs.push(ResourceId::atomic(o));
        }
        db.commit(boot).unwrap();
        (OccManager::new(db, bindings), rs)
    }

    fn t(i: u64) -> TxnId {
        TxnId(100 + i)
    }

    const T0: Timestamp = Timestamp(0);

    #[test]
    fn solo_transaction_commits() {
        let (mut m, rs) = setup();
        m.begin(t(1), T0).unwrap();
        let out = m.execute(t(1), rs[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        assert_eq!(out, ExecOutcome::Completed(Value::Int(99)));
        assert_eq!(m.commit(t(1), T0).unwrap(), Ok(()));
        let b = m.bindings.resolve(rs[0]).unwrap();
        assert_eq!(m.db.get_col(b.table, b.row, b.column).unwrap(), Value::Int(99));
    }

    #[test]
    fn overlapping_writers_one_validates_one_dies() {
        // The rollback the paper's intro predicts: two concurrent
        // subtractors — semantically compatible! — but OCC knows nothing
        // of semantics; the second to commit fails validation.
        let (mut m, rs) = setup();
        m.begin(t(1), T0).unwrap();
        m.begin(t(2), T0).unwrap();
        m.execute(t(1), rs[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        m.execute(t(2), rs[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        assert_eq!(m.commit(t(1), T0).unwrap(), Ok(()));
        assert_eq!(m.commit(t(2), T0).unwrap(), Err(AbortReason::Validation));
        assert_eq!(m.stats().aborted_validation, 1);
        // Only the first subtraction landed.
        let b = m.bindings.resolve(rs[0]).unwrap();
        assert_eq!(m.db.get_col(b.table, b.row, b.column).unwrap(), Value::Int(99));
    }

    #[test]
    fn disjoint_transactions_both_commit() {
        let (mut m, rs) = setup();
        m.begin(t(1), T0).unwrap();
        m.begin(t(2), T0).unwrap();
        m.execute(t(1), rs[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        m.execute(t(2), rs[1], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        assert_eq!(m.commit(t(1), T0).unwrap(), Ok(()));
        assert_eq!(m.commit(t(2), T0).unwrap(), Ok(()));
    }

    #[test]
    fn reader_invalidated_by_committed_writer() {
        let (mut m, rs) = setup();
        m.begin(t(1), T0).unwrap();
        m.execute(t(1), rs[0], ScalarOp::Read, T0).unwrap();
        m.begin(t(2), T0).unwrap();
        m.execute(t(2), rs[0], ScalarOp::Assign(Value::Int(5)), T0).unwrap();
        assert_eq!(m.commit(t(2), T0).unwrap(), Ok(()));
        // t1 read a value that a later committer overwrote.
        assert_eq!(m.commit(t(1), T0).unwrap(), Err(AbortReason::Validation));
    }

    #[test]
    fn pure_readers_coexist() {
        let (mut m, rs) = setup();
        m.begin(t(1), T0).unwrap();
        m.begin(t(2), T0).unwrap();
        m.execute(t(1), rs[0], ScalarOp::Read, T0).unwrap();
        m.execute(t(2), rs[0], ScalarOp::Read, T0).unwrap();
        assert_eq!(m.commit(t(1), T0).unwrap(), Ok(()));
        assert_eq!(m.commit(t(2), T0).unwrap(), Ok(()));
    }

    #[test]
    fn sleep_holds_no_locks_but_widens_validation_window() {
        let (mut m, rs) = setup();
        m.begin(t(1), T0).unwrap();
        m.execute(t(1), rs[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        m.sleep(t(1), T0).unwrap();

        // A second transaction proceeds unhindered (no locks) ...
        m.begin(t(2), T0).unwrap();
        m.execute(t(2), rs[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
        assert_eq!(m.commit(t(2), T0).unwrap(), Ok(()));

        // ... and the sleeper pays at validation.
        m.awake(t(1), T0).unwrap();
        assert_eq!(m.commit(t(1), T0).unwrap(), Err(AbortReason::Validation));
    }

    #[test]
    fn constraint_violation_in_write_phase() {
        let (mut m, rs) = setup();
        m.begin(t(1), T0).unwrap();
        m.execute(t(1), rs[0], ScalarOp::Sub(Value::Int(200)), T0).unwrap();
        assert_eq!(m.commit(t(1), T0).unwrap(), Err(AbortReason::Constraint));
        let b = m.bindings.resolve(rs[0]).unwrap();
        assert_eq!(m.db.get_col(b.table, b.row, b.column).unwrap(), Value::Int(100));
    }

    #[test]
    fn snapshot_isolation_within_txn() {
        // A transaction sees its own writes, not later committed state.
        let (mut m, rs) = setup();
        m.begin(t(1), T0).unwrap();
        m.execute(t(1), rs[0], ScalarOp::Sub(Value::Int(10)), T0).unwrap();
        let out = m.execute(t(1), rs[0], ScalarOp::Read, T0).unwrap();
        assert_eq!(out, ExecOutcome::Completed(Value::Int(90)));
    }

    #[test]
    fn state_machine_guards() {
        let (mut m, rs) = setup();
        m.begin(t(1), T0).unwrap();
        assert!(m.begin(t(1), T0).is_err());
        assert!(m.awake(t(1), T0).is_err());
        m.commit(t(1), T0).unwrap().unwrap();
        assert!(m.execute(t(1), rs[0], ScalarOp::Read, T0).is_err());
        assert!(m.commit(t(1), T0).is_err());
        assert!(m.abort(t(1), T0).is_err());
        assert!(m.execute(t(9), rs[0], ScalarOp::Read, T0).is_err());
    }

    #[test]
    fn gc_prunes_old_write_sets() {
        let (mut m, rs) = setup();
        for i in 1..=20 {
            m.begin(t(i), T0).unwrap();
            m.execute(t(i), rs[(i % 3) as usize], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
            m.commit(t(i), T0).unwrap().unwrap();
        }
        // No active transactions: everything prunable.
        assert!(m.committed_writes.is_empty(), "gc should have drained the log");
    }
}
