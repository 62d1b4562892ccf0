//! The scheduler-agnostic backend surface and its two adapters.

use pstm_core::gtm::{AwakeResult, CommitResult, Gtm};
use pstm_obs::{MetricsRegistry, TraceEvent};
use pstm_twopl::TwoPlManager;
use pstm_types::{
    AbortReason, ExecOutcome, PstmResult, ResourceId, ScalarOp, StepEffects, Timestamp, TxnId,
};

/// Outcome of a commit request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Durable.
    Committed,
    /// The system aborted the transaction at commit time.
    Aborted(AbortReason),
}

/// Outcome of an awake request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AwakeOutcome {
    /// The transaction resumed and may continue its script.
    Resumed,
    /// The system aborted the transaction (sleep conflict under the GTM,
    /// or a sleep-timeout abort that already happened under 2PL).
    Aborted(AbortReason),
}

/// What the simulator needs from a transaction manager.
pub trait Backend {
    /// Human-readable scheduler name for reports.
    fn name(&self) -> &'static str;
    /// `⟨begin, A⟩`.
    fn begin(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<()>;
    /// Submit one operation.
    fn execute(
        &mut self,
        txn: TxnId,
        resource: ResourceId,
        op: ScalarOp,
        now: Timestamp,
    ) -> PstmResult<(ExecOutcome, StepEffects)>;
    /// Request commit.
    fn commit(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<(CommitOutcome, StepEffects)>;
    /// User abort.
    fn abort(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<StepEffects>;
    /// Client disconnected / went idle.
    fn sleep(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<StepEffects>;
    /// Client reconnected.
    fn awake(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<(AwakeOutcome, StepEffects)>;
    /// Periodic maintenance (timeouts, deadlock detection).
    fn tick(&mut self, now: Timestamp) -> PstmResult<StepEffects>;
    /// Emits a runner event (a link transition) on the backend's behalf,
    /// into its registry and trace stream.
    fn emit(&mut self, _now: Timestamp, _event: TraceEvent) {}
    /// The metrics the backend's events produced, its engine's merged in.
    fn metrics(&self) -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

/// GTM adapter.
pub struct GtmBackend(pub Gtm);

impl Backend for GtmBackend {
    fn name(&self) -> &'static str {
        "gtm"
    }

    fn begin(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<()> {
        self.0.begin(txn, now)
    }

    fn execute(
        &mut self,
        txn: TxnId,
        resource: ResourceId,
        op: ScalarOp,
        now: Timestamp,
    ) -> PstmResult<(ExecOutcome, StepEffects)> {
        self.0.execute(txn, resource, op, now)
    }

    fn commit(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<(CommitOutcome, StepEffects)> {
        let (result, fx) = self.0.commit(txn, now)?;
        let outcome = match result {
            CommitResult::Committed => CommitOutcome::Committed,
            CommitResult::Aborted(reason) => CommitOutcome::Aborted(reason),
        };
        Ok((outcome, fx))
    }

    fn abort(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<StepEffects> {
        self.0.abort(txn, now)
    }

    fn sleep(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<StepEffects> {
        self.0.sleep(txn, now)
    }

    fn awake(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<(AwakeOutcome, StepEffects)> {
        let (result, fx) = self.0.awake(txn, now)?;
        let outcome = match result {
            AwakeResult::Resumed(_) => AwakeOutcome::Resumed,
            AwakeResult::Aborted => AwakeOutcome::Aborted(AbortReason::SleepConflict),
        };
        Ok((outcome, fx))
    }

    fn tick(&mut self, now: Timestamp) -> PstmResult<StepEffects> {
        self.0.tick(now)
    }

    fn emit(&mut self, now: Timestamp, event: TraceEvent) {
        self.0.emit(now, event);
    }

    fn metrics(&self) -> MetricsRegistry {
        let mut metrics = self.0.metrics().clone();
        metrics.merge(&self.0.database().metrics());
        metrics
    }
}

/// 2PL adapter.
pub struct TwoPlBackend(pub TwoPlManager);

impl Backend for TwoPlBackend {
    fn name(&self) -> &'static str {
        "2pl"
    }

    fn begin(&mut self, txn: TxnId, _now: Timestamp) -> PstmResult<()> {
        self.0.begin(txn)
    }

    fn execute(
        &mut self,
        txn: TxnId,
        resource: ResourceId,
        op: ScalarOp,
        now: Timestamp,
    ) -> PstmResult<(ExecOutcome, StepEffects)> {
        self.0.execute(txn, resource, op, now)
    }

    fn commit(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<(CommitOutcome, StepEffects)> {
        let fx = self.0.commit(txn, now)?;
        Ok((CommitOutcome::Committed, fx))
    }

    fn abort(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<StepEffects> {
        self.0.abort(txn, now)
    }

    fn sleep(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<StepEffects> {
        self.0.sleep(txn, now)?;
        Ok(StepEffects::none())
    }

    fn awake(&mut self, txn: TxnId, now: Timestamp) -> PstmResult<(AwakeOutcome, StepEffects)> {
        // Under 2PL a sleeper may already have been aborted by the sleep
        // timeout; the runner treats that as "aborted before reconnect".
        match self.0.phase(txn) {
            Some(pstm_twopl::TxnPhase::Aborted) => {
                Ok((AwakeOutcome::Aborted(AbortReason::SleepTimeout), StepEffects::none()))
            }
            _ => {
                self.0.awake(txn, now)?;
                Ok((AwakeOutcome::Resumed, StepEffects::none()))
            }
        }
    }

    fn tick(&mut self, now: Timestamp) -> PstmResult<StepEffects> {
        self.0.tick(now)
    }

    fn emit(&mut self, now: Timestamp, event: TraceEvent) {
        self.0.emit(now, event);
    }

    fn metrics(&self) -> MetricsRegistry {
        let mut metrics = self.0.metrics();
        metrics.merge(&self.0.database().metrics());
        metrics
    }
}
