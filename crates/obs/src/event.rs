//! The trace-event vocabulary.
//!
//! One [`TraceEvent`] is emitted at every point where a scheduler,
//! lock manager, storage engine, or the simulator makes an observable
//! decision. The variants form the union of what every layer reports, so
//! a single sink can carry an interleaved system-wide trace; each layer
//! simply never emits the variants that do not apply to it.

use crate::span::SpanKind;
use pstm_types::{AbortReason, OpClass, ResourceId, Timestamp, TxnId};
use serde::Serialize;
use std::io::{self, Write};

/// Where an abort was decided.
///
/// [`AbortReason`] alone is ambiguous for metrics: a
/// `Constraint` abort at commit is the paper's §VII reconciliation-abort
/// (counted in `aborted_constraint`), while a `Constraint` failure when a
/// stashed operation is re-applied to a fresh snapshot at grant time is
/// not part of that legacy counter. The origin keeps the two separable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum AbortOrigin {
    /// Explicit `⟨abort, A⟩` from the client.
    User,
    /// Decided while servicing an operation request.
    Request,
    /// Decided during commit (validation, reconciliation, SST).
    Commit,
    /// Decided on awakening (Algorithm 9's third branch).
    Awake,
    /// Decided by the maintenance sweep (timeouts, deadlock scan).
    Tick,
    /// A queued operation failed when granted during promotion.
    Promotion,
}

/// One observable scheduling, storage, or simulation decision.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum TraceEvent {
    /// `⟨begin, A⟩` accepted.
    TxnBegin {
        /// The transaction.
        txn: TxnId,
    },
    /// An operation was submitted (before any grant/queue decision).
    OpRequested {
        /// Requesting transaction.
        txn: TxnId,
        /// Target resource.
        resource: ResourceId,
        /// Operation class under the compatibility matrix.
        class: OpClass,
    },
    /// An operation completed (granted immediately, or after a wait —
    /// the registry tells them apart by whether a matching wait is open).
    OpGranted {
        /// Granted transaction.
        txn: TxnId,
        /// Target resource.
        resource: ResourceId,
        /// Operation class granted.
        class: OpClass,
        /// The grant shares the resource with another awake holder —
        /// concurrency that semantics bought.
        shared: bool,
        /// The grant bypassed a sleeping incompatible holder
        /// (Algorithm 2's exclusion of `X_sleeping`).
        bypassed_sleeper: bool,
    },
    /// An operation queued (Algorithm 2's second branch).
    OpWaiting {
        /// Waiting transaction.
        txn: TxnId,
        /// Contended resource.
        resource: ResourceId,
        /// Requested class.
        class: OpClass,
        /// Queue length after enqueueing (sampled into the queue-depth
        /// histogram).
        queue_depth: u32,
    },
    /// A grantable invocation was denied by the §VII starvation policy.
    StarvationDenied {
        /// Denied transaction.
        txn: TxnId,
        /// Resource.
        resource: ResourceId,
    },
    /// A grantable invocation was denied by the §VII admission policy.
    AdmissionDenied {
        /// Denied transaction.
        txn: TxnId,
        /// Resource.
        resource: ResourceId,
    },
    /// Deadlock detection chose a victim.
    DeadlockVictim {
        /// The victim (youngest member of the cycle).
        txn: TxnId,
        /// The waits-for cycle, in waits-for order.
        cycle: Vec<TxnId>,
    },
    /// Commit-time reconciliation produced a write for one resource
    /// (Algorithm 3).
    Reconciled {
        /// Committing transaction.
        txn: TxnId,
        /// Reconciled resource.
        resource: ResourceId,
    },
    /// A Secure System Transaction was handed to the engine.
    SstAttempt {
        /// Committing transaction.
        txn: TxnId,
        /// Writes in the SST.
        writes: u32,
    },
    /// A transiently-failed SST was retried (§VII recovery policy).
    SstRetry {
        /// Committing transaction.
        txn: TxnId,
        /// Retry ordinal, starting at 1.
        attempt: u32,
    },
    /// A non-empty SST applied atomically.
    SstApplied {
        /// Committing transaction.
        txn: TxnId,
    },
    /// `⟨commit, A⟩` reached a durable state.
    Committed {
        /// The transaction.
        txn: TxnId,
    },
    /// The transaction aborted.
    Aborted {
        /// The transaction.
        txn: TxnId,
        /// Why.
        reason: AbortReason,
        /// Where the decision was made.
        origin: AbortOrigin,
    },
    /// `⟨sleep, A⟩` — the oracle `Ξ` reported a disconnection.
    TxnSlept {
        /// The transaction.
        txn: TxnId,
    },
    /// `⟨awake, A⟩` resumed the transaction.
    TxnAwoke {
        /// The transaction.
        txn: TxnId,
    },
    /// A lock request was granted immediately (2PL lock table).
    LockGranted {
        /// Holder.
        txn: TxnId,
        /// Locked resource.
        resource: ResourceId,
        /// Exclusive vs shared.
        exclusive: bool,
    },
    /// A shared holder requested an upgrade to exclusive.
    LockUpgrade {
        /// Upgrading transaction.
        txn: TxnId,
        /// Resource.
        resource: ResourceId,
    },
    /// A lock request queued.
    LockWaiting {
        /// Waiter.
        txn: TxnId,
        /// Contended resource.
        resource: ResourceId,
        /// Exclusive vs shared.
        exclusive: bool,
        /// Queue length after enqueueing.
        queue_depth: u32,
    },
    /// The engine inserted a row.
    EngineInsert {
        /// Engine-level transaction.
        txn: TxnId,
    },
    /// The engine updated a column.
    EngineUpdate {
        /// Engine-level transaction.
        txn: TxnId,
    },
    /// The engine deleted a row.
    EngineDelete {
        /// Engine-level transaction.
        txn: TxnId,
    },
    /// An engine-level transaction committed.
    EngineCommit {
        /// Engine-level transaction.
        txn: TxnId,
    },
    /// An engine-level transaction aborted (undo completed).
    EngineAbort {
        /// Engine-level transaction.
        txn: TxnId,
    },
    /// A group-commit leader flushed a fused batch of `members`
    /// pairwise-disjoint commits as one SST attempt.
    GroupCommit {
        /// The member whose id names the fused engine transaction.
        leader: TxnId,
        /// Transactions fused into this batch (including the leader).
        members: u32,
    },
    /// A record was flushed to the write-ahead log.
    WalFlush {
        /// Log sequence number of the record.
        lsn: u64,
        /// Bytes appended (frame + payload).
        bytes: u64,
    },
    /// A phase span opened for a transaction (see [`crate::span`]).
    ///
    /// `wall_us` is wall-clock microseconds on the emitter's epoch when
    /// the emitting layer has a real clock (the sharded front-end), and
    /// `None` in purely virtual-time layers.
    SpanOpen {
        /// The transaction the span belongs to.
        txn: TxnId,
        /// What the span covers.
        kind: SpanKind,
        /// Wall clock at open, when the emitter has one.
        wall_us: Option<u64>,
    },
    /// The matching close of a [`TraceEvent::SpanOpen`].
    SpanClose {
        /// The transaction the span belongs to.
        txn: TxnId,
        /// What the span covered (matched against the open's kind,
        /// payload included).
        kind: SpanKind,
        /// Wall clock at close, when the emitter has one.
        wall_us: Option<u64>,
    },
    /// The simulated client link went down (a `Disconnect` step began).
    LinkDown {
        /// The disconnecting client's transaction.
        txn: TxnId,
    },
    /// The simulated client link came back up (reconnect fired).
    LinkUp {
        /// The reconnecting client's transaction.
        txn: TxnId,
    },
    /// A fault-injection hook fired at a labeled seam (chaos runs only;
    /// see `pstm_types::fault`).
    FaultInjected {
        /// The labeled injection site (e.g. `wal-append`, `pre-sst`,
        /// `commit-local@2`).
        site: String,
        /// The injected outcome: `io`, `crash`, or `torn`.
        action: String,
    },
    /// The engine completed crash recovery (checkpoint image + WAL redo).
    Recovered {
        /// Committed transactions whose effects were replayed.
        winners: u64,
        /// Intact log records scanned during redo.
        records: u64,
    },
}

/// One sequenced, timestamped trace entry — what sinks persist.
///
/// `at` is *virtual* time (the simulator clock), so traces of identical
/// runs are byte-identical; `seq` breaks ties among events emitted at the
/// same instant.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TraceRecord {
    /// Emission ordinal within the trace, starting at 0.
    pub seq: u64,
    /// Virtual timestamp of the event.
    pub at: Timestamp,
    /// Emitting OS thread, as a small process-local tag (threads are
    /// numbered in first-emission order); single-threaded runs show one.
    pub thread: Option<u64>,
    /// The event itself.
    pub event: TraceEvent,
}

/// Renders `records` as JSON lines, one per record: the
/// `results/trace_<label>.jsonl` view of a recorder file.
///
/// # Errors
/// Write errors from `out`.
pub fn render_jsonl(records: &[TraceRecord], out: &mut impl Write) -> io::Result<()> {
    for rec in records {
        out.write_all(serde_json::to_string(rec)?.as_bytes())?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_jsonl_writes_one_serde_line_per_record() {
        let recs: Vec<TraceRecord> = (0..2)
            .map(|seq| TraceRecord {
                seq,
                at: Timestamp(7),
                thread: Some(0),
                event: TraceEvent::TxnBegin { txn: TxnId(3) },
            })
            .collect();
        let mut out = Vec::new();
        render_jsonl(&recs, &mut out).unwrap();
        let line = r#"{"seq":1,"at":7,"thread":0,"event":{"TxnBegin":{"txn":3}}}"#;
        assert_eq!(String::from_utf8(out).unwrap().lines().nth(1), Some(line));
    }
}
