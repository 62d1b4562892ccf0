//! Transaction and resource state — the paper's §IV model, one row per
//! grant.
//!
//! The paper keeps a transaction's hold on a resource in many sets at
//! once (`X_pending`, `X_committing`, `X_sleeping`, `X_read^A`, `X_new^A`,
//! `A_temp`, …). Here that hold is one `Grant` row in the resource's
//! `holders` table, and the paper's sets are views over rows, so they
//! cannot disagree:
//!
//! | paper symbol        | here                                              |
//! |---------------------|---------------------------------------------------|
//! | `A_state`           | `TxnRecord::state` in `Gtm::live`, else the `Gtm::finished` index |
//! | `A_t_sleep`         | `TxnRecord::t_sleep`                              |
//! | `A_t_wait`          | `WaitEntry::since` of the one queued invocation   |
//! | `A_temp`            | `Grant::temp`, one per held resource              |
//! | `X_pending`         | rows of `holders` in `Phase::Pending`             |
//! | `X_committing`      | rows of `holders` in `Phase::Committing`          |
//! | `X_sleeping`        | rows with `Grant::asleep`                         |
//! | `X_read^A`          | `Grant::read`                                     |
//! | `X_waiting`         | `ResourceState::waiting` (FIFO)                   |
//! | `X_committed`, `X_tc` | `ResourceState::committed`                      |
//! | `X_aborting`        | no store: an abort completes within one event     |
//! | `X_new^A`           | no store: it is the SST's write set               |
//! | `X_permanent`       | the LDBS                                          |
//!
//! `X_new` has no store: the reconciled value is computed by
//! `Gtm::commit_local`, handed to the coordinator in
//! `LocalCommit::Prepared` and travels in the SST; nothing reads it back
//! from the resource. A queued transaction that sleeps is recognised by
//! its `A_state`, not by a mark in the queue.

use pstm_types::{CompatMatrix, OpClass, ResourceId, ScalarOp, Timestamp, TxnId, Value};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// The operating states of §IV.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TxnState {
    /// Normally running.
    Active,
    /// Waiting for a grant on some resource.
    Waiting,
    /// Inactive (disconnected or idle) past the sleep threshold.
    Sleeping,
    /// Commit requested; the SST has not yet finished.
    Committing,
    /// Abort requested; per-resource aborts still propagating.
    Aborting,
    /// Job performed.
    Committed,
    /// Job abandoned.
    Aborted,
}

impl TxnState {
    /// Short name for error messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TxnState::Active => "active",
            TxnState::Waiting => "waiting",
            TxnState::Sleeping => "sleeping",
            TxnState::Committing => "committing",
            TxnState::Aborting => "aborting",
            TxnState::Committed => "committed",
            TxnState::Aborted => "aborted",
        }
    }

    /// Whether the transaction has reached a terminal state.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, TxnState::Committed | TxnState::Aborted)
    }
}

impl fmt::Display for TxnState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Working state of a transaction that has not finished: the paper's
/// `A_state` and `A_t_sleep`, plus where its rows are. The manager never
/// forgets an id, so what a finished transaction still owns is retained
/// for good: its record is dropped and one `(TxnId, TxnState)` entry in
/// `Gtm::finished` is all that stays.
#[derive(Clone, Debug)]
pub(crate) struct TxnRecord {
    /// `A_state` (never terminal: a finished transaction has no record,
    /// only its final state in `Gtm::finished`).
    pub(crate) state: TxnState,
    /// `A_t_sleep` — when the transaction went to sleep.
    pub(crate) t_sleep: Option<Timestamp>,
    /// The resources it holds a [`Grant`] row on, ascending — the order
    /// commit reconciles them in.
    pub(crate) held: Vec<ResourceId>,
    /// The resource whose queue holds its one stashed invocation (§IV
    /// well-formedness: at most one outstanding).
    pub(crate) waiting_on: Option<ResourceId>,
    /// Every op the transaction executed, in order, for the history
    /// recorder.
    pub(crate) op_log: Vec<(ResourceId, ScalarOp)>,
}

impl TxnRecord {
    /// Fresh record in the `Active` state (Algorithm 1's postcondition).
    pub(crate) fn new() -> Self {
        TxnRecord {
            state: TxnState::Active,
            t_sleep: None,
            held: Vec::new(),
            waiting_on: None,
            op_log: Vec::new(),
        }
    }

    /// Notes a grant on `resource`, keeping `held` ascending (a Read →
    /// mutation strengthening is already there).
    pub(crate) fn hold(&mut self, resource: ResourceId) {
        if let Err(at) = self.held.binary_search(&resource) {
            self.held.insert(at, resource);
        }
    }

    /// Every resource this transaction is involved with (granted or
    /// waiting).
    pub(crate) fn involved(&self) -> impl Iterator<Item = ResourceId> + '_ {
        self.held.iter().copied().chain(self.waiting_on)
    }
}

/// A queued invocation: `(A, op)` plus the arrival time `A_t_wait`.
#[derive(Clone, Debug)]
pub(crate) struct WaitEntry {
    /// The waiting transaction.
    pub(crate) txn: TxnId,
    /// Class of the queued invocation.
    pub(crate) class: OpClass,
    /// The concrete stashed operation.
    pub(crate) op: ScalarOp,
    /// Arrival time in the queue.
    pub(crate) since: Timestamp,
}

/// Where a grant stands between Algorithm 2 and the end of its SST.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// In `X_pending`.
    Pending,
    /// In `X_committing`: reconciled, the SST not yet settled.
    Committing,
}

/// The one fact "A holds X under class c", with everything that hangs off
/// it. The row lives from the grant until the SST is settled (commit
/// finished or aborted), so `X_read^A` and `A_temp` outlive reconciliation
/// — a failed SST unwinds from intact rows.
#[derive(Clone, Debug)]
pub(crate) struct Grant {
    /// The operation class in force (constraint (i): all of a
    /// transaction's ops on one member must be mutually compatible).
    pub(crate) class: OpClass,
    /// `X_pending` or `X_committing`.
    pub(crate) phase: Phase,
    /// Membership of `X_sleeping`; mirrors `A_state = Sleeping` so the
    /// conflict scan of Algorithm 2 stays inside the resource.
    pub(crate) asleep: bool,
    /// `X_read^A` — snapshot of `X_permanent` at grant.
    pub(crate) read: Value,
    /// `A_temp` — the virtual copy.
    pub(crate) temp: Value,
}

impl Grant {
    /// Whether this holder blocks incompatible newcomers: every holder
    /// does except a pending one that sleeps (Algorithm 2's exclusion —
    /// the mechanism that lets incompatible work bypass disconnected
    /// transactions).
    fn blocks(&self) -> bool {
        self.phase == Phase::Committing || !self.asleep
    }
}

/// Per-resource state: the paper's object state minus `X_permanent`
/// (which lives in the LDBS).
#[derive(Clone, Debug, Default)]
pub(crate) struct ResourceState {
    /// `X_pending ∪ X_committing`, one row per holder, in `TxnId` order.
    pub(crate) holders: BTreeMap<TxnId, Grant>,
    /// `X_waiting` — queued invocations, FIFO.
    pub(crate) waiting: VecDeque<WaitEntry>,
    /// `X_committed` with `X_tc` commit times, kept only while some
    /// transaction sleeps from before the commit. (`X_aborting` has no
    /// persistent representation: aborts complete synchronously within
    /// one event, so the set would always be empty between events.)
    pub(crate) committed: Vec<(TxnId, OpClass, Timestamp)>,
}

impl ResourceState {
    /// The *blocking* holders `class` conflicts with (Definition 2) under
    /// `matrix`, in `TxnId` order.
    pub(crate) fn blocking_conflicts<'a>(
        &'a self,
        txn: TxnId,
        class: OpClass,
        matrix: &'a CompatMatrix,
    ) -> impl Iterator<Item = TxnId> + 'a {
        self.holders
            .iter()
            .filter(move |(t, g)| **t != txn && g.blocks() && !matrix.compatible(class, g.class))
            .map(|(t, _)| *t)
    }

    /// Whether `class` conflicts with *any* holder under `matrix`,
    /// sleeping included — the stricter check Algorithm 9 applies when a
    /// sleeper awakes.
    pub(crate) fn conflicts_with_any_holder(
        &self,
        txn: TxnId,
        class: OpClass,
        matrix: &CompatMatrix,
    ) -> bool {
        self.holders.iter().any(|(t, g)| *t != txn && !matrix.compatible(class, g.class))
    }

    /// Whether any transaction committed on this resource after `since`
    /// with a class incompatible with `class` under `matrix` (Algorithm
    /// 9's `X_tc > A_t_sleep` check).
    pub(crate) fn incompatible_commit_after(
        &self,
        txn: TxnId,
        class: OpClass,
        since: Timestamp,
        matrix: &CompatMatrix,
    ) -> bool {
        self.committed
            .iter()
            .any(|(t, c, tc)| *t != txn && *tc > since && !matrix.compatible(class, *c))
    }

    /// Drops committed-set entries no longer observable by any sleeper:
    /// entries older than `horizon` (the earliest `t_sleep` among live
    /// sleepers, or "now" when none sleep).
    pub(crate) fn prune_committed(&mut self, horizon: Timestamp) {
        self.committed.retain(|(_, _, tc)| *tc > horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstm_types::ObjectId;

    fn t(i: u64) -> TxnId {
        TxnId(i)
    }

    fn grant(class: OpClass) -> Grant {
        Grant { class, phase: Phase::Pending, asleep: false, read: Value::Null, temp: Value::Null }
    }

    fn blocked(rs: &ResourceState, txn: TxnId, class: OpClass, m: &CompatMatrix) -> bool {
        rs.blocking_conflicts(txn, class, m).next().is_some()
    }

    #[test]
    fn states_classify() {
        assert!(TxnState::Committed.is_terminal());
        assert!(TxnState::Aborted.is_terminal());
        assert!(!TxnState::Sleeping.is_terminal());
        assert_eq!(TxnState::Committing.name(), "committing");
        assert_eq!(TxnRecord::new().state, TxnState::Active);
    }

    #[test]
    fn sleeping_holders_do_not_block_but_committing_do() {
        let m = CompatMatrix::paper();
        let mut rs = ResourceState::default();
        rs.holders.insert(t(1), grant(OpClass::UpdateAddSub));
        // An assignment conflicts with the pending add/sub holder.
        assert!(blocked(&rs, t(2), OpClass::UpdateAssign, &m));
        // ... but not once the holder sleeps (Algorithm 2's exclusion).
        rs.holders.get_mut(&t(1)).unwrap().asleep = true;
        assert!(!blocked(&rs, t(2), OpClass::UpdateAssign, &m));
        // The awake-time check still sees it.
        assert!(rs.conflicts_with_any_holder(t(2), OpClass::UpdateAssign, &m));
        // Committing transactions always block.
        rs.holders.insert(t(3), Grant { phase: Phase::Committing, ..grant(OpClass::UpdateAssign) });
        assert_eq!(
            rs.blocking_conflicts(t(2), OpClass::UpdateAddSub, &m).collect::<Vec<_>>(),
            [t(3)]
        );
        // A stricter matrix changes the verdicts consistently.
        let strict = CompatMatrix::read_write_only();
        let mut rs3 = ResourceState::default();
        rs3.holders.insert(t(1), grant(OpClass::UpdateAddSub));
        assert!(blocked(&rs3, t(2), OpClass::UpdateAddSub, &strict));
        assert!(!blocked(&rs3, t(2), OpClass::UpdateAddSub, &m));
    }

    #[test]
    fn own_entries_never_conflict() {
        let m = CompatMatrix::paper();
        let mut rs = ResourceState::default();
        rs.holders.insert(t(1), grant(OpClass::UpdateAssign));
        assert!(!blocked(&rs, t(1), OpClass::UpdateAssign, &m));
        assert!(!rs.conflicts_with_any_holder(t(1), OpClass::UpdateAssign, &m));
    }

    #[test]
    fn committed_after_sleep_detected() {
        let m = CompatMatrix::paper();
        let mut rs = ResourceState::default();
        rs.committed.push((t(1), OpClass::UpdateAssign, Timestamp::from_millis(100)));
        let class = OpClass::UpdateAddSub;
        assert!(rs.incompatible_commit_after(t(2), class, Timestamp::from_millis(50), &m));
        assert!(
            !rs.incompatible_commit_after(t(2), class, Timestamp::from_millis(100), &m),
            "commit at exactly t_sleep is not after it"
        );
        // Compatible commits never trigger.
        let mut rs2 = ResourceState::default();
        rs2.committed.push((t(1), OpClass::UpdateAddSub, Timestamp::from_millis(100)));
        assert!(!rs2.incompatible_commit_after(t(2), class, Timestamp::ZERO, &m));
        // One's own commit never triggers.
        assert!(!rs.incompatible_commit_after(t(1), class, Timestamp::ZERO, &m));
    }

    #[test]
    fn prune_committed_respects_horizon() {
        let mut rs = ResourceState::default();
        rs.committed.push((t(1), OpClass::Read, Timestamp::from_millis(10)));
        rs.committed.push((t(2), OpClass::Read, Timestamp::from_millis(20)));
        rs.prune_committed(Timestamp::from_millis(15));
        assert_eq!(rs.committed.len(), 1);
        assert_eq!(rs.committed[0].0, t(2));
    }

    #[test]
    fn txn_record_tracks_resources() {
        let mut rec = TxnRecord::new();
        let [r1, r2, r3] = [1, 2, 3].map(|o| ResourceId::atomic(ObjectId(o)));
        rec.hold(r2);
        rec.hold(r1);
        rec.hold(r2);
        assert_eq!(rec.held, [r1, r2], "ascending, once each");
        rec.waiting_on = Some(r3);
        assert_eq!(rec.involved().collect::<Vec<_>>(), [r1, r2, r3]);
        assert_eq!(rec.state, TxnState::Active);
    }
}
