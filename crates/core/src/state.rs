//! Transaction and resource state — the paper's §IV model.
//!
//! A transaction's global state is `(A_state, A_temp, A_t_sleep,
//! A_t_wait)`; each object data member (resource) tracks the sets
//! `X_pending`, `X_waiting`, `X_committing`, `X_committed` (with commit
//! times `X_tc`), `X_aborting`, `X_sleeping`, plus the per-transaction
//! values `X_read` and `X_new`. `X_permanent` itself lives in the LDBS.

use pstm_types::{CompatMatrix, OpClass, ScalarOp, Timestamp, TxnId, Value};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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

/// Per-transaction record: the paper's `A_state`, `A_temp`, `A_t_sleep`,
/// `A_t_wait`, plus bookkeeping the algorithms need (which resources the
/// transaction touched, its class per resource, the stashed waiting op).
#[derive(Clone, Debug)]
pub struct TxnRecord {
    /// `A_state`.
    pub state: TxnState,
    /// `A_temp` — the virtual copy per resource.
    pub temp: BTreeMap<pstm_types::ResourceId, Value>,
    /// The operation class in force per resource (constraint (i): all of
    /// a transaction's ops on one member must be mutually compatible).
    pub classes: BTreeMap<pstm_types::ResourceId, OpClass>,
    /// `A_t_sleep` — when the transaction went to sleep.
    pub t_sleep: Option<Timestamp>,
    /// `A_t_wait` — arrival time in each resource's wait queue.
    pub t_wait: BTreeMap<pstm_types::ResourceId, Timestamp>,
    /// The operation stashed while waiting (at most one outstanding
    /// invocation — §IV well-formedness).
    pub pending_op: Option<(pstm_types::ResourceId, ScalarOp)>,
    /// Every op the transaction executed, in order, for the history
    /// recorder (kept small: class + op per resource).
    pub op_log: Vec<(pstm_types::ResourceId, ScalarOp)>,
    /// When the transaction began (for stats).
    pub began_at: Timestamp,
}

impl TxnRecord {
    /// Fresh record in the `Active` state (Algorithm 1's postcondition).
    #[must_use]
    pub fn new(now: Timestamp) -> Self {
        TxnRecord {
            state: TxnState::Active,
            temp: BTreeMap::new(),
            classes: BTreeMap::new(),
            t_sleep: None,
            t_wait: BTreeMap::new(),
            pending_op: None,
            op_log: Vec::new(),
            began_at: now,
        }
    }

    /// Every resource this transaction is involved with (granted or
    /// waiting).
    #[must_use]
    pub fn resources(&self) -> BTreeSet<pstm_types::ResourceId> {
        let mut r: BTreeSet<_> = self.classes.keys().copied().collect();
        if let Some((res, _)) = &self.pending_op {
            r.insert(*res);
        }
        r
    }

    /// Called when the transaction reaches a terminal state: frees the
    /// working state only a live transaction needs (`A_temp`, the class
    /// map, `A_t_wait`) and hands out the op log. The GTM keeps every
    /// finished record, so whatever a record still owns is memory each
    /// transaction retains for good — an emptied `BTreeMap` alone keeps
    /// its root node allocated.
    pub fn retire(&mut self) -> Vec<(pstm_types::ResourceId, ScalarOp)> {
        self.temp.clear();
        self.classes.clear();
        self.t_wait.clear();
        std::mem::take(&mut self.op_log)
    }
}

/// A queued invocation: `(A, op)` plus the arrival time `A_t_wait`.
#[derive(Clone, Debug)]
pub struct WaitEntry {
    /// The waiting transaction.
    pub txn: TxnId,
    /// Class of the queued invocation.
    pub class: OpClass,
    /// The concrete stashed operation.
    pub op: ScalarOp,
    /// Arrival time in the queue.
    pub since: Timestamp,
    /// True when the transaction already holds the resource under a
    /// weaker class (Read) and is strengthening — granted with front
    /// priority like a 2PL upgrade.
    pub is_upgrade: bool,
}

/// Per-resource state: the paper's object state minus `X_permanent`
/// (which lives in the LDBS).
#[derive(Clone, Debug, Default)]
pub struct ResourceState {
    /// `X_pending` — transactions granted the resource, with their class.
    pub pending: BTreeMap<TxnId, OpClass>,
    /// `X_waiting` — queued invocations, FIFO.
    pub waiting: VecDeque<WaitEntry>,
    /// `X_committing`.
    pub committing: BTreeMap<TxnId, OpClass>,
    /// `X_committed` with `X_tc` commit times. Pruned lazily: entries are
    /// only needed while some transaction sleeps from before the commit.
    /// (`X_aborting` has no persistent representation: aborts complete
    /// synchronously within one event, so the set would always be empty
    /// between events.)
    pub committed: Vec<(TxnId, OpClass, Timestamp)>,
    /// `X_sleeping` — transactions operating on X that are asleep.
    pub sleeping: BTreeSet<TxnId>,
    /// `X_read` — per-transaction snapshot of `X_permanent` at grant.
    pub read: BTreeMap<TxnId, Value>,
    /// `X_new` — per-transaction reconciled value awaiting the SST.
    pub new: BTreeMap<TxnId, Value>,
}

impl ResourceState {
    /// Whether `class` conflicts (Definition 2) with any *blocking*
    /// holder under `matrix`: a pending, non-sleeping transaction or a
    /// committing one. Sleeping holders are deliberately excluded
    /// (Algorithm 2) — that is the mechanism that lets incompatible work
    /// bypass disconnected transactions.
    #[must_use]
    pub fn conflicts_with_blockers(
        &self,
        txn: TxnId,
        class: OpClass,
        matrix: &CompatMatrix,
    ) -> bool {
        self.blocking_conflicts(txn, class, matrix).next().is_some()
    }

    /// The blocking holders `class` conflicts with under `matrix`.
    pub fn blocking_conflicts<'a>(
        &'a self,
        txn: TxnId,
        class: OpClass,
        matrix: &'a CompatMatrix,
    ) -> impl Iterator<Item = (TxnId, OpClass)> + 'a {
        let pending =
            self.pending.iter().filter(move |(t, _)| **t != txn && !self.sleeping.contains(t));
        let committing = self.committing.iter().filter(move |(t, _)| **t != txn);
        pending
            .chain(committing)
            .filter(move |(_, c)| !matrix.compatible(class, **c))
            .map(|(t, c)| (*t, *c))
    }

    /// Whether `class` conflicts with *any* pending or committing holder
    /// under `matrix`, sleeping included — the stricter check Algorithm 9
    /// applies when a sleeper awakes.
    #[must_use]
    pub fn conflicts_with_any_holder(
        &self,
        txn: TxnId,
        class: OpClass,
        matrix: &CompatMatrix,
    ) -> bool {
        self.pending
            .iter()
            .chain(self.committing.iter())
            .any(|(t, c)| *t != txn && !matrix.compatible(class, *c))
    }

    /// Whether any transaction committed on this resource after `since`
    /// with a class incompatible with `class` under `matrix` (Algorithm
    /// 9's `X_tc > A_t_sleep` check).
    #[must_use]
    pub fn incompatible_commit_after(
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
    pub fn prune_committed(&mut self, horizon: Timestamp) {
        self.committed.retain(|(_, _, tc)| *tc > horizon);
    }

    /// Whether the resource is completely idle (reusable for unlock
    /// bookkeeping and tests).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
            && self.waiting.is_empty()
            && self.committing.is_empty()
            && self.new.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstm_types::{ObjectId, ResourceId};

    fn t(i: u64) -> TxnId {
        TxnId(i)
    }

    #[test]
    fn states_classify() {
        assert!(TxnState::Committed.is_terminal());
        assert!(TxnState::Aborted.is_terminal());
        assert!(!TxnState::Sleeping.is_terminal());
        assert_eq!(TxnState::Committing.name(), "committing");
    }

    #[test]
    fn sleeping_holders_do_not_block_but_committing_do() {
        let m = CompatMatrix::paper();
        let mut rs = ResourceState::default();
        rs.pending.insert(t(1), OpClass::UpdateAddSub);
        // An assignment conflicts with the pending add/sub holder.
        assert!(rs.conflicts_with_blockers(t(2), OpClass::UpdateAssign, &m));
        // ... but not once the holder sleeps (Algorithm 2's exclusion).
        rs.sleeping.insert(t(1));
        assert!(!rs.conflicts_with_blockers(t(2), OpClass::UpdateAssign, &m));
        // The awake-time check still sees it.
        assert!(rs.conflicts_with_any_holder(t(2), OpClass::UpdateAssign, &m));
        // Committing transactions always block.
        rs.committing.insert(t(3), OpClass::UpdateAssign);
        assert!(rs.conflicts_with_blockers(t(2), OpClass::UpdateAddSub, &m));
        // A stricter matrix changes the verdicts consistently.
        let strict = CompatMatrix::read_write_only();
        let mut rs3 = ResourceState::default();
        rs3.pending.insert(t(1), OpClass::UpdateAddSub);
        assert!(rs3.conflicts_with_blockers(t(2), OpClass::UpdateAddSub, &strict));
        assert!(!rs3.conflicts_with_blockers(t(2), OpClass::UpdateAddSub, &m));
    }

    #[test]
    fn own_entries_never_conflict() {
        let m = CompatMatrix::paper();
        let mut rs = ResourceState::default();
        rs.pending.insert(t(1), OpClass::UpdateAssign);
        assert!(!rs.conflicts_with_blockers(t(1), OpClass::UpdateAssign, &m));
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
        let mut rec = TxnRecord::new(Timestamp::ZERO);
        let r1 = ResourceId::atomic(ObjectId(1));
        let r2 = ResourceId::atomic(ObjectId(2));
        rec.classes.insert(r1, OpClass::Read);
        rec.pending_op = Some((r2, ScalarOp::Read));
        let resources = rec.resources();
        assert!(resources.contains(&r1) && resources.contains(&r2));
        assert_eq!(rec.state, TxnState::Active);
    }

    #[test]
    fn idle_resource_detection() {
        let mut rs = ResourceState::default();
        assert!(rs.is_idle());
        rs.pending.insert(t(1), OpClass::Read);
        assert!(!rs.is_idle());
    }
}
