//! Transaction and resource state — the paper's §IV model, one row per
//! grant. A resource is named by its slot, whose order is resource order.
//!
//! The paper keeps a transaction's hold on a resource in many sets at
//! once (`X_pending`, `X_committing`, `X_sleeping`, `X_read^A`, `X_new^A`,
//! `A_temp`, …). Here that hold is one `Grant` row in the resource's
//! `holders` table, and the paper's sets are views over rows, so they
//! cannot disagree:
//!
//! | paper symbol        | here                                              |
//! |---------------------|---------------------------------------------------|
//! | `A_state`           | `TxnRecord::state` in `Gtm::live`, else two bits of `Tombstones` |
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

use pstm_types::{CompatMatrix, InlineVec, OpClass, ScalarOp, Timestamp, TxnId, Value};
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

/// The final state of every finished transaction, two bits an id: ids
/// are dense (a front allocates them in sequence), so they are kept as a
/// "finished" and a "committed" mask per block of 64 ids, keyed by
/// `id >> 6`. Only a terminal state can be stored. A shard that sees ids
/// 64 or more apart pays a whole block per id (about 49 B against a map
/// entry's 21 B); the break-even stride is about 27.
#[derive(Clone, Debug, Default)]
pub(crate) struct Tombstones {
    /// By block: `[finished, committed]`, bit `id & 63`.
    blocks: BTreeMap<u64, [u64; 2]>,
}

impl Tombstones {
    /// Records `txn`'s final state. `state` must be terminal and `txn` not
    /// yet recorded.
    pub(crate) fn insert(&mut self, txn: TxnId, state: TxnState) {
        debug_assert!(state.is_terminal() && self.get(txn).is_none(), "{txn} {state}");
        let [finished, committed] = self.blocks.entry(txn.0 >> 6).or_default();
        *finished |= 1 << (txn.0 & 63);
        *committed |= u64::from(state == TxnState::Committed) << (txn.0 & 63);
    }

    /// `txn`'s final state, if it finished.
    pub(crate) fn get(&self, txn: TxnId) -> Option<TxnState> {
        let masks = self.blocks.get(&(txn.0 >> 6))?;
        let [finished, committed] = masks.map(|mask| mask >> (txn.0 & 63) & 1 == 1);
        finished.then_some(if committed { TxnState::Committed } else { TxnState::Aborted })
    }

    /// How many transactions finished.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.blocks.values().map(|[finished, _]| finished.count_ones() as usize).sum()
    }

    /// Every finished id, ascending.
    #[cfg(test)]
    pub(crate) fn ids(&self) -> impl Iterator<Item = TxnId> + '_ {
        let block = |(&key, &[finished, _]): (&u64, &[u64; 2])| {
            (0..64).filter(move |b| finished >> b & 1 != 0).map(move |b| TxnId(key << 6 | b))
        };
        self.blocks.iter().flat_map(block)
    }
}

/// Working state of a transaction that has not finished: the paper's
/// `A_state` and `A_t_sleep`, plus where its rows are. The manager never
/// forgets an id, so what a finished transaction still owns is retained
/// for good: its record is dropped and its final state's two bits in
/// `Gtm::finished` are all that stays.
#[derive(Clone, Debug)]
pub(crate) struct TxnRecord {
    /// `A_state` (never terminal: a finished transaction has no record,
    /// only its final state in `Gtm::finished`).
    pub(crate) state: TxnState,
    /// `A_t_sleep` — when the transaction went to sleep.
    pub(crate) t_sleep: Option<Timestamp>,
    /// The slots it holds a [`Grant`] row on, ascending — the order
    /// commit reconciles them in.
    pub(crate) held: Vec<usize>,
    /// The slot whose queue holds its one stashed invocation (§IV
    /// well-formedness: at most one outstanding).
    pub(crate) waiting_on: Option<usize>,
    /// Every op the transaction executed, in order, by slot, for the
    /// history recorder.
    pub(crate) op_log: Vec<(usize, ScalarOp)>,
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

    /// Notes a grant on `slot`, keeping `held` ascending (a Read →
    /// mutation strengthening is already there).
    pub(crate) fn hold(&mut self, slot: usize) {
        if let Err(at) = self.held.binary_search(&slot) {
            self.held.insert(at, slot);
        }
    }

    /// Every slot this transaction is involved with (granted or waiting).
    pub(crate) fn involved(&self) -> impl Iterator<Item = usize> + '_ {
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum Phase {
    /// In `X_pending`.
    #[default]
    Pending,
    /// In `X_committing`: reconciled, the SST not yet settled.
    Committing,
}

/// The one fact "A holds X under class c", with everything that hangs off
/// it. The row lives from the grant until the SST is settled (commit
/// finished or aborted), so `X_read^A` and `A_temp` outlive reconciliation
/// — a failed SST unwinds from intact rows.
#[derive(Clone, Debug, Default)]
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
    /// `X_pending ∪ X_committing`, one row per holder, by `TxnId` —
    /// usually one or two, kept inline.
    pub(crate) holders: InlineVec<(TxnId, Grant), 2>,
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
            .filter(move |(t, g)| *t != txn && g.blocks() && !matrix.compatible(class, g.class))
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
    use crate::sst::SST_ID_BASE;
    use proptest::prelude::*;

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
        rs.holders.insert_key(t(1), grant(OpClass::UpdateAddSub));
        // An assignment conflicts with the pending add/sub holder.
        assert!(blocked(&rs, t(2), OpClass::UpdateAssign, &m));
        // ... but not once the holder sleeps (Algorithm 2's exclusion).
        rs.holders.get_key_mut(&t(1)).unwrap().asleep = true;
        assert!(!blocked(&rs, t(2), OpClass::UpdateAssign, &m));
        // The awake-time check still sees it.
        assert!(rs.conflicts_with_any_holder(t(2), OpClass::UpdateAssign, &m));
        // Committing transactions always block.
        rs.holders
            .insert_key(t(3), Grant { phase: Phase::Committing, ..grant(OpClass::UpdateAssign) });
        assert_eq!(
            rs.blocking_conflicts(t(2), OpClass::UpdateAddSub, &m).collect::<Vec<_>>(),
            [t(3)]
        );
        // A stricter matrix changes the verdicts consistently.
        let strict = CompatMatrix::read_write_only();
        let mut rs3 = ResourceState::default();
        rs3.holders.insert_key(t(1), grant(OpClass::UpdateAddSub));
        assert!(blocked(&rs3, t(2), OpClass::UpdateAddSub, &strict));
        assert!(!blocked(&rs3, t(2), OpClass::UpdateAddSub, &m));
    }

    #[test]
    fn own_entries_never_conflict() {
        let m = CompatMatrix::paper();
        let mut rs = ResourceState::default();
        rs.holders.insert_key(t(1), grant(OpClass::UpdateAssign));
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
        let [r1, r2, r3] = [1, 2, 3];
        rec.hold(r2);
        rec.hold(r1);
        rec.hold(r2);
        assert_eq!(rec.held, [r1, r2], "ascending, once each");
        rec.waiting_on = Some(r3);
        assert_eq!(rec.involved().collect::<Vec<_>>(), [r1, r2, r3]);
        assert_eq!(rec.state, TxnState::Active);
    }

    /// An id near a block edge, at the top of the front's id space, or
    /// anywhere in a few blocks (so repeats are common).
    fn tombstone_id() -> impl Strategy<Value = TxnId> {
        let edges = [0, 63, 64, 65, 127, 128, SST_ID_BASE - 64, SST_ID_BASE - 1];
        prop_oneof![prop::sample::select(edges.to_vec()), 0u64..300, 0..SST_ID_BASE].prop_map(TxnId)
    }

    proptest! {
        /// Whatever ids finish, in whatever order — block edges, repeats
        /// (refused as `begin` refuses a known id), elder ids after newer
        /// ones — the bitmap answers as a map from id to final state:
        /// `get` (so `begin`'s "already known"), `len` and the id list.
        #[test]
        fn prop_tombstones_answer_as_a_map(
            finished in prop::collection::vec((tombstone_id(), any::<bool>()), 0..80),
            probes in prop::collection::vec(tombstone_id(), 0..40),
        ) {
            let (mut bits, mut map) = (Tombstones::default(), BTreeMap::new());
            for (txn, committed) in &finished {
                let state = if *committed { TxnState::Committed } else { TxnState::Aborted };
                if !map.contains_key(txn) {
                    map.insert(*txn, state);
                    bits.insert(*txn, state);
                }
                prop_assert_eq!(bits.len(), map.len());
            }
            for txn in probes.iter().chain(finished.iter().map(|(t, _)| t)) {
                prop_assert_eq!(bits.get(*txn), map.get(txn).copied());
            }
            prop_assert_eq!(bits.ids().collect::<Vec<_>>(), map.keys().copied().collect::<Vec<_>>());
        }
    }
}
