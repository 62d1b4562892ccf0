//! The metrics registry: a fixed counter array plus latency/depth
//! histograms, all derived from the event stream by one `apply` mapping.
//!
//! Every legacy `*Stats` struct in the workspace (GTM, 2PL, lock table,
//! OCC, engine) is a projection of [`Ctr`] counters, so the stats can
//! never drift from the trace: both are produced by the same events.

use crate::event::{AbortOrigin, TraceEvent, TraceRecord};
use crate::hist::Histogram;
use crate::prof::PhaseProfile;
use pstm_types::{AbortReason, ObjectId, ResourceId, Timestamp, TxnId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Counter identities — the union of every layer's metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[repr(usize)]
#[allow(missing_docs)] // names are the documentation; see `apply`
pub enum Ctr {
    Begun,
    Committed,
    Aborted,
    AbortedDeadlock,
    AbortedLockTimeout,
    AbortedSleepTimeout,
    AbortedSleepConflict,
    AbortedConstraint,
    AbortedConstraintGrant,
    AbortedSstFailure,
    AbortedValidation,
    AbortedUser,
    AbortedAdmission,
    OpsRequested,
    OpsCompleted,
    OpsWaited,
    SharedGrants,
    BypassedSleepers,
    StarvationDenials,
    AdmissionDenials,
    DeadlockVictims,
    Reconciliations,
    SstAttempts,
    SstsExecuted,
    SstRetries,
    GroupCommits,
    GroupMembers,
    TxnsSlept,
    TxnsAwoke,
    LockImmediateGrants,
    LockUpgrades,
    LockWaits,
    EngineInserts,
    EngineUpdates,
    EngineDeletes,
    EngineCommits,
    EngineAborts,
    WalFlushes,
    WalBytes,
    LinkDowns,
    LinkUps,
    SpansOpened,
    SpansClosed,
    FaultsInjected,
    Recoveries,
}

impl Ctr {
    /// Number of counters.
    pub const COUNT: usize = Ctr::ALL.len();

    /// Every counter, in declaration order.
    pub const ALL: &'static [Ctr] = &[
        Ctr::Begun,
        Ctr::Committed,
        Ctr::Aborted,
        Ctr::AbortedDeadlock,
        Ctr::AbortedLockTimeout,
        Ctr::AbortedSleepTimeout,
        Ctr::AbortedSleepConflict,
        Ctr::AbortedConstraint,
        Ctr::AbortedConstraintGrant,
        Ctr::AbortedSstFailure,
        Ctr::AbortedValidation,
        Ctr::AbortedUser,
        Ctr::AbortedAdmission,
        Ctr::OpsRequested,
        Ctr::OpsCompleted,
        Ctr::OpsWaited,
        Ctr::SharedGrants,
        Ctr::BypassedSleepers,
        Ctr::StarvationDenials,
        Ctr::AdmissionDenials,
        Ctr::DeadlockVictims,
        Ctr::Reconciliations,
        Ctr::SstAttempts,
        Ctr::SstsExecuted,
        Ctr::SstRetries,
        Ctr::GroupCommits,
        Ctr::GroupMembers,
        Ctr::TxnsSlept,
        Ctr::TxnsAwoke,
        Ctr::LockImmediateGrants,
        Ctr::LockUpgrades,
        Ctr::LockWaits,
        Ctr::EngineInserts,
        Ctr::EngineUpdates,
        Ctr::EngineDeletes,
        Ctr::EngineCommits,
        Ctr::EngineAborts,
        Ctr::WalFlushes,
        Ctr::WalBytes,
        Ctr::LinkDowns,
        Ctr::LinkUps,
        Ctr::SpansOpened,
        Ctr::SpansClosed,
        Ctr::FaultsInjected,
        Ctr::Recoveries,
    ];

    /// Stable snake_case name, used as the key in exported counter maps.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Ctr::Begun => "begun",
            Ctr::Committed => "committed",
            Ctr::Aborted => "aborted",
            Ctr::AbortedDeadlock => "aborted_deadlock",
            Ctr::AbortedLockTimeout => "aborted_lock_timeout",
            Ctr::AbortedSleepTimeout => "aborted_sleep_timeout",
            Ctr::AbortedSleepConflict => "aborted_sleep_conflict",
            Ctr::AbortedConstraint => "aborted_constraint",
            Ctr::AbortedConstraintGrant => "aborted_constraint_grant",
            Ctr::AbortedSstFailure => "aborted_sst_failure",
            Ctr::AbortedValidation => "aborted_validation",
            Ctr::AbortedUser => "aborted_user",
            Ctr::AbortedAdmission => "aborted_admission",
            Ctr::OpsRequested => "ops_requested",
            Ctr::OpsCompleted => "ops_completed",
            Ctr::OpsWaited => "ops_waited",
            Ctr::SharedGrants => "shared_grants",
            Ctr::BypassedSleepers => "bypassed_sleepers",
            Ctr::StarvationDenials => "starvation_denials",
            Ctr::AdmissionDenials => "admission_denials",
            Ctr::DeadlockVictims => "deadlock_victims",
            Ctr::Reconciliations => "reconciliations",
            Ctr::SstAttempts => "sst_attempts",
            Ctr::SstsExecuted => "ssts_executed",
            Ctr::SstRetries => "sst_retries",
            Ctr::GroupCommits => "group_commits",
            Ctr::GroupMembers => "group_members",
            Ctr::TxnsSlept => "txns_slept",
            Ctr::TxnsAwoke => "txns_awoke",
            Ctr::LockImmediateGrants => "lock_immediate_grants",
            Ctr::LockUpgrades => "lock_upgrades",
            Ctr::LockWaits => "lock_waits",
            Ctr::EngineInserts => "engine_inserts",
            Ctr::EngineUpdates => "engine_updates",
            Ctr::EngineDeletes => "engine_deletes",
            Ctr::EngineCommits => "engine_commits",
            Ctr::EngineAborts => "engine_aborts",
            Ctr::WalFlushes => "wal_flushes",
            Ctr::WalBytes => "wal_bytes",
            Ctr::LinkDowns => "link_downs",
            Ctr::LinkUps => "link_ups",
            Ctr::SpansOpened => "spans_opened",
            Ctr::SpansClosed => "spans_closed",
            Ctr::FaultsInjected => "faults_injected",
            Ctr::Recoveries => "recoveries",
        }
    }
}

/// Counters + histograms, maintained by replaying trace events through
/// [`MetricsRegistry::apply`].
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    counters: [u64; Ctr::COUNT],
    /// Virtual time spent between queuing an operation and its grant.
    wait_time: Histogram,
    /// Virtual time between `begin` and `commit`.
    commit_latency: Histogram,
    /// Queue depth sampled at every enqueue (scheduler + lock table).
    queue_depth: Histogram,
    /// Open transactions: begin timestamps awaiting their commit.
    begin_at: BTreeMap<TxnId, Timestamp>,
    /// Open waits: enqueue timestamps awaiting their grant.
    wait_since: BTreeMap<(TxnId, ResourceId), Timestamp>,
    /// Open spans: open timestamps awaiting their close, keyed by
    /// `(txn, phase)` — phases nest but never self-nest, so the phase
    /// label uniquely identifies the open span within a transaction.
    span_open: BTreeMap<(TxnId, &'static str), Timestamp>,
    /// Total virtual µs spent in each closed span phase.
    phase_time: BTreeMap<&'static str, u64>,
    /// Virtual µs of closed `blocked` spans, attributed to the contended
    /// resource — the span-sourced hot-object signal.
    blocked_by_resource: BTreeMap<ResourceId, u64>,
    /// Virtual µs of completed enqueue→grant waits per resource — the
    /// event-sourced hot-object signal for traces without spans.
    wait_by_resource: BTreeMap<ResourceId, u64>,
    /// Timestamp of the most recently applied event — the clock
    /// unclocked layers (the storage engine) stamp their events with.
    last_at: Timestamp,
    /// Wall-nanosecond commit-path phase accounting absorbed from
    /// `prof` snapshots. NOT event-derived: trace replay leaves it
    /// empty (wall time is not replayable), so `from_records` equality
    /// checks compare counters and virtual-time histograms only.
    commit_phases: PhaseProfile,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry {
            counters: [0; Ctr::COUNT],
            wait_time: Histogram::new(),
            commit_latency: Histogram::new(),
            queue_depth: Histogram::new(),
            begin_at: BTreeMap::new(),
            wait_since: BTreeMap::new(),
            span_open: BTreeMap::new(),
            phase_time: BTreeMap::new(),
            blocked_by_resource: BTreeMap::new(),
            wait_by_resource: BTreeMap::new(),
            last_at: Timestamp::ZERO,
            commit_phases: PhaseProfile::empty(),
        }
    }

    /// Current value of one counter.
    #[must_use]
    pub fn counter(&self, c: Ctr) -> u64 {
        self.counters[c as usize]
    }

    /// The wait-time histogram (µs of virtual time).
    #[must_use]
    pub fn wait_time(&self) -> &Histogram {
        &self.wait_time
    }

    /// The begin→commit latency histogram (µs of virtual time).
    #[must_use]
    pub fn commit_latency(&self) -> &Histogram {
        &self.commit_latency
    }

    /// The queue-depth histogram.
    #[must_use]
    pub fn queue_depth(&self) -> &Histogram {
        &self.queue_depth
    }

    /// Timestamp of the most recently applied event.
    #[must_use]
    pub fn last_at(&self) -> Timestamp {
        self.last_at
    }

    /// All counters as a name → value map (for JSON artifacts).
    #[must_use]
    pub fn counters_map(&self) -> BTreeMap<&'static str, u64> {
        Ctr::ALL.iter().map(|c| (c.name(), self.counter(*c))).collect()
    }

    /// Total virtual µs spent in each closed span phase.
    #[must_use]
    pub fn phase_time(&self) -> &BTreeMap<&'static str, u64> {
        &self.phase_time
    }

    /// Virtual µs of closed `blocked` spans per contended resource.
    #[must_use]
    pub fn blocked_by_resource(&self) -> &BTreeMap<ResourceId, u64> {
        &self.blocked_by_resource
    }

    /// Virtual µs of completed enqueue→grant waits per resource.
    #[must_use]
    pub fn wait_by_resource(&self) -> &BTreeMap<ResourceId, u64> {
        &self.wait_by_resource
    }

    /// Wall-ns commit-path phase accounting absorbed via
    /// [`MetricsRegistry::absorb_phases`].
    #[must_use]
    pub fn commit_phases(&self) -> &PhaseProfile {
        &self.commit_phases
    }

    /// Folds a `prof` snapshot into this registry — the bridge from
    /// thread-local phase accounting to the exposition endpoint. Pass
    /// each profile exactly once; absorption is additive.
    pub fn absorb_phases(&mut self, profile: &PhaseProfile) {
        self.commit_phases.merge(profile);
    }

    /// Folds another registry into this one — the shard-aggregation
    /// primitive behind fleet snapshots.
    ///
    /// Counters, histograms, and per-phase/per-resource accumulators sum;
    /// `last_at` takes the later clock; open-transaction and open-wait
    /// state unions (shards partition transactions and resources, so the
    /// key sets are disjoint in practice — on a key collision the later
    /// timestamp wins, keeping the merge commutative enough for
    /// monitoring use).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters.iter()) {
            *mine += theirs;
        }
        self.wait_time.merge(&other.wait_time);
        self.commit_latency.merge(&other.commit_latency);
        self.queue_depth.merge(&other.queue_depth);
        for (txn, at) in &other.begin_at {
            let slot = self.begin_at.entry(*txn).or_insert(*at);
            *slot = (*slot).max(*at);
        }
        for (key, at) in &other.wait_since {
            let slot = self.wait_since.entry(*key).or_insert(*at);
            *slot = (*slot).max(*at);
        }
        for (key, at) in &other.span_open {
            let slot = self.span_open.entry(*key).or_insert(*at);
            *slot = (*slot).max(*at);
        }
        for (phase, us) in &other.phase_time {
            *self.phase_time.entry(phase).or_insert(0) += us;
        }
        for (res, us) in &other.blocked_by_resource {
            *self.blocked_by_resource.entry(*res).or_insert(0) += us;
        }
        for (res, us) in &other.wait_by_resource {
            *self.wait_by_resource.entry(*res).or_insert(0) += us;
        }
        self.last_at = self.last_at.max(other.last_at);
        self.commit_phases.merge(&other.commit_phases);
    }

    /// Rebuilds a registry by replaying `records` in order.
    #[must_use]
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> Self {
        let mut reg = MetricsRegistry::new();
        for r in records {
            reg.apply(r.at, &r.event);
        }
        reg
    }

    fn bump(&mut self, c: Ctr) {
        self.counters[c as usize] += 1;
    }

    fn add(&mut self, c: Ctr, n: u64) {
        self.counters[c as usize] += n;
    }

    /// Folds one event into the counters and histograms.
    ///
    /// This is the *single* mapping from events to metrics — the legacy
    /// stats structs project from the counters it maintains, and replay
    /// ([`MetricsRegistry::from_records`]) goes through it too, so live
    /// counters and trace-derived counters cannot diverge.
    pub fn apply(&mut self, at: Timestamp, event: &TraceEvent) {
        self.last_at = at;
        match event {
            TraceEvent::TxnBegin { txn } => {
                self.bump(Ctr::Begun);
                self.begin_at.insert(*txn, at);
            }
            TraceEvent::OpRequested { .. } => self.bump(Ctr::OpsRequested),
            TraceEvent::OpGranted { txn, resource, shared, bypassed_sleeper, .. } => {
                self.bump(Ctr::OpsCompleted);
                if *shared {
                    self.bump(Ctr::SharedGrants);
                }
                if *bypassed_sleeper {
                    self.bump(Ctr::BypassedSleepers);
                }
                if let Some(since) = self.wait_since.remove(&(*txn, *resource)) {
                    let waited = at.since(since).0;
                    self.wait_time.record(waited);
                    *self.wait_by_resource.entry(*resource).or_insert(0) += waited;
                }
            }
            TraceEvent::OpWaiting { txn, resource, queue_depth, .. } => {
                self.bump(Ctr::OpsWaited);
                self.queue_depth.record(u64::from(*queue_depth));
                self.wait_since.insert((*txn, *resource), at);
            }
            TraceEvent::StarvationDenied { .. } => self.bump(Ctr::StarvationDenials),
            TraceEvent::AdmissionDenied { .. } => self.bump(Ctr::AdmissionDenials),
            TraceEvent::DeadlockVictim { .. } => self.bump(Ctr::DeadlockVictims),
            TraceEvent::Reconciled { .. } => self.bump(Ctr::Reconciliations),
            TraceEvent::SstAttempt { .. } => self.bump(Ctr::SstAttempts),
            TraceEvent::SstRetry { .. } => self.bump(Ctr::SstRetries),
            TraceEvent::SstApplied { .. } => self.bump(Ctr::SstsExecuted),
            TraceEvent::GroupCommit { members, .. } => {
                self.bump(Ctr::GroupCommits);
                self.add(Ctr::GroupMembers, u64::from(*members));
            }
            TraceEvent::Committed { txn } => {
                self.bump(Ctr::Committed);
                if let Some(begun) = self.begin_at.remove(txn) {
                    self.commit_latency.record(at.since(begun).0);
                }
                self.close_waits(*txn);
            }
            TraceEvent::Aborted { txn, reason, origin } => {
                self.bump(Ctr::Aborted);
                self.bump(match reason {
                    AbortReason::Deadlock => Ctr::AbortedDeadlock,
                    AbortReason::LockTimeout => Ctr::AbortedLockTimeout,
                    AbortReason::SleepTimeout => Ctr::AbortedSleepTimeout,
                    AbortReason::SleepConflict => Ctr::AbortedSleepConflict,
                    AbortReason::SstFailure => Ctr::AbortedSstFailure,
                    AbortReason::Validation => Ctr::AbortedValidation,
                    AbortReason::User => Ctr::AbortedUser,
                    AbortReason::Admission => Ctr::AbortedAdmission,
                    // A commit-time constraint abort is the paper's §VII
                    // reconciliation-abort; a grant-time one (stashed op
                    // failing on a fresh snapshot) is a different animal
                    // and kept out of the legacy counter.
                    AbortReason::Constraint => {
                        if *origin == AbortOrigin::Commit {
                            Ctr::AbortedConstraint
                        } else {
                            Ctr::AbortedConstraintGrant
                        }
                    }
                });
                self.begin_at.remove(txn);
                self.close_waits(*txn);
            }
            TraceEvent::TxnSlept { .. } => self.bump(Ctr::TxnsSlept),
            TraceEvent::TxnAwoke { .. } => self.bump(Ctr::TxnsAwoke),
            TraceEvent::LockGranted { .. } => self.bump(Ctr::LockImmediateGrants),
            TraceEvent::LockUpgrade { .. } => self.bump(Ctr::LockUpgrades),
            TraceEvent::LockWaiting { queue_depth, .. } => {
                self.bump(Ctr::LockWaits);
                self.queue_depth.record(u64::from(*queue_depth));
            }
            TraceEvent::EngineInsert { .. } => self.bump(Ctr::EngineInserts),
            TraceEvent::EngineUpdate { .. } => self.bump(Ctr::EngineUpdates),
            TraceEvent::EngineDelete { .. } => self.bump(Ctr::EngineDeletes),
            TraceEvent::EngineCommit { .. } => self.bump(Ctr::EngineCommits),
            TraceEvent::EngineAbort { .. } => self.bump(Ctr::EngineAborts),
            TraceEvent::WalFlush { bytes, .. } => {
                self.bump(Ctr::WalFlushes);
                self.add(Ctr::WalBytes, *bytes);
            }
            TraceEvent::LinkDown { .. } => self.bump(Ctr::LinkDowns),
            TraceEvent::LinkUp { .. } => self.bump(Ctr::LinkUps),
            TraceEvent::SpanOpen { txn, kind, .. } => {
                self.bump(Ctr::SpansOpened);
                self.span_open.insert((*txn, kind.phase()), at);
            }
            TraceEvent::SpanClose { txn, kind, .. } => {
                self.bump(Ctr::SpansClosed);
                if let Some(opened) = self.span_open.remove(&(*txn, kind.phase())) {
                    let width = at.since(opened).0;
                    *self.phase_time.entry(kind.phase()).or_insert(0) += width;
                    if let crate::span::SpanKind::Blocked { resource } = kind {
                        *self.blocked_by_resource.entry(*resource).or_insert(0) += width;
                    }
                }
            }
            TraceEvent::FaultInjected { .. } => self.bump(Ctr::FaultsInjected),
            TraceEvent::Recovered { .. } => self.bump(Ctr::Recoveries),
        }
    }

    /// Drops open waits of a finished transaction (a waiter can die
    /// queued; its wait never completes and must not leak).
    /// Removes the `(txn, ..)` key range — at most the one outstanding
    /// invocation §IV allows — without walking the other transactions'
    /// open waits.
    fn close_waits(&mut self, txn: TxnId) {
        let lowest = (txn, ResourceId::atomic(ObjectId(0)));
        while let Some((&key, _)) = self.wait_since.range(lowest..).next() {
            if key.0 != txn {
                break;
            }
            self.wait_since.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstm_types::{ObjectId, OpClass};

    fn res(i: u32) -> ResourceId {
        ResourceId::atomic(ObjectId(i))
    }

    #[test]
    fn wait_time_measured_from_enqueue_to_grant() {
        let mut reg = MetricsRegistry::new();
        let (t, r) = (TxnId(1), res(1));
        reg.apply(
            Timestamp(100),
            &TraceEvent::OpWaiting {
                txn: t,
                resource: r,
                class: OpClass::UpdateAddSub,
                queue_depth: 1,
            },
        );
        reg.apply(
            Timestamp(350),
            &TraceEvent::OpGranted {
                txn: t,
                resource: r,
                class: OpClass::UpdateAddSub,
                shared: false,
                bypassed_sleeper: false,
            },
        );
        assert_eq!(reg.wait_time().total(), 1);
        assert_eq!(reg.wait_time().sum(), 250);
        assert_eq!(reg.counter(Ctr::OpsWaited), 1);
        assert_eq!(reg.counter(Ctr::OpsCompleted), 1);
    }

    #[test]
    fn immediate_grant_records_no_wait() {
        let mut reg = MetricsRegistry::new();
        reg.apply(
            Timestamp(5),
            &TraceEvent::OpGranted {
                txn: TxnId(1),
                resource: res(1),
                class: OpClass::Read,
                shared: false,
                bypassed_sleeper: false,
            },
        );
        assert_eq!(reg.wait_time().total(), 0);
    }

    #[test]
    fn commit_latency_spans_begin_to_commit() {
        let mut reg = MetricsRegistry::new();
        reg.apply(Timestamp(1_000), &TraceEvent::TxnBegin { txn: TxnId(7) });
        reg.apply(Timestamp(4_000), &TraceEvent::Committed { txn: TxnId(7) });
        assert_eq!(reg.commit_latency().sum(), 3_000);
    }

    #[test]
    fn aborted_waiter_does_not_leak_an_open_wait() {
        let mut reg = MetricsRegistry::new();
        let (t, r) = (TxnId(2), res(3));
        reg.apply(
            Timestamp(10),
            &TraceEvent::OpWaiting { txn: t, resource: r, class: OpClass::Read, queue_depth: 2 },
        );
        reg.apply(
            Timestamp(20),
            &TraceEvent::Aborted {
                txn: t,
                reason: AbortReason::Deadlock,
                origin: AbortOrigin::Tick,
            },
        );
        // A later (stale) grant for the same pair must not record a wait.
        reg.apply(
            Timestamp(30),
            &TraceEvent::OpGranted {
                txn: t,
                resource: r,
                class: OpClass::Read,
                shared: false,
                bypassed_sleeper: false,
            },
        );
        assert_eq!(reg.wait_time().total(), 0);
        assert_eq!(reg.counter(Ctr::AbortedDeadlock), 1);
    }

    #[test]
    fn a_finished_transaction_closes_its_own_waits_and_nobody_elses() {
        let mut reg = MetricsRegistry::new();
        let waiting = |txn, resource| TraceEvent::OpWaiting {
            txn,
            resource,
            class: OpClass::Read,
            queue_depth: 1,
        };
        for (txn, resource) in [(1, 9), (2, 0), (2, 3), (2, u32::MAX), (3, 0)] {
            reg.apply(Timestamp(10), &waiting(TxnId(txn), res(resource)));
        }
        reg.apply(Timestamp(20), &TraceEvent::Committed { txn: TxnId(2) });
        let open: Vec<_> = reg.wait_since.keys().copied().collect();
        assert_eq!(open, [(TxnId(1), res(9)), (TxnId(3), res(0))]);
    }

    #[test]
    fn constraint_origin_splits_the_counter() {
        let mut reg = MetricsRegistry::new();
        reg.apply(
            Timestamp(1),
            &TraceEvent::Aborted {
                txn: TxnId(1),
                reason: AbortReason::Constraint,
                origin: AbortOrigin::Commit,
            },
        );
        reg.apply(
            Timestamp(2),
            &TraceEvent::Aborted {
                txn: TxnId(2),
                reason: AbortReason::Constraint,
                origin: AbortOrigin::Promotion,
            },
        );
        assert_eq!(reg.counter(Ctr::AbortedConstraint), 1);
        assert_eq!(reg.counter(Ctr::AbortedConstraintGrant), 1);
        assert_eq!(reg.counter(Ctr::Aborted), 2);
    }

    #[test]
    fn span_close_accumulates_phase_and_blocked_time() {
        use crate::span::SpanKind;
        let mut reg = MetricsRegistry::new();
        let t = TxnId(4);
        let open = |k: SpanKind| TraceEvent::SpanOpen { txn: t, kind: k, wall_us: None };
        let close = |k: SpanKind| TraceEvent::SpanClose { txn: t, kind: k, wall_us: Some(99) };
        reg.apply(Timestamp(0), &open(SpanKind::Session));
        reg.apply(Timestamp(0), &open(SpanKind::Blocked { resource: res(7) }));
        reg.apply(Timestamp(40), &close(SpanKind::Blocked { resource: res(7) }));
        reg.apply(Timestamp(40), &open(SpanKind::Work));
        reg.apply(Timestamp(55), &close(SpanKind::Work));
        reg.apply(Timestamp(55), &close(SpanKind::Session));
        assert_eq!(reg.counter(Ctr::SpansOpened), 3);
        assert_eq!(reg.counter(Ctr::SpansClosed), 3);
        assert_eq!(reg.phase_time()["blocked"], 40);
        assert_eq!(reg.phase_time()["work"], 15);
        assert_eq!(reg.phase_time()["session"], 55);
        assert_eq!(reg.blocked_by_resource()[&res(7)], 40);
    }

    #[test]
    fn merge_sums_counters_histograms_and_maps() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.apply(Timestamp(1_000), &TraceEvent::TxnBegin { txn: TxnId(1) });
        a.apply(Timestamp(4_000), &TraceEvent::Committed { txn: TxnId(1) });
        b.apply(Timestamp(2_000), &TraceEvent::TxnBegin { txn: TxnId(2) });
        b.apply(Timestamp(9_000), &TraceEvent::Committed { txn: TxnId(2) });
        b.apply(
            Timestamp(9_100),
            &TraceEvent::OpWaiting {
                txn: TxnId(3),
                resource: res(5),
                class: OpClass::Read,
                queue_depth: 1,
            },
        );
        b.apply(
            Timestamp(9_400),
            &TraceEvent::OpGranted {
                txn: TxnId(3),
                resource: res(5),
                class: OpClass::Read,
                shared: false,
                bypassed_sleeper: false,
            },
        );
        a.merge(&b);
        assert_eq!(a.counter(Ctr::Begun), 2);
        assert_eq!(a.counter(Ctr::Committed), 2);
        assert_eq!(a.commit_latency().total(), 2);
        assert_eq!(a.commit_latency().sum(), 3_000 + 7_000);
        assert_eq!(a.wait_by_resource()[&res(5)], 300);
        assert_eq!(a.last_at(), Timestamp(9_400));
        // The merge source is untouched.
        assert_eq!(b.counter(Ctr::Begun), 1);
    }

    #[test]
    fn absorbed_phases_survive_merge() {
        use crate::prof::CommitPhase;
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        let mut pa = PhaseProfile::empty();
        pa.record(CommitPhase::Reconcile, 1_000);
        pa.record(CommitPhase::WalAppend, 250);
        let mut pb = PhaseProfile::empty();
        pb.record(CommitPhase::Reconcile, 3_000);
        a.absorb_phases(&pa);
        b.absorb_phases(&pb);
        a.merge(&b);
        assert_eq!(a.commit_phases().ns(CommitPhase::Reconcile), 4_000);
        assert_eq!(a.commit_phases().ops(CommitPhase::Reconcile), 2);
        assert_eq!(a.commit_phases().ns(CommitPhase::WalAppend), 250);
        assert_eq!(a.commit_phases().hist(CommitPhase::Reconcile).total(), 2);
        // Absorbing the combined profile directly gives the same fold.
        let mut c = MetricsRegistry::new();
        let mut both = pa.clone();
        both.merge(&pb);
        c.absorb_phases(&both);
        assert_eq!(c.commit_phases(), a.commit_phases());
    }

    #[test]
    fn wal_bytes_accumulate() {
        let mut reg = MetricsRegistry::new();
        reg.apply(Timestamp(1), &TraceEvent::WalFlush { lsn: 0, bytes: 40 });
        reg.apply(Timestamp(2), &TraceEvent::WalFlush { lsn: 40, bytes: 60 });
        assert_eq!(reg.counter(Ctr::WalFlushes), 2);
        assert_eq!(reg.counter(Ctr::WalBytes), 100);
    }
}
