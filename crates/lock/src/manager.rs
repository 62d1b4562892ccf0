//! The lock manager: per-resource FIFO queues with upgrade priority,
//! deadlock detection over a rebuilt waits-for graph, and timeout scans.
//!
//! The manager is event-driven and never blocks: [`LockManager::request`]
//! answers immediately, and lock releases return the set of transactions
//! whose queued requests just became grantable so the caller (simulator or
//! transaction manager) can resume them.

use crate::graph::WaitsForGraph;
use crate::mode::LockMode;
use pstm_obs::{Ctr, Emitter, MetricsRegistry, TraceEvent, Tracer};
use pstm_types::{PstmError, PstmResult, ResourceId, Timestamp, TxnId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Outcome of a lock request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is held; the caller may proceed.
    Granted,
    /// The request was queued; the caller must suspend the transaction.
    Waiting,
}

#[derive(Clone, Copy, Debug)]
struct Request {
    txn: TxnId,
    mode: LockMode,
    since: Timestamp,
    /// An upgrade request leaves the original shared grant in place.
    is_upgrade: bool,
}

#[derive(Debug, Default)]
struct LockQueue {
    granted: Vec<(TxnId, LockMode)>,
    waiting: VecDeque<Request>,
}

impl LockQueue {
    fn granted_mode(&self, txn: TxnId) -> Option<LockMode> {
        self.granted.iter().find(|(t, _)| *t == txn).map(|(_, m)| *m)
    }

    /// Whether `req` can be granted right now.
    fn grantable(&self, req: &Request) -> bool {
        self.granted.iter().all(|(holder, mode)| {
            if req.is_upgrade && *holder == req.txn {
                true // its own shared grant does not block the upgrade
            } else {
                req.mode.compatible_with(*mode)
            }
        })
    }

    fn grant(&mut self, req: Request) {
        if req.is_upgrade {
            for entry in &mut self.granted {
                if entry.0 == req.txn {
                    entry.1 = entry.1.max(req.mode);
                    return;
                }
            }
        }
        self.granted.push((req.txn, req.mode));
    }

    /// Promotes waiters in FIFO order; returns promoted transactions.
    fn promote(&mut self) -> Vec<TxnId> {
        let mut promoted = Vec::new();
        while let Some(front) = self.waiting.front() {
            if self.grantable(front) {
                let req = self.waiting.pop_front().expect("front exists");
                promoted.push(req.txn);
                self.grant(req);
            } else {
                break;
            }
        }
        promoted
    }
}

/// Per-run lock statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Requests granted immediately.
    pub immediate_grants: u64,
    /// Requests that had to wait.
    pub waits: u64,
    /// Upgrades requested.
    pub upgrades: u64,
    /// Deadlock victims chosen.
    pub deadlock_victims: u64,
}

impl LockStats {
    /// Projects the lock counters out of an obs registry — the only way
    /// lock stats are produced, so they cannot drift from the trace.
    #[must_use]
    pub fn from_registry(reg: &MetricsRegistry) -> Self {
        LockStats {
            immediate_grants: reg.counter(Ctr::LockImmediateGrants),
            waits: reg.counter(Ctr::LockWaits),
            upgrades: reg.counter(Ctr::LockUpgrades),
            deadlock_victims: reg.counter(Ctr::DeadlockVictims),
        }
    }
}

/// The lock manager.
#[derive(Debug, Default)]
pub struct LockManager {
    queues: BTreeMap<ResourceId, LockQueue>,
    /// Resources each transaction currently holds.
    held: BTreeMap<TxnId, BTreeSet<ResourceId>>,
    /// The single resource each waiting transaction is queued on.
    waiting_on: BTreeMap<TxnId, ResourceId>,
    obs: Emitter,
}

impl LockManager {
    /// An empty manager.
    #[must_use]
    pub fn new() -> Self {
        LockManager::default()
    }

    /// Streams this table's records to `tracer` — used by an owning
    /// scheduler to share one trace with its lock table.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.obs.set_tracer(tracer);
    }

    /// The metrics this table's events produced.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        self.obs.registry()
    }

    /// Requests `mode` on `resource` for `txn` at time `now`.
    ///
    /// Rules:
    /// * a transaction may have at most one outstanding (waiting) request;
    /// * re-requesting a mode already covered by the current grant is a
    ///   no-op `Granted`;
    /// * a shared holder requesting exclusive performs an *upgrade*:
    ///   granted immediately if it is the sole holder, otherwise queued at
    ///   the front (upgrade priority);
    /// * new requests respect FIFO: they queue behind existing waiters
    ///   even when compatible with the granted set (no barging).
    pub fn request(
        &mut self,
        txn: TxnId,
        resource: ResourceId,
        mode: LockMode,
        now: Timestamp,
    ) -> PstmResult<LockOutcome> {
        if let Some(r) = self.waiting_on.get(&txn) {
            return Err(PstmError::InvalidState {
                txn,
                action: "request a second lock while waiting",
                state: if *r == resource { "waiting on the same resource" } else { "waiting" },
            });
        }
        let queue = self.queues.entry(resource).or_default();
        let exclusive = mode == LockMode::Exclusive;
        if let Some(held_mode) = queue.granted_mode(txn) {
            if held_mode == mode || held_mode == LockMode::Exclusive {
                self.obs.emit(now, TraceEvent::LockGranted { txn, resource, exclusive });
                return Ok(LockOutcome::Granted); // already covered
            }
            // Upgrade S → X.
            debug_assert!(held_mode.upgrades_to(mode));
            self.obs.emit(now, TraceEvent::LockUpgrade { txn, resource });
            let req = Request { txn, mode, since: now, is_upgrade: true };
            if queue.grantable(&req) {
                queue.grant(req);
                self.obs.emit(now, TraceEvent::LockGranted { txn, resource, exclusive });
                return Ok(LockOutcome::Granted);
            }
            queue.waiting.push_front(req);
            let queue_depth = queue.waiting.len() as u32;
            self.waiting_on.insert(txn, resource);
            self.obs.emit(now, TraceEvent::LockWaiting { txn, resource, exclusive, queue_depth });
            return Ok(LockOutcome::Waiting);
        }
        let req = Request { txn, mode, since: now, is_upgrade: false };
        if queue.waiting.is_empty() && queue.grantable(&req) {
            queue.grant(req);
            self.held.entry(txn).or_default().insert(resource);
            self.obs.emit(now, TraceEvent::LockGranted { txn, resource, exclusive });
            Ok(LockOutcome::Granted)
        } else {
            queue.waiting.push_back(req);
            let queue_depth = queue.waiting.len() as u32;
            self.waiting_on.insert(txn, resource);
            self.held.entry(txn).or_default().insert(resource); // reserved; finalized on grant
            self.obs.emit(now, TraceEvent::LockWaiting { txn, resource, exclusive, queue_depth });
            Ok(LockOutcome::Waiting)
        }
    }

    /// Releases every lock and queued request of `txn` (commit or abort —
    /// strict 2PL releases everything at once). Returns the transactions
    /// promoted from waiting to granted, in promotion order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<TxnId> {
        let resources = self.held.remove(&txn).unwrap_or_default();
        self.waiting_on.remove(&txn);
        let mut promoted = Vec::new();
        for resource in resources {
            if let Some(queue) = self.queues.get_mut(&resource) {
                queue.granted.retain(|(t, _)| *t != txn);
                queue.waiting.retain(|r| r.txn != txn);
                for p in queue.promote() {
                    self.waiting_on.remove(&p);
                    promoted.push(p);
                }
                if queue.granted.is_empty() && queue.waiting.is_empty() {
                    self.queues.remove(&resource);
                }
            }
        }
        promoted
    }

    /// The mode `txn` currently holds on `resource`, if granted.
    #[must_use]
    pub fn held_mode(&self, txn: TxnId, resource: ResourceId) -> Option<LockMode> {
        self.queues.get(&resource).and_then(|q| q.granted_mode(txn))
    }

    /// Whether `txn` is waiting (for anything), and on what.
    #[must_use]
    pub fn waiting_resource(&self, txn: TxnId) -> Option<ResourceId> {
        self.waiting_on.get(&txn).copied()
    }

    /// Current holders of `resource`.
    #[must_use]
    pub fn holders(&self, resource: ResourceId) -> Vec<(TxnId, LockMode)> {
        self.queues.get(&resource).map(|q| q.granted.clone()).unwrap_or_default()
    }

    /// Number of queued waiters on `resource`.
    #[must_use]
    pub fn waiter_count(&self, resource: ResourceId) -> usize {
        self.queues.get(&resource).map(|q| q.waiting.len()).unwrap_or(0)
    }

    /// Builds the waits-for graph from the queues: each waiter waits for
    /// every incompatible granted holder and for every earlier queued
    /// waiter it is incompatible with (FIFO means those will be granted
    /// first).
    #[must_use]
    pub fn waits_for_graph(&self) -> WaitsForGraph {
        let mut g = WaitsForGraph::new();
        for queue in self.queues.values() {
            for (i, w) in queue.waiting.iter().enumerate() {
                for (holder, mode) in &queue.granted {
                    let blocks = if w.is_upgrade && *holder == w.txn {
                        false
                    } else {
                        !w.mode.compatible_with(*mode)
                    };
                    if blocks {
                        g.add_edge(w.txn, *holder);
                    }
                }
                for earlier in queue.waiting.iter().take(i) {
                    if !w.mode.compatible_with(earlier.mode) {
                        g.add_edge(w.txn, earlier.txn);
                    }
                }
            }
        }
        g
    }

    /// Detects a deadlock; returns the chosen victim and the cycle. The
    /// caller is responsible for aborting the victim (which must include
    /// calling [`LockManager::release_all`]).
    pub fn detect_deadlock(&mut self) -> Option<(TxnId, Vec<TxnId>)> {
        let result = self.waits_for_graph().pick_victim();
        if let Some((victim, cycle)) = &result {
            self.obs.emit_unclocked([TraceEvent::DeadlockVictim {
                txn: *victim,
                cycle: cycle.clone(),
            }]);
        }
        result
    }

    /// Deadlock detection scoped to cycles reachable from `waiter` — use
    /// after queuing a single new request (a new cycle must pass through
    /// it); much cheaper than the full scan under deep queues.
    pub fn detect_deadlock_from(&mut self, waiter: TxnId) -> Option<(TxnId, Vec<TxnId>)> {
        let result = self.waits_for_graph().pick_victim_from(waiter);
        if let Some((victim, cycle)) = &result {
            self.obs.emit_unclocked([TraceEvent::DeadlockVictim {
                txn: *victim,
                cycle: cycle.clone(),
            }]);
        }
        result
    }

    /// Waiters whose request has been pending longer than `timeout`.
    #[must_use]
    pub fn timed_out_waiters(&self, now: Timestamp, timeout: pstm_types::Duration) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self
            .queues
            .values()
            .flat_map(|q| q.waiting.iter())
            .filter(|r| now.since(r.since) >= timeout)
            .map(|r| r.txn)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Snapshot of the counters, projected from the table's registry.
    #[must_use]
    pub fn stats(&self) -> LockStats {
        LockStats::from_registry(self.obs.registry())
    }

    /// The current waits-for graph rendered as Graphviz DOT.
    #[must_use]
    pub fn waits_for_dot(&self) -> String {
        pstm_obs::waits_for_dot(self.waits_for_graph().edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstm_types::{Duration, ObjectId};

    fn res(i: u32) -> ResourceId {
        ResourceId::atomic(ObjectId(i))
    }

    fn t(i: u64) -> TxnId {
        TxnId(i)
    }

    const T0: Timestamp = Timestamp(0);

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(t(1), res(1), LockMode::Shared, T0).unwrap(), LockOutcome::Granted);
        assert_eq!(lm.request(t(2), res(1), LockMode::Shared, T0).unwrap(), LockOutcome::Granted);
        assert_eq!(lm.holders(res(1)).len(), 2);
    }

    #[test]
    fn exclusive_excludes() {
        let mut lm = LockManager::new();
        lm.request(t(1), res(1), LockMode::Exclusive, T0).unwrap();
        assert_eq!(lm.request(t(2), res(1), LockMode::Shared, T0).unwrap(), LockOutcome::Waiting);
        assert_eq!(
            lm.request(t(3), res(1), LockMode::Exclusive, T0).unwrap(),
            LockOutcome::Waiting
        );
        assert_eq!(lm.waiter_count(res(1)), 2);
        assert_eq!(lm.waiting_resource(t(2)), Some(res(1)));
    }

    #[test]
    fn release_promotes_fifo() {
        let mut lm = LockManager::new();
        lm.request(t(1), res(1), LockMode::Exclusive, T0).unwrap();
        lm.request(t(2), res(1), LockMode::Shared, T0).unwrap();
        lm.request(t(3), res(1), LockMode::Shared, T0).unwrap();
        let promoted = lm.release_all(t(1));
        assert_eq!(promoted, vec![t(2), t(3)], "both compatible shareds promoted");
        assert_eq!(lm.holders(res(1)).len(), 2);
        assert!(lm.waiting_resource(t(2)).is_none());
    }

    #[test]
    fn no_barging_past_waiters() {
        let mut lm = LockManager::new();
        lm.request(t(1), res(1), LockMode::Shared, T0).unwrap();
        lm.request(t(2), res(1), LockMode::Exclusive, T0).unwrap(); // waits
                                                                    // t3's shared is compatible with t1's grant but must queue behind
                                                                    // t2 to avoid starving the exclusive request.
        assert_eq!(lm.request(t(3), res(1), LockMode::Shared, T0).unwrap(), LockOutcome::Waiting);
        let promoted = lm.release_all(t(1));
        assert_eq!(promoted, vec![t(2)], "exclusive goes first");
        let promoted = lm.release_all(t(2));
        assert_eq!(promoted, vec![t(3)]);
    }

    #[test]
    fn re_request_held_mode_is_noop() {
        let mut lm = LockManager::new();
        lm.request(t(1), res(1), LockMode::Exclusive, T0).unwrap();
        assert_eq!(lm.request(t(1), res(1), LockMode::Shared, T0).unwrap(), LockOutcome::Granted);
        assert_eq!(
            lm.request(t(1), res(1), LockMode::Exclusive, T0).unwrap(),
            LockOutcome::Granted
        );
        assert_eq!(lm.holders(res(1)).len(), 1);
    }

    #[test]
    fn sole_holder_upgrades_immediately() {
        let mut lm = LockManager::new();
        lm.request(t(1), res(1), LockMode::Shared, T0).unwrap();
        assert_eq!(
            lm.request(t(1), res(1), LockMode::Exclusive, T0).unwrap(),
            LockOutcome::Granted
        );
        assert_eq!(lm.held_mode(t(1), res(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn contended_upgrade_waits_with_priority() {
        let mut lm = LockManager::new();
        lm.request(t(1), res(1), LockMode::Shared, T0).unwrap();
        lm.request(t(2), res(1), LockMode::Shared, T0).unwrap();
        lm.request(t(3), res(1), LockMode::Exclusive, T0).unwrap(); // queued
                                                                    // t1 upgrades: goes to the FRONT, ahead of t3.
        assert_eq!(
            lm.request(t(1), res(1), LockMode::Exclusive, T0).unwrap(),
            LockOutcome::Waiting
        );
        let promoted = lm.release_all(t(2));
        assert_eq!(promoted, vec![t(1)], "upgrade wins over queued exclusive");
        assert_eq!(lm.held_mode(t(1), res(1)), Some(LockMode::Exclusive));
        let promoted = lm.release_all(t(1));
        assert_eq!(promoted, vec![t(3)]);
    }

    #[test]
    fn upgrade_deadlock_detected_and_victim_is_youngest() {
        let mut lm = LockManager::new();
        // The paper's §II scenario: both read, both try to write.
        lm.request(t(1), res(1), LockMode::Shared, T0).unwrap();
        lm.request(t(2), res(1), LockMode::Shared, T0).unwrap();
        assert_eq!(
            lm.request(t(1), res(1), LockMode::Exclusive, T0).unwrap(),
            LockOutcome::Waiting
        );
        assert_eq!(
            lm.request(t(2), res(1), LockMode::Exclusive, T0).unwrap(),
            LockOutcome::Waiting
        );
        let (victim, cycle) = lm.detect_deadlock().expect("upgrade deadlock");
        assert_eq!(victim, t(2));
        assert_eq!(cycle.len(), 2);
        // Aborting the victim unblocks the other.
        let promoted = lm.release_all(t(2));
        assert_eq!(promoted, vec![t(1)]);
        assert_eq!(lm.held_mode(t(1), res(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn cross_resource_deadlock() {
        let mut lm = LockManager::new();
        lm.request(t(1), res(1), LockMode::Exclusive, T0).unwrap();
        lm.request(t(2), res(2), LockMode::Exclusive, T0).unwrap();
        lm.request(t(1), res(2), LockMode::Exclusive, T0).unwrap(); // waits on t2
        lm.request(t(2), res(1), LockMode::Exclusive, T0).unwrap(); // waits on t1
        let (victim, cycle) = lm.detect_deadlock().unwrap();
        assert_eq!(victim, t(2));
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn no_false_deadlocks() {
        let mut lm = LockManager::new();
        lm.request(t(1), res(1), LockMode::Exclusive, T0).unwrap();
        lm.request(t(2), res(1), LockMode::Exclusive, T0).unwrap();
        lm.request(t(3), res(2), LockMode::Shared, T0).unwrap();
        assert!(lm.detect_deadlock().is_none());
    }

    #[test]
    fn second_request_while_waiting_is_an_error() {
        let mut lm = LockManager::new();
        lm.request(t(1), res(1), LockMode::Exclusive, T0).unwrap();
        lm.request(t(2), res(1), LockMode::Exclusive, T0).unwrap();
        assert!(matches!(
            lm.request(t(2), res(2), LockMode::Shared, T0).unwrap_err(),
            PstmError::InvalidState { .. }
        ));
    }

    #[test]
    fn timeout_scan_finds_old_waiters() {
        let mut lm = LockManager::new();
        lm.request(t(1), res(1), LockMode::Exclusive, Timestamp(0)).unwrap();
        lm.request(t(2), res(1), LockMode::Exclusive, Timestamp::from_millis(10)).unwrap();
        lm.request(t(3), res(1), LockMode::Exclusive, Timestamp::from_millis(500)).unwrap();
        let timed_out =
            lm.timed_out_waiters(Timestamp::from_millis(600), Duration::from_millis(200));
        assert_eq!(timed_out, vec![t(2)]);
    }

    #[test]
    fn release_of_waiter_removes_queue_entry() {
        let mut lm = LockManager::new();
        lm.request(t(1), res(1), LockMode::Exclusive, T0).unwrap();
        lm.request(t(2), res(1), LockMode::Exclusive, T0).unwrap();
        lm.release_all(t(2)); // waiter gives up
        assert_eq!(lm.waiter_count(res(1)), 0);
        let promoted = lm.release_all(t(1));
        assert!(promoted.is_empty());
        assert!(lm.holders(res(1)).is_empty());
    }

    #[test]
    fn stats_track_activity() {
        let mut lm = LockManager::new();
        lm.request(t(1), res(1), LockMode::Shared, T0).unwrap();
        lm.request(t(2), res(1), LockMode::Shared, T0).unwrap();
        lm.request(t(1), res(1), LockMode::Exclusive, T0).unwrap(); // upgrade, waits
        let s = lm.stats();
        assert_eq!(s.immediate_grants, 2);
        assert_eq!(s.waits, 1);
        assert_eq!(s.upgrades, 1);
    }
}
