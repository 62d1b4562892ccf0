//! The simulation driver: feeds client scripts through a backend on the
//! virtual clock and collects the metrics the paper reports.

use crate::backend::{AwakeOutcome, Backend, CommitOutcome};
use crate::events::EventQueue;
use crate::script::{Step, TxnScript};
use pstm_obs::{MetricsRegistry, TraceEvent};
use pstm_types::{AbortReason, Duration, ExecOutcome, PstmResult, StepEffects, Timestamp, TxnId};
use serde::Serialize;
use std::collections::BTreeMap;

/// Runner tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RunnerConfig {
    /// Service time charged per completed operation (models middleware +
    /// DB processing; the paper's think times dominate).
    pub op_service: Duration,
    /// Interval between maintenance ticks (timeout scans, deadlock
    /// detection).
    pub tick_interval: Duration,
    /// Hard stop: transactions unfinished at this virtual time are
    /// force-aborted and reported as unfinished.
    pub max_sim_time: Timestamp,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            op_service: Duration::from_millis(1),
            tick_interval: Duration::from_millis(250),
            max_sim_time: Timestamp::from_secs_f64(100_000.0),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ClientStatus {
    Pending,
    Running,
    Waiting,
    Sleeping,
    Finished,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
enum Outcome {
    Committed,
    Aborted(AbortReason),
}

struct Client {
    script: TxnScript,
    pc: usize,
    status: ClientStatus,
    finished_at: Option<Timestamp>,
    outcome: Option<Outcome>,
    /// Whether the client actually began a disconnection (reached a
    /// `Disconnect` step) — the honest denominator for the
    /// abort-%-of-disconnected metric; a transaction killed before it
    /// ever slept says nothing about disconnection handling.
    ever_slept: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SimEvent {
    Arrive(TxnId),
    NextStep(TxnId),
    Reconnect(TxnId),
    Tick,
}

/// Per-transaction outcome detail.
#[derive(Clone, Debug, Serialize)]
pub struct TxnResult {
    /// Transaction id (the arrival label).
    pub txn: u64,
    /// `"committed"`, an abort reason, or `"unfinished"`.
    pub outcome: String,
    /// Arrival → terminal-state latency in seconds (0 for unfinished).
    pub latency_s: f64,
    /// Whether the script disconnects.
    pub disconnects: bool,
}

/// Aggregate metrics of one simulation run.
#[derive(Clone, Debug, Serialize)]
pub struct RunReport {
    /// Scheduler name.
    pub backend: String,
    /// Total transactions driven.
    pub total: usize,
    /// Commits.
    pub committed: usize,
    /// Aborts (any reason).
    pub aborted: usize,
    /// Transactions still unfinished at the simulation horizon.
    pub unfinished: usize,
    /// Abort counts by reason.
    pub aborts_by_reason: BTreeMap<String, usize>,
    /// Mean execution time (arrival → commit) of committed transactions,
    /// in seconds — the paper's Fig. 3 left axis.
    pub mean_exec_committed_s: f64,
    /// Mean time to any terminal state, in seconds.
    pub mean_exec_all_s: f64,
    /// Abort percentage over all transactions — Fig. 3 right axis.
    pub abort_pct: f64,
    /// Number of transactions that actually began a disconnection
    /// (reached a `Disconnect` step; scripts that were aborted earlier
    /// do not count — they say nothing about disconnection handling).
    pub disconnected_total: usize,
    /// How many of those aborted.
    pub disconnected_aborted: usize,
    /// Abort percentage among disconnecting transactions — Fig. 2's
    /// emulated counterpart.
    pub abort_pct_disconnected: f64,
    /// Virtual time when the last transaction finished.
    pub makespan_s: f64,
    /// Per-transaction detail, in transaction-id order.
    pub per_txn: Vec<TxnResult>,
    /// The metrics the backend's events produced ([`Backend::metrics`]) —
    /// what a replay of the run's trace must equal. Not serialized.
    #[serde(skip)]
    pub metrics: MetricsRegistry,
}

impl RunReport {
    /// Mean latency of the committed transactions among `ids`.
    #[must_use]
    pub fn mean_latency_of(&self, ids: &[u64]) -> f64 {
        let picked: Vec<&TxnResult> = self
            .per_txn
            .iter()
            .filter(|t| ids.contains(&t.txn) && t.outcome == "committed")
            .collect();
        if picked.is_empty() {
            return 0.0;
        }
        picked.iter().map(|t| t.latency_s).sum::<f64>() / picked.len() as f64
    }
}

/// Drives a set of scripts through a backend.
pub struct Runner<B: Backend> {
    backend: B,
    clients: BTreeMap<TxnId, Client>,
    queue: EventQueue<SimEvent>,
    config: RunnerConfig,
    unfinished: usize,
    now: Timestamp,
}

impl<B: Backend> Runner<B> {
    /// Builds a runner over `backend` for the given scripts.
    #[must_use]
    pub fn new(backend: B, scripts: Vec<TxnScript>, config: RunnerConfig) -> Self {
        let mut queue = EventQueue::new();
        let mut clients = BTreeMap::new();
        for script in scripts {
            queue.push(script.arrival, SimEvent::Arrive(script.txn));
            clients.insert(
                script.txn,
                Client {
                    script,
                    pc: 0,
                    status: ClientStatus::Pending,
                    finished_at: None,
                    outcome: None,
                    ever_slept: false,
                },
            );
        }
        let unfinished = clients.len();
        queue.push(Timestamp::ZERO, SimEvent::Tick);
        Runner { backend, clients, queue, config, unfinished, now: Timestamp::ZERO }
    }

    /// Runs to completion and produces the report.
    pub fn run(self) -> PstmResult<RunReport> {
        self.run_with_backend().map(|(r, _)| r)
    }

    /// Runs to completion, returning both the report and the backend
    /// (whose scheduler statistics callers may want to inspect).
    pub fn run_with_backend(mut self) -> PstmResult<(RunReport, B)> {
        while let Some((at, event)) = self.queue.pop() {
            self.now = at;
            if at > self.config.max_sim_time {
                break;
            }
            match event {
                SimEvent::Arrive(txn) => self.on_arrive(txn)?,
                SimEvent::NextStep(txn) => self.on_next_step(txn)?,
                SimEvent::Reconnect(txn) => self.on_reconnect(txn)?,
                SimEvent::Tick => {
                    let fx = self.backend.tick(at)?;
                    self.apply_effects(fx);
                    if self.unfinished > 0 && at < self.config.max_sim_time {
                        self.queue.push(at + self.config.tick_interval, SimEvent::Tick);
                    }
                }
            }
            if self.unfinished == 0 {
                break;
            }
        }
        // Horizon reached with work still in flight: force-abort the
        // stragglers in the backend so no uncommitted state survives the
        // run (they stay "unfinished" in the report — the horizon cut
        // them off; it was not a scheduling abort).
        if self.unfinished > 0 {
            let stragglers: Vec<TxnId> = self
                .clients
                .iter()
                .filter(|(_, c)| c.status != ClientStatus::Finished)
                .map(|(t, _)| *t)
                .collect();
            for txn in stragglers {
                // Pending arrivals never began; everything else aborts.
                if self.clients[&txn].status != ClientStatus::Pending {
                    let _ = self.backend.abort(txn, self.now);
                }
            }
        }
        let report = self.report();
        Ok((report, self.backend))
    }

    fn finish(&mut self, txn: TxnId, outcome: Outcome) {
        self.finish_at(txn, outcome, self.now);
    }

    /// Like [`Runner::finish`] but at an explicit instant — commits whose
    /// SST retried finish *after* the event that triggered them, since the
    /// backend charged the retry back-off to the committer.
    fn finish_at(&mut self, txn: TxnId, outcome: Outcome, at: Timestamp) {
        let Some(c) = self.clients.get_mut(&txn) else { return };
        if c.status == ClientStatus::Finished {
            return;
        }
        c.status = ClientStatus::Finished;
        c.finished_at = Some(at);
        c.outcome = Some(outcome);
        self.unfinished -= 1;
    }

    fn apply_effects(&mut self, fx: StepEffects) {
        let now = self.now;
        for (txn, _value) in fx.resumed {
            if let Some(c) = self.clients.get_mut(&txn) {
                match c.status {
                    ClientStatus::Waiting => {
                        c.status = ClientStatus::Running;
                        self.queue.push(now + self.config.op_service, SimEvent::NextStep(txn));
                    }
                    // A sleeping client's op completed server-side; the
                    // client learns at reconnect.
                    ClientStatus::Sleeping => {}
                    _ => {}
                }
            }
        }
        for (txn, reason) in fx.aborted {
            self.finish(txn, Outcome::Aborted(reason));
        }
    }

    fn on_arrive(&mut self, txn: TxnId) -> PstmResult<()> {
        let now = self.now;
        self.backend.begin(txn, now)?;
        let c = self.clients.get_mut(&txn).expect("arriving txn exists");
        c.status = ClientStatus::Running;
        self.queue.push(now, SimEvent::NextStep(txn));
        Ok(())
    }

    fn on_next_step(&mut self, txn: TxnId) -> PstmResult<()> {
        let now = self.now;
        let Some(c) = self.clients.get_mut(&txn) else { return Ok(()) };
        if c.status != ClientStatus::Running {
            return Ok(()); // stale event (client died or slept meanwhile)
        }
        let step = c.script.steps.get(c.pc).cloned();
        let Some(step) = step else {
            // Scripts end with Commit/Abort, so this is unreachable, but
            // degrade gracefully.
            return Ok(());
        };
        c.pc += 1;
        match step {
            Step::Think(d) => {
                self.queue.push(now + d, SimEvent::NextStep(txn));
            }
            Step::Op(resource, op) => {
                let (outcome, fx) = self.backend.execute(txn, resource, op, now)?;
                self.apply_effects(fx);
                match outcome {
                    ExecOutcome::Completed(_) => {
                        self.queue.push(now + self.config.op_service, SimEvent::NextStep(txn));
                    }
                    ExecOutcome::Waiting => {
                        let c = self.clients.get_mut(&txn).expect("client exists");
                        if c.status == ClientStatus::Running {
                            c.status = ClientStatus::Waiting;
                        }
                    }
                    ExecOutcome::Aborted(reason) => {
                        self.finish(txn, Outcome::Aborted(reason));
                    }
                }
            }
            Step::Disconnect(d) => {
                self.backend.emit(now, TraceEvent::LinkDown { txn });
                let fx = self.backend.sleep(txn, now)?;
                self.apply_effects(fx);
                let c = self.clients.get_mut(&txn).expect("client exists");
                c.ever_slept = true;
                if c.status == ClientStatus::Running {
                    c.status = ClientStatus::Sleeping;
                    self.queue.push(now + d, SimEvent::Reconnect(txn));
                }
            }
            Step::Commit => {
                let (outcome, fx) = self.backend.commit(txn, now)?;
                // SST retries are charged to the committer: its terminal
                // instant moves past `now` by the back-off the backend
                // reported.
                let done_at = now + fx.sst_busy;
                self.apply_effects(fx);
                match outcome {
                    CommitOutcome::Committed => self.finish_at(txn, Outcome::Committed, done_at),
                    CommitOutcome::Aborted(reason) => {
                        self.finish_at(txn, Outcome::Aborted(reason), done_at);
                    }
                }
            }
            Step::Abort => {
                let fx = self.backend.abort(txn, now)?;
                self.apply_effects(fx);
                self.finish(txn, Outcome::Aborted(AbortReason::User));
            }
        }
        Ok(())
    }

    fn on_reconnect(&mut self, txn: TxnId) -> PstmResult<()> {
        let now = self.now;
        let Some(c) = self.clients.get_mut(&txn) else { return Ok(()) };
        if c.status != ClientStatus::Sleeping {
            return Ok(()); // aborted while asleep
        }
        self.backend.emit(now, TraceEvent::LinkUp { txn });
        let (outcome, fx) = self.backend.awake(txn, now)?;
        self.apply_effects(fx);
        match outcome {
            AwakeOutcome::Resumed => {
                let c = self.clients.get_mut(&txn).expect("client exists");
                c.status = ClientStatus::Running;
                self.queue.push(now, SimEvent::NextStep(txn));
            }
            AwakeOutcome::Aborted(reason) => {
                self.finish(txn, Outcome::Aborted(reason));
            }
        }
        Ok(())
    }

    fn report(&self) -> RunReport {
        let total = self.clients.len();
        let mut committed = 0usize;
        let mut aborted = 0usize;
        let mut unfinished = 0usize;
        let mut aborts_by_reason: BTreeMap<String, usize> = BTreeMap::new();
        let mut exec_committed = 0.0f64;
        let mut exec_all = 0.0f64;
        let mut finished_count = 0usize;
        let mut disconnected_total = 0usize;
        let mut disconnected_aborted = 0usize;
        let mut makespan = 0.0f64;
        let mut per_txn = Vec::with_capacity(total);
        for c in self.clients.values() {
            if c.ever_slept {
                disconnected_total += 1;
            }
            let latency =
                c.finished_at.map(|f| f.since(c.script.arrival).as_secs_f64()).unwrap_or(0.0);
            let outcome_str = match c.outcome {
                Some(Outcome::Committed) => "committed".to_owned(),
                Some(Outcome::Aborted(r)) => r.to_string(),
                None => "unfinished".to_owned(),
            };
            per_txn.push(TxnResult {
                txn: c.script.txn.0,
                outcome: outcome_str,
                latency_s: latency,
                disconnects: c.script.disconnects,
            });
            match c.outcome {
                Some(Outcome::Committed) => {
                    committed += 1;
                    let dt = c.finished_at.expect("finished").since(c.script.arrival);
                    exec_committed += dt.as_secs_f64();
                    exec_all += dt.as_secs_f64();
                    finished_count += 1;
                    makespan = makespan.max(c.finished_at.unwrap().as_secs_f64());
                }
                Some(Outcome::Aborted(reason)) => {
                    aborted += 1;
                    *aborts_by_reason.entry(reason.to_string()).or_default() += 1;
                    if c.ever_slept {
                        disconnected_aborted += 1;
                    }
                    let dt = c.finished_at.expect("finished").since(c.script.arrival);
                    exec_all += dt.as_secs_f64();
                    finished_count += 1;
                    makespan = makespan.max(c.finished_at.unwrap().as_secs_f64());
                }
                None => unfinished += 1,
            }
        }
        RunReport {
            backend: self.backend.name().to_owned(),
            total,
            committed,
            aborted,
            unfinished,
            aborts_by_reason,
            mean_exec_committed_s: if committed > 0 {
                exec_committed / committed as f64
            } else {
                0.0
            },
            mean_exec_all_s: if finished_count > 0 {
                exec_all / finished_count as f64
            } else {
                0.0
            },
            abort_pct: if total > 0 { 100.0 * aborted as f64 / total as f64 } else { 0.0 },
            disconnected_total,
            disconnected_aborted,
            abort_pct_disconnected: if disconnected_total > 0 {
                100.0 * disconnected_aborted as f64 / disconnected_total as f64
            } else {
                0.0
            },
            makespan_s: makespan,
            per_txn,
            metrics: self.backend.metrics(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{GtmBackend, TwoPlBackend};
    use pstm_core::gtm::{Gtm, GtmConfig};
    use pstm_storage::{BindingRegistry, ColumnDef, Constraint, Database, Row, TableSchema};
    use pstm_twopl::{TwoPlConfig, TwoPlManager};
    use pstm_types::{
        FaultDecision, FaultHook, FaultSite, MemberId, ResourceId, ScalarOp, Value, ValueKind,
    };
    use std::sync::atomic::{AtomicU32, Ordering::SeqCst};
    use std::sync::Arc;

    fn build_world(objects: usize) -> (Arc<Database>, BindingRegistry, Vec<ResourceId>) {
        let db = Arc::new(Database::new());
        let schema = TableSchema::new(
            "Obj",
            vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("v", ValueKind::Int)],
        )
        .unwrap();
        let table = db.create_table(schema, vec![Constraint::non_negative("v>=0", 1)]).unwrap();
        let boot = TxnId(1 << 40);
        db.begin(boot).unwrap();
        let mut bindings = BindingRegistry::new();
        let mut rs = Vec::new();
        for i in 0..objects {
            let row = db
                .insert(boot, table, Row::new(vec![Value::Int(i as i64), Value::Int(1000)]))
                .unwrap();
            let o = bindings.bind_object(table, row, &[(MemberId::ATOMIC, 1)]).unwrap();
            rs.push(ResourceId::atomic(o));
        }
        db.commit(boot).unwrap();
        (db, bindings, rs)
    }

    fn secs(s: f64) -> Duration {
        Duration::from_secs_f64(s)
    }

    fn sub_script(txn: u64, arrival_s: f64, r: ResourceId, disconnect: Option<f64>) -> TxnScript {
        let mut steps = vec![Step::Think(secs(0.2)), Step::Op(r, ScalarOp::Sub(Value::Int(1)))];
        if let Some(d) = disconnect {
            steps.push(Step::Disconnect(secs(d)));
        }
        steps.push(Step::Think(secs(0.2)));
        steps.push(Step::Commit);
        TxnScript::new(TxnId(txn), Timestamp::from_secs_f64(arrival_s), steps)
    }

    #[test]
    fn gtm_commits_concurrent_subtractors() {
        let (db, bindings, rs) = build_world(1);
        let gtm = Gtm::new(db.clone(), bindings, GtmConfig::default());
        let scripts: Vec<TxnScript> =
            (1..=20).map(|i| sub_script(i, 0.1 * i as f64, rs[0], None)).collect();
        let report = Runner::new(GtmBackend(gtm), scripts, RunnerConfig::default()).run().unwrap();
        assert_eq!(report.committed, 20);
        assert_eq!(report.aborted, 0);
        assert_eq!(report.unfinished, 0);
        assert!(report.mean_exec_committed_s > 0.3);
    }

    /// Fails the first `n` arrivals at sites of `kind` with a transient
    /// I/O, then proceeds.
    struct IoOnFirst(&'static str, AtomicU32);

    impl IoOnFirst {
        fn hook(kind: &'static str, n: u32) -> Arc<Self> {
            Arc::new(IoOnFirst(kind, AtomicU32::new(n)))
        }
    }

    impl FaultHook for IoOnFirst {
        fn decide(&self, site: FaultSite) -> FaultDecision {
            let take_one = |left: u32| left.checked_sub(1);
            if site.kind() == self.0 && self.1.fetch_update(SeqCst, SeqCst, take_one).is_ok() {
                FaultDecision::Io
            } else {
                FaultDecision::Proceed
            }
        }
    }

    #[test]
    fn injected_reconcile_faults_abort_cleanly_and_the_run_completes() {
        // Transient I/O at the first 3 arrivals of the reconcile seam:
        // those commits abort as SstFailure; everything else commits.
        let (db, bindings, rs) = build_world(1);
        db.set_fault_hook(IoOnFirst::hook("reconcile", 3));
        let backend = GtmBackend(Gtm::new(db, bindings, GtmConfig::default()));
        let scripts: Vec<TxnScript> =
            (1..=10).map(|i| sub_script(i, 0.1 * i as f64, rs[0], None)).collect();
        let report = Runner::new(backend, scripts, RunnerConfig::default()).run().unwrap();
        assert_eq!(report.aborted, 3, "each injected fault costs exactly one session");
        assert_eq!(report.committed, 7);
        assert_eq!(report.unfinished, 0, "injected faults never wedge the run");
    }

    #[test]
    fn twopl_serializes_the_same_workload_slower() {
        let (db, bindings, rs) = build_world(1);
        let scripts: Vec<TxnScript> =
            (1..=20).map(|i| sub_script(i, 0.1 * i as f64, rs[0], None)).collect();

        let gtm = Gtm::new(db.clone(), bindings.clone(), GtmConfig::default());
        let g =
            Runner::new(GtmBackend(gtm), scripts.clone(), RunnerConfig::default()).run().unwrap();

        let (db2, bindings2, rs2) = build_world(1);
        let remap: Vec<TxnScript> = scripts
            .iter()
            .map(|s| {
                let steps = s
                    .steps
                    .iter()
                    .map(|st| match st {
                        Step::Op(_, op) => Step::Op(rs2[0], op.clone()),
                        other => other.clone(),
                    })
                    .collect();
                TxnScript::new(s.txn, s.arrival, steps)
            })
            .collect();
        let tp = TwoPlManager::new(db2, bindings2, TwoPlConfig::default());
        let t = Runner::new(TwoPlBackend(tp), remap, RunnerConfig::default()).run().unwrap();

        assert_eq!(t.committed, 20, "2PL also commits all (no disconnections)");
        assert!(
            g.mean_exec_committed_s < t.mean_exec_committed_s,
            "semantic sharing must beat serialization: gtm={} 2pl={}",
            g.mean_exec_committed_s,
            t.mean_exec_committed_s
        );
    }

    #[test]
    fn disconnections_abort_under_twopl_timeout_but_not_under_gtm() {
        // One long sleeper + a stream of compatible subtractors.
        let (db, bindings, rs) = build_world(1);
        let mut scripts = vec![sub_script(1, 0.0, rs[0], Some(30.0))];
        for i in 2..=10 {
            scripts.push(sub_script(i, 0.2 * i as f64, rs[0], None));
        }

        let gtm = Gtm::new(db, bindings, GtmConfig::default());
        let g =
            Runner::new(GtmBackend(gtm), scripts.clone(), RunnerConfig::default()).run().unwrap();
        assert_eq!(g.committed, 10, "compatible sleeper survives under the GTM");
        assert_eq!(g.abort_pct_disconnected, 0.0);

        let (db2, bindings2, rs2) = build_world(1);
        let remap: Vec<TxnScript> = scripts
            .iter()
            .map(|s| {
                let steps = s
                    .steps
                    .iter()
                    .map(|st| match st {
                        Step::Op(_, op) => Step::Op(rs2[0], op.clone()),
                        other => other.clone(),
                    })
                    .collect();
                TxnScript::new(s.txn, s.arrival, steps)
            })
            .collect();
        let config = TwoPlConfig {
            sleep_timeout: Some(Duration::from_secs_f64(10.0)),
            ..TwoPlConfig::default()
        };
        let tp = TwoPlManager::new(db2, bindings2, config);
        let t = Runner::new(TwoPlBackend(tp), remap, RunnerConfig::default()).run().unwrap();
        assert_eq!(t.disconnected_total, 1);
        assert_eq!(t.disconnected_aborted, 1, "2PL kills the sleeper at its timeout");
        assert_eq!(t.aborts_by_reason.get("sleep-timeout"), Some(&1));
        assert_eq!(t.committed, 9);
    }

    #[test]
    fn user_abort_scripts_count_as_user_aborts() {
        let (db, bindings, rs) = build_world(1);
        let script = TxnScript::new(
            TxnId(1),
            Timestamp::ZERO,
            vec![Step::Op(rs[0], ScalarOp::Read), Step::Abort],
        );
        let gtm = Gtm::new(db, bindings, GtmConfig::default());
        let report =
            Runner::new(GtmBackend(gtm), vec![script], RunnerConfig::default()).run().unwrap();
        assert_eq!(report.aborted, 1);
        assert_eq!(report.aborts_by_reason.get("user"), Some(&1));
    }

    #[test]
    fn sst_retries_charge_virtual_time_to_the_committer() {
        // Regression: the retry loop used to re-execute the SST at the
        // same `now`, so an I/O-faulted run reported the same latency as
        // a clean one. With a configured back-off, each retry must push
        // the committer's terminal instant out by the delay.
        let run = |faults: u32| {
            let (db, bindings, rs) = build_world(1);
            db.set_fault_hook(IoOnFirst::hook("sst-apply", faults));
            let config = GtmConfig {
                sst_retries: 3,
                sst_retry_delay: Duration::from_secs_f64(1.0),
                ..GtmConfig::default()
            };
            let gtm = Gtm::new(db, bindings, config);
            let scripts = vec![sub_script(1, 0.0, rs[0], None)];
            Runner::new(GtmBackend(gtm), scripts, RunnerConfig::default()).run().unwrap()
        };
        let clean = run(0);
        let faulted = run(2);
        assert_eq!(clean.committed, 1);
        assert_eq!(faulted.committed, 1);
        let charged = faulted.mean_exec_committed_s - clean.mean_exec_committed_s;
        assert!(
            (charged - 2.0).abs() < 1e-6,
            "two retries at 1s back-off must cost 2s of latency, got {charged}"
        );
    }

    #[test]
    fn report_serializes_to_json() {
        let (db, bindings, rs) = build_world(1);
        let gtm = Gtm::new(db, bindings, GtmConfig::default());
        let scripts = vec![sub_script(1, 0.0, rs[0], None)];
        let report = Runner::new(GtmBackend(gtm), scripts, RunnerConfig::default()).run().unwrap();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"backend\":\"gtm\""));
    }

    #[test]
    fn deterministic_replay() {
        let build = || {
            let (db, bindings, rs) = build_world(2);
            let gtm = Gtm::new(db, bindings, GtmConfig::default());
            let scripts: Vec<TxnScript> = (1..=30)
                .map(|i| {
                    sub_script(
                        i,
                        0.05 * i as f64,
                        rs[(i % 2) as usize],
                        if i % 5 == 0 { Some(3.0) } else { None },
                    )
                })
                .collect();
            Runner::new(GtmBackend(gtm), scripts, RunnerConfig::default()).run().unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }
}
