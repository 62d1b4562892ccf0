//! Commit-path coverage: the eq. 2 exactness regression, the per-(shard,
//! txn) primitives and the one coordinator that drives them
//! (`commit_wave`: fusion, the disjointness cut, per-member unwind, retry
//! accounting, a reader settled without a flush, and a wave-shape ×
//! flush-outcome table), and failure-path bookkeeping (mid-loop
//! reconciliation errors, admission headroom after SST aborts).

use pstm_core::commit::{commit_wave, Member, Owned};
use pstm_core::gtm::{CommitResult, Gtm, GtmConfig, LocalCommit};
use pstm_core::policy::AdmissionPolicy;
use pstm_core::sst::Sst;
use pstm_core::TxnState;
use pstm_obs::{RingSink, TraceEvent, TraceRecord, Tracer};
use pstm_storage::{BindingRegistry, ColumnDef, Constraint, Database, Row, TableSchema};
use pstm_types::{
    AbortReason, ExecOutcome, MemberId, PstmError, ResourceId, ScalarOp, StepEffects, Timestamp,
    TxnId, Value, ValueKind,
};
use std::sync::Arc;

fn t(i: u64) -> TxnId {
    TxnId(i)
}

fn ts(secs: f64) -> Timestamp {
    Timestamp::from_secs_f64(secs)
}

const T0: Timestamp = Timestamp(0);

/// `n` atomic Int counters with the given initial value and a `>= 0`
/// CHECK — the booking-counter shape of the paper's evaluation.
fn setup(n: usize, initial: i64, config: GtmConfig) -> (Gtm, Vec<ResourceId>) {
    let db = Arc::new(Database::new());
    let schema = TableSchema::new(
        "Counter",
        vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("value", ValueKind::Int)],
    )
    .unwrap();
    let table = db.create_table(schema, vec![Constraint::non_negative("value >= 0", 1)]).unwrap();
    let boot = TxnId(1 << 40);
    db.begin(boot).unwrap();
    let mut bindings = BindingRegistry::new();
    let mut resources = Vec::new();
    for i in 0..n {
        let row = db
            .insert(boot, table, Row::new(vec![Value::Int(i as i64), Value::Int(initial)]))
            .unwrap();
        let obj = bindings.bind_object(table, row, &[(MemberId::ATOMIC, 1)]).unwrap();
        resources.push(ResourceId::atomic(obj));
    }
    db.commit(boot).unwrap();
    (Gtm::new(db, bindings, config), resources)
}

fn value_of(gtm: &Gtm, r: ResourceId) -> Value {
    let b = gtm.bindings().resolve(r).unwrap();
    gtm.database().get_col(b.table, b.row, b.column).unwrap()
}

/// Commits `txns` as one wave on one owned manager, resubmitting the
/// members the cut deferred until none are left — what the front-end's
/// fence holder does. Returns every member's fate plus the merged effects.
fn commit_grouped(
    gtm: &mut Gtm,
    txns: &[TxnId],
    now: Timestamp,
) -> (Vec<(TxnId, CommitResult)>, StepEffects) {
    let mut env = Owned::new(std::slice::from_mut(gtm), now);
    let mut fates = Vec::new();
    let mut remaining = txns.to_vec();
    while !remaining.is_empty() {
        let wave: Vec<Member<'_>> =
            remaining.iter().map(|&txn| Member { txn, home: 0, shards: &[0] }).collect();
        remaining = commit_wave(&mut env, &wave, &mut |txn, fate| fates.push((txn, fate))).unwrap();
    }
    (fates, env.into_effects())
}

#[test]
fn eq2_with_inexact_ratio_commits_exactly_into_int_column() {
    // Regression (eq. 2 type drift): A halves X while a compatible ×3
    // committed in between. The intermediate ratio 50/100 is inexact, so
    // the old ratio-first evaluation produced Float(150.0) — which the
    // Int column rejected at SST time, turning a perfectly consistent
    // commit into a spurious failure. Eq. 2 evaluated in the rational
    // domain yields Int(150) and the commit succeeds.
    let (mut gtm, res) = setup(1, 100, GtmConfig::default());
    let x = res[0];

    gtm.begin(t(1), T0).unwrap(); // A: ÷2
    gtm.begin(t(2), T0).unwrap(); // B: ×3
    let (o, _) = gtm.execute(t(1), x, ScalarOp::Div(Value::Int(2)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Completed(Value::Int(50)));
    let (o, _) = gtm.execute(t(2), x, ScalarOp::Mul(Value::Int(3)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Completed(Value::Int(300)), "mul/div shares the member");

    let (r, _) = gtm.commit(t(2), ts(1.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);
    assert_eq!(value_of(&gtm, x), Value::Int(300));

    // A's reconciliation: 50 · 300 / 100 = 150, exactly.
    let (r, _) = gtm.commit(t(1), ts(2.0)).unwrap();
    assert_eq!(r, CommitResult::Committed, "inexact ratio must not poison an exact result");
    assert_eq!(value_of(&gtm, x), Value::Int(150));
    gtm.verify_serializable().unwrap();
    gtm.check_invariants().unwrap();
}

#[test]
fn truly_inexact_eq2_result_aborts_as_constraint_not_hard_error() {
    // When the reconciled value genuinely cannot be represented in the
    // column (5 · 300 / 2 is exact, but 5 / 2 of an odd permanent isn't
    // always), the commit must abort the transaction — never surface a
    // type error to the caller as a scheduler failure.
    let (mut gtm, res) = setup(1, 5, GtmConfig::default());
    let x = res[0];
    gtm.begin(t(1), T0).unwrap(); // A: ÷2 → temp 2.5 is float already
    gtm.begin(t(2), T0).unwrap(); // B: ×3
    let (o, _) = gtm.execute(t(1), x, ScalarOp::Div(Value::Int(2)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Completed(Value::Float(2.5)));
    let (o, _) = gtm.execute(t(2), x, ScalarOp::Mul(Value::Int(3)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Completed(Value::Int(15)));
    let (r, _) = gtm.commit(t(2), ts(1.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);

    // A reconciles to 2.5 · 15 / 5 = Float(7.5): not admissible in an
    // Int column, so the SST rejects it — a Constraint abort, cleanly.
    let (r, _) = gtm.commit(t(1), ts(2.0)).unwrap();
    assert_eq!(r, CommitResult::Aborted(AbortReason::Constraint));
    assert_eq!(gtm.state(t(1)), Some(TxnState::Aborted));
    assert_eq!(value_of(&gtm, x), Value::Int(15), "failed commit left the LDBS untouched");
    gtm.check_invariants().unwrap();
}

#[test]
fn phased_commit_local_sst_finish_round_trip() {
    // The front-end's cross-shard path: commit_local parks the txn in
    // Committing and hands back the writes; the coordinator runs the SST
    // itself; commit_finish completes bookkeeping and promotions.
    let (mut gtm, res) = setup(1, 100, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();

    let writes = match gtm.commit_local(t(1), 0, ts(1.0)).unwrap() {
        LocalCommit::Prepared(w) => w,
        other => panic!("expected Prepared, got {other:?}"),
    };
    assert_eq!(writes[..], [(res[0], Value::Int(99))]);
    assert_eq!(gtm.state(t(1)), Some(TxnState::Committing));

    // While parked, neither commit_finish-after-terminal nor a second
    // commit_local is possible.
    assert!(matches!(
        gtm.commit_local(t(1), 0, ts(1.0)),
        Err(PstmError::InvalidState { action: "commit", .. })
    ));

    let sst = Sst::new(t(1), writes);
    sst.execute(gtm.database(), gtm.bindings()).unwrap();
    let fx = gtm.commit_finish(t(1), ts(1.0)).unwrap();
    assert!(fx.is_empty());
    assert_eq!(gtm.state(t(1)), Some(TxnState::Committed));
    assert_eq!(value_of(&gtm, res[0]), Value::Int(99));
    gtm.verify_serializable().unwrap();
    gtm.check_invariants().unwrap();
}

#[test]
fn phased_commit_abort_releases_and_promotes() {
    // A parked transaction whose coordinator's SST failed must release
    // its resources to waiters when commit_abort cleans it up.
    let (mut gtm, res) = setup(1, 100, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Assign(Value::Int(7)), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    let (o, _) = gtm.execute(t(2), res[0], ScalarOp::Assign(Value::Int(8)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);

    match gtm.commit_local(t(1), 0, ts(1.0)).unwrap() {
        LocalCommit::Prepared(_) => {}
        other => panic!("expected Prepared, got {other:?}"),
    }
    let fx = gtm.commit_abort(t(1), AbortReason::SstFailure, ts(1.0)).unwrap();
    assert_eq!(gtm.state(t(1)), Some(TxnState::Aborted));
    assert!(!fx.aborted.iter().any(|(x, _)| *x == t(1)), "own fate is not a side effect");
    assert_eq!(fx.resumed.len(), 1, "the waiter takes over the released resource");
    assert_eq!(fx.resumed[0].0, t(2));
    assert_eq!(value_of(&gtm, res[0]), Value::Int(100), "nothing reached the LDBS");
    gtm.check_invariants().unwrap();

    // commit_abort outside the Committing window is an invalid state.
    assert!(matches!(
        gtm.commit_abort(t(2), AbortReason::SstFailure, ts(2.0)),
        Err(PstmError::InvalidState { action: "commit-abort", .. })
    ));
}

#[test]
fn midloop_reconciliation_error_strands_no_resource() {
    // A touches two resources; the first reconciles fine, the second
    // overflows (a compatible committer moved the permanent value so the
    // eq. 1 sum exceeds i64). The whole commit must unwind: no resource
    // left with the txn in pending/committing, waiters resumed, and the
    // cross-structure invariants intact.
    let (mut gtm, res) = setup(2, 100, GtmConfig::default());
    let (r0, r1) = (res[0], res[1]);

    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), r0, ScalarOp::Add(Value::Int(5)), T0).unwrap();
    gtm.execute(t(1), r1, ScalarOp::Add(Value::Int(i64::MAX - 200)), T0).unwrap();

    // B moves r1's permanent value up so A's reconciliation overflows.
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(2), r1, ScalarOp::Add(Value::Int(200)), T0).unwrap();
    let (r, _) = gtm.commit(t(2), ts(1.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);

    // C waits on r0 behind A (incompatible class) — it must be resumed
    // once A's failed commit releases r0.
    gtm.begin(t(3), T0).unwrap();
    let (o, _) = gtm.execute(t(3), r0, ScalarOp::Assign(Value::Int(1)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);

    // A's commit: r0 reconciles (105 + 100 − 100), then r1 overflows
    // mid-loop. The paper's Algorithm 3 has no partial-commit state — the
    // transaction dies and every resource is released.
    let (r, fx) = gtm.commit(t(1), ts(2.0)).unwrap();
    assert_eq!(r, CommitResult::Aborted(AbortReason::Constraint));
    assert_eq!(gtm.state(t(1)), Some(TxnState::Aborted));
    assert_eq!(value_of(&gtm, r0), Value::Int(100), "r0's reconciled write must not survive");
    assert_eq!(value_of(&gtm, r1), Value::Int(300), "only B's commit is durable");
    assert_eq!(fx.resumed.len(), 1, "the waiter on the *first* resource is freed too");
    assert_eq!(fx.resumed[0].0, t(3));
    gtm.check_invariants().unwrap();
    gtm.verify_serializable().unwrap();
}

#[test]
fn group_commit_fuses_disjoint_members_and_all_land() {
    // Three bookings on three distinct counters commit as one group: one
    // fused SST applies all writes, every member finishes Committed, and
    // the LDBS shows each member's effect exactly once.
    let (mut gtm, res) = setup(3, 100, GtmConfig::default());
    for (i, r) in res.iter().enumerate() {
        let txn = t(i as u64 + 1);
        gtm.begin(txn, T0).unwrap();
        gtm.execute(txn, *r, ScalarOp::Sub(Value::Int(i as i64 + 1)), T0).unwrap();
    }

    let engine_commits = gtm.database().stats().commits;
    let (results, fx) = commit_grouped(&mut gtm, &[t(1), t(2), t(3)], ts(1.0));
    assert_eq!(gtm.database().stats().commits, engine_commits + 1, "one fused engine commit");
    assert_eq!(results.len(), 3);
    for (txn, r) in &results {
        assert_eq!(*r, CommitResult::Committed, "{txn:?}");
    }
    assert_eq!(fx.sst_busy, pstm_types::Duration(0), "no retries, no busy charge");
    for (i, r) in res.iter().enumerate() {
        assert_eq!(value_of(&gtm, *r), Value::Int(100 - (i as i64 + 1)));
    }
    gtm.verify_serializable().unwrap();
    gtm.check_invariants().unwrap();
}

#[test]
fn group_commit_overlap_cuts_before_reconciliation_and_loses_no_update() {
    // Two compatible subtractors share one counter. Their write sets
    // overlap, so they must NOT fuse: the second may only reconcile after
    // the first's SST applied, or its write would be computed against the
    // stale permanent value and clobber the first's booking.
    let (mut gtm, res) = setup(1, 100, GtmConfig::default());
    let x = res[0];
    gtm.begin(t(1), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(1), x, ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    gtm.execute(t(2), x, ScalarOp::Sub(Value::Int(2)), T0).unwrap();

    let (results, _) = commit_grouped(&mut gtm, &[t(1), t(2)], ts(1.0));
    for (txn, r) in &results {
        assert_eq!(*r, CommitResult::Committed, "{txn:?}");
    }
    // 100 − 1 − 2: both bookings durable — the lost-update sentinel.
    assert_eq!(value_of(&gtm, x), Value::Int(97));
    gtm.verify_serializable().unwrap();
    gtm.check_invariants().unwrap();
}

#[test]
fn wave_the_cut_leaves_one_member_of_flushes_ungrouped() {
    // Grouped is a property of the flush, not of who submitted the wave:
    // two subtractors on one counter go in together, the cut defers the
    // second, and the batch of one that remains flushes exactly like a
    // solo commit — under its member's own SST id, with no `GroupCommit`.
    let (gtm, res) = setup(1, 100, GtmConfig::default());
    let shard = RingSink::new(1 << 10);
    let shard_trace = shard.handle();
    let mut gtm = gtm.with_tracer(Tracer::with_sink(Box::new(shard)));
    let engine = RingSink::new(1 << 10);
    let engine_trace = engine.handle();
    gtm.database().set_tracer(Tracer::with_sink(Box::new(engine)));
    for txn in [t(1), t(2)] {
        gtm.begin(txn, T0).unwrap();
        gtm.execute(txn, res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    }

    let wave = [t(1), t(2)].map(|txn| Member { txn, home: 0, shards: &[0] });
    let mut env = Owned::new(std::slice::from_mut(&mut gtm), ts(1.0));
    let mut fates = Vec::new();
    let deferred = commit_wave(&mut env, &wave, &mut |txn, fate| fates.push((txn, fate))).unwrap();
    assert_eq!(deferred, vec![t(2)]);
    assert_eq!(fates, vec![(t(1), CommitResult::Committed)]);

    let grouped = |r: &TraceRecord| matches!(r.event, TraceEvent::GroupCommit { .. });
    assert!(!shard_trace.snapshot().iter().any(grouped));
    let engine_commits: Vec<TxnId> = engine_trace
        .snapshot()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::EngineCommit { txn } => Some(txn),
            _ => None,
        })
        .collect();
    assert_eq!(engine_commits, vec![t(1).sst_engine()]);
}

#[test]
fn wave_settles_a_reader_in_the_local_phase_and_flushes_the_writer_alone() {
    // A member with no mutation grant has nothing to flush: the local
    // phase finishes it (its `Committed` precedes any flush event) and the
    // batch is the writer alone — a batch of one, under the writer's own
    // SST id, unannounced, one engine commit.
    let (gtm, res) = setup(2, 100, GtmConfig::default());
    let shard = RingSink::new(1 << 10);
    let shard_trace = shard.handle();
    let mut gtm = gtm.with_tracer(Tracer::with_sink(Box::new(shard)));
    let engine = RingSink::new(1 << 10);
    let engine_trace = engine.handle();
    gtm.database().set_tracer(Tracer::with_sink(Box::new(engine)));
    let (reader, writer) = (t(1), t(2));
    for txn in [reader, writer] {
        gtm.begin(txn, T0).unwrap();
    }
    for r in &res {
        gtm.execute(reader, *r, ScalarOp::Read, T0).unwrap();
    }
    gtm.execute(writer, res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();

    let engine_commits = gtm.database().stats().commits;
    let (fates, _) = commit_grouped(&mut gtm, &[reader, writer], ts(1.0));
    assert_eq!(fates, vec![(reader, CommitResult::Committed), (writer, CommitResult::Committed)]);
    assert_eq!(gtm.database().stats().commits, engine_commits + 1, "the writer's flush alone");
    assert_eq!(value_of(&gtm, res[0]), Value::Int(99));

    let trace = shard_trace.snapshot();
    let at = |want: &dyn Fn(&TraceEvent) -> bool| trace.iter().position(|r| want(&r.event));
    let attempts: Vec<(TxnId, u32)> = trace
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::SstAttempt { txn, writes } => Some((txn, writes)),
            _ => None,
        })
        .collect();
    assert_eq!(attempts, vec![(writer, 1)], "the reader joins no batch");
    assert_eq!(at(&|e| matches!(e, TraceEvent::GroupCommit { .. })), None);
    let reader_done = at(&|e| *e == TraceEvent::Committed { txn: reader }).unwrap();
    let flush = at(&|e| matches!(e, TraceEvent::SstAttempt { .. })).unwrap();
    assert!(reader_done < flush, "the reader settles before the flush");
    let engine_commits: Vec<TxnId> = engine_trace
        .snapshot()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::EngineCommit { txn } => Some(txn),
            _ => None,
        })
        .collect();
    assert_eq!(engine_commits, vec![writer.sst_engine()]);
    gtm.verify_serializable().unwrap();
    gtm.check_invariants().unwrap();
}

#[test]
fn group_commit_constraint_violator_aborts_alone() {
    // One member's reconciled value violates the CHECK; the fused flush
    // is rejected atomically, then the per-member fallback settles each
    // member individually — innocents commit, only the violator aborts.
    let (mut gtm, res) = setup(2, 100, GtmConfig::default());
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(2), res[1], ScalarOp::Sub(Value::Int(150)), T0).unwrap();

    let (results, _) = commit_grouped(&mut gtm, &[t(1), t(2)], ts(1.0));
    let fate = |txn: TxnId| results.iter().find(|(x, _)| *x == txn).unwrap().1.clone();
    assert_eq!(fate(t(1)), CommitResult::Committed, "innocent member lands");
    assert_eq!(fate(t(2)), CommitResult::Aborted(AbortReason::Constraint));
    assert_eq!(value_of(&gtm, res[0]), Value::Int(99));
    assert_eq!(value_of(&gtm, res[1]), Value::Int(100), "violator left no trace");
    gtm.verify_serializable().unwrap();
    gtm.check_invariants().unwrap();
}

#[test]
fn group_commit_retry_delay_is_charged_once_per_batch_attempt() {
    // A transient I/O failure on the fused flush charges sst_retry_delay
    // once per *batch* retry — not once per member. With 2 members and a
    // persistent I/O fault exhausting `sst_retries` retries, the busy
    // charge is exactly retries × delay (the unbatched path would pay
    // that per member).
    use pstm_faults::{FaultInjector, FaultPlan};
    let config = GtmConfig {
        sst_retries: 3,
        sst_retry_delay: pstm_types::Duration::from_secs_f64(0.010),
        ..GtmConfig::default()
    };
    let (mut gtm, res) = setup(2, 100, config);
    gtm.begin(t(1), T0).unwrap();
    gtm.execute(t(1), res[0], ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    gtm.begin(t(2), T0).unwrap();
    gtm.execute(t(2), res[1], ScalarOp::Sub(Value::Int(2)), T0).unwrap();

    // Every sst-apply arrival fails with I/O (ppm = 1_000_000).
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(7).io_on_sst_apply_each(1_000_000)));
    gtm.database().set_fault_hook(Arc::clone(&injector) as _);

    let (results, fx) = commit_grouped(&mut gtm, &[t(1), t(2)], ts(1.0));
    for (txn, r) in &results {
        assert_eq!(*r, CommitResult::Aborted(AbortReason::SstFailure), "{txn:?}");
    }
    let expected = pstm_types::Duration(config.sst_retry_delay.0 * u64::from(config.sst_retries));
    assert_eq!(
        fx.sst_busy, expected,
        "one busy charge per batch attempt, not per member (got {:?}, want {:?})",
        fx.sst_busy, expected
    );
    gtm.database().clear_fault_hook();
    gtm.check_invariants().unwrap();
}

/// Flush outcomes the table drives a wave through.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Flush {
    Ok,
    /// One transient I/O failure, inside the retry budget.
    IoRetried,
    /// Every attempt fails with I/O: the retry budget runs out.
    IoExhausted,
    /// The shape's last member reconciles to a value the CHECK rejects.
    Constraint,
    /// The process dies inside the first SST apply.
    Crashed,
}

#[test]
fn wave_shape_by_flush_outcome_table() {
    use pstm_faults::{FaultInjector, FaultPlan, FaultRule, SiteMatcher, Trigger};
    use pstm_types::{FaultDecision, FaultSite};

    // Resource `i` lives on shard `i % 2`. Each shape lists its members
    // as (txn, resources); a member's shards follow from its resources.
    let shapes = [
        ("1 member x 1 shard", vec![(1, vec![0])]),
        ("1 member x 2 shards", vec![(1, vec![0, 1])]),
        ("3 disjoint members x 1 shard", vec![(1, vec![0]), (2, vec![2]), (3, vec![4])]),
        ("2 overlapping members", vec![(1, vec![0]), (2, vec![0])]),
    ];
    let flushes =
        [Flush::Ok, Flush::IoRetried, Flush::IoExhausted, Flush::Constraint, Flush::Crashed];
    let config = GtmConfig { sst_retries: 2, ..GtmConfig::default() };

    for (shape, members) in &shapes {
        for flush in flushes {
            let case = format!("{shape} / {flush:?}");
            let (gtm, res) = setup(6, 100, config);
            let db = Arc::clone(gtm.database());
            let second = Gtm::new(Arc::clone(&db), gtm.bindings().clone(), config);
            let mut gtms = vec![gtm, second];
            let violator = members.last().map(|(txn, _)| *txn);
            let mut expected = [100i64; 6];
            let mut shard_sets: Vec<Vec<usize>> = Vec::new();
            for (txn, resources) in members {
                let amount =
                    if flush == Flush::Constraint && Some(*txn) == violator { 150 } else { 1 };
                let mut shards: Vec<usize> = resources.iter().map(|r| r % 2).collect();
                shards.dedup();
                for &s in &shards {
                    gtms[s].begin(t(*txn), T0).unwrap();
                }
                for &r in resources {
                    gtms[r % 2]
                        .execute(t(*txn), res[r], ScalarOp::Sub(Value::Int(amount)), T0)
                        .unwrap();
                    if amount == 1 && !matches!(flush, Flush::IoExhausted | Flush::Crashed) {
                        expected[r] -= 1;
                    }
                }
                shard_sets.push(shards);
            }
            match flush {
                Flush::Ok | Flush::Constraint => {}
                Flush::IoRetried => db.set_fault_hook(Arc::new(FaultInjector::new(
                    FaultPlan::new(1).with_rule(FaultRule {
                        site: SiteMatcher::Exact(FaultSite::SstApply),
                        trigger: Trigger::EachPpm(1_000_000),
                        action: FaultDecision::Io,
                        max_fires: 1,
                    }),
                ))),
                Flush::IoExhausted => db.set_fault_hook(Arc::new(FaultInjector::new(
                    FaultPlan::new(1).io_on_sst_apply_each(1_000_000),
                ))),
                Flush::Crashed => db.set_fault_hook(Arc::new(FaultInjector::new(
                    FaultPlan::new(1).crash_at_kind("sst-apply", 1),
                ))),
            }

            // Drive the coordinator like the fence holder: resubmit what the
            // cut deferred until nothing is left or the process died.
            let mut env = Owned::new(&mut gtms, ts(1.0));
            let mut fates = Vec::new();
            let mut remaining: Vec<usize> = (0..members.len()).collect();
            let mut died = None;
            while !remaining.is_empty() {
                let wave: Vec<Member<'_>> = remaining
                    .iter()
                    .map(|&i| Member {
                        txn: t(members[i].0),
                        home: shard_sets[i][0],
                        shards: &shard_sets[i],
                    })
                    .collect();
                match commit_wave(&mut env, &wave, &mut |txn, fate| fates.push((txn, fate))) {
                    Ok(deferred) => remaining.retain(|&i| deferred.contains(&t(members[i].0))),
                    Err(e) => {
                        died = Some(e);
                        break;
                    }
                }
            }
            drop(env);
            db.clear_fault_hook();

            if flush == Flush::Crashed {
                assert_eq!(died, Some(PstmError::Crashed("sst-apply".into())), "{case}");
                assert!(fates.is_empty(), "{case}: nobody settled before the crash");
                let parked = gtms[shard_sets[0][0]].state(t(members[0].0));
                assert_eq!(
                    parked,
                    Some(TxnState::Committing),
                    "{case}: volatile state died parked"
                );
                continue;
            }
            assert_eq!(died, None, "{case}");
            assert_eq!(fates.len(), members.len(), "{case}: every member has exactly one fate");
            for (i, (txn, _)) in members.iter().enumerate() {
                let want = match flush {
                    Flush::IoExhausted => CommitResult::Aborted(AbortReason::SstFailure),
                    Flush::Constraint if Some(*txn) == violator => {
                        CommitResult::Aborted(AbortReason::Constraint)
                    }
                    _ => CommitResult::Committed,
                };
                let got = fates.iter().find(|(x, _)| *x == t(*txn)).map(|(_, r)| r.clone());
                assert_eq!(got, Some(want.clone()), "{case}: fate of txn {txn}");
                let settled = match want {
                    CommitResult::Committed => TxnState::Committed,
                    CommitResult::Aborted(_) => TxnState::Aborted,
                };
                for &s in &shard_sets[i] {
                    assert_eq!(
                        gtms[s].state(t(*txn)),
                        Some(settled),
                        "{case}: txn {txn} on shard {s}"
                    );
                }
            }
            for (r, want) in expected.iter().enumerate() {
                assert_eq!(value_of(&gtms[0], res[r]), Value::Int(*want), "{case}: resource {r}");
            }
            for gtm in &gtms {
                gtm.check_invariants().unwrap_or_else(|e| panic!("{case}: {e}"));
                gtm.verify_serializable().unwrap_or_else(|e| panic!("{case}: {e}"));
            }
        }
    }
}

#[test]
fn sst_constraint_abort_restores_admission_headroom() {
    // Admission bounds concurrent subtractors by the resource value; a
    // holder whose SST is rejected by the CHECK must *give back* its
    // admission slot, or the denied waiter would starve on a free
    // resource.
    let config = GtmConfig {
        admission: Some(AdmissionPolicy { unit: 1, max_holders: 1 }),
        ..GtmConfig::default()
    };
    let (mut gtm, res) = setup(1, 100, config);
    let x = res[0];

    // A takes the only admission slot and will violate `value >= 0`.
    gtm.begin(t(1), T0).unwrap();
    let (o, _) = gtm.execute(t(1), x, ScalarOp::Sub(Value::Int(150)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Completed(Value::Int(-50)), "virtual copies are unchecked");

    // B is admission-denied while A holds the slot.
    gtm.begin(t(2), T0).unwrap();
    let (o, _) = gtm.execute(t(2), x, ScalarOp::Sub(Value::Int(1)), T0).unwrap();
    assert_eq!(o, ExecOutcome::Waiting);
    assert_eq!(gtm.stats().admission_denials, 1);

    // A's SST violates the CHECK → Constraint abort → B admitted.
    let (r, fx) = gtm.commit(t(1), ts(1.0)).unwrap();
    assert_eq!(r, CommitResult::Aborted(AbortReason::Constraint));
    assert_eq!(fx.resumed.len(), 1, "headroom returned to the waiter");
    assert_eq!(fx.resumed[0].0, t(2));
    assert_eq!(fx.resumed[0].1, Value::Int(99));
    gtm.check_invariants().unwrap();

    // And B can now commit its booking.
    let (r, _) = gtm.commit(t(2), ts(2.0)).unwrap();
    assert_eq!(r, CommitResult::Committed);
    assert_eq!(value_of(&gtm, x), Value::Int(99));
    gtm.verify_serializable().unwrap();
}
