//! Small-scope exhaustive interleaving model of the phased cross-shard
//! commit handshake (`commit_local` → SST → `commit_finish` /
//! `commit_abort`) — the in-tree stand-in for a loom run, which the
//! offline build cannot take as a dependency.
//!
//! The model mirrors the commit coordinator (`pstm_core::commit`) in
//! `pstm-front`'s environment, shards held end to end: each coordinator
//! acquires its shard locks (ascending, as `lock_shards_ascending`
//! enforces), runs `commit_local` per shard against a **real** `Gtm`,
//! executes one SST for the combined write set, then settles every shard
//! with `commit_finish` (or `commit_abort` when the SST failed). The
//! scheduler enumerates *every* maximal interleaving of coordinator
//! steps under the lock semantics, replaying the real state machines
//! from scratch per schedule, and asserts:
//!
//! - no schedule deadlocks (for ascending acquisition),
//! - no handshake call errors mid-protocol,
//! - no transaction is left stranded in `Committing`,
//! - every shard's committed history stays serializable and its
//!   internal invariants hold,
//! - the database converges to the same final state on every schedule.
//!
//! A negative control acquires in descending order on one coordinator
//! and asserts the enumeration *does* find a deadlock — the property
//! lockgraph's `multi-shard-path` rule exists to protect.

use pstm_core::gtm::{Gtm, GtmConfig, LocalCommit};
use pstm_core::sst::Sst;
use pstm_core::state::TxnState;
use pstm_types::{AbortReason, ResourceId, ScalarOp, Timestamp, TxnId, Value};
use pstm_workload::counter_world;

/// One schedulable action of a coordinator, in program order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// Take the shard's commit lock (blocks while another holds it).
    Lock(usize),
    /// `Gtm::commit_local` on the shard.
    CommitLocal(usize),
    /// Execute the combined write set (or observe its injected failure).
    Sst,
    /// `commit_finish` / `commit_abort` on the shard.
    Settle(usize),
    /// Release every held lock.
    Unlock,
}

/// A coordinator's plan: which shards it spans, in which lock order, and
/// whether its SST is forced to fail.
#[derive(Clone, Debug)]
struct Plan {
    txn: TxnId,
    /// Shards in *acquisition* order (ascending unless testing the bug).
    lock_order: Vec<usize>,
    /// The per-shard increment this transaction applies.
    add: i64,
    sst_fails: bool,
}

impl Plan {
    fn steps(&self) -> Vec<Step> {
        let mut v: Vec<Step> = self.lock_order.iter().map(|&s| Step::Lock(s)).collect();
        // commit_local / settle always walk ascending (the coordinator's
        // member-shard order); only acquisition order is under test.
        let mut asc = self.lock_order.clone();
        asc.sort_unstable();
        v.extend(asc.iter().map(|&s| Step::CommitLocal(s)));
        v.push(Step::Sst);
        v.extend(asc.iter().map(|&s| Step::Settle(s)));
        v.push(Step::Unlock);
        v
    }
}

/// Enumerates every maximal schedule (sequence of coordinator indices)
/// reachable under the lock semantics. Returns `(schedules, deadlocks)`
/// where a deadlock is a reachable state with unfinished coordinators
/// and no runnable step.
fn enumerate(plans: &[Plan], n_shards: usize) -> (Vec<Vec<usize>>, usize) {
    let step_lists: Vec<Vec<Step>> = plans.iter().map(Plan::steps).collect();
    let mut schedules = Vec::new();
    let mut deadlocks = 0;
    let mut prefix = Vec::new();
    let mut pcs = vec![0usize; plans.len()];
    let mut locks: Vec<Option<usize>> = vec![None; n_shards];
    dfs(&step_lists, &mut prefix, &mut pcs, &mut locks, &mut schedules, &mut deadlocks);
    (schedules, deadlocks)
}

fn runnable(steps: &[Step], pc: usize, coord: usize, locks: &[Option<usize>]) -> bool {
    match steps.get(pc) {
        None => false,
        Some(Step::Lock(l)) => locks[*l].is_none() || locks[*l] == Some(coord),
        Some(_) => true,
    }
}

fn dfs(
    step_lists: &[Vec<Step>],
    prefix: &mut Vec<usize>,
    pcs: &mut [usize],
    locks: &mut Vec<Option<usize>>,
    schedules: &mut Vec<Vec<usize>>,
    deadlocks: &mut usize,
) {
    let mut progressed = false;
    for c in 0..step_lists.len() {
        if !runnable(&step_lists[c], pcs[c], c, locks) {
            continue;
        }
        progressed = true;
        // Apply the step's effect on the abstract lock state.
        let step = step_lists[c][pcs[c]];
        let saved_locks = locks.clone();
        match step {
            Step::Lock(l) => locks[l] = Some(c),
            Step::Unlock => {
                for slot in locks.iter_mut() {
                    if *slot == Some(c) {
                        *slot = None;
                    }
                }
            }
            _ => {}
        }
        pcs[c] += 1;
        prefix.push(c);
        dfs(step_lists, prefix, pcs, locks, schedules, deadlocks);
        prefix.pop();
        pcs[c] -= 1;
        *locks = saved_locks;
    }
    if !progressed {
        if pcs.iter().zip(step_lists).any(|(&pc, s)| pc < s.len()) {
            *deadlocks += 1;
        } else {
            schedules.push(prefix.clone());
        }
    }
}

/// Replays one schedule against real `Gtm` shards, returning the final
/// per-resource values. Panics on any protocol error or stranded state.
fn replay(plans: &[Plan], n_shards: usize, schedule: &[usize]) -> Vec<Value> {
    let world = counter_world(n_shards, 100).expect("world");
    let mut shards: Vec<Gtm> = (0..n_shards)
        .map(|_| Gtm::new(world.db.clone(), world.bindings.clone(), GtmConfig::default()))
        .collect();
    let resources: Vec<ResourceId> = world.resources.clone();

    // Setup: begin + execute on every spanned shard (grants are
    // compatible add/sub, so none of this blocks or interleaves).
    let mut t = 0u64;
    for p in plans {
        for &s in &p.lock_order {
            t += 1;
            shards[s].begin(p.txn, Timestamp(t)).expect("begin");
            shards[s]
                .execute(p.txn, resources[s], ScalarOp::Add(Value::Int(p.add)), Timestamp(t))
                .expect("execute");
        }
    }

    // Scheduled phase.
    let step_lists: Vec<Vec<Step>> = plans.iter().map(Plan::steps).collect();
    let mut pcs = vec![0usize; plans.len()];
    let mut writes: Vec<Vec<(ResourceId, Value)>> = vec![Vec::new(); plans.len()];
    let mut sst_ok = vec![true; plans.len()];
    for &c in schedule {
        let step = step_lists[c][pcs[c]];
        pcs[c] += 1;
        t += 1;
        let now = Timestamp(t);
        let p = &plans[c];
        match step {
            Step::Lock(_) | Step::Unlock => {} // modeled abstractly
            Step::CommitLocal(s) => {
                match shards[s].commit_local(p.txn, s as u32, now).expect("local") {
                    LocalCommit::Prepared(w) => writes[c].extend(w),
                    LocalCommit::Aborted(reason, _) => {
                        panic!("compatible add/sub commit_local aborted: {reason:?}")
                    }
                }
            }
            Step::Sst => {
                if p.sst_fails {
                    sst_ok[c] = false;
                } else {
                    let sst = Sst::new(p.txn, std::mem::take(&mut writes[c]));
                    sst.execute(&world.db, &world.bindings).expect("sst");
                }
            }
            Step::Settle(s) => {
                if sst_ok[c] {
                    shards[s].commit_finish(p.txn, now).expect("finish");
                } else {
                    shards[s].commit_abort(p.txn, AbortReason::Constraint, now).expect("abort");
                }
            }
        }
    }

    // Nothing stranded: every spanned shard shows a terminal state.
    for p in plans {
        for &s in &p.lock_order {
            let state = shards[s].state(p.txn).expect("state");
            let want = if p.sst_fails { TxnState::Aborted } else { TxnState::Committed };
            assert_eq!(state, want, "{} on shard {s} stranded in {:?}", p.txn, state);
        }
    }
    for (i, g) in shards.iter().enumerate() {
        g.check_invariants().unwrap_or_else(|e| panic!("shard {i} invariants: {e}"));
        g.verify_serializable().unwrap_or_else(|e| panic!("shard {i} history: {e}"));
    }
    resources
        .iter()
        .map(|&r| {
            let b = world.bindings.resolve(r).expect("binding");
            world.db.get_col(b.table, b.row, b.column).expect("value")
        })
        .collect()
}

fn expected_values(plans: &[Plan], n_shards: usize) -> Vec<Value> {
    let mut v = vec![100i64; n_shards];
    for p in plans.iter().filter(|p| !p.sst_fails) {
        for &s in &p.lock_order {
            v[s] += p.add;
        }
    }
    v.into_iter().map(Value::Int).collect()
}

fn run_model(plans: &[Plan], n_shards: usize) -> usize {
    let (schedules, deadlocks) = enumerate(plans, n_shards);
    assert_eq!(deadlocks, 0, "ascending acquisition must not deadlock");
    assert!(!schedules.is_empty());
    let want = expected_values(plans, n_shards);
    for schedule in &schedules {
        let got = replay(plans, n_shards, schedule);
        assert_eq!(got, want, "schedule {schedule:?} diverged");
    }
    schedules.len()
}

#[test]
fn overlapping_two_shard_commits_complete_under_every_interleaving() {
    // T1 spans shards {0,1}, T2 spans {1,2}: contention on shard 1 only,
    // so lock acquisition genuinely interleaves.
    let plans = vec![
        Plan { txn: TxnId(1), lock_order: vec![0, 1], add: 1, sst_fails: false },
        Plan { txn: TxnId(2), lock_order: vec![1, 2], add: 2, sst_fails: false },
    ];
    let n = run_model(&plans, 3);
    assert!(n >= 10, "expected a nontrivial schedule count, got {n}");
}

#[test]
fn fully_contended_commits_serialize_cleanly() {
    // Both span {0,1}: the first Lock(0) winner runs its whole commit
    // before the loser starts — exactly two schedules, both converging.
    let plans = vec![
        Plan { txn: TxnId(1), lock_order: vec![0, 1], add: 1, sst_fails: false },
        Plan { txn: TxnId(2), lock_order: vec![0, 1], add: 2, sst_fails: false },
    ];
    assert_eq!(run_model(&plans, 2), 2);
}

#[test]
fn sst_failure_takes_the_commit_abort_path_on_every_shard() {
    // T2's SST fails (constraint): every shard it spans must settle via
    // commit_abort, T1 commits, and the database reflects T1 alone.
    let plans = vec![
        Plan { txn: TxnId(1), lock_order: vec![0, 1], add: 1, sst_fails: false },
        Plan { txn: TxnId(2), lock_order: vec![1, 2], add: 2, sst_fails: true },
    ];
    run_model(&plans, 3);
}

#[test]
fn descending_acquisition_reaches_the_textbook_deadlock() {
    // T1 locks 0 then 1; T2 locks 1 then 0. The enumeration must reach
    // the crossed state where neither can proceed — the bug class the
    // `multi-shard-path` rule (and lock_shards_ascending) makes unrepresentable.
    let plans = vec![
        Plan { txn: TxnId(1), lock_order: vec![0, 1], add: 1, sst_fails: false },
        Plan { txn: TxnId(2), lock_order: vec![1, 0], add: 2, sst_fails: false },
    ];
    let (schedules, deadlocks) = enumerate(&plans, 2);
    assert!(deadlocks > 0, "descending order should deadlock somewhere");
    // Schedules that happen to serialize still exist (one coordinator
    // finishing before the other starts), and still converge.
    assert!(!schedules.is_empty());
}

/// Three overlapping coordinators — a deeper sweep (thousands of
/// schedules, each replaying real state machines) gated behind the
/// `exhaustive-model` feature for the CI wall's scheduled job.
#[cfg(feature = "exhaustive-model")]
#[test]
fn three_coordinator_ring_completes_under_every_interleaving() {
    let plans = vec![
        Plan { txn: TxnId(1), lock_order: vec![0, 1], add: 1, sst_fails: false },
        Plan { txn: TxnId(2), lock_order: vec![1, 2], add: 2, sst_fails: false },
        Plan { txn: TxnId(3), lock_order: vec![0, 2], add: 4, sst_fails: false },
    ];
    let n = run_model(&plans, 3);
    assert!(n >= 100, "expected a deep schedule space, got {n}");
}
