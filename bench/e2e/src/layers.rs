//! The per-layer replays of a traced run. After the window closes, the
//! identical stream goes single-threaded through each lower layer's
//! public entry points alone — bare `Gtm`, then `Database` with the same
//! reads and write sets, then `Wal` with the same records, then
//! [`SeqRef`] — so a layer's self time is its total minus the total of
//! the layer beneath it.

use crate::gen::{entry, SeqRef, Step, Txn, Workload};
use crate::measure::{median, Clock};
use crate::system::front_config;
use pstm_core::gtm::{AwakeResult, CommitResult, Gtm};
use pstm_core::reconcile::reconcile;
use pstm_storage::{Binding, LogRecord, Wal, WriteOp, WriteSet};
use pstm_types::{ExecOutcome, OpClass, Timestamp, TxnId, Value};
use pstm_workload::counter_world;
use std::hint::black_box;

/// Mean nanoseconds per call of the core's entry points, and per
/// transaction, over stream indices `warmup..warmup + n`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreTimes {
    pub begin_ns: f64,
    pub execute_ns: f64,
    pub commit_ns: f64,
    pub txn_ns: f64,
}

/// The stream through one bare `Gtm` over a fresh world. Single-threaded
/// and in order, so nothing waits and everything commits; a `Sleep` step
/// is `Gtm::sleep` + `Gtm::awake` with no time passing.
pub fn core_replay(w: Workload, pool: &[Txn], warmup: u64, n: u64) -> Result<CoreTimes, String> {
    let world = counter_world(w.counters(), w.initial()).map_err(|e| e.to_string())?;
    let resources = world.resources;
    let mut gtm = Gtm::new(world.db, world.bindings, front_config(w).gtm);
    let clock = Clock::start();
    let (mut begin, mut execute, mut commit, mut executes) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..warmup + n {
        let timed = i >= warmup;
        let txn = TxnId(i + 1);
        let now = Timestamp(i);
        let (steps, len) = entry(pool, i).steps(w, i);
        let t0 = clock.ns();
        gtm.begin(txn, now).map_err(|e| e.to_string())?;
        let t1 = clock.ns();
        for step in &steps[..len] {
            let Some((c, op)) = step.op() else {
                gtm.sleep(txn, now).map_err(|e| e.to_string())?;
                match gtm.awake(txn, now).map_err(|e| e.to_string())? {
                    (AwakeResult::Resumed(_), _) => continue,
                    (AwakeResult::Aborted, _) => return Err(format!("{txn:?} awake-aborted")),
                }
            };
            match gtm.execute(txn, resources[usize::from(c)], op, now).map_err(|e| e.to_string())? {
                (ExecOutcome::Completed(v), _) => {
                    black_box(v);
                }
                (other, _) => return Err(format!("core replay: {txn:?} got {other:?}")),
            }
            executes += u64::from(timed);
        }
        let t2 = clock.ns();
        match gtm.commit(txn, now).map_err(|e| e.to_string())? {
            (CommitResult::Committed, _) => {}
            (other, _) => return Err(format!("core replay: {txn:?} commit gave {other:?}")),
        }
        let t3 = clock.ns();
        if timed {
            begin += t1 - t0;
            execute += t2 - t1;
            commit += t3 - t2;
        }
    }
    let n = n.max(1) as f64;
    Ok(CoreTimes {
        begin_ns: begin as f64 / n,
        execute_ns: execute as f64 / executes.max(1) as f64,
        commit_ns: commit as f64 / n,
        txn_ns: (begin + execute + commit) as f64 / n,
    })
}

/// Storage-layer numbers of the stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageTimes {
    /// Mean `Database::get_col`.
    pub read_ns: f64,
    /// `get_col`s the stream's transactions make, per transaction.
    pub reads_ns_per_txn: f64,
    /// Mean `Database::apply_write_set`, per committing write set.
    pub apply_ns_per_commit: f64,
    pub apply_ns_per_txn: f64,
    /// Mean `Wal::append_batch` of the same records, per commit.
    pub wal_append_ns_per_commit: f64,
    pub wal_ns_per_txn: f64,
    pub wal_bytes_per_commit: f64,
    pub wal_records_per_commit: f64,
    pub checkpoint_ms: f64,
    pub recover_us_per_commit: f64,
}

/// What one transaction asks of storage under today's core: one
/// `get_col` per executed step (the grant snapshots the permanent
/// value) and one per written counter at commit (reconciliation), then
/// one write set with the reconciled values, sorted by resource as
/// `Sst::new` sorts them.
struct StorageWork {
    reads: Vec<u16>,
    /// `(counter, before, after)`, ascending by counter.
    writes: Vec<(u16, i64, i64)>,
}

fn storage_work(w: Workload, seq: &mut SeqRef, i: u64, txn: Txn) -> StorageWork {
    let (steps, len) = txn.steps(w, i);
    let mut reads = Vec::with_capacity(8);
    let mut written: Vec<u16> = Vec::with_capacity(2);
    for step in &steps[..len] {
        match *step {
            Step::Read(c) => reads.push(c),
            Step::Sub(c) | Step::Assign(c, _) => {
                reads.push(c);
                if !written.contains(&c) {
                    written.push(c);
                }
            }
            Step::Sleep(_) => {}
        }
    }
    written.sort_unstable();
    reads.extend_from_slice(&written);
    let before: Vec<i64> = written.iter().map(|c| seq.state[usize::from(*c)]).collect();
    seq.apply(i, txn);
    let writes =
        written.iter().zip(before).map(|(c, b)| (*c, b, seq.state[usize::from(*c)])).collect();
    StorageWork { reads, writes }
}

struct StorageReplay<'a> {
    w: Workload,
    pool: &'a [Txn],
    db: std::sync::Arc<pstm_storage::Database>,
    bind: Vec<Binding>,
    wal: Wal,
    seq: SeqRef,
    clock: Clock,
    reads_ns: u64,
    reads: u64,
    apply_ns: u64,
    wal_ns: u64,
    commits: u64,
}

impl StorageReplay<'_> {
    /// Transaction `i` against `Database` and `Wal`; `true` if it wrote.
    fn txn(&mut self, i: u64, timed: bool) -> Result<bool, String> {
        let work = storage_work(self.w, &mut self.seq, i, entry(self.pool, i));
        let engine_txn = TxnId(i + 1).sst_engine();
        let mut ws = WriteSet::new();
        let mut recs = Vec::with_capacity(work.writes.len() + 2);
        if !work.writes.is_empty() {
            recs.push(LogRecord::Begin { txn: engine_txn });
            for (c, before, after) in &work.writes {
                let b = self.bind[usize::from(*c)];
                let (table, row_id, column) = (b.table, b.row, b.column);
                ws.0.push(WriteOp::Update { table, row_id, column, value: Value::Int(*after) });
                recs.push(LogRecord::Update {
                    txn: engine_txn,
                    table,
                    row_id,
                    column,
                    before: Value::Int(*before),
                    after: Value::Int(*after),
                });
            }
            recs.push(LogRecord::Commit { txn: engine_txn });
        }

        let t0 = self.clock.ns();
        for c in &work.reads {
            let b = self.bind[usize::from(*c)];
            black_box(self.db.get_col(b.table, b.row, b.column).map_err(|e| e.to_string())?);
        }
        let t1 = self.clock.ns();
        // A read-only transaction's SST is empty and skipped, as
        // `Sst::execute` skips it.
        if !ws.is_empty() {
            self.db.apply_write_set(engine_txn, &ws).map_err(|e| e.to_string())?;
        }
        let t2 = self.clock.ns();
        if !recs.is_empty() {
            self.wal.append_batch(&recs).map_err(|e| e.to_string())?;
        }
        let t3 = self.clock.ns();
        if timed {
            self.reads_ns += t1 - t0;
            self.reads += work.reads.len() as u64;
            if !ws.is_empty() {
                self.apply_ns += t2 - t1;
                self.wal_ns += t3 - t2;
                self.commits += 1;
            }
        }
        Ok(!ws.is_empty())
    }
}

/// The stream's reads and write sets through `Database` alone, and its
/// log records through `Wal` alone; then checkpoint and recovery.
pub fn storage_replay(
    w: Workload,
    pool: &[Txn],
    warmup: u64,
    n: u64,
    tail_commits: u64,
) -> Result<StorageTimes, String> {
    let world = counter_world(w.counters(), w.initial()).map_err(|e| e.to_string())?;
    let bind: Vec<Binding> = world
        .resources
        .iter()
        .map(|r| world.bindings.resolve(*r).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut replay = StorageReplay {
        w,
        pool,
        db: world.db,
        bind,
        wal: Wal::new(),
        seq: SeqRef::new(w),
        clock: Clock::start(),
        reads_ns: 0,
        reads: 0,
        apply_ns: 0,
        wal_ns: 0,
        commits: 0,
    };
    for i in 0..warmup {
        replay.txn(i, false)?;
    }
    let (wal_bytes, wal_records) = (replay.wal.len_bytes(), replay.wal.appended());
    for i in warmup..warmup + n {
        replay.txn(i, true)?;
    }
    let wal_bytes = (replay.wal.len_bytes() - wal_bytes) as u64;
    let wal_records = replay.wal.appended() - wal_records;

    let clock = replay.clock;
    let t = clock.ns();
    replay.db.checkpoint().map_err(|e| e.to_string())?;
    let checkpoint_ms = (clock.ns() - t) as f64 / 1e6;

    // Recovery: a tail of commits after the checkpoint, then three
    // crash-and-recover cycles over it.
    let mut i = warmup + n;
    let mut tail = 0;
    while tail < tail_commits {
        tail += u64::from(replay.txn(i, false)?);
        i += 1;
    }
    let mut cycles = Vec::new();
    for _ in 0..3 {
        let t = clock.ns();
        replay.db.simulate_crash_and_recover().map_err(|e| e.to_string())?;
        cycles.push((clock.ns() - t) as f64 / 1e3);
    }
    for (c, want) in replay.seq.state.iter().enumerate() {
        let b = replay.bind[c];
        let got = replay.db.get_col(b.table, b.row, b.column).map_err(|e| e.to_string())?;
        if got != Value::Int(*want) {
            return Err(format!(
                "storage replay: counter {c} recovered as {got:?}, expected {want}"
            ));
        }
    }

    let per = |total: u64, count: u64| total as f64 / count.max(1) as f64;
    Ok(StorageTimes {
        read_ns: per(replay.reads_ns, replay.reads),
        reads_ns_per_txn: per(replay.reads_ns, n),
        apply_ns_per_commit: per(replay.apply_ns, replay.commits),
        apply_ns_per_txn: per(replay.apply_ns, n),
        wal_append_ns_per_commit: per(replay.wal_ns, replay.commits),
        wal_ns_per_txn: per(replay.wal_ns, n),
        wal_bytes_per_commit: per(wal_bytes, replay.commits),
        wal_records_per_commit: per(wal_records, replay.commits),
        checkpoint_ms,
        recover_us_per_commit: median(&cycles) / tail.max(1) as f64,
    })
}

/// Mean nanoseconds per transaction of [`SeqRef`] over the same stream.
pub fn seqref_ns_per_txn(w: Workload, pool: &[Txn], warmup: u64, n: u64) -> f64 {
    let mut seq = SeqRef::new(w);
    for i in 0..warmup {
        seq.apply(i, entry(pool, i));
    }
    let clock = Clock::start();
    let start = clock.ns();
    for i in warmup..warmup + n {
        seq.apply(i, black_box(entry(pool, i)));
    }
    let ns = clock.ns() - start;
    black_box(&seq);
    ns as f64 / n.max(1) as f64
}

/// Mean nanoseconds of one direct `pstm_core::reconcile` (eq. 1).
pub fn reconcile_call_ns() -> f64 {
    const CALLS: i64 = 1_000_000;
    let clock = Clock::start();
    let start = clock.ns();
    for k in 0..CALLS {
        let (temp, read, permanent) =
            (Value::Int(black_box(k + 99)), Value::Int(k + 100), Value::Int(k + 97));
        black_box(reconcile(OpClass::UpdateAddSub, &temp, &read, &permanent).ok());
    }
    (clock.ns() - start) as f64 / CALLS as f64
}
