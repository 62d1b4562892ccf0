//! The deterministic chaos harness: a single-threaded coordinator that
//! drives a sharded counter workload through injected faults, crashes and
//! recoveries, then proves the two recovery invariants and hands the
//! stitched trace to `pstm-check` for serializability certification.
//!
//! ## Why a dedicated environment instead of `pstm-front`
//!
//! The sharded front-end is the *production* environment of the commit
//! coordinator, but it is wall-clocked and multi-threaded — two
//! properties the chaos matrix cannot afford, because every `(seed,
//! plan)` pair must replay byte-identically (`pstm-check`'s wall-clock
//! lint exists for the same reason). The harness therefore drives the
//! *same* coordinator ([`commit_wave`]: `commit_local` ascending, one
//! fused SST between the `pre-sst`/`pre-finish` seams, then
//! `commit_finish`/`commit_abort`) through [`Owned`], the environment
//! over owned managers: the clock is virtual, a retry back-off charges
//! virtual time, and [`Owned::last_flush`] names the members whose write
//! intents are in flight. The front-end's environment is exercised under
//! real threads by the `sst_exhaustion` integration tests.
//!
//! ## The invariant ledger
//!
//! Every session's operations are `Sub(1)` against counter resources, so
//! the engine is its own ledger: for resource `r` with initial value
//! `I_r` and recovered value `V_r`, the applied delta is `d_r = I_r −
//! V_r`, and the harness's `acked` ledger records the deltas of commits
//! acknowledged to clients. After every recovery:
//!
//! 1. `d_r == acked_r` for every resource not touched by the in-flight
//!    commit — no acknowledged commit lost, none applied twice;
//! 2. for the one commit in flight at the crash (write intents `w_r`),
//!    either `d_r − acked_r == 0` everywhere (nothing survived) or
//!    `d_r − acked_r == w_r` on exactly its touched resources (the
//!    fused SST survived *whole*) — never a partial application. A
//!    surviving in-doubt commit is folded into the ledger, which is what
//!    re-checks invariant 1 ("not applied twice") in every later epoch.

use crate::injector::{FaultInjector, FiredFault};
use crate::plan::FaultPlan;
use pstm_check::{stitch_streams, verify_streams, TraceStream, Verdict};
use pstm_core::commit::{commit_wave, Member, Owned};
use pstm_core::gtm::{CommitResult, Gtm, GtmConfig};
use pstm_obs::postmortem::{analyze, Postmortem};
use pstm_obs::recorder::{read_recorder, Recorder, ENGINE_SHARD};
use pstm_obs::{RingHandle, RingSink, Sink, TeeSink, Tracer};
use pstm_storage::{BindingRegistry, Database};
use pstm_types::{
    AbortReason, Duration, ExecOutcome, PstmError, PstmResult, ResourceId, ScalarOp, Timestamp,
    TxnId, Value,
};
use pstm_workload::counter_world;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Shape of one chaos run. `seed` drives the workload generator; the
/// plan's own seed drives the injector — two runs differing only in
/// `plan` replay the identical workload against different adversaries.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Workload seed (session shapes, resource choices).
    pub seed: u64,
    /// GTM shards (resources are routed `object % shards`, like the
    /// front-end).
    pub shards: usize,
    /// Counter resources.
    pub resources: usize,
    /// Initial counter value (large enough that `Sub(1)` never trips the
    /// `>= 0` CHECK in a fault-free run).
    pub initial: i64,
    /// Sessions to drive through the run.
    pub sessions: usize,
    /// `Sub(1)` operations per session, spread over its chosen resources.
    pub ops_per_session: usize,
    /// The adversary.
    pub plan: FaultPlan,
    /// After this many recoveries the injector is disarmed so the run is
    /// guaranteed to finish (a plan of unbounded crashes would otherwise
    /// never drain the session list).
    pub max_recoveries: u32,
    /// Commit each shard's single-shard sessions as one wave (committers
    /// that met at the front-end's flush fence) instead of a wave of one
    /// each.
    /// Multi-shard sessions still commit alone, exactly like the
    /// production front-end.
    pub group_commit: bool,
    /// When set, every epoch's trace streams *also* flow into a durable
    /// flight-recorder file `epoch{N}.rec` under this directory (one file
    /// per process lifetime), and at every crash the crash picture
    /// `pstm_obs::postmortem` reconstructs from the file alone is checked
    /// against the harness's fault ledger: the reconstructed unresolved
    /// set must equal the stranded sessions, and the reconstructed
    /// in-doubt set must equal the ledger's whole-SST-survived
    /// reclassification.
    pub recorder_dir: Option<PathBuf>,
}

impl ChaosConfig {
    /// A small-but-contended default shape: 2 shards, 4 resources, 24
    /// sessions of 3 ops.
    #[must_use]
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        ChaosConfig {
            seed,
            shards: 2,
            resources: 4,
            initial: 10_000,
            sessions: 24,
            ops_per_session: 3,
            plan,
            max_recoveries: 8,
            group_commit: false,
            recorder_dir: None,
        }
    }

    /// Builder: same shape, but batched — single-shard sessions fuse
    /// into per-shard group commits.
    #[must_use]
    pub fn with_group_commit(mut self) -> Self {
        self.group_commit = true;
        self
    }

    /// Builder: record every epoch into a flight-recorder file under
    /// `dir` and cross-check the post-mortem against the fault ledger at
    /// every crash. The directory is created on first use.
    #[must_use]
    pub fn with_recorder(mut self, dir: impl Into<PathBuf>) -> Self {
        self.recorder_dir = Some(dir.into());
        self
    }
}

/// What one chaos run did and proved.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Commits acknowledged to their session.
    pub committed: u64,
    /// Commits whose session saw "crashed" but whose fused SST survived
    /// recovery whole — visible exactly once, per invariant 1.
    pub committed_in_doubt: u64,
    /// Sessions aborted by the scheduler or by injected transient faults.
    pub aborted: u64,
    /// The subset of `aborted` that died with [`AbortReason::SstFailure`]
    /// — persistent transient faults that exhausted the retry budget. The
    /// numerator of `bench_faults`' abort-amplification metric.
    pub aborted_sst_failure: u64,
    /// Sessions stranded by a crash with nothing applied.
    pub lost: u64,
    /// Injected crashes (== recoveries performed).
    pub crashes: u64,
    /// Faults fired, in order (the injector's journal).
    pub faults: Vec<FiredFault>,
    /// Determinism witness: byte-identical across replays of the same
    /// `(seed, plan)`. Excludes wall-clock measurements.
    pub fingerprint: String,
    /// Invariant violations (empty on a correct engine).
    pub violations: Vec<String>,
    /// Did `pstm-check` certify the stitched pre/post-crash trace
    /// serializable?
    pub certified: bool,
    /// Wall-clock recovery latency per crash, microseconds (`None` when
    /// the platform clock is unavailable). Not part of the fingerprint.
    pub recovery_wall_us: Vec<Option<u64>>,
    /// Final engine value per resource.
    pub final_values: Vec<i64>,
    /// Post-mortem-vs-ledger cross-checks performed (recorder mode only:
    /// one per crash plus one final quiescent check; 0 with the recorder
    /// off). Any mismatch lands in `violations`.
    pub recorder_checks: u64,
}

impl ChaosReport {
    /// True when every invariant held and the stitched trace certified.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.certified
    }
}

/// How many sessions run concurrently (virtual copies overlapping)
/// before the harness commits the wave.
const WAVE: usize = 4;

/// One epoch's volatile half: the shard managers and every sink handle
/// needed to snapshot its streams when it dies or the run ends.
struct Epoch {
    gtms: Vec<Gtm>,
    shard_rings: Vec<RingHandle>,
    engine_ring: RingHandle,
}

struct Chaos {
    db: Arc<Database>,
    bindings: BindingRegistry,
    resources: Vec<ResourceId>,
    injector: Arc<FaultInjector>,
    config: ChaosConfig,
    clock: u64,
    /// Per-resource acknowledged `Sub` total.
    acked: Vec<i64>,
    /// Write intents (resource index → subs) of the last batch submitted
    /// to the engine ([`Owned::last_flush`]). For a fused group this is the
    /// *union* of the batch members' intents: the batch applies as one
    /// all-or-nothing engine write, so invariant 2 sees one in-flight
    /// unit either fully absent or fully applied.
    in_flight: Option<BTreeMap<usize, i64>>,
    /// The transactions riding the in-flight unit (the solo committer,
    /// or the fused batch members' origins) — the reclassification
    /// quantum when a crashed unit turns out to have survived whole, and
    /// what the post-mortem's in-doubt set is compared against then.
    in_flight_txns: Vec<TxnId>,
    /// The live epoch's flight recorder, when recorder mode is on.
    recorder: Option<Recorder>,
    /// Epochs started so far (names the per-epoch recorder files).
    epoch_no: u32,
    recorder_checks: u64,
    epochs: Vec<Vec<TraceStream>>,
    violations: Vec<String>,
}

impl Chaos {
    fn now(&mut self) -> Timestamp {
        self.clock += 1;
        Timestamp(self.clock)
    }

    fn shard_of(&self, r: ResourceId) -> usize {
        r.object.0 as usize % self.config.shards
    }

    /// Builds a fresh epoch: new ring sinks and new shard managers (the
    /// engine keeps the one fault hook across recovery, and the managers
    /// ask it). In recorder mode each epoch also opens its own
    /// flight-recorder file — one file per process lifetime — and every
    /// stream is teed into it alongside the in-memory rings.
    fn new_epoch(&mut self) -> PstmResult<Epoch> {
        self.recorder = match &self.config.recorder_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| PstmError::Io(format!("recorder dir: {e}")))?;
                let path = dir.join(format!("epoch{}.rec", self.epoch_no));
                // Durable write-through and half-segments far larger than
                // an epoch's traffic: the file must hold the *whole*
                // epoch for the post-mortem cross-check to be exact.
                let rec = Recorder::create(&path, 1 << 20, true)
                    .map_err(|e| PstmError::Io(format!("recorder create: {e}")))?;
                rec.write_meta(self.config.shards as u32, pstm_obs::wallclock::wall_now_us());
                Some(rec)
            }
            None => None,
        };
        self.epoch_no += 1;
        let tee = |ring: RingSink, shard: u32, rec: &Option<Recorder>| -> Box<dyn Sink> {
            match rec {
                Some(r) => Box::new(TeeSink::new(Box::new(ring), Box::new(r.sink(shard)))),
                None => Box::new(ring),
            }
        };
        let engine = RingSink::new(1 << 20);
        let engine_ring = engine.handle();
        self.db.set_tracer(Tracer::with_sink(tee(engine, ENGINE_SHARD, &self.recorder)));
        let mut gtms = Vec::with_capacity(self.config.shards);
        let mut shard_rings = Vec::with_capacity(self.config.shards);
        for i in 0..self.config.shards {
            let ring = RingSink::new(1 << 20);
            shard_rings.push(ring.handle());
            let tracer = Tracer::with_sink(tee(ring, i as u32, &self.recorder));
            // A real retry budget, each retry charged 1 ms of virtual
            // time by the coordinator's back-off.
            let gtm_config = GtmConfig {
                sst_retries: 2,
                sst_retry_delay: Duration::from_secs_f64(0.001),
                ..GtmConfig::default()
            };
            gtms.push(
                Gtm::new(Arc::clone(&self.db), self.bindings.clone(), gtm_config)
                    .with_tracer(tracer),
            );
        }
        Ok(Epoch { gtms, shard_rings, engine_ring })
    }

    /// Recorder mode: flush the live epoch's recorder and rebuild the
    /// crash picture from the *file alone* — exactly what a post-mortem
    /// of a dead process would see. `None` when the recorder is off.
    fn recorder_postmortem(&mut self) -> Option<Postmortem> {
        let rec = self.recorder.as_ref()?;
        rec.flush();
        match read_recorder(rec.path()) {
            Ok(replay) => Some(analyze(&replay)),
            Err(e) => {
                self.violations
                    .push(format!("recorder file unreadable at crash: {e} (recorder check)"));
                None
            }
        }
    }

    /// The per-crash cross-check: the post-mortem's reconstructed
    /// unresolved and in-doubt transaction sets must match the harness's
    /// own ledger exactly.
    fn check_postmortem(
        &mut self,
        pm: &Postmortem,
        mut stranded: Vec<TxnId>,
        mut expect_in_doubt: Vec<TxnId>,
    ) {
        stranded.sort_unstable();
        expect_in_doubt.sort_unstable();
        let unresolved = pm.unresolved_txns();
        if unresolved != stranded {
            self.violations.push(format!(
                "post-mortem unresolved set {unresolved:?} != ledger stranded set {stranded:?} \
                 (recorder check)"
            ));
        }
        if pm.in_doubt != expect_in_doubt {
            self.violations.push(format!(
                "post-mortem in-doubt set {:?} != ledger in-doubt set {expect_in_doubt:?} \
                 (recorder check)",
                pm.in_doubt
            ));
        }
        self.recorder_checks += 1;
    }

    /// Snapshots the epoch's streams (shards first, engine last) into the
    /// stitched-trace log.
    fn close_epoch(&mut self, epoch: &Epoch) {
        let mut streams = Vec::with_capacity(epoch.shard_rings.len() + 1);
        for (i, ring) in epoch.shard_rings.iter().enumerate() {
            streams.push(TraceStream { label: format!("shard{i}"), records: ring.snapshot() });
        }
        streams.push(TraceStream {
            label: "engine".to_string(),
            records: epoch.engine_ring.snapshot(),
        });
        self.epochs.push(streams);
    }

    fn read_value(&self, r: usize) -> PstmResult<i64> {
        let b = self.bindings.resolve(self.resources[r])?;
        match self.db.get_col(b.table, b.row, b.column)? {
            Value::Int(v) => Ok(v),
            other => Err(PstmError::internal(format!("counter resource holds {other:?}"))),
        }
    }

    /// Records the unit a flush submitted (nothing when `members` is
    /// empty): it applies as one all-or-nothing engine write, so its
    /// intents are the union of its members'.
    fn note_flush(&mut self, wave: &[WaveSession], members: &[TxnId]) {
        if members.is_empty() {
            return;
        }
        let mut intents: BTreeMap<usize, i64> = BTreeMap::new();
        for (_, _, subs, _) in wave.iter().filter(|s| members.contains(&s.0)) {
            for (&r, &n) in subs {
                *intents.entry(r).or_insert(0) += n;
            }
        }
        self.in_flight = Some(intents);
        self.in_flight_txns = members.to_vec();
    }

    /// The invariant check, run after every recovery and once at the end.
    /// `after_crash` selects whether an in-flight commit may have
    /// survived; outside a crash the ledger must match the engine
    /// exactly.
    fn check_ledger(&mut self, after_crash: bool) -> PstmResult<()> {
        let mut extra = Vec::with_capacity(self.config.resources);
        for r in 0..self.config.resources {
            let d = self.config.initial - self.read_value(r)?;
            extra.push(d - self.acked[r]);
        }
        let in_flight = if after_crash { self.in_flight.take() } else { None };
        match in_flight {
            Some(w) => {
                let none_survived = extra.iter().all(|&e| e == 0);
                let whole_sst_survived =
                    (0..self.config.resources).all(|r| extra[r] == w.get(&r).copied().unwrap_or(0));
                if none_survived {
                    // Invariant 2, absent case: the crash discarded the
                    // commit entirely. The session stays "lost".
                } else if whole_sst_survived {
                    // Invariant 2, applied case: the fused SST outlived
                    // the crash whole. Fold it into the ledger so every
                    // later epoch re-proves it is never applied twice.
                    for (r, subs) in &w {
                        self.acked[*r] += subs;
                    }
                    self.in_flight = Some(w); // signal "applied" to caller
                } else {
                    self.violations.push(format!(
                        "partial SST visible after recovery: intents {w:?}, unexplained deltas \
                         {extra:?} (invariant 2)"
                    ));
                }
            }
            None => {
                if extra.iter().any(|&e| e != 0) {
                    self.violations.push(format!(
                        "ledger mismatch with no commit in flight: unexplained deltas {extra:?} \
                         (invariant 1: acked commits lost or applied twice)"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One session in a wave: txn id, its (sorted, deduped) shard set, its
/// planned `Sub(1)` counts per resource index, and whether it is still
/// unsettled (not aborted during execution, no commit fate yet).
type WaveSession = (TxnId, Vec<usize>, BTreeMap<usize, i64>, bool);

/// Runs one full chaos scenario; see the module docs for the protocol and
/// the invariants. Errors only on harness-level engine failures — injected
/// faults, crashes and invariant violations are all *reported*, not
/// returned.
pub fn run_chaos(config: &ChaosConfig) -> PstmResult<ChaosReport> {
    let world = counter_world(config.resources, config.initial)?;
    // Checkpoint the bootstrap so recovery has an image to rebuild from
    // even if the very first WAL append after it is crashed.
    world.db.checkpoint()?;
    let injector = Arc::new(FaultInjector::new(config.plan.clone()));
    world.db.set_fault_hook(Arc::clone(&injector) as _);

    let mut chaos = Chaos {
        db: Arc::clone(&world.db),
        bindings: world.bindings.clone(),
        resources: world.resources.clone(),
        injector,
        config: config.clone(),
        clock: 0,
        acked: vec![0; config.resources],
        in_flight: None,
        in_flight_txns: Vec::new(),
        recorder: None,
        epoch_no: 0,
        recorder_checks: 0,
        epochs: Vec::new(),
        violations: Vec::new(),
    };
    let mut epoch = chaos.new_epoch()?;

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut committed = 0u64;
    let mut committed_in_doubt = 0u64;
    let mut aborted = 0u64;
    let mut aborted_sst_failure = 0u64;
    let mut lost = 0u64;
    let mut crashes = 0u64;
    let mut recovery_wall_us = Vec::new();
    let mut next_txn = 1u64;
    let mut remaining = config.sessions;

    'run: while remaining > 0 {
        // ---- Open a wave of overlapping sessions ---------------------
        let wave_n = remaining.min(WAVE);
        let mut wave: Vec<WaveSession> = Vec::new();
        for _ in 0..wave_n {
            let txn = TxnId(next_txn);
            next_txn += 1;
            let k = rng.gen_range(1usize..=config.resources.min(3));
            let mut picks: Vec<usize> = (0..config.resources).collect();
            picks.shuffle(&mut rng);
            picks.truncate(k);
            let mut subs: BTreeMap<usize, i64> = BTreeMap::new();
            for op in 0..config.ops_per_session {
                *subs.entry(picks[op % k]).or_insert(0) += 1;
            }
            let mut shards: Vec<usize> =
                picks.iter().map(|&r| chaos.shard_of(chaos.resources[r])).collect();
            shards.sort_unstable();
            shards.dedup();
            wave.push((txn, shards, subs, true));
        }
        remaining -= wave_n;

        // ---- Begin + execute every session (virtual copies overlap) --
        for (txn, shards, subs, alive) in &mut wave {
            for &s in shards.iter() {
                let now = chaos.now();
                epoch.gtms[s].begin(*txn, now)?;
            }
            'ops: for (&r, &n) in subs.iter() {
                let s = chaos.shard_of(chaos.resources[r]);
                for _ in 0..n {
                    let now = chaos.now();
                    let (outcome, _fx) = epoch.gtms[s].execute(
                        *txn,
                        chaos.resources[r],
                        ScalarOp::Sub(Value::Int(1)),
                        now,
                    )?;
                    match outcome {
                        ExecOutcome::Completed(_) => {}
                        ExecOutcome::Waiting | ExecOutcome::Aborted(_) => {
                            // Sub/Sub is compatible under Table I, so a
                            // wait/abort here means a policy knob changed;
                            // release the session everywhere and move on.
                            for &q in shards.iter() {
                                if !(matches!(outcome, ExecOutcome::Aborted(_)) && q == s) {
                                    let now = chaos.now();
                                    epoch.gtms[q].abort(*txn, now)?;
                                }
                            }
                            *alive = false;
                            aborted += 1;
                            break 'ops;
                        }
                    }
                }
            }
        }

        // ---- Commit the wave, one coordinator run at a time -----------
        // A unit is the member list handed to `commit_wave`: one session
        // as the wave of one, or (group-commit mode) all of a shard's
        // single-shard sessions as one wave.
        let mut units: Vec<Vec<usize>> = Vec::new();
        let mut per_shard: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, (_, shards, _, alive)) in wave.iter().enumerate() {
            if !*alive {
                continue;
            }
            if chaos.config.group_commit && shards.len() == 1 {
                per_shard.entry(shards[0]).or_default().push(i);
            } else {
                units.push(vec![i]);
            }
        }
        units.extend(per_shard.into_values());
        for mut idxs in units {
            // Fates land here as members settle — on a crash, members
            // settled by earlier batches keep their acknowledged outcome.
            let mut fates: Vec<(TxnId, CommitResult)> = Vec::new();
            let result = loop {
                let members: Vec<Member<'_>> = idxs
                    .iter()
                    .map(|&i| Member { txn: wave[i].0, home: wave[i].1[0], shards: &wave[i].1 })
                    .collect();
                let mut env = Owned::new(&mut epoch.gtms, chaos.now());
                let done =
                    commit_wave(&mut env, &members, &mut |txn, fate| fates.push((txn, fate)));
                chaos.note_flush(&wave, env.last_flush());
                chaos.clock += env.into_effects().sst_busy.0;
                match done {
                    Ok(deferred) if deferred.is_empty() => break Ok(()),
                    // Deferred members overlapped the batch just flushed:
                    // they go round again, against post-flush state.
                    Ok(deferred) => idxs.retain(|&i| deferred.contains(&wave[i].0)),
                    Err(e) => break Err(e),
                }
            };
            for (txn, fate) in fates {
                let Some(i) = wave.iter().position(|s| s.0 == txn) else { continue };
                wave[i].3 = false;
                match fate {
                    CommitResult::Committed => {
                        for (&r, &n) in &wave[i].2 {
                            chaos.acked[r] += n;
                        }
                        committed += 1;
                    }
                    CommitResult::Aborted(reason) => {
                        aborted += 1;
                        if reason == AbortReason::SstFailure {
                            aborted_sst_failure += 1;
                        }
                    }
                }
            }
            match result {
                Ok(()) => {
                    chaos.in_flight = None;
                    chaos.in_flight_txns.clear();
                }
                Err(PstmError::Crashed(_)) => {
                    // The process died. Volatile state (managers, the
                    // wave's other sessions) perishes; the engine
                    // recovers from checkpoint + WAL.
                    crashes += 1;
                    // Every still-unsettled session is lost, pending
                    // reclassification of the in-flight unit below.
                    let stranded_txns: Vec<TxnId> =
                        wave.iter().filter(|s| s.3).map(|s| s.0).collect();
                    lost += stranded_txns.len() as u64;
                    chaos.close_epoch(&epoch);
                    // Reconstruct the crash picture from the recorder
                    // file *now*, before recovery appends its own events
                    // to the dying epoch's stream — a real post-mortem
                    // reads the file of a process that is already dead.
                    let postmortem = chaos.recorder_postmortem();

                    chaos.injector.disarm();
                    let t0 = pstm_obs::wallclock::wall_now_us();
                    chaos.db.simulate_crash_and_recover()?;
                    let t1 = pstm_obs::wallclock::wall_now_us();
                    recovery_wall_us.push(match (t0, t1) {
                        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
                        _ => None,
                    });

                    chaos.check_ledger(true)?;
                    let unit_survived = chaos.in_flight.take().is_some();
                    if unit_survived {
                        // check_ledger signalled "applied whole": the
                        // unit saw a crash but its fused SST survived —
                        // every member visible exactly once.
                        committed_in_doubt += chaos.in_flight_txns.len() as u64;
                        lost -= chaos.in_flight_txns.len() as u64;
                    }
                    if let Some(pm) = postmortem {
                        // The recorder's in-doubt classification must
                        // agree with the ledger's: exactly the in-flight
                        // unit's members when the SST survived whole,
                        // empty otherwise.
                        let expect_in_doubt =
                            if unit_survived { chaos.in_flight_txns.clone() } else { Vec::new() };
                        chaos.check_postmortem(&pm, stranded_txns, expect_in_doubt);
                    }
                    chaos.in_flight_txns.clear();
                    if crashes < u64::from(config.max_recoveries) {
                        chaos.injector.arm();
                    }
                    epoch = chaos.new_epoch()?;
                    continue 'run;
                }
                Err(e) => return Err(e),
            }
        }
    }

    // ---- Final accounting and certification --------------------------
    chaos.in_flight = None;
    chaos.check_ledger(false)?;
    for (i, gtm) in epoch.gtms.iter().enumerate() {
        if let Err(e) = gtm.check_invariants() {
            chaos.violations.push(format!("shard {i} invariants: {e}"));
        }
    }
    chaos.close_epoch(&epoch);
    // Final quiescent check: with every session settled, the last
    // epoch's post-mortem must reconstruct an empty in-flight picture.
    if let Some(pm) = chaos.recorder_postmortem() {
        chaos.check_postmortem(&pm, Vec::new(), Vec::new());
    }

    let stitched = stitch_streams(&chaos.epochs);
    let certified = match verify_streams(&stitched) {
        Verdict::Serializable(_) => true,
        Verdict::NotSerializable(counterexample) => {
            chaos.violations.push(format!("stitched trace rejected: {counterexample}"));
            false
        }
    };

    let mut final_values = Vec::with_capacity(config.resources);
    for r in 0..config.resources {
        final_values.push(chaos.read_value(r)?);
    }
    let fingerprint = format!(
        "{} | committed={committed} in_doubt={committed_in_doubt} aborted={aborted} \
         lost={lost} crashes={crashes} values={final_values:?}",
        chaos.injector.fingerprint()
    );
    Ok(ChaosReport {
        committed,
        committed_in_doubt,
        aborted,
        aborted_sst_failure,
        lost,
        crashes,
        faults: chaos.injector.schedule(),
        fingerprint,
        violations: chaos.violations,
        certified,
        recovery_wall_us,
        final_values,
        recorder_checks: chaos.recorder_checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_commits_everything_and_certifies() {
        let report = run_chaos(&ChaosConfig::new(1, FaultPlan::new(1))).unwrap();
        assert_eq!(report.committed, 24);
        assert_eq!(report.crashes, 0);
        assert_eq!(report.aborted, 0);
        assert!(report.clean(), "violations: {:?}", report.violations);
        let total: i64 = report.final_values.iter().map(|v| 10_000 - v).sum();
        assert_eq!(total, 24 * 3, "every Sub(1) accounted for");
    }

    #[test]
    fn wal_append_crash_recovers_with_invariants_intact() {
        let plan = FaultPlan::new(2).crash_on_wal_append(3);
        let report = run_chaos(&ChaosConfig::new(2, plan)).unwrap();
        assert_eq!(report.crashes, 1);
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].site, "wal-append");
        assert!(report.clean(), "violations: {:?}", report.violations);
        // Everyone not caught by the crash still finished.
        assert_eq!(report.committed + report.committed_in_doubt + report.aborted + report.lost, 24);
    }

    #[test]
    fn pre_finish_crash_is_committed_in_doubt_exactly_once() {
        let plan = FaultPlan::new(3).crash_at_kind("pre-finish", 2);
        let report = run_chaos(&ChaosConfig::new(3, plan)).unwrap();
        assert_eq!(report.crashes, 1);
        // The fused SST was durable before the crash: the in-flight
        // commit must have survived whole and been folded into the
        // ledger (then re-proven un-duplicated in the next epoch).
        assert_eq!(report.committed_in_doubt, 1);
        assert!(report.clean(), "violations: {:?}", report.violations);
    }

    fn recorder_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pstm-chaos-rec-{}-{name}", std::process::id()))
    }

    #[test]
    fn recorder_mode_cross_checks_every_crash() {
        let dir = recorder_dir("crash");
        let plan = FaultPlan::new(2).crash_on_wal_append(3);
        let report = run_chaos(&ChaosConfig::new(2, plan).with_recorder(&dir)).unwrap();
        assert_eq!(report.crashes, 1);
        assert!(report.clean(), "violations: {:?}", report.violations);
        // One post-mortem per crash plus the final quiescent check.
        assert_eq!(report.recorder_checks, report.crashes + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorder_mode_agrees_with_ledger_on_in_doubt_survivors() {
        // A pre-finish crash strands a durable-but-unacknowledged commit:
        // the ledger reclassifies it as committed-in-doubt, and the
        // post-mortem must reconstruct exactly that set from the file.
        let dir = recorder_dir("indoubt");
        let plan = FaultPlan::new(3).crash_at_kind("pre-finish", 2);
        let report = run_chaos(&ChaosConfig::new(3, plan).with_recorder(&dir)).unwrap();
        assert_eq!(report.committed_in_doubt, 1);
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert_eq!(report.recorder_checks, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorder_mode_leaves_the_fingerprint_untouched() {
        let dir = recorder_dir("parity");
        let config = ChaosConfig::new(7, FaultPlan::random(7));
        let dark = run_chaos(&config).unwrap();
        let recorded = run_chaos(&config.clone().with_recorder(&dir)).unwrap();
        assert_eq!(dark.fingerprint, recorded.fingerprint, "recording must not perturb the run");
        assert_eq!(dark.faults, recorded.faults);
        assert_eq!(recorded.recorder_checks, recorded.crashes + 1);
        assert_eq!(dark.recorder_checks, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn same_seed_and_plan_replay_byte_identically() {
        let config = ChaosConfig::new(7, FaultPlan::random(7));
        let a = run_chaos(&config).unwrap();
        let b = run_chaos(&config).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.faults, b.faults);
        let other = run_chaos(&ChaosConfig::new(8, FaultPlan::random(7))).unwrap();
        assert_ne!(a.fingerprint, other.fingerprint, "different workload seeds should not collide");
    }
}
