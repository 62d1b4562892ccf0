//! `fleet_mobile`: a closed population of scripted reactor sessions —
//! the paper's scenario. One generator thread keeps
//! [`FLEET_POPULATION`] sessions alive, replacing finished ones in
//! batches; a traced run adds an open-loop probe from a second thread.

use crate::gen::{entry, Step, Txn, Workload, FLEET_BATCH, FLEET_POPULATION};
use crate::measure::{cpu_seconds, rss_bytes, Clock, Limit};
use crate::system::System;
use crate::trace::{Call, Span, SpanLog, Spans, NO_PARENT};
use crate::watchdog::{self, Watchdog};
use pstm_core::gtm::CommitResult;
use pstm_front::reactor::{Fate, ProgramStep, Reactor};
use pstm_front::SessionOutcome;
use pstm_obs::{prof, PhaseProfile, ReactorSnapshot};
use pstm_types::{ResourceId, ScalarOp, TxnId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The id buffer is sized for this session rate and touched before the
/// window opens (see `blocking::CAP_TPS`).
const CAP_SPS: f64 = 100_000.0;

/// The probe's open-loop period: short enough that a quarter of the
/// default `--seconds` holds the 1000 probes a p99 needs, long enough
/// that probes stay a few percent of the fleet's load.
const PROBE_PERIOD_NS: u64 = 2_000_000;

/// One probe transaction (`Read c · Sub c · commit` through a
/// `SessionHandle`), timed from the instant it was due.
pub struct Probe {
    pub id: TxnId,
    pub counter: u16,
    pub committed: bool,
    /// Due instant → commit ack (or abort).
    pub latency_ns: u64,
    /// How late the generator issued it.
    pub late_ns: u64,
}

pub struct FleetRun {
    pub window_s: f64,
    /// Programs that finished inside the window, by fate.
    pub attempted: u64,
    pub committed: u64,
    pub awake_aborted: u64,
    pub lock_timeouts: u64,
    pub other_aborts: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub rss_before: u64,
    pub rss_after: u64,
    pub cpu_s: f64,
    /// Programs spawned over the whole run; `ids[i]` is program `i`'s
    /// transaction id.
    pub spawned: u64,
    pub ids: Vec<u64>,
    /// Every finished session's fate, probes included.
    pub ledger: BTreeMap<TxnId, Fate>,
    pub probes: Vec<Probe>,
    pub spawn_spans: Vec<Span>,
    pub probe_spans: Vec<Span>,
    /// Highest sleeping share of live sessions, and deepest total worker
    /// queue, seen at a batch boundary of the window (traced runs).
    pub sleeping_peak: f64,
    pub queue_depth_max: u64,
    pub snapshot: ReactorSnapshot,
    pub profile: PhaseProfile,
}

fn program(w: Workload, resources: &[ResourceId], i: u64, txn: Txn) -> Vec<ProgramStep> {
    let (steps, n) = txn.steps(w, i);
    let mut out = Vec::with_capacity(n + 1);
    for step in &steps[..n] {
        out.push(match *step {
            Step::Sleep(us) => ProgramStep::SleepFor(us),
            step => {
                let Some((c, op)) = step.op() else { continue };
                ProgramStep::Execute(resources[usize::from(c)], op)
            }
        });
    }
    out.push(ProgramStep::Commit);
    out
}

struct Generator<'a> {
    reactor: &'a Reactor,
    w: Workload,
    resources: &'a [ResourceId],
    pool: &'a [Txn],
    clock: Clock,
    traced: bool,
    spawned: u64,
    ids: Vec<u64>,
    spans: Vec<Span>,
}

impl Generator<'_> {
    /// Spawns `n` more programs; `false` once the id buffer is full.
    fn spawn(&mut self, n: u64) -> bool {
        for _ in 0..n {
            let i = self.spawned;
            if i as usize >= self.ids.len() {
                return false;
            }
            let program = program(self.w, self.resources, i, entry(self.pool, i));
            let id = if self.traced {
                let start_ns = self.clock.ns();
                let id = self.reactor.spawn_program(program);
                let end_ns = self.clock.ns();
                self.spans.push(Span {
                    call: Call::Spawn,
                    txn: i as u32,
                    parent: NO_PARENT,
                    start_ns,
                    end_ns,
                });
                id
            } else {
                self.reactor.spawn_program(program)
            };
            self.ids[i as usize] = id.0;
            self.spawned += 1;
        }
        watchdog::progress(self.spawned);
        true
    }
}

struct ProbeLog {
    probes: Vec<Probe>,
    spans: Vec<Span>,
}

/// The open-loop probe: one transaction every [`PROBE_PERIOD_NS`] on a
/// fixed schedule, whatever the previous one took.
fn probe_loop(
    reactor: Arc<Reactor>,
    resources: Vec<ResourceId>,
    clock: Clock,
    start_ns: u64,
    seed: u64,
    stop: Arc<AtomicBool>,
    done: Arc<AtomicU64>,
) -> ProbeLog {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70_72_6f_62_65);
    let mut log = SpanLog::new(clock, 1 << 16);
    let mut probes = Vec::new();
    for k in 0u64.. {
        let due_ns = start_ns + k * PROBE_PERIOD_NS;
        let now = clock.ns();
        if now < due_ns {
            std::thread::sleep(std::time::Duration::from_nanos(due_ns - now));
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let issued_ns = clock.ns();
        let counter = rng.gen_range(0..resources.len() as u16);
        let resource = resources[usize::from(counter)];
        log.open(k, due_ns);
        log.resume_at(issued_ns);
        let mut handle = reactor.handle();
        log.lap(Call::Handle);
        let id = handle.id();
        let mut alive = true;
        for op in [ScalarOp::Read, ScalarOp::Sub(Value::Int(1))] {
            alive = matches!(handle.execute(resource, op), Ok(SessionOutcome::Value(_)));
            log.lap(Call::Execute);
            if !alive {
                break;
            }
        }
        let committed = alive && {
            let result = handle.commit();
            log.lap(Call::Commit);
            matches!(result, Ok(CommitResult::Committed))
        };
        let end_ns = clock.ns();
        log.close(end_ns);
        probes.push(Probe {
            id,
            counter,
            committed,
            latency_ns: end_ns - due_ns,
            late_ns: issued_ns.saturating_sub(due_ns),
        });
        done.fetch_add(1, Ordering::SeqCst);
    }
    ProbeLog { probes, spans: log.spans }
}

struct Opened {
    start_ns: u64,
    /// The window closes at the first batch boundary past this instant or
    /// this count of finished programs, whichever the limit set.
    deadline_ns: u64,
    last_target: u64,
    rss_before: u64,
    cpu_before: f64,
    finished_before: BTreeMap<TxnId, Fate>,
    probe: Option<std::thread::JoinHandle<ProbeLog>>,
}

/// Runs the warm-up and one timed window, closed by `limit`, on a freshly
/// built system whose reactor is running.
#[allow(clippy::too_many_arguments)]
pub fn run(
    sys: &System,
    w: Workload,
    pool: &[Txn],
    limit: Limit,
    warmup: u64,
    traced: bool,
    seed: u64,
    dog: &Watchdog,
) -> Result<FleetRun, String> {
    let reactor = Arc::clone(sys.reactor.as_ref().ok_or("fleet_mobile needs a reactor")?);
    dog.watch(&reactor);
    let clock = Clock::start();
    let window_cap = match limit {
        Limit::Seconds(s) => (CAP_SPS * s) as usize,
        Limit::Txns(n) => n as usize,
    };
    let cap = window_cap + (warmup + 2 * FLEET_POPULATION) as usize;
    let mut gen = Generator {
        reactor: &reactor,
        w,
        resources: &sys.resources,
        pool,
        clock,
        traced,
        spawned: 0,
        // Non-zero fill: the pages are resident before `rss_before`.
        ids: vec![u64::MAX; cap],
        spans: Vec::new(),
    };
    let stop = Arc::new(AtomicBool::new(false));
    let probes_done = Arc::new(AtomicU64::new(0));
    let mut sleeping_peak = 0.0f64;
    let mut queue_depth_max = 0;

    dog.phase("warm-up");
    gen.spawn(FLEET_POPULATION);
    let mut opened: Option<Opened> = None;
    let (end_ns, rss_after, cpu_after, finished_after) = loop {
        // Once this many programs have finished, a batch of the
        // population is gone. Probe sessions land in the same ledger.
        let target = gen.spawned - FLEET_POPULATION + FLEET_BATCH;
        reactor.wait_finished((target + probes_done.load(Ordering::SeqCst)) as usize);
        if let Some(window) = &opened {
            if traced {
                let snap = reactor.snapshot();
                sleeping_peak = sleeping_peak.max(snap.census.sleeping_fraction());
                queue_depth_max = queue_depth_max.max(snap.queue_depth.iter().sum());
            }
            let now = clock.ns();
            if now >= window.deadline_ns || target >= window.last_target {
                break (now, rss_bytes(), cpu_seconds(), reactor.ledger());
            }
        } else if target >= warmup {
            dog.phase("timed window");
            let finished_before = reactor.ledger();
            if traced {
                prof::reset();
                prof::set_enabled(true);
            }
            let rss_before = rss_bytes();
            let cpu_before = cpu_seconds();
            let start_ns = clock.ns();
            let probe = traced.then(|| {
                let (reactor, resources) = (Arc::clone(&reactor), sys.resources.clone());
                let (stop, done) = (Arc::clone(&stop), Arc::clone(&probes_done));
                std::thread::spawn(move || {
                    probe_loop(reactor, resources, clock, start_ns, seed, stop, done)
                })
            });
            let (deadline_ns, last_target) = match limit {
                Limit::Seconds(s) => (start_ns + (s * 1e9) as u64, u64::MAX),
                Limit::Txns(n) => (u64::MAX, target + n),
            };
            opened = Some(Opened {
                start_ns,
                deadline_ns,
                last_target,
                rss_before,
                cpu_before,
                finished_before,
                probe,
            });
        }
        if !gen.spawn(FLEET_BATCH) {
            // Faster than the id buffer was sized for: close the window.
            break (clock.ns(), rss_bytes(), cpu_seconds(), reactor.ledger());
        }
    };
    let profile = if traced {
        prof::set_enabled(false);
        prof::snapshot()
    } else {
        PhaseProfile::empty()
    };
    let opened = opened.ok_or("the window never opened")?;

    dog.phase("drain");
    stop.store(true, Ordering::SeqCst);
    let probe_log = match opened.probe {
        Some(thread) => thread.join().map_err(|_| "probe thread panicked")?,
        None => ProbeLog { probes: Vec::new(), spans: Vec::new() },
    };
    reactor.wait_finished(gen.spawned as usize + probe_log.probes.len());
    let ledger = reactor.ledger();
    let snapshot = reactor.snapshot();

    let mut out = FleetRun {
        window_s: (end_ns - opened.start_ns) as f64 / 1e9,
        attempted: 0,
        committed: 0,
        awake_aborted: 0,
        lock_timeouts: 0,
        other_aborts: 0,
        failed: 0,
        first_error: None,
        rss_before: opened.rss_before,
        rss_after,
        cpu_s: cpu_after - opened.cpu_before,
        spawned: gen.spawned,
        ids: gen.ids,
        ledger,
        probes: probe_log.probes,
        spawn_spans: gen.spans,
        probe_spans: probe_log.spans,
        sleeping_peak,
        queue_depth_max,
        snapshot,
        profile,
    };
    out.ids.truncate(out.spawned as usize);
    let probe_ids: std::collections::BTreeSet<TxnId> = out.probes.iter().map(|p| p.id).collect();
    for (id, fate) in &finished_after {
        if opened.finished_before.contains_key(id) || probe_ids.contains(id) {
            continue;
        }
        out.attempted += 1;
        match fate {
            Fate::Committed => out.committed += 1,
            Fate::AwakeAborted => out.awake_aborted += 1,
            Fate::Aborted(pstm_types::AbortReason::LockTimeout) => out.lock_timeouts += 1,
            Fate::Aborted(_) => out.other_aborts += 1,
            Fate::UserAborted | Fate::Failed(_) => {
                out.failed += 1;
                out.first_error.get_or_insert_with(|| format!("{id:?}: {fate:?}"));
            }
        }
    }
    Ok(out)
}
