//! `bench_e2e` — the repo's one end-to-end benchmark.
//!
//! ```text
//! bench_e2e --workload W --seed N --seconds S --trace 0|1   one run, one process
//! bench_e2e --all [--traced] [--repeat K [--agree]] [--quick] [--seed N] [--seconds S]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: it builds the
//! system, generates the inputs from the seed, measures one workload for
//! `S` seconds (ten windows, each on a fresh system; the median window
//! is reported), runs the correctness gate on every window, prints one
//! `workload metric value unit` line per metric and, last, one JSON
//! object. The second form runs every workload that way, each in a
//! child process of its own, and writes `results/BENCH_e2e.json`.
//! README.md in this package says what every workload and metric means.

mod blocking;
mod check;
mod fleet;
mod gen;
mod layers;
mod measure;
mod parent;
mod report;
mod system;
mod trace;
mod watchdog;

use blocking::BlockingRun;
use fleet::FleetRun;
use gen::{Txn, Workload, FLEET_POPULATION, WARMUP_TXNS};
use measure::{mean_u64, median, percentile, supported_percentile, Clock, Limit};
use pstm_obs::{CommitPhase, PhaseProfile};
use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use system::System;
use trace::{sorted_ns, Call, Span};
use watchdog::Watchdog;

/// How long one run measures unless `--seconds` says otherwise; the same
/// number as `run_seconds` in BENCHMARK.json.
pub const RUN_SECONDS: f64 = 10.0;

/// A run splits `--seconds` into this many equal windows, each on a
/// freshly built system with a seeded stream of its own, and reports the
/// median window. The windows reuse the memory the one before freed
/// ([`measure::keep_freed_memory`]): what a page fault costs on the
/// reference box depends on whether the host still backs the page, which
/// is the host's business and varies 20-fold (README, "the reference
/// box"). A window that falls into a slow phase of the box is one value
/// in ten.
const WINDOWS: u64 = 10;

/// Before the timed windows, one window of exactly this many transactions
/// measures what a transaction retains. It runs on memory the process has
/// never touched, under the allocator's defaults, and by count: the
/// system's tables grow by doubling, so only an equal count leaves two
/// runs at the same point between two doublings.
const RETENTION_TXNS: u64 = 60_000;

/// A traced run writes every this-many-th transaction's spans.
const TRACE_EVERY: u32 = 100;

#[derive(Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

impl RunArgs {
    fn warmup(&self) -> u64 {
        if self.quick {
            WARMUP_TXNS / 10
        } else {
            WARMUP_TXNS
        }
    }

    fn retention_txns(&self) -> u64 {
        if self.quick {
            RETENTION_TXNS / 10
        } else {
            RETENTION_TXNS
        }
    }

    /// The seed of window `k`'s inputs; 0 is the retention window. Runs
    /// with different `--seed`s share no window seed.
    fn window_seed(&self, k: u64) -> u64 {
        self.seed.wrapping_mul(WINDOWS + 1).wrapping_add(k)
    }

    /// The run's deadline: four times what a healthy run takes on the
    /// reference box (set-up, warm-up, window, gate; a traced run's
    /// replays take about as long as its windows).
    fn deadline(&self) -> std::time::Duration {
        std::time::Duration::from_secs_f64(4.0 * (2.5 * self.seconds + 10.0))
    }
}

enum Ran {
    Blocking(BlockingRun),
    Fleet(Box<FleetRun>),
}

/// What the end-to-end metrics are made of, whichever front ran.
struct Summary {
    attempted: u64,
    committed: u64,
    failed: u64,
    window_s: f64,
    retained_bytes: u64,
    cpu_s: f64,
    /// What a client sees one transaction take, in microseconds: the
    /// exact median of `session()` → commit ack on the blocking fronts;
    /// on the reactor, where no per-session completion time is observable
    /// from outside, the mean residence `population / finish rate`.
    txn_us: f64,
    /// Mean nanoseconds the front is busy per transaction: the mean
    /// sample on the blocking fronts, process CPU per session on the
    /// reactor.
    busy_ns_per_txn: f64,
    /// Mean wall-clock nanoseconds per transaction of the threads that
    /// carry `pstm_obs::prof` timers — the clients, or the reactor's
    /// workers: what the phase profile is a share of.
    profiled_ns_per_txn: f64,
    /// Every timed transaction's nanoseconds, ascending (blocking fronts).
    sorted_ns: Vec<u32>,
}

impl Ran {
    fn summary(&self) -> Result<Summary, String> {
        let s = match self {
            Ran::Blocking(run) => {
                let sorted = run.sorted_samples();
                let mean_ns = mean_u64(sorted.iter().map(|ns| u64::from(*ns)));
                Summary {
                    attempted: run.executed(),
                    committed: run.committed(),
                    failed: run.failed(),
                    window_s: run.window_s,
                    retained_bytes: run.rss_after.saturating_sub(run.rss_before),
                    cpu_s: run.cpu_s,
                    txn_us: percentile(&sorted, 50_000).map_or(0.0, |ns| f64::from(ns) / 1e3),
                    busy_ns_per_txn: mean_ns,
                    profiled_ns_per_txn: mean_ns,
                    sorted_ns: sorted,
                }
            }
            Ran::Fleet(run) => Summary {
                attempted: run.attempted,
                committed: run.committed,
                failed: run.failed,
                window_s: run.window_s,
                retained_bytes: run.rss_after.saturating_sub(run.rss_before),
                cpu_s: run.cpu_s,
                txn_us: FLEET_POPULATION as f64 * run.window_s / run.attempted.max(1) as f64 * 1e6,
                busy_ns_per_txn: run.cpu_s * 1e9 / run.attempted.max(1) as f64,
                profiled_ns_per_txn: system::REACTOR_WORKERS as f64 * run.window_s * 1e9
                    / run.attempted.max(1) as f64,
                sorted_ns: Vec::new(),
            },
        };
        if s.attempted == 0 || s.window_s <= 0.0 {
            return Err("no transaction finished inside the window".into());
        }
        Ok(s)
    }

    fn profile(&self) -> &PhaseProfile {
        match self {
            Ran::Blocking(run) => &run.profile,
            Ran::Fleet(run) => &run.profile,
        }
    }
}

impl Summary {
    fn tps(&self) -> f64 {
        self.committed as f64 / self.window_s
    }
}

/// Builds the system and generates the inputs: what `setup_s` times.
fn set_up(w: Workload, seed: u64) -> Result<(System, Vec<Txn>, f64), String> {
    let clock = Clock::start();
    let sys = system::build(w)?;
    let pool = gen::generate(w, seed);
    Ok((sys, pool, clock.s()))
}

/// One warm-up and timed window on `sys`, then the correctness gate.
fn measure_window(
    sys: &mut System,
    w: Workload,
    pool: &[Txn],
    args: &RunArgs,
    limit: Limit,
    traced: bool,
    dog: &Watchdog,
) -> Result<Ran, String> {
    let ran = if w == Workload::FleetMobile {
        Ran::Fleet(Box::new(fleet::run(
            sys,
            w,
            pool,
            limit,
            args.warmup(),
            traced,
            args.seed,
            dog,
        )?))
    } else {
        Ran::Blocking(blocking::run(sys, w, pool, limit, args.warmup(), traced, dog))
    };
    dog.phase("correctness gate");
    sys.shutdown()?;
    match &ran {
        Ran::Blocking(run) => check::blocking(sys, w, pool, run, args.warmup())?,
        Ran::Fleet(run) => check::fleet(sys, w, pool, run)?,
    }
    Ok(ran)
}

fn common_notes(
    w: Workload,
    args: &RunArgs,
    input_hash: u64,
    window_s: f64,
    attempted: u64,
    committed: u64,
) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("input_hash", format!("{input_hash:#018x}")),
        ("seed", args.seed.to_string()),
        ("clients", if w.clients() == 0 { "reactor".into() } else { w.clients().to_string() }),
        ("nproc", nproc.to_string()),
        ("window_s", format!("{window_s:.6}")),
        ("attempted", attempted.to_string()),
        ("committed", committed.to_string()),
    ]
}

fn joined(values: &[f64], digits: usize) -> String {
    values.iter().map(|v| format!("{v:.digits$}")).collect::<Vec<_>>().join(",")
}

/// The untraced run: every end-to-end metric, from the retention window
/// and [`WINDOWS`] timed windows.
fn end_to_end(w: Workload, args: &RunArgs, dog: &Watchdog) -> Result<Outcome, String> {
    dog.phase("set-up");
    let (mut sys, pool, _) = set_up(w, args.window_seed(0))?;
    let input_hash = gen::input_hash(&pool);
    let limit = Limit::Txns(args.retention_txns());
    let retention = measure_window(&mut sys, w, &pool, args, limit, false, dog)?.summary()?;
    drop((sys, pool));
    let (mut attempted, mut committed, mut failed) =
        (retention.attempted, retention.committed, retention.failed);

    measure::keep_freed_memory();
    let window_s = args.seconds / WINDOWS as f64;
    let (mut setups, mut tps, mut txn_us) = (Vec::new(), Vec::new(), Vec::new());
    // What the timed windows added to RSS: memory that was not reused.
    let (mut fresh_bytes, mut timed) = (0, 0);
    let mut samples: Vec<u32> = Vec::new();
    for k in 1..=WINDOWS {
        dog.phase("set-up");
        let (mut sys, pool, setup_s) = set_up(w, args.window_seed(k))?;
        setups.push(setup_s);
        let limit = Limit::Seconds(window_s);
        let s = measure_window(&mut sys, w, &pool, args, limit, false, dog)?.summary()?;
        attempted += s.attempted;
        committed += s.committed;
        failed += s.failed;
        tps.push(s.tps());
        txn_us.push(s.txn_us);
        fresh_bytes += s.retained_bytes;
        timed += s.attempted;
        samples.extend_from_slice(&s.sorted_ns);
    }

    let mut notes = common_notes(w, args, input_hash, window_s, attempted, committed);
    notes.push(("windows", WINDOWS.to_string()));
    notes.push(("tps_windows", joined(&tps, 0)));
    notes.push(("txn_us_windows", joined(&txn_us, 3)));
    notes.push(("retention_txns", retention.attempted.to_string()));
    notes.push(("fresh_bytes_per_timed_txn", format!("{:.1}", fresh_bytes as f64 / timed as f64)));
    if !samples.is_empty() {
        // The tail is reported as a fact of this run, never gated: on the
        // reference box p99 and beyond vary by 30% run to run.
        samples.sort_unstable();
        notes.push(("txn_samples", samples.len().to_string()));
        if let Some(p) = measure::highest_supported(samples.len()) {
            let ns = percentile(&samples, p).map_or(0, u64::from);
            notes.push(("txn_tail", format!("p{} = {:.3} us", p as f64 / 1e3, ns as f64 / 1e3)));
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("tps", median(&tps)),
            ("txn_us", median(&txn_us)),
            (
                "retained_bytes_per_txn",
                retention.retained_bytes as f64 / retention.attempted as f64,
            ),
            ("commit_share", committed as f64 / attempted as f64),
            ("setup_s", median(&setups)),
        ],
        notes,
    })
}

fn mean_ns(spans: &[Span], call: Call) -> f64 {
    mean_u64(spans.iter().filter(|s| s.call == call).map(Span::ns))
}

/// The traced run: an untraced reference window and a traced window, a
/// quarter of `--seconds` each, then the per-layer replays of the traced
/// window's stream. A short window before them is thrown away: it touches
/// the memory the two then share (see [`WINDOWS`]).
fn traced(w: Workload, args: &RunArgs, dog: &Watchdog) -> Result<Outcome, String> {
    measure::keep_freed_memory();
    let seconds = args.seconds / 4.0;
    let warmup = args.warmup();

    dog.phase("set-up");
    let (mut sys, pool, _) = set_up(w, args.seed)?;
    measure_window(&mut sys, w, &pool, args, Limit::Seconds(seconds / 2.0), false, dog)?;
    drop(sys);

    let limit = Limit::Seconds(seconds);
    let mut sys = system::build(w)?;
    let reference = measure_window(&mut sys, w, &pool, args, limit, false, dog)?.summary()?;
    drop(sys);

    let mut sys = system::build(w)?;
    let ran = measure_window(&mut sys, w, &pool, args, limit, true, dog)?;
    let s = ran.summary()?;
    let sst_retries = sys.front.stats().sst_retries;
    drop(sys);

    let spans: Vec<Span> = match &ran {
        Ran::Blocking(run) => run.spans().copied().collect(),
        Ran::Fleet(run) => run.probe_spans.clone(),
    };
    let n = s.attempted;
    let per_txn = |ns: u64| ns as f64 / n as f64;
    let profile = ran.profile();
    let phase = |p: CommitPhase| per_txn(profile.ns(p));

    dog.phase("layer replays");
    let core = layers::core_replay(w, &pool, warmup, n)?;
    let tail = if args.quick { 2_000 } else { (10_000.0 * args.seconds).min(100_000.0) as u64 };
    let storage = layers::storage_replay(w, &pool, warmup, n, tail)?;
    let seqref_ns = layers::seqref_ns_per_txn(w, &pool, warmup, n);
    let storage_ns_per_txn = storage.reads_ns_per_txn + storage.apply_ns_per_txn;

    let executes = sorted_ns(&spans, Call::Execute);
    let commits = sorted_ns(&spans, Call::Commit);
    let roots = sorted_ns(&spans, Call::Txn);
    let q = |sorted: &[u64], p| supported_percentile(sorted, p).map_or(0.0, |ns| ns as f64);

    let mut metrics = vec![
        (
            "front.session_ns",
            mean_ns(&spans, if w.clients() == 0 { Call::Handle } else { Call::Session }),
        ),
        ("front.execute_ns_mean", mean_u64(executes.iter().copied())),
        ("front.execute_ns_p50", q(&executes, 50_000)),
        ("front.commit_ns_mean", mean_u64(commits.iter().copied())),
        ("front.commit_ns_p50", q(&commits, 50_000)),
        ("front.commit_ns_p99", q(&commits, 99_000)),
        ("front.txn_p99_us", q(&roots, 99_000) / 1e3),
        ("front.txn_p999_us", q(&roots, 99_900) / 1e3),
        ("front.self_ns_per_txn", s.busy_ns_per_txn - core.txn_ns),
        ("front.admission_ns_per_txn", phase(CommitPhase::Admission)),
        ("front.fencing_ns_per_txn", phase(CommitPhase::Fencing)),
        ("front.group_wait_ns_per_txn", phase(CommitPhase::GroupWait)),
        ("reactor.cpu_us_per_txn", s.cpu_s * 1e6 / n as f64),
        ("core.begin_ns", core.begin_ns),
        ("core.execute_ns_mean", core.execute_ns),
        ("core.commit_ns_mean", core.commit_ns),
        ("core.txn_ns", core.txn_ns),
        ("core.self_ns_per_txn", core.txn_ns - storage_ns_per_txn),
        ("core.reconcile_call_ns", layers::reconcile_call_ns()),
        ("core.read_ns_per_txn", phase(CommitPhase::Read)),
        ("core.op_bookkeeping_ns_per_txn", phase(CommitPhase::OpBookkeeping)),
        ("core.reconcile_ns_per_txn", phase(CommitPhase::Reconcile)),
        ("core.abort_unwind_ns_per_txn", phase(CommitPhase::AbortUnwind)),
        ("core.sst_retries", sst_retries as f64),
        ("storage.apply_ns_per_commit", storage.apply_ns_per_commit),
        ("storage.read_ns", storage.read_ns),
        ("storage.wal_append_ns_per_commit", storage.wal_append_ns_per_commit),
        ("storage.wal_bytes_per_commit", storage.wal_bytes_per_commit),
        ("storage.wal_records_per_commit", storage.wal_records_per_commit),
        ("storage.self_ns_per_txn", storage.apply_ns_per_txn - storage.wal_ns_per_txn),
        ("storage.checkpoint_ms", storage.checkpoint_ms),
        ("storage.recover_us_per_commit", storage.recover_us_per_commit),
        ("storage.sst_apply_ns_per_txn", phase(CommitPhase::SstApply)),
        ("storage.wal_append_prof_ns_per_txn", phase(CommitPhase::WalAppend)),
        ("obs.traced_tps_ratio", s.tps() / reference.tps()),
        ("obs.unattributed_share", 1.0 - per_txn(profile.total_ns()) / s.profiled_ns_per_txn),
        ("obs.clock_read_ns", measure::clock_read_ns(&Clock::start())),
        ("seqref.ns_per_txn", seqref_ns),
        ("seqref.overhead_x", s.busy_ns_per_txn / seqref_ns),
    ];
    let mut notes =
        common_notes(w, args, gen::input_hash(&pool), s.window_s, s.attempted, s.committed);
    notes.push(("reference_tps", format!("{:.1}", reference.tps())));
    notes.push(("traced_tps", format!("{:.1}", s.tps())));

    let reactor_metrics: Vec<(&'static str, f64)> = match &ran {
        Ran::Blocking(_) => vec![
            ("reactor.spawn_ns", 0.0),
            ("reactor.sleeping_peak_share", 0.0),
            ("reactor.queue_depth_max", 0.0),
            ("reactor.stale_wakes", 0.0),
            ("reactor.wake_p50_bucket_us", 0.0),
            ("reactor.wake_p99_bucket_us", 0.0),
            ("reactor.timer_lag_p99_bucket_us", 0.0),
            ("reactor.probe_p50_us", 0.0),
            ("reactor.probe_p99_us", 0.0),
            ("reactor.probe_late_max_ms", 0.0),
            ("core.awake_abort_share", 0.0),
            ("core.lock_timeout_share", 0.0),
        ],
        Ran::Fleet(run) => {
            let mut latency: Vec<u64> = run.probes.iter().map(|p| p.latency_ns).collect();
            latency.sort_unstable();
            let late = run.probes.iter().map(|p| p.late_ns).max().unwrap_or(0);
            notes.push(("probes", run.probes.len().to_string()));
            notes.push(("sessions_spawned", run.spawned.to_string()));
            vec![
                ("reactor.spawn_ns", mean_ns(&run.spawn_spans, Call::Spawn)),
                ("reactor.sleeping_peak_share", run.sleeping_peak),
                ("reactor.queue_depth_max", run.queue_depth_max as f64),
                ("reactor.stale_wakes", run.snapshot.stale_wakes as f64),
                // The reactor keeps these as power-of-ten-ish histograms:
                // the values are bucket upper bounds, not measurements.
                ("reactor.wake_p50_bucket_us", run.snapshot.wake_latency_us.quantile(0.5) as f64),
                ("reactor.wake_p99_bucket_us", run.snapshot.wake_latency_us.quantile(0.99) as f64),
                (
                    "reactor.timer_lag_p99_bucket_us",
                    run.snapshot.timer_lag_us.quantile(0.99) as f64,
                ),
                ("reactor.probe_p50_us", q(&latency, 50_000) / 1e3),
                ("reactor.probe_p99_us", q(&latency, 99_000) / 1e3),
                ("reactor.probe_late_max_ms", late as f64 / 1e6),
                ("core.awake_abort_share", run.awake_aborted as f64 / n as f64),
                ("core.lock_timeout_share", run.lock_timeouts as f64 / n as f64),
            ]
        }
    };
    metrics.extend(reactor_metrics);

    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| format!("results/: {e}"))?;
    let path = dir.join(format!("e2e_trace_{}.jsonl", w.name()));
    let all_spans: Vec<Span> = match &ran {
        Ran::Blocking(_) => spans,
        Ran::Fleet(run) => run.spawn_spans.iter().chain(&run.probe_spans).copied().collect(),
    };
    trace::write_jsonl(&path, w.name(), w.clients() == 0, &all_spans, TRACE_EVERY)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(("trace_file", path.display().to_string()));

    Ok(Outcome { attempted: s.attempted, failed: s.failed, metrics, notes })
}

/// One run of one workload in this process. Prints the result; `Err`
/// means no result was printed.
fn run_workload(w: Workload, args: &RunArgs) -> Result<(), String> {
    let dog = watchdog::arm(args.deadline());
    let outcome = if args.trace { traced(w, args, &dog) } else { end_to_end(w, args, &dog) };
    dog.disarm();
    let outcome = outcome?;
    if outcome.failed > 0 {
        return Err(format!("{} of {} transactions failed", outcome.failed, outcome.attempted));
    }
    report::print(w.name(), if args.trace { &PER_LAYER[..] } else { &END_TO_END[..] }, &outcome)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_e2e --workload <rmw_solo|rmw_pair|read_mostly|fleet_mobile> \
         [--seed N] [--seconds S] [--trace 0|1] [--quick]\n       \
         bench_e2e --all [--traced] [--repeat K [--agree]] [--quick] [--seed N] [--seconds S]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = RunArgs { seed: 1, seconds: RUN_SECONDS, trace: false, quick: false };
    let mut workload = None;
    let mut plan = parent::Plan { all: false, traced: false, repeat: 1, agree: false };
    let mut seconds_given = false;
    let mut it = argv.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        let understood = match flag {
            "--quick" => {
                args.quick = true;
                true
            }
            "--all" => {
                plan.all = true;
                true
            }
            "--traced" => {
                plan.traced = true;
                true
            }
            "--agree" => {
                plan.agree = true;
                true
            }
            // Every other flag takes a value.
            _ => match (flag, it.next()) {
                ("--workload", Some(v)) => {
                    workload = Workload::from_name(v);
                    workload.is_some()
                }
                ("--seed", Some(v)) => v.parse().map(|seed| args.seed = seed).is_ok(),
                ("--seconds", Some(v)) => {
                    seconds_given = true;
                    v.parse().map(|s| args.seconds = s).is_ok() && args.seconds > 0.0
                }
                ("--trace", Some(v)) => {
                    args.trace = v == "1";
                    v == "0" || v == "1"
                }
                ("--repeat", Some(v)) => {
                    v.parse().map(|k| plan.repeat = k).is_ok() && plan.repeat >= 1
                }
                _ => false,
            },
        };
        if !understood {
            eprintln!("bench_e2e: bad argument '{flag}'");
            return usage();
        }
    }
    if args.quick && !seconds_given {
        args.seconds = RUN_SECONDS / 20.0;
    }
    match (workload, plan.all) {
        (Some(w), false) => match run_workload(w, &args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bench_e2e: {}: FAILED: {e}", w.name());
                ExitCode::FAILURE
            }
        },
        (None, true) => parent::run(&plan, &args),
        _ => usage(),
    }
}
