//! `pstm_ab` — parent against change over the frozen benchmark, and the
//! counts a clock blurs.
//!
//! ```text
//! pstm_ab --parent REV [--pairs N] [--workload W]... [--quick]
//! pstm_ab count [--workload W]... [--quick]
//! ```
//!
//! **Paired.** The change is the working tree. The parent `REV` is cloned
//! (`git clone --no-hardlinks`) into `target/ab/<rev>/` and checked out.
//! Each side builds its own `bench_e2e` with `--offline`, and its own
//! `pstm_ab` if it has one; then, unless `--quick`, the box idles two
//! minutes, because the reference box runs slow for a while after a
//! build frees memory. Pair k runs every workload of `BENCHMARK.json`
//! (or each `--workload`) once per side, seed k + 1, the benchmark's run
//! length, the side that goes first alternating; then each side's
//! `pstm_ab count` over the workloads that have count columns (the
//! timing gates of the others are a single `pstm_ab count` run's, not a
//! comparison's). Every child is reaped with `wait4`: its CPU time,
//! peak RSS and context switches are kept beside its result line in
//! `results/ab/<parent>-<change>.json` (`-quick.json` under `--quick`).
//! The report is one table, one row per (workload, metric) and per count
//! column, judged by `pstm_bench::ab`. Exit 1 when a child fails its gate
//! or reports a failed transaction, when a comparison has no ratio, or
//! (not under `--quick`, whose windows are too short for them) when a
//! metric is beyond its bound. There is no CPU-time verdict: a timed
//! window's CPU time per transaction only restates `tps` (DESIGN.md §7).
//!
//! **Count.** Fixed-count workloads under a counting global allocator,
//! each ending with `check_invariants` and `verify_serializable`:
//!
//! | workload | shape | count columns |
//! |---|---|---|
//! | `rmw` | one client, Read a · Sub a · Sub b, 1 024 counters, 4 shards | allocs, alloc bytes, retained bytes per txn |
//! | `read_mostly` | one client, 95 % four reads, 5 % one `Assign` | allocs, alloc bytes, retained bytes per txn |
//! | `contended` | 64 sessions, 64 counters, 4 shards, 150 µs device sleep: dark, skewed; the observability budget | — |
//! | `fleet` | reactor, 100k sessions (10k `--quick`): Add, sleep, Add, commit | — |
//!
//! Only allocation counts repeat exactly; every other column (tps, CPU
//! per transaction, group size, wake latency) is printed and kept but
//! judged by nothing. `PSTM_TRACE=1` adds one point to the contended
//! workload's budget, tracing only, that records every shard into
//! `results/trace_ab_contended.rec`, each shard checked to replay to its
//! live registry and rendered as `trace_ab_contended_shard<i>.jsonl`.

use pstm_bench::ab::{compare, parse_contract, render, RunResult};
use pstm_bench::{trace_path, trace_recorder, trace_requested, verify_trace, Zipfian};
use pstm_core::gtm::CommitResult;
use pstm_front::reactor::{Fate, ProgramStep, Reactor, ReactorConfig};
use pstm_front::{FrontConfig, SessionOutcome, ShardedFront};
use pstm_obs::prof::{self, CommitPhase};
use pstm_obs::{Ctr, Recorder, RingSink, Sink, TeeSink, Tracer, WallEpoch};
use pstm_types::{ScalarOp, Value};
use pstm_workload::{counter_world, World};
use rand::{Rng, SeedableRng, StdRng};
use serde_json::json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::time::Duration;

const USAGE: &str = "usage: pstm_ab --parent REV [--pairs N] [--workload W]... [--quick]\n       \
                     pstm_ab count [--workload rmw|read_mostly|contended|fleet]... [--quick]";

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts every allocation and the bytes it asks for, and the bytes freed.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and guard nothing.
// `realloc` is the trait's default (alloc + copy + dealloc), so a buffer
// that grows counts one allocation per growth.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, SeqCst);
        ALLOC_BYTES.fetch_add(layout.size() as u64, SeqCst);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED_BYTES.fetch_add(layout.size() as u64, SeqCst);
        // SAFETY: `ptr` came from `alloc` above with this `layout`, i.e.
        // from `System.alloc` with it.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `struct rusage` as 64-bit Linux lays it out: two `timeval`s, then
/// fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    _unused: [i64; 11],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

impl Rusage {
    /// This process's own usage so far.
    fn own() -> Rusage {
        let mut usage = Rusage::default();
        // SAFETY: `who` 0 is RUSAGE_SELF and `usage` is valid for a write
        // of the struct the kernel fills.
        unsafe { getrusage(0, &mut usage) };
        usage
    }

    fn cpu_s(&self) -> f64 {
        (self.utime[0] + self.stime[0]) as f64 + (self.utime[1] + self.stime[1]) as f64 / 1e6
    }
}

/// Runs `cmd` with its stdout captured and reaps it with `wait4`:
/// whether it exited 0, its stdout, and its resource usage.
fn reap_child(cmd: &mut Command) -> Result<(bool, String, Rusage), String> {
    let mut child = cmd.stdout(Stdio::piped()).spawn().map_err(|e| format!("{cmd:?}: {e}"))?;
    let mut out = String::new();
    let mut stdout = child.stdout.take().ok_or("child stdout was not captured")?;
    stdout.read_to_string(&mut out).map_err(|e| format!("{cmd:?}: {e}"))?;
    let pid = i32::try_from(child.id()).map_err(|e| e.to_string())?;
    let (mut status, mut usage) = (0, Rusage::default());
    // SAFETY: `pid` is this process's own child, which nothing else reaps
    // (`child` is never waited on); both pointers are valid for writes.
    if unsafe { wait4(pid, &mut status, 0, &mut usage) } != pid {
        return Err(format!("wait4: {}", std::io::Error::last_os_error()));
    }
    Ok((status == 0, out, usage))
}

/// Runs `cmd` to success and returns its trimmed stdout.
fn run_ok(cmd: &mut Command) -> Result<String, String> {
    let (ok, out, _) = reap_child(cmd)?;
    ok.then(|| out.trim().to_string()).ok_or_else(|| format!("{cmd:?} failed"))
}

/// Where each side builds its executables, relative to its checkout.
const BENCH_E2E: &str = "bench/e2e/target/release/bench_e2e";
const PSTM_AB: &str = "target/release/pstm_ab";

/// Builds `bench_e2e`, and `pstm_ab` if the checkout has it; whether it does.
fn build_side(root: &Path) -> Result<bool, String> {
    eprintln!("pstm_ab: building {}", root.display());
    let cargo = |args: &[&str]| {
        let build = ["build", "--release", "--offline", "--quiet"];
        run_ok(Command::new("cargo").args(build).args(args).current_dir(root))
    };
    cargo(&["--manifest-path", "bench/e2e/Cargo.toml", "--target-dir", "bench/e2e/target"])?;
    let counts = root.join("crates/bench/src/bin/pstm_ab.rs").exists();
    if counts {
        cargo(&["-p", "pstm-bench", "--bin", "pstm_ab", "--target-dir", "target"])?;
    }
    Ok(counts)
}

/// Runs `exe` (relative to each side's checkout) with `args` on both
/// sides, the parent first in even pairs, logging every run; the two
/// result lines when both passed their gates. `failed` is set when one
/// did not.
fn run_pair(
    roots: &[PathBuf; 2],
    exe: &str,
    args: &[&str],
    (pair, label): (u64, &str),
    log: &mut Vec<serde_json::Value>,
    failed: &mut bool,
) -> Option<(RunResult, RunResult)> {
    let mut got = [None, None];
    let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
    for i in order {
        let side = ["parent", "change"][i];
        let ran = reap_child(Command::new(roots[i].join(exe)).args(args).current_dir(&roots[i]));
        let (exited_ok, out, usage) = ran.unwrap_or_else(|e| {
            eprintln!("pstm_ab: {e}");
            (false, String::new(), Rusage::default())
        });
        let line = out.lines().rev().find(|l| l.starts_with('{')).unwrap_or("null");
        got[i] = serde_json::from_str::<RunResult>(line)
            .ok()
            .filter(|r| exited_ok && r.correct && r.failed == 0);
        *failed |= got[i].is_none();
        let (cpu, rss, vcs, ics) = (usage.cpu_s(), usage.maxrss_kb, usage.nvcsw, usage.nivcsw);
        let verdict = if got[i].is_some() { "ok" } else { "FAILED" };
        println!("pair {pair} {side:<6} {label:<12} {verdict}  cpu {cpu:.2} s  max rss {rss} kB  switches {vcs}/{ics}");
        let result: serde_json::Value =
            serde_json::from_str(line).unwrap_or(serde_json::Value::Null);
        log.push(json!({"pair": pair, "side": side, "run": label, "args": (args.join(" ")),
            "exit_ok": exited_ok, "cpu_s": cpu, "max_rss_kb": rss, "voluntary_switches": vcs,
            "involuntary_switches": ics, "result": result}));
    }
    let [parent, change] = got;
    Some((parent?, change?))
}

/// What a pair counts: the workloads with count columns.
const COUNTED: [&str; 5] = ["count", "--workload", "rmw", "--workload", "read_mostly"];

/// Seconds the box idles between building and measuring.
const IDLE_S: u64 = 120;

fn paired_mode(
    rev: &str,
    pairs: u64,
    mut workloads: Vec<String>,
    quick: bool,
) -> Result<bool, String> {
    let git = |args: &[&str]| run_ok(Command::new("git").args(args));
    let root = PathBuf::from(git(&["rev-parse", "--show-toplevel"])?);
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).map_err(|e| e.to_string())?;
    let contract = parse_contract(&text)?;
    if let Some(w) = workloads.iter().find(|w| !contract.workloads.contains(w)) {
        return Err(format!("{w} is not a workload of BENCHMARK.json"));
    }
    if workloads.is_empty() {
        workloads.clone_from(&contract.workloads);
    }
    let parent = git(&["rev-parse", "--short", &format!("{rev}^{{commit}}")])?;
    let change = git(&["describe", "--always", "--dirty"])?;
    let clone = root.join("target/ab").join(&parent);
    let path = |p: &Path| p.to_string_lossy().into_owned();
    if !clone.exists() {
        git(&["clone", "--quiet", "--no-hardlinks", &path(&root), &path(&clone)])?;
    }
    git(&["-C", &path(&clone), "checkout", "--quiet", &parent])?;
    let counting = build_side(&clone)? & build_side(&root)?;
    if !quick {
        eprintln!("pstm_ab: idling {IDLE_S} s before measuring");
        std::thread::sleep(Duration::from_secs(IDLE_S));
    }

    let roots = [clone, root.clone()];
    let seconds = contract.run_seconds.to_string();
    let (mut log, mut failed) = (Vec::new(), false);
    let (mut e2e, mut counts) = (vec![Vec::new(); workloads.len()], Vec::new());
    for k in 0..pairs {
        let seed = (k + 1).to_string();
        for (w, runs) in workloads.iter().zip(&mut e2e) {
            let length = if quick { vec!["--quick"] } else { vec!["--seconds", &seconds] };
            let args = [vec!["--workload", w, "--seed", &seed, "--trace", "0"], length].concat();
            runs.extend(run_pair(&roots, BENCH_E2E, &args, (k, w), &mut log, &mut failed));
        }
        if counting {
            let args = [&COUNTED[..], if quick { &["--quick"] } else { &[] }].concat();
            counts.extend(run_pair(&roots, PSTM_AB, &args, (k, "count"), &mut log, &mut failed));
        }
    }
    if !counting {
        println!("the parent has no pstm_ab: no count columns");
    }

    let mut rows = Vec::new();
    for (w, runs) in workloads.iter().zip(&e2e) {
        rows.extend(compare(w, &contract.metrics, runs));
    }
    if let Some((parent, change)) = counts.first() {
        // Either side's columns: one the other side lacks is an error row.
        let mut columns = parent.count_columns();
        let added = change.count_columns().into_iter();
        columns.extend(added.filter(|c| !parent.metrics.contains_key(&c.name)));
        rows.extend(compare("count", &columns, &counts));
    }
    print!("\n{}", render(&rows));

    let judged = |r: &pstm_bench::ab::Row| {
        json!({"workload": (r.workload), "metric": (r.metric),
               "judged": (r.judged.as_ref().ok()), "error": (r.judged.as_ref().err())})
    };
    let report = json!({"schema": "pstm-ab/v1", "parent": parent, "change": change,
        "pairs": pairs, "quick": quick, "run_seconds": (contract.run_seconds),
        "nproc": (std::thread::available_parallelism().map_or(0, |n| n.get())),
        "runs": log, "rows": (rows.iter().map(judged).collect::<Vec<_>>())});
    // A quick smoke must not overwrite the full comparison of one pair of
    // commits.
    let name = format!("{parent}-{change}{}.json", if quick { "-quick" } else { "" });
    let file = root.join("results/ab").join(name);
    std::fs::create_dir_all(root.join("results/ab"))
        .and_then(|()| std::fs::write(&file, serde_json::to_vec_pretty(&report)?))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("\nwrote {}", file.display());
    Ok(!failed && !rows.iter().any(|r| r.fails(!quick)))
}

/// `(column, value, exact)`: an exact column is a count.
type Column = (String, f64, bool);

fn check_front(front: &ShardedFront) {
    front.check_invariants().expect("invariants");
    front.verify_serializable().expect("serializable");
}

/// An operation on the counter at an index of the world's resources.
type Op = (usize, ScalarOp);

/// Runs `ops` as one transaction of a new
/// session, sleeping `think` before each operation; whether every
/// operation was granted and the commit went through. It allocates
/// nothing of its own, so what a count sees is the system's.
fn run_txn(front: &ShardedFront, world: &World, ops: &[Op], think: Duration) -> bool {
    let mut s = front.session();
    let granted = ops.iter().all(|(k, op)| {
        std::thread::sleep(think);
        let outcome = s.execute(world.resources[*k], op.clone()).expect("execute");
        matches!(outcome, SessionOutcome::Value(_))
    });
    granted && s.commit().expect("commit") == CommitResult::Committed
}

/// One client over 1 024 counters on 4 shards, `rmw`'s or
/// `read_mostly`'s transactions: a tenth of the count uncounted, then
/// the count. What the count leaves allocated is what its transactions
/// retain.
fn one_client(read_mostly: bool, quick: bool) -> Vec<Column> {
    let world = counter_world(1_024, 1 << 40).expect("world");
    let config = FrontConfig { shards: 4, ..FrontConfig::default() };
    let front = ShardedFront::new(world.db.clone(), world.bindings.clone(), config);
    let (mut rng, n) = (StdRng::seed_from_u64(1), world.resources.len());
    let (read, sub) = (ScalarOp::Read, ScalarOp::Sub(Value::Int(1)));
    let txn = |ops: &[Op]| run_txn(&front, &world, ops, Duration::ZERO);
    let mut run = |txns: u64| {
        for _ in 0..txns {
            let a = rng.gen_range(0..n);
            let committed = if !read_mostly {
                let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                txn(&[(a, read.clone()), (a, sub.clone()), (b, sub.clone())])
            } else if rng.gen_range(0..100) < 5 {
                txn(&[(a, ScalarOp::Assign(Value::Int(1 << 40)))])
            } else {
                txn(&[(); 4].map(|()| (rng.gen_range(0..n), read.clone())))
            };
            assert!(committed, "a lone client's transaction aborted");
        }
    };
    let n = if quick { 20_000 } else { 200_000 };
    run(n / 10);
    let counters = || [&ALLOCS, &ALLOC_BYTES, &FREED_BYTES].map(|c| c.load(SeqCst) as i64);
    let before = counters();
    run(n);
    let after = counters();
    let [allocs, bytes, freed] = [0, 1, 2].map(|i| after[i] - before[i]);
    let per_txn = |count: i64| count as f64 / n as f64;
    let columns = vec![
        ("allocs_per_txn".into(), per_txn(allocs), true),
        ("alloc_bytes_per_txn".into(), per_txn(bytes), true),
        ("retained_bytes_per_txn".into(), per_txn(bytes - freed), true),
    ];
    check_front(&front);
    columns
}

const HOT_OBJECTS: usize = 64;
const HOT_SHARDS: usize = 4;
const HOT_SESSIONS: u64 = 64;
/// The modeled LDBS round-trip an SST flush pays: what waiters must park
/// across rather than spin through, and what a fused group shares.
const DEVICE: Duration = Duration::from_micros(150);

/// The operations of a session's `n`-th contended transaction: a uniform
/// Read · Sub of one key, or, skewed, Read a · book a · Sub b on Zipfian
/// keys with every eighth booking an `Assign`.
fn hot_ops(skewed: bool, zipf: &Zipfian, n: u64, rng: &mut StdRng) -> Vec<Op> {
    let sub = ScalarOp::Sub(Value::Int(1));
    if skewed {
        let a = zipf.sample(rng);
        let b = Some(zipf.sample(rng)).filter(|b| *b != a).unwrap_or((a + 1) % HOT_OBJECTS);
        let book = if n % 8 == 7 { ScalarOp::Assign(Value::Int(10_000_000)) } else { sub.clone() };
        vec![(a, ScalarOp::Read), (a, book), (b, sub)]
    } else {
        let k = rng.gen_range(0..HOT_OBJECTS);
        vec![(k, ScalarOp::Read), (k, sub)]
    }
}

/// 64 sessions with no think time committing through the device on 4
/// shards: dark and uniform, or skewed with the profiler on. `[tps, avg
/// group, CPU µs per committed transaction]`.
fn contended_point(skewed: bool, txns: u64) -> [f64; 3] {
    let world = counter_world(HOT_OBJECTS, 10_000_000).expect("world");
    let config = FrontConfig { shards: HOT_SHARDS, ..FrontConfig::default() };
    let front = ShardedFront::new(world.db.clone(), world.bindings.clone(), config);
    world.db.set_apply_latency(DEVICE);
    prof::set_enabled(skewed);
    prof::reset();
    let zipf = Zipfian::new(HOT_OBJECTS, 0.99);
    // One session's commits; it captures only references, so each thread
    // gets a copy.
    let client = |lane: u64| {
        let mut rng = StdRng::seed_from_u64(lane * 7919 + 13);
        let mut txn = |n| {
            let ops = hot_ops(skewed, &zipf, n, &mut rng);
            run_txn(&front, &world, &ops, Duration::ZERO)
        };
        (0..txns).filter(|n| txn(*n)).count() as u64
    };
    let (cpu, clock) = (Rusage::own().cpu_s(), WallEpoch::now());
    let committed: u64 = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..HOT_SESSIONS).map(|l| scope.spawn(move || client(l))).collect();
        clients.into_iter().map(|c| c.join().expect("client panicked")).sum()
    });
    let (wall_s, cpu_s) = (clock.elapsed_s(), Rusage::own().cpu_s() - cpu);
    let profile = prof::snapshot();
    prof::set_enabled(false);
    check_front(&front);

    let registry = front.fleet_snapshot().registry;
    let (groups, members) =
        (registry.counter(Ctr::GroupCommits), registry.counter(Ctr::GroupMembers));
    if skewed {
        let observed = CommitPhase::ALL.iter().filter(|p| profile.ops(**p) > 0).count();
        assert!(observed >= 6, "the profile saw {observed} commit-path phases, not >= 6");
    } else {
        assert_eq!(committed, HOT_SESSIONS * txns, "uniform Subs never abort");
        assert_eq!(registry.counter(Ctr::Committed), committed, "counter drift");
        let within = 2 * groups <= members && members <= committed;
        assert!(within, "{groups} groups of {members} members over {committed} commits");
    }
    let avg_group = if groups == 0 { 0.0 } else { members as f64 / groups as f64 };
    [committed as f64 / wall_s, avg_group, cpu_s * 1e6 / committed.max(1) as f64]
}

/// Which observability layers a budget point runs: tracing (a ring per
/// shard), the phase profiler, a write-through flight recorder.
type Layers = [bool; 3];

/// One point of the observability budget, in the regime it is set for:
/// 4 client threads over 16 counters on 8 shards, every session thinking
/// before each of two `Sub`s on different shards, no device latency, so
/// think time dominates as it does for a mobile client. `traced` records
/// every shard's events into one trace file in place of the ring, and
/// checks that each shard replays to its live registry. Its tps.
fn budget_point(layers: Layers, traced: bool, quick: bool) -> f64 {
    const THREADS: u64 = 4;
    const OBJECTS: usize = 16;
    const SHARDS: usize = 8;
    let [tracing, profiler, recording] = layers;
    let (sessions, think) = if quick { (64, 200) } else { (256, 500) };
    let world = counter_world(OBJECTS, 10_000_000).expect("world");
    let config = FrontConfig { shards: SHARDS, ..FrontConfig::default() };
    // Under `results/`, not the system's temporary directory: `PSTM_TRACE`
    // stays the only environment variable read.
    let rec_path = Path::new("results").join(format!("pstm-ab-{}.rec", std::process::id()));
    // Write-through, as the chaos harness flies it: the budget covers the
    // crash-first configuration.
    let recorder = recording.then(|| {
        std::fs::create_dir_all("results").expect("results/");
        Recorder::create(&rec_path, 1 << 20, true).expect("recorder")
    });
    let trace = traced.then(|| trace_recorder("ab_contended").expect("trace file"));
    let tracer = |i: usize| {
        let events: Option<Box<dyn Sink>> = if let Some(rec) = &trace {
            Some(Box::new(rec.sink(i as u32)))
        } else {
            tracing.then(|| Box::new(RingSink::new(1 << 16)) as Box<dyn Sink>)
        };
        let frames = recorder.as_ref().map(|rec| Box::new(rec.sink(i as u32)) as Box<dyn Sink>);
        match (events, frames) {
            (Some(a), Some(b)) => Tracer::with_sink(Box::new(TeeSink::new(a, b))),
            (Some(sink), None) | (None, Some(sink)) => Tracer::with_sink(sink),
            (None, None) => Tracer::disabled(),
        }
    };
    let front =
        ShardedFront::with_shard_tracers(world.db.clone(), world.bindings.clone(), config, tracer);
    if let Some(rec) = &recorder {
        front.attach_recorder(rec.clone());
    }
    prof::set_enabled(profiler);
    prof::reset();
    let (per_thread, think) = (sessions / THREADS, Duration::from_micros(think));
    let sub = ScalarOp::Sub(Value::Int(1));
    let client = |t: u64| {
        let session = |j: u64| {
            let k = (t * per_thread + j) as usize;
            let (a, b) = (k % OBJECTS, (k + SHARDS + 1) % OBJECTS);
            run_txn(&front, &world, &[(a, sub.clone()), (b, sub.clone())], think)
        };
        (0..per_thread).filter(|j| session(*j)).count() as u64
    };
    let clock = WallEpoch::now();
    let committed: u64 = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..THREADS).map(|t| scope.spawn(move || client(t))).collect();
        clients.into_iter().map(|c| c.join().expect("client panicked")).sum()
    });
    let wall_s = clock.elapsed_s();
    let phase_ops: u64 = CommitPhase::ALL.iter().map(|p| prof::snapshot().ops(*p)).sum();
    prof::set_enabled(false);
    check_front(&front);
    assert_eq!(committed, sessions, "the budget's workload is abort-free");
    assert_eq!(phase_ops > 0, profiler, "{phase_ops} phase observations, profiler {profiler}");
    if traced {
        let tracers: Vec<Tracer> = (0..SHARDS).map(|i| front.shard_tracer(i)).collect();
        let live = front.fleet_snapshot().per_shard;
        let events = verify_trace(&trace_path("ab_contended"), &tracers, &live)
            .unwrap_or_else(|e| panic!("{e}"));
        eprintln!("{events} events of {SHARDS} shards verified");
    }
    if let Some(stats) = recorder.map(|rec| rec.stats()) {
        assert!(stats.frames > 0 && stats.io_errors == 0, "recorder: {stats:?}");
        std::fs::remove_file(&rec_path).ok();
    }
    committed as f64 / wall_s
}

fn contended(quick: bool) -> Vec<Column> {
    let dark = contended_point(false, if quick { 60 } else { 200 });
    assert!(dark[1] > 1.0, "64 committers on 4 shards never fused a group (avg {})", dark[1]);
    // Every cell of tracing × profiler × recorder, interleaved best of
    // three so drift on the box hits every cell alike, within 10 % of the
    // dark cell.
    let cells: Vec<Layers> = (0..8).map(|i| [i & 4 != 0, i & 2 != 0, i & 1 != 0]).collect();
    let mut best = [0.0f64; 8];
    for _ in 0..3 {
        for (tps, layers) in best.iter_mut().zip(&cells) {
            *tps = tps.max(budget_point(*layers, false, quick));
        }
    }
    for (tps, [t, p, r]) in best.iter().zip(&cells) {
        let dark = best[0];
        let within = *tps >= 0.9 * dark;
        assert!(within, "tracing {t}, profiler {p}, recorder {r}: {tps:.0} tps, {dark:.0} dark");
    }
    if trace_requested() {
        budget_point([true, false, false], true, quick);
    }
    let skewed = contended_point(true, if quick { 10 } else { 40 });
    let columns = |(p, v): (&'static str, [f64; 3])| {
        let names = ["tps", "avg_group", "cpu_us_per_txn"];
        names.into_iter().zip(v).map(move |(c, v)| (format!("{p}_{c}"), v, false))
    };
    let mut columns: Vec<Column> =
        [("dark", dark), ("skewed", skewed)].into_iter().flat_map(columns).collect();
    let worst = best.iter().fold(f64::INFINITY, |w, tps| w.min(tps / best[0]));
    columns.push(("budget_dark_tps".into(), best[0], false));
    columns.push(("budget_worst_share".into(), worst, false));
    columns
}

/// Resident set size in bytes (`VmRSS`), 0 where there is no procfs.
fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status.lines().find_map(|l| l.strip_prefix("VmRSS:"));
    kb.and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

fn fleet(quick: bool) -> Vec<Column> {
    let sessions: u64 = if quick { 10_000 } else { 100_000 };
    let world = counter_world(256, 0).expect("world");
    let config = FrontConfig { shards: 8, ..FrontConfig::default() };
    let front = ShardedFront::new(world.db, world.bindings, config);
    let tick = ReactorConfig { workers: 0, tick_interval: Duration::from_millis(5) };
    let reactor = Reactor::start(front.clone(), tick).expect("reactor");
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    assert!(reactor.workers() <= 2 * cpus, "{} workers for {cpus} CPUs", reactor.workers());
    // Naps scale with the fleet so all of it overlaps mid-sleep even while
    // the spawn flood still drains.
    let nap_us = (400 + sessions / 50) * 1_000;
    let (rss_before, clock) = (vm_rss_bytes(), WallEpoch::now());
    for i in 0..sessions as usize {
        let add = ProgramStep::Execute(world.resources[i % 256], ScalarOp::Add(Value::Int(1)));
        let nap = ProgramStep::SleepFor(nap_us);
        reactor.spawn_program(vec![add.clone(), nap, add, ProgramStep::Commit]);
    }
    let (mut sleeping_peak, mut rss_peak, mut census) = (0.0f64, rss_before, reactor.census());
    while census.finished < sessions {
        sleeping_peak = sleeping_peak.max(census.sleeping_fraction());
        rss_peak = rss_peak.max(vm_rss_bytes());
        std::thread::sleep(Duration::from_millis(2));
        census = reactor.census();
    }
    let wall_s = clock.elapsed_s();
    let snapshot = reactor.snapshot();
    let committed = reactor.ledger().values().filter(|f| **f == Fate::Committed).count() as u64;
    assert_eq!(committed, sessions, "every commuting fleet program commits");
    let queued: u64 = snapshot.queue_depth.iter().sum();
    assert_eq!(queued, 0, "a drained fleet leaves no message queued");
    assert!(sleeping_peak >= 0.95, "only {sleeping_peak:.3} of the fleet slept at once");
    reactor.shutdown();
    check_front(&front);
    let (wake, lag) = (&snapshot.wake_latency_us, &snapshot.timer_lag_us);
    [
        ("tps", committed as f64 / wall_s),
        ("sleeping_peak", sleeping_peak),
        ("rss_bytes_per_session", (rss_peak - rss_before) as f64 / sessions as f64),
        ("wake_p50_us", wake.quantile(0.5) as f64),
        ("wake_p99_us", wake.quantile(0.99) as f64),
        ("timer_lag_p99_us", lag.quantile(0.99) as f64),
    ]
    .map(|(name, v)| (name.to_string(), v, false))
    .into()
}

/// A count workload, run at `--quick` length or not.
type Workload = fn(bool) -> Vec<Column>;

/// Each count workload by name.
const COUNT_WORKLOADS: [(&str, Workload); 4] = [
    ("rmw", |quick| one_client(false, quick)),
    ("read_mostly", |quick| one_client(true, quick)),
    ("contended", contended),
    ("fleet", fleet),
];

fn count_mode(workloads: &[String], quick: bool) -> Result<(), String> {
    if let Some(w) = workloads.iter().find(|w| !COUNT_WORKLOADS.iter().any(|(n, _)| n == w)) {
        return Err(format!("{w} is not a count workload"));
    }
    let (mut counts, mut times) = (Vec::new(), Vec::new());
    let chosen = |(w, _): &(&str, _)| workloads.is_empty() || workloads.iter().any(|x| x == w);
    for (w, run) in COUNT_WORKLOADS.into_iter().filter(chosen) {
        for (name, value, exact) in run(quick) {
            println!("{w} {name} {value}{}", if exact { "  (count)" } else { "" });
            let entry = (format!("{w}/{name}"), json!({"value": value}));
            (if exact { &mut counts } else { &mut times }).push(entry);
        }
    }
    let (counts, times) = (serde_json::Value::Map(counts), serde_json::Value::Map(times));
    let line = json!({"correct": true, "failed": 0, "metrics": counts, "times": times});
    println!("{}", serde_json::to_string(&line).map_err(|e| e.to_string())?);
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let counting = args.next_if_eq("count").is_some();
    let (mut parent, mut pairs, mut workloads, mut quick) = (None, Some(10), Vec::new(), false);
    while let Some(flag) = args.next() {
        // A flag missing its value leaves `parent` or `pairs` empty, or
        // names the workload "", which nothing accepts.
        match flag.as_str() {
            "--quick" => quick = true,
            "--workload" => workloads.push(args.next().unwrap_or_default()),
            "--parent" if !counting => parent = args.next(),
            "--pairs" if !counting => pairs = args.next().and_then(|n| n.parse().ok()),
            _ => {
                eprintln!("pstm_ab: bad argument '{flag}'\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let outcome = match (counting, parent, pairs.filter(|n| *n > 0)) {
        (true, _, _) => count_mode(&workloads, quick).map(|()| true),
        (false, Some(rev), Some(pairs)) => paired_mode(&rev, pairs, workloads, quick),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(passed) => ExitCode::from(u8::from(!passed)),
        Err(e) => {
            eprintln!("pstm_ab: {e}");
            ExitCode::FAILURE
        }
    }
}
