//! Mostly-sleeping session-fleet sweep for the reactor front-end.
//!
//! The event-loop front's claim is capacity, not raw speed: a session
//! that sleeps costs an inert state machine plus one timer-wheel entry —
//! no thread, no stack, no queue slot — so a fixed worker pool (≤ 2×
//! CPU count threads) can host 100k+ sessions as long as most of them
//! are asleep at any instant. This sweep spawns fleets of 1k/10k/100k
//! scripted sessions (`--quick`: 1k/10k), each doing a commuting
//! read-modify-write, disconnecting for a scaled nap, reconnecting, and
//! committing. While the fleet naps, a sampler thread reads the census
//! and RSS; the row records the peak sleeping fraction (must reach
//! ≥ 95%), resident memory per session, wake p50/p99 (enqueue→delivery
//! latency through the worker queues), and timer-wheel lag.
//!
//! Writes `results/BENCH_sessions.json`:
//!
//! ```json
//! {"schema": "pstm-bench-sessions/v1", "shards": 8, "workers": N,
//!  "cpus": N, "rows": [{"label": "s100k", "sessions", "sleep_ms",
//!            "wall_s", "tps", "committed", "sleeping_peak",
//!            "mem_per_session_bytes", "wake_p50_us", "wake_p99_us",
//!            "timer_lag_p99_us", "stale_wakes", "spawn_s"}, ...]}
//! ```
//!
//! Rows key the diff tool by `label`; compare artifacts with
//! `pstm_bench_diff` under `bench/thresholds/sessions_smoke.json`.

use pstm_bench::{print_header, write_results};
use pstm_front::reactor::{Fate, ProgramStep, Reactor, ReactorConfig};
use pstm_front::{FrontConfig, ShardedFront};
use pstm_obs::WallEpoch;
use pstm_types::{ScalarOp, Value};
use pstm_workload::counter_world;
use serde::Serialize;

const OBJECTS: usize = 256;
const SHARDS: usize = 8;

#[derive(Serialize)]
struct Row {
    label: String,
    sessions: usize,
    sleep_ms: u64,
    wall_s: f64,
    tps: f64,
    committed: u64,
    sleeping_peak: f64,
    mem_per_session_bytes: u64,
    wake_p50_us: u64,
    wake_p99_us: u64,
    timer_lag_p99_us: u64,
    stale_wakes: u64,
    spawn_s: f64,
}

#[derive(Serialize)]
struct Doc {
    schema: &'static str,
    objects: usize,
    shards: usize,
    workers: usize,
    cpus: usize,
    rows: Vec<Row>,
}

/// Resident set size in bytes, from `/proc/self/status` (0 when the
/// platform has no procfs — the memory column is then meaningless but
/// the sweep still runs).
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn label_of(sessions: usize) -> String {
    if sessions.is_multiple_of(1000) {
        format!("s{}k", sessions / 1000)
    } else {
        format!("s{sessions}")
    }
}

fn fleet_point(sessions: usize) -> Row {
    let world = counter_world(OBJECTS, 0).expect("world");
    let front = ShardedFront::new(
        world.db,
        world.bindings,
        FrontConfig { shards: SHARDS, ..FrontConfig::default() },
    );
    let reactor = Reactor::start(
        front.clone(),
        ReactorConfig { workers: 0, tick_interval: std::time::Duration::from_millis(5) },
    )
    .expect("reactor start");

    // Naps scale with the fleet so the whole fleet overlaps mid-sleep
    // even while the spawn flood is still draining.
    let sleep_ms = 400 + (sessions / 50) as u64;
    let rss_before = rss_bytes();

    let start = WallEpoch::now();
    for i in 0..sessions {
        let key = world.resources[i % OBJECTS];
        reactor.spawn_program(vec![
            ProgramStep::Execute(key, ScalarOp::Add(Value::Int(1))),
            ProgramStep::SleepFor(sleep_ms * 1_000),
            ProgramStep::Execute(key, ScalarOp::Add(Value::Int(1))),
            ProgramStep::Commit,
        ]);
    }
    let spawn_s = start.elapsed_s();

    // Sample the fleet while it drains: peak sleeping fraction and peak
    // RSS are what the capacity claim is made of.
    let mut sleeping_peak = 0.0f64;
    let mut rss_peak = rss_before;
    loop {
        let census = reactor.census();
        if census.live() > 0 {
            sleeping_peak = sleeping_peak.max(census.sleeping_fraction());
        }
        rss_peak = rss_peak.max(rss_bytes());
        if census.finished >= sessions as u64 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let wall_s = start.elapsed_s();

    let snapshot = reactor.snapshot();
    let ledger = reactor.ledger();
    let committed = ledger.values().filter(|f| **f == Fate::Committed).count() as u64;
    assert_eq!(committed, sessions as u64, "commuting fleet programs all commit");
    assert_eq!(
        snapshot.queue_depth.iter().sum::<u64>(),
        0,
        "drained fleet leaves no queued messages"
    );
    reactor.shutdown();
    front.check_invariants().expect("invariants");
    front.verify_serializable().expect("serializable");

    Row {
        label: label_of(sessions),
        sessions,
        sleep_ms,
        wall_s,
        tps: committed as f64 / wall_s,
        committed,
        sleeping_peak,
        mem_per_session_bytes: rss_peak.saturating_sub(rss_before) / sessions as u64,
        wake_p50_us: snapshot.wake_latency_us.quantile(0.5),
        wake_p99_us: snapshot.wake_latency_us.quantile(0.99),
        timer_lag_p99_us: snapshot.timer_lag_us.quantile(0.99),
        stale_wakes: snapshot.stale_wakes,
        spawn_s,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let fleets: &[usize] = if quick { &[1_000, 10_000] } else { &[1_000, 10_000, 100_000] };

    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = SHARDS.min(2 * cpus).max(1);
    print_header(
        "BENCH sessions — reactor fleet sweep",
        &["fleet", "tps", "sleep_peak", "mem/session", "wake p50", "wake p99", "lag p99"],
    );
    println!("(workers: {workers}, cpus: {cpus})");
    assert!(workers <= 2 * cpus, "worker pool exceeds the 2x-CPU budget");

    let mut rows = Vec::new();
    for &sessions in fleets {
        let row = fleet_point(sessions);
        println!(
            "{}\t{:.0}\t{:.3}\t{}B\t{}us\t{}us\t{}us",
            row.label,
            row.tps,
            row.sleeping_peak,
            row.mem_per_session_bytes,
            row.wake_p50_us,
            row.wake_p99_us,
            row.timer_lag_p99_us
        );
        // The acceptance bar: the fleet must be overwhelmingly asleep at
        // its peak — that is the regime the reactor exists for.
        assert!(
            row.sleeping_peak >= 0.95,
            "{}: only {:.1}% of the fleet slept concurrently",
            row.label,
            row.sleeping_peak * 100.0
        );
        rows.push(row);
    }

    let doc = Doc {
        schema: "pstm-bench-sessions/v1",
        objects: OBJECTS,
        shards: SHARDS,
        workers,
        cpus,
        rows,
    };
    let path = write_results("BENCH_sessions", &doc).expect("write results");
    println!("\nwrote {}", path.display());
}
