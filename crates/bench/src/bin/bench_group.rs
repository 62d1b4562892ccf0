//! Commit-path sweep for group commit (the companion artifact to
//! `bench_breakdown`'s phase table).
//!
//! Every transaction is a single-object read-modify-write (read key,
//! book an additive `Sub`, commit), so every commit is single-shard and
//! queues at its shard: committers that meet at the shard's flush fence
//! fuse into one WAL group flush and one SST batch. The sweep runs each
//! (sessions, distribution) point against a fresh world and reports
//! throughput, how much actually fused, and the per-committed-transaction
//! nanoseconds of the phases fusing exists to amortize. Every point
//! models the LDBS device round-trip with `Database::set_apply_latency`:
//! an SST flush pays the trip whether it carries one commit or a fused
//! group, which is precisely the cost there is to share. (Until PR 22
//! fusing was a `FrontConfig` switch and the sweep ran every point both
//! ways; EXPERIMENTS.md keeps the unfused numbers.)
//!
//! Writes `results/BENCH_group.json`:
//!
//! ```json
//! {"schema": "pstm-bench-group/v1", "objects": 64, "shards": 4,
//!  "rows": [{"label": "s64_uniform_batched", "sessions", "distribution",
//!            "theta", "txns", "committed", "aborted",
//!            "wall_s", "tps", "group_commits", "group_members",
//!            "avg_group", "wal_append_ns_per_commit",
//!            "sst_apply_ns_per_commit", "reconcile_ns_per_commit",
//!            "group_wait_ns_per_commit"}, ...]}
//! ```
//!
//! Rows key the diff tool by their `label`; the `_batched` suffix is
//! what the checked-in baseline has always called these rows. Compare
//! artifacts with `pstm_bench_diff` under
//! `bench/thresholds/group_smoke.json`.

use pstm_bench::{print_header, write_results, Zipfian};
use pstm_core::gtm::CommitResult;
use pstm_front::{FrontConfig, SessionOutcome, ShardedFront};
use pstm_obs::prof::{self, CommitPhase};
use pstm_obs::{Ctr, RingSink, Tracer, WallEpoch};
use pstm_types::{ScalarOp, Value};
use pstm_workload::counter_world;
use rand::{Rng, SeedableRng, StdRng};
use serde::Serialize;

const OBJECTS: usize = 64;
const SHARDS: usize = 4;
const INITIAL: i64 = 10_000_000;
const ZIPF_THETA: f64 = 0.99;
/// Modeled LDBS round-trip per SST flush (`Database::set_apply_latency`)
/// — the device cost a fused batch pays once instead of N times.
const DEVICE_US: u64 = 150;

#[derive(Serialize)]
struct Row {
    label: String,
    sessions: usize,
    distribution: &'static str,
    theta: f64,
    txns: u64,
    committed: u64,
    aborted: u64,
    wall_s: f64,
    tps: f64,
    group_commits: u64,
    group_members: u64,
    avg_group: f64,
    wal_append_ns_per_commit: u64,
    sst_apply_ns_per_commit: u64,
    reconcile_ns_per_commit: u64,
    group_wait_ns_per_commit: u64,
}

#[derive(Serialize)]
struct Doc {
    schema: &'static str,
    objects: usize,
    shards: usize,
    rows: Vec<Row>,
}

#[derive(Clone, Copy)]
enum Dist {
    Uniform,
    Zipfian,
}

impl Dist {
    fn label(self) -> &'static str {
        match self {
            Dist::Uniform => "uniform",
            Dist::Zipfian => "zipfian",
        }
    }

    fn theta(self) -> f64 {
        match self {
            Dist::Uniform => 0.0,
            Dist::Zipfian => ZIPF_THETA,
        }
    }
}

fn sweep_point(sessions: usize, dist: Dist, txns_per_session: u64) -> Row {
    let world = counter_world(OBJECTS, INITIAL).expect("world");
    let front = ShardedFront::with_shard_tracers(
        world.db.clone(),
        world.bindings.clone(),
        FrontConfig { shards: SHARDS, ..FrontConfig::default() },
        |_| Tracer::with_sink(Box::new(RingSink::new(1 << 14))),
    );
    world.db.set_apply_latency(std::time::Duration::from_micros(DEVICE_US));
    let zipf = Zipfian::new(OBJECTS, ZIPF_THETA);

    prof::reset();
    let start = WallEpoch::now();
    let mut committed = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for lane in 0..sessions {
            let front = front.clone();
            let resources = world.resources.clone();
            let zipf = zipf.clone();
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(lane as u64 * 7919 + 13);
                let mut ok = 0u64;
                for _ in 0..txns_per_session {
                    let k = match dist {
                        Dist::Uniform => rng.gen_range(0..OBJECTS),
                        Dist::Zipfian => zipf.sample(&mut rng),
                    };
                    let mut session = front.session();
                    for op in [ScalarOp::Read, ScalarOp::Sub(Value::Int(1))] {
                        match session.execute(resources[k], op) {
                            Ok(SessionOutcome::Value(_)) => {}
                            Ok(SessionOutcome::Aborted(_)) => panic!("additive RMW aborted"),
                            Err(e) => panic!("execute failed: {e}"),
                        }
                    }
                    match session.commit().expect("commit failed") {
                        CommitResult::Committed => ok += 1,
                        CommitResult::Aborted(_) => {}
                    }
                }
                ok
            }));
        }
        for h in handles {
            committed += h.join().expect("worker panicked");
        }
    });
    let wall_s = start.elapsed_s();
    let profile = prof::snapshot();

    front.check_invariants().expect("invariants");
    front.verify_serializable().expect("serializable");

    let fleet = front.fleet_snapshot();
    let group_commits = fleet.registry.counter(Ctr::GroupCommits);
    let group_members = fleet.registry.counter(Ctr::GroupMembers);
    let txns = sessions as u64 * txns_per_session;
    assert_eq!(fleet.registry.counter(Ctr::Committed), committed, "counter drift");
    // A flush of one is not a group, so members of groups are at most
    // the commits — and at least two per group.
    assert!(group_members <= committed, "a commit is a member of at most one group");
    assert!(group_members >= 2 * group_commits, "a group has at least two members");

    Row {
        label: format!("s{sessions}_{}_batched", dist.label()),
        sessions,
        distribution: dist.label(),
        theta: dist.theta(),
        txns,
        committed,
        aborted: txns - committed,
        wall_s,
        tps: committed as f64 / wall_s,
        group_commits,
        group_members,
        avg_group: if group_commits == 0 {
            0.0
        } else {
            group_members as f64 / group_commits as f64
        },
        wal_append_ns_per_commit: profile.ns(CommitPhase::WalAppend) / committed.max(1),
        sst_apply_ns_per_commit: profile.ns(CommitPhase::SstApply) / committed.max(1),
        reconcile_ns_per_commit: profile.ns(CommitPhase::Reconcile) / committed.max(1),
        group_wait_ns_per_commit: profile.ns(CommitPhase::GroupWait) / committed.max(1),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let txns_per_session = if quick { 60 } else { 400 };

    prof::set_enabled(true);
    print_header(
        "BENCH group — commit path under a modeled device round-trip",
        &["point", "tps", "avg_group", "wal ns/op", "sst ns/op", "wait ns/op"],
    );

    let mut rows = Vec::new();
    for dist in [Dist::Uniform, Dist::Zipfian] {
        for sessions in [8, 64] {
            let row = sweep_point(sessions, dist, txns_per_session);
            println!(
                "{}\t{:.0}\t{:.2}\t{}\t{}\t{}",
                row.label,
                row.tps,
                row.avg_group,
                row.wal_append_ns_per_commit,
                row.sst_apply_ns_per_commit,
                row.group_wait_ns_per_commit
            );
            rows.push(row);
        }
    }

    // Wiring bar (not the perf bar — that is enforced by diffing the
    // artifact against the checked-in baseline): committers must actually
    // fuse under contention.
    for row in rows.iter().filter(|r| r.sessions == 64) {
        assert!(row.avg_group > 1.0, "{}: never fused a group (avg {})", row.label, row.avg_group);
    }

    let doc = Doc { schema: "pstm-bench-group/v1", objects: OBJECTS, shards: SHARDS, rows };
    let path = write_results("BENCH_group", &doc).expect("write results");
    println!("\nwrote {}", path.display());
}
