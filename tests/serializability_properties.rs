//! Property-based end-to-end serializability: random mobile workloads
//! driven through the full stack (workload → simulator → GTM → storage
//! engine) must always leave the database in a state reachable by some
//! serial execution — checked by replaying the committed history in
//! commit order (final-state equivalence, the §V claim).

use preserial::gtm::{CommitResult, Gtm, GtmConfig};
use preserial::obs::{RingSink, Tracer};
use preserial::sim::{GtmBackend, Runner, RunnerConfig};
use preserial::workload::{counter_world, PaperWorkload};
use proptest::prelude::*;
use pstm_check::{verify_records, verify_streams, TraceStream, Verdict};
use pstm_core::policy::{AdmissionPolicy, StarvationPolicy};
use pstm_front::{FrontConfig, ShardedFront};
use pstm_types::{Duration, ScalarOp, Value};

fn run_and_verify(workload: &PaperWorkload, config: GtmConfig) {
    let world = counter_world(5, 10_000).expect("world");
    let scripts = workload.scripts(&world.resources);
    let ring = RingSink::new(1 << 20);
    let trace = ring.handle();
    let gtm = Gtm::new(world.db.clone(), world.bindings, config)
        .with_tracer(Tracer::with_sink(Box::new(ring)));
    let (report, backend) = Runner::new(GtmBackend(gtm), scripts, RunnerConfig::default())
        .run_with_backend()
        .expect("run");
    assert_eq!(report.unfinished, 0, "workload must drain");
    backend.0.verify_serializable().expect("final-state serializability");
    // Conservation law: with only subtractions committing against large
    // counters, each committed subtraction removes exactly one unit.
    let committed_subs = backend.0.history().replay_serial().expect("replay");
    let total: i64 = committed_subs.values().map(|v| v.as_int().unwrap_or(0)).sum();
    assert!(total <= 50_000, "counters can only shrink from 5 × 10000");
    // Independent certification: the external verifier rebuilds the
    // precedence graph from the emitted trace alone and must agree.
    let (records, dropped) = trace.snapshot_with_drops();
    assert_eq!(dropped, 0, "ring too small for the run");
    match verify_records(&records) {
        Verdict::Serializable(cert) => {
            assert_eq!(cert.committed as u64, backend.0.history().commit_order().0);
        }
        Verdict::NotSerializable(cycle) => panic!("verifier rejected a GTM history:\n{cycle}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Paper defaults, random α/β/seed.
    #[test]
    fn prop_random_workloads_serializable(
        alpha in 0.0f64..1.0,
        beta in 0.0f64..0.5,
        seed in 0u64..1_000,
    ) {
        let workload = PaperWorkload {
            n_txns: 60,
            alpha,
            beta,
            interarrival: Duration::from_secs_f64(0.2),
            seed,
            ..PaperWorkload::default()
        };
        run_and_verify(&workload, GtmConfig::default());
    }

    /// The §VII extensions must preserve serializability.
    #[test]
    fn prop_policies_preserve_serializability(
        seed in 0u64..1_000,
        starve in 1usize..4,
        unit in 1i64..3,
    ) {
        let workload = PaperWorkload {
            n_txns: 50,
            alpha: 0.8,
            beta: 0.2,
            interarrival: Duration::from_secs_f64(0.15),
            seed,
            ..PaperWorkload::default()
        };
        let config = GtmConfig {
            starvation: Some(StarvationPolicy { deny_threshold: starve }),
            admission: Some(AdmissionPolicy { unit, max_holders: usize::MAX }),
            wait_timeout: Some(Duration::from_secs_f64(60.0)),
            ..GtmConfig::default()
        };
        run_and_verify(&workload, config);
    }
}

/// Drives interleaved sessions through the sharded front-end (including
/// cross-shard commits) with one ring sink per shard, then certifies the
/// multi-stream trace with the external verifier.
fn run_front_and_certify(seed: u64, n_sessions: usize) {
    const SHARDS: usize = 4;
    const OBJECTS: usize = 8;
    let world = counter_world(OBJECTS, 10_000).expect("world");
    let mut handles = Vec::new();
    let front = ShardedFront::with_shard_tracers(
        world.db.clone(),
        world.bindings.clone(),
        FrontConfig { shards: SHARDS, ..FrontConfig::default() },
        |_| {
            let ring = RingSink::new(1 << 18);
            handles.push(ring.handle());
            Tracer::with_sink(Box::new(ring))
        },
    );

    // Interleave the sessions' operations (xorshift on the seed picks
    // resources), so grants overlap within and across shards before any
    // commit runs. Add/sub ops keep every pair compatible — all sessions
    // share freely and every commit reconciles.
    let mut rng = seed.wrapping_mul(2).wrapping_add(1);
    let mut step = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng as usize
    };
    let mut sessions: Vec<_> = (0..n_sessions).map(|_| front.session()).collect();
    for round in 0..3 {
        for s in &mut sessions {
            let r = world.resources[step() % OBJECTS];
            s.execute(r, ScalarOp::Add(Value::Int(round + 1))).expect("execute");
        }
    }
    let mut committed = 0usize;
    for mut s in sessions {
        if matches!(s.commit().expect("commit"), CommitResult::Committed) {
            committed += 1;
        }
    }
    front.verify_serializable().expect("per-shard replay");

    let streams: Vec<TraceStream> = handles
        .iter()
        .enumerate()
        .map(|(i, h)| {
            let (records, dropped) = h.snapshot_with_drops();
            assert_eq!(dropped, 0, "shard {i} ring too small");
            TraceStream { label: format!("shard{i}"), records }
        })
        .collect();
    match verify_streams(&streams) {
        Verdict::Serializable(cert) => {
            assert_eq!(cert.committed, committed, "every commit certified");
        }
        Verdict::NotSerializable(cycle) => {
            panic!("verifier rejected a cross-shard front history:\n{cycle}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cross-shard commits through the front-end stay certifiable from
    /// their per-shard traces alone.
    #[test]
    fn prop_front_cross_shard_histories_certified(
        seed in 0u64..10_000,
        n_sessions in 2usize..8,
    ) {
        run_front_and_certify(seed, n_sessions);
    }
}

/// Deterministic regression of one dense, disconnect-heavy configuration.
#[test]
fn dense_disconnect_heavy_workload_serializable() {
    let workload = PaperWorkload {
        n_txns: 200,
        alpha: 0.75,
        beta: 0.4,
        interarrival: Duration::from_secs_f64(0.05),
        seed: 2008,
        ..PaperWorkload::default()
    };
    run_and_verify(&workload, GtmConfig::default());
}
