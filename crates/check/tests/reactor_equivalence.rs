//! Differential equivalence suite: blocking front vs. event-loop front.
//!
//! The reactor front-end claims to be a *drop-in* execution model — same
//! GTM semantics, different session hosting. This suite proves it on
//! identical seeded workloads run through both fronts:
//!
//! 1. every per-resource final value matches exactly;
//! 2. the acked-commit ledgers (txn → fate) render byte-identically;
//! 3. both runs' trace streams are independently certified serializable
//!    by the `pstm_check` verifier — neither side is merely "the same
//!    wrong answer".
//!
//! Workloads are commuting `Add` programs, every fifth of them read-only
//! (order-independent by Table I, so thread scheduling in the reactor
//! cannot change outcomes; a reader commits with no flush), over
//! uniform and Zipfian key distributions, with sleep/awake churn mixed
//! in: sessions disconnect mid-program and reconnect before committing,
//! exercising the paper's Algorithm 8/9 path on both fronts.

use pstm_check::{verify_streams, TraceStream};
use pstm_core::gtm::CommitResult;
use pstm_front::reactor::{Fate, ProgramStep, Reactor, ReactorConfig};
use pstm_front::{AwakeOutcome, FrontConfig, SessionOutcome, ShardedFront};
use pstm_obs::{RingHandle, RingSink, Tracer};
use pstm_types::{ResourceId, ScalarOp, TxnId, Value};
use pstm_workload::counter_world;
use std::collections::BTreeMap;
use std::time::Duration;

const SHARDS: usize = 4;
const OBJECTS: usize = 16;
const SESSIONS: usize = 60;

/// Seeded xorshift — the only randomness either run sees, so both runs
/// see the *same* workload bit-for-bit.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Zipf-flavored rank in `0..n`: squaring a uniform [0,1) sample
    /// skews mass toward low ranks (~top-4 of 16 keys get most picks) —
    /// enough skew to pile sessions onto hot shards deterministically.
    fn zipf(&mut self, n: usize) -> usize {
        let u = (self.next() % 1_000_000) as f64 / 1_000_000.0;
        ((u * u) * n as f64) as usize % n
    }
}

/// One seeded session program: 2–4 commuting `Add`s — `Read`s for every
/// fifth session — with optional mid-program sleep/awake churn, ending
/// in `Commit`.
fn build_programs(
    seed: u64,
    resources: &[ResourceId],
    zipfian: bool,
    sleep_every: usize,
) -> Vec<Vec<ProgramStep>> {
    let mut rng = Rng(seed | 1);
    (0..SESSIONS)
        .map(|i| {
            let mut program = Vec::new();
            let ops = 2 + rng.below(3);
            for j in 0..ops {
                let key =
                    if zipfian { rng.zipf(resources.len()) } else { rng.below(resources.len()) };
                let delta = 1 + rng.below(9) as i64;
                let op = if i % 5 == 4 { ScalarOp::Read } else { ScalarOp::Add(Value::Int(delta)) };
                program.push(ProgramStep::Execute(resources[key], op));
                if sleep_every != 0 && i % sleep_every == 0 && j == 0 {
                    // Short disconnect: long enough to overlap other
                    // sessions in the reactor, short enough to keep the
                    // suite fast.
                    program.push(ProgramStep::SleepFor(2_000 + rng.below(3_000) as u64));
                }
            }
            program.push(ProgramStep::Commit);
            program
        })
        .collect()
}

/// A traced front: every shard writes its trace into a ring we keep a
/// handle to, so the run can be certified afterwards.
fn traced_front(config: FrontConfig) -> (ShardedFront, Vec<ResourceId>, Vec<RingHandle>) {
    let world = counter_world(OBJECTS, 0).expect("world");
    let mut handles = Vec::new();
    let front = ShardedFront::with_shard_tracers(world.db, world.bindings, config, |_| {
        let ring = RingSink::new(1 << 18);
        handles.push(ring.handle());
        Tracer::with_sink(Box::new(ring))
    });
    (front, world.resources, handles)
}

/// Certifies one run's trace streams with the serializability verifier.
fn certify(label: &str, rings: &[RingHandle]) {
    let streams: Vec<TraceStream> = rings
        .iter()
        .enumerate()
        .map(|(i, ring)| TraceStream { label: format!("shard{i}"), records: ring.snapshot() })
        .collect();
    let verdict = verify_streams(&streams);
    assert!(verdict.is_serializable(), "{label} run failed certification: {verdict:?}");
}

/// Drives every program through a *blocking* session, sequentially, in
/// spawn order — the reference execution. Sleep steps round-trip
/// through the real `sleep()`/`awake()` disconnection path.
fn run_blocking(front: &ShardedFront, programs: &[Vec<ProgramStep>]) -> BTreeMap<TxnId, Fate> {
    let mut ledger = BTreeMap::new();
    for program in programs {
        let mut session = front.session();
        let txn = session.id();
        let mut fate = None;
        for step in program {
            match step {
                ProgramStep::Execute(resource, op) => {
                    match session.execute(*resource, op.clone()).expect("execute") {
                        SessionOutcome::Value(_) => {}
                        SessionOutcome::Aborted(reason) => {
                            fate = Some(Fate::Aborted(reason));
                            break;
                        }
                    }
                }
                ProgramStep::SleepFor(_) => {
                    session.sleep().expect("sleep");
                    match session.awake().expect("awake") {
                        AwakeOutcome::Resumed(_) => {}
                        AwakeOutcome::Aborted => {
                            fate = Some(Fate::AwakeAborted);
                            break;
                        }
                    }
                }
                ProgramStep::Commit => {
                    fate = Some(match session.commit().expect("commit") {
                        CommitResult::Committed => Fate::Committed,
                        CommitResult::Aborted(reason) => Fate::Aborted(reason),
                    });
                    break;
                }
                ProgramStep::Abort => {
                    session.abort().expect("abort");
                    fate = Some(Fate::UserAborted);
                    break;
                }
            }
        }
        ledger.insert(txn, fate.expect("programs end in Commit or Abort"));
    }
    ledger
}

/// Runs the same programs through the threaded reactor, spawned in the
/// same order (so TxnIds line up with the blocking run).
fn run_reactor(front: &ShardedFront, programs: &[Vec<ProgramStep>]) -> BTreeMap<TxnId, Fate> {
    let reactor = Reactor::start(
        front.clone(),
        ReactorConfig { workers: 2, tick_interval: Duration::from_millis(2) },
    )
    .expect("reactor start");
    for program in programs {
        reactor.spawn_program(program.clone());
    }
    reactor.wait_finished(programs.len());
    let ledger = reactor.ledger();
    reactor.shutdown();
    ledger
}

/// The byte-level comparison surface: one line per transaction.
fn render_ledger(ledger: &BTreeMap<TxnId, Fate>) -> String {
    let mut out = String::new();
    for (txn, fate) in ledger {
        out.push_str(&format!("txn={} {fate:?}\n", txn.0));
    }
    out
}

/// Full differential run for one workload shape.
fn assert_equivalent(seed: u64, zipfian: bool, sleep_every: usize) {
    let config = FrontConfig { shards: SHARDS, ..FrontConfig::default() };
    let (bf, br, b_rings) = traced_front(config);
    let (rf, rr, r_rings) = traced_front(config);

    // Both fronts index the same world shape, so programs built against
    // the blocking front's resources are valid for the reactor's.
    let programs = build_programs(seed, &br, zipfian, sleep_every);

    let blocking_ledger = run_blocking(&bf, &programs);
    let reactor_programs: Vec<Vec<ProgramStep>> = programs
        .iter()
        .map(|p| {
            p.iter()
                .map(|s| match s {
                    ProgramStep::Execute(r, op) => {
                        let idx = br.iter().position(|x| x == r).expect("resource index");
                        ProgramStep::Execute(rr[idx], op.clone())
                    }
                    other => other.clone(),
                })
                .collect()
        })
        .collect();
    let reactor_ledger = run_reactor(&rf, &reactor_programs);

    // 1. Byte-identical acked-commit ledgers.
    let b_rendered = render_ledger(&blocking_ledger);
    let r_rendered = render_ledger(&reactor_ledger);
    assert_eq!(b_rendered, r_rendered, "acked-commit ledgers diverge (seed {seed})");
    assert!(
        blocking_ledger.values().any(|f| *f == Fate::Committed),
        "degenerate workload: nothing committed"
    );

    // 2. Identical per-resource final state.
    for (i, (b, r)) in br.iter().zip(rr.iter()).enumerate() {
        assert_eq!(
            bf.resource_value(*b).expect("blocking value"),
            rf.resource_value(*r).expect("reactor value"),
            "resource {i} diverged (seed {seed})"
        );
    }

    // 3. Both trace sets certified serializable, independently.
    bf.check_invariants().expect("blocking invariants");
    rf.check_invariants().expect("reactor invariants");
    certify("blocking", &b_rings);
    certify("reactor", &r_rings);
}

#[test]
fn uniform_workload_is_equivalent_across_fronts() {
    assert_equivalent(0x5EED_0001, false, 0);
}

#[test]
fn uniform_workload_with_sleep_churn_is_equivalent() {
    assert_equivalent(0x5EED_0002, false, 3);
}

#[test]
fn zipfian_workload_is_equivalent_across_fronts() {
    assert_equivalent(0x5EED_0003, true, 0);
}

#[test]
fn zipfian_workload_with_sleep_churn_is_equivalent() {
    assert_equivalent(0x5EED_0004, true, 4);
}
