//! Cross-validation of `pstm-prof` phase accounting against the span
//! model: the nanoseconds the commit-path phase timers bank must fit
//! inside the wall-clock session spans the front-end emits (exclusive
//! accounting means the per-phase sums are disjoint slices of the same
//! timeline), and phase totals must fold to the same profile however the
//! observations are split.
//!
//! The phase profiler is process-global (thread-local slots folded into
//! one static table), so every assertion that touches its state lives in
//! ONE sequential test function; the algebra property test below only
//! manipulates local values and is safe to run concurrently.

use preserial::gtm::CommitResult;
use proptest::prelude::*;
use pstm_front::{FrontConfig, SessionOutcome, ShardedFront};
use pstm_obs::prof::{self, CommitPhase, PhaseProfile};
use pstm_obs::{build_span_trees, RingSink, SpanKind, Tracer};
use pstm_types::{ResourceId, ScalarOp, Value};
use pstm_workload::counter_world;

const OBJECTS: usize = 8;
const SHARDS: usize = 4;
const SESSIONS: usize = 8;

/// A traced sharded front over a fresh counter world, with one ring
/// handle per shard. Built with the profiler off: the world's own WAL
/// appends (table, boot transaction) are no session's time.
fn traced_front() -> (ShardedFront, Vec<ResourceId>, Vec<pstm_obs::RingHandle>) {
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
    (front, world.resources, handles)
}

/// Runs `SESSIONS` single-threaded read-modify-write sessions through
/// `front` — even ones span two shards, odd ones stay on one (and so pass
/// through their shard's commit queue, alone).
fn run_sessions(front: &ShardedFront, resources: &[ResourceId]) {
    for k in 0..SESSIONS {
        let (a, b) = (k % OBJECTS, (k + 3) % OBJECTS);
        let mut session = front.session();
        let ops = [
            (a, ScalarOp::Read),
            (a, ScalarOp::Sub(Value::Int(1))),
            (b, ScalarOp::Sub(Value::Int(1))),
        ];
        for (r, op) in ops.into_iter().take(if k % 2 == 0 { 3 } else { 2 }) {
            match session.execute(resources[r], op).expect("execute") {
                SessionOutcome::Value(_) => {}
                SessionOutcome::Aborted(r) => panic!("uncontended session aborted: {r}"),
            }
        }
        let outcome = session.commit().expect("commit");
        assert!(matches!(outcome, CommitResult::Committed), "single-threaded commit");
    }
}

#[test]
fn phase_totals_fit_inside_session_spans_and_survive_replay() {
    // --- disabled profiler is inert -----------------------------------
    prof::set_enabled(false);
    prof::reset();
    let (front, resources, _) = traced_front();
    run_sessions(&front, &resources);
    assert!(prof::snapshot().is_empty(), "disabled profiler must record nothing");

    // --- live run with the profiler on --------------------------------
    let (front, resources, handles) = traced_front();
    prof::reset();
    prof::set_enabled(true);
    run_sessions(&front, &resources);
    prof::set_enabled(false);
    let profile = prof::snapshot();

    // The single-threaded commit path must light up the taxonomy: one
    // read and one fenced commit per session — single-shard or not —
    // write bookkeeping, reconcile, WAL, and SST-apply underneath. Group
    // wait is time queued behind another committer's flush: alone, none.
    assert_eq!(profile.ops(CommitPhase::Read) as usize, SESSIONS);
    assert_eq!(profile.ops(CommitPhase::Fencing) as usize, SESSIONS);
    assert_eq!(profile.ops(CommitPhase::GroupWait), 0, "nobody else was committing");
    for phase in [
        CommitPhase::Admission,
        CommitPhase::OpBookkeeping,
        CommitPhase::Reconcile,
        CommitPhase::WalAppend,
        CommitPhase::SstApply,
    ] {
        assert!(profile.ops(phase) as usize >= SESSIONS, "missing phase {}", phase.name());
        assert!(profile.ns(phase) > 0, "zero ns in phase {}", phase.name());
    }
    assert_eq!(profile.ops(CommitPhase::AbortUnwind), 0, "nothing aborted");

    // --- sum of phase time <= enclosing span time ----------------------
    // Exclusive accounting makes the phase sums disjoint slices of the
    // sessions' timelines, and every timer runs strictly inside its
    // session span (`ensure_home` opens the root before the first grant;
    // the root closes after commit settles). The slack covers the spans'
    // microsecond quantization and the two clock reads per edge.
    let mut records = Vec::new();
    for h in &handles {
        let (recs, dropped) = h.snapshot_with_drops();
        assert_eq!(dropped, 0, "ring too small");
        records.extend(recs);
    }
    let trees = build_span_trees(&records);
    assert_eq!(trees.len(), SESSIONS, "one tree per session");
    let mut session_wall_ns = 0u64;
    for roots in trees.values() {
        for root in roots {
            assert_eq!(root.kind, SpanKind::Session);
            session_wall_ns +=
                1_000 * root.wall_us().expect("front spans carry wall stamps on both ends");
        }
    }
    let slack_ns = 50_000 * SESSIONS as u64;
    assert!(
        profile.total_ns() <= session_wall_ns + slack_ns,
        "phase ns {} exceed session span wall ns {} (+{} slack)",
        profile.total_ns(),
        session_wall_ns,
        slack_ns
    );

    // --- reset really zeroes the table ---------------------------------
    prof::reset();
    assert!(prof::snapshot().is_empty(), "reset must clear every slot");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Folding algebra: however a stream of observations is split across
    /// profiles, merging recovers the same totals.
    #[test]
    fn prop_phase_totals_survive_registry_merges(
        obs in prop::collection::vec((0usize..CommitPhase::COUNT, 1u64..2_000_000_000), 1..80),
        split in 0usize..80,
    ) {
        let split = split.min(obs.len());
        let phase_of = |i: usize| CommitPhase::ALL[i];

        let mut whole = PhaseProfile::empty();
        let (mut left, mut right) = (PhaseProfile::empty(), PhaseProfile::empty());
        for (i, &(p, ns)) in obs.iter().enumerate() {
            whole.record(phase_of(p), ns);
            if i < split { left.record(phase_of(p), ns) } else { right.record(phase_of(p), ns) }
        }

        let mut merged = left.clone();
        merged.merge(&right);
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(merged.total_ns(), whole.total_ns());
    }
}
