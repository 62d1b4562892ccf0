//! Observability tests for the sharded front-end: span trees, fleet
//! snapshots, per-shard trace integrity under real thread interleavings,
//! and the per-shard-tracer rule.

use pstm_core::gtm::CommitResult;
use pstm_front::{FrontConfig, SessionOutcome, ShardedFront};
use pstm_obs::{
    build_span_trees, Ctr, MetricsRegistry, RingHandle, RingSink, SpanKind, TraceEvent, Tracer,
};
use pstm_types::{ResourceId, ScalarOp, TxnId, Value};
use pstm_workload::counter_world;

const OBJECTS: usize = 8;
const INITIAL: i64 = 1_000_000;

/// A front with one large ring sink per shard; returns the read handles.
fn traced_front(
    shards: usize,
    objects: usize,
) -> (ShardedFront, Vec<RingHandle>, pstm_workload::World) {
    let world = counter_world(objects, INITIAL).unwrap();
    let mut handles = Vec::new();
    let front = ShardedFront::with_shard_tracers(
        world.db.clone(),
        world.bindings.clone(),
        FrontConfig { shards, ..FrontConfig::default() },
        |_| {
            let ring = RingSink::new(1 << 16);
            handles.push(ring.handle());
            Tracer::with_sink(Box::new(ring))
        },
    );
    (front, handles, world)
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "share one tracer")]
fn sharing_one_tracer_across_shards_is_rejected() {
    let world = counter_world(2, INITIAL).unwrap();
    let shared = Tracer::disabled();
    let _ = ShardedFront::with_shard_tracers(
        world.db.clone(),
        world.bindings.clone(),
        FrontConfig { shards: 2, ..FrontConfig::default() },
        |_| shared.clone(),
    );
}

#[test]
fn distinct_tracers_per_shard_are_accepted() {
    let (front, handles, _world) = traced_front(4, OBJECTS);
    assert_eq!(handles.len(), 4);
    for i in 0..4 {
        for j in (i + 1)..4 {
            assert!(!front.shard_tracer(i).same_registry(&front.shard_tracer(j)));
        }
    }
}

#[test]
fn committed_session_emits_a_full_span_tree() {
    let (front, handles, world) = traced_front(2, 2);
    // Objects 0 and 1 land on different shards; shard of object 0 is the
    // session's home, so the whole tree lives in that shard's trace.
    let mut session = front.session();
    let id = session.id();
    session.execute(world.resources[0], ScalarOp::Sub(Value::Int(1))).unwrap();
    session.execute(world.resources[1], ScalarOp::Sub(Value::Int(1))).unwrap();
    assert_eq!(session.commit().unwrap(), CommitResult::Committed);

    let home = front.shard_of(world.resources[0]);
    let trees = build_span_trees(&handles[home].snapshot());
    let roots = &trees[&id];
    assert_eq!(roots.len(), 1, "one session root");
    let root = &roots[0];
    assert_eq!(root.kind, SpanKind::Session);
    assert!(root.close_at.is_some(), "session closed at commit");
    assert!(root.wall_us().is_some(), "front spans carry wall clocks");
    let phases: Vec<&'static str> = root.children.iter().map(|c| c.kind.phase()).collect();
    assert_eq!(phases, vec!["work", "commit"]);
    let commit = root.children.last().unwrap();
    let commit_children: Vec<&'static str> =
        commit.children.iter().map(|c| c.kind.phase()).collect();
    assert_eq!(commit_children, vec!["reconcile", "sst_attempt"]);
}

/// A span boundary's two stamps come from one clock reading: over every
/// boundary of a run, wall clock minus virtual timestamp is the anchored
/// base and nothing else. (They used to be two readings a few dozen
/// nanoseconds apart, which disagree whenever a microsecond ticks over
/// in between.)
#[test]
fn span_boundaries_carry_one_clock_reading() {
    let (front, handles, world) = traced_front(2, OBJECTS);
    for k in 0..400 {
        let mut session = front.session();
        for r in [k % OBJECTS, (k + 1) % OBJECTS] {
            session.execute(world.resources[r], ScalarOp::Sub(Value::Int(1))).unwrap();
        }
        assert_eq!(session.commit().unwrap(), CommitResult::Committed);
    }
    let mut boundaries = 0;
    let mut offsets = std::collections::BTreeSet::new();
    for record in handles.iter().flat_map(RingHandle::snapshot) {
        if let TraceEvent::SpanOpen { wall_us, .. } | TraceEvent::SpanClose { wall_us, .. } =
            record.event
        {
            boundaries += 1;
            offsets.insert(wall_us.expect("clock after 1970") - record.at.0);
        }
    }
    assert!(boundaries >= 2_000, "a few thousand boundaries, got {boundaries}");
    assert_eq!(offsets.len(), 1, "wall − virtual must be one constant: {offsets:?}");
}

#[test]
fn blocked_session_span_names_the_contended_resource() {
    let (front, handles, world) = traced_front(2, 2);
    let r = world.resources[0];

    let mut holder = front.session();
    holder.execute(r, ScalarOp::Assign(Value::Int(7))).unwrap();

    let waiter_id = std::thread::scope(|scope| {
        let waiter_front = front.clone();
        let waiter = scope.spawn(move || {
            let mut session = waiter_front.session();
            let id = session.id();
            let outcome = session.execute(r, ScalarOp::Assign(Value::Int(9))).unwrap();
            assert_eq!(outcome, SessionOutcome::Value(Value::Int(9)));
            assert_eq!(session.commit().unwrap(), CommitResult::Committed);
            id
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(holder.commit().unwrap(), CommitResult::Committed);
        waiter.join().unwrap()
    });

    let home = front.shard_of(r);
    let trees = build_span_trees(&handles[home].snapshot());
    let root = &trees[&waiter_id][0];
    let blocked: Vec<_> = root
        .children
        .iter()
        .filter(|c| matches!(c.kind, SpanKind::Blocked { resource } if resource == r))
        .collect();
    assert_eq!(blocked.len(), 1, "exactly one blocked phase, on the contended resource");
    assert!(blocked[0].close_at.is_some(), "the wait ended");
    assert!(blocked[0].virtual_us() > 0, "the wait took time");

    // The blocked time also lands in the fleet snapshot's hot-object map.
    let snap = front.fleet_snapshot();
    assert!(snap.registry.blocked_by_resource()[&r] > 0);
    assert!(snap.registry.phase_time()["blocked"] > 0);
}

/// A `read_mostly`-shaped stream, seeded: 95 % of its transactions read
/// four distinct counters, 5 % assign one. Only the assigners have writes,
/// so only they flush: `sst_attempts` and `reconciliations` both count the
/// assigners exactly, dark and traced alike, and the traced front's
/// records replay to its live registries. A reader's span tree is
/// `session ⊃ {work, commit ⊃ reconcile}`; an assigner's commit keeps its
/// `sst_attempt`.
#[test]
fn read_mostly_stream_flushes_only_its_writers() {
    const SHARDS: usize = 4;
    const COUNTERS: usize = 16;
    /// Runs the stream; returns the assigners' ids.
    fn stream(front: &ShardedFront, resources: &[ResourceId]) -> Vec<TxnId> {
        let mut rng = 0x5EED_0033_u64;
        let mut below = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let mut writers = Vec::new();
        for _ in 0..400 {
            let mut session = front.session();
            if below(100) < 5 {
                let c = below(COUNTERS);
                session.execute(resources[c], ScalarOp::Assign(Value::Int(7))).unwrap();
                writers.push(session.id());
            } else {
                let mut read = Vec::new();
                while read.len() < 4 {
                    let c = below(COUNTERS);
                    if !read.contains(&c) {
                        read.push(c);
                        session.execute(resources[c], ScalarOp::Read).unwrap();
                    }
                }
            }
            assert_eq!(session.commit().unwrap(), CommitResult::Committed);
        }
        writers
    }

    let world = counter_world(COUNTERS, INITIAL).unwrap();
    let config = FrontConfig { shards: SHARDS, ..FrontConfig::default() };
    let dark = ShardedFront::new(world.db.clone(), world.bindings.clone(), config);
    let writers = stream(&dark, &world.resources);
    assert!(!writers.is_empty() && writers.len() < 40, "{} assigners in 400", writers.len());
    let dark = dark.fleet_snapshot().registry;
    let assigners = writers.len() as u64;
    assert_eq!(dark.counter(Ctr::SstAttempts), assigners, "one flush per assigner, none else");
    assert_eq!(dark.counter(Ctr::Reconciliations), assigners, "one assigned counter each");
    assert_eq!(dark.counter(Ctr::GroupCommits), 0);

    let (front, handles, world) = traced_front(SHARDS, COUNTERS);
    assert_eq!(stream(&front, &world.resources), writers, "the same stream");
    let fleet = front.fleet_snapshot();
    for c in Ctr::ALL {
        assert_eq!(dark.counter(*c), fleet.registry.counter(*c), "dark vs traced: {}", c.name());
    }
    let mut trees = std::collections::BTreeMap::new();
    for (i, handle) in handles.iter().enumerate() {
        let (records, dropped) = handle.snapshot_with_drops();
        assert_eq!(dropped, 0, "shard {i}: ring too small for the stream");
        let replayed = MetricsRegistry::from_records(&records);
        for c in Ctr::ALL {
            let live = fleet.per_shard[i].counter(*c);
            assert_eq!(replayed.counter(*c), live, "shard {i}: replay vs live: {}", c.name());
        }
        trees.extend(build_span_trees(&records));
    }
    assert_eq!(trees.len(), 400, "every session has its tree in its home shard");
    for (txn, roots) in &trees {
        let [root] = &roots[..] else { panic!("{txn}: {} roots", roots.len()) };
        let phases: Vec<&'static str> = root.children.iter().map(|c| c.kind.phase()).collect();
        assert_eq!(phases, ["work", "commit"], "{txn}");
        let commit = &root.children[1];
        let children: Vec<&'static str> = commit.children.iter().map(|c| c.kind.phase()).collect();
        match writers.contains(txn) {
            true => assert_eq!(children, ["reconcile", "sst_attempt"], "assigner {txn}"),
            false => assert_eq!(children, ["reconcile"], "reader {txn}"),
        }
    }
}

/// The satellite's 4-thread trace-integrity check: per-shard sequence
/// numbers are gap-free, and replaying each shard's persisted records
/// reproduces that shard's live registry — so the merged replay equals
/// the merged live snapshot.
#[test]
fn four_thread_traces_are_gap_free_and_replay_to_the_live_snapshot() {
    let (front, handles, world) = traced_front(4, OBJECTS);
    let threads = 4;
    let per_thread = 25;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let front = front.clone();
            let resources = world.resources.clone();
            scope.spawn(move || {
                for j in 0..per_thread {
                    let k = t * per_thread + j;
                    let (a, b) = (k % OBJECTS, (k + 3) % OBJECTS);
                    let mut session = front.session();
                    session.execute(resources[a], ScalarOp::Sub(Value::Int(1))).unwrap();
                    session.execute(resources[b], ScalarOp::Sub(Value::Int(1))).unwrap();
                    session.commit().unwrap();
                }
            });
        }
    });
    front.check_invariants().unwrap();

    let mut merged_replay = MetricsRegistry::new();
    for (i, handle) in handles.iter().enumerate() {
        let (records, dropped) = handle.snapshot_with_drops();
        assert_eq!(dropped, 0, "shard {i}: ring too small for the workload");
        // Gap-free: seq is exactly 0..n in order, no matter how many
        // threads interleaved on the shard.
        for (expect, rec) in records.iter().enumerate() {
            assert_eq!(rec.seq, expect as u64, "shard {i}: sequence gap");
            assert!(rec.thread.is_some(), "shard {i}: record missing its thread tag");
        }
        // Replay == live, per shard.
        let replayed = MetricsRegistry::from_records(&records);
        let live = &front.fleet_snapshot().per_shard[i];
        for c in Ctr::ALL {
            assert_eq!(
                replayed.counter(*c),
                live.counter(*c),
                "shard {i}: replay diverges on {}",
                c.name()
            );
        }
        merged_replay.merge(&replayed);
    }
    // And the merge of replays equals the fleet snapshot.
    let fleet = front.fleet_snapshot();
    for c in Ctr::ALL {
        assert_eq!(
            merged_replay.counter(*c),
            fleet.registry.counter(*c),
            "merged replay diverges on {}",
            c.name()
        );
    }
    assert_eq!(fleet.registry.counter(Ctr::Committed), (threads * per_thread * 2) as u64);
    assert_eq!(fleet.trace_dropped, 0);
}

/// A front built with [`ShardedFront::with_recorder`] streams every
/// shard's trace into the flight-recorder file, heartbeats a metrics
/// delta per fleet snapshot, and the file alone reconstructs the run:
/// `pstm_obs::postmortem` over the re-read bytes agrees with the live
/// registry on what committed, and nothing reads as in-flight after a
/// clean shutdown.
#[test]
fn recorded_front_round_trips_through_postmortem() {
    use pstm_obs::{analyze, read_recorder, Recorder};

    let path =
        std::env::temp_dir().join(format!("pstm-front-rec-{}-roundtrip.rec", std::process::id()));
    let world = counter_world(OBJECTS, INITIAL).unwrap();
    let recorder = Recorder::create(&path, 1 << 18, true).unwrap();
    let front = ShardedFront::with_recorder(
        world.db.clone(),
        world.bindings.clone(),
        FrontConfig { shards: 2, ..FrontConfig::default() },
        recorder.clone(),
    );
    let mut committed = Vec::new();
    for k in 0..6 {
        let mut s = front.session();
        s.execute(world.resources[k % OBJECTS], ScalarOp::Sub(Value::Int(1))).unwrap();
        s.execute(world.resources[(k + 3) % OBJECTS], ScalarOp::Sub(Value::Int(1))).unwrap();
        assert_eq!(s.commit().unwrap(), CommitResult::Committed);
        committed.push(s.id());
    }
    let snap = front.fleet_snapshot();
    let stats = snap.recorder.as_ref().expect("recorded front reports device stats");
    assert!(stats.frames > 0, "trace events must have reached the file");
    assert_eq!(stats.dropped, 0);

    recorder.flush();
    let pm = analyze(&read_recorder(&path).unwrap());
    for id in &committed {
        assert!(pm.committed.contains(id), "{id} committed live but not in the file");
    }
    assert!(pm.in_flight.is_empty(), "clean shutdown leaves nothing in flight");
    assert!(pm.snapshots > 0, "fleet snapshot heartbeat recorded");
    assert_eq!(pm.gaps, 0, "nothing wrapped away");
    std::fs::remove_file(&path).ok();
}

#[test]
fn fleet_snapshot_surfaces_ring_drops() {
    let world = counter_world(2, INITIAL).unwrap();
    // Tiny rings: the workload must overflow them.
    let front = ShardedFront::with_shard_tracers(
        world.db.clone(),
        world.bindings.clone(),
        FrontConfig { shards: 2, ..FrontConfig::default() },
        |_| Tracer::with_sink(Box::new(RingSink::new(4))),
    );
    for _ in 0..10 {
        let mut s = front.session();
        s.execute(world.resources[0], ScalarOp::Sub(Value::Int(1))).unwrap();
        s.execute(world.resources[1], ScalarOp::Sub(Value::Int(1))).unwrap();
        s.commit().unwrap();
    }
    let snap = front.fleet_snapshot();
    assert!(snap.trace_dropped > 0, "tiny rings must have dropped records");
    assert_eq!(snap.per_shard.len(), 2);
    // Registries never lose events to ring eviction — only sinks do.
    assert_eq!(snap.registry.counter(Ctr::Committed), 20);
    let phases = snap.registry.phase_time();
    assert!(phases.contains_key("work") && phases.contains_key("sst_attempt"), "{phases:?}");
}
