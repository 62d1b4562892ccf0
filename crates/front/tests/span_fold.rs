//! A session keeps its own spans and folds them into its home shard's
//! registry once, when it ends; the coordinator's events reach the
//! registry the next time it holds their shard. The fold must be exact:
//! one seeded workload on a dark front counts what it counts on a
//! ring-traced front, and the traced front's live registries equal the
//! replay of its trace.
//!
//! What each ending contributes:
//! - a committed session, or an aborted one (the zero-width `abort`
//!   marker): every span it opened, each closed, with its time;
//! - a session whose commit returned `Err` (an injected crash): the spans
//!   it opened count as opened, but the ones still open (`session`,
//!   `commit`) add no close and no time — in the trace they stay unclosed;
//! - a session dropped unfinished: likewise, its open `session` and
//!   `work` spans count as opened only.
//!
//! Per-phase time is wall-derived, so the two runs agree on which phases
//! have time, and the traced run's replay agrees with its live registries
//! to the microsecond. Nothing of a span stays open in a live registry.

use pstm_core::gtm::{CommitResult, GtmConfig};
use pstm_front::{FrontConfig, SessionOutcome, ShardedFront};
use pstm_obs::{Ctr, MetricsRegistry, RingHandle, RingSink, Tracer};
use pstm_types::{FaultDecision, FaultHook, FaultSite, ScalarOp, Value};
use pstm_workload::counter_world;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Proceeds until armed, then answers one arrival at its site.
struct Armed(AtomicU8);

const IO_ON_APPLY: u8 = 1;
const CRASH_BEFORE_SST: u8 = 2;

impl FaultHook for Armed {
    fn decide(&self, site: FaultSite) -> FaultDecision {
        let armed = self.0.load(Ordering::SeqCst);
        match (armed, site) {
            (IO_ON_APPLY, FaultSite::SstApply) => {
                self.0.store(0, Ordering::SeqCst);
                FaultDecision::Io
            }
            (CRASH_BEFORE_SST, FaultSite::PreSst) => FaultDecision::Crash,
            _ => FaultDecision::Proceed,
        }
    }
}

/// Runs the workload; returns each shard's live registry and, traced,
/// each shard's records.
fn run(traced: bool) -> (Vec<MetricsRegistry>, Vec<RingHandle>) {
    let world = counter_world(5, 1_000).unwrap();
    let r = &world.resources;
    let mut handles = Vec::new();
    let gtm = GtmConfig { sst_retries: 2, ..FrontConfig::default().gtm };
    let front = ShardedFront::with_shard_tracers(
        world.db.clone(),
        world.bindings.clone(),
        FrontConfig { shards: 2, gtm, ..FrontConfig::default() },
        |_| match traced {
            true => {
                let ring = RingSink::new(1 << 12);
                handles.push(ring.handle());
                Tracer::with_sink(Box::new(ring))
            }
            false => Tracer::disabled(),
        },
    );
    let hook = Arc::new(Armed(AtomicU8::new(0)));
    front.database().set_fault_hook(hook.clone());
    let sub = || ScalarOp::Sub(Value::Int(1));

    // Committed, across both shards.
    let mut s = front.session();
    s.execute(r[0], sub()).unwrap();
    s.execute(r[1], sub()).unwrap();
    assert_eq!(s.commit().unwrap(), CommitResult::Committed);

    // Blocked, then resumed: the holder commits once the waiter queued.
    let mut holder = front.session();
    holder.execute(r[2], ScalarOp::Assign(Value::Int(7))).unwrap();
    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| {
            let mut s = front.session();
            let outcome = s.execute(r[2], ScalarOp::Assign(Value::Int(9))).unwrap();
            assert_eq!(outcome, SessionOutcome::Value(Value::Int(9)));
            assert_eq!(s.commit().unwrap(), CommitResult::Committed);
        });
        while front.stats().ops_waited == 0 {
            std::thread::yield_now();
        }
        assert_eq!(holder.commit().unwrap(), CommitResult::Committed);
        waiter.join().unwrap();
    });

    // A flush that fails once and commits on its retry (`sst_attempt{2}`).
    hook.0.store(IO_ON_APPLY, Ordering::SeqCst);
    let mut s = front.session();
    s.execute(r[3], sub()).unwrap();
    assert_eq!(s.commit().unwrap(), CommitResult::Committed);

    // Aborted by its client: the `abort` marker.
    let mut s = front.session();
    s.execute(r[0], sub()).unwrap();
    s.abort().unwrap();

    // Dropped unfinished, on an object nobody else touches.
    let mut s = front.session();
    s.execute(r[4], ScalarOp::Read).unwrap();
    drop(s);

    // A commit the process dies in: its last act on this front.
    hook.0.store(CRASH_BEFORE_SST, Ordering::SeqCst);
    let mut s = front.session();
    s.execute(r[1], sub()).unwrap();
    assert!(s.commit().is_err(), "the injected crash surfaces");
    drop(s);

    (front.fleet_snapshot().per_shard, handles)
}

fn assert_counters_eq(a: &MetricsRegistry, b: &MetricsRegistry, what: &str) {
    for c in Ctr::ALL {
        assert_eq!(a.counter(*c), b.counter(*c), "{what}: counter {}", c.name());
    }
}

#[test]
fn dark_and_traced_fronts_fold_the_same_spans_and_replay_equals_live() {
    let (dark, _) = run(false);
    let (live, handles) = run(true);
    let mut fleet = MetricsRegistry::new();
    for (i, (dark, live)) in dark.iter().zip(&live).enumerate() {
        let shard = format!("shard {i}");
        assert_counters_eq(dark, live, &format!("{shard}, dark vs traced"));
        assert_eq!(
            dark.phase_time().keys().collect::<Vec<_>>(),
            live.phase_time().keys().collect::<Vec<_>>(),
            "{shard}: phases with time"
        );
        assert_eq!(
            dark.blocked_by_resource().keys().collect::<Vec<_>>(),
            live.blocked_by_resource().keys().collect::<Vec<_>>()
        );
        assert_eq!((dark.open_spans(), live.open_spans()), (0, 0), "{shard}: open-span state left");

        let (records, dropped) = handles[i].snapshot_with_drops();
        assert_eq!(dropped, 0, "{shard}: the ring holds the run");
        let replay = MetricsRegistry::from_records(&records);
        assert_counters_eq(&replay, live, &format!("{shard}, replay vs live"));
        assert_eq!(replay.phase_time(), live.phase_time(), "{shard}: per-phase time");
        assert_eq!(replay.blocked_by_resource(), live.blocked_by_resource(), "{shard}");
        fleet.merge(live);
    }
    // Every ending folded: 2 spans for the dropped session, 3 opened and
    // 1 closed for the crashed one, and the others' trees whole.
    let (opened, closed) = (fleet.counter(Ctr::SpansOpened), fleet.counter(Ctr::SpansClosed));
    assert_eq!(opened - closed, 2 + 2, "still open: dropped session 2, crashed session 2");
    for phase in ["session", "work", "blocked", "reconcile", "sst_attempt", "commit", "abort"] {
        assert!(fleet.phase_time().contains_key(phase), "no {phase} span closed");
    }
    assert_eq!(fleet.counter(Ctr::SstRetries), 1);
    assert_eq!(fleet.counter(Ctr::FaultsInjected), 1, "the crash is announced");
}
