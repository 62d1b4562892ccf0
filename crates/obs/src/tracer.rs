//! The [`Tracer`]: the single handle a component holds to emit events.
//!
//! A tracer is a cheaply cloneable `Arc` around a registry and an
//! optional sink; clones share both. That sharing is the point — a 2PL
//! scheduler and its lock table clone one tracer and their events land
//! in one registry and one interleaved trace, in emission order.

use crate::event::{TraceEvent, TraceRecord};
use crate::registry::{Ctr, MetricsRegistry};
use crate::sink::Sink;
use parking_lot::Mutex;
use pstm_types::Timestamp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Next process-wide thread tag; threads draw one lazily on their first
/// emission, so tags are dense, and a single-threaded run carries one
/// uniform tag throughout.
static NEXT_THREAD_TAG: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_TAG: u64 = NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed);
}

/// The small per-thread tag stamped on [`TraceRecord`]s emitted from the
/// calling thread. Stable for the thread's lifetime.
#[must_use]
pub fn current_thread_tag() -> u64 {
    THREAD_TAG.with(|t| *t)
}

struct TracerInner {
    registry: MetricsRegistry,
    sink: Option<Box<dyn Sink>>,
    seq: u64,
}

impl TracerInner {
    fn record(&mut self, at: Timestamp, event: TraceEvent) {
        self.registry.apply(at, &event);
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&TraceRecord {
                seq: self.seq,
                at,
                thread: Some(current_thread_tag()),
                event,
            });
        }
        self.seq += 1;
    }
}

/// A shared emission point for trace events.
///
/// With no sink attached ([`Tracer::disabled`], also the `Default`), an
/// emit is a lock plus [`MetricsRegistry::apply`]: a counter-array bump,
/// and for the few events that open or close something an integer-keyed
/// tree update — `TxnBegin` / `Committed` / `Aborted` on the open
/// transactions, `OpWaiting` / a waited `OpGranted` on the open waits,
/// `SpanOpen` / `SpanClose` on the open spans (keyed by transaction and
/// phase ordinal; a close adds to a fixed per-phase array). Nothing is
/// allocated beyond the trees' own node growth, and no string is compared.
/// Cheap enough to leave threaded through release builds.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Tracer")
            .field("seq", &inner.seq)
            .field("sink", &inner.sink.is_some())
            .finish()
    }
}

impl Tracer {
    /// A tracer that maintains metrics but persists no trace.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                registry: MetricsRegistry::new(),
                sink: None,
                seq: 0,
            })),
        }
    }

    /// A tracer recording every event into `sink`.
    #[must_use]
    pub fn with_sink(sink: Box<dyn Sink>) -> Self {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                registry: MetricsRegistry::new(),
                sink: Some(sink),
                seq: 0,
            })),
        }
    }

    /// True when a sink is attached (metrics are always maintained).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.lock().sink.is_some()
    }

    /// Records the attached sink has discarded (0 with no sink, or a
    /// lossless one) — the trace-loss signal fleet snapshots surface.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.lock().sink.as_ref().map_or(0, |s| s.dropped())
    }

    /// True when `other` is a clone of this tracer — they share one
    /// registry, sink, and sequence. Sharding code uses this to enforce
    /// that distinct shards got distinct tracers.
    #[must_use]
    pub fn same_registry(&self, other: &Tracer) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Emits one event at virtual time `at`.
    pub fn emit(&self, at: Timestamp, event: TraceEvent) {
        self.inner.lock().record(at, event);
    }

    /// [`Tracer::emit`] for events one call site emits back to back at
    /// one instant (a session's adjacent span boundaries): one critical
    /// section for the run, the records what emitting them one by one
    /// gives an unshared tracer. `events` is drawn under the tracer's lock
    /// and must not emit.
    pub fn emit_all(&self, at: Timestamp, events: impl IntoIterator<Item = TraceEvent>) {
        let mut inner = self.inner.lock();
        for event in events {
            inner.record(at, event);
        }
    }

    /// Emits an event from a layer without a virtual clock (the storage
    /// engine, the WAL), stamping it with the registry's last-seen
    /// timestamp — read and recorded in one critical section, so the
    /// record carries exactly its predecessor's timestamp whatever other
    /// threads emit. Still deterministic: that timestamp is itself driven
    /// by the deterministic scheduler events.
    pub fn emit_unclocked(&self, event: TraceEvent) {
        self.emit_unclocked_all([event]);
    }

    /// [`Tracer::emit_unclocked`] for a run of events one call site emits
    /// back to back (a flushed group's frames, an applied write set's
    /// updates and commit): one critical section for the run, the records
    /// what emitting them one by one gives an unshared tracer. `events`
    /// is drawn under the tracer's lock and must not emit.
    pub fn emit_unclocked_all(&self, events: impl IntoIterator<Item = TraceEvent>) {
        let mut inner = self.inner.lock();
        for event in events {
            let at = inner.registry.last_at();
            inner.record(at, event);
        }
    }

    /// Current value of one counter.
    #[must_use]
    pub fn counter(&self, c: Ctr) -> u64 {
        self.inner.lock().registry.counter(c)
    }

    /// Runs `f` against the live registry (for stats projection and
    /// histogram reads) and returns its result.
    pub fn with_registry<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> R {
        f(&self.inner.lock().registry)
    }

    /// A point-in-time copy of the registry.
    #[must_use]
    pub fn snapshot(&self) -> MetricsRegistry {
        self.inner.lock().registry.clone()
    }

    /// Flushes the attached sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = self.inner.lock().sink.as_mut() {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;
    use pstm_types::TxnId;

    #[test]
    fn clones_share_registry_and_sequence() {
        let a = Tracer::disabled();
        let b = a.clone();
        a.emit(Timestamp(1), TraceEvent::TxnBegin { txn: TxnId(1) });
        b.emit(Timestamp(2), TraceEvent::TxnBegin { txn: TxnId(2) });
        assert_eq!(a.counter(Ctr::Begun), 2);
        assert_eq!(b.counter(Ctr::Begun), 2);
    }

    #[test]
    fn sink_receives_sequenced_records() {
        let ring = RingSink::new(16);
        let handle = ring.handle();
        let t = Tracer::with_sink(Box::new(ring));
        t.emit(Timestamp(5), TraceEvent::TxnBegin { txn: TxnId(1) });
        t.emit(Timestamp(9), TraceEvent::Committed { txn: TxnId(1) });
        let recs = handle.snapshot();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].seq, recs[0].at), (0, Timestamp(5)));
        assert_eq!((recs[1].seq, recs[1].at), (1, Timestamp(9)));
    }

    #[test]
    fn records_carry_the_emitting_thread_tag() {
        let ring = RingSink::new(16);
        let handle = ring.handle();
        let t = Tracer::with_sink(Box::new(ring));
        t.emit(Timestamp(1), TraceEvent::TxnBegin { txn: TxnId(1) });
        let t2 = t.clone();
        std::thread::spawn(move || {
            t2.emit(Timestamp(2), TraceEvent::TxnBegin { txn: TxnId(2) });
        })
        .join()
        .unwrap();
        t.emit(Timestamp(3), TraceEvent::Committed { txn: TxnId(1) });
        let recs = handle.snapshot();
        assert_eq!(recs.len(), 3);
        let mine = current_thread_tag();
        assert_eq!(recs[0].thread, Some(mine));
        assert_eq!(recs[2].thread, Some(mine), "tag is stable per thread");
        assert_ne!(recs[1].thread, Some(mine), "other threads get their own tag");
        assert!(recs[1].thread.is_some());
    }

    #[test]
    fn same_registry_distinguishes_clones_from_twins() {
        let a = Tracer::disabled();
        let clone = a.clone();
        let twin = Tracer::disabled();
        assert!(a.same_registry(&clone));
        assert!(!a.same_registry(&twin));
    }

    #[test]
    fn dropped_reflects_ring_eviction() {
        let t = Tracer::with_sink(Box::new(RingSink::new(2)));
        assert_eq!(t.dropped(), 0);
        for i in 0..5 {
            t.emit(Timestamp(i), TraceEvent::TxnBegin { txn: TxnId(i) });
        }
        assert_eq!(t.dropped(), 3);
        assert_eq!(Tracer::disabled().dropped(), 0, "no sink, no loss");
    }

    /// `emit_unclocked` used to read `last_at` under the lock, release
    /// it and re-lock to record: a clocked record from another thread
    /// could land in between, leaving the unclocked one older than its
    /// predecessor.
    #[test]
    fn unclocked_records_carry_their_predecessors_timestamp_under_contention() {
        const N: u64 = 20_000;
        let ring = RingSink::new(1 << 16);
        let handle = ring.handle();
        let t = Tracer::with_sink(Box::new(ring));
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for at in 1..=N {
                    t.emit(Timestamp(at), TraceEvent::TxnBegin { txn: TxnId(at) });
                }
            });
            scope.spawn(|| {
                start.wait();
                for lsn in 0..N {
                    t.emit_unclocked(TraceEvent::WalFlush { lsn, bytes: 8 });
                }
            });
        });
        let recs = handle.snapshot();
        assert_eq!(recs.len() as u64, 2 * N, "ring holds the whole run");
        for pair in recs.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1);
            if matches!(pair[1].event, TraceEvent::WalFlush { .. }) {
                assert_eq!(pair[1].at, pair[0].at, "seq {}", pair[1].seq);
            }
        }
    }

    #[test]
    fn a_run_of_unclocked_events_records_what_one_by_one_does() {
        let run = || {
            (0..3)
                .map(|lsn| TraceEvent::WalFlush { lsn, bytes: 8 })
                .chain([TraceEvent::EngineCommit { txn: TxnId(1) }])
        };
        let traced = |emit: &dyn Fn(&Tracer)| {
            let ring = RingSink::new(16);
            let handle = ring.handle();
            let t = Tracer::with_sink(Box::new(ring));
            t.emit(Timestamp(42), TraceEvent::TxnBegin { txn: TxnId(1) });
            emit(&t);
            (handle.snapshot(), t.snapshot().counters_map())
        };
        let one_by_one = traced(&|t| run().for_each(|event| t.emit_unclocked(event)));
        let at_once = traced(&|t| t.emit_unclocked_all(run()));
        assert_eq!(one_by_one.0.len(), 5);
        assert!(one_by_one.0.iter().all(|rec| rec.at == Timestamp(42)));
        assert_eq!(one_by_one, at_once);
    }

    #[test]
    fn unclocked_events_inherit_the_last_timestamp() {
        let t = Tracer::disabled();
        t.emit(Timestamp(42), TraceEvent::TxnBegin { txn: TxnId(1) });
        t.emit_unclocked(TraceEvent::WalFlush { lsn: 0, bytes: 8 });
        assert_eq!(t.with_registry(|r| r.last_at()), Timestamp(42));
    }
}
