//! The [`Tracer`]: the record stream components emit into, and the
//! [`Emitter`]: what one emitting component owns.
//!
//! A tracer is only the stream: an optional sink, the sequence number and
//! the clock unclocked layers stamp with. Clones share all three, so a
//! GTM and its engine cloning one tracer interleave into one trace in
//! emission order. Metrics are not the tracer's: each component keeps its
//! own [`MetricsRegistry`] in an [`Emitter`], under exclusive access it
//! already has, and readers merge those registries.

use crate::event::{TraceEvent, TraceRecord};
use crate::registry::MetricsRegistry;
use crate::sink::Sink;
use parking_lot::Mutex;
use pstm_types::Timestamp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Next process-wide thread tag; threads draw one lazily on their first
/// emission, so tags are dense, and a single-threaded run carries one
/// uniform tag throughout.
static NEXT_THREAD_TAG: AtomicU64 = AtomicU64::new(0);

/// Next tracer identity: what tells a clone from a twin.
static NEXT_TRACER: AtomicU64 = AtomicU64::new(0);

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
    sink: Box<dyn Sink>,
    seq: u64,
    /// Timestamp of the last record — what unclocked events carry.
    last_at: Timestamp,
}

impl TracerInner {
    fn record(&mut self, at: Timestamp, event: TraceEvent) {
        let thread = Some(current_thread_tag());
        self.sink.record(&TraceRecord { seq: self.seq, at, thread, event });
        (self.seq, self.last_at) = (self.seq + 1, at);
    }
}

/// A shared, sequenced stream of trace records into one sink.
///
/// [`Tracer::disabled`] (also the `Default`) holds no shared state: every
/// emit is one branch, and no lock or shared line is touched. A tracer with
/// a sink is a mutex around the sink, the sequence number and the last
/// timestamp. Metrics never go through it — see [`Emitter`].
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TracerInner>>>,
    /// Drawn at construction, copied by clones.
    id: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let seq = self.inner.as_ref().map(|inner| inner.lock().seq);
        f.debug_struct("Tracer").field("seq", &seq).finish()
    }
}

impl Tracer {
    /// A tracer that persists no trace.
    #[must_use]
    pub fn disabled() -> Self {
        // relaxed: an identity needs uniqueness only, which the RMW gives.
        Tracer { inner: None, id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed) }
    }

    /// A tracer recording every event into `sink`.
    #[must_use]
    pub fn with_sink(sink: Box<dyn Sink>) -> Self {
        let inner = TracerInner { sink, seq: 0, last_at: Timestamp::ZERO };
        Tracer { inner: Some(Arc::new(Mutex::new(inner))), ..Tracer::disabled() }
    }

    /// True when a sink is attached.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records the attached sink has discarded (0 with no sink, or a
    /// lossless one) — the trace-loss signal fleet snapshots surface.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.lock().sink.dropped())
    }

    /// True when `other` is a clone of this tracer — with a sink, they
    /// share one sink and sequence. Sharding code uses this to enforce
    /// that distinct shards got distinct tracers.
    #[must_use]
    pub fn same_registry(&self, other: &Tracer) -> bool {
        self.id == other.id
    }

    /// Emits one event at virtual time `at`.
    pub fn emit(&self, at: Timestamp, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.lock().record(at, event);
        }
    }

    /// [`Tracer::emit`] for events one call site emits back to back at
    /// one instant (a session's adjacent span boundaries): one critical
    /// section for the run, the records what emitting them one by one
    /// gives an unshared tracer. `events` is drawn under the tracer's lock
    /// and must not emit; with no sink it is not drawn at all.
    pub fn emit_all(&self, at: Timestamp, events: impl IntoIterator<Item = TraceEvent>) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.lock();
            events.into_iter().for_each(|event| inner.record(at, event));
        }
    }

    /// Flushes the attached sink, if any.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.lock().sink.flush();
        }
    }
}

/// What one emitting component owns: its [`MetricsRegistry`] and the
/// [`Tracer`] its records stream to.
///
/// The component keeps it under exclusive access it already has — a GTM
/// under its shard mutex, 2PL, the lock table and OCC under `&mut self`,
/// the engine under its write lock — so with no sink an emit is a
/// [`MetricsRegistry::apply`] and a branch, and no lock is taken for it.
/// Stats structs are projections of [`Emitter::registry`]; components
/// sharing one tracer are compared with a replay through the merge of
/// their registries.
#[derive(Debug, Default)]
pub struct Emitter {
    registry: MetricsRegistry,
    tracer: Tracer,
}

impl Emitter {
    /// An empty registry streaming to `tracer`.
    #[must_use]
    pub fn new(tracer: Tracer) -> Self {
        Emitter { registry: MetricsRegistry::new(), tracer }
    }

    /// Routes later records to `tracer` and counts afresh, so a replay of
    /// that stream equals the registry.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        *self = Emitter::new(tracer);
    }

    /// The metrics this component's events produced.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The registry, for folds of events recorded elsewhere (a session's
    /// spans, a coordinator's deferred counts).
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// Applies one event at virtual time `at` and streams it.
    pub fn emit(&mut self, at: Timestamp, event: TraceEvent) {
        self.registry.apply(at, &event);
        self.tracer.emit(at, event);
    }

    /// Emits a run of events from a layer without a virtual clock (the
    /// storage engine's writes, the WAL's frames), each stamped with the
    /// stream's last timestamp — read and recorded in one critical
    /// section, so a record carries exactly its predecessor's timestamp
    /// whatever other threads emit, and the run's records are what
    /// emitting them one by one gives an unshared tracer. Still
    /// deterministic: that timestamp is itself driven by the deterministic
    /// scheduler events. With no sink the stamp is the registry's own last
    /// timestamp.
    pub fn emit_unclocked(&mut self, events: impl IntoIterator<Item = TraceEvent>) {
        let registry = &mut self.registry;
        let Some(inner) = &self.tracer.inner else {
            return events.into_iter().for_each(|e| registry.apply(registry.last_at(), &e));
        };
        let mut inner = inner.lock();
        for event in events {
            let at = inner.last_at;
            registry.apply(at, &event);
            inner.record(at, event);
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;
    use pstm_types::TxnId;

    fn ring_tracer(cap: usize) -> (Tracer, crate::sink::RingHandle) {
        let ring = RingSink::new(cap);
        let handle = ring.handle();
        (Tracer::with_sink(Box::new(ring)), handle)
    }

    #[test]
    fn clones_share_one_sequence() {
        let (a, handle) = ring_tracer(16);
        let b = a.clone();
        a.emit(Timestamp(1), TraceEvent::TxnBegin { txn: TxnId(1) });
        b.emit(Timestamp(2), TraceEvent::TxnBegin { txn: TxnId(2) });
        let seqs: Vec<u64> = handle.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1]);
    }

    #[test]
    fn sink_receives_sequenced_records() {
        let (t, handle) = ring_tracer(16);
        t.emit(Timestamp(5), TraceEvent::TxnBegin { txn: TxnId(1) });
        t.emit(Timestamp(9), TraceEvent::Committed { txn: TxnId(1) });
        let recs = handle.snapshot();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].seq, recs[0].at), (0, Timestamp(5)));
        assert_eq!((recs[1].seq, recs[1].at), (1, Timestamp(9)));
    }

    #[test]
    fn records_carry_the_emitting_thread_tag() {
        let (t, handle) = ring_tracer(16);
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
        let t = ring_tracer(2).0;
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
        let (t, handle) = ring_tracer(1 << 16);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for at in 1..=N {
                    t.emit(Timestamp(at), TraceEvent::TxnBegin { txn: TxnId(at) });
                }
            });
            scope.spawn(|| {
                let mut engine = Emitter::new(t.clone());
                start.wait();
                for lsn in 0..N {
                    engine.emit_unclocked([TraceEvent::WalFlush { lsn, bytes: 8 }]);
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
        let traced = |emit: &dyn Fn(&mut Emitter)| {
            let (t, handle) = ring_tracer(16);
            t.emit(Timestamp(42), TraceEvent::TxnBegin { txn: TxnId(1) });
            let mut engine = Emitter::new(t);
            emit(&mut engine);
            (handle.snapshot(), engine.registry().counters_map())
        };
        let one_by_one = traced(&|e| run().for_each(|event| e.emit_unclocked([event])));
        let at_once = traced(&|e| e.emit_unclocked(run()));
        assert_eq!(one_by_one.0.len(), 5);
        assert!(one_by_one.0.iter().all(|rec| rec.at == Timestamp(42)));
        assert_eq!(one_by_one, at_once);
    }

    #[test]
    fn unclocked_events_inherit_the_last_timestamp() {
        let mut dark = Emitter::default();
        dark.emit(Timestamp(42), TraceEvent::TxnBegin { txn: TxnId(1) });
        dark.emit_unclocked([TraceEvent::WalFlush { lsn: 0, bytes: 8 }]);
        assert_eq!(dark.registry().last_at(), Timestamp(42));
    }
}
