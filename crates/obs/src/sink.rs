//! Trace sinks: where emitted [`TraceRecord`]s go.
//!
//! Three shapes cover the use cases: nothing (tracing disabled — the
//! default, and close to free), a bounded in-memory ring (tests,
//! interactive debugging, property checks), and JSONL on a writer
//! (durable `results/` artifacts the replay module can load back).

use crate::event::TraceRecord;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// A destination for trace records.
///
/// `record` is called under the tracer's lock, in emission order; a sink
/// never sees records out of sequence.
pub trait Sink: Send {
    /// Accept one record.
    fn record(&mut self, rec: &TraceRecord);
    /// Push buffered records to their final destination.
    fn flush(&mut self) {}
    /// Records this sink has discarded (ring eviction, backpressure).
    /// Lossless sinks report 0 — the default. Surfaced so silent trace
    /// loss is visible in fleet snapshots and exposition output.
    fn dropped(&self) -> u64 {
        0
    }
}

#[derive(Debug)]
struct RingInner {
    cap: usize,
    buf: VecDeque<TraceRecord>,
    dropped: u64,
}

/// A bounded in-memory ring buffer keeping the most recent records.
///
/// Cloning shares the buffer, so one half can live inside the tracer as
/// the sink while the other ([`RingHandle`]) stays with the test or
/// caller for inspection.
#[derive(Clone, Debug)]
pub struct RingSink {
    inner: Arc<Mutex<RingInner>>,
}

impl RingSink {
    /// A ring that retains the last `cap` records (`cap` must be > 0).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        RingSink {
            inner: Arc::new(Mutex::new(RingInner {
                cap,
                buf: VecDeque::with_capacity(cap),
                dropped: 0,
            })),
        }
    }

    /// A reader handle sharing this ring's buffer.
    #[must_use]
    pub fn handle(&self) -> RingHandle {
        RingHandle { inner: Arc::clone(&self.inner) }
    }
}

impl Sink for RingSink {
    fn record(&mut self, rec: &TraceRecord) {
        let mut inner = self.inner.lock();
        if inner.buf.len() == inner.cap {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(rec.clone());
    }

    fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }
}

/// Read side of a [`RingSink`].
#[derive(Clone, Debug)]
pub struct RingHandle {
    inner: Arc<Mutex<RingInner>>,
}

impl RingHandle {
    /// Copies out the retained records, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.inner.lock().buf.iter().cloned().collect()
    }

    /// Copies out the retained records *and* the drop count under one
    /// lock acquisition, so the pair is consistent: every record ever
    /// offered to the ring is either in the snapshot or counted as
    /// dropped. Reading them with separate [`RingHandle::snapshot`] /
    /// [`RingHandle::dropped`] calls races with concurrent writers —
    /// evictions landing between the two calls would be counted as
    /// dropped while their replacements are missing from the snapshot.
    #[must_use]
    pub fn snapshot_with_drops(&self) -> (Vec<TraceRecord>, u64) {
        let inner = self.inner.lock();
        (inner.buf.iter().cloned().collect(), inner.dropped)
    }

    /// Number of records currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// True when nothing has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted to make room (total over the ring's lifetime).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }
}

/// Serializes each record as one JSON line on a writer.
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl JsonlSink {
    /// A sink writing to an arbitrary writer.
    #[must_use]
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlSink { out }
    }

    /// A buffered sink writing to `path`, creating parent directories.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let file = fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(BufWriter::new(file))))
    }

    /// A sink writing into a shared in-memory buffer, returned alongside
    /// it — lets tests read the JSONL bytes back without touching disk.
    #[must_use]
    pub fn shared_buffer() -> (Self, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = JsonlSink::new(Box::new(SharedBuf { buf: Arc::clone(&buf) }));
        (sink, buf)
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, rec: &TraceRecord) {
        // Trace emission has no error channel; a failed write surfaces
        // as a truncated artifact rather than a poisoned run.
        if let Ok(line) = serde_json::to_string(rec) {
            let _ = self.out.write_all(line.as_bytes());
            let _ = self.out.write_all(b"\n");
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Fans every record out to two sinks — e.g. a [`RingSink`] for live
/// inspection *and* a [`crate::recorder::RecorderSink`] for the durable
/// flight recorder, without the tracer knowing about either.
pub struct TeeSink {
    a: Box<dyn Sink>,
    b: Box<dyn Sink>,
}

impl TeeSink {
    /// Tees records to `a` then `b` (in that order, under the tracer's
    /// lock, so both see the same sequence).
    #[must_use]
    pub fn new(a: Box<dyn Sink>, b: Box<dyn Sink>) -> Self {
        TeeSink { a, b }
    }
}

impl std::fmt::Debug for TeeSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TeeSink")
    }
}

impl Sink for TeeSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.a.record(rec);
        self.b.record(rec);
    }

    fn flush(&mut self) {
        self.a.flush();
        self.b.flush();
    }

    fn dropped(&self) -> u64 {
        self.a.dropped() + self.b.dropped()
    }
}

struct SharedBuf {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.lock().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use pstm_types::{Timestamp, TxnId};

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            at: Timestamp(seq * 10),
            thread: None,
            event: TraceEvent::TxnBegin { txn: TxnId(seq) },
        }
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut ring = RingSink::new(3);
        let handle = ring.handle();
        for i in 0..5 {
            ring.record(&rec(i));
        }
        assert_eq!(handle.len(), 3);
        assert_eq!(handle.dropped(), 2);
        let seqs: Vec<u64> = handle.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn snapshot_with_drops_is_consistent_and_sees_later_evictions() {
        let mut ring = RingSink::new(2);
        let handle = ring.handle();
        for i in 0..3 {
            ring.record(&rec(i));
        }
        let (recs, dropped) = handle.snapshot_with_drops();
        assert_eq!(recs.len(), 2);
        assert_eq!(dropped, 1);
        assert_eq!(recs.len() as u64 + dropped, 3, "every record retained or counted");
        // Drops after a snapshot keep accruing on the same handle.
        ring.record(&rec(3));
        ring.record(&rec(4));
        let (recs, dropped) = handle.snapshot_with_drops();
        assert_eq!(dropped, 3);
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(Sink::dropped(&ring), 3, "the sink side reports the same count");
    }

    #[test]
    fn ring_below_capacity_drops_nothing() {
        let mut ring = RingSink::new(8);
        let handle = ring.handle();
        ring.record(&rec(0));
        assert_eq!(handle.len(), 1);
        assert_eq!(handle.dropped(), 0);
    }

    #[test]
    fn tee_feeds_both_sinks_and_sums_drops() {
        let ring_a = RingSink::new(2);
        let ring_b = RingSink::new(8);
        let (ha, hb) = (ring_a.handle(), ring_b.handle());
        let mut tee = TeeSink::new(Box::new(ring_a), Box::new(ring_b));
        for i in 0..4 {
            tee.record(&rec(i));
        }
        assert_eq!(ha.len(), 2);
        assert_eq!(hb.len(), 4);
        assert_eq!(tee.dropped(), 2, "only the small ring dropped");
        assert_eq!(hb.snapshot()[0].seq, 0);
    }

    #[test]
    fn jsonl_writes_one_line_per_record() {
        let (mut sink, buf) = JsonlSink::shared_buffer();
        sink.record(&rec(0));
        sink.record(&rec(1));
        sink.flush();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.contains("TxnBegin")));
    }
}
