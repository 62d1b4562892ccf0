//! Spans recorded by the benchmark around each call into a layer's
//! public function. They live in memory until the window closes; spans
//! inside the program are a later change.

use crate::measure::Clock;
use std::io::Write as _;

/// The public function a span wraps (or the transaction as a whole).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// Root: one whole transaction, `session()` to commit ack (for a
    /// probe: due instant to commit ack).
    Txn,
    Session,
    Execute,
    Commit,
    Spawn,
    Handle,
}

impl Call {
    pub fn name(self, reactor: bool) -> &'static str {
        match (self, reactor) {
            (Call::Txn, false) => "txn",
            (Call::Txn, true) => "probe",
            (Call::Session, _) => "ShardedFront::session",
            (Call::Execute, false) => "Session::execute",
            (Call::Commit, false) => "Session::commit",
            (Call::Execute, true) => "SessionHandle::execute",
            (Call::Commit, true) => "SessionHandle::commit",
            (Call::Spawn, _) => "Reactor::spawn_program",
            (Call::Handle, _) => "Reactor::handle",
        }
    }
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub call: Call,
    /// Sequence number of the transaction in the generated stream (or
    /// of the probe); spans of one transaction share it.
    pub txn: u32,
    /// Index of the span that caused this one, [`NO_PARENT`] for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What a driver loop tells the span log. The untraced loop uses
/// [`NoSpans`], whose calls compile to nothing, so traced and untraced
/// runs execute the same driver code.
pub trait Spans {
    /// A transaction starts at `start_ns`.
    fn open(&mut self, txn: u64, start_ns: u64);
    /// A call into the layer below just returned.
    fn lap(&mut self, call: Call);
    /// The transaction ended at `end_ns`.
    fn close(&mut self, end_ns: u64);
}

pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn open(&mut self, _: u64, _: u64) {}
    #[inline(always)]
    fn lap(&mut self, _: Call) {}
    #[inline(always)]
    fn close(&mut self, _: u64) {}
}

/// Records a root span per transaction and one child per call; a
/// child's interval runs from the previous lap (or the root's start) to
/// now, so the children tile the root and cost one clock read each.
pub struct SpanLog {
    clock: Clock,
    pub spans: Vec<Span>,
    root: usize,
    last_ns: u64,
}

impl SpanLog {
    pub fn new(clock: Clock, capacity: usize) -> SpanLog {
        SpanLog { clock, spans: Vec::with_capacity(capacity), root: 0, last_ns: 0 }
    }

    /// The next child starts at `ns`, not where the root opened: an
    /// open-loop probe's root opens when it was due, its first call
    /// when the generator got to it.
    pub fn resume_at(&mut self, ns: u64) {
        self.last_ns = ns;
    }
}

impl Spans for SpanLog {
    fn open(&mut self, txn: u64, start_ns: u64) {
        self.root = self.spans.len();
        self.last_ns = start_ns;
        self.spans.push(Span {
            call: Call::Txn,
            txn: txn as u32,
            parent: NO_PARENT,
            start_ns,
            end_ns: start_ns,
        });
    }

    fn lap(&mut self, call: Call) {
        let now = self.clock.ns();
        let txn = self.spans[self.root].txn;
        self.spans.push(Span {
            call,
            txn,
            parent: self.root as u32,
            start_ns: self.last_ns,
            end_ns: now,
        });
        self.last_ns = now;
    }

    fn close(&mut self, end_ns: u64) {
        self.spans[self.root].end_ns = end_ns;
    }
}

/// Durations of every span of one kind, sorted ascending.
pub fn sorted_ns(spans: &[Span], call: Call) -> Vec<u64> {
    let mut v: Vec<u64> = spans.iter().filter(|s| s.call == call).map(Span::ns).collect();
    v.sort_unstable();
    v
}

/// Writes every `every`-th transaction's spans as JSON lines.
pub fn write_jsonl(
    path: &std::path::Path,
    workload: &str,
    reactor: bool,
    spans: &[Span],
    every: u32,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.txn % every == 0) {
        let parent = if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"id\":{id},\"name\":\"{}\",\"txn\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.call.name(reactor),
            s.txn,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_tile_the_root() {
        let clock = Clock::start();
        let mut t = SpanLog::new(clock, 8);
        let start = clock.ns();
        t.open(41, start);
        t.lap(Call::Session);
        t.lap(Call::Execute);
        t.lap(Call::Commit);
        let end = clock.ns();
        t.close(end);
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        assert_eq!((t.spans[0].start_ns, t.spans[0].end_ns), (start, end));
        for pair in t.spans[1..].windows(2) {
            assert_eq!(pair[0].end_ns, pair[1].start_ns);
        }
        assert_eq!(t.spans[1].start_ns, start);
        assert!(t.spans[3].end_ns <= end);
        assert!(t.spans[1..].iter().all(|s| s.parent == 0 && s.txn == 41));
        assert_eq!(sorted_ns(&t.spans, Call::Execute).len(), 1);
    }
}
