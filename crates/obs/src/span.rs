//! The span model: per-transaction phase timelines.
//!
//! A front-end session emits [`TraceEvent::SpanOpen`] /
//! [`TraceEvent::SpanClose`] pairs at every state transition, giving each
//! transaction a *span tree*: one `session` root whose children partition
//! the session's lifetime into phases (`work`, `blocked`, `admission_wait`,
//! `sleep`, `commit`/`abort`), with the commit phase further split into
//! `reconcile` and `sst_attempt` sub-spans. Every span carries the virtual
//! timestamp of its record *and* an optional wall-clock field, so the same
//! schema serves the deterministic simulator (wall absent) and the
//! wall-clock sharded front-end (wall present).

use crate::event::{TraceEvent, TraceRecord};
use pstm_types::{ResourceId, Timestamp, TxnId};
use serde::Serialize;
use std::collections::BTreeMap;

/// What a span covers. Kinds with payloads (`Blocked`, `SstAttempt`)
/// match open to close on the payload too, so interleaved retries stay
/// distinguishable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum SpanKind {
    /// Root span: the whole session, begin to terminal state.
    Session,
    /// The session is waiting because a §VII policy (admission,
    /// starvation, seniority) denied an otherwise-grantable invocation.
    AdmissionWait,
    /// The session is runnable: computing, thinking, issuing operations.
    Work,
    /// The session is disconnected (`⟨sleep, A⟩` … `⟨awake, A⟩`).
    Sleep,
    /// The session is queued behind incompatible work on one object.
    Blocked {
        /// The contended resource — the profiler's hot-object signal.
        resource: ResourceId,
    },
    /// Commit-time reconciliation (Algorithm 3) across every shard.
    Reconcile,
    /// One Secure System Transaction execution attempt.
    SstAttempt {
        /// Attempt ordinal: 1 for the first try, +1 per retry.
        attempt: u32,
    },
    /// The commit protocol, entry to settled (parent of `Reconcile` and
    /// `SstAttempt` spans).
    Commit,
    /// Marker span (zero width): the session ended in an abort.
    Abort,
    /// Reactor front-end only: a wake notification sat in a worker's op
    /// queue between enqueue and delivery. Open is stamped with the
    /// enqueue time, close with the delivery time, so the span's width
    /// *is* the wake latency the event loop added on top of the
    /// scheduler's own decision.
    Queued,
}

impl SpanKind {
    /// Every phase label, by [`SpanKind::ordinal`].
    pub const PHASES: [&'static str; 10] = [
        "session",
        "admission_wait",
        "work",
        "sleep",
        "blocked",
        "reconcile",
        "sst_attempt",
        "commit",
        "abort",
        "queued",
    ];

    /// The phase label this span aggregates under — stable snake_case,
    /// payload-free (`Blocked { .. }` → `"blocked"`).
    #[must_use]
    pub fn phase(&self) -> &'static str {
        SpanKind::PHASES[self.ordinal()]
    }

    /// The phase's index in [`SpanKind::PHASES`]: the payload-free kind
    /// as an integer.
    #[must_use]
    pub fn ordinal(&self) -> usize {
        match self {
            SpanKind::Session => 0,
            SpanKind::AdmissionWait => 1,
            SpanKind::Work => 2,
            SpanKind::Sleep => 3,
            SpanKind::Blocked { .. } => 4,
            SpanKind::Reconcile => 5,
            SpanKind::SstAttempt { .. } => 6,
            SpanKind::Commit => 7,
            SpanKind::Abort => 8,
            SpanKind::Queued => 9,
        }
    }
}

/// One node of a reconstructed span tree.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanNode {
    /// What the span covers.
    pub kind: SpanKind,
    /// Virtual open timestamp.
    pub open_at: Timestamp,
    /// Virtual close timestamp; `None` when the trace ended with the
    /// span still open (a session that never finished, or a truncated
    /// ring).
    pub close_at: Option<Timestamp>,
    /// Wall clock at open (µs, epoch chosen by the emitter), if the
    /// emitting layer has one.
    pub wall_open_us: Option<u64>,
    /// Wall clock at close, if present.
    pub wall_close_us: Option<u64>,
    /// Child spans, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Virtual width of the span; 0 while unclosed.
    #[must_use]
    pub fn virtual_us(&self) -> u64 {
        self.close_at.map_or(0, |c| c.since(self.open_at).0)
    }

    /// Wall-clock width of the span, when both ends carried wall time.
    #[must_use]
    pub fn wall_us(&self) -> Option<u64> {
        match (self.wall_open_us, self.wall_close_us) {
            (Some(o), Some(c)) => Some(c.saturating_sub(o)),
            _ => None,
        }
    }
}

/// Reconstructs per-transaction span trees from a record stream.
///
/// Spans are well-nested per transaction by construction (the emitters
/// close the current leaf before opening a sibling), so a per-transaction
/// stack suffices. A close without a matching open is dropped; opens left
/// on the stack at the end of the trace surface as nodes with
/// `close_at: None`.
#[must_use]
pub fn build_span_trees(records: &[TraceRecord]) -> BTreeMap<TxnId, Vec<SpanNode>> {
    // Stack of open spans per transaction; index 0 is the outermost.
    let mut open: BTreeMap<TxnId, Vec<SpanNode>> = BTreeMap::new();
    let mut done: BTreeMap<TxnId, Vec<SpanNode>> = BTreeMap::new();
    for rec in records {
        match &rec.event {
            TraceEvent::SpanOpen { txn, kind, wall_us } => {
                open.entry(*txn).or_default().push(SpanNode {
                    kind: *kind,
                    open_at: rec.at,
                    close_at: None,
                    wall_open_us: *wall_us,
                    wall_close_us: None,
                    children: Vec::new(),
                });
            }
            TraceEvent::SpanClose { txn, kind, wall_us } => {
                let Some(stack) = open.get_mut(txn) else { continue };
                // Close the innermost open span of this kind; unwind
                // anything opened inside it (left open by a crashed
                // session) as unclosed children.
                let Some(pos) = stack.iter().rposition(|s| s.kind == *kind) else { continue };
                let mut node = stack.remove(pos);
                for stranded in stack.split_off(pos) {
                    node.children.push(stranded);
                }
                node.close_at = Some(rec.at);
                node.wall_close_us = *wall_us;
                match stack.last_mut() {
                    Some(parent) => parent.children.push(node),
                    None => done.entry(*txn).or_default().push(node),
                }
            }
            _ => {}
        }
    }
    // Whatever never closed becomes a root chain of unclosed nodes.
    for (txn, stack) in open {
        if stack.is_empty() {
            continue;
        }
        let mut iter = stack.into_iter();
        let mut root = iter.next().expect("non-empty stack");
        let mut cursor = &mut root;
        for node in iter {
            cursor.children.push(node);
            cursor = cursor.children.last_mut().expect("just pushed");
        }
        done.entry(txn).or_default().push(root);
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstm_types::ObjectId;

    fn res(i: u32) -> ResourceId {
        ResourceId::atomic(ObjectId(i))
    }

    fn rec(seq: u64, at: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, at: Timestamp(at), thread: Some(0), event }
    }

    fn open(txn: u64, kind: SpanKind, at: u64, seq: u64) -> TraceRecord {
        rec(seq, at, TraceEvent::SpanOpen { txn: TxnId(txn), kind, wall_us: Some(at) })
    }

    fn close(txn: u64, kind: SpanKind, at: u64, seq: u64) -> TraceRecord {
        rec(seq, at, TraceEvent::SpanClose { txn: TxnId(txn), kind, wall_us: Some(at) })
    }

    #[test]
    fn session_tree_nests_phases_under_the_root() {
        let records = vec![
            open(1, SpanKind::Session, 0, 0),
            open(1, SpanKind::Work, 0, 1),
            close(1, SpanKind::Work, 10, 2),
            open(1, SpanKind::Blocked { resource: res(3) }, 10, 3),
            close(1, SpanKind::Blocked { resource: res(3) }, 25, 4),
            open(1, SpanKind::Work, 25, 5),
            close(1, SpanKind::Work, 30, 6),
            open(1, SpanKind::Commit, 30, 7),
            open(1, SpanKind::Reconcile, 30, 8),
            close(1, SpanKind::Reconcile, 31, 9),
            open(1, SpanKind::SstAttempt { attempt: 1 }, 31, 10),
            close(1, SpanKind::SstAttempt { attempt: 1 }, 34, 11),
            close(1, SpanKind::Commit, 34, 12),
            close(1, SpanKind::Session, 34, 13),
        ];
        let trees = build_span_trees(&records);
        let roots = &trees[&TxnId(1)];
        assert_eq!(roots.len(), 1);
        let session = &roots[0];
        assert_eq!(session.kind, SpanKind::Session);
        assert_eq!(session.virtual_us(), 34);
        assert_eq!(session.wall_us(), Some(34));
        let kinds: Vec<&'static str> = session.children.iter().map(|c| c.kind.phase()).collect();
        assert_eq!(kinds, vec!["work", "blocked", "work", "commit"]);
        let commit = &session.children[3];
        assert_eq!(commit.children.len(), 2);
        assert_eq!(commit.children[0].kind, SpanKind::Reconcile);
        assert_eq!(commit.children[1].kind, SpanKind::SstAttempt { attempt: 1 });
        assert_eq!(session.children[1].virtual_us(), 15, "blocked span width");
    }

    #[test]
    fn unclosed_spans_survive_as_open_nodes() {
        let records = vec![open(7, SpanKind::Session, 0, 0), open(7, SpanKind::Work, 1, 1)];
        let trees = build_span_trees(&records);
        let root = &trees[&TxnId(7)][0];
        assert_eq!(root.kind, SpanKind::Session);
        assert_eq!(root.close_at, None);
        assert_eq!(root.children[0].kind, SpanKind::Work);
        assert_eq!(root.children[0].close_at, None);
    }

    #[test]
    fn close_without_open_is_ignored() {
        let records = vec![close(1, SpanKind::Work, 5, 0)];
        assert!(build_span_trees(&records).is_empty());
    }
}
