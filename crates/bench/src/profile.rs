//! The contention-profiler core behind the `pstm_top` binary.
//!
//! Takes a merged trace — from recorder frame files on disk or a live
//! ring snapshot, the records are the same either way — and distills the four
//! views an operator reads first when a front-end slows down:
//!
//! 1. **Per-phase latency**: how much virtual (and, where the emitter had
//!    a clock, wall) time sessions spent in each span phase.
//! 2. **Hot objects**: the top-K resources ranked by accumulated
//!    blocked-span time, falling back to enqueue-to-grant wait time for
//!    traces recorded before span emission existed.
//! 3. **Abort rates by operation class**: which compatibility classes pay
//!    the reconciliation/SST bill.
//! 4. **Waits-for snapshots**: the waiter→holder graph rendered as DOT at
//!    evenly spaced virtual times, plus the single worst (peak-edge)
//!    moment of the run.
//!
//! Everything here is deterministic: identical traces produce
//! byte-identical reports, so profiles are diffable artifacts like the
//! rest of the harness output.

use pstm_obs::{build_span_trees, waits_for_dot, MetricsRegistry, TraceEvent, TraceRecord};
use pstm_types::{OpClass, ResourceId, Timestamp, TxnId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Merges per-shard record streams into one timeline ordered by
/// `(virtual time, thread tag, per-shard sequence)`. Each shard's stream
/// is internally ordered already; the virtual timestamp is the only
/// cross-shard ordering that exists, and the tie-breakers merely make the
/// merge deterministic.
#[must_use]
pub fn merge_records(shards: Vec<Vec<TraceRecord>>) -> Vec<TraceRecord> {
    let mut all: Vec<TraceRecord> = shards.into_iter().flatten().collect();
    all.sort_by_key(|r| (r.at, r.thread, r.seq));
    all
}

/// One row of the per-phase latency table.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Span phase label (see `SpanKind::phase`).
    pub phase: &'static str,
    /// Closed spans observed in this phase.
    pub count: u64,
    /// Total virtual microseconds across those spans.
    pub total_virtual_us: u64,
    /// Widest single span, virtual microseconds.
    pub max_virtual_us: u64,
    /// Total wall-clock microseconds, where both endpoints carried a wall
    /// stamp (front-end traces do; purely virtual layers don't).
    pub total_wall_us: u64,
}

/// One hot object: a resource and the microseconds charged to it.
#[derive(Clone, Debug)]
pub struct HotObject {
    /// The contended resource.
    pub resource: ResourceId,
    /// Microseconds attributed to it (blocked-span or wait time,
    /// per [`Profile::hot_source`]).
    pub us: u64,
}

/// Commit/abort tallies for one operation class.
#[derive(Clone, Debug)]
pub struct ClassRow {
    /// The compatibility class.
    pub class: OpClass,
    /// Transactions that used the class and committed.
    pub committed: u64,
    /// Transactions that used the class and aborted.
    pub aborted: u64,
}

impl ClassRow {
    /// Abort percentage among finished transactions that used the class.
    #[must_use]
    pub fn abort_pct(&self) -> f64 {
        let done = self.committed + self.aborted;
        if done == 0 {
            0.0
        } else {
            100.0 * self.aborted as f64 / done as f64
        }
    }
}

/// The waits-for graph at one instant of the trace.
#[derive(Clone, Debug)]
pub struct DotSnapshot {
    /// Virtual time of the snapshot.
    pub at: Timestamp,
    /// Number of waiter→holder edges.
    pub edges: usize,
    /// Deterministic DOT rendering (see `pstm_obs::waits_for_dot`).
    pub dot: String,
}

/// A distilled contention profile of one trace.
#[derive(Debug)]
pub struct Profile {
    /// Records profiled.
    pub events: usize,
    /// Session span trees found (0 for pre-span traces).
    pub span_roots: usize,
    /// The registry rebuilt by replaying the trace — the same counters a
    /// live run would show.
    pub registry: MetricsRegistry,
    /// Per-phase latency rows, widest total first.
    pub phases: Vec<PhaseRow>,
    /// Top-K resources by attributed time, hottest first.
    pub hot: Vec<HotObject>,
    /// Where the hot-object times came from: `"blocked spans"` when the
    /// trace carries spans, `"grant waits"` as the fallback.
    pub hot_source: &'static str,
    /// Per-class commit/abort tallies, highest abort rate first.
    pub classes: Vec<ClassRow>,
    /// Waits-for graphs at evenly spaced virtual times.
    pub snapshots: Vec<DotSnapshot>,
    /// The instant with the most waits-for edges, if any edge ever
    /// existed.
    pub peak: Option<DotSnapshot>,
}

/// Tracks who holds and who awaits each resource while scanning a trace.
#[derive(Default)]
struct WaitsFor {
    holders: BTreeMap<ResourceId, BTreeSet<TxnId>>,
    waiters: BTreeMap<ResourceId, BTreeSet<TxnId>>,
}

impl WaitsFor {
    fn apply(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::OpWaiting { txn, resource, .. } => {
                self.waiters.entry(*resource).or_default().insert(*txn);
            }
            TraceEvent::OpGranted { txn, resource, .. } => {
                if let Some(w) = self.waiters.get_mut(resource) {
                    w.remove(txn);
                }
                self.holders.entry(*resource).or_default().insert(*txn);
            }
            TraceEvent::Committed { txn } | TraceEvent::Aborted { txn, .. } => {
                for set in self.holders.values_mut().chain(self.waiters.values_mut()) {
                    set.remove(txn);
                }
            }
            _ => {}
        }
    }

    fn edges(&self) -> BTreeSet<(TxnId, TxnId)> {
        let mut edges = BTreeSet::new();
        for (resource, waiters) in &self.waiters {
            if let Some(holders) = self.holders.get(resource) {
                for w in waiters {
                    for h in holders {
                        if w != h {
                            edges.insert((*w, *h));
                        }
                    }
                }
            }
        }
        edges
    }

    fn snapshot(&self, at: Timestamp) -> DotSnapshot {
        let edges = self.edges();
        DotSnapshot { at, edges: edges.len(), dot: waits_for_dot(edges) }
    }
}

/// Profiles `records`, keeping the `top_k` hottest objects and
/// `n_snapshots` evenly spaced waits-for snapshots.
#[must_use]
pub fn profile(records: &[TraceRecord], top_k: usize, n_snapshots: usize) -> Profile {
    let registry = MetricsRegistry::from_records(records);
    let span_roots = build_span_trees(records).values().map(Vec::len).sum();

    // Per-phase latency: replay the span open/close pairs ourselves so we
    // can keep count/max/wall, which the registry's phase totals drop.
    let mut open: BTreeMap<(TxnId, &'static str), (Timestamp, Option<u64>)> = BTreeMap::new();
    let mut phases: BTreeMap<&'static str, PhaseRow> = BTreeMap::new();
    // Class attribution: every class a transaction requested shares in
    // its final outcome.
    let mut classes_of: BTreeMap<TxnId, BTreeSet<OpClass>> = BTreeMap::new();
    let mut classes: BTreeMap<OpClass, ClassRow> = BTreeMap::new();
    // Waits-for evolution.
    let mut graph = WaitsFor::default();
    let mut snapshots = Vec::new();
    let mut peak: Option<DotSnapshot> = None;
    let bounds = snapshot_bounds(records, n_snapshots);
    let mut next_bound = 0usize;

    for rec in records {
        while next_bound < bounds.len() && rec.at > bounds[next_bound] {
            snapshots.push(graph.snapshot(bounds[next_bound]));
            next_bound += 1;
        }
        match &rec.event {
            TraceEvent::SpanOpen { txn, kind, wall_us } => {
                open.insert((*txn, kind.phase()), (rec.at, *wall_us));
            }
            TraceEvent::SpanClose { txn, kind, wall_us } => {
                if let Some((opened, wall_open)) = open.remove(&(*txn, kind.phase())) {
                    let width = rec.at.since(opened).0;
                    let row = phases.entry(kind.phase()).or_insert(PhaseRow {
                        phase: kind.phase(),
                        count: 0,
                        total_virtual_us: 0,
                        max_virtual_us: 0,
                        total_wall_us: 0,
                    });
                    row.count += 1;
                    row.total_virtual_us += width;
                    row.max_virtual_us = row.max_virtual_us.max(width);
                    if let (Some(o), Some(c)) = (wall_open, wall_us) {
                        row.total_wall_us += c.saturating_sub(o);
                    }
                }
            }
            TraceEvent::OpRequested { txn, class, .. } => {
                classes_of.entry(*txn).or_default().insert(*class);
            }
            TraceEvent::Committed { txn } => {
                for class in classes_of.remove(txn).unwrap_or_default() {
                    entry_for(&mut classes, class).committed += 1;
                }
            }
            TraceEvent::Aborted { txn, .. } => {
                for class in classes_of.remove(txn).unwrap_or_default() {
                    entry_for(&mut classes, class).aborted += 1;
                }
            }
            _ => {}
        }
        graph.apply(&rec.event);
        let edges = graph.edges().len();
        if edges > peak.as_ref().map_or(0, |p| p.edges) {
            peak = Some(graph.snapshot(rec.at));
        }
    }
    for bound in &bounds[next_bound..] {
        snapshots.push(graph.snapshot(*bound));
    }

    let mut phases: Vec<PhaseRow> = phases.into_values().collect();
    phases.sort_by(|a, b| b.total_virtual_us.cmp(&a.total_virtual_us).then(a.phase.cmp(b.phase)));

    let (hot_map, hot_source) = if registry.blocked_by_resource().is_empty() {
        (registry.wait_by_resource(), "grant waits")
    } else {
        (registry.blocked_by_resource(), "blocked spans")
    };
    let mut hot: Vec<HotObject> =
        hot_map.iter().map(|(r, us)| HotObject { resource: *r, us: *us }).collect();
    hot.sort_by(|a, b| b.us.cmp(&a.us).then(a.resource.cmp(&b.resource)));
    hot.truncate(top_k);

    let mut classes: Vec<ClassRow> = classes.into_values().collect();
    classes.sort_by(|a, b| {
        b.abort_pct().total_cmp(&a.abort_pct()).then_with(|| a.class.cmp(&b.class))
    });

    Profile {
        events: records.len(),
        span_roots,
        registry,
        phases,
        hot,
        hot_source,
        classes,
        snapshots,
        peak,
    }
}

fn entry_for(map: &mut BTreeMap<OpClass, ClassRow>, class: OpClass) -> &mut ClassRow {
    map.entry(class).or_insert(ClassRow { class, committed: 0, aborted: 0 })
}

/// `n` evenly spaced virtual timestamps across the trace's extent.
fn snapshot_bounds(records: &[TraceRecord], n: usize) -> Vec<Timestamp> {
    let (Some(first), Some(last)) = (records.first(), records.last()) else {
        return Vec::new();
    };
    let (lo, hi) = (first.at.0, last.at.0);
    (1..=n as u64).map(|i| Timestamp(lo + (hi - lo) * i / n.max(1) as u64)).collect()
}

/// Renders the profile as the human-readable `pstm_top` report.
#[must_use]
pub fn render(p: &Profile) -> String {
    use pstm_obs::Ctr;
    let mut out = String::with_capacity(4096);
    let _ = writeln!(out, "== pstm_top — contention profile ==");
    let _ = writeln!(
        out,
        "events {}   session trees {}   committed {}   aborted {}   trace span {} us",
        p.events,
        p.span_roots,
        p.registry.counter(Ctr::Committed),
        p.registry.counter(Ctr::Aborted),
        p.registry.last_at().0,
    );

    let _ = writeln!(out, "\n-- per-phase latency (virtual time) --");
    let _ = writeln!(out, "phase\tcount\ttotal_us\tmean_us\tmax_us\twall_us");
    for row in &p.phases {
        let mean = row.total_virtual_us.checked_div(row.count).unwrap_or(0);
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            row.phase, row.count, row.total_virtual_us, mean, row.max_virtual_us, row.total_wall_us
        );
    }
    if p.phases.is_empty() {
        let _ = writeln!(out, "(no spans in trace)");
    }

    let _ = writeln!(out, "\n-- top {} hot objects (source: {}) --", p.hot.len(), p.hot_source);
    let _ = writeln!(out, "resource\tus\tshare");
    let total: u64 = p.hot.iter().map(|h| h.us).sum();
    for h in &p.hot {
        let share = if total == 0 { 0.0 } else { 100.0 * h.us as f64 / total as f64 };
        let _ = writeln!(out, "{}\t{}\t{:.1}%", h.resource, h.us, share);
    }
    if p.hot.is_empty() {
        let _ = writeln!(out, "(no contention recorded)");
    }

    let _ = writeln!(out, "\n-- abort rate by operation class --");
    let _ = writeln!(out, "class\tcommitted\taborted\tabort%");
    for row in &p.classes {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{:.1}%",
            row.class,
            row.committed,
            row.aborted,
            row.abort_pct()
        );
    }

    let _ = writeln!(out, "\n-- waits-for over time --");
    for snap in &p.snapshots {
        let _ = writeln!(out, "t={} us: {} edge(s)", snap.at.0, snap.edges);
        if snap.edges > 0 {
            out.push_str(&snap.dot);
        }
    }
    match &p.peak {
        Some(peak) => {
            let _ = writeln!(out, "peak: {} edge(s) at t={} us", peak.edges, peak.at.0);
            out.push_str(&peak.dot);
        }
        None => {
            let _ = writeln!(out, "peak: no transaction ever waited");
        }
    }
    out
}

/// Renders the `pstm_top --phases` view: the trace's span-phase wall
/// table beside its hot objects by blocked time — the two halves an
/// operator correlates to decide whether a slow front is burning its
/// time in a commit station or queued behind one object. Ordering is
/// deterministic: widest-first for span phases, hottest-first for
/// objects.
#[must_use]
pub fn render_phases(p: &Profile) -> String {
    use pstm_obs::Ctr;
    let mut out = String::with_capacity(2048);
    let _ = writeln!(out, "== pstm_top — phase view ==");
    let _ = writeln!(
        out,
        "events {}   session trees {}   committed {}   aborted {}",
        p.events,
        p.span_roots,
        p.registry.counter(Ctr::Committed),
        p.registry.counter(Ctr::Aborted),
    );

    let _ = writeln!(out, "\n-- session time by span phase --");
    let _ = writeln!(out, "phase\tcount\ttotal_us\twall_us");
    for row in &p.phases {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}",
            row.phase, row.count, row.total_virtual_us, row.total_wall_us
        );
    }
    if p.phases.is_empty() {
        let _ = writeln!(out, "(no spans in trace)");
    }

    let blocked_us = p
        .phases
        .iter()
        .find(|r| r.phase == "blocked")
        .map_or_else(|| p.hot.iter().map(|h| h.us).sum(), |r| r.total_virtual_us);
    let _ = writeln!(out, "\n-- hot objects by blocked time (source: {}) --", p.hot_source);
    let _ = writeln!(out, "resource\tus\tshare_of_blocked");
    for h in &p.hot {
        let share = if blocked_us == 0 { 0.0 } else { 100.0 * h.us as f64 / blocked_us as f64 };
        let _ = writeln!(out, "{}\t{}\t{share:.1}%", h.resource, h.us);
    }
    if p.hot.is_empty() {
        let _ = writeln!(out, "(no contention recorded)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstm_obs::SpanKind;
    use pstm_types::ObjectId;

    fn rec(seq: u64, at: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, at: Timestamp(at), thread: Some(0), event }
    }

    fn resource(n: u32) -> ResourceId {
        ResourceId::atomic(ObjectId(n))
    }

    /// Two transactions: T1 blocks on X1 for 300 µs then commits; T2
    /// aborts after requesting an Assign on X2.
    fn sample() -> Vec<TraceRecord> {
        let (t1, t2) = (TxnId(1), TxnId(2));
        let (r1, r2) = (resource(1), resource(2));
        vec![
            rec(0, 0, TraceEvent::TxnBegin { txn: t1 }),
            rec(1, 0, TraceEvent::SpanOpen { txn: t1, kind: SpanKind::Session, wall_us: Some(10) }),
            rec(
                2,
                0,
                TraceEvent::OpRequested { txn: t1, resource: r1, class: OpClass::UpdateAddSub },
            ),
            rec(
                3,
                100,
                TraceEvent::OpWaiting {
                    txn: t1,
                    resource: r1,
                    class: OpClass::UpdateAddSub,
                    queue_depth: 1,
                },
            ),
            rec(
                4,
                100,
                TraceEvent::SpanOpen {
                    txn: t1,
                    kind: SpanKind::Blocked { resource: r1 },
                    wall_us: Some(20),
                },
            ),
            rec(5, 200, TraceEvent::TxnBegin { txn: t2 }),
            rec(
                6,
                200,
                TraceEvent::OpRequested { txn: t2, resource: r2, class: OpClass::UpdateAssign },
            ),
            rec(
                7,
                210,
                TraceEvent::OpGranted {
                    txn: t2,
                    resource: r1,
                    class: OpClass::UpdateAssign,
                    shared: false,
                    bypassed_sleeper: false,
                },
            ),
            rec(
                8,
                400,
                TraceEvent::SpanClose {
                    txn: t1,
                    kind: SpanKind::Blocked { resource: r1 },
                    wall_us: Some(420),
                },
            ),
            rec(
                9,
                400,
                TraceEvent::Aborted {
                    txn: t2,
                    reason: pstm_types::AbortReason::User,
                    origin: pstm_obs::AbortOrigin::User,
                },
            ),
            rec(10, 500, TraceEvent::Committed { txn: t1 }),
            rec(
                11,
                500,
                TraceEvent::SpanClose { txn: t1, kind: SpanKind::Session, wall_us: Some(510) },
            ),
        ]
    }

    #[test]
    fn phase_table_counts_and_widths() {
        let p = profile(&sample(), 5, 2);
        let blocked = p.phases.iter().find(|r| r.phase == "blocked").unwrap();
        assert_eq!(blocked.count, 1);
        assert_eq!(blocked.total_virtual_us, 300);
        assert_eq!(blocked.max_virtual_us, 300);
        assert_eq!(blocked.total_wall_us, 400);
        let session = p.phases.iter().find(|r| r.phase == "session").unwrap();
        assert_eq!(session.total_virtual_us, 500);
        // Widest first.
        assert_eq!(p.phases[0].phase, "session");
    }

    #[test]
    fn hot_objects_prefer_blocked_spans() {
        let p = profile(&sample(), 5, 2);
        assert_eq!(p.hot_source, "blocked spans");
        assert_eq!(p.hot[0].resource, resource(1));
        assert_eq!(p.hot[0].us, 300);
    }

    #[test]
    fn hot_objects_fall_back_to_grant_waits() {
        // A pre-span trace: wait then grant, no span events at all.
        let t = TxnId(1);
        let r = resource(7);
        let records = vec![
            rec(0, 0, TraceEvent::TxnBegin { txn: t }),
            rec(
                1,
                10,
                TraceEvent::OpWaiting { txn: t, resource: r, class: OpClass::Read, queue_depth: 1 },
            ),
            rec(
                2,
                60,
                TraceEvent::OpGranted {
                    txn: t,
                    resource: r,
                    class: OpClass::Read,
                    shared: true,
                    bypassed_sleeper: false,
                },
            ),
        ];
        let p = profile(&records, 3, 1);
        assert_eq!(p.hot_source, "grant waits");
        assert_eq!(p.hot[0].resource, r);
        assert_eq!(p.hot[0].us, 50);
    }

    #[test]
    fn abort_rates_attribute_every_class_a_txn_used() {
        let p = profile(&sample(), 5, 2);
        let add = p.classes.iter().find(|c| c.class == OpClass::UpdateAddSub).unwrap();
        assert_eq!((add.committed, add.aborted), (1, 0));
        let assign = p.classes.iter().find(|c| c.class == OpClass::UpdateAssign).unwrap();
        assert_eq!((assign.committed, assign.aborted), (0, 1));
        assert!((assign.abort_pct() - 100.0).abs() < f64::EPSILON);
        // Highest abort rate sorts first.
        assert_eq!(p.classes[0].class, OpClass::UpdateAssign);
    }

    #[test]
    fn waits_for_snapshots_catch_the_blocked_window() {
        // T1 waits on X1 from t=100; T2 holds it from t=210; both gone by
        // t=400/500. The peak must show the T1 → T2 edge.
        let p = profile(&sample(), 5, 4);
        assert_eq!(p.snapshots.len(), 4);
        let peak = p.peak.as_ref().expect("one wait existed");
        assert_eq!(peak.edges, 1);
        assert!(peak.dot.contains("T1 -> T2;"));
        // The final snapshot (t=500) is empty again: both txns finished.
        assert_eq!(p.snapshots.last().unwrap().edges, 0);
    }

    #[test]
    fn merge_orders_by_virtual_time_then_thread_then_seq() {
        let a = vec![rec(0, 50, TraceEvent::TxnBegin { txn: TxnId(1) })];
        let b = vec![
            rec(0, 10, TraceEvent::TxnBegin { txn: TxnId(2) }),
            rec(1, 50, TraceEvent::Committed { txn: TxnId(2) }),
        ];
        let merged = merge_records(vec![a, b]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].at, Timestamp(10));
        assert_eq!(merged[1].at, Timestamp(50));
        assert_eq!((merged[1].seq, merged[2].seq), (0, 1));
    }

    #[test]
    fn render_names_the_hot_object_and_phases() {
        let p = profile(&sample(), 5, 2);
        let report = render(&p);
        assert!(report.contains("pstm_top"));
        assert!(report.contains("blocked\t1\t300"));
        assert!(report.contains("X1.m0\t300"));
        assert!(report.contains("peak: 1 edge(s)"));
        assert_eq!(render(&p), report, "profiling is deterministic");
    }

    #[test]
    fn phases_view_joins_breakdown_with_hot_objects() {
        let p = profile(&sample(), 5, 2);
        let report = render_phases(&p);
        let pos = |needle: &str| {
            report
                .find(needle)
                .unwrap_or_else(|| panic!("{needle:?} missing from report:\n{report}"))
        };
        // Span phases widest first.
        assert!(pos("\nsession\t1\t500\t") < pos("\nblocked\t1\t300\t400"));
        // The join: the trace's span phases and its hot object, as a share
        // of the blocked time, in one view.
        assert!(pos("blocked\t1\t300") < pos("X1.m0\t300\t100.0%"));
        assert!(report.contains("committed 1   aborted 1"), "{report}");
        assert_eq!(render_phases(&p), report, "phase view is deterministic");
    }

    #[test]
    fn empty_trace_profiles_to_an_empty_report() {
        let p = profile(&[], 5, 3);
        assert_eq!(p.events, 0);
        assert!(p.phases.is_empty() && p.hot.is_empty() && p.snapshots.is_empty());
        assert!(render(&p).contains("no transaction ever waited"));
    }
}
