//! Trace-based conflict-serializability verifier.
//!
//! Input: the event streams of recorder frame files, the one durable
//! trace store (a simulator run is one stream, a sharded front-end run
//! is one stream per shard). The verifier rebuilds each run's conflict
//! graph from *observable* events only — it never trusts the GTM's own
//! bookkeeping — and either certifies the run conflict-serializable,
//! producing an equivalent serial order, or reports the minimal
//! offending cycle with transaction ids and resources.
//!
//! ## The conflict relation
//!
//! Two committed transactions conflict on a resource iff both were
//! granted it with Table I-incompatible operation classes. Compatible
//! grants — concurrent `UpdateAddSub` holders, readers next to updaters
//! — are exactly the concurrency pre-serialization *sells*: the paper's
//! guarantee is final-state equivalence to the commit order (reads may
//! observe pre-reconciliation values; the GTM is not view-serializable
//! by design), so compatible co-residence must not produce edges.
//!
//! ## Edge direction, and when overlap is a violation
//!
//! Under the GTM's awake-path rules, two incompatible committed holders
//! normally never hold a resource *simultaneously*: the second is
//! granted only after the first commits (releasing the resource). Hence
//! for an incompatible committed pair, one side's `Committed` event
//! usually precedes the other's first `OpGranted` on the shared
//! resource, orienting the edge.
//!
//! The one sanctioned exception is the sleeping-bypass path: a grant may
//! bypass a *sleeping* incompatible holder (the grant's
//! `bypassed_sleeper` flag records this). If the sleeper awakes before
//! the bypasser commits, Algorithm 9's conflict check finds nothing
//! committed against it, and **both** transactions may legitimately
//! commit with overlapping [first-grant, commit] intervals. This is
//! still final-state serializable *in commit order*: reconciliation
//! (eqs. 1–2) applies each commit against the then-current permanent
//! value, so the later committer's effect composes on top of the
//! earlier one exactly as a serial execution would. The verifier
//! therefore orients a bypass-sanctioned overlap by commit order.
//!
//! An overlap with **no** bypass flag on either holding has no such
//! sanction: both orientations are recorded, the graph gains a 2-cycle,
//! and the run is rejected — the hand-auditable symptom of a broken
//! scheduler.
//!
//! ## Transaction-id reuse (concatenated runs)
//!
//! Some producers append several independent runs to one trace file
//! (e.g. `fig3` sweeps 17 workload points through fresh GTM instances,
//! all sharing one sink), and each fresh GTM restarts its id counter at
//! `T1`. A transaction id is only meaningful between its `TxnBegin` and
//! its `Committed`/`Aborted`, so the verifier splits reuses into
//! *incarnations*: within a stream, an event's incarnation index is the
//! number of completions (`Committed`/`Aborted`) already seen for that
//! id in that stream. Each incarnation is its own node in the
//! precedence graph. Incarnation indices align across the streams of a
//! multi-stream run because every shard that grants to a transaction
//! also logs its completion.

use pstm_obs::{TraceEvent, TraceRecord};
use pstm_types::{OpClass, ResourceId, TxnId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

/// One tracer's records, in emission order, with a human label (the
/// shard index or the trace file stem).
#[derive(Clone, Debug)]
pub struct TraceStream {
    /// Where the stream came from (report rendering only).
    pub label: String,
    /// The records, in `seq` order.
    pub records: Vec<TraceRecord>,
}

/// A successful certification.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Committed transactions in the run.
    pub committed: usize,
    /// Aborted transactions (excluded from the graph — they have no
    /// final-state effect).
    pub aborted: usize,
    /// Transactions still unfinished when the trace ended (excluded).
    pub unfinished: usize,
    /// Conflict edges in the precedence graph.
    pub conflict_edges: usize,
    /// An equivalent serial order over every committed transaction
    /// (a topological order of the conflict graph, commit-time
    /// tie-broken, so it equals the commit order when conflicts allow).
    pub serial_order: Vec<TxnId>,
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serializable: {} committed, {} aborted, {} unfinished, {} conflict edge(s)",
            self.committed, self.aborted, self.unfinished, self.conflict_edges
        )?;
        write!(f, "equivalent serial order:")?;
        for (i, txn) in self.serial_order.iter().enumerate() {
            if i == 16 {
                return write!(f, " … ({} total)", self.serial_order.len());
            }
            write!(f, " {txn}")?;
        }
        Ok(())
    }
}

/// One edge of a reported cycle.
#[derive(Clone, Debug)]
pub struct CycleEdge {
    /// Predecessor in the precedence graph.
    pub from: TxnId,
    /// Successor.
    pub to: TxnId,
    /// A resource witnessing the conflict.
    pub resource: ResourceId,
    /// `from`'s granted class on the resource.
    pub from_class: OpClass,
    /// `to`'s granted class on the resource.
    pub to_class: OpClass,
    /// True when the trace shows the two holders' [first-grant, commit]
    /// intervals overlapping (simultaneous incompatible holders — a
    /// scheduler fault on its own).
    pub overlap: bool,
    /// The stream the conflict was observed in.
    pub stream: String,
}

/// The run is not conflict-serializable; `cycle` is a minimal cycle of
/// the precedence graph (every proper subset of its nodes is acyclic).
#[derive(Clone, Debug)]
pub struct CycleReport {
    /// The cycle's edges, in order; the last edge returns to the first
    /// node.
    pub cycle: Vec<CycleEdge>,
}

impl fmt::Display for CycleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "NOT conflict-serializable: minimal cycle of {} transaction(s)",
            self.cycle.len()
        )?;
        for e in &self.cycle {
            writeln!(
                f,
                "  {} -[{}: {} vs {}{}, stream {}]-> {}",
                e.from,
                e.resource,
                e.from_class.label(),
                e.to_class.label(),
                if e.overlap { ", overlapping holders" } else { "" },
                e.stream,
                e.to,
            )?;
        }
        Ok(())
    }
}

/// The verifier's answer for one run.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Certified, with the equivalent serial order.
    Serializable(Certificate),
    /// Rejected, with the minimal offending cycle.
    NotSerializable(CycleReport),
}

impl Verdict {
    /// True when the run was certified.
    #[must_use]
    pub fn is_serializable(&self) -> bool {
        matches!(self, Verdict::Serializable(_))
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Serializable(c) => c.fmt(f),
            Verdict::NotSerializable(r) => r.fmt(f),
        }
    }
}

/// Per-(txn, resource) grant info inside one stream.
#[derive(Clone, Debug)]
struct Holding {
    /// One entry per distinct granted class, at its first grant.
    grants: Vec<Grant>,
}

/// A txn's first grant of one class on one resource within a stream.
/// Positions are tracked per *class*, not per holding: a compatible
/// grant (say a Read) may long precede the holder's first incompatible
/// grant, and dating the conflict from the earlier grant would
/// fabricate overlaps.
#[derive(Clone, Copy, Debug)]
struct Grant {
    class: OpClass,
    pos: usize,
    /// The grant bypassed a sleeping holder — the one GTM path that
    /// sanctions incompatible co-residence.
    bypassed: bool,
}

#[derive(Clone, Debug)]
struct EdgeInfo {
    resource: ResourceId,
    from_class: OpClass,
    to_class: OpClass,
    overlap: bool,
    stream: usize,
}

/// A graph node: one *incarnation* of a transaction id. The second
/// component counts completed prior uses of the id within its stream,
/// so concatenated runs that restart the id counter stay distinct.
type Node = (TxnId, u32);

/// Annotates each record of a stream with its event's incarnation node
/// (None for events that carry no transaction id the verifier uses).
fn annotate(stream: &TraceStream) -> Vec<Option<Node>> {
    let mut completions: BTreeMap<TxnId, u32> = BTreeMap::new();
    stream
        .records
        .iter()
        .map(|rec| {
            let txn = match &rec.event {
                TraceEvent::TxnBegin { txn }
                | TraceEvent::OpGranted { txn, .. }
                | TraceEvent::Committed { txn }
                | TraceEvent::Aborted { txn, .. } => Some(*txn),
                _ => None,
            };
            txn.map(|t| {
                let epoch = completions.get(&t).copied().unwrap_or(0);
                if matches!(rec.event, TraceEvent::Committed { .. } | TraceEvent::Aborted { .. }) {
                    *completions.entry(t).or_insert(0) += 1;
                }
                (t, epoch)
            })
        })
        .collect()
}

/// Stitches per-epoch stream sets — e.g. the pre-crash and
/// post-recovery captures of the same shards in a fault-injection run —
/// into one continuous stream per label. Streams sharing a label are
/// concatenated in epoch order and renumbered with a fresh per-stream
/// `seq`, so the verifier sees each shard's full history as a single
/// stream; labels keep their first-seen order. A crash-recovery run is
/// certified by stitching its epochs and passing the result to
/// [`verify_streams`].
#[must_use]
pub fn stitch_streams(epochs: &[Vec<TraceStream>]) -> Vec<TraceStream> {
    let mut order: Vec<String> = Vec::new();
    let mut by_label: BTreeMap<String, Vec<TraceRecord>> = BTreeMap::new();
    for stream in epochs.iter().flatten() {
        if !by_label.contains_key(&stream.label) {
            order.push(stream.label.clone());
        }
        by_label.entry(stream.label.clone()).or_default().extend_from_slice(&stream.records);
    }
    order
        .into_iter()
        .map(|label| {
            let mut records = by_label.remove(&label).unwrap_or_default();
            for (i, rec) in records.iter_mut().enumerate() {
                rec.seq = i as u64;
            }
            TraceStream { label, records }
        })
        .collect()
}

/// Verifies one run captured as a single stream.
#[must_use]
pub fn verify_records(records: &[TraceRecord]) -> Verdict {
    verify_streams(&[TraceStream { label: "trace".to_string(), records: records.to_vec() }])
}

/// Verifies one run captured as several per-tracer streams (e.g. the
/// sharded front-end's one-file-per-shard traces). Cross-stream event
/// order is never compared: a resource's grants and its holders'
/// commits land in the owning shard's stream, so every conflict is
/// decided inside one stream.
#[must_use]
pub fn verify_streams(streams: &[TraceStream]) -> Verdict {
    // Incarnation annotation per stream (id reuse across concatenated
    // runs splits into distinct nodes; see module docs).
    let annotated: Vec<Vec<Option<Node>>> = streams.iter().map(annotate).collect();

    // ---- Global transaction fates -----------------------------------
    let mut committed: BTreeSet<Node> = BTreeSet::new();
    let mut aborted: BTreeSet<Node> = BTreeSet::new();
    let mut begun: BTreeSet<Node> = BTreeSet::new();
    // Earliest Committed event per node, as a cross-run sort key for the
    // serial order's tie-break: (virtual time, stream, seq).
    let mut commit_key: BTreeMap<Node, (u64, usize, u64)> = BTreeMap::new();

    for (si, stream) in streams.iter().enumerate() {
        for (pos, rec) in stream.records.iter().enumerate() {
            let Some(node) = annotated[si][pos] else { continue };
            match &rec.event {
                TraceEvent::TxnBegin { .. } | TraceEvent::OpGranted { .. } => {
                    begun.insert(node);
                }
                TraceEvent::Committed { .. } => {
                    committed.insert(node);
                    let key = (rec.at.0, si, rec.seq);
                    let e = commit_key.entry(node).or_insert(key);
                    *e = (*e).min(key);
                }
                TraceEvent::Aborted { .. } => {
                    aborted.insert(node);
                }
                _ => {}
            }
        }
    }
    // A cross-shard abort can follow a per-shard state where another
    // shard already aborted; Committed and Aborted never both appear
    // for one txn in a correct trace, but if they do, the txn had a
    // final-state effect — keep it in the graph.
    let aborted: BTreeSet<Node> = aborted.difference(&committed).copied().collect();
    let unfinished =
        begun.iter().filter(|t| !committed.contains(t) && !aborted.contains(t)).count();

    // ---- Conflict edges, per stream ---------------------------------
    let mut edges: BTreeMap<(Node, Node), EdgeInfo> = BTreeMap::new();
    for (si, stream) in streams.iter().enumerate() {
        // first grant + classes per (node, resource); commit position.
        let mut holdings: BTreeMap<ResourceId, BTreeMap<Node, Holding>> = BTreeMap::new();
        let mut commit_pos: BTreeMap<Node, usize> = BTreeMap::new();
        for (pos, rec) in stream.records.iter().enumerate() {
            match &rec.event {
                TraceEvent::OpGranted { resource, class, bypassed_sleeper, .. } => {
                    let node = annotated[si][pos].expect("OpGranted carries a txn");
                    if !committed.contains(&node) {
                        continue; // no final-state effect
                    }
                    let h = holdings
                        .entry(*resource)
                        .or_default()
                        .entry(node)
                        .or_insert(Holding { grants: Vec::new() });
                    match h.grants.iter_mut().find(|g| g.class == *class) {
                        Some(g) => g.bypassed |= *bypassed_sleeper,
                        None => {
                            h.grants.push(Grant { class: *class, pos, bypassed: *bypassed_sleeper })
                        }
                    }
                }
                TraceEvent::Committed { .. } => {
                    let node = annotated[si][pos].expect("Committed carries a txn");
                    commit_pos.entry(node).or_insert(pos);
                }
                _ => {}
            }
        }
        for (resource, holders) in &holdings {
            let list: Vec<(&Node, &Holding)> = holders.iter().collect();
            for (i, (t1, h1)) in list.iter().enumerate() {
                for (t2, h2) in list.iter().skip(i + 1) {
                    // A missing Committed event in the stream that
                    // granted the resource means the holder was still
                    // holding when the trace ended — an unbounded
                    // interval.
                    let end1 = commit_pos.get(*t1).copied().unwrap_or(usize::MAX);
                    let end2 = commit_pos.get(*t2).copied().unwrap_or(usize::MAX);
                    // Every incompatible class pair across the two
                    // holders contributes its own constraint: each class
                    // conflicts from its *own* first grant (a compatible
                    // Read long before an update must not date the
                    // update's conflict window).
                    for g1 in &h1.grants {
                        for g2 in &h2.grants {
                            if g1.class.compatible_with(g2.class) {
                                continue;
                            }
                            let (c1, c2) = (g1.class, g2.class);
                            if end1 < g2.pos {
                                add_edge(&mut edges, **t1, **t2, *resource, c1, c2, false, si);
                            } else if end2 < g1.pos {
                                add_edge(&mut edges, **t2, **t1, *resource, c2, c1, false, si);
                            } else if g1.bypassed || g2.bypassed {
                                // Sanctioned co-residence: a grant
                                // bypassed a sleeping holder which awoke
                                // (no committed conflict yet) and later
                                // committed. Reconciliation applies each
                                // commit against the then-current
                                // permanent value, so the pair
                                // serializes in commit order.
                                if end1 <= end2 {
                                    add_edge(&mut edges, **t1, **t2, *resource, c1, c2, false, si);
                                } else {
                                    add_edge(&mut edges, **t2, **t1, *resource, c2, c1, false, si);
                                }
                            } else {
                                // Unsanctioned incompatible co-residence:
                                // both orientations hold, forming a
                                // 2-cycle.
                                add_edge(&mut edges, **t1, **t2, *resource, c1, c2, true, si);
                                add_edge(&mut edges, **t2, **t1, *resource, c2, c1, true, si);
                            }
                        }
                    }
                }
            }
        }
    }

    // ---- Topological sort (Kahn), commit-time tie-break -------------
    let nodes: Vec<Node> = committed.iter().copied().collect();
    let mut indegree: BTreeMap<Node, usize> = nodes.iter().map(|t| (*t, 0)).collect();
    let mut out: BTreeMap<Node, Vec<Node>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        *indegree.entry(*to).or_insert(0) += 1;
        out.entry(*from).or_default().push(*to);
    }
    let key_of = |t: Node| commit_key.get(&t).copied().unwrap_or((u64::MAX, usize::MAX, u64::MAX));
    let mut ready: BTreeSet<((u64, usize, u64), Node)> =
        indegree.iter().filter(|(_, d)| **d == 0).map(|(t, _)| (key_of(*t), *t)).collect();
    let mut serial_order: Vec<TxnId> = Vec::with_capacity(nodes.len());
    while let Some(&(key, node)) = ready.iter().next() {
        ready.remove(&(key, node));
        serial_order.push(node.0);
        for succ in out.get(&node).cloned().unwrap_or_default() {
            let d = indegree.get_mut(&succ).expect("successor is a node");
            *d -= 1;
            if *d == 0 {
                ready.insert((key_of(succ), succ));
            }
        }
    }

    if serial_order.len() == nodes.len() {
        return Verdict::Serializable(Certificate {
            committed: committed.len(),
            aborted: aborted.len(),
            unfinished,
            conflict_edges: edges.len(),
            serial_order,
        });
    }

    // ---- Cycle extraction -------------------------------------------
    // A node Kahn never placed still carries positive indegree; the set
    // of such nodes contains every cycle.
    let in_cycle: BTreeSet<Node> =
        indegree.iter().filter(|(_, d)| **d > 0).map(|(n, _)| *n).collect();
    let path = shortest_cycle(&in_cycle, &out).expect("unplaced nodes contain a cycle");
    let cycle = path
        .iter()
        .enumerate()
        .map(|(i, &from)| {
            let to = path[(i + 1) % path.len()];
            let info = &edges[&(from, to)];
            CycleEdge {
                from: from.0,
                to: to.0,
                resource: info.resource,
                from_class: info.from_class,
                to_class: info.to_class,
                overlap: info.overlap,
                stream: streams[info.stream].label.clone(),
            }
        })
        .collect();
    Verdict::NotSerializable(CycleReport { cycle })
}

/// Reads each recorder file, refuses one with gaps or drops, and
/// verifies every shard stream of every file as one run.
pub fn verify_trace_files<P: AsRef<Path>>(paths: &[P]) -> Result<Verdict, String> {
    let mut streams = Vec::new();
    for p in paths {
        let p = p.as_ref();
        let at = |e: String| format!("{}: {e}", p.display());
        let replay = pstm_obs::read_recorder(p).map_err(|e| at(e.to_string()))?;
        replay.check_complete().map_err(at)?;
        let stem = p.file_stem().unwrap_or_default().to_string_lossy();
        for (shard, records) in replay.records_by_shard() {
            streams.push(TraceStream { label: format!("{stem}:{shard}"), records });
        }
    }
    Ok(verify_streams(&streams))
}

#[allow(clippy::too_many_arguments)]
fn add_edge(
    edges: &mut BTreeMap<(Node, Node), EdgeInfo>,
    from: Node,
    to: Node,
    resource: ResourceId,
    from_class: OpClass,
    to_class: OpClass,
    overlap: bool,
    stream: usize,
) {
    edges.entry((from, to)).or_insert(EdgeInfo { resource, from_class, to_class, overlap, stream });
}

/// Shortest directed cycle within `nodes` (BFS from each node over the
/// restricted graph). Guaranteed to exist by construction.
fn shortest_cycle(nodes: &BTreeSet<Node>, out: &BTreeMap<Node, Vec<Node>>) -> Option<Vec<Node>> {
    let mut best: Option<Vec<Node>> = None;
    for &start in nodes {
        // BFS back to `start`.
        let mut parent: BTreeMap<Node, Node> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([start]);
        let mut found = false;
        'bfs: while let Some(u) = queue.pop_front() {
            for &v in out.get(&u).into_iter().flatten() {
                if !nodes.contains(&v) {
                    continue;
                }
                if v == start {
                    parent.insert(v, u); // close the loop (records the last hop)
                    found = true;
                    break 'bfs;
                }
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(v) {
                    e.insert(u);
                    queue.push_back(v);
                }
            }
        }
        if !found {
            continue;
        }
        // Reconstruct: start ← … ← start.
        let mut path = vec![start];
        let mut cur = parent[&start];
        while cur != start {
            path.push(cur);
            cur = parent[&cur];
        }
        path.reverse();
        if best.as_ref().is_none_or(|b| path.len() < b.len()) {
            best = Some(path);
        }
    }
    best
}
