//! Static/runtime cross-check for the concurrency analyzer.
//!
//! The analyzer proves lock-order facts *statically*; `pstm_top` observes
//! waiting *at runtime* as waits-for snapshots. This test drives a real
//! contended front-end run and holds the two views against each other:
//!
//! 1. **Dialect** — the static lock-order DOT and the runtime waits-for
//!    DOT parse under one shared grammar, so any consumer of one artifact
//!    (the CI DOT upload, a graphviz pipeline) renders the other.
//! 2. **Acyclicity** — the static graph the analyzer certified is
//!    re-checked by an independent toposort over its rendered edges; and
//!    the runtime waits-for graph drains to empty once every session
//!    commits, which is the observable consequence of the discipline the
//!    analyzer proves (no guard outlives its commit wave, nothing is
//!    held across a flush).

use pstm_bench::profile::{merge_records, profile};
use pstm_check::lint::run_lint;
use pstm_core::gtm::CommitResult;
use pstm_front::{FrontConfig, ShardedFront};
use pstm_obs::{RingHandle, RingSink, Tracer};
use pstm_types::{ScalarOp, Value};
use pstm_workload::counter_world;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

const OBJECTS: usize = 4;
const SHARDS: usize = 2;
const WAITERS: usize = 3;

/// Minimal shared-dialect DOT reader: header, `rankdir=LR;`, two-space
/// indented `;`-terminated statements, nodes before sorted edges.
fn parse_dot(dot: &str) -> (BTreeSet<String>, Vec<(String, String)>) {
    let mut lines = dot.lines();
    let head = lines.next().expect("header line");
    assert!(head.starts_with("digraph ") && head.ends_with(" {"), "bad header: {head}");
    assert_eq!(lines.next(), Some("  rankdir=LR;"));
    let mut nodes = BTreeSet::new();
    let mut edges = Vec::new();
    for line in lines {
        if line == "}" {
            let mut sorted = edges.clone();
            sorted.sort();
            assert_eq!(edges, sorted, "edges emitted sorted");
            for (a, b) in &edges {
                assert!(nodes.contains(a) && nodes.contains(b), "undeclared endpoint {a}->{b}");
            }
            return (nodes, edges);
        }
        let stmt = line
            .strip_prefix("  ")
            .and_then(|s| s.strip_suffix(';'))
            .unwrap_or_else(|| panic!("malformed statement: {line:?}"));
        if let Some((from, to)) = stmt.split_once(" -> ") {
            edges.push((from.to_string(), to.to_string()));
        } else if !stmt.contains('[') {
            nodes.insert(stmt.to_string());
        }
    }
    panic!("unterminated digraph");
}

/// Kahn's algorithm — deliberately not the analyzer's DFS cycle check.
fn is_acyclic(nodes: &BTreeSet<String>, edges: &[(String, String)]) -> bool {
    let mut indeg: BTreeMap<&str, usize> = nodes.iter().map(|n| (n.as_str(), 0)).collect();
    for (_, to) in edges {
        *indeg.get_mut(to.as_str()).unwrap() += 1;
    }
    let mut ready: Vec<&str> = indeg.iter().filter(|(_, d)| **d == 0).map(|(n, _)| *n).collect();
    let mut seen = 0;
    while let Some(n) = ready.pop() {
        seen += 1;
        for (from, to) in edges {
            if from == n {
                let d = indeg.get_mut(to.as_str()).unwrap();
                *d -= 1;
                if *d == 0 {
                    ready.push(to);
                }
            }
        }
    }
    seen == nodes.len()
}

#[test]
fn static_lock_order_and_runtime_waits_for_agree() {
    // --- runtime side: a contended run with per-shard ring tracers ---
    let world = counter_world(OBJECTS, 1_000_000).unwrap();
    let mut handles: Vec<RingHandle> = Vec::new();
    let front = ShardedFront::with_shard_tracers(
        world.db.clone(),
        world.bindings.clone(),
        FrontConfig { shards: SHARDS, ..FrontConfig::default() },
        |_| {
            let ring = RingSink::new(1 << 16);
            handles.push(ring.handle());
            Tracer::with_sink(Box::new(ring))
        },
    );
    let hot = world.resources[0];
    let mut holder = front.session();
    holder.execute(hot, ScalarOp::Assign(Value::Int(1))).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..WAITERS {
            let front = front.clone();
            scope.spawn(move || {
                let mut s = front.session();
                s.execute(hot, ScalarOp::Add(Value::Int(1))).unwrap();
                assert_eq!(s.commit().unwrap(), CommitResult::Committed);
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(holder.commit().unwrap(), CommitResult::Committed);
    });
    front.check_invariants().unwrap();

    let records = merge_records(handles.iter().map(|h| h.snapshot()).collect());
    let p = profile(&records, 3, 4);
    let peak = p.peak.as_ref().expect("the held Assign must show as waiting");
    assert!(peak.edges >= 1);

    // --- static side: the analyzer over this very workspace ---
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap();
    let report = run_lint(&root).expect("lint run");
    assert!(report.is_clean(), "workspace not clean:\n{}", report.render());

    // 1. One grammar reads both artifacts.
    let (static_nodes, static_edges) = parse_dot(&report.dot());
    let (runtime_nodes, runtime_edges) = parse_dot(&peak.dot);
    assert!(!static_edges.is_empty() && !runtime_edges.is_empty());
    for n in &runtime_nodes {
        assert!(
            n.starts_with('T') && n[1..].chars().all(|c| c.is_ascii_digit()),
            "runtime nodes are transactions: {n}"
        );
    }

    // 2. Independent acyclicity: the certified lock-order graph really is
    //    a DAG, and the drained waits-for graph really is empty.
    assert!(is_acyclic(&static_nodes, &static_edges), "lock-order cycle slipped through");
    assert!(static_nodes.contains("gtm_shard"), "{static_nodes:?}");
    let last = p.snapshots.last().expect("snapshots requested");
    assert_eq!(last.edges, 0, "all sessions committed; waits-for must drain: {}", last.dot);
    assert!(front.shards_unlocked(), "a shard guard leaked past commit");
}
