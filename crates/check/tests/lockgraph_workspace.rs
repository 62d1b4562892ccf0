//! Whole-workspace certification for the concurrency analyzer.
//!
//! Where `lockgraph_fixtures.rs` proves the analyzer *detects* seeded
//! violations, this suite proves the workspace itself *passes* — with no
//! allowlist entries for any lockgraph rule — and pins the discovered
//! surface (flush points, event-loop functions, DOT dialect) so a
//! refactor that silently drops a marker fails here instead of silently
//! shrinking the analyzer's coverage. The differential test at the
//! bottom checks the lexer against an independently written text oracle
//! on every real source file: two implementations of "where are the
//! lock-acquisition sites" agreeing over ~1k functions is the evidence
//! that the parser the proofs stand on actually reads Rust.

use pstm_check::lint::{run_lint, LintReport};
use pstm_check::{acquisition_token_count, collect_workspace};
use pstm_obs::dot::waits_for_dot;
use pstm_types::TxnId;
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

fn report() -> LintReport {
    run_lint(&workspace_root()).expect("lint run")
}

#[test]
fn workspace_concurrency_discipline_certifies_clean() {
    let report = report();
    assert!(report.files_scanned > 20, "scanned only {} files", report.files_scanned);
    assert!(report.fns_scanned > 500, "parsed only {} fns", report.fns_scanned);
    assert!(
        report.is_clean(),
        "workspace violates its concurrency discipline:\n{}",
        report.render()
    );
}

#[test]
fn lockgraph_rules_carry_zero_allowlist_entries() {
    // The day-one findings were fixed in code, not waived; keep it that
    // way. The gate covers every rule: the allowlist has no entries.
    let text = fs::read_to_string(workspace_root().join("pstm-check.allow")).expect("allow file");
    for line in text.lines().map(str::trim) {
        assert!(
            line.is_empty() || line.starts_with('#'),
            "pstm-check.allow gained an entry: {line}"
        );
    }
}

#[test]
fn flush_points_are_exactly_the_declared_four() {
    // The hold-across-flush proof is only as strong as the flush-point
    // set. Pin it: a dropped marker (or a renamed fn orphaning its tag)
    // silently weakens the rule everywhere.
    let report = report();
    let expected = [
        "crates/core/src/sst.rs::Sst::execute",
        "crates/core/src/sst.rs::SstBatch::execute",
        "crates/storage/src/engine.rs::Database::apply_write_set",
        "crates/storage/src/wal.rs::Wal::flush_staged",
    ];
    assert_eq!(report.flush_points, expected, "flush-point markers drifted");
}

#[test]
fn coordinator_acquisitions_stay_visible_through_the_env_seam() {
    // The one commit coordinator reaches the front-end's locks only
    // through `CommitEnv` (generic dispatch). Pin that the analyzer still
    // charges them to the fence-holding caller: the shard mutexes via the
    // `with_shards` scope, the wake-registry mutex via the trait-typed
    // `env` receiver resolving to every implementor.
    let report = report();
    for to in ["gtm_shard", "wake_registry"] {
        let site = report.edges.get(&("flush_fence".to_string(), to.to_string()));
        assert!(
            site.is_some_and(|s| s.contains("fn Session::commit")),
            "flush_fence -> {to} not observed from the coordinator's front environment: {site:?}"
        );
    }
    // A wake is routed with no shard held: the registry lookup and the
    // waiter's cell sit beside the shard mutexes, never under them.
    for to in ["wake_registry", "oneshot_cell"] {
        let edge = ("gtm_shard".to_string(), to.to_string());
        assert!(!report.edges.contains_key(&edge), "gtm_shard -> {to}: {:?}", report.edges[&edge]);
    }
    // The certified graph, exactly: it cannot silently regrow.
    assert_eq!(report.classes.len(), 17, "lock classes: {:?}", report.classes);
    assert_eq!(report.edges.len(), 19, "lock-order edges: {:?}", report.edges.keys());
}

#[test]
fn event_loop_surface_is_registered() {
    let report = report();
    let expected = [
        "crates/front/src/lib.rs::ShardedFront::shard_of",
        "crates/front/src/reactor.rs::Reactor::owner_of",
        "crates/front/src/timer.rs::TimerWheel::next_deadline",
        "crates/front/src/timer.rs::TimerWheel::pop_due",
        "crates/front/src/timer.rs::TimerWheel::schedule_at",
        "crates/obs/src/wallclock.rs::WallAnchor::stamp",
        "crates/types/src/ids.rs::TxnIdAllocator::allocate",
    ];
    assert_eq!(report.event_loop_fns, expected, "event-loop tags drifted");
}

// ---------------------------------------------------------------------
// DOT dialect cross-check against the runtime waits-for renderer
// ---------------------------------------------------------------------

/// Structural facts shared by both DOT renderers: one graph name, LR
/// rank direction, every body line two-space-indented and `;`-terminated,
/// node declarations before edges, edges sorted, and every edge endpoint
/// declared as a node.
struct DotShape {
    nodes: Vec<String>,
    edges: Vec<(String, String)>,
}

fn parse_dot(dot: &str) -> DotShape {
    let mut lines = dot.lines();
    let head = lines.next().expect("header");
    assert!(head.starts_with("digraph ") && head.ends_with(" {"), "header names the graph: {head}");
    assert_eq!(lines.next(), Some("  rankdir=LR;"), "LR rank direction");
    let mut nodes = Vec::new();
    let mut edges = Vec::new();
    for line in lines {
        if line == "}" {
            return DotShape { nodes, edges };
        }
        let body = line.strip_prefix("  ").expect("two-space indent");
        assert!(!body.starts_with(' '), "exactly two spaces: {line:?}");
        let stmt = body.strip_suffix(';').expect("semicolon-terminated");
        if let Some((from, to)) = stmt.split_once(" -> ") {
            edges.push((from.to_string(), to.to_string()));
        } else if !stmt.contains('[') {
            assert!(edges.is_empty(), "node declared after edges: {line}");
            nodes.push(stmt.to_string());
        }
        // `node [shape=...]` style defaults pass through unchecked.
    }
    panic!("unterminated digraph");
}

#[test]
fn static_dot_speaks_the_runtime_waits_for_dialect() {
    // `pstm_top` snapshots the runtime waits-for graph in DOT; the
    // analyzer emits the static lock-order graph in the same dialect so
    // one consumer (CI artifact viewer, graphviz pipeline) renders both.
    let static_dot = report().dot();
    let runtime_dot =
        waits_for_dot([(TxnId(2), TxnId(1)), (TxnId(3), TxnId(1)), (TxnId(3), TxnId(2))]);

    for (label, dot) in [("static", static_dot.as_str()), ("runtime", runtime_dot.as_str())] {
        let shape = parse_dot(dot);
        let mut sorted = shape.edges.clone();
        sorted.sort();
        assert_eq!(shape.edges, sorted, "{label}: edges sorted");
        for (from, to) in &shape.edges {
            assert!(
                shape.nodes.contains(from) && shape.nodes.contains(to),
                "{label}: edge {from} -> {to} uses an undeclared node"
            );
        }
    }

    // And the static graph is not trivial: the two-level discipline
    // shows up as fence-before-shard and shard-before-internals edges.
    let shape = parse_dot(&static_dot);
    assert!(shape.nodes.iter().any(|n| n == "flush_fence"), "nodes: {:?}", shape.nodes);
    assert!(
        shape.edges.iter().any(|(a, b)| a == "flush_fence" && b == "gtm_shard"),
        "fence -> shard edge missing: {:?}",
        shape.edges
    );
}

/// README.md shows the workspace's lock-order graph. It is checked, not
/// copied: the `dot` block under its summary line is what `pstm_check
/// lint --dot` renders, byte for byte, and the summary line counts
/// that graph's classes and edges.
#[test]
fn readme_lock_order_graph_is_the_rendered_one() {
    let readme = fs::read_to_string(workspace_root().join("README.md")).expect("README.md");
    let summary = "<summary><code>pstm_check lint --dot lock_order.dot</code> — ";
    let (_, after) = readme.split_once(summary).expect("README keeps the lock-order summary");
    let (line, rest) = after.split_once('\n').expect("summary line");
    let block = rest.split_once("```dot\n").and_then(|(_, b)| b.split_once("```"));
    let (block, _) = block.expect("a dot block follows the summary");

    let dot = report().dot();
    assert_eq!(block, dot, "README's lock-order DOT differs from `pstm_check lint --dot`");
    let shape = parse_dot(&dot);
    let counted =
        format!("{} classes, {} edges, acyclic</summary>", shape.nodes.len(), shape.edges.len());
    assert_eq!(line, counted, "README's lock-order summary line");
}

// ---------------------------------------------------------------------
// Differential: lexer vs an independently written text oracle
// ---------------------------------------------------------------------

/// Counts `.lock()` / `.read()` / `.write()` acquisition sites by direct
/// text scanning — comments, strings (escaped and raw), char literals,
/// and lifetimes stripped by a character-level state machine that shares
/// no code with the lexer. Deliberately a second implementation: where
/// the two disagree, one of them misreads Rust.
fn oracle_count(src: &str) -> usize {
    let b = src.as_bytes();
    let mut i = 0;
    let mut n = 0;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' if matches!(b.get(i + 1), Some(b'"' | b'#'))
                && (i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')) =>
            {
                // Raw string: r"..." or r#"..."# with any hash count.
                let mut hashes = 0;
                let mut j = i + 1;
                while b.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if b.get(j) != Some(&b'"') {
                    i += 1; // `r#` that isn't a raw string (raw ident)
                    continue;
                }
                j += 1;
                'raw: while j < b.len() {
                    if b[j] == b'"' {
                        let mut k = 0;
                        while k < hashes && b.get(j + 1 + k) == Some(&b'#') {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break 'raw;
                        }
                    }
                    j += 1;
                }
                i = j;
            }
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            b'\'' => {
                // Char literal or lifetime. `'\x'`-style and `'c'` are
                // literals; `'a` with no closing quote is a lifetime.
                if b.get(i + 1) == Some(&b'\\') {
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                } else if b.get(i + 2) == Some(&b'\'') {
                    i += 3;
                } else {
                    i += 1; // lifetime: leave the ident to the scanner
                }
            }
            b'.' => {
                for kw in ["lock", "read", "write"] {
                    let end = i + 1 + kw.len();
                    if src.get(i + 1..end) == Some(kw) && src.get(end..end + 2) == Some("()") {
                        n += 1;
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    n
}

#[test]
fn lexer_acquisition_counts_match_text_oracle_on_every_file() {
    let root = workspace_root();
    let files = collect_workspace(&root).expect("workspace collection");
    assert!(files.len() > 20, "collected only {} files", files.len());
    let mut total = 0;
    for f in &files {
        let src = fs::read_to_string(root.join(&f.path)).expect("source readable");
        let lexed = acquisition_token_count(&src);
        let oracle = oracle_count(&src);
        assert_eq!(lexed, oracle, "lexer and text oracle disagree on {}", f.path);
        total += lexed;
    }
    assert!(total > 40, "workspace has only {total} acquisition sites — oracle too blind?");
}

#[test]
fn oracle_and_lexer_agree_on_adversarial_snippets() {
    // The corners the state machines could plausibly diverge on.
    let cases = [
        ("let g = m.lock();", 1),
        ("// m.lock()\nlet g = m.read();", 1),
        ("/* outer /* m.lock() */ still comment */ m.write();", 1),
        (r####"let s = r#"x.lock()"#; y.lock();"####, 1),
        ("let c = '\"'; m.lock(); let s = \"a.read()\";", 1),
        ("fn f<'a>(x: &'a M) { x.lock(); }", 1),
        ("m.lockup(); m.ready(); m.write_all(buf);", 0),
        ("m.read().write();", 2),
    ];
    for (src, want) in cases {
        assert_eq!(acquisition_token_count(src), want, "lexer on {src:?}");
        assert_eq!(oracle_count(src), want, "oracle on {src:?}");
    }
}
