//! Seeded-violation fixtures for the concurrency analyzer.
//!
//! Each test compiles in one known-bad snippet — inverted fence/shard
//! order, a guard held across a flush, an unjustified `Relaxed`, a
//! blocking call in event-loop context — and asserts the analyzer
//! catches exactly its seed, with a witness report precise enough to
//! act on. A sibling clean snippet per rule guards against the analyzer
//! over-firing (a lint nobody trusts is a lint nobody runs).

use pstm_check::{analyze, parse_source, Allowlist, Rule, SourceFile};

fn empty_allow() -> Allowlist {
    Allowlist::parse("").expect("empty allowlist parses")
}

fn run(files: &[(&str, &str)]) -> pstm_check::LintReport {
    let parsed: Vec<SourceFile> = files.iter().map(|(path, src)| parse_source(path, src)).collect();
    analyze(&parsed, &mut empty_allow())
}

/// Violations of one rule, as `(line, detail)` pairs.
fn of_rule(report: &pstm_check::LintReport, rule: Rule) -> Vec<(usize, String)> {
    report
        .violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| (v.line, v.detail.clone()))
        .collect()
}

#[test]
fn inverted_fence_shard_order_is_caught() {
    // The sanctioned order is fence (level 0) before shard (level 1);
    // this seed takes a shard guard, then a fence — an up-level edge.
    let report = run(&[(
        "crates/front/src/lib.rs",
        r#"
        impl Front {
            fn bad(&self) {
                let g = self.inner.shards[0].lock();
                let f = self.inner.flush_fences[0].lock();
                drop(f);
                drop(g);
            }
        }
        "#,
    )]);
    let hits = of_rule(&report, Rule::OrderGraph);
    assert_eq!(hits.len(), 1, "exactly the seeded inversion: {:?}", report.violations);
    assert_eq!(hits[0].0, 5, "anchored at the fence acquisition");
    assert!(
        hits[0].1.contains("gtm_shard -> flush_fence"),
        "edge named in the detail: {}",
        hits[0].1
    );
    // The witness path points at the acquiring function.
    let v = &report.violations[0];
    assert!(v.path.iter().any(|s| s.contains("fn Front::bad")), "witness: {:?}", v.path);
}

#[test]
fn multi_shard_outside_helper_is_caught_and_helper_is_exempt() {
    let bad = r#"
        impl Front {
            fn two_shards(&self) {
                let a = self.inner.shards[0].lock();
                let b = self.inner.shards[1].lock();
                drop(b);
                drop(a);
            }
            fn lock_shards_ascending(&self) {
                let a = self.inner.shards[0].lock();
                let b = self.inner.shards[1].lock();
                drop(b);
                drop(a);
            }
        }
        "#;
    let report = run(&[("crates/front/src/lib.rs", bad)]);
    let hits = of_rule(&report, Rule::MultiShard);
    assert_eq!(hits.len(), 1, "only the path outside the helper fires: {:?}", report.violations);
    assert_eq!(hits[0].0, 5);
    let v = report.violations.iter().find(|v| v.rule == Rule::MultiShard).unwrap();
    assert_eq!(v.func.as_deref(), Some("two_shards"));
}

#[test]
fn guard_across_flush_is_caught_through_a_call_edge() {
    // The flush sits two call hops away from the guard holder; the
    // violation must carry the whole chain as its witness.
    let report = run(&[(
        "crates/front/src/lib.rs",
        r#"
        impl Front {
            fn commit(&self, wal: Wal) {
                let g = self.inner.shards[0].lock();
                self.persist(wal);
                drop(g);
            }
            fn persist(&self, wal: Wal) {
                wal.append_batch();
            }
        }
        impl Wal {
            // pstm-lockgraph: flush-point
            fn append_batch(&self) {}
        }
        "#,
    )]);
    let hits = of_rule(&report, Rule::HoldAcrossFlush);
    assert_eq!(hits.len(), 1, "{:?}", report.violations);
    let v = report.violations.iter().find(|v| v.rule == Rule::HoldAcrossFlush).unwrap();
    assert_eq!(v.line, 5, "anchored at the call made while holding");
    assert!(v.detail.contains("persist"), "names the offending call: {}", v.detail);
    assert!(
        v.path.iter().any(|s| s.contains("flush-point")),
        "witness reaches the flush point: {:?}",
        v.path
    );
}

#[test]
fn guard_dropped_before_flush_is_clean() {
    let report = run(&[(
        "crates/front/src/lib.rs",
        r#"
        impl Front {
            fn commit(&self, wal: Wal) {
                let g = self.inner.shards[0].lock();
                drop(g);
                wal.append_batch();
            }
        }
        impl Wal {
            // pstm-lockgraph: flush-point
            fn append_batch(&self) {}
        }
        "#,
    )]);
    assert!(of_rule(&report, Rule::HoldAcrossFlush).is_empty(), "{:?}", report.violations);
}

/// The commit coordinator reaches shards through the generic
/// `CommitEnv::with_shards(shards, |held, now| …)` seam, not through a
/// guard the analyzer can see being bound. The seam must not be a blind
/// spot: a coordinator whose flush moved *inside* the shard-access scope
/// is caught, while the real shape — reconcile in the scope, flush after
/// it, even with the scope's value `let`-bound — stays clean.
#[test]
fn coordinator_flush_inside_the_shard_access_scope_is_caught() {
    let sst = r#"
        impl SstBatch {
            // pstm-lockgraph: flush-point
            pub fn execute(&self, db: &Database) {}
        }
        "#;
    let coordinator = |flush_inside: bool| {
        let (inside, after) =
            if flush_inside { ("batch.execute(db);", "") } else { ("", "batch.execute(db);") };
        format!(
            r#"
        pub fn commit_wave<E: CommitEnv>(env: &mut E, batch: SstBatch, db: &Database) {{
            let parked = env.with_shards(&shards, |held, now| {{
                held.gtm(0).commit_local(txn, now);
                {inside}
            }});
            {after}
            env.with_shards(&shards, |held, now| held.gtm(0).commit_finish(txn, now));
        }}
        "#
        )
    };

    let bad = coordinator(true);
    let report = run(&[("crates/core/src/commit.rs", &bad), ("crates/core/src/sst.rs", sst)]);
    let hits = of_rule(&report, Rule::HoldAcrossFlush);
    assert_eq!(hits.len(), 1, "{:?}", report.violations);
    let v = report.violations.iter().find(|v| v.rule == Rule::HoldAcrossFlush).unwrap();
    assert_eq!(v.func.as_deref(), Some("commit_wave"));
    assert!(v.detail.contains("execute"), "names the offending call: {}", v.detail);
    assert!(
        v.path.iter().any(|s| s.contains("flush-point")),
        "witness reaches the flush point: {:?}",
        v.path
    );

    let good = coordinator(false);
    let report = run(&[("crates/core/src/commit.rs", &good), ("crates/core/src/sst.rs", sst)]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn relaxed_outside_seam_and_unjustified_in_seam_are_caught() {
    let report = run(&[
        // Outside any declared seam: always a finding.
        (
            "crates/core/src/gtm.rs",
            r#"
            impl Gtm {
                fn count(&self) {
                    self.n.fetch_add(1, Ordering::Relaxed);
                }
            }
            "#,
        ),
        // In-seam but with no `relaxed:` justification comment.
        (
            "crates/obs/src/prof.rs",
            r#"
            impl Slot {
                fn bump(&self) {
                    self.n.fetch_add(1, Ordering::Relaxed);
                }
            }
            "#,
        ),
        // In-seam and justified: clean.
        (
            "crates/types/src/ids.rs",
            r#"
            impl Alloc {
                fn next(&self) -> u64 {
                    // relaxed: plain counter, nothing published through it.
                    self.n.fetch_add(1, Ordering::Relaxed)
                }
            }
            "#,
        ),
    ]);
    let hits = of_rule(&report, Rule::Atomics);
    assert_eq!(hits.len(), 2, "{:?}", report.violations);
    let files: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::Atomics)
        .map(|v| v.file.as_str())
        .collect();
    assert!(files.contains(&"crates/core/src/gtm.rs"));
    assert!(files.contains(&"crates/obs/src/prof.rs"));
}

#[test]
fn unpaired_acquire_in_seam_file_is_caught() {
    // An Acquire load with no Release anywhere in the seam file cannot
    // be half of a synchronizes-with pair.
    let report = run(&[(
        "crates/obs/src/tracer.rs",
        r#"
        impl Ring {
            fn head(&self) -> u64 {
                self.head.load(Ordering::Acquire)
            }
        }
        "#,
    )]);
    let hits = of_rule(&report, Rule::Atomics);
    assert_eq!(hits.len(), 1, "{:?}", report.violations);
    assert!(hits[0].1.contains("Acquire"), "{}", hits[0].1);
}

#[test]
fn blocking_call_in_event_loop_context_is_caught() {
    let report = run(&[(
        "crates/front/src/lib.rs",
        r#"
        impl Front {
            // pstm-lockgraph: event-loop
            fn route(&self) {
                self.helper();
            }
            fn helper(&self) {
                std::thread::sleep(core::time::Duration::from_millis(1));
            }
            // pstm-lockgraph: event-loop
            fn pure(&self) -> usize {
                1 + 1
            }
        }
        "#,
    )]);
    let hits = of_rule(&report, Rule::Blocking);
    assert_eq!(hits.len(), 1, "only the reaching fn fires: {:?}", report.violations);
    let v = report.violations.iter().find(|v| v.rule == Rule::Blocking).unwrap();
    assert_eq!(v.func.as_deref(), Some("route"));
    assert!(
        v.path.iter().any(|s| s.contains("sleep")),
        "witness names the blocking call: {:?}",
        v.path
    );
    assert_eq!(report.event_loop_fns.len(), 2, "both tags registered");
}

#[test]
fn lock_taken_in_event_loop_context_is_caught() {
    let report = run(&[(
        "crates/front/src/lib.rs",
        r#"
        impl Front {
            // pstm-lockgraph: event-loop
            fn route(&self) {
                let g = self.inner.mail.lock();
                drop(g);
            }
        }
        "#,
    )]);
    assert_eq!(of_rule(&report, Rule::Blocking).len(), 1, "{:?}", report.violations);
}

#[test]
fn reactor_loop_fn_reaching_a_lock_through_a_helper_is_caught_exactly() {
    // The reactor regression seed: a tagged wake-routing fn one call hop
    // away from the owner-table mutex. The real `Router::route_wake`
    // deliberately stays untagged *because* it locks; this fixture pins
    // that tagging it would be caught — anchored at the tagged fn, with
    // the helper on the witness path — while the arithmetic-only
    // `owner_of` twin (the fn the reactor actually tags) stays clean.
    let report = run(&[(
        "crates/front/src/reactor.rs",
        r#"
        impl Router {
            // pstm-lockgraph: event-loop
            fn route_wake(&self) {
                self.lookup_owner();
            }
            fn lookup_owner(&self) -> usize {
                let g = self.owners.lock();
                *g
            }
            // pstm-lockgraph: event-loop
            fn owner_of(&self, home: usize) -> usize {
                home % self.workers
            }
        }
        "#,
    )]);
    let hits = of_rule(&report, Rule::Blocking);
    assert_eq!(hits.len(), 1, "only the lock-reaching loop fn fires: {:?}", report.violations);
    let v = report.violations.iter().find(|v| v.rule == Rule::Blocking).unwrap();
    assert_eq!(v.func.as_deref(), Some("route_wake"), "anchored at the tagged fn");
    assert!(
        v.path.iter().any(|s| s.contains("lookup_owner")),
        "witness walks through the helper: {:?}",
        v.path
    );
    assert_eq!(report.event_loop_fns.len(), 2, "both reactor tags registered");
}

#[test]
fn reactor_loop_fn_reaching_sleep_or_file_io_is_caught() {
    // The two other ways a reactor loop can stall: a parked wait
    // (thread::sleep — the busy-wait idiom this PR removed) and flight
    // recorder file I/O. Each seeded fn is caught; the wheel-shaped
    // pure fn is not.
    let report = run(&[(
        "crates/front/src/reactor.rs",
        r#"
        impl Worker {
            // pstm-lockgraph: event-loop
            fn idle(&self) {
                std::thread::sleep(core::time::Duration::from_millis(1));
            }
            // pstm-lockgraph: event-loop
            fn persist_census(&self) {
                std::fs::read_to_string("census");
            }
            // pstm-lockgraph: event-loop
            fn pop_due(&mut self, now_us: u64) -> Option<u64> {
                let key = *self.slots.keys().next()?;
                if key > now_us {
                    return None;
                }
                self.slots.remove(&key).map(|_| key)
            }
        }
        "#,
    )]);
    let hits = of_rule(&report, Rule::Blocking);
    assert_eq!(hits.len(), 2, "sleep and file I/O each fire once: {:?}", report.violations);
    let funcs: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::Blocking)
        .map(|v| v.func.as_deref().unwrap_or(""))
        .collect();
    assert!(funcs.contains(&"idle"), "{funcs:?}");
    assert!(funcs.contains(&"persist_census"), "{funcs:?}");
    assert_eq!(report.event_loop_fns.len(), 3, "all three tags registered");
}

#[test]
fn cycle_report_is_minimal_and_names_both_edges() {
    // a -> b in one function, b -> a in another: a two-class cycle with
    // no level declared for either (unleveled classes are still
    // cycle-checked).
    let report = run(&[(
        "crates/core/src/gtm.rs",
        r#"
        impl Gtm {
            fn ab(&self) {
                let a = self.a.lock();
                let b = self.b.lock();
                drop(b);
                drop(a);
            }
            fn ba(&self) {
                let b = self.b.lock();
                let a = self.a.lock();
                drop(a);
                drop(b);
            }
        }
        "#,
    )]);
    let cycles: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::OrderGraph && v.detail.contains("cycle"))
        .collect();
    assert_eq!(cycles.len(), 1, "one minimal cycle, not one per edge: {:?}", report.violations);
    let v = cycles[0];
    assert!(v.detail.contains("mx_a") && v.detail.contains("mx_b"), "{}", v.detail);
    assert_eq!(v.path.len(), 2, "witness = the two edges: {:?}", v.path);
}

#[test]
fn allowlist_suppresses_and_stale_entries_fail() {
    let bad = r#"
        impl Front {
            fn two_shards(&self) {
                let a = self.inner.shards[0].lock();
                let b = self.inner.shards[1].lock();
                drop(b);
                drop(a);
            }
        }
        "#;
    let parsed = vec![parse_source("crates/front/src/lib.rs", bad)];

    // A matching entry suppresses the finding and is not stale.
    let mut allow =
        Allowlist::parse("multi-shard-path crates/front/src/lib.rs::two_shards\n").unwrap();
    let report = analyze(&parsed, &mut allow);
    assert!(of_rule(&report, Rule::MultiShard).is_empty(), "{:?}", report.violations);
    assert!(of_rule(&report, Rule::StaleAllowlist).is_empty(), "{:?}", report.violations);

    // An entry matching nothing is itself a violation — new-rule
    // sections start empty-enforced and cannot rot.
    let mut allow =
        Allowlist::parse("hold-across-flush crates/front/src/lib.rs::nonexistent\n").unwrap();
    let report = analyze(&parsed, &mut allow);
    let stale = of_rule(&report, Rule::StaleAllowlist);
    assert_eq!(stale.len(), 1, "{:?}", report.violations);
    assert!(stale[0].1.contains("nonexistent"), "{}", stale[0].1);
}

#[test]
fn report_renders_one_line_per_finding_with_witness_indent() {
    let report = run(&[(
        "crates/front/src/lib.rs",
        r#"
        impl Front {
            fn bad(&self) {
                let g = self.inner.shards[0].lock();
                let f = self.inner.flush_fences[0].lock();
                drop(f);
                drop(g);
            }
        }
        "#,
    )]);
    let rendered = report.render();
    let mut lines = rendered.lines();
    let head = lines.next().unwrap();
    assert!(head.starts_with("lock-order-graph\tcrates/front/src/lib.rs:5"), "{head}");
    assert!(lines.next().unwrap().starts_with("    via "), "witness lines indent under the head");
}
