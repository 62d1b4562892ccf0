//! Observability end-to-end checks: the virtual-clock event stream is
//! bit-for-bit deterministic, and a recorded trace is a faithful
//! artifact — its frames replay to the live run's counters exactly, and
//! render the pinned JSONL bytes.

use preserial::gtm::GtmConfig;
use preserial::obs::frame::checksum;
use preserial::obs::{
    current_thread_tag, read_recorder, render_jsonl, Ctr, MetricsRegistry, Recorder, TraceRecord,
    Tracer,
};
use preserial::workload::PaperWorkload;
use pstm_bench::{run_emulation_traced, Scheduler};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Records a 60-transaction run into a frame file and reads it back,
/// beside the live run's registries merged.
fn traced_run(scheduler: Scheduler) -> (Vec<TraceRecord>, MetricsRegistry) {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let n = RUN.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("pstm-det-{}-{n}.rec", std::process::id()));
    let rec = Recorder::create(&path, u32::MAX, false).expect("recorder file");
    let tracer = Tracer::with_sink(Box::new(rec.sink(0)));
    let workload = PaperWorkload { n_txns: 60, beta: 0.2, ..PaperWorkload::default() };
    let report = run_emulation_traced(scheduler, &workload, GtmConfig::default(), tracer.clone())
        .expect("emulation runs");
    assert_eq!(report.total, 60);
    tracer.flush();
    let replay = read_recorder(&path).expect("frames read back");
    std::fs::remove_file(&path).ok();
    replay.check_complete().expect("a whole run");
    (replay.shard_records(0), report.metrics)
}

fn jsonl(records: &[TraceRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    render_jsonl(records, &mut out).expect("rendering into memory");
    out
}

#[test]
fn same_seed_runs_produce_byte_identical_traces() {
    let (a, _) = traced_run(Scheduler::Gtm);
    let (b, _) = traced_run(Scheduler::Gtm);
    assert!(!a.is_empty(), "the trace must contain events");
    assert_eq!(jsonl(&a), jsonl(&b), "GTM trace must be byte-identical across same-seed runs");

    let (a, _) = traced_run(Scheduler::TwoPl);
    let (b, _) = traced_run(Scheduler::TwoPl);
    assert_eq!(jsonl(&a), jsonl(&b), "2PL trace must be byte-identical across same-seed runs");
}

#[test]
fn jsonl_trace_replay_matches_live_counters() {
    let (records, live) = traced_run(Scheduler::Gtm);
    assert!(!records.is_empty());

    // The stream covers the whole stack: scheduler, engine, WAL, link.
    let rebuilt = MetricsRegistry::from_records(&records);
    for c in Ctr::ALL {
        assert_eq!(rebuilt.counter(*c), live.counter(*c), "counter {} diverged", c.name());
    }
    assert!(rebuilt.counter(Ctr::Begun) > 0);
    assert!(rebuilt.counter(Ctr::EngineCommits) > 0, "engine events must be in the trace");
    assert!(rebuilt.counter(Ctr::WalFlushes) > 0, "WAL events must be in the trace");
    assert!(rebuilt.counter(Ctr::LinkDowns) > 0, "link events must be in the trace");
}

/// The GTM trace is pinned, not just repeatable: its length and checksum
/// were recorded at the commit before the GTM's state moved to one row per
/// grant (`crates/core/src/state.rs`), so a refactor of the bookkeeping
/// that reorders, drops or adds a single event fails here.
#[test]
fn gtm_trace_matches_the_digest_pinned_before_the_state_refactor() {
    const PINNED: (usize, u32) = (77_856, 1_158_338_851);
    let (records, _) = traced_run(Scheduler::Gtm);
    let bytes = jsonl(&records);
    // Every record carries this thread's tag, which is whichever of the
    // process-wide tags this test's thread happened to draw: pin tag 0.
    let own_tag = format!("\"thread\":{},", current_thread_tag());
    let text = String::from_utf8(bytes).expect("JSONL is UTF-8").replace(&own_tag, "\"thread\":0,");
    assert_eq!((text.len(), checksum(text.as_bytes())), PINNED);
}
