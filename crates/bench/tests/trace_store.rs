//! The one trace store: recorder frames are what every reader reads.
//! An incomplete frame stream is refused by the certifier and the replay
//! check (and still profiled, with a warning), and a traced run killed at
//! any byte leaves a prefix that reads back cleanly.

use pstm_bench::{run_emulation_traced, verify_trace, Scheduler};
use pstm_check::verify_trace_files;
use pstm_core::gtm::GtmConfig;
use pstm_obs::recorder::{decode_recorder_bytes, HEADER};
use pstm_obs::{render_jsonl, MetricsRegistry, Recorder, TraceEvent, TraceRecord, Tracer};
use pstm_types::{Timestamp, TxnId};
use pstm_workload::PaperWorkload;
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pstm-store-{}-{name}.rec", std::process::id()))
}

fn jsonl(records: &[TraceRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    render_jsonl(records, &mut out).expect("rendering into memory");
    out
}

/// A 200-event stream through 256-byte segments: the ring wraps, so the
/// file keeps only a suffix.
fn wrapped(path: &Path) -> Tracer {
    let rec = Recorder::create(path, 256, true).expect("recorder");
    let tracer = Tracer::with_sink(Box::new(rec.sink(0)));
    for i in 0..200 {
        tracer.emit(Timestamp(i), TraceEvent::TxnBegin { txn: TxnId(i) });
    }
    tracer
}

/// An oversized record the recorder drops, announced by a `Drop` marker.
fn dropped(path: &Path) -> Tracer {
    let rec = Recorder::create(path, 64, true).expect("recorder");
    let tracer = Tracer::with_sink(Box::new(rec.sink(0)));
    let big = TraceEvent::FaultInjected { site: "x".repeat(500), action: "crash".into() };
    tracer.emit(Timestamp(1), big);
    tracer.emit(Timestamp(2), TraceEvent::TxnBegin { txn: TxnId(1) });
    tracer
}

#[test]
fn an_incomplete_stream_is_refused_not_certified() {
    for (name, make, needle) in [
        ("wrapped", wrapped as fn(&Path) -> Tracer, "gap(s), 0 dropped"),
        ("dropped", dropped, ", 1 dropped"),
    ] {
        let path = tmp(name);
        let tracer = make(&path);
        let live = [MetricsRegistry::new()];
        let err = verify_trace(&path, &[tracer], &live).expect_err("replay check must refuse");
        assert!(err.contains(needle), "{name}: {err}");
        let err = verify_trace_files(&[&path]).expect_err("certifier must refuse");
        assert!(err.contains(needle), "{name}: {err}");

        let top = Command::new(env!("CARGO_BIN_EXE_pstm_top")).arg(&path).output().unwrap();
        std::fs::remove_file(&path).ok();
        let stderr = String::from_utf8_lossy(&top.stderr);
        assert!(top.status.success(), "{name}: pstm_top still profiles: {stderr}");
        assert!(stderr.contains("window is a suffix"), "{name}: {stderr}");
        assert!(String::from_utf8_lossy(&top.stdout).contains("per-phase latency"));
    }
}

#[test]
fn a_trace_that_replays_to_other_counters_is_refused() {
    let path = tmp("diverged");
    let rec = Recorder::create(&path, 1 << 16, true).expect("recorder");
    Tracer::with_sink(Box::new(rec.sink(0)))
        .emit(Timestamp(1), TraceEvent::TxnBegin { txn: TxnId(1) });
    let live = [MetricsRegistry::new()];
    let err =
        verify_trace(&path, &[Tracer::disabled()], &live).expect_err("live run began nothing");
    std::fs::remove_file(&path).ok();
    assert!(err.contains("shard 0: counter") && err.contains("trace 1 vs live 0"), "{err}");
}

#[test]
fn a_killed_traced_run_leaves_a_readable_prefix() {
    // Shaped like `trace_recorder`'s artifacts: one unwrappable segment,
    // buffered (the run's closing flush writes it out).
    let path = tmp("killed");
    let rec = Recorder::create(&path, u32::MAX, false).expect("recorder");
    let tracer = Tracer::with_sink(Box::new(rec.sink(0)));
    let workload = PaperWorkload { n_txns: 4, beta: 0.5, ..PaperWorkload::default() };
    run_emulation_traced(Scheduler::Gtm, &workload, GtmConfig::default(), tracer).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let full = decode_recorder_bytes(&bytes).unwrap();
    full.check_complete().unwrap();
    let full = jsonl(&full.shard_records(0));
    assert!(full.len() > 1_000, "a real run's trace, {} B", full.len());

    let mut lines = 0;
    for cut in HEADER..=bytes.len() {
        let replay = decode_recorder_bytes(&bytes[..cut]).expect("every cut reads");
        replay.check_complete().expect("a cut loses a tail, never a middle");
        let text = jsonl(&replay.shard_records(0));
        assert!(full.starts_with(&text), "cut {cut} is not a prefix of the full trace");
        let n = text.iter().filter(|b| **b == b'\n').count();
        assert!(n >= lines, "cut {cut} lost lines");
        lines = n;
    }
    assert_eq!(lines, full.iter().filter(|b| **b == b'\n').count());
}
