//! Prometheus text exposition of a [`MetricsRegistry`].
//!
//! Renders the version-0.0.4 text format scrapers and humans both read:
//! `# HELP`/`# TYPE` headers, counters suffixed `_total`, histograms as
//! *cumulative* `_bucket{le="…"}` series plus `_sum`/`_count`. All
//! series share the `pstm_` prefix. Output is deterministic: counters
//! appear in [`Ctr::ALL`] order and labeled series in `BTreeMap` order,
//! so identical registries render byte-identical pages.

use crate::hist::Histogram;
use crate::prof::CommitPhase;
use crate::recorder::RecorderStats;
use crate::registry::{Ctr, MetricsRegistry};
use std::fmt::Write as _;

/// Renders `reg` as a Prometheus text-format page.
///
/// `trace_dropped` is the number of trace records lost to sink
/// backpressure (ring eviction), exposed as
/// `pstm_trace_dropped_total` — it lives outside the registry because
/// drops are a property of the sink, not of the event stream (replayed
/// registries must stay equal to live ones).
#[must_use]
pub fn render(reg: &MetricsRegistry, trace_dropped: u64) -> String {
    render_with_recorder(reg, trace_dropped, None)
}

/// [`render`] plus flight-recorder health, when a recorder is attached.
///
/// The recorder series (`pstm_recorder_*`) cover the durable ring's
/// backpressure and loss accounting: frames and bytes written, records
/// dropped (I/O errors, oversized), whole-generation ring wraps, write
/// errors, and bytes buffered but not yet on disk (lag). They render
/// only when `recorder` is `Some`, so recorder-less deployments expose
/// an unchanged page.
#[must_use]
pub fn render_with_recorder(
    reg: &MetricsRegistry,
    trace_dropped: u64,
    recorder: Option<&RecorderStats>,
) -> String {
    let mut out = String::with_capacity(4096);
    for c in Ctr::ALL {
        let name = c.name();
        let _ = writeln!(out, "# HELP pstm_{name}_total Event counter `{name}`.");
        let _ = writeln!(out, "# TYPE pstm_{name}_total counter");
        let _ = writeln!(out, "pstm_{name}_total {}", reg.counter(*c));
    }
    let _ =
        writeln!(out, "# HELP pstm_trace_dropped_total Trace records lost to sink backpressure.");
    let _ = writeln!(out, "# TYPE pstm_trace_dropped_total counter");
    let _ = writeln!(out, "pstm_trace_dropped_total {trace_dropped}");

    if let Some(stats) = recorder {
        let series: [(&str, &str, u64); 5] = [
            ("frames", "Frames written to the flight-recorder ring.", stats.frames),
            ("bytes", "Payload and framing bytes written to the ring.", stats.bytes),
            ("dropped", "Records the recorder dropped (I/O error, oversized).", stats.dropped),
            ("wraps", "Ring wraps — each discards the oldest half-segment.", stats.wraps),
            ("io_errors", "Write errors swallowed by the recorder.", stats.io_errors),
        ];
        for (name, help, value) in series {
            let _ = writeln!(out, "# HELP pstm_recorder_{name}_total {help}");
            let _ = writeln!(out, "# TYPE pstm_recorder_{name}_total counter");
            let _ = writeln!(out, "pstm_recorder_{name}_total {value}");
        }
        // Lag is a point-in-time quantity (drains on flush), so it is a
        // gauge, not a counter.
        let _ = writeln!(
            out,
            "# HELP pstm_recorder_lag_bytes Bytes buffered in memory, not yet on disk."
        );
        let _ = writeln!(out, "# TYPE pstm_recorder_lag_bytes gauge");
        let _ = writeln!(out, "pstm_recorder_lag_bytes {}", stats.lag_bytes);
    }

    let _ = writeln!(
        out,
        "# HELP pstm_phase_time_us_total Virtual microseconds spent in each span phase."
    );
    let _ = writeln!(out, "# TYPE pstm_phase_time_us_total counter");
    for (phase, us) in reg.phase_time() {
        let _ = writeln!(out, "pstm_phase_time_us_total{{phase=\"{phase}\"}} {us}");
    }

    let _ = writeln!(
        out,
        "# HELP pstm_blocked_time_us_total Virtual microseconds of `blocked` spans per resource."
    );
    let _ = writeln!(out, "# TYPE pstm_blocked_time_us_total counter");
    for (res, us) in reg.blocked_by_resource() {
        let _ = writeln!(
            out,
            "pstm_blocked_time_us_total{{resource=\"{}\"}} {us}",
            escape_label(&res.to_string())
        );
    }

    let _ = writeln!(
        out,
        "# HELP pstm_wait_time_by_resource_us_total Virtual microseconds of completed \
         enqueue-to-grant waits per resource."
    );
    let _ = writeln!(out, "# TYPE pstm_wait_time_by_resource_us_total counter");
    for (res, us) in reg.wait_by_resource() {
        let _ = writeln!(
            out,
            "pstm_wait_time_by_resource_us_total{{resource=\"{}\"}} {us}",
            escape_label(&res.to_string())
        );
    }

    render_histogram(
        &mut out,
        "pstm_wait_time_us",
        "Virtual microseconds between queuing an operation and its grant.",
        "",
        reg.wait_time(),
    );
    render_histogram(
        &mut out,
        "pstm_commit_latency_us",
        "Virtual microseconds between begin and commit.",
        "",
        reg.commit_latency(),
    );
    render_histogram(
        &mut out,
        "pstm_queue_depth",
        "Queue depth sampled at every enqueue.",
        "",
        reg.queue_depth(),
    );

    // Commit-path phase accounting (wall ns, absorbed from `prof`).
    // Totals render for every phase in taxonomy order; per-phase
    // histograms render only for observed phases, also in taxonomy
    // order — both deterministic for a given registry.
    let phases = reg.commit_phases();
    let _ = writeln!(
        out,
        "# HELP pstm_commit_phase_ns_total Wall nanoseconds attributed to each commit-path phase."
    );
    let _ = writeln!(out, "# TYPE pstm_commit_phase_ns_total counter");
    for p in CommitPhase::ALL {
        let _ =
            writeln!(out, "pstm_commit_phase_ns_total{{phase=\"{}\"}} {}", p.name(), phases.ns(p));
    }
    let _ =
        writeln!(out, "# HELP pstm_commit_phase_ops_total Timed operations per commit-path phase.");
    let _ = writeln!(out, "# TYPE pstm_commit_phase_ops_total counter");
    for p in CommitPhase::ALL {
        let _ = writeln!(
            out,
            "pstm_commit_phase_ops_total{{phase=\"{}\"}} {}",
            p.name(),
            phases.ops(p)
        );
    }
    for p in CommitPhase::ALL {
        if phases.ops(p) == 0 {
            continue;
        }
        render_histogram(
            &mut out,
            "pstm_commit_phase_duration_ns",
            "Per-operation wall nanoseconds by commit-path phase.",
            &format!("phase=\"{}\"", p.name()),
            phases.hist(p),
        );
    }
    out
}

/// Writes one histogram as cumulative `_bucket` series plus `_sum` and
/// `_count`, with `label` (a `key="value"` pair, or empty) on every
/// series; HELP/TYPE repeat per labeled instance, which scrapers accept.
/// The buckets are the same 42 on every page: `le="2^k − 1"` for `k` in
/// `0..=40`, exact because every power of two starts a bucket, then
/// `le="+Inf"` (the total, as the format requires).
fn render_histogram(out: &mut String, name: &str, help: &str, label: &str, h: &Histogram) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let (prefix, own) = if label.is_empty() {
        (String::new(), String::new())
    } else {
        (format!("{label},"), format!("{{{label}}}"))
    };
    for (le, below) in h.octaves() {
        let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"{le}\"}} {below}");
    }
    let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"+Inf\"}} {}", h.total());
    let _ = writeln!(out, "{name}_sum{own} {}", h.sum());
    let _ = writeln!(out, "{name}_count{own} {}", h.total());
}

/// Escapes a label value per the exposition format (`\`, `"`, newline).
fn escape_label(raw: &str) -> String {
    let mut esc = String::with_capacity(raw.len());
    for ch in raw.chars() {
        match ch {
            '\\' => esc.push_str("\\\\"),
            '"' => esc.push_str("\\\""),
            '\n' => esc.push_str("\\n"),
            other => esc.push(other),
        }
    }
    esc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::span::SpanKind;
    use pstm_types::{ObjectId, ResourceId, Timestamp, TxnId};

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let t = TxnId(1);
        let r = ResourceId::atomic(ObjectId(3));
        reg.apply(Timestamp(0), &TraceEvent::TxnBegin { txn: t });
        reg.apply(
            Timestamp(0),
            &TraceEvent::SpanOpen {
                txn: t,
                kind: SpanKind::Blocked { resource: r },
                wall_us: None,
            },
        );
        reg.apply(
            Timestamp(250),
            &TraceEvent::SpanClose {
                txn: t,
                kind: SpanKind::Blocked { resource: r },
                wall_us: None,
            },
        );
        reg.apply(Timestamp(500), &TraceEvent::Committed { txn: t });
        reg
    }

    #[test]
    fn page_has_typed_counters_and_drop_series() {
        let page = render(&sample_registry(), 7);
        assert!(page.contains("# TYPE pstm_committed_total counter"));
        assert!(page.contains("pstm_committed_total 1"));
        assert!(page.contains("# HELP pstm_begun_total"));
        assert!(page.contains("pstm_trace_dropped_total 7"));
        assert!(page.contains("pstm_phase_time_us_total{phase=\"blocked\"} 250"));
        assert!(page.contains("pstm_blocked_time_us_total{resource=\"X3.m0\"} 250"));
        assert!(page.ends_with('\n'));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let page = render(&sample_registry(), 0);
        // One commit at latency 500 µs → cumulative counts 0 below 512,
        // 1 from there on, and +Inf equals _count.
        assert!(page.contains("# TYPE pstm_commit_latency_us histogram"));
        assert!(page.contains("pstm_commit_latency_us_bucket{le=\"0\"} 0"));
        assert!(page.contains("pstm_commit_latency_us_bucket{le=\"255\"} 0"));
        assert!(page.contains("pstm_commit_latency_us_bucket{le=\"511\"} 1"));
        assert!(page.contains("pstm_commit_latency_us_bucket{le=\"1099511627775\"} 1"));
        assert!(page.contains("pstm_commit_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(page.contains("pstm_commit_latency_us_sum 500"));
        assert!(page.contains("pstm_commit_latency_us_count 1"));
    }

    #[test]
    fn label_values_escape_quotes_and_backslashes() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn recorder_series_render_only_when_attached() {
        let reg = sample_registry();
        let plain = render(&reg, 0);
        assert!(!plain.contains("pstm_recorder_"), "no recorder → no recorder series");
        let stats = RecorderStats {
            frames: 10,
            bytes: 640,
            dropped: 2,
            wraps: 1,
            io_errors: 0,
            lag_bytes: 128,
        };
        let page = render_with_recorder(&reg, 0, Some(&stats));
        assert!(page.contains("# TYPE pstm_recorder_frames_total counter"));
        assert!(page.contains("pstm_recorder_frames_total 10"));
        assert!(page.contains("pstm_recorder_bytes_total 640"));
        assert!(page.contains("pstm_recorder_dropped_total 2"));
        assert!(page.contains("pstm_recorder_wraps_total 1"));
        assert!(page.contains("pstm_recorder_io_errors_total 0"));
        assert!(page.contains("# TYPE pstm_recorder_lag_bytes gauge"));
        assert!(page.contains("pstm_recorder_lag_bytes 128"));
        // Attaching a recorder leaves every other series untouched.
        let without = render_with_recorder(&reg, 0, None);
        assert_eq!(without, plain);
    }

    #[test]
    fn rendering_is_deterministic() {
        let reg = sample_registry();
        assert_eq!(render(&reg, 3), render(&reg, 3));
    }

    #[test]
    fn every_histogram_prints_the_same_le_lines() {
        let les = |page: &str| -> Vec<String> {
            let lines = page.lines().filter(|l| l.starts_with("pstm_commit_latency_us_bucket{"));
            lines.map(|l| l.rsplit_once(' ').map_or("", |(series, _)| series).to_string()).collect()
        };
        let empty = les(&render(&MetricsRegistry::new(), 0));
        assert_eq!(empty.len(), 42);
        assert_eq!(empty[0], "pstm_commit_latency_us_bucket{le=\"0\"}");
        assert_eq!(empty[40], "pstm_commit_latency_us_bucket{le=\"1099511627775\"}");
        assert_eq!(empty[41], "pstm_commit_latency_us_bucket{le=\"+Inf\"}");
        let mut reg = sample_registry();
        reg.apply(Timestamp(0), &TraceEvent::TxnBegin { txn: TxnId(2) });
        reg.apply(Timestamp(1 << 41), &TraceEvent::Committed { txn: TxnId(2) });
        assert_eq!(les(&render(&reg, 0)), empty);
    }

    #[test]
    fn commit_phase_series_render_in_taxonomy_order() {
        use crate::prof::PhaseProfile;
        let mut reg = sample_registry();
        let mut p = PhaseProfile::empty();
        p.record(CommitPhase::Reconcile, 900);
        p.record(CommitPhase::WalAppend, 120);
        reg.absorb_phases(&p);
        let page = render(&reg, 0);
        assert!(page.contains("pstm_commit_phase_ns_total{phase=\"reconcile\"} 900"));
        assert!(page.contains("pstm_commit_phase_ns_total{phase=\"wal_append\"} 120"));
        assert!(page.contains("pstm_commit_phase_ns_total{phase=\"admission\"} 0"));
        assert!(page.contains("pstm_commit_phase_ops_total{phase=\"reconcile\"} 1"));
        // Histograms only for observed phases, labeled and cumulative.
        assert!(page
            .contains("pstm_commit_phase_duration_ns_bucket{phase=\"reconcile\",le=\"1023\"} 1"));
        assert!(page.contains("pstm_commit_phase_duration_ns_sum{phase=\"reconcile\"} 900"));
        assert!(page.contains("pstm_commit_phase_duration_ns_count{phase=\"wal_append\"} 1"));
        assert!(!page.contains("pstm_commit_phase_duration_ns_count{phase=\"admission\"}"));
        // Taxonomy order: reconcile's histogram precedes wal_append's.
        let rec = page.find("pstm_commit_phase_duration_ns_sum{phase=\"reconcile\"}");
        let wal = page.find("pstm_commit_phase_duration_ns_sum{phase=\"wal_append\"}");
        assert!(rec.unwrap() < wal.unwrap());
    }
}
