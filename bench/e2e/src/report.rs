//! The benchmark's metrics by name, and how a run prints them.
//!
//! These two tables are the contract with `BENCHMARK.json` at the repo
//! root (a unit test keeps them equal): an untraced run prints every
//! end-to-end metric, a traced run every per-layer metric, for every
//! workload. A per-layer metric of a layer the workload bypasses is 0.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen
    /// before it is a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, higher_is_better, bound }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef { name, unit, higher_is_better, bound: 0.0 }
}

pub const END_TO_END: [MetricDef; 5] = [
    e2e("tps", "1/s", true, 0.25),
    e2e("txn_us", "us", false, 0.25),
    e2e("retained_bytes_per_txn", "B", false, 0.05),
    e2e("commit_share", "ratio", true, 0.01),
    e2e("setup_s", "s", false, 0.25),
];

pub const PER_LAYER: [MetricDef; 51] = [
    layer("front.session_ns", "ns", false),
    layer("front.execute_ns_mean", "ns", false),
    layer("front.execute_ns_p50", "ns", false),
    layer("front.commit_ns_mean", "ns", false),
    layer("front.commit_ns_p50", "ns", false),
    layer("front.commit_ns_p99", "ns", false),
    layer("front.txn_p99_us", "us", false),
    layer("front.txn_p999_us", "us", false),
    layer("front.self_ns_per_txn", "ns", false),
    layer("front.admission_ns_per_txn", "ns", false),
    layer("front.fencing_ns_per_txn", "ns", false),
    layer("front.group_wait_ns_per_txn", "ns", false),
    layer("reactor.spawn_ns", "ns", false),
    layer("reactor.cpu_us_per_txn", "us", false),
    layer("reactor.sleeping_peak_share", "ratio", true),
    layer("reactor.queue_depth_max", "count", false),
    layer("reactor.stale_wakes", "count", false),
    layer("reactor.wake_p50_bucket_us", "us", false),
    layer("reactor.wake_p99_bucket_us", "us", false),
    layer("reactor.timer_lag_p99_bucket_us", "us", false),
    layer("reactor.probe_p50_us", "us", false),
    layer("reactor.probe_p99_us", "us", false),
    layer("reactor.probe_late_max_ms", "ms", false),
    layer("core.begin_ns", "ns", false),
    layer("core.execute_ns_mean", "ns", false),
    layer("core.commit_ns_mean", "ns", false),
    layer("core.txn_ns", "ns", false),
    layer("core.self_ns_per_txn", "ns", false),
    layer("core.reconcile_call_ns", "ns", false),
    layer("core.read_ns_per_txn", "ns", false),
    layer("core.op_bookkeeping_ns_per_txn", "ns", false),
    layer("core.reconcile_ns_per_txn", "ns", false),
    layer("core.abort_unwind_ns_per_txn", "ns", false),
    layer("core.awake_abort_share", "ratio", false),
    layer("core.lock_timeout_share", "ratio", false),
    layer("core.sst_retries", "count", false),
    layer("storage.apply_ns_per_commit", "ns", false),
    layer("storage.read_ns", "ns", false),
    layer("storage.wal_append_ns_per_commit", "ns", false),
    layer("storage.wal_bytes_per_commit", "B", false),
    layer("storage.wal_records_per_commit", "count", false),
    layer("storage.self_ns_per_txn", "ns", false),
    layer("storage.checkpoint_ms", "ms", false),
    layer("storage.recover_us_per_commit", "us", false),
    layer("storage.sst_apply_ns_per_txn", "ns", false),
    layer("storage.wal_append_prof_ns_per_txn", "ns", false),
    layer("obs.traced_tps_ratio", "ratio", true),
    layer("obs.unattributed_share", "ratio", false),
    layer("obs.clock_read_ns", "ns", false),
    layer("seqref.ns_per_txn", "ns", false),
    layer("seqref.overhead_x", "ratio", false),
];

/// What one run of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`, one per metric of the table the run answers to.
    pub metrics: Vec<(&'static str, f64)>,
    /// Facts about the run that are not metrics (`input_hash`, sample
    /// counts, the tail percentile the samples support).
    pub notes: Vec<(&'static str, String)>,
}

/// A number as JSON: all its digits, and never `NaN` or `inf`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Prints `workload metric value unit` per metric in table order, the
/// notes, and last the one-line JSON result the benchmark's driver reads.
pub fn print(workload: &str, table: &[MetricDef], out: &Outcome) -> Result<(), String> {
    let mut json = Vec::with_capacity(table.len());
    for def in table {
        let value = out
            .metrics
            .iter()
            .find(|(name, _)| *name == def.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        println!("{workload} {} {} {}", def.name, json_number(value), def.unit);
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            json_number(value),
            def.unit
        ));
    }
    if let Some((name, _)) = out.metrics.iter().find(|(n, _)| table.iter().all(|d| d.name != *n)) {
        return Err(format!("metric {name} is not in the benchmark's table"));
    }
    for (key, value) in &out.notes {
        println!("# {workload} {key} {value}");
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        json.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "…"` under the array `key` of a BENCHMARK.json.
    fn names_under(doc: &str, key: &str) -> Vec<String> {
        let from = doc.find(&format!("\"{key}\"")).expect("key present");
        let body = &doc[from..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("name value").to_string())
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names_under(&doc, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names_under(&doc, "per_layer"), layers);
        let workloads: Vec<&str> = crate::gen::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names_under(&doc, "workloads"), workloads);
        for def in &END_TO_END {
            let better = if def.higher_is_better { "higher" } else { "lower" };
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                def.name, def.unit, def.bound
            );
            assert!(doc.contains(&row), "BENCHMARK.json lacks {row}");
        }
    }

    #[test]
    fn numbers_print_as_json() {
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(66000.0), "66000");
    }
}
