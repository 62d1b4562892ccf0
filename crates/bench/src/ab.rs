//! The statistics behind `pstm_ab`: `BENCHMARK.json` read as the
//! contract (run length, workloads, end-to-end metrics with their
//! directions and bounds), a child's result line read by metric name, and
//! one paired verdict per (workload, metric).
//!
//! A verdict, first match wins:
//! - **beyond bound**: the change's median is worse than the parent's by
//!   more than the metric's bound;
//! - **better / worse**: at least nine tenths of the pairs go one way
//!   (ties count for neither) *and* the medians differ by more than the
//!   parent's quartile distance;
//! - **unresolved**: the parent's quartile distance exceeds the bound as
//!   a share of its median;
//! - **level**: otherwise.
//!
//! A count column is a metric without a bound (`f64::INFINITY`): each
//! side must repeat one value in every run, and then the rules above
//! reduce to an exact comparison, any difference being better or worse.
//! A comparison with no ratio — a missing metric, a non-finite value, a
//! zero parent value that moved — is an error, never a pass.

use rand::{Rng, SeedableRng, StdRng};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Which way a metric is supposed to move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Throughput-like: a drop is a loss.
    Higher,
    /// Cost-like: a rise is a loss.
    Lower,
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The name result lines key it by.
    pub name: String,
    /// Which way is better.
    pub better: Better,
    /// Share of the parent's median by which the change may worsen.
    pub bound: f64,
}

/// What `pstm_ab` takes from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Contract {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// The end-to-end metrics, in file order.
    pub metrics: Vec<Metric>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct MetricEntry {
    name: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct BenchmarkDoc {
    run_seconds: f64,
    workloads: Vec<Named>,
    end_to_end: Vec<MetricEntry>,
}

/// Reads the contract out of `BENCHMARK.json`'s text.
pub fn parse_contract(text: &str) -> Result<Contract, String> {
    let doc: BenchmarkDoc =
        serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metric = |m: MetricEntry| {
        let better = match m.better.as_str() {
            "higher" => Better::Higher,
            "lower" => Better::Lower,
            _ => return Err(format!("{}: \"better\" must be \"higher\" or \"lower\"", m.name)),
        };
        if !(m.bound.is_finite() && m.bound >= 0.0) {
            return Err(format!("{}: \"bound\" must be a non-negative number", m.name));
        }
        Ok(Metric { name: m.name, better, bound: m.bound })
    };
    let metrics = doc.end_to_end.into_iter().map(metric).collect::<Result<Vec<_>, String>>()?;
    if doc.run_seconds <= 0.0 || doc.workloads.is_empty() || metrics.is_empty() {
        return Err("BENCHMARK.json: needs run_seconds > 0, workloads and end_to_end".into());
    }
    let workloads = doc.workloads.into_iter().map(|w| w.name).collect();
    Ok(Contract { run_seconds: doc.run_seconds, workloads, metrics })
}

/// One metric's entry in a result line.
#[derive(Clone, Debug, Deserialize)]
pub struct Measured {
    /// The measured value.
    pub value: f64,
}

/// A child's last line, as `bench_e2e` and `pstm_ab count` print it:
/// `{"correct", "failed", "metrics": {name: {"value"}}}`. Whatever else
/// it carries is not read.
#[derive(Clone, Debug, Deserialize)]
pub struct RunResult {
    /// The child's correctness gate held.
    pub correct: bool,
    /// Transactions that failed.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Measured>,
}

impl RunResult {
    /// The count columns of a `pstm_ab count` line: every metric it
    /// carries, each a cost without a bound.
    #[must_use]
    pub fn count_columns(&self) -> Vec<Metric> {
        let (better, bound) = (Better::Lower, f64::INFINITY);
        self.metrics.keys().map(|name| Metric { name: name.clone(), better, bound }).collect()
    }
}

/// The median of `v` (0 for an empty slice).
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => (v[(n - 1) / 2] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); fewer than two values are their
/// own quartiles.
#[must_use]
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return (median(&v), median(&v));
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Exact two-sided sign-test p for `wins` against `losses` (ties are
/// left out of both).
#[must_use]
pub fn sign_test_p(wins: usize, losses: usize) -> f64 {
    let n = wins + losses;
    let (mut choose, mut tail) = (1.0f64, 0.0f64);
    for i in 0..=wins.min(losses) {
        tail += choose;
        choose = choose * (n - i) as f64 / (i + 1) as f64;
    }
    (2.0 * tail / 2f64.powi(n as i32)).min(1.0)
}

/// Resamples behind [`bootstrap_ci`], and the seed that makes it repeat.
const RESAMPLES: usize = 2_000;
const BOOTSTRAP_SEED: u64 = 0x00ab_5eed;

/// A 95 % percentile-bootstrap interval of the median of `diffs`.
#[must_use]
pub fn bootstrap_ci(diffs: &[f64]) -> [f64; 2] {
    let mut rng = StdRng::seed_from_u64(BOOTSTRAP_SEED);
    let mut sample = diffs.to_vec();
    let mut medians: Vec<f64> = (0..RESAMPLES)
        .map(|_| {
            sample.iter_mut().for_each(|s| *s = diffs[rng.gen_range(0..diffs.len())]);
            median(&sample)
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    [medians[RESAMPLES / 40], medians[RESAMPLES - 1 - RESAMPLES / 40]]
}

/// The verdict on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// Resolved in the change's favour.
    Better,
    /// Resolved against the change.
    Worse,
    /// The change's median is worse than the bound allows.
    BeyondBound,
    /// The parent's own spread is wider than the bound.
    Unresolved,
    /// No difference the pairs resolve.
    Level,
}

/// One metric over the pairs.
#[derive(Clone, Debug, Serialize)]
pub struct Judged {
    /// Parent first quartile, median, third quartile.
    pub parent: [f64; 3],
    /// Change first quartile, median, third quartile.
    pub change: [f64; 3],
    /// Median over pairs of `(change − parent) / parent`.
    pub rel_diff: f64,
    /// Bootstrap 95 % interval of `rel_diff`.
    pub ci: [f64; 2],
    /// Pairs the change won, lost and tied.
    pub wins_losses_ties: [usize; 3],
    /// Exact two-sided sign-test p.
    pub sign_p: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges `(parent, change)` pairs of one metric.
pub fn judge(metric: &Metric, pairs: &[(f64, f64)]) -> Result<Judged, String> {
    if pairs.is_empty() {
        return Err("no pair finished".into());
    }
    let sign = if metric.better == Better::Higher { 1.0 } else { -1.0 };
    let mut diffs = Vec::new();
    let mut wlt = [0usize; 3];
    for &(p, c) in pairs {
        if !p.is_finite() || !c.is_finite() {
            return Err(format!("non-finite value (parent {p}, change {c}): no ratio exists"));
        }
        if p == 0.0 && c != 0.0 {
            return Err(format!("parent value is 0, so no ratio exists (change {c})"));
        }
        diffs.push(if p == 0.0 { 0.0 } else { (c - p) / p.abs() });
        wlt[match (sign * (c - p)).partial_cmp(&0.0) {
            Some(Ordering::Greater) => 0,
            Some(Ordering::Less) => 1,
            _ => 2,
        }] += 1;
    }
    let (ps, cs): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    let spread = |v: &[f64]| [quartiles(v).0, median(v), quartiles(v).1];
    let (parent, change) = (spread(&ps), spread(&cs));
    let (gain, iqr, n) = (sign * (change[1] - parent[1]), parent[2] - parent[0], pairs.len());
    let constant = |v: &[f64]| v.iter().all(|x| *x == v[0]);
    if metric.bound.is_infinite() && !(constant(&ps) && constant(&cs)) {
        return Err("not a count: a side read different values in different runs".into());
    }
    let verdict = if -gain / parent[1].abs() > metric.bound {
        Verdict::BeyondBound
    } else if wlt[0] * 10 >= 9 * n && gain > iqr {
        Verdict::Better
    } else if wlt[1] * 10 >= 9 * n && -gain > iqr {
        Verdict::Worse
    } else if iqr / parent[1].abs() > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Level
    };
    let (rel_diff, ci, sign_p) =
        (median(&diffs), bootstrap_ci(&diffs), sign_test_p(wlt[0], wlt[1]));
    Ok(Judged { parent, change, rel_diff, ci, wins_losses_ties: wlt, sign_p, verdict })
}

/// One line of the report.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload (`count` for the count columns).
    pub workload: String,
    /// Metric or count column.
    pub metric: String,
    /// The judgement, or why none exists.
    pub judged: Result<Judged, String>,
}

impl Row {
    /// Whether this row fails the run: an error always, a metric beyond
    /// its bound when bounds are checked.
    #[must_use]
    pub fn fails(&self, bounds: bool) -> bool {
        self.judged.as_ref().map_or(true, |j| bounds && j.verdict == Verdict::BeyondBound)
    }
}

/// One row per metric of `metrics` over `(parent, change)` result pairs
/// of `workload`.
#[must_use]
pub fn compare(workload: &str, metrics: &[Metric], runs: &[(RunResult, RunResult)]) -> Vec<Row> {
    let row = |m: &Metric| {
        let value = |r: &RunResult, side: &str, k: usize| {
            let absent = || format!("absent from the {side}'s run in pair {k}");
            r.metrics.get(&m.name).map(|v| v.value).ok_or_else(absent)
        };
        let pairs: Result<Vec<(f64, f64)>, String> = runs
            .iter()
            .enumerate()
            .map(|(k, (p, c))| Ok((value(p, "parent", k)?, value(c, "change", k)?)))
            .collect();
        let judged = pairs.and_then(|pairs| judge(m, &pairs));
        Row { workload: workload.to_string(), metric: m.name.clone(), judged }
    };
    metrics.iter().map(row).collect()
}

/// `v` with 4, 2 or 0 decimals as it passes 10 and 1 000.
fn num(v: f64) -> String {
    let decimals = [4, 2, 0][usize::from(v.abs() >= 10.0) + usize::from(v.abs() >= 1_000.0)];
    format!("{v:.decimals$}")
}

/// The report: one table, one row per (workload, metric).
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let line = |c: [&str; 9]| {
        let [w, m, p, c, d, ci, wlt, sp, v] = c;
        format!("{w:<12} {m:<32} {p:>26} {c:>26} {d:>8} {ci:>19} {wlt:>6} {sp:>8}  {v}\n")
    };
    let mut out = line([
        "workload",
        "metric",
        "parent median (q1-q3)",
        "change median (q1-q3)",
        "diff",
        "95% CI",
        "W/L/T",
        "sign p",
        "verdict",
    ]);
    for r in rows {
        let j = match &r.judged {
            Ok(j) => j,
            Err(e) => {
                out += &format!("{:<12} {:<32} ERROR {e}\n", r.workload, r.metric);
                continue;
            }
        };
        let side = |s: [f64; 3]| format!("{} ({}-{})", num(s[1]), num(s[0]), num(s[2]));
        let pct = |v: f64| format!("{:+.2}%", 100.0 * v);
        let [w, l, t] = j.wins_losses_ties;
        let (ci, wlt) = (format!("[{}, {}]", pct(j.ci[0]), pct(j.ci[1])), format!("{w}/{l}/{t}"));
        let (p, verdict) = (format!("{:.4}", j.sign_p), format!("{:?}", j.verdict));
        let (parent, change, diff) = (side(j.parent), side(j.change), pct(j.rel_diff));
        out += &line([&r.workload, &r.metric, &parent, &change, &diff, &ci, &wlt, &p, &verdict]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, better: Better, bound: f64) -> Metric {
        Metric { name: name.into(), better, bound }
    }

    fn line(metrics: &[(&str, f64)]) -> RunResult {
        let body: Vec<String> =
            metrics.iter().map(|(n, v)| format!(r#""{n}": {{"value": {v}}}"#)).collect();
        let body = body.join(", ");
        serde_json::from_str(&format!(r#"{{"correct": true, "failed": 0, "metrics": {{{body}}}}}"#))
            .expect("parses")
    }

    /// One `name` row over pairs whose parent reads `parent(k)` and whose
    /// change reads `change(k)`, k = 0..n.
    fn rows(
        name: &str,
        better: Better,
        n: usize,
        parent: impl Fn(usize) -> f64,
        change: impl Fn(usize) -> f64,
    ) -> Vec<Row> {
        let runs: Vec<_> =
            (0..n).map(|k| (line(&[(name, parent(k))]), line(&[(name, change(k))]))).collect();
        compare("w", &[metric(name, better, 0.25)], &runs)
    }

    fn verdict(rows: &[Row]) -> Verdict {
        rows[0].judged.as_ref().expect("judged").verdict
    }

    fn verdict_err(rows: &[Row]) -> String {
        rows[0].judged.as_ref().expect_err("an error").clone()
    }

    #[test]
    fn sign_test_is_exact_and_ties_drop_out() {
        assert!((sign_test_p(10, 0) - 0.001953).abs() < 1e-6);
        assert!((sign_test_p(9, 1) - 0.02148).abs() < 1e-5);
        assert!((sign_test_p(1, 9) - 0.02148).abs() < 1e-5);
        assert_eq!((sign_test_p(0, 0), sign_test_p(5, 5)), (1.0, 1.0));
        // Nine wins and one tie: n is 9, not 10.
        let r = rows("txn_us", Better::Lower, 10, |_| 100.0, |k| if k == 0 { 100.0 } else { 90.0 });
        let j = r[0].judged.as_ref().unwrap();
        assert_eq!(j.wins_losses_ties, [9, 0, 1]);
        assert!((j.sign_p - 2.0 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_interval_repeats_under_its_seed() {
        let diffs = [-0.04, 0.01, 0.03, -0.02, 0.05, 0.0, 0.02, -0.01, 0.04, 0.035];
        let (ci, m) = (bootstrap_ci(&diffs), median(&diffs));
        assert_eq!(ci, bootstrap_ci(&diffs));
        assert!(ci[0] <= m && m <= ci[1] && ci[0] >= -0.04 && ci[1] <= 0.05, "{ci:?}");
    }

    #[test]
    fn verdict_table_in_both_directions() {
        let parent = |k: usize| 100.0 + (k % 3) as f64;
        // (direction, shift of every change run, extra drop of every even one, verdict)
        let cases = [
            // Every pair one way, medians apart by more than the spread.
            (Better::Higher, 10.0, 0.0, Verdict::Better),
            (Better::Higher, -10.0, 0.0, Verdict::Worse),
            (Better::Lower, -10.0, 0.0, Verdict::Better),
            (Better::Lower, 10.0, 0.0, Verdict::Worse),
            // Past the 25 % bound in the bad direction.
            (Better::Higher, -30.0, 0.0, Verdict::BeyondBound),
            (Better::Lower, 30.0, 0.0, Verdict::BeyondBound),
            // One way in every pair, but inside the parent's spread.
            (Better::Higher, 0.5, 0.0, Verdict::Level),
            (Better::Lower, 0.5, 0.0, Verdict::Level),
            // Far apart, but only half the pairs agree.
            (Better::Higher, 10.0, 20.0, Verdict::Level),
            (Better::Lower, 10.0, 20.0, Verdict::Level),
        ];
        for (better, shift, swing, want) in cases {
            let change =
                |k: usize| parent(k) + shift - if k.is_multiple_of(2) { swing } else { 0.0 };
            let got = verdict(&rows("m", better, 10, parent, change));
            assert_eq!(got, want, "{better:?} {shift} {swing}");
        }
        // A parent spread wider than the bound leaves the metric unresolved.
        let wide = |k: usize| if k.is_multiple_of(2) { 60.0 } else { 140.0 };
        for better in [Better::Higher, Better::Lower] {
            let change = |k: usize| if k.is_multiple_of(2) { 62.0 } else { 138.0 };
            assert_eq!(verdict(&rows("m", better, 10, wide, change)), Verdict::Unresolved);
        }
    }

    #[test]
    fn count_columns_compare_exactly() {
        let col = metric("rmw/allocs_per_txn", Better::Lower, f64::INFINITY);
        assert_eq!(judge(&col, &[(23.334, 23.334); 3]).unwrap().verdict, Verdict::Level);
        let j = judge(&col, &[(23.334, 26.334); 3]).unwrap();
        assert_eq!(j.verdict, Verdict::Worse);
        assert!((j.change[1] - j.parent[1] - 3.0).abs() < 1e-9);
        // A difference far inside any timing noise still counts.
        assert_eq!(judge(&col, &[(23.334, 23.333); 2]).unwrap().verdict, Verdict::Better);
        // A column that moves between a side's own runs is not a count.
        let moving = judge(&col, &[(23.0, 23.0), (24.0, 24.0)]);
        assert!(moving.unwrap_err().contains("not a count"));
        assert_eq!(line(&[("b", 1.0), ("a", 2.0)]).count_columns()[0].better, Better::Lower);
    }

    #[test]
    fn rules_parse_from_threshold_doc() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let c = parse_contract(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(c.run_seconds, 10.0);
        assert_eq!(c.workloads.join(" "), "rmw_solo rmw_pair read_mostly fleet_mobile");
        assert_eq!(c.metrics.len(), 5);
        assert_eq!(c.metrics[0], metric("tps", Better::Higher, 0.25));
        assert_eq!(c.metrics[2], metric("retained_bytes_per_txn", Better::Lower, 0.05));
        assert_eq!(c.metrics[3], metric("commit_share", Better::Higher, 0.01));
        assert!(parse_contract("{}").is_err());
        let bad = r#"{"run_seconds": 10, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "tps", "better": "up", "bound": 0.25}]}"#;
        assert!(parse_contract(bad).unwrap_err().contains("better"));
    }

    #[test]
    fn flatten_keys_rows_by_label_not_index() {
        // Metrics are found by name wherever the line lists them.
        let a = line(&[("tps", 100.0), ("txn_us", 6.5)]);
        let b = line(&[("txn_us", 6.5), ("front.session_ns", 1.0), ("tps", 100.0)]);
        let rows = compare("w", &[metric("tps", Better::Higher, 0.25)], &[(a, b)]);
        assert_eq!(rows[0].judged.as_ref().unwrap().wins_losses_ties, [0, 0, 1]);
        let no_gate = serde_json::from_str::<RunResult>(r#"{"failed": 0, "metrics": {}}"#);
        assert!(no_gate.is_err(), "a line without a gate verdict is no result");
    }

    #[test]
    fn identical_artifacts_pass() {
        // The change reads exactly what its pair's parent read: all ties.
        let r = rows("tps", Better::Higher, 10, |k| 100.0 + k as f64, |k| 100.0 + k as f64);
        let j = r[0].judged.as_ref().unwrap();
        assert_eq!((j.wins_losses_ties, j.verdict, j.rel_diff), ([0, 0, 10], Verdict::Level, 0.0));
        assert!(!r[0].fails(true));
    }

    #[test]
    fn big_tps_drop_regresses_small_drop_does_not() {
        let parent = |k: usize| 99.0 + (k % 3) as f64;
        let small = rows("tps", Better::Higher, 10, parent, |_| 85.0);
        assert_eq!(verdict(&small), Verdict::Worse, "a resolved 15 % drop is inside the bound");
        assert!(!small[0].fails(true));
        let big = rows("tps", Better::Higher, 10, parent, |_| 70.0);
        assert_eq!(verdict(&big), Verdict::BeyondBound);
        assert!(big[0].fails(true) && !big[0].fails(false), "--quick skips the bound");
    }

    #[test]
    fn direction_matters() {
        // A latency that falls is better however far; one that rises 30 % is not.
        let latency = |to: f64| verdict(&rows("txn_us", Better::Lower, 10, |_| 6.0, |_| to));
        assert_eq!((latency(0.6), latency(7.8)), (Verdict::Better, Verdict::BeyondBound));
    }

    #[test]
    fn missing_rule_matched_metric_fails() {
        let runs = [(line(&[("tps", 100.0), ("txn_us", 6.0)]), line(&[("tps", 100.0)]))];
        let metrics = [metric("tps", Better::Higher, 0.25), metric("txn_us", Better::Lower, 0.25)];
        let rows = compare("w", &metrics, &runs);
        assert!(!rows[0].fails(true) && rows[1].fails(false));
        assert!(rows[1].judged.as_ref().unwrap_err().contains("absent from the change's run"));
    }

    #[test]
    fn unmatched_metrics_never_fail() {
        let runs =
            vec![(line(&[("tps", 100.0), ("odd", 1.0)]), line(&[("tps", 100.0), ("odd", 1e6)])); 3];
        let rows = compare("w", &[metric("tps", Better::Higher, 0.25)], &runs);
        assert!(rows.len() == 1 && !rows[0].fails(true));
    }

    #[test]
    fn zero_baseline_movement_is_an_explicit_error_not_a_percentage() {
        for better in [Better::Higher, Better::Lower] {
            let err = verdict_err(&rows("m", better, 1, |_| 0.0, |_| 10.0));
            assert!(err.contains("parent value is 0"), "{err}");
            // An unmoved 0 -> 0 is a clean tie.
            assert_eq!(verdict(&rows("m", better, 2, |_| 0.0, |_| 0.0)), Verdict::Level);
        }
        let text = render(&rows("m", Better::Lower, 1, |_| 0.0, |_| 10.0));
        assert!(text.lines().any(|l| l.starts_with("w ") && l.contains("ERROR parent value is 0")));
    }

    #[test]
    fn non_finite_values_are_explicit_errors() {
        let m = metric("m", Better::Lower, 0.25);
        assert!(judge(&m, &[(f64::NAN, 10.0)]).unwrap_err().contains("non-finite"));
        assert!(judge(&m, &[(10.0, f64::INFINITY)]).unwrap_err().contains("non-finite"));
        assert!(judge(&m, &[]).is_err(), "no pairs is no verdict");
    }

    #[test]
    fn rule_matched_metric_absent_from_baseline_is_an_error() {
        // The parent's line lacks a metric the contract names: the
        // comparison must not silently skip it.
        let runs = [(line(&[("other", 1.0)]), line(&[("other", 1.0), ("tps", 100.0)]))];
        let rows = compare("w", &[metric("tps", Better::Higher, 0.25)], &runs);
        assert!(verdict_err(&rows).contains("absent from the parent's run in pair 0"));
    }

    #[test]
    fn render_names_the_regression() {
        let text = render(&rows("tps", Better::Higher, 10, |k| 99.0 + (k % 3) as f64, |_| 1.0));
        let row = text.lines().find(|l| l.starts_with("w ")).expect("row");
        let named = row.contains("tps") && row.contains("0/10/0");
        assert!(named && row.ends_with("BeyondBound"), "{text}");
    }
}
