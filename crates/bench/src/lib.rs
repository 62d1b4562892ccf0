//! `pstm-bench` — the experiment harness.
//!
//! One binary per paper artifact (see DESIGN.md §4):
//!
//! | binary                | artifact |
//! |-----------------------|----------|
//! | `fig1`                | Fig. 1 — analytical execution time |
//! | `fig2`                | Fig. 2 — analytical abort percentage |
//! | `fig3`                | Fig. 3 — emulated GTM vs 2PL (α and β sweeps) |
//! | `table2`              | Table II — the reconciliation trace |
//! | `ablation_starvation` | §VII extension 1 on/off |
//! | `ablation_admission`  | §VII extension 2 on/off |
//!
//! Each binary prints a human-readable table and writes machine-readable
//! JSON under `results/`. `pstm_ab` pairs a parent commit against the
//! working tree over the end-to-end benchmark and counts allocations on
//! fixed-count workloads; its statistics live in [`ab`].

pub mod ab;
pub mod profile;

use pstm_core::gtm::{Gtm, GtmConfig};
use pstm_obs::{read_recorder, render_jsonl, Ctr, MetricsRegistry, Recorder, TraceRecord, Tracer};
use pstm_sim::{GtmBackend, RunReport, Runner, RunnerConfig, TwoPlBackend, TxnScript};
use pstm_twopl::{TwoPlConfig, TwoPlManager};
use pstm_types::{Duration, PstmResult};
use pstm_workload::{counter_world, PaperWorkload};
use serde::Serialize;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Which scheduler to drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// The paper's GTM.
    Gtm,
    /// The strict 2PL baseline.
    TwoPl,
}

/// Defaults used by the Fig. 3 emulation (paper §VI.B: 1000 transactions,
/// 5 objects, inter-arrival 0.5 s).
pub const FIG3_OBJECTS: usize = 5;
/// Initial counter value: large enough that the `>= 0` CHECK never binds
/// in the baseline comparison (the admission ablation stresses it
/// separately).
pub const FIG3_INITIAL: i64 = 100_000;

/// 2PL sleep timeout for the emulation: shorter than typical
/// disconnections, so disconnected transactions abort — the classical
/// policy the paper charges 2PL with.
#[must_use]
pub fn twopl_config_for_emulation() -> TwoPlConfig {
    TwoPlConfig {
        sleep_timeout: Some(Duration::from_secs_f64(5.0)),
        lock_timeout: None,
        deadlock_detection: true,
    }
}

/// Runs one emulation point: the §VI.B workload under the chosen
/// scheduler.
pub fn run_emulation(
    scheduler: Scheduler,
    workload: &PaperWorkload,
    gtm_config: GtmConfig,
) -> PstmResult<RunReport> {
    run_emulation_traced(scheduler, workload, gtm_config, Tracer::disabled())
}

/// [`run_emulation`] with a caller-supplied tracer threaded through the
/// scheduler, its lock table, and the storage engine + WAL, so the whole
/// stack lands in one interleaved event stream.
pub fn run_emulation_traced(
    scheduler: Scheduler,
    workload: &PaperWorkload,
    gtm_config: GtmConfig,
    tracer: Tracer,
) -> PstmResult<RunReport> {
    let world = counter_world(FIG3_OBJECTS, FIG3_INITIAL)?;
    world.db.set_tracer(tracer.clone());
    let scripts: Vec<TxnScript> = workload.scripts(&world.resources);
    let runner_config = RunnerConfig::default();
    let report = match scheduler {
        Scheduler::Gtm => {
            let gtm =
                Gtm::new(world.db.clone(), world.bindings, gtm_config).with_tracer(tracer.clone());
            Runner::new(GtmBackend(gtm), scripts, runner_config).run()
        }
        Scheduler::TwoPl => {
            let tp =
                TwoPlManager::new(world.db.clone(), world.bindings, twopl_config_for_emulation())
                    .with_tracer(tracer.clone());
            Runner::new(TwoPlBackend(tp), scripts, runner_config).run()
        }
    };
    tracer.flush();
    report
}

/// Builds a tracer from the `PSTM_TRACE` environment variable: unset,
/// empty, or `0` disables persistence (metrics still accumulate); any
/// other value records into [`trace_recorder`]`(label)`.
#[must_use]
pub fn tracer_from_env(label: &str) -> Tracer {
    if !trace_requested() {
        return Tracer::disabled();
    }
    match trace_recorder(label) {
        Ok(rec) => {
            eprintln!("tracing to {}", rec.path().display());
            Tracer::with_sink(Box::new(rec.sink(0)))
        }
        Err(e) => {
            eprintln!("could not open {}: {e}; tracing disabled", trace_path(label).display());
            Tracer::disabled()
        }
    }
}

/// Whether `PSTM_TRACE` asks for persisted traces (set, non-empty, not `0`).
#[must_use]
pub fn trace_requested() -> bool {
    std::env::var("PSTM_TRACE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// A recorder writing `label`'s frames to [`trace_path`]: one segment
/// as large as the header allows, so a run never wraps, and frames
/// reach the file every 64 KiB.
pub fn trace_recorder(label: &str) -> std::io::Result<Recorder> {
    std::fs::create_dir_all("results")?;
    Recorder::create(&trace_path(label), u32::MAX, false)
}

/// Where [`trace_recorder`] writes the frames for `label`.
#[must_use]
pub fn trace_path(label: &str) -> PathBuf {
    PathBuf::from("results").join(format!("trace_{label}.rec"))
}

/// Reads back the frames at `path`, shard `i` written by `tracers[i]`:
/// refuses an incomplete stream, compares every replayed counter with
/// `live[i]` — the registries of every component streaming into shard
/// `i`, merged — and renders each shard's JSONL beside the frames
/// (`<stem>.jsonl`, or `<stem>_shard<i>.jsonl` for several shards).
/// Returns the number of events, or a message naming the first gap,
/// drop or diverged counter — the artifact-validity check.
pub fn verify_trace(
    path: &Path,
    tracers: &[Tracer],
    live: &[MetricsRegistry],
) -> Result<usize, String> {
    let at = |e: String| format!("{}: {e}", path.display());
    tracers.iter().for_each(Tracer::flush);
    let replay = read_recorder(path).map_err(|e| at(e.to_string()))?;
    replay.check_complete().map_err(at)?;
    let mut events = 0;
    for (i, live) in live.iter().enumerate() {
        let records = replay.shard_records(i as u32);
        let rebuilt = MetricsRegistry::from_records(&records);
        if let Some(&c) = Ctr::ALL.iter().find(|c| rebuilt.counter(**c) != live.counter(**c)) {
            let (name, trace, live) = (c.name(), rebuilt.counter(c), live.counter(c));
            return Err(at(format!("shard {i}: counter {name}: trace {trace} vs live {live}")));
        }
        let shard = if tracers.len() == 1 { String::new() } else { format!("_shard{i}") };
        let stem = path.file_stem().unwrap_or_default().to_string_lossy();
        let jsonl = path.with_file_name(format!("{stem}{shard}.jsonl"));
        write_jsonl(&jsonl, &records).map_err(|e| at(e.to_string()))?;
        events += records.len();
    }
    Ok(events)
}

fn write_jsonl(path: &Path, records: &[TraceRecord]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    render_jsonl(records, &mut out)?;
    out.flush()
}

/// Under `PSTM_TRACE`, [`verify_trace`]s the one-shard trace of `label`
/// against `live` and prints its event count; a failed check exits with
/// status 1.
pub fn finish_trace(label: &str, tracer: &Tracer, live: &MetricsRegistry) {
    if !tracer.is_enabled() {
        return;
    }
    match verify_trace(&trace_path(label), std::slice::from_ref(tracer), std::slice::from_ref(live))
    {
        Ok(n) => println!("trace {label}: {n} events; replayed counters match the live run ✓"),
        Err(e) => {
            eprintln!("trace verification failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes `rows` as JSON under `results/<name>.json` (created on demand),
/// returning the path.
pub fn write_results<T: Serialize>(name: &str, rows: &T) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, serde_json::to_vec_pretty(rows)?)?;
    Ok(path)
}

/// Prints a separator-framed table header.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n== {title} ==");
    println!("{}", columns.join("\t"));
}

/// A YCSB-style Zipfian rank sampler over `0..n` with skew `theta`
/// (Gray et al.'s rejection-free inverse-CDF approximation): rank 0 is
/// the hottest key. `theta = 0.99` is the YCSB default hotspot skew.
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// A sampler over `0..n`.
    ///
    /// # Panics
    /// If `n == 0` or `theta` is not in `(0, 1)`.
    #[must_use]
    pub fn new(n: usize, theta: f64) -> Zipfian {
        assert!(n > 0, "zipfian needs a non-empty domain");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1), got {theta}");
        let zetan = zeta(n as u64, theta);
        let zeta2 = zeta(2, theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian { n: n as u64, theta, alpha: 1.0 / (1.0 - theta), zetan, eta }
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: rand::Rng>(&self, rng: &mut R) -> usize {
        self.sample_from_u(rng.gen_range(0.0..1.0))
    }

    /// Maps one uniform draw `u` in `[0, 1)` to a rank in `0..n` — the
    /// deterministic core of [`Zipfian::sample`], exposed so tests can
    /// sweep the whole unit interval (including the `u -> 0` and
    /// `u -> 1` edges a finite random run is not guaranteed to hit).
    #[must_use]
    pub fn sample_from_u(&self, u: f64) -> usize {
        // A single-key domain has exactly one rank; the general-case
        // branches below would hand back rank 1 for most of the unit
        // interval, which is out of range.
        if self.n == 1 {
            return 0;
        }
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        // `eta * u - eta + 1` dips below zero whenever `eta * (1 - u)`
        // exceeds 1 (eta hugs 1 from below, so rounding near the branch
        // cutoffs can cross), and powf of a negative base with a
        // fractional exponent is NaN — which casts to rank 0 and
        // silently fattens the head. Clamping the base keeps the draw
        // on the hottest tail-adjacent rank instead; the clamp also
        // absorbs n == 2, whose eta is 0/0 (unreachable: the second
        // branch covers the whole interval there, but NaN must not be
        // one bad rounding away).
        let base = (self.eta * u - self.eta + 1.0).max(0.0);
        let rank = (self.n as f64 * base.powf(self.alpha)) as u64;
        (rank.min(self.n - 1)) as usize
    }
}

/// The generalized harmonic number `H_{n,theta}`.
fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{SeedableRng, StdRng};

    #[test]
    fn zipfian_single_key_domain_always_draws_rank_zero() {
        let z = Zipfian::new(1, 0.99);
        for i in 0..=1_000 {
            assert_eq!(z.sample_from_u(f64::from(i) / 1_000.0), 0);
        }
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1_000 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zipfian_grid_sweep_pins_the_rank_distribution() {
        // Sweep the unit interval on a dense deterministic grid: every
        // rank is in range, the pmf is non-increasing in rank (up to
        // grid quantization), and the head mass matches the exact
        // branch probability 1/zetan.
        let n = 16;
        let z = Zipfian::new(n, 0.99);
        let m = 200_000u32;
        let mut counts = vec![0u32; n];
        for i in 0..m {
            let u = (f64::from(i) + 0.5) / f64::from(m);
            counts[z.sample_from_u(u)] += 1;
        }
        assert_eq!(counts.iter().map(|c| u64::from(*c)).sum::<u64>(), u64::from(m));
        for r in 0..n - 1 {
            assert!(
                counts[r] + 1 >= counts[r + 1],
                "pmf must not rise with rank: counts[{r}]={} counts[{}]={}",
                counts[r],
                r + 1,
                counts[r + 1]
            );
        }
        let zetan: f64 = (1..=n as u64).map(|i| 1.0 / (i as f64).powf(0.99)).sum();
        let head = f64::from(counts[0]) / f64::from(m);
        assert!((head - 1.0 / zetan).abs() < 0.01, "head mass {head} vs exact {}", 1.0 / zetan);
    }

    proptest::proptest! {
        #[test]
        fn zipfian_rank_stays_in_range_for_any_domain_and_draw(
            n in 1usize..128,
            theta in 0.05f64..0.95,
            u in 0.0f64..1.0,
        ) {
            let z = Zipfian::new(n, theta);
            proptest::prop_assert!(z.sample_from_u(u) < n);
            // The edges a random draw (almost) never lands on exactly.
            proptest::prop_assert!(z.sample_from_u(0.0) < n);
            proptest::prop_assert!(z.sample_from_u(1.0 - f64::EPSILON) < n);
        }
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(64, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 64];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 dominates and the tail is thin but reachable.
        assert!(counts[0] > counts[10] * 3, "head {} tail {}", counts[0], counts[10]);
        assert!(counts.iter().skip(32).any(|c| *c > 0), "tail never sampled");
        let head: u32 = counts.iter().take(8).sum();
        assert!(f64::from(head) / 40_000.0 > 0.5, "top-8 keys should carry most draws");
    }

    #[test]
    fn emulation_point_runs_under_both_schedulers() {
        let workload = PaperWorkload { n_txns: 40, ..PaperWorkload::default() };
        let g = run_emulation(Scheduler::Gtm, &workload, GtmConfig::default()).unwrap();
        let t = run_emulation(Scheduler::TwoPl, &workload, GtmConfig::default()).unwrap();
        assert_eq!(g.total, 40);
        assert_eq!(t.total, 40);
        assert_eq!(g.unfinished, 0);
        assert_eq!(t.unfinished, 0);
        assert!(g.committed + g.aborted == 40);
    }

    #[test]
    fn gtm_dominates_on_contended_mix() {
        // High α (compatible subtractions dominate): the GTM should both
        // commit at least as many transactions and finish them no slower.
        let workload = PaperWorkload {
            n_txns: 120,
            alpha: 0.9,
            beta: 0.1,
            interarrival: Duration::from_secs_f64(0.1),
            ..PaperWorkload::default()
        };
        let g = run_emulation(Scheduler::Gtm, &workload, GtmConfig::default()).unwrap();
        let t = run_emulation(Scheduler::TwoPl, &workload, GtmConfig::default()).unwrap();
        assert!(g.abort_pct <= t.abort_pct, "gtm {} vs 2pl {}", g.abort_pct, t.abort_pct);
        assert!(
            g.mean_exec_committed_s <= t.mean_exec_committed_s * 1.05,
            "gtm {} vs 2pl {}",
            g.mean_exec_committed_s,
            t.mean_exec_committed_s
        );
    }
}
