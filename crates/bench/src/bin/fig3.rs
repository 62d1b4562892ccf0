//! Reproduces **Fig. 3** — the paper's emulated GTM-vs-2PL comparison on
//! the §VI.B workload (1000 transactions, 5 objects, inter-arrival
//! 0.5 s):
//!
//! * left panel: mean transaction execution time as the subtraction
//!   probability α varies, with disconnection probability β = 0.05;
//! * right panel: abort percentage as β varies, with α = 0.7.
//!
//! Pass `--quick` to run 200-transaction sweeps (CI-friendly).

use pstm_bench::{run_emulation_traced, tracer_from_env, Scheduler};
use pstm_core::gtm::GtmConfig;
use pstm_obs::MetricsRegistry;
use pstm_types::Duration;
use pstm_workload::PaperWorkload;
use serde::Serialize;

#[derive(Serialize)]
struct Fig3Row {
    panel: &'static str,
    alpha: f64,
    beta: f64,
    scheduler: &'static str,
    mean_exec_s: f64,
    abort_pct: f64,
    abort_pct_disconnected: f64,
    committed: usize,
    aborted: usize,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n_txns = if quick { 200 } else { 1000 };
    let base = PaperWorkload {
        n_txns,
        interarrival: Duration::from_secs_f64(0.5),
        ..PaperWorkload::default()
    };
    let mut rows: Vec<Fig3Row> = Vec::new();
    // Set PSTM_TRACE=1 to persist every point's event stream (all GTM
    // points share one file, all 2PL points another).
    let trace_gtm = tracer_from_env("fig3_gtm");
    let trace_2pl = tracer_from_env("fig3_2pl");
    let (mut live_gtm, mut live_2pl) = (MetricsRegistry::new(), MetricsRegistry::new());

    // Left panel: execution time vs α at β = 0.05.
    pstm_bench::print_header(
        &format!("Fig. 3 (left) — mean execution time vs alpha (beta = 0.05, n = {n_txns})"),
        &["alpha", "GTM (s)", "2PL (s)", "GTM abort%", "2PL abort%"],
    );
    for step in 1..=10u32 {
        let alpha = f64::from(step) / 10.0;
        let workload = PaperWorkload { alpha, beta: 0.05, ..base };
        let g = run_emulation_traced(
            Scheduler::Gtm,
            &workload,
            GtmConfig::default(),
            trace_gtm.clone(),
        )
        .expect("gtm run");
        let t = run_emulation_traced(
            Scheduler::TwoPl,
            &workload,
            GtmConfig::default(),
            trace_2pl.clone(),
        )
        .expect("2pl run");
        live_gtm.merge(&g.metrics);
        live_2pl.merge(&t.metrics);
        println!(
            "{alpha:.1}\t{:.3}\t{:.3}\t{:.2}\t{:.2}",
            g.mean_exec_committed_s, t.mean_exec_committed_s, g.abort_pct, t.abort_pct
        );
        for (sched, r) in [("gtm", &g), ("2pl", &t)] {
            rows.push(Fig3Row {
                panel: "exec_time_vs_alpha",
                alpha,
                beta: 0.05,
                scheduler: if sched == "gtm" { "gtm" } else { "2pl" },
                mean_exec_s: r.mean_exec_committed_s,
                abort_pct: r.abort_pct,
                abort_pct_disconnected: r.abort_pct_disconnected,
                committed: r.committed,
                aborted: r.aborted,
            });
        }
    }

    // Right panel: abort percentage vs β at α = 0.7.
    pstm_bench::print_header(
        &format!("Fig. 3 (right) — abort % vs beta (alpha = 0.7, n = {n_txns})"),
        &["beta", "GTM abort%", "2PL abort%", "GTM disc-abort%", "2PL disc-abort%"],
    );
    for step in 0..=6u32 {
        let beta = f64::from(step) * 0.05;
        let workload = PaperWorkload { alpha: 0.7, beta, ..base };
        let g = run_emulation_traced(
            Scheduler::Gtm,
            &workload,
            GtmConfig::default(),
            trace_gtm.clone(),
        )
        .expect("gtm run");
        let t = run_emulation_traced(
            Scheduler::TwoPl,
            &workload,
            GtmConfig::default(),
            trace_2pl.clone(),
        )
        .expect("2pl run");
        live_gtm.merge(&g.metrics);
        live_2pl.merge(&t.metrics);
        println!(
            "{beta:.2}\t{:.2}\t{:.2}\t{:.2}\t{:.2}",
            g.abort_pct, t.abort_pct, g.abort_pct_disconnected, t.abort_pct_disconnected
        );
        for (sched, r) in [("gtm", &g), ("2pl", &t)] {
            rows.push(Fig3Row {
                panel: "abort_pct_vs_beta",
                alpha: 0.7,
                beta,
                scheduler: if sched == "gtm" { "gtm" } else { "2pl" },
                mean_exec_s: r.mean_exec_committed_s,
                abort_pct: r.abort_pct,
                abort_pct_disconnected: r.abort_pct_disconnected,
                committed: r.committed,
                aborted: r.aborted,
            });
        }
    }

    match pstm_bench::write_results("fig3", &rows) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    pstm_bench::finish_trace("fig3_gtm", &trace_gtm, &live_gtm);
    pstm_bench::finish_trace("fig3_2pl", &trace_2pl, &live_2pl);
}
