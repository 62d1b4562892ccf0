//! Extension experiment **E1** — Fig. 3's right panel re-run under a
//! bursty two-state Markov link instead of the flat β coin.
//!
//! The knob is the link's long-run down fraction (β-equivalent); outage
//! lengths are exponential, so some disconnections are far longer than
//! the fixed-β emulation ever produces. The paper's qualitative claim —
//! the GTM's abort rate for disconnected transactions stays well below
//! 2PL's timeout policy — should survive the distribution change.

use pstm_bench::{tracer_from_env, twopl_config_for_emulation, FIG3_INITIAL, FIG3_OBJECTS};
use pstm_core::gtm::{Gtm, GtmConfig};
use pstm_obs::{MetricsRegistry, Tracer};
use pstm_sim::{GtmBackend, LinkModel, RunReport, Runner, RunnerConfig, TwoPlBackend};
use pstm_twopl::TwoPlManager;
use pstm_types::Duration;
use pstm_workload::{counter_world, PaperWorkload};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    down_fraction: f64,
    scheduler: &'static str,
    abort_pct: f64,
    abort_pct_disconnected: f64,
    mean_exec_s: f64,
    committed: usize,
}

fn run(
    scheduler: &'static str,
    workload: &PaperWorkload,
    link: LinkModel,
    tracer: Tracer,
) -> RunReport {
    let world = counter_world(FIG3_OBJECTS, FIG3_INITIAL).expect("world");
    world.db.set_tracer(tracer.clone());
    let scripts = workload.scripts_with_link(&world.resources, link);
    match scheduler {
        "gtm" => {
            let gtm = Gtm::new(world.db.clone(), world.bindings, GtmConfig::default())
                .with_tracer(tracer);
            Runner::new(GtmBackend(gtm), scripts, RunnerConfig::default()).run().expect("run")
        }
        _ => {
            let tp =
                TwoPlManager::new(world.db.clone(), world.bindings, twopl_config_for_emulation())
                    .with_tracer(tracer);
            Runner::new(TwoPlBackend(tp), scripts, RunnerConfig::default()).run().expect("run")
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n_txns = if quick { 200 } else { 1000 };
    let workload = PaperWorkload {
        n_txns,
        alpha: 0.7,
        interarrival: Duration::from_secs_f64(0.5),
        ..PaperWorkload::default()
    };
    pstm_bench::print_header(
        &format!("E1 — bursty-link sweep (alpha = 0.7, n = {n_txns}, exp. outages, mean 8 s)"),
        &["down-frac", "GTM abort%", "2PL abort%", "GTM disc-abort%", "2PL disc-abort%"],
    );
    let mut rows = Vec::new();
    let trace_gtm = tracer_from_env("link_sweep_gtm");
    let trace_2pl = tracer_from_env("link_sweep_2pl");
    let (mut live_gtm, mut live_2pl) = (MetricsRegistry::new(), MetricsRegistry::new());
    for step in 0..=6u32 {
        let down = f64::from(step) * 0.05;
        // Mean outage 8 s (as in the fixed-β runs); mean uptime set to
        // hit the target down fraction.
        let mean_down = 8.0;
        let mean_up = if down == 0.0 { 1e12 } else { mean_down * (1.0 - down) / down };
        let link = LinkModel {
            mean_up: Duration::from_secs_f64(mean_up),
            mean_down: Duration::from_secs_f64(mean_down),
        };
        let g = run("gtm", &workload, link, trace_gtm.clone());
        let t = run("2pl", &workload, link, trace_2pl.clone());
        live_gtm.merge(&g.metrics);
        live_2pl.merge(&t.metrics);
        println!(
            "{down:.2}\t{:.2}\t{:.2}\t{:.2}\t{:.2}",
            g.abort_pct, t.abort_pct, g.abort_pct_disconnected, t.abort_pct_disconnected
        );
        for (name, r) in [("gtm", &g), ("2pl", &t)] {
            rows.push(Row {
                down_fraction: down,
                scheduler: name,
                abort_pct: r.abort_pct,
                abort_pct_disconnected: r.abort_pct_disconnected,
                mean_exec_s: r.mean_exec_committed_s,
                committed: r.committed,
            });
        }
    }
    println!("\nexpected shape: same ordering as Fig. 3 right panel — burstiness does");
    println!("not change who wins, only the magnitude of the sleep-conflict tail.");
    pstm_bench::finish_trace("link_sweep_gtm", &trace_gtm, &live_gtm);
    pstm_bench::finish_trace("link_sweep_2pl", &trace_2pl, &live_2pl);
    match pstm_bench::write_results("link_sweep", &rows) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
