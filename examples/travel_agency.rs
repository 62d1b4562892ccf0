//! The paper's §II motivating scenario: a web travel agency selling
//! personalized package tours to mobile customers, with wired
//! administrators repricing resources.
//!
//! Runs the same generated workload under the GTM and under strict 2PL
//! over identical twin databases, then prints the comparison the paper's
//! introduction promises: fewer aborts and shorter execution times for
//! long running, disconnection-prone transactions.
//!
//! Run with: `cargo run --release --example travel_agency`

use preserial::gtm::{Gtm, GtmConfig};
use preserial::obs::Tracer;
use preserial::sim::{GtmBackend, RunReport, Runner, RunnerConfig, TwoPlBackend};
use preserial::twopl::{TwoPlConfig, TwoPlManager};
use preserial::workload::travel::{TravelWorkload, TravelWorld};
use pstm_types::Duration;

fn run_gtm(workload: &TravelWorkload, tracer: Tracer) -> RunReport {
    let world = TravelWorld::build(4, 60).expect("world");
    world.world.db.set_tracer(tracer.clone());
    let scripts = workload.scripts(&world);
    let gtm = Gtm::new(world.world.db.clone(), world.world.bindings, GtmConfig::default())
        .with_tracer(tracer);
    Runner::new(GtmBackend(gtm), scripts, RunnerConfig::default()).run().expect("run")
}

fn run_twopl(workload: &TravelWorkload) -> RunReport {
    let world = TravelWorld::build(4, 60).expect("world");
    let scripts = workload.scripts(&world);
    let config =
        TwoPlConfig { sleep_timeout: Some(Duration::from_secs_f64(5.0)), ..TwoPlConfig::default() };
    let tp = TwoPlManager::new(world.world.db.clone(), world.world.bindings, config);
    Runner::new(TwoPlBackend(tp), scripts, RunnerConfig::default()).run().expect("run")
}

fn show(report: &RunReport) {
    println!("  scheduler            : {}", report.backend);
    println!("  committed / total    : {} / {}", report.committed, report.total);
    println!("  abort percentage     : {:.1}%", report.abort_pct);
    println!("  mean package latency : {:.2} s", report.mean_exec_committed_s);
    println!(
        "  disconnected aborted : {}/{} ({:.1}%)",
        report.disconnected_aborted, report.disconnected_total, report.abort_pct_disconnected
    );
    if !report.aborts_by_reason.is_empty() {
        println!("  aborts by reason     : {:?}", report.aborts_by_reason);
    }
}

fn main() {
    let workload = TravelWorkload {
        customers: 150,
        admins: 15,
        beta: 0.15,
        interarrival: Duration::from_secs_f64(0.4),
        ..TravelWorkload::default()
    };
    println!(
        "travel agency: {} customers composing package tours (flight + hotel [+ museum] [+ car]),",
        workload.customers
    );
    println!(
        "{} admins repricing, {:.0}% of customers disconnect mid-package\n",
        workload.admins,
        workload.beta * 100.0
    );

    println!("— pre-serialization GTM —");
    // PSTM_TRACE=1 persists the full event stream of the GTM run and
    // validates the artifact by replaying it against the live counters.
    let tracer = pstm_bench::tracer_from_env("travel_agency");
    let g = run_gtm(&workload, tracer.clone());
    show(&g);
    pstm_bench::finish_trace("travel_agency", &tracer, &g.metrics);

    println!("\n— strict 2PL (sleep timeout 5 s) —");
    let t = run_twopl(&workload);
    show(&t);

    println!("\ncomparison:");
    println!("  abort rate   : GTM {:.1}%  vs  2PL {:.1}%", g.abort_pct, t.abort_pct);
    println!(
        "  mean latency : GTM {:.2} s  vs  2PL {:.2} s",
        g.mean_exec_committed_s, t.mean_exec_committed_s
    );
}
