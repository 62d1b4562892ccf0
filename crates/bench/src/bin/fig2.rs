//! Reproduces **Fig. 2** — abort percentage of disconnected/sleeping
//! transactions from the analytical model: for 2PL the sleep timeout
//! kills every sleeper (`P(d)`); for the middleware the abort probability
//! is the product `P(d)·P(c)·P(i)`, plotted for increasing
//! incompatibility levels.

use pstm_model::fig2_rows;

fn main() {
    let levels = [10u64, 25, 50, 75, 100];
    let rows = fig2_rows(&levels);

    for &i_pct in &levels {
        pstm_bench::print_header(
            &format!("Fig. 2 — abort % of disconnected transactions (i = {i_pct}%)"),
            &["d% \\ c%", "0", "10", "20", "30", "40", "50", "60", "70", "80", "90", "100"],
        );
        for d_pct in (0..=100u64).step_by(10) {
            let mut line = format!("{d_pct}");
            for c_pct in (0..=100u64).step_by(10) {
                let r = rows
                    .iter()
                    .find(|r| {
                        r.incompatible_pct == i_pct
                            && r.disconnected_pct == d_pct
                            && r.conflict_pct == c_pct
                    })
                    .expect("row exists");
                line.push_str(&format!("\t{:.2}", r.pstm));
            }
            println!("{line}");
        }
        println!("(2PL for the same d% column: identical to d% — every sleeper aborts)");
    }

    match pstm_bench::write_results("fig2", &rows) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }

    // Like Fig. 1 this bin is closed-form; with PSTM_TRACE set we trace
    // one emulated point at the disconnection-heavy end of the sweep and
    // validate the artifact by replay.
    let tracer = pstm_bench::tracer_from_env("fig2");
    if tracer.is_enabled() {
        use pstm_bench::{run_emulation_traced, Scheduler};
        use pstm_core::gtm::GtmConfig;
        use pstm_workload::PaperWorkload;
        let workload = PaperWorkload { n_txns: 100, beta: 0.3, ..PaperWorkload::default() };
        let report =
            run_emulation_traced(Scheduler::Gtm, &workload, GtmConfig::default(), tracer.clone())
                .expect("traced emulation");
        println!(
            "\ntraced emulation: {} txns, {} committed, {} aborted",
            report.total, report.committed, report.aborted
        );
        pstm_bench::finish_trace("fig2", &tracer, &report.metrics);
    }
}
