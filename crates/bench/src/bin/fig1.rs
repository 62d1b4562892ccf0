//! Reproduces **Fig. 1** — average transaction execution time (τe = 1)
//! from the analytical model: eq. (3) for 2PL and eqs. (4)–(5) for the
//! pre-serialization middleware, swept over the conflict percentage `c`
//! and the incompatibility percentage `i`.

use pstm_model::fig1_rows;

fn main() {
    let n = 100;
    let tau_e = 1.0;
    let levels = [0u64, 25, 50, 75, 100];
    let rows = fig1_rows(n, tau_e, &levels);

    pstm_bench::print_header(
        "Fig. 1 — average transaction execution time (tau_e = 1, n = 100)",
        &["c%", "2PL", "PSTM(i=0%)", "PSTM(i=25%)", "PSTM(i=50%)", "PSTM(i=75%)", "PSTM(i=100%)"],
    );
    for c_pct in (0..=100u64).step_by(10) {
        let twopl = rows.iter().find(|r| r.conflict_pct == c_pct).expect("row exists").twopl;
        let mut line = format!("{c_pct}\t{twopl:.4}");
        for i_pct in levels {
            let r = rows
                .iter()
                .find(|r| r.conflict_pct == c_pct && r.incompatible_pct == i_pct)
                .expect("row exists");
            line.push_str(&format!("\t{:.4}", r.pstm));
        }
        println!("{line}");
    }

    println!("\nShape checks (paper §VI.A):");
    let best_ours = rows.iter().find(|r| r.conflict_pct == 100 && r.incompatible_pct == 0).unwrap();
    println!(
        "  c=100%, i=0%: 2PL {:.3} vs PSTM {:.3}  (paper: 50% of the overhead saved)",
        best_ours.twopl, best_ours.pstm
    );
    let worst = rows.iter().find(|r| r.conflict_pct == 100 && r.incompatible_pct == 100).unwrap();
    println!(
        "  c=100%, i=100%: 2PL {:.3} vs PSTM {:.3}  (paper: curves coincide)",
        worst.twopl, worst.pstm
    );

    match pstm_bench::write_results("fig1", &rows) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }

    // Fig. 1 itself is closed-form (no transactions to trace), so with
    // PSTM_TRACE set we drive one emulated GTM point of the same regime,
    // persist its full event stream, and prove the artifact faithful by
    // replaying it against the live counters.
    let tracer = pstm_bench::tracer_from_env("fig1");
    if tracer.is_enabled() {
        use pstm_bench::{run_emulation_traced, Scheduler};
        use pstm_core::gtm::GtmConfig;
        use pstm_workload::PaperWorkload;
        let workload = PaperWorkload { n_txns: 100, ..PaperWorkload::default() };
        let report =
            run_emulation_traced(Scheduler::Gtm, &workload, GtmConfig::default(), tracer.clone())
                .expect("traced emulation");
        println!(
            "\ntraced emulation: {} txns, {} committed, {} aborted",
            report.total, report.committed, report.aborted
        );
        pstm_bench::finish_trace("fig1", &tracer, &report.metrics);
    }
}
