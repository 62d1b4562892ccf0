//! `pstm_top` — the contention profiler CLI.
//!
//! Reads one or more recorder frame files (e.g. `trace_ab_contended.rec`,
//! written by `pstm_ab count --workload contended` under `PSTM_TRACE=1`,
//! or a crashed process's flight recorder), splits each into its shard
//! streams, merges them into one virtual-time timeline, and prints the
//! contention profile: per-phase latency, top-K hot objects by blocked
//! time, abort rates by operation class, and waits-for DOT snapshots
//! over the run (plus the peak). A window that lost its start to ring
//! wraps still profiles, with a warning.
//!
//! ```text
//! pstm_top [--top K] [--snapshots N] TRACE.rec [TRACE.rec ...]
//! pstm_top --phases TRACE.rec ...
//! ```
//!
//! `--phases` switches to the phase view: the trace's span-phase times
//! beside its hot objects by blocked time.
//!
//! Live rings profile the same way: snapshot them in-process and call
//! `pstm_bench::profile::profile` on the records.

use pstm_bench::profile::{merge_records, profile, render, render_phases};
use pstm_obs::read_recorder;
use std::process::ExitCode;

const USAGE: &str = "usage: pstm_top [--top K] [--snapshots N] [--phases] TRACE.rec ...";

fn main() -> ExitCode {
    let mut top_k = 10usize;
    let mut n_snapshots = 4usize;
    let mut phases_view = false;
    let mut files = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" | "--snapshots" => {
                let Some(v) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("{arg} needs a number\n{USAGE}");
                    return ExitCode::from(2);
                };
                if arg == "--top" {
                    top_k = v;
                } else {
                    n_snapshots = v;
                }
            }
            "--phases" => phases_view = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut shards = Vec::new();
    for file in &files {
        match read_recorder(std::path::Path::new(file)) {
            Ok(replay) => {
                for (shard, records) in replay.records_by_shard() {
                    if shard == pstm_obs::ENGINE_SHARD {
                        eprintln!("{file}: engine: {} record(s)", records.len());
                    } else {
                        eprintln!("{file}: shard {shard}: {} record(s)", records.len());
                    }
                    shards.push(records);
                }
                if let Err(e) = replay.check_complete() {
                    eprintln!("{file}: {e} — window is a suffix or has holes");
                }
            }
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let records = merge_records(shards);
    let p = profile(&records, top_k, n_snapshots);
    if phases_view {
        print!("{}", render_phases(&p));
    } else {
        print!("{}", render(&p));
    }
    ExitCode::SUCCESS
}
