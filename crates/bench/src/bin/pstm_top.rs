//! `pstm_top` — the contention profiler CLI.
//!
//! Tails one or more JSONL traces (e.g. the per-shard files written by
//! `pstm_ab count --workload contended` under `PSTM_TRACE=1`), merges
//! them into one virtual-time timeline, and prints the contention
//! profile: per-phase latency, top-K hot objects by blocked time, abort
//! rates by operation class, and waits-for DOT snapshots over the run
//! (plus the peak).
//!
//! ```text
//! pstm_top [--top K] [--snapshots N] TRACE.jsonl [TRACE.jsonl ...]
//! pstm_top --phases TRACE.jsonl ...
//! pstm_top --from-recorder FLIGHT.rec [TRACE.jsonl ...]
//! ```
//!
//! `--phases` switches to the phase view: the trace's span-phase times
//! beside its hot objects by blocked time.
//!
//! `--from-recorder` feeds the profiler from a flight-recorder ring file
//! instead of (or alongside) JSONL traces: the file's surviving window is
//! decoded, split back into per-shard record streams, and merged into the
//! same timeline — so the exact tooling that profiles a healthy run also
//! profiles the last seconds before a crash.
//!
//! Live rings profile the same way: snapshot them in-process and call
//! `pstm_bench::profile::profile` on the records — this binary is just
//! the file front door.

use pstm_bench::profile::{merge_records, profile, render, render_phases};
use pstm_obs::{load_jsonl, read_recorder};
use std::process::ExitCode;

const USAGE: &str = "usage: pstm_top [--top K] [--snapshots N] [--phases] \
                     [--from-recorder FLIGHT.rec] [TRACE.jsonl ...]";

fn main() -> ExitCode {
    let mut top_k = 10usize;
    let mut n_snapshots = 4usize;
    let mut phases_view = false;
    let mut recorder_files = Vec::new();
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
            "--from-recorder" => match args.next() {
                Some(f) => recorder_files.push(f),
                None => {
                    eprintln!("--from-recorder needs a file\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() && recorder_files.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut shards = Vec::new();
    for file in &recorder_files {
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
                if replay.gaps > 0 {
                    eprintln!(
                        "{file}: {} record(s) wrapped away — window is a suffix",
                        replay.gaps
                    );
                }
            }
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for file in &files {
        match load_jsonl(file) {
            Ok(records) => {
                eprintln!("{file}: {} record(s)", records.len());
                shards.push(records);
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
