//! `--all`: every workload, each run in a child process of its own (a
//! run keeps the memory it frees; a fresh process is what makes the next
//! run's RSS and allocator start equal), then the aggregate in
//! `results/BENCH_e2e.json`.

use crate::gen::Workload;
use crate::measure::{iqr_spread, median};
use crate::report::END_TO_END;
use crate::RunArgs;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

pub struct Plan {
    pub all: bool,
    /// Also make the traced run of every workload.
    pub traced: bool,
    /// Runs per workload, each with the next seed.
    pub repeat: u64,
    /// Exit non-zero if an end-to-end metric's spread over the repeats
    /// exceeds its bound.
    pub agree: bool,
}

struct ChildRun {
    workload: Workload,
    seed: u64,
    trace: bool,
    /// `(metric, value)` from the child's `workload metric value unit` lines.
    values: Vec<(String, f64)>,
    notes: Vec<(String, String)>,
    /// The child's last line: the JSON result.
    json: String,
}

fn run_child(w: Workload, args: &RunArgs, seed: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    // The child carries its own watchdog, so waiting here is bounded.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!(
            "{} (seed {seed}, trace {}) exited with {}",
            w.name(),
            u8::from(trace),
            out.status
        ));
    }
    let mut run = ChildRun {
        workload: w,
        seed,
        trace,
        values: Vec::new(),
        notes: Vec::new(),
        json: String::new(),
    };
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [name, metric, value, _unit] if *name == w.name() => {
                let value = value.parse().map_err(|_| format!("unreadable line: {line}"))?;
                run.values.push(((*metric).to_string(), value));
            }
            ["#", name, key, rest @ ..] if *name == w.name() => {
                run.notes.push(((*key).to_string(), rest.join(" ")));
            }
            _ if line.starts_with('{') => run.json = line.to_string(),
            _ => {}
        }
    }
    if run.json.is_empty() {
        return Err(format!("{} printed no result", w.name()));
    }
    Ok(run)
}

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    String::from_utf8_lossy(&out.stdout).lines().next().map(str::to_string)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_results(
    plan: &Plan,
    args: &RunArgs,
    runs: &[ChildRun],
) -> Result<std::path::PathBuf, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unknown = || "unknown".to_string();
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\n  \"schema\": \"pstm-bench-e2e/v1\",\n  \"box\": {{\"nproc\": {nproc}, \"cpu\": \"{}\", \
         \"mem_total\": \"{}\", \"rustc\": \"{}\"}},\n  \"shape\": {{\"shards\": {}, \
         \"reactor_workers\": {}, \"apply_latency_us\": 0}},\n  \"seconds\": {}, \"quick\": {}, \
         \"repeat\": {}, \"runs\": [\n",
        escape(&proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        escape(&proc_field("/proc/meminfo", "MemTotal").unwrap_or_else(unknown)),
        escape(&first_line(Command::new("rustc").arg("--version")).unwrap_or_else(unknown)),
        crate::system::SHARDS,
        crate::system::REACTOR_WORKERS,
        args.seconds,
        args.quick,
        plan.repeat,
    );
    for (k, run) in runs.iter().enumerate() {
        let notes: Vec<String> = run
            .notes
            .iter()
            .map(|(key, v)| format!("\"{}\": \"{}\"", escape(key), escape(v)))
            .collect();
        let _ = writeln!(
            doc,
            "    {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"notes\": {{{}}}, \"result\": {}}}{}",
            run.workload.name(),
            run.seed,
            u8::from(run.trace),
            notes.join(", "),
            run.json,
            if k + 1 == runs.len() { "" } else { "," }
        );
    }
    doc.push_str("  ]\n}\n");
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| format!("results/: {e}"))?;
    let path = dir.join("BENCH_e2e.json");
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Min, median, max and spread of every end-to-end metric over the
/// repeats; `false` if a spread exceeds its metric's bound.
fn agreement(runs: &[ChildRun]) -> bool {
    let mut agreed = true;
    println!("\nworkload metric better min median max spread bound");
    for w in Workload::ALL {
        for def in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter(|r| r.workload == w && !r.trace)
                .filter_map(|r| r.values.iter().find(|(name, _)| name == def.name).map(|(_, v)| *v))
                .collect();
            if values.len() < 2 {
                continue;
            }
            let spread = iqr_spread(&values);
            let (min, max) =
                values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let within = spread <= def.bound;
            agreed &= within;
            println!(
                "{} {} {} {min} {} {max} {spread:.4} {}{}",
                w.name(),
                def.name,
                if def.higher_is_better { "higher" } else { "lower" },
                median(&values),
                def.bound,
                if within { "" } else { "  <-- spread exceeds the bound" }
            );
        }
    }
    agreed
}

pub fn run(plan: &Plan, args: &RunArgs) -> ExitCode {
    let mut runs = Vec::new();
    for rep in 0..plan.repeat {
        for w in Workload::ALL {
            for trace in [false, true] {
                if trace && !plan.traced {
                    continue;
                }
                match run_child(w, args, args.seed + rep, trace) {
                    Ok(run) => runs.push(run),
                    Err(e) => {
                        eprintln!("bench_e2e: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    match write_results(plan, args, &runs) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::FAILURE;
        }
    }
    let agreed = plan.repeat < 2 || agreement(&runs);
    // `--quick` windows are too short to hold the bounds.
    if plan.agree && !args.quick && !agreed {
        eprintln!("bench_e2e: the repeats do not agree within the benchmark's bounds");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
