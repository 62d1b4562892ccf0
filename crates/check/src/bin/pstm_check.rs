//! `pstm_check` — command-line front end for the pstm-check analyses.
//!
//! ```text
//! pstm_check lint [--root DIR] [--dot FILE]
//!                                  # every source rule from one parse; DOT of the lock order
//! pstm_check verify FILE.rec...    # certify one run's recorded trace stream(s)
//! pstm_check table                 # Table I small-scope commutativity proof
//! pstm_check all [--root DIR]      # lint + table (verify needs traces)
//! ```
//!
//! Exit status is 0 when every requested analysis passes, 1 otherwise
//! (with the violation report, offending cycle, or table drift printed
//! to stderr), 2 on usage errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pstm_check::{check_table, run_lint, verify_trace_files, Verdict};

fn usage() -> ExitCode {
    eprintln!(
        "usage: pstm_check <lint [--root DIR] [--dot FILE] | verify FILE... | table | \
         all [--root DIR]>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "lint" => match parse_args(&args[1..]) {
            Some((root, dot)) => run_lint_cmd(&root, dot.as_deref()),
            None => usage(),
        },
        "verify" => {
            if args.len() < 2 {
                eprintln!("verify: need at least one recorder trace file");
                return ExitCode::from(2);
            }
            let files: Vec<PathBuf> = args[1..].iter().map(PathBuf::from).collect();
            run_verify_cmd(&files)
        }
        "table" => run_table_cmd(),
        "all" => match parse_args(&args[1..]) {
            Some((root, None)) => {
                let lint = run_lint_cmd(&root, None);
                let table = run_table_cmd();
                if lint == ExitCode::SUCCESS && table == ExitCode::SUCCESS {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            _ => usage(),
        },
        _ => usage(),
    }
}

/// Parses `[--root DIR] [--dot FILE]` in either order; the root defaults
/// to the workspace root inferred from this binary's manifest.
fn parse_args(rest: &[String]) -> Option<(PathBuf, Option<PathBuf>)> {
    let mut root = None;
    let mut dot = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--root" if root.is_none() => root = Some(PathBuf::from(value)),
            "--dot" if dot.is_none() => dot = Some(PathBuf::from(value)),
            _ => return None,
        }
    }
    Some((root.unwrap_or_else(default_root), dot))
}

fn default_root() -> PathBuf {
    // crates/check -> workspace root; falls back to cwd when the binary
    // is run outside cargo.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn run_lint_cmd(root: &Path, dot: Option<&Path>) -> ExitCode {
    let report = match run_lint(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pstm_check lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = dot {
        if let Err(e) = std::fs::write(path, report.dot()) {
            eprintln!("pstm_check lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("pstm_check lint: DOT written to {}", path.display());
    }
    if report.is_clean() {
        println!(
            "pstm_check lint: clean ({} files, {} fns; {} lock classes, {} edges, {} flush \
             points; root {})",
            report.files_scanned,
            report.fns_scanned,
            report.classes.len(),
            report.edges.len(),
            report.flush_points.len(),
            root.display()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("{}", report.render());
        eprintln!(
            "pstm_check lint: {} violation(s). Fix them or add an entry to pstm-check.allow.",
            report.violations.len()
        );
        ExitCode::FAILURE
    }
}

fn run_verify_cmd(files: &[PathBuf]) -> ExitCode {
    match verify_trace_files(files) {
        Ok(Verdict::Serializable(cert)) => {
            println!("{cert}");
            ExitCode::SUCCESS
        }
        Ok(Verdict::NotSerializable(cycle)) => {
            eprintln!("{cycle}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("pstm_check verify: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_table_cmd() -> ExitCode {
    match check_table() {
        Ok(report) => {
            print!("{}", report.render());
            println!("pstm_check table: all 36 entries match types/compat.rs");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pstm_check table: FAILED\n{e}");
            ExitCode::FAILURE
        }
    }
}
