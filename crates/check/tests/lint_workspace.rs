//! The lint gate: the real workspace must scan clean under the checked-in
//! allowlist, and the scanner must still *detect* each violation class
//! when shown deliberately bad source.

use pstm_check::{run_lint, Allowlist, Rule};
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

#[test]
fn workspace_lints_clean() {
    let report = run_lint(&workspace_root()).expect("lint run");
    assert!(report.files_scanned > 20, "scanned only {} files", report.files_scanned);
    assert!(
        report.is_clean(),
        "workspace has lint violations (fix them or update pstm-check.allow):\n{}",
        report.render()
    );
}

#[test]
fn allowlist_parses_and_has_no_wildcard_entries() {
    let text = fs::read_to_string(workspace_root().join("pstm-check.allow")).expect("allow file");
    let allow = Allowlist::parse(&text).expect("allowlist parses");
    // Staleness is already covered by workspace_lints_clean (stale
    // entries surface as violations); here, pin that every entry is
    // function-scoped — whole-file waivers hide future regressions.
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        assert!(
            line.contains("::"),
            "allowlist entry must be function-scoped, found whole-file waiver: {line}"
        );
    }
    drop(allow);
}

/// Writes a throwaway mini-workspace and asserts the scanner fires each
/// rule on source that deserves it.
#[test]
fn scanner_detects_each_violation_class() {
    let dir = std::env::temp_dir().join(format!("pstm-check-selftest-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    // wall-clock scope: any .rs outside the seam.
    let wall = "fn f() { let t = std::time::Instant::now(); }\n";
    write(&dir.join("crates/demo/src/lib.rs"), wall);

    // no-panic scope: core commit path.
    let panic_src = "pub fn commit_finish(x: Option<u32>) -> u32 { x.unwrap() }\n";
    write(&dir.join("crates/core/src/gtm.rs"), panic_src);

    let report = run_lint(&dir).expect("lint run over synthetic tree");
    let fired: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
    assert!(fired.contains(&Rule::WallClock), "wall-clock missed:\n{}", report.render());
    assert!(
        fired.contains(&Rule::NoPanicCommitPath),
        "no-panic-commit-path missed:\n{}",
        report.render()
    );

    // Violations attribute to the function that contains them.
    let commit = report
        .violations
        .iter()
        .find(|v| v.rule == Rule::NoPanicCommitPath)
        .expect("panic violation");
    assert_eq!(commit.func.as_deref(), Some("commit_finish"));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_allowlist_entries_are_violations() {
    let dir = std::env::temp_dir().join(format!("pstm-check-stale-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    write(&dir.join("crates/demo/src/lib.rs"), "pub fn ok() {}\n");
    write(&dir.join("pstm-check.allow"), "wal-seam crates/storage/src/wal.rs::no_such_fn\n");
    let report = run_lint(&dir).expect("lint run");
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert_eq!(report.violations[0].rule, Rule::StaleAllowlist);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cfg_test_code_is_exempt_from_panic_rule() {
    let dir = std::env::temp_dir().join(format!("pstm-check-cfgtest-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let src = "pub fn commit_finish() {}\n\
               #[cfg(test)]\n\
               mod tests {\n    \
                   #[test]\n    \
                   fn t() { Some(1).unwrap(); }\n\
               }\n";
    write(&dir.join("crates/core/src/sst.rs"), src);
    let report = run_lint(&dir).expect("lint run");
    assert!(report.is_clean(), "test-module code flagged:\n{}", report.render());
    let _ = fs::remove_dir_all(&dir);
}

/// A CHANGES.md entry is a `- PR` line and the indented lines under it:
/// at most 15 lines, none over 170 characters. Git keeps the rest.
#[test]
fn changes_entries_stay_short() {
    let text = fs::read_to_string(workspace_root().join("CHANGES.md")).expect("CHANGES.md");
    let mut entry: Option<(&str, usize)> = None;
    for line in text.lines() {
        if line.starts_with("- PR") {
            entry = Some((line, 0));
        } else if !line.starts_with("  ") {
            entry = None;
        }
        let Some((head, lines)) = entry.as_mut() else { continue };
        *lines += 1;
        let head = head.get(..40).unwrap_or(head);
        assert!(*lines <= 15, "CHANGES entry `{head}…` runs over 15 lines");
        let chars = line.chars().count();
        assert!(chars <= 170, "CHANGES entry `{head}…` has a {chars}-character line");
    }
}

/// README, EXPERIMENTS, CHANGES and DESIGN together stay within 180 KB
/// (180 000 bytes): prose that grows past it has to be folded first.
#[test]
fn prose_stays_within_budget() {
    const BUDGET: u64 = 180_000;
    let sizes: Vec<(&str, u64)> = ["README.md", "EXPERIMENTS.md", "CHANGES.md", "DESIGN.md"]
        .into_iter()
        .map(|doc| (doc, fs::metadata(workspace_root().join(doc)).expect(doc).len()))
        .collect();
    let total: u64 = sizes.iter().map(|(_, bytes)| bytes).sum();
    assert!(total <= BUDGET, "prose is {total} B, over the {BUDGET} B budget: {sizes:?}");
}

fn write(path: &Path, content: &str) {
    fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    fs::write(path, content).expect("write");
}
