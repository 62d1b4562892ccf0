//! Source-level invariant lints.
//!
//! A self-contained scanner (no external parser) over the workspace
//! source enforcing four review rules the compiler cannot:
//!
//! - **`wall-clock`** — the identifiers `Instant` and `SystemTime` may
//!   appear only in `pstm-obs`'s wall-clock seam — the epoch bridge
//!   (`crates/obs/src/wallclock.rs`) and the commit-path phase profiler
//!   (`crates/obs/src/prof.rs`, the `PhaseTimer` seam) — and the offline
//!   shims. Everything else runs on virtual time; a stray wall-clock
//!   read silently breaks trace replay determinism. On top of the
//!   identifier ban, the commit-path crates (`pstm-core`,
//!   `pstm-storage`, `pstm-front`) may not call the seam's raw timing
//!   helpers (`WallEpoch::now`, `wallclock::wall_now_us`) directly:
//!   stations time themselves through `PhaseTimer` / span plumbing
//!   only, so ad-hoc timing cannot creep back into commit stations. The
//!   reviewed pre-existing sites are grandfathered in
//!   `pstm-check.allow`.
//! - **`no-panic-commit-path`** — `.unwrap()` / `.expect(` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` are banned in the
//!   commit/reconcile/SST sources of `pstm-core` and in all of
//!   `pstm-front`. A panic mid-commit poisons a shard mutex and strands
//!   peers in `Committing`; these paths must propagate `PstmError`
//!   instead. (`assert!` remains legal: it states an invariant and
//!   documents its panic.)
//! - **`wal-seam`** — inside `crates/storage/src/wal.rs`, the log
//!   buffer may be mutated only by `flush_staged` (the one durable-write
//!   path, which consults the `FaultHook` seam; `append`, `append_batch`
//!   and the engine's commit path all write through it) and the named
//!   recovery/chaos helpers. A new function that grows the log without
//!   passing through `flush_staged` would silently escape fault
//!   injection — and the chaos suite's crash-recovery guarantees with it.
//! - **`recorder-seam`** — the flight recorder's raw file plumbing (the
//!   positional open-for-write and data-sync calls) may appear only in
//!   `crates/obs/src/recorder.rs`. Every other crate talks to the
//!   recorder through `Recorder`/`RecorderSink`, so the single device
//!   implementation is the one place torn-tail semantics, write-through
//!   durability and drop accounting are decided. This rule ships with
//!   **zero** allowlist entries — nothing is grandfathered.
//!
//! Scanning is line-based: `//` comments are stripped (string-literal
//! aware), `#[cfg(test)]` items are skipped by brace counting, and each
//! flagged line is attributed to the nearest preceding `fn` header.
//! Violations are suppressed only by an explicit entry in the allowlist
//! file (`pstm-check.allow` at the workspace root); entries that no
//! longer match anything are themselves reported as stale, so the file
//! can only shrink truthfully.
//!
//! The report is sorted line-oriented text — one violation per line —
//! so CI failures diff cleanly against the previous run.

use std::fmt;
use std::path::{Path, PathBuf};

/// The identifier ban list for the `wall-clock` rule. Built with
/// `concat!` so this file never contains the banned tokens itself.
const WALL_CLOCK_IDENTS: [&str; 2] = [concat!("Inst", "ant"), concat!("System", "Time")];

/// The wall-clock seam: the only files allowed to touch the raw clock
/// identifiers — the epoch bridge and the `PhaseTimer` phase profiler.
const WALL_CLOCK_SEAM_FILES: [&str; 2] = ["crates/obs/src/wallclock.rs", "crates/obs/src/prof.rs"];

/// Raw timing calls banned in the commit-path crates: even the
/// sanctioned seam helpers may not be called ad hoc from commit
/// stations — phase timing goes through `PhaseTimer`, span wall stamps
/// through the span plumbing. Violations fall under `wall-clock`.
const COMMIT_PATH_TIMING_TOKENS: [&str; 2] =
    [concat!("WallEpoch::", "now"), concat!("wallclock::", "wall_now_us")];

/// Crates whose sources the commit-path timing-token ban applies to.
const COMMIT_PATH_TIMING_CRATES: [&str; 3] =
    ["crates/core/src/", "crates/storage/src/", "crates/front/src/"];

/// Banned calls for `no-panic-commit-path`.
const PANIC_TOKENS: [&str; 6] = [
    concat!(".unw", "rap()"),
    concat!(".exp", "ect("),
    concat!("pa", "nic!"),
    concat!("unre", "achable!"),
    concat!("to", "do!"),
    concat!("unimpl", "emented!"),
];

/// Files inside `crates/core/src` subject to `no-panic-commit-path`:
/// the grant/commit/reconcile/SST/history state machines and the commit
/// coordinator.
const CORE_COMMIT_PATH_FILES: [&str; 6] =
    ["gtm.rs", "commit.rs", "reconcile.rs", "sst.rs", "history.rs", "state.rs"];

/// The flight-recorder seam: the only file allowed to touch the raw
/// recorder file plumbing below.
const RECORDER_SEAM_FILE: &str = "crates/obs/src/recorder.rs";

/// Raw file-device tokens confined to the recorder seam: the
/// open-for-write entry point and the data-sync call. Built with
/// `concat!` so this file never contains the banned tokens itself.
const RECORDER_IO_TOKENS: [&str; 2] = [concat!("Open", "Options"), concat!("sync", "_data")];

/// The file the `wal-seam` rule applies to.
const WAL_SEAM_FILE: &str = "crates/storage/src/wal.rs";

/// Mutating accesses to the WAL's log buffer — the `wal-seam` rule flags
/// any of these outside the sanctioned functions.
const WAL_BUF_MUTATORS: [&str; 7] = [
    "self.buf.extend",
    "self.buf.push",
    "self.buf.truncate",
    "self.buf.drain",
    "self.buf.insert",
    "self.buf.clear",
    "self.buf.get_mut",
];

/// Functions allowed to mutate the log buffer: `flush_staged` is the
/// hooked durable-write seam, `forget` drops the log a checkpoint image
/// covers; the rest shrink or corrupt the device (recovery / chaos
/// helpers). None adds records past the seam.
const WAL_SEAM_FNS: [&str; 5] =
    ["flush_staged", "forget", "crash_truncate", "corrupt_byte_with", "trim_torn_tail"];

/// One of the lint rules (plus the synthetic rule flagging stale
/// allowlist entries).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock identifier outside the sanctioned seam.
    WallClock,
    /// Panicking call on a commit/reconcile/SST path.
    NoPanicCommitPath,
    /// WAL buffer mutation outside the hooked `append` seam.
    WalSeam,
    /// Recorder file I/O outside `crates/obs/src/recorder.rs`.
    RecorderSeam,
    /// An allowlist entry that matched nothing.
    StaleAllowlist,
}

impl Rule {
    /// Stable rule name, as used in the allowlist file and the report.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::NoPanicCommitPath => "no-panic-commit-path",
            Rule::WalSeam => "wal-seam",
            Rule::RecorderSeam => "recorder-seam",
            Rule::StaleAllowlist => "stale-allowlist",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Nearest preceding function name, when one was seen.
    pub func: Option<String>,
    /// The offending line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\t{}:{}", self.rule, self.file, self.line)?;
        if let Some(func) = &self.func {
            write!(f, "\tfn {func}")?;
        }
        write!(f, "\t{}", self.snippet)
    }
}

/// Parsed allowlist: `rule path` or `rule path::function` per line,
/// `#` comments. An entry suppresses every match of `rule` in `path`
/// (optionally narrowed to one function); unused entries are reported.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

#[derive(Clone, Debug)]
struct AllowEntry {
    rule: String,
    path: String,
    func: Option<String>,
    line: usize,
    used: bool,
}

impl Allowlist {
    /// Parses the allowlist format. Unknown words per line are an error
    /// kept as a violation-free panic-free result: malformed lines are
    /// returned in `Err` with their line numbers.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let (Some(rule), Some(target), None) = (words.next(), words.next(), words.next())
            else {
                return Err(format!("allowlist line {}: expected `<rule> <path[::fn]>`", i + 1));
            };
            let (path, func) = match target.split_once("::") {
                Some((p, f)) => (p.to_string(), Some(f.to_string())),
                None => (target.to_string(), None),
            };
            entries.push(AllowEntry {
                rule: rule.to_string(),
                path,
                func,
                line: i + 1,
                used: false,
            });
        }
        Ok(Allowlist { entries })
    }

    /// Loads `<root>/pstm-check.allow`, treating a missing file as an
    /// empty allowlist.
    pub fn load(root: &Path) -> Result<Allowlist, String> {
        match std::fs::read_to_string(root.join("pstm-check.allow")) {
            Ok(text) => Allowlist::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Allowlist::default()),
            Err(e) => Err(format!("pstm-check.allow: {e}")),
        }
    }

    /// True (and marks the entry used) if some entry covers the finding.
    fn allows(&mut self, rule: Rule, file: &str, func: Option<&str>) -> bool {
        self.allows_name(rule.name(), file, func)
    }

    /// `Self::allows` keyed by rule name — the lockgraph analyzer owns
    /// rules outside the [`Rule`] enum but shares this allowlist file.
    pub fn allows_name(&mut self, rule: &str, file: &str, func: Option<&str>) -> bool {
        let mut hit = false;
        for e in &mut self.entries {
            if e.rule == rule && e.path == file && e.func.as_deref().is_none_or(|f| Some(f) == func)
            {
                e.used = true;
                hit = true;
            }
        }
        hit
    }

    /// Unused entries belonging to `rules`, as `(allowlist line, entry
    /// text)` — the lockgraph run reports staleness for its own rules so
    /// new-rule sections start empty-enforced.
    #[must_use]
    pub fn stale_in(&self, rules: &[&str]) -> Vec<(usize, String)> {
        self.entries
            .iter()
            .filter(|e| !e.used && rules.contains(&e.rule.as_str()))
            .map(|e| {
                (
                    e.line,
                    format!(
                        "{} {}{}",
                        e.rule,
                        e.path,
                        e.func.as_deref().map(|f| format!("::{f}")).unwrap_or_default()
                    ),
                )
            })
            .collect()
    }

    fn stale(&self) -> impl Iterator<Item = Violation> + '_ {
        // Rules owned by the lockgraph analyzer run their own stale pass
        // (`stale_in`); double-reporting them here would make every
        // lockgraph allowlist entry fail the plain lint.
        self.entries
            .iter()
            .filter(|e| !crate::lockgraph::RULE_NAMES.contains(&e.rule.as_str()))
            .filter(|e| !e.used)
            .map(|e| Violation {
                rule: Rule::StaleAllowlist,
                file: "pstm-check.allow".to_string(),
                line: e.line,
                func: None,
                snippet: format!(
                    "{} {}{} matches nothing — remove it",
                    e.rule,
                    e.path,
                    e.func.as_deref().map(|f| format!("::{f}")).unwrap_or_default()
                ),
            })
    }
}

/// The outcome of a lint run.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// All findings, sorted by `(file, line, rule)`.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when nothing fired (stale allowlist entries included).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The diff-friendly report: one sorted line per violation, plus a
    /// one-line footer.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "pstm-check lint: {} violation(s) in {} file(s) scanned\n",
            self.violations.len(),
            self.files_scanned
        ));
        out
    }
}

/// Runs every lint over the workspace rooted at `root`, loading the
/// allowlist from `<root>/pstm-check.allow`.
pub fn run_lint(root: &Path) -> Result<LintReport, String> {
    let allowlist = Allowlist::load(root)?;
    run_lint_with(root, allowlist)
}

/// [`run_lint`] with a caller-supplied allowlist (tests).
pub fn run_lint_with(root: &Path, mut allowlist: Allowlist) -> Result<LintReport, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut violations = Vec::new();
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("{}: {e}", rel.display()))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        scan_file(&rel, &text, &mut allowlist, &mut violations);
    }
    violations.extend(allowlist.stale());
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(LintReport { violations, files_scanned: files.len() })
}

/// Recursively collects workspace `.rs` files, skipping build output,
/// VCS internals, and the offline shims (third-party API stand-ins are
/// not ours to lint).
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "results" {
                continue;
            }
            if name == "shims" && path.parent().is_some_and(|p| p.ends_with("crates")) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

/// Rule scopes for one file.
struct Scope {
    wall_clock: bool,
    /// Commit-path timing-token ban (reported under `wall-clock`).
    timing: bool,
    no_panic: bool,
    wal_seam: bool,
    recorder_seam: bool,
}

fn scope_of(file: &str) -> Scope {
    let wall_clock = !WALL_CLOCK_SEAM_FILES.contains(&file);
    let timing = COMMIT_PATH_TIMING_CRATES.iter().any(|c| file.starts_with(c));
    let no_panic =
        file.strip_prefix("crates/core/src/").is_some_and(|f| CORE_COMMIT_PATH_FILES.contains(&f))
            || file.starts_with("crates/front/src/");
    let wal_seam = file == WAL_SEAM_FILE;
    let recorder_seam = file != RECORDER_SEAM_FILE;
    Scope { wall_clock, timing, no_panic, wal_seam, recorder_seam }
}

fn scan_file(file: &str, text: &str, allow: &mut Allowlist, out: &mut Vec<Violation>) {
    let scope = scope_of(file);
    if !scope.wall_clock
        && !scope.timing
        && !scope.no_panic
        && !scope.wal_seam
        && !scope.recorder_seam
    {
        return;
    }
    let mut current_fn: Option<String> = None;
    // Brace-counted skip of a `#[cfg(test)]` item (depth), and the
    // armed state between the attribute and the item it decorates.
    let mut skip_depth: Option<i64> = None;
    let mut cfg_test_armed = false;

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let code = strip_line_comment(raw);
        let trimmed = code.trim();

        if let Some(depth) = skip_depth {
            let depth = depth + brace_delta(code);
            skip_depth = if depth > 0 { Some(depth) } else { None };
            continue;
        }
        if is_cfg_test_attr(trimmed) {
            cfg_test_armed = true;
            continue;
        }
        if cfg_test_armed {
            if trimmed.starts_with("#[") || trimmed.is_empty() {
                continue; // further attributes / blank before the item
            }
            cfg_test_armed = false;
            let depth = brace_delta(code);
            if depth > 0 {
                skip_depth = Some(depth);
            }
            continue; // the decorated item's first line is test code too
        }

        if let Some(name) = fn_header_name(trimmed) {
            current_fn = Some(name);
        }

        if scope.wall_clock {
            for ident in WALL_CLOCK_IDENTS {
                if contains_word(code, ident)
                    && !allow.allows(Rule::WallClock, file, current_fn.as_deref())
                {
                    out.push(violation(Rule::WallClock, file, line_no, &current_fn, raw));
                    break;
                }
            }
        }
        if scope.timing {
            for token in COMMIT_PATH_TIMING_TOKENS {
                if code.contains(token)
                    && !allow.allows(Rule::WallClock, file, current_fn.as_deref())
                {
                    out.push(violation(Rule::WallClock, file, line_no, &current_fn, raw));
                    break;
                }
            }
        }
        if scope.no_panic {
            for token in PANIC_TOKENS {
                if code.contains(token)
                    && !allow.allows(Rule::NoPanicCommitPath, file, current_fn.as_deref())
                {
                    out.push(violation(Rule::NoPanicCommitPath, file, line_no, &current_fn, raw));
                    break;
                }
            }
        }
        if scope.wal_seam {
            for token in WAL_BUF_MUTATORS {
                if code.contains(token)
                    && !current_fn.as_deref().is_some_and(|f| WAL_SEAM_FNS.contains(&f))
                    && !allow.allows(Rule::WalSeam, file, current_fn.as_deref())
                {
                    out.push(violation(Rule::WalSeam, file, line_no, &current_fn, raw));
                    break;
                }
            }
        }
        if scope.recorder_seam {
            for token in RECORDER_IO_TOKENS {
                if code.contains(token)
                    && !allow.allows(Rule::RecorderSeam, file, current_fn.as_deref())
                {
                    out.push(violation(Rule::RecorderSeam, file, line_no, &current_fn, raw));
                    break;
                }
            }
        }
    }
}

fn violation(rule: Rule, file: &str, line: usize, func: &Option<String>, raw: &str) -> Violation {
    Violation {
        rule,
        file: file.to_string(),
        line,
        func: func.clone(),
        snippet: raw.trim().to_string(),
    }
}

/// Strips a trailing `//` comment, ignoring `//` inside string literals.
fn strip_line_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1, // skip the escaped byte
            b'"' => in_string = !in_string,
            b'/' if !in_string && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// Net `{`/`}` balance of a line (string-literal aware, same caveats).
fn brace_delta(code: &str) -> i64 {
    let bytes = code.as_bytes();
    let mut delta = 0i64;
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            b'"' => in_string = !in_string,
            b'{' if !in_string => delta += 1,
            b'}' if !in_string => delta -= 1,
            _ => {}
        }
        i += 1;
    }
    delta
}

/// True for `#[cfg(test)]`-style attributes (`cfg(...)` whose argument
/// list contains the word `test`); `cfg_attr` does not match.
fn is_cfg_test_attr(trimmed: &str) -> bool {
    trimmed.strip_prefix("#[cfg(").is_some_and(|rest| contains_word(rest, "test"))
}

/// Extracts the name from a `fn name(...)` header on this line, if any.
fn fn_header_name(trimmed: &str) -> Option<String> {
    let idx = find_word(trimmed, "fn")?;
    let rest = trimmed[idx + 2..].trim_start();
    let end = rest.find(|c: char| !c.is_alphanumeric() && c != '_')?;
    let name = &rest[..end];
    if name.is_empty() {
        None
    } else {
        Some(name.to_string())
    }
}

/// Whole-word containment: `needle` bounded by non-identifier chars.
fn contains_word(haystack: &str, needle: &str) -> bool {
    find_word(haystack, needle).is_some()
}

fn find_word(haystack: &str, needle: &str) -> Option<usize> {
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let bytes = haystack.as_bytes();
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle).map(|p| p + from) {
        let before_ok = pos == 0 || !is_ident(bytes[pos - 1]);
        let end = pos + needle.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return Some(pos);
        }
        from = pos + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comment_stripper_respects_strings() {
        assert_eq!(strip_line_comment("let x = 1; // done"), "let x = 1; ");
        assert_eq!(strip_line_comment(r#"let u = "https://x"; y"#), r#"let u = "https://x"; y"#);
        assert_eq!(strip_line_comment("/// doc"), "");
    }

    #[test]
    fn word_bounds() {
        assert!(contains_word("use std::time::Foo;", "Foo"));
        assert!(!contains_word("FooBar", "Foo"));
        assert!(!contains_word("a_Foo", "Foo"));
    }

    #[test]
    fn fn_headers() {
        assert_eq!(fn_header_name("pub fn commit(&mut self) {").as_deref(), Some("commit"));
        assert_eq!(fn_header_name("fn generic<T>(t: T) {").as_deref(), Some("generic"));
        assert_eq!(fn_header_name("let fnord = 1;"), None);
    }

    #[test]
    fn allowlist_roundtrip() {
        let a = Allowlist::parse(
            "# comment\nwal-seam crates/storage/src/wal.rs::append_raw\nwall-clock a.rs\n",
        )
        .expect("parses");
        assert_eq!(a.entries.len(), 2);
        assert!(Allowlist::parse("one-word-only\n").is_err());
    }

    #[test]
    fn timing_tokens_banned_on_commit_path_crates() {
        let src = "fn commit_finish() { let w = WallEpoch::now(); }\n\
                   fn stamp() { let u = pstm_obs::wallclock::wall_now_us(); }\n";
        let mut allow = Allowlist::default();
        let mut out = Vec::new();
        scan_file("crates/core/src/gtm.rs", src, &mut allow, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|v| v.rule == Rule::WallClock), "{out:?}");

        // Outside the commit-path crates the same calls are legal.
        let mut bench = Vec::new();
        scan_file("crates/bench/src/lib.rs", src, &mut allow, &mut bench);
        assert!(bench.is_empty(), "{bench:?}");

        // Grandfathered sites are suppressed per-function.
        let mut allow =
            Allowlist::parse("wall-clock crates/core/src/gtm.rs::commit_finish\n").expect("parses");
        let mut out = Vec::new();
        scan_file("crates/core/src/gtm.rs", src, &mut allow, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].func.as_deref(), Some("stamp"));
    }

    #[test]
    fn wall_clock_seam_files_are_exempt() {
        // Built with `concat!` so this file still never contains the
        // banned identifier itself.
        let src = concat!("fn start() { let now = Inst", "ant::now(); }\n");
        let mut allow = Allowlist::default();
        let mut out = Vec::new();
        scan_file("crates/obs/src/prof.rs", src, &mut allow, &mut out);
        scan_file("crates/obs/src/wallclock.rs", src, &mut allow, &mut out);
        assert!(out.is_empty(), "seam files must be exempt: {out:?}");
        scan_file("crates/obs/src/hist.rs", src, &mut allow, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, Rule::WallClock);
    }

    #[test]
    fn wal_seam_flags_mutations_outside_sanctioned_fns() {
        let src = "impl Wal {\n\
                       fn flush_staged(&mut self) { self.buf.extend_from_slice(&f); }\n\
                       pub fn trim_torn_tail(&mut self) { self.buf.truncate(pos); }\n\
                       pub fn append_raw(&mut self) { self.buf.extend_from_slice(&f); }\n\
                   }\n";
        let mut allow = Allowlist::default();
        let mut out = Vec::new();
        scan_file(WAL_SEAM_FILE, src, &mut allow, &mut out);
        // Only the unsanctioned append_raw fires; and only in wal.rs.
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, Rule::WalSeam);
        assert_eq!(out[0].func.as_deref(), Some("append_raw"));

        let mut elsewhere = Vec::new();
        scan_file("crates/storage/src/engine.rs", src, &mut allow, &mut elsewhere);
        assert!(elsewhere.iter().all(|v| v.rule != Rule::WalSeam), "{elsewhere:?}");
    }

    #[test]
    fn recorder_io_confined_to_the_seam_file() {
        let src = concat!(
            "fn open_rec() { let f = Open",
            "Options::new().write(true); }\n",
            "fn settle(&mut self) { self.file.sync",
            "_data().ok(); }\n"
        );
        let mut allow = Allowlist::default();
        let mut out = Vec::new();
        scan_file(RECORDER_SEAM_FILE, src, &mut allow, &mut out);
        assert!(out.is_empty(), "the seam file itself must be exempt: {out:?}");
        scan_file("crates/storage/src/wal.rs", src, &mut allow, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|v| v.rule == Rule::RecorderSeam), "{out:?}");
        assert_eq!(out[0].func.as_deref(), Some("open_rec"));
        assert_eq!(out[1].func.as_deref(), Some("settle"));
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = concat!(
            "fn live() { x.unw",
            "rap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unw",
            "rap(); }\n}\n"
        );
        let mut allow = Allowlist::default();
        let mut out = Vec::new();
        scan_file("crates/front/src/lib.rs", src, &mut allow, &mut out);
        // Only the live fn fires no-panic; the test mod's hit is skipped.
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].func.as_deref(), Some("live"));
    }
}
