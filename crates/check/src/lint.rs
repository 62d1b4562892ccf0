//! The source analyzer: every `pstm-check` source rule, run from one
//! parse of the workspace ([`crate::syntax`]) into one report.
//!
//! | rule | kind | enforces |
//! |------|------|----------|
//! | `wall-clock` | pattern | `Instant` / `SystemTime` only in `pstm-obs`'s wall-clock seam; commit-path crates do not call its raw timing helpers |
//! | `no-panic-commit-path` | pattern | no `.unwrap()` / `.expect(` / `panic!`-family macro on the commit, reconcile and SST paths |
//! | `wal-seam` | pattern | the WAL's log buffer grows only through `Wal::flush_staged` |
//! | `recorder-seam` | pattern | raw recorder file I/O only in `crates/obs/src/recorder.rs` |
//! | `fault-seam` | pattern | a fault hook is asked only in the engine's seam |
//! | `lock-order-graph` | structural | the lock-order graph is acyclic and descends the declared levels |
//! | `multi-shard-path` | structural | a second shard mutex only inside `lock_shards_ascending` |
//! | `hold-across-flush` | structural | no shard guard live across a flush point |
//! | `atomics-relaxed` | structural | `Ordering::Relaxed` only in declared, justified seams |
//! | `blocking-context` | structural | nothing reachable from an `event-loop` fn blocks |
//!
//! The pattern rules, in detail:
//!
//! - **`wall-clock`** — the identifiers `Instant` and `SystemTime` may
//!   appear only in the epoch bridge (`crates/obs/src/wallclock.rs`) and
//!   the phase profiler (`crates/obs/src/prof.rs`, the `PhaseTimer`
//!   seam). Everything else runs on virtual time; a stray wall-clock read
//!   silently breaks trace replay determinism. The commit-path crates
//!   (`pstm-core`, `pstm-storage`, `pstm-front`) may not call the seam's
//!   raw timing helpers (`WallEpoch::now`, `wallclock::wall_now_us`)
//!   either: stations time themselves through `PhaseTimer` / span
//!   plumbing only. Integration tests are covered too.
//! - **`no-panic-commit-path`** — the commit/reconcile/SST sources of
//!   `pstm-core` and all of `pstm-front`. A panic mid-commit poisons a
//!   shard mutex and strands peers in `Committing`; these paths must
//!   propagate `PstmError` instead. (`assert!` remains legal: it states
//!   an invariant and documents its panic.)
//! - **`wal-seam`** — inside `crates/storage/src/wal.rs` the log buffer
//!   may be mutated only by `flush_staged` (the one durable-write path,
//!   which asks the engine's fault seam about `wal-append`), `forget`
//!   (the checkpoint) and the recovery/chaos helpers. A function that
//!   grows the log past the seam would escape fault injection, and the
//!   chaos suite's crash-recovery guarantees with it.
//! - **`recorder-seam`** — every other crate talks to the flight recorder
//!   through `Recorder`/`RecorderSink`, so the one device implementation
//!   decides torn-tail semantics, write-through durability and drop
//!   accounting.
//! - **`fault-seam`** — `crates/storage/src/fault.rs` holds the one
//!   installed hook and every labeled site asks the engine; a second
//!   caller of `decide` would be a hook one install does not reach. No
//!   allowlist entry can waive it: one would only ever be reported stale.
//!
//! A pattern rule is a token-sequence predicate over a file's live code
//! ([`SourceFile::code`]): literal contents and comments never match,
//! `#[cfg(test)]` items are already gone, a call split across lines still
//! matches, and a finding names the fn whose item contains it. The
//! structural rules are [`crate::lockgraph`]'s; they skip integration-test
//! files.
//!
//! A violation is suppressed only by an explicit entry in
//! `pstm-check.allow` at the workspace root (`<rule> <path>[::<fn>]`);
//! an entry that matches nothing is itself reported (`stale-allowlist`),
//! so the file can only shrink truthfully. The report is sorted
//! line-oriented text, one violation per line with its witness steps
//! indented below, so CI failures diff cleanly against the previous run.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::rc::Rc;

use crate::lockgraph;
use crate::syntax::{self, SourceFile, Tok, TokKind};

/// A token sequence: each element matches an identifier by its text or a
/// punctuation character by itself.
type Seq = &'static [&'static str];

/// The wall-clock seam: the only files allowed to touch the raw clock
/// identifiers — the epoch bridge and the `PhaseTimer` phase profiler.
const WALL_CLOCK_SEAM_FILES: [&str; 2] = ["crates/obs/src/wallclock.rs", "crates/obs/src/prof.rs"];

const WALL_CLOCK_IDENTS: [Seq; 2] = [&["Instant"], &["SystemTime"]];

/// Raw timing calls banned in the commit-path crates, reported under
/// `wall-clock`.
const COMMIT_PATH_TIMING: [Seq; 2] =
    [&["WallEpoch", ":", ":", "now"], &["wallclock", ":", ":", "wall_now_us"]];

/// Crates whose sources the commit-path timing ban applies to.
const COMMIT_PATH_TIMING_CRATES: [&str; 3] =
    ["crates/core/src/", "crates/storage/src/", "crates/front/src/"];

/// Banned calls for `no-panic-commit-path`.
const PANICS: [Seq; 6] = [
    &[".", "unwrap", "(", ")"],
    &[".", "expect", "("],
    &["panic", "!"],
    &["unreachable", "!"],
    &["todo", "!"],
    &["unimplemented", "!"],
];

/// Files inside `crates/core/src` subject to `no-panic-commit-path`:
/// the grant/commit/reconcile/SST/history state machines and the commit
/// coordinator.
const CORE_COMMIT_PATH_FILES: [&str; 6] =
    ["gtm.rs", "commit.rs", "reconcile.rs", "sst.rs", "history.rs", "state.rs"];

/// The flight-recorder seam and the raw file-device calls confined to
/// it: the open-for-write entry point and the data-sync call.
const RECORDER_SEAM_FILE: &str = "crates/obs/src/recorder.rs";
const RECORDER_IO: [Seq; 2] = [&["OpenOptions"], &["sync_data"]];

/// The fault seam, and a call of `FaultHook::decide`.
const FAULT_SEAM_FILE: &str = "crates/storage/src/fault.rs";
const FAULT_DECIDE: [Seq; 1] = [&[".", "decide", "("]];

/// The file `wal-seam` applies to; a mutation is `self.buf.<m…>` for a
/// method `m…` starting with one of the mutator names.
const WAL_SEAM_FILE: &str = "crates/storage/src/wal.rs";
const WAL_BUF: Seq = &["self", ".", "buf", "."];
const WAL_BUF_MUTATORS: [&str; 7] =
    ["extend", "push", "truncate", "drain", "insert", "clear", "get_mut"];

/// Functions allowed to mutate the log buffer: `flush_staged` is the
/// hooked durable-write seam, `forget` drops the log a checkpoint image
/// covers; the rest shrink or corrupt the device (recovery / chaos
/// helpers). None adds records past the seam.
const WAL_SEAM_FNS: [&str; 5] =
    ["flush_staged", "forget", "crash_truncate", "corrupt_byte_with", "trim_torn_tail"];

/// Every source rule, plus the synthetic rule flagging stale allowlist
/// entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock identifier outside the seam, or a raw timing call in a
    /// commit-path crate.
    WallClock,
    /// Panicking call on a commit/reconcile/SST path.
    NoPanicCommitPath,
    /// WAL buffer mutation outside the hooked seam functions.
    WalSeam,
    /// Recorder file I/O outside `crates/obs/src/recorder.rs`.
    RecorderSeam,
    /// A fault hook asked outside `crates/storage/src/fault.rs`.
    FaultSeam,
    /// Cycle or up-level edge in the lock-order graph.
    OrderGraph,
    /// Shard mutex acquired while a shard guard is live, outside
    /// `lock_shards_ascending`.
    MultiShard,
    /// Shard guard live across a flush-point call.
    HoldAcrossFlush,
    /// `Ordering::Relaxed` outside a declared seam, unjustified in one,
    /// or unpaired Acquire/Release in a seam file.
    Atomics,
    /// Blocking operation reachable from an `event-loop`-tagged fn.
    Blocking,
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
            Rule::FaultSeam => "fault-seam",
            Rule::OrderGraph => "lock-order-graph",
            Rule::MultiShard => "multi-shard-path",
            Rule::HoldAcrossFlush => "hold-across-flush",
            Rule::Atomics => "atomics-relaxed",
            Rule::Blocking => "blocking-context",
            Rule::StaleAllowlist => "stale-allowlist",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, with the witness path that makes it actionable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line (0 for file-level findings).
    pub line: usize,
    /// Enclosing function, when there is one.
    pub func: Option<String>,
    /// One-line description of the defect.
    pub detail: String,
    /// Witness: the acquisition/call chain proving the finding.
    pub path: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\t{}:{}", self.rule, self.file, self.line)?;
        if let Some(func) = &self.func {
            write!(f, "\tfn {func}")?;
        }
        write!(f, "\t{}", self.detail)?;
        for step in &self.path {
            write!(f, "\n    via {step}")?;
        }
        Ok(())
    }
}

/// Parsed allowlist: `rule path` or `rule path::function` per line,
/// `#` comments. An entry suppresses every finding of `rule` in `path`
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
    /// Parses the allowlist format; a malformed line is an `Err` naming
    /// its line number.
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

    /// True (and marks the entries used) if some entry covers `v`.
    /// `fault-seam` findings are never covered.
    fn allows(&mut self, v: &Violation) -> bool {
        if v.rule == Rule::FaultSeam {
            return false;
        }
        let mut hit = false;
        for e in &mut self.entries {
            if e.rule == v.rule.name()
                && e.path == v.file
                && e.func.as_deref().is_none_or(|f| Some(f) == v.func.as_deref())
            {
                e.used = true;
                hit = true;
            }
        }
        hit
    }

    fn stale(&self) -> impl Iterator<Item = Violation> + '_ {
        self.entries.iter().filter(|e| !e.used).map(|e| Violation {
            rule: Rule::StaleAllowlist,
            file: "pstm-check.allow".to_string(),
            line: e.line,
            func: None,
            detail: format!(
                "{} {}{} matches nothing — remove it",
                e.rule,
                e.path,
                e.func.as_deref().map(|f| format!("::{f}")).unwrap_or_default()
            ),
            path: Vec::new(),
        })
    }
}

/// The outcome of one analysis run: every finding, and the lock-order
/// graph the structural rules built.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by `(file, line, rule)`.
    pub violations: Vec<Violation>,
    /// Every lock class seen.
    pub classes: BTreeSet<String>,
    /// Lock-order edges with one witness each.
    pub edges: BTreeMap<(String, String), String>,
    /// Discovered `flush-point` functions (`file::fn`).
    pub flush_points: Vec<String>,
    /// Functions tagged `event-loop`.
    pub event_loop_fns: Vec<String>,
    /// Number of `.rs` files read.
    pub files_scanned: usize,
    /// Number of functions the structural rules analyzed.
    pub fns_scanned: usize,
}

impl LintReport {
    /// True when nothing fired (stale allowlist entries included).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The diff-friendly report: sorted violations with witness paths,
    /// then a one-line footer.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "pstm-check lint: {} violation(s); {} lock class(es), {} edge(s), \
             {} flush point(s) over {} fn(s) in {} file(s)\n",
            self.violations.len(),
            self.classes.len(),
            self.edges.len(),
            self.flush_points.len(),
            self.fns_scanned,
            self.files_scanned,
        ));
        out
    }

    /// The lock-order graph as DOT, same dialect as
    /// `pstm_obs::dot::waits_for_dot`: sorted nodes, sorted `a -> b;`
    /// edges, `rankdir=LR`.
    #[must_use]
    pub fn dot(&self) -> String {
        let mut out = String::from("digraph lock_order {\n  rankdir=LR;\n");
        for class in &self.classes {
            out.push_str(&format!("  {class};\n"));
        }
        for (from, to) in self.edges.keys() {
            out.push_str(&format!("  {from} -> {to};\n"));
        }
        out.push_str("}\n");
        out
    }
}

/// Runs every rule over the workspace rooted at `root`, loading the
/// allowlist from `<root>/pstm-check.allow`.
pub fn run_lint(root: &Path) -> Result<LintReport, String> {
    let files = syntax::collect_workspace(root)?;
    let mut allow = Allowlist::load(root)?;
    Ok(analyze(&files, &mut allow))
}

/// Runs every rule over pre-parsed sources with a caller-supplied
/// allowlist (fixtures build their sources in memory).
pub fn analyze(files: &[SourceFile], allow: &mut Allowlist) -> LintReport {
    let mut report = lockgraph::structural(files);
    for file in files {
        scan(file, &mut report.violations);
    }
    report.violations.retain(|v| !allow.allows(v));
    report.violations.extend(allow.stale());
    report.violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.violations.dedup();
    report
}

/// The pattern rules over one file's live code.
fn scan(file: &SourceFile, out: &mut Vec<Violation>) {
    let path = file.path.as_str();
    let mut rules: Vec<(Rule, &[Seq], &str)> = Vec::new();
    if !WALL_CLOCK_SEAM_FILES.contains(&path) {
        rules.push((Rule::WallClock, &WALL_CLOCK_IDENTS, "outside the wall-clock seam"));
    }
    if COMMIT_PATH_TIMING_CRATES.iter().any(|c| path.starts_with(c)) {
        rules.push((Rule::WallClock, &COMMIT_PATH_TIMING, "in a commit-path crate"));
    }
    if path.strip_prefix("crates/core/src/").is_some_and(|f| CORE_COMMIT_PATH_FILES.contains(&f))
        || path.starts_with("crates/front/src/")
    {
        rules.push((Rule::NoPanicCommitPath, &PANICS, "on a commit path"));
    }
    if path != RECORDER_SEAM_FILE {
        rules.push((Rule::RecorderSeam, &RECORDER_IO, "outside the recorder seam"));
    }
    if path != FAULT_SEAM_FILE {
        rules.push((Rule::FaultSeam, &FAULT_DECIDE, "outside the engine's fault seam"));
    }
    let code = &file.code;
    let hit = |rule, line, func: &Option<Rc<str>>, detail| Violation {
        rule,
        file: file.path.clone(),
        line,
        func: func.as_deref().map(str::to_string),
        detail,
        path: Vec::new(),
    };
    for (i, (tok, func)) in code.iter().enumerate() {
        for (rule, seqs, why) in &rules {
            if let Some(seq) = seqs.iter().find(|seq| matches(&code[i..], seq)) {
                out.push(hit(*rule, tok.line, func, format!("`{}` {why}", seq.concat())));
            }
        }
        if path == WAL_SEAM_FILE
            && matches(&code[i..], WAL_BUF)
            && code.get(i + WAL_BUF.len()).is_some_and(|(m, _)| {
                m.kind == TokKind::Ident && WAL_BUF_MUTATORS.iter().any(|p| m.text.starts_with(p))
            })
            && !func.as_deref().is_some_and(|f| WAL_SEAM_FNS.contains(&f))
        {
            let detail = "log buffer mutated outside the hooked seam functions".to_string();
            out.push(hit(Rule::WalSeam, tok.line, func, detail));
        }
    }
}

/// True if `code` starts with `seq`.
fn matches(code: &[(Tok, Option<Rc<str>>)], seq: Seq) -> bool {
    code.len() >= seq.len()
        && seq.iter().zip(code).all(|(want, (t, _))| match t.kind {
            TokKind::Ident => t.text == *want,
            TokKind::Punct => want.len() == 1 && want.starts_with(t.ch),
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pattern rules over one in-memory file, minus what `allow`
    /// covers.
    fn scan_file(path: &str, src: &str, allow: &mut Allowlist, out: &mut Vec<Violation>) {
        let mut found = Vec::new();
        scan(&syntax::parse_source(path, src), &mut found);
        out.extend(found.into_iter().filter(|v| !allow.allows(v)));
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
        let src = "fn start() { let now = Instant::now(); }\n";
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
        let src = "fn open_rec() { let f = OpenOptions::new().write(true); }\n\
                   fn settle(&mut self) { self.file.sync_data().ok(); }\n";
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
    fn fault_hooks_are_asked_only_in_the_engine_seam() {
        let src = "fn fault_check(&self) { let d = hook.decide(site); }\n#[cfg(test)]\n\
                   mod tests {\n    fn t() { hook.decide(site); }\n}\n";
        let mut allow =
            Allowlist::parse("fault-seam crates/core/src/gtm.rs::fault_check\n").expect("parses");
        let mut out = Vec::new();
        scan_file(FAULT_SEAM_FILE, src, &mut allow, &mut out);
        assert!(out.is_empty(), "the seam file itself must be exempt: {out:?}");
        // Elsewhere the live call fires — an allowlist entry cannot waive
        // it — and the test module's call does not.
        scan_file("crates/core/src/gtm.rs", src, &mut allow, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].rule, out[0].func.as_deref()), (Rule::FaultSeam, Some("fault_check")));
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    \
                   fn t() { y.unwrap(); }\n}\n";
        let mut allow = Allowlist::default();
        let mut out = Vec::new();
        scan_file("crates/front/src/lib.rs", src, &mut allow, &mut out);
        // Only the live fn fires no-panic; the test mod's hit is skipped.
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].func.as_deref(), Some("live"));
    }

    #[test]
    fn literals_and_block_comments_never_match() {
        let src = "fn commit_finish() {\n\
                       let s = \"x.unwrap() at Instant::now()\";\n\
                       /* y.unwrap(); let t = Instant::now(); */\n\
                   }\n";
        let mut out = Vec::new();
        scan_file("crates/core/src/gtm.rs", src, &mut Allowlist::default(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn a_brace_char_literal_does_not_end_the_cfg_test_skip() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n    \
                       fn t() { let c = '}'; }\n    \
                       fn u() { y.unwrap(); }\n\
                   }\n";
        let mut out = Vec::new();
        scan_file("crates/core/src/gtm.rs", src, &mut Allowlist::default(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn a_call_split_across_lines_matches_at_its_first_token() {
        let src = "fn commit_finish(x: Option<u32>) -> u32 {\n    x.\n        unwrap()\n}\n";
        let mut out = Vec::new();
        scan_file("crates/core/src/gtm.rs", src, &mut Allowlist::default(), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].rule, out[0].line), (Rule::NoPanicCommitPath, 2));
        assert_eq!(out[0].func.as_deref(), Some("commit_finish"));
    }
}
