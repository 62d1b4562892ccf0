//! # pstm-check — machine-checked invariants for the pre-serialization GTM
//!
//! The GTM's correctness argument (paper §3–§4) leans on properties that
//! ordinary unit tests state only piecemeal. This crate turns them into
//! four analyses that run under `cargo test` and in CI:
//!
//! 1. **Source analyzer** ([`lint`], with the structural rules in
//!    [`lockgraph`], over the dependency-free lexer and parser in
//!    [`syntax`]) — one parse of the workspace, ten rules the compiler
//!    cannot check. Five are token patterns: wall-clock reads only
//!    through `pstm-obs`'s seam (virtual-clock determinism), no panics on
//!    the commit/reconcile/SST paths, and the WAL, recorder and fault
//!    seams. Five are structural: an acyclic, level-descending lock-order
//!    graph, multi-shard locking only through `lock_shards_ascending`, no
//!    shard guard across a flush, `Relaxed` atomics only in justified
//!    seams, and nothing blocking in event-loop context. Findings are
//!    fixed or spelled out in one allowlist file, with one stale pass.
//! 2. **Serializability verifier** ([`verify`]) — consumes the frame
//!    files `pstm-obs` records, rebuilds the conflict/precedence graph of
//!    each run from grant and commit events, and either certifies
//!    conflict-serializability (producing an equivalent serial order) or
//!    prints the minimal offending cycle with transaction ids and
//!    resources.
//! 3. **Table I checker** ([`table`]) — small-scope exhaustive
//!    enumeration over the `Value` domain proving every `compatible()`
//!    entry of the paper's Table I forward-commutes (and reconciles to
//!    the serial result) and exhibiting a concrete non-commuting witness
//!    for every incompatible entry, cross-checked against
//!    `pstm_types::OpClass::compatible_with` so the shipped table cannot
//!    silently drift from the semantics it claims.
//! 4. **Phased-commit model** (`tests/phased_commit_model.rs`) — a
//!    small-scope exhaustive interleaving model of the phased
//!    `commit_local`/`commit_finish`/`commit_abort` handshake (the loom
//!    role, in-tree).
//!
//! The `pstm_check` binary runs the first three (`lint [--dot FILE]` /
//! `verify` / `table` / `all`).

#![warn(missing_docs)]

pub mod lint;
pub mod lockgraph;
pub mod syntax;
pub mod table;
pub mod verify;

pub use lint::{analyze, run_lint, Allowlist, LintReport, Rule, Violation};
pub use lockgraph::class_level;
pub use syntax::{acquisition_token_count, collect_workspace, parse_source, SourceFile};
pub use table::{check_pair, check_table, PairReport, TableReport, Witness};
pub use verify::{
    stitch_streams, verify_records, verify_streams, verify_trace_files, Certificate, CycleEdge,
    TraceStream, Verdict,
};
