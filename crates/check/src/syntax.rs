//! A dependency-free Rust lexer and item parser: the one source reader
//! every `pstm-check` source rule runs on.
//!
//! `rustc` knows everything about one crate but nothing about the
//! review rules spanning this workspace. This module reads just enough
//! of it: a real token stream (comments, strings, raw strings,
//! char-vs-lifetime disambiguation all handled), parsed far enough to
//! recover, per file:
//!
//! - the live code as tokens, `#[cfg(test)]` items dropped and each
//!   token attributed to the fn whose item contains it — what the
//!   pattern rules in [`crate::lint`] match token sequences against;
//! - per function, its name, enclosing `impl` type and parameter types;
//! - an ordered event stream of its body — block open/close, statement
//!   ends, lock acquisitions (`.lock()` / zero-arg `.read()` /
//!   `.write()`) with their receiver field and `let` binding, calls with
//!   receiver/qualifier/binding, explicit `drop(x)` calls, `for`-loop
//!   bindings, and `Ordering::*` atomic-ordering mentions;
//! - marker tags from `// pstm-lockgraph: <tag>` comments immediately
//!   preceding the item (how `flush-point` and `event-loop` functions
//!   are declared in the source they govern).
//!
//! `#[cfg(test)]` items are skipped — test code may lock freely — and
//! [`collect_workspace`] never reads the offline shims. It does read
//! integration-test directories, tagged [`SourceFile::in_tests`]: the
//! pattern rules cover them, the structural rules do not.
//! [`acquisition_token_count`] exposes a raw token-level count (test
//! code included) so a differential test can pin the lexer against an
//! independent text oracle: parser drift fails loudly instead of
//! silently under-reporting acquisition sites.
//!
//! The model is consumed by [`crate::lint`] and [`crate::lockgraph`].

use std::path::{Path, PathBuf};
use std::rc::Rc;

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

/// One lexical token (comments excluded — they are returned separately).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Identifier text (empty for non-identifiers).
    pub text: String,
    /// Punctuation character (`'\0'` for non-punctuation).
    pub ch: char,
    /// 1-based source line.
    pub line: usize,
}

/// Kinds of tokens the analyses distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// A single punctuation character.
    Punct,
    /// String / raw-string / byte-string literal (contents dropped).
    Str,
    /// Character literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime or loop label (`'a`).
    Lifetime,
}

/// A `//` or `/* */` comment with its starting line.
#[derive(Clone, Debug)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Comment text, delimiters stripped.
    pub text: String,
}

/// Lexes Rust source into tokens plus the comment stream.
///
/// Handles line and (nested) block comments, plain/raw/byte strings,
/// char literals vs lifetimes, and numeric literals. Anything else
/// becomes a one-character [`TokKind::Punct`].
#[must_use]
pub fn lex(src: &str) -> (Vec<Tok>, Vec<Comment>) {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != b'\n' {
                    j += 1;
                }
                comments.push(Comment {
                    line,
                    text: src[start..j].trim_start_matches('/').trim().to_string(),
                });
                i = j;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1;
                let mut j = start;
                while j < b.len() && depth > 0 {
                    if b[j] == b'\n' {
                        line += 1;
                        j += 1;
                    } else if j + 1 < b.len() && b[j] == b'/' && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if j + 1 < b.len() && b[j] == b'*' && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                comments.push(Comment {
                    line: start_line,
                    text: src[start..j.saturating_sub(2).max(start)].trim().to_string(),
                });
                i = j;
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                // r"..."  r#"..."#  br#"..."#  — count hashes, then scan
                // for the closing quote followed by that many hashes.
                let mut j = i + 1;
                if b[j] == b'r' {
                    j += 1; // the `b` of `br`
                }
                let mut hashes = 0;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                j += 1; // opening quote
                let tok_line = line;
                while j < b.len() {
                    if b[j] == b'\n' {
                        line += 1;
                        j += 1;
                    } else if b[j] == b'"' && b[j + 1..].iter().take(hashes).all(|&h| h == b'#') {
                        j += 1 + hashes;
                        break;
                    } else {
                        j += 1;
                    }
                }
                toks.push(tok(TokKind::Str, tok_line));
                i = j;
            }
            b'"' => {
                let tok_line = line;
                let mut j = i + 1;
                while j < b.len() {
                    match b[j] {
                        b'\\' => {
                            // An escaped newline (line continuation) is a line.
                            line += usize::from(b.get(j + 1) == Some(&b'\n'));
                            j += 2;
                        }
                        b'\n' => {
                            line += 1;
                            j += 1;
                        }
                        b'"' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                toks.push(tok(TokKind::Str, tok_line));
                i = j;
            }
            b'b' if i + 1 < b.len() && b[i + 1] == b'"' => {
                // Byte string: skip the `b`, the quote loop above handles
                // the rest on the next iteration.
                i += 1;
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                if i + 1 < b.len() && b[i + 1] == b'\\' {
                    let mut j = i + 3; // past the escaped character: `'\''`
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    toks.push(tok(TokKind::Char, line));
                    i = j + 1;
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    toks.push(tok(TokKind::Char, line));
                    i += 3;
                } else {
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    toks.push(tok(TokKind::Lifetime, line));
                    i = j;
                }
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let mut j = i + 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[i..j].to_string(),
                    ch: '\0',
                    line,
                });
                i = j;
            }
            _ if c.is_ascii_digit() => {
                // A `.` continues the literal only before a digit: `1.5`,
                // but `0..n`, `1.max(x)` and `self.0.lock()` split.
                let mut j = i + 1;
                while j < b.len()
                    && (b[j].is_ascii_alphanumeric()
                        || b[j] == b'_'
                        || (b[j] == b'.' && b.get(j + 1).is_some_and(u8::is_ascii_digit)))
                {
                    j += 1;
                }
                toks.push(tok(TokKind::Num, line));
                i = j;
            }
            _ => {
                toks.push(Tok { kind: TokKind::Punct, text: String::new(), ch: c as char, line });
                i += 1;
            }
        }
    }
    (toks, comments)
}

fn tok(kind: TokKind, line: usize) -> Tok {
    Tok { kind, text: String::new(), ch: '\0', line }
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // r" r# br" br#
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if j >= b.len() || b[j] != b'r' {
            return false;
        }
    }
    if b[j] != b'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

/// Token-level count of lock-acquisition sites (`.lock()`, zero-arg
/// `.read()` / `.write()`), **including** `#[cfg(test)]` code — the
/// differential test compares this against an independent text oracle.
#[must_use]
pub fn acquisition_token_count(src: &str) -> usize {
    let (toks, _) = lex(src);
    let mut n = 0;
    for w in toks.windows(4) {
        if w[0].ch == '.'
            && w[1].kind == TokKind::Ident
            && matches!(w[1].text.as_str(), "lock" | "read" | "write")
            && w[2].ch == '('
            && w[3].ch == ')'
        {
            n += 1;
        }
    }
    n
}

// ---------------------------------------------------------------------
// Item parser: functions, impl context, body events
// ---------------------------------------------------------------------

/// How a lock-ish site acquires its guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// `.lock()` on a mutex.
    Lock,
    /// Zero-argument `.read()` (shared rwlock guard).
    Read,
    /// Zero-argument `.write()` (exclusive rwlock guard).
    Write,
}

/// One event in a function body, in source order.
#[derive(Clone, Debug)]
pub enum Event {
    /// `{` — enters a block.
    Open(usize),
    /// `}` — leaves a block.
    Close(usize),
    /// `;` at statement level (kills temporary guards of its depth).
    Semi(usize),
    /// A lock acquisition site.
    Lock {
        /// Final identifier of the receiver chain (`self.inner.mail` → `mail`).
        recv: String,
        /// Acquisition flavor.
        kind: AccessKind,
        /// `let` binding holding the guard, when one exists.
        binding: Option<String>,
        /// 1-based line.
        line: usize,
    },
    /// A function or method call.
    Call {
        /// Callee name.
        name: String,
        /// Final identifier of a method receiver (`None` for free calls).
        recv: Option<String>,
        /// True when the receiver chain passed through `.lock()` /
        /// `.read()` / `.write()` — the call is on a *guard*, so `recv`
        /// names the lock field, not the value
        /// (`shard.lock().tick()` → recv `shard`, via_guard).
        via_guard: bool,
        /// `Type::` qualifier of a path call (`Sst::new` → `Sst`).
        qual: Option<String>,
        /// `let` binding the call's value is assigned to, if any.
        binding: Option<String>,
        /// 1-based line.
        line: usize,
    },
    /// A binding from a block-valued `let` (`let g = { …; lock() };`)
    /// escapes the block it was created in: the guard named `name` now
    /// lives at `depth` (emitted just before the block's Close).
    Rebind {
        /// The binding the block's tail value escaped into.
        name: String,
        /// Brace depth of the `let` statement (fn body = 1).
        depth: usize,
    },
    /// An explicit `drop(x)` of a binding.
    DropVar {
        /// The dropped binding.
        name: String,
        /// 1-based line.
        line: usize,
    },
    /// `for <pat> in <iter…> {` — used to type loop variables over
    /// guard collections.
    ForBind {
        /// All identifiers of the loop pattern (`(i, gtm)` → both).
        bindings: Vec<String>,
        /// Identifiers appearing in the iterated expression.
        iter: Vec<String>,
        /// 1-based line.
        line: usize,
    },
    /// `Ordering::<X>` atomic-ordering mention.
    Atomic {
        /// The ordering variant (`Relaxed`, `Acquire`, …).
        ordering: String,
        /// 1-based line.
        line: usize,
    },
}

/// One parsed function.
#[derive(Clone, Debug)]
pub struct FnModel {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type (last path segment), if any.
    pub impl_type: Option<String>,
    /// The trait of an enclosing `impl Trait for Type`, if any — calls
    /// through a trait-typed receiver may reach any implementor.
    pub impl_trait: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// `pstm-lockgraph:` tags from comments preceding the item.
    pub tags: Vec<String>,
    /// Parameters as `(name, type identifiers)`.
    pub params: Vec<(String, Vec<String>)>,
    /// Ordered body events.
    pub body: Vec<Event>,
}

/// One parsed source file.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// True under an integration-test directory (a `tests` path segment).
    pub in_tests: bool,
    /// Tokens outside `#[cfg(test)]`, each with the name of the fn whose
    /// item (signature and body) contains it; `None` at module level.
    pub code: Vec<(Tok, Option<Rc<str>>)>,
    /// Functions outside `#[cfg(test)]`.
    pub fns: Vec<FnModel>,
    /// All comments (justification proximity checks need them).
    pub comments: Vec<Comment>,
}

/// Marker prefix for in-source analyzer declarations
/// (`// pstm-lockgraph: flush-point`, `// pstm-lockgraph: event-loop`).
pub const TAG_PREFIX: &str = "pstm-lockgraph:";

/// Parses one file into its function models.
#[must_use]
pub fn parse_source(path: &str, src: &str) -> SourceFile {
    let (toks, comments) = lex(src);
    let mut fns = Vec::new();
    // Per token: dropped with a `#[cfg(test)]` item, or the fn owning it.
    let mut dropped = vec![false; toks.len()];
    let mut owner: Vec<Option<Rc<str>>> = vec![None; toks.len()];
    let mut i = 0;
    // Stack of (enclosing impl, brace depth at which its body closes).
    let mut impl_stack: Vec<(ImplOf, usize)> = Vec::new();
    let mut depth = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct if t.ch == '{' => {
                depth += 1;
                i += 1;
            }
            TokKind::Punct if t.ch == '}' => {
                depth = depth.saturating_sub(1);
                while impl_stack.last().is_some_and(|(_, d)| *d > depth) {
                    impl_stack.pop();
                }
                i += 1;
            }
            TokKind::Punct if t.ch == '#' => {
                // Attribute: if it is `#[cfg(...test...)]`, skip the item
                // it decorates (fn, mod, impl, struct …) entirely.
                let (end, is_cfg_test) = scan_attr(&toks, i);
                if is_cfg_test {
                    let next = skip_item(&toks, end);
                    dropped[i..next].fill(true);
                    i = next;
                } else {
                    i = end;
                }
            }
            TokKind::Ident if t.text == "impl" => {
                let (ty, tr, body_start) = parse_impl_header(&toks, i);
                if let Some(start) = body_start {
                    depth += 1;
                    impl_stack.push(((ty, tr), depth));
                    i = start + 1;
                } else {
                    i += 1;
                }
            }
            TokKind::Ident if t.text == "fn" => {
                let impl_of = impl_stack.last().map(|(of, _)| of.clone()).unwrap_or_default();
                // A tag comment binds to the *next* item only: comments at
                // or before the previous item boundary (`{`, `}`, `;`)
                // are someone else's. Modifiers and attributes between
                // the boundary and `fn` belong to this item, so they do
                // not raise the floor.
                let floor = toks[..i]
                    .iter()
                    .rev()
                    .find(|t| matches!(t.ch, '{' | '}' | ';'))
                    .map_or(0, |t| t.line);
                let (f, next) = parse_fn(&toks, i, impl_of, path, &comments, floor);
                if let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    owner[i..next].fill(Some(Rc::from(name.text.as_str())));
                }
                if let Some(f) = f {
                    fns.push(f);
                }
                i = next;
            }
            _ => i += 1,
        }
    }
    let code = toks.into_iter().zip(owner).zip(dropped).filter(|(_, d)| !d).map(|(c, _)| c);
    SourceFile {
        path: path.to_string(),
        in_tests: path.split('/').any(|seg| seg == "tests"),
        code: code.collect(),
        fns,
        comments,
    }
}

/// Scans an attribute starting at `#`; returns (index past `]`, cfg-test?).
fn scan_attr(toks: &[Tok], at: usize) -> (usize, bool) {
    let mut i = at + 1;
    if i >= toks.len() || toks[i].ch != '[' {
        return (at + 1, false);
    }
    let mut depth = 0;
    let mut saw_cfg = false;
    let mut saw_test = false;
    while i < toks.len() {
        let t = &toks[i];
        match t.ch {
            '[' | '(' => depth += 1,
            ')' => depth -= 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, saw_cfg && saw_test);
                }
            }
            _ => {}
        }
        if t.kind == TokKind::Ident {
            if t.text == "cfg" {
                saw_cfg = true;
            }
            if t.text == "test" {
                saw_test = true;
            }
        }
        i += 1;
    }
    (i, false)
}

/// Skips one item starting at `start` (post-attributes): further
/// attributes, then either a braced body (skip to matching `}`) or a
/// `;`-terminated item.
fn skip_item(toks: &[Tok], start: usize) -> usize {
    let mut i = start;
    while i < toks.len() && toks[i].ch == '#' {
        let (end, _) = scan_attr(toks, i);
        i = end;
    }
    let mut depth = 0usize;
    while i < toks.len() {
        match toks[i].ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            ';' if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Parses an `impl` header; returns (type name, trait name of an
/// `impl Trait for Type`, index of body `{`).
fn parse_impl_header(toks: &[Tok], at: usize) -> (Option<String>, Option<String>, Option<usize>) {
    let mut i = at + 1;
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut trait_name: Option<String> = None;
    let mut angle = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct if t.ch == '<' => angle += 1,
            TokKind::Punct if t.ch == '>' => angle -= 1,
            TokKind::Punct if t.ch == '{' && angle <= 0 => {
                return (after_for.or(last_ident), trait_name, Some(i));
            }
            TokKind::Punct if t.ch == ';' => return (None, None, None),
            TokKind::Ident if t.text == "for" && angle <= 0 => {
                // `impl Trait for Type` — the type follows.
                trait_name = last_ident.take();
                i += 1;
                while i < toks.len() && toks[i].ch != '{' {
                    if toks[i].kind == TokKind::Ident && toks[i].text != "where" {
                        after_for = Some(toks[i].text.clone());
                    } else if toks[i].kind == TokKind::Punct && toks[i].ch == '<' {
                        break;
                    }
                    i += 1;
                }
                continue;
            }
            TokKind::Ident if t.text == "where" => {}
            TokKind::Ident if angle <= 0 => last_ident = Some(t.text.clone()),
            _ => {}
        }
        i += 1;
    }
    (None, None, None)
}

/// The `impl` block enclosing a fn: (type, trait of an `impl Trait for
/// Type`), both by last path segment.
type ImplOf = (Option<String>, Option<String>);

/// Parses `fn name(params) -> ret { body }` starting at the `fn` token.
/// Returns the model (None for bodyless trait-method signatures) and the
/// index past the item.
fn parse_fn(
    toks: &[Tok],
    at: usize,
    (impl_type, impl_trait): ImplOf,
    _path: &str,
    comments: &[Comment],
    floor: usize,
) -> (Option<FnModel>, usize) {
    let mut i = at + 1;
    let Some(name_tok) = toks.get(i) else { return (None, at + 1) };
    if name_tok.kind != TokKind::Ident {
        return (None, at + 1);
    }
    let name = name_tok.text.clone();
    let line = toks[at].line;
    // Tags: `pstm-lockgraph:` comments on the lines immediately above the
    // item (doc comments and attributes may sit between).
    let tags: Vec<String> = comments
        .iter()
        .filter(|c| c.line < line && line - c.line <= 8 && c.line > floor)
        .filter_map(|c| c.text.trim().strip_prefix(TAG_PREFIX))
        .map(|t| t.trim().to_string())
        .collect();
    i += 1;
    // Skip generics.
    let mut angle = 0i32;
    while i < toks.len() {
        match toks[i].ch {
            '<' => angle += 1,
            '>' => angle -= 1,
            '(' if angle <= 0 => break,
            ';' => return (None, i + 1),
            '{' => return (None, i), // malformed; let the outer loop cope
            _ => {}
        }
        i += 1;
    }
    // Parameters.
    let (params, after_params) = parse_params(toks, i);
    i = after_params;
    // Scan to body `{` or `;`.
    let mut angle = 0i32;
    while i < toks.len() {
        match toks[i].ch {
            '<' => angle += 1,
            '>' => angle -= 1,
            ';' if angle <= 0 => return (None, i + 1),
            '{' if angle <= 0 => break,
            _ => {}
        }
        i += 1;
    }
    if i >= toks.len() {
        return (None, i);
    }
    let (body, end) = parse_body(toks, i);
    (Some(FnModel { name, impl_type, impl_trait, line, tags, params, body }), end)
}

/// Parses a parenthesized parameter list starting at `(`; returns the
/// `(name, type idents)` pairs and the index past `)`.
fn parse_params(toks: &[Tok], at: usize) -> (Vec<(String, Vec<String>)>, usize) {
    let mut params = Vec::new();
    let mut i = at + 1;
    let mut depth = 1;
    let mut cur_name: Option<String> = None;
    let mut cur_types: Vec<String> = Vec::new();
    let mut in_type = false;
    while i < toks.len() && depth > 0 {
        let t = &toks[i];
        match t.ch {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' | '>' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            ':' if depth == 1 && toks.get(i + 1).map(|n| n.ch) != Some(':') => in_type = true,
            ',' if depth == 1 => {
                if let Some(n) = cur_name.take() {
                    params.push((n, std::mem::take(&mut cur_types)));
                }
                in_type = false;
            }
            _ => {}
        }
        if t.kind == TokKind::Ident {
            if in_type {
                if !matches!(t.text.as_str(), "mut" | "dyn" | "impl" | "where") {
                    cur_types.push(t.text.clone());
                }
            } else if cur_name.is_none() && !matches!(t.text.as_str(), "mut" | "self") {
                cur_name = Some(t.text.clone());
            }
        }
        i += 1;
    }
    if let Some(n) = cur_name.take() {
        params.push((n, cur_types));
    }
    (params, i + 1)
}

/// Parses a function body starting at its `{`; emits the event stream.
fn parse_body(toks: &[Tok], open: usize) -> (Vec<Event>, usize) {
    let mut ev = Vec::new();
    let mut i = open + 1;
    let mut depth = 1usize;
    // The active `let` binding for value-attribution, per brace depth of
    // the statement it opened at; see `LetCtx`.
    let mut lets: Vec<LetCtx> = Vec::new();
    ev.push(Event::Open(toks[open].line));
    while i < toks.len() && depth > 0 {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct => match t.ch {
                '{' => {
                    depth += 1;
                    ev.push(Event::Open(t.line));
                    // A `{` inside an active let-initializer: the block's
                    // tail expression is the bound value.
                    if let Some(l) = lets.last_mut() {
                        if l.awaiting_value && l.block_depth.is_none() {
                            l.block_depth = Some(depth);
                        }
                    }
                    i += 1;
                }
                '}' => {
                    // Settle a block-valued let whose body just closed:
                    // its tail-expression event gets the binding, and the
                    // value escapes to the let's own depth (a guard
                    // acquired inside the block outlives it).
                    if let Some(l) = lets.last_mut() {
                        if l.block_depth == Some(depth) {
                            if let Some(idx) = l.candidate.take() {
                                set_binding(&mut ev, idx, &l.name);
                                ev.push(Event::Rebind { name: l.name.clone(), depth: l.depth });
                            }
                            l.awaiting_value = false;
                            l.block_depth = None;
                        }
                    }
                    depth -= 1;
                    ev.push(Event::Close(t.line));
                    i += 1;
                }
                ';' => {
                    ev.push(Event::Semi(t.line));
                    // A `;` at the let's own depth ends the let statement;
                    // inside a let-block it just clears the tail candidate.
                    if let Some(l) = lets.last_mut() {
                        match l.block_depth {
                            Some(bd) if depth == bd => l.candidate = None,
                            Some(_) => {}
                            None if depth == l.depth => {
                                lets.pop();
                            }
                            None => {}
                        }
                    }
                    i += 1;
                }
                _ => i += 1,
            },
            TokKind::Ident => {
                let text = t.text.as_str();
                match text {
                    "let" => {
                        // `let [mut] NAME = …` — tuple or struct patterns
                        // get no binding (guards are never bound that way
                        // in this workspace's idiom).
                        let mut j = i + 1;
                        while j < toks.len()
                            && toks[j].kind == TokKind::Ident
                            && toks[j].text == "mut"
                        {
                            j += 1;
                        }
                        let name = toks
                            .get(j)
                            .filter(|n| n.kind == TokKind::Ident)
                            .map(|n| n.text.clone());
                        if let Some(name) = name {
                            // Skip an optional `: Type` annotation (any
                            // nesting of `< ( [`) to find the `=`.
                            let mut k = j + 1;
                            if toks.get(k).map(|e| e.ch) == Some(':')
                                && toks.get(k + 1).map(|e| e.ch) != Some(':')
                            {
                                k += 1;
                                let mut nest = 0i32;
                                while let Some(t2) = toks.get(k) {
                                    match t2.ch {
                                        '<' | '(' | '[' => nest += 1,
                                        '>' | ')' | ']' => nest -= 1,
                                        '=' if nest == 0 => break,
                                        ';' | '{' if nest == 0 => break,
                                        _ => {}
                                    }
                                    k += 1;
                                }
                            }
                            if toks.get(k).map(|e| e.ch) == Some('=') {
                                lets.push(LetCtx {
                                    name,
                                    depth,
                                    awaiting_value: true,
                                    block_depth: None,
                                    candidate: None,
                                });
                                i = k + 1;
                                continue;
                            }
                        }
                        i = j;
                    }
                    "for" => {
                        // `for PAT in EXPR {` — record every pattern
                        // ident and the iterated expression's idents.
                        let mut j = i + 1;
                        let mut bindings = Vec::new();
                        while j < toks.len() && toks[j].text != "in" {
                            if toks[j].kind == TokKind::Ident && toks[j].text != "mut" {
                                bindings.push(toks[j].text.clone());
                            }
                            if toks[j].ch == '{' {
                                break;
                            }
                            j += 1;
                        }
                        let mut iter = Vec::new();
                        if j < toks.len() && toks[j].text == "in" {
                            j += 1;
                            while j < toks.len() && toks[j].ch != '{' {
                                if toks[j].kind == TokKind::Ident {
                                    iter.push(toks[j].text.clone());
                                }
                                j += 1;
                            }
                        }
                        if !bindings.is_empty() {
                            ev.push(Event::ForBind { bindings, iter, line: t.line });
                        }
                        i = j;
                    }
                    "drop" if toks.get(i + 1).map(|n| n.ch) == Some('(') => {
                        if let Some(arg) = toks.get(i + 2) {
                            if arg.kind == TokKind::Ident
                                && toks.get(i + 3).map(|n| n.ch) == Some(')')
                            {
                                ev.push(Event::DropVar { name: arg.text.clone(), line: t.line });
                                i += 4;
                                continue;
                            }
                        }
                        i += 1;
                    }
                    "Ordering"
                        if toks.get(i + 1).map(|n| n.ch) == Some(':')
                            && toks.get(i + 2).map(|n| n.ch) == Some(':') =>
                    {
                        if let Some(v) = toks.get(i + 3) {
                            if v.kind == TokKind::Ident {
                                ev.push(Event::Atomic { ordering: v.text.clone(), line: v.line });
                            }
                        }
                        i += 4;
                    }
                    _ => {
                        // Method call / lock site: `. name ( …` with the
                        // receiver chain walked backward; free/path call:
                        // `name (` possibly behind a `Qual ::`.
                        let is_method = i > 0 && toks[i - 1].ch == '.';
                        let next_open = toks.get(i + 1).map(|n| n.ch) == Some('(');
                        if is_method && next_open {
                            let zero_arg = toks.get(i + 2).map(|n| n.ch) == Some(')');
                            let kind = match text {
                                "lock" if zero_arg => Some(AccessKind::Lock),
                                "read" if zero_arg => Some(AccessKind::Read),
                                "write" if zero_arg => Some(AccessKind::Write),
                                _ => None,
                            };
                            let (recv, via_guard) = receiver_chain(toks, i - 1);
                            let idx = ev.len();
                            if let Some(kind) = kind {
                                // A chained guard (`x.read().foo()`) is a
                                // temporary dying at the statement end, not
                                // the let binding — the binding holds what
                                // the chain returns.
                                let chained = toks.get(i + 3).map(|n| n.ch) == Some('.');
                                ev.push(Event::Lock {
                                    recv: recv.unwrap_or_default(),
                                    kind,
                                    binding: None,
                                    line: t.line,
                                });
                                if !chained {
                                    note_candidate(&mut lets, depth, idx, &mut ev);
                                }
                                i += 1;
                                continue;
                            } else {
                                ev.push(Event::Call {
                                    name: text.to_string(),
                                    recv,
                                    via_guard,
                                    qual: None,
                                    binding: None,
                                    line: t.line,
                                });
                            }
                            note_candidate(&mut lets, depth, idx, &mut ev);
                        } else if next_open && !is_method && !is_decl_keyword(text) {
                            let qual = if i >= 2
                                && toks[i - 1].ch == ':'
                                && toks[i - 2].ch == ':'
                                && i >= 3
                                && toks[i - 3].kind == TokKind::Ident
                            {
                                Some(toks[i - 3].text.clone())
                            } else {
                                None
                            };
                            let idx = ev.len();
                            ev.push(Event::Call {
                                name: text.to_string(),
                                recv: None,
                                via_guard: false,
                                qual,
                                binding: None,
                                line: t.line,
                            });
                            note_candidate(&mut lets, depth, idx, &mut ev);
                        }
                        i += 1;
                    }
                }
            }
            _ => i += 1,
        }
    }
    (ev, i)
}

/// A `let NAME = …` in flight: direct values attach on sight; block
/// values (`let x = { …; expr }`) attach to the block's tail expression.
struct LetCtx {
    name: String,
    depth: usize,
    awaiting_value: bool,
    block_depth: Option<usize>,
    candidate: Option<usize>,
}

/// Attributes a just-emitted Lock/Call event to the active let binding.
fn note_candidate(lets: &mut [LetCtx], depth: usize, idx: usize, ev: &mut [Event]) {
    let Some(l) = lets.last_mut() else { return };
    if !l.awaiting_value {
        return;
    }
    match l.block_depth {
        // Direct initializer: the first value-producing event wins; later
        // chained calls on the same line keep the original attribution
        // because a guard's liveness follows the binding, not the chain.
        None if depth == l.depth => {
            set_binding(ev, idx, &l.name);
            l.awaiting_value = false;
        }
        // Block-valued: remember the latest tail-position event.
        Some(bd) if depth == bd => l.candidate = Some(idx),
        _ => {}
    }
}

fn set_binding(ev: &mut [Event], idx: usize, name: &str) {
    match &mut ev[idx] {
        Event::Lock { binding, .. } | Event::Call { binding, .. } => {
            *binding = Some(name.to_string());
        }
        _ => {}
    }
}

fn is_decl_keyword(text: &str) -> bool {
    matches!(
        text,
        "fn" | "if"
            | "while"
            | "match"
            | "for"
            | "loop"
            | "return"
            | "let"
            | "else"
            | "move"
            | "unsafe"
            | "async"
            | "await"
            | "pub"
            | "in"
            | "as"
            | "ref"
            | "assert"
            | "matches"
    )
}

/// Walks a postfix receiver chain backward from the `.` before a method
/// name; returns the base field/variable identifier and whether the
/// chain passed through a guard acquisition. Transparent combinators
/// (`unwrap`, `clone`, `iter`, …) are skipped so
/// `self.inner.shards[s].lock().tick()` resolves to (`shards`, guard)
/// and `guards.iter_mut().enumerate()` to (`guards`, plain).
fn receiver_chain(toks: &[Tok], dot: usize) -> (Option<String>, bool) {
    let mut i = dot; // toks[dot] is the '.'
    let mut via_guard = false;
    loop {
        if i == 0 {
            return (None, via_guard);
        }
        i -= 1;
        match toks[i].kind {
            TokKind::Ident => {
                let t = toks[i].text.as_str();
                let chained = i > 0 && toks[i - 1].ch == '.';
                if chained && matches!(t, "lock" | "read" | "write") {
                    via_guard = true;
                    i -= 1; // continue past the '.'
                    continue;
                }
                if chained
                    && matches!(
                        t,
                        "unwrap"
                            | "expect"
                            | "clone"
                            | "as_ref"
                            | "as_mut"
                            | "as_deref"
                            | "iter"
                            | "iter_mut"
                            | "enumerate"
                            | "take"
                            | "borrow"
                            | "borrow_mut"
                    )
                {
                    i -= 1;
                    continue;
                }
                return (Some(toks[i].text.clone()), via_guard);
            }
            TokKind::Punct if toks[i].ch == '?' => {}
            TokKind::Punct if toks[i].ch == ']' || toks[i].ch == ')' => {
                // Skip the bracketed group, then continue leftward: the
                // ident before it is the receiver (`shards[s]`, `f(x)`).
                let close = toks[i].ch;
                let open = if close == ']' { '[' } else { '(' };
                let mut depth = 1;
                while i > 0 && depth > 0 {
                    i -= 1;
                    if toks[i].ch == close {
                        depth += 1;
                    } else if toks[i].ch == open {
                        depth -= 1;
                    }
                }
            }
            _ => return (None, via_guard),
        }
    }
}

// ---------------------------------------------------------------------
// Workspace collection
// ---------------------------------------------------------------------

/// Collects and parses every workspace `.rs` file, skipping build output,
/// VCS internals, `results/` and the offline shims (third-party API
/// stand-ins are not ours to check).
pub fn collect_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut paths = Vec::new();
    collect_rs(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for rel in paths {
        let text = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("{}: {e}", rel.display()))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        files.push(parse_source(&rel, &text));
    }
    Ok(files)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "results") {
                continue;
            }
            if name == "shims" && path.parent().is_some_and(|p| p.ends_with("crates")) {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_handles_strings_comments_lifetimes() {
        let src = r#"
// line comment with .lock()
fn f<'a>(x: &'a str) { let s = "a \" .lock() b"; let c = 'x'; g(s, c); }
/* block .lock() comment */
"#;
        let (toks, comments) = lex(src);
        assert_eq!(comments.len(), 2);
        assert!(toks.iter().any(|t| t.kind == TokKind::Str));
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime));
        assert!(toks.iter().any(|t| t.kind == TokKind::Char));
        assert_eq!(acquisition_token_count(src), 0, "strings/comments must not count");
    }

    #[test]
    fn tuple_fields_escaped_quotes_and_continued_strings_lex_exactly() {
        // `self.0.lock()` is a field access then a call, not a float.
        assert_eq!(acquisition_token_count("fn f(&self) { self.0.lock(); }"), 1);
        // `'\''` is one char literal, and a continued string keeps the
        // line count.
        let (toks, _) = lex("let q = '\\''; let s = \"a\\\nb\";\nx");
        assert!(toks.iter().all(|t| t.kind != TokKind::Lifetime), "{toks:?}");
        assert_eq!(toks.last().map(|t| t.line), Some(3));
    }

    #[test]
    fn raw_strings_do_not_leak_tokens() {
        let src = "fn f() { let s = r#\"x.lock() \"quoted\" \"#; }";
        assert_eq!(acquisition_token_count(src), 0);
    }

    #[test]
    fn fn_and_impl_context_extracted() {
        let src = "impl Foo { pub fn bar(&self, sst: Sst) -> u32 { 1 } }\n\
                   impl fmt::Display for Baz { fn fmt(&self) {} }\n\
                   fn free() {}\n";
        let f = parse_source("x.rs", src);
        let names: Vec<(&str, Option<&str>)> =
            f.fns.iter().map(|f| (f.name.as_str(), f.impl_type.as_deref())).collect();
        assert_eq!(
            names,
            vec![("bar", Some("Foo")), ("fmt", Some("Baz")), ("free", None)],
            "{f:#?}"
        );
        assert_eq!(f.fns[0].params, vec![("sst".to_string(), vec!["Sst".to_string()])]);
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn dead() { x.lock(); } }\n";
        let f = parse_source("x.rs", src);
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "live");
    }

    #[test]
    fn lock_sites_capture_receiver_and_binding() {
        let src = "fn f(&self) {\n\
                       let mut gtm = self.inner.shards[s].lock();\n\
                       self.mail.lock().remove(&id);\n\
                       drop(gtm);\n\
                   }\n";
        let f = parse_source("x.rs", src);
        let locks: Vec<(&str, Option<&str>)> = f.fns[0]
            .body
            .iter()
            .filter_map(|e| match e {
                Event::Lock { recv, binding, .. } => Some((recv.as_str(), binding.as_deref())),
                _ => None,
            })
            .collect();
        assert_eq!(locks, vec![("shards", Some("gtm")), ("mail", None)]);
        assert!(f.fns[0]
            .body
            .iter()
            .any(|e| matches!(e, Event::DropVar { name, .. } if name == "gtm")));
    }

    #[test]
    fn block_valued_let_attributes_tail_expression() {
        let src = "fn f(&self) {\n\
                       let mut guards = {\n\
                           let _adm = prof::PhaseTimer::start(p);\n\
                           self.front.lock_shards_ascending(shards)\n\
                       };\n\
                   }\n";
        let f = parse_source("x.rs", src);
        let call = f.fns[0]
            .body
            .iter()
            .find_map(|e| match e {
                Event::Call { name, binding, .. } if name == "lock_shards_ascending" => {
                    Some(binding.as_deref())
                }
                _ => None,
            })
            .expect("call seen");
        assert_eq!(call, Some("guards"));
        // The inner let's own binding went to the PhaseTimer call.
        let timer = f.fns[0].body.iter().find_map(|e| match e {
            Event::Call { name, binding, .. } if name == "start" => Some(binding.as_deref()),
            _ => None,
        });
        assert_eq!(timer, Some(Some("_adm")));
    }

    #[test]
    fn tags_attach_to_next_fn() {
        let src = "// pstm-lockgraph: flush-point\n\
                   /// Docs in between.\n\
                   pub fn append_batch(&mut self) {}\n";
        let f = parse_source("x.rs", src);
        assert_eq!(f.fns[0].tags, vec!["flush-point".to_string()]);
    }

    #[test]
    fn ordering_and_qualified_calls_extracted() {
        let src = "fn f() { let sst = Sst::new(a, b); x.store(1, Ordering::Relaxed); }\n";
        let f = parse_source("x.rs", src);
        assert!(f.fns[0].body.iter().any(|e| matches!(
            e,
            Event::Call { name, qual: Some(q), binding: Some(b), .. }
                if name == "new" && q == "Sst" && b == "sst"
        )));
        assert!(f.fns[0]
            .body
            .iter()
            .any(|e| matches!(e, Event::Atomic { ordering, .. } if ordering == "Relaxed")));
    }
}
