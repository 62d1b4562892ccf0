//! The flight recorder: a bounded, crash-surviving binary ring file.
//!
//! This is the obs stack's one durable trace store (JSONL is rendered from
//! it, [`crate::event::render_jsonl`]), readable *after* the process died.
//! Records are [`TraceRecord`]s, periodic [`MetricsRegistry`] snapshot
//! deltas, and explicit drop markers, encoded with a compact LEB128 varint
//! codec and wrapped in the same CRC frames as the WAL ([`crate::frame`]),
//! so a torn tail truncates cleanly on read.
//!
//! ## File layout
//!
//! ```text
//! | magic "PSTMFREC" | version u32 LE | seg_capacity u32 LE | reserved u64 |
//! | segment 0: seg_capacity bytes | segment 1: seg_capacity bytes |
//! ```
//!
//! The ring is two alternating half-segments. The writer appends frames to
//! the active segment; when a frame no longer fits it switches to the other
//! segment and overwrites it from its start (one *wrap* — the oldest
//! generation is dropped wholesale). Stale frames from an overwritten
//! generation are never cleared from the file: the reader detects them
//! because every record carries a globally monotone sequence number, so the
//! first frame whose sequence fails to increase marks the end of the live
//! generation in that segment.
//!
//! ## Seam discipline
//!
//! This module is the **only** sanctioned home of recorder file I/O
//! (`OpenOptions`, `sync_data`) — the `recorder-seam` lint in `pstm-check`
//! enforces it, the same shape as the wall-clock seam in
//! [`crate::wallclock`]. Wall-clock stamps on snapshot records flow through
//! the already-sanctioned [`crate::wallclock::wall_now_us`].
//!
//! Recording never fails the host: I/O errors and oversized records are
//! counted as drops ([`RecorderStats`]), and the next successful append is
//! preceded by an explicit [`RecorderEntry::Drop`] record so post-mortem
//! analysis knows the stream has a hole rather than silently missing data.

use crate::event::{AbortOrigin, TraceEvent, TraceRecord};
use crate::frame::{next_frame, write_frame, FrameStep};
use crate::prof::{CommitPhase, PhaseProfile};
use crate::registry::{Ctr, MetricsRegistry};
use crate::sink::Sink;
use crate::span::SpanKind;
use parking_lot::Mutex;
use pstm_types::{AbortReason, MemberId, ObjectId, OpClass, ResourceId, Timestamp, TxnId};
use serde::Serialize;
use std::fs::OpenOptions;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic, first 8 bytes of every recorder file.
pub const MAGIC: &[u8; 8] = b"PSTMFREC";
/// On-disk format version.
pub const VERSION: u32 = 1;
/// Header size in bytes (magic + version + seg_capacity + reserved).
pub const HEADER: usize = 8 + 4 + 4 + 8;
/// Shard tag the engine-level tracer records under (front-end shards are
/// numbered from 0, so the engine takes the top of the range).
pub const ENGINE_SHARD: u32 = u32::MAX;
/// The smallest frame the writer emits (a `Drop` record): a segment
/// capacity below it cannot hold one.
const MIN_FRAME: usize = crate::frame::FRAME_HEADER + 3;
/// Buffered mode writes its frames out once this many bytes are pending.
const WRITE_BATCH: usize = 64 << 10;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------------
// Varint codec
// ---------------------------------------------------------------------------

/// Appends `v` as an unsigned LEB128 varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes an unsigned LEB128 varint at `*pos`, advancing it. `None` on
/// truncation or a varint wider than 64 bits.
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return None;
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

fn put_opt(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_uvarint(out, v);
        }
    }
}

fn get_opt(buf: &[u8], pos: &mut usize) -> Option<Option<u64>> {
    match *buf.get(*pos)? {
        0 => {
            *pos += 1;
            Some(None)
        }
        1 => {
            *pos += 1;
            Some(Some(get_uvarint(buf, pos)?))
        }
        _ => None,
    }
}

fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(u8::from(b));
}

fn get_bool(buf: &[u8], pos: &mut usize) -> Option<bool> {
    let b = *buf.get(*pos)?;
    *pos += 1;
    match b {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> Option<String> {
    let len = get_uvarint(buf, pos)? as usize;
    let end = pos.checked_add(len).filter(|&e| e <= buf.len())?;
    let s = std::str::from_utf8(&buf[*pos..end]).ok()?;
    *pos = end;
    Some(s.to_owned())
}

fn put_txn(out: &mut Vec<u8>, t: TxnId) {
    put_uvarint(out, t.0);
}

fn get_txn(buf: &[u8], pos: &mut usize) -> Option<TxnId> {
    Some(TxnId(get_uvarint(buf, pos)?))
}

fn put_resource(out: &mut Vec<u8>, r: ResourceId) {
    put_uvarint(out, u64::from(r.object.0));
    put_uvarint(out, u64::from(r.member.0));
}

fn get_resource(buf: &[u8], pos: &mut usize) -> Option<ResourceId> {
    let object = ObjectId(u32::try_from(get_uvarint(buf, pos)?).ok()?);
    let member = MemberId(u16::try_from(get_uvarint(buf, pos)?).ok()?);
    Some(ResourceId { object, member })
}

fn put_class(out: &mut Vec<u8>, c: OpClass) {
    out.push(match c {
        OpClass::Read => 0,
        OpClass::Insert => 1,
        OpClass::Delete => 2,
        OpClass::UpdateAssign => 3,
        OpClass::UpdateAddSub => 4,
        OpClass::UpdateMulDiv => 5,
    });
}

fn get_class(buf: &[u8], pos: &mut usize) -> Option<OpClass> {
    let b = *buf.get(*pos)?;
    *pos += 1;
    Some(match b {
        0 => OpClass::Read,
        1 => OpClass::Insert,
        2 => OpClass::Delete,
        3 => OpClass::UpdateAssign,
        4 => OpClass::UpdateAddSub,
        5 => OpClass::UpdateMulDiv,
        _ => return None,
    })
}

fn put_reason(out: &mut Vec<u8>, r: AbortReason) {
    out.push(match r {
        AbortReason::Deadlock => 0,
        AbortReason::LockTimeout => 1,
        AbortReason::SleepTimeout => 2,
        AbortReason::SleepConflict => 3,
        AbortReason::User => 4,
        AbortReason::Constraint => 5,
        AbortReason::Admission => 6,
        AbortReason::SstFailure => 7,
        AbortReason::Validation => 8,
    });
}

fn get_reason(buf: &[u8], pos: &mut usize) -> Option<AbortReason> {
    let b = *buf.get(*pos)?;
    *pos += 1;
    Some(match b {
        0 => AbortReason::Deadlock,
        1 => AbortReason::LockTimeout,
        2 => AbortReason::SleepTimeout,
        3 => AbortReason::SleepConflict,
        4 => AbortReason::User,
        5 => AbortReason::Constraint,
        6 => AbortReason::Admission,
        7 => AbortReason::SstFailure,
        8 => AbortReason::Validation,
        _ => return None,
    })
}

fn put_origin(out: &mut Vec<u8>, o: AbortOrigin) {
    out.push(match o {
        AbortOrigin::User => 0,
        AbortOrigin::Request => 1,
        AbortOrigin::Commit => 2,
        AbortOrigin::Awake => 3,
        AbortOrigin::Tick => 4,
        AbortOrigin::Promotion => 5,
    });
}

fn get_origin(buf: &[u8], pos: &mut usize) -> Option<AbortOrigin> {
    let b = *buf.get(*pos)?;
    *pos += 1;
    Some(match b {
        0 => AbortOrigin::User,
        1 => AbortOrigin::Request,
        2 => AbortOrigin::Commit,
        3 => AbortOrigin::Awake,
        4 => AbortOrigin::Tick,
        5 => AbortOrigin::Promotion,
        _ => return None,
    })
}

fn put_span_kind(out: &mut Vec<u8>, k: &SpanKind) {
    match k {
        SpanKind::Session => out.push(0),
        SpanKind::AdmissionWait => out.push(1),
        SpanKind::Work => out.push(2),
        SpanKind::Sleep => out.push(3),
        SpanKind::Blocked { resource } => {
            out.push(4);
            put_resource(out, *resource);
        }
        SpanKind::Reconcile => out.push(5),
        SpanKind::SstAttempt { attempt } => {
            out.push(6);
            put_uvarint(out, u64::from(*attempt));
        }
        SpanKind::Commit => out.push(7),
        SpanKind::Abort => out.push(8),
        SpanKind::Queued => out.push(9),
    }
}

fn get_span_kind(buf: &[u8], pos: &mut usize) -> Option<SpanKind> {
    let b = *buf.get(*pos)?;
    *pos += 1;
    Some(match b {
        0 => SpanKind::Session,
        1 => SpanKind::AdmissionWait,
        2 => SpanKind::Work,
        3 => SpanKind::Sleep,
        4 => SpanKind::Blocked { resource: get_resource(buf, pos)? },
        5 => SpanKind::Reconcile,
        6 => SpanKind::SstAttempt { attempt: u32::try_from(get_uvarint(buf, pos)?).ok()? },
        7 => SpanKind::Commit,
        8 => SpanKind::Abort,
        9 => SpanKind::Queued,
        _ => return None,
    })
}

/// Appends the varint encoding of `ev` (tag byte + fields) to `out`.
pub fn encode_event(ev: &TraceEvent, out: &mut Vec<u8>) {
    match ev {
        TraceEvent::TxnBegin { txn } => {
            out.push(0);
            put_txn(out, *txn);
        }
        TraceEvent::OpRequested { txn, resource, class } => {
            out.push(1);
            put_txn(out, *txn);
            put_resource(out, *resource);
            put_class(out, *class);
        }
        TraceEvent::OpGranted { txn, resource, class, shared, bypassed_sleeper } => {
            out.push(2);
            put_txn(out, *txn);
            put_resource(out, *resource);
            put_class(out, *class);
            put_bool(out, *shared);
            put_bool(out, *bypassed_sleeper);
        }
        TraceEvent::OpWaiting { txn, resource, class, queue_depth } => {
            out.push(3);
            put_txn(out, *txn);
            put_resource(out, *resource);
            put_class(out, *class);
            put_uvarint(out, u64::from(*queue_depth));
        }
        TraceEvent::StarvationDenied { txn, resource } => {
            out.push(4);
            put_txn(out, *txn);
            put_resource(out, *resource);
        }
        TraceEvent::AdmissionDenied { txn, resource } => {
            out.push(5);
            put_txn(out, *txn);
            put_resource(out, *resource);
        }
        TraceEvent::DeadlockVictim { txn, cycle } => {
            out.push(6);
            put_txn(out, *txn);
            put_uvarint(out, cycle.len() as u64);
            for t in cycle {
                put_txn(out, *t);
            }
        }
        TraceEvent::Reconciled { txn, resource } => {
            out.push(7);
            put_txn(out, *txn);
            put_resource(out, *resource);
        }
        TraceEvent::SstAttempt { txn, writes } => {
            out.push(8);
            put_txn(out, *txn);
            put_uvarint(out, u64::from(*writes));
        }
        TraceEvent::SstRetry { txn, attempt } => {
            out.push(9);
            put_txn(out, *txn);
            put_uvarint(out, u64::from(*attempt));
        }
        TraceEvent::SstApplied { txn } => {
            out.push(10);
            put_txn(out, *txn);
        }
        TraceEvent::Committed { txn } => {
            out.push(11);
            put_txn(out, *txn);
        }
        TraceEvent::Aborted { txn, reason, origin } => {
            out.push(12);
            put_txn(out, *txn);
            put_reason(out, *reason);
            put_origin(out, *origin);
        }
        TraceEvent::TxnSlept { txn } => {
            out.push(13);
            put_txn(out, *txn);
        }
        TraceEvent::TxnAwoke { txn } => {
            out.push(14);
            put_txn(out, *txn);
        }
        TraceEvent::LockGranted { txn, resource, exclusive } => {
            out.push(15);
            put_txn(out, *txn);
            put_resource(out, *resource);
            put_bool(out, *exclusive);
        }
        TraceEvent::LockUpgrade { txn, resource } => {
            out.push(16);
            put_txn(out, *txn);
            put_resource(out, *resource);
        }
        TraceEvent::LockWaiting { txn, resource, exclusive, queue_depth } => {
            out.push(17);
            put_txn(out, *txn);
            put_resource(out, *resource);
            put_bool(out, *exclusive);
            put_uvarint(out, u64::from(*queue_depth));
        }
        TraceEvent::EngineInsert { txn } => {
            out.push(18);
            put_txn(out, *txn);
        }
        TraceEvent::EngineUpdate { txn } => {
            out.push(19);
            put_txn(out, *txn);
        }
        TraceEvent::EngineDelete { txn } => {
            out.push(20);
            put_txn(out, *txn);
        }
        TraceEvent::EngineCommit { txn } => {
            out.push(21);
            put_txn(out, *txn);
        }
        TraceEvent::EngineAbort { txn } => {
            out.push(22);
            put_txn(out, *txn);
        }
        TraceEvent::GroupCommit { leader, members } => {
            out.push(23);
            put_txn(out, *leader);
            put_uvarint(out, u64::from(*members));
        }
        TraceEvent::WalFlush { lsn, bytes } => {
            out.push(24);
            put_uvarint(out, *lsn);
            put_uvarint(out, *bytes);
        }
        TraceEvent::SpanOpen { txn, kind, wall_us } => {
            out.push(25);
            put_txn(out, *txn);
            put_span_kind(out, kind);
            put_opt(out, *wall_us);
        }
        TraceEvent::SpanClose { txn, kind, wall_us } => {
            out.push(26);
            put_txn(out, *txn);
            put_span_kind(out, kind);
            put_opt(out, *wall_us);
        }
        TraceEvent::LinkDown { txn } => {
            out.push(27);
            put_txn(out, *txn);
        }
        TraceEvent::LinkUp { txn } => {
            out.push(28);
            put_txn(out, *txn);
        }
        TraceEvent::FaultInjected { site, action } => {
            out.push(29);
            put_str(out, site);
            put_str(out, action);
        }
        TraceEvent::Recovered { winners, records } => {
            out.push(30);
            put_uvarint(out, *winners);
            put_uvarint(out, *records);
        }
    }
}

/// Decodes one event at `*pos` (inverse of [`encode_event`]).
pub fn decode_event(buf: &[u8], pos: &mut usize) -> Option<TraceEvent> {
    let tag = *buf.get(*pos)?;
    *pos += 1;
    Some(match tag {
        0 => TraceEvent::TxnBegin { txn: get_txn(buf, pos)? },
        1 => TraceEvent::OpRequested {
            txn: get_txn(buf, pos)?,
            resource: get_resource(buf, pos)?,
            class: get_class(buf, pos)?,
        },
        2 => TraceEvent::OpGranted {
            txn: get_txn(buf, pos)?,
            resource: get_resource(buf, pos)?,
            class: get_class(buf, pos)?,
            shared: get_bool(buf, pos)?,
            bypassed_sleeper: get_bool(buf, pos)?,
        },
        3 => TraceEvent::OpWaiting {
            txn: get_txn(buf, pos)?,
            resource: get_resource(buf, pos)?,
            class: get_class(buf, pos)?,
            queue_depth: u32::try_from(get_uvarint(buf, pos)?).ok()?,
        },
        4 => TraceEvent::StarvationDenied {
            txn: get_txn(buf, pos)?,
            resource: get_resource(buf, pos)?,
        },
        5 => TraceEvent::AdmissionDenied {
            txn: get_txn(buf, pos)?,
            resource: get_resource(buf, pos)?,
        },
        6 => {
            let txn = get_txn(buf, pos)?;
            let n = get_uvarint(buf, pos)? as usize;
            if n > buf.len() {
                return None;
            }
            let mut cycle = Vec::with_capacity(n);
            for _ in 0..n {
                cycle.push(get_txn(buf, pos)?);
            }
            TraceEvent::DeadlockVictim { txn, cycle }
        }
        7 => TraceEvent::Reconciled { txn: get_txn(buf, pos)?, resource: get_resource(buf, pos)? },
        8 => TraceEvent::SstAttempt {
            txn: get_txn(buf, pos)?,
            writes: u32::try_from(get_uvarint(buf, pos)?).ok()?,
        },
        9 => TraceEvent::SstRetry {
            txn: get_txn(buf, pos)?,
            attempt: u32::try_from(get_uvarint(buf, pos)?).ok()?,
        },
        10 => TraceEvent::SstApplied { txn: get_txn(buf, pos)? },
        11 => TraceEvent::Committed { txn: get_txn(buf, pos)? },
        12 => TraceEvent::Aborted {
            txn: get_txn(buf, pos)?,
            reason: get_reason(buf, pos)?,
            origin: get_origin(buf, pos)?,
        },
        13 => TraceEvent::TxnSlept { txn: get_txn(buf, pos)? },
        14 => TraceEvent::TxnAwoke { txn: get_txn(buf, pos)? },
        15 => TraceEvent::LockGranted {
            txn: get_txn(buf, pos)?,
            resource: get_resource(buf, pos)?,
            exclusive: get_bool(buf, pos)?,
        },
        16 => {
            TraceEvent::LockUpgrade { txn: get_txn(buf, pos)?, resource: get_resource(buf, pos)? }
        }
        17 => TraceEvent::LockWaiting {
            txn: get_txn(buf, pos)?,
            resource: get_resource(buf, pos)?,
            exclusive: get_bool(buf, pos)?,
            queue_depth: u32::try_from(get_uvarint(buf, pos)?).ok()?,
        },
        18 => TraceEvent::EngineInsert { txn: get_txn(buf, pos)? },
        19 => TraceEvent::EngineUpdate { txn: get_txn(buf, pos)? },
        20 => TraceEvent::EngineDelete { txn: get_txn(buf, pos)? },
        21 => TraceEvent::EngineCommit { txn: get_txn(buf, pos)? },
        22 => TraceEvent::EngineAbort { txn: get_txn(buf, pos)? },
        23 => TraceEvent::GroupCommit {
            leader: get_txn(buf, pos)?,
            members: u32::try_from(get_uvarint(buf, pos)?).ok()?,
        },
        24 => TraceEvent::WalFlush { lsn: get_uvarint(buf, pos)?, bytes: get_uvarint(buf, pos)? },
        25 => TraceEvent::SpanOpen {
            txn: get_txn(buf, pos)?,
            kind: get_span_kind(buf, pos)?,
            wall_us: get_opt(buf, pos)?,
        },
        26 => TraceEvent::SpanClose {
            txn: get_txn(buf, pos)?,
            kind: get_span_kind(buf, pos)?,
            wall_us: get_opt(buf, pos)?,
        },
        27 => TraceEvent::LinkDown { txn: get_txn(buf, pos)? },
        28 => TraceEvent::LinkUp { txn: get_txn(buf, pos)? },
        29 => TraceEvent::FaultInjected { site: get_str(buf, pos)?, action: get_str(buf, pos)? },
        30 => TraceEvent::Recovered {
            winners: get_uvarint(buf, pos)?,
            records: get_uvarint(buf, pos)?,
        },
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Record payloads
// ---------------------------------------------------------------------------

const KIND_META: u8 = 0;
const KIND_EVENT: u8 = 1;
const KIND_SNAPSHOT: u8 = 2;
const KIND_DROP: u8 = 3;

/// One decoded recorder record.
#[derive(Clone, Debug, PartialEq)]
pub enum RecorderEntry {
    /// Stream metadata, written once when recording starts.
    Meta {
        /// Number of front-end shards feeding this recorder.
        shards: u32,
        /// Wall-clock microseconds (UNIX epoch) when recording started,
        /// when the host had a real clock.
        wall_base_us: Option<u64>,
    },
    /// One trace record from one shard's tracer ([`ENGINE_SHARD`] for the
    /// engine-level tracer).
    Event {
        /// Emitting shard.
        shard: u32,
        /// The record, exactly as the tracer emitted it.
        rec: TraceRecord,
    },
    /// A periodic metrics snapshot, as **deltas** against the previous
    /// snapshot record (the first snapshot's deltas are absolute). Summing
    /// the deltas of every surviving snapshot yields totals over the
    /// recorded window even after ring wraps discarded early history.
    Snapshot {
        /// Wall clock at the snapshot, when the host had one.
        wall_us: Option<u64>,
        /// Virtual time at the snapshot.
        at: Timestamp,
        /// Per-[`Ctr`] counter deltas, in [`Ctr::ALL`] order.
        counters: Vec<u64>,
        /// Per-[`CommitPhase`] exclusive-ns deltas, in taxonomy order.
        phase_ns: Vec<u64>,
        /// Per-[`CommitPhase`] op-count deltas, in taxonomy order.
        phase_ops: Vec<u64>,
    },
    /// `count` records were dropped (I/O error or oversized) immediately
    /// before this point in the stream.
    Drop {
        /// How many records were lost.
        count: u64,
    },
}

/// Encodes one record payload (sequence + kind + body) into `out`.
pub fn encode_entry(seq: u64, entry: &RecorderEntry, out: &mut Vec<u8>) {
    put_uvarint(out, seq);
    match entry {
        RecorderEntry::Meta { shards, wall_base_us } => {
            out.push(KIND_META);
            put_uvarint(out, u64::from(*shards));
            put_opt(out, *wall_base_us);
        }
        RecorderEntry::Event { shard, rec } => {
            out.push(KIND_EVENT);
            put_uvarint(out, u64::from(*shard));
            put_uvarint(out, rec.seq);
            put_uvarint(out, rec.at.0);
            put_opt(out, rec.thread);
            encode_event(&rec.event, out);
        }
        RecorderEntry::Snapshot { wall_us, at, counters, phase_ns, phase_ops } => {
            out.push(KIND_SNAPSHOT);
            put_opt(out, *wall_us);
            put_uvarint(out, at.0);
            put_uvarint(out, counters.len() as u64);
            for &c in counters {
                put_uvarint(out, c);
            }
            put_uvarint(out, phase_ns.len() as u64);
            for &n in phase_ns {
                put_uvarint(out, n);
            }
            for &n in phase_ops {
                put_uvarint(out, n);
            }
        }
        RecorderEntry::Drop { count } => {
            out.push(KIND_DROP);
            put_uvarint(out, *count);
        }
    }
}

/// Decodes one record payload (inverse of [`encode_entry`]). `None` if the
/// payload is truncated or from an unknown format.
#[must_use]
pub fn decode_entry(payload: &[u8]) -> Option<(u64, RecorderEntry)> {
    let mut pos = 0usize;
    let seq = get_uvarint(payload, &mut pos)?;
    let kind = *payload.get(pos)?;
    pos += 1;
    let entry = match kind {
        KIND_META => RecorderEntry::Meta {
            shards: u32::try_from(get_uvarint(payload, &mut pos)?).ok()?,
            wall_base_us: get_opt(payload, &mut pos)?,
        },
        KIND_EVENT => {
            let shard = u32::try_from(get_uvarint(payload, &mut pos)?).ok()?;
            let rec = TraceRecord {
                seq: get_uvarint(payload, &mut pos)?,
                at: Timestamp(get_uvarint(payload, &mut pos)?),
                thread: get_opt(payload, &mut pos)?,
                event: decode_event(payload, &mut pos)?,
            };
            RecorderEntry::Event { shard, rec }
        }
        KIND_SNAPSHOT => {
            let wall_us = get_opt(payload, &mut pos)?;
            let at = Timestamp(get_uvarint(payload, &mut pos)?);
            let nc = get_uvarint(payload, &mut pos)? as usize;
            if nc > payload.len() {
                return None;
            }
            let mut counters = Vec::with_capacity(nc);
            for _ in 0..nc {
                counters.push(get_uvarint(payload, &mut pos)?);
            }
            let np = get_uvarint(payload, &mut pos)? as usize;
            if np > payload.len() {
                return None;
            }
            let mut phase_ns = Vec::with_capacity(np);
            for _ in 0..np {
                phase_ns.push(get_uvarint(payload, &mut pos)?);
            }
            let mut phase_ops = Vec::with_capacity(np);
            for _ in 0..np {
                phase_ops.push(get_uvarint(payload, &mut pos)?);
            }
            RecorderEntry::Snapshot { wall_us, at, counters, phase_ns, phase_ops }
        }
        KIND_DROP => RecorderEntry::Drop { count: get_uvarint(payload, &mut pos)? },
        _ => return None,
    };
    if pos != payload.len() {
        return None; // trailing bytes: not a record this version wrote
    }
    Some((seq, entry))
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

/// Health counters of a live [`Recorder`], reported with every fleet
/// snapshot taken while it is attached.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct RecorderStats {
    /// Frames successfully handed to the device.
    pub frames: u64,
    /// Bytes successfully handed to the device (frames + headers).
    pub bytes: u64,
    /// Records lost to I/O errors or oversized payloads.
    pub dropped: u64,
    /// Ring wraps: each one discarded the oldest half-segment wholesale.
    pub wraps: u64,
    /// Write/sync errors observed (each also counts its records dropped).
    pub io_errors: u64,
    /// Bytes buffered in memory but not yet written to the file —
    /// recording lag; nonzero only in buffered mode between flushes.
    pub lag_bytes: u64,
}

struct RecorderDev {
    file: std::fs::File,
    seg_capacity: usize,
    /// Active half-segment (0 or 1).
    active: usize,
    /// Logical bytes in the active segment (written + buffered).
    seg_len: usize,
    /// Bytes of the active segment already in the file.
    written: usize,
    /// Frames assembled but not yet written (buffered mode).
    buf: Vec<u8>,
    /// Next record sequence number (globally monotone across wraps).
    seq: u64,
    /// Write every frame through to the file as it is appended.
    durable: bool,
    /// Drops to announce via a `Drop` record before the next append.
    pending_drops: u64,
    /// Absolute counter values at the previous snapshot record.
    prev_counters: Vec<u64>,
    prev_phase_ns: Vec<u64>,
    prev_phase_ops: Vec<u64>,
    stats: RecorderStats,
    scratch: Vec<u8>,
}

impl RecorderDev {
    fn seg_base(&self, seg: usize) -> u64 {
        (HEADER + seg * self.seg_capacity) as u64
    }

    /// Writes the buffered frames to the file at the active segment's
    /// current write offset. On error the buffered records are lost:
    /// they are counted as drops and the logical length rolls back.
    fn write_out(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let off = self.seg_base(self.active) + self.written as u64;
        let res = self.file.seek(SeekFrom::Start(off)).and_then(|_| self.file.write_all(&self.buf));
        match res {
            Ok(()) => {
                self.written += self.buf.len();
            }
            Err(_) => {
                self.stats.io_errors += 1;
                // Whole buffered run lost; callers find out via the next
                // Drop record. Frame count is approximate here (we do not
                // re-parse the buffer), so count at least one.
                self.stats.dropped += 1;
                self.pending_drops += 1;
                self.seg_len = self.written;
            }
        }
        self.buf.clear();
        self.stats.lag_bytes = 0;
    }

    /// Appends one already-encoded payload as a frame, wrapping segments
    /// as needed. Returns `false` if the record was dropped.
    fn append_payload(&mut self) -> bool {
        let frame_len = self.scratch.len() + crate::frame::FRAME_HEADER;
        if frame_len > self.seg_capacity {
            self.stats.dropped += 1;
            self.pending_drops += 1;
            return false;
        }
        if self.seg_len + frame_len > self.seg_capacity {
            // Wrap: settle the active segment, then overwrite the other
            // one from its start (its previous generation is dropped).
            self.write_out();
            self.active = 1 - self.active;
            self.seg_len = 0;
            self.written = 0;
            self.stats.wraps += 1;
        }
        let before = self.buf.len();
        write_frame(&self.scratch, &mut self.buf);
        self.seg_len += self.buf.len() - before;
        self.stats.frames += 1;
        self.stats.bytes += (self.buf.len() - before) as u64;
        if self.durable || self.buf.len() >= WRITE_BATCH {
            self.write_out();
        } else {
            self.stats.lag_bytes = self.buf.len() as u64;
        }
        true
    }

    /// Encodes `entry` into the scratch buffer and appends it.
    fn encode_and_append(&mut self, entry: &RecorderEntry) -> bool {
        let seq = self.seq;
        self.seq += 1;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        encode_entry(seq, entry, &mut scratch);
        self.scratch = scratch;
        self.append_payload()
    }

    /// Appends `entry`, announcing any pending drops with a `Drop` record
    /// first so readers see an explicit hole, not silent loss.
    fn append(&mut self, entry: &RecorderEntry) {
        if self.pending_drops > 0 {
            let count = self.pending_drops;
            self.pending_drops = 0;
            self.encode_and_append(&RecorderEntry::Drop { count });
        }
        self.encode_and_append(entry);
    }

    fn flush(&mut self) {
        self.write_out();
        if self.file.sync_data().is_err() {
            self.stats.io_errors += 1;
        }
    }
}

/// Handle to a live flight-recorder file. Cheap to clone; all clones and
/// every [`RecorderSink`] share one device behind a mutex.
#[derive(Clone)]
pub struct Recorder {
    dev: Arc<Mutex<RecorderDev>>,
    path: PathBuf,
}

impl Recorder {
    /// Creates (truncating) a recorder file at `path` with two
    /// half-segments of `seg_capacity` bytes each. With `durable` set,
    /// every record is written through to the file as it is appended (a
    /// crash loses at most the record in flight); otherwise records buffer
    /// in memory until [`Recorder::flush`], a segment settles, or 64 KiB
    /// are pending. `InvalidInput` if a segment cannot hold one frame.
    pub fn create(path: &Path, seg_capacity: u32, durable: bool) -> io::Result<Recorder> {
        if (seg_capacity as usize) < MIN_FRAME {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "segment below one frame"));
        }
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let mut header = Vec::with_capacity(HEADER);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&seg_capacity.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        file.write_all(&header)?;
        let dev = RecorderDev {
            file,
            seg_capacity: seg_capacity as usize,
            active: 0,
            seg_len: 0,
            written: 0,
            buf: Vec::new(),
            seq: 0,
            durable,
            pending_drops: 0,
            prev_counters: vec![0; Ctr::COUNT],
            prev_phase_ns: vec![0; CommitPhase::COUNT],
            prev_phase_ops: vec![0; CommitPhase::COUNT],
            stats: RecorderStats::default(),
            scratch: Vec::new(),
        };
        Ok(Recorder { dev: Arc::new(Mutex::new(dev)), path: path.to_path_buf() })
    }

    /// The file this recorder writes.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes the stream [`RecorderEntry::Meta`] record. Call once, before
    /// any events.
    pub fn write_meta(&self, shards: u32, wall_base_us: Option<u64>) {
        self.dev.lock().append(&RecorderEntry::Meta { shards, wall_base_us });
    }

    /// A [`Sink`] feeding this recorder, tagging records with `shard`
    /// (use [`ENGINE_SHARD`] for the engine-level tracer).
    #[must_use]
    pub fn sink(&self, shard: u32) -> RecorderSink {
        RecorderSink { dev: Arc::clone(&self.dev), shard }
    }

    /// Appends a metrics snapshot record: deltas of `reg`'s counters and
    /// `prof`'s phase totals against the previous snapshot. The wall stamp
    /// comes from the sanctioned [`crate::wallclock::wall_now_us`] seam.
    pub fn snapshot_delta(&self, at: Timestamp, reg: &MetricsRegistry, prof: &PhaseProfile) {
        let wall_us = crate::wallclock::wall_now_us();
        let mut dev = self.dev.lock();
        let mut counters = Vec::with_capacity(Ctr::COUNT);
        for (i, &c) in Ctr::ALL.iter().enumerate() {
            let now = reg.counter(c);
            counters.push(now.saturating_sub(dev.prev_counters[i]));
            dev.prev_counters[i] = now;
        }
        let mut phase_ns = Vec::with_capacity(CommitPhase::COUNT);
        let mut phase_ops = Vec::with_capacity(CommitPhase::COUNT);
        for (i, &p) in CommitPhase::ALL.iter().enumerate() {
            let ns = prof.ns(p);
            let ops = prof.ops(p);
            phase_ns.push(ns.saturating_sub(dev.prev_phase_ns[i]));
            phase_ops.push(ops.saturating_sub(dev.prev_phase_ops[i]));
            dev.prev_phase_ns[i] = ns;
            dev.prev_phase_ops[i] = ops;
        }
        dev.append(&RecorderEntry::Snapshot { wall_us, at, counters, phase_ns, phase_ops });
    }

    /// Writes any buffered frames and syncs file data to the device.
    pub fn flush(&self) {
        self.dev.lock().flush();
    }

    /// Current health counters.
    #[must_use]
    pub fn stats(&self) -> RecorderStats {
        self.dev.lock().stats.clone()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Recorder").field("path", &self.path).field("stats", &stats).finish()
    }
}

/// A [`Sink`] writing every record to a shared [`Recorder`], tagged with
/// the emitting shard. Drop accounting lives in [`RecorderStats`] (global
/// to the recorder), not per sink — `dropped()` here reports 0 so fleet
/// `trace_dropped` keeps meaning "events lost before any sink saw them".
pub struct RecorderSink {
    dev: Arc<Mutex<RecorderDev>>,
    shard: u32,
}

impl Sink for RecorderSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.dev.lock().append(&RecorderEntry::Event { shard: self.shard, rec: rec.clone() });
    }

    fn flush(&mut self) {
        self.dev.lock().flush();
    }
}

// ---------------------------------------------------------------------------
// The reader
// ---------------------------------------------------------------------------

/// Everything recovered from a recorder file of a (possibly dead) process.
#[derive(Clone, Debug, Default)]
pub struct RecorderReplay {
    /// Shard count from the stream's `Meta` record (0 if it was lost).
    pub shards: u32,
    /// Wall clock at recording start, if the `Meta` record survived.
    pub wall_base_us: Option<u64>,
    /// Surviving records in sequence order (`Meta` included).
    pub entries: Vec<RecorderEntry>,
    /// Total records announced lost by `Drop` markers.
    pub dropped: u64,
    /// Records missing from the recovered window: sequence-number holes,
    /// i.e. history discarded by ring wraps. A dropped record leaves a hole
    /// too; those its drop marker announces are counted in `dropped` only.
    pub gaps: u64,
    /// First and last recovered sequence numbers (0/0 when empty).
    pub seq_range: (u64, u64),
}

impl RecorderReplay {
    /// `Ok` when the window is the whole stream: nothing wrapped away and
    /// no drop marker. Otherwise a message naming both counts.
    ///
    /// # Errors
    /// The stream has gaps or drops.
    pub fn check_complete(&self) -> Result<(), String> {
        if self.gaps == 0 && self.dropped == 0 {
            return Ok(());
        }
        Err(format!("incomplete trace: {} gap(s), {} dropped", self.gaps, self.dropped))
    }

    /// The trace records of one shard, in emission order.
    #[must_use]
    pub fn shard_records(&self, shard: u32) -> Vec<TraceRecord> {
        self.entries
            .iter()
            .filter_map(|e| match e {
                RecorderEntry::Event { shard: s, rec } if *s == shard => Some(rec.clone()),
                _ => None,
            })
            .collect()
    }

    /// Per-shard trace records (engine under [`ENGINE_SHARD`]), by shard.
    #[must_use]
    pub fn records_by_shard(&self) -> std::collections::BTreeMap<u32, Vec<TraceRecord>> {
        let mut by_shard = std::collections::BTreeMap::<u32, Vec<TraceRecord>>::new();
        for e in &self.entries {
            if let RecorderEntry::Event { shard, rec } = e {
                by_shard.entry(*shard).or_default().push(rec.clone());
            }
        }
        by_shard
    }
}

/// Scans one segment's bytes: intact frames in order, stopping at the
/// first torn/corrupt frame **or** the first sequence non-increase (a
/// stale frame from an overwritten generation).
#[must_use]
pub fn decode_segment(bytes: &[u8]) -> Vec<(u64, RecorderEntry)> {
    let mut out: Vec<(u64, RecorderEntry)> = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match next_frame(bytes, pos) {
            FrameStep::Frame { payload, end } => {
                match decode_entry(payload) {
                    Some((seq, entry)) => {
                        if out.last().is_some_and(|(prev, _)| seq <= *prev) {
                            break; // stale generation behind the write head
                        }
                        out.push((seq, entry));
                    }
                    None => break, // valid frame, foreign payload: stop here
                }
                pos = end;
            }
            FrameStep::Torn | FrameStep::Corrupt => break,
        }
    }
    out
}

/// Opens and reconstructs a recorder file (typically from a dead process).
/// Torn tails truncate cleanly; ring wraps surface as sequence gaps.
pub fn read_recorder(path: &Path) -> io::Result<RecorderReplay> {
    let mut file = OpenOptions::new().read(true).open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    decode_recorder_bytes(&bytes)
}

/// [`read_recorder`] over an already-loaded byte image. A header whose
/// segment capacity cannot hold one frame, or is shorter than the file,
/// is `InvalidData`, not an empty trace.
pub fn decode_recorder_bytes(bytes: &[u8]) -> io::Result<RecorderReplay> {
    if bytes.len() < HEADER || &bytes[..8] != MAGIC {
        return Err(invalid("not a recorder file".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap_or([0; 4]));
    if version != VERSION {
        return Err(invalid(format!("unsupported recorder version {version}")));
    }
    let cap = u32::from_le_bytes(bytes[12..16].try_into().unwrap_or([0; 4])) as usize;
    if cap < MIN_FRAME || (bytes.len() - HEADER) as u64 > 2 * cap as u64 {
        return Err(invalid(format!("segment capacity {cap} for {} bytes", bytes.len())));
    }
    let seg = |i: usize| -> &[u8] {
        let start = (HEADER + i * cap).min(bytes.len());
        let end = (HEADER + (i + 1) * cap).min(bytes.len());
        &bytes[start..end]
    };
    let mut records = decode_segment(seg(0));
    records.extend(decode_segment(seg(1)));
    records.sort_by_key(|(seq, _)| *seq);
    records.dedup_by_key(|(seq, _)| *seq);

    let mut replay = RecorderReplay::default();
    if let (Some((first, _)), Some((last, _))) = (records.first(), records.last()) {
        replay.seq_range = (*first, *last);
        // Sequence numbers start at 0, so anything missing below `last`
        // — a wrapped-away prefix or an interior hole — is a gap.
        replay.gaps = (*last + 1).saturating_sub(records.len() as u64);
    }
    for (_, entry) in records {
        match &entry {
            RecorderEntry::Meta { shards, wall_base_us } => {
                replay.shards = *shards;
                replay.wall_base_us = *wall_base_us;
            }
            RecorderEntry::Drop { count } => replay.dropped += count,
            _ => {}
        }
        replay.entries.push(entry);
    }
    replay.gaps = replay.gaps.saturating_sub(replay.dropped);
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pstm_rec_test_{}_{name}.rec", std::process::id()));
        p
    }

    fn ev(seq: u64, at: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, at: Timestamp(at), thread: Some(0), event }
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 129, 16_383, 16_384, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos), Some(v), "value {v}");
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn entry_round_trips() {
        let entries = [
            RecorderEntry::Meta { shards: 4, wall_base_us: Some(123_456) },
            RecorderEntry::Event {
                shard: 2,
                rec: ev(7, 11, TraceEvent::TxnBegin { txn: TxnId(9) }),
            },
            RecorderEntry::Event {
                shard: ENGINE_SHARD,
                rec: ev(8, 12, TraceEvent::EngineCommit { txn: TxnId(9) }),
            },
            RecorderEntry::Snapshot {
                wall_us: None,
                at: Timestamp(99),
                counters: vec![1; Ctr::COUNT],
                phase_ns: vec![5; CommitPhase::COUNT],
                phase_ops: vec![2; CommitPhase::COUNT],
            },
            RecorderEntry::Drop { count: 3 },
        ];
        for (i, entry) in entries.iter().enumerate() {
            let mut buf = Vec::new();
            encode_entry(i as u64, entry, &mut buf);
            let (seq, back) = decode_entry(&buf).expect("decode");
            assert_eq!(seq, i as u64);
            assert_eq!(&back, entry);
        }
    }

    #[test]
    fn write_read_round_trip_through_file() {
        let path = tmp("round_trip");
        let rec = Recorder::create(&path, 1 << 16, true).unwrap();
        rec.write_meta(2, Some(42));
        let mut sink0 = rec.sink(0);
        let mut sink_engine = rec.sink(ENGINE_SHARD);
        sink0.record(&ev(0, 5, TraceEvent::TxnBegin { txn: TxnId(1) }));
        sink_engine.record(&ev(0, 6, TraceEvent::EngineCommit { txn: TxnId(1) }));
        sink0.record(&ev(1, 7, TraceEvent::Committed { txn: TxnId(1) }));
        rec.flush();

        let replay = read_recorder(&path).unwrap();
        assert_eq!(replay.shards, 2);
        assert_eq!(replay.wall_base_us, Some(42));
        assert_eq!(replay.dropped, 0);
        assert_eq!(replay.gaps, 0);
        assert_eq!(replay.shard_records(0).len(), 2);
        assert_eq!(replay.shard_records(ENGINE_SHARD).len(), 1);
        let stats = rec.stats();
        assert_eq!(stats.frames, 4); // meta + 3 events
        assert_eq!(stats.dropped, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn buffered_mode_lags_until_flush() {
        let path = tmp("buffered");
        let rec = Recorder::create(&path, 1 << 16, false).unwrap();
        let mut sink = rec.sink(0);
        sink.record(&ev(0, 1, TraceEvent::TxnBegin { txn: TxnId(1) }));
        assert!(rec.stats().lag_bytes > 0, "unbuffered before flush");
        // Nothing but the header is on disk yet.
        let replay = read_recorder(&path).unwrap();
        assert!(replay.entries.is_empty());
        rec.flush();
        assert_eq!(rec.stats().lag_bytes, 0);
        let replay = read_recorder(&path).unwrap();
        assert_eq!(replay.entries.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ring_wrap_keeps_the_newest_suffix() {
        let path = tmp("wrap");
        // Tiny segments: force many wraps.
        let rec = Recorder::create(&path, 256, true).unwrap();
        let mut sink = rec.sink(0);
        for i in 0..200u64 {
            sink.record(&ev(i, i, TraceEvent::TxnBegin { txn: TxnId(i) }));
        }
        rec.flush();
        let stats = rec.stats();
        assert!(stats.wraps >= 2, "expected wraps, got {}", stats.wraps);
        assert_eq!(stats.dropped, 0);

        let replay = read_recorder(&path).unwrap();
        assert!(!replay.entries.is_empty());
        assert!(replay.gaps > 0, "wraps must surface as sequence gaps");
        // The recovered window is a *suffix*: the last record written must
        // be the last record recovered, and shard seqs must be contiguous
        // ascending within the window.
        let recs = replay.shard_records(0);
        assert_eq!(recs.last().unwrap().seq, 199);
        assert!(recs.windows(2).all(|w| w[1].seq == w[0].seq + 1), "window must be contiguous");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_truncates_cleanly_at_every_cut() {
        let path = tmp("torn");
        let rec = Recorder::create(&path, 1 << 16, true).unwrap();
        let mut sink = rec.sink(0);
        for i in 0..10u64 {
            sink.record(&ev(i, i, TraceEvent::Committed { txn: TxnId(i) }));
        }
        rec.flush();
        let full = std::fs::read(&path).unwrap();
        let full_n = decode_recorder_bytes(&full).unwrap().entries.len();
        assert_eq!(full_n, 10);
        let mut seen = std::collections::BTreeSet::new();
        for cut in HEADER..=full.len() {
            let replay = decode_recorder_bytes(&full[..cut]).unwrap();
            let n = replay.entries.len();
            assert!(n <= full_n);
            // Recovered count must be monotone in the cut position.
            seen.insert(n);
        }
        assert_eq!(*seen.iter().max().unwrap(), full_n);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_record_is_dropped_and_announced() {
        let path = tmp("oversized");
        let rec = Recorder::create(&path, 64, true).unwrap();
        let mut sink = rec.sink(0);
        let big = TraceEvent::FaultInjected { site: "x".repeat(500), action: "crash".into() };
        sink.record(&ev(0, 1, big));
        assert_eq!(rec.stats().dropped, 1);
        sink.record(&ev(1, 2, TraceEvent::TxnBegin { txn: TxnId(1) }));
        rec.flush();
        let replay = read_recorder(&path).unwrap();
        assert_eq!(replay.dropped, 1, "drop marker must announce the loss");
        assert_eq!(replay.gaps, 0, "the announced hole is a drop, not a gap");
        let err = replay.check_complete().unwrap_err();
        assert_eq!(err, "incomplete trace: 0 gap(s), 1 dropped");
        assert!(
            replay.entries.iter().any(|e| matches!(e, RecorderEntry::Event { .. })),
            "later records still land"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_deltas_accumulate() {
        let path = tmp("snapshot");
        let rec = Recorder::create(&path, 1 << 16, true).unwrap();
        let mut reg = MetricsRegistry::new();
        reg.apply(Timestamp(1), &TraceEvent::TxnBegin { txn: TxnId(1) });
        let prof = PhaseProfile::empty();
        rec.snapshot_delta(Timestamp(1), &reg, &prof);
        reg.apply(Timestamp(2), &TraceEvent::TxnBegin { txn: TxnId(2) });
        reg.apply(Timestamp(2), &TraceEvent::Committed { txn: TxnId(1) });
        rec.snapshot_delta(Timestamp(2), &reg, &prof);
        rec.flush();
        let replay = read_recorder(&path).unwrap();
        let snaps: Vec<_> = replay
            .entries
            .iter()
            .filter_map(|e| match e {
                RecorderEntry::Snapshot { counters, .. } => Some(counters.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(snaps.len(), 2);
        let begun = Ctr::Begun as usize;
        assert_eq!(snaps[0][begun], 1, "first snapshot carries absolutes");
        assert_eq!(snaps[1][begun], 1, "second carries the delta only");
        let total: u64 = snaps.iter().map(|s| s[begun]).sum();
        assert_eq!(total, 2, "summed deltas reconstruct the total");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_segment_capacity_is_rejected_not_read_as_empty() {
        let path = tmp("bad_cap");
        let rec = Recorder::create(&path, 1 << 16, true).unwrap();
        let mut sink = rec.sink(0);
        for i in 0..10u64 {
            sink.record(&ev(i, i, TraceEvent::Committed { txn: TxnId(i) }));
        }
        rec.flush();
        let mut bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(decode_recorder_bytes(&bytes).unwrap().entries.len(), 10);
        for cap in [0u32, 4, 8, 13] {
            bytes[12..16].copy_from_slice(&cap.to_le_bytes());
            let err = decode_recorder_bytes(&bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "capacity {cap}");
        }
    }

    #[test]
    fn garbage_file_is_rejected_not_panicking() {
        assert!(decode_recorder_bytes(b"junk").is_err());
        assert!(decode_recorder_bytes(&[]).is_err());
        let mut bad = Vec::new();
        bad.extend_from_slice(MAGIC);
        bad.extend_from_slice(&99u32.to_le_bytes());
        bad.extend_from_slice(&64u32.to_le_bytes());
        bad.extend_from_slice(&0u64.to_le_bytes());
        assert!(decode_recorder_bytes(&bad).is_err(), "unknown version rejected");
    }
}
