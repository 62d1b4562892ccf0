//! The write-ahead log.
//!
//! Each record is a binary payload wrapped in a checksummed frame:
//!
//! ```text
//! | len: u32 | checksum: u32 | payload: len bytes |
//! ```
//!
//! The checksum covers **both** the length field and the payload, so a
//! corrupted length that still points inside the buffer is detected as
//! corruption rather than silently truncating the log. A frame whose
//! claimed length runs past the end of the buffer is indistinguishable
//! from a write cut short by power loss and is treated as a torn tail —
//! the same stop-at-first-invalid-record policy real redo passes use.
//! The log lives in an in-memory byte buffer standing in for a log
//! device; [`Wal::crash_truncate`] chops an arbitrary suffix to emulate a
//! crash mid-write in tests.
//!
//! An [`Lsn`] is a frame's byte position since the log was created, and
//! a frame keeps it for life. The engine checkpoints itself once the log
//! holds as many bytes as an image of the heap would, then
//! [`Wal::forget`]s everything before the log end: the buffer starts
//! over, LSNs keep counting, so the device never holds more than about
//! one image's worth of log (see [`crate::engine`]).
//!
//! A payload is a tag byte naming the [`LogRecord`] variant followed by
//! its fields, integers little-endian, values and rows in the page
//! encoding of [`crate::codec`] (`value` = tag byte + fixed or
//! `u32`-length-prefixed body; `row` = `u16` column count + values).
//! The payload must be consumed exactly; trailing bytes are corruption.
//!
//! | tag | variant | body | bytes |
//! |-----|---------|------|-------|
//! | 1 | `Begin` | `txn: u64` | 9 |
//! | 2 | `Insert` | `txn: u64 · table: u32 · row_id: u64 · row` | 21 + row |
//! | 3 | `Update` | `txn: u64 · table: u32 · row_id: u64 · column: u32 · before: value · after: value` | 25 + values (43 for two ints) |
//! | 4 | `Delete` | `txn: u64 · table: u32 · row_id: u64 · row` | 21 + row |
//! | 5 | `Commit` | `txn: u64` | 9 |
//! | 6 | `Abort` | `txn: u64` | 9 |
//! | 8 | `CreateTable` | JSON of `(schema, constraints)` — DDL is cold and nested | 1 + body |
//! | 9 | `CreateIndex` | `table: u32 · column: u32` | 9 |
//!
//! With the 8-byte frame header a two-row integer commit
//! (`Begin · Update · Update · Commit`) is 17 + 51 + 51 + 17 = 136 bytes.
//! The log is never persisted — a save *is* a checkpoint
//! ([`crate::persist`]) — so there is exactly one payload format and no
//! reader for any earlier one.

use crate::catalog::TableId;
use crate::codec::{decode_record, encode_record};
use crate::row::{Row, RowId};
use pstm_obs::frame::{next_frame, write_frame_with, FrameStep, FRAME_HEADER};
use pstm_obs::{TraceEvent, Tracer};
use pstm_types::{FaultDecision, FaultSite, PstmError, PstmResult, SharedFaultHook, TxnId, Value};
use serde::{Deserialize, Serialize};

/// Log sequence number: the byte position of a record's frame since the
/// log was created (forgetting a prefix does not renumber what follows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Lsn(pub u64);

/// One redo/undo record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// Transaction start.
    Begin {
        /// The starting transaction.
        txn: TxnId,
    },
    /// Row inserted (after-image; `row_id` is the address that must be
    /// reproduced on redo).
    Insert {
        /// Writing transaction.
        txn: TxnId,
        /// Target table.
        table: TableId,
        /// Address the row received.
        row_id: RowId,
        /// Full after-image.
        row: Row,
    },
    /// Single-column update with before and after images.
    Update {
        /// Writing transaction.
        txn: TxnId,
        /// Target table.
        table: TableId,
        /// Updated row.
        row_id: RowId,
        /// Updated column index.
        column: usize,
        /// Value before the update (undo image).
        before: Value,
        /// Value after the update (redo image).
        after: Value,
    },
    /// Row deleted (before-image retained for undo).
    Delete {
        /// Writing transaction.
        txn: TxnId,
        /// Target table.
        table: TableId,
        /// Deleted row's address.
        row_id: RowId,
        /// Full before-image.
        row: Row,
    },
    /// Transaction committed — all its records are winners.
    Commit {
        /// The committing transaction.
        txn: TxnId,
    },
    /// Transaction aborted — its records are losers (runtime already
    /// undid them; recovery simply never redoes them).
    Abort {
        /// The aborting transaction.
        txn: TxnId,
    },
    /// DDL: a table was created (autocommitted — replayed unconditionally
    /// so post-checkpoint DDL survives a crash).
    CreateTable {
        /// The new table's schema.
        schema: crate::schema::TableSchema,
        /// Its CHECK constraints.
        constraints: Vec<crate::constraint::Constraint>,
    },
    /// DDL: a secondary index was created.
    CreateIndex {
        /// The indexed table.
        table: TableId,
        /// The indexed column.
        column: usize,
    },
}

impl LogRecord {
    /// The transaction a record belongs to, if any.
    #[must_use]
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Insert { txn, .. }
            | LogRecord::Update { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn } => Some(*txn),
            LogRecord::CreateTable { .. } | LogRecord::CreateIndex { .. } => None,
        }
    }
}

/// The append-only log device.
#[derive(Default)]
pub struct Wal {
    /// The retained log: every byte from LSN `origin` on.
    buf: Vec<u8>,
    /// LSN of `buf[0]` — how many bytes [`Wal::forget`] has dropped.
    origin: u64,
    /// Number of records appended — exposed for write-amplification stats.
    appended: u64,
    /// The frames staged for the next device write. Records are encoded
    /// straight into it ([`Wal::stage`]) and it is empty between writes,
    /// so appends in steady state allocate nothing.
    scratch: Vec<u8>,
    tracer: Tracer,
    /// Fault seam consulted on every append (see `pstm_types::fault`);
    /// `None` outside chaos runs.
    hook: Option<SharedFaultHook>,
}

impl Wal {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Wal::default()
    }

    /// Routes the log's flush events to `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs (or with `None`, removes) the fault seam consulted on
    /// every append. Heap mutations are logged *after* they happen in
    /// this engine, so a log write that fails cannot be survived by
    /// retrying — every non-`Proceed` decision here is fatal (see
    /// [`Wal::append`]).
    pub fn set_fault_hook(&mut self, hook: Option<SharedFaultHook>) {
        self.hook = hook;
    }

    /// Appends a record, returning its LSN.
    ///
    /// Every path that grows the log device goes through
    /// `Wal::flush_staged` (the `wal-seam` lint in `pstm-check` enforces
    /// it), which makes that the [`FaultSite::WalAppend`] seam: an
    /// injected `Io` or `Crash` kills the simulated process before any
    /// byte lands, and `Torn { keep }` writes only a prefix of the frame
    /// first — the torn page write recovery must then discard.
    pub fn append(&mut self, rec: &LogRecord) -> PstmResult<Lsn> {
        let _phase = pstm_obs::prof::PhaseTimer::start(pstm_obs::prof::CommitPhase::WalAppend);
        self.stage(|out| encode_record(rec, out))?;
        self.flush_staged()
    }

    /// Appends a group of records as **one framed flush**: every frame is
    /// staged in the scratch buffer and the log device grows by a single
    /// contiguous write, amortizing the flush cost the group-commit layer
    /// exists to save. Each record keeps its own frame and `Lsn`, so
    /// readers and recovery are oblivious to grouping.
    ///
    /// The fault seam is consulted **once per group** — the group is one
    /// device write. `Torn { keep }` keeps a prefix of the whole group
    /// (clamped so at least the final frame is torn): leading frames
    /// survive intact, the tear is confined to the tail, and recovery's
    /// stop-at-first-invalid policy discards exactly the torn suffix. An
    /// `Io`/`Crash` decision lands nothing, as in [`Wal::append`].
    pub fn append_batch(&mut self, recs: &[LogRecord]) -> PstmResult<Vec<Lsn>> {
        let _phase = pstm_obs::prof::PhaseTimer::start(pstm_obs::prof::CommitPhase::WalAppend);
        let mut lsns = Vec::with_capacity(recs.len());
        for rec in recs {
            lsns.push(self.scratch.len() as u64);
            if let Err(e) = self.stage(|out| encode_record(rec, out)) {
                self.discard_staged();
                return Err(e);
            }
        }
        let base = self.flush_staged()?;
        Ok(lsns.into_iter().map(|offset| Lsn(base.0 + offset)).collect())
    }

    /// Frames one record onto the end of the staged group; `encode`
    /// writes its payload in place (header back-filled — there is no
    /// intermediate payload buffer). Nothing reaches the device until
    /// [`Wal::flush_staged`]. A failing `encode` stages nothing; frames
    /// staged before it remain, for the caller to flush or
    /// [`Wal::discard_staged`].
    pub(crate) fn stage(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>) -> PstmResult<()>,
    ) -> PstmResult<()> {
        let start = self.scratch.len();
        let mut encoded = Ok(());
        write_frame_with(&mut self.scratch, |out| encoded = encode(out));
        if encoded.is_err() {
            self.scratch.truncate(start);
        }
        encoded
    }

    /// Drops every staged frame — the caller found, after staging part of
    /// a group, that the group must not be logged.
    pub(crate) fn discard_staged(&mut self) {
        self.scratch.clear();
    }

    /// Writes the staged group to the device as one contiguous write,
    /// returning the LSN of its first frame (the log end when nothing was
    /// staged). The one place the log grows, hence the one
    /// [`FaultSite::WalAppend`] seam, consulted once per write. Whatever
    /// the outcome, nothing stays staged.
    // pstm-lockgraph: flush-point
    pub(crate) fn flush_staged(&mut self) -> PstmResult<Lsn> {
        let base = self.origin + self.buf.len() as u64;
        if self.scratch.is_empty() {
            return Ok(Lsn(base));
        }
        let decision = self
            .hook
            .as_ref()
            .map_or(FaultDecision::Proceed, |hook| hook.decide(FaultSite::WalAppend));
        let action = match decision {
            FaultDecision::Proceed => None,
            FaultDecision::Torn { keep } => {
                // Clamp so the group is genuinely torn: at least the
                // final byte is lost and recovery sees a torn tail.
                let keep = (keep as usize).min(self.scratch.len() - 1);
                self.buf.extend_from_slice(&self.scratch[..keep]);
                Some("torn")
            }
            // The heap already mutated before a single-record append, so
            // an unlogged-but-applied write cannot be tolerated: a
            // failing log device means the process dies here.
            FaultDecision::Io | FaultDecision::Crash => Some("crash"),
        };
        if let Some(action) = action {
            self.scratch.clear();
            self.tracer.emit_unclocked(TraceEvent::FaultInjected {
                site: FaultSite::WalAppend.label(),
                action: action.into(),
            });
            return Err(PstmError::Crashed(FaultSite::WalAppend.label()));
        }
        self.buf.extend_from_slice(&self.scratch);
        // One WalFlush per record: replayed counters must not depend on
        // how appends were grouped. The frames are walked by the length
        // fields `stage` just wrote; the group's records go to the
        // engine-wide tracer in one critical section.
        let (scratch, appended) = (&self.scratch, &mut self.appended);
        let mut pos = 0usize;
        self.tracer.emit_unclocked_all(std::iter::from_fn(|| {
            let len = scratch.get(pos..pos + 4)?;
            let frame =
                FRAME_HEADER + u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
            let event = TraceEvent::WalFlush { lsn: base + pos as u64, bytes: frame as u64 };
            *appended += 1;
            pos += frame;
            Some(event)
        }));
        self.scratch.clear();
        Ok(Lsn(base))
    }

    /// Bytes the log retains (those since the last [`Wal::forget`]).
    #[must_use]
    pub fn len_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Number of records appended since creation.
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Reads every intact record from `from` onward. A torn final frame is
    /// silently dropped (that is the crash contract); corruption *before*
    /// the tail is an error, and so is a `from` the log no longer holds.
    pub fn records_from(&self, from: Lsn) -> PstmResult<Vec<(Lsn, LogRecord)>> {
        let mut out = Vec::new();
        let end = self.origin + self.buf.len() as u64;
        if from.0 < self.origin || from.0 > end {
            return Err(PstmError::WalCorrupt(format!(
                "start LSN {} outside the retained log {}..{end}",
                from.0, self.origin
            )));
        }
        let mut pos = (from.0 - self.origin) as usize;
        while pos < self.buf.len() {
            let lsn = Lsn(self.origin + pos as u64);
            match next_frame(&self.buf, pos) {
                FrameStep::Frame { payload, end } => {
                    let rec = decode_record(payload).map_err(|e| {
                        PstmError::WalCorrupt(format!("bad payload at LSN {}: {e}", lsn.0))
                    })?;
                    out.push((lsn, rec));
                    pos = end;
                }
                // Torn final write or a length running past the buffer:
                // stop replay here (the crash contract).
                FrameStep::Torn => break,
                FrameStep::Corrupt => {
                    return Err(PstmError::WalCorrupt(format!("bad checksum at LSN {}", lsn.0)));
                }
            }
        }
        Ok(out)
    }

    /// All intact records the log retains.
    pub fn records(&self) -> PstmResult<Vec<(Lsn, LogRecord)>> {
        self.records_from(Lsn(self.origin))
    }

    /// Forgets the whole log — the caller has just captured an image
    /// that covers it. The buffer keeps its capacity and LSNs keep
    /// counting: the next record's LSN is the old log end. Besides the
    /// chaos/recovery helpers below, the only way the log shrinks.
    pub fn forget(&mut self) {
        self.origin += self.buf.len() as u64;
        self.buf.clear();
    }

    /// Test/chaos hook: chops the last `bytes` bytes, emulating a crash
    /// that tore the final write.
    pub fn crash_truncate(&mut self, bytes: usize) {
        let keep = self.buf.len().saturating_sub(bytes);
        self.buf.truncate(keep);
    }

    /// Test/chaos hook: flips the byte at `offset` into the retained log
    /// to emulate media corruption.
    pub fn corrupt_byte(&mut self, offset: usize) {
        self.corrupt_byte_with(offset, 0xFF);
    }

    /// Test/chaos hook: XORs a byte with `mask` — finer-grained than
    /// [`Wal::corrupt_byte`] for targeting specific frame fields.
    pub fn corrupt_byte_with(&mut self, offset: usize, mask: u8) {
        if let Some(b) = self.buf.get_mut(offset) {
            *b ^= mask;
        }
    }

    /// Physically discards a torn tail left by a crash mid-append, so that
    /// post-recovery appends land on a frame boundary instead of behind
    /// the garbage (where a *second* recovery would stop at the tear and
    /// lose them). Returns the number of bytes dropped. Corruption before
    /// the tail is left untouched — that is a media error for
    /// [`Wal::records_from`] to report, not a tear to repair.
    pub fn trim_torn_tail(&mut self) -> usize {
        let mut pos = 0usize;
        while pos < self.buf.len() {
            match next_frame(&self.buf, pos) {
                FrameStep::Frame { end, .. } => pos = end,
                FrameStep::Torn => break,
                FrameStep::Corrupt => return 0, // mid-log corruption: not ours to repair
            }
        }
        let dropped = self.buf.len() - pos;
        self.buf.truncate(pos);
        dropped
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("origin", &self.origin)
            .field("bytes", &self.buf.len())
            .field("appended", &self.appended)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstm_types::Value;

    fn sample_records() -> Vec<LogRecord> {
        let t = TxnId(1);
        let table = TableId(0);
        vec![
            LogRecord::Begin { txn: t },
            LogRecord::Insert {
                txn: t,
                table,
                row_id: RowId::new(0, 0),
                row: Row::new(vec![Value::Int(1), Value::Int(100)]),
            },
            LogRecord::Update {
                txn: t,
                table,
                row_id: RowId::new(0, 0),
                column: 1,
                before: Value::Int(100),
                after: Value::Int(99),
            },
            LogRecord::Delete {
                txn: t,
                table,
                row_id: RowId::new(0, 0),
                row: Row::new(vec![Value::Int(1), Value::Int(99)]),
            },
            LogRecord::Commit { txn: t },
        ]
    }

    #[test]
    fn append_read_round_trip() {
        let mut wal = Wal::new();
        let recs = sample_records();
        let lsns: Vec<Lsn> = recs.iter().map(|r| wal.append(r).unwrap()).collect();
        assert!(lsns.windows(2).all(|w| w[0] < w[1]));
        let back = wal.records().unwrap();
        assert_eq!(back.len(), recs.len());
        for ((lsn, rec), (expect_lsn, expect)) in back.iter().zip(lsns.iter().zip(&recs)) {
            assert_eq!(lsn, expect_lsn);
            assert_eq!(rec, expect);
        }
    }

    #[test]
    fn records_from_mid_log() {
        let mut wal = Wal::new();
        let recs = sample_records();
        let lsns: Vec<Lsn> = recs.iter().map(|r| wal.append(r).unwrap()).collect();
        let tail = wal.records_from(lsns[2]).unwrap();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].1, recs[2]);
    }

    #[test]
    fn torn_tail_is_dropped_not_an_error() {
        let mut wal = Wal::new();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        for cut in 1..40 {
            let mut torn = Wal::new();
            torn.buf = wal.buf.clone();
            torn.crash_truncate(cut);
            let recs = torn.records().unwrap();
            assert!(recs.len() < 5, "cut {cut} should lose the tail record");
            assert!(recs.len() >= 4 || cut > 10, "small cuts only lose one record");
        }
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let mut wal = Wal::new();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        // Corrupt inside the first record's payload (frame header is 8
        // bytes): the checksum must fail and, because intact records
        // follow, this is corruption, not a torn tail.
        wal.corrupt_byte(12);
        assert!(matches!(wal.records(), Err(PstmError::WalCorrupt(_))));
    }

    #[test]
    fn truncate_prefix_after_checkpoint() {
        let mut wal = Wal::new();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let end = wal.len_bytes() as u64;
        // The checkpoint's image covers everything logged so far.
        wal.forget();
        assert_eq!(wal.len_bytes(), 0);
        assert!(wal.records().unwrap().is_empty());
        let next = wal.append(&LogRecord::Begin { txn: TxnId(2) }).unwrap();
        assert_eq!(next, Lsn(end), "LSNs keep counting across a forget");
        let recs = wal.records().unwrap();
        assert_eq!(recs, vec![(Lsn(end), LogRecord::Begin { txn: TxnId(2) })]);
        assert_eq!(wal.records_from(next).unwrap(), recs);
        assert_eq!(wal.appended(), sample_records().len() as u64 + 1);
    }

    #[test]
    fn truncate_beyond_end_errors() {
        let mut wal = Wal::new();
        assert!(wal.records_from(Lsn(10)).is_err());
        wal.append(&LogRecord::Begin { txn: TxnId(1) }).unwrap();
        wal.forget();
        // Forgotten LSNs are gone, not re-read from the new buffer.
        assert!(wal.records_from(Lsn(0)).is_err());
        assert!(wal.records_from(Lsn(18)).is_err());
    }

    #[test]
    fn record_txn_accessor() {
        assert_eq!(LogRecord::Begin { txn: TxnId(3) }.txn(), Some(TxnId(3)));
        assert_eq!(LogRecord::CreateIndex { table: TableId(0), column: 1 }.txn(), None);
    }

    #[test]
    fn trim_torn_tail_restores_appendability() {
        let mut wal = Wal::new();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let intact = wal.records().unwrap().len();
        wal.crash_truncate(7); // tear the final frame
        let dropped = wal.trim_torn_tail();
        assert!(dropped > 0, "a torn frame must be physically discarded");
        assert_eq!(wal.records().unwrap().len(), intact - 1);
        // The point of trimming: new appends are readable afterwards.
        wal.append(&LogRecord::Commit { txn: TxnId(9) }).unwrap();
        let recs = wal.records().unwrap();
        assert_eq!(recs.last().unwrap().1, LogRecord::Commit { txn: TxnId(9) });
        // Idempotent: nothing more to trim on a clean log.
        assert_eq!(wal.trim_torn_tail(), 0);
    }

    #[test]
    fn trim_torn_tail_leaves_mid_log_corruption_alone() {
        let mut wal = Wal::new();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let before = wal.len_bytes();
        wal.corrupt_byte(12); // payload of the first record
        assert_eq!(wal.trim_torn_tail(), 0);
        assert_eq!(wal.len_bytes(), before, "media corruption is not a tear");
        assert!(matches!(wal.records(), Err(PstmError::WalCorrupt(_))));
    }

    struct DecideOnNth {
        nth: std::sync::atomic::AtomicU64,
        decision: FaultDecision,
    }
    impl FaultHook for DecideOnNth {
        fn decide(&self, _site: FaultSite) -> FaultDecision {
            use std::sync::atomic::Ordering;
            if self.nth.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.decision
            } else {
                FaultDecision::Proceed
            }
        }
    }
    use pstm_types::FaultHook;

    #[test]
    fn wal_append_crash_fault_writes_nothing() {
        let mut wal = Wal::new();
        wal.set_fault_hook(Some(std::sync::Arc::new(DecideOnNth {
            nth: std::sync::atomic::AtomicU64::new(3),
            decision: FaultDecision::Crash,
        })));
        let recs = sample_records();
        wal.append(&recs[0]).unwrap();
        wal.append(&recs[1]).unwrap();
        let before = wal.len_bytes();
        let err = wal.append(&recs[2]).unwrap_err();
        assert!(matches!(err, PstmError::Crashed(ref s) if s == "wal-append"));
        assert_eq!(wal.len_bytes(), before, "a crashed append leaves no bytes");
        assert_eq!(wal.records().unwrap().len(), 2);
    }

    #[test]
    fn append_batch_is_byte_identical_to_sequential_appends() {
        let recs = sample_records();
        let mut one_by_one = Wal::new();
        let solo_lsns: Vec<Lsn> = recs.iter().map(|r| one_by_one.append(r).unwrap()).collect();
        let mut batched = Wal::new();
        let lsns = batched.append_batch(&recs).unwrap();
        assert_eq!(lsns, solo_lsns, "grouping must not move any record's LSN");
        assert_eq!(batched.buf, one_by_one.buf, "grouping must not change the device image");
        assert_eq!(batched.appended(), recs.len() as u64);
        let back = batched.records().unwrap();
        assert_eq!(back.len(), recs.len());
        for ((lsn, rec), (expect_lsn, expect)) in back.iter().zip(lsns.iter().zip(&recs)) {
            assert_eq!(lsn, expect_lsn);
            assert_eq!(rec, expect);
        }
        assert!(batched.append_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn torn_batch_keeps_leading_frames_and_recovery_drops_the_tail() {
        // Tear the group so the first record's frame survives whole: the
        // intact prefix must replay, the torn suffix must trim away, and
        // no frame may surface partially.
        let recs = sample_records();
        let first_frame = {
            let mut probe = Wal::new();
            probe.append(&recs[0]).unwrap();
            probe.len_bytes()
        };
        let mut wal = Wal::new();
        wal.set_fault_hook(Some(std::sync::Arc::new(DecideOnNth {
            nth: std::sync::atomic::AtomicU64::new(1),
            decision: FaultDecision::Torn { keep: (first_frame + 3) as u32 },
        })));
        let err = wal.append_batch(&recs).unwrap_err();
        assert!(matches!(err, PstmError::Crashed(ref s) if s == "wal-append"));
        assert_eq!(wal.len_bytes(), first_frame + 3, "exactly `keep` bytes land");
        let survivors = wal.records().unwrap();
        assert_eq!(survivors.len(), 1, "only the fully-written leading frame replays");
        assert_eq!(survivors[0].1, recs[0]);
        assert_eq!(wal.trim_torn_tail(), 3);
        assert_eq!(wal.records().unwrap().len(), 1);
    }

    #[test]
    fn torn_batch_keep_clamps_so_the_tail_frame_is_always_torn() {
        let recs = sample_records();
        let mut wal = Wal::new();
        wal.set_fault_hook(Some(std::sync::Arc::new(DecideOnNth {
            nth: std::sync::atomic::AtomicU64::new(1),
            decision: FaultDecision::Torn { keep: u32::MAX },
        })));
        wal.append_batch(&recs).unwrap_err();
        let survivors = wal.records().unwrap();
        assert!(survivors.len() < recs.len(), "the final frame must not land whole");
        assert!(wal.trim_torn_tail() > 0);
    }

    #[test]
    fn crashed_batch_writes_nothing() {
        let recs = sample_records();
        let mut wal = Wal::new();
        wal.append(&recs[0]).unwrap();
        let before = wal.len_bytes();
        wal.set_fault_hook(Some(std::sync::Arc::new(DecideOnNth {
            nth: std::sync::atomic::AtomicU64::new(1),
            decision: FaultDecision::Crash,
        })));
        let err = wal.append_batch(&recs).unwrap_err();
        assert!(matches!(err, PstmError::Crashed(_)));
        assert_eq!(wal.len_bytes(), before, "a crashed group leaves no bytes");
        assert_eq!(wal.records().unwrap().len(), 1);
    }

    #[test]
    fn wal_append_torn_fault_leaves_partial_frame() {
        let mut wal = Wal::new();
        wal.set_fault_hook(Some(std::sync::Arc::new(DecideOnNth {
            nth: std::sync::atomic::AtomicU64::new(2),
            decision: FaultDecision::Torn { keep: 11 },
        })));
        let recs = sample_records();
        wal.append(&recs[0]).unwrap();
        let before = wal.len_bytes();
        let err = wal.append(&recs[1]).unwrap_err();
        assert!(matches!(err, PstmError::Crashed(_)));
        assert_eq!(wal.len_bytes(), before + 11, "exactly `keep` bytes land");
        // Recovery reads the intact prefix; trim removes the tear.
        assert_eq!(wal.records().unwrap().len(), 1);
        assert_eq!(wal.trim_torn_tail(), 11);
        assert_eq!(wal.len_bytes(), before);
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::codec::tests::arb_value;
    use crate::constraint::Constraint;
    use crate::schema::{ColumnDef, TableSchema};
    use proptest::prelude::*;
    use pstm_types::ValueKind;

    fn arb_row() -> impl Strategy<Value = Row> {
        prop::collection::vec(arb_value(), 0..6).prop_map(Row::new)
    }

    fn arb_txn() -> impl Strategy<Value = TxnId> {
        any::<u64>().prop_map(TxnId)
    }

    /// `(txn, table, row_id)` — the address the row records share.
    fn arb_address() -> impl Strategy<Value = (TxnId, TableId, RowId)> {
        (arb_txn(), any::<u32>(), any::<u32>(), any::<u16>())
            .prop_map(|(txn, table, page, slot)| (txn, TableId(table), RowId::new(page, slot)))
    }

    fn arb_create_table() -> impl Strategy<Value = LogRecord> {
        let kind = prop::sample::select(vec![
            ValueKind::Bool,
            ValueKind::Int,
            ValueKind::Float,
            ValueKind::Text,
        ]);
        (".{1,12}", prop::collection::vec(kind, 1..5), 0usize..3).prop_map(
            |(name, kinds, checks)| {
                let columns = kinds
                    .into_iter()
                    .enumerate()
                    .map(|(i, kind)| ColumnDef::new(format!("c{i}"), kind))
                    .collect();
                LogRecord::CreateTable {
                    schema: TableSchema::new(name, columns).expect("distinct column names"),
                    constraints: (0..checks)
                        .map(|c| Constraint::non_negative(format!("c{c} >= 0"), c))
                        .collect(),
                }
            },
        )
    }

    /// Every variant, every value kind (empty and long text included).
    fn arb_record() -> impl Strategy<Value = LogRecord> {
        // Long enough to cross the checksum's 359-byte fold, and not ASCII.
        let long_text = ".{300,400}".prop_map(|s| Value::Text(format!("ß→{s}")));
        let image = || prop_oneof![arb_value(), Just(Value::Text(String::new()))];
        prop_oneof![
            arb_txn().prop_map(|txn| LogRecord::Begin { txn }),
            arb_txn().prop_map(|txn| LogRecord::Commit { txn }),
            arb_txn().prop_map(|txn| LogRecord::Abort { txn }),
            (arb_address(), arb_row()).prop_map(|((txn, table, row_id), row)| {
                LogRecord::Insert { txn, table, row_id, row }
            }),
            (arb_address(), arb_row()).prop_map(|((txn, table, row_id), row)| {
                LogRecord::Delete { txn, table, row_id, row }
            }),
            (arb_address(), 0usize..1_000, image(), prop_oneof![image(), long_text]).prop_map(
                |((txn, table, row_id), column, before, after)| {
                    LogRecord::Update { txn, table, row_id, column, before, after }
                }
            ),
            arb_create_table(),
            (any::<u32>(), 0usize..1_000).prop_map(|(table, column)| LogRecord::CreateIndex {
                table: TableId(table),
                column
            }),
        ]
    }

    fn arb_log() -> impl Strategy<Value = Vec<LogRecord>> {
        prop::collection::vec(arb_record(), 1..8)
    }

    /// Appends `recs` one by one, returning the log and what a full
    /// replay must yield.
    fn written(recs: &[LogRecord]) -> (Wal, Vec<(Lsn, LogRecord)>) {
        let mut wal = Wal::new();
        let expect = recs.iter().map(|r| (wal.append(r).unwrap(), r.clone())).collect();
        (wal, expect)
    }

    proptest! {
        #[test]
        fn prop_every_variant_round_trips_alone_and_batched(recs in arb_log()) {
            let (one_by_one, expect) = written(&recs);
            prop_assert_eq!(&one_by_one.records().unwrap(), &expect);
            let mut batched = Wal::new();
            let lsns = batched.append_batch(&recs).unwrap();
            prop_assert_eq!(lsns, expect.iter().map(|(lsn, _)| *lsn).collect::<Vec<_>>());
            prop_assert_eq!(&batched.records().unwrap(), &expect);
            prop_assert_eq!(&batched.buf, &one_by_one.buf);
            prop_assert_eq!(batched.appended(), recs.len() as u64);
        }

        #[test]
        fn prop_a_log_cut_at_any_byte_replays_a_clean_prefix(recs in arb_log()) {
            let (wal, expect) = written(&recs);
            let ends: Vec<usize> = expect
                .iter()
                .skip(1)
                .map(|(lsn, _)| lsn.0 as usize)
                .chain([wal.len_bytes()])
                .collect();
            for cut in 0..=wal.len_bytes() {
                let mut torn = Wal::new();
                torn.buf = wal.buf[..cut].to_vec();
                let whole = ends.iter().filter(|end| **end <= cut).count();
                prop_assert_eq!(&torn.records().unwrap()[..], &expect[..whole], "cut {}", cut);
                // The tear is reported: exactly the partial frame is trimmed.
                let boundary = if whole == 0 { 0 } else { ends[whole - 1] };
                prop_assert_eq!(torn.trim_torn_tail(), cut - boundary, "cut {}", cut);
            }
        }

        #[test]
        fn prop_a_flipped_byte_never_invents_a_record(
            recs in arb_log(),
            at in any::<usize>(),
            mask in 1u8..=255,
        ) {
            let (mut wal, expect) = written(&recs);
            wal.corrupt_byte_with(at % wal.len_bytes(), mask);
            // Corruption is an error or a shorter replay; what does
            // replay is what was written, where it was written.
            if let Ok(survivors) = wal.records() {
                prop_assert!(survivors.len() < expect.len(), "a damaged frame replayed");
                prop_assert_eq!(&survivors[..], &expect[..survivors.len()]);
            }
        }
    }

    #[test]
    fn garbage_payloads_are_rejected_not_panicked_on() {
        // Framed correctly, meaningless inside: the payload decoder is
        // the last line of defence and must say so.
        for payload in [&[][..], &[0], &[99, 1, 2], &[1, 7], &[3; 20], &[7, 0], &[8, b'{']] {
            let mut wal = Wal::new();
            pstm_obs::frame::write_frame(payload, &mut wal.buf);
            assert!(matches!(wal.records(), Err(PstmError::WalCorrupt(_))), "{payload:?}");
        }
    }
}

#[cfg(test)]
mod frame_header_tests {
    use super::*;
    use pstm_types::TxnId;

    /// Regression (review finding): a corrupted *length* field mid-log
    /// must be detected as corruption when the claimed frame still lies
    /// within the buffer — not silently drop the rest of the log.
    #[test]
    fn corrupted_inline_length_is_corruption_not_torn_tail() {
        let mut wal = Wal::new();
        for i in 0..6 {
            wal.append(&LogRecord::Begin { txn: TxnId(i) }).unwrap();
        }
        // Nudge the first frame's length by one: the frame still lies
        // within the buffer but the checksum (which covers the length)
        // no longer matches.
        wal.corrupt_byte_with(0, 0x01);
        assert!(matches!(wal.records(), Err(PstmError::WalCorrupt(_))));
    }

    /// A length running past the buffer end is treated as a torn tail
    /// (stop-at-first-invalid, like a real redo pass).
    #[test]
    fn oversized_length_stops_replay() {
        let mut wal = Wal::new();
        for i in 0..3 {
            wal.append(&LogRecord::Begin { txn: TxnId(i) }).unwrap();
        }
        // Blow up the *last* record's length field far past the buffer.
        let recs = wal.records().unwrap();
        let last_lsn = recs.last().unwrap().0;
        wal.corrupt_byte(last_lsn.0 as usize + 2); // high byte of len
        let survivors = wal.records().unwrap();
        assert_eq!(survivors.len(), 2, "replay stops before the bad frame");
    }
}
