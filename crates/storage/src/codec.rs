//! Binary encoding of values, rows and WAL records.
//!
//! A small, self-describing, length-safe codec: every value starts with a
//! tag byte, variable-size payloads carry a `u32` length. The codec is used
//! by the slotted pages (records must be flat bytes) and by the WAL (the
//! per-variant record layout is tabulated in [`crate::wal`]). It is
//! deliberately hand-rolled rather than serde-based so that page space
//! accounting is exact, the engine encodes a commit's records inside its
//! exclusive section at memcpy cost, and decoding can be fuzzed against
//! truncation.

use crate::catalog::TableId;
use crate::row::{Row, RowId};
use crate::wal::LogRecord;
use pstm_types::{PstmError, PstmResult, TxnId, Value};

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_TEXT: u8 = 5;

/// Appends the encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_BOOL_FALSE),
        Value::Bool(true) => out.push(TAG_BOOL_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Text(s) => {
            out.push(TAG_TEXT);
            let bytes = s.as_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
    }
}

/// Size in bytes [`encode_value`] will emit for `v`.
#[must_use]
pub fn encoded_len(v: &Value) -> usize {
    match v {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Text(s) => 1 + 4 + s.len(),
    }
}

/// Decodes one value from `buf` starting at `*pos`, advancing `*pos`.
pub fn decode_value(buf: &[u8], pos: &mut usize) -> PstmResult<Value> {
    let (tag, raw) = take_value(buf, pos)?;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(i64::from_le_bytes(raw.try_into().unwrap())),
        TAG_FLOAT => Value::Float(f64::from_le_bytes(raw.try_into().unwrap())),
        _ => Value::Text(std::str::from_utf8(raw).expect("take_value checked the text").into()),
    })
}

/// Steps over one encoded value at `*pos`, checking it exactly as
/// [`decode_value`] does, and returns its tag and payload bytes without
/// building the value.
fn take_value<'a>(buf: &'a [u8], pos: &mut usize) -> PstmResult<(u8, &'a [u8])> {
    let tag = *buf.get(*pos).ok_or_else(|| PstmError::WalCorrupt("truncated value tag".into()))?;
    *pos += 1;
    let raw = match tag {
        TAG_NULL | TAG_BOOL_FALSE | TAG_BOOL_TRUE => &[][..],
        TAG_INT | TAG_FLOAT => take(buf, pos, 8)?,
        TAG_TEXT => {
            let len = take_u32(buf, pos)? as usize;
            let bytes = take(buf, pos, len)?;
            std::str::from_utf8(bytes)
                .map_err(|e| PstmError::WalCorrupt(format!("invalid utf8 in text value: {e}")))?;
            bytes
        }
        other => return Err(PstmError::WalCorrupt(format!("unknown value tag {other}"))),
    };
    Ok((tag, raw))
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> PstmResult<&'a [u8]> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| PstmError::WalCorrupt("truncated value payload".into()))?;
    let slice = &buf[*pos..end];
    *pos = end;
    Ok(slice)
}

fn take_u32(buf: &[u8], pos: &mut usize) -> PstmResult<u32> {
    take(buf, pos, 4).map(|raw| u32::from_le_bytes(raw.try_into().unwrap()))
}

fn take_u64(buf: &[u8], pos: &mut usize) -> PstmResult<u64> {
    take(buf, pos, 8).map(|raw| u64::from_le_bytes(raw.try_into().unwrap()))
}

/// Encodes a row (column-count prefix + each value).
#[must_use]
pub fn encode_row(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + values.iter().map(encoded_len).sum::<usize>());
    encode_row_into(values, &mut out);
    out
}

/// Appends the [`encode_row`] encoding of `values` to `out`.
pub fn encode_row_into(values: &[Value], out: &mut Vec<u8>) {
    out.extend_from_slice(&(values.len() as u16).to_le_bytes());
    for v in values {
        encode_value(v, out);
    }
}

/// Decodes a row previously produced by [`encode_row`].
pub fn decode_row(buf: &[u8]) -> PstmResult<Vec<Value>> {
    let mut values = Vec::new();
    decode_row_into(buf, &mut values)?;
    Ok(values)
}

/// [`decode_row`] into `values`, reusing its capacity.
pub(crate) fn decode_row_into(buf: &[u8], values: &mut Vec<Value>) -> PstmResult<()> {
    values.clear();
    let mut pos = 0usize;
    let n = take_row_len(buf, &mut pos)?;
    values.reserve(n);
    for _ in 0..n {
        values.push(decode_value(buf, &mut pos)?);
    }
    end_of_row(buf, pos)
}

/// Column `column` of a row produced by [`encode_row`], `None` if the row
/// has fewer columns. The whole row is checked as [`decode_row`] checks
/// it — the same errors for the same bytes — but only the one value is
/// built.
pub(crate) fn decode_col(buf: &[u8], column: usize) -> PstmResult<Option<Value>> {
    let mut pos = 0usize;
    let mut found = None;
    for i in 0..take_row_len(buf, &mut pos)? {
        if i == column {
            found = Some(decode_value(buf, &mut pos)?);
        } else {
            take_value(buf, &mut pos)?;
        }
    }
    end_of_row(buf, pos)?;
    Ok(found)
}

fn take_row_len(buf: &[u8], pos: &mut usize) -> PstmResult<usize> {
    take(buf, pos, 2).map(|raw| u16::from_le_bytes(raw.try_into().unwrap()) as usize)
}

fn end_of_row(buf: &[u8], pos: usize) -> PstmResult<()> {
    if pos != buf.len() {
        return Err(PstmError::WalCorrupt(format!(
            "trailing bytes after row: {} of {}",
            buf.len() - pos,
            buf.len()
        )));
    }
    Ok(())
}

const REC_BEGIN: u8 = 1;
const REC_INSERT: u8 = 2;
const REC_UPDATE: u8 = 3;
const REC_DELETE: u8 = 4;
const REC_COMMIT: u8 = 5;
const REC_ABORT: u8 = 6;
const REC_CREATE_TABLE: u8 = 8;

/// Appends a record that is only a tag and its transaction
/// (`Begin`/`Commit`/`Abort`).
fn encode_txn_mark(tag: u8, txn: TxnId, out: &mut Vec<u8>) {
    out.push(tag);
    out.extend_from_slice(&txn.0.to_le_bytes());
}

/// Appends the tag and `txn · table · row_id` prefix the row-addressed
/// records share.
fn encode_row_header(tag: u8, txn: TxnId, table: TableId, row_id: RowId, out: &mut Vec<u8>) {
    encode_txn_mark(tag, txn, out);
    out.extend_from_slice(&table.0.to_le_bytes());
    out.extend_from_slice(&row_id.raw().to_le_bytes());
}

fn encode_column(column: usize, out: &mut Vec<u8>) -> PstmResult<()> {
    let column = u32::try_from(column)
        .map_err(|_| PstmError::internal(format!("WAL serialize: column index {column}")))?;
    out.extend_from_slice(&column.to_le_bytes());
    Ok(())
}

/// Appends the payload of a [`LogRecord::Begin`].
pub(crate) fn encode_begin(txn: TxnId, out: &mut Vec<u8>) {
    encode_txn_mark(REC_BEGIN, txn, out);
}

/// Appends the payload of a [`LogRecord::Commit`].
pub(crate) fn encode_commit(txn: TxnId, out: &mut Vec<u8>) {
    encode_txn_mark(REC_COMMIT, txn, out);
}

/// Appends the payload of a [`LogRecord::Update`] with the images taken
/// by reference — the engine's commit path logs straight from the row
/// it read and the write set it was handed.
pub(crate) fn encode_update(
    txn: TxnId,
    table: TableId,
    row_id: RowId,
    column: usize,
    before: &Value,
    after: &Value,
    out: &mut Vec<u8>,
) -> PstmResult<()> {
    encode_row_header(REC_UPDATE, txn, table, row_id, out);
    encode_column(column, out)?;
    encode_value(before, out);
    encode_value(after, out);
    Ok(())
}

/// Appends the WAL payload of `rec` to `out` (layout: see [`crate::wal`]).
/// On error `out` may hold a partial payload; the caller discards it.
pub fn encode_record(rec: &LogRecord, out: &mut Vec<u8>) -> PstmResult<()> {
    match rec {
        LogRecord::Begin { txn } => encode_begin(*txn, out),
        LogRecord::Commit { txn } => encode_commit(*txn, out),
        LogRecord::Abort { txn } => encode_txn_mark(REC_ABORT, *txn, out),
        LogRecord::Insert { txn, table, row_id, row } => {
            encode_row_header(REC_INSERT, *txn, *table, *row_id, out);
            encode_row_into(row.values(), out);
        }
        LogRecord::Delete { txn, table, row_id, row } => {
            encode_row_header(REC_DELETE, *txn, *table, *row_id, out);
            encode_row_into(row.values(), out);
        }
        LogRecord::Update { txn, table, row_id, column, before, after } => {
            encode_update(*txn, *table, *row_id, *column, before, after, out)?;
        }
        LogRecord::CreateTable { schema, constraints } => {
            // DDL is cold: its nested schema keeps the serde body.
            out.push(REC_CREATE_TABLE);
            let body = serde_json::to_vec(&(schema, constraints))
                .map_err(|e| PstmError::internal(format!("WAL serialize: {e}")))?;
            out.extend_from_slice(&body);
        }
    }
    Ok(())
}

/// Reads back what [`encode_row_header`] wrote after its tag.
fn take_row_header(buf: &[u8], pos: &mut usize) -> PstmResult<(TxnId, TableId, RowId)> {
    let txn = TxnId(take_u64(buf, pos)?);
    let table = TableId(take_u32(buf, pos)?);
    Ok((txn, table, RowId::from_raw(take_u64(buf, pos)?)))
}

/// Decodes one WAL payload produced by [`encode_record`]. The payload
/// must be consumed exactly: trailing bytes are corruption.
pub fn decode_record(buf: &[u8]) -> PstmResult<LogRecord> {
    let mut pos = 0usize;
    let tag = take(buf, &mut pos, 1)?[0];
    let rec = match tag {
        REC_BEGIN => LogRecord::Begin { txn: TxnId(take_u64(buf, &mut pos)?) },
        REC_COMMIT => LogRecord::Commit { txn: TxnId(take_u64(buf, &mut pos)?) },
        REC_ABORT => LogRecord::Abort { txn: TxnId(take_u64(buf, &mut pos)?) },
        REC_INSERT | REC_DELETE => {
            let (txn, table, row_id) = take_row_header(buf, &mut pos)?;
            // The row image is the rest of the payload, and `decode_row`
            // rejects trailing bytes itself.
            let row = Row::decode(&buf[pos..])?;
            pos = buf.len();
            if tag == REC_INSERT {
                LogRecord::Insert { txn, table, row_id, row }
            } else {
                LogRecord::Delete { txn, table, row_id, row }
            }
        }
        REC_UPDATE => {
            let (txn, table, row_id) = take_row_header(buf, &mut pos)?;
            let column = take_u32(buf, &mut pos)? as usize;
            let before = decode_value(buf, &mut pos)?;
            let after = decode_value(buf, &mut pos)?;
            LogRecord::Update { txn, table, row_id, column, before, after }
        }
        REC_CREATE_TABLE => {
            let (schema, constraints) = serde_json::from_slice(&buf[pos..])
                .map_err(|e| PstmError::WalCorrupt(format!("bad DDL body: {e}")))?;
            pos = buf.len();
            LogRecord::CreateTable { schema, constraints }
        }
        other => return Err(PstmError::WalCorrupt(format!("unknown record tag {other}"))),
    };
    if pos != buf.len() {
        return Err(PstmError::WalCorrupt(format!(
            "trailing bytes after record: {} of {}",
            buf.len() - pos,
            buf.len()
        )));
    }
    Ok(rec)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use pstm_obs::frame::{checksum, ChecksumStream};

    #[test]
    fn scalar_round_trips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(3.5),
            Value::Text(String::new()),
            Value::Text("füßé".into()),
        ] {
            let mut buf = Vec::new();
            encode_value(&v, &mut buf);
            assert_eq!(buf.len(), encoded_len(&v), "length mismatch for {v:?}");
            let mut pos = 0;
            let back = decode_value(&buf, &mut pos).unwrap();
            assert_eq!(back, v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn row_round_trips() {
        let row =
            vec![Value::Int(1), Value::Text("flight".into()), Value::Float(99.5), Value::Null];
        let buf = encode_row(&row);
        assert_eq!(decode_row(&buf).unwrap(), row);
    }

    #[test]
    fn truncation_is_detected() {
        let buf = encode_row(&[Value::Int(7), Value::Text("abc".into())]);
        for cut in 0..buf.len() {
            assert!(decode_row(&buf[..cut]).is_err(), "cut at {cut} not detected");
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut buf = encode_row(&[Value::Int(7)]);
        buf.push(0);
        assert!(decode_row(&buf).is_err());
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let buf = [99u8];
        let mut pos = 0;
        assert!(decode_value(&buf, &mut pos).is_err());
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let base = checksum(data);
        let mut copy = data.to_vec();
        copy[7] ^= 0x01;
        assert_ne!(checksum(&copy), base);
    }

    #[test]
    fn stream_matches_one_shot_across_chunk_boundaries() {
        // Lengths straddling the 359-byte fold boundary, plus empty.
        for len in [0usize, 1, 358, 359, 360, 717, 718, 719, 1024] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
            let mut s = ChecksumStream::new();
            s.update(&data);
            assert_eq!(s.finish(), checksum(&data), "len {len}");
        }
    }

    pub(crate) fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            // Finite floats only: the engine rejects NaN at arithmetic
            // boundaries, and NaN != NaN would fail the round-trip check.
            any::<f64>().prop_filter("finite", |f| f.is_finite()).prop_map(Value::Float),
            ".{0,64}".prop_map(Value::Text),
        ]
    }

    proptest! {
        #[test]
        fn prop_row_round_trip(row in prop::collection::vec(arb_value(), 0..16)) {
            let buf = encode_row(&row);
            prop_assert_eq!(decode_row(&buf).unwrap(), row);
        }

        /// One column decodes as the whole row's value in that column,
        /// whatever the row holds, and a column past the end is absent.
        #[test]
        fn prop_col_is_the_rows_column(row in prop::collection::vec(arb_value(), 0..12)) {
            let buf = encode_row(&row);
            for c in 0..=row.len() {
                prop_assert_eq!(decode_col(&buf, c).unwrap(), row.get(c).cloned());
            }
        }

        /// Cut short, grown by trailing bytes, or with a bad tag in any
        /// value, a row is refused by one column's decode with the error
        /// the whole row's decode gives — for every column asked for.
        #[test]
        fn prop_col_refuses_what_the_row_refuses(
            row in prop::collection::vec(arb_value(), 1..8),
            cut in any::<usize>(),
            tail in 1u8..4,
            bad in any::<usize>(),
        ) {
            let buf = encode_row(&row);
            let mut starts = vec![2usize];
            for v in &row {
                starts.push(starts.last().unwrap() + encoded_len(v));
            }
            let mut tagged = buf.clone();
            tagged[starts[bad % row.len()]] = 99;
            let mut trailing = buf.clone();
            trailing.resize(buf.len() + usize::from(tail), 0);
            let broken = [buf[..cut % buf.len()].to_vec(), trailing, tagged];
            for bytes in &broken {
                let whole = decode_row(bytes).unwrap_err();
                for c in 0..=row.len() {
                    prop_assert_eq!(decode_col(bytes, c).unwrap_err(), whole.clone());
                }
            }
        }

        #[test]
        fn prop_decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_row(&bytes); // must not panic
        }

        #[test]
        fn prop_stream_split_invariant(
            bytes in prop::collection::vec(any::<u8>(), 0..1024),
            cuts in prop::collection::vec(0usize..1024, 0..6),
        ) {
            // However the input is split into update() calls, the digest
            // equals the one-shot checksum of the concatenation.
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut s = ChecksumStream::new();
            let mut prev = 0usize;
            for c in cuts {
                s.update(&bytes[prev..c]);
                prev = c;
            }
            s.update(&bytes[prev..]);
            prop_assert_eq!(s.finish(), checksum(&bytes));
        }
    }
}
