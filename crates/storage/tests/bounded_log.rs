//! The engine bounds its own log: it checkpoints once the log since the
//! last image holds an image's worth of bytes and no transaction is
//! active, LSNs keep counting across the checkpoints, and recovery from
//! image + log suffix equals a sequential replay of everything committed.

use pstm_obs::{RingSink, TraceEvent, Tracer};
use pstm_storage::{
    ColumnDef, Constraint, Database, Row, RowId, TableId, TableSchema, WriteOp, WriteSet,
};
use pstm_types::{PstmError, TxnId, Value, ValueKind};

const COUNTERS: usize = 64;
const INITIAL: i64 = 1_000_000;
/// `Begin · Update · Update · Commit` of two integer rows.
const SST_FRAMES: usize = 136;
/// The final frame of an SST: its `Commit`.
const COMMIT_FRAME: usize = 17;

struct Counters {
    db: Database,
    table: TableId,
    rows: Vec<RowId>,
    /// The sequential reference: what every committed SST leaves.
    state: Vec<i64>,
    next: u64,
}

impl Counters {
    fn new() -> Self {
        let db = Database::new();
        let schema = TableSchema::new(
            "Counter",
            vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("value", ValueKind::Int)],
        )
        .unwrap();
        let table =
            db.create_table(schema, vec![Constraint::non_negative("value >= 0", 1)]).unwrap();
        db.begin(TxnId(1)).unwrap();
        let rows = (0..COUNTERS as i64)
            .map(|i| db.insert(TxnId(1), table, Row::new(vec![Value::Int(i), Value::Int(INITIAL)])))
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        db.commit(TxnId(1)).unwrap();
        Counters { db, table, rows, state: vec![INITIAL; COUNTERS], next: 2 }
    }

    /// One SST: two distinct counters each lose one.
    fn sst(&mut self) {
        let i = self.next as usize;
        let (a, b) = (i * 7 % COUNTERS, (i * 7 + 13) % COUNTERS);
        let mut ws = WriteSet::new();
        for c in [a, b] {
            self.state[c] -= 1;
            let value = Value::Int(self.state[c]);
            ws = ws.with(WriteOp::Update {
                table: self.table,
                row_id: self.rows[c],
                column: 1,
                value,
            });
        }
        self.db.apply_write_set(TxnId(self.next), &ws).unwrap();
        self.next += 1;
    }

    /// Runs `n` SSTs, then more until the last one is still in the log
    /// (its write did not checkpoint). Returns the state before it.
    fn run_to_logged_tail(&mut self, n: usize) -> Vec<i64> {
        let mut before = self.state.clone();
        for _ in 0..n {
            before = self.state.clone();
            self.sst();
        }
        while self.db.stats().wal_bytes < SST_FRAMES {
            before = self.state.clone();
            self.sst();
        }
        before
    }

    fn assert_holds(&self, expect: &[i64], what: &str) {
        for (c, want) in expect.iter().enumerate() {
            let got = self.db.get_col(self.table, self.rows[c], 1).unwrap();
            assert_eq!(got, Value::Int(*want), "{what}: counter {c}");
        }
    }
}

#[test]
fn thousands_of_ssts_keep_the_log_under_one_image_and_recover() {
    let mut w = Counters::new();
    let (mut checkpoints, mut longest, mut image) = (0, 0, 0);
    for _ in 0..3_000 {
        let before = w.db.stats();
        image = before.image_bytes;
        // One page of counters; the catalog joins once it is in an image.
        assert!((4 + 4_100..4 + 4_100 + 1_024).contains(&image), "{image} B image");
        w.sst();
        let s = w.db.stats();
        // The write took the log to at most an image plus its own frames;
        // reaching the image checkpointed it away.
        assert!(s.wal_bytes < s.image_bytes, "{} B of log beside a {image} B image", s.wal_bytes);
        if s.wal_bytes < before.wal_bytes {
            assert_eq!(s.wal_bytes, 0, "a checkpoint forgets the whole log");
            assert!(before.wal_bytes + SST_FRAMES >= image, "checkpointed before it was due");
            checkpoints += 1;
        }
        longest = longest.max(s.wal_bytes);
    }
    let cadence = image / SST_FRAMES + 1;
    assert!(checkpoints >= 3_000 / cadence - 1, "{checkpoints} checkpoints, one per {cadence}");
    assert!(longest + SST_FRAMES >= image, "the log never grew to an image: {longest} B");
    let expect = w.state.clone();
    for round in 0..2 {
        w.db.simulate_crash_and_recover().unwrap();
        w.assert_holds(&expect, &format!("recovery {round}"));
    }
}

#[test]
fn a_torn_final_frame_loses_exactly_the_last_sst_at_every_cut() {
    for cut in 0..=COMMIT_FRAME {
        let mut w = Counters::new();
        let before = w.run_to_logged_tail(2_000);
        let expect = if cut == 0 { w.state.clone() } else { before };
        w.db.crash_with_torn_tail(cut).unwrap();
        w.assert_holds(&expect, &format!("cut {cut}"));
        w.db.simulate_crash_and_recover().unwrap();
        w.assert_holds(&expect, &format!("cut {cut}, recovered again"));
        // The engine goes on from there, checkpoints included.
        w.state = expect;
        w.run_to_logged_tail(200);
        let expect = w.state.clone();
        w.db.simulate_crash_and_recover().unwrap();
        w.assert_holds(&expect, &format!("cut {cut}, after more work"));
    }
}

#[test]
fn an_open_transaction_postpones_the_checkpoint_and_still_undoes_from_its_begin() {
    let mut w = Counters::new();
    w.run_to_logged_tail(500);
    let (long, held) = (TxnId(1 << 40), w.rows[0]);
    w.db.begin(long).unwrap();
    w.db.update(long, w.table, held, 1, Value::Int(7)).unwrap();
    let image = w.db.stats().image_bytes;
    // Other rows keep committing; the log may not be forgotten under the
    // open transaction, so it grows past an image.
    while w.db.stats().wal_bytes < 2 * image {
        let c = 1 + w.next as usize % (COUNTERS - 1);
        w.state[c] -= 1;
        let op = WriteOp::Update {
            table: w.table,
            row_id: w.rows[c],
            column: 1,
            value: Value::Int(w.state[c]),
        };
        w.db.apply_write_set(TxnId(w.next), &WriteSet::new().with(op)).unwrap();
        w.next += 1;
    }
    assert_eq!(w.db.get_col(w.table, held, 1).unwrap(), Value::Int(7));
    // Undo scans from the Begin LSN, which predates none of the retained
    // log; the abort is the write that ends it, and it checkpoints.
    w.db.abort(long).unwrap();
    assert_eq!(w.db.stats().wal_bytes, 0, "the first write after the transaction checkpoints");
    let expect = w.state.clone();
    w.assert_holds(&expect, "after the abort");
    for round in 0..2 {
        w.db.simulate_crash_and_recover().unwrap();
        w.assert_holds(&expect, &format!("recovery {round}"));
    }
}

#[test]
fn wal_flush_lsns_keep_counting_across_checkpoints() {
    let ring = RingSink::new(1 << 16);
    let handle = ring.handle();
    let mut w = Counters::new();
    w.db.set_tracer(Tracer::with_sink(Box::new(ring)));
    let mut forgotten = 0;
    for _ in 0..1_000 {
        let before = w.db.stats().wal_bytes;
        w.sst();
        forgotten += usize::from(w.db.stats().wal_bytes < before);
    }
    assert!(forgotten > 2, "the run crossed {forgotten} checkpoints");
    let flushes: Vec<(u64, u64)> = handle
        .snapshot()
        .into_iter()
        .filter_map(|r| match r.event {
            TraceEvent::WalFlush { lsn, bytes } => Some((lsn, bytes)),
            _ => None,
        })
        .collect();
    assert_eq!(flushes.len(), 4 * 1_000);
    for pair in flushes.windows(2) {
        let ((lsn, bytes), (next, _)) = (pair[0], pair[1]);
        assert_eq!(next, lsn + bytes, "frames are numbered back to back, checkpoints or not");
    }
    let (last, bytes) = flushes[flushes.len() - 1];
    assert!(last + bytes > w.db.stats().wal_bytes as u64, "LSNs count from creation");
}

/// A text row on a page with little room, and the SSTs that rewrite it.
fn full_page() -> (Database, TableId, Vec<RowId>) {
    let db = Database::new();
    let schema = TableSchema::new(
        "Note",
        vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("text", ValueKind::Text)],
    )
    .unwrap();
    let t = db.create_table(schema, Vec::new()).unwrap();
    db.begin(TxnId(1)).unwrap();
    // 2 + 9 + 5 + 100 = 116 B per row plus a 4 B slot: 34 rows fill
    // 4 080 of the page's 4 088 bytes, leaving 8 free.
    let rows: Vec<RowId> = (0..35)
        .map(|i| {
            db.insert(TxnId(1), t, Row::new(vec![Value::Int(i), Value::Text("x".repeat(100))]))
        })
        .collect::<Result<_, _>>()
        .unwrap();
    db.commit(TxnId(1)).unwrap();
    assert!(rows[..34].iter().all(|r| r.page() == 0) && rows[34].page() == 1, "{rows:?}");
    (db, t, rows)
}

fn retext(t: TableId, row_id: RowId, len: usize) -> WriteOp {
    WriteOp::Update { table: t, row_id, column: 1, value: Value::Text("y".repeat(len)) }
}

#[test]
fn an_sst_that_outgrows_its_page_is_refused_before_the_log_or_heap_sees_it() {
    let (db, t, rows) = full_page();
    let heap_before = db.scan(t).unwrap();
    let refused = [
        // One row growing by 300 on a page with 8 free.
        WriteSet::new().with(retext(t, rows[0], 400)),
        // Two rows each growing by 5: each fits alone, not together.
        WriteSet::new().with(retext(t, rows[1], 105)).with(retext(t, rows[2], 105)),
        // A row that grows and shrinks back: redo replays the growth.
        WriteSet::new().with(retext(t, rows[3], 120)).with(retext(t, rows[3], 100)),
    ];
    for (i, ws) in refused.iter().enumerate() {
        let wal = db.stats().wal_bytes;
        let err = db.apply_write_set(TxnId(10 + i as u64), ws).unwrap_err();
        assert!(matches!(err, PstmError::ConstraintViolation { .. }), "set {i}: {err}");
        assert_eq!(db.stats().wal_bytes, wal, "set {i} reached the log");
        assert_eq!(db.scan(t).unwrap(), heap_before, "set {i} reached the heap");
    }
    for round in 0..2 {
        db.simulate_crash_and_recover().unwrap();
        assert_eq!(db.scan(t).unwrap(), heap_before, "recovery {round}");
    }
    // What does fit is applied: 8 more bytes, and growth on another page.
    let fits = WriteSet::new().with(retext(t, rows[4], 108)).with(retext(t, rows[34], 400));
    db.apply_write_set(TxnId(20), &fits).unwrap();
    for round in 0..2 {
        db.simulate_crash_and_recover().unwrap();
        assert_eq!(db.get_col(t, rows[4], 1).unwrap(), Value::Text("y".repeat(108)), "{round}");
        assert_eq!(db.get_col(t, rows[34], 1).unwrap(), Value::Text("y".repeat(400)), "{round}");
    }
}
