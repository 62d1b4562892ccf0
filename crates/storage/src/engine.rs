//! The `Database` facade — the LDBS the middleware's Secure System
//! Transactions run against.
//!
//! The engine owns the catalog, one heap file per table, and the WAL. It
//! enforces CHECK constraints on every write, logs before/after images,
//! supports abort-by-undo at runtime, quiescent checkpoints, and crash
//! recovery (see [`crate::recovery`]).
//!
//! The engine bounds its own log. At the end of every write that leaves
//! no engine transaction active (`apply_write_set`, `commit`, `abort`)
//! it checkpoints once the log since the last image holds **at least as
//! many bytes as an image would** (`Σ tables 4 + pages × (PAGE_SIZE + 4)`
//! plus the catalog JSON): the image is captured and the whole log
//! forgotten. The rule is made of quantities the engine already has, so
//! it has no knob: per byte logged the checkpoint copies and checksums
//! about one image byte, and recovery never replays more than one
//! image's worth of log. It runs under the `inner.write()` the write
//! took, so a simulated crash sees image and log change together; the
//! price is a stall of one image copy (≈ 15 µs for 1 024 counter rows)
//! every image-size of log, paid by whichever writer crosses the line.
//! A long interactive transaction (2PL, a boot loader) postpones the
//! checkpoint until it ends.
//!
//! Concurrency model: a coarse `parking_lot::RwLock` around the engine
//! state. The managers layered above (2PL, GTM) serialize conflicting
//! access themselves — the engine lock only protects physical integrity,
//! mirroring the paper's split where the middleware provides isolation and
//! the LDBS provides consistency + durability.

use crate::catalog::{Catalog, TableId};
use crate::codec::{encode_begin, encode_commit, encode_update, encoded_len};
use crate::constraint::Constraint;
use crate::fault::FaultSeam;
use crate::heap::HeapFile;
use crate::row::{Row, RowId};
use crate::schema::TableSchema;
use crate::wal::{LogRecord, Lsn, Wal};
use parking_lot::RwLock;
use pstm_obs::{Ctr, Emitter, MetricsRegistry, TraceEvent, Tracer};
use pstm_types::{FaultDecision, FaultSite, PstmError, PstmResult, SharedFaultHook, TxnId, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One write against the database, as carried by a [`WriteSet`]. An SST
/// only ever overwrites reconciled values, so there is one kind; rows
/// come and go through the interactive [`Database::insert`] /
/// [`Database::delete`].
#[derive(Clone, Debug, PartialEq)]
pub enum WriteOp {
    /// Overwrite one column of an existing row.
    Update {
        /// Target table.
        table: TableId,
        /// Target row.
        row_id: RowId,
        /// Column index.
        column: usize,
        /// New value.
        value: Value,
    },
}

/// An update of column 0 of row 0 in table 0 to `Null`: what an unused
/// inline slot holds.
impl Default for WriteOp {
    fn default() -> Self {
        WriteOp::Update {
            table: TableId(0),
            row_id: RowId::new(0, 0),
            column: 0,
            value: Value::Null,
        }
    }
}

/// An ordered batch of writes applied as one atomic short transaction —
/// exactly what the paper's Secure System Transaction is.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WriteSet(pub Vec<WriteOp>);

impl WriteSet {
    /// An empty write set.
    #[must_use]
    pub fn new() -> Self {
        WriteSet::default()
    }

    /// Appends an op; builder-style.
    #[must_use]
    pub fn with(mut self, op: WriteOp) -> Self {
        self.0.push(op);
        self
    }
}

impl std::ops::Deref for WriteSet {
    type Target = [WriteOp];

    fn deref(&self) -> &[WriteOp] {
        &self.0
    }
}

/// Checkpoint image: serialized catalog + heap images.
#[derive(Default)]
pub(crate) struct CheckpointImage {
    pub(crate) catalog_json: Vec<u8>,
    pub(crate) heaps: Vec<Vec<u8>>,
}

/// One row a write set rewrites: its address and the working copy every
/// update of the set lands on before the heap sees it.
struct StagedRow {
    table: TableId,
    row_id: RowId,
    row: Row,
}

pub(crate) struct Inner {
    pub(crate) catalog: Catalog,
    pub(crate) heaps: Vec<HeapFile>,
    pub(crate) wal: Wal,
    /// The last checkpoint: what recovery replays the log onto.
    pub(crate) image: Option<CheckpointImage>,
    /// Whether DDL changed the catalog since `image` was taken (or there
    /// is none): only then is its JSON serialized again.
    catalog_stale: bool,
    /// Active transactions and the LSN of their Begin record (undo scans
    /// the log from there).
    active: HashMap<TxnId, Lsn>,
    /// Rows each active transaction has logically deleted; physically
    /// purged at commit, undeleted at abort — so the space of an
    /// uncommitted delete can never be stolen by other inserts.
    pending_deletes: HashMap<TxnId, Vec<(TableId, RowId)>>,
    /// [`Database::apply_write_set`]'s plan, kept here so the exclusive
    /// section reuses its capacity instead of allocating per commit:
    /// `befores[i]` is the value op `i` replaced. Only the first `staged`
    /// rows are the current plan; the rest keep their buffers for the
    /// next one.
    staged_rows: Vec<StagedRow>,
    staged: usize,
    befores: Vec<Value>,
    /// The engine's registry and trace stream, under the write lock every
    /// emitting call holds anyway.
    obs: Emitter,
}

impl Inner {
    fn new(
        catalog: Catalog,
        heaps: Vec<HeapFile>,
        wal: Wal,
        image: Option<CheckpointImage>,
    ) -> Self {
        Inner {
            catalog,
            heaps,
            wal,
            catalog_stale: image.is_none(),
            image,
            active: HashMap::new(),
            pending_deletes: HashMap::new(),
            staged_rows: Vec::new(),
            staged: 0,
            befores: Vec::new(),
            obs: Emitter::default(),
        }
    }

    fn heap(&self, table: TableId) -> PstmResult<&HeapFile> {
        let heap = self.heaps.get(table.0 as usize);
        heap.ok_or_else(|| PstmError::NotFound(format!("table {table}")))
    }

    /// Bytes an image of the current state takes: every heap's pages
    /// plus the catalog JSON as of the last image.
    fn image_bytes(&self) -> usize {
        let catalog = self.image.as_ref().map_or(0, |image| image.catalog_json.len());
        catalog + self.heaps.iter().map(HeapFile::image_len).sum::<usize>()
    }

    /// The one checkpoint routine: captures the image into the buffers
    /// the previous one left, then forgets the whole log. Quiescent only
    /// — the image must hold committed data alone for redo-only recovery.
    fn checkpoint(&mut self) -> PstmResult<()> {
        if !self.active.is_empty() {
            return Err(PstmError::internal(format!(
                "checkpoint with {} active transactions",
                self.active.len()
            )));
        }
        // What can fail comes first: the old image stays whole until then.
        let catalog_json =
            self.catalog_stale.then(|| serde_json::to_vec(&self.catalog)).transpose();
        let catalog_json =
            catalog_json.map_err(|e| PstmError::internal(format!("catalog serialize: {e}")))?;
        let image = self.image.get_or_insert_with(CheckpointImage::default);
        if let Some(json) = catalog_json {
            image.catalog_json = json;
        }
        image.heaps.resize_with(self.heaps.len(), Vec::new);
        for (heap, bytes) in self.heaps.iter().zip(&mut image.heaps) {
            heap.write_image(bytes);
        }
        self.catalog_stale = false;
        self.wal.forget();
        Ok(())
    }

    /// The engine's own checkpoint, run at the end of every write: due
    /// once no transaction is active and the log holds an image's worth
    /// of bytes. The write it ends is already durable, so a failure here
    /// keeps image and log as they were and the next write tries again.
    fn checkpoint_if_due(&mut self) {
        if self.active.is_empty() && self.wal.len_bytes() >= self.image_bytes() {
            let _ = self.checkpoint();
        }
    }

    /// First half of a write set: validates every update (schema,
    /// constraints, row and column exist), reads each touched row
    /// **once** into `staged_rows` and lands the update on it, keeping
    /// the value it replaced in `befores` — before-images chain through
    /// earlier updates of the batch as sequential application would —
    /// then checks every rewritten row still fits its page. Touches no
    /// state a failure would have to undo.
    fn load_update_rows(&mut self, ops: &[WriteOp]) -> PstmResult<()> {
        self.staged = 0;
        self.befores.clear();
        for op in ops {
            let WriteOp::Update { table, row_id, column, value } = op;
            let meta = self.catalog.meta(*table)?;
            meta.schema.validate_column(*column, value)?;
            for c in &meta.constraints {
                if c.column == *column {
                    c.check_value(value)?;
                }
            }
            let staged = match self.staged_row(*table, *row_id) {
                Some(staged) => staged,
                None => {
                    if self.staged == self.staged_rows.len() {
                        let row = Row::new(Vec::new());
                        self.staged_rows.push(StagedRow { table: *table, row_id: *row_id, row });
                    }
                    let staged = &mut self.staged_rows[self.staged];
                    (staged.table, staged.row_id) = (*table, *row_id);
                    self.heaps[table.0 as usize].get_into(*row_id, &mut staged.row)?;
                    self.staged += 1;
                    self.staged - 1
                }
            };
            let cell = self.staged_rows[staged].row.0.get_mut(*column);
            let cell =
                cell.ok_or_else(|| PstmError::NotFound(format!("column #{column} in {table}")))?;
            self.befores.push(std::mem::replace(cell, value.clone()));
        }
        self.check_fit(ops)
    }

    fn staged_row(&self, table: TableId, row_id: RowId) -> Option<usize> {
        self.staged_rows[..self.staged].iter().position(|s| s.table == table && s.row_id == row_id)
    }

    /// Refuses the write set if a rewritten row could outgrow its page.
    /// Rows never migrate, so `HeapFile::update` could not place it, and
    /// finding that out once the log holds the commit would leave a
    /// durable commit that neither the caller nor redo can apply. Per
    /// page, the bytes the set's updates add must fit the page's free
    /// space — `Page::update`'s rule, summed. Shrinks in the set earn no
    /// credit: the heap applies each row's net change in staging order,
    /// redo each update in log order, and only a sum that fits without
    /// them fits in both.
    fn check_fit(&self, ops: &[WriteOp]) -> PstmResult<()> {
        let grows = || {
            ops.iter().zip(&self.befores).map(
                |(WriteOp::Update { table, row_id, value, .. }, before)| {
                    (*table, *row_id, encoded_len(value).saturating_sub(encoded_len(before)))
                },
            )
        };
        for (table, row_id, _) in grows().filter(|(.., grow)| *grow > 0) {
            let same_page =
                |(t, r, _): &(TableId, RowId, usize)| *t == table && r.page() == row_id.page();
            let need: usize = grows().filter(same_page).map(|(.., grow)| grow).sum();
            let free = self.heaps[table.0 as usize].page_free(row_id)?;
            if need > free {
                return Err(PstmError::ConstraintViolation {
                    constraint: format!("row {row_id} of {table} fits its page"),
                    value: format!("{need} more bytes on a page with {free} free"),
                });
            }
        }
        Ok(())
    }

    /// Second half: logs `Begin · Update… · Commit` as one framed WAL
    /// flush, the images taken by reference from `befores` and the write
    /// set. The heap is still untouched.
    fn log_updates(&mut self, txn: TxnId, ops: &[WriteOp]) -> PstmResult<()> {
        let _phase = pstm_obs::prof::PhaseTimer::start(pstm_obs::prof::CommitPhase::WalAppend);
        self.wal.stage(|out| {
            encode_begin(txn, out);
            Ok(())
        })?;
        for (op, before) in ops.iter().zip(&self.befores) {
            let WriteOp::Update { table, row_id, column, value } = op;
            self.wal
                .stage(|out| encode_update(txn, *table, *row_id, *column, before, value, out))?;
        }
        self.wal.stage(|out| {
            encode_commit(txn, out);
            Ok(())
        })?;
        self.wal.flush_staged().map(|_| ())
    }
}

/// Cumulative engine statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Rows inserted since creation.
    pub inserts: u64,
    /// Column updates since creation.
    pub updates: u64,
    /// Rows deleted since creation.
    pub deletes: u64,
    /// Engine-level transaction commits.
    pub commits: u64,
    /// Engine-level transaction aborts.
    pub aborts: u64,
    /// Bytes currently in the WAL: the log since the last checkpoint.
    pub wal_bytes: usize,
    /// Bytes a checkpoint image of the current state takes. Once no
    /// transaction is active, the WAL stays below it.
    pub image_bytes: usize,
}

impl EngineStats {
    /// Projects the engine counters out of an obs registry. `wal_bytes`
    /// and `image_bytes` are live state, not counters — [`Database::stats`]
    /// overlays them from the engine itself.
    #[must_use]
    pub fn from_registry(reg: &MetricsRegistry) -> Self {
        EngineStats {
            inserts: reg.counter(Ctr::EngineInserts),
            updates: reg.counter(Ctr::EngineUpdates),
            deletes: reg.counter(Ctr::EngineDeletes),
            commits: reg.counter(Ctr::EngineCommits),
            aborts: reg.counter(Ctr::EngineAborts),
            wal_bytes: 0,
            image_bytes: 0,
        }
    }
}

/// The embedded database engine.
///
/// # Example
///
/// ```
/// use pstm_storage::{ColumnDef, Constraint, Database, Row, TableSchema};
/// use pstm_types::{TxnId, Value, ValueKind};
///
/// let db = Database::new();
/// let schema = TableSchema::new(
///     "Flight",
///     vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("free", ValueKind::Int)],
/// )?;
/// let t = db.create_table(schema, vec![Constraint::non_negative("free >= 0", 1)])?;
///
/// let txn = TxnId(1);
/// db.begin(txn)?;
/// let row = db.insert(txn, t, Row::new(vec![Value::Int(1), Value::Int(100)]))?;
/// db.update(txn, t, row, 1, Value::Int(99))?;
/// db.commit(txn)?;
/// assert_eq!(db.get_col(t, row, 1)?, Value::Int(99));
///
/// // The CHECK constraint is enforced on every write:
/// db.begin(TxnId(2))?;
/// assert!(db.update(TxnId(2), t, row, 1, Value::Int(-1)).is_err());
/// # Ok::<(), pstm_types::PstmError>(())
/// ```
pub struct Database {
    inner: RwLock<Inner>,
    /// Modeled round-trip to the LDBS device, paid once per
    /// [`Database::apply_write_set`] call — the cost an SST flush ships
    /// over the mobile link in the paper's deployment, and the cost the
    /// group commit amortizes (N fused commits pay it once).
    /// Zero by default: functional tests and chaos runs are unaffected.
    /// Nanoseconds in an atomic: every commit reads it, nothing waits on
    /// it.
    apply_latency_ns: AtomicU64,
    /// The one fault hook (see `pstm_types::fault`), asked at all six
    /// labeled sites: here and in the WAL (which holds a handle), in the
    /// managers' local commit and in the commit coordinator, both through
    /// [`Database::fault`]. Unset outside chaos runs and SST-failure tests
    /// (the paper's §VII asks what happens when an SST fails; this seam is
    /// how the middleware's retry/abort path is exercised).
    faults: Arc<FaultSeam>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty database.
    #[must_use]
    pub fn new() -> Self {
        Database::over(Inner::new(Catalog::new(), Vec::new(), Wal::new(), None))
    }

    fn over(mut inner: Inner) -> Self {
        let faults = Arc::new(FaultSeam::default());
        inner.wal.faults = Arc::clone(&faults);
        Database { inner: RwLock::new(inner), apply_latency_ns: AtomicU64::new(0), faults }
    }

    /// Sets the modeled per-flush LDBS round-trip charged by
    /// [`Database::apply_write_set`]. Benchmarks use it to measure how
    /// batching amortizes the device cost; leave at zero elsewhere.
    pub fn set_apply_latency(&self, latency: std::time::Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.apply_latency_ns.store(nanos, Ordering::SeqCst);
    }

    /// Routes engine and WAL events to `tracer`. The shared-`Arc` pattern
    /// above (managers hold `Arc<Database>`) makes this `&self`.
    pub fn set_tracer(&self, tracer: Tracer) {
        let mut inner = self.inner.write();
        inner.wal.set_tracer(tracer.clone());
        inner.obs.set_tracer(tracer);
    }

    /// Installs the fault hook every labeled site asks (see
    /// `pstm_types::fault`): one plan then counts arrivals across the
    /// whole stack.
    pub fn set_fault_hook(&self, hook: SharedFaultHook) {
        self.faults.set(Some(hook));
    }

    /// Removes the fault hook (bootstrap and teardown phases of a chaos
    /// run must not be faulted).
    pub fn clear_fault_hook(&self) {
        self.faults.set(None);
    }

    /// Asks the fault hook about `site` — one relaxed load when none is
    /// installed — and maps a fault the way every site that survives a
    /// transient one does: `Io` becomes a transient [`PstmError::Io`],
    /// `Crash` or `Torn` becomes [`PstmError::Crashed`]. `Some` carries the
    /// action the site's `FaultInjected` event names and the error it
    /// fails with.
    #[must_use]
    pub fn fault(&self, site: FaultSite) -> Option<(&'static str, PstmError)> {
        match self.faults.ask(site) {
            FaultDecision::Proceed => None,
            FaultDecision::Io => Some(("io", PstmError::Io(format!("injected fault at {site}")))),
            FaultDecision::Crash | FaultDecision::Torn { .. } => {
                Some(("crash", PstmError::Crashed(site.label())))
            }
        }
    }

    /// Creates a table with its constraints. DDL is autocommitted and
    /// WAL-logged, so it survives a crash even without a checkpoint.
    pub fn create_table(
        &self,
        schema: TableSchema,
        constraints: Vec<Constraint>,
    ) -> PstmResult<TableId> {
        let mut inner = self.inner.write();
        let id = inner.catalog.create_table(schema.clone(), constraints.clone())?;
        inner.catalog_stale = true;
        inner.heaps.push(HeapFile::new());
        inner.wal.append(&LogRecord::CreateTable { schema, constraints })?;
        Ok(id)
    }

    /// Resolves a table name.
    pub fn table_id(&self, name: &str) -> PstmResult<TableId> {
        self.inner.read().catalog.table_id(name)
    }

    /// Resolves a column name within a table.
    pub fn column_index(&self, table: TableId, column: &str) -> PstmResult<usize> {
        self.inner.read().catalog.meta(table)?.schema.column_index(column)
    }

    /// Starts an engine-level transaction.
    pub fn begin(&self, txn: TxnId) -> PstmResult<()> {
        let mut inner = self.inner.write();
        if inner.active.contains_key(&txn) {
            return Err(PstmError::InvalidState { txn, action: "begin", state: "active" });
        }
        let lsn = inner.wal.append(&LogRecord::Begin { txn })?;
        inner.active.insert(txn, lsn);
        Ok(())
    }

    /// Commits an engine-level transaction. Logically-deleted rows are
    /// physically purged now — only at commit does their space become
    /// reusable.
    pub fn commit(&self, txn: TxnId) -> PstmResult<()> {
        let mut inner = self.inner.write();
        if inner.active.remove(&txn).is_none() {
            return Err(PstmError::UnknownTxn(txn));
        }
        for (table, row_id) in inner.pending_deletes.remove(&txn).unwrap_or_default() {
            inner.heaps[table.0 as usize].purge(row_id)?;
        }
        inner.wal.append(&LogRecord::Commit { txn })?;
        inner.checkpoint_if_due();
        inner.obs.emit_unclocked([TraceEvent::EngineCommit { txn }]);
        Ok(())
    }

    /// Aborts an engine-level transaction, undoing its writes from the
    /// WAL's before-images (in reverse order).
    pub fn abort(&self, txn: TxnId) -> PstmResult<()> {
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        let begin = inner.active.remove(&txn).ok_or(PstmError::UnknownTxn(txn))?;
        let records = inner.wal.records_from(begin)?;
        for (_, rec) in records.iter().rev() {
            if rec.txn() != Some(txn) {
                continue;
            }
            match rec {
                LogRecord::Insert { table, row_id, .. } => {
                    inner.heaps[table.0 as usize].delete(*row_id)?;
                }
                LogRecord::Update { table, row_id, column, before, .. } => {
                    let heap = &mut inner.heaps[table.0 as usize];
                    let mut row = heap.get(*row_id)?;
                    row.set(*column, before.clone());
                    heap.update(*row_id, &row)?;
                }
                LogRecord::Delete { table, row_id, .. } => {
                    // The delete was only a logical mark; the bytes and
                    // slot are still reserved.
                    inner.heaps[table.0 as usize].undelete(*row_id)?;
                }
                _ => {}
            }
        }
        inner.pending_deletes.remove(&txn);
        inner.wal.append(&LogRecord::Abort { txn })?;
        inner.checkpoint_if_due();
        inner.obs.emit_unclocked([TraceEvent::EngineAbort { txn }]);
        Ok(())
    }

    fn require_active(inner: &Inner, txn: TxnId) -> PstmResult<()> {
        if inner.active.contains_key(&txn) {
            Ok(())
        } else {
            Err(PstmError::UnknownTxn(txn))
        }
    }

    /// Inserts a row under an active transaction.
    pub fn insert(&self, txn: TxnId, table: TableId, row: Row) -> PstmResult<RowId> {
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        Self::require_active(inner, txn)?;
        let meta = inner.catalog.meta(table)?;
        meta.schema.validate_row(row.values())?;
        for c in &meta.constraints {
            c.check_row(row.values())?;
        }
        let rid = inner.heaps[table.0 as usize].insert(&row)?;
        inner.wal.append(&LogRecord::Insert { txn, table, row_id: rid, row })?;
        inner.obs.emit_unclocked([TraceEvent::EngineInsert { txn }]);
        Ok(rid)
    }

    /// Updates one column of a row under an active transaction.
    pub fn update(
        &self,
        txn: TxnId,
        table: TableId,
        row_id: RowId,
        column: usize,
        value: Value,
    ) -> PstmResult<()> {
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        Self::require_active(inner, txn)?;
        let meta = inner.catalog.meta(table)?;
        meta.schema.validate_column(column, &value)?;
        for c in &meta.constraints {
            if c.column == column {
                c.check_value(&value)?;
            }
        }
        let heap = &mut inner.heaps[table.0 as usize];
        let mut row = heap.get(row_id)?;
        let before = row
            .get(column)
            .cloned()
            .ok_or_else(|| PstmError::NotFound(format!("column #{column} in {table}")))?;
        row.set(column, value.clone());
        heap.update(row_id, &row)?;
        inner.wal.append(&LogRecord::Update {
            txn,
            table,
            row_id,
            column,
            before,
            after: value,
        })?;
        inner.obs.emit_unclocked([TraceEvent::EngineUpdate { txn }]);
        Ok(())
    }

    /// Deletes a row under an active transaction.
    pub fn delete(&self, txn: TxnId, table: TableId, row_id: RowId) -> PstmResult<()> {
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        Self::require_active(inner, txn)?;
        let heap = &mut inner.heaps[table.0 as usize];
        let row = heap.get(row_id)?;
        // Deferred physical delete: mark now (readers no longer see the
        // row, but its space stays reserved), purge at commit, undelete
        // at abort.
        heap.mark_deleted(row_id)?;
        inner.pending_deletes.entry(txn).or_default().push((table, row_id));
        inner.wal.append(&LogRecord::Delete { txn, table, row_id, row })?;
        inner.obs.emit_unclocked([TraceEvent::EngineDelete { txn }]);
        Ok(())
    }

    /// Reads a full row (no transaction required: isolation is the
    /// managers' responsibility).
    pub fn get(&self, table: TableId, row_id: RowId) -> PstmResult<Row> {
        self.inner.read().heap(table)?.get(row_id)
    }

    /// Reads one column of a row, decoding that value alone.
    pub fn get_col(&self, table: TableId, row_id: RowId, column: usize) -> PstmResult<Value> {
        let value = self.inner.read().heap(table)?.get_col(row_id, column)?;
        value.ok_or_else(|| PstmError::NotFound(format!("column #{column} in {table}")))
    }

    /// Full scan of a table.
    pub fn scan(&self, table: TableId) -> PstmResult<Vec<(RowId, Row)>> {
        Ok(self.inner.read().heap(table)?.scan().collect())
    }

    /// Point lookup by column value: the rows of `table` whose `column`
    /// equals `value`, found by a scan in row-id order.
    pub fn lookup_eq(
        &self,
        table: TableId,
        column: usize,
        value: &Value,
    ) -> PstmResult<Vec<RowId>> {
        let inner = self.inner.read();
        Ok(inner
            .heap(table)?
            .scan()
            .filter(|(_, row)| row.get(column) == Some(value))
            .map(|(rid, _)| rid)
            .collect())
    }

    /// Applies a write set as one atomic short transaction — the engine
    /// side of a Secure System Transaction. All-or-nothing, under a single
    /// `inner` lock: every op is validated first (schema, constraints,
    /// before-images — no state touched, so a violation leaves no WAL or
    /// heap trace), then `Begin`+`Update`s+`Commit` land as one framed WAL
    /// flush, and only then does the heap mutate — mutations past
    /// validation cannot fail. A crash inside the flush therefore leaves
    /// the heap untouched and no `Commit` record for recovery to redo.
    ///
    /// The locked part is the exclusive section every committing client
    /// queues behind, so it is kept to validate → append → mutate: each
    /// row is decoded once and rewritten once, records are encoded from
    /// references straight into the WAL's frame buffer, and the plan
    /// lives in `Inner`'s reused vectors.
    ///
    /// The writes are a slice, wherever the caller keeps them: a
    /// [`WriteSet`] derefs to one.
    // pstm-lockgraph: flush-point
    pub fn apply_write_set(&self, txn: TxnId, ops: &[WriteOp]) -> PstmResult<()> {
        // The WAL append nested under this carves its own WalAppend time
        // out of this phase (exclusive accounting).
        let _phase = pstm_obs::prof::PhaseTimer::start(pstm_obs::prof::CommitPhase::SstApply);
        // The modeled device round-trip is paid before the engine locks
        // anything: flushes to different shards' rows overlap, but one
        // flush pays the trip whether it carries 1 commit or a fused 32.
        let device = self.apply_latency_ns.load(Ordering::SeqCst);
        if device > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(device));
        }
        if let Some((action, e)) = self.fault(FaultSite::SstApply) {
            // Before any state is touched: a transient device error is the
            // middleware's SST retry/abort machinery's to handle.
            let site = FaultSite::SstApply.label();
            self.inner
                .write()
                .obs
                .emit_unclocked([TraceEvent::FaultInjected { site, action: action.into() }]);
            return Err(e);
        }
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        if inner.active.contains_key(&txn) {
            return Err(PstmError::InvalidState { txn, action: "begin", state: "active" });
        }
        inner.load_update_rows(ops)?;
        if let Err(e) = inner.log_updates(txn, ops) {
            inner.wal.discard_staged();
            return Err(e);
        }
        for staged in &inner.staged_rows[..inner.staged] {
            inner.heaps[staged.table.0 as usize].update(staged.row_id, &staged.row)?;
        }
        inner.checkpoint_if_due();
        let updates = ops.iter().map(|_| TraceEvent::EngineUpdate { txn });
        inner.obs.emit_unclocked(updates.chain([TraceEvent::EngineCommit { txn }]));
        Ok(())
    }

    /// Quiescent checkpoint: captures the image and forgets the WAL —
    /// what the engine does by itself once its log outgrows the image.
    /// Fails if any transaction is active (the image must contain only
    /// committed data for redo-only recovery to be correct).
    pub fn checkpoint(&self) -> PstmResult<()> {
        self.inner.write().checkpoint()
    }

    /// Simulates a crash (all volatile state lost) followed by recovery
    /// from the checkpoint image + WAL. Active transactions disappear;
    /// their effects are rolled back by virtue of redo-only replay of
    /// committed work.
    pub fn simulate_crash_and_recover(&self) -> PstmResult<()> {
        self.crash_with_torn_tail(0)
    }

    /// Crash simulation that additionally tears the last `torn_bytes`
    /// bytes off the WAL before recovering, emulating a write cut short
    /// by power loss.
    pub fn crash_with_torn_tail(&self, torn_bytes: usize) -> PstmResult<()> {
        let mut inner = self.inner.write();
        inner.active.clear();
        inner.pending_deletes.clear();
        if torn_bytes > 0 {
            inner.wal.crash_truncate(torn_bytes);
        }
        // Physically discard any torn tail (from the truncation above or a
        // torn-page fault injected mid-append) BEFORE recovering. Redo
        // skips the tear either way, but without the trim, post-recovery
        // appends would land behind the garbage and a second recovery
        // would stop at the tear and lose them — recovery must be
        // idempotent under double replay.
        inner.wal.trim_torn_tail();
        let (catalog, heaps, stats) = crate::recovery::recover(&inner.image, &inner.wal)?;
        inner.catalog = catalog;
        inner.heaps = heaps;
        inner.obs.emit_unclocked([TraceEvent::Recovered {
            winners: stats.winners,
            records: stats.records,
        }]);
        Ok(())
    }

    /// Persists the database to a single file: takes a quiescent
    /// checkpoint (fails if transactions are active) and writes the
    /// catalog + heap images atomically.
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> PstmResult<()> {
        self.checkpoint()?;
        let inner = self.inner.read();
        let cp = inner.image.as_ref().expect("checkpoint() just installed an image");
        let bytes = crate::persist::encode(&cp.catalog_json, &cp.heaps);
        crate::persist::write_atomic(path.as_ref(), &bytes)
    }

    /// Opens a database previously written by [`Database::save_to`]. The
    /// image is validated (magic, per-section checksums) and loaded
    /// through the same path crash recovery uses.
    pub fn open_from(path: impl AsRef<std::path::Path>) -> PstmResult<Self> {
        let bytes = crate::persist::read_all(path.as_ref())?;
        let (catalog_json, heaps) = crate::persist::decode(&bytes)?;
        let image = Some(CheckpointImage { catalog_json, heaps });
        let wal = Wal::new();
        let (catalog, heaps, _stats) = crate::recovery::recover(&image, &wal)?;
        Ok(Database::over(Inner::new(catalog, heaps, wal, image)))
    }

    /// Snapshot of the engine counters, projected from the obs registry
    /// with the live WAL and image sizes overlaid.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let inner = self.inner.read();
        let mut s = EngineStats::from_registry(inner.obs.registry());
        (s.wal_bytes, s.image_bytes) = (inner.wal.len_bytes(), inner.image_bytes());
        s
    }

    /// The metrics the engine's and its WAL's events produced, merged.
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        let inner = self.inner.read();
        let mut metrics = inner.obs.registry().clone();
        metrics.merge(inner.wal.metrics());
        metrics
    }

    /// Number of live rows in `table`.
    pub fn row_count(&self, table: TableId) -> PstmResult<usize> {
        Ok(self.inner.read().heap(table)?.row_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use pstm_types::ValueKind;

    fn setup() -> (Database, TableId) {
        let db = Database::new();
        let schema = TableSchema::new(
            "Flight",
            vec![
                ColumnDef::new("id", ValueKind::Int),
                ColumnDef::new("free_tickets", ValueKind::Int),
                ColumnDef::new("price", ValueKind::Float),
            ],
        )
        .unwrap();
        let t = db
            .create_table(schema, vec![Constraint::non_negative("free_tickets >= 0", 1)])
            .unwrap();
        (db, t)
    }

    fn flight(id: i64, free: i64, price: f64) -> Row {
        Row::new(vec![Value::Int(id), Value::Int(free), Value::Float(price)])
    }

    #[test]
    fn crud_round_trip() {
        let (db, t) = setup();
        let txn = TxnId(1);
        db.begin(txn).unwrap();
        let rid = db.insert(txn, t, flight(1, 100, 59.9)).unwrap();
        db.update(txn, t, rid, 1, Value::Int(99)).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(db.get_col(t, rid, 1).unwrap(), Value::Int(99));
        assert_eq!(db.row_count(t).unwrap(), 1);
    }

    #[test]
    fn constraint_rejected_on_insert_and_update() {
        let (db, t) = setup();
        let txn = TxnId(1);
        db.begin(txn).unwrap();
        assert!(matches!(
            db.insert(txn, t, flight(1, -5, 1.0)).unwrap_err(),
            PstmError::ConstraintViolation { .. }
        ));
        let rid = db.insert(txn, t, flight(1, 0, 1.0)).unwrap();
        assert!(db.update(txn, t, rid, 1, Value::Int(-1)).is_err());
        db.commit(txn).unwrap();
        assert_eq!(db.get_col(t, rid, 1).unwrap(), Value::Int(0));
    }

    #[test]
    fn abort_undoes_everything_in_reverse() {
        let (db, t) = setup();
        let setup_txn = TxnId(1);
        db.begin(setup_txn).unwrap();
        let keep = db.insert(setup_txn, t, flight(1, 10, 1.0)).unwrap();
        db.commit(setup_txn).unwrap();

        let txn = TxnId(2);
        db.begin(txn).unwrap();
        let new_rid = db.insert(txn, t, flight(2, 20, 2.0)).unwrap();
        db.update(txn, t, keep, 1, Value::Int(5)).unwrap();
        db.update(txn, t, keep, 1, Value::Int(3)).unwrap();
        db.delete(txn, t, keep).unwrap();
        db.abort(txn).unwrap();

        assert!(db.get(t, new_rid).is_err(), "inserted row rolled back");
        assert_eq!(db.get_col(t, keep, 1).unwrap(), Value::Int(10), "updates + delete undone");
        assert_eq!(db.row_count(t).unwrap(), 1);
    }

    #[test]
    fn write_set_is_atomic_under_constraint_failure() {
        let (db, t) = setup();
        let txn = TxnId(1);
        db.begin(txn).unwrap();
        let rid = db.insert(txn, t, flight(1, 1, 1.0)).unwrap();
        db.commit(txn).unwrap();

        // Second update violates free_tickets >= 0 — the first must also
        // roll back.
        let ws = WriteSet::new()
            .with(WriteOp::Update { table: t, row_id: rid, column: 2, value: Value::Float(9.0) })
            .with(WriteOp::Update { table: t, row_id: rid, column: 1, value: Value::Int(-1) });
        let err = db.apply_write_set(TxnId(2), &ws).unwrap_err();
        assert!(matches!(err, PstmError::ConstraintViolation { .. }));
        assert_eq!(db.get_col(t, rid, 2).unwrap(), Value::Float(1.0));
        // `apply_write_set` validates the whole set before
        // touching the WAL or heap: the rejection happens before any
        // engine transaction begins, so there is no abort to count and
        // no undo trail in the log.
        let stats = db.stats();
        assert_eq!(stats.aborts, 0);
    }

    #[test]
    fn batched_commit_logs_chained_images_and_moves_indexes() {
        let (db, t) = setup();
        db.begin(TxnId(1)).unwrap();
        let a = db.insert(TxnId(1), t, flight(1, 10, 1.0)).unwrap();
        let b = db.insert(TxnId(1), t, flight(2, 20, 2.0)).unwrap();
        db.commit(TxnId(1)).unwrap();
        let logged = db.inner.read().wal.records().unwrap().len();

        // Two updates chain on one column of `a`, a third touches `b`.
        let update = |row_id, column, value| WriteOp::Update { table: t, row_id, column, value };
        let ws = WriteSet::new()
            .with(update(a, 1, Value::Int(7)))
            .with(update(b, 2, Value::Float(2.5)))
            .with(update(a, 1, Value::Int(5)));
        db.apply_write_set(TxnId(2), &ws).unwrap();

        let txn = TxnId(2);
        let record = |row_id, column, before, after| LogRecord::Update {
            txn,
            table: t,
            row_id,
            column,
            before,
            after,
        };
        let tail: Vec<LogRecord> = db
            .inner
            .read()
            .wal
            .records()
            .unwrap()
            .into_iter()
            .skip(logged)
            .map(|(_, r)| r)
            .collect();
        assert_eq!(
            tail,
            vec![
                LogRecord::Begin { txn },
                record(a, 1, Value::Int(10), Value::Int(7)),
                record(b, 2, Value::Float(2.0), Value::Float(2.5)),
                record(a, 1, Value::Int(7), Value::Int(5)),
                LogRecord::Commit { txn },
            ]
        );
        for _ in 0..2 {
            assert_eq!(db.get(t, a).unwrap(), flight(1, 5, 1.0));
            assert_eq!(db.get(t, b).unwrap(), flight(2, 20, 2.5));
            assert_eq!(db.lookup_eq(t, 1, &Value::Int(5)).unwrap(), vec![a]);
            assert!(db.lookup_eq(t, 1, &Value::Int(10)).unwrap().is_empty());
            assert!(db.lookup_eq(t, 1, &Value::Int(7)).unwrap().is_empty());
            // ... and the same again from the log alone.
            db.simulate_crash_and_recover().unwrap();
        }
    }

    #[test]
    fn a_rejected_batch_leaves_nothing_staged() {
        let (db, t) = setup();
        db.begin(TxnId(1)).unwrap();
        let rid = db.insert(TxnId(1), t, flight(1, 1, 1.0)).unwrap();
        db.commit(TxnId(1)).unwrap();
        let before = db.stats().wal_bytes;
        let update = |column, value| WriteOp::Update { table: t, row_id: rid, column, value };
        let bad =
            WriteSet::new().with(update(2, Value::Float(9.0))).with(update(1, Value::Int(-1)));
        assert!(db.apply_write_set(TxnId(2), &bad).is_err());
        assert_eq!(db.stats().wal_bytes, before);
        // The frames staged before the violation must not ride along
        // with the next commit.
        db.apply_write_set(TxnId(3), &WriteSet::new().with(update(1, Value::Int(0)))).unwrap();
        let txns: Vec<Option<TxnId>> =
            db.inner.read().wal.records().unwrap().iter().map(|(_, r)| r.txn()).collect();
        assert!(!txns.contains(&Some(TxnId(2))), "{txns:?}");
        assert_eq!(txns.iter().filter(|t| **t == Some(TxnId(3))).count(), 3);
    }

    #[test]
    fn indexes_serve_lookups_and_stay_consistent() {
        let (db, t) = setup();
        let txn = TxnId(1);
        db.begin(txn).unwrap();
        let r1 = db.insert(txn, t, flight(1, 7, 1.0)).unwrap();
        let r2 = db.insert(txn, t, flight(2, 7, 2.0)).unwrap();
        let r3 = db.insert(txn, t, flight(3, 9, 3.0)).unwrap();
        db.commit(txn).unwrap();

        let mut hits = db.lookup_eq(t, 1, &Value::Int(7)).unwrap();
        hits.sort();
        assert_eq!(hits, vec![r1, r2]);

        let txn2 = TxnId(2);
        db.begin(txn2).unwrap();
        db.update(txn2, t, r1, 1, Value::Int(9)).unwrap();
        db.delete(txn2, t, r3).unwrap();
        db.commit(txn2).unwrap();

        assert_eq!(db.lookup_eq(t, 1, &Value::Int(7)).unwrap(), vec![r2]);
        assert_eq!(db.lookup_eq(t, 1, &Value::Int(9)).unwrap(), vec![r1]);
    }

    #[test]
    fn lookup_without_index_scans() {
        let (db, t) = setup();
        let txn = TxnId(1);
        db.begin(txn).unwrap();
        let rid = db.insert(txn, t, flight(1, 11, 1.0)).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(db.lookup_eq(t, 1, &Value::Int(11)).unwrap(), vec![rid]);
    }

    #[test]
    fn writes_require_active_transaction() {
        let (db, t) = setup();
        assert!(matches!(
            db.insert(TxnId(9), t, flight(1, 1, 1.0)).unwrap_err(),
            PstmError::UnknownTxn(_)
        ));
        assert!(db.commit(TxnId(9)).is_err());
        assert!(db.abort(TxnId(9)).is_err());
    }

    #[test]
    fn double_begin_rejected() {
        let (db, _) = setup();
        db.begin(TxnId(1)).unwrap();
        assert!(matches!(db.begin(TxnId(1)).unwrap_err(), PstmError::InvalidState { .. }));
    }

    #[test]
    fn checkpoint_requires_quiescence() {
        let (db, _) = setup();
        db.begin(TxnId(1)).unwrap();
        assert!(db.checkpoint().is_err());
        db.commit(TxnId(1)).unwrap();
        db.checkpoint().unwrap();
    }

    #[test]
    fn stats_accumulate() {
        let (db, t) = setup();
        let txn = TxnId(1);
        db.begin(txn).unwrap();
        let rid = db.insert(txn, t, flight(1, 5, 1.0)).unwrap();
        db.update(txn, t, rid, 1, Value::Int(4)).unwrap();
        db.commit(txn).unwrap();
        let s = db.stats();
        assert_eq!((s.inserts, s.updates, s.commits), (1, 1, 1));
        assert!(s.wal_bytes > 0);
    }

    /// `cargo test --release -p pstm-storage --lib checkpoint_cost --
    /// --ignored --nocapture`: one checkpoint over 0 and 1 024 counter
    /// rows — the stall a self-checkpoint adds to the write that crosses
    /// the line.
    #[test]
    #[ignore = "timing probe; run in release"]
    fn checkpoint_cost() {
        for rows in [0i64, 1_024] {
            let db = Database::new();
            let schema = TableSchema::new(
                "Counter",
                vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("value", ValueKind::Int)],
            )
            .unwrap();
            let t = db.create_table(schema, vec![Constraint::non_negative("v", 1)]).unwrap();
            db.begin(TxnId(1)).unwrap();
            for i in 0..rows {
                db.insert(TxnId(1), t, Row::new(vec![Value::Int(i), Value::Int(1)])).unwrap();
            }
            db.commit(TxnId(1)).unwrap();
            db.checkpoint().unwrap();
            let rounds = 4_000u32;
            let start = std::time::Instant::now();
            for _ in 0..rounds {
                db.checkpoint().unwrap();
            }
            let us = start.elapsed().as_secs_f64() * 1e6 / f64::from(rounds);
            println!("{rows:>5} rows: {us:.2} us per checkpoint");
        }
    }
}
