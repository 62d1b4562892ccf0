//! Secure System Transactions.
//!
//! At global commit the GTM owns, for every resource the transaction
//! mutated, a reconciled value `X_new`. The SST is the short classical
//! transaction that writes those values to the LDBS; the paper delegates
//! consistency and durability to it. If the LDBS rejects the SST (a CHECK
//! constraint such as `FreeTickets ≥ 0` fails after reconciliation — the
//! §VII "high rate of aborts" problem), the whole global commit fails and
//! the GTM aborts the transaction.

use pstm_storage::{BindingRegistry, Database, WriteOp};
use pstm_types::{InlineVec, PstmResult, ResourceId, TxnId, Value};

/// Reconciled `(resource, X_new)` pairs: usually one or two per commit,
/// kept inline.
pub type Writes = InlineVec<(ResourceId, Value), 4>;

/// A prepared Secure System Transaction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sst {
    /// The middleware transaction this SST commits.
    pub origin: TxnId,
    /// The reconciled values to flush, in resource order.
    pub writes: Writes,
}

/// Offset added to the origin transaction id to form the engine-level SST
/// transaction id (keeps middleware and SST ids disjoint in the WAL).
/// [`crate::gtm::Gtm::begin`] rejects middleware ids at or above this
/// base, so the addition below cannot overflow or collide. The canonical
/// definition lives on [`TxnId`] so offline forensics can invert it.
pub(crate) const SST_ID_BASE: u64 = TxnId::SST_ENGINE_BASE;

impl Sst {
    /// Builds an SST from reconciled `(resource, X_new)` pairs. Pairs are
    /// sorted by resource for deterministic WAL content.
    #[must_use]
    pub fn new(origin: TxnId, writes: impl IntoIterator<Item = (ResourceId, Value)>) -> Self {
        let mut writes: Writes = writes.into_iter().collect();
        writes.sort_by_key(|(r, _)| *r);
        Sst { origin, writes }
    }

    /// The engine transaction id this SST runs under.
    #[must_use]
    pub fn engine_txn(&self) -> TxnId {
        self.origin.sst_engine()
    }

    /// Whether there is anything to write (the coordinator builds no SST
    /// for a transaction without writes; an empty one executes as a no-op).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Executes the SST against the LDBS as one atomic write set. CHECK
    /// constraints are enforced inside; on violation nothing is applied
    /// and the error is returned for the GTM to convert into a global
    /// abort.
    // pstm-lockgraph: flush-point
    pub fn execute(&self, db: &Database, bindings: &BindingRegistry) -> PstmResult<()> {
        apply(db, bindings, self.engine_txn(), self.writes.iter())
    }
}

/// The one flush body behind [`Sst::execute`] and [`SstBatch::execute`]:
/// resolves each `(resource, X_new)` pair to its column and applies the
/// whole set as a single atomic engine write, built inline. Empty sets are
/// skipped.
fn apply<'a>(
    db: &Database,
    bindings: &BindingRegistry,
    engine_txn: TxnId,
    writes: impl Iterator<Item = &'a (ResourceId, Value)>,
) -> PstmResult<()> {
    let mut ops: InlineVec<WriteOp, 4> = InlineVec::new();
    for (resource, value) in writes {
        let b = bindings.resolve(*resource)?;
        let value = value.clone();
        ops.push(WriteOp::Update { table: b.table, row_id: b.row, column: b.column, value });
    }
    if ops.is_empty() {
        return Ok(());
    }
    db.apply_write_set(engine_txn, &ops)
}

/// A fused SST batch: N ready commits on one shard flushed as **one**
/// engine transaction — one lock acquisition, one framed WAL flush, one
/// atomic apply — instead of N. A batch of one is not a group: it *is*
/// its member's SST, same engine id, same WAL bytes.
///
/// Members must have pairwise-disjoint write sets (enforced by
/// [`SstBatch::push`]): every member's `commit_local` reconciled against
/// the pre-batch permanent image, so two members writing one resource
/// would silently drop the earlier member's update (a lost update).
/// Overlapping candidates cut the group instead and flush separately.
///
/// Because the fusion is a single engine transaction, a crash anywhere
/// inside it is whole-batch-or-nothing after recovery: no member's
/// frames can surface without every member's.
#[derive(Clone, Debug, PartialEq)]
pub struct SstBatch {
    /// The member whose commit leads the group (first pushed).
    pub leader: TxnId,
    /// Member SSTs in arrival order; empty members are legal (read-only
    /// transactions ride along for the group ack). A lone member stays
    /// inline.
    pub members: InlineVec<Sst, 1>,
}

impl SstBatch {
    /// A batch seeded with its first member, which leads the group — the
    /// one way to start a batch, so none is ever empty. Unlike
    /// [`SstBatch::push`] this cannot be refused — a singleton batch has
    /// nothing to overlap with.
    #[must_use]
    pub fn of(first: Sst) -> Self {
        SstBatch { leader: first.origin, members: [first].into_iter().collect() }
    }

    /// Adds `sst` if its writes are disjoint from every member's, else
    /// returns it back — the caller must cut the group there.
    #[allow(clippy::result_large_err)] // refusal hands the SST back whole, and is rare
    pub fn push(&mut self, sst: Sst) -> Result<(), Sst> {
        let overlaps = self
            .members
            .iter()
            .any(|m| m.writes.iter().any(|(r, _)| sst.writes.iter().any(|(r2, _)| r == r2)));
        if overlaps {
            return Err(sst);
        }
        self.members.push(sst);
        Ok(())
    }

    /// Number of member commits in the group.
    #[must_use]
    #[allow(clippy::len_without_is_empty)] // a batch starts with a member: never empty
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// The engine transaction id the flush runs under: the fused id of
    /// the leader for a group, the lone member's own SST id otherwise —
    /// what `pstm_obs::postmortem` assumes when it maps engine commits
    /// back to transactions (`GroupCommit` seen ⇒ `batch_engine`).
    #[must_use]
    pub fn engine_txn(&self) -> TxnId {
        match &self.members[..] {
            [alone] => alone.engine_txn(),
            _ => self.leader.batch_engine(),
        }
    }

    /// Executes every member's writes as one atomic write set. Disjoint
    /// members make the fused order irrelevant; writes are re-sorted by
    /// resource across the whole group for deterministic WAL content.
    /// On any error (constraint violation, injected fault) nothing is
    /// applied for *any* member.
    // pstm-lockgraph: flush-point
    pub fn execute(&self, db: &Database, bindings: &BindingRegistry) -> PstmResult<()> {
        if let [alone] = &self.members[..] {
            return alone.execute(db, bindings);
        }
        let mut writes: Vec<&(ResourceId, Value)> =
            self.members.iter().flat_map(|m| m.writes.iter()).collect();
        writes.sort_by_key(|(r, _)| *r);
        apply(db, bindings, self.engine_txn(), writes.into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstm_storage::{ColumnDef, Constraint, Row, TableSchema};
    use pstm_types::{MemberId, PstmError, ValueKind};
    use std::sync::Arc;

    fn setup() -> (Arc<Database>, BindingRegistry, Vec<ResourceId>) {
        let db = Arc::new(Database::new());
        let schema = TableSchema::new(
            "Car",
            vec![ColumnDef::new("id", ValueKind::Int), ColumnDef::new("free", ValueKind::Int)],
        )
        .unwrap();
        let table = db.create_table(schema, vec![Constraint::non_negative("free>=0", 1)]).unwrap();
        let boot = TxnId(999);
        db.begin(boot).unwrap();
        let mut bindings = BindingRegistry::new();
        let mut rs = Vec::new();
        for i in 0..2 {
            let row =
                db.insert(boot, table, Row::new(vec![Value::Int(i), Value::Int(10)])).unwrap();
            let o = bindings.bind_object(table, row, &[(MemberId::ATOMIC, 1)]).unwrap();
            rs.push(ResourceId::atomic(o));
        }
        db.commit(boot).unwrap();
        (db, bindings, rs)
    }

    #[test]
    fn sst_flushes_reconciled_values() {
        let (db, bindings, rs) = setup();
        let sst = Sst::new(TxnId(1), vec![(rs[0], Value::Int(9)), (rs[1], Value::Int(8))]);
        sst.execute(&db, &bindings).unwrap();
        let b0 = bindings.resolve(rs[0]).unwrap();
        let b1 = bindings.resolve(rs[1]).unwrap();
        assert_eq!(db.get_col(b0.table, b0.row, b0.column).unwrap(), Value::Int(9));
        assert_eq!(db.get_col(b1.table, b1.row, b1.column).unwrap(), Value::Int(8));
    }

    #[test]
    fn constraint_violation_applies_nothing() {
        let (db, bindings, rs) = setup();
        let sst = Sst::new(TxnId(1), vec![(rs[0], Value::Int(5)), (rs[1], Value::Int(-1))]);
        let err = sst.execute(&db, &bindings).unwrap_err();
        assert!(matches!(err, PstmError::ConstraintViolation { .. }));
        let b0 = bindings.resolve(rs[0]).unwrap();
        assert_eq!(db.get_col(b0.table, b0.row, b0.column).unwrap(), Value::Int(10), "atomic");
    }

    #[test]
    fn empty_sst_is_a_noop() {
        let (db, bindings, _) = setup();
        let sst = Sst::new(TxnId(7), vec![]);
        assert!(sst.is_empty());
        sst.execute(&db, &bindings).unwrap();
        assert_eq!(db.stats().commits, 1, "only the bootstrap commit");
    }

    #[test]
    fn engine_ids_are_disjoint_from_middleware_ids() {
        let sst = Sst::new(TxnId(42), vec![]);
        assert_ne!(sst.engine_txn(), TxnId(42));
        assert!(sst.engine_txn().0 > (1 << 48));
    }

    #[test]
    fn writes_are_sorted_for_determinism() {
        let (_, _, rs) = setup();
        let sst = Sst::new(TxnId(1), vec![(rs[1], Value::Int(1)), (rs[0], Value::Int(2))]);
        assert!(sst.writes[0].0 < sst.writes[1].0);
    }

    #[test]
    fn batch_fuses_disjoint_members_into_one_apply() {
        let (db, bindings, rs) = setup();
        let commits_before = db.stats().commits;
        let mut batch = SstBatch::of(Sst::new(TxnId(1), vec![(rs[0], Value::Int(7))]));
        batch.push(Sst::new(TxnId(2), vec![(rs[1], Value::Int(6))])).unwrap();
        assert_eq!(batch.len(), 2);
        batch.execute(&db, &bindings).unwrap();
        let b0 = bindings.resolve(rs[0]).unwrap();
        let b1 = bindings.resolve(rs[1]).unwrap();
        assert_eq!(db.get_col(b0.table, b0.row, b0.column).unwrap(), Value::Int(7));
        assert_eq!(db.get_col(b1.table, b1.row, b1.column).unwrap(), Value::Int(6));
        assert_eq!(db.stats().commits, commits_before + 1, "one engine commit for the group");
    }

    #[test]
    fn batch_rejects_overlapping_members() {
        let (_, _, rs) = setup();
        let mut batch = SstBatch::of(Sst::new(TxnId(1), vec![(rs[0], Value::Int(7))]));
        let rejected = batch
            .push(Sst::new(TxnId(2), vec![(rs[0], Value::Int(5)), (rs[1], Value::Int(4))]))
            .unwrap_err();
        assert_eq!(rejected.origin, TxnId(2), "the overlapping SST comes back whole");
        assert_eq!(batch.len(), 1);
        // A disjoint member still fits after the rejection.
        batch.push(Sst::new(TxnId(3), vec![(rs[1], Value::Int(3))])).unwrap();
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn batch_constraint_violation_applies_nothing_for_any_member() {
        let (db, bindings, rs) = setup();
        let mut batch = SstBatch::of(Sst::new(TxnId(1), vec![(rs[0], Value::Int(5))]));
        batch.push(Sst::new(TxnId(2), vec![(rs[1], Value::Int(-1))])).unwrap();
        let err = batch.execute(&db, &bindings).unwrap_err();
        assert!(matches!(err, PstmError::ConstraintViolation { .. }));
        let b0 = bindings.resolve(rs[0]).unwrap();
        assert_eq!(
            db.get_col(b0.table, b0.row, b0.column).unwrap(),
            Value::Int(10),
            "the innocent member's write must not survive a fused failure"
        );
    }

    #[test]
    fn batch_engine_ids_are_disjoint_from_sst_and_middleware_ids() {
        let mut batch = SstBatch::of(Sst::new(TxnId(42), vec![]));
        assert_eq!(batch.engine_txn(), TxnId(42).sst_engine(), "a batch of one is its member");
        batch.push(Sst::new(TxnId(43), vec![])).unwrap();
        assert!(batch.engine_txn().0 >= TxnId::SST_BATCH_ENGINE_BASE);
        assert_ne!(batch.engine_txn(), Sst::new(TxnId(42), vec![]).engine_txn());
    }
}
