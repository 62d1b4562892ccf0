//! Strongly-typed identifiers.
//!
//! Newtypes over integers keep the crates honest about which id is which and
//! cost nothing at runtime. All ids are `Copy`, hashable and ordered so they
//! can key `BTreeMap`s deterministically (determinism matters: the simulator
//! must replay identically for a given seed).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a transaction, unique within one manager instance.
///
/// Ids are allocated monotonically; the allocation order doubles as the
/// arrival order `λ` used by the paper's workload description (§VI.B).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnId(pub u64);

impl TxnId {
    /// First id handed out by an id allocator.
    pub const FIRST: TxnId = TxnId(1);

    /// Base of the engine-transaction id namespace a **solo** SST runs
    /// under: `SST_ENGINE_BASE + origin`. Middleware allocators stay
    /// below this base, keeping the two id spaces disjoint in the WAL.
    pub const SST_ENGINE_BASE: u64 = 1 << 48;

    /// Base of the engine-transaction id namespace a **fused** SST batch
    /// runs under: `SST_BATCH_ENGINE_BASE + leader`. Disjoint from both
    /// middleware ids and solo-SST engine ids.
    pub const SST_BATCH_ENGINE_BASE: u64 = 1 << 49;

    /// Returns the next id in allocation order.
    #[must_use]
    pub fn next(self) -> TxnId {
        TxnId(self.0 + 1)
    }

    /// The engine transaction id a solo SST for this origin runs under.
    #[must_use]
    pub fn sst_engine(self) -> TxnId {
        TxnId(Self::SST_ENGINE_BASE + self.0)
    }

    /// The engine transaction id a fused batch led by this origin runs
    /// under.
    #[must_use]
    pub fn batch_engine(self) -> TxnId {
        TxnId(Self::SST_BATCH_ENGINE_BASE + self.0)
    }

    /// Inverts the engine-id namespaces: the middleware origin (the solo
    /// committer, or the batch leader) for an SST-spaced engine id,
    /// `None` for ids outside both namespaces. What crash forensics uses
    /// to tie an engine-level `Commit` back to the transaction whose
    /// durability it witnesses.
    #[must_use]
    pub fn engine_origin(self) -> Option<TxnId> {
        if self.0 >= Self::SST_BATCH_ENGINE_BASE {
            Some(TxnId(self.0 - Self::SST_BATCH_ENGINE_BASE))
        } else if self.0 >= Self::SST_ENGINE_BASE {
            Some(TxnId(self.0 - Self::SST_ENGINE_BASE))
        } else {
            None
        }
    }
}

/// Monotonic [`TxnId`] source safe to share across session threads.
///
/// This is the declared atomics seam for transaction-id allocation: the
/// one place a front-end may mint ids concurrently. Keeping the atomic
/// here (rather than open-coded at each front) lets the concurrency
/// analyzer pin every `Ordering::Relaxed` to an audited site.
#[derive(Debug)]
pub struct TxnIdAllocator {
    next: std::sync::atomic::AtomicU64,
}

impl TxnIdAllocator {
    /// An allocator whose first id is `first`.
    #[must_use]
    pub fn starting_at(first: u64) -> Self {
        TxnIdAllocator { next: std::sync::atomic::AtomicU64::new(first) }
    }

    /// Mints the next id.
    // pstm-lockgraph: event-loop — session admission happens on the
    // future async front-end's hot path; one lock-free RMW, nothing else.
    #[must_use]
    pub fn allocate(&self) -> TxnId {
        // relaxed: ids need uniqueness and monotonicity only, which the
        // atomic RMW itself provides; no other memory is published
        // through this counter.
        TxnId(self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of a database *object* (the paper's `X`, `Y`, `Z` …).
///
/// In the storage engine an object maps to a row of a catalogued table; in
/// the middleware it is an abstract data type with data members.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectId(pub u32);

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// Identifier of a *data member* of an object (a column of the row backing
/// the object). Compatibility (Definition 1 in the paper) is evaluated per
/// data member: operations on distinct, logically independent members never
/// conflict.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MemberId(pub u16);

impl MemberId {
    /// Conventional member used for objects of atomic type (a single field).
    pub const ATOMIC: MemberId = MemberId(0);
}

impl fmt::Debug for MemberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Display for MemberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// The lockable unit of the middleware: an object data member.
///
/// The paper's Definition 1 requires two invocation events to refer to "the
/// same object data member" before they can conflict, so everything in the
/// global transaction manager is keyed by `ResourceId` rather than by bare
/// [`ObjectId`].
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ResourceId {
    /// Object the member belongs to.
    pub object: ObjectId,
    /// Data member within the object.
    pub member: MemberId,
}

impl ResourceId {
    /// Creates the resource id for `member` of `object`.
    #[must_use]
    pub fn new(object: ObjectId, member: MemberId) -> Self {
        ResourceId { object, member }
    }

    /// Resource id for an atomic (single-member) object.
    #[must_use]
    pub fn atomic(object: ObjectId) -> Self {
        ResourceId { object, member: MemberId::ATOMIC }
    }
}

impl fmt::Debug for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.object, self.member)
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.object, self.member)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_next_is_monotonic() {
        let a = TxnId::FIRST;
        let b = a.next();
        assert!(b > a);
        assert_eq!(b, TxnId(2));
    }

    #[test]
    fn resource_id_atomic_uses_member_zero() {
        let r = ResourceId::atomic(ObjectId(7));
        assert_eq!(r.member, MemberId::ATOMIC);
        assert_eq!(r.object, ObjectId(7));
    }

    #[test]
    fn ids_format_compactly() {
        assert_eq!(format!("{}", TxnId(3)), "T3");
        assert_eq!(format!("{}", ResourceId::new(ObjectId(1), MemberId(2))), "X1.m2");
        assert_eq!(format!("{:?}", ResourceId::atomic(ObjectId(4))), "X4.m0");
    }

    #[test]
    fn resource_ids_order_by_object_then_member() {
        let a = ResourceId::new(ObjectId(1), MemberId(9));
        let b = ResourceId::new(ObjectId(2), MemberId(0));
        assert!(a < b);
        let c = ResourceId::new(ObjectId(1), MemberId(10));
        assert!(a < c);
    }
}
