//! Operation classes and the paper's Table-I compatibility matrix.
//!
//! The paper assumes the semantics of each invocation is known a priori and
//! partitions operations into *classes*. Compatibility (Definition 1) is a
//! specialization of Weihl's forward commutativity: two invocations are
//! compatible iff they refer to the same object data member, commute on
//! every object state, and a reconciliation algorithm exists that can
//! compute the final database value at commit time.
//!
//! Table I of the paper:
//!
//! | class                         | compatible with                    |
//! |-------------------------------|------------------------------------|
//! | Read                          | all classes                        |
//! | Insert / Delete               | no classes                         |
//! | update with assignment        | Read                               |
//! | update with add/sub           | Addition/Subtraction, Read         |
//! | update with mul/div           | Multiplication/Division, Read      |
//!
//! Note the matrix is symmetric, and `Insert`/`Delete` are incompatible
//! even with `Read` (a read cannot commute with the appearance or
//! disappearance of the object itself).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The class of an invocation event, as declared by the issuing
/// transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpClass {
    /// Plain read of a data member.
    ///
    /// Following the paper's simplification ("we will assume no difference
    /// between read operations finalized to update, and write operations"),
    /// a read that is a prelude to an update should be classified as the
    /// update's class, not as `Read`.
    Read,
    /// Creation of a new object.
    Insert,
    /// Removal of an existing object.
    Delete,
    /// `X = c` — overwrite with a constant.
    UpdateAssign,
    /// `X = X ± c` — additive update (addition and subtraction form one
    /// class; they reconcile with paper eq. 1).
    UpdateAddSub,
    /// `X = X · c` or `X = X / c`, `c ≠ 0` — multiplicative update
    /// (reconciles with paper eq. 2).
    UpdateMulDiv,
}

/// `Read`: what an unused inline slot holds.
impl Default for OpClass {
    fn default() -> Self {
        OpClass::Read
    }
}

impl OpClass {
    /// All six classes, in declaration order. Handy for exhaustive tests
    /// and for sweeping workloads over operation mixes.
    pub const ALL: [OpClass; 6] = [
        OpClass::Read,
        OpClass::Insert,
        OpClass::Delete,
        OpClass::UpdateAssign,
        OpClass::UpdateAddSub,
        OpClass::UpdateMulDiv,
    ];

    /// Table-I compatibility: can invocations of `self` and `other` be
    /// granted concurrently on the same object data member?
    #[must_use]
    pub fn compatible_with(self, other: OpClass) -> bool {
        use OpClass::*;
        match (self, other) {
            // Insert/Delete tolerate no concurrent class, not even Read.
            (Insert | Delete, _) | (_, Insert | Delete) => false,
            // Read is compatible with every remaining class.
            (Read, _) | (_, Read) => true,
            // Updates are compatible only within their own reconcilable
            // class.
            (UpdateAddSub, UpdateAddSub) => true,
            (UpdateMulDiv, UpdateMulDiv) => true,
            // Assignment commutes with nothing but Read.
            _ => false,
        }
    }

    /// Whether this class mutates the object (everything but `Read`).
    #[must_use]
    pub fn is_mutation(self) -> bool {
        !matches!(self, OpClass::Read)
    }

    /// Whether a reconciliation algorithm exists for two concurrent
    /// holders of this class (Definition 1, condition 3). True exactly for
    /// the additive and multiplicative update classes; `Read` needs no
    /// reconciliation, assignment/insert/delete admit none.
    #[must_use]
    pub fn is_reconcilable(self) -> bool {
        matches!(self, OpClass::UpdateAddSub | OpClass::UpdateMulDiv)
    }

    /// Short label used in traces and experiment output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::Insert => "insert",
            OpClass::Delete => "delete",
            OpClass::UpdateAssign => "assign",
            OpClass::UpdateAddSub => "addsub",
            OpClass::UpdateMulDiv => "muldiv",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A pluggable compatibility matrix.
///
/// [`OpClass::compatible_with`] hard-codes Table I; `CompatMatrix` lets the
/// middleware be configured with a stricter policy (e.g. classical
/// read/write compatibility, which reduces the GTM to behave like a lock
/// manager — used by the ablation benchmarks) without touching scheduler
/// code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompatMatrix {
    table: [[bool; 6]; 6],
}

impl CompatMatrix {
    /// The paper's Table-I semantics.
    #[must_use]
    pub fn paper() -> Self {
        let mut table = [[false; 6]; 6];
        for (i, a) in OpClass::ALL.iter().enumerate() {
            for (j, b) in OpClass::ALL.iter().enumerate() {
                table[i][j] = a.compatible_with(*b);
            }
        }
        CompatMatrix { table }
    }

    /// Classical read/write compatibility: reads share with reads, every
    /// mutation excludes everything. Turns semantic sharing off — the GTM
    /// then degenerates to plain exclusive locking, which the ablation
    /// benches compare against.
    #[must_use]
    pub fn read_write_only() -> Self {
        let mut table = [[false; 6]; 6];
        let read = Self::index(OpClass::Read);
        table[read][read] = true;
        CompatMatrix { table }
    }

    /// Looks up compatibility of two classes.
    #[must_use]
    pub fn compatible(&self, a: OpClass, b: OpClass) -> bool {
        self.table[Self::index(a)][Self::index(b)]
    }

    /// Overrides a single (symmetric) entry; builder-style.
    #[must_use]
    pub fn with(mut self, a: OpClass, b: OpClass, compatible: bool) -> Self {
        self.table[Self::index(a)][Self::index(b)] = compatible;
        self.table[Self::index(b)][Self::index(a)] = compatible;
        self
    }

    /// True when the matrix is symmetric (every sensible matrix is; the
    /// property tests assert it after arbitrary `with` chains built from
    /// symmetric updates).
    #[must_use]
    pub fn is_symmetric(&self) -> bool {
        for i in 0..6 {
            for j in 0..6 {
                if self.table[i][j] != self.table[j][i] {
                    return false;
                }
            }
        }
        true
    }

    fn index(c: OpClass) -> usize {
        OpClass::ALL.iter().position(|x| *x == c).expect("OpClass::ALL is exhaustive")
    }
}

impl Default for CompatMatrix {
    fn default() -> Self {
        CompatMatrix::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reproduces paper Table I entry by entry.
    #[test]
    fn table_one_read_row() {
        use OpClass::*;
        // "Read: all classes" — with the caveat that Insert/Delete rows
        // say "no classes", and the matrix must stay symmetric; the
        // Insert/Delete row wins (an object being created/destroyed cannot
        // share with a read of itself).
        assert!(Read.compatible_with(Read));
        assert!(Read.compatible_with(UpdateAssign));
        assert!(Read.compatible_with(UpdateAddSub));
        assert!(Read.compatible_with(UpdateMulDiv));
        assert!(!Read.compatible_with(Insert));
        assert!(!Read.compatible_with(Delete));
    }

    #[test]
    fn table_one_insert_delete_row() {
        use OpClass::*;
        for c in OpClass::ALL {
            assert!(!Insert.compatible_with(c), "insert vs {c}");
            assert!(!Delete.compatible_with(c), "delete vs {c}");
        }
    }

    #[test]
    fn table_one_assignment_row() {
        use OpClass::*;
        assert!(UpdateAssign.compatible_with(Read));
        assert!(!UpdateAssign.compatible_with(UpdateAssign));
        assert!(!UpdateAssign.compatible_with(UpdateAddSub));
        assert!(!UpdateAssign.compatible_with(UpdateMulDiv));
    }

    #[test]
    fn table_one_addsub_row() {
        use OpClass::*;
        assert!(UpdateAddSub.compatible_with(UpdateAddSub));
        assert!(UpdateAddSub.compatible_with(Read));
        assert!(!UpdateAddSub.compatible_with(UpdateMulDiv));
        assert!(!UpdateAddSub.compatible_with(UpdateAssign));
    }

    #[test]
    fn table_one_muldiv_row() {
        use OpClass::*;
        assert!(UpdateMulDiv.compatible_with(UpdateMulDiv));
        assert!(UpdateMulDiv.compatible_with(Read));
        assert!(!UpdateMulDiv.compatible_with(UpdateAddSub));
    }

    #[test]
    fn compatibility_is_symmetric() {
        for a in OpClass::ALL {
            for b in OpClass::ALL {
                assert_eq!(
                    a.compatible_with(b),
                    b.compatible_with(a),
                    "asymmetry between {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn reconcilable_classes_are_self_compatible() {
        for c in OpClass::ALL {
            if c.is_reconcilable() {
                assert!(c.compatible_with(c), "{c} reconcilable but not self-compatible");
            }
        }
        // The converse: mutations that are self-compatible must be
        // reconcilable, otherwise Definition 1 condition 3 is violated.
        for c in OpClass::ALL {
            if c.is_mutation() && c.compatible_with(c) {
                assert!(c.is_reconcilable());
            }
        }
    }

    #[test]
    fn paper_matrix_matches_direct_method() {
        let m = CompatMatrix::paper();
        for a in OpClass::ALL {
            for b in OpClass::ALL {
                assert_eq!(m.compatible(a, b), a.compatible_with(b));
            }
        }
        assert!(m.is_symmetric());
    }

    #[test]
    fn read_write_only_matrix_shares_nothing_but_reads() {
        let m = CompatMatrix::read_write_only();
        assert!(m.compatible(OpClass::Read, OpClass::Read));
        for a in OpClass::ALL {
            for b in OpClass::ALL {
                if a != OpClass::Read || b != OpClass::Read {
                    assert!(!m.compatible(a, b), "{a} vs {b} should be incompatible");
                }
            }
        }
    }

    #[test]
    fn with_overrides_symmetrically() {
        let m = CompatMatrix::read_write_only().with(
            OpClass::UpdateAddSub,
            OpClass::UpdateAddSub,
            true,
        );
        assert!(m.compatible(OpClass::UpdateAddSub, OpClass::UpdateAddSub));
        assert!(m.is_symmetric());
    }

    fn arb_class() -> impl Strategy<Value = OpClass> {
        prop::sample::select(OpClass::ALL.to_vec())
    }

    proptest! {
        /// Any chain of symmetric overrides keeps the matrix symmetric.
        #[test]
        fn prop_with_preserves_symmetry(edits in prop::collection::vec((arb_class(), arb_class(), any::<bool>()), 0..20)) {
            let mut m = CompatMatrix::paper();
            for (a, b, v) in edits {
                m = m.with(a, b, v);
            }
            prop_assert!(m.is_symmetric());
        }

        /// Compatibility of mutations implies a reconciliation algorithm
        /// exists or one side is a read — Definition 1, condition 3.
        #[test]
        fn prop_paper_compat_implies_reconcilable(a in arb_class(), b in arb_class()) {
            if a.compatible_with(b) && a.is_mutation() && b.is_mutation() {
                prop_assert!(a == b && a.is_reconcilable());
            }
        }
    }
}
