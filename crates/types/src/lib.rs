//! Foundation types shared by every crate in the pre-serialization
//! transaction middleware (PSTM) workspace.
//!
//! This crate defines:
//!
//! * strongly-typed identifiers for transactions, objects and object data
//!   members ([`TxnId`], [`ObjectId`], [`MemberId`], [`ResourceId`]);
//! * the logical clock used throughout the simulator and the managers
//!   ([`Timestamp`]);
//! * the dynamically-typed [`Value`] model shared by the storage engine and
//!   the middleware, together with checked arithmetic;
//! * the [`OpClass`] operation classes of the paper and the Table-I
//!   compatibility matrix ([`OpClass::compatible_with`]);
//! * the common error type [`PstmError`];
//! * [`InlineVec`], the one small vector the hot paths use.
//!
//! The paper models each *object* as an abstract data type with one or more
//! *data members*; compatibility is defined per data member, so the lockable
//! unit of the middleware is a [`ResourceId`] — an `(object, member)` pair.

#![warn(missing_docs)]

pub mod compat;
pub mod error;
pub mod fault;
pub mod ids;
pub mod inline;
pub mod op;
pub mod sched;
pub mod time;
pub mod value;

pub use compat::{CompatMatrix, OpClass};
pub use error::{PstmError, PstmResult};
pub use fault::{FaultDecision, FaultHook, FaultSite, SharedFaultHook};
pub use ids::{MemberId, ObjectId, ResourceId, TxnId, TxnIdAllocator};
pub use inline::InlineVec;
pub use op::ScalarOp;
pub use sched::{AbortReason, ExecOutcome, StepEffects};
pub use time::{Duration, Timestamp};
pub use value::{Value, ValueKind};
