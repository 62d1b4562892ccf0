//! `pstm-storage` — the Local DataBase System (LDBS) substrate.
//!
//! The paper's middleware delegates **consistency and durability** to "a
//! traditional relational DBMS" it calls the LDBS; the Secure System
//! Transactions (SSTs) generated at commit time are ordinary short
//! transactions against it. This crate provides that substrate as an
//! embedded storage engine:
//!
//! * a typed [`catalog`] of tables ([`schema`] definitions + [`constraint`]s),
//! * rows stored in slotted [`page`]s organised into [`heap`] files,
//! * a write-ahead log ([`wal`]) with checksummed records and
//!   ARIES-flavoured [`recovery`] (redo winners, undo losers),
//! * a [`engine::Database`] facade tying it together, enforcing CHECK
//!   constraints on every write (the paper's `FreeTickets >= 0` example).
//!
//! The engine is deliberately synchronous and deterministic — the
//! experiments replay bit-identically for a fixed seed — but it is a real
//! engine: pages serialize to bytes, the WAL survives a simulated crash,
//! and recovery reconstructs committed state.

#![warn(missing_docs)]

pub mod binding;
pub mod catalog;
pub mod codec;
pub mod constraint;
pub mod engine;
mod fault;
pub mod heap;
pub mod page;
pub mod persist;
pub mod recovery;
pub mod row;
pub mod schema;
pub mod wal;

pub use binding::{Binding, BindingRegistry};
pub use catalog::{Catalog, TableId, TableMeta};
pub use constraint::{Constraint, Predicate};
pub use engine::{Database, WriteOp, WriteSet};
pub use heap::HeapFile;
pub use page::{Page, PAGE_SIZE};
pub use row::{Row, RowId};
pub use schema::{ColumnDef, TableSchema};
pub use wal::{LogRecord, Lsn, Wal};
