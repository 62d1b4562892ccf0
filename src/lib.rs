//! **preserial** — pre-serialization of long running transactions.
//!
//! A full reproduction of *"Pre-serialization of long running
//! transactions to improve concurrency in mobile environments"*
//! (Chianese, d'Acierno, Moscato, Picariello — ICDE 2008), built as a
//! Rust workspace. This umbrella crate re-exports the public API of every
//! member crate; see `README.md` for a tour and `DESIGN.md` for the
//! system inventory.
//!
//! The short version:
//!
//! * [`gtm::Gtm`] is the paper's contribution — a hybrid
//!   optimistic/pessimistic Global Transaction Manager in which
//!   semantically compatible operations (Weihl forward commutativity,
//!   the paper's Table I) share object data members concurrently on
//!   virtual copies, reconciled at commit by eqs. (1)–(2), with
//!   disconnected transactions parked in a `Sleeping` state instead of
//!   aborted;
//! * [`twopl::TwoPlManager`] is the strict-2PL comparator;
//! * [`storage::Database`] is the embedded LDBS both run against
//!   (slotted pages, WAL + recovery, CHECK constraints);
//! * [`sim`] and [`workload`] emulate the paper's mobile clients;
//! * [`model`] is the closed-form §VI.A model (Figs. 1–2).

pub use pstm_core::{gtm, history, policy, reconcile, sst, state};
pub use pstm_core::{Gtm, GtmConfig, GtmStats, TxnState};

/// The lock manager (shared/exclusive modes, waits-for graphs).
pub mod lock {
    pub use pstm_lock::*;
}

/// The optimistic (backward-validation) comparator.
pub mod occ {
    pub use pstm_occ::*;
}

/// The analytical model of §VI.A.
pub mod model {
    pub use pstm_model::*;
}

/// Tracing & metrics: trace events, sinks, histograms, the registry the
/// per-manager `*Stats` are derived from, and the waits-for DOT exporter.
pub mod obs {
    pub use pstm_obs::*;
}

/// The discrete-event simulator.
pub mod sim {
    pub use pstm_sim::*;
}

/// The embedded storage engine (LDBS).
pub mod storage {
    pub use pstm_storage::*;
}

/// The strict 2PL baseline.
pub mod twopl {
    pub use pstm_twopl::*;
}

/// Foundation types: values, ids, operation classes, Table I.
pub mod types {
    pub use pstm_types::*;
}

/// Workload generators (§VI.B and the §II travel agency).
pub mod workload {
    pub use pstm_workload::*;
}
