//! # pstm-faults — deterministic fault injection and crash-recovery chaos
//!
//! The paper hands durability and local consistency to the LDBS and then
//! reasons as if "the SST is always correctly executed". This crate is the
//! adversary for that assumption: a seed-driven [`FaultPlan`] describes
//! *where* in the commit/SST/WAL path faults fire (the labeled
//! [`pstm_types::FaultSite`]s threaded through storage, the GTM and the
//! commit coordinator), a [`FaultInjector`] turns the plan into the
//! engine's [`pstm_types::FaultHook`], and [`run_chaos`] drives a full
//! counter-workload through crashes and recoveries, checking two recovery
//! invariants after every restart:
//!
//! 1. **No committed reconciliation result is lost or applied twice.**
//!    Every acknowledged commit's delta is visible in the recovered engine
//!    exactly once, across any number of crash/recovery epochs.
//! 2. **No partial SST is ever visible.** A crash mid-commit leaves the
//!    in-flight transaction's write set either fully applied (the fused
//!    SST reached the log before the crash) or fully absent — never a
//!    prefix, on no subset of shards.
//!
//! Every run is deterministic: the harness runs on a virtual clock, the
//! injector's randomness comes only from the plan's seed, and
//! [`ChaosReport::fingerprint`] is byte-identical across replays of the
//! same `(seed, plan)` pair. The stitched pre/post-crash trace of each run
//! is certified serializable by `pstm-check`
//! ([`pstm_check::stitch_streams`] + [`pstm_check::verify_streams`]).

#![warn(missing_docs)]

pub mod harness;
pub mod injector;
pub mod plan;

pub use harness::{run_chaos, ChaosConfig, ChaosReport};
pub use injector::{FaultInjector, FiredFault};
pub use plan::{FaultPlan, FaultRule, SiteMatcher, Trigger};
