//! # pstm-obs — first-party tracing and metrics
//!
//! One trace-event vocabulary ([`TraceEvent`]) spans every layer of the
//! stack: the pre-serialization GTM, the 2PL and OCC baselines, the lock
//! table, the storage engine and WAL, and the mobile-network simulator.
//! Components hold a cloneable [`Tracer`] and emit events at observable
//! decision points; the tracer folds every event into a
//! [`MetricsRegistry`] (fixed counters plus virtual-time histograms) and,
//! when a [`Sink`] is attached, persists the sequenced records.
//!
//! Design rules:
//!
//! - **No drift.** The legacy per-manager stats structs are projections
//!   of registry counters, and replaying a persisted trace goes through
//!   the same [`MetricsRegistry::apply`] mapping — live stats and
//!   trace-derived stats are equal by construction.
//! - **Determinism.** Timestamps are *virtual* (simulator time), sinks
//!   receive records in emission order with a sequence number, and
//!   histograms use fixed buckets, so identical runs produce
//!   byte-identical artifacts.
//! - **Cheap when off.** The default tracer has no sink; an emit is a
//!   short critical section updating a counter array.

#![warn(missing_docs)]

pub mod dot;
pub mod event;
pub mod expo;
pub mod frame;
pub mod hist;
pub mod postmortem;
pub mod prof;
pub mod reactor;
pub mod recorder;
pub mod registry;
pub mod replay;
pub mod sink;
pub mod span;
pub mod tracer;
pub mod wallclock;

pub use dot::waits_for_dot;
pub use event::{AbortOrigin, TraceEvent, TraceRecord};
pub use hist::Histogram;
pub use postmortem::{analyze, Postmortem};
pub use prof::{CommitPhase, PhaseProfile, PhaseTimer};
pub use reactor::{ReactorCensus, ReactorSnapshot};
pub use recorder::{
    read_recorder, Recorder, RecorderEntry, RecorderReplay, RecorderSink, RecorderStats,
    ENGINE_SHARD,
};
pub use registry::{Ctr, MetricsRegistry};
pub use replay::{load_jsonl, parse_jsonl, replay};
pub use sink::{JsonlSink, RingHandle, RingSink, Sink, TeeSink};
pub use span::{build_span_trees, records_eq_ignoring_wall, strip_wall, SpanKind, SpanNode};
pub use tracer::{current_thread_tag, Tracer};
pub use wallclock::{wall_now_us, WallAnchor, WallEpoch};
