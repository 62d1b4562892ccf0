//! # pstm-obs — first-party tracing and metrics
//!
//! One trace-event vocabulary ([`TraceEvent`]) spans every layer of the
//! stack: the pre-serialization GTM, the 2PL and OCC baselines, the lock
//! table, the storage engine and WAL, and the mobile-network simulator.
//! Each emitting component owns an [`Emitter`]: its [`MetricsRegistry`]
//! (fixed counters plus virtual-time phase and per-resource wait sums),
//! into which it folds every event it emits, and a cloneable [`Tracer`]
//! which, when a [`Sink`] is attached, persists the sequenced records:
//! the [`recorder`]'s frames are the durable store, JSONL a rendering of
//! them. Metrics are read in process (a merged registry, a
//! [`ReactorSnapshot`]) or from those frames ([`postmortem`]).
//!
//! Design rules:
//!
//! - **No drift.** The legacy per-manager stats structs are projections
//!   of registry counters, and replaying a trace goes through the same
//!   [`MetricsRegistry::apply`] mapping — live and trace-derived stats
//!   are equal by construction.
//! - **Determinism.** Timestamps are *virtual* (simulator time), sinks
//!   receive records in emission order with a sequence number, and
//!   histograms use one fixed layout, so identical runs produce
//!   byte-identical artifacts.
//! - **Dark means dark.** A registry lives under exclusive access its
//!   owner already holds, and a tracer with no sink holds nothing, so an
//!   emit with no sink takes no lock: a counter bump, plus for events that
//!   open or close something an integer-keyed tree update — see
//!   [`Emitter`]. A session keeps its own spans ([`SpanLedger`]).

#![warn(missing_docs)]

pub mod dot;
pub mod event;
pub mod frame;
pub mod hist;
pub mod postmortem;
pub mod prof;
pub mod reactor;
pub mod recorder;
pub mod registry;
pub mod sink;
pub mod span;
pub mod tracer;
pub mod wallclock;

pub use dot::waits_for_dot;
pub use event::{render_jsonl, AbortOrigin, TraceEvent, TraceRecord};
pub use hist::Histogram;
pub use postmortem::{analyze, Postmortem};
pub use prof::{CommitPhase, PhaseProfile, PhaseTimer};
pub use reactor::{ReactorCensus, ReactorSnapshot};
pub use recorder::{
    read_recorder, Recorder, RecorderEntry, RecorderReplay, RecorderSink, RecorderStats,
    ENGINE_SHARD,
};
pub use registry::{Ctr, MetricsRegistry, SpanLedger};
pub use sink::{RingHandle, RingSink, Sink, TeeSink};
pub use span::{build_span_trees, SpanKind, SpanNode};
pub use tracer::{current_thread_tag, Emitter, Tracer};
pub use wallclock::{wall_now_us, WallAnchor, WallEpoch};
