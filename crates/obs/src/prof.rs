//! pstm-prof — allocation-free commit-path phase accounting.
//!
//! This is the second sanctioned wall-clock seam next to [`crate::wallclock`]:
//! the only place outside `wallclock.rs` allowed to touch `Instant`
//! (the `pstm-check` wall-clock lint enforces both). Everything else on
//! the commit path times itself exclusively through [`PhaseTimer`].
//!
//! ## Model
//!
//! A fixed taxonomy ([`CommitPhase`]) names the stations a transaction
//! passes through on its way to durability. Each thread owns a
//! cache-line-padded slot of relaxed atomics; starting/stopping a
//! [`PhaseTimer`] costs two `Instant::now()` reads and a handful of
//! relaxed `fetch_add`s — no locks, no allocation after the first use
//! on a thread.
//!
//! Accounting is **exclusive** (flat): when a nested phase starts, the
//! elapsed segment so far is charged to the enclosing phase and the
//! clock hands over. `WalAppend` inside `SstApply` inside the front's
//! fencing therefore never double-counts, and the per-phase sums are
//! disjoint — their total is bounded by the enclosing span's wall time,
//! which the cross-validation suite asserts against PR 3's span trees.
//!
//! The profiler is **off by default** ([`set_enabled`]); when off, a
//! timer start is a single relaxed atomic load. [`snapshot`] folds all
//! thread slots into a [`PhaseProfile`], which in turn folds into
//! [`crate::MetricsRegistry`] and the Prometheus exposition.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::hist::{self, Histogram, BUCKETS};

/// The fixed commit-path phase taxonomy.
///
/// Order is load-bearing: it is the exposition and report order, and
/// the index into every accumulator array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(usize)]
pub enum CommitPhase {
    /// Admission control and lock acquisition (grant checks, shard locks).
    Admission,
    /// Read-class operation execution against virtual copies.
    Read,
    /// Operation bookkeeping: grants, queues, history, promotions.
    OpBookkeeping,
    /// Commit-time reconciliation of virtual state against permanent state.
    Reconcile,
    /// WAL frame construction and append.
    WalAppend,
    /// Applying the fused write set to the storage engine (the SST body).
    SstApply,
    /// Cross-shard fencing: phased settle across shard guards.
    Fencing,
    /// Abort and unwind work (restore, release, requeue).
    AbortUnwind,
    /// Time a queued single-shard committer waits for its shard's flush
    /// fence while another committer's flush is in flight — the flush
    /// that settles it, or the one it will fuse behind. Zero for a
    /// committer that meets nobody.
    GroupWait,
}

impl CommitPhase {
    /// Number of phases.
    pub const COUNT: usize = 9;

    /// Every phase, in taxonomy (display) order.
    pub const ALL: [CommitPhase; CommitPhase::COUNT] = [
        CommitPhase::Admission,
        CommitPhase::Read,
        CommitPhase::OpBookkeeping,
        CommitPhase::Reconcile,
        CommitPhase::WalAppend,
        CommitPhase::SstApply,
        CommitPhase::Fencing,
        CommitPhase::AbortUnwind,
        CommitPhase::GroupWait,
    ];

    /// Stable snake_case label (metric label, JSON key, report row).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CommitPhase::Admission => "admission",
            CommitPhase::Read => "read",
            CommitPhase::OpBookkeeping => "op_bookkeeping",
            CommitPhase::Reconcile => "reconcile",
            CommitPhase::WalAppend => "wal_append",
            CommitPhase::SstApply => "sst_apply",
            CommitPhase::Fencing => "fencing",
            CommitPhase::AbortUnwind => "abort_unwind",
            CommitPhase::GroupWait => "group_wait",
        }
    }

    /// The phase with label `name`, if any.
    #[must_use]
    pub fn from_name(name: &str) -> Option<CommitPhase> {
        CommitPhase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Maximum tracked nesting depth. Deeper timers still balance the
/// stack but stop attributing time (the commit path nests ≤ 4 deep).
const MAX_DEPTH: usize = 16;

/// Per-thread accumulator block; shared with `snapshot()` via `Arc`.
struct Slot {
    ns: [AtomicU64; CommitPhase::COUNT],
    max: [AtomicU64; CommitPhase::COUNT],
    /// [`Histogram`]'s buckets, one run of [`BUCKETS`] per phase (on the
    /// heap: ≈ 160 KB, built only by threads that time while enabled).
    buckets: Box<[AtomicU64]>,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
            max: std::array::from_fn(|_| AtomicU64::new(0)),
            buckets: (0..CommitPhase::COUNT * BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, phase: usize, ns: u64) {
        // relaxed: each counter is an independent monotonic tally read
        // only by `snapshot`; no ordering between them is promised (a
        // concurrent fold may see an op without its ns — documented).
        self.ns[phase].fetch_add(ns, Ordering::Relaxed);
        self.max[phase].fetch_max(ns, Ordering::Relaxed);
        self.buckets[phase * BUCKETS + hist::index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        // relaxed: zeroing between runs; callers quiesce their workers
        // first, so there is no concurrent reader to order against.
        for i in 0..CommitPhase::COUNT {
            self.ns[i].store(0, Ordering::Relaxed);
            self.max[i].store(0, Ordering::Relaxed);
        }
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Adds this slot's tallies to `out` — `snapshot`'s fold, per slot.
    fn fold_into(&self, out: &mut PhaseProfile) {
        // relaxed: folds independent tallies; each observation lands wholly
        // in or out of a later snapshot, and quiesced snapshots are exact
        // (see `snapshot`) — no acquire edge would tighten that contract.
        for (i, hist) in out.hist.iter_mut().enumerate() {
            let counts = &self.buckets[i * BUCKETS..(i + 1) * BUCKETS];
            hist.add_counts(
                counts.iter().map(|b| b.load(Ordering::Relaxed)),
                self.ns[i].load(Ordering::Relaxed),
                self.max[i].load(Ordering::Relaxed),
            );
        }
    }
}

/// Process-wide enable gate. Off by default: a disabled timer start is
/// one relaxed load and nothing else.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// All thread slots ever registered (slots outlive their threads so a
/// snapshot never loses a finished worker's numbers; a later thread
/// takes over a slot whose thread has exited).
static SLOTS: Mutex<Vec<Arc<Slot>>> = Mutex::new(Vec::new());

/// Turns phase accounting on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether phase accounting is currently on.
#[must_use]
pub fn enabled() -> bool {
    // relaxed: a pure on/off gate — a stale read costs one extra (or one
    // missed) sample, never correctness; the SeqCst store in
    // `set_enabled` is for prompt visibility, not pairing.
    ENABLED.load(Ordering::Relaxed)
}

struct Tls {
    slot: Arc<Slot>,
    depth: Cell<usize>,
    phases: [Cell<usize>; MAX_DEPTH],
    acc: [Cell<u64>; MAX_DEPTH],
    last: Cell<Option<Instant>>,
}

thread_local! {
    static TLS: Tls = {
        // A slot only `SLOTS` still holds lost its thread: take it over
        // (its tallies stay in every snapshot either way) rather than
        // build ≈ 160 KB for each short-lived worker.
        let idle = SLOTS.lock().iter().find(|s| Arc::strong_count(s) == 1).cloned();
        let slot = idle.unwrap_or_else(|| {
            let slot = Arc::new(Slot::new());
            SLOTS.lock().push(Arc::clone(&slot));
            slot
        });
        Tls {
            slot,
            depth: Cell::new(0),
            phases: std::array::from_fn(|_| Cell::new(0)),
            acc: std::array::from_fn(|_| Cell::new(0)),
            last: Cell::new(None),
        }
    };
}

fn ns_since(last: Option<Instant>, now: Instant) -> u64 {
    match last {
        Some(t) => u64::try_from(now.duration_since(t).as_nanos()).unwrap_or(u64::MAX),
        None => 0,
    }
}

/// RAII guard timing one phase with exclusive (flat) accounting.
///
/// Guards must drop in LIFO order — guaranteed by lexical scoping at
/// every call site; there is no way to leak one across an await or a
/// thread boundary (it is `!Send`).
pub struct PhaseTimer {
    active: bool,
    // Thread-locals make this !Send already, but be explicit.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl PhaseTimer {
    /// Starts timing `phase` on the current thread.
    #[must_use]
    pub fn start(phase: CommitPhase) -> PhaseTimer {
        if !enabled() {
            return PhaseTimer { active: false, _not_send: std::marker::PhantomData };
        }
        let _ = TLS.try_with(|t| {
            let now = Instant::now();
            let d = t.depth.get();
            if d > 0 && d <= MAX_DEPTH {
                // Charge the enclosing phase's running segment before
                // the clock hands over to the nested phase.
                let outer = d - 1;
                t.acc[outer].set(t.acc[outer].get() + ns_since(t.last.get(), now));
            }
            if d < MAX_DEPTH {
                t.phases[d].set(phase as usize);
                t.acc[d].set(0);
            }
            t.depth.set(d + 1);
            t.last.set(Some(now));
        });
        PhaseTimer { active: true, _not_send: std::marker::PhantomData }
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let _ = TLS.try_with(|t| {
            let d = t.depth.get();
            if d == 0 {
                return;
            }
            let now = Instant::now();
            t.depth.set(d - 1);
            if d <= MAX_DEPTH {
                let idx = d - 1;
                let total = t.acc[idx].get() + ns_since(t.last.get(), now);
                t.slot.record(t.phases[idx].get(), total);
            }
            // The enclosing phase (if any) resumes from this boundary.
            t.last.set(Some(now));
        });
    }
}

/// Times `f` under `phase`; sugar for a scoped [`PhaseTimer`].
pub fn time<T>(phase: CommitPhase, f: impl FnOnce() -> T) -> T {
    let _timer = PhaseTimer::start(phase);
    f()
}

/// Records a synthetic observation directly (tests and harnesses that
/// need exact, timing-free inputs). Ignores the enable gate.
pub fn record_raw(phase: CommitPhase, ns: u64) {
    let _ = TLS.try_with(|t| t.slot.record(phase as usize, ns));
}

/// An immutable fold of every thread slot: a [`Histogram`] of
/// per-operation nanoseconds per phase, whose count and sum are the
/// phase's operations and total nanoseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseProfile {
    hist: Vec<Histogram>,
}

impl Default for PhaseProfile {
    fn default() -> Self {
        PhaseProfile::empty()
    }
}

impl PhaseProfile {
    /// An all-zero profile.
    #[must_use]
    pub fn empty() -> PhaseProfile {
        PhaseProfile { hist: (0..CommitPhase::COUNT).map(|_| Histogram::new()).collect() }
    }

    /// Total nanoseconds attributed to `phase`.
    #[must_use]
    pub fn ns(&self, phase: CommitPhase) -> u64 {
        self.hist[phase as usize].sum()
    }

    /// Number of timed operations in `phase`.
    #[must_use]
    pub fn ops(&self, phase: CommitPhase) -> u64 {
        self.hist[phase as usize].total()
    }

    /// Mean nanoseconds per operation in `phase` (0 when unobserved).
    #[must_use]
    pub fn ns_per_op(&self, phase: CommitPhase) -> u64 {
        self.ns(phase).checked_div(self.ops(phase)).unwrap_or(0)
    }

    /// The per-operation duration histogram for `phase`.
    #[must_use]
    pub fn hist(&self, phase: CommitPhase) -> &Histogram {
        &self.hist[phase as usize]
    }

    /// Sum of nanoseconds across all phases. Phases are disjoint
    /// (exclusive accounting), so this is total attributed wall time.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.hist.iter().map(Histogram::sum).sum()
    }

    /// True when nothing has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hist.iter().all(|h| h.total() == 0)
    }

    /// Adds another profile's observations to this one.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (mine, theirs) in self.hist.iter_mut().zip(&other.hist) {
            mine.merge(theirs);
        }
    }

    /// Records one synthetic observation (mirrors `Slot::record`).
    pub fn record(&mut self, phase: CommitPhase, ns: u64) {
        self.hist[phase as usize].record(ns);
    }
}

/// Folds every registered thread slot into one [`PhaseProfile`].
///
/// Concurrent timers may land observations mid-fold; each observation
/// is either wholly in or wholly out of a *later* snapshot, and quiesced
/// snapshots (the bench pattern: join workers, then snapshot) are exact.
#[must_use]
pub fn snapshot() -> PhaseProfile {
    let mut out = PhaseProfile::empty();
    for slot in SLOTS.lock().iter() {
        slot.fold_into(&mut out);
    }
    out
}

/// Zeroes every thread slot. Benches call this between sweep points;
/// do not race it against live timers if exact numbers matter.
pub fn reset() {
    for slot in SLOTS.lock().iter() {
        slot.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // The profiler is process-global state and `cargo test` runs test
    // fns on parallel threads, so everything that toggles the gate or
    // resets slots lives in ONE sequential test fn.
    #[test]
    fn phase_timer_end_to_end() {
        // -- disabled: timers are inert ---------------------------------
        set_enabled(false);
        reset();
        {
            let _t = PhaseTimer::start(CommitPhase::Reconcile);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(snapshot().is_empty(), "disabled profiler must record nothing");

        // -- exclusive nesting ------------------------------------------
        set_enabled(true);
        reset();
        let begun = Instant::now();
        {
            let _outer = PhaseTimer::start(CommitPhase::Fencing);
            std::thread::sleep(Duration::from_millis(4));
            {
                let _inner = PhaseTimer::start(CommitPhase::WalAppend);
                std::thread::sleep(Duration::from_millis(4));
            }
            std::thread::sleep(Duration::from_millis(4));
        }
        let elapsed_ns = u64::try_from(begun.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let p = snapshot();
        assert_eq!(p.ops(CommitPhase::Fencing), 1);
        assert_eq!(p.ops(CommitPhase::WalAppend), 1);
        let fencing = p.ns(CommitPhase::Fencing);
        let wal = p.ns(CommitPhase::WalAppend);
        assert!(fencing >= 7_000_000, "outer keeps its exclusive ~8ms, got {fencing}ns");
        assert!(wal >= 3_000_000, "inner gets its ~4ms, got {wal}ns");
        assert!(
            fencing + wal <= elapsed_ns,
            "exclusive accounting never exceeds wall time: {fencing}+{wal} > {elapsed_ns}"
        );

        // -- histograms agree with totals -------------------------------
        assert_eq!(p.hist(CommitPhase::Fencing).total(), 1);
        assert_eq!(p.hist(CommitPhase::Fencing).sum(), fencing);
        assert_eq!(p.hist(CommitPhase::WalAppend).max(), wal);

        // -- cross-thread accumulation ----------------------------------
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _t = PhaseTimer::start(CommitPhase::SstApply);
                    std::thread::sleep(Duration::from_millis(2));
                });
            }
        });
        let p = snapshot();
        assert_eq!(p.ops(CommitPhase::SstApply), 4);
        assert!(p.ns(CommitPhase::SstApply) >= 4 * 1_500_000);

        // -- record_raw + snapshot/merge algebra ------------------------
        reset();
        record_raw(CommitPhase::Read, 100);
        record_raw(CommitPhase::Read, 300);
        record_raw(CommitPhase::Admission, 7);
        let s1 = snapshot();
        assert_eq!(s1.ops(CommitPhase::Read), 2);
        assert_eq!(s1.ns(CommitPhase::Read), 400);
        assert_eq!(s1.ns_per_op(CommitPhase::Read), 200);
        let mut manual = PhaseProfile::empty();
        manual.record(CommitPhase::Read, 100);
        manual.record(CommitPhase::Read, 300);
        manual.record(CommitPhase::Admission, 7);
        assert_eq!(s1, manual, "snapshot must equal the by-hand fold");

        // -- a finished thread's slot is taken over, tallies kept -------
        reset();
        let one_thread = || std::thread::spawn(|| record_raw(CommitPhase::Read, 1)).join();
        one_thread().expect("recording thread");
        let slots = SLOTS.lock().len();
        for _ in 0..3 {
            one_thread().expect("recording thread");
        }
        assert_eq!(SLOTS.lock().len(), slots, "no slot built for a later thread");
        assert_eq!(snapshot().ops(CommitPhase::Read), 4);

        // -- reset zeroes -----------------------------------------------
        reset();
        assert!(snapshot().is_empty());
        set_enabled(false);
    }

    #[test]
    fn slot_fold_equals_recording() {
        let slot = Slot::new();
        let mut direct = PhaseProfile::empty();
        let values = [0, 63, 64, 65, 5_000, 1_000_000, 1 << 39, 1 << 41];
        for (k, v) in values.into_iter().enumerate() {
            let phase = CommitPhase::ALL[k % 3];
            slot.record(phase as usize, v);
            direct.record(phase, v);
        }
        let mut folded = PhaseProfile::empty();
        slot.fold_into(&mut folded);
        assert_eq!(folded, direct);
    }

    #[test]
    fn phase_names_round_trip() {
        for p in CommitPhase::ALL {
            assert_eq!(CommitPhase::from_name(p.name()), Some(p));
        }
        assert_eq!(CommitPhase::from_name("nope"), None);
        assert_eq!(CommitPhase::ALL.len(), CommitPhase::COUNT);
    }
}
