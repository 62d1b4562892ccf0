//! The closed-loop blocking workloads (`rmw_solo`, `rmw_pair`,
//! `read_mostly`): each client thread opens a session, runs the
//! transaction's steps, commits, and only then starts the next one.

use crate::gen::{entry, fold, Step, Txn, Workload, HASH_SEED};
use crate::measure::{cpu_seconds, rss_bytes, Clock, Limit};
use crate::system::System;
use crate::trace::{Call, NoSpans, Span, SpanLog, Spans};
use crate::watchdog::{self, Watchdog};
use pstm_core::gtm::CommitResult;
use pstm_front::{SessionOutcome, ShardedFront};
use pstm_obs::{prof, PhaseProfile};
use pstm_types::{PstmResult, ResourceId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Sample buffers are sized for this rate and touched before the window
/// opens, so the benchmark's own memory never shows up as retained
/// bytes; a system faster than this ends its window early.
const CAP_TPS: f64 = 300_000.0;

/// What one client thread did.
pub struct ClientLog {
    /// Timed transactions this client ran (warm-up excluded).
    pub executed: u64,
    pub committed: u64,
    pub aborted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Fold of every value its reads returned, warm-up included.
    pub read_hash: u64,
    /// `session()` → commit-ack nanoseconds, one per timed transaction.
    pub samples: Vec<u32>,
    pub spans: Vec<Span>,
    end_ns: u64,
}

impl ClientLog {
    fn record(&mut self, outcome: PstmResult<Fate>) {
        match outcome {
            Ok(Fate::Committed) => self.committed += 1,
            Ok(Fate::Aborted) => self.aborted += 1,
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert_with(|| e.to_string());
            }
        }
    }
}

pub struct BlockingRun {
    pub clients: Vec<ClientLog>,
    pub window_s: f64,
    pub rss_before: u64,
    pub rss_after: u64,
    pub cpu_s: f64,
    /// `pstm_obs::prof` phases of the window (traced runs only).
    pub profile: PhaseProfile,
}

impl BlockingRun {
    pub fn executed(&self) -> u64 {
        self.clients.iter().map(|c| c.executed).sum()
    }

    pub fn committed(&self) -> u64 {
        self.clients.iter().map(|c| c.committed).sum()
    }

    /// Anything that is not `Committed`: these workloads cannot conflict,
    /// so an abort is as much a failure as an `Err`.
    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.aborted + c.failed).sum()
    }

    pub fn first_error(&self) -> Option<String> {
        self.clients.iter().find_map(|c| c.first_error.clone())
    }

    /// Every timed transaction's nanoseconds, ascending.
    pub fn sorted_samples(&self) -> Vec<u32> {
        let mut all: Vec<u32> =
            self.clients.iter().flat_map(|c| c.samples.iter().copied()).collect();
        all.sort_unstable();
        all
    }

    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.clients.iter().flat_map(|c| c.spans.iter())
    }
}

/// Stream indices client `k` of `n` runs, warm-up first: `k, k+n, …`.
pub fn client_indices(k: usize, n: usize, count: u64) -> impl Iterator<Item = u64> {
    (0..count).map(move |j| k as u64 + j * n as u64)
}

/// How many of client `k`'s leading indices fall inside the warm-up.
pub fn warmup_count(k: usize, n: usize, warmup: u64) -> u64 {
    warmup.saturating_sub(k as u64).div_ceil(n as u64)
}

enum Fate {
    Committed,
    Aborted,
}

/// One transaction through the blocking front's public API.
#[inline]
fn drive<S: Spans>(
    front: &ShardedFront,
    resources: &[ResourceId],
    w: Workload,
    i: u64,
    txn: Txn,
    read_hash: &mut u64,
    spans: &mut S,
) -> PstmResult<Fate> {
    let mut session = front.session();
    spans.lap(Call::Session);
    let (steps, n) = txn.steps(w, i);
    for step in &steps[..n] {
        // Only reactor programs sleep.
        let Some((c, op)) = step.op() else { continue };
        match session.execute(resources[usize::from(c)], op)? {
            SessionOutcome::Value(v) => {
                if matches!(step, Step::Read(_)) {
                    *read_hash = fold(*read_hash, v.as_int()? as u64);
                }
            }
            SessionOutcome::Aborted(_) => return Ok(Fate::Aborted),
        }
        spans.lap(Call::Execute);
    }
    let result = session.commit()?;
    spans.lap(Call::Commit);
    Ok(match result {
        CommitResult::Committed => Fate::Committed,
        CommitResult::Aborted(_) => Fate::Aborted,
    })
}

/// Rendezvous between the measuring thread and the clients: clients
/// arrive at `warmed` once their warm-up is done; the measurer reads
/// RSS, publishes the deadline and releases them through `go`.
struct Gate {
    warmed: Barrier,
    go: Barrier,
    deadline_ns: AtomicU64,
}

#[allow(clippy::too_many_arguments)]
fn client<S: Spans>(
    k: usize,
    n_clients: usize,
    sys: &System,
    w: Workload,
    pool: &[Txn],
    warmup: u64,
    cap: usize,
    clock: Clock,
    gate: &Gate,
    mut spans: S,
) -> (ClientLog, S) {
    let mut log = ClientLog {
        executed: 0,
        committed: 0,
        aborted: 0,
        failed: 0,
        first_error: None,
        read_hash: HASH_SEED,
        // Non-zero fill: the pages are resident before `rss_before`.
        samples: vec![1; cap],
        spans: Vec::new(),
        end_ns: 0,
    };
    let mut i = k as u64;
    while i < warmup {
        let outcome = drive(
            &sys.front,
            &sys.resources,
            w,
            i,
            entry(pool, i),
            &mut log.read_hash,
            &mut NoSpans,
        );
        log.record(outcome);
        i += n_clients as u64;
    }
    // Warm-up commits are not goodput; its aborts and errors stay
    // counted, because they make the run incorrect.
    log.committed = 0;

    gate.warmed.wait();
    gate.go.wait();
    let deadline_ns = gate.deadline_ns.load(Ordering::SeqCst);
    let mut prev = clock.ns();
    let mut n = 0;
    while n < cap {
        spans.open(i, prev);
        let outcome =
            drive(&sys.front, &sys.resources, w, i, entry(pool, i), &mut log.read_hash, &mut spans);
        let now = clock.ns();
        spans.close(now);
        log.record(outcome);
        log.samples[n] = u32::try_from(now - prev).unwrap_or(u32::MAX);
        n += 1;
        i += n_clients as u64;
        prev = now;
        if n % 4096 == 0 {
            watchdog::progress(n as u64);
        }
        if now >= deadline_ns {
            break;
        }
    }
    log.samples.truncate(n);
    log.executed = n as u64;
    log.end_ns = prev;
    (log, spans)
}

/// Runs the warm-up and one timed window, closed by `limit`, on a freshly
/// built system.
pub fn run(
    sys: &System,
    w: Workload,
    pool: &[Txn],
    limit: Limit,
    warmup: u64,
    traced: bool,
    dog: &Watchdog,
) -> BlockingRun {
    let n_clients = w.clients();
    // A client stops at its share of the count, or at the deadline.
    let (cap, window_ns) = match limit {
        Limit::Seconds(s) => {
            ((CAP_TPS * s / n_clients as f64).ceil() as usize + 1, (s * 1e9) as u64)
        }
        Limit::Txns(n) => (n.div_ceil(n_clients as u64) as usize, u64::MAX / 2),
    };
    let clock = Clock::start();
    let gate = Gate {
        warmed: Barrier::new(n_clients + 1),
        go: Barrier::new(n_clients + 1),
        deadline_ns: AtomicU64::new(0),
    };
    let mut rss_before = 0;
    let mut start_ns = 0;
    let mut cpu_before = 0.0;

    dog.phase("warm-up");
    let mut clients: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients)
            .map(|k| {
                let gate = &gate;
                scope.spawn(move || {
                    if traced {
                        // At most seven spans per transaction: the root,
                        // `session`, four `execute`s and `commit`.
                        let log = SpanLog::new(clock, cap * 7);
                        let (mut out, log) =
                            client(k, n_clients, sys, w, pool, warmup, cap, clock, gate, log);
                        out.spans = log.spans;
                        out
                    } else {
                        client(k, n_clients, sys, w, pool, warmup, cap, clock, gate, NoSpans).0
                    }
                })
            })
            .collect();
        gate.warmed.wait();
        dog.phase("timed window");
        if traced {
            prof::reset();
            prof::set_enabled(true);
        }
        rss_before = rss_bytes();
        cpu_before = cpu_seconds();
        start_ns = clock.ns();
        gate.deadline_ns.store(start_ns + window_ns, Ordering::SeqCst);
        gate.go.wait();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let rss_after = rss_bytes();
    let cpu_s = cpu_seconds() - cpu_before;
    let profile = if traced {
        prof::set_enabled(false);
        prof::snapshot()
    } else {
        PhaseProfile::empty()
    };
    let end_ns = clients.iter().map(|c| c.end_ns).max().unwrap_or(start_ns);
    for c in &mut clients {
        c.spans.shrink_to_fit();
    }
    BlockingRun {
        clients,
        window_s: (end_ns - start_ns) as f64 / 1e9,
        rss_before,
        rss_after,
        cpu_s,
        profile,
    }
}
