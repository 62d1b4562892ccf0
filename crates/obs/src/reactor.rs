//! Reactor front-end observability: per-queue depth, wake latency and
//! queued-time accounting for the event-loop session front (`pstm-front`
//! reactor mode).
//!
//! The blocking front-end's cost model is thread-shaped — every live
//! session owns a stack — so its metrics live in span phases. The
//! reactor's cost model is queue-shaped: a session consumes nothing
//! while it sleeps, and the interesting quantities are *how deep the
//! worker queues run* and *how long a wake sat enqueued before its
//! worker delivered it*. This module is the seam between the two: the
//! reactor publishes a [`ReactorSnapshot`] on request, read in process.

use crate::hist::Histogram;

/// Point-in-time census of a reactor's sessions, by lifecycle phase.
/// The fleet claim "≥95% of sessions sleeping cost nothing" is checked
/// against exactly these numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReactorCensus {
    /// Sessions currently executing or runnable on a worker.
    pub running: u64,
    /// Sessions parked behind incompatible work (a shard will wake them).
    pub waiting: u64,
    /// Disconnected sessions: no thread, no stack, no queue slot — only
    /// an inert state machine and (at most) one timer-wheel entry.
    pub sleeping: u64,
    /// Sessions that have committed or aborted.
    pub finished: u64,
}

impl ReactorCensus {
    /// Sessions not yet finished.
    #[must_use]
    pub fn live(&self) -> u64 {
        self.running + self.waiting + self.sleeping
    }

    /// Fraction of live sessions currently sleeping (`0.0` when none
    /// are live).
    #[must_use]
    pub fn sleeping_fraction(&self) -> f64 {
        let live = self.live();
        if live == 0 {
            0.0
        } else {
            self.sleeping as f64 / live as f64
        }
    }
}

/// One consistent view of a reactor's queues and wake path, produced by
/// the front-end's reactor.
#[derive(Clone, Debug)]
pub struct ReactorSnapshot {
    /// Messages enqueued but not yet delivered, per worker queue.
    pub queue_depth: Vec<u64>,
    /// Enqueue→delivery latency of wake/op messages, microseconds.
    pub wake_latency_us: Histogram,
    /// Timer-wheel wake precision: how far past its deadline each timer
    /// actually fired, microseconds.
    pub timer_lag_us: Histogram,
    /// Session census at snapshot time.
    pub census: ReactorCensus,
    /// Wake messages dropped as stale (the addressee had already been
    /// delivered, finished, or gone back to sleep) — benign by design,
    /// counted so "benign" stays observable.
    pub stale_wakes: u64,
}

impl ReactorSnapshot {
    /// An empty snapshot for `workers` queues.
    #[must_use]
    pub fn empty(workers: usize) -> Self {
        ReactorSnapshot {
            queue_depth: vec![0; workers],
            wake_latency_us: Histogram::new(),
            timer_lag_us: Histogram::new(),
            census: ReactorCensus::default(),
            stale_wakes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_fractions() {
        let census = ReactorCensus { running: 2, waiting: 3, sleeping: 95, finished: 10 };
        assert_eq!(census.live(), 100);
        assert!((census.sleeping_fraction() - 0.95).abs() < 1e-12);
        assert_eq!(ReactorCensus::default().sleeping_fraction(), 0.0);
    }
}
