//! The workspace's single wall-clock seam.
//!
//! Everything in this repository runs on *virtual* time
//! ([`Timestamp`](pstm_types::Timestamp) values threaded explicitly through the GTM and simulator), which is
//! what makes runs deterministic and traces replayable. The two places
//! real time is genuinely needed — bridging OS threads onto the virtual
//! clock in `pstm-front`, and the second clock spans carry for
//! cross-host correlation — must go through this module. `pstm-check`'s
//! `wall-clock` lint bans `Instant::now` / `SystemTime::now` everywhere
//! else, so a stray wall-clock read (which would silently break
//! replay determinism) fails the build instead of slipping through
//! review.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// A monotonic wall-clock epoch: the one sanctioned way to measure
/// elapsed real time (bench harness wall timings, the front-end's
/// wall→virtual bridge).
#[derive(Clone, Copy, Debug)]
pub struct WallEpoch(Instant);

impl WallEpoch {
    /// Starts an epoch at the current instant.
    #[must_use]
    pub fn now() -> Self {
        WallEpoch(Instant::now())
    }

    /// Microseconds elapsed since the epoch started, saturating at
    /// `u64::MAX` (≈ 584 thousand years).
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Seconds elapsed since the epoch started, as a float (bench
    /// throughput denominators).
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

impl Default for WallEpoch {
    fn default() -> Self {
        Self::now()
    }
}

/// A monotonic epoch paired with the Unix wall base sampled at the same
/// instant: the sanctioned anchor for components (the front-end) that
/// stamp both virtual timestamps and derived wall-clock fields. The
/// Unix wall clock is consulted exactly once, at construction; every
/// later stamp is one monotonic read *inside* this seam plus arithmetic
/// on the samples, so the `wall-clock` lint needs no per-caller
/// allowance.
#[derive(Clone, Copy, Debug)]
pub struct WallAnchor {
    epoch: WallEpoch,
    base_us: Option<u64>,
}

impl WallAnchor {
    /// Anchors at the current instant.
    #[must_use]
    pub fn now() -> Self {
        WallAnchor { epoch: WallEpoch::now(), base_us: wall_now_us() }
    }

    /// Microseconds of monotonic time since the anchor.
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed_us()
    }

    /// One reading of the monotonic clock as both stamps a span boundary
    /// carries: microseconds since the anchor, and the wall-clock
    /// microseconds since the Unix epoch derived from that same reading
    /// (`None` if the clock sat before 1970 at anchor time) — so the two
    /// differ by the anchored base exactly, on every boundary.
    // pstm-lockgraph: event-loop — span stamping on the hot path is one
    // vDSO monotonic read plus arithmetic on the anchor, never a
    // syscall-bearing wall-clock read.
    #[must_use]
    pub fn stamp(&self) -> (u64, Option<u64>) {
        let elapsed = self.elapsed_us();
        (elapsed, self.base_us.map(|base| base + elapsed))
    }

    /// The anchored Unix base itself, for stream metadata.
    #[must_use]
    pub fn base_us(&self) -> Option<u64> {
        self.base_us
    }
}

impl Default for WallAnchor {
    fn default() -> Self {
        Self::now()
    }
}

/// Wall-clock microseconds since the Unix epoch, or `None` if the system
/// clock sits before 1970. This is the `wall_us` field spans carry next
/// to their virtual timestamp.
#[must_use]
pub fn wall_now_us() -> Option<u64> {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .ok()
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_monotone() {
        let epoch = WallEpoch::now();
        let a = epoch.elapsed_us();
        let b = epoch.elapsed_us();
        assert!(b >= a);
        assert!(epoch.elapsed_s() >= 0.0);
    }

    #[test]
    fn unix_micros_is_sane() {
        // Any machine running this test is past 2020-01-01 (1.577e15 us).
        let us = wall_now_us().expect("system clock before 1970");
        assert!(us > 1_577_000_000_000_000);
    }
}
