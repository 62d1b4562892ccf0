//! Measurement helpers: a nanosecond clock, exact quantiles, the
//! percentile rule, process memory and CPU, and run-to-run spread.
//!
//! Nothing here estimates: quantiles come from sorted samples (never
//! from the power-of-4 `pstm_obs::Histogram`), and a percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it.

use pstm_obs::WallEpoch;

/// A monotonic nanosecond clock over the workspace's wall-clock seam.
/// `WallEpoch::elapsed_us` truncates to 1µs — coarser than one
/// `Gtm::execute` — so this goes through `elapsed_s`, whose `f64` holds
/// whole nanoseconds for a hundred days.
#[derive(Clone, Copy, Debug)]
pub struct Clock(WallEpoch);

impl Clock {
    pub fn start() -> Clock {
        Clock(WallEpoch::now())
    }

    pub fn ns(&self) -> u64 {
        (self.0.elapsed_s() * 1e9) as u64
    }

    pub fn s(&self) -> f64 {
        self.0.elapsed_s()
    }
}

/// What closes a window: the clock, or a count of transactions.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    Seconds(f64),
    Txns(u64),
}

/// Mean cost of one [`Clock::ns`] read: every span and latency sample
/// includes one, so the traced report states it.
pub fn clock_read_ns(clock: &Clock) -> f64 {
    const READS: u64 = 1_000_000;
    let start = clock.ns();
    let mut last = start;
    for _ in 0..READS {
        last = std::hint::black_box(clock.ns());
    }
    (last - start) as f64 / READS as f64
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Candidate percentiles in thousandths of a percent (50, 90, 99, 99.9,
/// 99.99, 99.999), kept as integers so that rank arithmetic is exact.
const PERCENTILES_MILLI: [u64; 6] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999];

/// Nearest-rank index of percentile `p_milli` among `n` sorted samples:
/// `ceil(p · n) − 1`.
fn rank_index(n: usize, p_milli: u64) -> usize {
    let rank = (n as u128 * u128::from(p_milli)).div_ceil(100_000) as usize;
    rank.clamp(1, n) - 1
}

/// Exact nearest-rank percentile of `sorted` (ascending), `None` when
/// empty. `p_milli` is in thousandths of a percent: p99.9 is `99_900`.
pub fn percentile<T: Copy>(sorted: &[T], p_milli: u64) -> Option<T> {
    if sorted.is_empty() {
        None
    } else {
        Some(sorted[rank_index(sorted.len(), p_milli)])
    }
}

/// [`percentile`], but `None` unless at least [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn supported_percentile<T: Copy>(sorted: &[T], p_milli: u64) -> Option<T> {
    let n = sorted.len();
    if n == 0 || n - 1 - rank_index(n, p_milli) < MIN_BEYOND {
        None
    } else {
        percentile(sorted, p_milli)
    }
}

/// The percentile rule: the highest candidate percentile (in thousandths
/// of a percent) with at least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn highest_supported(n: usize) -> Option<u64> {
    PERCENTILES_MILLI.into_iter().rev().find(|&p| n > 0 && n - 1 - rank_index(n, p) >= MIN_BEYOND)
}

pub fn mean_u64(values: impl IntoIterator<Item = u64>) -> f64 {
    let (mut sum, mut n) = (0u128, 0u64);
    for v in values {
        sum += u128::from(v);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// Tells glibc's `malloc` to keep the memory the process frees instead of
/// handing it back to the kernel, so that a window's system is built in
/// the pages the window before it released. Handed back, they would go
/// on to the host (the reference box reports free guest pages to it),
/// and every window would pay the host's page faults again. A no-op
/// where the allocator is not glibc's.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        // Never shrink a heap's top; allocate up to 32 MiB (the highest
        // threshold glibc accepts) from a heap rather than a mapping of
        // its own; and with a top pad past two 64 MiB thread-arena heaps,
        // never unmap an arena heap that has become empty.
        let settings =
            [(M_TRIM_THRESHOLD, i32::MAX), (M_MMAP_THRESHOLD, 32 << 20), (M_TOP_PAD, 256 << 20)];
        for (param, value) in settings {
            // SAFETY: `mallopt` is glibc's own tuning call; it takes two
            // integers by value, keeps no pointer, and may be called at
            // any time from any thread. It returns 0 for a value it
            // refuses, which leaves the default in force.
            let _ = unsafe { mallopt(param, value) };
        }
    }
}

/// Resident set size in bytes (`VmRSS` of `/proc/self/status`), 0 where
/// there is no procfs.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// CPU seconds (user + system, all threads) this process has used, from
/// `/proc/self/stat` in `USER_HZ` = 100 ticks; 0 where there is no procfs.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields are counted
    // from the state field that follows its closing parenthesis.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the rule the benchmark's driver
/// applies to ten runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: the distance between the quartiles as a share of
/// the median (0 for fewer than two values or a zero median).
pub fn iqr_spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50_000), Some(500));
        assert_eq!(percentile(&v, 99_000), Some(990));
        assert_eq!(percentile(&v, 99_900), Some(999));
        assert_eq!(percentile(&v, 99_999), Some(1000));
        assert_eq!(percentile::<u32>(&[], 50_000), None);
        assert_eq!(percentile(&[7u32], 99_000), Some(7));
    }

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        // p99 of 1000 samples is the 990th: exactly ten lie beyond it.
        assert_eq!(highest_supported(1000), Some(99_000));
        assert_eq!(highest_supported(999), Some(90_000));
        assert_eq!(highest_supported(10_000), Some(99_900));
        assert_eq!(highest_supported(1_000_000), Some(99_999));
        assert_eq!(highest_supported(20), Some(50_000));
        assert_eq!(highest_supported(19), None);
        let v: Vec<u32> = (1..=999).collect();
        assert_eq!(supported_percentile(&v, 99_000), None);
        assert_eq!(supported_percentile(&v, 90_000), Some(900));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn clock_resolves_below_a_microsecond() {
        let clock = Clock::start();
        let per_read = clock_read_ns(&clock);
        assert!(per_read > 0.0 && per_read < 1_000.0, "clock read costs {per_read}ns");
        let a = clock.ns();
        let b = clock.ns();
        assert!(b >= a);
    }

    #[test]
    fn procfs_readers_do_not_fail() {
        assert!(rss_bytes() > 0);
        assert!(cpu_seconds() >= 0.0);
        assert_eq!(mean_u64([1, 2, 3]), 2.0);
        assert_eq!(mean_u64([]), 0.0);
    }
}
