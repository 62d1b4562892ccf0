//! One histogram layout for every recorded quantity.
//!
//! Values below 64 get exact buckets; from 2^6 to 2^40 each power of two
//! is split into 64 linear sub-buckets; everything from 2^40 up shares
//! one overflow bucket. A bucket is found by bit arithmetic, never by a
//! search, and a quantile read off it is within 1/128 of the value it
//! estimates. No caller chooses buckets, so any two histograms merge and
//! `prof`'s lock-free per-thread counters index them with the same
//! `index`. Buckets never rebalance, so two runs that record the same
//! values produce identical histograms — the determinism contract the
//! rest of the subsystem keeps.

/// Below `2^SUB_BITS` every value has its own bucket; each later power
/// of two is split into `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 6;

/// Values from `2^TOP_BITS` up land in the overflow bucket.
const TOP_BITS: u32 = 40;

/// Buckets in the layout: 64 exact, 34 octaves of 64, one overflow
/// (2 241 counters, ≈ 17.5 KiB).
pub(crate) const BUCKETS: usize = ((TOP_BITS - SUB_BITS + 1) << SUB_BITS) as usize + 1;

const OVERFLOW: usize = BUCKETS - 1;

/// The bucket `value` counts in.
pub(crate) fn index(value: u64) -> usize {
    if value >> TOP_BITS != 0 {
        return OVERFLOW;
    }
    // `value >> shift` is the value itself below 128, else 64..128.
    let shift = (63 - (value | 1).leading_zeros()).saturating_sub(SUB_BITS);
    ((shift as usize) << SUB_BITS) + (value >> shift) as usize
}

/// The smallest value of bucket `i < OVERFLOW`, and the bucket's width.
fn bucket(i: usize) -> (u64, u64) {
    if i < 1 << SUB_BITS {
        return (i as u64, 1);
    }
    let shift = (i >> SUB_BITS) - 1;
    let mantissa = (i & ((1 << SUB_BITS) - 1)) | 1 << SUB_BITS;
    ((mantissa as u64) << shift, 1 << shift)
}

/// Counts per bucket of the one layout, plus the total, sum and max of
/// what was recorded. The counters are allocated once, at construction;
/// `record` and `merge` never allocate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram { counts: vec![0; BUCKETS].into_boxed_slice(), total: 0, sum: 0, max: 0 }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`) of the rank-`⌈q·total⌉`
    /// observation: exact below 128, else its bucket's midpoint (within
    /// 1/128 of the value), never above the recorded max. The overflow
    /// bucket reports the max; 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                if i == OVERFLOW {
                    break;
                }
                let (low, width) = bucket(i);
                return (low + width / 2).min(self.max);
            }
        }
        self.max
    }

    /// Adds another histogram's observations to this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.add_counts(other.counts.iter().copied(), other.sum, other.max);
    }

    /// Adds per-bucket counts accumulated elsewhere in this layout, with
    /// their sum and max — `merge`, and `prof`'s fold of its per-thread
    /// atomic counters, which cannot afford a `&mut Histogram`.
    pub(crate) fn add_counts(&mut self, counts: impl IntoIterator<Item = u64>, sum: u64, max: u64) {
        for (mine, n) in self.counts.iter_mut().zip(counts) {
            *mine += n;
            self.total += n;
        }
        self.sum = self.sum.saturating_add(sum);
        self.max = self.max.max(max);
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[index(value)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of recorded values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values, 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_tile_the_range_and_every_power_of_two_starts_one() {
        assert_eq!(BUCKETS, 2_241);
        let mut next = 0;
        for i in 0..OVERFLOW {
            let (low, width) = bucket(i);
            assert_eq!(low, next, "bucket {i} starts where {} ends", i.max(1) - 1);
            assert_eq!((index(low), index(low + width - 1)), (i, i));
            next = low + width;
        }
        assert_eq!(next, 1 << TOP_BITS);
        for k in 0..=TOP_BITS {
            assert_eq!(index((1 << k) - 1) + 1, index(1 << k));
        }
    }

    #[test]
    fn zero_goes_to_the_zero_bucket() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(index(0), 0);
        assert_eq!(h.quantile(1.0), 0);
        h.record(1);
        assert_eq!((h.quantile(0.5), h.quantile(1.0)), (0, 1));
    }

    #[test]
    fn overflow_catches_everything_past_the_last_bound() {
        let mut h = Histogram::new();
        h.record(1 << TOP_BITS);
        h.record(u64::MAX);
        assert_eq!((index(1 << TOP_BITS), index(u64::MAX)), (OVERFLOW, OVERFLOW));
        assert_eq!(h.quantile(0.5), u64::MAX, "the overflow bucket reports the max");
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn mean_and_sum() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        h.record(2);
        h.record(4);
        assert_eq!(h.sum(), 6);
        assert_eq!(h.total(), 2);
        assert!((h.mean() - 3.0).abs() < f64::EPSILON);
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let (mut a, mut b, mut both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [0, 3, 50, 150, 1 << 30] {
            a.record(v);
            both.record(v);
        }
        for v in [7, 200, 151, 1 << 45] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn quantile_walks_buckets() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [1, 2, 3, 50, 60, 70, 80, 90, 500, 5_000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.3), 3);
        assert_eq!(h.quantile(0.5), 60);
        assert_eq!(h.quantile(0.8), 90);
        // 500 reads the midpoint of [500, 504); 5 000's bucket is
        // [4 992, 5 056), whose midpoint is clamped to the max.
        assert_eq!(h.quantile(0.9), 502);
        assert_eq!(h.quantile(1.0), 5_000);
    }

    #[test]
    fn quantile_with_zeros_only() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.99), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn quantiles_are_within_one_percent_of_nearest_rank(
            values in prop::collection::vec(
                // Log-uniform over [0, 2^40): every octave gets drawn.
                (0u32..=TOP_BITS, any::<u64>())
                    .prop_map(|(bits, x)| if bits == 0 { 0 } else { x >> (64 - bits) }),
                1..300,
            ),
            q in 0.0..1.0f64,
        ) {
            let (mut h, mut left, mut right) = (Histogram::new(), Histogram::new(), Histogram::new());
            let cut = (q * values.len() as f64) as usize;
            for (i, v) in values.iter().enumerate() {
                h.record(*v);
                if i < cut { &mut left } else { &mut right }.record(*v);
            }
            left.merge(&right);
            prop_assert_eq!(&left, &h, "merging a split equals recording the whole");
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let n = sorted.len() as u64;
            for q in [q, 0.0, 0.5, 0.99, 1.0] {
                let exact = sorted[((q * n as f64).ceil() as u64).clamp(1, n) as usize - 1];
                let estimate = h.quantile(q);
                prop_assert!(estimate <= h.max(), "q={q}: {estimate} above the max");
                if exact < 64 {
                    prop_assert_eq!(estimate, exact, "q={q}: below 64 is exact");
                } else {
                    let error = estimate.abs_diff(exact) as f64 / exact as f64;
                    prop_assert!(error <= 0.01, "q={q}: {estimate} vs {exact}");
                }
            }
        }
    }
}
