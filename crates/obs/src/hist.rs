//! Power-of-two bucketed histograms over virtual-time durations.
//!
//! Grew out of `qbc-cluster`'s latency histogram (which now re-exports
//! this type): the observability layer records many distributions —
//! phase latencies, pin times, blocking windows — and they all share
//! one bucketing scheme so exporters and quantile accessors need a
//! single code path.

use qbc_simnet::Duration;

/// A power-of-two-bucketed latency histogram over virtual-time
/// durations. Bucket `i` holds durations in `[2^i, 2^(i+1))` ticks
/// (bucket 0 also holds zero).
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    buckets: [u64; 32],
    count: u64,
    sum: u64,
    max: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration.
    pub fn record(&mut self, d: Duration) {
        let idx = (64 - d.0.max(1).leading_zeros() as usize - 1).min(31);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += d.0;
        self.max = self.max.max(d.0);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations, in ticks.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean recorded duration (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded duration.
    pub fn max(&self) -> Duration {
        Duration(self.max)
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 < q <= 1.0`), capped at the largest recorded duration (no
    /// sample exceeds it); zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Duration((1u64 << (i + 1)).min(self.max));
            }
        }
        Duration(self.max)
    }

    /// Median (bucket upper bound): `quantile(0.5)`.
    pub fn p50(&self) -> Duration {
        self.quantile(0.5)
    }

    /// 99th percentile (bucket upper bound): `quantile(0.99)`.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// Folds another histogram into this one (bucket-wise; `max` is the
    /// max of both).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(upper bound, count)` pairs, ascending.
    /// Bucket `i`'s upper bound is `2^(i+1)` (exclusive); exporters turn
    /// these into cumulative `le` counts.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (1u64 << (i + 1), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_pins_bucket_boundaries() {
        // Samples 1..=4 land in buckets [1,2), [2,4), [4,8): the
        // quantile accessor reports the *upper bound* of the bucket
        // holding the rank, capped at the recorded max, so boundary
        // samples resolve predictably.
        let mut h = LatencyHistogram::new();
        for d in [1, 2, 3, 4] {
            h.record(Duration(d));
        }
        // rank(0.25) = 1 → bucket [1,2) → upper bound 2.
        assert_eq!(h.quantile(0.25), Duration(2));
        // rank(0.5) = 2 → sample `2` in bucket [2,4) → upper bound 4.
        assert_eq!(h.p50(), Duration(4));
        // rank(0.99·4 → ceil) = 4 → sample `4` in bucket [4,8) → 8,
        // capped at the max, 4.
        assert_eq!(h.p99(), Duration(4));
        assert_eq!(h.quantile(1.0), Duration(4));
    }

    #[test]
    fn exact_power_of_two_opens_a_new_bucket() {
        // 2^k is the *inclusive lower* bound of bucket k, so a median
        // sample at 2^k reports an upper bound of 2^(k+1) (a larger
        // sample lifts the max cap out of the way).
        for k in [1u64, 5, 10, 20] {
            let mut h = LatencyHistogram::new();
            h.record(Duration(1 << k));
            h.record(Duration(1 << (k + 3)));
            assert_eq!(h.p50(), Duration(1 << (k + 1)), "k={k}");
            assert_eq!(h.p99(), Duration(1 << (k + 3)), "k={k}: capped at max");
        }
    }

    #[test]
    fn zero_and_one_share_the_first_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        h.record(Duration(1));
        assert_eq!(h.count(), 2);
        assert_eq!(h.buckets().collect::<Vec<_>>(), vec![(2, 2)]);
        // Bucket [0,2)'s bound, capped at the max.
        assert_eq!(h.p50(), Duration(1));
        assert_eq!(h.p99(), Duration(1));
    }

    #[test]
    fn quantiles_never_exceed_the_recorded_max() {
        // The tail sample sits in bucket [2^19, 2^20), whose bound is
        // far above anything recorded.
        let mut h = LatencyHistogram::new();
        h.record(Duration(10));
        h.record(Duration(713_391));
        assert_eq!(h.p99(), Duration(713_391));
        assert_eq!(h.p50(), Duration(16), "bucket [8,16) is below the cap");
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.p99(), Duration::ZERO);
    }

    #[test]
    fn skewed_tail_separates_p50_from_p99() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration(3));
        }
        h.record(Duration(1000));
        assert_eq!(h.p50(), Duration(4));
        assert_eq!(h.quantile(0.99), Duration(4)); // rank 99 still in [2,4)
        assert_eq!(h.quantile(1.0), Duration(1000)); // [512,1024), capped at max
    }

    #[test]
    fn merge_folds_counts_and_max() {
        let mut a = LatencyHistogram::new();
        a.record(Duration(3));
        let mut b = LatencyHistogram::new();
        b.record(Duration(100));
        b.record(Duration(3));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 106);
        assert_eq!(a.max(), Duration(100));
        assert_eq!(a.quantile(1.0), Duration(100));
    }

    #[test]
    fn bucket_iterator_reports_upper_bounds() {
        let mut h = LatencyHistogram::new();
        h.record(Duration(1));
        h.record(Duration(5));
        h.record(Duration(5));
        let b: Vec<_> = h.buckets().collect();
        assert_eq!(b, vec![(2, 1), (8, 2)]);
    }
}
