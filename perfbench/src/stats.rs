//! Order statistics over raw samples, generator lateness and
//! time-weighted means. Percentiles come from the recorded samples
//! themselves, never from a bucketed histogram, so p50 and p99 are
//! distinct numbers whenever the samples are.

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `sorted`, which must be
/// in ascending order; `None` when there are no samples.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` in place and returns its median and 99th percentile.
pub fn p50_p99(samples: &mut [f64]) -> Option<(f64, f64)> {
    samples.sort_by(f64::total_cmp);
    Some((quantile(samples, 0.50)?, quantile(samples, 0.99)?))
}

/// The median of a small set of repeated measurements (the mean of the
/// two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// How far behind its schedule an open-loop generator ran: the largest
/// gap between a request's due time and the moment it was sent. A
/// request sent early (never the case for this generator) counts as on
/// time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lateness {
    max_ns: u64,
}

impl Lateness {
    /// Records one request due at `due_ns` and sent at `sent_ns`.
    pub fn record(&mut self, due_ns: u64, sent_ns: u64) {
        self.max_ns = self.max_ns.max(sent_ns.saturating_sub(due_ns));
    }

    /// Largest lateness seen, in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_ns as f64 / 1e6
    }
}

/// Time-weighted mean of a step function sampled at `(t_ns, value)`
/// points in time order: each value holds until the next sample. The
/// last sample closes the interval and carries no weight.
pub fn time_weighted_mean(samples: &[(u64, f64)]) -> Option<f64> {
    let span = samples.last()?.0.checked_sub(samples.first()?.0)?;
    if span == 0 {
        return None;
    }
    let area: f64 = samples
        .windows(2)
        .map(|w| w[0].1 * (w[1].0 - w[0].0) as f64)
        .sum();
    Some(area / span as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank_on_raw_samples() {
        let mut s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(p50_p99(&mut s), Some((50.0, 99.0)));
        assert_eq!(quantile(&s, 1.0), Some(100.0));
        assert_eq!(quantile(&s, 0.001), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn p99_is_read_from_the_raw_tail() {
        // 990 fast samples and 10 slow ones: a power-of-two histogram
        // would put both quantiles in one bucket bound.
        let mut s = vec![1.1; 990];
        s.extend(std::iter::repeat_n(1.9, 10));
        let (p50, p99) = p50_p99(&mut s).expect("samples");
        assert_eq!(p50, 1.1);
        assert_eq!(p99, 1.1);
        s.push(1.9);
        let (_, p99) = p50_p99(&mut s).expect("samples");
        assert_eq!(p99, 1.9);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn lateness_keeps_the_worst_gap_and_ignores_early_sends() {
        let mut l = Lateness::default();
        assert_eq!(l.max_ms(), 0.0);
        l.record(1_000_000, 1_500_000);
        l.record(2_000_000, 1_000_000);
        l.record(3_000_000, 5_250_000);
        l.record(4_000_000, 4_000_100);
        assert_eq!(l.max_ms(), 2.25);
    }

    #[test]
    fn time_weighted_mean_weights_by_holding_time() {
        // 10 for 1 ms, then 0 for 3 ms: mean 2.5.
        let s = [(0, 10.0), (1_000_000, 0.0), (4_000_000, 7.0)];
        assert_eq!(time_weighted_mean(&s), Some(2.5));
        assert_eq!(time_weighted_mean(&[(5, 1.0)]), None);
        assert_eq!(time_weighted_mean(&[]), None);
    }
}
