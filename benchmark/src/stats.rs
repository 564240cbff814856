//! Order statistics the harness reports: medians, nearest-rank
//! percentiles, and the rule for which tail percentile a sample supports.

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `p` % of the
/// samples at or below it. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// One-based nearest-rank position of percentile `p` among `n` samples.
/// The epsilon keeps `99.9 % of 4000` from rounding up to rank 3997.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The median (mean of the two middle samples when the count is even, so
/// a two-sample median is not just the minimum), or 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples strictly above the nearest-rank position of percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// True when `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn median_of_an_even_count_is_the_mean_of_the_middle_pair() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 4000 samples leave 40 beyond p99 and 4 beyond p99.9.
        assert_eq!(beyond(4000, 99.0), 40);
        assert!(supports(4000, 99.0));
        assert!(!supports(4000, 99.9));
        // p99 needs 1000 samples, p90 needs 100.
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(99, 90.0));
        assert!(supports(100, 90.0));
        assert!(!supports(0, 50.0));
    }
}
