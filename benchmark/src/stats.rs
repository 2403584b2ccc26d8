//! Order statistics: percentiles, medians and the quartile rule the
//! benchmark's acceptance test uses.

/// Sorts samples in place (NaN-free by construction: every sample is a
/// measured duration or count).
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// The `q`-quantile (`0.0..=1.0`) of **sorted** samples by the nearest-rank
/// rule: the smallest sample with at least `q` of the samples at or below
/// it. Empty input yields 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted samples (mean of the middle pair for even
/// counts). Empty input yields 0.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The percentile ladder a latency is reported on: each percentile with the
/// `n` of the "one sample in `n` lies beyond it" it stands for (integers, so
/// that counting the samples beyond is exact).
const LADDER: [(f64, usize); 5] = [
    (0.9999, 10_000),
    (0.999, 1_000),
    (0.99, 100),
    (0.9, 10),
    (0.5, 2),
];

/// The highest percentile of [`LADDER`] that still has at least `beyond`
/// samples above it among `count` samples — a tail percentile with fewer
/// samples beyond it is one outlier, not a measurement. `None` when even
/// the median has too few.
pub fn highest_supported_percentile(count: usize, beyond: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&(_, one_in)| count / one_in >= beyond)
        .map(|(q, _)| q)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them: the rule the benchmark's acceptance test is written in.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let len = sorted.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread measure of the
/// acceptance test. `None` with fewer than two samples or a zero median.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        // 1 000 samples: p99 leaves 10 beyond, p99.9 leaves 1.
        assert_eq!(highest_supported_percentile(1_000, 10), Some(0.99));
        assert_eq!(highest_supported_percentile(999, 10), Some(0.9));
        assert_eq!(highest_supported_percentile(100_000, 10), Some(0.9999));
        assert_eq!(highest_supported_percentile(20, 10), Some(0.5));
        assert_eq!(highest_supported_percentile(19, 10), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
        let spread = iqr_over_median(&values).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
    }
}
