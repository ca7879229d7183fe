//! Order statistics for iteration times and for the noise ledger.

/// Percentiles a timing may be reported at, lowest first.
const TAILS: [usize; 4] = [75, 90, 95, 99];

/// Samples that must lie beyond a percentile before it may be printed.
const BEYOND: usize = 10;

/// Quantile `q ∈ [0, 1]` of `values` by linear interpolation between order
/// statistics. Panics on an empty slice: a pass always has an iteration.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile that still has at least ten of `n` samples beyond
/// it, if any: a tail read off fewer samples is an anecdote.
pub fn tail_percentile(n: usize) -> Option<usize> {
    TAILS
        .iter()
        .rev()
        .copied()
        .find(|p| n * (100 - p) >= BEYOND * 100)
}

/// Distance between the largest and the smallest value as a share of the
/// median: how far a handful of sets are apart.
pub fn range_share(values: &[f64]) -> f64 {
    (quantile(values, 1.0) - quantile(values, 0.0)) / median(values)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method) — the driver judges run-to-run spread
/// with exactly this, so the noise ledger must too. Needs two samples.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        // May go negative or past 4 at the clamped ends: that extrapolates,
        // as the reference implementation does.
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median: the spread the
/// driver compares with a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles_exclusive(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(range_share(&v), 3.0 / 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 8.25));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles_exclusive(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
    }
}
