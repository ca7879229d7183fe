//! Summary statistics of a sample: the repo's one percentile implementation.

/// Summary statistics of one per-session metric across the fleet.
///
/// This is the repo's **single** percentile implementation: every layer
/// that reports a p50/p90/p99 — fleet reports, the queue-depth table of
/// `dmp-bench`'s trace report, metric-snapshot rendering — funnels through
/// either [`Distribution::from_values`] (exact order statistics) or
/// [`Distribution::from_histogram`] (bucket reconstruction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Distribution {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (linear interpolation between order statistics).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Distribution {
    /// The all-zero distribution (what an empty sample reports).
    pub fn zero() -> Self {
        Self {
            mean: 0.0,
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
            max: 0.0,
            stddev: 0.0,
        }
    }

    /// Summarise `values` (need not be sorted). Returns all-zero for an
    /// empty slice.
    pub fn from_values(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self::zero();
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / sorted.len() as f64;
        Self {
            mean,
            p50: percentile(&sorted, 0.50),
            p90: percentile(&sorted, 0.90),
            p99: percentile(&sorted, 0.99),
            max: *sorted.last().expect("non-empty"),
            stddev: var.max(0.0).sqrt(),
        }
    }

    /// Reconstruct a distribution from mergeable histogram state: exact
    /// `count`/`sum`/`sum_sq`/`min`/`max` moments plus ascending
    /// `(bucket_lo, bucket_hi, bucket_count)` triples (empty buckets may be
    /// omitted). Because every input is a sum or max over samples, two
    /// histograms merged in *any* order reconstruct the identical
    /// distribution — the property shard merges rely on.
    ///
    /// Percentiles interpolate linearly inside the bucket containing the
    /// rank (the same convention as [`from_values`](Self::from_values) uses
    /// between order statistics), clamped to the exact `[min, max]` range.
    pub fn from_histogram<I>(
        count: u64,
        sum: f64,
        sum_sq: f64,
        min: f64,
        max: f64,
        buckets: I,
    ) -> Self
    where
        I: IntoIterator<Item = (f64, f64, u64)>,
    {
        if count == 0 {
            return Self::zero();
        }
        let n = count as f64;
        let mean = sum / n;
        let var = (sum_sq / n) - mean * mean;
        let mut dist = Self {
            mean,
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
            max,
            stddev: var.max(0.0).sqrt(),
        };
        // Ranks on the same 0..count-1 scale `percentile` uses.
        let ranks = [0.50, 0.90, 0.99].map(|q| q * (n - 1.0));
        let mut out = [min; 3];
        let mut seen = 0u64;
        for (lo, hi, c) in buckets {
            if c == 0 {
                continue;
            }
            let first = seen as f64;
            let last = (seen + c - 1) as f64;
            for (slot, &rank) in out.iter_mut().zip(&ranks) {
                if rank >= first && rank <= last + 1.0 {
                    // Spread the bucket's samples evenly over [lo, hi).
                    let frac = ((rank - first) / c as f64).clamp(0.0, 1.0);
                    *slot = (lo + frac * (hi - lo)).clamp(min, max);
                }
            }
            seen += c;
        }
        dist.p50 = out[0];
        dist.p90 = out[1];
        dist.p99 = out[2];
        dist
    }
}

/// Linear-interpolation percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}
