//! Small statistics helpers: online means/variances and Student-t confidence
//! intervals, used for the paper's "average over 30 runs with 95% CIs".

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Half-width of the 95% confidence interval for the mean
    /// (`t · s / √n`; 0 with fewer than two observations).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        t_quantile_975(self.n - 1) * self.std_dev() / (self.n as f64).sqrt()
    }
}

/// Summarise a slice of observations.
pub fn summarize(xs: &[f64]) -> OnlineStats {
    let mut s = OnlineStats::new();
    for &x in xs {
        s.push(x);
    }
    s
}

/// 97.5% quantile of the Student-t distribution with `df` degrees of freedom
/// (two-sided 95% interval). Tabulated for small `df`, 1.96 asymptotically.
pub fn t_quantile_975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.96,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = summarize(&xs);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic set is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn ci_is_zero_for_single_observation() {
        let s = summarize(&[42.0]);
        assert_eq!(s.ci95_half_width(), 0.0);
        assert_eq!(s.mean(), 42.0);
    }

    #[test]
    fn ci_shrinks_with_n() {
        let a = summarize(&[1.0, 2.0, 3.0, 4.0]);
        let xs: Vec<f64> = (0..40).map(|i| 1.0 + (i % 4) as f64).collect();
        let b = summarize(&xs);
        assert!(b.ci95_half_width() < a.ci95_half_width());
    }

    #[test]
    fn t_table_monotone_decreasing() {
        let mut prev = f64::INFINITY;
        for df in 1..200 {
            let t = t_quantile_975(df);
            assert!(t <= prev + 1e-12, "df={df}");
            prev = t;
        }
        assert!((t_quantile_975(1_000_000) - 1.96).abs() < 1e-12);
    }
}
