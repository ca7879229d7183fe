//! Simulated time: `u64` nanoseconds since the start of the run.
//!
//! Integer time gives the event queue a total order with no floating-point
//! drift; helpers convert to and from seconds/milliseconds for configuration
//! and reporting.

/// A point in simulated time, in nanoseconds.
pub type SimTime = u64;

/// One second of simulated time.
pub const SECOND: SimTime = 1_000_000_000;

/// One millisecond of simulated time.
pub const MILLISECOND: SimTime = 1_000_000;

/// `x.round() as SimTime` — nearest, ties away from zero, negatives and NaN
/// to 0 — without the libm call: baseline x86-64 has no `roundsd`, so
/// `f64::round` is a function call on the per-transit path. Below 2^52 the
/// truncation and the fractional part `x - t` are both exact.
#[inline]
pub fn round_ns(x: f64) -> SimTime {
    const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
    if x < TWO_POW_52 {
        let t = x as u64;
        t + u64::from(x - t as f64 >= 0.5)
    } else {
        x.round() as SimTime
    }
}

/// Convert seconds (f64) to [`SimTime`]. Negative values saturate to 0.
pub fn secs(s: f64) -> SimTime {
    round_ns(s * SECOND as f64)
}

/// Convert milliseconds (f64) to [`SimTime`].
pub fn millis(ms: f64) -> SimTime {
    secs(ms / 1e3)
}

/// Convert a [`SimTime`] to seconds.
pub fn to_secs(t: SimTime) -> f64 {
    t as f64 / SECOND as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        assert_eq!(secs(1.0), SECOND);
        assert_eq!(millis(250.0), 250 * MILLISECOND);
        assert!((to_secs(secs(3.25)) - 3.25).abs() < 1e-12);
    }

    #[test]
    fn negative_saturates() {
        assert_eq!(secs(-1.0), 0);
    }

    #[test]
    fn round_ns_is_f64_round() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let same = |x: f64| assert_eq!(round_ns(x), x.round() as SimTime, "x = {x:e}");
        // Seeded mantissas in each of 60 binades, 2^-4 ..= 2^55: sub-unit
        // values, the link path's range, and past 2^52 where every f64 is
        // already an integer. Both signs.
        let mut rng = SmallRng::seed_from_u64(2007);
        for exp in -4..56 {
            for _ in 0..17_000 {
                let x = rng.gen_range(1.0..2.0) * 2f64.powi(exp);
                same(x);
                same(-x);
            }
        }
        // Every tie and its two neighbours, where the rounding flips.
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let next_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let ties = (0..4096u64)
            .chain((8..52).flat_map(|b| [(1 << b) - 1, 1 << b]))
            .map(|k| k as f64 + 0.5);
        for tie in ties {
            same(next_down(tie));
            same(tie);
            same(next_up(tie));
        }
        assert_eq!(round_ns(0.499_999_999_999_999_94), 0);
        assert_eq!(round_ns(0.5), 1);
        for x in [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            same(x);
        }
        same(u64::MAX as f64);
    }
}
