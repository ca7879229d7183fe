//! The host-speed reference: a fixed floating-point loop, timed right before
//! and right after everything the benchmark times, by which every reported
//! time is scaled.
//!
//! The reference box is a shared virtual machine whose speed drifts by tens
//! of percent over minutes (a neighbour on the physical core comes and goes),
//! so the raw median of identical iterations moved 8–23 % between back-to-back
//! windows of one run, whatever their length. The drift slows this loop and
//! the workloads alike: divided by the loop's time, the same windows agree
//! within 1–5 %. The loop belongs to the benchmark, calls nothing of the
//! repository and touches no memory, so no change to the code under test can
//! move it.

use std::hint::black_box;
use std::time::Instant;

/// Operations (one xorshift step and one logarithm) per measurement: about
/// 5 ms, long enough to time well, short enough to sit between iterations.
const OPS: u32 = 800_000;

/// What one operation takes when the reference box is quiet. A time is
/// reported as it would have read at this speed, so on a quiet box scaled
/// and raw seconds agree.
pub const NOMINAL_NS_PER_OP: f64 = 6.0;

/// The loop and its generator state.
pub struct Reference {
    x: u64,
    /// Seconds spent measuring so far.
    spent_s: f64,
}

impl Reference {
    /// A warmed-up reference: the first measurement pays for page faults and
    /// cold branch predictors, so it is made here and thrown away.
    pub fn new() -> Self {
        let mut r = Self {
            x: 0x9e37_79b9_7f4a_7c15,
            spent_s: 0.0,
        };
        r.measure();
        r
    }

    /// Time the loop once; nanoseconds per operation.
    pub fn measure(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0.0f64;
        for _ in 0..OPS {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let u = (self.x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            acc -= (u + 1e-12).ln();
        }
        black_box(acc);
        let s = t0.elapsed().as_secs_f64();
        self.spent_s += s;
        s * 1e9 / f64::from(OPS)
    }

    /// Seconds spent in the loop so far: one fully busy thread, which a
    /// reading of how busy the workload kept its threads must leave out.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }
}

/// The factor that takes seconds measured between two reference readings
/// (ns per operation) to seconds at the nominal speed.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_NS_PER_OP / (0.5 * (before + after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_half_speed_halves_the_reported_time() {
        assert_eq!(scale(NOMINAL_NS_PER_OP, NOMINAL_NS_PER_OP), 1.0);
        assert_eq!(scale(2.0 * NOMINAL_NS_PER_OP, 2.0 * NOMINAL_NS_PER_OP), 0.5);
        // Speed that changes across the interval counts at its mean.
        assert_eq!(scale(NOMINAL_NS_PER_OP, 3.0 * NOMINAL_NS_PER_OP), 0.5);
    }
}
