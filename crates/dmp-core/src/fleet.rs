//! Fleet-level metrics: what a CDN operator reads off a thousand-session
//! experiment.
//!
//! The paper's single-session verdicts (late fraction at a startup delay τ,
//! the 1.6× aggregate-throughput headroom rule of Section 7.3) only matter
//! operationally in aggregate: *how many* sessions met the rule, what the
//! glitch distribution looked like across the fleet, how much video the
//! whole system moved. This module folds per-session outcomes — produced by
//! any backend; `crates/fleet` is the first — into a [`FleetReport`].
//!
//! Everything here is deterministic arithmetic over the outcomes, so a
//! report is byte-stable whenever the outcomes are.

pub use dmp_base::Distribution;

/// The headroom threshold of the paper's Section 7.3 rule of thumb: a
/// two-path DMP session whose aggregate achievable TCP throughput is at
/// least 1.6× the video bitrate performs as well as a single-path session
/// with 2× headroom.
pub const HEADROOM_RULE: f64 = 1.6;

/// What one fleet session did, as measured by a backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionOutcome {
    /// Global session index (stable across shard chunking choices).
    pub session: u32,
    /// Arrival time, seconds after the experiment starts.
    pub arrival_s: f64,
    /// Requested streaming duration (session hold time), seconds.
    pub hold_s: f64,
    /// The session arrived inside the experiment window and generated at
    /// least one packet.
    pub started: bool,
    /// The session generated its full packet budget before the window
    /// closed (departed rather than being truncated).
    pub completed: bool,
    /// Video packets generated.
    pub generated: u64,
    /// Video packets delivered to the client.
    pub delivered: u64,
    /// Fraction of packets late at the evaluation startup delay τ
    /// (playback order).
    pub late_fraction: f64,
    /// Number of playback glitches (maximal runs of consecutive late
    /// packets) at τ.
    pub glitch_count: u64,
    /// Aggregate achievable TCP throughput across the session's paths,
    /// divided by the video rate µ — the left-hand side of the 1.6× rule.
    pub headroom: f64,
}

/// Aggregate verdict over a fleet of sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Sessions in the spec (started or not).
    pub sessions: u64,
    /// Sessions that arrived inside the window and generated packets.
    pub started: u64,
    /// Started sessions that generated their full budget (clean departures).
    pub completed: u64,
    /// Total video packets generated across the fleet.
    pub generated: u64,
    /// Total video packets delivered across the fleet.
    pub delivered: u64,
    /// Aggregate goodput: delivered packets per second of experiment time.
    pub goodput_pps: f64,
    /// Late-fraction distribution across started sessions.
    pub late: Distribution,
    /// Glitch-count distribution across started sessions.
    pub glitches: Distribution,
    /// Headroom (σ_a/µ) distribution across started sessions.
    pub headroom: Distribution,
    /// Fraction of started sessions whose aggregate headroom meets
    /// [`HEADROOM_RULE`].
    pub headroom_ok: f64,
}

impl FleetReport {
    /// Fold per-session outcomes (any order) into the fleet verdict.
    /// `duration_s` is the experiment window the goodput is normalised by.
    pub fn from_outcomes(outcomes: &[SessionOutcome], duration_s: f64) -> Self {
        let started: Vec<&SessionOutcome> = outcomes.iter().filter(|o| o.started).collect();
        let collect =
            |f: fn(&SessionOutcome) -> f64| -> Vec<f64> { started.iter().map(|o| f(o)).collect() };
        let generated = outcomes.iter().map(|o| o.generated).sum::<u64>();
        let delivered = outcomes.iter().map(|o| o.delivered).sum::<u64>();
        let headroom_ok = if started.is_empty() {
            0.0
        } else {
            started
                .iter()
                .filter(|o| o.headroom >= HEADROOM_RULE)
                .count() as f64
                / started.len() as f64
        };
        FleetReport {
            sessions: outcomes.len() as u64,
            started: started.len() as u64,
            completed: started.iter().filter(|o| o.completed).count() as u64,
            generated,
            delivered,
            goodput_pps: if duration_s > 0.0 {
                delivered as f64 / duration_s
            } else {
                0.0
            },
            late: Distribution::from_values(&collect(|o| o.late_fraction)),
            glitches: Distribution::from_values(&collect(|o| o.glitch_count as f64)),
            headroom: Distribution::from_values(&collect(|o| o.headroom)),
            headroom_ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(session: u32, started: bool, headroom: f64, late: f64) -> SessionOutcome {
        SessionOutcome {
            session,
            arrival_s: session as f64,
            hold_s: 10.0,
            started,
            completed: started,
            generated: if started { 100 } else { 0 },
            delivered: if started { 99 } else { 0 },
            late_fraction: late,
            glitch_count: 1,
            headroom,
        }
    }

    #[test]
    fn report_counts_and_fractions() {
        let outcomes = [
            outcome(0, true, 2.0, 0.0),
            outcome(1, true, 1.0, 0.5),
            outcome(2, false, 0.0, 0.0),
            outcome(3, true, 1.7, 0.1),
        ];
        let r = FleetReport::from_outcomes(&outcomes, 100.0);
        assert_eq!(r.sessions, 4);
        assert_eq!(r.started, 3);
        assert_eq!(r.completed, 3);
        assert_eq!(r.generated, 300);
        assert_eq!(r.delivered, 297);
        assert!((r.goodput_pps - 2.97).abs() < 1e-12);
        // 2 of 3 started sessions meet the 1.6× rule.
        assert!((r.headroom_ok - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.late.max - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distribution_of_empty_and_singleton() {
        let d = Distribution::from_values(&[]);
        assert_eq!(d.mean, 0.0);
        assert_eq!(d.max, 0.0);
        let d = Distribution::from_values(&[3.5]);
        assert_eq!(d.mean, 3.5);
        assert_eq!(d.p50, 3.5);
        assert_eq!(d.p90, 3.5);
        assert_eq!(d.max, 3.5);
    }

    #[test]
    fn percentiles_interpolate() {
        let d = Distribution::from_values(&[4.0, 1.0, 2.0, 3.0]);
        assert!((d.p50 - 2.5).abs() < 1e-12);
        assert!((d.p90 - 3.7).abs() < 1e-12);
        assert!((d.p99 - 3.97).abs() < 1e-12);
        assert_eq!(d.max, 4.0);
        // Population stddev of {1,2,3,4}: sqrt(1.25).
        assert!((d.stddev - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn histogram_reconstruction_matches_exact_moments() {
        // 10 samples of value 4 and 10 of value 12, in two buckets.
        let buckets = [(4.0, 5.0, 10u64), (8.0, 16.0, 10u64)];
        let sum = 10.0 * 4.0 + 10.0 * 12.0;
        let sum_sq = 10.0 * 16.0 + 10.0 * 144.0;
        let d = Distribution::from_histogram(20, sum, sum_sq, 4.0, 12.0, buckets);
        assert!((d.mean - 8.0).abs() < 1e-12);
        assert!((d.stddev - 4.0).abs() < 1e-12);
        assert_eq!(d.max, 12.0);
        // p50 rank 9.5 falls in the first bucket's tail, clamped to min.
        assert!(d.p50 >= 4.0 && d.p50 <= 5.0, "p50 {}", d.p50);
        // p99 rank 18.8 falls deep in the second bucket.
        assert!(d.p99 > 8.0 && d.p99 <= 12.0, "p99 {}", d.p99);
        assert_eq!(
            Distribution::from_histogram(0, 0.0, 0.0, 0.0, 0.0, []),
            Distribution::zero()
        );
    }

    #[test]
    fn histogram_reconstruction_is_merge_order_invariant() {
        // The same total histogram assembled as A+B and B+A (bucket counts
        // are sums, moments are sums/maxes) must reconstruct identically.
        let total = [(0.0, 1.0, 3u64), (1.0, 2.0, 5u64), (2.0, 4.0, 2u64)];
        let sum = 0.5 * 3.0 + 1.5 * 5.0 + 3.0 * 2.0;
        let sum_sq = 0.25 * 3.0 + 2.25 * 5.0 + 9.0 * 2.0;
        let a = Distribution::from_histogram(10, sum, sum_sq, 0.2, 3.5, total);
        let b = Distribution::from_histogram(10, sum, sum_sq, 0.2, 3.5, total.to_vec());
        assert_eq!(a, b);
    }

    #[test]
    fn all_unstarted_fleet_is_zeroes_not_nan() {
        let outcomes = [outcome(0, false, 0.0, 0.0)];
        let r = FleetReport::from_outcomes(&outcomes, 50.0);
        assert_eq!(r.started, 0);
        assert_eq!(r.headroom_ok, 0.0);
        assert!(r.late.mean == 0.0 && !r.late.mean.is_nan());
    }
}
