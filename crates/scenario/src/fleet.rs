//! Fleet-wide arrival-rate timelines.
//!
//! A single-session [`crate::Scenario`] scripts what happens *to* one
//! session's paths; a [`FleetTimeline`] scripts how fast *new sessions
//! arrive* across a whole fleet. The timeline is a piecewise-constant
//! multiplier on a base Poisson arrival rate: each [`RateSpike`] multiplies
//! the rate by `factor` for `duration_s` seconds starting at `at_s`
//! (overlapping spikes compose multiplicatively), which is exactly the
//! flash-crowd shape — e.g. a 5× arrival surge when a popular event starts.
//!
//! Because the effective rate λ(t) is piecewise constant and strictly
//! positive, its cumulative Λ(t) = ∫₀ᵗ λ is piecewise linear and strictly
//! increasing, so a Poisson process with rate λ(t) can be sampled by
//! inversion: draw unit-rate exponential increments and map the running sum
//! through [`FleetTimeline::inverse_cumulative`]. That is how `crates/fleet`
//! turns one RNG stream into a churn schedule that is a pure function of the
//! spec seed — independent of thread count, shard chunking, and engine.

/// One arrival-rate spike: the fleet arrival rate is multiplied by `factor`
/// on `[at_s, at_s + duration_s)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSpike {
    /// Spike start, seconds after the experiment starts.
    pub at_s: f64,
    /// Multiplier on the base arrival rate (must be > 0; spikes overlap
    /// multiplicatively).
    pub factor: f64,
    /// Spike length, seconds (must be > 0).
    pub duration_s: f64,
}

/// A named, serializable fleet arrival-rate timeline.
///
/// The default timeline is empty (no name, no spikes): the arrival rate is
/// the base rate everywhere.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetTimeline {
    /// Timeline name (no whitespace).
    pub name: String,
    /// The spikes, in script order.
    pub spikes: Vec<RateSpike>,
}

impl FleetTimeline {
    /// An empty timeline with a name.
    pub fn named(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(
            !name.is_empty() && !name.chars().any(char::is_whitespace),
            "timeline name must be non-empty and whitespace-free: {name:?}"
        );
        Self {
            name,
            spikes: Vec::new(),
        }
    }

    /// Append a spike (builder style).
    pub fn spike(mut self, at_s: f64, factor: f64, duration_s: f64) -> Self {
        self.spikes.push(RateSpike {
            at_s,
            factor,
            duration_s,
        });
        self
    }

    /// True when the timeline has no spikes (base rate everywhere).
    pub fn is_empty(&self) -> bool {
        self.spikes.is_empty()
    }

    /// Check the script; returns a description of the first invalid spike.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.spikes.iter().enumerate() {
            let fail = |msg: String| Err(format!("spike {i} (at {}s): {msg}", s.at_s));
            if !(s.at_s.is_finite() && s.at_s >= 0.0) {
                return fail(format!("start {} invalid", s.at_s));
            }
            if !(s.factor.is_finite() && s.factor > 0.0) {
                return fail(format!("factor {} must be > 0", s.factor));
            }
            if !(s.duration_s.is_finite() && s.duration_s > 0.0) {
                return fail(format!("duration {} must be > 0", s.duration_s));
            }
        }
        Ok(())
    }

    /// The effective arrival rate at time `t`: `base` times the product of
    /// every spike active at `t`.
    pub fn rate_at(&self, base: f64, t: f64) -> f64 {
        let mut rate = base;
        for s in &self.spikes {
            if t >= s.at_s && t < s.at_s + s.duration_s {
                rate *= s.factor;
            }
        }
        rate
    }

    /// The boundaries of the piecewise-constant rate: every spike start and
    /// end after `0.0`, sorted and deduplicated (exact f64 equality is the
    /// right dedup here — boundaries come from the same arithmetic).
    fn boundaries(&self) -> Vec<f64> {
        let mut b: Vec<f64> = self
            .spikes
            .iter()
            .flat_map(|s| [s.at_s, s.at_s + s.duration_s])
            .filter(|&t| t > 0.0)
            .collect();
        b.sort_by(|a, b| a.partial_cmp(b).expect("validated: finite"));
        b.dedup();
        b
    }

    /// Cumulative arrival intensity Λ(t) = ∫₀ᵗ λ(u) du for base rate `base`.
    pub fn cumulative(&self, base: f64, t: f64) -> f64 {
        let mut acc = 0.0;
        let mut prev = 0.0;
        for b in self.boundaries() {
            if b >= t {
                break;
            }
            acc += self.rate_at(base, prev) * (b - prev);
            prev = b;
        }
        acc + self.rate_at(base, prev) * (t - prev)
    }

    /// Invert the cumulative intensity: the `t` with Λ(t) = `x`. This is the
    /// inversion-sampling map — feed it the running sum of unit-rate
    /// exponential draws and it returns Poisson arrival times under the
    /// timeline's rate profile.
    pub fn inverse_cumulative(&self, base: f64, x: f64) -> f64 {
        assert!(base > 0.0, "base arrival rate must be > 0");
        let mut acc = 0.0;
        let mut prev = 0.0;
        for b in self.boundaries() {
            let rate = self.rate_at(base, prev);
            let seg = rate * (b - prev);
            if acc + seg >= x {
                return prev + (x - acc) / rate;
            }
            acc += seg;
            prev = b;
        }
        prev + (x - acc) / self.rate_at(base, prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetTimeline {
        FleetTimeline::named("flash")
            .spike(10.0, 5.0, 20.0)
            .spike(25.0, 2.0, 10.0)
    }

    #[test]
    fn validate_catches_bad_spikes() {
        assert!(sample().validate().is_ok());
        assert!(FleetTimeline::named("x")
            .spike(1.0, 0.0, 5.0)
            .validate()
            .is_err());
        assert!(FleetTimeline::named("x")
            .spike(1.0, 2.0, 0.0)
            .validate()
            .is_err());
        assert!(FleetTimeline::named("x")
            .spike(-1.0, 2.0, 5.0)
            .validate()
            .is_err());
    }

    #[test]
    fn rates_compose_multiplicatively() {
        let t = sample();
        assert_eq!(t.rate_at(2.0, 5.0), 2.0);
        assert_eq!(t.rate_at(2.0, 12.0), 10.0); // ×5
        assert_eq!(t.rate_at(2.0, 27.0), 20.0); // ×5 × ×2 overlap
        assert_eq!(t.rate_at(2.0, 32.0), 4.0); // only ×2 left
        assert_eq!(t.rate_at(2.0, 40.0), 2.0);
    }

    #[test]
    fn cumulative_and_inverse_agree() {
        let t = sample();
        let base = 1.5;
        for x in [0.1, 1.0, 7.3, 25.0, 80.0, 200.0] {
            let time = t.inverse_cumulative(base, x);
            let back = t.cumulative(base, time);
            assert!((back - x).abs() < 1e-9, "Λ(Λ⁻¹({x})) = {back}");
        }
        // Monotone.
        let a = t.inverse_cumulative(base, 10.0);
        let b = t.inverse_cumulative(base, 10.5);
        assert!(b > a);
    }

    #[test]
    fn empty_timeline_is_homogeneous_poisson() {
        let t = FleetTimeline::default();
        assert!((t.cumulative(3.0, 10.0) - 30.0).abs() < 1e-12);
        assert!((t.inverse_cumulative(3.0, 30.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn spike_compresses_inter_arrival_times() {
        // Under a 5× spike the same exponential increment maps to a 5×
        // shorter wait — more arrivals land inside the spike window.
        let t = FleetTimeline::named("s").spike(0.0, 5.0, 100.0);
        let plain = FleetTimeline::default();
        assert!(t.inverse_cumulative(1.0, 10.0) * 5.0 - plain.inverse_cumulative(1.0, 10.0) < 1e-9);
    }
}
