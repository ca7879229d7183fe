//! Poisson session churn: when each session arrives and how long it stays.
//!
//! Arrivals follow an inhomogeneous Poisson process whose rate is the spec's
//! base per-shard rate modulated by the fleet's [`scenario::FleetTimeline`]
//! (flash-crowd spikes multiply the rate inside their windows). Sampling uses
//! the classic inversion method: draw unit-rate exponential increments and
//! map the running sum through the inverse cumulative rate `Λ⁻¹`. Hold times
//! are exponential with the spec's mean.
//!
//! The plan for a shard is a **pure function of `(spec.seed, shard)`** — no
//! global state, no dependence on thread count or execution order — which is what makes fleet artifacts byte-identical however the
//! shards are fanned out.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spec::FleetSpec;

/// Golden-ratio odd constant used to decorrelate per-shard RNG streams.
const SHARD_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Domain tag so churn draws never collide with other derived RNG streams.
const CHURN_TAG: u64 = 0xf1ee_7c04_11e7_c0de;

/// One session's lifecycle, relative to the end of warm-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionPlan {
    /// Arrival time within the experiment window, seconds.
    pub arrival_s: f64,
    /// Streaming (hold) time, seconds. The session generates packets from
    /// `arrival_s` until `arrival_s + hold_s` (or the window closes).
    pub hold_s: f64,
}

/// Deterministic RNG for shard-local draws in domain `tag`.
pub fn shard_rng(seed: u64, shard: u32, tag: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ tag ^ u64::from(shard).wrapping_mul(SHARD_SALT))
}

/// Sample the arrival/hold plan for every session in `shard`.
///
/// Exactly `spec.sessions_in_shard(shard)` plans are returned, in arrival
/// order. The shard holds a fixed session population (the physical partition
/// is part of the spec), so the process is the inhomogeneous Poisson process
/// *conditioned on N arrivals in the window*: by the order-statistics
/// property, the arrival times are then i.i.d. with density `λ(t)/Λ(T)` —
/// each is `Λ⁻¹(u·Λ(T))` for a uniform `u` — sorted ascending. A rate spike
/// therefore concentrates exactly its share of the total rate mass, and the
/// whole plan stays a pure function of `(seed, shard)`.
pub fn shard_plans(spec: &FleetSpec, shard: u32) -> Vec<SessionPlan> {
    let n = spec.sessions_in_shard(shard) as usize;
    let mut rng = shard_rng(spec.seed, shard, CHURN_TAG);
    // Total Λ over the window; a uniform slice of it inverts to an arrival.
    let window_mass = spec
        .timeline
        .cumulative(spec.arrival_rate_per_s, spec.duration_s);
    let mut plans: Vec<SessionPlan> = (0..n)
        .map(|_| {
            let mass = rng.gen_range(0.0_f64..1.0) * window_mass;
            let arrival_s = spec
                .timeline
                .inverse_cumulative(spec.arrival_rate_per_s, mass);
            // gen_range(0.0..1.0) never returns 1.0, so ln's argument stays
            // strictly positive.
            let hold_s = spec.mean_hold_s * -(1.0 - rng.gen_range(0.0_f64..1.0)).ln();
            SessionPlan { arrival_s, hold_s }
        })
        .collect();
    plans.sort_by(|a, b| {
        a.arrival_s
            .partial_cmp(&b.arrival_s)
            .expect("arrival times are finite")
    });
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::FleetTimeline;

    #[test]
    fn plans_are_pure_function_of_seed_and_shard() {
        let spec = FleetSpec::new("churn", 32, 8, 42);
        let a = shard_plans(&spec, 1);
        let b = shard_plans(&spec, 1);
        assert_eq!(a, b);
        // Different shard or seed → different draws.
        assert_ne!(a, shard_plans(&spec, 2));
        let mut other = spec.clone();
        other.seed = 43;
        assert_ne!(a, shard_plans(&other, 1));
    }

    #[test]
    fn plan_count_matches_partition_and_window() {
        let spec = FleetSpec::new("churn", 10, 4, 7);
        for shard in 0..spec.shard_count() {
            let plans = shard_plans(&spec, shard);
            assert_eq!(plans.len(), spec.sessions_in_shard(shard) as usize);
            for p in &plans {
                assert!(p.arrival_s >= 0.0 && p.arrival_s < spec.duration_s);
                assert!(p.hold_s > 0.0);
            }
        }
    }

    #[test]
    fn spike_concentrates_arrivals_in_its_window() {
        let mut calm = FleetSpec::new("calm", 400, 400, 9);
        calm.duration_s = 100.0;
        calm.arrival_rate_per_s = 4.0;
        let mut surge = calm.clone();
        surge.name = "surge".into();
        // 20× arrival rate on [40, 60): over half of all mass sits there.
        surge.timeline = FleetTimeline::named("flash").spike(40.0, 20.0, 20.0);
        let in_window = |plans: &[SessionPlan]| {
            plans
                .iter()
                .filter(|p| (40.0..60.0).contains(&p.arrival_s))
                .count()
        };
        let calm_hits = in_window(&shard_plans(&calm, 0));
        let surge_hits = in_window(&shard_plans(&surge, 0));
        // Calm: ~20% of 400. Surge: 400/480 of the mass → ~83% of 400.
        assert!(calm_hits < 150, "calm fleet put {calm_hits} in the window");
        assert!(
            surge_hits > 250,
            "flash crowd put only {surge_hits} in the window"
        );
    }
}
