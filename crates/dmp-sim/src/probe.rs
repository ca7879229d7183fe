//! Saturation throughput probe: measure the aggregate rate σ_a a
//! multipath TCP session actually achieves on a setting when the video
//! source can always outrun the network.
//!
//! The paper's Section 7.3 headroom rule is stated in multiples of σ_a/µ:
//! a live stream is safe when the paths' aggregate achievable TCP rate
//! exceeds the video rate by a comfortable margin. The fleet layer
//! approximates σ_a analytically (PFTK from measured `p`, `R`, `T_O`),
//! which is only meaningful for Reno. This module measures it empirically
//! instead — run the *same* experiment with the video generator cranked far
//! above the bottleneck capacity, so every sender is permanently backlogged,
//! and count what comes out the other side. That works identically for
//! Reno, CUBIC, and BBR-lite, and it inherits every piece of the streaming
//! machinery (background traffic, scheduler, tracing hooks), so the probe
//! measures the throughput *this* congestion-control algorithm and pull
//! strategy would get, not a modelled ideal.
//!
//! Probe results feed the `ext_cc_matrix` bench target: the headroom of a
//! (cc, strategy) cell is the smallest multiple `m` such that streaming at
//! µ = σ_a/m keeps the late-frame fraction under 1 %.

use dmp_runner::{JobSpec, Json, JsonCodec};

use crate::configs::config;
use crate::experiment::{run, ExperimentSpec};

/// How far above the aggregate bottleneck capacity the probe's video rate
/// is set. Anything comfortably above 1 keeps the shared queue non-empty
/// for the whole run; 2 leaves margin for rounding and bursts.
pub const SATURATION_FACTOR: f64 = 2.0;

/// Aggregate bottleneck capacity of a setting, in video packets per second
/// (the hard upper bound on σ_a).
pub fn capacity_pps(setting: &crate::configs::Setting) -> f64 {
    setting
        .configs
        .iter()
        .map(|&id| config(id).bandwidth_mbps * 1e6 / (8.0 * f64::from(setting.video.packet_bytes)))
        .sum()
}

/// What one saturation run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationReport {
    /// Aggregate achieved rate σ_a, packets per second.
    pub aggregate_pps: f64,
    /// σ_a split by path (aggregate × delivered share).
    pub per_path_pps: Vec<f64>,
    /// Packets delivered inside the measurement window.
    pub delivered: u64,
    /// Measurement window (the spec's video duration), seconds.
    pub duration_s: f64,
}

impl JsonCodec for SaturationReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("aggregate_pps", Json::Num(self.aggregate_pps)),
            (
                "per_path_pps",
                Json::Arr(self.per_path_pps.iter().map(|&x| Json::Num(x)).collect()),
            ),
            ("delivered", Json::Num(self.delivered as f64)),
            ("duration_s", Json::Num(self.duration_s)),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        let per_path_pps = match json.get("per_path_pps")? {
            Json::Arr(xs) => xs.iter().map(Json::as_f64).collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(Self {
            aggregate_pps: json.get("aggregate_pps")?.as_f64()?,
            per_path_pps,
            delivered: json.get("delivered")?.as_f64()? as u64,
            duration_s: json.get("duration_s")?.as_f64()?,
        })
    }
}

/// The experiment the probe actually runs: `spec` with its video rate
/// replaced by `SATURATION_FACTOR ×` the setting's aggregate capacity.
/// Everything else — scheduler, congestion control, pull strategy, scenario,
/// background traffic — carries over unchanged.
pub fn saturation_spec(spec: &ExperimentSpec) -> ExperimentSpec {
    let mut s = spec.clone();
    s.setting.video.rate_pps = (SATURATION_FACTOR * capacity_pps(&s.setting)).ceil();
    s
}

/// Run the saturation probe for `spec` and reduce it to a
/// [`SaturationReport`].
pub fn run_saturation(spec: &ExperimentSpec) -> SaturationReport {
    let sat = saturation_spec(spec);
    let out = run(&sat);
    let delivered = out.trace.delivered();
    let aggregate_pps = delivered as f64 / sat.duration_s;
    SaturationReport {
        aggregate_pps,
        per_path_pps: out.paths.iter().map(|p| p.share * aggregate_pps).collect(),
        delivered,
        duration_s: sat.duration_s,
    }
}

/// Build one cacheable [`JobSpec`] per probe replication (seeds
/// `spec.seed + i`), mirroring [`crate::experiment::batch_jobs`], keyed on
/// the replica's spec. The payload type keeps a probe from ever colliding
/// with a streaming summary of the same spec.
pub fn saturation_jobs(spec: &ExperimentSpec, runs: usize) -> Vec<JobSpec<SaturationReport>> {
    (0..runs)
        .map(|i| {
            let mut s = spec.clone();
            s.seed = spec.seed.wrapping_add(i as u64);
            let label = format!(
                "sat:{}:{}:{}:run{}",
                spec.setting.name,
                spec.cc.name(),
                spec.strategy.name(),
                i
            );
            let seed = s.seed;
            JobSpec::keyed(label, s, seed, run_saturation)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::setting;
    use dmp_core::spec::SchedulerKind;

    fn probe_spec(kind: cc::CcKind) -> ExperimentSpec {
        let mut s = ExperimentSpec::new(*setting("2-2").unwrap(), SchedulerKind::Dynamic, 30.0, 7);
        s.warmup_s = 5.0;
        s.cc = kind;
        s
    }

    #[test]
    fn saturated_source_is_backlogged_and_capacity_bounded() {
        let spec = probe_spec(cc::CcKind::Reno);
        let r = run_saturation(&spec);
        let cap = capacity_pps(&spec.setting);
        // The probe must push the paths hard enough to measure a nontrivial
        // rate, and it cannot exceed the physical capacity.
        assert!(r.aggregate_pps > 0.05 * cap, "σ_a = {r:?}, cap = {cap}");
        assert!(r.aggregate_pps < cap, "σ_a = {r:?}, cap = {cap}");
        assert_eq!(r.per_path_pps.len(), 2);
        let split: f64 = r.per_path_pps.iter().sum();
        assert!((split - r.aggregate_pps).abs() < 1e-6);
    }

    /// Every congestion controller's probe, once, under the event queue's
    /// contract check (debug builds): it holds every pop to `(time, seq)`
    /// order, which fixes the run any conforming queue produces.
    #[test]
    fn probe_is_engine_invariant() {
        for kind in cc::CcKind::all() {
            let r = run_saturation(&probe_spec(kind));
            assert!(r.aggregate_pps > 0.0, "{kind:?}: σ_a = {r:?}");
        }
    }

    #[test]
    fn probe_jobs_key_embeds_cc_and_strategy() {
        let mut a = probe_spec(cc::CcKind::Reno);
        let mut b = a.clone();
        b.cc = cc::CcKind::Cubic;
        let mut c = a.clone();
        c.strategy = dmp_core::spec::PullStrategy::BestPath;
        a.seed = 7;
        let keys: Vec<String> = [&a, &b, &c]
            .iter()
            .map(|s| saturation_jobs(s, 1)[0].config_repr.clone())
            .collect();
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
    }
}
