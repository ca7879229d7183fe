//! Self-consistent calibration of the `σ_a/µ` knob.
//!
//! The paper defines `σ_k` as the throughput of a **backlogged** source on
//! path `k` — i.e., the achievable throughput *of the model's own TCP
//! chain*, not of a formula. The PFTK formula ([`crate::pftk`]) tracks the
//! chain within ~±30%, which is fine for comparisons but would silently
//! shift the knob: dialling "σ_a/µ = 1.2" through PFTK can land below 1.0 in
//! chain terms and make the stream diverge.
//!
//! This module measures the chain's per-round achievable throughput
//! `σR(p, T_O)` at the models' window cap once per parameter pair (cached,
//! deterministic seed) and derives the RTT or playback rate that hits a
//! requested ratio exactly the way [`crate::pftk::rtt_for_ratio`] does — but
//! in the model's own units.

use std::collections::HashMap;
use std::sync::Mutex;

use dmp_core::spec::PathSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::chain::TcpChain;
use crate::dmp::DmpModel;

/// Stage transitions simulated per calibration measurement — four per
/// round, so 375 000 rounds. Against the chain's exact σR
/// (`tests/exact_sigma.rs`) the estimate is off by 0.03–0.34 % on the four
/// points measured there (p 0.005–0.06, `wmax` 4 and 64).
pub const CALIBRATION_TRANSITIONS: u64 = 1_500_000;

/// The seed every calibration measurement starts from.
pub const CALIBRATION_SEED: u64 = 0xca11b8a7e;

/// Cache key: bit patterns of (loss, T_O).
type CalKey = (u64, u64);

fn cache() -> &'static Mutex<HashMap<CalKey, f64>> {
    static CACHE: std::sync::OnceLock<Mutex<HashMap<CalKey, f64>>> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The chain's backlogged per-round throughput `σR = σ·R` in packets per
/// round trip, for loss `p` and timeout ratio `T_O` (RTT-invariant, like the
/// PFTK per-round value). Measured once and cached.
pub fn chain_per_round_throughput(loss: f64, to_ratio: f64) -> f64 {
    let key = (loss.to_bits(), to_ratio.to_bits());
    if let Some(&v) = cache().lock().expect("calibration cache").get(&key) {
        return v;
    }
    let spec = PathSpec::from_ms(loss, 1e3, to_ratio); // R = 1 s
    let wmax = DmpModel::DEFAULT_WMAX;
    let mut rng = SmallRng::seed_from_u64(CALIBRATION_SEED);
    let sigma_r = TcpChain::achievable_throughput(spec, wmax, CALIBRATION_TRANSITIONS, &mut rng);
    cache()
        .lock()
        .expect("calibration cache")
        .insert(key, sigma_r);
    sigma_r
}

/// Chain-calibrated achievable throughput in packets per second.
pub fn chain_throughput_pps(path: &PathSpec) -> f64 {
    chain_per_round_throughput(path.loss, path.to_ratio) / path.rtt_s
}

/// The RTT making `K` homogeneous chain-paths hit `σ_a/µ = ratio`
/// (chain-calibrated analogue of [`crate::pftk::rtt_for_ratio`]).
pub fn rtt_for_ratio(loss: f64, to_ratio: f64, k: usize, mu: f64, ratio: f64) -> f64 {
    assert!(ratio > 0.0 && mu > 0.0);
    k as f64 * chain_per_round_throughput(loss, to_ratio) / (ratio * mu)
}

/// The playback rate µ making `K` homogeneous chain-paths hit
/// `σ_a/µ = ratio` at a fixed RTT.
pub fn mu_for_ratio(loss: f64, rtt_s: f64, to_ratio: f64, k: usize, ratio: f64) -> f64 {
    let sigma = chain_per_round_throughput(loss, to_ratio) / rtt_s;
    k as f64 * sigma / ratio
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_cached_and_deterministic() {
        let a = chain_per_round_throughput(0.02, 4.0);
        let b = chain_per_round_throughput(0.02, 4.0);
        assert_eq!(a, b);
        assert!(a > 1.0 && a < 20.0, "σR = {a}");
    }

    #[test]
    fn calibrated_ratio_is_self_consistent() {
        // Dial σa/µ = 1.3 through the calibration, then verify that the
        // chain really delivers ≈1.3µ when backlogged.
        let (p, to, mu) = (0.02, 4.0, 25.0);
        let rtt = rtt_for_ratio(p, to, 2, mu, 1.3);
        let sigma = chain_throughput_pps(&PathSpec {
            loss: p,
            rtt_s: rtt,
            to_ratio: to,
        });
        let achieved = 2.0 * sigma / mu;
        assert!((achieved - 1.3).abs() < 0.02, "achieved ratio {achieved}");
    }

    #[test]
    fn ratio_just_above_one_converges() {
        // The acid test the PFTK-dialled knob failed: at a true σa/µ = 1.2
        // the buffer drains slower than it fills *on average*, so with a
        // large τ the late fraction must drop well below 1.
        let (p, to, mu) = (0.02, 4.0, 25.0);
        let rtt = rtt_for_ratio(p, to, 2, mu, 1.2);
        let paths = vec![
            PathSpec {
                loss: p,
                rtt_s: rtt,
                to_ratio: to
            };
            2
        ];
        let f = DmpModel::new(paths, mu, 30.0).late_fraction(300_000, 9).f;
        assert!(f < 0.2, "f = {f} at σa/µ = 1.2, τ = 30 s");
    }

    #[test]
    fn mu_and_rtt_forms_agree() {
        let mu = 50.0;
        let rtt = rtt_for_ratio(0.02, 4.0, 2, mu, 1.6);
        let mu_back = mu_for_ratio(0.02, rtt, 4.0, 2, 1.6);
        assert!((mu_back - mu).abs() < 1e-9);
    }
}
