//! Required-startup-delay search: the smallest τ such that the fraction of
//! late packets drops below a threshold (the paper uses `f < 10⁻⁴`), used by
//! Figures 9, 10, and 11.
//!
//! `f(τ)` is monotonically non-increasing in τ (a larger buffer cap only
//! helps), so a bracketing + bisection search applies. Each point is
//! evaluated adaptively: simulation effort grows until the confidence
//! interval decides the comparison against the threshold, the late count
//! alone settles it, or a budget is exhausted.

use crate::dmp::{DmpModel, DmpSsa, LateFracEstimate, BATCHES};
use dmp_core::spec::PathSpec;

/// Tuning of the search.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Decision threshold on the late fraction (paper: 1e-4).
    pub threshold: f64,
    /// τ resolution, seconds (bisection stops at this width).
    pub resolution_s: f64,
    /// Largest τ considered before declaring failure, seconds.
    pub tau_max_s: f64,
    /// Consumption events per evaluation block (positive).
    pub block: u64,
    /// Budget per τ evaluation, spent in whole blocks: the evaluation runs
    /// at most `⌈max_consumptions / block⌉` blocks (at least one), each
    /// counting `20 · max(block / 20, 1)` consumptions after its warm-up.
    pub max_consumptions: u64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            threshold: 1e-4,
            resolution_s: 0.5,
            tau_max_s: 120.0,
            block: 200_000,
            max_consumptions: 2_000_000,
            seed: 0x5eed,
        }
    }
}

/// The capacity planner's µ bisection bracket `(lo, hi)`, in multiples of
/// the aggregate achievable throughput σ_a ([`max_mu`]: why `lo` is not 0).
pub const MU_BRACKET: (f64, f64) = (0.2, 1.5);
const _: () = assert!(MU_BRACKET.0 > 0.0 && MU_BRACKET.1 > MU_BRACKET.0);

/// Tuning of the capacity planner's max-µ bisection, layered on the same
/// decision machinery as the τ searches: [`PlannerOptions::search`] supplies
/// the late-fraction threshold, SSA budget and base seed, and the planner
/// adds the stopping resolution the `capacity_planner` target bisects
/// [`MU_BRACKET`] with.
#[derive(Debug, Clone, Copy)]
pub struct PlannerOptions {
    /// Shared evaluation tuning (threshold, block/budget, seed).
    pub search: SearchOptions,
    /// Stop the µ bisection when the bracket width falls below this fraction
    /// of the upper end (relative resolution; 5e-3 ≈ 9 bisection steps).
    pub mu_rel_resolution: f64,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        Self {
            search: SearchOptions::default(),
            mu_rel_resolution: 5e-3,
        }
    }
}

/// Largest µ (pkt/s) whose late fraction stays below
/// `opts.search.threshold` at a fixed τ, found by bisection over
/// `[MU_BRACKET.0 · σ_a, MU_BRACKET.1 · σ_a]`. Returns `None` when even the
/// lower bracket fails (the path cannot support the scheme at this τ).
///
/// `feasible(µ)` is the verdict "the late fraction at µ is below the
/// threshold", not the fraction itself: an evaluation that stops as soon as
/// its verdict is certain ([`evaluate_tau_with`]) returns a partial
/// estimate, which must not be compared as a number. DMP and single-path
/// cells pass [`TauEval::below`].
///
/// # The lower bracket is not zero on purpose
///
/// `f(µ)` is **not monotone near µ = 0**: the live-streaming buffer cap is
/// `N_max = ⌈µτ⌉`, so a very small µ also means a one- or two-packet client
/// buffer, and the late fraction *rises* again as µ → 0 even on an idle
/// path. Bisection is only sound on the monotone branch, which is why
/// `MU_BRACKET.0` starts the search at a fifth of the aggregate
/// achievable throughput — large enough that the buffer is
/// meaningful, small enough that any feasible operating point lies above
/// it. If `f(lo)` is already at or above the threshold the function reports
/// `None` rather than bisecting on a non-monotone bracket.
pub fn max_mu(
    mut feasible: impl FnMut(f64) -> bool,
    sigma_a: f64,
    opts: &PlannerOptions,
) -> Option<f64> {
    assert!(sigma_a > 0.0);
    assert!(
        opts.mu_rel_resolution > 0.0,
        "PlannerOptions::mu_rel_resolution must be positive, got {}",
        opts.mu_rel_resolution
    );
    let (mut lo, mut hi) = (MU_BRACKET.0 * sigma_a, MU_BRACKET.1 * sigma_a);
    if !feasible(lo) {
        return None;
    }
    while hi - lo > opts.mu_rel_resolution * hi {
        let mid = 0.5 * (lo + hi);
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Result of one τ evaluation.
#[derive(Debug, Clone, Copy)]
pub struct TauEval {
    /// Startup delay evaluated.
    pub tau_s: f64,
    /// The estimate at the moment the verdict became certain: pooled over
    /// every consumption counted, which is fewer than the budget when the
    /// late count settled the verdict early (then `f ≥ threshold`).
    pub estimate: LateFracEstimate,
    /// Whether the point is below the threshold: `estimate.f < threshold`,
    /// which is the CI's verdict where the CI decides and the point
    /// estimate's where it does not.
    pub below: bool,
}

/// The per-τ seed: ties the trajectory to the evaluated τ so neighboring
/// grid points are statistically independent.
fn tau_seed(opts: &SearchOptions, tau_s: f64) -> u64 {
    opts.seed ^ (tau_s * 1e3) as u64
}

/// Evaluate `f(τ)` adaptively for `model`.
pub fn evaluate_tau(model: &DmpModel, opts: &SearchOptions) -> TauEval {
    let mut ssa = DmpSsa::new(model, tau_seed(opts, model.tau_s));
    evaluate_tau_with(&mut ssa, model, opts)
}

/// The late count that settles an evaluation as "not below": the smallest
/// `L` with `L / C_max ≥ threshold` in `f64`, where `C_max` is the most
/// consumptions [`evaluate_tau_with`] can count — `⌈max_consumptions /
/// block⌉` blocks (at least one) of `BATCHES · max(block / BATCHES, 1)`
/// each, which exceeds `max_consumptions` when `block` does not divide it
/// or is below `BATCHES`. Late counts only grow and the count of
/// consumptions never passes `C_max`, so once `L` are late the final
/// `f = late / counted` is at least `threshold` whatever the remaining
/// blocks draw. Above `C_max` (a threshold over 1) nothing settles early.
fn certain_late_count(opts: &SearchOptions) -> u64 {
    let blocks = opts.max_consumptions.div_ceil(opts.block).max(1);
    let c_max = blocks.saturating_mul(BATCHES * (opts.block / BATCHES).max(1));
    let c = c_max as f64;
    // `ceil(threshold · C_max)` up to rounding; settle the last ulp on the
    // quotient the evaluation's `f` is computed as.
    let mut l = (opts.threshold * c).ceil().clamp(0.0, c) as u64;
    while l > 0 && (l - 1) as f64 / c >= opts.threshold {
        l -= 1;
    }
    while l <= c_max && (l as f64 / c) < opts.threshold {
        l += 1;
    }
    l
}

/// [`evaluate_tau`] on a reusable workspace: the SSA is reset (not
/// reallocated) to the model's initial state, so a bisection can evaluate
/// its whole τ ladder on one allocation. Identical results to
/// [`evaluate_tau`] by [`DmpSsa::reset`]'s fresh-build equivalence.
///
/// Blocks of `opts.block` consumptions are pooled until the CI decides the
/// comparison or the budget is spent — or until the smallest late count `L`
/// with `L / C_max ≥ threshold` has been counted, `C_max` being the most
/// consumptions those blocks can count, checked after each of a block's
/// batches: then no later block can bring `f` under the threshold, so the
/// evaluation stops with `below = false`. `below` is the one the full
/// budget would give, from a fraction of the consumptions when `f(τ)` is
/// well above the threshold (most probes of a bisection).
pub fn evaluate_tau_with(ssa: &mut DmpSsa, model: &DmpModel, opts: &SearchOptions) -> TauEval {
    assert!(
        opts.block > 0,
        "SearchOptions::block must be positive, got 0"
    );
    ssa.reset(model, tau_seed(opts, model.tau_s));
    let settled = certain_late_count(opts);
    let mut est = ssa.run_capped(opts.block, settled);
    let mut spent = opts.block;
    while est.late < settled
        && est.decides(opts.threshold).is_none()
        && spent < opts.max_consumptions
    {
        // Keep the same trajectory going: pool the counts.
        let more = ssa.run_capped(opts.block, settled - est.late);
        est = LateFracEstimate {
            f: (est.late + more.late) as f64 / (est.consumptions + more.consumptions) as f64,
            ci95: est.ci95 * (spent as f64 / (spent + opts.block) as f64).sqrt(),
            consumptions: est.consumptions + more.consumptions,
            late: est.late + more.late,
        };
        spent += opts.block;
    }
    TauEval {
        tau_s: model.tau_s,
        estimate: est,
        below: est.f < opts.threshold,
    }
}

/// Find the smallest τ (to `resolution_s`) with `f(τ) < threshold`, for a
/// family of models parameterised by τ. Returns `None` if even `tau_max_s`
/// fails. Every evaluation reuses one SSA workspace (zero allocation per
/// bisection step beyond the first).
pub fn required_startup_delay(
    mut model_at: impl FnMut(f64) -> DmpModel,
    opts: &SearchOptions,
) -> Option<f64> {
    assert!(
        opts.resolution_s > 0.0,
        "SearchOptions::resolution_s must be positive, got {}",
        opts.resolution_s
    );
    let mut ws: Option<DmpSsa> = None;
    let mut eval = |tau: f64, ws: &mut Option<DmpSsa>| -> TauEval {
        let model = model_at(tau);
        let ssa = ws.get_or_insert_with(|| DmpSsa::new(&model, tau_seed(opts, model.tau_s)));
        evaluate_tau_with(ssa, &model, opts)
    };
    // Bracket: grow τ geometrically until below the threshold.
    let mut lo = 0.0f64; // known ≥ threshold (τ=0 ⇒ everything late)
    let mut hi = 2.0f64;
    loop {
        if hi > opts.tau_max_s {
            return None;
        }
        if eval(hi, &mut ws).below {
            break;
        }
        lo = hi;
        hi *= 2.0;
    }
    // Bisect.
    while hi - lo > opts.resolution_s {
        let mid = 0.5 * (lo + hi);
        if eval(mid, &mut ws).below {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// A self-contained, cacheable description of one required-startup-delay
/// search: the path parameters, the video rate, and the search tuning. Where
/// [`required_startup_delay`] takes an arbitrary closure, this fixes the
/// model family to `DmpModel::new(paths, mu, τ)` — which covers every search
/// in the reproduction — so the whole computation can be content-addressed.
#[derive(Debug, Clone)]
pub struct TauSearchSpec {
    /// Per-path TCP parameters.
    pub paths: Vec<PathSpec>,
    /// Video consumption rate µ, packets per second.
    pub mu: f64,
    /// Search tuning (threshold, resolution, budget, seed).
    pub opts: SearchOptions,
}

impl TauSearchSpec {
    /// Execute the search.
    pub fn run(&self) -> Option<f64> {
        let paths = self.paths.clone();
        let mu = self.mu;
        required_startup_delay(move |tau| DmpModel::new(paths.clone(), mu, tau), &self.opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pftk;
    use dmp_core::spec::PathSpec;

    fn model_family(ratio: f64, mu: f64) -> impl FnMut(f64) -> DmpModel {
        let rtt = pftk::rtt_for_ratio(0.02, 4.0, 2, mu, ratio);
        move |tau| {
            DmpModel::new(
                vec![
                    PathSpec {
                        loss: 0.02,
                        rtt_s: rtt,
                        to_ratio: 4.0
                    };
                    2
                ],
                mu,
                tau,
            )
        }
    }

    fn quick_opts() -> SearchOptions {
        SearchOptions {
            threshold: 1e-3, // coarser threshold keeps the test fast
            block: 60_000,
            max_consumptions: 240_000,
            resolution_s: 1.0,
            ..SearchOptions::default()
        }
    }

    #[test]
    fn finds_a_reasonable_delay_at_healthy_ratio() {
        let tau = required_startup_delay(model_family(1.8, 25.0), &quick_opts());
        let tau = tau.expect("ratio 1.8 must be satisfiable");
        assert!((1.0..30.0).contains(&tau), "τ = {tau}");
    }

    #[test]
    fn higher_ratio_needs_smaller_delay() {
        let t_low = required_startup_delay(model_family(1.4, 25.0), &quick_opts());
        let t_high = required_startup_delay(model_family(2.0, 25.0), &quick_opts());
        let (t_low, t_high) = (t_low.expect("1.4 ok"), t_high.expect("2.0 ok"));
        assert!(
            t_high <= t_low,
            "τ(σa/µ=2.0) = {t_high} should not exceed τ(σa/µ=1.4) = {t_low}"
        );
    }

    #[test]
    fn tau_search_spec_matches_closure_search() {
        let opts = quick_opts();
        let rtt = pftk::rtt_for_ratio(0.02, 4.0, 2, 25.0, 1.8);
        let spec = TauSearchSpec {
            paths: vec![
                PathSpec {
                    loss: 0.02,
                    rtt_s: rtt,
                    to_ratio: 4.0
                };
                2
            ],
            mu: 25.0,
            opts,
        };
        assert_eq!(
            spec.run(),
            required_startup_delay(model_family(1.8, 25.0), &opts)
        );
    }

    #[test]
    fn max_mu_bisects_to_the_threshold_crossing() {
        let opts = PlannerOptions::default();
        // Synthetic step: feasible below 10 pkt/s, infeasible above.
        let m = max_mu(|mu| mu < 10.0, 10.0, &opts).expect("lower bracket is feasible");
        assert!((9.9..10.0).contains(&m), "µmax = {m}");
        // Infeasible already at the lower bracket → None; bisecting below it
        // would walk onto the non-monotone small-µ branch.
        assert_eq!(max_mu(|_| false, 10.0, &opts), None);
    }

    // Options a search could never finish with are refused up front, naming
    // the field: a zero block never spends its budget, a non-positive (or
    // NaN) resolution bisects down to adjacent floats forever.

    #[test]
    #[should_panic(expected = "SearchOptions::block")]
    fn a_zero_block_is_refused() {
        let opts = SearchOptions {
            block: 0,
            ..quick_opts()
        };
        evaluate_tau(&model_family(1.8, 25.0)(4.0), &opts);
    }

    #[test]
    #[should_panic(expected = "SearchOptions::resolution_s")]
    fn a_non_positive_tau_resolution_is_refused() {
        let opts = SearchOptions {
            resolution_s: 0.0,
            ..quick_opts()
        };
        required_startup_delay(model_family(1.8, 25.0), &opts);
    }

    #[test]
    #[should_panic(expected = "PlannerOptions::mu_rel_resolution")]
    fn a_nan_mu_resolution_is_refused() {
        let opts = PlannerOptions {
            mu_rel_resolution: f64::NAN,
            ..PlannerOptions::default()
        };
        max_mu(|mu| mu < 10.0, 10.0, &opts);
    }

    #[test]
    fn the_settling_late_count_is_the_least_that_reaches_the_threshold() {
        for (threshold, block, max_consumptions, c_max) in [
            // Default options: ten full blocks.
            (1e-4, 200_000, 2_000_000, 2_000_000u64),
            // A budget that is not a whole number of blocks runs the last
            // block whole.
            (1e-4, 200_000, 2_100_000, 2_200_000),
            // A block below the batch count still counts one per batch.
            (1e-2, 7, 70, 200),
            // A block that the batch count does not divide.
            (3e-3, 1_010, 2_000, 2_000),
        ] {
            let opts = SearchOptions {
                threshold,
                block,
                max_consumptions,
                ..SearchOptions::default()
            };
            let l = certain_late_count(&opts);
            let c = c_max as f64;
            assert!(l as f64 / c >= threshold, "{opts:?}: {l}");
            assert!(((l - 1) as f64 / c) < threshold, "{opts:?}: {l}");
        }
        // Nothing is certain above the countable maximum.
        let never = SearchOptions {
            threshold: 2.0,
            ..SearchOptions::default()
        };
        assert_eq!(certain_late_count(&never), 2_000_001);
    }

    #[test]
    fn infeasible_ratio_returns_none() {
        // σa/µ < 1 can never reach a small late fraction.
        let mut opts = quick_opts();
        opts.tau_max_s = 20.0;
        let tau = required_startup_delay(model_family(0.8, 25.0), &opts);
        assert!(tau.is_none());
    }
}
