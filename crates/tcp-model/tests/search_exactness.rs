//! The early-stopping τ evaluation against the loop it replaced.
//!
//! `evaluate_tau_with` stops as soon as the late consumptions it has counted
//! make `f ≥ threshold` certain for every block the full budget could still
//! run. That is only sound if the bound is taken over the most consumptions
//! the loop can count — whole blocks of `20 · max(block / 20, 1)` each — and
//! not over `max_consumptions`: a block below 20, or a budget that is not a
//! whole number of blocks, counts more than `max_consumptions`, and a bound
//! computed from the smaller number stops on a late count that the full
//! run would still dilute below the threshold. The random cases below cover
//! both, and turn red under that mistake.
//!
//! The reference is the loop as it was before the early stop, verbatim:
//! blocks pooled until the CI decides or the budget is spent, the verdict the
//! CI's or else the point estimate's.

use dmp_core::spec::PathSpec;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use tcp_model::search::{evaluate_tau_with, MU_BRACKET};
use tcp_model::{
    pftk, static_streaming_late_fraction, DmpModel, DmpSsa, LateFracEstimate, MuCellSpec,
    PlannerOptions, PlannerScheme, SearchOptions, TauSearchSpec,
};

/// The seed an evaluation resets its SSA to.
fn tau_seed(opts: &SearchOptions, tau_s: f64) -> u64 {
    opts.seed ^ (tau_s * 1e3) as u64
}

/// The full-budget evaluation loop: `(estimate, below)`.
fn reference_eval(
    ssa: &mut DmpSsa,
    model: &DmpModel,
    opts: &SearchOptions,
) -> (LateFracEstimate, bool) {
    ssa.reset(model, tau_seed(opts, model.tau_s));
    let mut spent = 0u64;
    let mut est = ssa.run(opts.block);
    spent += opts.block;
    while est.decides(opts.threshold).is_none() && spent < opts.max_consumptions {
        let more = ssa.run(opts.block);
        est = LateFracEstimate {
            f: (est.late + more.late) as f64 / (est.consumptions + more.consumptions) as f64,
            ci95: est.ci95 * (spent as f64 / (spent + opts.block) as f64).sqrt(),
            consumptions: est.consumptions + more.consumptions,
            late: est.late + more.late,
        };
        spent += opts.block;
    }
    let below = est
        .decides(opts.threshold)
        .unwrap_or(est.f < opts.threshold);
    (est, below)
}

/// `required_startup_delay` over [`reference_eval`].
fn reference_search(spec: &TauSearchSpec) -> Option<f64> {
    let opts = &spec.opts;
    let mut ssa: Option<DmpSsa> = None;
    let mut below = |tau: f64| {
        let model = DmpModel::new(spec.paths.clone(), spec.mu, tau);
        let ssa = ssa.get_or_insert_with(|| DmpSsa::new(&model, 0));
        reference_eval(ssa, &model, opts).1
    };
    let (mut lo, mut hi) = (0.0f64, 2.0f64);
    loop {
        if hi > opts.tau_max_s {
            return None;
        }
        if below(hi) {
            break;
        }
        lo = hi;
        hi *= 2.0;
    }
    while hi - lo > opts.resolution_s {
        let mid = 0.5 * (lo + hi);
        if below(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// `MuCellSpec::run` as it was: a bisection comparing each full-budget
/// point estimate against the threshold.
fn reference_mu_cell(cell: &MuCellSpec) -> Option<f64> {
    let opts = &cell.opts;
    let paths = match cell.scheme {
        PlannerScheme::SinglePath => cell.paths[..1].to_vec(),
        PlannerScheme::Dmp | PlannerScheme::Static => cell.paths.clone(),
    };
    let mut ssa: Option<DmpSsa> = None;
    let mut f_of_mu = |mu: f64| match cell.scheme {
        PlannerScheme::Dmp | PlannerScheme::SinglePath => {
            let model = DmpModel::new(paths.clone(), mu, cell.tau_s);
            let ssa = ssa.get_or_insert_with(|| DmpSsa::new(&model, 0));
            reference_eval(ssa, &model, &opts.search).0.f
        }
        PlannerScheme::Static => {
            static_streaming_late_fraction(
                &paths,
                mu,
                cell.tau_s,
                opts.search.max_consumptions,
                opts.search.seed,
            )
            .f
        }
    };
    let sigma = cell.sigma_a();
    let (mut lo, mut hi) = (MU_BRACKET.0 * sigma, MU_BRACKET.1 * sigma);
    if f_of_mu(lo) >= opts.search.threshold {
        return None;
    }
    while hi - lo > opts.mu_rel_resolution * hi {
        let mid = 0.5 * (lo + hi);
        if f_of_mu(mid) < opts.search.threshold {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// `K` homogeneous paths at `σ_a/µ ≈ ratio` (PFTK-dialled).
fn paths(k: usize, loss: f64, to_ratio: f64, mu: f64, ratio: f64) -> Vec<PathSpec> {
    let rtt_s = pftk::rtt_for_ratio(loss, to_ratio, k, mu, ratio);
    vec![
        PathSpec {
            loss,
            rtt_s,
            to_ratio
        };
        k
    ]
}

/// One random evaluation: K ∈ {1, 2}, loss 0.005–0.06, σ_a/µ 0.8–2.2,
/// τ 0.5–40 s, block 1–60 000, one to six blocks of budget, half the budgets
/// a whole number of blocks, and a threshold in 1e-5–1e-2.
///
/// A verdict is only at stake when `f` lies near the threshold, and for a
/// random τ it almost never does: `f` is 0 or a starved stream's ≥ 1e-2.
/// So two cases in three aim: τ is bisected (geometrically, over the same
/// range) until the first block's estimate lands inside the threshold range,
/// and the threshold is then drawn within a factor √10 of it.
fn random_case(rng: &mut SmallRng) -> (DmpModel, SearchOptions) {
    let k = rng.gen_range(1..=2usize);
    let mu = rng.gen_range(10.0..60.0);
    let mut model = DmpModel::new(
        paths(
            k,
            rng.gen_range(0.005..0.06),
            rng.gen_range(2.0..4.0),
            mu,
            rng.gen_range(0.8..2.2),
        ),
        mu,
        rng.gen_range(0.5..40.0),
    );
    // Half the blocks log-uniform over the whole range, half large enough to
    // resolve an `f` near the threshold.
    let block = if rng.gen_bool(0.5) {
        10f64.powf(rng.gen_range(0.0..60_000f64.log10())).round() as u64
    } else {
        rng.gen_range(5_000..=60_000u64)
    };
    let blocks = rng.gen_range(1..=6u64);
    // A partial last block is drawn log-uniform too: the shorter it is, the
    // further the countable maximum lies above the budget.
    let max_consumptions = if rng.gen_bool(0.5) {
        blocks * block
    } else {
        (blocks - 1) * block + 10f64.powf(rng.gen_range(0.0..=(block as f64).log10())) as u64
    };
    let mut opts = SearchOptions {
        threshold: 10f64.powf(rng.gen_range(-5.0..-2.0)),
        block,
        max_consumptions,
        seed: rng.next_u64(),
        ..SearchOptions::default()
    };
    let factor = 10f64.powf(rng.gen_range(-0.5..0.5));
    if rng.gen_bool(2.0 / 3.0) {
        let (mut lo, mut hi) = (0.5f64, 40.0f64);
        for _ in 0..10 {
            let f = DmpSsa::new(&model, tau_seed(&opts, model.tau_s))
                .run(block)
                .f;
            if f > 1e-2 / 10f64.sqrt() {
                lo = model.tau_s;
            } else if f < 1e-5 * 10f64.sqrt() {
                hi = model.tau_s;
            } else {
                opts.threshold = f * factor;
                break;
            }
            model.tau_s = (lo * hi).sqrt();
        }
    }
    (model, opts)
}

#[test]
fn every_verdict_matches_the_full_budget_loop() {
    let mut rng = SmallRng::seed_from_u64(0xea51_7e57);
    let (mut stopped, mut below, mut small_blocks) = (0, 0, 0);
    let mut wrong = Vec::new();
    for case in 0..300 {
        let (model, opts) = random_case(&mut rng);
        let mut ssa = DmpSsa::new(&model, 0);
        let got = evaluate_tau_with(&mut ssa, &model, &opts);
        let (full, want) = reference_eval(&mut ssa, &model, &opts);
        let early = got.estimate.consumptions < full.consumptions;
        // A verdict that differs, an early stop that does not carry
        // `f ≥ threshold` or counts late events the full run did not, or a
        // run to the end that is not the full run's estimate, bit for bit.
        let ok = got.below == want
            && got.estimate.consumptions <= full.consumptions
            && if early {
                got.estimate.f >= opts.threshold && got.estimate.late <= full.late
            } else {
                got.estimate.late == full.late
                    && got.estimate.f.to_bits() == full.f.to_bits()
                    && got.estimate.ci95.to_bits() == full.ci95.to_bits()
            };
        if !ok {
            wrong.push(format!(
                "case {case}: {opts:?}, K = {}, µ = {}, τ = {}: got {} {:?}, full loop {want} {full:?}",
                model.paths.len(),
                model.mu,
                model.tau_s,
                got.below,
                got.estimate,
            ));
        }
        stopped += usize::from(early);
        below += usize::from(want);
        small_blocks += usize::from(opts.block < 20);
    }
    assert!(
        wrong.is_empty(),
        "{} of 300 cases:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
    // The draw exercises both verdicts, the early stop and sub-batch blocks.
    assert!(stopped >= 50, "{stopped} early stops");
    assert!(below >= 30, "{below} cases below the threshold");
    assert!(small_blocks >= 30, "{small_blocks} blocks under 20");
}

#[test]
fn searches_and_planner_cells_match_the_full_budget_loop() {
    // Small budgets, one of them not a whole number of blocks.
    let budgets = [(20_000, 80_000), (15_000, 50_000)];
    for (i, &(block, max_consumptions)) in budgets.iter().enumerate() {
        let search = SearchOptions {
            threshold: 1e-3,
            block,
            max_consumptions,
            resolution_s: 1.0,
            tau_max_s: 40.0,
            seed: 0x5eed + i as u64,
        };
        for (k, ratio) in [(1, 2.0), (2, 1.4), (2, 2.0)] {
            let spec = TauSearchSpec {
                paths: paths(k, 0.02, 4.0, 25.0, ratio),
                mu: 25.0,
                opts: search,
            };
            assert_eq!(spec.run(), reference_search(&spec), "{spec:?}");
        }
        let opts = PlannerOptions {
            search,
            mu_rel_resolution: 2e-2,
        };
        for scheme in [
            PlannerScheme::Dmp,
            PlannerScheme::SinglePath,
            PlannerScheme::Static,
        ] {
            for tau_s in [2.0, 6.0] {
                let cell = MuCellSpec {
                    paths: vec![
                        PathSpec::from_ms(0.02, 150.0, 4.0),
                        PathSpec::from_ms(0.04, 120.0, 4.0),
                    ],
                    tau_s,
                    scheme,
                    opts,
                };
                assert_eq!(cell.run(), reference_mu_cell(&cell), "{cell:?}");
            }
        }
    }
}
