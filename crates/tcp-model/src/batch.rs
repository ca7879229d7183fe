//! Batched model-plane evaluation: τ/µ sweeps as grids of independent
//! **model cells**.
//!
//! A planner heatmap or validation curve is a grid of cells, each fully
//! described by a small spec (paths, rates, tuning). This module names those
//! cells — [`LateCellSpec`] for one `f(τ)` point, [`MuCellSpec`] for one
//! max-µ bisection, [`FluidCellSpec`] for one Section 7.3 fluid
//! integration — each with a pure `run`. The model crate submits nothing:
//! callers wrap a cell in
//! `dmp_runner::JobSpec::keyed(label, cell, seed, LateCellSpec::run)`, whose
//! key is the cell's type and derived `Debug`, and the runner fans the grid
//! across threads while its cache makes re-renders free.

use dmp_core::spec::PathSpec;

use crate::dmp::{static_streaming_late_fraction, DmpModel, DmpSsa};
use crate::search::{evaluate_tau_with, max_mu, PlannerOptions};
use crate::{calibrate, fluid};

/// One `f(τ)` model point: the SSA late-fraction estimator at fixed paths,
/// µ and τ. This is the cell behind the Figure 4/5/8 curves.
#[derive(Debug, Clone)]
pub struct LateCellSpec {
    /// Per-path TCP parameters.
    pub paths: Vec<PathSpec>,
    /// Playback rate µ, packets per second.
    pub mu: f64,
    /// Startup delay τ, seconds.
    pub tau_s: f64,
    /// Consumption events simulated.
    pub consumptions: u64,
    /// RNG seed.
    pub seed: u64,
}

impl LateCellSpec {
    /// Evaluate the cell.
    pub fn run(&self) -> f64 {
        DmpModel::new(self.paths.clone(), self.mu, self.tau_s)
            .late_fraction(self.consumptions, self.seed)
            .f
    }
}

/// One point of the Section 7.3 fluid comparison: the late fraction of the
/// single on/off path, or of DMP over two paths at split `x`.
#[derive(Debug, Clone, Copy)]
pub struct FluidCellSpec {
    /// Playback rate µ, packets per second.
    pub mu: f64,
    /// On/off cycle length, seconds.
    pub period_s: f64,
    /// Startup delay τ, seconds.
    pub tau_s: f64,
    /// `None` for the single path; `Some((x, anti_aligned))` for DMP with
    /// on-rates `x` and `2µ − x`.
    pub split: Option<(f64, bool)>,
}

impl FluidCellSpec {
    /// Integrate the cell.
    pub fn run(&self) -> f64 {
        match self.split {
            None => fluid::single_path_late_fraction(self.mu, self.period_s, self.tau_s),
            Some((x, anti_aligned)) => {
                fluid::two_path_late_fraction(self.mu, x, self.period_s, self.tau_s, anti_aligned)
            }
        }
    }
}

/// Which streaming scheme a planner cell evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerScheme {
    /// Dynamic multipath streaming over all paths (the paper's DMP).
    Dmp,
    /// Static odd/even split across all paths (Section 7.4 baseline).
    Static,
    /// The first path alone carries the whole stream.
    SinglePath,
}

impl PlannerScheme {
    /// Short lowercase name for labels and artifact keys.
    pub fn name(self) -> &'static str {
        match self {
            PlannerScheme::Dmp => "dmp",
            PlannerScheme::Static => "static",
            PlannerScheme::SinglePath => "single",
        }
    }
}

/// One capacity-planner cell: the largest playback rate µ the given paths
/// sustain under `scheme` at startup delay τ, found by [`max_mu`] bisection
/// against the late-fraction threshold in `opts.search`.
#[derive(Debug, Clone)]
pub struct MuCellSpec {
    /// Per-path TCP parameters ([`PlannerScheme::SinglePath`] uses only the
    /// first).
    pub paths: Vec<PathSpec>,
    /// Startup delay τ, seconds.
    pub tau_s: f64,
    /// Streaming scheme under test.
    pub scheme: PlannerScheme,
    /// Bisection + evaluation tuning (threshold, budget, seed, resolution).
    pub opts: PlannerOptions,
}

impl MuCellSpec {
    /// The paths the scheme actually streams over.
    fn effective_paths(&self) -> &[PathSpec] {
        match self.scheme {
            PlannerScheme::SinglePath => &self.paths[..1],
            PlannerScheme::Dmp | PlannerScheme::Static => &self.paths,
        }
    }

    /// Aggregate chain-calibrated achievable throughput σ_a (pkt/s) of the
    /// effective paths — the bisection bracket's unit.
    pub fn sigma_a(&self) -> f64 {
        self.effective_paths()
            .iter()
            .map(calibrate::chain_throughput_pps)
            .sum()
    }

    /// Run the bisection; `None` when even the lower bracket is infeasible.
    pub fn run(&self) -> Option<f64> {
        let opts = self.opts;
        let sigma = self.sigma_a();
        match self.scheme {
            PlannerScheme::Dmp | PlannerScheme::SinglePath => {
                // One SSA workspace serves the whole bisection ladder
                // (reset, not reallocated, per evaluation).
                let paths = self.effective_paths().to_vec();
                let mut ws: Option<DmpSsa> = None;
                max_mu(
                    |mu| {
                        let model = DmpModel::new(paths.clone(), mu, self.tau_s);
                        let ssa = ws.get_or_insert_with(|| DmpSsa::new(&model, opts.search.seed));
                        evaluate_tau_with(ssa, &model, &opts.search).below
                    },
                    sigma,
                    &opts,
                )
            }
            PlannerScheme::Static => max_mu(
                |mu| {
                    static_streaming_late_fraction(
                        &self.paths,
                        mu,
                        self.tau_s,
                        opts.search.max_consumptions,
                        opts.search.seed,
                    )
                    .f < opts.search.threshold
                },
                sigma,
                &opts,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchOptions;

    fn paths() -> Vec<PathSpec> {
        vec![PathSpec::from_ms(0.02, 150.0, 4.0); 2]
    }

    #[test]
    fn planner_cells_rank_schemes_sanely() {
        // At a generous τ with two decent paths, every scheme finds *some*
        // capacity, DMP at least matches the static split, and both beat a
        // single path (they have twice its aggregate bandwidth).
        let opts = PlannerOptions {
            search: SearchOptions {
                threshold: 1e-2, // coarse: keep the test cheap
                block: 40_000,
                max_consumptions: 80_000,
                ..SearchOptions::default()
            },
            mu_rel_resolution: 2e-2,
        };
        let cell = |scheme| MuCellSpec {
            paths: paths(),
            tau_s: 10.0,
            scheme,
            opts,
        };
        let dmp = cell(PlannerScheme::Dmp).run().expect("dmp feasible");
        let stat = cell(PlannerScheme::Static).run().expect("static feasible");
        let single = cell(PlannerScheme::SinglePath)
            .run()
            .expect("single feasible");
        assert!(
            dmp >= 0.95 * stat,
            "dmp µmax {dmp} should not trail static {stat}"
        );
        assert!(dmp > single && stat > single, "{dmp}/{stat} vs {single}");
    }
}
