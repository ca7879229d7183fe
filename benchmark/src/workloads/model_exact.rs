//! `model_exact`: the CSR/Anderson stationary solver on a warm-started τ
//! sweep. No production target calls it, so nothing else would notice it
//! regress.

use std::time::Instant;

use dmp_core::spec::PathSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tcp_model::{exact_tau_sweep, ExactDmp, SolveOptions, TcpChain};

use super::{Checks, Digest, LayerValues, Outcome, Traced, Workload};
use crate::span::Tracer;

const WMAX: u32 = 4;
/// Deficit floor of the buffer chain.
const FLOOR: i64 = -40;
/// Buffer caps `N_max = ⌈µτ⌉` of the τ grid; the first solve is cold, the
/// rest warm. The grid is laid out in caps, not in seconds, because the cap
/// sets the state space: on a grid of fixed τ (0.5, 0.6, … s, µ ≈ 10) one
/// seed in ten calibrated a µ that tipped a cap over, and its sweep cost 19 %
/// fewer solver iterations than the others'.
const CAPS: std::ops::RangeInclusive<u32> = 5..=8;
/// µ as a share of the chain's achievable throughput: marginal but
/// feasible, so the late fraction is neither 0 nor 1.
const LOAD: f64 = 0.8;

/// Lossy 200 ms path, small window: exact-solver territory.
fn path() -> PathSpec {
    PathSpec::from_ms(0.06, 200.0, 2.0)
}

struct ModelExact {
    mu: f64,
    taus: Vec<f64>,
}

pub fn setup(seed: u64) -> Box<dyn Workload> {
    // The calibration run draws from the seed, so µ differs a little from
    // seed to seed; τ = (N_max − ½) / µ (≈ 0.45 … 0.75 s) keeps the caps.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mu = LOAD * TcpChain::achievable_throughput(path(), WMAX, 300_000, &mut rng);
    Box::new(ModelExact {
        mu,
        taus: CAPS.map(|cap| (f64::from(cap) - 0.5) / mu).collect(),
    })
}

impl Workload for ModelExact {
    fn iterate(&mut self, t: &mut Tracer) -> Outcome {
        let mut checks = Checks::default();
        let mut digest = Digest::default();
        let opts = SolveOptions::default();
        let sweep = t.span("tcp-model.exact_tau_sweep", || {
            exact_tau_sweep(path(), WMAX, self.mu, &self.taus, FLOOR, opts)
        });
        checks.check(sweep.is_ok(), || {
            format!("sweep failed: {:?}", sweep.as_ref().err())
        });
        let cells = sweep.unwrap_or_default();
        for (cell, tau) in cells.iter().zip(&self.taus) {
            checks.check(cell.f > 0.0 && cell.f < 1.0, || {
                format!("tau {tau}: late fraction {}", cell.f)
            });
            checks.check(cell.floor_mass < cell.f, || {
                format!("tau {tau}: floor mass {} >= f {}", cell.floor_mass, cell.f)
            });
            digest
                .f64(cell.f)
                .u64(cell.states as u64)
                .u64(u64::from(cell.iterations));
        }
        let cold = cells.first().map_or(0, |c| c.iterations);
        let warm: u32 = cells.iter().skip(1).map(|c| c.iterations).sum();
        let warm_solves = cells.len().saturating_sub(1).max(1) as f64;
        checks.check(f64::from(warm) < warm_solves * f64::from(cold), || {
            format!("warm solves took {warm} iterations, the cold one {cold}")
        });
        Outcome {
            digest: digest.finish(),
            work: cells.len() as f64,
            checks,
            counts: LayerValues::from([
                (
                    "tcp-model.solver.states",
                    cells.iter().map(|c| c.states).max().unwrap_or(0) as f64,
                ),
                ("tcp-model.solver.cold_iterations", f64::from(cold)),
                ("tcp-model.solver.warm_iterations", f64::from(warm)),
                (
                    "tcp-model.solver.warm_iteration_ratio",
                    f64::from(warm) / warm_solves / f64::from(cold),
                ),
            ]),
            seconds: LayerValues::new(),
        }
    }

    fn layer_metrics(&mut self, _traced: &Traced<'_>, out: &mut LayerValues) {
        // The sweep is one public call; its phases show only when made by
        // hand: enumerate into CSR, then solve, once cold.
        let opts = SolveOptions::default();
        let model = ExactDmp::new(path(), WMAX, self.mu, self.taus[0], FLOOR);
        let t0 = Instant::now();
        let csr = model.csr(&opts).expect("the sweep enumerated this model");
        out.insert("tcp-model.solver.enumerate_s", t0.elapsed().as_secs_f64());
        out.insert("tcp-model.solver.nnz", csr.nnz() as f64);
        let t0 = Instant::now();
        let sol = csr.solve_accelerated(&opts, None);
        let solve_s = t0.elapsed().as_secs_f64();
        out.insert(
            "tcp-model.solver.row_updates_per_s",
            csr.len() as f64 * f64::from(sol.iterations) / solve_s,
        );
    }
}
