//! Exact solution of reduced DMP models.
//!
//! The full joint model is solved by stochastic simulation ([`crate::dmp`]);
//! this module packages the exact path for **single-flow, small-window**
//! instances: it enumerates the joint chain `(X, N)` — the TCP chain state
//! plus the buffer level with the live-streaming cap `N_max = µτ` and a deep
//! deficit floor — builds the generator, and solves for the stationary law.
//!
//! Use it to validate solver changes (`tests/model_exact_vs_ssa.rs` pins the
//! SSA against it) and to get noise-free late fractions for small
//! configurations.
//!
//! A state's generator row is a consumption (rate µ, unless at the floor)
//! followed by the chain's outcomes in [`TcpChain::for_each_outcome`] order,
//! each at `rate_at(x) · prob`, pushed straight into the enumeration's
//! buffer: enumerating builds no `Vec` per state and clones no chain.

use dmp_core::spec::PathSpec;

use crate::chain::{TcpChain, TcpChainState};
use crate::solver::{solve_stationary, CsrCtmc, Ctmc, Mixer, SolveError, SolveOptions, Stationary};

/// A single-flow DMP model with an enumerable state space.
pub struct ExactDmp {
    proto: TcpChain,
    /// Playback rate µ, packets per second.
    pub mu: f64,
    /// Buffer cap `N_max = ⌈µτ⌉`.
    pub nmax: i64,
    /// Deficit floor (states below are truncated; make it deep enough that
    /// its stationary mass is negligible — the solution reports it).
    pub floor: i64,
}

impl ExactDmp {
    /// Build the model for one path with window cap `wmax` (keep it ≤ ~8:
    /// the state space grows as `O(wmax² · (nmax - floor))`).
    ///
    /// # Panics
    /// Panics unless µ and τ are positive and finite (an infinite one makes
    /// `N_max` `i64::MAX`, and the BFS would walk 2 M states before giving
    /// up) and the floor is negative.
    pub fn new(path: PathSpec, wmax: u32, mu: f64, tau_s: f64, floor: i64) -> Self {
        assert!(
            mu > 0.0 && mu < f64::INFINITY,
            "playback rate µ must be positive and finite, got {mu}"
        );
        assert!(
            tau_s > 0.0 && tau_s < f64::INFINITY,
            "startup delay τ must be positive and finite, got {tau_s}"
        );
        assert!(floor < 0, "deficit floor must be negative, got {floor}");
        Self {
            proto: TcpChain::new(path, wmax),
            mu,
            nmax: (mu * tau_s).ceil() as i64,
            floor,
        }
    }

    /// Solve for the stationary distribution.
    ///
    /// # Panics
    /// Panics on state-space overflow, like [`ExactDmp::late_fraction`].
    pub fn solve(&self, opts: SolveOptions) -> Stationary<(TcpChainState, i64)> {
        solve_stationary(self, opts)
    }

    /// Enumerate this instance into CSR form for repeated / warm-started
    /// solving; errors (instead of panicking) when the state space outgrows
    /// `opts.max_states`.
    pub fn csr(&self, opts: &SolveOptions) -> Result<CsrCtmc<(TcpChainState, i64)>, SolveError> {
        CsrCtmc::enumerate(self, opts)
    }

    /// The exact fraction of late packets: consumptions occur at constant
    /// rate µ, so they see the stationary law; a consumption is late iff it
    /// finds `N ≤ 0`.
    ///
    /// # Panics
    /// Panics on state-space overflow; [`ExactDmp::csr`] returns it as a
    /// typed [`SolveError`] instead.
    pub fn late_fraction(&self, opts: SolveOptions) -> ExactLateFraction {
        let csr = self.csr(&opts).unwrap_or_else(|e| panic!("{e}"));
        self.summarise(&csr.solve_accelerated(&opts, None))
    }

    /// Reduce a stationary solution of this instance to its late-fraction
    /// summary.
    pub fn summarise(&self, sol: &Stationary<(TcpChainState, i64)>) -> ExactLateFraction {
        ExactLateFraction {
            f: sol.prob_where(|&(_, n)| n <= 0),
            floor_mass: sol.prob_where(|&(_, n)| n == self.floor),
            states: sol.states().len(),
            iterations: sol.iterations,
        }
    }
}

/// Solve a τ-grid of [`ExactDmp`] instances with warm-started
/// [`CsrCtmc::solve_accelerated`] solves: each grid point seeds from its left
/// neighbor's stationary distribution (state keys carry the probability over
/// even though `N_max = ⌈µτ⌉` changes the state space) and skips the sweeps
/// a cold solve spends walking in from uniform; the whole grid shares one set
/// of mixing buffers. `tests/solver_csr.rs` holds exactly this sweep to the
/// reference solver.
pub fn exact_tau_sweep(
    path: PathSpec,
    wmax: u32,
    mu: f64,
    taus: &[f64],
    floor: i64,
    opts: SolveOptions,
) -> Result<Vec<ExactLateFraction>, SolveError> {
    let mut out = Vec::with_capacity(taus.len());
    let mut prev: Option<Stationary<(TcpChainState, i64)>> = None;
    let mut mixer = Mixer::default();
    for &tau in taus {
        let model = ExactDmp::new(path, wmax, mu, tau, floor);
        let sol = model.csr(&opts)?.solve_in(&opts, prev.as_ref(), &mut mixer);
        out.push(model.summarise(&sol));
        prev = Some(sol);
    }
    Ok(out)
}

/// Result of an exact late-fraction computation.
#[derive(Debug, Clone, Copy)]
pub struct ExactLateFraction {
    /// `P(N ≤ 0)` — the exact late fraction.
    pub f: f64,
    /// Stationary mass at the truncation floor. If this is not ≪ `f`, deepen
    /// the floor.
    pub floor_mass: f64,
    /// Size of the enumerated state space.
    pub states: usize,
    /// Sweeps the solve took (warm starts shrink this).
    pub iterations: u32,
}

impl Ctmc for ExactDmp {
    type State = (TcpChainState, i64);

    fn initial(&self) -> Self::State {
        (self.proto.state(), 0)
    }

    fn transitions(&self, &(x, n): &Self::State, out: &mut Vec<(Self::State, f64)>) {
        let n_next = (n - 1).max(self.floor);
        if n_next != n {
            out.push(((x, n_next), self.mu));
        }
        if n < self.nmax {
            let rate = self.proto.rate_at(&x);
            self.proto.for_each_outcome(x, |x2, prob, delivered| {
                if prob > 0.0 {
                    let n2 = (n + i64::from(delivered)).min(self.nmax);
                    out.push(((x2, n2), rate * prob));
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> PathSpec {
        PathSpec::from_ms(0.06, 200.0, 2.0)
    }

    /// The chain's achievable throughput at wmax = 6 (measured once so the
    /// tests self-calibrate into the regime they intend).
    fn sigma6() -> f64 {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        TcpChain::achievable_throughput(path(), 6, 300_000, &mut rng)
    }

    #[test]
    fn late_fraction_is_a_probability_and_floor_is_negligible() {
        // µ at 80% of the chain's achievable throughput: marginal but
        // feasible, so deficit excursions are bounded and the truncation
        // floor carries ~no mass.
        let m = ExactDmp::new(path(), 6, 0.8 * sigma6(), 1.0, -150);
        let r = m.late_fraction(SolveOptions::default());
        assert!(r.f > 1e-6 && r.f < 0.8, "f = {}", r.f);
        assert!(
            r.floor_mass < r.f * 1e-2,
            "floor mass {} vs f {}",
            r.floor_mass,
            r.f
        );
        assert!(r.states > 1_000);
    }

    #[test]
    fn exact_f_decreases_with_tau() {
        let mu = 0.8 * sigma6();
        let f_at = |tau: f64| {
            ExactDmp::new(path(), 6, mu, tau, -150)
                .late_fraction(SolveOptions::default())
                .f
        };
        let f1 = f_at(0.5);
        let f2 = f_at(2.0);
        assert!(f2 < f1, "{f2} !< {f1}");
    }

    #[test]
    fn exact_f_increases_with_mu() {
        let sigma = sigma6();
        let f_at = |mu: f64| {
            ExactDmp::new(path(), 6, mu, 1.0, -150)
                .late_fraction(SolveOptions::default())
                .f
        };
        assert!(f_at(0.9 * sigma) > f_at(0.6 * sigma));
    }

    #[test]
    fn generator_entries_are_bit_equal_to_the_cloning_version() {
        // Every row of the benchmark's largest chain and of a wmax = 6 one,
        // against the rate read off a repositioned clone of the chain (what
        // `transitions` did per state; `chain.rs` pins `outcomes` itself).
        let models = [
            ExactDmp::new(path(), 4, 10.0, 0.75, -40),
            ExactDmp::new(path(), 6, 0.8 * sigma6(), 0.6, -30),
        ];
        for m in models {
            let csr = m.csr(&SolveOptions::default()).unwrap();
            let mut nonzeros = 0;
            let mut row = Vec::new();
            for &(x, n) in csr.states() {
                let mut moved = m.proto.clone();
                moved.set_state(x);
                let mut want = Vec::new();
                if n > m.floor {
                    want.push(((x, n - 1), m.mu.to_bits()));
                }
                if n < m.nmax {
                    for (x2, prob, delivered) in m.proto.outcomes(x) {
                        let n2 = (n + i64::from(delivered)).min(m.nmax);
                        want.push(((x2, n2), (moved.rate() * prob).to_bits()));
                    }
                }
                m.transitions(&(x, n), &mut row);
                nonzeros += row.len();
                let got: Vec<_> = row.drain(..).map(|(s, q)| (s, q.to_bits())).collect();
                assert_eq!(got, want, "row of {:?}", (x, n));
            }
            assert_eq!(nonzeros, csr.nnz());
        }
    }

    #[test]
    fn warm_tau_sweep_matches_cold_solves_and_saves_iterations() {
        let mu = 0.8 * sigma6();
        let taus = [0.6, 0.8, 1.0, 1.2];
        let opts = SolveOptions::default();
        let sweep = exact_tau_sweep(path(), 6, mu, &taus, -150, opts).unwrap();
        let mut warm_iters = 0u64;
        let mut cold_iters = 0u64;
        for (r, &tau) in sweep.iter().zip(&taus) {
            let cold = ExactDmp::new(path(), 6, mu, tau, -150).late_fraction(opts);
            assert!((r.f - cold.f).abs() < 1e-10, "{} vs {}", r.f, cold.f);
            warm_iters += u64::from(r.iterations);
            cold_iters += u64::from(cold.iterations);
        }
        // First cell is cold either way; the rest must pay less.
        assert!(
            warm_iters < cold_iters,
            "warm sweep {warm_iters} iterations !< cold {cold_iters}"
        );
    }

    #[test]
    #[should_panic(expected = "playback rate µ must be positive and finite, got inf")]
    fn an_infinite_playback_rate_is_refused_by_name() {
        ExactDmp::new(path(), 4, f64::INFINITY, 1.0, -40);
    }

    #[test]
    #[should_panic(expected = "startup delay τ must be positive and finite, got inf")]
    fn an_infinite_startup_delay_is_refused_by_name() {
        ExactDmp::new(path(), 4, 10.0, f64::INFINITY, -40);
    }

    #[test]
    fn starved_regime_saturates_and_reports_floor_mass() {
        // µ above the chain's achievable throughput: f → 1 and the floor
        // accumulates mass — the report must expose that so callers know the
        // truncation matters.
        let m = ExactDmp::new(path(), 6, 2.0 * sigma6(), 0.6, -120);
        let r = m.late_fraction(SolveOptions::default());
        assert!(r.f > 0.9, "starved f = {}", r.f);
        assert!(
            r.floor_mass > 1e-3,
            "floor mass should be visible: {}",
            r.floor_mass
        );
    }
}
