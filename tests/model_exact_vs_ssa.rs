//! The strongest correctness check in the repository: solve a **reduced**
//! DMP model exactly (sparse CTMC stationary solver, the TANGRAM-II role)
//! and verify that the production stochastic-simulation path reproduces its
//! late fraction.
//!
//! The reduced model uses one TCP flow with a small window cap, a small
//! buffer cap `N_max`, and a deep deficit floor so the state space stays
//! enumerable. The SSA side runs the *actual* [`DmpSsa`] machinery (same
//! chain code, same event picking), restricted to the same configuration.

use dmp_core::spec::PathSpec;
use tcp_model::chain::{TcpChain, TcpChainState};
use tcp_model::solver::{solve_stationary, Ctmc, SolveOptions};
use tcp_model::{DmpModel, DmpSsa};

/// One-flow DMP model as an enumerable CTMC: state = (chain state, buffer N
/// in `[floor, nmax]`, saturating at both ends).
struct MiniDmp {
    proto: TcpChain,
    mu: f64,
    nmax: i64,
    floor: i64,
}

impl Ctmc for MiniDmp {
    type State = (TcpChainState, i64);

    fn initial(&self) -> Self::State {
        (self.proto.state(), 0)
    }

    fn transitions(&self, (x, n): &Self::State, out: &mut Vec<(Self::State, f64)>) {
        // Consumption at rate µ (always active; saturate at the floor so the
        // space is finite — the floor is deep enough not to matter).
        let n_next = (*n - 1).max(self.floor);
        if n_next != *n {
            out.push(((*x, n_next), self.mu));
        }
        // Production: chain transitions are frozen at N = N_max.
        if *n < self.nmax {
            let rate = self.proto.rate_at(x);
            for (x2, prob, delivered) in self.proto.outcomes(*x) {
                let n2 = (*n + i64::from(delivered)).min(self.nmax);
                if prob > 0.0 {
                    out.push(((x2, n2), rate * prob));
                }
            }
        }
    }
}

#[test]
fn exact_and_ssa_late_fractions_agree() {
    let path = PathSpec::from_ms(0.06, 200.0, 2.0);
    let wmax = 6;
    let mu = 18.0; // chain σ ≈ 20–25 pkt/s: a marginal, late-prone regime
    let tau_s = 1.0;

    // --- exact ---
    let mini = MiniDmp {
        proto: TcpChain::new(path, wmax),
        mu,
        nmax: (mu * tau_s).ceil() as i64,
        floor: -400,
    };
    let sol = solve_stationary(&mini, SolveOptions::default());
    // Consumption events see the stationary law (constant rate µ): a
    // consumption is late iff it happens with N ≤ 0.
    let f_exact = sol.prob_where(|&(_, n)| n <= 0);
    assert!(
        f_exact > 1e-4,
        "pick parameters with observable lateness: {f_exact}"
    );

    // --- SSA (the production path) ---
    let mut model = DmpModel::new(vec![path], mu, tau_s);
    model.wmax = wmax;
    let mut f_ssa_acc = 0.0;
    const REPS: u64 = 3;
    for seed in 0..REPS {
        let mut ssa = DmpSsa::new(&model, 1000 + seed);
        f_ssa_acc += ssa.run(600_000).f;
    }
    let f_ssa = f_ssa_acc / REPS as f64;

    let rel = (f_ssa - f_exact).abs() / f_exact;
    assert!(
        rel < 0.1,
        "SSA {f_ssa:.5} vs exact {f_exact:.5} (rel err {rel:.3})"
    );
}

#[test]
fn exact_solution_is_a_probability_distribution() {
    let mini = MiniDmp {
        proto: TcpChain::new(PathSpec::from_ms(0.08, 150.0, 2.0), 4),
        mu: 10.0,
        nmax: 12,
        floor: -60,
    };
    let sol = solve_stationary(&mini, SolveOptions::default());
    let total: f64 = sol.pi.iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
    assert!(sol.pi.iter().all(|&p| p >= -1e-15));
    // The buffer must be able to reach its cap.
    let at_cap = sol.prob_where(|&(_, n)| n == 12);
    assert!(at_cap > 0.0, "N never reaches N_max");
}

#[test]
fn exact_late_fraction_decreases_with_buffer_cap() {
    let path = PathSpec::from_ms(0.06, 200.0, 2.0);
    let f_at = |nmax: i64| {
        let mini = MiniDmp {
            proto: TcpChain::new(path, 6),
            mu: 18.0,
            nmax,
            floor: -300,
        };
        let sol = solve_stationary(&mini, SolveOptions::default());
        sol.prob_where(|&(_, n)| n <= 0)
    };
    let f_small = f_at(6);
    let f_large = f_at(40);
    assert!(
        f_large < f_small,
        "larger startup buffer must reduce lateness: {f_large} !< {f_small}"
    );
}

/// The library's packaged exact solver must agree with this test file's
/// independent re-implementation of the reduced model.
#[test]
fn library_exact_dmp_matches_local_reimplementation() {
    let path = PathSpec::from_ms(0.06, 200.0, 2.0);
    let mini = MiniDmp {
        proto: TcpChain::new(path, 6),
        mu: 18.0,
        nmax: 18,
        floor: -400,
    };
    let sol = solve_stationary(&mini, SolveOptions::default());
    let f_local = sol.prob_where(|&(_, n)| n <= 0);

    let lib = tcp_model::ExactDmp::new(path, 6, 18.0, 1.0, -400);
    let f_lib = lib.late_fraction(SolveOptions::default()).f;
    assert!(
        (f_local - f_lib).abs() < 1e-9,
        "library {f_lib} vs local {f_local}"
    );
}
