//! Exact stationary solver for finite continuous-time Markov chains.
//!
//! The paper solved its model numerically with the TANGRAM-II environment.
//! The full joint DMP state space is far too large for exact solution, so the
//! production path uses stochastic simulation ([`crate::dmp`]); this module
//! provides the exact machinery for *small* chains so the simulation can be
//! cross-validated, and solves reduced DMP instances exactly in the tests.
//!
//! Method: enumerate the reachable state space (BFS from the initial state)
//! **once** into a CSR sparse matrix ([`CsrCtmc`]), uniformise
//! (`P = I + Q/Λ`), and power-iterate `π ← πP` to the fixed point `πQ = 0`
//! with ping-pong buffers and zero per-iteration allocation. Grid sweeps can
//! **warm-start**: seeding the iteration with a neighboring parameter
//! point's [`Stationary`] cuts the iteration count to a fraction of a cold
//! solve (the fixed points of nearby cells are close; power iteration
//! converges linearly from wherever it starts).
//!
//! The original transition-list implementation lives on in
//! `tests/solver_csr.rs` as the oracle the CSR path is property-tested
//! against (agreement within 1e-12).

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// A finite CTMC described by its transition function.
pub trait Ctmc {
    /// State type (must be hashable for the enumeration).
    type State: Clone + Eq + Hash;

    /// The state the chain starts in (used as the BFS root; every recurrent
    /// state must be reachable from it).
    fn initial(&self) -> Self::State;

    /// All outgoing transitions `(target, rate)` from `s`, with `rate > 0`.
    fn transitions(&self, s: &Self::State) -> Vec<(Self::State, f64)>;
}

/// Why a chain could not be enumerated.
///
/// Runner jobs should surface this as a *failed-cell payload* (data) rather
/// than panicking: panics are never cached, so a cached-panic configuration
/// would waste a runner slot on every cold run, while an error payload is
/// content-addressed like any other result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The BFS found more reachable states than `SolveOptions::max_states`.
    StateSpaceExceeded {
        /// The configured cap that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::StateSpaceExceeded { limit } => {
                write!(
                    f,
                    "state space exceeds {limit} states — use the SSA solver instead"
                )
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// The stationary distribution of a finite CTMC.
#[derive(Debug, Clone)]
pub struct Stationary<S> {
    /// Enumerated states.
    pub states: Vec<S>,
    /// `pi[i]` is the stationary probability of `states[i]`.
    pub pi: Vec<f64>,
    index: HashMap<S, usize>,
    /// Power iterations performed.
    pub iterations: u32,
    /// Final L1 change per iteration (convergence residual).
    pub residual: f64,
}

impl<S: Clone + Eq + Hash> Stationary<S> {
    /// Probability of a single state (0 if unreachable).
    pub fn prob(&self, s: &S) -> f64 {
        self.index.get(s).map_or(0.0, |&i| self.pi[i])
    }

    /// Total probability of all states satisfying `pred`.
    pub fn prob_where(&self, mut pred: impl FnMut(&S) -> bool) -> f64 {
        self.states
            .iter()
            .zip(&self.pi)
            .filter(|(s, _)| pred(s))
            .map(|(_, p)| p)
            .sum()
    }

    /// Expectation of `f` under the stationary law.
    pub fn expect(&self, mut f: impl FnMut(&S) -> f64) -> f64 {
        self.states
            .iter()
            .zip(&self.pi)
            .map(|(s, p)| f(s) * p)
            .sum()
    }
}

/// Options for [`solve_stationary`].
#[derive(Debug, Clone, Copy)]
pub struct SolveOptions {
    /// Abort if the reachable state space exceeds this many states.
    pub max_states: usize,
    /// Maximum power iterations.
    pub max_iterations: u32,
    /// Stop when the L1 change of `π` in one sweep falls below this.
    pub tolerance: f64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            max_states: 2_000_000,
            max_iterations: 200_000,
            tolerance: 1e-12,
        }
    }
}

/// A CTMC enumerated into CSR (compressed sparse row) form, uniformised and
/// ready for repeated stationary solves.
///
/// The hot loop of [`CsrCtmc::solve`] touches four flat arrays
/// (`row_off`/`cols`/`probs`/`self_prob`) sequentially — no per-state `Vec`,
/// no per-nonzero division (`q/Λ` is precomputed), no per-iteration row-sum
/// recomputation. Enumeration order is the same BFS order as the reference
/// solver's in `tests/solver_csr.rs`, so state indices agree between the two.
pub struct CsrCtmc<S> {
    states: Vec<S>,
    index: HashMap<S, usize>,
    /// `row_off[i]..row_off[i+1]` spans row `i` in `cols`/`probs`.
    row_off: Vec<usize>,
    /// Column (target-state) index per nonzero.
    cols: Vec<u32>,
    /// Uniformised transition probability `q/Λ` per nonzero.
    probs: Vec<f64>,
    /// Self-loop weight `1 − Σ_j q_ij/Λ` per row.
    self_prob: Vec<f64>,
    /// Uniformisation constant Λ.
    lambda: f64,
}

impl<S: Clone + Eq + Hash> CsrCtmc<S> {
    /// Enumerate `chain`'s reachable states (BFS from the initial state) and
    /// build the uniformised CSR matrix.
    ///
    /// Returns [`SolveError::StateSpaceExceeded`] instead of panicking when
    /// the reachable set outgrows `opts.max_states`.
    pub fn enumerate<C: Ctmc<State = S>>(
        chain: &C,
        opts: &SolveOptions,
    ) -> Result<Self, SolveError> {
        let mut states: Vec<S> = vec![chain.initial()];
        let mut index: HashMap<S, usize> = HashMap::new();
        index.insert(states[0].clone(), 0);
        let mut row_off: Vec<usize> = vec![0];
        let mut cols: Vec<u32> = Vec::new();
        // Raw rates during the build; rescaled to `q/Λ` once Λ is known.
        let mut rates: Vec<f64> = Vec::new();
        // Per-row outflow Σq, accumulated in insertion order (the identical
        // left-to-right summation the reference solver performs, so Λ and
        // the self-loop weights agree bit-for-bit with it).
        let mut outflow: Vec<f64> = Vec::new();
        let mut head = 0;
        while head < states.len() {
            let s = states[head].clone();
            let mut out = 0.0f64;
            for (t, rate) in chain.transitions(&s) {
                assert!(rate > 0.0, "transition rates must be positive");
                let j = *index.entry(t.clone()).or_insert_with(|| {
                    states.push(t);
                    states.len() - 1
                });
                cols.push(j as u32);
                rates.push(rate);
                out += rate;
            }
            outflow.push(out);
            row_off.push(cols.len());
            head += 1;
            if states.len() > opts.max_states {
                return Err(SolveError::StateSpaceExceeded {
                    limit: opts.max_states,
                });
            }
        }

        let lambda = outflow.iter().copied().fold(0.0f64, f64::max) * 1.02 + 1e-12;
        let inv_lambda = 1.0 / lambda;
        let mut probs = rates;
        for p in &mut probs {
            *p *= inv_lambda;
        }
        let self_prob = outflow.iter().map(|&out| 1.0 - out / lambda).collect();
        Ok(Self {
            states,
            index,
            row_off,
            cols,
            probs,
            self_prob,
            lambda,
        })
    }

    /// Number of enumerated states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the chain has no states (never happens: the initial state
    /// always exists).
    pub fn is_empty(&self) -> bool {
        self.states.len() == 0
    }

    /// Number of off-diagonal nonzeros in the uniformised matrix.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// The enumerated states, in BFS order.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The uniformisation constant Λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Seed `π` from a neighboring solution by state key (mass on vanished
    /// states drops, new states start at zero) or fall back to uniform when
    /// the carried-over mass is small — a "neighbor" that lost half its mass
    /// is not actually nearby and uniform is the safer start.
    fn seed_pi(&self, warm: Option<&Stationary<S>>) -> Vec<f64> {
        let n = self.states.len();
        let mut pi = vec![0.0f64; n];
        if let Some(prev) = warm {
            let mut mass = 0.0;
            for (p, s) in pi.iter_mut().zip(&self.states) {
                *p = prev.prob(s);
                mass += *p;
            }
            if mass > 0.5 {
                let inv = 1.0 / mass;
                pi.iter_mut().for_each(|p| *p *= inv);
                return pi;
            }
        }
        pi.iter_mut().for_each(|p| *p = 1.0 / n as f64);
        pi
    }

    /// One `next ← πP` sweep; returns the L1 change `‖next − π‖₁`.
    fn sweep(&self, pi: &[f64], next: &mut [f64]) -> f64 {
        let n = self.states.len();
        next.iter_mut().for_each(|x| *x = 0.0);
        for i in 0..n {
            let v = pi[i];
            if v == 0.0 {
                continue;
            }
            next[i] += v * self.self_prob[i];
            let (s, e) = (self.row_off[i], self.row_off[i + 1]);
            for (&j, &p) in self.cols[s..e].iter().zip(&self.probs[s..e]) {
                next[j as usize] += v * p;
            }
        }
        pi.iter().zip(next.iter()).map(|(a, b)| (a - b).abs()).sum()
    }

    fn finish(&self, mut pi: Vec<f64>, iterations: u32, residual: f64) -> Stationary<S> {
        // Clamp residual-level negative transients (a no-op for plain
        // sweeps, whose iterates are nonnegative throughout), then
        // normalise against drift.
        pi.iter_mut().for_each(|x| *x = x.max(0.0));
        let total: f64 = pi.iter().sum();
        pi.iter_mut().for_each(|x| *x /= total);
        Stationary {
            states: self.states.clone(),
            pi,
            index: self.index.clone(),
            iterations,
            residual,
        }
    }

    /// Power-iterate `π ← πP` to the stationary distribution.
    ///
    /// `warm` seeds the iteration from a neighboring parameter point's
    /// solution (state spaces need not match: probabilities are carried over
    /// by state *key*, mass on vanished states is dropped, new states start
    /// at zero and fill in through the iteration). A warm start with
    /// negligible overlap falls back to the uniform cold start.
    ///
    /// This is the *plain* iteration, trajectory-compatible with the
    /// reference solver in `tests/solver_csr.rs` (same update, same stopping
    /// rule, same arithmetic order) — the 1e-12 oracle comparisons there hold
    /// it to the reference bit-for-bit in spirit.
    /// Grid sweeps that only need the *fixed point* (not the trajectory)
    /// should prefer [`CsrCtmc::solve_accelerated`].
    pub fn solve(&self, opts: &SolveOptions, warm: Option<&Stationary<S>>) -> Stationary<S> {
        let mut pi = self.seed_pi(warm);
        let mut next = vec![0.0f64; pi.len()];
        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        while iterations < opts.max_iterations && residual > opts.tolerance {
            residual = self.sweep(&pi, &mut next);
            std::mem::swap(&mut pi, &mut next);
            iterations += 1;
        }
        self.finish(pi, iterations, residual)
    }

    /// Like [`CsrCtmc::solve`], but with cycled vector extrapolation
    /// (windowed Anderson/RRE on `K`-spaced snapshots): run `K` plain
    /// sweeps, treat the composite map `y ↦ y·Pᴷ` as the fixed-point
    /// operator, and combine the last few snapshots with least-squares
    /// weights chosen so the combined residual cancels.
    ///
    /// Why the spacing matters: loaded buffer chains have a diffusion-like
    /// spectrum — a near-continuum of modes with rates just under 1 — so
    /// extrapolating *consecutive* iterates (scalar Aitken, or Anderson on
    /// a short window) is restarted-GMRES on a condition number of
    /// hundreds, which stalls. Under `Pᴷ` the continuum collapses
    /// (`r^K` separates the survivors into a handful of discrete modes),
    /// and a window of 8 spanning several hundred sweeps of history kills
    /// what remains. `K` starts at 48 and only *grows* (deterministically,
    /// doubling when a full window still fails to beat the plain per-cycle
    /// contraction — the signature of spacing too short for the chain's
    /// spectrum); shrinking or re-ramping would discard a consistent
    /// window, which costs more than it saves. The extrapolation cost
    /// amortises over the `K` sweeps, so per-sweep overhead stays small,
    /// unlike per-iteration mixing.
    ///
    /// Safety: the mixing least-squares is solved by QR with
    /// rank-deficient columns dropped; a residual blow-up or degenerate mix
    /// drops the window and re-anchors with plain sweeps; and the method
    /// only ever stops on a genuine sweep residual `‖πP − π‖₁`, and only on
    /// a mix-fresh iterate (mid-plain-phase the error is slow-mode shaped
    /// and exceeds the residual by the spectral factor) — so a chain the
    /// window models badly degrades to plain power iteration, never to a
    /// wrong answer.
    ///
    /// Accuracy: residual-based stopping certifies the *residual*, not the
    /// error — a plain solve at tolerance `t` carries a slow-mode bias of
    /// `≈ t · r/(1−r)`, and an accelerated trajectory's terminal bias is
    /// not even sign-correlated with a plain trajectory's (their iterates
    /// approach the fixed point from unrelated directions). So this method
    /// converges three extra decades internally (`tolerance / 1000`) —
    /// cheap under extrapolation, roughly one extra cycle — which pushes
    /// the true error *below* the caller's tolerance even through the
    /// ~300× spectral amplification of the production chains. Agreement
    /// with a plain or reference solve is then limited by the *other*
    /// side's bias; hold the oracle to a matching tighter tolerance when
    /// asserting, as `tests/solver_csr.rs` does. If the inner target dips under
    /// the f64 summation-noise floor (a few 1e-16 on large chains), the
    /// stall detector accepts once the residual is two decades past the
    /// caller's tolerance and no longer improving, rather than spinning to
    /// `max_iterations`.
    pub fn solve_accelerated(
        &self,
        opts: &SolveOptions,
        warm: Option<&Stationary<S>>,
    ) -> Stationary<S> {
        /// Snapshot difference columns per least-squares solve. Under the
        /// `Pᴷ` spacing only a handful of modes survive; 8 columns span
        /// ~400 sweeps of history, enough to resolve them without the MGS
        /// cost (`WINDOW² · n` per cycle) rivalling the sweeps themselves.
        const WINDOW: usize = 8;
        // Inner residual target: two decades past the caller's tolerance so
        // the terminal *error* (not just the residual) sits at the level a
        // plain solve's stopping rule nominally promises.
        let tol = opts.tolerance / 1000.0;
        let mut x = self.seed_pi(warm);
        let n = x.len();
        let mut gx = vec![0.0f64; n];
        // Snapshot y (cycle start), its image z = y·Pᴷ lives in `x` when
        // the cycle ends; f = z − y is the composite-map residual.
        let mut y = vec![0.0f64; n];
        let mut f_new = vec![0.0f64; n];
        // Previous cycle's (f, z), for forming difference columns.
        let mut f_prev = vec![0.0f64; n];
        let mut z_prev = vec![0.0f64; n];
        // Ring of difference columns (δf, δz) and the MGS scratch. All
        // buffers are allocated once here — the sweeps themselves are
        // allocation-free, like `solve`.
        let mut df: Vec<Vec<f64>> = vec![vec![0.0f64; n]; WINDOW];
        let mut dz: Vec<Vec<f64>> = vec![vec![0.0f64; n]; WINDOW];
        let mut q: Vec<Vec<f64>> = vec![vec![0.0f64; n]; WINDOW];
        let mut r_mat = [[0.0f64; WINDOW]; WINDOW];
        let mut used_src = [0usize; WINDOW];
        let mut qtf = [0.0f64; WINDOW];
        let mut gamma = [0.0f64; WINDOW];
        let mut stored = 0usize;
        let mut newest = 0usize;
        let mut have_prev = false;
        // Whether `x` entered this cycle straight out of a successful mix.
        let mut fresh_mix = false;
        // Sweeps per cycle. 48 is tuned on the production DMP chains
        // (~4× fewer total sweeps than plain); grown below if a chain
        // mixes too slowly for this spacing.
        let mut k_inner = 48u32;
        let mut iterations = 0u32;
        let mut residual = f64::INFINITY;
        // First-sweep residual of the previous cycle, and a count of
        // consecutive no-progress cycles, for stall detection.
        let mut prev_res_first = f64::INFINITY;
        let mut stalled = 0u32;
        'outer: while iterations < opts.max_iterations {
            y.copy_from_slice(&x);
            let mut res_first = 0.0f64;
            let mut res_last = 0.0f64;
            for t in 0..k_inner {
                residual = self.sweep(&x, &mut gx);
                std::mem::swap(&mut x, &mut gx);
                iterations += 1;
                if t == 0 {
                    res_first = residual;
                }
                res_last = residual;
                if residual <= tol {
                    // A small *residual* does not mean a small *error*: deep
                    // into a plain phase the leftover error is slow-mode
                    // shaped and exceeds the residual by the spectral factor
                    // r/(1−r). Accept only an iterate fresh out of a mix
                    // (slow modes just extrapolated away), or one from a
                    // solve that never engaged the window (fast chains and
                    // near-converged warm seeds, where no slow mode ever
                    // showed up). Otherwise end the cycle early and mix.
                    if (fresh_mix && t == 0) || (!have_prev && stored == 0) {
                        break 'outer;
                    }
                    break;
                }
                if iterations >= opts.max_iterations {
                    break 'outer;
                }
            }
            fresh_mix = false;
            // A mix that blew the residual up was extrapolating noise —
            // drop the window and re-anchor with plain cycles.
            if res_last > res_first * 4.0 {
                stored = 0;
                have_prev = false;
            }
            // Stall detection: each cycle ends in a mix, so the mix's
            // effect shows up in the *next* cycle's first-sweep residual.
            // If two consecutive fully-windowed cycles make essentially no
            // cycle-over-cycle progress, the spacing is too short for this
            // chain (the modes of `Pᴷ` are still clustered near 1): double
            // K and rebuild the window under the new composite operator —
            // a change of K invalidates the stored difference columns.
            // (Merely-slow cycles are left alone: a consistent window is
            // worth more than a perfectly-tuned K.)
            if stored == WINDOW && res_first > prev_res_first * 0.9 {
                stalled += 1;
                if stalled >= 2 {
                    // Stalled *at the roundoff floor* (already well past the
                    // caller's tolerance): accept — no spacing will push an
                    // f64 sweep below its summation noise.
                    if residual <= opts.tolerance / 100.0 {
                        break 'outer;
                    }
                    k_inner = (k_inner * 2).min(65_536);
                    stored = 0;
                    have_prev = false;
                    stalled = 0;
                }
            } else {
                stalled = 0;
            }
            prev_res_first = res_first;
            for i in 0..n {
                f_new[i] = x[i] - y[i];
            }
            if have_prev {
                newest = (newest + 1) % WINDOW;
                stored = (stored + 1).min(WINDOW);
                for i in 0..n {
                    df[newest][i] = f_new[i] - f_prev[i];
                    dz[newest][i] = x[i] - z_prev[i];
                }
            }
            f_prev.copy_from_slice(&f_new);
            z_prev.copy_from_slice(&x);
            have_prev = true;
            if stored == 0 {
                continue;
            }

            // Least squares min ‖f − ΔF·γ‖₂ by modified Gram–Schmidt QR on
            // the difference columns, newest first. (Normal equations would
            // square the columns' condition number.) Columns that go
            // rank-deficient under orthogonalisation are dropped.
            let mut used = 0usize;
            for j in 0..stored {
                let src = (newest + WINDOW - j) % WINDOW;
                let (head, tail) = q.split_at_mut(used);
                let col = &mut tail[0];
                col.copy_from_slice(&df[src]);
                let norm0 = df[src].iter().map(|v| v * v).sum::<f64>().sqrt();
                for (k, qk) in head.iter().enumerate() {
                    let mut dot = 0.0f64;
                    for (a, b) in qk.iter().zip(col.iter()) {
                        dot += a * b;
                    }
                    r_mat[k][used] = dot;
                    for (c, a) in col.iter_mut().zip(qk.iter()) {
                        *c -= dot * a;
                    }
                }
                let norm = col.iter().map(|v| v * v).sum::<f64>().sqrt();
                if !norm.is_finite() || norm <= norm0 * 1e-12 {
                    continue;
                }
                let inv = 1.0 / norm;
                col.iter_mut().for_each(|v| *v *= inv);
                r_mat[used][used] = norm;
                used_src[used] = src;
                used += 1;
            }
            if used == 0 {
                continue;
            }
            for (k, qk) in q.iter().enumerate().take(used) {
                let mut dot = 0.0f64;
                for i in 0..n {
                    dot += qk[i] * f_new[i];
                }
                qtf[k] = dot;
            }
            let mut ok = true;
            for j in (0..used).rev() {
                let mut v = qtf[j];
                for k in j + 1..used {
                    v -= r_mat[j][k] * gamma[k];
                }
                gamma[j] = v / r_mat[j][j];
                ok &= gamma[j].is_finite();
            }
            if !ok {
                stored = 0;
                have_prev = false;
                continue;
            }

            // Mixed iterate: x ← z − Σ γ_j δz_j. The iteration is linear,
            // so transient negative entries are harmless (clamping here
            // would wreck the Krylov structure); `finish` clamps at the
            // end. Row-stochasticity keeps Σx at 1 up to roundoff, so no
            // renormalisation is needed mid-flight either.
            let mut total = 0.0f64;
            for i in 0..n {
                let mut v = x[i];
                for (j, &g) in gamma.iter().enumerate().take(used) {
                    v -= g * dz[used_src[j]][i];
                }
                x[i] = v;
                total += v;
            }
            if total > 0.5 && total.is_finite() {
                fresh_mix = true;
            } else {
                // Degenerate mix: fall back to the plain sweep output.
                x.copy_from_slice(&z_prev);
                stored = 0;
                have_prev = false;
            }
        }
        self.finish(x, iterations, residual)
    }
}

/// Solve for the stationary distribution of `chain` on the CSR fast path.
///
/// Returns [`SolveError`] instead of panicking when the reachable state
/// space exceeds `opts.max_states`; prefer this in runner jobs so oversized
/// configurations become cacheable failed-cell artifacts.
pub fn try_solve_stationary<C: Ctmc>(
    chain: &C,
    opts: SolveOptions,
) -> Result<Stationary<C::State>, SolveError> {
    Ok(CsrCtmc::enumerate(chain, &opts)?.solve(&opts, None))
}

/// Solve for the stationary distribution of `chain`.
///
/// # Panics
/// Panics if the reachable state space exceeds `opts.max_states` or the
/// chain is degenerate (a state with no outgoing transitions that is not
/// absorbing-by-design). Use [`try_solve_stationary`] to get a typed
/// [`SolveError`] instead.
pub fn solve_stationary<C: Ctmc>(chain: &C, opts: SolveOptions) -> Stationary<C::State> {
    match try_solve_stationary(chain, opts) {
        Ok(sol) => sol,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// M/M/1/K queue: arrivals λ, service µ, capacity K. Closed-form
    /// stationary distribution π_n ∝ ρⁿ.
    pub(crate) struct Mm1k {
        pub lambda: f64,
        pub mu: f64,
        pub k: u32,
    }

    impl Ctmc for Mm1k {
        type State = u32;
        fn initial(&self) -> u32 {
            0
        }
        fn transitions(&self, &s: &u32) -> Vec<(u32, f64)> {
            let mut t = Vec::new();
            if s < self.k {
                t.push((s + 1, self.lambda));
            }
            if s > 0 {
                t.push((s - 1, self.mu));
            }
            t
        }
    }

    #[test]
    fn mm1k_matches_closed_form() {
        let q = Mm1k {
            lambda: 3.0,
            mu: 5.0,
            k: 10,
        };
        let sol = solve_stationary(&q, SolveOptions::default());
        let rho: f64 = 3.0 / 5.0;
        let norm: f64 = (0..=10).map(|n| rho.powi(n)).sum();
        for n in 0..=10u32 {
            let expect = rho.powi(n as i32) / norm;
            let got = sol.prob(&n);
            assert!((got - expect).abs() < 1e-9, "π_{n}: {got} vs {expect}");
        }
        // Blocking probability = π_K.
        let block = sol.prob(&10);
        assert!((block - rho.powi(10) / norm).abs() < 1e-9);
    }

    #[test]
    fn two_state_chain() {
        // on→off at rate a, off→on at rate b ⇒ π_on = b/(a+b).
        struct OnOff;
        impl Ctmc for OnOff {
            type State = bool;
            fn initial(&self) -> bool {
                true
            }
            fn transitions(&self, &s: &bool) -> Vec<(bool, f64)> {
                if s {
                    vec![(false, 2.0)]
                } else {
                    vec![(true, 6.0)]
                }
            }
        }
        let sol = solve_stationary(&OnOff, SolveOptions::default());
        assert!((sol.prob(&true) - 0.75).abs() < 1e-10);
        assert!((sol.prob_where(|&s| !s) - 0.25).abs() < 1e-10);
        assert!((sol.expect(|&s| if s { 1.0 } else { 0.0 }) - 0.75).abs() < 1e-10);
    }

    #[test]
    fn oversized_state_space_is_a_typed_error_not_a_panic() {
        let q = Mm1k {
            lambda: 3.0,
            mu: 5.0,
            k: 1_000,
        };
        let opts = SolveOptions {
            max_states: 10,
            ..SolveOptions::default()
        };
        let err = try_solve_stationary(&q, opts).unwrap_err();
        assert_eq!(err, SolveError::StateSpaceExceeded { limit: 10 });
        // The panicking wrapper preserves the historical message.
        let msg = err.to_string();
        assert!(msg.contains("exceeds 10 states"), "{msg}");
    }

    #[test]
    fn warm_start_from_neighbor_converges_faster_and_agrees() {
        let opts = SolveOptions::default();
        let near = Mm1k {
            lambda: 3.0,
            mu: 5.0,
            k: 40,
        };
        let seed = solve_stationary(&near, opts);
        let target = Mm1k {
            lambda: 3.1,
            mu: 5.0,
            k: 40,
        };
        let csr = CsrCtmc::enumerate(&target, &opts).unwrap();
        let cold = csr.solve(&opts, None);
        let warm = csr.solve(&opts, Some(&seed));
        assert!(
            warm.iterations < cold.iterations,
            "warm {} !< cold {}",
            warm.iterations,
            cold.iterations
        );
        for (a, b) in warm.pi.iter().zip(&cold.pi) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn disjoint_warm_start_falls_back_to_cold() {
        let opts = SolveOptions::default();
        // A "neighbor" with a disjoint state range: carry-over mass ≈ π₀ only.
        struct Shifted;
        impl Ctmc for Shifted {
            type State = u32;
            fn initial(&self) -> u32 {
                1_000
            }
            fn transitions(&self, &s: &u32) -> Vec<(u32, f64)> {
                let mut t = Vec::new();
                if s < 1_010 {
                    t.push((s + 1, 3.0));
                }
                if s > 1_000 {
                    t.push((s - 1, 5.0));
                }
                t
            }
        }
        let far = solve_stationary(&Shifted, opts);
        let q = Mm1k {
            lambda: 3.0,
            mu: 5.0,
            k: 10,
        };
        let csr = CsrCtmc::enumerate(&q, &opts).unwrap();
        let warm = csr.solve(&opts, Some(&far));
        let cold = csr.solve(&opts, None);
        // Fallback means identical trajectories: same iterations, same π.
        assert_eq!(warm.iterations, cold.iterations);
        assert_eq!(warm.pi, cold.pi);
    }

    /// Cross-validate the SSA against the exact solver on a birth–death
    /// chain that mimics the buffer process: producer bursts of size 2 at
    /// rate a (capped at Nmax), consumer at rate µ, floor at -F.
    struct BurstBuffer {
        a: f64,
        mu: f64,
        nmax: i64,
        floor: i64,
    }
    impl Ctmc for BurstBuffer {
        type State = i64;
        fn initial(&self) -> i64 {
            0
        }
        fn transitions(&self, &n: &i64) -> Vec<(i64, f64)> {
            let mut t = Vec::new();
            if n < self.nmax {
                t.push(((n + 2).min(self.nmax), self.a));
            }
            if n > self.floor {
                t.push((n - 1, self.mu));
            }
            t
        }
    }

    #[test]
    fn ssa_matches_exact_on_burst_buffer() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let model = BurstBuffer {
            a: 3.0,
            mu: 5.0,
            nmax: 12,
            floor: -30,
        };
        let sol = solve_stationary(&model, SolveOptions::default());
        // "Late" = consumption leaving n < 0 ⇔ consumption seen at n ≤ 0.
        // Consumption is active only above the floor; with the floor deep
        // enough it is effectively Poisson, so PASTA applies.
        let f_exact = sol.prob_where(|&n| n <= 0);

        // Jump-chain SSA with the same event-picking logic as DmpSsa.
        let mut rng = SmallRng::seed_from_u64(123);
        let mut n = 0i64;
        let (mut late, mut cons) = (0u64, 0u64);
        for _ in 0..4_000_000u64 {
            let prod_rate = if n < model.nmax { model.a } else { 0.0 };
            let cons_rate = if n > model.floor { model.mu } else { 0.0 };
            let total = prod_rate + cons_rate;
            let pick = rng.gen_range(0.0..total);
            if pick < cons_rate {
                n -= 1;
                cons += 1;
                if n < 0 {
                    late += 1;
                }
            } else {
                n = (n + 2).min(model.nmax);
            }
        }
        let f_ssa = late as f64 / cons as f64;
        assert!(
            (f_ssa - f_exact).abs() / f_exact < 0.05,
            "SSA {f_ssa:.5} vs exact {f_exact:.5}"
        );
    }
}
