//! Exact stationary solver for finite continuous-time Markov chains.
//!
//! The paper solved its model numerically with the TANGRAM-II environment.
//! The full joint DMP state space is far too large for exact solution, so the
//! production path uses stochastic simulation ([`crate::dmp`]); this module
//! provides the exact machinery for *small* chains so the simulation can be
//! cross-validated, and solves reduced DMP instances exactly in the tests.
//!
//! Method: enumerate the reachable state space (BFS from the initial state)
//! **once** into a sparse matrix in *incoming* form ([`CsrCtmc`]: for each
//! state `j` its predecessors `i` with `w_ij = q_ij / out_j`), and sweep
//! Gauss–Seidel on the balance equations `π_j · out_j = Σ_i π_i q_ij`:
//! `π_j ← Σ_i π_i w_ij` for `j = 0..n`, in place, so a state reads the
//! *fresh* value of every predecessor visited before it. BFS order is the
//! good order for that — a state is enumerated after the state that first
//! reached it (plain sweeps to a residual of 1e-12 on the benchmark's
//! 11 659-state chain: 438 in BFS order, 4 143 in reverse; the uniformised
//! power iteration `π ← πP` this replaced: 8 068). On top sits cycled
//! extrapolation ([`CsrCtmc::solve_accelerated`]), and grid sweeps
//! **warm-start** from a neighboring parameter point's [`Stationary`].
//!
//! The original transition-list power iteration lives on in
//! `tests/solver_csr.rs` as the oracle this solver is property-tested
//! against (agreement within 1e-12) — the only power iteration in the tree.
//!
//! Enumeration costs what the BFS costs: each state's transitions land in
//! one buffer the enumeration owns and drains ([`Ctmc::transitions`]), and
//! the state index hashes with a multiply–rotate word mix (`WordHasher`)
//! instead of std's SipHash. The hasher decides only where a key sits in
//! the table; every index is a BFS discovery number, so no state index,
//! weight, sweep count or bit of `π` depends on it
//! (`tests/solver_csr.rs`'s `enumeration_and_solves_reproduce_recorded_bits`
//! holds digests recorded under SipHash).

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// A finite CTMC described by its transition function.
pub trait Ctmc {
    /// State type (must be hashable for the enumeration).
    type State: Clone + Eq + Hash;

    /// The state the chain starts in (used as the BFS root; every recurrent
    /// state must be reachable from it).
    fn initial(&self) -> Self::State;

    /// Append all outgoing transitions `(target, rate)` from `s` to `out`,
    /// with `0 < rate < ∞`; every state has at least one. `out` arrives
    /// empty and is drained by the caller, so one buffer serves the whole
    /// enumeration: no per-state allocation.
    fn transitions(&self, s: &Self::State, out: &mut Vec<(Self::State, f64)>);
}

/// The state index's hasher: FxHash's word mix (rotate, xor, multiply by a
/// 64-bit odd constant) — a few cycles per field where SipHash spends tens
/// per key. Its output is neither stored nor compared, only used to place
/// keys in a `StateIndex`; `dmp_base::hash` stays the one stable digest. The
/// keys are states a `Ctmc` generates, never outside input, so SipHash's
/// resistance to crafted collisions buys nothing here.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// State → BFS discovery number.
type StateIndex<S> = HashMap<S, usize, BuildHasherDefault<WordHasher>>;

/// Why a chain could not be enumerated.
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
        let SolveError::StateSpaceExceeded { limit } = self;
        write!(
            f,
            "state space exceeds {limit} states — use the SSA solver instead"
        )
    }
}

impl std::error::Error for SolveError {}

/// The enumerated states and their indices: built once per [`CsrCtmc`] and
/// shared with every [`Stationary`] solved from it.
#[derive(Debug)]
struct StateTable<S> {
    states: Vec<S>,
    index: StateIndex<S>,
}

/// The stationary distribution of a finite CTMC.
#[derive(Debug, Clone)]
pub struct Stationary<S> {
    table: Arc<StateTable<S>>,
    /// `pi[i]` is the stationary probability of `states()[i]`.
    pub pi: Vec<f64>,
    /// Gauss–Seidel sweeps performed.
    pub iterations: u32,
    /// Relative L1 change `‖π′ − π‖₁ / ‖π′‖₁` of the last sweep (the
    /// convergence residual actually reached).
    pub residual: f64,
}

impl<S: Clone + Eq + Hash> Stationary<S> {
    /// The enumerated states, in BFS order.
    pub fn states(&self) -> &[S] {
        &self.table.states
    }

    /// Probability of a single state (0 if unreachable).
    pub fn prob(&self, s: &S) -> f64 {
        self.table.index.get(s).map_or(0.0, |&i| self.pi[i])
    }

    /// Total probability of all states satisfying `pred`.
    pub fn prob_where(&self, mut pred: impl FnMut(&S) -> bool) -> f64 {
        self.states()
            .iter()
            .zip(&self.pi)
            .filter(|(s, _)| pred(s))
            .map(|(_, p)| p)
            .sum()
    }

    /// Expectation of `f` under the stationary law.
    pub fn expect(&self, mut f: impl FnMut(&S) -> f64) -> f64 {
        self.states()
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
    /// Maximum Gauss–Seidel sweeps.
    pub max_iterations: u32,
    /// Target for the relative L1 *error* of `π`, as estimated from the
    /// sweep residuals (see [`CsrCtmc::solve_accelerated`]).
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

/// A CTMC enumerated into sparse *incoming* form, ready for repeated
/// stationary solves.
///
/// The sweep of [`CsrCtmc::solve_accelerated`] walks three flat arrays
/// (`in_off`/`src`/`weight`) sequentially and gathers from `π` — no
/// per-state `Vec`, no per-nonzero division (`q_ij / out_j` is precomputed),
/// no second vector. Enumeration order is the same BFS order as the reference
/// solver's in `tests/solver_csr.rs`, so state indices agree between the two.
pub struct CsrCtmc<S> {
    table: Arc<StateTable<S>>,
    /// `in_off[j]..in_off[j+1]` spans state `j`'s predecessors in
    /// `src`/`weight`.
    in_off: Vec<u32>,
    /// Source-state index per nonzero.
    src: Vec<u32>,
    /// `q_ij / out_j` per nonzero: the rate into `j`, over `j`'s outflow.
    weight: Vec<f64>,
}

/// Sweeps per mixing cycle. On the benchmark's chain 16 and 24 give the same
/// four sweep counts on every one of 120 calibrations (113 + 3 × 97, resp.
/// 145 + 3 × 121); 4 … 12 take fewer sweeps but a count that moves with the
/// calibration, and warm solves within 6–10 % of the cold one; at 32 a warm
/// solve costs what the cold one does.
const SWEEPS_PER_CYCLE: u32 = 16;

/// Snapshot difference columns per least-squares solve. Under the
/// `K`-sweep spacing only a handful of modes survive; 8 columns resolve them
/// without the MGS cost (`WINDOW² · n` per cycle) rivalling the sweeps.
const WINDOW: usize = 8;

/// A relative residual this small is within two digits of f64's resolution:
/// once it stops improving, what is left is summation noise.
const ROUNDOFF: f64 = 64.0 * f64::EPSILON;

impl<S: Clone + Eq + Hash> CsrCtmc<S> {
    /// Enumerate `chain`'s reachable states (BFS from the initial state) and
    /// build the incoming-form matrix.
    ///
    /// Returns [`SolveError::StateSpaceExceeded`] instead of panicking when
    /// the reachable set outgrows `opts.max_states`.
    ///
    /// # Panics
    /// Panics on a rate that is not positive and finite (an infinite one
    /// would make a weight `∞/∞`), or on a state without outgoing
    /// transitions (its balance equation has no solution to sweep towards).
    pub fn enumerate<C: Ctmc<State = S>>(
        chain: &C,
        opts: &SolveOptions,
    ) -> Result<Self, SolveError> {
        let mut states: Vec<S> = vec![chain.initial()];
        let mut index = StateIndex::default();
        index.insert(states[0].clone(), 0);
        // Transitions (target `to`, `rate`) in discovery order; per state,
        // where its row of them ends and its outflow (summed left to right,
        // as the reference solver does).
        let mut row_end: Vec<u32> = Vec::new();
        let mut to: Vec<u32> = Vec::new();
        let mut rate: Vec<f64> = Vec::new();
        let mut outflow: Vec<f64> = Vec::new();
        let mut row: Vec<(S, f64)> = Vec::new();
        let mut head = 0;
        while head < states.len() {
            chain.transitions(&states[head], &mut row);
            let mut out = 0.0f64;
            for (t, q) in row.drain(..) {
                assert!(
                    q > 0.0 && q < f64::INFINITY,
                    "transition rates must be positive and finite, got rate {q}"
                );
                let j = *index.entry(t.clone()).or_insert_with(|| {
                    states.push(t);
                    states.len() - 1
                });
                to.push(j as u32);
                rate.push(q);
                out += q;
            }
            assert!(out > 0.0, "every state needs an outgoing transition");
            outflow.push(out);
            row_end.push(to.len() as u32);
            head += 1;
            if states.len() > opts.max_states {
                return Err(SolveError::StateSpaceExceeded {
                    limit: opts.max_states,
                });
            }
        }

        // Transpose by counting sort: `in_off[j + 1]` counts `j`'s
        // predecessors, becomes the start of `j`'s span (prefix sum), and is
        // advanced to its end as the span fills, sources ascending.
        let mut in_off = vec![0u32; states.len() + 1];
        for &j in &to {
            in_off[j as usize + 1] += 1;
        }
        let mut start = 0;
        for slot in &mut in_off[1..] {
            start += std::mem::replace(slot, start);
        }
        let mut src = vec![0u32; to.len()];
        let mut weight = vec![0.0f64; to.len()];
        let mut begin = 0;
        for (i, &end) in row_end.iter().enumerate() {
            let end = end as usize;
            for (&j, &q) in to[begin..end].iter().zip(&rate[begin..end]) {
                let at = &mut in_off[j as usize + 1];
                src[*at as usize] = i as u32;
                weight[*at as usize] = q / outflow[j as usize];
                *at += 1;
            }
            begin = end;
        }
        Ok(Self {
            table: Arc::new(StateTable { states, index }),
            in_off,
            src,
            weight,
        })
    }

    /// Number of enumerated states.
    pub fn len(&self) -> usize {
        self.table.states.len()
    }

    /// True when the chain has no states (never: the initial state exists).
    pub fn is_empty(&self) -> bool {
        self.table.states.is_empty()
    }

    /// Number of transitions (nonzeros of the generator off its diagonal).
    pub fn nnz(&self) -> usize {
        self.src.len()
    }

    /// The enumerated states, in BFS order.
    pub fn states(&self) -> &[S] {
        &self.table.states
    }

    /// Seed `π` from a neighboring solution by state key (mass on vanished
    /// states drops, new states start at zero) or fall back to uniform when
    /// the carried-over mass is small — a "neighbor" that lost half its mass
    /// is not actually nearby and uniform is the safer start.
    fn seed_pi(&self, warm: Option<&Stationary<S>>) -> Vec<f64> {
        let n = self.len();
        let mut pi = vec![0.0f64; n];
        if let Some(prev) = warm {
            let mut mass = 0.0;
            for (p, s) in pi.iter_mut().zip(self.states()) {
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

    /// One in-place Gauss–Seidel pass `π_j ← Σ_i π_i w_ij`, `j = 0..n`;
    /// returns the *relative* L1 change `‖π′ − π‖₁ / ‖π′‖₁`. Relative
    /// because the pass, unlike `π ← πP`, does not conserve `Σπ`: the
    /// iterates settle on a multiple of the stationary law, normalised once
    /// at the end.
    fn sweep(&self, pi: &mut [f64]) -> f64 {
        let (mut change, mut total) = (0.0f64, 0.0f64);
        for j in 0..pi.len() {
            let span = self.in_off[j] as usize..self.in_off[j + 1] as usize;
            let mut v = 0.0f64;
            for (&i, &w) in self.src[span.clone()].iter().zip(&self.weight[span]) {
                v += pi[i as usize] * w;
            }
            change += (v - pi[j]).abs();
            total += v;
            pi[j] = v;
        }
        change / total
    }

    /// Sweep to the stationary distribution.
    ///
    /// `warm` seeds the iteration from a neighboring parameter point's
    /// solution (state spaces need not match: probabilities are carried over
    /// by state *key*, mass on vanished states is dropped, new states start
    /// at zero and fill in through the iteration). A warm start with
    /// negligible overlap falls back to the uniform cold start.
    ///
    /// **Acceleration** is cycled vector extrapolation (windowed
    /// Anderson/RRE): run `K` = 16 sweeps (`SWEEPS_PER_CYCLE`), treat the
    /// composite map `y ↦ Gᴷ(y)` as the fixed-point operator, and combine the
    /// last 8 snapshots (`WINDOW`) with least-squares weights chosen so the
    /// combined residual cancels. The spacing matters: loaded buffer chains
    /// have a diffusion-like spectrum — a near-continuum of modes with rates
    /// just under 1 — so extrapolating *consecutive* iterates is
    /// restarted-GMRES on a condition number of hundreds, which stalls; under
    /// `Gᴷ` the continuum collapses into a handful of discrete modes that the
    /// window kills. A residual blow-up or degenerate mix drops the window
    /// and re-anchors with plain sweeps, so a chain the window models badly
    /// degrades to plain Gauss–Seidel, never to a wrong answer.
    ///
    /// **Stopping** is on an error estimate, not on the residual: the first
    /// sweep with `residual ≤ tolerance · (1 − ρ̂)`, `ρ̂` the largest
    /// sweep-over-sweep residual ratio below 1 of this cycle and the one
    /// before. A residual `r` says only that the next step is small; the
    /// distance left is up to `r · ρ/(1 − ρ)` for the slowest mode present,
    /// and a mixture of modes decays no slower than the ratios it shows over
    /// a cycle. Two cycles and not the whole history: a cold start on a
    /// deep-floor chain opens with mass marching down the buffer levels at a
    /// residual that barely moves (ratios of 0.99995), and an estimate that
    /// remembered it would ask for less than f64 can show (the 170 k-state
    /// floor −400 chain: 1 057 sweeps against 802). The rule replaced a
    /// residual target of `tolerance / 1000`, which at `n ≈ 10⁴` sat on f64's
    /// summation floor (some calibrations of the benchmark's chain reached it
    /// after tens of thousands of sweeps, or never), and with it the
    /// accept-only-after-a-mix rule and the roundoff escape.
    ///
    /// A `tolerance` of 1e-14 already asks for more than f64 gives at 10⁴
    /// states: the residual bottoms out near 2e-16 and wanders. Once it is
    /// under `tolerance` or 64 ε (`ROUNDOFF`) and 8 cycles have set no new
    /// low, the solve returns, and [`Stationary::residual`] says with what.
    pub fn solve_accelerated(
        &self,
        opts: &SolveOptions,
        warm: Option<&Stationary<S>>,
    ) -> Stationary<S> {
        self.solve_in(opts, warm, &mut Mixer::default())
    }

    /// [`CsrCtmc::solve_accelerated`] on a caller-kept [`Mixer`], so a grid
    /// sweep sizes the mixing buffers once instead of once per cell.
    pub(crate) fn solve_in(
        &self,
        opts: &SolveOptions,
        warm: Option<&Stationary<S>>,
        mixer: &mut Mixer,
    ) -> Stationary<S> {
        let mut x = self.seed_pi(warm);
        mixer.reset(x.len());
        let mut iterations = 0u32;
        let mut residual = f64::INFINITY;
        // Largest sweep-over-sweep residual ratio below 1 in this cycle so
        // far, and in the one before.
        let (mut rho_now, mut rho_last) = (0.0f64, 0.0f64);
        // Best end-of-cycle residual, and the cycles since it was set.
        let mut best = f64::INFINITY;
        let mut since_best = 0usize;
        'outer: while iterations < opts.max_iterations {
            mixer.y.copy_from_slice(&x);
            let mut first = 0.0f64;
            for t in 0..SWEEPS_PER_CYCLE {
                let prev = residual;
                residual = self.sweep(&mut x);
                iterations += 1;
                if t == 0 {
                    first = residual;
                }
                if residual < prev {
                    rho_now = rho_now.max(residual / prev);
                }
                let target = opts.tolerance * (1.0 - rho_now.max(rho_last));
                if residual <= target || iterations >= opts.max_iterations {
                    break 'outer;
                }
            }
            (rho_last, rho_now) = (rho_now, 0.0);
            if residual < best {
                best = residual;
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= WINDOW && best <= opts.tolerance.max(ROUNDOFF) {
                    break;
                }
            }
            // A cycle that ended well above where it began was extrapolating
            // noise: drop the window and re-anchor with plain cycles.
            if residual > first * 4.0 {
                mixer.forget();
            }
            mixer.extrapolate(&mut x);
        }
        // Clamp residual-level negative transients of the mixing, then
        // normalise: the sweeps fix `π` only up to scale.
        x.iter_mut().for_each(|v| *v = v.max(0.0));
        let total: f64 = x.iter().sum();
        x.iter_mut().for_each(|v| *v /= total);
        Stationary {
            table: Arc::clone(&self.table),
            pi: x,
            iterations,
            residual,
        }
    }
}

/// The cycled mixing's window and scratch: 27 `n`-vectors sized by
/// [`Mixer::reset`] and reused from solve to solve.
#[derive(Default)]
pub(crate) struct Mixer {
    /// Snapshot at the start of the current cycle (scratch between cycles).
    y: Vec<f64>,
    /// The last finished cycle's image `z = Gᴷ(y)` and composite residual
    /// `f = z − y`.
    z: Vec<f64>,
    f: Vec<f64>,
    /// Ring of difference columns `(δf, δz)` between consecutive cycles, and
    /// the orthogonalised `δf`.
    df: [Vec<f64>; WINDOW],
    dz: [Vec<f64>; WINDOW],
    q: [Vec<f64>; WINDOW],
    stored: usize,
    newest: usize,
    have_prev: bool,
}

impl Mixer {
    /// Size every buffer for an `n`-state chain and empty the window. A
    /// buffer that has to grow takes a quarter of headroom with it, so the
    /// slightly larger chains further along a τ grid fit where they are (27
    /// piecemeal regrowths per cell left the heap 1 MB higher at 11 k
    /// states). Each vector is written before it is read: no clearing.
    fn reset(&mut self, n: usize) {
        let singles = [&mut self.y, &mut self.z, &mut self.f];
        let rings = [&mut self.df, &mut self.dz, &mut self.q];
        for v in singles.into_iter().chain(rings.into_iter().flatten()) {
            if v.capacity() < n {
                v.clear();
                v.reserve_exact(n + n / 4);
            }
            v.resize(n, 0.0);
        }
        self.forget();
    }

    /// Drop the window: the next cycles re-anchor with plain sweeps.
    fn forget(&mut self) {
        self.stored = 0;
        self.have_prev = false;
    }

    /// End a cycle that took `self.y` to `x`: record the difference column
    /// and replace `x` by the mixed iterate `z − Σ γ_j δz_j`, with `γ` the
    /// least-squares solution of `min ‖f − ΔF·γ‖₂`. Leaves `x` alone while
    /// the window is empty or when the mix is degenerate.
    fn extrapolate(&mut self, x: &mut [f64]) {
        // `y` becomes this cycle's residual, then trades places with the
        // last one's.
        for (y, z) in self.y.iter_mut().zip(x.iter()) {
            *y = z - *y;
        }
        if self.have_prev {
            self.newest = (self.newest + 1) % WINDOW;
            self.stored = (self.stored + 1).min(WINDOW);
            let (df, dz) = (&mut self.df[self.newest], &mut self.dz[self.newest]);
            for i in 0..x.len() {
                df[i] = self.y[i] - self.f[i];
                dz[i] = x[i] - self.z[i];
            }
        }
        std::mem::swap(&mut self.y, &mut self.f);
        self.z.copy_from_slice(x);
        self.have_prev = true;

        // Modified Gram–Schmidt QR on the difference columns, newest first.
        // (Normal equations would square the columns' condition number.)
        // Columns that go rank-deficient under orthogonalisation are dropped.
        let mut r_mat = [[0.0f64; WINDOW]; WINDOW];
        let mut used_src = [0usize; WINDOW];
        let mut used = 0usize;
        for j in 0..self.stored {
            let src = (self.newest + WINDOW - j) % WINDOW;
            let (head, tail) = self.q.split_at_mut(used);
            let col = &mut tail[0];
            col.copy_from_slice(&self.df[src]);
            let norm0 = col.iter().map(|v| v * v).sum::<f64>().sqrt();
            for (k, qk) in head.iter().enumerate() {
                let dot: f64 = qk.iter().zip(col.iter()).map(|(a, b)| a * b).sum();
                r_mat[k][used] = dot;
                for (c, a) in col.iter_mut().zip(qk) {
                    *c -= dot * a;
                }
            }
            let norm = col.iter().map(|v| v * v).sum::<f64>().sqrt();
            if !norm.is_finite() || norm <= norm0 * 1e-12 {
                continue;
            }
            col.iter_mut().for_each(|v| *v /= norm);
            r_mat[used][used] = norm;
            used_src[used] = src;
            used += 1;
        }
        if used == 0 {
            return;
        }
        // Back-substitute R·γ = Qᵀf.
        let mut gamma = [0.0f64; WINDOW];
        for j in (0..used).rev() {
            let mut v: f64 = self.q[j].iter().zip(&self.f).map(|(a, b)| a * b).sum();
            for k in j + 1..used {
                v -= r_mat[j][k] * gamma[k];
            }
            gamma[j] = v / r_mat[j][j];
        }

        // The iteration is linear, so transient negative entries are
        // harmless (clamping here would wreck the Krylov structure); the
        // solve clamps at the end.
        let (mut before, mut after) = (0.0f64, 0.0f64);
        for (i, xi) in x.iter_mut().enumerate() {
            before += *xi;
            for (&g, &src) in gamma.iter().zip(&used_src).take(used) {
                *xi -= g * self.dz[src][i];
            }
            after += *xi;
        }
        // A mix that lost half the mass (or went non-finite) is degenerate:
        // fall back to the plain sweep output.
        if !(after > 0.5 * before && after.is_finite()) {
            x.copy_from_slice(&self.z);
            self.forget();
        }
    }
}

/// Solve for the stationary distribution of `chain`.
///
/// # Panics
/// Panics if the reachable state space exceeds `opts.max_states` or a state
/// has no outgoing transition. [`CsrCtmc::enumerate`] returns the overflow
/// as a typed [`SolveError`] instead.
pub fn solve_stationary<C: Ctmc>(chain: &C, opts: SolveOptions) -> Stationary<C::State> {
    CsrCtmc::enumerate(chain, &opts)
        .unwrap_or_else(|e| panic!("{e}"))
        .solve_accelerated(&opts, None)
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
        fn transitions(&self, &s: &u32, out: &mut Vec<(u32, f64)>) {
            if s < self.k {
                out.push((s + 1, self.lambda));
            }
            if s > 0 {
                out.push((s - 1, self.mu));
            }
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
            fn transitions(&self, &s: &bool, out: &mut Vec<(bool, f64)>) {
                out.push(if s { (false, 2.0) } else { (true, 6.0) });
            }
        }
        let sol = solve_stationary(&OnOff, SolveOptions::default());
        assert!((sol.prob(&true) - 0.75).abs() < 1e-10);
        assert!((sol.prob_where(|&s| !s) - 0.25).abs() < 1e-10);
        assert!((sol.expect(|&s| if s { 1.0 } else { 0.0 }) - 0.75).abs() < 1e-10);
    }

    #[test]
    fn sweep_residual_is_relative_to_the_mass_of_the_iterate() {
        // A Gauss–Seidel pass does not conserve Σπ, so its residual must not
        // depend on it: the same iterate at 1024 × the mass (a power of two,
        // so every product and sum scales exactly) reads the same residual.
        let q = Mm1k {
            lambda: 3.0,
            mu: 5.0,
            k: 10,
        };
        let csr = CsrCtmc::enumerate(&q, &SolveOptions::default()).unwrap();
        let mut unit = vec![1.0 / 11.0; 11];
        let mut heavy: Vec<f64> = unit.iter().map(|v| v * 1024.0).collect();
        let before: f64 = unit.iter().sum();
        let residual = csr.sweep(&mut unit);
        assert_eq!(residual, csr.sweep(&mut heavy));
        assert!(residual > 0.0 && residual < 2.0);
        let after: f64 = unit.iter().sum();
        assert!((after - before).abs() > 1e-3, "Σπ {before} → {after}");
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
        let Err(err) = CsrCtmc::enumerate(&q, &opts) else {
            panic!("an M/M/1/1000 chain fits in 10 states");
        };
        assert_eq!(err, SolveError::StateSpaceExceeded { limit: 10 });
        // `solve_stationary` panics with this message.
        let msg = err.to_string();
        assert!(msg.contains("exceeds 10 states"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "transition rates must be positive and finite, got rate inf")]
    fn an_infinite_rate_is_refused_by_name() {
        // Its weight would be `∞/∞ = NaN`, and every sweep would spread it.
        let q = Mm1k {
            lambda: f64::INFINITY,
            mu: 5.0,
            k: 3,
        };
        let _ = CsrCtmc::enumerate(&q, &SolveOptions::default());
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
        let cold = csr.solve_accelerated(&opts, None);
        let warm = csr.solve_accelerated(&opts, Some(&seed));
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
            fn transitions(&self, &s: &u32, out: &mut Vec<(u32, f64)>) {
                if s < 1_010 {
                    out.push((s + 1, 3.0));
                }
                if s > 1_000 {
                    out.push((s - 1, 5.0));
                }
            }
        }
        let far = solve_stationary(&Shifted, opts);
        let q = Mm1k {
            lambda: 3.0,
            mu: 5.0,
            k: 10,
        };
        let csr = CsrCtmc::enumerate(&q, &opts).unwrap();
        let warm = csr.solve_accelerated(&opts, Some(&far));
        let cold = csr.solve_accelerated(&opts, None);
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
        fn transitions(&self, &n: &i64, out: &mut Vec<(i64, f64)>) {
            if n < self.nmax {
                out.push(((n + 2).min(self.nmax), self.a));
            }
            if n > self.floor {
                out.push((n - 1, self.mu));
            }
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
