//! The joint DMP-streaming model: `K` per-flow TCP chains producing packets
//! into the client buffer, a Poisson consumer draining it (Section 4.2).
//!
//! State: `(X₁(t), …, X_K(t), N(t))` where `X_k` is the k-th chain's state
//! and `N(t)` the number of early packets. Two event types:
//!
//! * **Production** (`E = P`): chain `k` makes a transition and delivers
//!   `S_k` packets: `N ← min(N + S_k, N_max)` with `N_max = µτ`. A chain does
//!   not transition while `N = N_max` (live streaming: the server cannot be
//!   more than `µτ` packets ahead of playback).
//! * **Consumption** (`E = C`): at rate `µ`, `N ← N − 1`. A consumption that
//!   leaves `N < 0` is a **late packet**.
//!
//! The fraction of late packets is `f = P(N(t) < 0 | E(t) = C)`, estimated by
//! stochastic simulation of the CTMC (statistically exact; TANGRAM-II, the
//! tool the paper used, offers the same simulation solver alongside exact
//! ones — the joint state space here is far too large for exact solution).
//! The SSA machinery is cross-validated against an exact solver on reduced
//! chains in [`crate::solver`]'s tests.

use dmp_core::spec::PathSpec;
use dmp_core::stats::OnlineStats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::chain::TcpChain;

/// Parameters of the joint model.
#[derive(Debug, Clone)]
pub struct DmpModel {
    /// One entry per path (`K = paths.len()`).
    pub paths: Vec<PathSpec>,
    /// Playback rate µ, packets per second.
    pub mu: f64,
    /// Startup delay τ, seconds (`N_max = ⌈µτ⌉`).
    pub tau_s: f64,
    /// Maximum TCP window used by the per-flow chains.
    pub wmax: u32,
}

impl DmpModel {
    /// Default maximum window for the per-flow chains.
    pub const DEFAULT_WMAX: u32 = 64;

    /// Most paths a model may have: the SSA kernel is instantiated for
    /// `K = 1..=4`.
    pub const MAX_PATHS: usize = 4;

    /// A `K`-path model with the default window cap.
    ///
    /// # Panics
    /// When `K` is 0 or above [`DmpModel::MAX_PATHS`], or µ or τ is not
    /// positive and finite (an infinite τ would make `N_max` saturate, so
    /// the buffer never froze; an infinite µ makes every draw 0 or NaN).
    pub fn new(paths: Vec<PathSpec>, mu: f64, tau_s: f64) -> Self {
        check_parameters(paths.len(), mu, tau_s);
        Self {
            paths,
            mu,
            tau_s,
            wmax: Self::DEFAULT_WMAX,
        }
    }

    /// The buffer cap `N_max = ⌈µτ⌉` (Section 2.1: the number of early
    /// packets can never exceed µτ in live streaming).
    pub fn nmax(&self) -> i64 {
        (self.mu * self.tau_s).ceil() as i64
    }

    /// Estimate the fraction of late packets by simulating the CTMC for
    /// `consumptions` consumption events (after a warm-up of one tenth of
    /// that). Deterministic for a fixed `seed`.
    pub fn late_fraction(&self, consumptions: u64, seed: u64) -> LateFracEstimate {
        let mut sim = DmpSsa::new(self, seed);
        sim.run(consumptions)
    }
}

/// A late-fraction estimate with a batch-means confidence interval.
#[derive(Debug, Clone, Copy)]
pub struct LateFracEstimate {
    /// Point estimate of `f`.
    pub f: f64,
    /// 95% confidence half-width from batch means (0 when too few batches).
    pub ci95: f64,
    /// Consumption events counted (after warm-up).
    pub consumptions: u64,
    /// Late consumption events counted.
    pub late: u64,
}

impl LateFracEstimate {
    /// True when the interval excludes `threshold` from above/below, i.e.
    /// we can call the comparison confidently.
    pub fn decides(&self, threshold: f64) -> Option<bool> {
        if self.f + self.ci95 < threshold {
            Some(true) // confidently below
        } else if self.f - self.ci95 > threshold {
            Some(false) // confidently above
        } else {
            None
        }
    }
}

/// The stochastic simulation (Gillespie) of the joint chain. Exposed so the
/// startup-delay search can run it incrementally.
///
/// One event kernel serves [`DmpSsa::run`] and [`DmpSsa::step`]. It is
/// const-generic over the path count `K` and instantiated for `K = 1..=4`
/// ([`DmpModel::MAX_PATHS`]); `run` and `step` copy the joint state —
/// `N`, the cached total rate, the `K` chain rates and Erlang stages, and
/// the RNG — into locals, run, and write it back, so no event loads or
/// stores a chain through the `Vec`: between the two, only a completed
/// round touches a [`TcpChain`].
///
/// An event costs one RNG draw scaled by one multiply (`pick = total · u`,
/// the bits of `gen_range(0.0..total)` without its range check), a handful
/// of selects and a single data-dependent branch: which event a draw picks
/// is computed as flags, not control flow — `cons = frozen ∨ pick < µ`, the
/// chain index by `select_chain`, `N -= cons`, `late = cons ∧ N < 0`, the
/// chain's Erlang stage advanced by `!cons` — so the
/// consumption-vs-production coin flip, the which-chain flip and the
/// one-in-four stage wrap never reach the branch predictor. The branch left
/// is "a round just completed" (about one event in seven), behind which sit
/// the outcome draw, the window update and the rate bookkeeping.
///
/// The draw does not wait for `N`: `pick` is always drawn on `[0, total)`
/// with the unfrozen total, and a full buffer (`N = N_max`, the live
/// freeze) only forces `cons`. That is the trajectory of drawing on
/// `[0, µ)` while frozen, draw for draw: both take one `next_u64`, and
/// while frozen every value of the old draw was a consumption, whatever it
/// was. So `N` stays off the multiply-and-compare chain of the next event.
///
/// No division happens per event either: each chain reads its rate from a
/// per-phase table, the kernel's `rates[k]` mirrors it, and
/// `total = µ + r₀ + r₁ + …` is cached and re-summed only when a completed
/// round moved a chain between phases. Nor, almost always, a logarithm per
/// round: a lossy round's first loss is a binary search of the chain's
/// `(1-p)^g` table, which leaves only draws within 1e-9 of an entry to
/// `ln` (see `TcpChain::sample_first_loss`). Two orders are load-bearing,
/// because `pick` is drawn on `[0, total)` and floating-point addition is not
/// associative: `total` is summed left to right starting from µ, and
/// `select_chain` subtracts the rates from `pick` one at a time in chain
/// order instead of comparing against prefix sums. Either changed, a draw
/// near a boundary lands on another event and every later draw follows it
/// — and the results stored under `model-late/v1`, `tcp-model-tau/v2` and
/// `tcp-model-mu/v1` were computed in exactly this order
/// (`tests/ssa_golden.rs` holds recorded trajectories for every `K`).
///
/// The loop allocates nothing, and [`DmpSsa::reset`] rewinds an existing
/// workspace to the fresh-build state so batched sweeps (µ bisections, τ
/// searches) reuse one allocation for every cell.
pub struct DmpSsa {
    /// One chain per path; each chain's Erlang stage is stale while a
    /// kernel runs (the kernel holds it) and written back when it returns.
    chains: Vec<TcpChain>,
    mu: f64,
    nmax: i64,
    n: i64,
    rng: SmallRng,
    /// Packets produced per path (to report DMP's dynamic split).
    pub produced: Vec<u64>,
}

/// Batches per [`DmpSsa::run`]: the batch means behind the CI.
pub(crate) const BATCHES: u64 = 20;

/// What one event of the joint chain was.
struct Event {
    /// A consumption (otherwise a chain's stage transition).
    cons: bool,
    /// A consumption that found the buffer empty.
    late: bool,
}

/// Total event rate with no chain frozen: µ plus the chain rates, added left
/// to right (the order is part of the trajectory — see [`DmpSsa`]).
fn unfrozen_total(mu: f64, rates: &[f64]) -> f64 {
    rates.iter().fold(mu, |total, &r| total + r)
}

/// The chain a production draw lands on: with `p` uniform on `[0, Σ rates)`,
/// the first `k` with `p < rates[k]` after subtracting the rates before it,
/// one at a time — the last chain when rounding leaves `p ≥ Σ rates`.
/// Equivalent to `for k { if p < rates[k] { return k }; p -= rates[k] }`,
/// but as a count of leading misses, so no branch depends on the draw; for
/// a constant `K` the loop unrolls. Any `p` (a consumption passes a
/// negative one) yields an in-range index.
#[inline]
fn select_chain<const K: usize>(mut p: f64, rates: &[f64; K]) -> usize {
    let mut k = 0;
    let mut missed_all = true;
    for &r in &rates[..K - 1] {
        missed_all &= p >= r;
        k += usize::from(missed_all);
        p -= r;
    }
    k
}

/// One kernel run: the joint state every event reads and writes (`N`, the
/// total, the rates, the stages and the RNG) copied into locals, beside the
/// chains and counters that only a completed round touches. Built by
/// [`Kernel::load`], handed back by [`Kernel::store`].
struct Kernel<'a, const K: usize> {
    chains: &'a mut [TcpChain; K],
    produced: &'a mut [u64; K],
    mu: f64,
    nmax: i64,
    n: i64,
    /// `unfrozen_total(mu, &rates)`: the total event rate while the buffer
    /// is below its cap.
    total: f64,
    /// `rates[k]` = `chains[k].rate()`.
    rates: [f64; K],
    /// `stages[k]`: chain `k`'s Erlang stage (the copy in `chains[k]` is
    /// stale until `store`).
    stages: [u8; K],
    rng: SmallRng,
}

impl<'a, const K: usize> Kernel<'a, K> {
    /// Copy `ssa`'s joint state into locals. `total` is re-derived from the
    /// chains' rates: the cached total always is `unfrozen_total` of them.
    #[inline(always)]
    fn load(ssa: &'a mut DmpSsa) -> Self {
        let chains: &mut [TcpChain; K] = ssa.chains.as_mut_slice().try_into().expect("K chains");
        let rates = std::array::from_fn(|k| chains[k].rate());
        let stages = std::array::from_fn(|k| chains[k].state().stage);
        Self {
            produced: ssa.produced.as_mut_slice().try_into().expect("K counters"),
            chains,
            mu: ssa.mu,
            nmax: ssa.nmax,
            n: ssa.n,
            total: unfrozen_total(ssa.mu, &rates),
            rates,
            stages,
            rng: ssa.rng.clone(),
        }
    }

    /// Write the stages back into the chains; return `N` and the RNG for
    /// the caller to write back.
    #[inline(always)]
    fn store(self) -> (i64, SmallRng) {
        for (chain, &stage) in self.chains.iter_mut().zip(&self.stages) {
            chain.set_stage(stage);
        }
        (self.n, self.rng)
    }

    /// The event kernel (see [`DmpSsa`] for why it is written in flags).
    /// Competing exponentials: consumption at µ always; chain `k` at its
    /// current rate unless the buffer is full (live-streaming freeze). The
    /// holding time `Exp(total)` is not needed for the embedded statistics:
    /// consumptions sample the stationary law by PASTA.
    #[inline(always)]
    fn event(&mut self) -> Event {
        // `gen_range(0.0..total)` without its range check and `0.0 +`:
        // `total > 0`, so these are its bits, draw for draw.
        let pick = self.total * self.rng.gen::<f64>();
        let pick = if pick >= self.total { 0.0 } else { pick };
        let cons = (self.n >= self.nmax) | (pick < self.mu);
        // For a consumption `k` is some valid index and its stage is
        // written back unchanged.
        let k = select_chain(pick - self.mu, &self.rates);
        let stage = self.stages[k] + u8::from(!cons);
        let fire = stage == TcpChain::STAGES;
        self.stages[k] = if fire { 0 } else { stage };
        if fire {
            let t = self.chains[k].complete_round(&mut self.rng);
            let rate = self.chains[k].rate();
            if rate != self.rates[k] {
                self.rates[k] = rate;
                self.total = unfrozen_total(self.mu, &self.rates);
            }
            self.produced[k] += u64::from(t.delivered);
            self.n = (self.n + i64::from(t.delivered)).min(self.nmax);
        }
        self.n -= i64::from(cons);
        debug_assert!(self.n <= self.nmax, "N above N_max after an event");
        Event {
            cons,
            late: cons & (self.n < 0),
        }
    }
}

impl DmpSsa {
    /// Build the simulation in the model's initial state (`N = 0`, all
    /// chains in slow start).
    ///
    /// # Panics
    /// When the model has more than [`DmpModel::MAX_PATHS`] paths or none.
    pub fn new(model: &DmpModel, seed: u64) -> Self {
        check_path_count(model.paths.len());
        Self {
            chains: model
                .paths
                .iter()
                .map(|&p| TcpChain::new(p, model.wmax))
                .collect(),
            mu: model.mu,
            nmax: model.nmax(),
            n: 0,
            rng: SmallRng::seed_from_u64(seed),
            produced: vec![0; model.paths.len()],
        }
    }

    /// Rewind this workspace to exactly the state `DmpSsa::new(model, seed)`
    /// would build, reusing the allocations. When the model's paths and
    /// window cap match the current chains (the common case across a µ or τ
    /// sweep) the chains are reset in place; otherwise they are rebuilt.
    /// Byte-identical to a fresh construction — the warm/cold cache-identity
    /// tests depend on it.
    pub fn reset(&mut self, model: &DmpModel, seed: u64) {
        check_path_count(model.paths.len());
        let same = self.chains.len() == model.paths.len()
            && self
                .chains
                .iter()
                .zip(&model.paths)
                .all(|(c, &p)| c.path() == p && c.wmax == model.wmax);
        if same {
            for c in &mut self.chains {
                c.reset();
            }
        } else {
            self.chains.clear();
            self.chains
                .extend(model.paths.iter().map(|&p| TcpChain::new(p, model.wmax)));
        }
        self.mu = model.mu;
        self.nmax = model.nmax();
        self.n = 0;
        self.rng = SmallRng::seed_from_u64(seed);
        self.produced.clear();
        self.produced.resize(self.chains.len(), 0);
    }

    /// Current buffer level `N`.
    pub fn buffer_level(&self) -> i64 {
        self.n
    }

    /// Advance by one event; returns `Some(late)` for a consumption event
    /// (`late` = it found an empty buffer), `None` for a production event.
    pub fn step(&mut self) -> Option<bool> {
        let e = match self.chains.len() {
            1 => self.step_k::<1>(),
            2 => self.step_k::<2>(),
            3 => self.step_k::<3>(),
            _ => self.step_k::<4>(),
        };
        e.cons.then_some(e.late)
    }

    fn step_k<const K: usize>(&mut self) -> Event {
        let mut kernel = Kernel::<K>::load(self);
        let e = kernel.event();
        (self.n, self.rng) = kernel.store();
        e
    }

    /// Run until `consumptions` consumption events have been observed after a
    /// warm-up of `consumptions/10`; estimate `f` with batch-means CIs. Counts
    /// exactly `BATCHES · max(consumptions / BATCHES, 1)` consumptions.
    pub fn run(&mut self, consumptions: u64) -> LateFracEstimate {
        self.run_capped(consumptions, u64::MAX)
    }

    /// [`DmpSsa::run`], stopped at the end of the first batch by which
    /// `late_cap` late consumptions have been counted; the estimate then
    /// covers the batches run. Up to that point the trajectory is `run`'s,
    /// event for event: the cap is read once per batch, never in the kernel.
    pub(crate) fn run_capped(&mut self, consumptions: u64, late_cap: u64) -> LateFracEstimate {
        match self.chains.len() {
            1 => self.run_capped_k::<1>(consumptions, late_cap),
            2 => self.run_capped_k::<2>(consumptions, late_cap),
            3 => self.run_capped_k::<3>(consumptions, late_cap),
            _ => self.run_capped_k::<4>(consumptions, late_cap),
        }
    }

    fn run_capped_k<const K: usize>(
        &mut self,
        consumptions: u64,
        late_cap: u64,
    ) -> LateFracEstimate {
        let mut kernel = Kernel::<K>::load(self);
        let warmup = consumptions / 10;
        let mut seen = 0u64;
        while seen < warmup {
            seen += u64::from(kernel.event().cons);
        }
        let per_batch = (consumptions / BATCHES).max(1);
        let mut batch_stats = OnlineStats::new();
        let mut late_total = 0u64;
        let mut counted = 0u64;
        for _ in 0..BATCHES {
            let mut late = 0u64;
            let mut c = 0u64;
            while c < per_batch {
                let e = kernel.event();
                c += u64::from(e.cons);
                late += u64::from(e.late);
            }
            late_total += late;
            counted += c;
            batch_stats.push(late as f64 / c as f64);
            if late_total >= late_cap {
                break;
            }
        }
        (self.n, self.rng) = kernel.store();
        LateFracEstimate {
            f: late_total as f64 / counted as f64,
            ci95: batch_stats.ci95_half_width(),
            consumptions: counted,
            late: late_total,
        }
    }
}

/// [`DmpModel::new`]'s checks, each naming the value that failed. Out of
/// line on purpose: inlined, the three formatted panics grow every function
/// that builds a model, and that growth alone — in the benchmark's
/// `model_ssa` workload, laid out before the exact solver — moved the
/// Gauss–Seidel sweep's inner loop across a 64-byte line and made
/// `model_exact` 6–8 % slower (EXPERIMENTS.md, "The SSA kernel on
/// registers").
#[inline(never)]
fn check_parameters(k: usize, mu: f64, tau_s: f64) {
    check_path_count(k);
    assert!(
        mu > 0.0 && mu < f64::INFINITY,
        "playback rate µ must be positive and finite, got {mu}"
    );
    assert!(
        tau_s > 0.0 && tau_s < f64::INFINITY,
        "startup delay τ must be positive and finite, got {tau_s}"
    );
}

/// Refuse a path count the kernel has no instantiation for.
fn check_path_count(k: usize) {
    assert!(
        (1..=DmpModel::MAX_PATHS).contains(&k),
        "the model takes 1 to {} paths, got K = {k}",
        DmpModel::MAX_PATHS
    );
}

/// The static-streaming baseline of Section 7.4: with `K` homogeneous paths,
/// odd/even (round-robin) assignment makes each path an **independent
/// single-path stream** of rate `µ/K` with its own startup buffer `(µ/K)·τ`;
/// the overall late fraction is the average of the per-path ones.
pub fn static_streaming_late_fraction(
    paths: &[PathSpec],
    mu: f64,
    tau_s: f64,
    consumptions: u64,
    seed: u64,
) -> LateFracEstimate {
    let k = paths.len() as f64;
    let mut f_sum = 0.0;
    let mut ci_sum = 0.0;
    let mut cons = 0;
    let mut late = 0;
    for (i, &p) in paths.iter().enumerate() {
        let sub = DmpModel::new(vec![p], mu / k, tau_s);
        let est = sub.late_fraction(consumptions / paths.len() as u64, seed ^ (i as u64) << 32);
        f_sum += est.f;
        ci_sum += est.ci95;
        cons += est.consumptions;
        late += est.late;
    }
    LateFracEstimate {
        f: f_sum / k,
        ci95: ci_sum / k,
        consumptions: cons,
        late,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pftk;

    fn homo(p: f64, rtt_ms: f64, to: f64) -> Vec<PathSpec> {
        vec![PathSpec::from_ms(p, rtt_ms, to); 2]
    }

    #[test]
    fn nmax_is_mu_tau() {
        let m = DmpModel::new(homo(0.02, 100.0, 4.0), 50.0, 8.0);
        assert_eq!(m.nmax(), 400);
    }

    #[test]
    fn ample_bandwidth_gives_tiny_late_fraction() {
        // σa/µ = 2.0 at p = 0.02, TO = 4 and a healthy τ.
        let mu = 25.0;
        let rtt = pftk::rtt_for_ratio(0.02, 4.0, 2, mu, 2.0);
        let m = DmpModel::new(homo(0.02, rtt * 1e3, 4.0), mu, 14.0);
        let est = m.late_fraction(400_000, 1);
        assert!(est.f < 5e-3, "f = {} should be small", est.f);
    }

    #[test]
    fn starved_stream_is_mostly_late() {
        // σa/µ < 1: TCP cannot keep up; most packets are late.
        let mu = 25.0;
        let rtt = pftk::rtt_for_ratio(0.02, 4.0, 2, mu, 0.7);
        let m = DmpModel::new(homo(0.02, rtt * 1e3, 4.0), mu, 6.0);
        let est = m.late_fraction(150_000, 2);
        assert!(est.f > 0.2, "f = {}", est.f);
    }

    #[test]
    fn late_fraction_decreases_with_tau() {
        let mu = 25.0;
        let rtt = pftk::rtt_for_ratio(0.02, 4.0, 2, mu, 1.4);
        let paths = homo(0.02, rtt * 1e3, 4.0);
        let f4 = DmpModel::new(paths.clone(), mu, 4.0)
            .late_fraction(200_000, 3)
            .f;
        let f12 = DmpModel::new(paths, mu, 12.0).late_fraction(200_000, 3).f;
        assert!(f12 < f4, "f(τ=12) = {f12} !< f(τ=4) = {f4}");
    }

    #[test]
    fn late_fraction_decreases_with_ratio() {
        let mu = 25.0;
        let mut prev = f64::INFINITY;
        for ratio in [1.2, 1.6, 2.0] {
            let rtt = pftk::rtt_for_ratio(0.02, 4.0, 2, mu, ratio);
            let m = DmpModel::new(homo(0.02, rtt * 1e3, 4.0), mu, 6.0);
            let f = m.late_fraction(300_000, 4).f;
            assert!(
                f < prev,
                "f should fall with σa/µ: ratio {ratio} gave {f} (prev {prev})"
            );
            prev = f;
        }
    }

    #[test]
    fn dynamic_split_tracks_path_throughputs() {
        // Heterogeneous paths: the faster path must carry more packets.
        let paths = vec![
            PathSpec::from_ms(0.02, 100.0, 4.0), // fast
            PathSpec::from_ms(0.02, 300.0, 4.0), // slow (3× RTT → ~1/3 σ)
        ];
        let m = DmpModel::new(paths, 40.0, 8.0);
        let mut ssa = DmpSsa::new(&m, 5);
        let mut consumed = 0;
        while consumed < 300_000 {
            if ssa.step().is_some() {
                consumed += 1;
            }
        }
        let total: u64 = ssa.produced.iter().sum();
        let share_fast = ssa.produced[0] as f64 / total as f64;
        assert!(
            (0.6..0.9).contains(&share_fast),
            "fast path share {share_fast}, expected ≈ 0.75"
        );
    }

    #[test]
    fn buffer_never_exceeds_nmax() {
        let m = DmpModel::new(homo(0.01, 50.0, 2.0), 50.0, 2.0);
        let mut ssa = DmpSsa::new(&m, 6);
        for _ in 0..200_000 {
            ssa.step();
            assert!(ssa.buffer_level() <= m.nmax());
        }
    }

    /// [`select_chain`] against the loop it replaced, on draws over, on and
    /// around every cumulative boundary.
    #[test]
    fn select_chain_matches_the_sequential_reference() {
        fn reference(mut pick: f64, rates: &[f64]) -> usize {
            for (k, &r) in rates.iter().enumerate() {
                if pick < r {
                    return k;
                }
                pick -= r;
            }
            rates.len() - 1
        }
        let mut rng = SmallRng::seed_from_u64(0x5e1ec7);
        let mut hits = [0u64; 4];
        for case in 0..100_000u64 {
            let k = 1 + (case % 4) as usize;
            // Rates spread like the chains': 4/R for R in 20 ms..1 s, slowed
            // by a backoff factor 2^e.
            let rates: Vec<f64> = (0..k)
                .map(|_| 4.0 / (rng.gen_range(0.02..1.0) * f64::from(1u32 << rng.gen_range(0..7))))
                .collect();
            let sum: f64 = rates.iter().sum();
            let mut picks = vec![
                rng.gen_range(0.0..sum),
                0.0,
                sum,
                sum * (1.0 + f64::EPSILON),
                2.0 * sum,
                rng.gen_range(-100.0..0.0),
            ];
            let mut edge = 0.0;
            for &r in &rates {
                edge += r;
                let bits = edge.to_bits();
                picks.extend([edge, f64::from_bits(bits - 1), f64::from_bits(bits + 1)]);
            }
            let select = |p: f64| match k {
                1 => select_chain::<1>(p, rates[..].try_into().unwrap()),
                2 => select_chain::<2>(p, rates[..].try_into().unwrap()),
                3 => select_chain::<3>(p, rates[..].try_into().unwrap()),
                _ => select_chain::<4>(p, rates[..].try_into().unwrap()),
            };
            for p in picks {
                let got = select(p);
                assert_eq!(got, reference(p, &rates), "p = {p:e}, rates = {rates:?}");
                hits[got] += 1;
            }
            assert_eq!(select(2.0 * sum), k - 1, "p ≥ Σr → last");
        }
        assert!(
            hits.iter().all(|&h| h > 10_000),
            "every index hit: {hits:?}"
        );
    }

    #[test]
    fn reset_workspace_is_byte_identical_to_fresh_build() {
        // Same paths, different µ/τ (the bisection case) and different paths
        // (the rebuild case): a reset workspace must retrace a fresh one.
        let m1 = DmpModel::new(homo(0.02, 150.0, 4.0), 25.0, 4.0);
        let m2 = DmpModel::new(homo(0.02, 150.0, 4.0), 32.0, 7.0);
        let m3 = DmpModel::new(vec![PathSpec::from_ms(0.01, 90.0, 2.0)], 20.0, 5.0);
        let mut ws = DmpSsa::new(&m1, 1);
        let _ = ws.run(30_000);
        for (model, seed) in [(&m2, 9u64), (&m3, 10u64), (&m1, 11u64)] {
            ws.reset(model, seed);
            let warm = ws.run(40_000);
            let fresh = DmpSsa::new(model, seed).run(40_000);
            assert_eq!(warm.f, fresh.f);
            assert_eq!(warm.late, fresh.late);
            assert_eq!(warm.consumptions, fresh.consumptions);
        }
    }

    #[test]
    #[should_panic(expected = "got K = 0")]
    fn a_model_without_paths_is_refused() {
        DmpModel::new(Vec::new(), 25.0, 4.0);
    }

    #[test]
    #[should_panic(expected = "got K = 5")]
    fn a_model_with_more_paths_than_the_kernel_runs_is_refused() {
        DmpModel::new(vec![PathSpec::from_ms(0.02, 150.0, 4.0); 5], 25.0, 4.0);
    }

    #[test]
    #[should_panic(expected = "playback rate µ must be positive and finite, got inf")]
    fn an_infinite_mu_is_refused() {
        DmpModel::new(homo(0.02, 150.0, 4.0), f64::INFINITY, 4.0);
    }

    #[test]
    #[should_panic(expected = "playback rate µ must be positive and finite, got NaN")]
    fn a_nan_mu_is_refused() {
        DmpModel::new(homo(0.02, 150.0, 4.0), f64::NAN, 4.0);
    }

    #[test]
    #[should_panic(expected = "playback rate µ must be positive and finite, got 0")]
    fn a_zero_mu_is_refused() {
        DmpModel::new(homo(0.02, 150.0, 4.0), 0.0, 4.0);
    }

    #[test]
    #[should_panic(expected = "startup delay τ must be positive and finite, got inf")]
    fn an_infinite_tau_is_refused() {
        DmpModel::new(homo(0.02, 150.0, 4.0), 25.0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "startup delay τ must be positive and finite, got NaN")]
    fn a_nan_tau_is_refused() {
        DmpModel::new(homo(0.02, 150.0, 4.0), 25.0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "startup delay τ must be positive and finite, got -1")]
    fn a_negative_tau_is_refused() {
        DmpModel::new(homo(0.02, 150.0, 4.0), 25.0, -1.0);
    }

    #[test]
    fn estimates_are_deterministic_per_seed() {
        let m = DmpModel::new(homo(0.02, 150.0, 4.0), 25.0, 4.0);
        let a = m.late_fraction(50_000, 42);
        let b = m.late_fraction(50_000, 42);
        assert_eq!(a.f, b.f);
        assert_eq!(a.late, b.late);
    }

    #[test]
    fn dmp_beats_static_streaming() {
        // Section 7.4's headline: dynamic allocation needs a smaller τ /
        // achieves a lower late fraction at the same τ.
        let mu = 30.0;
        let rtt = pftk::rtt_for_ratio(0.02, 4.0, 2, mu, 1.6);
        let paths = homo(0.02, rtt * 1e3, 4.0);
        let dmp = DmpModel::new(paths.clone(), mu, 10.0).late_fraction(400_000, 7);
        let stat = static_streaming_late_fraction(&paths, mu, 10.0, 400_000, 7);
        assert!(
            dmp.f < stat.f,
            "DMP f = {} should beat static f = {}",
            dmp.f,
            stat.f
        );
    }

    #[test]
    fn decides_uses_confidence_interval() {
        let est = LateFracEstimate {
            f: 1e-5,
            ci95: 2e-6,
            consumptions: 1_000_000,
            late: 10,
        };
        assert_eq!(est.decides(1e-4), Some(true));
        let est = LateFracEstimate {
            f: 5e-4,
            ci95: 1e-4,
            consumptions: 1_000_000,
            late: 500,
        };
        assert_eq!(est.decides(1e-4), Some(false));
        let est = LateFracEstimate {
            f: 1.1e-4,
            ci95: 5e-5,
            consumptions: 1_000_000,
            late: 110,
        };
        assert_eq!(est.decides(1e-4), None);
    }
}
