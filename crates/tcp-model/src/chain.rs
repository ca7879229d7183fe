//! The per-flow TCP Markov chain of the paper's analytical model (Section 4).
//!
//! The paper describes each flow's state as the tuple `(W, C, L, E, Q)` and
//! defers the transition rates to its technical report \[32\]. We reconstruct
//! them following the stated ingredients — the loss process of Padhye et al.
//! \[23\] and Figueiredo et al. \[10\] (losses independent across rounds;
//! within a round, once a packet is lost all remaining packets of the round
//! are lost), rounds of mean duration `R`, timeouts with exponential backoff
//! capped at 2⁶, and delayed-ACK window growth — organised as phases:
//!
//! * **Slow start** (`W` below `ssthresh`): a round sends `W` packets; on a
//!   fully successful round the window grows by a factor 1.5 (delayed ACKs:
//!   one ACK per two segments, +1 segment per ACK).
//! * **Congestion avoidance**: the delayed-ACK toggle `C` gives `W → W + 1`
//!   every second successful round.
//! * **Loss handling**: if the first loss of a round leaves ≥ 3 later
//!   packets delivered, the flow detects it by triple duplicate ACK and
//!   halves the window (`W → max(W/2, 1)`) without a dead round, as in
//!   Padhye et al. — the retransmissions ride along in subsequent rounds'
//!   windows. Otherwise the flow times out.
//! * **Timeout** (`E = e ≥ 1`): the flow waits `Exp(2^{e-1}·T_O·R)`, then
//!   sends one retransmission (the paper's `Q = 1` case). If it is lost the
//!   backoff exponent increases (cap 6); on success the flow re-enters slow
//!   start at `W = 1` with `ssthresh = W_loss/2`.
//!
//! Each transition reports how many packets were **successfully delivered**,
//! which is what feeds the client-buffer process `N(t)` in
//! [`crate::dmp`]. The paper's argument for ignoring packet identity (its
//! Section 4.1 out-of-order analysis) is what lets the chain track only
//! delivery *counts*.
//!
//! Reconstruction notes (documented deviations): we carry `ssthresh`
//! explicitly (the paper's 5-tuple has no slot for it; some earlier models
//! skip slow start entirely), and the timeout retransmission flag `Q` is
//! implicit — the first packet sent in the timeout phase is always the
//! retransmission. Fidelity is checked two ways in the tests: backlogged
//! throughput against the PFTK formula, and the full chain against the
//! `netsim` packet-level TCP in the integration suite.

use dmp_core::spec::PathSpec;
use rand::Rng;

/// Phase of the per-flow chain (encodes the paper's `L`, `E`, `Q`
/// components together with the window `W`, toggle `C`, and `ssthresh`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Exponential window growth up to `ssthresh`.
    SlowStart,
    /// Linear growth: +1 segment every two rounds (toggle `C`).
    CongAvoid,
    /// Timeout with current backoff exponent `exp` (`E = exp + 1` in the
    /// paper's encoding; wait time `2^exp · T_O · R`).
    Timeout {
        /// Backoff exponent, capped at [`TcpChain::MAX_BACKOFF_EXP`].
        exp: u8,
    },
}

/// Complete chain state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TcpChainState {
    /// Congestion window `W`, segments.
    pub w: u32,
    /// Delayed-ACK toggle `C` (congestion avoidance grows `W` when it flips
    /// from 1 to 0).
    pub c: bool,
    /// Slow-start threshold.
    pub ssthresh: u32,
    /// Current phase.
    pub phase: Phase,
    /// Erlang stage within the current round/timeout (0-based; the round's
    /// outcome happens when the last stage completes).
    pub stage: u8,
}

impl TcpChainState {
    /// The state after a round of `self.w` packets in which none was lost
    /// (sending phases only), under window cap `wmax`.
    #[inline]
    fn after_clean_round(mut self, wmax: u32) -> Self {
        match self.phase {
            Phase::SlowStart => {
                // Delayed ACKs: W grows 1.5× per round in slow start.
                let grown = (self.w + self.w.div_ceil(2)).min(wmax);
                if grown >= self.ssthresh {
                    self.w = grown.min(self.ssthresh).min(wmax);
                    self.phase = Phase::CongAvoid;
                    self.c = false;
                } else {
                    self.w = grown;
                }
            }
            Phase::CongAvoid => {
                if self.c {
                    self.w = (self.w + 1).min(wmax);
                    self.c = false;
                } else {
                    self.c = true;
                }
            }
            Phase::Timeout { .. } => unreachable!("clean round only in sending phases"),
        }
        self
    }

    /// The state after a round whose first loss came after `succ` successes
    /// (the lost packets re-enter later rounds' windows).
    #[inline]
    fn after_lossy_round(mut self, succ: u32) -> Self {
        self.ssthresh = (self.w / 2).max(2);
        if succ >= 3 {
            // Enough duplicate ACKs for fast retransmit: Reno halves the
            // window and keeps going (the retransmissions ride along in the
            // next rounds' windows; no dead round, following Padhye et al.).
            self.w = (self.w / 2).max(1);
            self.c = false;
            self.phase = Phase::CongAvoid;
        } else {
            self.phase = Phase::Timeout { exp: 0 };
        }
        self
    }
}

/// Outcome of one chain transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Packets successfully delivered to the receiver by this transition
    /// (the `S_k` of the paper's buffer recursion).
    pub delivered: u32,
}

/// The per-flow TCP chain: parameters plus current state.
///
/// Round durations are **Erlang-k** distributed (k = [`TcpChain::STAGES`]
/// exponential stages with mean `R/k` each): a real TCP round lasts
/// approximately one RTT with modest jitter, and a plain exponential holding
/// time would roughly double the variance of the delivery process and fatten
/// the buffer-deficit tail that the late-packet metric lives on. Erlang
/// stages keep the process a CTMC (as the paper's solver requires) while
/// matching the near-deterministic round timing of packet-level TCP.
#[derive(Debug, Clone)]
pub struct TcpChain {
    path: PathSpec,
    /// Maximum window, segments.
    pub wmax: u32,
    state: TcpChainState,
    /// Precomputed `(1-p)^w` for w = 0..=wmax: the clean-round
    /// probabilities, and the table a lossy round's first loss is read from.
    no_loss_prob: Vec<f64>,
    /// `ln(1-p)`, for the first-loss draws the table leaves undecided.
    ln_1mp: f64,
    /// Stage-transition rate per phase, indexed by [`phase_slot`]: the
    /// sending phases' `k/R`, then `k/(2^e·T_O·R)` for `e = 0..=6`.
    rates: [f64; PHASE_SLOTS],
}

/// Relative half-width of the band around each `(1-p)^g` table entry inside
/// which [`TcpChain::sample_first_loss`] leaves a draw to the logarithm (see
/// its error budget).
const TABLE_BAND: f64 = 1e-9;

/// The `(1-p)^g` table's reading of one uniform draw of a lossy round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TableDraw {
    /// The first loss comes after `g < w` successes.
    Loss(u32),
    /// `G ≥ w`: the draw is rejected.
    Reject,
    /// The draw lies within the band of a bracketing entry: the logarithm
    /// decides.
    Near,
}

/// Slots of the per-phase tables: one for the sending phases plus one per
/// backoff exponent.
const PHASE_SLOTS: usize = 2 + TcpChain::MAX_BACKOFF_EXP as usize;

/// Index of `phase` in the per-phase tables.
#[inline]
fn phase_slot(phase: Phase) -> usize {
    match phase {
        Phase::SlowStart | Phase::CongAvoid => 0,
        Phase::Timeout { exp } => 1 + usize::from(exp),
    }
}

impl TcpChain {
    /// Backoff exponent cap: timeouts back off up to `2⁶ = 64×` (the model's
    /// `E` component has seven values).
    pub const MAX_BACKOFF_EXP: u8 = 6;

    /// Erlang stages per round (variance of a round's duration is `R²/k`).
    pub const STAGES: u8 = 4;

    /// Create a chain for a path, starting in slow start with `W = 1`.
    pub fn new(path: PathSpec, wmax: u32) -> Self {
        assert!(path.loss > 0.0 && path.loss < 1.0, "loss must be in (0,1)");
        assert!(wmax >= 2);
        let no_loss_prob = (0..=wmax)
            .map(|w| (1.0 - path.loss).powi(w as i32))
            .collect();
        let k = f64::from(Self::STAGES);
        let timeout = |exp: u8| k / (f64::from(1u32 << exp) * path.rto_s());
        // In `phase_slot` order. Spelled out rather than looped so that for
        // a compile-time-constant path the table folds away and `new` stays
        // inlinable: `powi` above rounds differently when the compiler
        // evaluates it than at run time, and the exact solver's iteration
        // counts in the benchmark ledger are pinned to the folded values.
        let rates = [
            k / path.rtt_s,
            timeout(0),
            timeout(1),
            timeout(2),
            timeout(3),
            timeout(4),
            timeout(5),
            timeout(6),
        ];
        Self {
            path,
            wmax,
            state: TcpChainState {
                w: 1,
                c: false,
                ssthresh: wmax,
                phase: Phase::SlowStart,
                stage: 0,
            },
            no_loss_prob,
            ln_1mp: (1.0 - path.loss).ln(),
            rates,
        }
    }

    /// The path parameters this chain models.
    pub fn path(&self) -> PathSpec {
        self.path
    }

    /// Return the chain to its initial state (slow start, `W = 1`) without
    /// recomputing the loss tables — so a batched evaluation can reuse one
    /// chain allocation across many runs. Equivalent to `TcpChain::new(path,
    /// wmax)` state-wise.
    pub fn reset(&mut self) {
        self.state = TcpChainState {
            w: 1,
            c: false,
            ssthresh: self.wmax,
            phase: Phase::SlowStart,
            stage: 0,
        };
    }

    /// Current state (for inspection/tests).
    pub fn state(&self) -> TcpChainState {
        self.state
    }

    /// Rate (events per second) at which this chain currently makes stage
    /// transitions: `k/R` in normal phases, `k/(2^e·T_O·R)` in timeout, so a
    /// full round (k stages) has mean duration `R` (resp. the backoff time).
    /// A lookup in the per-phase table built by [`TcpChain::new`]: the rate
    /// changes only with the phase, never with the stage.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rates[phase_slot(self.state.phase)]
    }

    /// [`TcpChain::rate`] as it would be in `state`, whatever state the chain
    /// is in (the exact solver asks for every enumerated state).
    #[inline]
    pub fn rate_at(&self, state: &TcpChainState) -> f64 {
        self.rates[phase_slot(state.phase)]
    }

    /// Number of successes before the first loss in a round of `w` packets:
    /// `w` with probability `(1-p)^w`, otherwise `G < w` geometric.
    ///
    /// A lossy round draws `v` uniform on `[ε, 1)` until
    /// `G = floor(ln(v)/ln(1-p)) < w` (inverse-CDF geometric, conditioned by
    /// rejection). The draws and the answer are exactly those of that
    /// formula, but the `(1-p)^g` table decides almost every `v` without a
    /// logarithm: `G ≥ g` exactly when `v ≤ (1-p)^g`, so a `v` below
    /// `T[w]` is a reject and a binary search over `T[..w]` finds `g`
    /// otherwise. The table stands for the formula only outside a relative
    /// band [`TABLE_BAND`] around each bracketing entry; inside it the
    /// logarithm decides. Error budget: `T[g]` and `ln_1mp` are both built
    /// from the same `m = fl(1-p)`; `T[g]` is within `g·ε/2` relative of
    /// `m^g` (`powi` multiplies repeated squares; ≈ 7e-15 at `g = 64`), and
    /// the computed quotient crosses `g` within `3·|ln v|·ε ≤ 2.4e-14`
    /// relative of `v = m^g` (`ln v`, `ln_1mp` and the division each within
    /// an ulp, `|ln v| ≤ 36` on `[ε, 1)`). The band, 1e-9, is 3·10⁴ times
    /// their sum at the model's windows (`w ≤ 64`) and still 90 times it at
    /// `w = 10⁵`, so every trajectory is the formula's, bit for bit
    /// (the test `first_loss_table_agrees_with_the_logarithm` holds it on
    /// seeded draws and at every entry ± 8 ulp).
    fn sample_first_loss(&self, w: u32, rng: &mut impl Rng) -> u32 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u <= self.no_loss_prob[w as usize] {
            return w; // no loss this round
        }
        loop {
            let v: f64 = rng.gen_range(f64::EPSILON..1.0);
            if let Some(g) = self.first_loss_below(v, w) {
                return g;
            }
        }
    }

    /// One draw of [`TcpChain::sample_first_loss`]'s loop: `G` for the
    /// uniform `v` when `G < w`, `None` for a reject. The table decides;
    /// the logarithm only in its band.
    #[inline]
    fn first_loss_below(&self, v: f64, w: u32) -> Option<u32> {
        match self.table_first_loss(v, w) {
            TableDraw::Loss(g) => Some(g),
            TableDraw::Reject => None,
            TableDraw::Near => Some(self.ln_first_loss(v)).filter(|&g| g < w),
        }
    }

    /// `G = floor(ln(v)/ln(1-p))` as the chain has always computed it. The
    /// quotient is positive (`v` in [ε, 1), `p` in (0, 1)), and `as u32`
    /// truncates toward zero and saturates, so the cast alone is `floor`
    /// followed by the cast, without the call.
    fn ln_first_loss(&self, v: f64) -> u32 {
        (v.ln() / self.ln_1mp) as u32
    }

    /// What the table `T[g] = (1-p)^g` says about `v` in a round of `w`
    /// packets, with no logarithm: `G ≥ w` when `v` lies clearly below
    /// `T[w]`, `G = g` when `T[g] ≥ v > T[g+1]` with `v` clear of both, and
    /// [`TableDraw::Near`] when `v` is within [`TABLE_BAND`] of either.
    #[inline]
    fn table_first_loss(&self, v: f64, w: u32) -> TableDraw {
        let t = &self.no_loss_prob[..=w as usize];
        let w = w as usize;
        if v < t[w] * (1.0 - TABLE_BAND) {
            return TableDraw::Reject;
        }
        // #{k in 0..w : T[k] ≥ v} = g + 1: the table is non-increasing and
        // T[0] = 1 > v, so T[g] ≥ v > T[g+1] (the last only for g + 1 < w;
        // T[w] may still be within the band above `v`). The search starts
        // at T[0], not at a slice from T[1]: that slice's bounds check
        // keeps the kernel's and the calibration's instances of
        // `complete_round` from folding into one copy.
        let g = t[..w].partition_point(|&x| x >= v) - 1;
        if v <= t[g] * (1.0 - TABLE_BAND) && v >= t[g + 1] * (1.0 + TABLE_BAND) {
            TableDraw::Loss(g as u32)
        } else {
            TableDraw::Near
        }
    }

    /// Execute one transition of the chain (the caller has already waited
    /// `Exp(1/rate)`); returns the number of packets delivered. The first
    /// `k − 1` stage transitions of a round deliver nothing; the round's
    /// outcome materialises on the last stage, in `complete_round` — the
    /// half the SSA kernel in [`crate::dmp`] calls on its own, keeping the
    /// stage counters itself.
    pub fn step(&mut self, rng: &mut impl Rng) -> Transition {
        self.state.stage += 1;
        if self.state.stage < Self::STAGES {
            return Transition { delivered: 0 };
        }
        self.state.stage = 0;
        self.complete_round(rng)
    }

    /// Overwrite the Erlang stage alone: the SSA kernel hands back the stage
    /// counter it held while it ran.
    #[inline]
    pub(crate) fn set_stage(&mut self, stage: u8) {
        debug_assert!(stage < Self::STAGES, "stage {stage} out of range");
        self.state.stage = stage;
    }

    /// Draw the outcome of the round whose last stage just completed: the
    /// packets delivered, and the window/phase the next round starts from.
    /// The only part of a chain transition that consumes random numbers.
    /// Neither reads nor writes the stage counter, which belongs to the
    /// caller while an SSA kernel runs (it is stale in `self` until
    /// [`TcpChain::set_stage`]).
    pub(crate) fn complete_round(&mut self, rng: &mut impl Rng) -> Transition {
        let s = self.state;
        match s.phase {
            Phase::SlowStart | Phase::CongAvoid => {
                let succ = self.sample_first_loss(s.w, rng);
                if succ == s.w {
                    self.on_clean_round();
                } else {
                    self.on_lossy_round(succ);
                }
                Transition { delivered: succ }
            }
            Phase::Timeout { exp } => {
                if rng.gen_range(0.0..1.0) < self.path.loss {
                    // Retransmission lost: double the backoff (capped).
                    self.state.phase = Phase::Timeout {
                        exp: (exp + 1).min(Self::MAX_BACKOFF_EXP),
                    };
                    Transition { delivered: 0 }
                } else {
                    // Retransmission delivered: slow-start restart.
                    self.state.w = 1;
                    self.state.c = false;
                    self.state.phase = if self.state.ssthresh <= 1 {
                        Phase::CongAvoid
                    } else {
                        Phase::SlowStart
                    };
                    Transition { delivered: 1 }
                }
            }
        }
    }

    /// Enumerate the outcome distribution of one stage transition from
    /// `state`: `(next_state, probability, delivered)` triples summing to 1.
    /// This is the analytical counterpart of [`TcpChain::step`], used by the
    /// exact CTMC solver on reduced models and to cross-validate the sampler.
    /// Collects [`TcpChain::for_each_outcome`].
    pub fn outcomes(&self, state: TcpChainState) -> Vec<(TcpChainState, f64, u32)> {
        let mut v = Vec::new();
        self.for_each_outcome(state, |next, prob, delivered| {
            v.push((next, prob, delivered))
        });
        v
    }

    /// Call `f(next_state, probability, delivered)` once per outcome of one
    /// stage transition from `state`, in [`TcpChain::outcomes`]' order and
    /// with its bits: the clean round first, then the first loss after
    /// `g = 0..w` successes. The exact solver's `Ctmc::transitions` pushes
    /// each straight into the enumeration's buffer.
    pub fn for_each_outcome(
        &self,
        state: TcpChainState,
        mut f: impl FnMut(TcpChainState, f64, u32),
    ) {
        // Intermediate Erlang stages advance deterministically.
        if state.stage + 1 < Self::STAGES {
            let mut next = state;
            next.stage += 1;
            return f(next, 1.0, 0);
        }
        let base = TcpChainState { stage: 0, ..state };
        let p = self.path.loss;
        match state.phase {
            Phase::SlowStart | Phase::CongAvoid => {
                let w = state.w;
                // Clean round.
                let clean = base.after_clean_round(self.wmax);
                f(clean, self.no_loss_prob[w as usize], w);
                // First loss after `g` successes (g = 0..w-1).
                for g in 0..w {
                    let lossy = base.after_lossy_round(g);
                    f(lossy, (1.0 - p).powi(g as i32) * p, g);
                }
            }
            Phase::Timeout { exp } => {
                let fail = TcpChainState {
                    phase: Phase::Timeout {
                        exp: (exp + 1).min(Self::MAX_BACKOFF_EXP),
                    },
                    ..base
                };
                let ok = TcpChainState {
                    w: 1,
                    c: false,
                    phase: if base.ssthresh <= 1 {
                        Phase::CongAvoid
                    } else {
                        Phase::SlowStart
                    },
                    ..base
                };
                f(fail, p, 0);
                f(ok, 1.0 - p, 1);
            }
        }
    }

    /// Force the chain into `state` (test/solver support).
    pub fn set_state(&mut self, state: TcpChainState) {
        self.state = state;
    }

    fn on_clean_round(&mut self) {
        self.state = self.state.after_clean_round(self.wmax);
    }

    fn on_lossy_round(&mut self, succ: u32) {
        self.state = self.state.after_lossy_round(succ);
    }

    /// Empirical achievable throughput of a **backlogged** source driving
    /// this chain, in packets per second, estimated over `transitions` stage
    /// transitions — [`TcpChain::STAGES`] of them make one round (the
    /// paper's `σ_k`). Scales as `σR/R`, so callers can cache per-round
    /// values.
    pub fn achievable_throughput(
        path: PathSpec,
        wmax: u32,
        transitions: u64,
        rng: &mut impl Rng,
    ) -> f64 {
        let mut chain = TcpChain::new(path, wmax);
        // Warm up past slow start.
        for _ in 0..1_000 {
            chain.step(rng);
        }
        // Mean holding time per phase, `1/rate` of the same table entries
        // the SSA reads (so the sum below adds the same terms in the same
        // order as dividing per transition would).
        let hold = chain.rates.map(|r| 1.0 / r);
        let mut time = 0.0;
        let mut delivered: u64 = 0;
        for _ in 0..transitions {
            // Mean holding time suffices for a throughput estimate (the
            // holding times are exponential with this mean and independent
            // of the outcome draw).
            time += hold[phase_slot(chain.state.phase)];
            delivered += u64::from(chain.step(rng).delivered);
        }
        delivered as f64 / time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pftk;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn path(p: f64, rtt_ms: f64, to: f64) -> PathSpec {
        PathSpec::from_ms(p, rtt_ms, to)
    }

    /// Run one full Erlang round (k stages) and return its outcome.
    fn round(c: &mut TcpChain, rng: &mut SmallRng) -> Transition {
        let mut t = Transition { delivered: 0 };
        for _ in 0..TcpChain::STAGES {
            t = c.step(rng);
        }
        t
    }

    #[test]
    fn starts_in_slow_start_and_grows() {
        let mut rng = SmallRng::seed_from_u64(1);
        // Negligible loss: the window should climb.
        let mut c = TcpChain::new(path(1e-6, 100.0, 2.0), 32);
        for _ in 0..20 {
            round(&mut c, &mut rng);
        }
        assert_eq!(c.state().w, 32, "window should reach wmax");
        assert_eq!(c.state().phase, Phase::CongAvoid);
    }

    #[test]
    fn congestion_avoidance_needs_two_rounds_per_increment() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut c = TcpChain::new(path(1e-9, 100.0, 2.0), 1000);
        // Force CA at a known window.
        c.state.phase = Phase::CongAvoid;
        c.state.w = 10;
        c.state.c = false;
        c.state.ssthresh = 5;
        round(&mut c, &mut rng);
        assert_eq!(c.state().w, 10);
        assert!(c.state().c);
        round(&mut c, &mut rng);
        assert_eq!(c.state().w, 11);
        assert!(!c.state().c);
    }

    #[test]
    fn big_window_loss_goes_to_recovery_small_to_timeout() {
        let mut rng = SmallRng::seed_from_u64(3);
        // p = 0.9: the first packet almost surely dies → succ < 3 → timeout.
        let mut c = TcpChain::new(path(0.9, 100.0, 2.0), 32);
        c.state.phase = Phase::CongAvoid;
        c.state.w = 2;
        let _ = round(&mut c, &mut rng);
        assert!(
            matches!(c.state().phase, Phase::Timeout { exp: 0 }),
            "{:?}",
            c.state()
        );
    }

    #[test]
    fn timeout_backoff_caps_at_six() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut c = TcpChain::new(path(0.999, 100.0, 2.0), 32);
        c.state.phase = Phase::Timeout { exp: 0 };
        for _ in 0..20 {
            round(&mut c, &mut rng);
            if let Phase::Timeout { exp } = c.state().phase {
                assert!(exp <= TcpChain::MAX_BACKOFF_EXP);
            }
        }
        assert_eq!(
            c.state().phase,
            Phase::Timeout {
                exp: TcpChain::MAX_BACKOFF_EXP
            }
        );
        // Rate in deep backoff is 64× slower than the first timeout.
        let deep = c.rate();
        c.state.phase = Phase::Timeout { exp: 0 };
        assert!((c.rate() / deep - 64.0).abs() < 1e-9);
    }

    #[test]
    fn triple_dupack_loss_halves_window_without_dead_round() {
        let mut rng = SmallRng::seed_from_u64(5);
        // p = 0.35 with W = 16 makes the first loss land at position >= 3
        // reasonably often; find such a draw and check the transition.
        let mut c = TcpChain::new(path(0.35, 100.0, 2.0), 32);
        loop {
            c.state.phase = Phase::CongAvoid;
            c.state.w = 16;
            c.state.c = false;
            c.state.stage = 0;
            let t = round(&mut c, &mut rng);
            if t.delivered >= 3 && t.delivered < 16 {
                assert_eq!(c.state().w, 8, "window halves on TD loss");
                assert_eq!(c.state().phase, Phase::CongAvoid);
                break;
            }
        }
    }

    /// The chain's backlogged throughput should track the PFTK formula — the
    /// same sanity check Padhye et al. run against measurements. Model-to-
    /// formula agreement within ±35% across the paper's parameter range is
    /// what the literature reports; we assert that band.
    #[test]
    fn backlogged_throughput_tracks_pftk() {
        let mut rng = SmallRng::seed_from_u64(6);
        for &(p, to) in &[
            (0.004, 4.0),
            (0.02, 2.0),
            (0.02, 4.0),
            (0.04, 4.0),
            (0.01, 1.0),
        ] {
            let spec = path(p, 200.0, to);
            let sigma_model = TcpChain::achievable_throughput(spec, 64, 300_000, &mut rng);
            let sigma_pftk = pftk::throughput_pps(&spec);
            let ratio = sigma_model / sigma_pftk;
            assert!(
                (0.65..1.35).contains(&ratio),
                "p={p} TO={to}: model {sigma_model:.2} vs PFTK {sigma_pftk:.2} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn throughput_scales_inversely_with_rtt() {
        let mut rng = SmallRng::seed_from_u64(7);
        let s1 = TcpChain::achievable_throughput(path(0.02, 100.0, 4.0), 64, 200_000, &mut rng);
        let s2 = TcpChain::achievable_throughput(path(0.02, 300.0, 4.0), 64, 200_000, &mut rng);
        let ratio = s1 / s2;
        assert!((ratio - 3.0).abs() < 0.25, "σ(100ms)/σ(300ms) = {ratio}");
    }

    #[test]
    fn outcomes_probabilities_sum_to_one() {
        let c = TcpChain::new(path(0.03, 100.0, 2.0), 8);
        let states = [
            TcpChainState {
                w: 4,
                c: false,
                ssthresh: 8,
                phase: Phase::CongAvoid,
                stage: TcpChain::STAGES - 1,
            },
            TcpChainState {
                w: 2,
                c: true,
                ssthresh: 4,
                phase: Phase::SlowStart,
                stage: TcpChain::STAGES - 1,
            },
            TcpChainState {
                w: 1,
                c: false,
                ssthresh: 2,
                phase: Phase::Timeout { exp: 3 },
                stage: TcpChain::STAGES - 1,
            },
            TcpChainState {
                w: 4,
                c: false,
                ssthresh: 8,
                phase: Phase::CongAvoid,
                stage: 0,
            },
        ];
        for st in states {
            let total: f64 = c.outcomes(st).iter().map(|&(_, pr, _)| pr).sum();
            assert!((total - 1.0).abs() < 1e-12, "{st:?}: {total}");
        }
    }

    /// `outcomes` and the two round handlers as they were when `outcomes`
    /// cloned the whole chain (loss table and all) once per outcome to call
    /// them, kept verbatim as the reference for the by-value version.
    fn outcomes_by_cloning(
        chain: &TcpChain,
        state: TcpChainState,
    ) -> Vec<(TcpChainState, f64, u32)> {
        fn on_clean_round(chain: &mut TcpChain) {
            let s = chain.state;
            match s.phase {
                Phase::SlowStart => {
                    let grown = (s.w + s.w.div_ceil(2)).min(chain.wmax);
                    if grown >= s.ssthresh {
                        chain.state.w = grown.min(s.ssthresh).min(chain.wmax);
                        chain.state.phase = Phase::CongAvoid;
                        chain.state.c = false;
                    } else {
                        chain.state.w = grown;
                    }
                }
                Phase::CongAvoid => {
                    if s.c {
                        chain.state.w = (s.w + 1).min(chain.wmax);
                        chain.state.c = false;
                    } else {
                        chain.state.c = true;
                    }
                }
                _ => unreachable!("clean round only in sending phases"),
            }
        }
        fn on_lossy_round(chain: &mut TcpChain, succ: u32) {
            let s = chain.state;
            chain.state.ssthresh = (s.w / 2).max(2);
            if succ >= 3 {
                chain.state.w = (s.w / 2).max(1);
                chain.state.c = false;
                chain.state.phase = Phase::CongAvoid;
            } else {
                chain.state.phase = Phase::Timeout { exp: 0 };
            }
        }
        if !matches!(state.phase, Phase::SlowStart | Phase::CongAvoid)
            || state.stage + 1 < TcpChain::STAGES
        {
            // Stage advances and timeouts never cloned.
            return chain.outcomes(state);
        }
        let base = TcpChainState { stage: 0, ..state };
        let p = chain.path.loss;
        let w = state.w;
        let mut v = Vec::with_capacity(w as usize + 1);
        let mut clean = chain.clone();
        clean.state = base;
        on_clean_round(&mut clean);
        v.push((clean.state, chain.no_loss_prob[w as usize], w));
        for g in 0..w {
            let mut lossy = chain.clone();
            lossy.state = base;
            on_lossy_round(&mut lossy, g);
            v.push((lossy.state, (1.0 - p).powi(g as i32) * p, g));
        }
        v
    }

    #[test]
    fn outcomes_and_rates_are_bit_equal_to_the_cloning_version() {
        // Every chain state the exact solver can enumerate, on the benchmark's
        // chain (wmax = 4) and on the tests' (wmax = 6).
        for wmax in [4, 6] {
            let chain = TcpChain::new(path(0.06, 200.0, 2.0), wmax);
            let mut seen = vec![chain.state()];
            let mut head = 0;
            while head < seen.len() {
                let s = seen[head];
                head += 1;
                let bits = |v: Vec<(TcpChainState, f64, u32)>| -> Vec<_> {
                    v.into_iter()
                        .map(|(t, pr, d)| (t, pr.to_bits(), d))
                        .collect()
                };
                assert_eq!(
                    bits(chain.outcomes(s)),
                    bits(outcomes_by_cloning(&chain, s))
                );
                let mut moved = chain.clone();
                moved.set_state(s);
                assert_eq!(chain.rate_at(&s).to_bits(), moved.rate().to_bits());
                for (t, _, _) in chain.outcomes(s) {
                    if !seen.contains(&t) {
                        seen.push(t);
                    }
                }
            }
            assert!(seen.len() > 100, "wmax {wmax}: {} states", seen.len());
        }
    }

    #[test]
    fn sampler_matches_enumerated_distribution() {
        use std::collections::HashMap;
        let mut rng = SmallRng::seed_from_u64(77);
        let proto = TcpChain::new(path(0.08, 100.0, 2.0), 6);
        let start = TcpChainState {
            w: 5,
            c: false,
            ssthresh: 6,
            phase: Phase::CongAvoid,
            stage: TcpChain::STAGES - 1,
        };
        let expected: HashMap<_, f64> = proto
            .outcomes(start)
            .into_iter()
            .map(|(st, pr, d)| ((st, d), pr))
            .collect();
        let n = 400_000;
        let mut counts: HashMap<_, u64> = HashMap::new();
        let mut c = proto.clone();
        for _ in 0..n {
            c.set_state(start);
            let t = c.step(&mut rng);
            *counts.entry((c.state(), t.delivered)).or_default() += 1;
        }
        for (key, pr) in &expected {
            let got = *counts.get(key).unwrap_or(&0) as f64 / n as f64;
            assert!(
                (got - pr).abs() < 0.01 + 0.1 * pr,
                "{key:?}: sampled {got:.4} vs exact {pr:.4}"
            );
        }
        // No outcome outside the enumerated support.
        for key in counts.keys() {
            assert!(expected.contains_key(key), "unexpected outcome {key:?}");
        }
    }

    /// The first-loss table against the logarithm it stands in for, draw for
    /// draw, at every window `w = 1..=64` of seven loss rates from 1e-9 to
    /// 0.999999: 10⁶ seeded `v` per rate (half uniform on `[ε, 1)` as the
    /// chain draws them, half log-uniform over `[max(T[64], ε), 1)`, where
    /// the table has entries to bracket), every entry `T[g]` ± 0…8 ulp and
    /// every `T[g]·(1 ± δ)` ± 1 ulp. Every entry ± 8 ulp must be left to the
    /// logarithm (the fallback runs there), and at the paper's loss rates
    /// the table must decide at least 99.9 % of the seeded draws.
    /// Mutations seen to turn it red: `TABLE_BAND = 0.0` (the entries ± ulp
    /// are decided by the table; with that assertion dropped, the table
    /// disagrees with the logarithm at `v = T[1]`, p = 1e-9),
    /// `TABLE_BAND = 4e-15`, narrower than the error budget (disagrees at
    /// p = 0.5, w = 33), and the search's count taken as `g` without the
    /// `- 1` (a first loss one success late: it indexes past the table at
    /// once).
    #[test]
    fn first_loss_table_agrees_with_the_logarithm() {
        const W: u32 = 64;
        const DRAWS: u32 = 1_000_000;
        let below_one = 1.0f64.next_down();
        let mut rng = SmallRng::seed_from_u64(43);
        for p in [1e-9, 1e-6, 0.005, 0.02, 0.06, 0.5, 0.999999] {
            let c = TcpChain::new(path(p, 100.0, 2.0), W);
            let check = |v: f64, w: u32| {
                let want = Some(c.ln_first_loss(v)).filter(|&g| g < w);
                assert_eq!(c.first_loss_below(v, w), want, "p {p} w {w} v {v:e}");
            };
            let ln_floor = c.no_loss_prob[W as usize].max(f64::EPSILON).ln();
            let mut decided = 0;
            for i in 0..DRAWS {
                let v = if i % 2 == 0 {
                    rng.gen_range(f64::EPSILON..1.0)
                } else {
                    (rng.gen_range(0.0f64..1.0) * ln_floor)
                        .exp()
                        .clamp(f64::EPSILON, below_one)
                };
                (1..=W).for_each(|w| check(v, w));
                decided += u32::from(c.table_first_loss(v, W) != TableDraw::Near);
            }
            if (0.005..=0.5).contains(&p) {
                assert!(decided >= DRAWS - DRAWS / 1000, "p {p}: {decided} decided");
            }
            for w in 1..=W {
                for (g, &entry) in c.no_loss_prob.iter().enumerate() {
                    let mut ulps = vec![entry];
                    for step in [f64::next_up, f64::next_down] {
                        ulps.extend((0..8).scan(entry, |v, _| {
                            *v = step(*v);
                            Some(*v)
                        }));
                    }
                    let band = [1.0 - TABLE_BAND, 1.0 + TABLE_BAND].map(|f| entry * f);
                    let edges = band
                        .into_iter()
                        .flat_map(|b| [b.next_down(), b, b.next_up()]);
                    let in_range = |v: &f64| (f64::EPSILON..1.0).contains(v);
                    for &v in ulps.iter().filter(|v| in_range(v)) {
                        check(v, w);
                        if g <= w as usize {
                            assert_eq!(
                                c.table_first_loss(v, w),
                                TableDraw::Near,
                                "p {p} w {w} g {g}"
                            );
                        }
                    }
                    edges.filter(in_range).for_each(|v| check(v, w));
                }
            }
        }
    }

    /// In steady congestion avoidance, the mean window should sit near the
    /// square-root law E[W] ≈ √(3/(2bp)) + O(1) (Padhye et al., b = 2).
    #[test]
    fn mean_window_follows_square_root_law() {
        let mut rng = SmallRng::seed_from_u64(10);
        for &p in &[0.01, 0.02, 0.05] {
            let mut c = TcpChain::new(path(p, 150.0, 2.0), 64);
            // Warm up, then average W over sending-phase rounds.
            for _ in 0..2_000 {
                c.step(&mut rng);
            }
            let (mut sum, mut n) = (0.0, 0u64);
            for _ in 0..400_000 {
                let st = c.state();
                if matches!(st.phase, Phase::SlowStart | Phase::CongAvoid) && st.stage == 0 {
                    sum += f64::from(st.w);
                    n += 1;
                }
                c.step(&mut rng);
            }
            let mean_w = sum / n as f64;
            let law = (3.0 / (2.0 * 2.0 * p)).sqrt();
            let ratio = mean_w / law;
            assert!(
                (0.7..1.6).contains(&ratio),
                "p={p}: E[W] = {mean_w:.1} vs law {law:.1} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn delivered_never_exceeds_window() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut c = TcpChain::new(path(0.05, 100.0, 4.0), 24);
        for _ in 0..100_000 {
            let w_before = c.state().w;
            let phase = c.state().phase;
            let t = round(&mut c, &mut rng);
            match phase {
                Phase::SlowStart | Phase::CongAvoid => assert!(t.delivered <= w_before),
                Phase::Timeout { .. } => assert!(t.delivered <= 1),
            }
            assert!(c.state().w >= 1 && c.state().w <= 24);
        }
    }
}
