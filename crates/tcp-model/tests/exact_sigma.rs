//! The per-flow chain's backlogged throughput, solved exactly.
//!
//! Every model point dials σ_a/µ through
//! [`calibrate::chain_per_round_throughput`], a Monte-Carlo estimate of the
//! per-round throughput σR of one [`TcpChain`] (1.5 M stage transitions).
//! That number is a Markov reward: σR = Σ π(x) · rate(x) · E[delivered | x]
//! over the chain's stationary law at `R = 1`, which [`CsrCtmc`] solves. This
//! file measures the chain at the production window cap (`wmax = 64`) and
//! holds the Monte-Carlo calibration to the exact value.
//!
//! `cargo test --release -p tcp-model --test exact_sigma -- --nocapture`
//! prints each point's walls (enumerate, solve, Monte-Carlo run). The
//! Monte-Carlo wall is an uncached run, so it is real whichever test fills
//! the calibration's process-wide memo first.

use std::time::Instant;

use dmp_core::spec::PathSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tcp_model::chain::TcpChainState;
use tcp_model::{calibrate, CsrCtmc, Ctmc, DmpModel, SolveOptions, TcpChain};

/// One backlogged flow: the chain alone, its rates at `R = 1` s.
struct PerFlow(TcpChain);

impl Ctmc for PerFlow {
    type State = TcpChainState;

    fn initial(&self) -> TcpChainState {
        self.0.state()
    }

    fn transitions(&self, s: &TcpChainState, out: &mut Vec<(TcpChainState, f64)>) {
        let rate = self.0.rate_at(s);
        self.0.for_each_outcome(*s, |next, prob, _| {
            if prob > 0.0 {
                out.push((next, rate * prob));
            }
        });
    }
}

/// What one exact σR solve measured.
struct Exact {
    sigma_r: f64,
    states: usize,
    nnz: usize,
    enumerate_ms: f64,
    solve_ms: f64,
    sweeps: u32,
}

/// The chain on a path of loss `loss` and timeout ratio `to_ratio`, at
/// `R = 1` s.
fn path(loss: f64, to_ratio: f64) -> PathSpec {
    PathSpec {
        loss,
        rtt_s: 1.0,
        to_ratio,
    }
}

/// One Monte-Carlo σR run at the calibration's seed and transition count,
/// bypassing its memo: at `wmax = DmpModel::DEFAULT_WMAX` exactly the run
/// [`calibrate::chain_per_round_throughput`] caches.
fn monte_carlo_sigma_r(loss: f64, to_ratio: f64, wmax: u32) -> f64 {
    let mut rng = SmallRng::seed_from_u64(calibrate::CALIBRATION_SEED);
    let transitions = calibrate::CALIBRATION_TRANSITIONS;
    TcpChain::achievable_throughput(path(loss, to_ratio), wmax, transitions, &mut rng)
}

fn exact_sigma_r(loss: f64, to_ratio: f64, wmax: u32) -> Exact {
    let flow = PerFlow(TcpChain::new(path(loss, to_ratio), wmax));
    let opts = SolveOptions::default();
    let t0 = Instant::now();
    let csr = CsrCtmc::enumerate(&flow, &opts).expect("the per-flow chain enumerates");
    let enumerate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let sol = csr.solve_accelerated(&opts, None);
    let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
    let sigma_r = sol.expect(|s| {
        let mut delivered = 0.0;
        flow.0
            .for_each_outcome(*s, |_, prob, d| delivered += prob * f64::from(d));
        flow.0.rate_at(s) * delivered
    });
    Exact {
        sigma_r,
        states: csr.len(),
        nnz: csr.nnz(),
        enumerate_ms,
        solve_ms,
        sweeps: sol.iterations,
    }
}

#[test]
fn monte_carlo_calibration_meets_the_exact_per_round_throughput() {
    // (loss, T_O, wmax): three production-cap points across the paper's
    // loss range, and the exact solver's usual small cap.
    let points = [
        (0.02, 4.0, 64),
        (0.06, 2.0, 64),
        (0.005, 4.0, 64),
        (0.02, 4.0, 4),
    ];
    for (loss, to_ratio, wmax) in points {
        let exact = exact_sigma_r(loss, to_ratio, wmax);
        let t0 = Instant::now();
        let mc = monte_carlo_sigma_r(loss, to_ratio, wmax);
        let mc_ms = t0.elapsed().as_secs_f64() * 1e3;
        if wmax == DmpModel::DEFAULT_WMAX {
            let cached = calibrate::chain_per_round_throughput(loss, to_ratio);
            assert_eq!(cached.to_bits(), mc.to_bits(), "p {loss}: memo vs run");
        }
        let rel = (mc - exact.sigma_r) / exact.sigma_r;
        println!(
            "p {loss} T_O {to_ratio} wmax {wmax}: {} states, {} nnz; enumerate \
             {:.2} ms, solve {:.2} ms ({} sweeps), Monte-Carlo {mc_ms:.2} ms; \
             σR exact {:.6}, MC {mc:.6}, rel {rel:+.2e}",
            exact.states,
            exact.nnz,
            exact.enumerate_ms,
            exact.solve_ms,
            exact.sweeps,
            exact.sigma_r
        );
        if wmax == 64 {
            // The state space depends on the cap alone (every loss
            // pattern has positive probability).
            assert_eq!((exact.states, exact.nnz), (16_228, 136_604), "p {loss}");
        }
        assert!(
            rel.abs() < 5e-3,
            "p {loss} T_O {to_ratio} wmax {wmax}: MC {mc} vs exact {} ({rel:+.2e})",
            exact.sigma_r
        );
    }
}

/// The Monte-Carlo σR of each point above, to the bit: every model
/// artifact dials σ_a/µ through these values, so a change to the chain's
/// sampler (the outcome draws, the geometric first-loss draw, the stage
/// bookkeeping of `TcpChain::step`) that moves one trajectory shows here
/// before it moves an artifact. Recorded at the commit before the
/// geometric draw lost its `floor()` call.
#[test]
fn monte_carlo_calibration_reproduces_recorded_bits() {
    let recorded = [
        ((0.02, 4.0, 64), 0x4010_b464_5344_d184_u64), // 4.176163960528701
        ((0.06, 2.0, 64), 0x4001_474a_aba1_90f5),     // 2.1598103913003066
        ((0.005, 4.0, 64), 0x4025_982a_4a62_9f80),    // 10.797197651423403
        ((0.02, 4.0, 4), 0x4005_f58a_1f82_c2f8),      // 2.74489235513499
    ];
    for ((loss, to_ratio, wmax), bits) in recorded {
        let mc = if wmax == DmpModel::DEFAULT_WMAX {
            calibrate::chain_per_round_throughput(loss, to_ratio)
        } else {
            monte_carlo_sigma_r(loss, to_ratio, wmax)
        };
        assert_eq!(
            mc.to_bits(),
            bits,
            "p {loss} T_O {to_ratio} wmax {wmax}: σR {mc} vs recorded {}",
            f64::from_bits(bits)
        );
    }
}
