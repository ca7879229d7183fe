//! `tcp-model` — the analytical side of the CoNEXT'07 multipath-TCP-streaming
//! reproduction: the paper's continuous-time Markov model of DMP-streaming
//! (Section 4), the machinery to solve it, and the supporting formulas used
//! to explore the parameter space (Section 7).
//!
//! * [`chain`] — the per-flow TCP Markov chain with state `(W, C, L, E, Q)`;
//! * [`dmp`] — the joint model `(X₁…X_K, N)` with the live-streaming buffer
//!   cap `N_max = µτ`, solved by stochastic simulation; includes the
//!   static-streaming and single-path baselines;
//! * [`solver`] — an exact stationary solver for small CTMCs, used to
//!   cross-validate the stochastic solver;
//! * [`pftk`] — the Padhye et al. throughput formula, the paper's knob for
//!   setting `σ_a/µ` ratios and heterogeneous loss rates;
//! * [`search`] — required-startup-delay search (`f < 10⁻⁴`) for Figures
//!   9–11;
//! * [`fluid`] — the Section 7.3 on/off fluid comparison of DMP vs
//!   single-path streaming;
//! * [`calibrate`] — self-consistent `σ_a/µ` dialling against the chain's
//!   own backlogged throughput;
//! * [`stored`] — the stored-video extension (the paper's future work);
//! * [`batch`] — τ/µ sweeps as grids of independent model cells (the
//!   capacity planner's), each a pure `run` its callers key and submit.

#![warn(missing_docs)]

pub mod batch;
pub mod calibrate;
pub mod chain;
pub mod dmp;
pub mod exact;
pub mod fluid;
pub mod pftk;
pub mod search;
pub mod solver;
pub mod stored;

pub use batch::{FluidCellSpec, LateCellSpec, MuCellSpec, PlannerScheme};
pub use chain::{Phase, TcpChain, TcpChainState};
pub use dmp::{static_streaming_late_fraction, DmpModel, DmpSsa, LateFracEstimate};
pub use exact::{exact_tau_sweep, ExactDmp, ExactLateFraction};
pub use search::{
    evaluate_tau, max_mu, required_startup_delay, PlannerOptions, SearchOptions, TauEval,
    TauSearchSpec,
};
pub use solver::{solve_stationary, CsrCtmc, Ctmc, SolveError, SolveOptions, Stationary};
pub use stored::{stored_video_late_fraction, StoredVideoResult};
