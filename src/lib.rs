//! # mptcp-streaming
//!
//! A full reproduction of **“Multipath Live Streaming via TCP: Scheme,
//! Performance and Benefits”** (Wang, Wei, Guo, Towsley — CoNEXT 2007) as a
//! set of production-quality Rust crates:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`netsim`] | discrete-event packet simulator: TCP Reno, drop-tail links, FTP/HTTP background traffic |
//! | [`dmp_core`] | the DMP-streaming scheme: schedulers, reorder buffer, late-packet metrics, stats |
//! | [`tcp_model`] | the analytical side: per-flow TCP Markov chain, CTMC solvers, PFTK formula, fluid model, startup-delay search |
//! | [`dmp_sim`] | the paper's Section 5 simulation experiments (Tables 1–3, Figs 4–5) |
//! | [`dmp_live`] | DMP-streaming over real TCP sockets (a `std` thread per sender and reader) + path emulator (Fig 7) |
//!
//! The reproduction harness is the `dmp-bench` crate: one named target per
//! table and figure (`cargo run --release -p dmp-bench -- fig8`, …, `all`).
//!
//! ## Thirty-second tour
//!
//! Ask the model whether two ADSL lines can carry a video that neither could
//! alone — the paper's headline use case:
//!
//! ```
//! use mptcp_streaming::prelude::*;
//!
//! // One path: 2% loss, 150 ms RTT, timeout ratio 4.
//! let path = PathSpec::from_ms(0.02, 150.0, 4.0);
//! // Achievable TCP throughput of the model's chain on that path:
//! let sigma = tcp_model::calibrate::chain_throughput_pps(&path);
//!
//! // A video at σa/µ = 1.6 over TWO such paths (the paper's rule)…
//! let mu = 2.0 * sigma / 1.6;
//! let model = DmpModel::new(vec![path; 2], mu, 10.0); // τ = 10 s
//! let f = model.late_fraction(200_000, 42).f;
//! // …streams with a tiny fraction of late packets,
//! assert!(f < 1e-2, "late fraction {f}");
//!
//! // while a single such path cannot even carry the bitrate (σ < µ).
//! assert!(sigma < mu);
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` for the
//! paper-to-code map.

pub use dmp_core;
pub use dmp_live;
pub use dmp_sim;
pub use netsim;
pub use tcp_model;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use dmp_core::metrics::{LateFractions, LatenessReport};
    pub use dmp_core::scheme::{DynamicQueue, ReorderBuffer, Scheme, StreamPacket};
    pub use dmp_core::spec::{PathSpec, SchedulerKind, VideoSpec};
    pub use dmp_core::trace::StreamTrace;
    pub use dmp_live::{LiveConfig, LiveExperiment, PathProfile};
    pub use dmp_sim::{run as run_sim_experiment, ExperimentSpec};
    pub use tcp_model::{
        required_startup_delay, DmpModel, LateFracEstimate, SearchOptions, TcpChain,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_usable_end_to_end() {
        let path = PathSpec::from_ms(0.02, 100.0, 2.0);
        let model = DmpModel::new(vec![path; 2], 20.0, 6.0);
        let est = model.late_fraction(50_000, 1);
        assert!(est.f >= 0.0 && est.f <= 1.0);
    }
}
