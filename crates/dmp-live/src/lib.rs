//! `dmp-live` — DMP-streaming over **real TCP sockets** with tokio,
//! reproducing the paper's Section 6 Internet experiments in-process.
//!
//! The paper implemented the scheme on Linux and streamed from a university
//! server to PlanetLab/ADSL hosts. Without multihomed Internet hosts (or
//! root for netem), this crate substitutes an in-process [`emulator`]: a
//! shaping proxy per path with configurable rate (optionally time-varying),
//! propagation delay, and a bounded queue. Everything the scheme itself
//! touches is real: kernel sockets, kernel send buffers, backpressure-driven
//! pull scheduling, cross-path reassembly.
//!
//! * [`wire`] — fixed-size packet framing (1448-byte frames as in the paper);
//! * [`emulator`] — the bandwidth/delay path emulator;
//! * [`stream`] — the server half ([`stream::serve`]: the core
//!   `dmp_core::scheme::Scheme` behind a mutex + per-path sender tasks), the
//!   client half ([`stream::receive`]: per-path readers reporting arrivals)
//!   and [`run_stream`], the two joined around a delivery trace; the
//!   `dmp-server` / `dmp-client` binaries run one half each;
//! * [`experiment`] — the Fig. 7 validation harness: run, measure late
//!   fractions, estimate effective path parameters, compare to the model.
//!   A [`LiveRun`] also returns what the run left behind: the shaping
//!   timeline each emulated path actually applied and, when the experiment
//!   names a trace destination, the flight-recorder file it wrote.
//!
//! The crate reads no environment and links no job runner: where a trace
//! goes is part of the experiment's input.

#![warn(missing_docs)]

pub mod emulator;
pub mod experiment;
pub mod stream;
pub mod wire;

pub use emulator::{AppliedPoint, PathEmulator, PathProfile};
pub use experiment::{model_prediction, run_experiment, LiveExperiment, LiveRun};
pub use stream::{run_stream, LiveConfig, LiveOutput};
