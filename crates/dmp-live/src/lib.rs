//! `dmp-live` — DMP-streaming over **real TCP sockets**, reproducing the
//! paper's Section 6 Internet experiments in-process.
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
//!   `dmp_core::scheme::Scheme` behind a mutex + per-path sender threads),
//!   the client half ([`stream::receive`]: per-path reader threads reporting
//!   arrivals) and [`run_stream`], the two joined around a delivery trace;
//!   the `dmp-server` / `dmp-client` binaries run one half each;
//! * [`experiment`] — the Fig. 7 validation harness: run, measure late
//!   fractions, estimate effective path parameters, compare to the model.
//!   A [`LiveRun`] also returns what the run left behind: the rate
//!   timeline each emulated path actually applied and, when the experiment
//!   names a trace destination, the flight-recorder file it wrote.
//!
//! The execution model is the kernel's: one `std` thread per sender, reader
//! and emulator stage, each blocked in its own socket call or channel, with
//! the kernel send buffers as the scheduler, as in the paper. Every thread a
//! run starts is joined before it returns; `sock` holds the one piece of
//! foreign code (socket buffer sizes set before the handshake) and the
//! cut-off that frees a thread blocked on a socket.
//!
//! The paths are unscripted, as the paper's were: each emulator's rate
//! follows its own seeded random resampler. Scripted path dynamics run on
//! the packet simulator (the `scenario` crate), which this crate does not
//! link: it builds on `obs`, `dmp-core` and `tcp-model` alone, and reads no
//! environment. Where a trace goes is part of the experiment's input.

#![warn(missing_docs)]

pub mod emulator;
pub mod experiment;
mod sock;
pub mod stream;
pub mod wire;

pub use emulator::{AppliedPoint, PathEmulator, PathProfile};
pub use experiment::{model_prediction, run_experiment, LiveExperiment, LiveRun};
pub use stream::{run_stream, LiveConfig, LiveOutput};
