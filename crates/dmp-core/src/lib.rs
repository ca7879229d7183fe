//! Core building blocks for **DMP-streaming** — Dynamic MPath-streaming of
//! live video over multiple TCP connections (Wang, Wei, Guo, Towsley,
//! *Multipath Live Streaming via TCP*, CoNEXT 2007).
//!
//! This crate is runtime-agnostic: it contains the pieces of the scheme that
//! are shared between the discrete-event simulation (`dmp-sim`), the
//! real-socket implementation (`dmp-live`, one thread per sender and
//! reader), and the analytical model (`tcp-model`):
//!
//! * [`spec`] — parameter types describing videos, paths, and experiments;
//! * [`scheme`] — the scheme itself: [`Scheme`] decides who holds the server
//!   queue's lock next, what the holder takes and (static streaming) where a
//!   generated packet is assigned, for every [`spec::PullStrategy`]; beside
//!   it the queues it is built from and the client-side reorder buffer. Both
//!   transports run this one type;
//! * [`trace`] — per-packet delivery traces recorded by either backend;
//! * [`metrics`] — the paper's performance metric (fraction of late packets),
//!   computed both in playback order and in arrival order;
//! * [`resilience`] — glitch/recovery metrics for fault-injection scenarios
//!   (glitch durations, worst-window late fraction, time to recover);
//! * [`fleet`] — fleet-level aggregation: per-session outcomes folded into
//!   sessions started/completed, aggregate goodput, glitch distributions,
//!   and the fraction of sessions meeting the 1.6× headroom rule;
//! * [`stats`] — small statistics helpers (means, confidence intervals).
//!
//! # The scheme in one paragraph
//!
//! The server generates constant-bit-rate video packets in real time and
//! appends them to a single *server queue*. Each of the `K` TCP senders, when
//! its socket send buffer has room, locks the queue and pulls packets from the
//! head until it can accept no more. Because a path with higher achievable
//! TCP throughput drains its send buffer faster, it pulls a larger share of
//! the stream — the scheme *implicitly* infers per-path bandwidth from TCP
//! backpressure, with no probing traffic. The client reassembles packets by
//! sequence number and plays them back after a startup delay `τ`; a packet
//! arriving after its playback instant is *late*.

#![warn(missing_docs)]

pub mod fleet;
pub mod metrics;
pub mod resilience;
pub mod scheme;
pub mod spec;
pub mod stats;
pub mod trace;

pub use fleet::{Distribution, FleetReport, SessionOutcome, HEADROOM_RULE};
pub use metrics::{buffer_occupancy, BufferOccupancy, LateFractions, LatenessReport};
pub use resilience::{ResilienceReport, ResilienceSpec};
pub use scheme::{DynamicQueue, PathView, ReorderBuffer, Scheme, StreamPacket};
pub use spec::{PathSpec, SchedulerKind, VideoSpec};
pub use trace::{DeliveryRecord, StreamTrace};
