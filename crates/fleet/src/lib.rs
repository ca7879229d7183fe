//! Fleet-scale DMP streaming: many concurrent multipath sessions with churn.
//!
//! The paper evaluates one DMP-streaming session at a time. This crate asks
//! the operational question that follows: what happens when a *service* runs
//! thousands of such sessions — arriving and departing as a Poisson process,
//! possibly in flash crowds, contending on shared bottlenecks? The answer is
//! organised as:
//!
//! - [`spec::FleetSpec`] — the experiment: session count, the physical
//!   partition into shards, bottleneck dimensions, churn rates, an optional
//!   [`scenario::FleetTimeline`] of arrival-rate spikes.
//! - [`churn`] — Poisson arrival / exponential hold sampling, a pure
//!   function of `(seed, shard)`.
//! - [`shard`] — one shard = one self-contained [`netsim::Sim`] with
//!   arena-backed state, run to completion, read out as per-session
//!   [`dmp_core::SessionOutcome`]s.
//! - [`run`] — fans shards across a [`dmp_runner::Runner`] pool and merges
//!   outputs in shard-index order (one job per shard), so the fleet artifact
//!   is byte-identical across thread counts.
//!
//! Determinism contract: everything in [`run::FleetResult::artifact`] is a
//! pure function of the [`spec::FleetSpec`]; engine telemetry (the wheel and
//! far-heap high-water marks describe the event queue's storage, not the
//! simulated fleet) is kept in the volatile meta sidecar via
//! [`run::FleetResult::shards_meta`].

#![warn(missing_docs)]

pub mod churn;
pub mod run;
pub mod shard;
pub mod spec;

pub use churn::{shard_plans, SessionPlan};
pub use run::{run_fleet, FleetOptions, FleetResult};
pub use shard::{run_shard, telemetry_json, ShardOutput};
pub use spec::FleetSpec;
