//! The fleet experiment specification.
//!
//! A [`FleetSpec`] describes one *logical* experiment — N DMP sessions with
//! Poisson arrivals and exponential hold times, K paths each, competing on
//! shared bottlenecks — partitioned into **physical shards**. The partition
//! (`shard_sessions` sessions per shard, `bottlenecks_per_shard` shared
//! bottlenecks inside each) is part of the physics: sessions in one shard
//! contend with each other and sessions in different shards never meet, so
//! the partition belongs in the spec and in the cache key. *How shards are
//! executed* — one runner job each, on however many runner threads — is an
//! execution detail that must never change a result byte; it lives in
//! [`crate::run`], not here.

use cc::CcKind;
use dmp_core::spec::{PullStrategy, VideoSpec};
use scenario::FleetTimeline;

/// Specification of one fleet-scale experiment.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Fleet name (no whitespace; names artifacts and trace stems).
    pub name: String,
    /// Total sessions across the fleet.
    pub sessions: u32,
    /// Sessions per shard — the physical partition. The last shard takes
    /// the remainder when `sessions` is not a multiple.
    pub shard_sessions: u32,
    /// Shared bottleneck links inside each shard; a session's paths are
    /// spread over distinct bottlenecks, so this must be ≥
    /// `paths_per_session`.
    pub bottlenecks_per_shard: u32,
    /// Bottleneck bandwidth, Mbps.
    pub bottleneck_mbps: f64,
    /// Bottleneck one-way propagation delay, ms.
    pub bottleneck_delay_ms: f64,
    /// Bottleneck drop-tail buffer, packets.
    pub buffer_pkts: usize,
    /// Experiment window, seconds: sessions arrive on `[0, duration_s)`.
    pub duration_s: f64,
    /// Settling time before the window opens, seconds (arrival clocks are
    /// relative to the end of warm-up).
    pub warmup_s: f64,
    /// Base Poisson session arrival rate **per shard**, sessions/second.
    /// The fleet-wide rate is this times the shard count; keeping the rate
    /// per shard keeps every shard's churn sampler independent.
    pub arrival_rate_per_s: f64,
    /// Mean session hold (streaming) time, seconds; holds are exponential.
    pub mean_hold_s: f64,
    /// The video every session streams.
    pub video: VideoSpec,
    /// Video TCP socket send buffer, packets (the DMP mechanism).
    pub send_buf_pkts: usize,
    /// Paths per session, K (the paper's scheme; 2 throughout the paper).
    pub paths_per_session: u32,
    /// Fleet-wide arrival-rate timeline (flash-crowd spikes on the base
    /// rate; empty = homogeneous Poisson arrivals).
    pub timeline: FleetTimeline,
    /// Startup delay τ the per-session lateness/glitch metrics evaluate at.
    pub tau_s: f64,
    /// Congestion control run by every session's video flows (background
    /// traffic, when present, always runs Reno).
    pub cc: CcKind,
    /// How each session's server picks the path serving the next packet.
    pub strategy: PullStrategy,
    /// RNG seed; churn and every shard RNG derive from it deterministically.
    pub seed: u64,
}

impl FleetSpec {
    /// A small fleet with defaults matching the paper's simulation setups
    /// (50 pkt/s × 1500 B video, 32-packet send buffers, K = 2).
    pub fn new(name: impl Into<String>, sessions: u32, shard_sessions: u32, seed: u64) -> Self {
        Self {
            name: name.into(),
            sessions,
            shard_sessions,
            bottlenecks_per_shard: 2,
            bottleneck_mbps: 3.7,
            bottleneck_delay_ms: 10.0,
            buffer_pkts: 50,
            duration_s: 120.0,
            warmup_s: 5.0,
            arrival_rate_per_s: 0.2,
            mean_hold_s: 60.0,
            video: VideoSpec::new(50.0),
            send_buf_pkts: 32,
            paths_per_session: 2,
            timeline: FleetTimeline::default(),
            tau_s: 4.0,
            cc: CcKind::Reno,
            strategy: PullStrategy::RoundRobin,
            seed,
        }
    }

    /// Number of physical shards the fleet partitions into.
    pub fn shard_count(&self) -> u32 {
        self.sessions.div_ceil(self.shard_sessions)
    }

    /// Global index of the first session in `shard`.
    pub fn first_session(&self, shard: u32) -> u32 {
        shard * self.shard_sessions
    }

    /// Sessions living in `shard` (the last shard takes the remainder).
    pub fn sessions_in_shard(&self, shard: u32) -> u32 {
        let first = self.first_session(shard);
        self.sessions.saturating_sub(first).min(self.shard_sessions)
    }

    /// Check the spec; returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() || self.name.chars().any(char::is_whitespace) {
            return Err(format!(
                "fleet name must be non-empty and whitespace-free: {:?}",
                self.name
            ));
        }
        if self.sessions == 0 || self.shard_sessions == 0 {
            return Err("sessions and shard_sessions must be > 0".into());
        }
        if self.paths_per_session == 0 {
            return Err("paths_per_session must be ≥ 1".into());
        }
        if self.send_buf_pkts == 0 {
            return Err("send_buf_pkts must be ≥ 1: a sender without a buffer \
                        refuses every chunk and the whole fleet reads as late"
                .into());
        }
        if self.bottlenecks_per_shard < self.paths_per_session {
            return Err(format!(
                "bottlenecks_per_shard {} < paths_per_session {}: a session's \
                 paths must land on distinct bottlenecks",
                self.bottlenecks_per_shard, self.paths_per_session
            ));
        }
        if !(self.duration_s > 0.0 && self.warmup_s >= 0.0) {
            return Err("duration must be > 0 and warmup ≥ 0".into());
        }
        if !(self.arrival_rate_per_s > 0.0 && self.mean_hold_s > 0.0) {
            return Err("arrival rate and mean hold must be > 0".into());
        }
        self.timeline.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_partition_covers_all_sessions() {
        let spec = FleetSpec::new("f", 10, 4, 1);
        assert_eq!(spec.shard_count(), 3);
        assert_eq!(spec.sessions_in_shard(0), 4);
        assert_eq!(spec.sessions_in_shard(1), 4);
        assert_eq!(spec.sessions_in_shard(2), 2);
        assert_eq!(spec.first_session(2), 8);
        let total: u32 = (0..spec.shard_count())
            .map(|s| spec.sessions_in_shard(s))
            .sum();
        assert_eq!(total, spec.sessions);
    }

    #[test]
    fn validate_catches_inconsistencies() {
        assert!(FleetSpec::new("ok", 4, 2, 1).validate().is_ok());
        assert!(FleetSpec::new("bad name", 4, 2, 1).validate().is_err());
        let mut s = FleetSpec::new("f", 4, 2, 1);
        s.bottlenecks_per_shard = 1; // K = 2 paths need ≥ 2 bottlenecks
        assert!(s.validate().is_err());
        let mut s = FleetSpec::new("f", 4, 2, 1);
        s.arrival_rate_per_s = 0.0;
        assert!(s.validate().is_err());
        let mut s = FleetSpec::new("f", 4, 2, 1);
        s.send_buf_pkts = 0;
        assert!(s.validate().unwrap_err().contains("send_buf_pkts"));
    }

    // A fleet enters its shard jobs' cache keys through its `Debug`.

    #[test]
    fn config_repr_discriminates_physics_fields() {
        let a = FleetSpec::new("f", 8, 4, 1);
        let mut b = a.clone();
        b.shard_sessions = 8; // a *different* fleet: contention changes
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
        let mut d = a.clone();
        d.timeline = FleetTimeline::named("surge").spike(10.0, 5.0, 20.0);
        assert_ne!(format!("{a:?}"), format!("{d:?}"));
        let mut e = a.clone();
        e.cc = CcKind::Cubic;
        assert_ne!(format!("{a:?}"), format!("{e:?}"));
        let mut f = a.clone();
        f.strategy = PullStrategy::BestPath;
        assert_ne!(format!("{a:?}"), format!("{f:?}"));
    }

    #[test]
    fn config_repr_is_engine_free_and_fresh() {
        let repr = format!("{:?}", FleetSpec::new("f", 8, 4, 1));
        for word in ["Calendar", "Heap", "engine"] {
            assert!(!repr.contains(word), "{word} in {repr}");
        }
    }
}
