//! Parameter types shared by the simulator, the live implementation, and the
//! analytical model.

/// A constant-bit-rate video, described the way the paper does: a playback
/// rate `µ` in packets per second and a fixed packet size.
///
/// The paper uses 1500-byte packets in simulation and 1448-byte packets on
/// the Internet (a full Ethernet segment minus TCP/IP headers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoSpec {
    /// Playback (= generation) rate µ, in packets per second.
    pub rate_pps: f64,
    /// Payload size of every packet, in bytes.
    pub packet_bytes: u32,
}

impl VideoSpec {
    /// A video streaming `rate_pps` packets per second of 1500-byte packets.
    pub fn new(rate_pps: f64) -> Self {
        Self {
            rate_pps,
            packet_bytes: 1500,
        }
    }

    /// Video bitrate in bits per second (`µ × packet size × 8`).
    pub fn bitrate_bps(&self) -> f64 {
        self.rate_pps * f64::from(self.packet_bytes) * 8.0
    }

    /// Inter-packet generation gap in seconds (`1/µ`).
    pub fn gen_interval_s(&self) -> f64 {
        1.0 / self.rate_pps
    }
}

/// Steady-state TCP parameters of one network path, as the analytical model
/// sees it. These are the quantities reported in Tables 2 and 3 of the paper
/// and the knobs varied in Section 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSpec {
    /// Packet loss probability `p` experienced by the TCP flow.
    pub loss: f64,
    /// Average round-trip time `R`, in seconds.
    pub rtt_s: f64,
    /// `T_O = R_TO / R`: the first retransmission timeout expressed as a
    /// multiple of the RTT. The paper uses values between 1 and 4.
    pub to_ratio: f64,
}

impl PathSpec {
    /// Construct a path from loss rate, RTT in milliseconds, and timeout
    /// ratio — the units used throughout the paper's tables.
    pub fn from_ms(loss: f64, rtt_ms: f64, to_ratio: f64) -> Self {
        Self {
            loss,
            rtt_s: rtt_ms / 1e3,
            to_ratio,
        }
    }

    /// The first retransmission timeout `R_TO` in seconds.
    pub fn rto_s(&self) -> f64 {
        self.to_ratio * self.rtt_s
    }
}

/// Which server-side packet-allocation scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// DMP-streaming: one shared queue, senders pull when their send buffer
    /// has room (dynamic, backpressure-driven allocation).
    Dynamic,
    /// Static-streaming: packet `i` is assigned to a path ahead of time in
    /// proportion to the paths' long-term average bandwidths (round-robin for
    /// homogeneous paths), regardless of current conditions.
    Static,
    /// Single-path streaming (the `K = 1` baseline of the paper's Section 7.3
    /// discussion and of Wang et al. 2004).
    SinglePath,
}

impl SchedulerKind {
    /// How many of the `available` paths the scheme streams over.
    pub fn paths_used(&self, available: usize) -> usize {
        match self {
            SchedulerKind::Dynamic | SchedulerKind::Static => available,
            SchedulerKind::SinglePath => 1,
        }
    }

    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Dynamic => "DMP-streaming",
            SchedulerKind::Static => "static-streaming",
            SchedulerKind::SinglePath => "single-path",
        }
    }
}

/// How a server decides which path serves the next queued packet — the
/// striping policy layered on top of a [`SchedulerKind`]'s queue structure.
/// `RoundRobin` is the paper's baseline (and byte-identical to the
/// historical hard-coded rotation); the others are extensions motivated by
/// preference-aware multipath striping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PullStrategy {
    /// The paper baseline: the rotation models which blocked sender wins the
    /// shared-queue lock first on each generation event.
    #[default]
    RoundRobin,
    /// Deficit striping: of the paths with buffer space, the one that has
    /// taken the fewest packets so far pulls first.
    Weighted,
    /// Greedy path quality: the path with the lowest smoothed RTT (ties
    /// broken by congestion-window headroom) pulls first.
    BestPath,
    /// The head packet is duplicated onto every path with buffer space; the
    /// client keeps the first copy to arrive. Burns bandwidth for latency.
    RedundantDuplicate,
    /// Earliest-deadline-first against the playout clock: queue order is
    /// already EDF (FIFO in generation order), and packets older than the
    /// pull deadline are dropped at the server instead of wasting path
    /// capacity on data that will miss playback anyway.
    DeadlineAware,
}

impl PullStrategy {
    /// Stable lowercase name used in trace events and artifact keys.
    pub fn name(&self) -> &'static str {
        match self {
            PullStrategy::RoundRobin => "round-robin",
            PullStrategy::Weighted => "weighted",
            PullStrategy::BestPath => "best-path",
            PullStrategy::RedundantDuplicate => "redundant-duplicate",
            PullStrategy::DeadlineAware => "deadline-aware",
        }
    }

    /// Every strategy, in canonical sweep order.
    pub fn all() -> [PullStrategy; 5] {
        [
            PullStrategy::RoundRobin,
            PullStrategy::Weighted,
            PullStrategy::BestPath,
            PullStrategy::RedundantDuplicate,
            PullStrategy::DeadlineAware,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_bitrate_matches_paper_examples() {
        // Paper: µ = 30/50/80 pkt/s at 1500 B → 360/600/960 kbps.
        for (mu, kbps) in [(30.0, 360.0), (50.0, 600.0), (80.0, 960.0)] {
            let v = VideoSpec::new(mu);
            assert!((v.bitrate_bps() / 1e3 - kbps).abs() < 1e-9);
        }
    }

    #[test]
    fn gen_interval_is_inverse_rate() {
        let v = VideoSpec::new(25.0);
        assert!((v.gen_interval_s() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn path_spec_units() {
        let p = PathSpec::from_ms(0.02, 210.0, 1.6);
        assert!((p.rtt_s - 0.210).abs() < 1e-12);
        assert!((p.rto_s() - 0.336).abs() < 1e-12);
    }

    #[test]
    fn scheduler_names_are_distinct() {
        let names = [
            SchedulerKind::Dynamic.name(),
            SchedulerKind::Static.name(),
            SchedulerKind::SinglePath.name(),
        ];
        assert_ne!(names[0], names[1]);
        assert_ne!(names[1], names[2]);
    }

    #[test]
    fn pull_strategy_names_are_distinct_and_stable() {
        let all = PullStrategy::all();
        assert_eq!(all.len(), 5);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
        assert_eq!(PullStrategy::default(), PullStrategy::RoundRobin);
        assert_eq!(PullStrategy::RoundRobin.name(), "round-robin");
    }
}
