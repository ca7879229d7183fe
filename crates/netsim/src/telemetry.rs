//! Process-wide engine telemetry.
//!
//! Experiment harnesses (the `dmp-runner` crate) run many simulations on a
//! worker pool and want aggregate engine health numbers in their volatile
//! `.meta.json` sidecars without threading a handle into every job closure.
//! Each [`crate::sim::Sim`] merges its counters into these atomics when it is
//! dropped; [`snapshot`] reads the totals. Counts accumulate (`fetch_add`),
//! high-water marks take the max across simulations (`fetch_max`).
//!
//! Telemetry is deliberately *not* part of any deterministic artifact: it
//! varies with thread interleaving and machine speed, which is exactly why it
//! lives here and not in simulation results.
//!
//! This is the last process-global side channel: trace files and live path
//! timelines come back in their runs' results. `dmp-bench` still reads it
//! by subtraction ([`EngineTelemetry::delta`]) for its sidecars, but the
//! reader that keeps it alive is `benchmark/`'s `NetsimTally`, which
//! changes only together with the benchmark ledger. It goes when the counts
//! move onto each `Sim`'s own result (ROADMAP items 1 and 6).
//!
//! With the `profile` cargo feature, the `profile` submodule additionally
//! accumulates per-event-kind dispatch counts and tick (TSC cycle / ns)
//! totals — the `engine_profile` block of `dmp-bench`'s `.meta.json`
//! sidecars. Never compiled into default builds; never part of deterministic
//! artifacts.

use std::sync::atomic::{AtomicU64, Ordering};

static EVENTS_PROCESSED: AtomicU64 = AtomicU64::new(0);
static TRANSITS: AtomicU64 = AtomicU64::new(0);
static STALE_TIMER_POPS: AtomicU64 = AtomicU64::new(0);
static DEFERRED_TIMER_PUSHES: AtomicU64 = AtomicU64::new(0);
static WHEEL_HWM: AtomicU64 = AtomicU64::new(0);
static FAR_HWM: AtomicU64 = AtomicU64::new(0);
static RING_HWM: AtomicU64 = AtomicU64::new(0);
static RANDOM_LOSS_DROPS: AtomicU64 = AtomicU64::new(0);

/// A reading of the engine counters: of one simulation
/// ([`crate::sim::Sim::counters`]) or, from [`snapshot`], of the process-wide
/// totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTelemetry {
    /// Events dispatched (including stale timer pops).
    pub events_processed: u64,
    /// Packet transits delivered (one per packet per link traversed).
    /// Coalesced delivery means transits exceed events on transit-heavy
    /// topologies — report both so an events/sec gain is never mistaken for
    /// merely counting fewer events.
    pub transits: u64,
    /// Timer events popped after their endpoint cancelled or superseded them.
    pub stale_timer_pops: u64,
    /// Timer events re-queued because the deadline moved later (lazy
    /// deferral instead of one event per timer restart).
    pub deferred_timer_pushes: u64,
    /// Peak near-wheel occupancy of the event queue of any single simulation.
    pub wheel_hwm: u64,
    /// Peak far-heap occupancy of the event queue of any single simulation.
    pub far_hwm: u64,
    /// Peak single-link ring occupancy (queued + on-the-wire packets) of any
    /// single simulation — successor of the retired global packet-slab HWM.
    pub ring_hwm: u64,
    /// Packets dropped by per-link Bernoulli random loss (fault injection)
    /// across all simulations.
    pub random_loss_drops: u64,
}

impl EngineTelemetry {
    /// Attribute engine activity to a phase bounded by two snapshots:
    /// monotone counts subtract (`self` is the later reading), high-water
    /// marks take the max — a HWM is a peak, not a rate, so "the HWM during
    /// this phase" is the larger of the two readings, never a difference.
    pub fn delta(&self, earlier: &EngineTelemetry) -> EngineTelemetry {
        EngineTelemetry {
            events_processed: self
                .events_processed
                .saturating_sub(earlier.events_processed),
            transits: self.transits.saturating_sub(earlier.transits),
            stale_timer_pops: self
                .stale_timer_pops
                .saturating_sub(earlier.stale_timer_pops),
            deferred_timer_pushes: self
                .deferred_timer_pushes
                .saturating_sub(earlier.deferred_timer_pushes),
            wheel_hwm: self.wheel_hwm.max(earlier.wheel_hwm),
            far_hwm: self.far_hwm.max(earlier.far_hwm),
            ring_hwm: self.ring_hwm.max(earlier.ring_hwm),
            random_loss_drops: self
                .random_loss_drops
                .saturating_sub(earlier.random_loss_drops),
        }
    }

    /// Fold another reading into this one: counts sum, high-water marks take
    /// the max. This is the cross-shard merge — each shard of a fleet is its
    /// own `Sim` with its own counters, and the fleet total is the sum of
    /// per-shard counts with fleet-wide peaks.
    pub fn absorb(&mut self, other: &EngineTelemetry) {
        self.events_processed += other.events_processed;
        self.transits += other.transits;
        self.stale_timer_pops += other.stale_timer_pops;
        self.deferred_timer_pushes += other.deferred_timer_pushes;
        self.wheel_hwm = self.wheel_hwm.max(other.wheel_hwm);
        self.far_hwm = self.far_hwm.max(other.far_hwm);
        self.ring_hwm = self.ring_hwm.max(other.ring_hwm);
        self.random_loss_drops += other.random_loss_drops;
    }
}

/// Fold one simulation's counters into the process-wide totals. Called from
/// `Sim`'s `Drop`.
pub(crate) fn merge(c: &EngineTelemetry) {
    EVENTS_PROCESSED.fetch_add(c.events_processed, Ordering::Relaxed);
    TRANSITS.fetch_add(c.transits, Ordering::Relaxed);
    STALE_TIMER_POPS.fetch_add(c.stale_timer_pops, Ordering::Relaxed);
    DEFERRED_TIMER_PUSHES.fetch_add(c.deferred_timer_pushes, Ordering::Relaxed);
    WHEEL_HWM.fetch_max(c.wheel_hwm, Ordering::Relaxed);
    FAR_HWM.fetch_max(c.far_hwm, Ordering::Relaxed);
    RING_HWM.fetch_max(c.ring_hwm, Ordering::Relaxed);
    RANDOM_LOSS_DROPS.fetch_add(c.random_loss_drops, Ordering::Relaxed);
}

/// Read the current process-wide totals. Subtract two snapshots to attribute
/// events to a phase of a run.
pub fn snapshot() -> EngineTelemetry {
    EngineTelemetry {
        events_processed: EVENTS_PROCESSED.load(Ordering::Relaxed),
        transits: TRANSITS.load(Ordering::Relaxed),
        stale_timer_pops: STALE_TIMER_POPS.load(Ordering::Relaxed),
        deferred_timer_pushes: DEFERRED_TIMER_PUSHES.load(Ordering::Relaxed),
        wheel_hwm: WHEEL_HWM.load(Ordering::Relaxed),
        far_hwm: FAR_HWM.load(Ordering::Relaxed),
        ring_hwm: RING_HWM.load(Ordering::Relaxed),
        random_loss_drops: RANDOM_LOSS_DROPS.load(Ordering::Relaxed),
    }
}

/// Per-event-kind hot-path profiler (the `profile` cargo feature).
///
/// Each dispatched event is timed with the cheapest monotonic counter the
/// target offers (TSC on x86_64, `Instant` nanoseconds elsewhere) and binned
/// by [`crate::sim::SimCounters`]-level event kind. Timing wall-clock inside
/// the hot loop costs real cycles — a profiled build is for *attribution*
/// (where do the cycles go), never for absolute events/sec numbers; keep the
/// feature off for baselines.
#[cfg(feature = "profile")]
pub mod profile {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Number of profiler bins: [`EVENT_KINDS`] per-event ones, then one per
    /// thing a delivered packet can reach.
    pub const KIND_COUNT: usize = 7;

    /// The first `EVENT_KINDS` bins partition the dispatched events; the
    /// rest partition the packet transits, and their ticks are a part of
    /// `link_deliver`'s (an arrival is handled inside a delivery event).
    pub const EVENT_KINDS: usize = 4;

    /// Bin names, indexed by the bin order used by the engine: link
    /// delivery, sender timer, sink timer, app timer; then a packet arriving
    /// at a router (forwarded), data at its sink, an ACK at its sender.
    pub const KIND_NAMES: [&str; KIND_COUNT] = [
        "link_deliver",
        "sender_timer",
        "sink_timer",
        "app_timer",
        "forward",
        "sink_data",
        "sender_ack",
    ];

    static COUNTS: [AtomicU64; KIND_COUNT] = [const { AtomicU64::new(0) }; KIND_COUNT];
    static TICKS: [AtomicU64; KIND_COUNT] = [const { AtomicU64::new(0) }; KIND_COUNT];

    /// One simulation's profile accumulator (plain integers — merged into
    /// the process-wide atomics when the `Sim` drops).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct SimProfile {
        /// Dispatches (or arrivals) per bin.
        pub counts: [u64; KIND_COUNT],
        /// Ticks (TSC cycles or ns) per bin.
        pub ticks: [u64; KIND_COUNT],
    }

    impl SimProfile {
        /// Record one dispatch (or arrival) in bin `kind` costing `ticks`.
        #[inline]
        pub fn record(&mut self, kind: usize, ticks: u64) {
            self.counts[kind] += 1;
            self.ticks[kind] += ticks;
        }
    }

    /// A reading of the process-wide per-kind totals.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ProfileTelemetry {
        /// Dispatches per kind (same order as [`KIND_NAMES`]).
        pub counts: [u64; KIND_COUNT],
        /// Ticks per kind.
        pub ticks: [u64; KIND_COUNT],
    }

    impl ProfileTelemetry {
        /// Counts/ticks attributable to the phase between `earlier` and
        /// `self` (both monotone, so plain subtraction).
        pub fn delta(&self, earlier: &ProfileTelemetry) -> ProfileTelemetry {
            let mut out = ProfileTelemetry::default();
            for k in 0..KIND_COUNT {
                out.counts[k] = self.counts[k].saturating_sub(earlier.counts[k]);
                out.ticks[k] = self.ticks[k].saturating_sub(earlier.ticks[k]);
            }
            out
        }
    }

    /// The cheapest monotonic timestamp available: TSC cycles on x86_64,
    /// `Instant`-derived nanoseconds elsewhere.
    #[inline]
    pub fn timestamp() -> u64 {
        #[cfg(target_arch = "x86_64")]
        unsafe {
            core::arch::x86_64::_rdtsc()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            use std::sync::OnceLock;
            use std::time::Instant;
            static EPOCH: OnceLock<Instant> = OnceLock::new();
            EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
        }
    }

    /// Fold one simulation's profile into the process totals.
    pub(crate) fn merge(p: &SimProfile) {
        for k in 0..KIND_COUNT {
            COUNTS[k].fetch_add(p.counts[k], Ordering::Relaxed);
            TICKS[k].fetch_add(p.ticks[k], Ordering::Relaxed);
        }
    }

    /// Read the process-wide per-kind totals.
    pub fn snapshot() -> ProfileTelemetry {
        let mut out = ProfileTelemetry::default();
        for k in 0..KIND_COUNT {
            out.counts[k] = COUNTS[k].load(Ordering::Relaxed);
            out.ticks[k] = TICKS[k].load(Ordering::Relaxed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_counts_and_maxes_hwms() {
        let before = EngineTelemetry {
            events_processed: 1_000,
            transits: 700,
            stale_timer_pops: 10,
            deferred_timer_pushes: 20,
            wheel_hwm: 64,
            far_hwm: 8,
            ring_hwm: 100,
            random_loss_drops: 3,
        };
        let after = EngineTelemetry {
            events_processed: 1_500,
            transits: 1_100,
            stale_timer_pops: 12,
            deferred_timer_pushes: 29,
            wheel_hwm: 80,
            far_hwm: 8,
            ring_hwm: 90, // relaxed loads may read the two maxima out of
            // order; the delta must still report a peak, never subtract
            random_loss_drops: 3,
        };
        let d = after.delta(&before);
        assert_eq!(d.events_processed, 500);
        assert_eq!(d.transits, 400);
        assert_eq!(d.stale_timer_pops, 2);
        assert_eq!(d.deferred_timer_pushes, 9);
        assert_eq!(d.random_loss_drops, 0);
        assert_eq!(d.wheel_hwm, 80, "HWMs take the max, not the difference");
        assert_eq!(d.far_hwm, 8);
        assert_eq!(d.ring_hwm, 100);
    }

    #[test]
    fn absorb_sums_counts_and_maxes_hwms() {
        let mut total = EngineTelemetry::default();
        let a = EngineTelemetry {
            events_processed: 100,
            transits: 60,
            stale_timer_pops: 3,
            deferred_timer_pushes: 5,
            wheel_hwm: 40,
            far_hwm: 2,
            ring_hwm: 10,
            random_loss_drops: 1,
        };
        let b = EngineTelemetry {
            events_processed: 50,
            transits: 30,
            stale_timer_pops: 1,
            deferred_timer_pushes: 2,
            wheel_hwm: 25,
            far_hwm: 9,
            ring_hwm: 30,
            random_loss_drops: 0,
        };
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(total.events_processed, 150);
        assert_eq!(total.transits, 90);
        assert_eq!(total.stale_timer_pops, 4);
        assert_eq!(total.deferred_timer_pushes, 7);
        assert_eq!(total.random_loss_drops, 1);
        assert_eq!(total.wheel_hwm, 40, "peaks take the max across shards");
        assert_eq!(total.far_hwm, 9);
        assert_eq!(total.ring_hwm, 30);
    }

    #[test]
    fn delta_against_self_zeroes_counts_keeps_peaks() {
        let t = EngineTelemetry {
            events_processed: 7,
            wheel_hwm: 5,
            ..EngineTelemetry::default()
        };
        let d = t.delta(&t);
        assert_eq!(d.events_processed, 0);
        assert_eq!(d.wheel_hwm, 5);
    }
}
