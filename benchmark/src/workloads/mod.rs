//! The six workloads. Each is a fixed input set made from the run's seed; one
//! iteration runs the whole set once through public functions only, so every
//! iteration of a run does identical work and must give an identical digest.

mod bulk_tcp;
mod cache_replay;
mod fleet_churn;
mod model_exact;
mod model_ssa;
mod video_2path;

use std::collections::BTreeMap;

use dmp_runner::hash::StableHasher;
use netsim::telemetry::{self, EngineTelemetry};
use obs::MetricsSnapshot;

use crate::span::Tracer;

/// Name, shape and reason of one workload (the table in `README.md`).
pub struct Info {
    /// Final name; later issues cite it.
    pub name: &'static str,
    /// Threads the iteration uses (the driver is the one closed-loop client).
    pub threads: usize,
    /// What `work_per_s` counts.
    pub work_unit: &'static str,
    /// Makes the input set from a seed, untimed work included.
    pub setup: fn(u64) -> Box<dyn Workload>,
}

/// Every workload, in the order they are run and reported.
pub const ALL: [Info; 6] = [
    Info {
        name: "video_2path",
        threads: 1,
        work_unit: "sim-s",
        setup: video_2path::setup,
    },
    Info {
        name: "bulk_tcp",
        threads: 1,
        work_unit: "sim-s",
        setup: bulk_tcp::setup,
    },
    Info {
        name: "fleet_churn",
        threads: fleet_churn::THREADS,
        work_unit: "sessions",
        setup: fleet_churn::setup,
    },
    Info {
        name: "model_ssa",
        threads: 1,
        work_unit: "consumptions",
        setup: model_ssa::setup,
    },
    Info {
        name: "model_exact",
        threads: 1,
        work_unit: "tau-points",
        setup: model_exact::setup,
    },
    Info {
        name: "cache_replay",
        threads: cache_replay::THREADS,
        work_unit: "jobs",
        setup: cache_replay::setup,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Info> {
    ALL.iter().find(|w| w.name == name)
}

/// Output checks of one iteration. Every check is one attempted operation;
/// a job that fails or panics fails its check.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// What the first failed check said.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Record one check; `what` names it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }

    /// Fold another iteration's checks into this tally.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Per-layer values by metric name (the names of `metrics::PER_LAYER`).
pub type LayerValues = BTreeMap<&'static str, f64>;

/// What one iteration reports.
pub struct Outcome {
    /// Fingerprint of everything the iteration computed.
    pub digest: u64,
    /// Work done, in the workload's unit.
    pub work: f64,
    /// The iteration's output checks.
    pub checks: Checks,
    /// Counts made at the layer boundaries. They are a function of the
    /// inputs alone, so they repeat exactly between runs of one commit.
    pub counts: LayerValues,
    /// Seconds measured inside the iteration that no span on the driver's
    /// thread can show, such as busy time summed over worker threads.
    pub seconds: LayerValues,
}

/// What a traced pass hands a workload to derive its layer metrics from.
pub struct Traced<'a> {
    /// Median over the traced iterations of the seconds per name: span self
    /// times, and what the iterations reported in [`Outcome::seconds`].
    pub seconds: &'a LayerValues,
    /// Counts of the last iteration.
    pub counts: &'a LayerValues,
}

impl Traced<'_> {
    /// Seconds under one name (0 if the workload never recorded it).
    pub fn seconds(&self, name: &str) -> f64 {
        self.seconds.get(name).copied().unwrap_or(0.0)
    }

    /// One count (0 if the workload never made it).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// One workload with its inputs made.
pub trait Workload {
    /// Run the whole input set once. Spans go to `t`.
    fn iterate(&mut self, t: &mut Tracer) -> Outcome;

    /// Seconds of set-up spent creating files, which `setup_s` leaves out:
    /// 512 small files took 0.07 s on a rested file system and 0.33 s after
    /// a minute of the benchmark's own create-and-delete, so with them in,
    /// `setup_s` read whatever ran before. The traced run reports them as
    /// `dmp-runner.cache.prime_s`.
    fn setup_fs_s(&self) -> f64 {
        0.0
    }

    /// Timings of this workload's layers, from the traced pass's spans and
    /// from direct calls that are no part of an iteration. Runs once, after
    /// the traced iterations.
    fn layer_metrics(&mut self, traced: &Traced<'_>, out: &mut LayerValues);
}

/// The `i`-th seed of a workload's input set. SplitMix64 over the run's
/// seed, so neighbouring seeds give unrelated inputs.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Digest builder over the numbers an iteration produced.
#[derive(Default)]
pub struct Digest(StableHasher);

impl Digest {
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.write_u64(v);
        self
    }

    /// Exact bits, so a last-place difference shows.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.0.write(v);
        self
    }

    pub fn finish(&self) -> u64 {
        self.0.finish_u64()
    }
}

/// Counts netsim's work over one iteration: the simulators' merged metrics
/// snapshots give the packet-level counts, the process-wide engine telemetry
/// (folded in when a `Sim` drops) gives the scheduler's.
pub struct NetsimTally {
    before: EngineTelemetry,
    snapshot: MetricsSnapshot,
}

impl NetsimTally {
    /// Start counting. Every `Sim` of the iteration must drop before
    /// [`NetsimTally::finish`].
    pub fn start() -> Self {
        Self {
            before: telemetry::snapshot(),
            snapshot: MetricsSnapshot::new(),
        }
    }

    /// Fold in one simulation's (or one fleet's merged) metrics.
    pub fn add(&mut self, metrics: &MetricsSnapshot) {
        self.snapshot.merge(metrics);
    }

    /// The `netsim.*` counts of an iteration that simulated `sim_s` seconds.
    pub fn finish(self, sim_s: f64) -> LayerValues {
        let engine = telemetry::snapshot().delta(&self.before);
        let counter = |name: &str| self.snapshot.counters.get(name).copied().unwrap_or(0) as f64;
        let events = counter("engine.events");
        LayerValues::from([
            ("netsim.events", events),
            ("netsim.transits", counter("engine.transits")),
            ("netsim.events_per_sim_s", events / sim_s),
            ("netsim.retransmits", counter("net.retransmits")),
            ("netsim.rtos", counter("net.rto_timeouts")),
            ("netsim.drops", counter("net.queue_drops")),
            ("netsim.stale_timer_pops", engine.stale_timer_pops as f64),
            ("netsim.wheel_hwm", engine.wheel_hwm as f64),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_seed_and_index() {
        let a: Vec<u64> = (0..4).map(|i| derive_seed(2007, i)).collect();
        let b: Vec<u64> = (0..4).map(|i| derive_seed(2008, i)).collect();
        let mut all: Vec<u64> = a.iter().chain(&b).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8);
        assert_eq!(a[0], derive_seed(2007, 0), "same seed, same inputs");
    }

    #[test]
    fn checks_count_and_keep_the_first_failure() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "first".into());
        c.check(false, || "second".into());
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert_eq!(c.first_failure.as_deref(), Some("first"));
    }
}
