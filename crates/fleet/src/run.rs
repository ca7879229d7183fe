//! Fan a fleet's shards across the runner pool and merge the results.
//!
//! Each shard is one job, submitted in shard-index order to
//! [`dmp_runner::Runner::run_all`], which preserves submission order however
//! many worker threads drain the queue. Merging is therefore a concatenation
//! of shard outputs in shard-index order, independent of thread count.
//! Per-shard simulations are pure functions of `(spec, shard)`, so the
//! merged fleet is byte-identical however many threads ran it — the
//! property the determinism suite in `tests/determinism.rs` locks down.
//! Which scheduler a shard's simulator runs on is not an execution choice at
//! all: netsim has one.

use std::path::PathBuf;

use dmp_core::{FleetReport, SessionOutcome};
use dmp_runner::{JobSpec, Json, Runner};
use netsim::EngineTelemetry;
use obs::TraceSpec;

use crate::shard::{run_shard, telemetry_json, ShardOutput};
use crate::spec::FleetSpec;

/// Execution-level knobs: everything here changes *how* a fleet runs, never
/// *what* it produces, so none of it reaches the cache key or the
/// deterministic artifact.
#[derive(Debug, Clone, Default)]
pub struct FleetOptions {
    /// Write one flight-recorder trace per shard into this directory,
    /// labelled `fleet:<name>:shard<i>` and listed in
    /// [`FleetResult::trace_files`]. Traced jobs are not cached.
    pub trace_dir: Option<PathBuf>,
}

/// A merged fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-session outcomes in global session order.
    pub outcomes: Vec<SessionOutcome>,
    /// The fleet-level verdict folded from the outcomes.
    pub report: FleetReport,
    /// Events dispatched by each shard's simulation, shard-index order
    /// (part of the deterministic artifact).
    pub shard_events: Vec<u64>,
    /// Each shard's engine counters, shard-index order (volatile meta
    /// sidecars only).
    pub shard_telemetry: Vec<EngineTelemetry>,
    /// Every shard's metrics merged in shard-index order — the same merge
    /// discipline as [`EngineTelemetry::absorb`], but over the exact integer
    /// histogram arithmetic, so the result is also thread-invariant.
    pub metrics: obs::MetricsSnapshot,
    /// The trace files the shards wrote (traced runs), shard-index order.
    pub trace_files: Vec<obs::TraceFileRef>,
}

impl FleetResult {
    /// Total simulation events across all shards.
    pub fn total_events(&self) -> u64 {
        self.shard_events.iter().sum()
    }

    /// All shard telemetry folded into one reading (counts sum, peaks max).
    pub fn merged_telemetry(&self) -> EngineTelemetry {
        let mut total = EngineTelemetry::default();
        for t in &self.shard_telemetry {
            total.absorb(t);
        }
        total
    }

    /// The deterministic artifact document: spec identity, per-session
    /// outcomes, the fleet report, and per-shard event counts. Everything in
    /// here is byte-identical across thread counts;
    /// telemetry deliberately stays out (its high-water marks describe the
    /// event queue's storage, not the fleet).
    pub fn artifact(&self, spec: &FleetSpec) -> Json {
        let r = &self.report;
        let dist = |d: &dmp_core::Distribution| {
            Json::obj([
                ("mean", Json::Num(d.mean)),
                ("p50", Json::Num(d.p50)),
                ("p90", Json::Num(d.p90)),
                ("p99", Json::Num(d.p99)),
                ("max", Json::Num(d.max)),
                ("stddev", Json::Num(d.stddev)),
            ])
        };
        Json::obj([
            ("name", Json::Str(spec.name.clone())),
            ("config", Json::Str(format!("{spec:?}"))),
            ("sessions", Json::Num(r.sessions as f64)),
            ("started", Json::Num(r.started as f64)),
            ("completed", Json::Num(r.completed as f64)),
            ("generated", Json::Num(r.generated as f64)),
            ("delivered", Json::Num(r.delivered as f64)),
            ("goodput_pps", Json::Num(r.goodput_pps)),
            ("late", dist(&r.late)),
            ("glitches", dist(&r.glitches)),
            ("headroom", dist(&r.headroom)),
            ("headroom_ok", Json::Num(r.headroom_ok)),
            (
                "shard_events",
                Json::nums(self.shard_events.iter().map(|&e| e as f64)),
            ),
            (
                "sessions_detail",
                Json::arr(self.outcomes.iter().map(|o| {
                    Json::obj([
                        ("session", Json::Num(f64::from(o.session))),
                        ("arrival_s", Json::Num(o.arrival_s)),
                        ("hold_s", Json::Num(o.hold_s)),
                        ("started", Json::Bool(o.started)),
                        ("completed", Json::Bool(o.completed)),
                        ("generated", Json::Num(o.generated as f64)),
                        ("delivered", Json::Num(o.delivered as f64)),
                        ("late_fraction", Json::Num(o.late_fraction)),
                        ("glitches", Json::Num(o.glitch_count as f64)),
                        ("headroom", Json::Num(o.headroom)),
                    ])
                })),
            ),
        ])
    }

    /// Volatile per-shard breakdown for the `.meta.json` sidecar: each
    /// shard's engine counters plus the absorbed fleet total.
    pub fn shards_meta(&self) -> Json {
        Json::obj([
            ("total", telemetry_json(&self.merged_telemetry())),
            (
                "per_shard",
                Json::arr(self.shard_telemetry.iter().map(telemetry_json)),
            ),
        ])
    }
}

/// Label (and, sanitized, file stem) of one shard's trace: the shard
/// component keeps concurrent shards of one batch from colliding on a file.
fn shard_trace_label(fleet: &str, shard: u32) -> String {
    format!("fleet:{fleet}:shard{shard}")
}

/// Run `spec` on `runner`, fanning shards across its worker threads.
///
/// Panics if the spec fails [`FleetSpec::validate`] or any shard job fails.
pub fn run_fleet(runner: &Runner, spec: &FleetSpec, opts: &FleetOptions) -> FleetResult {
    spec.validate().expect("valid fleet spec");
    let shards = spec.shard_count();
    let job = |shard| {
        let dir = opts.trace_dir.clone();
        let traced = dir.is_some();
        let job = JobSpec::keyed(
            format!("fleet:{}:shard{shard}", spec.name),
            (spec.clone(), shard),
            spec.seed,
            move |(spec, shard): &(FleetSpec, u32)| {
                let label = shard_trace_label(&spec.name, *shard);
                let path = dir.as_ref().map(|d| TraceSpec::new(&label, d).path());
                run_shard(spec, *shard, path.as_deref().map(|p| (p, label.as_str())))
            },
        );
        // A traced job's product is the side-effect trace file, which the
        // cache would skip reproducing on a hit.
        if traced {
            job.uncacheable()
        } else {
            job
        }
    };

    let cells = runner.run_all((0..shards).map(job).collect());
    let mut outcomes = Vec::with_capacity(spec.sessions as usize);
    let mut shard_events = Vec::with_capacity(shards as usize);
    let mut shard_telemetry = Vec::with_capacity(shards as usize);
    let mut metrics = obs::MetricsSnapshot::new();
    let mut trace_files = Vec::new();
    for cell in &cells {
        let out: &ShardOutput = cell.unwrap();
        debug_assert_eq!(out.shard as usize, shard_events.len(), "shard order");
        outcomes.extend(out.outcomes.iter().copied());
        shard_events.push(out.events_processed);
        shard_telemetry.push(out.telemetry);
        metrics.merge(&out.metrics);
        trace_files.extend(out.trace_file.clone());
    }
    let report = FleetReport::from_outcomes(&outcomes, spec.duration_s);
    FleetResult {
        outcomes,
        report,
        shard_events,
        shard_telemetry,
        metrics,
        trace_files,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_runner::Cache;

    fn small_spec() -> FleetSpec {
        let mut spec = FleetSpec::new("small", 6, 2, 21);
        spec.duration_s = 20.0;
        spec.warmup_s = 1.0;
        spec.arrival_rate_per_s = 0.5;
        spec.mean_hold_s = 8.0;
        spec.video = dmp_core::spec::VideoSpec::new(25.0);
        spec
    }

    #[test]
    fn fleet_merges_shards_in_global_session_order() {
        let runner = Runner::new(2, Cache::disabled());
        let result = run_fleet(&runner, &small_spec(), &FleetOptions::default());
        assert_eq!(result.outcomes.len(), 6);
        for (i, o) in result.outcomes.iter().enumerate() {
            assert_eq!(o.session as usize, i, "global order preserved");
        }
        assert_eq!(result.shard_events.len(), 3);
        assert!(result.metrics.histograms["fleet.session_late_ppm"].count() > 0);
        assert_eq!(result.report.sessions, 6);
        assert!(result.report.started > 0);
        assert!(result.total_events() > 0);
        assert_eq!(
            result.merged_telemetry().events_processed,
            result
                .shard_telemetry
                .iter()
                .map(|t| t.events_processed)
                .sum::<u64>()
        );
    }

    #[test]
    fn shard_trace_stems_are_distinct() {
        let spec = small_spec();
        let stems: std::collections::BTreeSet<String> = (0..spec.shard_count())
            .map(|shard| obs::sanitize_label(&shard_trace_label(&spec.name, shard)))
            .collect();
        assert_eq!(stems.len(), spec.shard_count() as usize);
    }
}
