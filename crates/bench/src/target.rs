//! Target orchestration: every table/figure of the reproduction is a
//! function `(&Runner, &Scale) -> TargetReport`. [`execute`] runs one target
//! on a shared [`Runner`], writes its structured JSON artifact (plus a
//! volatile `.meta.json` telemetry sidecar) under `target/artifacts/`,
//! prints the paper-shaped text, and returns the telemetry row that the
//! `dmp-bench` binary folds into its final summary table. [`TARGETS`] is the
//! one list of what can be run.

use std::time::{Duration, Instant};

use dmp_runner::{ArtifactWriter, Json, JsonCodec, Runner, RunnerStats};
use obs::MetricsSnapshot;

use crate::report::Table;
use crate::scale::Scale;

/// A target's rendered output.
#[derive(Debug)]
pub struct TargetReport {
    /// Paper-shaped text (tables, prose) printed to stdout.
    pub text: String,
    /// Structured artifact payload. Deterministic: byte-identical across
    /// thread counts and cache states for the same scale and seed.
    pub data: Json,
    /// Extra entries for the volatile `.meta.json` sidecar — telemetry the
    /// target wants alongside the engine counters (e.g. a fleet's per-shard
    /// breakdown). Never part of the deterministic artifact.
    pub meta: Vec<(&'static str, Json)>,
    /// The target's merged always-on metrics snapshot. Deterministic like
    /// `data` (pure function of the run; cached jobs replay it); [`execute`]
    /// writes it standalone as `metrics/<name>.json` — the files `bench_diff`
    /// compares — and mirrors it into the `.meta.json` sidecar's `metrics`
    /// section for one-file reading.
    pub metrics: Option<MetricsSnapshot>,
}

impl TargetReport {
    /// Build a report.
    pub fn new(text: impl Into<String>, data: Json) -> Self {
        Self {
            text: text.into(),
            data,
            meta: Vec::new(),
            metrics: None,
        }
    }

    /// Attach a volatile meta-sidecar entry.
    pub fn with_meta(mut self, key: &'static str, value: Json) -> Self {
        self.meta.push((key, value));
        self
    }

    /// Attach the target's metrics snapshot.
    pub fn with_metrics(mut self, metrics: MetricsSnapshot) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

/// Signature shared by every reproduction target.
pub type TargetFn = fn(&Runner, &Scale) -> TargetReport;

/// Every target `dmp-bench` can run, in schedule order: `(name, function,
/// reproduces a table or figure of the paper)`. The name is the command-line
/// word and the artifact file stem; `dmp-bench all` expands to the paper
/// targets, in this (paper) order. Adding a target is adding a line here.
pub const TARGETS: &[(&str, TargetFn, bool)] = &[
    ("fig1", crate::fig1::fig1, true),
    ("table1", crate::tables::table1, true),
    ("table2", crate::tables::table2, true),
    ("table3", crate::tables::table3, true),
    ("fig4", crate::validation::fig4, true),
    ("fig5", crate::validation::fig5, true),
    (
        "correlated_validation",
        crate::validation::correlated_validation,
        true,
    ),
    ("fig7", crate::live_fig::fig7, true),
    ("fig8", crate::params::fig8, true),
    ("fig9a", crate::params::fig9a, true),
    ("fig9b", crate::params::fig9b, true),
    ("fig10", crate::hetero::fig10, true),
    ("fig11", crate::static_cmp::fig11, true),
    ("fig_fluid", crate::fluid_fig::fig_fluid, true),
    ("headline", crate::params::headline, true),
    ("ext_kpaths", crate::extensions::ext_kpaths, false),
    ("ext_stored", crate::extensions::ext_stored, false),
    ("ext_ablations", crate::extensions::ext_ablations, false),
    ("ext_failover", crate::scenarios::ext_failover, false),
    ("ext_flashcrowd", crate::scenarios::ext_flashcrowd, false),
    ("ext_fleet", crate::fleet::ext_fleet, false),
    ("fleet_headroom", crate::fleet::fleet_headroom, false),
    ("ext_cc_matrix", crate::cc_matrix::ext_cc_matrix, false),
    ("capacity_planner", crate::planner::capacity_planner, false),
    (
        "ext_planner_check",
        crate::planner::ext_planner_check,
        false,
    ),
];

/// Telemetry from executing one target: wall-clock plus the per-target delta
/// of the shared runner's cumulative counters.
#[derive(Debug, Clone, Copy)]
pub struct TargetOutcome {
    /// Target name (artifact file stem).
    pub name: &'static str,
    /// Wall-clock time of the target, including reduction and rendering.
    pub wall: Duration,
    /// Runner counters attributable to this target.
    pub stats: RunnerStats,
}

fn stats_delta(before: RunnerStats, after: RunnerStats) -> RunnerStats {
    RunnerStats {
        jobs: after.jobs - before.jobs,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        failed: after.failed - before.failed,
        serial_equiv: after.serial_equiv.saturating_sub(before.serial_equiv),
    }
}

/// Run one target, write `<name>.json` + `<name>.meta.json`, print its text.
pub fn execute(
    name: &'static str,
    runner: &Runner,
    artifacts: &ArtifactWriter,
    scale: &Scale,
    target: TargetFn,
) -> TargetOutcome {
    let before = runner.stats();
    let engine_before = netsim::telemetry::snapshot();
    let t0 = Instant::now();
    let report = target(runner, scale);
    let wall = t0.elapsed();
    let stats = stats_delta(before, runner.stats());
    // Counts become deltas attributable to this target; high-water marks
    // stay peaks (monotone maxima), per `EngineTelemetry::delta`.
    let engine = netsim::telemetry::snapshot().delta(&engine_before);
    if let Err(e) = artifacts.write(name, &report.data) {
        eprintln!("warning: could not write artifact {name}.json: {e}");
    }
    let mut engine_meta = report.meta;
    engine_meta.extend([
        ("engine_events", Json::Num(engine.events_processed as f64)),
        (
            "engine_events_per_s",
            Json::Num(if stats.serial_equiv.as_secs_f64() > 0.0 {
                engine.events_processed as f64 / stats.serial_equiv.as_secs_f64()
            } else {
                0.0
            }),
        ),
        ("engine_transits", Json::Num(engine.transits as f64)),
        (
            "engine_transits_per_s",
            Json::Num(if stats.serial_equiv.as_secs_f64() > 0.0 {
                engine.transits as f64 / stats.serial_equiv.as_secs_f64()
            } else {
                0.0
            }),
        ),
        (
            "engine_stale_timer_pops",
            Json::Num(engine.stale_timer_pops as f64),
        ),
        (
            "engine_deferred_timer_pushes",
            Json::Num(engine.deferred_timer_pushes as f64),
        ),
        ("engine_wheel_hwm", Json::Num(engine.wheel_hwm as f64)),
        ("engine_far_hwm", Json::Num(engine.far_hwm as f64)),
        ("engine_ring_hwm", Json::Num(engine.ring_hwm as f64)),
        (
            "engine_random_loss_drops",
            Json::Num(engine.random_loss_drops as f64),
        ),
    ]);
    #[cfg(feature = "profile")]
    engine_meta.push(("engine_profile", profile_meta()));
    // Live-path evidence: the shaping timeline each emulated path actually
    // applied during this target's wall-clock runs (empty for pure-sim
    // targets). Volatile by nature, hence the meta sidecar, not the artifact.
    let timelines = dmp_live::telemetry::drain_timelines();
    if !timelines.is_empty() {
        engine_meta.push((
            "live_timelines",
            Json::obj(timelines.into_iter().map(|(label, points)| {
                (
                    label,
                    Json::arr(points.iter().map(|p| {
                        Json::obj([
                            ("t_s", Json::Num(p.t.as_secs_f64())),
                            ("rate_bps", Json::Num(p.rate_bps)),
                            ("delay_s", Json::Num(p.delay.as_secs_f64())),
                            ("down", Json::Bool(p.down)),
                        ])
                    })),
                )
            })),
        ));
    }
    // Flight-recorder traces written during this target (empty unless the
    // scale's `trace` flag is on): label → JSONL file, so a reader of the
    // sidecar can find the raw event streams behind the summary numbers.
    let trace_files = obs::drain_trace_files();
    if !trace_files.is_empty() {
        engine_meta.push((
            "trace_files",
            Json::arr(trace_files.into_iter().map(|f| {
                Json::obj([
                    ("label", Json::Str(f.label)),
                    ("path", Json::Str(f.path.display().to_string())),
                    ("events", Json::Num(f.events as f64)),
                ])
            })),
        ));
    }
    if let Some(metrics) = &report.metrics {
        let doc = metrics.to_json();
        if let Err(e) = artifacts.write_metrics(name, &doc) {
            eprintln!("warning: could not write metrics/{name}.json: {e}");
        }
        engine_meta.push(("metrics", doc));
    }
    if let Err(e) = artifacts.write_meta(name, &stats, runner.threads(), wall, engine_meta) {
        eprintln!("warning: could not write artifact {name}.meta.json: {e}");
    }
    println!("{}", report.text);
    TargetOutcome { name, wall, stats }
}

/// Render the summary table `dmp-bench` ends with from per-target outcomes.
pub fn summary_table(outcomes: &[TargetOutcome], threads: usize, total_wall: Duration) -> String {
    let mut t = Table::new(
        format!("dmp-bench summary ({threads} thread(s))"),
        &[
            "target",
            "wall (s)",
            "serial-equiv (s)",
            "jobs",
            "cache hits",
            "cache misses",
            "failed",
        ],
    );
    let mut serial_equiv = Duration::ZERO;
    let (mut jobs, mut hits, mut misses, mut failed) = (0u64, 0u64, 0u64, 0u64);
    for o in outcomes {
        t.row(vec![
            o.name.to_string(),
            format!("{:.1}", o.wall.as_secs_f64()),
            format!("{:.1}", o.stats.serial_equiv.as_secs_f64()),
            o.stats.jobs.to_string(),
            o.stats.cache_hits.to_string(),
            o.stats.cache_misses.to_string(),
            o.stats.failed.to_string(),
        ]);
        serial_equiv += o.stats.serial_equiv;
        jobs += o.stats.jobs;
        hits += o.stats.cache_hits;
        misses += o.stats.cache_misses;
        failed += o.stats.failed;
    }
    let mut out = t.render();
    let total = total_wall.as_secs_f64();
    let serial = serial_equiv.as_secs_f64();
    out.push_str(&format!(
        "\nTotals: {jobs} jobs, {hits} cache hits / {misses} misses, {failed} failed.\n\
         Wall-clock {total:.1} s vs serial-equivalent {serial:.1} s \
         (speedup {:.2}x on {threads} thread(s)).\n",
        if total > 0.0 { serial / total } else { 1.0 },
    ));
    out
}

/// `None` → JSON `null`, `Some(x)` → number (for unreachable-τ cells).
pub fn opt_num(v: Option<f64>) -> Json {
    match v {
        Some(x) => Json::Num(x),
        None => Json::Null,
    }
}

/// The hot-path profiler's cumulative breakdown — per event kind, then per
/// thing a delivered packet reached — as a JSON object for `.meta.json`
/// sidecars. Only compiled with the `profile`
/// feature; the counters are process-wide, so callers wanting a per-target
/// view should snapshot-and-delta like `execute` does for engine telemetry.
#[cfg(feature = "profile")]
pub fn profile_meta() -> Json {
    use netsim::telemetry::profile;
    let snap = profile::snapshot();
    Json::obj(profile::KIND_NAMES.iter().enumerate().map(|(i, &name)| {
        (
            name,
            Json::obj([
                ("count", Json::Num(snap.counts[i] as f64)),
                ("ticks", Json::Num(snap.ticks[i] as f64)),
            ]),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::TARGETS;

    #[test]
    fn registry_names_are_unique_words_and_all_is_the_paper_in_order() {
        for (i, (name, _, _)) in TARGETS.iter().enumerate() {
            // A name is a command-line word and a file stem, and `all` is
            // taken.
            assert!(!name.is_empty() && *name != "all");
            assert!(!name.contains('/') && !name.starts_with('-'), "{name}");
            assert!(
                TARGETS[..i].iter().all(|(earlier, _, _)| earlier != name),
                "{name} is registered twice"
            );
        }
        let paper: Vec<&str> = TARGETS.iter().filter(|t| t.2).map(|t| t.0).collect();
        assert_eq!(
            paper,
            [
                "fig1",
                "table1",
                "table2",
                "table3",
                "fig4",
                "fig5",
                "correlated_validation",
                "fig7",
                "fig8",
                "fig9a",
                "fig9b",
                "fig10",
                "fig11",
                "fig_fluid",
                "headline"
            ]
        );
    }
}
