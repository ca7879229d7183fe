//! Target orchestration: every table/figure of the reproduction is a
//! [`Target`] — a function `(&Runner, &Scale) -> TargetReport` that returns
//! data only, and a renderer `fn(&Json) -> Result<String, RenderError>` that
//! turns that data into the paper-shaped text. [`execute`] runs one target on
//! a shared [`Runner`], writes its structured JSON artifact (plus a volatile
//! `.meta.json` telemetry sidecar) under `target/artifacts/`, prints the
//! rendering of the bytes it wrote, and returns the telemetry row that the
//! `dmp-bench` binary folds into its final summary table. So `dmp-bench
//! render <artifact.json>` ([`render_file`]) prints what the run printed,
//! byte for byte. [`TARGETS`] is the one list of what can be run.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dmp_runner::{json, ArtifactWriter, Json, JsonCodec, Runner, RunnerStats};
use obs::{MetricsSnapshot, TraceFileRef};

use crate::report::{self, RenderError, Table};
use crate::scale::Scale;
use crate::{cc_matrix, extensions, fig1, fleet, fluid_fig, hetero, live_fig, params};
use crate::{planner, scenarios, static_cmp, tables, validation};

/// What a target returns: its data, never its text.
#[derive(Debug)]
pub struct TargetReport {
    /// Structured artifact payload, everything the target prints is rendered
    /// from. Deterministic: byte-identical across thread counts and cache
    /// states for the same scale and seed.
    pub data: Json,
    /// Extra entries for the volatile `.meta.json` sidecar — telemetry the
    /// target wants alongside the engine counters (e.g. a fleet's per-shard
    /// breakdown). Never part of the deterministic artifact.
    pub meta: Vec<(&'static str, Json)>,
    /// The target's merged always-on metrics snapshot. Deterministic like
    /// `data` (pure function of the run; cached jobs replay it); [`execute`]
    /// writes it standalone as `metrics/<name>.json` — the snapshots the
    /// reproduction gate compares — and mirrors it into the `.meta.json`
    /// sidecar's `metrics` section for one-file reading.
    pub metrics: Option<MetricsSnapshot>,
    /// The flight-recorder files the target's runs returned (empty unless
    /// the scale's `trace` flag is on), listed in the sidecar.
    pub trace_files: Vec<TraceFileRef>,
}

impl TargetReport {
    /// Build a report.
    pub fn new(data: Json) -> Self {
        Self {
            data,
            meta: Vec::new(),
            metrics: None,
            trace_files: Vec::new(),
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

    /// Attach the trace files the target's runs returned.
    pub fn with_trace_files(mut self, files: impl IntoIterator<Item = TraceFileRef>) -> Self {
        self.trace_files.extend(files);
        self
    }
}

/// Signature shared by every reproduction target.
pub type TargetFn = fn(&Runner, &Scale) -> TargetReport;

/// Signature shared by every renderer: the artifact in, the printed text
/// out. A renderer reads only the artifact and its module's constants.
pub type RenderFn = fn(&Json) -> Result<String, RenderError>;

/// One line of the registry.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// Command-line word and artifact file stem.
    pub name: &'static str,
    /// Computes the data.
    pub run: TargetFn,
    /// Turns the data into the printed text.
    pub render: RenderFn,
    /// Reproduces a table or figure of the paper (a member of `all`).
    pub paper: bool,
}

const fn paper(name: &'static str, run: TargetFn, render: RenderFn) -> Target {
    Target {
        name,
        run,
        render,
        paper: true,
    }
}

const fn extension(name: &'static str, run: TargetFn, render: RenderFn) -> Target {
    Target {
        name,
        run,
        render,
        paper: false,
    }
}

/// Every target `dmp-bench` can run, in schedule order; `dmp-bench all`
/// expands to the paper targets, in this (paper) order. Adding a target is
/// adding a line here.
pub const TARGETS: &[Target] = &[
    paper("fig1", fig1::fig1, fig1::render_fig1),
    paper("table1", tables::table1, report::tables),
    paper("table2", tables::table2, report::tables),
    paper("table3", tables::table3, report::tables),
    paper("fig4", validation::fig4, report::tables),
    paper("fig5", validation::fig5, report::tables),
    paper(
        "correlated_validation",
        validation::correlated_validation,
        report::tables,
    ),
    paper("fig7", live_fig::fig7, live_fig::render_fig7),
    paper("fig8", params::fig8, report::tables),
    paper("fig9a", params::fig9a, report::tables),
    paper("fig9b", params::fig9b, report::tables),
    paper("fig10", hetero::fig10, report::tables),
    paper("fig11", static_cmp::fig11, report::tables),
    paper(
        "fig_fluid",
        fluid_fig::fig_fluid,
        fluid_fig::render_fig_fluid,
    ),
    paper("headline", params::headline, params::render_headline),
    extension(
        "ext_kpaths",
        extensions::ext_kpaths,
        extensions::render_kpaths,
    ),
    extension(
        "ext_stored",
        extensions::ext_stored,
        extensions::render_stored,
    ),
    extension(
        "ext_ablations",
        extensions::ext_ablations,
        extensions::render_ablations,
    ),
    extension(
        "ext_failover",
        scenarios::ext_failover,
        scenarios::render_failover,
    ),
    extension(
        "ext_flashcrowd",
        scenarios::ext_flashcrowd,
        scenarios::render_flashcrowd,
    ),
    extension("ext_fleet", fleet::ext_fleet, fleet::render_ext_fleet),
    extension(
        "fleet_headroom",
        fleet::fleet_headroom,
        fleet::render_headroom,
    ),
    extension(
        "ext_cc_matrix",
        cc_matrix::ext_cc_matrix,
        cc_matrix::render_cc_matrix,
    ),
    extension(
        "capacity_planner",
        planner::capacity_planner,
        planner::render_planner,
    ),
    extension(
        "ext_planner_check",
        planner::ext_planner_check,
        planner::render_check,
    ),
];

/// The registered target called `name`.
pub fn find(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.name == name)
}

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

/// Run one target, write `<name>.json` + `<name>.meta.json`, print the
/// rendering of the artifact bytes written.
pub fn execute(
    target: &Target,
    runner: &Runner,
    artifacts: &ArtifactWriter,
    scale: &Scale,
) -> TargetOutcome {
    let name = target.name;
    let before = runner.stats();
    let engine_before = netsim::telemetry::snapshot();
    let t0 = Instant::now();
    let report = (target.run)(runner, scale);
    let wall = t0.elapsed();
    let stats = stats_delta(before, runner.stats());
    // Counts become deltas attributable to this target; high-water marks
    // stay peaks (monotone maxima), per `EngineTelemetry::delta`.
    let engine = netsim::telemetry::snapshot().delta(&engine_before);
    if let Err(e) = artifacts.write(name, &report.data) {
        eprintln!("warning: could not write artifact {name}.json: {e}");
    }
    // Rendered from the bytes written, not from `data`: a non-finite number
    // is stored as `null`, and `dmp-bench render` must print the same text.
    let text = json::parse(&report.data.render_pretty())
        .ok_or_else(|| RenderError("not JSON".into()))
        .and_then(|doc| (target.render)(&doc));
    let per_s = |count: u64| {
        let serial_s = stats.serial_equiv.as_secs_f64();
        Json::Num(if serial_s > 0.0 {
            count as f64 / serial_s
        } else {
            0.0
        })
    };
    let mut engine_meta = report.meta;
    engine_meta.extend([
        ("engine", dmp_fleet::telemetry_json(&engine)),
        ("engine_events_per_s", per_s(engine.events_processed)),
        ("engine_transits_per_s", per_s(engine.transits)),
    ]);
    #[cfg(feature = "profile")]
    engine_meta.push(("engine_profile", profile_meta()));
    // Label → JSONL file, so a reader of the sidecar can find the raw event
    // streams behind the summary numbers.
    if !report.trace_files.is_empty() {
        engine_meta.push((
            "trace_files",
            Json::arr(report.trace_files.into_iter().map(|f| {
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
    match text {
        Ok(text) => println!("{text}"),
        Err(e) => eprintln!("warning: could not render {name}.json: {e}"),
    }
    TargetOutcome { name, wall, stats }
}

/// The files `dmp-bench render` reads for one argument: a file as given, a
/// directory as every `*.json` in it except the `*.meta.json` sidecars, and
/// every `*.jsonl` trace, sorted by name.
pub fn artifact_files(path: &Path) -> std::io::Result<Vec<PathBuf>> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files = Vec::new();
    for entry in std::fs::read_dir(path)? {
        let file = entry?.path();
        let name = file.file_name().unwrap_or_default().to_string_lossy();
        let data = name.ends_with(".json") && !name.ends_with(".meta.json");
        if (data || name.ends_with(".jsonl")) && file.is_file() {
            files.push(file);
        }
    }
    files.sort();
    Ok(files)
}

/// Render the text of the file at `path` as that file is read: a `.jsonl`
/// file as a flight-recorder trace's report, a file under `metrics/` as a
/// metrics snapshot, any other as the registered target its stem names.
pub fn render_artifact(path: &Path, text: &str) -> Result<String, RenderError> {
    if path.extension() == Some("jsonl".as_ref()) {
        let trace = crate::trace_report::Trace::parse(text).map_err(RenderError)?;
        return crate::trace_report::render_report(&trace);
    }
    let doc = json::parse(text).ok_or_else(|| RenderError("not JSON".into()))?;
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    if path.parent().and_then(Path::file_name) == Some("metrics".as_ref()) {
        let snap = MetricsSnapshot::from_json(&doc)
            .ok_or_else(|| RenderError("not a metrics snapshot".into()))?;
        return Ok(crate::metrics_report::render_snapshot(&stem, &snap));
    }
    let target = find(&stem).ok_or_else(|| RenderError(format!("no target `{stem}`")))?;
    (target.render)(&doc)
}

/// Read and render one artifact file; the error names the file.
pub fn render_file(path: &Path) -> Result<String, RenderError> {
    let rendered = std::fs::read_to_string(path)
        .map_err(|e| RenderError(e.to_string()))
        .and_then(|text| render_artifact(path, &text));
    rendered.map_err(|e| RenderError(format!("{}: {e}", path.display())))
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
        for (i, t) in TARGETS.iter().enumerate() {
            // A name is a command-line word and a file stem, and `all` and
            // `render` are taken.
            let name = t.name;
            assert!(!name.is_empty() && name != "all" && name != "render");
            assert!(
                !name.contains(['/', '.']) && !name.starts_with('-'),
                "{name}"
            );
            assert!(
                TARGETS[..i].iter().all(|earlier| earlier.name != name),
                "{name} is registered twice"
            );
        }
        let paper: Vec<&str> = TARGETS.iter().filter(|t| t.paper).map(|t| t.name).collect();
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
