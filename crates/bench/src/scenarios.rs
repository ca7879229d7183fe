//! Extension: scripted fault injection — the resilience benefit the paper
//! argues for qualitatively (Sections 1 and 7) but never measures. A
//! deterministic [`scenario`] timeline perturbs the paths mid-stream and all
//! schedulers replay the identical script, so the only difference between
//! rows is how the scheduler reacts.
//!
//! * [`ext_failover`] — path 0 of two goes down 35 % into the video and
//!   stays down: DMP re-routes onto the survivor, static splitting keeps
//!   committing half the stream to the dead path, and single-path TCP never
//!   recovers at all.
//! * [`ext_flashcrowd`] — six extra backlogged TCP flows join path 0's
//!   bottleneck for a quarter of the video: a transient overload instead of
//!   a hard failure.

use dmp_core::resilience::WINDOW_S;
use dmp_core::{ResilienceSpec, SchedulerKind, VideoSpec};
use dmp_runner::{JobSpec, Json, JsonCodec, Runner};
use dmp_sim::{
    config, scenario_batch_jobs, setting, ExperimentSpec, ScenarioSummary, Setting, TraceSpec,
};
use scenario::{Event, Scenario};

use crate::report::{frac, tau, Leaf, RenderError, Table};
use crate::scale::Scale;
use crate::target::{opt_num, TargetReport};

/// Startup delay τ at which the scenario runs are evaluated, seconds.
pub const TAU_S: f64 = 6.0;
/// Schedulers compared under every scenario, in row order.
const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Dynamic,
    SchedulerKind::SinglePath,
    SchedulerKind::Static,
];

/// Failover study setting: two Config-2 bottlenecks carrying a µ=25 video —
/// light enough that the surviving path alone can carry the full rate, so
/// after the outage it is the *scheduler*, not capacity, that decides
/// whether the stream comes back.
pub(crate) fn failover_setting() -> Setting {
    Setting {
        name: "fail-2-2",
        configs: [*config(2); 2],
        video: VideoSpec {
            rate_pps: 25.0,
            packet_bytes: 1500,
        },
        correlated: false,
    }
}

/// The failover script: path 0 goes down 35 % into the video and never
/// comes back. Returns the scenario and the failure instant (video clock).
pub fn failover_scenario(duration_s: f64) -> (Scenario, f64) {
    let fail_at = (0.35 * duration_s).floor();
    let scn = Scenario::named("failover").at(fail_at, 0, Event::PathDown);
    (scn, fail_at)
}

/// The flash-crowd script: `n_flows` extra backlogged TCP flows join path
/// 0's bottleneck 30 % into the video and stay for a quarter of it. Returns
/// the scenario and the onset instant (video clock).
pub fn flashcrowd_scenario(duration_s: f64) -> (Scenario, f64) {
    let at = (0.3 * duration_s).floor();
    let scn = Scenario::named("flashcrowd").at(
        at,
        0,
        Event::FlashCrowd {
            n_flows: 6,
            duration_s: (0.25 * duration_s).floor(),
        },
    );
    (scn, at)
}

fn resilience_spec(fail_at_s: f64) -> ResilienceSpec {
    ResilienceSpec {
        tau_s: TAU_S,
        fail_at_s: Some(fail_at_s),
    }
}

fn scenario_spec(
    setting: Setting,
    scheduler: SchedulerKind,
    scn: &Scenario,
    scale: &Scale,
) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(setting, scheduler, scale.sim_duration_s, scale.seed);
    spec.scenario = scn.clone();
    // Per-run labels come from the job labels in `scenario_batch_jobs`.
    spec.trace = scale.trace_dir().map(|dir| TraceSpec::new("", dir));
    spec
}

/// One scenario's job matrix — scheduler × replication, in that nesting
/// order.
fn scheduler_jobs(
    setting: Setting,
    scn: &Scenario,
    at_s: f64,
    scale: &Scale,
) -> Vec<JobSpec<ScenarioSummary>> {
    let res = resilience_spec(at_s);
    SCHEDULERS
        .iter()
        .flat_map(|&sched| {
            let spec = scenario_spec(setting, sched, scn, scale);
            scenario_batch_jobs(&spec, scale.sim_runs, &[TAU_S], res)
        })
        .collect()
}

/// The failover job matrix. Public so the cache-key tests can read its
/// keys and labels.
pub fn failover_jobs(scale: &Scale) -> Vec<JobSpec<ScenarioSummary>> {
    let (scn, fail_at) = failover_scenario(scale.sim_duration_s);
    scheduler_jobs(failover_setting(), &scn, fail_at, scale)
}

/// The flash-crowd job matrix.
pub fn flashcrowd_jobs(scale: &Scale) -> Vec<JobSpec<ScenarioSummary>> {
    let (scn, at) = flashcrowd_scenario(scale.sim_duration_s);
    scheduler_jobs(*setting("2-2").expect("built-in"), &scn, at, scale)
}

/// Per-scheduler reduction of one scenario's replications.
struct SchedRow {
    name: &'static str,
    runs: Vec<ScenarioSummary>,
}

impl SchedRow {
    fn mean<F: Fn(&ScenarioSummary) -> f64>(&self, f: F) -> f64 {
        self.runs.iter().map(f).sum::<f64>() / self.runs.len() as f64
    }

    fn recovered(&self) -> usize {
        self.runs.iter().filter(|s| s.resilience.recovered).count()
    }

    /// Mean time-to-recover over the runs that recovered.
    fn ttr_mean(&self) -> Option<f64> {
        let ttrs: Vec<f64> = self
            .runs
            .iter()
            .filter_map(|s| s.resilience.time_to_recover_s)
            .collect();
        if ttrs.is_empty() {
            None
        } else {
            Some(ttrs.iter().sum::<f64>() / ttrs.len() as f64)
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("scheduler", Json::Str(self.name.to_string())),
            (
                "glitches_mean",
                Json::Num(self.mean(|s| s.resilience.glitch_count as f64)),
            ),
            (
                "total_glitch_s_mean",
                Json::Num(self.mean(|s| s.resilience.total_glitch_s)),
            ),
            (
                "worst_window_late_mean",
                Json::Num(self.mean(|s| s.resilience.worst_window_late)),
            ),
            ("recovered_runs", Json::Num(self.recovered() as f64)),
            ("time_to_recover_s_mean", opt_num(self.ttr_mean())),
            (
                "runs",
                Json::Arr(self.runs.iter().map(JsonCodec::to_json).collect()),
            ),
        ])
    }
}

/// Reduce the cells of one scenario target (scheduler-major, run-innermost)
/// into per-scheduler rows.
fn reduce(cells: &[dmp_runner::Cell<ScenarioSummary>], runs: usize) -> Vec<SchedRow> {
    SCHEDULERS
        .iter()
        .zip(cells.chunks(runs))
        .map(|(sched, cells)| SchedRow {
            name: sched.name(),
            runs: cells.iter().map(|c| c.unwrap().clone()).collect(),
        })
        .collect()
}

/// The artifact of one scenario target: the script, and per scheduler the
/// means over its replications and the replications themselves.
fn report(rows: &[SchedRow], scn: &Scenario, at_s: f64) -> TargetReport {
    let data = Json::obj([
        ("scenario", Json::Str(scn.canonical())),
        (
            "scenario_hash",
            Json::Str(format!("{:016x}", scn.stable_hash())),
        ),
        ("fail_at_s", Json::Num(at_s)),
        ("tau_s", Json::Num(TAU_S)),
        ("window_s", Json::Num(WINDOW_S)),
        (
            "schedulers",
            Json::Arr(rows.iter().map(SchedRow::to_json).collect()),
        ),
    ]);
    // Merged always-on metrics over every replication, and the trace files
    // of a traced run.
    let runs = || rows.iter().flat_map(|row| &row.runs);
    let mut metrics = obs::MetricsSnapshot::new();
    for s in runs() {
        metrics.merge(&s.summary.metrics);
    }
    TargetReport::new(data)
        .with_metrics(metrics)
        .with_trace_files(runs().filter_map(|s| s.summary.trace_file.clone()))
}

/// A scenario target's text: the title `title` builds from the script's
/// instant, τ and the replications per scheduler, a row of means per
/// scheduler, then `reading`.
fn render_scenario(
    doc: &Json,
    title: fn(f64, f64, usize) -> String,
    reading: &str,
) -> Result<String, RenderError> {
    let schedulers = doc.items("schedulers")?;
    let runs = match schedulers.first() {
        Some(row) => row.items("runs")?.len(),
        None => 0,
    };
    let mut t = Table::new(
        title(doc.num("fail_at_s")?, doc.num("tau_s")?, runs),
        &[
            "scheduler",
            "glitches",
            "stalled (s)",
            "worst 10 s window",
            "recovered",
            "TTR (s)",
        ],
    );
    for row in schedulers {
        t.row(vec![
            row.text("scheduler")?.to_string(),
            format!("{:.1}", row.num("glitches_mean")?),
            format!("{:.1}", row.num("total_glitch_s_mean")?),
            frac(row.num("worst_window_late_mean")?),
            format!(
                "{}/{}",
                row.num("recovered_runs")?,
                row.items("runs")?.len()
            ),
            tau(row.opt_num("time_to_recover_s_mean")?),
        ]);
    }
    Ok(t.render() + reading)
}

/// Scenario extension 1 — mid-stream path failure (see module docs).
pub fn ext_failover(r: &Runner, scale: &Scale) -> TargetReport {
    let (scn, fail_at) = failover_scenario(scale.sim_duration_s);
    let cells = r.run_all(failover_jobs(scale));
    report(&reduce(&cells, scale.sim_runs), &scn, fail_at)
}

/// `ext_failover`'s text.
pub fn render_failover(doc: &Json) -> Result<String, RenderError> {
    render_scenario(
        doc,
        |at, tau, runs| {
            format!(
                "Scenario: permanent failure of path 0 at t={at:.0}s \
                 (Setting fail-2-2, mu=25, tau={tau}, mean over {runs} runs)"
            )
        },
        "Reading: the surviving path alone can carry the 25 pkt/s video, so what\n\
         happens after the outage is pure scheduler policy. DMP's backpressure\n\
         pull means the dead path simply stops pulling — the stream glitches for\n\
         roughly one send-buffer drain and then recovers on path 1. Static\n\
         splitting keeps assigning every other packet to the dead path and never\n\
         recovers; single-path streaming on the failed path loses everything\n\
         from the outage on.\n",
    )
}

/// Scenario extension 2 — a transient flash crowd (see module docs).
pub fn ext_flashcrowd(r: &Runner, scale: &Scale) -> TargetReport {
    let (scn, at) = flashcrowd_scenario(scale.sim_duration_s);
    let cells = r.run_all(flashcrowd_jobs(scale));
    report(&reduce(&cells, scale.sim_runs), &scn, at)
}

/// `ext_flashcrowd`'s text.
pub fn render_flashcrowd(doc: &Json) -> Result<String, RenderError> {
    render_scenario(
        doc,
        |at, tau, runs| {
            format!(
                "Scenario: flash crowd of 6 TCP flows on path 0 at t={at:.0}s for a \
                 quarter of the video (Setting 2-2, tau={tau}, mean over {runs} runs)"
            )
        },
        "Reading: unlike the hard failure, the crowded path keeps trickling, so\n\
         every scheduler eventually delivers — the question is how much stalls.\n\
         DMP's send buffers fill on the crowded path and the pull scheduler\n\
         shifts packets to the quiet one, keeping the worst window mild; static\n\
         splitting ships half the stream into the congested queue for the whole\n\
         episode, and single-path rides it out at the crowd's mercy.\n",
    )
}
