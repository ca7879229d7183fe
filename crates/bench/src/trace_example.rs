//! The committed flight-recorder example: one quick-scale `ext_failover`
//! replication, traced, plus its rendered `trace_report`.
//!
//! `artifacts/traces/ext_failover_quick_run0.jsonl` and its `.report.txt`
//! are checked into the repository as a worked example of the observability
//! layer; the `trace_example` binary regenerates them and
//! `tests/trace_example.rs` asserts the regenerated trace is byte-identical
//! to the committed one (the trace schema and the simulation are both
//! deterministic, so any diff is a real behaviour change).

use std::path::{Path, PathBuf};

use dmp_core::spec::SchedulerKind;
use dmp_sim::experiment::{ExperimentSpec, RunOutput, TraceSpec};
use obs::Trace;

use crate::scenarios;
use crate::trace_report::{render_report, ReportOptions};

/// Label (and file stem) of the committed example trace.
pub const LABEL: &str = "ext_failover_quick_run0";
/// Simulated video duration of the example, seconds — short enough that the
/// committed JSONL stays reviewable, long enough to show failure + recovery.
pub const DURATION_S: f64 = 60.0;

/// The example's experiment spec: the `ext_failover` study setting and
/// script at `DURATION_S`, first replication (base seed), traced into `dir`
/// (`None`: untraced).
pub fn example_spec(dir: Option<&Path>) -> ExperimentSpec {
    let (scn, _fail_at) = scenarios::failover_scenario(DURATION_S);
    let mut spec = ExperimentSpec::new(
        scenarios::failover_setting(),
        SchedulerKind::Dynamic,
        DURATION_S,
        2007,
    );
    spec.scenario = scn;
    spec.trace = dir.map(|dir| TraceSpec::new(LABEL, dir));
    spec
}

/// Report options matching the `ext_failover` target's evaluation (τ, window)
/// and the study setting's video rate.
pub fn example_report_options() -> ReportOptions {
    ReportOptions {
        rate_pps: scenarios::failover_setting().video.rate_pps,
        tau_s: scenarios::TAU_S,
        window_s: scenarios::WINDOW_S,
        bucket_s: 5.0,
    }
}

/// Run the example into `dir`, returning the trace path, the run itself and
/// the rendered report text.
pub fn generate(dir: &Path) -> (PathBuf, RunOutput, String) {
    let out = dmp_sim::experiment::run(&example_spec(Some(dir)));
    let file = out
        .trace_file
        .clone()
        .expect("a traced run returns its trace file");
    let text = std::fs::read_to_string(&file.path).expect("read trace file");
    let trace = Trace::parse(&text).expect("parse trace");
    assert_eq!(trace.events.len() as u64, file.events);
    let report = render_report(&trace, &example_report_options());
    (file.path, out, report)
}
