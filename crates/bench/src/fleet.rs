//! Fleet-scale extension targets: the operational question behind the
//! paper's per-session verdicts.
//!
//! * [`ext_fleet`] — one fleet of churning DMP sessions with a flash-crowd
//!   arrival spike; the artifact records the fleet report, the per-shard
//!   engine-counter breakdown goes to the volatile `.meta.json` sidecar.
//! * [`fleet_headroom`] — sweep the fleet size on a fixed pair of shared
//!   bottlenecks and report the largest fleet in which at least 95 % of
//!   sessions still meet the paper's 1.6× headroom rule — Section 7.3's
//!   rule of thumb recast as an admission-control capacity.

use dmp_core::HEADROOM_RULE;
use dmp_fleet::{run_fleet, FleetOptions, FleetSpec};
use dmp_runner::{Json, Runner};
use scenario::FleetTimeline;

use crate::report::{frac, Leaf, RenderError, Table};
use crate::scale::Scale;
use crate::target::TargetReport;

/// Fraction of started sessions that must meet the 1.6× rule for a fleet
/// size to count as "served" in the headroom sweep.
pub const SERVED_FRACTION: f64 = 0.95;

/// Whether the scale is the full-fidelity one (quick mode keeps fleets to a
/// few seconds of wall clock; the tier-1 reproduction gate relies on it).
fn is_full(scale: &Scale) -> bool {
    scale.sim_duration_s >= 1_000.0
}

/// The churn fleet `ext_fleet` runs: sessions arrive as an inhomogeneous
/// Poisson process whose rate jumps 6× for a quarter of the window (the
/// flash crowd), hold for an exponential time, and contend pairwise on each
/// shard's two shared bottlenecks.
pub fn fleet_spec(scale: &Scale) -> FleetSpec {
    let (sessions, shard_sessions, duration_s) = if is_full(scale) {
        (48, 24, 120.0)
    } else {
        (12, 6, 40.0)
    };
    let mut spec = FleetSpec::new("churn", sessions, shard_sessions, scale.seed);
    spec.duration_s = duration_s;
    spec.warmup_s = 2.0;
    spec.arrival_rate_per_s = shard_sessions as f64 / duration_s * 1.8;
    spec.mean_hold_s = duration_s * 0.55;
    spec.timeline = FleetTimeline::named("flash").spike(0.3 * duration_s, 6.0, 0.25 * duration_s);
    spec
}

/// Fleet churn study (see module docs).
pub fn ext_fleet(runner: &Runner, scale: &Scale) -> TargetReport {
    let opts = FleetOptions {
        trace_dir: scale.trace_dir(),
    };
    let spec = fleet_spec(scale);
    let result = run_fleet(runner, &spec, &opts);
    let data = Json::obj([("fleet", result.artifact(&spec))]);
    // Satellite of `EngineTelemetry::absorb`: the volatile sidecar carries
    // the per-shard counter breakdown plus the absorbed fleet total.
    TargetReport::new(data)
        .with_meta("shards", result.shards_meta())
        .with_metrics(result.metrics)
        .with_trace_files(result.trace_files)
}

/// `ext_fleet`'s text: one row of fleet totals; the events and shards are
/// the sum and count of `shard_events`.
pub fn render_ext_fleet(doc: &Json) -> Result<String, RenderError> {
    let r = doc.at("fleet")?;
    let shard_events = r.items("shard_events")?;
    let events = shard_events.iter().map(Json::as_f64).sum::<Option<f64>>();
    let events = events.ok_or_else(|| RenderError("a shard's events are not a number".into()))?;
    let sessions = r.num("sessions")?;
    let shards = shard_events.len();
    let mut t = Table::new(
        format!(
            "ext_fleet: {sessions} churning DMP sessions, flash-crowd arrivals ({shards} shards)"
        ),
        &[
            "sessions",
            "started",
            "completed",
            "goodput (pkt/s)",
            "late p90",
            "glitches p90",
            "headroom p50",
            "≥1.6× rule",
            "events",
            "shards",
        ],
    );
    t.row(vec![
        sessions.to_string(),
        r.num("started")?.to_string(),
        r.num("completed")?.to_string(),
        format!("{:.0}", r.num("goodput_pps")?),
        frac(r.at("late")?.num("p90")?),
        format!("{:.1}", r.at("glitches")?.num("p90")?),
        format!("{:.2}", r.at("headroom")?.num("p50")?),
        frac(r.num("headroom_ok")?),
        events.to_string(),
        shards.to_string(),
    ]);
    Ok(t.render())
}

/// Fleet sizes swept by [`fleet_headroom`], smallest first.
pub fn headroom_sweep_sizes(scale: &Scale) -> Vec<u32> {
    if is_full(scale) {
        vec![4, 8, 12, 16, 20, 24]
    } else {
        vec![2, 8, 14, 20]
    }
}

/// The one-shard spec behind one point of the [`fleet_headroom`] sweep —
/// exposed so `ext_planner_check` re-runs the *identical* (hence cached)
/// fleet cells when comparing the capacity planner's prediction against the
/// measured admission knee. Every session in the sweep contends on the same
/// two bottlenecks, so size maps directly to concurrency: arrivals pile into
/// the first tenth of the window (the timeline shape is what steers the
/// conditioned-on-N sampler, not the rate magnitude) and sessions hold past
/// the end of it.
pub fn headroom_fleet_spec(scale: &Scale, sessions: u32) -> FleetSpec {
    let duration_s = if is_full(scale) { 150.0 } else { 50.0 };
    let mut spec = FleetSpec::new("headroom", sessions, sessions, scale.seed);
    spec.duration_s = duration_s;
    spec.warmup_s = 2.0;
    spec.arrival_rate_per_s = sessions as f64 / duration_s;
    spec.mean_hold_s = duration_s * 2.0;
    spec.timeline = FleetTimeline::named("frontload").spike(0.0, 50.0, 0.1 * duration_s);
    spec
}

/// Admission-capacity sweep: how many churning sessions can share one pair
/// of bottlenecks before the 1.6× rule starts failing fleet-wide?
pub fn fleet_headroom(runner: &Runner, scale: &Scale) -> TargetReport {
    let mut rows = Vec::new();
    let mut served_capacity: Option<u32> = None;
    let mut metrics = obs::MetricsSnapshot::new();
    for sessions in headroom_sweep_sizes(scale) {
        let spec = headroom_fleet_spec(scale, sessions);
        let result = run_fleet(runner, &spec, &FleetOptions::default());
        metrics.merge(&result.metrics);
        let r = &result.report;
        let served = r.started > 0 && r.headroom_ok >= SERVED_FRACTION;
        if served {
            served_capacity = Some(sessions);
        }
        rows.push(Json::obj([
            ("sessions", Json::Num(f64::from(sessions))),
            ("started", Json::Num(r.started as f64)),
            ("headroom_mean", Json::Num(r.headroom.mean)),
            ("headroom_p50", Json::Num(r.headroom.p50)),
            ("headroom_ok", Json::Num(r.headroom_ok)),
            ("late_p90", Json::Num(r.late.p90)),
            ("goodput_pps", Json::Num(r.goodput_pps)),
            ("served", Json::Bool(served)),
        ]));
    }
    let data = Json::obj([
        ("headroom_rule", Json::Num(HEADROOM_RULE)),
        ("served_fraction", Json::Num(SERVED_FRACTION)),
        (
            "served_capacity",
            match served_capacity {
                Some(n) => Json::Num(f64::from(n)),
                None => Json::Null,
            },
        ),
        ("sweep", Json::arr(rows)),
    ]);
    TargetReport::new(data).with_metrics(metrics)
}

/// `fleet_headroom`'s text: the sweep and the largest served fleet.
pub fn render_headroom(doc: &Json) -> Result<String, RenderError> {
    let rule = doc.num("headroom_rule")?;
    let served_pct = doc.num("served_fraction")? * 100.0;
    let mut t = Table::new(
        format!("fleet_headroom: sessions vs the {rule}× rule on one shared bottleneck pair"),
        &[
            "sessions",
            "started",
            "headroom mean",
            "headroom p50",
            "≥1.6× rule",
            "late p90",
            "verdict",
        ],
    );
    for p in doc.items("sweep")? {
        t.row(vec![
            p.num("sessions")?.to_string(),
            p.num("started")?.to_string(),
            format!("{:.2}", p.num("headroom_mean")?),
            format!("{:.2}", p.num("headroom_p50")?),
            frac(p.num("headroom_ok")?),
            frac(p.num("late_p90")?),
            if p.flag("served")? {
                "served"
            } else {
                "degraded"
            }
            .to_string(),
        ]);
    }
    let verdict = match doc.opt_num("served_capacity")? {
        Some(n) => format!(
            "Largest fleet meeting the {rule}× rule for ≥{served_pct:.0}% of \
             sessions: {n} concurrent-churning sessions."
        ),
        None => {
            format!("No swept fleet size met the {rule}× rule for ≥{served_pct:.0}% of sessions.")
        }
    };
    Ok(format!("{}\n{verdict}\n", t.render()))
}
