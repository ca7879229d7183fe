//! Fig. 1: the cumulative generation / arrival / playback curves of
//! multipath live streaming (illustrative figure, regenerated from a real
//! simulated trace; arrivals are split per path as in the paper's
//! solid/dashed curves).

use dmp_core::spec::SchedulerKind;
use dmp_runner::{JobSpec, Json, Runner};
use dmp_sim::{run, setting, ExperimentSpec};

use crate::report::{Leaf, RenderError};
use crate::scale::Scale;
use crate::target::TargetReport;

/// Sample interval of the printed curves, seconds.
const STEP_S: f64 = 5.0;
/// Number of samples (12 steps × 5 s = one minute of video).
const STEPS: usize = 12;
/// Startup delay drawn into the figure.
const TAU_S: f64 = 4.0;

/// Columns per sampled row of the flattened curve series.
const COLS: usize = 6;

/// Simulate `spec` and sample the cumulative curves, playback starting
/// `tau_s` after generation. Returns rows flattened as `[t, generated,
/// arrived_p0, arrived_p1, arrived_all, playback; ...]` so the job result is
/// a plain `Vec<f64>`.
fn curve_rows((spec, tau_s): &(ExperimentSpec, f64)) -> Vec<f64> {
    let out = run(spec);
    let records = out.trace.records();
    let mu = out.trace.video().rate_pps;
    let t0 = records[0].gen_ns as f64 / 1e9;
    let mut rows = Vec::with_capacity((STEPS + 1) * COLS);
    for step in 0..=STEPS {
        let t = step as f64 * STEP_S;
        let abs_ns = ((t0 + t) * 1e9) as u64;
        let generated = records.iter().filter(|r| r.gen_ns <= abs_ns).count();
        let arr = |path: Option<u8>| {
            records
                .iter()
                .filter(|r| {
                    r.arrival_ns
                        .is_some_and(|a| a <= abs_ns && path.is_none_or(|p| r.path == p))
                })
                .count() as f64
        };
        let playback = if t > *tau_s { (t - tau_s) * mu } else { 0.0 };
        rows.extend_from_slice(&[
            t,
            generated as f64,
            arr(Some(0)),
            arr(Some(1)),
            arr(None),
            playback.floor(),
        ]);
    }
    rows
}

/// Fig. 1 target: one cacheable simulation job, rendered as the cumulative
/// curve table. The figure is illustrative, so it uses a fixed 60 s run at
/// every scale (only the seed comes from `scale`).
pub fn fig1(r: &Runner, scale: &Scale) -> TargetReport {
    let seed = scale.seed;
    let mut spec =
        ExperimentSpec::new(*setting("2-2").unwrap(), SchedulerKind::Dynamic, 60.0, seed);
    spec.warmup_s = 10.0;
    let job = JobSpec::keyed("fig1:trace", (spec, TAU_S), seed, curve_rows);
    let cells = r.run_all(vec![job]);
    let rows = cells[0].unwrap().clone();

    let data = Json::obj([
        ("figure", Json::Str("fig1".into())),
        ("tau_s", Json::Num(TAU_S)),
        (
            "columns",
            Json::arr(
                [
                    "t_s",
                    "generated",
                    "arrived_p0",
                    "arrived_p1",
                    "arrived_all",
                    "playback",
                ]
                .into_iter()
                .map(|s| Json::Str(s.into())),
            ),
        ),
        (
            "rows",
            Json::arr(rows.chunks(COLS).map(|r| Json::nums(r.iter().copied()))),
        ),
    ]);
    TargetReport::new(data)
}

/// Fig. 1's text: the sampled curves and a caption with µ·τ.
pub fn render_fig1(doc: &Json) -> Result<String, RenderError> {
    let tau_s = doc.num("tau_s")?;
    let mut text =
        format!("Fig 1: cumulative packet-number curves, Setting 2-2 (tau = {tau_s} s)\n");
    text.push_str(&format!(
        "{:>6}  {:>10}  {:>12}  {:>12}  {:>12}  {:>10}\n",
        "t (s)", "generated", "arrived p0", "arrived p1", "arrived all", "playback"
    ));
    let mut playback = Vec::new();
    for row in doc.items("rows")? {
        let row: Option<Vec<f64>> = row
            .as_arr()
            .and_then(|r| r.iter().map(Json::as_f64).collect());
        let Some([t, generated, p0, p1, all, play]) = row.as_deref() else {
            return Err(RenderError(format!("a row is not {COLS} numbers")));
        };
        text.push_str(&format!(
            "{t:>6.0}  {generated:>10.0}  {p0:>12.0}  {p1:>12.0}  {all:>12.0}  {play:>10.0}\n"
        ));
        playback.push(*play);
    }
    // µ·τ for the caption: playback slope (µ, once t > τ) × startup delay,
    // recovered from the last two playback samples.
    let [.., before, last] = playback[..] else {
        return Err(RenderError("fewer than two rows".into()));
    };
    let mu_tau = (last - before) / STEP_S * tau_s;
    text.push_str(&format!(
        "\nThe arrival curve hugs the generation curve (live constraint: at most\n\
         mu*tau = {mu_tau:.0} packets ahead of playback) and stays above the playback\n\
         line; packets below it would be the paper's shaded 'late packets' region.\n",
    ));
    Ok(text)
}
