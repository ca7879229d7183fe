//! Figure 7: validation against real-socket streaming runs (the paper's
//! Internet experiments, here over the in-process path emulator).
//!
//! Each experiment streams a live video over two emulated paths with
//! time-varying service rates, evaluates the measured late fraction at
//! τ ∈ {4, 6, 8, 10} s in both playback and arrival order (Fig. 7a), and
//! compares the measurement against the model prediction with effective path
//! parameters estimated from the configuration (Fig. 7b). The paper's match
//! criterion is that points fall within the ×10 / ÷10 diagonal band.

use std::time::Duration;

use dmp_core::spec::VideoSpec;
use dmp_live::{model_prediction, run_experiment, AppliedPoint, LiveExperiment, PathProfile};
use dmp_runner::{JobSpec, Json, JsonCodec, JsonRead, Runner};
use dmp_sim::RunSummary;
use obs::TraceSpec;

use crate::report::{frac, tables, Leaf, RenderError, Table};
use crate::scale::Scale;
use crate::target::TargetReport;

/// The experiment mix, mirroring the paper: homogeneous "ADSL" pairs at
/// µ ∈ {25, 50} and heterogeneous (one coast-to-coast path) at µ = 100,
/// 1448-byte packets, headroom ratios spread around 1.3–2.
pub fn experiment_set(scale: &Scale) -> Vec<LiveExperiment> {
    let mut v = Vec::new();
    let pkt = 1448u32;
    let bits = f64::from(pkt) * 8.0;
    let trace_dir = scale.trace_dir();
    for i in 0..scale.live_experiments {
        let (mu, ratio, hetero) = match i % 5 {
            0 => (25.0, 1.4, false),
            1 => (25.0, 1.8, false),
            2 => (50.0, 1.3, false),
            3 => (50.0, 1.6, false),
            _ => (100.0, 1.7, true),
        };
        let total_bps = ratio * mu * bits;
        let (r0, r1) = if hetero {
            (0.65 * total_bps, 0.35 * total_bps)
        } else {
            (0.5 * total_bps, 0.5 * total_bps)
        };
        let delay0 = Duration::from_millis(30);
        let delay1 = Duration::from_millis(if hetero { 100 } else { 30 });
        let mk = |rate: f64, delay: Duration| PathProfile {
            rate_bps: rate,
            variability: 0.35,
            resample_every: Duration::from_millis(700),
            delay,
            queue_bytes: 48 * 1024,
        };
        v.push(LiveExperiment {
            video: VideoSpec {
                rate_pps: mu,
                packet_bytes: pkt,
            },
            packets: scale.live_packets,
            paths: vec![mk(r0, delay0), mk(r1, delay1)],
            send_buf_bytes: 16 * 1024,
            seed: scale.seed.wrapping_add(i as u64 * 97),
            time_dilation: scale.live_time_dilation,
            trace: trace_dir
                .as_ref()
                .map(|dir| TraceSpec::new(format!("fig7_live_exp{i}"), dir)),
        });
    }
    v
}

/// What a live-run job returns: the lateness summary, plus the rate
/// timeline each emulated path applied. The codec is `RunSummary`'s, so the
/// timelines, like the trace file, come back from a run, never the cache.
pub struct LiveSummary {
    /// Lateness, frame metrics and the trace file of the run.
    pub summary: RunSummary,
    /// Per path, the rates the emulator applied, nominal time.
    pub timelines: Vec<Vec<AppliedPoint>>,
}

impl JsonCodec for LiveSummary {
    fn to_json(&self) -> Json {
        self.summary.to_json()
    }

    fn from_json<'a>(json: impl JsonRead<'a>) -> Option<Self> {
        Some(Self {
            summary: RunSummary::from_json(json)?,
            timelines: Vec::new(),
        })
    }
}

/// One live-run job: stream the experiment (its sender, reader and
/// emulator threads all joined before the job returns) and summarise the
/// lateness report. The measurement is wall-clock real — caching it means a
/// re-run of `fig7` re-renders the *recorded* measurement for that
/// configuration and seed instead of re-streaming for `packets/µ` seconds.
/// Delete `target/dmp-cache` or set `DMP_NO_CACHE=1` to re-measure.
fn live_job(i: usize, exp: LiveExperiment, taus: Vec<f64>) -> JobSpec<LiveSummary> {
    let seed = exp.seed;
    let traced = exp.trace.is_some();
    let job = JobSpec::keyed(
        format!("fig7:live:exp{i}"),
        (exp, taus),
        seed,
        |(exp, taus)| {
            let run = run_experiment(exp, taus).expect("live run");
            // Frame metrics on the *nominal-time* trace (run_experiment undilates
            // timestamps), so live distributions are directly comparable with the
            // simulator's. Labelled `backend=live`, so a live snapshot never
            // reads as a simulated one.
            let mut metrics = obs::MetricsSnapshot::new().with_label("backend", "live");
            obs::record_frame_metrics(&mut metrics, run.output.trace.frames());
            LiveSummary {
                summary: RunSummary {
                    paths: Vec::new(),
                    per_tau: run.report.per_tau,
                    metrics,
                    trace_file: run.trace_file,
                },
                timelines: run.timelines,
            }
        },
    );
    // A cache hit would skip the stream and write no trace file.
    if traced {
        job.uncacheable()
    } else {
        job
    }
}

/// Run the Fig. 7 experiment set (wall-clock bound: `packets/(µF)` seconds
/// per experiment at time-dilation factor `F`, parallelised across runner
/// threads) and print both panels.
pub fn fig7(r: &Runner, scale: &Scale) -> TargetReport {
    let taus = [4.0, 6.0, 8.0, 10.0];
    let experiments = experiment_set(scale);

    // Stage 1: the live streaming runs.
    let live_cells = r.run_all(
        experiments
            .iter()
            .enumerate()
            .map(|(i, exp)| live_job(i, exp.clone(), taus.to_vec()))
            .collect(),
    );
    // Stage 2: one cacheable model prediction per (experiment, τ).
    let consumptions = scale.model_consumptions.min(500_000);
    let model_cells = r.run_all(
        experiments
            .iter()
            .enumerate()
            .flat_map(|(i, exp)| {
                taus.iter().map(move |&tau_s| {
                    let mut exp = exp.clone();
                    // The model never looks at the trace label; dropping it
                    // keeps one cache entry per configuration whether or not
                    // the measurement run was traced.
                    exp.trace = None;
                    let seed = exp.seed;
                    JobSpec::keyed(
                        format!("fig7:model:exp{i}:tau{tau_s}"),
                        (exp, tau_s, consumptions),
                        seed,
                        |(exp, tau_s, consumptions)| model_prediction(exp, *tau_s, *consumptions),
                    )
                })
            })
            .collect(),
    );

    let mut a = Table::new(
        "Fig 7(a): out-of-order effect in live runs",
        &["exp", "tau (s)", "f (playback order)", "f (arrival order)"],
    );
    let mut b = Table::new(
        "Fig 7(b): measurement vs model (the paper's x10 band; measured-zero \
         points are excluded from the scatter, as in the paper)",
        &["exp", "tau (s)", "f (measured)", "f (model)", "verdict"],
    );
    let mut plotted = 0u32;
    let mut in_band_count = 0u32;
    let mut points = Vec::new();
    let mut metrics = obs::MetricsSnapshot::new();
    let mut timelines = Vec::new();
    let mut trace_files = Vec::new();
    for (i, (cell, exp)) in live_cells.iter().zip(&experiments).enumerate() {
        let live = cell.unwrap();
        let summary = &live.summary;
        metrics.merge(&summary.metrics);
        trace_files.extend(summary.trace_file.clone());
        for (k, points) in live.timelines.iter().enumerate() {
            let points = points.iter().map(|p| {
                Json::obj([
                    ("t_s", Json::Num(p.t.as_secs_f64())),
                    ("rate_bps", Json::Num(p.rate_bps)),
                ])
            });
            timelines.push((format!("seed{}-path{k}", exp.seed), Json::arr(points)));
        }
        for (ti, lf) in summary.per_tau.iter().enumerate() {
            a.row(vec![
                i.to_string(),
                format!("{:.0}", lf.tau_s),
                measured(lf.playback_order, lf.total),
                measured(lf.arrival_order, lf.total),
            ]);
            let fm = *model_cells[i * taus.len() + ti].unwrap();
            let verdict = if lf.playback_order == 0.0 {
                // The paper: zero-f experiments "are not shown in the plot".
                "(0; not plotted)".to_string()
            } else {
                plotted += 1;
                let ratio = fm / lf.playback_order;
                let ok = (0.1..10.0).contains(&ratio)
                    // Model reporting 0 against a barely-resolved measurement
                    // counts as a match (the paper's model reported exact 0s).
                    || (fm == 0.0 && lf.playback_order < 1e-3);
                if ok {
                    in_band_count += 1;
                    "in band".to_string()
                } else {
                    format!("OUT ({ratio:.1}x)")
                }
            };
            b.row(vec![
                i.to_string(),
                format!("{:.0}", lf.tau_s),
                measured(lf.playback_order, lf.total),
                frac(fm),
                verdict,
            ]);
            points.push(Json::obj([
                ("exp", Json::Num(i as f64)),
                ("tau_s", Json::Num(lf.tau_s)),
                ("f_playback", Json::Num(lf.playback_order)),
                ("f_arrival", Json::Num(lf.arrival_order)),
                ("f_model", Json::Num(fm)),
                ("packets", Json::Num(lf.total as f64)),
            ]));
        }
    }
    let data = Json::obj([
        ("points", Json::Arr(points)),
        (
            "in_band",
            Json::obj([
                ("count", Json::Num(f64::from(in_band_count))),
                ("plotted", Json::Num(f64::from(plotted))),
            ]),
        ),
        ("tables", Json::arr([a.to_json(), b.to_json()])),
    ]);
    // `backend=live` rides in from every summary; no engine label — there is
    // no discrete-event engine behind a wall-clock measurement.
    let mut report = TargetReport::new(data)
        .with_metrics(metrics)
        .with_trace_files(trace_files);
    // Live-path evidence for the sidecar, from the runs that streamed (a
    // cached run has none): volatile by nature, never in the artifact.
    if !timelines.is_empty() {
        report = report.with_meta("live_timelines", Json::obj(timelines));
    }
    report
}

/// A measured late fraction over `packets` packets: a zero is a count of
/// none late, not a bound the run did not resolve.
fn measured(f: f64, packets: u64) -> String {
    if f == 0.0 {
        format!("0 of {packets}")
    } else {
        frac(f)
    }
}

/// Fig. 7's text: both panels and how many plotted points the band holds.
pub fn render_fig7(doc: &Json) -> Result<String, RenderError> {
    let in_band = doc.at("in_band")?;
    let plotted = in_band.num("plotted")?;
    let summary = if plotted == 0.0 {
        "no measured late fraction is nonzero, so nothing is plotted and the \
         x10 band is not tested at this scale"
            .to_string()
    } else {
        format!(
            "{}/{plotted} plotted points inside the x10 band",
            in_band.num("count")?
        )
    };
    Ok(format!(
        "{}\nScatter summary: {summary} (paper: all but one point inside).\n",
        tables(doc)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(count: u32, plotted: u32) -> Json {
        Json::obj([
            (
                "in_band",
                Json::obj([
                    ("count", Json::Num(f64::from(count))),
                    ("plotted", Json::Num(f64::from(plotted))),
                ]),
            ),
            ("tables", Json::Arr(Vec::new())),
        ])
    }

    #[test]
    fn the_summary_says_whether_the_band_was_tested() {
        let none = render_fig7(&doc(0, 0)).unwrap();
        assert!(
            none.contains("x10 band is not tested at this scale"),
            "{none}"
        );
        assert!(!none.contains("0/0"), "{none}");
        let some = render_fig7(&doc(5, 6)).unwrap();
        assert!(
            some.contains("5/6 plotted points inside the x10 band"),
            "{some}"
        );
        assert_eq!(measured(0.0, 400), "0 of 400");
        assert_eq!(measured(2.5e-3, 400), frac(2.5e-3));
    }
}
