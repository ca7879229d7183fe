//! Figures 4 and 5: model validation against the packet-level simulation —
//! (a) the out-of-order scatter (arrival-order vs playback-order late
//! fraction), (b) late fraction vs startup delay from simulation and model.

use dmp_core::spec::{PathSpec, SchedulerKind};
use dmp_runner::{JobSpec, Json, Runner};
use dmp_sim::{batch_jobs, setting, BatchOutput, ExperimentSpec, RunSummary};
use tcp_model::LateCellSpec;

use crate::report::{frac, Table};
use crate::scale::Scale;
use crate::target::TargetReport;

/// Shared engine for Fig. 4 (Setting 2-2) and Fig. 5 (Setting 1-2).
pub fn validation_figure(setting_name: &str, r: &Runner, scale: &Scale) -> TargetReport {
    let s = *setting(setting_name).expect("known setting");
    let spec = ExperimentSpec::new(s, SchedulerKind::Dynamic, scale.sim_duration_s, scale.seed);
    let scatter_taus = [4.0, 6.0, 8.0, 10.0];
    let curve_taus: Vec<f64> = (3..=11).map(f64::from).collect();
    let all_taus: Vec<f64> = scatter_taus
        .iter()
        .chain(curve_taus.iter())
        .copied()
        .collect();

    // Stage 1: the simulation replications (one job each).
    let cells = r.run_all(batch_jobs(&spec, scale.sim_runs, &all_taus));
    let summaries: Vec<RunSummary> = cells.iter().map(|c| c.unwrap().clone()).collect();
    let batch = BatchOutput::from_summaries(&all_taus, &summaries);

    // (a) out-of-order scatter: one point per (run, τ).
    let mut a = Table::new(
        format!("Fig (a): effect of out-of-order packets, Setting {setting_name}"),
        &["run", "tau (s)", "f (playback order)", "f (arrival order)"],
    );
    let mut scatter = Vec::new();
    for (run, report) in batch.reports.iter().enumerate() {
        for lf in report.per_tau.iter().take(scatter_taus.len()) {
            a.row(vec![
                run.to_string(),
                format!("{:.0}", lf.tau_s),
                frac(lf.playback_order),
                frac(lf.arrival_order),
            ]);
            scatter.push(Json::obj([
                ("run", Json::Num(run as f64)),
                ("tau_s", Json::Num(lf.tau_s)),
                ("f_playback", Json::Num(lf.playback_order)),
                ("f_arrival", Json::Num(lf.arrival_order)),
            ]));
        }
    }

    // (b) simulation vs model late fraction over τ. The model uses the
    // *measured* per-path parameters, exactly as the paper feeds Table 2
    // into its model. Stage 2: one cacheable model job per curve τ.
    let paths: Vec<PathSpec> = (0..2)
        .map(|k| PathSpec {
            loss: batch.loss[k].mean().max(1e-5),
            rtt_s: batch.rtt[k].mean(),
            to_ratio: batch.to_ratio[k].mean().max(1.0),
        })
        .collect();
    let model_jobs: Vec<JobSpec<f64>> = curve_taus
        .iter()
        .map(|&tau| {
            let cell = LateCellSpec {
                paths: paths.clone(),
                mu: s.video.rate_pps,
                tau_s: tau,
                consumptions: scale.model_consumptions,
                seed: scale.seed,
            };
            let label = format!("model:{setting_name}:tau{tau}");
            JobSpec::keyed(label, cell, scale.seed, LateCellSpec::run)
        })
        .collect();
    let model_cells = r.run_all(model_jobs);

    let mut b = Table::new(
        format!(
            "Fig (b): fraction of late packets vs startup delay, Setting {setting_name} \
             (model params: p=({:.3},{:.3}) R=({:.0},{:.0})ms TO=({:.1},{:.1}))",
            paths[0].loss,
            paths[1].loss,
            paths[0].rtt_s * 1e3,
            paths[1].rtt_s * 1e3,
            paths[0].to_ratio,
            paths[1].to_ratio
        ),
        &["tau (s)", "f (ns-sim)", "ci95", "f (model)"],
    );
    let mut curve = Vec::new();
    for (i, &tau) in curve_taus.iter().enumerate() {
        let (_, stats) = &batch.late_playback[scatter_taus.len() + i];
        let fm = *model_cells[i].unwrap();
        b.row(vec![
            format!("{tau:.0}"),
            frac(stats.mean()),
            format!("±{:.1e}", stats.ci95_half_width()),
            frac(fm),
        ]);
        curve.push(Json::obj([
            ("tau_s", Json::Num(tau)),
            ("f_sim", Json::Num(stats.mean())),
            ("f_sim_ci95", Json::Num(stats.ci95_half_width())),
            ("f_model", Json::Num(fm)),
        ]));
    }

    let data = Json::obj([
        ("setting", Json::Str(setting_name.to_string())),
        ("scatter", Json::Arr(scatter)),
        ("curve", Json::Arr(curve)),
        (
            "model_paths",
            Json::arr(paths.iter().map(|p| {
                Json::obj([
                    ("loss", Json::Num(p.loss)),
                    ("rtt_s", Json::Num(p.rtt_s)),
                    ("to_ratio", Json::Num(p.to_ratio)),
                ])
            })),
        ),
        ("tables", Json::arr([a.to_json(), b.to_json()])),
    ]);
    TargetReport::new(data).with_metrics(batch.metrics)
}

/// Fig. 4: independent homogeneous paths, Setting 2-2.
pub fn fig4(r: &Runner, scale: &Scale) -> TargetReport {
    validation_figure("2-2", r, scale)
}

/// Fig. 5: independent heterogeneous paths, Setting 1-2.
pub fn fig5(r: &Runner, scale: &Scale) -> TargetReport {
    validation_figure("1-2", r, scale)
}

/// Section 5.3: the correlated-path validation the paper describes but omits
/// figures for — we produce it for setting "corr-2".
pub fn correlated_validation(r: &Runner, scale: &Scale) -> TargetReport {
    validation_figure("corr-2", r, scale)
}
