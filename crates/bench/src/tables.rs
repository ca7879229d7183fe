//! Tables 1–3: the bottleneck configurations and the measured per-path TCP
//! parameters of the validation settings.

use dmp_core::spec::SchedulerKind;
use dmp_runner::{Json, Runner};
use dmp_sim::{
    batch_jobs, BatchOutput, ExperimentSpec, RunSummary, Setting, CORRELATED, HETEROGENEOUS,
    HOMOGENEOUS, TABLE1,
};

use crate::report::{ci, Table};
use crate::scale::Scale;
use crate::target::TargetReport;

/// Table 1: the four bottleneck-link configurations (static input — printed
/// so the reproduction is self-describing).
pub fn table1(_r: &Runner, _scale: &Scale) -> TargetReport {
    let mut t = Table::new(
        "Table 1: bottleneck-link configurations",
        &[
            "Config",
            "FTP flows",
            "HTTP flows",
            "Prop. delay (ms)",
            "B.w. (Mbps)",
            "Buffer (pkts)",
        ],
    );
    for c in &TABLE1 {
        t.row(vec![
            c.id.to_string(),
            c.ftp_flows.to_string(),
            c.http_flows.to_string(),
            format!("{:.0}", c.delay_ms),
            format!("{:.1}", c.bandwidth_mbps),
            c.buffer_pkts.to_string(),
        ]);
    }
    let data = Json::obj([("table", t.to_json())]);
    TargetReport::new(data)
}

/// Run the per-setting batches on the runner (one job per replication,
/// settings × runs submitted as a single flat batch) and reduce each
/// setting's chunk back into a [`BatchOutput`].
fn measure_batches(r: &Runner, settings: &[Setting], scale: &Scale) -> Vec<BatchOutput> {
    let mut jobs = Vec::with_capacity(settings.len() * scale.sim_runs);
    for (i, s) in settings.iter().enumerate() {
        let spec = ExperimentSpec::new(
            *s,
            SchedulerKind::Dynamic,
            scale.sim_duration_s,
            scale.seed.wrapping_add(1000 * i as u64),
        );
        jobs.extend(batch_jobs(&spec, scale.sim_runs, &[]));
    }
    let cells = r.run_all(jobs);
    cells
        .chunks(scale.sim_runs)
        .map(|chunk| {
            let summaries: Vec<RunSummary> = chunk.iter().map(|c| c.unwrap().clone()).collect();
            BatchOutput::from_summaries(&[], &summaries)
        })
        .collect()
}

fn measure_settings(title: &str, settings: &[Setting], batches: &[BatchOutput]) -> (Table, Json) {
    let mut t = Table::new(
        title,
        &[
            "Setting",
            "p1",
            "p2",
            "R1 (ms)",
            "R2 (ms)",
            "TO1",
            "TO2",
            "mu (pkts ps)",
        ],
    );
    let mut series = Vec::new();
    for (s, batch) in settings.iter().zip(batches) {
        t.row(vec![
            s.name.to_string(),
            ci(batch.loss[0].mean(), batch.loss[0].ci95_half_width(), 3),
            ci(batch.loss[1].mean(), batch.loss[1].ci95_half_width(), 3),
            ci(
                batch.rtt[0].mean() * 1e3,
                batch.rtt[0].ci95_half_width() * 1e3,
                0,
            ),
            ci(
                batch.rtt[1].mean() * 1e3,
                batch.rtt[1].ci95_half_width() * 1e3,
                0,
            ),
            ci(
                batch.to_ratio[0].mean(),
                batch.to_ratio[0].ci95_half_width(),
                2,
            ),
            ci(
                batch.to_ratio[1].mean(),
                batch.to_ratio[1].ci95_half_width(),
                2,
            ),
            format!("{:.0}", s.video.rate_pps),
        ]);
        let stat = |name: &'static str, st: &dmp_core::stats::OnlineStats| {
            (
                name,
                Json::obj([
                    ("mean", Json::Num(st.mean())),
                    ("ci95", Json::Num(st.ci95_half_width())),
                ]),
            )
        };
        series.push(Json::obj([
            ("setting", Json::Str(s.name.to_string())),
            ("mu_pps", Json::Num(s.video.rate_pps)),
            stat("p1", &batch.loss[0]),
            stat("p2", &batch.loss[1]),
            stat("rtt1_s", &batch.rtt[0]),
            stat("rtt2_s", &batch.rtt[1]),
            stat("to1", &batch.to_ratio[0]),
            stat("to2", &batch.to_ratio[1]),
        ]));
    }
    (t, Json::Arr(series))
}

/// Table 2 analog: measured `p`, `R`, `T_O`, µ for the independent-path
/// settings (homogeneous then heterogeneous).
pub fn table2(r: &Runner, scale: &Scale) -> TargetReport {
    let all: Vec<Setting> = HOMOGENEOUS.iter().chain(&HETEROGENEOUS).copied().collect();
    let batches = measure_batches(r, &all, scale);
    let (t_homo, s_homo) = measure_settings(
        "Table 2: measured video-stream parameters, independent paths (homogeneous)",
        &HOMOGENEOUS,
        &batches[..HOMOGENEOUS.len()],
    );
    let (t_het, s_het) = measure_settings(
        "Table 2 (cont.): independent heterogeneous paths",
        &HETEROGENEOUS,
        &batches[HOMOGENEOUS.len()..],
    );
    let data = Json::obj([
        ("tables", Json::arr([t_homo.to_json(), t_het.to_json()])),
        ("homogeneous", s_homo),
        ("heterogeneous", s_het),
    ]);
    TargetReport::new(data)
}

/// Table 3 analog: the same measurements when both TCP flows share one
/// bottleneck (correlated paths, Fig. 6 topology).
pub fn table3(r: &Runner, scale: &Scale) -> TargetReport {
    let batches = measure_batches(r, &CORRELATED, scale);
    let (t, series) = measure_settings(
        "Table 3: measured video-stream parameters, correlated paths",
        &CORRELATED,
        &batches,
    );
    let data = Json::obj([("table", t.to_json()), ("settings", series)]);
    TargetReport::new(data)
}
