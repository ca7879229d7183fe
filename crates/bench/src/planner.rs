//! The capacity planner, a reproduction target over the `tcp-model`
//! planner: dense (loss × τ) heatmaps of the maximum
//! supported playback rate per streaming scheme, computed as one batched
//! [`MuCellSpec`] job per cell, plus a cross-check of the planner's
//! residual-capacity prediction against the fleet's *measured* admission
//! knee.
//!
//! * [`capacity_planner`] — for each (loss, τ) cell and each of single-path /
//!   static / DMP streaming, the largest µ keeping `f < 10⁻⁴`, rendered as
//!   bitrate heatmaps. Every cell is an independent cacheable job, so the
//!   grid fans across the runner and re-renders are free.
//! * [`ext_planner_check`] — the planner's 1.6×-rule prediction of the
//!   fleet admission knee vs [`crate::fleet::fleet_headroom`]'s measured
//!   one (identical fleet specs, so the sweep is answered from the shared
//!   cache when `fleet_headroom` already ran), with the relative error in
//!   the artifact.

use dmp_core::spec::PathSpec;
use dmp_core::HEADROOM_RULE;
use dmp_fleet::{run_fleet, FleetOptions};
use dmp_runner::{JobSpec, Json, Runner};
use tcp_model::{MuCellSpec, PlannerOptions, PlannerScheme};

use crate::fleet::{headroom_fleet_spec, headroom_sweep_sizes, SERVED_FRACTION};
use crate::report::{frac, Leaf, RenderError, Table};
use crate::scale::Scale;
use crate::target::TargetReport;

/// Kilobits per second per pkt/s at the planner's 1500-byte packets.
const PKT_KBPS: f64 = 1500.0 * 8.0 / 1e3;

/// The schemes each heatmap cell is planned for, column order.
pub const SCHEMES: [PlannerScheme; 3] = [
    PlannerScheme::SinglePath,
    PlannerScheme::Static,
    PlannerScheme::Dmp,
];

/// The planner heatmap axes: a loss grid × a τ grid at fixed RTT and
/// timeout ratio, two homogeneous paths per cell.
#[derive(Debug, Clone)]
pub struct PlannerGrid {
    /// Per-path loss probabilities (one heatmap slice per entry).
    pub losses: Vec<f64>,
    /// Startup-delay budgets, seconds (heatmap rows).
    pub taus: Vec<f64>,
    /// Fixed RTT, milliseconds.
    pub rtt_ms: f64,
    /// Fixed timeout ratio `T_O`.
    pub to_ratio: f64,
}

/// The grid for a scale: dense at full fidelity, a 2×3 corner in quick mode
/// (same shape, seconds of compute — the committed artifact).
pub fn planner_grid(scale: &Scale) -> PlannerGrid {
    let full = scale.model_consumptions >= 1_000_000;
    PlannerGrid {
        losses: if full {
            vec![0.005, 0.01, 0.02, 0.04]
        } else {
            vec![0.01, 0.04]
        },
        taus: if full {
            (1..=12).map(|i| 2.0 * f64::from(i)).collect()
        } else {
            vec![4.0, 10.0, 16.0]
        },
        rtt_ms: 150.0,
        to_ratio: 3.0,
    }
}

/// Planner tuning for a scale: the scale's search options (threshold 1e-4,
/// SSA budget, seed) under the library's default µ bracket and resolution.
pub fn planner_options(scale: &Scale) -> PlannerOptions {
    PlannerOptions {
        search: scale.search_options(),
        ..PlannerOptions::default()
    }
}

fn cell_spec(
    grid: &PlannerGrid,
    loss: f64,
    tau_s: f64,
    scheme: PlannerScheme,
    opts: PlannerOptions,
) -> MuCellSpec {
    MuCellSpec {
        paths: vec![PathSpec::from_ms(loss, grid.rtt_ms, grid.to_ratio); 2],
        tau_s,
        scheme,
        opts,
    }
}

/// The `capacity_planner` extension target (see module docs).
pub fn capacity_planner(r: &Runner, scale: &Scale) -> TargetReport {
    let grid = planner_grid(scale);
    let opts = planner_options(scale);
    // One job per (loss, τ, scheme) cell, fanned across the runner. σ_a is
    // recomputed cheaply per cell from the calibration cache for reporting.
    let mut jobs = Vec::new();
    for &loss in &grid.losses {
        for &tau_s in &grid.taus {
            for scheme in SCHEMES {
                let cell = cell_spec(&grid, loss, tau_s, scheme, opts);
                let label = format!("planner:{}:p{loss}:tau{tau_s}", scheme.name());
                jobs.push(JobSpec::keyed(
                    label,
                    cell,
                    opts.search.seed,
                    MuCellSpec::run,
                ));
            }
        }
    }
    let cells = r.run_all(jobs);

    let mut rows = Vec::new();
    let mut metrics = obs::MetricsSnapshot::new();
    let mut i = 0;
    for &loss in &grid.losses {
        for &tau_s in &grid.taus {
            for scheme in SCHEMES {
                let spec = cell_spec(&grid, loss, tau_s, scheme, opts);
                let mu_max = *cells[i].unwrap();
                i += 1;
                let sigma_a = spec.sigma_a();
                metrics.counter_add("planner.cells", 1);
                match mu_max {
                    Some(mu) => metrics
                        .histogram("planner.mu_max_kbps")
                        .record((mu * PKT_KBPS).round() as u64),
                    None => metrics.counter_add("planner.infeasible_cells", 1),
                }
                rows.push(Json::obj([
                    ("loss", Json::Num(loss)),
                    ("tau_s", Json::Num(tau_s)),
                    ("scheme", Json::Str(scheme.name().to_string())),
                    ("sigma_a_pps", Json::Num(sigma_a)),
                    ("mu_max_pps", mu_max.map_or(Json::Null, Json::Num)),
                    (
                        "headroom",
                        mu_max.map_or(Json::Null, |mu| Json::Num(sigma_a / mu)),
                    ),
                ]));
            }
        }
    }
    let data = Json::obj([
        ("threshold", Json::Num(opts.search.threshold)),
        ("rtt_ms", Json::Num(grid.rtt_ms)),
        ("to_ratio", Json::Num(grid.to_ratio)),
        ("cells", Json::arr(rows)),
    ]);
    TargetReport::new(data).with_metrics(metrics)
}

/// The planner's text: one bitrate heatmap per loss rate, a row per τ, a
/// column per scheme of [`SCHEMES`] and the DMP headroom.
pub fn render_planner(doc: &Json) -> Result<String, RenderError> {
    let (threshold, rtt_ms, to_ratio) = (
        doc.num("threshold")?,
        doc.num("rtt_ms")?,
        doc.num("to_ratio")?,
    );
    let kbps = |m: Option<f64>| m.map_or("-".to_string(), |mu| format!("{:.0}", mu * PKT_KBPS));
    let cells = doc.items("cells")?;
    if cells.len() % SCHEMES.len() != 0 {
        return Err(RenderError("the cells end inside a row".into()));
    }
    // One row per (loss, τ): the cells of every scheme, in `SCHEMES` order.
    let mut rows = Vec::new();
    for row_cells in cells.chunks(SCHEMES.len()) {
        let loss = row_cells[0].num("loss")?;
        let mut row = vec![format!("{:.0}", row_cells[0].num("tau_s")?)];
        let mut dmp_headroom = None;
        for (cell, scheme) in row_cells.iter().zip(SCHEMES) {
            if cell.text("scheme")? != scheme.name() || cell.num("loss")? != loss {
                return Err(RenderError(format!("cells are not in {SCHEMES:?} order")));
            }
            row.push(kbps(cell.opt_num("mu_max_pps")?));
            if scheme == PlannerScheme::Dmp {
                dmp_headroom = cell.opt_num("headroom")?;
            }
        }
        row.push(dmp_headroom.map_or("-".to_string(), |h| format!("{h:.2}x")));
        rows.push((loss, row));
    }
    let mut text = String::new();
    for heatmap in rows.chunk_by(|a, b| a.0 == b.0) {
        let mut t = Table::new(
            format!(
                "capacity_planner: max video bitrate (kbps, 1500 B packets, f < {threshold:.0e}) \
                 at p={}, RTT {rtt_ms:.0} ms, T_O {to_ratio:.1}, 2 paths",
                heatmap[0].0
            ),
            &[
                "tau (s)",
                "single path",
                "static 2-path",
                "DMP 2-path",
                "DMP headroom",
            ],
        );
        for (_, row) in heatmap {
            t.row(row.clone());
        }
        text.push_str(&t.render());
        text.push('\n');
    }
    text.push_str(
        "DMP turns the second path into usable capacity: its supported bitrate\n\
         approaches the full aggregate (headroom → 1.6x) while static splitting\n\
         keeps per-path reserves and single-path needs headroom ≈ 2x.\n",
    );
    Ok(text)
}

/// Residual-capacity headroom the planner predicts for `n` sessions sharing
/// the headroom fleet's bottleneck pair: each of a session's `K` paths
/// shares its bottleneck (capacity `C`) with one path of each of the other
/// `n − 1` sessions, which consume `µ/K` apiece on average, so
/// `h(n) = K·(C − (n−1)·µ/K)/µ = K·C/µ − (n−1)`.
pub fn predicted_headroom(capacity_pps: f64, mu_pps: f64, paths: f64, n: u32) -> f64 {
    paths * capacity_pps / mu_pps - (f64::from(n) - 1.0)
}

/// The `ext_planner_check` extension target: planner prediction vs the
/// fleet's measured admission knee (see module docs).
pub fn ext_planner_check(runner: &Runner, scale: &Scale) -> TargetReport {
    // The measured side: re-run fleet_headroom's exact sweep (cache-shared).
    let sizes = headroom_sweep_sizes(scale);
    let probe = headroom_fleet_spec(scale, sizes[0]);
    let capacity_pps = probe.bottleneck_mbps * 1e6 / (8.0 * f64::from(probe.video.packet_bytes));
    let mu_pps = probe.video.rate_pps;
    let paths = f64::from(probe.paths_per_session);

    let mut metrics = obs::MetricsSnapshot::new();
    let mut measured_knee: Option<u32> = None;
    let mut rows = Vec::new();
    for &sessions in &sizes {
        let spec = headroom_fleet_spec(scale, sessions);
        let result = run_fleet(runner, &spec, &FleetOptions::default());
        metrics.merge(&result.metrics);
        let r = &result.report;
        let served = r.started > 0 && r.headroom_ok >= SERVED_FRACTION;
        if served {
            measured_knee = Some(sessions);
        }
        let predicted = predicted_headroom(capacity_pps, mu_pps, paths, sessions);
        rows.push(Json::obj([
            ("sessions", Json::Num(f64::from(sessions))),
            ("predicted_headroom", Json::Num(predicted)),
            ("measured_headroom_mean", Json::Num(r.headroom.mean)),
            ("measured_headroom_p50", Json::Num(r.headroom.p50)),
            ("headroom_ok", Json::Num(r.headroom_ok)),
            ("served", Json::Bool(served)),
        ]));
    }

    // The predicted knee: largest n with h(n) ≥ the 1.6× rule.
    let predicted_knee = (1..=1_000)
        .take_while(|&n| predicted_headroom(capacity_pps, mu_pps, paths, n) >= HEADROOM_RULE)
        .last();
    let knee_rel_error = match (predicted_knee, measured_knee) {
        (Some(p), Some(m)) => Some((f64::from(p) - f64::from(m)).abs() / f64::from(m)),
        _ => None,
    };
    // And the µ view of the same rule: the playback rate the planner would
    // admit at the *measured* knee, vs the µ the fleet actually streams.
    let predicted_mu =
        measured_knee.map(|m| paths * capacity_pps / (HEADROOM_RULE + f64::from(m) - 1.0));
    let mu_rel_error = predicted_mu.map(|p| (p - mu_pps).abs() / mu_pps);

    if let Some(e) = knee_rel_error {
        metrics.gauge_max("planner.knee_rel_error_pct", e * 100.0);
    }
    metrics.counter_add("planner.check_points", sizes.len() as u64);
    let data = Json::obj([
        ("headroom_rule", Json::Num(HEADROOM_RULE)),
        ("capacity_pps", Json::Num(capacity_pps)),
        ("mu_pps", Json::Num(mu_pps)),
        ("paths_per_session", Json::Num(paths)),
        (
            "predicted_knee",
            predicted_knee.map_or(Json::Null, |n| Json::Num(f64::from(n))),
        ),
        (
            "measured_knee",
            measured_knee.map_or(Json::Null, |n| Json::Num(f64::from(n))),
        ),
        (
            "knee_rel_error",
            knee_rel_error.map_or(Json::Null, Json::Num),
        ),
        (
            "predicted_mu_at_measured_knee_pps",
            predicted_mu.map_or(Json::Null, Json::Num),
        ),
        ("mu_rel_error", mu_rel_error.map_or(Json::Null, Json::Num)),
        ("sweep", Json::arr(rows)),
    ]);
    TargetReport::new(data).with_metrics(metrics)
}

/// The planner check's text: the sweep, predicted against measured, and
/// the two knees.
pub fn render_check(doc: &Json) -> Result<String, RenderError> {
    let mut t = Table::new(
        format!(
            "ext_planner_check: predicted vs measured headroom on one bottleneck \
             pair (C = {:.0} pkt/s, µ = {:.0} pkt/s, K = {:.0})",
            doc.num("capacity_pps")?,
            doc.num("mu_pps")?,
            doc.num("paths_per_session")?
        ),
        &[
            "sessions",
            "predicted headroom",
            "measured mean",
            "measured p50",
            ">=1.6x rule",
            "verdict",
        ],
    );
    for p in doc.items("sweep")? {
        t.row(vec![
            p.num("sessions")?.to_string(),
            format!("{:.2}", p.num("predicted_headroom")?),
            format!("{:.2}", p.num("measured_headroom_mean")?),
            format!("{:.2}", p.num("measured_headroom_p50")?),
            frac(p.num("headroom_ok")?),
            if p.flag("served")? {
                "served"
            } else {
                "degraded"
            }
            .to_string(),
        ]);
    }
    let or_dash = |v: Option<f64>, f: fn(f64) -> String| v.map_or("-".to_string(), f);
    Ok(format!(
        "{}\nPredicted knee (h(n) >= {}): {}   measured knee (>= {:.0}% served): {}   \
         relative error: {}\n\
         The planner's residual-capacity model ignores queueing and churn burstiness,\n\
         so it is expected to land near — typically under — the measured knee.\n",
        t.render(),
        doc.num("headroom_rule")?,
        or_dash(doc.opt_num("predicted_knee")?, |n| n.to_string()),
        SERVED_FRACTION * 100.0,
        or_dash(doc.opt_num("measured_knee")?, |n| n.to_string()),
        or_dash(doc.opt_num("knee_rel_error")?, |e| format!(
            "{:.0}%",
            e * 100.0
        )),
    ))
}
