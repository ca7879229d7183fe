//! Extension: the (congestion control × pull strategy) **headroom matrix**.
//!
//! The paper's Section 7.3 safety rule says live multipath streaming works
//! when the paths' aggregate achievable TCP rate σ_a exceeds the video rate
//! µ by a comfortable multiple. That rule was derived for Reno and the
//! paper's round-robin pull. This target measures how the required multiple
//! moves when either axis changes:
//!
//! 1. For each congestion-control algorithm, a **saturation probe**
//!    ([`dmp_sim::probe`]) measures σ_a empirically on the study setting —
//!    the same experiment with the video source outrunning the network.
//! 2. For each (cc, strategy) cell, the video is streamed at µ = σ_a/m for
//!    ascending multiples `m`; the cell's **headroom** is the smallest `m`
//!    whose mean playback-order late fraction stays under
//!    [`LATE_BUDGET`]. Cells that fail the whole grid report `null`
//!    (headroom beyond the largest multiple tried — e.g. redundant
//!    duplication burns roughly half the aggregate rate on copies).
//!
//! The artifact is deterministic: byte-identical across runner thread counts
//! and cache states.

use cc::CcKind;
use dmp_core::spec::{PullStrategy, SchedulerKind};
use dmp_runner::{Json, Runner};
use dmp_sim::experiment::{batch_jobs, ExperimentSpec, RunSummary};
use dmp_sim::probe::{saturation_jobs, SaturationReport};
use dmp_sim::setting;

use crate::report::{frac, Leaf, RenderError, Table};
use crate::scale::Scale;
use crate::target::TargetReport;

/// Startup delay τ the late fractions are evaluated at, seconds.
pub const TAU_S: f64 = 4.0;
/// A cell passes a multiple when its mean playback-order late fraction is
/// below this (the "<1 % late frames" criterion).
pub const LATE_BUDGET: f64 = 0.01;
/// Ascending grid of σ_a/µ multiples searched for each cell's headroom.
pub const MULTIPLES: [f64; 5] = [1.2, 1.4, 1.6, 1.8, 2.2];
/// The study setting: the homogeneous Config-2 pair used throughout the
/// scenario extensions.
pub const SETTING: &str = "2-2";

/// Matrix dimensions and per-run scale, derived from a [`Scale`] (or
/// reduced for the smoke gate).
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// σ_a/µ multiples tried, ascending.
    pub multiples: Vec<f64>,
    /// Replications per (cc, strategy, multiple).
    pub runs: usize,
    /// Video duration per run, seconds.
    pub duration_s: f64,
    /// Base seed.
    pub seed: u64,
}

impl MatrixOptions {
    /// The target's options at a given scale.
    pub fn from_scale(scale: &Scale) -> Self {
        Self {
            multiples: MULTIPLES.to_vec(),
            runs: scale.sim_runs,
            duration_s: scale.sim_duration_s,
            seed: scale.seed,
        }
    }

    /// Reduced grid for the thread-invariance test: one multiple, one
    /// replication, short runs — enough to exercise every cell without
    /// re-deriving the committed headrooms.
    pub fn smoke() -> Self {
        Self {
            multiples: vec![1.6],
            runs: 1,
            duration_s: 60.0,
            seed: 2007,
        }
    }
}

/// One (cc, strategy) cell of the matrix.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Congestion-control algorithm of the cell.
    pub cc: CcKind,
    /// Pull strategy of the cell.
    pub strategy: PullStrategy,
    /// Measured aggregate saturation rate σ_a for this cc, packets/second
    /// (probed once per cc, round-robin pull).
    pub sigma_pps: f64,
    /// Smallest multiple in the grid meeting the late budget, if any.
    pub headroom: Option<f64>,
    /// `(multiple, mean playback late fraction)` for every multiple tried
    /// (the ascending search stops at the first pass).
    pub tried: Vec<(f64, f64)>,
    /// Always-on metrics merged over the cell's replications
    /// (every multiple tried). Labelled with the cell's cc/strategy by the
    /// dmp-sim layer; stays out of [`CellOutcome::to_json`] — the target
    /// folds it into the standalone `metrics/<name>.json` instead.
    pub metrics: obs::MetricsSnapshot,
}

impl CellOutcome {
    /// The cell's deterministic JSON node (one entry of the artifact's
    /// `cells` array — what the smoke gate byte-compares).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cc", Json::Str(self.cc.name().to_string())),
            ("strategy", Json::Str(self.strategy.name().to_string())),
            ("sigma_pps", Json::Num(self.sigma_pps)),
            ("headroom", self.headroom.map_or(Json::Null, Json::Num)),
            (
                "tried",
                Json::Arr(
                    self.tried
                        .iter()
                        .map(|&(m, late)| {
                            Json::obj([("multiple", Json::Num(m)), ("late", Json::Num(late))])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The whole matrix plus the per-cc probes behind it.
#[derive(Debug, Clone)]
pub struct MatrixOutcome {
    /// `(cc, σ_a pps)` per congestion control.
    pub probes: Vec<(CcKind, f64)>,
    /// Cells in cc-major, strategy-minor order.
    pub cells: Vec<CellOutcome>,
    /// Options the matrix was computed with.
    pub options: MatrixOptions,
}

impl MatrixOutcome {
    /// The deterministic artifact payload.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("setting", Json::Str(SETTING.to_string())),
            ("tau_s", Json::Num(TAU_S)),
            ("late_budget", Json::Num(LATE_BUDGET)),
            (
                "multiples",
                Json::Arr(
                    self.options
                        .multiples
                        .iter()
                        .map(|&m| Json::Num(m))
                        .collect(),
                ),
            ),
            ("runs", Json::Num(self.options.runs as f64)),
            ("duration_s", Json::Num(self.options.duration_s)),
            ("seed", Json::Num(self.options.seed as f64)),
            (
                "probes",
                Json::Arr(
                    self.probes
                        .iter()
                        .map(|(kind, sigma)| {
                            Json::obj([
                                ("cc", Json::Str(kind.name().to_string())),
                                ("sigma_pps", Json::Num(*sigma)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "cells",
                Json::Arr(self.cells.iter().map(CellOutcome::to_json).collect()),
            ),
        ])
    }
}

/// The base streaming spec of the matrix: the study setting under the
/// dynamic (DMP) scheduler at the given cell coordinates.
fn cell_spec(kind: CcKind, strategy: PullStrategy, opts: &MatrixOptions) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        *setting(SETTING).expect("built-in"),
        SchedulerKind::Dynamic,
        opts.duration_s,
        opts.seed,
    );
    spec.warmup_s = 10.0;
    spec.cc = kind;
    spec.strategy = strategy;
    spec
}

/// Probe σ_a for one congestion control (round-robin pull — the multiples
/// are defined against the baseline striping).
fn probe_sigma(runner: &Runner, kind: CcKind, opts: &MatrixOptions) -> f64 {
    let spec = cell_spec(kind, PullStrategy::RoundRobin, opts);
    let cells = runner.run_all(saturation_jobs(&spec, 1));
    let r: &SaturationReport = cells[0]
        .ok()
        .unwrap_or_else(|| panic!("{} failed: {:?}", cells[0].label, cells[0].failure()));
    r.aggregate_pps
}

/// Mean playback-order late fraction at [`TAU_S`] over a batch.
fn mean_late(runs: &[&RunSummary]) -> f64 {
    runs.iter()
        .map(|r| r.per_tau[0].playback_order)
        .sum::<f64>()
        / runs.len() as f64
}

/// Video rate for one multiple: µ = σ_a/m, rounded to 0.01 pps so the cache
/// key stays readable and exactly reproducible.
fn rate_for(sigma_pps: f64, multiple: f64) -> f64 {
    (sigma_pps / multiple * 100.0).round() / 100.0
}

/// Ascending headroom search for one cell given its cc's probed σ_a.
fn cell_outcome(
    runner: &Runner,
    kind: CcKind,
    strategy: PullStrategy,
    sigma_pps: f64,
    opts: &MatrixOptions,
) -> CellOutcome {
    let mut tried = Vec::new();
    let mut headroom = None;
    let mut metrics = obs::MetricsSnapshot::new();
    for &m in &opts.multiples {
        let mut spec = cell_spec(kind, strategy, opts);
        spec.setting.video.rate_pps = rate_for(sigma_pps, m);
        let cells = runner.run_all(batch_jobs(&spec, opts.runs, &[TAU_S]));
        let runs: Vec<&RunSummary> = cells
            .iter()
            .map(|c| {
                c.ok()
                    .unwrap_or_else(|| panic!("{} failed: {:?}", c.label, c.failure()))
            })
            .collect();
        for r in &runs {
            metrics.merge(&r.metrics);
        }
        let late = mean_late(&runs);
        tried.push((m, late));
        if late < LATE_BUDGET {
            headroom = Some(m);
            break;
        }
    }
    CellOutcome {
        cc: kind,
        strategy,
        sigma_pps,
        headroom,
        tried,
        metrics,
    }
}

/// Compute a single (cc, strategy) cell — probe included. The baseline-cell
/// test uses this to re-derive the committed Reno + round-robin cell
/// without paying for the whole matrix.
pub fn compute_matrix_cell(
    runner: &Runner,
    kind: CcKind,
    strategy: PullStrategy,
    opts: &MatrixOptions,
) -> CellOutcome {
    let sigma_pps = probe_sigma(runner, kind, opts);
    cell_outcome(runner, kind, strategy, sigma_pps, opts)
}

/// Compute the full matrix on a runner.
pub fn compute_matrix(runner: &Runner, opts: &MatrixOptions) -> MatrixOutcome {
    let mut probes = Vec::new();
    let mut cells = Vec::new();
    for kind in CcKind::all() {
        let sigma_pps = probe_sigma(runner, kind, opts);
        probes.push((kind, sigma_pps));
        for strategy in PullStrategy::all() {
            cells.push(cell_outcome(runner, kind, strategy, sigma_pps, opts));
        }
    }
    MatrixOutcome {
        probes,
        cells,
        options: opts.clone(),
    }
}

/// The matrix's text: one row per cell; a cell that met the budget shows
/// the late fraction at its headroom, the last multiple it tried.
pub fn render_cc_matrix(doc: &Json) -> Result<String, RenderError> {
    let multiples = doc.items("multiples")?;
    let largest = match multiples.last() {
        Some(m) => m
            .as_f64()
            .ok_or_else(|| RenderError("a multiple is not a number".into()))?,
        None => f64::NAN,
    };
    let mut t = Table::new(
        format!(
            "ext_cc_matrix: headroom multiple (σ_a/µ for <{:.0} % late, τ = {} s) \
             on Setting {}",
            doc.num("late_budget")? * 100.0,
            doc.num("tau_s")?,
            doc.text("setting")?
        ),
        &[
            "cc",
            "strategy",
            "σ_a (pkt/s)",
            "headroom",
            "late @ headroom",
        ],
    );
    for c in doc.items("cells")? {
        let headroom = c.opt_num("headroom")?;
        let late = match (headroom, c.items("tried")?.last()) {
            (Some(_), Some(last)) => frac(last.num("late")?),
            _ => "—".to_string(),
        };
        t.row(vec![
            c.text("cc")?.to_string(),
            c.text("strategy")?.to_string(),
            format!("{:.1}", c.num("sigma_pps")?),
            headroom.map_or_else(|| format!("> {largest:.1}"), |m| format!("{m:.1}")),
            late,
        ]);
    }
    Ok(t.render())
}

/// The `ext_cc_matrix` extension target.
pub fn ext_cc_matrix(runner: &Runner, scale: &Scale) -> TargetReport {
    let opts = MatrixOptions::from_scale(scale);
    let out = compute_matrix(runner, &opts);
    let cells_json = out.to_json();
    // Fold every cell's metrics; cc/strategy collapse to "mixed" (the matrix
    // spans both axes by construction).
    let mut metrics = obs::MetricsSnapshot::new();
    for c in &out.cells {
        metrics.merge(&c.metrics);
    }
    TargetReport::new(cells_json)
        .with_metrics(metrics)
        .with_meta(
            "matrix",
            Json::obj([
                ("cc_count", Json::Num(out.probes.len() as f64)),
                (
                    "strategy_count",
                    Json::Num(PullStrategy::all().len() as f64),
                ),
            ]),
        )
}
