//! `dmp-bench` — the reproduction harness: one target per table and figure
//! of *Multipath Live Streaming via TCP* (CoNEXT 2007).
//!
//! Every experiment is exposed once: as a line of [`target::TARGETS`], run
//! by the one `dmp-bench` binary —
//!
//! ```text
//! cargo run --release -p dmp-bench -- <target>… [--quick] [--trace]
//! ```
//!
//! — which writes each target's artifacts, prints its paper-shaped
//! table/series rendered from the artifact it wrote, and ends with a
//! per-target telemetry summary. Full fidelity is the default; `--quick` is
//! the reduced [`Scale::quick`] pass the committed `artifacts/` and their
//! tier-1 reproduction gate use.
//! Anything else on the command line (an unknown flag or target, a repeated
//! target, no target) is refused before a job runs. The kernels' speed is
//! measured by `benchmark/` (per-layer metrics of one traced pipeline) and
//! nowhere else. The last four rows of the table are not targets: `render`
//! is a `dmp-bench` subcommand, the other three the package's tool binaries
//! (`cargo run --release -p dmp-bench --bin <tool>`).
//!
//! | target | reproduces |
//! |--------|------------|
//! | `fig1`      | Fig. 1 — cumulative generation/arrival/playback curves |
//! | `table1`    | Table 1 (configurations) |
//! | `table2`    | Table 2 (independent paths: measured p, R, T_O, µ) |
//! | `table3`    | Table 3 (correlated paths) |
//! | `fig4`      | Fig. 4(a,b) — Setting 2-2 validation |
//! | `fig5`      | Fig. 5(a,b) — Setting 1-2 validation |
//! | `correlated_validation` | Section 5.3's correlated-path validation (figures omitted in the paper) |
//! | `fig7`      | Fig. 7(a,b) — live-socket validation |
//! | `fig8`      | Fig. 8 — diminishing gain from σ_a/µ |
//! | `fig9a`, `fig9b` | Fig. 9(a,b) — required startup delay at σ_a/µ = 1.6 |
//! | `fig10`     | Fig. 10 — path heterogeneity |
//! | `fig11`     | Fig. 11 — DMP vs static streaming |
//! | `fig_fluid` | Section 7.3 fluid example |
//! | `headline`  | the 1.6× (K=2) vs 2× (K=1) rule |
//! | `all`       | everything above, in paper order |
//! | `ext_kpaths`, `ext_stored`, `ext_ablations` | extensions beyond the paper (K > 2 paths, stored video, design ablations) |
//! | `ext_failover`, `ext_flashcrowd` | scripted path dynamics: mid-stream path failure and a transient flash crowd, with resilience metrics per scheduler |
//! | `ext_fleet`, `fleet_headroom` | fleet-scale simulation: sharded multi-session fleets with Poisson churn and flash-crowd arrivals; admission capacity under the 1.6× rule |
//! | `ext_cc_matrix` | the (congestion control × pull strategy) headroom matrix: smallest σ_a/µ multiple keeping late frames under 1 % per (Reno/CUBIC/BBR-lite, round-robin/weighted/best-path/redundant/deadline) cell, with saturation-probed σ_a |
//! | `capacity_planner` | dense (loss × τ) heatmaps of the maximum supported bitrate for single-path/static/DMP streaming, one batched cacheable µ-bisection job per cell |
//! | `ext_planner_check` | the planner's residual-capacity prediction of the fleet admission knee vs `fleet_headroom`'s measured one, with the relative error |
//! | `render`    | `dmp-bench render <file\|dir>…`: print any artifact the harness wrote as its run printed it — a target's `<name>.json` through the target's renderer, a `metrics/<name>.json` snapshot as percentile tables with sparkline histogram shapes |
//! | `trace_report` | post-process an [`obs`] flight-recorder JSONL trace (recorded with `--trace`) into cwnd/throughput timelines, queue percentiles and a per-glitch "why" report |
//! | `trace_example` | record the committed quick-scale `ext_failover` example trace and its report (see `artifacts/traces/`) |
//! | `bench_diff` | cross-run regression differ: compare two metrics files/directories leaf by leaf, any moved number being drift; exit 0 no drift, 1 drift, 2 incomparable configs |

#![warn(missing_docs)]

pub mod cc_matrix;
pub mod diff;
pub mod extensions;
pub mod fig1;
pub mod fleet;
pub mod fluid_fig;
pub mod hetero;
pub mod live_fig;
pub mod metrics_report;
pub mod params;
pub mod planner;
pub mod report;
pub mod scale;
pub mod scenarios;
pub mod static_cmp;
pub mod tables;
pub mod target;
pub mod trace_example;
pub mod trace_report;
pub mod validation;

pub use scale::Scale;
pub use target::{TargetFn, TargetReport};

/// Resolve a repo-root-relative path (`artifacts/...`) from wherever the
/// binary runs. Cargo starts test binaries with the *package* directory as
/// CWD, while CI and humans pass paths relative to the workspace root — so if
/// the path does not exist as given, fall back to the workspace root (two
/// levels above this crate's manifest).
pub fn repo_path(p: &str) -> std::path::PathBuf {
    let direct = std::path::PathBuf::from(p);
    if direct.is_absolute() || direct.exists() {
        return direct;
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(p)
}
