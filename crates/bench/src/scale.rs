//! Experiment scaling: every target runs at `full` fidelity (the default of
//! the `dmp-bench` binary; minutes of compute) or `quick` (`--quick`: the
//! committed artifacts and the tests that reproduce them; seconds, noisier
//! estimates but the same shape).

use std::path::PathBuf;

use dmp_runner::ArtifactWriter;
use tcp_model::SearchOptions;

/// Knobs shared by all reproduction targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Simulated video duration per run, seconds (paper: 10 000 s).
    pub sim_duration_s: f64,
    /// Replications per simulated setting (paper: 30).
    pub sim_runs: usize,
    /// Consumption events per model late-fraction estimate.
    pub model_consumptions: u64,
    /// Cap on consumption events inside required-τ searches.
    pub search_consumptions: u64,
    /// Packets per live (wall-clock!) streaming run.
    pub live_packets: u64,
    /// Number of live experiments for the Fig. 7 scatter.
    pub live_experiments: usize,
    /// Time-dilation factor for live runs: the emulated paths run `F`×
    /// faster than real time (rates ×F, delays ÷F) and recorded timestamps
    /// are scaled back, so a `packets/µ`-second stream costs `packets/(µF)`
    /// wall seconds. Distortion stays small while the dilated event spacing
    /// (generation interval, chunk serialisation, path delay) remains well
    /// above the tokio timer granularity of ~1 ms.
    pub live_time_dilation: f64,
    /// Base seed.
    pub seed: u64,
    /// Record [`obs`] flight-recorder traces for the targets that support
    /// them (the scenario extensions and the live fig7 runs). Off by
    /// default: traced jobs bypass the result cache (a cache hit would skip
    /// the run and write no trace), so this trades cache reuse for
    /// diagnosability. Enable with `--trace`.
    pub trace: bool,
}

impl Scale {
    /// Full reproduction fidelity (minutes per figure).
    pub fn full() -> Self {
        Self {
            sim_duration_s: 3_000.0,
            sim_runs: 10,
            model_consumptions: 2_000_000,
            search_consumptions: 2_000_000,
            live_packets: 3_000,
            live_experiments: 10,
            live_time_dilation: 4.0,
            seed: 2007,
            trace: false,
        }
    }

    /// Quick mode for smoke runs and tests (seconds per figure).
    pub fn quick() -> Self {
        Self {
            sim_duration_s: 300.0,
            sim_runs: 3,
            model_consumptions: 300_000,
            search_consumptions: 400_000,
            live_packets: 400,
            live_experiments: 3,
            live_time_dilation: 6.0,
            seed: 2007,
            trace: false,
        }
    }

    /// Where traced targets write their flight-recorder files (`None`
    /// unless `trace` is on): the artifact directory's `traces/`.
    pub fn trace_dir(&self) -> Option<PathBuf> {
        self.trace.then(|| ArtifactWriter::from_env().trace_dir())
    }

    /// Search options matching this scale (threshold 1e-4 as in the paper).
    pub fn search_options(&self) -> SearchOptions {
        SearchOptions {
            threshold: 1e-4,
            block: (self.search_consumptions / 5).max(50_000),
            max_consumptions: self.search_consumptions,
            resolution_s: 0.5,
            tau_max_s: 150.0,
            seed: self.seed,
        }
    }
}
