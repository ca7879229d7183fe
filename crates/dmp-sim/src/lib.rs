//! `dmp-sim` — the paper's Section 5 simulation study, rebuilt on the
//! `netsim` discrete-event simulator: topologies (independent paths, Fig. 3;
//! correlated paths, Fig. 6), Table-1 bottleneck configurations, the video
//! applications (DMP server, static server, recording client), and batch
//! experiment runners that measure the per-path TCP parameters reported in
//! Tables 2 and 3.
//!
//! # Quick start
//!
//! ```
//! use dmp_core::spec::SchedulerKind;
//! use dmp_sim::configs::setting;
//! use dmp_sim::experiment::{run, ExperimentSpec};
//!
//! let mut spec = ExperimentSpec::new(
//!     *setting("2-2").unwrap(),
//!     SchedulerKind::Dynamic,
//!     60.0, // seconds of video
//!     42,   // seed
//! );
//! spec.warmup_s = 10.0;
//! let out = run(&spec);
//! assert!(out.trace.delivered() > 0);
//! println!(
//!     "path 0: p = {:.3}, R = {:.0} ms",
//!     out.paths[0].loss,
//!     out.paths[0].rtt_s * 1e3
//! );
//! ```

#![warn(missing_docs)]

pub mod configs;
pub mod experiment;
pub mod probe;
pub mod topology;
pub mod video;

pub use configs::{
    config, setting, BottleneckConfig, Setting, CORRELATED, HETEROGENEOUS, HOMOGENEOUS, TABLE1,
};
pub use experiment::{
    batch_jobs, run, run_scenario_summary, run_summary, scenario_batch_jobs, BatchOutput,
    ExperimentSpec, MeasuredPath, RunOutput, RunSummary, ScenarioSummary, TraceSpec,
};
