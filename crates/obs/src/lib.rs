//! `obs` — the flight-recorder observability layer.
//!
//! Every layer of the stack (the `netsim` engine, the `dmp-sim` scheduler
//! apps, the `scenario` driver, and the `dmp-live` socket experiments) feeds
//! one structured event stream with a shared schema: per-connection TCP state
//! transitions, queue-occupancy samples, per-path pull/stripe decisions, and
//! scripted path events. Events are timestamped in simulation time (or
//! nominal time for live runs, so the two are directly comparable) and sink
//! into a bounded in-memory ring that spills to JSONL — one file per run.
//!
//! Three invariants make the recorder safe to leave wired into the hot path:
//!
//! * **zero-cost when off** — producers check a flag before constructing any
//!   event; a disabled run executes the exact same instruction stream and
//!   consumes the exact same RNG draws as a build that never heard of
//!   tracing, so deterministic artifacts are byte-identical either way;
//! * **deterministic when on** — emission is a pure function of simulation
//!   state, so a trace file is byte-identical across runner thread counts
//!   (each run writes its own file);
//! * **bounded memory** — the ring holds a fixed number of events and spills
//!   to its sink when full, so multi-minute traces never accumulate in RAM.
//!
//! The [`report`] module parses traces back and computes paper-style
//! diagnostics (cwnd evolution, per-path throughput timelines, queue-depth
//! percentiles); the `trace-report` binary in `dmp-bench` builds the
//! per-glitch "why" report on top.
//!
//! A run is traced when its input carries a [`TraceSpec`] (label and
//! directory), and it hands back a [`TraceFileRef`] (label, path, events)
//! in its result; the harness lists those in the `.meta.json` sidecars.
//! Nothing here is process-global.
//!
//! The [`metrics`] module is the complementary **always-on** layer: cheap
//! mergeable counters/gauges/histograms that every run records regardless of
//! tracing, snapshotted into artifact sidecars and compared across runs by
//! the `bench_diff` regression differ.

#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod recorder;
pub mod report;

pub use event::{EventKind, PathAction, TraceEvent};
pub use metrics::{record_frame_metrics, Histogram, MetricsSnapshot};
pub use recorder::{Recorder, TraceConfig, TraceFileRef, TraceSpec};
pub use report::Trace;

/// Sanitise a run label into a file stem: every character outside
/// `[A-Za-z0-9._-]` becomes `_`. Labels like `scn:failover:Dmp:run0` map to
/// stable, filesystem-safe names.
pub fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_sanitise_to_file_stems() {
        assert_eq!(
            sanitize_label("scn:failover:Dmp:run0"),
            "scn_failover_Dmp_run0"
        );
        assert_eq!(sanitize_label("a b/c"), "a_b_c");
        assert_eq!(sanitize_label("ok-1.2_x"), "ok-1.2_x");
    }
}
