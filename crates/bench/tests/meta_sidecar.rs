//! The `.meta.json` sidecar of a live target must carry the run's evidence:
//! the shaping timeline each emulated path actually applied, and — when the
//! scale's `trace` flag is on — the flight-recorder trace file references.
//! One test function: `Scale::trace_dir` follows the `DMP_ARTIFACT_DIR`
//! environment variable.

use dmp_bench::{target, Scale};
use dmp_runner::{ArtifactWriter, Cache, Json, Runner};

#[test]
fn live_meta_sidecar_lists_applied_timelines_and_trace_files() {
    let base = std::env::temp_dir().join(format!("dmp-meta-sidecar-{}", std::process::id()));
    std::env::set_var("DMP_ARTIFACT_DIR", base.join("artifacts"));
    let artifacts = ArtifactWriter::from_env();
    let runner = Runner::new(2, Cache::disabled()).with_progress(false);
    let mut scale = Scale::quick();
    scale.live_experiments = 1; // two paths
    scale.live_packets = 150;
    scale.live_time_dilation = 8.0;
    scale.model_consumptions = 20_000;
    scale.trace = true;

    let out = target::execute(
        "fig7",
        &runner,
        &artifacts,
        &scale,
        dmp_bench::live_fig::fig7,
    );
    assert_eq!(out.stats.failed, 0, "live jobs must succeed");

    let meta_text =
        std::fs::read_to_string(base.join("artifacts/fig7.meta.json")).expect("sidecar written");
    let meta = dmp_runner::json::parse(&meta_text).expect("sidecar is valid JSON");

    // The per-path shaping timelines the emulators actually applied.
    let Some(Json::Obj(timelines)) = meta.get("live_timelines") else {
        panic!("sidecar lacks live_timelines: {meta_text}");
    };
    assert_eq!(timelines.len(), 2, "one timeline per emulated path");
    for (label, points) in timelines {
        let points = points.as_arr().unwrap();
        assert!(!points.is_empty(), "timeline {label} is empty");
        assert!(points[0].get("rate_bps").is_some());
    }

    // The flight-recorder trace written by the traced live run.
    let files = meta
        .get("trace_files")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("sidecar lacks trace_files: {meta_text}"));
    assert_eq!(files.len(), 1, "one trace per traced experiment");
    assert_eq!(
        files[0].get("label").and_then(Json::as_str),
        Some("fig7_live_exp0")
    );
    let path = files[0].get("path").and_then(Json::as_str).unwrap();
    let events = files[0].get("events").and_then(Json::as_u64).unwrap();
    let trace_text = std::fs::read_to_string(path).expect("trace file exists");
    assert!(events > 0);
    assert_eq!(trace_text.lines().count() as u64, events);

    std::env::remove_var("DMP_ARTIFACT_DIR");
    std::fs::remove_dir_all(&base).ok();
}
