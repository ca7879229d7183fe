//! The always-on metrics layer is deterministic end to end: snapshots are a
//! pure function of the run, so they must come out byte-identical across
//! runner thread counts and whether or not the flight recorder is on — and
//! `bench_diff` over two identical runs must report zero drift while a
//! perturbed metric exits nonzero.

use dmp_bench::diff::{diff_paths, Verdict};
use dmp_bench::target::{execute, TargetReport};
use dmp_bench::Scale;
use dmp_core::spec::SchedulerKind;
use dmp_fleet::{run_fleet, FleetOptions, FleetSpec};
use dmp_runner::{ArtifactWriter, Cache, JsonCodec, Runner};
use dmp_sim::{run_summary, setting, ExperimentSpec, TraceSpec};

fn temp_base(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dmp-metrics-det-{tag}-{}", std::process::id()))
}

/// dmp-sim layer: the snapshot inside a run summary is byte-identical across
/// trace on/off. Both runs pass the event queue's contract check (debug
/// builds), which fixes the event sequence any conforming queue dispatches.
#[test]
fn sim_metrics_identical_across_engines_and_tracing() {
    let base = temp_base("sim");
    let mk = |trace: bool| {
        let s = *setting("2-2").expect("built-in");
        let mut spec = ExperimentSpec::new(s, SchedulerKind::Dynamic, 40.0, 7);
        if trace {
            spec.trace = Some(TraceSpec::new("metrics-det", base.join("traces")));
        }
        let summary = run_summary(&spec, &[4.0]);
        summary.metrics.to_json().render()
    };
    let plain = mk(false);
    let traced = mk(true);
    std::fs::remove_dir_all(&base).ok();
    assert_eq!(plain, traced, "recording must not perturb metrics");
    assert!(plain.contains("net.rtt_us"), "netsim feed present");
    assert!(plain.contains("frame.delay_ms"), "frame feed present");
}

/// A small fleet target for the file-level tests: cheap, multi-shard (so
/// thread counts actually interleave jobs), metrics attached like the real
/// fleet targets.
fn tiny_fleet(runner: &Runner, scale: &Scale) -> TargetReport {
    let mut spec = FleetSpec::new("tiny", 6, 2, scale.seed);
    spec.duration_s = 20.0;
    spec.warmup_s = 1.0;
    spec.arrival_rate_per_s = 0.5;
    spec.mean_hold_s = 8.0;
    spec.video = dmp_core::spec::VideoSpec::new(25.0);
    let result = run_fleet(runner, &spec, &FleetOptions::default());
    let artifact = result.artifact(&spec);
    TargetReport::new("tiny fleet\n", artifact).with_metrics(result.metrics)
}

/// Bench layer: `execute` writes `metrics/<name>.json`, the bytes do not
/// depend on the runner's thread count, `bench_diff` on the two identical
/// runs reports zero drift, and a perturbed metric flips the verdict to
/// drift (nonzero exit).
#[test]
fn metrics_file_thread_invariant_and_diffable() {
    let base = temp_base("threads");
    let mut dirs = Vec::new();
    for threads in [1usize, 8] {
        let dir = base.join(format!("t{threads}"));
        let artifacts = ArtifactWriter::new(&dir);
        let runner = Runner::new(threads, Cache::disabled()).with_progress(false);
        let out = execute(
            "tiny_fleet",
            &runner,
            &artifacts,
            &Scale::quick(),
            tiny_fleet,
        );
        assert_eq!(out.stats.failed, 0);
        dirs.push(dir.join("metrics"));
    }
    let read = |d: &std::path::Path| std::fs::read_to_string(d.join("tiny_fleet.json")).unwrap();
    assert_eq!(
        read(&dirs[0]),
        read(&dirs[1]),
        "metrics file must be byte-identical across 1 and 8 runner threads"
    );

    // bench_diff over the two identical runs: zero drift, exit code 0.
    let report = diff_paths(&dirs[0], &dirs[1]).unwrap();
    assert_eq!(report.verdict(), Verdict::Ok);
    assert_eq!(report.verdict().exit_code(), 0);
    assert!(report.compared > 0);

    // Perturb one metric: verdict drift, nonzero exit.
    let doc = read(&dirs[1]);
    let perturbed = doc.replacen(
        "\"fleet.sessions_started\": ",
        "\"fleet.sessions_started\": 9",
        1,
    );
    assert_ne!(doc, perturbed, "perturbation must apply");
    std::fs::write(dirs[1].join("tiny_fleet.json"), perturbed).unwrap();
    let report = diff_paths(&dirs[0], &dirs[1]).unwrap();
    assert_eq!(report.verdict(), Verdict::Drift);
    assert_ne!(report.verdict().exit_code(), 0);
    assert!(report
        .drifted
        .iter()
        .any(|d| d.path.contains("fleet.sessions_started")));

    std::fs::remove_dir_all(&base).ok();
}

/// Acceptance: `ext_fleet` at quick scale carries per-session lateness and
/// headroom histograms in its `.meta.json` — with tracing off.
#[test]
fn ext_fleet_quick_meta_carries_session_histograms() {
    let base = temp_base("extfleet");
    let artifacts = ArtifactWriter::new(&base);
    let runner = Runner::new(4, Cache::disabled()).with_progress(false);
    let scale = Scale::quick();
    assert!(!scale.trace, "must hold without enabling traces");
    let out = execute(
        "ext_fleet",
        &runner,
        &artifacts,
        &scale,
        dmp_bench::fleet::ext_fleet,
    );
    assert_eq!(out.stats.failed, 0);

    let meta_text = std::fs::read_to_string(base.join("ext_fleet.meta.json")).unwrap();
    let meta = dmp_runner::json::parse(&meta_text).expect("valid sidecar");
    let snap = obs::MetricsSnapshot::from_json(meta.get("metrics").expect("metrics section"))
        .expect("metrics section decodes");
    for h in ["fleet.session_late_ppm", "fleet.session_headroom_milli"] {
        assert!(
            snap.histograms.get(h).is_some_and(|h| h.count() > 0),
            "{h} missing/empty in {meta_text}"
        );
    }
    assert!(base.join("metrics/ext_fleet.json").is_file());

    std::fs::remove_dir_all(&base).ok();
}
